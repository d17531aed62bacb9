//! Execution tracing: a bounded ring buffer of retired instructions and a
//! branch history, for debugging guest programs and for fault-injection
//! forensics (what executed between injection and detection).

use cfed_isa::Inst;
use cfed_telemetry::json::{obj, Json};
use std::collections::VecDeque;
use std::fmt;

/// One retired instruction in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Address the instruction was fetched from.
    pub addr: u64,
    /// The instruction.
    pub inst: Inst,
    /// For conditional branches, whether it was taken.
    pub taken: Option<bool>,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}: {}", self.addr, self.inst)?;
        match self.taken {
            Some(true) => write!(f, "  [taken]"),
            Some(false) => write!(f, "  [not taken]"),
            None => Ok(()),
        }
    }
}

/// A bounded execution tracer, fed by
/// [`Machine::step_cpu`](crate::Machine::step_cpu) once attached.
///
/// # Examples
///
/// ```
/// use cfed_isa::{encode_all, Inst, Reg};
/// use cfed_sim::{Machine, Step};
///
/// let code = encode_all(&[Inst::MovRI { dst: Reg::R0, imm: 1 }, Inst::Halt]);
/// let mut m = Machine::load(&code, &[], 0);
/// m.attach_tracer_resumed(16, 0);
/// while m.step_cpu()? != Step::Halt {}
/// assert_eq!(m.tracer.as_ref().unwrap().entries().count(), 2);
/// # Ok::<(), cfed_sim::Trap>(())
/// ```
#[derive(Debug, Clone)]
pub struct Tracer {
    capacity: usize,
    ring: VecDeque<TraceEntry>,
    branch_ring: VecDeque<TraceEntry>,
    retired: u64,
}

impl Tracer {
    /// Creates a tracer keeping the last `capacity` instructions (and the
    /// last `capacity` branches, tracked separately).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Tracer {
        assert!(capacity > 0, "tracer capacity must be positive");
        Tracer {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            branch_ring: VecDeque::with_capacity(capacity),
            retired: 0,
        }
    }

    /// As [`Tracer::new`], with the retired counter starting at `retired`
    /// instead of zero — for execution resumed from a snapshot, where the
    /// instructions before the snapshot retired without this tracer
    /// watching but must still be reflected in [`Tracer::retired`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn resumed(capacity: usize, retired: u64) -> Tracer {
        let mut t = Tracer::new(capacity);
        t.retired = retired;
        t
    }

    /// Records `entry` as retired. `Machine::step_cpu` reads the entry
    /// through the statistics-neutral `Machine::peek_inst`, steps, and hands
    /// it here only if the step retired, so a traced step counts exactly the
    /// fetches an untraced one does.
    pub(crate) fn record(&mut self, entry: TraceEntry) {
        push_bounded(&mut self.ring, self.capacity, entry);
        if entry.inst.is_branch() {
            push_bounded(&mut self.branch_ring, self.capacity, entry);
        }
        self.retired += 1;
    }

    /// The recorded tail of the instruction stream, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.ring.iter()
    }

    /// The recorded tail of the branch stream, oldest first.
    pub fn branches(&self) -> impl Iterator<Item = &TraceEntry> {
        self.branch_ring.iter()
    }

    /// Total instructions retired through this tracer (not just retained).
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Clears the retained entries (keeps the retired counter).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.branch_ring.clear();
    }

    /// Exports the ring buffers as a JSON object for telemetry events and
    /// forensics bundles: `{"retired":…,"window":[…],"branches":[…]}`, each
    /// entry `{"addr":…,"inst":"…"[,"taken":…]}` oldest first.
    pub fn export(&self) -> Json {
        let entry_json = |e: &TraceEntry| {
            let mut pairs =
                vec![("addr", Json::UInt(e.addr)), ("inst", Json::Str(e.inst.to_string()))];
            if let Some(taken) = e.taken {
                pairs.push(("taken", Json::Bool(taken)));
            }
            obj(pairs)
        };
        obj(vec![
            ("retired", Json::UInt(self.retired)),
            ("window", Json::Arr(self.ring.iter().map(entry_json).collect())),
            ("branches", Json::Arr(self.branch_ring.iter().map(entry_json).collect())),
        ])
    }

    /// Renders the retained trace as a listing.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.ring {
            let _ = writeln!(out, "{e}");
        }
        out
    }
}

fn push_bounded(ring: &mut VecDeque<TraceEntry>, cap: usize, entry: TraceEntry) {
    if ring.len() == cap {
        ring.pop_front();
    }
    ring.push_back(entry);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Layout, Machine, Step};
    use cfed_isa::{encode_all, AluOp, Cond, Reg};

    /// A machine running `insts` with a tracer of `capacity` attached.
    fn setup(insts: &[Inst], capacity: usize) -> Machine {
        let mut m = Machine::load(&encode_all(insts), &[], 0);
        m.attach_tracer_resumed(capacity, 0);
        m
    }

    /// Steps `m` to halt or trap and returns its tracer.
    fn run(m: &mut Machine) -> &Tracer {
        while let Ok(Step::Continue) = m.step_cpu() {}
        m.tracer.as_ref().unwrap()
    }

    #[test]
    fn records_in_order_with_taken_bits() {
        let mut m = setup(
            &[
                Inst::MovRI { dst: Reg::R0, imm: 2 },
                Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 }, // loop head
                Inst::Jcc { cc: Cond::Ne, offset: -16 },
                Inst::Halt,
            ],
            64,
        );
        let t = run(&mut m);
        let entries: Vec<_> = t.entries().collect();
        assert_eq!(entries[0].addr, Layout::default().code_base);
        assert_eq!(t.retired(), entries.len() as u64);
        // The jcc appears twice: taken once, then not taken.
        let branches: Vec<_> = t.branches().collect();
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[0].taken, Some(true));
        assert_eq!(branches[1].taken, Some(false));
    }

    #[test]
    fn ring_is_bounded() {
        let mut m = setup(
            &[
                Inst::MovRI { dst: Reg::R0, imm: 50 },
                Inst::AluI { op: AluOp::Sub, dst: Reg::R0, imm: 1 },
                Inst::Jcc { cc: Cond::Ne, offset: -16 },
                Inst::Halt,
            ],
            8,
        );
        let t = run(&mut m);
        assert_eq!(t.entries().count(), 8);
        assert!(t.retired() > 8);
        // The last retained entry is the halt.
        assert_eq!(t.entries().last().unwrap().inst, Inst::Halt);
    }

    #[test]
    fn faulting_instruction_not_recorded() {
        let mut m = setup(
            &[
                Inst::Nop,
                // Load from an unmapped page.
                Inst::Ld { dst: Reg::R0, base: Reg::R1, disp: 0x2000 },
            ],
            8,
        );
        assert!(matches!(m.step_cpu(), Ok(Step::Continue)));
        assert!(m.step_cpu().is_err());
        let t = m.tracer.as_ref().unwrap();
        assert_eq!(t.entries().count(), 1, "the trapped load must not appear");
        assert_eq!(t.retired(), 1);
    }

    #[test]
    fn render_and_clear() {
        let mut m = setup(&[Inst::Nop, Inst::Halt], 4);
        let text = run(&mut m).render();
        assert!(text.contains("nop"));
        assert!(text.contains("halt"));
        let t = m.tracer.as_mut().unwrap();
        t.clear();
        assert_eq!(t.entries().count(), 0);
        assert_eq!(t.retired(), 2);
    }

    #[test]
    fn export_matches_rings() {
        let mut m = setup(
            &[
                Inst::MovRI { dst: Reg::R0, imm: 1 },
                Inst::Jcc { cc: Cond::Ne, offset: 8 },
                Inst::Halt,
            ],
            8,
        );
        let t = run(&mut m);
        let v = t.export();
        assert_eq!(v.get("retired").and_then(Json::as_u64), Some(t.retired()));
        let window = v.get("window").and_then(Json::as_arr).unwrap();
        assert_eq!(window.len(), t.entries().count());
        assert_eq!(window[0].get("addr").and_then(Json::as_u64), Some(Layout::default().code_base));
        let branches = v.get("branches").and_then(Json::as_arr).unwrap();
        assert_eq!(branches.len(), 1);
        assert_eq!(branches[0].get("taken"), Some(&Json::Bool(true)));
        // The export renders and reparses in the store's JSON subset.
        let text = v.render();
        assert_eq!(cfed_telemetry::json::parse(&text).unwrap(), v);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Tracer::new(0);
    }
}
