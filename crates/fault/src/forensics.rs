//! Forensics bundles: what executed around a fault that ended badly.
//!
//! When a campaign trial produces silent data corruption, a timeout, or a
//! misdetection (a fault classified as harmless that was not benign), the
//! runner re-injects the *same* deterministic fault with an execution
//! tracer attached and packages the evidence: the faulted instruction
//! address, the flipped bit (or, for an attack, its archetype, parameter
//! and where the seized transfer went), the classification, and the
//! tracer's last-N instruction window and branch history ending at the
//! detection point.

use crate::attack::AttackProvenance;
use crate::inject::{inject_traced, FaultSpec, Golden, InjectionResult, Outcome, TrialSpec};
use crate::snapshot::SnapshotSet;
use cfed_asm::Image;
use cfed_core::{CachePart, Category, RunConfig};
use cfed_telemetry::json::{obj, Json};

/// Default instruction-window length retained by forensics captures.
pub const DEFAULT_TRACE_WINDOW: usize = 64;

/// Evidence package for one interesting trial.
#[derive(Debug, Clone)]
pub struct ForensicsBundle {
    /// The injected fault or mounted attack.
    pub spec: TrialSpec,
    /// The (re-produced) result.
    pub result: InjectionResult,
    /// For attacks, where the seized control transfer actually went and
    /// which translated-block part it landed on.
    pub provenance: Option<AttackProvenance>,
    /// The tracer export: `{"retired":…,"window":[…],"branches":[…]}`,
    /// oldest first, ending at the detection point.
    pub trace: Json,
}

impl ForensicsBundle {
    /// Whether a trial's result warrants a forensics capture: SDC, a
    /// timeout, or a misdetection (classified [`Category::NoError`] — the
    /// flipped bit supposedly could not change control flow — yet the run
    /// was not benign). Faults and attacks share this notion of
    /// "interesting".
    pub fn wanted(result: &InjectionResult) -> bool {
        matches!(result.outcome, Outcome::Sdc | Outcome::Timeout)
            || (result.category == Category::NoError && result.outcome != Outcome::Benign)
    }

    /// Re-runs `spec` with a tracer of `window` instructions attached,
    /// fast-forwarding through `snapshots` when provided, and bundles the
    /// evidence. Trials are deterministic, so the result matches the plain
    /// trial's, and the bundle — result *and* trace — is bit-identical to
    /// the from-scratch capture (see [`inject_traced`]). Returns `None` if
    /// the trial cannot be placed (which a previously-placed trial never
    /// hits) or if the fault-free prefix misbehaves (ditto — the golden run
    /// succeeded).
    pub fn capture_with(
        image: &Image,
        cfg: &RunConfig,
        spec: impl Into<TrialSpec>,
        golden: &Golden,
        window: usize,
        snapshots: Option<&SnapshotSet>,
    ) -> Option<ForensicsBundle> {
        let spec = spec.into();
        let (result, tracer, provenance) =
            inject_traced(image, cfg, spec, golden, window, snapshots).ok()??;
        Some(ForensicsBundle { spec, result, provenance, trace: tracer.export() })
    }

    /// Serializes the bundle for the JSONL event sink.
    pub fn to_json(&self) -> Json {
        let mut pairs = match self.spec {
            TrialSpec::Fault(fault) => {
                let (kind, nth, bit) = match fault {
                    FaultSpec::AddrBit { nth, bit } => ("addr_bit", nth, bit),
                    FaultSpec::FlagBit { nth, bit } => ("flag_bit", nth, bit),
                };
                vec![
                    ("fault", Json::Str(kind.to_string())),
                    ("nth_branch", Json::UInt(nth)),
                    ("flipped_bit", Json::UInt(bit as u64)),
                ]
            }
            TrialSpec::Attack(attack) => vec![
                ("attack", Json::Str(attack.kind.name().to_string())),
                ("nth_branch", Json::UInt(attack.nth)),
                ("param", Json::UInt(attack.param)),
            ],
        };
        pairs.push(("site", Json::UInt(self.result.site)));
        if let Some(provenance) = self.provenance {
            let part = |p: CachePart| match p {
                CachePart::Head => "head",
                CachePart::Payload => "payload",
                CachePart::Tail => "tail",
            };
            let attribution = match provenance.attribution {
                Some((guest_start, p)) => obj(vec![
                    ("guest_block", Json::UInt(guest_start)),
                    ("part", Json::Str(part(p).to_string())),
                ]),
                None => Json::Null,
            };
            pairs.push(("target", Json::UInt(provenance.target)));
            pairs.push(("attribution", attribution));
        }
        pairs.extend([
            ("category", Json::Str(self.result.category.to_string())),
            ("outcome", Json::Str(self.result.outcome.to_string())),
            ("latency_insts", Json::UInt(self.result.latency_insts)),
            ("trace", self.trace.clone()),
        ]);
        obj(pairs)
    }
}
