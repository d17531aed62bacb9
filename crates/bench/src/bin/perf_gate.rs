//! The CI perf gate: writes the `BENCH_campaign.json` performance record
//! and fails when a gated speedup regresses.
//!
//! Runs a fixed-seed smoke campaign twice — fast-forward snapshots on and
//! off — and checks the tallies match bit for bit. Then it times paired
//! laps on the same workloads:
//!
//! * the interpreter with and without the pre-decoded instruction cache
//!   (guest MIPS each way, plus the cache's hit/miss/invalidation counters);
//! * the profiler-capable dispatch with profiling off against the direct
//!   decoded loop;
//! * where the host supports it, the DBT's x86-64 native backend against
//!   the decoded interpreter;
//! * the §2 error model (`analyze_image`, which runs branch to branch)
//!   against the decoded interpreter;
//! * the MiniC compiler on the 26 `Scale::Full` images (compiled VISA
//!   instructions per second) against the decoded interpreter's guest
//!   MIPS.
//!
//! Every gated figure is a ratio of two passes in one invocation on one
//! host, so it self-normalizes away host speed and a committed record is a
//! portable baseline. The run exits 1 when:
//!
//! * the profiler-off dispatch costs ≥1% throughput;
//! * native is below 2.00x the decoded interpreter;
//! * the error model is below 0.35x the decoded interpreter;
//! * the compiler is below 0.043x the decoded interpreter;
//! * with `--baseline PATH`, the snapshot, interp or native speedup is more
//!   than 25% below the committed record's.
//!
//! Usage: `cargo run --release -p cfed-bench --bin perf_gate -- [OPTIONS]`

use std::path::PathBuf;
use std::time::Instant;

use cfed_core::{run_dbt_native_enabled, Category, RunConfig, TechniqueKind};
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::analyze_image;
use cfed_runner::cli::Parser;
use cfed_runner::matrix::{CampaignMatrix, WorkloadSpec};
use cfed_runner::pool::{run_matrix, RunPerf, RunSummary, RunnerOptions};
use cfed_sim::{DecodeCacheStats, Machine};
use cfed_telemetry::json::{obj, Json};
use cfed_workloads::Scale;

/// Tolerated slowdown against the committed baseline before the perf gate
/// fails: each current speedup must stay at or above 75% of the
/// baseline's. The gate compares *speedups*, not absolute trials/sec —
/// both passes run on the same host in the same invocation, so the ratio
/// self-normalizes away host speed, turbo state and CI-runner contention
/// that absolute rates would false-positive on.
const BASELINE_TOLERANCE_PCT: u64 = 25;

/// Hard budget for what the profiler-capable dispatch may cost when no
/// profiler is attached, in percent of direct interpreter throughput. Both
/// laps run in the same invocation, so this gate needs no committed
/// baseline and fails the run outright when exceeded.
const PROFILER_OFF_BUDGET_PCT: f64 = 1.0;

/// Hard floor on native-JIT-over-decoded-interpreter guest throughput, in
/// milli-ratio units (2000 = 2.00x). Like the profiler-off gate this needs
/// no committed baseline, and a native backend that cannot double the
/// decoded interpreter is a regression outright.
const NATIVE_MIN_RATIO_MILLI: u64 = 2000;

/// Hard floor on error-model-over-decoded-interpreter guest throughput, in
/// milli-ratio units. The error model bursts to each branch on the decoded
/// interpreter and single-steps only the branch: on the bench workloads
/// (a branch every 9–12 instructions) it measured 0.44–0.62x over six
/// runs on a 2-vCPU x86-64 host, against 0.22x for decoding and stepping
/// every instruction. The floor sits halfway.
const ERROR_MODEL_MIN_RATIO_MILLI: u64 = 350;

/// Hard floor on compiled instructions per second over the decoded
/// interpreter's guest instructions per second, in milli-ratio units. The
/// compile lap compiles the 26 `Scale::Full` images (3.67 M instructions)
/// once. Over ten runs each on a 2-vCPU x86-64 host the ratio read 16–34
/// (median 30) before the MiniC front end stopped copying names (borrowed
/// tokens, interned identifiers, integer labels) and 52–118 (median 89)
/// after; the spread is mostly the short decoded-interpreter laps. The
/// floor sits halfway between the highest reading before and the lowest
/// after.
const COMPILE_MIN_RATIO_MILLI: u64 = 43;

/// Scale factor for the interpreter, native and error-model laps. The
/// @test instances retire ~10–30k guest instructions, so the JIT's fixed
/// per-run costs (code-buffer mapping, block compilation) dominate and the
/// measurement says nothing about emitted-code throughput; at this scale
/// each lap retires a few million instructions and translation amortizes
/// to noise, which is the regime the backend exists for. The interpreter
/// laps need it too: at @test they lasted 0.1–0.3 ms, and their best-of-7
/// decoded MIPS read either ~70–100 k or ~150 k milli from run to run.
const NATIVE_BENCH_SCALE: u64 = 400;

fn main() {
    let args = Parser::new(
        "perf_gate",
        "fixed-seed smoke campaign timing the fast-forward engine (the CI perf gate)",
    )
    .flag("trials", "N", "192", "injections per workload per configuration")
    .flag("threads", "N", "0", "worker threads (0 = all cores)")
    .flag("seed", "SEED", "3488423942", "campaign RNG seed")
    .flag("out", "PATH", "BENCH_campaign.json", "write the benchmark record here")
    .flag(
        "baseline",
        "PATH",
        "",
        "committed benchmark record to gate against; exit 1 when >25% slower",
    )
    .switch("quiet", "suppress stderr progress output")
    .parse();
    let die = |message: String| -> ! {
        eprintln!("perf_gate: {message}");
        std::process::exit(2);
    };
    let trials = args.get_u64("trials").unwrap_or_else(|e| die(e));
    let threads = args.get_usize("threads").unwrap_or_else(|e| die(e));
    let seed = args.get_u64("seed").unwrap_or_else(|e| die(e));
    let quiet = args.has("quiet");
    let out = PathBuf::from(args.get("out").expect("has default"));

    let matrix = bench_matrix(trials, seed);
    let cells = matrix.cells();
    if !quiet {
        eprintln!(
            "perf_gate: {} cells, {} shards, {trials} trials/cell, seed {seed}",
            cells.len(),
            CampaignMatrix::shards(&cells).len()
        );
    }

    let run_pass = |label: &str, snapshots: bool| -> RunSummary {
        let options = RunnerOptions { threads, quiet: true, snapshots, ..Default::default() };
        let summary = run_matrix(&matrix, label, None, &options).unwrap_or_else(|e| die(e));
        if !summary.complete() {
            let failures: Vec<&String> = summary.cells.iter().flat_map(|c| &c.failures).collect();
            die(format!("{label} pass had failed shards: {failures:?}"));
        }
        if !quiet {
            eprintln!(
                "perf_gate: {label:<9} {:>7.1} trials/s ({} trials in {} ms)",
                summary.perf.trials_per_sec, summary.perf.executed_trials, summary.perf.wall_ms
            );
        }
        summary
    };
    let scratch = run_pass("scratch", false);
    let snap = run_pass("snapshots", true);

    // The fast path must be an optimization, not a different experiment:
    // identical tallies, trial for trial.
    for (a, b) in snap.cells.iter().zip(&scratch.cells) {
        let (ra, rb) = (a.report.as_ref().unwrap(), b.report.as_ref().unwrap());
        for c in Category::ALL {
            if ra.category(c) != rb.category(c) {
                die(format!("outcome divergence in cell {} category {c}", a.key));
            }
        }
        if ra.skipped != rb.skipped || ra.latency_totals() != rb.latency_totals() {
            die(format!("outcome divergence in cell {}", a.key));
        }
    }

    let (interp, decode) = bench_interp(quiet).unwrap_or_else(|e| die(e));
    let native = bench_native(quiet).unwrap_or_else(|e| die(e));
    let error_model = bench_error_model(quiet).unwrap_or_else(|e| die(e));
    let prof_off = bench_profiler_off().unwrap_or_else(|e| die(e));
    let compile_ips = bench_compile(quiet).unwrap_or_else(|e| die(e));
    if !quiet {
        eprintln!(
            "perf_gate: prof-off   dispatch {:.1} MIPS, direct {:.1} MIPS ({:.2}% overhead)",
            prof_off.fast,
            prof_off.base,
            overhead_pct(prof_off)
        );
    }

    let measured = Measured {
        snap: snap.perf,
        scratch: scratch.perf,
        interp,
        decode,
        prof_off,
        native,
        error_model,
        compile_ips,
    };
    let record = record(&matrix, threads, &measured);
    std::fs::write(&out, record.render() + "\n")
        .unwrap_or_else(|e| die(format!("writing {}: {e}", out.display())));
    println!(
        "perf_gate: snapshots {:.1} trials/s, scratch {:.1} trials/s, speedup {:.2}x -> {}",
        snap.perf.trials_per_sec,
        scratch.perf.trials_per_sec,
        measured.snapshot_speedup(),
        out.display()
    );
    println!(
        "perf_gate: interpreter raw {:.1} MIPS, decoded {:.1} MIPS, speedup {:.2}x",
        interp.base,
        interp.fast,
        interp.speedup()
    );

    // The absolute gates need no baseline: both laps of each ran in this
    // invocation on this host.
    let mut verdicts = vec![
        profiler_off_gate(overhead_pct(prof_off)),
        floor_gate("native backend over the decoded interpreter", native, NATIVE_MIN_RATIO_MILLI),
        floor_gate(
            "error model over the decoded interpreter",
            Some(error_model),
            ERROR_MODEL_MIN_RATIO_MILLI,
        ),
        floor_gate(
            "compiler over the decoded interpreter",
            Some(measured.compile()),
            COMPILE_MIN_RATIO_MILLI,
        ),
    ];
    if let Some(baseline_path) = args.get("baseline").filter(|s| !s.is_empty()) {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| die(format!("reading baseline {baseline_path}: {e}")));
        let baseline = cfed_telemetry::json::parse(&text)
            .unwrap_or_else(|e| die(format!("parsing baseline {baseline_path}: {e}")));
        if baseline.get("speedup_milli").and_then(Json::as_u64).is_none() {
            die(format!("baseline {baseline_path} has no speedup_milli"));
        }
        for (name, key, current) in measured.gated_ratios() {
            verdicts.push(baseline_gate(name, key, current, &baseline));
        }
    }
    for verdict in verdicts {
        match verdict {
            Verdict::Pass(line) | Verdict::Skip(line) => println!("perf_gate: {line}"),
            Verdict::Fail(line) => {
                eprintln!("perf_gate: PERF REGRESSION — {line}");
                std::process::exit(1);
            }
        }
    }
}

/// The two workloads every bench measurement runs, at `scale`.
fn bench_workloads(scale: Scale) -> [WorkloadSpec; 2] {
    [WorkloadSpec::named("164.gzip", scale), WorkloadSpec::named("181.mcf", scale)]
}

/// The fixed-seed smoke matrix the perf gate times: two workloads under
/// the uninstrumented baseline and EdgCF. Small enough for CI, large
/// enough that prefix replay dominates the from-scratch path.
fn bench_matrix(trials: u64, seed: u64) -> CampaignMatrix {
    CampaignMatrix {
        workloads: bench_workloads(Scale::Test).to_vec(),
        techniques: vec![None, Some(TechniqueKind::EdgCf)],
        styles: vec![UpdateStyle::CMov],
        policies: vec![CheckPolicy::AllBb],
        trials,
        seed,
        attacks: vec![None],
    }
}

/// Guest MIPS for `insts` instructions retired in `secs` seconds.
fn mips(insts: u64, secs: f64) -> f64 {
    ratio(insts as f64, secs) / 1e6
}

/// `num / den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A rate or ratio in the record's fixed-point milli units.
fn milli(x: f64) -> u64 {
    (x * 1000.0).round() as u64
}

/// Best-case guest throughput of one measurement's two laps.
#[derive(Debug, Clone, Copy, Default)]
struct Mips {
    /// The lap measured against (raw interpreter, decoded interpreter,
    /// direct decoded loop).
    base: f64,
    /// The lap under test.
    fast: f64,
}

impl Mips {
    fn new(insts: u64, best: [f64; 2]) -> Mips {
        Mips { base: mips(insts, best[0]), fast: mips(insts, best[1]) }
    }

    /// Lap-under-test over base throughput.
    fn speedup(self) -> f64 {
        ratio(self.fast, self.base)
    }
}

/// How much guest throughput the profiler-capable dispatch costs with
/// profiling off, in percent (floored at 0 — run-to-run jitter can make the
/// dispatch path measure faster).
fn overhead_pct(prof_off: Mips) -> f64 {
    if prof_off.base > 0.0 {
        (100.0 * (prof_off.base - prof_off.fast) / prof_off.base).max(0.0)
    } else {
        0.0
    }
}

/// Times the two laps of one measurement — side 0 the base, side 1 the
/// lap under test: one warm-up round, then `reps` timed rounds keeping each
/// side's best time. The timed regions are short, so best-of filters out
/// scheduler preemption on a shared host; the order flips every round so
/// drift across the measurement (turbo ramp-up, cold page cache) lands on
/// both sides instead of biasing whichever runs second. `lap(side)` runs
/// one lap, checks it against the measurement's reference and returns its
/// timed seconds (setup outside the timed region).
fn paired_laps(
    reps: usize,
    mut lap: impl FnMut(usize) -> Result<f64, String>,
) -> Result<[f64; 2], String> {
    let mut best = [f64::INFINITY; 2];
    for round in 0..=reps {
        let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let secs = lap(side)?;
            if round > 0 {
                best[side] = best[side].min(secs);
            }
        }
    }
    Ok(best)
}

/// Whether `observed` equals the first lap's observation, which becomes
/// the reference.
fn same_as_first<T: PartialEq>(first: &mut Option<T>, observed: T) -> bool {
    match first {
        Some(reference) => *reference == observed,
        None => {
            *first = Some(observed);
            true
        }
    }
}

/// Times the native interpreter on the bench workloads at
/// [`NATIVE_BENCH_SCALE`] with the decode cache off (per-instruction
/// fetch+decode, the base) and on (decode-once lines, fused bursts),
/// checking both paths retire bit-identical runs.
/// Returns the throughput pair and the decode cache's counters, summed over
/// one cached lap per workload.
fn bench_interp(quiet: bool) -> Result<(Mips, DecodeCacheStats), String> {
    const REPS: usize = 5;
    let (mut insts, mut secs) = (0u64, [0.0f64; 2]);
    let mut decode = DecodeCacheStats::default();
    for spec in bench_workloads(Scale::Custom(NATIVE_BENCH_SCALE)) {
        let image = spec.image()?;
        let mut reference = None;
        let (mut lap_insts, mut lap_decode) = (0, DecodeCacheStats::default());
        let best = paired_laps(REPS, |side| {
            let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
            m.set_decode_cache(side == 1);
            let timer = Instant::now();
            let exit = m.run(u64::MAX);
            let secs = timer.elapsed().as_secs_f64();
            let stats = m.cpu.stats();
            if !same_as_first(
                &mut reference,
                (exit, m.cpu.take_output(), stats.insts, stats.cycles),
            ) {
                return Err(format!("interpreter divergence on {}", spec.key()));
            }
            lap_insts = stats.insts;
            if let Some(s) = m.decode_cache_stats() {
                lap_decode = s;
            }
            Ok(secs)
        })?;
        let lap = Mips::new(lap_insts, best);
        if !quiet {
            eprintln!(
                "perf_gate: interp     {} raw {:.1} MIPS, decoded {:.1} MIPS",
                spec.key(),
                lap.base,
                lap.fast
            );
        }
        insts += lap_insts;
        secs = [secs[0] + best[0], secs[1] + best[1]];
        decode.hits += lap_decode.hits;
        decode.misses += lap_decode.misses;
        decode.invalidations += lap_decode.invalidations;
    }
    Ok((Mips::new(insts, secs), decode))
}

/// Times the DBT's x86-64 native backend against the decoded interpreter
/// (the base) on the bench workloads at [`NATIVE_BENCH_SCALE`]
/// (uninstrumented baseline configuration; translation included and
/// amortized). Every native lap must retire bit-identically to a
/// fused-interpreter DBT reference run, and every interpreter lap must
/// produce the same guest output. Returns `None` where the native backend
/// is unavailable (non-x86-64 hosts, `CFED_NO_NATIVE=1`) so the record and
/// gates degrade gracefully. Both MIPS figures use the interpreter's guest
/// instruction count as numerator, so the ratio is a pure time ratio over
/// identical guest work (the DBT's own counter includes translation glue
/// and would flatter it).
fn bench_native(quiet: bool) -> Result<Option<Mips>, String> {
    if !cfed_dbt::native_enabled() {
        if !quiet {
            eprintln!("perf_gate: native     backend unavailable on this host");
        }
        return Ok(None);
    }
    const REPS: usize = 5;
    let cfg = RunConfig { max_insts: u64::MAX, ..RunConfig::baseline() };
    let (mut insts, mut secs) = (0u64, [0.0f64; 2]);
    for spec in bench_workloads(Scale::Custom(NATIVE_BENCH_SCALE)) {
        let image = spec.image()?;
        let reference = run_dbt_native_enabled(&image, &cfg, false);
        let mut guest_insts = 0;
        let best = paired_laps(REPS, |side| {
            if side == 1 {
                let timer = Instant::now();
                let outcome = run_dbt_native_enabled(&image, &cfg, true);
                let secs = timer.elapsed().as_secs_f64();
                if outcome != reference {
                    return Err(format!("native-backend divergence on {}", spec.key()));
                }
                return Ok(secs);
            }
            let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
            let timer = Instant::now();
            let _ = m.run(u64::MAX);
            let secs = timer.elapsed().as_secs_f64();
            if m.cpu.take_output() != reference.output {
                return Err(format!("native-vs-interpreter divergence on {}", spec.key()));
            }
            guest_insts = m.cpu.stats().insts;
            Ok(secs)
        })?;
        let lap = Mips::new(guest_insts, best);
        if !quiet {
            eprintln!(
                "perf_gate: native     {} decoded {:.1} MIPS, native {:.1} MIPS",
                spec.key(),
                lap.base,
                lap.fast
            );
        }
        insts += guest_insts;
        secs = [secs[0] + best[0], secs[1] + best[1]];
    }
    Ok(Some(Mips::new(insts, secs)))
}

/// Times the §2 error model ([`analyze_image`], CFG recovery included)
/// against the decoded interpreter (the base) on the bench workloads at
/// [`NATIVE_BENCH_SCALE`]. Every error-model lap must end as the
/// interpreter does and produce the same report as the first. Both MIPS
/// figures use the interpreter's guest instruction count, so the ratio is
/// a pure time ratio over identical guest work.
fn bench_error_model(quiet: bool) -> Result<Mips, String> {
    const REPS: usize = 5;
    let (mut insts, mut secs) = (0u64, [0.0f64; 2]);
    for spec in bench_workloads(Scale::Custom(NATIVE_BENCH_SCALE)) {
        let image = spec.image()?;
        let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
        let exit = m.run(u64::MAX);
        let guest_insts = m.cpu.stats().insts;
        let mut reference = None;
        let best = paired_laps(REPS, |side| {
            if side == 1 {
                let timer = Instant::now();
                let report = analyze_image(&image, u64::MAX);
                let secs = timer.elapsed().as_secs_f64();
                if report.exit != exit || !same_as_first(&mut reference, report) {
                    return Err(format!("error-model divergence on {}", spec.key()));
                }
                return Ok(secs);
            }
            let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
            let timer = Instant::now();
            let _ = m.run(u64::MAX);
            Ok(timer.elapsed().as_secs_f64())
        })?;
        let lap = Mips::new(guest_insts, best);
        if !quiet {
            eprintln!(
                "perf_gate: error-model {} decoded {:.1} MIPS, error model {:.1} MIPS",
                spec.key(),
                lap.base,
                lap.fast
            );
        }
        insts += guest_insts;
        secs = [secs[0] + best[0], secs[1] + best[1]];
    }
    Ok(Mips::new(insts, secs))
}

/// Compiles the 26 workloads at `Scale::Full` serially, once, and returns
/// the compiled VISA instructions per second. The MiniC sources are
/// generated before the timed region; each image is dropped inside it.
fn bench_compile(quiet: bool) -> Result<f64, String> {
    let sources: Vec<(&str, String)> =
        cfed_workloads::ALL.iter().map(|w| (w.name, w.source(Scale::Full))).collect();
    let mut insts = 0u64;
    let timer = Instant::now();
    for (name, src) in &sources {
        let image = cfed_lang::compile(src).map_err(|e| format!("compiling {name}: {e}"))?;
        insts += image.len() as u64;
    }
    let secs = timer.elapsed().as_secs_f64();
    if !quiet {
        eprintln!(
            "perf_gate: compile    {} Full images, {insts} insts in {:.0} ms ({:.2} M insts/s)",
            sources.len(),
            secs * 1e3,
            mips(insts, secs)
        );
    }
    Ok(ratio(insts as f64, secs))
}

/// Measures what having the profiler hook in the dispatch path costs when
/// no profiler is attached: `Machine::run` (which checks for a profiler
/// once per run and falls through to the unprofiled fused loop) versus
/// calling `Cpu::run_fused` directly (the base) on the same image. Both
/// laps are the same monomorphized interpreter; the gate asserts the
/// profiler plumbing stays off the hot path. The laps must retire
/// bit-identical runs.
///
/// A measurement that lands at or above the gate budget is re-measured
/// once and the lower overhead kept: the paired laps differ by well under
/// 0.1% at steady state, but the first measurement of a freshly built
/// binary occasionally reads 1–2% high (cold page cache, frequency
/// ramp-up). A genuine hot-path regression reads high in both passes and
/// still trips the gate.
fn bench_profiler_off() -> Result<Mips, String> {
    let first = bench_profiler_off_once()?;
    if overhead_pct(first) < PROFILER_OFF_BUDGET_PCT {
        return Ok(first);
    }
    let second = bench_profiler_off_once()?;
    Ok(if overhead_pct(second) < overhead_pct(first) { second } else { first })
}

/// One full paired measurement (see [`bench_profiler_off`]).
fn bench_profiler_off_once() -> Result<Mips, String> {
    const REPS: usize = 7;
    let (mut insts, mut secs) = (0u64, [0.0f64; 2]);
    for spec in bench_workloads(Scale::Test) {
        let image = spec.image()?;
        let mut reference = None;
        let mut lap_insts = 0;
        let best = paired_laps(REPS, |side| {
            let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
            let timer = Instant::now();
            if side == 1 {
                let _ = m.run(u64::MAX);
            } else {
                let mut ic = m.icache.take().expect("decode cache attached by default");
                let _ = m.cpu.run_fused(&mut m.mem, &mut ic, u64::MAX, u64::MAX);
            }
            let secs = timer.elapsed().as_secs_f64();
            // The whole CPU (registers, halt flag, output, counters) pins
            // the two laps to the same run.
            if !same_as_first(&mut reference, m.cpu.clone()) {
                return Err(format!("dispatch divergence on {}", spec.key()));
            }
            lap_insts = m.cpu.stats().insts;
            Ok(secs)
        })?;
        insts += lap_insts;
        secs = [secs[0] + best[0], secs[1] + best[1]];
    }
    Ok(Mips::new(insts, secs))
}

/// Everything one perf-gate run measured.
struct Measured {
    snap: RunPerf,
    scratch: RunPerf,
    /// Raw (base) vs decoded interpreter.
    interp: Mips,
    decode: DecodeCacheStats,
    /// Direct decoded loop (base) vs profiler-capable dispatch.
    prof_off: Mips,
    /// Decoded interpreter (base) vs native backend; `None` where it
    /// cannot run.
    native: Option<Mips>,
    /// Decoded interpreter (base) vs the error model.
    error_model: Mips,
    /// Compiled VISA instructions per second (the compile lap).
    compile_ips: f64,
}

impl Measured {
    /// Decoded interpreter guest MIPS (base) vs compiled instructions per
    /// microsecond: one compile lap against the same invocation's
    /// interpreter.
    fn compile(&self) -> Mips {
        Mips { base: self.interp.fast, fast: self.compile_ips / 1e6 }
    }

    fn snapshot_speedup(&self) -> f64 {
        ratio(self.snap.trials_per_sec, self.scratch.trials_per_sec)
    }

    /// The three baseline-gated speedups: name, record key and milli value
    /// (`None` where the measurement did not run on this host).
    fn gated_ratios(&self) -> [(&'static str, &'static str, Option<u64>); 3] {
        let speedup = |m: Option<Mips>| m.map(|m| milli(m.speedup()));
        [
            ("snapshot speedup", "speedup_milli", Some(milli(self.snapshot_speedup()))),
            ("interp speedup", "interp_speedup_milli", speedup(Some(self.interp))),
            ("native speedup", "native_over_decoded_milli", speedup(self.native)),
        ]
    }
}

fn perf_record(perf: &RunPerf) -> Json {
    obj(vec![
        ("wall_ms", Json::UInt(perf.wall_ms)),
        ("executed_trials", Json::UInt(perf.executed_trials)),
        ("trials_per_sec_milli", Json::UInt(milli(perf.trials_per_sec))),
        ("snapshot_sets", Json::UInt(perf.snapshots.snapshot_sets)),
        ("snapshots_held", Json::UInt(perf.snapshots.snapshots)),
        ("snapshot_bytes", Json::UInt(perf.snapshots.bytes)),
        ("restores", Json::UInt(perf.snapshots.restores)),
        ("misses", Json::UInt(perf.snapshots.misses)),
        ("branches_fast_forwarded", Json::UInt(perf.snapshots.branches_fast_forwarded)),
        ("branches_stepped", Json::UInt(perf.snapshots.branches_stepped)),
        ("benign_pruned", Json::UInt(perf.snapshots.benign_pruned)),
        ("insts_fused", Json::UInt(perf.snapshots.insts_fused)),
        ("insts_stepped", Json::UInt(perf.snapshots.insts_stepped)),
        ("insts_native", Json::UInt(perf.snapshots.insts_native)),
    ])
}

/// The `cfed-bench-campaign-v2` record. The native keys are present only
/// where that measurement ran: records from hosts without the backend stay
/// valid, and readers treat the absent keys as "not measured" rather than
/// zero.
fn record(matrix: &CampaignMatrix, threads: usize, m: &Measured) -> Json {
    let cells = matrix.cells();
    // Same source and fallback as `resolved_threads`, so the recorded pair
    // is always consistent (`threads_resolved <= cpus`).
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let resolved = RunnerOptions { threads, ..Default::default() }.resolved_threads();
    let mut fields = vec![
        ("schema", Json::Str("cfed-bench-campaign-v2".to_string())),
        (
            "host",
            obj(vec![
                ("os", Json::Str(std::env::consts::OS.to_string())),
                ("arch", Json::Str(std::env::consts::ARCH.to_string())),
                ("cpus", Json::UInt(cpus as u64)),
                ("threads_requested", Json::UInt(threads as u64)),
                ("threads_resolved", Json::UInt(resolved as u64)),
            ]),
        ),
        (
            "matrix",
            obj(vec![
                ("workloads", Json::UInt(matrix.workloads.len() as u64)),
                ("cells", Json::UInt(cells.len() as u64)),
                ("shards", Json::UInt(CampaignMatrix::shards(&cells).len() as u64)),
                ("trials_per_cell", Json::UInt(matrix.trials)),
                ("seed", Json::UInt(matrix.seed)),
            ]),
        ),
        ("snapshots", perf_record(&m.snap)),
        ("scratch", perf_record(&m.scratch)),
        ("speedup_milli", Json::UInt(milli(m.snapshot_speedup()))),
        (
            "interp",
            obj(vec![
                ("raw_mips_milli", Json::UInt(milli(m.interp.base))),
                ("decoded_mips_milli", Json::UInt(milli(m.interp.fast))),
                ("decode_hits", Json::UInt(m.decode.hits)),
                ("decode_misses", Json::UInt(m.decode.misses)),
                ("decode_invalidations", Json::UInt(m.decode.invalidations)),
            ]),
        ),
        ("interp_speedup_milli", Json::UInt(milli(m.interp.speedup()))),
        ("profiler_off_overhead_pct_milli", Json::UInt(milli(overhead_pct(m.prof_off)))),
    ];
    if let Some(n) = m.native {
        fields.push(("native_mips_milli", Json::UInt(milli(n.fast))));
        fields.push(("native_over_decoded_milli", Json::UInt(milli(n.speedup()))));
    }
    fields.push(("error_model_mips_milli", Json::UInt(milli(m.error_model.fast))));
    fields.push(("error_model_over_decoded_milli", Json::UInt(milli(m.error_model.speedup()))));
    fields.push(("compile_insts_per_s_milli", Json::UInt(milli(m.compile_ips))));
    fields.push(("compile_over_decoded_milli", Json::UInt(milli(m.compile().speedup()))));
    obj(fields)
}

/// One gate's decision, with the line reporting it.
#[derive(Debug, PartialEq)]
enum Verdict {
    Pass(String),
    /// The gate does not apply to this run or this baseline.
    Skip(String),
    Fail(String),
}

/// The lowest milli-ratio the baseline gate accepts: 75% of the
/// baseline's.
fn baseline_floor(base_milli: u64) -> u64 {
    base_milli * (100 - BASELINE_TOLERANCE_PCT) / 100
}

/// Gates one speedup against the committed record's `key`. A record that
/// predates the key, or a measurement that did not run on this host
/// (`current_milli` is `None`), skips the gate.
fn baseline_gate(name: &str, key: &str, current_milli: Option<u64>, baseline: &Json) -> Verdict {
    let Some(base) = baseline.get(key).and_then(Json::as_u64) else {
        return Verdict::Skip(format!("baseline has no {key}; {name} gate skipped"));
    };
    let Some(current) = current_milli else {
        return Verdict::Skip(format!("{name} not measured on this host; gate skipped"));
    };
    let floor = baseline_floor(base);
    if current < floor {
        return Verdict::Fail(format!(
            "{name} {:.2}x is more than {BASELINE_TOLERANCE_PCT}% below the baseline {:.2}x",
            current as f64 / 1000.0,
            base as f64 / 1000.0
        ));
    }
    Verdict::Pass(format!(
        "{name} within budget of baseline {:.2}x (floor {:.2}x)",
        base as f64 / 1000.0,
        floor as f64 / 1000.0
    ))
}

/// An absolute floor: `what`'s speedup must reach `floor_milli`. Skipped
/// where it did not run.
fn floor_gate(what: &str, measured: Option<Mips>, floor_milli: u64) -> Verdict {
    let floor = floor_milli as f64 / 1000.0;
    let Some(m) = measured else {
        return Verdict::Skip(format!("{what} not measured on this host; floor gate skipped"));
    };
    if milli(m.speedup()) < floor_milli {
        return Verdict::Fail(format!("{what} is only {:.2}x (floor {floor:.2}x)", m.speedup()));
    }
    Verdict::Pass(format!("{what} {:.1} MIPS, {:.2}x (floor {floor:.2}x)", m.fast, m.speedup()))
}

/// The profiler-off budget: the dispatch must cost under
/// [`PROFILER_OFF_BUDGET_PCT`] of direct interpreter throughput.
fn profiler_off_gate(overhead_pct: f64) -> Verdict {
    if overhead_pct >= PROFILER_OFF_BUDGET_PCT {
        return Verdict::Fail(format!(
            "profiler-capable dispatch costs {overhead_pct:.2}% interpreter throughput with \
             profiling off (budget <{PROFILER_OFF_BUDGET_PCT}%)"
        ));
    }
    Verdict::Pass(format!(
        "profiler off costs {overhead_pct:.2}% interpreter throughput (budget \
         <{PROFILER_OFF_BUDGET_PCT}%)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfed_fault::SnapshotStats;

    fn pass(v: &Verdict) -> bool {
        matches!(v, Verdict::Pass(_))
    }

    fn speedup_of(milli_ratio: u64) -> Option<Mips> {
        Some(Mips { base: 1000.0, fast: milli_ratio as f64 })
    }

    #[test]
    fn baseline_gate_passes_at_the_floor_and_fails_one_milli_below() {
        let baseline = obj(vec![("speedup_milli", Json::UInt(8247))]);
        let floor = baseline_floor(8247);
        assert_eq!(floor, 8247 * 75 / 100);
        let at = baseline_gate("snapshot speedup", "speedup_milli", Some(floor), &baseline);
        assert!(pass(&at), "{at:?}");
        let below = baseline_gate("snapshot speedup", "speedup_milli", Some(floor - 1), &baseline);
        assert!(matches!(below, Verdict::Fail(_)), "{below:?}");
    }

    #[test]
    fn baseline_gate_skips_a_missing_key_or_an_unmeasured_ratio() {
        let baseline = obj(vec![("native_over_decoded_milli", Json::UInt(4793))]);
        let missing = baseline_gate("interp speedup", "interp_speedup_milli", Some(1), &baseline);
        assert!(matches!(missing, Verdict::Skip(_)), "{missing:?}");
        let unmeasured =
            baseline_gate("native speedup", "native_over_decoded_milli", None, &baseline);
        assert!(matches!(unmeasured, Verdict::Skip(_)), "{unmeasured:?}");
    }

    #[test]
    fn absolute_floors_are_enforced_and_skip_when_unmeasured() {
        let floor = NATIVE_MIN_RATIO_MILLI;
        assert!(pass(&floor_gate("x", speedup_of(floor), floor)));
        assert!(matches!(floor_gate("x", speedup_of(floor - 1), floor), Verdict::Fail(_)));
        assert!(matches!(floor_gate("x", None, floor), Verdict::Skip(_)));
        assert_eq!(NATIVE_MIN_RATIO_MILLI, 2000);
        assert_eq!(ERROR_MODEL_MIN_RATIO_MILLI, 350);
        assert_eq!(COMPILE_MIN_RATIO_MILLI, 43);
    }

    #[test]
    fn profiler_off_budget_is_under_one_percent() {
        assert!(pass(&profiler_off_gate(0.0)));
        assert!(pass(&profiler_off_gate(0.99)));
        assert!(matches!(profiler_off_gate(1.0), Verdict::Fail(_)));
        assert!(matches!(profiler_off_gate(2.5), Verdict::Fail(_)));
    }

    #[test]
    fn paired_laps_warm_up_alternate_and_keep_the_best() {
        let mut calls = Vec::new();
        let best = paired_laps(3, |side| {
            calls.push(side);
            Ok(if calls.len() <= 2 { 0.001 } else { calls.len() as f64 })
        })
        .unwrap();
        assert_eq!(calls, [0, 1, 1, 0, 0, 1, 1, 0]);
        // The warm-up round's fast laps are not counted.
        assert_eq!(best, [4.0, 3.0]);
        let err = paired_laps(3, |side| if side == 1 { Err("diverged".into()) } else { Ok(1.0) });
        assert_eq!(err, Err("diverged".to_string()));
    }

    fn top_level_keys(json: &Json) -> Vec<&str> {
        match json {
            Json::Obj(pairs) => pairs.iter().map(|(key, _)| key.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn record_keys_match_the_committed_bench_record() {
        let committed =
            cfed_telemetry::json::parse(include_str!("../../../../BENCH_campaign.json"))
                .expect("committed record parses");
        let perf = RunPerf {
            wall_ms: 1,
            executed_trials: 1,
            trials_per_sec: 1.0,
            snapshots_enabled: true,
            snapshots: SnapshotStats::default(),
        };
        let lap = Mips { base: 1.0, fast: 2.0 };
        let measured = Measured {
            snap: perf,
            scratch: perf,
            interp: lap,
            decode: DecodeCacheStats::default(),
            prof_off: lap,
            native: Some(lap),
            error_model: lap,
            compile_ips: 1.0,
        };
        let ours = record(&bench_matrix(192, 3488423942), 2, &measured);
        assert_eq!(top_level_keys(&ours), top_level_keys(&committed));
    }
}
