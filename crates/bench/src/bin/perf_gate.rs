//! The CI perf gate: writes the `BENCH_campaign.json` performance record
//! and fails when a gated ratio regresses.
//!
//! Every measurement times two laps, a base and a lap under test, with
//! [`lap_pairs`]: a warm-up pair it discards, then [`PAIRS`] timed pairs
//! that alternate which side runs first. A gated ratio is the
//! median of the per-pair throughput ratios, recorded beside its min, max
//! and pair count. The measurements:
//!
//! * a fixed-seed smoke campaign from scratch (the base) and with
//!   fast-forward snapshots; every pass's tallies must equal the first
//!   scratch pass's, cell for cell;
//! * the interpreter without and with the pre-decoded instruction cache
//!   (guest MIPS each way, plus the cache's hit/miss/invalidation counters);
//! * where the host supports it, the DBT's x86-64 native backend against
//!   the decoded interpreter;
//! * the §2 error model (`analyze_image`: one fused run tallying branches,
//!   then one classification per distinct branch key) against the decoded
//!   interpreter;
//! * the MiniC compiler on the 26 `Scale::Full` images (compiled VISA
//!   instructions per second) against the decoded interpreter's guest
//!   instructions per second;
//! * the profiler-capable dispatch with profiling off against the direct
//!   decoded loop, over [`PROFILER_OFF_PAIRS`] pairs (see
//!   [`bench_profiler_off`]).
//!
//! Every interpreter lap must leave the CPU exactly as a reference run did.
//! Every gated figure is a ratio of two laps in one invocation on one host,
//! so it self-normalizes away host speed and a committed record is a
//! portable baseline. The run exits 2 when a lap diverges from its
//! reference, and 1 when:
//!
//! * the profiler-off dispatch costs ≥1% throughput;
//! * native is below 2.00x the decoded interpreter;
//! * the error model is below 0.50x the decoded interpreter;
//! * the compiler is below 0.043x the decoded interpreter;
//! * with `--baseline PATH`, the snapshot, interp or native speedup is more
//!   than 25% below the committed record's.
//!
//! Usage: `cargo run --release -p cfed-bench --bin perf_gate -- [OPTIONS]`

use std::path::PathBuf;
use std::time::Instant;

use cfed_asm::Image;
use cfed_core::{run_dbt_native_enabled, RunConfig, TechniqueKind};
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::analyze_image;
use cfed_runner::cli::Parser;
use cfed_runner::matrix::{CampaignMatrix, WorkloadSpec};
use cfed_runner::pool::{run_matrix, CellResult, RunPerf, RunnerOptions};
use cfed_sim::{Cpu, DecodeCacheStats, ExitReason, Machine};
use cfed_telemetry::json::{obj, Json};
use cfed_workloads::Scale;

/// Timed A/B pairs behind every measurement, after one discarded warm-up
/// pair. Odd, so each median is one pair's ratio.
const PAIRS: usize = 5;

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

/// Timed pairs behind the profiler-off budget. Its laps run the @test
/// instances (0.1–0.3 ms), where host noise moves either side by several
/// percent. On a 2-vCPU x86-64 host each side's best lap of 5 pairs read
/// the overhead at −28% to +13% over 30 measurements, and the best of 51
/// at −11% to +8%. The median of the pair ratios read ≥1% in 11 of 180
/// measurements over 51 pairs (−2.7% to +2.6%) and in 1 of 180 over 201
/// (−1.0% to +1.3%); 201 pairs take ~0.1 s.
const PROFILER_OFF_PAIRS: usize = 201;

/// Hard floor on native-JIT-over-decoded-interpreter guest throughput, in
/// milli-ratio units (2000 = 2.00x). Like the profiler-off gate this needs
/// no committed baseline, and a native backend that cannot double the
/// decoded interpreter is a regression outright.
const NATIVE_MIN_RATIO_MILLI: u64 = 2000;

/// Hard floor on error-model-over-decoded-interpreter guest throughput, in
/// milli-ratio units. The error model makes one fused run on the decoded
/// interpreter, counting each branch execution in a hash table, and then
/// classifies each distinct branch key once: on the bench workloads (a
/// branch every 9–12 instructions) it measured 0.68–0.71x over five runs
/// on a 2-vCPU x86-64 host. Bursting to each branch and single-stepping
/// it measured 0.44–0.62x, and decoding and stepping every instruction
/// 0.22x. The floor sits about a quarter under the lowest one-pass
/// reading.
const ERROR_MODEL_MIN_RATIO_MILLI: u64 = 500;

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

/// Scale factor for the interpreter, native, error-model and compile
/// measurements' interpreter laps. The @test instances retire ~10–30k
/// guest instructions, so the JIT's fixed per-run costs (code-buffer
/// mapping, block compilation) dominate and the measurement says nothing
/// about emitted-code throughput; at this scale each lap retires a few
/// million instructions and translation amortizes to noise, which is the
/// regime the backend exists for. The interpreter laps need it too: at
/// @test they lasted 0.1–0.3 ms, and their best-of-7 decoded MIPS read
/// either ~70–100 k or ~150 k milli from run to run.
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
            "perf_gate: {} cells, {} shards, {trials} trials/cell, seed {seed}, {PAIRS} pairs",
            cells.len(),
            CampaignMatrix::shards(&cells).len()
        );
    }
    let measured = measure(&matrix, threads, quiet).unwrap_or_else(|e| die(e));
    let record = record(&matrix, threads, &measured);
    std::fs::write(&out, record.render() + "\n")
        .unwrap_or_else(|e| die(format!("writing {}: {e}", out.display())));
    println!("perf_gate: wrote {}", out.display());

    // The absolute gates need no baseline: both laps of each ran in this
    // invocation on this host.
    let native = measured.native.map(|n| n.ratio);
    let floors = [
        ("native backend", native, NATIVE_MIN_RATIO_MILLI),
        ("error model", Some(measured.error_model.ratio), ERROR_MODEL_MIN_RATIO_MILLI),
        ("compiler", Some(measured.compile.ratio), COMPILE_MIN_RATIO_MILLI),
    ];
    let mut verdicts = vec![profiler_off_gate(overhead_pct(measured.prof_off))];
    verdicts.extend(floors.map(|(what, ratio, floor)| floor_gate(what, ratio, floor)));
    if let Some(baseline_path) = args.get("baseline").filter(|s| !s.is_empty()) {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| die(format!("reading baseline {baseline_path}: {e}")));
        let baseline = cfed_telemetry::json::parse(&text)
            .unwrap_or_else(|e| die(format!("parsing baseline {baseline_path}: {e}")));
        if baseline.get("speedup_milli").and_then(Json::as_u64).is_none() {
            die(format!("baseline {baseline_path} has no speedup_milli"));
        }
        for (name, key, current) in [
            ("snapshot speedup", "speedup_milli", Some(measured.campaign.ratio)),
            ("interp speedup", "interp_speedup_milli", Some(measured.interp.ratio)),
            ("native speedup", "native_over_decoded_milli", native),
        ] {
            verdicts.push(baseline_gate(name, key, current.map(|s| milli(s.median)), &baseline));
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

/// Runs `f` and returns its result with the seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let timer = Instant::now();
    let out = f();
    (out, timer.elapsed().as_secs_f64())
}

/// Times the two laps of one measurement — side 0 the base, side 1 the lap
/// under test: one warm-up pair, which it discards, then `pairs` timed
/// pairs. The order flips every pair so drift across the measurement
/// (turbo ramp-up, cold caches) lands on both sides instead of biasing
/// whichever runs second. `lap(side)` runs one lap, checks it against the
/// measurement's reference and returns its timed seconds (setup outside the
/// timed region); the first error from any lap ends the measurement.
/// Returns each timed pair's `[base, under test]` seconds.
fn lap_pairs(
    pairs: usize,
    mut lap: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<[f64; 2]>, String> {
    let mut timed = Vec::with_capacity(pairs);
    for round in 0..=pairs {
        let mut secs = [0.0; 2];
        for side in if round % 2 == 0 { [0, 1] } else { [1, 0] } {
            secs[side] = lap(side)?;
        }
        if round > 0 {
            timed.push(secs);
        }
    }
    Ok(timed)
}

/// A ratio over the timed pairs: the median of the per-pair values, with
/// their min and max.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
    pairs: usize,
}

impl Spread {
    /// The spread of `values`, which must not be empty. An even count's
    /// median is the mean of the middle two.
    fn of(mut values: Vec<f64>) -> Spread {
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let median =
            if n % 2 == 1 { values[n / 2] } else { (values[n / 2 - 1] + values[n / 2]) / 2.0 };
        Spread { median, min: values[0], max: values[n - 1], pairs: n }
    }

    fn show(self) -> String {
        format!("{:.3}x [{:.3}–{:.3}x over {} pairs]", self.median, self.min, self.max, self.pairs)
    }
}

/// One paired measurement: each side's median lap and the per-pair
/// throughput ratio.
#[derive(Debug, Clone, Copy)]
struct Paired {
    /// Work one lap of each side does (guest instructions, trials, compiled
    /// instructions): `[base, under test]`.
    work: [u64; 2],
    /// Each side's median lap, in seconds.
    secs: [f64; 2],
    /// Under-test over base throughput.
    ratio: Spread,
}

impl Paired {
    fn new(work: [u64; 2], pairs: &[[f64; 2]]) -> Paired {
        let rate = |pair: &[f64; 2], side: usize| ratio(work[side] as f64, pair[side]);
        Paired {
            work,
            secs: [0, 1].map(|side| Spread::of(pairs.iter().map(|p| p[side]).collect()).median),
            ratio: Spread::of(pairs.iter().map(|p| ratio(rate(p, 1), rate(p, 0))).collect()),
        }
    }

    /// `side`'s work per second over its median lap.
    fn rate(&self, side: usize) -> f64 {
        ratio(self.work[side] as f64, self.secs[side])
    }
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

/// One bench workload, compiled, with the decoded-interpreter reference
/// run every lap on it must reproduce.
struct BenchImage {
    key: String,
    image: Image,
    /// How the reference run ended.
    exit: ExitReason,
    /// The CPU after the reference run: registers, halt flag, output and
    /// counters.
    cpu: Cpu,
    /// The decode cache's counters over the reference run.
    decode: DecodeCacheStats,
}

impl BenchImage {
    /// The error for a `what` lap on this image that missed its reference.
    fn diverged(&self, what: &str) -> String {
        format!("{what} divergence on {}", self.key)
    }
}

/// Compiles the bench workloads at `scale` and runs each once on the
/// decoded interpreter for its reference.
fn bench_images(scale: Scale) -> Result<Vec<BenchImage>, String> {
    bench_workloads(scale)
        .iter()
        .map(|spec| {
            let image = spec.image()?;
            let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
            let exit = m.run(u64::MAX);
            let decode = m.decode_cache_stats().expect("decode cache attached by default");
            Ok(BenchImage { key: spec.key(), image, exit, cpu: m.cpu, decode })
        })
        .collect()
}

/// Guest instructions one lap over `images` retires.
fn guest_insts(images: &[BenchImage]) -> u64 {
    images.iter().map(|b| b.cpu.stats().insts).sum()
}

/// The interpreter lap every measurement shares: runs each image to its
/// end on a fresh machine, with the pre-decoded instruction cache when
/// `decode_cache`, and checks its CPU against the reference. Only the runs
/// are timed.
fn interp_lap(images: &[BenchImage], decode_cache: bool) -> Result<f64, String> {
    images
        .iter()
        .map(|b| {
            let mut m = Machine::load(b.image.code(), b.image.data(), b.image.entry_offset());
            // `Machine::load` attaches a decode cache. The decoded lap keeps
            // it in place, as the direct lap of `bench_profiler_off` does, so
            // those two laps differ only in the call that runs them.
            if !decode_cache {
                m.set_decode_cache(false);
            }
            let secs = timed(|| m.run(u64::MAX)).1;
            if m.cpu != b.cpu {
                return Err(b.diverged("interpreter"));
            }
            Ok(secs)
        })
        .sum()
}

/// Everything one perf-gate run measured.
struct Measured {
    /// Scratch (base) vs snapshot campaign passes, in trials.
    campaign: Paired,
    /// Each side's last pass, for its snapshot counters.
    passes: [RunPerf; 2],
    /// Raw (base) vs decoded interpreter.
    interp: Paired,
    decode: DecodeCacheStats,
    /// Profiler-capable dispatch over direct decoded loop, in lap time.
    prof_off: f64,
    /// Decoded interpreter (base) vs native backend; `None` where it
    /// cannot run.
    native: Option<Paired>,
    /// Decoded interpreter (base) vs the error model.
    error_model: Paired,
    /// Decoded interpreter guest instructions (base) vs compiled VISA
    /// instructions.
    compile: Paired,
}

/// Runs every measurement, printing one progress line each unless `quiet`.
fn measure(matrix: &CampaignMatrix, threads: usize, quiet: bool) -> Result<Measured, String> {
    let progress = |what: &str, p: &Paired, unit: &str, scale: f64| {
        if !quiet {
            eprintln!(
                "perf_gate: {what:<11} {:.1} vs {:.1} {unit}, ratio {}",
                p.rate(0) / scale,
                p.rate(1) / scale,
                p.ratio.show()
            );
        }
    };
    let (campaign, passes) = bench_campaign(matrix, threads)?;
    progress("campaign", &campaign, "trials/s", 1.0);
    let images = bench_images(Scale::Custom(NATIVE_BENCH_SCALE))?;
    // The interpreter with the decode cache off (per-instruction
    // fetch+decode, the base) and on (decode-once lines, fused bursts).
    let interp = lap_pairs(PAIRS, |side| interp_lap(&images, side == 1))?;
    let interp = Paired::new([guest_insts(&images); 2], &interp);
    progress("interp", &interp, "MIPS", 1e6);
    let native = bench_native(&images)?;
    match &native {
        Some(n) => progress("native", n, "MIPS", 1e6),
        None if !quiet => eprintln!("perf_gate: native      backend unavailable on this host"),
        None => {}
    }
    let error_model = bench_error_model(&images)?;
    progress("error-model", &error_model, "MIPS", 1e6);
    let compile = bench_compile(&images)?;
    progress("compile", &compile, "M insts/s", 1e6);
    let prof_off = bench_profiler_off(&bench_images(Scale::Test)?)?;
    if !quiet {
        eprintln!(
            "perf_gate: prof-off    dispatch/direct lap time {:.4} ({:.2}% overhead)",
            prof_off,
            overhead_pct(prof_off)
        );
    }
    let decode = images.iter().fold(DecodeCacheStats::default(), |sum, b| DecodeCacheStats {
        hits: sum.hits + b.decode.hits,
        misses: sum.misses + b.decode.misses,
        invalidations: sum.invalidations + b.decode.invalidations,
    });
    Ok(Measured { campaign, passes, interp, decode, prof_off, native, error_model, compile })
}

/// Times the smoke campaign from scratch (the base) against fast-forward
/// snapshots. The fast path must be an optimization, not a different
/// experiment: every pass must complete with the first (scratch) pass's
/// reports, cell for cell. Returns the measurement and each side's last
/// pass.
fn bench_campaign(
    matrix: &CampaignMatrix,
    threads: usize,
) -> Result<(Paired, [RunPerf; 2]), String> {
    let mut reference: Option<Vec<CellResult>> = None;
    let mut last: [Option<RunPerf>; 2] = [None; 2];
    let pairs = lap_pairs(PAIRS, |side| {
        let label = ["scratch", "snapshots"][side];
        let options =
            RunnerOptions { threads, quiet: true, snapshots: side == 1, ..Default::default() };
        let (summary, secs) = timed(|| run_matrix(matrix, label, None, &options));
        let summary = summary?;
        if !summary.complete() {
            let failures: Vec<&String> = summary.cells.iter().flat_map(|c| &c.failures).collect();
            return Err(format!("{label} pass had failed shards: {failures:?}"));
        }
        last[side] = Some(summary.perf);
        let Some(first) = &reference else {
            reference = Some(summary.cells);
            return Ok(secs);
        };
        match summary.cells.iter().zip(first).find(|(a, b)| a.report != b.report) {
            Some((cell, _)) => {
                Err(format!("outcome divergence in cell {} ({label} pass)", cell.key))
            }
            None => Ok(secs),
        }
    })?;
    let passes = last.map(|perf| perf.expect("every side ran"));
    let trials = passes.map(|perf| perf.executed_trials);
    Ok((Paired::new(trials, &pairs), passes))
}

/// Times the DBT's x86-64 native backend against the decoded interpreter
/// (the base) on `images` (uninstrumented baseline configuration;
/// translation included and amortized). Every native lap must retire
/// bit-identically to a fused-interpreter DBT reference run, whose output
/// must match the interpreter's. Returns `None` where the native backend
/// is unavailable (non-x86-64 hosts, `CFED_NO_NATIVE=1`) so the record and
/// gates degrade gracefully. Both sides count the interpreter's guest
/// instructions, so the ratio is a pure time ratio over identical guest
/// work (the DBT's own counter includes translation glue and would flatter
/// it).
fn bench_native(images: &[BenchImage]) -> Result<Option<Paired>, String> {
    if !cfed_dbt::native_enabled() {
        return Ok(None);
    }
    let cfg = RunConfig { max_insts: u64::MAX, ..RunConfig::baseline() };
    let references = images.iter().map(|b| run_dbt_native_enabled(&b.image, &cfg, false));
    let references: Vec<_> = references.collect();
    if let Some((b, _)) = images.iter().zip(&references).find(|(b, r)| r.output != b.cpu.output()) {
        return Err(b.diverged("native-vs-interpreter"));
    }
    let pairs = lap_pairs(PAIRS, |side| {
        if side == 0 {
            return interp_lap(images, true);
        }
        let native_lap = |(b, reference): (&BenchImage, &_)| {
            let (outcome, secs) = timed(|| run_dbt_native_enabled(&b.image, &cfg, true));
            if outcome != *reference {
                return Err(b.diverged("native-backend"));
            }
            Ok(secs)
        };
        images.iter().zip(&references).map(native_lap).sum()
    })?;
    Ok(Some(Paired::new([guest_insts(images); 2], &pairs)))
}

/// Times the §2 error model ([`analyze_image`], CFG recovery included)
/// against the decoded interpreter (the base) on `images`. Every
/// error-model lap must end as the interpreter does and produce the same
/// report as the first. Both sides count the interpreter's guest
/// instructions, so the ratio is a pure time ratio over identical guest
/// work.
fn bench_error_model(images: &[BenchImage]) -> Result<Paired, String> {
    let mut reports = vec![None; images.len()];
    let pairs = lap_pairs(PAIRS, |side| {
        if side == 0 {
            return interp_lap(images, true);
        }
        let model_lap = |(b, first): (&BenchImage, &mut Option<_>)| {
            let (report, secs) = timed(|| analyze_image(&b.image, u64::MAX));
            if report.exit != b.exit || !same_as_first(first, report) {
                return Err(b.diverged("error-model"));
            }
            Ok(secs)
        };
        images.iter().zip(&mut reports).map(model_lap).sum()
    })?;
    Ok(Paired::new([guest_insts(images); 2], &pairs))
}

/// Times compiling the 26 workloads at `Scale::Full` serially against the
/// decoded interpreter (the base) on `images`: compiled VISA instructions
/// per second over guest instructions per second. The MiniC sources are
/// generated before the timed region; each image is dropped inside it.
/// Every compile lap must produce images of the first lap's sizes.
fn bench_compile(images: &[BenchImage]) -> Result<Paired, String> {
    let sources: Vec<(&str, String)> =
        cfed_workloads::ALL.iter().map(|w| (w.name, w.source(Scale::Full))).collect();
    let mut sizes = None;
    let pairs = lap_pairs(PAIRS, |side| {
        if side == 0 {
            return interp_lap(images, true);
        }
        let (compiled, secs) = timed(|| {
            sources
                .iter()
                .map(|(name, src)| {
                    let image =
                        cfed_lang::compile(src).map_err(|e| format!("compiling {name}: {e}"));
                    image.map(|image| image.len() as u64)
                })
                .collect::<Result<Vec<u64>, String>>()
        });
        if !same_as_first(&mut sizes, compiled?) {
            return Err("compiler divergence on the Full images".to_string());
        }
        Ok(secs)
    })?;
    let compiled = sizes.expect("every side ran").iter().sum();
    Ok(Paired::new([guest_insts(images), compiled], &pairs))
}

/// Measures what having the profiler hook in the dispatch path costs when
/// no profiler is attached: the shared decoded lap's `Machine::run` (which
/// checks for a profiler once per run and falls through to the unprofiled
/// fused loop) versus calling `Cpu::run_fused` directly (the base) on
/// `images`. Both laps are the same monomorphized interpreter; the gate
/// asserts the profiler plumbing stays off the hot path. Returns the median
/// over [`PROFILER_OFF_PAIRS`] pairs of the dispatch lap's time over the
/// direct lap's.
///
/// A measurement that lands at or above the gate budget is re-measured
/// once and the lower overhead kept: the first measurement of a freshly
/// built binary occasionally reads 1–2% high (cold page cache, frequency
/// ramp-up). A genuine hot-path regression reads high in both passes and
/// still trips the gate.
fn bench_profiler_off(images: &[BenchImage]) -> Result<f64, String> {
    let time_ratio = || -> Result<f64, String> {
        let pairs = lap_pairs(PROFILER_OFF_PAIRS, |side| {
            if side == 1 {
                return interp_lap(images, true);
            }
            let direct_lap = |b: &BenchImage| {
                let mut m = Machine::load(b.image.code(), b.image.data(), b.image.entry_offset());
                let ic = m.icache.as_mut().expect("decode cache attached by default");
                let secs = timed(|| m.cpu.run_fused(&mut m.mem, ic, u64::MAX, u64::MAX)).1;
                if m.cpu != b.cpu {
                    return Err(b.diverged("dispatch"));
                }
                Ok(secs)
            };
            images.iter().map(direct_lap).sum()
        })?;
        Ok(Spread::of(pairs.iter().map(|p| ratio(p[1], p[0])).collect()).median)
    };
    let first = time_ratio()?;
    if overhead_pct(first) < PROFILER_OFF_BUDGET_PCT {
        return Ok(first);
    }
    Ok(first.min(time_ratio()?))
}

/// How much guest throughput the profiler-capable dispatch costs with
/// profiling off, in percent, from the dispatch-over-direct lap-time
/// ratio. Negative when the dispatch lap ran faster.
fn overhead_pct(time_ratio: f64) -> f64 {
    100.0 * (1.0 - ratio(1.0, time_ratio))
}

fn perf_record(perf: &RunPerf, p: &Paired, side: usize) -> Json {
    obj(vec![
        ("wall_ms", Json::UInt(milli(p.secs[side]))),
        ("executed_trials", Json::UInt(perf.executed_trials)),
        ("trials_per_sec_milli", Json::UInt(milli(p.rate(side)))),
        ("snapshot_sets", Json::UInt(perf.snapshots.snapshot_sets)),
        ("snapshots_held", Json::UInt(perf.snapshots.snapshots)),
        ("snapshot_bytes", Json::UInt(perf.snapshots.bytes)),
        ("restores", Json::UInt(perf.snapshots.restores)),
        ("full_restores", Json::UInt(perf.snapshots.full_restores)),
        ("pages_restored", Json::UInt(perf.snapshots.pages_restored)),
        ("misses", Json::UInt(perf.snapshots.misses)),
        ("branches_fast_forwarded", Json::UInt(perf.snapshots.branches_fast_forwarded)),
        ("branches_stepped", Json::UInt(perf.snapshots.branches_stepped)),
        ("benign_pruned", Json::UInt(perf.snapshots.benign_pruned)),
        ("insts_fused", Json::UInt(perf.snapshots.insts_fused)),
        ("insts_stepped", Json::UInt(perf.snapshots.insts_stepped)),
        ("insts_native", Json::UInt(perf.snapshots.insts_native)),
        ("native_compiles", Json::UInt(perf.snapshots.native_compiles)),
    ])
}

/// A gated ratio's spread: min, max and pair count, recorded beside its
/// median.
fn spread_record(s: Spread) -> Json {
    obj(vec![
        ("min_milli", Json::UInt(milli(s.min))),
        ("max_milli", Json::UInt(milli(s.max))),
        ("pairs", Json::UInt(s.pairs as u64)),
    ])
}

/// The `cfed-bench-campaign-v3` record. Each gated ratio's `*_milli` key
/// holds its median and the `*_spread` key after it the spread; absolute
/// rates are each side's median lap. The native keys are present only
/// where that measurement ran: records from hosts without the backend stay
/// valid, and readers treat the absent keys as "not measured" rather than
/// zero.
fn record(matrix: &CampaignMatrix, threads: usize, m: &Measured) -> Json {
    let cells = matrix.cells();
    // Same source and fallback as `resolved_threads`, so the recorded pair
    // is always consistent (`threads_resolved <= cpus`).
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let resolved = RunnerOptions { threads, ..Default::default() }.resolved_threads();
    let mips_milli = |p: &Paired, side: usize| Json::UInt(milli(p.rate(side) / 1e6));
    let mut fields = vec![
        ("schema", Json::Str("cfed-bench-campaign-v3".to_string())),
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
        ("snapshots", perf_record(&m.passes[1], &m.campaign, 1)),
        ("scratch", perf_record(&m.passes[0], &m.campaign, 0)),
        ("speedup_milli", Json::UInt(milli(m.campaign.ratio.median))),
        ("speedup_spread", spread_record(m.campaign.ratio)),
        (
            "interp",
            obj(vec![
                ("raw_mips_milli", mips_milli(&m.interp, 0)),
                ("decoded_mips_milli", mips_milli(&m.interp, 1)),
                ("decode_hits", Json::UInt(m.decode.hits)),
                ("decode_misses", Json::UInt(m.decode.misses)),
                ("decode_invalidations", Json::UInt(m.decode.invalidations)),
            ]),
        ),
        ("interp_speedup_milli", Json::UInt(milli(m.interp.ratio.median))),
        ("interp_speedup_spread", spread_record(m.interp.ratio)),
        ("profiler_off_time_over_direct_milli", Json::UInt(milli(m.prof_off))),
    ];
    if let Some(n) = &m.native {
        fields.push(("native_mips_milli", mips_milli(n, 1)));
        fields.push(("native_over_decoded_milli", Json::UInt(milli(n.ratio.median))));
        fields.push(("native_over_decoded_spread", spread_record(n.ratio)));
    }
    fields.push(("error_model_mips_milli", mips_milli(&m.error_model, 1)));
    fields.push(("error_model_over_decoded_milli", Json::UInt(milli(m.error_model.ratio.median))));
    fields.push(("error_model_over_decoded_spread", spread_record(m.error_model.ratio)));
    fields.push(("compile_insts_per_s_milli", Json::UInt(milli(m.compile.rate(1)))));
    fields.push(("compile_over_decoded_milli", Json::UInt(milli(m.compile.ratio.median))));
    fields.push(("compile_over_decoded_spread", spread_record(m.compile.ratio)));
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

/// An absolute floor: `what`'s median ratio over the decoded interpreter
/// must reach `floor_milli`. Skipped where it did not run.
fn floor_gate(what: &str, measured: Option<Spread>, floor_milli: u64) -> Verdict {
    let what = format!("{what} over the decoded interpreter");
    let floor = floor_milli as f64 / 1000.0;
    let Some(s) = measured else {
        return Verdict::Skip(format!("{what} not measured on this host; floor gate skipped"));
    };
    if milli(s.median) < floor_milli {
        return Verdict::Fail(format!("{what} is only {} (floor {floor:.3}x)", s.show()));
    }
    Verdict::Pass(format!("{what} {} (floor {floor:.3}x)", s.show()))
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

    fn ratio_of(milli_ratio: u64) -> Option<Spread> {
        Some(Spread::of(vec![milli_ratio as f64 / 1000.0]))
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
        assert!(pass(&floor_gate("x", ratio_of(floor), floor)));
        assert!(matches!(floor_gate("x", ratio_of(floor - 1), floor), Verdict::Fail(_)));
        assert!(matches!(floor_gate("x", None, floor), Verdict::Skip(_)));
        assert_eq!(NATIVE_MIN_RATIO_MILLI, 2000);
        assert_eq!(ERROR_MODEL_MIN_RATIO_MILLI, 500);
        assert_eq!(COMPILE_MIN_RATIO_MILLI, 43);
    }

    #[test]
    fn profiler_off_budget_is_under_one_percent() {
        assert!(pass(&profiler_off_gate(-3.0)));
        assert!(pass(&profiler_off_gate(0.0)));
        assert!(pass(&profiler_off_gate(0.99)));
        assert!(matches!(profiler_off_gate(1.0), Verdict::Fail(_)));
        assert!(matches!(profiler_off_gate(2.5), Verdict::Fail(_)));
        // A dispatch lap 2% slower than the direct one costs ~2%; a faster
        // one reads negative instead of 0.
        assert!((overhead_pct(1.02) - 100.0 * 0.02 / 1.02).abs() < 1e-9);
        assert!(overhead_pct(0.98) < 0.0);
    }

    #[test]
    fn lap_pairs_discard_the_warm_up_alternate_and_take_the_median() {
        let mut calls = Vec::new();
        let pairs = lap_pairs(3, |side| {
            calls.push(side);
            Ok(if calls.len() <= 2 { 0.001 } else { calls.len() as f64 })
        })
        .unwrap();
        // Warm-up base first, then the order flips every pair.
        assert_eq!(calls, [0, 1, 1, 0, 0, 1, 1, 0]);
        // The warm-up pair's fast laps are not returned; each pair is
        // `[base, under test]` whichever ran first.
        assert_eq!(pairs, [[4.0, 3.0], [5.0, 6.0], [8.0, 7.0]]);

        let odd = Spread::of(vec![3.0, 1.0, 2.0]);
        assert_eq!(odd, Spread { median: 2.0, min: 1.0, max: 3.0, pairs: 3 });
        let even = Spread::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even, Spread { median: 2.5, min: 1.0, max: 4.0, pairs: 4 });

        // Equal work per side: each pair's ratio is base over under-test
        // time, and each side's rate comes from its median lap.
        let p = Paired::new([8, 8], &[[2.0, 1.0], [4.0, 1.0]]);
        assert_eq!(p.ratio, Spread { median: 3.0, min: 2.0, max: 4.0, pairs: 2 });
        assert_eq!((p.rate(0), p.rate(1)), (8.0 / 3.0, 8.0));
        // Unequal work (the compile ratio) scales every pair.
        let p = Paired::new([8, 4], &[[2.0, 1.0], [4.0, 1.0]]);
        assert_eq!(p.ratio, Spread { median: 1.5, min: 1.0, max: 2.0, pairs: 2 });
    }

    #[test]
    fn lap_pairs_propagate_an_error_from_any_lap() {
        // In the warm-up pair.
        let err = lap_pairs(PAIRS, |side| if side == 1 { Err("diverged".into()) } else { Ok(1.0) });
        assert_eq!(err, Err("diverged".to_string()));
        // A tally divergence in the third timed pair ends the measurement there.
        let (mut reference, mut laps) = (None, 0);
        let err = lap_pairs(PAIRS, |_| {
            laps += 1;
            let tallies = if laps == 7 { [1, 2, 4] } else { [1, 2, 3] };
            if same_as_first(&mut reference, tallies) {
                Ok(1.0)
            } else {
                Err("outcome divergence".to_string())
            }
        });
        assert_eq!(err, Err("outcome divergence".to_string()));
        assert_eq!(laps, 7);
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
        let lap = Paired::new([1, 1], &[[2.0, 1.0]]);
        let measured = Measured {
            campaign: lap,
            passes: [perf; 2],
            interp: lap,
            decode: DecodeCacheStats::default(),
            prof_off: 1.0,
            native: Some(lap),
            error_model: lap,
            compile: lap,
        };
        let ours = record(&bench_matrix(192, 3488423942), 2, &measured);
        assert_eq!(top_level_keys(&ours), top_level_keys(&committed));
    }
}
