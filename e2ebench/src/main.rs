//! The cfed end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <seu-campaign|attack-campaign|figures> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up several times, runs it until
//! `--seconds` of runs have been measured, checks the outputs, and prints
//! the end-to-end metrics. With `--trace 1` it runs the workload once
//! untraced and once traced, and prints the per-layer metrics. The last
//! line of standard output is the JSON result; the lines before it give the
//! provenance and every metric by name with its unit. See `README.md`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads process usage through the 64-bit Linux getrusage layout");

mod campaign;
mod figures;
mod host;
mod metrics;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use campaign::{Campaign, Reference, Study};
use cfed_workloads::Scale;
use figures::Figures;
use metrics::{Workload, END_TO_END, PER_LAYER, WORKLOAD_END_TO_END};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Where runs keep their stores, under the directory the benchmark runs in.
const WORK_ROOT: &str = ".bench_work";

const USAGE: &str = "usage: cfed-e2ebench --workload <seu-campaign|attack-campaign|figures> \
                     --seed N --seconds S --trace <0|1> [--threads N]";

/// The output checks: each is one operation, and a failed check is a failed
/// operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub ops: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` describes it when it failed.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// A workload's size: what the benchmark measures, or a small version for
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Bench,
    Smoke,
}

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        if !["workload", "seed", "seconds", "trace", "threads"].contains(&name) {
            return Err(format!("unknown flag {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| flags.get(name).copied().ok_or_else(|| format!("--{name} is required"));
    let workload = get("workload")?;
    let workload =
        Workload::from_name(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let cores = host::available_parallelism();
    let threads = match flags.get("threads") {
        Some(n) => n.parse::<usize>().map_err(|e| format!("--threads: {e}"))?,
        None => cores.min(2),
    };
    if threads == 0 || threads > cores {
        return Err(format!("--threads must be between 1 and the {cores} available cores"));
    }
    Ok(Args { workload, seed, seconds, trace, threads })
}

/// What a run measured, before printing.
#[derive(Debug, Default)]
struct Outcome {
    units: u64,
    failed_units: u64,
    checks: Checks,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    fn attempted(&self) -> u64 {
        self.units + self.checks.ops
    }

    fn failed(&self) -> u64 {
        self.failed_units + self.checks.failed
    }
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    trace::median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Whether to start another measured run after runs that took `walls`
/// seconds: always a first one, and then one only if the median run so far
/// would end within `seconds`, so that the measured runs end near
/// `seconds` instead of up to a whole run past it.
fn another_run(walls: &[f64], seconds: f64) -> bool {
    walls.is_empty() || walls.iter().sum::<f64>() + trace::median(walls) <= seconds
}

/// The campaign seed of measured run `k`: the workload's seed for the
/// first, then seeds drawn from it, so that the median spans several
/// campaigns of the seed rather than one.
fn run_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut state = seed ^ (k as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    campaign::splitmix64(&mut state)
}

fn campaign_for(workload: Workload, size: Size, seed: u64, threads: usize) -> Campaign {
    let study = if workload == Workload::SeuCampaign { Study::Seu } else { Study::Attack };
    let mut c = Campaign::new(study, seed, threads);
    if size == Size::Smoke {
        c.trials = 4;
        c.workloads = 1;
    }
    c
}

fn figures_for(size: Size, threads: usize) -> Figures {
    let scale = if size == Size::Bench { Scale::Full } else { Scale::Test };
    Figures { scale, threads }
}

/// Runs the workload as `args` ask, keeping files under `dir`.
///
/// Untraced, the measured runs come first, so that `peak_rss_mb` — read
/// after the first run — is the peak of one run in a fresh process, as a
/// user running the CLI sees it; the output checks and the set-ups follow.
fn run(args: &Args, size: Size, dir: &Path) -> Result<Outcome, String> {
    let Args { workload, seed, seconds, trace: traced, threads } = *args;
    let mut out = Outcome::default();
    let mut peak_rss_mb = 0.0;
    if workload == Workload::Figures {
        let f = figures_for(size, threads);
        // The committed figures are full-scale renderings.
        let expected = if size == Size::Bench { Some(figures::expected()?) } else { None };
        if traced {
            // One set-up warms the process up for the untraced run.
            figures::setup(&f)?;
            let it = figures::run_once(&f, expected.as_ref(), &mut out.checks);
            let t = figures::run_traced(
                &f,
                workload.name(),
                expected.as_ref(),
                it.wall_s,
                &mut out.checks,
            );
            out.units = 8;
            out.metrics = t.metrics;
            out.notes
                .push(format!("untraced wall {:.3} s, traced wall {:.3} s", it.wall_s, t.wall_s));
            return Ok(out);
        }
        let mut iters = Vec::new();
        let mut walls = Vec::new();
        while another_run(&walls, seconds) {
            let it = figures::run_once(&f, expected.as_ref(), &mut out.checks);
            if iters.is_empty() {
                peak_rss_mb = host::peak_rss_mb();
            }
            walls.push(it.wall_s);
            iters.push(it);
        }
        let setups = (0..SETUP_REPS).map(|_| figures::setup(&f)).collect::<Result<Vec<_>, _>>()?;
        out.units = 4 * iters.len() as u64;
        out.metrics.insert("wall_s", median_of(&iters, |i| i.wall_s));
        out.metrics.insert("setup_s", trace::median(&setups));
        out.metrics.insert("cpu_s", median_of(&iters, |i| i.cpu_s));
        for (k, name) in ["fig2_s", "fig12_s", "fig14_s", "fig15_s"].into_iter().enumerate() {
            out.metrics.insert(name, median_of(&iters, |i| i.fig_s[k]));
        }
        out.notes.push(format!("{} figure runs measured", iters.len()));
    } else {
        let c = campaign_for(workload, size, seed, threads);
        let reference = Reference::new(&c, dir)?;
        if traced {
            campaign::setup(&c, dir)?;
            let untraced_dir = dir.join("untraced");
            let it = campaign::run_once(&c, &untraced_dir, &reference, &mut out.checks)?;
            campaign::check_samples(&c, &untraced_dir, &mut out.checks)?;
            let expected = campaign::stored_tallies(&c, &untraced_dir)?;
            let t = campaign::run_traced(
                &c,
                workload.name(),
                &dir.join("traced"),
                &reference,
                &expected,
                it.wall_s,
                &mut out.checks,
            )?;
            out.units = 2 * it.units;
            out.failed_units = it.failed_units;
            out.metrics = t.metrics;
            out.notes = t.notes;
            out.notes
                .push(format!("untraced wall {:.3} s, traced wall {:.3} s", it.wall_s, t.wall_s));
            return Ok(out);
        }
        let mut iters = Vec::new();
        let mut walls = Vec::new();
        while another_run(&walls, seconds) {
            let k = iters.len();
            let run_c = Campaign { seed: run_seed(seed, k), ..c.clone() };
            let it = campaign::run_once(
                &run_c,
                &dir.join(format!("run{k}")),
                &reference,
                &mut out.checks,
            )?;
            if k == 0 {
                peak_rss_mb = host::peak_rss_mb();
            }
            walls.push(it.wall_s);
            iters.push(it);
        }
        campaign::check_samples(&c, &dir.join("run0"), &mut out.checks)?;
        let setups =
            (0..SETUP_REPS).map(|_| campaign::setup(&c, dir)).collect::<Result<Vec<_>, _>>()?;
        out.units = iters.iter().map(|i| i.units).sum();
        out.failed_units = iters.iter().map(|i| i.failed_units).sum();
        out.metrics.insert("wall_s", median_of(&iters, |i| i.wall_s));
        out.metrics.insert("setup_s", trace::median(&setups));
        out.metrics.insert("cpu_s", median_of(&iters, |i| i.cpu_s));
        out.metrics.insert("trials_per_s", median_of(&iters, |i| i.trials as f64 / i.campaign_s));
        out.notes.push(format!(
            "{} campaign runs measured, {} trials each, seeds drawn from {seed}",
            iters.len(),
            iters[0].trials
        ));
    }
    out.metrics.insert("peak_rss_mb", peak_rss_mb);
    out.metrics.insert("ops_failed_frac", out.failed() as f64 / out.attempted().max(1) as f64);
    Ok(out)
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            eprintln!("cfed-e2ebench: removing {}: {e}", dir.display());
        }
    }
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!(
            "cfed-e2ebench: refusing to measure a debug build; run it with `cargo run --release`"
        );
        std::process::exit(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("cfed-e2ebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let provenance = host::provenance(args.workload.name(), args.seed, args.threads, args.trace);
    println!("provenance {}", provenance.render());

    let dir =
        PathBuf::from(WORK_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, Size::Bench, &dir);
    remove_dir(&dir);
    // Leaves the root behind only while another run is using it.
    let _ = std::fs::remove_dir(WORK_ROOT);
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("cfed-e2ebench: {} failed: {e}", args.workload.name());
        std::process::exit(1);
    });

    let mut measured: Vec<&str> = outcome.metrics.keys().copied().collect();
    let mut promised = if args.trace {
        args.workload.per_layer()
    } else {
        END_TO_END.iter().map(|m| m.name).chain(args.workload.end_to_end_extras()).collect()
    };
    measured.sort_unstable();
    promised.sort_unstable();
    assert_eq!(measured, promised, "a workload must measure exactly the metrics it declares");

    let declared: &[metrics::Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print!("{}", metrics::summary_lines(declared, &outcome.metrics));
    if !args.trace {
        print!("{}", metrics::summary_lines(&WORKLOAD_END_TO_END, &outcome.metrics));
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    for failure in &outcome.checks.failures {
        println!("check failed: {failure}");
        eprintln!("cfed-e2ebench: check failed: {failure}");
    }
    let correct = outcome.failed() == 0;
    println!(
        "{}",
        metrics::result_line(
            correct,
            outcome.attempted(),
            outcome.failed(),
            declared,
            &outcome.metrics
        )
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cfed-e2ebench-{name}-{}", std::process::id()))
    }

    /// Runs each workload, small, both ways, and checks it measures exactly
    /// the metrics it declares and passes its own output checks.
    fn emits_declared(workload: Workload) {
        for traced in [false, true] {
            let dir = scratch(&format!("{}-{traced}", workload.name()));
            let args = Args { workload, seed: 7, seconds: 0.0, trace: traced, threads: 2 };
            let out = run(&args, Size::Smoke, &dir);
            remove_dir(&dir);
            let out = out.expect("smoke run succeeds");
            assert_eq!(out.failed(), 0, "{:?}", out.checks.failures);
            assert!(out.attempted() > 0);
            let mut want: Vec<&str> = if traced {
                workload.per_layer()
            } else {
                END_TO_END.iter().map(|m| m.name).chain(workload.end_to_end_extras()).collect()
            };
            want.sort_unstable();
            let got: Vec<&str> = out.metrics.keys().copied().collect();
            assert_eq!(got, want, "{} traced={traced}", workload.name());
            for (name, value) in &out.metrics {
                assert!(value.is_finite(), "{name} = {value}");
            }
        }
    }

    #[test]
    fn seu_campaign_emits_exactly_its_declared_metrics() {
        emits_declared(Workload::SeuCampaign);
    }

    #[test]
    fn attack_campaign_emits_exactly_its_declared_metrics() {
        emits_declared(Workload::AttackCampaign);
    }

    #[test]
    fn figures_emits_exactly_its_declared_metrics() {
        emits_declared(Workload::Figures);
    }

    #[test]
    fn measured_runs_stop_before_the_budget_and_draw_distinct_seeds() {
        assert!(another_run(&[], 0.0));
        assert!(another_run(&[10.0, 12.0], 33.0));
        assert!(!another_run(&[10.0, 12.0, 11.0], 43.0));
        assert!(!another_run(&[60.0], 50.0));
        assert_eq!(run_seed(42, 0), 42);
        let seeds: BTreeSet<u64> = (0..16).map(|k| run_seed(42, k)).collect();
        assert_eq!(seeds.len(), 16);
        assert_ne!(run_seed(42, 1), run_seed(43, 1));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let ok =
            parse_args(&args("--workload figures --seed 3 --seconds 10 --trace 1 --threads 1"))
                .expect("valid");
        assert_eq!(ok.workload, Workload::Figures);
        assert!(ok.trace && ok.seed == 3 && ok.threads == 1);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload figures --seed x --seconds 1 --trace 0",
            "--workload figures --seed 1 --seconds 1 --trace 2",
            "--workload figures --seed 1 --trace 0",
            "--workload figures --seed 1 --seconds 1 --trace 0 --threads 0",
            "--workload figures --seed 1 --seconds 1 --trace 0 extra",
            "--workload figures --seed 1 --seconds 1 --trace 0 --bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
