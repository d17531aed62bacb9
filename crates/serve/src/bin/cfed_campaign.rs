//! `cfed-campaign` — the full fault-injection study as one resumable run.
//!
//! Drives two campaign matrices over the `cfed-runner` worker pool:
//!
//! * **coverage** — baseline + five techniques × both update styles over
//!   the six campaign workloads (ALLBB policy), tallied per branch-error
//!   category;
//! * **latency** — EdgCF/CMOVcc under the four checking policies,
//!   measuring mean instructions from injection to the check report.
//!
//! Every finished shard is checkpointed to a JSONL store under `--out`;
//! re-running with the same `--run-id`, `--seed` and `--trials` resumes
//! from the checkpoints instead of re-executing. Tallies are bit-identical
//! for any `--threads` value.
//!
//! Usage: `cargo run --release -p cfed-serve --bin cfed-campaign -- [OPTIONS]`
//!
//! The `attack` subcommand runs the adversarial study instead: every
//! attack archetype against baseline + the five techniques, stored at
//! `<run-id>-attacks.jsonl` with the same resume/determinism guarantees;
//! `serve coordinate --attacks` distributes the identical plan.
//!
//! The `report` subcommand renders a finished (or partial) store:
//! `cfed-campaign report --store results/campaigns/<run>-coverage.jsonl`
//! (`--attacks` renders the attack detection frontier, `--serve-stats`
//! also renders the campaign-service counters when the store was written
//! by a coordinator).
//!
//! The `profile` subcommand renders the per-cell execution profiles the
//! sampling profiler appends alongside results (run without `--no-profile`):
//! per-cell payload/instrumentation/other cycle attribution with the
//! hottest static blocks, plus a per-technique overhead table reconstructed
//! purely from the profiles (the paper's fig. 12 shape).
//!
//! The `serve` subcommands distribute the same study across processes:
//! `serve coordinate` leases work units over TCP and is the single store
//! writer; `serve work` connects to a coordinator and executes units.
//! Stores and reports are byte-identical to the single-process run.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use cfed_core::{Category, TechniqueKind};
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::CategoryStats;
use cfed_runner::cli::{Args, Parser};
use cfed_runner::matrix::{CampaignMatrix, CellKey, CAMPAIGN_WORKLOADS};
use cfed_runner::pool::{run_matrix, RunSummary, RunnerOptions};
use cfed_runner::report::{render_attack_frontier, render_report};
use cfed_runner::retry::RetryPolicy;
use cfed_runner::store::read_meta;
use cfed_serve::{
    attack_phases, campaign_phases, Coordinator, CoordinatorOptions, ServeStats, WorkerOptions,
};
use cfed_telemetry::{JsonlSink, Telemetry};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("report") => run_report(&argv[1..]),
        Some("profile") => run_profile(&argv[1..]),
        Some("attack") => run_attacks(&argv[1..]),
        Some("serve") => match argv.get(1).map(String::as_str) {
            Some("coordinate") => run_coordinate(&argv[2..]),
            Some("work") => run_work(&argv[2..]),
            Some("--help" | "-h") | None => {
                eprintln!(
                    "usage: cfed-campaign serve <coordinate|work> [OPTIONS]\n\
                     \x20 coordinate  lease campaign units to workers over TCP (single store writer)\n\
                     \x20 work        connect to a coordinator and execute leased units\n\
                     run `cfed-campaign serve coordinate --help` or `serve work --help` for options"
                );
                std::process::exit(if argv.len() > 1 { 0 } else { 2 });
            }
            Some(other) => {
                eprintln!(
                    "cfed-campaign: unknown serve subcommand {other:?} (expected coordinate or work)"
                );
                std::process::exit(2);
            }
        },
        _ => run_campaign(&argv),
    }
}

/// The SIGINT-drain flag: set by the signal handler, polled by the
/// coordinator/worker loops so an interrupted campaign checkpoints its
/// store and exits cleanly instead of dying mid-write.
static STOP: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_sigint(_signum: i32) {
    if let Some(flag) = STOP.get() {
        flag.store(true, Ordering::Relaxed);
    }
}

/// Installs the SIGINT handler and returns the drain flag. Uses the C
/// `signal()` entry point directly — the only libc surface this needs —
/// so no FFI crate dependency is pulled in.
fn install_sigint() -> Arc<AtomicBool> {
    let flag = STOP.get_or_init(|| Arc::new(AtomicBool::new(false))).clone();
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint);
    }
    flag
}

fn run_report(argv: &[String]) {
    let args = Parser::new("cfed-campaign report", "render a campaign result store")
        .required_flag("store", "PATH", "JSONL result store to render")
        .switch("attacks", "render the attack detection frontier (archetype x technique)")
        .switch("serve-stats", "also render campaign-service counters (coordinator stores)")
        .parse_from(argv);
    let store = Path::new(args.get("store").expect("required"));
    let rendered =
        if args.has("attacks") { render_attack_frontier(store) } else { render_report(store) };
    match rendered {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("cfed-campaign: {e}");
            std::process::exit(2);
        }
    }
    if args.has("serve-stats") {
        match read_meta(store, "serve_stats") {
            Ok(records) if records.is_empty() => {
                println!("\nserve stats: none recorded (single-process store)");
            }
            Ok(records) => {
                let mut total = ServeStats::default();
                for record in &records {
                    match ServeStats::from_meta(record) {
                        Ok(s) => total.absorb(&s),
                        Err(e) => {
                            eprintln!("cfed-campaign: malformed serve_stats record: {e}");
                            std::process::exit(2);
                        }
                    }
                }
                println!("\nserve stats ({} coordinator phase(s)):", records.len());
                print!("{}", total.render());
            }
            Err(e) => {
                eprintln!("cfed-campaign: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// One-line fatal error with the conventional bad-usage exit code.
fn fatal(prefix: &str, message: String) -> ! {
    eprintln!("{prefix}: {message}");
    std::process::exit(2);
}

fn run_profile(argv: &[String]) {
    let args = Parser::new(
        "cfed-campaign profile",
        "render the per-cell execution profiles recorded in a result store",
    )
    .required_flag("store", "PATH", "JSONL result store holding profile records")
    .flag("top", "N", "5", "hottest static blocks to list per cell")
    .parse_from(argv);
    let die = |message: String| -> ! {
        eprintln!("cfed-campaign profile: {message}");
        std::process::exit(2);
    };
    let store = Path::new(args.get("store").expect("required"));
    let top = args.get_usize("top").unwrap_or_else(|e| die(e));
    let profiles = cfed_runner::read_profiles(store).unwrap_or_else(|e| die(e));
    if profiles.is_empty() {
        eprintln!(
            "cfed-campaign profile: no profile records in {} (was the run made with --no-profile?)",
            store.display()
        );
        std::process::exit(1);
    }
    print!("{}", render_profiles(&profiles, top));
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders the stored profiles: per-cell cycle attribution with the
/// hottest static blocks, then the fig12-style per-technique overhead
/// table reconstructed purely from the profiles. Because the profiler
/// attributes *every* retired cycle, the reconstructed slowdown equals the
/// measured end-to-end cycles ratio exactly — the table is the figure, not
/// an estimate of it.
fn render_profiles(
    profiles: &std::collections::BTreeMap<String, cfed_telemetry::Profile>,
    top: usize,
) -> String {
    let mut out = String::new();
    // (workload, style) -> baseline total cycles; (technique, style) ->
    // per-workload totals for the overhead table.
    let mut baseline: std::collections::BTreeMap<(&str, &str), u64> =
        std::collections::BTreeMap::new();
    let mut techs: std::collections::BTreeMap<(&str, &str), Vec<(&str, ProfTotals)>> =
        std::collections::BTreeMap::new();

    for (key, profile) in profiles {
        let Some(CellKey { workload, technique, style, policy, .. }) = CellKey::parse(key) else {
            let _ = writeln!(out, "== {key} == (unrecognized key shape)");
            continue;
        };
        let t = profile.totals();
        let _ = writeln!(out, "== {workload} | {technique} | {style} | {policy} ==");
        let _ = writeln!(
            out,
            "cycles: {} total — payload {} ({:.1}%), instr {} ({:.1}%: update {}, check+glue {}), \
             other {} ({:.1}%)",
            t.total(),
            t.payload,
            pct(t.payload, t.total()),
            t.instr(),
            pct(t.instr(), t.total()),
            t.head,
            t.tail,
            t.other,
            pct(t.other, t.total()),
        );
        for (addr, b) in profile.top_blocks(top) {
            let _ = writeln!(
                out,
                "  block {addr:#08x}: {} hits, {} cycles ({} payload, {} instr, {:.1}% instr)",
                b.hits,
                b.total_cycles(),
                b.payload_cycles,
                b.instr_cycles(),
                pct(b.instr_cycles(), b.total_cycles()),
            );
        }
        let _ = writeln!(out);

        let totals = ProfTotals { total: t.total(), head: t.head, tail: t.tail };
        if technique == "baseline" {
            baseline.insert((workload, style), t.total());
        } else {
            techs.entry((technique, style)).or_default().push((workload, totals));
        }
    }

    let _ = writeln!(out, "== per-technique overhead (reconstructed from profiles, fig12) ==");
    if baseline.is_empty() {
        let _ = writeln!(out, "(no baseline cells in this store; slowdowns unavailable)");
        return out;
    }
    let _ = writeln!(
        out,
        "{:>9} {:>8} | {:>8} | {:>6} {:>7} {:>11}",
        "technique", "style", "slowdown", "instr%", "update%", "check+glue%"
    );
    let _ = writeln!(out, "{}", "-".repeat(60));
    for ((technique, style), cells) in &techs {
        let mut ratios = Vec::new();
        let (mut total, mut head, mut tail) = (0u64, 0u64, 0u64);
        for (workload, t) in cells {
            if let Some(&base) = baseline.get(&(*workload, *style)) {
                if base > 0 {
                    ratios.push(t.total as f64 / base as f64);
                }
            }
            total += t.total;
            head += t.head;
            tail += t.tail;
        }
        let slowdown = if ratios.is_empty() { f64::NAN } else { cfed_core::geomean(&ratios) };
        let _ = writeln!(
            out,
            "{:>9} {:>8} | {:>7.3}x | {:>5.1}% {:>6.1}% {:>10.1}%",
            technique,
            style,
            slowdown,
            pct(head + tail, total),
            pct(head, total),
            pct(tail, total),
        );
    }
    out
}

/// Whole-cell cycle totals carried into the overhead table.
struct ProfTotals {
    total: u64,
    head: u64,
    tail: u64,
}

/// Builds the telemetry handle for `--events PATH`, validating the
/// `--forensics`/`--events` pairing.
fn telemetry_for(args: &Args, prefix: &str) -> Telemetry {
    if args.has("forensics") && args.get("events").filter(|s| !s.is_empty()).is_none() {
        fatal(
            prefix,
            "--forensics requires --events PATH (forensics bundles are emitted as events)"
                .to_string(),
        );
    }
    match args.get("events").filter(|s| !s.is_empty()) {
        Some(path) => Telemetry::to(Arc::new(
            JsonlSink::create(Path::new(path)).unwrap_or_else(|e| fatal(prefix, e)),
        )),
        None => Telemetry::off(),
    }
}

fn retry_policy_for(args: &Args, prefix: &str) -> RetryPolicy {
    let max_attempts = args.get_u64("retries").unwrap_or_else(|e| fatal(prefix, e));
    let backoff_ms = args.get_u64("backoff-ms").unwrap_or_else(|e| fatal(prefix, e));
    if max_attempts == 0 {
        fatal(prefix, "--retries must be at least 1 (the first attempt counts)".to_string());
    }
    RetryPolicy {
        max_attempts: u32::try_from(max_attempts).unwrap_or(u32::MAX),
        backoff_ms,
        ..RetryPolicy::default()
    }
}

/// A study's defaults, shared by its single-process front end and
/// `serve coordinate`, so default invocations of either write the same
/// store under the same run id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Study {
    /// `--trials` when not given.
    trials: u64,
    /// The default run id is `{prefix}-s{seed}-t{trials}`.
    prefix: &'static str,
}

/// The coverage + latency study.
const SEU_STUDY: Study = Study { trials: 500, prefix: "campaign" };
/// The adversarial attack study.
const ATTACK_STUDY: Study = Study { trials: 300, prefix: "attack" };

impl Study {
    /// `--trials` (this study's default when empty; at least 1), `--seed`
    /// and `--run-id` (derived from seed and trials when empty).
    fn resolve(self, args: &Args) -> Result<(u64, u64, String), String> {
        let trials = match args.get("trials").filter(|s| !s.is_empty()) {
            Some(_) => args.get_u64("trials")?,
            None => self.trials,
        };
        if trials == 0 {
            return Err("--trials must be at least 1".to_string());
        }
        let seed = args.get_u64("seed")?;
        let run_id = match args.get("run-id").filter(|s| !s.is_empty()) {
            Some(id) => id.to_string(),
            None => format!("{}-s{seed}-t{trials}", self.prefix),
        };
        Ok((trials, seed, run_id))
    }
}

/// Adds the flags every study front end shares (`cfed-campaign`, `attack`
/// and `serve coordinate`), so their defaults are declared once.
fn study_flags(parser: Parser) -> Parser {
    parser
        .flag("seed", "SEED", "3488423942", "campaign RNG seed")
        .flag("out", "DIR", "results/campaigns", "directory for the JSONL result stores")
        .flag(
            "run-id",
            "ID",
            "",
            "run identifier; re-use to resume (default: derived from seed/trials)",
        )
        .flag("events", "PATH", "", "write structured telemetry events (JSONL) to PATH")
        .flag("retries", "N", "3", "attempts per failed unit before recording it failed")
        .flag("backoff-ms", "MS", "25", "base backoff between unit retry attempts")
}

fn campaign_parser() -> Parser {
    study_flags(
        Parser::new("cfed-campaign", "full coverage + latency fault-injection study")
            .flag(
                "trials",
                "N",
                &SEU_STUDY.trials.to_string(),
                "injections per workload per configuration",
            )
            .flag("threads", "N", "0", "worker threads (0 = all cores)"),
    )
    .switch("quiet", "suppress stderr progress output")
    .switch(
        "forensics",
        "re-inject SDC/timeout/misdetection trials and emit forensics events (use with --events)",
    )
    .switch(
        "no-snapshots",
        "disable fast-forward snapshots; every trial replays its fault-free prefix from scratch",
    )
    .switch(
        "no-profile",
        "skip per-cell execution profiling (profiles feed `cfed-campaign profile`)",
    )
}

fn run_campaign(argv: &[String]) {
    let args = campaign_parser().parse_from(argv);
    let die = |message: String| -> ! {
        eprintln!("cfed-campaign: {message}");
        std::process::exit(2);
    };
    let (trials, seed, run_id) = SEU_STUDY.resolve(&args).unwrap_or_else(|e| die(e));
    let threads = args.get_usize("threads").unwrap_or_else(|e| die(e));
    let out = PathBuf::from(args.get("out").expect("has default"));
    let quiet = args.has("quiet");
    let telemetry = telemetry_for(&args, "cfed-campaign");
    let options = RunnerOptions {
        threads,
        max_shards: None,
        quiet,
        telemetry,
        forensics: args.has("forensics"),
        snapshots: !args.has("no-snapshots"),
        profile: !args.has("no-profile"),
        retry: retry_policy_for(&args, "cfed-campaign"),
    };

    // The exact phase list `serve coordinate` uses, so stores (and their
    // reports) are interchangeable between the two execution modes.
    let phases = campaign_phases(trials, seed, &out, &run_id);
    let coverage = &phases[0];
    let latency = &phases[1];

    let mut runs = Vec::with_capacity(phases.len());
    for plan in &phases {
        if !quiet {
            eprintln!(
                "cfed-campaign: {} matrix — {} cells, {} shards, store {}",
                plan.label,
                plan.matrix.cells().len(),
                CampaignMatrix::shards(&plan.matrix.cells()).len(),
                plan.store.display()
            );
        }
        let run = run_matrix(&plan.matrix, &run_id, Some(&plan.store), &options)
            .unwrap_or_else(|e| die(e));
        if !quiet {
            report_progress(&run);
        }
        runs.push(run);
    }
    let (coverage_run, latency_run) = (&runs[0], &runs[1]);

    for style in [UpdateStyle::CMov, UpdateStyle::Jcc] {
        println!("=== Coverage, {style} update style ({trials} trials/workload/config) ===");
        print!(
            "{}",
            render_coverage(&coverage.matrix, coverage_run, style, &coverage.matrix.techniques)
        );
        println!();
    }
    println!("=== Detection latency by checking policy (EdgCF, CMOVcc) ===");
    print!("{}", render_latency(&latency.matrix, latency_run));

    if !quiet {
        eprintln!(
            "cfed-campaign: full per-cell tables: cfed-campaign report --store {}",
            coverage.store.display()
        );
    }

    if !coverage_run.complete() || !latency_run.complete() {
        eprintln!("cfed-campaign: some shards failed; re-run with the same --run-id to retry them");
        std::process::exit(1);
    }
}

fn attack_parser() -> Parser {
    study_flags(
        Parser::new(
            "cfed-campaign attack",
            "adversarial campaign: every attack archetype vs baseline + five techniques",
        )
        .flag(
            "trials",
            "N",
            &ATTACK_STUDY.trials.to_string(),
            "attacks per workload per archetype per configuration",
        )
        .flag("threads", "N", "0", "worker threads (0 = all cores)"),
    )
    .flag(
        "workloads",
        "NAMES",
        "",
        "comma-separated campaign workload names (default: all six)",
    )
    .switch("quiet", "suppress stderr progress output")
    .switch(
        "forensics",
        "re-mount SDC/timeout attacks with a tracer and emit attack_forensics events (use with --events)",
    )
    .switch(
        "no-snapshots",
        "disable fast-forward snapshots; every trial replays its attack-free prefix from scratch",
    )
}

fn run_attacks(argv: &[String]) {
    let args = attack_parser().parse_from(argv);
    let die = |message: String| -> ! {
        eprintln!("cfed-campaign attack: {message}");
        std::process::exit(2);
    };
    let (trials, seed, run_id) = ATTACK_STUDY.resolve(&args).unwrap_or_else(|e| die(e));
    let threads = args.get_usize("threads").unwrap_or_else(|e| die(e));
    let out = PathBuf::from(args.get("out").expect("has default"));
    let workloads =
        parse_workloads(args.get("workloads").unwrap_or_default()).unwrap_or_else(|e| die(e));
    let quiet = args.has("quiet");
    let options = RunnerOptions {
        threads,
        max_shards: None,
        quiet,
        telemetry: telemetry_for(&args, "cfed-campaign attack"),
        forensics: args.has("forensics"),
        snapshots: !args.has("no-snapshots"),
        profile: false,
        retry: retry_policy_for(&args, "cfed-campaign attack"),
    };

    // The exact phase `serve coordinate --attacks` uses, so stores (and the
    // frontier rendered from them) are interchangeable between modes.
    let phases = attack_phases(&workloads, trials, seed, &out, &run_id);
    let plan = &phases[0];
    if !quiet {
        eprintln!(
            "cfed-campaign attack: {} cells, {} shards, store {}",
            plan.matrix.cells().len(),
            CampaignMatrix::shards(&plan.matrix.cells()).len(),
            plan.store.display()
        );
    }
    let run =
        run_matrix(&plan.matrix, &run_id, Some(&plan.store), &options).unwrap_or_else(|e| die(e));
    if !quiet {
        report_progress(&run);
    }

    match render_attack_frontier(&plan.store) {
        Ok(text) => print!("{text}"),
        Err(e) => die(e),
    }
    if !quiet {
        eprintln!(
            "cfed-campaign attack: per-cell tables: cfed-campaign report --store {}",
            plan.store.display()
        );
    }
    if !run.complete() {
        eprintln!(
            "cfed-campaign attack: some shards failed; re-run with the same --run-id to retry them"
        );
        std::process::exit(1);
    }
}

/// Parses a `--workloads` list: comma-separated workload names, all six
/// campaign workloads when empty. An unknown name is an error naming it and
/// the valid names, so a typo fails before any store is opened.
fn parse_workloads(list: &str) -> Result<Vec<String>, String> {
    let names: Vec<String> =
        list.split(',').map(str::trim).filter(|w| !w.is_empty()).map(str::to_string).collect();
    if let Some(bad) = names.iter().find(|name| cfed_workloads::by_name(name).is_none()) {
        let valid: Vec<&str> = cfed_workloads::ALL.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {bad:?} (valid: {})", valid.join(", ")));
    }
    if names.is_empty() {
        return Ok(CAMPAIGN_WORKLOADS.map(str::to_string).to_vec());
    }
    Ok(names)
}

fn coordinate_parser() -> Parser {
    study_flags(
        Parser::new(
            "cfed-campaign serve coordinate",
            "lease the campaign to worker processes over TCP (single store writer)",
        )
        .flag(
            "trials",
            "N",
            "",
            "trials per workload per configuration (default: 500, or 300 with --attacks)",
        ),
    )
    .flag(
        "listen",
        "ADDR",
        "127.0.0.1:7171",
        "worker listen address (use :0 for an ephemeral port)",
    )
    .flag("http", "ADDR", "", "also serve /report /progress /healthz on ADDR")
    .flag("addr-file", "PATH", "", "write the bound worker (and http) address to PATH")
    .flag("lease-ms", "MS", "60000", "lease deadline before a unit is re-queued")
    .flag("max-inflight", "N", "4", "outstanding lease cap per worker")
    .flag(
        "workloads",
        "NAMES",
        "",
        "comma-separated workload names for --attacks (default: all six)",
    )
    .switch("attacks", "run the adversarial attack study instead of coverage + latency")
    .switch("quiet", "suppress stderr progress output")
}

/// The study `serve coordinate` distributes.
fn coordinate_study(args: &Args) -> Study {
    if args.has("attacks") {
        ATTACK_STUDY
    } else {
        SEU_STUDY
    }
}

fn run_coordinate(argv: &[String]) {
    let args = coordinate_parser().parse_from(argv);
    let die = |message: String| -> ! {
        eprintln!("cfed-campaign serve coordinate: {message}");
        std::process::exit(2);
    };
    let study = coordinate_study(&args);
    let (trials, seed, run_id) = study.resolve(&args).unwrap_or_else(|e| die(e));
    let out = PathBuf::from(args.get("out").expect("has default"));
    // Checked before anything binds, opens a store or writes a file.
    let workloads =
        parse_workloads(args.get("workloads").unwrap_or_default()).unwrap_or_else(|e| die(e));
    let lease_ms = args.get_u64("lease-ms").unwrap_or_else(|e| die(e));
    let max_inflight = args.get_usize("max-inflight").unwrap_or_else(|e| die(e));
    if max_inflight == 0 {
        die("--max-inflight must be at least 1".to_string());
    }
    let quiet = args.has("quiet");
    let options = CoordinatorOptions {
        listen: args.get("listen").expect("has default").to_string(),
        http: args.get("http").filter(|s| !s.is_empty()).map(str::to_string),
        lease_ms,
        retry: retry_policy_for(&args, "cfed-campaign serve coordinate"),
        max_inflight,
        quiet,
        telemetry: telemetry_for(&args, "cfed-campaign serve coordinate"),
    };

    let coordinator = Coordinator::bind(options).unwrap_or_else(|e| die(e));
    if !quiet {
        eprintln!("cfed-campaign serve coordinate: leasing on {}", coordinator.addr());
        if let Some(http) = coordinator.http_addr() {
            eprintln!("cfed-campaign serve coordinate: http on {http}");
        }
    }
    if let Some(path) = args.get("addr-file").filter(|s| !s.is_empty()) {
        let mut text = format!("{}\n", coordinator.addr());
        if let Some(http) = coordinator.http_addr() {
            text.push_str(&format!("{http}\n"));
        }
        std::fs::write(path, text).unwrap_or_else(|e| die(format!("writing {path}: {e}")));
    }

    let stop = install_sigint();
    let phases = if study == ATTACK_STUDY {
        attack_phases(&workloads, trials, seed, &out, &run_id)
    } else {
        campaign_phases(trials, seed, &out, &run_id)
    };
    let summary = coordinator.run(&run_id, &phases, Some(stop)).unwrap_or_else(|e| die(e));

    for phase in &summary.phases {
        println!(
            "serve: phase {} — {}/{} units done ({} resumed, {} failed)",
            phase.label,
            phase.done_units,
            phase.total_units,
            phase.resumed_units,
            phase.failed_units
        );
    }
    print!("{}", summary.stats.render());
    for plan in &phases {
        println!("serve: report: cfed-campaign report --store {}", plan.store.display());
    }
    if summary.stopped {
        eprintln!(
            "cfed-campaign serve coordinate: interrupted — stores checkpointed; re-run with the \
             same --run-id to resume"
        );
        std::process::exit(130);
    }
    if !summary.complete() {
        eprintln!(
            "cfed-campaign serve coordinate: some units failed; re-run with the same --run-id to \
             retry them"
        );
        std::process::exit(1);
    }
}

fn run_work(argv: &[String]) {
    let args = Parser::new(
        "cfed-campaign serve work",
        "connect to a coordinator and execute leased campaign units",
    )
    .required_flag("connect", "ADDR", "coordinator address, e.g. 127.0.0.1:7171")
    .flag("name", "NAME", "", "advertised worker name (default: host PID tag)")
    .flag("threads", "N", "0", "executor threads / lease slots (0 = all cores)")
    .flag("event-queue", "N", "1024", "bounded outbound telemetry queue capacity")
    .switch(
        "no-snapshots",
        "disable fast-forward snapshots; every trial replays its fault-free prefix from scratch",
    )
    .switch(
        "no-profile",
        "skip per-cell execution profiling (profiles feed `cfed-campaign profile`)",
    )
    .switch("quiet", "suppress stderr progress output")
    .parse_from(argv);
    let die = |message: String| -> ! {
        eprintln!("cfed-campaign serve work: {message}");
        std::process::exit(2);
    };
    let name = match args.get("name").filter(|s| !s.is_empty()) {
        Some(name) => name.to_string(),
        None => format!("worker-{}", std::process::id()),
    };
    let options = WorkerOptions {
        connect: args.get("connect").expect("required").to_string(),
        name,
        threads: args.get_usize("threads").unwrap_or_else(|e| die(e)),
        snapshots: !args.has("no-snapshots"),
        profile: !args.has("no-profile"),
        event_queue: args.get_usize("event-queue").unwrap_or_else(|e| die(e)),
        quiet: args.has("quiet"),
    };
    let stop = install_sigint();
    cfed_serve::work(&options, Some(stop)).unwrap_or_else(|e| die(e));
}

fn report_progress(run: &RunSummary) {
    eprintln!(
        "cfed-campaign: executed {} shards, resumed {} from checkpoints",
        run.executed_shards, run.resumed_shards
    );
}

/// Sums category tallies across one configuration's workload cells.
fn technique_totals(
    matrix: &CampaignMatrix,
    summary: &RunSummary,
    technique: Option<TechniqueKind>,
    style: UpdateStyle,
) -> (Vec<(Category, CategoryStats)>, u64) {
    let mut totals: Vec<(Category, CategoryStats)> =
        Category::ALL.iter().map(|&c| (c, CategoryStats::default())).collect();
    let mut missing = 0u64;
    for (cell, result) in matrix.cells().iter().zip(&summary.cells) {
        if cell.config.technique != technique || cell.config.style != style {
            continue;
        }
        let Some(report) = result.report.as_ref() else {
            missing += 1;
            continue;
        };
        for (c, slot) in &mut totals {
            *slot += *report.category(*c);
        }
    }
    (totals, missing)
}

fn render_coverage(
    matrix: &CampaignMatrix,
    summary: &RunSummary,
    style: UpdateStyle,
    techniques: &[Option<TechniqueKind>],
) -> String {
    let mut out = String::new();
    for &technique in techniques {
        let (totals, missing) = technique_totals(matrix, summary, technique, style);
        let name = technique.map_or("baseline".to_string(), |k| k.to_string());
        let _ = writeln!(out, "\n== {name} ==");
        if missing > 0 {
            let _ = writeln!(out, "   ({missing} workload cells missing — run incomplete)");
        }
        let _ = writeln!(
            out,
            "{:>9} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} | {:>8}",
            "Category", "chk", "hw", "fault", "benign", "SDC", "timeout", "coverage"
        );
        let _ = writeln!(out, "{}", "-".repeat(72));
        for (c, s) in &totals {
            if s.total() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:>9} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} | {:>7.1}%",
                c.to_string(),
                s.detected_check,
                s.detected_hw,
                s.other_fault,
                s.benign,
                s.sdc,
                s.timeout,
                100.0 * s.coverage()
            );
        }
    }
    out
}

fn render_latency(matrix: &CampaignMatrix, summary: &RunSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>8} | {:>16} | {:>12}", "policy", "mean latency", "check share");
    let _ = writeln!(out, "{}", "-".repeat(44));
    for policy in CheckPolicy::ALL {
        let mut lat_sum = 0.0;
        let mut lat_n = 0u64;
        let mut chk = 0u64;
        let mut hw = 0u64;
        for (cell, result) in matrix.cells().iter().zip(&summary.cells) {
            if cell.config.policy != policy {
                continue;
            }
            let Some(report) = result.report.as_ref() else { continue };
            if let Some(l) = report.mean_detection_latency() {
                lat_sum += l;
                lat_n += 1;
            }
            let t = report.sdc_prone_total();
            chk += t.detected_check;
            hw += t.detected_hw + t.other_fault;
        }
        let mean = if lat_n > 0 { lat_sum / lat_n as f64 } else { f64::NAN };
        let share = if chk + hw > 0 { chk as f64 / (chk + hw) as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "{:>8} | {:>11.0} insts | {:>11.1}%",
            policy.to_string(),
            mean,
            100.0 * share
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_workloads_names_a_typo_and_defaults_to_all_six() {
        let err = parse_workloads("164.gzip,164.gzp").unwrap_err();
        assert!(err.contains("\"164.gzp\""), "{err}");
        assert!(err.contains("176.gcc"), "error lists the valid names: {err}");
        assert_eq!(parse_workloads("").unwrap(), CAMPAIGN_WORKLOADS);
        assert_eq!(parse_workloads(" 181.mcf , 164.gzip ").unwrap(), ["181.mcf", "164.gzip"]);
    }

    /// Default invocations of a study's single-process front end and of
    /// `serve coordinate` resolve the same trials and run id, hence write
    /// the same store file under the same header.
    #[test]
    fn serve_coordinate_defaults_follow_the_study() {
        let parse = |parser: Parser, argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
            parser.try_parse(&argv).unwrap()
        };
        let served = parse(coordinate_parser(), &["--attacks"]);
        let attack = ATTACK_STUDY.resolve(&parse(attack_parser(), &[])).unwrap();
        assert_eq!(coordinate_study(&served).resolve(&served).unwrap(), attack);
        assert_eq!(attack, (300, 3488423942, "attack-s3488423942-t300".to_string()));

        let served = parse(coordinate_parser(), &[]);
        let seu = SEU_STUDY.resolve(&parse(campaign_parser(), &[])).unwrap();
        assert_eq!(coordinate_study(&served).resolve(&served).unwrap(), seu);
        assert_eq!(seu, (500, 3488423942, "campaign-s3488423942-t500".to_string()));

        // Explicit values win over the study's defaults.
        let served = parse(coordinate_parser(), &["--attacks", "--trials", "64", "--seed", "7"]);
        let resolved = coordinate_study(&served).resolve(&served).unwrap();
        assert_eq!(resolved, (64, 7, "attack-s7-t64".to_string()));
        let bad = parse(coordinate_parser(), &["--trials", "x"]);
        assert!(SEU_STUDY.resolve(&bad).unwrap_err().contains("--trials"));
    }

    /// Zero trials would open empty stores and report every cell missing;
    /// all three front ends refuse it at resolution, before any store opens.
    #[test]
    fn zero_trials_is_refused_by_every_front_end() {
        let zero = ["--trials".to_string(), "0".to_string()];
        let refused = |study: Study, parser: Parser| {
            let err = study.resolve(&parser.try_parse(&zero).unwrap()).unwrap_err();
            assert_eq!(err, "--trials must be at least 1");
        };
        refused(SEU_STUDY, campaign_parser());
        refused(ATTACK_STUDY, attack_parser());
        refused(SEU_STUDY, coordinate_parser());
        refused(ATTACK_STUDY, coordinate_parser());
    }
}
