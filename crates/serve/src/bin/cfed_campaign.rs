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
//!
//! The `bench` subcommand runs a fixed-seed smoke campaign twice — fast-
//! forward snapshots on and off — checks the tallies match bit for bit,
//! and writes a `BENCH_campaign.json` record (throughput, snapshot stats,
//! host fingerprint). It also times the interpreter on the same workloads
//! with and without the pre-decoded instruction cache (guest MIPS each
//! way, plus the cache's hit/miss/invalidation counters). `--baseline
//! PATH` compares the snapshots-over-scratch speedup and the
//! decoded-over-raw interpreter speedup against a committed record and
//! exits nonzero when either is more than 25% below it — the CI perf gate
//! (both are ratios of two passes on the same host, so a committed
//! baseline is portable across runners). It also times the profiler-capable
//! dispatch with profiling off against the direct decoded loop and fails
//! outright (no baseline needed) if the dispatch costs ≥1% throughput, and
//! — where the host supports it — the DBT's x86-64 native backend against
//! the decoded interpreter, failing outright below a 2x floor, and the
//! profile-guided trace tier against tier-1 native execution on a hot-loop
//! workload, failing outright below a 1.2x floor.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use cfed_core::{
    run_dbt_native_enabled, run_dbt_tiered_enabled, Category, RunConfig, TechniqueKind,
};
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::CategoryStats;
use cfed_runner::cli::Parser;
use cfed_runner::matrix::{CampaignMatrix, WorkloadSpec, CAMPAIGN_WORKLOADS};
use cfed_runner::pool::{run_matrix, RunPerf, RunSummary, RunnerOptions};
use cfed_runner::report::{render_attack_frontier, render_report};
use cfed_runner::retry::RetryPolicy;
use cfed_runner::store::read_meta;
use cfed_serve::{
    attack_phases, campaign_phases, Coordinator, CoordinatorOptions, ServeStats, WorkerOptions,
};
use cfed_sim::Machine;
use cfed_telemetry::json::{obj, Json};
use cfed_telemetry::{JsonlSink, Telemetry};
use cfed_workloads::Scale;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("report") => run_report(&argv[1..]),
        Some("profile") => run_profile(&argv[1..]),
        Some("bench") => run_bench(&argv[1..]),
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

/// The labelled fields of a cell key:
/// `{workload}|{technique}|{style}|{policy}|{max_insts}|s{seed}|t{trials}`,
/// with an optional trailing `atk:{archetype}` part on attack cells.
fn cell_key_parts(key: &str) -> Option<(String, String, String, String)> {
    let parts: Vec<&str> = key.split('|').collect();
    let plausible = parts.len() == 7 || (parts.len() == 8 && parts[7].starts_with("atk:"));
    if !plausible {
        return None;
    }
    Some((parts[0].to_string(), parts[1].to_string(), parts[2].to_string(), parts[3].to_string()))
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
    let mut baseline: std::collections::BTreeMap<(String, String), u64> =
        std::collections::BTreeMap::new();
    let mut techs: std::collections::BTreeMap<(String, String), Vec<(String, ProfTotals)>> =
        std::collections::BTreeMap::new();

    for (key, profile) in profiles {
        let Some((workload, technique, style, policy)) = cell_key_parts(key) else {
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
            if let Some(&base) = baseline.get(&(workload.clone(), style.clone())) {
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
fn telemetry_for(args: &cfed_runner::cli::Args, prefix: &str) -> Telemetry {
    if args.has("forensics") && args.get("events").filter(|s| !s.is_empty()).is_none() {
        fatal(
            prefix,
            "--forensics requires --events PATH (forensics bundles are emitted as events)"
                .to_string(),
        );
    }
    match args.get("events").filter(|s| !s.is_empty()) {
        Some(path) => {
            let path = PathBuf::from(path);
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| fatal(prefix, format!("creating {}: {e}", dir.display())));
            }
            Telemetry::to(Arc::new(JsonlSink::create(&path).unwrap_or_else(|e| fatal(prefix, e))))
        }
        None => Telemetry::off(),
    }
}

fn retry_policy_for(args: &cfed_runner::cli::Args, prefix: &str) -> RetryPolicy {
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

fn run_campaign(argv: &[String]) {
    let args = Parser::new("cfed-campaign", "full coverage + latency fault-injection study")
        .flag("trials", "N", "500", "injections per workload per configuration")
        .flag("threads", "N", "0", "worker threads (0 = all cores)")
        .flag("seed", "SEED", "3488423942", "campaign RNG seed")
        .flag("out", "DIR", "results/campaigns", "directory for the JSONL result stores")
        .flag(
            "run-id",
            "ID",
            "",
            "run identifier; re-use to resume (default: derived from seed/trials)",
        )
        .flag("events", "PATH", "", "write structured telemetry events (JSONL) to PATH")
        .flag("retries", "N", "3", "attempts per failed shard before recording it failed")
        .flag("backoff-ms", "MS", "25", "base backoff between shard retry attempts")
        .switch("progress", "print per-shard progress to stderr")
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
        .parse_from(argv);
    let die = |message: String| -> ! {
        eprintln!("cfed-campaign: {message}");
        std::process::exit(2);
    };
    let trials = args.get_u64("trials").unwrap_or_else(|e| die(e));
    let threads = args.get_usize("threads").unwrap_or_else(|e| die(e));
    let seed = args.get_u64("seed").unwrap_or_else(|e| die(e));
    let out = PathBuf::from(args.get("out").expect("has default"));
    let run_id = match args.get("run-id").filter(|s| !s.is_empty()) {
        Some(id) => id.to_string(),
        None => format!("campaign-s{seed}-t{trials}"),
    };
    let quiet = args.has("quiet");
    let telemetry = telemetry_for(&args, "cfed-campaign");
    let options = RunnerOptions {
        threads,
        max_shards: None,
        progress: args.has("progress"),
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

fn run_attacks(argv: &[String]) {
    let args = Parser::new(
        "cfed-campaign attack",
        "adversarial campaign: every attack archetype vs baseline + five techniques",
    )
    .flag("trials", "N", "300", "attacks per workload per archetype per configuration")
    .flag("threads", "N", "0", "worker threads (0 = all cores)")
    .flag("seed", "SEED", "3488423942", "campaign RNG seed")
    .flag("out", "DIR", "results/campaigns", "directory for the JSONL result store")
    .flag(
        "run-id",
        "ID",
        "",
        "run identifier; re-use to resume (default: derived from seed/trials)",
    )
    .flag(
        "workloads",
        "NAMES",
        "",
        "comma-separated campaign workload names (default: all six)",
    )
    .flag("events", "PATH", "", "write structured telemetry events (JSONL) to PATH")
    .flag("retries", "N", "3", "attempts per failed shard before recording it failed")
    .flag("backoff-ms", "MS", "25", "base backoff between shard retry attempts")
    .switch("progress", "print per-shard progress to stderr")
    .switch("quiet", "suppress stderr progress output")
    .switch(
        "forensics",
        "re-mount SDC/timeout attacks with a tracer and emit attack_forensics events (use with --events)",
    )
    .switch(
        "no-snapshots",
        "disable fast-forward snapshots; every trial replays its attack-free prefix from scratch",
    )
    .parse_from(argv);
    let die = |message: String| -> ! {
        eprintln!("cfed-campaign attack: {message}");
        std::process::exit(2);
    };
    let trials = args.get_u64("trials").unwrap_or_else(|e| die(e));
    let threads = args.get_usize("threads").unwrap_or_else(|e| die(e));
    let seed = args.get_u64("seed").unwrap_or_else(|e| die(e));
    let out = PathBuf::from(args.get("out").expect("has default"));
    let run_id = match args.get("run-id").filter(|s| !s.is_empty()) {
        Some(id) => id.to_string(),
        None => format!("attack-s{seed}-t{trials}"),
    };
    let workloads =
        parse_workloads(args.get("workloads").unwrap_or_default()).unwrap_or_else(|e| die(e));
    let quiet = args.has("quiet");
    let options = RunnerOptions {
        threads,
        max_shards: None,
        progress: args.has("progress"),
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

fn run_coordinate(argv: &[String]) {
    let args = Parser::new(
        "cfed-campaign serve coordinate",
        "lease the campaign to worker processes over TCP (single store writer)",
    )
    .flag("trials", "N", "500", "injections per workload per configuration")
    .flag("seed", "SEED", "3488423942", "campaign RNG seed")
    .flag("out", "DIR", "results/campaigns", "directory for the JSONL result stores")
    .flag(
        "run-id",
        "ID",
        "",
        "run identifier; re-use to resume (default: derived from seed/trials)",
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
    .flag("retries", "N", "3", "attempts per unit before recording it failed")
    .flag("backoff-ms", "MS", "25", "base backoff between unit retry attempts")
    .flag("events", "PATH", "", "write structured telemetry events (JSONL) to PATH")
    .flag(
        "workloads",
        "NAMES",
        "",
        "comma-separated workload names for --attacks (default: all six)",
    )
    .switch("attacks", "run the adversarial attack study instead of coverage + latency")
    .switch("quiet", "suppress stderr progress output")
    .parse_from(argv);
    let die = |message: String| -> ! {
        eprintln!("cfed-campaign serve coordinate: {message}");
        std::process::exit(2);
    };
    let trials = args.get_u64("trials").unwrap_or_else(|e| die(e));
    let seed = args.get_u64("seed").unwrap_or_else(|e| die(e));
    let out = PathBuf::from(args.get("out").expect("has default"));
    let run_id = match args.get("run-id").filter(|s| !s.is_empty()) {
        Some(id) => id.to_string(),
        None => format!("campaign-s{seed}-t{trials}"),
    };
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
    let phases = if args.has("attacks") {
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

/// Tolerated slowdown against the committed baseline before the perf gate
/// fails: the current snapshots-over-scratch speedup must stay above 75%
/// of the baseline's. The gate compares *speedups*, not absolute
/// trials/sec — both passes run on the same host in the same invocation,
/// so the ratio self-normalizes away host speed, turbo state and CI-runner
/// contention that absolute rates would false-positive on.
const BASELINE_TOLERANCE_PCT: u64 = 25;

/// Hard budget for what the profiler-capable dispatch may cost when no
/// profiler is attached, in percent of direct interpreter throughput. Both
/// laps run in the same invocation, so this gate needs no committed
/// baseline and fails the bench run outright when exceeded.
const PROFILER_OFF_BUDGET_PCT: f64 = 1.0;

/// The fixed-seed smoke matrix the perf gate times: two workloads under
/// the uninstrumented baseline and EdgCF. Small enough for CI, large
/// enough that prefix replay dominates the from-scratch path.
fn bench_matrix(trials: u64, seed: u64) -> CampaignMatrix {
    CampaignMatrix {
        workloads: vec![
            WorkloadSpec::named("164.gzip", Scale::Test),
            WorkloadSpec::named("181.mcf", Scale::Test),
        ],
        techniques: vec![None, Some(TechniqueKind::EdgCf)],
        styles: vec![UpdateStyle::CMov],
        policies: vec![CheckPolicy::AllBb],
        trials,
        seed,
        attacks: vec![None],
    }
}

/// Interpreter-throughput measurement over the bench workloads: guest MIPS
/// with the raw fetch–decode–execute loop versus the pre-decoded engine.
struct InterpPerf {
    raw_mips: f64,
    decoded_mips: f64,
    /// Decoded-over-raw throughput ratio.
    speedup: f64,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

/// Times the native interpreter on the bench workloads with the decode
/// cache off (per-instruction fetch+decode) and on (decode-once lines,
/// fused bursts), checking both paths retire bit-identical runs.
///
/// Each configuration is timed `REPS` times after a warm-up run and the
/// best time kept: the timed regions are sub-millisecond, so any scheduler
/// preemption on a shared host would otherwise dominate the measurement.
fn bench_interp() -> Result<InterpPerf, String> {
    const WARMUP: usize = 1;
    const REPS: usize = 7;
    let specs =
        [WorkloadSpec::named("164.gzip", Scale::Test), WorkloadSpec::named("181.mcf", Scale::Test)];
    let mut raw = (0u64, 0.0f64); // (guest insts, best-case seconds)
    let mut decoded = (0u64, 0.0f64);
    let (mut hits, mut misses, mut invalidations) = (0u64, 0u64, 0u64);
    for spec in &specs {
        let image = spec.image()?;
        let mut reference = None;
        for use_cache in [false, true] {
            let mut best = f64::INFINITY;
            let mut insts = 0;
            for rep in 0..WARMUP + REPS {
                let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
                m.set_decode_cache(use_cache);
                let timer = std::time::Instant::now();
                let exit = m.run(u64::MAX);
                let secs = timer.elapsed().as_secs_f64();
                let stats = m.cpu.stats();
                let observed = (exit, m.cpu.take_output(), stats.insts, stats.cycles);
                match &reference {
                    None => reference = Some(observed),
                    Some(r) if *r != observed => {
                        return Err(format!("interpreter divergence on {}", spec.key()))
                    }
                    Some(_) => {}
                }
                insts = stats.insts;
                if rep >= WARMUP {
                    best = best.min(secs);
                }
                if use_cache && rep == WARMUP + REPS - 1 {
                    let s = m.decode_cache_stats().expect("cache enabled");
                    hits += s.hits;
                    misses += s.misses;
                    invalidations += s.invalidations;
                }
            }
            let acc = if use_cache { &mut decoded } else { &mut raw };
            acc.0 += insts;
            acc.1 += best;
            if std::env::var_os("CFED_BENCH_VERBOSE").is_some() {
                eprintln!(
                    "cfed-campaign bench: interp     {} {} {:.1} MIPS",
                    spec.key(),
                    if use_cache { "decoded" } else { "raw" },
                    insts as f64 / best / 1e6
                );
            }
        }
    }
    let mips = |(insts, secs): (u64, f64)| {
        if secs > 0.0 {
            insts as f64 / secs / 1e6
        } else {
            0.0
        }
    };
    let (raw_mips, decoded_mips) = (mips(raw), mips(decoded));
    Ok(InterpPerf {
        raw_mips,
        decoded_mips,
        speedup: if raw_mips > 0.0 { decoded_mips / raw_mips } else { 0.0 },
        hits,
        misses,
        invalidations,
    })
}

/// Hard floor on native-JIT-over-decoded-interpreter guest throughput, in
/// milli-ratio units (2000 = 2.00x). Like the profiler-off gate this needs
/// no committed baseline — both laps run in the same invocation on the
/// same host, so the ratio self-normalizes — and a native backend that
/// cannot double the decoded interpreter is a regression outright.
const NATIVE_MIN_RATIO_MILLI: u64 = 2000;

/// Native-backend throughput measurement over the bench workloads.
struct NativePerf {
    native_mips: f64,
    decoded_mips: f64,
    /// Native-over-decoded-interpreter throughput ratio.
    over_decoded: f64,
}

/// Scale factor for the native laps. The @test instances retire ~10–30k
/// guest instructions, so the JIT's fixed per-run costs (code-buffer
/// mapping, block compilation) dominate and the measurement says nothing
/// about emitted-code throughput; at this scale each lap retires a few
/// million instructions and translation amortizes to noise, which is the
/// regime the backend exists for.
const NATIVE_BENCH_SCALE: u64 = 400;

/// Times the DBT's x86-64 native backend against the decoded interpreter
/// on the bench workloads at [`NATIVE_BENCH_SCALE`] (uninstrumented
/// baseline configuration; translation included and amortized). Every
/// native lap must retire bit-identically to a fused-interpreter DBT
/// reference run, and every interpreter lap must produce the same guest
/// output. Returns `None` where the native backend is unavailable
/// (non-x86-64 hosts, `CFED_NO_NATIVE=1`) so the record and gates degrade
/// gracefully. Laps interleave (alternating order) with the same
/// best-of-`REPS` discipline as [`bench_profiler_off_once`]; both MIPS
/// figures use the interpreter's guest instruction count as numerator, so
/// the ratio is a pure time ratio over identical guest work (the DBT's
/// own counter includes translation glue and would flatter it).
fn bench_native() -> Result<Option<NativePerf>, String> {
    if !cfed_dbt::native_enabled() {
        return Ok(None);
    }
    const WARMUP: usize = 1;
    const REPS: usize = 5;
    let scale = Scale::Custom(NATIVE_BENCH_SCALE);
    let specs = [WorkloadSpec::named("164.gzip", scale), WorkloadSpec::named("181.mcf", scale)];
    let cfg = RunConfig { max_insts: u64::MAX, ..RunConfig::baseline() };
    let mut native = (0u64, 0.0f64); // (guest insts, best-case seconds)
    let mut decoded = (0u64, 0.0f64);
    for spec in &specs {
        let image = spec.image()?;
        let reference = run_dbt_native_enabled(&image, &cfg, false);
        let mut best = [f64::INFINITY; 2]; // [decoded, native]
        let mut guest_insts = 0;
        for rep in 0..WARMUP + REPS {
            let order = if rep % 2 == 0 { [false, true] } else { [true, false] };
            for use_native in order {
                if use_native {
                    let timer = std::time::Instant::now();
                    let outcome = run_dbt_native_enabled(&image, &cfg, true);
                    let secs = timer.elapsed().as_secs_f64();
                    if outcome != reference {
                        return Err(format!("native-backend divergence on {}", spec.key()));
                    }
                    if rep >= WARMUP {
                        best[1] = best[1].min(secs);
                    }
                } else {
                    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
                    let timer = std::time::Instant::now();
                    let _ = m.run(u64::MAX);
                    let secs = timer.elapsed().as_secs_f64();
                    if m.cpu.take_output() != reference.output {
                        return Err(format!("native-vs-interpreter divergence on {}", spec.key()));
                    }
                    guest_insts = m.cpu.stats().insts;
                    if rep >= WARMUP {
                        best[0] = best[0].min(secs);
                    }
                }
            }
        }
        decoded.0 += guest_insts;
        decoded.1 += best[0];
        native.0 += guest_insts;
        native.1 += best[1];
        if std::env::var_os("CFED_BENCH_VERBOSE").is_some() {
            eprintln!(
                "cfed-campaign bench: native     {} decoded {:.1} MIPS, native {:.1} MIPS",
                spec.key(),
                guest_insts as f64 / best[0] / 1e6,
                guest_insts as f64 / best[1] / 1e6
            );
        }
    }
    let mips = |(insts, secs): (u64, f64)| {
        if secs > 0.0 {
            insts as f64 / secs / 1e6
        } else {
            0.0
        }
    };
    let (native_mips, decoded_mips) = (mips(native), mips(decoded));
    Ok(Some(NativePerf {
        native_mips,
        decoded_mips,
        over_decoded: if decoded_mips > 0.0 { native_mips / decoded_mips } else { 0.0 },
    }))
}

/// Hard floor on trace-tier-over-native-tier-1 guest throughput on the
/// hot-loop workload, in milli-ratio units (1200 = 1.20x). Self-normalizing
/// like the native floor: both laps run in the same invocation on the same
/// host, under the same native backend — the ratio isolates exactly what
/// the optimizing tier buys (measured ~1.4x; the floor leaves headroom for
/// runner jitter without ever accepting a tier that does not pay for
/// itself).
const TRACE_MIN_RATIO_MILLI: u64 = 1200;

/// Trace-tier throughput measurement.
struct TracePerf {
    trace_mips: f64,
    native_mips: f64,
    /// Trace-tier-over-native-tier-1 throughput ratio.
    over_native: f64,
}

/// The trace-tier bench workload: a hot multi-block loop nest, the regime
/// profile-guided trace formation exists for. Real campaign workloads
/// spread time across warm-but-not-hot code and measure the tier at only
/// ~1.0–1.1x; this loop spends its life inside a few superblocks, so the
/// measurement (and its regression gate) tracks the quality of the trace
/// pipeline — check hoisting, signature coalescing, dispatch elision —
/// rather than workload mix.
const TRACE_BENCH_SOURCE: &str = r#"
    fn main() {
        let outer = 0;
        let acc = 3;
        while (outer < 200) {
            let i = 0;
            while (i < 5000) {
                if (i % 4 == 1) { acc = acc * 2 - i; } else { acc = acc + i; }
                if (acc > 1000000) { acc = acc - 1000000; }
                i = i + 1;
            }
            outer = outer + 1;
        }
        out(acc);
    }
"#;

/// Times the profile-guided trace tier against tier-1 native execution on
/// [`TRACE_BENCH_SOURCE`] under EdgCF/CMOVcc (ALLBB policy) — the fully
/// instrumented configuration, where the tier's verified check hoisting
/// and signature-update coalescing have instructions to remove. Both laps
/// run the native backend; they differ only in tier formation. Every
/// tiered native lap must retire bit-identically to a tiered
/// fused-interpreter reference, and the tier-1 lap must produce the same
/// guest output. Returns `None` where the native backend or the tier is
/// unavailable (`CFED_NO_NATIVE=1`, `CFED_NO_TIER=1`, non-x86-64 hosts) so
/// the record and gates degrade gracefully. Both MIPS figures use the
/// tier-1 lap's retired guest instruction count as numerator, so the ratio
/// is a pure time ratio over identical guest work (the tiered run retires
/// fewer instructions — that being the point — and crediting it with its
/// own smaller count would understate the win).
fn bench_trace() -> Result<Option<TracePerf>, String> {
    if !cfed_dbt::native_enabled() || !cfed_dbt::tier_enabled() {
        return Ok(None);
    }
    const WARMUP: usize = 1;
    const REPS: usize = 5;
    let spec = WorkloadSpec::inline("trace-hot-loop", TRACE_BENCH_SOURCE);
    let image = spec.image()?;
    let cfg = RunConfig {
        style: UpdateStyle::CMov,
        max_insts: u64::MAX,
        ..RunConfig::technique(TechniqueKind::EdgCf)
    };
    let threshold = cfed_dbt::DEFAULT_COMPILE_THRESHOLD;
    let reference = run_dbt_tiered_enabled(&image, &cfg, threshold, false, true);
    if reference.dbt.traces == 0 {
        return Err("trace bench workload formed no traces".to_string());
    }
    let mut best = [f64::INFINITY; 2]; // [tier-1 native, trace tier]
    let mut guest_insts = 0;
    for rep in 0..WARMUP + REPS {
        let order = if rep % 2 == 0 { [false, true] } else { [true, false] };
        for use_tier in order {
            let timer = std::time::Instant::now();
            let outcome = run_dbt_tiered_enabled(&image, &cfg, threshold, true, use_tier);
            let secs = timer.elapsed().as_secs_f64();
            if use_tier {
                if outcome != reference {
                    return Err("trace-tier native divergence from fused reference".to_string());
                }
            } else {
                if outcome.output != reference.output {
                    return Err("tier-1 native divergence on trace bench".to_string());
                }
                guest_insts = outcome.insts;
            }
            if rep >= WARMUP {
                let slot = usize::from(use_tier);
                best[slot] = best[slot].min(secs);
            }
        }
    }
    if std::env::var_os("CFED_BENCH_VERBOSE").is_some() {
        eprintln!(
            "cfed-campaign bench: trace      tier-1 {:.1} MIPS, trace {:.1} MIPS ({} traces)",
            guest_insts as f64 / best[0] / 1e6,
            guest_insts as f64 / best[1] / 1e6,
            reference.dbt.traces
        );
    }
    let mips = |secs: f64| {
        if secs > 0.0 {
            guest_insts as f64 / secs / 1e6
        } else {
            0.0
        }
    };
    let (native_mips, trace_mips) = (mips(best[0]), mips(best[1]));
    Ok(Some(TracePerf {
        trace_mips,
        native_mips,
        over_native: if native_mips > 0.0 { trace_mips / native_mips } else { 0.0 },
    }))
}

/// Throughput of the profiler-capable dispatch with no profiler attached,
/// against the decoded loop invoked directly.
struct ProfilerOffPerf {
    dispatch_mips: f64,
    direct_mips: f64,
    /// How much guest throughput the *ability* to profile costs when
    /// profiling is off, in percent (floored at 0 — run-to-run jitter can
    /// make the dispatch path measure faster).
    overhead_pct: f64,
}

/// Measures what having the profiler hook in the dispatch path costs when
/// no profiler is attached: `Machine::run` (which checks for a profiler
/// once per run and falls through to the unprofiled fused loop) versus
/// calling `Cpu::run_decoded` directly on the same image. Both laps are
/// the same monomorphized interpreter; the gate asserts the profiler
/// plumbing stays off the hot path. Same best-of-`REPS` timing discipline
/// as [`bench_interp`], and the laps must retire bit-identical runs.
///
/// A measurement that lands at or above the gate budget is re-measured
/// once and the lower overhead kept: the paired laps differ by well under
/// 0.1% at steady state, but the first measurement of a freshly built
/// binary occasionally reads 1–2% high (cold page cache, frequency
/// ramp-up). A genuine hot-path regression reads high in both passes and
/// still trips the gate.
fn bench_profiler_off() -> Result<ProfilerOffPerf, String> {
    let first = bench_profiler_off_once()?;
    if first.overhead_pct < PROFILER_OFF_BUDGET_PCT {
        return Ok(first);
    }
    let second = bench_profiler_off_once()?;
    Ok(if second.overhead_pct < first.overhead_pct { second } else { first })
}

/// One full paired measurement (see [`bench_profiler_off`]).
fn bench_profiler_off_once() -> Result<ProfilerOffPerf, String> {
    const WARMUP: usize = 1;
    const REPS: usize = 7;
    let specs =
        [WorkloadSpec::named("164.gzip", Scale::Test), WorkloadSpec::named("181.mcf", Scale::Test)];
    let mut dispatch = (0u64, 0.0f64); // (guest insts, best-case seconds)
    let mut direct = (0u64, 0.0f64);
    for spec in &specs {
        let image = spec.image()?;
        let mut reference = None;
        let mut best = [f64::INFINITY; 2]; // [direct, dispatch]
        let mut insts = 0;
        // The laps interleave (alternating order each rep) so systematic
        // drift across the measurement — turbo ramp-up, cold page cache —
        // lands on both sides instead of biasing whichever ran second.
        for rep in 0..WARMUP + REPS {
            let order = if rep % 2 == 0 { [false, true] } else { [true, false] };
            for use_dispatch in order {
                let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
                let timer = std::time::Instant::now();
                let exit = if use_dispatch {
                    m.run(u64::MAX)
                } else {
                    let mut ic = m.icache.take().expect("decode cache attached by default");
                    m.cpu.run_decoded(&mut m.mem, &mut ic, u64::MAX)
                };
                let secs = timer.elapsed().as_secs_f64();
                let stats = m.cpu.stats();
                let observed = (exit, m.cpu.take_output(), stats.insts, stats.cycles);
                match &reference {
                    None => reference = Some(observed),
                    Some(r) if *r != observed => {
                        return Err(format!("dispatch divergence on {}", spec.key()))
                    }
                    Some(_) => {}
                }
                insts = stats.insts;
                if rep >= WARMUP {
                    let slot = &mut best[usize::from(use_dispatch)];
                    *slot = slot.min(secs);
                }
            }
        }
        direct.0 += insts;
        direct.1 += best[0];
        dispatch.0 += insts;
        dispatch.1 += best[1];
    }
    let mips = |(insts, secs): (u64, f64)| {
        if secs > 0.0 {
            insts as f64 / secs / 1e6
        } else {
            0.0
        }
    };
    let (dispatch_mips, direct_mips) = (mips(dispatch), mips(direct));
    let overhead_pct = if direct_mips > 0.0 {
        (100.0 * (direct_mips - dispatch_mips) / direct_mips).max(0.0)
    } else {
        0.0
    };
    Ok(ProfilerOffPerf { dispatch_mips, direct_mips, overhead_pct })
}

fn perf_record(perf: &RunPerf) -> Json {
    obj(vec![
        ("wall_ms", Json::UInt(perf.wall_ms)),
        ("executed_trials", Json::UInt(perf.executed_trials)),
        ("trials_per_sec_milli", Json::UInt((perf.trials_per_sec * 1000.0).round() as u64)),
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
    ])
}

fn run_bench(argv: &[String]) {
    let args = Parser::new(
        "cfed-campaign bench",
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
    .parse_from(argv);
    let die = |message: String| -> ! {
        eprintln!("cfed-campaign bench: {message}");
        std::process::exit(2);
    };
    let trials = args.get_u64("trials").unwrap_or_else(|e| die(e));
    let threads = args.get_usize("threads").unwrap_or_else(|e| die(e));
    let seed = args.get_u64("seed").unwrap_or_else(|e| die(e));
    let quiet = args.has("quiet");
    let out = PathBuf::from(args.get("out").expect("has default"));

    let matrix = bench_matrix(trials, seed);
    let cells = matrix.cells();
    let shards = CampaignMatrix::shards(&cells).len();
    if !quiet {
        eprintln!(
            "cfed-campaign bench: {} cells, {shards} shards, {} trials/cell, seed {seed}",
            cells.len(),
            trials
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
                "cfed-campaign bench: {label:<9} {:>7.1} trials/s ({} trials in {} ms)",
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

    let interp = bench_interp().unwrap_or_else(|e| die(e));
    if !quiet {
        eprintln!(
            "cfed-campaign bench: interp     raw {:.1} MIPS, decoded {:.1} MIPS ({:.2}x)",
            interp.raw_mips, interp.decoded_mips, interp.speedup
        );
    }
    let native = bench_native().unwrap_or_else(|e| die(e));
    if !quiet {
        match &native {
            Some(n) => eprintln!(
                "cfed-campaign bench: native     {:.1} MIPS vs decoded {:.1} MIPS ({:.2}x)",
                n.native_mips, n.decoded_mips, n.over_decoded
            ),
            None => eprintln!("cfed-campaign bench: native     backend unavailable on this host"),
        }
    }
    let trace = bench_trace().unwrap_or_else(|e| die(e));
    if !quiet {
        match &trace {
            Some(t) => eprintln!(
                "cfed-campaign bench: trace      {:.1} MIPS vs tier-1 native {:.1} MIPS ({:.2}x)",
                t.trace_mips, t.native_mips, t.over_native
            ),
            None => eprintln!("cfed-campaign bench: trace      tier unavailable on this host"),
        }
    }
    let prof_off = bench_profiler_off().unwrap_or_else(|e| die(e));
    if !quiet {
        eprintln!(
            "cfed-campaign bench: prof-off   dispatch {:.1} MIPS, direct {:.1} MIPS ({:.2}% \
             overhead)",
            prof_off.dispatch_mips, prof_off.direct_mips, prof_off.overhead_pct
        );
    }

    let speedup = if scratch.perf.trials_per_sec > 0.0 {
        snap.perf.trials_per_sec / scratch.perf.trials_per_sec
    } else {
        0.0
    };
    // Same source and fallback as `resolved_threads`, so the recorded pair
    // is always consistent (`threads_resolved <= cpus`); the old record
    // could claim 2 resolved workers on a 1-CPU host.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let resolved = RunnerOptions { threads, ..Default::default() }.resolved_threads();
    let record = obj(vec![
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
                ("shards", Json::UInt(shards as u64)),
                ("trials_per_cell", Json::UInt(trials)),
                ("seed", Json::UInt(seed)),
            ]),
        ),
        ("snapshots", perf_record(&snap.perf)),
        ("scratch", perf_record(&scratch.perf)),
        ("speedup_milli", Json::UInt((speedup * 1000.0).round() as u64)),
        (
            "interp",
            obj(vec![
                ("raw_mips_milli", Json::UInt((interp.raw_mips * 1000.0).round() as u64)),
                ("decoded_mips_milli", Json::UInt((interp.decoded_mips * 1000.0).round() as u64)),
                ("decode_hits", Json::UInt(interp.hits)),
                ("decode_misses", Json::UInt(interp.misses)),
                ("decode_invalidations", Json::UInt(interp.invalidations)),
            ]),
        ),
        ("interp_speedup_milli", Json::UInt((interp.speedup * 1000.0).round() as u64)),
        (
            "profiler_off_overhead_pct_milli",
            Json::UInt((prof_off.overhead_pct * 1000.0).round() as u64),
        ),
    ]);
    // The native keys are present only where the backend ran: records from
    // non-x86-64 hosts stay valid, and readers treat the absent keys as
    // "not measured" rather than zero.
    let record = match &native {
        Some(n) => {
            let mut with_native = match record {
                Json::Obj(pairs) => pairs,
                _ => unreachable!("record is an object"),
            };
            with_native.push((
                "native_mips_milli".to_string(),
                Json::UInt((n.native_mips * 1000.0).round() as u64),
            ));
            with_native.push((
                "native_over_decoded_milli".to_string(),
                Json::UInt((n.over_decoded * 1000.0).round() as u64),
            ));
            Json::Obj(with_native)
        }
        None => record,
    };
    // Likewise for the trace-tier keys: absent where the tier (or the
    // native backend underneath it) could not run.
    let record = match &trace {
        Some(t) => {
            let mut with_trace = match record {
                Json::Obj(pairs) => pairs,
                _ => unreachable!("record is an object"),
            };
            with_trace.push((
                "trace_mips_milli".to_string(),
                Json::UInt((t.trace_mips * 1000.0).round() as u64),
            ));
            with_trace.push((
                "trace_over_native_milli".to_string(),
                Json::UInt((t.over_native * 1000.0).round() as u64),
            ));
            Json::Obj(with_trace)
        }
        None => record,
    };
    std::fs::write(&out, record.render() + "\n")
        .unwrap_or_else(|e| die(format!("writing {}: {e}", out.display())));
    println!(
        "bench: snapshots {:.1} trials/s, scratch {:.1} trials/s, speedup {speedup:.2}x -> {}",
        snap.perf.trials_per_sec,
        scratch.perf.trials_per_sec,
        out.display()
    );
    println!(
        "bench: interpreter raw {:.1} MIPS, decoded {:.1} MIPS, speedup {:.2}x",
        interp.raw_mips, interp.decoded_mips, interp.speedup
    );
    // Unlike the two speedup gates, the profiler-off gate needs no committed
    // baseline: both laps run in this invocation on this host, so the
    // overhead ratio is self-normalizing and the budget is absolute.
    if prof_off.overhead_pct >= PROFILER_OFF_BUDGET_PCT {
        eprintln!(
            "cfed-campaign bench: PERF REGRESSION — profiler-capable dispatch costs {:.2}% \
             interpreter throughput with profiling off (budget <{PROFILER_OFF_BUDGET_PCT}%)",
            prof_off.overhead_pct
        );
        std::process::exit(1);
    }
    println!(
        "bench: profiler off costs {:.2}% interpreter throughput (budget <{}%)",
        prof_off.overhead_pct, PROFILER_OFF_BUDGET_PCT
    );
    // The native floor is likewise self-normalizing (native and decoded
    // laps share the invocation), so it gates absolutely wherever the
    // backend runs at all.
    match &native {
        Some(n) => {
            let ratio_milli = (n.over_decoded * 1000.0).round() as u64;
            if ratio_milli < NATIVE_MIN_RATIO_MILLI {
                eprintln!(
                    "cfed-campaign bench: PERF REGRESSION — native backend is only {:.2}x the \
                     decoded interpreter (floor {:.2}x)",
                    n.over_decoded,
                    NATIVE_MIN_RATIO_MILLI as f64 / 1000.0
                );
                std::process::exit(1);
            }
            println!(
                "bench: native backend {:.1} MIPS, {:.2}x over decoded (floor {:.2}x)",
                n.native_mips,
                n.over_decoded,
                NATIVE_MIN_RATIO_MILLI as f64 / 1000.0
            );
        }
        None => println!("bench: native backend unavailable on this host; native gate skipped"),
    }
    // The trace-tier floor shares the self-normalizing structure: both laps
    // run in this invocation under the same native backend, so the ratio
    // gates absolutely wherever the tier runs at all.
    match &trace {
        Some(t) => {
            let ratio_milli = (t.over_native * 1000.0).round() as u64;
            if ratio_milli < TRACE_MIN_RATIO_MILLI {
                eprintln!(
                    "cfed-campaign bench: PERF REGRESSION — trace tier is only {:.2}x tier-1 \
                     native on the hot-loop workload (floor {:.2}x)",
                    t.over_native,
                    TRACE_MIN_RATIO_MILLI as f64 / 1000.0
                );
                std::process::exit(1);
            }
            println!(
                "bench: trace tier {:.1} MIPS, {:.2}x over tier-1 native (floor {:.2}x)",
                t.trace_mips,
                t.over_native,
                TRACE_MIN_RATIO_MILLI as f64 / 1000.0
            );
        }
        None => println!("bench: trace tier unavailable on this host; trace gate skipped"),
    }

    if let Some(baseline_path) = args.get("baseline").filter(|s| !s.is_empty()) {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| die(format!("reading baseline {baseline_path}: {e}")));
        let baseline = cfed_telemetry::json::parse(&text)
            .unwrap_or_else(|e| die(format!("parsing baseline {baseline_path}: {e}")));
        let gate = |name: &str, current_milli: u64, base_milli: u64| {
            let floor = base_milli * (100 - BASELINE_TOLERANCE_PCT) / 100;
            if current_milli < floor {
                eprintln!(
                    "cfed-campaign bench: PERF REGRESSION — {name} {:.2}x is more than {}% below \
                     the baseline {:.2}x",
                    current_milli as f64 / 1000.0,
                    BASELINE_TOLERANCE_PCT,
                    base_milli as f64 / 1000.0
                );
                std::process::exit(1);
            }
            println!(
                "bench: {name} within budget of baseline {:.2}x (floor {:.2}x)",
                base_milli as f64 / 1000.0,
                floor as f64 / 1000.0
            );
        };
        let base_speedup = baseline
            .get("speedup_milli")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| die(format!("baseline {baseline_path} has no speedup_milli")));
        gate("snapshot speedup", (speedup * 1000.0).round() as u64, base_speedup);
        // Records predating schema v2 have no interpreter section; the gate
        // engages once a v2 baseline is committed.
        match baseline.get("interp_speedup_milli").and_then(Json::as_u64) {
            Some(base_interp) => {
                gate("interp speedup", (interp.speedup * 1000.0).round() as u64, base_interp)
            }
            None => println!("bench: baseline has no interp_speedup_milli; interp gate skipped"),
        }
        // Same pattern for the native ratio: records predating the native
        // backend (or written on non-x86-64 hosts) simply lack the key.
        match (baseline.get("native_over_decoded_milli").and_then(Json::as_u64), &native) {
            (Some(base_native), Some(n)) => {
                gate("native speedup", (n.over_decoded * 1000.0).round() as u64, base_native)
            }
            (Some(_), None) => {
                println!("bench: native backend unavailable on this host; native gate skipped")
            }
            (None, _) => {
                println!("bench: baseline has no native_over_decoded_milli; native gate skipped")
            }
        }
        // And the trace-tier ratio: absent from records written before the
        // tier existed or on hosts where it could not run.
        match (baseline.get("trace_over_native_milli").and_then(Json::as_u64), &trace) {
            (Some(base_trace), Some(t)) => {
                gate("trace speedup", (t.over_native * 1000.0).round() as u64, base_trace)
            }
            (Some(_), None) => {
                println!("bench: trace tier unavailable on this host; trace gate skipped")
            }
            (None, _) => {
                println!("bench: baseline has no trace_over_native_milli; trace gate skipped")
            }
        }
    }
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
            let s = report.category(*c);
            slot.detected_check += s.detected_check;
            slot.detected_hw += s.detected_hw;
            slot.other_fault += s.other_fault;
            slot.benign += s.benign;
            slot.sdc += s.sdc;
            slot.timeout += s.timeout;
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
}
