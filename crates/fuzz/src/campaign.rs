//! Campaign orchestration: the deterministic fuzzing loop.
//!
//! Cases are numbered `0..iters`; case `i`'s program is a pure function of
//! `(campaign seed, i)` via [`schedule_seed`], so the whole campaign is
//! reproducible from its seed. Evaluation fans out over the
//! `cfed-runner` worker pool in fixed-size batches, then results are
//! folded strictly in index order — coverage retention, shrinking and the
//! report text never depend on thread count or scheduling. The only
//! nondeterminism permitted is *how many* batches a `--time-budget` run
//! completes; `--iters` runs are byte-reproducible.

use crate::attack::{attack_sweep, finding_reproduces, AttackOutcome, ATTACK_TRIALS};
use crate::corpus::{write_regression, RegressionFile, RegressionMode};
use crate::coverage::{fingerprint, CoverageMap, Fingerprint};
use crate::detect::{detection_sweep, violation_reproduces, DetectOutcome};
use crate::gen::{generate, schedule_seed, GeneratedProgram, Tier};
use crate::oracle::{pair_diverges, run_oracle, Divergence};
use crate::shrink::shrink_image;
use cfed_runner::parallel_map;
use cfed_telemetry::metrics::Counter;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Process-wide tallies, exported telemetry-style so long campaigns can be
/// observed from anywhere in the process.
pub mod counters {
    use super::Counter;

    /// Programs generated and run through the oracle.
    pub static CASES: Counter = Counter::new();
    /// Differential divergences observed (before shrinking).
    pub static DIVERGENCES: Counter = Counter::new();
    /// Detection-guarantee SDC violations observed.
    pub static SDC_VIOLATIONS: Counter = Counter::new();
    /// Cross-engine disagreements under attack schedules.
    pub static ATTACK_DIVERGENCES: Counter = Counter::new();
    /// Programs retained by coverage feedback.
    pub static RETAINED: Counter = Counter::new();
}

/// What the campaign checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Differential oracle only.
    Diff,
    /// Detection-guarantee sweep only.
    Detect,
    /// Both per case.
    Both,
}

impl Mode {
    /// Stable name for reports and CLI parsing.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Diff => "diff",
            Mode::Detect => "detect",
            Mode::Both => "both",
        }
    }

    /// Parses [`Mode::name`] back.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "diff" => Some(Mode::Diff),
            "detect" => Some(Mode::Detect),
            "both" => Some(Mode::Both),
            _ => None,
        }
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of cases (ignored when `time_budget` is set and runs out
    /// first).
    pub iters: u64,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Per-backend instruction budget.
    pub max_insts: u64,
    /// What to check.
    pub mode: Mode,
    /// Generator tiers, alternated by case index.
    pub tiers: Vec<Tier>,
    /// Branch sites swept per program in detect mode (a cap; the report
    /// records how many sites each capped program actually had).
    pub detect_branches: u64,
    /// Additionally mount the deterministic adversarial attack schedule on
    /// every case and diff the engine pairs (`--attacks`).
    pub attacks: bool,
    /// Where to write minimized reproducers (`None` = don't write).
    pub corpus_dir: Option<PathBuf>,
    /// Optional wall-clock budget checked between batches.
    pub time_budget: Option<Duration>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 0,
            iters: 64,
            threads: 0,
            max_insts: 2_000_000,
            mode: Mode::Both,
            tiers: vec![Tier::MiniC, Tier::Visa],
            detect_branches: 4,
            attacks: false,
            corpus_dir: None,
            time_budget: None,
        }
    }
}

/// Campaign outcome.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Deterministic report text (what CI diffs across thread counts).
    pub text: String,
    /// Cases evaluated.
    pub cases: u64,
    /// Cases whose oracle diverged.
    pub divergences: u64,
    /// Detection-guarantee SDC violations.
    pub sdc_violations: u64,
    /// Cross-engine disagreements under attack schedules.
    pub attack_divergences: u64,
    /// Cases retained by coverage.
    pub retained: u64,
    /// Distinct behaviour bits covered.
    pub coverage_bits: u32,
    /// Reproducer files written.
    pub written: Vec<PathBuf>,
}

impl FuzzReport {
    /// `true` when no divergence, no SDC violation and no attack-schedule
    /// disagreement was seen.
    pub fn clean(&self) -> bool {
        self.divergences == 0 && self.sdc_violations == 0 && self.attack_divergences == 0
    }
}

/// One case's evaluation — a pure function of its seed.
struct CaseResult {
    seed: u64,
    tier: Tier,
    prog: GeneratedProgram,
    divergence: Option<Divergence>,
    fp: Fingerprint,
    detect: Option<DetectOutcome>,
    attack: Option<AttackOutcome>,
}

fn evaluate_case(cfg: &FuzzConfig, index: u64) -> CaseResult {
    let seed = schedule_seed(cfg.seed, index);
    let tier = cfg.tiers[(index as usize) % cfg.tiers.len()];
    let prog = generate(seed, tier);
    counters::CASES.inc();
    let (divergence, fp) = if matches!(cfg.mode, Mode::Diff | Mode::Both) {
        let report = run_oracle(&prog, cfg.max_insts);
        let fp = fingerprint(&prog, &report, cfg.max_insts);
        (report.divergence, fp)
    } else {
        (None, Fingerprint::default())
    };
    let detect = matches!(cfg.mode, Mode::Detect | Mode::Both)
        .then(|| detection_sweep(&prog.image, cfg.detect_branches, cfg.max_insts));
    let attack = cfg.attacks.then(|| attack_sweep(&prog.image, seed, ATTACK_TRIALS, cfg.max_insts));
    if divergence.is_some() {
        counters::DIVERGENCES.inc();
    }
    if let Some(d) = &detect {
        counters::SDC_VIOLATIONS.add(d.violations.len() as u64);
    }
    if let Some(a) = &attack {
        counters::ATTACK_DIVERGENCES.add(a.findings.len() as u64);
    }
    CaseResult { seed, tier, prog, divergence, fp, detect, attack }
}

fn config_label(technique: Option<cfed_core::TechniqueKind>) -> String {
    match technique {
        None => "baseline".to_string(),
        Some(t) => t.to_string(),
    }
}

fn note_lines(prog: &GeneratedProgram, extra: String) -> Vec<String> {
    let mut notes = vec![extra];
    if let Some(src) = &prog.source {
        notes.push(format!(
            "MiniC source: {}",
            src.split_whitespace().collect::<Vec<_>>().join(" ")
        ));
    }
    notes
}

/// Runs the campaign described by `cfg`.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    assert!(!cfg.tiers.is_empty(), "at least one generator tier required");
    let start = std::time::Instant::now();
    let batch = (cfg.threads.max(1) * 8).max(16) as u64;

    let mut text = String::new();
    let _ = writeln!(text, "cfed-fuzz report v1");
    let _ = writeln!(text, "seed: {:#018x}", cfg.seed);
    let _ = writeln!(text, "mode: {}", cfg.mode.name());
    let _ = writeln!(
        text,
        "tiers: {}",
        cfg.tiers.iter().map(|t| t.name()).collect::<Vec<_>>().join(",")
    );
    let _ = writeln!(text, "max-insts: {}", cfg.max_insts);
    let _ = writeln!(text, "detect-branches: {}", cfg.detect_branches);
    if cfg.attacks {
        let _ = writeln!(text, "attacks: {ATTACK_TRIALS} trials/case");
    }

    let mut coverage = CoverageMap::new();
    let mut report = FuzzReport {
        text: String::new(),
        cases: 0,
        divergences: 0,
        sdc_violations: 0,
        attack_divergences: 0,
        retained: 0,
        coverage_bits: 0,
        written: Vec::new(),
    };
    let mut detect_total = DetectOutcome::default();
    let mut capped_sites = 0u64;
    let mut attack_total = AttackOutcome::default();

    let mut next = 0u64;
    while next < cfg.iters {
        if let Some(budget) = cfg.time_budget {
            if start.elapsed() >= budget {
                let _ = writeln!(text, "time-budget: stopped after {next} cases");
                break;
            }
        }
        let count = batch.min(cfg.iters - next) as usize;
        let base = next;
        let results = parallel_map(count, cfg.threads, |i| evaluate_case(cfg, base + i as u64));
        next += count as u64;

        // Sequential, index-ordered fold: everything below is deterministic.
        for r in results {
            report.cases += 1;
            if coverage.record(r.fp) {
                report.retained += 1;
                counters::RETAINED.inc();
            }
            if let Some(div) = &r.divergence {
                report.divergences += 1;
                let _ = writeln!(
                    text,
                    "DIVERGENCE seed={:#018x} tier={} pair={}|{} field={} {}",
                    r.seed,
                    r.tier.name(),
                    div.left,
                    div.right,
                    div.field,
                    div.detail
                );
                if let Some(dir) = &cfg.corpus_dir {
                    let (left, right, tier, max) =
                        (div.left.clone(), div.right.clone(), r.tier, cfg.max_insts);
                    let (reduced, edits) = shrink_image(&r.prog.image, |img| {
                        pair_diverges(img, &left, &right, tier, max)
                    });
                    let entry = RegressionFile {
                        mode: RegressionMode::Diff,
                        seed: r.seed,
                        tier: r.tier,
                        notes: note_lines(
                            &r.prog,
                            format!(
                                "pair {}|{} field {}: {} ({edits} shrink edits)",
                                div.left, div.right, div.field, div.detail
                            ),
                        ),
                        image: reduced,
                    };
                    if let Ok(path) = write_regression(dir, &entry) {
                        report.written.push(path);
                    }
                }
            }
            if let Some(d) = &r.detect {
                detect_total.injections += d.injections;
                detect_total.sites += d.sites;
                for (t, v) in detect_total.tally.iter_mut().zip(d.tally) {
                    *t += v;
                }
                if d.total_sites > d.sites {
                    capped_sites += 1;
                }
                for v in &d.violations {
                    report.sdc_violations += 1;
                    let _ = writeln!(
                        text,
                        "SDC seed={:#018x} tier={} technique={}/{} category={} spec={:?}",
                        r.seed,
                        r.tier.name(),
                        v.technique,
                        v.style,
                        v.category,
                        v.spec
                    );
                    if let Some(dir) = &cfg.corpus_dir {
                        let (viol, max) = (v.clone(), cfg.max_insts);
                        let (reduced, edits) = shrink_image(&r.prog.image, |img| {
                            violation_reproduces(img, &viol, max)
                        });
                        let entry = RegressionFile {
                            mode: RegressionMode::Detect,
                            seed: r.seed,
                            tier: r.tier,
                            notes: note_lines(
                                &r.prog,
                                format!(
                                    "technique {}/{} category {} spec {:?} ({edits} shrink edits)",
                                    v.technique, v.style, v.category, v.spec
                                ),
                            ),
                            image: reduced,
                        };
                        if let Ok(path) = write_regression(dir, &entry) {
                            report.written.push(path);
                        }
                    }
                }
            }
            if let Some(a) = &r.attack {
                attack_total.trials += a.trials;
                attack_total.placed += a.placed;
                for f in &a.findings {
                    report.attack_divergences += 1;
                    let (left, right) = f.pair();
                    let _ = writeln!(
                        text,
                        "ATTACK seed={:#018x} tier={} config={}/{} kind={} nth={} \
                         pair={left}|{right} field={} {}",
                        r.seed,
                        r.tier.name(),
                        config_label(f.technique),
                        f.style,
                        f.kind,
                        f.nth,
                        f.field,
                        f.detail
                    );
                    if let Some(dir) = &cfg.corpus_dir {
                        let (find, max) = (f.clone(), cfg.max_insts);
                        let (reduced, edits) =
                            shrink_image(&r.prog.image, |img| finding_reproduces(img, &find, max));
                        let entry = RegressionFile {
                            mode: RegressionMode::Attack,
                            seed: r.seed,
                            tier: r.tier,
                            notes: note_lines(
                                &r.prog,
                                format!(
                                    "attack {}/{} kind {} param {:#x} nth {} pair \
                                     {left}|{right} field {}: {} ({edits} shrink edits)",
                                    config_label(f.technique),
                                    f.style,
                                    f.kind,
                                    f.param,
                                    f.nth,
                                    f.field,
                                    f.detail
                                ),
                            ),
                            image: reduced,
                        };
                        if let Ok(path) = write_regression(dir, &entry) {
                            report.written.push(path);
                        }
                    }
                }
            }
        }
    }

    report.coverage_bits = coverage.bits();
    let _ = writeln!(text, "cases: {}", report.cases);
    let _ = writeln!(text, "retained: {}", report.retained);
    let _ = writeln!(text, "coverage-bits: {}", report.coverage_bits);
    let _ = writeln!(text, "divergences: {}", report.divergences);
    if matches!(cfg.mode, Mode::Detect | Mode::Both) {
        let _ = writeln!(
            text,
            "detect: injections={} sites={} tally={:?} sdc={}",
            detect_total.injections, detect_total.sites, detect_total.tally, report.sdc_violations
        );
        if capped_sites > 0 {
            // No silent caps: record how many programs had more branch
            // sites than the sweep visited.
            let _ = writeln!(
                text,
                "detect: {capped_sites} program(s) capped at {} branch sites",
                cfg.detect_branches
            );
        }
    }
    if cfg.attacks {
        let _ = writeln!(
            text,
            "attack: trials={} placed={} divergences={}",
            attack_total.trials, attack_total.placed, report.attack_divergences
        );
    }
    report.text = text;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg() -> FuzzConfig {
        FuzzConfig {
            seed: 0xF00D,
            iters: 6,
            threads: 1,
            max_insts: 300_000,
            mode: Mode::Diff,
            detect_branches: 2,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn reports_are_reproducible_across_thread_counts() {
        let one = run_fuzz(&smoke_cfg());
        let many = run_fuzz(&FuzzConfig { threads: 3, ..smoke_cfg() });
        assert_eq!(one.text, many.text);
        assert_eq!(one.cases, 6);
    }

    #[test]
    fn attack_schedules_are_reproducible_and_clean() {
        let cfg = FuzzConfig { attacks: true, iters: 4, ..smoke_cfg() };
        let one = run_fuzz(&cfg);
        let many = run_fuzz(&FuzzConfig { threads: 3, ..cfg });
        assert_eq!(one.text, many.text, "thread count leaked into the attack report");
        assert!(
            one.text.contains(&format!("attacks: {ATTACK_TRIALS} trials/case")),
            "{}",
            one.text
        );
        let trials = format!("attack: trials={} placed=", 4 * ATTACK_TRIALS);
        assert!(one.text.contains(&trials), "{}", one.text);
        assert!(one.clean(), "attack schedule found an engine disagreement:\n{}", one.text);
    }

    #[test]
    fn mode_names_round_trip() {
        for m in [Mode::Diff, Mode::Detect, Mode::Both] {
            assert_eq!(Mode::parse(m.name()), Some(m));
        }
        assert_eq!(Mode::parse("nope"), None);
    }
}
