//! # cfed-bench — experiment harnesses
//!
//! Functions that regenerate every table and figure of the paper's
//! evaluation, shared by the `figures` binary and the integration tests.
//! Every figure reads one caller-owned run table, [`FigureRuns`]: each
//! image compiled once, each distinct DBT configuration run once.
//!
//! | paper artifact | table method | `figures` writes | engine |
//! |---|---|---|---|
//! | Figure 2 (error-model table) | [`FigureRuns::fig2`] | `fig2.txt` | decoded interpreter, one pass tallying branches |
//! | Figure 3 (SDC-prone categories) | [`FigureRuns::fig2`] (derived) | `fig2.txt` | as Figure 2 |
//! | Figure 12 (per-benchmark slowdown) | [`FigureRuns::fig12`] | `fig12.txt` | native DBT; Figure 2's interpreter pass for DBT/native |
//! | Figure 14 (Jcc vs CMOVcc) | [`FigureRuns::fig14`] | `fig14.txt` | native DBT |
//! | Figure 15 (checking policies) | [`FigureRuns::fig15`] | `fig15.txt` | native DBT |
//!
//! "Native DBT" is [`cfed_core::run_dbt_native`]: the DBT's x86-64
//! backend where [`cfed_dbt::native_enabled`] allows it, else the fused
//! interpreter (`CFED_NO_NATIVE=1`, non-x86-64 hosts). Every figure is a
//! ratio of cost-model cycles, which both engines count bit-identically, so
//! the output does not depend on which one ran.
//!
//! The §3/§4 coverage matrix and the §6 detection-latency table are one
//! fault-injection study with one front end, `cfed-campaign` (in
//! `cfed-serve`). The `perf_gate` binary writes and gates
//! `BENCH_campaign.json`, the CI performance record.

use cfed_core::{geomean, run_dbt_telemetry, RunConfig, TechniqueKind};
use cfed_dbt::{CheckPolicy, UpdateStyle};
use cfed_fault::{analyze_image, ErrorModelReport, ErrorModelTable};
use cfed_runner::pool::parallel_map;
use cfed_sim::ExitReason;
use cfed_telemetry::Telemetry;
use cfed_workloads::{Scale, Suite, ALL};

// ----------------------------------------------------------------------
// The run table
// ----------------------------------------------------------------------

/// A figure [`FigureRuns`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figures 2 and 3: the §2 error model over both suites.
    Fig2,
    /// Figure 12: per-benchmark technique slowdowns.
    Fig12,
    /// Figure 14: Jcc vs CMOVcc signature updates.
    Fig14,
    /// Figure 15: RCF under the four checking policies.
    Fig15,
}

/// The techniques of Figures 12 and 14, in column order.
const KINDS: [TechniqueKind; 3] = [TechniqueKind::Rcf, TechniqueKind::EdgCf, TechniqueKind::Ecf];

fn fig14_config(style: UpdateStyle, kind: TechniqueKind) -> RunConfig {
    RunConfig { technique: Some(kind), style, ..RunConfig::default() }
}

fn fig15_config(policy: CheckPolicy) -> RunConfig {
    RunConfig { technique: Some(TechniqueKind::Rcf), policy, ..RunConfig::default() }
}

impl Figure {
    /// Every figure, in the order the `figures` binary writes them.
    pub const ALL: [Figure; 4] = [Figure::Fig2, Figure::Fig12, Figure::Fig14, Figure::Fig15];

    /// The stem of the figure's results file: `fig2`, `fig12`, ….
    pub fn name(self) -> &'static str {
        ["fig2", "fig12", "fig14", "fig15"][self as usize]
    }

    /// The DBT configurations the figure reads, baseline first.
    fn configs(self) -> Vec<RunConfig> {
        let columns = match self {
            Figure::Fig2 => return Vec::new(),
            Figure::Fig12 => KINDS.map(RunConfig::technique).to_vec(),
            Figure::Fig14 => [UpdateStyle::Jcc, UpdateStyle::CMov]
                .into_iter()
                .flat_map(|style| KINDS.map(|kind| fig14_config(style, kind)))
                .collect(),
            Figure::Fig15 => CheckPolicy::ALL.map(fig15_config).to_vec(),
        };
        [vec![RunConfig::baseline()], columns].concat()
    }
}

/// One workload's row of a [`FigureRuns`] table. It holds numbers only,
/// never a machine or a run's output, so a table costs no more memory than
/// the figures it renders.
#[derive(Debug, Clone)]
pub struct WorkloadRuns {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// The one interpreter pass ([`analyze_image`]), when Figure 2 or 12
    /// was requested: Figure 2's error-model table and, in its statistics,
    /// Figure 12's uninstrumented cycles.
    pub interp: Option<ErrorModelReport>,
    /// Cycles of each distinct DBT configuration the requested figures
    /// read, in first-use order.
    pub dbt_cycles: Vec<(RunConfig, u64)>,
}

impl WorkloadRuns {
    fn cycles(&self, cfg: &RunConfig) -> f64 {
        let run = self.dbt_cycles.iter().find(|(c, _)| c == cfg);
        run.unwrap_or_else(|| panic!("{}: the table holds no run of {cfg:?}", self.name)).1 as f64
    }

    /// Cycles under `cfg` over the uninstrumented DBT's.
    fn slowdown(&self, cfg: &RunConfig) -> f64 {
        self.cycles(cfg) / self.cycles(&RunConfig::baseline())
    }
}

/// The runs behind a set of figures. Each figure method panics on a table
/// built without its figure.
#[derive(Debug, Clone)]
pub struct FigureRuns {
    workloads: Vec<WorkloadRuns>,
}

impl FigureRuns {
    /// Builds the table for `figures`, one workload per pool task over
    /// `threads` worker threads (`0` = all cores). A task compiles its image
    /// once, makes one interpreter pass for Figures 2 and 12, then runs each
    /// distinct DBT configuration once through [`run_dbt_telemetry`] (each
    /// run emits `dbt_stats` to `telemetry`). Figures are computed in
    /// workload order: byte-identical to a serial run.
    ///
    /// # Panics
    ///
    /// Panics, naming the workload, when an image fails to compile or a
    /// run the table keeps does not end in a halt: a capped run would
    /// leave a figure reading a prefix.
    pub fn build(
        scale: Scale,
        threads: usize,
        telemetry: &Telemetry,
        figures: &[Figure],
    ) -> FigureRuns {
        let mut configs: Vec<RunConfig> = Vec::new();
        for cfg in figures.iter().flat_map(|f| f.configs()) {
            if !configs.contains(&cfg) {
                configs.push(cfg);
            }
        }
        let wants = |f| figures.contains(&f);
        let workloads = parallel_map(ALL.len(), threads, |i| {
            let w = &ALL[i];
            let img =
                w.image(scale).unwrap_or_else(|e| panic!("{} failed to compile: {e}", w.name));
            let halted = |run: String, exit: ExitReason| {
                let ok = matches!(exit, ExitReason::Halted { .. });
                assert!(ok, "{}: the {run} run ended {exit:?}, not in a halt", w.name);
            };
            let interp = (wants(Figure::Fig2) || wants(Figure::Fig12))
                .then(|| analyze_image(&img, 500_000_000))
                .inspect(|r| halted("interpreter".into(), r.exit));
            let dbt_cycles = configs
                .iter()
                .map(|cfg| {
                    let run = run_dbt_telemetry(&img, cfg, telemetry);
                    halted(format!("{cfg:?}"), run.exit);
                    (*cfg, run.cycles)
                })
                .collect();
            WorkloadRuns { name: w.name, suite: w.suite, interp, dbt_cycles }
        });
        FigureRuns { workloads }
    }

    /// One row per workload, in workload order.
    pub fn workloads(&self) -> &[WorkloadRuns] {
        &self.workloads
    }

    /// `figure` rendered as the results file `figures` writes for it.
    pub fn render(&self, figure: Figure) -> String {
        match figure {
            Figure::Fig2 => render_fig2(&self.fig2()),
            Figure::Fig12 => format!("{}\n", render_fig12(&self.fig12())),
            Figure::Fig14 => format!("{}\n", render_fig14(&self.fig14())),
            Figure::Fig15 => format!("{}\n", render_fig15(&self.fig15())),
        }
    }

    /// Figure 2/3 data: the per-workload error-model tables merged per
    /// suite in workload order (integer tallies throughout).
    pub fn fig2(&self) -> Fig2 {
        let mut fig = Fig2 { int: ErrorModelTable::default(), fp: ErrorModelTable::default() };
        for w in &self.workloads {
            let table = &w.interp.as_ref().expect("table built without Figure 2").table;
            match w.suite {
                Suite::Int => fig.int.merge(table),
                Suite::Fp => fig.fp.merge(table),
            }
        }
        fig
    }

    /// Figure 12 data: per-benchmark technique slowdowns (Jcc update,
    /// ALLBB) and the DBT baseline over the interpreter.
    pub fn fig12(&self) -> Vec<SlowdownRow> {
        self.workloads
            .iter()
            .map(|w| {
                let native = w.interp.as_ref().expect("table built without Figure 12").stats.cycles;
                let slowdown = |kind| w.slowdown(&RunConfig::technique(kind));
                SlowdownRow {
                    name: w.name,
                    suite: w.suite,
                    rcf: slowdown(TechniqueKind::Rcf),
                    edgcf: slowdown(TechniqueKind::EdgCf),
                    ecf: slowdown(TechniqueKind::Ecf),
                    dbt_over_native: w.cycles(&RunConfig::baseline()) / native as f64,
                }
            })
            .collect()
    }

    /// Figure 14 data: geomean slowdown for update style × technique, each
    /// over the per-workload ratios in workload order.
    pub fn fig14(&self) -> [[f64; 3]; 2] {
        [UpdateStyle::Jcc, UpdateStyle::CMov].map(|style| {
            KINDS.map(|kind| {
                let cfg = fig14_config(style, kind);
                geomean(&self.workloads.iter().map(|w| w.slowdown(&cfg)).collect::<Vec<_>>())
            })
        })
    }

    /// Figure 15 data: RCF slowdown under each checking policy.
    pub fn fig15(&self) -> Vec<PolicyRow> {
        self.workloads
            .iter()
            .map(|w| PolicyRow {
                name: w.name,
                suite: w.suite,
                slowdowns: CheckPolicy::ALL.map(|policy| w.slowdown(&fig15_config(policy))),
            })
            .collect()
    }
}

// ----------------------------------------------------------------------
// Figure 2 / Figure 3
// ----------------------------------------------------------------------

/// Error-model results for both suites.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Aggregated SPEC-Int analog table.
    pub int: ErrorModelTable,
    /// Aggregated SPEC-Fp analog table.
    pub fp: ErrorModelTable,
}

/// Runs the §2 single-bit error model over both suites (Figures 2 and 3):
/// [`FigureRuns::fig2`] of a table built for Figure 2 alone.
pub fn fig2_with(scale: Scale, threads: usize) -> Fig2 {
    FigureRuns::build(scale, threads, &Telemetry::off(), &[Figure::Fig2]).fig2()
}

/// Renders Figures 2 and 3: the SPEC-Int and SPEC-Fp tables, then the
/// Figure 3 view.
pub fn render_fig2(fig: &Fig2) -> String {
    format!(
        "{}\n{}\n{}\n",
        fig.int.render("Figure 2 — SPEC-Int 2000 (analog suite)"),
        fig.fp.render("Figure 2 — SPEC-Fp 2000 (analog suite)"),
        render_fig3(fig)
    )
}

/// Renders the Figure 3 view (probabilities over categories A–E only).
pub fn render_fig3(fig: &Fig2) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Figure 3 — branch-error probabilities over categories A–E");
    let _ = writeln!(out, "{:>9} | {:>9} | {:>9}", "Category", "SPEC-Int", "SPEC-Fp");
    let _ = writeln!(out, "{}", "-".repeat(35));
    let ints = fig.int.sdc_restricted();
    let fps = fig.fp.sdc_restricted();
    for i in 0..5 {
        let _ = writeln!(
            out,
            "{:>9} | {:>8.2}% | {:>8.2}%",
            ints[i].0.to_string(),
            100.0 * ints[i].1,
            100.0 * fps[i].1
        );
    }
    out
}

// ----------------------------------------------------------------------
// Figure 12
// ----------------------------------------------------------------------

/// One benchmark row of Figure 12.
#[derive(Debug, Clone)]
pub struct SlowdownRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// Slowdown of RCF / EdgCF / ECF over the uninstrumented DBT.
    pub rcf: f64,
    /// EdgCF slowdown.
    pub edgcf: f64,
    /// ECF slowdown.
    pub ecf: f64,
    /// DBT baseline over native execution (§6's ~12% statistic).
    pub dbt_over_native: f64,
}

/// Figure 12 data: [`FigureRuns::fig12`] of a table built for Figure 12
/// alone (one compile, one interpreter pass and four DBT runs per
/// workload), with every DBT run attached to `telemetry`. The disabled
/// handle costs one untaken branch per emit site, which is what the `< 3%`
/// telemetry overhead bound on this figure is measured against.
pub fn fig12_telemetry_with(
    scale: Scale,
    telemetry: &Telemetry,
    threads: usize,
) -> Vec<SlowdownRow> {
    FigureRuns::build(scale, threads, telemetry, &[Figure::Fig12]).fig12()
}

/// Renders Figure 12 as a table.
pub fn render_fig12(rows: &[SlowdownRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ =
        writeln!(out, "Figure 12 — slowdown over uninstrumented DBT (Jcc update, ALLBB policy)");
    let _ = writeln!(
        out,
        "{:>14} {:>6} | {:>7} {:>7} {:>7} | {:>10}",
        "benchmark", "suite", "RCF", "EdgCF", "ECF", "DBT/native"
    );
    let _ = writeln!(out, "{}", "-".repeat(62));
    let body: Vec<_> = rows
        .iter()
        .map(|r| {
            let tail = format!(" | {:>10.3}", r.dbt_over_native);
            (r.name, r.suite, vec![r.rcf, r.edgcf, r.ecf], tail)
        })
        .collect();
    write_suite_rows(&mut out, &body, " |");
    let dbt: Vec<f64> = rows.iter().map(|r| r.dbt_over_native).collect();
    let _ = writeln!(out, "DBT baseline over native (geomean): {:.3}", geomean(&dbt));
    out
}

/// Writes the per-benchmark body of Figures 12 and 15: the SPEC-Fp rows,
/// then the SPEC-Int rows, each suite closed by the geomean of every
/// column over its rows, then the geomean over all rows. A row is
/// `(name, suite, columns, tail)`: `tail` follows the row's columns, as
/// `geo_tail` follows each geomean row's.
fn write_suite_rows(out: &mut String, rows: &[(&str, Suite, Vec<f64>, String)], geo_tail: &str) {
    use std::fmt::Write as _;
    let width = rows.first().map_or(0, |r| r.2.len());
    let geomeans = |out: &mut String, label: &str, suite: Option<Suite>| {
        let _ = write!(out, "{label:>21} |");
        for c in 0..width {
            let column: Vec<f64> =
                rows.iter().filter(|r| suite.is_none_or(|s| r.1 == s)).map(|r| r.2[c]).collect();
            let _ = write!(out, " {:>7.3}", geomean(&column));
        }
        let _ = writeln!(out, "{geo_tail}");
    };
    for (suite, tag) in [(Suite::Fp, "fp"), (Suite::Int, "int")] {
        for (name, _, columns, tail) in rows.iter().filter(|r| r.1 == suite) {
            let _ = write!(out, "{name:>14} {tag:>6} |");
            for v in columns {
                let _ = write!(out, " {v:>7.3}");
            }
            let _ = writeln!(out, "{tail}");
        }
        geomeans(out, &format!("geomean-{tag}"), Some(suite));
    }
    geomeans(out, "geomean-all", None);
}

// ----------------------------------------------------------------------
// Figure 14
// ----------------------------------------------------------------------

/// Figure 14 data: [`FigureRuns::fig14`] of a table built for Figure 14
/// alone.
pub fn fig14_with(scale: Scale, threads: usize) -> [[f64; 3]; 2] {
    FigureRuns::build(scale, threads, &Telemetry::off(), &[Figure::Fig14]).fig14()
}

/// Renders the Figure 14 table.
pub fn render_fig14(m: &[[f64; 3]; 2]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Figure 14 — geomean slowdown by signature-update instruction");
    let _ = writeln!(out, "{:>10} | {:>7} {:>7} {:>7}", "update", "RCF", "EdgCF", "ECF");
    let _ = writeln!(out, "{}", "-".repeat(36));
    let _ = writeln!(
        out,
        "{:>10} | {:>7.3} {:>7.3} {:>7.3}   (EdgCF/ECF unsafe)",
        "Jcc", m[0][0], m[0][1], m[0][2]
    );
    let _ = writeln!(out, "{:>10} | {:>7.3} {:>7.3} {:>7.3}", "CMOVcc", m[1][0], m[1][1], m[1][2]);
    out
}

// ----------------------------------------------------------------------
// Figure 15
// ----------------------------------------------------------------------

/// One benchmark row of Figure 15 (RCF under the four checking policies).
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// Slowdown under ALLBB / RET-BE / RET / END.
    pub slowdowns: [f64; 4],
}

/// Figure 15 data: [`FigureRuns::fig15`] of a table built for Figure 15
/// alone.
pub fn fig15_with(scale: Scale, threads: usize) -> Vec<PolicyRow> {
    FigureRuns::build(scale, threads, &Telemetry::off(), &[Figure::Fig15]).fig15()
}

/// Renders Figure 15 as a table.
pub fn render_fig15(rows: &[PolicyRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Figure 15 — RCF slowdown under the signature checking policies");
    let _ = writeln!(
        out,
        "{:>14} {:>6} | {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "suite", "ALLBB", "RET-BE", "RET", "END"
    );
    let _ = writeln!(out, "{}", "-".repeat(58));
    let body: Vec<_> =
        rows.iter().map(|r| (r.name, r.suite, r.slowdowns.to_vec(), String::new())).collect();
    write_suite_rows(&mut out, &body, "");
    out
}
