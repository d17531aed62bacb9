//! The `figures` workload: Figures 2/3, 12, 14 and 15 at full scale over
//! the 26 analogs, rendered as the `fig*` binaries print them.
//!
//! The untraced run calls the `cfed_bench` harnesses. The traced run does
//! the same per-workload runs through the layers' public functions, so that
//! each can be timed, and renders the figures from its own results; both
//! renderings must equal the committed `results/fig*.txt`.

use std::collections::BTreeMap;
use std::time::Instant;

use cfed_asm::Image;
use cfed_bench::{
    fig12_telemetry_with, fig14_with, fig15_with, fig2_with, render_fig12, render_fig14,
    render_fig15, render_fig3, Fig2, PolicyRow, SlowdownRow,
};
use cfed_core::{
    geomean, run_dbt_native, run_dbt_tiered, run_dbt_with, RunConfig, RunOutcome, TechniqueKind,
};
use cfed_dbt::{CheckPolicy, NullInstrumenter, UpdateStyle, DEFAULT_COMPILE_THRESHOLD};
use cfed_fault::{analyze_image, ErrorModelTable};
use cfed_runner::pool::parallel_map;
use cfed_telemetry::Telemetry;
use cfed_workloads::{Scale, Suite, Workload, ALL};

use crate::host;
use crate::trace::{self, SpanId, Trace};
use crate::Checks;

/// The figures, in the order they are run and reported.
pub const FIGURES: [&str; 4] = ["fig2", "fig12", "fig14", "fig15"];

/// Container spans: the benchmark's own structure, not a layer call.
pub const CONTAINERS: [&str; 3] = ["workload", "bench.figure", "bench.task"];

/// The `figures` workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    pub scale: Scale,
    pub threads: usize,
}

/// The figures as the committed `results/fig*.txt` hold them, with cargo's
/// `Compiling`/`Finished`/`Running` lines stripped.
pub fn expected() -> Result<[String; 4], String> {
    let read = |name: &str| {
        let path = format!("{}/../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path)
            .map(|text| strip_cargo_lines(&text))
            .map_err(|e| format!("reading {path}: {e}"))
    };
    Ok([read("fig2")?, read("fig12")?, read("fig14")?, read("fig15")?])
}

fn strip_cargo_lines(text: &str) -> String {
    text.split_inclusive('\n')
        .filter(|line| {
            !matches!(line.split_whitespace().next(), Some("Compiling" | "Finished" | "Running"))
        })
        .collect()
}

fn image(w: &Workload, scale: Scale) -> Result<Image, String> {
    w.image(scale).map_err(|e| format!("{} failed to compile: {e}", w.name))
}

/// Set-up: compiles the 26 images on the workload's threads. Returns the
/// seconds it took.
pub fn setup(f: &Figures) -> Result<f64, String> {
    let start = Instant::now();
    let images = parallel_map(ALL.len(), f.threads, |i| image(&ALL[i], f.scale));
    let secs = start.elapsed().as_secs_f64();
    for img in images {
        img?;
    }
    Ok(secs)
}

/// `fig2_error_model`'s output.
fn render_fig2(fig: &Fig2) -> String {
    format!(
        "{}\n{}\n{}\n",
        fig.int.render("Figure 2 — SPEC-Int 2000 (analog suite)"),
        fig.fp.render("Figure 2 — SPEC-Fp 2000 (analog suite)"),
        render_fig3(fig)
    )
}

/// The measurements of one untraced run.
pub struct Iteration {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Seconds per figure, in [`FIGURES`] order.
    pub fig_s: [f64; 4],
}

/// One untraced run through the `cfed_bench` harnesses; each rendering is
/// checked against `expected` when given.
pub fn run_once(f: &Figures, expected: Option<&[String; 4]>, checks: &mut Checks) -> Iteration {
    let cpu = host::cpu_seconds();
    let start = Instant::now();
    let mut fig_s = [0.0; 4];
    let mut outputs: Vec<String> = Vec::with_capacity(4);
    let mut timed = |i: usize, render: &dyn Fn() -> String| {
        let t = Instant::now();
        outputs.push(render());
        fig_s[i] = t.elapsed().as_secs_f64();
    };
    timed(0, &|| render_fig2(&fig2_with(f.scale, f.threads)));
    timed(1, &|| {
        format!("{}\n", render_fig12(&fig12_telemetry_with(f.scale, &Telemetry::off(), f.threads)))
    });
    timed(2, &|| format!("{}\n", render_fig14(&fig14_with(f.scale, f.threads))));
    timed(3, &|| format!("{}\n", render_fig15(&fig15_with(f.scale, f.threads))));
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu;
    compare(&outputs, expected, "", checks);
    Iteration { wall_s, cpu_s, fig_s }
}

fn compare(outputs: &[String], expected: Option<&[String; 4]>, how: &str, checks: &mut Checks) {
    let Some(expected) = expected else { return };
    for ((name, got), want) in FIGURES.iter().zip(outputs).zip(expected) {
        checks.expect(got == want, || format!("{how}{name} differs from results/{name}.txt"));
    }
}

/// Layer counters of the traced run, summed over its tasks.
#[derive(Default, Clone, Copy)]
struct Counts {
    interp_insts: u64,
    decode_hits: u64,
    decode_misses: u64,
    fused_insts: u64,
    guest_insts: u64,
    cache_insts: u64,
    dispatches: u64,
    ic_hits: u64,
}

impl Counts {
    fn absorb(&mut self, o: &Counts) {
        self.interp_insts += o.interp_insts;
        self.decode_hits += o.decode_hits;
        self.decode_misses += o.decode_misses;
        self.fused_insts += o.fused_insts;
        self.guest_insts += o.guest_insts;
        self.cache_insts += o.cache_insts;
        self.dispatches += o.dispatches;
        self.ic_hits += o.ic_hits;
    }
}

/// One task's view of the trace: its span and its counters.
struct Task<'a> {
    trace: &'a Trace,
    span: SpanId,
    counts: Counts,
}

impl Task<'_> {
    fn compile(&self, w: &Workload, scale: Scale) -> Image {
        self.trace
            .span("lang.compile", Some(self.span), |_| image(w, scale))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// `run_dbt`, split at its layer boundary: the instrumenter (with CFG
    /// recovery), then the fused DBT run.
    fn dbt(&mut self, img: &Image, cfg: &RunConfig) -> RunOutcome {
        let instr: Box<dyn cfed_dbt::Instrumenter> =
            self.trace.span("core.instrumenter", Some(self.span), |_| match cfg.technique {
                Some(kind) => kind.instrumenter_for(img, cfg.policy),
                None => Box::new(NullInstrumenter),
            });
        let out = self.trace.span("dbt.fused", Some(self.span), |_| {
            run_dbt_with(img, instr, cfg.style, cfg.max_insts)
        });
        self.counts.fused_insts += out.insts;
        self.counts.guest_insts += out.dbt.guest_insts;
        self.counts.cache_insts += out.dbt.cache_insts;
        self.counts.dispatches += out.dbt.dispatches;
        self.counts.ic_hits += out.dbt.dispatch_ic_hits;
        out
    }

    /// `run_native`: the decoded interpreter.
    fn interp(&mut self, img: &Image) -> u64 {
        let run = self
            .trace
            .span("sim.decoded", Some(self.span), |_| crate::campaign::interpret(img, u64::MAX));
        self.counts.interp_insts += run.insts;
        self.counts.decode_hits += run.decode_hits;
        self.counts.decode_misses += run.decode_misses;
        run.cycles
    }
}

/// Runs `body` once per workload as a `bench.task` span under `figure`.
fn tasks<T: Send>(
    f: &Figures,
    trace: &Trace,
    figure: SpanId,
    body: impl Fn(&mut Task, &Workload) -> T + Sync,
) -> (Vec<T>, Counts) {
    let done = parallel_map(ALL.len(), f.threads, |i| {
        trace.span("bench.task", Some(figure), |span| {
            let mut task = Task { trace, span, counts: Counts::default() };
            let out = body(&mut task, &ALL[i]);
            (out, task.counts)
        })
    });
    let mut counts = Counts::default();
    let outs = done
        .into_iter()
        .map(|(out, c)| {
            counts.absorb(&c);
            out
        })
        .collect();
    (outs, counts)
}

/// The outcome of a traced run.
pub struct Traced {
    pub wall_s: f64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// The traced run: the harnesses' runs, timed call by call, rendered and
/// checked against `expected`; then the native and tier engines on the
/// Figure 12 configurations, which no figure runs.
pub fn run_traced(
    f: &Figures,
    name: &'static str,
    expected: Option<&[String; 4]>,
    untraced_wall_s: f64,
    checks: &mut Checks,
) -> Traced {
    let trace = Trace::new(name);
    let mut counts = Counts::default();
    let start = Instant::now();
    let outputs = trace.span("workload", None, |root| {
        let mut outputs = Vec::with_capacity(4);
        let mut figure = |render: &dyn Fn(SpanId, &mut Counts) -> String| {
            trace.span("bench.figure", Some(root), |fig| outputs.push(render(fig, &mut counts)));
        };
        figure(&|fig, counts| {
            let (tables, c) = tasks(f, &trace, fig, |task, w| {
                let img = task.compile(w, f.scale);
                let report = trace.span("fault.error_model", Some(task.span), |_| {
                    analyze_image(&img, 500_000_000)
                });
                (w.suite, report.table)
            });
            counts.absorb(&c);
            let mut fig2 = Fig2 { int: ErrorModelTable::default(), fp: ErrorModelTable::default() };
            for (suite, table) in &tables {
                match suite {
                    Suite::Int => fig2.int.merge(table),
                    Suite::Fp => fig2.fp.merge(table),
                }
            }
            render_fig2(&fig2)
        });
        figure(&|fig, counts| {
            let (rows, c) = tasks(f, &trace, fig, |task, w| {
                let img = task.compile(w, f.scale);
                let native = task.interp(&img);
                let base = task.dbt(&img, &RunConfig::baseline()).cycles as f64;
                let mut cycles =
                    |kind| task.dbt(&img, &RunConfig::technique(kind)).cycles as f64 / base;
                SlowdownRow {
                    name: w.name,
                    suite: w.suite,
                    rcf: cycles(TechniqueKind::Rcf),
                    edgcf: cycles(TechniqueKind::EdgCf),
                    ecf: cycles(TechniqueKind::Ecf),
                    dbt_over_native: base / native as f64,
                }
            });
            counts.absorb(&c);
            format!("{}\n", render_fig12(&rows))
        });
        figure(&|fig, counts| {
            let kinds = [TechniqueKind::Rcf, TechniqueKind::EdgCf, TechniqueKind::Ecf];
            let styles = [UpdateStyle::Jcc, UpdateStyle::CMov];
            let (ratios, c) = tasks(f, &trace, fig, |task, w| {
                let img = task.compile(w, f.scale);
                let base = task.dbt(&img, &RunConfig::baseline()).cycles as f64;
                let mut r = [[0.0f64; 3]; 2];
                for (si, &style) in styles.iter().enumerate() {
                    for (ki, &kind) in kinds.iter().enumerate() {
                        let cfg =
                            RunConfig { technique: Some(kind), style, ..RunConfig::default() };
                        r[si][ki] = task.dbt(&img, &cfg).cycles as f64 / base;
                    }
                }
                r
            });
            counts.absorb(&c);
            let mut m = [[0.0; 3]; 2];
            for (s, row) in m.iter_mut().enumerate() {
                for (k, cell) in row.iter_mut().enumerate() {
                    *cell = geomean(&ratios.iter().map(|r| r[s][k]).collect::<Vec<_>>());
                }
            }
            format!("{}\n", render_fig14(&m))
        });
        figure(&|fig, counts| {
            let (rows, c) = tasks(f, &trace, fig, |task, w| {
                let img = task.compile(w, f.scale);
                let base = task.dbt(&img, &RunConfig::baseline()).cycles as f64;
                let mut slowdowns = [0.0; 4];
                for (pi, policy) in CheckPolicy::ALL.into_iter().enumerate() {
                    let cfg = RunConfig {
                        technique: Some(TechniqueKind::Rcf),
                        policy,
                        ..RunConfig::default()
                    };
                    slowdowns[pi] = task.dbt(&img, &cfg).cycles as f64 / base;
                }
                PolicyRow { name: w.name, suite: w.suite, slowdowns }
            });
            counts.absorb(&c);
            format!("{}\n", render_fig15(&rows))
        });
        outputs
    });
    let wall_s = start.elapsed().as_secs_f64();
    compare(&outputs, expected, "traced ", checks);
    let spans = trace.finish();

    let ms = |name: &str| trace::total_ms(&spans, name);
    let mips = |insts: u64, span: &str| insts as f64 / (ms(span) * 1e3);
    let mut metrics = BTreeMap::new();
    metrics.insert("lang.compile_ms", ms("lang.compile"));
    metrics.insert("core.instrumenter_ms", ms("core.instrumenter"));
    metrics.insert("fault.error_model_ms", ms("fault.error_model"));
    metrics.insert("sim.decoded_mips", mips(counts.interp_insts, "sim.decoded"));
    let lookups = (counts.decode_hits + counts.decode_misses).max(1);
    metrics.insert("sim.decode_hit_frac", counts.decode_hits as f64 / lookups as f64);
    metrics.insert("dbt.fused_mips", mips(counts.fused_insts, "dbt.fused"));
    metrics.insert(
        "dbt.cache_insts_per_guest_inst",
        counts.cache_insts as f64 / counts.guest_insts.max(1) as f64,
    );
    metrics.insert(
        "dbt.dispatch_ic_hit_frac",
        counts.ic_hits as f64 / counts.dispatches.max(1) as f64,
    );
    let tasks_ns: u64 = trace::durations_ns(&spans, "bench.task").iter().sum();
    let figures_ns: u64 = trace::durations_ns(&spans, "bench.figure").iter().sum();
    metrics.insert("bench.busy_frac", tasks_ns as f64 / (f.threads as f64 * figures_ns as f64));
    metrics.insert("trace.overhead_frac", wall_s / untraced_wall_s - 1.0);
    metrics.insert("trace.unattributed_frac", trace::unattributed_frac(&spans, &CONTAINERS));
    probe_engines(f, &mut metrics, checks);
    Traced { wall_s, metrics }
}

/// Runs the Figure 12 configurations on the native and tiered engines;
/// each output must equal the fused engine's.
fn probe_engines(f: &Figures, metrics: &mut BTreeMap<&'static str, f64>, checks: &mut Checks) {
    let configs = [
        RunConfig::baseline(),
        RunConfig::technique(TechniqueKind::Rcf),
        RunConfig::technique(TechniqueKind::EdgCf),
        RunConfig::technique(TechniqueKind::Ecf),
    ];
    let runs = parallel_map(ALL.len(), f.threads, |i| {
        let img = image(&ALL[i], f.scale).unwrap_or_else(|e| panic!("{e}"));
        let mut out = [(0u64, 0u64, true); 2];
        for cfg in &configs {
            let fused = cfed_core::run_dbt(&img, cfg).output;
            let t = Instant::now();
            let native = run_dbt_native(&img, cfg);
            let t_native = t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            let tier = run_dbt_tiered(&img, cfg, DEFAULT_COMPILE_THRESHOLD);
            let t_tier = t.elapsed().as_nanos() as u64;
            for (slot, (run, ns)) in out.iter_mut().zip([(native, t_native), (tier, t_tier)]) {
                slot.0 += run.insts;
                slot.1 += ns;
                slot.2 &= run.output == fused;
            }
        }
        out
    });
    let mut totals = [(0u64, 0u64); 2];
    for (w, run) in ALL.iter().zip(runs) {
        for (e, (insts, ns, same)) in run.into_iter().enumerate() {
            totals[e].0 += insts;
            totals[e].1 += ns;
            let engine = ["native", "tier"][e];
            checks.expect(same, || format!("{} on the {engine} engine differs from fused", w.name));
        }
    }
    let mips = |(insts, ns): (u64, u64)| insts as f64 / (ns.max(1) as f64 / 1e3);
    metrics.insert("dbt.native_mips", mips(totals[0]));
    metrics.insert("dbt.tier_mips", mips(totals[1]));
}
