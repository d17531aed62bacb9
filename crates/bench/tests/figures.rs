//! The run table behind every figure: one table built for all four figures
//! renders exactly what tables built one figure at a time render, and it
//! runs each distinct DBT configuration once per workload.

use cfed_bench::{
    fig12_telemetry_with, fig14_with, fig15_with, fig2_with, render_fig12, render_fig14,
    render_fig15, render_fig2, Figure, FigureRuns,
};
use cfed_telemetry::Telemetry;
use cfed_workloads::{Scale, ALL};

fn all_figures() -> FigureRuns {
    FigureRuns::build(Scale::Test, 2, &Telemetry::off(), &Figure::ALL)
}

#[test]
fn one_table_renders_what_the_per_figure_wrappers_render() {
    let runs = all_figures();
    let (scale, threads) = (Scale::Test, 2);
    let alone = [
        render_fig2(&fig2_with(scale, threads)),
        format!("{}\n", render_fig12(&fig12_telemetry_with(scale, &Telemetry::off(), threads))),
        format!("{}\n", render_fig14(&fig14_with(scale, threads))),
        format!("{}\n", render_fig15(&fig15_with(scale, threads))),
    ];
    for (figure, want) in Figure::ALL.into_iter().zip(alone) {
        assert_eq!(runs.render(figure), want, "{}", figure.name());
    }
}

#[test]
fn all_figures_run_ten_distinct_configs_per_workload() {
    let runs = all_figures();
    assert_eq!(runs.workloads().len(), ALL.len());
    for w in runs.workloads() {
        assert_eq!(w.dbt_cycles.len(), 10, "{}", w.name);
        for (i, (cfg, _)) in w.dbt_cycles.iter().enumerate() {
            assert!(!w.dbt_cycles[..i].iter().any(|(c, _)| c == cfg), "{}: {cfg:?} twice", w.name);
        }
        assert!(w.interp.is_some(), "{}", w.name);
    }
    // A table for one figure runs only that figure's work: Figure 12 alone
    // is one interpreter pass and four DBT runs, Figure 14 alone runs no
    // interpreter pass.
    let fig12 = FigureRuns::build(Scale::Test, 2, &Telemetry::off(), &[Figure::Fig12]);
    for w in fig12.workloads() {
        assert_eq!(w.dbt_cycles.len(), 4, "{}", w.name);
        assert!(w.interp.is_some(), "{}", w.name);
    }
    let fig14 = FigureRuns::build(Scale::Test, 2, &Telemetry::off(), &[Figure::Fig14]);
    for w in fig14.workloads() {
        assert_eq!(w.dbt_cycles.len(), 7, "{}", w.name);
        assert!(w.interp.is_none(), "{}", w.name);
    }
}
