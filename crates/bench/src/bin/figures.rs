//! Regenerates the paper's Figures 2/3, 12, 14 and 15 from one run table
//! ([`cfed_bench::FigureRuns`]): each image is compiled once and each
//! distinct DBT configuration is run once. Writes `fig2.txt`, `fig12.txt`,
//! `fig14.txt` and `fig15.txt` into `--out` and nothing else. With
//! `--events PATH`, every DBT run also emits a `dbt_stats` telemetry event
//! (translation-time histogram, block/chain counters) to a JSONL sink.
//!
//! Usage: `cargo run --release -p cfed-bench --bin figures -- [OPTIONS]`

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cfed_bench::{Figure, FigureRuns};
use cfed_runner::cli::Parser;
use cfed_telemetry::{JsonlSink, Telemetry};

fn main() {
    let args = Parser::new("figures", "Figures 2/3, 12, 14 and 15 from one run table")
        .flag("scale", "SCALE", "full", "workload scale: test, full, or an iteration count")
        .flag("threads", "N", "0", "worker threads for per-workload runs (0 = all cores)")
        .flag("events", "PATH", "", "write dbt_stats telemetry events (JSONL) to PATH")
        .flag("out", "DIR", "results", "directory the fig*.txt files are written to")
        .parse();
    let die = |message: String| -> ! {
        eprintln!("figures: {message}");
        std::process::exit(2);
    };
    let scale = args.get_scale("scale").unwrap_or_else(|e| die(e));
    let threads = args.get_usize("threads").unwrap_or_else(|e| die(e));
    let telemetry = match args.get("events").filter(|s| !s.is_empty()) {
        Some(path) => {
            Telemetry::to(Arc::new(JsonlSink::create(Path::new(path)).unwrap_or_else(|e| die(e))))
        }
        None => Telemetry::off(),
    };
    let runs = FigureRuns::build(scale, threads, &telemetry, &Figure::ALL);
    let out = PathBuf::from(args.get("out").unwrap_or("results"));
    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| die(format!("creating {}: {e}", out.display())));
    for figure in Figure::ALL {
        let path = out.join(format!("{}.txt", figure.name()));
        std::fs::write(&path, runs.render(figure))
            .unwrap_or_else(|e| die(format!("writing {}: {e}", path.display())));
    }
}
