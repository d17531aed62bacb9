//! Metric names and units, which workload measures which, and the result
//! line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics every workload reports with tracing off; these are
/// the metrics `BENCHMARK.json` bounds.
pub const END_TO_END: [Metric; 4] =
    [m("wall_s", "s"), m("setup_s", "s"), m("cpu_s", "s"), m("peak_rss_mb", "MB")];

/// End-to-end metrics that only some workloads have. They are printed by
/// name on summary lines before the result line, whose metric set must be
/// the same for every workload.
pub const WORKLOAD_END_TO_END: [Metric; 6] = [
    m("ops_failed_frac", "frac"),
    m("trials_per_s", "1/s"),
    m("fig2_s", "s"),
    m("fig12_s", "s"),
    m("fig14_s", "s"),
    m("fig15_s", "s"),
];

/// Per-layer metrics of the traced run. A workload reports 0 for a metric
/// of a layer it does not exercise.
pub const PER_LAYER: [Metric; 37] = [
    m("lang.compile_ms", "ms"),
    m("core.instrumenter_ms", "ms"),
    m("core.profile_ms", "ms"),
    m("fault.capture_ms", "ms"),
    m("fault.golden_mips", "Minst/s"),
    m("fault.snapshot_mb", "MB"),
    m("fault.trials", "count"),
    m("fault.trial_us.p50", "us"),
    m("fault.trial_us.p99", "us"),
    m("fault.stepped_branches_per_trial", "count"),
    m("fault.pruned_frac", "frac"),
    m("fault.pruned_trial_us.p50", "us"),
    m("fault.full_trial_us.p50", "us"),
    m("fault.skipped_frac", "frac"),
    m("fault.error_model_ms", "ms"),
    m("sim.decoded_mips", "Minst/s"),
    m("sim.decode_hit_frac", "frac"),
    m("dbt.step_mips", "Minst/s"),
    m("dbt.fused_mips", "Minst/s"),
    m("dbt.native_mips", "Minst/s"),
    m("dbt.tier_mips", "Minst/s"),
    m("dbt.cache_insts_per_guest_inst", "ratio"),
    m("dbt.dispatch_ic_hit_frac", "frac"),
    m("runner.units", "count"),
    m("runner.unit_ms.p50", "ms"),
    m("runner.unit_ms.p90", "ms"),
    m("runner.busy_frac", "frac"),
    m("runner.store_append_us.p50", "us"),
    m("runner.store_kb", "KiB"),
    m("runner.report_ms", "ms"),
    m("telemetry.json_encode_mb_s", "MB/s"),
    m("telemetry.json_decode_mb_s", "MB/s"),
    m("serve.frame_rtt_us.p50", "us"),
    m("serve.frame_bytes.p50", "B"),
    m("bench.busy_frac", "frac"),
    m("trace.overhead_frac", "frac"),
    m("trace.unattributed_frac", "frac"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SeuCampaign,
    AttackCampaign,
    Figures,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::SeuCampaign, Workload::AttackCampaign, Workload::Figures];

    /// The workloads `BENCHMARK.json` lists. `attack-campaign` runs by
    /// hand only: three workloads at the run length the figures need do
    /// not fit the benchmark's time limit (see `README.md`).
    #[cfg(test)]
    pub const BENCHMARKED: [Workload; 2] = [Workload::SeuCampaign, Workload::Figures];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SeuCampaign => "seu-campaign",
            Workload::AttackCampaign => "attack-campaign",
            Workload::Figures => "figures",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload-specific end-to-end metrics this workload measures.
    pub fn end_to_end_extras(self) -> Vec<&'static str> {
        match self {
            Workload::SeuCampaign | Workload::AttackCampaign => {
                vec!["ops_failed_frac", "trials_per_s"]
            }
            Workload::Figures => vec!["ops_failed_frac", "fig2_s", "fig12_s", "fig14_s", "fig15_s"],
        }
    }

    /// The per-layer metrics this workload's traced run measures; the rest
    /// of [`PER_LAYER`] read 0.
    pub fn per_layer(self) -> Vec<&'static str> {
        let mut names = vec![
            "lang.compile_ms",
            "core.instrumenter_ms",
            "sim.decoded_mips",
            "sim.decode_hit_frac",
            "dbt.fused_mips",
            "dbt.native_mips",
            "dbt.tier_mips",
            "dbt.cache_insts_per_guest_inst",
            "dbt.dispatch_ic_hit_frac",
            "trace.overhead_frac",
            "trace.unattributed_frac",
        ];
        match self {
            Workload::SeuCampaign | Workload::AttackCampaign => names.extend([
                "fault.capture_ms",
                "fault.golden_mips",
                "fault.snapshot_mb",
                "fault.trials",
                "fault.trial_us.p50",
                "fault.trial_us.p99",
                "fault.stepped_branches_per_trial",
                "fault.pruned_frac",
                "fault.full_trial_us.p50",
                "fault.skipped_frac",
                "dbt.step_mips",
                "runner.units",
                "runner.unit_ms.p50",
                "runner.unit_ms.p90",
                "runner.busy_frac",
                "runner.store_append_us.p50",
                "runner.store_kb",
                "runner.report_ms",
                "telemetry.json_encode_mb_s",
                "telemetry.json_decode_mb_s",
                "serve.frame_rtt_us.p50",
                "serve.frame_bytes.p50",
            ]),
            Workload::Figures => names.extend(["fault.error_model_ms", "bench.busy_frac"]),
        }
        if self == Workload::SeuCampaign {
            names.extend(["core.profile_ms", "fault.pruned_trial_us.p50"]);
        }
        names
    }
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// A number as measured, with all its digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `metrics` holds a value for each of `declared`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[Metric],
    metrics: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in declared.iter().enumerate() {
        let value = metrics.get(metric.name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            number(value),
            metric.unit
        );
    }
    out.push_str("}}");
    out
}

/// One human-readable summary line per metric of `declared` that
/// `metrics` holds.
pub fn summary_lines(declared: &[Metric], metrics: &BTreeMap<&'static str, f64>) -> String {
    let mut out = String::new();
    for metric in declared {
        if let Some(v) = metrics.get(metric.name) {
            let _ = writeln!(out, "metric {:<36} {:>16} {}", metric.name, number(*v), metric.unit);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_metrics() -> Vec<Metric> {
        END_TO_END.iter().chain(&WORKLOAD_END_TO_END).chain(&PER_LAYER).copied().collect()
    }

    #[test]
    fn metric_names_and_units_use_the_allowed_characters() {
        let metrics = all_metrics();
        for metric in &metrics {
            assert!(valid_name(metric.name), "bad metric name {:?}", metric.name);
            assert!(valid_unit(metric.unit), "bad unit {:?}", metric.unit);
        }
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
        }
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), metrics.len(), "metric names must be unique");
    }

    #[test]
    fn the_charset_check_rejects_what_the_contract_forbids() {
        assert!(valid_name("fault.trial_us.p99"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("Minst/s"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn declared_metrics_exist_and_match_benchmark_json() {
        let names: Vec<&str> = all_metrics().iter().map(|m| m.name).collect();
        for w in Workload::ALL {
            for name in w.end_to_end_extras().into_iter().chain(w.per_layer()) {
                assert!(names.contains(&name), "{} declares unknown metric {name}", w.name());
            }
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let pairs = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
        };
        let listed = |array: &str| -> Vec<(String, String)> {
            let names = field_values(&text, array, "name");
            let units = field_values(&text, array, "unit");
            names.into_iter().zip(units).collect()
        };
        assert_eq!(listed("end_to_end"), pairs(&END_TO_END));
        assert_eq!(listed("per_layer"), pairs(&PER_LAYER));
        let ours: Vec<String> =
            Workload::BENCHMARKED.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(field_values(&text, "workloads", "name"), ours);
    }

    /// The string values of `field` in the objects of the JSON array
    /// `array` (a scan sufficient for the flat, escape-free manifest).
    fn field_values(text: &str, array: &str, field: &str) -> Vec<String> {
        let start = text.find(&format!("\"{array}\"")).expect("array present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let key = format!("\"{field}\":");
        body.match_indices(&key)
            .map(|(i, _)| {
                let rest = body[i + key.len()..].trim_start().trim_start_matches('"');
                rest[..rest.find('"').expect("string closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = BTreeMap::from([("wall_s", 1.25), ("setup_s", 0.5)]);
        let line = result_line(true, 3, 0, &END_TO_END, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"cpu_s\": {\"value\": 0.0, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}}}"
        );
    }
}
