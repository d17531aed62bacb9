//! `cfed-campaign report` — renders a persisted campaign store.
//!
//! Reads a v2 JSONL store, merges each cell's shard tallies with the same
//! associative algebra the pool uses, and renders the per-category outcome
//! table plus detection-latency histograms and p50/p90/p99 percentiles for
//! every cell. Everything derives from the shard records alone — meta
//! records (wall-clock, thread count) are ignored — and percentiles are
//! integer bucket bounds, so a killed-and-resumed store renders
//! byte-identically to an uninterrupted one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use cfed_core::{Category, TechniqueKind};
use cfed_fault::{detection_latency, AttackKind, Outcome};
use cfed_telemetry::{bucket_high, Histogram};

use crate::matrix::{cell_of, CellKey};
use crate::store::{read_store, ShardTallies, StoreHeader};

/// Width of the widest histogram bar, in characters.
const BAR_WIDTH: u64 = 40;

/// A cell's merged view over its completed shards.
#[derive(Debug)]
pub struct CellSummary {
    /// The cell key (see [`cell_of`]).
    pub key: String,
    /// Shards merged into `tallies`.
    pub shards_done: u64,
    /// Merged tallies.
    pub tallies: ShardTallies,
}

/// Groups shard-keyed records by cell key ([`cell_of`]; a key without a
/// shard suffix is a group of its own), in key order.
pub(crate) fn by_cell<V>(records: &BTreeMap<String, V>) -> BTreeMap<&str, Vec<(&str, &V)>> {
    let mut cells: BTreeMap<&str, Vec<(&str, &V)>> = BTreeMap::new();
    for (key, value) in records {
        cells.entry(cell_of(key).unwrap_or(key)).or_default().push((key, value));
    }
    cells
}

/// Groups a store's shard records by cell and merges each group — the one
/// per-cell merge behind the rendered reports and `run_matrix`'s per-cell
/// results. `BTreeMap` input and output keep the order deterministic.
pub fn summarize(done: &BTreeMap<String, ShardTallies>) -> Vec<CellSummary> {
    let summary = |(key, shards): (&str, Vec<(&str, &ShardTallies)>)| {
        let mut tallies = ShardTallies::default();
        for (_, shard) in &shards {
            tallies.absorb(shard);
        }
        CellSummary { key: key.to_string(), shards_done: shards.len() as u64, tallies }
    };
    by_cell(done).into_iter().map(summary).collect()
}

/// Renders the report for the store at `path`.
///
/// # Errors
///
/// Returns a message when the store cannot be read or fails to parse.
pub fn render_report(path: &Path) -> Result<String, String> {
    let (header, done, failed) = read_store(path)?;
    Ok(render_parts(&header, &summarize(&done), &failed))
}

/// Renders a report from already-loaded parts — the entry point the
/// `cfed-serve` coordinator uses to serve `/report` over HTTP from its
/// in-memory mirror while a campaign runs. Byte-identical to
/// [`render_report`] over the persisted store holding the same shards.
pub fn render_parts(
    header: &StoreHeader,
    cells: &[CellSummary],
    failed: &BTreeMap<String, String>,
) -> String {
    let mut out = String::new();
    let done: u64 = cells.iter().map(|c| c.shards_done).sum();
    let _ = writeln!(
        out,
        "run {} | seed {} | {} trials/cell | shards {done}/{}",
        header.run_id, header.seed, header.trials, header.total_shards
    );
    if !failed.is_empty() {
        let _ = writeln!(out, "failed shards: {}", failed.len());
        for (key, err) in failed {
            let _ = writeln!(out, "  {key}: {err}");
        }
    }
    if cells.is_empty() {
        let _ = writeln!(out, "no completed shards");
        return out;
    }
    for cell in cells {
        render_cell(&mut out, cell);
    }
    out
}

fn render_cell(out: &mut String, cell: &CellSummary) {
    let _ = writeln!(out, "\n== {} ==", cell.key);
    let _ = writeln!(out, "shards merged: {}", cell.shards_done);
    if cell.tallies.skipped > 0 {
        let _ = writeln!(out, "skipped injections: {}", cell.tallies.skipped);
    }

    let _ = writeln!(
        out,
        "{:>9} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} | {:>8}",
        "category", "chk", "hw", "fault", "benign", "SDC", "timeout", "coverage"
    );
    let _ = writeln!(out, "{}", "-".repeat(72));
    for (c, s) in Category::ALL.iter().zip(&cell.tallies.stats) {
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

    let all = detection_latency(&cell.tallies.lat);
    if all.is_empty() {
        let _ = writeln!(out, "no check-detected faults");
        return;
    }
    let _ = writeln!(
        out,
        "detection latency (instructions): n={} sum={} min={} max={} p50<={} p90<={} p99<={}",
        all.count(),
        all.sum(),
        all.min().unwrap_or(0),
        all.max().unwrap_or(0),
        all.percentile(0.50).unwrap_or(0),
        all.percentile(0.90).unwrap_or(0),
        all.percentile(0.99).unwrap_or(0),
    );
    render_bars(out, &all);

    // Per-category percentile rows (check-detected faults only).
    let _ = writeln!(
        out,
        "{:>9} | {:>6} | {:>8} {:>8} {:>8} | {:>8}",
        "category", "n", "p50<=", "p90<=", "p99<=", "max"
    );
    let _ = writeln!(out, "{}", "-".repeat(60));
    for (c, row) in Category::ALL.iter().zip(cell.tallies.lat.iter()) {
        let h = &row[Outcome::DetectedByCheck.idx()];
        if h.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "{:>9} | {:>6} | {:>8} {:>8} {:>8} | {:>8}",
            c.to_string(),
            h.count(),
            h.percentile(0.50).unwrap_or(0),
            h.percentile(0.90).unwrap_or(0),
            h.percentile(0.99).unwrap_or(0),
            h.max().unwrap_or(0),
        );
    }
}

/// Renders the attack detection frontier for the store at `path`: one row
/// per attack archetype, one column per technique, aggregated over every
/// workload in the store. The rendering derives exclusively from shard
/// tallies, so it is byte-identical across thread counts, kill/resume, and
/// single-process vs service runs.
///
/// # Errors
///
/// Returns a message when the store cannot be read, fails to parse, or
/// holds no attack cells.
pub fn render_attack_frontier(path: &Path) -> Result<String, String> {
    let (header, done, failed) = read_store(path)?;
    render_attack_parts(&header, &summarize(&done), &failed)
}

/// [`render_attack_frontier`] over already-loaded parts (the in-memory
/// mirror path, mirroring [`render_parts`]).
///
/// # Errors
///
/// Returns a message when the store holds no attack cells.
pub fn render_attack_parts(
    header: &StoreHeader,
    cells: &[CellSummary],
    failed: &BTreeMap<String, String>,
) -> Result<String, String> {
    // (archetype, technique) -> (detected check, detected hw, sdc, total, unplaced)
    type Tally = (u64, u64, u64, u64, u64);
    let mut grid: BTreeMap<(usize, String), Tally> = BTreeMap::new();
    let mut workloads: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for cell in cells {
        // Fault cells are left to the regular report.
        let Some(CellKey { workload, technique, attack: Some(kind), .. }) =
            CellKey::parse(&cell.key)
        else {
            continue;
        };
        workloads.insert(workload.to_string());
        let slot = grid.entry((kind.idx(), technique.to_string())).or_default();
        for s in &cell.tallies.stats {
            slot.0 += s.detected_check;
            slot.1 += s.detected_hw;
            slot.2 += s.sdc;
            slot.3 += s.total();
        }
        slot.4 += cell.tallies.skipped;
    }
    if grid.is_empty() {
        return Err("store holds no attack cells (run `cfed-campaign attack` first)".to_string());
    }

    // Canonical column order: baseline, then the paper's five techniques;
    // only columns present in the store are rendered.
    let canonical: Vec<String> = std::iter::once("baseline".to_string())
        .chain(TechniqueKind::ALL_FIVE.iter().map(ToString::to_string))
        .collect();
    let columns: Vec<&String> =
        canonical.iter().filter(|t| grid.keys().any(|(_, tech)| tech == *t)).collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "run {} | seed {} | {} trials/cell | attack detection frontier over {} workload(s)",
        header.run_id,
        header.seed,
        header.trials,
        workloads.len()
    );
    if !failed.is_empty() {
        let _ = writeln!(out, "failed shards: {}", failed.len());
        for (key, err) in failed {
            let _ = writeln!(out, "  {key}: {err}");
        }
    }
    let _ = writeln!(out, "detected = signature check + hardware trap; SDC in parentheses");
    let _ = write!(out, "{:>14}", "archetype");
    for t in &columns {
        let _ = write!(out, " | {t:>14}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(14 + columns.len() * 17));
    for kind in AttackKind::ALL {
        if !grid.keys().any(|(k, _)| *k == kind.idx()) {
            continue;
        }
        let _ = write!(out, "{:>14}", kind.name());
        for t in &columns {
            match grid.get(&(kind.idx(), (*t).clone())) {
                Some(&(chk, hw, sdc, total, _)) if total > 0 => {
                    let pct = 100.0 * (chk + hw) as f64 / total as f64;
                    let _ = write!(out, " | {:>8.1}% ({sdc:>3})", pct);
                }
                _ => {
                    let _ = write!(out, " | {:>14}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }

    // Check-only view: the frontier with hardware traps excluded, which is
    // what separates instrumentation coverage from machine luck.
    let _ = writeln!(out, "\nsignature-check detection only");
    let _ = write!(out, "{:>14}", "archetype");
    for t in &columns {
        let _ = write!(out, " | {t:>14}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(14 + columns.len() * 17));
    for kind in AttackKind::ALL {
        if !grid.keys().any(|(k, _)| *k == kind.idx()) {
            continue;
        }
        let _ = write!(out, "{:>14}", kind.name());
        for t in &columns {
            match grid.get(&(kind.idx(), (*t).clone())) {
                Some(&(chk, _, _, total, _)) if total > 0 => {
                    let _ = write!(out, " | {:>13.1}%", 100.0 * chk as f64 / total as f64);
                }
                _ => {
                    let _ = write!(out, " | {:>14}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }

    let unplaced: u64 = grid.values().map(|v| v.4).sum();
    if unplaced > 0 {
        let _ = writeln!(out, "\nunplaceable attack trials (no viable target): {unplaced}");
    }
    Ok(out)
}

/// One bar per non-empty bucket, scaled to the fullest bucket.
fn render_bars(out: &mut String, h: &Histogram) {
    let peak = h.nonzero_buckets().map(|(_, c)| c).max().unwrap_or(1);
    for (i, count) in h.nonzero_buckets() {
        let low = if i == 0 { 0 } else { bucket_high(i - 1) + 1 };
        let width = ((count * BAR_WIDTH) / peak).max(1) as usize;
        let _ = writeln!(
            out,
            "  [{:>8}..{:>8}] {:>6} |{}",
            low,
            bucket_high(i),
            count,
            "#".repeat(width)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfed_fault::{CampaignReport, Golden};

    fn golden() -> Golden {
        Golden { output: vec![7], exit_code: 0, insts: 100, branches: 9 }
    }

    fn shard(latencies: &[(Category, Outcome, u64)]) -> ShardTallies {
        let mut report = CampaignReport::new(golden());
        for &(c, o, l) in latencies {
            report.record(c, o, l);
        }
        ShardTallies::from_report(&report)
    }

    #[test]
    fn summarize_groups_and_merges_by_cell() {
        let mut done = BTreeMap::new();
        done.insert("cellA#0".to_string(), shard(&[(Category::A, Outcome::DetectedByCheck, 10)]));
        done.insert("cellA#1".to_string(), shard(&[(Category::A, Outcome::DetectedByCheck, 20)]));
        done.insert("cellB#0".to_string(), shard(&[(Category::B, Outcome::Sdc, 0)]));
        let cells = summarize(&done);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].key, "cellA");
        assert_eq!(cells[0].shards_done, 2);
        let lat = detection_latency(&cells[0].tallies.lat);
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.sum(), 30);
        assert_eq!(cells[1].key, "cellB");
        assert_eq!(cells[1].tallies.stats[1].sdc, 1);
    }

    #[test]
    fn attack_frontier_renders_archetype_by_technique() {
        let header = StoreHeader {
            run_id: "atk".into(),
            seed: 3,
            trials: 64,
            shard_trials: 64,
            digest: 1,
            total_shards: 3,
        };
        let mut done = BTreeMap::new();
        done.insert(
            "w@test|baseline|CMOVcc|ALLBB|100000|s3|t64|atk:ret-gadget#0".to_string(),
            shard(&[(Category::D, Outcome::Sdc, 0), (Category::D, Outcome::DetectedByHw, 4)]),
        );
        done.insert(
            "w@test|EdgCF|CMOVcc|ALLBB|100000|s3|t64|atk:ret-gadget#0".to_string(),
            shard(&[(Category::D, Outcome::DetectedByCheck, 9)]),
        );
        // Fault cells in the same store are ignored by the frontier.
        done.insert(
            "w@test|EdgCF|CMOVcc|ALLBB|100000|s3|t64#0".to_string(),
            shard(&[(Category::A, Outcome::Benign, 0)]),
        );
        let empty = BTreeMap::new();
        let text = render_attack_parts(&header, &summarize(&done), &empty).unwrap();
        assert!(text.contains("ret-gadget"), "{text}");
        assert!(text.contains("baseline"), "{text}");
        assert!(text.contains("EdgCF"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
        assert!(text.contains("50.0%"), "{text}");

        let faults_only: BTreeMap<String, ShardTallies> = done
            .iter()
            .filter(|(k, _)| !k.contains("|atk:"))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        assert!(render_attack_parts(&header, &summarize(&faults_only), &empty).is_err());
    }

    #[test]
    fn render_is_deterministic_over_merge_order() {
        let header = StoreHeader {
            run_id: "r".into(),
            seed: 1,
            trials: 128,
            shard_trials: 64,
            digest: 9,
            total_shards: 2,
        };
        let a =
            shard(&[(Category::A, Outcome::DetectedByCheck, 5), (Category::F, Outcome::Sdc, 0)]);
        let b = shard(&[(Category::A, Outcome::DetectedByCheck, 90)]);
        let mut forward = BTreeMap::new();
        forward.insert("c#0".to_string(), a.clone());
        forward.insert("c#1".to_string(), b.clone());
        // Same shards, merged from a different insertion order.
        let mut backward = BTreeMap::new();
        backward.insert("c#1".to_string(), b);
        backward.insert("c#0".to_string(), a);
        let empty = BTreeMap::new();
        assert_eq!(
            render_parts(&header, &summarize(&forward), &empty),
            render_parts(&header, &summarize(&backward), &empty)
        );
        let text = render_parts(&header, &summarize(&forward), &empty);
        assert!(text.contains("== c =="), "{text}");
        assert!(text.contains("p50<="), "{text}");
    }
}
