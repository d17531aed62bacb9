//! Code-cache eviction under pressure: a tight cache limit forces full
//! flushes and retranslation, and guest behaviour must be unchanged.

use std::sync::Arc;

use cfed_dbt::{Dbt, NullInstrumenter, UpdateStyle};
use cfed_lang::compile;
use cfed_sim::{ExitReason, Machine};
use cfed_telemetry::{json::Json, MemorySink, Telemetry};

const PROGRAM: &str = r#"
    fn classify(x) {
        let r = 0;
        if (x % 4 == 0) { r = 1; } else { r = 2; }
        if (x % 3 == 0) { r = r + 10; } else { r = r + 20; }
        if (x % 5 == 0) { r = r + 100; } else { r = r + 200; }
        return r;
    }
    fn main() {
        let i = 0;
        let acc = 0;
        while (i < 200) { acc = acc + classify(i); i = i + 1; }
        out(acc);
    }
"#;

fn run(cache_limit: Option<u64>) -> (ExitReason, Vec<u64>, cfed_dbt::DbtStats) {
    let image = compile(PROGRAM).unwrap();
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    if let Some(limit) = cache_limit {
        dbt.set_cache_limit(limit);
    }
    let exit = dbt.run(&mut m, 50_000_000);
    (exit, m.cpu.take_output(), dbt.stats())
}

#[test]
fn roomy_cache_never_evicts() {
    let (exit, _, stats) = run(None);
    assert!(matches!(exit, ExitReason::Halted { .. }));
    assert_eq!(stats.cache_evictions, 0);
    assert_eq!(stats.retranslations, 0);
}

#[test]
fn tight_cache_evicts_and_preserves_behaviour() {
    let (exit_roomy, out_roomy, _) = run(None);
    // The minimum usable limit: eviction fires on almost every translation.
    let (exit_tight, out_tight, stats) = run(Some(0));
    assert_eq!(exit_roomy, exit_tight);
    assert_eq!(out_roomy, out_tight);
    assert!(stats.cache_evictions > 0, "tight cache must evict: {stats:?}");
    assert!(stats.retranslations > 0, "evicted blocks must retranslate: {stats:?}");
}

#[test]
fn run_end_emits_dbt_stats_event() {
    let image = compile(PROGRAM).unwrap();
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    dbt.set_cache_limit(0);
    let sink = Arc::new(MemorySink::new());
    dbt.set_telemetry(Telemetry::to(sink.clone()));
    let exit = dbt.run(&mut m, 50_000_000);
    assert!(matches!(exit, ExitReason::Halted { .. }));

    let events = sink.of_kind("dbt_stats");
    assert_eq!(events.len(), 1);
    let ev = &events[0];
    // The full payload, in order: a counter cannot silently drop out.
    let Json::Obj(pairs) = ev.to_json() else { panic!("event renders as an object") };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "ev",
            "technique",
            "blocks",
            "guest_insts",
            "cache_insts",
            "chains",
            "dispatches",
            "smc_flushes",
            "cache_evictions",
            "retranslations",
            "dispatch_ic_hits",
            "translate_us",
        ]
    );
    let stats = dbt.stats();
    assert_eq!(ev.get("blocks").and_then(Json::as_u64), Some(stats.blocks));
    assert_eq!(ev.get("cache_evictions").and_then(Json::as_u64), Some(stats.cache_evictions));
    assert_eq!(ev.get("retranslations").and_then(Json::as_u64), Some(stats.retranslations));
    // The translation-time histogram rides along, one sample per block.
    let hist = cfed_telemetry::Histogram::from_json(ev.get("translate_us").unwrap()).unwrap();
    assert_eq!(hist.count(), stats.blocks);
}
