//! Code-cache eviction under pressure: a tight cache limit forces full
//! flushes and retranslation, and guest behaviour must be unchanged. The
//! block table's invariants are checked step by step across chaining, SMC
//! flushes and evictions.

use std::collections::HashSet;
use std::sync::Arc;

use cfed_asm::Image;
use cfed_dbt::{Dbt, DbtStep, NullInstrumenter, TransBlock, UpdateStyle};
use cfed_isa::{Inst, Reg, INST_SIZE_U64};
use cfed_lang::compile;
use cfed_sim::{ExitReason, Machine, PAGE_SIZE};
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

/// Checks the block table against the engine's other views of it:
/// `blocks()` is strictly ascending and disjoint in the cache,
/// `block_containing` answers as a linear scan would for every cache slot,
/// `lookup` finds exactly the live blocks by guest start, and every direct
/// transfer inside a live translation lands on a live translation or the
/// shared error stub (no exit stays chained to a flushed block).
fn check_block_table(dbt: &Dbt, m: &Machine) {
    let blocks: Vec<TransBlock> = dbt.blocks().copied().collect();
    for b in &blocks {
        assert!(b.cache_start < b.cache_end, "empty translation {b:?}");
    }
    for pair in blocks.windows(2) {
        assert!(pair[0].cache_end <= pair[1].cache_start, "out of cache order: {pair:?}");
    }

    let cache = dbt.cache_region();
    let end = blocks.last().map_or(cache.start, |b| b.cache_end) + 2 * INST_SIZE_U64;
    for slot in (cache.start..end).step_by(INST_SIZE_U64 as usize) {
        let scan = blocks.iter().find(|b| b.cache_range().contains(&slot));
        assert_eq!(dbt.block_containing(slot), scan, "cache slot {slot:#x}");
    }

    let starts: HashSet<u64> = blocks.iter().map(|b| b.guest_start).collect();
    assert_eq!(starts.len(), blocks.len(), "one live translation per guest start");
    for b in &blocks {
        assert_eq!(dbt.lookup(b.guest_start), Some(b));
    }
    for guest in m.code_range().step_by(INST_SIZE_U64 as usize) {
        assert_eq!(dbt.lookup(guest).is_some(), starts.contains(&guest), "guest {guest:#x}");
    }

    for b in &blocks {
        for site in b.cache_range().step_by(INST_SIZE_U64 as usize) {
            let Some(Ok(inst)) = Inst::decode_from_slice(m.mem.peek(site, 8)) else { continue };
            let Some(target) = inst.direct_target(site) else { continue };
            if cache.contains(&target) && target != dbt.err_stub() {
                assert!(
                    dbt.block_containing(target).is_some(),
                    "{inst:?} at {site:#x} jumps to {target:#x}, outside every live block"
                );
            }
        }
    }
}

/// Steps `image` under the DBT to its end, checking the block table after
/// every step; returns the output and the final statistics.
fn step_checked(image: &Image, cache_limit: Option<u64>) -> (Vec<u64>, cfed_dbt::DbtStats) {
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    if let Some(limit) = cache_limit {
        dbt.set_cache_limit(limit);
    }
    loop {
        let step = dbt.step(&mut m);
        check_block_table(&dbt, &m);
        match step {
            DbtStep::Continue => {}
            DbtStep::Halted => return (m.cpu.take_output(), dbt.stats()),
            DbtStep::Exit(t) => panic!("unexpected trap {t:?}"),
        }
    }
}

#[test]
fn block_table_invariants_hold_across_chaining() {
    let image = compile("fn main() { let i = 0; while (i < 300) { i = i + 1; } out(i); }").unwrap();
    let (out, stats) = step_checked(&image, None);
    assert_eq!(out, [300]);
    assert!(stats.chains > 0, "the loop must chain: {stats:?}");
}

#[test]
fn block_table_invariants_hold_across_smc_flushes() {
    // The caller's blocks (first code page) chain into `victim`, which sits
    // on a later page behind dead padding. Overwriting `victim` flushes only
    // its page, so the caller's blocks stay live and must be unchained.
    let mut asm = cfed_asm::Asm::new();
    let patch = asm.data_u64(&[u64::from_le_bytes(Inst::Out { src: Reg::R1 }.encode())]);
    asm.label("start");
    asm.movri(Reg::R0, 1);
    asm.movri(Reg::R1, 2);
    asm.call("victim");
    asm.mov_addr(Reg::R2, patch);
    asm.ld(Reg::R3, Reg::R2, 0);
    asm.mov_label(Reg::R4, "victim");
    asm.st(Reg::R4, Reg::R3, 0);
    asm.call("victim");
    asm.halt();
    for _ in 0..PAGE_SIZE / INST_SIZE_U64 {
        asm.nop();
    }
    asm.label("victim");
    asm.out(Reg::R0);
    asm.ret();
    let image = asm.assemble("start").unwrap();
    let victim = image.symbol("victim").unwrap();
    assert_ne!(victim / PAGE_SIZE, image.base() / PAGE_SIZE, "victim on its own page");

    let (out, stats) = step_checked(&image, None);
    assert_eq!(out, [1, 2], "the patched victim runs");
    assert!(stats.smc_flushes >= 1 && stats.chains >= 2, "{stats:?}");
}

#[test]
fn block_table_invariants_hold_across_evictions() {
    let image = compile(PROGRAM).unwrap();
    let (out_roomy, _) = step_checked(&image, None);
    let (out_tight, stats) = step_checked(&image, Some(0));
    assert_eq!(out_roomy, out_tight);
    assert!(stats.cache_evictions > 0, "tight cache must evict: {stats:?}");
}
