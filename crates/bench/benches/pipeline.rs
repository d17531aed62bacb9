//! Criterion microbenchmarks for the reproduction's substrates and the
//! per-technique instrumentation cost (the host-side complements of the
//! guest-cycle figures):
//!
//! * `codec` — VISA binary encode/decode throughput;
//! * `interpreter` — simulated instructions per second;
//! * `dispatch` — decode-once engine ablation: raw vs pre-decoded
//!   interpreter dispatch, and DBT per-step vs block-fused execution;
//! * `translate` — DBT block-translation cost per technique (ablation:
//!   instrumentation emission overhead);
//! * `run_technique` — end-to-end workload execution per technique
//!   (host-time view of Figure 12's guest-cycle view);
//! * `error_model` — §2 bit-classification throughput;
//! * `compile_minic` — MiniC front-end+codegen throughput.

use cfed_core::{run_dbt, RunConfig, TechniqueKind};
use cfed_dbt::{Dbt, NullInstrumenter, UpdateStyle};
use cfed_fault::analyze_image;
use cfed_isa::{encode_all, AluOp, Cond, Inst, Reg};
use cfed_sim::Machine;
use cfed_workloads::{by_name, Scale};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;

fn sample_insts() -> Vec<Inst> {
    let mut v = Vec::new();
    for i in 0..64 {
        v.push(Inst::MovRI { dst: Reg::R0, imm: i });
        v.push(Inst::Alu { op: AluOp::Add, dst: Reg::R1, src: Reg::R0 });
        v.push(Inst::Ld { dst: Reg::R2, base: Reg::SP, disp: -8 });
        v.push(Inst::Jcc { cc: Cond::Ne, offset: i * 8 });
        v.push(Inst::Lea2 { dst: Reg::R8, base: Reg::R8, index: Reg::R9, disp: 1 });
    }
    v
}

fn bench_codec(c: &mut Criterion) {
    let insts = sample_insts();
    let bytes = encode_all(&insts);
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Elements(insts.len() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| {
            for i in &insts {
                black_box(i.encode());
            }
        })
    });
    g.throughput(Throughput::Elements(insts.len() as u64));
    g.bench_function("decode", |b| {
        b.iter(|| {
            for chunk in bytes.chunks_exact(8) {
                let arr: &[u8; 8] = chunk.try_into().unwrap();
                black_box(Inst::decode(arr).unwrap());
            }
        })
    });
    g.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let image = by_name("189.lucas").unwrap().image(Scale::Test).unwrap();
    let mut g = c.benchmark_group("interpreter");
    // How many instructions does one run retire?
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    m.run(u64::MAX);
    let insts = m.cpu.stats().insts;
    g.throughput(Throughput::Elements(insts));
    g.bench_function("native_lucas", |b| {
        b.iter_batched(
            || Machine::load(image.code(), image.data(), image.entry_offset()),
            |mut m| {
                black_box(m.run(u64::MAX));
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    let image = by_name("189.lucas").unwrap().image(Scale::Test).unwrap();
    let mut g = c.benchmark_group("dispatch");
    let load = || Machine::load(image.code(), image.data(), image.entry_offset());
    let mut m = load();
    m.run(u64::MAX);
    g.throughput(Throughput::Elements(m.cpu.stats().insts));
    for (name, cached) in [("interp_raw", false), ("interp_decoded", true)] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut m = load();
                    m.set_decode_cache(cached);
                    m
                },
                |mut m| {
                    black_box(m.run(u64::MAX));
                },
                BatchSize::SmallInput,
            )
        });
    }
    // The DBT retires extra instrumentation/stub instructions; recount so
    // both DBT rows use the same per-element denominator.
    let mut m = load();
    let mut dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
    dbt.run(&mut m, u64::MAX);
    g.throughput(Throughput::Elements(m.cpu.stats().insts));
    for (name, fused) in [("dbt_per_step", false), ("dbt_block_fused", true)] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut m = load();
                    m.set_decode_cache(fused);
                    let dbt = Dbt::new(Box::new(NullInstrumenter), UpdateStyle::Jcc, &mut m);
                    (m, dbt)
                },
                |(mut m, mut dbt)| {
                    black_box(dbt.run(&mut m, u64::MAX));
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_translation(c: &mut Criterion) {
    let image = by_name("176.gcc").unwrap().image(Scale::Test).unwrap();
    let mut g = c.benchmark_group("translate");
    // Translate every statically recoverable block, per technique.
    let cfg = cfed_core::cfg::Cfg::recover(&image);
    let starts: Vec<u64> = cfg.blocks().iter().map(|b| b.start).collect();
    g.throughput(Throughput::Elements(starts.len() as u64));
    type Make = Box<dyn Fn() -> Box<dyn cfed_dbt::Instrumenter>>;
    let mut cases: Vec<(&str, Make)> = vec![("baseline", Box::new(|| Box::new(NullInstrumenter)))];
    for kind in TechniqueKind::ALL {
        let name = match kind {
            TechniqueKind::Rcf => "rcf",
            TechniqueKind::EdgCf => "edgcf",
            TechniqueKind::Ecf => "ecf",
            other => unreachable!("ALL contains only DBT techniques, got {other}"),
        };
        cases.push((name, Box::new(move || kind.instrumenter(cfed_dbt::CheckPolicy::AllBb))));
    }
    for (name, make) in cases {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
                    let dbt = Dbt::new(make(), UpdateStyle::Jcc, &mut m);
                    (m, dbt)
                },
                |(mut m, mut dbt)| {
                    for &s in &starts {
                        black_box(dbt.translate(&mut m, s).unwrap());
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_techniques_end_to_end(c: &mut Criterion) {
    let image = by_name("181.mcf").unwrap().image(Scale::Test).unwrap();
    let mut g = c.benchmark_group("run_technique");
    g.bench_function("baseline", |b| b.iter(|| black_box(run_dbt(&image, &RunConfig::baseline()))));
    for kind in TechniqueKind::ALL {
        g.bench_function(kind.to_string(), |b| {
            b.iter(|| black_box(run_dbt(&image, &RunConfig::technique(kind))))
        });
    }
    g.finish();
}

fn bench_error_model(c: &mut Criterion) {
    let image = by_name("171.swim").unwrap().image(Scale::Test).unwrap();
    let mut g = c.benchmark_group("error_model");
    g.bench_function("analyze_swim", |b| b.iter(|| black_box(analyze_image(&image, u64::MAX))));
    g.finish();
}

fn bench_compile(c: &mut Criterion) {
    let src = by_name("176.gcc").unwrap().source(Scale::Test);
    let mut g = c.benchmark_group("compile_minic");
    g.throughput(Throughput::Bytes(src.len() as u64));
    g.bench_function("gcc_analog", |b| b.iter(|| black_box(cfed_lang::compile(&src).unwrap())));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_codec, bench_interpreter, bench_dispatch, bench_translation,
              bench_techniques_end_to_end, bench_error_model,
              bench_compile
}
criterion_main!(benches);
