//! A tour of the compilation pipeline: MiniC source → AST → VISA assembly
//! listing → CFG recovery → execution under the DBT, showing what the
//! translator actually emits for one basic block under each technique.
//!
//! Run with: `cargo run --example minic_pipeline`

use cfed::core::cfg::Cfg;
use cfed::core::TechniqueKind;
use cfed::dbt::{Dbt, UpdateStyle};
use cfed::isa::disassemble;
use cfed::lang::{check, parse};
use cfed::sim::Machine;

fn main() {
    let source = r#"
        global hist[8];
        fn bucket(x) { return x % 8; }
        fn main() {
            let i = 0;
            while (i < 32) {
                let b = bucket(i * 37 + 11);
                hist[b] = hist[b] + 1;
                i = i + 1;
            }
            let j = 0;
            while (j < 8) { out(hist[j]); j = j + 1; }
        }
    "#;

    // Front end.
    let ast = parse(source).expect("parses");
    println!("parsed: {} global(s), {} function(s)", ast.globals.len(), ast.functions.len());
    let info = check(&ast).expect("semantically valid");
    for (f, fi) in ast.functions.iter().zip(&info.functions) {
        let name = ast.name(f.name);
        println!("  fn {name}: {} param(s), {} local slot(s)", fi.arity, fi.locals);
    }

    // Code generation + listing.
    let image = cfed::lang::codegen::generate(&ast, &info).expect("codegen");
    println!("\nassembly listing (first 24 instructions):");
    for line in image.listing().lines().take(24) {
        println!("  {line}");
    }

    // Static CFG recovery.
    let cfg = Cfg::recover(&image);
    println!(
        "\nrecovered CFG: {} blocks, mean block length {:.1} instructions",
        cfg.blocks().len(),
        cfg.mean_block_len()
    );

    // What the DBT emits for the entry block under each technique.
    for kind in TechniqueKind::ALL {
        let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
        let mut dbt =
            Dbt::new(kind.instrumenter(cfed::dbt::CheckPolicy::AllBb), UpdateStyle::Jcc, &mut m);
        dbt.attach(&mut m).expect("attach");
        let entry = dbt.lookup(image.entry()).expect("entry translated");
        let len = (entry.cache_end - entry.cache_start) as usize;
        println!("\n{kind} translation of the entry block ({} cache bytes):", len);
        let bytes = m.mem.peek(entry.cache_start, len).to_vec();
        for line in disassemble(&bytes, entry.cache_start).lines() {
            println!("  {line}");
        }
        // Run it to completion for good measure.
        let exit = dbt.run(&mut m, 10_000_000);
        println!("  -> {exit:?}, output {:?}", m.cpu.output());
    }
}
