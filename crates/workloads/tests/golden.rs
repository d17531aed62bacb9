//! Golden-output regression tests: the workloads are the oracle of every
//! fault-injection experiment, so their outputs must never drift silently.

use cfed_sim::{ExitReason, Machine};
use cfed_workloads::{Scale, ALL};

fn outputs(image: &cfed_asm::Image) -> Vec<u64> {
    let mut m = Machine::load(image.code(), image.data(), image.entry_offset());
    assert_eq!(m.run(300_000_000), ExitReason::Halted { code: 0 });
    m.cpu.take_output()
}

/// Golden first/last output values per workload at `Scale::Test` (full
/// streams are long; first+last+len pin the computation down).
const GOLDEN: &[(&str, usize, u64, u64)] = &[
    // (name, output_len, first, last)
    ("168.wupwise", 1, 15624787, 15624787),
    ("171.swim", 1, 329370, 329370),
    ("172.mgrid", 1, 8096258, 8096258),
    ("173.applu", 1, 5847894, 5847894),
    ("177.mesa", 1, 563048, 563048),
    ("178.galgel", 1, 3717571, 3717571),
    ("179.art", 1, 14774032, 14774032),
    ("183.equake", 1, 3927919, 3927919),
    ("187.facerec", 1, 67, 67),
    ("188.ammp", 1, 12168249, 12168249),
    ("189.lucas", 1, 339359890, 339359890),
    ("191.fma3d", 1, 1032122, 1032122),
    ("200.sixtrack", 1, 9126801, 9126801),
    ("301.apsi", 1, 2099348, 2099348),
    ("164.gzip", 2, 29, 2497882),
    ("175.vpr", 2, 42, 12228),
    ("176.gcc", 1, 9223372036854775799, 9223372036854775799),
    ("181.mcf", 2, 49, 11003071),
    ("186.crafty", 1, 244, 244),
    ("197.parser", 1, 485079, 485079),
    ("252.eon", 1, 1890, 1890),
    ("253.perlbmk", 2, 184201021, 0),
    ("254.gap", 1, 620955, 620955),
    ("255.vortex", 2, 53, 5),
    ("256.bzip2", 2, 0, 10796406),
    ("300.twolf", 2, 51, 8),
];

#[test]
#[ignore = "regenerates the golden table (run with --ignored and paste)"]
fn print_golden_table() {
    for w in &ALL {
        let out = outputs(&w.image(Scale::Test).unwrap());
        println!(
            "(\"{}\", {}, {}, {}),",
            w.name,
            out.len(),
            out.first().copied().unwrap_or(0),
            out.last().copied().unwrap_or(0)
        );
    }
}

#[test]
fn outputs_match_golden() {
    assert_eq!(GOLDEN.len(), ALL.len(), "golden table must cover every workload");
    for &(name, len, first, last) in GOLDEN {
        let w = cfed_workloads::by_name(name).expect("workload exists");
        let out = outputs(&w.image(Scale::Test).unwrap());
        assert_eq!(out.len(), len, "{name}: output length changed");
        assert_eq!(out.first().copied(), Some(first), "{name}: first output changed");
        assert_eq!(out.last().copied(), Some(last), "{name}: last output changed");
    }
}
