//! Compile-output pinning: every workload's `Image` at `Scale::Test` and
//! `Scale::Full` must stay byte-identical. The digest covers the code bytes,
//! the data section, the entry offset and the full symbol table (names and
//! addresses), so a change to instruction selection, data layout or label
//! naming in the MiniC front end or the assembler fails here.

use cfed_asm::Image;
use cfed_workloads::{Scale, ALL};

/// FNV-1a over a length-prefixed serialization of the image.
fn digest(image: &Image) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(image.code());
    eat(image.data());
    eat(&image.base().to_le_bytes());
    eat(&image.entry_offset().to_le_bytes());
    for (name, addr) in image.symbols() {
        eat(name.as_bytes());
        eat(&addr.to_le_bytes());
    }
    h
}

fn check(scale: Scale, pinned: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = ALL
        .iter()
        .map(|w| {
            let image = w.image(scale).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            (w.name, digest(&image))
        })
        .collect();
    if got != pinned {
        for (name, d) in &got {
            eprintln!("    (\"{name}\", {d:#018x}),");
        }
        panic!("{scale:?} image digests changed (current values above)");
    }
}

#[test]
fn test_scale_images_are_pinned() {
    check(Scale::Test, TEST);
}

#[test]
fn full_scale_images_are_pinned() {
    check(Scale::Full, FULL);
}

const TEST: &[(&str, u64)] = &[
    ("168.wupwise", 0xa59fddb81550f1a4),
    ("171.swim", 0x9caeece922a45db7),
    ("172.mgrid", 0xbe198cb3722e249a),
    ("173.applu", 0x4b89144677841db1),
    ("177.mesa", 0x5d7bca563334ee7b),
    ("178.galgel", 0x7ce93861fa4ef9b4),
    ("179.art", 0x604f10aece77504e),
    ("183.equake", 0xecee811c92d630e3),
    ("187.facerec", 0xbf187d65a5148b6c),
    ("188.ammp", 0x9edea82bf501a4ab),
    ("189.lucas", 0x3ffb0772c335868c),
    ("191.fma3d", 0xc4e5b15abd963933),
    ("200.sixtrack", 0x8db67fa624254e14),
    ("301.apsi", 0x2de341d387c2eac4),
    ("164.gzip", 0x1f82c7fa827c23d7),
    ("175.vpr", 0xf569c973608a17e7),
    ("176.gcc", 0xdc07c3e3100e5a38),
    ("181.mcf", 0xf374e39f44dffe61),
    ("186.crafty", 0xf36814d67a79e7df),
    ("197.parser", 0x1d65e0a9d95d5422),
    ("252.eon", 0x9b3fd40712b7a4b7),
    ("253.perlbmk", 0xbf9280a23cb2c14e),
    ("254.gap", 0xe8d00d7cf802020d),
    ("255.vortex", 0xc9dc0b91e941d392),
    ("256.bzip2", 0x03c0bf40dfe8bf78),
    ("300.twolf", 0xb5ae380f168fd861),
];

const FULL: &[(&str, u64)] = &[
    ("168.wupwise", 0x9e157a48370e32cf),
    ("171.swim", 0x8c6a0e39c96d1bf1),
    ("172.mgrid", 0xab3b9e453704d707),
    ("173.applu", 0xb8a6177cfa192d8a),
    ("177.mesa", 0x16135a2228cacedd),
    ("178.galgel", 0x60295f127e1a9429),
    ("179.art", 0x16c605a99d381376),
    ("183.equake", 0x615a3a42416b3b7e),
    ("187.facerec", 0xd1712b2302765623),
    ("188.ammp", 0xb6714744c14811c4),
    ("189.lucas", 0x0f7b96ab3d809d43),
    ("191.fma3d", 0xdc0ff6ceadd02b03),
    ("200.sixtrack", 0x8f0bd7107159756a),
    ("301.apsi", 0x6d0604b3c27466bd),
    ("164.gzip", 0x7e97287b4e2c9fa1),
    ("175.vpr", 0x92726fdeaa4d8e6c),
    ("176.gcc", 0xdc3eae604df70706),
    ("181.mcf", 0xa8a475637b743e84),
    ("186.crafty", 0x574e234475e1b3ad),
    ("197.parser", 0x08d6e0cecfaf76a7),
    ("252.eon", 0xa0fdd735ee4cdb50),
    ("253.perlbmk", 0x7b13c634224d9b4e),
    ("254.gap", 0x268cf62bdd270f05),
    ("255.vortex", 0x138efb2ca4d5cbef),
    ("256.bzip2", 0x0d9f45c09b6ec3dc),
    ("300.twolf", 0xa38decbdf6244a21),
];
