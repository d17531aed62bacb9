//! Forensics-bundle coverage: a known single-bit branch-offset fault must
//! yield a bundle naming the faulted instruction, the flipped bit, and a
//! non-empty trace window ending at the detection point.

use cfed_core::{RunConfig, TechniqueKind};
use cfed_fault::{golden_run, inject, AttackKind, AttackSpec, FaultSpec, ForensicsBundle, Outcome};
use cfed_lang::compile;
use cfed_telemetry::json::Json;

fn image() -> cfed_asm::Image {
    compile(
        r#"
        fn main() {
            let i = 0;
            let acc = 0;
            while (i < 40) {
                if (i % 3 == 0) { acc = acc + i; } else { acc = acc + 1; }
                i = i + 1;
            }
            out(acc);
        }
        "#,
    )
    .unwrap()
}

#[test]
fn bundle_names_fault_site_bit_and_trace_window() {
    let img = image();
    let cfg = RunConfig::technique(TechniqueKind::Rcf);
    let g = golden_run(&img, &cfg).unwrap();

    // Scan the low offset bits for a check-detected fault: a known
    // single-bit branch-offset flip with a real detection point.
    let mut found = None;
    'scan: for nth in 0..g.branches.min(80) {
        for bit in [3u8, 4, 5] {
            let spec = FaultSpec::AddrBit { nth, bit };
            if let Some(r) = inject(&img, &cfg, spec, &g, None).unwrap() {
                if r.outcome == Outcome::DetectedByCheck {
                    found = Some((spec, r));
                    break 'scan;
                }
            }
        }
    }
    let (spec, plain) = found.expect("RCF detects some low-bit offset fault");
    let FaultSpec::AddrBit { bit, .. } = spec else { unreachable!() };

    // Re-injection with a window large enough to retain the whole
    // injection-to-detection stretch.
    let window = (plain.latency_insts + 16) as usize;
    let bundle = ForensicsBundle::capture_with(&img, &cfg, spec, &g, window, None)
        .expect("previously placed fault re-injects");

    // Deterministic reproduction: identical result.
    assert_eq!(bundle.result, plain);

    let j = bundle.to_json();
    assert_eq!(j.get("fault").and_then(Json::as_str), Some("addr_bit"));
    assert_eq!(j.get("site").and_then(Json::as_u64), Some(plain.site));
    assert_eq!(j.get("flipped_bit").and_then(Json::as_u64), Some(bit as u64));
    assert_eq!(j.get("outcome").and_then(Json::as_str), Some("detected(check)"));

    let trace = j.get("trace").expect("bundle carries a trace");
    let entries = trace.get("window").and_then(Json::as_arr).expect("window array");
    assert!(!entries.is_empty(), "trace window must be non-empty");

    // The faulted branch itself retired (its corrupted offset stayed in
    // code), so the window contains the fault site...
    let addrs: Vec<u64> =
        entries.iter().filter_map(|e| e.get("addr").and_then(Json::as_u64)).collect();
    assert!(addrs.contains(&plain.site), "window must contain the faulted site {:#x}", plain.site);

    // ...and ends at the detection point: the last retired instruction is
    // the taken check branch into the error stub (the detecting trap never
    // commits, so nothing can follow it).
    let last = entries.last().unwrap();
    assert_eq!(last.get("taken"), Some(&Json::Bool(true)), "trace must end at the detection");

    // The branch history rides along, non-empty as well.
    let branches = trace.get("branches").and_then(Json::as_arr).expect("branches array");
    assert!(!branches.is_empty());
}

#[test]
fn wanted_selects_bad_endings() {
    use cfed_core::Category;
    use cfed_fault::InjectionResult;
    let r = |category, outcome| InjectionResult {
        outcome,
        category,
        site: 0,
        latency_insts: 0,
        instrumentation_landing: false,
    };
    assert!(ForensicsBundle::wanted(&r(Category::A, Outcome::Sdc)));
    assert!(ForensicsBundle::wanted(&r(Category::B, Outcome::Timeout)));
    // Misdetection: supposedly harmless, yet not benign.
    assert!(ForensicsBundle::wanted(&r(Category::NoError, Outcome::DetectedByCheck)));
    assert!(!ForensicsBundle::wanted(&r(Category::NoError, Outcome::Benign)));
    assert!(!ForensicsBundle::wanted(&r(Category::A, Outcome::DetectedByCheck)));
}

/// Window of the pinned bundles: short enough to spell out in full.
const PINNED_WINDOW: usize = 8;

/// The complete serialized bundle of one check-detected fault — key order,
/// values and trace — as the `forensics` event carries it.
#[test]
fn fault_bundle_json_is_pinned() {
    let img = image();
    let cfg = RunConfig::technique(TechniqueKind::Rcf);
    let g = golden_run(&img, &cfg).unwrap();
    let spec = FaultSpec::AddrBit { nth: 11, bit: 5 };
    let bundle =
        ForensicsBundle::capture_with(&img, &cfg, spec, &g, PINNED_WINDOW, None).expect("places");
    let expected = concat!(
        r#"{"fault":"addr_bit","nth_branch":11,"flipped_bit":5,"site":5243232,"category":"E","#,
        r#""outcome":"detected(check)","latency_insts":7,"trace":{"retired":48,"window":["#,
        r#"{"addr":5243232,"inst":"jmp +40"},{"addr":5243280,"inst":"ld r1, [r6-8]"},"#,
        r#"{"addr":5243288,"inst":"add r0, r1"},{"addr":5243296,"inst":"st [r6-16], r0"},"#,
        r#"{"addr":5243304,"inst":"lea r8, [r8+63]"},{"addr":5243312,"inst":"jmp +0"},"#,
        r#"{"addr":5243320,"inst":"lea r11, [r8-65760]"},"#,
        r#"{"addr":5243328,"inst":"jrnz r11, -456","taken":true}],"branches":["#,
        r#"{"addr":5243088,"inst":"jmp +8"},{"addr":5243112,"inst":"jrnz r11, -240","taken":false},"#,
        r#"{"addr":5243192,"inst":"jne +16","taken":false},{"addr":5243208,"inst":"jmp +8"},"#,
        r#"{"addr":5243224,"inst":"jne +8","taken":false},{"addr":5243232,"inst":"jmp +40"},"#,
        r#"{"addr":5243312,"inst":"jmp +0"},{"addr":5243328,"inst":"jrnz r11, -456","taken":true}]}}"#,
    );
    assert_eq!(bundle.to_json().render(), expected);
}

/// The complete serialized bundle of one attack — provenance included —
/// as the `attack_forensics` event carries it.
#[test]
fn attack_bundle_json_is_pinned() {
    let img = image();
    let cfg = RunConfig::technique(TechniqueKind::EdgCf);
    let g = golden_run(&img, &cfg).unwrap();
    let spec = AttackSpec { kind: AttackKind::EdgeSplice, nth: 12, param: 5 };
    let bundle =
        ForensicsBundle::capture_with(&img, &cfg, spec, &g, PINNED_WINDOW, None).expect("places");
    let expected = concat!(
        r#"{"attack":"edge-splice","nth_branch":12,"param":5,"site":5243216,"target":5243096,"#,
        r#""attribution":{"guest_block":65632,"part":"payload"},"category":"E","#,
        r#""outcome":"benign","latency_insts":1176,"trace":{"retired":1213,"window":["#,
        r#"{"addr":5243560,"inst":"mov sp, r6"},{"addr":5243568,"inst":"pop r6"},"#,
        r#"{"addr":5243576,"inst":"pop r13"},{"addr":5243584,"inst":"lea r8, [r8+r13+0]"},"#,
        r#"{"addr":5243600,"inst":"lea r8, [r8-65544]"},"#,
        r#"{"addr":5243608,"inst":"jrnz r8, -736","taken":false},"#,
        r#"{"addr":5243616,"inst":"jrnz r8, -744","taken":false},{"addr":5243624,"inst":"halt"}],"#,
        r#""branches":[{"addr":5243280,"inst":"jrnz r8, -408","taken":false},"#,
        r#"{"addr":5243328,"inst":"jl +16","taken":false},{"addr":5243344,"inst":"jmp +8"},"#,
        r#"{"addr":5243360,"inst":"jl +8","taken":false},{"addr":5243368,"inst":"jmp +144"},"#,
        r#"{"addr":5243528,"inst":"jrnz r8, -656","taken":false},"#,
        r#"{"addr":5243608,"inst":"jrnz r8, -736","taken":false},"#,
        r#"{"addr":5243616,"inst":"jrnz r8, -744","taken":false}]}}"#,
    );
    assert_eq!(bundle.to_json().render(), expected);
}
