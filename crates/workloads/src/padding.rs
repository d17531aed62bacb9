//! Cold-code padding: never-executed functions appended to each workload so
//! the program's *static code footprint* resembles a real application's.
//!
//! The §2 error model classifies faulted branch targets against the whole
//! code region: a SPEC binary is hundreds of kilobytes, so many offset-bit
//! flips land in *cold* code (categories D/E) rather than outside the code
//! region (category F). Without padding our synthetic workloads would be a
//! few kilobytes and category F would absorb most of the probability mass
//! that the paper attributes to D/E. The padding is suite-flavoured:
//! integer-style padding is branchy (small blocks), fp-style padding is
//! straight-line (large blocks), so landings in cold code classify with the
//! same B/C/D/E balance as the hot code around them.

use crate::Suite;
use std::fmt::Write as _;

/// The global declaration shared by all cold functions (emit exactly once).
pub fn sink_decl() -> &'static str {
    "global __cold_sink[16];\n"
}

/// Generates cold functions numbered `start..end`, flavoured for `suite`,
/// without the sink declaration, so padding can be split around the hot
/// kernel (hot code in the *middle* of the image, as in a real binary's
/// function layout).
///
/// The functions reference a shared global but are never called from
/// `main`; MiniC performs no dead-code elimination, so they occupy code
/// space exactly like the cold paths of a real binary.
pub fn cold_fns(suite: Suite, start: usize, end: usize) -> String {
    let mut out = String::new();
    for k in start..end {
        match suite {
            Suite::Int => {
                // Branchy: chains of small conditional updates.
                writeln!(
                    out,
                    r#"
                    fn __cold_{k}(x, y) {{
                        let pr = x + {k};
                        if (x < y) {{ pr = pr + 3; }} else {{ pr = pr - 1; }}
                        if (pr & 1) {{ pr = pr * 3 + 1; }}
                        if (pr & 2) {{ pr = pr + y; }} else {{ pr = pr ^ y; }}
                        let pi = 0;
                        while (pi < y) {{
                            if (pi & 1) {{ pr = pr + pi; }} else {{ pr = pr - pi; }}
                            pi = pi + 1;
                        }}
                        if (pr & 4) {{ __cold_sink[{slot}] = pr; }}
                        if (pr & 8) {{ pr = pr >> 1; }} else {{ pr = pr << 1; }}
                        return pr;
                    }}"#,
                    k = k,
                    slot = k % 16,
                )
                .unwrap_or(());
            }
            Suite::Fp => {
                // Straight-line: one long arithmetic block.
                writeln!(
                    out,
                    r#"
                    fn __cold_{k}(x, y) {{
                        let pa = x * 3 + y * 5 + {k};
                        let pb = (pa >> 2) + (x << 1) + (y ^ pa);
                        let pc = pa * pb + (pa & 0xFFFF) + (pb | 7) + (x * y);
                        let pd = (pc >> 3) + pa * 7 + pb * 11 + (pc & 0xFFF);
                        let pe = pd + (pa >> 1) + (pb >> 2) + (pc >> 4) + (pd >> 5);
                        let pf = pe * 3 + pd * 5 + pc * 7 + pb * 11 + pa * 13;
                        let pg = (pf & 0xFFFFF) + (pe & 0xFFFF) + (pd & 0xFFF) + (pc & 0xFF);
                        let ph = pg + pf + pe + pd + pc + pb + pa + x + y + {k};
                        let pi = ph * 2 + pg * 3 + pf * 5 + (ph >> 6) + (pg >> 7);
                        let pj = pi + (ph << 2) + (pg << 1) + (pf ^ pe) + (pd | pc);
                        __cold_sink[{slot}] = pj + pi + ph + pg;
                        return pj & 0xFFFFFF;
                    }}"#,
                    k = k,
                    slot = k % 16,
                )
                .unwrap_or(());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_compiles_with_a_trivial_main() {
        for suite in [Suite::Int, Suite::Fp] {
            let src = format!("{}{}\nfn main() {{ out(1); }}", sink_decl(), cold_fns(suite, 0, 5));
            let image = cfed_lang::compile(&src).unwrap_or_else(|e| panic!("{suite} padding: {e}"));
            assert!(image.len() > 5 * 30, "padding too small: {}", image.len());
        }
    }

    #[test]
    fn fp_padding_denser_than_int() {
        // Fp padding should produce larger blocks (fewer branches per inst).
        let int_src = format!("{}{}\nfn main() {{ }}", sink_decl(), cold_fns(Suite::Int, 0, 8));
        let fp_src = format!("{}{}\nfn main() {{ }}", sink_decl(), cold_fns(Suite::Fp, 0, 8));
        let count_branches = |src: &str| {
            let image = cfed_lang::compile(src).unwrap();
            let total = image.len() as f64;
            let branches = image.insts().iter().filter(|i| i.is_branch()).count() as f64;
            branches / total
        };
        assert!(count_branches(&fp_src) < count_branches(&int_src));
    }
}
