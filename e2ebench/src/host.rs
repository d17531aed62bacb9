//! Process resource usage and the provenance recorded with every result.

use cfed_telemetry::json::{obj, Json};

/// `struct rusage` as Linux lays it out on 64-bit targets: two `timeval`s
/// followed by fourteen `long` counters, the first of which is `ru_maxrss`.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `RUsage`, whose layout matches the
    // kernel's `struct rusage` on 64-bit Linux (the only targets this
    // module builds for); `getrusage` writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    usage
}

/// User plus system CPU seconds this process has used so far, over all
/// its threads.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    secs(u.utime) + secs(u.stime)
}

/// Peak resident set size of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    // `ru_maxrss` is in KiB on Linux.
    rusage().counters[0] as f64 * 1024.0 / 1e6
}

/// Cores the process may run on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host and build facts printed with every result.
pub fn provenance(workload: &str, seed: u64, threads: usize, trace: bool) -> Json {
    let env = |name: &str| std::env::var(name).unwrap_or_default();
    obj(vec![
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::UInt(seed)),
        ("trace", Json::Bool(trace)),
        ("threads", Json::UInt(threads as u64)),
        ("available_parallelism", Json::UInt(available_parallelism() as u64)),
        ("rustc", Json::Str(env!("CFED_BENCH_RUSTC").to_string())),
        ("commit", Json::Str(env!("CFED_BENCH_COMMIT").to_string())),
        ("CFED_NO_NATIVE", Json::Str(env("CFED_NO_NATIVE"))),
        ("CFED_NO_TIER", Json::Str(env("CFED_NO_TIER"))),
        ("native_enabled", Json::Bool(cfed_dbt::native_enabled())),
        ("tier_enabled", Json::Bool(cfed_dbt::tier_enabled())),
        ("os", Json::Str(std::env::consts::OS.to_string())),
        ("arch", Json::Str(std::env::consts::ARCH.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
