//! The host block printed with every run, so figures from different
//! machines are never compared unnoticed.

/// `(key, value)` pairs describing the machine and toolchain.
pub fn block(rustc: &str) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("simd", trilist_core::simd_level().name().to_string()),
        ("cpu", cpu),
        ("rustc", rustc.to_string()),
    ]
}

/// Time the hypervisor has withheld from this machine's CPUs since boot
/// (`steal` in `/proc/stat`), in seconds at the usual 100 ticks a second;
/// 0 where the kernel does not report it. The difference over a run shows
/// how much of it the host's other tenants took.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
