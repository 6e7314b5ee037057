//! The benchmark's two host clocks: monotonic wall time and process CPU
//! time. Everything host-timed goes through here, so the repository's
//! determinism lint has exactly one wall-clock read to waive.

use std::time::Instant;

/// Monotonic host time.
#[inline]
pub fn now() -> Instant {
    // marea-lint: allow(D2): host time is the quantity this benchmark measures; no middleware path reads it
    Instant::now()
}

/// CPU seconds this process has run so far (user + system), or `None`
/// where the kernel does not expose it.
///
/// `/proc/self/schedstat` counts on-CPU nanoseconds of the calling task —
/// the whole process here, since the benchmark has one thread.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let on_cpu_ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(on_cpu_ns as f64 / 1e9)
}
