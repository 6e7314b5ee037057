//! The wall clock of the real-time driver.
//!
//! The container itself is clock-free (`tick(now)`), so "what time is it"
//! is answered only by the drivers: the simulation harness uses the
//! network's virtual clock, the real-time driver this OS monotonic one.

use std::time::Instant;

use marea_protocol::Micros;

/// OS monotonic clock, microseconds since construction.
#[derive(Debug, Clone)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// Creates a clock whose zero is now.
    #[expect(
        clippy::disallowed_methods,
        reason = "SystemClock *is* the real-time boundary; drivers opt in explicitly"
    )]
    pub fn new() -> Self {
        SystemClock { epoch: Instant::now() }
    }

    /// Current time.
    pub fn now(&self) -> Micros {
        Micros(self.epoch.elapsed().as_micros() as u64)
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_monotonic() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }
}
