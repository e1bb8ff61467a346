//! The clock seam: every latency measurement and `micros=` response field
//! in the workspace reads time through a [`Clock`], never `Instant::now()`
//! directly.  Production code installs a [`MonotonicClock`]; deterministic
//! tests and the record/replay harness install a frozen [`VirtualClock`],
//! which makes timed output byte-for-byte reproducible
//! with no masking.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A source of microsecond timestamps on an arbitrary (per-clock) origin.
///
/// Timestamps are only meaningful as differences against the same clock;
/// they are **not** wall-clock epochs.
pub trait Clock: fmt::Debug + Send + Sync {
    /// Microseconds elapsed since this clock's origin.
    fn now_micros(&self) -> u64;
}

/// A shared, dynamically-dispatched clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// The production clock: monotonic time since construction.
#[derive(Debug)]
pub(crate) struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A monotonic clock whose origin is "now".
    pub(crate) fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A clock that never moves, for tests and deterministic replay: two runs
/// driving the same script against a `VirtualClock` observe identical
/// timestamps, so every derived `micros=` field is reproducible.
#[derive(Debug, Default)]
pub(crate) struct VirtualClock {
    now: u64,
}

impl VirtualClock {
    /// A virtual clock reading `micros` forever.
    pub(crate) fn new(micros: u64) -> Self {
        Self { now: micros }
    }
}

impl Clock for VirtualClock {
    fn now_micros(&self) -> u64 {
        self.now
    }
}

/// A fresh production clock handle (monotonic since now).
pub fn monotonic() -> SharedClock {
    Arc::new(MonotonicClock::new())
}

/// A frozen virtual clock handle reading `0` forever — every duration
/// measured through it is exactly zero, the replay-determinism baseline.
pub fn frozen() -> SharedClock {
    Arc::new(VirtualClock::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotone() {
        let clock = MonotonicClock::new();
        let a = clock.now_micros();
        let b = clock.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_only_moves_when_told() {
        let clock = VirtualClock::new(5);
        assert_eq!(clock.now_micros(), 5);
        assert_eq!(clock.now_micros(), 5);
    }

    #[test]
    fn frozen_clock_reads_zero() {
        let clock = frozen();
        assert_eq!(clock.now_micros(), 0);
        assert_eq!(clock.now_micros(), 0);
    }
}
