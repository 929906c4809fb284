//! Wall-clock primitives.
//!
//! This module is the workspace's *only* sanctioned home for
//! [`std::time::Instant`] (`clippy.toml` disallows `Instant::now`
//! elsewhere): every other crate measures host time through
//! [`Stopwatch`] or through the span profiler built on top of it, so
//! timing behaviour stays auditable in one place.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A started monotonic clock.
///
/// Thin wrapper over [`Instant`] with the two read-outs the workspace
/// actually uses: a [`Duration`] for harness-style arithmetic and a
/// saturating nanosecond count for counter-style accounting.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start a stopwatch at the current instant.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX` (~584 years).
    #[must_use]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Milliseconds since the Unix epoch, per the system clock.
///
/// Returns 0 if the system clock reads before 1970 (never on a sane
/// host, but provenance must not panic over a misconfigured one).
#[must_use]
pub fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn unix_millis_is_past_2020() {
        // 2020-01-01 in Unix ms; guards against accidentally returning
        // seconds or the 0 fallback on a working clock.
        assert!(unix_millis() > 1_577_836_800_000);
    }
}
