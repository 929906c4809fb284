//! Structured stderr logger with a per-run level filter (see
//! [`Telemetry`](crate::Telemetry)).
//!
//! Replaces the ad-hoc `eprintln!` call sites in binaries. Every
//! line has the shape `[LEVEL target] message`; emitted and suppressed
//! lines are counted in the metrics registry (`log.emitted_total`,
//! `log.suppressed_total`, `log.<level>_total`).

use crate::metrics;
use crate::run;
use std::fmt;
use std::io::Write as _;
use std::str::FromStr;
use std::sync::atomic::Ordering;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable failure of the requested operation.
    Error = 0,
    /// Suspicious but non-fatal condition (the default threshold).
    Warn = 1,
    /// High-level progress notes.
    Info = 2,
    /// Detailed diagnostic state.
    Debug = 3,
    /// Per-iteration firehose.
    Trace = 4,
}

impl Level {
    const ALL: [Level; 5] = [
        Level::Error,
        Level::Warn,
        Level::Info,
        Level::Debug,
        Level::Trace,
    ];

    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn counter_name(self) -> &'static str {
        match self {
            Level::Error => "log.error_total",
            Level::Warn => "log.warn_total",
            Level::Info => "log.info_total",
            Level::Debug => "log.debug_total",
            Level::Trace => "log.trace_total",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Level::ALL
            .into_iter()
            .find(|l| l.as_str() == s)
            .ok_or_else(|| {
                format!("unknown log level '{s}' (expected error|warn|info|debug|trace)")
            })
    }
}

/// Set the calling thread's run's log threshold (`warn` in a fresh
/// run): messages *more* verbose than `level` are suppressed (but still
/// counted).
pub fn set_max_level(level: Level) {
    run::with(|t| t.max_level.store(level as u8, Ordering::Relaxed));
}

/// The calling thread's run's log threshold.
#[must_use]
pub fn max_level() -> Level {
    Level::ALL[usize::from(run::with(|t| t.max_level.load(Ordering::Relaxed)))]
}

/// Whether a message at `level` would currently be emitted.
#[must_use]
pub fn enabled(level: Level) -> bool {
    level <= max_level()
}

/// Log `msg` under `target` (usually the crate or subsystem name) at
/// `level`. Emits `[LEVEL target] msg` to stderr when `level` passes
/// the threshold; counts the message in the metrics registry either way.
pub fn log(level: Level, target: &str, msg: &str) {
    metrics::counter(level.counter_name()).inc();
    if enabled(level) {
        metrics::counter("log.emitted_total").inc();
        let stderr = std::io::stderr();
        let _ = writeln!(stderr.lock(), "[{level:5} {target}] {msg}");
    } else {
        metrics::counter("log.suppressed_total").inc();
    }
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, msg: &str) {
    log(Level::Error, target, msg);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, msg: &str) {
    log(Level::Warn, target, msg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_roundtrip() {
        assert!(Level::Error < Level::Trace);
        for l in Level::ALL {
            assert_eq!(l.to_string().parse::<Level>().unwrap(), l);
        }
        assert!("verbose".parse::<Level>().is_err());
    }

    #[test]
    fn threshold_gates_enabled() {
        assert_eq!(max_level(), Level::Warn, "a fresh run's threshold");
        set_max_level(Level::Info);
        assert!(enabled(Level::Warn));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
    }

    #[test]
    fn suppressed_messages_are_counted() {
        // Trace is above the fresh run's `warn` threshold.
        log(Level::Trace, "telemetry", "invisible");
        let snap = metrics::snapshot();
        assert_eq!(snap.counter("log.trace_total"), 1);
        assert_eq!(snap.counter("log.suppressed_total"), 1);
        assert_eq!(snap.counter("log.emitted_total"), 0);
    }
}
