//! Per-run telemetry state.
//!
//! A [`Telemetry`] run owns everything this crate's free functions
//! record into or read from: the span aggregate and its on/off switch,
//! the metrics registry, the manifest's run description and the log
//! threshold. Every thread starts in a fresh run of its own, so tests
//! running on parallel threads never see each other's spans or
//! metrics. A worker that must report into its spawner's run joins it
//! explicitly:
//!
//! ```
//! use fuseconv_telemetry::{counter, metrics_snapshot, Telemetry};
//!
//! counter("spawner.items").inc();
//! let run = Telemetry::current();
//! std::thread::scope(|s| {
//!     s.spawn(|| {
//!         // A fresh thread sees none of its spawner's metrics…
//!         assert_eq!(metrics_snapshot().counter("spawner.items"), 0);
//!         counter("own.items").inc();
//!         // …until it joins the spawner's run.
//!         run.join();
//!         counter("joined.items").inc();
//!     });
//! });
//! let n = |name| metrics_snapshot().counter(name);
//! assert_eq!((n("spawner.items"), n("joined.items"), n("own.items")), (1, 1, 0));
//! ```
//!
//! Two facts stay process-wide because they describe the process, not
//! a run: the process-start stamp every manifest carries and the
//! counter that numbers host threads in Chrome traces.

use crate::log::Level;
use crate::manifest::RunConfig;
use crate::metrics::Registry;
use crate::span::Agg;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU8};
use std::sync::{Arc, Mutex, MutexGuard};

/// Everything one run records into.
pub(crate) struct State {
    pub(crate) spans_on: AtomicBool,
    pub(crate) spans: Mutex<Agg>,
    pub(crate) metrics: Mutex<Registry>,
    pub(crate) config: Mutex<RunConfig>,
    /// Log threshold, stored as the [`Level`] discriminant.
    pub(crate) max_level: AtomicU8,
}

/// A shared handle to one telemetry run (cloning shares the run).
#[derive(Clone)]
pub struct Telemetry(Arc<State>);

thread_local! {
    static CURRENT: RefCell<Telemetry> = RefCell::default();
}

impl Default for Telemetry {
    /// A fresh run: spans off and empty, no metrics, an empty run
    /// description and the `warn` log threshold.
    fn default() -> Self {
        Telemetry(Arc::new(State {
            spans_on: AtomicBool::new(false),
            spans: Mutex::new(Agg::new()),
            metrics: Mutex::new(Registry::default()),
            config: Mutex::new(RunConfig::default()),
            max_level: AtomicU8::new(Level::Warn as u8),
        }))
    }
}

impl Telemetry {
    /// The calling thread's run.
    #[must_use]
    pub fn current() -> Self {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Make this run the calling thread's run, e.g. in a scoped worker
    /// that reports into its spawner's run. Spans still open on this
    /// thread close into the run they were opened in.
    pub fn join(&self) {
        CURRENT.with(|c| *c.borrow_mut() = self.clone());
    }
}

/// Runs `f` on the calling thread's run.
pub(crate) fn with<R>(f: impl FnOnce(&Arc<State>) -> R) -> R {
    CURRENT.with(|c| f(&c.borrow().0))
}

/// Locks `m`, recovering the data from a panicked holder: telemetry
/// must not turn one failed thread into a cascade.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
