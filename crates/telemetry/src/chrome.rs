//! Chrome trace-event objects, shared by the workspace's three trace
//! emitters: the simulator's fold timeline (`fuseconv-trace`), the pod
//! schedule (`fuseconv-serve`) and the host span profile
//! ([`SpanTree::chrome_trace_json`](crate::SpanTree::chrome_trace_json)).
//!
//! Each function but [`document`] renders one compact event object; one
//! cycle (or one host microsecond) is one `ts` unit.

use crate::json::Json;
use crate::manifest::RunManifest;
use std::fmt::Display;

/// A complete span (`"ph":"X"`) on process 0, lane `tid`, covering
/// `[start, end)` and lasting at least one unit.
#[must_use]
pub fn span(name: &str, tid: u64, start: u64, end: u64) -> String {
    let mut j = Json::compact();
    j.str("name", name)
        .str("ph", "X")
        .raw("ts", start)
        .raw("dur", end.saturating_sub(start).max(1))
        .raw("pid", 0)
        .raw("tid", tid);
    j.finish()
}

/// A counter sample (`"ph":"C"`) on process 0: track `name` takes
/// `value` under the argument `arg` at `ts`.
#[must_use]
pub fn counter(name: &str, ts: u64, arg: &str, value: impl Display) -> String {
    let mut j = Json::compact();
    j.str("name", name)
        .str("ph", "C")
        .raw("ts", ts)
        .raw("pid", 0)
        .obj("args", |j| {
            j.raw(arg, value);
        });
    j.finish()
}

/// A metadata event (`"ph":"M"`): `kind` is `process_name` or
/// `thread_name`, `label` the name a viewer shows for it.
#[must_use]
pub fn meta(kind: &str, pid: u64, tid: Option<u64>, label: &str) -> String {
    let mut j = Json::compact();
    j.str("name", kind).str("ph", "M").raw("pid", pid);
    if let Some(tid) = tid {
        j.raw("tid", tid);
    }
    j.obj("args", |j| {
        j.str("name", label);
    });
    j.finish()
}

/// The whole trace on one line: `events` (already rendered objects)
/// under `traceEvents`, then `truncated` when given, then the captured
/// run manifest, which viewers ignore.
#[must_use]
pub fn document(events: &[String], truncated: Option<bool>) -> String {
    let mut j = Json::compact();
    j.str("displayTimeUnit", "ms").arr("traceEvents", |j| {
        for e in events {
            j.raw("", e);
        }
    });
    if let Some(truncated) = truncated {
        j.raw("truncated", truncated);
    }
    j.manifest(&RunManifest::capture());
    j.finish() + "\n"
}
