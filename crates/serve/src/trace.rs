//! Chrome-trace export for pod simulations.
//!
//! Lays the pod out as process 0 ("serving pod") with one lane (tid)
//! per array carrying batch spans, a `queue_depth` counter track, and
//! instant events marking preemptions. The host-side span profiler
//! renders its spans on **pid 1** (`fuseconv_telemetry::span`), so a
//! serve trace and the host trace concatenate into one Perfetto view
//! without colliding. One array cycle maps to 1 µs, matching the
//! single-array `ChromeTraceSink` convention.

use crate::spec::PodSpec;
use fuseconv_telemetry::{json_escape, RunManifest};

/// Default cap on recorded events; million-request runs would
/// otherwise emit gigabyte traces.
pub const DEFAULT_EVENT_CAP: usize = 50_000;

/// Collects pod scheduling events and renders Chrome trace JSON.
#[derive(Debug, Clone)]
pub struct PodTraceSink {
    lanes: Vec<String>,
    events: Vec<String>,
    cap: usize,
    truncated: bool,
    last_depth: Option<usize>,
}

impl PodTraceSink {
    /// An empty sink with one lane per array of `pod`, capped at
    /// [`DEFAULT_EVENT_CAP`] events.
    pub fn new(pod: &PodSpec) -> Self {
        PodTraceSink {
            lanes: pod.arrays.iter().map(|a| a.name()).collect(),
            events: Vec::new(),
            cap: DEFAULT_EVENT_CAP,
            truncated: false,
            last_depth: None,
        }
    }

    /// Overrides the event cap (tests use tiny caps).
    pub fn with_event_cap(mut self, cap: usize) -> Self {
        self.cap = cap.max(1);
        self
    }

    fn push(&mut self, event: String) {
        if self.events.len() >= self.cap {
            self.truncated = true;
            return;
        }
        self.events.push(event);
    }

    /// Records one executed batch as a complete span on the array's
    /// lane.
    pub fn batch_span(&mut self, array: usize, start: u64, end: u64, label: &str) {
        self.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
            json_escape(label),
            start,
            end.saturating_sub(start).max(1),
            array
        ));
    }

    /// Samples the queue depth; emitted only when the value changes so
    /// the counter track stays compact.
    pub fn queue_depth(&mut self, at: u64, depth: usize) {
        if self.last_depth == Some(depth) {
            return;
        }
        self.last_depth = Some(depth);
        self.push(format!(
            "{{\"name\":\"queue_depth\",\"ph\":\"C\",\"ts\":{at},\"pid\":0,\"args\":{{\"depth\":{depth}}}}}"
        ));
    }

    /// Emits a sample on a named counter track (`ph: "C"`); the
    /// time-series layer uses this for goodput and per-array
    /// utilization tracks beside the batch lanes.
    pub fn counter(&mut self, name: &str, at: u64, value: f64) {
        self.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\"value\":{:.3}}}}}",
            json_escape(name),
            at,
            value
        ));
    }

    /// Marks a preemption as an instant event on the victim array's
    /// lane.
    pub fn preemption(&mut self, array: usize, at: u64, label: &str) {
        self.push(format!(
            "{{\"name\":\"preempt: {}\",\"ph\":\"i\",\"ts\":{},\"pid\":0,\"tid\":{},\"s\":\"t\"}}",
            json_escape(label),
            at,
            array
        ));
    }

    /// Number of span/counter/instant events recorded so far.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Whether the event cap truncated the recording.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Finishes the trace: process/thread-name metadata for every
    /// array lane, the recorded events, and the run manifest under a
    /// top-level `"manifest"` key (viewers ignore unknown keys).
    pub fn into_json(self) -> String {
        let mut meta = vec![
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"serving pod\"}}"
                .to_string(),
        ];
        for (i, lane) in self.lanes.iter().enumerate() {
            meta.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"array {}: {}\"}}}}",
                i,
                i,
                json_escape(lane)
            ));
        }
        meta.extend(self.events);
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}],\"truncated\":{},\"manifest\":{}}}\n",
            meta.join(","),
            self.truncated,
            RunManifest::capture().to_json_compact()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pod() -> PodSpec {
        PodSpec::parse("8x8:os,4x4:ws").expect("valid pod")
    }

    #[test]
    fn lanes_spans_and_counters_render() {
        let mut sink = PodTraceSink::new(&pod());
        sink.batch_span(1, 10, 30, "mobilenet-v1 x4");
        sink.queue_depth(10, 3);
        sink.queue_depth(12, 3);
        sink.preemption(0, 15, "mobilenet-v1");
        assert_eq!(sink.event_count(), 3, "repeat depth samples coalesce");
        let json = sink.into_json();
        assert!(json.contains("\"name\":\"array 0: 8x8:os\""));
        assert!(json.contains("\"name\":\"array 1: 4x4:ws\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("preempt: mobilenet-v1"));
        assert!(json.contains("\"manifest\":{\"schema\":\"fuseconv-manifest-v1\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn named_counter_tracks_render() {
        let mut sink = PodTraceSink::new(&pod());
        sink.counter("goodput", 100, 12.0);
        sink.counter("util 8x8:os", 100, 87.5);
        let json = sink.into_json();
        assert!(json.contains("\"name\":\"goodput\""));
        assert!(json.contains("\"name\":\"util 8x8:os\""));
        assert!(json.contains("\"value\":87.500"));
    }

    #[test]
    fn event_cap_truncates_gracefully() {
        let mut sink = PodTraceSink::new(&pod()).with_event_cap(2);
        for i in 0..10 {
            sink.batch_span(0, i, i + 1, "b");
        }
        assert_eq!(sink.event_count(), 2);
        assert!(sink.is_truncated());
        let json = sink.into_json();
        assert!(json.contains("\"truncated\":true"));
    }
}
