//! Chrome trace-event JSON exporter.
//!
//! Produces the [Trace Event Format] consumed by `chrome://tracing` and
//! [Perfetto](https://ui.perfetto.dev): a JSON object whose `traceEvents`
//! array holds complete (`"ph": "X"`) spans. The exporter lays the run out
//! as one process with:
//!
//! * **tid 0** — the fold track: one span per fold, named by its dataflow,
//!   occupancy and provenance tag;
//! * **tid 1 + r** — one track per array row `r`: spans cover the cycles
//!   in which at least one PE of that row fired a MAC;
//! * a `busy_pes` counter track sampling the per-cycle busy-PE count
//!   (emitted only when the value changes, so it stays compact).
//!
//! Timestamps are in microseconds as the format requires; one array cycle
//! is mapped to 1 µs.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::{TraceEvent, TraceSink};
use fuseconv_telemetry::json_escape;
use std::collections::BTreeMap;

/// Builds Chrome trace JSON from trace events.
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceSink {
    events: Vec<String>,
    labels: BTreeMap<u64, String>,
    open_fold: Option<(u64, u64, String)>,
    row_spans: Vec<Option<(u64, u64)>>,
    last_busy: Option<u32>,
}

impl ChromeTraceSink {
    /// An empty exporter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a human-readable label for a provenance tag; folds whose
    /// `FoldStart` carries `tag` are named with it. Drivers typically map
    /// op indices to op descriptions here before replaying a fold plan.
    pub fn label_tag(&mut self, tag: u64, label: &str) {
        self.labels.insert(tag, label.to_string());
    }

    fn emit_span(&mut self, name: &str, tid: u64, start: u64, end: u64) {
        self.events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{}}}",
            json_escape(name),
            start,
            end.saturating_sub(start).max(1),
            tid
        ));
    }

    fn flush_row(&mut self, row: usize) {
        if let Some(Some((start, last))) = self.row_spans.get(row).copied() {
            self.emit_span(
                &format!("row {row} active"),
                1 + row as u64,
                start,
                last + 1,
            );
            self.row_spans[row] = None;
        }
    }

    /// Finishes the trace and renders the JSON document. Open row spans
    /// are flushed, thread-name metadata is attached so viewers show
    /// "folds" / "row r" track names, and run provenance
    /// (`fuseconv-manifest-v1`) is embedded under a top-level
    /// `"manifest"` key (viewers ignore unknown keys).
    pub fn into_json(mut self) -> String {
        for row in 0..self.row_spans.len() {
            self.flush_row(row);
        }
        let mut meta = vec![
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"systolic array\"}}"
                .to_string(),
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"folds\"}}"
                .to_string(),
        ];
        for row in 0..self.row_spans.len() {
            meta.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"row {row}\"}}}}",
                1 + row as u64
            ));
        }
        meta.extend(self.events);
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}],\"manifest\":{}}}\n",
            meta.join(","),
            fuseconv_telemetry::RunManifest::capture().to_json_compact()
        )
    }

    /// Number of span/counter events recorded so far (metadata excluded).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }
}

impl TraceSink for ChromeTraceSink {
    fn on_event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::FoldStart {
                fold,
                tag,
                cycle,
                kind,
                rows_used,
                cols_used,
            } => {
                let name = match self.labels.get(&tag) {
                    Some(label) => {
                        format!("fold {fold}: {label} [{kind} {rows_used}x{cols_used}]")
                    }
                    None => format!("fold {fold} [{kind} {rows_used}x{cols_used}]"),
                };
                self.open_fold = Some((fold, cycle, name));
            }
            TraceEvent::FoldEnd { fold, cycle } => {
                if let Some((start_fold, start, name)) = self.open_fold.take() {
                    if start_fold == fold {
                        self.emit_span(&name, 0, start, cycle);
                    }
                }
            }
            TraceEvent::Cycle { cycle, busy, .. } if self.last_busy != Some(busy) => {
                self.last_busy = Some(busy);
                self.events.push(format!(
                    "{{\"name\":\"busy_pes\",\"ph\":\"C\",\"ts\":{cycle},\"pid\":0,\"args\":{{\"busy\":{busy}}}}}"
                ));
            }
            TraceEvent::Cycle { .. } => {}
            TraceEvent::PeFire { cycle, row, .. } => {
                let row = row as usize;
                if self.row_spans.len() <= row {
                    self.row_spans.resize(row + 1, None);
                }
                match self.row_spans[row] {
                    Some((_, ref mut last)) if cycle <= *last + 1 => *last = cycle,
                    Some(_) => {
                        self.flush_row(row);
                        self.row_spans[row] = Some((cycle, cycle));
                    }
                    None => self.row_spans[row] = Some((cycle, cycle)),
                }
            }
            _ => {}
        }
    }

    fn wants_pe_fires(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FoldKind, Phase};

    fn fold_pair(sink: &mut ChromeTraceSink, fold: u64, tag: u64, start: u64, end: u64) {
        sink.on_event(&TraceEvent::FoldStart {
            fold,
            tag,
            cycle: start,
            kind: FoldKind::OutputStationary,
            rows_used: 2,
            cols_used: 3,
        });
        sink.on_event(&TraceEvent::FoldEnd { fold, cycle: end });
    }

    #[test]
    fn folds_become_complete_events_on_tid_zero() {
        let mut s = ChromeTraceSink::new();
        fold_pair(&mut s, 0, 0, 0, 9);
        let json = s.into_json();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":9"));
        assert!(json.contains("fold 0 [os 2x3]"));
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("],\"manifest\":{\"schema\":\"fuseconv-manifest-v1\""));
        assert!(json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn tag_labels_name_folds() {
        let mut s = ChromeTraceSink::new();
        s.label_tag(7, "dw3x3 \"stage2\"");
        fold_pair(&mut s, 0, 7, 0, 4);
        let json = s.into_json();
        assert!(json.contains("fold 0: dw3x3 \\\"stage2\\\" [os 2x3]"));
    }

    #[test]
    fn pe_fires_coalesce_into_row_spans() {
        let mut s = ChromeTraceSink::new();
        for cycle in [2u64, 3, 4, 10, 11] {
            s.on_event(&TraceEvent::PeFire {
                cycle,
                row: 1,
                col: 0,
            });
        }
        let json = s.into_json();
        // Two spans on row 1's track (tid 2): [2,5) and [10,12).
        assert_eq!(json.matches("row 1 active").count(), 2);
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"name\":\"row 1\""));
    }

    #[test]
    fn counter_emitted_only_on_change() {
        let mut s = ChromeTraceSink::new();
        for (cycle, busy) in [(0u64, 4u32), (1, 4), (2, 4), (3, 0)] {
            s.on_event(&TraceEvent::Cycle {
                cycle,
                phase: Phase::Compute,
                busy,
            });
        }
        assert_eq!(s.event_count(), 2);
        let json = s.into_json();
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("{\"busy\":0}"));
    }
}
