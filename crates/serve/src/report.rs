//! The `fuseconv-serve-v1` serving report: SLO accounting, per-array
//! utilization and a determinism fingerprint.
//!
//! Percentiles are exact (nearest-rank over every recorded latency,
//! not histogram bounds). The JSON rendering embeds the run manifest
//! and a `results_fnv1a64` hash of every deterministic field, so two
//! runs with the same seed can be compared by one line of `grep` even
//! though manifests differ in wall-clock fields. Schema pinned by
//! `tests/serve_schema.rs`.

use fuseconv_telemetry::{fnv1a64, json_escape, RunManifest};
use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted slice, `q` in
/// per-mille (500 = p50, 999 = p99.9). Returns 0 for empty input.
pub fn percentile(sorted: &[u64], q_permille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    // Nearest-rank: smallest index whose rank covers q per-mille.
    let rank = (n * q_permille).div_ceil(1000).max(1);
    sorted[(rank - 1).min(n - 1) as usize]
}

/// End-to-end request latency distribution, cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Mean latency.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Worst observed latency.
    pub max: u64,
}

impl LatencyStats {
    /// Computes the distribution from every completed request's
    /// latency: exact nearest-rank percentiles via
    /// `select_nth_unstable` on one scratch copy — O(n) expected
    /// instead of the O(n log n) full sort the report used to pay
    /// twice (normal + high-priority lane) per million-request run.
    /// Bit-identical to sorting and calling [`percentile`].
    pub fn from_latencies(latencies: &[u64]) -> Self {
        if latencies.is_empty() {
            return LatencyStats {
                mean: 0.0,
                p50: 0,
                p99: 0,
                p999: 0,
                max: 0,
            };
        }
        let n = latencies.len();
        let sum: u128 = latencies.iter().map(|&l| l as u128).sum();
        // Nearest-rank index for q per-mille, matching `percentile`.
        let idx =
            |q: u64| -> usize { (((n as u64 * q).div_ceil(1000).max(1) - 1) as usize).min(n - 1) };
        let mut scratch = latencies.to_vec();
        let targets = [idx(500), idx(990), idx(999)];
        let mut stats = [0u64; 3];
        // The targets ascend, so each selection partitions only the
        // right remainder of the previous one.
        let mut rest: &mut [u64] = &mut scratch;
        let mut base = 0usize;
        let mut prev: Option<(usize, u64)> = None;
        for (k, &t) in targets.iter().enumerate() {
            if let Some((pt, pv)) = prev {
                if pt == t {
                    stats[k] = pv;
                    continue;
                }
            }
            let taken = std::mem::take(&mut rest);
            let (_, &mut v, right) = taken.select_nth_unstable(t - base);
            stats[k] = v;
            prev = Some((t, v));
            rest = right;
            base = t + 1;
        }
        LatencyStats {
            mean: sum as f64 / n as f64,
            p50: stats[0],
            p99: stats[1],
            p999: stats[2],
            max: latencies.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Per-array serving outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayReport {
    /// Array name (`64x64:os`).
    pub name: String,
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Dataflow short name.
    pub dataflow: String,
    /// Batches the array executed.
    pub batches: u64,
    /// Requests the array completed (batch members).
    pub requests: u64,
    /// Cycles the array spent busy.
    pub busy_cycles: u64,
    /// Busy fraction of the simulated makespan.
    pub utilization: f64,
}

/// Per-network serving outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Network name.
    pub name: String,
    /// Relative traffic weight.
    pub weight: u64,
    /// Requests of this network completed.
    pub completed: u64,
    /// SLO target, cycles (`slo_multiplier` × best isolated batch-1
    /// service time anywhere in the pod).
    pub slo_target_cycles: u64,
    /// Completions within the SLO target.
    pub slo_met: u64,
}

/// Queue-depth statistics over the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStats {
    /// Time-weighted mean depth.
    pub mean_depth: f64,
    /// Peak depth.
    pub max_depth: u64,
}

/// The complete outcome of one pod simulation (schema
/// `fuseconv-serve-v1`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Pod description string (`64x64:os,32x32:ws`).
    pub pod: String,
    /// Batching policy short name.
    pub policy: String,
    /// Dispatch mode (`whole` / `sharded`).
    pub dispatch: String,
    /// Whether preemption was enabled.
    pub preemption: bool,
    /// PRNG seed.
    pub seed: u64,
    /// Offered load as a fraction of estimated pod capacity.
    pub load: f64,
    /// Queue admission bound.
    pub queue_capacity: usize,
    /// SLO target multiplier over isolated batch-1 service time.
    pub slo_multiplier: f64,
    /// Requests generated (offered).
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected at admission.
    pub dropped: u64,
    /// Batches launched.
    pub batches: u64,
    /// Preemptions performed.
    pub preemptions: u64,
    /// Discrete events processed.
    pub events: u64,
    /// Last event time, cycles.
    pub makespan_cycles: u64,
    /// Completions within their network's SLO target.
    pub slo_met: u64,
    /// High-priority requests completed (members of `completed`).
    pub high_priority_completed: u64,
    /// Latency distribution over completed requests.
    pub latency: LatencyStats,
    /// Latency distribution over the high-priority subset (all zeros
    /// when no high-priority traffic completed). Preemption exists to
    /// bend exactly these percentiles down.
    pub high_priority_latency: LatencyStats,
    /// Queue-depth statistics.
    pub queue: QueueStats,
    /// Offered request rate, requests per million cycles.
    pub offered_per_mcycle: f64,
    /// SLO-met completion rate, requests per million cycles.
    pub goodput_per_mcycle: f64,
    /// Per-array outcomes, pod order.
    pub arrays: Vec<ArrayReport>,
    /// Per-network outcomes, workload order.
    pub networks: Vec<NetworkReport>,
    /// Run provenance embedded in the JSON rendering.
    pub manifest: RunManifest,
}

impl ServeReport {
    /// Renders every deterministic field (everything except the
    /// manifest) — the byte stream behind [`Self::results_hash`].
    fn results_body(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  \"schema\": \"fuseconv-serve-v1\",");
        let _ = writeln!(out, "  \"config\": {{");
        let _ = writeln!(out, "    \"pod\": \"{}\",", json_escape(&self.pod));
        let _ = writeln!(out, "    \"policy\": \"{}\",", json_escape(&self.policy));
        let _ = writeln!(
            out,
            "    \"dispatch\": \"{}\",",
            json_escape(&self.dispatch)
        );
        let _ = writeln!(out, "    \"preemption\": {},", self.preemption);
        let _ = writeln!(out, "    \"seed\": {},", self.seed);
        let _ = writeln!(out, "    \"load\": {:.6},", self.load);
        let _ = writeln!(out, "    \"queue_capacity\": {},", self.queue_capacity);
        let _ = writeln!(out, "    \"slo_multiplier\": {:.6}", self.slo_multiplier);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"totals\": {{");
        let _ = writeln!(out, "    \"offered\": {},", self.offered);
        let _ = writeln!(out, "    \"completed\": {},", self.completed);
        let _ = writeln!(out, "    \"dropped\": {},", self.dropped);
        let _ = writeln!(out, "    \"batches\": {},", self.batches);
        let _ = writeln!(out, "    \"preemptions\": {},", self.preemptions);
        let _ = writeln!(out, "    \"events\": {},", self.events);
        let _ = writeln!(out, "    \"makespan_cycles\": {},", self.makespan_cycles);
        let _ = writeln!(out, "    \"slo_met\": {},", self.slo_met);
        let _ = writeln!(
            out,
            "    \"high_priority_completed\": {}",
            self.high_priority_completed
        );
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"latency_cycles\": {{");
        let _ = writeln!(out, "    \"mean\": {:.3},", self.latency.mean);
        let _ = writeln!(out, "    \"p50\": {},", self.latency.p50);
        let _ = writeln!(out, "    \"p99\": {},", self.latency.p99);
        let _ = writeln!(out, "    \"p999\": {},", self.latency.p999);
        let _ = writeln!(out, "    \"max\": {}", self.latency.max);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"high_priority_latency_cycles\": {{");
        let _ = writeln!(out, "    \"mean\": {:.3},", self.high_priority_latency.mean);
        let _ = writeln!(out, "    \"p50\": {},", self.high_priority_latency.p50);
        let _ = writeln!(out, "    \"p99\": {},", self.high_priority_latency.p99);
        let _ = writeln!(out, "    \"p999\": {},", self.high_priority_latency.p999);
        let _ = writeln!(out, "    \"max\": {}", self.high_priority_latency.max);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"queue_depth\": {{");
        let _ = writeln!(out, "    \"mean\": {:.3},", self.queue.mean_depth);
        let _ = writeln!(out, "    \"max\": {}", self.queue.max_depth);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"throughput\": {{");
        let _ = writeln!(
            out,
            "    \"offered_per_mcycle\": {:.6},",
            self.offered_per_mcycle
        );
        let _ = writeln!(
            out,
            "    \"goodput_per_mcycle\": {:.6}",
            self.goodput_per_mcycle
        );
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"arrays\": [");
        for (i, a) in self.arrays.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", json_escape(&a.name));
            let _ = writeln!(out, "      \"rows\": {},", a.rows);
            let _ = writeln!(out, "      \"cols\": {},", a.cols);
            let _ = writeln!(out, "      \"dataflow\": \"{}\",", json_escape(&a.dataflow));
            let _ = writeln!(out, "      \"batches\": {},", a.batches);
            let _ = writeln!(out, "      \"requests\": {},", a.requests);
            let _ = writeln!(out, "      \"busy_cycles\": {},", a.busy_cycles);
            let _ = writeln!(out, "      \"utilization\": {:.6}", a.utilization);
            let _ = write!(out, "    }}");
            out.push_str(if i + 1 < self.arrays.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"networks\": [");
        for (i, n) in self.networks.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": \"{}\",", json_escape(&n.name));
            let _ = writeln!(out, "      \"weight\": {},", n.weight);
            let _ = writeln!(out, "      \"completed\": {},", n.completed);
            let _ = writeln!(out, "      \"slo_target_cycles\": {},", n.slo_target_cycles);
            let _ = writeln!(out, "      \"slo_met\": {}", n.slo_met);
            let _ = write!(out, "    }}");
            out.push_str(if i + 1 < self.networks.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(out, "  ],");
        out
    }

    /// `fnv1a64:<16 hex>` fingerprint of every deterministic result
    /// field. Two same-seed runs must produce identical hashes — the
    /// CI serve job diffs exactly this.
    pub fn results_hash(&self) -> String {
        format!("fnv1a64:{:016x}", fnv1a64(self.results_body().as_bytes()))
    }

    /// Renders the report as JSON (schema `fuseconv-serve-v1`), the
    /// determinism fingerprint and embedded run manifest included.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&self.results_body());
        let _ = writeln!(out, "  \"results_fnv1a64\": \"{}\",", self.results_hash());
        let _ = writeln!(
            out,
            "  \"manifest\": {}",
            self.manifest.to_json_pretty("  ")
        );
        out.push_str("}\n");
        out
    }

    /// Renders the report as a human-readable text summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pod {} | policy {} | dispatch {} | seed {}",
            self.pod, self.policy, self.dispatch, self.seed
        );
        let _ = writeln!(
            out,
            "offered {} (load {:.2}) completed {} dropped {} batches {} preemptions {}",
            self.offered, self.load, self.completed, self.dropped, self.batches, self.preemptions
        );
        let _ = writeln!(
            out,
            "latency cycles: mean {:.0}  p50 {}  p99 {}  p99.9 {}  max {}",
            self.latency.mean,
            self.latency.p50,
            self.latency.p99,
            self.latency.p999,
            self.latency.max
        );
        if self.high_priority_completed > 0 {
            let _ = writeln!(
                out,
                "high-priority ({} reqs): mean {:.0}  p50 {}  p99 {}  max {}",
                self.high_priority_completed,
                self.high_priority_latency.mean,
                self.high_priority_latency.p50,
                self.high_priority_latency.p99,
                self.high_priority_latency.max
            );
        }
        let _ = writeln!(
            out,
            "queue depth: mean {:.1}  max {}   slo_met {}/{} (x{:.1} target)",
            self.queue.mean_depth,
            self.queue.max_depth,
            self.slo_met,
            self.completed,
            self.slo_multiplier
        );
        let _ = writeln!(
            out,
            "throughput per Mcycle: offered {:.3}  goodput {:.3}   makespan {} cycles, {} events",
            self.offered_per_mcycle, self.goodput_per_mcycle, self.makespan_cycles, self.events
        );
        let _ = writeln!(
            out,
            "{:<14} {:>8} {:>10} {:>14} {:>7}",
            "array", "batches", "requests", "busy_cycles", "util"
        );
        for a in &self.arrays {
            let _ = writeln!(
                out,
                "{:<14} {:>8} {:>10} {:>14} {:>6.1}%",
                a.name,
                a.batches,
                a.requests,
                a.busy_cycles,
                100.0 * a.utilization
            );
        }
        for n in &self.networks {
            let _ = writeln!(
                out,
                "net {:<22} weight {:>3}  completed {:>9}  slo_met {:>9} (target {} cycles)",
                n.name, n.weight, n.completed, n.slo_met, n.slo_target_cycles
            );
        }
        let _ = writeln!(out, "results {}", self.results_hash());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(percentile(&v, 999), 100);
        assert_eq!(percentile(&[7], 999), 7);
        assert_eq!(percentile(&[], 500), 0);
    }

    #[test]
    fn latency_stats_from_small_sample() {
        let s = LatencyStats::from_latencies(&[10, 30, 20]);
        assert_eq!(s.p50, 20);
        assert_eq!(s.max, 30);
        assert!((s.mean - 20.0).abs() < 1e-9);
    }

    /// The old implementation: sort a copy, take nearest-rank
    /// percentiles. Kept here as the reference the selection-based
    /// path must match bit for bit.
    fn stats_by_sorting(latencies: &[u64]) -> LatencyStats {
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let sum: u128 = sorted.iter().map(|&l| l as u128).sum();
        LatencyStats {
            mean: if sorted.is_empty() {
                0.0
            } else {
                sum as f64 / sorted.len() as f64
            },
            p50: percentile(&sorted, 500),
            p99: percentile(&sorted, 990),
            p999: percentile(&sorted, 999),
            max: sorted.last().copied().unwrap_or(0),
        }
    }

    #[test]
    fn selection_based_stats_match_the_sorting_path() {
        // Deterministic pseudo-random inputs across awkward sizes:
        // empty, singleton, all-equal, sizes around the nearest-rank
        // index collisions (n < 1000 makes p99/p999 share an index).
        let mut x = 0xA076_1D64_78BD_642Fu64;
        for n in [0usize, 1, 2, 3, 7, 99, 100, 999, 1000, 1001, 4096] {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                v.push(x % 1_000_003);
            }
            let fast = LatencyStats::from_latencies(&v);
            let slow = stats_by_sorting(&v);
            assert_eq!(fast, slow, "n={n}");
        }
        let equal = vec![42u64; 500];
        assert_eq!(
            LatencyStats::from_latencies(&equal),
            stats_by_sorting(&equal)
        );
    }

    fn tiny_report() -> ServeReport {
        ServeReport {
            pod: "8x8:os".to_string(),
            policy: "fifo".to_string(),
            dispatch: "whole".to_string(),
            preemption: false,
            seed: 7,
            load: 0.5,
            queue_capacity: 64,
            slo_multiplier: 10.0,
            offered: 3,
            completed: 3,
            dropped: 0,
            batches: 3,
            preemptions: 0,
            events: 9,
            makespan_cycles: 1000,
            slo_met: 3,
            high_priority_completed: 0,
            latency: LatencyStats::from_latencies(&[10, 20, 30]),
            high_priority_latency: LatencyStats::from_latencies(&[]),
            queue: QueueStats {
                mean_depth: 0.5,
                max_depth: 2,
            },
            offered_per_mcycle: 3000.0,
            goodput_per_mcycle: 3000.0,
            arrays: vec![ArrayReport {
                name: "8x8:os".to_string(),
                rows: 8,
                cols: 8,
                dataflow: "os".to_string(),
                batches: 3,
                requests: 3,
                busy_cycles: 600,
                utilization: 0.6,
            }],
            networks: vec![NetworkReport {
                name: "tiny".to_string(),
                weight: 1,
                completed: 3,
                slo_target_cycles: 2000,
                slo_met: 3,
            }],
            manifest: RunManifest::capture(),
        }
    }

    #[test]
    fn json_is_balanced_and_tagged() {
        let json = tiny_report().to_json();
        assert!(json.contains("\"schema\": \"fuseconv-serve-v1\""));
        assert!(json.contains("\"results_fnv1a64\": \"fnv1a64:"));
        assert!(json.contains("\"manifest\": {"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn results_hash_ignores_manifest_but_sees_results() {
        let a = tiny_report();
        let mut b = tiny_report();
        // Manifests differ in wall-clock fields; hashes must not.
        assert_eq!(a.results_hash(), b.results_hash());
        b.completed = 2;
        assert_ne!(a.results_hash(), b.results_hash());
    }

    #[test]
    fn text_rendering_mentions_the_knee_inputs() {
        let text = tiny_report().to_text();
        assert!(text.contains("p99"));
        assert!(text.contains("goodput"));
        assert!(text.contains("8x8:os"));
    }
}
