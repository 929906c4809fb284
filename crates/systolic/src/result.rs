//! Simulation results and utilization accounting.

use fuseconv_tensor::Tensor;
use std::fmt;

/// Outcome of a cycle-level simulation: the functional output plus exact
/// timing and utilization statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    output: Tensor,
    cycles: u64,
    macs: u64,
    busy_pe_cycles: u64,
    pe_count: usize,
    folds: u64,
    busy_trace: Vec<u32>,
}

impl SimResult {
    pub(crate) fn new(
        output: Tensor,
        macs: u64,
        busy_pe_cycles: u64,
        pe_count: usize,
        folds: u64,
        busy_trace: Vec<u32>,
    ) -> Self {
        SimResult {
            output,
            cycles: busy_trace.len() as u64,
            macs,
            busy_pe_cycles,
            pe_count,
            folds,
            busy_trace,
        }
    }

    /// The functional result of the computation.
    pub fn output(&self) -> &Tensor {
        &self.output
    }

    /// Total cycles, including operand load, compute and output drain —
    /// the paper's latency accounting (§V-A-3).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total multiply-accumulate operations performed.
    pub fn macs(&self) -> u64 {
        self.macs
    }

    /// PE·cycles during which a MAC was performed.
    pub fn busy_pe_cycles(&self) -> u64 {
        self.busy_pe_cycles
    }

    /// Number of folds (array-sized tiles) the work was split into.
    pub fn folds(&self) -> u64 {
        self.folds
    }

    /// Fraction of PE·cycles spent on MACs, in `[0, 1]` — the shared
    /// [`fuseconv_trace::pe_utilization`] definition, so simulator results,
    /// trace sinks and performance counters cannot disagree.
    pub fn utilization(&self) -> f64 {
        fuseconv_trace::pe_utilization(self.busy_pe_cycles, self.cycles, self.pe_count)
    }

    /// Busy-PE count for each simulated cycle, in order.
    pub fn busy_trace(&self) -> &[u32] {
        &self.busy_trace
    }

    /// Merges another result that ran *after* this one (sequential folds or
    /// layers): cycles add, traces concatenate, output is replaced by the
    /// later result's output.
    #[must_use]
    pub fn then(mut self, next: SimResult) -> SimResult {
        self.cycles += next.cycles;
        self.macs += next.macs;
        self.busy_pe_cycles += next.busy_pe_cycles;
        self.folds += next.folds;
        self.busy_trace.extend(next.busy_trace);
        self.output = next.output;
        self
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles, {} MACs, {} folds, utilization {:.1}%",
            self.cycles,
            self.macs,
            self.folds,
            self.utilization() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(cycles: usize, busy: u64, pes: usize) -> SimResult {
        SimResult::new(
            Tensor::zeros(&[1]).unwrap(),
            busy,
            busy,
            pes,
            1,
            vec![1; cycles],
        )
    }

    #[test]
    fn utilization_is_busy_fraction() {
        let r = dummy(10, 40, 8);
        // 40 busy PE-cycles over 10 cycles * 8 PEs = 0.5
        assert!((r.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn then_accumulates() {
        let a = dummy(10, 10, 4);
        let b = dummy(5, 20, 4);
        let c = a.then(b);
        assert_eq!(c.cycles(), 15);
        assert_eq!(c.macs(), 30);
        assert_eq!(c.folds(), 2);
        assert_eq!(c.busy_trace().len(), 15);
    }

    #[test]
    fn zero_cycle_utilization_is_zero() {
        let r = SimResult::new(Tensor::zeros(&[1]).unwrap(), 0, 0, 4, 0, vec![]);
        assert_eq!(r.utilization(), 0.0);
    }
}
