//! Structural area/power model for the modified systolic array (§V-B-5).
//!
//! The paper measures the cost of the per-row weight-broadcast links by
//! synthesizing a 32×32 array, with and without the links, in Bluespec →
//! NanGate 45 nm → Synopsys Design Compiler, reporting **4.35 % area** and
//! **2.25 % power** overhead.
//!
//! Synthesis tools are not available here, so this crate substitutes a
//! *structural* model: the array is composed from per-component 45 nm-class
//! area/power constants (MAC, registers, PE control, edge FIFOs, the
//! broadcast input mux, and the per-row broadcast wire/driver), combined
//! exactly as the RTL would instantiate them. The component constants are
//! calibrated so the 32×32 overhead matches the paper's synthesis numbers;
//! everything else — the scaling of the overhead with array size, the
//! area/power split, the asymptote at large arrays — is *derived* from the
//! structure, not fitted.
//!
//! # Examples
//!
//! ```
//! use fuseconv_hwcost::{ArrayCost, TechnologyProfile};
//!
//! let tech = TechnologyProfile::nangate45();
//! let overhead = tech.broadcast_overhead(32, 32);
//! assert!((overhead.area_pct - 4.35).abs() < 0.5);
//! assert!((overhead.power_pct - 2.25).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Per-component area (µm²) and power (µW at nominal frequency/activity)
/// constants for one technology node.
///
/// The defaults ([`TechnologyProfile::nangate45`]) describe an FP16 MAC
/// datapath in a 45 nm-class library.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechnologyProfile {
    /// MAC unit area per PE.
    pub mac_area: f64,
    /// Register file area per PE (operand + accumulator registers).
    pub reg_area: f64,
    /// Local control area per PE.
    pub ctl_area: f64,
    /// Edge FIFO/skew-buffer area per array row or column lane.
    pub edge_area: f64,
    /// Global control/sequencer area per array.
    pub global_area: f64,
    /// Broadcast additions per PE: input mux + configuration bit + wire
    /// pitch share.
    pub bcast_pe_area: f64,
    /// Broadcast driver + repeater area per array row.
    pub bcast_row_area: f64,
    /// MAC power per PE.
    pub mac_power: f64,
    /// Register power per PE.
    pub reg_power: f64,
    /// Control power per PE.
    pub ctl_power: f64,
    /// Edge FIFO power per lane.
    pub edge_power: f64,
    /// Global control power per array.
    pub global_power: f64,
    /// Broadcast additions power per PE.
    pub bcast_pe_power: f64,
    /// Broadcast driver power per row.
    pub bcast_row_power: f64,
}

impl TechnologyProfile {
    /// The 45 nm-class profile calibrated to the paper's 32×32 synthesis
    /// (4.35 % area / 2.25 % power overhead).
    pub fn nangate45() -> Self {
        TechnologyProfile {
            mac_area: 1600.0,
            reg_area: 500.0,
            ctl_area: 150.0,
            edge_area: 800.0,
            global_area: 50_000.0,
            bcast_pe_area: 88.0,
            bcast_row_area: 450.0,
            mac_power: 500.0,
            reg_power: 150.0,
            ctl_power: 50.0,
            edge_power: 250.0,
            global_power: 20_000.0,
            bcast_pe_power: 12.8,
            bcast_row_power: 120.0,
        }
    }

    /// Area/power of one baseline PE.
    pub fn pe_area(&self) -> f64 {
        self.mac_area + self.reg_area + self.ctl_area
    }

    /// Power of one baseline PE.
    pub fn pe_power(&self) -> f64 {
        self.mac_power + self.reg_power + self.ctl_power
    }

    /// Estimates a full array's cost.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn array_cost(&self, rows: usize, cols: usize, broadcast: bool) -> ArrayCost {
        assert!(rows > 0 && cols > 0, "array dimensions must be nonzero");
        let pes = (rows * cols) as f64;
        let lanes = (rows + cols) as f64;
        let mut area = pes * self.pe_area() + lanes * self.edge_area + self.global_area;
        let mut power = pes * self.pe_power() + lanes * self.edge_power + self.global_power;
        if broadcast {
            area += pes * self.bcast_pe_area + rows as f64 * self.bcast_row_area;
            power += pes * self.bcast_pe_power + rows as f64 * self.bcast_row_power;
        }
        ArrayCost {
            rows,
            cols,
            broadcast,
            area_um2: area,
            power_uw: power,
        }
    }

    /// Relative overhead of adding broadcast links to a `rows×cols` array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn broadcast_overhead(&self, rows: usize, cols: usize) -> Overhead {
        let base = self.array_cost(rows, cols, false);
        let bcast = self.array_cost(rows, cols, true);
        Overhead {
            area_pct: (bcast.area_um2 / base.area_um2 - 1.0) * 100.0,
            power_pct: (bcast.power_uw / base.power_uw - 1.0) * 100.0,
        }
    }
}

impl Default for TechnologyProfile {
    fn default() -> Self {
        Self::nangate45()
    }
}

/// Estimated silicon cost of one array configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayCost {
    /// PE rows.
    pub rows: usize,
    /// PE columns.
    pub cols: usize,
    /// Whether broadcast links are included.
    pub broadcast: bool,
    /// Total area in µm².
    pub area_um2: f64,
    /// Total power in µW.
    pub power_uw: f64,
}

impl ArrayCost {
    /// Area in mm².
    pub fn area_mm2(&self) -> f64 {
        self.area_um2 / 1e6
    }

    /// Power in mW.
    pub fn power_mw(&self) -> f64 {
        self.power_uw / 1e3
    }
}

impl fmt::Display for ArrayCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}{}: {:.3} mm2, {:.1} mW",
            self.rows,
            self.cols,
            if self.broadcast { " +broadcast" } else { "" },
            self.area_mm2(),
            self.power_mw()
        )
    }
}

/// Relative overhead of the broadcast dataflow, in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// Area overhead in percent.
    pub area_pct: f64,
    /// Power overhead in percent.
    pub power_pct: f64,
}

impl fmt::Display for Overhead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "area +{:.2}%, power +{:.2}%",
            self.area_pct, self.power_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_overheads_at_32x32() {
        let o = TechnologyProfile::nangate45().broadcast_overhead(32, 32);
        assert!(
            (o.area_pct - 4.35).abs() < 0.1,
            "area overhead {:.2}% should be ~4.35%",
            o.area_pct
        );
        assert!(
            (o.power_pct - 2.25).abs() < 0.1,
            "power overhead {:.2}% should be ~2.25%",
            o.power_pct
        );
    }

    #[test]
    fn overhead_is_modest_at_every_size() {
        let tech = TechnologyProfile::nangate45();
        for s in [8usize, 16, 32, 64, 128, 256] {
            let o = tech.broadcast_overhead(s, s);
            assert!(o.area_pct > 0.0 && o.area_pct < 6.0, "{s}: {o}");
            assert!(o.power_pct > 0.0 && o.power_pct < 4.0, "{s}: {o}");
        }
    }

    #[test]
    fn overhead_asymptotes_to_per_pe_ratio() {
        // As S → ∞, drivers/edges vanish and the overhead tends to the
        // per-PE mux ratio.
        let tech = TechnologyProfile::nangate45();
        let huge = tech.broadcast_overhead(4096, 4096);
        let per_pe = tech.bcast_pe_area / tech.pe_area() * 100.0;
        assert!((huge.area_pct - per_pe).abs() < 0.1);
    }

    #[test]
    fn cost_scales_quadratically_in_pes() {
        let tech = TechnologyProfile::nangate45();
        let small = tech.array_cost(16, 16, false);
        let big = tech.array_cost(64, 64, false);
        let ratio = big.area_um2 / small.area_um2;
        assert!(
            (12.0..=16.0).contains(&ratio),
            "64x64 should be ~16x a 16x16 array, got {ratio:.1}"
        );
        assert!(big.power_uw > small.power_uw);
    }

    #[test]
    fn broadcast_always_costs_more() {
        let tech = TechnologyProfile::nangate45();
        for (r, c) in [(8, 8), (32, 64), (128, 16)] {
            let base = tech.array_cost(r, c, false);
            let b = tech.array_cost(r, c, true);
            assert!(b.area_um2 > base.area_um2);
            assert!(b.power_uw > base.power_uw);
        }
    }

    #[test]
    fn rectangular_arrays_charge_rows_for_drivers() {
        // Broadcast cost depends on rows (one driver per row), so a tall
        // array pays more driver overhead than a wide one of equal PEs.
        let tech = TechnologyProfile::nangate45();
        let tall =
            tech.array_cost(128, 16, true).area_um2 - tech.array_cost(128, 16, false).area_um2;
        let wide =
            tech.array_cost(16, 128, true).area_um2 - tech.array_cost(16, 128, false).area_um2;
        assert!(tall > wide);
    }

    #[test]
    fn display_formats() {
        let tech = TechnologyProfile::nangate45();
        let c = tech.array_cost(32, 32, true);
        assert!(c.to_string().contains("+broadcast"));
        let o = tech.broadcast_overhead(32, 32);
        assert!(o.to_string().contains('%'));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_array_rejected() {
        let _ = TechnologyProfile::nangate45().array_cost(0, 32, false);
    }
}
