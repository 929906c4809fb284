//! CSV report emission, SCALE-Sim style.
//!
//! SCALE-Sim's user-facing artifacts are CSV reports; this module emits the
//! same for every experiment so results can be plotted or diffed without
//! running Rust. [`write_all`] regenerates every experiment and writes one
//! file per artifact.

use crate::experiments::{
    AccuracyRow, BreakdownRow, EnergyRow, LayerwiseRow, ScalingRow, Table1Row,
};
use fuseconv_hwcost::Overhead;
use fuseconv_systolic::ArrayConfig;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Formats Table I rows (E1/E2/E4) as CSV.
pub fn table1_csv(rows: &[Table1Row]) -> String {
    let mut out =
        String::from("network,variant,macs_millions,params_millions,latency_cycles,speedup\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{:.3},{:.4},{},{:.4}",
            r.network, r.variant, r.macs_millions, r.params_millions, r.latency_cycles, r.speedup
        );
    }
    out
}

/// Formats Fig. 8(b) rows (E5) as CSV.
pub fn layerwise_csv(rows: &[LayerwiseRow]) -> String {
    let mut out = String::from("block,transformed,baseline_cycles,fused_cycles,speedup\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.4}",
            r.block, r.transformed, r.baseline_cycles, r.fused_cycles, r.speedup
        );
    }
    out
}

/// Formats Fig. 8(c) rows (E6) as CSV (long format: one line per class).
pub fn breakdown_csv(rows: &[BreakdownRow]) -> String {
    let mut out = String::from("network,variant,op_class,latency_fraction\n");
    for r in rows {
        for (class, fraction) in &r.fractions {
            let _ = writeln!(out, "{},{},{class},{fraction:.6}", r.network, r.variant);
        }
    }
    out
}

/// Formats Fig. 8(d) rows (E7) as CSV.
pub fn scaling_csv(rows: &[ScalingRow]) -> String {
    let mut out = String::from("network,array_size,speedup\n");
    for r in rows {
        let _ = writeln!(out, "{},{},{:.4}", r.network, r.array_size, r.speedup);
    }
    out
}

/// Formats §V-B-5 rows (E8) as CSV.
pub fn overhead_csv(rows: &[(usize, Overhead)]) -> String {
    let mut out = String::from("array_size,area_overhead_pct,power_overhead_pct\n");
    for (s, o) in rows {
        let _ = writeln!(out, "{s},{:.4},{:.4}", o.area_pct, o.power_pct);
    }
    out
}

/// Formats energy-study rows as CSV.
pub fn energy_csv(rows: &[EnergyRow]) -> String {
    let mut out = String::from("network,variant,cycles,power_mw,energy_uj\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{},{},{:.3},{:.3}",
            r.network, r.variant, r.cycles, r.power_mw, r.energy_uj
        );
    }
    out
}

/// Formats accuracy-study rows (E3) as CSV.
pub fn accuracy_csv(rows: &[AccuracyRow]) -> String {
    let mut out = String::from("variant,accuracy,params\n");
    for r in rows {
        let _ = writeln!(out, "{},{:.4},{}", r.variant, r.accuracy, r.params);
    }
    out
}

/// Regenerates every latency-side experiment on `array` and writes one CSV
/// per artifact into `dir` (created if missing). Returns the written
/// paths. The accuracy study is excluded (it trains networks and is
/// seconds-long; call [`accuracy_csv`] explicitly when needed).
///
/// # Errors
///
/// Returns [`io::Error`] on filesystem failures; experiment errors are
/// converted to [`io::Error`] with kind `Other`.
pub fn write_all(dir: &Path, array: &ArrayConfig) -> io::Result<Vec<PathBuf>> {
    use crate::experiments as exp;
    let to_io = |e: fuseconv_latency::LatencyError| io::Error::other(e.to_string());

    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut emit = |name: &str, contents: String| -> io::Result<()> {
        let path = dir.join(name);
        fs::write(&path, contents)?;
        written.push(path);
        Ok(())
    };

    emit(
        "table1.csv",
        table1_csv(&exp::table1(array).map_err(to_io)?),
    )?;
    emit(
        "fig8b_layerwise.csv",
        layerwise_csv(
            &exp::layerwise(
                &fuseconv_models::zoo::mobilenet_v2(),
                crate::variant::Variant::FuseFull,
                array,
            )
            .map_err(to_io)?,
        ),
    )?;
    emit(
        "fig8c_breakdown.csv",
        breakdown_csv(&exp::operator_breakdown(array).map_err(to_io)?),
    )?;
    emit(
        "fig8d_scaling.csv",
        scaling_csv(&exp::array_scaling(&[8, 16, 32, 64, 128]).map_err(to_io)?),
    )?;
    emit(
        "hw_overhead.csv",
        overhead_csv(&exp::hw_overhead(&[8, 16, 32, 64, 128, 256])),
    )?;
    emit(
        "energy.csv",
        energy_csv(&exp::energy_study(array.rows(), 700.0).map_err(to_io)?),
    )?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;
    use crate::variant::Variant;

    fn array64() -> ArrayConfig {
        ArrayConfig::square(64).unwrap().with_broadcast(true)
    }

    #[test]
    fn table1_csv_has_header_and_25_rows() {
        let rows = experiments::table1(&array64()).unwrap();
        let csv = table1_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 26);
        assert!(lines[0].starts_with("network,variant,"));
        // Every data line parses back to 6 fields with numeric tail.
        for line in &lines[1..] {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 6);
            assert!(fields[5].parse::<f64>().is_ok());
        }
    }

    #[test]
    fn breakdown_csv_fractions_sum_per_network() {
        let rows = experiments::operator_breakdown(&array64()).unwrap();
        let csv = breakdown_csv(&rows);
        // Sum the fractions of one (network, variant) group.
        let sum: f64 = csv
            .lines()
            .skip(1)
            .filter(|l| l.starts_with("MobileNet-V1,baseline"))
            .map(|l| l.rsplit(',').next().unwrap().parse::<f64>().unwrap())
            .sum();
        assert!((sum - 1.0).abs() < 1e-3);
    }

    #[test]
    fn write_all_creates_files() {
        let dir = std::env::temp_dir().join(format!("fuseconv_report_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let written = write_all(&dir, &array64()).unwrap();
        assert_eq!(written.len(), 6);
        for path in &written {
            let text = std::fs::read_to_string(path).unwrap();
            assert!(text.lines().count() > 1, "{}", path.display());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn accuracy_and_scaling_csv_shapes() {
        let scaling = experiments::array_scaling(&[16]).unwrap();
        let csv = scaling_csv(&scaling);
        assert_eq!(csv.lines().count(), 6); // header + 5 networks
        let acc = vec![experiments::AccuracyRow {
            variant: Variant::Baseline,
            accuracy: 0.875,
            params: 1234,
        }];
        let csv = accuracy_csv(&acc);
        assert!(csv.contains("baseline,0.8750,1234"));
    }
}
