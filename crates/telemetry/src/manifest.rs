//! Run provenance: the `fuseconv-manifest-v1` record embedded in every
//! JSON artifact the workspace emits.
//!
//! A [`RunManifest`] ties a result to the build that produced it (tool,
//! version), the configuration it ran under (free-form config string plus
//! an FNV-1a hash, array dims, dataflow, seed), the host it ran on, and
//! when/how long it ran. Producers call [`capture`] to snapshot the
//! process-wide run description (set once by the CLI via
//! [`set_run_config`] / [`set_run_seed`] / [`set_run_array`]) and may
//! refine individual fields with the `with_*` builders before rendering.
//!
//! The field list is flat and its order is fixed — golden schema tests
//! (`tests/golden/manifest_schema.json`) pin both.

use crate::json::Json;
use crate::time::{unix_millis, Stopwatch};
use std::sync::{Mutex, OnceLock};

/// Schema tag written into every rendered manifest.
pub const MANIFEST_SCHEMA: &str = "fuseconv-manifest-v1";

/// 64-bit FNV-1a hash, the workspace's standard content fingerprint.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Process-wide run description, written by the CLI entry point and read
/// by every [`capture`] call.
#[derive(Debug, Clone)]
struct RunConfig {
    config: String,
    seed: u64,
    rows: usize,
    cols: usize,
    dataflow: String,
    broadcast: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            config: String::new(),
            seed: 0,
            rows: 0,
            cols: 0,
            dataflow: "unspecified".to_owned(),
            broadcast: false,
        }
    }
}

fn run_config() -> &'static Mutex<RunConfig> {
    static RUN: OnceLock<Mutex<RunConfig>> = OnceLock::new();
    RUN.get_or_init(|| Mutex::new(RunConfig::default()))
}

/// Process start marker: Unix ms at first telemetry use plus a stopwatch
/// for the `elapsed_ms` field.
fn process_start() -> &'static (u64, Stopwatch) {
    static START: OnceLock<(u64, Stopwatch)> = OnceLock::new();
    START.get_or_init(|| (unix_millis(), Stopwatch::start()))
}

/// Record the process-wide run configuration string (typically the CLI
/// subcommand and flags). Later [`capture`] calls embed it verbatim and
/// as an FNV-1a hash.
pub fn set_run_config(config: &str) {
    if let Ok(mut run) = run_config().lock() {
        run.config = config.to_owned();
    }
}

/// Record the process-wide RNG seed for provenance.
pub fn set_run_seed(seed: u64) {
    if let Ok(mut run) = run_config().lock() {
        run.seed = seed;
    }
}

/// Record the process-wide array geometry and dataflow for provenance.
pub fn set_run_array(rows: usize, cols: usize, dataflow: &str, broadcast: bool) {
    if let Ok(mut run) = run_config().lock() {
        run.rows = rows;
        run.cols = cols;
        run.dataflow = dataflow.to_owned();
        run.broadcast = broadcast;
    }
}

/// One run-provenance record (`fuseconv-manifest-v1`).
///
/// Fields are deliberately flat (no nested objects) so embedding a
/// manifest in an existing artifact only appends depth-2 keys to that
/// artifact's golden schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Emitting tool; always `"fuseconv"` for this workspace.
    pub tool: String,
    /// Workspace package version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Free-form configuration string (subcommand, flags, network).
    pub config: String,
    /// Systolic array rows (0 when no single array applies).
    pub rows: usize,
    /// Systolic array columns (0 when no single array applies).
    pub cols: usize,
    /// Dataflow name (`os`/`ws`/`is`) or `"unspecified"`.
    pub dataflow: String,
    /// Whether the array models the FuSe row-broadcast bus.
    pub broadcast: bool,
    /// RNG seed the run used (0 when seedless).
    pub seed: u64,
    /// Host triple: `{arch}-{os}-{family}` from `std::env::consts`.
    pub host: String,
    /// Unix ms at process start (first telemetry use).
    pub started_unix_ms: u64,
    /// Host ms elapsed from process start to this capture.
    pub elapsed_ms: u64,
}

impl RunManifest {
    /// Snapshot the process-wide run description into a manifest.
    #[must_use]
    pub fn capture() -> Self {
        let (started, sw) = *process_start();
        let run = run_config().lock().map(|r| r.clone()).unwrap_or_default();
        RunManifest {
            tool: "fuseconv".to_owned(),
            version: env!("CARGO_PKG_VERSION").to_owned(),
            config: run.config,
            rows: run.rows,
            cols: run.cols,
            dataflow: run.dataflow,
            broadcast: run.broadcast,
            seed: run.seed,
            host: format!(
                "{}-{}-{}",
                std::env::consts::ARCH,
                std::env::consts::OS,
                std::env::consts::FAMILY
            ),
            started_unix_ms: started,
            elapsed_ms: u64::try_from(sw.elapsed().as_millis()).unwrap_or(u64::MAX),
        }
    }

    /// Override the configuration string (builder style).
    #[must_use]
    pub fn with_config(mut self, config: &str) -> Self {
        self.config = config.to_owned();
        self
    }

    /// Override the seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override array geometry and broadcast flag (builder style).
    #[must_use]
    pub fn with_array(mut self, rows: usize, cols: usize, broadcast: bool) -> Self {
        self.rows = rows;
        self.cols = cols;
        self.broadcast = broadcast;
        self
    }

    /// Override the dataflow name (builder style).
    #[must_use]
    pub fn with_dataflow(mut self, dataflow: &str) -> Self {
        self.dataflow = dataflow.to_owned();
        self
    }

    /// `fnv1a64:<16 hex digits>` fingerprint of the config string.
    #[must_use]
    pub fn config_hash(&self) -> String {
        format!("fnv1a64:{:016x}", fnv1a64(self.config.as_bytes()))
    }

    /// Writes every field, in schema order, into the open container.
    pub(crate) fn write_fields(&self, j: &mut Json) {
        j.str("schema", MANIFEST_SCHEMA)
            .str("tool", &self.tool)
            .str("version", &self.version)
            .str("config", &self.config)
            .str("config_hash", &self.config_hash())
            .raw("rows", self.rows)
            .raw("cols", self.cols)
            .str("dataflow", &self.dataflow)
            .raw("broadcast", self.broadcast)
            .raw("seed", self.seed)
            .str("host", &self.host)
            .raw("started_unix_ms", self.started_unix_ms)
            .raw("elapsed_ms", self.elapsed_ms);
    }

    /// Pretty JSON object (`"key": value`, 2-space indent).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        self.render(Json::pretty())
    }

    /// Compact JSON object (`"key":value`).
    #[must_use]
    pub fn to_json_compact(&self) -> String {
        self.render(Json::compact())
    }

    fn render(&self, mut j: Json) -> String {
        self.write_fields(&mut j);
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn capture_fills_build_and_host_fields() {
        let m = RunManifest::capture();
        assert_eq!(m.tool, "fuseconv");
        assert_eq!(m.version, env!("CARGO_PKG_VERSION"));
        assert!(m.host.contains(std::env::consts::OS));
        assert!(m.config_hash().starts_with("fnv1a64:"));
        assert_eq!(m.config_hash().len(), "fnv1a64:".len() + 16);
    }

    #[test]
    fn builders_override_fields() {
        let m = RunManifest::capture()
            .with_config("unit test")
            .with_seed(7)
            .with_array(8, 16, true)
            .with_dataflow("ws");
        assert_eq!((m.rows, m.cols, m.seed), (8, 16, 7));
        assert!(m.broadcast);
        assert_eq!(m.dataflow, "ws");
        assert_eq!(m.config, "unit test");
    }

    #[test]
    fn both_renderings_carry_the_schema_tag_and_same_keys() {
        let m = RunManifest::capture().with_config("render");
        let pretty = m.to_json_pretty();
        let compact = m.to_json_compact();
        assert!(pretty.contains("\"schema\": \"fuseconv-manifest-v1\""));
        assert!(compact.contains("\"schema\":\"fuseconv-manifest-v1\""));
        for key in [
            "tool",
            "version",
            "config",
            "config_hash",
            "rows",
            "cols",
            "dataflow",
            "broadcast",
            "seed",
            "host",
            "started_unix_ms",
            "elapsed_ms",
        ] {
            assert!(pretty.contains(&format!("\"{key}\": ")), "pretty {key}");
            assert!(compact.contains(&format!("\"{key}\":")), "compact {key}");
        }
    }
}
