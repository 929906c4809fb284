//! Pod descriptions: which arrays make up the serving pod.
//!
//! A pod is written as a comma-separated list of array entries, each
//! `ROWSxCOLS` with an optional `:os` / `:ws` / `:is` dataflow suffix
//! (output-stationary when omitted), e.g. `"64x64:os,32x32:ws,8x8"`.
//! Every array is built with the row-broadcast extension enabled so
//! FuSe-transformed networks are servable on any member of the pod.

use fuseconv_latency::{Dataflow, LatencyError, LatencyModel};
use fuseconv_systolic::{ArrayConfig, ConfigError};
use std::fmt;

/// Everything that can go wrong while building or running a pod
/// simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A pod/array spec string did not parse.
    Spec(String),
    /// An array dimension was rejected by the systolic configuration.
    Array(ConfigError),
    /// The analytic cost oracle rejected an operator.
    Latency(LatencyError),
    /// The serving configuration itself is inconsistent.
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Spec(msg) => write!(f, "pod spec error: {msg}"),
            ServeError::Array(e) => write!(f, "array config error: {e}"),
            ServeError::Latency(e) => write!(f, "latency oracle error: {e}"),
            ServeError::Config(msg) => write!(f, "serve config error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Array(e)
    }
}

impl From<LatencyError> for ServeError {
    fn from(e: LatencyError) -> Self {
        ServeError::Latency(e)
    }
}

/// One systolic array of the pod: its dimensions and dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArraySpec {
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Dataflow the array's latency model uses.
    pub dataflow: Dataflow,
}

impl ArraySpec {
    /// Parses one entry of a pod string: `ROWSxCOLS[:os|ws|is]`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Spec`] for malformed entries and
    /// [`ServeError::Array`] for dimensions the simulator rejects
    /// (e.g. zero).
    pub fn parse(entry: &str) -> Result<Self, ServeError> {
        let entry = entry.trim();
        let (dims, dataflow) = match entry.split_once(':') {
            Some((dims, df)) => {
                let dataflow = match df {
                    "os" => Dataflow::OutputStationary,
                    "ws" => Dataflow::WeightStationary,
                    "is" => Dataflow::InputStationary,
                    other => {
                        return Err(ServeError::Spec(format!(
                            "unknown dataflow `{other}` in `{entry}` (expected os|ws|is)"
                        )))
                    }
                };
                (dims, dataflow)
            }
            None => (entry, Dataflow::OutputStationary),
        };
        let (r, c) = dims.split_once('x').ok_or_else(|| {
            ServeError::Spec(format!("expected ROWSxCOLS in `{entry}` (e.g. 32x32)"))
        })?;
        let rows: usize = r
            .trim()
            .parse()
            .map_err(|_| ServeError::Spec(format!("bad row count `{r}` in `{entry}`")))?;
        let cols: usize = c
            .trim()
            .parse()
            .map_err(|_| ServeError::Spec(format!("bad column count `{c}` in `{entry}`")))?;
        // Validate dimensions eagerly so parse errors surface before the
        // simulation starts.
        ArrayConfig::new(rows, cols)?;
        Ok(ArraySpec {
            rows,
            cols,
            dataflow,
        })
    }

    /// Short display name, e.g. `64x64:os` — also the Chrome-trace lane
    /// label and the per-array report key.
    pub fn name(&self) -> String {
        format!("{}x{}:{}", self.rows, self.cols, self.dataflow.short_name())
    }

    /// Pipeline-refill penalty a preemption charges the victim on this
    /// array: `rows + cols` cycles to re-skew the systolic wavefront.
    pub fn refill_penalty(&self) -> u64 {
        (self.rows + self.cols) as u64
    }

    /// Builds the array's analytic latency model (row-broadcast
    /// enabled, batch 1).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Array`] if the dimensions are rejected.
    pub fn model(&self) -> Result<LatencyModel, ServeError> {
        let array = ArrayConfig::new(self.rows, self.cols)?.with_broadcast(true);
        Ok(LatencyModel::new(array).with_dataflow(self.dataflow))
    }
}

/// The serving pod: an ordered list of heterogeneous arrays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PodSpec {
    /// Member arrays, in dispatch-preference order (ties in dispatch
    /// cost break toward the lower index).
    pub arrays: Vec<ArraySpec>,
}

impl PodSpec {
    /// Parses a comma-separated pod string, e.g.
    /// `"64x64:os,32x32:ws,16x16,8x8"`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Spec`] when empty or when any entry fails
    /// [`ArraySpec::parse`].
    pub fn parse(spec: &str) -> Result<Self, ServeError> {
        let arrays: Vec<ArraySpec> = spec
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(ArraySpec::parse)
            .collect::<Result<_, _>>()?;
        if arrays.is_empty() {
            return Err(ServeError::Spec("pod has no arrays".to_string()));
        }
        Ok(PodSpec { arrays })
    }

    /// A pod of identical square output-stationary arrays (test and
    /// example convenience).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Array`] if `side` is rejected.
    pub fn homogeneous(count: usize, side: usize) -> Result<Self, ServeError> {
        ArrayConfig::new(side, side)?;
        Ok(PodSpec {
            arrays: vec![
                ArraySpec {
                    rows: side,
                    cols: side,
                    dataflow: Dataflow::OutputStationary,
                };
                count.max(1)
            ],
        })
    }

    /// One latency model per array, in pod order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Array`] if any member's dimensions are
    /// rejected.
    pub fn models(&self) -> Result<Vec<LatencyModel>, ServeError> {
        self.arrays.iter().map(ArraySpec::model).collect()
    }

    /// Number of arrays in the pod.
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// Whether the pod is empty (never true for a parsed pod).
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }
}

impl fmt::Display for PodSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.arrays.iter().map(ArraySpec::name).collect();
        write!(f, "{}", names.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_pod() {
        let pod = PodSpec::parse("64x64:os, 32x32:ws,16x16:is,8x8").expect("valid pod");
        assert_eq!(pod.len(), 4);
        assert_eq!(pod.arrays[0].name(), "64x64:os");
        assert_eq!(pod.arrays[1].dataflow, Dataflow::WeightStationary);
        assert_eq!(pod.arrays[3].dataflow, Dataflow::OutputStationary);
        // Display canonicalises: the default dataflow is spelled out.
        assert_eq!(pod.to_string(), "64x64:os,32x32:ws,16x16:is,8x8:os");
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(matches!(
            PodSpec::parse("64x64:xx"),
            Err(ServeError::Spec(_))
        ));
        assert!(matches!(PodSpec::parse("64"), Err(ServeError::Spec(_))));
        assert!(matches!(PodSpec::parse(""), Err(ServeError::Spec(_))));
        assert!(matches!(PodSpec::parse("0x4"), Err(ServeError::Array(_))));
    }

    #[test]
    fn models_carry_broadcast_and_dataflow() {
        let pod = PodSpec::parse("8x8:ws").expect("valid pod");
        let models = pod.models().expect("models build");
        assert!(models[0].array().has_broadcast());
        assert_eq!(models[0].dataflow(), Dataflow::WeightStationary);
    }
}
