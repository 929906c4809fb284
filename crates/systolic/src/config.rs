//! Array configuration.

use std::error::Error;
use std::fmt;

/// Dimensions and features of the simulated systolic array.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), fuseconv_systolic::ConfigError> {
/// use fuseconv_systolic::ArrayConfig;
///
/// let cfg = ArrayConfig::new(64, 64)?.with_broadcast(true);
/// assert_eq!(cfg.rows(), 64);
/// assert!(cfg.has_broadcast());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayConfig {
    rows: usize,
    cols: usize,
    broadcast: bool,
}

impl ArrayConfig {
    /// Creates an array of `rows × cols` PEs without broadcast links.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::EmptyArray`] if either dimension is zero
    /// and [`ConfigError::OversizedArray`] if `rows × cols` or
    /// `rows + cols` overflows `usize`.
    pub fn new(rows: usize, cols: usize) -> Result<Self, ConfigError> {
        if rows == 0 || cols == 0 {
            return Err(ConfigError::EmptyArray { rows, cols });
        }
        if rows.checked_mul(cols).is_none() || rows.checked_add(cols).is_none() {
            return Err(ConfigError::OversizedArray { rows, cols });
        }
        Ok(ArrayConfig {
            rows,
            cols,
            broadcast: false,
        })
    }

    /// Creates the square `s × s` array used throughout the paper.
    ///
    /// # Errors
    ///
    /// As [`ArrayConfig::new`].
    pub fn square(s: usize) -> Result<Self, ConfigError> {
        Self::new(s, s)
    }

    /// Enables or disables the per-row weight-broadcast links required by
    /// the FuSeConv dataflow (§IV-C-1).
    #[must_use]
    pub fn with_broadcast(mut self, broadcast: bool) -> Self {
        self.broadcast = broadcast;
        self
    }

    /// Number of PE rows (systolic dimension 2 in the paper's figures).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of PE columns (systolic dimension 1 in the paper's figures).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of PEs.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the array has per-row weight-broadcast links.
    pub fn has_broadcast(&self) -> bool {
        self.broadcast
    }
}

impl fmt::Display for ArrayConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} systolic array{}",
            self.rows,
            self.cols,
            if self.broadcast {
                " with row-broadcast links"
            } else {
                ""
            }
        )
    }
}

/// Error constructing an [`ArrayConfig`] or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A zero-sized array was requested.
    EmptyArray {
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
    },
    /// An array whose PE count or `rows + cols` overflows `usize`.
    OversizedArray {
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
    },
    /// The FuSeConv dataflow was requested on an array without broadcast
    /// links.
    BroadcastUnavailable,
    /// Simulation operands had invalid shapes.
    BadOperand {
        /// Description of the problem.
        what: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyArray { rows, cols } => {
                write!(f, "array dimensions {rows}x{cols} must be nonzero")
            }
            ConfigError::OversizedArray { rows, cols } => {
                write!(f, "array dimensions {rows}x{cols} are too large for usize")
            }
            ConfigError::BroadcastUnavailable => write!(
                f,
                "the fuseconv dataflow requires an array with row-broadcast links"
            ),
            ConfigError::BadOperand { what } => write!(f, "invalid operand: {what}"),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_dimensions_rejected() {
        assert!(ArrayConfig::new(0, 4).is_err());
        assert!(ArrayConfig::new(4, 0).is_err());
        assert!(ArrayConfig::square(0).is_err());
    }

    #[test]
    fn overflowing_dimensions_rejected() {
        let side = 1usize << (usize::BITS / 2);
        let err = ArrayConfig::square(side);
        assert!(matches!(err, Err(ConfigError::OversizedArray { .. })));
        assert!(ArrayConfig::new(usize::MAX, 1).is_err());
        assert!(ArrayConfig::square(side - 1).is_ok());
    }

    #[test]
    fn builder_sets_broadcast() {
        let cfg = ArrayConfig::square(32).unwrap();
        assert!(!cfg.has_broadcast());
        let cfg = cfg.with_broadcast(true);
        assert!(cfg.has_broadcast());
        assert_eq!(cfg.pe_count(), 1024);
    }

    #[test]
    fn display_mentions_broadcast() {
        let cfg = ArrayConfig::new(8, 16).unwrap().with_broadcast(true);
        let s = cfg.to_string();
        assert!(s.contains("8x16"));
        assert!(s.contains("broadcast"));
    }
}
