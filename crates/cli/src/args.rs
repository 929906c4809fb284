//! Minimal flag parsing for the CLI (hand-rolled; the workspace's
//! dependency policy does not include an argument-parsing crate).

use std::fmt;

/// Flags that take no value: `--name` alone means `--name true`.
/// (`--name=value` still works for these, which is how `profile`'s
/// `--chrome-trace[=PATH]` / `--metrics-json[=PATH]` take optional paths.)
const SWITCHES: &[&str] = &[
    "all",
    "json",
    "chrome-trace",
    "metrics-json",
    "preempt",
    "serve",
    "fusion",
    "force",
    "timeseries",
];

/// A parsed command line: the subcommand and its `--flag value` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--flag value` pairs, in order.
    flags: Vec<(String, String)>,
}

/// Error from argument parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

impl ParsedArgs {
    /// Parses `argv` (without the program name). Flags are `--name value`
    /// or `--name=value`; everything else is positional.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] when a subcommand is missing or a flag
    /// lacks a value.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ParseArgsError> {
        let mut iter = argv.into_iter().peekable();
        let command = iter
            .next()
            .ok_or_else(|| ParseArgsError("missing subcommand; try `fuseconv help`".into()))?;
        let mut parsed = ParsedArgs {
            command,
            ..ParsedArgs::default()
        };
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some((key, value)) = name.split_once('=') {
                    parsed.flags.push((key.to_string(), value.to_string()));
                } else if SWITCHES.contains(&name) {
                    parsed.flags.push((name.to_string(), "true".to_string()));
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ParseArgsError(format!("flag --{name} requires a value")))?;
                    parsed.flags.push((name.to_string(), value));
                }
            } else {
                parsed.positional.push(arg);
            }
        }
        Ok(parsed)
    }

    /// The last occurrence of `--name`, if any.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses `--name` as `usize`, `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] if the value is present but not an
    /// integer.
    pub fn opt_usize_flag(&self, name: &str) -> Result<Option<usize>, ParseArgsError> {
        self.flag(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| ParseArgsError(format!("--{name} expects an integer, got `{v}`")))
            })
            .transpose()
    }

    /// Parses `--name` as `usize`, with a default.
    ///
    /// # Errors
    ///
    /// As [`Self::opt_usize_flag`].
    pub fn usize_flag(&self, name: &str, default: usize) -> Result<usize, ParseArgsError> {
        Ok(self.opt_usize_flag(name)?.unwrap_or(default))
    }

    /// Parses `--name` as `f64`, with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] if the value is present but not a number.
    pub fn f64_flag(&self, name: &str, default: f64) -> Result<f64, ParseArgsError> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseArgsError(format!("--{name} expects a number, got `{v}`"))),
        }
    }

    /// Parses `--name` as a comma-separated list of `usize`, with a
    /// default.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] on any non-integer element.
    pub fn usize_list_flag(
        &self,
        name: &str,
        default: &[usize],
    ) -> Result<Vec<usize>, ParseArgsError> {
        match self.flag(name) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|piece| {
                    piece.trim().parse().map_err(|_| {
                        ParseArgsError(format!("--{name} expects integers, got `{piece}`"))
                    })
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ParsedArgs, ParseArgsError> {
        ParsedArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_flags_and_positionals() {
        let p = parse(&["nos", "--array", "32", "topo.txt", "--mhz=800"]).unwrap();
        assert_eq!(p.command, "nos");
        assert_eq!(p.positional, vec!["topo.txt"]);
        assert_eq!(p.flag("array"), Some("32"));
        assert_eq!(p.flag("mhz"), Some("800"));
        assert_eq!(p.flag("missing"), None);
    }

    #[test]
    fn typed_flags_with_defaults() {
        let p = parse(&["table1", "--array", "128"]).unwrap();
        assert_eq!(p.usize_flag("array", 64).unwrap(), 128);
        assert_eq!(p.usize_flag("other", 7).unwrap(), 7);
        assert_eq!(p.f64_flag("mhz", 700.0).unwrap(), 700.0);
        let p = parse(&["scaling", "--sizes", "8, 16,32"]).unwrap();
        assert_eq!(p.usize_list_flag("sizes", &[64]).unwrap(), vec![8, 16, 32]);
    }

    #[test]
    fn switches_need_no_value() {
        let p = parse(&["analyze", "--all", "--format", "json"]).unwrap();
        assert_eq!(p.flag("all"), Some("true"));
        assert_eq!(p.flag("format"), Some("json"));
    }

    #[test]
    fn switches_accept_optional_equals_value() {
        let p = parse(&["profile", "--chrome-trace", "--metrics-json=m.json"]).unwrap();
        assert_eq!(p.flag("chrome-trace"), Some("true"));
        assert_eq!(p.flag("metrics-json"), Some("m.json"));
    }

    #[test]
    fn last_flag_wins() {
        let p = parse(&["x", "--array", "8", "--array", "16"]).unwrap();
        assert_eq!(p.usize_flag("array", 64).unwrap(), 16);
    }

    #[test]
    fn errors() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["x", "--array"]).is_err());
        let p = parse(&["x", "--array", "lots"]).unwrap();
        assert!(p.usize_flag("array", 64).is_err());
        let p = parse(&["x", "--sizes", "8,no"]).unwrap();
        assert!(p.usize_list_flag("sizes", &[]).is_err());
    }
}
