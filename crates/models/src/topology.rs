//! A SCALE-Sim-style textual topology format for custom networks.
//!
//! The paper's latency methodology comes from SCALE-Sim, which describes
//! workloads as CSV topology files. This module provides an equivalent so
//! downstream users can evaluate their own networks without writing Rust:
//! one block per line, comma-separated, `#` comments allowed.
//!
//! ```text
//! # kind, args…
//! conv,   <out_c>, <k>, <stride>
//! sep,    <exp_c>, <out_c>, <k>, <stride>[, se<div>]
//! head,   <out_c>
//! fc,     <out_features>
//! input,  <side>, <channels>          (must be the first directive)
//! ```
//!
//! Feature-map geometry is tracked implicitly, exactly like the builders in
//! [`crate::zoo`]. `sep` blocks are the replaceable depthwise-separable /
//! inverted-residual stages.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), fuseconv_models::topology::ParseTopologyError> {
//! use fuseconv_models::topology;
//!
//! let net = topology::parse(
//!     "my-net",
//!     "input, 32, 3
//!      conv,  8, 3, 2
//!      sep,   8, 16, 3, 1
//!      fc,    10",
//! )?;
//! assert_eq!(net.replaceable_indices().len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::block::{Block, SeparableBlock, SpatialFilter};
use crate::network::Network;
use fuseconv_nn::FuSeVariant;
use std::error::Error;
use std::fmt;

/// Error produced when parsing a topology description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTopologyError {
    /// 1-based line number of the offending directive.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "topology line {}: {}", self.line, self.message)
    }
}

impl Error for ParseTopologyError {}

fn err(line: usize, message: impl Into<String>) -> ParseTopologyError {
    ParseTopologyError {
        line,
        message: message.into(),
    }
}

fn parse_usize(line: usize, field: &str, what: &str) -> Result<usize, ParseTopologyError> {
    field.trim().parse().map_err(|_| {
        err(
            line,
            format!("{what} must be an integer, got `{}`", field.trim()),
        )
    })
}

/// [`parse_usize`] for a size or count, which must be nonzero.
fn parse_nonzero(line: usize, field: &str, what: &str) -> Result<usize, ParseTopologyError> {
    match parse_usize(line, field, what)? {
        0 => Err(err(line, format!("{what} must be nonzero"))),
        n => Ok(n),
    }
}

/// Parses a topology description into a [`Network`].
///
/// # Errors
///
/// Returns [`ParseTopologyError`] for unknown directives, wrong arity,
/// non-integer fields, a missing/duplicate `input` directive,
/// zero-sized dimensions, or sizes whose geometry, FuSe channel count or
/// MAC/parameter count overflows.
pub fn parse(name: &str, text: &str) -> Result<Network, ParseTopologyError> {
    let mut blocks: Vec<(String, Block)> = Vec::new();
    let mut geom: Option<(usize, usize, usize)> = None; // (h, w, c)
    let mut totals = [(0u64, 0u64); 3]; // (MACs, params): as written, Full, Half

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let kind = fields[0].to_ascii_lowercase();
        let args = &fields[1..];

        if kind == "input" {
            if geom.is_some() {
                return Err(err(line_no, "duplicate `input` directive"));
            }
            if args.len() != 2 {
                return Err(err(line_no, "`input` takes <side>, <channels>"));
            }
            let side = parse_nonzero(line_no, args[0], "input side")?;
            let channels = parse_nonzero(line_no, args[1], "input channels")?;
            geom = Some((side, side, channels));
            continue;
        }

        let Some((h, w, c)) = geom else {
            return Err(err(line_no, "the first directive must be `input`"));
        };

        let block = match kind.as_str() {
            "conv" => {
                if args.len() != 3 {
                    return Err(err(line_no, "`conv` takes <out_c>, <k>, <stride>"));
                }
                let out_c = parse_nonzero(line_no, args[0], "out_c")?;
                let k = parse_nonzero(line_no, args[1], "k")?;
                let stride = parse_nonzero(line_no, args[2], "stride")?;
                validate_spatial(line_no, h, w, k, stride)?;
                let pad = k / 2;
                geom = Some((
                    (h + 2 * pad - k) / stride + 1,
                    (w + 2 * pad - k) / stride + 1,
                    out_c,
                ));
                Block::Conv {
                    in_h: h,
                    in_w: w,
                    in_c: c,
                    out_c,
                    k,
                    stride,
                }
            }
            "sep" => {
                if args.len() != 4 && args.len() != 5 {
                    return Err(err(
                        line_no,
                        "`sep` takes <exp_c>, <out_c>, <k>, <stride>[, se<div>]",
                    ));
                }
                let exp_c = parse_nonzero(line_no, args[0], "exp_c")?;
                let out_c = parse_nonzero(line_no, args[1], "out_c")?;
                let k = parse_nonzero(line_no, args[2], "k")?;
                let stride = parse_nonzero(line_no, args[3], "stride")?;
                validate_spatial(line_no, h, w, k, stride)?;
                let se_div = match args.get(4) {
                    None => None,
                    Some(field) => {
                        let stripped = field
                            .strip_prefix("se")
                            .ok_or_else(|| err(line_no, "fifth field must be `se<div>`"))?;
                        Some(parse_nonzero(line_no, stripped, "se divisor")?)
                    }
                };
                if exp_c.checked_mul(2).is_none() {
                    return Err(err(line_no, "exp_c overflows the FuSe channel count"));
                }
                let block = SeparableBlock {
                    in_h: h,
                    in_w: w,
                    in_c: c,
                    exp_c,
                    out_c,
                    k,
                    stride,
                    se_div,
                    filter: SpatialFilter::Depthwise,
                };
                let (oh, ow) = block.out_hw();
                geom = Some((oh, ow, out_c));
                Block::Separable(block)
            }
            "head" => {
                if args.len() != 1 {
                    return Err(err(line_no, "`head` takes <out_c>"));
                }
                let out_c = parse_nonzero(line_no, args[0], "out_c")?;
                geom = Some((h, w, out_c));
                Block::Head {
                    in_h: h,
                    in_w: w,
                    in_c: c,
                    out_c,
                }
            }
            "fc" => {
                if args.len() != 1 {
                    return Err(err(line_no, "`fc` takes <out_features>"));
                }
                let out = parse_nonzero(line_no, args[0], "out_features")?;
                geom = Some((1, 1, out));
                Block::Fc {
                    in_features: c,
                    out_features: out,
                }
            }
            other => {
                return Err(err(
                    line_no,
                    format!("unknown directive `{other}` (expected input/conv/sep/head/fc)"),
                ));
            }
        };
        add_counts(line_no, block, &mut totals)?;
        blocks.push((format!("{kind}{}", blocks.len()), block));
    }

    if geom.is_none() {
        return Err(err(0, "empty topology: missing `input` directive"));
    }
    if blocks.is_empty() {
        return Err(err(0, "topology declares no blocks"));
    }
    Ok(Network::new(name, blocks))
}

/// Rejects a kernel or stride larger than the `h`×`w` input map:
/// same-padding (`k/2`) would let such a layer "run", but it would
/// mostly multiply padding, and its cost and any FuSe speed-up priced
/// from it would be meaningless. Also rejects a map whose padded extent
/// overflows.
fn validate_spatial(
    line: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
) -> Result<(), ParseTopologyError> {
    let side = h.min(w);
    if k > side || stride > side {
        return Err(err(
            line,
            format!("kernel {k} or stride {stride} exceeds the {h}x{w} input map"),
        ));
    }
    if h.max(w).checked_add(k / 2 * 2).is_none() {
        return Err(err(
            line,
            format!("the {h}x{w} input map padded by {} overflows", k / 2),
        ));
    }
    Ok(())
}

/// Adds `block`'s MAC and parameter counts — as written and under FuSe
/// Full and Half — to the network `totals`, rejecting the block if any
/// count or total overflows `u64`. A parsed network's `macs()`,
/// `params()` and `transform_all` results therefore never overflow.
fn add_counts(
    line: usize,
    block: Block,
    totals: &mut [(u64, u64); 3],
) -> Result<(), ParseTopologyError> {
    let variants = [None, Some(FuSeVariant::Full), Some(FuSeVariant::Half)];
    for (variant, (macs, params)) in variants.into_iter().zip(totals) {
        for op in variant.map_or(block, |v| block.fused(v)).ops() {
            let (Some(m), Some(p)) = (
                op.checked_macs().and_then(|m| macs.checked_add(m)),
                op.checked_params().and_then(|p| params.checked_add(p)),
            ) else {
                let message = format!("the MAC or parameter count of `{op}` overflows");
                return Err(err(line, message));
            };
            (*macs, *params) = (m, p);
        }
    }
    Ok(())
}

/// Serializes a network back into the topology format. `parse ∘ to_text`
/// is the identity on block structure (labels are regenerated).
pub fn to_text(network: &Network) -> String {
    let mut out = format!("# topology of {}\n", network.name());
    let mut wrote_input = false;
    for (_, block) in network.blocks() {
        if !wrote_input {
            let (h, c) = match *block {
                Block::Conv { in_h, in_c, .. } => (in_h, in_c),
                Block::Separable(b) => (b.in_h, b.in_c),
                Block::Head { in_h, in_c, .. } => (in_h, in_c),
                Block::Fc { in_features, .. } => (1, in_features),
            };
            out.push_str(&format!("input, {h}, {c}\n"));
            wrote_input = true;
        }
        match *block {
            Block::Conv {
                out_c, k, stride, ..
            } => out.push_str(&format!("conv, {out_c}, {k}, {stride}\n")),
            Block::Separable(b) => {
                let se = b.se_div.map(|d| format!(", se{d}")).unwrap_or_default();
                out.push_str(&format!(
                    "sep, {}, {}, {}, {}{se}\n",
                    b.exp_c, b.out_c, b.k, b.stride
                ));
            }
            Block::Head { out_c, .. } => out.push_str(&format!("head, {out_c}\n")),
            Block::Fc { out_features, .. } => out.push_str(&format!("fc, {out_features}\n")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    const TINY: &str = "
        # a tiny edge network
        input, 32, 3
        conv,  8, 3, 2
        sep,   8, 16, 3, 1          # V1-style block
        sep,   96, 24, 5, 2, se4    # V3-style block with SE
        head,  64
        fc,    10
    ";

    #[test]
    fn parses_valid_topology() {
        let net = parse("tiny", TINY).unwrap();
        assert_eq!(net.blocks().len(), 5);
        assert_eq!(net.replaceable_indices(), vec![1, 2]);
        assert!(net.macs() > 0);
        // SE present on the second sep block: its ops include two FCs.
        let ops = net.blocks()[2].1.ops();
        assert_eq!(ops.len(), 5); // expand, dw, 2x SE fc, project
    }

    #[test]
    fn geometry_is_tracked() {
        let net = parse("tiny", TINY).unwrap();
        // conv stride 2 on 32 → 16; sep stride 1 keeps 16; sep stride 2 → 8.
        let (oh, ow, oc) = net.blocks()[2].1.ops().last().unwrap().output_shape();
        assert_eq!((oh, ow, oc), (8, 8, 24));
    }

    #[test]
    fn round_trips_the_zoo() {
        for net in zoo::all_baselines() {
            let text = to_text(&net);
            let parsed = parse(net.name(), &text).unwrap();
            assert_eq!(parsed.macs(), net.macs(), "{}", net.name());
            assert_eq!(parsed.params(), net.params(), "{}", net.name());
            assert_eq!(
                parsed.replaceable_indices(),
                net.replaceable_indices(),
                "{}",
                net.name()
            );
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let cases = [
            ("conv, 8, 3, 1", "first directive"),
            ("input, 32, 3\ninput, 32, 3", "duplicate"),
            ("input, 32, 3\nconv, 8, 3", "`conv` takes"),
            ("input, 32, 3\nwat, 1", "unknown directive"),
            ("input, 32, 3\nconv, 8, 0, 1", "nonzero"),
            ("input, 32, 3\nconv, 8, 3, x", "integer"),
            ("input, 32, 3\nsep, 8, 16, 3, 1, foo4", "se<div>"),
            ("input, 0, 3", "nonzero"),
            ("", "missing `input`"),
            ("input, 32, 3", "no blocks"),
        ];
        for (text, needle) in cases {
            let e = parse("bad", text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "`{text}` → `{e}` (expected `{needle}`)"
            );
        }
    }

    #[test]
    fn kernel_or_stride_larger_than_the_map_is_rejected_with_its_line() {
        // A 99-wide kernel once priced a 242x FuSe-Half "speed-up".
        let kernel_wider_than_map = "input, 32, 3\nsep, 8, 16, 99, 1\nfc, 10";
        let stride_longer_than_map = "input, 32, 3\nconv, 8, 3, 64";
        // The map is 4x4 after the stride-2 conv.
        let kernel_wider_than_strided_map = "input, 8, 3\nconv, 8, 3, 2\nsep, 8, 8, 5, 1";
        let cases = [
            (kernel_wider_than_map, 2, "32x32"),
            (stride_longer_than_map, 2, "32x32"),
            (kernel_wider_than_strided_map, 3, "4x4"),
        ];
        for (text, line, map) in cases {
            let e = parse("bad", text).unwrap_err();
            assert_eq!(e.line, line, "{e}");
            let want = format!("exceeds the {map} input map");
            assert!(e.to_string().contains(&want), "{e}");
        }
    }

    #[test]
    fn se0_is_rejected_with_its_line() {
        let e = parse("bad", "input, 32, 3\nsep, 8, 16, 3, 1, se0").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("se divisor must be nonzero"), "{e}");
    }

    #[test]
    fn zero_widths_are_rejected_with_their_line() {
        // Once parsed, then failed in the latency model with "zero-sized
        // dimensions".
        for (text, what) in [
            ("input, 32, 3\nconv, 0, 3, 1", "out_c"),
            ("input, 32, 3\nhead, 0", "out_c"),
            ("input, 32, 3\nfc, 0", "out_features"),
            ("input, 32, 3\nsep, 0, 16, 3, 1", "exp_c"),
        ] {
            let e = parse("bad", text).unwrap_err();
            let want = format!("{what} must be nonzero");
            assert!(e.line == 2 && e.to_string().contains(&want), "{e}");
        }
    }

    #[test]
    fn overflowing_input_side_is_rejected_with_its_line() {
        // Once "attempt to add with overflow" in the conv geometry.
        let padded = "input, 18446744073709551615, 3\nconv, 8, 3, 1";
        // 1x1 kernels keep the geometry in range; the MAC count is not.
        let macs = "input, 18446744073709551615, 3\nconv, 8, 1, 1";
        for (text, needle) in [(padded, "padded by 1 overflows"), (macs, "MAC")] {
            let e = parse("bad", text).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn overflowing_expansion_is_rejected_with_its_line() {
        // Once parsed, then "attempt to multiply with overflow" in
        // `transform_all` (2 * exp_c) and in `macs()`.
        let fuse = "input, 224, 3\nsep, 18446744073709551615, 320, 3, 1";
        let macs = "input, 224, 3\nsep, 9223372036854775807, 320, 3, 1";
        for (text, needle) in [(fuse, "FuSe channel count"), (macs, "MAC")] {
            let e = parse("bad", text).unwrap_err();
            assert_eq!(e.line, 2, "{e}");
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn parsed_networks_transform_like_builtin_ones() {
        use fuseconv_nn::FuSeVariant;
        let net = parse("tiny", TINY).unwrap();
        let fused = net.transform_all(FuSeVariant::Half);
        assert!(fused.replaceable_indices().is_empty());
        assert!(fused.macs() < net.macs());
    }
}
