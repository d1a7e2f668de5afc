//! Compilation targets: a validated device description (coupling graph +
//! per-link latency model) that every [`crate::QftCompiler`] consumes.
//!
//! Construction is fallible — invalid device parameters (odd Sycamore `m`,
//! zero heavy-hex groups, degenerate lattices) are reported as descriptive
//! [`CompileError::InvalidTarget`] values, never panics or garbage
//! circuits.

use crate::pipeline::CompileError;
use qft_arch::graph::CouplingGraph;
use qft_arch::heavyhex::HeavyHex;
use qft_arch::lattice::LatticeSurgery;
use qft_arch::sycamore::Sycamore;

/// The shape a [`Target`] was constructed from — compact provenance for
/// results and logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetSpec {
    /// Linear nearest-neighbor line of `n` qubits.
    Lnn {
        /// Number of qubits.
        n: usize,
    },
    /// Google Sycamore diagonal lattice, `m × m` (even `m ≥ 2`).
    Sycamore {
        /// Side length.
        m: usize,
    },
    /// IBM heavy-hex, `g` groups of 5 qubits (§7's configuration).
    HeavyHexGroups {
        /// Number of 4+1 groups.
        g: usize,
    },
    /// IBM heavy-hex with a custom dangler pattern.
    HeavyHexCustom,
    /// Lattice-surgery FT grid, `m × m` (`m ≥ 2`).
    LatticeSurgery {
        /// Side length.
        m: usize,
    },
    /// A user-supplied coupling graph.
    Custom,
}

/// The constructed device model behind a [`Target`].
#[derive(Debug, Clone)]
enum Device {
    Lnn(CouplingGraph),
    Sycamore(Sycamore),
    HeavyHex(HeavyHex),
    Lattice(LatticeSurgery),
    Custom(CouplingGraph),
}

/// A validated compilation target: coupling graph plus latency model.
///
/// Compilers receive a `&Target` and downcast to the device family they
/// understand via [`Target::as_sycamore`] & co., while search-based
/// compilers only need [`Target::graph`]. New device families extend this type (or use
/// [`Target::custom`]) without touching any compiler.
#[derive(Debug, Clone)]
pub struct Target {
    spec: TargetSpec,
    device: Device,
}

fn invalid(reason: impl Into<String>) -> CompileError {
    CompileError::InvalidTarget {
        reason: reason.into(),
    }
}

impl Target {
    /// A linear nearest-neighbor line of `n ≥ 2` qubits.
    pub fn lnn(n: usize) -> Result<Target, CompileError> {
        if n < 2 {
            return Err(invalid(format!(
                "LNN target needs at least 2 qubits, got {n}"
            )));
        }
        Ok(Target {
            spec: TargetSpec::Lnn { n },
            device: Device::Lnn(qft_arch::lnn::lnn(n)),
        })
    }

    /// A Sycamore `m × m` lattice; `m` must be even and at least 2 (the
    /// paper's two-row unit structure pairs rows).
    pub fn sycamore(m: usize) -> Result<Target, CompileError> {
        if m < 2 || !m.is_multiple_of(2) {
            return Err(invalid(format!(
                "Sycamore target needs even m >= 2 (two-row units pair rows), got m={m}"
            )));
        }
        Ok(Target {
            spec: TargetSpec::Sycamore { m },
            device: Device::Sycamore(Sycamore::new(m)),
        })
    }

    /// An IBM heavy-hex device of `g ≥ 1` groups of 5 qubits.
    pub fn heavy_hex_groups(g: usize) -> Result<Target, CompileError> {
        if g == 0 {
            return Err(invalid(
                "heavy-hex target needs at least 1 group of 5 qubits, got 0",
            ));
        }
        Ok(Target {
            spec: TargetSpec::HeavyHexGroups { g },
            device: Device::HeavyHex(HeavyHex::groups(g)),
        })
    }

    /// Wraps an already-constructed heavy-hex device (arbitrary dangler
    /// pattern, e.g. from [`qft_arch::heavyhex::HeavyHexLattice::simplify`]).
    pub fn heavy_hex(hh: HeavyHex) -> Target {
        Target {
            spec: TargetSpec::HeavyHexCustom,
            device: Device::HeavyHex(hh),
        }
    }

    /// A lattice-surgery FT grid of `m × m` tiles, `m ≥ 2`.
    pub fn lattice_surgery(m: usize) -> Result<Target, CompileError> {
        if m < 2 {
            return Err(invalid(format!(
                "lattice-surgery target needs m >= 2, got m={m}"
            )));
        }
        Ok(Target {
            spec: TargetSpec::LatticeSurgery { m },
            device: Device::Lattice(LatticeSurgery::new(m)),
        })
    }

    /// An arbitrary user-supplied coupling graph. The graph must be
    /// non-empty and connected (every compiler assumes routability).
    pub fn custom(graph: CouplingGraph) -> Result<Target, CompileError> {
        if graph.n_qubits() < 2 {
            return Err(invalid(format!(
                "custom target needs at least 2 qubits, got {}",
                graph.n_qubits()
            )));
        }
        if !graph.is_connected() {
            return Err(invalid(format!(
                "custom target graph '{}' is not connected",
                graph.name()
            )));
        }
        Ok(Target {
            spec: TargetSpec::Custom,
            device: Device::Custom(graph),
        })
    }

    /// Parses a compact `family:param` spec: `lnn:16`, `sycamore:6`,
    /// `heavyhex:4` (groups), `lattice:10`.
    pub fn parse(s: &str) -> Result<Target, CompileError> {
        let (family, param) = s
            .split_once(':')
            .ok_or_else(|| invalid(format!("target spec '{s}' is not of the form family:param")))?;
        let p: usize = param
            .parse()
            .map_err(|_| invalid(format!("target parameter '{param}' is not a number")))?;
        match family {
            "lnn" => Target::lnn(p),
            "sycamore" => Target::sycamore(p),
            "heavyhex" => Target::heavy_hex_groups(p),
            "lattice" => Target::lattice_surgery(p),
            other => Err(invalid(format!(
                "unknown target family '{other}' (expected lnn, sycamore, heavyhex, or lattice)"
            ))),
        }
    }

    /// The provenance of this target.
    #[inline]
    pub fn spec(&self) -> TargetSpec {
        self.spec
    }

    /// The coupling graph (with per-link latency classes).
    pub fn graph(&self) -> &CouplingGraph {
        match &self.device {
            Device::Lnn(g) | Device::Custom(g) => g,
            Device::Sycamore(s) => s.graph(),
            Device::HeavyHex(hh) => hh.graph(),
            Device::Lattice(l) => l.graph(),
        }
    }

    /// The architecture name (e.g. `sycamore-6x6`).
    #[inline]
    pub fn name(&self) -> &str {
        self.graph().name()
    }

    /// Number of physical qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.graph().n_qubits()
    }

    /// The Sycamore device model, when this is a Sycamore target.
    pub fn as_sycamore(&self) -> Option<&Sycamore> {
        match &self.device {
            Device::Sycamore(s) => Some(s),
            _ => None,
        }
    }

    /// The heavy-hex device model, when this is a heavy-hex target.
    pub fn as_heavy_hex(&self) -> Option<&HeavyHex> {
        match &self.device {
            Device::HeavyHex(hh) => Some(hh),
            _ => None,
        }
    }

    /// The lattice-surgery device model, when this is a lattice target.
    pub fn as_lattice_surgery(&self) -> Option<&LatticeSurgery> {
        match &self.device {
            Device::Lattice(l) => Some(l),
            _ => None,
        }
    }

    /// The name of the paper's analytical compiler for this device family
    /// (`None` for custom graphs, which only search-based compilers cover).
    pub fn native_compiler(&self) -> Option<&'static str> {
        match self.spec {
            TargetSpec::Lnn { .. } => Some("lnn"),
            TargetSpec::Sycamore { .. } => Some("sycamore"),
            TargetSpec::HeavyHexGroups { .. } | TargetSpec::HeavyHexCustom => Some("heavyhex"),
            TargetSpec::LatticeSurgery { .. } => Some("lattice"),
            TargetSpec::Custom => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qft_ir::latency::LinkClass;

    #[test]
    fn valid_targets_construct() {
        assert_eq!(Target::lnn(16).unwrap().n_qubits(), 16);
        assert_eq!(Target::sycamore(4).unwrap().n_qubits(), 16);
        assert_eq!(Target::heavy_hex_groups(3).unwrap().n_qubits(), 15);
        assert_eq!(Target::lattice_surgery(5).unwrap().n_qubits(), 25);
    }

    #[test]
    fn invalid_parameters_are_rejected_with_reasons() {
        for (t, needle) in [
            (Target::lnn(1), "at least 2"),
            (Target::lnn(0), "at least 2"),
            (Target::sycamore(3), "even m"),
            (Target::sycamore(0), "even m"),
            (Target::heavy_hex_groups(0), "at least 1 group"),
            (Target::lattice_surgery(1), "m >= 2"),
            (Target::lattice_surgery(0), "m >= 2"),
        ] {
            let err = t.expect_err("must be rejected").to_string();
            assert!(err.contains(needle), "{err:?} missing {needle:?}");
        }
    }

    #[test]
    fn parse_roundtrips_families() {
        assert_eq!(Target::parse("lnn:8").unwrap().n_qubits(), 8);
        assert_eq!(Target::parse("sycamore:6").unwrap().n_qubits(), 36);
        assert_eq!(Target::parse("heavyhex:2").unwrap().n_qubits(), 10);
        assert_eq!(Target::parse("lattice:10").unwrap().n_qubits(), 100);
        assert!(Target::parse("lnn").is_err());
        assert!(Target::parse("lnn:x").is_err());
        assert!(Target::parse("toric:3").is_err());
    }

    #[test]
    fn custom_rejects_disconnected_graphs() {
        let g = CouplingGraph::new("disc", 4, &[(0, 1, LinkClass::Uniform)]);
        assert!(Target::custom(g).is_err());
        let ok = CouplingGraph::new(
            "tri",
            3,
            &[(0, 1, LinkClass::Uniform), (1, 2, LinkClass::Uniform)],
        );
        assert!(Target::custom(ok).is_ok());
    }

    #[test]
    fn native_compiler_names() {
        assert_eq!(Target::lnn(4).unwrap().native_compiler(), Some("lnn"));
        assert_eq!(
            Target::sycamore(2).unwrap().native_compiler(),
            Some("sycamore")
        );
        assert_eq!(
            Target::heavy_hex_groups(1).unwrap().native_compiler(),
            Some("heavyhex")
        );
        assert_eq!(
            Target::lattice_surgery(2).unwrap().native_compiler(),
            Some("lattice")
        );
    }
}
