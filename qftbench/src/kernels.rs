//! Kernel bookkeeping: request templates, artifact fingerprints, direct
//! compiles, the independent output checks, and the depth/SWAP sums over
//! a workload's kernels.

use qft_kernels::serve::CompileRequest;
use qft_kernels::sim::equiv::{mapped_equals_aqft_auto, plan_tier, EngineTier};
use qft_kernels::sim::symbolic::verify_qft_mapping;
use qft_kernels::{registry, CompileOptions, CompileResult, Target, VerifyLevel};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Random probe states per simulation check (plus |0…0⟩ and |1…1⟩).
pub const SIM_SEEDS: u64 = 4;

/// Ket terms of a sparse probe, as `mapped_equals_aqft_auto` plans them.
const KET_TERMS: usize = 6;

/// One request shape: compiler, target spec, pass level, AQFT degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Template {
    pub compiler: &'static str,
    pub target: &'static str,
    pub opt_level: u8,
    pub degree: Option<u32>,
    pub verify: bool,
}

impl Template {
    pub const fn new(compiler: &'static str, target: &'static str, opt_level: u8) -> Template {
        Template {
            compiler,
            target,
            opt_level,
            degree: None,
            verify: false,
        }
    }

    pub const fn degree(mut self, degree: u32) -> Template {
        self.degree = Some(degree);
        self
    }

    pub const fn verified(mut self) -> Template {
        self.verify = true;
        self
    }

    pub fn request(&self, seed: u64) -> CompileRequest {
        let mut options = CompileOptions::default()
            .with_opt_level(self.opt_level)
            .with_seed(seed);
        options.approximation = self.degree;
        if self.verify {
            options.verify = VerifyLevel::Symbolic;
        }
        CompileRequest::new(self.compiler, self.target).with_options(options)
    }
}

/// The compile-time class a compiler's `compile.ms.*` figure lands in:
/// the search-free mappers (the paper's four and the `lnn-path`
/// baseline), SABRE, and the exact A* search.
pub fn compiler_class(compiler: &str) -> &'static str {
    match compiler {
        "sabre" => "sabre",
        "optimal" => "optimal",
        _ => "analytical",
    }
}

/// A hash of every deterministic field of an artifact: provenance,
/// metrics, the pass reports without their wall times, both layouts and
/// the whole op stream. Equal fingerprints stand for equal serialized
/// bytes, at a fraction of the cost of serializing.
pub fn fingerprint(r: &CompileResult) -> u64 {
    let mut h = DefaultHasher::new();
    (&r.compiler, &r.target, r.n, &r.note).hash(&mut h);
    let m = &r.metrics;
    (
        m.n,
        m.depth,
        m.two_qubit_depth,
        m.swaps,
        m.cphases,
        m.hadamards,
        m.total_ops,
    )
        .hash(&mut h);
    for p in &r.passes {
        (
            &p.pass,
            p.rewrites,
            p.ops_before,
            p.ops_after,
            p.swaps_before,
            p.swaps_after,
        )
            .hash(&mut h);
        (p.depth_before, p.depth_after, p.dropped_rotations, &p.note).hash(&mut h);
    }
    format!(
        "{:?}{:?}",
        r.circuit.initial_layout(),
        r.circuit.final_layout()
    )
    .hash(&mut h);
    for op in r.circuit.ops() {
        (op.kind, op.p1, op.p2, op.l1, op.l2).hash(&mut h);
    }
    h.finish()
}

/// What one independent check of a kernel found, and what its
/// simulation cost.
#[derive(Debug, Clone, Default)]
pub struct CheckRecord {
    pub failures: Vec<String>,
    /// `Some(tier)` when a simulation tier took the kernel, `None` when
    /// `plan_tier` refused it (too large for every tier).
    pub tier: Option<EngineTier>,
    pub sim_ms: Option<f64>,
}

/// Checks a kernel with verifiers that are not the compiler under test:
/// the symbolic verifier against the target graph for exact kernels, and
/// `sim::equiv` at the requested degree wherever a tier fits.
pub fn check_kernel(target_spec: &str, degree: Option<u32>, r: &CompileResult) -> CheckRecord {
    let mut rec = CheckRecord::default();
    let target = match Target::parse(target_spec) {
        Ok(t) => t,
        Err(e) => {
            rec.failures.push(format!("{target_spec}: {e}"));
            return rec;
        }
    };
    let n = r.circuit.n_logical() as u32;
    let degree = degree.unwrap_or(n);
    if degree >= n {
        if let Err(e) = verify_qft_mapping(&r.circuit, target.graph()) {
            rec.failures
                .push(format!("{} on {target_spec}: symbolic: {e}", r.compiler));
        }
    }
    if let Ok(tier) = plan_tier(&r.circuit, KET_TERMS) {
        rec.tier = Some(tier);
        let t = Instant::now();
        let verdict = mapped_equals_aqft_auto(&r.circuit, degree, SIM_SEEDS);
        rec.sim_ms = Some(t.elapsed().as_secs_f64() * 1e3);
        match verdict {
            Ok(true) => {}
            Ok(false) => rec.failures.push(format!(
                "{} on {target_spec}: not equal to the degree-{degree} QFT",
                r.compiler
            )),
            Err(e) => rec
                .failures
                .push(format!("{} on {target_spec}: sim: {e}", r.compiler)),
        }
    }
    rec
}

/// Compiles `req` directly through the registry and strips its wall
/// times as the service does, so the result serializes to the bytes a
/// backend serves for the same request.
pub fn compile_direct(req: &CompileRequest) -> Result<CompileResult, String> {
    let target = Target::parse(&req.target).map_err(|e| e.to_string())?;
    let mut result = registry()
        .get(&req.compiler)
        .ok_or_else(|| format!("unknown compiler {}", req.compiler))?
        .compile(&target, &req.options)
        .map_err(|e| format!("{} on {}: {e}", req.compiler, req.target))?;
    result.strip_wall_times();
    Ok(result)
}

/// `(Σ depth, Σ swaps)` over a workload's kernels, one per request
/// template, each compiled at a fixed seed so the sums are exact.
pub fn kernel_sums<'a>(kernels: impl IntoIterator<Item = &'a CompileResult>) -> (f64, f64) {
    kernels.into_iter().fold((0.0, 0.0), |(d, s), k| {
        (d + k.metrics.depth as f64, s + k.metrics.swaps as f64)
    })
}
