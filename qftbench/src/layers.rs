//! Per-layer accumulators shared by the workloads: direct compiles
//! through the registry (compile, passes, symbolic verification) and the
//! simulation tiers. Each folds into the named per-layer metrics.

use crate::kernels::{compiler_class, CheckRecord};
use crate::stats::{median, percentile};
use crate::trace::SpanLog;
use qft_kernels::serve::CompileRequest;
use qft_kernels::sim::equiv::EngineTier;
use qft_kernels::sim::symbolic::verify_qft_mapping;
use qft_kernels::{registry, CompileResult, Target, VerifyLevel};
use std::collections::BTreeMap;
use std::time::Instant;

/// The per-layer metric a pass report's wall time lands in.
fn pass_metric(pass: &str) -> Option<&'static str> {
    Some(match pass.split('(').next().unwrap_or(pass) {
        "aqft-truncate" => "passes.aqft-truncate.ms",
        "cancel-adjacent-swaps" => "passes.cancel-adjacent-swaps.ms",
        "prune-dead-swap-chains" => "passes.prune-dead-swap-chains.ms",
        "merge-swap-cphase" => "passes.merge-swap-cphase.ms",
        "asap-layering" => "passes.asap-layering.ms",
        "check-layout" => "passes.check-layout.ms",
        _ => return None,
    })
}

/// Timings of direct `registry().get(..).compile(..)` calls.
#[derive(Debug, Default)]
pub struct CompileLayer {
    by_class: BTreeMap<&'static str, Vec<f64>>,
    construct_ms: Vec<f64>,
    passes: BTreeMap<&'static str, Vec<f64>>,
    ops_removed: u64,
    symbolic_ms: Vec<f64>,
    ops: Vec<f64>,
}

impl CompileLayer {
    /// Compiles `req` directly through the registry, then times the
    /// symbolic verifier on the kernel, and records both. The kernel
    /// comes back with its wall times stripped, as a backend serves it.
    pub fn compile(
        &mut self,
        req: &CompileRequest,
        log: &mut SpanLog,
        request_id: u64,
    ) -> Result<CompileResult, String> {
        let target = Target::parse(&req.target).map_err(|e| e.to_string())?;
        let compiler = registry()
            .get(&req.compiler)
            .ok_or_else(|| format!("unknown compiler {}", req.compiler))?;
        let t = Instant::now();
        let (result, _) = log.time("compile.direct", None, request_id, || {
            compiler.compile(&target, &req.options)
        });
        let compile_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut result = result.map_err(|e| e.to_string())?;
        let exact = req
            .options
            .approximation
            .is_none_or(|d| d as usize >= result.n);
        let mut verify_ms = 0.0;
        if exact {
            let t = Instant::now();
            let (verdict, _) = log.time("verify.symbolic", None, request_id, || {
                verify_qft_mapping(&result.circuit, target.graph())
            });
            verify_ms = t.elapsed().as_secs_f64() * 1e3;
            verdict.map_err(|e| format!("{} on {}: symbolic: {e}", req.compiler, req.target))?;
            self.symbolic_ms.push(verify_ms);
        }
        let in_pipeline_verify = if req.options.verify == VerifyLevel::Symbolic {
            verify_ms
        } else {
            0.0
        };
        self.by_class
            .entry(compiler_class(&req.compiler))
            .or_default()
            .push(compile_ms);
        self.construct_ms
            .push((compile_ms - result.pass_s() * 1e3 - in_pipeline_verify).max(0.0));
        for p in &result.passes {
            if let Some(name) = pass_metric(&p.pass) {
                self.passes.entry(name).or_default().push(p.wall_s * 1e3);
            }
            self.ops_removed += p.ops_before.saturating_sub(p.ops_after) as u64;
        }
        self.ops.push(result.metrics.total_ops as f64);
        result.strip_wall_times();
        Ok(result)
    }

    pub fn fold(&self, out: &mut BTreeMap<&'static str, f64>) {
        for (class, name) in [
            ("analytical", "compile.ms.analytical"),
            ("sabre", "compile.ms.sabre"),
            ("optimal", "compile.ms.optimal"),
        ] {
            if let Some(v) = self.by_class.get(class) {
                out.insert(name, median(v));
            }
        }
        if !self.construct_ms.is_empty() {
            out.insert("compile.construct_ms", median(&self.construct_ms));
            out.insert("compile.ops", median(&self.ops));
            out.insert("passes.ops_removed", self.ops_removed as f64);
        }
        for (name, v) in &self.passes {
            out.insert(name, median(v));
        }
        if !self.symbolic_ms.is_empty() {
            out.insert("verify.symbolic_ms", median(&self.symbolic_ms));
        }
    }
}

/// Simulation-tier timings and the tier split, from output checks or
/// verdicts.
#[derive(Debug, Default)]
pub struct SimLayer {
    all_ms: Vec<f64>,
    dense_ms: Vec<f64>,
    sparse_ms: Vec<f64>,
    none: u64,
}

impl SimLayer {
    pub fn record(&mut self, tier: Option<EngineTier>, ms: f64) {
        match tier {
            Some(EngineTier::Dense) => self.dense_ms.push(ms),
            Some(EngineTier::Sparse) => self.sparse_ms.push(ms),
            None => {
                self.none += 1;
                return;
            }
        }
        self.all_ms.push(ms);
    }

    pub fn record_check(&mut self, rec: &CheckRecord) {
        self.record(rec.tier, rec.sim_ms.unwrap_or(0.0));
    }

    pub fn fold(&self, out: &mut BTreeMap<&'static str, f64>) {
        if !self.all_ms.is_empty() {
            out.insert("verify.sim_ms.p50", median(&self.all_ms));
            out.insert("verify.sim_ms.p99", percentile(&self.all_ms, 990));
        }
        if !self.dense_ms.is_empty() {
            out.insert("verify.sim_ms.dense.p50", median(&self.dense_ms));
        }
        if !self.sparse_ms.is_empty() {
            out.insert("verify.sim_ms.sparse.p50", median(&self.sparse_ms));
        }
        out.insert("verify.tier.dense", self.dense_ms.len() as f64);
        out.insert("verify.tier.sparse", self.sparse_ms.len() as f64);
        out.insert("verify.tier.none", self.none as f64);
    }

    /// "dense a / sparse b / none c" as shares of the checks made.
    pub fn split(&self) -> String {
        let total = (self.dense_ms.len() + self.sparse_ms.len()) as f64 + self.none as f64;
        let share = |c: usize| c as f64 / total.max(1.0);
        format!(
            "dense {:.2} / sparse {:.2} / none {:.2}",
            share(self.dense_ms.len()),
            share(self.sparse_ms.len()),
            share(self.none as usize)
        )
    }
}
