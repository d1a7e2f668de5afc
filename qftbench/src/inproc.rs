//! The two in-process workloads: `paper-scale` (distinct FT-scale
//! kernels through `CompileService::compile`) and `verify-sweep` (the
//! simulation tiers through `mapped_equals_aqft_auto`).

use crate::gen::Rng;
use crate::kernels::{check_kernel, compile_direct, fingerprint, kernel_sums, Template, SIM_SEEDS};
use crate::layers::{CompileLayer, SimLayer};
use crate::report::Outcome;
use crate::stats::{median, percentile_label, summarize};
use crate::trace::SpanLog;
use crate::Run;
use qft_kernels::sim::equiv::{mapped_equals_aqft_auto, plan_tier};
use qft_kernels::{CompileResult, CompileService};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The paper's FT scale: 250–1024 qubits on the four analytical mappers.
const PAPER_SHAPES: [(&str, &str); 12] = [
    ("lnn", "lnn:256"),
    ("lnn", "lnn:512"),
    ("lnn", "lnn:1024"),
    ("lattice", "lattice:16"),
    ("lattice", "lattice:23"),
    ("lattice", "lattice:32"),
    ("sycamore", "sycamore:16"),
    ("sycamore", "sycamore:22"),
    ("sycamore", "sycamore:32"),
    ("heavyhex", "heavyhex:50"),
    ("heavyhex", "heavyhex:100"),
    ("heavyhex", "heavyhex:200"),
];

/// The set-up pass's first compile on a fresh service (not measured).
const PAPER_WARMUP: (&str, &str) = ("lnn", "lnn:200");

fn paper_templates() -> Vec<Template> {
    PAPER_SHAPES
        .iter()
        .flat_map(|&(c, t)| [1, 2].map(|opt| Template::new(c, t, opt).verified()))
        .collect()
}

/// Latencies and busy time of one phase.
#[derive(Default)]
struct Phase {
    lat_ms: Vec<f64>,
    busy_s: f64,
}

/// Tail percentiles (per-mille) at the expected sample counts.
const PAPER_TAIL: u64 = 900;
const SWEEP_TAIL: u64 = 990;

fn trace_overhead(phases: &[Phase], layers: &mut BTreeMap<&'static str, f64>) {
    if let [untraced, traced] = phases {
        let (u, t) = (
            summarize(&untraced.lat_ms, 500),
            summarize(&traced.lat_ms, 500),
        );
        layers.insert("trace.overhead.latency_p50_ms", t.p50 - u.p50);
        layers.insert(
            "trace.overhead.throughput_rps",
            traced.lat_ms.len() as f64 / traced.busy_s.max(1e-9)
                - untraced.lat_ms.len() as f64 / untraced.busy_s.max(1e-9),
        );
    }
}

fn end_to_end(out: &mut Outcome, setup_s: &[f64], first: &Phase, sums: (f64, f64), tail: u64) {
    let s = summarize(&first.lat_ms, tail);
    out.samples = s.n;
    out.tail_label = percentile_label(s.tail_permille);
    out.e2e.insert("setup_s", median(setup_s));
    out.e2e.insert("latency_p50_ms", s.p50);
    out.e2e.insert("latency_tail_ms", s.tail);
    out.e2e
        .insert("throughput_rps", s.n as f64 / first.busy_s.max(1e-9));
    out.e2e.insert("kernel_depth_sum", sums.0);
    out.e2e.insert("kernel_swaps_sum", sums.1);
}

/// `paper-scale`: one closed-loop client compiles each distinct key once
/// per fresh service. A pass covers every key in a seeded order; passes
/// repeat until the phase's time is spent, each on a new service so the
/// cache holds one pass of ~35 MB-per-kernel artifacts at a time.
pub fn paper_scale(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let templates = paper_templates();
    let mut rng = Rng::fork(run.seed, 1);
    let origin = Instant::now();
    let mut spans = SpanLog::new(origin);
    let mut setup_s = Vec::new();
    let mut refs: BTreeMap<usize, u64> = BTreeMap::new();
    let mut miss_wall_ms = Vec::new();
    let mut hit_us = Vec::new();
    let (mut hits, mut misses, mut dedups, mut shed, mut evictions) = (0, 0, 0, 0, 0);
    let mut done = Vec::new();
    let mut rid = 0u64;
    for (traced, secs) in run.phases() {
        let mut phase = Phase::default();
        while phase.busy_s < secs {
            // Set-up: a fresh service and its first compile.
            let t = Instant::now();
            let service = CompileService::new();
            let warm = Template::new(PAPER_WARMUP.0, PAPER_WARMUP.1, 1).request(0);
            if let Err(e) = service.compile(&warm) {
                out.fail(format!("set-up compile: {e}"));
            }
            setup_s.push(t.elapsed().as_secs_f64());

            let mut order: Vec<usize> = (0..templates.len()).collect();
            rng.shuffle(&mut order);
            let mut pass = Vec::with_capacity(order.len());
            let t_pass = Instant::now();
            for &i in &order {
                rid += 1;
                out.attempted += 1;
                let req = templates[i].request(0);
                let t = Instant::now();
                let resp = if traced {
                    spans
                        .time("service.compile", None, rid, || service.compile(&req))
                        .0
                } else {
                    service.compile(&req)
                };
                let ms = t.elapsed().as_secs_f64() * 1e3;
                match resp {
                    Ok(r) => {
                        phase.lat_ms.push(ms);
                        pass.push((i, r));
                    }
                    Err(e) => out.fail(format!("{} on {}: {e}", req.compiler, req.target)),
                }
            }
            phase.busy_s += t_pass.elapsed().as_secs_f64();

            // Outside the timed region: every key must be a miss and
            // serve the same kernel on every pass.
            for (i, resp) in &pass {
                let fp = fingerprint(&resp.result);
                if resp.cached {
                    out.fail(format!(
                        "{}: a distinct key was answered from cache",
                        templates[*i].target
                    ));
                }
                miss_wall_ms.push(resp.wall_s * 1e3);
                if *refs.entry(*i).or_insert(fp) != fp {
                    out.fail(format!(
                        "{} on {}: artifact changed between passes",
                        templates[*i].compiler, templates[*i].target
                    ));
                }
            }
            // A later hit on the same key must return the same artifact.
            if let Some((i, first)) = pass.first() {
                let t = Instant::now();
                let hit = service.compile(&templates[*i].request(0));
                let us = t.elapsed().as_secs_f64() * 1e6;
                match hit {
                    Ok(hit) if hit.cached && Arc::ptr_eq(&hit.result, &first.result) => {
                        hit_us.push(us)
                    }
                    Ok(_) => out.fail(format!(
                        "{}: later hit differs from its miss",
                        templates[*i].target
                    )),
                    Err(e) => out.fail(format!("{}: later hit failed: {e}", templates[*i].target)),
                }
            }
            let st = service.stats();
            hits += st.hits;
            misses += st.misses;
            dedups += st.dedup_joins;
            shed += st.shed;
            evictions += st.evictions;
        }
        done.push(phase);
    }
    out.e2e.insert("peak_rss_mb", crate::peak_rss_mb());

    // Output checks, after the peak memory is read: each template
    // compiled directly (traced, this times the compile, pass and
    // symbolic layers) must equal the kernel served for it and pass the
    // independent checks.
    let mut compile = CompileLayer::default();
    let mut sim = SimLayer::default();
    let mut kernels = Vec::new();
    for (i, t) in templates.iter().enumerate() {
        let kernel = match compile.compile(&t.request(0), &mut spans, u64::MAX - i as u64) {
            Ok(k) => k,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        if refs.get(&i).is_some_and(|&fp| fp != fingerprint(&kernel)) {
            out.fail(format!(
                "{} on {}: the served kernel is not the direct compile of its request",
                t.compiler, t.target
            ));
        }
        let rec = check_kernel(t.target, None, &kernel);
        sim.record_check(&rec);
        for f in rec.failures {
            out.fail(f);
        }
        kernels.push(kernel);
    }
    end_to_end(
        &mut out,
        &setup_s,
        &done[0],
        kernel_sums(&kernels),
        PAPER_TAIL,
    );
    out.property(
        "clients",
        "1 closed-loop, in-process CompileService::new()".to_string(),
    );
    out.property("hit_share", "0.000 (each key once per service)".to_string());
    out.property("sim_tiers", sim.split());
    out.property("passes", setup_s.len().to_string());

    if run.trace {
        let mut layers = BTreeMap::new();
        compile.fold(&mut layers);
        sim.fold(&mut layers);
        layers.insert("service.wall_ms.miss", median(&miss_wall_ms));
        layers.insert("service.hit_us", median(&hit_us));
        layers.insert("service.hits", hits as f64);
        layers.insert("service.misses", misses as f64);
        layers.insert("service.dedup_joins", dedups as f64);
        layers.insert("service.shed", shed as f64);
        layers.insert("service.evictions", evictions as f64);
        // Each fresh service compiles its set-up key plus one pass.
        layers.insert(
            "service.compiles_per_key",
            misses as f64 / (setup_s.len() * (templates.len() + 1)) as f64,
        );
        trace_overhead(&done, &mut layers);
        out.layers = layers;
        crate::write_spans(run, &spans);
    }
    out
}

/// The `verify-sweep` kernel set: seven compilers, n 5–36, exact and
/// truncated, every kernel fixed (SABRE at seed 0) so the set's depth
/// and SWAP sums are exact; the run seed orders the verdicts. Dense-tier
/// kernels stay at n ≤ 12, where a probe plane (≤ 64 KB) comes from the
/// heap rather than a fresh `mmap` per verdict.
const SWEEP: [(&str, &str, Option<u32>); 22] = [
    ("lnn", "lnn:6", None),
    ("lnn", "lnn:12", Some(3)),
    ("lnn", "lnn:20", Some(4)),
    ("lnn", "lnn:32", Some(3)),
    ("sycamore", "sycamore:4", None),
    ("sycamore", "sycamore:4", Some(2)),
    ("sycamore", "sycamore:6", Some(3)),
    ("heavyhex", "heavyhex:2", None),
    ("heavyhex", "heavyhex:4", Some(3)),
    ("heavyhex", "heavyhex:7", Some(5)),
    ("lattice", "lattice:3", None),
    ("lattice", "lattice:4", Some(2)),
    ("lattice", "lattice:6", Some(4)),
    ("sabre", "lnn:10", None),
    ("sabre", "heavyhex:3", Some(3)),
    ("sabre", "lattice:5", Some(3)),
    ("sabre", "sycamore:6", None),
    ("optimal", "lnn:6", None),
    ("optimal", "lnn:6", Some(2)),
    ("lnn-path", "lnn:11", None),
    ("lnn-path", "lnn:24", Some(3)),
    ("lnn-path", "lnn:36", Some(4)),
];

fn sweep_templates() -> Vec<Template> {
    SWEEP
        .iter()
        .map(|&(c, t, d)| {
            let t = Template::new(c, t, 1);
            match d {
                Some(d) => t.degree(d),
                None => t,
            }
        })
        .collect()
}

/// `verify-sweep`: one thread asks the simulation tiers for verdicts with
/// known answers — each kernel against its own degree (equal) and each
/// truncated kernel against the exact QFT (not equal).
pub fn verify_sweep(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let templates = sweep_templates();
    let mut setup_s = Vec::new();
    let mut kernels: Vec<CompileResult> = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let compiled: Result<Vec<_>, String> = templates
            .iter()
            .map(|t| compile_direct(&t.request(0)))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        match compiled {
            Ok(k) => kernels = k,
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
                return out;
            }
        }
    }

    // The verdict list: each kernel against its own degree, each
    // truncated one against the exact QFT.
    let mut verdicts = Vec::new();
    for (i, (t, k)) in templates.iter().zip(&kernels).enumerate() {
        let n = k.n as u32;
        let tier = plan_tier(&k.circuit, 6).ok();
        verdicts.push((i, t.degree.unwrap_or(n), true, tier));
        if t.degree.is_some_and(|d| d < n) {
            verdicts.push((i, n, false, tier));
        }
    }

    let mut rng = Rng::fork(run.seed, 3);
    let mut sim = SimLayer::default();
    let mut spans = SpanLog::new(Instant::now());
    let mut done = Vec::new();
    let mut rid = 0u64;
    for (traced, secs) in run.phases() {
        let mut phase = Phase::default();
        while phase.busy_s < secs {
            let mut order: Vec<usize> = (0..verdicts.len()).collect();
            rng.shuffle(&mut order);
            let t_pass = Instant::now();
            for &v in &order {
                let (i, degree, want, tier) = verdicts[v];
                rid += 1;
                let t = Instant::now();
                let got = if traced {
                    spans
                        .time("sim.verdict", None, rid, || {
                            mapped_equals_aqft_auto(&kernels[i].circuit, degree, SIM_SEEDS)
                        })
                        .0
                } else {
                    mapped_equals_aqft_auto(&kernels[i].circuit, degree, SIM_SEEDS)
                };
                let ms = t.elapsed().as_secs_f64() * 1e3;
                phase.lat_ms.push(ms);
                if traced {
                    sim.record(tier, ms);
                }
                out.attempted += 1;
                match got {
                    Ok(v) if v == want => {}
                    Ok(v) => out.fail(format!(
                        "{} on {} vs degree {degree}: verdict {v}, known answer {want}",
                        templates[i].compiler, templates[i].target
                    )),
                    Err(e) => out.fail(format!(
                        "{} on {} vs degree {degree}: refused: {e}",
                        templates[i].compiler, templates[i].target
                    )),
                }
            }
            phase.busy_s += t_pass.elapsed().as_secs_f64();
        }
        done.push(phase);
    }
    out.e2e.insert("peak_rss_mb", crate::peak_rss_mb());
    // The symbolic check of each exact kernel, after the peak memory is
    // read.
    for (t, k) in templates.iter().zip(&kernels) {
        if t.degree.is_none() {
            for f in check_kernel(t.target, None, k).failures {
                out.fail(f);
            }
        }
    }
    end_to_end(
        &mut out,
        &setup_s,
        &done[0],
        kernel_sums(&kernels),
        SWEEP_TAIL,
    );
    let dense = verdicts
        .iter()
        .filter(|v| v.3 == Some(qft_kernels::sim::equiv::EngineTier::Dense))
        .count();
    let none = verdicts.iter().filter(|v| v.3.is_none()).count();
    out.property("clients", "1 thread, in-process, closed loop".to_string());
    out.property(
        "sim_tiers",
        format!(
            "dense {:.2} / sparse {:.2} / none {:.2} over {} verdicts",
            dense as f64 / verdicts.len() as f64,
            (verdicts.len() - dense - none) as f64 / verdicts.len() as f64,
            none as f64 / verdicts.len() as f64,
            verdicts.len()
        ),
    );
    out.property("kernels", kernels.len().to_string());

    if run.trace {
        let mut layers = BTreeMap::new();
        let mut compile = CompileLayer::default();
        for (i, t) in templates.iter().enumerate() {
            if let Err(e) = compile.compile(&t.request(0), &mut spans, u64::MAX - i as u64) {
                out.fail(e);
            }
        }
        compile.fold(&mut layers);
        sim.fold(&mut layers);
        trace_overhead(&done, &mut layers);
        out.layers = layers;
        crate::write_spans(run, &spans);
    }
    out
}
