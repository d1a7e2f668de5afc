//! Metric definitions, the human-readable report and the final JSON line.

use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the stack sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: "lower",
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: "higher",
    },
    EndToEnd {
        name: "success_share",
        unit: "share",
        better: "higher",
    },
    EndToEnd {
        name: "kernel_depth_sum",
        unit: "cycles",
        better: "lower",
    },
    EndToEnd {
        name: "kernel_swaps_sum",
        unit: "count",
        better: "lower",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
];

/// A per-layer metric from the traced run: the call it times, the
/// end-to-end metric it should move and the workload where that shows.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub shows_on: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    shows_on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        shows_on,
    }
}

const HOT: &str = "wire-hot";
const COLD: &str = "wire-cold";
const WIRE: &str = "wire-hot,wire-cold";
const PAPER: &str = "paper-scale";
const SWEEP: &str = "verify-sweep";
const P50: &str = "latency_p50_ms";
const TAIL: &str = "latency_tail_ms";
const RPS: &str = "throughput_rps";
const OK: &str = "success_share";

pub const LAYERS: &[Layer] = &[
    // serve::router (router.rs, pool.rs)
    l("router.route_us", "us", "lower", P50, HOT),
    l("router.overhead_ms", "ms", "lower", P50, HOT),
    l("router.backend_share_max", "share", "lower", RPS, COLD),
    l("router.failovers", "count", "lower", OK, WIRE),
    // serve::client (client.rs)
    l("client.encode_request_us", "us", "lower", P50, HOT),
    l("client.decode_ms.p50", "ms", "lower", TAIL, WIRE),
    l("client.decode_ms.p99", "ms", "lower", TAIL, WIRE),
    l("client.decode_ms_per_mb.small", "ms/MB", "lower", TAIL, HOT),
    l("client.decode_ms_per_mb.large", "ms/MB", "lower", TAIL, HOT),
    // serve::proto (proto.rs)
    l("proto.response_kb.p50", "KB", "lower", TAIL, HOT),
    l("proto.response_kb.max", "KB", "lower", TAIL, HOT),
    l("proto.encode_response_ms", "ms", "lower", P50, HOT),
    // serve::server (server.rs)
    l("server.wait_ms", "ms", "lower", P50, WIRE),
    l("server.disconnects", "count", "lower", OK, WIRE),
    l("server.proto_errors", "count", "lower", OK, WIRE),
    // serve::service (service.rs, cache.rs, flight.rs, queue.rs)
    l("service.hit_us", "us", "lower", P50, HOT),
    l("service.wall_ms.hit", "ms", "lower", P50, WIRE),
    l("service.wall_ms.miss", "ms", "lower", P50, WIRE),
    l("service.wall_ms.dedup", "ms", "lower", P50, WIRE),
    l("service.hits", "count", "higher", P50, COLD),
    l("service.misses", "count", "lower", P50, COLD),
    l("service.dedup_joins", "count", "higher", P50, COLD),
    l("service.shed", "count", "lower", P50, COLD),
    l("service.evictions", "count", "lower", P50, COLD),
    l("service.compiles_per_key", "ratio", "lower", RPS, COLD),
    // core / baselines
    l("compile.ms.analytical", "ms", "lower", RPS, PAPER),
    l("compile.ms.sabre", "ms", "lower", P50, COLD),
    l("compile.ms.optimal", "ms", "lower", P50, COLD),
    l("compile.construct_ms", "ms", "lower", RPS, PAPER),
    l("compile.ops", "count", "lower", "proto.response_kb", WIRE),
    // ir::passes
    l("passes.aqft-truncate.ms", "ms", "lower", RPS, PAPER),
    l("passes.cancel-adjacent-swaps.ms", "ms", "lower", RPS, PAPER),
    l(
        "passes.prune-dead-swap-chains.ms",
        "ms",
        "lower",
        RPS,
        PAPER,
    ),
    l("passes.merge-swap-cphase.ms", "ms", "lower", RPS, PAPER),
    l("passes.asap-layering.ms", "ms", "lower", RPS, PAPER),
    l("passes.check-layout.ms", "ms", "lower", RPS, PAPER),
    l(
        "passes.ops_removed",
        "count",
        "higher",
        "compile.ops",
        PAPER,
    ),
    // sim::symbolic
    l("verify.symbolic_ms", "ms", "lower", RPS, PAPER),
    // sim::equiv
    l("verify.sim_ms.p50", "ms", "lower", P50, SWEEP),
    l("verify.sim_ms.p99", "ms", "lower", TAIL, SWEEP),
    l("verify.sim_ms.dense.p50", "ms", "lower", P50, SWEEP),
    l("verify.sim_ms.sparse.p50", "ms", "lower", P50, SWEEP),
    l("verify.tier.dense", "count", "lower", P50, SWEEP),
    l("verify.tier.sparse", "count", "higher", P50, SWEEP),
    l("verify.tier.none", "count", "lower", OK, SWEEP),
    // the trace itself
    l("trace.overhead.latency_p50_ms", "ms", "lower", P50, "all"),
    l("trace.overhead.throughput_rps", "1/s", "higher", RPS, "all"),
    l("trace.reconcile_gap_share", "share", "lower", P50, WIRE),
];

/// Largest share of a routed hit's median that the median gap between
/// the hit and the sum of its separately timed parts (route, request
/// encode and write, server wait, service time, response encode,
/// decode) may reach before the trace counts as not reconciling.
pub const RECONCILE_MAX_GAP: f64 = 0.10;

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample count and tail percentile behind the latency metrics.
    pub samples: usize,
    pub tail_label: String,
    /// Measured workload properties (hit share, duplicate share, …).
    pub properties: Vec<(String, String)>,
}

impl Outcome {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.failures.push(why.into());
    }

    pub fn property(&mut self, name: &str, value: impl Into<String>) {
        self.properties.push((name.to_string(), value.into()));
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Provenance stamped on every result.
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub cores: usize,
    pub profile: &'static str,
    pub commit: String,
    pub command: String,
}

impl Provenance {
    pub fn json(&self, samples: usize) -> String {
        format!(
            "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"samples\":{samples},\"host_cores\":{},\"profile\":{},\"commit\":{},\"command\":{}}}",
            json_string(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.cores,
            json_string(self.profile),
            json_string(&self.commit),
            json_string(&self.command),
        )
    }
}

/// Prints the report lines and, last, the one-line JSON result.
pub fn print(prov: &Provenance, out: &Outcome) {
    println!("# provenance {}", prov.json(out.samples));
    for (k, v) in &out.properties {
        println!("# property {k} = {v}");
    }
    for f in &out.failures {
        println!("# FAILURE {f}");
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "# failed_share = {failed_share} ({} of {} attempted)",
        out.failed, out.attempted
    );
    let mut metrics = Vec::new();
    if prov.trace {
        println!(
            "# {:<36} {:>14} {:<6} {:<6} {:<17} workload",
            "layer metric", "value", "unit", "better", "moves"
        );
        for d in LAYERS {
            let value = out.layers.get(d.name).copied();
            let shown = value.map_or("n/a".to_string(), |v| format!("{v:.4}"));
            println!(
                "# {:<36} {:>14} {:<6} {:<6} {:<17} {}",
                d.name, shown, d.unit, d.better, d.moves, d.shows_on
            );
            metrics.push((d.name, d.unit, value.unwrap_or(0.0)));
        }
    } else {
        for d in END_TO_END {
            let v = out.e2e.get(d.name).copied().unwrap_or(0.0);
            let note = match d.name {
                "latency_p50_ms" => format!(" (p50 of {} samples)", out.samples),
                "latency_tail_ms" => format!(" ({} of {} samples)", out.tail_label, out.samples),
                _ => String::new(),
            };
            println!(
                "# {:<18} {v:>16.6} {:<6} {} is better{note}",
                d.name, d.unit, d.better
            );
            metrics.push((d.name, d.unit, v));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                json_number(*v),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'v>(obj: &'v Value, key: &str) -> &'v Value {
        obj.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn rows(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        field(doc, key)
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| field(m, k).as_str().expect("string field").to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    /// The metric tables here and in BENCHMARK.json must not drift apart.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let own = |name: &str, unit: &str, better: &str| {
            (name.to_string(), unit.to_string(), better.to_string())
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| own(m.name, m.unit, m.better))
            .collect();
        let layers: Vec<_> = LAYERS
            .iter()
            .map(|m| own(m.name, m.unit, m.better))
            .collect();
        assert_eq!(rows(&doc, "end_to_end"), e2e);
        assert_eq!(rows(&doc, "per_layer"), layers);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(1.5), "1.5");
    }
}
