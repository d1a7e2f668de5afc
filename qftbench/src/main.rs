//! The repository's benchmark: four seeded workloads driven through the
//! stack's public entry points, end-to-end metrics from untraced runs and
//! per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path qftbench/Cargo.toml -- \
//!     --workload wire-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `wire-hot`, `wire-cold`, `paper-scale`, `verify-sweep`
//! (see `WORKLOADS.md`). The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; the lines
//! before it are the readable report. Any failed request, output check
//! or verdict makes the exit code non-zero.

mod gen;
mod inproc;
mod kernels;
mod layers;
mod report;
mod stats;
mod trace;
mod wire;

use report::Provenance;
use std::process::ExitCode;

pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Run {
    /// The measured phases as (traced, seconds): the whole run untraced,
    /// or an untraced and a traced half, so that the traced run also
    /// measures its own overhead.
    pub fn phases(&self) -> Vec<(bool, f64)> {
        let secs = self.seconds as f64;
        if self.trace {
            vec![(false, secs / 2.0), (true, secs / 2.0)]
        } else {
            vec![(false, secs)]
        }
    }
}

const WORKLOADS: [&str; 4] = ["wire-hot", "wire-cold", "paper-scale", "verify-sweep"];

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    let trace = match value("--trace")
        .unwrap_or_else(|_| "0".to_string())
        .as_str()
    {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Run {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// The commit under test: `git rev-parse` when the working directory is
/// the root of a git checkout (git is not allowed to look above it),
/// else "unknown".
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the traced run's spans under `.bench_out/` and prints their
/// count, total and self time per span name.
pub fn write_spans(run: &Run, spans: &trace::SpanLog) {
    for (name, (count, total, own)) in trace::by_name(&spans.spans) {
        println!("# span {name:<28} {count:>7} calls {total:>12.3} ms total {own:>12.3} ms self");
    }
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("spans-{}-seed{}.jsonl", run.workload, run.seed));
    match spans.write_jsonl(&path) {
        Ok(()) => println!(
            "# spans {} written to {}",
            spans.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("writing spans to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("qftbench: {e}");
            eprintln!(
                "usage: qftbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match run.workload.as_str() {
        "wire-hot" => wire::run(&run, true),
        "wire-cold" => wire::run(&run, false),
        "paper-scale" => inproc::paper_scale(&run),
        _ => inproc::verify_sweep(&run),
    };
    out.e2e.entry("peak_rss_mb").or_insert_with(peak_rss_mb);
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.e2e.insert("success_share", 1.0 - failed_share);
    let prov = Provenance {
        workload: run.workload.clone(),
        seed: run.seed,
        seconds: run.seconds,
        trace: run.trace,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit: commit(),
        command: std::env::args().collect::<Vec<_>>().join(" "),
    };
    report::print(&prov, &out);
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
