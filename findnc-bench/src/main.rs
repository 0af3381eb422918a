//! FindNC benchmark: three workloads against the public service API.
//!
//! ```text
//! cargo run --release --manifest-path findnc-bench/Cargo.toml -- \
//!     --workload contextrw_cold --seed 1 --seconds 18 --trace 0
//! ```
//!
//! `--trace 0` runs the timed workload and prints its end-to-end metrics;
//! `--trace 1` runs the separate traced replay and prints the per-layer
//! metrics. Every metric is printed as one JSON row with its provenance;
//! the last line is the result object. A failed output check exits 1.
//! See `README.md` beside this file for the workloads and the metric map.

mod common;
mod trace;
mod workloads;

use common::{config_id, nproc, Input};
use std::path::{Path, PathBuf};

const WORKLOADS: [&str; 3] = ["contextrw_cold", "randomwalk_batch_cold", "serve_zipf"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 12;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The repository root: the benchmark directory's parent.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// The checked-out commit when the root is a git work tree, else "none".
fn commit(root: &Path) -> String {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "none".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "none".into(),
    }
}

/// One metric as printed.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Extra `"key": value` pairs printed beside the metric.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }
}

/// What a run reports, traced or not.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
    pub nodes: usize,
    pub edges: usize,
    pub config: String,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` prints an empty sum (-0.0) as 0.
        format!("{}", v + 0.0)
    } else {
        "null".into()
    }
}

fn end_to_end(run: workloads::Run) -> Report {
    let latency = run.latency;
    let samples = latency.samples;
    let metrics = vec![
        Metric::new("throughput_qps", run.throughput_qps, "1/s"),
        Metric {
            note: format!(", \"samples\": {samples}"),
            ..Metric::new("latency_p50_ms", latency.p50_ms, "ms")
        },
        Metric {
            note: format!(
                ", \"percentile\": {:.3}, \"samples\": {samples}",
                latency.tail_percentile
            ),
            ..Metric::new("latency_tail_ms", latency.tail_ms, "ms")
        },
        Metric::new(
            "answered_share",
            run.answered as f64 / run.attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("setup_s", run.setup_s, "s"),
        Metric::new("peak_rss_mb", run.peak_rss_mb, "MB"),
    ];
    Report {
        attempted: run.attempted,
        failed: run.attempted - run.answered,
        correct: run.mismatches.is_empty() && run.attempted > 0,
        metrics,
        nodes: run.nodes,
        edges: run.edges,
        config: config_id(&run.config),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("findnc-bench: {e}");
            std::process::exit(2);
        }
    };
    let root = repo_root();
    let input = match Input::generate(&Path::new(env!("CARGO_MANIFEST_DIR")).join("work")) {
        Ok(input) => input,
        Err(e) => {
            eprintln!("findnc-bench: writing the N-Triples input failed: {e}");
            std::process::exit(1);
        }
    };
    let report = if args.trace {
        trace::run(&args.workload, &input, args.seed, args.seconds)
    } else {
        let run = match args.workload.as_str() {
            "contextrw_cold" => workloads::contextrw_cold(&input, args.seed, args.seconds),
            "randomwalk_batch_cold" => {
                workloads::randomwalk_batch_cold(&input, args.seed, args.seconds)
            }
            _ => workloads::serve_zipf(&input, args.seed, args.seconds),
        };
        run.map(end_to_end)
    };
    drop(input);
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("findnc-bench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let provenance = format!(
        "\"commit\": \"{}\", \"nproc\": {}, \"dataset\": \"{}\", \
         \"nodes\": {}, \"edges\": {}, \"config\": \"{}\", \"seed\": {}, \"trace\": {}",
        commit(&root),
        nproc(),
        common::DATASET_ID,
        report.nodes,
        report.edges,
        report.config,
        args.seed,
        u8::from(args.trace),
    );
    let mut metrics = Vec::new();
    for m in &report.metrics {
        println!(
            "{{\"row\": \"{}/{}\", \"value\": {}, \"unit\": \"{}\"{}, {provenance}}}",
            args.workload,
            m.name,
            json_number(m.value),
            m.unit,
            m.note
        );
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !report.correct {
        std::process::exit(1);
    }
}
