//! The repository benchmark: end-to-end and per-layer metrics of the
//! Paraprox workspace on four workloads.
//!
//! Run it from the repository root with one command, which builds this
//! package and then runs one workload:
//!
//! ```sh
//! python3 perfbench/run.py --workload tune_suite --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `tune_suite`, `serve_closed`, `serve_drift`,
//! `iter_converge` (see `perfbench/README.md` for why each exists, its
//! settings and seeds). With `--trace 0` the last line of standard output
//! is a JSON object carrying the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics of a traced run, whose spans are also
//! written to `.bench_out/`. Any failed correctness check prints
//! `"correct": false` and exits with status 1.

mod common;
mod iter;
mod serve;
mod stats;
mod timed;
mod trace;
mod tune;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Cfg, Outcome, LAYER_METRICS};

/// Environment variables that silently change what is measured: worker
/// counts, the interpreter, superinstruction fusion, and debug output on
/// the compile path.
const REFUSED_ENV: [&str; 4] = [
    "PARAPROX_THREADS",
    "PARAPROX_ENGINE",
    "PARAPROX_NO_FUSE",
    "PARAPROX_ERRORPROP_DEBUG",
];

const WORKLOADS: [&str; 4] = ["tune_suite", "serve_closed", "serve_drift", "iter_converge"];

struct Args {
    workload: String,
    cfg: Cfg,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".to_string());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        cfg: Cfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// Seeds, settings and thread counts of a workload, as printed before
/// the result.
fn settings(workload: &str, cfg: &Cfg) -> String {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let common = format!(
        "\"nproc\": {host}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"setup_reps\": \"at least {} and at least {} s, at most {}; tune_suite and iter_converge also {} of the measured phase\"",
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        common::SETUP_MIN_REPS,
        common::SETUP_MIN_S,
        common::SETUP_MAX_REPS,
        common::SETUP_SHARE
    );
    let specific = match workload {
        "tune_suite" => format!(
            "\"apps\": 13, \"profiles\": [\"gtx560\", \"core_i7_965\"], \"scale\": \"paper\", \"toq\": 90, \"training_seeds\": {:?}, \"heldout_seeds\": {}, \"approx_mem_rates\": {:?}, \"busy_threads\": {{\"main\": 1, \"device_parallelism\": {}}}",
            tune::TRAINING_SEEDS,
            tune::HELDOUT_SEEDS,
            tune::APPROX_RATES,
            tune::PARALLELISM
        ),
        "serve_closed" | "serve_drift" => {
            let closed = workload == "serve_closed";
            let load = if closed {
                format!(
                    "\"clients\": {}, \"check_every\": {}, \"promote_after\": {}",
                    serve::CLOSED_CLIENTS,
                    serve::CLOSED_CHECK_EVERY,
                    serve::CLOSED_PROMOTE_AFTER
                )
            } else {
                format!(
                    "\"rate_rps\": {}, \"drift_gain\": {}, \"drift_window\": {:?}, \"check_every\": {}, \"promote_after\": {}, \"latency_from\": \"due time\"",
                    serve::DRIFT_RATE_RPS,
                    serve::DRIFT_GAIN,
                    serve::DRIFT_WINDOW,
                    serve::DRIFT_CHECK_EVERY,
                    serve::DRIFT_PROMOTE_AFTER
                )
            };
            format!(
                "\"tenants\": {:?}, \"scale\": \"paper\", \"profile\": \"gtx560\", \"toq\": 90, \"training_seeds\": {:?}, \"request_seed_base\": {}, {load}, \"batch_window\": {}, \"queue_capacity\": {}, \"latency_limit_ms\": {}, \"busy_threads\": {{\"shards\": {}, \"workers_per_shard\": {}, \"device_parallelism\": {}, \"setup_device_parallelism\": {}}}",
                serve::TENANTS,
                serve::TRAINING_SEEDS,
                1_000 + cfg.seed * 1_000_000,
                serve::BATCH_WINDOW,
                serve::QUEUE_CAPACITY,
                serve::LATENCY_LIMIT_NS / 1_000_000,
                serve::SHARDS,
                serve::WORKERS_PER_SHARD,
                serve::ENGINE_PARALLELISM,
                serve::SETUP_PARALLELISM
            )
        }
        _ => format!(
            "\"apps\": [\"Jacobi\", \"Sobel Flow\"], \"schedules\": {:?}, \"scale\": \"paper\", \"field_seeds\": {:?}, \"sampling_seed\": \"splitmix of the run seed\", \"busy_threads\": {{\"main\": 1, \"device_parallelism\": {}}}",
            iter::SCHEDULES,
            iter::FIELD_SEEDS,
            iter::PARALLELISM
        ),
    };
    format!("{{\"workload\": \"{workload}\", {common}, {specific}}}")
}

/// A metric value as JSON: every digit as measured.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn result_line(outcome: &Outcome, cfg: &Cfg) -> String {
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if cfg.trace {
        for (name, unit) in LAYER_METRICS {
            metrics.push((name, unit, outcome.layers.get(name).copied().unwrap_or(0.0)));
        }
    } else if let Some(e) = &outcome.e2e {
        metrics.extend([
            ("setup_s", "s", e.setup_s),
            ("ops_per_s", "1/s", e.ops_per_s),
            ("latency_p50_ms", "ms", e.latency_ms.p50),
            ("latency_tail_ms", "ms", e.latency_ms.tail),
            ("goodput_frac", "frac", e.goodput_frac),
            ("toq_met_frac", "frac", e.toq_met_frac),
            ("sim_speedup", "x", e.sim_speedup),
            ("peak_rss_mb", "MiB", stats::peak_rss_mb()),
        ]);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        // At least 1 even when nothing ran, which is reported as a failure.
        outcome.tally.attempted.max(1),
        outcome.tally.failed(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let refused: Vec<&str> = REFUSED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !refused.is_empty() {
        eprintln!("perfbench: refusing to run with {refused:?} set: each changes what is measured");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = args.cfg;
    println!("settings: {}", settings(&args.workload, &cfg));
    let outcome = match args.workload.as_str() {
        "tune_suite" => tune::run(&cfg),
        "serve_closed" => serve::run(&cfg, serve::Mode::Closed),
        "serve_drift" => serve::run(&cfg, serve::Mode::Drift),
        _ => iter::run(&cfg),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if outcome.tally.attempted == 0 {
        outcome
            .failures
            .push("no operation was attempted".to_string());
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "operations: {} attempted, {} failed or dropped (fail_frac {})",
        outcome.tally.attempted,
        outcome.tally.failed(),
        outcome.tally.fail_frac()
    );
    if let Some(e) = &outcome.e2e {
        println!(
            "latency: p50 {:.4} ms, tail p{} {:.4} ms, from {} samples (per window on serve)",
            e.latency_ms.p50, e.latency_ms.tail_p, e.latency_ms.tail, e.latency_ms.n
        );
    }
    if cfg.trace {
        println!(
            "note: core.compile_self_s is core.compile_s minus standalone re-runs of lint, pattern detection, error propagation and partition after each compile; it is derived, not measured inside compile"
        );
        let path = PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, cfg.seed));
        match trace::write_jsonl(&path, &outcome.spans) {
            Ok(()) => println!(
                "spans: {} written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    for f in &outcome.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", result_line(&outcome, &cfg));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
