//! `tune_suite`: compile and tune all 13 applications at paper scale on
//! both device profiles — the offline path every deployment waits for.
//!
//! One operation is compiling and tuning one (application, profile)
//! pair. Passes over all 26 pairs repeat until the run length is used.
//! Training seeds are fixed, so every pass makes the same decisions; the
//! run's seed picks the held-out inputs the chosen rungs are checked on.

use std::time::Instant;

use paraprox::{latency_table_for, Device, DeviceApp, DeviceProfile, Toq};
use paraprox_apps::{registry, App, Scale};
use paraprox_runtime::{Approximable, Tuner};
use paraprox_vgpu::ExecEngine;

use crate::common::{self, Cfg, EndToEnd, Outcome};
use crate::stats::{self, Tally};
use crate::timed::Timed;
use crate::trace;

/// Fixed training inputs of the tuner.
pub const TRAINING_SEEDS: [u64; 3] = [0, 1, 2];
/// Approximate-memory rungs appended after the rewrite variants: a
/// plausible DRAM-refresh rate and an aggressive one the static table
/// prunes.
pub const APPROX_RATES: [f64; 2] = [1e-7, 1e-2];
/// Host threads per launch; nothing else runs while tuning.
pub const PARALLELISM: usize = 2;
/// Held-out inputs each chosen rung is checked on. Each (pair, input)
/// is one trial of `toq_met_frac`; a few borderline pairs decide it, so
/// it takes several inputs per pair to read steadily across run seeds.
pub const HELDOUT_SEEDS: u64 = 6;

fn profiles() -> [DeviceProfile; 2] {
    [
        DeviceProfile::gtx560().with_parallelism(PARALLELISM),
        DeviceProfile::core_i7_965().with_parallelism(PARALLELISM),
    ]
}

/// Held-out seeds of a run: disjoint from training, derived from `seed`.
fn heldout(seed: u64) -> Vec<u64> {
    (0..HELDOUT_SEEDS)
        .map(|k| 10_000 + seed * HELDOUT_SEEDS + k)
        .collect()
}

struct Built {
    app: App,
    workload: paraprox::Workload,
}

/// What tuning one (app, profile) pair decided.
#[derive(Debug, Clone, PartialEq)]
struct Decision {
    chosen: Option<usize>,
    speedup_bits: u64,
}

struct Pass {
    decisions: Vec<Decision>,
    op_s: Vec<f64>,
    tally: Tally,
}

fn tune_pair(
    built: &Built,
    profile: &DeviceProfile,
    tenant: u64,
) -> Result<paraprox_runtime::TuneReport, String> {
    let compiled = common::compile_traced(&built.workload, &latency_table_for(profile))
        .map_err(|e| format!("{}: compile: {e}", built.app.spec.name))?;
    let dapp = DeviceApp::new(
        Device::new(profile.clone()),
        &compiled,
        built.app.input_gen(Scale::Paper),
    )
    .with_approx_memory(&compiled, &APPROX_RATES);
    let mut timed = Timed::new(dapp, tenant);
    let statics = timed.static_quality().to_vec();
    let _span = trace::span("runtime.tune");
    Tuner {
        toq: Toq::paper_default(),
        training_seeds: TRAINING_SEEDS.to_vec(),
    }
    .tune_with_static(&mut timed, &statics)
    .map_err(|e| format!("{}: tune: {e}", built.app.spec.name))
}

fn pass(apps: &[Built], failures: &mut Vec<String>) -> Pass {
    let mut p = Pass {
        decisions: Vec::new(),
        op_s: Vec::new(),
        tally: Tally::default(),
    };
    for (pi, profile) in profiles().iter().enumerate() {
        for (ai, built) in apps.iter().enumerate() {
            let started = Instant::now();
            let report = {
                let _span = trace::span_req("tune.pair", Some((pi * apps.len() + ai) as u64));
                tune_pair(built, profile, ai as u64)
            };
            let op_s = started.elapsed().as_secs_f64();
            match report {
                Ok(report) => {
                    common::count_tune(&report);
                    p.tally.ok(true);
                    p.op_s.push(op_s);
                    p.decisions.push(Decision {
                        chosen: report.chosen,
                        speedup_bits: report.chosen_speedup().to_bits(),
                    });
                }
                Err(e) => {
                    failures.push(e);
                    p.tally.error();
                }
            }
        }
    }
    p
}

/// Share of (pair, held-out input) runs whose chosen rung meets the TOQ,
/// and the oracle replay: the
/// chosen rung and the exact program re-run on the tree-walking
/// interpreter must match the bytecode engine bit for bit.
fn check_heldout(
    apps: &[Built],
    decisions: &[Decision],
    seed: u64,
    failures: &mut Vec<String>,
) -> f64 {
    let seeds = heldout(seed);
    let toq = Toq::paper_default();
    let (mut met, mut trials) = (0u64, 0u64);
    let pairs = profiles()
        .into_iter()
        .flat_map(|p| apps.iter().map(move |b| (p.clone(), b)));
    for ((profile, built), decision) in pairs.zip(decisions) {
        let name = built.app.spec.name;
        let result = (|| -> Result<u64, String> {
            let compiled = paraprox::compile(
                &built.workload,
                &latency_table_for(&profile),
                &Default::default(),
            )
            .map_err(|e| e.to_string())?;
            let bind = |engine: ExecEngine| {
                DeviceApp::new(
                    Device::new(profile.clone().with_engine(engine)),
                    &compiled,
                    built.app.input_gen(Scale::Paper),
                )
                .with_approx_memory(&compiled, &APPROX_RATES)
            };
            let mut fast = bind(ExecEngine::Bytecode);
            let mut oracle = bind(ExecEngine::TreeWalk);
            let mut met = 0;
            for (k, &h) in seeds.iter().enumerate() {
                let exact = fast.run_exact(h).map_err(|e| e.to_string())?;
                let served = match decision.chosen {
                    Some(v) => fast.run_variant(v, h).map_err(|e| e.to_string())?,
                    None => exact.clone(),
                };
                met += u64::from(toq.is_met(fast.quality(&exact.output, &served.output)));
                if k == 0 {
                    let ref_exact = oracle.run_exact(h).map_err(|e| e.to_string())?;
                    let ref_served = match decision.chosen {
                        Some(v) => oracle.run_variant(v, h).map_err(|e| e.to_string())?,
                        None => ref_exact.clone(),
                    };
                    if !common::same_bits(&exact.output, &ref_exact.output)
                        || !common::same_bits(&served.output, &ref_served.output)
                        || exact.cycles != ref_exact.cycles
                        || served.cycles != ref_served.cycles
                    {
                        return Err(format!(
                            "oracle mismatch on seed {h} (rung {:?})",
                            decision.chosen
                        ));
                    }
                }
            }
            Ok(met)
        })();
        trials += seeds.len() as u64;
        match result {
            Ok(m) => met += m,
            Err(e) => failures.push(format!("{name} on {}: {e}", profile.name)),
        }
    }
    stats::ratio(met, trials)
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (apps, mut setup) = common::setup(
        cfg,
        || {
            Ok(registry()
                .into_iter()
                .map(|app| {
                    let workload = common::build_traced(&app, 0);
                    Built { app, workload }
                })
                .collect::<Vec<_>>())
        },
        |apps| {
            apps.iter()
                .map(|b| format!("{}:{}", b.workload.name, b.workload.pipeline.launches.len()))
                .collect::<Vec<_>>()
                .join(",")
        },
        &mut out.failures,
    )?;

    let mut passes = Vec::new();
    let (untraced, traced) = common::measure(cfg, |seconds| {
        let started = Instant::now();
        let mut runs = Vec::new();
        while runs.is_empty() || started.elapsed().as_secs_f64() < seconds {
            runs.push(pass(&apps, &mut out.failures));
            setup.top_up(started.elapsed().as_secs_f64(), &mut out.failures)?;
        }
        Ok(runs)
    })?;
    passes.extend(untraced.iter().map(|p| p.decisions.clone()));
    passes.extend(traced.iter().flatten().map(|p| p.decisions.clone()));
    if passes.windows(2).any(|w| w[0] != w[1]) {
        out.failures
            .push("tuning decisions differ between passes of one run".to_string());
    }
    let decisions = passes.first().cloned().unwrap_or_default();
    let toq_met_frac = check_heldout(&apps, &decisions, cfg.seed, &mut out.failures);

    let op_s: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.op_s.iter().copied())
        .collect();
    for p in untraced.iter().chain(traced.iter().flatten()) {
        out.tally.merge(&p.tally);
    }
    let speedups: Vec<f64> = decisions
        .iter()
        .map(|d| f64::from_bits(d.speedup_bits).max(1.0))
        .collect();
    let offline_s: f64 = op_s.iter().sum::<f64>() / untraced.len().max(1) as f64;
    out.notes.push(format!(
        "tune_suite: {} pass(es) of {} (app, profile) pairs; offline_s (compile + tune, all pairs) = {offline_s:.4} s; held-out seeds {:?}",
        untraced.len(),
        decisions.len(),
        heldout(cfg.seed)
    ));
    out.e2e = Some(EndToEnd {
        setup_s: setup.median_s(),
        ops_per_s: op_s.len() as f64 / op_s.iter().sum::<f64>().max(1e-9),
        latency_ms: stats::summarize(&op_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
        goodput_frac: out.tally.goodput_frac(),
        toq_met_frac,
        sim_speedup: stats::geomean(&speedups),
    });

    if let Some(traced) = traced {
        let (spans, counters) = trace::take();
        out.layers = common::layer_metrics(&spans, &counters);
        // The standalone stage re-runs are extra work of the traced run,
        // not overhead of recording; they are left out of the comparison.
        let reruns: f64 = [
            "analysis.lint_s",
            "patterns.detect_s",
            "analysis.errorprop_s",
            "analysis.partition_s",
        ]
        .iter()
        .map(|k| out.layers.get(k).copied().unwrap_or(0.0))
        .sum();
        let total = |ps: &[Pass]| -> (f64, usize) {
            ps.iter()
                .flat_map(|p| p.op_s.iter())
                .fold((0.0, 0), |(s, n), x| (s + x, n + 1))
        };
        let (traced_s, traced_n) = total(&traced);
        let (base_s, base_n) = total(&untraced);
        let traced_per_op = (traced_s - reruns) / traced_n.max(1) as f64;
        let base_per_op = base_s / base_n.max(1) as f64;
        out.layers
            .insert("trace_overhead_frac", traced_per_op / base_per_op - 1.0);
        out.spans = spans;
    }
    Ok(out)
}
