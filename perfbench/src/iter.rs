//! `iter_converge`: Jacobi and Sobel Flow run to convergence under the
//! `exact`, `sampled-check` and `trend-exit` schedules.
//!
//! One operation is one convergence loop of one (application, schedule,
//! field). Passes over all of them repeat until the run length is used;
//! every pass must reproduce the first bit for bit.
//!
//! The initial fields are fixed: iterations to convergence differ by more
//! than 3x between fields (119 to 418 iterations for two fields of each
//! app), so per-run fields would make every metric of this workload a
//! reading of which fields were drawn. The run's seed instead seeds the
//! sampled residual checks of the two approximate schedules, which decide
//! which grid points each check reads.

use std::time::Instant;

use paraprox::{Device, DeviceProfile, Toq};
use paraprox_apps::{iter_registry, IterApp, Scale};
use paraprox_iter::{gate_schedule, IterSchedule, IterativeApp};

use crate::common::{self, Cfg, EndToEnd, Outcome};
use crate::stats::{self, Tally};
use crate::trace;

pub const SCHEDULES: [&str; 3] = ["exact", "sampled-check", "trend-exit"];
/// Host threads per launch; nothing else runs.
pub const PARALLELISM: usize = 2;
/// Seeds of the initial fields, past the tuner's training range.
pub const FIELD_SEEDS: [u64; 3] = [1_000, 1_001, 1_002];

/// Sampling seed of the approximate schedules in a run.
fn sampling_seed(seed: u64) -> u64 {
    0x17E4 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

struct Job {
    app: IterApp,
    job: IterativeApp,
    schedules: Vec<IterSchedule>,
}

/// Result of one loop: what must repeat exactly, and its host time.
#[derive(Debug, Clone, PartialEq)]
struct Loop {
    output_hash: u64,
    cycles: u64,
    iterations: u32,
    quality_bits: u64,
}

fn prepare(app: IterApp, seed: u64) -> Result<Job, String> {
    let model = {
        let _span = trace::span("apps.build");
        (app.build)(Scale::Paper)
    };
    let spec = (app.spec)(Scale::Paper);
    let schedules = SCHEDULES
        .iter()
        .map(|name| {
            let mut s = IterSchedule::named(name, spec.max_iters)
                .ok_or_else(|| format!("no preset schedule {name}"))?;
            if !s.is_exact() {
                s.seed = sampling_seed(seed);
            }
            Ok(s)
        })
        .collect::<Result<Vec<_>, String>>()?;
    if trace::enabled() {
        // Standalone gating of each schedule (admitting it to the job
        // below gates it again).
        for s in &schedules {
            let _span = trace::span("iter.gate");
            gate_schedule(&model, s).map_err(|e| e.to_string())?;
        }
    }
    let job = {
        let _span = trace::span("iter.instantiate");
        let mut job = IterativeApp::new(
            Device::new(DeviceProfile::gtx560().with_parallelism(PARALLELISM)),
            model,
            spec,
            app.field_gen(Scale::Paper),
        )
        .map_err(|e| format!("{}: {e}", app.name))?;
        for s in schedules.iter().filter(|s| !s.is_exact()) {
            job.add_schedule(s.clone())
                .map_err(|e| format!("{}: {e}", app.name))?;
        }
        job
    };
    Ok(Job {
        app,
        job,
        schedules,
    })
}

struct Pass {
    loops: Vec<Loop>,
    op_s: Vec<f64>,
    tally: Tally,
}

fn pass(jobs: &mut [Job], seeds: &[u64], failures: &mut Vec<String>) -> Pass {
    let mut p = Pass {
        loops: Vec::new(),
        op_s: Vec::new(),
        tally: Tally::default(),
    };
    for j in jobs.iter_mut() {
        let mut exact: Vec<paraprox_runtime::RunOutcome> = Vec::new();
        for schedule in &j.schedules {
            for (k, &seed) in seeds.iter().enumerate() {
                let before = *j.job.total_stats();
                let compiles = j.job.device_mut().compile_count();
                let started = Instant::now();
                let result = {
                    let _span = trace::span("iter.run_schedule");
                    j.job.run_schedule(schedule, seed)
                };
                let op_s = started.elapsed().as_secs_f64();
                let out = match result {
                    Ok(o) => o,
                    Err(e) => {
                        failures.push(format!("{} {}: {e}", j.app.name, schedule.label));
                        p.tally.error();
                        continue;
                    }
                };
                let after = *j.job.total_stats();
                let iterations = j.job.last_run().map_or(0, |r| r.iterations);
                trace::count("iter.iterations", f64::from(iterations));
                trace::count("vgpu.runs", 1.0);
                trace::count("vgpu.sim_cycles", out.cycles as f64);
                trace::count(
                    "vgpu.launch_wall_s",
                    after.wall_nanos.saturating_sub(before.wall_nanos) as f64 / 1e9,
                );
                trace::count(
                    "vgpu.ops_dispatched",
                    after.ops_dispatched.saturating_sub(before.ops_dispatched) as f64,
                );
                trace::count(
                    "vgpu.fusions_hit",
                    after.fusions_hit.saturating_sub(before.fusions_hit) as f64,
                );
                trace::count(
                    "vgpu.program_compiles",
                    j.job.device_mut().compile_count().saturating_sub(compiles) as f64,
                );
                let quality = if schedule.is_exact() {
                    100.0
                } else {
                    exact
                        .get(k)
                        .map_or(0.0, |e| j.app.metric.quality(&e.output, &out.output))
                };
                p.tally.ok(true);
                p.op_s.push(op_s);
                p.loops.push(Loop {
                    output_hash: common::output_hash(&out.output),
                    cycles: out.cycles,
                    iterations,
                    quality_bits: quality.to_bits(),
                });
                if schedule.is_exact() {
                    exact.push(out);
                }
            }
        }
    }
    p
}

/// Geomean over apps of the best within-TOQ cycle speedup (mean over
/// seeds per schedule), and the share of approximate loops meeting the
/// TOQ against the exact loop on the same seed.
fn sim_metrics(loops: &[Loop], apps: usize, seeds: usize) -> (f64, f64) {
    let toq = Toq::paper_default();
    let per_app = SCHEDULES.len() * seeds;
    let (mut best, mut met, mut approx) = (Vec::new(), 0u64, 0u64);
    for a in loops.chunks(per_app).take(apps) {
        let (exact, rest) = a.split_at(seeds);
        let mut app_best = 1.0f64;
        for sched in rest.chunks(seeds) {
            let speedup = sched
                .iter()
                .zip(exact)
                .map(|(l, e)| e.cycles as f64 / l.cycles.max(1) as f64)
                .sum::<f64>()
                / seeds as f64;
            let quality = sched
                .iter()
                .map(|l| f64::from_bits(l.quality_bits))
                .sum::<f64>()
                / seeds as f64;
            for l in sched {
                approx += 1;
                met += u64::from(toq.is_met(f64::from_bits(l.quality_bits)));
            }
            if toq.is_met(quality) {
                app_best = app_best.max(speedup);
            }
        }
        best.push(app_best);
    }
    (stats::geomean(&best), stats::ratio(met, approx))
}

/// Run the workload.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seeds = FIELD_SEEDS;
    let (mut jobs, mut setup) = common::setup(
        cfg,
        || {
            iter_registry()
                .into_iter()
                .map(|app| prepare(app, cfg.seed))
                .collect::<Result<Vec<_>, _>>()
        },
        |jobs| {
            jobs.iter()
                .map(|j| format!("{}:{}", j.app.name, j.job.schedules().len()))
                .collect::<Vec<_>>()
                .join(",")
        },
        &mut out.failures,
    )?;

    let (untraced, traced) = common::measure(cfg, |seconds| {
        let started = Instant::now();
        let mut runs = Vec::new();
        while runs.is_empty() || started.elapsed().as_secs_f64() < seconds {
            runs.push(pass(&mut jobs, &seeds, &mut out.failures));
            setup.top_up(started.elapsed().as_secs_f64(), &mut out.failures)?;
        }
        Ok(runs)
    })?;
    let all: Vec<&Pass> = untraced.iter().chain(traced.iter().flatten()).collect();
    if all.windows(2).any(|w| w[0].loops != w[1].loops) {
        out.failures
            .push("convergence loops differ between passes of one run".to_string());
    }
    for p in &all {
        out.tally.merge(&p.tally);
    }
    let first = &untraced[0];
    let (sim_speedup, toq_met_frac) = sim_metrics(&first.loops, jobs.len(), seeds.len());
    let op_s: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.op_s.iter().copied())
        .collect();
    let iter_s = op_s.iter().sum::<f64>() / untraced.len() as f64;
    out.notes.push(format!(
        "iter_converge: {} pass(es) of {} loops; iter_s (all loops of one pass) = {iter_s:.4} s; iterations per pass {}; field seeds {seeds:?}, sampling seed {:#x}",
        untraced.len(),
        first.loops.len(),
        first.loops.iter().map(|l| u64::from(l.iterations)).sum::<u64>(),
        sampling_seed(cfg.seed)
    ));
    out.e2e = Some(EndToEnd {
        setup_s: setup.median_s(),
        ops_per_s: op_s.len() as f64 / op_s.iter().sum::<f64>().max(1e-9),
        latency_ms: stats::summarize(&op_s.iter().map(|s| s * 1e3).collect::<Vec<_>>()),
        goodput_frac: out.tally.goodput_frac(),
        toq_met_frac,
        sim_speedup,
    });

    if let Some(traced) = traced {
        let (spans, counters) = trace::take();
        out.layers = common::layer_metrics(&spans, &counters);
        let per_op = |ps: &[Pass]| {
            let v: Vec<f64> = ps.iter().flat_map(|p| p.op_s.iter().copied()).collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        out.layers.insert(
            "trace_overhead_frac",
            per_op(&traced) / per_op(&untraced) - 1.0,
        );
        out.spans = spans;
    }
    Ok(out)
}
