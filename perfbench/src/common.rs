//! What every workload shares: run settings, the set-up and measuring
//! skeleton, traced compilation, and the per-layer metric table.

use std::collections::BTreeMap;
use std::time::Instant;

use paraprox::{compile, CompileOptions, Compiled, Workload};
use paraprox_patterns::{detect, DetectOptions, LatencyTable};

use crate::stats::{Summary, Tally};
use crate::trace::{self, Span};

/// Set-up repeats until it has run at least this many times and for at
/// least [`SETUP_MIN_S`]; `setup_s` is the median. A cheap set-up (a few
/// milliseconds) is repeated many times, so its median is steady.
pub const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_MIN_S: f64 = 1.0;
/// Upper limit on the opening set-up repetitions.
pub const SETUP_MAX_REPS: usize = 101;
/// Share of the measured phase that [`Setup::top_up`] spends setting up
/// again, on workloads that call it.
pub const SETUP_SHARE: f64 = 0.1;

/// Settings of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    /// Workload seed: every input and schedule is derived from it.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// End-to-end results of the untraced measured phase.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Operations completed per second of measuring.
    pub ops_per_s: f64,
    /// Operation latency, milliseconds.
    pub latency_ms: Summary,
    /// Operations completed (within the latency limit, where there is
    /// one) over attempted.
    pub goodput_frac: f64,
    /// Quality checks meeting the TOQ over all checks.
    pub toq_met_frac: f64,
    /// Simulated speedup of what was served over exact execution.
    pub sim_speedup: f64,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Attempted and failed operations of the measured phase(s).
    pub tally: Tally,
    /// Correctness-check failures; any one fails the run.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced runs).
    pub e2e: Option<EndToEnd>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced run, written out when the run ends.
    pub spans: Vec<Span>,
}

/// Per-layer metrics every traced run reports, with units. A layer a
/// workload does not use reads 0.
pub const LAYER_METRICS: [(&str, &str); 44] = [
    ("lang.parse_s", "s"),
    ("analysis.lint_s", "s"),
    ("analysis.errorprop_s", "s"),
    ("analysis.partition_s", "s"),
    ("patterns.detect_s", "s"),
    ("patterns.found", "count"),
    ("core.compile_s", "s"),
    ("core.compile_self_s", "s"),
    ("core.variants", "count"),
    ("runtime.tune_s", "s"),
    ("runtime.tune_self_s", "s"),
    ("runtime.calibration_launches", "count"),
    ("runtime.launches_saved", "count"),
    ("runtime.rungs_met_frac", "frac"),
    ("runtime.checks", "count"),
    ("runtime.backoffs", "count"),
    ("runtime.promotions", "count"),
    ("runtime.check_service_ms", "ms"),
    ("quality.metric_s", "s"),
    ("quality.calls", "count"),
    ("vgpu.run_s", "s"),
    ("vgpu.runs", "count"),
    ("vgpu.ops_dispatched", "count"),
    ("vgpu.ns_per_op", "ns"),
    ("vgpu.fusion_hit_frac", "frac"),
    ("vgpu.program_compiles", "count"),
    ("vgpu.sim_cycles", "cycles"),
    ("vgpu.host_ns_per_kcycle", "ns"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.steals", "count"),
    ("serve.admission_retries", "count"),
    ("serve.dispatch_self_s", "s"),
    ("serve.gen_lateness_p99_ms", "ms"),
    ("iter.gate_s", "s"),
    ("iter.run_s", "s"),
    ("iter.iterations", "count"),
    ("iter.ns_per_iteration", "ns"),
    ("trace_overhead_frac", "frac"),
    ("trace.coverage_frac", "frac"),
];

/// Repeated, timed set-ups of one workload. `setup_s` is the median of
/// every repetition: the opening ones of [`setup`] and, on workloads
/// whose set-up owns no running threads, the ones [`Setup::top_up`]
/// spreads over the measured phase. Set-up is deterministic, so every
/// repetition must give the same fingerprint.
pub struct Setup<P, F> {
    prepare: P,
    fingerprint: F,
    first: Option<String>,
    times: Vec<f64>,
    /// Wall time spent in [`Setup::top_up`].
    topped_s: f64,
}

impl<T, P, F> Setup<P, F>
where
    P: FnMut() -> Result<T, String>,
    F: Fn(&T) -> String,
{
    /// One timed set-up.
    fn rep(&mut self, failures: &mut Vec<String>) -> Result<T, String> {
        let started = Instant::now();
        let state = (self.prepare)()?;
        self.times.push(started.elapsed().as_secs_f64());
        let print = (self.fingerprint)(&state);
        match &self.first {
            None => self.first = Some(print),
            Some(first) if *first != print => failures.push(format!(
                "set-up is not deterministic: {first} vs {print}"
            )),
            Some(_) => {}
        }
        Ok(state)
    }

    /// Set up again, dropping each new state, until set-ups have taken
    /// [`SETUP_SHARE`] of `elapsed_s`, the time measured so far. Called
    /// between passes, this samples set-up time over the whole run
    /// rather than over its first second, so a few seconds of a busier
    /// host move the median less. Does nothing while tracing.
    pub fn top_up(&mut self, elapsed_s: f64, failures: &mut Vec<String>) -> Result<(), String> {
        while !trace::enabled() && self.topped_s < SETUP_SHARE * elapsed_s {
            let started = Instant::now();
            drop(self.rep(failures)?);
            self.topped_s += started.elapsed().as_secs_f64();
        }
        Ok(())
    }

    /// Median set-up time over every repetition, seconds.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.times)
    }
}

/// Run `prepare` repeatedly (see [`SETUP_MIN_REPS`]) and return the last
/// state with the [`Setup`] that timed it. A traced run then sets up once
/// more under tracing and returns that state.
pub fn setup<T, P, F>(
    cfg: &Cfg,
    prepare: P,
    fingerprint: F,
    failures: &mut Vec<String>,
) -> Result<(T, Setup<P, F>), String>
where
    P: FnMut() -> Result<T, String>,
    F: Fn(&T) -> String,
{
    let mut setup = Setup {
        prepare,
        fingerprint,
        first: None,
        times: Vec::new(),
        topped_s: 0.0,
    };
    let mut last = None;
    let started = Instant::now();
    while setup.times.len() < SETUP_MIN_REPS
        || (started.elapsed().as_secs_f64() < SETUP_MIN_S && setup.times.len() < SETUP_MAX_REPS)
    {
        // Drop the previous state first (it may own running threads).
        drop(last.take());
        last = Some(setup.rep(failures)?);
    }
    if cfg.trace {
        drop(last.take());
        trace::set_enabled(true);
        let phase = trace::phase("setup");
        let state = (setup.prepare)();
        drop(phase);
        trace::set_enabled(false);
        last = Some(state?);
    }
    let state = last.expect("set-up ran at least once");
    Ok((state, setup))
}

/// The measured phase. Untraced runs measure once for the whole run
/// length. Traced runs measure half of it untraced and half traced, so
/// the two halves give the tracing overhead.
pub fn measure<R>(
    cfg: &Cfg,
    mut run: impl FnMut(f64) -> Result<R, String>,
) -> Result<(R, Option<R>), String> {
    if !cfg.trace {
        return Ok((run(cfg.seconds)?, None));
    }
    let untraced = run(cfg.seconds / 2.0)?;
    trace::set_enabled(true);
    let phase = trace::phase("measure");
    let traced = run(cfg.seconds / 2.0);
    drop(phase);
    trace::set_enabled(false);
    Ok((untraced, Some(traced?)))
}

/// Compile inside a `core.compile` span. When tracing, the stages
/// `compile` runs internally (lint, pattern detection, error
/// propagation, criticality partition) are re-run standalone in their own
/// spans, which is what `core.compile_self_s` is derived from.
pub fn compile_traced(
    workload: &Workload,
    table: &LatencyTable,
) -> Result<Compiled, paraprox::CompileError> {
    let compiled = {
        let _span = trace::span("core.compile");
        compile(workload, table, &CompileOptions::default())?
    };
    if trace::enabled() {
        trace::count("core.variants", compiled.variants.len() as f64);
        {
            let _span = trace::span("analysis.lint");
            std::hint::black_box(paraprox::analyze_workload(workload));
        }
        let patterns = {
            let _span = trace::span("patterns.detect");
            detect(&workload.program, table, &DetectOptions::default())
        };
        let found: usize = patterns.iter().map(|p| p.instances.len()).sum();
        trace::count("patterns.found", found as f64);
        {
            let _span = trace::span("analysis.errorprop");
            std::hint::black_box(paraprox::errorbounds::static_quality(
                workload,
                &patterns,
                &compiled.variants,
            ));
        }
        let _span = trace::span("analysis.partition");
        std::hint::black_box(paraprox_analysis::partition_program(&workload.program));
    }
    Ok(compiled)
}

/// Count a tune report's rungs into the runtime layer's counters.
pub fn count_tune(report: &paraprox_runtime::TuneReport) {
    trace::count(
        "runtime.launches_saved",
        report.calibration_launches_saved as f64,
    );
    let measured = report.profiles.iter().filter(|p| !p.pruned);
    let (n, met) = measured.fold((0u64, 0u64), |(n, met), p| {
        (n + 1, met + u64::from(p.meets_toq))
    });
    trace::count("runtime.rungs_measured", n as f64);
    trace::count("runtime.rungs_met", met as f64);
}

/// Embedded kernel source of an application that is built through the
/// language frontend.
pub fn source_of(app: &str) -> Option<&'static str> {
    use paraprox_apps::{black_scholes, cumulative_histogram, gamma_correction, mean_filter};
    match app {
        "BlackScholes" => Some(black_scholes::SOURCE),
        "Gamma Correction" => Some(gamma_correction::SOURCE),
        "Mean Filter" => Some(mean_filter::SOURCE),
        "Cumulative Frequency Histogram" => Some(cumulative_histogram::SOURCE),
        _ => None,
    }
}

/// Build an application's workload in an `apps.build` span; when tracing,
/// also parse its embedded source standalone in a `lang.parse` span.
pub fn build_traced(app: &paraprox_apps::App, seed: u64) -> Workload {
    if trace::enabled() {
        if let Some(src) = source_of(app.spec.name) {
            let _span = trace::span("lang.parse");
            std::hint::black_box(
                paraprox_lang::parse_program(src).expect("embedded source parses"),
            );
        }
    }
    let _span = trace::span("apps.build");
    (app.build)(paraprox_apps::Scale::Paper, seed)
}

/// Per-layer metrics that follow from the spans and counters alone.
/// Workloads add their own (serve queues, watchdog decisions, tracing
/// overhead) on top.
pub fn layer_metrics(
    spans: &[Span],
    counters: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let t = trace::totals(spans);
    let total = |name: &str| t.get(name).map_or(0.0, |x| x.total_s);
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m = BTreeMap::new();
    m.insert("lang.parse_s", total("lang.parse"));
    m.insert("analysis.lint_s", total("analysis.lint"));
    m.insert("analysis.errorprop_s", total("analysis.errorprop"));
    m.insert("analysis.partition_s", total("analysis.partition"));
    m.insert("patterns.detect_s", total("patterns.detect"));
    m.insert("patterns.found", c("patterns.found"));
    m.insert("core.compile_s", total("core.compile"));
    let stages = total("analysis.lint")
        + total("patterns.detect")
        + total("analysis.errorprop")
        + total("analysis.partition");
    m.insert(
        "core.compile_self_s",
        (total("core.compile") - stages).max(0.0),
    );
    m.insert("core.variants", c("core.variants"));
    m.insert("runtime.tune_s", total("runtime.tune"));
    m.insert(
        "runtime.tune_self_s",
        t.get("runtime.tune").map_or(0.0, |x| x.self_s),
    );
    let calibration = spans
        .iter()
        .filter(|s| matches!(s.name, "vgpu.run_exact" | "vgpu.run_variant"))
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "runtime.tune"))
        .count();
    m.insert("runtime.calibration_launches", calibration as f64);
    m.insert("runtime.launches_saved", c("runtime.launches_saved"));
    m.insert(
        "runtime.rungs_met_frac",
        per(c("runtime.rungs_met"), c("runtime.rungs_measured")),
    );
    m.insert("quality.metric_s", total("quality.metric"));
    m.insert("quality.calls", c("quality.calls"));
    let vgpu_s = total("vgpu.run_exact")
        + total("vgpu.run_variant")
        + total("vgpu.run_batch")
        + c("vgpu.launch_wall_s");
    m.insert("vgpu.run_s", vgpu_s);
    m.insert("vgpu.runs", c("vgpu.runs"));
    m.insert("vgpu.ops_dispatched", c("vgpu.ops_dispatched"));
    m.insert(
        "vgpu.ns_per_op",
        per(vgpu_s * 1e9, c("vgpu.ops_dispatched")),
    );
    m.insert(
        "vgpu.fusion_hit_frac",
        per(c("vgpu.fusions_hit"), c("vgpu.ops_dispatched")),
    );
    m.insert("vgpu.program_compiles", c("vgpu.program_compiles"));
    m.insert("vgpu.sim_cycles", c("vgpu.sim_cycles"));
    m.insert(
        "vgpu.host_ns_per_kcycle",
        per(vgpu_s * 1e9, c("vgpu.sim_cycles") / 1e3),
    );
    m.insert("iter.gate_s", total("iter.gate"));
    m.insert("iter.run_s", total("iter.run_schedule"));
    m.insert("iter.iterations", c("iter.iterations"));
    m.insert(
        "iter.ns_per_iteration",
        per(total("iter.run_schedule") * 1e9, c("iter.iterations")),
    );
    m.insert("trace.coverage_frac", trace::coverage(spans));
    m
}

/// 64-bit FNV-1a over the bit patterns of an output: a cheap fingerprint
/// for equality checks that must not keep every output in memory.
pub fn output_hash(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h ^ values.len() as u64
}

/// Bit-for-bit equality of two outputs.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
