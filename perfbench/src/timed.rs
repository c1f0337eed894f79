//! A forwarding [`Approximable`] that times the device layer from outside.
//!
//! Every method forwards to the wrapped [`DeviceApp`]. `run_batch` and
//! `engine_diagnostics` are forwarded too: the trait's default
//! `run_batch` would replace the fused batch path with sequential runs,
//! and the default diagnostics would hide the executor counters, so the
//! benchmark would measure a different program.

use paraprox::DeviceApp;
use paraprox_runtime::{Approximable, BatchRun, EngineDiagnostics, RunOutcome, RuntimeError};

use crate::trace;

/// Request id of `(tenant, seed)` as recorded on spans.
pub fn request_id(tenant: u64, seed: u64) -> u64 {
    (tenant << 48) | (seed & ((1 << 48) - 1))
}

/// A [`DeviceApp`] whose runs and quality calls are spans and counters.
pub struct Timed {
    inner: DeviceApp,
    tenant: u64,
    /// Counters already reported, so each call adds only its delta.
    compiles_seen: u64,
    diag_seen: EngineDiagnostics,
}

impl Timed {
    /// Wrap a device app serving `tenant` (the id spans carry).
    pub fn new(inner: DeviceApp, tenant: u64) -> Timed {
        Timed {
            inner,
            tenant,
            compiles_seen: 0,
            diag_seen: EngineDiagnostics::default(),
        }
    }

    /// The static per-rung quality table of the wrapped app.
    pub fn static_quality(&self) -> &[paraprox_runtime::StaticQuality] {
        self.inner.static_quality()
    }

    fn account(&mut self, outcomes: &[RunOutcome]) {
        trace::count("vgpu.runs", outcomes.len() as f64);
        trace::count(
            "vgpu.sim_cycles",
            outcomes.iter().map(|o| o.cycles as f64).sum(),
        );
        let compiles = self.inner.device_mut().compile_count();
        trace::count(
            "vgpu.program_compiles",
            compiles.saturating_sub(self.compiles_seen) as f64,
        );
        self.compiles_seen = compiles;
        let d = self.inner.engine_diagnostics();
        trace::count(
            "vgpu.ops_dispatched",
            d.ops_dispatched
                .saturating_sub(self.diag_seen.ops_dispatched) as f64,
        );
        trace::count(
            "vgpu.fusions_hit",
            d.fusions_hit.saturating_sub(self.diag_seen.fusions_hit) as f64,
        );
        self.diag_seen = d;
    }

    fn one(
        &mut self,
        name: &'static str,
        variant: Option<usize>,
        seed: u64,
    ) -> Result<RunOutcome, RuntimeError> {
        let span = trace::span_req(name, Some(request_id(self.tenant, seed)));
        let out = match variant {
            Some(v) => self.inner.run_variant(v, seed),
            None => self.inner.run_exact(seed),
        };
        drop(span);
        if let Ok(o) = &out {
            self.account(std::slice::from_ref(o));
        }
        out
    }
}

impl Approximable for Timed {
    fn variant_count(&self) -> usize {
        self.inner.variant_count()
    }

    fn variant_label(&self, index: usize) -> String {
        self.inner.variant_label(index)
    }

    fn run_exact(&mut self, seed: u64) -> Result<RunOutcome, RuntimeError> {
        self.one("vgpu.run_exact", None, seed)
    }

    fn run_variant(&mut self, index: usize, seed: u64) -> Result<RunOutcome, RuntimeError> {
        self.one("vgpu.run_variant", Some(index), seed)
    }

    fn quality(&self, exact: &[f64], approx: &[f64]) -> f64 {
        let _span = trace::span("quality.metric");
        trace::count("quality.calls", 1.0);
        self.inner.quality(exact, approx)
    }

    fn run_batch(&mut self, runs: &[BatchRun]) -> Result<Vec<RunOutcome>, RuntimeError> {
        // A batch serves several requests, so its span carries none.
        let span = trace::span("vgpu.run_batch");
        let out = self.inner.run_batch(runs);
        drop(span);
        if let Ok(o) = &out {
            self.account(o);
        }
        out
    }

    fn engine_diagnostics(&self) -> EngineDiagnostics {
        self.inner.engine_diagnostics()
    }
}
