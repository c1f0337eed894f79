//! The batcher: coalesce a claimed tenant's queued requests into fused
//! deployment batches.
//!
//! A worker that claims a tenant pops up to `batch_window` consecutive
//! requests (the tenant's FIFO order) and serves them here as one *batch*.
//! The batch is split into rung-stable chunks at the lengths
//! [`Deployment::chunk_len`] gives — a chunk never crosses a calibration
//! boundary, so the watchdog sees exactly the per-request sequence it
//! would have seen — and each chunk is served by
//! [`Deployment::invoke_batch`], which executes it through the
//! application's [`Approximable::run_batch`]; device-backed apps fuse it
//! into a single multi-block launch over the worker-image pool. The
//! per-request decision trace (variants served, check qualities,
//! back-offs, re-promotions) is the same for every batch window; only
//! wall-clock cost changes. A `batch_window` of 1 serves batches of one
//! on the same path — the unbatched baseline the benchmarks compare
//! against.

use std::sync::mpsc;
use std::time::Instant;

use paraprox_runtime::{Approximable, Deployment, InvokeResult, RuntimeError};

use crate::engine::{Response, TenantId};
use crate::stats::TenantStats;

/// Everything a worker needs to serve one tenant. One mutex per tenant:
/// the scheduler guarantees at most one worker holds a tenant at a time,
/// so this lock is uncontended and exists only to move the state safely.
pub(crate) struct Core {
    pub app: Box<dyn Approximable + Send>,
    pub deployment: Deployment,
    pub stats: TenantStats,
}

/// One popped request, ready to serve.
pub(crate) struct BatchItem {
    pub seq: u64,
    pub seed: u64,
    /// Time the request waited in the tenant FIFO, nanoseconds.
    pub queue_nanos: u64,
    pub reply: mpsc::Sender<Response>,
}

/// Serve a claimed tenant's popped requests and reply to each ticket.
/// Returns the number of requests completed (always `items.len()`).
pub(crate) fn serve_claimed(tenant: TenantId, core: &mut Core, items: Vec<BatchItem>) -> usize {
    let count = items.len();
    if count == 0 {
        return 0;
    }
    core.stats.batches += 1;
    core.stats.peak_batch = core.stats.peak_batch.max(count as u64);
    let mut rest = items.as_slice();
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at(core.deployment.chunk_len(rest.len()));
        rest = tail;
        let seeds: Vec<u64> = chunk.iter().map(|item| item.seed).collect();
        let started = Instant::now();
        let outcome = core.deployment.invoke_batch(core.app.as_mut(), &seeds);
        let service_nanos = started.elapsed().as_nanos() as u64;
        match outcome {
            Ok(results) => {
                for (item, r) in chunk.iter().zip(results) {
                    record(core, item, service_nanos, Ok(r), tenant);
                }
            }
            Err(e) => {
                // The chunk failed as a unit: every request in it gets the
                // error, the deployment is left unchanged, and the next
                // chunk proceeds (requests are independent submissions).
                for item in chunk {
                    record(core, item, service_nanos, Err(&e), tenant);
                }
            }
        }
    }
    count
}

/// Account one completed request in the tenant's stats and reply to its
/// ticket. A dropped ticket is not an error.
fn record(
    core: &mut Core,
    item: &BatchItem,
    service_nanos: u64,
    outcome: Result<InvokeResult, &RuntimeError>,
    tenant: TenantId,
) {
    core.stats.served += 1;
    core.stats.queue_ns.push(item.queue_nanos);
    core.stats.service_ns.push(service_nanos);
    let response = match outcome {
        Ok(r) => {
            core.stats.cycles += r.cycles;
            core.stats.backoffs += u64::from(r.backed_off);
            core.stats.promotions += u64::from(r.promoted);
            if let Some(q) = r.checked_quality {
                core.stats.quality.observe(q);
            }
            Response {
                tenant,
                seq: item.seq,
                seed: item.seed,
                output: r.output,
                cycles: r.cycles,
                variant: r.variant,
                checked_quality: r.checked_quality,
                backed_off: r.backed_off,
                promoted: r.promoted,
                queue_nanos: item.queue_nanos,
                service_nanos,
                error: None,
            }
        }
        Err(e) => {
            core.stats.errors += 1;
            Response {
                tenant,
                seq: item.seq,
                seed: item.seed,
                output: Vec::new(),
                cycles: 0,
                variant: None,
                checked_quality: None,
                backed_off: false,
                promoted: false,
                queue_nanos: item.queue_nanos,
                service_nanos,
                error: Some(e.to_string()),
            }
        }
    };
    let _ = item.reply.send(response);
}
