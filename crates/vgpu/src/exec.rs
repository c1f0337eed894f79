//! The lockstep SIMT interpreter, executed block-parallel on the host.
//!
//! A block's threads execute each statement together under an active-lane
//! mask. `if` and `for` refine the mask (divergence); `Sync` validates that
//! the block has reconverged. Costs are charged per *warp*: every warp with
//! at least one active lane pays the instruction's latency, exactly like
//! SIMT issue on real hardware — so a divergent branch pays for both arms
//! and a warp looping for its slowest lane pays every iteration.
//!
//! # Host parallelism and determinism
//!
//! Thread blocks are independent in the CUDA execution model, so the
//! interpreter executes them concurrently on host workers (a work-stealing
//! scheduler, [`crate::pool`]). Determinism — bit-identical buffer
//! contents, cycle counts, and cache statistics for *any* worker count,
//! including 1 — is achieved by making every block's execution a pure
//! function of the launch-entry state:
//!
//! * **Caches**: each block simulates against a private copy of the
//!   launch-entry L1/constant cache (counters reset, so per-block hit/miss
//!   deltas fold without double counting). After the launch the device
//!   cache becomes the *last* block's final state — a deterministic choice
//!   that keeps caches warm across launches — with counters advanced by
//!   the summed per-block deltas. The copy is the worker's spare cache
//!   pair refilled in place, and only the last block keeps its pair.
//! * **Global memory**: each worker interprets against its own buffer
//!   image. Global writes are logged per block (stores record the value,
//!   atomics record the operation) and the worker's image is reverted
//!   after every block, so each block observes exactly the launch-entry
//!   buffer contents plus its own writes. When all blocks finish, the logs
//!   are replayed into the device's buffers in ascending block order:
//!   plain stores land last-block-wins (what serial execution produced)
//!   and atomic operations are re-applied, so cross-block accumulations
//!   (histograms, reductions) total correctly. A block reading another
//!   block's non-atomic global writes is a data race in CUDA and is
//!   outside this determinism contract.
//! * **Stats**: per-block [`LaunchStats`] are folded in ascending block
//!   order with the same `+=` the serial path uses.
//! * **Iteration budget**: a single shared atomic counter spans all
//!   workers, so the per-launch [`ITERATION_BUDGET`] bounds the whole
//!   launch, not each block.
//!
//! With those rules the schedule is unobservable, so `parallelism = 1`
//! (exactly the serial loop, no threads spawned) and `parallelism = N`
//! produce identical results.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use paraprox_ir::{
    BinOp, CmpOp, EvalError, Expr, Func, Kernel, LoopCond, LoopStep, MemRef, MemSpace, Program,
    Scalar, Special, Stmt, Ty,
};

use crate::cache::Cache;
use crate::device::{ArgValue, BufferStorage, Dim2};
use crate::error::LaunchError;
use crate::mask::LaneMask;
use crate::pool::WorkQueue;
use crate::profile::DeviceProfile;
use crate::stats::LaunchStats;

/// Maximum total loop iterations (summed over all warps of all blocks,
/// across every worker) per launch; guards against non-terminating loops
/// in malformed IR.
pub(crate) const ITERATION_BUDGET: u64 = 1 << 33;

/// Divergence masks are per-warp `u64` bitsets, shared by both engines.
pub(crate) type Mask = LaneMask;

/// Iterate warp lane-ranges that contain at least one active lane, without
/// allocating. One shift-and-mask per warp (see [`LaneMask::warp_bits`]).
pub(crate) fn active_warp_ranges(
    warp_width: usize,
    lanes: usize,
    mask: &Mask,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    let w = warp_width.max(1);
    (0..lanes)
        .step_by(w)
        .filter(move |&start| mask.warp_bits(start, w) != 0)
        .map(move |start| (start, (start + w).min(lanes)))
}

/// Lane-indexed values; entries for inactive lanes hold an arbitrary filler.
pub(crate) type Lanes = Vec<Scalar>;

pub(crate) const FILLER: Scalar = Scalar::I32(0);

/// Read access to one lane of a lane-indexed value container. Implemented
/// by the tree-walker's `Vec<Scalar>` and the bytecode engine's
/// [`crate::soa::RegRow`], so the memory pipeline (loads, stores, atomics,
/// coalescing/bank-conflict charging) is single-sourced across engines.
pub(crate) trait LaneGet {
    /// Scalar value of lane `i`.
    fn lane(&self, i: usize) -> Scalar;
}

impl LaneGet for Vec<Scalar> {
    #[inline(always)]
    fn lane(&self, i: usize) -> Scalar {
        self[i]
    }
}

impl LaneGet for crate::soa::RegRow {
    #[inline(always)]
    fn lane(&self, i: usize) -> Scalar {
        self.get(i)
    }
}

/// Write access to one lane of a lane-indexed value container.
pub(crate) trait LaneSet {
    /// Store `v` into lane `i`.
    fn set_lane(&mut self, i: usize, v: Scalar);
}

impl LaneSet for Vec<Scalar> {
    #[inline(always)]
    fn set_lane(&mut self, i: usize, v: Scalar) {
        self[i] = v;
    }
}

impl LaneSet for crate::soa::RegRow {
    #[inline(always)]
    fn set_lane(&mut self, i: usize, v: Scalar) {
        self.set(i, v);
    }
}

/// Per-worker reusable storage, so steady-state block execution does not
/// allocate. The interpreter churns through short-lived per-statement lane
/// vectors, so each worker keeps a small free list instead of hitting the
/// allocator per expression. (Masks are packed bitsets now — one or two
/// words for typical block sizes — and no longer pooled.)
#[derive(Default)]
pub(crate) struct ScratchPool {
    lanes: Vec<Lanes>,
    /// The distinct words, lines or addresses of the warp access being
    /// charged (coalescing, bank conflicts, constant broadcast).
    keys: Vec<u64>,
    /// The block's shared arrays, re-zeroed for every block.
    shared: Vec<Vec<Scalar>>,
}

/// Cap on pooled vectors; beyond this they are simply dropped.
const SCRATCH_POOL_CAP: usize = 64;

impl ScratchPool {
    fn take_lanes(&mut self, n: usize, fill: Scalar) -> Lanes {
        match self.lanes.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(n, fill);
                v
            }
            None => vec![fill; n],
        }
    }

    /// Take a recycled vector initialized as a copy of `src` — one
    /// recycle-plus-memcpy, instead of filling with a placeholder and
    /// overwriting every slot.
    fn take_lanes_from(&mut self, src: &[Scalar]) -> Lanes {
        match self.lanes.pop() {
            Some(mut v) => {
                v.clear();
                v.extend_from_slice(src);
                v
            }
            None => src.to_vec(),
        }
    }

    fn put_lanes(&mut self, v: Lanes) {
        if self.lanes.len() < SCRATCH_POOL_CAP {
            self.lanes.push(v);
        }
    }
}

/// Collect the distinct keys `key(lane)` of one warp's active lanes into
/// `keys`, in first-seen order. A warp has at most a few dozen lanes, so a
/// linear scan beats hashing.
fn warp_keys<I: LaneGet>(
    keys: &mut Vec<u64>,
    idx: &I,
    mask: &Mask,
    (start, end): (usize, usize),
    key: impl Fn(i64) -> u64,
) -> Result<(), EvalError> {
    keys.clear();
    for lane in start..end {
        if mask.get(lane) {
            let k = key(ExecCtx::index_to_i64(idx.lane(lane))?);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    Ok(())
}

/// One global-memory write performed by a block, recorded so the write can
/// be (a) reverted from the worker's buffer image and (b) replayed onto the
/// device's buffers in block order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LoggedWrite {
    Store {
        buf: usize,
        index: usize,
        old: Scalar,
        new: Scalar,
    },
    Atomic {
        buf: usize,
        index: usize,
        op: BinOp,
        operand: Scalar,
        old: Scalar,
    },
}

/// Undo a block's writes on the worker's buffer image (reverse order, so
/// overlapping writes unwind correctly).
fn revert_writes(buffers: &mut [BufferStorage], log: &[LoggedWrite]) {
    for w in log.iter().rev() {
        match *w {
            LoggedWrite::Store {
                buf, index, old, ..
            }
            | LoggedWrite::Atomic {
                buf, index, old, ..
            } => buffers[buf].data[index] = old,
        }
    }
}

/// Apply a block's writes to the device's buffers. Stores overwrite;
/// atomics re-apply their operation against the accumulated value.
fn replay_writes(buffers: &mut [BufferStorage], log: &[LoggedWrite]) -> Result<(), EvalError> {
    for w in log {
        match *w {
            LoggedWrite::Store {
                buf, index, new, ..
            } => buffers[buf].data[index] = new,
            LoggedWrite::Atomic {
                buf,
                index,
                op,
                operand,
                ..
            } => {
                let current = buffers[buf].data[index];
                buffers[buf].data[index] = op.apply(current, operand)?;
            }
        }
    }
    Ok(())
}

enum FrameArgs<'v> {
    /// Kernel frame: scalar arguments come from the launch's `ArgValue`s.
    Kernel,
    /// Function frame: per-lane argument vectors.
    Func(&'v [Lanes]),
}

struct Frame<'v> {
    args: FrameArgs<'v>,
    locals: Vec<Option<Lanes>>,
    /// Set only for function frames: lanes that have executed `Return`,
    /// plus their values.
    returned: Option<(Mask, Lanes)>,
}

impl<'v> Frame<'v> {
    fn for_kernel(local_count: usize) -> Frame<'static> {
        Frame {
            args: FrameArgs::Kernel,
            locals: vec![None; local_count],
            returned: None,
        }
    }

    fn for_func(args: &'v [Lanes], local_count: usize, lanes: usize) -> Frame<'v> {
        Frame {
            args: FrameArgs::Func(args),
            locals: vec![None; local_count],
            returned: Some((LaneMask::empty(lanes), vec![FILLER; lanes])),
        }
    }
}

/// Launch-wide immutable state shared by every worker.
pub(crate) struct Launch<'a> {
    pub profile: &'a DeviceProfile,
    pub program: &'a Program,
    pub kernel: &'a Kernel,
    pub args: &'a [ArgValue],
    pub grid: Dim2,
    pub block: Dim2,
    /// Compiled bytecode for the kernel; `None` selects the tree-walking
    /// oracle. Shared read-only by all workers.
    pub compiled: Option<&'a crate::bytecode::CompiledKernel>,
    /// Seed for per-block store-application-order permutation (None =
    /// canonical lane order).
    pub schedule_seed: Option<u64>,
    /// Per-pc dynamic execution counters for the profile-guided fusion
    /// pass (bytecode engine only; indexed like `compiled`'s op stream).
    /// Atomic so concurrent pool workers can bump them racelessly — the
    /// summed counts are deterministic for any worker count.
    pub profile_counts: Option<&'a [AtomicU64]>,
    /// Bit-flip probability for [`MemSpace::Approx`] loads, pre-scaled to
    /// a `u64` threshold (`rate * 2^64`, saturating); 0 disables
    /// injection entirely. See [`approx_threshold`].
    pub approx_threshold: u64,
    /// Seed of the deterministic flip stream; mixed with the block id so
    /// each block draws an independent, worker-count-invariant stream.
    pub approx_seed: u64,
    /// Buffer arena indices this launch declares *input-overwritten*: the
    /// kernel never reads them (verified by
    /// [`crate::Device::launch_overwriting`]), so their contents at launch
    /// entry are unobservable and the per-worker image refresh may keep
    /// whatever bytes the pooled image already holds. Loop-carried
    /// ping-pong buffers hit this every iteration.
    pub overwritten: &'a [usize],
}

/// Counters for the pooled worker-image refresh: how many per-buffer
/// copies were performed and how many were skipped because the launch
/// declared the buffer input-overwritten. Atomic because the refresh runs
/// on the pool's worker threads; the totals are deterministic for a fixed
/// launch sequence and worker count.
#[derive(Debug, Default)]
pub(crate) struct RefreshCounters {
    pub copies: AtomicU64,
    pub skips: AtomicU64,
}

/// Refresh one pooled worker image from the master arena, skipping the
/// data copy for buffers the dispatch declared input-overwritten (metadata
/// is still synchronized so addresses and spaces stay coherent). A skip
/// is only taken when the pooled buffer already has the right type and
/// length. Retained buffers are refilled in place — `BufferStorage::clone_from`
/// reuses the heap blocks — so an arena that grew or shrank since the last
/// dispatch (a fused batch appends its jobs' buffers) reallocates only
/// the buffers it added.
fn refresh_image(
    image: &mut Vec<BufferStorage>,
    src: &[BufferStorage],
    overwritten: &[usize],
    counters: &RefreshCounters,
) {
    image.truncate(src.len());
    let retained = image.len();
    let mut skips = 0u64;
    for (i, (dst, s)) in image.iter_mut().zip(src).enumerate() {
        if overwritten.contains(&i) && dst.ty == s.ty && dst.data.len() == s.data.len() {
            dst.space = s.space;
            dst.base_addr = s.base_addr;
            skips += 1;
        } else {
            dst.clone_from(s);
        }
    }
    image.extend(src[retained..].iter().cloned());
    counters
        .copies
        .fetch_add(src.len() as u64 - skips, Ordering::Relaxed);
    counters.skips.fetch_add(skips, Ordering::Relaxed);
}

/// Scale an error rate in `[0, 1]` to the `u64` comparison threshold the
/// executor uses: a flip happens when a uniform 64-bit draw is below
/// `rate * 2^64`. Rate 0 maps to 0 (no draws at all); rates at or above 1
/// saturate to `u64::MAX` (`f64 as u64` saturates), flipping every load.
pub(crate) fn approx_threshold(rate: f64) -> u64 {
    if rate > 0.0 {
        (rate * (u64::MAX as f64)) as u64
    } else {
        0
    }
}

/// Everything one block finished with; folded in ascending block order.
struct BlockOutcome {
    block: usize,
    stats: LaunchStats,
    /// The block's final `(l1, constant)` caches. Only a segment's last
    /// block keeps them: the fold uses no other block's.
    caches: Option<(Cache, Cache)>,
    /// The block's global writes: this range of its worker's write log.
    writes: Range<usize>,
}

/// One host worker's executor state. The device keeps one per worker
/// across dispatches, so repeated launches reuse every allocation in it.
#[derive(Default)]
pub(crate) struct WorkerState {
    /// Every block's global writes in the current dispatch (or serial
    /// segment), appended in execution order; each outcome records its
    /// range.
    log: Vec<LoggedWrite>,
    /// The current dispatch's finished blocks, tagged with their segment.
    done: Vec<(usize, BlockOutcome)>,
    /// Block-private `(l1, constant)` caches, refilled from each block's
    /// segment entry caches. A segment's last block takes them with it;
    /// the dispatch hands the segment's replaced caches back.
    caches: Option<(Cache, Cache)>,
    scratch: ScratchPool,
    bc: crate::bytecode::BcScratch,
}

impl WorkerState {
    /// Forget the previous dispatch's outcomes and writes.
    fn reset(&mut self) {
        self.log.clear();
        self.done.clear();
    }
}

impl std::fmt::Debug for WorkerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerState").finish_non_exhaustive()
    }
}

/// A worker: its state plus the buffer image it interprets against.
struct Worker<'a> {
    buffers: &'a mut Vec<BufferStorage>,
    state: &'a mut WorkerState,
}

/// A failed block: `(segment, block, error)`.
type BlockError = (usize, usize, EvalError);

impl Worker<'_> {
    /// Execute one block against this worker's buffer image, revert the
    /// image, and package the outcome. The block simulates against copies
    /// of the segment's entry caches with counters zeroed, so its counters
    /// are pure deltas. `isolate` is false only for single-block segments
    /// on the serial path, where writes may land directly.
    fn run_block(
        &mut self,
        segment: &FusedSegment<'_>,
        block_id: usize,
        iterations: &AtomicU64,
        isolate: bool,
    ) -> Result<BlockOutcome, EvalError> {
        let WorkerState {
            log,
            caches,
            scratch,
            bc,
            ..
        } = &mut *self.state;
        let (l1, constant_cache) = caches.get_or_insert_with(|| {
            (
                Cache::new(segment.l1.geometry()),
                Cache::new(segment.constant_cache.geometry()),
            )
        });
        l1.clone_from(segment.l1);
        l1.reset_counters();
        constant_cache.clone_from(segment.constant_cache);
        constant_cache.reset_counters();
        let start = log.len();
        let result = exec_block(
            &segment.launch,
            block_id,
            self.buffers,
            isolate.then_some(&mut *log),
            l1,
            constant_cache,
            iterations,
            scratch,
            bc,
        );
        revert_writes(self.buffers, &log[start..]);
        match result {
            Ok(stats) => {
                let last = block_id + 1 == segment.launch.grid.count();
                Ok(BlockOutcome {
                    block: block_id,
                    stats,
                    caches: if last { caches.take() } else { None },
                    writes: start..log.len(),
                })
            }
            Err(e) => {
                log.truncate(start);
                Err(e)
            }
        }
    }

    /// Run the blocks `next` hands out — global indices over every
    /// segment's blocks, mapped back through the segment start offsets —
    /// into the state's `done` list until it runs dry, `abort` is raised,
    /// or a block fails (which raises `abort` for the other workers).
    fn drain(
        &mut self,
        dispatch: &Dispatch<'_, '_>,
        mut next: impl FnMut() -> Option<usize>,
        abort: &AtomicBool,
        isolate_all: bool,
    ) -> Option<BlockError> {
        while let Some(global) = next() {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let si = dispatch.starts.partition_point(|&s| s <= global) - 1;
            let segment = &dispatch.segments[si];
            let block_id = global - dispatch.starts[si];
            let isolate = isolate_all || segment.launch.grid.count() > 1;
            match self.run_block(segment, block_id, &dispatch.iterations[si], isolate) {
                Ok(outcome) => self.state.done.push((si, outcome)),
                Err(e) => {
                    abort.store(true, Ordering::Relaxed);
                    return Some((si, block_id, e));
                }
            }
        }
        None
    }
}

/// One segment of a dispatch: an independent launch plus the simulated
/// caches it enters with and leaves with. A standalone launch is a
/// dispatch of one segment over the device's own caches; a fused batch
/// gives every job a private cache pair. Segments must touch disjoint
/// buffers (each serving request allocates its own); their simulated
/// address spaces may overlap freely because every segment carries
/// private caches.
pub(crate) struct FusedSegment<'a> {
    pub launch: Launch<'a>,
    pub l1: &'a mut Cache,
    pub constant_cache: &'a mut Cache,
}

/// Read-only view of a dispatch shared by every worker.
struct Dispatch<'s, 'a> {
    segments: &'s [FusedSegment<'a>],
    /// Global index of each segment's first block.
    starts: Vec<usize>,
    /// Per-segment loop-iteration budgets, charged like standalone
    /// launches.
    iterations: Vec<AtomicU64>,
}

fn eval_error(launch: &Launch<'_>, source: EvalError) -> LaunchError {
    LaunchError::Eval {
        kernel: launch.kernel.name.clone(),
        source,
    }
}

/// Execute one or more independent launches as one dispatch over a single
/// worker pool: serially, or across host workers sharing one work queue
/// that spans every segment's blocks. Every launch of the device runs
/// here — a standalone launch is a dispatch of one segment.
///
/// Each segment's buffer contents, simulated cycles, and cache statistics
/// are bit-identical to dispatching it alone, at any worker count: each
/// block is a pure function of its segment's entry state, and folding
/// (stats, write replay, exit caches) happens per segment in ascending
/// `(segment, block)` order. A segment's exit caches are its *last*
/// block's final state — a deterministic choice that keeps caches warm
/// across launches — with counters advanced by the summed per-block
/// deltas; they are written back into the segment's cache references.
/// Parallel workers refresh their pooled buffer images once per dispatch,
/// skipping buffers any segment declared input-overwritten. Worker `w`
/// runs on `states[w]`, which the caller keeps across dispatches.
///
/// Returns each segment's stats, in order. On error no segment's caches
/// change.
pub(crate) fn run_fused(
    segments: &mut [FusedSegment<'_>],
    buffers: &mut Vec<BufferStorage>,
    image_pool: &mut Vec<Vec<BufferStorage>>,
    states: &mut Vec<WorkerState>,
    refresh: &RefreshCounters,
) -> Result<Vec<LaunchStats>, LaunchError> {
    let started = Instant::now();
    let Some(first) = segments.first() else {
        return Ok(Vec::new());
    };
    let mut starts = Vec::with_capacity(segments.len());
    let mut total = 0usize;
    for segment in segments.iter() {
        starts.push(total);
        total += segment.launch.grid.count();
    }
    let workers = first.launch.profile.parallelism.min(total).max(1);
    let dispatch = Dispatch {
        iterations: segments.iter().map(|_| AtomicU64::new(0)).collect(),
        segments: &*segments,
        starts,
    };
    let abort = AtomicBool::new(false);
    if states.len() < workers {
        states.resize_with(workers, WorkerState::default);
    }

    let mut exits = Vec::with_capacity(segments.len());
    if workers == 1 {
        // Serial path: interpret directly against the device's buffers,
        // folding each segment before the next runs. Isolation (log +
        // revert per block, replay in the fold) is still applied for
        // multi-block segments so the observable semantics are identical
        // to the parallel path.
        let mut worker = Worker {
            buffers,
            state: &mut states[0],
        };
        worker.state.reset();
        for (si, segment) in dispatch.segments.iter().enumerate() {
            let start = dispatch.starts[si];
            let mut next = start..start + segment.launch.grid.count();
            if let Some((_, _, source)) = worker.drain(&dispatch, || next.next(), &abort, false) {
                return Err(eval_error(&segment.launch, source));
            }
            let WorkerState { log, done, .. } = &mut *worker.state;
            let blocks = done.drain(..).map(|(_, o)| {
                let writes = &log[o.writes.clone()];
                (o, writes)
            });
            exits.push(fold(segment, blocks, worker.buffers)?);
            log.clear();
        }
    } else {
        let queue = WorkQueue::new(total, workers);
        // Per-worker buffer images come from the device's pool: a repeated
        // dispatch (tuning sweep, serving loop) refreshes the retained
        // images in place instead of cloning the arena per worker.
        if image_pool.len() < workers {
            image_pool.resize_with(workers, Vec::new);
        }
        let overwritten: Vec<usize> = dispatch
            .segments
            .iter()
            .flat_map(|s| s.launch.overwritten.iter().copied())
            .collect();
        // `(segment, worker, outcome)`; each worker's write log is
        // `states[worker].log`.
        let mut tagged = Vec::with_capacity(total);
        let mut first_err: Option<BlockError> = None;
        let buffers_src: &Vec<BufferStorage> = buffers;
        let (dispatch_ref, queue_ref, abort_ref) = (&dispatch, &queue, &abort);
        let overwritten = &overwritten[..];
        std::thread::scope(|s| {
            let handles: Vec<_> = image_pool[..workers]
                .iter_mut()
                .zip(&mut states[..workers])
                .enumerate()
                .map(|(w, (image, state))| {
                    s.spawn(move || {
                        refresh_image(image, buffers_src, overwritten, refresh);
                        state.reset();
                        let mut worker = Worker {
                            buffers: image,
                            state,
                        };
                        worker.drain(dispatch_ref, || queue_ref.pop(w), abort_ref, true)
                    })
                })
                .collect();
            for handle in handles {
                let err = handle.join().expect("executor worker panicked");
                // Deterministic-ish selection: report the failure with the
                // lowest (segment, block) among those observed.
                if let Some(e) = err {
                    if first_err.as_ref().is_none_or(|f| (e.0, e.1) < (f.0, f.1)) {
                        first_err = Some(e);
                    }
                }
            }
        });
        if let Some((si, _, source)) = first_err {
            return Err(eval_error(&segments[si].launch, source));
        }
        for (w, state) in states[..workers].iter_mut().enumerate() {
            tagged.extend(state.done.drain(..).map(|(si, o)| (si, w, o)));
        }
        debug_assert_eq!(tagged.len(), total);
        tagged.sort_by_key(|(si, _, o): &(usize, usize, BlockOutcome)| (*si, o.block));
        let mut outcomes = tagged.into_iter().peekable();
        for (si, segment) in dispatch.segments.iter().enumerate() {
            let blocks = std::iter::from_fn(|| {
                let (_, w, o) = outcomes.next_if(|(s, ..)| *s == si)?;
                let writes = &states[w].log[o.writes.clone()];
                Some((o, writes))
            });
            exits.push(fold(segment, blocks, buffers)?);
        }
    }

    let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let mut results = Vec::with_capacity(segments.len());
    for (segment, (mut stats, l1, constant_cache)) in segments.iter_mut().zip(exits) {
        let spent = (
            std::mem::replace(segment.l1, l1),
            std::mem::replace(segment.constant_cache, constant_cache),
        );
        // The worker that ran the last block gave its spare caches away;
        // the replaced pair becomes a spare again.
        if let Some(state) = states.iter_mut().find(|s| s.caches.is_none()) {
            state.caches = Some(spent);
        }
        stats.workers = workers as u64;
        stats.wall_nanos = wall;
        results.push(stats);
    }
    Ok(results)
}

/// Fold one segment's block outcomes, given in ascending block order with
/// their write logs: sum the stats, replay the writes into `buffers`, and
/// return the stats with the exit caches — the last block's final caches,
/// counters advanced from the segment's entry counters by the summed
/// deltas.
fn fold<'l>(
    segment: &FusedSegment<'_>,
    outcomes: impl Iterator<Item = (BlockOutcome, &'l [LoggedWrite])>,
    buffers: &mut [BufferStorage],
) -> Result<(LaunchStats, Cache, Cache), LaunchError> {
    let mut stats = LaunchStats::default();
    let mut exit = None;
    for (outcome, writes) in outcomes {
        stats += outcome.stats;
        replay_writes(buffers, writes).map_err(|e| eval_error(&segment.launch, e))?;
        exit = outcome.caches;
    }
    let (mut l1, mut constant_cache) = exit.expect("a segment's last block keeps its caches");
    l1.set_counters(
        segment.l1.hits() + stats.l1_hits,
        segment.l1.misses() + stats.l1_misses,
    );
    constant_cache.set_counters(
        segment.constant_cache.hits() + stats.const_hits,
        segment.constant_cache.misses() + stats.const_misses,
    );
    Ok((stats, l1, constant_cache))
}

/// Flip one bit of a scalar's 32-bit representation. Booleans carry a
/// single logical bit, so any flip negates them.
fn flip_bit(v: Scalar, bit: u32) -> Scalar {
    let m = 1u32 << (bit % 32);
    match v {
        Scalar::F32(f) => Scalar::F32(f32::from_bits(f.to_bits() ^ m)),
        Scalar::I32(i) => Scalar::I32(i ^ m as i32),
        Scalar::U32(u) => Scalar::U32(u ^ m),
        Scalar::Bool(b) => Scalar::Bool(!b),
    }
}

/// Fisher-Yates permutation of `0..lanes`, seeded per block so different
/// blocks shuffle independently.
fn store_permutation(seed: u64, block_id: u64, lanes: usize) -> Vec<usize> {
    let mut state = seed ^ block_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut order: Vec<usize> = (0..lanes).collect();
    for i in (1..lanes).rev() {
        let j = (paraprox_prng::splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Run a single block to completion against the given caches and return
/// its stats.
#[allow(clippy::too_many_arguments)]
fn exec_block(
    launch: &Launch<'_>,
    block_id: usize,
    buffers: &mut Vec<BufferStorage>,
    log: Option<&mut Vec<LoggedWrite>>,
    l1: &mut Cache,
    constant_cache: &mut Cache,
    iterations: &AtomicU64,
    scratch: &mut ScratchPool,
    bc: &mut crate::bytecode::BcScratch,
) -> Result<LaunchStats, EvalError> {
    let lanes = launch.block.count();
    let mut shared = std::mem::take(&mut scratch.shared);
    shared.resize_with(launch.kernel.shared.len(), Vec::new);
    for (arr, decl) in shared.iter_mut().zip(&launch.kernel.shared) {
        arr.clear();
        arr.resize(decl.len, Scalar::zero(decl.ty));
    }
    let mut ctx = ExecCtx {
        profile: launch.profile,
        program: launch.program,
        kernel: launch.kernel,
        args: launch.args,
        grid: launch.grid,
        block: launch.block,
        lanes,
        buffers,
        log,
        l1,
        constant_cache,
        stats: LaunchStats::default(),
        shared,
        block_x: (block_id % launch.grid.x) as i32,
        block_y: (block_id / launch.grid.x) as i32,
        iterations,
        scratch,
        store_order: launch
            .schedule_seed
            .map(|seed| store_permutation(seed, block_id as u64, lanes)),
        approx_threshold: launch.approx_threshold,
        approx_rng: launch.approx_seed
            ^ (block_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ 0x5851_F42D_4C95_7F2D,
    };
    ctx.stats.blocks = 1;
    ctx.stats.warps = lanes.div_ceil(ctx.profile.warp_width) as u64;
    ctx.stats.overhead_cycles = ctx.profile.block_overhead;
    let result = match launch.compiled {
        Some(prog) => crate::bytecode::execute(&mut ctx, prog, bc, launch.profile_counts),
        None => {
            let mask = LaneMask::full(lanes);
            let mut frame = Frame::for_kernel(ctx.kernel.locals.len());
            ctx.run_block(&launch.kernel.body, &mask, &mut frame)
        }
    };
    let ExecCtx {
        stats,
        shared,
        scratch,
        ..
    } = ctx;
    scratch.shared = shared;
    result.map(|_| stats)
}

pub(crate) struct ExecCtx<'a> {
    pub(crate) profile: &'a DeviceProfile,
    pub(crate) program: &'a Program,
    pub(crate) kernel: &'a Kernel,
    pub(crate) args: &'a [ArgValue],
    pub(crate) grid: Dim2,
    pub(crate) block: Dim2,
    pub(crate) lanes: usize,
    pub(crate) buffers: &'a mut Vec<BufferStorage>,
    /// `Some` when the block must be isolated (multi-block launches):
    /// every global write is recorded for revert + ordered replay.
    pub(crate) log: Option<&'a mut Vec<LoggedWrite>>,
    /// Block-private cache snapshots (copied from launch-entry state).
    pub(crate) l1: &'a mut Cache,
    pub(crate) constant_cache: &'a mut Cache,
    pub(crate) stats: LaunchStats,
    pub(crate) shared: Vec<Vec<Scalar>>,
    pub(crate) block_x: i32,
    pub(crate) block_y: i32,
    /// Launch-wide loop-iteration budget, shared across workers.
    pub(crate) iterations: &'a AtomicU64,
    pub(crate) scratch: &'a mut ScratchPool,
    /// When present, `store_order[k]` is the lane whose store is applied
    /// k-th. Only the *application order* of [`ExecCtx::do_store`] is
    /// permuted — cost accounting and atomics are order-independent.
    pub(crate) store_order: Option<Vec<usize>>,
    /// Flip threshold for [`MemSpace::Approx`] loads (0 = off); see
    /// [`approx_threshold`].
    pub(crate) approx_threshold: u64,
    /// Block-private flip stream state. Blocks execute their lane-loads
    /// in a deterministic sequence (ascending lanes within each access,
    /// program order across accesses, identical in both engines), so
    /// advancing this splitmix64 state per approx lane-load yields the
    /// same flips whatever the worker count or engine.
    pub(crate) approx_rng: u64,
}

impl ExecCtx<'_> {
    // ---- cost charging ------------------------------------------------

    /// Number of warps with at least one active lane — a word-wise bitset
    /// query, one shift-and-mask per warp.
    pub(crate) fn warp_count(&self, mask: &Mask) -> u64 {
        mask.active_warps(self.profile.warp_width) as u64
    }

    pub(crate) fn charge_compute(&mut self, lat: u64, mask: &Mask) {
        let warps = self.warp_count(mask);
        self.stats.compute_cycles += lat * warps;
        self.stats.instructions += warps;
    }

    // ---- expression evaluation ----------------------------------------

    fn eval(&mut self, e: &Expr, mask: &Mask, frame: &mut Frame<'_>) -> Result<Lanes, EvalError> {
        match e {
            Expr::Const(v) => Ok(self.scratch.take_lanes(self.lanes, *v)),
            Expr::Var(v) => {
                let lanes = frame.locals[v.index()]
                    .as_ref()
                    .ok_or(EvalError::UninitializedVar(v.0))?;
                Ok(self.scratch.take_lanes_from(lanes))
            }
            Expr::Param(i) => match &frame.args {
                FrameArgs::Kernel => match self.args.get(*i) {
                    Some(ArgValue::Scalar(s)) => Ok(self.scratch.take_lanes(self.lanes, *s)),
                    Some(ArgValue::Buffer(_)) => {
                        Err(EvalError::NotPure("buffer parameter read as a scalar"))
                    }
                    None => Err(EvalError::ArityMismatch {
                        expected: *i + 1,
                        found: self.args.len(),
                    }),
                },
                FrameArgs::Func(args) => match args.get(*i) {
                    Some(arg) => Ok(self.scratch.take_lanes_from(arg)),
                    None => Err(EvalError::ArityMismatch {
                        expected: *i + 1,
                        found: 0,
                    }),
                },
            },
            Expr::Special(s) => {
                if matches!(frame.args, FrameArgs::Func(_)) {
                    return Err(EvalError::NotPure("thread special"));
                }
                let bx = self.block_x;
                let by = self.block_y;
                let bdx = self.block.x as i32;
                let bdy = self.block.y as i32;
                let gdx = self.grid.x as i32;
                let gdy = self.grid.y as i32;
                let mut out = self.scratch.take_lanes(self.lanes, FILLER);
                for (lane, slot) in out.iter_mut().enumerate() {
                    let tx = (lane % self.block.x) as i32;
                    let ty = (lane / self.block.x) as i32;
                    *slot = Scalar::I32(match s {
                        Special::ThreadIdX => tx,
                        Special::ThreadIdY => ty,
                        Special::BlockIdX => bx,
                        Special::BlockIdY => by,
                        Special::BlockDimX => bdx,
                        Special::BlockDimY => bdy,
                        Special::GridDimX => gdx,
                        Special::GridDimY => gdy,
                    });
                }
                Ok(out)
            }
            Expr::Unary(op, a) => {
                let va = self.eval(a, mask, frame)?;
                self.charge_compute(self.profile.unop_lat(*op), mask);
                let mut out = self.scratch.take_lanes(self.lanes, FILLER);
                if mask.all() {
                    for lane in 0..self.lanes {
                        out[lane] = op.apply(va[lane])?;
                    }
                } else {
                    for lane in mask.iter_set() {
                        out[lane] = op.apply(va[lane])?;
                    }
                }
                self.scratch.put_lanes(va);
                Ok(out)
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a, mask, frame)?;
                let vb = self.eval(b, mask, frame)?;
                let float = mask
                    .iter_set()
                    .next()
                    .map(|l| va[l].ty() == Ty::F32)
                    .unwrap_or(false);
                self.charge_compute(self.profile.binop_lat(*op, float), mask);
                let mut out = self.scratch.take_lanes(self.lanes, FILLER);
                if mask.all() {
                    for lane in 0..self.lanes {
                        out[lane] = op.apply(va[lane], vb[lane])?;
                    }
                } else {
                    for lane in mask.iter_set() {
                        out[lane] = op.apply(va[lane], vb[lane])?;
                    }
                }
                self.scratch.put_lanes(va);
                self.scratch.put_lanes(vb);
                Ok(out)
            }
            Expr::Cmp(op, a, b) => {
                let va = self.eval(a, mask, frame)?;
                let vb = self.eval(b, mask, frame)?;
                self.charge_compute(self.profile.alu_lat, mask);
                let mut out = self.scratch.take_lanes(self.lanes, FILLER);
                if mask.all() {
                    for lane in 0..self.lanes {
                        out[lane] = op.apply(va[lane], vb[lane])?;
                    }
                } else {
                    for lane in mask.iter_set() {
                        out[lane] = op.apply(va[lane], vb[lane])?;
                    }
                }
                self.scratch.put_lanes(va);
                self.scratch.put_lanes(vb);
                Ok(out)
            }
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => {
                let c = self.eval(cond, mask, frame)?;
                self.charge_compute(self.profile.alu_lat, mask);
                let mut t_mask = LaneMask::empty(self.lanes);
                let mut f_mask = LaneMask::empty(self.lanes);
                for lane in mask.iter_set() {
                    if c[lane].as_bool()? {
                        t_mask.set(lane, true);
                    } else {
                        f_mask.set(lane, true);
                    }
                }
                self.scratch.put_lanes(c);
                let mut out = self.scratch.take_lanes(self.lanes, FILLER);
                if t_mask.any() {
                    let tv = self.eval(if_true, &t_mask, frame)?;
                    for lane in t_mask.iter_set() {
                        out[lane] = tv[lane];
                    }
                    self.scratch.put_lanes(tv);
                }
                if f_mask.any() {
                    let fv = self.eval(if_false, &f_mask, frame)?;
                    for lane in f_mask.iter_set() {
                        out[lane] = fv[lane];
                    }
                    self.scratch.put_lanes(fv);
                }
                Ok(out)
            }
            Expr::Cast(ty, a) => {
                let va = self.eval(a, mask, frame)?;
                self.charge_compute(self.profile.alu_lat, mask);
                let mut out = self.scratch.take_lanes(self.lanes, FILLER);
                if mask.all() {
                    for lane in 0..self.lanes {
                        out[lane] = va[lane].cast(*ty);
                    }
                } else {
                    for lane in mask.iter_set() {
                        out[lane] = va[lane].cast(*ty);
                    }
                }
                self.scratch.put_lanes(va);
                Ok(out)
            }
            Expr::Load { mem, index } => {
                let idx = self.eval(index, mask, frame)?;
                if matches!(frame.args, FrameArgs::Func(_)) {
                    return Err(EvalError::NotPure("load"));
                }
                let out = self.do_load(*mem, &idx, mask)?;
                self.scratch.put_lanes(idx);
                Ok(out)
            }
            Expr::Call { func, args } => {
                let callee = self
                    .program
                    .funcs()
                    .find(|(id, _)| id == func)
                    .map(|(_, f)| f)
                    .ok_or(EvalError::UnknownFunc(func.0))?;
                let mut arg_lanes = Vec::with_capacity(args.len());
                for a in args {
                    arg_lanes.push(self.eval(a, mask, frame)?);
                }
                let out = self.call_func(callee, &arg_lanes, mask)?;
                for v in arg_lanes {
                    self.scratch.put_lanes(v);
                }
                Ok(out)
            }
        }
    }

    fn call_func(&mut self, func: &Func, args: &[Lanes], mask: &Mask) -> Result<Lanes, EvalError> {
        if args.len() != func.params.len() {
            return Err(EvalError::ArityMismatch {
                expected: func.params.len(),
                found: args.len(),
            });
        }
        for (arg, param) in args.iter().zip(&func.params) {
            for lane in mask.iter_set() {
                if arg[lane].ty() != param.ty() {
                    return Err(EvalError::TypeMismatch {
                        expected: param.ty(),
                        found: arg[lane].ty(),
                    });
                }
            }
        }
        // Call overhead (argument setup / jump).
        self.charge_compute(self.profile.alu_lat, mask);
        let mut frame = Frame::for_func(args, func.locals.len(), self.lanes);
        self.run_block(&func.body, mask, &mut frame)?;
        let (returned, values) = frame.returned.expect("function frame has returned set");
        for lane in mask.iter_set() {
            if !returned.get(lane) {
                return Err(EvalError::MissingReturn(func.name.clone()));
            }
        }
        Ok(values)
    }

    // ---- statements ----------------------------------------------------

    fn run_block(
        &mut self,
        stmts: &[Stmt],
        mask: &Mask,
        frame: &mut Frame<'_>,
    ) -> Result<(), EvalError> {
        if frame.returned.is_none() {
            // Kernel frames never return, so the live mask is the incoming
            // mask for every statement — no per-statement bookkeeping.
            if !mask.any() {
                return Ok(());
            }
            for stmt in stmts {
                self.run_stmt(stmt, mask, frame)?;
            }
            return Ok(());
        }
        let mut live = LaneMask::empty(self.lanes);
        for stmt in stmts {
            let (returned, _) = frame.returned.as_ref().expect("checked above");
            live.copy_from(mask);
            live.and_not_assign(returned);
            if !live.any() {
                break;
            }
            self.run_stmt(stmt, &live, frame)?;
        }
        Ok(())
    }

    fn run_stmt(
        &mut self,
        stmt: &Stmt,
        mask: &Mask,
        frame: &mut Frame<'_>,
    ) -> Result<(), EvalError> {
        match stmt {
            Stmt::Let { var, init } | Stmt::Assign { var, value: init } => {
                let v = self.eval(init, mask, frame)?;
                match &mut frame.locals[var.index()] {
                    Some(existing) => {
                        if mask.all() {
                            existing.copy_from_slice(&v);
                        } else {
                            for lane in mask.iter_set() {
                                existing[lane] = v[lane];
                            }
                        }
                        self.scratch.put_lanes(v);
                    }
                    slot @ None => *slot = Some(v),
                }
                Ok(())
            }
            Stmt::Store { mem, index, value } => {
                if matches!(frame.args, FrameArgs::Func(_)) {
                    return Err(EvalError::NotPure("store"));
                }
                let idx = self.eval(index, mask, frame)?;
                let val = self.eval(value, mask, frame)?;
                let result = self.do_store(*mem, &idx, &val, mask);
                self.scratch.put_lanes(idx);
                self.scratch.put_lanes(val);
                result
            }
            Stmt::Atomic {
                op,
                mem,
                index,
                value,
            } => {
                if matches!(frame.args, FrameArgs::Func(_)) {
                    return Err(EvalError::NotPure("atomic"));
                }
                let idx = self.eval(index, mask, frame)?;
                let val = self.eval(value, mask, frame)?;
                let result = self.do_atomic(*op, *mem, &idx, &val, mask);
                self.scratch.put_lanes(idx);
                self.scratch.put_lanes(val);
                result
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, mask, frame)?;
                self.charge_compute(self.profile.alu_lat, mask); // branch
                let mut t_mask = LaneMask::empty(self.lanes);
                let mut f_mask = LaneMask::empty(self.lanes);
                for lane in mask.iter_set() {
                    if c[lane].as_bool()? {
                        t_mask.set(lane, true);
                    } else {
                        f_mask.set(lane, true);
                    }
                }
                self.scratch.put_lanes(c);
                if t_mask.any() {
                    self.run_block(then_body, &t_mask, frame)?;
                }
                if f_mask.any() {
                    self.run_block(else_body, &f_mask, frame)?;
                }
                Ok(())
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let init_v = self.eval(init, mask, frame)?;
                match &mut frame.locals[var.index()] {
                    Some(existing) => {
                        for lane in mask.iter_set() {
                            existing[lane] = init_v[lane];
                        }
                        self.scratch.put_lanes(init_v);
                    }
                    slot @ None => *slot = Some(init_v),
                }
                let cmp_op = match cond {
                    LoopCond::Lt(_) => CmpOp::Lt,
                    LoopCond::Le(_) => CmpOp::Le,
                    LoopCond::Gt(_) => CmpOp::Gt,
                    LoopCond::Ge(_) => CmpOp::Ge,
                };
                let step_op = match step {
                    LoopStep::Add(_) => BinOp::Add,
                    LoopStep::Sub(_) => BinOp::Sub,
                    LoopStep::Mul(_) => BinOp::Mul,
                    LoopStep::Shl(_) => BinOp::Shl,
                    LoopStep::Shr(_) => BinOp::Shr,
                };
                let mut loop_mask = mask.clone();
                if let Some((returned, _)) = &frame.returned {
                    loop_mask.and_not_assign(returned);
                }
                loop {
                    if !loop_mask.any() {
                        break;
                    }
                    // Evaluate the continuation condition for lanes still in
                    // the loop.
                    let bound = self.eval(cond.bound(), &loop_mask, frame)?;
                    self.charge_compute(self.profile.alu_lat, &loop_mask); // cmp+branch
                    let current = frame.locals[var.index()]
                        .as_ref()
                        .ok_or(EvalError::UninitializedVar(var.0))?;
                    let mut next_mask = LaneMask::empty(self.lanes);
                    for lane in loop_mask.iter_set() {
                        if cmp_op.apply(current[lane], bound[lane])?.as_bool()? {
                            next_mask.set(lane, true);
                        }
                    }
                    self.scratch.put_lanes(bound);
                    loop_mask = next_mask;
                    if !loop_mask.any() {
                        break;
                    }
                    // The iteration budget is launch-wide: one shared
                    // counter across all workers, so runaway loops are
                    // bounded per launch rather than per block.
                    let used = self.iterations.fetch_add(1, Ordering::Relaxed) + 1;
                    if used > ITERATION_BUDGET {
                        return Err(EvalError::IterationLimit);
                    }
                    self.run_block(body, &loop_mask, frame)?;
                    // Lanes that returned inside the body leave the loop.
                    if let Some((returned, _)) = &frame.returned {
                        loop_mask.and_not_assign(returned);
                    }
                    if !loop_mask.any() {
                        break;
                    }
                    let amount = self.eval(step.amount(), &loop_mask, frame)?;
                    self.charge_compute(self.profile.alu_lat, &loop_mask); // update
                    let current = frame.locals[var.index()]
                        .as_mut()
                        .ok_or(EvalError::UninitializedVar(var.0))?;
                    for lane in loop_mask.iter_set() {
                        current[lane] = step_op.apply(current[lane], amount[lane])?;
                    }
                    self.scratch.put_lanes(amount);
                }
                Ok(())
            }
            Stmt::Sync => {
                if matches!(frame.args, FrameArgs::Func(_)) {
                    return Err(EvalError::NotPure("sync"));
                }
                if mask.all() {
                    Ok(())
                } else {
                    Err(EvalError::DivergentBarrier)
                }
            }
            Stmt::Return(e) => {
                if frame.returned.is_none() {
                    return Err(EvalError::NotPure("return in kernel body"));
                }
                let v = self.eval(e, mask, frame)?;
                let (returned, values) = frame.returned.as_mut().expect("checked above");
                for lane in mask.iter_set() {
                    returned.set(lane, true);
                    values[lane] = v[lane];
                }
                self.scratch.put_lanes(v);
                Ok(())
            }
        }
    }

    // ---- memory --------------------------------------------------------

    fn resolve_buffer(&self, mem: MemRef) -> Result<usize, EvalError> {
        match mem {
            MemRef::Param(i) => match self.args.get(i) {
                Some(ArgValue::Buffer(id)) => Ok(id.index()),
                Some(ArgValue::Scalar(_)) => {
                    Err(EvalError::NotPure("scalar parameter used as a buffer"))
                }
                None => Err(EvalError::ArityMismatch {
                    expected: i + 1,
                    found: self.args.len(),
                }),
            },
            MemRef::Shared(_) => unreachable!("shared handled by caller"),
        }
    }

    pub(crate) fn index_to_i64(idx: Scalar) -> Result<i64, EvalError> {
        match idx {
            Scalar::I32(v) => Ok(i64::from(v)),
            Scalar::U32(v) => Ok(i64::from(v)),
            other => Err(EvalError::TypeMismatch {
                expected: Ty::I32,
                found: other.ty(),
            }),
        }
    }

    fn do_load(&mut self, mem: MemRef, idx: &Lanes, mask: &Mask) -> Result<Lanes, EvalError> {
        let mut out = self.scratch.take_lanes(self.lanes, FILLER);
        self.do_load_into(mem, idx, mask, &mut out)?;
        Ok(out)
    }

    /// Perform a load into `out`, which the caller has pre-filled with
    /// [`FILLER`] (inactive lanes keep the filler, exactly like the
    /// tree-walker's fresh scratch vector). Generic over the lane
    /// containers so both engines share one memory pipeline.
    pub(crate) fn do_load_into<I: LaneGet, O: LaneSet>(
        &mut self,
        mem: MemRef,
        idx: &I,
        mask: &Mask,
        out: &mut O,
    ) -> Result<(), EvalError> {
        match mem {
            MemRef::Shared(sid) => {
                let len = self
                    .shared
                    .get(sid.index())
                    .map(|s| s.len())
                    .ok_or(EvalError::UnknownFunc(sid.index()))?;
                // Values first (immutable borrow of shared).
                for lane in mask.iter_set() {
                    let i = Self::index_to_i64(idx.lane(lane))?;
                    if i < 0 || i as usize >= len {
                        return Err(EvalError::OutOfBounds { index: i, len });
                    }
                    out.set_lane(lane, self.shared[sid.index()][i as usize]);
                }
                self.charge_shared_access(idx, mask)?;
            }
            MemRef::Param(_) => {
                let b = self.resolve_buffer(mem)?;
                let space = self.buffers[b].space;
                let base = self.buffers[b].base_addr;
                let len = self.buffers[b].data.len();
                let inject = space == MemSpace::Approx && self.approx_threshold > 0;
                for lane in mask.iter_set() {
                    let i = Self::index_to_i64(idx.lane(lane))?;
                    if i < 0 || i as usize >= len {
                        return Err(EvalError::OutOfBounds { index: i, len });
                    }
                    let mut v = self.buffers[b].data[i as usize];
                    if space == MemSpace::Approx {
                        self.stats.approx_loads += 1;
                        if inject
                            && paraprox_prng::splitmix64(&mut self.approx_rng)
                                < self.approx_threshold
                        {
                            let bit = (paraprox_prng::splitmix64(&mut self.approx_rng) % 32) as u32;
                            v = flip_bit(v, bit);
                            self.stats.bit_flips += 1;
                        }
                    }
                    out.set_lane(lane, v);
                }
                match space {
                    MemSpace::Global | MemSpace::Shared => {
                        self.charge_global_load(base, idx, mask)?;
                    }
                    MemSpace::Approx => {
                        self.charge_approx_load(base, idx, mask)?;
                    }
                    MemSpace::Constant => {
                        self.charge_constant_load(base, idx, mask)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn charge_shared_access<I: LaneGet>(&mut self, idx: &I, mask: &Mask) -> Result<(), EvalError> {
        const BANKS: usize = 32;
        let (w, lanes) = (self.profile.warp_width, self.lanes);
        let words = &mut self.scratch.keys;
        for range in active_warp_ranges(w, lanes, mask) {
            // Conflict degree: max number of *distinct word addresses*
            // mapping to the same bank within the warp. (A word's bank is
            // its `rem_euclid(32)`, which its two's-complement `u64` bits
            // preserve.)
            warp_keys(words, idx, mask, range, |word| word as u64)?;
            let mut per_bank = [0u64; BANKS];
            for &word in words.iter() {
                per_bank[(word % BANKS as u64) as usize] += 1;
            }
            let degree = per_bank.iter().copied().max().unwrap_or(0).max(1);
            self.stats.shared_accesses += 1;
            self.stats.bank_conflict_extra += degree - 1;
            self.stats.memory_cycles += self.profile.shared_lat * degree;
            self.stats.instructions += 1;
        }
        Ok(())
    }

    fn charge_global_load<I: LaneGet>(
        &mut self,
        base: u64,
        idx: &I,
        mask: &Mask,
    ) -> Result<(), EvalError> {
        let (miss_lat, miss_issue) = (self.profile.mem_lat, self.profile.mem_issue);
        self.charge_cached_load(base, idx, mask, miss_lat, miss_issue)
    }

    /// The approximate region sits behind the same L1 as exact global
    /// memory — cache state, transaction counts, and hit costs are
    /// identical — but a miss goes to the cheaper (lower-voltage) DRAM
    /// timings, so only the charged latency differs.
    fn charge_approx_load<I: LaneGet>(
        &mut self,
        base: u64,
        idx: &I,
        mask: &Mask,
    ) -> Result<(), EvalError> {
        let (miss_lat, miss_issue) = (self.profile.approx_lat, self.profile.approx_issue);
        self.charge_cached_load(base, idx, mask, miss_lat, miss_issue)
    }

    /// Shared L1-backed load costing, parametrized by the miss timings of
    /// the backing region (exact vs approximate DRAM).
    fn charge_cached_load<I: LaneGet>(
        &mut self,
        base: u64,
        idx: &I,
        mask: &Mask,
        miss_lat: u64,
        miss_issue: u64,
    ) -> Result<(), EvalError> {
        let line = self.l1.line() as u64;
        let (w, lanes) = (self.profile.warp_width, self.lanes);
        let segments = &mut self.scratch.keys;
        for range in active_warp_ranges(w, lanes, mask) {
            warp_keys(segments, idx, mask, range, |i| {
                (base + (i as u64) * 4) / line
            })?;
            let transactions = segments.len() as u64;
            self.stats.loads += 1;
            self.stats.instructions += 1;
            self.stats.load_transactions += transactions;
            self.stats.serialized_transactions += transactions.saturating_sub(1);
            let mut hits = 0u64;
            let mut misses = 0u64;
            for &seg in segments.iter() {
                if self.l1.access(seg * line) {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            self.stats.l1_hits += hits;
            self.stats.l1_misses += misses;
            // Exposed latency once (the slowest class present), plus a
            // pipelined issue cost for every further transaction —
            // memory-level parallelism overlaps their latencies.
            let (base, first_issue) = if misses > 0 {
                (miss_lat, miss_issue)
            } else if hits > 0 {
                (self.profile.l1_hit_lat, self.profile.l1_issue)
            } else {
                (0, 0)
            };
            let issue = hits * self.profile.l1_issue + misses * miss_issue;
            let exposed = base / self.profile.latency_hiding.max(1);
            self.stats.memory_cycles += exposed + issue.saturating_sub(first_issue);
        }
        Ok(())
    }

    fn charge_constant_load<I: LaneGet>(
        &mut self,
        base: u64,
        idx: &I,
        mask: &Mask,
    ) -> Result<(), EvalError> {
        let line = self.constant_cache.line() as u64;
        let (w, lanes) = (self.profile.warp_width, self.lanes);
        let words = &mut self.scratch.keys;
        for range in active_warp_ranges(w, lanes, mask) {
            // The constant cache broadcasts one word per cycle: distinct
            // word addresses within a warp serialize.
            warp_keys(words, idx, mask, range, |i| base + (i as u64) * 4)?;
            self.stats.loads += 1;
            self.stats.instructions += 1;
            self.stats.load_transactions += words.len() as u64;
            self.stats.serialized_transactions += (words.len() as u64).saturating_sub(1);
            let mut hits = 0u64;
            let mut misses = 0u64;
            for &addr in words.iter() {
                if self.constant_cache.access((addr / line) * line) {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            self.stats.const_hits += hits;
            self.stats.const_misses += misses;
            let (base, first_issue) = if misses > 0 {
                (self.profile.mem_lat, self.profile.mem_issue)
            } else if hits > 0 {
                (self.profile.const_hit_lat, self.profile.const_hit_lat)
            } else {
                (0, 0)
            };
            // The constant port broadcasts one word per cycle: every
            // distinct word serializes at `const_hit_lat`; misses also pay
            // the pipelined DRAM issue cost.
            let issue = hits * self.profile.const_hit_lat + misses * self.profile.mem_issue;
            let exposed = base / self.profile.latency_hiding.max(1);
            self.stats.memory_cycles += exposed + issue.saturating_sub(first_issue);
        }
        Ok(())
    }

    pub(crate) fn do_store<I: LaneGet, V: LaneGet>(
        &mut self,
        mem: MemRef,
        idx: &I,
        val: &V,
        mask: &Mask,
    ) -> Result<(), EvalError> {
        match mem {
            MemRef::Shared(sid) => {
                let len = self
                    .shared
                    .get(sid.index())
                    .map(|s| s.len())
                    .ok_or(EvalError::UnknownFunc(sid.index()))?;
                for k in 0..self.lanes {
                    let lane = match &self.store_order {
                        Some(order) => order[k],
                        None => k,
                    };
                    if mask.get(lane) {
                        let i = Self::index_to_i64(idx.lane(lane))?;
                        if i < 0 || i as usize >= len {
                            return Err(EvalError::OutOfBounds { index: i, len });
                        }
                        let v = val.lane(lane);
                        let arr = &mut self.shared[sid.index()];
                        let expected = arr[i as usize].ty();
                        if v.ty() != expected {
                            return Err(EvalError::TypeMismatch {
                                expected,
                                found: v.ty(),
                            });
                        }
                        arr[i as usize] = v;
                    }
                }
                self.charge_shared_access(idx, mask)?;
                self.stats.stores += self.warp_count(mask);
            }
            MemRef::Param(_) => {
                let b = self.resolve_buffer(mem)?;
                if self.buffers[b].space == MemSpace::Constant {
                    return Err(EvalError::NotPure("store to constant memory"));
                }
                let base = self.buffers[b].base_addr;
                let len = self.buffers[b].data.len();
                let elem_ty = self.buffers[b].ty;
                for k in 0..self.lanes {
                    let lane = match &self.store_order {
                        Some(order) => order[k],
                        None => k,
                    };
                    if mask.get(lane) {
                        let i = Self::index_to_i64(idx.lane(lane))?;
                        if i < 0 || i as usize >= len {
                            return Err(EvalError::OutOfBounds { index: i, len });
                        }
                        let v = val.lane(lane);
                        if v.ty() != elem_ty {
                            return Err(EvalError::TypeMismatch {
                                expected: elem_ty,
                                found: v.ty(),
                            });
                        }
                        if let Some(log) = self.log.as_mut() {
                            log.push(LoggedWrite::Store {
                                buf: b,
                                index: i as usize,
                                old: self.buffers[b].data[i as usize],
                                new: v,
                            });
                        }
                        self.buffers[b].data[i as usize] = v;
                    }
                }
                // Coalescing for stores: one transaction per distinct line.
                // Writes to the approximate region are exact (errors are a
                // read phenomenon) but land in the cheaper DRAM.
                let line = self.l1.line() as u64;
                let (w, lanes) = (self.profile.warp_width, self.lanes);
                let store_lat = if self.buffers[b].space == MemSpace::Approx {
                    self.profile.approx_store_lat
                } else {
                    self.profile.store_lat
                };
                let segments = &mut self.scratch.keys;
                for range in active_warp_ranges(w, lanes, mask) {
                    warp_keys(segments, idx, mask, range, |i| {
                        (base + (i as u64) * 4) / line
                    })?;
                    self.stats.stores += 1;
                    self.stats.instructions += 1;
                    self.stats.memory_cycles += store_lat * segments.len() as u64;
                }
            }
        }
        Ok(())
    }

    pub(crate) fn do_atomic<I: LaneGet, V: LaneGet>(
        &mut self,
        op: paraprox_ir::AtomicOp,
        mem: MemRef,
        idx: &I,
        val: &V,
        mask: &Mask,
    ) -> Result<(), EvalError> {
        let bin = op.to_bin_op();
        let mut active = 0u64;
        for lane in mask.iter_set() {
            active += 1;
            let i = Self::index_to_i64(idx.lane(lane))?;
            match mem {
                MemRef::Shared(sid) => {
                    let arr = self
                        .shared
                        .get_mut(sid.index())
                        .ok_or(EvalError::UnknownFunc(sid.index()))?;
                    let len = arr.len();
                    if i < 0 || i as usize >= len {
                        return Err(EvalError::OutOfBounds { index: i, len });
                    }
                    let old = arr[i as usize];
                    arr[i as usize] = bin.apply(old, val.lane(lane))?;
                }
                MemRef::Param(_) => {
                    let b = self.resolve_buffer(mem)?;
                    if self.buffers[b].space == MemSpace::Constant {
                        return Err(EvalError::NotPure("atomic on constant memory"));
                    }
                    let len = self.buffers[b].data.len();
                    if i < 0 || i as usize >= len {
                        return Err(EvalError::OutOfBounds { index: i, len });
                    }
                    let old = self.buffers[b].data[i as usize];
                    let new = bin.apply(old, val.lane(lane))?;
                    if let Some(log) = self.log.as_mut() {
                        log.push(LoggedWrite::Atomic {
                            buf: b,
                            index: i as usize,
                            op: bin,
                            operand: val.lane(lane),
                            old,
                        });
                    }
                    self.buffers[b].data[i as usize] = new;
                }
            }
        }
        // Atomics fully serialize across active lanes. They are also
        // always exact, even on an `Approx`-placed buffer: the partition
        // analysis marks atomic targets Critical, so auto-placement never
        // routes them here, and a forced placement still keeps its
        // read-modify-write cycle flip-free at exact timing.
        self.stats.atomics += active;
        self.stats.memory_cycles += self.profile.atomic_lat * active;
        self.stats.instructions += self.warp_count(mask);
        Ok(())
    }
}
