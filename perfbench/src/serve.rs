//! `serve_closed` and `serve_drift`: four tenants behind the serving
//! engine, driven through `Engine::submit` and `Ticket::wait`.
//!
//! * `serve_closed` — 16 closed-loop clients, four per tenant, each
//!   sending its next request when the previous one returns; no drift, a
//!   check every 40 requests. It saturates admission, the batcher and
//!   both shards.
//! * `serve_drift` — an open loop of Poisson arrivals at a fixed rate,
//!   with inputs drifting (f32 inputs scaled by 8) for a window of seeds
//!   and a check every 4 requests, so the watchdog backs off and
//!   re-promotes. Latency counts from each request's due time.
//!
//! A tenant's `k`-th request has seed `base + k`, so every tenant sees its
//! seeds in submission order and its decision trace is a function of the
//! run's seed alone. (The open loop sends request `i` to tenant `i % 4`.)

use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use paraprox::{latency_table_for, Compiled, Device, DeviceApp, DeviceProfile, Toq};
use paraprox_apps::{App, Scale};
use paraprox_runtime::{Deployment, DeploymentConfig, TuneReport, Tuner};
use paraprox_serve::{drift_inputs, Engine, EngineSnapshot, Response, ServeConfig, SubmitError};
use paraprox_vgpu::{BufferInit, ExecEngine};

use crate::common::{self, Cfg, EndToEnd, Outcome};
use crate::stats::{self, Tally};
use crate::timed::{request_id, Timed};
use crate::trace;

/// Map with memoization, drift-sensitive map, stencil, reduction with
/// atomics.
pub const TENANTS: [&str; 4] = [
    "BlackScholes",
    "Gamma Correction",
    "Mean Filter",
    "Naive Bayes",
];
pub const TRAINING_SEEDS: [u64; 3] = [0, 1, 2];
pub const SHARDS: usize = 2;
pub const WORKERS_PER_SHARD: usize = 1;
/// Host threads per launch inside the engine: shards × workers × this
/// stays within the two host cores.
pub const ENGINE_PARALLELISM: usize = 1;
/// Host threads per launch while tuning in set-up (no engine running).
pub const SETUP_PARALLELISM: usize = 2;
pub const BATCH_WINDOW: usize = 8;
pub const QUEUE_CAPACITY: usize = 1024;
/// Clean checks before re-promotion. Without drift a violation is an
/// unlucky input, so the closed loop climbs back after one clean check;
/// each back-off then costs fewer requests at a slower rung, and the
/// served cycles depend less on how many unlucky inputs a run drew.
pub const CLOSED_PROMOTE_AFTER: u64 = 1;
pub const DRIFT_PROMOTE_AFTER: u64 = 2;
pub const CLOSED_CLIENTS: usize = 16;
pub const CLOSED_CHECK_EVERY: u64 = 40;
pub const DRIFT_CHECK_EVERY: u64 = 4;
/// Offered rate of the open loop: about 45% of closed-loop capacity on a
/// 2-core host, so the queue stays bounded.
pub const DRIFT_RATE_RPS: f64 = 250.0;
pub const DRIFT_GAIN: f32 = 8.0;
/// Drifting seeds, as offsets from the run's seed base.
pub const DRIFT_WINDOW: (u64, u64) = (50, 100);
/// Window of send time over which throughput and latency are read; the
/// end-to-end figures are medians over the windows of a run.
pub const WINDOW_NS: u64 = 2_000_000_000;
/// A request slower than this misses the goodput limit.
pub const LATENCY_LIMIT_NS: u64 = 50_000_000;
/// Requests per tenant whose decisions are replayed sequentially.
pub const REPLAY_PREFIX: u64 = 100;
/// Requests per tenant whose served cycles and checks give the closed
/// loop's deterministic metrics (the open loop uses its whole fixed
/// schedule). The closed loop runs past its deadline until every tenant
/// has this many.
pub const CLOSED_SIM_PREFIX: u64 = 2500;
/// Requests per tenant replayed on the tree-walking oracle.
pub const ORACLE_SAMPLES: usize = 3;

/// Which of the two serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Closed,
    Drift,
}

fn profile(parallelism: usize) -> DeviceProfile {
    DeviceProfile::gtx560().with_parallelism(parallelism)
}

/// First request seed of a run, above every training seed.
fn seed_base(seed: u64) -> u64 {
    1_000 + seed * 1_000_000
}

fn config(mode: Mode) -> ServeConfig {
    ServeConfig {
        queue_capacity: QUEUE_CAPACITY,
        workers: WORKERS_PER_SHARD,
        shards: SHARDS,
        batch_window: BATCH_WINDOW,
        toq: Toq::paper_default(),
        check_every: match mode {
            Mode::Closed => CLOSED_CHECK_EVERY,
            Mode::Drift => DRIFT_CHECK_EVERY,
        },
        promote_after: match mode {
            Mode::Closed => CLOSED_PROMOTE_AFTER,
            Mode::Drift => DRIFT_PROMOTE_AFTER,
        },
        quality_alpha: 0.25,
    }
}

struct Tenant {
    app: App,
    compiled: Compiled,
    report: TuneReport,
}

type InputGen = Box<dyn FnMut(u64) -> Vec<BufferInit> + Send>;

fn input_gen(mode: Mode, app: &App, base: u64) -> InputGen {
    let gen = app.input_gen(Scale::Paper);
    match mode {
        Mode::Closed => gen,
        Mode::Drift => drift_inputs(
            gen,
            base + DRIFT_WINDOW.0,
            base + DRIFT_WINDOW.1,
            DRIFT_GAIN,
        ),
    }
}

fn prepare_tenant(index: usize, name: &str) -> Result<Tenant, String> {
    let app = paraprox_apps::find(name).ok_or_else(|| format!("unknown app {name}"))?;
    let workload = common::build_traced(&app, 0);
    let setup_profile = profile(SETUP_PARALLELISM);
    let compiled = common::compile_traced(&workload, &latency_table_for(&setup_profile))
        .map_err(|e| format!("{name}: compile: {e}"))?;
    let mut timed = Timed::new(
        DeviceApp::new(
            Device::new(setup_profile),
            &compiled,
            app.input_gen(Scale::Paper),
        ),
        index as u64,
    );
    let statics = timed.static_quality().to_vec();
    let report = {
        let _span = trace::span("runtime.tune");
        Tuner {
            toq: Toq::paper_default(),
            training_seeds: TRAINING_SEEDS.to_vec(),
        }
        .tune_with_static(&mut timed, &statics)
        .map_err(|e| format!("{name}: tune: {e}"))?
    };
    common::count_tune(&report);
    Ok(Tenant {
        app,
        compiled,
        report,
    })
}

fn start_engine(tenants: &[Tenant], mode: Mode, base: u64) -> Engine {
    let _span = trace::span("serve.engine_start");
    let mut builder = Engine::builder(config(mode));
    for (i, t) in tenants.iter().enumerate() {
        let app = DeviceApp::new(
            Device::new(profile(ENGINE_PARALLELISM)),
            &t.compiled,
            input_gen(mode, &t.app, base),
        );
        builder.register(
            t.app.spec.name,
            Box::new(Timed::new(app, i as u64)),
            &t.report,
        );
    }
    builder.start()
}

/// One served (or refused) request.
#[derive(Debug, Clone)]
struct Rec {
    tenant: usize,
    seq: u64,
    seed: u64,
    ok: bool,
    variant: Option<usize>,
    cycles: u64,
    checked_bits: Option<u64>,
    backed_off: bool,
    promoted: bool,
    output_hash: u64,
    /// Full output, kept only for the oracle sample.
    output: Option<Vec<f64>>,
    queue_ns: u64,
    service_ns: u64,
    /// Send time (closed loop) or due time (open loop) from the start.
    sent_ns: u64,
    latency_ns: u64,
    lateness_ns: u64,
}

impl Rec {
    fn from_response(
        r: Response,
        keep_output: bool,
        sent_ns: u64,
        latency_ns: u64,
        lateness_ns: u64,
    ) -> Rec {
        Rec {
            tenant: r.tenant,
            seq: r.seq,
            seed: r.seed,
            ok: r.error.is_none(),
            variant: r.variant,
            cycles: r.cycles,
            checked_bits: r.checked_quality.map(f64::to_bits),
            backed_off: r.backed_off,
            promoted: r.promoted,
            // Only the replayed prefix is compared; hashing every output
            // would take host time from the engine it measures.
            output_hash: if r.seq < REPLAY_PREFIX {
                common::output_hash(&r.output)
            } else {
                0
            },
            output: keep_output.then_some(r.output),
            queue_ns: r.queue_nanos,
            service_ns: r.service_nanos,
            sent_ns,
            latency_ns,
            lateness_ns,
        }
    }

    /// The decision-relevant part, compared across runs and replays.
    fn decision(&self) -> (u64, Option<usize>, u64, Option<u64>, bool, bool, u64) {
        (
            self.seq,
            self.variant,
            self.cycles,
            self.checked_bits,
            self.backed_off,
            self.promoted,
            self.output_hash,
        )
    }
}

struct ServeRun {
    recs: Vec<Rec>,
    /// How long requests were sent for, nanoseconds.
    send_span_ns: u64,
    tally: Tally,
    wall_s: f64,
    retries: u64,
    snapshot: EngineSnapshot,
}

/// Oracle sample: `ORACLE_SAMPLES` sequence numbers per tenant below
/// [`REPLAY_PREFIX`], drawn from the run's seed.
fn oracle_sample(seed: u64) -> Vec<Vec<u64>> {
    let mut state = seed ^ 0x05EE_D0F0_AC1E;
    (0..TENANTS.len())
        .map(|_| {
            (0..ORACLE_SAMPLES)
                .map(|_| paraprox_prng::splitmix64(&mut state) % REPLAY_PREFIX)
                .collect()
        })
        .collect()
}

fn closed_loop(
    engine: Engine,
    base: u64,
    seconds: f64,
    sample: &[Vec<u64>],
) -> Result<ServeRun, String> {
    // Next sequence number per tenant. A seed is taken and submitted under
    // the lock, so each tenant's sequence numbers follow its seeds.
    let next = Mutex::new(vec![0u64; TENANTS.len()]);
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let per_client: Vec<Result<(Vec<Rec>, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLOSED_CLIENTS)
            .map(|c| {
                let (next, engine) = (&next, &engine);
                s.spawn(move || -> Result<(Vec<Rec>, u64), String> {
                    let tenant = c % TENANTS.len();
                    let mut recs = Vec::new();
                    let mut retries = 0u64;
                    loop {
                        let (ticket, seed, sent) = {
                            let mut next = next.lock().expect("client lock poisoned");
                            if started.elapsed() >= deadline && next[tenant] >= CLOSED_SIM_PREFIX {
                                break;
                            }
                            let seed = base + next[tenant];
                            next[tenant] += 1;
                            let _span = trace::span_req(
                                "serve.submit",
                                Some(request_id(tenant as u64, seed)),
                            );
                            let sent = Instant::now();
                            loop {
                                match engine.submit(tenant, seed) {
                                    Ok(t) => break (t, seed, sent),
                                    Err(SubmitError::QueueFull { .. }) => {
                                        retries += 1;
                                        std::thread::yield_now();
                                    }
                                    Err(e) => return Err(format!("submit: {e}")),
                                }
                            }
                        };
                        let response = {
                            let _span = trace::span_req(
                                "serve.wait",
                                Some(request_id(tenant as u64, seed)),
                            );
                            ticket.wait().map_err(|e| format!("wait: {e}"))?
                        };
                        let latency = sent.elapsed().as_nanos() as u64;
                        let sent_ns = sent.duration_since(started).as_nanos() as u64;
                        let keep = sample[response.tenant].contains(&response.seq);
                        recs.push(Rec::from_response(response, keep, sent_ns, latency, 0));
                    }
                    Ok((recs, retries))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_string()))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let snapshot = engine.shutdown();
    let mut run = ServeRun {
        recs: Vec::new(),
        send_span_ns: 0,
        tally: Tally::default(),
        wall_s,
        retries: 0,
        snapshot,
    };
    for client in per_client {
        let (recs, retries) = client?;
        run.recs.extend(recs);
        run.retries += retries;
    }
    // Only the time before the deadline is measured: past it, the fast
    // tenants' clients stop and the slowest tenant finishes its prefix
    // alone, which is a different load.
    run.send_span_ns = deadline.as_nanos() as u64;
    for r in &run.recs {
        if r.ok {
            run.tally.ok(r.latency_ns <= LATENCY_LIMIT_NS);
        } else {
            run.tally.error();
        }
    }
    Ok(run)
}

/// Poisson arrival offsets (ns) within `seconds`, from a seeded stream.
fn arrivals(seed: u64, seconds: f64) -> Vec<u64> {
    let mut state = seed ^ 0xA771_7A15;
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        let bits = paraprox_prng::splitmix64(&mut state);
        let u = ((bits >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        at += -u.ln() / DRIFT_RATE_RPS * 1e9;
        if at >= seconds * 1e9 {
            return out;
        }
        out.push(at as u64);
    }
}

fn open_loop(
    engine: Engine,
    base: u64,
    seed: u64,
    seconds: f64,
    sample: &[Vec<u64>],
) -> Result<ServeRun, String> {
    let schedule = arrivals(seed, seconds);
    let tenants = TENANTS.len() as u64;
    // (ticket, request seed, due, submitted), times from the start.
    let (tx, rx) = mpsc::channel::<(paraprox_serve::Ticket, u64, u64, u64)>();
    let started = Instant::now();
    let mut tally = Tally::default();
    let collected = std::thread::scope(|s| {
        let collector = s.spawn(move || -> Result<Vec<Rec>, String> {
            let mut recs = Vec::new();
            for (ticket, seed, due, submitted) in rx {
                let response = {
                    let _span =
                        trace::span_req("serve.wait", Some(request_id(ticket.tenant as u64, seed)));
                    ticket.wait().map_err(|e| format!("wait: {e}"))?
                };
                let lateness = submitted.saturating_sub(due);
                let latency = stats::due_latency_ns(
                    due,
                    submitted,
                    response.queue_nanos,
                    response.service_nanos,
                );
                let keep = sample[response.tenant].contains(&response.seq);
                recs.push(Rec::from_response(response, keep, due, latency, lateness));
            }
            Ok(recs)
        });
        let mut result = Ok(());
        for (i, &due) in schedule.iter().enumerate() {
            let now = started.elapsed().as_nanos() as u64;
            if due > now {
                let _span = trace::span("serve.gen_sleep");
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let (tenant, req_seed) = ((i as u64 % tenants) as usize, base + i as u64 / tenants);
            let _span = trace::span_req("serve.submit", Some(request_id(tenant as u64, req_seed)));
            let submitted = started.elapsed().as_nanos() as u64;
            match engine.submit(tenant, req_seed) {
                Ok(ticket) => {
                    if tx.send((ticket, req_seed, due, submitted)).is_err() {
                        result = Err("collector stopped".to_string());
                        break;
                    }
                }
                Err(SubmitError::QueueFull { .. }) => tally.drop_one(),
                Err(e) => {
                    result = Err(format!("submit: {e}"));
                    break;
                }
            }
        }
        drop(tx);
        let recs = collector
            .join()
            .unwrap_or_else(|_| Err("collector panicked".to_string()));
        result.and(recs)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let snapshot = engine.shutdown();
    let recs = collected?;
    for r in &recs {
        if r.ok {
            tally.ok(r.latency_ns <= LATENCY_LIMIT_NS);
        } else {
            tally.error();
        }
    }
    Ok(ServeRun {
        recs,
        send_span_ns: (seconds * 1e9) as u64,
        tally,
        wall_s,
        retries: 0,
        snapshot,
    })
}

/// Records of one tenant's first [`REPLAY_PREFIX`] requests, in sequence order.
fn prefix(recs: &[Rec], tenant: usize) -> Vec<&Rec> {
    let mut v: Vec<&Rec> = recs
        .iter()
        .filter(|r| r.tenant == tenant && r.seq < REPLAY_PREFIX)
        .collect();
    v.sort_by_key(|r| r.seq);
    v
}

/// The engine's decisions must equal a one-request-at-a-time replay
/// through a fresh `Deployment` (batching, sharding and stealing may not
/// change them), and the oracle sample must match the tree-walking
/// interpreter bit for bit.
fn check_serving(
    tenants: &[Tenant],
    mode: Mode,
    base: u64,
    run: &ServeRun,
    failures: &mut Vec<String>,
) {
    let cfg = config(mode);
    for (ti, t) in tenants.iter().enumerate() {
        let name = t.app.spec.name;
        let served = prefix(&run.recs, ti);
        let mut deployment = Deployment::with_config(
            &t.report,
            DeploymentConfig {
                toq: cfg.toq,
                check_every: cfg.check_every,
                promote_after: cfg.promote_after,
            },
        );
        let mut fast = DeviceApp::new(
            Device::new(profile(SETUP_PARALLELISM)),
            &t.compiled,
            input_gen(mode, &t.app, base),
        );
        let mut oracle = DeviceApp::new(
            Device::new(profile(SETUP_PARALLELISM).with_engine(ExecEngine::TreeWalk)),
            &t.compiled,
            input_gen(mode, &t.app, base),
        );
        for (k, r) in served.iter().enumerate() {
            if r.seq != k as u64 || !r.ok {
                failures.push(format!(
                    "{name}: request {k} missing or failed in the served prefix"
                ));
                break;
            }
            let replay = match deployment.invoke(&mut fast, r.seed) {
                Ok(x) => x,
                Err(e) => {
                    failures.push(format!("{name}: replay of seq {k}: {e}"));
                    break;
                }
            };
            let expect = (
                r.seq,
                replay.variant,
                replay.cycles,
                replay.checked_quality.map(f64::to_bits),
                replay.backed_off,
                replay.promoted,
                common::output_hash(&replay.output),
            );
            if r.decision() != expect {
                failures.push(format!(
                    "{name}: seq {k} served {:?}, sequential replay gives {expect:?}",
                    r.decision()
                ));
                break;
            }
            if let Some(output) = &r.output {
                use paraprox_runtime::Approximable;
                let reference = match r.variant {
                    Some(v) => oracle.run_variant(v, r.seed),
                    None => oracle.run_exact(r.seed),
                };
                match reference {
                    Ok(o) if common::same_bits(&o.output, output) && o.cycles == r.cycles => {}
                    Ok(_) => failures.push(format!(
                        "{name}: seq {k} differs from the tree-walking oracle"
                    )),
                    Err(e) => failures.push(format!("{name}: oracle run of seq {k}: {e}")),
                }
            }
        }
        if (served.len() as u64) < REPLAY_PREFIX {
            failures.push(format!(
                "{name}: only {} of the first {REPLAY_PREFIX} requests were served",
                served.len()
            ));
        }
    }
}

/// Simulated speedup of the served prefix over exact execution (the
/// tuner's exact cycles per request) and the share of its checks that
/// met the TOQ. Both follow from the decision trace alone.
fn deterministic_metrics(tenants: &[Tenant], run: &ServeRun, mode: Mode) -> (f64, f64, u64) {
    let toq = Toq::paper_default();
    // Integer sums, so the result does not depend on record order.
    let (mut requests, mut served, mut checks, mut met) =
        (vec![0u64; tenants.len()], 0u64, 0u64, 0u64);
    let in_scope = |r: &Rec| mode == Mode::Drift || r.seq < CLOSED_SIM_PREFIX;
    for r in run.recs.iter().filter(|r| r.ok && in_scope(r)) {
        requests[r.tenant] += 1;
        served += r.cycles;
        if let Some(bits) = r.checked_bits {
            checks += 1;
            met += u64::from(toq.is_met(f64::from_bits(bits)));
        }
    }
    let exact: f64 = tenants
        .iter()
        .zip(&requests)
        .map(|(t, &n)| t.report.exact_cycles * n as f64)
        .sum();
    let speedup = if served > 0 {
        exact / served as f64
    } else {
        0.0
    };
    // No check at all means nothing fell below the TOQ.
    let met_frac = if checks == 0 {
        1.0
    } else {
        stats::ratio(met, checks)
    };
    (speedup, met_frac, checks)
}

/// Engine service time summed once per executed chunk: requests fused
/// into one chunk report the chunk's time, and are consecutive in their
/// tenant's sequence.
fn chunk_service_s(recs: &[Rec]) -> f64 {
    let mut total = 0u64;
    for t in 0..TENANTS.len() {
        let mut mine: Vec<&Rec> = recs.iter().filter(|r| r.tenant == t).collect();
        mine.sort_by_key(|r| r.seq);
        let mut prev: Option<u64> = None;
        for r in mine {
            if prev != Some(r.service_ns) {
                total += r.service_ns;
            }
            prev = Some(r.service_ns);
        }
    }
    total as f64 / 1e9
}

fn serve_layers(
    run: &ServeRun,
    spans: &[trace::Span],
    layers: &mut std::collections::BTreeMap<&'static str, f64>,
) {
    let ms = |v: Vec<f64>, p: f64| {
        let mut v = v;
        v.sort_by(f64::total_cmp);
        stats::percentile(&v, p) / 1e6
    };
    let queue: Vec<f64> = run.recs.iter().map(|r| r.queue_ns as f64).collect();
    let service: Vec<f64> = run.recs.iter().map(|r| r.service_ns as f64).collect();
    let lateness: Vec<f64> = run.recs.iter().map(|r| r.lateness_ns as f64).collect();
    layers.insert("serve.queue_wait_p50_ms", ms(queue.clone(), 50.0));
    layers.insert("serve.queue_wait_p99_ms", ms(queue, 99.0));
    layers.insert("serve.service_p50_ms", ms(service.clone(), 50.0));
    layers.insert("serve.service_p99_ms", ms(service, 99.0));
    layers.insert("serve.gen_lateness_p99_ms", ms(lateness, 99.0));
    let batches: u64 = run.snapshot.tenants.iter().map(|t| t.batches).sum();
    let served: u64 = run.snapshot.tenants.iter().map(|t| t.served).sum();
    layers.insert("serve.batches", batches as f64);
    layers.insert("serve.mean_batch", stats::ratio(served, batches));
    layers.insert("serve.steals", run.snapshot.steals as f64);
    layers.insert("serve.admission_retries", run.retries as f64);
    // Time inside the wrapped application calls made by engine workers:
    // spans with no open parent on their thread hang off the phase.
    let app_s: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("vgpu.") || s.name == "quality.metric")
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "measure"))
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    layers.insert(
        "serve.dispatch_self_s",
        (chunk_service_s(&run.recs) - app_s).max(0.0),
    );
    let checks: Vec<f64> = run
        .recs
        .iter()
        .filter(|r| r.checked_bits.is_some())
        .map(|r| r.service_ns as f64 / 1e6)
        .collect();
    layers.insert("runtime.checks", checks.len() as f64);
    layers.insert("runtime.check_service_ms", stats::median(&checks));
    layers.insert(
        "runtime.backoffs",
        run.recs.iter().filter(|r| r.backed_off).count() as f64,
    );
    layers.insert(
        "runtime.promotions",
        run.recs.iter().filter(|r| r.promoted).count() as f64,
    );
}

/// Run one of the serving workloads.
pub fn run(cfg: &Cfg, mode: Mode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let base = seed_base(cfg.seed);
    let sample = oracle_sample(cfg.seed);
    let ((tenants, engine), setup) = common::setup(
        cfg,
        || {
            let tenants = TENANTS
                .iter()
                .enumerate()
                .map(|(i, name)| prepare_tenant(i, name))
                .collect::<Result<Vec<_>, _>>()?;
            let engine = start_engine(&tenants, mode, base);
            Ok((tenants, engine))
        },
        |(tenants, _)| {
            tenants
                .iter()
                .map(|t| {
                    let speedups: Vec<u64> = t
                        .report
                        .profiles
                        .iter()
                        .map(|p| p.speedup.to_bits())
                        .collect();
                    format!("{}:{:?}:{speedups:?}", t.app.spec.name, t.report.chosen)
                })
                .collect::<Vec<_>>()
                .join(";")
        },
        &mut out.failures,
    )?;

    let mut first_engine = Some(engine);
    let (untraced, traced) = common::measure(cfg, |seconds| {
        let engine = first_engine
            .take()
            .unwrap_or_else(|| start_engine(&tenants, mode, base));
        match mode {
            Mode::Closed => closed_loop(engine, base, seconds, &sample),
            Mode::Drift => open_loop(engine, base, cfg.seed, seconds, &sample),
        }
    })?;

    check_serving(&tenants, mode, base, &untraced, &mut out.failures);
    let (sim_speedup, toq_met_frac, checks) = deterministic_metrics(&tenants, &untraced, mode);
    if let Some(traced) = &traced {
        check_serving(&tenants, mode, base, traced, &mut out.failures);
        if deterministic_metrics(&tenants, traced, mode) != (sim_speedup, toq_met_frac, checks) {
            out.failures.push(
                "simulated speedup or check outcomes differ between the two halves of the run"
                    .to_string(),
            );
        }
    }

    let samples: Vec<(u64, f64)> = untraced
        .recs
        .iter()
        .filter(|r| r.ok)
        .map(|r| (r.sent_ns, r.latency_ns as f64 / 1e6))
        .collect();
    let windowed = stats::windowed(&samples, untraced.send_span_ns, WINDOW_NS);
    let backoffs = untraced.recs.iter().filter(|r| r.backed_off).count();
    out.notes.push(format!(
        "{}: {} requests in {:.3} s, {checks} checks ({:.4} met TOQ), {backoffs} back-offs, tenants {:?}",
        match mode {
            Mode::Closed => "serve_closed",
            Mode::Drift => "serve_drift",
        },
        untraced.recs.len(),
        untraced.wall_s,
        toq_met_frac,
        untraced
            .snapshot
            .tenants
            .iter()
            .map(|t| format!("{}@{} ({} served)", t.name, t.rung, t.served))
            .collect::<Vec<_>>()
    ));
    out.notes.push(format!(
        "throughput and latency: medians over {} windows of {} s; whole run {:.3} req/s",
        windowed.windows,
        WINDOW_NS / 1_000_000_000,
        untraced.recs.len() as f64 / untraced.wall_s
    ));
    out.tally = untraced.tally;
    out.e2e = Some(EndToEnd {
        setup_s: setup.median_s(),
        ops_per_s: windowed.ops_per_s,
        latency_ms: windowed.latency,
        goodput_frac: untraced.tally.goodput_frac(),
        toq_met_frac,
        sim_speedup,
    });

    if let Some(traced) = traced {
        let (spans, counters) = trace::take();
        out.layers = common::layer_metrics(&spans, &counters);
        serve_layers(&traced, &spans, &mut out.layers);
        // Closed loop: completed work per second. Open loop (fixed
        // offered rate): mean engine service time per request.
        let overhead = match mode {
            Mode::Closed => {
                let rate = |r: &ServeRun| {
                    let samples: Vec<(u64, f64)> =
                        r.recs.iter().map(|x| (x.sent_ns, 0.0)).collect();
                    stats::windowed(&samples, r.send_span_ns, WINDOW_NS).ops_per_s
                };
                rate(&untraced) / rate(&traced) - 1.0
            }
            Mode::Drift => {
                let mean = |r: &ServeRun| {
                    r.recs.iter().map(|x| x.service_ns as f64).sum::<f64>()
                        / r.recs.len().max(1) as f64
                };
                mean(&traced) / mean(&untraced) - 1.0
            }
        };
        out.layers.insert("trace_overhead_frac", overhead);
        out.tally.merge(&traced.tally);
        out.spans = spans;
    }
    Ok(out)
}
