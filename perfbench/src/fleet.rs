//! `fleet-churn`: a self-hosted durable `Server` over loopback — two
//! shards, a store directory, the default learner (Ml=100) — whose
//! per-shard memory budget holds only a fraction of the sessions. One
//! closed-loop connection steps sessions drawn from a seeded Zipf
//! distribution, so LRU misses put checkpoint + store append + fdatasync +
//! restore on the request path.
//!
//! Each request is timed on the wall clock and on the process CPU clock.
//! The run is cut into windows of [`WINDOW_REQUESTS`] requests, and windows
//! in which the hypervisor stole more than [`STEAL_MAX`] of the host's CPU
//! time are left out of every per-request figure (the cleanest half is
//! always kept). The median latency is a wall-clock figure: a hit finishes
//! within one tick of the server's engine poll even while the host is
//! stolen from, so it stays steady, and the waits on a hit's path count.
//! The tail and the rates are taken on the process CPU clock, because in a
//! steal episode that outlasts the run their wall-clock values swing by up
//! to 2x; the wall-clock values are reported beside them. Waits on a
//! miss's path — the fdatasync above all — are therefore outside every
//! gated figure; `serve.wait_us` in the traced run shows them.
//!
//! One serial connection keeps one request in flight. It also gives each
//! shard one seed-determined command sequence, which makes the server's
//! eviction points reproducible: the output check derives them from a model
//! of the shard's LRU budget (and checks the model's eviction and restore
//! counts against the server's), replays sampled sessions in-process
//! through `UserSession` with those evictions, and compares their
//! `CHAMFLT1` bytes with the served ones.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use chameleon_balance::{ShapeKind, TrafficShape};
use chameleon_core::{ChameleonConfig, StepTrace};
use chameleon_fleet::{FleetConfig, FleetEngine, SessionCheckpoint, UserSession};
use chameleon_obs::{Observation, Stage};
use chameleon_runtime::SimRng;
use chameleon_serve::wire::{Request, Response};
use chameleon_serve::{Connection, ServeConfig, Server};
use chameleon_stream::{DatasetSpec, DomainIlScenario};

use crate::cpuclock::{process_cpu_ns, steal_s};
use crate::gen::{derive, shuffle, DATASET_SEED};
use crate::probes::{self, STORE_PROBES};
use crate::report::{Outcome, J};
use crate::served::{self, err, session_spec, ScratchDir};
use crate::stats::{median, tail};

/// Sessions hosted (split over the shards by the fleet's seeded hash).
const SESSIONS: u64 = 96;
/// Sessions each shard's memory budget holds resident.
const RESIDENT_PER_SHARD: u64 = 16;
/// Zipf exponent of the session draws.
const ZIPF_S: f64 = 1.0;
/// Batches each Step request asks for.
const SLICE: u32 = 1;
/// Measured requests per second of `--seconds`. The run does this fixed,
/// seeded amount of work (sized to well under `--seconds` on a 2-core
/// host) and times it, so its final state — and every count and accuracy
/// derived from it — is the same on every run of a seed.
const REQUESTS_PER_S: f64 = 450.0;
/// Requests per steal window.
const WINDOW_REQUESTS: usize = 100;
/// Share of the host's CPU time stolen above which a window is left out
/// of the per-request figures. A window lasts well under a second, so one
/// steal tick of `/proc/stat` already exceeds it.
const STEAL_MAX: f64 = 0.02;
/// Untimed requests during set-up.
const WARMUP_REQUESTS: usize = 100;
/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 3;
/// Request latency limit (wall clock) for the goodput figure.
const SLO_MS: f64 = 25.0;
/// Sessions whose bytes are compared with the in-process replay.
const CHECK_SAMPLE: usize = 4;

/// One measured request that delivered a batch.
struct Sample {
    window: usize,
    wall_ns: f64,
    /// Process CPU time elapsed while the request was out.
    cpu_ns: f64,
    delivered: u32,
}

/// One window of the measured run.
struct Window {
    wall_s: f64,
    /// Process CPU time over the window.
    cpu_s: f64,
    /// Steal over the window, as a share of the host's CPU time.
    steal: f64,
}

/// The closed-loop client connection and everything it recorded.
struct Driver {
    conn: Connection,
    /// Every session, hottest first.
    ranked: Vec<u64>,
    draws: TrafficShape,
    done: HashSet<u64>,
    /// Every Step served, in order.
    log: Vec<u64>,
    delivered: u64,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    short_deliveries: u64,
    errors: Vec<String>,
}

impl Driver {
    /// Sends one Step; `window` puts it in the measured run. Returns false
    /// once no live session is left or a request failed or was refused.
    fn step(&mut self, window: Option<usize>) -> bool {
        let live = self.ranked.len() - self.done.len();
        if live == 0 {
            return false;
        }
        let session = loop {
            let s = self.ranked[self.draws.next_session()];
            if !self.done.contains(&s) {
                break s;
            }
        };
        let (t, cpu) = (Instant::now(), process_cpu_ns());
        // No retry: a `RetryAfter` is a refused request, not a slow one.
        let result = self.conn.request_once(&Request::Step {
            session,
            batches: SLICE,
        });
        let cpu_ns = (process_cpu_ns() - cpu) as f64;
        let wall_ns = t.elapsed().as_nanos() as f64;
        self.attempted += u64::from(window.is_some());
        match result {
            Ok(Response::Stepped { delivered, done }) => {
                self.log.push(session);
                self.delivered += u64::from(delivered);
                if done {
                    self.done.insert(session);
                }
                // Only the step that finds the stream exhausted may deliver
                // less than asked; it is not counted as served work.
                if delivered != SLICE && !done {
                    self.short_deliveries += 1;
                }
                if let (Some(window), true) = (window, delivered > 0) {
                    self.samples.push(Sample {
                        window,
                        wall_ns,
                        cpu_ns,
                        delivered,
                    });
                }
                true
            }
            other => {
                self.failed += u64::from(window.is_some());
                let what = match other {
                    Ok(response) => format!("{response:?}"),
                    Err(e) => e.to_string(),
                };
                self.errors.push(format!("step {session}: {what}"));
                false
            }
        }
    }
}

struct Rig {
    server: Server,
    driver: Driver,
    _dir: ScratchDir,
}

/// Every session ranked for the Zipf draws: shuffled by the seed within
/// each shard, with the shards taking alternate ranks so that both carry
/// a like share of the skew whatever the seed.
fn rank_sessions(seed: u64, placement: &FleetEngine, shards: usize) -> Vec<u64> {
    let mut rng = SimRng::new(derive(seed, 0xF1EE));
    let mut per_shard: Vec<Vec<u64>> = (0..shards)
        .map(|shard| {
            let mut ids: Vec<u64> = (0..SESSIONS)
                .filter(|&id| placement.home_shard(id) == shard)
                .collect();
            shuffle(&mut rng, &mut ids);
            ids
        })
        .collect();
    let mut ranked = Vec::new();
    while ranked.len() < SESSIONS as usize {
        for ids in &mut per_shard {
            ranked.extend(ids.pop());
        }
    }
    ranked
}

fn start_rig(
    seed: u64,
    scenario: &Arc<DomainIlScenario>,
    config: &FleetConfig,
    ranked: Vec<u64>,
) -> Result<Rig, String> {
    let dir = ScratchDir::new("fleet-churn")?;
    let server = Server::start(
        Arc::clone(scenario),
        config.clone(),
        ServeConfig {
            store_dir: Some(dir.path().to_path_buf()),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("start server: {e}"))?;
    let addr = server.local_addr();
    let mut ctl = served::connect(addr)?;
    for id in 0..SESSIONS {
        ctl.create_session(id, session_spec(seed, id))
            .map_err(err)?;
    }
    let mut driver = Driver {
        conn: served::connect(addr)?,
        draws: TrafficShape::new(
            ShapeKind::Zipf { exponent: ZIPF_S },
            ranked.len(),
            derive(seed, 0xD4A5),
        ),
        ranked,
        done: HashSet::new(),
        log: Vec::new(),
        delivered: 0,
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        short_deliveries: 0,
        errors: Vec::new(),
    };
    while driver.log.len() < WARMUP_REQUESTS && driver.step(None) {}
    Ok(Rig {
        server,
        driver,
        _dir: dir,
    })
}

/// Mean span duration of `stage` between two snapshots of the server, in
/// microseconds (0 when no span ran).
fn stage_mean_us(before: &Observation, after: &Observation, stage: Stage) -> f64 {
    let get = |o: &Observation| o.stage(stage).map_or((0, 0), |s| (s.count, s.total_nanos));
    let ((c0, n0), (c1, n1)) = (get(before), get(after));
    if c1 == c0 {
        0.0
    } else {
        (n1 - n0) as f64 / (c1 - c0) as f64 / 1e3
    }
}

/// Records the learners' per-batch operation and traffic counts from the
/// server's merged `StepTrace` growth over `batches` stream batches.
fn trace_layers(o: &mut Outcome, before: &StepTrace, after: &StepTrace, batches: u64) {
    let per = |a: u64, b: u64| b.saturating_sub(a) as f64 / batches.max(1) as f64;
    o.layer(
        "core.head_rows_per_batch",
        "rows",
        per(before.head_fwd_passes, after.head_fwd_passes),
    );
    o.layer(
        "core.onchip_reads_per_batch",
        "samples",
        per(before.onchip_sample_reads, after.onchip_sample_reads),
    );
    o.layer(
        "core.offchip_reads_per_batch",
        "samples",
        per(before.offchip_latent_reads, after.offchip_latent_reads),
    );
    o.layer(
        "core.offchip_writes_per_batch",
        "samples",
        per(before.offchip_latent_writes, after.offchip_latent_writes),
    );
}

fn counter_delta(before: &Observation, after: &Observation, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// What happens to one session in a shard's command sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Event {
    Step,
    Evicted,
}

/// The shard's LRU budget as a model: every session has the same nominal
/// footprint, so the budget holds exactly `capacity` residents, and a touch
/// of a cold session restores it and evicts the least recently used other.
#[derive(Default)]
struct LruModel {
    /// Each session's events, in order (creation is implicit).
    events: std::collections::HashMap<u64, Vec<Event>>,
    /// Evictions and restores caused by `steps[measured_from..]`.
    evictions: u64,
    restores: u64,
}

impl LruModel {
    fn run(creates: &[u64], steps: &[u64], capacity: usize, measured_from: usize) -> Self {
        let mut m = Self::default();
        // Least recently used first.
        let mut resident: Vec<u64> = Vec::new();
        let admit = |m: &mut Self, resident: &mut Vec<u64>, id: u64, counted: bool| {
            resident.push(id);
            while resident.len() > capacity {
                let victim = resident.remove(0);
                m.events.entry(victim).or_default().push(Event::Evicted);
                m.evictions += u64::from(counted);
            }
        };
        for &id in creates {
            admit(&mut m, &mut resident, id, false);
        }
        for (i, &id) in steps.iter().enumerate() {
            let counted = i >= measured_from;
            match resident.iter().position(|&r| r == id) {
                Some(pos) => {
                    resident.remove(pos);
                    resident.push(id);
                }
                None => {
                    m.restores += u64::from(counted);
                    admit(&mut m, &mut resident, id, counted);
                }
            }
            m.events.entry(id).or_default().push(Event::Step);
        }
        m
    }
}

/// The session replayed in-process through `UserSession`, evicted (a
/// `CHAMFLT1` round trip) wherever the LRU model says the shard evicted
/// it; returns the bytes the server should hold for it now.
fn replay_blob(
    seed: u64,
    scenario: &Arc<DomainIlScenario>,
    id: u64,
    events: &[Event],
) -> Result<Vec<u8>, String> {
    let mut session = UserSession::new(id, session_spec(seed, id), Arc::clone(scenario), None);
    let mut cold: Option<Vec<u8>> = None;
    for event in events {
        match event {
            Event::Evicted => cold = Some(SessionCheckpoint::capture(&session).to_bytes()),
            Event::Step => {
                if let Some(blob) = cold.take() {
                    session = SessionCheckpoint::from_bytes(&blob)
                        .and_then(|c| c.restore(Arc::clone(scenario), None))
                        .map_err(|e| format!("replay restore of session {id}: {e:?}"))?;
                }
                session.step_batches(SLICE as usize);
            }
        }
    }
    Ok(cold.unwrap_or_else(|| SessionCheckpoint::capture(&session).to_bytes()))
}

/// The windows whose requests count towards the wall-clock figures: every
/// window with at most [`STEAL_MAX`] steal, and never fewer than the
/// cleanest half.
fn kept_windows(windows: &[Window]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| windows[a].steal.total_cmp(&windows[b].steal));
    let clean = windows.iter().filter(|w| w.steal <= STEAL_MAX).count();
    let mut kept = vec![false; windows.len()];
    for &i in &order[..clean.max(windows.len().div_ceil(2))] {
        kept[i] = true;
    }
    kept
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let spec = DatasetSpec::core50();
    let mut setup_s = Vec::new();
    let mut rig = None;
    let mut config = FleetConfig::default();
    let mut scenario = None;
    let mut placement = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous rig first: one server (and store) at a time.
        drop(rig.take());
        let cpu = process_cpu_ns();
        let sc = Arc::new(DomainIlScenario::generate(&spec, DATASET_SEED));
        let per_session =
            UserSession::new(0, session_spec(seed, 0), Arc::clone(&sc), None).resident_bytes();
        config = FleetConfig {
            budget_bytes: RESIDENT_PER_SHARD * per_session,
            ..FleetConfig::default()
        };
        let engine = FleetEngine::new_sim(Arc::clone(&sc), config.clone(), 0);
        let ranked = rank_sessions(seed, &engine, config.num_shards);
        rig = Some(start_rig(seed, &sc, &config, ranked)?);
        setup_s.push((process_cpu_ns() - cpu) as f64 / 1e9);
        scenario = Some(sc);
        placement = Some(engine);
    }
    let (mut rig, scenario, placement) = (
        rig.expect("set up"),
        scenario.expect("set up"),
        placement.expect("set up"),
    );

    // Control requests use fresh connections: an idle one could be reaped
    // by the server's idle timeout while the load runs.
    let addr = rig.server.local_addr();
    let mut ctl = served::connect(addr)?;
    let stats0 = ctl.stats().map_err(err)?;
    let obs0 = ctl.observe().map_err(err)?;
    drop(ctl);
    let quota = (seconds * REQUESTS_PER_S).round() as u64;
    let ncpu = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let steal_readable = steal_s().is_some();
    let mut windows = Vec::new();
    let (start, cpu) = (Instant::now(), process_cpu_ns());
    let d = &mut rig.driver;
    let mut running = d.errors.is_empty();
    while running && d.attempted < quota {
        let end = (d.attempted + WINDOW_REQUESTS as u64).min(quota);
        let (t, cpu, stolen) = (Instant::now(), process_cpu_ns(), steal_s().unwrap_or(0.0));
        while d.attempted < end && running {
            running = d.step(Some(windows.len()));
        }
        let wall_s = t.elapsed().as_secs_f64();
        windows.push(Window {
            wall_s,
            cpu_s: (process_cpu_ns() - cpu) as f64 / 1e9,
            steal: (steal_s().unwrap_or(0.0) - stolen) / (wall_s * ncpu),
        });
    }
    let wall = start.elapsed().as_secs_f64();
    let cpu_s = (process_cpu_ns() - cpu) as f64 / 1e9;

    let mut o = Outcome::default();
    let d = &rig.driver;
    o.attempted = d.attempted;
    o.failed = d.failed;
    o.check("no failed or refused requests", d.errors.is_empty(), || {
        format!("{} failures, first: {}", d.errors.len(), d.errors[0])
    });
    if !d.errors.is_empty() {
        rig.server.shutdown();
        return Ok(o);
    }
    let mut ctl = served::connect(addr)?;
    let stats1 = ctl.stats().map_err(err)?;
    let obs1 = ctl.observe().map_err(err)?;
    o.check(
        "zero decode rejects",
        stats1.serve.decode_rejects == 0,
        || format!("{} server decode rejects", stats1.serve.decode_rejects),
    );
    o.check(
        "delivered batches equal scheduled batches",
        d.short_deliveries == 0 && stats1.batches == d.delivered,
        || {
            format!(
                "server counted {} batches, client {}; {} short steps",
                stats1.batches, d.delivered, d.short_deliveries
            )
        },
    );

    // Wire ≡ in-process: sampled sessions' bytes against a replay.
    let mut pick = SimRng::new(derive(seed, 0xC4EC));
    let stepped: Vec<u64> = {
        let mut s = d.log.clone();
        s.sort_unstable();
        s.dedup();
        s
    };
    let sample: Vec<u64> = (0..CHECK_SAMPLE)
        .map(|_| stepped[pick.below(stepped.len() as u64) as usize])
        .collect();
    let mut served_blobs = Vec::new();
    for &id in &sample {
        served_blobs.push(ctl.checkpoint(id).map_err(err)?);
    }
    let replay_start = Instant::now();
    // Each shard runs its own LRU over the sessions it hosts, in the order
    // the one connection sent their creates and steps.
    let models: Vec<LruModel> = (0..config.num_shards)
        .map(|shard| {
            let on = |id: &&u64| placement.home_shard(**id) == shard;
            let creates: Vec<u64> = (0..SESSIONS).filter(|id| on(&id)).collect();
            let steps: Vec<u64> = d.log.iter().filter(on).copied().collect();
            let warm = d.log[..WARMUP_REQUESTS].iter().filter(on).count();
            LruModel::run(&creates, &steps, RESIDENT_PER_SHARD as usize, warm)
        })
        .collect();
    let mut reference = Vec::new();
    for &id in &sample {
        let events = models
            .iter()
            .find_map(|m| m.events.get(&id))
            .map_or(&[][..], Vec::as_slice);
        reference.push(replay_blob(seed, &scenario, id, events)?);
    }
    let replay_s = replay_start.elapsed().as_secs_f64();
    let modeled = (
        models.iter().map(|m| m.evictions).sum::<u64>(),
        models.iter().map(|m| m.restores).sum::<u64>(),
    );
    let measured = (
        stats1.evictions - stats0.evictions,
        stats1.restores - stats0.restores,
    );
    o.check(
        "evictions and restores match the LRU budget model",
        modeled == measured,
        || format!("model (evictions, restores) {modeled:?}, server {measured:?}"),
    );
    o.check(
        "sampled sessions bit-identical to an in-process replay",
        served_blobs == reference,
        || {
            let diff: Vec<u64> = sample
                .iter()
                .zip(served_blobs.iter().zip(&reference))
                .filter(|(_, (a, b))| a != b)
                .map(|(id, _)| *id)
                .collect();
            format!("sessions {diff:?} differ")
        },
    );

    let mut accs = Vec::new();
    for id in 0..SESSIONS {
        accs.push(f64::from(ctl.predict(id).map_err(err)?.acc_all));
    }

    let kept = kept_windows(&windows);
    let kept_sum = |f: fn(&Window) -> f64| -> f64 {
        windows
            .iter()
            .zip(&kept)
            .filter(|(_, k)| **k)
            .map(|(w, _)| f(w))
            .sum()
    };
    let (kept_wall_s, kept_cpu_s) = (kept_sum(|w| w.wall_s), kept_sum(|w| w.cpu_s));
    let in_kept: Vec<&Sample> = d.samples.iter().filter(|s| kept[s.window]).collect();
    let wall_lat: Vec<f64> = in_kept.iter().map(|s| s.wall_ns).collect();
    let cpu_lat: Vec<f64> = in_kept.iter().map(|s| s.cpu_ns).collect();
    let kept_batches: u64 = in_kept.iter().map(|s| u64::from(s.delivered)).sum();
    let within_slo = wall_lat.iter().filter(|&&ns| ns <= SLO_MS * 1e6).count();
    let cpu_per_batch: Vec<f64> = in_kept
        .iter()
        .map(|s| s.cpu_ns / f64::from(s.delivered))
        .collect();
    let steps = d.attempted;
    let measured_batches = stats1.batches - stats0.batches;
    o.e2e("setup_s", "s", median(&setup_s).expect("set-ups ran").value);
    o.pct("step_p50_us", "us", median(&cpu_per_batch), 1e-3);
    o.pct("step_p99_us", "us", tail(&cpu_per_batch, 0.99), 1e-3);
    o.e2e("acc_all", "%", accs.iter().sum::<f64>() / accs.len() as f64);
    o.e2e("steps_per_s", "batches/s", kept_batches as f64 / kept_cpu_s);
    o.pct("req_p50_ms", "ms", median(&wall_lat), 1e-6);
    o.pct("req_p99_ms", "ms", tail(&cpu_lat, 0.99), 1e-6);
    o.e2e("max_rps_at_slo", "req/s", within_slo as f64 / kept_cpu_s);
    let wall_p = |p: Option<crate::stats::Pct>| J::Num(p.map_or(0.0, |p| p.value / 1e6));
    let steal: Vec<J> = windows.iter().map(|w| J::Num(w.steal)).collect();
    o.note(
        "windows",
        J::obj([
            ("steal_readable", J::Bool(steal_readable)),
            ("count", J::Int(windows.len() as u64)),
            ("kept", J::Int(kept.iter().filter(|k| **k).count() as u64)),
            ("kept_wall_s", J::Num(kept_wall_s)),
            ("kept_cpu_s", J::Num(kept_cpu_s)),
            ("steal_share", J::Arr(steal)),
            ("all_wall_s", J::Num(wall)),
            ("all_cpu_s", J::Num(cpu_s)),
            (
                "all_batches_per_wall_s",
                J::Num(measured_batches as f64 / wall),
            ),
        ]),
    );
    o.note(
        "wall_clock",
        J::obj([
            ("req_p99_ms", wall_p(tail(&wall_lat, 0.99))),
            ("batches_per_s", J::Num(kept_batches as f64 / kept_wall_s)),
            ("max_rps_at_slo", J::Num(within_slo as f64 / kept_wall_s)),
        ]),
    );
    o.note(
        "settings",
        J::obj([
            ("dataset", J::s(spec.name)),
            ("sessions", J::Int(SESSIONS)),
            ("shards", J::Int(config.num_shards as u64)),
            (
                "serve_workers",
                J::Int(ServeConfig::default().workers as u64),
            ),
            ("queue_depth", J::Int(config.queue_depth as u64)),
            ("budget_bytes_per_shard", J::Int(config.budget_bytes)),
            ("resident_sessions_per_shard", J::Int(RESIDENT_PER_SHARD)),
            ("zipf_s", J::Num(ZIPF_S)),
            ("step_batches", J::Int(u64::from(SLICE))),
            ("connections", J::Int(1)),
            ("loop", J::s("closed, one request in flight")),
            (
                "store",
                J::s("on (append + fdatasync before each eviction ack)"),
            ),
            ("warmup_requests", J::Int(WARMUP_REQUESTS as u64)),
            ("measured_requests", J::Int(quota)),
            ("window_requests", J::Int(WINDOW_REQUESTS as u64)),
            ("steal_max", J::Num(STEAL_MAX)),
            ("slo_ms", J::Num(SLO_MS)),
            ("setup_reps", J::Int(SETUP_REPS as u64)),
            ("replay_check_s", J::Num(replay_s)),
        ]),
    );
    o.note(
        "definitions",
        J::s(
            "every per-request figure is over the kept windows (windows with at most \
             steal_max of the host's CPU time stolen, and never fewer than the cleanest \
             half). req_p50_ms = median Step request latency on the wall clock, send to \
             reply; req_p99_ms = p99 of the process CPU time (client, server and store \
             threads together) elapsed while a request was out; step = that CPU time per \
             delivered batch; steps_per_s = batches delivered per process CPU second; \
             max_rps_at_slo = requests answered within slo_ms on the wall clock per process \
             CPU second (closed-loop goodput); setup_s = process CPU time of set-up; \
             acc_all = mean Acc_all over every session at the end. wall_clock holds the \
             wall-clock tail and rates, which steal episodes swing by up to 2x",
        ),
    );
    o.note(
        "check_sample",
        J::Arr(sample.iter().map(|&s| J::Int(s)).collect()),
    );

    if traced {
        let per_step = |n: u64| n as f64 / steps.max(1) as f64;
        let appends = counter_delta(&obs0, &obs1, "store.appends");
        trace_layers(&mut o, &stats0.trace, &stats1.trace, measured_batches);
        let hottest = ctl.checkpoint(d.ranked[0]).map_err(err)?;
        let (append_us, get_us) = probes::store_us(&hottest)?;
        o.layer(
            "fleet.step_us",
            "us",
            stage_mean_us(&obs0, &obs1, Stage::Step),
        );
        o.layer(
            "fleet.checkpoint_us",
            "us",
            stage_mean_us(&obs0, &obs1, Stage::Checkpoint),
        );
        o.layer(
            "fleet.restore_us",
            "us",
            stage_mean_us(&obs0, &obs1, Stage::Restore),
        );
        o.layer(
            "fleet.restores_per_step",
            "ratio",
            per_step(stats1.restores - stats0.restores),
        );
        o.layer(
            "fleet.evictions_per_step",
            "ratio",
            per_step(stats1.evictions - stats0.evictions),
        );
        o.layer(
            "store.fsyncs_per_step",
            "ratio",
            per_step(counter_delta(&obs0, &obs1, "store.fsyncs")),
        );
        o.layer("store.append_fsync_us", "us", append_us);
        o.layer("store.get_us", "us", get_us);
        o.layer(
            "store.bytes_per_evict",
            "bytes",
            counter_delta(&obs0, &obs1, "store.append_bytes") as f64 / appends.max(1) as f64,
        );
        o.layer(
            "serve.wait_us",
            "us",
            in_kept.iter().map(|s| s.wall_ns - s.cpu_ns).sum::<f64>()
                / in_kept.len().max(1) as f64
                / 1e3,
        );
        o.layer(
            "serve.backpressure_frac",
            "ratio",
            (stats1.serve.backpressure_replies - stats0.serve.backpressure_replies) as f64
                / (stats1.serve.frames_in - stats0.serve.frames_in).max(1) as f64,
        );
        o.note(
            "layer_notes",
            J::obj([
                (
                    "serve.wait_us",
                    J::s("mean wall minus process CPU time per request, kept windows"),
                ),
                (
                    "fleet.*_us",
                    J::s("server stage means over the measured window (Observation spans)"),
                ),
                (
                    "store.*_us",
                    J::s(format!(
                        "medians of {STORE_PROBES} calls on a scratch store, blob of {} B",
                        hottest.len()
                    )),
                ),
            ]),
        );
        probes::fill(&mut o, &scenario, &ChameleonConfig::default(), seed)?;
    }
    rig.server.shutdown();
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(steal: &[f64]) -> Vec<Window> {
        steal
            .iter()
            .map(|&steal| Window {
                wall_s: 1.0,
                cpu_s: 0.5,
                steal,
            })
            .collect()
    }

    #[test]
    fn stolen_windows_are_left_out() {
        let kept = kept_windows(&windows(&[0.0, 0.05, 0.01, 0.0, 0.3]));
        assert_eq!(kept, [true, false, true, true, false]);
    }

    #[test]
    fn the_cleanest_half_is_kept_however_much_is_stolen() {
        let kept = kept_windows(&windows(&[0.2, 0.05, 0.1, 0.3, 0.05]));
        assert_eq!(kept, [false, true, true, false, true]);
        assert_eq!(kept_windows(&windows(&[0.5])), [true]);
        assert!(kept_windows(&[]).is_empty());
    }
}
