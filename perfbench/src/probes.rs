//! Isolated per-layer probes. Each times calls into one layer's public
//! API on a small private fixture. A workload measures the layers it runs
//! in place; a traced run then fills every per-layer metric it could not
//! measure in place with the probe of that layer, so every per-layer time
//! is a measurement on every workload. Counts and ratios of a mechanism a
//! workload never enters (evictions on a workload without a budget, shadow
//! refreshes without a router) stay 0.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use chameleon_core::ChameleonConfig;
use chameleon_fleet::{FleetConfig, SessionCheckpoint, UserSession};
use chameleon_route::{Router, RouterConfig};
use chameleon_serve::wire::{decode_frame, encode_frame, Request, Response, MAX_PAYLOAD_BYTES};
use chameleon_serve::{ServeConfig, Server};
use chameleon_store::{SessionStore, StoreConfig};
use chameleon_stream::DomainIlScenario;

use crate::cpuclock::thread_cpu_ns;
use crate::edge;
use crate::report::{Outcome, J};
use crate::served::{self, err, session_spec, ScratchDir};
use crate::stats::median;

/// Appends and reads timed on a scratch store.
pub const STORE_PROBES: usize = 40;
/// Read-only round trips timed per session and endpoint.
const HOP_PROBES: usize = 25;
/// Batches the fixture session is stepped before it is probed.
const FIXTURE_BATCHES: usize = 200;
/// Calls timed per fixture operation.
const FIXTURE_CALLS: usize = 30;
/// Steps sent through the fixture router.
const ROUTE_STEPS: u64 = 20;

fn us(samples: &[f64]) -> f64 {
    median(samples).map_or(0.0, |p| p.value / 1e3)
}

/// Times `SessionStore::append` (seal + fdatasync) and `get` of `blob` on a
/// scratch store; microsecond medians (wall clock: the fsync is I/O).
pub fn store_us(blob: &[u8]) -> Result<(f64, f64), String> {
    let dir = ScratchDir::new("store-probe")?;
    let mut store =
        SessionStore::open(StoreConfig::new(dir.path())).map_err(|e| format!("{e:?}"))?;
    let mut append = Vec::new();
    let mut get = Vec::new();
    for i in 0..STORE_PROBES as u64 {
        let t = Instant::now();
        store.append(i % 8, blob).map_err(|e| format!("{e:?}"))?;
        append.push(t.elapsed().as_nanos() as f64);
    }
    for i in 0..STORE_PROBES as u64 {
        let t = Instant::now();
        let got = store.get(i % 8).map_err(|e| format!("{e:?}"))?;
        get.push(t.elapsed().as_nanos() as f64);
        if got.as_deref() != Some(blob) {
            return Err("scratch store returned different bytes".into());
        }
    }
    Ok((us(&append), us(&get)))
}

/// Median round trip of a read-only `Checkpoint` of `session` at `addr`.
fn checkpoint_rtt_ns(addr: SocketAddr, session: u64) -> Result<f64, String> {
    let mut conn = served::connect(addr)?;
    let mut samples = Vec::new();
    for _ in 0..HOP_PROBES {
        let t = Instant::now();
        conn.checkpoint(session).map_err(err)?;
        samples.push(t.elapsed().as_nanos() as f64);
    }
    Ok(median(&samples).expect("probes ran").value)
}

/// Thread-CPU median of `f` over `FIXTURE_CALLS` calls, in microseconds.
fn cpu_us(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..FIXTURE_CALLS {
        let t = thread_cpu_ns();
        f()?;
        samples.push((thread_cpu_ns() - t) as f64);
    }
    Ok(us(&samples))
}

/// `fleet.*_us` on a fixture `UserSession`: one batch step, checkpoint
/// capture + encode, decode + restore. Returns the session's blob.
fn fleet_fixture(
    o: &mut Outcome,
    scenario: &Arc<DomainIlScenario>,
    config: &ChameleonConfig,
    seed: u64,
) -> Result<Vec<u8>, String> {
    let spec = chameleon_fleet::SessionSpec {
        learner: config.clone(),
        ..session_spec(seed, 0)
    };
    let mut session = UserSession::new(0, spec, Arc::clone(scenario), None);
    session.step_batches(FIXTURE_BATCHES);
    let blob = SessionCheckpoint::capture(&session).to_bytes();
    o.layer(
        "fleet.step_us",
        "us",
        cpu_us(|| {
            session.step_batch();
            Ok(())
        })?,
    );
    o.layer(
        "fleet.checkpoint_us",
        "us",
        cpu_us(|| {
            std::hint::black_box(SessionCheckpoint::capture(&session).to_bytes());
            Ok(())
        })?,
    );
    o.layer(
        "fleet.restore_us",
        "us",
        cpu_us(|| {
            let restored = SessionCheckpoint::from_bytes(&blob)
                .and_then(|c| c.restore(Arc::clone(scenario), None))
                .map_err(|e| format!("fixture restore: {e:?}"))?;
            std::hint::black_box(restored);
            Ok(())
        })?,
    );
    Ok(blob)
}

/// Client-side encode of a Step request plus decode of its reply.
fn wire_us() -> Result<f64, String> {
    let request = Request::Step {
        session: 7,
        batches: 1,
    };
    let reply = encode_frame(
        &Response::Stepped {
            delivered: 1,
            done: false,
        }
        .encode_payload(1),
    );
    cpu_us(|| {
        std::hint::black_box(encode_frame(&request.encode_payload(1)));
        let decoded = decode_frame(&reply, MAX_PAYLOAD_BYTES)
            .and_then(|(payload, _)| Response::decode_payload(&payload));
        match decoded {
            Ok((1, Response::Stepped { .. })) => Ok(()),
            other => Err(format!("wire probe decoded {other:?}")),
        }
    })
}

/// Route layers on a fixture: one backend, a router in front, one session
/// stepped `ROUTE_STEPS` times.
fn route_fixture(
    o: &mut Outcome,
    scenario: &Arc<DomainIlScenario>,
    config: &ChameleonConfig,
    seed: u64,
) -> Result<(), String> {
    let mut backend = Server::start(
        Arc::clone(scenario),
        FleetConfig::default(),
        ServeConfig::default(),
    )
    .map_err(|e| format!("start fixture backend: {e}"))?;
    let mut router = Router::start(RouterConfig {
        backends: vec![backend.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .map_err(|e| format!("start fixture router: {e}"))?;
    let result = (|| {
        let mut conn = served::connect(router.local_addr())?;
        let spec = chameleon_fleet::SessionSpec {
            learner: config.clone(),
            ..session_spec(seed, 0)
        };
        conn.create_session(0, spec).map_err(err)?;
        let mut ctl = served::connect(backend.local_addr())?;
        let (route0, bytes0) = (router.metrics(), frame_bytes(&ctl.stats().map_err(err)?));
        for _ in 0..ROUTE_STEPS {
            conn.step(0, 1).map_err(err)?;
        }
        let (route1, bytes1) = (router.metrics(), frame_bytes(&ctl.stats().map_err(err)?));
        let per_step = |n: u64| n as f64 / ROUTE_STEPS as f64;
        o.layer(
            "route.shadow_refreshes_per_step",
            "ratio",
            per_step(route1.shadow_refreshes - route0.shadow_refreshes),
        );
        o.layer(
            "route.forward_failures",
            "count",
            (route1.forward_failures - route0.forward_failures) as f64,
        );
        o.layer(
            "serve.frame_bytes_per_request",
            "bytes",
            per_step(bytes1 - bytes0),
        );
        let direct = checkpoint_rtt_ns(backend.local_addr(), 0)?;
        let routed = checkpoint_rtt_ns(router.local_addr(), 0)?;
        o.layer("route.shadow_pull_us", "us", direct / 1e3);
        o.layer("route.hop_us", "us", (routed - direct) / 1e3);
        Ok(())
    })();
    router.shutdown();
    backend.shutdown();
    result
}

/// Backend socket bytes in and out so far.
fn frame_bytes(stats: &chameleon_serve::wire::StatsSnapshot) -> u64 {
    stats.serve.bytes_in + stats.serve.bytes_out
}

/// Fills every per-layer metric `o` lacks that a probe measures, for a
/// workload hosting `config` learners on `scenario`.
pub fn fill(
    o: &mut Outcome,
    scenario: &Arc<DomainIlScenario>,
    config: &ChameleonConfig,
    seed: u64,
) -> Result<(), String> {
    let has = |o: &Outcome, name: &str| o.layers.iter().any(|m| m.name == name);
    let mut fixture = Outcome::default();
    if !has(o, "core.observe_us") {
        edge::learner_fixture(&mut fixture, scenario, config, seed);
    }
    let blob = fleet_fixture(&mut fixture, scenario, config, seed)?;
    if !has(o, "store.append_fsync_us") {
        let (append, get) = store_us(&blob)?;
        fixture.layer("store.append_fsync_us", "us", append);
        fixture.layer("store.get_us", "us", get);
    }
    if !has(o, "serve.wire_us") {
        fixture.layer("serve.wire_us", "us", wire_us()?);
    }
    if !has(o, "route.shadow_pull_us") {
        route_fixture(&mut fixture, scenario, config, seed)?;
    }
    let mut filled = Vec::new();
    for m in fixture.layers {
        if !has(o, m.name) {
            filled.push(J::s(m.name));
            o.layers.push(m);
        }
    }
    o.note("layers_from_fixture_probes", J::Arr(filled));
    Ok(())
}
