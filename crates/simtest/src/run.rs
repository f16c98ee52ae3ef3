//! The op runner every schedule shares: how a script op reaches an
//! engine, how its outcome enters a session's observable history, how a
//! run's final checkpoints are collected and digested, and the
//! evict-at-trace reference run that handoffs, failovers and migrations
//! are proven equivalent to.

use std::collections::BTreeMap;
use std::sync::Arc;

use chameleon_core::Precision;
use chameleon_fleet::{
    FleetConfig, FleetEngine, FleetError, SessionCommand, SessionEvent, SessionEventKind, SessionId,
};
use chameleon_replay::crc32;
use chameleon_runtime::splitmix64;
use chameleon_stream::DomainIlScenario;

use crate::digest::{encode_event, ShardScope};
use crate::script::{self, Op};

/// Bytes per session in id order: observable logs and final blobs.
pub(crate) type SessionBytes = BTreeMap<SessionId, Vec<u8>>;

/// `(op_index, session)` per interruption a run performed, in apply
/// order. The reference replays each one as a local `Evict`.
pub(crate) type Trace = Vec<(usize, SessionId)>;

/// The engine config of a single simulated node with `shards` shards.
pub(crate) fn fleet_config(seed: u64, shards: usize) -> FleetConfig {
    FleetConfig {
        num_shards: shards,
        queue_depth: 4,
        budget_bytes: u64::MAX,
        assignment_seed: splitmix64(seed ^ 0xA551),
        faults: script::fault_plan(seed),
    }
}

/// Submits one script op, riding out backpressure. Sessions are created
/// from [`script::session_spec_at`] at `precision`.
pub(crate) fn submit(
    engine: &mut FleetEngine,
    seed: u64,
    op: &Op,
    precision: Precision,
) -> Result<(), FleetError> {
    let command = match *op {
        Op::Create { session } => {
            return engine
                .create_blocking(session, script::session_spec_at(seed, session, precision))
        }
        Op::Step { batches, .. } => SessionCommand::Step { batches },
        Op::Checkpoint { .. } => SessionCommand::Checkpoint,
        Op::Evict { .. } => SessionCommand::Evict,
        Op::Evaluate { .. } => SessionCommand::Evaluate,
    };
    engine.command_blocking(op.session(), command)
}

/// Applies `op`, then probes the touched session with a `Checkpoint` so
/// its full post-op state is part of the observable history. A
/// synchronous refusal (unknown or duplicate id) is observable too —
/// every compared engine must refuse the same ops — and is logged as
/// `0xFF` followed by its message. Every drained event is encoded into
/// its session's log and then handed to `observe`.
pub(crate) fn apply_probed(
    engine: &mut FleetEngine,
    seed: u64,
    op: &Op,
    precision: Precision,
    logs: &mut SessionBytes,
    mut observe: impl FnMut(SessionEvent) -> Result<(), String>,
) -> Result<(), String> {
    let session = op.session();
    if let Err(error) = submit(engine, seed, op, precision) {
        let log = logs.entry(session).or_default();
        log.push(0xFF);
        log.extend_from_slice(error.to_string().as_bytes());
    }
    let mut drain = |engine: &mut FleetEngine| {
        for event in engine.drain_pending() {
            encode_event(
                logs.entry(event.session).or_default(),
                &event,
                ShardScope::Exclude,
            );
            observe(event)?;
        }
        Ok::<(), String>(())
    };
    drain(engine)?;
    if engine.known(session) {
        engine
            .command_blocking(session, SessionCommand::Checkpoint)
            .map_err(|e| format!("checkpoint probe refused: {e}"))?;
        drain(engine)?;
    }
    Ok(())
}

/// The `CHAMFLT1` blob a `Checkpoint` of session `id` produces now.
pub(crate) fn final_blob(engine: &mut FleetEngine, id: SessionId) -> Result<Vec<u8>, String> {
    engine
        .command_blocking(id, SessionCommand::Checkpoint)
        .map_err(|e| format!("final checkpoint of session {id} refused: {e}"))?;
    engine
        .drain_pending()
        .into_iter()
        .find_map(|e| match e.kind {
            SessionEventKind::Checkpointed(blob) => Some(blob),
            _ => None,
        })
        .ok_or_else(|| format!("session {id}: final checkpoint produced no blob"))
}

/// [`final_blob`] of every session of the pool the engine knows.
pub(crate) fn final_blobs(engine: &mut FleetEngine) -> Result<SessionBytes, String> {
    let known: Vec<SessionId> = (0..script::SESSION_POOL)
        .filter(|&id| engine.known(id))
        .collect();
    known
        .into_iter()
        .map(|id| Ok((id, final_blob(engine, id)?)))
        .collect()
}

/// CRC32 over `id (u64 LE) | bytes` of every entry, in id order.
pub(crate) fn digest(entries: &SessionBytes) -> u32 {
    let mut concat = Vec::new();
    for (id, bytes) in entries {
        concat.extend_from_slice(&id.to_le_bytes());
        concat.extend_from_slice(bytes);
    }
    crc32(&concat)
}

/// Checks a disrupted run against its reference: the same script on one
/// `shards`-shard engine with every `trace` entry replayed as a local
/// `Evict` at the same op boundary (evict is idempotent on a cold
/// session). Every per-session log and final blob must match. The
/// interruption machinery stays out of the compared history on both
/// sides: the disrupted run bins its export/import events, and the
/// reference bins its evict events.
pub(crate) fn check_reference(
    scenario: &Arc<DomainIlScenario>,
    seed: u64,
    shards: usize,
    ops: &[Op],
    trace: &Trace,
    logs: &SessionBytes,
    blobs: &SessionBytes,
) -> Result<(), String> {
    let mut engine = FleetEngine::new_sim(Arc::clone(scenario), fleet_config(seed, shards), seed);
    let mut ref_logs = SessionBytes::new();
    for (index, op) in ops.iter().enumerate() {
        for (_, session) in trace.iter().filter(|(at, _)| *at == index) {
            let _ = engine.command_blocking(*session, SessionCommand::Evict);
            engine.drain_pending();
        }
        apply_probed(&mut engine, seed, op, Precision::F32, &mut ref_logs, |_| {
            Ok(())
        })
        .map_err(|e| format!("reference op {index} ({op:?}): {e}"))?;
    }
    let ref_blobs = final_blobs(&mut engine).map_err(|e| format!("reference: {e}"))?;
    for id in 0..script::SESSION_POOL {
        if logs.get(&id) != ref_logs.get(&id) {
            return Err(format!(
                "session {id} history diverges from the {shards}-shard evict-at-trace reference"
            ));
        }
    }
    if *blobs != ref_blobs {
        return Err(format!(
            "final checkpoint bytes diverge from the {shards}-shard evict-at-trace reference"
        ));
    }
    Ok(())
}
