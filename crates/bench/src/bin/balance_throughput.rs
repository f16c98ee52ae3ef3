//! Extension: **balance throughput** — does the load-aware rebalancer
//! actually pay for itself under skewed traffic?
//!
//! The workload is fixed: `DRAWS` single-batch step commands, the target
//! session of each drawn from a Zipf(1.1) popularity shape, over streams
//! long enough that no session finishes — so the skew governs the whole
//! run, not just its opening. The assignment seed is searched so the hot
//! prefix of the id space hash-clusters onto one shard — the
//! unlucky-but-inevitable placement a static hash eventually deals
//! someone — and the per-shard session budget is tight enough that a
//! clustered hot set cannot stay resident. Without a rebalancer the hot
//! shard LRU-thrashes on nearly every touch; with `--balance` the
//! policies migrate the (lowest-id, i.e. hottest) sessions toward cold
//! shards until each shard's hot working set fits its budget.
//!
//! Every cell delivers the identical batch count, so wall-clock is
//! directly comparable: the speedup is eviction-churn relief minus the
//! cost of the migrations themselves.
//!
//! Emits a markdown table on stdout and the cells as JSON to
//! `results/balance_throughput.json`.
//!
//! Usage: `cargo run --release -p chameleon-bench --bin balance_throughput`

use std::sync::Arc;
use std::time::Instant;

use chameleon_balance::{BalanceConfig, TrafficShape};
use chameleon_bench::report::{write_results, Table};
use chameleon_bench::suite::skewed_user_spec;
use chameleon_core::Precision;
use chameleon_fleet::{FleetConfig, FleetEngine, SessionCommand, SessionEventKind, UserSession};
use chameleon_obs::json::Object;
use chameleon_stream::{DatasetSpec, DomainIlScenario};

const SESSIONS: u64 = 32;
const SHARDS: usize = 4;
/// Step commands issued per cell. The hottest session receives ~27% of
/// them, which must stay below the stream length so nobody finishes.
const DRAWS: u64 = 6000;
/// Training samples per class per domain — 40× the tiny spec, so every
/// stream is ~1920 batches and outlasts the draw budget.
const TRAIN_PER_CLASS_PER_DOMAIN: usize = 480;
/// Long-term capacity per session — sized so evict/restore moves a
/// meaningful amount of state relative to a 1-batch step.
const BUFFER: usize = 1000;
/// How many of the hottest (lowest) session ids must hash-cluster onto
/// one shard for the placement to count as adversarial.
const HOT_CLUSTER: u64 = 6;
/// Per-shard budget in sessions; the half-session margin is added below.
const BUDGET_SESSIONS: u64 = 2;
const SHAPE: &str = "zipf:1.1";
const SHAPE_SEED: u64 = 0xB417;
/// Balance policies measured against the `off` baseline.
const POLICIES: [Option<&str>; 3] = [None, Some("periodic:4"), Some("steal:4")];

struct Cell {
    policy: String,
    wall_s: f64,
    batches: u64,
    evictions: u64,
    restores: u64,
    migrations: u64,
    rebalance_ticks: u64,
}

impl Cell {
    fn steps_per_sec(&self) -> f64 {
        self.batches as f64 / self.wall_s.max(1e-9)
    }
}

/// Searches assignment seeds until the `HOT_CLUSTER` hottest ids (Zipf
/// popularity falls with the id, so ids `0..HOT_CLUSTER`) all hash to
/// one shard. Probes use the sim runtime — no threads to spawn.
fn adversarial_seed(scenario: &Arc<DomainIlScenario>) -> u64 {
    for seed in 0..1u64 << 14 {
        let probe = FleetEngine::new_sim(
            Arc::clone(scenario),
            FleetConfig {
                num_shards: SHARDS,
                assignment_seed: seed,
                ..FleetConfig::default()
            },
            0,
        );
        let hot = probe.shard_of(0);
        if (1..HOT_CLUSTER).all(|id| probe.shard_of(id) == hot) {
            return seed;
        }
    }
    panic!("no assignment seed clusters ids 0..{HOT_CLUSTER} in 2^14 probes");
}

fn run_cell(
    scenario: &Arc<DomainIlScenario>,
    assignment_seed: u64,
    budget_bytes: u64,
    balance: Option<&BalanceConfig>,
) -> Cell {
    let num_classes = scenario.spec().num_classes;
    let mut engine = FleetEngine::new(
        Arc::clone(scenario),
        FleetConfig {
            num_shards: SHARDS,
            budget_bytes,
            assignment_seed,
            ..FleetConfig::default()
        },
    );
    for user in 0..SESSIONS {
        engine
            .create_blocking(
                user,
                skewed_user_spec(user, num_classes, BUFFER, Precision::F32),
            )
            .expect("create session");
    }
    engine.drain_pending();
    let mut balancer = balance.map(BalanceConfig::build);
    let mut shape =
        TrafficShape::parse(SHAPE, SESSIONS as usize, SHAPE_SEED).expect("valid shape spec");

    let start = Instant::now();
    for _ in 0..DRAWS {
        // Streams outlast the draw budget by construction, so every draw
        // delivers exactly one real batch and all cells do equal work.
        let drawn = shape.next_session();
        engine
            .command_blocking(drawn as u64, SessionCommand::Step { batches: 1 })
            .expect("step session");
        if let Some(balancer) = balancer.as_mut() {
            balancer.on_op(&mut engine);
        }
        for event in engine.drain_pending() {
            match event.kind {
                SessionEventKind::Stepped { done: true, .. } => {
                    panic!(
                        "session {} finished; raise TRAIN_PER_CLASS_PER_DOMAIN",
                        event.session
                    )
                }
                SessionEventKind::Failed(reason) => panic!("session failed: {reason}"),
                _ => {}
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let metrics = engine.metrics();
    let counters = balancer.as_ref().map(|b| b.counters());
    Cell {
        policy: balance.map_or_else(|| "off".to_string(), |b| b.policy_name().to_string()),
        wall_s,
        batches: metrics.batches(),
        evictions: metrics.evictions(),
        restores: metrics.restores(),
        migrations: counters.as_ref().map_or(0, |c| c.migrations_total),
        rebalance_ticks: counters.as_ref().map_or(0, |c| c.rebalance_ticks),
    }
}

fn main() {
    let spec = DatasetSpec {
        name: "CORe50-tiny-long",
        train_per_class_per_domain: TRAIN_PER_CLASS_PER_DOMAIN,
        ..DatasetSpec::core50_tiny()
    };
    let scenario = Arc::new(DomainIlScenario::generate(&spec, 0xDA7A));
    let assignment_seed = adversarial_seed(&scenario);

    // One session's nominal resident footprint prices the budget.
    let session_bytes = UserSession::new(
        0,
        skewed_user_spec(0, spec.num_classes, BUFFER, Precision::F32),
        Arc::clone(&scenario),
        None,
    )
    .resident_bytes();
    let budget_bytes = session_bytes * BUDGET_SESSIONS + session_bytes / 2;

    println!(
        "# Balance throughput ({} synthetic, {SESSIONS} sessions x {SHARDS} shards, \
         {DRAWS} x {SHAPE} draws, hot ids 0..{HOT_CLUSTER} clustered by seed \
         {assignment_seed})\n",
        spec.name
    );

    let mut cells = Vec::new();
    for policy in POLICIES {
        let balance = policy.map(|spec| BalanceConfig::parse(spec).expect("valid policy spec"));
        let cell = run_cell(&scenario, assignment_seed, budget_bytes, balance.as_ref());
        eprintln!(
            "  balance {:>8}: {:.0} steps/s, {} evictions, {} migrations",
            cell.policy,
            cell.steps_per_sec(),
            cell.evictions,
            cell.migrations
        );
        cells.push(cell);
    }

    let mut table = Table::new(&[
        "Balance",
        "Wall (s)",
        "Steps/s",
        "Evictions",
        "Restores",
        "Migrations",
        "Speedup vs off",
    ]);
    let base = cells[0].steps_per_sec();
    for cell in &cells {
        table.row_owned(vec![
            cell.policy.clone(),
            format!("{:.2}", cell.wall_s),
            format!("{:.0}", cell.steps_per_sec()),
            cell.evictions.to_string(),
            cell.restores.to_string(),
            cell.migrations.to_string(),
            format!("{:.2}x", cell.steps_per_sec() / base.max(1e-9)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Every cell delivers the same {DRAWS} batches; only the placement\n\
         moves. `off` hosts the whole Zipf-hot set on one shard whose budget\n\
         holds {BUDGET_SESSIONS}.5 sessions, so almost every hot touch is an LRU\n\
         evict+restore round trip. The policies migrate hot (lowest-id)\n\
         sessions toward cold shards; the speedup is that churn removed,\n\
         net of the migrations' own export/import cost."
    );

    write_results(
        "balance_throughput.json",
        &document(spec.name, session_bytes, assignment_seed, &cells),
    );
}

fn document(dataset: &str, session_bytes: u64, assignment_seed: u64, cells: &[Cell]) -> String {
    let base = cells[0].steps_per_sec();
    let doc = Object::block()
        .str("dataset", dataset)
        .num("sessions", SESSIONS)
        .num("shards", SHARDS)
        .str("shape", SHAPE)
        .num("draws", DRAWS)
        .num("buffer", BUFFER)
        .num("session_bytes", session_bytes)
        .num("budget_sessions_per_shard", format!("{BUDGET_SESSIONS}.5"))
        .num("assignment_seed", assignment_seed)
        .str(
            "note",
            "identical full-stream workload per cell; hot ids hash-clustered on one shard; \
             speedup is LRU-churn relief net of migration cost, measured on whatever host ran \
             this",
        )
        .array(
            "cells",
            cells.iter().map(|cell| {
                Object::inline()
                    .str("balance", &cell.policy)
                    .num("wall_s", format!("{:.4}", cell.wall_s))
                    .num("batches", cell.batches)
                    .num("steps_per_sec", format!("{:.2}", cell.steps_per_sec()))
                    .num("evictions", cell.evictions)
                    .num("restores", cell.restores)
                    .num("migrations", cell.migrations)
                    .num("rebalance_ticks", cell.rebalance_ticks)
                    .num(
                        "speedup_vs_off",
                        format!("{:.3}", cell.steps_per_sec() / base.max(1e-9)),
                    )
            }),
        );
    format!("{}\n", doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BALANCE_THROUGHPUT_JSON: &str = r#"{
  "dataset": "CORe50-tiny",
  "sessions": 32,
  "shards": 4,
  "shape": "zipf:1.1",
  "draws": 6000,
  "buffer": 1000,
  "session_bytes": 17000000,
  "budget_sessions_per_shard": 2.5,
  "assignment_seed": 42,
  "note": "identical full-stream workload per cell; hot ids hash-clustered on one shard; speedup is LRU-churn relief net of migration cost, measured on whatever host ran this",
  "cells": [
    {"balance": "off", "wall_s": 3.2000, "batches": 6000, "steps_per_sec": 1875.00, "evictions": 4000, "restores": 3990, "migrations": 0, "rebalance_ticks": 0, "speedup_vs_off": 1.000},
    {"balance": "periodic:4", "wall_s": 1.6000, "batches": 6000, "steps_per_sec": 3750.00, "evictions": 666, "restores": 665, "migrations": 5, "rebalance_ticks": 35, "speedup_vs_off": 2.000},
    {"balance": "steal:4", "wall_s": 1.1000, "batches": 6000, "steps_per_sec": 5454.55, "evictions": 400, "restores": 399, "migrations": 9, "rebalance_ticks": 63, "speedup_vs_off": 2.909}
  ]
}
"#;

    #[test]
    fn results_document_is_pinned() {
        let cell = |policy: &str, wall_s: f64, migrations: u64| Cell {
            policy: policy.to_string(),
            wall_s,
            batches: DRAWS,
            evictions: 4_000 / (migrations + 1),
            restores: 3_990 / (migrations + 1),
            migrations,
            rebalance_ticks: migrations * 7,
        };
        let cells = vec![
            cell("off", 3.2, 0),
            cell("periodic:4", 1.6, 5),
            cell("steal:4", 1.1, 9),
        ];
        assert_eq!(
            document("CORe50-tiny", 17_000_000, 42, &cells),
            BALANCE_THROUGHPUT_JSON
        );
    }
}
