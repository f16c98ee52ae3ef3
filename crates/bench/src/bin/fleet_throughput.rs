//! Extension: **fleet throughput** — aggregate stepping rate of the
//! sharded multi-session engine as shard count and session count scale.
//!
//! Each cell runs a fixed workload (every session's full stream, delivered
//! round-robin in small slices) on a `chameleon-fleet` engine and measures
//! wall-clock aggregate batches/sec. The per-shard session-memory budget
//! is sized to the most-loaded shard of the *widest* sharding, so the
//! 4-shard fleet keeps every session resident while the 1-shard fleet
//! hosts the same total working set over budget and thrashes its LRU
//! evict/restore path — the memory-pressure effect sharding exists to
//! relieve. On multi-core hosts, shard parallelism adds on top of this.
//!
//! Emits a markdown table on stdout and the grid as JSON to
//! `results/fleet_throughput.json`.
//!
//! Usage: `cargo run --release -p chameleon-bench --bin fleet_throughput`

use std::sync::Arc;
use std::time::Instant;

use chameleon_bench::report::{write_results, Table};
use chameleon_bench::suite::skewed_user_spec;
use chameleon_core::Precision;
use chameleon_fleet::{FleetConfig, FleetEngine, SessionCommand, SessionEventKind, UserSession};
use chameleon_obs::json::Object;
use chameleon_stream::shapes::NominalShapes;
use chameleon_stream::{DatasetSpec, DomainIlScenario};

const SESSION_COUNTS: [u64; 2] = [16, 64];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Long-term capacity per session — sized up so evict/restore moves a
/// meaningful amount of state.
const BUFFER: usize = 500;
/// Batches delivered per `Step` command (small slices force interleaving).
const STEP_BATCHES: usize = 1;
const ASSIGNMENT_SEED: u64 = 9;

struct Cell {
    shards: usize,
    wall_s: f64,
    batches: u64,
    evictions: u64,
    restores: u64,
}

impl Cell {
    fn steps_per_sec(&self) -> f64 {
        self.batches as f64 / self.wall_s.max(1e-9)
    }
}

struct Grid {
    sessions: u64,
    budget_sessions: u64,
    cells: Vec<Cell>,
}

/// Most sessions any single shard hosts under the widest sharding — the
/// budget is sized to exactly that, with a small margin.
fn max_shard_load(scenario: &Arc<DomainIlScenario>, sessions: u64, shards: usize) -> u64 {
    let probe = FleetEngine::new(
        Arc::clone(scenario),
        FleetConfig {
            num_shards: shards,
            assignment_seed: ASSIGNMENT_SEED,
            ..FleetConfig::default()
        },
    );
    let mut loads = vec![0u64; shards];
    for user in 0..sessions {
        loads[probe.shard_of(user)] += 1;
    }
    loads.into_iter().max().unwrap_or(0)
}

fn run_cell(
    scenario: &Arc<DomainIlScenario>,
    sessions: u64,
    shards: usize,
    budget_bytes: u64,
    precision: Precision,
) -> Cell {
    let num_classes = scenario.spec().num_classes;
    let mut engine = FleetEngine::new(
        Arc::clone(scenario),
        FleetConfig {
            num_shards: shards,
            budget_bytes,
            assignment_seed: ASSIGNMENT_SEED,
            ..FleetConfig::default()
        },
    );
    for user in 0..sessions {
        engine
            .create_blocking(user, skewed_user_spec(user, num_classes, BUFFER, precision))
            .expect("create session");
    }
    engine.drain_pending();

    let start = Instant::now();
    let mut live: Vec<u64> = (0..sessions).collect();
    while !live.is_empty() {
        for &user in &live {
            engine
                .command_blocking(
                    user,
                    SessionCommand::Step {
                        batches: STEP_BATCHES,
                    },
                )
                .expect("step session");
        }
        for event in engine.drain_pending() {
            match event.kind {
                SessionEventKind::Stepped { done: true, .. } => {
                    live.retain(|&u| u != event.session);
                }
                SessionEventKind::Failed(reason) => panic!("session failed: {reason}"),
                _ => {}
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let metrics = engine.metrics();
    Cell {
        shards,
        wall_s,
        batches: metrics.batches(),
        evictions: metrics.evictions(),
        restores: metrics.restores(),
    }
}

fn main() {
    let spec = DatasetSpec::core50_tiny();
    let scenario = Arc::new(DomainIlScenario::generate(&spec, 0xDA7A));

    println!(
        "# Fleet throughput ({} synthetic, buffer {BUFFER}, {STEP_BATCHES}-batch slices)\n",
        spec.name
    );

    // The full grid runs at both codec precisions: f32 is the baseline,
    // int8 shows the latent codec's bytes-per-session reduction with no
    // stepping-rate regression. Each precision's budgets are priced with
    // its *own* session footprint so both see the same eviction pressure
    // (~4x budget at 1 shard, fully resident at 4).
    let mut sweeps: Vec<(Precision, u64, Vec<Grid>)> = Vec::new();
    for precision in [Precision::F32, Precision::Int8] {
        // One session's nominal resident footprint prices the budgets.
        let session_bytes = UserSession::new(
            0,
            skewed_user_spec(0, spec.num_classes, BUFFER, precision),
            Arc::clone(&scenario),
            None,
        )
        .resident_bytes();

        let mut grids = Vec::new();
        for &sessions in &SESSION_COUNTS {
            let widest = *SHARD_COUNTS.iter().max().expect("nonempty");
            let budget_sessions = max_shard_load(&scenario, sessions, widest);
            let budget_bytes = session_bytes * budget_sessions + session_bytes / 2;
            let mut cells = Vec::new();
            for &shards in &SHARD_COUNTS {
                let cell = run_cell(&scenario, sessions, shards, budget_bytes, precision);
                eprintln!(
                    "  [{precision}] {sessions} sessions × {shards} shard(s): {:.0} steps/s, {} evictions",
                    cell.steps_per_sec(),
                    cell.evictions
                );
                cells.push(cell);
            }
            grids.push(Grid {
                sessions,
                budget_sessions,
                cells,
            });
        }
        sweeps.push((precision, session_bytes, grids));
    }

    for (precision, session_bytes, grids) in &sweeps {
        println!("## Precision {precision} ({session_bytes} bytes/session)\n");
        let mut table = Table::new(&[
            "Sessions",
            "Shards",
            "Wall (s)",
            "Steps/s",
            "Evictions",
            "Restores",
            "Speedup vs 1 shard",
        ]);
        for grid in grids {
            let base = grid.cells[0].steps_per_sec();
            for cell in &grid.cells {
                table.row_owned(vec![
                    grid.sessions.to_string(),
                    cell.shards.to_string(),
                    format!("{:.2}", cell.wall_s),
                    format!("{:.0}", cell.steps_per_sec()),
                    cell.evictions.to_string(),
                    cell.restores.to_string(),
                    format!("{:.2}x", cell.steps_per_sec() / base.max(1e-9)),
                ]);
            }
        }
        println!("{}", table.render());
    }
    let shapes = NominalShapes::for_classes(spec.num_classes);
    let elems = shapes.latent_elems();
    println!(
        "Budget per shard = the most-loaded shard of the 4-shard split\n\
         (+50% of one session), so 4 shards keep every session resident\n\
         while 1 shard round-robins a working set ~4x its budget through\n\
         LRU evict/restore. The speedup shown is this memory-pressure\n\
         relief; on multi-core hosts shard parallelism adds on top.\n\
         Serialized latents: {} B/sample at f32 vs {} B at int8 ({:.2}x).",
        Precision::F32.packed_len(elems),
        Precision::Int8.packed_len(elems),
        Precision::F32.packed_len(elems) as f64 / Precision::Int8.packed_len(elems) as f64
    );

    write_results(
        "fleet_throughput.json",
        &document(spec.name, elems, &sweeps),
    );
}

fn document(dataset: &str, latent_elems: usize, sweeps: &[(Precision, u64, Vec<Grid>)]) -> String {
    let (f32_bytes, int8_bytes) = (
        Precision::F32.packed_len(latent_elems),
        Precision::Int8.packed_len(latent_elems),
    );
    let grid = |grid: &Grid| {
        let base = grid.cells[0].steps_per_sec();
        Object::block()
            .num("sessions", grid.sessions)
            .num("budget_sessions_per_shard", grid.budget_sessions)
            .array(
                "cells",
                grid.cells.iter().map(|cell| {
                    Object::inline()
                        .num("shards", cell.shards)
                        .num("wall_s", format!("{:.4}", cell.wall_s))
                        .num("batches", cell.batches)
                        .num("steps_per_sec", format!("{:.2}", cell.steps_per_sec()))
                        .num("evictions", cell.evictions)
                        .num("restores", cell.restores)
                        .num(
                            "speedup_vs_1_shard",
                            format!("{:.3}", cell.steps_per_sec() / base.max(1e-9)),
                        )
                }),
            )
    };
    let doc = Object::block()
        .str("dataset", dataset)
        .num("buffer", BUFFER)
        .num("step_batches", STEP_BATCHES)
        .num("latent_bytes_per_sample_f32", f32_bytes)
        .num("latent_bytes_per_sample_int8", int8_bytes)
        .num(
            "latent_shrink",
            format!("{:.2}", f32_bytes as f64 / int8_bytes as f64),
        )
        .str(
            "note",
            "budget per shard = max shard load of the widest sharding; speedup is LRU-churn \
             relief and is measured on whatever host ran this, with thread parallelism on top \
             where cores allow; each precision sweep prices its budget with its own session \
             footprint so both see the same eviction pressure",
        )
        .array(
            "sweeps",
            sweeps.iter().map(|(precision, session_bytes, grids)| {
                Object::block()
                    .str("precision", precision)
                    .num("session_bytes", session_bytes)
                    .array("grids", grids.iter().map(grid))
            }),
        );
    format!("{}\n", doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLEET_THROUGHPUT_JSON: &str = r#"{
  "dataset": "CORe50-tiny",
  "buffer": 500,
  "step_batches": 1,
  "latent_bytes_per_sample_f32": 65541,
  "latent_bytes_per_sample_int8": 16397,
  "latent_shrink": 4.00,
  "note": "budget per shard = max shard load of the widest sharding; speedup is LRU-churn relief and is measured on whatever host ran this, with thread parallelism on top where cores allow; each precision sweep prices its budget with its own session footprint so both see the same eviction pressure",
  "sweeps": [
    {
      "precision": "f32",
      "session_bytes": 17523467,
      "grids": [
        {
          "sessions": 16,
          "budget_sessions_per_shard": 6,
          "cells": [
            {"shards": 1, "wall_s": 0.3500, "batches": 768, "steps_per_sec": 2194.29, "evictions": 794, "restores": 784, "speedup_vs_1_shard": 1.000},
            {"shards": 4, "wall_s": 0.0969, "batches": 768, "steps_per_sec": 7925.70, "evictions": 0, "restores": 0, "speedup_vs_1_shard": 3.612}
          ]
        },
        {
          "sessions": 64,
          "budget_sessions_per_shard": 19,
          "cells": [
            {"shards": 2, "wall_s": 1.9000, "batches": 768, "steps_per_sec": 404.21, "evictions": 3162, "restores": 3152, "speedup_vs_1_shard": 1.000}
          ]
        }
      ]
    },
    {
      "precision": "int8",
      "session_bytes": 8766012,
      "grids": [
        {
          "sessions": 16,
          "budget_sessions_per_shard": 6,
          "cells": [
            {"shards": 1, "wall_s": 0.1750, "batches": 768, "steps_per_sec": 4388.57, "evictions": 794, "restores": 784, "speedup_vs_1_shard": 1.000},
            {"shards": 4, "wall_s": 0.0485, "batches": 768, "steps_per_sec": 15851.39, "evictions": 0, "restores": 0, "speedup_vs_1_shard": 3.612}
          ]
        },
        {
          "sessions": 64,
          "budget_sessions_per_shard": 19,
          "cells": [
            {"shards": 2, "wall_s": 0.9500, "batches": 768, "steps_per_sec": 808.42, "evictions": 3162, "restores": 3152, "speedup_vs_1_shard": 1.000}
          ]
        }
      ]
    }
  ]
}
"#;

    #[test]
    fn results_document_is_pinned() {
        let cell = |shards: usize, wall_s: f64, evictions: u64| Cell {
            shards,
            wall_s,
            batches: 768,
            evictions,
            restores: evictions.saturating_sub(10),
        };
        let grids = |scale: f64| {
            vec![
                Grid {
                    sessions: 16,
                    budget_sessions: 6,
                    cells: vec![cell(1, 0.35 * scale, 794), cell(4, 0.0969 * scale, 0)],
                },
                Grid {
                    sessions: 64,
                    budget_sessions: 19,
                    cells: vec![cell(2, 1.9 * scale, 3162)],
                },
            ]
        };
        let sweeps = vec![
            (Precision::F32, 17_523_467, grids(1.0)),
            (Precision::Int8, 8_766_012, grids(0.5)),
        ];
        assert_eq!(
            document("CORe50-tiny", 16_384, &sweeps),
            FLEET_THROUGHPUT_JSON
        );
    }
}
