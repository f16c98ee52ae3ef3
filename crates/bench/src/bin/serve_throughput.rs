//! Extension: **serving throughput** — request rate of the CHAMWIRE TCP
//! layer over loopback as client connections scale.
//!
//! Each cell starts a fresh self-hosted [`chameleon_serve::Server`] (4
//! workers, 4 shards) and drives a fixed workload — 16 sessions, each
//! created, stepped to stream exhaustion in small slices, then
//! checkpointed — from N concurrent client connections, sessions striped
//! across connections. Wall clock covers the whole wire conversation, so
//! the measured rate includes framing, checksums, socket hops, and the
//! engine round-trip; the serving layer's own counters are cross-checked
//! so a cell with decode rejects or failed requests aborts the bench.
//!
//! Emits a markdown table on stdout and the grid as JSON to
//! `results/serve_throughput.json`.
//!
//! Usage: `cargo run --release -p chameleon-bench --bin serve_throughput`

use std::sync::Arc;
use std::time::Instant;

use chameleon_bench::report::{write_results, Table};
use chameleon_bench::suite::skewed_user_spec;
use chameleon_core::Precision;
use chameleon_fleet::FleetConfig;
use chameleon_obs::json::Object;
use chameleon_serve::wire::StatsSnapshot;
use chameleon_serve::{Connection, ServeConfig, Server};
use chameleon_stream::{DatasetSpec, DomainIlScenario};

const CONNECTION_COUNTS: [usize; 3] = [1, 2, 4];
const SESSIONS: u64 = 16;
const SHARDS: usize = 4;
const WORKERS: usize = 4;
/// Batches delivered per `Step` request (small slices stress the wire:
/// more round-trips per unit of training work).
const STEP_BATCHES: u32 = 4;

struct Cell {
    connections: usize,
    wall_s: f64,
    requests: u64,
    stats: StatsSnapshot,
}

impl Cell {
    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.wall_s.max(1e-9)
    }
}

/// Drives this connection's stripe of sessions end to end; returns the
/// number of requests issued.
fn drive_stripe(addr: std::net::SocketAddr, users: Vec<u64>, num_classes: usize) -> u64 {
    let mut conn = Connection::connect(addr).expect("connect");
    let mut requests = 0u64;
    for &user in &users {
        conn.create_session(
            user,
            skewed_user_spec(user, num_classes, 60, Precision::F32),
        )
        .expect("create session");
        requests += 1;
    }
    let mut live = users;
    while !live.is_empty() {
        let mut still = Vec::new();
        for &user in &live {
            let (_, done) = conn.step(user, STEP_BATCHES).expect("step");
            requests += 1;
            if !done {
                still.push(user);
            }
        }
        live = still;
    }
    requests
}

fn run_cell(scenario: &Arc<DomainIlScenario>, connections: usize) -> Cell {
    let num_classes = scenario.spec().num_classes;
    let mut server = Server::start(
        Arc::clone(scenario),
        FleetConfig {
            num_shards: SHARDS,
            ..FleetConfig::default()
        },
        ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.local_addr();

    let start = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let users: Vec<u64> = (0..SESSIONS)
                .filter(|u| *u as usize % connections == c)
                .collect();
            std::thread::spawn(move || drive_stripe(addr, users, num_classes))
        })
        .collect();
    let requests: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("join client"))
        .sum();
    let wall_s = start.elapsed().as_secs_f64();

    let stats = Connection::connect(addr)
        .expect("connect for stats")
        .stats()
        .expect("stats");
    assert_eq!(stats.serve.decode_rejects, 0, "decode rejects during bench");
    assert_eq!(
        stats.serve.requests_failed, 0,
        "failed requests during bench"
    );
    server.shutdown();

    Cell {
        connections,
        wall_s,
        requests,
        stats,
    }
}

fn main() {
    let spec = DatasetSpec::core50_tiny();
    let scenario = Arc::new(DomainIlScenario::generate(&spec, 0xDA7A));

    println!(
        "# Serving throughput ({} synthetic, {SESSIONS} sessions, {SHARDS} shards, \
         {WORKERS} workers, {STEP_BATCHES}-batch slices)\n",
        spec.name
    );

    let mut cells = Vec::new();
    for &connections in &CONNECTION_COUNTS {
        let cell = run_cell(&scenario, connections);
        eprintln!(
            "  {connections} connection(s): {:.0} req/s over {:.2}s",
            cell.requests_per_sec(),
            cell.wall_s
        );
        cells.push(cell);
    }

    // Every cell delivers the identical workload (each session's full
    // stream), so total batches must not depend on connection count — a
    // cheap cross-check that concurrency never drops or duplicates work.
    for cell in &cells[1..] {
        assert_eq!(
            cell.stats.batches, cells[0].stats.batches,
            "batch count varied with connection count"
        );
    }

    let base = cells[0].requests_per_sec();
    let mut table = Table::new(&[
        "Connections",
        "Wall (s)",
        "Requests",
        "Req/s",
        "Batches",
        "p99 latency (µs)",
        "Speedup vs 1 conn",
    ]);
    for cell in &cells {
        table.row_owned(vec![
            cell.connections.to_string(),
            format!("{:.2}", cell.wall_s),
            cell.requests.to_string(),
            format!("{:.0}", cell.requests_per_sec()),
            cell.stats.batches.to_string(),
            cell.stats.serve.latency.quantile_upper_us(0.99).to_string(),
            format!("{:.2}x", cell.requests_per_sec() / base.max(1e-9)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Each request is a full CHAMWIRE round-trip (frame, CRC, socket,\n\
         engine hop). One serial connection leaves the worker pool idle;\n\
         more connections overlap wire time with engine time until the\n\
         shard workers saturate."
    );

    write_results("serve_throughput.json", &document(spec.name, &cells));
}

fn document(dataset: &str, cells: &[Cell]) -> String {
    let base = cells[0].requests_per_sec();
    let doc = Object::block()
        .str("dataset", dataset)
        .num("sessions", SESSIONS)
        .num("shards", SHARDS)
        .num("workers", WORKERS)
        .num("step_batches", STEP_BATCHES)
        .str(
            "note",
            "loopback CHAMWIRE round-trips on whatever host ran this; requests counted \
             client-side, cross-checked against server counters",
        )
        .array(
            "cells",
            cells.iter().map(|cell| {
                let serve = &cell.stats.serve;
                Object::inline()
                    .num("connections", cell.connections)
                    .num("wall_s", format!("{:.4}", cell.wall_s))
                    .num("requests", cell.requests)
                    .num(
                        "requests_per_sec",
                        format!("{:.2}", cell.requests_per_sec()),
                    )
                    .num("batches", cell.stats.batches)
                    .num("frames_in", serve.frames_in)
                    .num("bytes_in", serve.bytes_in)
                    .num("bytes_out", serve.bytes_out)
                    .num("backpressure_replies", serve.backpressure_replies)
                    .num("latency_p50_us", serve.latency.quantile_upper_us(0.50))
                    .num("latency_p99_us", serve.latency.quantile_upper_us(0.99))
                    .num(
                        "speedup_vs_1_conn",
                        format!("{:.3}", cell.requests_per_sec() / base.max(1e-9)),
                    )
            }),
        );
    format!("{}\n", doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVE_THROUGHPUT_JSON: &str = r#"{
  "dataset": "CORe50-tiny",
  "sessions": 16,
  "shards": 4,
  "workers": 4,
  "step_batches": 4,
  "note": "loopback CHAMWIRE round-trips on whatever host ran this; requests counted client-side, cross-checked against server counters",
  "cells": [
    {"connections": 1, "wall_s": 0.8000, "requests": 230, "requests_per_sec": 287.50, "batches": 768, "frames_in": 230, "bytes_in": 41000, "bytes_out": 9000000, "backpressure_replies": 0, "latency_p50_us": 512, "latency_p99_us": 4096, "speedup_vs_1_conn": 1.000},
    {"connections": 2, "wall_s": 0.5000, "requests": 230, "requests_per_sec": 460.00, "batches": 768, "frames_in": 230, "bytes_in": 41000, "bytes_out": 9000000, "backpressure_replies": 1, "latency_p50_us": 1024, "latency_p99_us": 8192, "speedup_vs_1_conn": 1.600},
    {"connections": 4, "wall_s": 0.4500, "requests": 230, "requests_per_sec": 511.11, "batches": 768, "frames_in": 230, "bytes_in": 41000, "bytes_out": 9000000, "backpressure_replies": 3, "latency_p50_us": 2048, "latency_p99_us": 16384, "speedup_vs_1_conn": 1.778}
  ]
}
"#;

    #[test]
    fn results_document_is_pinned() {
        let cell = |connections: usize, wall_s: f64| {
            let mut stats = StatsSnapshot {
                batches: 768,
                ..StatsSnapshot::default()
            };
            stats.serve.frames_in = 230;
            stats.serve.bytes_in = 41_000;
            stats.serve.bytes_out = 9_000_000;
            stats.serve.backpressure_replies = connections as u64 - 1;
            for micros in [90, 400, 400, 3_000] {
                stats.serve.latency.record(std::time::Duration::from_micros(
                    micros * connections as u64,
                ));
            }
            Cell {
                connections,
                wall_s,
                requests: 230,
                stats,
            }
        };
        let cells = vec![cell(1, 0.8), cell(2, 0.5), cell(4, 0.45)];
        assert_eq!(document("CORe50-tiny", &cells), SERVE_THROUGHPUT_JSON);
    }
}
