//! Extension: **routing-tier overhead** — request rate through a
//! `chameleon-route` proxy versus the same workload sent straight at a
//! backend.
//!
//! Three cells share one fixed workload (8 sessions created, stepped to
//! stream exhaustion in 4-batch slices, then checkpointed, over 4 client
//! connections): `direct` talks to a single server, `routed x1` puts the
//! proxy in front of that same single server, and `routed x2` spreads
//! the sessions over two backends by rendezvous hash. The `direct` →
//! `routed x1` gap is the price of the tier itself — one extra socket
//! hop per request plus a shadow-checkpoint refresh (a backend-side
//! `Checkpoint` round-trip) after every mutating operation; `routed x2`
//! shows how much of that back with a second engine under the
//! proxy. Cells with decode rejects, failed requests, or failed shadow
//! refreshes abort the bench.
//!
//! Emits a markdown table on stdout and the grid as JSON to
//! `results/route_throughput.json`.
//!
//! Usage: `cargo run --release -p chameleon-bench --bin route_throughput`

use std::sync::Arc;
use std::time::Instant;

use chameleon_bench::report::{write_results, Table};
use chameleon_bench::suite::skewed_user_spec;
use chameleon_core::Precision;
use chameleon_fleet::FleetConfig;
use chameleon_obs::json::Object;
use chameleon_route::{RouteCounters, Router, RouterConfig};
use chameleon_serve::{Connection, ServeConfig, Server};
use chameleon_stream::{DatasetSpec, DomainIlScenario};

const SESSIONS: u64 = 8;
const CONNECTIONS: usize = 4;
const SHARDS: usize = 2;
/// Router-side connection workers.
const ROUTE_WORKERS: usize = 4;
/// Backend-side connection workers. Deliberately equal to the router's:
/// the router multiplexes every worker over ONE connection per backend
/// (correlation-tagged frames, a reader thread waking the matching
/// sender), so the old `serve workers ≥ router workers + 2` sizing rule
/// — and the silent stall an undersized backend used to cause — no
/// longer exists. The equality here is the regression check.
const SERVE_WORKERS: usize = ROUTE_WORKERS;
const STEP_BATCHES: u32 = 4;

struct Cell {
    label: &'static str,
    backends: usize,
    routed: bool,
    wall_s: f64,
    requests: u64,
    batches: u64,
    route: Option<RouteCounters>,
}

impl Cell {
    fn requests_per_sec(&self) -> f64 {
        self.requests as f64 / self.wall_s.max(1e-9)
    }
}

/// Drives this connection's stripe of sessions end to end (create →
/// step to exhaustion → checkpoint); returns the request count.
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
    let mut live = users.clone();
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
    for &user in &users {
        conn.checkpoint(user).expect("checkpoint");
        requests += 1;
    }
    requests
}

fn run_cell(
    scenario: &Arc<DomainIlScenario>,
    label: &'static str,
    backends: usize,
    routed: bool,
) -> Cell {
    let num_classes = scenario.spec().num_classes;
    let mut servers: Vec<Server> = (0..backends)
        .map(|_| {
            Server::start(
                Arc::clone(scenario),
                FleetConfig {
                    num_shards: SHARDS,
                    ..FleetConfig::default()
                },
                ServeConfig {
                    workers: SERVE_WORKERS,
                    ..ServeConfig::default()
                },
            )
            .expect("start backend")
        })
        .collect();
    let mut router = routed.then(|| {
        Router::start(RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: servers.iter().map(|s| s.local_addr().to_string()).collect(),
            workers: ROUTE_WORKERS,
            ..RouterConfig::default()
        })
        .expect("start router")
    });
    let addr = match &router {
        Some(router) => router.local_addr(),
        None => servers[0].local_addr(),
    };

    let start = Instant::now();
    let handles: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let users: Vec<u64> = (0..SESSIONS)
                .filter(|u| *u as usize % CONNECTIONS == c)
                .collect();
            std::thread::spawn(move || drive_stripe(addr, users, num_classes))
        })
        .collect();
    let requests: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("join client"))
        .sum();
    let wall_s = start.elapsed().as_secs_f64();

    let mut batches = 0u64;
    for server in &servers {
        let stats = Connection::connect(server.local_addr())
            .expect("connect for stats")
            .stats()
            .expect("stats");
        assert_eq!(stats.serve.decode_rejects, 0, "decode rejects during bench");
        batches += stats.batches;
    }
    let route = router.as_ref().map(|r| r.metrics());
    if let Some(route) = &route {
        assert_eq!(route.decode_rejects, 0, "router decode rejects");
        assert_eq!(route.forward_failures, 0, "router forward failures");
        assert_eq!(route.shadow_refresh_failures, 0, "shadow refresh failures");
    }
    if let Some(router) = &mut router {
        router.shutdown();
    }
    for server in &mut servers {
        server.shutdown();
    }

    Cell {
        label,
        backends,
        routed,
        wall_s,
        requests,
        batches,
        route,
    }
}

fn main() {
    let spec = DatasetSpec::core50_tiny();
    let scenario = Arc::new(DomainIlScenario::generate(&spec, 0xDA7A));

    println!(
        "# Routing-tier overhead ({} synthetic, {SESSIONS} sessions, {CONNECTIONS} \
         connections, {SHARDS} shards/backend, {STEP_BATCHES}-batch slices)\n",
        spec.name
    );

    let mut cells = Vec::new();
    for (label, backends, routed) in [
        ("direct", 1usize, false),
        ("routed x1", 1, true),
        ("routed x2", 2, true),
    ] {
        let cell = run_cell(&scenario, label, backends, routed);
        eprintln!(
            "  {label}: {:.0} req/s over {:.2}s",
            cell.requests_per_sec(),
            cell.wall_s
        );
        cells.push(cell);
    }

    // The workload is placement-independent (every session's full
    // stream), so total trained batches must not depend on the topology.
    for cell in &cells[1..] {
        assert_eq!(
            cell.batches, cells[0].batches,
            "batch count varied with topology"
        );
    }

    let base = cells[0].requests_per_sec();
    let mut table = Table::new(&[
        "Topology",
        "Backends",
        "Wall (s)",
        "Requests",
        "Req/s",
        "Shadow refreshes",
        "Relative to direct",
    ]);
    for cell in &cells {
        table.row_owned(vec![
            cell.label.to_string(),
            cell.backends.to_string(),
            format!("{:.2}", cell.wall_s),
            cell.requests.to_string(),
            format!("{:.0}", cell.requests_per_sec()),
            cell.route
                .map_or("—".to_string(), |r| r.shadow_refreshes.to_string()),
            format!("{:.2}x", cell.requests_per_sec() / base.max(1e-9)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "The router refreshes a session's shadow checkpoint after every\n\
         mutating operation — an extra backend `Checkpoint` round-trip per\n\
         step — which is what buys shadow failover when a backend dies\n\
         without exporting. That is the dominant cost of the tier; a\n\
         second backend claws throughput back by running engines in\n\
         parallel under the same proxy."
    );

    write_results("route_throughput.json", &document(spec.name, &cells));
}

fn document(dataset: &str, cells: &[Cell]) -> String {
    let base = cells[0].requests_per_sec();
    let doc = Object::block()
        .str("dataset", dataset)
        .num("sessions", SESSIONS)
        .num("connections", CONNECTIONS)
        .num("step_batches", STEP_BATCHES)
        .str(
            "note",
            "loopback CHAMWIRE round-trips on whatever host ran this; the routed cells pay one \
             proxy hop plus a shadow-checkpoint refresh per mutation",
        )
        .array(
            "cells",
            cells.iter().map(|cell| {
                Object::inline()
                    .str("topology", cell.label)
                    .num("backends", cell.backends)
                    .num("routed", cell.routed)
                    .num("wall_s", format!("{:.4}", cell.wall_s))
                    .num("requests", cell.requests)
                    .num(
                        "requests_per_sec",
                        format!("{:.2}", cell.requests_per_sec()),
                    )
                    .num("batches", cell.batches)
                    .num(
                        "shadow_refreshes",
                        cell.route.map_or(0, |r| r.shadow_refreshes),
                    )
                    .num(
                        "relative_to_direct",
                        format!("{:.3}", cell.requests_per_sec() / base.max(1e-9)),
                    )
            }),
        );
    format!("{}\n", doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROUTE_THROUGHPUT_JSON: &str = r#"{
  "dataset": "CORe50-tiny",
  "sessions": 8,
  "connections": 4,
  "step_batches": 4,
  "note": "loopback CHAMWIRE round-trips on whatever host ran this; the routed cells pay one proxy hop plus a shadow-checkpoint refresh per mutation",
  "cells": [
    {"topology": "direct", "backends": 1, "routed": false, "wall_s": 0.4000, "requests": 120, "requests_per_sec": 300.00, "batches": 384, "shadow_refreshes": 0, "relative_to_direct": 1.000},
    {"topology": "routed-2", "backends": 2, "routed": true, "wall_s": 0.9000, "requests": 120, "requests_per_sec": 133.33, "batches": 384, "shadow_refreshes": 96, "relative_to_direct": 0.444}
  ]
}
"#;

    #[test]
    fn results_document_is_pinned() {
        let cells = vec![
            Cell {
                label: "direct",
                backends: 1,
                routed: false,
                wall_s: 0.4,
                requests: 120,
                batches: 384,
                route: None,
            },
            Cell {
                label: "routed-2",
                backends: 2,
                routed: true,
                wall_s: 0.9,
                requests: 120,
                batches: 384,
                route: Some(RouteCounters {
                    shadow_refreshes: 96,
                    ..RouteCounters::default()
                }),
            },
        ];
        assert_eq!(document("CORe50-tiny", &cells), ROUTE_THROUGHPUT_JSON);
    }
}
