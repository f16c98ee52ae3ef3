//! The [`Balancer`]: drives a [`BalancePolicy`] against a live
//! [`FleetEngine`], turning its plans into online session migrations.

use chameleon_fleet::{FleetEngine, FleetError};

use crate::policy::{BalancePolicy, PeriodicLeastLoaded, ShardLoad, ThresholdWorkStealing};

/// Which policy a [`BalanceConfig`] builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`PeriodicLeastLoaded`] rebalancing every `every` ticks.
    Periodic {
        /// Rebalance cadence in ticks.
        every: u64,
    },
    /// [`ThresholdWorkStealing`] with this queue-backlog trigger.
    Steal {
        /// Queue backlog that triggers a steal.
        queue_threshold: usize,
    },
}

/// A plain-data description of a balancer — parseable from the CLI
/// `--balance` knob, cloneable into server configs, and built into a live
/// [`Balancer`] by the thread that owns the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BalanceConfig {
    /// Policy to run.
    pub policy: PolicyKind,
    /// Upper bound on migrations per policy invocation.
    pub max_moves: usize,
    /// Engine operations between policy invocations (the tick cadence of
    /// [`Balancer::on_op`]).
    pub interval_ops: u64,
}

impl BalanceConfig {
    /// Parses the CLI `--balance` grammar:
    /// `periodic`, `periodic:<every-ticks>`, `steal`, or
    /// `steal:<queue-depth>`.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the accepted grammar.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (name, arg) = match spec.split_once(':') {
            Some((name, arg)) => (name, Some(arg)),
            None => (spec, None),
        };
        let policy = match name {
            "periodic" => {
                let every = match arg {
                    None => 4,
                    Some(raw) => raw
                        .parse::<u64>()
                        .ok()
                        .filter(|&v| v > 0)
                        .ok_or_else(|| format!("bad periodic cadence {raw:?}"))?,
                };
                PolicyKind::Periodic { every }
            }
            "steal" => {
                let queue_threshold = match arg {
                    None => 4,
                    Some(raw) => raw
                        .parse::<usize>()
                        .ok()
                        .filter(|&v| v > 0)
                        .ok_or_else(|| format!("bad steal queue threshold {raw:?}"))?,
                };
                PolicyKind::Steal { queue_threshold }
            }
            other => {
                let expected = "periodic[:<every>] or steal[:<depth>]";
                return Err(format!(
                    "unknown balance policy {other:?} (expected {expected})"
                ));
            }
        };
        Ok(Self {
            policy,
            max_moves: 2,
            interval_ops: 64,
        })
    }

    /// The policy name (`periodic` / `steal`).
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        match self.policy {
            PolicyKind::Periodic { .. } => "periodic",
            PolicyKind::Steal { .. } => "steal",
        }
    }

    /// Builds the live balancer this config describes.
    #[must_use]
    pub fn build(&self) -> Balancer {
        let policy: Box<dyn BalancePolicy + Send> = match self.policy {
            PolicyKind::Periodic { every } => {
                Box::new(PeriodicLeastLoaded::new(every, self.max_moves))
            }
            PolicyKind::Steal { queue_threshold } => {
                Box::new(ThresholdWorkStealing::new(queue_threshold, self.max_moves))
            }
        };
        Balancer::new(policy, self.interval_ops)
    }
}

/// Lifetime counters of one balancer, exposed as `balance.*` in the
/// observability layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BalanceCounters {
    /// Policy invocations.
    pub rebalance_ticks: u64,
    /// Sessions actually moved.
    pub migrations_total: u64,
    /// Planned moves skipped safely (session already on target, or the
    /// export was declined and the session stayed put).
    pub migrations_skipped: u64,
    /// Planned moves that hit a hard engine error (dead shard, unknown
    /// session).
    pub migration_failures: u64,
}

impl BalanceCounters {
    /// Every counter by field name, in field order (observed as
    /// `balance.*`).
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); 4] {
        [
            ("rebalance_ticks", self.rebalance_ticks),
            ("migrations_total", self.migrations_total),
            ("migrations_skipped", self.migrations_skipped),
            ("migration_failures", self.migration_failures),
        ]
    }
}

/// Watches a fleet's per-shard load and migrates sessions online per its
/// policy's plans. One balancer belongs to whatever single thread owns
/// the [`FleetEngine`] (the CLI step loop, or a server's engine thread).
pub struct Balancer {
    policy: Box<dyn BalancePolicy + Send>,
    interval_ops: u64,
    ops_since_tick: u64,
    /// Per-shard cumulative `(batches, evictions)` at the previous tick,
    /// so policies see deltas rather than lifetime totals.
    prev: Vec<(u64, u64)>,
    counters: BalanceCounters,
}

impl Balancer {
    /// A balancer running `policy` every `interval_ops` engine ops.
    #[must_use]
    pub fn new(policy: Box<dyn BalancePolicy + Send>, interval_ops: u64) -> Self {
        Self {
            policy,
            interval_ops: interval_ops.max(1),
            ops_since_tick: 0,
            prev: Vec::new(),
            counters: BalanceCounters::default(),
        }
    }

    /// The policy's name.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn counters(&self) -> BalanceCounters {
        self.counters
    }

    /// Notes one engine operation and runs a tick when the cadence is
    /// due. Returns migrations performed (0 between ticks).
    pub fn on_op(&mut self, engine: &mut FleetEngine) -> usize {
        self.ops_since_tick += 1;
        if self.ops_since_tick < self.interval_ops {
            return 0;
        }
        self.ops_since_tick = 0;
        self.tick(engine)
    }

    /// Runs one policy invocation now: snapshots per-shard load, asks the
    /// policy for a plan, and executes it with
    /// [`FleetEngine::migrate_session`]. Returns migrations performed.
    pub fn tick(&mut self, engine: &mut FleetEngine) -> usize {
        self.counters.rebalance_ticks += 1;
        let metrics = engine.metrics();
        let num_shards = engine.config().num_shards;
        self.prev.resize(num_shards, (0, 0));
        let mut loads = Vec::with_capacity(num_shards);
        let mut placed = Vec::with_capacity(num_shards);
        for shard in 0..num_shards {
            let m = metrics.per_shard.iter().find(|m| m.shard == shard);
            let (batches, evictions) = m.map_or((0, 0), |m| (m.batches, m.evictions));
            let (prev_batches, prev_evictions) = self.prev[shard];
            loads.push(ShardLoad {
                shard,
                queue_depth: m.map_or(0, |m| m.queue_depth),
                sessions: engine.sessions_on(shard).len(),
                resident_bytes: m.map_or(0, |m| m.resident_bytes),
                budget_bytes: m.map_or(0, |m| m.budget_bytes),
                steps_delta: batches.saturating_sub(prev_batches),
                evictions_delta: evictions.saturating_sub(prev_evictions),
            });
            self.prev[shard] = (batches, evictions);
            placed.push(engine.sessions_on(shard));
        }
        let plan = self.policy.plan(&loads, &placed);
        let mut moved = 0;
        for migration in plan {
            match engine.migrate_session(migration.session, migration.to) {
                Ok(true) => {
                    moved += 1;
                    self.counters.migrations_total += 1;
                }
                Ok(false) => self.counters.migrations_skipped += 1,
                Err(FleetError::UnknownSession) => self.counters.migrations_skipped += 1,
                Err(_) => self.counters.migration_failures += 1,
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_lists_every_field() {
        // Every counter is 8 bytes wide, so a field missing from the
        // list shows up as a size mismatch.
        assert_eq!(
            std::mem::size_of::<BalanceCounters>(),
            8 * BalanceCounters::default().named().len()
        );
    }
    use crate::policy::Migration;
    use chameleon_core::ChameleonConfig;
    use chameleon_fleet::{FleetConfig, SessionCommand, SessionSpec};
    use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};
    use std::sync::Arc;

    fn sim_fleet(num_shards: usize, seed: u64) -> FleetEngine {
        let scenario = Arc::new(DomainIlScenario::generate(&DatasetSpec::core50_tiny(), 7));
        FleetEngine::new_sim(
            scenario,
            FleetConfig {
                num_shards,
                ..FleetConfig::default()
            },
            seed,
        )
    }

    fn spec(user: u64) -> SessionSpec {
        SessionSpec {
            learner: ChameleonConfig {
                long_term_capacity: 30,
                ..ChameleonConfig::default()
            },
            stream: StreamConfig::default(),
            learner_seed: user,
            stream_seed: user,
        }
    }

    #[test]
    fn parse_accepts_the_documented_grammar_and_rejects_the_rest() {
        assert_eq!(
            BalanceConfig::parse("periodic").unwrap().policy,
            PolicyKind::Periodic { every: 4 }
        );
        assert_eq!(
            BalanceConfig::parse("periodic:2").unwrap().policy,
            PolicyKind::Periodic { every: 2 }
        );
        assert_eq!(
            BalanceConfig::parse("steal:9").unwrap().policy,
            PolicyKind::Steal { queue_threshold: 9 }
        );
        assert!(BalanceConfig::parse("steal:0").is_err());
        assert!(BalanceConfig::parse("periodic:x").is_err());
        assert!(BalanceConfig::parse("roulette").is_err());
    }

    #[test]
    fn tick_executes_plans_and_counts_outcomes() {
        struct Plan(Vec<Migration>);
        impl BalancePolicy for Plan {
            fn name(&self) -> &'static str {
                "scripted"
            }
            fn plan(&mut self, _: &[ShardLoad], _: &[Vec<u64>]) -> Vec<Migration> {
                self.0.clone()
            }
        }

        let mut engine = sim_fleet(2, 11);
        for user in 0..4u64 {
            engine.create_blocking(user, spec(user)).unwrap();
            engine
                .command_blocking(user, SessionCommand::Step { batches: 2 })
                .unwrap();
        }
        engine.drain_pending();
        let from = engine.shard_of(0);
        let to = 1 - from;
        let mut balancer = Balancer::new(
            Box::new(Plan(vec![
                Migration {
                    session: 0,
                    from,
                    to,
                },
                // Already where it is asked to go: counted as skipped.
                Migration {
                    session: 1,
                    from: engine.shard_of(1),
                    to: engine.shard_of(1),
                },
                // Never created: skipped, not a hard failure.
                Migration {
                    session: 99,
                    from: 0,
                    to: 1,
                },
            ])),
            1,
        );
        let moved = balancer.tick(&mut engine);
        assert_eq!(moved, 1);
        assert_eq!(engine.shard_of(0), to);
        let c = balancer.counters();
        assert_eq!(c.rebalance_ticks, 1);
        assert_eq!(c.migrations_total, 1);
        assert_eq!(c.migrations_skipped, 2);
        assert_eq!(c.migration_failures, 0);
        // The moved session keeps training on the new shard.
        engine
            .command_blocking(0, SessionCommand::Step { batches: 2 })
            .unwrap();
        let events = engine.drain_pending();
        assert!(!events.is_empty());
    }

    #[test]
    fn on_op_honors_the_interval_and_deltas_reset_between_ticks() {
        let mut engine = sim_fleet(2, 3);
        for user in 0..6u64 {
            engine.create_blocking(user, spec(user)).unwrap();
        }
        engine.drain_pending();
        let mut balancer = BalanceConfig::parse("periodic:1").unwrap().build();
        balancer.interval_ops = 4;
        let mut ticks = 0;
        for _ in 0..8 {
            balancer.on_op(&mut engine);
            ticks = balancer.counters().rebalance_ticks;
        }
        assert_eq!(ticks, 2, "8 ops at interval 4 is exactly 2 ticks");
    }

    #[test]
    fn steal_policy_rescues_colocated_sessions_from_a_flood() {
        // Find a seed where at least two of sessions 0..6 share a shard
        // with session 0, flood session 0 with steps, and require the
        // stealing balancer to move a co-located session away.
        let mut engine = sim_fleet(2, 5);
        for user in 0..6u64 {
            engine.create_blocking(user, spec(user)).unwrap();
        }
        engine.drain_pending();
        let flood_shard = engine.shard_of(0);
        assert!(
            engine.sessions_on(flood_shard).len() >= 2,
            "test setup needs a co-located session"
        );
        let mut balancer = BalanceConfig::parse("steal:4").unwrap().build();
        // Flood: only session 0 does work.
        for _ in 0..12 {
            engine
                .command_blocking(0, SessionCommand::Step { batches: 2 })
                .unwrap();
        }
        engine.drain_pending();
        let moved = balancer.tick(&mut engine);
        assert!(moved >= 1, "stealing must fire under a single-user flood");
        assert!(engine.migrations() >= 1);
        assert!(engine.placement_overrides() >= 1);
        assert!(
            engine.sessions_on(flood_shard).len() < 6,
            "a session must have left the flooded shard"
        );
    }
}
