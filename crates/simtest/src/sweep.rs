//! The seed-sweep driver every simulation schedule shares: check a
//! schedule over a seed range until the range or the wall-clock budget
//! runs out, tally the passing seeds, and keep every failure together
//! with the command that reproduces it.
//!
//! Sweeping trades per-seed depth for interleaving coverage: every seed
//! is a new op script, fault plan, shard count, and scheduler schedule.
//! The budget makes a sweep CI-safe — a slow machine checks fewer seeds
//! instead of timing out — while the report records exactly which
//! contiguous range was covered so a follow-up run can resume past it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chameleon_core::Precision;
use chameleon_stream::DomainIlScenario;

use crate::{balance, crash, explorer, multinode};

/// One seeded simulation schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Shard-count invariance and replay determinism of the lifecycle
    /// explorer ([`explorer::check_seed`]).
    Lifecycle,
    /// The lifecycle explorer with int8-quantized latents.
    Quantized,
    /// Kill-and-recover at every eviction boundary of a durable store
    /// ([`crash::check_crash_seed`]).
    Crash,
    /// Handoff/kill/router-restart schedules on a simulated cluster
    /// ([`multinode::check_route_seed`]).
    Route,
    /// Online migrations at seeded op boundaries
    /// ([`balance::check_balance_seed`]).
    Balance,
}

/// A passing seed, as the sweep tallies it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pass {
    /// The line a replay of this seed prints.
    pub line: String,
    /// Whether the seed ran under an injected fault plan.
    pub faulted: bool,
    /// The schedule's own counters, summed into [`SweepReport::totals`]
    /// in the order its summary line names them.
    pub counts: [u64; 4],
}

impl Schedule {
    /// Every schedule, in the order the CLI documents them.
    pub const ALL: [Schedule; 5] = [
        Schedule::Lifecycle,
        Schedule::Quantized,
        Schedule::Crash,
        Schedule::Route,
        Schedule::Balance,
    ];

    /// Prefix of the schedule's `chameleon simtest` flags:
    /// `--{prefix}seeds`, `--{prefix}start-seed` and `--{prefix}replay`.
    pub fn flag_prefix(self) -> &'static str {
        match self {
            Schedule::Lifecycle => "",
            Schedule::Quantized => "quantized-",
            Schedule::Crash => "crash-",
            Schedule::Route => "route-",
            Schedule::Balance => "balance-",
        }
    }

    /// The command that reproduces `seed` of this schedule. The quantized
    /// schedule has no replay flag; a one-seed sweep replays it.
    pub fn repro(self, seed: u64) -> String {
        match self {
            Schedule::Quantized => {
                format!("chameleon simtest --quantized-seeds 1 --quantized-start-seed {seed}")
            }
            _ => format!("chameleon simtest --{}replay {seed}", self.flag_prefix()),
        }
    }

    /// Checks one seed.
    ///
    /// # Errors
    ///
    /// The first invariant the seed violates, naming the seed.
    pub fn check(self, scenario: &Arc<DomainIlScenario>, seed: u64) -> Result<Pass, String> {
        Ok(match self {
            Schedule::Lifecycle | Schedule::Quantized => {
                let (precision, label) = match self {
                    Schedule::Quantized => (Precision::Int8, "quantized (int8) seed"),
                    _ => (Precision::F32, "seed"),
                };
                let o = explorer::check_seed_at(scenario, seed, precision)?;
                Pass {
                    line: format!(
                        "simtest: {label} {seed} OK — {} ops, {} shards, faulted {}, \
                         {} events, event digest {:#010x}, checkpoint crc {:#010x}",
                        o.ops, o.shards, o.faulted, o.events, o.event_digest, o.checkpoint_crc
                    ),
                    faulted: o.faulted,
                    counts: [o.events, 0, 0, 0],
                }
            }
            Schedule::Crash => {
                let o = crash::check_crash_seed(scenario, seed, &crash::default_scratch())?;
                Pass {
                    line: format!(
                        "simtest: crash seed {seed} OK — {} ops, {} eviction boundaries, \
                         {} session recoveries, {} record(s) lost to the hostile disk{}",
                        o.ops,
                        o.boundaries,
                        o.sessions_recovered,
                        o.records_lost,
                        if o.file_faulted {
                            " (file faults on)"
                        } else {
                            ""
                        }
                    ),
                    faulted: o.file_faulted,
                    counts: [o.boundaries as u64, o.sessions_recovered, o.records_lost, 0],
                }
            }
            Schedule::Route => {
                let o = multinode::check_route_seed(scenario, seed)?;
                Pass {
                    line: format!(
                        "simtest: route seed {seed} OK — {} ops on {} nodes, {} handoff(s), \
                         {} kill(s) re-homing {} session(s), {} router restart(s){}, \
                         log digest {:#010x}, checkpoint crc {:#010x}",
                        o.ops,
                        o.nodes,
                        o.handoffs,
                        o.kills,
                        o.recovered,
                        o.router_restarts,
                        if o.faulted { " (faulted)" } else { "" },
                        o.log_digest,
                        o.checkpoint_crc
                    ),
                    faulted: o.faulted,
                    counts: [o.handoffs, o.kills, o.recovered, o.router_restarts],
                }
            }
            Schedule::Balance => {
                let o = balance::check_balance_seed(scenario, seed)?;
                Pass {
                    line: format!(
                        "simtest: balance seed {seed} OK — {} ops on {} shards, \
                         {} migration(s), {} skipped{}, log digest {:#010x}, \
                         checkpoint crc {:#010x}",
                        o.ops,
                        o.shards,
                        o.migrations,
                        o.skipped,
                        if o.faulted { " (faulted)" } else { "" },
                        o.log_digest,
                        o.checkpoint_crc
                    ),
                    faulted: o.faulted,
                    counts: [o.migrations, o.skipped, 0, 0],
                }
            }
        })
    }
}

/// Outcome of one sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepReport {
    /// The schedule swept.
    pub schedule: Schedule,
    /// Seeds actually checked (contiguous from the start seed).
    pub checked: u64,
    /// Seeds that held every invariant.
    pub passed: u64,
    /// Passing seeds that ran under an injected fault plan.
    pub faulted: u64,
    /// [`Pass::counts`] summed over the passing seeds.
    pub totals: [u64; 4],
    /// `(seed, violation and repro command)` for every failing seed, in
    /// seed order.
    pub failures: Vec<(u64, String)>,
    /// Whether the budget ended the sweep before the range did.
    pub budget_exhausted: bool,
}

impl SweepReport {
    /// Whether every checked seed passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line summary `chameleon simtest` prints after a sweep.
    pub fn summary(&self) -> String {
        let (passed, checked, faulted) = (self.passed, self.checked, self.faulted);
        let [a, b, c, d] = self.totals;
        let line = match self.schedule {
            Schedule::Lifecycle => {
                format!("simtest: {passed}/{checked} seeds passed ({faulted} faulted, {a} events)")
            }
            Schedule::Quantized => format!(
                "simtest: {passed}/{checked} quantized (int8) seeds passed ({faulted} \
                 faulted, {a} events) — shard-count invariance and replay \
                 determinism hold with packed latents"
            ),
            Schedule::Crash => format!(
                "simtest: {passed}/{checked} crash seeds passed — {a} eviction \
                 boundaries killed and recovered, {b} session recoveries, \
                 {c} unsynced record(s) lost to hostile disks"
            ),
            Schedule::Route => format!(
                "simtest: {passed}/{checked} route seeds passed — {a} session(s) handed \
                 off, {b} node kill(s) re-homing {c} session(s) from shadows, \
                 {d} router restart(s) recovered bit-identically, \
                 {faulted} faulted case(s); every schedule matched its single-node reference"
            ),
            Schedule::Balance => format!(
                "simtest: {passed}/{checked} balance seeds passed — {a} online \
                 migration(s) performed, {b} skipped, {faulted} faulted case(s); \
                 every migration schedule matched its unmigrated reference bit for bit"
            ),
        };
        if self.budget_exhausted {
            format!("{line} — budget exhausted")
        } else {
            line
        }
    }
}

/// Sweeps `seeds` seeds of `schedule` from `start_seed`, stopping early
/// only when the budget runs out (at least one seed is always checked).
pub fn sweep(
    scenario: &Arc<DomainIlScenario>,
    schedule: Schedule,
    start_seed: u64,
    seeds: u64,
    budget: Option<Duration>,
) -> SweepReport {
    sweep_with(schedule, start_seed, seeds, budget, |seed| {
        schedule.check(scenario, seed)
    })
}

/// [`sweep`] with the per-seed check supplied by the caller.
fn sweep_with(
    schedule: Schedule,
    start_seed: u64,
    seeds: u64,
    budget: Option<Duration>,
    mut check: impl FnMut(u64) -> Result<Pass, String>,
) -> SweepReport {
    let started = Instant::now();
    let mut report = SweepReport {
        schedule,
        checked: 0,
        passed: 0,
        faulted: 0,
        totals: [0; 4],
        failures: Vec::new(),
        budget_exhausted: false,
    };
    for seed in start_seed..start_seed.saturating_add(seeds) {
        if let Some(budget) = budget {
            if report.checked > 0 && started.elapsed() >= budget {
                report.budget_exhausted = true;
                break;
            }
        }
        report.checked += 1;
        match check(seed) {
            Ok(pass) => {
                report.passed += 1;
                report.faulted += u64::from(pass.faulted);
                for (total, count) in report.totals.iter_mut().zip(pass.counts) {
                    *total += count;
                }
            }
            Err(violation) => report.failures.push((
                seed,
                format!("{violation}; reproduce with `{}`", schedule.repro(seed)),
            )),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_stream::DatasetSpec;

    fn scenario() -> Arc<DomainIlScenario> {
        Arc::new(DomainIlScenario::generate(
            &DatasetSpec::core50_tiny(),
            0x50AC,
        ))
    }

    #[test]
    fn sweep_covers_the_requested_range_and_passes() {
        let scenario = scenario();
        let mut seen = Vec::new();
        let report = sweep_with(Schedule::Lifecycle, 10, 3, None, |seed| {
            seen.push(seed);
            Schedule::Lifecycle.check(&scenario, seed)
        });
        assert_eq!(seen, vec![10, 11, 12]);
        assert_eq!(report.checked, 3);
        assert_eq!(report.passed, 3);
        assert!(report.all_passed(), "{:?}", report.failures);
        assert!(!report.budget_exhausted);
        assert!(report.faulted >= 1, "odd seed 11 should inject faults");
    }

    #[test]
    fn zero_budget_still_checks_at_least_one_seed() {
        let scenario = scenario();
        for schedule in Schedule::ALL {
            let report = sweep(&scenario, schedule, 0, 50, Some(Duration::ZERO));
            assert_eq!(
                report.checked, 1,
                "{schedule:?}: budget must not starve the sweep"
            );
            assert!(report.budget_exhausted, "{schedule:?}");
            assert!(report.summary().ends_with(" — budget exhausted"));
        }
    }

    #[test]
    fn a_failing_seed_carries_its_schedules_repro_command() {
        let repro = [
            (Schedule::Lifecycle, "`chameleon simtest --replay 7`"),
            (
                Schedule::Quantized,
                "`chameleon simtest --quantized-seeds 1 --quantized-start-seed 7`",
            ),
            (Schedule::Crash, "`chameleon simtest --crash-replay 7`"),
            (Schedule::Route, "`chameleon simtest --route-replay 7`"),
            (Schedule::Balance, "`chameleon simtest --balance-replay 7`"),
        ];
        for (schedule, command) in repro {
            let report = sweep_with(schedule, 6, 3, None, |seed| {
                if seed == 7 {
                    Err(format!("seed {seed} broke"))
                } else {
                    Ok(Pass {
                        line: String::new(),
                        faulted: false,
                        counts: [1, 0, 0, 0],
                    })
                }
            });
            assert_eq!(
                report.checked, 3,
                "{schedule:?}: a failure must not stop the sweep"
            );
            assert_eq!(report.passed, 2);
            assert_eq!(report.totals, [2, 0, 0, 0]);
            assert_eq!(report.failures.len(), 1);
            let (seed, message) = &report.failures[0];
            assert_eq!(*seed, 7);
            assert!(message.starts_with("seed 7 broke"), "{message}");
            assert!(message.contains(command), "{schedule:?}: {message}");
            assert_eq!(message.matches("reproduce with").count(), 1, "{message}");
        }
    }
}
