//! `chameleon-simtest` — deterministic simulation testing for the
//! fleet/serve stack, in the FoundationDB style.
//!
//! A single `u64` seed pins a complete test case end to end: the op
//! script a fleet engine executes ([`script`]), the fault plan it runs
//! under, the shard count, and — through the engine's own seeded
//! [`chameleon_runtime::SimScheduler`] — every queue-drain interleaving
//! and virtual-clock reading inside it. Re-running a seed reproduces a
//! failure bit for bit; sweeping seeds explores interleavings that a
//! wall-clock threaded run would only hit by luck.
//!
//! The crate is organised as:
//!
//! - [`script`] — seeded generation of session-lifecycle op scripts and
//!   the fault plans / session specs that ride along;
//! - [`digest`] — stable byte encodings and CRC32 digests of every
//!   observable (events, checkpoint blobs, evaluation reports);
//! - the op runner (private) — one way every schedule submits a script
//!   op, probes the touched session, collects and digests final
//!   checkpoints, and replays an interruption trace as local `Evict`s
//!   for the reference run;
//! - the five schedules, each a `check(seed)`:
//!   - [`explorer`] — the invariant checker: one seed ⇒ the same script
//!     on a 1-shard engine, a K-shard engine, and a same-seed replay,
//!     asserting shard-count invariance after every prefix and replay
//!     determinism at the end (also run with int8-quantized latents);
//!   - [`crash`] — the durable-store crash schedule: kill a
//!     store-attached engine at every eviction boundary (optionally on a
//!     hostile disk), recover, and assert every session comes back to
//!     exactly its last sealed checkpoint with bit-identical subsequent
//!     training;
//!   - [`multinode`] — the routing explorer: handoffs, node kills and
//!     router restarts on a simulated cluster, proven observably
//!     identical to one node with local evictions at the same
//!     boundaries;
//!   - [`balance`] — the migration-schedule explorer: online session
//!     migrations (the `chameleon-balance` primitive) injected at seeded
//!     op boundaries, proven observably identical to local evictions at
//!     the same boundaries;
//! - [`sweep`](mod@sweep) — the one budgeted seed sweep that runs every schedule,
//!   with each schedule's replay line, summary line and repro command;
//! - [`golden`] — the committed conformance corpus that pins wire
//!   frames, checkpoint bytes, and metric digests against silent format
//!   drift.
//!
//! The `chameleon simtest` CLI subcommand maps its flags onto a
//! [`Schedule`] sweep or one-seed replay, and fronts the golden corpus
//! gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balance;
pub mod crash;
pub mod digest;
pub mod explorer;
pub mod golden;
pub mod multinode;
mod run;
pub mod script;
pub mod sweep;

pub use balance::{check_balance_seed, migration_plan, BalanceSeedOutcome};
pub use crash::{check_crash_seed, CrashOutcome};
pub use digest::{digest_events, digest_spans, encode_event, ShardScope};
pub use explorer::{check_seed, check_seed_at, SeedOutcome};
pub use golden::{
    derive_corpus, diff, golden_scenario, parse, render, GoldenFile, GOLDEN_FILE_NAMES,
};
pub use multinode::{check_route_seed, disruption_plan, Disruption, RouteSeedOutcome};
pub use script::{generate, Op};
pub use sweep::{sweep, Pass, Schedule, SweepReport};
