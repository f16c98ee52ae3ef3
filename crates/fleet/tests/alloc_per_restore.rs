//! Deterministic cost guard for restoring an evicted session.
//!
//! A counting global allocator (it applies to this test binary only, which
//! is why the guard lives in a file of its own) counts heap allocations
//! made by the test thread while a simulated fleet restores a RAM-cold
//! session. The shard keeps the stream cursor a session was evicted with,
//! so a restore costs the same wherever in its domain the session stopped;
//! replaying the stream to that position would allocate for every batch
//! drawn. The file also pins that learners share one frozen extractor and
//! that a restored head is built from its stored parameters alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use chameleon_core::{Chameleon, ChameleonConfig, ModelConfig};
use chameleon_fleet::{FleetConfig, FleetEngine, SessionCommand, SessionEventKind, SessionSpec};
use chameleon_nn::{FrozenExtractor, MlpHead};
use chameleon_stream::{DatasetSpec, DomainIlScenario, StreamConfig};
use chameleon_tensor::Prng;

struct Counting;

thread_local! {
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are passed through; the counter
// touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    COUNT.with(Cell::get)
}

const USER: u64 = 7;

/// A learner whose stores are full and hold the same number of samples
/// at both measured positions (Ms = 10 fills within the first 10 batches,
/// Ml = 1 on the first long-term update), so the restored state has one
/// shape and only the stream position differs.
fn spec() -> SessionSpec {
    SessionSpec {
        learner: ChameleonConfig {
            long_term_capacity: 1,
            ..ChameleonConfig::default()
        },
        stream: StreamConfig::default(),
        learner_seed: 3,
        stream_seed: 5,
    }
}

/// How a session leaves residency before the measured restore.
#[derive(Clone, Copy)]
enum Leave {
    /// An explicit Evict: the shard keeps the session's stream cursor.
    Evict,
    /// Export then Import: only the blob travels, so the restore replays.
    Handoff,
}

/// Steps a fresh session `batches` into domain 0 on a simulated fleet
/// (CORe50: 200 batches per domain), takes it out of residency, and
/// returns the allocations of the request that restores it.
fn restore_allocations(scenario: &Arc<DomainIlScenario>, batches: usize, leave: Leave) -> u64 {
    let mut fleet = FleetEngine::new_sim(Arc::clone(scenario), FleetConfig::default(), 1);
    fleet.create_blocking(USER, spec()).expect("create");
    fleet
        .command_blocking(USER, SessionCommand::Step { batches })
        .expect("step");
    match leave {
        Leave::Evict => {
            fleet
                .command_blocking(USER, SessionCommand::Evict)
                .expect("evict");
        }
        Leave::Handoff => {
            fleet
                .command_blocking(USER, SessionCommand::Export)
                .expect("export");
            let blob = fleet
                .drain_pending()
                .into_iter()
                .find_map(|e| match e.kind {
                    SessionEventKind::Exported(blob) => Some(blob),
                    _ => None,
                })
                .expect("exported");
            fleet.import_blocking(USER, blob).expect("import");
        }
    }
    let _ = fleet.drain_pending();
    let before = allocations();
    fleet
        .command_blocking(USER, SessionCommand::Step { batches: 0 })
        .expect("touch");
    let events = fleet.drain_pending();
    let made = allocations() - before;
    assert!(
        matches!(events[..], [ref e] if matches!(e.kind, SessionEventKind::Stepped { .. })),
        "{events:?}"
    );
    assert_eq!(fleet.metrics().restores(), 1);
    made
}

#[test]
fn a_ram_cold_restore_allocates_the_same_at_any_stream_position() {
    let scenario = Arc::new(DomainIlScenario::generate(&DatasetSpec::core50(), 1));
    // Warm the process-wide extractor memo so neither measurement pays
    // for building it.
    let _ = ModelConfig::for_spec(scenario.spec()).build_extractor();

    let early = restore_allocations(&scenario, 10, Leave::Evict);
    let late = restore_allocations(&scenario, 190, Leave::Evict);
    assert_eq!(
        early, late,
        "restoring with the evicted cursor depends on the position"
    );

    // The guard can see replay: without a cursor, each of the 180 extra
    // batches drawn during the fast-forward allocates.
    let replay_early = restore_allocations(&scenario, 10, Leave::Handoff);
    let replay_late = restore_allocations(&scenario, 190, Leave::Handoff);
    assert!(
        replay_late >= replay_early + 180,
        "replay restores: {replay_early} at 10 batches, {replay_late} at 190"
    );
}

#[test]
fn learners_share_one_extractor_and_restore_their_head_from_parameters() {
    let spec = DatasetSpec::core50_tiny();
    let model = ModelConfig::for_spec(&spec);
    let a = Chameleon::new(&model, ChameleonConfig::default(), 1);
    let b = Chameleon::new(&model.clone(), ChameleonConfig::default(), 2);
    assert!(a.extractor().shares_weights_with(b.extractor()));

    // The memoised extractor is the fixed-seed draw it replaces.
    let fresh = FrozenExtractor::deep(&[model.raw_dim, model.latent_dim], &mut Prng::new(0xF07AE0));
    assert_eq!(*a.extractor(), fresh);
    assert!(!a.extractor().shares_weights_with(&fresh));

    // A head built from stored parameters is the head a random init plus
    // `set_parameters` would give.
    let dims = [model.latent_dim, model.num_classes];
    let params = model.build_head(11).parameters();
    let mut expected = MlpHead::new(&dims, &mut Prng::new(99));
    expected.set_parameters(&params);
    assert_eq!(model.build_head_from_parameters(&params), Some(expected));

    // And a learner restored from a checkpoint shares the extractor too.
    let mut blob = Vec::new();
    a.save_checkpoint(&mut blob).expect("save");
    let restored =
        Chameleon::load_checkpoint(&model, ChameleonConfig::default(), 1, &blob[..]).expect("load");
    assert!(restored.extractor().shares_weights_with(a.extractor()));
}
