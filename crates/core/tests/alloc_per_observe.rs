//! Deterministic allocation guard for one Chameleon `observe`.
//!
//! A counting global allocator (it applies to this test binary only, which
//! is why the guard lives in a file of its own) counts heap allocations and
//! reallocations made by the test thread while a warmed learner observes
//! one batch. The count is a host-independent cost measure: a change that
//! clones replay rows again, or adds a per-step buffer, moves it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use chameleon_core::{Chameleon, ChameleonConfig, ModelConfig, Strategy};
use chameleon_stream::{Batch, DatasetSpec, DomainIlScenario, StreamConfig};

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

/// Warmed batches whose `observe` calls are counted.
const MEASURED: usize = 40;

/// Heap allocations of [`MEASURED`] `observe` calls on a warmed Ms=10,
/// Ml=500 learner at batch size 10 (the benchmark's edge-step cell), where
/// the long-term store is due, swept and updated on every batch. One call
/// makes 105–111: the spread is the number of distinct classes among the
/// short-term candidates, each of which costs one prototype.
const PINNED: u64 = 4328;

#[test]
fn a_warmed_observe_makes_a_fixed_number_of_allocations() {
    let spec = DatasetSpec::core50();
    let scenario = DomainIlScenario::generate(&spec, 1);
    let model = ModelConfig::for_spec(&spec);
    let config = ChameleonConfig {
        short_term_capacity: 10,
        long_term_capacity: 500,
        ..ChameleonConfig::default()
    };
    let mut learner = Chameleon::new(&model, config, 7);
    let stream = StreamConfig::default();
    assert_eq!(stream.batch_size, 10);
    let batches: Vec<Batch> = (0..3)
        .flat_map(|d| scenario.domain_stream(d, &stream, 11 + d as u64))
        .collect();
    let (warmup, measured) = batches.split_at(batches.len() - MEASURED);
    for batch in warmup {
        learner.observe(batch);
    }
    assert_eq!(learner.long_term_len(), 500, "long-term store not warm");

    let counts: Vec<u64> = measured
        .iter()
        .map(|batch| {
            let before = allocations();
            learner.observe(batch);
            allocations() - before
        })
        .collect();
    assert_eq!(
        counts.iter().sum::<u64>(),
        PINNED,
        "allocations per observe: {counts:?}"
    );
}
