//! Seeded inputs. Everything the benchmark draws comes from the program's
//! own `SimRng`/`splitmix64` streams, so the same seed always yields the
//! same inputs.

use chameleon_runtime::{splitmix64, SimRng};

/// Generation seed of the synthetic CORe50-NI dataset every workload runs
/// on. The dataset is fixed, like a real one; `--seed` varies what is drawn
/// from it (stream order, learner initialisation, session draws).
pub const DATASET_SEED: u64 = 0xDA7A;

/// A seed derived from the run's `seed` for one purpose, named by `salt`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt))
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(rng: &mut SimRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}
