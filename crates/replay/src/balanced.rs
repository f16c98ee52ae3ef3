//! Class-balanced buffer (Chameleon's long-term store container).

use std::collections::BTreeMap;

use chameleon_stream::ConfigError;
use chameleon_tensor::Prng;

use crate::{AccessStats, StoredSample};

/// A bounded buffer that keeps an (approximately) equal number of samples
/// per class — the paper's long-term store `M_l` stores "an equal number of
/// samples for each class" to preserve a holistic snapshot of the whole
/// class distribution.
///
/// Insertion policy when full:
///
/// * if the incoming sample's class is *under-represented* (below the
///   per-class quota), a slot is freed by evicting a random sample from the
///   currently *largest* class,
/// * otherwise a random sample **of the same class** is replaced
///   (Algorithm 1 line 14, `replace(m_l^c, m_s^c)`) — *with reservoir
///   acceptance*: the replacement happens with probability
///   `slots_c / offers_c`, so each class's slots remain a uniform sample
///   of everything that class ever offered. Unconditional replacement
///   would bias the store exponentially toward recent domains, defeating
///   its stated purpose of "retaining cumulative information of all
///   classes" (§II); see DESIGN.md for this fidelity note.
#[derive(Clone, Debug)]
pub struct ClassBalancedBuffer {
    /// Per-class sample lists; `BTreeMap` keeps iteration deterministic.
    by_class: BTreeMap<usize, Vec<StoredSample>>,
    /// Per-class lifetime offer counts (reservoir denominators).
    offers: BTreeMap<usize, u64>,
    capacity: usize,
    len: usize,
    stats: AccessStats,
}

impl ClassBalancedBuffer {
    /// Creates an empty buffer of at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`; use [`ClassBalancedBuffer::try_new`]
    /// for a `Result`-based validator.
    pub fn new(capacity: usize) -> Self {
        Self::try_new(capacity).expect("buffer capacity must be positive")
    }

    /// Creates an empty buffer, rejecting `capacity == 0` with a
    /// [`ConfigError`] in the same shape as the stream/dataset
    /// validators.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `capacity == 0`.
    pub fn try_new(capacity: usize) -> Result<Self, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError {
                field: "capacity",
                requirement: "must be positive",
            });
        }
        Ok(Self {
            by_class: BTreeMap::new(),
            offers: BTreeMap::new(),
            capacity,
            len: 0,
            stats: AccessStats::new(),
        })
    }

    /// Offers a sample under the class-balancing policy, returning the
    /// evicted sample if a replacement happened. Once the buffer is full
    /// and the class is at quota, acceptance follows per-class reservoir
    /// probabilities (see the type docs).
    pub fn insert(&mut self, sample: StoredSample, rng: &mut Prng) -> Option<StoredSample> {
        let class = sample.label;
        *self.offers.entry(class).or_insert(0) += 1;
        if self.len < self.capacity {
            self.by_class.entry(class).or_default().push(sample);
            self.len += 1;
            self.stats.sample_writes += 1;
            return None;
        }

        let class_count = self.by_class.get(&class).map_or(0, Vec::len);
        let largest = self.largest_class().expect("buffer is non-empty when full");
        let evicted = if class_count < self.by_class[&largest].len() && largest != class {
            // Under-represented class: free a slot from the largest class.
            let list = self.by_class.get_mut(&largest).expect("largest exists");
            let i = rng.below(list.len());
            let out = list.swap_remove(i);
            if list.is_empty() {
                self.by_class.remove(&largest);
            }
            self.by_class.entry(class).or_default().push(sample);
            self.stats.sample_writes += 1;
            out
        } else if class_count > 0 {
            // Same-class replacement with reservoir acceptance: keep each
            // class's slots a uniform sample of its offer history.
            // `offers` is a lifetime counter: draw in the u64 domain so
            // 32-bit targets do not truncate past 2³² offers.
            let offers = self.offers[&class];
            let accept = rng.below_u64(offers) < class_count as u64;
            if !accept {
                return None;
            }
            let list = self.by_class.get_mut(&class).expect("class has samples");
            let i = rng.below(list.len());
            self.stats.sample_writes += 1;
            std::mem::replace(&mut list[i], sample)
        } else {
            // Degenerate tiny buffer: evict from the largest class.
            let list = self.by_class.get_mut(&largest).expect("largest exists");
            let i = rng.below(list.len());
            let out = list.swap_remove(i);
            if list.is_empty() {
                self.by_class.remove(&largest);
            }
            self.by_class.entry(class).or_default().push(sample);
            self.stats.sample_writes += 1;
            out
        };
        Some(evicted)
    }

    /// Draws up to `k` samples uniformly at random across the whole buffer.
    pub fn sample_batch(&mut self, k: usize, rng: &mut Prng) -> Vec<&StoredSample> {
        let flat: Vec<&StoredSample> = self.by_class.values().flatten().collect();
        let idx = rng.sample_without_replacement(flat.len(), k);
        self.stats.sample_reads += idx.len() as u64;
        idx.into_iter().map(|i| flat[i]).collect()
    }

    /// Removes every sample failing its integrity check, returning how many
    /// were evicted and recording them in the corrupt-eviction counter.
    /// Reservoir offer counts are left untouched: a quarantined slot was a
    /// legitimate reservoir member until the upset destroyed it.
    pub fn purge_corrupt(&mut self) -> usize {
        let mut evicted = 0;
        self.by_class.retain(|_, list| {
            let before = list.len();
            list.retain(|s| s.integrity_ok());
            evicted += before - list.len();
            !list.is_empty()
        });
        self.len -= evicted;
        self.stats.corrupt_evictions += evicted as u64;
        evicted
    }

    /// Fraction of stored samples whose integrity checksum still matches
    /// (1.0 for an empty buffer). Does not count replay reads.
    pub fn integrity_fraction(&self) -> f64 {
        if self.len == 0 {
            return 1.0;
        }
        let valid = self.iter().filter(|s| s.integrity_ok()).count();
        valid as f64 / self.len as f64
    }

    /// Mutable access to stored samples, for in-place fault injection.
    /// Does not count replay reads or writes.
    pub fn samples_mut(&mut self) -> impl Iterator<Item = &mut StoredSample> {
        self.by_class.values_mut().flatten()
    }

    /// Borrow the samples of one class (empty slice if none).
    pub fn samples_of_class(&self, class: usize) -> &[StoredSample] {
        self.by_class.get(&class).map_or(&[], Vec::as_slice)
    }

    /// Classes currently present, in ascending order.
    pub fn classes(&self) -> Vec<usize> {
        self.by_class.keys().copied().collect()
    }

    /// Per-class sample count.
    pub fn class_count(&self, class: usize) -> usize {
        self.by_class.get(&class).map_or(0, Vec::len)
    }

    /// The class holding the most samples.
    pub fn largest_class(&self) -> Option<usize> {
        self.by_class
            .iter()
            .max_by_key(|(_, v)| v.len())
            .map(|(&c, _)| c)
    }

    /// Total stored samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterate over all stored samples (deterministic class order).
    pub fn iter(&self) -> impl Iterator<Item = &StoredSample> {
        self.by_class.values().flatten()
    }

    /// Access counters accumulated so far.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Overwrites the access counters — used when restoring a checkpointed
    /// session so lifetime traffic/quarantine counts survive eviction.
    pub fn restore_stats(&mut self, stats: AccessStats) {
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(class: usize, v: f32) -> StoredSample {
        StoredSample::latent(vec![v], class)
    }

    #[test]
    fn fills_below_capacity_without_eviction() {
        let mut rng = Prng::new(0);
        let mut b = ClassBalancedBuffer::new(10);
        for i in 0..10 {
            assert!(b.insert(sample(i % 3, i as f32), &mut rng).is_none());
        }
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn stays_bounded_and_balanced_under_skewed_input() {
        let mut rng = Prng::new(1);
        let mut b = ClassBalancedBuffer::new(12);
        // Feed 90% class 0, 10% spread over classes 1..=3.
        for i in 0..400 {
            let class = if i % 10 == 0 { 1 + (i / 10) % 3 } else { 0 };
            b.insert(sample(class, i as f32), &mut rng);
        }
        assert_eq!(b.len(), 12);
        // Despite the skew, no class should dominate: each of the four
        // classes observed should hold ≥ 1 and ≤ 6 slots.
        for class in 0..4 {
            let c = b.class_count(class);
            assert!(c >= 1, "class {class} starved: {c}");
            assert!(c <= 6, "class {class} dominates: {c}");
        }
    }

    #[test]
    fn same_class_replacement_keeps_other_classes_intact() {
        let mut rng = Prng::new(2);
        let mut b = ClassBalancedBuffer::new(4);
        b.insert(sample(0, 1.0), &mut rng);
        b.insert(sample(0, 2.0), &mut rng);
        b.insert(sample(1, 3.0), &mut rng);
        b.insert(sample(1, 4.0), &mut rng);
        // Buffer full and balanced; offering class 0 may only ever evict
        // class 0, and the per-class counts never change.
        let mut replaced = 0;
        for i in 0..20 {
            if let Some(evicted) = b.insert(sample(0, 10.0 + i as f32), &mut rng) {
                assert_eq!(evicted.label, 0);
                replaced += 1;
            }
            assert_eq!(b.class_count(0), 2);
            assert_eq!(b.class_count(1), 2);
        }
        assert!(
            replaced > 0,
            "reservoir acceptance never fired in 20 offers"
        );
    }

    #[test]
    fn within_class_content_is_reservoir_uniform() {
        // Offer 100 class-0 samples to a 2-slot class; early samples should
        // survive with probability ≈ 2/100 — i.e. sometimes, not never.
        let trials = 300;
        let mut early_survivals = 0;
        for t in 0..trials {
            let mut rng = Prng::new(t);
            let mut b = ClassBalancedBuffer::new(2);
            for i in 0..100 {
                b.insert(sample(0, i as f32), &mut rng);
            }
            if b.samples_of_class(0).iter().any(|s| s.features[0] < 10.0) {
                early_survivals += 1;
            }
        }
        // P(early sample among the 2 kept) ≈ 1 − C(90,2)/C(100,2) ≈ 0.19.
        let p = early_survivals as f32 / trials as f32;
        assert!(p > 0.08 && p < 0.35, "early survival rate {p}");
    }

    #[test]
    fn under_represented_class_steals_from_largest() {
        let mut rng = Prng::new(3);
        let mut b = ClassBalancedBuffer::new(4);
        for i in 0..4 {
            b.insert(sample(0, i as f32), &mut rng);
        }
        let evicted = b.insert(sample(1, 100.0), &mut rng).expect("full");
        assert_eq!(evicted.label, 0);
        assert_eq!(b.class_count(1), 1);
        assert_eq!(b.class_count(0), 3);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn sample_batch_draws_across_classes() {
        let mut rng = Prng::new(4);
        let mut b = ClassBalancedBuffer::new(9);
        for class in 0..3 {
            for v in 0..3 {
                b.insert(sample(class, v as f32), &mut rng);
            }
        }
        let batch = b.sample_batch(9, &mut rng);
        assert_eq!(batch.len(), 9);
        for class in 0..3 {
            assert_eq!(batch.iter().filter(|s| s.label == class).count(), 3);
        }
    }

    #[test]
    fn len_invariant_holds_under_random_workload() {
        let mut rng = Prng::new(5);
        let mut b = ClassBalancedBuffer::new(7);
        for i in 0..500 {
            let class = rng.below(5);
            b.insert(sample(class, i as f32), &mut rng);
            let total: usize = b.classes().iter().map(|&c| b.class_count(c)).sum();
            assert_eq!(total, b.len());
            assert!(b.len() <= 7);
        }
        assert_eq!(b.len(), 7);
    }

    #[test]
    fn purge_corrupt_evicts_only_damaged_slots() {
        let mut rng = Prng::new(7);
        let mut b = ClassBalancedBuffer::new(6);
        for class in 0..3 {
            for v in 0..2 {
                b.insert(sample(class, v as f32), &mut rng);
            }
        }
        assert_eq!(b.integrity_fraction(), 1.0);
        // Corrupt both samples of class 1 without resealing.
        for s in b.samples_mut() {
            if s.label == 1 {
                s.features[0] += 1000.0;
            }
        }
        assert!(b.integrity_fraction() < 1.0);
        let evicted = b.purge_corrupt();
        assert_eq!(evicted, 2);
        assert_eq!(b.len(), 4);
        assert_eq!(b.class_count(1), 0);
        assert_eq!(b.classes(), vec![0, 2]);
        assert_eq!(b.stats().corrupt_evictions, 2);
        assert_eq!(b.integrity_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = ClassBalancedBuffer::new(0);
    }

    #[test]
    fn try_new_rejects_zero_capacity_with_config_error() {
        let err = ClassBalancedBuffer::try_new(0).unwrap_err();
        assert_eq!(err.field, "capacity");
        assert!(ClassBalancedBuffer::try_new(1).is_ok());
    }

    #[test]
    fn stats_track_access() {
        let mut rng = Prng::new(6);
        let mut b = ClassBalancedBuffer::new(3);
        b.insert(sample(0, 0.0), &mut rng);
        b.insert(sample(1, 1.0), &mut rng);
        let _ = b.sample_batch(2, &mut rng);
        assert_eq!(b.stats().sample_writes, 2);
        assert_eq!(b.stats().sample_reads, 2);
    }
}
