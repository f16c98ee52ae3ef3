//! Bounded FIFO buffer with random replacement support.

use chameleon_tensor::Prng;

use crate::{AccessStats, StoredSample};

/// A small bounded buffer supporting FIFO insertion *and* replace-at-random
/// — the container for Chameleon's short-term store `M_s`.
///
/// The paper's Algorithm 1 line 10 replaces a *uniformly random* short-term
/// slot with the selected incoming element once the store is full
/// (`replace(m_s, b_t)`), which [`RingBuffer::replace_random`] implements;
/// before that, plain pushes fill the store.
#[derive(Clone, Debug)]
pub struct RingBuffer {
    items: Vec<StoredSample>,
    capacity: usize,
    next_fifo: usize,
    stats: AccessStats,
}

impl RingBuffer {
    /// Creates an empty buffer of at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        Self {
            items: Vec::with_capacity(capacity),
            capacity,
            next_fifo: 0,
            stats: AccessStats::new(),
        }
    }

    /// Pushes a sample FIFO-style: appends while below capacity, then
    /// overwrites the oldest slot.
    pub fn push(&mut self, sample: StoredSample) {
        self.stats.sample_writes += 1;
        if self.items.len() < self.capacity {
            self.items.push(sample);
        } else {
            self.items[self.next_fifo] = sample;
            self.next_fifo = (self.next_fifo + 1) % self.capacity;
        }
    }

    /// Replaces a uniformly random stored sample with `sample`, returning
    /// the evicted one; appends instead while below capacity (returning
    /// `None`).
    pub fn replace_random(&mut self, sample: StoredSample, rng: &mut Prng) -> Option<StoredSample> {
        self.stats.sample_writes += 1;
        if self.items.len() < self.capacity {
            self.items.push(sample);
            return None;
        }
        let i = rng.below(self.items.len());
        Some(std::mem::replace(&mut self.items[i], sample))
    }

    /// Removes and returns the sample at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn take(&mut self, index: usize) -> StoredSample {
        assert!(index < self.items.len(), "index {index} out of bounds");
        self.stats.sample_reads += 1;
        let s = self.items.swap_remove(index);
        self.next_fifo = 0;
        s
    }

    /// Reads the entire buffer contents (Chameleon sweeps the whole
    /// short-term store for every new sample), counting one read per
    /// sample.
    pub fn read_all(&mut self) -> &[StoredSample] {
        self.stats.sample_reads += self.items.len() as u64;
        &self.items
    }

    /// Reads the buffer like [`RingBuffer::read_all`], but first evicts
    /// every sample whose integrity checksum no longer matches its contents
    /// (memory-upset quarantine). Evictions are counted in
    /// [`AccessStats::corrupt_evictions`]; only surviving samples count as
    /// reads.
    pub fn read_all_verified(&mut self) -> &[StoredSample] {
        self.purge_corrupt();
        self.read_all()
    }

    /// Removes every sample failing its integrity check, returning how many
    /// were evicted and recording them in the corrupt-eviction counter.
    pub fn purge_corrupt(&mut self) -> usize {
        let before = self.items.len();
        self.items.retain(|s| s.integrity_ok());
        let evicted = before - self.items.len();
        self.stats.corrupt_evictions += evicted as u64;
        if evicted > 0 {
            self.next_fifo = 0;
        }
        evicted
    }

    /// Borrow stored samples without counting a replay read.
    pub fn items(&self) -> &[StoredSample] {
        &self.items
    }

    /// Mutable access to stored samples, for in-place fault injection.
    /// Does not count replay reads or writes.
    pub fn samples_mut(&mut self) -> impl Iterator<Item = &mut StoredSample> {
        self.items.iter_mut()
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
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

    fn sample(i: usize) -> StoredSample {
        StoredSample::latent(vec![i as f32], 0)
    }

    #[test]
    fn push_fifo_overwrites_oldest() {
        let mut b = RingBuffer::new(3);
        for i in 0..5 {
            b.push(sample(i));
        }
        let vals: Vec<f32> = b.items().iter().map(|s| s.features[0]).collect();
        // 0,1,2 then 3 overwrites slot0, 4 overwrites slot1 → [3,4,2].
        assert_eq!(vals, vec![3.0, 4.0, 2.0]);
    }

    #[test]
    fn replace_random_keeps_size_and_returns_evicted() {
        let mut rng = Prng::new(0);
        let mut b = RingBuffer::new(4);
        for i in 0..4 {
            assert!(b.replace_random(sample(i), &mut rng).is_none());
        }
        let evicted = b.replace_random(sample(99), &mut rng);
        assert!(evicted.is_some());
        assert_eq!(b.len(), 4);
        assert!(b.items().iter().any(|s| s.features[0] == 99.0));
    }

    #[test]
    fn replace_random_hits_every_slot_eventually() {
        let mut rng = Prng::new(1);
        let mut b = RingBuffer::new(4);
        for i in 0..4 {
            b.push(sample(i));
        }
        for i in 100..200 {
            b.replace_random(sample(i), &mut rng);
        }
        assert!(b.items().iter().all(|s| s.features[0] >= 100.0));
    }

    #[test]
    fn read_all_counts_reads() {
        let mut b = RingBuffer::new(3);
        b.push(sample(0));
        b.push(sample(1));
        let all = b.read_all();
        assert_eq!(all.len(), 2);
        assert_eq!(b.stats().sample_reads, 2);
        assert_eq!(b.stats().sample_writes, 2);
    }

    #[test]
    fn take_removes_sample() {
        let mut b = RingBuffer::new(3);
        b.push(sample(0));
        b.push(sample(1));
        let t = b.take(0);
        assert_eq!(t.features[0], 0.0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn read_all_verified_quarantines_corruption() {
        let mut b = RingBuffer::new(4);
        for i in 0..3 {
            b.push(sample(i));
        }
        // Corrupt one slot in place without resealing.
        for (i, s) in b.samples_mut().enumerate() {
            if i == 1 {
                s.features[0] = f32::from_bits(s.features[0].to_bits() ^ 1);
            }
        }
        let survivors = b.read_all_verified();
        assert_eq!(survivors.len(), 2);
        assert!(survivors.iter().all(|s| s.integrity_ok()));
        assert_eq!(b.len(), 2);
        assert_eq!(b.stats().corrupt_evictions, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn take_out_of_bounds_panics() {
        let mut b = RingBuffer::new(2);
        b.push(sample(0));
        let _ = b.take(5);
    }
}
