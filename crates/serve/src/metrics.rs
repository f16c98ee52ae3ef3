//! Serving-layer metrics: per-server counters and a log₂ latency
//! histogram, kept as atomics on the hot path and snapshotted into plain
//! structs for the wire and for reports.
//!
//! The histogram itself lives in `chameleon-obs` (one bucketing rule for
//! request latencies and span aggregates alike) and is re-exported here
//! for wire and client code.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

pub use chameleon_obs::{LatencyHistogram, LATENCY_BUCKETS};

/// Plain-struct snapshot of a server's counters, shipped inside
/// [`crate::wire::StatsSnapshot`] and printed by the CLI.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Connections the acceptor admitted.
    pub connections_accepted: u64,
    /// Connections fully closed (handled to completion, reaped idle, or
    /// turned away by the saturated acceptor).
    pub connections_closed: u64,
    /// CRC-valid frames read.
    pub frames_in: u64,
    /// Frames written.
    pub frames_out: u64,
    /// Bytes read off sockets (payloads plus framing overhead).
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Frames or payloads rejected by the decoder (bad magic, bad CRC,
    /// oversized prefix, malformed body).
    pub decode_rejects: u64,
    /// `RetryAfter` replies sent (fleet backpressure surfaced to clients,
    /// plus turn-aways from a saturated acceptor).
    pub backpressure_replies: u64,
    /// Requests answered with a success response.
    pub requests_ok: u64,
    /// Requests answered with a typed error.
    pub requests_failed: u64,
    /// End-to-end request latency (decode → response written).
    pub latency: LatencyHistogram,
}

impl ServeCounters {
    /// Every scalar counter (all but `latency`) by field name, in field
    /// order: the one list the observation (`serve.*`) and `--json` read.
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); 10] {
        [
            ("connections_accepted", self.connections_accepted),
            ("connections_closed", self.connections_closed),
            ("frames_in", self.frames_in),
            ("frames_out", self.frames_out),
            ("bytes_in", self.bytes_in),
            ("bytes_out", self.bytes_out),
            ("decode_rejects", self.decode_rejects),
            ("backpressure_replies", self.backpressure_replies),
            ("requests_ok", self.requests_ok),
            ("requests_failed", self.requests_failed),
        ]
    }
}

/// Shared, thread-safe counter block the acceptor, connection workers, and
/// engine thread all update.
#[derive(Debug, Default)]
pub(crate) struct ServeMetrics {
    pub connections_accepted: AtomicU64,
    pub connections_closed: AtomicU64,
    pub frames_in: AtomicU64,
    pub frames_out: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    pub decode_rejects: AtomicU64,
    pub backpressure_replies: AtomicU64,
    pub requests_ok: AtomicU64,
    pub requests_failed: AtomicU64,
    pub latency: Mutex<LatencyHistogram>,
}

impl ServeMetrics {
    pub(crate) fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn record_latency(&self, elapsed: Duration) {
        if let Ok(mut histogram) = self.latency.lock() {
            histogram.record(elapsed);
        }
    }

    pub(crate) fn snapshot(&self) -> ServeCounters {
        ServeCounters {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            decode_rejects: self.decode_rejects.load(Ordering::Relaxed),
            backpressure_replies: self.backpressure_replies.load(Ordering::Relaxed),
            requests_ok: self.requests_ok.load(Ordering::Relaxed),
            requests_failed: self.requests_failed.load(Ordering::Relaxed),
            latency: self.latency.lock().map(|h| h.clone()).unwrap_or_default(),
        }
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
            std::mem::size_of::<ServeCounters>(),
            8 * ServeCounters::default().named().len() + std::mem::size_of::<LatencyHistogram>()
        );
    }

    // The histogram's own boundary/quantile/merge tests live with its
    // implementation in `chameleon-obs`; here we only pin that the
    // serving layer records end-to-end latencies through the shared
    // (fixed) bucketing rule.
    #[test]
    fn record_latency_uses_the_shared_log2_mapping() {
        let metrics = ServeMetrics::default();
        metrics.record_latency(Duration::from_micros(1)); // bucket 0: < 2 µs
        metrics.record_latency(Duration::from_micros(2)); // bucket 1: [2, 4) µs
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.latency.buckets[0], 1);
        assert_eq!(snapshot.latency.buckets[1], 1);
        assert_eq!(snapshot.latency.count(), 2);
        const { assert!(LATENCY_BUCKETS >= 2) };
    }
}
