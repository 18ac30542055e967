//! Event-loop instrumentation.
//!
//! Runtime counters/gauges live in the shared [`mptcp_telemetry::Recorder`]
//! (the `Rt*` ids) so one snapshot carries both protocol-level and
//! loop-level signals. Tick skew — how late a wall-clock tick fired
//! relative to the deadline `poll_at` asked for — additionally feeds a
//! [`LogHistogram`] so the loop can report p50/p99/max latency without
//! retaining per-sample memory. JSON output iterates the registry's
//! `rt_*` rows, so the runtime JSON, Prometheus exposition, and
//! `RunReport` all read the same names from the same ids and cannot drift.

use mptcp_packet::PoolStats;
use mptcp_telemetry::json::Writer;
use mptcp_telemetry::{CounterId, GaugeId, LogHistogram, Recorder};

/// The ids the runtime loop itself owns are the registry's `rt_*` rows.
fn is_runtime(name: &str) -> bool {
    name.starts_with("rt_")
}

/// Loop instrumentation: shared recorder plus the tick-skew histogram.
pub struct RuntimeStats {
    /// Counters and gauges, absorbed into connection snapshots on report.
    pub rec: Recorder,
    skew: LogHistogram,
    /// Pool totals already mirrored into the recorder, so repeated
    /// [`RuntimeStats::sync_pool`] calls add only the delta.
    pool_hits_seen: u64,
    pool_misses_seen: u64,
}

impl RuntimeStats {
    pub fn new() -> RuntimeStats {
        RuntimeStats {
            rec: Recorder::new(),
            skew: LogHistogram::new(),
            pool_hits_seen: 0,
            pool_misses_seen: 0,
        }
    }

    /// Mirror buffer-pool statistics into the shared recorder: cumulative
    /// hit/miss counters plus two gauges — `rt_pool_outstanding` (buffers
    /// checked out right now) and `rt_pool_high_water` (the pool's own
    /// atomically-tracked peak, exact even between sync points).
    pub fn sync_pool(&mut self, s: PoolStats) {
        self.rec
            .count_n(CounterId::RtPoolHits, s.hits - self.pool_hits_seen);
        self.rec
            .count_n(CounterId::RtPoolMisses, s.misses - self.pool_misses_seen);
        self.pool_hits_seen = s.hits;
        self.pool_misses_seen = s.misses;
        self.rec
            .gauge_set(GaugeId::RtPoolOutstanding, s.outstanding);
        self.rec.gauge_set(GaugeId::RtPoolHighWater, s.high_water);
    }

    /// Record a late tick: the loop woke `skew_ns` after the promised
    /// deadline. Updates the counter, the high-water gauge, and the
    /// histogram.
    pub fn record_late_tick(&mut self, skew_ns: u64) {
        self.rec.count(CounterId::RtLateTicks);
        self.rec.gauge_set(GaugeId::RtTickSkewNs, skew_ns);
        self.skew.record(skew_ns);
    }

    /// Number of late-tick samples recorded.
    pub fn skew_samples(&self) -> u64 {
        self.skew.samples()
    }

    /// Worst observed skew in nanoseconds.
    pub fn skew_max_ns(&self) -> u64 {
        self.skew.max()
    }

    /// Skew at quantile `q` (0.0..=1.0). Zero when no sample was recorded.
    pub fn skew_quantile_ns(&self, q: f64) -> u64 {
        self.skew.quantile(q)
    }

    /// The tick-skew histogram itself (for exposition summaries).
    pub fn skew_hist(&self) -> &LogHistogram {
        &self.skew
    }

    /// JSON object fragment with the loop's numbers (no braces; callers
    /// splice it into a larger object). Keys come straight from the
    /// telemetry registry: every `rt_*` counter under its `name()`, every
    /// `rt_*` gauge as `<name>` (current) plus `<name>_peak` (high-water),
    /// then the skew quantiles.
    pub fn json_fields(&self) -> String {
        let mut w = Writer::new();
        for id in CounterId::ALL
            .into_iter()
            .filter(|id| is_runtime(id.name()))
        {
            w.key(id.name()).raw(self.rec.counter(id));
        }
        for id in GaugeId::ALL.into_iter().filter(|id| is_runtime(id.name())) {
            let g = self.rec.gauge(id);
            w.key(id.name()).raw(g.current);
            w.key(&format!("{}_peak", id.name())).raw(g.max);
        }
        w.key("rt_tick_skew_p50_ns").raw(self.skew.quantile(0.50));
        w.key("rt_tick_skew_p99_ns").raw(self.skew.quantile(0.99));
        w.key("rt_tick_skew_max_ns").raw(self.skew.max());
        w.finish()
    }
}

impl Default for RuntimeStats {
    fn default() -> Self {
        RuntimeStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_bucketed_samples() {
        let mut s = RuntimeStats::new();
        for _ in 0..99 {
            s.record_late_tick(1_000);
        }
        s.record_late_tick(1_000_000);
        assert_eq!(s.skew_samples(), 100);
        assert_eq!(s.skew_max_ns(), 1_000_000);
        let p50 = s.skew_quantile_ns(0.50);
        assert!((512..=2048).contains(&p50), "p50 {p50}");
        // p99 rank lands on the 99th of the small samples.
        assert!(s.skew_quantile_ns(0.99) <= 2048);
        assert!(s.skew_quantile_ns(1.0) >= 524_288);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = RuntimeStats::new();
        assert_eq!(s.skew_quantile_ns(0.99), 0);
        assert_eq!(s.skew_max_ns(), 0);
    }

    #[test]
    fn sync_pool_splits_outstanding_and_high_water() {
        let mut s = RuntimeStats::new();
        s.sync_pool(PoolStats {
            hits: 10,
            misses: 2,
            outstanding: 3,
            high_water: 7,
        });
        assert_eq!(s.rec.gauge(GaugeId::RtPoolOutstanding).current, 3);
        assert_eq!(s.rec.gauge(GaugeId::RtPoolHighWater).current, 7);
        assert_eq!(s.rec.counter(CounterId::RtPoolHits), 10);
        // A second sync adds only the delta and tracks the new currents.
        s.sync_pool(PoolStats {
            hits: 14,
            misses: 2,
            outstanding: 1,
            high_water: 9,
        });
        assert_eq!(s.rec.counter(CounterId::RtPoolHits), 14);
        assert_eq!(s.rec.gauge(GaugeId::RtPoolOutstanding).current, 1);
        assert_eq!(s.rec.gauge(GaugeId::RtPoolOutstanding).max, 3);
        assert_eq!(s.rec.gauge(GaugeId::RtPoolHighWater).current, 9);
    }

    /// The runtime's own ids are the `rt_*` tail of the registry, in
    /// registry order: the key list of the report JSON is pinned in full.
    #[test]
    fn json_field_keys_are_pinned() {
        let json = RuntimeStats::new().json_fields();
        let keys: Vec<&str> = json
            .split(',')
            .map(|kv| kv.split(':').next().unwrap())
            .collect();
        assert_eq!(
            keys,
            [
                "\"rt_loop_iterations\"",
                "\"rt_recv_batches\"",
                "\"rt_send_batches\"",
                "\"rt_datagrams_rx\"",
                "\"rt_datagrams_tx\"",
                "\"rt_recv_calls\"",
                "\"rt_send_calls\"",
                "\"rt_decode_errors\"",
                "\"rt_egress_backpressure\"",
                "\"rt_late_ticks\"",
                "\"rt_pool_hits\"",
                "\"rt_pool_misses\"",
                "\"rt_admin_requests\"",
                "\"rt_egress_queue_depth\"",
                "\"rt_egress_queue_depth_peak\"",
                "\"rt_tick_skew_ns\"",
                "\"rt_tick_skew_ns_peak\"",
                "\"rt_pool_outstanding\"",
                "\"rt_pool_outstanding_peak\"",
                "\"rt_pool_high_water\"",
                "\"rt_pool_high_water_peak\"",
                "\"rt_tick_skew_p50_ns\"",
                "\"rt_tick_skew_p99_ns\"",
                "\"rt_tick_skew_max_ns\"",
            ]
        );
    }

    #[test]
    fn json_fields_carry_recorded_values() {
        let mut s = RuntimeStats::new();
        s.rec.count(CounterId::RtLoopIterations);
        s.record_late_tick(5_000);
        let json = format!("{{{}}}", s.json_fields());
        assert!(json.contains("\"rt_tick_skew_ns\":5000,\"rt_tick_skew_ns_peak\":5000"));
        assert!(json.contains("\"rt_late_ticks\":1"));
        assert!(json.contains("\"rt_loop_iterations\":1"));
    }
}
