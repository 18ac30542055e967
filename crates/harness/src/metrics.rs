//! Measurement helpers: rate conversion, periodic sampling, delay PDFs.

use mptcp_netsim::{Duration, SimTime};
use mptcp_telemetry::LogHistogram;

/// Rate conversions.
pub struct Rates;

impl Rates {
    /// Bytes over a duration, in megabits per second.
    pub fn mbps(bytes: u64, dur: Duration) -> f64 {
        if dur.is_zero() {
            return 0.0;
        }
        (bytes as f64 * 8.0) / dur.as_secs_f64() / 1e6
    }
}

/// Samples a value at a fixed simulated-time interval (memory curves of
/// Figure 5).
pub struct Sampler {
    interval: Duration,
    next_at: SimTime,
    /// Collected samples.
    pub samples: Vec<(SimTime, f64)>,
}

impl Sampler {
    /// Sample every `interval`.
    pub fn new(interval: Duration) -> Sampler {
        Sampler {
            interval,
            next_at: SimTime::ZERO,
            samples: Vec::new(),
        }
    }

    /// Record `value()` if the interval elapsed.
    pub fn maybe_sample<F: FnOnce() -> f64>(&mut self, now: SimTime, value: F) {
        if now >= self.next_at {
            self.samples.push((now, value()));
            self.next_at = now + self.interval;
        }
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|(_, v)| v).sum::<f64>() / self.samples.len() as f64
    }

    /// Mean of samples taken at or after `from` (skip warm-up).
    pub fn mean_after(&self, from: SimTime) -> f64 {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| *t >= from)
            .map(|(_, v)| *v)
            .collect();
        if vals.is_empty() {
            return 0.0;
        }
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Application-level delay statistics (Figure 7): paired send/receive
/// stamps for fixed-size blocks.
///
/// Quantiles come from a [`LogHistogram`] over nanosecond delays (shared
/// with the runtime's loop profiler and tick-skew tracking), so they cost
/// no sort and ≤ ~3% relative error; the raw delays are kept for the
/// exact-binned [`AppDelayStats::pdf`].
#[derive(Clone, Debug)]
pub struct AppDelayStats {
    /// Per-block delays.
    pub delays: Vec<Duration>,
    hist: LogHistogram,
}

impl AppDelayStats {
    /// Pair up send and receive stamps (receive may lag behind).
    pub fn from_stamps(sent: &[SimTime], received: &[SimTime]) -> AppDelayStats {
        let n = sent.len().min(received.len());
        let delays: Vec<Duration> = (0..n).map(|i| received[i] - sent[i]).collect();
        let mut hist = LogHistogram::new();
        for d in &delays {
            hist.record(d.as_nanos() as u64);
        }
        AppDelayStats { delays, hist }
    }

    /// Histogram as (bin_left_edge, probability in percent).
    pub fn pdf(&self, bin: Duration, max: Duration) -> Vec<(Duration, f64)> {
        let nbins = (max.as_nanos() / bin.as_nanos()).max(1) as usize;
        let mut counts = vec![0u64; nbins + 1];
        for d in &self.delays {
            let idx = ((d.as_nanos() / bin.as_nanos()) as usize).min(nbins);
            counts[idx] += 1;
        }
        let total = self.delays.len().max(1) as f64;
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (bin * i as u32, 100.0 * c as f64 / total))
            .collect()
    }

    /// Mean delay.
    pub fn mean(&self) -> Duration {
        if self.delays.is_empty() {
            return Duration::ZERO;
        }
        self.delays.iter().sum::<Duration>() / self.delays.len() as u32
    }

    /// The `q`-quantile (0.0–1.0) of the delay distribution, from the
    /// log-bucketed histogram (exact at q=0 and q=1, ≤ ~3% error between).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.delays.is_empty() {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.hist.quantile(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_conversion() {
        // 1 MB in 1 second = 8 Mbps.
        assert!((Rates::mbps(1_000_000, Duration::from_secs(1)) - 8.0).abs() < 1e-9);
        assert_eq!(Rates::mbps(100, Duration::ZERO), 0.0);
    }

    #[test]
    fn sampler_respects_interval() {
        let mut s = Sampler::new(Duration::from_millis(10));
        s.maybe_sample(SimTime::ZERO, || 1.0);
        s.maybe_sample(SimTime::from_millis(5), || 2.0); // too soon
        s.maybe_sample(SimTime::from_millis(10), || 3.0);
        assert_eq!(s.samples.len(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn sampler_warmup_skip() {
        let mut s = Sampler::new(Duration::from_millis(1));
        s.maybe_sample(SimTime::ZERO, || 100.0);
        s.maybe_sample(SimTime::from_millis(1), || 1.0);
        s.maybe_sample(SimTime::from_millis(2), || 3.0);
        assert_eq!(s.mean_after(SimTime::from_millis(1)), 2.0);
    }

    #[test]
    fn delay_stats_pair_and_quantile() {
        let sent = vec![
            SimTime::ZERO,
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        ];
        let recv = vec![
            SimTime::from_millis(5),
            SimTime::from_millis(30),
            SimTime::from_millis(21),
        ];
        let st = AppDelayStats::from_stamps(&sent, &recv);
        assert_eq!(st.delays.len(), 3);
        assert_eq!(st.quantile(0.0), Duration::from_millis(1));
        assert_eq!(st.quantile(1.0), Duration::from_millis(20));
        let pdf = st.pdf(Duration::from_millis(10), Duration::from_millis(50));
        let total: f64 = pdf.iter().map(|(_, p)| p).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }
}
