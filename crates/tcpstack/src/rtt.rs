//! RTT estimation and RTO computation (RFC 6298).

use mptcp_netsim::Duration;

/// Exponentially-weighted RTT estimator with Jacobson/Karels variance.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    srtt: Option<Duration>,
    rttvar: Duration,
    /// Smallest RTT ever observed — the "base RTT" used by the paper's
    /// mechanism 4 (cap cwnd when smoothed RTT is double the base RTT).
    min_rtt: Option<Duration>,
    min_rto: Duration,
    max_rto: Duration,
}

impl RttEstimator {
    /// New estimator with RTO clamped to `[min_rto, max_rto]`.
    pub fn new(min_rto: Duration, max_rto: Duration) -> Self {
        RttEstimator {
            srtt: None,
            rttvar: Duration::ZERO,
            min_rtt: None,
            min_rto,
            max_rto,
        }
    }

    /// Incorporate one RTT sample.
    pub fn on_sample(&mut self, rtt: Duration) {
        self.min_rtt = Some(match self.min_rtt {
            Some(m) if m <= rtt => m,
            _ => rtt,
        });
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let delta = srtt.abs_diff(rtt);
                self.rttvar = (self.rttvar * 3 + delta) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
    }

    /// Smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// Minimum RTT observed (base RTT / propagation estimate).
    pub fn min_rtt(&self) -> Option<Duration> {
        self.min_rtt
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> Duration {
        match self.srtt {
            None => Duration::from_secs(1).max(self.min_rto),
            Some(srtt) => {
                let var4 = self.rttvar * 4;
                let granularity = Duration::from_millis(1);
                (srtt + var4.max(granularity)).clamp(self.min_rto, self.max_rto)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(Duration::from_millis(200), Duration::from_secs(60))
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = est();
        assert_eq!(e.rto(), Duration::from_secs(1));
        e.on_sample(Duration::from_millis(100));
        assert_eq!(e.srtt(), Some(Duration::from_millis(100)));
        assert_eq!(e.rttvar, Duration::from_millis(50));
        // RTO = srtt + 4*rttvar = 100 + 200 = 300ms.
        assert_eq!(e.rto(), Duration::from_millis(300));
    }

    #[test]
    fn converges_on_stable_rtt() {
        let mut e = est();
        for _ in 0..50 {
            e.on_sample(Duration::from_millis(80));
        }
        let srtt = e.srtt().unwrap();
        assert!(srtt >= Duration::from_millis(79) && srtt <= Duration::from_millis(81));
        // Variance decays toward zero; RTO bottoms out at min_rto.
        assert_eq!(e.rto(), Duration::from_millis(200));
    }

    #[test]
    fn min_rtt_tracks_floor() {
        let mut e = est();
        e.on_sample(Duration::from_millis(100));
        e.on_sample(Duration::from_millis(20));
        e.on_sample(Duration::from_millis(500));
        assert_eq!(e.min_rtt(), Some(Duration::from_millis(20)));
    }

    #[test]
    fn rto_clamped_to_max() {
        let mut e = RttEstimator::new(Duration::from_millis(200), Duration::from_secs(2));
        e.on_sample(Duration::from_secs(10));
        assert_eq!(e.rto(), Duration::from_secs(2));
    }

    #[test]
    fn variance_reacts_to_jitter() {
        let mut e = est();
        e.on_sample(Duration::from_millis(100));
        e.on_sample(Duration::from_millis(300));
        assert!(e.rttvar > Duration::from_millis(50));
        assert!(e.rto() > Duration::from_millis(300));
    }
}
