//! Buffer autotuning, one rule for a socket and for an MPTCP connection:
//! a buffer holds twice what one round trip carries — Dynamic Right-Sizing
//! (Fisk & Feng 2001), which Linux's receive autotuning follows, and the
//! paper's M3, `2·Σxᵢ·RTT_max` (§4.2). A sender's rate is its congestion
//! window; a receiver's, the bytes one round trip brought in, timed by the
//! timestamp echo on arriving data (`RecvQueue::autotune`).

use mptcp_netsim::Duration;

/// The size an autotuned buffer starts at: [`autotuned`] of nothing.
pub const AUTOTUNE_START: usize = 64 * 1024;

/// The rule: room for twice `per_rtt` bytes, at least [`AUTOTUNE_START`],
/// at most `max`.
pub fn autotuned(per_rtt: usize, max: usize) -> usize {
    per_rtt.saturating_mul(2).max(AUTOTUNE_START).min(max)
}

/// What flows of `(bytes, per round trip)` carry together in the longest
/// of their round trips: `Σxᵢ·RTT_max`.
pub fn over_rtt_max(flows: impl Iterator<Item = (usize, Duration)> + Clone) -> usize {
    let max = flows.clone().map(|(_, rtt)| rtt).max().unwrap_or_default();
    let x = |(bytes, rtt): (usize, Duration)| bytes as f64 / rtt.as_secs_f64().max(1e-6);
    (flows.map(x).sum::<f64>() * max.as_secs_f64()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twice_the_rate_between_the_start_and_the_cap() {
        assert_eq!(autotuned(0, 1 << 20), AUTOTUNE_START);
        assert_eq!(autotuned(100_000, 1 << 20), 200_000);
        assert_eq!(autotuned(800_000, 1 << 20), 1 << 20);
        assert_eq!(autotuned(0, 1000), 1000, "a cap below the start wins");
    }

    #[test]
    fn the_sum_of_rates_over_the_longest_rtt() {
        let ms = Duration::from_millis;
        assert_eq!(over_rtt_max(std::iter::empty()), 0);
        // 100 KB per 50 ms and 30 KB per 150 ms: 300 + 30 KB per 150 ms.
        let flows = [(100_000, ms(50)), (30_000, ms(150))];
        assert_eq!(over_rtt_max(flows.into_iter()), 330_000);
    }
}
