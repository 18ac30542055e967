//! Mapping wall-clock time onto the simulation clock.
//!
//! The core MPTCP state machines ([`mptcp::MptcpConnection`],
//! `mptcp::MptcpListener`) are written against [`SimTime`], an absolute
//! nanosecond instant. In the simulator that clock is advanced by the event
//! queue; here it is driven by [`std::time::Instant`] so the same unmodified
//! state machines run against real elapsed time.

use std::time::Instant;

use mptcp_netsim::SimTime;

/// The instant the runtime's epoch maps to.
///
/// `SimTime::ZERO` is load-bearing inside the core: `poll_at` returns
/// `Some(SimTime::ZERO)` as the "poll me immediately" sentinel, and several
/// `Option<SimTime>` fields treat zero as "never armed". Anchoring the
/// wall-clock epoch one millisecond *after* zero keeps every real timestamp
/// strictly positive, so a genuine deadline can never be confused with the
/// sentinel.
pub const EPOCH_OFFSET: SimTime = SimTime::from_millis(1);

/// Wall-clock time: `EPOCH_OFFSET` plus nanoseconds elapsed since the
/// clock was created.
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Anchor the epoch at the moment of creation.
    pub fn new() -> WallClock {
        WallClock {
            start: Instant::now(),
        }
    }

    /// Current instant. Monotonically non-decreasing.
    pub fn now(&self) -> SimTime {
        let elapsed = self.start.elapsed();
        SimTime(EPOCH_OFFSET.0.saturating_add(elapsed.as_nanos() as u64))
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic_and_past_epoch() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(a >= EPOCH_OFFSET);
        assert!(b >= a);
        assert!(
            a > SimTime::ZERO,
            "real timestamps never equal the sentinel"
        );
    }
}
