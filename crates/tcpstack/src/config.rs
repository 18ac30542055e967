//! Socket configuration.

use mptcp_netsim::Duration;
use mptcp_telemetry::TraceConfig;

/// Window-scale shift every socket advertises (RFC 1323).
pub const WSCALE: u8 = 14;

/// Initial congestion window in segments (RFC 6928).
pub const INIT_CWND_SEGS: u32 = 10;

/// Tunables for a [`crate::TcpSocket`]. What no experiment, example or
/// test ever varied is not here: every data segment is acked at once (no
/// delayed-ACK timer), RFC 1323 timestamps are always carried (they are
/// the RTT sampler), a retried SYN always drops its extension options
/// (§3.1), and [`WSCALE`] / [`INIT_CWND_SEGS`] are constants.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: usize,
    /// Maximum send buffer in bytes (autotuning grows toward this).
    pub send_buf: usize,
    /// Maximum receive buffer in bytes (autotuning grows toward this).
    pub recv_buf: usize,
    /// Enable send/receive buffer autotuning (start small, grow on demand).
    pub autotune: bool,
    /// Cap cwnd when smoothed RTT exceeds twice the base RTT (the paper's
    /// mechanism 4 / FreeBSD's `net.inet.tcp.inflight`).
    pub cap_cwnd_on_bufferbloat: bool,
    /// Minimum retransmission timeout.
    pub min_rto: Duration,
    /// Maximum retransmission timeout.
    pub max_rto: Duration,
    /// Time-series tracing of cwnd/ssthresh/srtt/in-flight on congestion
    /// events and a periodic interval. Disabled by default (zero-cost).
    pub trace: TraceConfig,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            send_buf: 2 * 1024 * 1024,
            recv_buf: 2 * 1024 * 1024,
            autotune: false,
            cap_cwnd_on_bufferbloat: false,
            min_rto: Duration::from_millis(200),
            max_rto: Duration::from_secs(60),
            trace: TraceConfig::disabled(),
        }
    }
}

impl TcpConfig {
    /// Config with symmetric send/receive buffers of `bytes` — how the
    /// paper's buffer-sweep experiments (Figs 4–6, 9) set both sysctls.
    pub fn with_buffers(bytes: usize) -> TcpConfig {
        TcpConfig {
            send_buf: bytes,
            recv_buf: bytes,
            ..TcpConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = TcpConfig::default();
        assert_eq!(c.mss, 1460);
        assert!(c.min_rto < c.max_rto);
    }

    #[test]
    fn buffer_helper() {
        let c = TcpConfig::with_buffers(100_000);
        assert_eq!(c.send_buf, 100_000);
        assert_eq!(c.recv_buf, 100_000);
    }
}
