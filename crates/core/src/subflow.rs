//! One MPTCP subflow: a TCP socket plus MPTCP-specific state.

use mptcp_netsim::{Duration, SimTime};
use mptcp_tcpstack::TcpSocket;

use crate::mapping::MappingTracker;

/// MP_JOIN handshake progress for an additional subflow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinState {
    /// The connection's initial subflow (MP_CAPABLE, not MP_JOIN).
    Initial,
    /// Client-side: SYN+MP_JOIN sent, awaiting SYN/ACK MAC.
    ClientSyn,
    /// Client-side: MAC verified; carrying the MP_JOIN ACK until the
    /// server demonstrably has it.
    ClientEstablished,
    /// Server-side: SYN/ACK+MAC sent, awaiting the client's full HMAC.
    ServerWait,
    /// Fully authenticated; data may flow.
    Active,
}

/// Scheduler-visible health of a subflow's path.
///
/// Transitions are driven by the tick inside
/// [`crate::MptcpConnection::poll`]: consecutive subflow RTOs (or a
/// stalled DATA_ACK progress timer) demote
/// `Active -> Suspect -> Failed`; an answered reachability probe promotes
/// straight back to `Active`. Thresholds live in
/// [`crate::FailureDetection`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathState {
    /// Healthy; preferred by the scheduler.
    Active,
    /// Failure suspected; scheduled only when no Active subflow has room.
    Suspect,
    /// Declared dead: never scheduled, its in-flight DSNs were reinjected
    /// on survivors (break-before-make); probed for recovery.
    Failed,
}

/// A subflow of an MPTCP connection.
pub struct Subflow {
    /// The underlying TCP state machine.
    pub sock: TcpSocket,
    /// Receive-side mapping state.
    pub tracker: MappingTracker,
    /// Join-handshake progress.
    pub join: JoinState,
    /// Address identifier used in MP_JOIN/ADD_ADDR.
    pub addr_id: u8,
    /// Our nonce for this subflow's MP_JOIN exchange.
    pub nonce_local: u32,
    /// The peer's nonce.
    pub nonce_remote: u32,
    /// Marked when the socket errored or was reset; excluded from
    /// scheduling and demux.
    pub dead: bool,
    /// Backup-priority subflow (only used when no regular subflow works).
    pub backup: bool,
    /// Last time mechanism 2 penalized this subflow (at most once per RTT).
    pub last_penalty: Option<SimTime>,
    /// Path health as seen by the scheduler.
    pub path_state: PathState,
    /// `sock.stats().bytes_acked` when progress was last observed.
    pub(crate) progress_bytes: u64,
    /// When `progress_bytes` last advanced (or data first went
    /// outstanding); the no-progress detector measures from here.
    pub(crate) progress_at: Option<SimTime>,
    /// Next reachability probe due, while demoted.
    pub(crate) probe_at: Option<SimTime>,
    /// Consecutive unanswered probes; exponent for probe backoff.
    pub(crate) probes_unanswered: u32,
}

impl Subflow {
    /// Wrap a socket as a subflow.
    pub fn new(sock: TcpSocket, tracker: MappingTracker, join: JoinState, addr_id: u8) -> Subflow {
        Subflow {
            sock,
            tracker,
            join,
            addr_id,
            nonce_local: 0,
            nonce_remote: 0,
            dead: false,
            backup: false,
            last_penalty: None,
            path_state: PathState::Active,
            progress_bytes: 0,
            progress_at: None,
            probe_at: None,
            probes_unanswered: 0,
        }
    }

    /// May the scheduler place data on this subflow?
    pub fn usable(&self) -> bool {
        !self.dead
            && self.sock.is_established()
            && matches!(
                self.join,
                JoinState::Initial | JoinState::ClientEstablished | JoinState::Active
            )
    }

    /// Congestion-window headroom: bytes the scheduler may still enqueue.
    ///
    /// The subflow's send queue is kept no deeper than its congestion
    /// window, so scheduling decisions stay at the connection level
    /// ("MPTCP will send a new packet on the lowest delay link that has
    /// space in its congestion window", §4.2).
    pub fn tx_headroom(&self) -> usize {
        (self.sock.cwnd() as usize).saturating_sub(self.sock.bytes_queued())
    }

    /// Smoothed RTT, or a large default for unsampled subflows.
    pub fn srtt_or_default(&self) -> Duration {
        self.sock.srtt().unwrap_or(Duration::from_millis(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_netsim::SimTime;
    use mptcp_packet::{Endpoint, FourTuple, SeqNum};
    use mptcp_tcpstack::TcpConfig;

    fn sock() -> TcpSocket {
        TcpSocket::client(
            TcpConfig::default(),
            FourTuple {
                src: Endpoint::new(1, 1),
                dst: Endpoint::new(2, 2),
            },
            SeqNum(100),
            SimTime::ZERO,
            vec![],
        )
    }

    #[test]
    fn unestablished_subflow_not_usable() {
        let sf = Subflow::new(sock(), MappingTracker::new(true), JoinState::Initial, 0);
        assert!(!sf.usable()); // still SynSent
    }

    #[test]
    fn server_wait_not_usable() {
        let mut sf = Subflow::new(sock(), MappingTracker::new(true), JoinState::ServerWait, 1);
        sf.dead = false;
        assert!(!sf.usable());
        sf.join = JoinState::Active;
        // Still not usable: socket not established.
        assert!(!sf.usable());
    }

    #[test]
    fn headroom_tracks_queue_depth() {
        let mut sf = Subflow::new(sock(), MappingTracker::new(true), JoinState::Initial, 0);
        let before = sf.tx_headroom();
        assert!(before > 0);
        sf.sock
            .send_chunk(bytes::Bytes::from_static(&[0; 1000]), vec![]);
        assert_eq!(sf.tx_headroom(), before - 1000);
    }
}
