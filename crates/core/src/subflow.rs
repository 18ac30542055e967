//! One MPTCP subflow: a TCP socket plus MPTCP-specific state.

use mptcp_netsim::{Duration, SimTime};
use mptcp_packet::{crypto, MptcpOption, TcpOption};
use mptcp_tcpstack::TcpSocket;

use crate::health::PathObs;
use crate::mapping::MappingTracker;
use crate::sched::PathSnapshot;

/// MP_JOIN handshake progress for an additional subflow, holding what the
/// step it is at needs of the two nonces (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinState {
    /// The connection's initial subflow (MP_CAPABLE, not MP_JOIN).
    Initial,
    /// Client-side: SYN+MP_JOIN sent with our `nonce`, awaiting the
    /// SYN/ACK's MAC.
    ClientSyn { nonce: u32 },
    /// Client-side: MAC verified; carrying the MP_JOIN ACK with our full
    /// HMAC `mac` until the server demonstrably has it.
    ClientEstablished { mac: [u8; 20] },
    /// Server-side: SYN/ACK+MAC sent with nonce `ours`, in answer to the
    /// client's `theirs`; awaiting the client's full HMAC.
    ServerWait { ours: u32, theirs: u32 },
    /// Fully authenticated; data may flow.
    Active,
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
    /// Marked when the socket errored or was reset; excluded from
    /// scheduling and demux.
    pub dead: bool,
    /// Backup-priority subflow (only used when no regular subflow works).
    pub backup: bool,
    /// Last time mechanism 2 penalized this subflow (at most once per RTT).
    pub last_penalty: Option<SimTime>,
}

impl Subflow {
    /// Wrap a socket as a subflow.
    pub fn new(sock: TcpSocket, join: JoinState, addr_id: u8, backup: bool) -> Subflow {
        Subflow {
            sock,
            tracker: MappingTracker::default(),
            join,
            addr_id,
            dead: false,
            backup,
            last_penalty: None,
        }
    }

    /// May the scheduler place data on this subflow?
    pub fn usable(&self) -> bool {
        !self.dead
            && self.sock.is_established()
            && matches!(
                self.join,
                JoinState::Initial | JoinState::ClientEstablished { .. } | JoinState::Active
            )
    }

    /// Check the MAC `opt` carries against our `key` and the `peer`'s: a
    /// client in `ClientSyn` checks the server's on the SYN/ACK, a server
    /// in `ServerWait` the client's full HMAC on the third ACK. Verified,
    /// the join moves on, and a client carries its own HMAC from here,
    /// computed once. `None` when this subflow awaits no such MAC.
    pub(crate) fn verify_join(&mut self, opt: MptcpOption, key: u64, peer: u64) -> Option<bool> {
        let (verified, next) = match (opt, self.join) {
            (
                MptcpOption::MpJoinSynAck { mac, nonce, .. },
                JoinState::ClientSyn { nonce: ours },
            ) => {
                let ok = mac == crypto::join_synack_mac(peer, key, ours, nonce);
                let mac = crypto::join_ack_mac(key, peer, ours, nonce);
                (ok, JoinState::ClientEstablished { mac })
            }
            (MptcpOption::MpJoinAck { mac }, JoinState::ServerWait { ours, theirs }) => {
                let ok = mac == crypto::join_ack_mac(peer, key, theirs, ours);
                (ok, JoinState::Active)
            }
            _ => return None,
        };
        if verified {
            self.join = next;
            if let JoinState::ClientEstablished { .. } = next {
                self.carry(None);
                self.sock.request_ack();
            }
        }
        Some(verified)
    }

    /// The server sent a DSS here, which it does only once it has verified
    /// a client's HMAC: the join needs no more proof.
    pub(crate) fn join_confirmed(&mut self) {
        if let JoinState::ClientEstablished { .. } = self.join {
            self.join = JoinState::Active;
        }
    }

    /// Rewrite what every segment carries, in the buffer the socket
    /// already holds: the MP_JOIN ACK while a client still proves its join,
    /// then a DATA_ACK of `data_ack` if given.
    pub(crate) fn carry(&mut self, data_ack: Option<u64>) {
        let carry = self.sock.carry_options_mut();
        carry.clear();
        if let JoinState::ClientEstablished { mac } = self.join {
            carry.push(TcpOption::Mptcp(MptcpOption::MpJoinAck { mac }));
        }
        if let Some(a) = data_ack {
            let dss = MptcpOption::Dss {
                data_ack: Some(a),
                mapping: None,
                data_fin: false,
            };
            carry.push(TcpOption::Mptcp(dss));
        }
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

    /// What the failure detector needs to know, read off the socket.
    pub(crate) fn observe(&self) -> PathObs {
        PathObs {
            live: !self.dead && self.sock.is_established(),
            rtos: self.sock.consecutive_rtos(),
            acked: self.sock.stats.bytes_acked,
            in_flight: self.sock.bytes_in_flight() > 0,
        }
    }

    /// What the scheduler needs to know, as subflow `id`.
    pub(crate) fn snapshot(&self, id: usize) -> PathSnapshot {
        PathSnapshot {
            id,
            srtt: self.srtt_or_default(),
            cwnd: self.sock.cwnd(),
            mss: self.sock.mss(),
            headroom: self.tx_headroom(),
            send_space: self.sock.send_space(),
        }
    }

    /// M2: halve the congestion window (and set ssthresh to it) — at most
    /// once per RTT, and not while loss recovery has already done as much.
    /// Returns the window before and after.
    pub(crate) fn penalize(&mut self, now: SimTime) -> Option<(u32, u32)> {
        let recently = |t| now.since(t) < self.srtt_or_default();
        if self.dead || self.sock.in_loss_recovery() || self.last_penalty.is_some_and(recently) {
            return None;
        }
        let before = self.sock.cwnd();
        self.sock.cc_mut().shrink_to(before / 2);
        self.last_penalty = Some(now);
        Some((before, self.sock.cwnd()))
    }

    /// Queue one MPTCP signalling option for the next segment to leave.
    pub(crate) fn signal(&mut self, opt: MptcpOption) {
        self.sock.queue_oneshot_options([TcpOption::Mptcp(opt)]);
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
        let sf = Subflow::new(sock(), JoinState::Initial, 0, false);
        assert!(!sf.usable()); // still SynSent
    }

    #[test]
    fn server_wait_not_usable() {
        let wait = JoinState::ServerWait { ours: 1, theirs: 2 };
        let mut sf = Subflow::new(sock(), wait, 1, false);
        sf.dead = false;
        assert!(!sf.usable());
        sf.join = JoinState::Active;
        // Still not usable: socket not established.
        assert!(!sf.usable());
    }

    #[test]
    fn headroom_tracks_queue_depth() {
        let mut sf = Subflow::new(sock(), JoinState::Initial, 0, false);
        let before = sf.tx_headroom();
        assert!(before > 0);
        sf.sock
            .send_chunk(bytes::Bytes::from_static(&[0; 1000]), None);
        assert_eq!(sf.tx_headroom(), before - 1000);
    }
}
