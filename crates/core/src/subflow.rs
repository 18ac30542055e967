//! One MPTCP subflow: a TCP socket plus MPTCP-specific state.

use mptcp_netsim::{Duration, SimTime};
use mptcp_packet::options::{options_wire_len, MAX_OPTIONS_LEN};
use mptcp_packet::{crypto, MptcpOption, TcpOption, TcpSegment};
use mptcp_tcpstack::TcpSocket;

use crate::conn::mp_capable;
use crate::health::PathObs;
use crate::life::Life;
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
    /// One-shot signals for the next segment to leave, in queued order.
    signals: Vec<TcpOption>,
}

/// What the options a connection's subflow segments carry are drawn
/// from: its stage, whether our DATA_FIN is out, the data-level `rcv_nxt`,
/// and MP_CAPABLE's checksum flag, our key and the peer's once known.
pub(crate) struct ConnView {
    pub(crate) life: Life,
    pub(crate) fin_out: bool,
    pub(crate) data_ack: u64,
    pub(crate) keys: Option<(bool, u64, u64)>,
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
            signals: Vec::new(),
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
                self.sock.request_ack();
            }
        }
        Some(verified)
    }

    /// A DSS arrived here, so a client stops carrying its MP_JOIN ACK.
    /// That does not prove the server verified the HMAC: a server's
    /// DATA_ACK rides every live subflow, unverified joins included
    /// (ROADMAP item 21).
    pub(crate) fn join_confirmed(&mut self) {
        if let JoinState::ClientEstablished { .. } = self.join {
            self.join = JoinState::Active;
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

    /// Queue one MPTCP signalling option for the next segment to leave,
    /// and ask for a pure ACK so it leaves even with no data pending.
    pub(crate) fn signal(&mut self, opt: MptcpOption) {
        self.signals.push(TcpOption::Mptcp(opt));
        self.sock.request_ack();
    }

    /// The one place a subflow segment leaves: the socket's, with room for
    /// what `fill` adds unless it is a SYN or an RST.
    pub(crate) fn poll(&mut self, now: SimTime, conn: &ConnView) -> Option<TcpSegment> {
        let carried = self.carried(conn);
        let room = carried.iter().flatten().count() + self.signals.len();
        let mut seg = self.sock.poll_with_room(now, room)?;
        if !seg.flags.syn && !seg.flags.rst {
            self.fill(&mut seg, carried);
        }
        Some(seg)
    }

    /// What rides every segment: a client's MP_JOIN ACK until a DSS arrives
    /// on the join; then the DATA_ACK, a server's on every live subflow
    /// (unverified joins included), a client's once confirmed or once its
    /// DATA_FIN is out — before that its initial subflow echoes MP_CAPABLE.
    /// Nothing once fallen back; once closed, the last DATA_ACK.
    fn carried(&self, conn: &ConnView) -> [Option<TcpOption>; 2] {
        let join_ack = match self.join {
            JoinState::ClientEstablished { mac } => Some(MptcpOption::MpJoinAck { mac }),
            _ => None,
        };
        let second = match conn.life {
            Life::Handshake { .. } | Life::Fallback(_) => return [None, None],
            Life::ClientUnconfirmed if !conn.fin_out => conn
                .keys
                .filter(|_| self.join == JoinState::Initial)
                .map(|(checksum, ours, theirs)| mp_capable(checksum, ours, Some(theirs))),
            _ => Some(TcpOption::Mptcp(MptcpOption::Dss {
                data_ack: Some(conn.data_ack),
                mapping: None,
                data_fin: false,
            })),
        };
        [join_ack.map(TcpOption::Mptcp), second]
    }

    /// Spend `seg`'s 40 option bytes: `carried` after a data segment's
    /// mapping, else right after the timestamps (before a SACK block), then
    /// the queued signals, once. What does not fit is popped from the tail
    /// and lost (ROADMAP item 1 puts a budget in its place).
    fn fill(&mut self, seg: &mut TcpSegment, carried: [Option<TcpOption>; 2]) {
        let opts = &mut seg.options;
        let data = !seg.payload.is_empty();
        let at = if data { opts.len() } else { 1 };
        for (i, opt) in (at..).zip(carried.into_iter().flatten()) {
            opts.insert(i, opt);
        }
        opts.append(&mut self.signals);
        while options_wire_len(opts) > MAX_OPTIONS_LEN {
            opts.pop();
        }
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

    fn name(o: &TcpOption) -> String {
        use MptcpOption::*;
        match o {
            TcpOption::Timestamps { .. } => "ts".into(),
            TcpOption::Sack(_) => "sack".into(),
            TcpOption::Mptcp(Dss { data_fin: true, .. }) => "data_fin".into(),
            TcpOption::Mptcp(Dss {
                mapping: Some(_), ..
            }) => "map".into(),
            TcpOption::Mptcp(Dss {
                data_ack: Some(a), ..
            }) => format!("dack({a})"),
            TcpOption::Mptcp(MpCapable {
                checksum_required: true,
                sender_key,
                receiver_key: Some(theirs),
                ..
            }) => format!("capable({sender_key},{theirs})"),
            TcpOption::Mptcp(MpJoinAck { .. }) => "join_ack".into(),
            TcpOption::Mptcp(MpFail { .. }) => "fail".into(),
            TcpOption::Mptcp(AddAddr(_)) => "addr".into(),
            other => format!("{other:?}"),
        }
    }

    /// The fill rule, per carried state and queued signals: the options
    /// that survive on a data segment with its mapping, a pure ACK with a
    /// SACK block, a FIN and a zero-window probe, in wire order. Sizes:
    /// timestamps 10, the checksummed mapping 20, the DATA_ACK 8,
    /// MP_CAPABLE with both keys 20, the MP_JOIN ACK 24, SACK 10, MP_FAIL
    /// 12, ADD_ADDR with a port 10, the DATA_FIN's DSS 22 — of 40.
    #[test]
    fn fill_table() {
        use crate::api::AbortReason;
        use mptcp_packet::mptcp_opts::AdvertisedAddr;
        use mptcp_packet::{DssMapping, TcpFlags};
        let want = "\
HS -: data[ts map] ack[ts sack] fin[ts] probe[ts]
HS fail+addr: data[ts map] ack[ts sack fail] fin[ts fail addr] probe[ts fail addr]
HS data_fin: data[ts map] ack[ts sack] fin[ts data_fin] probe[ts data_fin]
ES -: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9)] probe[ts dack(9)]
ES fail+addr: data[ts map dack(9)] ack[ts dack(9) sack fail] fin[ts dack(9) fail addr] probe[ts dack(9) fail addr]
ES data_fin: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9) data_fin] probe[ts dack(9) data_fin]
UC(c) -: data[ts map] ack[ts capable(1,2) sack] fin[ts capable(1,2)] probe[ts capable(1,2)]
UC(c) fail+addr: data[ts map] ack[ts capable(1,2) sack] fin[ts capable(1,2)] probe[ts capable(1,2)]
UC(c) data_fin: data[ts map] ack[ts capable(1,2) sack] fin[ts capable(1,2)] probe[ts capable(1,2)]
UC(c)+fin -: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9)] probe[ts dack(9)]
UC(c)+fin fail+addr: data[ts map dack(9)] ack[ts dack(9) sack fail] fin[ts dack(9) fail addr] probe[ts dack(9) fail addr]
UC(c)+fin data_fin: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9) data_fin] probe[ts dack(9) data_fin]
UC(s) -: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9)] probe[ts dack(9)]
UC(s) fail+addr: data[ts map dack(9)] ack[ts dack(9) sack fail] fin[ts dack(9) fail addr] probe[ts dack(9) fail addr]
UC(s) data_fin: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9) data_fin] probe[ts dack(9) data_fin]
UC(s)+fin -: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9)] probe[ts dack(9)]
UC(s)+fin fail+addr: data[ts map dack(9)] ack[ts dack(9) sack fail] fin[ts dack(9) fail addr] probe[ts dack(9) fail addr]
UC(s)+fin data_fin: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9) data_fin] probe[ts dack(9) data_fin]
ES+join -: data[ts map] ack[ts join_ack] fin[ts join_ack] probe[ts join_ack]
ES+join fail+addr: data[ts map] ack[ts join_ack] fin[ts join_ack] probe[ts join_ack]
ES+join data_fin: data[ts map] ack[ts join_ack] fin[ts join_ack] probe[ts join_ack]
ES+wait -: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9)] probe[ts dack(9)]
ES+wait fail+addr: data[ts map dack(9)] ack[ts dack(9) sack fail] fin[ts dack(9) fail addr] probe[ts dack(9) fail addr]
ES+wait data_fin: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9) data_fin] probe[ts dack(9) data_fin]
FB -: data[ts map] ack[ts sack] fin[ts] probe[ts]
FB fail+addr: data[ts map] ack[ts sack fail] fin[ts fail addr] probe[ts fail addr]
FB data_fin: data[ts map] ack[ts sack] fin[ts data_fin] probe[ts data_fin]
CL -: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9)] probe[ts dack(9)]
CL fail+addr: data[ts map dack(9)] ack[ts dack(9) sack fail] fin[ts dack(9) fail addr] probe[ts dack(9) fail addr]
CL data_fin: data[ts map dack(9)] ack[ts dack(9) sack] fin[ts dack(9) data_fin] probe[ts dack(9) data_fin]
";
        let view = |life, fin_out| ConnView {
            life,
            fin_out,
            data_ack: 9,
            keys: Some((true, 1, 2)),
        };
        let joined = JoinState::ClientEstablished { mac: [7; 20] };
        let waiting = JoinState::ServerWait { ours: 1, theirs: 2 };
        let closed = Life::Closed(AbortReason::AllPathsFailed);
        let server = Life::ServerUnconfirmed { plain_streak: 0 };
        let states = [
            (
                "HS",
                view(Life::Handshake { client: true }, false),
                JoinState::Initial,
            ),
            ("ES", view(Life::Established, false), JoinState::Initial),
            (
                "UC(c)",
                view(Life::ClientUnconfirmed, false),
                JoinState::Initial,
            ),
            (
                "UC(c)+fin",
                view(Life::ClientUnconfirmed, true),
                JoinState::Initial,
            ),
            ("UC(s)", view(server, false), JoinState::Initial),
            ("UC(s)+fin", view(server, true), JoinState::Initial),
            ("ES+join", view(Life::Established, false), joined),
            ("ES+wait", view(Life::Established, false), waiting),
            ("FB", view(Life::Fallback(None), false), JoinState::Initial),
            ("CL", view(closed, false), JoinState::Initial),
        ];
        let add_addr = MptcpOption::AddAddr(AdvertisedAddr {
            addr_id: 3,
            addr: 0x0a00_0103,
            port: Some(443),
        });
        let data_fin = MptcpOption::Dss {
            data_ack: Some(9),
            mapping: Some(DssMapping {
                dsn: 50,
                subflow_seq: 0,
                len: 0,
                checksum: None,
            }),
            data_fin: true,
        };
        let signals = [
            ("-", vec![]),
            ("fail+addr", vec![MptcpOption::MpFail { dsn: 9 }, add_addr]),
            ("data_fin", vec![data_fin]),
        ];
        let mapping = TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: None,
            mapping: Some(DssMapping {
                dsn: 1,
                subflow_seq: 1,
                len: 1400,
                checksum: Some(0xbeef),
            }),
            data_fin: false,
        });
        let fin = TcpFlags {
            fin: true,
            ..TcpFlags::ACK
        };
        let kinds = [
            ("data", TcpFlags::ACK, 1400, Some(mapping)),
            (
                "ack",
                TcpFlags::ACK,
                0,
                Some(TcpOption::Sack(vec![(10, 20)])),
            ),
            ("fin", fin, 0, None),
            ("probe", TcpFlags::ACK, 0, None),
        ];
        let mut got = String::new();
        for (state, conn, join) in &states {
            for (queued, opts) in &signals {
                got += &format!("{state} {queued}:");
                for (kind, flags, len, option) in &kinds {
                    let mut sf = Subflow::new(sock(), *join, 0, false);
                    for o in opts {
                        sf.signal(o.clone());
                    }
                    let mut seg = TcpSegment::new(sock().tuple(), SeqNum(1), SeqNum(1), *flags);
                    seg.payload = bytes::Bytes::from(vec![0; *len]);
                    seg.options.push(TcpOption::Timestamps { val: 1, ecr: 2 });
                    seg.options.extend(option.clone());
                    let carried = sf.carried(conn);
                    sf.fill(&mut seg, carried);
                    assert!(sf.signals.is_empty(), "a signal rides one segment only");
                    let names: Vec<String> = seg.options.iter().map(name).collect();
                    got += &format!(" {kind}[{}]", names.join(" "));
                }
                got += "\n";
            }
        }
        assert_eq!(got, want, "actual table:\n{got}");
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
