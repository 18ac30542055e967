//! The MPTCP connection: subflow management, scheduling, flow control,
//! reliability at the data level, mechanisms M1–M4, and fallback.
//!
//! The connection is glue — option dispatch, the scheduler call with
//! M1/M2, `poll`/`tick` — around machines that each own one argument of
//! the paper and know nothing of the others: `Life` (§3.1, §3.3.6
//! handshake, fallback and close), `DataSender` (§3.3), `DataReceiver`
//! (§4.3), `PathHealth` (§3.4, §4.2), [`PathManager`] (§3.2, §3.4, and
//! every address id) and [`CoupledState`] (coupled congestion control,
//! which reads and sets the subflow sockets itself).
//!
//! Each fact has one owner here too. The negotiated DSS checksum is
//! `cfg.checksum`, which every subflow's mapping tracker is handed. The
//! path manager decides *that* a backup is promoted; the subflow table
//! says *which*. And a subflow leaves by one path, `retire`, whatever
//! killed it.

use bytes::Bytes;
use mptcp_netsim::time::min_deadline;
use mptcp_netsim::{Duration, SimRng, SimTime};
use mptcp_packet::{
    checksum, crypto, DssMapping, Endpoint, FourTuple, MptcpOption, SeqNum, TcpOption, TcpSegment,
};
use mptcp_tcpstack::{autotuned, over_rtt_max, CoupledState, TcpSocket, TcpState, INIT_CWND_SEGS};
use mptcp_telemetry::{
    CounterId, EventKind, FallbackCause, GaugeId, Recorder, TelemetrySnapshot, TraceRecord,
    TraceSnapshot, DEFAULT_EVENT_CAPACITY,
};

use crate::api::{AbortReason, JoinError, ReadOutcome, SubflowError, SubflowId, WriteOutcome};
use crate::config::MptcpConfig;
use crate::health::{Change, PathHealth, PathState};
use crate::life::{Action, Input, Life};
use crate::mapping::Consumed;
use crate::pm::{PathManager, PmAction, PmEvent};
use crate::reorder::OooQueue;
use crate::rx::DataReceiver;
use crate::sched::{PathSnapshot, SchedCtx, SchedDecision, Scheduler, SchedulerKind};
use crate::subflow::{ConnView, JoinState, Subflow};
use crate::token::{KeySet, TokenTable};
use crate::tx::DataSender;

/// Most live subflows one connection holds; `open_subflow` and
/// `accept_join` refuse beyond it. ([`crate::PmLimits::max_subflows`] caps
/// what the path manager opens on its own, below this.)
pub const MAX_SUBFLOWS: usize = 8;

/// Connection lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Initial subflow handshake in progress.
    Handshake,
    /// Handshake done, MPTCP negotiated, but not yet confirmed by a
    /// non-SYN segment carrying an MPTCP option (§3.1's lost-third-ACK /
    /// stripped-SYN-ACK defence).
    AwaitingConfirm,
    /// MPTCP fully operational.
    Established,
    /// Operating as plain TCP on the initial subflow (§3.3.6 fallback, or
    /// MP_CAPABLE never negotiated).
    Fallback,
    /// Connection finished or failed.
    Closed,
}

/// Byte and chunk tallies with no telemetry twin. Everything that is also
/// an event (M1/M2 firings, data RTOs, checksum failures, resets, rejected
/// joins, path failures and recoveries) or a registry counter (duplicate
/// bytes) is read from [`MptcpConnection::telemetry`] by its `CounterId`.
#[derive(Clone, Debug, Default)]
pub struct ConnStats {
    /// Application bytes accepted for sending.
    pub bytes_written: u64,
    /// Application bytes delivered in order (goodput numerator).
    pub bytes_delivered: u64,
    /// Payload bytes handed to subflows, including re-injections
    /// (throughput numerator).
    pub bytes_scheduled: u64,
    /// Chunks re-injected on another subflow (any reason).
    pub reinjections: u64,
}

/// The MP_CAPABLE option of a handshake segment (§3.1): our key on the
/// SYNs, both keys on the third ACK and what follows it.
pub(crate) fn mp_capable(checksum: bool, sender_key: u64, receiver_key: Option<u64>) -> TcpOption {
    TcpOption::Mptcp(MptcpOption::MpCapable {
        version: 0,
        checksum_required: checksum,
        sender_key,
        receiver_key,
    })
}

/// The sender's key and checksum flag, if `opt` is an MP_CAPABLE.
fn capable_key(opt: &MptcpOption) -> Option<(u64, bool)> {
    match *opt {
        MptcpOption::MpCapable {
            sender_key,
            checksum_required,
            ..
        } => Some((sender_key, checksum_required)),
        _ => None,
    }
}

/// One end of a Multipath TCP connection.
pub struct MptcpConnection {
    /// The configuration, with `checksum` the negotiated value (§3.3.6):
    /// either end requiring DSS checksums turns them on for both.
    cfg: MptcpConfig,
    life: Life,
    rng: SimRng,

    local: KeySet,
    remote: Option<KeySet>,

    subflows: Vec<Subflow>,

    /// The path-manager policy engine and the owner of every address id;
    /// this connection executes its [`PmAction`]s.
    pm: PathManager,

    /// Data-level reliability and flow control on the sending side.
    tx: DataSender,
    /// The receive path: duplicate trim, reorder queue, in-order delivery.
    rx: DataReceiver,
    /// The failure detector: per-path verdicts and every timer behind them.
    health: PathHealth,

    /// Measurement counters.
    pub stats: ConnStats,
    /// Connection-level telemetry and trace; each subflow socket keeps
    /// its own, merged by [`MptcpConnection::telemetry`].
    telemetry: Recorder,
    /// The configured packet scheduler (policy only; tiering, reinjection
    /// and telemetry stay here in the connection).
    sched: Scheduler,
    /// Cross-subflow congestion-control coupling, handed every usable
    /// subflow's socket on each tick (only the connection sees them all).
    coupled: CoupledState,
    /// Last scheduler decision was a stall? Gates the transition-only
    /// stall span; any non-stall decision clears it.
    sched_stalled: bool,
    poll_cursor: usize,
    /// When `tick` last ran, while nothing it reads has changed since;
    /// `None` is dirty (DESIGN.md §15.2 lists what dirties).
    ticked_at: Option<SimTime>,
    /// Scratch: subflows fed by the current `handle_segments` batch whose
    /// post-input pipeline is still owed. Empty between calls.
    touched: Vec<usize>,
    /// Scratch, likewise: harvested options and the scheduler's eligible
    /// paths.
    rx_opts: Vec<MptcpOption>,
    paths: Vec<PathSnapshot>,
}

impl MptcpConnection {
    /// Active-open an MPTCP connection: the first [`MptcpConnection::poll`]
    /// emits a SYN carrying MP_CAPABLE with our key.
    pub fn client(
        cfg: MptcpConfig,
        tuple: FourTuple,
        now: SimTime,
        mut rng: SimRng,
    ) -> MptcpConnection {
        let local = KeySet::from_key(rng.next_u64());
        let syn_opts = vec![mp_capable(cfg.checksum, local.key, None)];
        let isn = SeqNum(rng.next_u32());
        let sock = TcpSocket::client(cfg.subflow_tcp(), tuple, isn, now, syn_opts);
        let mut conn = MptcpConnection::common(cfg, Life::Handshake { client: true }, local, rng);
        conn.push_subflow(sock, JoinState::Initial, 0, false);
        conn
    }

    /// Passive-open from a received SYN. If the SYN carries MP_CAPABLE the
    /// connection negotiates MPTCP (drawing a unique-token key from
    /// `tokens`); otherwise it starts in fallback (plain TCP).
    pub fn server_accept(
        mut cfg: MptcpConfig,
        syn: &TcpSegment,
        now: SimTime,
        mut rng: SimRng,
        tokens: &mut TokenTable,
    ) -> MptcpConnection {
        let peer_capable = syn.mptcp_options().find_map(capable_key);
        // No MP_CAPABLE (stripped or plain peer): regular TCP, with the
        // subflow socket's own congestion control and no mappings.
        let (life, local) = match peer_capable {
            Some((_, peer_ck)) => {
                cfg.checksum |= peer_ck;
                (Life::Handshake { client: false }, tokens.generate(&mut rng))
            }
            None => {
                cfg.checksum = false;
                (Life::Fallback(None), KeySet::from_key(rng.next_u64()))
            }
        };
        let syn_opts =
            peer_capable.map_or(vec![], |_| vec![mp_capable(cfg.checksum, local.key, None)]);
        let isn = SeqNum(rng.next_u32());
        let mut sock = TcpSocket::accept(cfg.subflow_tcp(), syn, isn, now, syn_opts);
        // The SYN's MP_CAPABLE was consumed here; don't let the harvested
        // copy masquerade as third-ACK confirmation.
        sock.take_rx_mptcp(&mut Vec::new());
        let mut conn = MptcpConnection::common(cfg, life, local, rng);
        if let Some((peer_key, _)) = peer_capable {
            conn.set_remote_key(peer_key);
        }
        conn.push_subflow(sock, JoinState::Initial, 0, false);
        conn
    }

    fn common(cfg: MptcpConfig, life: Life, local: KeySet, rng: SimRng) -> MptcpConnection {
        // M3 starts both buffers small and grows them toward their caps.
        let m3 = cfg.mech.autotune;
        let start = |cap| if m3 { autotuned(0, cap) } else { cap };
        MptcpConnection {
            life,
            rng,
            local,
            remote: None,
            subflows: Vec::new(),
            pm: PathManager::new(cfg.pm.clone()),
            tx: DataSender::new(local.idsn.wrapping_add(1), start(cfg.send_buf)),
            rx: DataReceiver::new(cfg.reorder, start(cfg.recv_buf)),
            health: PathHealth::new(cfg.failure),
            stats: ConnStats::default(),
            telemetry: Recorder::traced(DEFAULT_EVENT_CAPACITY, cfg.trace),
            sched: cfg.scheduler.build(),
            coupled: CoupledState::new(cfg.cc),
            sched_stalled: false,
            poll_cursor: 0,
            // Sized here, not on first use: one small allocation per
            // connection made mid-transfer lands between payload buffers
            // and costs `sim_http` 16 % peak RSS in heap fragmentation.
            ticked_at: None,
            touched: Vec::with_capacity(4),
            rx_opts: Vec::with_capacity(4),
            paths: Vec::with_capacity(4),
            cfg,
        }
    }

    /// Add a subflow around `sock`, tagged with its index for telemetry
    /// and running the configured congestion controller unless the
    /// connection is plain TCP from the start.
    fn push_subflow(&mut self, mut sock: TcpSocket, join: JoinState, addr_id: u8, backup: bool) {
        sock.set_telemetry_tag(self.subflows.len() as u32);
        if !self.is_fallback() {
            let mss = self.cfg.tcp.mss as u32;
            *sock.cc_mut() = self.cfg.cc.build(mss, INIT_CWND_SEGS);
        }
        self.subflows
            .push(Subflow::new(sock, join, addr_id, backup));
        self.health.add_path();
    }

    /// Subflow `idx` is dead: reset here (a no-op on a socket that has
    /// failed already), timed out or torn down. Its chunks go to the
    /// subflows left — "if a subflow fails, the connection must continue
    /// as long as another subflow has connectivity" — and if it was the
    /// last, the connection aborts for `reason`.
    fn retire(&mut self, now: SimTime, idx: usize, reason: AbortReason) {
        self.subflows[idx].sock.abort();
        self.subflows[idx].dead = true;
        self.health.retire(idx);
        self.stats.reinjections += self.tx.reinject_where(u64::MAX, |_, sf| sf == idx);
        if self.alive_subflows() == 0 {
            self.feed(now, idx, Input::Abort(reason));
        }
    }

    /// Reset subflow `idx` on a protocol error.
    fn reset_subflow(&mut self, now: SimTime, idx: usize) {
        let subflow = idx as u32;
        self.telemetry
            .note(now.0, EventKind::SubflowReset { subflow });
        self.retire(now, idx, AbortReason::AllSubflowsDied);
    }

    fn set_remote_key(&mut self, key: u64) {
        let ks = KeySet::from_key(key);
        self.rx.start_at(ks.idsn.wrapping_add(1));
        self.remote = Some(ks);
    }

    /// Connection state.
    pub fn state(&self) -> ConnState {
        self.life.state()
    }

    /// Our token (what MP_JOIN SYNs toward us must carry).
    pub fn local_token(&self) -> u32 {
        self.local.token
    }

    /// Is the connection usable for data?
    pub fn is_established(&self) -> bool {
        (self.life.running() || self.is_fallback()) && self.subflows.iter().any(|s| s.usable())
    }

    /// Did we fall back to regular TCP?
    pub fn is_fallback(&self) -> bool {
        matches!(self.life, Life::Fallback(_))
    }

    /// Why the connection aborted, if it did (`None` for a clean close or
    /// a still-live connection).
    pub fn abort_reason(&self) -> Option<AbortReason> {
        match self.life {
            Life::Closed(reason) => Some(reason),
            _ => None,
        }
    }

    /// Stream EOF reached and drained?
    pub fn at_eof(&self) -> bool {
        let fin = match self.life {
            Life::Fallback(_) => self.subflows[0].sock.stream_fin(),
            _ => self.rx.eof(),
        };
        fin && !self.rx.readable()
    }

    /// Has our DATA_FIN (or fallback FIN) been acknowledged?
    pub fn send_closed(&self) -> bool {
        match self.life {
            Life::Fallback(_) => self.subflows[0].sock.fin_acked(),
            _ => self.tx.fin_acked(),
        }
    }

    /// All subflow sockets closed or dead: nothing further will happen.
    /// A socket in TIME_WAIT still owes the peer ACKs and holds its
    /// four-tuple, so it does not count until that has run out.
    pub fn fully_closed(&self) -> bool {
        self.subflows
            .iter()
            .all(|s| s.dead || s.sock.state() == TcpState::Closed)
    }

    /// Subflow views (testing / instrumentation).
    pub fn subflows(&self) -> &[Subflow] {
        &self.subflows
    }

    /// Mutable subflow access (test harness fault injection).
    pub fn subflows_mut(&mut self) -> &mut [Subflow] {
        self.ticked_at = None;
        &mut self.subflows
    }

    /// Scheduler-visible health of subflow `idx`'s path.
    pub fn path_state(&self, idx: usize) -> PathState {
        self.health.state(idx)
    }

    /// The connection-level out-of-order queue (Figure 8 algorithms).
    pub fn reorder_queue(&self) -> &OooQueue {
        self.rx.queue()
    }

    /// Bytes the sender holds: pending + retained-until-DATA_ACK chunks
    /// (Figure 5a's sender memory); fallen back, subflow 0's send queue.
    pub fn sender_memory(&self) -> usize {
        match self.life {
            Life::Fallback(_) => self.subflows[0].sock.bytes_queued(),
            _ => self.tx.memory(),
        }
    }

    /// Bytes the receiver holds: connection out-of-order queue + unread
    /// in-order data + transient subflow buffers (Figure 5b).
    pub fn receiver_memory(&self) -> usize {
        let in_subflows: usize = self.subflows.iter().map(|s| s.sock.recv_buffered()).sum();
        self.rx.memory() + in_subflows
    }

    /// Current connection-level advertised window.
    pub fn rcv_window(&self) -> u32 {
        self.rx.window()
    }

    /// Current autotuned receive buffer capacity.
    pub fn rcv_buf_capacity(&self) -> usize {
        self.rx.capacity()
    }

    /// Snapshot the connection's telemetry merged with the reorder queue's
    /// counters and every subflow socket's recorder; events interleave by
    /// time, and the newest [`DEFAULT_EVENT_CAPACITY`] are kept.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        // A fresh recorder rather than a clone: the trace ring stays put.
        let mut rec = Recorder::new();
        rec.absorb(&self.telemetry);
        let ooo = self.rx.queue();
        rec.count_n(CounterId::ReorderInserts, ooo.inserts());
        rec.count_n(CounterId::ReorderOps, ooo.ops());
        rec.count_n(CounterId::ReorderShortcutHits, ooo.shortcut_hits());
        rec.gauge_set(GaugeId::SndBufCap, self.tx.capacity() as u64);
        rec.gauge_set(GaugeId::RcvBufCap, self.rx.capacity() as u64);
        rec.gauge_set(GaugeId::Subflows, self.alive_subflows() as u64);
        rec.gauge_set(GaugeId::SendQueueBytes, self.tx.memory() as u64);
        for sf in &self.subflows {
            rec.absorb(&sf.sock.telemetry);
        }
        rec.snapshot()
    }

    /// Snapshot the time-series trace, the connection's merged and
    /// time-sorted with every subflow socket's. Empty when tracing is off.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        let socks = self.subflows.iter().map(|sf| &sf.sock.telemetry);
        let all = std::iter::once(&self.telemetry).chain(socks);
        TraceSnapshot::merge(all.map(Recorder::trace_snapshot).collect())
    }

    /// Record one connection-level sample (no-op when disabled).
    fn trace_conn_sample(&mut self, now: SimTime) {
        if !self.telemetry.tracing() {
            return;
        }
        let rec = TraceRecord::ConnSample {
            at_ns: now.0,
            rwnd: self.rx.window(),
            data_snd_nxt: self.tx.snd_nxt(),
            data_snd_una: self.tx.snd_una(),
            data_rcv_nxt: self.rx.rcv_nxt(),
            reorder_segs: self.rx.queue().len() as u64,
            reorder_bytes: self.rx.queue().buffered_bytes() as u64,
            snd_buf_cap: self.tx.capacity() as u64,
            rcv_buf_cap: self.rx.capacity() as u64,
        };
        self.telemetry.sample(rec);
    }

    /// Sequence space not yet acknowledged at the data level.
    pub fn data_outstanding(&self) -> u64 {
        self.tx.outstanding()
    }

    /// Write application data; the outcome says how many bytes were
    /// accepted and via which path (connection send buffer permitting).
    pub fn write(&mut self, data: &[u8]) -> WriteOutcome {
        self.ticked_at = None;
        if self.tx.closing() || matches!(self.life, Life::Closed(_)) {
            return WriteOutcome::Closed;
        }
        if self.is_fallback() {
            let sock = &mut self.subflows[0].sock;
            let room = self.cfg.send_buf.saturating_sub(sock.bytes_queued());
            let n = sock.send(&data[..data.len().min(room)]);
            self.stats.bytes_written += n as u64;
            return WriteOutcome::FellBack(n);
        }
        let take = self.tx.write(data);
        if take == 0 && !data.is_empty() {
            return WriteOutcome::WouldBlock;
        }
        self.stats.bytes_written += take as u64;
        WriteOutcome::Accepted(take)
    }

    /// Read in-order application data.
    pub fn read(&mut self, max: usize) -> ReadOutcome {
        self.ticked_at = None; // it moves the shared window
        match self.rx.read(max) {
            Some(out) => {
                self.stats.bytes_delivered += out.len() as u64;
                ReadOutcome::Data(out)
            }
            None if self.at_eof() => ReadOutcome::Eof,
            None if matches!(self.life, Life::Closed(_)) => ReadOutcome::Closed,
            None => ReadOutcome::WouldBlock,
        }
    }

    /// Close the sending direction (DATA_FIN, §3.4).
    pub fn close(&mut self) {
        self.ticked_at = None;
        if !self.feed(SimTime::ZERO, 0, Input::Close) {
            self.tx.close();
        }
    }

    /// Feed the lifecycle `input`, which concerns subflow `idx`, and carry
    /// out what it decides; `true` when that was anything.
    fn feed(&mut self, now: SimTime, idx: usize, input: Input) -> bool {
        let Some(action) = self.life.on(input) else {
            return false;
        };
        match action {
            Action::Confirm => {
                let FourTuple {
                    src: local,
                    dst: remote,
                } = self.subflows[0].sock.tuple();
                self.pm_event(now, PmEvent::Established { local, remote });
            }
            Action::FallBack(cause) => {
                self.telemetry.note(now.0, EventKind::Fallback { cause });
                // RFC 8684 §3.7: a checksum failure on the last subflow is
                // the peer's to hear of, or it keeps speaking MPTCP.
                if cause == FallbackCause::ChecksumFail {
                    let dsn = self.rx.rcv_nxt();
                    self.subflows[idx].signal(MptcpOption::MpFail { dsn });
                }
                // Plain TCP from here: the failure detector stops, and
                // unsent data continues as plain writes on subflow 0.
                self.health.clear();
                for p in self.tx.abandon() {
                    self.subflows[0].sock.send_chunk(p, None);
                }
                if self.tx.closing() {
                    self.subflows[0].sock.close();
                }
            }
            Action::Abort(reason) => {
                let code = reason.code();
                self.telemetry.note(now.0, EventKind::ConnAborted { code });
                for sf in self.subflows.iter_mut().filter(|sf| !sf.dead) {
                    sf.sock.abort();
                }
                // `tick` no longer runs once Closed; a timer left armed
                // here would report a forever-past deadline from `poll_at`.
                self.health.clear();
                self.tx.stop_rto();
            }
            // §3.3.6: the offending subflow goes; the transfer continues on
            // the others after re-injection.
            Action::ResetSubflow => {
                let dsn = self.rx.rcv_nxt();
                self.subflows[idx].signal(MptcpOption::MpFail { dsn });
                self.reset_subflow(now, idx);
            }
            Action::CloseSubflows { orphan } => {
                for sf in self.subflows.iter_mut().filter(|sf| !sf.dead) {
                    sf.sock.close();
                    if orphan {
                        sf.sock.orphan();
                    }
                }
            }
        }
        true
    }

    /// Open an additional subflow (MP_JOIN) from `local` to `remote`.
    /// Fails unless MPTCP is established, keys are known, the four-tuple
    /// is new, and the subflow limit has room.
    pub fn open_subflow(
        &mut self,
        local: Endpoint,
        remote: Endpoint,
        now: SimTime,
    ) -> Result<SubflowId, SubflowError> {
        self.open_subflow_with(local, remote, false, now)
    }

    /// [`open_subflow`](MptcpConnection::open_subflow) with an explicit
    /// backup priority: the MP_JOIN carries the B-flag and the subflow
    /// starts in the scheduler's backup tier.
    pub fn open_subflow_with(
        &mut self,
        local: Endpoint,
        remote: Endpoint,
        backup: bool,
        now: SimTime,
    ) -> Result<SubflowId, SubflowError> {
        self.ticked_at = None;
        if !self.life.running() {
            return Err(SubflowError::WrongState);
        }
        let Some(rk) = self.remote else {
            return Err(SubflowError::NoRemoteKey);
        };
        // Don't open duplicates; a four-tuple whose subflow died is free
        // again (§3.4: NAT timeout, mobility).
        let tuple = FourTuple {
            src: local,
            dst: remote,
        };
        if self.owns_tuple(tuple.reversed()) {
            return Err(SubflowError::DuplicateSubflow);
        }
        if self.alive_subflows() >= MAX_SUBFLOWS {
            return Err(SubflowError::SubflowLimit);
        }
        let nonce = self.rng.next_u32();
        let addr_id = self.pm.mint_id();
        let syn_opts = vec![TcpOption::Mptcp(MptcpOption::MpJoinSyn {
            token: rk.token,
            nonce,
            addr_id,
            backup,
        })];
        let isn = SeqNum(self.rng.next_u32());
        let sock = TcpSocket::client(self.cfg.subflow_tcp(), tuple, isn, now, syn_opts);
        self.push_subflow(sock, JoinState::ClientSyn { nonce }, addr_id, backup);
        let id = SubflowId(self.subflows.len() - 1);
        self.telemetry
            .gauge_set(GaugeId::Subflows, self.alive_subflows() as u64);
        Ok(id)
    }

    /// Accept an MP_JOIN SYN addressed to this connection (the endpoint
    /// demuxed it via the token). The error says why validation failed.
    pub fn accept_join(&mut self, syn: &TcpSegment, now: SimTime) -> Result<(), JoinError> {
        self.ticked_at = None;
        let join = syn.mptcp_options().find_map(|m| match *m {
            MptcpOption::MpJoinSyn {
                token,
                nonce,
                addr_id,
                backup,
            } => Some((token, nonce, addr_id, backup)),
            _ => None,
        });
        // A refusal names the token the join asked for, if it got that far.
        let checked = match (join, self.remote) {
            _ if matches!(self.life, Life::Fallback(_) | Life::Closed(_)) => {
                Err((JoinError::WrongState, 0))
            }
            (None, _) => Err((JoinError::NoJoinOption, 0)),
            (Some((token, ..)), Some(_)) if token != self.local.token => {
                Err((JoinError::UnknownToken, token))
            }
            (Some((token, ..)), None) => Err((JoinError::UnknownToken, token)),
            (Some((token, ..)), _) if self.alive_subflows() >= MAX_SUBFLOWS => {
                Err((JoinError::SubflowLimit, token))
            }
            (Some((_, theirs, addr_id, backup)), Some(rk)) => Ok((theirs, addr_id, backup, rk)),
        };
        let (theirs, addr_id, backup, rk) = match checked {
            Ok(join) => join,
            Err((refusal, token)) => {
                self.telemetry
                    .note(now.0, EventKind::JoinRejected { token });
                return Err(refusal);
            }
        };
        let ours = self.rng.next_u32();
        let mac = crypto::join_synack_mac(self.local.key, rk.key, theirs, ours);
        let syn_opts = vec![TcpOption::Mptcp(MptcpOption::MpJoinSynAck {
            mac,
            nonce: ours,
            addr_id: 0,
            backup: false,
        })];
        let isn = SeqNum(self.rng.next_u32());
        let mut sock = TcpSocket::accept(self.cfg.subflow_tcp(), syn, isn, now, syn_opts);
        sock.take_rx_mptcp(&mut Vec::new()); // MP_JOIN SYN consumed above
        let join = JoinState::ServerWait { ours, theirs };
        self.push_subflow(sock, join, addr_id, backup);
        // The peer joined toward this local address: if we had been
        // advertising it, the join is the echo — stop retransmitting.
        self.pm.mark_echoed(syn.tuple.dst.addr);
        self.telemetry
            .gauge_set(GaugeId::Subflows, self.alive_subflows() as u64);
        Ok(())
    }

    /// Does `incoming` (a tuple as seen in an arriving segment) belong to
    /// one of our live subflows?
    pub fn owns_tuple(&self, incoming: FourTuple) -> bool {
        self.subflow_for(incoming)
            .is_some_and(|i| !self.subflows[i].dead)
    }

    /// The subflow an arriving segment is for: the live one on its
    /// four-tuple, else a dead one (whose closed socket ignores it).
    fn subflow_for(&self, incoming: FourTuple) -> Option<usize> {
        let local = incoming.reversed();
        let on_tuple = |live: bool| {
            self.subflows
                .iter()
                .position(|s| s.dead != live && s.sock.tuple() == local)
        };
        on_tuple(true).or_else(|| on_tuple(false))
    }

    /// Feed a segment belonging to this connection.
    pub fn handle_segment(&mut self, now: SimTime, seg: &TcpSegment) {
        self.handle_segments(now, std::slice::from_ref(seg));
    }

    /// Feed the segments that arrived together (one socket drain, or one
    /// simulator delivery): the only ingest path.
    ///
    /// Every segment is fed to its subflow socket and moves the data-level
    /// right edge. Once MPTCP is confirmed, what follows (options, mapping
    /// translation, reorder, ack state) runs once per touched subflow at
    /// the end of the batch; before, after each segment, because the
    /// lifecycle's decisions depend on which segment came first.
    pub fn handle_segments(&mut self, now: SimTime, segs: &[TcpSegment]) {
        self.ticked_at = None;
        for seg in segs {
            let Some(idx) = self.subflow_for(seg.tuple) else {
                continue;
            };
            self.subflows[idx].sock.handle_segment(now, seg);

            // §3.3.2: the window is relative to the DATA_ACK it travelled
            // with. Before confirmation the DSS-less handshake segments must
            // open the connection; afterwards a DSS-less segment is a
            // forgery (a pro-active acker's 1 MB windows must not inflate
            // the edge). Mid-batch `snd_una` may lag; the truncated ack
            // only mis-expands past a drift of 2^31 bytes.
            if !matches!(self.life, Life::Fallback(_) | Life::Closed(_)) && seg.flags.ack {
                let dss_ack = seg.mptcp_options().find_map(|m| match m {
                    MptcpOption::Dss {
                        data_ack: Some(a), ..
                    } => Some(*a),
                    _ => None,
                });
                self.tx
                    .on_window(dss_ack, self.life != Life::Established, seg.window);
            }

            if self.life == Life::Established {
                if !self.touched.contains(&idx) {
                    self.touched.push(idx);
                }
                continue;
            }
            self.after_input(now, idx);

            // §3.1: "If the first non-SYN packet received by the server
            // does not contain an MPTCP option, the server must assume the
            // path is not MPTCP-capable", hardened in `Life`.
            let mptcp = seg.options.iter().any(|o| o.is_mptcp());
            if !seg.flags.syn && idx == 0 && (mptcp || self.subflows[0].sock.is_established()) {
                self.feed(now, 0, Input::Segment { mptcp });
            }
        }
        let mut touched = std::mem::take(&mut self.touched);
        for idx in touched.drain(..) {
            self.after_input(now, idx);
        }
        self.touched = touched; // drained; keep the capacity
    }

    fn after_input(&mut self, now: SimTime, idx: usize) {
        self.process_handshake(now, idx);
        self.process_rx_options(now, idx);
        self.drain_subflow_stream(now, idx);
        self.reap_dead(now);
        self.update_ack_state(now);
    }

    /// Establishment of the first subflow: a client reads the server's
    /// key off the SYN/ACK; a server stays unconfirmed until the first
    /// non-SYN segment proves the client received its key.
    fn process_handshake(&mut self, now: SimTime, idx: usize) {
        let Life::Handshake { client } = self.life else {
            return;
        };
        let sf = &mut self.subflows[idx];
        if !sf.sock.is_established() {
            if sf.sock.is_error() {
                self.feed(now, idx, Input::Abort(AbortReason::HandshakeFailed));
            }
            return;
        }
        // A server's handshake carried its key out; a client's brings the
        // server's in.
        if client {
            sf.sock.take_rx_mptcp(&mut self.rx_opts);
        }
        let server_key = self.rx_opts.drain(..).rev().find_map(|o| capable_key(&o));
        let capable = !client || server_key.is_some();
        self.feed(now, idx, Input::Synchronized { capable });
        let Some((key, ck)) = server_key else {
            return;
        };
        self.set_remote_key(key);
        self.cfg.checksum |= ck;
        // The third ACK, carrying MP_CAPABLE with both keys (§3.1).
        self.subflows[idx].sock.request_ack();
    }

    /// Process harvested MPTCP options on an established connection.
    fn process_rx_options(&mut self, now: SimTime, idx: usize) {
        if matches!(self.life, Life::Handshake { .. } | Life::Closed(_)) {
            return;
        }
        let mut opts = std::mem::take(&mut self.rx_opts);
        self.subflows[idx].sock.take_rx_mptcp(&mut opts);
        if self.is_fallback() {
            opts.clear(); // ignore MPTCP signalling once fallen back
        }
        for o in opts.drain(..) {
            match o {
                MptcpOption::MpCapable { sender_key, .. } => {
                    // Server learning the client still speaks MPTCP
                    // (third-ACK echo); key already known from the SYN.
                    if self.remote.is_none() {
                        self.set_remote_key(sender_key);
                    }
                    self.feed(now, idx, Input::MptcpSeen);
                }
                MptcpOption::Dss {
                    data_ack,
                    mapping,
                    data_fin,
                } => {
                    self.feed(now, idx, Input::MptcpSeen);
                    self.subflows[idx].join_confirmed();
                    if data_fin {
                        self.rx
                            .on_data_fin(mapping.map(|m| m.dsn + u64::from(m.len)));
                        // Answer now: a peer that has closed its subflows
                        // sends nothing else for the DATA_ACK to ride.
                        self.subflows[idx].sock.request_ack();
                    }
                    if let Some(m) = mapping.filter(|m| m.len > 0) {
                        self.subflows[idx].tracker.add(&m);
                    }
                    if let Some(a) = data_ack {
                        self.tx.on_data_ack(a);
                    }
                }
                MptcpOption::AddAddr(a) => self.pm_event(now, PmEvent::AddrAdvertised(a)),
                MptcpOption::RemoveAddr { addr_ids } => {
                    for addr_id in addr_ids {
                        let live = self.subflows.iter().enumerate().filter(|(_, s)| !s.dead);
                        let live = live.map(|(i, s)| (i, s.addr_id, s.sock.tuple().dst.addr));
                        let live = live.collect();
                        self.pm_event(now, PmEvent::AddrWithdrawn { addr_id, live });
                    }
                }
                mac @ (MptcpOption::MpJoinSynAck { .. } | MptcpOption::MpJoinAck { .. }) => {
                    self.on_join_mac(now, idx, mac)
                }
                // Handled at accept_join; a duplicate SYN's option.
                MptcpOption::MpJoinSyn { .. } => {}
                MptcpOption::MpFail { .. } => {
                    let live = self.alive_subflows();
                    self.feed(now, idx, Input::MpFail { live });
                }
                MptcpOption::FastClose { .. } => {
                    self.feed(now, idx, Input::Abort(AbortReason::PeerFastClose));
                }
                MptcpOption::MpPrio { backup, .. } => self.subflows[idx].backup = backup,
            }
        }
        self.rx_opts = opts; // drained; keep the capacity
    }

    /// A join's MAC arrived on subflow `idx` (the server's on the SYN/ACK,
    /// or the client's on the third ACK): the subflow checks it.
    fn on_join_mac(&mut self, now: SimTime, idx: usize, opt: MptcpOption) {
        let Some(rk) = self.remote else { return };
        // A rejected join names the token it asked for: ours on its server.
        let server = matches!(opt, MptcpOption::MpJoinAck { .. });
        let token = if server { self.local.token } else { rk.token };
        match self.subflows[idx].verify_join(opt, self.local.key, rk.key) {
            // Under the redundant scheduler a subflow that joins mid-stream
            // owes copies of everything still outstanding, which were
            // duplicated only across the older paths: queue them for
            // reinjection, which places each copy away from the path
            // already carrying it.
            Some(true) if self.cfg.scheduler == SchedulerKind::Redundant => {
                self.tx.reinject_where(u64::MAX, |_, _| true);
            }
            Some(false) => {
                self.telemetry
                    .note(now.0, EventKind::JoinRejected { token });
                self.reset_subflow(now, idx);
            }
            _ => {}
        }
    }

    /// The path manager's live state (admin plane, tests).
    pub fn path_manager(&self) -> &PathManager {
        &self.pm
    }

    /// Tell the path manager what happened and execute what it decides.
    fn pm_event(&mut self, now: SimTime, ev: PmEvent) {
        let actions = self.pm.on_event(now, ev, &mut self.telemetry);
        self.pm_apply(now, actions);
    }

    /// Execute a batch of path-manager decisions.
    fn pm_apply(&mut self, now: SimTime, actions: Vec<PmAction>) {
        for act in actions {
            match act {
                PmAction::OpenSubflow {
                    local,
                    remote,
                    backup,
                } => {
                    let opening = EventKind::PmOpenSubflow {
                        local: local.addr,
                        remote: remote.addr,
                        backup: u32::from(backup),
                    };
                    self.telemetry.note(now.0, opening);
                    if self.open_subflow_with(local, remote, backup, now).is_ok() {
                        self.telemetry.count(CounterId::PmSubflowsOpened);
                    }
                }
                PmAction::Advertise { advert, retransmit } => {
                    let Some(sf) = self.subflows.iter_mut().find(|s| s.usable()) else {
                        continue;
                    };
                    sf.signal(MptcpOption::AddAddr(advert));
                    self.telemetry.count(if retransmit {
                        CounterId::AddAddrRetransmits
                    } else {
                        CounterId::AddAddrsSent
                    });
                    let (addr, id) = (advert.addr, u32::from(advert.addr_id));
                    self.telemetry
                        .note(now.0, EventKind::PmAdvertise { addr, id });
                }
                // The address went away under it.
                PmAction::CloseSubflow { subflow } => {
                    if self.subflows.get(subflow).is_some_and(|s| !s.dead) {
                        self.retire(now, subflow, AbortReason::LastSubflowRemoved);
                    }
                }
                PmAction::PromoteBackup => self.promote_backup(now),
            }
        }
    }

    /// Clear the backup priority of the first usable backup subflow whose
    /// path has not failed, and tell the peer via MP_PRIO — the handover
    /// moment: the pre-opened backup becomes the workhorse.
    fn promote_backup(&mut self, now: SimTime) {
        let health = &self.health;
        let mut subflows = self.subflows.iter_mut().enumerate();
        let Some((idx, sf)) =
            subflows.find(|(i, s)| s.usable() && s.backup && health.state(*i) != PathState::Failed)
        else {
            return;
        };
        sf.backup = false;
        sf.signal(MptcpOption::MpPrio {
            backup: false,
            addr_id: Some(sf.addr_id),
        });
        let subflow = idx as u32;
        self.telemetry
            .note(now.0, EventKind::PmBackupPromoted { subflow });
    }

    /// A local address went away (interface down, §3.4 mobility): tell
    /// the peer via REMOVE_ADDR on a surviving subflow, tear down the
    /// subflows riding it, and let the path manager migrate (promote a
    /// pre-opened backup).
    pub fn local_addr_down(&mut self, addr: u32, now: SimTime) {
        self.ticked_at = None;
        if matches!(self.life, Life::Closed(_)) {
            return;
        }
        let subflows = self.subflows.iter().enumerate();
        let on_addr = subflows.filter(|(_, s)| !s.dead && s.sock.tuple().src.addr == addr);
        let affected: Vec<usize> = on_addr.map(|(i, _)| i).collect();
        if !self.is_fallback() && !affected.is_empty() {
            let mut ids: Vec<u8> = affected.iter().map(|&i| self.subflows[i].addr_id).collect();
            ids.sort_unstable();
            ids.dedup();
            let carrier = self
                .subflows
                .iter()
                .position(|s| s.usable() && s.sock.tuple().src.addr != addr);
            if let Some(c) = carrier {
                self.subflows[c].signal(MptcpOption::RemoveAddr {
                    addr_ids: ids.clone(),
                });
                for (id, sent) in ids.into_iter().map(|id| (u32::from(id), 1)) {
                    self.telemetry
                        .note(now.0, EventKind::RemoveAddr { id, sent });
                }
            }
        }
        self.pm_event(now, PmEvent::LocalAddrDown { addr, affected });
    }

    /// A local address came (back) up: the path manager re-advertises it
    /// if it is a signal endpoint.
    pub fn local_addr_up(&mut self, addr: u32, now: SimTime) {
        self.ticked_at = None;
        if matches!(self.life, Life::Fallback(_) | Life::Closed(_)) {
            return;
        }
        self.pm_event(now, PmEvent::LocalAddrUp { addr });
    }

    /// Pull in-order subflow bytes, translate them through the mappings
    /// and hand the mapped pieces to the receiver as one run, so a drain of
    /// N datagrams costs one reorder walk instead of N.
    fn drain_subflow_stream(&mut self, now: SimTime, idx: usize) {
        'drain: loop {
            let piece = self.subflows[idx].sock.read_stream(64 * 1024);
            let Some((mut off, mut bytes)) = piece else {
                break;
            };
            if self.is_fallback() {
                self.rx.flush(now, idx, &mut self.telemetry);
                self.rx.deliver(bytes);
                continue;
            }
            loop {
                let tracker = &mut self.subflows[idx].tracker;
                let Some(c) = tracker.consume_next(&mut off, &mut bytes, self.cfg.checksum) else {
                    break;
                };
                let (input, data) = match c {
                    Consumed::Mapped { dsn, data } => {
                        self.rx.stage(dsn, data);
                        continue;
                    }
                    Consumed::ChecksumFail { dsn, data } => {
                        self.rx.flush(now, idx, &mut self.telemetry);
                        let subflow = idx as u32;
                        self.telemetry
                            .note(now.0, EventKind::ChecksumFail { subflow, dsn });
                        let live = self.alive_subflows();
                        (Input::ChecksumFail { live }, data)
                    }
                    // Mid-stream option stripping on the only subflow is an
                    // infinite mapping (§3.3.6, §4.1). Elsewhere the bytes
                    // go: acked on the subflow but never DATA_ACKed, they
                    // are re-injected (§3.3.5).
                    Consumed::Unmapped { data } => {
                        self.rx.flush(now, idx, &mut self.telemetry);
                        let never_mapped = self.subflows[idx].tracker.mappings_received == 0;
                        let lone = self.alive_subflows() == 1 && never_mapped;
                        (Input::Unmapped { lone }, data)
                    }
                };
                self.feed(now, idx, input);
                // Fallen back, the bytes continue the stream as they came,
                // however a middlebox rewrote them.
                if self.is_fallback() {
                    self.rx.deliver(data);
                }
                // Reset, the subflow's other bytes are not checked again:
                // their chunks are re-injected on the subflows left.
                if self.subflows[idx].dead {
                    break 'drain;
                }
            }
        }
        self.rx.flush(now, idx, &mut self.telemetry);
        self.rx.check_fin();
    }

    fn alive_subflows(&self) -> usize {
        self.subflows.iter().filter(|s| !s.dead).count()
    }

    /// Retire every subflow whose socket failed (reset by the peer, or
    /// timed out).
    fn reap_dead(&mut self, now: SimTime) {
        for i in 0..self.subflows.len() {
            if !self.subflows[i].dead && self.subflows[i].sock.is_error() {
                self.retire(now, i, AbortReason::AllSubflowsDied);
            }
        }
    }

    /// Run the failure detector over every subflow and carry out its
    /// verdicts (see [`PathHealth`] for the rules).
    fn detect_path_failures(&mut self, now: SimTime) {
        for i in 0..self.subflows.len() {
            let verdict = self.health.observe(now, i, self.subflows[i].observe());
            let subflow = i as u32;
            match verdict.change {
                Some(Change::Suspect { rtos }) => self
                    .telemetry
                    .note(now.0, EventKind::PathSuspect { subflow, rtos }),
                Some(Change::Fail) => self.on_path_failed(now, i),
                Some(Change::Recover) => self
                    .telemetry
                    .note(now.0, EventKind::PathRecovered { subflow }),
                None => {}
            }
            if verdict.probe {
                self.subflows[i].sock.probe_path(now);
            }
        }
        if self.health.end_round(now) {
            self.feed(now, 0, Input::Abort(AbortReason::AllPathsFailed));
        }
    }

    /// Break-before-make: the chunks riding the failed path move to the
    /// others *before* the subflow is torn down, so a blackout costs one
    /// detection delay, not a TCP death; the path manager may promote a
    /// pre-opened backup so the scheduler's first tier is never empty.
    fn on_path_failed(&mut self, now: SimTime, idx: usize) {
        let reinjected = self.tx.reinject_where(u64::MAX, |_, sf| sf == idx);
        self.stats.reinjections += reinjected;
        let failed = EventKind::PathFailed {
            subflow: idx as u32,
            reinjected,
        };
        self.telemetry.note(now.0, failed);
        self.pm_event(now, PmEvent::SubflowFailed);
    }

    /// Emit at most one segment; call until `None`.
    ///
    /// The connection is ticked at `now` first, which is where timers
    /// fire and data is scheduled — unless it was ticked at this `now`
    /// already and nothing a tick reads has changed since, so a drain
    /// costs one tick. Every `&mut self` method here dirties it, and so
    /// does a subflow socket whose own `poll` changed what a tick reads
    /// ([`TcpSocket::take_poll_changed`]). See
    /// [`MptcpConnection::poll_at`] for the contract an event loop may
    /// rely on.
    pub fn poll(&mut self, now: SimTime) -> Option<TcpSegment> {
        if self.ticked_at != Some(now) {
            // Marked first: what the tick itself dirties (M2 halving a
            // window the coupling was just computed from) is owed another.
            self.ticked_at = Some(now);
            self.tick(now);
        }
        let conn = ConnView {
            life: self.life,
            fin_out: self.tx.fin_dsn().is_some(),
            data_ack: self.rx.rcv_nxt(),
            keys: self
                .remote
                .map(|r| (self.cfg.checksum, self.local.key, r.key)),
        };
        let n = self.subflows.len();
        for k in 0..n {
            let i = (self.poll_cursor + k) % n;
            // Dead subflows are still polled: an aborted socket must get
            // to emit its RST so the peer tears down and re-injects.
            let seg = self.subflows[i].poll(now, &conn);
            if self.subflows[i].sock.take_poll_changed() {
                self.ticked_at = None;
            }
            if seg.is_some() {
                self.poll_cursor = i;
                return seg;
            }
        }
        None
    }

    /// Earliest deadline across subflows, the data-level timer and the
    /// failure detector, whose all-paths abort deadline "abort, never
    /// hang" depends on being visible here.
    ///
    /// # The event-loop contract (wall-clock jitter)
    ///
    /// A real event loop sleeps until the returned deadline and wakes
    /// *late*. The machine promises, and `tests/poll_contract.rs`
    /// enforces:
    ///
    /// * **Late ticks are safe.** A tick at `deadline + jitter` fires
    ///   each elapsed timer exactly once — never once per nominal
    ///   interval the jitter covered — and re-arms it relative to the
    ///   tick's `now`, not the missed deadline.
    /// * **No stale deadlines.** Immediately after a tick at `now`,
    ///   every deadline returned here is strictly greater than `now`
    ///   (a past deadline would pin the loop in a busy spin).
    /// * **No stalls.** While a retransmission or detector transition is
    ///   pending, this returns `Some`; a loop that always sleeps until
    ///   `poll_at` cannot hang a connection that still has work.
    /// * **Idle polls change nothing.** `poll` on a clean connection at
    ///   the `now` it was last ticked at does not tick, so it cannot move
    ///   what this returns.
    pub fn poll_at(&self, now: SimTime) -> Option<SimTime> {
        let mut t = min_deadline(self.tx.rto_deadline(), self.health.deadline(now));
        // ADD_ADDR retransmits are serviced by `tick` only while MPTCP is
        // operational; don't let a stale deadline pin the loop otherwise.
        if self.life.running() {
            t = min_deadline(t, self.pm.poll_at());
        }
        for sf in self.subflows.iter().filter(|sf| !sf.dead) {
            t = min_deadline(t, sf.sock.poll_at(now));
        }
        t
    }

    /// Periodic work: timers, scheduling, window/ack refresh.
    fn tick(&mut self, now: SimTime) {
        if matches!(self.life, Life::Closed(_)) {
            return;
        }
        self.reap_dead(now);
        // Keeps the trace dense on quiet paths too.
        if self.telemetry.sample_due(now.0) {
            self.trace_conn_sample(now);
            for sf in self.subflows.iter_mut().filter(|sf| !sf.dead) {
                sf.sock.trace_sample(now);
            }
        }
        // Data-level retransmission timer (§3.3.5: "If a DATA ACK does
        // not arrive, a timer fires and the sender retransmits that
        // data"). Fallback voids it, and what follows is MPTCP's alone.
        if self.tx.rto_deadline().is_some_and(|t| t <= now) {
            self.on_data_rto(now);
        }
        if self.life.running() {
            self.detect_path_failures(now);
            if matches!(self.life, Life::Closed(_)) {
                return; // abort deadline expired with every path Failed
            }
            let pm_actions = self.pm.tick(now);
            self.pm_apply(now, pm_actions);
            let subflows = &mut self.subflows;
            self.coupled
                .couple(subflows, |sf| sf.usable().then_some(&mut sf.sock));
            self.push_data(now);
            self.maybe_send_data_fin(now);
        }

        self.update_ack_state(now);

        // A DATA_ACK stops the data-level timer; start it again while
        // anything is outstanding.
        if self.life.running() && self.tx.rto_unarmed() {
            self.tx.arm_rto(now, self.data_rto_base());
        }
    }

    /// The data-level timer's interval before backoff: twice the RTO of
    /// the healthiest subflow — a path stuck in exponential RTO backoff
    /// must not delay data-level recovery onto live paths.
    fn data_rto_base(&self) -> Duration {
        let min_rto = self
            .subflows
            .iter()
            .filter(|s| s.usable())
            .map(|s| s.sock.rto())
            .min()
            .unwrap_or(Duration::from_secs(1));
        min_rto * 2
    }

    fn on_data_rto(&mut self, now: SimTime) {
        let dsn = self.tx.snd_una();
        let base = self.data_rto_base();
        self.telemetry.note(now.0, EventKind::DataRto { dsn });
        let stalled_ns = self.tx.rto_interval(base).as_nanos() as u64;
        self.telemetry
            .note(now.0, EventKind::DataAckStall { dsn, stalled_ns });
        self.trace_conn_sample(now);
        // Client-side fallback detection (§3.3.6), decided on the first
        // expiry: re-injecting onto the lone subflow would duplicate bytes
        // in the raw stream a fallen-back peer is reading.
        let live = self.alive_subflows();
        if self.feed(now, 0, Input::DataRto { live }) {
            return;
        }
        self.tx.back_off_rto(now, base);
        // Re-inject the chunk holding up the window, plus every chunk whose
        // subflow has nothing left in flight: acknowledged there but never
        // DATA_ACKed, as behind a pro-active-ACKing proxy or a coalescer
        // that ate the mapping (§3.3.5). One at a time would crawl under
        // the timer's backoff.
        let subflows = &self.subflows;
        self.stats.reinjections += self.tx.reinject_where(128, |chunk, sf| {
            chunk == dsn || subflows[sf].dead || subflows[sf].sock.bytes_in_flight() == 0
        });
        // Retransmit a lost DATA_FIN signal.
        if self.tx.fin_dsn().is_some_and(|f| dsn >= f) {
            self.send_data_fin_signal();
        }
    }

    /// The scheduler's view of the paths it may use, in subflow order. The
    /// failure detector's verdict gates eligibility: Active paths first,
    /// backups next, Suspect paths only when nothing else is left, Failed
    /// paths never (their in-flight chunks were already reinjected).
    fn eligible_paths(subflows: &[Subflow], health: &PathHealth, paths: &mut Vec<PathSnapshot>) {
        let tier = |(i, sf): (usize, &Subflow)| match health.state(i) {
            _ if !sf.usable() => None,
            PathState::Active => Some(u8::from(sf.backup)),
            PathState::Suspect => Some(2),
            PathState::Failed => None,
        };
        paths.clear();
        let Some(best) = subflows.iter().enumerate().filter_map(tier).min() else {
            return;
        };
        let in_best = |p: &(usize, &Subflow)| tier(*p) == Some(best);
        let eligible = subflows.iter().enumerate().filter(in_best);
        paths.extend(eligible.map(|(i, sf)| sf.snapshot(i)));
    }

    /// Ask the configured [`Scheduler`] where the next chunk goes — a
    /// reinjection first, new data after — until it stalls, defers, or the
    /// window or the application runs dry. Reinjection, M1/M2 and the
    /// stall/pick telemetry wrap the call, so every policy inherits them.
    fn push_data(&mut self, now: SimTime) {
        loop {
            Self::eligible_paths(&self.subflows, &self.health, &mut self.paths);
            // Prefer a subflow other than the one a reinjected chunk is
            // already stuck on.
            let reinject = self.tx.reinject_head();
            let work_pending = self.tx.pending_bytes() > 0 || reinject.is_some();
            let decision = if self.paths.is_empty() {
                SchedDecision::Stall
            } else {
                self.sched.pick(&SchedCtx {
                    paths: &self.paths,
                    send_window_free: self.tx.window_room(),
                    pending_bytes: self.tx.pending_bytes(),
                    is_reinject: reinject.is_some(),
                    avoid: reinject.map(|(_, riding)| riding),
                })
            };
            if decision != SchedDecision::Stall {
                self.sched_stalled = false;
            }
            // `picks`: a redundant decision's whole set, primary first.
            let (primary, picks) = match decision {
                SchedDecision::Pick(id) => (id, Vec::new()),
                SchedDecision::PickAll(ids) => (ids[0], ids),
                // A deliberate wait for a better path (BLEST): not a stall
                // — the fast path's ACK clock re-polls us.
                SchedDecision::Defer => {
                    if work_pending {
                        self.telemetry.count(CounterId::SchedulerDefers);
                    }
                    return;
                }
                // No subflow can take the work (a placement with only some
                // paths blocked never lands here).
                SchedDecision::Stall => {
                    if work_pending {
                        self.telemetry.count(CounterId::SchedulerStalls);
                        if !std::mem::replace(&mut self.sched_stalled, true) {
                            let stall = EventKind::SchedulerStall {
                                pending_bytes: self.tx.pending_bytes() as u64,
                                reinject_queued: self.tx.reinject_queued() as u64,
                            };
                            self.telemetry.note(now.0, stall);
                        }
                    }
                    return;
                }
            };

            let (dsn, data) = if let Some(chunk) = self.tx.take_reinject(primary) {
                chunk
            } else if self.tx.window_room() == 0 {
                // Receive-window limited, where M1/M2 earn their keep
                // (§4.2): the shared window is stuck on a slower path.
                self.maybe_mechanisms(now, primary);
                return;
            } else if self.tx.pending_bytes() == 0 {
                return; // application-limited: nothing to do
            } else {
                self.tx
                    .cut_chunk(self.subflows[primary].sock.mss(), primary)
            };
            self.place_chunk(primary, dsn, &data);
            for &id in picks.iter().skip(1) {
                // Redundant copies are only buffer-gated; skip one the
                // buffer can't take.
                if self.subflows[id].sock.send_space() >= data.len() {
                    self.place_chunk(id, dsn, &data);
                }
            }
        }
    }

    /// Hand one chunk with its DSS mapping to a subflow. A mapping that
    /// ends at the DATA_FIN carries it, on every copy.
    fn place_chunk(&mut self, idx: usize, dsn: u64, data: &Bytes) {
        let sf = &mut self.subflows[idx];
        let ssn = sf.sock.next_tx_offset() as u32;
        let len = data.len() as u16;
        let checksum = self
            .cfg
            .checksum
            .then(|| checksum::dss_checksum(dsn, ssn, len, data));
        let dss = TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: None,
            mapping: Some(DssMapping {
                dsn,
                subflow_seq: ssn,
                len,
                checksum,
            }),
            data_fin: self.tx.fin_dsn() == Some(dsn + data.len() as u64),
        });
        let ok = sf.sock.send_chunk(data.clone(), Some(dss));
        debug_assert!(ok, "subflow send buffer unexpectedly full");
        self.stats.bytes_scheduled += data.len() as u64;
        self.telemetry.count(CounterId::SchedulerPicks);
    }

    /// M1 (opportunistic retransmission) and M2 (penalization), §4.2.
    fn maybe_mechanisms(&mut self, now: SimTime, fast: usize) {
        // The chunk at the trailing edge of the window, and who has it.
        let Some(culprit) = self.tx.head_owner() else {
            return; // nothing outstanding
        };
        if culprit == fast {
            return; // the trailing chunk is already on the fast path
        }
        // Both mechanisms exist for *asymmetric* paths (a slow 3G holding
        // up a fast WiFi); with comparable RTTs (Fig 6(c)) they only do
        // damage, so the culprit must be meaningfully slower.
        let fast_srtt = self.subflows[fast].srtt_or_default();
        let culprit_srtt = self.subflows[culprit].srtt_or_default();
        if culprit_srtt.as_secs_f64() < 1.5 * fast_srtt.as_secs_f64() {
            return;
        }

        if self.cfg.mech.opportunistic_retx {
            // Resend only the first unacknowledged segment (§4.2 M1), at
            // most once per fast-path RTT.
            if let Some((dsn, data)) = self.tx.retransmit_head(now, fast, fast_srtt) {
                self.place_chunk(fast, dsn, &data);
                let (from, to) = (culprit as u32, fast as u32);
                self.telemetry
                    .note(now.0, EventKind::M1Reinject { dsn, from, to });
            }
        }

        if self.cfg.mech.penalize {
            if let Some((before, after)) = self.subflows[culprit].penalize(now) {
                // The coupling this tick computed predates the halving.
                self.ticked_at = None;
                let penalized = EventKind::M2Penalize {
                    subflow: culprit as u32,
                    before,
                    after,
                };
                self.telemetry.note(now.0, penalized);
                // The penalty is exactly the cwnd discontinuity Fig. 4
                // visualizes; pin a subflow sample at the instant.
                self.subflows[culprit].sock.trace_sample(now);
            }
        }
    }

    /// §3.4: a DATA_FIN on no mapping goes out once everything before it
    /// is DATA_ACKed, and the subflow FINs only after the DATA_FIN is.
    fn maybe_send_data_fin(&mut self, now: SimTime) {
        if self.tx.assign_fin() {
            self.send_data_fin_signal();
        } else if self.tx.fin_acked() {
            let both = self.rx.eof();
            self.feed(now, 0, Input::DataFinAcked { both });
        }
    }

    fn send_data_fin_signal(&mut self) {
        let Some(fin_dsn) = self.tx.fin_dsn() else {
            return;
        };
        let opt = MptcpOption::Dss {
            data_ack: Some(self.rx.rcv_nxt()),
            mapping: Some(DssMapping {
                dsn: fin_dsn,
                subflow_seq: 0,
                len: 0,
                checksum: None,
            }),
            data_fin: true,
        };
        for sf in self.subflows.iter_mut().filter(|sf| sf.usable()) {
            sf.signal(opt.clone());
        }
    }

    /// Refresh the window every subflow advertises (§3.3.1: one shared
    /// pool). Fallen back, subflow 0's own window is held to what
    /// `recv_buf` leaves.
    fn update_ack_state(&mut self, now: SimTime) {
        if self.is_fallback() {
            let room = self.cfg.recv_buf.saturating_sub(self.receiver_memory());
            let room = u32::try_from(room).unwrap_or(u32::MAX);
            let sock = &mut self.subflows[0].sock;
            sock.set_window_override(Some(sock.recv_window().min(room)));
        }
        if matches!(self.life, Life::Fallback(_) | Life::Closed(_)) {
            return;
        }
        self.autotune(now);
        let window = self.rx.window();
        for sf in self.subflows.iter_mut().filter(|sf| !sf.dead) {
            sf.sock.set_window_override(Some(window));
        }
    }

    /// M3: both buffers toward `2·Σxᵢ·RTT_max` (§4.2), each rate taken
    /// where it is observed: sending, `cwndᵢ/srttᵢ`; receiving, the bytes
    /// one round trip brought in on subflow `i`.
    fn autotune(&mut self, now: SimTime) {
        if !self.cfg.mech.autotune {
            return;
        }
        // Every live subflow: data arrives on a join the server has not yet
        // confirmed too.
        let socks = || self.subflows.iter().filter(|s| !s.dead).map(|s| &s.sock);
        let snd = over_rtt_max(socks().filter_map(|s| Some((s.cwnd() as usize, s.srtt()?))));
        let rcv = over_rtt_max(socks().filter_map(TcpSocket::rcv_rate));
        let grew_rcv = self.rx.grow_to(autotuned(rcv, self.cfg.recv_buf));
        // The send buffer follows its rate down and up; it grew when it
        // passes its high-water mark.
        let high = self.telemetry.gauge(GaugeId::SndBufCap).max as usize;
        let grew_snd =
            self.tx.resize(autotuned(snd, self.cfg.send_buf)) && self.tx.capacity() > high;
        if grew_snd || grew_rcv {
            let (snd_cap, rcv_cap) = (self.tx.capacity() as u64, self.rx.capacity() as u64);
            self.telemetry
                .note(now.0, EventKind::M3Grow { snd_cap, rcv_cap });
            self.trace_conn_sample(now);
            self.telemetry.gauge_set(GaugeId::SndBufCap, snd_cap);
            self.telemetry.gauge_set(GaugeId::RcvBufCap, rcv_cap);
        }
    }
}
