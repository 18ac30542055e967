//! The MPTCP connection: subflow management, scheduling, flow control,
//! reliability at the data level, mechanisms M1–M4, and fallback.
//!
//! This is the paper's primary contribution assembled: a connection that
//! stripes one byte stream over several TCP subflows while surviving the
//! middlebox bestiary of §3 and performing well under the memory limits of
//! §4. The structure mirrors the paper:
//!
//! * §3.1 — MP_CAPABLE negotiation, fallback when options vanish, "carry
//!   the option until one has been acked".
//! * §3.2 — MP_JOIN with token demux and HMAC authentication; ADD_ADDR.
//! * §3.3 — per-subflow sequence spaces; relative DSS mappings; explicit
//!   DATA_ACK in options; shared receive pool window semantics; send
//!   buffer retained until DATA_ACK; DSS checksum + fallback.
//! * §3.4 — subflow FIN vs DATA_FIN; REMOVE_ADDR.
//! * §4.2 — opportunistic retransmission (M1), penalizing slow subflows
//!   (M2), buffer autotuning (M3), cwnd capping (M4, in the subflow TCP).
//! * §4.3 — pluggable connection-level out-of-order queues.

use std::collections::{BTreeMap, HashMap, VecDeque};

use bytes::Bytes;
use mptcp_netsim::{Duration, SimRng, SimTime};
use mptcp_packet::mptcp_opts::AdvertisedAddr;
use mptcp_packet::{
    checksum, crypto, DssMapping, Endpoint, FourTuple, MptcpOption, SeqNum, TcpOption, TcpSegment,
};
use mptcp_tcpstack::{CoupledState, FlowView, TcpSocket, TcpState, INIT_CWND_SEGS};
use mptcp_telemetry::{
    CounterId, EventKind, FallbackCause, GaugeId, Recorder, TelemetrySnapshot, TraceRecord,
    TraceSnapshot,
};

use crate::api::{AbortReason, JoinError, ReadOutcome, SubflowError, SubflowId, WriteOutcome};
use crate::config::MptcpConfig;
use crate::dsn::infer_full_dsn;
use crate::mapping::{Consumed, MappingTracker};
use crate::pm::{PathManager, PmAction, PmEvent};
use crate::reorder::{make_queue, OooQueue};
use crate::sched::{PathSnapshot, SchedCtx, SchedDecision, Scheduler};
use crate::subflow::{JoinState, PathState, Subflow};
use crate::token::{KeySet, TokenTable};

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

/// Notifications surfaced to the owner (host / application glue).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConnEvent {
    /// The peer advertised an additional address (ADD_ADDR): the owner may
    /// open a subflow toward it.
    PeerAddr(AdvertisedAddr),
    /// A subflow completed its handshake.
    SubflowUp(usize),
    /// A subflow died (RST, timeout, or checksum-triggered reset).
    SubflowDown(usize),
    /// The connection fell back to regular TCP.
    FellBack,
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

/// A chunk handed to a subflow, retained until DATA_ACKed (§3.3.5: "even
/// if a segment is ACKed at the subflow level, its data is kept in memory
/// until we receive a DATA ACK").
struct SentChunk {
    data: Bytes,
    subflow: usize,
}

/// One end of a Multipath TCP connection.
pub struct MptcpConnection {
    cfg: MptcpConfig,
    is_client: bool,
    state: ConnState,
    rng: SimRng,

    local: KeySet,
    remote: Option<KeySet>,
    checksum_on: bool,

    subflows: Vec<Subflow>,
    next_addr_id: u8,

    /// The path-manager policy engine: decides which subflows to open,
    /// what to advertise and how to react to address churn; this
    /// connection executes its [`PmAction`]s.
    pm: PathManager,
    /// Peer-advertised addresses by addr_id (ADD_ADDR idempotency: a
    /// repeat with the same address is ignored; a different address
    /// replaces the mapping).
    peer_adverts: HashMap<u8, (u32, Option<u16>)>,
    /// Stable addr_id per locally-advertised address, so ADD_ADDR
    /// retransmits re-use the id instead of minting a new one.
    advertised_local: HashMap<u32, u8>,

    // --- Send side -----------------------------------------------------
    /// Next data sequence number to assign.
    snd_nxt: u64,
    /// Oldest un-DATA-ACKed data sequence number.
    snd_una: u64,
    /// Right edge of the peer's receive window in data sequence space
    /// (monotonic max of DATA_ACK + window, §3.3.2).
    snd_right_edge: u64,
    /// App data written but not yet mapped onto a subflow.
    pending: VecDeque<Bytes>,
    pending_bytes: usize,
    /// Chunks on subflows awaiting DATA_ACK, keyed by DSN.
    sent: BTreeMap<u64, SentChunk>,
    sent_bytes: usize,
    /// Chunks to re-send (subflow death, data RTO, M1), keyed by DSN.
    reinject: VecDeque<u64>,
    /// Connection-level send buffer capacity (M3-autotuned).
    snd_buf_cap: usize,
    data_fin_queued: bool,
    /// DSN assigned to the DATA_FIN once emitted.
    data_fin_dsn: Option<u64>,
    data_rto_deadline: Option<SimTime>,
    data_rto_backoff: u32,
    /// M1 duplicate-suppression: last opportunistically-retransmitted DSN
    /// and when.
    last_opp: Option<(u64, SimTime)>,

    // --- Receive side ---------------------------------------------------
    /// Next expected data sequence number.
    rcv_nxt: u64,
    /// The connection-level out-of-order queue (Figure 8 algorithms).
    pub ooo: Box<dyn OooQueue>,
    app_rx: VecDeque<Bytes>,
    app_rx_bytes: usize,
    /// Connection-level receive buffer capacity (M3-autotuned).
    rcv_buf_cap: usize,
    /// DSN of the peer's DATA_FIN, if announced.
    rcv_fin_dsn: Option<u64>,
    /// Peer's stream fully received and FIN consumed.
    rcv_eof: bool,

    // Fallback bookkeeping.
    confirmed: bool,
    /// Consecutive option-less non-SYN segments on the initial subflow
    /// while MPTCP is unconfirmed.
    plain_rx_streak: u32,

    /// Why the connection was aborted, if it was.
    abort_reason: Option<AbortReason>,
    /// Since when every live subflow has been Failed — start of the
    /// abort-deadline countdown.
    all_failed_since: Option<SimTime>,

    events: VecDeque<ConnEvent>,
    /// Measurement counters.
    pub stats: ConnStats,
    /// Fine-grained mechanism telemetry (merged with per-subflow and
    /// reorder-queue recorders by [`MptcpConnection::telemetry`]). Its
    /// trace half holds the ConnSamples and connection-level spans; the
    /// per-subflow series live in each subflow socket's recorder.
    telemetry: Recorder,
    /// The configured packet scheduler (policy only; tiering, reinjection
    /// and telemetry stay here in the connection).
    sched: Box<dyn Scheduler>,
    /// Cross-subflow congestion-control coupling state (owned here: only
    /// the connection sees every subflow).
    coupled: CoupledState,
    /// Last scheduler decision was a stall? Gates the transition-only
    /// stall span; any non-stall decision clears it.
    sched_stalled: bool,
    poll_cursor: usize,
    /// Scratch: consecutive in-mapping segments from one subflow drain,
    /// delivered as a run so the reorder queue pays one walk per run.
    /// Empty between calls; kept for its capacity.
    mapped_run: Vec<(u64, Bytes)>,
    /// Scratch for out-of-order items awaiting a batched `ooo` insert.
    /// Empty between calls; kept for its capacity.
    ooo_pending: Vec<(u64, Bytes, usize)>,
    /// Scratch: subflows fed by the current `handle_segments` batch whose
    /// post-input pipeline is still owed. Empty between calls.
    touched: Vec<usize>,
}

impl MptcpConnection {
    // ------------------------------------------------------------------
    // Construction.
    // ------------------------------------------------------------------

    /// Active-open an MPTCP connection: the first [`MptcpConnection::poll`]
    /// emits a SYN carrying MP_CAPABLE with our key.
    pub fn client(
        cfg: MptcpConfig,
        tuple: FourTuple,
        now: SimTime,
        mut rng: SimRng,
    ) -> MptcpConnection {
        let local = KeySet::from_key(rng.next_u64());
        let checksum_on = cfg.checksum;
        let syn_opts = vec![TcpOption::Mptcp(MptcpOption::MpCapable {
            version: 0,
            checksum_required: checksum_on,
            sender_key: local.key,
            receiver_key: None,
        })];
        let mut sock = TcpSocket::client(
            cfg.tcp.clone(),
            tuple,
            SeqNum(rng.next_u32()),
            now,
            syn_opts,
        );
        MptcpConnection::install_cc(&cfg, &mut sock);
        let mut conn = MptcpConnection::common(cfg, true, local, rng);
        conn.subflows.push(Subflow::new(
            sock,
            MappingTracker::new(checksum_on),
            JoinState::Initial,
            0,
        ));
        conn
    }

    /// Passive-open from a received SYN. If the SYN carries MP_CAPABLE the
    /// connection negotiates MPTCP (drawing a unique-token key from
    /// `tokens`); otherwise it starts in fallback (plain TCP).
    pub fn server_accept(
        cfg: MptcpConfig,
        syn: &TcpSegment,
        now: SimTime,
        mut rng: SimRng,
        tokens: &mut TokenTable,
    ) -> MptcpConnection {
        let peer_capable = syn.mptcp_options().find_map(|m| match m {
            MptcpOption::MpCapable {
                sender_key,
                checksum_required,
                ..
            } => Some((*sender_key, *checksum_required)),
            _ => None,
        });

        match peer_capable {
            Some((peer_key, peer_ck)) => {
                let local = tokens.generate(&mut rng);
                let mut cfg = cfg;
                cfg.checksum = cfg.checksum || peer_ck;
                let checksum_on = cfg.checksum;
                let syn_opts = vec![TcpOption::Mptcp(MptcpOption::MpCapable {
                    version: 0,
                    checksum_required: checksum_on,
                    sender_key: local.key,
                    receiver_key: None,
                })];
                let mut sock =
                    TcpSocket::accept(cfg.tcp.clone(), syn, SeqNum(rng.next_u32()), now, syn_opts);
                // The SYN's MP_CAPABLE was consumed here; don't let the
                // harvested copy masquerade as third-ACK confirmation.
                let _ = sock.take_rx_mptcp();
                MptcpConnection::install_cc(&cfg, &mut sock);
                let mut conn = MptcpConnection::common(cfg, false, local, rng);
                conn.set_remote_key(peer_key);
                conn.state = ConnState::Handshake;
                conn.subflows.push(Subflow::new(
                    sock,
                    MappingTracker::new(checksum_on),
                    JoinState::Initial,
                    0,
                ));
                conn
            }
            None => {
                // No MP_CAPABLE (stripped or plain peer): regular TCP.
                let local = KeySet::from_key(rng.next_u64());
                let sock =
                    TcpSocket::accept(cfg.tcp.clone(), syn, SeqNum(rng.next_u32()), now, vec![]);
                let mut conn = MptcpConnection::common(cfg, false, local, rng);
                conn.state = ConnState::Fallback;
                conn.subflows.push(Subflow::new(
                    sock,
                    MappingTracker::new(false),
                    JoinState::Initial,
                    0,
                ));
                conn
            }
        }
    }

    fn common(cfg: MptcpConfig, is_client: bool, local: KeySet, rng: SimRng) -> MptcpConnection {
        let snd_start = local.idsn.wrapping_add(1);
        let (snd_buf_cap, rcv_buf_cap) = if cfg.mech.autotune {
            ((64 * 1024).min(cfg.send_buf), (64 * 1024).min(cfg.recv_buf))
        } else {
            (cfg.send_buf, cfg.recv_buf)
        };
        let pm = PathManager::new(cfg.pm.clone());
        MptcpConnection {
            is_client,
            state: ConnState::Handshake,
            rng,
            local,
            remote: None,
            checksum_on: cfg.checksum,
            subflows: Vec::new(),
            next_addr_id: 1,
            pm,
            peer_adverts: HashMap::new(),
            advertised_local: HashMap::new(),
            snd_nxt: snd_start,
            snd_una: snd_start,
            snd_right_edge: snd_start,
            pending: VecDeque::new(),
            pending_bytes: 0,
            sent: BTreeMap::new(),
            sent_bytes: 0,
            reinject: VecDeque::new(),
            snd_buf_cap,
            data_fin_queued: false,
            data_fin_dsn: None,
            data_rto_deadline: None,
            data_rto_backoff: 1,
            last_opp: None,
            rcv_nxt: 0,
            ooo: make_queue(cfg.reorder),
            app_rx: VecDeque::new(),
            app_rx_bytes: 0,
            rcv_buf_cap,
            rcv_fin_dsn: None,
            rcv_eof: false,
            confirmed: false,
            plain_rx_streak: 0,
            abort_reason: None,
            all_failed_since: None,
            events: VecDeque::new(),
            stats: ConnStats::default(),
            telemetry: Recorder::traced(cfg.event_capacity, cfg.trace),
            sched: cfg.scheduler.build(),
            coupled: CoupledState::new(cfg.cc),
            sched_stalled: false,
            poll_cursor: 0,
            mapped_run: Vec::new(),
            ooo_pending: Vec::new(),
            // Sized here, not on first use: one small allocation per
            // connection made mid-transfer lands between payload buffers
            // and costs `sim_http` 16 % peak RSS in heap fragmentation.
            touched: Vec::with_capacity(4),
            cfg,
        }
    }

    /// Install the configured congestion controller on a subflow socket
    /// (coupled LIA by default; see [`mptcp_tcpstack::CcAlgorithm`]).
    fn install_cc(cfg: &MptcpConfig, sock: &mut TcpSocket) {
        sock.set_cc(cfg.cc.build(cfg.tcp.mss as u32, INIT_CWND_SEGS));
    }

    fn set_remote_key(&mut self, key: u64) {
        let ks = KeySet::from_key(key);
        self.rcv_nxt = ks.idsn.wrapping_add(1);
        self.remote = Some(ks);
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// Connection state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Our token (what MP_JOIN SYNs toward us must carry).
    pub fn local_token(&self) -> u32 {
        self.local.token
    }

    /// Is the connection usable for data?
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            ConnState::Established | ConnState::AwaitingConfirm | ConnState::Fallback
        ) && self.subflows.iter().any(|s| s.usable())
    }

    /// Did we fall back to regular TCP?
    pub fn is_fallback(&self) -> bool {
        self.state == ConnState::Fallback
    }

    /// Why the connection aborted, if it did (`None` for a clean close or
    /// a still-live connection).
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.abort_reason
    }

    /// Stream EOF reached and drained?
    pub fn at_eof(&self) -> bool {
        let fin = if self.state == ConnState::Fallback {
            self.subflows.first().is_some_and(|s| s.sock.stream_fin())
        } else {
            self.rcv_eof
        };
        fin && self.app_rx.is_empty()
    }

    /// Has our DATA_FIN (or fallback FIN) been acknowledged?
    pub fn send_closed(&self) -> bool {
        match self.state {
            ConnState::Fallback => self.subflows.first().is_some_and(|s| s.sock.fin_acked()),
            _ => self.data_fin_dsn.is_some_and(|f| self.snd_una > f),
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
        &mut self.subflows
    }

    /// Bytes the sender holds: pending + retained-until-DATA_ACK chunks
    /// (Figure 5a's sender memory).
    pub fn sender_memory(&self) -> usize {
        self.pending_bytes + self.sent_bytes
    }

    /// Bytes the receiver holds: connection out-of-order queue + unread
    /// in-order data + transient subflow buffers (Figure 5b).
    pub fn receiver_memory(&self) -> usize {
        self.ooo.buffered_bytes()
            + self.app_rx_bytes
            + self
                .subflows
                .iter()
                .map(|s| s.sock.recv_buffered())
                .sum::<usize>()
    }

    /// Current connection-level advertised window.
    pub fn rcv_window(&self) -> u32 {
        self.rcv_buf_cap
            .saturating_sub(self.ooo.buffered_bytes() + self.app_rx_bytes) as u32
    }

    /// Current autotuned receive buffer capacity.
    pub fn rcv_buf_capacity(&self) -> usize {
        self.rcv_buf_cap
    }

    /// Snapshot the connection's telemetry: the connection-level recorder
    /// (M1–M4, fallback, data-level timers, joins) merged with the reorder
    /// queue's counters and every subflow socket's recorder (TCP RTOs,
    /// fast retransmits, M4 caps). The events of all of them interleave by
    /// time, and the newest `event_capacity` are kept.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        // A fresh recorder rather than a clone: the trace ring stays put.
        let mut rec = Recorder::with_event_capacity(self.cfg.event_capacity);
        rec.absorb(&self.telemetry);
        rec.count_n(CounterId::ReorderInserts, self.ooo.inserts());
        rec.count_n(CounterId::ReorderOps, self.ooo.ops());
        rec.count_n(CounterId::ReorderShortcutHits, self.ooo.shortcut_hits());
        rec.gauge_set(GaugeId::SndBufCap, self.snd_buf_cap as u64);
        rec.gauge_set(GaugeId::RcvBufCap, self.rcv_buf_cap as u64);
        rec.gauge_set(GaugeId::Subflows, self.alive_subflows() as u64);
        rec.gauge_set(
            GaugeId::SendQueueBytes,
            (self.pending_bytes + self.sent_bytes) as u64,
        );
        for sf in &self.subflows {
            rec.absorb(&sf.sock.telemetry);
        }
        rec.snapshot()
    }

    /// Snapshot the time-series trace: the connection's own trace ring
    /// (ConnSamples, connection-level spans) merged and time-sorted with
    /// every subflow socket's (SubflowSamples, TCP-level spans). Empty
    /// when tracing is disabled.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        let mut snaps = vec![self.telemetry.trace_snapshot()];
        for sf in &self.subflows {
            snaps.push(sf.sock.telemetry.trace_snapshot());
        }
        TraceSnapshot::merge(snaps)
    }

    /// Record one connection-level sample (no-op when disabled).
    fn trace_conn_sample(&mut self, now: SimTime) {
        if !self.telemetry.tracing() {
            return;
        }
        let rec = TraceRecord::ConnSample {
            at_ns: now.0,
            rwnd: self.rcv_window(),
            data_snd_nxt: self.snd_nxt,
            data_snd_una: self.snd_una,
            data_rcv_nxt: self.rcv_nxt,
            reorder_segs: self.ooo.len() as u64,
            reorder_bytes: self.ooo.buffered_bytes() as u64,
            snd_buf_cap: self.snd_buf_cap as u64,
            rcv_buf_cap: self.rcv_buf_cap as u64,
        };
        self.telemetry.sample(rec);
    }

    /// Drain pending events.
    pub fn take_events(&mut self) -> Vec<ConnEvent> {
        self.events.drain(..).collect()
    }

    /// Bytes not yet acknowledged at the data level.
    pub fn data_outstanding(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Room left before the peer's advertised data-level right edge.
    pub fn snd_window_room(&self) -> u64 {
        self.snd_right_edge.saturating_sub(self.snd_nxt)
    }

    // ------------------------------------------------------------------
    // Application API.
    // ------------------------------------------------------------------

    /// Write application data; the outcome says how many bytes were
    /// accepted and via which path (connection send buffer permitting).
    pub fn write(&mut self, data: &[u8]) -> WriteOutcome {
        if self.data_fin_queued || self.state == ConnState::Closed {
            return WriteOutcome::Closed;
        }
        if self.state == ConnState::Fallback {
            let n = self.subflows[0].sock.send(data);
            self.stats.bytes_written += n as u64;
            return WriteOutcome::FellBack(n);
        }
        let space = self
            .snd_buf_cap
            .saturating_sub(self.pending_bytes + self.sent_bytes);
        let take = data.len().min(space);
        if take > 0 {
            self.pending
                .push_back(Bytes::copy_from_slice(&data[..take]));
            self.pending_bytes += take;
            self.stats.bytes_written += take as u64;
        } else if !data.is_empty() {
            return WriteOutcome::WouldBlock;
        }
        WriteOutcome::Accepted(take)
    }

    /// Read in-order application data.
    pub fn read(&mut self, max: usize) -> ReadOutcome {
        let Some(front) = self.app_rx.front_mut() else {
            return if self.at_eof() {
                ReadOutcome::Eof
            } else if self.state == ConnState::Closed {
                ReadOutcome::Closed
            } else {
                ReadOutcome::WouldBlock
            };
        };
        let out = if front.len() <= max {
            self.app_rx.pop_front().unwrap()
        } else {
            let head = front.slice(..max);
            *front = front.slice(max..);
            head
        };
        self.app_rx_bytes -= out.len();
        self.stats.bytes_delivered += out.len() as u64;
        ReadOutcome::Data(out)
    }

    /// Close the sending direction (DATA_FIN, §3.4).
    pub fn close(&mut self) {
        if self.state == ConnState::Fallback {
            self.subflows[0].sock.close();
        } else {
            self.data_fin_queued = true;
        }
    }

    /// Abort everything.
    pub fn abort(&mut self) {
        for sf in &mut self.subflows {
            if !sf.dead {
                sf.sock.abort();
            }
            // `tick` no longer runs once Closed; a timer left armed here
            // would report a forever-past deadline from `poll_at`.
            sf.probe_at = None;
            sf.progress_at = None;
        }
        self.data_rto_deadline = None;
        self.state = ConnState::Closed;
    }

    /// Abort with a recorded [`AbortReason`], surfaced via
    /// [`MptcpConnection::abort_reason`], telemetry, and the trace.
    pub fn abort_with(&mut self, reason: AbortReason, now: SimTime) {
        if self.state == ConnState::Closed {
            return;
        }
        self.abort_reason.get_or_insert(reason);
        self.all_failed_since = None; // the deadline fired; stop reporting it
        self.telemetry.note(
            now.0,
            EventKind::ConnAborted {
                code: reason.code(),
            },
        );
        self.abort();
    }

    // ------------------------------------------------------------------
    // Subflow management.
    // ------------------------------------------------------------------

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
        if self.state != ConnState::Established && self.state != ConnState::AwaitingConfirm {
            return Err(SubflowError::WrongState);
        }
        let Some(rk) = self.remote else {
            return Err(SubflowError::NoRemoteKey);
        };
        // Don't open duplicates.
        let tuple = FourTuple {
            src: local,
            dst: remote,
        };
        if self
            .subflows
            .iter()
            .any(|s| !s.dead && s.sock.tuple() == tuple)
        {
            return Err(SubflowError::DuplicateSubflow);
        }
        if self.alive_subflows() >= self.cfg.max_subflows {
            return Err(SubflowError::SubflowLimit);
        }
        let nonce = self.rng.next_u32();
        let addr_id = self.next_addr_id;
        self.next_addr_id += 1;
        let syn_opts = vec![TcpOption::Mptcp(MptcpOption::MpJoinSyn {
            token: rk.token,
            nonce,
            addr_id,
            backup,
        })];
        let mut sock = TcpSocket::client(
            self.cfg.tcp.clone(),
            tuple,
            SeqNum(self.rng.next_u32()),
            now,
            syn_opts,
        );
        MptcpConnection::install_cc(&self.cfg, &mut sock);
        sock.set_telemetry_tag(self.subflows.len() as u32);
        let mut sf = Subflow::new(
            sock,
            MappingTracker::new(self.checksum_on),
            JoinState::ClientSyn,
            addr_id,
        );
        sf.nonce_local = nonce;
        sf.backup = backup;
        self.subflows.push(sf);
        let id = SubflowId(self.subflows.len() - 1);
        self.telemetry
            .gauge_set(GaugeId::Subflows, self.alive_subflows() as u64);
        Ok(id)
    }

    /// Accept an MP_JOIN SYN addressed to this connection (the endpoint
    /// demuxed it via the token). The error says why validation failed.
    pub fn accept_join(&mut self, syn: &TcpSegment, now: SimTime) -> Result<(), JoinError> {
        if matches!(self.state, ConnState::Fallback | ConnState::Closed) {
            self.reject_join(now, 0);
            return Err(JoinError::WrongState);
        }
        let Some(MptcpOption::MpJoinSyn {
            token,
            nonce,
            addr_id,
            backup,
        }) = syn
            .mptcp_options()
            .find(|m| matches!(m, MptcpOption::MpJoinSyn { .. }))
            .cloned()
        else {
            self.reject_join(now, 0);
            return Err(JoinError::NoJoinOption);
        };
        if token != self.local.token || self.remote.is_none() {
            self.reject_join(now, token);
            return Err(JoinError::UnknownToken);
        }
        if self.alive_subflows() >= self.cfg.max_subflows {
            self.reject_join(now, token);
            return Err(JoinError::SubflowLimit);
        }
        let rk = self.remote.unwrap();
        let nonce_local = self.rng.next_u32();
        let mac = crypto::join_synack_mac(self.local.key, rk.key, nonce, nonce_local);
        let syn_opts = vec![TcpOption::Mptcp(MptcpOption::MpJoinSynAck {
            mac,
            nonce: nonce_local,
            addr_id: 0,
            backup: false,
        })];
        let mut sock = TcpSocket::accept(
            self.cfg.tcp.clone(),
            syn,
            SeqNum(self.rng.next_u32()),
            now,
            syn_opts,
        );
        let _ = sock.take_rx_mptcp(); // MP_JOIN SYN consumed above
        MptcpConnection::install_cc(&self.cfg, &mut sock);
        sock.set_telemetry_tag(self.subflows.len() as u32);
        let mut sf = Subflow::new(
            sock,
            MappingTracker::new(self.checksum_on),
            JoinState::ServerWait,
            addr_id,
        );
        sf.nonce_local = nonce_local;
        sf.nonce_remote = nonce;
        sf.backup = backup;
        self.subflows.push(sf);
        // The peer joined toward this local address: if we had been
        // advertising it, the join is the echo — stop retransmitting.
        self.pm.mark_echoed(syn.tuple.dst.addr);
        self.telemetry
            .gauge_set(GaugeId::Subflows, self.alive_subflows() as u64);
        Ok(())
    }

    fn reject_join(&mut self, now: SimTime, token: u32) {
        self.telemetry
            .note(now.0, EventKind::JoinRejected { token });
    }

    /// Does `tuple` (as seen in an incoming segment) belong to one of our
    /// subflows?
    pub fn owns_tuple(&self, incoming: FourTuple) -> bool {
        self.subflows
            .iter()
            .any(|s| s.sock.tuple() == incoming.reversed())
    }

    // ------------------------------------------------------------------
    // Input path.
    // ------------------------------------------------------------------

    /// Feed a segment belonging to this connection.
    pub fn handle_segment(&mut self, now: SimTime, seg: &TcpSegment) {
        self.handle_segments(now, std::slice::from_ref(seg));
    }

    /// Feed the segments that arrived together (one socket drain, or one
    /// simulator delivery): the only ingest path.
    ///
    /// Every segment is fed to its subflow socket and moves the data-level
    /// right edge. What follows — options, mapping translation, reorder,
    /// ack state — runs once per touched subflow at the end of the batch
    /// while the connection is established and confirmed, so N datagrams
    /// cost one stream drain instead of N; before that (handshake,
    /// confirmation, fallback) it runs after each segment, because those
    /// decisions depend on which segment came first.
    pub fn handle_segments(&mut self, now: SimTime, segs: &[TcpSegment]) {
        for seg in segs {
            let Some(idx) = self
                .subflows
                .iter()
                .position(|s| s.sock.tuple() == seg.tuple.reversed())
            else {
                continue;
            };
            self.subflows[idx].sock.handle_segment(now, seg);

            // §3.3.2: the receive window is interpreted relative to the
            // explicit DATA_ACK it travelled with; track the monotonic right
            // edge. Segments without a DATA_ACK (handshake, pre-confirmation)
            // anchor the window at the current cumulative DATA_ACK instead —
            // safe because `snd_una` is always at or behind the peer's real
            // ack point. (`snd_una` advances in `after_input`, so mid-batch
            // it may lag; `infer_full_dsn` only mis-anchors on a drift of
            // ≥ 2^31 bytes — impossible within one drain.)
            if self.state != ConnState::Fallback && seg.flags.ack {
                let dss_ack = seg.mptcp_options().find_map(|m| match m {
                    MptcpOption::Dss {
                        data_ack: Some(a), ..
                    } => Some(*a),
                    _ => None,
                });
                let base = match dss_ack {
                    Some(a) => Some(infer_full_dsn(self.snd_una, a)),
                    // Before confirmation the handshake segments carry no DSS
                    // yet their window must open the connection; afterwards a
                    // DSS-less segment is either fallen-back TCP (no data-level
                    // window) or a middlebox forgery (a pro-active acker's
                    // 1 MB-window ACKs must not inflate the data-level edge).
                    None if !self.confirmed => Some(self.snd_una),
                    None => None,
                };
                if let Some(base) = base {
                    let edge = base.wrapping_add(u64::from(seg.window));
                    if edge > self.snd_right_edge {
                        self.snd_right_edge = edge;
                    }
                }
            }

            if self.state == ConnState::Established && self.confirmed {
                if !self.touched.contains(&idx) {
                    self.touched.push(idx);
                }
                continue;
            }
            self.after_input(now, idx);

            // Handshake confirmation / fallback decision (§3.1): "If the
            // first non-SYN packet received by the server does not contain an
            // MPTCP option, the server must assume the path is not
            // MPTCP-capable" — applied symmetrically on both sides, but
            // hardened to a short streak so a single proxy-forged option-less
            // ACK cannot trigger a spurious fallback (a real option-stripping
            // path strips *every* segment).
            // The active opener cannot use this rule: a pro-active-acking
            // proxy forges option-less ACKs that always arrive *before* the
            // peer's genuine option-bearing segments. The client instead falls
            // back on timer evidence (see `on_data_rto`): data repeatedly
            // unacknowledged at the data level with no MPTCP option ever seen.
            if !seg.flags.syn && idx == 0 && !self.confirmed && !self.is_client {
                if seg.options.iter().any(|o| o.is_mptcp()) {
                    self.plain_rx_streak = 0;
                } else if matches!(
                    self.state,
                    ConnState::AwaitingConfirm | ConnState::Established
                ) && self.subflows[0].sock.is_established()
                {
                    self.plain_rx_streak += 1;
                    if self.plain_rx_streak >= 3 {
                        self.enter_fallback(FallbackCause::OptionStripped, now);
                    }
                }
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

    /// Client-side establishment of the first subflow.
    fn process_handshake(&mut self, now: SimTime, idx: usize) {
        if self.state != ConnState::Handshake {
            return;
        }
        let sf = &mut self.subflows[idx];
        if !sf.sock.is_established() {
            if sf.sock.is_error() {
                self.state = ConnState::Closed;
            }
            return;
        }
        if self.is_client {
            // Look for the server's MP_CAPABLE in the harvested options.
            let opts = sf.sock.take_rx_mptcp();
            let mut server_key = None;
            for o in &opts {
                if let MptcpOption::MpCapable {
                    sender_key,
                    checksum_required,
                    ..
                } = o
                {
                    server_key = Some((*sender_key, *checksum_required));
                }
            }
            match server_key {
                Some((key, ck)) => {
                    self.set_remote_key(key);
                    self.checksum_on = self.checksum_on || ck;
                    self.state = ConnState::AwaitingConfirm;
                    // Third ACK (and every segment until confirmed)
                    // carries MP_CAPABLE with both keys (§3.1).
                    let carry = vec![TcpOption::Mptcp(MptcpOption::MpCapable {
                        version: 0,
                        checksum_required: self.checksum_on,
                        sender_key: self.local.key,
                        receiver_key: Some(key),
                    })];
                    self.subflows[idx].sock.set_carry_options(carry);
                    self.subflows[idx].sock.request_ack();
                    self.events.push_back(ConnEvent::SubflowUp(idx));
                }
                None => {
                    // SYN/ACK without MP_CAPABLE: fall back (§3.1).
                    self.enter_fallback(FallbackCause::OptionStripped, now);
                }
            }
        } else {
            // Server: established; stay unconfirmed until the first
            // non-SYN segment proves the client received our key.
            self.state = ConnState::AwaitingConfirm;
            self.events.push_back(ConnEvent::SubflowUp(idx));
        }
    }

    /// Process harvested MPTCP options on an established connection.
    fn process_rx_options(&mut self, now: SimTime, idx: usize) {
        if matches!(self.state, ConnState::Handshake | ConnState::Closed) {
            return;
        }
        let opts = self.subflows[idx].sock.take_rx_mptcp();
        if self.state == ConnState::Fallback {
            return; // ignore MPTCP signalling once fallen back
        }
        for o in opts {
            match o {
                MptcpOption::MpCapable { sender_key, .. } => {
                    // Server learning the client still speaks MPTCP
                    // (third-ACK echo); key already known from the SYN.
                    if self.remote.is_none() {
                        self.set_remote_key(sender_key);
                    }
                    self.confirm_established(now);
                }
                MptcpOption::Dss {
                    data_ack,
                    mapping,
                    data_fin,
                } => {
                    self.confirm_established(now);
                    // The server only speaks DSS on a join subflow after
                    // validating the client's HMAC: stop carrying it.
                    if self.subflows[idx].join == JoinState::ClientEstablished {
                        self.subflows[idx].join = JoinState::Active;
                    }
                    if let Some(m) = mapping {
                        if data_fin {
                            self.rcv_fin_dsn = Some(m.dsn + u64::from(m.len));
                        }
                        if m.len > 0 {
                            self.subflows[idx].tracker.add(&m);
                        }
                    } else if data_fin {
                        // DATA_FIN without mapping: FIN at current edge.
                        self.rcv_fin_dsn.get_or_insert(self.rcv_nxt);
                    }
                    if let Some(a) = data_ack {
                        let full = infer_full_dsn(self.snd_una.max(1), a);
                        self.on_data_ack(now, full);
                    }
                }
                MptcpOption::AddAddr(a) => {
                    // Idempotency: ADD_ADDR is advertised repeatedly for
                    // reliability, so a repeat of a known (id, address)
                    // pair must not re-count, re-fire the event, or
                    // trigger a duplicate join. A different address under
                    // a known id replaces the mapping.
                    if self.peer_adverts.get(&a.addr_id) == Some(&(a.addr, a.port)) {
                        continue;
                    }
                    self.peer_adverts.insert(a.addr_id, (a.addr, a.port));
                    self.telemetry.note(
                        now.0,
                        EventKind::AddAddr {
                            addr: a.addr,
                            id: u32::from(a.addr_id),
                            sent: 0,
                        },
                    );
                    let actions = self.pm.on_event(
                        now,
                        PmEvent::AddrAdvertised {
                            addr_id: a.addr_id,
                            addr: a.addr,
                            port: a.port,
                        },
                    );
                    self.events.push_back(ConnEvent::PeerAddr(a));
                    self.pm_apply(now, actions);
                }
                MptcpOption::RemoveAddr { addr_ids } => {
                    for id in addr_ids {
                        // Reject withdrawals of ids we never learned —
                        // a stray or forged REMOVE_ADDR must not touch
                        // subflow state.
                        let advertised = self.peer_adverts.remove(&id);
                        let known = advertised.is_some()
                            || self.subflows.iter().any(|s| !s.dead && s.addr_id == id);
                        if !known {
                            let kind = EventKind::RemoveAddrUnknown { id: u32::from(id) };
                            self.telemetry.note(now.0, kind);
                            continue;
                        }
                        self.telemetry.note(
                            now.0,
                            EventKind::RemoveAddr {
                                id: u32::from(id),
                                sent: 0,
                            },
                        );
                        // Affected subflows: those the peer opened under
                        // this id, plus any we opened toward the
                        // withdrawn address.
                        let gone = advertised.map(|(addr, _)| addr);
                        let affected: Vec<usize> = self
                            .subflows
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| {
                                !s.dead
                                    && (s.addr_id == id || Some(s.sock.tuple().dst.addr) == gone)
                            })
                            .map(|(i, _)| i)
                            .collect();
                        let actions = self.pm.on_event(
                            now,
                            PmEvent::AddrWithdrawn {
                                addr_id: id,
                                affected,
                            },
                        );
                        self.pm_apply(now, actions);
                    }
                }
                MptcpOption::MpJoinSynAck { mac, nonce, .. } => {
                    self.handle_join_synack(now, idx, mac, nonce);
                }
                MptcpOption::MpJoinAck { mac } => {
                    self.handle_join_ack(now, idx, mac);
                }
                MptcpOption::MpJoinSyn { .. } => {
                    // Handled at accept_join; a duplicate SYN's option.
                }
                MptcpOption::MpFail { .. } => {
                    if self.alive_subflows() <= 1 {
                        self.enter_fallback(FallbackCause::MpFail, now);
                    }
                }
                MptcpOption::FastClose { .. } => {
                    self.abort_with(AbortReason::PeerFastClose, now);
                }
                MptcpOption::MpPrio { backup, .. } => {
                    self.subflows[idx].backup = backup;
                }
            }
        }
    }

    fn handle_join_synack(&mut self, now: SimTime, idx: usize, mac: u64, nonce_remote: u32) {
        let sf = &mut self.subflows[idx];
        if sf.join != JoinState::ClientSyn {
            return;
        }
        let Some(rk) = self.remote else { return };
        let expect = crypto::join_synack_mac(rk.key, self.local.key, sf.nonce_local, nonce_remote);
        if mac != expect {
            sf.sock.abort();
            sf.dead = true;
            self.reject_join(now, rk.token);
            self.note_subflow_reset(now, idx);
            return;
        }
        let sf = &mut self.subflows[idx];
        sf.nonce_remote = nonce_remote;
        sf.join = JoinState::ClientEstablished;
        // Third ACK carries our full HMAC until the server confirms (by
        // sending any DSS on this subflow).
        let ack_mac = crypto::join_ack_mac(self.local.key, rk.key, sf.nonce_local, nonce_remote);
        sf.sock
            .set_carry_options(vec![TcpOption::Mptcp(MptcpOption::MpJoinAck {
                mac: ack_mac,
            })]);
        sf.sock.request_ack();
        self.events.push_back(ConnEvent::SubflowUp(idx));
        self.seed_new_subflow();
    }

    /// Under the redundant scheduler a subflow that joins mid-stream owes
    /// copies of everything still outstanding: chunks pushed while it was
    /// handshaking were duplicated only across the pre-existing paths.
    /// Queue them for reinjection — the scheduler places each copy away
    /// from the path already carrying it, so the newcomer catches up and
    /// the every-chunk-on-every-path invariant holds from its first RTT.
    fn seed_new_subflow(&mut self) {
        if self.cfg.scheduler != crate::sched::SchedulerKind::Redundant {
            return;
        }
        for &dsn in self.sent.keys() {
            if !self.reinject.contains(&dsn) {
                self.reinject.push_back(dsn);
            }
        }
    }

    fn handle_join_ack(&mut self, now: SimTime, idx: usize, mac: [u8; 20]) {
        let sf = &mut self.subflows[idx];
        if sf.join != JoinState::ServerWait {
            return;
        }
        let Some(rk) = self.remote else { return };
        let expect = crypto::join_ack_mac(rk.key, self.local.key, sf.nonce_remote, sf.nonce_local);
        if mac != expect {
            sf.sock.abort();
            sf.dead = true;
            self.reject_join(now, self.local.token);
            self.note_subflow_reset(now, idx);
            return;
        }
        let sf = &mut self.subflows[idx];
        sf.join = JoinState::Active;
        self.events.push_back(ConnEvent::SubflowUp(idx));
        self.seed_new_subflow();
    }

    fn note_subflow_reset(&mut self, now: SimTime, idx: usize) {
        self.telemetry.note(
            now.0,
            EventKind::SubflowReset {
                subflow: idx as u32,
            },
        );
    }

    // ------------------------------------------------------------------
    // Path-manager integration: the PM decides, the connection executes.
    // ------------------------------------------------------------------

    /// The path manager's live state (admin plane, tests).
    pub fn path_manager(&self) -> &PathManager {
        &self.pm
    }

    /// MPTCP confirmed on this connection; on the first confirmation the
    /// path manager learns the primary endpoints and starts advertising
    /// and pairing.
    fn confirm_established(&mut self, now: SimTime) {
        self.confirmed = true;
        if self.state == ConnState::AwaitingConfirm {
            self.state = ConnState::Established;
            let t = self.subflows[0].sock.tuple();
            let actions = self.pm.on_event(
                now,
                PmEvent::Established {
                    local: t.src,
                    remote: t.dst,
                },
            );
            self.pm_apply(now, actions);
        }
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
                    self.telemetry.note(
                        now.0,
                        EventKind::PmOpenSubflow {
                            local: local.addr,
                            remote: remote.addr,
                            backup: u32::from(backup),
                        },
                    );
                    if self.open_subflow_with(local, remote, backup, now).is_ok() {
                        self.telemetry.count(CounterId::PmSubflowsOpened);
                    }
                }
                PmAction::Advertise { addr, port } => {
                    self.pm_send_advert(now, addr, port);
                }
                PmAction::CloseSubflow { subflow } => {
                    self.close_subflow(now, subflow);
                }
                PmAction::PromoteBackup { subflow } => {
                    self.promote_backup(now, subflow);
                }
            }
        }
    }

    /// Send (or retransmit) an ADD_ADDR for `addr` with a stable addr_id.
    fn pm_send_advert(&mut self, now: SimTime, addr: u32, port: Option<u16>) {
        let (addr_id, retx) = match self.advertised_local.get(&addr) {
            Some(&id) => (id, true),
            None => {
                let id = self.next_addr_id;
                self.next_addr_id += 1;
                self.advertised_local.insert(addr, id);
                (id, false)
            }
        };
        let opt = TcpOption::Mptcp(MptcpOption::AddAddr(AdvertisedAddr {
            addr_id,
            addr,
            port,
        }));
        if let Some(sf) = self.subflows.iter_mut().find(|s| s.usable()) {
            sf.sock.queue_oneshot_options(vec![opt]);
            if retx {
                self.telemetry.count(CounterId::AddAddrRetransmits);
            } else {
                self.telemetry.count(CounterId::AddAddrsSent);
            }
            self.telemetry.note(
                now.0,
                EventKind::PmAdvertise {
                    addr,
                    id: u32::from(addr_id),
                },
            );
        }
    }

    /// Tear down one subflow on PM orders (address withdrawn under it),
    /// re-injecting its retained chunks; aborts the connection if it was
    /// the last one standing.
    fn close_subflow(&mut self, now: SimTime, idx: usize) {
        if idx >= self.subflows.len() || self.subflows[idx].dead {
            return;
        }
        self.subflows[idx].sock.abort();
        self.subflows[idx].dead = true;
        self.events.push_back(ConnEvent::SubflowDown(idx));
        self.reinject_chunks_of_dead(now);
        if self.alive_subflows() == 0 {
            self.abort_with(AbortReason::LastSubflowRemoved, now);
        }
    }

    /// Clear a subflow's backup priority and tell the peer via MP_PRIO —
    /// the handover moment: the pre-opened backup becomes the workhorse.
    fn promote_backup(&mut self, now: SimTime, idx: usize) {
        if idx >= self.subflows.len() || self.subflows[idx].dead || !self.subflows[idx].backup {
            return;
        }
        self.subflows[idx].backup = false;
        let addr_id = self.subflows[idx].addr_id;
        self.subflows[idx]
            .sock
            .queue_oneshot_options(vec![TcpOption::Mptcp(MptcpOption::MpPrio {
                backup: false,
                addr_id: Some(addr_id),
            })]);
        self.telemetry.note(
            now.0,
            EventKind::PmBackupPromoted {
                subflow: idx as u32,
            },
        );
    }

    /// Live backup-priority subflows outside `except`, in index order
    /// (the PM's promotion candidates).
    fn backup_candidates(&self, except: &[usize]) -> Vec<usize> {
        self.subflows
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                !except.contains(i) && s.usable() && s.backup && s.path_state != PathState::Failed
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// A local address went away (interface down, §3.4 mobility): tell
    /// the peer via REMOVE_ADDR on a surviving subflow, tear down the
    /// subflows riding it, and let the path manager migrate (promote a
    /// pre-opened backup).
    pub fn local_addr_down(&mut self, addr: u32, now: SimTime) {
        if matches!(self.state, ConnState::Closed) {
            return;
        }
        let affected: Vec<usize> = self
            .subflows
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.dead && s.sock.tuple().src.addr == addr)
            .map(|(i, _)| i)
            .collect();
        if self.state != ConnState::Fallback && !affected.is_empty() {
            let mut ids: Vec<u8> = affected.iter().map(|&i| self.subflows[i].addr_id).collect();
            ids.sort_unstable();
            ids.dedup();
            let carrier = self
                .subflows
                .iter()
                .position(|s| s.usable() && s.sock.tuple().src.addr != addr);
            if let Some(c) = carrier {
                self.subflows[c]
                    .sock
                    .queue_oneshot_options(vec![TcpOption::Mptcp(MptcpOption::RemoveAddr {
                        addr_ids: ids.clone(),
                    })]);
                for id in ids {
                    self.telemetry.note(
                        now.0,
                        EventKind::RemoveAddr {
                            id: u32::from(id),
                            sent: 1,
                        },
                    );
                }
            }
        }
        let backups = if affected.is_empty() {
            Vec::new()
        } else {
            self.backup_candidates(&affected)
        };
        let actions = self.pm.on_event(
            now,
            PmEvent::LocalAddrDown {
                addr,
                affected,
                backups,
            },
        );
        self.pm_apply(now, actions);
    }

    /// A local address came (back) up: the path manager re-advertises it
    /// if it is a signal endpoint.
    pub fn local_addr_up(&mut self, addr: u32, now: SimTime) {
        if matches!(self.state, ConnState::Closed | ConnState::Fallback) {
            return;
        }
        let actions = self.pm.on_event(now, PmEvent::LocalAddrUp { addr });
        self.pm_apply(now, actions);
    }

    fn on_data_ack(&mut self, _now: SimTime, ack: u64) {
        if ack <= self.snd_una {
            return;
        }
        let ack = ack.min(self.snd_nxt);
        // Free retained chunks (§3.3.5). A chunk straddling the ack keeps
        // its unacknowledged tail — a mid-chunk DATA_ACK (content-length-
        // changing middleboxes cause these) must not discard bytes the
        // receiver never got.
        let keys: Vec<u64> = self.sent.range(..ack).map(|(&k, _)| k).collect();
        for k in keys {
            if let Some(c) = self.sent.remove(&k) {
                self.sent_bytes -= c.data.len();
                let end = k + c.data.len() as u64;
                if end > ack {
                    let cut = (ack - k) as usize;
                    let tail = c.data.slice(cut..);
                    self.sent_bytes += tail.len();
                    self.sent.insert(
                        ack,
                        SentChunk {
                            data: tail,
                            subflow: c.subflow,
                        },
                    );
                }
            }
        }
        self.snd_una = ack;
        self.data_rto_backoff = 1;
        self.data_rto_deadline = None; // re-armed on next poll if needed
        self.reinject.retain(|&d| d >= ack);
    }

    /// Pull in-order subflow bytes, translate through mappings, and place
    /// them in the connection-level receive path.
    ///
    /// Consecutive mapped pieces are accumulated into `mapped_run` and
    /// delivered together: a drain of N datagrams then costs one reorder
    /// walk (via [`OooQueue::insert_batch`]) instead of N.
    fn drain_subflow_stream(&mut self, now: SimTime, idx: usize) {
        loop {
            let piece = self.subflows[idx].sock.read_stream(64 * 1024);
            let Some((off0, bytes)) = piece else { break };
            if self.state == ConnState::Fallback {
                self.flush_mapped_run(now, idx);
                self.deliver_raw(bytes);
                continue;
            }
            let consumed = self.subflows[idx].tracker.consume(off0, bytes);
            for c in consumed {
                match c {
                    Consumed::Mapped { dsn, data } => self.mapped_run.push((dsn, data)),
                    Consumed::ChecksumFail { dsn, data } => {
                        self.flush_mapped_run(now, idx);
                        self.on_checksum_fail(now, idx, dsn, data);
                    }
                    Consumed::Unmapped { data } => {
                        self.flush_mapped_run(now, idx);
                        self.on_unmapped(now, idx, data);
                    }
                }
            }
        }
        self.flush_mapped_run(now, idx);
        self.check_data_fin();
    }

    /// Deliver the accumulated mapped run, whatever its length: duplicates
    /// are trimmed against `rcv_nxt`, in-order pieces are delivered and
    /// pull what they unblock out of the reorder queue, and out-of-order
    /// pieces are staged in `ooo_pending` and inserted in one
    /// [`OooQueue::insert_batch`] walk. The staged batch is flushed before
    /// any in-order piece drains the queue, so `rcv_nxt`, `app_rx` and
    /// duplicate accounting evolve piece by piece.
    fn flush_mapped_run(&mut self, now: SimTime, idx: usize) {
        if self.mapped_run.is_empty() {
            return;
        }
        let mut run = std::mem::take(&mut self.mapped_run);
        for (dsn, data) in run.drain(..) {
            let end = dsn + data.len() as u64;
            if end <= self.rcv_nxt {
                self.telemetry
                    .count_n(CounterId::DupDataBytes, data.len() as u64);
                continue;
            }
            let (dsn, data) = if dsn < self.rcv_nxt {
                let cut = (self.rcv_nxt - dsn) as usize;
                self.telemetry.count_n(CounterId::DupDataBytes, cut as u64);
                (self.rcv_nxt, data.slice(cut..))
            } else {
                (dsn, data)
            };
            if dsn > self.rcv_nxt {
                self.ooo_pending.push((dsn, data, idx));
                continue;
            }
            // In-order: anything staged so far must land in the queue
            // first so the pop_ready drain below can see it.
            self.flush_ooo_pending(now);
            self.rcv_nxt = dsn + data.len() as u64;
            self.deliver_raw(data);
            let mut popped = false;
            while let Some((d, b)) = self.ooo.pop_ready(self.rcv_nxt) {
                debug_assert_eq!(d, self.rcv_nxt);
                self.rcv_nxt = d + b.len() as u64;
                self.deliver_raw(b);
                popped = true;
            }
            if popped {
                self.telemetry
                    .gauge_set(GaugeId::OfoQueueSegs, self.ooo.len() as u64);
                self.telemetry
                    .gauge_set(GaugeId::OfoQueueBytes, self.ooo.buffered_bytes() as u64);
            }
        }
        self.flush_ooo_pending(now);
        self.mapped_run = run; // keep the capacity for the next drain
    }

    /// One queue walk for the staged out-of-order pieces, then the
    /// high-water event and gauge updates against the post-insert queue
    /// state.
    fn flush_ooo_pending(&mut self, now: SimTime) {
        if self.ooo_pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.ooo_pending);
        self.ooo.insert_batch(&mut pending);
        self.ooo_pending = pending; // drained; keep the capacity
        let segs = self.ooo.len() as u64;
        let bytes = self.ooo.buffered_bytes() as u64;
        if segs > self.telemetry.gauge(GaugeId::OfoQueueSegs).max {
            self.telemetry
                .note(now.0, EventKind::ReorderHighWater { segs, bytes });
        }
        self.telemetry.gauge_set(GaugeId::OfoQueueSegs, segs);
        self.telemetry.gauge_set(GaugeId::OfoQueueBytes, bytes);
    }

    fn deliver_raw(&mut self, data: Bytes) {
        self.app_rx_bytes += data.len();
        self.app_rx.push_back(data);
    }

    fn check_data_fin(&mut self) {
        if !self.rcv_eof && self.rcv_fin_dsn == Some(self.rcv_nxt) {
            self.rcv_eof = true;
            self.rcv_nxt += 1; // the DATA_FIN occupies one sequence number
        }
    }

    fn on_checksum_fail(&mut self, now: SimTime, idx: usize, dsn: u64, data: Bytes) {
        self.telemetry.note(
            now.0,
            EventKind::ChecksumFail {
                subflow: idx as u32,
                dsn,
            },
        );
        if self.alive_subflows() > 1 {
            // §3.3.6: terminate the offending subflow; the transfer
            // continues on the others after re-injection.
            self.subflows[idx]
                .sock
                .queue_oneshot_options(vec![TcpOption::Mptcp(MptcpOption::MpFail {
                    dsn: self.rcv_nxt,
                })]);
            self.subflows[idx].sock.abort();
            self.subflows[idx].dead = true;
            self.note_subflow_reset(now, idx);
            self.events.push_back(ConnEvent::SubflowDown(idx));
            self.reinject_chunks_of_dead(now);
        } else {
            // Only subflow: fall back to regular TCP, letting the
            // middlebox rewrite as it wishes; the modified bytes continue
            // the stream.
            self.enter_fallback(FallbackCause::ChecksumFail, now);
            self.deliver_raw(data);
        }
    }

    fn on_unmapped(&mut self, now: SimTime, idx: usize, data: Bytes) {
        if self.state == ConnState::Fallback {
            self.deliver_raw(data);
            return;
        }
        if self.alive_subflows() == 1 && self.subflows[idx].tracker.mappings_received == 0 {
            // Mid-stream option stripping on the only subflow: infinite
            // mapping / fallback (§3.3.6, §4.1).
            self.enter_fallback(FallbackCause::OptionStripped, now);
            self.deliver_raw(data);
        }
        // Otherwise: drop; the subflow has acked these bytes but they are
        // not DATA_ACKed, so the sender re-injects them (§3.3.5).
    }

    fn enter_fallback(&mut self, cause: FallbackCause, now: SimTime) {
        if self.state == ConnState::Fallback {
            return;
        }
        self.state = ConnState::Fallback;
        self.telemetry.note(now.0, EventKind::Fallback { cause });
        self.events.push_back(ConnEvent::FellBack);
        // Stop MPTCP signalling; plain TCP from here. The failure detector
        // stops with it — clear its timers so they cannot pin `poll_at`.
        for sf in &mut self.subflows {
            sf.sock.set_carry_options(Vec::new());
            sf.sock.set_window_override(None);
            sf.path_state = PathState::Active;
            sf.probe_at = None;
            sf.progress_at = None;
        }
        self.all_failed_since = None;
        // Data already handed to subflow 0 is delivered by subflow
        // reliability; connection-level retransmission state is void.
        self.sent.clear();
        self.sent_bytes = 0;
        self.reinject.clear();
        self.data_rto_deadline = None;
        // Unsent pending data continues as plain writes.
        let pending: Vec<Bytes> = self.pending.drain(..).collect();
        self.pending_bytes = 0;
        for p in pending {
            self.subflows[0].sock.send_chunk(p, Vec::new());
        }
        if self.data_fin_queued {
            self.subflows[0].sock.close();
        }
    }

    fn alive_subflows(&self) -> usize {
        self.subflows.iter().filter(|s| !s.dead).count()
    }

    fn reap_dead(&mut self, now: SimTime) {
        let mut any_died = false;
        for i in 0..self.subflows.len() {
            if !self.subflows[i].dead && self.subflows[i].sock.is_error() {
                self.subflows[i].dead = true;
                any_died = true;
                self.events.push_back(ConnEvent::SubflowDown(i));
            }
        }
        if any_died {
            self.reinject_chunks_of_dead(now);
            if self.alive_subflows() == 0 {
                self.state = ConnState::Closed;
            }
        }
    }

    /// Queue chunks that were riding dead subflows for re-injection on
    /// live ones — the robustness goal: "if a subflow fails, the
    /// connection must continue as long as another subflow has
    /// connectivity".
    fn reinject_chunks_of_dead(&mut self, _now: SimTime) {
        if self.state == ConnState::Fallback {
            return;
        }
        let dead: Vec<usize> = self
            .subflows
            .iter()
            .enumerate()
            .filter(|(_, s)| s.dead)
            .map(|(i, _)| i)
            .collect();
        for (&dsn, chunk) in &self.sent {
            if dead.contains(&chunk.subflow) && !self.reinject.contains(&dsn) {
                self.reinject.push_back(dsn);
            }
        }
        let mut q: Vec<u64> = self.reinject.drain(..).collect();
        q.sort_unstable();
        q.dedup();
        self.reinject = q.into();
        self.stats.reinjections += self.reinject.len() as u64;
    }

    // ------------------------------------------------------------------
    // Path-failure detection and break-before-make recovery.
    // ------------------------------------------------------------------

    /// Queue every retained chunk riding subflow `idx` for re-injection on
    /// other subflows (break-before-make: the data moves *before* the
    /// subflow is torn down, so a blackout costs one detection delay, not
    /// a full TCP death). Returns how many chunks were newly queued.
    fn reinject_chunks_of(&mut self, idx: usize) -> u64 {
        let mut added = 0u64;
        for (&dsn, c) in &self.sent {
            if c.subflow == idx && !self.reinject.contains(&dsn) {
                self.reinject.push_back(dsn);
                added += 1;
            }
        }
        let mut q: Vec<u64> = self.reinject.drain(..).collect();
        q.sort_unstable();
        q.dedup();
        self.reinject = q.into();
        self.stats.reinjections += added;
        added
    }

    /// The failure detector: runs from `tick` on every live connection.
    ///
    /// Two signals demote a path — the subflow socket's consecutive-RTO
    /// count, and a no-DATA_ACK-progress timer (subflow-level bytes_acked
    /// frozen with data outstanding; catches paths whose ACKs a middlebox
    /// forges). `Active -> Suspect` at `suspect_after_rtos`,
    /// `Suspect -> Failed` at `fail_after_rtos` (or a doubly-expired
    /// progress timer), recovery back to `Active` the moment the socket
    /// sees a fresh ACK. Demoted paths are probed on a backoff schedule;
    /// when every live path is Failed past `abort_deadline`, the
    /// connection aborts with a typed reason instead of hanging.
    fn detect_path_failures(&mut self, now: SimTime) {
        let fd = self.cfg.failure;
        for i in 0..self.subflows.len() {
            let (rtos, stalled_for) = {
                let sf = &mut self.subflows[i];
                if sf.dead || !sf.sock.is_established() {
                    sf.probe_at = None;
                    continue;
                }
                // Progress bookkeeping: an advancing subflow ack counter
                // (or an empty pipe) is proof of life.
                let acked = sf.sock.stats.bytes_acked;
                let in_flight = sf.sock.bytes_in_flight() > 0;
                if !in_flight {
                    sf.progress_bytes = acked;
                    sf.progress_at = None;
                } else if acked != sf.progress_bytes || sf.progress_at.is_none() {
                    sf.progress_bytes = acked;
                    sf.progress_at = Some(now);
                }
                let stalled_for = sf.progress_at.map_or(Duration::ZERO, |t| now.since(t));
                (sf.sock.consecutive_rtos(), stalled_for)
            };
            let stalled = stalled_for >= fd.progress_timeout;
            let hard_stalled = stalled_for >= fd.progress_timeout * 2;
            let healthy = rtos == 0 && !stalled;
            match self.subflows[i].path_state {
                PathState::Active => {
                    if rtos >= fd.fail_after_rtos || hard_stalled {
                        self.fail_path(now, i);
                    } else if rtos >= fd.suspect_after_rtos || stalled {
                        self.suspect_path(now, i, rtos);
                    }
                }
                PathState::Suspect => {
                    if healthy {
                        self.recover_path(now, i);
                    } else if rtos >= fd.fail_after_rtos || hard_stalled {
                        self.fail_path(now, i);
                    }
                }
                PathState::Failed => {
                    if healthy {
                        self.recover_path(now, i);
                    }
                }
            }
            // Re-probe demoted paths: force a retransmit / bare ACK so a
            // healed path has traffic to answer, with exponential backoff
            // while it stays silent.
            let sf = &mut self.subflows[i];
            if sf.path_state != PathState::Active {
                if let Some(at) = sf.probe_at {
                    if at <= now {
                        sf.sock.probe_path(now);
                        sf.probes_unanswered += 1;
                        let backoff = 1u32 << sf.probes_unanswered.min(3);
                        sf.probe_at = Some(now + fd.probe_interval * backoff);
                    }
                }
            }
        }

        // All-paths-failed accounting: the abort deadline runs while every
        // live, established subflow sits in Failed.
        let mut any_live = false;
        let mut all_failed = true;
        for sf in &self.subflows {
            if sf.dead || !sf.sock.is_established() {
                continue;
            }
            any_live = true;
            if sf.path_state != PathState::Failed {
                all_failed = false;
            }
        }
        if any_live && all_failed {
            let since = *self.all_failed_since.get_or_insert(now);
            if now.since(since) >= fd.abort_deadline {
                self.abort_with(AbortReason::AllPathsFailed, now);
            }
        } else {
            self.all_failed_since = None;
        }
    }

    fn suspect_path(&mut self, now: SimTime, idx: usize, rtos: u32) {
        let sf = &mut self.subflows[idx];
        sf.path_state = PathState::Suspect;
        sf.probes_unanswered = 0;
        sf.probe_at = Some(now + self.cfg.failure.probe_interval);
        self.telemetry.note(
            now.0,
            EventKind::PathSuspect {
                subflow: idx as u32,
                rtos,
            },
        );
    }

    fn fail_path(&mut self, now: SimTime, idx: usize) {
        let reinjected = self.reinject_chunks_of(idx);
        let sf = &mut self.subflows[idx];
        sf.path_state = PathState::Failed;
        if sf.probe_at.is_none() {
            sf.probes_unanswered = 0;
            sf.probe_at = Some(now + self.cfg.failure.probe_interval);
        }
        self.telemetry.note(
            now.0,
            EventKind::PathFailed {
                subflow: idx as u32,
                reinjected,
            },
        );
        // Failure feeds the path manager: it may promote a pre-opened
        // backup so the scheduler's first tier is never empty.
        let backups = self.backup_candidates(&[idx]);
        let actions = self.pm.on_event(
            now,
            PmEvent::SubflowFailed {
                subflow: idx,
                backups,
            },
        );
        self.pm_apply(now, actions);
    }

    fn recover_path(&mut self, now: SimTime, idx: usize) {
        let sf = &mut self.subflows[idx];
        sf.path_state = PathState::Active;
        sf.probe_at = None;
        sf.probes_unanswered = 0;
        self.telemetry.note(
            now.0,
            EventKind::PathRecovered {
                subflow: idx as u32,
            },
        );
        let actions = self
            .pm
            .on_event(now, PmEvent::SubflowRecovered { subflow: idx });
        self.pm_apply(now, actions);
    }

    // ------------------------------------------------------------------
    // Output path.
    // ------------------------------------------------------------------

    /// Emit at most one segment; call until `None`.
    ///
    /// Each call ticks the connection at `now` first, which is where
    /// timers fire. Ticks are idempotent at a fixed `now`: a timer that
    /// fires re-arms strictly after `now`, so draining `poll` in a loop
    /// never double-fires anything. See [`MptcpConnection::poll_at`] for
    /// the full contract an event loop may rely on.
    pub fn poll(&mut self, now: SimTime) -> Option<TcpSegment> {
        self.tick(now);
        let n = self.subflows.len();
        for k in 0..n {
            let i = (self.poll_cursor + k) % n;
            // Dead subflows are still polled: an aborted socket must get
            // to emit its RST so the peer tears down and re-injects.
            if let Some(seg) = self.subflows[i].sock.poll(now) {
                self.poll_cursor = i;
                return Some(seg);
            }
        }
        None
    }

    /// Earliest deadline across subflows, the data-level timer, and the
    /// failure detector (probes, progress timers, the all-paths abort
    /// deadline — the guarantees of "abort, never hang" depend on these
    /// being visible here).
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
    pub fn poll_at(&self, now: SimTime) -> Option<SimTime> {
        fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            }
        }
        let mut t = self.data_rto_deadline;
        if let Some(since) = self.all_failed_since {
            t = earliest(t, Some(since + self.cfg.failure.abort_deadline));
        }
        // ADD_ADDR retransmits are serviced by `tick` only while MPTCP is
        // operational; don't let a stale deadline pin the loop otherwise.
        if matches!(
            self.state,
            ConnState::Established | ConnState::AwaitingConfirm
        ) {
            t = earliest(t, self.pm.poll_at());
        }
        for sf in &self.subflows {
            if sf.dead {
                continue;
            }
            t = earliest(t, sf.sock.poll_at(now));
            t = earliest(t, sf.probe_at);
            if let Some(p) = sf.progress_at {
                // Only the two pending detector transitions (demote at one
                // timeout, hard-fail at two) warrant a wakeup; a deadline
                // already behind `now` fired on a previous tick and must
                // not pin the event loop to the past.
                let demote = p + self.cfg.failure.progress_timeout;
                let hard_fail = p + self.cfg.failure.progress_timeout * 2;
                let next = [demote, hard_fail].into_iter().find(|&d| d > now);
                t = earliest(t, next);
            }
        }
        t
    }

    /// Periodic work: timers, scheduling, window/ack refresh.
    fn tick(&mut self, now: SimTime) {
        if matches!(self.state, ConnState::Closed) {
            return;
        }
        self.reap_dead(now);
        // Interval-driven trace sampling (congestion events add their own
        // samples; this keeps the timeline dense even on quiet paths).
        if self.telemetry.sample_due(now.0) {
            self.trace_conn_sample(now);
            for sf in &mut self.subflows {
                if !sf.dead {
                    sf.sock.trace_sample(now);
                }
            }
        }
        if self.state == ConnState::Fallback {
            return;
        }

        // Data-level retransmission timer (§3.3.5: "If a DATA ACK does
        // not arrive, a timer fires and the sender retransmits that
        // data").
        if let Some(t) = self.data_rto_deadline {
            if t <= now {
                self.on_data_rto(now);
                if self.state == ConnState::Fallback {
                    // The timeout itself triggered fallback; the data-level
                    // machinery (including this timer) is now void.
                    return;
                }
            }
        }

        if self.state == ConnState::Established || self.state == ConnState::AwaitingConfirm {
            self.detect_path_failures(now);
            if self.state == ConnState::Closed {
                return; // abort deadline expired with every path Failed
            }
            // Service the path manager's ADD_ADDR retransmit schedule.
            let pm_actions = self.pm.tick(now);
            self.pm_apply(now, pm_actions);
            self.refresh_coupling();
            self.push_data(now);
            self.maybe_send_data_fin(now);
        }

        self.update_ack_state(now);

        // Arm/disarm the data-level timer.
        if self.snd_una < self.snd_nxt && self.data_rto_deadline.is_none() {
            self.data_rto_deadline = Some(now + self.data_rto_interval());
        } else if self.snd_una >= self.snd_nxt {
            self.data_rto_deadline = None;
        }
    }

    fn data_rto_interval(&self) -> Duration {
        // Anchor on the healthiest subflow: a path stuck in exponential
        // RTO backoff must not delay data-level recovery onto live paths.
        let min_rto = self
            .subflows
            .iter()
            .filter(|s| s.usable())
            .map(|s| s.sock.rto())
            .min()
            .unwrap_or(Duration::from_secs(1));
        (min_rto * 2) * self.data_rto_backoff
    }

    fn on_data_rto(&mut self, now: SimTime) {
        self.telemetry
            .note(now.0, EventKind::DataRto { dsn: self.snd_una });
        self.telemetry.note(
            now.0,
            EventKind::DataAckStall {
                dsn: self.snd_una,
                stalled_ns: self.data_rto_interval().as_nanos() as u64,
            },
        );
        self.trace_conn_sample(now);
        // Client-side fallback detection (§3.3.6): our DSS options are
        // being stripped somewhere — subflow delivery succeeds but nothing
        // is ever DATA_ACKed and no MPTCP option has arrived since the
        // handshake. Continue as plain TCP on the lone subflow.
        // Deciding on the first timer expiry also prevents re-injecting
        // onto the lone subflow, which would duplicate bytes in the raw
        // stream a fallen-back peer is reading.
        if self.is_client && !self.confirmed && self.alive_subflows() == 1 {
            self.enter_fallback(FallbackCause::DataRtoUnconfirmed, now);
            return;
        }
        self.data_rto_backoff = (self.data_rto_backoff * 2).min(64);
        self.data_rto_deadline = Some(now + self.data_rto_interval());
        // Re-inject the chunk holding up the data-level window, plus every
        // retained chunk whose subflow believes it was delivered (nothing
        // left in flight there). Those bytes were acknowledged at the
        // subflow level but never DATA_ACKed — the signature of a
        // pro-active-ACKing proxy whose segments then died downstream, or
        // of a coalescer that ate the mapping (§3.3.5). One-at-a-time
        // recovery would crawl under the exponential timer backoff.
        let mut added = 0;
        for (&dsn, c) in &self.sent {
            if added >= 128 {
                break;
            }
            let sf_idle = self.subflows[c.subflow].dead
                || self.subflows[c.subflow].sock.bytes_in_flight() == 0;
            if (dsn == self.snd_una || sf_idle) && !self.reinject.contains(&dsn) {
                self.reinject.push_back(dsn);
                self.stats.reinjections += 1;
                added += 1;
            }
        }
        // Retransmit a lost DATA_FIN signal.
        if let Some(f) = self.data_fin_dsn {
            if self.snd_una >= f {
                self.send_data_fin_signal();
            }
        }
    }

    /// Recompute cross-subflow coupling and push per-flow signals down.
    ///
    /// The connection owns the [`CoupledState`]; subflow controllers only
    /// ever see their own [`mptcp_tcpstack::CoupledSignal`].
    fn refresh_coupling(&mut self) {
        if !self.coupled.is_coupled() {
            return;
        }
        // Only subflows with an RTT sample shape the computation (matching
        // the original LIA alpha computation).
        let members: Vec<usize> = (0..self.subflows.len())
            .filter(|&i| self.subflows[i].usable() && self.subflows[i].sock.srtt().is_some())
            .collect();
        if members.is_empty() {
            return;
        }
        let flows: Vec<FlowView> = members
            .iter()
            .map(|&i| FlowView {
                cwnd: self.subflows[i].sock.cwnd(),
                srtt: self.subflows[i].sock.srtt().expect("filtered above"),
            })
            .collect();
        let signals = self.coupled.recompute(&flows).to_vec();
        for (&i, &sig) in members.iter().zip(&signals) {
            self.subflows[i].sock.cc_mut().set_coupled(sig);
        }
        // Usable subflows still waiting for a first RTT sample see the
        // aggregate (alpha/total) view too, as the inlined computation
        // did — with a neutral per-path term for per-path algorithms.
        let shared = mptcp_tcpstack::CoupledSignal {
            alpha: if self.coupled.algo() == mptcp_tcpstack::CcAlgorithm::Olia {
                0.0
            } else {
                signals[0].alpha
            },
            ..signals[0]
        };
        for i in 0..self.subflows.len() {
            if self.subflows[i].usable() && !members.contains(&i) {
                self.subflows[i].sock.cc_mut().set_coupled(shared);
            }
        }
    }

    /// Chunk placement. The connection builds the eligibility-tiered
    /// path snapshot (Active -> backup -> Suspect, never Failed), asks
    /// the configured [`Scheduler`] where each chunk goes, and keeps the
    /// reinjection queue, M1/M2 mechanisms, chunk cutting and stall/pick
    /// telemetry here — so every scheduler policy inherits them.
    fn push_data(&mut self, now: SimTime) {
        loop {
            // The failure detector's verdict gates eligibility: Active
            // paths first, backups next, Suspect paths only when nothing
            // else is left, Failed paths never (their in-flight chunks
            // were already reinjected).
            let eligible = |sf: &Subflow, state: PathState, backup_ok: bool| {
                sf.usable() && sf.path_state == state && (backup_ok || !sf.backup)
            };
            let mut tier: Vec<usize> = (0..self.subflows.len())
                .filter(|&i| eligible(&self.subflows[i], PathState::Active, false))
                .collect();
            if tier.is_empty() {
                // Backup subflows only as a last resort.
                tier = (0..self.subflows.len())
                    .filter(|&i| eligible(&self.subflows[i], PathState::Active, true))
                    .collect();
            }
            if tier.is_empty() {
                tier = (0..self.subflows.len())
                    .filter(|&i| eligible(&self.subflows[i], PathState::Suspect, true))
                    .collect();
            }

            // Re-injections are next in line (fixed DSNs); prefer a
            // subflow other than the one the chunk is already stuck on.
            let reinject_head = self.reinject.front().copied();
            let avoid = reinject_head
                .filter(|&dsn| dsn >= self.snd_una)
                .and_then(|dsn| self.sent.get(&dsn))
                .map(|c| c.subflow);

            let paths: Vec<PathSnapshot> = tier
                .iter()
                .map(|&i| {
                    let sf = &self.subflows[i];
                    PathSnapshot {
                        id: i,
                        srtt: sf.srtt_or_default(),
                        cwnd: sf.sock.cwnd(),
                        mss: sf.sock.mss(),
                        headroom: sf.tx_headroom(),
                        send_space: sf.sock.send_space(),
                        in_flight: sf.sock.bytes_in_flight(),
                        backup: sf.backup,
                        suspect: sf.path_state == PathState::Suspect,
                    }
                })
                .collect();
            let work_pending = !self.pending.is_empty() || !self.reinject.is_empty();
            let decision = if paths.is_empty() {
                SchedDecision::Stall
            } else {
                self.sched.pick(&SchedCtx {
                    paths: &paths,
                    send_window_free: self.snd_right_edge.saturating_sub(self.snd_nxt),
                    pending_bytes: self.pending_bytes,
                    is_reinject: reinject_head.is_some(),
                    avoid,
                })
            };

            let picks: Vec<usize> = match decision {
                SchedDecision::Pick(id) => vec![id],
                SchedDecision::PickAll(ids) => ids,
                SchedDecision::Defer => {
                    // A deliberate wait for a better path (BLEST): not a
                    // stall — the fast path's ACK clock re-polls us.
                    self.sched_stalled = false;
                    if work_pending {
                        self.telemetry.count(CounterId::SchedulerDefers);
                    }
                    return;
                }
                SchedDecision::Stall => {
                    // Work is waiting but no subflow can take it. Stall
                    // accounting is per scheduler decision: a redundant
                    // or round-robin placement with only *some* paths
                    // blocked never lands here.
                    if work_pending {
                        self.telemetry.count(CounterId::SchedulerStalls);
                        if !self.sched_stalled {
                            self.sched_stalled = true;
                            self.telemetry.note(
                                now.0,
                                EventKind::SchedulerStall {
                                    pending_bytes: self.pending_bytes as u64,
                                    reinject_queued: self.reinject.len() as u64,
                                },
                            );
                        }
                    }
                    return;
                }
            };
            self.sched_stalled = false;
            debug_assert!(!picks.is_empty(), "scheduler returned an empty pick set");
            let primary = picks[0];

            // Re-injections first (fixed DSNs).
            if let Some(dsn) = reinject_head {
                if dsn < self.snd_una || !self.sent.contains_key(&dsn) {
                    self.reinject.pop_front();
                    continue;
                }
                let chunk_data = self.sent.get(&dsn).unwrap().data.clone();
                for &id in &picks {
                    // Redundant copies (non-primary picks) are only
                    // buffer-gated; skip one the buffer can't take.
                    if id != primary && self.subflows[id].sock.send_space() < chunk_data.len() {
                        continue;
                    }
                    self.place_chunk(id, dsn, chunk_data.clone(), now);
                }
                self.sent.insert(
                    dsn,
                    SentChunk {
                        data: chunk_data,
                        subflow: primary,
                    },
                );
                self.reinject.pop_front();
                continue;
            }

            // Receive-window limited? That's where M1/M2 earn their keep
            // (§4.2): a subflow has spare cwnd but the shared window is
            // exhausted by data stuck on a slower path.
            let rwnd_limited = self.snd_nxt >= self.snd_right_edge && self.snd_una < self.snd_nxt;
            if rwnd_limited {
                self.maybe_mechanisms(now, primary);
                return;
            }
            if self.pending.is_empty() {
                return; // application-limited: nothing to do
            }
            // Connection-level flow control (§3.3.1/§3.3.2): never send
            // beyond DATA_ACK + window.
            let window_room = self.snd_right_edge.saturating_sub(self.snd_nxt);
            if window_room == 0 {
                self.maybe_mechanisms(now, primary);
                return;
            }

            // Cut a chunk (≤ MSS, ≤ window) from pending data. Chunks are
            // the mapping granularity: retransmissions re-use identical
            // boundaries so middleboxes never see inconsistent content.
            let mss = self.subflows[primary].sock.mss();
            let take = mss.min(window_room as usize).min(self.pending_bytes);
            let mut chunk = Vec::with_capacity(take);
            while chunk.len() < take {
                let mut front = self.pending.pop_front().unwrap();
                let need = take - chunk.len();
                if front.len() <= need {
                    chunk.extend_from_slice(&front);
                } else {
                    chunk.extend_from_slice(&front[..need]);
                    front = front.slice(need..);
                    self.pending.push_front(front);
                }
            }
            self.pending_bytes -= take;
            let data = Bytes::from(chunk);
            let dsn = self.snd_nxt;
            self.snd_nxt += take as u64;
            for &id in &picks {
                // Redundant copies (non-primary picks) are only
                // buffer-gated; skip one the buffer can't take.
                if id != primary && self.subflows[id].sock.send_space() < take {
                    continue;
                }
                self.place_chunk(id, dsn, data.clone(), now);
            }
            self.sent.insert(
                dsn,
                SentChunk {
                    data,
                    subflow: primary,
                },
            );
            self.sent_bytes += take;
        }
    }

    /// Hand one chunk with its DSS mapping to a subflow.
    fn place_chunk(&mut self, idx: usize, dsn: u64, data: Bytes, _now: SimTime) {
        let sf = &mut self.subflows[idx];
        let ssn = sf.sock.next_tx_offset() as u32;
        let ck = self
            .checksum_on
            .then(|| checksum::dss_checksum(dsn, ssn, data.len() as u16, &data));
        let dss = TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: None,
            mapping: Some(DssMapping {
                dsn,
                subflow_seq: ssn,
                len: data.len() as u16,
                checksum: ck,
            }),
            data_fin: false,
        });
        let ok = sf.sock.send_chunk(data.clone(), vec![dss]);
        debug_assert!(ok, "subflow send buffer unexpectedly full");
        self.stats.bytes_scheduled += data.len() as u64;
        self.telemetry.count(CounterId::SchedulerPicks);
    }

    /// M1 (opportunistic retransmission) and M2 (penalization), §4.2.
    fn maybe_mechanisms(&mut self, now: SimTime, fast: usize) {
        if self.snd_una >= self.snd_nxt {
            return; // nothing outstanding
        }
        let Some(chunk) = self.sent.get(&self.snd_una) else {
            return;
        };
        let culprit = chunk.subflow;
        if culprit == fast {
            return; // the trailing chunk is already on the fast path
        }
        // Both mechanisms exist for *asymmetric* paths (a slow 3G holding
        // up a fast WiFi). When subflow RTTs are comparable — symmetric
        // links, Fig 6(c) — duplicating traffic and halving windows only
        // does damage, so require the culprit to be meaningfully slower.
        let fast_srtt = self.subflows[fast].srtt_or_default();
        let culprit_srtt = self.subflows[culprit].srtt_or_default();
        if culprit_srtt.as_secs_f64() < 1.5 * fast_srtt.as_secs_f64() {
            return;
        }

        if self.cfg.mech.opportunistic_retx {
            let recently = self.last_opp.is_some_and(|(d, t)| {
                d == self.snd_una && now.since(t) < self.subflows[fast].srtt_or_default()
            });
            if !recently {
                // Resend only the first unacknowledged segment (§4.2 M1).
                let data = chunk.data.clone();
                self.place_chunk(fast, self.snd_una, data.clone(), now);
                self.sent.insert(
                    self.snd_una,
                    SentChunk {
                        data,
                        subflow: fast,
                    },
                );
                self.last_opp = Some((self.snd_una, now));
                self.telemetry.note(
                    now.0,
                    EventKind::M1Reinject {
                        dsn: self.snd_una,
                        from: culprit as u32,
                        to: fast as u32,
                    },
                );
            }
        }

        if self.cfg.mech.penalize {
            let sf = &mut self.subflows[culprit];
            // A subflow in loss recovery has already halved its own window.
            if !sf.dead && !sf.sock.in_loss_recovery() {
                let srtt = sf.srtt_or_default();
                let recently = sf.last_penalty.is_some_and(|t| now.since(t) < srtt);
                if !recently {
                    // Halve cwnd and set ssthresh to the reduced window.
                    let before = sf.sock.cwnd();
                    let half = before / 2;
                    sf.sock.cc_mut().set_ssthresh(half);
                    sf.sock.cc_mut().set_cwnd(half);
                    sf.last_penalty = Some(now);
                    let after = sf.sock.cwnd();
                    self.telemetry.note(
                        now.0,
                        EventKind::M2Penalize {
                            subflow: culprit as u32,
                            before,
                            after,
                        },
                    );
                    // The penalty is exactly the cwnd discontinuity Fig. 4
                    // visualizes; pin a subflow sample at the instant.
                    self.subflows[culprit].sock.trace_sample(now);
                }
            }
        }
    }

    fn maybe_send_data_fin(&mut self, _now: SimTime) {
        if !self.data_fin_queued || self.data_fin_dsn.is_some() {
            // Once the DATA_FIN is acked, close the subflows (§3.4: wait
            // for the DATA_ACK of the DATA_FIN before sending subflow
            // FINs).
            if let Some(f) = self.data_fin_dsn {
                if self.snd_una > f {
                    for sf in &mut self.subflows {
                        if !sf.dead {
                            sf.sock.close();
                        }
                    }
                }
            }
            return;
        }
        if !self.pending.is_empty() || self.snd_una < self.snd_nxt {
            return; // data still unacknowledged: FIN comes after
        }
        let fin_dsn = self.snd_nxt;
        self.snd_nxt += 1;
        self.data_fin_dsn = Some(fin_dsn);
        self.send_data_fin_signal();
    }

    fn send_data_fin_signal(&mut self) {
        let Some(fin_dsn) = self.data_fin_dsn else {
            return;
        };
        let opt = TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: Some(self.effective_rcv_ack()),
            mapping: Some(DssMapping {
                dsn: fin_dsn,
                subflow_seq: 0,
                len: 0,
                checksum: None,
            }),
            data_fin: true,
        });
        for sf in &mut self.subflows {
            if sf.usable() {
                sf.sock.queue_oneshot_options(vec![opt.clone()]);
            }
        }
    }

    fn effective_rcv_ack(&self) -> u64 {
        self.rcv_nxt
    }

    /// Refresh window overrides and DATA_ACK carry options on every
    /// subflow (§3.3.1: one shared pool; §3.3.2: explicit DATA_ACK).
    fn update_ack_state(&mut self, now: SimTime) {
        if self.state == ConnState::Fallback || self.state == ConnState::Closed {
            return;
        }
        self.maybe_grow_rcvbuf(now);
        let window = self.rcv_window();
        let da = self.effective_rcv_ack();
        for sf in &mut self.subflows {
            if sf.dead {
                continue;
            }
            sf.sock.set_window_override(Some(window));
            if self.state == ConnState::Established
                || (self.state == ConnState::AwaitingConfirm && !self.is_client)
            {
                let mut carry = vec![TcpOption::Mptcp(MptcpOption::Dss {
                    data_ack: Some(da),
                    mapping: None,
                    data_fin: false,
                })];
                // Client still proving MP_JOIN on this subflow: keep the
                // join ACK in front.
                if sf.join == JoinState::ClientEstablished {
                    if let Some(rk) = self.remote {
                        let mac = crypto::join_ack_mac(
                            self.local.key,
                            rk.key,
                            sf.nonce_local,
                            sf.nonce_remote,
                        );
                        carry.insert(0, TcpOption::Mptcp(MptcpOption::MpJoinAck { mac }));
                    }
                }
                sf.sock.set_carry_options(carry);
            }
        }
    }

    /// M3: grow buffers toward `2·Σxᵢ·RTTmax` (§4.2).
    fn maybe_grow_rcvbuf(&mut self, now: SimTime) {
        if !self.cfg.mech.autotune {
            return;
        }
        let mut rate_sum = 0.0f64; // bytes/sec
        let mut rtt_max = Duration::ZERO;
        for sf in self.subflows.iter().filter(|s| s.usable()) {
            if let Some(srtt) = sf.sock.srtt() {
                rate_sum += f64::from(sf.sock.cwnd()) / srtt.as_secs_f64().max(1e-6);
                rtt_max = rtt_max.max(srtt);
            }
        }
        if rate_sum <= 0.0 {
            return;
        }
        let wanted = (2.0 * rate_sum * rtt_max.as_secs_f64()) as usize;
        let new_rcv = self.rcv_buf_cap.max(wanted.min(self.cfg.recv_buf));
        let new_snd = self.snd_buf_cap.max(wanted.min(self.cfg.send_buf));
        let grew = new_rcv > self.rcv_buf_cap || new_snd > self.snd_buf_cap;
        self.rcv_buf_cap = new_rcv;
        self.snd_buf_cap = new_snd;
        if grew {
            self.telemetry.note(
                now.0,
                EventKind::M3Grow {
                    snd_cap: self.snd_buf_cap as u64,
                    rcv_cap: self.rcv_buf_cap as u64,
                },
            );
            self.trace_conn_sample(now);
            self.telemetry
                .gauge_set(GaugeId::SndBufCap, self.snd_buf_cap as u64);
            self.telemetry
                .gauge_set(GaugeId::RcvBufCap, self.rcv_buf_cap as u64);
        }
    }
}
