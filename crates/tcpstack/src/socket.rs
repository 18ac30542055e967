//! The TCP socket state machine.
//!
//! One [`TcpSocket`] is one TCP connection end — or one MPTCP *subflow*,
//! since "subflows resemble TCP flows on the wire" (§3). The socket is
//! driven entirely by [`TcpSocket::handle_segment`] (input),
//! [`TcpSocket::poll`] (output, one segment per call), and
//! [`TcpSocket::poll_at`] (timer deadline).

use bytes::Bytes;
use mptcp_netsim::time::min_deadline;
use mptcp_netsim::{Duration, SimTime};
use mptcp_packet::{FourTuple, MptcpOption, SeqNum, TcpFlags, TcpOption, TcpSegment};
use mptcp_telemetry::{CounterId, EventKind, Recorder, TraceRecord, DEFAULT_EVENT_CAPACITY};

use crate::autotune::autotuned;
use crate::cc::{Cc, CcAlgorithm};
use crate::config::{TcpConfig, INIT_CWND_SEGS, WSCALE};
use crate::recovery::{AckResponse, Recovery, TimerAction};
use crate::recvbuf::RecvQueue;
use crate::rtt::RttEstimator;
use crate::sendbuf::SendQueue;
use crate::state::{End, Input, Life, TcpState};

/// Plain tallies with no telemetry twin. RTOs, fast retransmits,
/// retransmitted segments and zero-window probes are counted once, in the
/// socket's [`Recorder`] (`CounterId::Tcp*`).
#[derive(Clone, Copy, Debug, Default)]
pub struct SocketStats {
    /// Segments processed.
    pub segs_in: u64,
    /// Payload bytes emitted (including retransmissions).
    pub bytes_out: u64,
    /// Payload bytes cumulatively acknowledged.
    pub bytes_acked: u64,
}

/// Timer firings in a row an orphaned socket takes; the next abandons it.
const ORPHAN_RETRIES: u32 = 2;

/// What a poll sends.
#[derive(Clone, Copy)]
enum Out {
    Rst,
    Syn,
    Retransmit,
    NewData,
    Fin,
    Probe,
    Ack,
}

/// A single TCP connection endpoint.
pub struct TcpSocket {
    cfg: TcpConfig,
    life: Life,
    tuple: FourTuple,

    iss: SeqNum,
    irs: SeqNum,
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    snd_wnd: u32,
    wl1: SeqNum,
    wl2: SeqNum,
    rcv_nxt: SeqNum,

    send_q: SendQueue,
    recv_q: RecvQueue,

    rtt: RttEstimator,
    cc: Cc,
    effective_mss: usize,

    /// Loss recovery, the retransmission timer and the persist timer.
    recovery: Recovery,
    /// Last time the bufferbloat cap (M4) was applied.
    last_cap_at: Option<SimTime>,

    // Output intents.
    need_ack: bool,
    probe_pending: bool,

    // Timestamps (RFC 1323) for RTT sampling.
    ts_recent: u32,
    /// Send times of timestamp values, for RTT computation: we echo the
    /// peer's clock, so we need our own epoch only.
    epoch: SimTime,

    // Advertised-window bookkeeping (window updates).
    last_adv_right_edge: SeqNum,

    // Extension points for MPTCP.
    syn_options: Vec<TcpOption>,
    window_override: Option<u32>,
    /// MPTCP options harvested from every incoming segment, in order.
    rx_mptcp: Vec<MptcpOption>,

    /// See [`TcpSocket::take_poll_changed`].
    poll_changed: bool,
    /// See [`TcpSocket::orphan`].
    orphaned: bool,
    /// Counters.
    pub stats: SocketStats,
    /// Structured telemetry: counters, a bounded event ring and — when
    /// `cfg.trace` is on — the cwnd/ssthresh/srtt/in-flight series sampled
    /// on every congestion-control event plus the configured interval. An
    /// MPTCP connection absorbs this into its own recorder per snapshot.
    pub telemetry: Recorder,
    /// Tag stamped into telemetry events (the owning subflow's index;
    /// 0 for plain TCP).
    telemetry_tag: u32,
}

impl TcpSocket {
    /// Create an active opener (client). The first [`TcpSocket::poll`]
    /// emits a SYN carrying `syn_options` (e.g. MP_CAPABLE or MP_JOIN).
    pub fn client(
        cfg: TcpConfig,
        tuple: FourTuple,
        iss: SeqNum,
        now: SimTime,
        syn_options: Vec<TcpOption>,
    ) -> TcpSocket {
        TcpSocket::common(cfg, tuple, iss, now, false, syn_options)
    }

    /// Create a passive opener directly from a received SYN. The first
    /// [`TcpSocket::poll`] emits the SYN/ACK carrying `syn_options`.
    pub fn accept(
        cfg: TcpConfig,
        syn: &TcpSegment,
        iss: SeqNum,
        now: SimTime,
        syn_options: Vec<TcpOption>,
    ) -> TcpSocket {
        let mut s = TcpSocket::common(cfg, syn.tuple.reversed(), iss, now, true, syn_options);
        s.snd_wnd = syn.window;
        s.wl1 = syn.seq;
        s.absorb_syn(syn);
        s.stats.segs_in += 1;
        s
    }

    fn common(
        cfg: TcpConfig,
        tuple: FourTuple,
        iss: SeqNum,
        now: SimTime,
        rcvd: bool,
        syn_options: Vec<TcpOption>,
    ) -> TcpSocket {
        // An autotuned receive buffer starts small; a send buffer follows cwnd.
        let rcv_cap = if cfg.autotune {
            autotuned(0, cfg.recv_buf)
        } else {
            cfg.recv_buf
        };
        TcpSocket {
            effective_mss: cfg.mss,
            life: Life::Opening {
                rcvd,
                syn: true,
                fin: false,
            },
            tuple,
            iss,
            irs: SeqNum(0),
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            wl1: SeqNum(0),
            wl2: SeqNum(0),
            rcv_nxt: SeqNum(0),
            send_q: SendQueue::new(iss + 1),
            recv_q: RecvQueue::new(rcv_cap),
            rtt: RttEstimator::new(cfg.min_rto, cfg.max_rto),
            cc: CcAlgorithm::Reno.build(cfg.mss as u32, INIT_CWND_SEGS),
            recovery: Recovery::new(iss, cfg.max_rto),
            last_cap_at: None,
            need_ack: false,
            probe_pending: false,
            ts_recent: 0,
            epoch: now,
            last_adv_right_edge: SeqNum(0),
            syn_options,
            window_override: None,
            rx_mptcp: Vec::new(),
            poll_changed: false,
            orphaned: false,
            stats: SocketStats::default(),
            telemetry: Recorder::traced(DEFAULT_EVENT_CAPACITY, cfg.trace),
            telemetry_tag: 0,
            cfg,
        }
    }

    /// Tag telemetry events emitted by this socket (the subflow index
    /// when the socket backs an MPTCP subflow).
    pub fn set_telemetry_tag(&mut self, tag: u32) {
        self.telemetry_tag = tag;
    }

    /// Record a [`TraceRecord::SubflowSample`] of the congestion and
    /// sequence state. Called internally on every congestion-control
    /// event; the owning connection also calls it on the sampling
    /// interval. One branch and no work when tracing is disabled.
    pub fn trace_sample(&mut self, now: SimTime) {
        if !self.telemetry.tracing() {
            return;
        }
        let rec = TraceRecord::SubflowSample {
            at_ns: now.0,
            subflow: self.telemetry_tag,
            cwnd: self.cc.cwnd(),
            ssthresh: self.cc.ssthresh(),
            srtt_us: self.rtt.srtt().map_or(0, |d| d.as_nanos() as u64 / 1000),
            in_flight: self.bytes_in_flight(),
            snd_nxt: self.snd_nxt.0,
            rcv_nxt: self.rcv_nxt.0,
        };
        self.telemetry.sample(rec);
    }

    /// Connection state.
    pub fn state(&self) -> TcpState {
        self.life.state()
    }

    /// The socket's four-tuple (local = src).
    pub fn tuple(&self) -> FourTuple {
        self.tuple
    }

    /// Has the handshake completed?
    pub fn is_established(&self) -> bool {
        !matches!(self.life, Life::Opening { .. } | Life::Closed(_))
    }

    /// Did the connection fail (RST or persistent timeout)?
    pub fn is_error(&self) -> bool {
        matches!(self.life, Life::Closed(End::Failed | End::RstDue))
    }

    /// Smoothed RTT.
    pub fn srtt(&self) -> Option<Duration> {
        self.rtt.srtt()
    }

    /// Current retransmission timeout: the estimator's, backed off, capped
    /// at `max_rto`.
    pub fn rto(&self) -> Duration {
        self.recovery.timeout(self.rtt.rto())
    }

    /// Consecutive RTO fires without an intervening new ACK. Path-failure
    /// detection at the MPTCP layer reads this to demote a subflow before
    /// the socket itself gives up.
    pub fn consecutive_rtos(&self) -> u32 {
        self.recovery.consecutive_rtos()
    }

    /// Congestion window in bytes.
    pub fn cwnd(&self) -> u32 {
        self.cc.cwnd()
    }

    /// The congestion window, Reno's unless replaced: penalization,
    /// coupling, and `*sock.cc_mut() = algo.build(..)` to swap algorithms.
    pub fn cc_mut(&mut self) -> &mut Cc {
        &mut self.cc
    }

    /// Is the socket currently in fast or RTO loss recovery?
    pub fn in_loss_recovery(&self) -> bool {
        self.recovery.in_loss_recovery()
    }

    /// Bytes in flight (sent, not yet cumulatively acked).
    pub fn bytes_in_flight(&self) -> u32 {
        self.snd_nxt - self.snd_una
    }

    /// Peer's advertised window in bytes.
    pub fn peer_window(&self) -> u32 {
        self.snd_wnd
    }

    /// Effective MSS after negotiation.
    pub fn mss(&self) -> usize {
        self.effective_mss
    }

    /// Bytes queued in the send buffer (unacked + unsent).
    pub fn bytes_queued(&self) -> usize {
        self.send_q.buffered()
    }

    /// Free space in the send buffer.
    pub fn send_space(&self) -> usize {
        self.send_capacity().saturating_sub(self.send_q.buffered())
    }

    /// Send buffer capacity: `send_buf`, or autotuned from the
    /// congestion window.
    pub fn send_capacity(&self) -> usize {
        let cwnd = self.cc.cwnd() as usize;
        let cfg = &self.cfg;
        if cfg.autotune {
            autotuned(cwnd, cfg.send_buf)
        } else {
            cfg.send_buf
        }
    }

    /// The bytes the last round trip brought in, and that round trip,
    /// timed by the timestamp echo on arriving data (autotuned only).
    pub fn rcv_rate(&self) -> Option<(usize, Duration)> {
        self.recv_q.rate()
    }

    /// Bytes held in the receive buffer (for memory accounting).
    pub fn recv_buffered(&self) -> usize {
        self.recv_q.buffered()
    }

    /// Has the peer's FIN been received (stream EOF)? It is the one thing
    /// that takes `rcv_nxt` past the stream received, so a reset after it
    /// leaves it seen.
    pub fn stream_fin(&self) -> bool {
        self.rcv_nxt.after(self.irs + 1 + self.recv_q.end() as u32)
    }

    /// Has our FIN been sent and acknowledged?
    pub fn fin_acked(&self) -> bool {
        self.fin_seq().is_some_and(|fs| self.snd_una.after(fs))
    }

    /// The sequence number our FIN went out with, once it has. Nothing is
    /// queued after a close, so the FIN follows the last queued byte, and
    /// it is the only thing that takes `snd_nxt` past the queue's end.
    fn fin_seq(&self) -> Option<SeqNum> {
        let end = self.send_q.end_seq();
        self.snd_nxt.after(end).then_some(end)
    }

    /// 1-based relative offset the next enqueued byte will get on this
    /// subflow (the DSS `subflow_seq` for a mapping starting there).
    pub fn next_tx_offset(&self) -> u64 {
        u64::from(self.send_q.end_seq() - self.iss)
    }

    /// Move the MPTCP options harvested from incoming segments, in arrival
    /// order, onto the end of `into`. Both buffers keep their capacity.
    pub fn take_rx_mptcp(&mut self, into: &mut Vec<MptcpOption>) {
        into.append(&mut self.rx_mptcp);
    }

    /// Did a [`poll`](TcpSocket::poll) since the last call fire a timer,
    /// end a go-back-N walk or put the first byte in flight — move, that
    /// is, any of `cwnd`, `rto`, `consecutive_rtos`, `in_loss_recovery`,
    /// `is_error`, `state` or `bytes_in_flight() > 0`? An MPTCP connection
    /// re-runs its own periodic work when so, instead of on every poll.
    pub fn take_poll_changed(&mut self) -> bool {
        std::mem::take(&mut self.poll_changed)
    }

    /// Read in-order payload with its 0-based stream offset.
    pub fn read_stream(&mut self, max: usize) -> Option<(u64, Bytes)> {
        self.recv_q.read_with_offset(max)
    }

    /// Read in-order payload (plain TCP application API).
    pub fn read(&mut self, max: usize) -> Option<Bytes> {
        self.recv_q.read(max)
    }

    /// The receive window the socket's own buffer leaves.
    pub fn recv_window(&self) -> u32 {
        self.recv_q.window()
    }

    /// Override the advertised receive window (MPTCP shared buffer pool).
    pub fn set_window_override(&mut self, window: Option<u32>) {
        self.window_override = window;
    }

    /// Ask the socket to emit a pure ACK at the next poll (window updates
    /// driven by connection-level buffer changes).
    pub fn request_ack(&mut self) {
        self.need_ack = true;
    }

    /// Nothing above needs this connection's close any more (MPTCP: both
    /// DATA_FINs are acknowledged, RFC 8684 §3.3.3). A FIN still
    /// unacknowledged goes out at most twice more, then the socket closes
    /// without error instead of retrying into a peer that has left.
    pub fn orphan(&mut self) {
        self.orphaned = true;
    }

    /// Probe a possibly-dead path right now instead of waiting for the
    /// backed-off RTO: schedule an immediate retransmission of the first
    /// unacked segment (which elicits an ACK if the path works again), or
    /// a pure ACK when nothing is outstanding. Used by MPTCP path-failure
    /// recovery to re-test Suspect/Failed subflows.
    pub fn probe_path(&mut self, now: SimTime) {
        if !self.is_established() {
            return;
        }
        if self.snd_una.before(self.snd_nxt) {
            self.recovery.retransmit_now(self.snd_una);
            self.recovery.ensure_armed(now, self.rtt.rto());
        } else {
            self.need_ack = true;
        }
    }

    /// Enqueue payload with the option every segment cut from it carries
    /// (the MPTCP mapping path): `None`, `Some(option)` or a one-element
    /// `Vec`; a second option panics.
    ///
    /// Returns `false` (and enqueues nothing) if the send buffer lacks
    /// space or the state forbids sending.
    pub fn send_chunk(
        &mut self,
        payload: Bytes,
        option: impl IntoIterator<Item = TcpOption>,
    ) -> bool {
        if self.send_closed() || payload.len() > self.send_space() {
            return false;
        }
        let mut option = option.into_iter();
        let first = option.next();
        assert!(option.next().is_none(), "at most one option per chunk");
        self.send_q.enqueue(payload, first);
        true
    }

    /// The sending direction can accept no more data, ever: the state is
    /// past the sending states or a FIN has been queued via
    /// [`TcpSocket::close`]. Distinguishes a `send` that returned 0 for
    /// lack of buffer space (retry later) from one that will return 0
    /// forever.
    pub fn send_closed(&self) -> bool {
        self.life.send_closed()
    }

    /// Enqueue plain payload (TCP application write). Returns bytes taken.
    pub fn send(&mut self, payload: &[u8]) -> usize {
        let take = payload.len().min(self.send_space());
        if take == 0 || self.send_closed() {
            return 0;
        }
        self.send_chunk(Bytes::copy_from_slice(&payload[..take]), None);
        take
    }

    /// Close the send direction: a FIN goes out once the queue drains.
    pub fn close(&mut self) {
        if self.feed(Input::Close, SimTime::ZERO) {
            self.send_q.release_if_empty();
        }
    }

    /// Abort: emit RST and drop to `Closed`.
    pub fn abort(&mut self) {
        self.feed(Input::Abort, SimTime::ZERO);
    }

    /// Feed the lifecycle `input` at `now`; `true` when it moved. A socket
    /// that closes keeps no timer.
    fn feed(&mut self, input: Input, now: SimTime) -> bool {
        let Some(next) = self.life.on(input, now) else {
            return false;
        };
        if next.state() == TcpState::Closed {
            self.recovery.stop();
        }
        self.life = next;
        true
    }

    /// Process an incoming segment addressed to this socket.
    pub fn handle_segment(&mut self, now: SimTime, seg: &TcpSegment) {
        self.stats.segs_in += 1;
        match self.life {
            Life::Closed(_) => {}
            Life::Opening { rcvd: false, .. } => self.handle_syn_sent(now, seg),
            _ => self.handle_synchronized(now, seg),
        }
    }

    fn handle_syn_sent(&mut self, now: SimTime, seg: &TcpSegment) {
        if seg.flags.rst {
            if seg.flags.ack && seg.ack == self.iss + 1 {
                self.feed(Input::Failed, now);
            }
            return;
        }
        if seg.flags.syn && seg.flags.ack {
            if seg.ack != self.iss + 1 {
                return; // bogus ack; a real stack would RST
            }
            self.absorb_syn(seg);
            self.establish(now, seg);
            self.need_ack = true;
        } else if seg.flags.syn {
            // Simultaneous open.
            self.absorb_syn(seg);
            self.feed(Input::PeerSyn, now);
        }
    }

    /// The handshake's last segment for this end arrived: `seg`
    /// acknowledges our SYN.
    fn establish(&mut self, now: SimTime, seg: &TcpSegment) {
        self.feed(Input::SynAcked, now);
        self.snd_una = seg.ack;
        self.snd_wnd = seg.window;
        self.wl1 = seg.seq;
        self.wl2 = seg.ack;
        self.recovery.on_established();
        self.sample_rtt_from_ts(now, seg);
    }

    fn handle_synchronized(&mut self, now: SimTime, seg: &TcpSegment) {
        if seg.flags.rst {
            if self.seq_acceptable(seg) {
                self.feed(Input::Failed, now);
            }
            return;
        }
        if seg.flags.syn {
            // Duplicate SYN (our SYN/ACK was lost): re-ack.
            if seg.seq == self.irs {
                self.feed(Input::PeerSyn, now);
                self.need_ack = true;
            }
            if self.state() == TcpState::SynReceived {
                return;
            }
        }

        // Harvest MPTCP options from anything plausibly belonging to the
        // connection, including out-of-window duplicates: the DSS mapping
        // is position-independent (§3.3.4).
        self.rx_mptcp.extend(seg.mptcp_options().cloned());

        // A zero-window probe, nothing at one below `rcv_nxt`, is answered
        // with an ACK (RFC 9293 §3.10.7.4). Not any old empty segment: a
        // pure ACK reordered behind data would draw a duplicate ACK.
        if seg.payload.is_empty() && !seg.flags.fin && seg.seq + 1 == self.rcv_nxt {
            self.need_ack = true;
        }

        if seg.flags.ack {
            self.process_ack(now, seg);
        }

        if !seg.payload.is_empty() {
            self.process_payload(seg);
            // Receive autotuning, timed by the timestamp echo.
            if self.cfg.autotune {
                let rtt = self.echo_rtt(now, seg);
                self.recv_q.autotune(now, rtt, self.cfg.recv_buf);
            }
        }

        if seg.flags.fin {
            self.process_fin(now, seg);
        }

        match timestamps_of(seg) {
            Some((val, _)) if seg.seq.before_eq(self.rcv_nxt) => self.ts_recent = val,
            _ => {}
        }
    }

    fn seq_acceptable(&self, seg: &TcpSegment) -> bool {
        let wnd = self.adv_window().max(1);
        seg.seq_end().after_eq(self.rcv_nxt) && seg.seq.before(self.rcv_nxt + wnd)
    }

    fn process_ack(&mut self, now: SimTime, seg: &TcpSegment) {
        let ack = seg.ack;
        let flight_before = self.bytes_in_flight();
        let window_changed = seg.window != self.snd_wnd;

        // SYN/ACK completion on the passive side.
        if self.state() == TcpState::SynReceived {
            if ack != self.iss + 1 {
                return;
            }
            self.establish(now, seg);
        }

        if ack.after(self.snd_nxt) {
            // Acks data we never sent; ignore (a defensive stack ACKs).
            self.need_ack = true;
            return;
        }

        // Window update (RFC 793 WL1/WL2 test).
        if self.wl1.before(seg.seq) || (self.wl1 == seg.seq && self.wl2.before_eq(ack)) {
            self.snd_wnd = seg.window;
            self.wl1 = seg.seq;
            self.wl2 = ack;
        }

        if ack.after(self.snd_una) {
            let mut newly = ack - self.snd_una;
            // A FIN occupies sequence space but is not buffer data.
            if self.fin_seq().is_some_and(|fs| ack.after(fs)) {
                newly = newly.saturating_sub(1);
            }
            self.send_q.ack_to(ack);
            self.snd_una = ack;
            self.stats.bytes_acked += u64::from(newly);
            let rtt_sample = self.sample_rtt_from_ts(now, seg);

            match self
                .recovery
                .on_new_ack(now, ack, self.snd_nxt, self.rtt.rto())
            {
                AckResponse::Grow => self.cc.on_ack(now, newly, rtt_sample),
                // Congestion-window validation: only grow when the flow
                // was actually cwnd-limited, else an application- or
                // receive-window-limited flow inflates cwnd without bound
                // (catastrophic on bufferbloated paths).
                AckResponse::GrowIfCwndLimited => {
                    if flight_before + 2 * self.effective_mss as u32 >= self.cc.cwnd() {
                        self.cc.on_ack(now, newly, rtt_sample);
                    }
                }
                AckResponse::ExitRecovery => self.cc.on_recovery_exit(),
                AckResponse::PartialAck => {}
            }

            if self.cfg.cap_cwnd_on_bufferbloat {
                self.apply_bufferbloat_cap(now);
            }

            // Trace the post-ACK congestion state (ACKs that advance
            // snd_una are the congestion-control events of interest).
            self.trace_sample(now);

            if self.fin_acked() {
                self.feed(Input::FinAcked, now);
            }
        } else if ack == self.snd_una
            && seg.payload.is_empty()
            && !seg.flags.syn
            && !seg.flags.fin
            // A genuine duplicate ACK either leaves the window unchanged or
            // carries a SACK block (the receiver is holding out-of-order
            // data). Window-only updates — e.g. MPTCP's shared-pool window
            // moving because the *other* subflow delivered — must not
            // trigger spurious fast retransmits.
            && (!window_changed
                || seg.options.iter().any(|o| matches!(o, TcpOption::Sack(_))))
            && self.snd_nxt.after(self.snd_una)
            && self.recovery.on_dup_ack(self.snd_una, self.snd_nxt)
        {
            // Fast retransmit. Clamp the flight estimate to cwnd: data
            // sent beyond the (since-collapsed) window is mostly sitting
            // in drop-tail queues or lost, and must not inflate ssthresh.
            self.cc
                .on_fast_retransmit(now, self.bytes_in_flight().min(self.cc.cwnd()));
            self.telemetry.note(
                now.0,
                EventKind::TcpFastRetransmit {
                    subflow: self.telemetry_tag,
                    seq: self.snd_una.0,
                },
            );
            self.trace_sample(now);
        }

        let blocked = self.snd_wnd == 0 && self.send_q.has_data_at(self.snd_nxt);
        self.recovery.on_peer_window(now, self.rtt.rto(), blocked);
    }

    fn apply_bufferbloat_cap(&mut self, now: SimTime) {
        let (Some(base), Some(srtt)) = (self.rtt.min_rtt(), self.rtt.srtt()) else {
            return;
        };
        // At most one reduction per base RTT, like the paper's penalization
        // cadence — re-capping on every ACK spirals the window down.
        if self.last_cap_at.is_some_and(|t| now.since(t) < srtt) {
            return;
        }
        if srtt > base * 2 {
            // One BDP worth of data, measured at base RTT.
            let rate = f64::from(self.cc.cwnd()) / srtt.as_secs_f64().max(1e-9);
            let cap = (rate * base.as_secs_f64() * 2.0) as u32;
            if cap < self.cc.cwnd() {
                self.cc.set_cwnd(cap.max(2 * self.effective_mss as u32));
                self.last_cap_at = Some(now);
                self.telemetry.note(
                    now.0,
                    EventKind::M4Cap {
                        subflow: self.telemetry_tag,
                        cap: self.cc.cwnd(),
                    },
                );
            }
        }
    }

    fn process_payload(&mut self, seg: &TcpSegment) {
        // In order, out of order, duplicate or refused: every data segment
        // is acked at once.
        self.need_ack = true;
        // Data may arrive until the peer's FIN.
        if !self.is_established() || self.stream_fin() {
            return;
        }
        // Stream offset of the segment's first byte (0-based, first data
        // byte after the SYN is offset 0), and what overlaps the SYN
        // (shouldn't happen) to clip.
        let first_data = self.irs + 1;
        let rel = i64::from(seg.seq.dist_from(first_data) as i32);
        let (off, cut) = (rel.max(0) as u64, (-rel).max(0) as usize);
        // Clip to the advertised window's right edge (connection-level
        // clipping — data in-window at subflow level but out-of-window at
        // data level is dropped by the MPTCP layer above, §3.3.5).
        let window_right =
            u64::from(self.rcv_nxt.dist_from(first_data)) + u64::from(self.adv_window());
        if cut >= seg.payload.len() || off >= window_right {
            return;
        }
        let end = seg.payload.len().min(cut + (window_right - off) as usize);
        let advanced = self.recv_q.insert(off, seg.payload.slice(cut..end));
        self.rcv_nxt += advanced as u32;
    }

    fn process_fin(&mut self, now: SimTime, seg: &TcpSegment) {
        let fin_seq = seg.seq + seg.payload.len() as u32;
        self.need_ack = true;
        // A FIN beyond a hole (ack what we have; the peer retransmits), or
        // one seen before.
        if fin_seq == self.rcv_nxt && self.feed(Input::PeerFin, now) {
            self.rcv_nxt += 1;
        }
    }

    /// The peer's SYN (or SYN/ACK): its sequence number, MSS and
    /// MPTCP options.
    fn absorb_syn(&mut self, syn: &TcpSegment) {
        self.irs = syn.seq;
        self.rcv_nxt = syn.seq + 1;
        for o in &syn.options {
            if let TcpOption::Mss(m) = o {
                self.effective_mss = self.effective_mss.min(*m as usize);
            }
        }
        self.rx_mptcp.extend(syn.mptcp_options().cloned());
    }

    fn sample_rtt_from_ts(&mut self, now: SimTime, seg: &TcpSegment) -> Option<Duration> {
        let rtt = self.echo_rtt(now, seg)?;
        self.rtt.on_sample(rtt);
        Some(rtt)
    }

    /// The time since we sent the timestamp `seg` echoes.
    fn echo_rtt(&self, now: SimTime, seg: &TcpSegment) -> Option<Duration> {
        let (_, ecr) = timestamps_of(seg).filter(|&(_, ecr)| ecr != 0)?;
        let delta = self.ts_now(now).wrapping_sub(ecr);
        // Reject absurd samples (clock skew after wrap).
        (delta <= 120_000_000).then(|| Duration::from_micros(u64::from(delta)))
    }

    fn ts_now(&self, now: SimTime) -> u32 {
        (now.since(self.epoch).as_micros() as u64 % u64::from(u32::MAX)).max(1) as u32
    }

    /// Next instant this socket needs a poll: now when it has a segment to
    /// give, else its earliest timer.
    pub fn poll_at(&self, _now: SimTime) -> Option<SimTime> {
        match self.life {
            _ if self.next_out().is_some() => Some(SimTime::ZERO), // poll me right now
            Life::TimeWait { until } => min_deadline(self.recovery.poll_at(), Some(until)),
            _ => self.recovery.poll_at(),
        }
    }

    /// What `poll` sends next: the one decision `poll` acts on and
    /// `poll_at` reads. A closed socket owes nothing but an abort's RST, an
    /// opening one nothing but its SYN (an ACK a duplicate SYN asked for
    /// waits for the handshake).
    fn next_out(&self) -> Option<Out> {
        match self.life {
            Life::Closed(end) => return (end == End::RstDue).then_some(Out::Rst),
            Life::Opening { syn, .. } => return syn.then_some(Out::Syn),
            _ => {}
        }
        let fin_queued = matches!(
            self.life,
            Life::Established { fin: true } | Life::CloseWait { fin: true }
        );
        if self.recovery.has_retransmit(self.snd_una, self.cc.cwnd()) {
            Some(Out::Retransmit)
        } else if self.can_send_new() {
            Some(Out::NewData)
        } else if fin_queued && !self.send_q.has_data_at(self.snd_nxt) {
            Some(Out::Fin)
        } else if self.probe_pending {
            Some(Out::Probe)
        } else {
            (self.need_ack || self.window_moved()).then_some(Out::Ack)
        }
    }

    /// Has the right edge moved substantially since it was last
    /// advertised? The classic SWS-avoidance threshold: two segments or
    /// half the buffer, whichever is smaller.
    fn window_moved(&self) -> bool {
        let right = self.rcv_nxt + self.adv_window();
        let threshold = (2 * self.effective_mss)
            .min(self.recv_q.capacity() / 2)
            .max(1) as u32;
        right.after_eq(self.last_adv_right_edge + threshold)
    }

    /// Usable send window: `min(cwnd, peer window) − bytes in flight`,
    /// with `cwnd` as loss recovery sees it.
    fn usable_window(&self) -> u32 {
        let (cwnd, mss) = (self.cc.cwnd(), self.effective_mss as u32);
        let window = self.recovery.send_window(cwnd, self.cc.ssthresh(), mss);
        let flight = self.bytes_in_flight();
        window.min(self.snd_wnd).saturating_sub(flight)
    }

    /// May new data go out now?
    ///
    /// Sender-side silly-window avoidance (RFC 1122 §4.2.3.4, RFC 9293
    /// §3.8.6.2.1): the segment that would be built at `snd_nxt` — a full
    /// MSS or the rest of its chunk, since segments never cross a chunk —
    /// goes out only whole. A usable window smaller than that waits for the
    /// ACKs that widen it instead of answering each with a fragment that
    /// pays a full header. With nothing in flight no ACK is coming, so
    /// whatever fits goes (a peer window under one MSS, a post-RTO cwnd).
    fn can_send_new(&self) -> bool {
        let usable = self.usable_window() as usize;
        if usable == 0 || !self.send_q.has_data_at(self.snd_nxt) {
            return false;
        }
        // No segment exceeds the MSS, so only a window narrower than
        // that needs the segment measured (a queue lookup `poll_at`
        // would otherwise pay on every loop turn).
        usable >= self.effective_mss
            || self.bytes_in_flight() == 0
            || self
                .send_q
                .segment_len_at(self.snd_nxt, self.effective_mss)
                .is_some_and(|want| usable >= want)
    }

    /// Process timers, then emit at most one segment. Call repeatedly
    /// until `None`.
    pub fn poll(&mut self, now: SimTime) -> Option<TcpSegment> {
        self.poll_with_room(now, 0)
    }

    /// [`poll`](TcpSocket::poll), leaving room in a synchronized segment's
    /// option list for `room` more options the caller appends (MPTCP's),
    /// so that list stays the segment's one allocation, made at its final
    /// size. Fitting them in 40 bytes is the caller's to do.
    pub fn poll_with_room(&mut self, now: SimTime, room: usize) -> Option<TcpSegment> {
        self.process_timers(now);
        loop {
            return Some(match self.next_out()? {
                Out::Rst => {
                    self.feed(Input::RstOut, now);
                    let mut seg =
                        TcpSegment::new(self.tuple, self.snd_nxt, self.rcv_nxt, TcpFlags::RST);
                    seg.flags.ack = self.irs != SeqNum(0) || self.rcv_nxt != SeqNum(0);
                    seg
                }
                Out::Syn => self.build_syn(now),
                // The hole an ACK or a probe named, then the post-RTO
                // go-back-N walk, paced by cwnd.
                Out::Retransmit => {
                    let rtx = self
                        .recovery
                        .next_retransmit(self.snd_una, self.cc.cwnd())?;
                    let seq = rtx.seq;
                    let seg = match self.data_segment(now, seq, self.effective_mss, room) {
                        // FIN-only retransmission.
                        None if self.fin_seq() == Some(seq) => {
                            Some(self.fin_segment(now, seq, room))
                        }
                        seg => seg,
                    };
                    let Some(seg) = seg else {
                        self.recovery.nothing_at(rtx);
                        self.poll_changed = true;
                        continue;
                    };
                    self.recovery.retransmitted(rtx, seg.seq_end());
                    seg
                }
                Out::NewData => {
                    let window = self.usable_window() as usize;
                    let seg = self.data_segment(now, self.snd_nxt, window, room)?;
                    self.poll_changed |= self.snd_nxt == self.snd_una;
                    self.snd_nxt = seg.seq_end();
                    self.recovery.ensure_armed(now, self.rtt.rto());
                    seg
                }
                Out::Fin => {
                    let seq = self.snd_nxt;
                    self.poll_changed |= seq == self.snd_una;
                    self.snd_nxt = seq + 1;
                    self.feed(Input::FinOut, now);
                    self.recovery.ensure_armed(now, self.rtt.rto());
                    self.fin_segment(now, seq, room)
                }
                // Zero-window probe: nothing, at a sequence number the peer
                // has acknowledged, which it answers with an ACK carrying its
                // window (Linux's tcp_xmit_probe_skb).
                Out::Probe => {
                    self.probe_pending = false;
                    self.telemetry.count(CounterId::TcpZeroWindowProbes);
                    let seq = self.snd_una - 1;
                    self.emit(now, seq, TcpFlags::ACK, Bytes::new(), None, room)
                }
                // A pure ACK, SACKing the first out-of-order block so the
                // peer sees reordering.
                Out::Ack => {
                    let first_data = self.irs + 1;
                    let sack = self.recv_q.first_sack_block().map(|(start, end)| {
                        TcpOption::Sack(vec![(
                            (first_data + start as u32).0,
                            (first_data + end as u32).0,
                        )])
                    });
                    self.emit(now, self.snd_nxt, TcpFlags::ACK, Bytes::new(), sack, room)
                }
            });
        }
    }

    fn process_timers(&mut self, now: SimTime) {
        if self.feed(Input::Tick, now) {
            self.poll_changed = true;
            return;
        }
        if self.recovery.persist_due(now, self.rtt.rto()) {
            self.probe_pending = true;
        }
        if self.recovery.deadline().is_some_and(|t| t <= now) {
            self.on_rto(now);
        }
    }

    fn on_rto(&mut self, now: SimTime) {
        self.poll_changed = true;
        self.telemetry.note(
            now.0,
            EventKind::TcpRto {
                subflow: self.telemetry_tag,
                backoff: self.recovery.backoff(),
            },
        );
        self.trace_sample(now);
        let handshake = !self.is_established();
        let outstanding = self.snd_una.before(self.snd_nxt) || self.fin_seq().is_some();
        let flight = (!handshake && outstanding).then_some((self.snd_una, self.snd_nxt));
        let input = match self.recovery.on_timer(now, self.rtt.rto(), flight) {
            TimerAction::GiveUp => Input::Failed,
            TimerAction::Retry if self.orphaned && self.consecutive_rtos() > ORPHAN_RETRIES => {
                Input::Abandon
            }
            // §3.1: retry without the extension option in case a
            // middlebox is silently dropping option-bearing SYNs.
            TimerAction::Retry if self.state() == TcpState::SynSent => {
                self.syn_options.clear();
                Input::SynTimeout
            }
            TimerAction::Retry if handshake => Input::SynTimeout,
            TimerAction::Retry => {
                let in_flight = self.bytes_in_flight().min(self.cc.cwnd());
                if flight.is_some() {
                    self.cc.on_retransmit_timeout(now, in_flight);
                }
                return;
            }
        };
        self.feed(input, now);
    }

    fn adv_window(&self) -> u32 {
        self.window_override.unwrap_or_else(|| self.recv_q.window())
    }

    fn timestamps(&self, now: SimTime, ecr: u32) -> TcpOption {
        TcpOption::Timestamps {
            val: self.ts_now(now),
            ecr,
        }
    }

    fn build_syn(&mut self, now: SimTime) -> TcpSegment {
        self.feed(Input::SynOut, now);
        self.recovery.arm(now, self.rtt.rto());
        // The SYN occupies one sequence number.
        self.snd_nxt = self.iss + 1;
        let mut seg = TcpSegment::new(self.tuple, self.iss, self.rcv_nxt, TcpFlags::SYN);
        seg.flags.ack = self.state() == TcpState::SynReceived;
        seg.options.push(TcpOption::Mss(self.cfg.mss as u16));
        seg.options.push(TcpOption::WindowScale(WSCALE));
        seg.options.push(TcpOption::SackPermitted);
        let ecr = if seg.flags.ack { self.ts_recent } else { 0 };
        seg.options.push(self.timestamps(now, ecr));
        seg.options.extend(self.syn_options.iter().cloned());
        seg.window = self.adv_window();
        seg
    }

    /// Up to `max_len` bytes of queued data from `seq` (never more than
    /// the MSS, never across a chunk), as a segment with its chunk's
    /// options; `None` when nothing is queued there.
    fn data_segment(
        &mut self,
        now: SimTime,
        seq: SeqNum,
        max_len: usize,
        room: usize,
    ) -> Option<TcpSegment> {
        let max = self.effective_mss.min(max_len.max(1));
        let data = self.send_q.segment_at(seq, max)?;
        // Every byte below `snd_nxt` went out before.
        if seq.before(self.snd_nxt) {
            self.telemetry.count(CounterId::TcpRetransmittedSegs);
        }
        self.stats.bytes_out += data.payload.len() as u64;
        let flags = TcpFlags {
            psh: true,
            ..TcpFlags::ACK
        };
        Some(self.emit(now, data.seq, flags, data.payload, data.option, room))
    }

    fn fin_segment(&mut self, now: SimTime, seq: SeqNum, room: usize) -> TcpSegment {
        let flags = TcpFlags {
            fin: true,
            ..TcpFlags::ACK
        };
        self.emit(now, seq, flags, Bytes::new(), None, room)
    }

    /// Build any segment of a synchronized connection: acknowledging
    /// `rcv_nxt`, advertising the current window, carrying timestamps and
    /// `option` (a chunk's, or an ACK's SACK block), with `room` for the
    /// caller's options reserved.
    fn emit(
        &mut self,
        now: SimTime,
        seq: SeqNum,
        flags: TcpFlags,
        payload: Bytes,
        option: Option<TcpOption>,
        room: usize,
    ) -> TcpSegment {
        let mut seg = TcpSegment::new(self.tuple, seq, self.rcv_nxt, flags);
        seg.payload = payload;
        seg.options.reserve_exact(2 + room);
        seg.options.push(self.timestamps(now, self.ts_recent));
        seg.options.extend(option);
        seg.window = self.adv_window();
        self.last_adv_right_edge = self.rcv_nxt + seg.window;
        self.need_ack = false;
        seg
    }
}

/// The `(val, ecr)` of the segment's timestamps option.
fn timestamps_of(seg: &TcpSegment) -> Option<(u32, u32)> {
    seg.options.iter().find_map(|o| match *o {
        TcpOption::Timestamps { val, ecr } => Some((val, ecr)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_packet::Endpoint;

    fn tuple() -> FourTuple {
        FourTuple {
            src: Endpoint::new(0x0a000001, 1000),
            dst: Endpoint::new(0x0a000002, 80),
        }
    }

    fn pair() -> (TcpSocket, Option<TcpSocket>) {
        let cfg = TcpConfig::default();
        let c = TcpSocket::client(cfg, tuple(), SeqNum(1000), SimTime::ZERO, vec![]);
        (c, None)
    }

    /// Drive two sockets against each other until both go quiet.
    /// Returns the number of segments exchanged.
    fn pump(now: SimTime, a: &mut TcpSocket, b: &mut TcpSocket) -> usize {
        let mut n = 0;
        loop {
            let mut progressed = false;
            while let Some(seg) = a.poll(now) {
                b.handle_segment(now, &seg);
                n += 1;
                progressed = true;
                assert!(n < 100_000, "pump livelock: a->b {seg:?}");
            }
            while let Some(seg) = b.poll(now) {
                a.handle_segment(now, &seg);
                n += 1;
                progressed = true;
                assert!(n < 100_000, "pump livelock: b->a {seg:?}");
            }
            if !progressed {
                return n;
            }
        }
    }

    fn established_pair() -> (TcpSocket, TcpSocket) {
        let (mut c, _) = pair();
        let now = SimTime::ZERO;
        let syn = c.poll(now).expect("SYN");
        assert!(syn.flags.syn && !syn.flags.ack);
        let mut s = TcpSocket::accept(TcpConfig::default(), &syn, SeqNum(9000), now, vec![]);
        pump(now, &mut c, &mut s);
        assert_eq!(c.state(), TcpState::Established);
        assert_eq!(s.state(), TcpState::Established);
        (c, s)
    }

    #[test]
    fn three_way_handshake() {
        let (c, s) = established_pair();
        assert_eq!(c.irs, SeqNum(9000));
        assert_eq!(s.irs, SeqNum(1000));
    }

    #[test]
    fn data_transfer_and_ack() {
        let (mut c, mut s) = established_pair();
        assert_eq!(c.send(b"hello world"), 11);
        pump(SimTime::from_millis(1), &mut c, &mut s);
        let got = s.read(100).unwrap();
        assert_eq!(&got[..], b"hello world");
        assert_eq!(c.bytes_in_flight(), 0); // acked
        assert_eq!(c.stats.bytes_acked, 11);
    }

    #[test]
    fn mss_respected() {
        let (mut c, mut s) = established_pair();
        let data = vec![7u8; 5000];
        assert_eq!(c.send(&data), 5000);
        let mut sizes = Vec::new();
        let now = SimTime::from_millis(1);
        while let Some(seg) = c.poll(now) {
            sizes.push(seg.payload.len());
            s.handle_segment(now, &seg);
        }
        assert!(sizes.iter().all(|&l| l <= 1460));
        assert_eq!(sizes.iter().sum::<usize>(), 5000);
    }

    #[test]
    fn retransmit_on_rto() {
        let (mut c, mut s) = established_pair();
        c.send(b"lost data");
        let seg = c.poll(SimTime::from_millis(1)).unwrap(); // dropped!
        assert_eq!(&seg.payload[..], b"lost data");
        assert!(c.poll(SimTime::from_millis(2)).is_none());
        // Fire the RTO.
        let rto_at = c.poll_at(SimTime::from_millis(2)).unwrap();
        let retx = c.poll(rto_at).expect("retransmission");
        assert_eq!(&retx.payload[..], b"lost data");
        assert_eq!(c.telemetry.counter(CounterId::TcpRtos), 1);
        s.handle_segment(rto_at, &retx);
        pump(rto_at, &mut c, &mut s);
        assert_eq!(&s.read(100).unwrap()[..], b"lost data");
    }

    #[test]
    fn rto_backoff_doubles() {
        let (mut c, _s) = established_pair();
        c.send(b"x");
        let _ = c.poll(SimTime::from_millis(1)).unwrap();
        let t1 = c.poll_at(SimTime::from_millis(1)).unwrap();
        let _ = c.poll(t1).unwrap(); // first RTO retransmission
        let t2 = c.poll_at(t1).unwrap();
        assert!(t2 - t1 >= (t1 - SimTime::from_millis(1)), "backoff grew");
        assert_eq!(c.telemetry.counter(CounterId::TcpRtos), 1);
    }

    #[test]
    fn rto_backoff_capped_at_max_rto() {
        let max_rto = Duration::from_secs(5);
        let cfg = TcpConfig {
            max_rto,
            ..TcpConfig::default()
        };
        let now = SimTime::ZERO;
        let mut c = TcpSocket::client(cfg.clone(), tuple(), SeqNum(1), now, vec![]);
        let syn = c.poll(now).unwrap();
        let mut s = TcpSocket::accept(cfg, &syn, SeqNum(500), now, vec![]);
        pump(now, &mut c, &mut s);

        c.send(b"x");
        let _ = c.poll(SimTime::from_millis(1)).unwrap();
        // Fire RTO after RTO without ever delivering the retransmission:
        // the backoff multiplier climbs, but rto() must stay clamped.
        let mut t = SimTime::from_millis(1);
        for _ in 0..12 {
            t = c.poll_at(t).unwrap();
            while c.poll(t).is_some() {}
            assert!(c.rto() <= max_rto, "rto {:?} exploded past cap", c.rto());
        }
        // Deep in backoff the product would be min_rto << 12 ≈ 819 s
        // without the clamp; pin the cap exactly.
        assert_eq!(c.rto(), max_rto);
        assert!(c.consecutive_rtos() >= 10);
    }

    #[test]
    fn fast_retransmit_on_triple_dupack() {
        let (mut c, mut s) = established_pair();
        let now = SimTime::from_millis(1);
        c.send(&vec![1u8; 1460 * 5]);
        let mut segs = Vec::new();
        while let Some(seg) = c.poll(now) {
            segs.push(seg);
        }
        assert_eq!(segs.len(), 5);
        // Deliver all but the first: three dup ACKs come back.
        let mut dups = Vec::new();
        for seg in &segs[1..] {
            s.handle_segment(now, seg);
            while let Some(a) = s.poll(now) {
                dups.push(a);
            }
        }
        assert!(dups.len() >= 3);
        for d in &dups {
            c.handle_segment(now, d);
        }
        let retx = c.poll(now).expect("fast retransmit");
        assert_eq!(retx.seq, segs[0].seq);
        assert_eq!(c.telemetry.counter(CounterId::TcpFastRetransmits), 1);
        assert_eq!(c.telemetry.counter(CounterId::TcpRtos), 0);
    }

    #[test]
    fn flow_control_blocks_sender() {
        let cfg = TcpConfig {
            recv_buf: 2000, // tiny receive buffer
            ..TcpConfig::default()
        };
        let now = SimTime::ZERO;
        let mut c = TcpSocket::client(TcpConfig::default(), tuple(), SeqNum(1), now, vec![]);
        let syn = c.poll(now).unwrap();
        let mut s = TcpSocket::accept(cfg, &syn, SeqNum(500), now, vec![]);
        pump(now, &mut c, &mut s);

        c.send(&vec![9u8; 10_000]);
        pump(SimTime::from_millis(1), &mut c, &mut s);
        // Receiver buffer is full; sender must stop at the window.
        assert!(s.recv_buffered() <= 2000);
        assert!(c.bytes_in_flight() == 0);
        assert!(c.bytes_queued() > 0, "unsent data remains queued");
        // Application reads; window reopens; transfer completes.
        let mut total = 0;
        for _ in 0..20 {
            while let Some(b) = s.read(10_000) {
                total += b.len();
            }
            // Window-update ACK flows back.
            pump(SimTime::from_millis(2), &mut c, &mut s);
        }
        while let Some(b) = s.read(10_000) {
            total += b.len();
        }
        assert_eq!(total, 10_000);
    }

    #[test]
    fn zero_window_probe_reopens() {
        let cfg = TcpConfig {
            recv_buf: 1000,
            ..TcpConfig::default()
        };
        let now = SimTime::ZERO;
        let mut c = TcpSocket::client(TcpConfig::default(), tuple(), SeqNum(1), now, vec![]);
        let syn = c.poll(now).unwrap();
        let mut s = TcpSocket::accept(cfg, &syn, SeqNum(500), now, vec![]);
        pump(now, &mut c, &mut s);

        c.send(&vec![1u8; 3000]);
        pump(SimTime::from_millis(1), &mut c, &mut s);
        assert_eq!(s.recv_buffered(), 1000);
        assert!(c.bytes_queued() > 0);
        // Reader drains while the sender sees a zero window; without the
        // persist timer this would deadlock if the window update is lost.
        s.read(10_000);
        // Drop the window update on the floor (simulate loss).
        while s.poll(SimTime::from_millis(2)).is_some() {}
        // The persist timer eventually probes and discovers the open window.
        let probe_at = c.poll_at(SimTime::from_millis(3)).expect("persist armed");
        let probe = c.poll(probe_at).expect("probe segment");
        s.handle_segment(probe_at, &probe);
        pump(probe_at, &mut c, &mut s);
        assert!(s.recv_buffered() > 0, "transfer resumed after probe");
        assert!(c.telemetry.counter(CounterId::TcpZeroWindowProbes) >= 1);
    }

    /// Client and server joined by a fixed one-way delay and stepped in
    /// 1 ms ticks, so ACKs arrive while later data is still in flight —
    /// what `pump`'s zero-delay exchange never produces.
    struct Wire {
        c: TcpSocket,
        s: TcpSocket,
        delay: Duration,
        to_s: std::collections::VecDeque<(SimTime, TcpSegment)>,
        to_c: std::collections::VecDeque<(SimTime, TcpSegment)>,
        /// `(payload len, bytes in flight before it, it ends the queue)`
        /// for every new-data segment the client emitted.
        sent: Vec<(usize, u32, bool)>,
    }

    impl Wire {
        fn new(server_cfg: TcpConfig, delay: Duration) -> Wire {
            let now = SimTime::ZERO;
            let mut c = TcpSocket::client(TcpConfig::default(), tuple(), SeqNum(1), now, vec![]);
            let syn = c.poll(now).unwrap();
            let mut s = TcpSocket::accept(server_cfg, &syn, SeqNum(500), now, vec![]);
            pump(now, &mut c, &mut s);
            Wire {
                c,
                s,
                delay,
                to_s: Default::default(),
                to_c: Default::default(),
                sent: Vec::new(),
            }
        }

        /// Send `data` client → server, the server's application reading
        /// at most `read_max` bytes per millisecond; returns what it read.
        fn transfer(&mut self, data: &[u8], read_max: usize) -> Vec<u8> {
            assert_eq!(self.c.send(data), data.len());
            let mut got = Vec::new();
            let mut now = SimTime::from_millis(1);
            while got.len() < data.len() {
                let at = got.len();
                assert!(now < SimTime::from_secs(120), "transfer stalled at {at}");
                self.tick(now);
                if let Some(b) = self.s.read(read_max) {
                    got.extend_from_slice(&b);
                }
                now += Duration::from_millis(1);
            }
            got
        }

        /// Deliver what is due at `now`, then drain both sockets.
        fn tick(&mut self, now: SimTime) {
            while self.to_s.front().is_some_and(|(at, _)| *at <= now) {
                let (_, seg) = self.to_s.pop_front().unwrap();
                self.s.handle_segment(now, &seg);
            }
            while self.to_c.front().is_some_and(|(at, _)| *at <= now) {
                let (_, seg) = self.to_c.pop_front().unwrap();
                self.c.handle_segment(now, &seg);
            }
            loop {
                // The contract `poll_at` and `poll` share: a socket that
                // says "poll me right now" has a segment to give.
                let promised = self.c.poll_at(now) == Some(SimTime::ZERO);
                let in_flight = self.c.bytes_in_flight();
                let retx_before = self.c.telemetry.counter(CounterId::TcpRetransmittedSegs);
                let Some(seg) = self.c.poll(now) else {
                    assert!(!promised, "client promised output at {now:?}, gave none");
                    break;
                };
                if !seg.payload.is_empty()
                    && self.c.telemetry.counter(CounterId::TcpRetransmittedSegs) == retx_before
                {
                    let last = seg.seq_end() == self.c.send_q.end_seq();
                    self.sent.push((seg.payload.len(), in_flight, last));
                }
                self.to_s.push_back((now + self.delay, seg));
            }
            loop {
                let promised = self.s.poll_at(now) == Some(SimTime::ZERO);
                let Some(seg) = self.s.poll(now) else {
                    assert!(!promised, "server promised output at {now:?}, gave none");
                    break;
                };
                self.to_c.push_back((now + self.delay, seg));
            }
        }
    }

    #[test]
    fn dribbling_reader_never_draws_a_partial_segment_while_data_is_in_flight() {
        // A 6000-byte receive buffer read 100 bytes per millisecond: every
        // ACK re-opens the window by a sliver while earlier segments are
        // still on the 5 ms wire.
        let cfg = TcpConfig {
            recv_buf: 6000,
            ..TcpConfig::default()
        };
        let mut w = Wire::new(cfg, Duration::from_millis(5));
        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(
            w.transfer(&data, 100),
            data,
            "stream must arrive byte-exact"
        );

        let mss = w.c.mss();
        let partials: Vec<_> = w
            .sent
            .iter()
            .filter(|&&(len, _, last)| len < mss && !last)
            .collect();
        // The window really was the limit: the rule had something to do.
        assert!(!partials.is_empty());
        for &&(len, in_flight, _) in &partials {
            assert_eq!(
                in_flight, 0,
                "{len}-byte fragment sent with {in_flight} bytes in flight"
            );
        }
    }

    #[test]
    fn sub_mss_tail_goes_out_at_once() {
        // Two full segments and a 500-byte tail, all inside the initial
        // window: the tail is the whole remaining queue, not a silly
        // fragment, and must not wait for an ACK (no Nagle).
        let (mut c, _s) = established_pair();
        c.send(&vec![3u8; 2 * 1460 + 500]);
        let now = SimTime::from_millis(1);
        let sizes: Vec<usize> = std::iter::from_fn(|| c.poll(now))
            .map(|seg| seg.payload.len())
            .collect();
        assert_eq!(sizes, [1460, 1460, 500]);
    }

    #[test]
    fn idle_sender_fills_a_window_smaller_than_one_segment() {
        // Peer window 1000 < MSS with nothing in flight: no ACK is coming
        // that could widen it, so waiting would deadlock. Send what fits.
        let cfg = TcpConfig {
            recv_buf: 1000,
            ..TcpConfig::default()
        };
        let mut w = Wire::new(cfg, Duration::from_millis(5));
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 241) as u8).collect();
        assert_eq!(w.transfer(&data, 10_000), data);
        assert_eq!(w.sent[0], (1000, 0, false), "first fills the window");
        assert!(w.sent.iter().all(|&(len, _, _)| len <= 1000));
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut c, mut s) = established_pair();
        let now = SimTime::from_millis(1);
        c.send(b"bye");
        c.close();
        pump(now, &mut c, &mut s);
        assert_eq!(&s.read(10).unwrap()[..], b"bye");
        assert!(s.stream_fin());
        assert_eq!(s.state(), TcpState::CloseWait);
        assert_eq!(c.state(), TcpState::FinWait2);
        s.close();
        pump(now, &mut c, &mut s);
        assert_eq!(s.state(), TcpState::Closed);
        assert_eq!(c.state(), TcpState::TimeWait);
        // TIME_WAIT expires.
        let tw = c.poll_at(now).unwrap();
        c.poll(tw);
        assert_eq!(c.state(), TcpState::Closed);
    }

    /// The peer's FIN stays seen through a reset after it; an orphan whose
    /// FIN is never acknowledged goes out twice more, then closes without
    /// error and without having seen a FIN.
    #[test]
    fn a_reset_keeps_the_peer_fin_and_an_abandoned_orphan_never_had_one() {
        let (mut c, mut s) = established_pair();
        let now = SimTime::from_millis(1);
        c.close();
        pump(now, &mut c, &mut s);
        assert_eq!(s.state(), TcpState::CloseWait);
        c.abort();
        let rst = c.poll(now).expect("RST out");
        s.handle_segment(now, &rst);
        assert!(s.is_error());
        assert!(s.stream_fin(), "the FIN arrived before the reset");

        let (mut c, _s) = established_pair();
        c.close();
        let _lost = c.poll(now).expect("FIN");
        assert_eq!(c.state(), TcpState::FinWait1);
        c.orphan();
        let mut t = now;
        let mut fins = 0;
        while let Some(at) = c.poll_at(t) {
            t = t.max(at);
            while let Some(seg) = c.poll(t) {
                assert!(seg.flags.fin);
                fins += 1;
            }
        }
        assert_eq!(fins, 2);
        assert_eq!(c.state(), TcpState::Closed);
        assert!(!c.is_error());
        assert!(!c.stream_fin(), "no FIN ever came");
    }

    #[test]
    fn rst_tears_down() {
        let (mut c, mut s) = established_pair();
        c.abort();
        let rst = c.poll(SimTime::from_millis(1)).expect("RST out");
        assert!(rst.flags.rst);
        s.handle_segment(SimTime::from_millis(1), &rst);
        assert!(s.is_error());
        assert_eq!(s.state(), TcpState::Closed);
    }

    #[test]
    fn syn_retry_drops_extension_options() {
        use mptcp_packet::MptcpOption;
        let cfg = TcpConfig::default();
        let mp = TcpOption::Mptcp(MptcpOption::MpCapable {
            version: 0,
            checksum_required: true,
            sender_key: 42,
            receiver_key: None,
        });
        let mut c = TcpSocket::client(cfg, tuple(), SeqNum(1), SimTime::ZERO, vec![mp]);
        let syn1 = c.poll(SimTime::ZERO).unwrap();
        assert!(syn1.mptcp_option().is_some());
        // SYN lost; RTO fires; the retry must omit MP_CAPABLE (§3.1).
        let t = c.poll_at(SimTime::ZERO).unwrap();
        let syn2 = c.poll(t).expect("SYN retransmission");
        assert!(syn2.flags.syn);
        assert!(syn2.mptcp_option().is_none());
        assert_eq!(c.telemetry.counter(CounterId::TcpRtos), 1);
    }

    /// The owner's DATA_ACK rides a data segment, a pure ACK and a FIN
    /// alike, in the room `poll_with_room` reserved: appending it moves
    /// no option list.
    #[test]
    fn carry_options_ride_every_segment() {
        use mptcp_packet::MptcpOption;
        let (mut c, mut s) = established_pair();
        let dack = TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: Some(777),
            mapping: None,
            data_fin: false,
        });
        let carry = |seg: &mut TcpSegment| {
            let at = seg.options.as_ptr();
            seg.options.push(dack.clone());
            assert_eq!(seg.options.as_ptr(), at, "the option list was reallocated");
        };
        c.send(b"ping");
        let now = SimTime::from_millis(1);
        let mut seg = c.poll_with_room(now, 1).expect("data");
        assert_eq!(&seg.payload[..], b"ping");
        carry(&mut seg);
        s.handle_segment(now, &seg);
        let mut ack = s.poll_with_room(now, 1).expect("ACK");
        assert!(ack.payload.is_empty() && !ack.flags.fin);
        carry(&mut ack);
        assert!(ack.options.contains(&dack), "pure ACK carries the DATA_ACK");
        c.handle_segment(now, &ack);
        c.close();
        let mut fin = c.poll_with_room(now, 1).expect("FIN");
        assert!(fin.flags.fin);
        carry(&mut fin);
        s.handle_segment(now, &fin);
        assert!(s.stream_fin());
    }

    #[test]
    fn window_override_advertised() {
        let (mut c, mut s) = established_pair();
        s.set_window_override(Some(12345));
        s.request_ack();
        let ack = s.poll(SimTime::from_millis(1)).unwrap();
        assert_eq!(ack.window, 12345);
        c.handle_segment(SimTime::from_millis(1), &ack);
        assert_eq!(c.peer_window(), 12345);
    }

    #[test]
    fn chunk_options_attached_and_retransmitted() {
        use mptcp_packet::{DssMapping, MptcpOption};
        let (mut c, mut _s) = established_pair();
        let dss = TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: None,
            mapping: Some(DssMapping {
                dsn: 1,
                subflow_seq: 1,
                len: 4,
                checksum: None,
            }),
            data_fin: false,
        });
        assert!(c.send_chunk(Bytes::from_static(b"data"), vec![dss.clone()]));
        let now = SimTime::from_millis(1);
        let seg = c.poll(now).unwrap();
        assert!(seg.options.contains(&dss));
        // Lost: the RTO retransmission must carry the same mapping.
        let t = c.poll_at(now).unwrap();
        let retx = c.poll(t).expect("retransmission");
        assert!(retx.options.contains(&dss));
        assert_eq!(retx.payload, seg.payload);
    }

    #[test]
    fn out_of_order_generates_dupacks_and_sack() {
        let (mut c, mut s) = established_pair();
        let now = SimTime::from_millis(1);
        c.send(&vec![3u8; 1460 * 3]);
        let s1 = c.poll(now).unwrap();
        let s2 = c.poll(now).unwrap();
        let s3 = c.poll(now).unwrap();
        s.handle_segment(now, &s2); // out of order
        let dup = s.poll(now).expect("dup ACK");
        assert_eq!(dup.ack, s1.seq);
        assert!(dup.options.iter().any(|o| matches!(o, TcpOption::Sack(_))));
        s.handle_segment(now, &s1);
        s.handle_segment(now, &s3);
        let cum = s.poll(now).expect("cumulative ACK");
        assert_eq!(cum.ack, s3.seq_end());
    }

    #[test]
    fn rtt_estimated_from_timestamps() {
        let (mut c, mut s) = established_pair();
        c.send(b"sample");
        let t0 = SimTime::from_millis(10);
        let seg = c.poll(t0).unwrap();
        let t1 = t0 + Duration::from_millis(30);
        s.handle_segment(t1, &seg);
        let ack = s.poll(t1).unwrap();
        c.handle_segment(t1 + Duration::from_millis(30), &ack);
        let srtt = c.srtt().expect("rtt sampled");
        assert!(
            srtt >= Duration::from_millis(59) && srtt <= Duration::from_millis(62),
            "srtt = {srtt:?}"
        );
    }

    #[test]
    fn next_tx_offset_is_one_based() {
        let (mut c, _s) = established_pair();
        assert_eq!(c.next_tx_offset(), 1);
        c.send(b"abcde");
        assert_eq!(c.next_tx_offset(), 6);
    }

    /// A bulk transfer from `c` to `s` until `end`, over a path of `rate`
    /// bytes/s behind a `queue`-byte drop-tail buffer and `delay` each way
    /// (ACKs unqueued), stepped every 100 µs; the receiver reads at once.
    /// Returns the most bytes the receiver read in one `window`.
    fn bulk_over_a_bottleneck(
        c: &mut TcpSocket,
        s: &mut TcpSocket,
        (rate, queue, delay): (u64, u64, Duration),
        end: SimTime,
        window: Duration,
    ) -> u64 {
        let mut wire: std::collections::BTreeMap<(SimTime, u64), (bool, TcpSegment)> =
            Default::default();
        let (mut busy_until, mut order, mut now) = (SimTime::ZERO, 0, SimTime::ZERO);
        let (mut read, mut reads) = (0u64, std::collections::VecDeque::new());
        let mut best = 0;
        while now < end {
            while let Some(entry) = wire.first_entry() {
                if entry.key().0 > now {
                    break;
                }
                let (to_server, seg) = entry.remove();
                let to = if to_server { &mut *s } else { &mut *c };
                to.handle_segment(now, &seg);
            }
            while c.send_space() >= 1460 {
                c.send(&[7u8; 1460]);
            }
            while let Some(seg) = c.poll(now) {
                let backlog = busy_until.since(now).as_nanos() as u64 * rate / 1_000_000_000;
                if backlog + seg.payload.len() as u64 > queue {
                    continue; // dropped at the bottleneck
                }
                let tx = Duration::from_nanos(seg.payload.len() as u64 * 1_000_000_000 / rate);
                busy_until = busy_until.max(now) + tx;
                order += 1;
                wire.insert((busy_until + delay, order), (true, seg));
            }
            while let Some(seg) = s.poll(now) {
                order += 1;
                wire.insert((now + delay, order), (false, seg));
            }
            while let Some(b) = s.read(usize::MAX) {
                read += b.len() as u64;
            }
            reads.push_back((now, read));
            while reads.front().is_some_and(|&(t, _)| now.since(t) > window) {
                reads.pop_front();
            }
            best = best.max(read - reads.front().map_or(0, |&(_, r)| r));
            now += Duration::from_micros(100);
        }
        best
    }

    #[test]
    fn autotuned_buffers_track_cwnd_and_bytes_per_rtt() {
        let cfg = TcpConfig {
            autotune: true,
            recv_buf: 1 << 20,
            send_buf: 1 << 20,
            ..TcpConfig::default()
        };
        let now = SimTime::ZERO;
        let mut c = TcpSocket::client(cfg.clone(), tuple(), SeqNum(1), now, vec![]);
        let syn = c.poll(now).unwrap();
        let mut s = TcpSocket::accept(cfg, &syn, SeqNum(500), now, vec![]);
        pump(now, &mut c, &mut s);
        // 80 Mbit/s, 10 ms round trip (100 KB in flight), 50 KB of queue.
        let path = (10_000_000, 50_000, Duration::from_millis(5));
        let rtt = Duration::from_millis(15);
        let per_rtt = bulk_over_a_bottleneck(&mut c, &mut s, path, SimTime::from_secs(3), rtt);
        // The sender holds what its window needs, twice over.
        assert_eq!(c.send_capacity(), 2 * c.cwnd() as usize);
        assert!(c.send_capacity() < 1 << 19, "{}", c.send_capacity());
        // The receiver's buffer is twice what one round trip brings in,
        // far from its 1 MB cap.
        let (got, rcv_rtt) = s.rcv_rate().expect("the receiver timed a round trip");
        assert!(
            rcv_rtt >= Duration::from_millis(10) && rcv_rtt <= rtt,
            "{rcv_rtt:?}"
        );
        let cap = s.recv_q.capacity();
        assert!(
            cap >= 2 * got && cap as u64 <= 2 * per_rtt,
            "{cap} vs {got}, {per_rtt}"
        );
        assert!(cap > 100_000 && cap < 1 << 19, "{cap}");
    }

    #[test]
    fn mptcp_options_harvested_from_segments() {
        use mptcp_packet::MptcpOption;
        let (mut c, mut s) = established_pair();
        let now = SimTime::from_millis(1);
        c.send(b"x");
        let seg = c.poll(now).unwrap();
        s.handle_segment(now, &seg);
        let mut ack = s.poll(now).unwrap();
        ack.options.push(TcpOption::Mptcp(MptcpOption::Dss {
            data_ack: Some(55),
            mapping: None,
            data_fin: false,
        }));
        c.handle_segment(now, &ack);
        let mut opts = Vec::new();
        c.take_rx_mptcp(&mut opts);
        assert_eq!(opts.len(), 1);
        assert!(matches!(
            opts[0],
            MptcpOption::Dss {
                data_ack: Some(55),
                ..
            }
        ));
        c.take_rx_mptcp(&mut opts);
        assert_eq!(opts.len(), 1, "drained");
    }

    #[test]
    fn connection_times_out_after_max_rtos() {
        let (mut c, _s) = established_pair();
        c.send(b"into the void");
        let mut now = SimTime::from_millis(1);
        let _ = c.poll(now);
        for _ in 0..40 {
            match c.poll_at(now) {
                Some(t) => {
                    now = now.max(t);
                    while c.poll(now).is_some() {}
                }
                None => break,
            }
            if c.is_error() {
                break;
            }
        }
        assert!(c.is_error(), "connection should give up after ~15 RTOs");
    }
}
