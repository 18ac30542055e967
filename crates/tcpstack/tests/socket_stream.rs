//! Golden over every segment a `TcpSocket` pair puts on a scripted wire.
//!
//! One client and one server socket are joined by a wire the test owns:
//! a one-way delay per direction, optionally a bottleneck rate with an
//! unbounded queue in front of it, and a script that decides the fate of
//! each emitted segment (pass, drop, or hold it back so later ones
//! overtake). Everything is event driven on `SimTime`: the loop wakes at
//! the next delivery, the next `poll_at` deadline of either socket, or
//! the instant the scenario's application asked for, and nowhere else.
//!
//! Every emitted segment — dropped ones included — is folded, in emission
//! order, as `(instant, direction, advertised window, encoded bytes)` into
//! FNV-1a; each scenario pins the segment count, the digest and both
//! sockets' `CounterId::Tcp*` (and M4) counters. The scenarios walk the
//! socket's loss recovery, timers, state machine and segment building:
//! what each one reaches is said above it.
//!
//! Only the socket's driving surface is used (`client`, `accept`,
//! `handle_segment`, `poll`, `poll_at`, `send`, `send_chunk`, `read`,
//! `close`, `abort` and read-only accessors), so the file does not care
//! how the socket is built inside. The options MPTCP adds to a segment
//! are attached by the wire itself: a carried one, then the queued
//! one-shots, trimmed from the tail to 40 bytes. That fill is a frozen
//! copy of the policy the `mptcp` crate's `Subflow::fill` applies today
//! (which carries up to two options); it does not run `Subflow::fill`,
//! whose rule `subflow::tests::fill_table` pins, so a change there does
//! not show here.

use std::collections::BTreeMap;

use bytes::Bytes;
use mptcp_netsim::time::min_deadline;
use mptcp_netsim::{Duration, SimTime};
use mptcp_packet::mptcp_opts::AdvertisedAddr;
use mptcp_packet::options::{options_wire_len, MAX_OPTIONS_LEN};
use mptcp_packet::{
    DssMapping, Endpoint, FourTuple, MptcpOption, SeqNum, TcpFlags, TcpOption, TcpSegment,
};
use mptcp_tcpstack::{TcpConfig, TcpSocket, TcpState};
use mptcp_telemetry::CounterId;

// ----------------------------------------------------------------------
// The wire.
// ----------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    /// Client to server.
    Up,
    /// Server to client.
    Down,
}

/// What the script does with one emitted segment.
enum Fate {
    Pass,
    Drop,
    /// Deliver this much later than the wire alone would.
    Hold(Duration),
}

/// One emitted segment as the script sees it.
struct Emit<'a> {
    at: SimTime,
    dir: Dir,
    /// Index among the segments emitted in this direction, from 0.
    idx: u64,
    seg: &'a TcpSegment,
}

/// FNV-1a over everything either end emitted, plus the segment count.
struct Stream {
    hash: u64,
    segments: u64,
    scratch: Vec<u8>,
}

impl Stream {
    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn absorb(&mut self, now: SimTime, dir: Dir, seg: &TcpSegment) {
        self.segments += 1;
        self.fold(&now.0.to_le_bytes());
        self.fold(&[u8::from(dir == Dir::Down)]);
        // The 16-bit wire field saturates; the simulated window does not.
        self.fold(&seg.window.to_le_bytes());
        let mut wire = std::mem::take(&mut self.scratch);
        wire.clear();
        seg.encode_into(0, &mut wire)
            .expect("the socket emits segments that fit the option space");
        self.fold(&wire);
        self.scratch = wire;
    }
}

const COUNTERS: [CounterId; 5] = [
    CounterId::TcpRtos,
    CounterId::TcpFastRetransmits,
    CounterId::TcpRetransmittedSegs,
    CounterId::TcpZeroWindowProbes,
    CounterId::M4CwndCaps,
];

struct Wire {
    now: SimTime,
    c: TcpSocket,
    /// Created by the first SYN that gets through.
    s: Option<TcpSocket>,
    server_cfg: TcpConfig,
    server_syn_options: Vec<TcpOption>,
    delay: Duration,
    /// Bottleneck rate in bytes per second, each direction its own queue.
    rate: Option<u64>,
    busy_until: [SimTime; 2],
    in_flight: BTreeMap<(SimTime, u64), (Dir, TcpSegment)>,
    order: u64,
    emitted: [u64; 2],
    /// The newest segment the client emitted (scenarios forge from it).
    last_up: Option<TcpSegment>,
    /// Per direction, an option every synchronized segment carries:
    /// after a data segment's mapping, else right after the timestamps.
    carried: [Option<TcpOption>; 2],
    /// Per direction, options for the next synchronized segment only.
    oneshots: [Vec<TcpOption>; 2],
    /// The instant of the newest loop turn.
    last_turn: SimTime,
    stream: Stream,
}

fn tuple() -> FourTuple {
    FourTuple {
        src: Endpoint::new(0x0a00_0001, 40_000),
        dst: Endpoint::new(0x0a00_0002, 80),
    }
}

impl Wire {
    fn new(client_cfg: TcpConfig, server_cfg: TcpConfig, delay: Duration) -> Wire {
        Wire::with_syn_options(client_cfg, server_cfg, delay, SeqNum(1_000), vec![], vec![])
    }

    fn with_syn_options(
        client_cfg: TcpConfig,
        server_cfg: TcpConfig,
        delay: Duration,
        client_iss: SeqNum,
        client_syn_options: Vec<TcpOption>,
        server_syn_options: Vec<TcpOption>,
    ) -> Wire {
        Wire {
            now: SimTime::ZERO,
            c: TcpSocket::client(
                client_cfg,
                tuple(),
                client_iss,
                SimTime::ZERO,
                client_syn_options,
            ),
            s: None,
            server_cfg,
            server_syn_options,
            delay,
            rate: None,
            busy_until: [SimTime::ZERO; 2],
            in_flight: BTreeMap::new(),
            order: 0,
            emitted: [0; 2],
            last_up: None,
            carried: [None, None],
            oneshots: [Vec::new(), Vec::new()],
            last_turn: SimTime::ZERO,
            stream: Stream {
                hash: 0xcbf2_9ce4_8422_2325,
                segments: 0,
                scratch: Vec::new(),
            },
        }
    }

    fn server(&mut self) -> &mut TcpSocket {
        self.s.as_mut().expect("a SYN reached the server")
    }

    /// Queue `opts` for the next segment `dir` emits, and ask its socket
    /// for a pure ACK so they leave even with no data pending.
    fn signal(&mut self, dir: Dir, opts: impl IntoIterator<Item = TcpOption>) {
        self.oneshots[dir as usize].extend(opts);
        match dir {
            Dir::Up => self.c.request_ack(),
            Dir::Down => self.server().request_ack(),
        }
    }

    /// Poll `dir`'s socket for one segment, with room reserved for that
    /// direction's MPTCP options, and, unless it is a SYN or an RST, fill
    /// them in by the wire's frozen copy of the subflow policy (see the
    /// module doc).
    fn poll(&mut self, dir: Dir) -> Option<TcpSegment> {
        let d = dir as usize;
        let room = self.carried[d].iter().count() + self.oneshots[d].len();
        let sock = match dir {
            Dir::Up => &mut self.c,
            Dir::Down => self.s.as_mut()?,
        };
        let mut seg = sock.poll_with_room(self.now, room)?;
        if seg.flags.syn || seg.flags.rst {
            return Some(seg);
        }
        let opts = &mut seg.options;
        if let Some(opt) = self.carried[d].clone() {
            let at = if seg.payload.is_empty() {
                1
            } else {
                opts.len()
            };
            opts.insert(at, opt);
        }
        opts.append(&mut self.oneshots[d]);
        while options_wire_len(opts) > MAX_OPTIONS_LEN {
            opts.pop();
        }
        Some(seg)
    }

    fn deliver(&mut self, dir: Dir, seg: TcpSegment) {
        match (dir, &mut self.s) {
            (Dir::Down, _) => self.c.handle_segment(self.now, &seg),
            (Dir::Up, Some(s)) => s.handle_segment(self.now, &seg),
            (Dir::Up, None) if seg.flags.syn && !seg.flags.ack => {
                self.s = Some(TcpSocket::accept(
                    self.server_cfg.clone(),
                    &seg,
                    SeqNum(0x7fff_f000),
                    self.now,
                    self.server_syn_options.clone(),
                ));
            }
            (Dir::Up, None) => {}
        }
    }

    fn emit(&mut self, dir: Dir, seg: TcpSegment, fate: &mut dyn FnMut(&Emit) -> Fate) {
        let d = dir as usize;
        let idx = self.emitted[d];
        self.emitted[d] += 1;
        self.stream.absorb(self.now, dir, &seg);
        if dir == Dir::Up {
            self.last_up = Some(seg.clone());
        }
        let extra = match fate(&Emit {
            at: self.now,
            dir,
            idx,
            seg: &seg,
        }) {
            Fate::Drop => return,
            Fate::Pass => Duration::ZERO,
            Fate::Hold(extra) => extra,
        };
        let sent = match self.rate {
            None => self.now,
            Some(rate) => {
                let bytes =
                    40 + mptcp_packet::options::options_wire_len(&seg.options) + seg.payload.len();
                let start = self.busy_until[d].max(self.now);
                let done = start + Duration::from_nanos(bytes as u64 * 1_000_000_000 / rate);
                self.busy_until[d] = done;
                done
            }
        };
        self.order += 1;
        self.in_flight
            .insert((sent + self.delay + extra, self.order), (dir, seg));
    }

    /// Run the event loop up to and including `until`. `app` runs on
    /// every turn, after deliveries and before the sockets are drained,
    /// and may name the next instant it wants a turn at.
    fn run(
        &mut self,
        until: SimTime,
        fate: &mut dyn FnMut(&Emit) -> Fate,
        app: &mut dyn FnMut(&mut Wire) -> Option<SimTime>,
    ) {
        loop {
            self.last_turn = self.now;
            while let Some(entry) = self.in_flight.first_entry() {
                if entry.key().0 > self.now {
                    break;
                }
                let (dir, seg) = entry.remove();
                self.deliver(dir, seg);
            }
            let wake = app(self);
            assert!(wake.is_none_or(|t| t > self.now), "app must wake later");
            let mut polls = 0;
            while let Some(seg) = self.poll(Dir::Up) {
                self.emit(Dir::Up, seg, fate);
                polls += 1;
                assert!(polls < 100_000, "client never runs dry at {:?}", self.now);
            }
            while let Some(seg) = self.poll(Dir::Down) {
                self.emit(Dir::Down, seg, fate);
                polls += 1;
                assert!(polls < 100_000, "server never runs dry at {:?}", self.now);
            }
            // Both sockets were just polled dry, so a deadline that is not
            // in the future is a promise `poll` did not keep (an ACK wanted
            // before the handshake is over, say): nothing to wake for.
            let now = self.now;
            let timer = |sock: &TcpSocket| sock.poll_at(now).filter(|&t| t > now);
            let mut next = min_deadline(wake, self.in_flight.keys().next().map(|k| k.0));
            next = min_deadline(next, timer(&self.c));
            next = min_deadline(next, self.s.as_ref().and_then(timer));
            match next {
                Some(t) if t <= until => self.now = t,
                _ => break,
            }
        }
        self.now = until;
    }

    fn counters(sock: &TcpSocket) -> [u64; 5] {
        COUNTERS.map(|id| sock.telemetry.counter(id))
    }

    /// Compare with the pinned row; on a mismatch print the actual one.
    fn assert_pinned(&self, segments: u64, digest: u64, client: [u64; 5], server: [u64; 5]) {
        let got = (
            self.stream.segments,
            self.stream.hash,
            Wire::counters(&self.c),
            self.s.as_ref().map_or([0; 5], Wire::counters),
        );
        assert_eq!(
            got,
            (segments, digest, client, server),
            "the emitted stream moved; actual row: assert_pinned({}, {}, {:?}, {:?})",
            got.0,
            got.1,
            got.2,
            got.3
        );
    }
}

// ----------------------------------------------------------------------
// Applications and scripts the scenarios share.
// ----------------------------------------------------------------------

fn pattern(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i % 251) as u8 ^ (i >> 11) as u8)
        .collect()
}

/// A bottleneck slow enough that the segments of one burst arrive one
/// by one and each draws its own ACK: 1500 bytes take 1.2 ms.
const TEN_MBIT: u64 = 1_250_000;

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

fn pass(_: &Emit) -> Fate {
    Fate::Pass
}

fn idle(_: &mut Wire) -> Option<SimTime> {
    None
}

/// A bulk writer on the client and a reader on the server.
struct Bulk {
    data: Vec<u8>,
    written: usize,
    /// Close the client once everything is written, and the server once
    /// it has read to the client's FIN.
    close: bool,
    got: Vec<u8>,
}

impl Bulk {
    fn new(len: usize, close: bool) -> Bulk {
        Bulk {
            data: pattern(len),
            written: 0,
            close,
            got: Vec::new(),
        }
    }

    fn write(&mut self, w: &mut Wire) {
        if !w.c.is_established() {
            return;
        }
        self.written += w.c.send(&self.data[self.written..]);
        if self.close && self.written == self.data.len() {
            w.c.close();
        }
    }

    fn read(&mut self, w: &mut Wire) {
        let Some(s) = &mut w.s else { return };
        while let Some(b) = s.read(usize::MAX) {
            self.got.extend_from_slice(&b);
        }
        if self.close && s.stream_fin() {
            s.close();
        }
    }

    fn turn(&mut self, w: &mut Wire) -> Option<SimTime> {
        self.write(w);
        self.read(w);
        None
    }

    fn assert_delivered(&self) {
        assert_eq!(self.got.len(), self.data.len(), "bytes delivered");
        assert!(self.got == self.data, "stream arrived byte-exact");
    }
}

fn is_data(e: &Emit) -> bool {
    e.dir == Dir::Up && !e.seg.payload.is_empty()
}

fn dss(dsn: u64, subflow_seq: u32, len: u16) -> TcpOption {
    TcpOption::Mptcp(MptcpOption::Dss {
        data_ack: None,
        mapping: Some(DssMapping {
            dsn,
            subflow_seq,
            len,
            checksum: Some(0xbeef),
        }),
        data_fin: false,
    })
}

fn data_ack(ack: u64) -> TcpOption {
    TcpOption::Mptcp(MptcpOption::Dss {
        data_ack: Some(ack),
        mapping: None,
        data_fin: false,
    })
}

fn add_addr(port: Option<u16>) -> TcpOption {
    TcpOption::Mptcp(MptcpOption::AddAddr(AdvertisedAddr {
        addr_id: 3,
        addr: 0x0a00_0103,
        port,
    }))
}

fn mp_capable(sender_key: u64, receiver_key: Option<u64>) -> TcpOption {
    TcpOption::Mptcp(MptcpOption::MpCapable {
        version: 0,
        checksum_required: true,
        sender_key,
        receiver_key,
    })
}

// ----------------------------------------------------------------------
// Scenarios.
// ----------------------------------------------------------------------

/// 1 MiB over a clean 10 ms wire, the client's sequence space wrapping
/// mid-transfer; then FIN, FIN, TIME_WAIT and out.
#[test]
fn clean_bulk_is_pinned() {
    let mut w = Wire::with_syn_options(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
        SeqNum(u32::MAX - 300_000),
        vec![],
        vec![],
    );
    let mut app = Bulk::new(1 << 20, true);
    w.run(ms(20_000), &mut pass, &mut |w| app.turn(w));

    app.assert_delivered();
    assert_eq!(w.c.state(), TcpState::Closed);
    assert_eq!(w.server().state(), TcpState::Closed);
    assert!(!w.c.is_error() && !w.server().is_error());
    w.assert_pinned(753, 8647751614352363162, [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]);
}

/// Two segments of one window lost: the third duplicate ACK starts fast
/// retransmit, the partial ACK for the first hole retransmits the second
/// (NewReno), the full ACK deflates. No timer fires.
#[test]
fn fast_retransmit_across_two_holes_is_pinned() {
    let mut w = Wire::new(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
    );
    w.rate = Some(TEN_MBIT);
    let mut app = Bulk::new(300_000, false);
    let mut data_segs = 0;
    let mut fate = |e: &Emit| {
        if !is_data(e) {
            return Fate::Pass;
        }
        data_segs += 1;
        match data_segs {
            40 | 44 => Fate::Drop,
            _ => Fate::Pass,
        }
    };
    w.run(ms(5_000), &mut fate, &mut |w| app.turn(w));

    app.assert_delivered();
    assert_eq!(w.c.telemetry.counter(CounterId::TcpFastRetransmits), 1);
    assert_eq!(w.c.telemetry.counter(CounterId::TcpRetransmittedSegs), 2);
    assert_eq!(w.c.telemetry.counter(CounterId::TcpRtos), 0);
    w.assert_pinned(416, 7449672047991930538, [0, 1, 2, 0, 0], [0, 0, 0, 0, 0]);
}

/// A segment held back far enough that three later ones overtake it: the
/// receiver SACKs, the sender fast-retransmits what was only late, and
/// the original arrives as a duplicate.
#[test]
fn reordering_past_three_segments_is_pinned() {
    let mut w = Wire::new(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
    );
    w.rate = Some(TEN_MBIT);
    let mut app = Bulk::new(200_000, false);
    let mut data_segs = 0;
    let mut fate = |e: &Emit| {
        if !is_data(e) {
            return Fate::Pass;
        }
        data_segs += 1;
        match data_segs {
            // Overtaken by one segment: a lone duplicate ACK, no more.
            25 => Fate::Hold(Duration::from_micros(1_500)),
            60 => Fate::Hold(Duration::from_millis(6)),
            _ => Fate::Pass,
        }
    };
    w.run(ms(5_000), &mut fate, &mut |w| app.turn(w));

    app.assert_delivered();
    w.assert_pinned(424, 11056988461349528054, [0, 2, 74, 0, 0], [0, 0, 0, 0, 0]);
}

/// The client's direction goes dark for five seconds mid-transfer: the
/// retransmission timer fires with its backoff doubling up to a 1 s
/// `max_rto`, each firing restarts go-back-N from `snd_una` paced by the
/// collapsed window, and when the wire returns slow start walks the rest
/// of the outstanding window out.
#[test]
fn blackout_rto_and_go_back_n_is_pinned() {
    let cfg = TcpConfig {
        max_rto: Duration::from_secs(1),
        ..TcpConfig::default()
    };
    let mut w = Wire::new(cfg.clone(), cfg, Duration::from_millis(10));
    w.rate = Some(TEN_MBIT);
    let mut app = Bulk::new(600_000, false);
    let mut fate = |e: &Emit| match e.dir {
        Dir::Up if e.at >= ms(150) && e.at < ms(5_150) => Fate::Drop,
        _ => Fate::Pass,
    };
    w.run(ms(12_000), &mut fate, &mut |w| app.turn(w));

    app.assert_delivered();
    assert!(w.c.telemetry.counter(CounterId::TcpRtos) >= 6);
    assert_eq!(w.c.consecutive_rtos(), 0);
    w.assert_pinned(
        1016,
        5937460829143025972,
        [7, 0, 192, 0, 0],
        [0, 0, 0, 0, 0],
    );
}

/// The peer vanishes for good: sixteen timer firings, the backoff capped
/// by `max_rto`, then the socket gives up.
#[test]
fn dead_peer_gives_up_is_pinned() {
    let cfg = TcpConfig {
        max_rto: Duration::from_secs(1),
        ..TcpConfig::default()
    };
    let mut w = Wire::new(cfg.clone(), cfg, Duration::from_millis(10));
    let mut app = Bulk::new(100_000, false);
    let mut fate = |e: &Emit| match e.dir {
        Dir::Up if e.at >= ms(100) => Fate::Drop,
        _ => Fate::Pass,
    };
    w.run(ms(30_000), &mut fate, &mut |w| app.turn(w));

    assert!(w.c.is_error());
    assert_eq!(w.c.state(), TcpState::Closed);
    assert_eq!(w.c.telemetry.counter(CounterId::TcpRtos), 16);
    assert_eq!(w.c.poll_at(w.now), None, "a dead socket keeps no timer");
    // The firing that gives up emits nothing and leaves nothing to wake
    // for, so its instant is pinned here and not by the digest.
    assert_eq!(w.last_turn, ms(14_500));
    w.assert_pinned(81, 6483146541845430370, [16, 0, 15, 0, 0], [0, 0, 0, 0, 0]);
}

/// An 8 KB receive buffer whose reader sleeps for three seconds: the
/// window closes, the persist timer probes with its own backoff, and the
/// window update that follows the first read reopens it. The client
/// sends mapped chunks with a DATA_ACK carried on everything; a probe
/// carries no byte, so it carries the DATA_ACK and no mapping.
#[test]
fn zero_window_persist_and_reopen_is_pinned() {
    let server_cfg = TcpConfig {
        recv_buf: 8 * 1024,
        ..TcpConfig::default()
    };
    let mut w = Wire::new(TcpConfig::default(), server_cfg, Duration::from_millis(10));
    w.carried[Dir::Up as usize] = Some(data_ack(7));
    const CHUNK: usize = 1000;
    const CHUNKS: usize = 48;
    let data = pattern(CHUNK * CHUNKS);
    let mut queued = 0;
    let mut got = Vec::new();
    let mut app = |w: &mut Wire| {
        while queued < CHUNKS && w.c.is_established() {
            let off = queued * CHUNK;
            let chunk = Bytes::copy_from_slice(&data[off..off + CHUNK]);
            let map = dss(1 + off as u64, 1 + off as u32, CHUNK as u16);
            assert!(w.c.send_chunk(chunk, vec![map]));
            queued += 1;
        }
        if w.now < ms(3_000) {
            return Some(ms(3_000));
        }
        while let Some(b) = w.server().read(usize::MAX) {
            got.extend_from_slice(&b);
        }
        None
    };
    w.run(ms(20_000), &mut pass, &mut app);

    assert!(got == data, "stream arrived byte-exact");
    assert!(w.c.telemetry.counter(CounterId::TcpZeroWindowProbes) >= 3);
    assert_eq!(w.c.telemetry.counter(CounterId::TcpRtos), 0);
    w.assert_pinned(65, 14869374160502564291, [0, 0, 0, 3, 0], [0, 0, 0, 0, 0]);
}

/// The SYN is lost twice (the retry drops MP_CAPABLE, §3.1) and the
/// SYN/ACK three times, so the client's fourth SYN finds the server in
/// SYN_RECEIVED and is answered with the SYN/ACK again. Then a short
/// exchange and a clean close.
#[test]
fn lost_syn_and_syn_ack_is_pinned() {
    let mut w = Wire::with_syn_options(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
        SeqNum(77),
        vec![mp_capable(0x1111, None)],
        vec![mp_capable(0x2222, Some(0x1111))],
    );
    let mut app = Bulk::new(3_000, true);
    let mut syns = Vec::new();
    let mut fate = |e: &Emit| {
        if e.dir == Dir::Up && e.seg.flags.syn {
            syns.push((e.at, e.seg.mptcp_option().is_some()));
        }
        match (e.dir, e.idx) {
            (Dir::Up, 0 | 1) | (Dir::Down, 0..=2) => Fate::Drop,
            _ => Fate::Pass,
        }
    };
    w.run(ms(30_000), &mut fate, &mut |w| app.turn(w));

    app.assert_delivered();
    assert_eq!(
        syns,
        [
            (ms(0), true),
            (ms(1_000), false),
            (ms(3_000), false),
            (ms(7_000), false)
        ]
    );
    assert_eq!(w.c.state(), TcpState::Closed);
    assert_eq!(w.server().state(), TcpState::Closed);
    w.assert_pinned(14, 3524091800605182447, [3, 0, 0, 0, 0], [2, 0, 0, 0, 0]);
}

/// The first SYN is lost and the second wanders the network for 2.5 s, so
/// it reaches a server the third SYN has already brought to ESTABLISHED:
/// a duplicate SYN there is answered with a plain ACK.
#[test]
fn late_duplicate_syn_is_pinned() {
    let mut w = Wire::with_syn_options(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
        SeqNum(77),
        vec![mp_capable(0x1111, None)],
        vec![],
    );
    let mut app = Bulk::new(3_000, false);
    let mut fate = |e: &Emit| match (e.dir, e.idx) {
        (Dir::Up, 0) => Fate::Drop,
        (Dir::Up, 1) => Fate::Hold(Duration::from_millis(2_500)),
        _ => Fate::Pass,
    };
    w.run(ms(10_000), &mut fate, &mut |w| app.turn(w));

    app.assert_delivered();
    assert_eq!(w.server().state(), TcpState::Established);
    w.assert_pinned(9, 14888672677954734260, [2, 0, 0, 0, 0], [0, 0, 0, 0, 0]);
}

/// Both first FINs are lost and retransmitted by the timer; the client
/// then sits in TIME_WAIT for its eight seconds.
#[test]
fn lost_fins_and_time_wait_is_pinned() {
    let mut w = Wire::new(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
    );
    let mut app = Bulk::new(5_000, true);
    let mut fins_lost = [false; 2];
    let mut fate = |e: &Emit| {
        let lost = &mut fins_lost[e.dir as usize];
        if e.seg.flags.fin && !*lost {
            *lost = true;
            return Fate::Drop;
        }
        Fate::Pass
    };
    let mut fin_arrived = None;
    w.run(ms(20_000), &mut fate, &mut |w| {
        // The turn that delivers the server's FIN: TIME_WAIT starts here.
        if w.c.state() == TcpState::TimeWait && fin_arrived.is_none() {
            fin_arrived = Some(w.now);
        }
        app.turn(w)
    });

    app.assert_delivered();
    assert_eq!(w.server().state(), TcpState::Closed);
    assert_eq!(w.c.state(), TcpState::Closed);
    // The expiry emits nothing and is the last thing to happen.
    let fin_arrived = fin_arrived.expect("the client reached TIME_WAIT");
    assert_eq!(w.last_turn, fin_arrived + Duration::from_secs(8));
    w.assert_pinned(14, 15044466771975137623, [2, 0, 0, 0, 0], [1, 0, 0, 0, 0]);
}

/// Both ends close in the same instant: FIN_WAIT_1 → CLOSING → TIME_WAIT
/// on each, armed by the ACK of the FIN, and both gone eight seconds on.
#[test]
fn simultaneous_close_is_pinned() {
    let mut w = Wire::new(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
    );
    let mut app = Bulk::new(2_000, false);
    w.run(ms(1_000), &mut pass, &mut |w| app.turn(w));
    app.assert_delivered();

    w.c.close();
    w.server().close();
    w.run(ms(1_015), &mut pass, &mut idle);
    assert_eq!(w.c.state(), TcpState::Closing);
    assert_eq!(w.server().state(), TcpState::Closing);
    w.run(ms(9_000), &mut pass, &mut idle);
    assert_eq!(w.c.state(), TcpState::TimeWait);
    assert_eq!(w.server().state(), TcpState::TimeWait);
    w.run(ms(9_100), &mut pass, &mut idle);
    assert_eq!(w.c.state(), TcpState::Closed);
    assert_eq!(w.server().state(), TcpState::Closed);
    assert!(!w.c.is_error() && !w.server().is_error());
    w.assert_pinned(9, 1262716058952386117, [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]);
}

/// Resets. A forged RST far outside the server's window is ignored; the
/// client then aborts mid-transfer, its RST is in window and tears the
/// server down; what the server had in flight finds a closed client.
#[test]
fn reset_in_and_out_of_window_is_pinned() {
    let mut w = Wire::new(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
    );
    let mut app = Bulk::new(400_000, false);
    w.run(ms(45), &mut pass, &mut |w| app.turn(w));

    let last = w.last_up.clone().expect("the client has sent");
    let stray = TcpSegment::new(last.tuple, last.seq + 0x4000_0000, SeqNum(0), TcpFlags::RST);
    let now = w.now;
    w.server().handle_segment(now, &stray);
    assert!(!w.server().is_error(), "an out-of-window RST is ignored");

    w.c.abort();
    w.run(ms(1_000), &mut pass, &mut idle);
    assert!(w.c.is_error());
    assert!(w.server().is_error());
    assert_eq!(w.server().state(), TcpState::Closed);
    let now = w.now;
    assert_eq!(w.server().poll_at(now), None);
    assert!(app.got.len() < app.data.len());
    w.assert_pinned(26, 14489613353033816644, [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]);
}

/// A client still in SYN_SENT: an RST that does not acknowledge its SYN
/// is ignored, one that does is a refusal.
#[test]
fn reset_of_a_syn_is_pinned() {
    let mut w = Wire::new(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
    );
    let mut fate = |_: &Emit| Fate::Drop;
    w.run(ms(100), &mut fate, &mut idle);
    let syn = w.last_up.clone().expect("the SYN went out");
    assert!(syn.flags.syn);

    let mut rst = TcpSegment::new(syn.tuple.reversed(), SeqNum(0), syn.seq, TcpFlags::RST);
    rst.flags.ack = true;
    let now = w.now;
    w.c.handle_segment(now, &rst);
    assert!(!w.c.is_error(), "the RST must acknowledge the SYN");
    rst.ack = syn.seq + 1;
    w.c.handle_segment(now, &rst);
    assert!(w.c.is_error());
    assert_eq!(w.c.state(), TcpState::Closed);

    w.run(ms(5_000), &mut fate, &mut idle);
    w.assert_pinned(1, 2630247711546234273, [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]);
}

/// The application writes and closes before the SYN has even left: the
/// data waits for the handshake, the FIN for the data.
#[test]
fn write_and_close_before_the_handshake_is_pinned() {
    let mut w = Wire::new(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
    );
    let data = pattern(4_000);
    assert_eq!(w.c.send(&data), data.len());
    w.c.close();
    assert!(w.c.send_closed());
    let mut app = Bulk::new(0, true);
    w.run(ms(20_000), &mut pass, &mut |w| app.turn(w));

    assert!(app.got == data, "stream arrived byte-exact");
    assert_eq!(w.c.state(), TcpState::Closed);
    assert_eq!(w.server().state(), TcpState::Closed);
    w.assert_pinned(8, 5704537141838895784, [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]);
}

/// What the MPTCP layer does to a subflow socket from outside: the
/// advertised window overridden by the shared pool's, an ACK asked for
/// to announce that it moved, and `probe_path` on a socket that is idle
/// (a pure ACK), that has data outstanding (the first unacknowledged
/// segment again; the timer brings the rest) and that has only its FIN
/// outstanding (the FIN again).
#[test]
fn window_override_and_path_probe_is_pinned() {
    let mut w = Wire::new(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
    );
    let mut app = Bulk::new(200_000, false);
    let mut overridden = false;
    w.run(ms(200), &mut pass, &mut |w| {
        if let (Some(s), false) = (&mut w.s, overridden) {
            s.set_window_override(Some(4_000));
            overridden = true;
        }
        app.turn(w)
    });
    assert!(
        app.got.len() < app.data.len(),
        "the override holds the sender"
    );
    assert_eq!(w.c.peer_window(), 4_000);

    w.server().set_window_override(Some(1 << 20));
    w.server().request_ack();
    w.run(ms(1_000), &mut pass, &mut |w| app.turn(w));
    app.assert_delivered();

    let now = w.now;
    w.c.probe_path(now);
    w.run(ms(1_100), &mut pass, &mut idle);

    // Everything the client sends from here on is lost.
    let mut dark = |e: &Emit| match e.dir {
        Dir::Up => Fate::Drop,
        Dir::Down => Fate::Pass,
    };
    assert_eq!(w.c.send(&pattern(3_000)), 3_000);
    w.run(ms(1_150), &mut dark, &mut idle);
    let now = w.now;
    w.c.probe_path(now);
    w.run(ms(1_160), &mut pass, &mut idle);
    w.run(ms(1_500), &mut pass, &mut |w| app.turn(w));
    assert_eq!(app.got.len(), 203_000);

    w.c.close();
    w.run(ms(1_550), &mut dark, &mut idle);
    assert_eq!(w.c.state(), TcpState::FinWait1);
    let now = w.now;
    w.c.probe_path(now);
    w.run(ms(1_600), &mut pass, &mut idle);
    assert_eq!(w.c.state(), TcpState::FinWait2);
    w.assert_pinned(177, 3466023321800215071, [1, 0, 3, 0, 0], [0, 0, 0, 0, 0]);
}

/// A 2 Mbit/s bottleneck with an unbounded queue in front of it, 5 ms
/// each way, autotuned buffers: slow start fills the queue, the smoothed
/// RTT passes twice the base RTT and mechanism 4 caps the window.
#[test]
fn bufferbloat_cap_is_pinned() {
    let cfg = TcpConfig {
        autotune: true,
        cap_cwnd_on_bufferbloat: true,
        send_buf: 1 << 20,
        recv_buf: 1 << 20,
        ..TcpConfig::default()
    };
    let mut w = Wire::new(cfg.clone(), cfg, Duration::from_millis(5));
    w.rate = Some(250_000);
    let mut app = Bulk::new(1 << 20, false);
    w.run(ms(10_000), &mut pass, &mut |w| app.turn(w));

    app.assert_delivered();
    assert!(w.c.telemetry.counter(CounterId::M4CwndCaps) > 0);
    assert_eq!(w.c.telemetry.counter(CounterId::TcpRtos), 0);
    assert!(w.c.send_capacity() > 16 * 1460, "send buffer autotuned up");
    w.assert_pinned(
        1454,
        16917091621189081877,
        [0, 0, 0, 0, 24],
        [0, 0, 0, 0, 0],
    );
}

/// More options than forty bytes hold. Client data segments carry
/// timestamps, a 20-byte mapping and an 8-byte DATA_ACK (38 bytes), so
/// any one-shot option queued behind them is trimmed; server ACKs carry
/// timestamps, a DATA_ACK, a SACK block while a hole is open, and a
/// 22-byte pair of one-shots that fits only without the SACK. Which
/// option loses, and that it is dropped rather than deferred, is what
/// this pins, by the wire's frozen copy of the fill; of the socket, that
/// it reserves the room it is told (`poll_with_room`) and that
/// `request_ack` produces the bare ACKs the one-shots ride.
#[test]
fn option_space_overflow_is_pinned() {
    let mut w = Wire::new(
        TcpConfig::default(),
        TcpConfig::default(),
        Duration::from_millis(10),
    );
    w.rate = Some(TEN_MBIT);
    w.carried[Dir::Up as usize] = Some(data_ack(1));
    // Rides the handshake's third ACK, where it fits.
    w.signal(Dir::Up, vec![add_addr(None)]);
    const CHUNK: usize = 1400;
    const CHUNKS: usize = 40;
    let data = pattern(CHUNK * CHUNKS);
    let mut queued = 0;
    let mut got = Vec::new();
    let mut data_segs = 0;
    let mut trimmed = 0;
    let mut fate = |e: &Emit| {
        if e.dir == Dir::Down && !e.seg.flags.syn {
            let has = |f: fn(&MptcpOption) -> bool| e.seg.mptcp_options().any(f);
            let fail = has(|m| matches!(m, MptcpOption::MpFail { .. }));
            let addr = has(|m| matches!(m, MptcpOption::AddAddr(_)));
            trimmed += u64::from(fail && !addr);
        }
        if !is_data(e) {
            return Fate::Pass;
        }
        assert_eq!(e.seg.options.len(), 3, "timestamps, mapping, DATA_ACK");
        data_segs += 1;
        match data_segs {
            12 => Fate::Drop,
            _ => Fate::Pass,
        }
    };
    let mut app = |w: &mut Wire| {
        if w.c.is_established() && queued == 0 {
            w.signal(
                Dir::Up,
                vec![
                    TcpOption::Mptcp(MptcpOption::MpPrio {
                        backup: true,
                        addr_id: Some(3),
                    }),
                    add_addr(Some(8080)),
                ],
            );
        }
        while queued < CHUNKS && w.c.is_established() {
            let off = queued * CHUNK;
            let chunk = Bytes::copy_from_slice(&data[off..off + CHUNK]);
            let map = dss(1 + off as u64, 1 + off as u32, CHUNK as u16);
            assert!(w.c.send_chunk(chunk, vec![map]));
            queued += 1;
        }
        let Some(s) = &mut w.s else { return None };
        w.carried[Dir::Down as usize] = Some(data_ack(got.len() as u64 + 1));
        let before = got.len();
        while let Some(b) = s.read(usize::MAX) {
            got.extend_from_slice(&b);
        }
        if got.len() > before || s.recv_buffered() > 0 {
            w.signal(
                Dir::Down,
                vec![
                    TcpOption::Mptcp(MptcpOption::MpFail { dsn: 99 }),
                    add_addr(Some(443)),
                ],
            );
        }
        None
    };
    w.run(ms(5_000), &mut fate, &mut app);

    assert!(got == data, "stream arrived byte-exact");
    assert!(trimmed > 0, "a SACK-bearing ACK lost its ADD_ADDR");
    w.assert_pinned(96, 15079773162712170262, [0, 1, 1, 0, 0], [0, 0, 0, 0, 0]);
}
