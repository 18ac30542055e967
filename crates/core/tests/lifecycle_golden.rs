//! Golden over the lifecycle of both ends of a connection.
//!
//! Scripted corner cases drive one client `MptcpConnection` against an
//! `MptcpListener` through a wire the test owns: a fixed delay each way and
//! a script that may drop, rewrite or forge segments. After every turn of
//! the loop both ends are described as `(ConnState, is_fallback(),
//! abort_reason(), TcpState of every subflow)`, and every change is
//! recorded with its instant; each scenario pins the whole sequence and the
//! fallback causes the two ends noted. Between them the scenarios reach
//! every fallback cause the stack produces and every abort reason, a close
//! in `Established` with the peer's DATA_FIN arriving before and after the
//! subflow FIN, a simultaneous close through TIME_WAIT's expiry, resets in
//! and out of window, and a refused handshake.
//!
//! Only the public surface is used, so the file does not care how either
//! end keeps its state.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use mptcp::telemetry::{CounterId, FallbackCause};
use mptcp::{
    AbortReason, FailureDetection, MptcpConfig, MptcpConnection, MptcpListener, ReadOutcome,
};
use mptcp_netsim::{Duration, SimRng, SimTime};
use mptcp_packet::{Endpoint, FourTuple, MptcpOption, SeqNum, TcpFlags, TcpOption, TcpSegment};
use mptcp_tcpstack::TcpState;

const C1: u32 = 0x0a00_0001;
const C2: u32 = 0x0a00_0002;
const S1: u32 = 0x0a00_0063;

/// What the script does to a segment on its way: `false` drops it.
type Script = Box<dyn FnMut(SimTime, &mut TcpSegment) -> bool>;

struct Wire {
    now: SimTime,
    client: MptcpConnection,
    server: MptcpListener,
    delay: Duration,
    in_flight: BTreeMap<(SimTime, u64), TcpSegment>,
    order: u64,
    script: Script,
    /// The newest segment emitted on each four-tuple (scenarios forge
    /// from them).
    newest: HashMap<FourTuple, TcpSegment>,
    log: Vec<String>,
    last: String,
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

fn describe(c: &MptcpConnection) -> String {
    let socks: Vec<TcpState> = c.subflows().iter().map(|s| s.sock.state()).collect();
    let fallback = if c.is_fallback() { " fallback" } else { "" };
    let abort = c
        .abort_reason()
        .map_or(String::new(), |r| format!(" abort:{r:?}"));
    format!("{:?}{fallback}{abort} {socks:?}", c.state())
}

impl Wire {
    fn new(cfg: MptcpConfig) -> Wire {
        Wire::seeded(cfg, 7)
    }

    /// Keys, sequence numbers and nonces drawn from `seed`.
    fn seeded(cfg: MptcpConfig, seed: u64) -> Wire {
        let tuple = FourTuple {
            src: Endpoint::new(C1, 1000),
            dst: Endpoint::new(S1, 80),
        };
        Wire {
            now: SimTime::ZERO,
            client: MptcpConnection::client(cfg.clone(), tuple, SimTime::ZERO, SimRng::new(seed)),
            server: MptcpListener::new(cfg, seed + 1),
            delay: Duration::from_millis(5),
            in_flight: BTreeMap::new(),
            order: 0,
            script: Box::new(|_, _| true),
            newest: HashMap::new(),
            log: Vec::new(),
            last: String::new(),
        }
    }

    /// The server's connection, once the SYN has made one.
    fn server(&mut self) -> Option<&mut MptcpConnection> {
        (!self.server.is_empty()).then(|| self.server.conn_mut(0))
    }

    /// The newest segment the server sent the client on subflow `i`.
    fn newest_down(&self, i: usize) -> TcpSegment {
        let tuple = self.client.subflows()[i].sock.tuple().reversed();
        self.newest[&tuple].clone()
    }

    fn transmit(&mut self, mut seg: TcpSegment) {
        self.newest.insert(seg.tuple, seg.clone());
        if (self.script)(self.now, &mut seg) {
            self.order += 1;
            self.in_flight
                .insert((self.now + self.delay, self.order), seg);
        }
    }

    /// Hand `seg` to its destination now, as if it had just arrived.
    fn inject(&mut self, seg: TcpSegment) {
        if seg.tuple.dst.addr == S1 {
            self.server.handle_segment(self.now, &seg);
        } else {
            self.client.handle_segment(self.now, &seg);
        }
    }

    fn record(&mut self) {
        let server = self.server.conns.first().map_or("-".into(), describe);
        let line = format!("c {} | s {server}", describe(&self.client));
        if line != self.last {
            self.log
                .push(format!("{:.3} {line}", self.now.0 as f64 / 1e6));
            self.last = line;
        }
    }

    /// Run the loop up to and including `until`: deliver what is due (each
    /// end's arrivals as one batch), let `app` act, drain both ends, record.
    /// The loop wakes at the next delivery or either end's next deadline
    /// after the turn's instant, and nowhere else.
    fn run(&mut self, until: SimTime, app: &mut dyn FnMut(&mut Wire)) {
        loop {
            let (mut up, mut down) = (Vec::new(), Vec::new());
            while let Some(entry) = self.in_flight.first_entry() {
                if entry.key().0 > self.now {
                    break;
                }
                let seg = entry.remove();
                if seg.tuple.dst.addr == S1 {
                    up.push(seg);
                } else {
                    down.push(seg);
                }
            }
            self.client.handle_segments(self.now, &down);
            self.server.handle_segments(self.now, &up, &mut Vec::new());
            app(self);
            while let Some(seg) = self.client.poll(self.now) {
                self.transmit(seg);
            }
            let mut out = Vec::new();
            self.server.poll(self.now, &mut out);
            for seg in out {
                self.transmit(seg);
            }
            self.record();
            let now = self.now;
            let later = |t: Option<SimTime>| t.filter(|&t| t > now);
            let next = [
                self.in_flight.keys().next().map(|k| k.0),
                later(self.client.poll_at(now)),
                later(self.server.poll_at(now)),
            ]
            .into_iter()
            .flatten()
            .min();
            match next {
                Some(t) if t <= until => self.now = t,
                _ => break,
            }
        }
        self.now = until;
    }

    fn causes(&self) -> (Vec<FallbackCause>, Vec<FallbackCause>) {
        let server = self
            .server
            .conns
            .first()
            .map_or(Vec::new(), |s| s.telemetry().fallback_causes());
        (self.client.telemetry().fallback_causes(), server)
    }

    /// Compare with the pinned sequence; on a mismatch print the actual one.
    fn assert_pinned(&self, want: &[&str], causes: (&[FallbackCause], &[FallbackCause])) {
        let (client, server) = self.causes();
        let got = (self.log.clone(), client, server);
        let want = (
            want.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            causes.0.to_vec(),
            causes.1.to_vec(),
        );
        if got != want {
            let rows: String = got.0.iter().map(|l| format!("        {l:?},\n")).collect();
            panic!(
                "the lifecycle moved; actual:\n    &[\n{rows}    ],\n    causes {:?} / {:?}",
                got.1, got.2
            );
        }
    }
}

fn idle(_: &mut Wire) {}

/// The server's application: read everything, and close once the peer's
/// stream has ended.
fn serve(w: &mut Wire) {
    if let Some(s) = w.server() {
        while s.read(usize::MAX).into_data().is_some() {}
        if s.at_eof() {
            s.close();
        }
    }
}

/// Read everything the server has, without closing.
fn drain_server(w: &mut Wire) {
    if let Some(s) = w.server() {
        while s.read(usize::MAX).into_data().is_some() {}
    }
}

fn drain_client(w: &mut Wire) {
    while w.client.read(usize::MAX).into_data().is_some() {}
}

fn open_second_subflow(w: &mut Wire) {
    let now = w.now;
    w.client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), now)
        .expect("join");
}

fn strip_mptcp(seg: &mut TcpSegment) {
    seg.options.retain(|o| !o.is_mptcp());
}

/// Flip the last byte of a payload (the DSS checksum no longer matches).
fn corrupt(seg: &mut TcpSegment) {
    let mut bytes = seg.payload.to_vec();
    *bytes.last_mut().expect("a payload") ^= 0xff;
    seg.payload = Bytes::from(bytes);
}

/// An RST from the server on the subflow `seg` travelled, `ahead` bytes
/// past where its newest segment started.
fn reset_after(seg: &TcpSegment, ahead: u32) -> TcpSegment {
    TcpSegment::new(seg.tuple, seg.seq + ahead, SeqNum(0), TcpFlags::RST)
}

// ----------------------------------------------------------------------
// Closing.
// ----------------------------------------------------------------------

/// Two subflows, data both ways, the client closes; the server closes as
/// soon as it has read to the DATA_FIN, so its own DATA_FIN reaches the
/// client before the client's subflow FINs reach it. Then the subflow
/// FINs, and the client's sockets leave TIME_WAIT eight seconds on.
#[test]
fn close_with_the_peer_data_fin_before_the_subflow_fin() {
    let mut w = Wire::new(MptcpConfig::default());
    w.run(ms(100), &mut idle);
    open_second_subflow(&mut w);
    w.run(ms(300), &mut idle);
    w.client.write(&[7; 20_000]);
    w.server().expect("accepted").write(&[9; 5_000]);
    w.run(ms(600), &mut |w| {
        drain_client(w);
        drain_server(w);
    });
    w.client.close();
    w.run(ms(20_000), &mut |w| {
        drain_client(w);
        serve(w);
    });
    assert!(w.client.send_closed() && w.client.at_eof());
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s Established [Established]",
            "20.000 c Established [Established] | s Established [Established]",
            "100.000 c Established [Established, SynSent] | s Established [Established]",
            "105.000 c Established [Established, SynSent] | s Established [Established, SynReceived]",
            "110.000 c Established [Established, Established] | s Established [Established, SynReceived]",
            "115.000 c Established [Established, Established] | s Established [Established, Established]",
            "610.000 c Established [FinWait1, FinWait1] | s Established [Established, Established]",
            "615.000 c Established [FinWait1, FinWait1] | s Established [LastAck, LastAck]",
            "620.000 c Established [TimeWait, TimeWait] | s Established [LastAck, LastAck]",
            "625.000 c Established [TimeWait, TimeWait] | s Established [Closed, Closed]",
            "8620.000 c Established [Closed, Closed] | s Established [Closed, Closed]",
        ],
        (&[], &[]),
    );
}

/// The server acknowledges the client's DATA_FIN at once, writes data of
/// its own and closes a second later: the client's subflow FIN is in
/// before the server's DATA_FIN leaves, so the server sends its DATA_FIN
/// on a subflow in CLOSE_WAIT and its FIN from there. The client answers
/// that DATA_FIN at once too, and both subflows close.
#[test]
fn close_with_the_subflow_fin_before_the_peer_data_fin() {
    let mut w = Wire::new(MptcpConfig::default());
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 3_000]);
    w.run(ms(200), &mut drain_server);
    w.client.close();
    w.run(ms(300), &mut drain_server);
    w.server().expect("accepted").write(&[9; 1_000]);
    w.run(ms(1_200), &mut |w| {
        drain_client(w);
        drain_server(w);
    });
    w.server().expect("accepted").close();
    w.run(ms(20_000), &mut drain_client);
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s Established [Established]",
            "20.000 c Established [Established] | s Established [Established]",
            "210.000 c Established [FinWait1] | s Established [Established]",
            "215.000 c Established [FinWait1] | s Established [CloseWait]",
            "220.000 c Established [FinWait2] | s Established [CloseWait]",
            "1210.000 c Established [FinWait2] | s Established [LastAck]",
            "1215.000 c Established [TimeWait] | s Established [LastAck]",
            "1220.000 c Established [TimeWait] | s Established [Closed]",
            "9215.000 c Established [Closed] | s Established [Closed]",
        ],
        (&[], &[]),
    );
}

/// Both ends close in the same instant and the DATA_FINs cross. Each
/// rides a segment with nothing else to acknowledge; each end answers the
/// other's at once, so the subflows close simultaneously, through CLOSING,
/// with no data-level timeout.
#[test]
fn crossing_data_fins() {
    let mut w = Wire::new(MptcpConfig::default());
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 2_000]);
    w.run(ms(200), &mut drain_server);
    w.client.close();
    w.server().expect("accepted").close();
    w.run(ms(20_000), &mut |w| {
        drain_client(w);
        drain_server(w);
    });
    assert!(w.client.send_closed() && w.client.at_eof());
    let server = w.server().expect("accepted").telemetry();
    for t in [w.client.telemetry(), server] {
        assert_eq!(t.counter(CounterId::DataRtos), 0);
    }
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s Established [Established]",
            "20.000 c Established [Established] | s Established [Established]",
            "210.000 c Established [FinWait1] | s Established [FinWait1]",
            "215.000 c Established [Closing] | s Established [Closing]",
            "220.000 c Established [TimeWait] | s Established [TimeWait]",
            "8220.000 c Established [Closed] | s Established [Closed]",
        ],
        (&[], &[]),
    );
}

/// Both DATA_FINs are acknowledged, then every FIN the server sends is
/// lost, as when the client has left. The connection is closed at the data
/// level, so the server's subflow sends its FIN at most twice more, and
/// closes without error instead of retrying into a closed port.
#[test]
fn orphaned_fin_is_abandoned_after_two_retries() {
    let mut w = Wire::new(MptcpConfig::default());
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 3_000]);
    w.client.close();
    w.script = Box::new(|_, seg| !(seg.flags.fin && seg.tuple.src.addr == S1));
    w.run(ms(20_000), &mut serve);
    let server = &w.server.conns[0];
    let sock = &server.subflows()[0].sock;
    assert_eq!(sock.telemetry.counter(CounterId::TcpRtos), 3);
    assert!(!sock.is_error() && server.abort_reason().is_none());
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s Established [Established]",
            "20.000 c Established [Established] | s Established [Established]",
            "110.000 c Established [FinWait1] | s Established [Established]",
            "115.000 c Established [FinWait1] | s Established [LastAck]",
            "320.000 c Established [FinWait2] | s Established [LastAck]",
            "7115.000 c Established [FinWait2] | s Established [Closed]",
        ],
        (&[], &[]),
    );
}

/// The server writes a response and closes in the same call, as an HTTP
/// server does. The DATA_FIN rides the mapping of the response's last
/// chunk, so the client reads EOF in the turn its last byte arrives: no
/// exchange comes between them. (While the DATA_FIN waited for the
/// DATA_ACK of everything before it, one round trip did.)
#[test]
fn a_close_in_the_call_that_writes_the_data_costs_no_round_trip() {
    let mut w = Wire::new(MptcpConfig::default());
    w.run(ms(100), &mut idle);
    let server = w.server().expect("accepted");
    assert_eq!(server.write(&[9; 20_000]).accepted(), 20_000);
    server.close();
    let (mut last_byte, mut eof) = (None, None);
    w.run(ms(2_000), &mut |w| loop {
        match w.client.read(usize::MAX) {
            ReadOutcome::Data(_) => last_byte = Some(w.now),
            ReadOutcome::Eof => {
                eof.get_or_insert(w.now);
                break;
            }
            _ => break,
        }
    });
    let (last_byte, eof) = (last_byte.expect("data"), eof.expect("EOF"));
    let round_trips = (eof - last_byte).as_nanos() / (w.delay * 2).as_nanos();
    assert_eq!(round_trips, 0, "last byte at {last_byte:?}, EOF at {eof:?}");
}

/// After fallback a FIN is the data-level close itself: lost the same
/// way, it keeps every retry the socket allows.
#[test]
fn fallback_fin_keeps_its_retries() {
    let mut w = Wire::new(MptcpConfig::default());
    w.script = Box::new(|_, seg| {
        if seg.flags.syn && seg.flags.ack {
            strip_mptcp(seg);
        }
        !(seg.flags.fin && seg.tuple.src.addr == S1)
    });
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 3_000]);
    w.client.close();
    w.run(ms(20_000), &mut serve);
    let sock = &w.server.conns[0].subflows()[0].sock;
    assert_eq!(sock.telemetry.counter(CounterId::TcpRtos), 4);
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c Fallback fallback [Established] | s Handshake [SynReceived]",
            "15.000 c Fallback fallback [Established] | s AwaitingConfirm [Established]",
            "100.000 c Fallback fallback [FinWait1] | s AwaitingConfirm [Established]",
            "105.000 c Fallback fallback [FinWait1] | s Fallback fallback [LastAck]",
        ],
        (
            &[FallbackCause::OptionStripped],
            &[FallbackCause::OptionStripped],
        ),
    );
}

// ----------------------------------------------------------------------
// Fallback.
// ----------------------------------------------------------------------

/// The SYN/ACK loses its MP_CAPABLE: the client falls back at once, the
/// server after three option-less segments. Then both close in the same
/// instant: plain FINs are the data-level close, they cross, and both
/// sockets go FIN_WAIT_1 → CLOSING → TIME_WAIT and are gone eight seconds
/// on.
#[test]
fn fallback_when_the_syn_ack_loses_mp_capable_then_simultaneous_close() {
    let mut w = Wire::new(MptcpConfig::default());
    w.script = Box::new(|_, seg| {
        if seg.flags.syn && seg.flags.ack {
            strip_mptcp(seg);
        }
        true
    });
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 6_000]);
    w.run(ms(300), &mut drain_server);
    w.client.close();
    w.server().expect("accepted").close();
    w.run(ms(20_000), &mut |w| {
        drain_client(w);
        drain_server(w);
    });
    assert!(w.client.send_closed() && w.client.at_eof());
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c Fallback fallback [Established] | s Handshake [SynReceived]",
            "15.000 c Fallback fallback [Established] | s AwaitingConfirm [Established]",
            "105.000 c Fallback fallback [Established] | s Fallback fallback [Established]",
            "300.000 c Fallback fallback [FinWait1] | s Fallback fallback [FinWait1]",
            "305.000 c Fallback fallback [Closing] | s Fallback fallback [Closing]",
            "310.000 c Fallback fallback [TimeWait] | s Fallback fallback [TimeWait]",
            "8310.000 c Fallback fallback [Closed] | s Fallback fallback [Closed]",
        ],
        (
            &[FallbackCause::OptionStripped],
            &[FallbackCause::OptionStripped],
        ),
    );
}

/// Every MPTCP option is stripped from every segment after the SYNs.
#[test]
fn fallback_when_every_later_segment_loses_its_options() {
    let mut w = Wire::new(MptcpConfig::default());
    w.script = Box::new(|_, seg| {
        if !seg.flags.syn {
            strip_mptcp(seg);
        }
        true
    });
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 30_000]);
    w.run(ms(5_000), &mut drain_server);
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s AwaitingConfirm [Established]",
            "105.000 c AwaitingConfirm [Established] | s Fallback fallback [Established]",
            "2100.000 c Fallback fallback [Established] | s Fallback fallback [Established]",
        ],
        (
            &[FallbackCause::DataRtoUnconfirmed],
            &[FallbackCause::OptionStripped],
        ),
    );
}

/// The client's data is rewritten in flight on its only subflow: the
/// server's checksum check fails and it falls back, and its MP_FAIL takes
/// the client to fallback too.
#[test]
fn fallback_on_a_checksum_failure_on_the_only_subflow() {
    let mut w = Wire::new(MptcpConfig::default());
    w.script = Box::new(|_, seg| {
        if seg.tuple.dst.addr == S1 && !seg.payload.is_empty() {
            corrupt(seg);
        }
        true
    });
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 30_000]);
    w.run(ms(5_000), &mut drain_server);
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s Established [Established]",
            "20.000 c Established [Established] | s Established [Established]",
            "105.000 c Established [Established] | s Fallback fallback [Established]",
            "110.000 c Fallback fallback [Established] | s Fallback fallback [Established]",
        ],
        (&[FallbackCause::MpFail], &[FallbackCause::ChecksumFail]),
    );
}

/// The same on the second of two subflows: the server resets that one and
/// reads nothing more from it, and the connection goes on over the other.
#[test]
fn checksum_failure_on_one_of_two_subflows() {
    let mut w = Wire::new(MptcpConfig::default());
    w.run(ms(100), &mut idle);
    open_second_subflow(&mut w);
    w.run(ms(300), &mut idle);
    w.script = Box::new(|_, seg| {
        if seg.tuple.src.addr == C2 && !seg.payload.is_empty() {
            corrupt(seg);
        }
        true
    });
    w.client.write(&[7; 60_000]);
    w.run(ms(5_000), &mut drain_server);
    // Every byte arrived once, the reset subflow's by re-injection.
    assert_eq!(w.server().expect("accepted").stats.bytes_delivered, 60_000);
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s Established [Established]",
            "20.000 c Established [Established] | s Established [Established]",
            "100.000 c Established [Established, SynSent] | s Established [Established]",
            "105.000 c Established [Established, SynSent] | s Established [Established, SynReceived]",
            "110.000 c Established [Established, Established] | s Established [Established, SynReceived]",
            "115.000 c Established [Established, Established] | s Established [Established, Established]",
            "305.000 c Established [Established, Established] | s Established [Established, Closed]",
            "310.000 c Established [Established, Closed] | s Established [Established, Closed]",
        ],
        (&[], &[]),
    );
}

/// A forged MP_FAIL reaches a client with one subflow.
#[test]
fn fallback_on_mp_fail_with_one_subflow() {
    let mut w = Wire::new(MptcpConfig::default());
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 2_000]);
    w.run(ms(300), &mut drain_server);
    let mut ack = w.newest_down(0);
    ack.options
        .push(TcpOption::Mptcp(MptcpOption::MpFail { dsn: 1 }));
    w.inject(ack);
    w.run(ms(2_000), &mut drain_server);
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s Established [Established]",
            "20.000 c Established [Established] | s Established [Established]",
            "300.000 c Fallback fallback [Established] | s Established [Established]",
        ],
        (&[FallbackCause::MpFail], &[]),
    );
}

// ----------------------------------------------------------------------
// Aborts.
// ----------------------------------------------------------------------

/// A forged MP_FASTCLOSE: the client resets everything.
#[test]
fn fastclose_aborts() {
    let mut w = Wire::new(MptcpConfig::default());
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 2_000]);
    w.run(ms(300), &mut drain_server);
    let mut ack = w.newest_down(0);
    ack.options
        .push(TcpOption::Mptcp(MptcpOption::FastClose { receiver_key: 0 }));
    w.inject(ack);
    w.run(ms(2_000), &mut drain_server);
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s Established [Established]",
            "20.000 c Established [Established] | s Established [Established]",
            "300.000 c Closed abort:PeerFastClose [Closed] | s Established [Established]",
            "305.000 c Closed abort:PeerFastClose [Closed] | s Closed abort:AllSubflowsDied [Closed]",
        ],
        (&[], &[]),
    );
}

/// Everything is lost from 300 ms on, with data outstanding: the path
/// fails and the abort deadline runs out.
#[test]
fn all_paths_failed_aborts() {
    let fd = FailureDetection {
        abort_deadline: Duration::from_secs(2),
        ..FailureDetection::default()
    };
    let cfg = MptcpConfig::builder()
        .failure_detection(fd)
        .build()
        .unwrap();
    let mut w = Wire::new(cfg);
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 2_000]);
    w.run(ms(300), &mut drain_server);
    w.script = Box::new(|_, _| false);
    w.client.write(&[7; 20_000]);
    w.run(ms(30_000), &mut drain_server);
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s Established [Established]",
            "20.000 c Established [Established] | s Established [Established]",
            "3700.000 c Closed abort:AllPathsFailed [Closed] | s Established [Established]",
        ],
        (&[], &[]),
    );
}

/// The client's only address goes away.
#[test]
fn last_subflow_removed_aborts() {
    let mut w = Wire::new(MptcpConfig::default());
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 2_000]);
    w.run(ms(300), &mut drain_server);
    let now = w.now;
    w.client.local_addr_down(C1, now);
    w.run(ms(2_000), &mut drain_server);
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s Established [Established]",
            "20.000 c Established [Established] | s Established [Established]",
            "300.000 c Closed abort:LastSubflowRemoved [Closed] | s Established [Established]",
            "305.000 c Closed abort:LastSubflowRemoved [Closed] | s Closed abort:AllSubflowsDied [Closed]",
        ],
        (&[], &[]),
    );
}

/// Two subflows. An RST far outside the window is ignored; one in window
/// kills the second subflow, and the connection carries on; one in window
/// on the first leaves the client with no subflow at all.
#[test]
fn resets_in_and_out_of_window() {
    let mut w = Wire::new(MptcpConfig::default());
    w.run(ms(100), &mut idle);
    open_second_subflow(&mut w);
    w.run(ms(300), &mut idle);
    w.client.write(&[7; 4_000]);
    w.run(ms(500), &mut drain_server);

    let stray = reset_after(&w.newest_down(0), 0x4000_0000);
    w.inject(stray);
    w.run(ms(700), &mut drain_server);
    let second = reset_after(&w.newest_down(1), 0);
    w.inject(second);
    w.run(ms(900), &mut drain_server);
    let first = reset_after(&w.newest_down(0), 0);
    w.inject(first);
    w.run(ms(2_000), &mut drain_server);
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c AwaitingConfirm [Established] | s Handshake [SynReceived]",
            "15.000 c AwaitingConfirm [Established] | s Established [Established]",
            "20.000 c Established [Established] | s Established [Established]",
            "100.000 c Established [Established, SynSent] | s Established [Established]",
            "105.000 c Established [Established, SynSent] | s Established [Established, SynReceived]",
            "110.000 c Established [Established, Established] | s Established [Established, SynReceived]",
            "115.000 c Established [Established, Established] | s Established [Established, Established]",
            "700.000 c Established [Established, Closed] | s Established [Established, Established]",
            "900.000 c Closed abort:AllSubflowsDied [Closed, Closed] | s Established [Established, Established]",
        ],
        (&[], &[]),
    );
}

/// The SYN/ACK comes back as an RST: the handshake is refused.
#[test]
fn refused_handshake() {
    let mut w = Wire::new(MptcpConfig::default());
    w.script = Box::new(|_, seg| {
        if seg.flags.syn && seg.flags.ack {
            seg.flags.syn = false;
            seg.flags.rst = true;
            seg.options.clear();
        }
        true
    });
    w.run(ms(2_000), &mut idle);
    w.assert_pinned(
        &[
            "0.000 c Handshake [SynSent] | s -",
            "5.000 c Handshake [SynSent] | s Handshake [SynReceived]",
            "10.000 c Closed abort:HandshakeFailed [Closed] | s Handshake [SynReceived]",
        ],
        (&[], &[]),
    );
}

// ----------------------------------------------------------------------
// Findings.
// ----------------------------------------------------------------------

/// Finding 4. A two-subflow client closes with no data the moment its
/// SYN/ACK arrives, while still `AwaitingConfirm`: it opens the join and
/// closes in one go, as `repro fetch` would with nothing to send. The
/// server closes once it has read to the DATA_FIN. Both DATA_FINs must be
/// acknowledged before the all-paths abort deadline, on every seed.
#[test]
fn finding_4_a_client_closing_while_awaiting_confirm_gets_both_data_fins_acked() {
    let deadline = SimTime::ZERO + FailureDetection::default().abort_deadline;
    let mut stuck = Vec::new();
    for seed in 0..30 {
        let mut w = Wire::seeded(MptcpConfig::default(), seed);
        let mut closed = false;
        w.run(deadline, &mut |w| {
            if !closed && w.client.is_established() {
                open_second_subflow(w);
                w.client.close();
                closed = true;
            }
            serve(w);
        });
        let server_done = w.server.conns.first().is_some_and(|s| s.send_closed());
        if !(w.client.send_closed() && server_done) {
            stuck.push(seed);
        }
    }
    assert!(
        stuck.is_empty(),
        "finding 4: seeds {stuck:?} of 30 never finished closing"
    );
}

/// Every subflow times out with data outstanding and no all-paths abort
/// deadline to beat them: the connection aborts typed, and leaves no
/// deadline behind it (a past one would pin an event loop in a spin).
#[test]
fn every_subflow_timing_out_aborts_and_leaves_no_stale_deadline() {
    let failure = FailureDetection {
        abort_deadline: Duration::from_secs(100_000),
        ..FailureDetection::default()
    };
    let cfg = MptcpConfig::builder().failure_detection(failure).build();
    let mut w = Wire::new(cfg.expect("valid config"));
    w.run(ms(100), &mut idle);
    w.client.write(&[7; 40_000]);
    w.script = Box::new(|_, _| false);
    w.run(ms(3_000_000), &mut idle);
    assert_eq!(w.client.abort_reason(), Some(AbortReason::AllSubflowsDied));
    let at = w.client.poll_at(w.now);
    assert!(
        at.is_none_or(|t| t > w.now),
        "poll_at {at:?} at {:?}",
        w.now
    );
}
