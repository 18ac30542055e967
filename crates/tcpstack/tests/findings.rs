//! Scripts for the socket's lifecycle findings, one test each.
//!
//! A client and a server socket are joined by a wire the test owns: a
//! fixed one-way delay and a script that may drop a segment. The loop is
//! event driven on `SimTime`, waking at the next delivery or either
//! socket's next deadline after the current instant.

use std::collections::BTreeMap;

use mptcp_netsim::{Duration, SimTime};
use mptcp_packet::{Endpoint, FourTuple, SeqNum, TcpSegment};
use mptcp_tcpstack::{TcpConfig, TcpSocket};
use mptcp_telemetry::CounterId;

fn tuple() -> FourTuple {
    FourTuple {
        src: Endpoint::new(0x0a00_0001, 40_000),
        dst: Endpoint::new(0x0a00_0002, 80),
    }
}

fn ms(n: u64) -> SimTime {
    SimTime::from_millis(n)
}

/// A client socket and the server socket its first SYN made, the
/// handshake done.
fn established(server_cfg: TcpConfig) -> (TcpSocket, TcpSocket) {
    let now = SimTime::ZERO;
    let mut c = TcpSocket::client(TcpConfig::default(), tuple(), SeqNum(1_000), now, vec![]);
    let syn = c.poll(now).expect("SYN");
    let mut s = TcpSocket::accept(server_cfg, &syn, SeqNum(9_000), now, vec![]);
    let syn_ack = s.poll(now).expect("SYN/ACK");
    c.handle_segment(now, &syn_ack);
    let ack = c.poll(now).expect("third ACK");
    s.handle_segment(now, &ack);
    (c, s)
}

struct Wire {
    now: SimTime,
    c: TcpSocket,
    s: TcpSocket,
    delay: Duration,
    /// Segments on the wire by arrival; `true` for client to server.
    in_flight: BTreeMap<(SimTime, u64), (bool, TcpSegment)>,
    order: u64,
}

impl Wire {
    /// Run until `until`. `keep` decides the fate of each emitted segment
    /// (`up` for client to server); `app` runs on every turn, after
    /// deliveries and before both sockets are drained.
    fn run(
        &mut self,
        until: SimTime,
        keep: &mut dyn FnMut(SimTime, bool, &TcpSegment) -> bool,
        app: &mut dyn FnMut(&mut Wire),
    ) {
        loop {
            while let Some(entry) = self.in_flight.first_entry() {
                if entry.key().0 > self.now {
                    break;
                }
                let (up, seg) = entry.remove();
                let to = if up { &mut self.s } else { &mut self.c };
                to.handle_segment(self.now, &seg);
            }
            app(self);
            for up in [true, false] {
                loop {
                    let from = if up { &mut self.c } else { &mut self.s };
                    let Some(seg) = from.poll(self.now) else {
                        break;
                    };
                    if keep(self.now, up, &seg) {
                        self.order += 1;
                        let at = self.now + self.delay;
                        self.in_flight.insert((at, self.order), (up, seg));
                    }
                }
            }
            let now = self.now;
            let later = |sock: &TcpSocket| sock.poll_at(now).filter(|&t| t > now);
            let next = [
                self.in_flight.keys().next().map(|k| k.0),
                later(&self.c),
                later(&self.s),
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
}

/// Finding 8: `poll_at` answers "now" exactly when `poll` has a segment to
/// give. A duplicate SYN in SYN_RECEIVED asks for the SYN/ACK again and for
/// an ACK; once `poll` has resent the SYN/ACK and run dry, nothing is due
/// until the handshake's timer. And a reader that frees enough of the
/// buffer makes `poll` send a window update, which `poll_at` must announce.
#[test]
fn finding_8_poll_at_agrees_with_poll() {
    let now = SimTime::ZERO;
    let mut c = TcpSocket::client(TcpConfig::default(), tuple(), SeqNum(1_000), now, vec![]);
    let syn = c.poll(now).expect("SYN");
    let mut s = TcpSocket::accept(TcpConfig::default(), &syn, SeqNum(9_000), now, vec![]);
    let _lost = s.poll(now).expect("SYN/ACK");
    let t = ms(1);
    s.handle_segment(t, &syn);
    let again = s.poll(t).expect("the SYN/ACK again");
    assert!(again.flags.syn && again.flags.ack);
    assert!(s.poll(t).is_none());
    let at = s.poll_at(t);
    assert!(
        at.is_none_or(|d| d > t),
        "finding 8: poll_at answers {at:?} at {t:?} after poll ran dry in SYN_RECEIVED"
    );

    let (mut c, mut s) = established(TcpConfig::default());
    let t = ms(2);
    assert_eq!(c.send(&[5; 3_000]), 3_000);
    while let Some(seg) = c.poll(t) {
        s.handle_segment(t, &seg);
    }
    while let Some(seg) = s.poll(t) {
        c.handle_segment(t, &seg);
    }
    while s.read(usize::MAX).is_some() {}
    let promised = s.poll_at(t).is_some_and(|d| d <= t);
    let sent = s.poll(t);
    assert!(
        sent.is_some(),
        "the read freed two segments' worth of window"
    );
    assert!(
        promised,
        "finding 8: poll sends a window update that poll_at did not announce"
    );
}

/// The receiver half of finding 7 answers a probe, not every old empty
/// segment. The server acks three of the client's segments with pure ACKs
/// that arrive behind its own data; the client must not answer each of
/// them with a duplicate ACK, which would push the server, data still in
/// flight, into a spurious fast retransmit.
#[test]
fn a_reordered_pure_ack_draws_no_duplicate_ack() {
    let (mut c, mut s) = established(TcpConfig::default());
    let t = ms(1);
    assert_eq!(c.send(&[1; 3 * 1_460]), 3 * 1_460);
    let mut stale = Vec::new();
    while let Some(seg) = c.poll(t) {
        s.handle_segment(t, &seg);
        stale.push(s.poll(t).expect("a pure ACK"));
    }
    assert_eq!(stale.len(), 3);
    assert_eq!(s.send(&[2; 4 * 1_460]), 4 * 1_460);
    let first = s.poll(t).expect("the server's first data segment");
    let rest: Vec<TcpSegment> = std::iter::from_fn(|| s.poll(t)).collect();
    assert!(!rest.is_empty(), "data still in flight");
    let mut to_server = Vec::new();
    for seg in std::iter::once(&first).chain(&stale) {
        c.handle_segment(t, seg);
        to_server.extend(std::iter::from_fn(|| c.poll(t)));
    }
    assert_eq!(to_server.len(), 1, "one ACK, for the data");
    for seg in &to_server {
        s.handle_segment(t, seg);
    }
    assert_eq!(s.telemetry.counter(CounterId::TcpFastRetransmits), 0);
}

/// Finding 7: the ACK of a zero-window probe keeps its window. The
/// server's 4 KB buffer fills and its reader sleeps for a second, so the
/// client is left with everything sent acknowledged and the rest queued
/// behind a zero window. The window update that follows the read is lost;
/// the persist timer's probe must find the open window, and the transfer
/// must complete.
#[test]
fn finding_7_a_persist_probe_reopens_the_window_after_a_lost_update() {
    let server_cfg = TcpConfig {
        recv_buf: 4_000,
        ..TcpConfig::default()
    };
    let (c, s) = established(server_cfg);
    let mut w = Wire {
        now: SimTime::ZERO,
        c,
        s,
        delay: Duration::from_millis(10),
        in_flight: BTreeMap::new(),
        order: 0,
    };
    const TOTAL: usize = 12_000;
    assert_eq!(w.c.send(&[3; TOTAL]), TOTAL);
    let mut got = 0;
    let mut update_lost = false;
    // The first segment the server sends after its reader wakes is the
    // window update.
    let mut keep = |at: SimTime, up: bool, seg: &TcpSegment| {
        if !up && at >= ms(1_000) && seg.window > 0 && !update_lost {
            update_lost = true;
            return false;
        }
        true
    };
    let mut app = |w: &mut Wire| {
        if w.now >= ms(1_000) {
            while let Some(b) = w.s.read(usize::MAX) {
                got += b.len();
            }
        }
    };
    w.run(ms(1_000), &mut keep, &mut app);
    assert_eq!(w.c.bytes_in_flight(), 0, "everything sent is acknowledged");
    assert_eq!(w.c.peer_window(), 0);
    assert!(w.c.bytes_queued() > 0);
    w.run(ms(60_000), &mut keep, &mut app);
    assert!(update_lost);
    assert_eq!(got, TOTAL, "finding 7: {got} of {TOTAL} bytes after 60 s");
}
