//! The `poll_at` / `poll` (tick) contract under wall-clock jitter.
//!
//! The real event loop (`crates/runtime`) sleeps until the deadline
//! `poll_at` returns and the OS wakes it *late* — often by milliseconds,
//! under load by whole scheduler quanta. The state machines therefore
//! promise:
//!
//! 1. **Late ticks fire elapsed timers exactly once.** A tick at
//!    `deadline + jitter` runs each expired timer one time — not once per
//!    nominal interval covered by the jitter — and re-arms it relative to
//!    `now`, not to the missed deadline.
//! 2. **No double-fire.** Repeated ticks at the same `now` (the loop
//!    drains `poll` until `None`) do not re-run a timer that already
//!    fired at that instant.
//! 3. **Never stalls, never pins to the past.** While work is pending
//!    (unacked data ⇒ a retransmission must eventually happen), `poll_at`
//!    returns `Some(t)`; immediately after a tick, every returned
//!    deadline is strictly in the future, so a loop that sleeps until
//!    `poll_at` can neither hang forever nor spin at 100% CPU on a stale
//!    deadline.
//!
//! The test blackholes one direction of a client↔listener pair so both
//! the subflow RTO and the connection-level data RTO are pending, then
//! delivers wakeups with grossly exaggerated jitter.

use mptcp::telemetry::CounterId;
use mptcp::{FailureDetection, MptcpConfig, MptcpConnection, MptcpListener};
use mptcp_netsim::{Duration, SimRng, SimTime};
use mptcp_packet::{Endpoint, FourTuple, TcpSegment};

const CLIENT: u32 = 0x0a000002;
const SERVER: u32 = 0x0a000001;

/// Failure detection far out of the way: this test is about timer
/// mechanics, not about path-failure semantics (covered elsewhere).
fn lax_cfg() -> MptcpConfig {
    MptcpConfig::builder()
        .failure_detection(FailureDetection {
            suspect_after_rtos: 50,
            fail_after_rtos: 100,
            progress_timeout: Duration::from_secs(600),
            probe_interval: Duration::from_secs(600),
            abort_deadline: Duration::from_secs(3600),
        })
        .build()
        .expect("valid config")
}

/// Drain `client.poll` at `now` (each call ticks) and return the emitted
/// segments. Checks invariant 3 on exit: after a tick, `poll_at` never
/// returns a deadline at or before `now`.
/// Data-level RTOs the connection has fired.
fn data_rtos(client: &MptcpConnection) -> u64 {
    client.telemetry().counter(CounterId::DataRtos)
}

/// RTOs the initial subflow's socket has fired.
fn subflow_rtos(client: &MptcpConnection) -> u64 {
    client.subflows()[0]
        .sock
        .telemetry
        .counter(CounterId::TcpRtos)
}

fn drain(client: &mut MptcpConnection, now: SimTime) -> Vec<TcpSegment> {
    let mut out = Vec::new();
    while let Some(seg) = client.poll(now) {
        out.push(seg);
        assert!(out.len() < 10_000, "poll never quiesced");
    }
    if let Some(t) = client.poll_at(now) {
        assert!(
            t > now,
            "poll_at returned a deadline not in the future right after a \
             tick: {t:?} <= {now:?} (the event loop would spin)"
        );
    }
    out
}

/// One full exchange step: client output → listener, listener output →
/// client. Returns when both sides are quiescent at `now`.
fn pump(client: &mut MptcpConnection, listener: &mut MptcpListener, now: SimTime) {
    for _ in 0..100 {
        let c_out = drain(client, now);
        let mut s_out = Vec::new();
        for seg in &c_out {
            listener.handle_segment(now, seg);
        }
        listener.poll(now, &mut s_out);
        for seg in &s_out {
            client.handle_segment(now, seg);
        }
        if c_out.is_empty() && s_out.is_empty() {
            return;
        }
    }
    panic!("handshake pump never quiesced");
}

#[test]
fn late_ticks_fire_elapsed_timers_exactly_once() {
    let cfg = lax_cfg();
    let tuple = FourTuple {
        src: Endpoint::new(CLIENT, 4000),
        dst: Endpoint::new(SERVER, 80),
    };
    let mut now = SimTime::from_millis(1);
    let mut client = MptcpConnection::client(cfg.clone(), tuple, now, SimRng::new(1));
    let mut listener = MptcpListener::new(cfg, 2);
    pump(&mut client, &mut listener, now);
    assert!(client.is_established());

    // Warmup: one delivered, DATA_ACKed write, walking time forward
    // deadline-by-deadline (the delayed-ACK flush needs its timer to
    // elapse). The jitter below then lands on a *confirmed* mid-stream
    // connection — an unconfirmed client treats the first data RTO as
    // middlebox option-stripping and falls back (§3.3.6), which is not
    // the behavior under test here.
    const WARM: usize = 1024;
    assert_eq!(client.write(&[0x11u8; WARM]).accepted(), WARM);
    let mut warm = 0usize;
    for _ in 0..50 {
        pump(&mut client, &mut listener, now);
        while let Some(b) = listener.conn_mut(0).read(usize::MAX).into_data() {
            warm += b.len();
        }
        if warm == WARM && client.poll_at(now).is_none() {
            break;
        }
        match [client.poll_at(now), listener.poll_at(now)]
            .into_iter()
            .flatten()
            .min()
        {
            Some(t) => {
                assert!(t > now);
                now = t;
            }
            None => break,
        }
    }
    assert_eq!(warm, WARM, "warmup write must be delivered");
    assert_eq!(data_rtos(&client), 0, "warmup must not need timers");

    // Queue data, then blackhole everything the client sends: both the
    // subflow RTO and the data-level RTO are now pending.
    const DATA: usize = 20 * 1024;
    let wrote = client.write(&vec![0xa5u8; DATA]).accepted();
    assert_eq!(wrote, DATA);
    let lost = drain(&mut client, now);
    assert!(!lost.is_empty(), "the write must have produced segments");
    assert_eq!(data_rtos(&client), 0);
    assert_eq!(subflow_rtos(&client), 0);

    // Invariant 3: unacked data pending ⇒ there must be a future deadline.
    let deadline = client
        .poll_at(now)
        .expect("unacked data pending but no deadline: the loop would sleep forever");
    assert!(deadline > now);

    // First wakeup, grossly late: jitter spanning many nominal RTO
    // intervals. Invariant 1: each elapsed timer fires exactly once.
    now = deadline + Duration::from_secs(3);
    let retx1 = drain(&mut client, now);
    assert!(!retx1.is_empty(), "an elapsed RTO must retransmit");
    assert_eq!(
        data_rtos(&client),
        1,
        "a late tick must fire the data RTO once, not once per missed interval"
    );
    assert_eq!(
        subflow_rtos(&client),
        1,
        "a late tick must fire the subflow RTO once, not once per missed interval"
    );

    // Invariant 2: more ticks at the same instant change nothing.
    let again = drain(&mut client, now);
    assert!(
        again.is_empty(),
        "a repeated tick at the same now re-emitted"
    );
    assert_eq!(data_rtos(&client), 1);
    assert_eq!(subflow_rtos(&client), 1);

    // Second late wakeup: the timers re-armed relative to the late tick
    // (backoff included). Only the timer whose deadline elapsed fires —
    // exactly once each; the still-future one (the data RTO's interval
    // grows with the backed-off subflow RTO) stays untouched.
    let deadline2 = client.poll_at(now).expect("retransmission still pending");
    assert!(deadline2 > now, "re-armed deadline must be in the future");
    now = deadline2 + Duration::from_secs(2);
    let retx2 = drain(&mut client, now);
    assert!(!retx2.is_empty(), "the elapsed deadline must retransmit");
    let data2 = data_rtos(&client) - 1;
    let sub2 = subflow_rtos(&client) - 1;
    assert!(
        data2 <= 1 && sub2 <= 1,
        "no timer may fire more than once per tick (data +{data2}, subflow +{sub2})"
    );
    assert!(
        data2 + sub2 >= 1,
        "the timer owning the elapsed deadline must have fired"
    );

    // Heal the wire: deliver the retransmissions and let the exchange
    // run, sleeping until whichever endpoint's `poll_at` is earliest —
    // exactly what the real event loop does. If `poll_at` ever returned
    // `None` with data outstanding (a stall) or a past deadline, this
    // loop would panic. The connection recovers fully: jitter cost time,
    // nothing else.
    for seg in &retx2 {
        listener.handle_segment(now, seg);
    }
    let mut got = 0usize;
    for _ in 0..1000 {
        pump(&mut client, &mut listener, now);
        while let Some(b) = listener.conn_mut(0).read(usize::MAX).into_data() {
            got += b.len();
        }
        if got == DATA {
            break;
        }
        let next = [client.poll_at(now), listener.poll_at(now)]
            .into_iter()
            .flatten()
            .min()
            .expect("data outstanding but neither endpoint wants a wakeup");
        assert!(
            next > now,
            "deadline pinned to the past would spin the loop"
        );
        now = next;
    }
    assert_eq!(
        got, DATA,
        "server must deliver the full stream after recovery"
    );

    // All data acked: the data-level timer disarms; whatever deadline
    // remains (delayed-ack flush, etc.) is still strictly future.
    if let Some(t) = client.poll_at(now) {
        assert!(t > now);
    }
}

// ---------------------------------------------------------------------
// `tick` runs when something it reads has changed, not on every `poll`.
// ---------------------------------------------------------------------

/// A client on two paths and the listener it talks to, both subflows up.
fn two_path_pair(cfg: MptcpConfig, now: SimTime) -> (MptcpConnection, MptcpListener) {
    let path = |net: u32, port| FourTuple {
        src: Endpoint::new(net | 2, port),
        dst: Endpoint::new(net | 1, 80),
    };
    let first = path(0x0a00_0100, 4000);
    let mut client = MptcpConnection::client(cfg.clone(), first, now, SimRng::new(1));
    let mut listener = MptcpListener::new(cfg, 2);
    pump(&mut client, &mut listener, now);
    let second = path(0x0a00_0200, 4001);
    client
        .open_subflow(second.src, second.dst, now)
        .expect("open_subflow");
    pump(&mut client, &mut listener, now);
    let usable = |c: &MptcpConnection| c.subflows().iter().filter(|s| s.usable()).count();
    assert_eq!((usable(&client), usable(&listener.conns[0])), (2, 2));
    (client, listener)
}

/// Everything a connection reports about itself, as text.
fn observed(conn: &MptcpConnection, now: SimTime) -> (Option<SimTime>, String, String) {
    let trace = mptcp::telemetry::TraceWriter::to_jsonl(&conn.trace_snapshot());
    (conn.poll_at(now), conn.telemetry().to_json(), trace)
}

#[test]
fn polling_a_dry_connection_again_at_the_same_instant_changes_nothing() {
    let cfg = lax_cfg()
        .into_builder()
        .trace(mptcp::telemetry::TraceConfig::enabled())
        .build()
        .expect("valid config");
    let now = SimTime::from_millis(1);
    let (mut client, _listener) = two_path_pair(cfg, now);
    // More than two initial windows: data stays pending behind full
    // congestion windows, which is when a tick calls the scheduler and
    // counts a stall.
    assert_eq!(client.write(&[7u8; 64 * 1024]).accepted(), 64 * 1024);
    assert!(!drain(&mut client, now).is_empty());
    let stalls = client.telemetry().counter(CounterId::SchedulerStalls);
    assert!(stalls > 0, "work is pending and no path has room");

    let before = observed(&client, now);
    for _ in 0..3 {
        assert!(client.poll(now).is_none(), "a dry connection emitted");
    }
    assert!(before == observed(&client, now), "an idle poll left a mark");

    // Time moving on is a reason to tick; the same instant again is not.
    let later = now + Duration::from_micros(10);
    assert!(client.poll(later).is_none());
    let ticked = client.telemetry().counter(CounterId::SchedulerStalls);
    assert_eq!(ticked, stalls + 1, "one tick, one scheduler call");
    assert!(client.poll(later).is_none());
    assert_eq!(
        client.telemetry().counter(CounterId::SchedulerStalls),
        ticked
    );
}

#[test]
fn a_subflow_timer_firing_inside_a_drain_reaches_the_data_level_in_that_drain() {
    // Demote on the first RTO, fail on the second: the verdicts, the
    // reinjections they cause and the data-level timer (twice the
    // healthiest subflow's RTO) all hang on what `sock.poll` did a moment
    // ago, inside the same drain.
    let cfg = MptcpConfig::builder()
        .failure_detection(FailureDetection {
            suspect_after_rtos: 1,
            fail_after_rtos: 2,
            ..FailureDetection::default()
        })
        .build()
        .expect("valid config");
    let start = SimTime::from_millis(1);
    // Twins fed alike. `gated` is polled as is; `every` is dirtied before
    // each poll, so it ticks on every one, which is what `poll` used to do.
    let (mut gated, _l1) = two_path_pair(cfg.clone(), start);
    let (mut every, _l2) = two_path_pair(cfg, start);
    for c in [&mut gated, &mut every] {
        assert_eq!(c.write(&[3u8; 40 * 1024]).accepted(), 40 * 1024);
    }
    let mut now = start;
    let mut verdicts = Vec::new();
    // Everything either sends from here on is lost. Walk the deadlines.
    for wakeup in 0..40 {
        let out = drain(&mut gated, now);
        let mut reference = Vec::new();
        loop {
            every.subflows_mut();
            match every.poll(now) {
                Some(seg) => reference.push(seg),
                None => break,
            }
        }
        assert!(
            out == reference,
            "wakeup {wakeup} at {now:?}: segments differ"
        );
        assert_eq!(
            gated.poll_at(now),
            every.poll_at(now),
            "wakeup {wakeup} at {now:?}"
        );
        // `SchedulerStalls` counts scheduler calls, which is the one thing
        // the twins differ in by construction; every other counter and
        // every event must agree.
        let (g, e) = (gated.telemetry(), every.telemetry());
        for id in CounterId::ALL {
            if id != CounterId::SchedulerStalls {
                assert_eq!(g.counter(id), e.counter(id), "wakeup {wakeup}: {id:?}");
            }
        }
        assert!(g.events == e.events, "wakeup {wakeup} at {now:?}: events");
        let states = [gated.path_state(0), gated.path_state(1)];
        assert_eq!(states, [every.path_state(0), every.path_state(1)]);
        if verdicts.last() != Some(&states) {
            verdicts.push(states);
        }
        match gated.poll_at(now) {
            Some(t) => now = t,
            None => break,
        }
    }
    use mptcp::PathState::{Active, Failed, Suspect};
    assert!(
        verdicts.contains(&[Suspect, Suspect]) || verdicts.contains(&[Suspect, Active]),
        "no path was ever suspected: {verdicts:?}"
    );
    assert!(verdicts.iter().any(|v| v.contains(&Failed)), "{verdicts:?}");
    assert!(data_rtos(&gated) >= 1, "the data-level timer never fired");
    let t = gated.telemetry();
    assert!(t.counter(CounterId::PathSuspects) >= 1 && t.counter(CounterId::TcpRtos) >= 2);
}

#[test]
fn a_read_that_reopens_a_shut_window_is_advertised_at_the_same_instant() {
    const BUF: usize = 16 * 1024;
    let cfg = MptcpConfig::builder()
        .recv_buf(BUF)
        .build()
        .expect("valid config");
    let mut now = SimTime::from_millis(1);
    let (mut client, mut listener) = two_path_pair(cfg, now);
    // The application at the server does not read: the shared window shuts.
    let mut written = 0;
    for _ in 0..200 {
        written += client.write(&[9u8; 4096]).accepted();
        pump(&mut client, &mut listener, now);
        if listener.conns[0].rcv_window() == 0 {
            break;
        }
        now += Duration::from_millis(1);
    }
    assert!(written >= BUF);
    assert_eq!(listener.conns[0].rcv_window(), 0, "window never shut");
    let mut out = Vec::new();
    listener.poll(now, &mut out);
    assert!(out.is_empty(), "the server is polled dry");

    // One read empties the buffer. The window update must not wait for
    // the clock to move or a segment to arrive.
    let server = listener.conn_mut(0);
    let mut freed = 0;
    while let Some(data) = server.read(usize::MAX).into_data() {
        freed += data.len();
    }
    assert!(freed >= BUF / 2);
    let update = server
        .poll(now)
        .expect("no window update at the instant of the read");
    assert!(update.payload.is_empty() && update.window as usize >= freed);
}
