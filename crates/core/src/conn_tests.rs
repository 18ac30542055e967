//! End-to-end connection tests over an in-memory wire.
//!
//! These drive a client [`MptcpConnection`] against a server
//! [`MptcpListener`] through a tiny deterministic wire with per-path
//! delays and an optional mangler (a one-closure middlebox). The heavier
//! scenario tests live in the workspace-level `tests/` directory on top of
//! the full simulator; these verify the protocol machine in isolation.

use std::collections::HashMap;

use mptcp_netsim::{Duration, SimTime};
use mptcp_packet::mptcp_opts::AdvertisedAddr;
use mptcp_packet::{Endpoint, FourTuple, MptcpOption, TcpOption, TcpSegment};

use mptcp_telemetry::{CounterId, EventKind, FallbackCause, TraceConfig};

use crate::api::{AbortReason, WriteOutcome};
use crate::config::{FailureDetection, Mechanisms, MptcpConfig};
use crate::conn::MptcpConnection;
use crate::endpoint::MptcpListener;
use crate::health::PathState;
use crate::pm::{EndpointFlags, PathManagerCfg, PmEndpoint, PmPolicy};
use crate::sched::SchedulerKind;
use mptcp_tcpstack::CcAlgorithm;

const C1: u32 = 0x0a000001; // client addr 1
const C2: u32 = 0x0a000002; // client addr 2
const S1: u32 = 0x0a000063; // server addr

fn tuple(src: u32, sport: u16) -> FourTuple {
    FourTuple {
        src: Endpoint::new(src, sport),
        dst: Endpoint::new(S1, 80),
    }
}

type Mangler = Box<dyn FnMut(SimTime, TcpSegment) -> Option<TcpSegment>>;

/// A deterministic in-memory wire between one client and one listener.
struct Wire {
    now: SimTime,
    client: MptcpConnection,
    server: MptcpListener,
    delays: HashMap<(u32, u32), Duration>,
    inflight: Vec<(SimTime, TcpSegment)>,
    mangle: Option<Mangler>,
    seq: u64,
}

impl Wire {
    fn new(client: MptcpConnection, server: MptcpListener) -> Wire {
        let mut delays = HashMap::new();
        for (a, b) in [(C1, S1), (C2, S1)] {
            delays.insert((a, b), Duration::from_millis(5));
            delays.insert((b, a), Duration::from_millis(5));
        }
        Wire {
            now: SimTime::ZERO,
            client,
            server,
            delays,
            inflight: Vec::new(),
            mangle: None,
            seq: 0,
        }
    }

    fn set_delay(&mut self, a: u32, b: u32, d: Duration) {
        self.delays.insert((a, b), d);
        self.delays.insert((b, a), d);
    }

    fn transmit(&mut self, seg: TcpSegment) {
        let seg = match &mut self.mangle {
            Some(f) => match f(self.now, seg) {
                Some(s) => s,
                None => return, // dropped by the "middlebox"
            },
            None => seg,
        };
        let d = self
            .delays
            .get(&(seg.tuple.src.addr, seg.tuple.dst.addr))
            .copied()
            .unwrap_or(Duration::from_millis(5));
        self.seq += 1;
        self.inflight.push((self.now + d, seg));
    }

    /// Run until quiescent or `deadline`.
    fn run(&mut self, deadline: SimTime) {
        for _ in 0..1_000_000 {
            // Drain both endpoints.
            loop {
                let mut sent = false;
                while let Some(seg) = self.client.poll(self.now) {
                    self.transmit(seg);
                    sent = true;
                }
                let mut out = Vec::new();
                self.server.poll(self.now, &mut out);
                for seg in out.drain(..) {
                    self.transmit(seg);
                    sent = true;
                }
                if !sent {
                    break;
                }
            }
            // Advance to the next event.
            let next_delivery = self.inflight.iter().map(|(t, _)| *t).min();
            let next_timer = [self.client.poll_at(self.now), self.server.poll_at(self.now)]
                .into_iter()
                .flatten()
                .min();
            let next = match (next_delivery, next_timer) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => return,
            };
            if next > deadline {
                self.now = deadline;
                return;
            }
            self.now = self.now.max(next);
            // Deliver due segments in order.
            let now = self.now;
            let mut due: Vec<(SimTime, TcpSegment)> = Vec::new();
            self.inflight.retain_mut(|(t, seg)| {
                if *t <= now {
                    due.push((*t, seg.clone()));
                    false
                } else {
                    true
                }
            });
            due.sort_by_key(|(t, _)| *t);
            for (_, seg) in due {
                if seg.tuple.dst.addr == S1 {
                    self.server.handle_segment(now, &seg);
                } else {
                    self.client.handle_segment(now, &seg);
                }
            }
        }
        panic!("wire did not quiesce");
    }
}

fn client_conn(cfg: MptcpConfig) -> MptcpConnection {
    MptcpConnection::client(
        cfg,
        tuple(C1, 1000),
        SimTime::ZERO,
        mptcp_netsim::SimRng::new(11),
    )
}

fn setup(cfg: MptcpConfig) -> Wire {
    let client = client_conn(cfg.clone());
    let server = MptcpListener::new(cfg, 22);
    Wire::new(client, server)
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

fn read_all(conn: &mut MptcpConnection) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some(b) = conn.read(usize::MAX).into_data() {
        out.extend_from_slice(&b);
    }
    out
}

fn server_conn(w: &mut Wire) -> &mut MptcpConnection {
    assert_eq!(w.server.len(), 1);
    w.server.conn_mut(0)
}

#[test]
fn mptcp_handshake_establishes() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_secs(1));
    assert!(w.client.is_established());
    assert!(!w.client.is_fallback());
    let s = server_conn(&mut w);
    assert!(s.is_established());
    assert!(!s.is_fallback());
}

#[test]
fn bulk_transfer_single_subflow() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    let data = pattern(100_000);
    let mut written = 0;
    while written < data.len() {
        written += w.client.write(&data[written..]).accepted();
        w.run(w.now + Duration::from_millis(50));
    }
    w.run(w.now + Duration::from_secs(2));
    let got = read_all(server_conn(&mut w));
    assert_eq!(got.len(), data.len());
    assert_eq!(got, data);
    // MPTCP stayed MPTCP.
    assert!(!w.client.is_fallback());
}

#[test]
fn two_subflows_carry_the_stream() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    assert!(w
        .client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now)
        .is_ok());
    w.run(w.now + Duration::from_millis(200));
    // Both subflows usable on both sides.
    assert_eq!(w.client.subflows().iter().filter(|s| s.usable()).count(), 2);

    let data = pattern(300_000);
    let mut written = 0;
    while written < data.len() {
        written += w.client.write(&data[written..]).accepted();
        w.run(w.now + Duration::from_millis(20));
    }
    w.run(w.now + Duration::from_secs(3));
    let got = read_all(server_conn(&mut w));
    assert_eq!(got, data);
    // Both subflows moved real payload (measured at the sending client).
    let per_subflow: Vec<u64> = w
        .client
        .subflows()
        .iter()
        .map(|sf| sf.sock.stats.bytes_acked)
        .collect();
    assert_eq!(per_subflow.len(), 2);
    assert!(per_subflow.iter().all(|&b| b > 10_000), "{per_subflow:?}");
}

#[test]
fn duplicate_subflow_not_opened() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    assert!(w
        .client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now)
        .is_ok());
    assert_eq!(
        w.client
            .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now),
        Err(crate::api::SubflowError::DuplicateSubflow)
    );
}

#[test]
fn the_subflow_limit_is_a_constant_both_ends_enforce() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    let remote = Endpoint::new(S1, 80);
    for k in 1..crate::MAX_SUBFLOWS as u16 {
        let local = Endpoint::new(C2, 1000 + k);
        assert!(w.client.open_subflow(local, remote, w.now).is_ok(), "{k}");
    }
    assert_eq!(
        w.client
            .open_subflow(Endpoint::new(C2, 2000), remote, w.now),
        Err(crate::api::SubflowError::SubflowLimit)
    );
    w.run(w.now + Duration::from_millis(200));
    let usable = |c: &MptcpConnection| c.subflows().iter().filter(|s| s.usable()).count();
    assert_eq!(usable(&w.client), crate::MAX_SUBFLOWS);
    assert_eq!(usable(server_conn(&mut w)), crate::MAX_SUBFLOWS);
    // A join the client is not limited from sending is refused by the
    // server: forge one with the right token.
    let mut syn = client_conn(MptcpConfig::default())
        .poll(SimTime::ZERO)
        .expect("a SYN to borrow");
    syn.tuple = tuple(C2, 3000);
    let token = server_conn(&mut w).local_token();
    syn.options = vec![TcpOption::Mptcp(MptcpOption::MpJoinSyn {
        token,
        nonce: 7,
        addr_id: 9,
        backup: false,
    })];
    let now = w.now;
    assert_eq!(
        server_conn(&mut w).accept_join(&syn, now),
        Err(crate::api::JoinError::SubflowLimit)
    );
}

#[test]
fn join_synack_mac_verified() {
    // Corrupt the MP_JOIN SYN/ACK MAC in flight: the client must reset
    // the subflow rather than attach it.
    let mut w = setup(
        MptcpConfig::builder()
            .trace(TraceConfig::enabled())
            .build()
            .unwrap(),
    );
    w.run(SimTime::from_millis(100));
    w.mangle = Some(Box::new(|_, mut seg: TcpSegment| {
        for o in &mut seg.options {
            if let TcpOption::Mptcp(MptcpOption::MpJoinSynAck { mac, .. }) = o {
                *mac ^= 0xdead;
            }
        }
        Some(seg)
    }));
    let _ = w
        .client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now);
    w.run(w.now + Duration::from_millis(300));
    assert_eq!(w.client.telemetry().counter(CounterId::JoinsRejected), 1);
    // The rejection and the reset are both marked in the trace.
    let trace = w.client.trace_snapshot();
    let spans: Vec<&str> = trace.spans().map(|(_, _, k)| k.name()).collect();
    assert!(spans.contains(&"join_rejected"), "{spans:?}");
    assert!(spans.contains(&"subflow_reset"), "{spans:?}");
    assert_eq!(w.client.subflows().iter().filter(|s| s.usable()).count(), 1);
    // The original subflow still works.
    w.mangle = None;
    w.client.write(b"still alive");
    w.run(w.now + Duration::from_millis(200));
    assert_eq!(read_all(server_conn(&mut w)), b"still alive");
}

#[test]
fn join_ack_hmac_verified() {
    // The server's side of the same check: corrupt the client's full HMAC
    // on the join's third ACK, and the server must reset the join.
    let mut w = setup(
        MptcpConfig::builder()
            .trace(TraceConfig::enabled())
            .build()
            .unwrap(),
    );
    w.run(SimTime::from_millis(100));
    w.mangle = Some(Box::new(|_, mut seg: TcpSegment| {
        for o in &mut seg.options {
            if let TcpOption::Mptcp(MptcpOption::MpJoinAck { mac }) = o {
                mac[0] ^= 0xff;
            }
        }
        Some(seg)
    }));
    let _ = w
        .client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now);
    w.run(w.now + Duration::from_millis(300));
    let s = server_conn(&mut w);
    assert_eq!(s.telemetry().counter(CounterId::JoinsRejected), 1);
    let trace = s.trace_snapshot();
    let spans: Vec<&str> = trace.spans().map(|(_, _, k)| k.name()).collect();
    assert!(spans.contains(&"join_rejected"), "{spans:?}");
    assert!(spans.contains(&"subflow_reset"), "{spans:?}");
    assert_eq!(s.subflows().iter().filter(|s| s.usable()).count(), 1);
    // The reset reaches the client, and the original subflow still works.
    assert_eq!(w.client.subflows().iter().filter(|s| s.usable()).count(), 1);
    w.mangle = None;
    w.client.write(b"still alive");
    w.run(w.now + Duration::from_millis(200));
    assert_eq!(read_all(server_conn(&mut w)), b"still alive");
}

#[test]
fn data_fin_teardown() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    w.client.write(b"goodbye");
    w.client.close();
    w.run(w.now + Duration::from_secs(1));
    {
        let s = server_conn(&mut w);
        assert_eq!(read_all(s), b"goodbye");
        assert!(s.at_eof(), "server sees DATA_FIN EOF");
        s.close();
    }
    w.run(w.now + Duration::from_secs(1));
    assert!(w.client.at_eof());
    assert!(w.client.send_closed());
    let s = server_conn(&mut w);
    assert!(s.send_closed());
}

#[test]
fn fallback_when_syn_options_stripped() {
    let mut w = setup(MptcpConfig::default());
    // Middlebox strips MPTCP options from SYNs only.
    w.mangle = Some(Box::new(|_, mut seg: TcpSegment| {
        if seg.flags.syn {
            seg.options.retain(|o| !o.is_mptcp());
        }
        Some(seg)
    }));
    w.run(SimTime::from_millis(100));
    assert!(w.client.is_fallback(), "client falls back to TCP");
    w.client.write(b"plain old tcp");
    w.run(w.now + Duration::from_millis(300));
    let s = server_conn(&mut w);
    assert!(s.is_fallback());
    assert_eq!(read_all(s), b"plain old tcp");
}

#[test]
fn fallback_when_synack_options_stripped() {
    // The asymmetric §3.1 hazard: server said MP_CAPABLE but the client
    // never saw it. The server must detect the plain third ACK and drop
    // to TCP.
    let mut w = setup(MptcpConfig::default());
    w.mangle = Some(Box::new(|_, mut seg: TcpSegment| {
        if seg.flags.syn && seg.flags.ack {
            seg.options.retain(|o| !o.is_mptcp());
        }
        Some(seg)
    }));
    w.run(SimTime::from_millis(100));
    assert!(w.client.is_fallback());
    w.client.write(b"asymmetric");
    w.run(w.now + Duration::from_millis(300));
    let s = server_conn(&mut w);
    assert!(s.is_fallback(), "server detected the mismatch");
    assert_eq!(read_all(s), b"asymmetric");
}

#[test]
fn fallback_when_data_options_stripped() {
    // Options negotiated on SYNs but stripped from data segments — the
    // §3.3.6 mid-stream case: both sides must fall back and the stream
    // must still be delivered intact.
    let mut w = setup(MptcpConfig::default());
    w.mangle = Some(Box::new(|_, mut seg: TcpSegment| {
        if !seg.flags.syn {
            seg.options.retain(|o| !o.is_mptcp());
        }
        Some(seg)
    }));
    w.run(SimTime::from_millis(100));
    let data = pattern(50_000);
    let mut written = 0;
    while written < data.len() {
        written += w.client.write(&data[written..]).accepted();
        w.run(w.now + Duration::from_millis(50));
    }
    w.run(w.now + Duration::from_secs(2));
    let s = server_conn(&mut w);
    assert!(s.is_fallback());
    assert_eq!(read_all(s), data);
}

#[test]
fn telemetry_snapshot_keeps_a_late_fallback_over_old_subflow_events() {
    // One lossy subflow can fill its socket's event ring long before the
    // connection falls back. The merged snapshot is chronological and
    // keeps the newest events, so the fallback — and its cause — survive.
    let mut w = setup(MptcpConfig::default());
    w.mangle = Some(Box::new(|_, mut seg: TcpSegment| {
        if !seg.flags.syn {
            seg.options.retain(|o| !o.is_mptcp());
        }
        Some(seg)
    }));
    w.run(SimTime::from_millis(100));
    let sock = &mut server_conn(&mut w).subflows_mut()[0].sock;
    for i in 0..300u32 {
        let kind = EventKind::TcpFastRetransmit { subflow: 0, seq: i };
        sock.telemetry.note(u64::from(i), kind);
    }
    w.client.write(&pattern(20_000));
    w.run(w.now + Duration::from_secs(2));
    let s = server_conn(&mut w);
    assert!(s.is_fallback());
    let t = s.telemetry();
    assert_eq!(t.counter(CounterId::Fallbacks), 1);
    assert_eq!(t.fallback_causes().len(), 1, "the cause was evicted");
    assert!(
        t.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns),
        "merged events are not in time order"
    );
    assert_eq!(t.events.len(), 256);
    assert_eq!(t.events_total, t.events.len() as u64 + t.events_dropped);
    assert!(t.events_total > 300);
}

#[test]
fn subflow_failure_recovers_on_other_path() {
    // Mid-transfer, one path goes dark (all segments dropped). The
    // connection must finish over the surviving subflow — the paper's
    // robustness goal.
    let mut w = setup(MptcpConfig::builder().buffers(256 * 1024).build().unwrap());
    w.run(SimTime::from_millis(100));
    let _ = w
        .client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now);
    w.run(w.now + Duration::from_millis(200));

    // Kill path C2<->S1 before any data moves: every chunk the
    // scheduler places on the doomed subflow is stranded and must be
    // re-injected onto the surviving path.
    w.mangle = Some(Box::new(|_, seg: TcpSegment| {
        if seg.tuple.src.addr == C2 || seg.tuple.dst.addr == C2 {
            None
        } else {
            Some(seg)
        }
    }));
    let data = pattern(200_000);
    let mut written = w.client.write(&data).accepted();
    while written < data.len() {
        written += w.client.write(&data[written..]).accepted();
        w.run(w.now + Duration::from_millis(100));
    }
    // Allow data-level retransmission to reroute stranded chunks.
    w.run(w.now + Duration::from_secs(30));
    let got = read_all(server_conn(&mut w));
    assert_eq!(
        got.len(),
        data.len(),
        "transfer completed despite path death"
    );
    assert_eq!(got, data);
    // Recovery may come from the data-level timer, dead-subflow
    // re-injection, or M1 walking the stranded range — any of them proves
    // the chunks were re-routed.
    let t = w.client.telemetry();
    let rerouted = w.client.stats.reinjections
        + t.counter(CounterId::M1Reinjections)
        + t.counter(CounterId::DataRtos);
    assert!(rerouted > 0, "chunks were re-routed: {:?}", w.client.stats);
}

#[test]
fn path_blackout_fails_and_recovers() {
    // A 3 s blackout on one of two paths: the failure detector must
    // demote it (Suspect -> Failed), reinject its in-flight chunks on the
    // survivor so the stream keeps flowing, and promote it back to Active
    // once the blackout lifts — all visible in stats and telemetry.
    let mut w = setup(MptcpConfig::builder().buffers(256 * 1024).build().unwrap());
    // Make C2 the scheduler's preferred (lowest-RTT) path so the blackout
    // hits a path that is actually carrying the stream.
    w.set_delay(C1, S1, Duration::from_millis(100));
    w.run(SimTime::from_millis(300));
    let _ = w
        .client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now);
    w.run(w.now + Duration::from_millis(300));

    let from = w.now + Duration::from_millis(300);
    let until = from + Duration::from_secs(3);
    w.mangle = Some(Box::new(move |t, seg| {
        let on_c2 = seg.tuple.src.addr == C2 || seg.tuple.dst.addr == C2;
        (!on_c2 || t < from || t >= until).then_some(seg)
    }));

    // Stream continuously through the blackout and past recovery.
    let data = pattern(2_000_000);
    let mut written = 0;
    let mut got = Vec::new();
    let deadline = until + Duration::from_secs(4);
    while w.now < deadline {
        if written < data.len() {
            written += w.client.write(&data[written..]).accepted();
        }
        let target = w.now + Duration::from_millis(50);
        w.run(target);
        // A quiescent wire leaves `now` untouched; step it so the
        // timeline reaches the blackout window regardless.
        w.now = w.now.max(target);
        got.extend_from_slice(&read_all(server_conn(&mut w)));
    }
    w.run(w.now + Duration::from_secs(5));
    got.extend_from_slice(&read_all(server_conn(&mut w)));

    // Exactly-once, in-order delivery of everything written.
    assert_eq!(got.len(), written, "all written bytes delivered");
    assert_eq!(got, data[..got.len()], "stream content intact");
    let t = w.client.telemetry();
    assert!(t.counter(CounterId::PathFailures) >= 1, "blackout detected");
    assert!(
        t.counter(CounterId::PathRecoveries) >= 1,
        "recovery detected"
    );
    assert!(
        w.client.stats.reinjections >= 1,
        "break-before-make reinjection: {:?}",
        w.client.stats
    );
    assert_eq!(
        w.client.path_state(1),
        PathState::Active,
        "path promoted back after the blackout"
    );
    let tel = w.client.telemetry();
    assert!(tel.counter(CounterId::PathSuspects) >= 1);
    assert!(tel.counter(CounterId::PathFailures) >= 1);
    assert!(tel.counter(CounterId::PathRecoveries) >= 1);
    assert!(tel
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::PathFailed { subflow: 1, .. })));
    assert!(tel
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::PathRecovered { subflow: 1 })));
}

#[test]
fn all_paths_blackout_aborts_with_typed_reason() {
    // When every path goes dark and stays dark, the connection must fail
    // loudly — a typed abort after the configured deadline — never hang.
    let fd = FailureDetection {
        abort_deadline: Duration::from_secs(2),
        ..FailureDetection::default()
    };
    let cfg = MptcpConfig::builder()
        .buffers(256 * 1024)
        .failure_detection(fd)
        .build()
        .unwrap();
    let mut w = setup(cfg);
    w.run(SimTime::from_millis(100));
    assert!(w.client.is_established());
    // Exchange data first so MPTCP is confirmed — an unconfirmed client
    // treats a data-level timeout as option stripping and falls back,
    // which is the correct §3.3.6 behaviour but not what we test here.
    w.client.write(&pattern(10_000));
    w.run(w.now + Duration::from_millis(300));
    let _ = read_all(server_conn(&mut w));

    let from = w.now;
    w.mangle = Some(Box::new(move |t, seg| (t < from).then_some(seg)));
    // Data written into the blackout: RTOs accumulate, the only path goes
    // Failed, and the abort deadline starts counting.
    w.client.write(&pattern(50_000));
    w.run(w.now + Duration::from_secs(30));

    assert_eq!(w.client.abort_reason(), Some(AbortReason::AllPathsFailed));
    assert!(!w.client.is_established());
    let tel = w.client.telemetry();
    assert!(tel.counter(CounterId::PathFailures) >= 1);
    assert_eq!(tel.counter(CounterId::ConnAborts), 1);
    // The abort happened promptly: detection (a few capped RTOs) plus the
    // 2 s deadline, with slack — not at the 30 s horizon.
    let abort_at = tel
        .events
        .iter()
        .find(|e| matches!(e.kind, EventKind::ConnAborted { code: 0 }))
        .expect("ConnAborted event recorded")
        .at_ns;
    assert!(
        abort_at <= (from + Duration::from_secs(8)).0,
        "abort within deadline + detection slack, got {abort_at}"
    );
}

#[test]
fn remove_addr_of_last_subflow_aborts_not_stalls() {
    // Satellite: withdrawing the address under the only live subflow must
    // produce a typed abort and a telemetry event, not a silent stall.
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    assert!(w.client.is_established());

    let t = w.now;
    w.client.local_addr_down(C1, t);

    assert_eq!(
        w.client.abort_reason(),
        Some(AbortReason::LastSubflowRemoved)
    );
    assert_eq!(w.client.write(b"x"), WriteOutcome::Closed);
    let tel = w.client.telemetry();
    assert_eq!(tel.counter(CounterId::ConnAborts), 1);
    assert!(tel
        .events
        .iter()
        .any(|e| matches!(e.kind, EventKind::ConnAborted { code: 1 })));
    // The wire drains the RSTs without livelocking on stale timers.
    w.run(w.now + Duration::from_secs(2));
}

#[test]
fn add_addr_event_surfaces() {
    // The server's path manager advertises its `signal` endpoint as soon
    // as MPTCP is confirmed.
    let signal = PmEndpoint::new(0x0a000064, EndpointFlags::SIGNAL).with_port(80);
    let server_cfg = MptcpConfig::builder()
        .path_manager(PathManagerCfg::default().endpoint(signal))
        .build()
        .expect("a signal endpoint is a valid path-manager config");
    let client = client_conn(MptcpConfig::default());
    let mut w = Wire::new(client, MptcpListener::new(server_cfg, 22));
    w.run(SimTime::from_millis(200));
    let t = w.client.telemetry();
    assert_eq!(t.counter(CounterId::AddAddrsReceived), 1);
    assert!(
        t.events.iter().any(|e| matches!(
            e.kind,
            EventKind::AddAddr {
                addr: 0x0a000064,
                sent: 0,
                ..
            }
        )),
        "{:?}",
        t.events
    );
    // The path manager learned the address and joined toward it.
    assert_eq!(w.client.path_manager().remotes_accepted(), 1);
    assert_eq!(w.client.path_manager().subflows_opened(), 1);
}

/// The server advertises `ADVERTISED` as soon as MPTCP is confirmed; the
/// client's path manager never joins toward it, so nothing echoes the
/// advertisement and the server sends it four times (once, then three
/// retransmits a second apart). `rewrite` may change each copy in flight,
/// numbered from 1.
fn unechoed_add_addr(mut rewrite: impl FnMut(u32, &mut AdvertisedAddr) + 'static) -> Wire {
    let signal = PmEndpoint::new(ADVERTISED, EndpointFlags::SIGNAL).with_port(80);
    let server_cfg = MptcpConfig::builder()
        .path_manager(PathManagerCfg::default().endpoint(signal))
        .build()
        .expect("a signal endpoint is a valid path-manager config");
    let client_cfg = MptcpConfig::builder()
        .path_manager(PathManagerCfg::new(PmPolicy::SignalOnly))
        .build()
        .expect("a policy alone is a valid path-manager config");
    let mut w = Wire::new(client_conn(client_cfg), MptcpListener::new(server_cfg, 22));
    let mut sent = 0;
    w.mangle = Some(Box::new(move |_, mut seg: TcpSegment| {
        for o in &mut seg.options {
            if let TcpOption::Mptcp(MptcpOption::AddAddr(a)) = o {
                sent += 1;
                rewrite(sent, a);
            }
        }
        Some(seg)
    }));
    w.run(SimTime::from_secs(5));
    w
}

const ADVERTISED: u32 = 0x0a000064;

/// The `(addr, id)` of every ADD_ADDR the client took as news.
fn add_addrs_learned(conn: &MptcpConnection) -> Vec<(u32, u32)> {
    let t = conn.telemetry();
    let learned = t.events.iter().filter_map(|e| match e.kind {
        EventKind::AddAddr { addr, id, sent: 0 } => Some((addr, id)),
        _ => None,
    });
    learned.collect()
}

#[test]
fn a_repeated_add_addr_is_one_event_and_one_remote() {
    let w = unechoed_add_addr(|_, _| {});
    let server = &w.server.conns[0];
    assert_eq!(server.telemetry().counter(CounterId::AddAddrRetransmits), 3);
    assert_eq!(w.client.telemetry().counter(CounterId::AddAddrsReceived), 1);
    assert_eq!(add_addrs_learned(&w.client).len(), 1);
    assert_eq!(w.client.path_manager().remotes_accepted(), 1);
    assert_eq!(w.client.path_manager().subflows_opened(), 0);
}

#[test]
fn an_add_addr_with_a_known_id_and_a_new_address_replaces_it() {
    // Copies 2 and 3 name another address under the same id, copy 4 the
    // first one again: the id's entry now holds the second address, so
    // only the first copy of each change is news.
    const MOVED: u32 = 0x0a000065;
    let w = unechoed_add_addr(|n, a| {
        if n == 2 || n == 3 {
            a.addr = MOVED;
        }
    });
    let learned = add_addrs_learned(&w.client);
    let id = learned[0].1;
    assert_eq!(
        learned,
        vec![(ADVERTISED, id), (MOVED, id), (ADVERTISED, id)]
    );
}

#[test]
fn add_addr_retransmits_keep_their_addr_id() {
    let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let log = seen.clone();
    let _w = unechoed_add_addr(move |_, a| log.borrow_mut().push(*a));
    let seen = seen.borrow();
    assert_eq!(seen.len(), 4, "{seen:?}");
    assert!(seen.iter().all(|a| *a == seen[0]), "{seen:?}");
    assert_eq!((seen[0].addr, seen[0].port), (ADVERTISED, Some(80)));
}

#[test]
fn remove_addr_of_an_unknown_id_touches_no_subflow() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    let _ = w
        .client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now);
    w.run(w.now + Duration::from_millis(200));
    assert_eq!(w.client.subflows().iter().filter(|s| s.usable()).count(), 2);

    // No address and no subflow of either end was ever given id 42.
    let mut forged = false;
    w.mangle = Some(Box::new(move |_, mut seg: TcpSegment| {
        if seg.tuple.dst.addr != S1 && !std::mem::replace(&mut forged, true) {
            let remove = MptcpOption::RemoveAddr { addr_ids: vec![42] };
            seg.options.push(TcpOption::Mptcp(remove));
        }
        Some(seg)
    }));
    w.client.write(b"ping");
    w.run(w.now + Duration::from_millis(300));
    let t = w.client.telemetry();
    assert_eq!(t.counter(CounterId::RemoveAddrUnknown), 1);
    assert_eq!(t.counter(CounterId::RemoveAddrsReceived), 0);
    assert_eq!(w.client.subflows().iter().filter(|s| s.usable()).count(), 2);
    assert_eq!(read_all(server_conn(&mut w)), b"ping");
}

#[test]
fn a_four_tuple_whose_subflow_died_can_be_joined_again() {
    // §3.4: a NAT binding times out, or an interface goes away and comes
    // back — the host re-joins from the same address and port. Both ends
    // still hold the dead subflow on that four-tuple; the new one must
    // come up beside it, and carry data.
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    let (local, remote) = (Endpoint::new(C2, 1001), Endpoint::new(S1, 80));
    let first = w.client.open_subflow(local, remote, w.now).expect("join");
    w.run(w.now + Duration::from_millis(200));
    assert_eq!(w.client.subflows().iter().filter(|s| s.usable()).count(), 2);

    w.client.subflows_mut()[first.0].sock.abort();
    w.run(w.now + Duration::from_millis(200));
    assert!(w.client.subflows()[first.0].dead);
    assert!(server_conn(&mut w).subflows()[1].dead, "the RST arrived");

    let again = w
        .client
        .open_subflow(local, remote, w.now)
        .expect("re-join");
    assert_ne!(again, first);
    w.run(w.now + Duration::from_secs(5));
    assert_eq!(w.client.subflows().iter().filter(|s| s.usable()).count(), 2);
    let s = server_conn(&mut w);
    assert_eq!(s.subflows().len(), 3);
    assert_eq!(s.subflows().iter().filter(|sf| sf.usable()).count(), 2);

    // The new subflow is the preferred path and takes the stream.
    w.set_delay(C1, S1, Duration::from_millis(50));
    let data = pattern(100_000);
    assert_eq!(w.client.write(&data).accepted(), data.len());
    w.run(w.now + Duration::from_secs(3));
    assert_eq!(read_all(server_conn(&mut w)), data);
    let rejoined = &w.client.subflows()[again.0].sock;
    assert!(rejoined.stats.bytes_acked > 50_000, "{:?}", rejoined.stats);
}

#[test]
fn mechanisms_fire_on_asymmetric_paths() {
    // A slow, bufferbloated path plus a fast one, small shared buffer:
    // M1 (opportunistic retransmission) and M2 (penalization) must
    // engage to keep the fast path flowing (§4.2, Figure 4).
    let cfg = MptcpConfig::builder()
        .buffers(64 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .build()
        .unwrap();
    let mut w = setup(cfg);
    w.set_delay(C2, S1, Duration::from_millis(150));
    w.run(SimTime::from_millis(100));
    let _ = w
        .client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now);
    w.run(w.now + Duration::from_millis(400));

    let data = pattern(2_000_000);
    let mut written = 0;
    let deadline = SimTime::from_secs(20);
    while written < data.len() && w.now < deadline {
        written += w.client.write(&data[written..]).accepted();
        w.run(w.now + Duration::from_millis(20));
        // Reader keeps up.
        let _ = read_all(server_conn(&mut w));
    }
    assert!(
        w.client.telemetry().counter(CounterId::M1Reinjections) > 0,
        "M1 engaged: {:?}",
        w.client.stats
    );
}

#[test]
fn sender_memory_freed_only_by_data_ack() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    w.client.write(&pattern(10_000));
    // Before any exchange: all 10 KB retained at the sender.
    assert!(w.client.sender_memory() >= 10_000);
    w.run(w.now + Duration::from_secs(1));
    // After DATA_ACKs: nothing retained.
    assert_eq!(w.client.sender_memory(), 0);
}

#[test]
fn receiver_window_is_shared_pool() {
    // The advertised window on every subflow reflects the connection
    // buffer, not per-subflow state (§3.3.1).
    let mut w = setup(MptcpConfig::builder().buffers(100_000).build().unwrap());
    w.run(SimTime::from_millis(100));
    w.client.write(&pattern(60_000));
    w.run(w.now + Duration::from_secs(1));
    let s = server_conn(&mut w);
    // 60 KB undelivered to the app: window shrank accordingly.
    assert!(s.rcv_window() <= 40_000, "window = {}", s.rcv_window());
    let _ = read_all(s);
    assert!(s.rcv_window() > 90_000);
}

#[test]
fn remove_addr_closes_matching_subflows() {
    // §3.4: mobility — a host that loses an address cannot FIN its
    // subflows; REMOVE_ADDR lets the peer clean up.
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    let _ = w
        .client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now);
    w.run(w.now + Duration::from_millis(200));
    assert_eq!(w.client.subflows().iter().filter(|s| s.usable()).count(), 2);

    // The client loses its second address: REMOVE_ADDR for the join's
    // addr_id goes out on the surviving subflow.
    let t = w.now;
    w.client.local_addr_down(C2, t);
    w.run(w.now + Duration::from_millis(300));
    // The server killed the matching subflow...
    let s = server_conn(&mut w);
    assert_eq!(
        s.subflows().iter().filter(|sf| sf.usable()).count(),
        1,
        "server should have closed the withdrawn subflow"
    );
    // ...and data still flows on the surviving one.
    w.client.write(b"post-mobility data");
    w.run(w.now + Duration::from_millis(300));
    assert_eq!(read_all(server_conn(&mut w)), b"post-mobility data");
}

#[test]
fn backup_subflows_only_used_as_last_resort() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    let _ = w
        .client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now);
    w.run(w.now + Duration::from_millis(200));
    // Mark the second subflow as backup.
    w.client.subflows_mut()[1].backup = true;

    let data = pattern(200_000);
    let mut written = 0;
    while written < data.len() {
        written += w.client.write(&data[written..]).accepted();
        w.run(w.now + Duration::from_millis(50));
    }
    w.run(w.now + Duration::from_secs(2));
    assert_eq!(read_all(server_conn(&mut w)).len(), data.len());
    // The backup subflow carried (essentially) nothing.
    let backup_bytes = w.client.subflows()[1].sock.stats.bytes_acked;
    assert!(
        backup_bytes < 5_000,
        "backup subflow moved {backup_bytes} bytes"
    );
}

#[test]
fn fastclose_aborts_connection() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    // Forge a FASTCLOSE from the server side (the option handler aborts).
    use mptcp_packet::{TcpFlags, TcpSegment as Seg};
    let remote_key = 0; // value is informational in our model
    let sf_tuple = w.client.subflows()[0].sock.tuple();
    let mut seg = Seg::new(
        sf_tuple.reversed(),
        mptcp_packet::SeqNum(1),
        mptcp_packet::SeqNum(1),
        TcpFlags::ACK,
    );
    seg.options.push(TcpOption::Mptcp(MptcpOption::FastClose {
        receiver_key: remote_key,
    }));
    w.client.handle_segment(w.now, &seg);
    assert_eq!(w.client.state(), crate::conn::ConnState::Closed);
}

#[test]
fn data_fin_retransmitted_if_lost() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    w.client.write(b"final words");
    w.client.close();
    // Drop every segment carrying a DATA_FIN, once.
    let mut dropped = 0u32;
    w.mangle = Some(Box::new(move |_, seg: TcpSegment| {
        let has_fin = seg
            .mptcp_options()
            .any(|m| matches!(m, MptcpOption::Dss { data_fin: true, .. }));
        if has_fin && dropped < 1 {
            dropped += 1;
            return None;
        }
        Some(seg)
    }));
    w.run(w.now + Duration::from_secs(5));
    let s = server_conn(&mut w);
    assert_eq!(read_all(s), b"final words");
    assert!(s.at_eof(), "DATA_FIN must be retransmitted after loss");
}

/// The server writes and closes in one go, so its DATA_FIN rides the one
/// chunk's mapping; that chunk goes out on the initial subflow, whose
/// data never arrives. The copy the data-level timer reinjects onto the
/// joined subflow carries the DATA_FIN too, and no separate DATA_FIN is
/// sent.
#[test]
fn a_reinjected_last_chunk_still_carries_the_data_fin() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    w.client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now)
        .expect("join");
    w.run(w.now + Duration::from_millis(200));
    // Every DSS mapping the server sends: (client address, len, data_fin).
    let sent = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let log = std::rc::Rc::clone(&sent);
    w.mangle = Some(Box::new(move |_, seg: TcpSegment| {
        if seg.tuple.src.addr != S1 {
            return Some(seg);
        }
        for m in seg.mptcp_options() {
            if let MptcpOption::Dss {
                mapping: Some(map),
                data_fin,
                ..
            } = *m
            {
                log.borrow_mut()
                    .push((seg.tuple.dst.addr, map.len, data_fin));
            }
        }
        let lost = seg.tuple.dst.addr == C1 && !seg.payload.is_empty();
        (!lost).then_some(seg)
    }));
    let s = server_conn(&mut w);
    assert_eq!(s.write(&pattern(1000)).accepted(), 1000);
    s.close();
    w.run(w.now + Duration::from_secs(5));
    assert_eq!(read_all(&mut w.client), pattern(1000));
    assert!(w.client.at_eof());
    let s = server_conn(&mut w);
    assert!(s.send_closed(), "the DATA_FIN was acknowledged");
    assert!(s.stats.reinjections > 0);
    let sent = sent.borrow();
    let on = |addr| sent.iter().filter(move |m| m.0 == addr).count();
    assert!(on(C1) > 0, "the chunk went out on the initial subflow");
    assert!(on(C2) > 0, "and was reinjected on the joined one");
    for &(addr, len, data_fin) in sent.iter() {
        assert_eq!((len, data_fin), (1000, true), "a mapping to {addr:#x}");
    }
}

/// One patterned two-subflow transfer under an explicit policy, returning
/// the reassembled server-side stream.
fn policy_transfer(cc: CcAlgorithm, sched: SchedulerKind, len: usize) -> (Vec<u8>, Vec<u8>) {
    let cfg = MptcpConfig::builder()
        .cc(cc)
        .scheduler(sched)
        .build()
        .expect("valid policy config");
    let mut w = setup(cfg);
    // Asymmetric paths so the scheduler has a real choice to make.
    w.set_delay(C2, S1, Duration::from_millis(40));
    w.run(SimTime::from_millis(100));
    assert!(w
        .client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now)
        .is_ok());
    w.run(w.now + Duration::from_millis(300));
    assert_eq!(
        w.client.subflows().iter().filter(|s| s.usable()).count(),
        2,
        "cc={cc} sched={sched}: second subflow never came up"
    );

    let data = pattern(len);
    let mut written = 0;
    let mut out = Vec::new();
    for _ in 0..10_000 {
        if written < data.len() {
            written += w.client.write(&data[written..]).accepted();
        }
        w.run(w.now + Duration::from_millis(20));
        out.extend_from_slice(&read_all(server_conn(&mut w)));
        if written >= data.len() && out.len() >= data.len() {
            break;
        }
    }
    w.run(w.now + Duration::from_secs(2));
    out.extend_from_slice(&read_all(server_conn(&mut w)));
    (data, out)
}

/// Every (congestion control × scheduler) pair must deliver the stream
/// byte-identically and exactly once — the redundant scheduler's duplicate
/// copies must be discarded at the receiver, round-robin's interleaving
/// must reassemble, and BLEST's deferrals must never drop a chunk.
#[test]
fn policy_matrix_delivers_byte_identical_stream() {
    for cc in CcAlgorithm::ALL {
        for sched in SchedulerKind::ALL {
            let (data, got) = policy_transfer(cc, sched, 120_000);
            assert_eq!(
                got.len(),
                data.len(),
                "cc={cc} sched={sched}: delivered {} of {} bytes (loss or duplication)",
                got.len(),
                data.len()
            );
            assert_eq!(got, data, "cc={cc} sched={sched}: stream corrupted");
        }
    }
}

/// The redundant scheduler duplicates chunks across paths; the receiver
/// must discard the copies (visible as `DupDataBytes`), and the exact
/// stream still comes out.
#[test]
fn redundant_scheduler_duplicates_are_discarded() {
    let (data, got) = policy_transfer(CcAlgorithm::Lia, SchedulerKind::Redundant, 80_000);
    assert_eq!(got, data);
}

/// Round-robin must actually rotate: with two usable paths both subflows
/// carry payload even though path 1 is 8× slower.
#[test]
fn round_robin_uses_both_paths() {
    let cfg = MptcpConfig::builder()
        .scheduler(SchedulerKind::RoundRobin)
        .build()
        .unwrap();
    let mut w = setup(cfg);
    w.set_delay(C2, S1, Duration::from_millis(40));
    w.run(SimTime::from_millis(100));
    w.client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now)
        .unwrap();
    w.run(w.now + Duration::from_millis(300));
    let data = pattern(200_000);
    let mut written = 0;
    while written < data.len() {
        written += w.client.write(&data[written..]).accepted();
        w.run(w.now + Duration::from_millis(20));
        let _ = read_all(server_conn(&mut w));
    }
    w.run(w.now + Duration::from_secs(2));
    let per_subflow: Vec<u64> = w
        .client
        .subflows()
        .iter()
        .map(|sf| sf.sock.stats.bytes_acked)
        .collect();
    assert!(
        per_subflow.iter().all(|&b| b > 20_000),
        "round-robin left a path idle: {per_subflow:?}"
    );
}

/// §3.3.6: the negotiated checksum is either end's. A client configured
/// without checksums that meets a server requiring them verifies every
/// mapping, so one flipped payload byte on its lone subflow is caught and
/// the connection falls back, as it does with checksums on at both ends.
#[test]
fn a_client_verifies_the_checksums_a_server_requires() {
    let cfg = |on| MptcpConfig::builder().checksum(on).build().unwrap();
    let mut w = Wire::new(client_conn(cfg(false)), MptcpListener::new(cfg(true), 22));
    let mut flipped = false;
    w.mangle = Some(Box::new(move |_, mut seg: TcpSegment| {
        if seg.tuple.dst.addr == C1 && !seg.payload.is_empty() && !flipped {
            let mut bytes = seg.payload.to_vec();
            bytes[0] ^= 0xff;
            seg.payload = bytes::Bytes::from(bytes);
            flipped = true;
        }
        Some(seg)
    }));
    w.run(SimTime::from_millis(100));
    let data = pattern(20_000);
    assert_eq!(server_conn(&mut w).write(&data).accepted(), data.len());
    w.run(w.now + Duration::from_secs(5));
    let t = w.client.telemetry();
    assert_eq!(t.counter(CounterId::ChecksumFailures), 1);
    assert_eq!(t.fallback_causes(), [FallbackCause::ChecksumFail]);
    assert!(w.client.is_fallback());
}

/// A retired subflow's chunks are counted as reinjections once: the
/// chunks still queued from an earlier death are not counted again.
#[test]
fn each_reinjected_chunk_is_counted_once() {
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    w.client
        .open_subflow(Endpoint::new(C2, 1001), Endpoint::new(S1, 80), w.now)
        .unwrap();
    w.run(w.now + Duration::from_millis(200));
    // Freeze the wire: what leaves now stays in flight.
    w.mangle = Some(Box::new(|_, _| None));
    let mss = w.client.subflows()[0].sock.mss();
    assert_eq!(w.client.write(&pattern(20 * mss)).accepted(), 20 * mss);
    while w.client.poll(w.now).is_some() {}
    for sf in w.client.subflows() {
        assert_eq!(
            sf.sock.bytes_in_flight() as usize,
            10 * mss,
            "ten chunks on each"
        );
    }
    for idx in [1, 0] {
        w.client.subflows_mut()[idx].sock.abort();
        while w.client.poll(w.now).is_some() {}
    }
    assert_eq!(w.client.stats.reinjections, 20);
    assert_eq!(w.client.abort_reason(), Some(AbortReason::AllSubflowsDied));
}

/// The path manager decides that a backup is promoted; the connection
/// picks which: the first usable backup subflow, and none when no backup
/// is left.
#[test]
fn an_address_going_down_promotes_the_first_backup_left() {
    const C3: u32 = 0x0a000003;
    let mut w = setup(MptcpConfig::default());
    w.run(SimTime::from_millis(100));
    for (addr, port) in [(C2, 1001), (C3, 1002)] {
        let local = Endpoint::new(addr, port);
        w.client
            .open_subflow_with(local, Endpoint::new(S1, 80), true, w.now)
            .unwrap();
    }
    w.run(w.now + Duration::from_millis(200));
    assert_eq!(w.client.subflows().iter().filter(|s| s.usable()).count(), 3);
    let promoted = |c: &MptcpConnection| {
        let t = c.telemetry();
        let kinds = t.events.iter().map(|e| e.kind);
        let subflows = kinds.filter_map(|k| match k {
            EventKind::PmBackupPromoted { subflow } => Some(subflow),
            _ => None,
        });
        subflows.collect::<Vec<_>>()
    };

    let t = w.now;
    w.client.local_addr_down(C1, t);
    assert_eq!(promoted(&w.client), [1]);
    let backups: Vec<bool> = w.client.subflows().iter().map(|s| s.backup).collect();
    assert_eq!(backups, [false, false, true]);
    // Subflow 2's address goes: its promotion finds no backup left.
    w.client.local_addr_down(C3, t);
    assert_eq!(promoted(&w.client), [1]);
    w.client.write(b"on the promoted backup");
    w.run(w.now + Duration::from_millis(300));
    assert_eq!(read_all(server_conn(&mut w)), b"on the promoted backup");
}
