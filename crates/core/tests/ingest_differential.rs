//! Segment-by-segment ingest ≡ batched ingest.
//!
//! The UDP runtime hands a whole socket drain to
//! [`MptcpListener::handle_segments`]; the simulator delivers one segment
//! per event through [`MptcpListener::handle_segment`]. Both must leave a
//! receiver in the same state, or a result pinned on one driver says
//! nothing about the other.
//!
//! The test records the segments one receiver saw during a two-subflow
//! transfer (handshake → MP_JOIN → cross-subflow reordering with holes and
//! duplicates → DATA_FIN), grouped into the *rounds* in which they arrived
//! (one round = one instant, after which the receiver was polled and
//! read). It then replays the rounds into fresh receivers, feeding each
//! round one segment at a time and in batches of 2, 7 and 64, and compares
//! everything a receiver exposes. A second trace strips every MPTCP option
//! after the SYN, so the receiver spends the transfer in fallback.

use mptcp::{MptcpConfig, MptcpConnection, MptcpListener};
use mptcp_netsim::{Duration, SimRng, SimTime};
use mptcp_packet::{Endpoint, FourTuple, TcpSegment};
use mptcp_telemetry::{CounterId, GaugeId};

const C1: u32 = 0x0a00_0002;
const C2: u32 = 0x0a00_0102;
const S: u32 = 0x0a00_0001;

/// Rounds are this far apart; several segments share each one.
const TICK_MS: u64 = 10;
const TICKS: u64 = 1_200;
const JOIN_TICK: u64 = 10;
const PAYLOAD: usize = 2_000_000;
/// Path 2 holds data sent during these ticks for [`HELD_MS`]: the sender
/// times out and reinjects it on path 1, then the originals arrive too.
const BLACKOUT: std::ops::Range<u64> = 40..80;
const HELD_MS: u64 = 600;
const LISTENER_SEED: u64 = 22;

/// What arrived at the receiver at one instant.
struct Round {
    now: SimTime,
    segs: Vec<TcpSegment>,
}

fn payload() -> Vec<u8> {
    (0..PAYLOAD).map(|i| (i % 251) as u8).collect()
}

fn one_way_delay(addr: u32) -> Duration {
    if addr == C2 {
        Duration::from_millis(22)
    } else {
        Duration::from_millis(6)
    }
}

/// Everything one receiver let an observer see.
#[derive(Debug, PartialEq)]
struct Observed {
    delivered: Vec<u8>,
    emitted: Vec<(SimTime, TcpSegment)>,
    counters: Vec<(&'static str, u64)>,
    gauge_maxima: Vec<(&'static str, u64)>,
    conn_stats: String,
    fallback: bool,
    eof: bool,
}

/// The receiving application: read everything, close once the peer has.
fn serve(conn: &mut MptcpConnection, delivered: &mut Vec<u8>) {
    while let Some(b) = conn.read(usize::MAX).into_data() {
        delivered.extend_from_slice(&b);
    }
    if conn.at_eof() && !conn.send_closed() {
        conn.close();
    }
}

fn observe(
    listener: &MptcpListener,
    delivered: Vec<u8>,
    emitted: Vec<(SimTime, TcpSegment)>,
) -> Observed {
    let conn = &listener.conns[0];
    let t = conn.telemetry();
    // The event ring is not compared: a batch reports one reorder
    // high-water event where sequential inserts report each step.
    let stats = &conn.stats;
    Observed {
        delivered,
        emitted,
        counters: CounterId::ALL
            .iter()
            .map(|&c| (c.name(), t.counter(c)))
            .collect(),
        gauge_maxima: GaugeId::ALL
            .iter()
            .map(|&g| (g.name(), t.gauge(g).max))
            .collect(),
        conn_stats: format!("{stats:?}"),
        fallback: conn.is_fallback(),
        eof: conn.at_eof(),
    }
}

/// Run the transfer against a listener fed one segment at a time and
/// return the rounds it saw plus what it exposed.
fn record(strip_options: bool) -> (Vec<Round>, Observed) {
    let cfg = MptcpConfig::default();
    let tuple0 = FourTuple {
        src: Endpoint::new(C1, 4000),
        dst: Endpoint::new(S, 80),
    };
    let mut client = MptcpConnection::client(cfg.clone(), tuple0, SimTime::ZERO, SimRng::new(11));
    let mut listener = MptcpListener::new(cfg, LISTENER_SEED);

    let data = payload();
    let mut written = 0;
    let mut closed = false;
    let mut inflight: Vec<(SimTime, u64, TcpSegment)> = Vec::new();
    let mut sent_to_server = 0u64;
    let mut order = 0u64;
    let mut rounds = Vec::new();
    let mut delivered = Vec::new();
    let mut emitted = Vec::new();

    for tick in 1..=TICKS {
        let now = SimTime::from_millis(tick * TICK_MS);

        // Deliver what is due, in arrival order.
        let mut due = Vec::new();
        inflight.retain(|(at, ord, seg)| {
            let is_due = *at <= now;
            if is_due {
                due.push((*at, *ord, seg.clone()));
            }
            !is_due
        });
        due.sort_by_key(|(at, ord, _)| (*at, *ord));
        let mut round = Round {
            now,
            segs: Vec::new(),
        };
        for (_, _, seg) in due {
            if seg.tuple.dst.addr == S {
                listener.handle_segment(now, &seg);
                round.segs.push(seg);
            } else {
                client.handle_segment(now, &seg);
            }
        }
        rounds.push(round);

        // Applications.
        if !listener.is_empty() {
            serve(listener.conn_mut(0), &mut delivered);
        }
        if tick == JOIN_TICK && !strip_options {
            client
                .open_subflow(Endpoint::new(C2, 4001), Endpoint::new(S, 80), now)
                .expect("join opens");
        }
        if tick > JOIN_TICK {
            written += client.write(&data[written..]).accepted();
            if written == data.len() && !closed {
                client.close();
                closed = true;
            }
        }

        // Output, through a deterministic lossy/duplicating wire.
        let mut out = Vec::new();
        listener.poll(now, &mut out);
        for seg in out {
            emitted.push((now, seg.clone()));
            order += 1;
            inflight.push((now + one_way_delay(seg.tuple.dst.addr), order, seg));
        }
        while let Some(mut seg) = client.poll(now) {
            if strip_options && !seg.flags.syn {
                seg.options.retain(|o| !o.is_mptcp());
            }
            let mut at = now + one_way_delay(seg.tuple.src.addr);
            if !seg.payload.is_empty() {
                sent_to_server += 1;
                if sent_to_server.is_multiple_of(97) {
                    continue; // a hole
                }
                if seg.tuple.src.addr == C2 && BLACKOUT.contains(&tick) {
                    at += Duration::from_millis(HELD_MS);
                }
                if sent_to_server.is_multiple_of(29) {
                    order += 1;
                    inflight.push((at + Duration::from_millis(9), order, seg.clone()));
                }
            }
            order += 1;
            inflight.push((at, order, seg));
        }
    }
    assert!(closed, "the sender finished writing");
    (rounds, observe(&listener, delivered, emitted))
}

/// Feed the recorded rounds to a fresh receiver, `batch` segments per call
/// (`1` = the per-segment entry point).
fn replay(rounds: &[Round], batch: usize) -> Observed {
    let mut listener = MptcpListener::new(MptcpConfig::default(), LISTENER_SEED);
    let mut delivered = Vec::new();
    let mut emitted = Vec::new();
    let mut touched = Vec::new();
    for round in rounds {
        for chunk in round.segs.chunks(batch) {
            if batch == 1 {
                listener.handle_segment(round.now, &chunk[0]);
            } else {
                touched.clear();
                listener.handle_segments(round.now, chunk, &mut touched);
            }
        }
        if !listener.is_empty() {
            serve(listener.conn_mut(0), &mut delivered);
        }
        let mut out = Vec::new();
        listener.poll(round.now, &mut out);
        emitted.extend(out.into_iter().map(|seg| (round.now, seg)));
    }
    observe(&listener, delivered, emitted)
}

fn assert_same(what: &str, got: &Observed, want: &Observed) {
    assert_eq!(got.delivered.len(), want.delivered.len(), "{what}: bytes");
    assert!(got.delivered == want.delivered, "{what}: delivered bytes");
    assert_eq!(got.counters, want.counters, "{what}: counters");
    assert_eq!(got.gauge_maxima, want.gauge_maxima, "{what}: gauge maxima");
    assert_eq!(got.conn_stats, want.conn_stats, "{what}: conn_stats");
    assert_eq!(got.emitted.len(), want.emitted.len(), "{what}: emitted");
    for (i, (g, w)) in got.emitted.iter().zip(&want.emitted).enumerate() {
        assert_eq!(g, w, "{what}: emitted segment {i}");
    }
    assert_eq!(got, want, "{what}");
}

fn check(strip_options: bool) -> (Vec<Round>, Observed) {
    let (rounds, recorded) = record(strip_options);
    assert!(recorded.delivered == payload(), "the transfer completed");
    assert!(recorded.eof, "DATA_FIN / FIN reached the receiver");
    let widest = rounds.iter().map(|r| r.segs.len()).max().unwrap_or(0);
    assert!(widest > 7, "rounds wide enough to batch (widest {widest})");

    let one_by_one = replay(&rounds, 1);
    assert_same("replay is deterministic", &one_by_one, &recorded);
    for batch in [2, 7, 64] {
        let got = replay(&rounds, batch);
        assert_same(&format!("batches of {batch}"), &got, &one_by_one);
    }
    (rounds, recorded)
}

#[test]
fn batched_ingest_equals_per_segment_ingest() {
    let (rounds, recorded) = check(false);
    assert!(!recorded.fallback);
    let value = |list: &[(&str, u64)], name: &str| {
        let (_, v) = list.iter().find(|(n, _)| *n == name).expect("registered");
        *v
    };
    // The trace really has what the title promises.
    let from = |addr: u32| {
        rounds
            .iter()
            .flat_map(|r| &r.segs)
            .filter(|s| s.tuple.src.addr == addr && !s.payload.is_empty())
            .count()
    };
    assert!(from(C1) > 50 && from(C2) > 50, "both subflows carried data");
    assert!(
        value(&recorded.gauge_maxima, GaugeId::OfoQueueSegs.name()) > 1,
        "reordering with holes"
    );
    assert!(
        value(&recorded.counters, CounterId::DupDataBytes.name()) > 0,
        "data-level duplicates"
    );
}

#[test]
fn batched_ingest_equals_per_segment_ingest_in_fallback() {
    let (_, recorded) = check(true);
    assert!(
        recorded.fallback,
        "option stripping drove the receiver to TCP"
    );
}
