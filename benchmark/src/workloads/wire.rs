//! `wire_bulk` and `wire_fetch`: `ServerRuntime` on a thread,
//! `ClientRuntime` on the caller's, kernel loopback UDP between them, two
//! paths, the `FetchClient`/`FetchServer` protocol. Both ends run with
//! `MptcpConfig::default()` and `LoopConfig::default()` — what
//! `repro serve` and `repro fetch` ship, not `wire-bench`'s tuning — and
//! both loops are the benchmark's own `step()`/`idle_wait()` loops, so the
//! time each spends idle can be counted from outside the library.
//!
//! One operation is one fetch by a fresh client. `wire_bulk` fetches
//! 4 MiB, so throughput dominates; `wire_fetch` fetches 64 KiB (Fig 11's
//! crossover region), so connection set-up, wake-up latency and teardown
//! dominate.
//!
//! Two properties of the library shape this file. A `MptcpListener` keeps
//! its `by_tuple` entry after a connection closes, and a later SYN from
//! the same client port is routed to the dead connection and swallowed; so
//! every fetch binds its own explicit client ports, never reused against
//! one server. And `ClientRuntime::run` always lingers 500 ms after the
//! transfer; so the fetch loop here is written out, and waits only until
//! the server has retired the connection.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mptcp::MptcpConfig;
use mptcp_runtime::profile::NUM_PHASES;
use mptcp_runtime::{
    ClientRuntime, ConnApp, FetchClient, FetchServer, LoopConfig, Phase, RuntimeStats,
    ServerRuntime,
};
use mptcp_telemetry::{CounterId, LogHistogram, Recorder};

use super::{ratio, report_tcp_counters, subflow_telemetry, Done, Params, TracedTotals, Workload};
use crate::metrics::Report;
use crate::stats::{median, percentile};
use crate::trace::{Span, Spans};

const PATHS: usize = 2;
/// Explicit client ports come from here: below the kernel's ephemeral
/// range (32768 up), which the server's own sockets are drawn from.
const CLIENT_PORTS: std::ops::Range<u32> = 10_000..32_000;
/// Process-wide cursor into [`CLIENT_PORTS`], so successive servers in one
/// process do not start on ports the previous one's clients just closed.
static NEXT_PORT: AtomicU32 = AtomicU32::new(CLIENT_PORTS.start);
/// Ports tried past one that is taken before a fetch gives up.
const BIND_ATTEMPTS: usize = 64;
/// How long the client keeps stepping after its fetch verified, waiting
/// for the server to retire the connection.
const RETIRE_TIMEOUT: Duration = Duration::from_secs(2);

/// The loop counters a `RuntimeStats` holds, added up over many loops.
#[derive(Default)]
struct LoopCounters {
    datagrams_rx: u64,
    datagrams_tx: u64,
    late_ticks: u64,
    backpressure: u64,
    pool_hits: u64,
    pool_misses: u64,
}

impl LoopCounters {
    fn add(&mut self, other: &LoopCounters) {
        self.datagrams_rx += other.datagrams_rx;
        self.datagrams_tx += other.datagrams_tx;
        self.late_ticks += other.late_ticks;
        self.backpressure += other.backpressure;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }

    fn absorb(&mut self, stats: &RuntimeStats) {
        let c = |id| stats.rec.counter(id);
        self.datagrams_rx += c(CounterId::RtDatagramsRx);
        self.datagrams_tx += c(CounterId::RtDatagramsTx);
        self.late_ticks += c(CounterId::RtLateTicks);
        self.backpressure += c(CounterId::RtEgressBackpressure);
        self.pool_hits += c(CounterId::RtPoolHits);
        self.pool_misses += c(CounterId::RtPoolMisses);
    }
}

/// What the server thread hands back when it stops.
#[derive(Default)]
struct ServerSummary {
    counters: LoopCounters,
    /// Subflow-socket telemetry added up over every connection accepted:
    /// the server sends the payload, so the sender-side TCP counters
    /// (retransmissions, RTOs) are here, not on the client.
    tcp: Recorder,
    wall_ns: u64,
    /// Time inside `idle_wait`; measured only in a traced run.
    idle_ns: u64,
}

struct Server {
    addrs: Vec<SocketAddr>,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    thread: Option<JoinHandle<ServerSummary>>,
}

impl Server {
    fn start(seed: u64, traced: bool) -> Result<Server, String> {
        let binds = vec![SocketAddr::from(([127, 0, 0, 1], 0)); PATHS];
        let mut runtime = ServerRuntime::bind(
            MptcpConfig::default(),
            seed ^ 0x5e4,
            &binds,
            Box::new(|| Box::new(FetchServer::new())),
            LoopConfig {
                profile: traced,
                ..LoopConfig::default()
            },
        )
        .map_err(|e| format!("server bind: {e}"))?;
        let addrs = (0..PATHS)
            .map(|i| runtime.local_addr(i))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("server address: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let (stop_flag, served_count) = (Arc::clone(&stop), Arc::clone(&served));
        let thread = std::thread::spawn(move || {
            let started = Instant::now();
            let mut summary = ServerSummary::default();
            while !stop_flag.load(Ordering::SeqCst) {
                if !runtime.step() {
                    let idle_from = traced.then(Instant::now);
                    runtime.idle_wait();
                    if let Some(t) = idle_from {
                        summary.idle_ns += t.elapsed().as_nanos() as u64;
                    }
                }
                served_count.store(runtime.served(), Ordering::SeqCst);
            }
            summary.wall_ns = started.elapsed().as_nanos() as u64;
            summary.counters.absorb(runtime.stats());
            summary.tcp = subflow_telemetry(&runtime.listener().conns);
            summary
        });
        Ok(Server {
            addrs,
            stop,
            served,
            thread: Some(thread),
        })
    }

    fn stop(&mut self) -> Option<ServerSummary> {
        self.stop.store(true, Ordering::SeqCst);
        // A server thread that panicked has no summary; the fetches it
        // left hanging have already been counted as failures.
        self.thread.take().and_then(|t| t.join().ok())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Client-side numbers added up over every fetch of one set-up.
#[derive(Default)]
struct ClientTotals {
    fetches: u64,
    bytes: u64,
    steps: u64,
    empty_steps: u64,
    counters: LoopCounters,
    skew: LogHistogram,
    /// Step durations; traced fetches only.
    step_ns: LogHistogram,
    /// The library profiler's per-phase time; traced fetches only.
    phase_ns: [u64; NUM_PHASES],
    ttfb_ms: Vec<f64>,
    latency_ms: Vec<f64>,
}

pub struct Wire {
    params: Params,
    fetch_bytes: u64,
    fetch_timeout: Duration,
    server: Server,
    /// What the servers this one replaced handed back.
    retired: ServerSummary,
    /// Client ports bound against the current server, and how many it may
    /// see before it is replaced.
    ports_used: u32,
    ports_per_server: u32,
    totals: ClientTotals,
}

impl Wire {
    /// Start a server and warm it up with `warmup.0` fetches of
    /// `warmup.1` bytes.
    fn start(
        params: Params,
        fetch_bytes: u64,
        fetch_timeout: Duration,
        warmup: (u64, u64),
    ) -> Result<Wire, String> {
        let mut wire = Wire {
            params,
            fetch_bytes: warmup.1,
            fetch_timeout,
            server: Server::start(params.seed, params.traced)?,
            retired: ServerSummary::default(),
            ports_used: 0,
            ports_per_server: CLIENT_PORTS.end - CLIENT_PORTS.start,
            totals: ClientTotals::default(),
        };
        let mut spans = Spans::new();
        for i in 0..warmup.0 {
            // Warm-up fetches take indices the measured ones never reach.
            wire.fetch(u64::MAX - i, &mut spans)?;
        }
        wire.fetch_bytes = fetch_bytes;
        Ok(wire)
    }

    /// Stop the current server and keep what it counted.
    fn retire_server(&mut self) {
        if let Some(old) = self.server.stop() {
            self.retired.counters.add(&old.counters);
            self.retired.tcp.absorb(&old.tcp);
            self.retired.wall_ns += old.wall_ns;
            self.retired.idle_ns += old.idle_ns;
        }
    }

    /// Replace the server by a fresh one. A listener never forgets a client
    /// port it has seen; a new listener has seen none, so the port range can
    /// be walked again.
    fn replace_server(&mut self) -> Result<(), String> {
        self.retire_server();
        self.server = Server::start(self.params.seed, self.params.traced)?;
        self.ports_used = 0;
        Ok(())
    }

    /// The next pair of client ports this server has not seen, as loopback
    /// addresses.
    fn next_binds(&mut self) -> Result<Vec<SocketAddr>, String> {
        let span = CLIENT_PORTS.end - CLIENT_PORTS.start;
        if self.ports_used + PATHS as u32 > self.ports_per_server {
            self.replace_server()?;
        }
        self.ports_used += PATHS as u32;
        let first = NEXT_PORT.fetch_add(PATHS as u32, Ordering::Relaxed);
        Ok((0..PATHS as u32)
            .map(|i| {
                let port = CLIENT_PORTS.start + (first - CLIENT_PORTS.start + i) % span;
                SocketAddr::from(([127, 0, 0, 1], port as u16))
            })
            .collect())
    }

    /// Bind a fresh client and active-open, skipping past ports some other
    /// process holds.
    fn connect(&mut self, index: u64, profile: bool) -> Result<ClientRuntime<FetchClient>, String> {
        let cfg = LoopConfig {
            profile,
            ..LoopConfig::default()
        };
        for _ in 0..BIND_ATTEMPTS {
            let binds = self.next_binds()?;
            match ClientRuntime::connect(
                MptcpConfig::default(),
                self.params.seed.wrapping_add(index),
                &binds,
                &self.server.addrs,
                FetchClient::new(self.fetch_bytes, self.params.seed.wrapping_add(index)),
                cfg,
            ) {
                Ok(client) => return Ok(client),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => continue,
                Err(e) => return Err(format!("client bind {binds:?}: {e}")),
            }
        }
        Err(format!(
            "port-bind failure: {BIND_ATTEMPTS} consecutive client ports in use"
        ))
    }

    fn fetch(&mut self, index: u64, spans: &mut Spans) -> Result<Done, String> {
        let traced = spans.enabled();
        let started = Instant::now();
        spans.enter(Span::RuntimeConnect);
        let mut client = self.connect(index, traced)?;
        spans.exit(Span::RuntimeConnect);
        // Read after `connect`, which may have replaced the server.
        let retired_before = self.server.served.load(Ordering::SeqCst);

        let (mut steps, mut empty_steps) = (0u64, 0u64);
        let mut ttfb = None;
        let mut step = |client: &mut ClientRuntime<FetchClient>, spans: &mut Spans| {
            spans.enter(Span::RuntimeStep);
            let progressed = client.step();
            let ns = spans.exit(Span::RuntimeStep);
            steps += 1;
            if traced {
                self.totals.step_ns.record(ns);
            }
            if !progressed {
                empty_steps += 1;
                spans.enter(Span::RuntimeIdleWait);
                client.idle_wait();
                spans.exit(Span::RuntimeIdleWait);
            }
        };
        while !client.app().finished() {
            if let Some(reason) = client.conn().abort_reason() {
                return Err(format!("fetch {index}: connection aborted: {reason}"));
            }
            step(&mut client, spans);
            if ttfb.is_none() && client.app().received() > 0 {
                ttfb = Some(started.elapsed());
            }
            if started.elapsed() > self.fetch_timeout {
                return Err(format!(
                    "fetch {index}: timed out after {:?} with {} of {} bytes",
                    self.fetch_timeout,
                    client.app().received(),
                    self.fetch_bytes
                ));
            }
        }
        let latency = started.elapsed();
        if !client.app().ok() {
            return Err(format!(
                "fetch {index}: verification failed: {} of {} bytes, first mismatch at {:?}",
                client.app().received(),
                self.fetch_bytes,
                client.app().mismatch_at()
            ));
        }
        // Not part of the fetch's latency, but part of the closed loop:
        // the next fetch starts against a server that is done with this one.
        while self.server.served.load(Ordering::SeqCst) <= retired_before {
            step(&mut client, spans);
            if started.elapsed() > latency + RETIRE_TIMEOUT {
                return Err(format!(
                    "fetch {index}: server did not retire the connection within {RETIRE_TIMEOUT:?}"
                ));
            }
        }

        let t = &mut self.totals;
        t.fetches += 1;
        t.bytes += self.fetch_bytes;
        t.steps += steps;
        t.empty_steps += empty_steps;
        t.counters.absorb(client.stats());
        t.skew.merge(client.stats().skew_hist());
        for phase in Phase::ALL {
            if let Some(h) = client.profiler().hist(phase) {
                t.phase_ns[phase as usize] += h.sum();
            }
        }
        t.ttfb_ms.extend(ttfb.map(|d| d.as_secs_f64() * 1e3));
        t.latency_ms.push(latency.as_secs_f64() * 1e3);
        Ok(Done {
            bytes: self.fetch_bytes,
            latency_ns: Some(latency.as_nanos() as u64),
        })
    }

    fn report(mut self, spans: &Spans, traced: &TracedTotals, report: &mut Report) {
        self.retire_server();
        let server = &self.retired;
        let t = &self.totals;
        let c = &t.counters;
        let s = &server.counters;

        let op_wall = traced.wall_ns as f64;
        report.set(
            "runtime.client_busy_share",
            ratio(spans.totals(Span::RuntimeStep).total_ns as f64, op_wall),
        );
        report.set(
            "runtime.client_idle_share",
            ratio(spans.totals(Span::RuntimeIdleWait).total_ns as f64, op_wall),
        );
        if self.params.traced {
            let idle = ratio(server.idle_ns as f64, server.wall_ns as f64);
            report.set("runtime.server_idle_share", idle);
            report.set("runtime.server_busy_share", 1.0 - idle);
        }
        let steps = t.steps as f64;
        report.set(
            "runtime.empty_step_ratio",
            ratio(t.empty_steps as f64, steps),
        );
        report.set(
            "runtime.steps_per_mib",
            ratio(steps, t.bytes as f64 / (1 << 20) as f64),
        );
        report.set(
            "runtime.datagrams_per_step",
            ratio((c.datagrams_rx + c.datagrams_tx) as f64, steps),
        );
        report.set("runtime.steps_per_fetch", ratio(steps, t.fetches as f64));
        report.set(
            "runtime.client_step_us_p50",
            t.step_ns.quantile(0.50) as f64 / 1e3,
        );
        report.set(
            "runtime.client_step_us_p99",
            t.step_ns.quantile(0.99) as f64 / 1e3,
        );
        report.set("runtime.late_tick_ratio", ratio(c.late_ticks as f64, steps));
        report.set(
            "runtime.tick_skew_p99_us",
            t.skew.quantile(0.99) as f64 / 1e3,
        );
        // Both directions, over the server's whole life (the client totals
        // include the warm-up fetches for the same reason).
        report.set(
            "runtime.datagram_loss_ratio",
            1.0 - ratio(
                (c.datagrams_rx + s.datagrams_rx) as f64,
                (c.datagrams_tx + s.datagrams_tx) as f64,
            ),
        );
        report.set(
            "runtime.egress_backpressure",
            (c.backpressure + s.backpressure) as f64,
        );
        report.set(
            "runtime.pool_miss_ratio",
            ratio(
                (c.pool_misses + s.pool_misses) as f64,
                (c.pool_hits + c.pool_misses + s.pool_hits + s.pool_misses) as f64,
            ),
        );
        let phase_total: u64 = t.phase_ns.iter().sum();
        for phase in Phase::ALL {
            report.set(
                &format!("runtime.phase_{}_share", phase.name()),
                ratio(t.phase_ns[phase as usize] as f64, phase_total as f64),
            );
        }
        let connects = spans.totals(Span::RuntimeConnect).count;
        report.set(
            "runtime.connect_us",
            spans.ns_per(Span::RuntimeConnect, connects) / 1e3,
        );
        report.set("runtime.fetch_ttfb_ms_p50", median(&t.ttfb_ms));
        report.set("runtime.fetch_p99_ms", percentile(&t.latency_ms, 990));
        // The client only receives; the TCP counters that matter are the
        // sender's: every server connection, per fetch.
        report_tcp_counters(report, &server.tcp.snapshot(), t.fetches as f64);
    }
}

pub struct WireBulk(Wire);

/// Long enough that throughput dominates (about 50 ms against
/// `wire_fetch`'s 4), short enough that a fetch ends before a connection's
/// first retransmission timeout: with the shipped defaults nearly every
/// loopback connection meets one, of 200 ms or more, between 8 and 10 MiB
/// in (3 fetches in 1 000 at 8 MiB, 3 in 8 at 10 MiB, all but 1 in 40 at
/// 12 MiB), and more later. Fetches that reach it have operation times in
/// two or more clusters, and the median over a window of them is not
/// steady.
const BULK_BYTES: u64 = 4 << 20;

impl Workload for WireBulk {
    const DETERMINISTIC: bool = false;
    const RSS_AFTER_OPS: u64 = 100;

    fn setup(params: Params) -> Result<WireBulk, String> {
        // One fetch warms the server's pool and the loopback path.
        let bytes = params.scale.of(BULK_BYTES, 256 << 10);
        Wire::start(params, bytes, Duration::from_secs(60), (1, bytes)).map(WireBulk)
    }

    fn op(&mut self, index: u64, spans: &mut Spans) -> Result<Done, String> {
        self.0.fetch(index, spans)
    }

    fn finish(self, spans: &Spans, traced: &TracedTotals, report: &mut Report) {
        self.0.report(spans, traced, report);
    }
}

pub struct WireFetch(Wire);

/// Fig 11's crossover region.
const FETCH_BYTES: u64 = 64 << 10;

impl Workload for WireFetch {
    const DETERMINISTIC: bool = false;
    const RSS_AFTER_OPS: u64 = 500;

    fn setup(params: Params) -> Result<WireFetch, String> {
        // The fetch size is the workload, so a smoke run keeps it and
        // shortens only the warm-up.
        Wire::start(
            params,
            FETCH_BYTES,
            Duration::from_secs(2),
            (params.scale.of(50, 2), FETCH_BYTES),
        )
        .map(WireFetch)
    }

    fn op(&mut self, index: u64, spans: &mut Spans) -> Result<Done, String> {
        self.0.fetch(index, spans)
    }

    fn finish(self, spans: &Spans, traced: &TracedTotals, report: &mut Report) {
        self.0.report(spans, traced, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn a_server_that_has_seen_its_share_of_ports_is_replaced() {
        let params = Params {
            seed: 3,
            scale: Scale::Smoke,
            traced: false,
        };
        let mut wire = Wire::start(params, 4096, Duration::from_secs(2), (0, 0)).unwrap();
        wire.ports_per_server = 2 * PATHS as u32;
        let mut spans = Spans::new();
        for i in 0..5 {
            wire.fetch(i, &mut spans).unwrap();
        }
        // Two fetches per server: the fifth runs against the third server,
        // and the two before it handed their counters on.
        assert_eq!(wire.ports_used, PATHS as u32);
        assert!(wire.retired.counters.datagrams_tx > 0);
        assert_eq!(wire.totals.fetches, 5);
    }
}
