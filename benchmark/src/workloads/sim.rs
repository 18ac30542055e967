//! `sim_wifi3g` and `sim_http`: the deterministic `netsim`/`harness`
//! driver. All time inside an operation is simulated; what is measured is
//! how much wall time the simulator and the stack need to get through it.
//! Every operation builds its scenario afresh from the same seed, so every
//! operation does identical work and its counters repeat exactly.

use std::time::Instant;

use mptcp::telemetry::TelemetrySnapshot;
use mptcp::{Mechanisms, MptcpConfig};
use mptcp_harness::experiments::common::{wifi_3g_paths, Variant};
use mptcp_harness::{ClientApp, Scenario, ServerApp, Transport, TransportKind};
use mptcp_netsim::{Duration, LinkCfg, Path};

use super::{
    ratio, report_conn_counters, report_tcp_counters, subflow_telemetry, Done, Params,
    TracedTotals, Workload,
};
use crate::alloc;
use crate::metrics::Report;
use crate::trace::{Span, Spans};

/// `(queue drops, random drops)` over every link of the scenario.
fn link_drops(sc: &Scenario) -> (u64, u64) {
    sc.sim
        .paths
        .iter()
        .flat_map(|p| [&p.fwd.stats, &p.rev.stats])
        .fold((0, 0), |(q, r), s| (q + s.queue_drops, r + s.random_drops))
}

fn report_netsim(report: &mut Report, drops: (u64, u64), simulated_s: f64, wall_s: f64) {
    report.set("netsim.queue_drops", drops.0 as f64);
    report.set("netsim.random_drops", drops.1 as f64);
    report.set("netsim.sim_speedup", ratio(simulated_s, wall_s));
}

// ---------------------------------------------------------------------------
// sim_wifi3g
// ---------------------------------------------------------------------------

/// Send and receive buffer: small enough that the 3G path's 2 s queue
/// makes the connection receive-window limited, which is where M1 and M2
/// earn their keep (Fig 4).
const WIFI3G_BUFFER: usize = 200_000;
const WIFI3G_WARMUP_MS: u64 = 3_000;
const WIFI3G_MEASURE_MS: u64 = 60_000;
/// WiFi 8 Mbit/s + 3G 2 Mbit/s.
const WIFI3G_LINK_SUM_MBPS: f64 = 10.0;

/// One bulk run and what it left behind.
struct BulkRun {
    /// Payload the server's application received, warm-up included.
    bytes: u64,
    telemetry: TelemetrySnapshot,
    sim_goodput_mbps: f64,
    reinjected_byte_ratio: f64,
    drops: (u64, u64),
    simulated_s: f64,
    wall_s: f64,
}

pub struct SimWifi3g {
    seed: u64,
    warmup: Duration,
    measure: Duration,
    last: Option<BulkRun>,
}

fn scheduled_bytes(sc: &mut Scenario) -> Result<u64, String> {
    sc.client_mut()
        .transport
        .as_mptcp()
        .map(|c| c.stats.bytes_scheduled)
        .ok_or_else(|| "client transport is not MPTCP".to_string())
}

/// `run_bulk(Variant::MptcpM12, …)` written out against the same public
/// pieces, so the link counters can be read afterwards.
fn bulk(
    seed: u64,
    warmup: Duration,
    measure: Duration,
    spans: &mut Spans,
) -> Result<BulkRun, String> {
    let started = Instant::now();
    spans.enter(Span::HarnessBuild);
    let mut sc = Scenario::new(
        Variant::MptcpM12.kind(WIFI3G_BUFFER),
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        wifi_3g_paths(),
        seed,
    );
    spans.exit(Span::HarnessBuild);

    spans.enter(Span::HarnessRun);
    sc.run_for(warmup);
    let delivered0 = sc.server().app_bytes_received;
    let scheduled0 = scheduled_bytes(&mut sc)?;
    sc.run_for(measure);
    spans.exit(Span::HarnessRun);
    let wall_s = started.elapsed().as_secs_f64();

    let delivered = sc.server().app_bytes_received - delivered0;
    let scheduled = scheduled_bytes(&mut sc)? - scheduled0;
    let Transport::Mptcp(conn) = &sc.client().transport else {
        return Err("client transport is not MPTCP".into());
    };
    if conn.is_fallback() {
        return Err("connection fell back to plain TCP".into());
    }
    if let Some(reason) = conn.abort_reason() {
        return Err(format!("connection aborted: {reason}"));
    }
    let goodput = delivered as f64 * 8.0 / measure.as_secs_f64() / 1e6;
    if !(goodput > 0.0 && goodput <= WIFI3G_LINK_SUM_MBPS) {
        return Err(format!(
            "goodput {goodput} Mbit/s is outside (0, {WIFI3G_LINK_SUM_MBPS}]"
        ));
    }
    Ok(BulkRun {
        bytes: sc.server().app_bytes_received,
        telemetry: conn.telemetry(),
        sim_goodput_mbps: goodput,
        reinjected_byte_ratio: 1.0 - ratio(delivered as f64, scheduled as f64),
        drops: link_drops(&sc),
        simulated_s: (warmup + measure).as_secs_f64(),
        wall_s,
    })
}

impl Workload for SimWifi3g {
    const DETERMINISTIC: bool = true;
    const RSS_AFTER_OPS: u64 = 3;

    fn setup(params: Params) -> Result<SimWifi3g, String> {
        // A short run of the same scenario, to fault in what the
        // operations will touch.
        bulk(
            params.seed,
            Duration::from_millis(500),
            Duration::from_millis(params.scale.of(3000, 500)),
            &mut Spans::new(),
        )?;
        Ok(SimWifi3g {
            seed: params.seed,
            warmup: Duration::from_millis(params.scale.of(WIFI3G_WARMUP_MS, 500)),
            measure: Duration::from_millis(params.scale.of(WIFI3G_MEASURE_MS, 1000)),
            last: None,
        })
    }

    fn op(&mut self, _index: u64, spans: &mut Spans) -> Result<Done, String> {
        let run = bulk(self.seed, self.warmup, self.measure, spans)?;
        let bytes = run.bytes;
        self.last = Some(run);
        Ok(Done {
            bytes,
            latency_ns: None,
        })
    }

    fn finish(self, _spans: &Spans, _traced: &TracedTotals, report: &mut Report) {
        let Some(run) = &self.last else { return };
        report_conn_counters(report, &run.telemetry);
        report.set("mptcp.sim_goodput_mbps", run.sim_goodput_mbps);
        report.set("mptcp.reinjected_byte_ratio", run.reinjected_byte_ratio);
        report_netsim(report, run.drops, run.simulated_s, run.wall_s);
    }
}

// ---------------------------------------------------------------------------
// sim_http
// ---------------------------------------------------------------------------

const HTTP_CLIENTS: usize = 10;
const HTTP_FILE_BYTES: usize = 30_000;
const HTTP_QUARTERS: usize = 4;
const HTTP_QUARTER_US: u64 = 50_000;
const HTTP_LINK_MBPS: u64 = 100;

/// The configuration `repro fig11` runs MPTCP with.
fn fig11_config() -> MptcpConfig {
    MptcpConfig::builder()
        .buffers(512 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .checksum(false)
        .build()
        .expect("fig11 config is valid")
}

fn fig11_link() -> LinkCfg {
    LinkCfg {
        rate_bps: HTTP_LINK_MBPS * 1_000_000,
        delay: Duration::from_micros(100),
        queue_bytes: 256 * 1500,
        loss: 0.0,
    }
}

/// One fleet run and what it left behind.
struct FleetRun {
    requests: u64,
    connections: u64,
    /// Subflow-socket telemetry over the server's connections: the server
    /// sends the responses, so the sender-side TCP counters are there.
    tcp: TelemetrySnapshot,
    drops: (u64, u64),
    simulated_s: f64,
    wall_s: f64,
    quarter_wall_s: [f64; HTTP_QUARTERS],
    /// Heap the scenario still held when the run ended (counted only
    /// while the allocator is counting, in traced operations).
    retained_bytes: i64,
}

fn fleet(seed: u64, quarter: Duration, spans: &mut Spans) -> Result<FleetRun, String> {
    let live_before = alloc::live_bytes();
    let started = Instant::now();
    spans.enter(Span::HarnessBuild);
    let link = fig11_link();
    let mut sc = Scenario::http_fleet(
        TransportKind::Mptcp(fig11_config()),
        HTTP_CLIENTS,
        HTTP_FILE_BYTES,
        || Path::symmetric(link),
        seed,
    );
    spans.exit(Span::HarnessBuild);

    let mut quarter_wall_s = [0.0; HTTP_QUARTERS];
    for wall in &mut quarter_wall_s {
        let t = Instant::now();
        spans.enter(Span::HarnessRun);
        sc.run_for(quarter);
        spans.exit(Span::HarnessRun);
        *wall = t.elapsed().as_secs_f64();
    }
    let wall_s = started.elapsed().as_secs_f64();

    let mut requests = 0;
    for (k, &id) in sc.clients.iter().enumerate() {
        let client = sc.sim.hosts[id].as_client().ok_or("host is not a client")?;
        if client.http_completed() == 0 {
            return Err(format!("client {k} completed no request"));
        }
        if client.transport.failed() {
            return Err(format!("client {k}'s connection failed"));
        }
        if matches!(&client.transport, Transport::Mptcp(c) if c.is_fallback()) {
            return Err(format!("client {k} fell back to plain TCP"));
        }
        requests += client.http_completed();
    }
    let simulated_s = quarter.as_secs_f64() * HTTP_QUARTERS as f64;
    let link_sum_mbps = (HTTP_CLIENTS as u64 * 2 * HTTP_LINK_MBPS) as f64;
    let goodput = (requests * HTTP_FILE_BYTES as u64) as f64 * 8.0 / simulated_s / 1e6;
    if goodput > link_sum_mbps {
        return Err(format!(
            "goodput {goodput} Mbit/s exceeds the links' {link_sum_mbps}"
        ));
    }
    let conns = &sc.server().listener.conns;
    Ok(FleetRun {
        requests,
        connections: conns.len() as u64,
        tcp: subflow_telemetry(conns).snapshot(),
        drops: link_drops(&sc),
        simulated_s,
        wall_s,
        quarter_wall_s,
        retained_bytes: alloc::live_bytes() - live_before,
    })
}

pub struct SimHttp {
    seed: u64,
    quarter: Duration,
    last: Option<FleetRun>,
    /// Over every operation of the window.
    requests: u64,
    wall_s: f64,
    quarter_wall_s: [f64; HTTP_QUARTERS],
    /// Over the traced operations.
    retained_bytes: i64,
    retained_conns: u64,
}

impl Workload for SimHttp {
    const DETERMINISTIC: bool = true;
    const RSS_AFTER_OPS: u64 = 3;

    fn setup(params: Params) -> Result<SimHttp, String> {
        let warmup_quarter = Duration::from_micros(params.scale.of(HTTP_QUARTER_US / 4, 5000));
        fleet(params.seed, warmup_quarter, &mut Spans::new())?;
        Ok(SimHttp {
            seed: params.seed,
            quarter: Duration::from_micros(params.scale.of(HTTP_QUARTER_US, 5000)),
            last: None,
            requests: 0,
            wall_s: 0.0,
            quarter_wall_s: [0.0; HTTP_QUARTERS],
            retained_bytes: 0,
            retained_conns: 0,
        })
    }

    fn op(&mut self, _index: u64, spans: &mut Spans) -> Result<Done, String> {
        let run = fleet(self.seed, self.quarter, spans)?;
        self.requests += run.requests;
        self.wall_s += run.wall_s;
        for (sum, wall) in self.quarter_wall_s.iter_mut().zip(run.quarter_wall_s) {
            *sum += wall;
        }
        if spans.enabled() {
            self.retained_bytes += run.retained_bytes;
            self.retained_conns += run.connections;
        }
        let bytes = run.requests * HTTP_FILE_BYTES as u64;
        self.last = Some(run);
        Ok(Done {
            bytes,
            latency_ns: None,
        })
    }

    fn finish(self, _spans: &Spans, _traced: &TracedTotals, report: &mut Report) {
        let Some(run) = &self.last else { return };
        report_tcp_counters(report, &run.tcp, 1.0);
        report_netsim(report, run.drops, run.simulated_s, run.wall_s);
        report.set("harness.http_requests", run.requests as f64);
        report.set(
            "harness.http_wall_ms_per_request",
            ratio(self.wall_s * 1e3, self.requests as f64),
        );
        report.set(
            "harness.http_q4_q1_ratio",
            ratio(
                self.quarter_wall_s[HTTP_QUARTERS - 1],
                self.quarter_wall_s[0],
            ),
        );
        report.set(
            "harness.retained_kib_per_conn",
            ratio(
                self.retained_bytes as f64 / 1024.0,
                self.retained_conns as f64,
            ),
        );
    }
}
