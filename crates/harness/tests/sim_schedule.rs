//! Golden over the simulator's schedule: which segment crosses which link
//! at which instant, for the two scenarios the benchmark's `sim_*`
//! workloads run, shortened.
//!
//! The paths carry no middlebox; the simulator's own packet capture
//! records every segment it routes, with its instant, link, direction and
//! fate, so a change to when `Sim` polls a host, how it orders deliveries
//! or how it routes a segment that moves one segment, reorders two or
//! changes a drop fails here. Each scenario pins:
//!
//! * the application bytes either side read, and the completed HTTP
//!   requests;
//! * every counter of every client and of the server, summed over the
//!   server's connections — except `scheduler_stalls`, which counts the
//!   connection's ticks (one per input batch, timer or application call)
//!   and so moves with how often a host is called, not with the wire;
//! * the FNV-1a digest and length of the capture's JSONL.

use mptcp::telemetry::{CounterId, TelemetrySnapshot};
use mptcp::{Mechanisms, MptcpConfig};
use mptcp_harness::experiments::common::{wifi_3g_paths, Variant};
use mptcp_harness::{ClientApp, Scenario, ServerApp, TransportKind};
use mptcp_netsim::{CaptureConfig, Duration, LinkCfg, PacketCapture, Path};

const SEED: u64 = 20120425;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one run left behind.
#[derive(Debug, PartialEq)]
struct Pin {
    server_bytes: u64,
    client_bytes: u64,
    http_requests: u64,
    /// Records the capture saw (all of them are retained).
    captured: u64,
    /// `(length, digest)` of the counter table.
    counters: (usize, u64),
    /// `(length, digest)` of the capture's JSONL.
    capture: (usize, u64),
}

/// One `host name value` line per nonzero counter but `scheduler_stalls`.
fn counter_rows(table: &mut String, host: &str, snaps: &[TelemetrySnapshot]) {
    for id in CounterId::ALL {
        if id == CounterId::SchedulerStalls {
            continue;
        }
        let v: u64 = snaps.iter().map(|s| s.counter(id)).sum();
        if v != 0 {
            table.push_str(&format!("{host} {} {v}\n", id.name()));
        }
    }
}

fn pin(sc: &Scenario) -> (Pin, String) {
    let mut table = String::new();
    let (mut client_bytes, mut http_requests) = (0, 0);
    for (k, &id) in sc.clients.iter().enumerate() {
        let client = sc.sim.hosts[id].as_client().expect("a client");
        client_bytes += client.app_bytes_received;
        http_requests += client.http_completed();
        counter_rows(
            &mut table,
            &format!("client{k}"),
            &[client.transport.telemetry()],
        );
    }
    let server = sc.server();
    let snaps: Vec<TelemetrySnapshot> = server
        .listener
        .conns
        .iter()
        .map(|c| c.telemetry())
        .collect();
    counter_rows(&mut table, "server", &snaps);
    let capture = sc.sim.capture.snapshot();
    assert_eq!(capture.dropped_records, 0, "the capture ring overflowed");
    let jsonl = capture.to_jsonl();
    let pin = Pin {
        server_bytes: server.app_bytes_received,
        client_bytes,
        http_requests,
        captured: capture.total,
        counters: (table.len(), fnv1a(table.as_bytes())),
        capture: (jsonl.len(), fnv1a(jsonl.as_bytes())),
    };
    (pin, table)
}

fn check(what: &str, sc: &Scenario, want: Pin) {
    let (got, table) = pin(sc);
    assert_eq!(got, want, "{what}: the schedule moved; counters:\n{table}");
}

#[test]
fn wifi_3g_bulk_schedule_is_pinned() {
    // The benchmark's `sim_wifi3g` operation: M1+M2 at a 200 KB buffer,
    // 3 s of warm-up and a measurement window (60 s there, 10 s here).
    let mut sc = Scenario::new(
        Variant::MptcpM12.kind(200_000),
        ClientApp::Bulk {
            total: usize::MAX / 2,
            written: 0,
            close_when_done: false,
        },
        ServerApp::Sink,
        wifi_3g_paths(),
        SEED,
    );
    sc.sim.capture = PacketCapture::new(CaptureConfig::enabled());
    sc.run_for(Duration::from_secs(3));
    sc.run_for(Duration::from_secs(10));
    check(
        "wifi_3g",
        &sc,
        Pin {
            server_bytes: 11_029_500,
            client_bytes: 0,
            http_requests: 0,
            captured: 15_800,
            counters: (347, 0x11fc_1260_6a4e_a7e1),
            capture: (4_378_015, 0x98d5_94a5_7f1f_2a4f),
        },
    );
}

#[test]
fn http_fleet_schedule_is_pinned() {
    // The benchmark's `sim_http` operation: ten closed-loop clients with
    // two 100 Mbit/s paths each, 30 KB responses, 200 ms.
    let cfg = MptcpConfig::builder()
        .buffers(512 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .checksum(false)
        .build()
        .expect("fig11 config is valid");
    let link = LinkCfg {
        rate_bps: 100_000_000,
        delay: Duration::from_micros(100),
        queue_bytes: 256 * 1500,
        loss: 0.0,
    };
    let mut sc = Scenario::http_fleet(
        TransportKind::Mptcp(cfg),
        10,
        30_000,
        || Path::symmetric(link),
        SEED,
    );
    sc.sim.capture = PacketCapture::new(CaptureConfig::enabled());
    for _ in 0..4 {
        sc.run_for(Duration::from_millis(50));
    }
    check(
        "http_fleet",
        &sc,
        Pin {
            server_bytes: 0,
            client_bytes: 20_246_000,
            http_requests: 670,
            captured: 31_160,
            counters: (315, 0x0579_96dd_e816_c2aa),
            capture: (8_533_155, 0xa2be_367f_dff8_20fe),
        },
    );
}
