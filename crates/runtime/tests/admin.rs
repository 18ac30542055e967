//! Admin-plane acceptance tests: the introspection socket is served from
//! the event loop itself, so every test drives `ServerRuntime::step()` by
//! hand on this thread while a non-blocking TCP client plays operator.
//! Covers the stat protocol (including partial writes, unknown commands,
//! and disconnects mid-response), the HTTP `/metrics` endpoint, and the
//! Prometheus exposition contract (validator-clean, no duplicate series,
//! counters monotone across scrapes) while a real transfer is in flight.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use mptcp::MptcpConfig;
use mptcp_runtime::{
    check_monotone, validate_exposition, ClientRuntime, FetchClient, FetchServer, LoopConfig,
    ServerRuntime,
};

const SEED: u64 = 20120425;

fn loopback(n: usize) -> Vec<SocketAddr> {
    (0..n).map(|_| "127.0.0.1:0".parse().unwrap()).collect()
}

fn bind_server(n_paths: usize, profile: bool) -> (ServerRuntime, Vec<SocketAddr>, SocketAddr) {
    let mut server = ServerRuntime::bind(
        MptcpConfig::default(),
        SEED + 1,
        &loopback(n_paths),
        Box::new(|| Box::new(FetchServer::new())),
        LoopConfig {
            profile,
            ..LoopConfig::default()
        },
    )
    .expect("bind server paths");
    let addrs: Vec<SocketAddr> = (0..n_paths)
        .map(|i| server.local_addr(i).unwrap())
        .collect();
    let admin = server
        .enable_admin("127.0.0.1:0".parse().unwrap())
        .expect("bind admin socket");
    (server, addrs, admin)
}

/// Issue one stat-protocol command, stepping the server loop until the
/// `.`-terminated response arrives. Returns the body without terminator.
fn request(server: &mut ServerRuntime, admin: SocketAddr, cmd: &str) -> String {
    let mut stream = TcpStream::connect(admin).expect("connect admin");
    stream.set_nonblocking(true).expect("nonblocking");
    let mut pending = cmd.as_bytes().to_vec();
    pending.push(b'\n');
    let mut off = 0;
    let mut resp = Vec::new();
    let mut tmp = [0u8; 65536];
    let hard = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < hard, "admin request timed out: {cmd}");
        server.step();
        while off < pending.len() {
            match stream.write(&pending[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("admin write failed: {e}"),
            }
        }
        match stream.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => resp.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("admin read failed: {e}"),
        }
        if resp.ends_with(b"\n.\n") || resp == b".\n" {
            break;
        }
    }
    let text = String::from_utf8(resp).expect("utf8 response");
    text.strip_suffix(".\n").unwrap_or(&text).to_string()
}

#[test]
fn unknown_command_gets_err_and_loop_survives() {
    let (mut server, _addrs, admin) = bind_server(1, false);
    let resp = request(&mut server, admin, "bogus");
    assert!(resp.starts_with("ERR unknown command"), "got: {resp}");
    // The loop is still healthy: a real command works on a new client.
    let health = request(&mut server, admin, "health");
    assert!(health.contains("loop_iterations"), "got: {health}");
    assert!(health.contains("served"));
}

#[test]
fn partial_command_writes_are_reassembled() {
    let (mut server, _addrs, admin) = bind_server(1, false);
    let mut stream = TcpStream::connect(admin).expect("connect");
    stream.set_nonblocking(true).expect("nonblocking");

    // First half of "conns\n", then several loop iterations, then the rest.
    stream.write_all(b"con").expect("write prefix");
    for _ in 0..20 {
        server.step();
    }
    stream.write_all(b"ns\n").expect("write suffix");

    let mut resp = Vec::new();
    let mut tmp = [0u8; 4096];
    let hard = Instant::now() + Duration::from_secs(10);
    while !resp.ends_with(b"\n.\n") {
        assert!(Instant::now() < hard, "no response to reassembled command");
        server.step();
        match stream.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => resp.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
    let text = String::from_utf8_lossy(&resp);
    assert!(text.contains("TOKEN"), "conns header missing: {text}");
    assert!(text.contains("(0 connections)"), "got: {text}");
}

#[test]
fn client_disconnect_mid_response_never_stalls_the_loop() {
    let (mut server, _addrs, admin) = bind_server(1, false);
    // Ask for the largest response, then vanish before reading any of it.
    {
        let mut stream = TcpStream::connect(admin).expect("connect");
        stream.write_all(b"metrics\n").expect("write");
        server.step();
    } // dropped here
    for _ in 0..100 {
        server.step();
    }
    // A fresh client still gets served.
    let resp = request(&mut server, admin, "health");
    assert!(resp.contains("loop_iterations"));
}

#[test]
fn http_get_serves_metrics_for_curl() {
    let (mut server, _addrs, admin) = bind_server(1, false);
    let mut stream = TcpStream::connect(admin).expect("connect");
    stream.set_nonblocking(true).expect("nonblocking");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .expect("write request");
    let mut resp = Vec::new();
    let mut tmp = [0u8; 65536];
    let hard = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < hard, "no HTTP response");
        server.step();
        match stream.read(&mut tmp) {
            Ok(0) => break, // server closes after the response
            Ok(n) => resp.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("read failed: {e}"),
        }
    }
    let text = String::from_utf8_lossy(&resp);
    assert!(text.starts_with("HTTP/1.0 200 OK"), "got: {text}");
    assert!(text.contains("Content-Type: text/plain; version=0.0.4"));
    let body = text.split("\r\n\r\n").nth(1).expect("body");
    let exp = validate_exposition(body).expect("valid exposition");
    assert!(exp.series.contains_key("mptcp_rt_loop_iterations_total"));
}

#[test]
fn admin_answers_mid_transfer_and_counters_are_monotone() {
    const SIZE: u64 = 6 * 1024 * 1024;
    let (mut server, addrs, admin) = bind_server(2, true);

    let addrs_c = addrs.clone();
    let fetcher = thread::spawn(move || {
        let mut client = ClientRuntime::connect(
            MptcpConfig::default(),
            SEED,
            &loopback(2),
            &addrs_c,
            FetchClient::new(SIZE, 7),
            LoopConfig::default(),
        )
        .expect("bind client paths");
        client.run(Duration::from_secs(60)).expect("transfer");
        client.app().ok()
    });

    // Wait for the connection to land.
    let hard = Instant::now() + Duration::from_secs(30);
    while server.accepted() == 0 {
        assert!(Instant::now() < hard, "no connection arrived");
        server.turn();
    }
    let token = server.listener().conns[0].local_token();

    // First scrape: validator-clean, runtime series present.
    let scrape1 = request(&mut server, admin, "metrics");
    let exp1 = validate_exposition(&scrape1).expect("first scrape valid");
    assert!(exp1.series["mptcp_rt_loop_iterations_total"] > 0.0);
    assert!(exp1.series.contains_key("mptcp_rt_pool_outstanding"));
    assert!(exp1.series.contains_key("mptcp_rt_pool_high_water_peak"));
    assert_eq!(exp1.series["mptcp_server_accepted_total"], 1.0);
    // Profiling is on, so phase summaries must be exposed.
    assert!(exp1
        .series
        .contains_key("mptcp_loop_phase_ns_count{phase=\"recv_drain\"}"));

    // ss -M-style views of the live connection.
    let conns = request(&mut server, admin, "conns");
    let tok_hex = format!("{token:08x}");
    assert!(conns.contains(&tok_hex), "token row missing: {conns}");
    let detail = request(&mut server, admin, &format!("conn {tok_hex}"));
    assert!(
        detail.contains("subflow 0:"),
        "subflow dump missing: {detail}"
    );
    assert!(detail.contains("cwnd"), "cwnd missing: {detail}");
    assert!(detail.contains("srtt_us"));
    let missing = request(&mut server, admin, "conn deadbeef");
    assert!(missing.starts_with("ERR no connection"), "got: {missing}");

    let profile = request(&mut server, admin, "profile");
    assert!(profile.contains("recv_drain"), "got: {profile}");
    assert!(profile.contains("poll_encode"));

    let paths = request(&mut server, admin, "paths");
    assert!(paths.contains("PATH"), "got: {paths}");

    // Second scrape: still valid, no counter went backwards.
    let scrape2 = request(&mut server, admin, "metrics");
    let exp2 = validate_exposition(&scrape2).expect("second scrape valid");
    check_monotone(&exp1, &exp2).expect("counters monotone across scrapes");

    // Let the transfer finish and verify it was untouched by the scraping.
    let hard = Instant::now() + Duration::from_secs(60);
    while server.served() == 0 {
        assert!(Instant::now() < hard, "transfer did not complete");
        server.turn();
    }
    assert!(fetcher.join().expect("client thread"), "payload verified");
}
