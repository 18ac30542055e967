//! `repro serve` / `repro fetch`: the real-network subcommands, built on
//! `mptcp-runtime`.
//!
//! The two halves of a real two-process demo: the server multiplexes
//! MPTCP-over-UDP connections on N fixed ports, the client opens one
//! subflow per path and verifies every received byte against the
//! deterministic keystream.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mptcp::MptcpConfig;
use mptcp_runtime::{ClientRuntime, FetchClient, FetchServer, LoopConfig, ServerRuntime};

use crate::{reject_leftovers, take_flag, take_value_flag, usage};

const DEFAULT_SIZE: u64 = 8 * 1024 * 1024;
const DEFAULT_SEED: u64 = 7;

/// `repro serve`: bind `--paths` consecutive UDP ports starting at
/// `--port` and serve fetch requests until killed (or after one
/// connection with `--once`). `--admin H:P` opens the introspection
/// socket and turns on the loop-phase profiler, so `repro top`,
/// `repro stat`, and any Prometheus scraper can watch the loop live.
pub fn serve(mut args: Vec<String>) {
    let host: String = take_value_flag(&mut args, "--host").unwrap_or_else(|| "127.0.0.1".into());
    let port: u16 = take_value_flag(&mut args, "--port").unwrap_or(19000);
    let n_paths: usize = take_value_flag(&mut args, "--paths").unwrap_or(2);
    let once = take_flag(&mut args, "--once");
    let timeout_secs: u64 = take_value_flag(&mut args, "--timeout-secs").unwrap_or(0);
    let admin: Option<SocketAddr> = take_value_flag(&mut args, "--admin");
    reject_leftovers(&args);
    if n_paths == 0 || (port != 0 && usize::from(u16::MAX - port) < n_paths - 1) {
        usage("serve", "--paths/--port out of range");
    }

    let binds: Vec<SocketAddr> = (0..n_paths)
        .map(|i| {
            let p = if port == 0 { 0 } else { port + i as u16 };
            format!("{host}:{p}")
                .parse()
                .unwrap_or_else(|_| usage("serve", "bad --host"))
        })
        .collect();
    let mut server = ServerRuntime::bind(
        MptcpConfig::default(),
        crate::SEED,
        &binds,
        Box::new(|| Box::new(FetchServer::new())),
        LoopConfig {
            profile: admin.is_some(),
            ..LoopConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot bind: {e}");
        std::process::exit(1);
    });
    for i in 0..n_paths {
        println!("serve: path {} on {}", i, server.local_addr(i).unwrap());
    }
    if let Some(addr) = admin {
        let bound = server.enable_admin(addr).unwrap_or_else(|e| {
            eprintln!("cannot bind admin socket {addr}: {e}");
            std::process::exit(1);
        });
        println!("serve: admin on {bound}");
    }

    let start = Instant::now();
    loop {
        server.turn();
        if once && server.served() >= 1 {
            break;
        }
        if timeout_secs > 0 && start.elapsed() > Duration::from_secs(timeout_secs) {
            eprintln!(
                "serve: timed out after {timeout_secs}s ({} served)",
                server.served()
            );
            std::process::exit(1);
        }
    }
    println!(
        "serve: done — {} accepted, {} served, {{{}}}",
        server.accepted(),
        server.served(),
        server.stats().json_fields()
    );
}

/// `repro fetch`: connect over every listed path, transfer, verify.
pub fn fetch(mut args: Vec<String>) {
    let connect: Vec<SocketAddr> = match take_value_flag::<String>(&mut args, "--connect") {
        Some(list) => list
            .split(',')
            .map(|s| {
                s.parse()
                    .unwrap_or_else(|_| usage("fetch", "--connect: bad address"))
            })
            .collect(),
        None => usage("fetch", "--connect is required"),
    };
    let size: u64 = take_value_flag(&mut args, "--size").unwrap_or(DEFAULT_SIZE);
    let seed: u64 = take_value_flag(&mut args, "--seed").unwrap_or(DEFAULT_SEED);
    let out: Option<std::path::PathBuf> = take_value_flag(&mut args, "--out");
    let timeout_secs: u64 = take_value_flag(&mut args, "--timeout-secs").unwrap_or(120);
    reject_leftovers(&args);

    let binds: Vec<SocketAddr> = connect
        .iter()
        .map(|a| {
            if a.ip().is_loopback() {
                "127.0.0.1:0".parse().unwrap()
            } else {
                "0.0.0.0:0".parse().unwrap()
            }
        })
        .collect();
    let start = Instant::now();
    let mut client = ClientRuntime::connect(
        MptcpConfig::default(),
        crate::SEED,
        &binds,
        &connect,
        FetchClient::new(size, seed),
        LoopConfig::default(),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot bind: {e}");
        std::process::exit(1);
    });
    let result = client.run(Duration::from_secs(timeout_secs));
    let elapsed = start.elapsed().as_secs_f64();

    let app = client.app();
    let goodput_mbps = (app.received() as f64 * 8.0) / elapsed / 1e6;
    let iters = client
        .stats()
        .rec
        .counter(mptcp_telemetry::CounterId::RtLoopIterations) as f64;
    let mut w = mptcp_telemetry::json::Writer::new();
    w.begin_object().key("bench").string("fetch");
    w.key("size_bytes").raw(size);
    w.key("received").raw(app.received());
    w.key("ok").raw(app.ok());
    w.key("checksum")
        .string(&format!("{:#018x}", app.checksum()));
    w.key("elapsed_s").raw(format_args!("{elapsed:.3}"));
    w.key("goodput_mbps").raw(format_args!("{goodput_mbps:.2}"));
    w.key("subflows").raw(client.conn().subflows().len());
    w.key("loop_iters_per_sec")
        .raw(format_args!("{:.0}", iters / elapsed));
    w.raw_fields(&client.stats().json_fields()).end_object();
    let json = w.finish();
    println!("{json}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    match result {
        Ok(()) if client.app().ok() => {}
        Ok(()) => {
            eprintln!(
                "fetch: VERIFY FAILED — received {} of {size}, mismatch at {:?}",
                client.app().received(),
                client.app().mismatch_at()
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("fetch: {e}");
            std::process::exit(1);
        }
    }
}
