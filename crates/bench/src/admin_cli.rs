//! `repro stat` / `repro top`: operator-side clients for the runtime's
//! admin socket (see `mptcp_runtime::admin`).
//!
//! `stat` is the one-shot tool: send a single stat-protocol command and
//! print the `.`-terminated response — `repro stat 127.0.0.1:9090 conns`
//! is the moral equivalent of `ss -M`. With `--validate` the response is
//! run through the Prometheus exposition validator and the exit code
//! reports conformance, which is how CI checks a live scrape.
//!
//! `top` keeps one connection open and redraws health, loop-phase
//! timings, and the connection table every interval, like `top(1)` for
//! the event loop.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mptcp_runtime::validate_exposition;

use crate::{reject_leftovers, take_flag, take_positional, take_value_flag, usage};

/// The `<host:port>` positional every admin client starts with.
fn take_addr(args: &mut Vec<String>) -> SocketAddr {
    let cmd = args[0].clone();
    let s = take_positional(args).unwrap_or_else(|| usage(&cmd, "missing <host:port>"));
    s.parse()
        .unwrap_or_else(|_| usage(&cmd, &format!("bad address: {s}")))
}

fn connect(cmd: &str, addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("{cmd}: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream
}

/// Issue one stat-protocol command on an open connection and return the
/// response body (terminator stripped). `None` means the server closed.
fn request(stream: &mut TcpStream, cmd: &str) -> std::io::Result<Option<String>> {
    stream.write_all(cmd.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut resp = Vec::new();
    let mut tmp = [0u8; 65536];
    loop {
        match stream.read(&mut tmp) {
            Ok(0) => {
                if resp.is_empty() {
                    return Ok(None);
                }
                break;
            }
            Ok(n) => {
                resp.extend_from_slice(&tmp[..n]);
                if resp.ends_with(b"\n.\n") || resp == b".\n" {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("no response to `{cmd}` within 10s"),
                ));
            }
            Err(e) => return Err(e),
        }
    }
    let text = String::from_utf8_lossy(&resp).into_owned();
    Ok(Some(text.strip_suffix(".\n").unwrap_or(&text).to_string()))
}

/// `repro stat`: one command, one response, exit.
pub fn stat(mut args: Vec<String>) {
    let validate = take_flag(&mut args, "--validate");
    let addr = take_addr(&mut args);
    if args.len() < 2 {
        usage(
            "stat",
            "missing command (try: metrics, conns, health, profile)",
        );
    }
    let cmd = args[1..].join(" ");

    let mut stream = connect("stat", addr);
    let body = match request(&mut stream, &cmd) {
        Ok(Some(body)) => body,
        Ok(None) => {
            eprintln!("stat: server closed the connection without responding");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("stat: {e}");
            std::process::exit(1);
        }
    };
    print!("{body}");
    if !body.ends_with('\n') {
        println!();
    }
    if validate {
        match validate_exposition(&body) {
            Ok(exp) => eprintln!(
                "stat: exposition valid — {} series, {} families",
                exp.series.len(),
                exp.types.len()
            ),
            Err(e) => {
                eprintln!("stat: INVALID exposition: {e}");
                std::process::exit(1);
            }
        }
    }
    if body.starts_with("ERR") {
        std::process::exit(1);
    }
}

/// `repro top`: redraw health + loop phases + connections every interval.
pub fn top(mut args: Vec<String>, quick: bool) {
    let interval_ms: u64 = take_value_flag(&mut args, "--interval-ms").unwrap_or(1000);
    let once = take_flag(&mut args, "--once") || quick;
    let addr = take_addr(&mut args);
    reject_leftovers(&args);

    let mut stream = connect("top", addr);
    loop {
        let mut frame = String::new();
        for cmd in ["health", "profile", "conns"] {
            match request(&mut stream, cmd) {
                Ok(Some(body)) => {
                    frame.push_str(&format!("── {cmd} ──\n"));
                    frame.push_str(&body);
                    frame.push('\n');
                }
                Ok(None) => {
                    eprintln!("top: server closed the connection");
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("top: {e}");
                    std::process::exit(1);
                }
            }
        }
        if once {
            print!("{frame}");
            return;
        }
        // Clear screen + home, then the fresh frame: flicker-free enough
        // for a line-oriented protocol without pulling in a TUI library.
        print!("\x1b[2J\x1b[H{} — refresh {}ms\n{frame}", addr, interval_ms);
        std::io::stdout().flush().ok();
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}
