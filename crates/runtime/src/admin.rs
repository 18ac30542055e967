//! Live introspection plane: the admin socket.
//!
//! A localhost TCP listener polled from the *same* event loop as the
//! connections it describes — never a second thread touching connection
//! state, so every dump is a consistent point-in-time view and the data
//! path needs no locks. It speaks two protocols on one port:
//!
//! - a line-oriented stat protocol (`conns`, `conn <token>`, `paths`,
//!   `profile`, `health`, `metrics`, `help`): one command per line, the
//!   response is text terminated by a line containing a single `.` —
//!   `ss -M`-style per-connection dumps for a live server;
//! - plain HTTP: a request line starting with `GET ` gets an HTTP/1.0
//!   response (`/metrics` serves the Prometheus text exposition), so
//!   `curl http://host:port/metrics` and a scraping Prometheus both work
//!   unconfigured.
//!
//! Everything is non-blocking with per-client read/write buffers: a slow,
//! stalled, or mid-response-disconnecting client can never stall the
//! event loop — writes park in the client's buffer and the client is
//! dropped on error, overflow, or completed close.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};

use mptcp::{ConnState, MptcpConnection, MptcpListener, PathState};
use mptcp_netsim::SimTime;
use mptcp_telemetry::{CounterId, GaugeId, TelemetrySnapshot};

use crate::paths::{PathSet, POLLIN, POLLOUT};
use crate::profile::{LoopProfiler, Phase};
use crate::server::Slot;
use crate::stats::RuntimeStats;

/// Concurrent admin clients; later connections are accepted and dropped.
const MAX_CLIENTS: usize = 8;
/// Longest accepted command line, bytes.
const MAX_LINE: usize = 4096;
/// Per-client pending-write cap; slower consumers are disconnected.
const MAX_WBUF: usize = 4 << 20;

/// Read-only view of the runtime the admin plane reports on, borrowed
/// field-by-field from the event loop for one `poll` call.
pub struct AdminCtx<'a> {
    /// The connection table being described.
    pub listener: &'a MptcpListener,
    /// Loop-phase timing histograms.
    pub profiler: &'a LoopProfiler,
    /// Real sockets and the learned route table.
    pub paths: &'a PathSet,
    /// The loop's per-connection table (accept time, reaped flag),
    /// parallel to `listener.conns`.
    pub(crate) slots: &'a [Slot],
    /// Current loop time.
    pub now: SimTime,
    /// Connections that finished their app and closed.
    pub served: u64,
}

struct AdminClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    close_after_flush: bool,
    dead: bool,
}

impl AdminClient {
    fn new(stream: TcpStream) -> AdminClient {
        AdminClient {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            close_after_flush: false,
            dead: false,
        }
    }

    /// Queue a stat-protocol response: body plus the `.` terminator line.
    fn respond(&mut self, body: &str) {
        self.wbuf.extend_from_slice(body.as_bytes());
        if !body.is_empty() && !body.ends_with('\n') {
            self.wbuf.push(b'\n');
        }
        self.wbuf.extend_from_slice(b".\n");
    }

    fn respond_http(&mut self, status: &str, body: &str) {
        let head = format!(
            "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        self.wbuf.extend_from_slice(head.as_bytes());
        self.wbuf.extend_from_slice(body.as_bytes());
        self.close_after_flush = true;
    }

    fn pump_read(&mut self) {
        let mut tmp = [0u8; 4096];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    // Peer closed its write side. Finish flushing whatever
                    // we owe it, then drop the client.
                    if self.wbuf.len() == self.wpos {
                        self.dead = true;
                    } else {
                        self.close_after_flush = true;
                    }
                    return;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&tmp[..n]);
                    if self.rbuf.len() > MAX_LINE && !self.rbuf.contains(&b'\n') {
                        self.dead = true;
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    fn pump_write(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            if self.close_after_flush {
                self.dead = true;
            }
        } else if self.wbuf.len() - self.wpos > MAX_WBUF {
            self.dead = true;
        }
    }
}

/// The admin listener plus its connected clients.
pub struct AdminServer {
    listener: TcpListener,
    clients: Vec<AdminClient>,
}

impl AdminServer {
    /// Bind the (localhost-intended) admin address, non-blocking.
    pub fn bind(addr: SocketAddr) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(AdminServer {
            listener,
            clients: Vec::new(),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// One non-blocking service round: accept new clients, read and
    /// dispatch complete commands, flush pending responses, drop dead
    /// clients. Called once per event-loop iteration; never blocks.
    pub fn poll(&mut self, stats: &mut RuntimeStats, ctx: &AdminCtx<'_>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.clients.len() >= MAX_CLIENTS || stream.set_nonblocking(true).is_err() {
                        continue; // accepted and immediately dropped
                    }
                    let _ = stream.set_nodelay(true);
                    self.clients.push(AdminClient::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        for c in &mut self.clients {
            if c.dead {
                continue;
            }
            c.pump_read();
            Self::dispatch_buffered(c, stats, ctx);
            c.pump_write();
        }
        self.clients.retain(|c| !c.dead);
    }

    /// What must end the loop's readiness wait for [`poll`](Self::poll) to
    /// have work: a connection attempt, a client's next bytes, room for a
    /// response the kernel would not take whole. A client that is only
    /// owed its last bytes is not read again, so its EOF wakes nobody.
    pub(crate) fn interest(&self) -> impl Iterator<Item = (RawFd, i16)> + '_ {
        let clients = self.clients.iter().map(|c| {
            let read = if c.close_after_flush { 0 } else { POLLIN };
            let write = if c.wpos < c.wbuf.len() { POLLOUT } else { 0 };
            (c.stream.as_raw_fd(), read | write)
        });
        std::iter::once((self.listener.as_raw_fd(), POLLIN)).chain(clients)
    }

    fn dispatch_buffered(c: &mut AdminClient, stats: &mut RuntimeStats, ctx: &AdminCtx<'_>) {
        if c.dead {
            return;
        }
        // HTTP detection: a GET request line gets one HTTP response and a
        // close; any trailing request headers are irrelevant and ignored.
        if c.rbuf.starts_with(b"GET ") {
            let Some(eol) = c.rbuf.iter().position(|&b| b == b'\n') else {
                return;
            };
            let line = String::from_utf8_lossy(&c.rbuf[..eol]).into_owned();
            c.rbuf.clear();
            stats.rec.count(CounterId::RtAdminRequests);
            let path = line.split_whitespace().nth(1).unwrap_or("/");
            if path == "/metrics" || path.starts_with("/metrics?") {
                c.respond_http("200 OK", &prometheus_text(stats, ctx));
            } else {
                c.respond_http("404 Not Found", "not found; try /metrics\n");
            }
            return;
        }
        while let Some(eol) = c.rbuf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = c.rbuf.drain(..=eol).collect();
            let line = String::from_utf8_lossy(&line).trim().to_string();
            if line.is_empty() {
                continue;
            }
            stats.rec.count(CounterId::RtAdminRequests);
            Self::dispatch_line(c, &line, stats, ctx);
            if c.dead || c.close_after_flush {
                break;
            }
        }
    }

    fn dispatch_line(c: &mut AdminClient, line: &str, stats: &RuntimeStats, ctx: &AdminCtx<'_>) {
        let mut words = line.split_whitespace();
        let cmd = words.next().unwrap_or("");
        match cmd {
            "metrics" => c.respond(&prometheus_text(stats, ctx)),
            "conns" => c.respond(&render_conns(ctx)),
            "conn" => match words.next().map(parse_token) {
                Some(Some(token)) => match find_conn(ctx, token) {
                    Some(i) => c.respond(&render_conn_detail(ctx, i)),
                    None => c.respond(&format!("ERR no connection with token {token:08x}")),
                },
                _ => c.respond("ERR usage: conn <hex-token>"),
            },
            "paths" => c.respond(&render_paths(ctx)),
            "profile" => c.respond(&ctx.profiler.render_table()),
            "health" => c.respond(&render_health(stats, ctx)),
            "help" => c.respond(
                "commands: conns | conn <token> | paths | profile | health | metrics | help | quit\n\
                 responses end with a line containing a single '.'\n\
                 HTTP: GET /metrics returns the same exposition for curl/Prometheus",
            ),
            "quit" | "exit" => {
                c.close_after_flush = true;
            }
            other => c.respond(&format!("ERR unknown command: {other}")),
        }
    }
}

fn parse_token(s: &str) -> Option<u32> {
    let hex = s.strip_prefix("0x").unwrap_or(s);
    u32::from_str_radix(hex, 16).ok()
}

fn find_conn(ctx: &AdminCtx<'_>, token: u32) -> Option<usize> {
    ctx.listener
        .conns
        .iter()
        .position(|c| c.local_token() == token)
}

fn conn_state_name(s: ConnState) -> &'static str {
    match s {
        ConnState::Handshake => "handshake",
        ConnState::AwaitingConfirm => "awaiting-confirm",
        ConnState::Established => "established",
        ConnState::Fallback => "fallback",
        ConnState::Closed => "closed",
    }
}

fn path_state_letter(s: PathState) -> char {
    match s {
        PathState::Active => 'A',
        PathState::Suspect => 'S',
        PathState::Failed => 'F',
    }
}

fn ip(addr: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        addr >> 24,
        (addr >> 16) & 0xff,
        (addr >> 8) & 0xff,
        addr & 0xff
    )
}

fn reaped(ctx: &AdminCtx<'_>, i: usize) -> bool {
    ctx.slots.get(i).is_some_and(|s| s.reaped)
}

fn age_secs(ctx: &AdminCtx<'_>, i: usize) -> f64 {
    let created = ctx.slots.get(i).map_or(ctx.now, |s| s.created);
    (ctx.now.0.saturating_sub(created.0)) as f64 / 1e9
}

/// One compact row per path: `A/S/F` per subflow, `x` once dead.
fn path_states(conn: &MptcpConnection) -> String {
    let mut s = String::new();
    for (i, sf) in conn.subflows().iter().enumerate() {
        if i > 0 {
            s.push('/');
        }
        s.push(if sf.dead {
            'x'
        } else {
            path_state_letter(conn.path_state(i))
        });
    }
    if s.is_empty() {
        s.push('-');
    }
    s
}

fn conn_tx_bytes(conn: &MptcpConnection) -> u64 {
    conn.subflows()
        .iter()
        .map(|sf| sf.sock.stats.bytes_out)
        .sum()
}

fn render_conns(ctx: &AdminCtx<'_>) -> String {
    let mut out = format!(
        "{:<10} {:<16} {:<8} {:>12} {:>12} {:>7} {:>9}\n",
        "TOKEN", "STATE", "PATHS", "TX-BYTES", "RX-BYTES", "REORD", "AGE-S"
    );
    for (i, conn) in ctx.listener.conns.iter().enumerate() {
        let state = if reaped(ctx, i) {
            "reaped"
        } else {
            conn_state_name(conn.state())
        };
        out.push_str(&format!(
            "{:<10} {:<16} {:<8} {:>12} {:>12} {:>7} {:>9.2}\n",
            format!("{:08x}", conn.local_token()),
            state,
            path_states(conn),
            conn_tx_bytes(conn),
            conn.stats.bytes_delivered,
            conn.reorder_queue().len(),
            age_secs(ctx, i),
        ));
    }
    out.push_str(&format!("({} connections)\n", ctx.listener.conns.len()));
    out
}

fn render_conn_detail(ctx: &AdminCtx<'_>, i: usize) -> String {
    let conn = &ctx.listener.conns[i];
    let mut out = format!(
        "conn {:08x}\n  state {}  age_s {:.2}  reaped {}\n",
        conn.local_token(),
        conn_state_name(conn.state()),
        age_secs(ctx, i),
        reaped(ctx, i),
    );
    out.push_str(&format!(
        "  rcv_buf {}  rcv_window {}  reorder_segs {}  reorder_bytes {}\n",
        conn.rcv_buf_capacity(),
        conn.rcv_window(),
        conn.reorder_queue().len(),
        conn.reorder_queue().buffered_bytes(),
    ));
    let s = &conn.stats;
    out.push_str(&format!(
        "  bytes_written {}  bytes_delivered {}  bytes_scheduled {}  data_outstanding {}\n",
        s.bytes_written,
        s.bytes_delivered,
        s.bytes_scheduled,
        conn.data_outstanding(),
    ));
    let t = conn.telemetry();
    out.push_str(&format!(
        "  reinjections {}  penalizations {}  data_rtos {}  path_failures {}  path_recoveries {}\n",
        s.reinjections,
        t.counter(CounterId::M2Penalizations),
        t.counter(CounterId::DataRtos),
        t.counter(CounterId::PathFailures),
        t.counter(CounterId::PathRecoveries),
    ));
    for (k, sf) in conn.subflows().iter().enumerate() {
        let t = sf.sock.tuple();
        out.push_str(&format!(
            "  subflow {k}: {}:{}->{}:{} state {}{}{} cwnd {} srtt_us {} in_flight {} rto_ms {} \
             bytes_out {} bytes_acked {} rtos {} fast_rexmits {}\n",
            ip(t.src.addr),
            t.src.port,
            ip(t.dst.addr),
            t.dst.port,
            match conn.path_state(k) {
                PathState::Active => "Active",
                PathState::Suspect => "Suspect",
                PathState::Failed => "Failed",
            },
            if sf.dead { " dead" } else { "" },
            if sf.backup { " backup" } else { "" },
            sf.sock.cwnd(),
            sf.sock
                .srtt()
                .map(|d| d.as_micros() as u64)
                .unwrap_or_default(),
            sf.sock.bytes_in_flight(),
            sf.sock.rto().as_millis(),
            sf.sock.stats.bytes_out,
            sf.sock.stats.bytes_acked,
            sf.sock.telemetry.counter(CounterId::TcpRtos),
            sf.sock.telemetry.counter(CounterId::TcpFastRetransmits),
        ));
    }
    out
}

fn render_paths(ctx: &AdminCtx<'_>) -> String {
    let mut out = format!(
        "{:<6} {:<22} {:<8} {:>7}\n",
        "PATH", "LOCAL", "BLOCKED", "ROUTES"
    );
    for i in 0..ctx.paths.len() {
        let local = ctx
            .paths
            .local_addr(i)
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".to_string());
        out.push_str(&format!(
            "{:<6} {:<22} {:<8} {:>7}\n",
            i,
            local,
            ctx.paths.is_blocked(i),
            ctx.paths.routes_on(i),
        ));
    }
    // Per-connection path-manager state: the endpoint registry with its
    // kernel-style flags, the limits in force, and each outstanding
    // ADD_ADDR's echo/retransmit progress.
    for (i, conn) in ctx.listener.conns.iter().enumerate() {
        if reaped(ctx, i) {
            continue;
        }
        let pm = conn.path_manager();
        let lim = pm.cfg().limits;
        out.push_str(&format!(
            "pm {:08x}: policy {}  opened {}/{}  remotes {}/{} (+{} ignored)\n",
            conn.local_token(),
            pm.policy().name(),
            pm.subflows_opened(),
            lim.max_subflows,
            pm.remotes_accepted(),
            lim.add_addr_accepted,
            pm.remotes_ignored(),
        ));
        for ep in &pm.cfg().endpoints {
            out.push_str(&format!(
                "  endpoint {:<15} port {:<5} flags {}\n",
                ip(ep.addr),
                ep.port
                    .map(|p| p.to_string())
                    .unwrap_or_else(|| "auto".to_string()),
                ep.flags.label(),
            ));
        }
        for (addr, echoed, rtx) in pm.advert_states() {
            out.push_str(&format!(
                "  advert {:<15} echoed {:<5} retransmits {}\n",
                ip(addr),
                echoed,
                rtx,
            ));
        }
    }
    out
}

fn render_health(stats: &RuntimeStats, ctx: &AdminCtx<'_>) -> String {
    let live = ctx
        .listener
        .conns
        .iter()
        .enumerate()
        .filter(|(i, _)| !reaped(ctx, *i))
        .count();
    let c = |id: CounterId| stats.rec.counter(id);
    let mut out = String::new();
    let mut kv = |k: &str, v: String| out.push_str(&format!("{k:<24} {v}\n"));
    kv("served", ctx.served.to_string());
    kv("accepted", ctx.listener.conns.len().to_string());
    kv("live", live.to_string());
    kv("paths", ctx.paths.len().to_string());
    kv(
        "loop_iterations",
        c(CounterId::RtLoopIterations).to_string(),
    );
    kv("datagrams_rx", c(CounterId::RtDatagramsRx).to_string());
    kv("datagrams_tx", c(CounterId::RtDatagramsTx).to_string());
    kv("decode_errors", c(CounterId::RtDecodeErrors).to_string());
    kv(
        "egress_backpressure",
        c(CounterId::RtEgressBackpressure).to_string(),
    );
    kv("late_ticks", c(CounterId::RtLateTicks).to_string());
    kv("tick_skew_p99_ns", stats.skew_quantile_ns(0.99).to_string());
    kv(
        "pool_outstanding",
        stats
            .rec
            .gauge(GaugeId::RtPoolOutstanding)
            .current
            .to_string(),
    );
    kv(
        "pool_high_water",
        stats
            .rec
            .gauge(GaugeId::RtPoolHighWater)
            .current
            .to_string(),
    );
    kv("admin_requests", c(CounterId::RtAdminRequests).to_string());
    out
}

fn sanitize_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', " ")
}

/// Render the Prometheus text exposition (format 0.0.4): every telemetry
/// counter and gauge — the runtime loop's recorder plus the sum over all
/// live connections' snapshots — with `# HELP`/`# TYPE` headers from the
/// registry, then the tick-skew and loop-phase summaries, then server
/// meta-series. Metric names are `mptcp_<registry name>`; counters end in
/// `_total`, gauge high-water marks in `_peak`.
pub fn prometheus_text(stats: &RuntimeStats, ctx: &AdminCtx<'_>) -> String {
    let snaps: Vec<TelemetrySnapshot> = ctx.listener.conns.iter().map(|c| c.telemetry()).collect();
    let mut out = String::with_capacity(16 << 10);

    for id in CounterId::ALL {
        let total: u64 = stats.rec.counter(id) + snaps.iter().map(|s| s.counter(id)).sum::<u64>();
        let name = format!("mptcp_{}_total", id.name());
        out.push_str(&format!("# HELP {name} {}\n", sanitize_help(id.help())));
        out.push_str(&format!("# TYPE {name} counter\n"));
        out.push_str(&format!("{name} {total}\n"));
    }
    for id in GaugeId::ALL {
        let current: u64 =
            stats.rec.gauge(id).current + snaps.iter().map(|s| s.gauge(id).current).sum::<u64>();
        let peak: u64 = snaps
            .iter()
            .map(|s| s.gauge(id).max)
            .fold(stats.rec.gauge(id).max, u64::max);
        let name = format!("mptcp_{}", id.name());
        let help = sanitize_help(id.help());
        out.push_str(&format!("# HELP {name} {help}\n"));
        out.push_str(&format!("# TYPE {name} gauge\n"));
        out.push_str(&format!("{name} {current}\n"));
        out.push_str(&format!("# HELP {name}_peak high-water mark: {help}\n"));
        out.push_str(&format!("# TYPE {name}_peak gauge\n"));
        out.push_str(&format!("{name}_peak {peak}\n"));
    }

    // Tick-skew summary from the runtime's log histogram.
    let skew = stats.skew_hist();
    out.push_str(
        "# HELP mptcp_loop_tick_skew_ns lateness of timer ticks past their promised deadline\n\
         # TYPE mptcp_loop_tick_skew_ns summary\n",
    );
    for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
        out.push_str(&format!(
            "mptcp_loop_tick_skew_ns{{quantile=\"{label}\"}} {}\n",
            skew.quantile(q)
        ));
    }
    out.push_str(&format!(
        "mptcp_loop_tick_skew_ns_sum {}\nmptcp_loop_tick_skew_ns_count {}\n",
        skew.sum(),
        skew.samples()
    ));

    // Loop-phase summaries, one labelled series set per phase.
    if ctx.profiler.enabled() {
        out.push_str(
            "# HELP mptcp_loop_phase_ns time spent per event-loop phase per iteration\n\
             # TYPE mptcp_loop_phase_ns summary\n",
        );
        for phase in Phase::ALL {
            let Some(h) = ctx.profiler.hist(phase) else {
                continue;
            };
            let p = phase.name();
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "mptcp_loop_phase_ns{{phase=\"{p}\",quantile=\"{label}\"}} {}\n",
                    h.quantile(q)
                ));
            }
            out.push_str(&format!(
                "mptcp_loop_phase_ns_sum{{phase=\"{p}\"}} {}\n\
                 mptcp_loop_phase_ns_count{{phase=\"{p}\"}} {}\n",
                h.sum(),
                h.samples()
            ));
        }
    }

    // Server meta-series.
    let live = ctx
        .listener
        .conns
        .iter()
        .enumerate()
        .filter(|(i, _)| !reaped(ctx, *i))
        .count();
    out.push_str(&format!(
        "# HELP mptcp_server_connections connections currently tracked and not reaped\n\
         # TYPE mptcp_server_connections gauge\n\
         mptcp_server_connections {live}\n\
         # HELP mptcp_server_accepted_total connections ever accepted\n\
         # TYPE mptcp_server_accepted_total counter\n\
         mptcp_server_accepted_total {}\n\
         # HELP mptcp_server_served_total connections that finished and closed\n\
         # TYPE mptcp_server_served_total counter\n\
         mptcp_server_served_total {}\n\
         # HELP mptcp_server_rejected_syns_total SYNs refused by the listener\n\
         # TYPE mptcp_server_rejected_syns_total counter\n\
         mptcp_server_rejected_syns_total {}\n\
         # HELP mptcp_server_paths bound UDP paths\n\
         # TYPE mptcp_server_paths gauge\n\
         mptcp_server_paths {}\n",
        ctx.listener.conns.len(),
        ctx.served,
        ctx.listener.rejected_syns,
        ctx.paths.len(),
    ));
    out
}

/// A parsed exposition: series (full name incl. labels) and family types.
#[derive(Debug, Default)]
pub struct Exposition {
    /// `name{labels}` (or bare `name`) -> sample value.
    pub series: BTreeMap<String, f64>,
    /// Metric family name -> declared `# TYPE`.
    pub types: BTreeMap<String, String>,
}

impl Exposition {
    /// Series whose family was declared `counter`.
    pub fn counter_series(&self) -> impl Iterator<Item = (&str, f64)> {
        self.series
            .iter()
            .filter(|(name, _)| {
                let family = name.split('{').next().unwrap_or(name);
                self.types.get(family).map(String::as_str) == Some("counter")
            })
            .map(|(n, &v)| (n.as_str(), v))
    }
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Family a sample belongs to: itself, unless it is the `_sum`/`_count`
/// child of a declared summary/histogram.
fn sample_family<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_sum", "_count", "_bucket"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if matches!(
                types.get(base).map(String::as_str),
                Some("summary" | "histogram")
            ) {
                return base;
            }
        }
    }
    name
}

/// Minimal Prometheus text-format (0.0.4) validator. Checks comment
/// syntax, metric-name syntax, parseable sample values, one `# TYPE` (and
/// at most one `# HELP`) per family, every sample covered by a `# TYPE`,
/// and no duplicate series. Returns the parsed series for cross-scrape
/// checks ([`check_monotone`]).
pub fn validate_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    let mut helps: BTreeMap<String, ()> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.splitn(2, ' ');
                let name = it.next().unwrap_or("");
                let ty = it.next().unwrap_or("").trim();
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: bad metric name in TYPE: {name:?}"));
                }
                if !matches!(
                    ty,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ) {
                    return Err(format!("line {n}: unknown type {ty:?} for {name}"));
                }
                if exp.types.insert(name.to_string(), ty.to_string()).is_some() {
                    return Err(format!("line {n}: duplicate TYPE for {name}"));
                }
            } else if let Some(decl) = rest.strip_prefix("HELP ") {
                let name = decl.split(' ').next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(format!("line {n}: bad metric name in HELP: {name:?}"));
                }
                if helps.insert(name.to_string(), ()).is_some() {
                    return Err(format!("line {n}: duplicate HELP for {name}"));
                }
            }
            // Other comments are legal and ignored.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name, after) = match line.find(['{', ' ']) {
            Some(i) => (&line[..i], &line[i..]),
            None => return Err(format!("line {n}: sample with no value: {line:?}")),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {n}: bad metric name: {name:?}"));
        }
        let (labels, value_part) = if let Some(stripped) = after.strip_prefix('{') {
            let Some(close) = stripped.find('}') else {
                return Err(format!("line {n}: unterminated label block"));
            };
            (&stripped[..close], &stripped[close + 1..])
        } else {
            ("", after)
        };
        for pair in labels.split(',').filter(|p| !p.is_empty()) {
            let Some((k, v)) = pair.split_once('=') else {
                return Err(format!("line {n}: bad label pair {pair:?}"));
            };
            if !valid_metric_name(k) || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                return Err(format!("line {n}: bad label {pair:?}"));
            }
        }
        let mut fields = value_part.split_whitespace();
        let Some(value) = fields.next() else {
            return Err(format!("line {n}: sample with no value: {line:?}"));
        };
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .map_err(|_| format!("line {n}: unparseable value {v:?}"))?,
        };
        if let Some(ts) = fields.next() {
            ts.parse::<i64>()
                .map_err(|_| format!("line {n}: unparseable timestamp {ts:?}"))?;
        }
        if fields.next().is_some() {
            return Err(format!("line {n}: trailing garbage: {line:?}"));
        }
        let family = sample_family(name, &exp.types);
        if !exp.types.contains_key(family) {
            return Err(format!("line {n}: sample {name} has no # TYPE declaration"));
        }
        let series = if labels.is_empty() {
            name.to_string()
        } else {
            format!("{name}{{{labels}}}")
        };
        if exp.series.insert(series.clone(), value).is_some() {
            return Err(format!("line {n}: duplicate series {series}"));
        }
    }
    if exp.series.is_empty() {
        return Err("no samples in exposition".to_string());
    }
    Ok(exp)
}

/// Assert every counter series present in `prev` is present in `next`
/// with a value that did not decrease.
pub fn check_monotone(prev: &Exposition, next: &Exposition) -> Result<(), String> {
    for (name, v0) in prev.counter_series() {
        match next.series.get(name) {
            None => return Err(format!("counter {name} disappeared between scrapes")),
            Some(&v1) if v1 < v0 => {
                return Err(format!("counter {name} went backwards: {v0} -> {v1}"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_minimal_exposition() {
        let text = "# HELP x_total things\n# TYPE x_total counter\nx_total 3\n\
                    # TYPE lat_ns summary\nlat_ns{quantile=\"0.5\"} 10\nlat_ns_sum 20\nlat_ns_count 2\n";
        let exp = validate_exposition(text).expect("valid");
        assert_eq!(exp.series["x_total"], 3.0);
        assert_eq!(exp.series["lat_ns{quantile=\"0.5\"}"], 10.0);
        assert_eq!(exp.types["x_total"], "counter");
        let counters: Vec<_> = exp.counter_series().collect();
        assert_eq!(counters, vec![("x_total", 3.0)]);
    }

    #[test]
    fn validator_rejects_duplicate_series() {
        let text = "# TYPE a gauge\na 1\na 2\n";
        assert!(validate_exposition(text)
            .unwrap_err()
            .contains("duplicate series"));
    }

    #[test]
    fn validator_rejects_untyped_sample() {
        assert!(validate_exposition("mystery 7\n")
            .unwrap_err()
            .contains("no # TYPE"));
    }

    #[test]
    fn validator_rejects_garbage_value() {
        let text = "# TYPE a gauge\na banana\n";
        assert!(validate_exposition(text)
            .unwrap_err()
            .contains("unparseable"));
    }

    #[test]
    fn validator_rejects_duplicate_type() {
        let text = "# TYPE a gauge\n# TYPE a counter\na 1\n";
        assert!(validate_exposition(text)
            .unwrap_err()
            .contains("duplicate TYPE"));
    }

    #[test]
    fn monotone_check_catches_regression() {
        let a = validate_exposition("# TYPE c_total counter\nc_total 5\n").unwrap();
        let b = validate_exposition("# TYPE c_total counter\nc_total 4\n").unwrap();
        assert!(check_monotone(&a, &b).unwrap_err().contains("backwards"));
        assert!(check_monotone(&a, &a).is_ok());
    }

    #[test]
    fn token_parsing() {
        assert_eq!(parse_token("1a2b3c4d"), Some(0x1a2b3c4d));
        assert_eq!(parse_token("0x10"), Some(16));
        assert_eq!(parse_token("zz"), None);
    }
}
