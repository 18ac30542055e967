//! Server-side event loop: a listener multiplexing many connections over
//! shared UDP sockets.
//!
//! Demux and readiness are entirely the core's: [`mptcp::MptcpListener`]
//! routes segments to connections by virtual four-tuple and MP_JOIN token
//! and says which connections are due — touched by ingress, an expired
//! deadline, or woken here for backlogged egress — so the runtime only
//! moves datagrams for exactly those, and idle connections cost nothing
//! per iteration.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mptcp::{MptcpConfig, MptcpListener};
use mptcp_netsim::SimTime;

use crate::admin::{AdminCtx, AdminServer};
use crate::egress::Egress;
use crate::event_loop::{close_done, EventLoop, EGRESS_CAP, WAKE_HOLD};
use crate::paths::Wake;
use crate::profile::{LoopProfiler, Phase};
use crate::proto::ConnApp;
use crate::stats::RuntimeStats;
use crate::{LoopConfig, RuntimeError};

/// Creates the application attached to each accepted connection.
pub type AppFactory = Box<dyn FnMut() -> Box<dyn ConnApp + Send> + Send>;

/// Per-connection loop state, parallel to `listener.conns`.
pub(crate) struct Slot {
    app: Box<dyn ConnApp + Send>,
    egress: Egress,
    /// Finished *and* closed, and counted in `served`. The listener keeps
    /// polling the connection until its sockets are through TIME_WAIT.
    pub(crate) reaped: bool,
    /// Accept time (for admin `conns` age reporting).
    pub(crate) created: SimTime,
}

/// Listener and connection slots over the core. Its waits, not `bind`,
/// leave the calling thread's timer slack at 1 ns (exact timers).
pub struct ServerRuntime {
    core: EventLoop,
    listener: MptcpListener,
    slots: Vec<Slot>,
    factory: AppFactory,
    /// Scratch: the connections this iteration services.
    due: Vec<usize>,
    served: u64,
    /// Live introspection plane, polled from this same loop when enabled.
    admin: Option<AdminServer>,
}

impl ServerRuntime {
    /// Bind the given addresses (one socket per path) and serve.
    pub fn bind(
        mptcp: MptcpConfig,
        seed: u64,
        binds: &[SocketAddr],
        factory: AppFactory,
        cfg: LoopConfig,
    ) -> io::Result<ServerRuntime> {
        Ok(ServerRuntime {
            core: EventLoop::bind(binds, cfg)?,
            listener: MptcpListener::new(mptcp, seed),
            slots: Vec::new(),
            factory,
            due: Vec::new(),
            served: 0,
            admin: None,
        })
    }

    /// Bind the admin introspection socket (intended for localhost) and
    /// start answering stat-protocol and `GET /metrics` requests from this
    /// loop. Returns the bound address (useful with port 0).
    pub fn enable_admin(&mut self, addr: SocketAddr) -> io::Result<SocketAddr> {
        let admin = AdminServer::bind(addr)?;
        let local = admin.local_addr()?;
        self.admin = Some(admin);
        Ok(local)
    }

    /// Real local address of path `i`.
    pub fn local_addr(&self, i: usize) -> io::Result<SocketAddr> {
        self.core.paths.local_addr(i)
    }

    /// One loop iteration. Returns whether any datagram or segment moved.
    pub fn step(&mut self) -> bool {
        let now = self.core.begin();
        let lap = self.core.drain();
        // The whole batch at once. The listener wakes what it fed, so the
        // touched list it also fills in is dropped: `take_due` has those
        // connections, the expired ones, and the order to service them in.
        let mut due = std::mem::take(&mut self.due);
        self.listener
            .handle_segments(now, &self.core.ingress, &mut due);
        self.core.ingress.clear();
        due.clear();
        self.listener.take_due(now, &mut due);
        self.core.profiler.lap(lap, Phase::Demux);

        let mut backlogged = false;
        for idx in due.drain(..) {
            while self.slots.len() <= idx {
                self.slots.push(Slot {
                    app: (self.factory)(),
                    egress: Egress::new(EGRESS_CAP),
                    reaped: false,
                    created: now,
                });
            }
            let slot = &mut self.slots[idx];
            let conn = self.listener.conn_mut(idx);
            self.core
                .service(conn, slot.app.as_mut(), &mut slot.egress, now);
            if !slot.reaped && slot.app.finished() && close_done(conn, &slot.egress) {
                slot.reaped = true;
                slot.egress.release();
                self.served += 1;
            }
            self.listener.settle(idx, now);
            if !slot.egress.is_empty() {
                // Kernel pushback: retry the flush next iteration.
                self.listener.wake(idx);
                backlogged = true;
            }
        }
        self.due = due;
        let moved = self.core.end(self.listener.poll_at(now));

        if let Some(admin) = self.admin.as_mut() {
            let ctx = AdminCtx {
                listener: &self.listener,
                profiler: &self.core.profiler,
                paths: &self.core.paths,
                slots: &self.slots,
                now,
                served: self.served,
            };
            admin.poll(&mut self.core.stats, &ctx);
        }
        moved || backlogged
    }

    /// Block until a path socket has a datagram, the admin socket has a
    /// connection attempt or a request, or the listener's next deadline is
    /// due; at most [`LoopConfig::max_wait`], and at least the loop's 250 µs
    /// interrupt moderation unless the deadline is nearer.
    pub fn idle_wait(&mut self) {
        self.wait();
    }

    fn wait(&mut self) -> Wake {
        let admin = self.admin.iter().flat_map(AdminServer::interest);
        self.core.idle_wait(admin, WAKE_HOLD)
    }

    /// [`step`](Self::step), then [`idle_wait`](Self::idle_wait) if nothing moved.
    pub fn turn(&mut self) {
        if !self.step() {
            self.idle_wait();
        }
    }

    /// Serve until `n` connections have finished and closed, or time out.
    pub fn run_until_served(&mut self, n: u64, timeout: Duration) -> Result<(), RuntimeError> {
        let hard = Instant::now() + timeout;
        while self.served < n {
            self.turn();
            if Instant::now() > hard {
                return Err(RuntimeError::Timeout);
            }
        }
        Ok(())
    }

    /// Connections that finished their app and fully closed.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Total connections ever accepted (including reaped).
    pub fn accepted(&self) -> usize {
        self.listener.len()
    }

    /// The listener (connection table, token table, reject counters).
    pub fn listener(&self) -> &MptcpListener {
        &self.listener
    }

    /// Loop instrumentation.
    pub fn stats(&self) -> &RuntimeStats {
        &self.core.stats
    }

    /// Loop-phase timing histograms (inert unless `cfg.profile`).
    pub fn profiler(&self) -> &LoopProfiler {
        &self.core.profiler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FetchServer;
    use mptcp_telemetry::CounterId;

    /// The admin plane is polled from the same loop, so the loop's wait
    /// must end for it: a connection attempt wakes an otherwise idle
    /// server, and so does the request that follows.
    #[test]
    fn an_admin_connection_attempt_wakes_a_waiting_server() {
        use std::io::Write;
        let any: SocketAddr = "127.0.0.1:0".parse().unwrap();
        let cfg = LoopConfig {
            max_wait: Duration::from_secs(10),
            ..LoopConfig::default()
        };
        let factory: AppFactory = Box::new(|| Box::new(FetchServer::new()));
        let mut server = ServerRuntime::bind(MptcpConfig::default(), 1, &[any], factory, cfg)
            .expect("bind loopback");
        let admin = server.enable_admin(any).unwrap();

        // The kernel completes the handshake into the accept queue, so the
        // listener is readable before the server has looked.
        let mut scraper = std::net::TcpStream::connect(admin).unwrap();
        assert_eq!(server.wait(), Wake::Readable);
        assert!(!server.step(), "accepting moves no datagram");

        scraper.write_all(b"health\n").unwrap();
        assert_eq!(server.wait(), Wake::Readable);
        server.step();
        assert_eq!(server.stats().rec.counter(CounterId::RtAdminRequests), 1);
    }
}
