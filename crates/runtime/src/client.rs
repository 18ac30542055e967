//! Client-side event loop: one MPTCP connection over N real UDP paths.

use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use mptcp::{MptcpConfig, MptcpConnection, SubflowError};
use mptcp_netsim::{SimRng, SimTime};

use crate::egress::Egress;
use crate::event_loop::{close_done, EventLoop, EGRESS_CAP, WAKE_HOLD};
use crate::profile::{LoopProfiler, Phase};
use crate::proto::ConnApp;
use crate::stats::RuntimeStats;
use crate::{virtual_tuple, LoopConfig, RuntimeError};

/// One connection, one app, N UDP paths, driven by the shared loop core.
/// Its waits leave the calling thread's timer slack at 1 ns (exact timers).
pub struct ClientRuntime<A: ConnApp> {
    core: EventLoop,
    conn: MptcpConnection,
    app: A,
    server_addrs: Vec<SocketAddr>,
    egress: Egress,
    joined: bool,
}

impl<A: ConnApp> ClientRuntime<A> {
    /// Bind `local_binds` (one per path; use port 0 for ephemeral), aim
    /// each path at the matching entry of `server_addrs`, and active-open
    /// the connection on path 0.
    pub fn connect(
        mptcp: MptcpConfig,
        seed: u64,
        local_binds: &[SocketAddr],
        server_addrs: &[SocketAddr],
        app: A,
        cfg: LoopConfig,
    ) -> io::Result<ClientRuntime<A>> {
        assert_eq!(
            local_binds.len(),
            server_addrs.len(),
            "one server address per local path"
        );
        let mut core = EventLoop::bind(local_binds, cfg)?;
        let tuple0 = virtual_tuple(0, core.paths.local_addr(0)?.port(), server_addrs[0].port());
        core.paths.learn(tuple0, 0, server_addrs[0]);
        let conn = MptcpConnection::client(mptcp, tuple0, core.clock.now(), SimRng::new(seed));
        Ok(ClientRuntime {
            core,
            conn,
            app,
            server_addrs: server_addrs.to_vec(),
            egress: Egress::new(EGRESS_CAP),
            joined: false,
        })
    }

    /// One loop iteration: drain ingress, drive the app, pump output,
    /// flush. Returns whether any datagram moved (progress).
    pub fn step(&mut self) -> bool {
        let now = self.core.begin();
        let lap = self.core.drain();
        // The whole batch at once; `clear` (not `take`) keeps its capacity.
        self.conn.handle_segments(now, &self.core.ingress);
        self.core.ingress.clear();
        // Ingress is what establishes the connection: waiting paths join.
        self.open_pending_joins(now);
        self.core.profiler.lap(lap, Phase::Demux);
        self.core
            .service(&mut self.conn, &mut self.app, &mut self.egress, now);
        self.core.end(self.conn.poll_at(now))
    }

    fn open_pending_joins(&mut self, now: SimTime) {
        if self.joined || !self.conn.is_established() {
            return;
        }
        for i in 1..self.core.paths.len() {
            let Ok(local) = self.core.paths.local_addr(i) else {
                continue;
            };
            let tuple = virtual_tuple(i, local.port(), self.server_addrs[i].port());
            match self.conn.open_subflow(tuple.src, tuple.dst, now) {
                Ok(_) | Err(SubflowError::DuplicateSubflow) => {
                    self.core.paths.learn(tuple, i, self.server_addrs[i]);
                }
                Err(_) => {}
            }
        }
        self.joined = true;
    }

    /// Block until a path socket has a datagram (or, with egress the kernel
    /// refused still queued, room for one) or the connection's next deadline
    /// is due; at most [`LoopConfig::max_wait`], and at least the loop's
    /// 250 µs interrupt moderation unless the deadline is nearer.
    pub fn idle_wait(&mut self) {
        self.core.idle_wait(std::iter::empty(), WAKE_HOLD);
    }

    /// [`step`](Self::step), then [`idle_wait`](Self::idle_wait) if nothing moved.
    pub fn turn(&mut self) {
        if !self.step() {
            self.idle_wait();
        }
    }

    /// Drive until the app finishes, then until the close handshake is
    /// done at the data level (at most 500 ms; the transfer itself is
    /// complete). Errors on connection abort or timeout.
    pub fn run(&mut self, timeout: Duration) -> Result<(), RuntimeError> {
        let hard = Instant::now() + timeout;
        while !self.app.finished() {
            self.turn();
            if let Some(reason) = self.conn.abort_reason() {
                return Err(RuntimeError::Aborted(reason));
            }
            if Instant::now() > hard {
                return Err(RuntimeError::Timeout);
            }
        }
        let linger = Instant::now() + Duration::from_millis(500);
        while !close_done(&self.conn, &self.egress) && Instant::now() < linger {
            self.turn();
        }
        Ok(())
    }

    /// Block or unblock a path (fault injection for tests and demos).
    pub fn block_path(&mut self, i: usize, blocked: bool) {
        self.core.paths.set_blocked(i, blocked);
    }

    /// The application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The connection (telemetry, stats, subflows).
    pub fn conn(&self) -> &MptcpConnection {
        &self.conn
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
