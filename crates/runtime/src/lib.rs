//! Real-network runtime for the MPTCP implementation.
//!
//! The simulator proves the protocol logic; this crate proves it *deploys*:
//! the same unmodified state machines ([`mptcp::MptcpConnection`],
//! [`mptcp::MptcpListener`]) run here over real, non-blocking
//! [`std::net::UdpSocket`]s — one UDP four-tuple per subflow — so two
//! actual processes speak MPTCP to each other across loopback or a LAN.
//! The paper's deployability argument (§2) is that multipath must live
//! inside the transport while presenting an unchanged socket API;
//! encapsulating the segments in UDP is the userspace analogue: no raw
//! sockets, no kernel module, no elevated privileges.
//!
//! Layering:
//!
//! - [`clock`]: maps monotonic wall time onto [`mptcp_netsim::SimTime`] so
//!   the core stays simulator-agnostic.
//! - [`wire`]: one datagram = one checksum-verified [`mptcp_packet::TcpSegment`]
//!   plus the virtual addresses TCP headers don't carry.
//! - [`paths`]: real sockets plus the learned route table from virtual
//!   four-tuples to `(path, real address)`.
//! - [`egress`]: bounded per-connection output queues — kernel pushback
//!   becomes connection backpressure, never unbounded memory.
//! - `event_loop` (crate-private): the one loop core — clock, paths,
//!   pool, stats and profiler, and the steps every iteration shares
//!   (late-tick accounting, path drain, drive → poll → encode → egress →
//!   flush per connection, the readiness wait between iterations).
//! - [`client`] / [`server`]: what differs on top of that core — one
//!   connection and its pending joins, or a listener with a per-connection
//!   slot table. Which connections an iteration services is the
//!   listener's own ready set (woken ∪ expired `poll_at` deadlines), so a
//!   server full of idle connections blocks instead of scanning.
//! - [`proto`]: the verifiable fetch protocol (`MPFETCH <size> <seed>`)
//!   used by the demo binaries, the smoke test, and the benchmark.
//! - [`admin`] / [`profile`] / [`stats`]: the introspection socket, the
//!   loop-phase profiler and the `rt_*` instrumentation.

pub mod admin;
pub mod client;
pub mod clock;
pub mod egress;
mod event_loop;
pub mod paths;
pub mod profile;
pub mod proto;
pub mod server;
pub mod stats;
pub mod wire;

use std::time::Duration;

use mptcp::AbortReason;
use mptcp_packet::{Endpoint, FourTuple};

pub use admin::{check_monotone, validate_exposition, AdminServer, Exposition};
pub use client::ClientRuntime;
pub use clock::WallClock;
pub use profile::{LoopProfiler, Phase};
pub use proto::{ConnApp, FetchClient, FetchServer, Fnv1a, Keystream};
pub use server::{AppFactory, ServerRuntime};
pub use stats::RuntimeStats;

/// Event-loop tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct LoopConfig {
    /// The longest `idle_wait` blocks when no socket becomes ready and no
    /// protocol deadline is due: how long a caller's own loop goes without
    /// regaining control (a stop flag, a timeout, `run`'s linger). It adds
    /// no latency to ingress — an arriving datagram ends the wait, once the
    /// loop's fixed 250 µs interrupt-moderation hold is over.
    pub max_wait: Duration,
    /// Collect loop-phase timing histograms (see [`profile::LoopProfiler`]).
    /// Off by default: disabled profiling reads no clocks and allocates
    /// nothing.
    pub profile: bool,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            max_wait: Duration::from_millis(20),
            profile: false,
        }
    }
}

/// Why an event loop stopped.
#[derive(Debug)]
pub enum RuntimeError {
    /// Socket setup or I/O failed.
    Io(std::io::Error),
    /// The wall-clock budget expired before the work completed.
    Timeout,
    /// The connection aborted (e.g. all paths failed past the deadline).
    Aborted(AbortReason),
}

impl From<std::io::Error> for RuntimeError {
    fn from(e: std::io::Error) -> Self {
        RuntimeError::Io(e)
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Io(e) => write!(f, "i/o: {e}"),
            RuntimeError::Timeout => write!(f, "timed out"),
            RuntimeError::Aborted(r) => write!(f, "connection aborted: {r:?}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The virtual four-tuple for path `i`, as the client names it.
///
/// Virtual addresses exist so the state machines see distinct, stable
/// endpoint identities per path regardless of the real addressing (which
/// on loopback would collapse to 127.0.0.1 everywhere): path `i` uses the
/// private subnet `10.0.(i+1).0/24` with the client at `.2` and the server
/// at `.1`. Ports carry the *real* UDP ports, which keeps tuples unique
/// across client processes on one machine (ephemeral ports differ) and
/// lets either side log a tuple that is meaningful in a packet capture.
pub fn virtual_tuple(path: usize, client_port: u16, server_port: u16) -> FourTuple {
    let net = 0x0a00_0000 | ((((path as u32) + 1) & 0xff) << 8);
    FourTuple {
        src: Endpoint::new(net | 2, client_port),
        dst: Endpoint::new(net | 1, server_port),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_tuples_are_distinct_per_path() {
        let a = virtual_tuple(0, 1000, 9000);
        let b = virtual_tuple(1, 1001, 9000);
        assert_ne!(a.src.addr, b.src.addr);
        assert_ne!(a.dst.addr, b.dst.addr);
        assert_eq!(a.src.addr, 0x0a000102);
        assert_eq!(a.dst.addr, 0x0a000101);
        assert_eq!(b.src.addr, 0x0a000202);
    }
}
