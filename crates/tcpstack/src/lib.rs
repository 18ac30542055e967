//! A sans-IO userspace TCP stack.
//!
//! This crate is the single-path substrate the NSDI 2012 MPTCP paper builds
//! on: a complete TCP implementation — the full connection state machine,
//! reliable transmission with RTO (RFC 6298) and NewReno-style fast
//! retransmit/recovery ([`recovery`]), flow control with window scaling,
//! persist-timer zero-window probing, one congestion window under four
//! increase rules — Reno, LIA, OLIA, coupled cubic ([`cc`]) — and
//! send/receive buffer autotuning ([`autotune`]).
//!
//! Design follows the smoltcp idiom: the socket is a pure state machine.
//! You feed it segments with [`TcpSocket::handle_segment`], drain output
//! with [`TcpSocket::poll`], and learn when to call back via
//! [`TcpSocket::poll_at`]. There is no I/O, no threads, no global clock —
//! which makes it exactly reproducible under the `mptcp-netsim` simulator.
//!
//! Three extension points exist purely for MPTCP (§4 of the paper):
//!
//! * **Chunked sends** ([`TcpSocket::send_chunk`]): payload enqueued with
//!   its one TCP option. Segments never span chunk boundaries, and
//!   retransmissions re-attach the chunk's option — the paper's
//!   requirement that data sequence mappings be "retransmitted
//!   consistently" (§3.3.3).
//! * **Room for the caller's options** ([`TcpSocket::poll_with_room`]):
//!   the owner appends its own options (MPTCP's DATA_ACK on every segment,
//!   pure ACKs included — the §3.3.3 conclusion) and fits them in 40 bytes.
//! * **Window override** ([`TcpSocket::set_window_override`]): the
//!   advertised window reflects the *connection-level* shared receive pool
//!   rather than subflow buffer state — the §3.3.1 deadlock fix.

pub mod autotune;
pub mod cc;
pub mod config;
pub mod recovery;
pub mod recvbuf;
pub mod rtt;
pub mod sendbuf;
pub mod socket;
pub mod state;

pub use autotune::{autotuned, over_rtt_max, AUTOTUNE_START};
pub use cc::{Cc, CcAlgorithm, CoupledSignal, CoupledState, FlowView};
pub use config::{TcpConfig, INIT_CWND_SEGS};
pub use rtt::RttEstimator;
pub use socket::{SocketStats, TcpSocket};
pub use state::TcpState;
