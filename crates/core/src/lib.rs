//! Multipath TCP — a full reproduction of the protocol and OS mechanisms
//! from *"How Hard Can It Be? Designing and Implementing a Deployable
//! Multipath TCP"* (Raiciu et al., NSDI 2012).
//!
//! An [`MptcpConnection`] presents a single reliable byte stream (the
//! TCP service model) while striping data across multiple TCP subflows:
//!
//! ```text
//!            write()/read()            one byte stream
//!          ┌────────────────┐
//!          │ MptcpConnection│  DSS mappings, DATA_ACK flow control,
//!          │  scheduler     │  reorder queue, M1–M4, fallback
//!          └───┬────────┬───┘
//!         ┌────┴──┐ ┌───┴───┐
//!         │subflow│ │subflow│   per-subflow seq spaces, Reno/LIA,
//!         │ TCP   │ │ TCP   │   RTO, fast retransmit  (mptcp-tcpstack)
//!         └───────┘ └───────┘
//! ```
//!
//! Highlights, with their paper sections:
//! * MP_CAPABLE keys/tokens and MP_JOIN HMAC authentication (§3.1–3.2,
//!   [`TokenTable`], [`KeyPool`], [`MptcpListener`]).
//! * Relative, length-delimited, checksummed data sequence mappings that
//!   survive sequence rewriting, TSO resegmentation and coalescing
//!   (§3.3.4–3.3.6, each subflow's `MappingTracker`).
//! * Explicit DATA_ACK in TCP options — never the payload (§3.3.2–3.3.3).
//! * Shared receive pool window semantics (§3.3.1).
//! * Fallback to regular TCP when middleboxes interfere (§3.1, §3.3.6).
//! * Receive-buffer mechanisms M1–M4 (§4.2, [`config::Mechanisms`]).
//! * Four connection-level reorder algorithms (§4.3, [`reorder`]).
//! * DATA_FIN vs subflow FIN teardown and REMOVE_ADDR mobility (§3.4).

pub mod api;
pub mod config;
pub mod conn;
pub mod dsn;
pub mod endpoint;
pub(crate) mod health;
mod life;
pub(crate) mod mapping;
pub(crate) mod pm;
pub mod reorder;
pub(crate) mod rx;
pub(crate) mod sched;
pub mod subflow;
mod timers;
pub(crate) mod token;
pub(crate) mod tx;

pub use api::{AbortReason, JoinError, ReadOutcome, SubflowError, SubflowId, WriteOutcome};
pub use config::{
    ConfigError, FailureDetection, Mechanisms, MptcpConfig, MptcpConfigBuilder, ReorderAlgo,
};
pub use conn::{ConnState, ConnStats, MptcpConnection, MAX_SUBFLOWS};
pub use endpoint::MptcpListener;
pub use health::PathState;
pub use mptcp_tcpstack::{CcAlgorithm, TcpConfig};
pub use mptcp_telemetry as telemetry;
pub use pm::{EndpointFlags, PathManager, PathManagerCfg, PmEndpoint, PmLimits, PmPolicy};
pub use sched::{Scheduler, SchedulerKind};
pub use token::{KeyPool, TokenTable};

#[cfg(test)]
mod conn_tests;
