//! Experiment harness: scenarios, workloads, metrics and the drivers that
//! regenerate every table and figure of the NSDI 2012 MPTCP paper.
//!
//! The harness glues the `mptcp` stack onto the `mptcp-netsim` simulator:
//! [`ClientHost`]/[`ServerHost`] implement [`mptcp_netsim::Host`], wrap a
//! [`Transport`] (MPTCP connection, plain TCP socket, or an MPTCP listener
//! that accepts both), and drive application workloads — bulk transfers,
//! timestamped 8 KB blocks (Figure 7), and closed-loop HTTP (Figure 11).
//!
//! Each experiment in [`experiments`] reproduces one figure: it builds the
//! paper's topology, sweeps the paper's parameter, and returns a
//! [`Figure`] that the `repro` binary (in `mptcp-bench`) prints.

pub mod experiments;
pub mod hosts;
pub mod metrics;
pub mod report;
pub mod scenario;
pub mod transport;

pub use hosts::{ClientApp, ClientHost, ServerApp, ServerHost};
pub use metrics::{AppDelayStats, Rates, Sampler};
pub use report::{to_json_lines, Figure, RunReport, Value};
pub use scenario::{Endpoints, Scenario, TransportKind};
pub use transport::{Transport, WriteError};
