//! Experiment drivers: one module per figure/table of the paper.
//!
//! Each figure module returns its table as a [`Figure`](crate::Figure)
//! (two for Figs 3 and 7), with the `--quick` axis chosen inside it; the
//! `repro` binary in `mptcp-bench` prints it through the one renderer. Absolute
//! numbers depend on the simulated substrate (see DESIGN.md §2); the
//! *shape* of each result — orderings, crossovers, ratios — is the
//! reproduction target recorded in EXPERIMENTS.md.

pub mod chaos;
pub mod common;
pub mod fig10_handshake;
pub mod fig11_http;
pub mod fig3_checksum;
pub mod fig4_rcvbuf;
pub mod fig5_memory;
pub mod fig6_scenarios;
pub mod fig7_appdelay;
pub mod fig8_reorder;
pub mod fig9_wifi3g;
pub mod handover;
pub mod mbox;
pub mod trace;
