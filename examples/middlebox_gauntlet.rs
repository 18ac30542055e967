//! Run MPTCP, the strawman striped-TCP design, and plain TCP through the
//! §4.1 middlebox gauntlet and print the survival matrix.
//!
//! ```sh
//! cargo run --release --example middlebox_gauntlet
//! ```

use mptcp_harness::experiments::common::Policy;
use mptcp_harness::experiments::mbox;

fn main() {
    print!("{}", mbox::figure(11, Policy::default()));
    println!("\nThe strawman (one sequence space striped across paths) dies");
    println!("behind hole-droppers and ACK-policing proxies; MPTCP survives");
    println!("everything, falling back to TCP where negotiation is impossible.");
}
