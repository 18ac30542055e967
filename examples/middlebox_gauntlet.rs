//! Run MPTCP, the strawman striped-TCP design, and plain TCP through the
//! §4.1 middlebox gauntlet and print the survival matrix.
//!
//! ```sh
//! cargo run --release --example middlebox_gauntlet
//! ```

use mptcp_harness::experiments::common::Policy;
use mptcp_harness::experiments::mbox::{matrix, Outcome};

fn main() {
    println!("Middlebox gauntlet: 200 KB transfer per cell\n");
    println!(
        "{:>20}  {:>20}  {:>20}  {:>20}",
        "middlebox", "MPTCP", "strawman", "TCP"
    );
    for chunk in matrix(11, Policy::default()).chunks(3) {
        print!("{:>20}", chunk[0].mbox.label());
        for cell in chunk {
            let txt = match cell.outcome {
                Outcome::Ok => "ok".to_string(),
                Outcome::FellBack => "ok (fell back)".to_string(),
                Outcome::Stalled(p) => format!("STALLED {p:.0}%"),
            };
            print!("  {txt:>20}");
        }
        println!();
    }
    println!("\nThe strawman (one sequence space striped across paths) dies");
    println!("behind hole-droppers and ACK-policing proxies; MPTCP survives");
    println!("everything, falling back to TCP where negotiation is impossible.");
}
