//! The §3 design-space matrix as assertions: which transfer designs
//! survive which middleboxes. These are the qualitative claims the paper's
//! measurement study established.

use mptcp_harness::experiments::common::Policy;
use mptcp_harness::experiments::mbox::{run_cell, Design, MboxKind};

const SEED: u64 = 99;

fn outcome(mbox: MboxKind, design: Design) -> mptcp_harness::experiments::mbox::Outcome {
    run_cell(mbox, design, SEED, Policy::default()).outcome
}

#[test]
fn clean_path_everyone_works() {
    for d in [Design::Mptcp, Design::Strawman, Design::Tcp] {
        assert!(
            outcome(MboxKind::None, d).completed(),
            "{d:?} on clean path"
        );
    }
}

#[test]
fn mptcp_survives_nat_but_strawman_starves() {
    // §3.2: per-subflow SYN exchanges create NAT state; tokens (not
    // five-tuples) identify the connection. The strawman sends no SYN on
    // the second path, and "NATs and Firewalls rarely pass data packets
    // that were not preceded by a SYN" — half its stream vanishes.
    assert!(outcome(MboxKind::Nat, Design::Mptcp).completed());
    assert!(outcome(MboxKind::Nat, Design::Tcp).completed());
    let straw = outcome(MboxKind::Nat, Design::Strawman);
    assert!(!straw.completed(), "strawman should starve: {straw:?}");
}

#[test]
fn mptcp_survives_sequence_rewriting() {
    // §3.3.4: relative DSS offsets are immune to ISN randomizers.
    use mptcp_harness::experiments::mbox::Outcome;
    let o = outcome(MboxKind::SeqRewrite, Design::Mptcp);
    assert_eq!(o, Outcome::Ok, "{o:?}");
}

#[test]
fn mptcp_survives_tso_splitting() {
    // §3.3.4: option copied to every split segment; length-delimited
    // mappings tolerate the duplicates.
    assert!(outcome(MboxKind::Split, Design::Mptcp).completed());
}

#[test]
fn mptcp_recovers_from_coalescing() {
    // §3.3.5: the merged segment keeps one mapping; unmapped bytes are
    // dropped at the receiver and retransmitted at the data level.
    assert!(outcome(MboxKind::Coalesce, Design::Mptcp).completed());
}

#[test]
fn option_stripping_on_syn_falls_back() {
    use mptcp_harness::experiments::mbox::Outcome;
    let o = outcome(MboxKind::StripSyn, Design::Mptcp);
    assert_eq!(o, Outcome::FellBack, "{o:?}");
}

#[test]
fn option_stripping_on_synack_falls_back() {
    // §3.1's asymmetric hazard: server thinks MPTCP, client doesn't.
    use mptcp_harness::experiments::mbox::Outcome;
    let o = outcome(MboxKind::StripSynAck, Design::Mptcp);
    assert_eq!(o, Outcome::FellBack, "{o:?}");
}

#[test]
fn syn_dropper_handled_by_plain_retry() {
    // §3.1: "follow the retransmitted SYN with one that omits the
    // MP_CAPABLE option" — connectivity is preserved at TCP level.
    use mptcp_harness::experiments::mbox::Outcome;
    let o = outcome(MboxKind::SynDrop, Design::Mptcp);
    assert_eq!(o, Outcome::FellBack, "{o:?}");
}

#[test]
fn payload_alg_detected_by_dss_checksum() {
    // §3.3.6: content-modifying middleboxes break the DSS checksum; the
    // transfer must continue (fallback or subflow reset), not corrupt.
    let cell = run_cell(
        MboxKind::PayloadRewrite,
        Design::Mptcp,
        SEED,
        Policy::default(),
    );
    assert!(cell.outcome.completed(), "{:?}", cell.outcome);
    // Plain TCP sails through (the ALG fixes the stream consistently).
    assert!(outcome(MboxKind::PayloadRewrite, Design::Tcp).completed());
}

#[test]
fn strawman_dies_behind_hole_droppers() {
    // §3.3: "5% of paths do not pass data after a hole" — striping a
    // single sequence space leaves a permanent hole on each path.
    let straw = outcome(MboxKind::HoleDrop, Design::Strawman);
    assert!(!straw.completed(), "strawman should stall: {straw:?}");
    // MPTCP's per-subflow spaces are hole-free per path.
    assert!(outcome(MboxKind::HoleDrop, Design::Mptcp).completed());
    assert!(outcome(MboxKind::HoleDrop, Design::Tcp).completed());
}

#[test]
fn mptcp_survives_proactive_acking_proxy_that_breaks_tcp() {
    // §3.3/§3.3.5: a proxy that acknowledges data in advance destroys
    // TCP's end-to-end reliability when those segments later die in a
    // downstream queue — the sender has already freed them. MPTCP keeps
    // every byte "in memory until we receive a DATA ACK", so it recovers
    // at the data level and completes where plain TCP stalls.
    assert!(outcome(MboxKind::ProxyAck, Design::Mptcp).completed());
    let tcp = outcome(MboxKind::ProxyAck, Design::Tcp);
    assert!(
        !tcp.completed(),
        "plain TCP should be broken by premature ACKs: {tcp:?}"
    );
}
