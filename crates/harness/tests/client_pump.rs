//! A client whose transport changes under it inside `poll` keeps being
//! driven.
//!
//! `sender_stream.rs` pins a payload-rewriting box on a lone checksummed
//! subflow with the whole stream written up front. Here the stream is
//! four times the send buffer, so the application is blocked on a full
//! buffer when the client's data-level timer gives up on MPTCP and falls
//! back inside `poll`. Plain TCP has room at once, but no segment and no
//! timer will ever bring the host back to say so: it has to look again
//! after the poll that changed things.
//!
//! The server's MP_FAIL would take the client to fallback on arrival, not
//! inside `poll`; it rides one segment, once, so here that one is lost.

use mptcp::telemetry::FallbackCause;
use mptcp::{Mechanisms, MptcpConfig};
use mptcp_harness::hosts::{ClientApp, ServerApp};
use mptcp_harness::{Scenario, TransportKind};
use mptcp_middlebox::PayloadModifier;
use mptcp_netsim::{Dir, Duration, LinkCfg, MbVerdict, Middlebox, Path, SimRng, SimTime};
use mptcp_packet::{MptcpOption, TcpOption, TcpSegment};

/// Loses every MP_FAIL option and nothing else.
struct MpFailLost;

impl Middlebox for MpFailLost {
    fn process(&mut self, _: SimTime, _: Dir, mut seg: TcpSegment, _: &mut SimRng) -> MbVerdict {
        seg.options
            .retain(|o| !matches!(o, TcpOption::Mptcp(MptcpOption::MpFail { .. })));
        MbVerdict::pass(seg)
    }

    fn name(&self) -> &'static str {
        "mp-fail-lost"
    }
}

#[test]
fn bulk_larger_than_the_send_buffer_survives_fallback_inside_poll() {
    const TOTAL: usize = 1_000_000;
    let cfg = MptcpConfig::builder()
        .buffers(256 * 1024)
        .mechanisms(Mechanisms::M1_2)
        .checksum(true)
        .build()
        .expect("config is valid");
    // The application's bytes are all 0x5a, so the box rewrites every
    // data segment from the first and each grows by two bytes.
    let path = Path::symmetric(LinkCfg::threeg())
        .with_middlebox(Box::new(PayloadModifier::new(&[0x5a; 8], &[0x21; 10])))
        .with_middlebox(Box::new(MpFailLost));
    let mut sc = Scenario::new(
        TransportKind::Mptcp(cfg),
        ClientApp::Bulk {
            total: TOTAL,
            written: 0,
            close_when_done: true,
        },
        ServerApp::Sink,
        vec![path],
        36,
    );
    sc.run_for(Duration::from_secs(20));

    assert_eq!(
        sc.client().transport.telemetry().fallback_causes(),
        [FallbackCause::DataRtoUnconfirmed]
    );
    assert!(sc.client().bulk_done(), "the application wrote everything");
    assert!(sc.server().listener.conns[0].at_eof());
    assert!(sc.server().app_bytes_received > TOTAL as u64);
}
