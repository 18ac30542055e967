//! Property tests for the wire codec: encode/decode roundtrips and
//! checksum algebra under arbitrary inputs.

use bytes::Bytes;
use mptcp_packet::checksum::{dss_checksum, dss_checksum_valid};
use mptcp_packet::mptcp_opts::AdvertisedAddr;
use mptcp_packet::{
    DssMapping, Endpoint, FourTuple, MptcpOption, SeqNum, TcpFlags, TcpOption, TcpSegment,
};
use proptest::prelude::*;

/// `seg` encoded into a fresh buffer, as shared storage for the decoders.
fn encode(seg: &TcpSegment, wscale_shift: u8) -> Bytes {
    let mut out = Vec::new();
    seg.encode_into(wscale_shift, &mut out)
        .expect("options fit");
    Bytes::from(out)
}

fn arb_mptcp_option() -> impl Strategy<Value = MptcpOption> {
    prop_oneof![
        (any::<u64>(), any::<bool>(), any::<Option<u64>>()).prop_map(|(k, c, r)| {
            MptcpOption::MpCapable {
                version: 0,
                checksum_required: c,
                sender_key: k,
                receiver_key: r,
            }
        }),
        (any::<u32>(), any::<u32>(), any::<u8>(), any::<bool>()).prop_map(
            |(token, nonce, addr_id, backup)| MptcpOption::MpJoinSyn {
                token,
                nonce,
                addr_id,
                backup,
            }
        ),
        (any::<u64>(), any::<u32>(), any::<u8>()).prop_map(|(mac, nonce, addr_id)| {
            MptcpOption::MpJoinSynAck {
                mac,
                nonce,
                addr_id,
                backup: false,
            }
        }),
        // DATA_ACK is truncated to 32 bits on the wire; use values that
        // roundtrip exactly so equality holds.
        (
            proptest::option::of(any::<u32>()),
            proptest::option::of((
                any::<u64>(),
                any::<u32>(),
                1..u16::MAX,
                any::<Option<u16>>()
            )),
            any::<bool>()
        )
            .prop_map(|(da, m, fin)| MptcpOption::Dss {
                data_ack: da.map(u64::from),
                mapping: m.map(|(dsn, ssn, len, ck)| DssMapping {
                    dsn,
                    subflow_seq: ssn,
                    len,
                    checksum: ck,
                }),
                data_fin: fin,
            }),
        (any::<u8>(), any::<u32>(), any::<Option<u16>>()).prop_map(|(id, addr, port)| {
            MptcpOption::AddAddr(AdvertisedAddr {
                addr_id: id,
                addr,
                port,
            })
        }),
        proptest::collection::vec(any::<u8>(), 1..8)
            .prop_map(|ids| MptcpOption::RemoveAddr { addr_ids: ids }),
        any::<u64>().prop_map(|dsn| MptcpOption::MpFail { dsn }),
        proptest::collection::vec(any::<u8>(), 20..21).prop_map(|mac| {
            let mut m = [0u8; 20];
            m.copy_from_slice(&mac);
            MptcpOption::MpJoinAck { mac: m }
        }),
        (any::<bool>(), any::<Option<u8>>())
            .prop_map(|(backup, addr_id)| MptcpOption::MpPrio { backup, addr_id }),
        any::<u64>().prop_map(|receiver_key| MptcpOption::FastClose { receiver_key }),
    ]
}

fn arb_option() -> impl Strategy<Value = TcpOption> {
    prop_oneof![
        any::<u16>().prop_map(TcpOption::Mss),
        (0u8..15).prop_map(TcpOption::WindowScale),
        Just(TcpOption::SackPermitted),
        (any::<u32>(), any::<u32>()).prop_map(|(val, ecr)| TcpOption::Timestamps { val, ecr }),
        arb_mptcp_option().prop_map(TcpOption::Mptcp),
    ]
}

proptest! {
    #[test]
    fn mptcp_option_value_roundtrips(opt in arb_mptcp_option()) {
        let mut buf = Vec::new();
        opt.encode_value(&mut buf);
        let decoded = MptcpOption::decode_value(&buf).expect("decodable");
        prop_assert_eq!(opt, decoded);
    }

    #[test]
    fn segment_roundtrips(
        opts in proptest::collection::vec(arb_option(), 0..2),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        wscale in 0u8..10,
    ) {
        let mut seg = TcpSegment::new(
            FourTuple {
                src: Endpoint::new(0x0a000001, 1234),
                dst: Endpoint::new(0x0a000002, 80),
            },
            SeqNum(seq),
            SeqNum(ack),
            TcpFlags::ACK,
        );
        // Windows survive exactly when they are multiples of the scale.
        seg.window = u32::from(window) << wscale;
        seg.options = opts;
        seg.payload = Bytes::from(payload);
        let wire = encode(&seg, wscale);
        // The unverified decoder, into a dirty reusable segment: every field
        // must be overwritten, nothing carried over from the last use.
        let mut back = seg.clone();
        back.seq = SeqNum(!seq);
        back.options.push(TcpOption::SackPermitted);
        back.payload = Bytes::from_static(b"stale");
        prop_assert!(TcpSegment::decode_view_into(&wire, 0x0a000001, 0x0a000002, wscale, &mut back));
        prop_assert_eq!(&back, &seg);
        // Appending to a non-empty buffer writes the same bytes.
        let mut appended = vec![0xEE; 5];
        seg.encode_into(wscale, &mut appended).expect("options fit");
        prop_assert_eq!(&appended[5..], &wire[..]);
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
        let mut seg = TcpSegment::new(
            FourTuple { src: Endpoint::new(1, 1), dst: Endpoint::new(2, 2) },
            SeqNum(0),
            SeqNum(0),
            TcpFlags::ACK,
        );
        let _ = TcpSegment::decode_view_into(&Bytes::from(bytes.clone()), 1, 2, 7, &mut seg);
        let _ = mptcp_packet::options::decode_options(&bytes);
        let _ = MptcpOption::decode_value(&bytes);
    }

    #[test]
    fn dss_checksum_detects_any_single_byte_flip(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        flip_at in any::<prop::sample::Index>(),
        flip_bits in 1u8..=255,
    ) {
        let ck = dss_checksum(42, 7, payload.len() as u16, &payload);
        let mut modified = payload.clone();
        let i = flip_at.index(modified.len());
        modified[i] ^= flip_bits;
        // Ones-complement sums can collide only via reordering of 16-bit
        // words, never via a single-byte XOR flip.
        prop_assert!(!dss_checksum_valid(42, 7, payload.len() as u16, &modified, ck));
    }

    #[test]
    fn verified_decode_roundtrips_and_rejects_corruption(
        opts in proptest::collection::vec(arb_option(), 0..2),
        payload in proptest::collection::vec(any::<u8>(), 0..400),
        seq in any::<u32>(),
        truncate_by in any::<prop::sample::Index>(),
        flip_at in any::<prop::sample::Index>(),
        flip_bits in 1u8..=255,
    ) {
        let mut seg = TcpSegment::new(
            FourTuple {
                src: Endpoint::new(0x0a000001, 1234),
                dst: Endpoint::new(0x0a000002, 80),
            },
            SeqNum(seq),
            SeqNum(0),
            TcpFlags::ACK,
        );
        seg.options = opts;
        seg.payload = Bytes::from(payload);
        let wire = encode(&seg, 4);

        // Intact bytes verify and roundtrip exactly, through both the
        // fresh-segment and the reusable-segment decoder.
        let back = TcpSegment::decode_verified_view(&wire, 0x0a000001, 0x0a000002, 4)
            .expect("intact wire bytes verify");
        prop_assert_eq!(&back, &seg);
        let mut reused = TcpSegment::new(seg.tuple, SeqNum(0), SeqNum(0), TcpFlags::RST);
        TcpSegment::decode_verified_view_into(&wire, 0x0a000001, 0x0a000002, 4, &mut reused)
            .expect("intact wire bytes verify");
        prop_assert_eq!(&reused, &seg);

        // A proper prefix is never accepted as the original: short ones
        // fail structurally, longer ones trip the pseudo-header length
        // folded into the checksum. (Ones-complement sums admit rare
        // collisions where a truncated tail cancels the length delta, so
        // the contract is "never the original", not "always rejected".)
        let cut = truncate_by.index(wire.len());
        match TcpSegment::decode_verified_view(&wire.slice(..cut), 0x0a000001, 0x0a000002, 4) {
            Err(_) => {}
            Ok(t) => prop_assert_ne!(t, seg.clone()),
        }

        // A flip of any bits within one byte always breaks the
        // ones-complement sum, wherever it lands (header, option, payload,
        // or the checksum field itself).
        let mut flipped = wire.to_vec();
        let i = flip_at.index(flipped.len());
        flipped[i] ^= flip_bits;
        let flipped = Bytes::from(flipped);
        prop_assert!(
            TcpSegment::decode_verified_view(&flipped, 0x0a000001, 0x0a000002, 4).is_err()
        );
        prop_assert!(
            TcpSegment::decode_verified_view_into(&flipped, 0x0a000001, 0x0a000002, 4, &mut reused)
                .is_err()
        );
    }

    #[test]
    fn verified_decode_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let _ = TcpSegment::decode_verified_view(&Bytes::from(bytes), 1, 2, 7);
    }

    #[test]
    fn seqnum_ordering_antisymmetric(a in any::<u32>(), d in 1u32..(1 << 30)) {
        let x = SeqNum(a);
        let y = x + d;
        prop_assert!(x.before(y));
        prop_assert!(!y.before(x));
        prop_assert_eq!(y - x, d);
    }
}
