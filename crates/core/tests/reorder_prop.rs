//! Property tests: the four out-of-order queue algorithms are
//! observationally equivalent — same drained stream for any insertion
//! pattern — and reassembly is lossless. Plus one known-answer test that
//! pins each algorithm's exact counts on a seeded multipath arrival order.

use bytes::Bytes;
use mptcp::reorder::{make_queue, OooQueue};
use mptcp::ReorderAlgo;
use mptcp_netsim::SimRng;
use proptest::prelude::*;

/// One ingress drain: pieces `(dsn, len, subflow)` that arrived together.
type Drain = Vec<(u64, usize, usize)>;

/// A seeded arrival order over `subflows` subflows. The sender hands each
/// subflow runs of 4–15 contiguous segments (1000 bytes, every fifth 500);
/// the receiver drains one subflow at a time, 1–6 segments per drain.
/// About one segment in twelve is also resent on another subflow, a third
/// of those re-cut half a segment later and a third half a segment
/// earlier, so the copy overlaps two originals.
fn arrivals(subflows: usize, seed: u64) -> Vec<Drain> {
    let mut rng = SimRng::new(seed);
    let mut queues = vec![std::collections::VecDeque::new(); subflows];
    let (mut dsn, mut sf, mut run_left) = (0u64, 0, 0);
    for seg in 0..600u64 {
        if run_left == 0 {
            sf = rng.range(0, subflows as u64) as usize;
            run_left = rng.range(4, 16);
        }
        run_left -= 1;
        let len = if seg % 5 == 4 { 500 } else { 1000 };
        queues[sf].push_back((dsn, len));
        dsn += len as u64;
    }
    let end = dsn;
    let mut drains = Vec::new();
    while queues.iter().any(|q| !q.is_empty()) {
        let sf = rng.range(0, subflows as u64) as usize;
        let mut drain = Drain::new();
        for _ in 0..rng.range(1, 7) {
            let Some((dsn, len)) = queues[sf].pop_front() else {
                break;
            };
            drain.push((dsn, len, sf));
            if rng.chance(1.0 / 12.0) {
                let other = (sf + 1 + rng.range(0, subflows as u64 - 1) as usize) % subflows;
                let copy = match rng.range(0, 3) {
                    0 => dsn,
                    1 => dsn + len as u64 / 2,
                    _ => dsn.saturating_sub(len as u64 / 2),
                };
                if copy + len as u64 <= end {
                    queues[other].push_back((copy, len));
                }
            }
        }
        drains.push(drain);
    }
    drains
}

/// FNV-1a over the drained `(dsn, len)` sequence.
fn fnv(pieces: &[(u64, usize)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(dsn, len) in pieces {
        for b in dsn
            .to_le_bytes()
            .into_iter()
            .chain((len as u64).to_le_bytes())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(ops, shortcut_hits, inserts, len, buffered_bytes)`.
type Counts = (u64, u64, u64, usize, usize);

#[test]
fn known_answer_counts_on_a_seeded_multipath_arrival_order() {
    // (subflows, algorithm, after the inserts, after the drain, digest).
    #[rustfmt::skip]
    const EXPECTED: [(usize, ReorderAlgo, Counts, Counts, u64); 8] = [
        (2, ReorderAlgo::Regular, (44001, 0, 662, 600, 540000), (44001, 0, 662, 0, 0), 7162701703082164458),
        (2, ReorderAlgo::Tree, (6259, 0, 662, 600, 540000), (6259, 0, 662, 0, 0), 7162701703082164458),
        (2, ReorderAlgo::Shortcuts, (20801, 583, 662, 600, 540000), (20801, 583, 662, 0, 0), 7162701703082164458),
        (2, ReorderAlgo::AllShortcuts, (870, 569, 662, 600, 540000), (870, 569, 662, 0, 0), 7162701703082164458),
        (8, ReorderAlgo::Regular, (53720, 0, 653, 603, 540000), (53720, 0, 653, 0, 0), 1811259088260328839),
        (8, ReorderAlgo::Tree, (6128, 0, 653, 603, 540000), (6128, 0, 653, 0, 0), 1811259088260328839),
        (8, ReorderAlgo::Shortcuts, (18393, 546, 653, 603, 540000), (18393, 546, 653, 0, 0), 1811259088260328839),
        // 750 bytes more than the stream, and a different cut: a copy that
        // continues its subflow's batch is appended without being clipped
        // against the next batch, so two entries overlap (ROADMAP item 11).
        (8, ReorderAlgo::AllShortcuts, (1197, 544, 653, 603, 540750), (1197, 544, 653, 0, 0), 11219901790588630660),
    ];
    // The drain starts inside the second segment: the first is superseded
    // below `rcv_nxt`, the second overlaps it partially.
    const RCV_NXT: u64 = 1500;
    macro_rules! counts {
        ($q:expr) => {
            (
                $q.ops(),
                $q.shortcut_hits(),
                $q.inserts(),
                $q.len(),
                $q.buffered_bytes(),
            )
        };
    }
    let mut actual = Vec::new();
    for &(subflows, algo, ..) in &EXPECTED {
        let drains = arrivals(subflows, 0x5eed + subflows as u64);
        let piece =
            |&(dsn, len, sf): &(u64, usize, usize)| (dsn, Bytes::from(vec![dsn as u8; len]), sf);
        let mut rows = Vec::new();
        for batched in [false, true] {
            let mut q = make_queue(algo);
            for drain in &drains {
                let mut items: Vec<_> = drain.iter().map(piece).collect();
                if batched {
                    q.insert_batch(&mut items);
                } else {
                    for (dsn, data, sf) in items {
                        q.insert(dsn, data, sf);
                    }
                }
            }
            let inserted = counts!(q);
            let (mut rcv, mut out) = (RCV_NXT, Vec::new());
            while let Some((dsn, data)) = q.pop_ready(rcv) {
                rcv = dsn + data.len() as u64;
                out.push((dsn, data.len()));
            }
            rows.push((subflows, algo, inserted, counts!(q), fnv(&out)));
        }
        assert_eq!(
            rows[0], rows[1],
            "{algo:?} at {subflows}: insert_batch differs from insert"
        );
        actual.push(rows[0]);
    }
    let rows: Vec<String> = actual.iter().map(|r| format!("{r:?},")).collect();
    assert!(actual == EXPECTED, "actual rows:\n{}", rows.join("\n"));
}

/// A random non-overlapping segmentation of [0, n) chunks of 10 bytes,
/// presented in arbitrary order with arbitrary subflow attribution and
/// optional duplicates.
fn arb_workload() -> impl Strategy<Value = Vec<(u64, usize)>> {
    (1usize..40).prop_flat_map(|n| {
        let idx: Vec<u64> = (0..n as u64).collect();
        (
            Just(idx).prop_shuffle(),
            proptest::collection::vec(0usize..4, n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(order, subflows, dups)| {
                let mut w = Vec::new();
                for (k, chunk) in order.into_iter().enumerate() {
                    w.push((chunk * 10, subflows[k]));
                    if dups[k] {
                        w.push((chunk * 10, subflows[(k + 1) % subflows.len()]));
                    }
                }
                w
            })
    })
}

fn drain_all(q: &mut OooQueue) -> Vec<u64> {
    let mut rcv = 0u64;
    let mut out = Vec::new();
    while let Some((dsn, data)) = q.pop_ready(rcv) {
        out.push(dsn);
        rcv = dsn + data.len() as u64;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_algorithms_drain_identically(w in arb_workload()) {
        let mut reference: Option<Vec<u64>> = None;
        for algo in [
            ReorderAlgo::Regular,
            ReorderAlgo::Tree,
            ReorderAlgo::Shortcuts,
            ReorderAlgo::AllShortcuts,
        ] {
            let mut q = make_queue(algo);
            for &(dsn, sf) in &w {
                q.insert(dsn, Bytes::from(vec![(dsn % 251) as u8; 10]), sf);
            }
            let drained = drain_all(&mut q);
            prop_assert!(q.is_empty(), "{algo:?} left entries");
            prop_assert_eq!(q.buffered_bytes(), 0, "{:?} leaked bytes", algo);
            match &reference {
                None => reference = Some(drained),
                Some(r) => prop_assert_eq!(r, &drained, "{:?} diverged", algo),
            }
        }
        // And the drain is complete and in order.
        let r = reference.unwrap();
        let n = w.iter().map(|(d, _)| d / 10 + 1).max().unwrap_or(0);
        prop_assert_eq!(r.len() as u64, n);
        for (i, dsn) in r.iter().enumerate() {
            prop_assert_eq!(*dsn, i as u64 * 10);
        }
    }

    #[test]
    fn partial_drain_is_prefix_stable(w in arb_workload(), take in 0usize..20) {
        // Popping some entries, inserting the rest, then draining gives
        // the same stream as inserting everything first.
        let mut q = make_queue(ReorderAlgo::AllShortcuts);
        let (first, second) = w.split_at(take.min(w.len()));
        for &(dsn, sf) in first {
            q.insert(dsn, Bytes::from(vec![0u8; 10]), sf);
        }
        let mut rcv = 0u64;
        let mut drained = Vec::new();
        while let Some((dsn, data)) = q.pop_ready(rcv) {
            drained.push(dsn);
            rcv = dsn + data.len() as u64;
        }
        for &(dsn, sf) in second {
            q.insert(dsn, Bytes::from(vec![0u8; 10]), sf);
        }
        while let Some((dsn, data)) = q.pop_ready(rcv) {
            drained.push(dsn);
            rcv = dsn + data.len() as u64;
        }
        for (i, dsn) in drained.iter().enumerate() {
            prop_assert_eq!(*dsn, i as u64 * 10);
        }
    }
}
