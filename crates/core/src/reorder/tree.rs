//! "Tree" algorithm: balanced-tree out-of-order queue.
//!
//! The obvious fix the paper mentions first: replace the linear scan with
//! a binary tree. It reduces lookup to logarithmic time but "adds
//! complexity to the code, and still takes logarithmic time to place a
//! packet" — which is why the Shortcuts family wins in Figure 8. Ops are
//! modelled as ⌈log₂ n⌉ + 1 per lookup, matching a balanced tree's
//! comparison count.

use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Unbounded};

use bytes::Bytes;

use super::Slot;

/// The entries on either side of `dsn`, at a balanced tree's cost.
pub(super) fn locate(map: &BTreeMap<u64, Bytes>, dsn: u64) -> Slot {
    let prev = map.range(..=dsn).next_back();
    Slot {
        prev_end: prev.map(|(start, data)| start + data.len() as u64),
        next_start: map
            .range((Excluded(dsn), Unbounded))
            .next()
            .map(|(&start, _)| start),
        at: 0,
        ops: (usize::BITS - map.len().leading_zeros()) as u64 + 1,
        hit: false,
    }
}

#[cfg(test)]
mod tests {
    use super::super::make_queue;
    use super::*;
    use crate::config::ReorderAlgo;

    #[test]
    fn ops_grow_logarithmically() {
        let mut q = make_queue(ReorderAlgo::Tree);
        for i in 0..1024u64 {
            q.insert(i * 10, Bytes::from(vec![0u8; 10]), 0);
        }
        // Total ops bounded by n * (log2(n) + 2).
        assert!(q.ops() <= 1024 * 12, "ops = {}", q.ops());
        // And strictly more than constant-per-insert.
        assert!(q.ops() > 1024 * 2);
    }

    #[test]
    fn covered_insert_dropped() {
        let mut q = make_queue(ReorderAlgo::Tree);
        q.insert(0, Bytes::from(vec![0u8; 100]), 0);
        q.insert(10, Bytes::from(vec![0u8; 10]), 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.buffered_bytes(), 100);
    }
}
