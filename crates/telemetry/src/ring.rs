//! The one bounded ring every recorder in the workspace keeps its records
//! in: the event ring, the trace ring and the simulator's packet capture.

/// Fixed-capacity ring of the most recent items. Older items are
/// overwritten once full; `total`/`dropped` keep the bookkeeping honest.
/// A ring of capacity 0 is switched off: `push` is one branch, nothing is
/// counted and nothing is ever allocated.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index of the oldest retained item within `buf`.
    head: usize,
    /// Items ever offered, including overwritten ones.
    total: u64,
}

impl<T> Ring<T> {
    /// An empty ring retaining at most `capacity` items. The buffer grows
    /// on demand up to `capacity`, so an idle ring costs no memory.
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            buf: Vec::new(),
            capacity,
            head: 0,
            total: 0,
        }
    }

    /// Does this ring record anything (capacity above 0)?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.capacity != 0
    }

    /// Record an item, overwriting the oldest if full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.capacity == 0 {
            return;
        }
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Items ever offered to the ring.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Items overwritten to make room.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Most items the ring retains (0 when switched off).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Fold `other` in: the retained items of both interleave by `at`
    /// (ties keep this ring's first), the newest `capacity` of them stay,
    /// and the totals add — so `dropped` counts every item either ring or
    /// the merge let go of.
    pub fn absorb(&mut self, other: &Ring<T>, at: impl Fn(&T) -> u64)
    where
        T: Clone,
    {
        let mut all: Vec<T> = self.iter().chain(other.iter()).cloned().collect();
        all.sort_by_key(at);
        let excess = all.len().saturating_sub(self.capacity);
        all.drain(..excess);
        self.buf = all;
        self.head = 0;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overwrites_oldest_and_counts_drops() {
        let mut r = Ring::new(3);
        for i in 0..5u64 {
            r.push(i);
        }
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!((r.total(), r.dropped()), (5, 2));
    }

    #[test]
    fn zero_capacity_is_switched_off() {
        let mut r = Ring::new(0);
        r.push(1u64);
        assert!(!r.is_enabled());
        assert_eq!((r.total(), r.dropped(), r.iter().count()), (0, 0, 0));
    }

    #[test]
    fn absorb_keeps_the_newest_in_time_order_with_exact_totals() {
        let mut a = Ring::new(4);
        let mut b = Ring::new(4);
        for t in [10u64, 40, 50] {
            a.push(t);
        }
        // `b` wrapped: it retains 25, 30, 35, 45 of six offered.
        for t in [5u64, 20, 25, 30, 35, 45] {
            b.push(t);
        }
        a.absorb(&b, |&t| t);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![35, 40, 45, 50]);
        assert_eq!((a.total(), a.dropped()), (9, 5));
        // Still a ring afterwards.
        a.push(60);
        assert_eq!(a.iter().copied().collect::<Vec<_>>(), vec![40, 45, 50, 60]);
    }
}
