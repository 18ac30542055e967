//! Bounds what a full `MptcpConnection` ↔ `MptcpListener` pair takes from
//! the heap per segment once it is warm — the counting allocator of
//! `packet/tests/alloc_counting.rs`, one layer up.
//!
//! Two subflows coupled by LIA and then by OLIA, DSS checksum on, 4 MiB buffers, 64 KiB application
//! writes, one-way delay 100 µs, no loss. The driver adds nothing of its
//! own inside the measured window: both ingress `Vec`s are reused and a
//! segment is dropped once its receiver has seen it, so every counted
//! allocation is the stack's. After handshake, join and 1 MiB of warm-up
//! the next 4 MiB may cost at most
//!
//! * [`MAX_ALLOCS_PER_SEG`] allocations per segment either end emitted,
//!   on top of one per application write (the copy `write` takes), and
//! * [`MAX_BYTES_PER_PAYLOAD_BYTE`] allocated bytes per payload byte.
//!
//! Run it in release mode as well: debug-build `Vec` growth differs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mptcp::{CcAlgorithm, MptcpConfig, MptcpConnection, MptcpListener, ReadOutcome, WriteOutcome};
use mptcp_netsim::{Duration, SimRng, SimTime};
use mptcp_packet::{Endpoint, FourTuple, TcpSegment};

const MAX_ALLOCS_PER_SEG: f64 = 1.1;
const MAX_BYTES_PER_PAYLOAD_BYTE: f64 = 1.25;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SUBFLOWS: usize = 2;
const APP_WRITE: usize = 64 * 1024;
const WARMUP_BYTES: usize = 1 << 20;
const MEASURED_BYTES: usize = 4 << 20;
const DELAY: Duration = Duration::from_micros(100);

/// Path `i`: client `10.0.(i+1).2`, server `10.0.(i+1).1`.
fn tuple(path: usize) -> FourTuple {
    let net = 0x0a00_0000 | ((path as u32 + 1) << 8);
    FourTuple {
        src: Endpoint::new(net | 2, 4000 + path as u16),
        dst: Endpoint::new(net | 1, 80),
    }
}

/// Byte `i` of the application stream.
fn stream_byte(i: usize) -> u8 {
    (i as u32).wrapping_mul(2_654_435_761).to_be_bytes()[0]
}

struct Pair {
    client: MptcpConnection,
    listener: MptcpListener,
    now: SimTime,
    to_server: Vec<TcpSegment>,
    to_client: Vec<TcpSegment>,
    touched: Vec<usize>,
    /// Segments either end has emitted.
    segments: u64,
}

impl Pair {
    /// One round trip: what the client sent reaches the server, which
    /// answers; the answers reach the client, which sends again.
    fn round_trip(&mut self) {
        self.now += DELAY;
        self.listener
            .handle_segments(self.now, &self.to_server, &mut self.touched);
        self.to_server.clear();
        self.touched.clear();
        if let Some(server) = self.listener.conns.get_mut(0) {
            while let Some(seg) = server.poll(self.now) {
                self.to_client.push(seg);
                self.segments += 1;
            }
        }
        self.now += DELAY;
        self.client.handle_segments(self.now, &self.to_client);
        self.to_client.clear();
        self.drain_client();
    }

    fn drain_client(&mut self) {
        while let Some(seg) = self.client.poll(self.now) {
            self.to_server.push(seg);
            self.segments += 1;
        }
    }

    fn usable_everywhere(&self, want: usize) -> bool {
        let usable = |c: &MptcpConnection| c.subflows().iter().filter(|s| s.usable()).count();
        usable(&self.client) == want && self.listener.conns.first().map(usable) == Some(want)
    }

    /// Move `total` more stream bytes, starting at stream offset `from`,
    /// client to server, checking each. Returns the application writes made.
    fn transfer(&mut self, block: &[u8], from: usize, total: usize) -> u64 {
        let (mut written, mut received, mut writes) = (0, 0, 0);
        for _ in 0..100_000 {
            while written < total {
                let at = (from + written) % block.len();
                let n = APP_WRITE.min(block.len() - at).min(total - written);
                match self.client.write(&block[at..at + n]) {
                    WriteOutcome::Accepted(0) | WriteOutcome::WouldBlock => break,
                    WriteOutcome::Accepted(n) => {
                        written += n;
                        writes += 1;
                    }
                    other => panic!("write: {other:?}"),
                }
            }
            self.drain_client();
            self.round_trip();
            loop {
                match self.listener.conns[0].read(APP_WRITE) {
                    ReadOutcome::Data(data) => {
                        let at = (from + received) % block.len();
                        let expected = block[at..].iter().chain(block.iter().cycle());
                        assert!(data.iter().eq(expected.take(data.len())), "payload differs");
                        received += data.len();
                    }
                    ReadOutcome::WouldBlock => break,
                    other => panic!("read: {other:?}"),
                }
            }
            if received == total {
                return writes;
            }
        }
        panic!("transfer stuck at {received} of {total} bytes");
    }
}

/// One test, not one per algorithm: the counting allocator is global,
/// so two tests in this binary would count each other's allocations.
#[test]
fn steady_state_transfer_stays_within_its_allocation_budget() {
    for cc in [CcAlgorithm::Lia, CcAlgorithm::Olia] {
        measure(cc);
    }
}

/// Warm a pair coupled by `cc`, then hold its measured window to the
/// budgets.
fn measure(cc: CcAlgorithm) {
    let cfg = MptcpConfig::builder()
        .buffers(4 << 20)
        .checksum(true)
        .cc(cc)
        .build()
        .expect("valid config");
    let now = SimTime::from_millis(1);
    let mut pair = Pair {
        client: MptcpConnection::client(cfg.clone(), tuple(0), now, SimRng::new(7)),
        listener: MptcpListener::new(cfg, 8),
        now,
        to_server: Vec::new(),
        to_client: Vec::new(),
        touched: Vec::new(),
        segments: 0,
    };
    pair.drain_client();
    for _ in 0..20 {
        pair.round_trip();
    }
    assert!(pair.usable_everywhere(1), "MP_CAPABLE handshake");
    for path in 1..SUBFLOWS {
        let t = tuple(path);
        pair.client
            .open_subflow(t.src, t.dst, pair.now)
            .expect("open_subflow");
    }
    for _ in 0..20 {
        pair.round_trip();
    }
    assert!(pair.usable_everywhere(SUBFLOWS), "MP_JOIN handshakes");

    // A block that is a whole number of writes, so every write is 64 KiB.
    let block: Vec<u8> = (0..16 * APP_WRITE).map(stream_byte).collect();
    pair.transfer(&block, 0, WARMUP_BYTES);
    assert!(!pair.client.is_fallback() && !pair.listener.conns[0].is_fallback());

    let (allocs, bytes, segments) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
        pair.segments,
    );
    let writes = pair.transfer(&block, WARMUP_BYTES, MEASURED_BYTES);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    let segments = pair.segments - segments;

    let per_seg = allocs.saturating_sub(writes) as f64 / segments as f64;
    let per_byte = bytes as f64 / MEASURED_BYTES as f64;
    println!(
        "{cc}: {allocs} allocations, {bytes} bytes over {segments} segments, {writes} writes, \
         {MEASURED_BYTES} payload bytes: {per_seg:.3} per segment beyond one per write, \
         {per_byte:.3} bytes per payload byte"
    );
    assert!(
        segments as usize >= MEASURED_BYTES / 1460,
        "the window moved {segments} segments"
    );
    assert!(
        per_seg <= MAX_ALLOCS_PER_SEG,
        "{cc}: {per_seg:.3} allocations per emitted segment (beyond one per write), \
         budget {MAX_ALLOCS_PER_SEG}"
    );
    assert!(
        per_byte <= MAX_BYTES_PER_PAYLOAD_BYTE,
        "{cc}: {per_byte:.3} bytes allocated per payload byte, \
         budget {MAX_BYTES_PER_PAYLOAD_BYTE}"
    );
}
