//! The simulation driver: hosts, routes, and the event loop.
//!
//! A [`Sim`] owns a set of [`Host`]s (each wrapping a transport stack and
//! application logic), a set of [`Path`]s, and a routing table mapping
//! `(src_addr, dst_addr)` pairs to paths. Multi-hop routes with several
//! entries model per-packet round-robin link bonding (the Figure 11
//! baseline). The loop alternates between letting hosts emit segments and
//! advancing the clock to the next delivery or timer.
//!
//! It holds each host's [`Host::poll_at`], asked after every call into the
//! host, and polls a host only when that is due: an idle host costs nothing.

use std::collections::HashMap;

use mptcp_packet::TcpSegment;

use crate::capture::{CaptureConfig, PacketCapture, PacketFate};
use crate::event::EventQueue;
use crate::fault::FaultSchedule;
use crate::path::{Dir, Path};
use crate::rng::SimRng;
use crate::time::{min_deadline, SimTime};

/// Identifies a host within a [`Sim`].
pub type HostId = usize;
/// Identifies a path within a [`Sim`].
pub type PathId = usize;

/// Collector for segments a host wants to transmit.
#[derive(Default)]
pub struct Outbox {
    segs: Vec<TcpSegment>,
}

impl Outbox {
    /// Queue a segment for routing.
    pub fn send(&mut self, seg: TcpSegment) {
        self.segs.push(seg);
    }

    /// Number of queued segments.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// Whether the outbox is empty.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }
}

/// A simulated host: transport stack + application logic.
pub trait Host {
    /// A segment addressed to one of this host's addresses has arrived.
    fn handle_segment(&mut self, now: SimTime, seg: TcpSegment, out: &mut Outbox);

    /// Emit everything the host can send right now (data, ACKs,
    /// retransmissions due to expired timers, application writes...).
    ///
    /// The simulator calls this only when [`Host::poll_at`] said so, and
    /// on the first turn of every `run_*` call.
    fn poll(&mut self, now: SimTime, out: &mut Outbox);

    /// The next instant this host needs a [`Host::poll`], absolute, or
    /// `None` for no timer: `Some(now)` (or earlier) while it holds output
    /// it has not emitted. The simulator asks once after each call into
    /// the host and holds the answer until its next call, so the answer
    /// must stay valid until then: a deadline that would move without a
    /// call is a missed wake-up (debug builds panic on one).
    fn poll_at(&self, now: SimTime) -> Option<SimTime>;

    /// One of this host's addresses changed state (interface up/down),
    /// fired by [`FaultKind::AddrDown`](crate::fault::FaultKind::AddrDown)
    /// / `AddrUp`. Hosts that track addresses (e.g. an MPTCP endpoint
    /// withdrawing the address via REMOVE_ADDR) override this; the
    /// default ignores it.
    fn addr_event(&mut self, now: SimTime, addr: u32, up: bool, out: &mut Outbox) {
        let _ = (now, addr, up, out);
    }
}

struct RouteEntry {
    hops: Vec<(PathId, Dir)>,
    rr: usize,
}

/// The discrete-event simulator.
pub struct Sim<H: Host> {
    /// Current simulation time.
    pub now: SimTime,
    /// Hosts, indexed by [`HostId`].
    pub hosts: Vec<H>,
    /// Paths, indexed by [`PathId`].
    pub paths: Vec<Path>,
    routes: HashMap<(u32, u32), RouteEntry>,
    addr_owner: HashMap<u32, HostId>,
    deliveries: EventQueue<TcpSegment>,
    /// Deterministic random source (loss, middlebox behaviour).
    pub rng: SimRng,
    /// Segments dropped because no route or no owner existed.
    pub routing_drops: u64,
    /// Pcap-like per-link capture; disabled (and free) by default. Enable
    /// via [`PacketCapture::new`] with an enabled
    /// [`CaptureConfig`].
    pub capture: PacketCapture,
    /// Timed fault events (blackouts, loss bursts, middlebox churn)
    /// applied to paths as the clock reaches them; empty by default.
    pub faults: FaultSchedule,
    /// The one outbox every host call fills and `call` empties.
    outbox: Outbox,
    /// Each host's [`Host::poll_at`], asked after the last call into it.
    wake: Vec<Option<SimTime>>,
}

impl<H: Host> Sim<H> {
    /// Create an empty simulation with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            hosts: Vec::new(),
            paths: Vec::new(),
            routes: HashMap::new(),
            addr_owner: HashMap::new(),
            deliveries: EventQueue::new(),
            rng: SimRng::new(seed),
            routing_drops: 0,
            capture: PacketCapture::new(CaptureConfig::disabled()),
            faults: FaultSchedule::default(),
            outbox: Outbox::default(),
            wake: Vec::new(),
        }
    }

    /// Add a host; returns its id.
    pub fn add_host(&mut self, host: H) -> HostId {
        self.hosts.push(host);
        self.wake.push(Some(SimTime::ZERO));
        self.hosts.len() - 1
    }

    /// Declare that `addr` belongs to `host` (deliveries to `addr` go there).
    pub fn bind_addr(&mut self, addr: u32, host: HostId) {
        self.addr_owner.insert(addr, host);
    }

    /// Add a path; returns its id. Routes must be added separately.
    pub fn add_path(&mut self, path: Path) -> PathId {
        self.paths.push(path);
        self.paths.len() - 1
    }

    /// Route traffic from `src` to `dst` over `path` in direction `dir`.
    pub fn add_route(&mut self, src: u32, dst: u32, path: PathId, dir: Dir) {
        self.routes
            .entry((src, dst))
            .or_insert_with(|| RouteEntry {
                hops: Vec::new(),
                rr: 0,
            })
            .hops
            .push((path, dir));
    }

    /// Convenience: add a path between `addr_a` and `addr_b` with both
    /// directions routed. `addr_a` is the client (Fwd) side.
    pub fn connect(&mut self, addr_a: u32, addr_b: u32, path: Path) -> PathId {
        let pid = self.add_path(path);
        self.add_route(addr_a, addr_b, pid, Dir::Fwd);
        self.add_route(addr_b, addr_a, pid, Dir::Rev);
        pid
    }

    /// Run the simulation until `deadline` (or until no events remain).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_while(deadline, |_| true);
    }

    /// Run until `keep_going` returns false (checked between events), no
    /// events remain, or `deadline`.
    ///
    /// The first turn polls every host: [`Sim::hosts`] is public, and what
    /// a caller did to a host between runs is known to no held deadline.
    pub fn run_while<F: FnMut(&Sim<H>) -> bool>(&mut self, deadline: SimTime, mut keep_going: F) {
        self.wake.fill(Some(SimTime::ZERO));
        let mut stuck_at = self.now;
        let mut stuck_iters = 0u32;
        loop {
            self.drain_hosts();
            #[cfg(debug_assertions)]
            self.assert_none_missed();
            if !keep_going(self) {
                return;
            }
            let Some(next) = self.next_wakeup() else {
                self.now = self.now.max(deadline);
                return;
            };
            if next > deadline {
                self.now = deadline;
                return;
            }
            self.now = self.now.max(next);
            self.fire_due();
            // Livelock guard: a host that reports an immediate deadline
            // while emitting nothing would spin here forever.
            if self.now == stuck_at {
                stuck_iters += 1;
                assert!(
                    stuck_iters < 100_000,
                    "simulation livelock at {:?} (next wakeup {:?})",
                    self.now,
                    next
                );
            } else {
                stuck_at = self.now;
                stuck_iters = 0;
            }
        }
    }

    /// Make one call into host `id`, route what it sent, and hold its
    /// next deadline.
    fn call(&mut self, id: HostId, f: impl FnOnce(&mut H, SimTime, &mut Outbox)) {
        let mut out = std::mem::take(&mut self.outbox);
        f(&mut self.hosts[id], self.now, &mut out);
        for s in out.segs.drain(..) {
            self.route_segment(s);
        }
        self.outbox = out;
        self.wake[id] = self.hosts[id].poll_at(self.now);
    }

    /// Poll the hosts whose held deadline is due, in id order.
    fn drain_hosts(&mut self) {
        for id in 0..self.hosts.len() {
            if self.wake[id].is_some_and(|t| t <= self.now) {
                self.call(id, |h, now, out| h.poll(now, out));
            }
        }
    }

    /// A host that wants a poll before its held deadline would stall
    /// until an unrelated event, silently. Fail where it happened.
    #[cfg(debug_assertions)]
    fn assert_none_missed(&self) {
        let due = |t: Option<SimTime>| t.map(|t| t.max(self.now));
        for (id, host) in self.hosts.iter().enumerate() {
            let (held, fresh) = (due(self.wake[id]), due(host.poll_at(self.now)));
            assert!(
                fresh.is_none_or(|f| held.is_some_and(|h| h <= f)),
                "host {id} wants a poll at {fresh:?} but the simulator holds {held:?}: \
                 its poll_at moved without a call into it"
            );
        }
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        let mut next = min_deadline(self.deliveries.peek_time(), self.faults.next_at());
        for &t in &self.wake {
            next = min_deadline(next, t);
        }
        for p in &self.paths {
            next = min_deadline(next, p.poll_at());
        }
        next
    }

    fn fire_due(&mut self) {
        // Scheduled faults mutate paths before any traffic moves at this
        // instant, so a blackout swallows segments due "now".
        self.faults.apply_due(self.now, &mut self.paths);
        // Interface events reach the owning host before traffic moves, so
        // a REMOVE_ADDR triggered by the loss rides the surviving path at
        // this same instant.
        for (addr, up) in self.faults.take_addr_events() {
            let Some(&owner) = self.addr_owner.get(&addr) else {
                continue;
            };
            self.call(owner, |h, now, out| h.addr_event(now, addr, up, out));
        }
        // Middlebox timers (e.g. coalescers releasing held segments).
        for pid in 0..self.paths.len() {
            if self.paths[pid].poll_at().is_some_and(|t| t <= self.now) {
                let released = self.paths[pid].poll(self.now);
                for (dir, seg) in released {
                    // Held-and-released segments (coalescers) may differ
                    // from what the sender emitted; annotate as mutated.
                    self.transmit_on(pid, dir, seg, true);
                }
            }
        }
        // Segment deliveries.
        while let Some((_, seg)) = self.deliveries.pop_due(self.now) {
            let Some(&owner) = self.addr_owner.get(&seg.tuple.dst.addr) else {
                self.routing_drops += 1;
                continue;
            };
            self.call(owner, |h, now, out| h.handle_segment(now, seg, out));
        }
    }

    fn route_segment(&mut self, seg: TcpSegment) {
        let key = (seg.tuple.src.addr, seg.tuple.dst.addr);
        let Some(entry) = self.routes.get_mut(&key) else {
            self.routing_drops += 1;
            return;
        };
        let (pid, dir) = entry.hops[entry.rr % entry.hops.len()];
        entry.rr = entry.rr.wrapping_add(1);
        if self.paths[pid].chain.is_empty() {
            self.transmit_on(pid, dir, seg, false);
            return;
        }
        // Keep the pre-chain segment around only when capture is on, so the
        // disabled path stays clone-free.
        let original = if self.capture.is_enabled() {
            Some(seg.clone())
        } else {
            None
        };
        let (survivors, backwash) = self.paths[pid].apply_chain(self.now, dir, seg, &mut self.rng);
        if let Some(orig) = &original {
            if survivors.is_empty() {
                self.capture
                    .observe(self.now.0, pid, dir, orig, false, PacketFate::MboxDrop);
            }
        }
        for s in survivors {
            let mutated = original.as_ref().is_some_and(|o| *o != s);
            self.transmit_on(pid, dir, s, mutated);
        }
        for s in backwash {
            // Backwash segments are middlebox-fabricated (e.g. a proxy's
            // RST); they never match what the sender emitted.
            self.transmit_on(pid, dir.flip(), s, true);
        }
    }

    fn transmit_on(&mut self, pid: PathId, dir: Dir, seg: TcpSegment, mutated: bool) {
        let wire_len = seg.wire_len();
        let drops_before = if self.capture.is_enabled() {
            let stats = &self.paths[pid].link(dir).stats;
            Some((stats.queue_drops, stats.random_drops, stats.fault_drops))
        } else {
            None
        };
        let scheduled = self.paths[pid]
            .link_mut(dir)
            .transmit(self.now, wire_len, &mut self.rng);
        if let Some((queue_before, random_before, fault_before)) = drops_before {
            let stats = &self.paths[pid].link(dir).stats;
            let fate = if scheduled.is_some() {
                PacketFate::Delivered
            } else if stats.fault_drops > fault_before {
                PacketFate::FaultDrop
            } else if stats.random_drops > random_before {
                PacketFate::RandomDrop
            } else {
                debug_assert!(stats.queue_drops > queue_before);
                PacketFate::QueueDrop
            };
            self.capture
                .observe(self.now.0, pid, dir, &seg, mutated, fate);
        }
        if let Some(at) = scheduled {
            self.deliveries.push(at, seg);
        }
    }

    /// True when nothing remains scheduled (all hosts idle, as of the
    /// simulator's last call into each).
    pub fn idle(&self) -> bool {
        self.next_wakeup().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkCfg;
    use bytes::Bytes;
    use mptcp_packet::{Endpoint, FourTuple, SeqNum, TcpFlags};

    const A: u32 = 0x0a000001;
    const B: u32 = 0x0a000002;

    /// Ping-pong host: sends one segment per poll while it has kicks,
    /// echoes whatever arrives, up to a bounce budget. Logs every poll, and
    /// numbers what it sends in its sequence field.
    struct Pinger {
        me: u32,
        peer: u32,
        kicks: u32,
        bounces: u32,
        received: Vec<SimTime>,
        received_seqs: Vec<u32>,
        polls: Vec<SimTime>,
        sent: u32,
    }

    impl Pinger {
        fn seg(&mut self) -> TcpSegment {
            self.sent += 1;
            let mut s = TcpSegment::new(
                FourTuple {
                    src: Endpoint::new(self.me, 1),
                    dst: Endpoint::new(self.peer, 2),
                },
                SeqNum(self.sent),
                SeqNum(0),
                TcpFlags::ACK,
            );
            s.payload = Bytes::from_static(b"ping");
            s
        }
    }

    impl Host for Pinger {
        fn handle_segment(&mut self, now: SimTime, seg: TcpSegment, out: &mut Outbox) {
            self.received.push(now);
            self.received_seqs.push(seg.seq.0);
            if self.bounces > 0 {
                self.bounces -= 1;
                out.send(self.seg());
            }
        }
        fn poll(&mut self, now: SimTime, out: &mut Outbox) {
            self.polls.push(now);
            if self.kicks > 0 {
                self.kicks -= 1;
                out.send(self.seg());
            }
        }
        fn poll_at(&self, now: SimTime) -> Option<SimTime> {
            (self.kicks > 0).then_some(now)
        }
    }

    fn pinger(me: u32, peer: u32, kicks: u32, bounces: u32) -> Pinger {
        Pinger {
            me,
            peer,
            kicks,
            bounces,
            received: Vec::new(),
            received_seqs: Vec::new(),
            polls: Vec::new(),
            sent: 0,
        }
    }

    fn ping_pair(a_kicks: u32, b_bounces: u32, link: LinkCfg) -> Sim<Pinger> {
        let mut sim: Sim<Pinger> = Sim::new(7);
        let a = sim.add_host(pinger(A, B, a_kicks, 0));
        let b = sim.add_host(pinger(B, A, 0, b_bounces));
        sim.bind_addr(A, a);
        sim.bind_addr(B, b);
        sim.connect(A, B, Path::symmetric(link));
        sim
    }

    #[test]
    fn ping_pong_round_trip_timing() {
        let mut sim: Sim<Pinger> = Sim::new(7);
        let a = sim.add_host(pinger(A, B, 1, 0));
        let b = sim.add_host(pinger(B, A, 0, 1));
        sim.bind_addr(A, a);
        sim.bind_addr(B, b);
        sim.connect(
            A,
            B,
            Path::symmetric(LinkCfg {
                rate_bps: 1_000_000_000,
                delay: crate::time::Duration::from_millis(5),
                queue_bytes: 1_000_000,
                loss: 0.0,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.hosts[b].received.len(), 1);
        assert_eq!(sim.hosts[a].received.len(), 1);
        // One-way ~5 ms (+ serialization); round trip ~10 ms.
        let rtt = sim.hosts[a].received[0];
        assert!(rtt >= SimTime::from_millis(10));
        assert!(rtt < SimTime::from_millis(11));
    }

    #[test]
    fn unrouted_traffic_counted() {
        let mut sim: Sim<Pinger> = Sim::new(7);
        let a = sim.add_host(pinger(A, B, 1, 0));
        sim.bind_addr(A, a);
        // No route, no host B.
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.routing_drops, 1);
    }

    #[test]
    fn bonded_route_round_robins() {
        let mut sim: Sim<Pinger> = Sim::new(7);
        let a = sim.add_host(pinger(A, B, 4, 0));
        let b = sim.add_host(pinger(B, A, 0, 0));
        sim.bind_addr(A, a);
        sim.bind_addr(B, b);
        let p1 = sim.add_path(Path::symmetric(LinkCfg::gigabit()));
        let p2 = sim.add_path(Path::symmetric(LinkCfg::gigabit()));
        sim.add_route(A, B, p1, Dir::Fwd);
        sim.add_route(A, B, p2, Dir::Fwd);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.hosts[b].received.len(), 4);
        assert_eq!(sim.paths[p1].fwd.stats.tx_packets, 2);
        assert_eq!(sim.paths[p2].fwd.stats.tx_packets, 2);
    }

    #[test]
    fn deadline_respected() {
        let mut sim: Sim<Pinger> = Sim::new(7);
        let a = sim.add_host(pinger(A, B, 1, 0));
        let b = sim.add_host(pinger(B, A, 0, 1000));
        sim.bind_addr(A, a);
        sim.bind_addr(B, b);
        sim.connect(
            A,
            B,
            Path::symmetric(LinkCfg {
                rate_bps: 1_000_000,
                delay: crate::time::Duration::from_millis(50),
                queue_bytes: 1_000_000,
                loss: 0.0,
            }),
        );
        sim.run_until(SimTime::from_millis(500));
        assert!(sim.now <= SimTime::from_millis(500));
        // ~100 ms per bounce pair: only a handful of receptions fit.
        assert!(sim.hosts[a].received.len() < 10);
    }

    #[test]
    fn only_a_due_host_is_polled_after_the_first_turn() {
        // A has three kicks (`Some(now)` until they are spent); B has no
        // timer and only receives. The first turn polls both.
        let mut sim = ping_pair(3, 0, LinkCfg::gigabit());
        sim.run_until(SimTime::from_secs(1));
        let zero = SimTime::ZERO;
        assert_eq!(sim.hosts[0].polls, [zero; 3]);
        assert_eq!(sim.hosts[1].polls, [zero]);
        assert_eq!(sim.hosts[1].received_seqs, [1, 2, 3]);
    }

    #[test]
    fn a_host_changed_between_runs_is_polled_on_the_next_first_turn() {
        let mut sim = ping_pair(0, 0, LinkCfg::gigabit());
        sim.run_until(SimTime::from_secs(1));
        // Nothing the simulator holds says B has work now; the next run's
        // first turn finds it anyway.
        sim.hosts[1].kicks = 1;
        let t1 = SimTime::from_secs(1);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.hosts[1].polls, [SimTime::ZERO, t1]);
        assert_eq!(sim.hosts[0].polls, [SimTime::ZERO, t1]);
        assert_eq!(sim.hosts[0].received_seqs, [1]);
        assert!(sim.hosts[0].received[0] > t1);
    }

    #[test]
    fn equal_instant_deliveries_keep_insertion_order() {
        // Two identical bonded paths: segments 1 and 2 land at one instant,
        // 3 and 4 at the next, and so on. B echoes each as it lands, so the
        // echoes take heap slots the deliveries just freed, in reverse.
        let mut sim: Sim<Pinger> = Sim::new(7);
        let a = sim.add_host(pinger(A, B, 8, 0));
        let b = sim.add_host(pinger(B, A, 0, 8));
        sim.bind_addr(A, a);
        sim.bind_addr(B, b);
        for _ in 0..2 {
            let p = sim.add_path(Path::symmetric(LinkCfg::gigabit()));
            sim.add_route(A, B, p, Dir::Fwd);
            sim.add_route(B, A, p, Dir::Rev);
        }
        sim.run_until(SimTime::from_secs(1));
        for host in &sim.hosts {
            assert_eq!(host.received_seqs, (1..=8).collect::<Vec<_>>());
            assert_eq!(host.received[0], host.received[1]);
            assert_eq!(host.received[2], host.received[3]);
        }
    }
}
