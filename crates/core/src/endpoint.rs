//! Server-side endpoint: listening, token demux, connection ownership and
//! the ready set.
//!
//! A [`MptcpListener`] plays the role of the kernel's listen socket plus
//! connection hash tables: MP_CAPABLE SYNs create connections (drawing
//! unique tokens from the shared [`TokenTable`], §5.2), MP_JOIN SYNs are
//! demuxed *by token* — the five-tuple cannot identify the connection
//! across NATs (§3.2) — and everything else is routed by four-tuple.
//!
//! It also knows which connections need attention, so an event costs what
//! the connections it concerns cost, not what the table holds: a
//! connection is *woken* by a segment it was fed or by [`conn_mut`], and
//! comes *due* when the deadline it last reported expires. A driver either
//! calls [`poll`], or walks [`take_due`] itself and hands each index back
//! through [`settle`]. A connection whose sockets have all closed is
//! retired at `settle`: its four-tuples and token are forgotten (the
//! TIME_WAIT its sockets served is the quarantine), and nothing visits it
//! again.
//!
//! [`conn_mut`]: MptcpListener::conn_mut
//! [`poll`]: MptcpListener::poll
//! [`take_due`]: MptcpListener::take_due
//! [`settle`]: MptcpListener::settle

use std::collections::HashMap;

use mptcp_netsim::{SimRng, SimTime};
use mptcp_packet::{FourTuple, MptcpOption, TcpSegment};

use crate::config::MptcpConfig;
use crate::conn::MptcpConnection;
use crate::timers::DeadlineHeap;
use crate::token::TokenTable;

/// A passive MPTCP endpoint managing many connections.
pub struct MptcpListener {
    cfg: MptcpConfig,
    /// Every connection accepted so far, retired ones included; an index
    /// is stable for the listener's lifetime. Reading through the field is
    /// free. Mutating through it goes unnoticed by the ready set: use
    /// [`conn_mut`](Self::conn_mut), or call [`wake`](Self::wake) after.
    pub conns: Vec<MptcpConnection>,
    /// Tuple-based demux (fast path).
    by_tuple: HashMap<FourTuple, usize>,
    /// Token table shared across connections (uniqueness + join demux).
    pub tokens: TokenTable,
    rng: SimRng,
    /// SYNs that failed validation (bad token/MAC) — silently dropped.
    pub rejected_syns: u64,
    /// Connections woken since they were last taken, in wake order.
    woken: Vec<usize>,
    /// Parallel to `conns`: woken and not yet settled (so in `woken`, or
    /// taken by the driver), which is what keeps `woken` duplicate-free.
    queued: Vec<bool>,
    /// Each settled connection's `poll_at`.
    timers: DeadlineHeap,
    /// Scratch for `poll`, kept so its allocation is reused.
    due: Vec<usize>,
}

impl MptcpListener {
    /// New listener with an RNG seed for keys and ISNs.
    pub fn new(cfg: MptcpConfig, seed: u64) -> MptcpListener {
        MptcpListener {
            cfg,
            conns: Vec::new(),
            by_tuple: HashMap::new(),
            tokens: TokenTable::new(),
            rng: SimRng::new(seed),
            rejected_syns: 0,
            woken: Vec::new(),
            queued: Vec::new(),
            timers: DeadlineHeap::default(),
            due: Vec::new(),
        }
    }

    /// Connections accepted so far, which is also the index the next
    /// accepted connection gets.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Is the endpoint connection-free?
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Connection `idx`, for the application to write, read, close or
    /// reconfigure: whatever it does, the next [`poll`](Self::poll) or
    /// [`take_due`](Self::take_due) visits the connection.
    pub fn conn_mut(&mut self, idx: usize) -> &mut MptcpConnection {
        self.wake(idx);
        &mut self.conns[idx]
    }

    /// Queue connection `idx` for the next [`take_due`](Self::take_due).
    pub fn wake(&mut self, idx: usize) {
        if !std::mem::replace(&mut self.queued[idx], true) {
            self.woken.push(idx);
        }
    }

    /// Feed an incoming segment. Returns the index of the connection that
    /// consumed it (possibly newly created), or `None` if dropped.
    pub fn handle_segment(&mut self, now: SimTime, seg: &TcpSegment) -> Option<usize> {
        let key = seg.tuple.reversed(); // our local tuple view

        // Existing subflow?
        if let Some(idx) = self.owner(seg) {
            self.conns[idx].handle_segment(now, seg);
            self.wake(idx);
            return Some(idx);
        }

        if !seg.flags.syn || seg.flags.ack {
            return None; // stray non-SYN for an unknown flow
        }

        // MP_JOIN: demux by token (§3.2).
        if let Some(MptcpOption::MpJoinSyn { token, .. }) = seg
            .mptcp_options()
            .find(|m| matches!(m, MptcpOption::MpJoinSyn { .. }))
        {
            let Some(idx) = self.tokens.owner(*token) else {
                self.rejected_syns += 1;
                return None;
            };
            if idx >= self.conns.len() || self.conns[idx].accept_join(seg, now).is_err() {
                self.rejected_syns += 1;
                return None;
            }
            self.by_tuple.insert(key, idx);
            self.wake(idx);
            return Some(idx);
        }

        // Fresh connection (MP_CAPABLE or plain TCP).
        let conn = MptcpConnection::server_accept(
            self.cfg.clone(),
            seg,
            now,
            self.rng.fork(),
            &mut self.tokens,
        );
        let token = conn.local_token();
        let idx = self.conns.len();
        self.conns.push(conn);
        self.queued.push(false);
        self.tokens.set_owner(token, idx);
        self.by_tuple.insert(key, idx);
        self.wake(idx);
        Some(idx)
    }

    /// The connection whose subflow `seg` is for, by four-tuple. A SYN on
    /// a four-tuple whose subflow has died is not for it: the peer is
    /// re-joining over the same addresses (§3.4: a NAT binding timed out,
    /// an interface came back), which is the token demux's to place.
    fn owner(&self, seg: &TcpSegment) -> Option<usize> {
        let idx = *self.by_tuple.get(&seg.tuple.reversed())?;
        let fresh_syn = seg.flags.syn && !seg.flags.ack;
        (!fresh_syn || self.conns[idx].owns_tuple(seg.tuple)).then_some(idx)
    }

    /// Feed a batch of segments that arrived together (one socket drain).
    ///
    /// Contiguous runs destined for the same existing connection are
    /// handed to [`MptcpConnection::handle_segments`], which drains the
    /// subflow stream once per run instead of once per segment. SYNs and
    /// strays fall through to the per-segment path. Indices of touched
    /// connections are appended (deduplicated) to `touched`.
    pub fn handle_segments(&mut self, now: SimTime, segs: &[TcpSegment], touched: &mut Vec<usize>) {
        let mut i = 0;
        while i < segs.len() {
            let Some(idx) = self.owner(&segs[i]) else {
                if let Some(idx) = self.handle_segment(now, &segs[i]) {
                    if !touched.contains(&idx) {
                        touched.push(idx);
                    }
                }
                i += 1;
                continue;
            };
            // Extend the run while segments keep resolving to `idx`.
            let mut j = i + 1;
            while j < segs.len() && self.owner(&segs[j]) == Some(idx) {
                j += 1;
            }
            self.conns[idx].handle_segments(now, &segs[i..j]);
            self.wake(idx);
            if !touched.contains(&idx) {
                touched.push(idx);
            }
            i = j;
        }
    }

    /// Append the connections that need a poll at `now` — woken, or with an
    /// expired deadline — to `due`, in ascending index order (the order a
    /// walk over `conns` would visit them). Each stays marked until it is
    /// handed back through [`settle`](Self::settle), so the driver may go
    /// through [`conn_mut`](Self::conn_mut) while it services one.
    pub fn take_due(&mut self, now: SimTime, due: &mut Vec<usize>) {
        let (queued, woken) = (&mut self.queued, &mut self.woken);
        self.timers.pop_due(now, |idx| {
            if !std::mem::replace(&mut queued[idx], true) {
                woken.push(idx);
            }
        });
        woken.sort_unstable();
        due.append(woken);
    }

    /// Connection `idx` has been polled dry at `now`: unmark it and arm its
    /// next deadline, or retire it if every subflow socket has closed.
    pub fn settle(&mut self, idx: usize, now: SimTime) {
        self.queued[idx] = false;
        let conn = &self.conns[idx];
        if !conn.fully_closed() {
            self.timers.schedule(idx, conn.poll_at(now));
            return;
        }
        // Only what still points here: a retired connection can be settled
        // again, after its four-tuple has gone to a new one.
        for sf in conn.subflows() {
            let tuple = sf.sock.tuple();
            if self.by_tuple.get(&tuple) == Some(&idx) {
                self.by_tuple.remove(&tuple);
            }
        }
        let token = conn.local_token();
        if self.tokens.owner(token) == Some(idx) {
            self.tokens.remove(token);
        }
        self.timers.schedule(idx, None);
    }

    /// Poll every due connection for output; emits into `out`.
    pub fn poll(&mut self, now: SimTime, out: &mut Vec<TcpSegment>) {
        let mut due = std::mem::take(&mut self.due);
        self.take_due(now, &mut due);
        #[cfg(debug_assertions)]
        self.assert_none_missed(now, &due);
        for idx in due.drain(..) {
            let conn = &mut self.conns[idx];
            if !conn.fully_closed() {
                while let Some(seg) = conn.poll(now) {
                    out.push(seg);
                }
            }
            self.settle(idx, now);
        }
        self.due = due;
    }

    /// A connection that wants a poll and is not in `due` was mutated
    /// through `conns` without a `wake`: it would stall until an unrelated
    /// deadline, silently. Fail where it happened instead.
    #[cfg(debug_assertions)]
    fn assert_none_missed(&self, now: SimTime, due: &[usize]) {
        for (idx, conn) in self.conns.iter().enumerate() {
            let missed = !conn.fully_closed()
                && conn.poll_at(now).is_some_and(|d| d <= now)
                && due.binary_search(&idx).is_err();
            assert!(
                !missed,
                "connection {idx} wants a poll at {now:?} but was neither woken nor due: \
                 mutate through conn_mut(), or wake() after touching conns[{idx}]"
            );
        }
    }

    /// When the next [`poll`](Self::poll) is needed: `now` while a woken
    /// connection waits, else the earliest deadline of a live connection.
    pub fn poll_at(&self, now: SimTime) -> Option<SimTime> {
        if self.woken.is_empty() {
            self.timers.next_deadline()
        } else {
            Some(now)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mptcp_packet::{Endpoint, SeqNum, TcpFlags, TcpOption};

    fn syn_plain() -> TcpSegment {
        TcpSegment::new(
            FourTuple {
                src: Endpoint::new(1, 1000),
                dst: Endpoint::new(2, 80),
            },
            SeqNum(100),
            SeqNum(0),
            TcpFlags::SYN,
        )
    }

    #[test]
    fn plain_syn_creates_fallback_conn() {
        let mut l = MptcpListener::new(MptcpConfig::default(), 7);
        let idx = l.handle_segment(SimTime::ZERO, &syn_plain()).unwrap();
        assert!(l.conns[idx].is_fallback());
    }

    #[test]
    fn capable_syn_creates_mptcp_conn_with_token() {
        let mut l = MptcpListener::new(MptcpConfig::default(), 7);
        let mut syn = syn_plain();
        syn.options.push(TcpOption::Mptcp(MptcpOption::MpCapable {
            version: 0,
            checksum_required: true,
            sender_key: 0xabc,
            receiver_key: None,
        }));
        let idx = l.handle_segment(SimTime::ZERO, &syn).unwrap();
        assert!(!l.conns[idx].is_fallback());
        let token = l.conns[idx].local_token();
        assert_eq!(l.tokens.owner(token), Some(idx));
    }

    #[test]
    fn join_with_unknown_token_rejected() {
        let mut l = MptcpListener::new(MptcpConfig::default(), 7);
        let mut syn = syn_plain();
        syn.options.push(TcpOption::Mptcp(MptcpOption::MpJoinSyn {
            token: 0xdeadbeef,
            nonce: 1,
            addr_id: 1,
            backup: false,
        }));
        assert!(l.handle_segment(SimTime::ZERO, &syn).is_none());
        assert_eq!(l.rejected_syns, 1);
    }

    #[test]
    fn stray_data_segment_dropped() {
        let mut l = MptcpListener::new(MptcpConfig::default(), 7);
        let mut seg = syn_plain();
        seg.flags = TcpFlags::ACK;
        assert!(l.handle_segment(SimTime::ZERO, &seg).is_none());
    }

    // ------------------------------------------------------------------
    // Retirement: a closed connection's four-tuples, token and deadline
    // are forgotten once its sockets are through TIME_WAIT.
    // ------------------------------------------------------------------

    fn client_tuple(port: u16) -> FourTuple {
        FourTuple {
            src: Endpoint::new(1, port),
            dst: Endpoint::new(2, 80),
        }
    }

    fn client(port: u16, now: SimTime) -> MptcpConnection {
        MptcpConnection::client(
            MptcpConfig::default(),
            client_tuple(port),
            now,
            SimRng::new(u64::from(port)),
        )
    }

    /// Shuttle segments over a zero-delay wire, jumping the clock to the
    /// next deadline whenever both ends fall quiet, until `done`.
    fn run_until(
        c: &mut MptcpConnection,
        l: &mut MptcpListener,
        now: &mut SimTime,
        mut done: impl FnMut(&mut MptcpConnection, &MptcpListener) -> bool,
    ) {
        let mut out = Vec::new();
        for _ in 0..10_000 {
            let mut moved = false;
            while let Some(seg) = c.poll(*now) {
                l.handle_segment(*now, &seg);
                moved = true;
            }
            l.poll(*now, &mut out);
            for seg in out.drain(..) {
                c.handle_segment(*now, &seg);
                moved = true;
            }
            if moved {
                continue;
            }
            if done(c, l) {
                return;
            }
            let next = [c.poll_at(*now), l.poll_at(*now)]
                .into_iter()
                .flatten()
                .min()
                .expect("stalled with no timer armed");
            *now = (*now).max(next);
        }
        panic!("did not finish");
    }

    /// One request/response exchange in which the server closes first, as
    /// an HTTP server does, which leaves *its* sockets in TIME_WAIT.
    /// Returns the client and the server's index for it.
    fn serve_one(l: &mut MptcpListener, port: u16, now: &mut SimTime) -> (MptcpConnection, usize) {
        let idx = l.len();
        let mut c = client(port, *now);
        run_until(&mut c, l, now, |c, l| {
            c.is_established() && l.conns.get(idx).is_some_and(|s| s.is_established())
        });
        assert_eq!(c.write(b"GET").accepted(), 3);
        run_until(&mut c, l, now, |_, l| l.conns[idx].receiver_memory() > 0);
        let server = l.conn_mut(idx);
        assert!(server.read(usize::MAX).into_data().is_some());
        assert_eq!(server.write(&[0x52; 2000]).accepted(), 2000);
        server.close();
        run_until(&mut c, l, now, |c, _| {
            while c.read(usize::MAX).into_data().is_some() {}
            c.at_eof()
        });
        c.close();
        run_until(&mut c, l, now, |c, l| {
            c.send_closed() && l.conns[idx].send_closed()
        });
        (c, idx)
    }

    #[test]
    fn a_reused_four_tuple_reaches_the_old_owner_until_time_wait_ends() {
        let mut l = MptcpListener::new(MptcpConfig::default(), 7);
        let mut now = SimTime::from_millis(1);
        let (mut c, idx) = serve_one(&mut l, 4000, &mut now);
        assert!(!l.conns[idx].fully_closed(), "server sockets in TIME_WAIT");
        assert_eq!(l.by_tuple.len(), 1);

        // The client's port comes round again while the old connection is
        // still quarantined: the SYN is the old owner's to answer.
        let syn = client(4000, now).poll(now).expect("SYN");
        assert_eq!(l.handle_segment(now, &syn), Some(idx));
        assert_eq!(l.len(), 1);

        // Past TIME_WAIT the listener has forgotten the tuple, and the
        // same SYN opens a new connection.
        run_until(&mut c, &mut l, &mut now, |_, l| l.conns[idx].fully_closed());
        assert!(l.by_tuple.is_empty());
        let syn = client(4000, now).poll(now).expect("SYN");
        assert_eq!(l.handle_segment(now, &syn), Some(idx + 1));
        assert_eq!(l.len(), 2);
        assert_eq!(l.by_tuple.len(), 1);
    }

    #[test]
    fn connections_run_to_fully_closed_leave_nothing_behind() {
        let mut l = MptcpListener::new(MptcpConfig::default(), 7);
        let mut now = SimTime::from_millis(1);
        let mut tokens = Vec::new();
        for k in 0..6 {
            let (mut c, idx) = serve_one(&mut l, 4000 + k, &mut now);
            tokens.push(l.conns[idx].local_token());
            assert_eq!(l.tokens.owner(tokens[idx]), Some(idx));
            run_until(&mut c, &mut l, &mut now, |c, l| {
                c.fully_closed() && l.conns[idx].fully_closed()
            });
        }
        assert_eq!(l.len(), 6);
        assert!(l.by_tuple.is_empty());
        assert!(l.tokens.is_empty());
        assert!(tokens.iter().all(|&t| l.tokens.owner(t).is_none()));
        assert!(l.timers.is_empty());
        assert_eq!(l.poll_at(now), None);
    }

    #[test]
    fn a_retired_connection_settled_again_keeps_its_hands_off_the_new_owner() {
        let mut l = MptcpListener::new(MptcpConfig::default(), 7);
        let mut now = SimTime::from_millis(1);
        let (mut c, old) = serve_one(&mut l, 4000, &mut now);
        run_until(&mut c, &mut l, &mut now, |_, l| l.conns[old].fully_closed());
        let syn = client(4000, now).poll(now).expect("SYN");
        let new = l.handle_segment(now, &syn).expect("accepted");

        // An application still holding the old index pokes it.
        l.conn_mut(old).close();
        let mut out = Vec::new();
        l.poll(now, &mut out);
        assert_eq!(l.by_tuple.get(&client_tuple(4000).reversed()), Some(&new));
        assert!(out.iter().all(|s| s.flags.syn && s.flags.ack), "{out:?}");
    }
}
