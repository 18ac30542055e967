//! The benchmark's own span recorder.
//!
//! A span brackets one call from the benchmark into a layer. Spans nest:
//! each records the span that was open when it started (its parent) and
//! the operation it belongs to. Everything stays in memory until the run
//! ends. Per-name totals are kept exactly; raw spans are kept for every
//! root span and for one in [`SAMPLE_EVERY`] of the rest, which bounds
//! memory on workloads that open millions of spans.
//!
//! A span's self time is its duration minus the time covered by its
//! children, so the self times of all spans add up to the time covered by
//! the root spans.

use std::time::Instant;

use crate::json::Json;

/// One raw span is kept out of this many (roots are always kept).
pub const SAMPLE_EVERY: u64 = 256;

/// The call sites the benchmark brackets, one per layer entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Span {
    /// One whole operation (a transfer, a fetch, a simulation run).
    Op,
    /// Comparing delivered bytes against the expected stream.
    Verify,
    PacketEncode,
    PacketDecode,
    TcpPoll,
    TcpHandle,
    MptcpWrite,
    MptcpPoll,
    MptcpHandle,
    MptcpRead,
    MptcpPollAt,
    RuntimeConnect,
    RuntimeStep,
    RuntimeIdleWait,
    HarnessBuild,
    HarnessRun,
}

pub const NUM_SPANS: usize = 16;

impl Span {
    pub const ALL: [Span; NUM_SPANS] = [
        Span::Op,
        Span::Verify,
        Span::PacketEncode,
        Span::PacketDecode,
        Span::TcpPoll,
        Span::TcpHandle,
        Span::MptcpWrite,
        Span::MptcpPoll,
        Span::MptcpHandle,
        Span::MptcpRead,
        Span::MptcpPollAt,
        Span::RuntimeConnect,
        Span::RuntimeStep,
        Span::RuntimeIdleWait,
        Span::HarnessBuild,
        Span::HarnessRun,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::Op => "bench.op",
            Span::Verify => "bench.verify",
            Span::PacketEncode => "packet.encode",
            Span::PacketDecode => "packet.decode",
            Span::TcpPoll => "tcpstack.poll",
            Span::TcpHandle => "tcpstack.handle",
            Span::MptcpWrite => "mptcp.write",
            Span::MptcpPoll => "mptcp.poll",
            Span::MptcpHandle => "mptcp.handle",
            Span::MptcpRead => "mptcp.read",
            Span::MptcpPollAt => "mptcp.poll_at",
            Span::RuntimeConnect => "runtime.connect",
            Span::RuntimeStep => "runtime.step",
            Span::RuntimeIdleWait => "runtime.idle_wait",
            Span::HarnessBuild => "harness.build",
            Span::HarnessRun => "harness.run",
        }
    }
}

/// Exact per-name totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub max_ns: u64,
}

/// A raw span kept in the sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawSpan {
    pub id: u64,
    /// Id of the span open when this one started; `None` for a root.
    pub parent: Option<u64>,
    /// The operation (repetition or fetch index) this span belongs to.
    pub op: u64,
    pub name: Span,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    id: u64,
    name: Span,
    start_ns: u64,
    child_ns: u64,
}

/// The recorder. Disabled, every call is one branch and reads no clock.
pub struct Spans {
    on: bool,
    epoch: Instant,
    op: u64,
    next_id: u64,
    stack: Vec<Open>,
    totals: [SpanTotals; NUM_SPANS],
    sampled: Vec<RawSpan>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            on: false,
            epoch: Instant::now(),
            op: 0,
            next_id: 0,
            stack: Vec::with_capacity(8),
            totals: [SpanTotals::default(); NUM_SPANS],
            sampled: Vec::new(),
        }
    }

    /// Switch recording on or off between operations.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled with a span open");
        self.on = on;
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// The operation id stamped on spans from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: Span) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.enter_at(name, start_ns);
    }

    /// Close the innermost span, which must be `name`. Returns its
    /// duration in nanoseconds (0 when disabled).
    pub fn exit(&mut self, name: Span) -> u64 {
        if !self.on {
            return 0;
        }
        let end_ns = self.now_ns();
        self.exit_at(name, end_ns)
    }

    /// Forget every open span: an operation that failed part-way returns
    /// through its error path without closing them, and is not counted.
    pub fn abandon_open(&mut self) {
        self.stack.clear();
    }

    fn enter_at(&mut self, name: Span, start_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    fn exit_at(&mut self, name: Span, end_ns: u64) -> u64 {
        let open = self.stack.pop().expect("exit without enter");
        assert_eq!(open.name, name, "spans must nest");
        let dur = end_ns.saturating_sub(open.start_ns);
        let t = &mut self.totals[name as usize];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        t.max_ns = t.max_ns.max(dur);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        if parent.is_none() || open.id.is_multiple_of(SAMPLE_EVERY) {
            self.sampled.push(RawSpan {
                id: open.id,
                parent,
                op: self.op,
                name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        dur
    }

    pub fn totals(&self, name: Span) -> SpanTotals {
        self.totals[name as usize]
    }

    /// Mean duration of `name` in nanoseconds per `per` events; 0 when
    /// `per` is 0.
    pub fn ns_per(&self, name: Span, per: u64) -> f64 {
        if per == 0 {
            0.0
        } else {
            self.totals(name).total_ns as f64 / per as f64
        }
    }

    /// Sum of self times over every name.
    pub fn self_ns_sum(&self) -> u64 {
        self.totals.iter().map(|t| t.self_ns).sum()
    }

    #[cfg(test)]
    pub fn sampled(&self) -> &[RawSpan] {
        &self.sampled
    }

    /// The trace-file document: exact totals per name, then the sample.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let totals = Span::ALL
            .iter()
            .filter(|s| self.totals(**s).count > 0)
            .map(|s| {
                let t = self.totals(*s);
                (
                    s.name(),
                    Json::obj([
                        ("count", Json::Num(t.count as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                        ("max_ns", Json::Num(t.max_ns as f64)),
                    ]),
                )
            });
        let sampled = self.sampled.iter().map(|r| {
            Json::obj([
                ("id", Json::Num(r.id as f64)),
                (
                    "parent",
                    r.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("op", Json::Num(r.op as f64)),
                ("name", Json::str(r.name.name())),
                ("start_ns", Json::Num(r.start_ns as f64)),
                ("end_ns", Json::Num(r.end_ns as f64)),
            ])
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("sample_every", Json::Num(SAMPLE_EVERY as f64)),
            ("spans", Json::obj(totals)),
            ("sampled", Json::Arr(sampled.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new();
        s.set_enabled(true);
        s.set_op(3);
        // op [0, 1000] contains poll [100, 400] (which contains encode
        // [150, 250]) and handle [500, 900].
        s.enter_at(Span::Op, 0);
        s.enter_at(Span::MptcpPoll, 100);
        s.enter_at(Span::PacketEncode, 150);
        s.exit_at(Span::PacketEncode, 250);
        s.exit_at(Span::MptcpPoll, 400);
        s.enter_at(Span::MptcpHandle, 500);
        s.exit_at(Span::MptcpHandle, 900);
        s.exit_at(Span::Op, 1000);

        let op = s.totals(Span::Op);
        assert_eq!((op.count, op.total_ns, op.self_ns), (1, 1000, 300));
        let poll = s.totals(Span::MptcpPoll);
        assert_eq!((poll.total_ns, poll.self_ns), (300, 200));
        assert_eq!(s.totals(Span::PacketEncode).self_ns, 100);
        assert_eq!(s.totals(Span::MptcpHandle).self_ns, 400);
        // Self times partition the root's duration.
        assert_eq!(s.self_ns_sum(), 1000);

        // The root and span id 0 are sampled; parents and op are kept.
        let root = s.sampled().iter().find(|r| r.name == Span::Op).unwrap();
        assert_eq!((root.parent, root.op, root.end_ns), (None, 3, 1000));
    }

    #[test]
    fn repeated_spans_accumulate_count_and_max() {
        let mut s = Spans::new();
        s.set_enabled(true);
        s.enter_at(Span::Op, 0);
        for (a, b) in [(10, 20), (30, 70), (80, 85)] {
            s.enter_at(Span::MptcpPoll, a);
            s.exit_at(Span::MptcpPoll, b);
        }
        s.exit_at(Span::Op, 100);
        let poll = s.totals(Span::MptcpPoll);
        assert_eq!((poll.count, poll.total_ns, poll.max_ns), (3, 55, 40));
        assert_eq!(s.totals(Span::Op).self_ns, 45);
        assert_eq!(s.ns_per(Span::MptcpPoll, 5), 11.0);
        assert_eq!(s.ns_per(Span::MptcpPoll, 0), 0.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new();
        s.enter(Span::Op);
        s.exit(Span::Op);
        assert_eq!(s.totals(Span::Op), SpanTotals::default());
        assert!(s.sampled().is_empty());
    }

    #[test]
    fn one_child_in_sample_every_is_kept() {
        let mut s = Spans::new();
        s.set_enabled(true);
        s.enter_at(Span::Op, 0);
        for i in 0..(2 * SAMPLE_EVERY) {
            s.enter_at(Span::MptcpPoll, i);
            s.exit_at(Span::MptcpPoll, i + 1);
        }
        s.exit_at(Span::Op, 10_000);
        let kept = s
            .sampled()
            .iter()
            .filter(|r| r.name == Span::MptcpPoll)
            .count();
        assert_eq!(kept, 2);
        assert_eq!(s.totals(Span::MptcpPoll).count, 2 * SAMPLE_EVERY);
        let doc = s.to_json("mem_bulk", 7);
        let spans = doc.get("spans").unwrap();
        assert_eq!(
            spans
                .get("mptcp.poll")
                .and_then(|p| p.get("count"))
                .and_then(Json::as_f64),
            Some((2 * SAMPLE_EVERY) as f64)
        );
        assert!(spans.get("packet.encode").is_none());
    }
}
