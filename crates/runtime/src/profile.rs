//! Loop-phase profiler: where does one `step()` spend its time?
//!
//! Before the server loop can be sharded (ROADMAP, Parked) we need to know
//! whether iterations are dominated by recv syscalls, demux, protocol
//! work, encoding, or kernel flush. Each phase of an iteration is timed
//! with `Instant` laps into one [`LogHistogram`] per phase, reported as
//! p50/p99/max.
//!
//! Cost model: when disabled (the default) the profiler is a `None` — no
//! histogram allocation, no `Instant::now()` calls, nothing in the hot
//! loop but a branch on an `Option`. When enabled, each iteration costs
//! one clock read per phase boundary (~20-25 ns each on x86) plus one
//! bucket increment per phase: well under a microsecond per iteration
//! against loop iterations that run tens of microseconds when busy.

use std::time::Instant;

use mptcp_telemetry::{registry, LogHistogram};

registry! {
    /// The phases of one event-loop iteration, in execution order.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    #[repr(usize)]
    pub enum Phase, NUM_PHASES {
        /// Draining datagrams out of every path's kernel buffer.
        RecvDrain = "recv_drain";
        /// Routing decoded segments to connections (listener demux + timer pop).
        Demux = "demux";
        /// Application `drive()` calls on dirty connections.
        Drive = "drive";
        /// Polling connection output and encoding frames into egress queues.
        PollEncode = "poll_encode";
        /// Pushing queued frames to the kernel.
        Flush = "flush";
        /// Blocked in `idle_wait` between iterations.
        Idle = "idle";
    }
}

/// Accumulate the time since `*t` into `acc` and restart the lap. A `None`
/// lap (profiling disabled) is a no-op, so the hot loop never reads the
/// clock when the profiler is off. Used for phases that interleave per
/// connection and are recorded once per iteration.
pub fn lap_into(t: &mut Option<Instant>, acc: &mut u64) {
    if let Some(prev) = *t {
        let now = Instant::now();
        *acc += now.duration_since(prev).as_nanos() as u64;
        *t = Some(now);
    }
}

/// Per-phase log-bucketed timing histograms, `None` (and cost-free)
/// unless enabled.
pub struct LoopProfiler {
    hists: Option<Box<[LogHistogram; NUM_PHASES]>>,
}

impl LoopProfiler {
    /// A profiler; pass `false` for the zero-allocation disabled stub.
    pub fn new(enabled: bool) -> LoopProfiler {
        LoopProfiler {
            hists: enabled.then(|| Box::new(std::array::from_fn(|_| LogHistogram::new()))),
        }
    }

    /// Whether timing is being collected.
    pub fn enabled(&self) -> bool {
        self.hists.is_some()
    }

    /// Start an iteration lap. `None` when disabled, so no clock is read.
    pub fn start(&self) -> Option<Instant> {
        if self.hists.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close the lap started at `prev` as `phase` time and open the next
    /// lap. Threading the `Option` keeps disabled runs clock-free.
    pub fn lap(&mut self, prev: Option<Instant>, phase: Phase) -> Option<Instant> {
        let prev = prev?;
        let now = Instant::now();
        self.record(phase, now.duration_since(prev).as_nanos() as u64);
        Some(now)
    }

    /// Record `ns` of `phase` time directly (used for accumulated
    /// per-connection sections).
    pub fn record(&mut self, phase: Phase, ns: u64) {
        if let Some(h) = self.hists.as_mut() {
            h[phase as usize].record(ns);
        }
    }

    /// The histogram for `phase`, when enabled.
    pub fn hist(&self, phase: Phase) -> Option<&LogHistogram> {
        self.hists.as_deref().map(|h| &h[phase as usize])
    }

    /// Aligned text table of per-phase timings for the admin `profile`
    /// command and `repro top`.
    pub fn render_table(&self) -> String {
        let Some(h) = self.hists.as_deref() else {
            return "profiling disabled (run with profiling enabled to collect phase timings)\n"
                .to_string();
        };
        let mut out = format!(
            "{:<12} {:>12} {:>12} {:>12} {:>12} {:>14}\n",
            "phase", "count", "p50_ns", "p99_ns", "max_ns", "total_ms"
        );
        for phase in Phase::ALL {
            let hist = &h[phase as usize];
            out.push_str(&format!(
                "{:<12} {:>12} {:>12} {:>12} {:>12} {:>14.3}\n",
                phase.name(),
                hist.samples(),
                hist.quantile(0.50),
                hist.quantile(0.99),
                hist.max(),
                hist.sum() as f64 / 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Phase names are `/metrics` labels and benchmark metric suffixes;
    /// `ALL`'s order is the histogram array layout.
    #[test]
    fn phase_registry_is_pinned() {
        assert_eq!(NUM_PHASES, Phase::ALL.len());
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(*phase as usize, i);
        }
        assert_eq!(
            Phase::ALL.map(Phase::name),
            [
                "recv_drain",
                "demux",
                "drive",
                "poll_encode",
                "flush",
                "idle"
            ]
        );
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let mut p = LoopProfiler::new(false);
        assert!(!p.enabled());
        assert!(p.start().is_none());
        assert!(p.lap(None, Phase::Demux).is_none());
        p.record(Phase::Drive, 100); // no-op, must not panic
        assert!(p.hist(Phase::Drive).is_none());
        assert!(p.render_table().contains("disabled"));
    }

    #[test]
    fn enabled_profiler_records_laps() {
        let mut p = LoopProfiler::new(true);
        let t = p.start();
        assert!(t.is_some());
        let t = p.lap(t, Phase::RecvDrain);
        assert!(t.is_some());
        p.record(Phase::Flush, 5_000);
        p.record(Phase::Flush, 7_000);
        assert_eq!(p.hist(Phase::RecvDrain).unwrap().samples(), 1);
        let flush = p.hist(Phase::Flush).unwrap();
        assert_eq!(flush.samples(), 2);
        assert_eq!(flush.max(), 7_000);
        let table = p.render_table();
        assert!(table.contains("poll_encode"));
    }
}
