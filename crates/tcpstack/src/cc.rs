//! Congestion control: the per-subflow window and its pluggable increase
//! rule.
//!
//! The paper defers congestion control to \[23\] (Wischik et al., NSDI 2011)
//! but the evaluation depends on it: MPTCP subflows run a *coupled*
//! congestion controller so that a multipath connection takes no more
//! capacity than a single TCP on its best path. This module provides the
//! complete policy surface:
//!
//! * [`Cc`] — the per-subflow window the socket drives on ACKs, losses
//!   and timeouts. Slow start and the loss response are written once;
//!   the algorithms differ in their congestion-avoidance increase.
//! * [`CcAlgorithm`] — the closed set of built-in algorithms (Reno, LIA,
//!   OLIA, coupled cubic) used by `MptcpConfig::builder().cc(..)`, the
//!   `repro --cc` flag and JSON reports (via
//!   [`FromStr`]/[`Display`](core::fmt::Display)).
//! * [`CoupledState`] — the cross-subflow coupling computation. The
//!   connection owns one of these and hands it its usable subflows'
//!   sockets on every tick ([`CoupledState::couple`]); it reads each
//!   one's window and smoothed RTT and sets each one's [`CoupledSignal`]
//!   via [`Cc::set_coupled`].
//!
//! # Contract
//!
//! The socket calls exactly one of `on_ack` / `on_fast_retransmit` /
//! `on_retransmit_timeout` / `on_recovery_exit` per congestion event,
//! always with the current virtual time. `cwnd() >= 1 MSS` holds at all
//! times, and `set_cwnd`/`set_ssthresh`/`shrink_to` may be forced between
//! events (mechanism 2 penalization and mechanism 4 bufferbloat capping
//! do this). Coupling is advisory: `set_coupled` may never be called
//! (single subflow, uncoupled config) and every rule behaves like a sane
//! single-path controller in that case.

use core::fmt;
use core::str::FromStr;

use mptcp_netsim::{Duration, SimTime};

use crate::socket::TcpSocket;

/// The registry of built-in congestion-control algorithms.
///
/// Parses from and prints as the canonical lowercase names used by the
/// CLI (`repro <exp> --cc <name>`), the config builder and JSON reports:
/// `"reno"`, `"lia"`, `"olia"`, `"cubic"`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CcAlgorithm {
    /// Uncoupled NewReno on every subflow (each subflow competes like an
    /// independent TCP — unfair at shared bottlenecks, useful baseline).
    Reno,
    /// RFC 6356 Linked Increases Algorithm (the paper's default).
    #[default]
    Lia,
    /// Opportunistic LIA (Khalili et al.): per-path signed alpha terms
    /// shift window to the best paths while keeping Pareto-optimality.
    Olia,
    /// Cubic window growth per subflow, capped by the LIA aggregate bound.
    CoupledCubic,
}

impl CcAlgorithm {
    /// All algorithms, in sweep order.
    pub const ALL: [CcAlgorithm; 4] = [
        CcAlgorithm::Reno,
        CcAlgorithm::Lia,
        CcAlgorithm::Olia,
        CcAlgorithm::CoupledCubic,
    ];

    /// Canonical lowercase name (CLI flag value and report key).
    pub fn name(self) -> &'static str {
        match self {
            CcAlgorithm::Reno => "reno",
            CcAlgorithm::Lia => "lia",
            CcAlgorithm::Olia => "olia",
            CcAlgorithm::CoupledCubic => "cubic",
        }
    }

    /// Does this algorithm consume cross-subflow [`CoupledSignal`]s?
    pub fn is_coupled(self) -> bool {
        !matches!(self, CcAlgorithm::Reno)
    }

    /// A per-subflow window of `init_segs * mss` bytes growing by this
    /// algorithm's rule.
    pub fn build(self, mss: u32, init_segs: u32) -> Cc {
        Cc::new(self, mss, init_segs)
    }
}

impl fmt::Display for CcAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for CcAlgorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "reno" => Ok(CcAlgorithm::Reno),
            "lia" | "coupled" => Ok(CcAlgorithm::Lia),
            "olia" => Ok(CcAlgorithm::Olia),
            "cubic" | "coupled-cubic" => Ok(CcAlgorithm::CoupledCubic),
            other => Err(format!(
                "unknown congestion-control algorithm `{other}` \
                 (expected one of: reno, lia, olia, cubic)"
            )),
        }
    }
}

/// Cross-subflow coupling parameters for one subflow, computed by
/// [`CoupledState`] and pushed down via [`Cc::set_coupled`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoupledSignal {
    /// Aggregate-increase factor. For LIA this is the RFC 6356 connection
    /// `alpha`; for OLIA it is this subflow's signed `alpha_i` term.
    pub alpha: f64,
    /// Sum of cwnd over coupled subflows (bytes).
    pub total_cwnd: u32,
    /// Sum of `cwnd_k / rtt_k` over coupled subflows (bytes/sec) — the
    /// connection's aggregate transmission rate estimate.
    pub rate_sum: f64,
    /// This subflow's smoothed RTT at computation time.
    pub srtt: Duration,
}

impl CoupledSignal {
    /// Neutral signal: behaves like a single uncoupled flow.
    pub fn uncoupled(cwnd: u32, srtt: Duration) -> CoupledSignal {
        CoupledSignal {
            alpha: 1.0,
            total_cwnd: cwnd,
            rate_sum: 0.0,
            srtt,
        }
    }
}

/// A subflow's view handed to [`CoupledState::recompute`]: the current
/// congestion window and smoothed RTT of one usable subflow.
#[derive(Clone, Copy, Debug)]
pub struct FlowView {
    /// Congestion window (bytes).
    pub cwnd: u32,
    /// Smoothed RTT.
    pub srtt: Duration,
}

/// The cross-subflow half of coupled congestion control.
///
/// Owned by the MPTCP connection (never by individual sockets): the
/// connection is the only entity that sees every subflow, so it hands
/// them all to [`CoupledState::couple`], which reads a [`FlowView`] off
/// each, calls [`CoupledState::recompute`] and sets each socket's
/// [`CoupledSignal`]. Algorithms never reach across subflows themselves;
/// everything they may know about their siblings arrives in the signal.
#[derive(Debug)]
pub struct CoupledState {
    algo: CcAlgorithm,
    signals: Vec<CoupledSignal>,
    /// Scratch for `couple`: the views of the sampled subflows.
    flows: Vec<FlowView>,
}

impl CoupledState {
    /// Coupling state for the configured algorithm.
    pub fn new(algo: CcAlgorithm) -> CoupledState {
        CoupledState {
            algo,
            signals: Vec::new(),
            // Sized here, not on first use: an allocation made
            // mid-transfer lands between payload buffers.
            flows: Vec::with_capacity(4),
        }
    }

    /// Couple the sockets `sock` picks out of `subflows` (the usable
    /// ones, in order) and set each one's signal. Only sockets with an
    /// RTT sample shape the computation; one still waiting for its first
    /// sees the aggregate (alpha/total) view with a neutral per-path term.
    /// A no-op for Reno; allocation-free once the scratch has grown.
    pub fn couple<T>(
        &mut self,
        subflows: &mut [T],
        mut sock: impl FnMut(&mut T) -> Option<&mut TcpSocket>,
    ) {
        if !self.is_coupled() {
            return;
        }
        let mut flows = std::mem::take(&mut self.flows);
        flows.clear();
        for s in subflows.iter_mut().filter_map(&mut sock) {
            if let Some(srtt) = s.srtt() {
                let cwnd = s.cwnd();
                flows.push(FlowView { cwnd, srtt });
            }
        }
        if !flows.is_empty() {
            let olia = self.algo == CcAlgorithm::Olia;
            let signals = self.recompute(&flows);
            let shared = CoupledSignal {
                alpha: if olia { 0.0 } else { signals[0].alpha },
                ..signals[0]
            };
            let mut sampled = signals.iter();
            for s in subflows.iter_mut().filter_map(&mut sock) {
                let own = s.srtt().and_then(|_| sampled.next());
                s.cc_mut().set_coupled(own.copied().unwrap_or(shared));
            }
        }
        self.flows = flows; // keep the capacity
    }

    /// The algorithm this state couples for.
    pub fn algo(&self) -> CcAlgorithm {
        self.algo
    }

    /// Whether recomputation is worthwhile at all (false for Reno).
    pub fn is_coupled(&self) -> bool {
        self.algo.is_coupled()
    }

    /// Recompute coupling terms for the given flows. Returns one signal
    /// per flow, in input order.
    pub fn recompute(&mut self, flows: &[FlowView]) -> &[CoupledSignal] {
        self.signals.clear();
        let total: u32 = flows.iter().fold(0, |a, f| a.saturating_add(f.cwnd));
        let rate_sum: f64 = flows
            .iter()
            .map(|f| f64::from(f.cwnd) / f.srtt.as_secs_f64().max(1e-6))
            .sum();
        // One connection-wide alpha for LIA and cubic; OLIA's are per path.
        let alpha = match self.algo {
            // Uncoupled: neutral per-flow signals (not normally pushed).
            CcAlgorithm::Reno => {
                let neutral = |f: &FlowView| CoupledSignal::uncoupled(f.cwnd, f.srtt);
                self.signals.extend(flows.iter().map(neutral));
                return &self.signals;
            }
            CcAlgorithm::Lia | CcAlgorithm::CoupledCubic => lia_alpha(flows),
            CcAlgorithm::Olia => 0.0,
        };
        self.signals.extend(flows.iter().map(|f| CoupledSignal {
            alpha,
            total_cwnd: total,
            rate_sum,
            srtt: f.srtt,
        }));
        if self.algo == CcAlgorithm::Olia {
            olia_alphas(flows, self.signals.iter_mut().map(|s| &mut s.alpha));
        }
        &self.signals
    }
}

const INIT_SSTHRESH: u32 = u32::MAX / 2;

/// Cubic parameters (RFC 8312): multiplicative decrease and the C scaling
/// constant, with windows measured in MSS for the cubic polynomial.
const CUBIC_BETA: f64 = 0.7;
const CUBIC_C: f64 = 0.4;

/// One flow's congestion window, driven by the socket.
///
/// All window quantities are in **bytes**; time is the simulator's
/// virtual clock. Slow start, the response to loss, recovery exit and the
/// floors under forced moves are Reno's for every algorithm and live
/// here; what an algorithm chooses is its increase rule: how fast the window
/// grows per acknowledged byte in congestion avoidance (and, for cubic,
/// how far it backs off).
pub struct Cc {
    cwnd: u32,
    ssthresh: u32,
    mss: u32,
    /// Congestion-avoidance increase earned but not yet applied: the
    /// rules grow the window by fractions of a byte per ACK, the window
    /// moves in whole bytes.
    increase_accum: f64,
    rule: Rule,
}

/// The congestion-avoidance increase of each algorithm, with the state
/// only it needs.
enum Rule {
    /// One MSS per window's worth of acknowledged bytes.
    Reno {
        /// Bytes acked since the last full-MSS increase.
        acked_accum: u32,
    },
    /// RFC 6356: `min(alpha * acked * mss / cwnd_total, acked * mss /
    /// cwnd_i)`, so the aggregate is no more aggressive than one TCP on
    /// the best path while traffic still shifts toward less congested
    /// subflows.
    Lia { alpha: f64, total_cwnd: u32 },
    /// Khalili et al., CoNEXT 2012: per acked byte `mss * (w/rtt^2) /
    /// rate_sum^2 + alpha_i * mss / w`, where `rate_sum` is the
    /// aggregate `sum(w_k/rtt_k)` and `alpha_i` the signed per-path term
    /// of [`olia_alphas`]. With a single path the first term reduces
    /// exactly to Reno's `mss/w`.
    Olia {
        alpha: f64,
        rate_sum: f64,
        srtt: Option<Duration>,
    },
    /// The cubic target chase `(target(t) - cwnd) * acked / cwnd` with
    /// `target(t) = C*(t - K)^3 + w_max` (in MSS), *capped* by LIA's
    /// coupled increase whenever a coupling signal is live — a bundle of
    /// cubic subflows still takes no more than one fast TCP at a shared
    /// bottleneck. Backs off to β = 0.7 and uses fast convergence
    /// (`w_max` shrinks by `(2-β)/2` on back-to-back losses).
    Cubic {
        /// Window at the last loss event (bytes).
        w_max: f64,
        /// Epoch start: first CA ack after the last loss.
        epoch_start: Option<SimTime>,
        /// Time to reach `w_max` again (secs from epoch start).
        k: f64,
        alpha: f64,
        total_cwnd: u32,
        coupled: bool,
    },
}

impl Cc {
    fn new(algo: CcAlgorithm, mss: u32, init_segs: u32) -> Cc {
        let cwnd = mss * init_segs;
        let rule = match algo {
            CcAlgorithm::Reno => Rule::Reno { acked_accum: 0 },
            CcAlgorithm::Lia => Rule::Lia {
                alpha: 1.0,
                total_cwnd: cwnd,
            },
            CcAlgorithm::Olia => Rule::Olia {
                alpha: 0.0,
                rate_sum: 0.0,
                srtt: None,
            },
            CcAlgorithm::CoupledCubic => Rule::Cubic {
                w_max: f64::from(cwnd),
                epoch_start: None,
                k: 0.0,
                alpha: 1.0,
                total_cwnd: 0,
                coupled: false,
            },
        };
        Cc {
            cwnd,
            ssthresh: INIT_SSTHRESH,
            mss,
            increase_accum: 0.0,
            rule,
        }
    }

    /// Current congestion window.
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Current slow-start threshold.
    pub fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    /// Are we below ssthresh (exponential growth)?
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// A cumulative ACK advanced `snd_una` by `bytes_acked`.
    /// `rtt` carries the RTT sample of this ACK when one was taken.
    pub fn on_ack(&mut self, now: SimTime, bytes_acked: u32, rtt: Option<Duration>) {
        if self.in_slow_start() {
            self.cwnd = self
                .cwnd
                .saturating_add(bytes_acked.min(self.mss))
                .min(INIT_SSTHRESH);
            return;
        }
        self.increase_accum += self.increase(now, bytes_acked, rtt);
        if self.increase_accum >= 1.0 {
            let add = self.increase_accum as u32;
            self.increase_accum -= f64::from(add);
            self.cwnd = self.cwnd.saturating_add(add).min(INIT_SSTHRESH);
        } else if self.increase_accum <= -1.0 {
            // Only OLIA's signed term ever gets here.
            let sub = (-self.increase_accum) as u32;
            self.increase_accum += f64::from(sub);
            self.cwnd = self.cwnd.saturating_sub(sub).max(self.mss);
        }
    }

    /// The rule's congestion-avoidance increase for this ACK, in bytes.
    fn increase(&mut self, now: SimTime, bytes_acked: u32, rtt: Option<Duration>) -> f64 {
        let mss = f64::from(self.mss);
        let w = f64::from(self.cwnd.max(1));
        let acked = f64::from(bytes_acked);
        match &mut self.rule {
            Rule::Reno { acked_accum } => {
                *acked_accum += bytes_acked;
                if *acked_accum < self.cwnd {
                    return 0.0;
                }
                *acked_accum -= self.cwnd;
                mss
            }
            Rule::Lia { alpha, total_cwnd } => {
                let total = (*total_cwnd).max(self.cwnd).max(1) as f64;
                let coupled = *alpha * acked * mss / total;
                let uncoupled = acked * mss / w;
                coupled.min(uncoupled)
            }
            Rule::Olia {
                alpha,
                rate_sum,
                srtt,
            } => {
                let rtt_s = srtt
                    .or(rtt)
                    .map(|d| d.as_secs_f64())
                    .unwrap_or(0.0)
                    .max(1e-6);
                if *rate_sum > 0.0 {
                    // Coupled: OLIA's rate-based first term plus the signed
                    // opportunistic alpha term.
                    let base = mss * (w / (rtt_s * rtt_s)) / (*rate_sum * *rate_sum);
                    let opportunistic = *alpha * mss / w;
                    acked * (base + opportunistic)
                } else {
                    // No coupling signal yet (single subflow): plain Reno CA.
                    acked * mss / w
                }
            }
            Rule::Cubic {
                w_max,
                epoch_start,
                k,
                alpha,
                total_cwnd,
                coupled,
            } => {
                let start = *epoch_start.get_or_insert_with(|| {
                    if *w_max < w {
                        // Already past the old plateau: start a new convex
                        // probe from here.
                        *w_max = w;
                        *k = 0.0;
                    } else {
                        *k = ((*w_max - w) / mss / CUBIC_C).cbrt();
                    }
                    now
                });
                // Cubic target window (bytes) this far into the epoch.
                let d = (now - start).as_secs_f64() - *k;
                let target = (CUBIC_C * d * d * d + *w_max / mss) * mss;
                let cubic_inc = ((target - w) / w * acked).max(0.0);
                if *coupled && *total_cwnd > 0 {
                    let coupled_cap = *alpha * acked * mss / f64::from((*total_cwnd).max(1));
                    cubic_inc.min(coupled_cap)
                } else {
                    cubic_inc
                }
            }
        }
    }

    /// A loss was detected with `in_flight` bytes outstanding: set
    /// ssthresh to the flight cut by the rule's decrease factor.
    fn on_loss(&mut self, in_flight: u32) {
        let cut = match &mut self.rule {
            Rule::Cubic {
                w_max, epoch_start, ..
            } => {
                let w = f64::from(self.cwnd);
                // Fast convergence: if we crashed below the previous
                // plateau, release capacity faster for newcomers.
                *w_max = if w < *w_max {
                    w * (2.0 - CUBIC_BETA) / 2.0
                } else {
                    w
                };
                *epoch_start = None;
                self.increase_accum = 0.0;
                (f64::from(in_flight.max(self.mss)) * CUBIC_BETA) as u32
            }
            _ => in_flight / 2,
        };
        self.ssthresh = cut.max(2 * self.mss);
    }

    /// Entering fast retransmit; `in_flight` is the outstanding byte count.
    pub fn on_fast_retransmit(&mut self, _now: SimTime, in_flight: u32) {
        self.on_loss(in_flight);
        self.cwnd = self.ssthresh + 3 * self.mss;
    }

    /// A retransmission timeout fired.
    pub fn on_retransmit_timeout(&mut self, _now: SimTime, in_flight: u32) {
        self.on_loss(in_flight);
        self.cwnd = self.mss;
        self.increase_accum = 0.0;
        if let Rule::Reno { acked_accum } = &mut self.rule {
            *acked_accum = 0;
        }
    }

    /// Fast recovery completed (full ACK received): deflate the window.
    pub fn on_recovery_exit(&mut self) {
        self.cwnd = self.ssthresh;
    }

    /// Force the congestion window (mechanism 4 capping); never below one
    /// MSS.
    pub fn set_cwnd(&mut self, bytes: u32) {
        self.cwnd = bytes.max(self.mss);
    }

    /// Force the slow-start threshold; never below two MSS.
    pub fn set_ssthresh(&mut self, bytes: u32) {
        self.ssthresh = bytes.max(2 * self.mss);
    }

    /// Force window and threshold to `bytes`, each above its floor
    /// (mechanism 2 penalization).
    pub fn shrink_to(&mut self, bytes: u32) {
        self.set_ssthresh(bytes);
        self.set_cwnd(bytes);
    }

    /// Update coupling parameters computed by [`CoupledState`] across the
    /// connection's subflows. No-op for Reno.
    pub fn set_coupled(&mut self, signal: CoupledSignal) {
        match &mut self.rule {
            Rule::Reno { .. } => {}
            Rule::Lia { alpha, total_cwnd } => {
                *alpha = signal.alpha;
                *total_cwnd = signal.total_cwnd;
            }
            Rule::Olia {
                alpha,
                rate_sum,
                srtt,
            } => {
                *alpha = signal.alpha;
                *rate_sum = signal.rate_sum;
                *srtt = Some(signal.srtt);
            }
            Rule::Cubic {
                alpha,
                total_cwnd,
                coupled,
                ..
            } => {
                *alpha = signal.alpha;
                *total_cwnd = signal.total_cwnd;
                *coupled = true;
            }
        }
    }
}

/// Compute the LIA `alpha` coupling factor (RFC 6356 §4).
///
/// `flows` are the active subflows. Returns 1.0 when none has a window
/// to speak of yet.
pub fn lia_alpha(flows: &[FlowView]) -> f64 {
    let mut best = 0.0f64;
    let mut denom = 0.0f64;
    let mut total = 0.0f64;
    for f in flows {
        let rtt_s = f.srtt.as_secs_f64().max(1e-6);
        let c = f64::from(f.cwnd);
        best = best.max(c / (rtt_s * rtt_s));
        denom += c / rtt_s;
        total += c;
    }
    if denom <= 0.0 || best <= 0.0 {
        return 1.0;
    }
    (total * best / (denom * denom)).max(f64::MIN_POSITIVE)
}

/// Compute OLIA's per-path `alpha_i` terms.
///
/// Following Khalili et al. §3, with path quality approximated by
/// `w_i/rtt_i^2` (we do not track inter-loss distances, so the
/// highest-throughput-potential path stands in for the "best path" set):
///
/// * `M` — the paths with the largest congestion window.
/// * `collected` — best-quality paths *not* in `M` (good paths that the
///   window distribution currently under-uses).
/// * If `collected` is non-empty: `alpha_i = 1/(n*|collected|)` for
///   collected paths, `alpha_i = -1/(n*|M|)` for max-window paths, and 0
///   for everyone else — windows migrate from big to good-but-small.
/// * If `collected` is empty (the best paths already hold the biggest
///   windows): all `alpha_i = 0` and OLIA's rate term rules alone.
///
/// Writes `alpha_i` through the `i`-th item of `alphas` (one per flow), in
/// three passes over `flows` that allocate nothing.
pub fn olia_alphas<'a>(flows: &[FlowView], alphas: impl IntoIterator<Item = &'a mut f64>) {
    let n = flows.len();
    let quality = |f: &FlowView| {
        let rtt_s = f.srtt.as_secs_f64().max(1e-6);
        f64::from(f.cwnd) / (rtt_s * rtt_s)
    };
    let max_w = flows.iter().map(|f| f.cwnd).max().unwrap_or(0);
    let max_q = flows.iter().map(quality).fold(0.0f64, f64::max);
    let near = |a: f64, b: f64| (a - b).abs() <= b * 1e-9;
    let in_m = |f: &FlowView| f.cwnd == max_w;
    let collected = |f: &FlowView| max_q > 0.0 && near(quality(f), max_q) && !in_m(f);
    let n_collected = flows.iter().filter(|f| collected(f)).count();
    let n_m = flows.iter().filter(|f| in_m(f)).count().max(1);
    for (f, alpha) in flows.iter().zip(alphas) {
        *alpha = if n_collected == 0 {
            0.0
        } else if collected(f) {
            1.0 / (n as f64 * n_collected as f64)
        } else if in_m(f) {
            -1.0 / (n as f64 * n_m as f64)
        } else {
            0.0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime(0);

    fn at_ms(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    #[test]
    fn reno_slow_start_doubles_per_rtt() {
        let mut r = CcAlgorithm::Reno.build(1000, 10);
        let start = r.cwnd();
        // Acking a full window in MSS-sized chunks doubles cwnd.
        for _ in 0..10 {
            r.on_ack(T0, 1000, None);
        }
        assert_eq!(r.cwnd(), 2 * start);
    }

    #[test]
    fn reno_congestion_avoidance_linear() {
        let mut r = CcAlgorithm::Reno.build(1000, 10);
        r.set_ssthresh(5_000);
        r.set_cwnd(10_000); // above ssthresh: CA
        assert!(!r.in_slow_start());
        // One full window of acks adds one MSS.
        for _ in 0..10 {
            r.on_ack(T0, 1000, None);
        }
        assert_eq!(r.cwnd(), 11_000);
    }

    #[test]
    fn reno_fast_retransmit_halves() {
        let mut r = CcAlgorithm::Reno.build(1000, 10);
        r.set_cwnd(20_000);
        r.on_fast_retransmit(T0, 20_000);
        assert_eq!(r.ssthresh(), 10_000);
        assert_eq!(r.cwnd(), 13_000); // ssthresh + 3 MSS
        r.on_recovery_exit();
        assert_eq!(r.cwnd(), 10_000);
    }

    #[test]
    fn reno_rto_collapses_to_one_mss() {
        let mut r = CcAlgorithm::Reno.build(1000, 10);
        r.set_cwnd(20_000);
        r.on_retransmit_timeout(T0, 20_000);
        assert_eq!(r.cwnd(), 1000);
        assert_eq!(r.ssthresh(), 10_000);
    }

    #[test]
    fn reno_floors() {
        let mut r = CcAlgorithm::Reno.build(1000, 10);
        r.set_cwnd(0);
        assert_eq!(r.cwnd(), 1000);
        r.set_ssthresh(0);
        assert_eq!(r.ssthresh(), 2000);
        r.on_retransmit_timeout(T0, 100); // tiny flight still floors ssthresh
        assert_eq!(r.ssthresh(), 2000);
    }

    #[test]
    fn lia_never_more_aggressive_than_reno() {
        // Single subflow with alpha=1, total=cwnd: LIA == Reno CA rate.
        let mut lia = CcAlgorithm::Lia.build(1000, 10);
        let mut reno = CcAlgorithm::Reno.build(1000, 10);
        for c in [&mut lia, &mut reno] {
            c.set_ssthresh(5_000);
            c.set_cwnd(10_000);
        }
        for _ in 0..100 {
            let c = lia.cwnd();
            lia.set_coupled(CoupledSignal {
                alpha: 1.0,
                total_cwnd: c,
                rate_sum: 0.0,
                srtt: Duration::from_millis(100),
            });
            lia.on_ack(T0, 1000, None);
            reno.on_ack(T0, 1000, None);
        }
        // LIA grows continuously, Reno in MSS quanta; they stay within one
        // MSS of each other over a hundred ACKs.
        let diff = i64::from(lia.cwnd()) - i64::from(reno.cwnd());
        assert!(
            diff.abs() <= 1000,
            "lia {} vs reno {}",
            lia.cwnd(),
            reno.cwnd()
        );
    }

    #[test]
    fn lia_coupling_slows_growth() {
        // Two equal subflows: alpha=1 against total 2*cwnd halves growth.
        let mut lia = CcAlgorithm::Lia.build(1000, 10);
        lia.set_ssthresh(5_000);
        lia.set_cwnd(10_000);
        lia.set_coupled(CoupledSignal {
            alpha: 1.0,
            total_cwnd: 20_000,
            rate_sum: 0.0,
            srtt: Duration::from_millis(100),
        });
        for _ in 0..10 {
            lia.on_ack(T0, 1000, None);
        }
        // Uncoupled would add ~1000; coupled adds ~500.
        assert!(lia.cwnd() <= 10_600, "cwnd grew to {}", lia.cwnd());
        assert!(lia.cwnd() >= 10_400);
    }

    #[test]
    fn alpha_equal_paths_is_fraction() {
        // Two identical subflows: alpha = total*best/(denom^2)
        //  = 2c * (c/r^2) / (2c/r)^2 = 1/2.
        let a = lia_alpha(&[fv(10_000, 100), fv(10_000, 100)]);
        assert!((a - 0.5).abs() < 1e-9, "alpha = {a}");
    }

    #[test]
    fn alpha_single_path_is_one() {
        let a = lia_alpha(&[fv(10_000, 50)]);
        assert!((a - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_no_samples_defaults() {
        assert_eq!(lia_alpha(&[]), 1.0);
        assert_eq!(lia_alpha(&[fv(0, 10)]), 1.0);
    }

    #[test]
    fn alpha_favors_fast_path() {
        // A fast path and a slow path: alpha > the equal-path 0.5 because
        // the best path dominates.
        let a = lia_alpha(&[fv(10_000, 20), fv(10_000, 200)]);
        assert!(a > 0.5, "alpha = {a}");
    }

    fn fv(cwnd: u32, ms: u64) -> FlowView {
        FlowView {
            cwnd,
            srtt: Duration::from_millis(ms),
        }
    }

    /// [`olia_alphas`] collected into one `Vec`.
    fn olia(flows: &[FlowView]) -> Vec<f64> {
        let mut alphas = vec![f64::NAN; flows.len()];
        olia_alphas(flows, &mut alphas);
        alphas
    }

    #[test]
    fn olia_alpha_collected_path_gets_positive_share() {
        // Path 0: small window, excellent quality (10 ms RTT) — collected.
        // Path 1: max window, poor quality (100 ms RTT) — in M.
        // q0 = 10_000/0.01^2 = 1e8 > q1 = 20_000/0.1^2 = 2e6.
        // n = 2, |collected| = 1, |M| = 1:
        //   alpha_0 = +1/(2*1) = 0.5, alpha_1 = -1/(2*1) = -0.5.
        let a = olia(&[fv(10_000, 10), fv(20_000, 100)]);
        assert!((a[0] - 0.5).abs() < 1e-12, "alpha = {a:?}");
        assert!((a[1] + 0.5).abs() < 1e-12, "alpha = {a:?}");
    }

    #[test]
    fn olia_alpha_zero_when_best_path_has_max_window() {
        // Equal RTTs: the max-window path is also the best-quality path,
        // so `collected` is empty and every alpha is zero.
        let a = olia(&[fv(10_000, 50), fv(20_000, 50)]);
        assert_eq!(a, vec![0.0, 0.0]);
    }

    #[test]
    fn olia_alpha_three_paths_hand_computed() {
        // Path 0: w=10_000, rtt=10ms  -> q = 1e8   (best, not max-w: collected)
        // Path 1: w=30_000, rtt=100ms -> q = 3e6   (max-w: M)
        // Path 2: w=20_000, rtt=100ms -> q = 2e6   (neither)
        // n = 3: alpha = [+1/3, -1/3, 0].
        let a = olia(&[fv(10_000, 10), fv(30_000, 100), fv(20_000, 100)]);
        assert!((a[0] - 1.0 / 3.0).abs() < 1e-12, "alpha = {a:?}");
        assert!((a[1] + 1.0 / 3.0).abs() < 1e-12, "alpha = {a:?}");
        assert!(a[2].abs() < 1e-12, "alpha = {a:?}");
    }

    #[test]
    fn olia_alpha_degenerate_inputs() {
        assert!(olia(&[]).is_empty());
        // Single path: it is both best and max-window -> alpha 0.
        assert_eq!(olia(&[fv(10_000, 50)]), vec![0.0]);
    }

    #[test]
    fn olia_single_flow_matches_reno_rate() {
        // With rate_sum = w/rtt the OLIA rate term reduces to mss/w: one
        // full window of acks adds ~one MSS, like Reno CA.
        let mut o = CcAlgorithm::Olia.build(1000, 10);
        o.set_ssthresh(5_000);
        o.set_cwnd(10_000);
        let rtt = Duration::from_millis(100);
        o.set_coupled(CoupledSignal {
            alpha: 0.0,
            total_cwnd: 10_000,
            rate_sum: 10_000.0 / 0.1,
            srtt: rtt,
        });
        for _ in 0..10 {
            o.on_ack(T0, 1000, Some(rtt));
        }
        assert!((10_900..=11_100).contains(&o.cwnd()), "cwnd = {}", o.cwnd());
    }

    #[test]
    fn olia_negative_alpha_shrinks_window() {
        // A max-window path with alpha = -0.5 and a dominant rate_sum
        // grows slower than it shrinks: net decrease.
        let mut o = CcAlgorithm::Olia.build(1000, 10);
        o.set_ssthresh(5_000);
        o.set_cwnd(20_000);
        let rtt = Duration::from_millis(100);
        o.set_coupled(CoupledSignal {
            alpha: -0.5,
            total_cwnd: 30_000,
            rate_sum: 300_000.0,
            srtt: rtt,
        });
        let before = o.cwnd();
        for _ in 0..40 {
            o.on_ack(T0, 1000, Some(rtt));
        }
        assert!(o.cwnd() < before, "cwnd = {}", o.cwnd());
    }

    #[test]
    fn cubic_convex_growth_accelerates_past_plateau() {
        let mut c = CcAlgorithm::CoupledCubic.build(1000, 10);
        c.set_ssthresh(5_000);
        c.set_cwnd(10_000);
        // Drive acks across virtual time; cubic should pass its plateau
        // (w_max = cwnd at epoch start) and accelerate.
        let mut now_ms = 0;
        let mut last = c.cwnd();
        let mut grew = 0u32;
        for _ in 0..50 {
            now_ms += 100;
            for _ in 0..10 {
                c.on_ack(at_ms(now_ms), 1000, None);
            }
            grew += u32::from(c.cwnd() > last);
            last = c.cwnd();
        }
        assert!(c.cwnd() > 10_000, "cwnd = {}", c.cwnd());
        assert!(grew >= 10, "cwnd never grew: {}", c.cwnd());
    }

    #[test]
    fn cubic_loss_sets_plateau_and_concave_approach() {
        let mut c = CcAlgorithm::CoupledCubic.build(1000, 10);
        c.set_ssthresh(5_000);
        c.set_cwnd(20_000);
        c.on_fast_retransmit(at_ms(0), 20_000);
        // beta = 0.7: ssthresh = 14_000, recovery exit deflates there.
        assert_eq!(c.ssthresh(), 14_000);
        c.on_recovery_exit();
        assert_eq!(c.cwnd(), 14_000);
        // K = cbrt((w_max - w)/mss/C) = cbrt(6/0.4) ~ 2.47 s.
        // Early in the epoch growth is concave: cwnd approaches but does
        // not exceed w_max = 20_000 within the first second.
        let mut now_ms = 0;
        for _ in 0..10 {
            now_ms += 100;
            for _ in 0..14 {
                c.on_ack(at_ms(now_ms), 1000, None);
            }
        }
        assert!(c.cwnd() > 14_000, "cwnd = {}", c.cwnd());
        assert!(c.cwnd() <= 20_000, "cwnd = {}", c.cwnd());
    }

    #[test]
    fn cubic_coupling_caps_increase() {
        // Identical twins, one coupled with a tiny alpha: the coupled one
        // must grow no faster than the LIA cap allows.
        let mut free = CcAlgorithm::CoupledCubic.build(1000, 10);
        let mut capped = CcAlgorithm::CoupledCubic.build(1000, 10);
        for c in [&mut free, &mut capped] {
            c.set_ssthresh(5_000);
            c.set_cwnd(10_000);
        }
        capped.set_coupled(CoupledSignal {
            alpha: 0.1,
            total_cwnd: 40_000,
            rate_sum: 0.0,
            srtt: Duration::from_millis(100),
        });
        let mut now_ms = 0;
        for _ in 0..30 {
            now_ms += 100;
            for _ in 0..10 {
                free.on_ack(at_ms(now_ms), 1000, None);
                capped.on_ack(at_ms(now_ms), 1000, None);
            }
        }
        assert!(
            capped.cwnd() < free.cwnd(),
            "capped {} vs free {}",
            capped.cwnd(),
            free.cwnd()
        );
        // Cap is alpha*mss/total per MSS acked: 3s * 10 acks * 1000B *
        // 0.1 * 1000/40_000 = 750 bytes max total growth.
        assert!(capped.cwnd() <= 10_000 + 1000, "cwnd = {}", capped.cwnd());
    }

    #[test]
    fn loss_response_is_renos_but_for_cubics_beta() {
        for algo in CcAlgorithm::ALL {
            // (flight, ssthresh) with cwnd 40_000 at the loss: half the
            // flight — 0.7 of it for cubic — and never under two MSS.
            let rows = match algo {
                CcAlgorithm::CoupledCubic => [(20_000, 14_000), (30_001, 21_000), (100, 2_000)],
                _ => [(20_000, 10_000), (30_001, 15_000), (100, 2_000)],
            };
            for (flight, ssthresh) in rows {
                let mut cc = algo.build(1000, 10);
                cc.set_cwnd(40_000);
                cc.on_fast_retransmit(T0, flight);
                assert_eq!(cc.ssthresh(), ssthresh, "{algo} fast retransmit");
                assert_eq!(cc.cwnd(), ssthresh + 3_000, "{algo} inflates by 3 MSS");
                cc.on_recovery_exit();
                assert_eq!(cc.cwnd(), ssthresh, "{algo} deflates to ssthresh");

                let mut cc = algo.build(1000, 10);
                cc.set_cwnd(40_000);
                cc.on_retransmit_timeout(T0, flight);
                assert_eq!(cc.ssthresh(), ssthresh, "{algo} timeout");
                assert_eq!(cc.cwnd(), 1000, "{algo} collapses to one MSS");
                assert!(cc.in_slow_start());
            }
            let mut cc = algo.build(1000, 10);
            cc.shrink_to(0);
            assert_eq!((cc.cwnd(), cc.ssthresh()), (1000, 2000), "{algo} floors");
        }
    }

    #[test]
    fn cc_algorithm_names_round_trip() {
        for algo in CcAlgorithm::ALL {
            let parsed: CcAlgorithm = algo.name().parse().unwrap();
            assert_eq!(parsed, algo);
            assert_eq!(format!("{algo}"), algo.name());
        }
        assert_eq!(
            "CUBIC".parse::<CcAlgorithm>().unwrap(),
            CcAlgorithm::CoupledCubic
        );
        assert!("vegas".parse::<CcAlgorithm>().is_err());
    }

    #[test]
    fn cc_algorithm_builds_named_controller() {
        for algo in CcAlgorithm::ALL {
            let cc = algo.build(1460, 10);
            let built = match cc.rule {
                Rule::Reno { .. } => CcAlgorithm::Reno,
                Rule::Lia { .. } => CcAlgorithm::Lia,
                Rule::Olia { .. } => CcAlgorithm::Olia,
                Rule::Cubic { .. } => CcAlgorithm::CoupledCubic,
            };
            assert_eq!(built, algo);
            assert_eq!(cc.cwnd(), 14_600);
        }
        assert!(!CcAlgorithm::Reno.is_coupled());
        assert!(CcAlgorithm::Olia.is_coupled());
    }

    #[test]
    fn coupled_state_lia_signals() {
        let mut st = CoupledState::new(CcAlgorithm::Lia);
        assert!(st.is_coupled());
        let flows = [fv(10_000, 100), fv(10_000, 100)];
        let sigs = st.recompute(&flows);
        assert_eq!(sigs.len(), 2);
        // Equal paths: alpha = 1/2, shared by both flows.
        assert!((sigs[0].alpha - 0.5).abs() < 1e-9);
        assert_eq!(sigs[0].total_cwnd, 20_000);
        // rate_sum = 2 * 10_000/0.1 = 200_000 B/s.
        assert!((sigs[0].rate_sum - 200_000.0).abs() < 1.0);
        assert_eq!(sigs[1].srtt, Duration::from_millis(100));
    }

    #[test]
    fn coupled_state_olia_per_flow_alphas() {
        let mut st = CoupledState::new(CcAlgorithm::Olia);
        let flows = [fv(10_000, 10), fv(20_000, 100)];
        let sigs = st.recompute(&flows);
        assert!((sigs[0].alpha - 0.5).abs() < 1e-12);
        assert!((sigs[1].alpha + 0.5).abs() < 1e-12);
        assert_eq!(sigs[0].total_cwnd, 30_000);
    }

    #[test]
    fn coupled_state_reno_is_uncoupled() {
        let mut st = CoupledState::new(CcAlgorithm::Reno);
        assert!(!st.is_coupled());
        let sigs = st.recompute(&[fv(10_000, 50)]);
        assert_eq!(sigs[0].alpha, 1.0);
    }
}
