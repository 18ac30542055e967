//! MPTCP connection configuration: mechanisms, policies, reorder algorithm.
//!
//! [`MptcpConfig::builder`] is the single supported construction path:
//! it validates every knob combination and is where the two policy axes —
//! [`CcAlgorithm`] and [`SchedulerKind`] — plug in. Raw fields are crate
//! private; read accessors cover everything external code needs, and
//! [`MptcpConfig::into_builder`] re-opens an existing config for edits.

use std::fmt;

use mptcp_netsim::Duration;
use mptcp_tcpstack::{CcAlgorithm, TcpConfig};
use mptcp_telemetry::TraceConfig;

use crate::pm::PathManagerCfg;
use crate::sched::SchedulerKind;

/// The receive-path out-of-order queue algorithms of §4.3 / Figure 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReorderAlgo {
    /// Linear scan of the out-of-order queue (stock TCP behaviour).
    Regular,
    /// Balanced-tree lookup.
    Tree,
    /// Per-subflow expected-position pointers with linear-scan fallback.
    Shortcuts,
    /// Shortcuts plus batch-grouped fallback iteration.
    AllShortcuts,
}

/// The sender-side receive-buffer mechanisms of §4.2.
#[derive(Clone, Copy, Debug)]
pub struct Mechanisms {
    /// M1: opportunistic retransmission of the segment holding up the
    /// trailing edge of the receive window.
    pub opportunistic_retx: bool,
    /// M2: penalize (halve cwnd of) the subflow holding up the window,
    /// at most once per subflow RTT.
    pub penalize: bool,
    /// M3: send/receive buffer autotuning toward `2·Σxᵢ·RTTmax`.
    pub autotune: bool,
    /// M4: cap subflow cwnd when smoothed RTT exceeds 2× base RTT.
    pub cap_cwnd: bool,
}

impl Mechanisms {
    /// "Regular MPTCP" in the paper's figures: no mechanisms.
    pub const NONE: Mechanisms = Mechanisms {
        opportunistic_retx: false,
        penalize: false,
        autotune: false,
        cap_cwnd: false,
    };
    /// MPTCP+M1.
    pub const M1: Mechanisms = Mechanisms {
        opportunistic_retx: true,
        ..Mechanisms::NONE
    };
    /// MPTCP+M1,2 — the configuration the paper recommends.
    pub const M1_2: Mechanisms = Mechanisms {
        opportunistic_retx: true,
        penalize: true,
        ..Mechanisms::NONE
    };
    /// MPTCP+M1,2,3 (autotuning on).
    pub const M1_2_3: Mechanisms = Mechanisms {
        opportunistic_retx: true,
        penalize: true,
        autotune: true,
        cap_cwnd: false,
    };
    /// MPTCP+M1,2,3,4 (autotuning + cwnd capping).
    pub const ALL: Mechanisms = Mechanisms {
        opportunistic_retx: true,
        penalize: true,
        autotune: true,
        cap_cwnd: true,
    };
}

/// Path-failure detection and break-before-make recovery thresholds.
///
/// A subflow is demoted `Active -> Suspect` when its socket accumulates
/// `suspect_after_rtos` consecutive RTOs (or its DATA_ACK progress stalls
/// for `progress_timeout` with data outstanding), and `Suspect -> Failed`
/// at `fail_after_rtos`, at which point its in-flight DSNs are reinjected
/// on surviving subflows immediately. Non-Active subflows are re-probed
/// every `probe_interval` (doubling per unanswered probe, capped at 8x);
/// a probe answered returns the path to Active. When every live subflow
/// is Failed for `abort_deadline`, the connection aborts with
/// [`crate::AbortReason::AllPathsFailed`] instead of hanging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailureDetection {
    /// Consecutive subflow RTOs before demotion to Suspect.
    pub suspect_after_rtos: u32,
    /// Consecutive subflow RTOs before the path is declared Failed.
    pub fail_after_rtos: u32,
    /// Demote a subflow whose delivered-byte count has not moved for this
    /// long while data was outstanding on it.
    pub progress_timeout: Duration,
    /// Base interval between reachability probes of a demoted subflow.
    pub probe_interval: Duration,
    /// How long every path must stay Failed before the connection aborts.
    pub abort_deadline: Duration,
}

impl Default for FailureDetection {
    fn default() -> FailureDetection {
        FailureDetection {
            suspect_after_rtos: 2,
            fail_after_rtos: 3,
            progress_timeout: Duration::from_secs(4),
            probe_interval: Duration::from_millis(500),
            abort_deadline: Duration::from_secs(10),
        }
    }
}

/// Configuration for an MPTCP connection, built by [`MptcpConfig::builder`]
/// (validated) or taken as [`MptcpConfig::default`]. Fields are
/// crate-private, one per setting: a subflow socket's M4 flag and trace are
/// derived from `mech` and `trace` where the socket is made.
#[derive(Clone, Debug)]
pub struct MptcpConfig {
    /// Per-subflow TCP parameters, less the two `subflow_tcp` derives.
    pub(crate) tcp: TcpConfig,
    /// Require and verify DSS checksums (§3.3.6; off for datacenters).
    pub(crate) checksum: bool,
    /// Receive-buffer mechanisms.
    pub(crate) mech: Mechanisms,
    /// Out-of-order queue algorithm.
    pub(crate) reorder: ReorderAlgo,
    /// Congestion-control algorithm installed on every subflow.
    pub(crate) cc: CcAlgorithm,
    /// Packet scheduler deciding which subflow carries each chunk.
    pub(crate) scheduler: SchedulerKind,
    /// Connection-level send buffer cap in bytes, fallen back or not.
    pub(crate) send_buf: usize,
    /// Connection-level receive buffer cap in bytes, fallen back or not.
    pub(crate) recv_buf: usize,
    /// Time-series tracing of connection and subflow internals (every
    /// subflow socket traces with it too). Disabled by default.
    pub(crate) trace: TraceConfig,
    /// Path-failure detection thresholds and the all-paths abort deadline.
    pub(crate) failure: FailureDetection,
    /// Path-manager policy, endpoint registry and limits.
    pub(crate) pm: PathManagerCfg,
}

impl Default for MptcpConfig {
    fn default() -> Self {
        // Subflow buffers are not the limiting resource: the connection
        // enforces its own shared pool (§3.3.1) and overrides the window.
        let tcp = TcpConfig {
            send_buf: usize::MAX / 2,
            recv_buf: usize::MAX / 2,
            autotune: false,
            ..TcpConfig::default()
        };
        MptcpConfig {
            tcp,
            checksum: true,
            mech: Mechanisms::M1_2,
            reorder: ReorderAlgo::AllShortcuts,
            cc: CcAlgorithm::Lia,
            scheduler: SchedulerKind::MinRtt,
            send_buf: 2 * 1024 * 1024,
            recv_buf: 2 * 1024 * 1024,
            trace: TraceConfig::disabled(),
            failure: FailureDetection::default(),
            pm: PathManagerCfg::default(),
        }
    }
}

impl MptcpConfig {
    /// Start a validated configuration build.
    pub fn builder() -> MptcpConfigBuilder {
        MptcpConfigBuilder {
            cfg: MptcpConfig::default(),
        }
    }

    /// Re-open this configuration for further (validated) edits.
    pub fn into_builder(self) -> MptcpConfigBuilder {
        MptcpConfigBuilder { cfg: self }
    }

    /// Per-subflow TCP parameters as set; subflow sockets take their M4
    /// flag and trace from [`MptcpConfig::mechanisms`] and
    /// [`MptcpConfig::trace`] instead, and autotune under M3 too.
    pub fn tcp(&self) -> &TcpConfig {
        &self.tcp
    }

    /// What every subflow socket is made with: `tcp`, plus M4 (which acts
    /// inside the subflow TCP, like FreeBSD's inflight limiter), M3's
    /// autotuning (whose receive RTT the connection reads off the
    /// subflows) and tracing from this config. The one place any of them
    /// reaches a socket.
    pub(crate) fn subflow_tcp(&self) -> TcpConfig {
        TcpConfig {
            autotune: self.tcp.autotune || self.mech.autotune,
            cap_cwnd_on_bufferbloat: self.mech.cap_cwnd,
            trace: self.trace,
            ..self.tcp.clone()
        }
    }

    /// Are DSS checksums required and verified?
    pub fn checksum(&self) -> bool {
        self.checksum
    }

    /// The active receive-buffer mechanism set (M1–M4).
    pub fn mechanisms(&self) -> Mechanisms {
        self.mech
    }

    /// The out-of-order queue algorithm.
    pub fn reorder(&self) -> ReorderAlgo {
        self.reorder
    }

    /// The congestion-control algorithm installed on subflows.
    pub fn cc(&self) -> CcAlgorithm {
        self.cc
    }

    /// The packet scheduler placing chunks onto subflows.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// Connection-level send buffer cap (bytes).
    pub fn send_buf(&self) -> usize {
        self.send_buf
    }

    /// Connection-level receive buffer cap (bytes).
    pub fn recv_buf(&self) -> usize {
        self.recv_buf
    }

    /// Time-series trace configuration.
    pub fn trace(&self) -> TraceConfig {
        self.trace
    }

    /// Path-failure detection thresholds.
    pub fn failure_detection(&self) -> FailureDetection {
        self.failure
    }

    /// Path-manager policy, endpoint registry and limits.
    pub fn path_manager(&self) -> &PathManagerCfg {
        &self.pm
    }

    /// Check invariants a hand-assembled configuration may violate.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.send_buf == 0 {
            return Err(ConfigError::ZeroSendBuffer);
        }
        if self.recv_buf == 0 {
            return Err(ConfigError::ZeroRecvBuffer);
        }
        // A zero-capacity trace ring would silently drop every sample; the
        // way to turn tracing off is `enabled: false`, not capacity 0.
        if self.trace.enabled && self.trace.capacity == 0 {
            return Err(ConfigError::ZeroTraceCapacity);
        }
        // Detection must escalate: zero thresholds would demote a healthy
        // path, and a fail threshold below the suspect threshold would skip
        // the Suspect state the scheduler relies on.
        if self.failure.suspect_after_rtos == 0
            || self.failure.fail_after_rtos < self.failure.suspect_after_rtos
        {
            return Err(ConfigError::FailureThresholdOrder {
                suspect: self.failure.suspect_after_rtos,
                fail: self.failure.fail_after_rtos,
            });
        }
        if self.failure.progress_timeout.is_zero()
            || self.failure.probe_interval.is_zero()
            || self.failure.abort_deadline.is_zero()
        {
            return Err(ConfigError::ZeroFailureTimer);
        }
        // ADD_ADDR reliability needs a real interval; disable the path
        // manager's advertising by registering no signal endpoints, not by
        // a zero timer.
        if self.pm.limits.add_addr_rtx.is_zero() {
            return Err(ConfigError::ZeroPmTimer);
        }
        // Two registry entries for one address would double-advertise and
        // double-join it.
        for (i, a) in self.pm.endpoints.iter().enumerate() {
            if self.pm.endpoints[..i].iter().any(|b| b.addr == a.addr) {
                return Err(ConfigError::DuplicatePmEndpoint { addr: a.addr });
            }
        }
        Ok(())
    }
}

/// Why [`MptcpConfigBuilder::build`] refused a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `send_buf` is zero: no data could ever be written.
    ZeroSendBuffer,
    /// `recv_buf` is zero: the advertised window would be stuck at zero.
    ZeroRecvBuffer,
    /// Tracing enabled with a zero-record ring; disable tracing instead.
    ZeroTraceCapacity,
    /// Path-failure thresholds out of order: suspect must be nonzero and
    /// no larger than fail.
    FailureThresholdOrder {
        /// The suspect threshold.
        suspect: u32,
        /// The fail threshold.
        fail: u32,
    },
    /// A failure-detection timer (progress, probe, or abort deadline) is
    /// zero; disable detection by raising thresholds, not by zero timers.
    ZeroFailureTimer,
    /// The path manager's ADD_ADDR retransmit interval is zero.
    ZeroPmTimer,
    /// Two path-manager endpoints registered the same local address.
    DuplicatePmEndpoint {
        /// The duplicated address.
        addr: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroSendBuffer => f.write_str("send_buf must be nonzero"),
            ConfigError::ZeroRecvBuffer => f.write_str("recv_buf must be nonzero"),
            ConfigError::ZeroTraceCapacity => {
                f.write_str("enabled tracing needs a nonzero ring capacity")
            }
            ConfigError::FailureThresholdOrder { suspect, fail } => write!(
                f,
                "failure thresholds must satisfy 1 <= suspect <= fail, got suspect={suspect} fail={fail}"
            ),
            ConfigError::ZeroFailureTimer => {
                f.write_str("failure-detection timers must be nonzero")
            }
            ConfigError::ZeroPmTimer => {
                f.write_str("path-manager add_addr_rtx interval must be nonzero")
            }
            ConfigError::DuplicatePmEndpoint { addr } => {
                write!(f, "path-manager endpoint address {addr:#010x} registered twice")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder returning a validated [`MptcpConfig`].
#[derive(Clone, Debug)]
pub struct MptcpConfigBuilder {
    cfg: MptcpConfig,
}

impl MptcpConfigBuilder {
    /// Set both connection-level buffer caps.
    pub fn buffers(mut self, bytes: usize) -> Self {
        self.cfg.send_buf = bytes;
        self.cfg.recv_buf = bytes;
        self
    }

    /// Set the connection-level send buffer cap.
    pub fn send_buf(mut self, bytes: usize) -> Self {
        self.cfg.send_buf = bytes;
        self
    }

    /// Set the connection-level receive buffer cap.
    pub fn recv_buf(mut self, bytes: usize) -> Self {
        self.cfg.recv_buf = bytes;
        self
    }

    /// Select the mechanism set.
    pub fn mechanisms(mut self, mech: Mechanisms) -> Self {
        self.cfg.mech = mech;
        self
    }

    /// Enable or disable DSS checksums.
    pub fn checksum(mut self, on: bool) -> Self {
        self.cfg.checksum = on;
        self
    }

    /// Select the out-of-order queue algorithm.
    pub fn reorder(mut self, algo: ReorderAlgo) -> Self {
        self.cfg.reorder = algo;
        self
    }

    /// Select the congestion-control algorithm installed on subflows.
    pub fn cc(mut self, algo: CcAlgorithm) -> Self {
        self.cfg.cc = algo;
        self
    }

    /// Select the packet scheduler.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.cfg.scheduler = kind;
        self
    }

    /// Replace the per-subflow TCP parameters; their M4 flag and trace are
    /// derived from `mechanisms` and `trace`, whatever the call order.
    pub fn tcp(mut self, tcp: TcpConfig) -> Self {
        self.cfg.tcp = tcp;
        self
    }

    /// Enable or replace time-series tracing (subflow sockets included).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.cfg.trace = trace;
        self
    }

    /// Replace the path-failure detection thresholds.
    pub fn failure_detection(mut self, failure: FailureDetection) -> Self {
        self.cfg.failure = failure;
        self
    }

    /// Replace the path-manager policy, endpoint registry and limits.
    pub fn path_manager(mut self, pm: PathManagerCfg) -> Self {
        self.cfg.pm = pm;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<MptcpConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // presets are consts by design
    fn mechanism_presets() {
        assert!(!Mechanisms::NONE.opportunistic_retx);
        assert!(Mechanisms::M1.opportunistic_retx && !Mechanisms::M1.penalize);
        assert!(Mechanisms::M1_2.penalize && !Mechanisms::M1_2.autotune);
        assert!(Mechanisms::ALL.cap_cwnd && Mechanisms::ALL.autotune);
    }

    #[test]
    fn mech_propagates_capping_to_tcp() {
        let mech = |m| MptcpConfig::builder().mechanisms(m).build().unwrap();
        assert!(mech(Mechanisms::ALL).subflow_tcp().cap_cwnd_on_bufferbloat);
        assert!(!mech(Mechanisms::M1_2).subflow_tcp().cap_cwnd_on_bufferbloat);
    }

    #[test]
    fn buffer_setter() {
        let cfg = MptcpConfig::builder().buffers(123_456).build().unwrap();
        assert_eq!(cfg.send_buf, 123_456);
        assert_eq!(cfg.recv_buf, 123_456);
    }

    #[test]
    fn builder_accepts_defaults() {
        let cfg = MptcpConfig::builder().build().expect("defaults are valid");
        assert_eq!(cfg.reorder, ReorderAlgo::AllShortcuts);
    }

    #[test]
    fn builder_rejects_zero_buffers() {
        assert_eq!(
            MptcpConfig::builder().send_buf(0).build().unwrap_err(),
            ConfigError::ZeroSendBuffer
        );
        assert_eq!(
            MptcpConfig::builder().recv_buf(0).build().unwrap_err(),
            ConfigError::ZeroRecvBuffer
        );
    }

    #[test]
    fn builder_rejects_zero_capacity_trace() {
        let bad = TraceConfig {
            enabled: true,
            capacity: 0,
            ..TraceConfig::enabled()
        };
        assert_eq!(
            MptcpConfig::builder().trace(bad).build().unwrap_err(),
            ConfigError::ZeroTraceCapacity
        );
        // Disabled tracing with zero capacity is the normal default.
        MptcpConfig::builder()
            .trace(TraceConfig::disabled())
            .build()
            .expect("disabled trace is always valid");
    }

    #[test]
    fn trace_propagates_to_subflow_tcp() {
        let cfg = MptcpConfig::builder()
            .trace(TraceConfig::enabled())
            .build()
            .unwrap();
        assert!(cfg.trace.enabled);
        assert!(cfg.subflow_tcp().trace.enabled);
        assert_eq!(cfg.subflow_tcp().trace.capacity, cfg.trace.capacity);
    }

    #[test]
    fn builder_rejects_bad_failure_detection() {
        let err = MptcpConfig::builder()
            .failure_detection(FailureDetection {
                suspect_after_rtos: 4,
                fail_after_rtos: 2,
                ..FailureDetection::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::FailureThresholdOrder {
                suspect: 4,
                fail: 2
            }
        );
        let err = MptcpConfig::builder()
            .failure_detection(FailureDetection {
                probe_interval: Duration::ZERO,
                ..FailureDetection::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroFailureTimer);
        MptcpConfig::builder()
            .failure_detection(FailureDetection::default())
            .build()
            .expect("defaults are valid");
    }

    #[test]
    fn builder_rejects_bad_path_manager() {
        use crate::pm::{EndpointFlags, PmEndpoint, PmLimits, PmPolicy};
        let err = MptcpConfig::builder()
            .path_manager(PathManagerCfg::default().limits(PmLimits {
                add_addr_rtx: Duration::ZERO,
                ..PmLimits::default()
            }))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroPmTimer);
        let err = MptcpConfig::builder()
            .path_manager(
                PathManagerCfg::new(PmPolicy::Fullmesh)
                    .endpoint(PmEndpoint::new(7, EndpointFlags::SUBFLOW))
                    .endpoint(PmEndpoint::new(7, EndpointFlags::SIGNAL))
                    .limits(PmLimits {
                        max_subflows: 4,
                        ..PmLimits::default()
                    }),
            )
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::DuplicatePmEndpoint { addr: 7 });
        let cfg = MptcpConfig::builder()
            .path_manager(
                PathManagerCfg::new(PmPolicy::Fullmesh)
                    .endpoint(PmEndpoint::new(7, EndpointFlags::SUBFLOW)),
            )
            .build()
            .expect("a clean registry validates");
        assert_eq!(cfg.path_manager().policy, PmPolicy::Fullmesh);
    }
}
