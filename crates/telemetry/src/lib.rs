//! Telemetry substrate for the MPTCP stack.
//!
//! The paper's evaluation hinges on *why* throughput moved: which of the
//! M1-M4 mechanisms fired, whether a connection fell back to regular TCP
//! (and what middlebox behaviour caused it), and how deep the receive-side
//! reorder structures grew. This crate gives every layer one way to report
//! those internals without pulling in dependencies or wall-clock time: a
//! [`Recorder`] holds fixed-size counter and gauge arrays, a bounded event
//! [`Ring`] and — when tracing is configured — a second ring of
//! time-series records, all timestamped by the caller from the simulated
//! clock. A layer reports a happening with one call, [`Recorder::note`];
//! which counter it bumps and whether it lands in the event ring, the
//! trace or both is declared once, next to [`EventKind`]. Snapshots render
//! themselves through the one [`json::Writer`] or as a text table.
//!
//! Design constraints:
//! - no `std::time` anywhere: timestamps are caller-supplied sim-clock
//!   nanoseconds, so runs stay deterministic;
//! - zero dependencies: the JSON writer and the table are in-tree;
//! - bounded memory: a ring drops its oldest records past its capacity and
//!   reports how many were dropped, so long runs can't bloat.

mod hist;
pub mod json;
mod ring;
mod trace;

pub use hist::LogHistogram;
pub use ring::Ring;
pub use trace::{
    TraceConfig, TraceRecord, TraceSnapshot, TraceWriter, DEFAULT_SAMPLE_INTERVAL_NS,
    DEFAULT_TRACE_CAPACITY, SPAN_CONN_LEVEL,
};

/// Declares a metric enum from one row per variant, so the variant, its
/// serialized name and its help text cannot drift apart and a row with a
/// piece missing does not compile. Three row shapes:
///
/// - `Variant = "name", "help";` — ids with Prometheus `# HELP` text,
///   which is also the variant's rustdoc (a `///` on the row adds to it);
/// - `Variant = "name";` — plain ids;
/// - `Variant { field: u32, .. } = "name";` — events with integer payloads
///   (fields after a `+` ride in the variant but stay out of `fields()`).
///
/// Unit enums get `ALL` (declaration order, the array layout), `name()`
/// and, when a constant name follows the enum name, `NUM_* = ALL.len()`.
#[macro_export]
macro_rules! registry {
    ($(#[$m:meta])* pub enum $E:ident $(, $N:ident)? {
        $($(#[$vm:meta])* $V:ident = $name:literal, $help:literal;)*
    }) => {
        $crate::registry! {
            $(#[$m])* pub enum $E $(, $N)? { $(#[doc = $help] $(#[$vm])* $V = $name;)* }
        }
        impl $E {
            /// One-line human description, used as the Prometheus `# HELP` text.
            pub fn help(self) -> &'static str {
                match self { $(Self::$V => $help,)* }
            }
        }
    };
    ($(#[$m:meta])* pub enum $E:ident $(, $N:ident)? {
        $($(#[$vm:meta])* $V:ident = $name:literal;)*
    }) => {
        $(#[$m])*
        pub enum $E { $($(#[$vm])* $V,)* }
        $(
            #[doc = concat!("Number of [`", stringify!($E), "`] variants.")]
            pub const $N: usize = $E::ALL.len();
        )?
        impl $E {
            /// Every variant, in declaration order (the array layout).
            pub const ALL: [$E; [$($name),*].len()] = [$(Self::$V),*];

            /// Stable snake_case name used in JSON, exposition and tables.
            pub fn name(self) -> &'static str {
                match self { $(Self::$V => $name,)* }
            }
        }
    };
    ($(#[$m:meta])* pub enum $E:ident {
        $($(#[$vm:meta])* $V:ident { $($f:ident: $t:ty),* } $(+ { $($xf:ident: $xt:ty),* })?
            = $name:literal;)*
    }) => {
        $(#[$m])*
        pub enum $E { $($(#[$vm])* $V { $($f: $t,)* $($($xf: $xt,)*)? },)* }
        impl $E {
            /// Stable snake_case name used in JSON and table output.
            pub fn name(self) -> &'static str {
                match self { $(Self::$V { .. } => $name,)* }
            }

            /// Variant payload as `(name, value)` pairs for serialization.
            pub(crate) fn fields(self) -> Vec<(&'static str, u64)> {
                match self {
                    $(Self::$V { $($f,)* .. } => vec![$((stringify!($f), u64::from($f))),*],)*
                }
            }
        }
    };
}

registry! {
    /// Monotone counters, one slot per variant, held in a fixed array inside
    /// [`Recorder`]. Grouped by the layer that increments them; a variant's
    /// documentation is its help text.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    #[repr(usize)]
    pub enum CounterId, NUM_COUNTERS {
        // -- core::conn: the paper's M1-M4 mechanisms --------------------------
        M1Reinjections = "m1_reinjections", "M1 opportunistic reinjections onto another subflow";
        M2Penalizations = "m2_penalizations", "M2 slow-subflow cwnd penalizations";
        M3BufferGrowths = "m3_buffer_growths", "M3 receive/send buffer autotune growth steps";
        M4CwndCaps = "m4_cwnd_caps", "M4 subflow cwnd caps applied to bound bufferbloat";
        // -- core::conn: data-level machinery ----------------------------------
        SchedulerPicks = "scheduler_picks", "segments handed to a subflow by the scheduler";
        /// (One per tick — an input batch, a timer, an application call —
        /// that had data to place and no eligible subflow with room; not
        /// one per `poll`. `netsim` calls a host only when something is
        /// due for it, so no tick comes from polling an idle host.)
        SchedulerStalls = "scheduler_stalls",
            "scheduler runs that found data waiting and every subflow blocked";
        SchedulerDefers = "scheduler_defers",
            "times the scheduler waited for a faster path (BLEST)";
        DataRtos = "data_rtos", "data-level retransmission timeouts";
        /// (`snd_una` unmoved for a whole data-level RTO.)
        DataAckStalls = "data_ack_stalls", "DATA_ACK-level progress stalls";
        DupDataBytes = "dup_data_bytes", "duplicate data bytes discarded by the receiver";
        // -- core::conn: fallback (§3.3.6) and handshake rejections -------------
        ChecksumFailures = "checksum_failures", "DSS checksum verification failures";
        /// (The cause is in the `fallback` event.)
        Fallbacks = "fallbacks", "connections that fell back to regular TCP";
        /// (Bad HMAC, unknown token, subflow limit, wrong state.)
        JoinsRejected = "joins_rejected", "MP_JOIN attempts rejected";
        SubflowResets = "subflow_resets", "subflows reset while the connection survived";
        // -- core::conn: path management (§3.2, §3.4) ----------------------------
        AddAddrsSent = "add_addrs_sent", "ADD_ADDR advertisements sent";
        AddAddrsReceived = "add_addrs_received", "ADD_ADDR advertisements received";
        RemoveAddrsSent = "remove_addrs_sent", "REMOVE_ADDR withdrawals sent";
        RemoveAddrsReceived = "remove_addrs_received", "REMOVE_ADDR withdrawals received";
        /// (The addr_id was never advertised and no subflow uses it.)
        RemoveAddrUnknown = "remove_addr_unknown",
            "REMOVE_ADDR withdrawals rejected for unknown addr_id";
        AddAddrRetransmits = "add_addr_retransmits",
            "ADD_ADDR advertisements retransmitted until echoed";
        PmSubflowsOpened = "pm_subflows_opened", "subflows opened by a path-manager decision";
        PmBackupPromotions = "pm_backup_promotions", "backup subflows promoted by the path manager";
        // -- core::conn: path-failure detection and recovery ---------------------
        /// (Consecutive RTOs, or no progress for a timeout.)
        PathSuspects = "path_suspects", "subflows demoted Active to Suspect";
        /// (In-flight data is reinjected elsewhere.)
        PathFailures = "path_failures", "subflows declared Failed";
        PathRecoveries = "path_recoveries", "subflows recovered back to Active";
        /// (All paths failed past the deadline, last subflow removed,
        /// FastClose...)
        ConnAborts = "conn_aborts", "connections aborted";
        // -- core::reorder -------------------------------------------------------
        ReorderInserts = "reorder_inserts", "segments inserted into the out-of-order queue";
        ReorderOps = "reorder_ops", "pointer visits performed by the reorder algorithm";
        /// (Shortcuts/AllShortcuts algorithms.)
        ReorderShortcutHits = "reorder_shortcut_hits", "reorder inserts satisfied by a shortcut";
        // -- tcpstack: per-subflow TCP internals --------------------------------
        TcpRtos = "tcp_rtos", "subflow TCP retransmission timer fires";
        TcpFastRetransmits = "tcp_fast_retransmits", "subflow TCP fast retransmits";
        TcpRetransmittedSegs = "tcp_retransmitted_segs", "subflow TCP segments retransmitted";
        TcpZeroWindowProbes = "tcp_zero_window_probes", "subflow TCP zero-window probes sent";
        // -- netsim / middlebox --------------------------------------------------
        LinkQueueDrops = "link_queue_drops", "packets dropped by a full simulated link queue";
        LinkRandomDrops = "link_random_drops", "packets dropped by configured random loss";
        MboxOptionStrips = "mbox_option_strips", "TCP options removed by a middlebox";
        /// (E.g. ALG "fixups".)
        MboxPayloadMutations = "mbox_payload_mutations", "payload bytes rewritten by a middlebox";
        MboxResegmentations = "mbox_resegmentations", "segments split or coalesced by a middlebox";
        MboxProactiveAcks = "mbox_proactive_acks",
            "ACKs manufactured by a proactive-ACKing middlebox";
        MboxSeqRewrites = "mbox_seq_rewrites", "sequence numbers rewritten by a middlebox";
        /// (Hole droppers, option-sensitive SYN droppers.)
        MboxSegmentDrops = "mbox_segment_drops", "segments swallowed outright by a middlebox";
        FaultsInjected = "faults_injected", "scheduled fault events applied by the simulator";
        LinkFaultDrops = "link_fault_drops", "packets discarded by a fault-forced link outage";
        // -- runtime: real-I/O event loop (crates/runtime) -----------------------
        RtLoopIterations = "rt_loop_iterations", "event-loop iterations executed";
        /// (One batch of recv syscalls.)
        RtRecvBatches = "rt_recv_batches", "recv-drain rounds that harvested at least one datagram";
        /// (One batch of send syscalls.)
        RtSendBatches = "rt_send_batches", "egress-flush rounds that pushed at least one datagram";
        RtDatagramsRx = "rt_datagrams_rx", "UDP datagrams received and decoded";
        RtDatagramsTx = "rt_datagrams_tx", "UDP datagrams handed to the kernel";
        RtRecvCalls = "rt_recv_calls", "recvmsg calls on path sockets, empty reads included";
        RtSendCalls = "rt_send_calls", "sendmsg calls on path sockets, each one run of datagrams";
        RtDecodeErrors = "rt_decode_errors",
            "inbound datagrams rejected by framing or checksum checks";
        /// (Backpressure: the connection's bounded egress queue.)
        RtEgressBackpressure = "rt_egress_backpressure",
            "polls skipped because the egress queue was full";
        /// (Wall-clock jitter; the skew is in the `rt_tick_skew_ns` gauge.)
        RtLateTicks = "rt_late_ticks", "timer deadlines processed after they expired";
        RtPoolHits = "rt_pool_hits", "buffer-pool checkouts satisfied by a recycled buffer";
        /// (Pool cold, or every pooled buffer still pinned by a live view.)
        RtPoolMisses = "rt_pool_misses", "buffer-pool checkouts that allocated a fresh buffer";
        /// (Stat protocol lines + HTTP scrapes.)
        RtAdminRequests = "rt_admin_requests", "admin-socket commands served";
    }
}

registry! {
    /// Instantaneous values tracked with a high-water mark; a variant's
    /// documentation is its help text.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    #[repr(usize)]
    pub enum GaugeId, NUM_GAUGES {
        OfoQueueSegs = "ofo_queue_segs", "out-of-order queue depth in segments";
        OfoQueueBytes = "ofo_queue_bytes", "out-of-order queue occupancy in bytes";
        /// (M3 grows this.)
        SndBufCap = "snd_buf_cap", "connection-level send buffer capacity in bytes";
        /// (M3 grows this.)
        RcvBufCap = "rcv_buf_cap", "connection-level receive buffer capacity in bytes";
        Subflows = "subflows", "established subflows";
        SendQueueBytes = "send_queue_bytes", "bytes queued awaiting scheduling";
        /// (`max` is the high-water mark the backpressure bound was sized
        /// against.)
        RtEgressQueueDepth = "rt_egress_queue_depth", "runtime egress queue depth in segments";
        /// (`max` is the worst skew observed; see the `rt_late_ticks` counter.)
        RtTickSkewNs = "rt_tick_skew_ns", "lateness of the most recent timer tick in nanoseconds";
        RtPoolOutstanding = "rt_pool_outstanding", "buffer-pool buffers currently checked out";
        /// (The pool's own atomically tracked high-water mark, exact even
        /// between sync points.)
        RtPoolHighWater = "rt_pool_high_water", "buffer-pool peak working set";
    }
}

/// Current value plus high-water mark for one gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Most recently set value.
    pub current: u64,
    /// Largest value ever set.
    pub max: u64,
}

registry! {
    /// Why a connection abandoned MPTCP signalling and fell back to plain TCP
    /// (paper §3.3.6), or refused to start it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum FallbackCause {
        /// A DSS checksum failed: a middlebox rewrote the payload under us.
        ChecksumFail = "checksum_fail";
        /// MPTCP options were stripped by a middlebox (SYN or data path).
        OptionStripped = "option_stripped";
        /// The data-level RTO fired with the mapping never confirmed; the
        /// path is presumed MPTCP-hostile.
        DataRtoUnconfirmed = "data_rto_unconfirmed";
        /// The peer sent MP_FAIL.
        MpFail = "mp_fail";
    }
}

registry! {
    /// One recorded occurrence. The numeric payloads are variant-specific and
    /// documented per variant; keeping them as plain integers keeps `Event`
    /// `Copy` and the ring allocation-free.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum EventKind {
        /// M1: `dsn` re-injected from subflow `from` onto subflow `to`.
        M1Reinject { dsn: u64, from: u32, to: u32 } = "m1_reinject";
        /// M2: subflow `subflow` penalized, cwnd `before` -> `after` bytes.
        M2Penalize { subflow: u32, before: u32, after: u32 } = "m2_penalize";
        /// M3: buffers grown to `snd_cap`/`rcv_cap` bytes.
        M3Grow { snd_cap: u64, rcv_cap: u64 } = "m3_grow";
        /// M4: subflow `subflow` cwnd capped at `cap` bytes.
        M4Cap { subflow: u32, cap: u32 } = "m4_cap";
        /// Fell back to regular TCP.
        Fallback {} + { cause: FallbackCause } = "fallback";
        /// DSS checksum failed on subflow `subflow` covering `dsn`.
        ChecksumFail { subflow: u32, dsn: u64 } = "checksum_fail";
        /// Data-level RTO fired; `dsn` is the oldest unacked mapping.
        DataRto { dsn: u64 } = "data_rto";
        /// DATA_ACK progress stalled at `dsn` for `stalled_ns`.
        DataAckStall { dsn: u64, stalled_ns: u64 } = "data_ack_stall";
        /// MP_JOIN rejected (see `JoinsRejected`); `token` is the peer's.
        JoinRejected { token: u32 } = "join_rejected";
        /// Subflow `subflow` reset while the connection survived.
        SubflowReset { subflow: u32 } = "subflow_reset";
        /// Reorder queue reached a new high-water mark of `segs`/`bytes`.
        ReorderHighWater { segs: u64, bytes: u64 } = "reorder_high_water";
        /// Subflow-level RTO on subflow `subflow`, `backoff` doublings deep.
        TcpRto { subflow: u32, backoff: u32 } = "tcp_rto";
        /// Subflow-level fast retransmit of `seq` on subflow `subflow`.
        TcpFastRetransmit { subflow: u32, seq: u32 } = "tcp_fast_retransmit";
        /// ADD_ADDR: address `addr` with identifier `id` advertised.
        /// `sent` is 1 when we advertised, 0 when the peer did.
        AddAddr { addr: u32, id: u32, sent: u32 } = "add_addr";
        /// REMOVE_ADDR: address identifier `id` withdrawn.
        /// `sent` is 1 when we withdrew, 0 when the peer did.
        RemoveAddr { id: u32, sent: u32 } = "remove_addr";
        /// REMOVE_ADDR for an unknown address identifier `id` was rejected.
        RemoveAddrUnknown { id: u32 } = "remove_addr_unknown";
        /// The path manager opened a subflow `local` -> `remote`
        /// (`backup` is 1 for backup-priority joins).
        PmOpenSubflow { local: u32, remote: u32, backup: u32 } = "pm_open_subflow";
        /// The path manager advertised local address `addr` as `id`.
        PmAdvertise { addr: u32, id: u32 } = "pm_advertise";
        /// The path manager promoted backup subflow `subflow` to regular
        /// priority (MP_PRIO sent to the peer).
        PmBackupPromoted { subflow: u32 } = "pm_backup_promoted";
        /// The scheduler entered a stall: work was queued but no subflow had
        /// cwnd or send-buffer headroom. Recorded on the transition only.
        SchedulerStall { pending_bytes: u64, reinject_queued: u64 } = "scheduler_stall";
        /// Subflow `subflow` demoted Active -> Suspect after `rtos` consecutive
        /// RTOs (or a no-progress timeout when `rtos` is 0).
        PathSuspect { subflow: u32, rtos: u32 } = "path_suspect";
        /// Subflow `subflow` declared Failed; `reinjected` in-flight DSN chunks
        /// were queued for delivery on surviving subflows.
        PathFailed { subflow: u32, reinjected: u64 } = "path_failed";
        /// Subflow `subflow` resumed DATA_ACK progress and returned to Active.
        PathRecovered { subflow: u32 } = "path_recovered";
        /// The fault schedule took simulator path `path` down (blackout or
        /// silent blackhole).
        BlackoutInjected { path: u32 } = "blackout_injected";
        /// The connection aborted; `code` is the `AbortReason` discriminant
        /// (0 = all paths failed, 1 = last subflow removed, 2 = peer FastClose).
        ConnAborted { code: u32 } = "conn_aborted";
    }
}

impl EventKind {
    /// The counter one occurrence bumps, if the kind has one of its own.
    /// The counter-less kinds are high-water marks (`ReorderHighWater`),
    /// decisions whose outcome is counted separately (`PmOpenSubflow`
    /// counts only subflows that did open, `PmAdvertise` is a first send
    /// or a retransmit) and transition markers of something counted per
    /// occurrence (`SchedulerStall`, `BlackoutInjected`).
    pub fn counter(self) -> Option<CounterId> {
        use CounterId as C;
        Some(match self {
            Self::M1Reinject { .. } => C::M1Reinjections,
            Self::M2Penalize { .. } => C::M2Penalizations,
            Self::M3Grow { .. } => C::M3BufferGrowths,
            Self::M4Cap { .. } => C::M4CwndCaps,
            Self::Fallback { .. } => C::Fallbacks,
            Self::ChecksumFail { .. } => C::ChecksumFailures,
            Self::DataRto { .. } => C::DataRtos,
            Self::DataAckStall { .. } => C::DataAckStalls,
            Self::JoinRejected { .. } => C::JoinsRejected,
            Self::SubflowReset { .. } => C::SubflowResets,
            Self::TcpRto { .. } => C::TcpRtos,
            Self::TcpFastRetransmit { .. } => C::TcpFastRetransmits,
            Self::AddAddr { sent: 0, .. } => C::AddAddrsReceived,
            Self::AddAddr { .. } => C::AddAddrsSent,
            Self::RemoveAddr { sent: 0, .. } => C::RemoveAddrsReceived,
            Self::RemoveAddr { .. } => C::RemoveAddrsSent,
            Self::RemoveAddrUnknown { .. } => C::RemoveAddrUnknown,
            Self::PmBackupPromoted { .. } => C::PmBackupPromotions,
            Self::PathSuspect { .. } => C::PathSuspects,
            Self::PathFailed { .. } => C::PathFailures,
            Self::PathRecovered { .. } => C::PathRecoveries,
            Self::ConnAborted { .. } => C::ConnAborts,
            Self::ReorderHighWater { .. }
            | Self::PmOpenSubflow { .. }
            | Self::PmAdvertise { .. }
            | Self::SchedulerStall { .. }
            | Self::BlackoutInjected { .. } => return None,
        })
    }

    /// The subflow series a span of this kind interrupts: the subflow the
    /// payload names (for M1, the one the chunk was stuck on), or
    /// [`SPAN_CONN_LEVEL`].
    pub fn series(self) -> u32 {
        match self {
            Self::M1Reinject { from: subflow, .. }
            | Self::M2Penalize { subflow, .. }
            | Self::M4Cap { subflow, .. }
            | Self::ChecksumFail { subflow, .. }
            | Self::SubflowReset { subflow }
            | Self::TcpRto { subflow, .. }
            | Self::TcpFastRetransmit { subflow, .. }
            | Self::PmBackupPromoted { subflow }
            | Self::PathSuspect { subflow, .. }
            | Self::PathFailed { subflow, .. }
            | Self::PathRecovered { subflow } => subflow,
            _ => SPAN_CONN_LEVEL,
        }
    }

    /// Write the payload members of an event or span object: the fallback
    /// cause by name, everything else as integers in declaration order.
    pub(crate) fn write_payload(self, w: &mut json::Writer) {
        if let EventKind::Fallback { cause } = self {
            w.key("cause").string(cause.name());
        }
        for (name, value) in self.fields() {
            w.key(name).raw(value);
        }
    }
}

/// A timestamped [`EventKind`]. `at_ns` is simulated-clock nanoseconds
/// supplied by the caller; this crate never reads a real clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated time the event was recorded, in nanoseconds.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Default event-ring capacity for a [`Recorder`].
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Accumulates telemetry for one component (a connection, a TCP socket, a
/// simulated link...). Recording is plain field arithmetic — no locking,
/// no allocation beyond the bounded rings.
#[derive(Clone, Debug)]
pub struct Recorder {
    counters: [u64; NUM_COUNTERS],
    gauges: [Gauge; NUM_GAUGES],
    ring: Ring<Event>,
    /// Time-series records; capacity 0 (tracing off) unless configured.
    trace: Ring<TraceRecord>,
    sample_interval_ns: u64,
    next_sample_at_ns: u64,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default event capacity and tracing off.
    pub fn new() -> Recorder {
        Recorder::traced(DEFAULT_EVENT_CAPACITY, TraceConfig::disabled())
    }

    /// A recorder retaining at most `event_capacity` events (min 1) whose
    /// trace ring honors `trace`.
    pub fn traced(event_capacity: usize, trace: TraceConfig) -> Recorder {
        Recorder {
            counters: [0; NUM_COUNTERS],
            gauges: [Gauge::default(); NUM_GAUGES],
            ring: Ring::new(event_capacity.max(1)),
            trace: Ring::new(if trace.enabled { trace.capacity } else { 0 }),
            sample_interval_ns: trace.sample_interval_ns.max(1),
            next_sample_at_ns: 0,
        }
    }

    /// Report one happening at sim-time `at_ns`: bump the counter the kind
    /// maps to, keep it in the event ring and, when tracing is on, mark it
    /// as a span on the series it interrupts. Array arithmetic and ring
    /// stores only — nothing is allocated or formatted here.
    pub fn note(&mut self, at_ns: u64, kind: EventKind) {
        if let Some(id) = kind.counter() {
            self.count(id);
        }
        // A window-limited transfer stalls thousands of times: in a 256-slot
        // ring that would evict every M1/M2/fallback event. The trace has room.
        if !matches!(kind, EventKind::SchedulerStall { .. }) {
            self.event(at_ns, kind);
        }
        // A `DataAckStall` only ever accompanies the `DataRto` span of the
        // same instant and DSN; it gets no span of its own.
        if !matches!(kind, EventKind::DataAckStall { .. }) {
            self.trace.push(TraceRecord::Span {
                at_ns,
                subflow: kind.series(),
                kind,
            });
        }
    }

    /// Increment `id` by one (for counts that are not events: scheduler
    /// picks, retransmitted segments...).
    pub fn count(&mut self, id: CounterId) {
        self.counters[id as usize] += 1;
    }

    /// Increment `id` by `n`.
    pub fn count_n(&mut self, id: CounterId, n: u64) {
        self.counters[id as usize] += n;
    }

    /// Current value of counter `id`.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// Set gauge `id`, updating its high-water mark.
    pub fn gauge_set(&mut self, id: GaugeId, value: u64) {
        let g = &mut self.gauges[id as usize];
        g.current = value;
        g.max = g.max.max(value);
    }

    /// Current state of gauge `id`.
    pub fn gauge(&self, id: GaugeId) -> Gauge {
        self.gauges[id as usize]
    }

    /// Store an event in the ring and nothing else. Layers report through
    /// [`Recorder::note`]; this is its ring half.
    pub fn event(&mut self, at_ns: u64, kind: EventKind) {
        self.ring.push(Event { at_ns, kind });
    }

    /// Is the trace ring recording? Callers gate the gathering of a
    /// sample's fields behind this.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace.is_enabled()
    }

    /// Interval gate for periodic samples: true at most once per
    /// configured interval, advancing the deadline. Always false when
    /// tracing is off.
    #[inline]
    pub fn sample_due(&mut self, now_ns: u64) -> bool {
        if !self.tracing() || now_ns < self.next_sample_at_ns {
            return false;
        }
        self.next_sample_at_ns = now_ns + self.sample_interval_ns;
        true
    }

    /// Store a sample record in the trace ring (one branch and nothing
    /// else when tracing is off).
    #[inline]
    pub fn sample(&mut self, rec: TraceRecord) {
        self.trace.push(rec);
    }

    /// An immutable copy of the trace ring and its bookkeeping.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        TraceSnapshot {
            records: self.trace.iter().copied().collect(),
            total: self.trace.total(),
            dropped_samples: self.trace.dropped(),
        }
    }

    /// Fold another recorder's counters, gauges and events into this one:
    /// counters add, gauge maxima merge (currents take the other's as more
    /// recent), and the event rings merge in time order, keeping the
    /// newest this ring has room for with `events_total`/`events_dropped`
    /// exact (see [`Ring::absorb`]). Used by the connection to absorb
    /// per-subflow socket telemetry.
    pub fn absorb(&mut self, other: &Recorder) {
        for i in 0..NUM_COUNTERS {
            self.counters[i] += other.counters[i];
        }
        for i in 0..NUM_GAUGES {
            self.gauges[i].max = self.gauges[i].max.max(other.gauges[i].max);
            self.gauges[i].current = other.gauges[i].current;
        }
        self.ring.absorb(&other.ring, |e| e.at_ns);
    }

    /// An immutable copy of the counters, gauges and event ring.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self.counters,
            gauges: self.gauges,
            events: self.ring.iter().copied().collect(),
            events_total: self.ring.total(),
            events_dropped: self.ring.dropped(),
        }
    }
}

/// Immutable copy of a [`Recorder`]'s state, suitable for embedding in
/// stats structs and report output.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySnapshot {
    counters: [u64; NUM_COUNTERS],
    gauges: [Gauge; NUM_GAUGES],
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events ever recorded, including those evicted from the ring.
    pub events_total: u64,
    /// Events evicted from the ring before this snapshot.
    pub events_dropped: u64,
}

// Manual impl: derived `Default` stops at 32-element arrays.
impl Default for TelemetrySnapshot {
    fn default() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: [0; NUM_COUNTERS],
            gauges: [Gauge::default(); NUM_GAUGES],
            events: Vec::new(),
            events_total: 0,
            events_dropped: 0,
        }
    }
}

impl TelemetrySnapshot {
    /// Value of counter `id`.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// State of gauge `id`.
    pub fn gauge(&self, id: GaugeId) -> Gauge {
        self.gauges[id as usize]
    }

    /// Causes of recorded fallbacks, oldest first (from retained events).
    pub fn fallback_causes(&self) -> Vec<FallbackCause> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Fallback { cause } => Some(cause),
                _ => None,
            })
            .collect()
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.events_total == 0
            && self.counters.iter().all(|&c| c == 0)
            && self.gauges.iter().all(|g| g.max == 0)
    }

    /// Render as a JSON object. Zero counters and untouched gauges are
    /// skipped to keep harness reports readable; events carry their
    /// variant name, sim-time, and payload fields.
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// [`TelemetrySnapshot::to_json`] as a value inside a larger document.
    pub fn write_json(&self, w: &mut json::Writer) {
        w.begin_object().key("counters").begin_object();
        for id in CounterId::ALL {
            let v = self.counter(id);
            if v != 0 {
                w.key(id.name()).raw(v);
            }
        }
        w.end_object().key("gauges").begin_object();
        for id in GaugeId::ALL {
            let g = self.gauge(id);
            if g.max != 0 {
                w.key(id.name()).begin_object();
                w.key("current").raw(g.current).key("max").raw(g.max);
                w.end_object();
            }
        }
        w.end_object();
        w.key("events_total").raw(self.events_total);
        w.key("events_dropped").raw(self.events_dropped);
        w.key("events").begin_array();
        for ev in &self.events {
            w.begin_object().key("at_ns").raw(ev.at_ns);
            w.key("kind").string(ev.kind.name());
            ev.kind.write_payload(w);
            w.end_object();
        }
        w.end_array().end_object();
    }

    /// Render nonzero counters and touched gauges as an aligned two-column
    /// text table, one line per entry, for terminal summaries.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for id in CounterId::ALL {
            let v = self.counter(id);
            if v != 0 {
                rows.push((id.name().to_string(), v.to_string()));
            }
        }
        for id in GaugeId::ALL {
            let g = self.gauge(id);
            if g.max != 0 {
                rows.push((format!("{} (max)", id.name()), g.max.to_string()));
            }
        }
        let causes = self.fallback_causes();
        if !causes.is_empty() {
            let list: Vec<&str> = causes.iter().map(|c| c.name()).collect();
            rows.push(("fallback_causes".to_string(), list.join(",")));
        }
        if self.events_dropped != 0 {
            rows.push((
                "events_dropped".to_string(),
                self.events_dropped.to_string(),
            ));
        }
        if rows.is_empty() {
            return "  (no telemetry recorded)\n".to_string();
        }
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("  {k:<width$}  {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Recorder::new();
        r.count(CounterId::M1Reinjections);
        r.count_n(CounterId::M1Reinjections, 2);
        r.count(CounterId::TcpRtos);
        let s = r.snapshot();
        assert_eq!(s.counter(CounterId::M1Reinjections), 3);
        assert_eq!(s.counter(CounterId::TcpRtos), 1);
        assert_eq!(s.counter(CounterId::M2Penalizations), 0);
    }

    #[test]
    fn gauges_track_high_water() {
        let mut r = Recorder::new();
        r.gauge_set(GaugeId::OfoQueueSegs, 5);
        r.gauge_set(GaugeId::OfoQueueSegs, 12);
        r.gauge_set(GaugeId::OfoQueueSegs, 3);
        let g = r.snapshot().gauge(GaugeId::OfoQueueSegs);
        assert_eq!(g.current, 3);
        assert_eq!(g.max, 12);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut r = Recorder::traced(3, TraceConfig::disabled());
        for i in 0..5u64 {
            r.event(i, EventKind::DataRto { dsn: i });
        }
        let s = r.snapshot();
        assert_eq!(s.events_total, 5);
        assert_eq!(s.events_dropped, 2);
        let times: Vec<u64> = s.events.iter().map(|e| e.at_ns).collect();
        assert_eq!(times, vec![2, 3, 4]);
    }

    #[test]
    fn absorb_merges_counters_gauges_events() {
        let mut a = Recorder::new();
        a.count(CounterId::TcpRtos);
        a.gauge_set(GaugeId::Subflows, 2);
        let mut b = Recorder::new();
        b.count_n(CounterId::TcpRtos, 4);
        b.gauge_set(GaugeId::Subflows, 7);
        b.event(
            9,
            EventKind::TcpRto {
                subflow: 1,
                backoff: 0,
            },
        );
        a.absorb(&b);
        let s = a.snapshot();
        assert_eq!(s.counter(CounterId::TcpRtos), 5);
        assert_eq!(s.gauge(GaugeId::Subflows).max, 7);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events_total, 1);
    }

    /// The bug this pins: a subflow whose ring is full of old events used
    /// to be replayed *after* the connection's, evicting a newer
    /// connection-level fallback.
    #[test]
    fn absorb_merges_by_time_and_keeps_the_newest() {
        let fallback = EventKind::Fallback {
            cause: FallbackCause::MpFail,
        };
        let mut conn = Recorder::new();
        conn.note(1_000, fallback);
        let mut sock = Recorder::new();
        for i in 0..300u64 {
            sock.note(
                i,
                EventKind::TcpFastRetransmit {
                    subflow: 1,
                    seq: i as u32,
                },
            );
        }
        conn.absorb(&sock);
        let s = conn.snapshot();
        assert_eq!(s.fallback_causes(), vec![FallbackCause::MpFail]);
        assert!(s.events.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(s.events.len(), DEFAULT_EVENT_CAPACITY);
        assert_eq!(s.events.last().map(|e| e.kind), Some(fallback));
        assert_eq!((s.events_total, s.events_dropped), (301, 45));
        assert_eq!(s.counter(CounterId::TcpFastRetransmits), 300);
    }

    #[test]
    fn note_bumps_the_counter_and_feeds_both_rings() {
        let mut r = Recorder::traced(8, TraceConfig::enabled());
        let m1 = EventKind::M1Reinject {
            dsn: 7,
            from: 1,
            to: 0,
        };
        r.note(5, m1);
        r.note(6, EventKind::DataRto { dsn: 7 });
        // Ring-only: no span of its own.
        r.note(
            6,
            EventKind::DataAckStall {
                dsn: 7,
                stalled_ns: 9,
            },
        );
        // Trace-only, and it has no counter.
        r.note(
            7,
            EventKind::SchedulerStall {
                pending_bytes: 1,
                reinject_queued: 0,
            },
        );
        let s = r.snapshot();
        assert_eq!(s.counter(CounterId::M1Reinjections), 1);
        assert_eq!(s.counter(CounterId::DataRtos), 1);
        assert_eq!(s.counter(CounterId::DataAckStalls), 1);
        assert_eq!(s.counter(CounterId::SchedulerStalls), 0);
        let ring: Vec<&str> = s.events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(ring, ["m1_reinject", "data_rto", "data_ack_stall"]);
        let spans: Vec<(u64, u32, &str)> = r
            .trace_snapshot()
            .spans()
            .map(|(at, sf, k)| (at, sf, k.name()))
            .collect();
        assert_eq!(
            spans,
            [
                (5, 1, "m1_reinject"),
                (6, SPAN_CONN_LEVEL, "data_rto"),
                (7, SPAN_CONN_LEVEL, "scheduler_stall"),
            ]
        );
        // Tracing off: same counters and ring, no trace.
        let mut off = Recorder::new();
        off.note(5, m1);
        assert!(!off.tracing());
        assert!(off.trace_snapshot().is_empty());
        assert_eq!(off.snapshot().events.len(), 1);
    }

    #[test]
    fn fallback_causes_extracted() {
        let mut r = Recorder::new();
        r.count(CounterId::Fallbacks);
        r.event(
            100,
            EventKind::Fallback {
                cause: FallbackCause::ChecksumFail,
            },
        );
        let s = r.snapshot();
        assert_eq!(s.fallback_causes(), vec![FallbackCause::ChecksumFail]);
    }

    #[test]
    fn json_skips_zeros_and_names_events() {
        let mut r = Recorder::new();
        r.count(CounterId::M2Penalizations);
        r.event(
            7,
            EventKind::M2Penalize {
                subflow: 1,
                before: 20,
                after: 10,
            },
        );
        let j = r.snapshot().to_json();
        assert!(j.contains("\"m2_penalizations\":1"));
        assert!(!j.contains("m1_reinjections"));
        assert!(j.contains("\"kind\":\"m2_penalize\""));
        assert!(j.contains("\"before\":20"));
        assert!(j.contains("\"at_ns\":7"));
    }

    #[test]
    fn table_renders_nonzero_rows() {
        let mut r = Recorder::new();
        r.count_n(CounterId::ReorderInserts, 42);
        r.gauge_set(GaugeId::OfoQueueBytes, 9000);
        let t = r.snapshot().render_table();
        assert!(t.contains("reorder_inserts"));
        assert!(t.contains("42"));
        assert!(t.contains("ofo_queue_bytes (max)"));
        assert!(!t.contains("tcp_rtos"));
    }

    #[test]
    fn empty_snapshot_is_empty() {
        assert!(Recorder::new().snapshot().is_empty());
        let mut r = Recorder::new();
        r.gauge_set(GaugeId::RcvBufCap, 1);
        assert!(!r.snapshot().is_empty());
    }
}
