//! Golden pins for the metric registry. The `name()` strings are the
//! contract of `/metrics`, report JSON and the benchmark's counters, and
//! `ALL`'s order is the `Recorder` array layout, so both are pinned here
//! in full rather than spot-checked.

use std::collections::HashSet;

use mptcp_telemetry::{
    CounterId, EventKind, FallbackCause, GaugeId, Recorder, NUM_COUNTERS, NUM_GAUGES,
};

const COUNTER_NAMES: [&str; 56] = [
    "m1_reinjections",
    "m2_penalizations",
    "m3_buffer_growths",
    "m4_cwnd_caps",
    "scheduler_picks",
    "scheduler_stalls",
    "scheduler_defers",
    "data_rtos",
    "data_ack_stalls",
    "dup_data_bytes",
    "checksum_failures",
    "fallbacks",
    "joins_rejected",
    "subflow_resets",
    "add_addrs_sent",
    "add_addrs_received",
    "remove_addrs_sent",
    "remove_addrs_received",
    "remove_addr_unknown",
    "add_addr_retransmits",
    "pm_subflows_opened",
    "pm_backup_promotions",
    "path_suspects",
    "path_failures",
    "path_recoveries",
    "conn_aborts",
    "reorder_inserts",
    "reorder_ops",
    "reorder_shortcut_hits",
    "tcp_rtos",
    "tcp_fast_retransmits",
    "tcp_retransmitted_segs",
    "tcp_zero_window_probes",
    "link_queue_drops",
    "link_random_drops",
    "mbox_option_strips",
    "mbox_payload_mutations",
    "mbox_resegmentations",
    "mbox_proactive_acks",
    "mbox_seq_rewrites",
    "mbox_segment_drops",
    "faults_injected",
    "link_fault_drops",
    "rt_loop_iterations",
    "rt_recv_batches",
    "rt_send_batches",
    "rt_datagrams_rx",
    "rt_datagrams_tx",
    "rt_recv_calls",
    "rt_send_calls",
    "rt_decode_errors",
    "rt_egress_backpressure",
    "rt_late_ticks",
    "rt_pool_hits",
    "rt_pool_misses",
    "rt_admin_requests",
];

const GAUGE_NAMES: [&str; 10] = [
    "ofo_queue_segs",
    "ofo_queue_bytes",
    "snd_buf_cap",
    "rcv_buf_cap",
    "subflows",
    "send_queue_bytes",
    "rt_egress_queue_depth",
    "rt_tick_skew_ns",
    "rt_pool_outstanding",
    "rt_pool_high_water",
];

fn assert_unique(names: &[&str]) {
    let set: HashSet<&str> = names.iter().copied().collect();
    assert_eq!(set.len(), names.len(), "duplicate name in {names:?}");
}

#[test]
fn counter_registry_is_pinned() {
    assert_eq!(NUM_COUNTERS, CounterId::ALL.len());
    for (i, id) in CounterId::ALL.iter().enumerate() {
        assert_eq!(*id as usize, i, "{id:?} out of layout order");
        assert!(!id.help().is_empty(), "{id:?} has no help text");
    }
    let names: Vec<&str> = CounterId::ALL.iter().map(|id| id.name()).collect();
    assert_eq!(names, COUNTER_NAMES);
    assert_unique(&names);
}

#[test]
fn gauge_registry_is_pinned() {
    assert_eq!(NUM_GAUGES, GaugeId::ALL.len());
    for (i, id) in GaugeId::ALL.iter().enumerate() {
        assert_eq!(*id as usize, i, "{id:?} out of layout order");
        assert!(!id.help().is_empty(), "{id:?} has no help text");
    }
    let names: Vec<&str> = GaugeId::ALL.iter().map(|id| id.name()).collect();
    assert_eq!(names, GAUGE_NAMES);
    assert_unique(&names);
}

#[test]
fn fallback_cause_names_are_pinned() {
    let names = [
        FallbackCause::ChecksumFail,
        FallbackCause::OptionStripped,
        FallbackCause::DataRtoUnconfirmed,
        FallbackCause::MpFail,
    ]
    .map(FallbackCause::name);
    assert_eq!(
        names,
        [
            "checksum_fail",
            "option_stripped",
            "data_rto_unconfirmed",
            "mp_fail",
        ]
    );
}

/// One instance of every `EventKind` variant, each field given a distinct
/// value so a swapped or dropped field shows in the rendered JSON.
fn every_event() -> [EventKind; 25] {
    use EventKind::*;
    [
        M1Reinject {
            dsn: 1,
            from: 2,
            to: 3,
        },
        M2Penalize {
            subflow: 4,
            before: 5,
            after: 6,
        },
        M3Grow {
            snd_cap: 7,
            rcv_cap: 8,
        },
        M4Cap {
            subflow: 9,
            cap: 10,
        },
        Fallback {
            cause: FallbackCause::MpFail,
        },
        ChecksumFail {
            subflow: 11,
            dsn: 12,
        },
        DataRto { dsn: 13 },
        DataAckStall {
            dsn: 14,
            stalled_ns: 15,
        },
        JoinRejected { token: 16 },
        SubflowReset { subflow: 17 },
        ReorderHighWater {
            segs: 18,
            bytes: 19,
        },
        TcpRto {
            subflow: 20,
            backoff: 21,
        },
        TcpFastRetransmit {
            subflow: 22,
            seq: 23,
        },
        AddAddr {
            addr: 24,
            id: 25,
            sent: 26,
        },
        RemoveAddr { id: 27, sent: 28 },
        RemoveAddrUnknown { id: 29 },
        PmOpenSubflow {
            local: 30,
            remote: 31,
            backup: 32,
        },
        PmAdvertise { addr: 33, id: 34 },
        PmBackupPromoted { subflow: 35 },
        SchedulerStall {
            pending_bytes: 36,
            reinject_queued: 37,
        },
        PathSuspect {
            subflow: 38,
            rtos: 39,
        },
        PathFailed {
            subflow: 40,
            reinjected: 41,
        },
        PathRecovered { subflow: 42 },
        BlackoutInjected { path: 43 },
        ConnAborted { code: 44 },
    ]
}

const EVENT_NAMES: [&str; 25] = [
    "m1_reinject",
    "m2_penalize",
    "m3_grow",
    "m4_cap",
    "fallback",
    "checksum_fail",
    "data_rto",
    "data_ack_stall",
    "join_rejected",
    "subflow_reset",
    "reorder_high_water",
    "tcp_rto",
    "tcp_fast_retransmit",
    "add_addr",
    "remove_addr",
    "remove_addr_unknown",
    "pm_open_subflow",
    "pm_advertise",
    "pm_backup_promoted",
    "scheduler_stall",
    "path_suspect",
    "path_failed",
    "path_recovered",
    "blackout_injected",
    "conn_aborted",
];

#[test]
fn event_names_are_pinned() {
    let names = every_event().map(EventKind::name);
    assert_eq!(names, EVENT_NAMES);
    assert_unique(&names);
}

/// The whole serializer at once: counters and gauges in registry order
/// with zeros skipped, then every event variant with its payload fields
/// in declaration order (`fallback` carries its cause by name and no
/// integer fields).
#[test]
fn snapshot_json_is_pinned() {
    let mut r = Recorder::new();
    r.count_n(CounterId::RtAdminRequests, 3);
    r.count(CounterId::M1Reinjections);
    r.count_n(CounterId::Fallbacks, 2);
    r.gauge_set(GaugeId::RtPoolHighWater, 9);
    r.gauge_set(GaugeId::OfoQueueSegs, 5);
    r.gauge_set(GaugeId::OfoQueueSegs, 4);
    for (i, kind) in every_event().into_iter().enumerate() {
        r.event(100 + i as u64, kind);
    }
    let expected = concat!(
        "{\"counters\":{\"m1_reinjections\":1,\"fallbacks\":2,\"rt_admin_requests\":3},",
        "\"gauges\":{\"ofo_queue_segs\":{\"current\":4,\"max\":5},",
        "\"rt_pool_high_water\":{\"current\":9,\"max\":9}},",
        "\"events_total\":25,\"events_dropped\":0,\"events\":[",
        "{\"at_ns\":100,\"kind\":\"m1_reinject\",\"dsn\":1,\"from\":2,\"to\":3},",
        "{\"at_ns\":101,\"kind\":\"m2_penalize\",\"subflow\":4,\"before\":5,\"after\":6},",
        "{\"at_ns\":102,\"kind\":\"m3_grow\",\"snd_cap\":7,\"rcv_cap\":8},",
        "{\"at_ns\":103,\"kind\":\"m4_cap\",\"subflow\":9,\"cap\":10},",
        "{\"at_ns\":104,\"kind\":\"fallback\",\"cause\":\"mp_fail\"},",
        "{\"at_ns\":105,\"kind\":\"checksum_fail\",\"subflow\":11,\"dsn\":12},",
        "{\"at_ns\":106,\"kind\":\"data_rto\",\"dsn\":13},",
        "{\"at_ns\":107,\"kind\":\"data_ack_stall\",\"dsn\":14,\"stalled_ns\":15},",
        "{\"at_ns\":108,\"kind\":\"join_rejected\",\"token\":16},",
        "{\"at_ns\":109,\"kind\":\"subflow_reset\",\"subflow\":17},",
        "{\"at_ns\":110,\"kind\":\"reorder_high_water\",\"segs\":18,\"bytes\":19},",
        "{\"at_ns\":111,\"kind\":\"tcp_rto\",\"subflow\":20,\"backoff\":21},",
        "{\"at_ns\":112,\"kind\":\"tcp_fast_retransmit\",\"subflow\":22,\"seq\":23},",
        "{\"at_ns\":113,\"kind\":\"add_addr\",\"addr\":24,\"id\":25,\"sent\":26},",
        "{\"at_ns\":114,\"kind\":\"remove_addr\",\"id\":27,\"sent\":28},",
        "{\"at_ns\":115,\"kind\":\"remove_addr_unknown\",\"id\":29},",
        "{\"at_ns\":116,\"kind\":\"pm_open_subflow\",\"local\":30,\"remote\":31,\"backup\":32},",
        "{\"at_ns\":117,\"kind\":\"pm_advertise\",\"addr\":33,\"id\":34},",
        "{\"at_ns\":118,\"kind\":\"pm_backup_promoted\",\"subflow\":35},",
        "{\"at_ns\":119,\"kind\":\"scheduler_stall\",\"pending_bytes\":36,\"reinject_queued\":37},",
        "{\"at_ns\":120,\"kind\":\"path_suspect\",\"subflow\":38,\"rtos\":39},",
        "{\"at_ns\":121,\"kind\":\"path_failed\",\"subflow\":40,\"reinjected\":41},",
        "{\"at_ns\":122,\"kind\":\"path_recovered\",\"subflow\":42},",
        "{\"at_ns\":123,\"kind\":\"blackout_injected\",\"path\":43},",
        "{\"at_ns\":124,\"kind\":\"conn_aborted\",\"code\":44}]}",
    );
    assert_eq!(r.snapshot().to_json(), expected);
}

/// The kind → counter table, whole: every `EventKind` either names the
/// counter one occurrence bumps or is listed here as counter-less.
#[test]
fn event_counter_table_is_pinned() {
    let table = every_event().map(|k| (k.name(), k.counter().map(CounterId::name)));
    assert_eq!(
        table,
        [
            ("m1_reinject", Some("m1_reinjections")),
            ("m2_penalize", Some("m2_penalizations")),
            ("m3_grow", Some("m3_buffer_growths")),
            ("m4_cap", Some("m4_cwnd_caps")),
            ("fallback", Some("fallbacks")),
            ("checksum_fail", Some("checksum_failures")),
            ("data_rto", Some("data_rtos")),
            ("data_ack_stall", Some("data_ack_stalls")),
            ("join_rejected", Some("joins_rejected")),
            ("subflow_reset", Some("subflow_resets")),
            ("reorder_high_water", None),
            ("tcp_rto", Some("tcp_rtos")),
            ("tcp_fast_retransmit", Some("tcp_fast_retransmits")),
            ("add_addr", Some("add_addrs_sent")),
            ("remove_addr", Some("remove_addrs_sent")),
            ("remove_addr_unknown", Some("remove_addr_unknown")),
            ("pm_open_subflow", None),
            ("pm_advertise", None),
            ("pm_backup_promoted", Some("pm_backup_promotions")),
            ("scheduler_stall", None),
            ("path_suspect", Some("path_suspects")),
            ("path_failed", Some("path_failures")),
            ("path_recovered", Some("path_recoveries")),
            ("blackout_injected", None),
            ("conn_aborted", Some("conn_aborts")),
        ]
    );
    // ADD_ADDR / REMOVE_ADDR pick their direction from the payload.
    let add = |sent| EventKind::AddAddr {
        addr: 1,
        id: 2,
        sent,
    };
    assert_eq!(add(1).counter(), Some(CounterId::AddAddrsSent));
    assert_eq!(add(0).counter(), Some(CounterId::AddAddrsReceived));
    let remove = |sent| EventKind::RemoveAddr { id: 2, sent };
    assert_eq!(remove(1).counter(), Some(CounterId::RemoveAddrsSent));
    assert_eq!(remove(0).counter(), Some(CounterId::RemoveAddrsReceived));
    // One `note` is the whole report: counter and ring together.
    let mut r = Recorder::new();
    r.note(9, add(0));
    let s = r.snapshot();
    assert_eq!(s.counter(CounterId::AddAddrsReceived), 1);
    assert_eq!(s.events.len(), 1);
}
