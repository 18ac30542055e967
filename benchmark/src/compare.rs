//! `benchmark compare A.json B.json`: the regression rule, applied to two
//! results files row by row, and `benchmark ladder`, the layer table the
//! README quotes.

use crate::json::Json;
use crate::metrics::{workload_names, Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, relative_spread};
use crate::suite::values;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the bound cannot
    /// be checked: neither "unchanged" nor "regressed" would be honest.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A for one metric on one workload.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let spread = [a, b]
        .into_iter()
        .filter_map(relative_spread)
        .fold(0.0, f64::max);
    if spread > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn quartile_text(v: &[f64]) -> String {
    match quartiles(v) {
        Some([q1, _, q3]) => format!("[{q1:.4} .. {q3:.4}]"),
        None => "[n<2]".to_string(),
    }
}

/// Counts that repeat exactly on workloads whose clock is virtual or
/// simulated: two runs of one commit on one seed must agree on them.
const EXACT_WORKLOADS: &[&str] = &["mem_bulk", "sim_wifi3g", "sim_http"];
const EXACT_COUNTS: &[&str] = &[
    "mptcp.segs_per_mib",
    "mptcp.sched_picks",
    "mptcp.sched_stall_ratio",
    "mptcp.m1_reinjections",
    "mptcp.m2_penalizations",
    "mptcp.reinjected_byte_ratio",
    "mptcp.sim_goodput_mbps",
    "tcpstack.retransmitted_segs",
    "tcpstack.rtos",
    "tcpstack.fast_retransmits",
    "netsim.queue_drops",
    "netsim.random_drops",
    "harness.http_requests",
];

/// Print one row per (metric, workload); `Ok(true)` when nothing
/// regressed and every exact count agreed.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let mut clean = true;
    println!(
        "{:<12} {:<16} {:>14} {:>24} {:>14} {:>24} {:>6}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "bound"
    );
    for workload in workload_names() {
        for m in END_TO_END {
            let (va, vb) = (
                values(a, workload, false, m.name),
                values(b, workload, false, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload}/{}: missing from a results file",
                    m.name
                ));
            }
            let verdict = judge(&va, &vb, m.better, m.bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<12} {:<16} {:>14.4} {:>24} {:>14.4} {:>24} {:>6.2}  {}",
                workload,
                m.name,
                median(&va),
                quartile_text(&va),
                median(&vb),
                quartile_text(&vb),
                m.bound,
                verdict.as_str()
            );
        }
    }
    for workload in EXACT_WORKLOADS {
        for name in EXACT_COUNTS {
            debug_assert!(PER_LAYER.iter().any(|m| m.name == *name));
            let (va, vb) = (
                values(a, workload, true, name),
                values(b, workload, true, name),
            );
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let same = va == vb;
            clean &= same;
            println!(
                "{:<12} {:<32} {}",
                workload,
                name,
                if same { "exact" } else { "differs" }
            );
        }
    }
    Ok(clean)
}

/// The layer ladder as a markdown table: each rung's goodput and its
/// ratio to the rung below, from a results file with traced runs.
pub fn ladder(doc: &Json) -> Result<String, String> {
    let probe = |metric: &str| {
        let v = values(doc, "mem_bulk", true, metric);
        (!v.is_empty())
            .then(|| median(&v))
            .ok_or_else(|| format!("results file has no traced mem_bulk run with {metric}"))
    };
    let e2e = |workload: &str| {
        let v = values(doc, workload, false, "goodput_mbps");
        (!v.is_empty())
            .then(|| median(&v))
            .ok_or_else(|| format!("results file has no untraced {workload} run"))
    };
    let rungs = [
        (
            "`packet` checksum, 1460 B (`packet.checksum_gbps`)",
            probe("packet.checksum_gbps")? * 8000.0,
        ),
        (
            "`tcpstack` pair over the pipe (`tcpstack.pair_goodput_mbps`)",
            probe("tcpstack.pair_goodput_mbps")?,
        ),
        ("`mem_bulk` (MPTCP pair over the pipe)", e2e("mem_bulk")?),
        (
            "`wire_bulk` (loopback UDP, default configs)",
            e2e("wire_bulk")?,
        ),
    ];
    let mut out = String::from("| rung | Mbit/s | rung above ÷ this rung |\n|---|---:|---:|\n");
    for (i, (name, mbps)) in rungs.iter().enumerate() {
        let above = if i == 0 {
            "—".to_string()
        } else {
            format!("{:.1}", rungs[i - 1].1 / mbps)
        };
        out.push_str(&format!("| {name} | {mbps:.0} | {above} |\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_beyond_the_bound_is_a_regression_in_either_direction() {
        let a = [100.0, 101.0, 99.0, 100.0];
        let slower = [88.0, 89.0, 87.0, 88.0];
        assert_eq!(judge(&a, &slower, Better::Higher, 0.10), Verdict::Regressed);
        assert_eq!(judge(&a, &slower, Better::Lower, 0.10), Verdict::Ok);
        let a_bit_slower = [95.0, 96.0, 94.0, 95.0];
        assert_eq!(judge(&a, &a_bit_slower, Better::Higher, 0.10), Verdict::Ok);
        let larger = [112.0, 113.0, 111.0, 112.0];
        assert_eq!(judge(&a, &larger, Better::Lower, 0.10), Verdict::Regressed);
        assert_eq!(judge(&a, &larger, Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let steady = [100.0, 100.5, 99.5, 100.0, 100.2];
        assert_eq!(
            judge(&noisy, &steady, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&steady, &noisy, Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // A single run per side has no spread to object to.
        assert_eq!(
            judge(&[100.0], &[80.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
    }
}
