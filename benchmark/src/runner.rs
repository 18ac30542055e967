//! One run of one workload: repeated set-up, a timed window of
//! closed-loop operations, and the result line.

use std::path::PathBuf;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::Report;
use crate::stats::{floor_mean, highest_supported_percentile, median, percentile};
use crate::trace::{Span, Spans};
use crate::workloads::mem_bulk::MemBulk;
use crate::workloads::sim::{SimHttp, SimWifi3g};
use crate::workloads::wire::{WireBulk, WireFetch};
use crate::workloads::{ratio, Params, Scale, TracedTotals, Workload};
use crate::{alloc, probes, sys};

/// Set-up runs this many times; one figure for them is reported, and the
/// last instance carries the measured window.
const SETUP_REPS: usize = 7;
/// A window holds at least this many operations however slow they are.
const MIN_OPS: u64 = 3;
/// After this many failures in a row the window ends: a workload that can
/// no longer complete an operation would otherwise spin through failing
/// ones until the time is up.
const MAX_CONSECUTIVE_FAILURES: u64 = 20;

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    /// Where a traced run writes `trace_<workload>.json`.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Report,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "mem_bulk" => run_workload::<MemBulk>(opts),
        "wire_bulk" => run_workload::<WireBulk>(opts),
        "wire_fetch" => run_workload::<WireFetch>(opts),
        "sim_wifi3g" => run_workload::<SimWifi3g>(opts),
        "sim_http" => run_workload::<SimHttp>(opts),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn run_workload<W: Workload>(opts: &RunOpts) -> Result<Outcome, String> {
    let params = Params {
        seed: opts.seed,
        scale: opts.scale,
        traced: opts.traced,
    };
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        // The previous instance goes first: two servers never overlap.
        drop(workload.take());
        let t = Instant::now();
        let w = W::setup(params).map_err(|e| format!("set-up failed: {e}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut workload = workload.expect("SETUP_REPS is at least 1");

    let mut spans = Spans::new();
    let mut traced = TracedTotals::default();
    // Latency in ms of each successful operation, split by whether the
    // operation ran traced (odd ones do, in a traced run).
    let mut latency_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    // Per successful operation: wall seconds per Mbit of payload and, for
    // the untraced ones, CPU seconds (every thread of the process) per GiB.
    let (mut op_s_per_mbit, mut op_cpu_s_per_gib) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut failed_in_a_row) = (0u64, 0u64, 0u64);
    let mut peak_rss_kib = None;
    let mut last_op_s = 0.0;
    let window = Instant::now();
    // Start another operation while half of it still fits: the window
    // then ends within half an operation of `seconds`, either side.
    while failed_in_a_row < MAX_CONSECUTIVE_FAILURES
        && (attempted < MIN_OPS || window.elapsed().as_secs_f64() + last_op_s / 2.0 < opts.seconds)
    {
        let trace_this = opts.traced && attempted % 2 == 1;
        spans.set_enabled(trace_this);
        spans.set_op(attempted);
        let allocs_before = alloc::counted();
        alloc::set_counting(trace_this);
        let cpu_before = sys::cpu_seconds();
        let t = Instant::now();
        spans.enter(Span::Op);
        let result = workload.op(attempted, &mut spans);
        match &result {
            Ok(_) => {
                spans.exit(Span::Op);
            }
            Err(_) => spans.abandon_open(),
        }
        let wall = t.elapsed();
        let cpu_s = sys::cpu_seconds() - cpu_before;
        alloc::set_counting(false);
        last_op_s = wall.as_secs_f64();
        match result {
            Ok(done) => {
                failed_in_a_row = 0;
                op_s_per_mbit.push(ratio(last_op_s, done.bytes as f64 * 8.0 / 1e6));
                if !trace_this {
                    op_cpu_s_per_gib.push(ratio(cpu_s, done.bytes as f64 / (1u64 << 30) as f64));
                }
                let ns = done.latency_ns.unwrap_or(wall.as_nanos() as u64);
                latency_ms[usize::from(trace_this)].push(ns as f64 / 1e6);
                if trace_this {
                    let allocs_after = alloc::counted();
                    traced.bytes += done.bytes;
                    traced.wall_ns += wall.as_nanos() as u64;
                    traced.allocs += allocs_after.0 - allocs_before.0;
                    traced.alloc_bytes += allocs_after.1 - allocs_before.1;
                }
            }
            Err(e) => {
                failed += 1;
                failed_in_a_row += 1;
                eprintln!(
                    "benchmark: {}: operation {attempted} failed: {e}",
                    opts.workload
                );
            }
        }
        attempted += 1;
        if attempted == W::RSS_AFTER_OPS {
            peak_rss_kib = Some(sys::peak_rss_kib());
        }
    }
    spans.set_enabled(false);

    let all_ms: Vec<f64> = latency_ms.concat();
    let typical = if W::DETERMINISTIC { floor_mean } else { median };
    if !opts.traced {
        drop(workload);
        let mut metrics = Report::end_to_end();
        metrics.set("goodput_mbps", ratio(1.0, typical(&op_s_per_mbit)));
        metrics.set("op_ms", typical(&all_ms));
        metrics.set(
            "peak_rss_mib",
            peak_rss_kib.unwrap_or_else(sys::peak_rss_kib) as f64 / 1024.0,
        );
        metrics.set("setup_s", typical(&setup_s));
        return Ok(Outcome {
            attempted,
            failed,
            metrics,
        });
    }

    let mut metrics = Report::per_layer();
    let tail = highest_supported_percentile(all_ms.len());
    metrics.set("bench.ops", attempted as f64);
    metrics.set("bench.op_p90_ms", percentile(&all_ms, 900));
    metrics.set("bench.op_tail_ms", percentile(&all_ms, tail));
    metrics.set("bench.op_tail_per_mille", tail as f64);
    metrics.set("bench.fail_ratio", ratio(failed as f64, attempted as f64));
    metrics.set("bench.cpu_s_per_gib", typical(&op_cpu_s_per_gib));
    let [untraced_ms, traced_ms] = &latency_ms;
    metrics.set(
        "bench.trace_overhead_ratio",
        ratio(median(traced_ms), median(untraced_ms)),
    );
    metrics.set(
        "bench.trace_self_time_coverage",
        ratio(spans.self_ns_sum() as f64, traced.wall_ns as f64),
    );
    workload.finish(&spans, &traced, &mut metrics);
    probes::run(&mut metrics, opts.seed, opts.scale).map_err(|e| format!("probe failed: {e}"))?;

    let trace_file = opts.out_dir.join(format!("trace_{}.json", opts.workload));
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| {
            std::fs::write(
                &trace_file,
                format!("{}\n", spans.to_json(&opts.workload, opts.seed)),
            )
        })
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{workload_names, END_TO_END, PER_LAYER};

    /// Every workload at a hundredth of its size, untraced and traced:
    /// nothing fails, every metric in the tables is printed, and the lot
    /// takes seconds.
    #[test]
    fn smoke_run_of_all_five_workloads() {
        let started = Instant::now();
        let out_dir =
            std::env::temp_dir().join(format!("mptcp-benchmark-smoke-{}", std::process::id()));
        for workload in workload_names() {
            for traced in [false, true] {
                let outcome = run(&RunOpts {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.2,
                    traced,
                    scale: Scale::Smoke,
                    out_dir: out_dir.clone(),
                })
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
                assert!(outcome.attempted >= MIN_OPS, "{workload}");
                assert_eq!(outcome.failed, 0, "{workload}: fail_ratio is 0");
                let doc = outcome.to_json();
                let printed = doc.get("metrics").and_then(Json::as_obj).unwrap();
                let expected = if traced {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(printed.len(), expected, "{workload}");
                if !traced {
                    for (name, m) in printed {
                        let v = m.get("value").and_then(Json::as_f64).unwrap();
                        assert!(v > 0.0, "{workload}: {name} is {v}");
                    }
                }
            }
            let trace = std::fs::read_to_string(out_dir.join(format!("trace_{workload}.json")))
                .unwrap_or_else(|e| panic!("{workload}: no trace file: {e}"));
            let trace = Json::parse(&trace).unwrap();
            assert!(trace.get("spans").and_then(|s| s.get("bench.op")).is_some());
        }
        std::fs::remove_dir_all(&out_dir).ok();
        assert!(started.elapsed().as_secs() < 15, "{:?}", started.elapsed());
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let err = run(&RunOpts {
            workload: "nope".into(),
            seed: 1,
            seconds: 0.1,
            traced: false,
            scale: Scale::Smoke,
            out_dir: PathBuf::from("."),
        });
        assert!(err.is_err());
    }
}
