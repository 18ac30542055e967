//! `repro` — regenerate every table and figure of the NSDI 2012 MPTCP
//! paper from the simulated reproduction.
//!
//! ```text
//! repro <experiment> [--quick]
//!
//! experiments:
//!   fig3    goodput vs MSS, DSM checksum on/off (10 Gbps model)
//!   fig4    throughput vs receive buffer, WiFi+3G, mechanisms M1/M2
//!   fig5    memory use vs configured buffer (autotuning, capping)
//!   fig6a   WiFi + weak 3G buffer sweep
//!   fig6b   1 Gbps + 100 Mbps buffer sweep
//!   fig6c   three 1 Gbps links buffer sweep
//!   fig7    application-delay PDF (8 KB blocks, 200 KB buffers)
//!   fig8    receiver CPU load of the reorder algorithms
//!   fig9    "real" 2 Mbps WiFi + 2 Mbps 3G buffer sweep
//!   fig10   connection-setup latency PDF (wall-clock measurement)
//!   fig11   HTTP requests/sec vs file size (TCP / bonding / MPTCP)
//!   mbox    the §3 middlebox × design survival matrix
//!   telemetry  one rwnd-limited MPTCP run: counter table + JSON report
//!   trace   one traced run: time-series JSONL, MPTCP-aware packet
//!           capture, gnuplot timeline (scenarios: fig4, fig9, fallback)
//!   chaos   fault injection: single-path blackout survival + recovery,
//!           all-paths abort with a typed reason, randomized seed sweep
//!   handover  WiFi -> cellular migration over a pre-opened backup
//!           subflow; the PM reacts to the interface withdrawal in zero
//!           time, so the app-visible stall stays under one minimum RTO
//!   all     run everything
//!
//! real-network (UDP-encapsulated MPTCP, crates/runtime):
//!   serve       serve fetch requests on N UDP ports (one per path);
//!               `--admin H:P` opens the introspection socket
//!   fetch       connect over every listed path, transfer, verify bytes
//!
//! live introspection (clients of `serve --admin`):
//!   stat        one admin command, one response: `repro stat H:P conns`
//!               is `ss -M` for this stack; `--validate` checks a
//!               `metrics` scrape against the Prometheus text format
//!   top         live health/loop-phase/connection view, refreshed every
//!               `--interval-ms` (or one frame with `--once`)
//! ```
//!
//! Performance is measured by `benchmark/run.sh`, not by this binary.
//!
//! Every figure prints as Markdown tables, one per `harness::Figure` the
//! experiment returns; EXPERIMENTS.md quotes them, and
//! `scripts/check_figures.sh` checks the deterministic ones against it.
//!
//! `--quick` shrinks sweeps for a fast smoke run.
//!
//! Every experiment accepts `--cc <reno|lia|olia|cubic>`,
//! `--sched <minrtt|rr|redundant|blest>` and
//! `--pm <default|fullmesh|backup|signal>` to pick the
//! congestion-control algorithm, packet scheduler and path-manager
//! policy (defaults: `lia`, `minrtt`, `default` — the paper's
//! deployable configuration), e.g.
//! `repro fig9 --cc olia --sched redundant --pm fullmesh`.
//!
//! `trace` takes a scenario plus `--out DIR` (default `trace_out/`) and
//! `--fail-on-drops` (exit nonzero if any bounded ring overwrote records —
//! the CI guard), e.g. `repro trace fig9 --out trace_out/`.
//!
//! `chaos` takes `--out DIR` (default `chaos_out/`), `--seed-sweep N`
//! (randomized fault schedules to run, default 4) and
//! `--fail-on-invariant` (exit nonzero when any invariant — every byte
//! delivered exactly once, no deadlock, abort only typed and only when
//! all paths stay down — is violated), e.g.
//! `repro chaos --seed-sweep 8 --fail-on-invariant`.
//!
//! `handover` takes `--out DIR` (default `handover_out/`) and
//! `--fail-on-stall` (exit nonzero when any migration invariant — backup
//! pre-opened, REMOVE_ADDR sent, MP_PRIO promotion, app stall within one
//! minimum RTO, no timer fires on the surviving path — is violated),
//! e.g. `repro handover --fail-on-stall`.

mod admin_cli;
mod runtime_cli;

use mptcp_harness::experiments::common::{Policy, Variant, UNTRACED, WARMUP};
use mptcp_harness::experiments::*;
use mptcp_harness::Figure;
use mptcp_netsim::Duration;

const SEED: u64 = 20120425; // NSDI'12 presentation date

/// Print `err` and the usage line of subcommand `cmd`, then exit 2.
fn usage(cmd: &str, err: &str) -> ! {
    let line = match cmd {
        "trace" => "trace [fig4|fig9|fallback] [--out DIR] [--fail-on-drops]",
        "chaos" => "chaos [--out DIR] [--seed-sweep N] [--fail-on-invariant]",
        "handover" => "handover [--out DIR] [--fail-on-stall]",
        "serve" => {
            "serve [--host H] [--port P] [--paths N] [--once] [--timeout-secs S] [--admin H:P]"
        }
        "fetch" => {
            "fetch --connect H:P[,H:P...] [--size BYTES] [--seed S] [--out FILE] \
             [--timeout-secs S]"
        }
        "stat" => "stat <host:port> <command...> [--validate]",
        "top" => "top <host:port> [--interval-ms N] [--once]",
        _ => "<experiment> [--quick] [--cc ALGO] [--sched SCHED] [--pm POLICY]",
    };
    eprintln!("{err}\nusage: repro {line}");
    std::process::exit(2);
}

/// Remove `name <value>` from `args` (whose first element is the
/// subcommand), returning the value parsed as `T`.
fn take_value_flag<T>(args: &mut Vec<String>, name: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        usage(&args[0], &format!("{name} needs a value"));
    }
    args.remove(i);
    let value = args.remove(i);
    match value.parse() {
        Ok(v) => Some(v),
        Err(e) => usage(
            args.first().map_or("", String::as_str),
            &format!("{name} {value}: {e}"),
        ),
    }
}

/// Remove the boolean flag `name` from `args`; true if it was there.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

/// Remove and return the positional argument after the subcommand.
fn take_positional(args: &mut Vec<String>) -> Option<String> {
    (args.len() > 1).then(|| args.remove(1))
}

/// Call once every known flag and positional has been taken: anything
/// left is an argument the subcommand does not know.
fn reject_leftovers(args: &[String]) {
    if let Some(other) = args.get(1) {
        usage(&args[0], &format!("unknown argument: {other}"));
    }
}

/// Parse the global `--cc` / `--sched` / `--pm` flags into a [`Policy`].
fn parse_policy(args: &mut Vec<String>) -> Policy {
    Policy {
        cc: take_value_flag(args, "--cc").unwrap_or_default(),
        sched: take_value_flag(args, "--sched").unwrap_or_default(),
        pm: take_value_flag(args, "--pm").unwrap_or_default(),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let policy = parse_policy(&mut args);
    let quick = take_flag(&mut args, "--quick");
    let which = args.first().cloned().unwrap_or_else(|| "all".to_string());

    match which.as_str() {
        "telemetry" => telemetry_report(quick, policy),
        "trace" => trace_run(args, policy),
        "chaos" => chaos_run(args, quick, policy),
        "handover" => handover_run(args, policy),
        "serve" => runtime_cli::serve(args),
        "fetch" => runtime_cli::fetch(args),
        "stat" => admin_cli::stat(args),
        "top" => admin_cli::top(args, quick),
        "all" => {
            telemetry_report(quick, policy);
            for name in FIGURES {
                print_figures(name, quick, policy);
            }
        }
        name => print_figures(name, quick, policy),
    }
}

/// Every figure experiment, in the order `all` runs them.
const FIGURES: [&str; 12] = [
    "mbox", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "fig9", "fig10",
    "fig11",
];

/// Run figure experiment `name` and print its tables; exit 2 if there is
/// no such experiment.
fn print_figures(name: &str, quick: bool, policy: Policy) {
    use fig6_scenarios::Panel;
    let fig6 = |panel| vec![fig6_scenarios::figure(panel, quick, SEED, policy)];
    let figures: Vec<Figure> = match name {
        "mbox" => vec![mbox::figure(SEED, policy)],
        "fig3" => fig3_checksum::figures().into(),
        "fig4" => vec![fig4_rcvbuf::figure(quick, SEED, policy)],
        "fig5" => vec![fig5_memory::figure(quick, SEED, policy)],
        "fig6a" => fig6(Panel::WeakCellular),
        "fig6b" => fig6(Panel::Asymmetric),
        "fig6c" => fig6(Panel::Symmetric3),
        "fig7" => fig7_appdelay::figures(quick, SEED, policy).into(),
        "fig8" => vec![fig8_reorder::figure(SEED, policy)],
        "fig9" => vec![fig9_wifi3g::figure(quick, SEED, policy)],
        "fig10" => vec![fig10_handshake::figure(quick, SEED)],
        "fig11" => vec![fig11_http::figure(quick, SEED, policy)],
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    };
    for figure in &figures {
        print!("{figure}");
    }
}

fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Note a non-default policy under the header so runs are self-labelling.
fn print_policy(policy: Policy) {
    if let Some(note) = policy.note() {
        println!("{note}");
    }
}

fn telemetry_report(quick: bool, policy: Policy) {
    header("Telemetry: MPTCP+M1,2, WiFi+3G, 200 KB receive buffer");
    print_policy(policy);
    let measure = if quick {
        Duration::from_secs(5)
    } else {
        common::MEASURE
    };
    let (v, paths) = (Variant::MptcpM12, common::wifi_3g_paths());
    let r = common::run_bulk(v, 200_000, paths, WARMUP, measure, SEED, policy, UNTRACED).bulk;
    println!(
        "goodput {:.2} Mbps, throughput {:.2} Mbps",
        r.goodput_mbps, r.throughput_mbps
    );
    print!("{}", r.telemetry.render_table());
    let report = mptcp_harness::RunReport::new("telemetry", v.label(), r.telemetry)
        .policy(policy.cc.name(), policy.sched.name(), policy.pm.name())
        .metric("goodput_mbps", r.goodput_mbps)
        .metric("throughput_mbps", r.throughput_mbps)
        .metric("sender_mem", r.sender_mem)
        .metric("receiver_mem", r.receiver_mem);
    println!();
    println!("JSON report:");
    println!("{}", mptcp_harness::to_json_lines(&[report]));
}

/// Write a traced run's artifacts under `out_dir` (created if missing) as
/// `{stem}_*`: the trace's JSONL, the packet capture's if the run has one,
/// the gnuplot timeline and the JSON report, naming each on stdout; any
/// I/O error ends the process with status 1.
fn write_artifacts(
    out_dir: &std::path::Path,
    stem: &str,
    trace: &mptcp_telemetry::TraceSnapshot,
    pcap: Option<String>,
    report: &mptcp_harness::RunReport,
) {
    use mptcp_harness::experiments::trace::timeline_dat;
    let report = mptcp_harness::to_json_lines(std::slice::from_ref(report));
    let files = [
        (
            "trace.jsonl",
            Some(mptcp_telemetry::TraceWriter::to_jsonl(trace)),
        ),
        ("pcap.jsonl", pcap),
        ("timeline.dat", Some(timeline_dat(trace))),
        ("report.json", Some(report)),
    ];
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    for (name, contents) in files.iter().filter_map(|(n, c)| Some((n, c.as_ref()?))) {
        let path = out_dir.join(format!("{stem}_{name}"));
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
    }
}

fn trace_run(mut args: Vec<String>, policy: Policy) {
    use mptcp_harness::experiments::trace as tr;

    let out_dir: std::path::PathBuf =
        take_value_flag(&mut args, "--out").unwrap_or_else(|| "trace_out".into());
    let fail_on_drops = take_flag(&mut args, "--fail-on-drops");
    let scenario = match take_positional(&mut args) {
        Some(s) => {
            tr::TraceScenario::parse(&s).unwrap_or_else(|| usage("trace", "unknown scenario"))
        }
        None => tr::TraceScenario::Fig9,
    };
    reject_leftovers(&args);

    header(&format!(
        "Trace: {} — {}",
        scenario.name(),
        scenario.describe()
    ));
    print_policy(policy);
    let art = tr::run(scenario, SEED, policy);
    let r = &art.run;
    println!(
        "goodput {:.2} Mbps, throughput {:.2} Mbps{}",
        r.bulk.goodput_mbps,
        r.bulk.throughput_mbps,
        if r.bulk.fell_back { " (fell back)" } else { "" }
    );
    println!(
        "trace: {} records retained of {} ({} dropped), {} spans, subflows {:?}",
        r.trace.records.len(),
        r.trace.total,
        r.trace.dropped_samples,
        r.trace.spans().count(),
        r.trace.subflow_ids()
    );
    let mut span_counts = std::collections::BTreeMap::new();
    for (_, _, kind) in r.trace.spans() {
        *span_counts.entry(kind.name()).or_insert(0u64) += 1;
    }
    for (kind, n) in &span_counts {
        println!("  span {kind}: {n}");
    }
    println!(
        "capture: {} packets retained of {} ({} dropped)",
        r.capture.records.len(),
        r.capture.total,
        r.capture.dropped_records
    );

    let pcap = Some(r.capture.to_jsonl());
    write_artifacts(&out_dir, scenario.name(), &r.trace, pcap, &art.report);

    let dropped = r.trace.dropped_samples + r.capture.dropped_records;
    if fail_on_drops && dropped > 0 {
        eprintln!(
            "FAIL: {dropped} records dropped by bounded rings \
             (trace {}, capture {}) — raise capacities",
            r.trace.dropped_samples, r.capture.dropped_records
        );
        std::process::exit(1);
    }
}

fn chaos_run(mut args: Vec<String>, quick: bool, policy: Policy) {
    let out_dir: std::path::PathBuf =
        take_value_flag(&mut args, "--out").unwrap_or_else(|| "chaos_out".into());
    let mut sweep_n: u64 = take_value_flag(&mut args, "--seed-sweep").unwrap_or(4);
    if quick {
        sweep_n = sweep_n.min(2);
    }
    let fail_on_invariant = take_flag(&mut args, "--fail-on-invariant");
    reject_leftovers(&args);

    header("Chaos: fault injection, path failure and break-before-make recovery");
    print_policy(policy);
    let art = chaos::run(SEED, sweep_n, policy);

    let b = &art.blackout;
    println!("[blackout] WiFi path dark for 3 s at t=1 s, continuous bulk over WiFi+3G");
    println!(
        "  delivered: {} KB before, {} KB during (on 3G), {} KB after restore",
        b.delivered_before / 1000,
        b.delivered_during / 1000,
        b.delivered_after / 1000
    );
    println!(
        "  path failures {}, recoveries {}, reinjected chunks {}, final state {:?}",
        b.path_failures, b.path_recoveries, b.reinjections, b.final_state
    );
    for ev in &b.telemetry.events {
        match ev.kind {
            mptcp_telemetry::EventKind::PathSuspect { .. }
            | mptcp_telemetry::EventKind::PathFailed { .. }
            | mptcp_telemetry::EventKind::PathRecovered { .. } => {
                println!("  {:>9.3} s  {:?}", ev.at_ns as f64 / 1e9, ev.kind)
            }
            _ => {}
        }
    }
    for f in &b.faults {
        println!(
            "  {:>9.3} s  fault {} on path {}",
            f.at.0 as f64 / 1e9,
            f.name,
            f.path
        );
    }

    let ap = &art.all_paths;
    println!();
    println!(
        "[all-paths] every path dark at t=1 s, abort deadline {} s",
        ap.abort_deadline.as_secs()
    );
    match (ap.abort, ap.aborted_at_s) {
        (Some(r), Some(t)) => println!("  aborted at {t:.3} s: {r}"),
        (r, t) => println!("  abort {r:?} at {t:?}"),
    }

    println!();
    println!(
        "[sweep] {sweep_n} randomized fault schedules, {} MB each",
        6
    );
    println!(
        "{:>12}  {:>12}  {:>7}  {:>9}  {:>8}",
        "seed", "delivered", "faults", "elapsed", "verdict"
    );
    for run in &art.sweep {
        println!(
            "{:>12}  {:>9} KB  {:>7}  {:>7.1} s  {:>8}",
            run.seed,
            run.delivered / 1000,
            run.faults.len(),
            run.elapsed_s,
            if run.violations.is_empty() {
                "ok"
            } else {
                "VIOLATED"
            }
        );
    }

    let report =
        mptcp_harness::RunReport::new("chaos", "blackout 3s, WiFi+3G", b.telemetry.clone())
            .policy(policy.cc.name(), policy.sched.name(), policy.pm.name())
            .metric("delivered_during_blackout", b.delivered_during as f64)
            .metric("path_failures", b.path_failures as f64)
            .metric("path_recoveries", b.path_recoveries as f64)
            .metric("reinjections", b.reinjections as f64)
            .trace(&b.trace);
    write_artifacts(&out_dir, "chaos", &b.trace, None, &report);

    let violations = art.violations();
    if !violations.is_empty() {
        println!();
        for v in &violations {
            eprintln!("INVARIANT VIOLATED: {v}");
        }
        if fail_on_invariant {
            std::process::exit(1);
        }
    }
}

fn handover_run(mut args: Vec<String>, policy: Policy) {
    let out_dir: std::path::PathBuf =
        take_value_flag(&mut args, "--out").unwrap_or_else(|| "handover_out".into());
    let fail_on_stall = take_flag(&mut args, "--fail-on-stall");
    reject_leftovers(&args);

    header("Handover: WiFi withdrawn mid-stream, migrate onto pre-opened backup");
    print_policy(policy);
    let out = handover::run(SEED, policy);

    println!(
        "WiFi address withdrawn at t={:.1} s; backup subflow {} before the switch \
         ({} bytes on it — the scheduler's last-resort tier)",
        out.switch_at_s,
        if out.backup_preopened {
            "established"
        } else {
            "MISSING"
        },
        out.backup_bytes_before
    );
    println!(
        "  delivered: {} KB before, {} KB after (cellular only)",
        out.delivered_before / 1000,
        out.delivered_after / 1000
    );
    println!(
        "  longest app-visible gap {:.0} ms (budget {:.0} ms = one min RTO)",
        out.max_gap_ms, out.stall_budget_ms
    );
    println!(
        "  REMOVE_ADDR sent {}, MP_PRIO promotions {}",
        out.remove_addrs_sent, out.promotions
    );
    // The migration as the PM saw it: every decision is a trace span.
    for (at, _, kind) in out.trace.spans() {
        match kind {
            mptcp_telemetry::EventKind::PmOpenSubflow { .. }
            | mptcp_telemetry::EventKind::PmBackupPromoted { .. }
            | mptcp_telemetry::EventKind::RemoveAddr { .. } => {
                println!("  {:>9.3} s  {:?}", at as f64 / 1e9, kind)
            }
            _ => {}
        }
    }

    let report = mptcp_harness::RunReport::new(
        "handover",
        "wifi withdrawn at 3s, pre-opened backup",
        out.telemetry.clone(),
    )
    .policy(policy.cc.name(), policy.sched.name(), policy.pm.name())
    .metric("max_gap_ms", out.max_gap_ms)
    .metric("stall_budget_ms", out.stall_budget_ms)
    .metric("delivered_before", out.delivered_before as f64)
    .metric("delivered_after", out.delivered_after as f64)
    .metric("backup_bytes_before_switch", out.backup_bytes_before as f64)
    .metric("promotions", out.promotions as f64)
    .trace(&out.trace);
    write_artifacts(&out_dir, "handover", &out.trace, None, &report);

    if !out.violations.is_empty() {
        println!();
        for v in &out.violations {
            eprintln!("HANDOVER VIOLATED: {v}");
        }
        if fail_on_stall {
            std::process::exit(1);
        }
    }
}
