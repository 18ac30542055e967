//! `benchmark suite`: every workload, each run in a process of its own so
//! that CPU time and peak RSS belong to one workload, collected into one
//! results file and printed metric by metric.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::metrics::workload_names;

pub struct SuiteOpts {
    pub seed: u64,
    pub seconds: f64,
    /// Runs per workload; run `r` uses seed `seed + r`.
    pub runs: u64,
    /// Add one traced run per workload, on the first seed: traced runs
    /// are for reading layers, not for statistics.
    pub traced: bool,
    pub smoke: bool,
    pub out: PathBuf,
    pub out_dir: PathBuf,
}

/// Run one workload once in a child process and parse its result line.
fn run_child(opts: &SuiteOpts, workload: &str, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&opts.out_dir);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // stderr is inherited, so a failing operation names itself as it fails.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last);
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) failed: {}",
            u8::from(traced),
            output.status
        ));
    }
    result.map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn print_result(workload: &str, seed: u64, traced: bool, result: &Json) {
    println!(
        "{workload}  seed {seed}  trace {}  attempted {}  failed {}",
        u8::from(traced),
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
    );
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    for (name, m) in metrics {
        println!(
            "  {name:<36} {:>16.6} {}",
            m.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            m.get("unit").and_then(Json::as_str).unwrap_or(""),
        );
    }
}

/// Run the suite, print every metric, write the results file.
pub fn suite(opts: &SuiteOpts) -> Result<(), String> {
    let mut records = Vec::new();
    for r in 0..opts.runs {
        let seed = opts.seed + r;
        for workload in workload_names() {
            for traced in [false, true] {
                if traced && !(opts.traced && r == 0) {
                    continue;
                }
                let result = run_child(opts, workload, seed, traced)?;
                print_result(workload, seed, traced, &result);
                records.push(Json::obj([
                    ("workload", Json::str(workload)),
                    ("seed", Json::Num(seed as f64)),
                    ("trace", Json::Num(f64::from(u8::from(traced)))),
                    ("result", result),
                ]));
            }
        }
    }
    let doc = Json::obj([
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("runs", Json::Arr(records)),
    ]);
    write_file(&opts.out, &format!("{doc}\n"))?;
    println!("wrote {}", opts.out.display());
    Ok(())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One metric's values across the runs of a results file.
pub fn values(doc: &Json, workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(f64::from(u8::from(traced)))
        })
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

pub fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}
