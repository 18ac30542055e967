//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark [run] --workload W --seed N --seconds S --trace 0|1
//! benchmark suite [--seed N] [--seconds S] [--runs K] [--trace 0|1] [--out FILE]
//! benchmark compare A.json B.json
//! benchmark ladder RESULTS.json
//! benchmark manifest
//! ```
//!
//! `run` prints one JSON object as the last line of its standard output:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (and a
//! trace file) with `--trace 1`.

mod alloc;
mod compare;
mod json;
mod mem;
mod metrics;
mod pipe;
mod probes;
mod runner;
mod stats;
mod suite;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use runner::RunOpts;
use suite::SuiteOpts;
use workloads::Scale;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  benchmark [run] --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
  benchmark suite [--seed N] [--seconds S] [--runs K] [--trace 0|1] [--smoke] [--out FILE] [--out-dir DIR]
  benchmark compare A.json B.json
  benchmark ladder RESULTS.json
  benchmark manifest";

/// `--flag value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some("smoke") => args.flags.push(("smoke".into(), "1".into())),
                Some(flag) => {
                    let value = raw.next().ok_or(format!("--{flag} needs a value"))?;
                    args.flags.push((flag.to_string(), value));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: `{v}` is not a number")),
        }
    }

    fn traced(&self) -> Result<bool, String> {
        match self.get("trace") {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("--trace takes 0 or 1, not `{v}`")),
        }
    }

    fn scale(&self) -> Scale {
        if self.get("smoke").is_some() {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }

    fn check_flags(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown option --{f}")),
            None => Ok(()),
        }
    }

    fn out_dir(&self) -> PathBuf {
        self.get("out-dir").unwrap_or("benchmark/out").into()
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let words: Vec<&str> = args.words.iter().map(String::as_str).collect();
    match words[..] {
        [] | ["run"] => {
            args.check_flags(&["workload", "seed", "seconds", "trace", "smoke", "out-dir"])?;
            let opts = RunOpts {
                workload: args
                    .get("workload")
                    .ok_or(format!("--workload is required\n{USAGE}"))?
                    .to_string(),
                seed: args.num("seed", 7)?,
                seconds: args.num("seconds", metrics::RUN_SECONDS as f64)?,
                traced: args.traced()?,
                scale: args.scale(),
                out_dir: args.out_dir(),
            };
            let outcome = runner::run(&opts).map_err(|e| format!("{}: {e}", opts.workload))?;
            println!("{}", outcome.to_json());
            if outcome.correct() {
                Ok(ExitCode::SUCCESS)
            } else {
                eprintln!(
                    "benchmark: {}: {} of {} operations failed",
                    opts.workload, outcome.failed, outcome.attempted
                );
                Ok(ExitCode::FAILURE)
            }
        }
        ["suite"] => {
            args.check_flags(&[
                "seed", "seconds", "runs", "trace", "smoke", "out", "out-dir",
            ])?;
            let out_dir = args.out_dir();
            let opts = SuiteOpts {
                seed: args.num("seed", 7)?,
                seconds: args.num("seconds", metrics::RUN_SECONDS as f64)?,
                runs: args.num("runs", 1)?,
                traced: args.traced()?,
                smoke: args.scale() == Scale::Smoke,
                out: args
                    .get("out")
                    .map_or_else(|| out_dir.join("results.json"), PathBuf::from),
                out_dir,
            };
            suite::suite(&opts)?;
            Ok(ExitCode::SUCCESS)
        }
        ["compare", a, b] => {
            args.check_flags(&[])?;
            let clean = compare::compare(&suite::load(a)?, &suite::load(b)?)?;
            Ok(if clean {
                ExitCode::SUCCESS
            } else {
                eprintln!("benchmark: compare: {b} regressed against {a}");
                ExitCode::FAILURE
            })
        }
        ["ladder", results] => {
            args.check_flags(&[])?;
            print!("{}", compare::ladder(&suite::load(results)?)?);
            Ok(ExitCode::SUCCESS)
        }
        ["manifest"] => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!("unrecognised arguments\n{USAGE}")),
    }
}
