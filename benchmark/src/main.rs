//! `cots-benchmark`: the driver `benchmark/run.sh` builds and runs.
//!
//! ```text
//! cots-benchmark run --server-bin PATH --out DIR [--workload W] [--seed S]
//!                    [--seconds N] [--trace [0|1]] [--results FILE]
//! cots-benchmark noise-check --bounds BENCHMARK.json --a F1,F2,F3 --b G1,G2,G3
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use cots_benchmark::report::{results_json, WorkloadResult};
use cots_benchmark::server::{refuse_if_running, Env, Result};
use cots_benchmark::{compare, driver, spec};

struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T> {
        let raw = self.0.next().ok_or(format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse `{raw}`"))
    }
}

fn run(mut args: Args) -> Result<bool> {
    let mut server_bin: Option<PathBuf> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut results: Option<PathBuf> = None;
    let mut workload: Option<String> = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 16u64, false);
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "--server-bin" => server_bin = Some(args.value(&arg)?),
            "--out" => out_dir = Some(args.value(&arg)?),
            "--results" => results = Some(args.value(&arg)?),
            "--workload" => workload = Some(args.value(&arg)?),
            "--seed" => seed = args.value(&arg)?,
            "--seconds" => seconds = args.value(&arg)?,
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                trace = match args.0.as_slice().first().map(String::as_str) {
                    Some("0") => {
                        args.0.next();
                        false
                    }
                    Some("1") => {
                        args.0.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let out_dir = out_dir.ok_or("--out is required")?;
    let workloads: Vec<&'static spec::Workload> = match &workload {
        Some(name) => vec![spec::workload(name).ok_or(format!("unknown workload `{name}`"))?],
        None => spec::WORKLOADS.iter().collect(),
    };
    refuse_if_running(&out_dir)?;
    let env = Env {
        server_bin: server_bin.ok_or("--server-bin is required")?,
        run_dir: std::env::var_os("COTS_BENCH_RUN_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| out_dir.join(format!("run-{}", std::process::id()))),
        out_dir,
        clk_tck: std::env::var("COTS_BENCH_CLK_TCK")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(100.0),
    };
    std::fs::create_dir_all(&env.run_dir)
        .map_err(|e| format!("create {}: {e}", env.run_dir.display()))?;

    let mut done: Vec<WorkloadResult> = Vec::new();
    let mut outcome = Ok(());
    for wl in workloads {
        match driver::run(&env, wl, seed, seconds, trace) {
            Ok(result) => {
                result.print();
                // The benchmark contract: one JSON object, last on stdout.
                println!("{}", result.contract_line());
                done.push(result);
            }
            Err(e) => {
                outcome = Err(format!("{}: {e}", wl.name));
                break;
            }
        }
    }
    // Servers and data directories are gone (their owners were dropped
    // on every path above); the run directory goes with them.
    let _ = std::fs::remove_dir_all(&env.run_dir);
    let results = results.unwrap_or_else(|| env.out_dir.join("results.json"));
    std::fs::write(&results, results_json(seed, seconds, trace, &done).pretty())
        .map_err(|e| format!("write {}: {e}", results.display()))?;
    outcome?;
    Ok(done.iter().all(|r| r.correct))
}

fn noise_check(mut args: Args) -> Result<bool> {
    let (mut bounds, mut a, mut b) = (None::<PathBuf>, Vec::new(), Vec::new());
    let list = |raw: String| raw.split(',').map(str::to_string).collect::<Vec<_>>();
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "--bounds" => bounds = Some(args.value(&arg)?),
            "--a" => a = list(args.value(&arg)?),
            "--b" => b = list(args.value(&arg)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    compare::noise_check(&bounds.ok_or("--bounds is required")?, &a, &b)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = if argv.is_empty() {
        String::new()
    } else {
        argv.remove(0)
    };
    let args = Args(argv.into_iter());
    let outcome = match command.as_str() {
        "run" => run(args),
        "noise-check" => noise_check(args),
        _ => Err("usage: cots-benchmark run|noise-check … (see benchmark/README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("cots-benchmark: a check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("cots-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
