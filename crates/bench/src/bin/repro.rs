//! Regenerate the paper's evaluation in this process: `repro [NAME…]` runs
//! the named experiments of `cots_bench::repro::SPECS` (all of them when no
//! name is given), honouring `REPRO_SCALE` / `REPRO_REPEATS`, writes their
//! CSV/JSON under `target/repro/` and digests them into
//! `target/repro/SUMMARY.md`. An unknown name exits 2.
//!
//! ```text
//! REPRO_SCALE=0.1 REPRO_REPEATS=3 cargo run --release -p cots-bench --bin repro
//! cargo run --release -p cots-bench --bin repro -- fig11 table2
//! ```

use cots_bench::harness::out_dir;
use cots_bench::repro::{self, SPECS};
use cots_bench::Scale;

fn main() {
    let mut specs = Vec::new();
    for name in std::env::args().skip(1) {
        match repro::spec(&name) {
            Some(spec) => specs.push(spec),
            None => {
                let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                eprintln!(
                    "repro: unknown experiment `{name}`; valid names: {}",
                    names.join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    if specs.is_empty() {
        specs = SPECS.to_vec();
    }
    let scale = Scale::from_env();
    let cores = repro::cores();
    println!(
        "repro: REPRO_SCALE={} REPRO_REPEATS={}, host has {cores} hardware threads \
         (runs with more threads are oversubscribed)",
        scale.factor, scale.repeats
    );
    let mut outcomes = Vec::new();
    for spec in &specs {
        println!("\n================ {} ================\n", spec.name);
        let outcome = repro::run(spec, scale);
        outcome.write();
        outcomes.push(outcome);
    }
    let summary = repro::summary(&outcomes, scale, cores);
    let path = out_dir().join("SUMMARY.md");
    std::fs::write(&path, &summary).expect("write summary");
    println!("\n{summary}\nwrote {}", path.display());
}
