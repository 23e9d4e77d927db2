//! adapta's end-to-end and per-layer benchmark.
//!
//! One process runs one workload from one seed:
//!
//! ```text
//! adapta-perfbench --workload <name> --seed <n> --seconds <s> [--trace]
//! ```
//!
//! It prints a human-readable report and, as its last line, one JSON
//! object with the figures (`perfbench/run.py` merges several processes
//! into the benchmark's result line). `--trace` splits the measured time
//! into an untraced and a traced half: the traced half decomposes
//! sampled requests into layers (see `layers.rs`) and adds the isolated
//! layer probes.

mod layers;
mod measure;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Named figures with their units, in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push('}');
        out
    }

    fn print(&self, title: &str) {
        if self.0.is_empty() {
            return;
        }
        println!("{title}");
        for (name, value, unit) in &self.0 {
            println!("  {name:<38} {value:>14.3} {unit}");
        }
    }
}

/// Settings of one run.
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: adapta-perfbench --workload <{}> --seed <n> --seconds <s> \
         [--trace] [--spans <file>]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value().parse().unwrap_or_else(|_| usage()),
            "--spans" => spans = Some(PathBuf::from(value())),
            "--trace" => trace = true,
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !workloads::NAMES.contains(&workload.as_str()) || seconds <= 0.0 {
        usage();
    }
    let config = Config {
        seed,
        seconds,
        trace,
        spans: spans.unwrap_or_else(|| {
            PathBuf::from(format!("perfbench/out/spans-{workload}-{seed}.jsonl"))
        }),
    };

    match workloads::run(&workload, &config, started) {
        Ok(outcome) => outcome.report(&workload, &config),
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            std::process::exit(1);
        }
    }
    // Exit without tearing down client, server and reader threads.
    std::process::exit(0);
}
