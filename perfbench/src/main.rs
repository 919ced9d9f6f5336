//! The repository's end-to-end benchmark: one binary, three workloads.
//!
//! ```text
//! perfbench --workload <compile-paper|serve-mix|simulate> --seed N
//!           --seconds S --trace <0|1> [--scratch DIR] [--setup-only] [--part]
//! ```
//!
//! Each workload builds its inputs from `--seed`, finishes every piece of
//! one-time work (corpus generation, fleet construction, kernel
//! calibration, first compiles and fusion plans) before its clock starts,
//! runs closed-loop operations for `--seconds`, then checks every output
//! outside the timed region. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs half the window untraced and half
//! traced and reports the per-layer metrics, including the tracing
//! overhead as the difference between the two halves. Any failed
//! correctness check exits with status 1 after printing the result.
//! An untraced `simulate` run splits its window over fresh processes of
//! this binary (`--part`) and pools their samples (see [`parts`]).
//!
//! The benchmark sees each layer from outside: it times its own calls
//! into the crates' public functions and reads the counters they export.

mod check;
mod compile;
mod cpus;
mod parts;
mod report;
mod serve;
mod simulate;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scratch: PathBuf,
    pub setup_only: bool,
    /// Runs as one part of a split window and prints for the parent.
    pub part: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <compile-paper|serve-mix|simulate> --seed N \
         --seconds S --trace <0|1> [--scratch DIR] [--setup-only] [--part]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scratch: PathBuf::from(".bench_build/perfbench-scratch"),
        setup_only: false,
        part: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        if flag == "--part" {
            args.part = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            "--scratch" => args.scratch = PathBuf::from(value),
            _ => usage(),
        }
    }
    if args.seconds <= 0.0 {
        usage();
    }
    args
}

fn main() {
    let start = Instant::now();
    let args = parse_args();
    let split = !(args.trace || args.setup_only || args.part);
    let report: Report = match args.workload.as_str() {
        "compile-paper" => compile::run(&args, start),
        "serve-mix" => serve::run(&args, start),
        "simulate" if split => parts::run(&args),
        "simulate" => simulate::run(&args, start),
        _ => usage(),
    };
    if args.setup_only {
        println!("setup_s {}", report.setup_s);
        return;
    }
    if args.part {
        report.print_part();
        return;
    }
    report.print(args.trace);
    if report.failed > 0 {
        std::process::exit(1);
    }
}
