//! One window split over several fresh processes of this binary.
//!
//! Some one-time work is drawn once per process: the fusion planner's
//! cost model is calibrated per process, and its draw alone moves a large
//! statevector by up to 2×. A `simulate` run therefore measures [`PARTS`]
//! processes of a share of the window each and pools their raw samples,
//! so no single draw sets the run's figures. The tail is the one figure
//! a pooled quantile leaves to the draws: it lands on the slowest
//! statevector, which one draw runs ~1.5× slower than another, so it jumps
//! with how many of the run's processes drew slow. It is therefore taken in
//! each process and averaged, so every draw weighs the same.

use crate::report::{mean, median, quantile, Cycles, Report};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Processes one window is split over.
pub const PARTS: usize = 6;

pub fn run(args: &Args) -> Report {
    let exe = std::env::current_exe().expect("own executable");
    let mut report = Report::new(0.0);
    let mut lat = Cycles::default();
    let mut per_part = Vec::new();
    let (mut setups, mut rates, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    for part in 0..PARTS {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--trace", "0", "--part"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / PARTS as f64).to_string()])
            .arg("--scratch")
            .arg(&args.scratch)
            .stderr(Stdio::inherit())
            .output()
            .expect("part process runs");
        let mut result = None;
        let mut mine = Cycles::default();
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines() {
            if mine.absorb(line) {
                lat.absorb(line);
                continue;
            }
            match line.strip_prefix("part ") {
                Some(rest) => {
                    let kv: BTreeMap<&str, f64> = rest
                        .split_whitespace()
                        .filter_map(|f| f.split_once('='))
                        .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
                        .collect();
                    result = Some(kv);
                }
                None => report.notes.push(format!("part {part}: {line}")),
            }
        }
        let Some(kv) = result else {
            report.fail(format!("part {part}: no result ({})", out.status));
            continue;
        };
        per_part.push(mine);
        let v = |k: &str| kv.get(k).copied().unwrap_or(0.0);
        report.attempted += v("attempted") as u64;
        report.failed += v("failed") as u64;
        setups.push(v("setup_s"));
        rates.push(v("success_rate"));
        rss.push(v("peak_rss_mb"));
        // The counts depend on the seed alone: every part must agree.
        for name in ["cx_total", "depth_total"] {
            match report.end_to_end.get(name) {
                None => {
                    report.end_to_end.insert(name, v(name));
                }
                Some(&first) if first != v(name) => {
                    report.fail(format!("part {part}: {name} {} vs {first}", v(name)));
                }
                Some(_) => {}
            }
        }
    }
    report.setup_s = median(&setups);
    report.end_to_end.insert("success_rate", median(&rates));
    report.notes.push(format!(
        "{PARTS} processes of {:.2} s; set-up {setups:?} s; peak RSS {rss:?} MB; success {rates:?}",
        args.seconds / PARTS as f64
    ));
    // The percentile the pooled samples call for, taken in each process.
    let mut sum = lat.summary();
    let tails: Vec<f64> = per_part
        .iter()
        .map(|p| quantile(p.latencies(), sum.tail_p))
        .collect();
    sum.tail_ms = mean(&tails);
    report
        .notes
        .push(format!("per-process p{}: {tails:?} ms", sum.tail_p * 100.0));
    report.finish_common(&sum, median(&rss));
    report
}
