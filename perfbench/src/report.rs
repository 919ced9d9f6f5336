//! Metric bookkeeping and the final JSON line.

use std::collections::BTreeMap;

/// Every end-to-end metric, with its unit. Each workload reports all of
/// them (the contract of `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("cx_total", "count"),
    ("depth_total", "count"),
    ("success_rate", "ratio"),
];

/// Every per-layer metric, with its unit. A traced run prints all of them;
/// a layer the workload bypasses did no work there and reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fail_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("circuit.to_dag_ms", "ms"),
    ("circuit.to_circuit_ms", "ms"),
    ("circuit.conversions.level3", "count"),
    ("circuit.conversions.hoare", "count"),
    ("circuit.conversions.rpo", "count"),
    ("circuit.dag_clone_ms", "ms"),
    ("circuit.qasm_parse_us", "us"),
    ("circuit.qasm_emit_us", "us"),
    ("transpile.compile_ms", "ms"),
    ("transpile.checkpoint_est_ms", "ms"),
    ("transpile.validate_est_ms", "ms"),
    ("transpile.layout_ms", "ms"),
    ("transpile.route_ms", "ms"),
    ("transpile.route_swaps", "count"),
    ("transpile.pass.unroll.ms", "ms"),
    ("transpile.pass.unroll.runs", "count"),
    ("transpile.pass.unroll.rewrites", "count"),
    ("transpile.pass.unroll.skipped", "count"),
    ("transpile.pass.optimize_1q.ms", "ms"),
    ("transpile.pass.optimize_1q.runs", "count"),
    ("transpile.pass.optimize_1q.rewrites", "count"),
    ("transpile.pass.optimize_1q.skipped", "count"),
    ("transpile.pass.commutative_cancel.ms", "ms"),
    ("transpile.pass.commutative_cancel.runs", "count"),
    ("transpile.pass.commutative_cancel.rewrites", "count"),
    ("transpile.pass.commutative_cancel.skipped", "count"),
    ("transpile.pass.cx_cancel.ms", "ms"),
    ("transpile.pass.cx_cancel.runs", "count"),
    ("transpile.pass.cx_cancel.rewrites", "count"),
    ("transpile.pass.cx_cancel.skipped", "count"),
    ("transpile.pass.consolidate.ms", "ms"),
    ("transpile.pass.consolidate.runs", "count"),
    ("transpile.pass.consolidate.rewrites", "count"),
    ("transpile.pass.consolidate.skipped", "count"),
    ("transpile.degraded", "count"),
    ("transpile.unattributed_ms", "ms"),
    ("transpile.unattributed_frac", "ratio"),
    ("flow.level3.ms", "ms"),
    ("flow.hoare.ms", "ms"),
    ("flow.rpo.ms", "ms"),
    ("rpo.qbo.ms", "ms"),
    ("rpo.qbo.rewrites", "count"),
    ("rpo.qpo.ms", "ms"),
    ("rpo.qpo.rewrites", "count"),
    ("rpo.cx_ratio", "ratio"),
    ("hoare.pass_ms", "ms"),
    ("hoare.cx_removed", "count"),
    ("serve.router_self_us", "us"),
    ("serve.shard_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.key_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.compile_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.repeat_share", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.integrity_checks", "count"),
    ("serve.persist_appends", "count"),
    ("serve.compactions", "count"),
    ("serve.replicated", "count"),
    ("serve.shed", "count"),
    ("serve.retries", "count"),
    ("serve.tick_ms", "ms"),
    ("sim.plan_ms", "ms"),
    ("sim.fused_ops", "count"),
    ("sim.apply_ms", "ms"),
    ("sim.bytes_moved", "B"),
    ("sim.batch.unique_frac", "ratio"),
    ("sim.threads", "count"),
    ("sim.noisy_shots_per_s", "1/s"),
];

/// One run's outcome.
pub struct Report {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end values by name (untraced runs).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Human-readable provenance and findings, printed before the JSON.
    pub notes: Vec<String>,
    /// Raw latency samples ([`Cycles::dump`]) a part process hands to its
    /// parent.
    pub raw: Vec<String>,
}

impl Report {
    pub fn new(setup_s: f64) -> Self {
        Report {
            setup_s,
            attempted: 0,
            failed: 0,
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            notes: Vec::new(),
            raw: Vec::new(),
        }
    }

    /// Records a per-layer value; the name must be declared in [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.per_layer.insert(name, value);
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED {what}"));
    }

    /// Sets the metrics every workload derives the same way: the latency
    /// summary, `ok_frac` and `peak_rss_mb` (read when the window closes,
    /// before the output checks allocate).
    pub fn finish_common(&mut self, sum: &Summary, peak_rss_mb: f64) {
        self.attempted = self.attempted.max(1);
        let fail_frac = self.failed as f64 / self.attempted as f64;
        self.notes.push(format!(
            "{} samples; throughput {:.4}/s, p50 {:.4} ms, tail p{} {:.4} ms",
            sum.samples,
            sum.throughput,
            sum.p50,
            sum.tail_p * 100.0,
            sum.tail_ms
        ));
        self.notes.push(format!("fail_frac {fail_frac}"));
        self.end_to_end.insert("setup_s", self.setup_s);
        self.end_to_end.insert("throughput_per_s", sum.throughput);
        self.end_to_end.insert("latency_p50_ms", sum.p50);
        self.end_to_end.insert("latency_tail_ms", sum.tail_ms);
        self.end_to_end.insert("ok_frac", 1.0 - fail_frac);
        self.end_to_end.insert("peak_rss_mb", peak_rss_mb);
        self.layer("fail_frac", fail_frac);
    }

    /// Prints a part process's output for its parent: the notes, the raw
    /// samples, and a `part` line with the values the parent combines.
    pub fn print_part(&self) {
        for n in self.notes.iter().chain(&self.raw) {
            println!("{n}");
        }
        let mut line = format!(
            "part setup_s={:?} attempted={} failed={}",
            self.setup_s, self.attempted, self.failed
        );
        for name in ["peak_rss_mb", "cx_total", "depth_total", "success_rate"] {
            let v = self.end_to_end.get(name).copied().unwrap_or(0.0);
            line.push_str(&format!(" {name}={v:?}"));
        }
        println!("{line}");
    }

    /// Prints the notes, then the result object as the last line.
    pub fn print(&self, trace: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        let (names, values) = if trace {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A run's latency summary.
pub struct Summary {
    pub samples: usize,
    pub throughput: f64,
    pub p50: f64,
    /// The tail percentile used, as a fraction.
    pub tail_p: f64,
    pub tail_ms: f64,
}

/// Median (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// The tail percentile of `samples` latencies: the highest of p99, p95,
/// p90, p80 and p75 that keeps at least ten samples beyond it (else p50).
pub fn tail_percentile(samples: usize) -> f64 {
    [0.99, 0.95, 0.9, 0.8, 0.75]
        .into_iter()
        .find(|&p| samples as f64 * (1.0 - p) >= 10.0)
        .unwrap_or(0.5)
}

/// Arithmetic mean (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Latencies of a cyclic workload: every op's latency and every cycle's
/// busy time. The quantiles are taken over the raw latencies; the
/// throughput is one cycle's ops over the median cycle time.
#[derive(Default)]
pub struct Cycles {
    ms: Vec<f64>,
    cycle_s: Vec<f64>,
    ops_per_cycle: usize,
}

impl Cycles {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn end_cycle(&mut self, ops: usize, secs: f64) {
        self.ops_per_cycle = ops;
        self.cycle_s.push(secs);
    }

    pub fn samples(&self) -> usize {
        self.ms.len()
    }

    pub fn latencies(&self) -> &[f64] {
        &self.ms
    }

    pub fn mean(&self) -> f64 {
        mean(&self.ms)
    }

    pub fn summary(&self) -> Summary {
        let tail_p = tail_percentile(self.ms.len());
        Summary {
            samples: self.ms.len(),
            throughput: self.ops_per_cycle as f64 / median(&self.cycle_s).max(1e-9),
            p50: quantile(&self.ms, 0.5),
            tail_p,
            tail_ms: quantile(&self.ms, tail_p),
        }
    }

    /// The raw samples as stdout lines, for a parent process to pool.
    pub fn dump(&self) -> [String; 2] {
        let join = |v: &[f64]| v.iter().map(|x| format!(" {x:?}")).collect::<String>();
        [
            format!("raw_ms{}", join(&self.ms)),
            format!("raw_cycle_s {}{}", self.ops_per_cycle, join(&self.cycle_s)),
        ]
    }

    /// Pools a line written by [`Cycles::dump`]; false for any other line.
    pub fn absorb(&mut self, line: &str) -> bool {
        let nums = |rest: &str| -> Vec<f64> {
            rest.split_whitespace().filter_map(|x| x.parse().ok()).collect()
        };
        if let Some(rest) = line.strip_prefix("raw_ms") {
            self.ms.extend(nums(rest));
        } else if let Some(rest) = line.strip_prefix("raw_cycle_s") {
            let v = nums(rest);
            if let Some((&ops, secs)) = v.split_first() {
                self.ops_per_cycle = ops as usize;
                self.cycle_s.extend_from_slice(secs);
            }
        } else {
            return false;
        }
        true
    }
}

/// Latencies of a fixed set of ops the window repeats: each op's fastest
/// time in the window. The quantiles are taken over the ops' best times and
/// the throughput is the ops over the sum of them, so a run reads the
/// host's fastest stretch of the window rather than its average speed.
#[derive(Default)]
pub struct Best {
    ms: Vec<f64>,
    runs: usize,
}

impl Best {
    pub fn push(&mut self, op: usize, ms: f64) {
        if self.ms.len() <= op {
            self.ms.resize(op + 1, f64::INFINITY);
        }
        self.ms[op] = self.ms[op].min(ms);
        self.runs += 1;
    }

    pub fn summary(&self) -> Summary {
        let best: Vec<f64> = self.ms.iter().copied().filter(|x| x.is_finite()).collect();
        let tail_p = tail_percentile(best.len());
        Summary {
            samples: self.runs,
            throughput: best.len() as f64 / (best.iter().sum::<f64>() / 1e3).max(1e-9),
            p50: quantile(&best, 0.5),
            tail_p,
            tail_ms: quantile(&best, tail_p),
        }
    }
}

/// Width of the completion-time buckets of [`Buckets`].
const BUCKET_S: f64 = 1.0;

/// Latencies of a stationary request stream, bucketed by completion time
/// into [`BUCKET_S`] buckets; each metric is the median over the window's
/// full buckets.
#[derive(Default)]
pub struct Buckets {
    buckets: Vec<Vec<f64>>,
}

impl Buckets {
    pub fn push(&mut self, done_s: f64, ms: f64) {
        let b = (done_s / BUCKET_S) as usize;
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, Vec::new());
        }
        self.buckets[b].push(ms);
    }

    pub fn merge(&mut self, other: Buckets) {
        for (b, v) in other.buckets.into_iter().enumerate() {
            if self.buckets.len() <= b {
                self.buckets.resize(b + 1, Vec::new());
            }
            self.buckets[b].extend(v);
        }
    }

    pub fn samples(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    pub fn mean(&self) -> f64 {
        mean(&self.buckets.concat())
    }

    pub fn summary(&self, window_s: f64) -> Summary {
        let full = ((window_s / BUCKET_S) as usize).clamp(1, self.buckets.len().max(1));
        let buckets = &self.buckets[..full.min(self.buckets.len())];
        let fewest = buckets.iter().map(Vec::len).min().unwrap_or(0);
        let tail_p = tail_percentile(fewest);
        let per = |f: &dyn Fn(&Vec<f64>) -> f64| median(&buckets.iter().map(f).collect::<Vec<_>>());
        Summary {
            samples: self.samples(),
            throughput: per(&|b| b.len() as f64 / BUCKET_S),
            p50: per(&|b| quantile(b, 0.5)),
            tail_p,
            tail_ms: per(&|b| quantile(b, tail_p)),
        }
    }
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: std::time::Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Geometric mean of positive values (1.0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
