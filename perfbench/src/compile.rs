//! `compile-paper`: the paper's evaluation corpus through level 3, Hoare
//! and RPO, one thread, closed loop.
//!
//! One op is one compile. A sweep is corpus × flows × routing seeds in a
//! seeded order; the window runs whole sweeps. The first sweep gives the
//! reference outputs (`cx_total`, `depth_total`); every later sweep must
//! reproduce them exactly. Each sweep runs on the next of the CPUs the
//! process may use ([`crate::cpus`]), and an untraced run's latencies and
//! throughput are taken over each compile's fastest run in the window
//! ([`Best`]).

use crate::check::{answer, unitary_part, verify, Expect};
use crate::cpus::Mask;
use crate::report::{geomean, ms_since, peak_rss_mb, Best, Cycles, Report};
use crate::Args;
use qc_algos::{
    bernstein_vazirani, grover, hidden_string_outcome, qpe, qpe_expected_outcome, quantum_volume,
    quantum_volume_with_depth, ripple_carry_adder, vqe_ry_ansatz, McxDesign, OracleStyle,
};
use qc_backends::Backend;
use qc_circuit::dag::{conversion_counts, reset_conversion_counts};
use qc_circuit::{Circuit, Dag, Gate};
use qc_hoare::{transpile_hoare, HoareOptimizer};
use qc_sim::Statevector;
use qc_transpile::manager::{DagPass, PassStats, PropertySet};
use qc_transpile::preset::{
    dag_stage_layout, dag_stage_route, stage_layout, stage_route, stage_unroll_device,
    transpile_instrumented, validate_input, Transpiled,
};
use qc_transpile::unroll::Unroller;
use qc_transpile::{Pass, TranspileOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rpo_core::{transpile_rpo_instrumented, Qbo, RpoOptions};
use std::time::Instant;

/// Routing trials per compile (the presets' default).
const TRIALS: usize = 5;
/// Routing seeds per paper-sized circuit and flow.
const SEEDS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flow {
    Level3,
    Hoare,
    Rpo,
}

const FLOWS: [Flow; 3] = [Flow::Level3, Flow::Hoare, Flow::Rpo];

impl Flow {
    fn index(self) -> usize {
        self as usize
    }
}

/// One corpus circuit.
struct Input {
    name: String,
    circuit: Circuit,
    backend: usize,
    expect: Expect,
    /// Part of the Table II cells the `rpo.cx_ratio` covers.
    table2: bool,
}

/// One compile: an input, a flow and a routing seed.
#[derive(Clone, Copy)]
struct Job {
    input: usize,
    flow: Flow,
    seed: u64,
}

/// The corpus, with the reference output states its checks compare to.
struct Corpus {
    backends: Vec<Backend>,
    inputs: Vec<Input>,
    states: Vec<Statevector>,
    jobs: Vec<Job>,
}

fn state_input(
    name: String,
    c: Circuit,
    backend: usize,
    table2: bool,
    states: &mut Vec<Statevector>,
) -> Input {
    states.push(Statevector::from_circuit(&unitary_part(&c)));
    Input {
        name,
        expect: Expect::State(states.len() - 1),
        circuit: c,
        backend,
        table2,
    }
}

fn answer_input(name: String, c: Circuit, logical: usize, outcome: usize, table2: bool) -> Input {
    Input {
        name,
        expect: answer(&c, logical, outcome),
        circuit: c,
        backend: 0,
        table2,
    }
}

/// Builds the seeded corpus: the Table II algorithms at 4–8 qubits on
/// melbourne (no-ancilla Grover up to 6, since Grover-8 alone would
/// dominate), Bernstein–Vazirani (Fig. 10), the V-chain Grover with and
/// without annotations and the adder (Table III), and two ~1.5k-gate
/// circuits on almaden.
fn corpus(seed: u64) -> Corpus {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
    let mut states = Vec::new();
    let mut inputs = Vec::new();
    for n in 4..=8usize {
        let k = rng.gen_range(1..1usize << (n - 1));
        let theta = k as f64 / (1u64 << (n - 1)) as f64;
        inputs.push(answer_input(
            format!("qpe{n}"),
            qpe(n - 1, theta),
            n - 1,
            qpe_expected_outcome(n - 1, theta),
            true,
        ));
        let c = vqe_ry_ansatz(n, 2, rng.gen());
        inputs.push(state_input(format!("vqe{n}"), c, 0, true, &mut states));
        let c = quantum_volume(n, rng.gen());
        inputs.push(state_input(format!("qv{n}"), c, 0, true, &mut states));
        let s = half_ones(n - 1, &mut rng);
        inputs.push(answer_input(
            format!("bv{n}"),
            bernstein_vazirani(&s, OracleStyle::Boolean),
            n - 1,
            hidden_string_outcome(&s),
            false,
        ));
    }
    for n in 4..=6usize {
        let marked = rng.gen_range(0..1usize << n);
        inputs.push(answer_input(
            format!("grover{n}"),
            grover(n, marked, 1, McxDesign::NoAncilla),
            n,
            marked,
            true,
        ));
    }
    for (iters, annotate) in [(2, false), (2, true), (4, false), (4, true)] {
        let marked = rng.gen_range(0..1usize << 6);
        let c = grover(6, marked, iters, McxDesign::CleanAncilla { annotate });
        inputs.push(answer_input(
            format!("grover6-vchain{iters}{}", if annotate { "a" } else { "" }),
            c,
            6,
            marked,
            false,
        ));
    }
    for annotate in [false, true] {
        let mut c = Circuit::new(7);
        for q in 0..6 {
            if rng.gen::<bool>() {
                c.x(q);
            }
        }
        c.extend(&ripple_carry_adder(3, annotate));
        inputs.push(state_input(
            format!("adder3{}", if annotate { "a" } else { "" }),
            c,
            0,
            false,
            &mut states,
        ));
    }
    let c = quantum_volume_with_depth(20, 20, rng.gen());
    inputs.push(state_input("qv20x20".into(), c, 1, false, &mut states));
    let k = rng.gen_range(1..1usize << 17);
    let theta = k as f64 / (1u64 << 17) as f64;
    let mut big = answer_input(
        "qpe17".into(),
        qpe(17, theta),
        17,
        qpe_expected_outcome(17, theta),
        false,
    );
    big.backend = 1;
    inputs.push(big);

    // Routing seeds 0, 1, 2, as the paper's protocol; the circuits carry
    // the workload seed.
    let mut jobs = Vec::new();
    for (input, circuit) in inputs.iter().enumerate() {
        // The almaden circuits take two of the seeds: their share of the
        // sweep, and of the output checks, stays bounded.
        let seeds = if circuit.backend == 1 {
            2
        } else {
            SEEDS as u64
        };
        for &flow in &FLOWS {
            for seed in 0..seeds {
                jobs.push(Job { input, flow, seed });
            }
        }
    }
    jobs.shuffle(&mut rng);
    Corpus {
        backends: vec![Backend::melbourne(), Backend::almaden()],
        inputs,
        states,
        jobs,
    }
}

/// A hidden string of `n` bits with half of them set, at seeded positions
/// (the CNOT count of a boolean-oracle BV circuit is the string's weight).
pub fn half_ones(n: usize, rng: &mut StdRng) -> Vec<bool> {
    let mut s: Vec<bool> = (0..n).map(|i| i < n.div_ceil(2)).collect();
    s.shuffle(rng);
    s
}

fn compile(corpus: &Corpus, job: Job) -> Result<(Transpiled, Vec<PassStats>), String> {
    let input = &corpus.inputs[job.input];
    let backend = &corpus.backends[input.backend];
    let base = TranspileOptions::level(3).with_seed(job.seed);
    let out = match job.flow {
        Flow::Level3 => transpile_instrumented(&input.circuit, backend, &base),
        Flow::Hoare => transpile_hoare(&input.circuit, backend, &base).map(|t| (t, Vec::new())),
        Flow::Rpo => transpile_rpo_instrumented(
            &input.circuit,
            backend,
            &RpoOptions::new().with_seed(job.seed),
        ),
    };
    out.map_err(|e| format!("{} {:?} seed {}: {e}", input.name, job.flow, job.seed))
}

/// The per-pass accumulator a `PassStats` label feeds: unroll,
/// optimize_1q, commutative_cancel, cx_cancel, consolidate, QBO, QPO.
fn category(name: &str) -> Option<usize> {
    match name {
        "Unroller" | "Unroller(device)" | "Unroller(extended)" => Some(0),
        "Optimize1qGates" => Some(1),
        "CommutativeCancellation" => Some(2),
        "CxCancellation" => Some(3),
        "ConsolidateBlocks" => Some(4),
        "QBO(early)" | "QBO(post-route)" => Some(5),
        "QPO" => Some(6),
        _ => None,
    }
}

/// Per-layer accumulators of the traced window.
#[derive(Default)]
struct Trace {
    compiles: usize,
    compile_ms: f64,
    flow_ms: [f64; 3],
    flow_n: [usize; 3],
    conversions: [usize; 3],
    to_dag_ms: f64,
    to_circuit_ms: f64,
    /// Compiles of the DAG-native flows (level 3, RPO).
    dag_compiles: usize,
    dag_clone_ms: f64,
    checkpoint_ms: f64,
    validate_ms: f64,
    layout_ms: f64,
    route_ms: f64,
    swaps: usize,
    /// Indexed by [`category`]: ms, runs, rewrites, skipped.
    pass_ms: [f64; 7],
    pass_runs: [usize; 7],
    pass_rewrites: [usize; 7],
    pass_skipped: [usize; 7],
    rpo_compiles: usize,
    degraded: usize,
    /// Compile time of the DAG-native flows, and its part no measured
    /// child covers.
    dag_compile_ms: f64,
    unattributed_ms: f64,
    hoare_pass_ms: f64,
    hoare_cx_removed: usize,
    level3_compiles: usize,
}

/// Times the stages a compile ran, from outside, by replaying them.
/// Returns the measured children's total time, which the closure
/// subtracts, for the DAG-native flows; `None` for Hoare, whose passes
/// report no `PassStats`.
fn trace_compile(
    corpus: &Corpus,
    job: Job,
    out: &Transpiled,
    stats: &[PassStats],
    tr: &mut Trace,
) -> Option<f64> {
    let input = &corpus.inputs[job.input];
    let backend = &corpus.backends[input.backend];
    let t0 = Instant::now();
    let dag = Dag::from_circuit(&input.circuit);
    let to_dag = ms_since(t0);
    drop(dag);
    let out_dag = Dag::from_circuit(&out.circuit);
    let t0 = Instant::now();
    let back = out_dag.to_circuit();
    let to_circuit = ms_since(t0);
    drop(back);
    tr.to_dag_ms += to_dag;
    tr.to_circuit_ms += to_circuit;
    let t0 = Instant::now();
    validate_input(&input.circuit).expect("valid input");
    let mut children = to_dag + to_circuit + ms_since(t0);
    if job.flow == Flow::Hoare {
        // Replays the front of `transpile_hoare` to time layout and routing.
        let mut c = input.circuit.clone();
        stage_unroll_device(&mut c).expect("replay unroll");
        let t0 = Instant::now();
        stage_layout(&mut c, backend, 3).expect("replay layout");
        let layout = ms_since(t0);
        let t0 = Instant::now();
        stage_route(&mut c, backend, job.seed, TRIALS).expect("replay route");
        let route = ms_since(t0);
        tr.swaps += c
            .instructions()
            .iter()
            .filter(|i| matches!(i.gate, Gate::Swap))
            .count();
        tr.layout_ms += layout;
        tr.route_ms += route;
        return None;
    }
    // Replays the prefix up to routing on a fresh DAG to time layout and
    // routing, then clones the routed DAG the way each guarded pass
    // checkpoints it.
    let mut dag = Dag::from_circuit(&input.circuit);
    let mut props = PropertySet::new();
    if job.flow == Flow::Rpo {
        Qbo::new()
            .run_on_dag(&mut dag, &mut props)
            .expect("replay qbo");
    }
    Unroller::to_device_basis()
        .run_on_dag(&mut dag, &mut props)
        .expect("replay unroll");
    let t0 = Instant::now();
    dag_stage_layout(&mut dag, backend, 3).expect("replay layout");
    let layout = ms_since(t0);
    let t0 = Instant::now();
    dag_stage_route(&mut dag, backend, job.seed, TRIALS).expect("replay route");
    let route = ms_since(t0);
    tr.swaps += dag
        .iter()
        .filter(|(_, i)| matches!(i.gate, Gate::Swap))
        .count();
    let t0 = Instant::now();
    let copy = dag.clone();
    let clone = ms_since(t0);
    drop(copy);
    let guarded_runs: usize = stats.iter().map(|s| s.runs).sum();
    // The guard validates the first guarded run and every 16th after it.
    let t0 = Instant::now();
    dag.check_invariants().expect("routed DAG invariants");
    let validate = ms_since(t0) * (1 + guarded_runs / 16) as f64;
    tr.validate_ms += validate;
    children += validate;
    tr.dag_compiles += 1;
    tr.layout_ms += layout;
    tr.route_ms += route;
    tr.dag_clone_ms += clone;
    tr.checkpoint_ms += clone * guarded_runs as f64;
    children += layout + route + clone * guarded_runs as f64;
    for s in stats {
        let wall = s.wall.as_secs_f64() * 1e3;
        children += wall;
        if let Some(i) = category(s.name) {
            tr.pass_ms[i] += wall;
            tr.pass_runs[i] += s.runs;
            tr.pass_rewrites[i] += s.rewrites;
            tr.pass_skipped[i] += s.skipped + s.skipped_interest;
        }
    }
    if job.flow == Flow::Rpo {
        tr.rpo_compiles += 1;
    }
    if job.flow == Flow::Level3 {
        // The Hoare pass on its own, on the level-3 output.
        let mut c = out.circuit.clone();
        let t0 = Instant::now();
        HoareOptimizer::new()
            .run(&mut c)
            .expect("hoare on level-3 output");
        tr.hoare_pass_ms += ms_since(t0);
        tr.hoare_cx_removed += out
            .circuit
            .gate_counts()
            .cx
            .saturating_sub(c.gate_counts().cx);
        tr.level3_compiles += 1;
    }
    Some(children)
}

/// Per-sweep fingerprint: what the determinism self-check compares.
#[derive(Default, PartialEq, Eq)]
struct Fingerprint {
    cx: usize,
    depth: usize,
    runs: usize,
    rewrites: usize,
}

pub fn run(args: &Args, start: Instant) -> Report {
    let corpus = corpus(args.seed);
    // One-time work before the clock: kernel calibration and a first
    // compile of every flow on a small and a large circuit.
    let _ = (
        qc_math::calibrated_cheap_pass_cost(),
        qc_math::calibrated_streaming_pass_cost(),
        qc_math::calibrated_dense3_penalty(),
    );
    for name in ["qpe4", "qv20x20"] {
        let input = corpus
            .inputs
            .iter()
            .position(|i| i.name == name)
            .expect("warm-up input");
        for flow in FLOWS {
            let _ = compile(
                &corpus,
                Job {
                    input,
                    flow,
                    seed: 0,
                },
            );
        }
    }
    let mut report = Report::new(start.elapsed().as_secs_f64());
    if args.setup_only {
        return report;
    }

    let mut reference: Vec<Option<Transpiled>> = vec![None; corpus.jobs.len()];
    let mut fingerprint = Fingerprint::default();
    let mut best = Best::default();
    let mut lat = Cycles::default();
    let mut untraced = Cycles::default();
    let mut tr = Trace::default();
    let mut sweeps = 0usize;
    let mut traced_sweeps = 0usize;
    let window = std::time::Duration::from_secs_f64(args.seconds);
    let half = window / 2;
    let home = Mask::current();
    let cpus = home.as_ref().map_or_else(Vec::new, Mask::cpus);
    let t_start = Instant::now();
    while t_start.elapsed() < window {
        let tracing = args.trace && t_start.elapsed() >= half;
        if !cpus.is_empty() {
            Mask::only(cpus[sweeps % cpus.len()]).apply();
        }
        let mut sweep = Fingerprint::default();
        let mut busy_ms = 0.0;
        for (j, &job) in corpus.jobs.iter().enumerate() {
            report.attempted += 1;
            if tracing {
                reset_conversion_counts();
            }
            let t0 = Instant::now();
            let result = compile(&corpus, job);
            let ms = ms_since(t0);
            busy_ms += ms;
            let (out, stats) = match result {
                Ok(r) => r,
                Err(e) => {
                    report.fail(e);
                    continue;
                }
            };
            if tracing {
                let (c2d, d2c) = conversion_counts();
                tr.conversions[job.flow.index()] += c2d + d2c;
                let children = trace_compile(&corpus, job, &out, &stats, &mut tr);
                tr.compiles += 1;
                tr.compile_ms += ms;
                tr.flow_ms[job.flow.index()] += ms;
                tr.flow_n[job.flow.index()] += 1;
                if let Some(children) = children {
                    tr.dag_compile_ms += ms;
                    tr.unattributed_ms += ms - children;
                }
                tr.degraded += usize::from(!out.degradation.is_clean());
                lat.push(ms);
            } else if args.trace {
                untraced.push(ms);
            } else {
                best.push(j, ms);
            }
            sweep.cx += out.circuit.gate_counts().cx;
            sweep.depth += out.circuit.depth();
            sweep.runs += stats.iter().map(|s| s.runs).sum::<usize>();
            sweep.rewrites += stats.iter().map(|s| s.rewrites).sum::<usize>();
            match &reference[j] {
                None => reference[j] = Some(out),
                Some(first) => {
                    if first.circuit != out.circuit || first.final_map != out.final_map {
                        let input = &corpus.inputs[job.input];
                        report.fail(format!(
                            "nondeterministic output: {} {:?} seed {}",
                            input.name, job.flow, job.seed
                        ));
                    }
                }
            }
        }
        if sweeps == 0 {
            fingerprint = sweep;
        } else if sweep != fingerprint {
            report.fail(format!(
                "sweep {sweeps} totals differ from sweep 0 (cx {} vs {}, depth {} vs {}, runs {} vs {}, rewrites {} vs {})",
                sweep.cx, fingerprint.cx, sweep.depth, fingerprint.depth, sweep.runs, fingerprint.runs,
                sweep.rewrites, fingerprint.rewrites
            ));
        }
        if tracing {
            lat.end_cycle(corpus.jobs.len(), busy_ms / 1e3);
        }
        sweeps += 1;
        traced_sweeps += usize::from(tracing);
    }
    if let Some(home) = &home {
        home.apply();
    }
    let rss = peak_rss_mb();

    // Correctness, outside the window: every distinct output once, spread
    // over the available threads.
    let checked: Vec<(usize, &Transpiled)> = reference
        .iter()
        .enumerate()
        .filter_map(|(j, out)| out.as_ref().map(|o| (j, o)))
        .collect();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let verdicts: Vec<(usize, Result<f64, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (checked, corpus) = (&checked, &corpus);
                s.spawn(move || {
                    checked
                        .iter()
                        .skip(w)
                        .step_by(workers)
                        .map(|&(j, out)| {
                            let input = &corpus.inputs[corpus.jobs[j].input];
                            (j, verify(out, input.expect, &corpus.states))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread"))
            .collect()
    });
    let mut success = Vec::new();
    let mut cx_level3 = vec![0usize; corpus.inputs.len()];
    let mut cx_rpo = vec![0usize; corpus.inputs.len()];
    for (j, verdict) in verdicts {
        let job = corpus.jobs[j];
        let input = &corpus.inputs[job.input];
        match verdict {
            Ok(p) => {
                if matches!(input.expect, Expect::Answer { .. }) {
                    success.push(p);
                }
            }
            Err(why) => report.fail(format!(
                "{} {:?} seed {}: {why}",
                input.name, job.flow, job.seed
            )),
        }
        let cx = reference[j]
            .as_ref()
            .map_or(0, |o| o.circuit.gate_counts().cx);
        match job.flow {
            Flow::Level3 => cx_level3[job.input] += cx,
            Flow::Rpo => cx_rpo[job.input] += cx,
            Flow::Hoare => {}
        }
    }
    let ratios: Vec<f64> = (0..corpus.inputs.len())
        .filter(|&i| corpus.inputs[i].table2 && cx_level3[i] > 0 && cx_rpo[i] > 0)
        .map(|i| cx_rpo[i] as f64 / cx_level3[i] as f64)
        .collect();

    report.notes.push(format!(
        "compile-paper: {} inputs x 3 flows x {SEEDS} seeds (2 on almaden) = {} compiles per sweep, {sweeps} sweeps",
        corpus.inputs.len(),
        corpus.jobs.len()
    ));
    report.notes.push(format!(
        "fingerprint cx_total={} depth_total={} pass_runs={} pass_rewrites={}",
        fingerprint.cx, fingerprint.depth, fingerprint.runs, fingerprint.rewrites
    ));
    report.end_to_end.insert("cx_total", fingerprint.cx as f64);
    report
        .end_to_end
        .insert("depth_total", fingerprint.depth as f64);
    report.end_to_end.insert("success_rate", geomean(&success));
    report.layer("rpo.cx_ratio", geomean(&ratios));
    if args.trace {
        let n = tr.compiles.max(1) as f64;
        let d = tr.dag_compiles.max(1) as f64;
        let s = traced_sweeps.max(1) as f64;
        report.layer("trace.overhead_frac", lat.mean() / untraced.mean() - 1.0);
        report.layer("transpile.compile_ms", tr.compile_ms / n);
        report.layer("circuit.to_dag_ms", tr.to_dag_ms / n);
        report.layer("circuit.to_circuit_ms", tr.to_circuit_ms / n);
        for (flow, name) in [
            (Flow::Level3, "circuit.conversions.level3"),
            (Flow::Hoare, "circuit.conversions.hoare"),
            (Flow::Rpo, "circuit.conversions.rpo"),
        ] {
            let i = flow.index();
            report.layer(name, tr.conversions[i] as f64 / tr.flow_n[i].max(1) as f64);
        }
        for (flow, name) in [
            (Flow::Level3, "flow.level3.ms"),
            (Flow::Hoare, "flow.hoare.ms"),
            (Flow::Rpo, "flow.rpo.ms"),
        ] {
            let i = flow.index();
            report.layer(name, tr.flow_ms[i] / tr.flow_n[i].max(1) as f64);
        }
        report.layer("circuit.dag_clone_ms", tr.dag_clone_ms / d);
        report.layer("transpile.checkpoint_est_ms", tr.checkpoint_ms / d);
        report.layer("transpile.validate_est_ms", tr.validate_ms / d);
        report.layer("transpile.layout_ms", tr.layout_ms / n);
        report.layer("transpile.route_ms", tr.route_ms / n);
        report.layer("transpile.route_swaps", tr.swaps as f64 / s);
        const PASS_NAMES: [[&str; 4]; 5] = [
            [
                "transpile.pass.unroll.ms",
                "transpile.pass.unroll.runs",
                "transpile.pass.unroll.rewrites",
                "transpile.pass.unroll.skipped",
            ],
            [
                "transpile.pass.optimize_1q.ms",
                "transpile.pass.optimize_1q.runs",
                "transpile.pass.optimize_1q.rewrites",
                "transpile.pass.optimize_1q.skipped",
            ],
            [
                "transpile.pass.commutative_cancel.ms",
                "transpile.pass.commutative_cancel.runs",
                "transpile.pass.commutative_cancel.rewrites",
                "transpile.pass.commutative_cancel.skipped",
            ],
            [
                "transpile.pass.cx_cancel.ms",
                "transpile.pass.cx_cancel.runs",
                "transpile.pass.cx_cancel.rewrites",
                "transpile.pass.cx_cancel.skipped",
            ],
            [
                "transpile.pass.consolidate.ms",
                "transpile.pass.consolidate.runs",
                "transpile.pass.consolidate.rewrites",
                "transpile.pass.consolidate.skipped",
            ],
        ];
        for (i, names) in PASS_NAMES.iter().enumerate() {
            report.layer(names[0], tr.pass_ms[i] / d);
            report.layer(names[1], tr.pass_runs[i] as f64 / s);
            report.layer(names[2], tr.pass_rewrites[i] as f64 / s);
            report.layer(names[3], tr.pass_skipped[i] as f64 / s);
        }
        let r = tr.rpo_compiles.max(1) as f64;
        report.layer("rpo.qbo.ms", tr.pass_ms[5] / r);
        report.layer("rpo.qbo.rewrites", tr.pass_rewrites[5] as f64 / s);
        report.layer("rpo.qpo.ms", tr.pass_ms[6] / r);
        report.layer("rpo.qpo.rewrites", tr.pass_rewrites[6] as f64 / s);
        report.layer("transpile.degraded", tr.degraded as f64 / s);
        report.layer("transpile.unattributed_ms", tr.unattributed_ms / d);
        report.layer(
            "transpile.unattributed_frac",
            tr.unattributed_ms / tr.dag_compile_ms.max(1e-9),
        );
        let l = tr.level3_compiles.max(1) as f64;
        report.layer("hoare.pass_ms", tr.hoare_pass_ms / l);
        report.layer("hoare.cx_removed", tr.hoare_cx_removed as f64 / s);
        report.notes.push(format!(
            "traced {} compiles in {traced_sweeps} sweeps; untraced {} compiles",
            tr.compiles,
            untraced.samples()
        ));
    }
    if args.trace {
        report.finish_common(&lat.summary(), rss);
    } else {
        report.notes.push(format!(
            "latencies and throughput over each compile's best of {sweeps} sweeps"
        ));
        report.finish_common(&best.summary(), rss);
    }
    report
}
