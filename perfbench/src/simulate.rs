//! `simulate`: the simulator on its own, pool capped at `nproc`.
//!
//! One op is one simulation: a streaming-regime statevector (n ≥ 18), a
//! batch of small VQE states with repeats, or a shot batch of the Fig. 11
//! noisy 3-qubit QPE. A round runs every op in a fixed order; the window
//! runs whole rounds. Every compile happens in set-up.

use crate::check::{ideal_success_of, input_success};
use crate::compile::half_ones;
use crate::report::{geomean, median, ms_since, peak_rss_mb, Cycles, Report};
use crate::Args;
use qc_algos::{
    bernstein_vazirani, hidden_string_outcome, qpe, qpe_expected_outcome,
    quantum_volume_with_depth, vqe_parameter_batch, vqe_ry_ansatz, OracleStyle,
};
use qc_backends::Backend;
use qc_circuit::{fuse_instructions_with, schedule_fused, Circuit, FusionProfile, Gate};
use qc_sim::{run_batch_with_report, NoiseModel, NoisySimulator, Statevector};
use qc_transpile::preset::Transpiled;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rpo_core::{transpile_rpo, RpoOptions};
use rpo_experiments::{noise_of, success_rate};
use std::collections::BTreeMap;
use std::time::Instant;

/// Depth of the 20-qubit QV chain.
const QV_DEPTH: usize = 10;
/// Width and depth of the large VQE ansatz.
const VQE_QUBITS: usize = 21;
const VQE_DEPTH: usize = 4;
/// The batch: distinct 12-qubit VQE states plus repeats of some of them.
const BATCH_QUBITS: usize = 12;
const BATCH_UNIQUE: usize = 48;
const BATCH_REPEATS: usize = 16;
/// Shots per noisy op, and for the `success_rate` estimate.
const SHOTS: usize = 8192;
const RATE_SHOTS: usize = 65536;
/// The statevector's shard size (2¹⁶ amplitudes) and streaming threshold.
const SHARD_QUBITS: usize = 16;
const STREAM_MIN_QUBITS: usize = 18;

/// A large statevector op, with its known answer if it has one.
struct Big {
    name: &'static str,
    circuit: Circuit,
    /// (final map, logical qubits, outcome) of a compiled known-answer
    /// circuit.
    answer: Option<(Vec<usize>, usize, usize)>,
}

/// One Fig. 11 device: the RPO-compiled 3-qubit QPE and its noise.
struct Noisy {
    compiled: Transpiled,
    compact: Circuit,
    noise: NoiseModel,
}

#[derive(Clone, Copy)]
enum Op {
    Big(usize),
    Batch,
    Noisy(usize),
}

/// Splits a circuit into unitary segments, as `Statevector::from_circuit`
/// does at measurements and resets.
fn segments(c: &Circuit) -> Vec<&[qc_circuit::Instruction]> {
    c.instructions()
        .split(|i| matches!(i.gate, Gate::Measure | Gate::Reset))
        .filter(|s| !s.is_empty())
        .collect()
}

/// Plans and schedules a circuit the way the statevector does; returns
/// (plan ms, fused ops, streaming passes).
fn plan(c: &Circuit) -> (f64, usize, usize) {
    let n = c.num_qubits();
    let t0 = Instant::now();
    let (mut ops, mut passes) = (0, 0);
    for seg in segments(c) {
        let mut plan = fuse_instructions_with(seg, n, FusionProfile::statevector(n));
        ops += plan.len();
        if n >= STREAM_MIN_QUBITS {
            for g in schedule_fused(&mut plan, SHARD_QUBITS) {
                passes += if g.local && g.len >= 2 { 1 } else { g.len };
            }
        } else {
            passes += plan.len();
        }
    }
    (ms_since(t0), ops, passes)
}

pub fn run(args: &Args, start: Instant) -> Report {
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x51a7);
    let almaden = Backend::almaden();
    let k = rng.gen_range(1..1usize << 17);
    let theta = k as f64 / (1u64 << 17) as f64;
    // Routing seed 0, as Fig. 11: the compiler is not under test here.
    let qpe17 =
        transpile_rpo(&qpe(17, theta), &almaden, &RpoOptions::new()).expect("qpe17 compiles");
    let (qpe17_compact, old_of_new) = qpe17.circuit.compacted();
    let qpe17_map = qpe17
        .final_map
        .iter()
        .map(|p| {
            old_of_new
                .iter()
                .position(|o| o == p)
                .expect("logical wire used")
        })
        .collect();
    let bv = half_ones(19, &mut rng);
    let bigs = [
        Big {
            name: "qv20",
            circuit: quantum_volume_with_depth(20, QV_DEPTH, rng.gen()),
            answer: None,
        },
        Big {
            name: "qpe17-rpo",
            circuit: qpe17_compact,
            answer: Some((qpe17_map, 17, qpe_expected_outcome(17, theta))),
        },
        Big {
            name: "vqe",
            circuit: vqe_ry_ansatz(VQE_QUBITS, VQE_DEPTH, rng.gen()),
            answer: None,
        },
        Big {
            name: "bv20",
            circuit: bernstein_vazirani(&bv, OracleStyle::Boolean),
            answer: Some(((0..20).collect(), 19, hidden_string_outcome(&bv))),
        },
    ];
    let mut batch = vqe_parameter_batch(BATCH_QUBITS, 3, BATCH_UNIQUE, rng.gen());
    for _ in 0..BATCH_REPEATS {
        let c = batch[rng.gen_range(0..BATCH_UNIQUE)].clone();
        batch.push(c);
    }
    batch.shuffle(&mut rng);
    // Fig. 11: the 3-qubit QPE with θ = 7/8, RPO-compiled per device.
    let fig11 = qpe(3, 7.0 / 8.0);
    let noisy: Vec<Noisy> = [
        Backend::melbourne(),
        Backend::almaden(),
        Backend::rochester(),
    ]
    .iter()
    .map(|b| {
        let compiled = transpile_rpo(&fig11, b, &RpoOptions::new()).expect("fig11 compiles");
        Noisy {
            compact: compiled.circuit.compacted().0,
            compiled,
            noise: noise_of(b),
        }
    })
    .collect();
    // Sorted by latency, a round holds six batches, two `bv20`s, three shot
    // batches and three larger statevectors: the median falls on the
    // `bv20` ops and the tail on the slowest statevectors.
    let ops = [
        Op::Big(0),
        Op::Batch,
        Op::Noisy(0),
        Op::Big(3),
        Op::Batch,
        Op::Big(1),
        Op::Batch,
        Op::Noisy(1),
        Op::Batch,
        Op::Big(2),
        Op::Batch,
        Op::Noisy(2),
        Op::Big(3),
        Op::Batch,
    ];
    // One-time work before the clock: calibration and a first fusion plan.
    let _ = (
        qc_math::calibrated_cheap_pass_cost(),
        qc_math::calibrated_streaming_pass_cost(),
        qc_math::calibrated_dense3_penalty(),
    );
    let _ = Statevector::from_circuit(&batch[0]);
    let _ = plan(&bigs[0].circuit);
    let mut report = Report::new(start.elapsed().as_secs_f64());
    if args.setup_only {
        return report;
    }

    let mut lat = Cycles::default();
    let mut untraced = Cycles::default();
    let mut by_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut last_big: Vec<Option<Statevector>> = vec![None; bigs.len()];
    let mut last_batch = Vec::new();
    let (mut plan_ms, mut apply_ms, mut fused, mut bytes, mut traced_bigs) = (0.0, 0.0, 0, 0.0, 0);
    let (mut unique, mut submitted, mut threads) = (0, 0, 0);
    let (mut shots, mut shot_ms) = (0usize, 0.0);
    let window = std::time::Duration::from_secs_f64(args.seconds);
    let t_start = Instant::now();
    let mut round = 0u64;
    while t_start.elapsed() < window {
        let tracing = args.trace && t_start.elapsed() >= window / 2;
        let sink = if tracing || !args.trace {
            &mut lat
        } else {
            &mut untraced
        };
        let mut busy_ms = 0.0;
        for &op in &ops {
            report.attempted += 1;
            let t0 = Instant::now();
            let (name, ms) = match op {
                Op::Big(i) => {
                    let sv = Statevector::from_circuit(&bigs[i].circuit);
                    let ms = ms_since(t0);
                    if tracing {
                        let (p, n_ops, passes) = plan(&bigs[i].circuit);
                        plan_ms += p;
                        apply_ms += ms - p;
                        fused += n_ops;
                        bytes +=
                            32.0 * (1u64 << bigs[i].circuit.num_qubits()) as f64 * passes as f64;
                        traced_bigs += 1;
                    }
                    last_big[i] = Some(sv);
                    (bigs[i].name, ms)
                }
                Op::Batch => {
                    let (states, rep) = run_batch_with_report(&batch);
                    let ms = ms_since(t0);
                    unique = rep.unique;
                    submitted = rep.circuits;
                    threads = rep.threads;
                    last_batch = states;
                    ("batch", ms)
                }
                Op::Noisy(d) => {
                    let mut sim = NoisySimulator::new(noisy[d].noise, args.seed ^ round);
                    let counts = sim.run(&noisy[d].compact, SHOTS);
                    let ms = ms_since(t0);
                    if counts.values().sum::<usize>() != SHOTS {
                        report.fail(format!("noisy device {d}: shot count"));
                    }
                    if tracing {
                        shots += SHOTS;
                        shot_ms += ms;
                    }
                    ("noisy", ms)
                }
            };
            busy_ms += ms;
            sink.push(ms);
            by_op.entry(name).or_default().push(ms);
        }
        sink.end_cycle(ops.len(), busy_ms / 1e3);
        round += 1;
    }
    let rss = peak_rss_mb();

    // Correctness, outside the window.
    for (i, b) in bigs.iter().enumerate() {
        let Some(sv) = &last_big[i] else { continue };
        let norm: f64 = sv.probabilities().iter().sum();
        if (norm - 1.0).abs() > 1e-9 {
            report.fail(format!("{}: norm {norm}", b.name));
        }
        if let Some((map, logical, outcome)) = &b.answer {
            let p = ideal_success_of(sv, map, *logical, *outcome);
            if p < 1.0 - 1e-6 {
                report.fail(format!("{}: known-answer probability {p}", b.name));
            }
        }
    }
    // Batch states must be bit-identical to sequential simulation.
    for (c, sv) in batch.iter().zip(&last_batch) {
        if Statevector::from_circuit(c).amplitudes() != sv.amplitudes() {
            report.fail("batch state differs from sequential from_circuit".into());
            break;
        }
    }
    let expected = qpe_expected_outcome(3, 7.0 / 8.0);
    let p_ideal = input_success(&fig11, 3, expected);
    let mut rates = Vec::new();
    for (d, n) in noisy.iter().enumerate() {
        let sv = Statevector::from_circuit(&n.compact);
        let ideal = ideal_success_of(&sv, &compact_map(&n.compiled), 3, expected);
        if (ideal - p_ideal).abs() > 1e-6 {
            report.fail(format!(
                "fig11 device {d}: ideal success {ideal} vs {p_ideal}"
            ));
        }
        let seed = args.seed ^ 0xf11;
        rates.push(success_rate(
            &n.compiled,
            3,
            expected,
            n.noise,
            RATE_SHOTS,
            seed,
        ));
    }
    let one_round: Vec<&Circuit> = bigs
        .iter()
        .map(|b| &b.circuit)
        .chain(&batch)
        .chain(noisy.iter().map(|n| &n.compact))
        .collect();
    report.end_to_end.insert(
        "cx_total",
        one_round.iter().map(|c| c.gate_counts().cx).sum::<usize>() as f64,
    );
    report.end_to_end.insert(
        "depth_total",
        one_round.iter().map(|c| c.depth()).sum::<usize>() as f64,
    );
    report.end_to_end.insert("success_rate", geomean(&rates));
    report.notes.push(format!(
        "simulate: {round} rounds of {} ops; statevectors {}; batch {} circuits ({} unique)",
        ops.len(),
        bigs.iter()
            .map(|b| format!("{}={}q", b.name, b.circuit.num_qubits()))
            .collect::<Vec<_>>()
            .join(" "),
        batch.len(),
        BATCH_UNIQUE
    ));
    report.notes.push(format!(
        "median ms per op: {}",
        by_op
            .iter()
            .map(|(name, l)| format!("{name}={:.2}", median(l)))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if args.trace {
        let t = traced_bigs.max(1) as f64;
        report.layer("trace.overhead_frac", lat.mean() / untraced.mean() - 1.0);
        report.layer("sim.plan_ms", plan_ms / t);
        report.layer("sim.apply_ms", apply_ms / t);
        report.layer("sim.fused_ops", fused as f64 / t);
        report.layer("sim.bytes_moved", bytes / t);
        report.layer(
            "sim.batch.unique_frac",
            unique as f64 / submitted.max(1) as f64,
        );
        report.layer("sim.threads", threads as f64);
        report.layer(
            "sim.noisy_shots_per_s",
            shots as f64 / (shot_ms / 1e3).max(1e-9),
        );
    }
    report.raw = lat.dump().to_vec();
    report.finish_common(&lat.summary(), rss);
    report
}

/// Logical → compacted-wire map of a compiled circuit.
fn compact_map(t: &Transpiled) -> Vec<usize> {
    let (_, old_of_new) = t.circuit.compacted();
    t.final_map
        .iter()
        .map(|p| old_of_new.iter().position(|o| o == p).unwrap_or(usize::MAX))
        .collect()
}
