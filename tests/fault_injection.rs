//! The deterministic fault-injection sweep: every guarded stage of the
//! RPO and Hoare pipelines × every fault kind × several seeds, asserting
//! that no panic escapes the public API, that the output (when any) is
//! still behaviorally correct, and that the containment is visible on the
//! [`DegradationReport`].
//!
//! Compiled only under `--features fault-inject`.
#![cfg(feature = "fault-inject")]

use qc_backends::Backend;
use qc_circuit::testing::random_circuit;
use qc_circuit::Circuit;
use qc_hoare::transpile_hoare;
use qc_sim::Statevector;
use qc_transpile::fault::{arm, armed_for, disarm, FaultKind, FaultPlan};
use qc_transpile::preset::Transpiled;
use qc_transpile::{TranspileBudget, TranspileOptions};
use rpo_core::{transpile_rpo, RpoOptions};
use std::time::Duration;

/// Every stage label the guarded RPO pipeline runs a [`qc_transpile::DagPass`]
/// under — the injection sites of the sweep.
const RPO_STAGES: &[&str] = &[
    "QBO(early)",
    "QBO(post-route)",
    "Unroller(device)",
    "Unroller(extended)",
    "Optimize1qGates",
    "QPO",
    "CommutativeCancellation",
    "CxCancellation",
    "ConsolidateBlocks",
];

/// Every stage label the guarded Hoare pipeline (level 3 plus the
/// appended pass) runs a [`qc_transpile::DagPass`] under.
const HOARE_STAGES: &[&str] = &[
    "Unroller(device)",
    "Optimize1qGates",
    "CommutativeCancellation",
    "CxCancellation",
    "ConsolidateBlocks",
    "HoareOptimizer",
];

/// The guarded flows the sweep drives.
#[derive(Clone, Copy, Debug)]
enum Flow {
    Rpo,
    Hoare,
}

const FLOWS: [Flow; 2] = [Flow::Rpo, Flow::Hoare];

impl Flow {
    fn stages(self) -> &'static [&'static str] {
        match self {
            Flow::Rpo => RPO_STAGES,
            Flow::Hoare => HOARE_STAGES,
        }
    }

    /// Compiles `c` for a 4-qubit line under `budget`.
    fn compile(
        self,
        c: &Circuit,
        seed: u64,
        budget: TranspileBudget,
    ) -> Result<Transpiled, qc_circuit::RpoError> {
        let base = TranspileOptions::level(3)
            .with_seed(seed)
            .with_routing_trials(2)
            .with_budget(budget);
        let backend = Backend::linear(4);
        match self {
            Flow::Rpo => transpile_rpo(
                c,
                &backend,
                &RpoOptions {
                    base,
                    ..RpoOptions::new()
                },
            ),
            Flow::Hoare => transpile_hoare(c, &backend, &base),
        }
    }
}

const SEEDS: [u64; 3] = [1, 5, 11];

/// A small unitary-only test circuit (no measures, so full-state fidelity
/// is well defined). Deterministic per seed.
fn test_circuit(seed: u64) -> Circuit {
    random_circuit(3, 12, seed)
}

/// Fidelity of a transpiled circuit's output state against the reference
/// state of the untranspiled input, read through the final wire map (the
/// `end_to_end.rs` idiom: amplitudes on helper wires must be residue-free).
fn fidelity_vs_reference(t: &Transpiled, reference: &Statevector) -> f64 {
    let (compact, old_of_new) = t.circuit.compacted();
    let sv = Statevector::from_circuit(&compact);
    let mut overlap = qc_math::C64::ZERO;
    for (idx, amp) in sv.amplitudes().iter().enumerate() {
        if amp.norm() < 1e-12 {
            continue;
        }
        let mut logical = 0usize;
        let mut extra = false;
        for (ci, &old) in old_of_new.iter().enumerate() {
            if (idx >> ci) & 1 == 1 {
                match t.final_map.iter().position(|&p| p == old) {
                    Some(l) => logical |= 1 << l,
                    None => extra = true,
                }
            }
        }
        if !extra {
            overlap += reference.amplitudes()[logical].conj() * *amp;
        }
    }
    overlap.norm_sqr()
}

/// One faulted transpile. Returns the result plus whether the fault
/// actually fired — interest filtering in the fixed-point loop may skip a
/// pass entirely for a given circuit, in which case the armed plan is
/// never consumed and no degradation is expected.
fn faulted_run(
    flow: Flow,
    stage: &str,
    kind: FaultKind,
    seed: u64,
) -> (Result<Transpiled, qc_circuit::RpoError>, bool) {
    arm(FaultPlan {
        pass: stage.to_string(),
        kind,
    });
    let result = flow.compile(&test_circuit(seed), seed, TranspileBudget::unlimited());
    let fired = !armed_for(stage);
    disarm();
    (result, fired)
}

fn assert_contained(
    flow: Flow,
    stage: &str,
    kind: &FaultKind,
    seed: u64,
    fired: bool,
    result: Result<Transpiled, qc_circuit::RpoError>,
) {
    match result {
        Ok(t) => {
            let reference = Statevector::from_circuit(&test_circuit(seed));
            let f = fidelity_vs_reference(&t, &reference);
            assert!(
                f > 1.0 - 1e-7,
                "{flow:?} {stage}/{kind:?}/seed {seed}: output fidelity dropped to {f}"
            );
            assert!(
                !fired || !t.degradation.is_clean(),
                "{flow:?} {stage}/{kind:?}/seed {seed}: fault fired but was not reported"
            );
        }
        Err(e) => {
            // A typed error is an acceptable outcome (e.g. quarantining a
            // mandatory unroll stage leaves gates the router rejects) —
            // the contract is "typed error or valid circuit", never a
            // panic or silent corruption.
            let _ = e.to_string();
        }
    }
}

#[test]
fn panicking_passes_never_escape_and_output_stays_correct() {
    // Panic payloads would otherwise spam the test log through the
    // default hook; the guard catches every one of these.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut unfired = Vec::new();
    for flow in FLOWS {
        for &stage in flow.stages() {
            let mut any_fired = false;
            for kind in [FaultKind::PanicBefore, FaultKind::PanicAfter] {
                for seed in SEEDS {
                    let (r, fired) = faulted_run(flow, stage, kind.clone(), seed);
                    any_fired |= fired;
                    assert_contained(flow, stage, &kind, seed, fired, r);
                }
            }
            if !any_fired {
                unfired.push(format!("{flow:?} {stage}"));
            }
        }
    }
    std::panic::set_hook(hook);
    // The sweep must actually exercise every injection site on at least
    // one seed — otherwise interest filtering could quietly hollow it out.
    assert!(
        unfired.is_empty(),
        "injection sites never fired on any seed: {unfired:?}"
    );
}

#[test]
fn bad_unitary_injection_is_caught_by_validation() {
    for flow in FLOWS {
        for &stage in flow.stages() {
            for seed in SEEDS {
                let (r, fired) = faulted_run(flow, stage, FaultKind::BadUnitary, seed);
                let Ok(t) = r else {
                    continue;
                };
                let reference = Statevector::from_circuit(&test_circuit(seed));
                let f = fidelity_vs_reference(&t, &reference);
                assert!(
                    f > 1.0 - 1e-7,
                    "{flow:?} {stage}/BadUnitary/seed {seed}: fidelity {f}"
                );
                // When the corruption actually fired, the pass must have
                // been rolled back and quarantined — and no non-unitary
                // matrix may survive either way.
                assert!(
                    !fired || t.degradation.is_quarantined(stage),
                    "{flow:?} {stage}/seed {seed}: corruption not quarantined: {:?}",
                    t.degradation
                );
                for inst in t.circuit.instructions() {
                    if let qc_circuit::Gate::Unitary(m) = &inst.gate {
                        assert!(m.is_unitary(1e-6), "corrupt matrix escaped");
                    }
                }
            }
        }
    }
}

#[test]
fn stalling_passes_degrade_gracefully_under_deadline() {
    let budget = TranspileBudget::unlimited().with_deadline(Duration::from_millis(40));
    for flow in FLOWS {
        for &stage in flow.stages() {
            for seed in SEEDS {
                let c = test_circuit(seed);
                arm(FaultPlan {
                    pass: stage.to_string(),
                    kind: FaultKind::Stall(Duration::from_millis(120)),
                });
                let result = flow.compile(&c, seed, budget);
                let fired = !armed_for(stage);
                disarm();
                let Ok(t) = result else {
                    continue;
                };
                let reference = Statevector::from_circuit(&c);
                let f = fidelity_vs_reference(&t, &reference);
                assert!(
                    f > 1.0 - 1e-7,
                    "{flow:?} {stage}/Stall/seed {seed}: fidelity {f}"
                );
                assert!(
                    !fired || !t.degradation.is_clean(),
                    "{flow:?} {stage}/Stall/seed {seed}: deadline overrun unreported"
                );
            }
        }
    }
}

#[test]
fn unfaulted_runs_are_clean() {
    disarm();
    for flow in FLOWS {
        for seed in SEEDS {
            let c = test_circuit(seed);
            let t = flow
                .compile(&c, seed, TranspileBudget::unlimited())
                .expect("healthy run");
            assert!(
                t.degradation.is_clean(),
                "{flow:?} seed {seed}: healthy run reported degradation: {:?}",
                t.degradation
            );
            let reference = Statevector::from_circuit(&c);
            let f = fidelity_vs_reference(&t, &reference);
            assert!(f > 1.0 - 1e-7, "{flow:?} seed {seed}: fidelity {f}");
        }
    }
}
