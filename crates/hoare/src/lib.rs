//! Hoare-logic circuit optimizer — the baseline the RPO paper compares
//! against (Häner, Hoefler & Troyer; shipped in Qiskit as
//! `HoareOptimizer`).
//!
//! The Qiskit pass expresses per-qubit pre/postconditions as Z3 constraints
//! and removes gates whose triviality condition is implied. For the
//! benchmark circuits those conditions are decidable by direct forward
//! propagation of *classical* Z-basis predicates — a qubit is known-|0⟩,
//! known-|1⟩, or unknown — so this reimplementation substitutes a
//! propagation engine for the SMT solver. This is a substitution, not an
//! equivalence: a solver can also prove conditions that relate unknown
//! qubits to each other (say, two wires provably equal), which forward
//! propagation cannot. What the engine does find is exactly the Z-basis
//! subset of QBO's rewrites, matching the paper's observation that "all
//! the gates that are optimized by the hoare logic pass can be captured by
//! our RPO pass" (Section VIII-B).
//!
//! The engine is linear in the circuit, where the Qiskit pass issues
//! solver queries per gate and grows markedly slower on larger circuits.
//! Transpile times of this baseline are therefore not comparable to the
//! paper's Hoare timings; only its gate counts are.
//!
//! [`transpile_hoare`] runs the paper's flow — level 3 with this pass
//! appended — on the guarded DAG driver shared with the other two flows
//! ([`qc_transpile::preset::GuardedPipeline`]).

use qc_backends::Backend;
use qc_circuit::{ChangeReport, Circuit, Dag, DagEdit, Gate, Instruction};
use qc_transpile::optimize_1q::Optimize1qGates;
use qc_transpile::preset::{GuardedPipeline, Transpiled};
use qc_transpile::{
    DagPass, Pass, PassInterest, PassStats, PropertySet, TranspileError, TranspileOptions,
};
use std::collections::VecDeque;

/// Classical knowledge about one qubit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Classical {
    /// Known computational-basis value.
    Value(bool),
    /// Superposition / unknown.
    Unknown,
}

/// The Hoare-logic optimization pass (classical-predicate engine).
#[derive(Clone, Debug, Default)]
pub struct HoareOptimizer;

impl HoareOptimizer {
    /// Creates the pass.
    pub fn new() -> Self {
        HoareOptimizer
    }

    fn rewrite(inst: &Instruction, st: &[Classical]) -> Option<Vec<Instruction>> {
        let q = &inst.qubits;
        match &inst.gate {
            // Diagonal gates act trivially (up to global phase) on
            // classical states — the pass's "triviality condition".
            Gate::Z | Gate::S | Gate::Sdg | Gate::T | Gate::Tdg | Gate::Rz(_) | Gate::U1(_) => {
                if matches!(st[q[0]], Classical::Value(_)) {
                    Some(vec![])
                } else {
                    None
                }
            }
            Gate::Cx => match (st[q[0]], st[q[1]]) {
                (Classical::Value(false), _) => Some(vec![]),
                (Classical::Value(true), _) => Some(vec![Instruction::new(Gate::X, vec![q[1]])]),
                _ => None,
            },
            Gate::Cz | Gate::Cp(_) => match (st[q[0]], st[q[1]]) {
                (Classical::Value(false), _) | (_, Classical::Value(false)) => Some(vec![]),
                (Classical::Value(true), _) => Some(vec![Instruction::new(
                    diag_residual(&inst.gate),
                    vec![q[1]],
                )]),
                (_, Classical::Value(true)) => Some(vec![Instruction::new(
                    diag_residual(&inst.gate),
                    vec![q[0]],
                )]),
                _ => None,
            },
            Gate::Ccx => match (st[q[0]], st[q[1]], st[q[2]]) {
                (Classical::Value(false), _, _) | (_, Classical::Value(false), _) => Some(vec![]),
                (Classical::Value(true), _, _) => {
                    Some(vec![Instruction::new(Gate::Cx, vec![q[1], q[2]])])
                }
                (_, Classical::Value(true), _) => {
                    Some(vec![Instruction::new(Gate::Cx, vec![q[0], q[2]])])
                }
                _ => None,
            },
            Gate::Mcx(n) => {
                let controls = &q[..*n];
                if controls.iter().any(|&c| st[c] == Classical::Value(false)) {
                    return Some(vec![]);
                }
                let remaining: Vec<usize> = controls
                    .iter()
                    .copied()
                    .filter(|&c| st[c] != Classical::Value(true))
                    .collect();
                if remaining.len() < controls.len() {
                    let mut qs = remaining.clone();
                    qs.push(q[*n]);
                    let g = match remaining.len() {
                        0 => Gate::X,
                        1 => Gate::Cx,
                        2 => Gate::Ccx,
                        k => Gate::Mcx(k),
                    };
                    return Some(vec![Instruction::new(g, qs)]);
                }
                None
            }
            Gate::Mcz(_) => {
                if q.iter().any(|&c| st[c] == Classical::Value(false)) {
                    return Some(vec![]);
                }
                None
            }
            Gate::Cswap => match st[q[0]] {
                Classical::Value(false) => Some(vec![]),
                Classical::Value(true) => {
                    Some(vec![Instruction::new(Gate::Swap, vec![q[1], q[2]])])
                }
                _ => {
                    if st[q[1]] != Classical::Unknown && st[q[1]] == st[q[2]] {
                        Some(vec![]) // swapping equal classical values
                    } else {
                        None
                    }
                }
            },
            Gate::Swap => {
                if st[q[0]] != Classical::Unknown && st[q[0]] == st[q[1]] {
                    Some(vec![])
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn transition(st: &mut [Classical], gate: &Gate, qubits: &[usize]) {
        match gate {
            Gate::Barrier(_) | Gate::Annot(_, _) => {}
            Gate::Reset => st[qubits[0]] = Classical::Value(false),
            Gate::Measure => {}
            Gate::X => {
                st[qubits[0]] = match st[qubits[0]] {
                    Classical::Value(v) => Classical::Value(!v),
                    Classical::Unknown => Classical::Unknown,
                }
            }
            Gate::Y => {
                st[qubits[0]] = match st[qubits[0]] {
                    Classical::Value(v) => Classical::Value(!v),
                    Classical::Unknown => Classical::Unknown,
                }
            }
            // Diagonal gates preserve classical values.
            Gate::I
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rz(_)
            | Gate::U1(_) => {}
            Gate::Swap => st.swap(qubits[0], qubits[1]),
            Gate::Cx => {
                let (c, t) = (qubits[0], qubits[1]);
                st[t] = match (st[c], st[t]) {
                    (Classical::Value(a), Classical::Value(b)) => Classical::Value(a ^ b),
                    _ => Classical::Unknown,
                };
            }
            Gate::Ccx => {
                let (c1, c2, t) = (qubits[0], qubits[1], qubits[2]);
                st[t] = match (st[c1], st[c2], st[t]) {
                    (Classical::Value(a), Classical::Value(b), Classical::Value(v)) => {
                        Classical::Value(v ^ (a && b))
                    }
                    _ => Classical::Unknown,
                };
            }
            Gate::Cz | Gate::Cp(_) | Gate::Mcz(_) => {} // diagonal
            g if g.num_qubits() == 1 => st[qubits[0]] = Classical::Unknown,
            _ => {
                for &q in qubits {
                    st[q] = Classical::Unknown;
                }
            }
        }
    }
}

fn diag_residual(g: &Gate) -> Gate {
    match g {
        Gate::Cz => Gate::Z,
        Gate::Cp(l) => Gate::U1(*l),
        _ => unreachable!("only symmetric diagonal gates have residuals"),
    }
}

impl HoareOptimizer {
    /// Runs the propagation-driven rewrite over an instruction stream,
    /// returning the final expansion of each input instruction — `None`
    /// when the instruction is kept untouched, `Some(insts)` (possibly
    /// empty) when a rewrite chain fired. The shared core of the
    /// circuit-level and DAG-native drivers.
    ///
    /// # Errors
    ///
    /// Fails when a rewrite chain does not terminate (a bug).
    fn expand_stream<'a>(
        insts: impl Iterator<Item = &'a Instruction>,
        num_qubits: usize,
    ) -> Result<Vec<Option<Vec<Instruction>>>, TranspileError> {
        let mut st = vec![Classical::Value(false); num_qubits];
        let mut out: Vec<Option<Vec<Instruction>>> = Vec::new();
        for inst in insts {
            // Most gates are not rewritten: keep them without a copy.
            let Some(first) = Self::rewrite(inst, &st) else {
                Self::transition(&mut st, &inst.gate, &inst.qubits);
                out.push(None);
                continue;
            };
            let mut queue: VecDeque<Instruction> = first.into();
            // 64 rewrite steps per input gate, the first one spent above.
            let mut budget = 63usize;
            let mut kept: Vec<Instruction> = Vec::new();
            while let Some(cur) = queue.pop_front() {
                if budget == 0 {
                    return Err(TranspileError::Internal(
                        "hoare rewrite did not terminate".into(),
                    ));
                }
                budget -= 1;
                match Self::rewrite(&cur, &st) {
                    Some(replacement) => {
                        for r in replacement.into_iter().rev() {
                            queue.push_front(r);
                        }
                    }
                    None => {
                        Self::transition(&mut st, &cur.gate, &cur.qubits);
                        kept.push(cur);
                    }
                }
            }
            out.push(Some(kept));
        }
        Ok(out)
    }
}

impl Pass for HoareOptimizer {
    fn name(&self) -> &'static str {
        "HoareOptimizer"
    }

    fn run(&self, circuit: &mut Circuit) -> Result<(), TranspileError> {
        let expansions = Self::expand_stream(circuit.instructions().iter(), circuit.num_qubits())?;
        let mut out: Vec<Instruction> = Vec::with_capacity(circuit.len());
        for (inst, exp) in circuit.instructions().iter().zip(expansions) {
            match exp {
                None => out.push(inst.clone()),
                Some(kept) => out.extend(kept),
            }
        }
        circuit.set_instructions(out);
        Ok(())
    }
}

impl DagPass for HoareOptimizer {
    fn name(&self) -> &'static str {
        "HoareOptimizer"
    }

    fn preserves_unitary(&self) -> bool {
        // The rewrites are relaxed: they preserve behaviour from the
        // all-|0⟩ input only, so the guard must not spot-check the matrix.
        false
    }

    fn interest(&self) -> PassInterest {
        // Classical values flow along wires (and across them through CX
        // and SWAP): a gate far upstream enables or disables a rewrite.
        PassInterest::all_wires()
    }

    fn run_on_dag(
        &self,
        dag: &mut Dag,
        _props: &mut PropertySet,
    ) -> Result<ChangeReport, TranspileError> {
        let ids: Vec<usize> = dag.iter().map(|(id, _)| id).collect();
        let expansions = Self::expand_stream(dag.iter().map(|(_, i)| i), dag.num_qubits())?;
        let mut edit = DagEdit::new();
        for (id, exp) in ids.into_iter().zip(expansions) {
            if let Some(kept) = exp {
                edit.replace(id, kept);
            }
        }
        Ok(dag.apply(edit))
    }
}

/// Level-3 transpilation with the Hoare pass appended — the paper's
/// `hoare` comparison column ("we append the hoare logic pass to the level
/// 3 pass manager"). Exactly as in the paper, the pass runs *after* the
/// full level-3 pipeline, on unrolled, routed gates; it therefore only ever
/// sees `u`-gates, CNOTs and the decomposed routing SWAPs. The level is
/// fixed at 3 whatever `opts.level` says; the budget, pre-disabled passes
/// and interest filtering apply as in [`qc_transpile::transpile`].
///
/// # Errors
///
/// Same failure modes as [`qc_transpile::transpile`].
pub fn transpile_hoare(
    circuit: &Circuit,
    backend: &Backend,
    opts: &TranspileOptions,
) -> Result<Transpiled, TranspileError> {
    transpile_hoare_instrumented(circuit, backend, opts).map(|(t, _)| t)
}

/// [`transpile_hoare`] with per-pass execution statistics. One guarded
/// DAG run: the level-3 pipeline, then the optional `HoareOptimizer`
/// stage, `Optimize1qGates` and a fresh level-3 fixed-point loop for the
/// cleanup the removals enable.
///
/// # Errors
///
/// Same failure modes as [`transpile_hoare`].
pub fn transpile_hoare_instrumented(
    circuit: &Circuit,
    backend: &Backend,
    opts: &TranspileOptions,
) -> Result<(Transpiled, Vec<PassStats>), TranspileError> {
    let mut p = GuardedPipeline::new(circuit, &TranspileOptions { level: 3, ..*opts })?;
    let final_map = p.run_preset(backend)?;
    p.stage("HoareOptimizer", &HoareOptimizer, true)?;
    p.stage("Optimize1qGates", &Optimize1qGates, true)?;
    p.fixpoint(true)?;
    Ok(p.finish(final_map))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_circuit::BudgetKind;
    use qc_sim::same_output_state;
    use qc_transpile::{PassSet, TranspileBudget};
    use std::time::Duration;

    fn hoare(c: &Circuit) -> Circuit {
        let mut out = c.clone();
        HoareOptimizer::new().run(&mut out).unwrap();
        assert!(
            same_output_state(c, &out, 1e-8),
            "hoare pass changed behavior"
        );
        out
    }

    #[test]
    fn removes_cx_with_false_control() {
        let mut c = Circuit::new(2);
        c.h(1).cx(0, 1);
        assert_eq!(hoare(&c).gate_counts().cx, 0);
    }

    #[test]
    fn reduces_cx_with_true_control() {
        let mut c = Circuit::new(2);
        c.x(0).rx(0.4, 1).cx(0, 1);
        let out = hoare(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert_eq!(out.count_name("x"), 2);
    }

    #[test]
    fn removes_trivial_phase_gates() {
        let mut c = Circuit::new(1);
        c.x(0).z(0).t(0).s(0);
        let out = hoare(&c);
        assert_eq!(out.gate_counts().total, 1);
    }

    #[test]
    fn classical_propagation_through_cx_chain() {
        // x(0); cx(0,1); cx(1,2) — all classical; a following ccx with a
        // false control disappears.
        let mut c = Circuit::new(4);
        c.x(0).cx(0, 1).cx(1, 2).rx(0.3, 3);
        c.ccx(2, 3, 0); // control 2 is |1⟩ → demote to cx(3,0)
        let out = hoare(&c);
        assert_eq!(out.count_name("ccx"), 0);
        // The classical CNOTs are themselves strength-reduced to X gates;
        // only the cx with the unknown rx-state control survives.
        assert_eq!(out.gate_counts().cx, 1);
        assert_eq!(out.count_name("x"), 3);
    }

    #[test]
    fn cannot_see_x_basis_states_unlike_qbo() {
        // The key comparison in the paper: |−⟩-target CNOTs (boolean
        // oracles) are invisible to Hoare logic but caught by QBO.
        let mut c = Circuit::new(2);
        c.h(0).x(1).h(1).cx(0, 1);
        let out = hoare(&c);
        assert_eq!(out.gate_counts().cx, 1, "hoare should NOT catch this");
        let mut qbo_out = c.clone();
        rpo_core::Qbo::new().run(&mut qbo_out).unwrap();
        assert_eq!(qbo_out.gate_counts().cx, 0, "QBO catches it");
    }

    #[test]
    fn hoare_finds_subset_of_qbo() {
        // Every circuit here: gates removed by hoare ⊆ removed by QBO.
        let circuits: Vec<Circuit> = {
            let mut v = Vec::new();
            let mut c = Circuit::new(3);
            c.x(0).cx(0, 1).cz(1, 2).ccx(0, 1, 2);
            v.push(c);
            let mut c = Circuit::new(3);
            c.h(0).cx(1, 0).swap(1, 2).cp(0.4, 0, 2);
            v.push(c);
            let mut c = Circuit::new(4);
            c.x(1).mcx(&[0, 1, 2], 3).mcz(&[1, 2], 0);
            v.push(c);
            v
        };
        for c in circuits {
            let h = hoare(&c);
            let mut q = c.clone();
            rpo_core::Qbo::new().run(&mut q).unwrap();
            assert!(
                q.gate_counts().total <= h.gate_counts().total,
                "QBO must be at least as strong: {c}"
            );
        }
    }

    #[test]
    fn swap_propagates_classical_values() {
        let mut c = Circuit::new(3);
        c.x(0).swap(0, 1).cx(1, 2); // after swap, qubit 1 is |1⟩
        let out = hoare(&c);
        assert_eq!(out.gate_counts().cx, 0);
        assert_eq!(out.count_name("x"), 2);
    }

    /// A routed, multi-iteration workload: six qubits of entangling mesh
    /// on melbourne.
    fn mesh() -> Circuit {
        let mut c = Circuit::new(6);
        for i in 0..6 {
            c.h(i).t(i);
        }
        for i in 0..6 {
            for j in i + 1..6 {
                c.cx(i, j).rz(0.1 * (i + j) as f64, j);
            }
        }
        c
    }

    #[test]
    fn hoare_flow_converts_once_each_way() {
        qc_circuit::reset_conversion_counts();
        transpile_hoare(&mesh(), &Backend::melbourne(), &TranspileOptions::level(3)).unwrap();
        assert_eq!(qc_circuit::conversion_counts(), (1, 1));
    }

    #[test]
    fn instrumented_flow_reports_the_hoare_stage() {
        let (out, stats) = transpile_hoare_instrumented(
            &mesh(),
            &Backend::melbourne(),
            &TranspileOptions::level(3),
        )
        .unwrap();
        assert!(out.degradation.is_clean(), "{:?}", out.degradation);
        let hoare: Vec<_> = stats
            .iter()
            .filter(|s| s.name == "HoareOptimizer")
            .collect();
        assert_eq!(hoare.len(), 1);
        assert_eq!(hoare[0].runs, 1);
    }

    #[test]
    fn zero_deadline_is_reported() {
        let opts = TranspileOptions::level(3)
            .with_budget(TranspileBudget::unlimited().with_deadline(Duration::ZERO));
        let out = transpile_hoare(&mesh(), &Backend::melbourne(), &opts).unwrap();
        assert!(
            out.degradation
                .budget_hits
                .iter()
                .any(|h| h.kind == BudgetKind::Deadline),
            "{:?}",
            out.degradation
        );
    }

    #[test]
    fn iteration_ceiling_is_reported() {
        let opts = TranspileOptions::level(3)
            .with_budget(TranspileBudget::unlimited().with_max_fixpoint_iters(1));
        let out = transpile_hoare(&mesh(), &Backend::melbourne(), &opts).unwrap();
        assert!(
            out.degradation
                .budget_hits
                .iter()
                .any(|h| h.kind == BudgetKind::MaxIterations),
            "{:?}",
            out.degradation
        );
    }

    #[test]
    fn gate_ceiling_below_input_is_an_error() {
        let c = mesh();
        let opts = TranspileOptions::level(3)
            .with_budget(TranspileBudget::unlimited().with_max_gates(c.len() - 1));
        match transpile_hoare(&c, &Backend::melbourne(), &opts) {
            Err(TranspileError::BudgetExceeded { kind }) => {
                assert_eq!(kind, BudgetKind::MaxGates)
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn disabled_passes_are_honoured() {
        let mut set = PassSet::empty();
        set.insert("ConsolidateBlocks");
        let opts = TranspileOptions::level(3).with_disabled_passes(set);
        let (out, stats) =
            transpile_hoare_instrumented(&mesh(), &Backend::melbourne(), &opts).unwrap();
        assert_eq!(out.degradation.predisabled, vec!["ConsolidateBlocks"]);
        assert!(stats
            .iter()
            .filter(|s| s.name == "ConsolidateBlocks")
            .all(|s| s.runs == 0 && s.predisabled > 0));
    }

    #[test]
    fn interest_filtering_never_changes_output() {
        let backend = Backend::melbourne();
        for seed in 0..3 {
            let opts = TranspileOptions::level(3).with_seed(seed);
            let a = transpile_hoare(&mesh(), &backend, &opts).unwrap();
            let b = transpile_hoare(&mesh(), &backend, &opts.without_interest_filtering()).unwrap();
            assert_eq!(a.circuit, b.circuit, "seed {seed}");
            assert_eq!(a.final_map, b.final_map, "seed {seed}");
        }
    }

    #[test]
    fn full_hoare_pipeline_runs() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let out = transpile_hoare(&c, &backend, &TranspileOptions::level(3)).unwrap();
        assert!(out.circuit.gate_counts().total > 0);
        assert_eq!(out.final_map.len(), 3);
    }
}
