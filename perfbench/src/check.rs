//! Semantic checks of compiled circuits, by ideal simulation.
//!
//! The contract (the paper's relaxed equivalence): the compiled circuit
//! produces the input's output state from |0…0⟩, read through the final
//! layout, with every helper wire back in |0⟩.

use qc_circuit::Circuit;
use qc_math::C64;
use qc_sim::Statevector;
use qc_transpile::preset::Transpiled;

/// The reference outcome a compiled circuit is checked against.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// Known answer on the first `logical` qubits, with the ideal success
    /// probability of the untranspiled input.
    Answer {
        logical: usize,
        outcome: usize,
        p_ideal: f64,
    },
    /// Output state of the untranspiled input (index into a state table).
    State(usize),
}

/// The input circuit without its measurements (the unitary part whose
/// output state the check compares).
pub fn unitary_part(c: &Circuit) -> Circuit {
    let mut plain = Circuit::new(c.num_qubits());
    for inst in c.instructions() {
        if inst.gate.name() != "measure" {
            plain.push(inst.gate.clone(), &inst.qubits);
        }
    }
    plain
}

/// An [`Expect::Answer`] for `c`, with the ideal success probability
/// measured on the untranspiled input.
pub fn answer(c: &Circuit, logical: usize, outcome: usize) -> Expect {
    Expect::Answer {
        logical,
        outcome,
        p_ideal: input_success(c, logical, outcome),
    }
}

/// The ideal probability that the first `logical` qubits of `c` read out
/// `outcome`.
pub fn input_success(c: &Circuit, logical: usize, outcome: usize) -> f64 {
    let wires: Vec<usize> = (0..logical).collect();
    ideal_success_of(&Statevector::from_circuit(c), &wires, logical, outcome)
}

/// Probability that the logical qubits of a compiled circuit read out
/// `expected` on the ideal simulator (the compacted circuit, read through
/// `final_map`).
pub fn ideal_success(t: &Transpiled, logical: usize, expected: usize) -> f64 {
    let (compact, old_of_new) = t.circuit.compacted();
    let wires: Vec<usize> = t.final_map[..logical]
        .iter()
        .map(|p| old_of_new.iter().position(|o| o == p).unwrap_or(usize::MAX))
        .collect();
    ideal_success_of(
        &Statevector::from_circuit(&compact),
        &wires,
        logical,
        expected,
    )
}

/// Probability that logical qubit `q` (on wire `wires[q]`, `usize::MAX`
/// for a wire the circuit never touches, which stays |0⟩) reads bit `q` of
/// `expected`, for every `q < logical`.
pub fn ideal_success_of(sv: &Statevector, wires: &[usize], logical: usize, expected: usize) -> f64 {
    sv.probabilities()
        .iter()
        .enumerate()
        .filter(|(idx, _)| {
            (0..logical).all(|q| {
                let want = (expected >> q) & 1;
                match wires[q] {
                    usize::MAX => want == 0,
                    w => (idx >> w) & 1 == want,
                }
            })
        })
        .map(|(_, p)| p)
        .sum()
}

/// `|⟨reference|out⟩|²` with the compiled output read through the wire
/// maps; amplitude left on a helper wire counts as lost.
pub fn fidelity(t: &Transpiled, reference: &Statevector) -> f64 {
    let (compact, old_of_new) = t.circuit.compacted();
    let sv = Statevector::from_circuit(&compact);
    let logical_of: Vec<Option<usize>> = old_of_new
        .iter()
        .map(|&old| t.final_map.iter().position(|&p| p == old))
        .collect();
    let mut overlap = C64::ZERO;
    for (idx, amp) in sv.amplitudes().iter().enumerate() {
        if amp.norm() < 1e-12 {
            continue;
        }
        let mut logical = 0usize;
        let mut helper = false;
        for (ci, l) in logical_of.iter().enumerate() {
            if (idx >> ci) & 1 == 1 {
                match l {
                    Some(l) => logical |= 1 << l,
                    None => helper = true,
                }
            }
        }
        if !helper {
            overlap += reference.amplitudes()[logical].conj() * *amp;
        }
    }
    overlap.norm_sqr()
}

/// Checks one compiled output; `Err` describes the failure.
pub fn verify(t: &Transpiled, expect: Expect, states: &[Statevector]) -> Result<f64, String> {
    match expect {
        Expect::Answer {
            logical,
            outcome,
            p_ideal,
        } => {
            let p = ideal_success(t, logical, outcome);
            if (p - p_ideal).abs() > 1e-6 {
                Err(format!("known-answer success {p} vs ideal {p_ideal}"))
            } else {
                Ok(p)
            }
        }
        Expect::State(i) => {
            let f = fidelity(t, &states[i]);
            if f < 1.0 - 1e-6 {
                Err(format!("fidelity {f}"))
            } else {
                Ok(f)
            }
        }
    }
}
