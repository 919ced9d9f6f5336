//! Layout selection: mapping logical qubits onto physical qubits.
//!
//! Levels 0–1 use the trivial (identity) layout; levels 2–3 use a dense
//! subgraph heuristic in the spirit of Qiskit's `DenseLayout` (the paper's
//! level-2/3 "noise-adaptive layout" reduces to connectivity-driven layout
//! here: each fake backend carries one average error rate per gate kind,
//! not per-qubit calibrations, so a noise-adaptive choice has nothing to
//! prefer beyond connectivity).

use crate::TranspileError;
use qc_backends::Backend;
use qc_circuit::{Circuit, Instruction};

/// The identity layout: logical qubit `i` on physical qubit `i`.
pub fn trivial_layout(num_logical: usize) -> Vec<usize> {
    (0..num_logical).collect()
}

/// Chooses a densely connected physical subset and maps the most
/// interaction-heavy logical qubits onto the best-connected physical qubits
/// in it.
///
/// # Errors
///
/// Returns [`TranspileError::TooManyQubits`] when the circuit does not fit.
pub fn dense_layout(circuit: &Circuit, backend: &Backend) -> Result<Vec<usize>, TranspileError> {
    dense_layout_insts(circuit.instructions(), circuit.num_qubits(), backend)
}

/// [`dense_layout`] over a raw instruction stream — the entry the
/// DAG-native pipeline uses (no intermediate [`Circuit`]).
///
/// # Errors
///
/// Returns [`TranspileError::TooManyQubits`] when the circuit does not fit.
pub fn dense_layout_insts<'a>(
    instructions: impl IntoIterator<Item = &'a Instruction>,
    num_qubits: usize,
    backend: &Backend,
) -> Result<Vec<usize>, TranspileError> {
    let n = num_qubits;
    let m = backend.num_qubits();
    if n > m {
        return Err(TranspileError::too_many_qubits(n, m));
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    // O(1) adjacency bitmap: the greedy growth below queries adjacency in
    // its innermost loops, where the backend's edge-list scan dominates.
    let adj = adjacency_bitmap(backend);
    let adjacent = |a: usize, b: usize| adj[a * m + b];
    // Greedy densest-subgraph: grow from each seed, keeping the subset that
    // accumulates the most internal edges.
    let mut best_subset: Vec<usize> = (0..n).collect();
    let mut best_edges = internal_edges(&best_subset, &adjacent);
    for seed in 0..m {
        let mut subset = vec![seed];
        while subset.len() < n {
            // Add the neighbor with the most links into the subset.
            let mut cand: Option<(usize, usize)> = None;
            for q in 0..m {
                if subset.contains(&q) {
                    continue;
                }
                let links = subset.iter().filter(|&&s| adjacent(s, q)).count();
                if links == 0 && !subset.is_empty() {
                    continue;
                }
                if cand.map(|(_, l)| links > l).unwrap_or(true) {
                    cand = Some((q, links));
                }
            }
            match cand {
                Some((q, _)) => subset.push(q),
                None => break, // disconnected remainder; fill arbitrarily below
            }
        }
        // Fill up if the component was too small.
        let mut q = 0;
        while subset.len() < n {
            if !subset.contains(&q) {
                subset.push(q);
            }
            q += 1;
        }
        let e = internal_edges(&subset, &adjacent);
        if e > best_edges {
            best_edges = e;
            best_subset = subset;
        }
    }
    // Rank logical qubits by 2-qubit interaction count, physical by degree
    // within the subset, and pair them off.
    let mut logical_weight = vec![0usize; n];
    for inst in instructions {
        if inst.qubits.len() == 2 && inst.gate.is_unitary_gate() {
            for &q in &inst.qubits {
                logical_weight[q] += 1;
            }
        }
    }
    let mut logical_order: Vec<usize> = (0..n).collect();
    logical_order.sort_by_key(|&q| std::cmp::Reverse(logical_weight[q]));
    let mut physical_order = best_subset.clone();
    physical_order.sort_by_key(|&p| {
        std::cmp::Reverse(best_subset.iter().filter(|&&s| adjacent(s, p)).count())
    });
    let mut layout = vec![0usize; n];
    for (l, p) in logical_order.into_iter().zip(physical_order) {
        layout[l] = p;
    }
    Ok(layout)
}

fn internal_edges(subset: &[usize], adjacent: &impl Fn(usize, usize) -> bool) -> usize {
    let mut count = 0;
    for (i, &a) in subset.iter().enumerate() {
        for &b in &subset[i + 1..] {
            if adjacent(a, b) {
                count += 1;
            }
        }
    }
    count
}

/// Row-major `num_qubits × num_qubits` adjacency bitmap of a backend's
/// coupling map.
fn adjacency_bitmap(backend: &Backend) -> Vec<bool> {
    let m = backend.num_qubits();
    let mut adj = vec![false; m * m];
    for &(a, b) in backend.coupling() {
        adj[a * m + b] = true;
        adj[b * m + a] = true;
    }
    adj
}

/// Rewrites a circuit onto physical wires: logical qubit `i` becomes wire
/// `layout[i]` of a backend-width circuit.
///
/// # Errors
///
/// Returns [`TranspileError::TooManyQubits`] when the layout does not cover
/// the circuit.
pub fn apply_layout(
    circuit: &Circuit,
    layout: &[usize],
    backend_width: usize,
) -> Result<Circuit, TranspileError> {
    if layout.len() < circuit.num_qubits() {
        return Err(TranspileError::too_many_qubits(
            circuit.num_qubits(),
            layout.len(),
        ));
    }
    let mut out = Circuit::new(backend_width);
    for inst in circuit.instructions() {
        let qs: Vec<usize> = inst.qubits.iter().map(|&q| layout[q]).collect();
        out.push_instruction(Instruction::new(inst.gate.clone(), qs));
    }
    Ok(out)
}

/// [`apply_layout`] on the shared DAG IR: rewrites every node onto physical
/// wires and widens the DAG to `backend_width` in one structural edit.
///
/// # Errors
///
/// Returns [`TranspileError::TooManyQubits`] when the layout does not cover
/// the circuit.
pub fn apply_layout_dag(
    dag: &mut qc_circuit::Dag,
    layout: &[usize],
    backend_width: usize,
) -> Result<(), TranspileError> {
    if layout.len() < dag.num_qubits() {
        return Err(TranspileError::too_many_qubits(
            dag.num_qubits(),
            layout.len(),
        ));
    }
    let mapped: Vec<Instruction> = dag
        .iter()
        .map(|(_, inst)| {
            let qs: Vec<usize> = inst.qubits.iter().map(|&q| layout[q]).collect();
            Instruction::new(inst.gate.clone(), qs)
        })
        .collect();
    dag.replace_all(backend_width, mapped);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_is_identity() {
        assert_eq!(trivial_layout(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dense_layout_picks_connected_region() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(1, 2).cx(2, 3);
        let layout = dense_layout(&c, &backend).unwrap();
        assert_eq!(layout.len(), 4);
        // All distinct.
        let mut sorted = layout.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
        // The chosen region should be internally connected enough that the
        // average pairwise distance is small.
        let d = backend.distance_matrix();
        let mut total = 0;
        for i in 0..4 {
            for j in i + 1..4 {
                total += d[layout[i]][layout[j]];
            }
        }
        assert!(total <= 12, "region too spread out: {layout:?}");
    }

    #[test]
    fn dense_layout_rejects_oversized() {
        let backend = Backend::linear(3);
        let c = Circuit::new(5);
        assert!(matches!(
            dense_layout(&c, &backend),
            Err(TranspileError::InvalidInput(_))
        ));
    }

    #[test]
    fn apply_layout_remaps() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).measure_all();
        let out = apply_layout(&c, &[3, 1], 5).unwrap();
        assert_eq!(out.num_qubits(), 5);
        assert_eq!(out.instructions()[0].qubits, vec![3, 1]);
    }

    #[test]
    fn busiest_logical_qubit_gets_best_connected_slot() {
        // Star circuit: qubit 0 talks to everyone.
        let backend = Backend::melbourne();
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(0, 2).cx(0, 3);
        let layout = dense_layout(&c, &backend).unwrap();
        // Qubit 0's physical slot should have at least as many in-region
        // neighbors as any other assigned slot.
        let region: Vec<usize> = layout.clone();
        let deg = |p: usize| {
            region
                .iter()
                .filter(|&&r| backend.are_adjacent(p, r))
                .count()
        };
        for q in 1..4 {
            assert!(deg(layout[0]) >= deg(layout[q]));
        }
    }
}
