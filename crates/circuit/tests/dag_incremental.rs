//! Property tests for the O(edit) splice-local relink: after arbitrary
//! random [`DagEdit`] batches, the incrementally maintained DAG must be
//! indistinguishable from a full rebuild (`Dag::from_circuit` of the edited
//! stream) — same program order, same per-wire links, same wire census —
//! and [`Dag::to_circuit`] must equal the stream produced by splicing the
//! instruction list positionally (the pre-refactor `apply` semantics).
//!
//! The checkpoint journal is held to the same standard: after random edit
//! batches, `replace_all`s and nested marks, [`Dag::rollback`] must leave
//! the DAG equal to a clone taken at the mark — same node ids in the same
//! order, links, census, free list and stream — with a newer generation.

use qc_circuit::testing::{blocked_neighborhood_circuit, random_circuit, toffoli_chain};
use qc_circuit::{instruction_classes, Circuit, Dag, DagEdit, Gate, Instruction};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts `dag` equals a freshly built DAG of the same stream: program
/// order, wire pred/succ links (compared positionally — ids are not stable
/// across a rebuild), and the per-wire gate-class census.
fn assert_matches_fresh_build(dag: &Dag, label: &str) {
    let circuit = dag.to_circuit();
    let fresh = Dag::from_circuit(&circuit);
    let ids: Vec<usize> = dag.iter().map(|(id, _)| id).collect();
    assert_eq!(ids.len(), fresh.len(), "{label}: node count");
    let pos_of = |id: usize| ids.iter().position(|&x| x == id);
    for (p, &id) in ids.iter().enumerate() {
        assert_eq!(dag.inst(id), fresh.inst(p), "{label}: instruction at {p}");
        for &q in &dag.inst(id).qubits {
            assert_eq!(
                dag.wire_pred(id, q).and_then(pos_of),
                fresh.wire_pred(p, q),
                "{label}: wire {q} pred of position {p}"
            );
            assert_eq!(
                dag.wire_succ(id, q).and_then(pos_of),
                fresh.wire_succ(p, q),
                "{label}: wire {q} succ of position {p}"
            );
        }
    }
    for q in 0..dag.num_qubits() {
        assert_eq!(
            dag.wire_class_mask(q),
            fresh.wire_class_mask(q),
            "{label}: class census of wire {q}"
        );
    }
}

/// A small random replacement stream over `num_qubits` wires (possibly on
/// wires the replaced node does not carry, exercising the order-walk
/// fallback of the relink).
fn random_replacement(rng: &mut StdRng, num_qubits: usize) -> Vec<Instruction> {
    let len = rng.gen_range(0..4usize);
    (0..len)
        .map(|_| {
            let q = rng.gen_range(0..num_qubits);
            match rng.gen_range(0..4u32) {
                0 => Instruction::new(Gate::H, vec![q]),
                1 => Instruction::new(Gate::T, vec![q]),
                2 => {
                    let mut r = rng.gen_range(0..num_qubits);
                    if r == q {
                        r = (r + 1) % num_qubits;
                    }
                    if num_qubits < 2 {
                        Instruction::new(Gate::X, vec![q])
                    } else {
                        Instruction::new(Gate::Cx, vec![q, r])
                    }
                }
                _ => Instruction::new(Gate::U3(0.3, -0.2, 0.9), vec![q]),
            }
        })
        .collect()
}

/// A random non-empty edit of up to 5 distinct live nodes of `dag`, plus
/// its positional splice plan: per program position (ascending), the
/// replacement (empty = removal).
fn random_batch(rng: &mut StdRng, dag: &Dag) -> (DagEdit, Vec<(usize, Vec<Instruction>)>) {
    // Pick distinct victims by current program position.
    let ids: Vec<usize> = dag.iter().map(|(id, _)| id).collect();
    let mut positions: Vec<usize> = (0..ids.len()).collect();
    let count = rng.gen_range(1..=positions.len().min(5));
    for k in 0..count {
        let pick = rng.gen_range(k..positions.len());
        positions.swap(k, pick);
    }
    let mut positions: Vec<usize> = positions[..count].to_vec();
    positions.sort_unstable();

    let mut edit = DagEdit::new();
    let mut plan: Vec<(usize, Vec<Instruction>)> = Vec::new();
    for &p in &positions {
        let replacement = if rng.gen::<bool>() {
            Vec::new()
        } else {
            random_replacement(rng, dag.num_qubits())
        };
        if replacement.is_empty() {
            edit.remove(ids[p]);
        } else {
            edit.replace(ids[p], replacement.clone());
        }
        plan.push((p, replacement));
    }
    (edit, plan)
}

/// Applies `batches` rounds of random edits to `c`'s DAG, checking after
/// every batch that the incremental relink matches (a) positional splicing
/// of the instruction list and (b) a full rebuild of the edited stream.
fn check_random_edit_batches(c: &Circuit, seed: u64, batches: usize, label: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dag = Dag::from_circuit(c);
    // The positional mirror: what the pre-refactor renumbering `apply`
    // would have produced.
    let mut mirror: Vec<Instruction> = c.instructions().to_vec();
    for batch in 0..batches {
        if dag.is_empty() {
            break;
        }
        let (edit, plan) = random_batch(&mut rng, &dag);
        let count = plan.len();
        // Every other batch records into an open journal, which must not
        // change what the splice does.
        let mark = (batch % 2 == 1).then(|| dag.checkpoint());
        let report = dag.apply(edit);
        if let Some(mark) = mark {
            dag.commit(mark);
        }
        assert_eq!(report.rewrites, count, "{label} batch {batch}: rewrites");
        assert!(
            report.relink_nodes >= count,
            "{label} batch {batch}: relink accounting"
        );
        // Mirror the splice positionally (descending so indices stay valid).
        for (p, replacement) in plan.into_iter().rev() {
            mirror.splice(p..p + 1, replacement);
        }
        let expected = {
            let mut e = Circuit::new(c.num_qubits());
            e.set_instructions(mirror.clone());
            e
        };
        assert_eq!(
            dag.to_circuit(),
            expected,
            "{label} batch {batch}: spliced stream"
        );
        assert_matches_fresh_build(&dag, &format!("{label} batch {batch}"));
        // Touched wires carry the fresh generation; untouched wires an
        // older one.
        for q in report.touched.iter() {
            assert_eq!(dag.wire_gen(q), dag.generation(), "{label}: stamping");
        }
    }
}

#[test]
fn random_circuits_relink_matches_rebuild() {
    for (n, g, seed) in [(3, 25, 11), (4, 40, 5), (5, 60, 77), (6, 50, 2)] {
        let c = random_circuit(n, g, seed);
        check_random_edit_batches(
            &c,
            seed ^ 0xDA6,
            12,
            &format!("random_circuit({n},{g},{seed})"),
        );
    }
}

#[test]
fn blocked_neighborhood_circuits_relink_matches_rebuild() {
    for (n, g, seed) in [(3, 15, 3), (4, 20, 8), (5, 25, 21)] {
        let c = blocked_neighborhood_circuit(n, g, seed);
        check_random_edit_batches(
            &c,
            seed ^ 0xB10C,
            12,
            &format!("blocked_neighborhood_circuit({n},{g},{seed})"),
        );
    }
}

#[test]
fn toffoli_chains_relink_matches_rebuild() {
    for (n, seed) in [(3, 1), (5, 4), (7, 13)] {
        let c = toffoli_chain(n, seed);
        check_random_edit_batches(&c, seed ^ 0x70FF, 12, &format!("toffoli_chain({n},{seed})"));
    }
}

#[test]
fn replacements_on_foreign_wires_relink_correctly() {
    // A replacement whose instructions live on wires the replaced node
    // never touched: the relink must find the neighbours by walking the
    // order list.
    let mut c = Circuit::new(4);
    c.h(0).cx(0, 1).t(3).cx(2, 3).h(2);
    let mut dag = Dag::from_circuit(&c);
    let mut edit = DagEdit::new();
    // Replace the t(3) with gates on wires {0, 2} only.
    edit.replace(
        2,
        vec![
            Instruction::new(Gate::H, vec![2]),
            Instruction::new(Gate::Cx, vec![0, 2]),
        ],
    );
    let report = dag.apply(edit);
    assert!(report.touched.contains(3) && report.touched.contains(0) && report.touched.contains(2));
    assert_matches_fresh_build(&dag, "foreign-wire replacement");
}

#[test]
fn census_tracks_every_gate_class() {
    // Every instruction's class bits are mirrored in its wires' census.
    let c = random_circuit(5, 60, 41);
    let dag = Dag::from_circuit(&c);
    for (_, inst) in dag.iter() {
        let classes = instruction_classes(inst);
        for &q in &inst.qubits {
            assert_eq!(
                dag.wire_class_mask(q) & classes,
                classes,
                "wire {q} census missing bits of {inst:?}"
            );
        }
    }
}

/// Asserts `dag` is exactly the state `snap` was cloned in: same node ids
/// in the same program order, same instructions and wire links per id,
/// same census, free list (contents and order), slab size and stream.
fn assert_same_state(dag: &Dag, snap: &Dag, label: &str) {
    dag.check_invariants()
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(dag.num_qubits(), snap.num_qubits(), "{label}: width");
    assert_eq!(dag.len(), snap.len(), "{label}: len");
    assert_eq!(dag.capacity(), snap.capacity(), "{label}: slab size");
    assert_eq!(dag.free_ids(), snap.free_ids(), "{label}: free list");
    let ids: Vec<usize> = dag.iter().map(|(id, _)| id).collect();
    let snap_ids: Vec<usize> = snap.iter().map(|(id, _)| id).collect();
    assert_eq!(ids, snap_ids, "{label}: program order");
    for &id in &ids {
        assert_eq!(dag.inst(id), snap.inst(id), "{label}: node {id}");
        for &q in &dag.inst(id).qubits {
            assert_eq!(
                dag.wire_pred(id, q),
                snap.wire_pred(id, q),
                "{label}: node {id} wire {q} pred"
            );
            assert_eq!(
                dag.wire_succ(id, q),
                snap.wire_succ(id, q),
                "{label}: node {id} wire {q} succ"
            );
        }
    }
    for q in 0..dag.num_qubits() {
        assert_eq!(
            dag.wire_class_mask(q),
            snap.wire_class_mask(q),
            "{label}: class census of wire {q}"
        );
    }
    assert_eq!(dag.to_circuit(), snap.to_circuit(), "{label}: stream");
}

/// One random mutation: usually an edit batch, sometimes a `replace_all`
/// that drops some nodes, appends a few and may widen the DAG by a wire.
fn random_mutation(rng: &mut StdRng, dag: &mut Dag) {
    if dag.is_empty() || rng.gen_range(0..6u32) == 0 {
        let width = dag.num_qubits() + rng.gen_range(0..2usize);
        let mut stream: Vec<Instruction> = dag
            .iter()
            .filter(|_| rng.gen_range(0..4u32) != 0)
            .map(|(_, inst)| inst.clone())
            .collect();
        stream.extend(random_replacement(rng, width));
        dag.replace_all(width, stream);
    } else {
        let (edit, _) = random_batch(rng, dag);
        dag.apply(edit);
    }
}

/// Rounds of checkpointed random mutations with nested marks: each round
/// opens a mark, mutates, opens an inner mark, mutates, closes the inner
/// mark either way, mutates again, then rolls the outer mark back (three
/// rounds in four) or commits it. Every rollback must restore the clone
/// taken at its mark, with a newer generation; every commit must keep the
/// edits and the generation. Between rounds the DAG mutates unrecorded,
/// so free lists and slab sizes vary.
fn check_journal_rollback(c: &Circuit, seed: u64, rounds: usize, label: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dag = Dag::from_circuit(c);
    for round in 0..rounds {
        let label = format!("{label} round {round}");
        let outer_snap = dag.clone();
        let outer = dag.checkpoint();
        for _ in 0..rng.gen_range(0..4usize) {
            random_mutation(&mut rng, &mut dag);
        }
        let inner_snap = dag.clone();
        let inner = dag.checkpoint();
        for _ in 0..rng.gen_range(1..4usize) {
            random_mutation(&mut rng, &mut dag);
        }
        if rng.gen::<bool>() {
            let gen = dag.generation();
            dag.rollback(inner);
            assert_same_state(&dag, &inner_snap, &format!("{label} inner"));
            assert!(dag.generation() > gen, "{label}: inner generation");
        } else {
            dag.commit(inner);
        }
        for _ in 0..rng.gen_range(0..3usize) {
            random_mutation(&mut rng, &mut dag);
        }
        let gen = dag.generation();
        if rng.gen_range(0..4u32) != 0 {
            dag.rollback(outer);
            assert_same_state(&dag, &outer_snap, &format!("{label} outer"));
            assert!(dag.generation() > gen, "{label}: outer generation");
        } else {
            dag.commit(outer);
            assert_eq!(dag.generation(), gen, "{label}: commit keeps generation");
            assert_matches_fresh_build(&dag, &format!("{label} committed"));
        }
        random_mutation(&mut rng, &mut dag);
    }
}

#[test]
fn random_circuits_journal_rollback_matches_clone() {
    for (n, g, seed) in [(3, 25, 11), (4, 40, 5), (5, 60, 77), (6, 50, 2)] {
        let c = random_circuit(n, g, seed);
        check_journal_rollback(
            &c,
            seed ^ 0x70A1,
            24,
            &format!("random_circuit({n},{g},{seed})"),
        );
    }
}

#[test]
fn blocked_neighborhood_circuits_journal_rollback_matches_clone() {
    for (n, g, seed) in [(3, 15, 3), (4, 20, 8), (5, 25, 21)] {
        let c = blocked_neighborhood_circuit(n, g, seed);
        check_journal_rollback(
            &c,
            seed ^ 0x70A2,
            24,
            &format!("blocked_neighborhood_circuit({n},{g},{seed})"),
        );
    }
}

#[test]
fn toffoli_chains_journal_rollback_matches_clone() {
    for (n, seed) in [(3, 1), (5, 4), (7, 13)] {
        let c = toffoli_chain(n, seed);
        check_journal_rollback(&c, seed ^ 0x70A3, 24, &format!("toffoli_chain({n},{seed})"));
    }
}
