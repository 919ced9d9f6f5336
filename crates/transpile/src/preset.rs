//! Preset pass pipelines: optimization levels 0–3.
//!
//! Mirrors the Qiskit 0.18 preset pass managers the paper describes in
//! Section II-B: level 0 only maps; level 1 adds light gate collapsing;
//! level 2 adds cancellation loops; level 3 adds two-qubit block
//! re-synthesis. [`GuardedPipeline`] is public so the RPO pipeline (crate
//! `rpo-core`) can interleave its QBO/QPO passes per Fig. 8, and the
//! Hoare baseline (crate `qc-hoare`) can append its pass to level 3.
//!
//! [`transpile`] is DAG-native: the input circuit converts to the shared
//! [`Dag`] IR exactly once, every pass mutates it in place, the level-2/3
//! loop is the change-driven [`FixedPointLoop`], and the result converts
//! back exactly once. The circuit-based `stage_*` helpers remain for the
//! retained pre-refactor path ([`crate::reference::transpile_reference`]),
//! which the property tests use as the gate-for-gate oracle, and for the
//! benchmark's traced replay.

use crate::cancellation::CxCancellation;
use crate::commutation::CommutativeCancellation;
use crate::consolidate::ConsolidateBlocks;
use crate::guard::{
    catch_stage, input_issue, run_stage, DegradationReport, PassGuard, PassSet, TranspileBudget,
};
use crate::layout::{apply_layout, apply_layout_dag, dense_layout, trivial_layout};
use crate::manager::{DagPass, FixedPointLoop, PassStats, PropertySet};
use crate::optimize_1q::Optimize1qGates;
use crate::routing::{route, route_dag, route_dag_budgeted};
use crate::unroll::Unroller;
use crate::{Pass, TranspileError};
use qc_backends::Backend;
use qc_circuit::{Circuit, Dag};

/// Options controlling transpilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranspileOptions {
    /// Optimization level, 0–3 (higher = more effort), as in the paper.
    pub level: u8,
    /// Seed for every stochastic component (routing).
    pub seed: u64,
    /// Number of seeded routing trials; the cheapest is kept.
    pub routing_trials: usize,
    /// Whether the fixed-point loop filters dirty passes by their declared
    /// [`crate::manager::PassInterest`] (on by default). Filtering never
    /// changes output — the off switch exists for the equivalence property
    /// tests and for A/B timing.
    pub interest_filtering: bool,
    /// Resource ceilings for the run (unlimited by default). Deadline and
    /// iteration ceilings degrade gracefully (optional passes are skipped,
    /// the best circuit so far is returned); gate/qubit ceilings are hard
    /// [`crate::RpoError::BudgetExceeded`] errors.
    pub budget: TranspileBudget,
    /// Optional passes to skip for the whole run (empty by default). The
    /// serve layer's retry path recompiles with a previously-quarantined
    /// pass in this set, and its circuit breakers pre-disable repeat
    /// offenders fleet-wide. Mandatory executions of a listed label still
    /// run — see [`crate::guard::PassGuard::with_predisabled`].
    pub disabled_passes: PassSet,
}

impl TranspileOptions {
    /// Options for the given optimization level with default seed and
    /// trial count.
    pub fn level(level: u8) -> Self {
        TranspileOptions {
            level,
            seed: 0,
            routing_trials: 5,
            interest_filtering: true,
            budget: TranspileBudget::unlimited(),
            disabled_passes: PassSet::empty(),
        }
    }

    /// Sets the resource budget.
    pub fn with_budget(mut self, budget: TranspileBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the pre-disabled optional passes.
    pub fn with_disabled_passes(mut self, set: PassSet) -> Self {
        self.disabled_passes = set;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the routing trial count.
    pub fn with_routing_trials(mut self, trials: usize) -> Self {
        self.routing_trials = trials;
        self
    }

    /// Disables [`crate::manager::PassInterest`] filtering in the
    /// fixed-point loop.
    pub fn without_interest_filtering(mut self) -> Self {
        self.interest_filtering = false;
        self
    }
}

/// A transpiled circuit plus the logical→physical qubit map needed to read
/// measurement outcomes.
#[derive(Clone, Debug)]
pub struct Transpiled {
    /// The hardware-ready circuit on backend-width wires.
    pub circuit: Circuit,
    /// `final_map[q]` = physical qubit where logical qubit `q` is measured
    /// (or ends up).
    pub final_map: Vec<usize>,
    /// What the guard contained during the run: quarantined passes and
    /// budget ceilings hit. [`DegradationReport::is_clean`] on a healthy
    /// run.
    pub degradation: DegradationReport,
}

/// Unrolls into the device basis `{u1, u2, u3, id, cx}`.
pub fn stage_unroll_device(c: &mut Circuit) -> Result<(), TranspileError> {
    Unroller::to_device_basis().run(c)
}

/// Unrolls into the extended basis that preserves `swap`/`swapz`.
pub fn stage_unroll_extended(c: &mut Circuit) -> Result<(), TranspileError> {
    Unroller::to_extended_basis().run(c)
}

/// Selects a layout (trivial below level 2, dense otherwise) and rewrites
/// the circuit onto physical wires. Returns the layout.
pub fn stage_layout(
    c: &mut Circuit,
    backend: &Backend,
    level: u8,
) -> Result<Vec<usize>, TranspileError> {
    let layout = if level >= 2 {
        dense_layout(c, backend)?
    } else {
        if c.num_qubits() > backend.num_qubits() {
            return Err(TranspileError::too_many_qubits(
                c.num_qubits(),
                backend.num_qubits(),
            ));
        }
        trivial_layout(c.num_qubits())
    };
    *c = apply_layout(c, &layout, backend.num_qubits())?;
    Ok(layout)
}

/// Routes the circuit, returning the end-of-circuit wire map.
pub fn stage_route(
    c: &mut Circuit,
    backend: &Backend,
    seed: u64,
    trials: usize,
) -> Result<Vec<usize>, TranspileError> {
    let routed = route(c, backend, seed, trials)?;
    *c = routed.circuit;
    Ok(routed.wire_map)
}

/// Runs `Optimize1qGates` once.
pub fn stage_optimize_1q(c: &mut Circuit) -> Result<(), TranspileError> {
    Optimize1qGates.run(c)
}

/// The level-2/3 fixed-point loop: cancellation + 1q merging (+ block
/// consolidation at level 3) until gate counts stop improving.
pub fn stage_fixpoint_loop(c: &mut Circuit, consolidate: bool) -> Result<(), TranspileError> {
    for _ in 0..10 {
        let before = c.gate_counts();
        CommutativeCancellation.run(c)?;
        CxCancellation.run(c)?;
        Optimize1qGates.run(c)?;
        if consolidate {
            ConsolidateBlocks.run(c)?;
            stage_unroll_device(c)?;
            Optimize1qGates.run(c)?;
            CxCancellation.run(c)?;
        }
        let after = c.gate_counts();
        if after.cx >= before.cx && after.total >= before.total {
            break;
        }
    }
    Ok(())
}

/// Transpiles a circuit for a backend at the requested optimization level.
///
/// # Errors
///
/// Fails when the circuit does not fit the backend or contains a gate with
/// no decomposition rule.
///
/// # Examples
///
/// ```
/// use qc_backends::Backend;
/// use qc_circuit::Circuit;
/// use qc_transpile::{transpile, TranspileOptions};
///
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1).measure_all();
/// let out = transpile(&bell, &Backend::melbourne(), &TranspileOptions::level(3)).unwrap();
/// assert!(out.circuit.gate_counts().cx >= 1);
/// ```
pub fn transpile(
    circuit: &Circuit,
    backend: &Backend,
    opts: &TranspileOptions,
) -> Result<Transpiled, TranspileError> {
    transpile_instrumented(circuit, backend, opts).map(|(t, _)| t)
}

/// The pass sequence of the level-2/3 fixed-point loop (`consolidate`
/// appends the level-3 tail), as boxed DAG passes for [`FixedPointLoop`].
pub fn fixpoint_passes(consolidate: bool) -> Vec<Box<dyn DagPass>> {
    let mut passes: Vec<Box<dyn DagPass>> = vec![
        Box::new(CommutativeCancellation),
        Box::new(CxCancellation),
        Box::new(Optimize1qGates),
    ];
    if consolidate {
        passes.push(Box::new(ConsolidateBlocks));
        passes.push(Box::new(Unroller::to_device_basis()));
        passes.push(Box::new(Optimize1qGates));
        passes.push(Box::new(CxCancellation));
    }
    passes
}

/// Layout selection on the shared DAG (trivial below level 2, dense
/// otherwise), rewriting the nodes onto physical wires. Returns the layout.
///
/// # Errors
///
/// Returns [`TranspileError::TooManyQubits`] when the circuit does not fit.
pub fn dag_stage_layout(
    dag: &mut Dag,
    backend: &Backend,
    level: u8,
) -> Result<Vec<usize>, TranspileError> {
    let layout = if level >= 2 {
        crate::layout::dense_layout_insts(
            dag.iter().map(|(_, inst)| inst),
            dag.num_qubits(),
            backend,
        )?
    } else {
        if dag.num_qubits() > backend.num_qubits() {
            return Err(TranspileError::too_many_qubits(
                dag.num_qubits(),
                backend.num_qubits(),
            ));
        }
        trivial_layout(dag.num_qubits())
    };
    apply_layout_dag(dag, &layout, backend.num_qubits())?;
    Ok(layout)
}

/// Routing on the shared DAG: inserts SWAPs, installs the routed stream,
/// and returns the end-of-circuit wire map.
///
/// # Errors
///
/// Same failure modes as [`crate::routing::route`].
pub fn dag_stage_route(
    dag: &mut Dag,
    backend: &Backend,
    seed: u64,
    trials: usize,
) -> Result<Vec<usize>, TranspileError> {
    let routed = route_dag(dag, backend, seed, trials)?;
    dag.replace_all(backend.num_qubits(), routed.circuit.into_instructions());
    Ok(routed.wire_map)
}

/// [`transpile`] with per-pass execution statistics: the prefix stages and
/// every fixed-point pass report name, runs, change-tracking skips,
/// rewrites and wall time (the CI timing-table artifact's data source).
///
/// # Errors
///
/// Same failure modes as [`transpile`].
pub fn transpile_instrumented(
    circuit: &Circuit,
    backend: &Backend,
    opts: &TranspileOptions,
) -> Result<(Transpiled, Vec<PassStats>), TranspileError> {
    let mut p = GuardedPipeline::new(circuit, opts)?;
    let final_map = p.run_preset(backend)?;
    Ok(p.finish(final_map))
}

/// One guarded pipeline run in progress: the shared DAG, the guard and
/// budget every stage runs under, the cached analyses, and the per-pass
/// statistics collected so far. The preset, Hoare and RPO flows all drive
/// their stages through it.
pub struct GuardedPipeline {
    dag: Dag,
    guard: PassGuard,
    props: PropertySet,
    stats: Vec<PassStats>,
    opts: TranspileOptions,
}

impl GuardedPipeline {
    /// Entry checks (qubit ceiling, input validity, gate ceiling) and the
    /// pipeline's single circuit→dag conversion. The guard honours
    /// `opts.budget` and `opts.disabled_passes`; the fixed-point loops
    /// honour `opts.interest_filtering`; [`GuardedPipeline::run_preset`]
    /// runs the preset at `opts.level`.
    ///
    /// # Errors
    ///
    /// [`crate::RpoError::BudgetExceeded`] or
    /// [`crate::RpoError::InvalidInput`].
    pub fn new(circuit: &Circuit, opts: &TranspileOptions) -> Result<Self, TranspileError> {
        let guard = PassGuard::new(opts.budget).with_predisabled(opts.disabled_passes);
        guard.check_qubits(circuit.num_qubits())?;
        validate_input(circuit)?;
        let dag = Dag::from_circuit(circuit);
        guard.check_gates(&dag)?;
        Ok(GuardedPipeline {
            dag,
            guard,
            props: PropertySet::new(),
            stats: Vec::new(),
            opts: *opts,
        })
    }

    /// Runs the preset pipeline at the options' level: device unrolling,
    /// layout and routing (mandatory: they run even past the deadline,
    /// since without them there is no hardware-valid circuit at all),
    /// then the level's optimizations. Returns the final map. Flows that
    /// extend a preset (the Hoare baseline appends its pass to level 3)
    /// run their extra stages after it, before [`GuardedPipeline::finish`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`transpile`].
    pub fn run_preset(&mut self, backend: &Backend) -> Result<Vec<usize>, TranspileError> {
        let opts = self.opts;
        self.stage("Unroller(device)", &Unroller::to_device_basis(), false)?;
        let final_map = self.map_to_device(backend, opts.level, opts.seed, opts.routing_trials)?;
        // Decompose routing SWAPs.
        self.stage("Unroller(device)", &Unroller::to_device_basis(), false)?;
        match opts.level {
            0 => {}
            1 => {
                self.stage("Optimize1qGates", &Optimize1qGates, true)?;
                self.stage("CxCancellation", &CxCancellation, true)?;
            }
            level => {
                self.stage("Optimize1qGates", &Optimize1qGates, true)?;
                self.fixpoint(level >= 3)?;
            }
        }
        Ok(final_map)
    }

    /// Runs one straight-line stage under the guard (see [`run_stage`]).
    /// `optional` stages are skipped past the deadline or when
    /// pre-disabled; any stage that fails is rolled back and quarantined.
    ///
    /// # Errors
    ///
    /// Only hard budget violations.
    pub fn stage(
        &mut self,
        label: &'static str,
        pass: &dyn DagPass,
        optional: bool,
    ) -> Result<(), TranspileError> {
        run_stage(
            &mut self.guard,
            label,
            pass,
            &mut self.dag,
            &mut self.props,
            &mut self.stats,
            optional,
        )
    }

    /// Runs a fresh level-2/3 fixed-point loop ([`fixpoint_passes`]) to
    /// its fixed point, at most 10 iterations, under the guard.
    ///
    /// # Errors
    ///
    /// Only hard budget violations.
    pub fn fixpoint(&mut self, consolidate: bool) -> Result<(), TranspileError> {
        let mut fp = FixedPointLoop::new(fixpoint_passes(consolidate), self.dag.num_qubits());
        if !self.opts.interest_filtering {
            fp = fp.without_interest_filtering();
        }
        fp.run_guarded(&mut self.dag, &mut self.props, 10, &mut self.guard)?;
        self.stats.extend(fp.stats);
        Ok(())
    }

    /// Layout selection (dense at `level` ≥ 2) and routing, the mandatory
    /// mapping stages: panics become typed errors, routing trials past the
    /// deadline are skipped and reported. Returns the final map
    /// (`final_map[q]` = physical qubit logical `q` ends on).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`dag_stage_layout`] and
    /// [`dag_stage_route_budgeted`], plus the hard gate ceiling on the
    /// routed circuit.
    pub fn map_to_device(
        &mut self,
        backend: &Backend,
        level: u8,
        seed: u64,
        trials: usize,
    ) -> Result<Vec<usize>, TranspileError> {
        let dag = &mut self.dag;
        let layout = catch_stage("layout", || dag_stage_layout(dag, backend, level))?;
        let snapshot = self.guard.snapshot();
        let (wire_map, trials_run) = catch_stage("routing", || {
            dag_stage_route_budgeted(dag, backend, seed, trials, snapshot)
        })?;
        if trials_run < trials.max(1) {
            self.guard.note_deadline("routing trials");
        }
        self.guard.check_gates(&self.dag)?;
        Ok(layout.iter().map(|&w| wire_map[w]).collect())
    }

    /// Ends the run: records a deadline overrun even when no pass was
    /// individually skipped (e.g. the last pass itself blew the deadline),
    /// and performs the pipeline's single dag→circuit conversion.
    pub fn finish(mut self, final_map: Vec<usize>) -> (Transpiled, Vec<PassStats>) {
        if self.guard.deadline_exceeded() {
            self.guard.note_deadline("pipeline end");
        }
        let transpiled = Transpiled {
            circuit: self.dag.to_circuit(),
            final_map,
            degradation: self.guard.into_report(),
        };
        (transpiled, self.stats)
    }
}

/// Rejects structurally invalid input before any pass runs: non-finite
/// gate parameters and non-unitary embedded matrices become
/// [`crate::RpoError::InvalidInput`] instead of NaN-poisoned output.
///
/// # Errors
///
/// [`crate::RpoError::InvalidInput`] naming the offending gate.
pub fn validate_input(circuit: &Circuit) -> Result<(), TranspileError> {
    for inst in circuit.instructions() {
        if let Some(issue) = input_issue(&inst.gate) {
            return Err(TranspileError::InvalidInput(format!(
                "input circuit: {issue}"
            )));
        }
    }
    Ok(())
}

/// [`dag_stage_route`] under a deadline budget: later trials are skipped
/// once the deadline passes (trial 0 always runs). Returns the wire map
/// and the number of trials actually run.
///
/// # Errors
///
/// Same failure modes as [`crate::routing::route`].
pub fn dag_stage_route_budgeted(
    dag: &mut Dag,
    backend: &Backend,
    seed: u64,
    trials: usize,
    budget: crate::guard::BudgetSnapshot,
) -> Result<(Vec<usize>, usize), TranspileError> {
    let (routed, ran) = route_dag_budgeted(dag, backend, seed, trials, budget)?;
    dag.replace_all(backend.num_qubits(), routed.circuit.into_instructions());
    Ok((routed.wire_map, ran))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_sim::Statevector;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn all_levels_produce_device_gates() {
        let backend = Backend::melbourne();
        for level in 0..=3 {
            let out = transpile(&bell(), &backend, &TranspileOptions::level(level)).unwrap();
            for inst in out.circuit.instructions() {
                assert!(
                    crate::unroll::device_basis().contains(inst.gate.name())
                        || !inst.gate.is_unitary_gate(),
                    "level {level} left gate {}",
                    inst.gate
                );
                if inst.qubits.len() == 2 && inst.gate.is_unitary_gate() {
                    assert!(backend.are_adjacent(inst.qubits[0], inst.qubits[1]));
                }
            }
        }
    }

    #[test]
    fn higher_levels_do_not_increase_cx() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(5);
        // An entangling mesh that needs routing.
        for i in 0..5 {
            c.h(i);
        }
        for i in 0..5 {
            for j in i + 1..5 {
                c.cx(i, j);
            }
        }
        let opts = |l| TranspileOptions::level(l).with_seed(3);
        let cx0 = transpile(&c, &backend, &opts(0))
            .unwrap()
            .circuit
            .gate_counts()
            .cx;
        let cx3 = transpile(&c, &backend, &opts(3))
            .unwrap()
            .circuit
            .gate_counts()
            .cx;
        assert!(cx3 <= cx0, "level 3 ({cx3}) worse than level 0 ({cx0})");
    }

    #[test]
    fn transpiled_bell_still_makes_bell_pairs() {
        let backend = Backend::melbourne();
        let out = transpile(&bell(), &backend, &TranspileOptions::level(3)).unwrap();
        let sv = Statevector::from_circuit(&out.circuit);
        // Probability mass must sit on the two states where the mapped
        // qubits agree.
        let q0 = out.final_map[0];
        let q1 = out.final_map[1];
        let probs = sv.probabilities();
        let mut agree = 0.0;
        for (idx, p) in probs.iter().enumerate() {
            let b0 = (idx >> q0) & 1;
            let b1 = (idx >> q1) & 1;
            if b0 == b1 {
                agree += p;
            }
        }
        assert!((agree - 1.0).abs() < 1e-9, "bell correlation lost: {agree}");
    }

    #[test]
    fn deterministic_given_seed() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 3).cx(1, 2).cx(0, 2).measure_all();
        let o = TranspileOptions::level(3).with_seed(9);
        let a = transpile(&c, &backend, &o).unwrap();
        let b = transpile(&c, &backend, &o).unwrap();
        assert_eq!(a.circuit, b.circuit);
    }

    #[test]
    fn measure_only_circuit() {
        let backend = Backend::melbourne();
        let mut c = Circuit::new(1);
        c.measure(0);
        let out = transpile(&c, &backend, &TranspileOptions::level(3)).unwrap();
        assert_eq!(out.circuit.count_name("measure"), 1);
    }

    #[test]
    fn oversized_circuit_rejected() {
        let backend = Backend::linear(2);
        let c = Circuit::new(5);
        assert!(transpile(&c, &backend, &TranspileOptions::level(1)).is_err());
    }
}
