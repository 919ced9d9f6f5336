//! Two-qubit KAK (Weyl) decomposition and circuit synthesis.
//!
//! Every two-qubit unitary factors as
//!
//! ```text
//! U = e^{iφ} (K1₁ ⊗ K1₀) · exp(i(a·XX + b·YY + c·ZZ)) · (K2₁ ⊗ K2₀)
//! ```
//!
//! with single-qubit `K`s and canonical coordinates `(a, b, c)` in the Weyl
//! chamber `π/4 ≥ a ≥ b ≥ |c|`. This module computes the decomposition via
//! the magic-basis construction (diagonalize `Γ = UᵀU` in the magic basis,
//! where its commuting real and imaginary parts admit a shared real
//! orthogonal eigenbasis) and synthesizes circuits from the canonical class:
//!
//! * `(0,0,0)` — no CNOT (local);
//! * `(π/4,0,0)` — one CNOT (the CNOT class);
//! * `(a,b,0)` — two CNOTs (one CNOT sandwich conjugated by `Rx(π/2)`);
//! * `(π/4,π/4,π/4)` — three CNOTs (the SWAP class);
//! * general `(a,b,c)` — four CNOTs (sandwich plus a ZZ gadget).
//!
//! The `ConsolidateBlocks` pass re-synthesizes collected blocks with these
//! templates and keeps the result only when it lowers the CNOT count, so the
//! extra CNOT on the fully generic class (relative to the theoretical
//! three-CNOT bound of Vidal–Dawson, the paper's citation [47]) never makes
//! a circuit worse. A generic block re-synthesized at four CNOTs replaces
//! the original only when the original held more than four, so the extra
//! CNOT can cost an improvement (a generic block already at three CNOTs
//! stays as it is) but never adds a gate.

use crate::euler::matrix_to_u3_gate;
use qc_circuit::{circuit_unitary, Circuit, Gate, RpoError};
use qc_math::{Matrix, RealMatrix, C64};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4, PI};

const TOL: f64 = 1e-9;

/// The magic (Bell) basis change matrix, built once per process — the
/// decomposition multiplies by it (and its adjoint) on every call.
fn magic_basis() -> &'static Matrix {
    static M: std::sync::OnceLock<Matrix> = std::sync::OnceLock::new();
    M.get_or_init(|| {
        let r = std::f64::consts::FRAC_1_SQRT_2;
        let z = C64::ZERO;
        let one = C64::real(r);
        let i = C64::new(0.0, r);
        Matrix::from_rows(&[
            vec![one, z, z, i],
            vec![z, i, one, z],
            vec![z, i, -one, z],
            vec![one, z, z, -i],
        ])
    })
}

/// The magic basis' adjoint, cached like [`magic_basis`].
fn magic_basis_dag() -> &'static Matrix {
    static M: std::sync::OnceLock<Matrix> = std::sync::OnceLock::new();
    M.get_or_init(|| magic_basis().adjoint())
}

fn pauli(which: usize) -> Matrix {
    match which {
        0 => Gate::X.matrix().expect("x"),
        1 => Gate::Y.matrix().expect("y"),
        _ => Gate::Z.matrix().expect("z"),
    }
}

/// `P ⊗ P` for the three Paulis, cached — the canonicalization shifts fold
/// one into K2 per π/2 step.
fn pauli_kron(which: usize) -> &'static Matrix {
    static M: std::sync::OnceLock<[Matrix; 3]> = std::sync::OnceLock::new();
    &M.get_or_init(|| {
        [
            pauli(0).kron(&pauli(0)),
            pauli(1).kron(&pauli(1)),
            pauli(2).kron(&pauli(2)),
        ]
    })[which]
}

/// The cached `V ⊗ V` Clifford conjugator (and its adjoint) that swaps
/// Weyl coordinates `lo` and `hi` — built per canonicalization step before,
/// now once per process.
fn swap_conjugator(lo: usize, hi: usize) -> (&'static Matrix, &'static Matrix) {
    static M: std::sync::OnceLock<[(Matrix, Matrix); 3]> = std::sync::OnceLock::new();
    let all = M.get_or_init(|| {
        let build = |v: Matrix| {
            let cc = v.kron(&v);
            let dag = cc.adjoint();
            (cc, dag)
        };
        [
            build(Gate::S.matrix().expect("s")),
            build(Gate::H.matrix().expect("h")),
            build(Gate::Rx(FRAC_PI_2).matrix().expect("rx")),
        ]
    });
    let (cc, dag) = match (lo, hi) {
        (0, 1) => &all[0],
        (0, 2) => &all[1],
        _ => &all[2],
    };
    (cc, dag)
}

/// The cached `P ⊗ I` conjugator (and adjoint) flipping the two coordinates
/// other than `keep`.
fn flip_conjugator(keep: usize) -> (&'static Matrix, &'static Matrix) {
    static M: std::sync::OnceLock<[(Matrix, Matrix); 3]> = std::sync::OnceLock::new();
    let all = M.get_or_init(|| {
        let build = |which: usize| {
            let c = pauli(which).kron(&Matrix::identity(2));
            let dag = c.adjoint();
            (c, dag)
        };
        [build(0), build(1), build(2)]
    });
    let (c, dag) = &all[keep];
    (c, dag)
}

/// The canonical gate `exp(i(a·XX + b·YY + c·ZZ))`.
pub fn canonical_matrix(a: f64, b: f64, c: f64) -> Matrix {
    let mut m = Matrix::identity(4);
    for (angle, p) in [(a, 0), (b, 1), (c, 2)] {
        let pp = pauli_kron(p);
        // exp(iθ·PP) = cosθ·I + i·sinθ·PP for a Pauli product PP.
        let term = &Matrix::identity(4).scale(C64::real(angle.cos()))
            + &pp.scale(C64::new(0.0, angle.sin()));
        m = term.matmul(&m);
    }
    m
}

/// The KAK decomposition of a two-qubit unitary.
///
/// Subscript 1 refers to qubit 1 (the high-order local bit), subscript 0 to
/// qubit 0.
#[derive(Clone, Debug)]
pub struct TwoQubitWeyl {
    /// Canonical Weyl coordinate on XX, in `[0, π/4]`.
    pub a: f64,
    /// Canonical Weyl coordinate on YY, in `[0, a]`.
    pub b: f64,
    /// Canonical Weyl coordinate on ZZ, with `|c| ≤ b` (negative `c` only
    /// occurs when `a < π/4`).
    pub c: f64,
    /// Left local factor on qubit 1.
    pub k1_q1: Matrix,
    /// Left local factor on qubit 0.
    pub k1_q0: Matrix,
    /// Right local factor on qubit 1.
    pub k2_q1: Matrix,
    /// Right local factor on qubit 0.
    pub k2_q0: Matrix,
    /// Global phase φ.
    pub phase: f64,
}

impl TwoQubitWeyl {
    /// Decomposes a 4×4 unitary, panicking on invalid input — the
    /// infallible wrapper around [`TwoQubitWeyl::try_decompose`] for call
    /// sites that construct the matrix themselves.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a finite 4×4 unitary.
    pub fn decompose(u: &Matrix) -> Self {
        match Self::try_decompose(u) {
            Ok(w) => w,
            Err(e) => panic!("{e}"),
        }
    }

    /// Decomposes a 4×4 unitary, returning a typed error on bad input.
    ///
    /// Unlike the old debug-only assertion, the unitarity check runs in
    /// **every** build: a non-unitary or non-finite input used to sail
    /// through release synthesis and come out as silent NaN factors. The
    /// check is one adjoint + 4×4 matmul — noise next to the simultaneous
    /// diagonalization that follows it.
    ///
    /// # Errors
    ///
    /// [`RpoError::InvalidInput`] when `u` is not 4×4;
    /// [`RpoError::Numeric`] when `u` is not finite, not unitary, or a
    /// local factor fails to split as a tensor product.
    pub fn try_decompose(u: &Matrix) -> Result<Self, RpoError> {
        if (u.rows(), u.cols()) != (4, 4) {
            return Err(RpoError::InvalidInput(format!(
                "weyl decomposition expects a 4x4 matrix, got {}x{}",
                u.rows(),
                u.cols()
            )));
        }
        for i in 0..4 {
            for j in 0..4 {
                let v = u[(i, j)];
                if !v.re.is_finite() || !v.im.is_finite() {
                    return Err(RpoError::Numeric {
                        context: format!("weyl input has non-finite entry at ({i},{j})"),
                    });
                }
            }
        }
        if !u.is_unitary(1e-8) {
            return Err(RpoError::Numeric {
                context: "weyl input matrix is not unitary".into(),
            });
        }
        // Normalize to SU(4).
        let det = u.det();
        let alpha0 = det.arg() / 4.0;
        let up = u.scale(C64::cis(-alpha0));
        let m = magic_basis();
        let m_dag = magic_basis_dag();
        let um = m_dag.matmul(&up).matmul(m);
        // Γ = Umᵀ·Um is complex symmetric unitary: Γ = X + iY with X, Y real
        // symmetric, commuting (X² + Y² = I, XY = YX).
        let gamma = um.transpose().matmul(&um);
        let re = RealMatrix::from_fn(4, 4, |i, j| gamma[(i, j)].re);
        let im = RealMatrix::from_fn(4, 4, |i, j| gamma[(i, j)].im);
        let p = qc_math::simultaneous_diagonalize(&re, &im);
        let pc = Matrix::from_fn(4, 4, |i, j| C64::real(p[(i, j)]));
        let d = pc.transpose().matmul(&gamma).matmul(&pc);
        // Verify diagonality.
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    debug_assert!(d[(i, j)].norm() < 1e-6, "gamma not diagonalized: {:?}", d);
                }
            }
        }
        let mut thetas: Vec<f64> = (0..4).map(|j| d[(j, j)].arg() / 2.0).collect();
        // det(D^{1/2}) must be +1: force Σθ ≡ 0 (mod 2π), exactly as a
        // multiple of nothing (Σ arg is a multiple of π by det(Γ)=1).
        let s: f64 = thetas.iter().sum();
        let k = (s / PI).round() as i64;
        if k.rem_euclid(2) == 1 {
            thetas[0] -= PI;
        }
        let s: f64 = thetas.iter().sum();
        let m2 = (s / (2.0 * PI)).round();
        thetas[0] -= 2.0 * PI * m2;

        // Um = K1m · D^{1/2} · Pᵀ with K1m real orthogonal.
        let d_inv_half = Matrix::diag(&[
            C64::cis(-thetas[0]),
            C64::cis(-thetas[1]),
            C64::cis(-thetas[2]),
            C64::cis(-thetas[3]),
        ]);
        let k1m = um.matmul(&pc).matmul(&d_inv_half);
        // Map back out of the magic basis.
        let k1 = m.matmul(&k1m).matmul(m_dag);
        let k2 = m.matmul(&pc.transpose()).matmul(m_dag);
        // Coordinates from the magic-basis eigenphases:
        //   θ₀ = a−b+c, θ₁ = a+b−c, θ₂ = −a−b−c, θ₃ = −a+b+c.
        let a = (thetas[0] + thetas[1]) / 2.0;
        let b = (thetas[1] + thetas[3]) / 2.0;
        let c = (thetas[0] + thetas[3]) / 2.0;

        let mut state = CanonState {
            coords: [a, b, c],
            k1,
            k2,
            phase: alpha0,
        };
        state.canonicalize();
        let (coords, k1, k2, mut phase) = (state.coords, state.k1, state.k2, state.phase);

        // Split locals into Kronecker factors.
        let (s1, k1_q1, k1_q0) = k1
            .kron_factor(2, 2, 1e-6)
            .ok_or_else(|| RpoError::Numeric {
                context: "weyl left local factor is not a tensor product".into(),
            })?;
        let (s2, k2_q1, k2_q0) = k2
            .kron_factor(2, 2, 1e-6)
            .ok_or_else(|| RpoError::Numeric {
                context: "weyl right local factor is not a tensor product".into(),
            })?;
        debug_assert!((s1.norm() - 1.0).abs() < 1e-6, "scalar must be a phase");
        debug_assert!((s2.norm() - 1.0).abs() < 1e-6, "scalar must be a phase");
        phase += s1.arg() + s2.arg();

        let result = TwoQubitWeyl {
            a: coords[0],
            b: coords[1],
            c: coords[2],
            k1_q1,
            k1_q0,
            k2_q1,
            k2_q0,
            phase,
        };
        debug_assert!(
            result.reconstruct().approx_eq(u, 1e-6),
            "weyl reconstruction failed for\n{u:?}\ngot\n{:?}",
            result.reconstruct()
        );
        Ok(result)
    }

    /// Rebuilds the unitary from the stored factors (used for verification).
    pub fn reconstruct(&self) -> Matrix {
        let k1 = self.k1_q1.kron(&self.k1_q0);
        let k2 = self.k2_q1.kron(&self.k2_q0);
        k1.matmul(&canonical_matrix(self.a, self.b, self.c))
            .matmul(&k2)
            .scale(C64::cis(self.phase))
    }

    /// The canonical Weyl coordinates `(a, b, c)`.
    pub fn coords(&self) -> (f64, f64, f64) {
        (self.a, self.b, self.c)
    }

    /// Minimum CNOT count needed for this class by the templates in this
    /// module (0, 1, 2, 3 or 4).
    pub fn template_cx_cost(&self) -> usize {
        let (a, b, c) = (self.a, self.b, self.c);
        if a.abs() < TOL && b.abs() < TOL && c.abs() < TOL {
            0
        } else if (a - FRAC_PI_4).abs() < TOL && b.abs() < TOL && c.abs() < TOL {
            1
        } else if c.abs() < TOL {
            2
        } else if (a - FRAC_PI_4).abs() < TOL
            && (b - FRAC_PI_4).abs() < TOL
            && (c - FRAC_PI_4).abs() < TOL
        {
            3
        } else {
            4
        }
    }
}

/// Canonicalization state: coordinates plus the 4×4 local factors they are
/// defined against.
struct CanonState {
    coords: [f64; 3],
    k1: Matrix,
    k2: Matrix,
    phase: f64,
}

impl CanonState {
    /// Shift `coords[i] -= k·π/2`, compensating with `(P⊗P)^k` (and phase
    /// i^k) folded into K2.
    fn shift(&mut self, i: usize, k: i64) {
        if k == 0 {
            return;
        }
        self.coords[i] -= k as f64 * FRAC_PI_2;
        self.phase += k as f64 * FRAC_PI_2;
        if k.rem_euclid(2) == 1 {
            self.k2 = pauli_kron(i).matmul(&self.k2);
        }
    }

    /// Swap coordinates `i` and `j` via the corresponding Clifford
    /// conjugation.
    fn swap(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let (lo, hi) = (i.min(j), i.max(j));
        let (cc, cc_dag) = swap_conjugator(lo, hi);
        self.coords.swap(i, j);
        self.k1 = self.k1.matmul(cc_dag);
        self.k2 = cc.matmul(&self.k2);
    }

    /// Flip the signs of coordinates `i` and `j` (the Weyl group only allows
    /// flipping pairs) via a single-qubit Pauli conjugation.
    fn flip(&mut self, i: usize, j: usize) {
        // The Pauli that *commutes* with the untouched coordinate axis.
        let keep = 3 - i - j;
        let (c, c_dag) = flip_conjugator(keep);
        self.coords[i] = -self.coords[i];
        self.coords[j] = -self.coords[j];
        self.k1 = self.k1.matmul(c_dag);
        self.k2 = c.matmul(&self.k2);
    }

    fn sort_desc(&mut self) {
        // Three-element bubble sort with tracked swaps.
        for _ in 0..3 {
            for i in 0..2 {
                if self.coords[i] < self.coords[i + 1] - 1e-15 {
                    self.swap(i, i + 1);
                }
            }
        }
    }

    /// Reduce into the Weyl chamber `π/4 ≥ a ≥ b ≥ |c|` (with `c ≥ 0` when
    /// `a = π/4`).
    fn canonicalize(&mut self) {
        // 1. Shift each coordinate into [0, π/2).
        for i in 0..3 {
            let k = (self.coords[i] / FRAC_PI_2).floor() as i64;
            self.shift(i, k);
        }
        // 2./3. Sort and fold until a+b ≤ π/2.
        for _ in 0..32 {
            self.sort_desc();
            if self.coords[0] + self.coords[1] > FRAC_PI_2 + 1e-12 {
                // (a,b) → (π/2−b, π/2−a): flip the pair, then shift back.
                self.flip(0, 1);
                self.shift(0, -1);
                self.shift(1, -1);
            } else {
                break;
            }
        }
        debug_assert!(self.coords[0] + self.coords[1] <= FRAC_PI_2 + 1e-9);
        // 4. Fold a into [0, π/4]; c picks up a sign.
        if self.coords[0] > FRAC_PI_4 + 1e-12 {
            self.flip(0, 2);
            self.shift(0, -1);
        }
        // 5. On the a = π/4 boundary, c's sign is gauge: make it positive.
        if self.coords[2] < -1e-12 && (self.coords[0] - FRAC_PI_4).abs() < 1e-9 {
            self.flip(0, 2);
            self.shift(0, -1);
        }
        // Snap tiny numerical residue on near-zero coordinates.
        for c in &mut self.coords {
            if c.abs() < 1e-12 {
                *c = 0.0;
            }
        }
    }
}

/// Appends the single-qubit gate realizing `m` (up to phase) onto qubit `q`,
/// skipping exact identities.
fn push_local(circ: &mut Circuit, m: &Matrix, q: usize) {
    let g = matrix_to_u3_gate(m);
    if !matches!(g, Gate::I) {
        circ.push(g, &[q]);
    }
}

/// Appends the canonical-gate circuit for coordinates `(a, b, c)` (assumed
/// canonicalized) using the cheapest template.
fn push_canonical(circ: &mut Circuit, a: f64, b: f64, c: f64) {
    let near = |x: f64, y: f64| (x - y).abs() < TOL;
    if near(a, 0.0) && near(b, 0.0) && near(c, 0.0) {
        return;
    }
    if near(a, FRAC_PI_4) && near(b, FRAC_PI_4) && near(c, FRAC_PI_4) {
        // CAN(π/4,π/4,π/4) = e^{iπ/4}·SWAP = three CNOTs.
        circ.cx(1, 0).cx(0, 1).cx(1, 0);
        return;
    }
    if near(c, 0.0) {
        if near(b, 0.0) && near(a, FRAC_PI_4) {
            // CAN(π/4,0,0) = e^{-iπ/4}·H₁·Rz(−π/2)₁·Rx(−π/2)₀·CX(1→0)·H₁.
            circ.h(1).cx(1, 0).rx(-FRAC_PI_2, 0).rz(-FRAC_PI_2, 1).h(1);
            return;
        }
        // Two-CNOT sandwich:
        // CAN(a,b,0) = Rx(π/2)₁ · CX(1→0) · Rx(−2a)₁Ry(2b)₀ · CX(1→0) · Rx(−π/2)₁.
        circ.rx(-FRAC_PI_2, 1)
            .cx(1, 0)
            .rx(-2.0 * a, 1)
            .ry(2.0 * b, 0)
            .cx(1, 0)
            .rx(FRAC_PI_2, 1);
        return;
    }
    // General class: two-CNOT sandwich for (a,b,0), then a ZZ gadget for c:
    // exp(ic·ZZ) = CX(1→0)·Rz(−2c)₀·CX(1→0). Operator order CAN(a,b,0)·ZZ
    // means the ZZ gadget is applied first in time.
    circ.cx(1, 0).rz(-2.0 * c, 0).cx(1, 0);
    circ.rx(-FRAC_PI_2, 1)
        .cx(1, 0)
        .rx(-2.0 * a, 1)
        .ry(2.0 * b, 0)
        .cx(1, 0)
        .rx(FRAC_PI_2, 1);
}

/// Synthesizes a two-qubit circuit (on qubits 0 and 1) implementing `u` up
/// to global phase, using at most four CNOTs (three for the SWAP class, two
/// when a Weyl coordinate vanishes, fewer in degenerate classes).
///
/// # Panics
///
/// Panics if `u` is not a 4×4 unitary.
pub fn synthesize_two_qubit(u: &Matrix) -> Circuit {
    match try_synthesize_two_qubit(u) {
        Ok(c) => c,
        Err(e) => panic!("{e}"),
    }
}

/// [`synthesize_two_qubit`] with a typed error instead of a panic on bad
/// input — what `ConsolidateBlocks` calls so a corrupted block unitary
/// degrades into "decline the block" rather than killing the pipeline.
///
/// # Errors
///
/// Same failure modes as [`TwoQubitWeyl::try_decompose`].
pub fn try_synthesize_two_qubit(u: &Matrix) -> Result<Circuit, RpoError> {
    let w = TwoQubitWeyl::try_decompose(u)?;
    let mut circ = Circuit::new(2);
    push_local(&mut circ, &w.k2_q0, 0);
    push_local(&mut circ, &w.k2_q1, 1);
    push_canonical(&mut circ, w.a, w.b, w.c);
    push_local(&mut circ, &w.k1_q0, 0);
    push_local(&mut circ, &w.k1_q1, 1);
    debug_assert!(
        circuit_unitary(&circ).equal_up_to_global_phase(u, 1e-6),
        "synthesis failed for coords ({}, {}, {})",
        w.a,
        w.b,
        w.c
    );
    Ok(circ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_math::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn non_unitary_input_yields_numeric_error() {
        // All-ones is far from unitary; the old release build decomposed
        // it into NaN factors silently.
        let bad = Matrix::from_fn(4, 4, |_, _| C64::real(1.0));
        assert!(matches!(
            TwoQubitWeyl::try_decompose(&bad),
            Err(RpoError::Numeric { .. })
        ));
        assert!(matches!(
            try_synthesize_two_qubit(&bad),
            Err(RpoError::Numeric { .. })
        ));
    }

    #[test]
    fn non_finite_input_yields_numeric_error() {
        let mut m = Matrix::identity(4);
        m[(0, 0)] = C64::real(f64::NAN);
        assert!(matches!(
            TwoQubitWeyl::try_decompose(&m),
            Err(RpoError::Numeric { .. })
        ));
        let mut m = Matrix::identity(4);
        m[(2, 3)] = C64::real(f64::INFINITY);
        assert!(matches!(
            TwoQubitWeyl::try_decompose(&m),
            Err(RpoError::Numeric { .. })
        ));
    }

    #[test]
    fn wrong_shape_yields_invalid_input() {
        let m = Matrix::identity(2);
        assert!(matches!(
            TwoQubitWeyl::try_decompose(&m),
            Err(RpoError::InvalidInput(_))
        ));
    }

    fn check_decompose(u: &Matrix) -> TwoQubitWeyl {
        let w = TwoQubitWeyl::decompose(u);
        assert!(
            w.reconstruct().approx_eq(u, 1e-7),
            "reconstruction failed: coords ({},{},{})",
            w.a,
            w.b,
            w.c
        );
        // Canonical chamber invariants.
        assert!(w.a <= FRAC_PI_4 + 1e-9, "a={} too large", w.a);
        assert!(w.b <= w.a + 1e-9 && w.b >= -1e-9);
        assert!(w.c.abs() <= w.b + 1e-9);
        w
    }

    fn check_synthesis(u: &Matrix, max_cx: usize) {
        let circ = synthesize_two_qubit(u);
        assert!(
            circuit_unitary(&circ).equal_up_to_global_phase(u, 1e-6),
            "synthesized circuit wrong"
        );
        let cx = circ.gate_counts().cx;
        assert!(cx <= max_cx, "used {cx} CNOTs, expected ≤ {max_cx}");
    }

    #[test]
    fn canonical_matrix_properties() {
        // CAN(0,0,0) = I.
        assert!(canonical_matrix(0.0, 0.0, 0.0).approx_eq(&Matrix::identity(4), 1e-12));
        // SWAP = e^{−iπ/4}·CAN(π/4,π/4,π/4).
        let can = canonical_matrix(FRAC_PI_4, FRAC_PI_4, FRAC_PI_4);
        let swap = Gate::Swap.matrix().unwrap();
        assert!(can.scale(C64::cis(-FRAC_PI_4)).approx_eq(&swap, 1e-12));
        // Commutativity of the three factors.
        let m1 = canonical_matrix(0.3, 0.2, 0.1);
        let m2 = canonical_matrix(0.1, 0.0, 0.0)
            .matmul(&canonical_matrix(0.2, 0.2, 0.1))
            .matmul(&canonical_matrix(0.0, 0.0, 0.0));
        assert!(m1.approx_eq(&m2, 1e-10));
    }

    #[test]
    fn decompose_identity_and_locals() {
        let w = check_decompose(&Matrix::identity(4));
        assert!(w.a.abs() < 1e-9 && w.b.abs() < 1e-9 && w.c.abs() < 1e-9);
        // A pure tensor product also has zero coordinates.
        let local = Gate::H.matrix().unwrap().kron(&Gate::T.matrix().unwrap());
        let w = check_decompose(&local);
        assert_eq!(w.template_cx_cost(), 0);
    }

    #[test]
    fn decompose_cnot_class() {
        let cx = Gate::Cx.matrix().unwrap();
        let w = check_decompose(&cx);
        assert!((w.a - FRAC_PI_4).abs() < 1e-9, "a = {}", w.a);
        assert!(w.b.abs() < 1e-9 && w.c.abs() < 1e-9);
        assert_eq!(w.template_cx_cost(), 1);
        // CZ is in the same class.
        let w = check_decompose(&Gate::Cz.matrix().unwrap());
        assert_eq!(w.template_cx_cost(), 1);
    }

    #[test]
    fn decompose_swap_class() {
        let w = check_decompose(&Gate::Swap.matrix().unwrap());
        assert!((w.a - FRAC_PI_4).abs() < 1e-9);
        assert!((w.b - FRAC_PI_4).abs() < 1e-9);
        assert!((w.c - FRAC_PI_4).abs() < 1e-9);
        assert_eq!(w.template_cx_cost(), 3);
    }

    #[test]
    fn decompose_two_cx_class() {
        // SWAPZ = two CNOTs → class has c = 0.
        let w = check_decompose(&Gate::SwapZ.matrix().unwrap());
        assert!(w.c.abs() < 1e-9, "c = {}", w.c);
        assert!(w.template_cx_cost() <= 2);
        // Controlled-phase of a generic angle is CNOT-like but weaker: one
        // coordinate only.
        let w = check_decompose(&Gate::Cp(1.1).matrix().unwrap());
        assert!(w.b.abs() < 1e-9 && w.c.abs() < 1e-9);
        assert!(w.template_cx_cost() <= 2);
    }

    #[test]
    fn decompose_canonical_gates_round_trip_coords() {
        // Coordinates already in the chamber must come back unchanged.
        let points: [(f64, f64, f64); 4] = [
            (0.5, 0.3, 0.1),
            (0.7, 0.7, -0.2),
            (FRAC_PI_4, 0.4, 0.0),
            (0.2, 0.0, 0.0),
        ];
        for (a, b, c) in points {
            // Only test points actually inside the chamber.
            if a > FRAC_PI_4 || b > a || c.abs() > b {
                continue;
            }
            let u = canonical_matrix(a, b, c);
            let w = check_decompose(&u);
            assert!(
                (w.a - a).abs() < 1e-7 && (w.b - b).abs() < 1e-7 && (w.c - c).abs() < 1e-7,
                "coords changed: ({a},{b},{c}) → ({},{},{})",
                w.a,
                w.b,
                w.c
            );
        }
    }

    #[test]
    fn local_multiplication_preserves_coords() {
        let mut rng = StdRng::seed_from_u64(31);
        let u = haar_unitary(4, &mut rng);
        let w0 = check_decompose(&u);
        let l = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
        let r = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
        let u2 = l.matmul(&u).matmul(&r);
        let w1 = check_decompose(&u2);
        assert!(
            (w0.a - w1.a).abs() < 1e-7 && (w0.b - w1.b).abs() < 1e-7 && (w0.c - w1.c).abs() < 1e-7,
            "coords not local-invariant: ({},{},{}) vs ({},{},{})",
            w0.a,
            w0.b,
            w0.c,
            w1.a,
            w1.b,
            w1.c
        );
    }

    #[test]
    fn decompose_random_unitaries() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let u = haar_unitary(4, &mut rng);
            check_decompose(&u);
        }
    }

    #[test]
    fn synthesize_named_gates() {
        check_synthesis(&Gate::Cx.matrix().unwrap(), 1);
        check_synthesis(&Gate::Cz.matrix().unwrap(), 1);
        check_synthesis(&Gate::Swap.matrix().unwrap(), 3);
        check_synthesis(&Gate::SwapZ.matrix().unwrap(), 2);
        check_synthesis(&Gate::Cp(0.8).matrix().unwrap(), 2);
        check_synthesis(&Matrix::identity(4), 0);
        let local = Gate::T.matrix().unwrap().kron(&Gate::H.matrix().unwrap());
        check_synthesis(&local, 0);
    }

    #[test]
    fn synthesize_canonical_two_parameter() {
        check_synthesis(&canonical_matrix(0.6, 0.25, 0.0), 2);
        check_synthesis(&canonical_matrix(0.3, 0.3, 0.0), 2);
    }

    #[test]
    fn synthesize_generic_random() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let u = haar_unitary(4, &mut rng);
            check_synthesis(&u, 4);
        }
    }

    #[test]
    fn synthesize_product_of_cnots() {
        // Circuits built from ≤3 CNOTs must never synthesize to more CNOTs
        // than a generic gate (4).
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).t(1).cx(1, 0).s(0);
        let u = circuit_unitary(&c);
        check_synthesis(&u, 4);
    }
}
