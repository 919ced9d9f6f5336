//! Behaviour contract of the Hoare flow: committed fingerprints of
//! [`transpile_hoare`] on the paper's benchmark families.
//!
//! The corpus mirrors the `compile-paper` benchmark workload with fixed
//! circuit parameters: QPE, VQE, QV and BV at 4–8 qubits, no-ancilla
//! Grover at 4–6, the V-chain Grover with and without `ANNOT`, and the
//! adder with and without `ANNOT` on melbourne; a 20-qubit QV and
//! `qpe(17)` on almaden. Every circuit runs at routing seeds 0–2. Each
//! entry pins the output's [`digest`] (bit-exact gates, parameters and
//! operands, up to the sign of zero), its `final_map`, and its cx / depth
//! / single-qubit counts.
//!
//! A change that moves any entry changes what the paper's third column
//! reports. When that is intended, the failure message prints the
//! replacement table line.

use qc_algos::{
    bernstein_vazirani, grover, qpe, quantum_volume, quantum_volume_with_depth, ripple_carry_adder,
    vqe_ry_ansatz, McxDesign, OracleStyle,
};
use qc_backends::Backend;
use qc_circuit::{content_hash, Circuit, Gate};
use qc_hoare::transpile_hoare;
use qc_transpile::TranspileOptions;

/// One pinned output: input name, routing seed, digest, final map, cx,
/// depth and single-qubit gate count.
type Golden = (
    &'static str,
    u64,
    u128,
    &'static [usize],
    usize,
    usize,
    usize,
);

const SEEDS: [u64; 3] = [0, 1, 2];

/// [`content_hash`] of `c` with every `-0.0` parameter read as `+0.0`.
/// The circuit-level `Optimize1qGates` writes each merged run back, while
/// the DAG-native one keeps a gate its merge reproduces under `==`; the
/// two outputs then differ only in the sign of zero angles, which no
/// simulator or device can tell apart.
fn digest(c: &Circuit) -> u128 {
    let z = |x: f64| x + 0.0;
    let mut out = Circuit::new(c.num_qubits());
    for inst in c.instructions() {
        let gate = match inst.gate {
            Gate::Rx(t) => Gate::Rx(z(t)),
            Gate::Ry(t) => Gate::Ry(z(t)),
            Gate::Rz(t) => Gate::Rz(z(t)),
            Gate::U1(t) => Gate::U1(z(t)),
            Gate::Cp(t) => Gate::Cp(z(t)),
            Gate::U2(a, b) => Gate::U2(z(a), z(b)),
            Gate::U3(a, b, c) => Gate::U3(z(a), z(b), z(c)),
            Gate::Annot(a, b) => Gate::Annot(z(a), z(b)),
            ref g => g.clone(),
        };
        out.push(gate, &inst.qubits);
    }
    content_hash(&out)
}

/// The QPE phase `k / 2^bits` used for a `bits`-qubit counting register.
fn qpe_theta(bits: usize) -> f64 {
    let k = (1u64 << (bits - 1)) + 1;
    k as f64 / (1u64 << bits) as f64
}

/// A hidden string of `n` bits with every even position set.
fn alternating(n: usize) -> Vec<bool> {
    (0..n).map(|i| i % 2 == 0).collect()
}

/// The 4–8 qubit families of Table II plus BV (Fig. 10), on melbourne.
fn table2_corpus() -> Vec<(String, Circuit)> {
    let mut v = Vec::new();
    for n in 4..=8usize {
        v.push((format!("qpe{n}"), qpe(n - 1, qpe_theta(n - 1))));
        v.push((format!("vqe{n}"), vqe_ry_ansatz(n, 2, 100 + n as u64)));
        v.push((format!("qv{n}"), quantum_volume(n, 200 + n as u64)));
        v.push((
            format!("bv{n}"),
            bernstein_vazirani(&alternating(n - 1), OracleStyle::Boolean),
        ));
    }
    v
}

/// Grover without ancillas (4–6 qubits) and the V-chain design with and
/// without annotations, on melbourne.
fn grover_corpus() -> Vec<(String, Circuit)> {
    let mut v = Vec::new();
    for n in 4..=6usize {
        let marked = (5 * n) % (1 << n);
        v.push((
            format!("grover{n}"),
            grover(n, marked, 1, McxDesign::NoAncilla),
        ));
    }
    for (iters, annotate) in [(2, false), (2, true), (4, false), (4, true)] {
        v.push((
            format!("grover6-vchain{iters}{}", if annotate { "a" } else { "" }),
            grover(6, 0b101101, iters, McxDesign::CleanAncilla { annotate }),
        ));
    }
    v
}

/// The 3-bit ripple-carry adder on fixed operands, with and without
/// annotations, on melbourne.
fn adder_corpus() -> Vec<(String, Circuit)> {
    [false, true]
        .into_iter()
        .map(|annotate| {
            let mut c = Circuit::new(7);
            c.x(0).x(2).x(3);
            c.extend(&ripple_carry_adder(3, annotate));
            (format!("adder3{}", if annotate { "a" } else { "" }), c)
        })
        .collect()
}

/// The ~1.5k-gate circuits, on almaden.
fn almaden_corpus() -> Vec<(String, Circuit)> {
    vec![
        ("qv20x20".into(), quantum_volume_with_depth(20, 20, 303)),
        ("qpe17".into(), qpe(17, qpe_theta(17))),
    ]
}

/// Runs the corpus through the Hoare flow and compares every entry with
/// `golden`, in order.
fn check(corpus: Vec<(String, Circuit)>, backend: &Backend, golden: &[Golden]) {
    let mut actual = Vec::new();
    for (name, c) in &corpus {
        for seed in SEEDS {
            let out = transpile_hoare(c, backend, &TranspileOptions::level(3).with_seed(seed))
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            let counts = out.circuit.gate_counts();
            actual.push((
                name.clone(),
                seed,
                digest(&out.circuit),
                out.final_map,
                counts.cx,
                out.circuit.depth(),
                counts.single_qubit,
            ));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, seed, hash, map, cx, depth, oneq)| {
            format!("    (\"{name}\", {seed}, {hash:#034x}, &{map:?}, {cx}, {depth}, {oneq}),\n")
        })
        .collect();
    assert_eq!(
        actual.len(),
        golden.len(),
        "corpus size changed; current table:\n{table}"
    );
    for (a, g) in actual.iter().zip(golden) {
        let (name, seed, hash, map, cx, depth, oneq) = a;
        assert_eq!(
            (
                name.as_str(),
                *seed,
                *hash,
                map.as_slice(),
                *cx,
                *depth,
                *oneq
            ),
            *g,
            "Hoare output moved; current table:\n{table}"
        );
    }
}

#[test]
fn table2_families_match_golden() {
    check(table2_corpus(), &Backend::melbourne(), TABLE2);
}

#[test]
fn grover_families_match_golden() {
    check(grover_corpus(), &Backend::melbourne(), GROVER);
}

#[test]
fn adders_match_golden() {
    check(adder_corpus(), &Backend::melbourne(), ADDER);
}

#[test]
fn almaden_circuits_match_golden() {
    check(almaden_corpus(), &Backend::almaden(), ALMADEN);
}

#[rustfmt::skip]
const TABLE2: &[Golden] = &[
    ("qpe4", 0, 0x249bb56d3b7a00baea5edddd969283b5, &[5, 8, 6, 9], 23, 32, 19),
    ("qpe4", 1, 0x249bb56d3b7a00baea5edddd969283b5, &[5, 8, 6, 9], 23, 32, 19),
    ("qpe4", 2, 0x096094e26de486995311f888f664ea15, &[8, 5, 6, 9], 19, 32, 22),
    ("vqe4", 0, 0xc3c63894807781383a99ee7d946ca89a, &[9, 5, 6, 8], 10, 16, 16),
    ("vqe4", 1, 0xc3c63894807781383a99ee7d946ca89a, &[9, 5, 6, 8], 10, 16, 16),
    ("vqe4", 2, 0xfc84f6ca59f7c0bdedb5f69ac3e6e8cc, &[9, 8, 6, 5], 9, 12, 12),
    ("qv4", 0, 0xfb5a7b6ea110597a117223aca346b7f9, &[9, 6, 5, 8], 35, 37, 52),
    ("qv4", 1, 0xfb5a7b6ea110597a117223aca346b7f9, &[9, 6, 5, 8], 35, 37, 52),
    ("qv4", 2, 0xfb5a7b6ea110597a117223aca346b7f9, &[9, 6, 5, 8], 35, 37, 52),
    ("bv4", 0, 0x5da31f82c71e5a03b43d906930b68d60, &[6, 8, 5, 9], 5, 8, 5),
    ("bv4", 1, 0x5da31f82c71e5a03b43d906930b68d60, &[6, 8, 5, 9], 5, 8, 5),
    ("bv4", 2, 0x5da31f82c71e5a03b43d906930b68d60, &[6, 8, 5, 9], 5, 8, 5),
    ("qpe5", 0, 0xf096ac986c5047fcf819c22c6807c234, &[5, 6, 8, 9, 7], 45, 54, 33),
    ("qpe5", 1, 0xf096ac986c5047fcf819c22c6807c234, &[5, 6, 8, 9, 7], 45, 54, 33),
    ("qpe5", 2, 0xf096ac986c5047fcf819c22c6807c234, &[5, 6, 8, 9, 7], 45, 54, 33),
    ("vqe5", 0, 0x4c9be4dd4fe7bb245b35f0f824c87312, &[8, 7, 6, 5, 9], 14, 19, 15),
    ("vqe5", 1, 0x4c9be4dd4fe7bb245b35f0f824c87312, &[8, 7, 6, 5, 9], 14, 19, 15),
    ("vqe5", 2, 0x4c9be4dd4fe7bb245b35f0f824c87312, &[8, 7, 6, 5, 9], 14, 19, 15),
    ("qv5", 0, 0x80c31a2a731d11c9bbbafaa66cfdd12b, &[5, 6, 7, 9, 8], 27, 30, 42),
    ("qv5", 1, 0xdb44770f88f6d5e79c59417cb78ed5c9, &[6, 7, 8, 5, 9], 33, 44, 43),
    ("qv5", 2, 0x9ae9f5ad7fbd0d80cd3c3e23d0bfba23, &[6, 9, 7, 5, 8], 33, 44, 43),
    ("bv5", 0, 0x8536fe9f9d3972d84afabf79658758ba, &[6, 8, 5, 7, 9], 5, 8, 5),
    ("bv5", 1, 0x8536fe9f9d3972d84afabf79658758ba, &[6, 8, 5, 7, 9], 5, 8, 5),
    ("bv5", 2, 0x8536fe9f9d3972d84afabf79658758ba, &[6, 8, 5, 7, 9], 5, 8, 5),
    ("qpe6", 0, 0x326b99f3a93c7be455390bdacd7f0244, &[6, 9, 10, 4, 5, 8], 67, 82, 44),
    ("qpe6", 1, 0x27327e4d0e91a6a0da082bff27f4e9f4, &[4, 6, 10, 5, 9, 8], 62, 83, 54),
    ("qpe6", 2, 0x27327e4d0e91a6a0da082bff27f4e9f4, &[4, 6, 10, 5, 9, 8], 62, 83, 54),
    ("vqe6", 0, 0xe01f0430b2a48461ede8178a00470bc4, &[4, 9, 10, 8, 6, 5], 16, 20, 18),
    ("vqe6", 1, 0xe01f0430b2a48461ede8178a00470bc4, &[4, 9, 10, 8, 6, 5], 16, 20, 18),
    ("vqe6", 2, 0xfedb624238e030d8e749cdb7ea06f214, &[4, 5, 10, 6, 8, 9], 16, 17, 18),
    ("qv6", 0, 0x81bfdd7166286799f3eaa9565cd14e34, &[5, 4, 8, 6, 9, 10], 71, 79, 92),
    ("qv6", 1, 0xcc0f7a512b7649fb29c14ba9e66f0ec3, &[8, 6, 10, 9, 4, 5], 71, 69, 95),
    ("qv6", 2, 0xcc0f7a512b7649fb29c14ba9e66f0ec3, &[8, 6, 10, 9, 4, 5], 71, 69, 95),
    ("bv6", 0, 0x32fa2eee9ca940168f315a6aec16753b, &[8, 4, 9, 10, 6, 5], 6, 10, 7),
    ("bv6", 1, 0x32fa2eee9ca940168f315a6aec16753b, &[8, 4, 9, 10, 6, 5], 6, 10, 7),
    ("bv6", 2, 0x32fa2eee9ca940168f315a6aec16753b, &[8, 4, 9, 10, 6, 5], 6, 10, 7),
    ("qpe7", 0, 0xa2a1d30ce21a30dd0814fd38eb168ed3, &[7, 10, 5, 6, 8, 9, 4], 91, 101, 71),
    ("qpe7", 1, 0xa2a1d30ce21a30dd0814fd38eb168ed3, &[7, 10, 5, 6, 8, 9, 4], 91, 101, 71),
    ("qpe7", 2, 0xa2a1d30ce21a30dd0814fd38eb168ed3, &[7, 10, 5, 6, 8, 9, 4], 91, 101, 71),
    ("vqe7", 0, 0xeba44323c154077cc5b4af55fc94eeb0, &[10, 8, 4, 7, 6, 5, 9], 30, 31, 21),
    ("vqe7", 1, 0xeba44323c154077cc5b4af55fc94eeb0, &[10, 8, 4, 7, 6, 5, 9], 30, 31, 21),
    ("vqe7", 2, 0xeba44323c154077cc5b4af55fc94eeb0, &[10, 8, 4, 7, 6, 5, 9], 30, 31, 21),
    ("qv7", 0, 0x3178660468050291efbfaafa62c04114, &[10, 6, 7, 5, 4, 9, 8], 103, 98, 123),
    ("qv7", 1, 0x4e682417ddc3ba3c4e2125979f7c9ddc, &[5, 8, 7, 10, 4, 9, 6], 100, 89, 123),
    ("qv7", 2, 0x4e682417ddc3ba3c4e2125979f7c9ddc, &[5, 8, 7, 10, 4, 9, 6], 100, 89, 123),
    ("bv7", 0, 0xfc29a30f979feffc188eefab78726544, &[6, 4, 8, 10, 5, 7, 9], 9, 12, 7),
    ("bv7", 1, 0x8d3a41114c9f93f38b680ffd420f893b, &[9, 4, 8, 10, 6, 7, 5], 9, 12, 7),
    ("bv7", 2, 0x23282f9bd5a845100799a16c0d46d621, &[5, 4, 6, 10, 8, 7, 9], 9, 13, 7),
    ("qpe8", 0, 0x94f8c89913f9cdfcaf03882fff5f61c8, &[5, 8, 3, 11, 9, 4, 10, 6], 124, 131, 106),
    ("qpe8", 1, 0x94f8c89913f9cdfcaf03882fff5f61c8, &[5, 8, 3, 11, 9, 4, 10, 6], 124, 131, 106),
    ("qpe8", 2, 0x94f8c89913f9cdfcaf03882fff5f61c8, &[5, 8, 3, 11, 9, 4, 10, 6], 124, 131, 106),
    ("vqe8", 0, 0x37835567dfeb5f235ab1b2ddb0d83810, &[3, 11, 4, 5, 10, 6, 8, 9], 36, 33, 28),
    ("vqe8", 1, 0x37835567dfeb5f235ab1b2ddb0d83810, &[3, 11, 4, 5, 10, 6, 8, 9], 36, 33, 28),
    ("vqe8", 2, 0x3250eeb84fc36bf42eb88c26c81672a1, &[3, 4, 11, 10, 9, 8, 6, 5], 38, 33, 24),
    ("qv8", 0, 0xdef03849a3146b48ae0be882576ad3e6, &[9, 4, 3, 6, 8, 5, 11, 10], 152, 116, 176),
    ("qv8", 1, 0x55993c6a37c932cdb15804dba3939b92, &[4, 6, 5, 11, 3, 10, 9, 8], 158, 140, 172),
    ("qv8", 2, 0x55993c6a37c932cdb15804dba3939b92, &[4, 6, 5, 11, 3, 10, 9, 8], 158, 140, 172),
    ("bv8", 0, 0x9ddc936a6553770cb294376095cecd98, &[9, 5, 10, 3, 4, 11, 8, 6], 10, 14, 9),
    ("bv8", 1, 0x7cf7ad07708eacd7f87cc5f2df88988f, &[5, 6, 10, 3, 4, 11, 8, 9], 10, 14, 9),
    ("bv8", 2, 0x6109a16d5ef85375cf48ea76d22a23c7, &[5, 6, 4, 3, 10, 11, 8, 9], 7, 10, 9),
];

#[rustfmt::skip]
const GROVER: &[Golden] = &[
    ("grover4", 0, 0x787377db1edea2cb0d05263536bcf830, &[9, 6, 8, 5], 89, 120, 76),
    ("grover4", 1, 0xe3e61896f3344cf15e88e8603182ab16, &[5, 9, 8, 6], 86, 117, 69),
    ("grover4", 2, 0xe3e61896f3344cf15e88e8603182ab16, &[5, 9, 8, 6], 86, 117, 69),
    ("grover5", 0, 0x48f1bfbf72b67c0e9e300fd85263b50b, &[6, 8, 7, 10, 5], 289, 394, 242),
    ("grover5", 1, 0x48f1bfbf72b67c0e9e300fd85263b50b, &[6, 8, 7, 10, 5], 289, 394, 242),
    ("grover5", 2, 0x48f1bfbf72b67c0e9e300fd85263b50b, &[6, 8, 7, 10, 5], 289, 394, 242),
    ("grover6", 0, 0xed70ec5ef7f4b8a39476f09f5056b327, &[5, 8, 6, 4, 10, 9], 867, 1148, 750),
    ("grover6", 1, 0x4c2c30ad4459bec3dba39e797b3bd2f8, &[10, 9, 8, 5, 6, 4], 862, 1130, 745),
    ("grover6", 2, 0x4c2c30ad4459bec3dba39e797b3bd2f8, &[10, 9, 8, 5, 6, 4], 862, 1130, 745),
    ("grover6-vchain2", 0, 0x4cf5b6ec168ba33f71813442c4ff6db6, &[3, 4, 9, 8, 11, 5, 10, 6, 7], 435, 501, 308),
    ("grover6-vchain2", 1, 0x4cf5b6ec168ba33f71813442c4ff6db6, &[3, 4, 9, 8, 11, 5, 10, 6, 7], 435, 501, 308),
    ("grover6-vchain2", 2, 0x99a5944dcdf90cd352c633d265033d93, &[6, 8, 5, 3, 10, 9, 7, 4, 11], 381, 457, 325),
    ("grover6-vchain2a", 0, 0x8e44fe50efbe94bdacf05fb8d847e991, &[3, 4, 9, 8, 11, 5, 10, 6, 7], 441, 511, 307),
    ("grover6-vchain2a", 1, 0x8e44fe50efbe94bdacf05fb8d847e991, &[3, 4, 9, 8, 11, 5, 10, 6, 7], 441, 511, 307),
    ("grover6-vchain2a", 2, 0x9aaf8f3a55ef00914cdad240603fba6f, &[6, 8, 5, 3, 10, 9, 7, 4, 11], 395, 473, 309),
    ("grover6-vchain4", 0, 0x837778cc88b7766fc41a7d3f0ce33d4a, &[6, 8, 7, 4, 11, 10, 5, 9, 3], 832, 964, 635),
    ("grover6-vchain4", 1, 0x837778cc88b7766fc41a7d3f0ce33d4a, &[6, 8, 7, 4, 11, 10, 5, 9, 3], 832, 964, 635),
    ("grover6-vchain4", 2, 0x4d9bec36bfed5433aa1f9f910606f436, &[8, 7, 5, 4, 3, 2, 6, 9, 10], 738, 916, 637),
    ("grover6-vchain4a", 0, 0xd265334f59b4043d141465cedac3a128, &[6, 8, 7, 4, 11, 10, 5, 9, 3], 846, 984, 630),
    ("grover6-vchain4a", 1, 0xd265334f59b4043d141465cedac3a128, &[6, 8, 7, 4, 11, 10, 5, 9, 3], 846, 984, 630),
    ("grover6-vchain4a", 2, 0xe72c853e503b39a7b9f3d04ffc8b99a6, &[8, 7, 5, 4, 3, 2, 6, 9, 10], 760, 943, 618),
];

#[rustfmt::skip]
const ADDER: &[Golden] = &[
    ("adder3", 0, 0x5c419a20d83a033548cecc95dde9f3fa, &[5, 9, 8, 10, 6, 7, 4], 85, 115, 84),
    ("adder3", 1, 0x5c419a20d83a033548cecc95dde9f3fa, &[5, 9, 8, 10, 6, 7, 4], 85, 115, 84),
    ("adder3", 2, 0x5c419a20d83a033548cecc95dde9f3fa, &[5, 9, 8, 10, 6, 7, 4], 85, 115, 84),
    ("adder3a", 0, 0x321003bc8572f4d4d4cda881235497b7, &[5, 9, 8, 10, 6, 7, 4], 85, 115, 84),
    ("adder3a", 1, 0x321003bc8572f4d4d4cda881235497b7, &[5, 9, 8, 10, 6, 7, 4], 85, 115, 84),
    ("adder3a", 2, 0x321003bc8572f4d4d4cda881235497b7, &[5, 9, 8, 10, 6, 7, 4], 85, 115, 84),
];

#[rustfmt::skip]
const ALMADEN: &[Golden] = &[
    ("qv20x20", 0, 0x7d2313fb37222a743af11cad76abe167, &[5, 11, 6, 10, 14, 16, 0, 8, 3, 18, 15, 17, 9, 12, 2, 19, 13, 1, 4, 7], 1771, 810, 1206),
    ("qv20x20", 1, 0xdbec405d5ceeb36be5f0c53ffebfbdb1, &[8, 13, 5, 12, 4, 11, 3, 14, 15, 1, 9, 7, 18, 2, 16, 10, 6, 19, 17, 0], 1738, 942, 1217),
    ("qv20x20", 2, 0xdbec405d5ceeb36be5f0c53ffebfbdb1, &[8, 13, 5, 12, 4, 11, 3, 14, 15, 1, 9, 7, 18, 2, 16, 10, 6, 19, 17, 0], 1738, 942, 1217),
    ("qpe17", 0, 0x5ed7ec608ac1e0cf534701474d389b03, &[16, 18, 14, 11, 9, 13, 5, 10, 12, 8, 0, 4, 2, 3, 1, 7, 6, 17], 1007, 651, 552),
    ("qpe17", 1, 0x5ed7ec608ac1e0cf534701474d389b03, &[16, 18, 14, 11, 9, 13, 5, 10, 12, 8, 0, 4, 2, 3, 1, 7, 6, 17], 1007, 651, 552),
    ("qpe17", 2, 0x30e26843d1db685f561b8a84ff1d5c8c, &[9, 5, 10, 16, 18, 11, 17, 14, 13, 12, 7, 2, 6, 3, 8, 0, 1, 4], 1034, 640, 624),
];
