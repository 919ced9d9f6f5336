//! `serve-mix`: an in-process 3-shard fleet driven through
//! `Fleet::handle_line` by `nproc` closed-loop JSONL clients.
//!
//! One op is one response. Keys are (circuit, flow, routing seed, one-gate
//! edit) tuples drawn by a seeded Zipf over a key space several times the
//! fleet's cache capacity (3 × 256), so warm hits, cold fills, evictions,
//! persist appends, compactions and replication all continue in steady
//! state. A client calls `Fleet::tick` every [`TICK_EVERY`] requests.

use crate::check::{answer, unitary_part, verify, Expect};
use crate::report::{geomean, mean, ms_since, peak_rss_mb, Buckets, Report};
use crate::Args;
use qc_algos::{
    bernstein_vazirani, grover, hidden_string_outcome, qpe, qpe_expected_outcome, quantum_volume,
    ripple_carry_adder, vqe_ry_ansatz, McxDesign, OracleStyle,
};
use qc_backends::Backend;
use qc_circuit::qasm::{from_qasm, to_qasm};
use qc_circuit::{Circuit, Gate, Instruction};
use qc_serve::shard::routing_key;
use qc_serve::wire::{decode_line, encode_response, escape_json, parse_flat_object, WireMsg};
use qc_serve::{
    CacheClass, Fleet, FleetConfig, InProcessShard, ServeConfig, ServeOk, ServeResponse,
    ShardBackend, TranspileService,
};
use qc_sim::Statevector;
use qc_transpile::preset::{stage_unroll_device, Transpiled};
use qc_transpile::DegradationReport;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;
/// Routing seeds per (circuit, flow).
const SEEDS: usize = 4;
/// One-gate edits per (circuit, flow, seed).
const EDITS: usize = 16;
/// Variants (flow, routing seed, edit) of each base circuit.
const VARIANTS: usize = 2 * SEEDS * EDITS;
/// Zipf exponent of a variant's popularity.
const ZIPF_S: f64 = 1.4;
/// Global request cadence of the health/gossip tick.
const TICK_EVERY: u64 = 256;
/// A traced client times the layer calls on one request in this many.
const TRACE_EVERY: u64 = 4;

/// A base circuit of the key space, serializable to QASM.
struct Base {
    name: String,
    circuit: Circuit,
    /// Known answer (logical qubits, outcome), or `None` for a state check.
    answer: Option<(usize, usize)>,
}

/// One key of the key space.
struct Key {
    base: usize,
    rpo: bool,
    seed: u64,
    edit: usize,
}

/// The generated request side of the workload.
struct Workload {
    bases: Vec<Base>,
    keys: Vec<Key>,
    qasm: Vec<String>,
    lines: Vec<String>,
    /// Cumulative Zipf weights over a circuit's variants by rank.
    cdf: Vec<f64>,
    /// Per base circuit, its variants (flow, seed, edit) in rank order.
    order: Vec<Vec<usize>>,
}

/// Inserts the edit's rotation just before the trailing measurements.
fn edited(base: &Circuit, edit: usize) -> Circuit {
    let insts = base.instructions();
    let cut = insts
        .iter()
        .position(|i| matches!(i.gate, Gate::Measure))
        .unwrap_or(insts.len());
    let mut out: Vec<Instruction> = insts[..cut].to_vec();
    let q = edit % base.num_qubits();
    out.push(Instruction::new(
        Gate::Rz(1e-3 * (edit + 1) as f64),
        vec![q],
    ));
    out.extend_from_slice(&insts[cut..]);
    let mut c = Circuit::new(base.num_qubits());
    c.set_instructions(out);
    c
}

/// The base circuits: fixed instances (QV and VQE seeded by their width,
/// QPE at θ = 1 − 2⁻ᵐ, BV on an alternating string), so the workload seed
/// draws the request stream and not the circuits — a seed-drawn random QV
/// alone moves the probes' CNOT total by ±5%.
fn bases() -> Vec<Base> {
    let mut out = Vec::new();
    for n in 4..=7usize {
        let m = n - 1;
        let theta = 1.0 - 1.0 / (1u64 << m) as f64;
        out.push(Base {
            name: format!("qpe{n}"),
            circuit: qpe(m, theta),
            answer: Some((m, qpe_expected_outcome(m, theta))),
        });
        out.push(Base {
            name: format!("vqe{n}"),
            circuit: vqe_ry_ansatz(n, 2, n as u64),
            answer: None,
        });
        let s: Vec<bool> = (0..m).map(|i| i % 2 == 0).collect();
        out.push(Base {
            name: format!("bv{n}"),
            circuit: bernstein_vazirani(&s, OracleStyle::Boolean),
            answer: Some((m, hidden_string_outcome(&s))),
        });
        // QV's `unitary` gates have no QASM form: decompose first.
        let mut qv = quantum_volume(n, n as u64);
        stage_unroll_device(&mut qv).expect("QV decomposes");
        out.push(Base {
            name: format!("qv{n}"),
            circuit: qv,
            answer: None,
        });
    }
    for n in [4usize, 5] {
        out.push(Base {
            name: format!("grover{n}-vchain"),
            circuit: grover(n, 1, 1, McxDesign::CleanAncilla { annotate: true }),
            answer: Some((n, 1)),
        });
    }
    out.push(Base {
        name: "adder3".into(),
        circuit: ripple_carry_adder(3, true),
        answer: None,
    });
    out
}

fn workload(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let bases = bases();
    let seeds: Vec<u64> = (0..SEEDS as u64).collect();
    let mut keys = Vec::new();
    for base in 0..bases.len() {
        for rpo in [true, false] {
            for &seed in &seeds {
                for edit in 0..EDITS {
                    keys.push(Key {
                        base,
                        rpo,
                        seed,
                        edit,
                    });
                }
            }
        }
    }
    let mut qasm = Vec::with_capacity(keys.len());
    let mut lines = Vec::with_capacity(keys.len());
    for (i, k) in keys.iter().enumerate() {
        let text = to_qasm(&edited(&bases[k.base].circuit, k.edit)).expect("key serializes");
        let flow = if k.rpo {
            "\"flow\": \"rpo\""
        } else {
            "\"flow\": \"preset\", \"level\": 3"
        };
        lines.push(format!(
            "{{\"id\": \"k{i}\", \"qasm\": \"{}\", \"backend\": \"melbourne\", {flow}, \"seed\": {}}}",
            escape_json(&text),
            k.seed
        ));
        qasm.push(text);
    }
    let order = (0..bases.len())
        .map(|_| {
            let mut o: Vec<usize> = (0..VARIANTS).collect();
            o.shuffle(&mut rng);
            o
        })
        .collect();
    let mut acc = 0.0;
    let cdf = (0..VARIANTS)
        .map(|r| {
            acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
            acc
        })
        .collect();
    Workload {
        bases,
        keys,
        qasm,
        lines,
        cdf,
        order,
    }
}

impl Workload {
    /// A key: a uniformly drawn circuit, and a Zipf-drawn variant of it.
    fn sample(&self, rng: &mut StdRng) -> usize {
        let base = rng.gen_range(0..self.bases.len());
        let total = *self.cdf.last().expect("non-empty key space");
        let u = rng.gen::<f64>() * total;
        let rank = self.cdf.partition_point(|&c| c < u).min(VARIANTS - 1);
        base * VARIANTS + self.order[base][rank]
    }
}

thread_local! {
    /// Time this thread spent inside shard `send_line` calls, in µs.
    static SHARD_US: Cell<f64> = const { Cell::new(0.0) };
}

/// A timing wrapper over an in-process shard (the traced fleet's backend).
struct TimedShard(InProcessShard);

impl ShardBackend for TimedShard {
    fn send_line(&self, line: &str) -> std::io::Result<String> {
        let t0 = Instant::now();
        let out = self.0.send_line(line);
        SHARD_US.set(SHARD_US.get() + t0.elapsed().as_secs_f64() * 1e6);
        out
    }
}

fn services(dir: &Path) -> Vec<InProcessShard> {
    (0..SHARDS)
        .map(|i| {
            let svc = TranspileService::with_persistence(
                ServeConfig::default(),
                &dir.join(format!("shard-{i}.seglog")),
            )
            .expect("segment log opens");
            InProcessShard::new(Arc::new(svc))
        })
        .collect()
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        replicas: 1,
        ..FleetConfig::default()
    }
}

/// A string field of a response line, still JSON-escaped.
fn raw_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":\"");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let mut from = 0;
    loop {
        let end = from + rest[from..].find('"')?;
        // A quote ends the field unless an odd run of backslashes escapes it.
        let slashes = rest[..end].bytes().rev().take_while(|&b| b == b'\\').count();
        if slashes % 2 == 0 {
            return Some(&rest[..end]);
        }
        from = end + 1;
    }
}

/// A string field of a response line (JSON-unescaped).
fn str_field(line: &str, name: &str) -> Option<String> {
    unescape(raw_field(line, name)?)
}

fn unescape(raw: &str) -> Option<String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    Some(out)
}

fn num_field(line: &str, name: &str) -> Option<u64> {
    let tag = format!("\"{name}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn final_map(line: &str) -> Option<Vec<usize>> {
    let tag = "\"final_map\":[";
    let rest = &line[line.find(tag)? + tag.len()..];
    let inner = &rest[..rest.find(']')?];
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner.split(',').map(|s| s.parse().ok()).collect()
}

/// What one window of client traffic measured.
#[derive(Default)]
struct Phase {
    lat: Buckets,
    failures: Vec<String>,
    /// Keys requested in the window.
    requested: HashSet<usize>,
    /// Each key's first response QASM, still escaped.
    first: HashMap<usize, String>,
    /// Time the client spent between a response and its next request,
    /// outside traced layer calls and ticks.
    client_ms: f64,
    compile_ms: Vec<f64>,
    tick_ms: Vec<f64>,
    router_self_us: Vec<f64>,
    shard_us: Vec<f64>,
    decode_us: Vec<f64>,
    key_us: Vec<f64>,
    encode_us: Vec<f64>,
    parse_us: Vec<f64>,
    emit_us: Vec<f64>,
    metrics: HashMap<String, u64>,
}

/// Rebuilds the typed response a line encodes, for timing the encoder.
fn response_of(line: &str, circuit_qasm: String, map: Vec<usize>) -> ServeResponse {
    ServeResponse {
        id: str_field(line, "id").unwrap_or_default(),
        result: Ok(ServeOk {
            qasm: circuit_qasm,
            final_map: map,
            degradation: DegradationReport::default(),
            cache: CacheClass::Warm,
            retries: 0,
            retried_after: Vec::new(),
            breaker_disabled: Vec::new(),
            compile_nanos: num_field(line, "compile_ns").unwrap_or(0),
            total_nanos: num_field(line, "total_ns").unwrap_or(0),
            verified: false,
        }),
    }
}

/// Runs `clients` closed-loop clients against `fleet` for `window`.
/// Within the window a client only checks each response's status and
/// compares its QASM with the first response for the key; parsing and
/// the checks across clients follow the window.
fn drive<B: ShardBackend + Sync>(
    fleet: &Fleet<B>,
    wl: &Workload,
    seed: u64,
    clients: usize,
    window: Duration,
    traced: bool,
) -> Phase {
    let requests = AtomicU64::new(0);
    let t_start = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let requests = &requests;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 * (c as u64 + 1)));
                    let mut ph = Phase::default();
                    let mut mine = 0u64;
                    while t_start.elapsed() < window {
                        let k = wl.sample(&mut rng);
                        let line = &wl.lines[k];
                        SHARD_US.set(0.0);
                        let t0 = Instant::now();
                        let resp = fleet.handle_line(line);
                        let ms = ms_since(t0);
                        let t_client = Instant::now();
                        ph.lat.push(t_start.elapsed().as_secs_f64(), ms);
                        mine += 1;
                        ph.requested.insert(k);
                        let qc_serve::shard::FleetLine::Response(out) = resp else {
                            ph.failures.push(format!("key {k}: fleet drained"));
                            continue;
                        };
                        if traced {
                            let shard = SHARD_US.get();
                            ph.shard_us.push(shard);
                            ph.router_self_us.push(ms * 1e3 - shard);
                        }
                        if !out.contains("\"status\":\"ok\"") {
                            ph.failures.push(format!("key {k}: {out}"));
                            continue;
                        }
                        if out.contains("\"cache\":\"cold\"") {
                            if let Some(ns) = num_field(&out, "compile_ns") {
                                ph.compile_ms.push(ns as f64 / 1e6);
                            }
                        }
                        // Every response for a key must repeat the first
                        // byte for byte.
                        match raw_field(&out, "qasm") {
                            None => ph.failures.push(format!("key {k}: no qasm field")),
                            Some(q) => match ph.first.get(&k) {
                                None => {
                                    ph.first.insert(k, q.to_string());
                                }
                                Some(prev) if prev != q => {
                                    ph.failures.push(format!("key {k}: response changed"));
                                }
                                Some(_) => {}
                            },
                        }
                        ph.client_ms += ms_since(t_client);
                        if traced && mine.is_multiple_of(TRACE_EVERY) {
                            trace_layers(&mut ph, wl, k, &out);
                        }
                        let n = requests.fetch_add(1, Ordering::Relaxed) + 1;
                        if n.is_multiple_of(TICK_EVERY) {
                            let t0 = Instant::now();
                            fleet.tick();
                            ph.tick_ms.push(ms_since(t0));
                        }
                    }
                    ph
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Phase::default();
    for p in parts {
        all.lat.merge(p.lat);
        all.failures.extend(p.failures);
        all.requested.extend(p.requested);
        for (k, q) in p.first {
            match all.first.get(&k) {
                Some(prev) if *prev != q => {
                    all.failures.push(format!("key {k}: response differs between clients"));
                }
                Some(_) => {}
                None => {
                    all.first.insert(k, q);
                }
            }
        }
        all.client_ms += p.client_ms;
        all.compile_ms.extend(p.compile_ms);
        all.tick_ms.extend(p.tick_ms);
        all.router_self_us.extend(p.router_self_us);
        all.shard_us.extend(p.shard_us);
        all.decode_us.extend(p.decode_us);
        all.key_us.extend(p.key_us);
        all.encode_us.extend(p.encode_us);
        all.parse_us.extend(p.parse_us);
        all.emit_us.extend(p.emit_us);
    }
    // Each key's QASM parses, once, after the window.
    for (k, q) in &all.first {
        match unescape(q).map(|t| from_qasm(&t)) {
            Some(Ok(_)) => {}
            Some(Err(e)) => all.failures.push(format!("key {k}: qasm {e:?}")),
            None => all.failures.push(format!("key {k}: bad escape in qasm")),
        }
    }
    if let qc_serve::shard::FleetLine::Response(m) = fleet.handle_line("{\"op\":\"metrics\"}") {
        if let Ok(map) = parse_flat_object(&m) {
            for (k, v) in map {
                if let Some(n) = v.as_u64() {
                    all.metrics.insert(k, n);
                }
            }
        }
    }
    all
}

/// Times, from outside, the layer calls one request went through.
fn trace_layers(ph: &mut Phase, wl: &Workload, k: usize, out: &str) {
    let line = &wl.lines[k];
    let text = str_field(out, "qasm").unwrap_or_default();
    let t0 = Instant::now();
    let msg = decode_line(line);
    ph.decode_us.push(ms_since(t0) * 1e3);
    if let Ok(WireMsg::Request(req)) = msg {
        let t0 = Instant::now();
        std::hint::black_box(routing_key(&req));
        ph.key_us.push(ms_since(t0) * 1e3);
    }
    let t0 = Instant::now();
    let parsed = from_qasm(&wl.qasm[k]);
    ph.parse_us.push(ms_since(t0) * 1e3);
    drop(parsed);
    if let Ok(circuit) = from_qasm(&text) {
        let t0 = Instant::now();
        let emitted = to_qasm(&circuit);
        ph.emit_us.push(ms_since(t0) * 1e3);
        drop(emitted);
    }
    let resp = response_of(out, text, final_map(out).unwrap_or_default());
    let t0 = Instant::now();
    std::hint::black_box(encode_response(&resp));
    ph.encode_us.push(ms_since(t0) * 1e3);
}

/// A fresh persistence directory for one fleet.
fn fresh_dir(scratch: &Path, tag: &str) -> PathBuf {
    let dir = scratch.join(format!("serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn clients() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

pub fn run(args: &Args, start: Instant) -> Report {
    let wl = workload(args.seed);
    // One-time work before the clock: a first compile of each flow, a
    // QASM round trip, and the fleet with its segment logs.
    let backend = Backend::melbourne();
    let warm = &wl.bases[0].circuit;
    let _ = qc_transpile::transpile(warm, &backend, &qc_transpile::TranspileOptions::level(3));
    let _ = rpo_core::transpile_rpo(warm, &backend, &rpo_core::RpoOptions::new());
    let _ = from_qasm(&wl.qasm[0]);
    let dir = fresh_dir(&args.scratch, "a");
    let fleet = Fleet::new(services(&dir), fleet_config());
    let mut report = Report::new(start.elapsed().as_secs_f64());
    if args.setup_only {
        drop(fleet);
        let _ = std::fs::remove_dir_all(&dir);
        return report;
    }
    let window = Duration::from_secs_f64(args.seconds);
    let n = clients();
    let (main, untraced, rss) = if args.trace {
        let untraced = drive(&fleet, &wl, args.seed, n, window / 2, false);
        let dir_b = fresh_dir(&args.scratch, "b");
        let shards = services(&dir_b).into_iter().map(TimedShard).collect();
        let traced_fleet = Fleet::new(shards, fleet_config());
        let traced = drive(&traced_fleet, &wl, args.seed, n, window / 2, true);
        let rss = peak_rss_mb();
        probe(&traced_fleet, &wl, args.seed, &mut report);
        drop(traced_fleet);
        let _ = std::fs::remove_dir_all(&dir_b);
        (traced, Some(untraced), rss)
    } else {
        let phase = drive(&fleet, &wl, args.seed, n, window, false);
        let rss = peak_rss_mb();
        probe(&fleet, &wl, args.seed, &mut report);
        (phase, None, rss)
    };
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);

    report.attempted += main.lat.samples() as u64;
    for f in &main.failures {
        report.fail(f.clone());
    }
    let samples = main.lat.samples().max(1) as f64;
    let repeat_share = 1.0 - main.requested.len() as f64 / samples;
    let m = |k: &str| main.metrics.get(k).copied().unwrap_or(0) as f64;
    let served = m("served_ok").max(1.0);
    report.notes.push(format!(
        "serve-mix: {} keys ({} circuits x 2 flows x {SEEDS} seeds x {EDITS} edits, \
         uniform circuit, Zipf {ZIPF_S} variant), cache capacity {} x {SHARDS}, {n} clients, \
         repeated-key share {repeat_share:.4}, hit ratio {:.4}",
        wl.keys.len(),
        wl.bases.len(),
        ServeConfig::default().cache_capacity,
        m("cache_warm") / served
    ));
    if let Some(u) = untraced {
        report.layer("trace.overhead_frac", main.lat.mean() / u.lat.mean() - 1.0);
        report.layer("serve.router_self_us", mean(&main.router_self_us));
        report.layer("serve.shard_us", mean(&main.shard_us));
        report.layer("serve.decode_us", mean(&main.decode_us));
        report.layer("serve.key_us", mean(&main.key_us));
        report.layer("serve.encode_us", mean(&main.encode_us));
        report.layer("circuit.qasm_parse_us", mean(&main.parse_us));
        report.layer("circuit.qasm_emit_us", mean(&main.emit_us));
        report.layer("serve.compile_ms", mean(&main.compile_ms));
        report.layer("serve.tick_ms", mean(&main.tick_ms));
        report.layer("serve.hit_ratio", m("cache_warm") / served);
        report.layer("serve.repeat_share", repeat_share);
        report.layer("serve.coalesced", m("coalesced"));
        report.layer("serve.integrity_checks", m("integrity_checks"));
        report.layer("serve.persist_appends", m("persist_appends"));
        report.layer("serve.compactions", m("compactions"));
        report.layer("serve.replicated", m("fleet_replicated"));
        report.layer(
            "serve.shed",
            m("fleet_shed") + m("shed_overloaded") + m("shed_drain") + m("shed_deadline"),
        );
        report.layer("serve.retries", m("retries"));
    }
    let phase_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let sum = main.lat.summary(phase_s);
    report.notes.push(format!(
        "client-side checks: {:.2} us per response, {:.2}% of the mean latency",
        main.client_ms * 1e3 / samples,
        100.0 * main.client_ms / samples / main.lat.mean()
    ));
    report.finish_common(&sum, rss);
    report
}

/// Re-requests a seeded sample of the key space after the window, one
/// edit per (circuit, flow, routing seed), and re-simulates each response
/// against its input. The probe outputs give `cx_total`, `depth_total` and
/// `success_rate`.
fn probe<B: ShardBackend>(fleet: &Fleet<B>, wl: &Workload, seed: u64, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9b0e);
    let picks: Vec<usize> = (0..wl.keys.len() / EDITS)
        .map(|g| g * EDITS + rng.gen_range(0..EDITS))
        .collect();
    let (mut cx, mut depth) = (0usize, 0usize);
    let mut success = Vec::new();
    for k in picks {
        report.attempted += 1;
        let key = &wl.keys[k];
        let base = &wl.bases[key.base];
        let qc_serve::shard::FleetLine::Response(out) = fleet.handle_line(&wl.lines[k]) else {
            report.fail(format!("probe {k}: fleet drained"));
            continue;
        };
        let parsed = str_field(&out, "qasm")
            .and_then(|t| from_qasm(&t).ok())
            .zip(final_map(&out));
        let Some((circuit, map)) = parsed.filter(|_| out.contains("\"status\":\"ok\"")) else {
            report.fail(format!("probe {k} ({}): {out}", base.name));
            continue;
        };
        cx += circuit.gate_counts().cx;
        depth += circuit.depth();
        let t = Transpiled {
            circuit,
            final_map: map,
            degradation: DegradationReport::default(),
        };
        let input = edited(&base.circuit, key.edit);
        let mut states = Vec::new();
        let expect = match base.answer {
            Some((logical, outcome)) => answer(&input, logical, outcome),
            None => {
                states.push(Statevector::from_circuit(&unitary_part(&input)));
                Expect::State(0)
            }
        };
        match verify(&t, expect, &states) {
            Ok(p) => {
                if base.answer.is_some() {
                    success.push(p);
                }
            }
            Err(why) => report.fail(format!("probe {k} ({}): {why}", base.name)),
        }
    }
    report.end_to_end.insert("cx_total", cx as f64);
    report.end_to_end.insert("depth_total", depth as f64);
    report.end_to_end.insert("success_rate", geomean(&success));
}
