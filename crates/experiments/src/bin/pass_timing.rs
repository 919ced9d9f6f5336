//! Per-pass timing table for the DAG-native pipelines — the CI artifact
//! that makes the change-driven fixed point observable: for each pass it
//! reports how often it ran, how often the change tracking skipped it as
//! clean, how many node rewrites it performed, and its wall time.
//!
//! Emits a markdown table to stdout for the paper's three flows on one
//! workload: a 20-qubit quantum-volume circuit through preset level 3,
//! through level 3 with the Hoare pass appended, and through the
//! RPO-extended pipeline (the same circuits as the
//! `transpile_level3_qv20` / `transpile_hoare_qv20` / `transpile_rpo_qv20`
//! benches). A third section aggregates per-pass
//! totals — including quarantine counts — across a whole `qc-serve` run,
//! the fleet-wide view the drain report is built from.

use qc_algos::quantum_volume_with_depth;
use qc_backends::Backend;
use qc_circuit::Circuit;
use qc_hoare::transpile_hoare_instrumented;
use qc_serve::{PassTotals, ServeConfig, ServeFlow, ServeRequest, TranspileService};
use qc_transpile::manager::PassStats;
use qc_transpile::preset::transpile_instrumented;
use qc_transpile::TranspileOptions;
use rpo_core::{transpile_rpo_instrumented, RpoOptions};

fn print_table(title: &str, stats: &[PassStats]) {
    println!("## {title}\n");
    println!(
        "| pass | runs | skipped (clean) | skipped (interest) | quarantined | pre-disabled | budget skips | rewrites | relink nodes | wall time |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    let mut total = std::time::Duration::ZERO;
    for s in stats {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.3} ms |",
            s.name,
            s.runs,
            s.skipped,
            s.skipped_interest,
            s.quarantined,
            s.predisabled,
            s.budget_skips,
            s.rewrites,
            s.relink_nodes,
            s.wall.as_secs_f64() * 1e3
        );
        total += s.wall;
    }
    println!(
        "| **total** | {} | {} | {} | {} | {} | {} | {} | {} | **{:.3} ms** |\n",
        stats.iter().map(|s| s.runs).sum::<usize>(),
        stats.iter().map(|s| s.skipped).sum::<usize>(),
        stats.iter().map(|s| s.skipped_interest).sum::<usize>(),
        stats.iter().map(|s| s.quarantined).sum::<usize>(),
        stats.iter().map(|s| s.predisabled).sum::<usize>(),
        stats.iter().map(|s| s.budget_skips).sum::<usize>(),
        stats.iter().map(|s| s.rewrites).sum::<usize>(),
        stats.iter().map(|s| s.relink_nodes).sum::<usize>(),
        total.as_secs_f64() * 1e3
    );
}

fn print_serve_table(title: &str, passes: &[(&'static str, PassTotals)]) {
    println!("## {title}\n");
    println!(
        "| pass | runs | skipped (clean) | skipped (interest) | quarantined | pre-disabled | budget skips | rewrites | wall time |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---:|---:|");
    for (name, t) in passes {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {:.3} ms |",
            name,
            t.runs,
            t.skipped,
            t.skipped_interest,
            t.quarantined,
            t.predisabled,
            t.budget_skips,
            t.rewrites,
            t.wall.as_secs_f64() * 1e3
        );
    }
    println!();
}

/// A short mixed serve run (both flows, cold and warm requests) so the
/// aggregated table shows real fleet totals, not a single compile.
fn serve_run() -> TranspileService {
    let service = TranspileService::new(ServeConfig::default());
    for (i, flow) in [
        ServeFlow::Preset { level: 3 },
        ServeFlow::Rpo,
        ServeFlow::Preset { level: 3 }, // warm repeat of request 0
        ServeFlow::Rpo,                 // warm repeat of request 1
        ServeFlow::Preset { level: 1 },
    ]
    .into_iter()
    .enumerate()
    {
        let mut c = Circuit::new(4);
        c.h(0);
        for q in 1..4 {
            c.cx(q - 1, q);
        }
        if i == 4 {
            c.rz(0.25, 0); // one distinct circuit in the mix
        }
        c.measure_all();
        let resp = service.handle(ServeRequest {
            id: format!("timing{i}"),
            circuit: c,
            backend: Backend::linear(5),
            flow,
            seed: 3,
            deadline: None,
        });
        resp.result.expect("timing workload compiles");
    }
    service
}

fn main() {
    let backend = Backend::almaden();
    let qv20 = quantum_volume_with_depth(20, 10, 5);

    println!("# Pipeline pass timing (qv20 on {})\n", backend.name());

    // The worker count the kernel pool actually fans out to (after the
    // RPO_THREADS request is clamped to pool capacity) — reported here so
    // a CI log line records what the timings below really ran with.
    println!(
        "kernel threads: {} effective (1 = sequential build or single-core host)\n",
        qc_math::kernel_threads()
    );

    let (_, stats) =
        transpile_instrumented(&qv20, &backend, &TranspileOptions::level(3).with_seed(7))
            .expect("level-3 transpile");
    print_table("Preset level 3", &stats);

    let (_, stats) =
        transpile_hoare_instrumented(&qv20, &backend, &TranspileOptions::level(3).with_seed(7))
            .expect("Hoare transpile");
    print_table("Level 3 + Hoare", &stats);

    let (_, stats) = transpile_rpo_instrumented(&qv20, &backend, &RpoOptions::new().with_seed(7))
        .expect("RPO transpile");
    print_table("RPO pipeline (Fig. 8)", &stats);

    let service = serve_run();
    let m = service.metrics();
    print_serve_table(
        "Aggregated across a serve run (5 mixed requests, both flows)",
        &service.pass_report(),
    );
    println!(
        "serve metrics: compiles={} warm={} quarantine_total={} breaker_trips={}",
        m.compiles,
        m.cache_warm,
        service
            .pass_report()
            .iter()
            .map(|(_, t)| t.quarantined)
            .sum::<usize>(),
        m.breaker_trips
    );
}
