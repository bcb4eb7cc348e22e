//! Reproduces **Table II**: the top-10 SPIRE performance metrics for each
//! of the four testing workloads, annotated with measured IPC, the mean
//! IPC estimation per metric, the metric abbreviation, and its closest
//! TMA area — next to the TMA baseline's classification (the paper's
//! color coding).
//!
//! Train on the 23 training workloads; evaluate on the 4 test workloads.
//! Run with `--quick` for a fast low-fidelity pass.
#![allow(clippy::print_literal)] // literal header cells keep the column widths visible

use spire_bench::{config_from_args, dataset_of, run_suite, spire_agrees_with_tma, Engine};
use spire_core::TrainConfig;
use spire_workloads::suite;

fn main() {
    let (cfg, _outdir) = config_from_args();
    let engine = Engine::narrated(TrainConfig::default());

    engine.note("collecting training corpus (23 workloads)...");
    let training_runs = run_suite(&suite::training(), &cfg);
    let dataset = dataset_of(&training_runs);
    engine.note(format!(
        "training SPIRE ensemble on {} samples...",
        dataset.total_samples()
    ));
    let model = engine.train(&dataset);
    engine.note(format!("trained {} metric rooflines", model.metric_count()));

    engine.note("collecting testing workloads (4)...");
    let test_runs = run_suite(&suite::testing(), &cfg);

    println!("Table II — top 10 performance metrics for each testing workload\n");
    for run in &test_runs {
        let report = engine.report(&model, &run.session.samples);
        println!(
            "=== {} — measured IPC {:.2} | TMA: {} (main: {}) ===",
            run.label,
            run.ipc,
            run.tma.summary(),
            run.tma.main_category(),
        );
        println!(
            "{:<6} {:>10} {:<10} {:<16} {}",
            "rank", "mean est.", "abbr", "closest TMA", "metric"
        );
        for (rank, row) in report.top(10).iter().enumerate() {
            println!(
                "{:<6} {:>10.3} {:<10} {:<16} {}",
                rank + 1,
                row.estimate,
                row.abbr.as_deref().unwrap_or("-"),
                row.area.map_or("-".to_owned(), |a| a.to_string()),
                row.metric
            );
        }
        let agrees = spire_agrees_with_tma(&report, &run.tma, 10);
        println!(
            "SPIRE top-10 contains TMA's dominant bottleneck ({}): {}\n",
            run.tma.dominant_bottleneck(),
            if agrees { "yes" } else { "NO" }
        );
    }
}
