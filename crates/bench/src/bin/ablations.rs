//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! 1. **merge** — Eq. (1)'s time-weighted average vs an unweighted mean;
//! 2. **aggregation** — min-ensemble vs mean-ensemble;
//! 3. **right fit** — the paper's graph fit vs a plateau vs the Auto
//!    trend-detecting extension (the Fig. 7 BP.1 defect);
//! 4. **training-set size** — model quality vs number of training
//!    workloads;
//! 5. **regression baseline** — SPIRE's ranking vs ridge-regression
//!    feature importance (the related-work comparison).
//!
//! Quality is scored two ways on the four test workloads: whether the
//! expected bottleneck area appears in the top-10 ranked metrics, and
//! the relative error of the ensemble throughput estimate against the
//! measured IPC.

use spire_baselines::RegressionBaseline;
use spire_bench::{
    config_from_args, dataset_of, run_suite, spire_finds_expected, workload_label, Engine,
    WorkloadRun,
};
use spire_core::catalog::MetricCatalog;
use spire_core::{
    EnsembleAggregation, FitOptions, MergeStrategy, RightFitMode, SpireModel, TrainConfig,
};
use spire_counters::Dataset;
use spire_workloads::suite;

/// Scores one trained model over the test runs: `(hits, mean |rel err|)`.
fn score(engine: &Engine, model: &SpireModel, tests: &[WorkloadRun]) -> (usize, f64) {
    let mut hits = 0usize;
    let mut err_sum = 0.0;
    for run in tests {
        let report = engine.report(model, &run.session.samples);
        if spire_finds_expected(&report, run.profile.expected_bottleneck, 10) {
            hits += 1;
        }
        err_sum += ((report.throughput() - run.ipc) / run.ipc).abs();
    }
    (hits, err_sum / tests.len() as f64)
}

fn config_with(
    merge: MergeStrategy,
    aggregation: EnsembleAggregation,
    right: RightFitMode,
) -> TrainConfig {
    TrainConfig {
        merge,
        aggregation,
        fit: FitOptions {
            right_fit: right,
            ..FitOptions::default()
        },
        ..TrainConfig::default()
    }
}

fn main() {
    let (cfg, _outdir) = config_from_args();
    let mut engine = Engine::narrated(TrainConfig::default());

    engine.note("collecting corpus (23 train + 4 test workloads)...");
    let train_runs = run_suite(&suite::training(), &cfg);
    let test_runs = run_suite(&suite::testing(), &cfg);
    let dataset = dataset_of(&train_runs);

    println!("Ablations (4 test workloads; hits = expected area in top-10)\n");

    // --- 1 & 2 & 3: model-configuration grid. ------------------------------
    println!(
        "{:<16} {:<12} {:<10} {:>6} {:>12}",
        "merge", "aggregation", "right-fit", "hits", "mean |err|"
    );
    let variants = [
        (
            "time-weighted",
            MergeStrategy::TimeWeighted,
            "min",
            EnsembleAggregation::Min,
            "graph",
            RightFitMode::Graph,
        ),
        (
            "unweighted",
            MergeStrategy::Unweighted,
            "min",
            EnsembleAggregation::Min,
            "graph",
            RightFitMode::Graph,
        ),
        (
            "time-weighted",
            MergeStrategy::TimeWeighted,
            "mean",
            EnsembleAggregation::Mean,
            "graph",
            RightFitMode::Graph,
        ),
        (
            "time-weighted",
            MergeStrategy::TimeWeighted,
            "min",
            EnsembleAggregation::Min,
            "plateau",
            RightFitMode::Plateau,
        ),
        (
            "time-weighted",
            MergeStrategy::TimeWeighted,
            "min",
            EnsembleAggregation::Min,
            "auto",
            RightFitMode::Auto,
        ),
    ];
    for (mname, merge, aname, agg, rname, right) in variants {
        let model = engine.train_with(&dataset, config_with(merge, agg, right));
        let (hits, err) = score(&engine, &model, &test_runs);
        println!(
            "{:<16} {:<12} {:<10} {:>4}/4 {:>12.3}",
            mname, aname, rname, hits, err
        );
    }

    // --- 4: training-set size. ----------------------------------------------
    println!("\ntraining-set size (paper setting: 23):");
    println!(
        "{:>10} {:>8} {:>6} {:>12}",
        "workloads", "samples", "hits", "mean |err|"
    );
    for k in [2usize, 5, 10, 16, 23] {
        let subset: Dataset = train_runs
            .iter()
            .take(k)
            .map(|r| (r.label.clone(), r.session.samples.clone()))
            .collect();
        let model = engine.train_with(&subset, TrainConfig::default());
        let (hits, err) = score(&engine, &model, &test_runs);
        println!(
            "{:>10} {:>8} {:>4}/4 {:>12.3}",
            k,
            subset.total_samples(),
            hits,
            err
        );
    }

    // --- 5: regression-importance baseline. ---------------------------------
    println!("\nregression baseline (ridge importance vs SPIRE ranking):");
    let catalog = MetricCatalog::table_iii();
    let spire_model = engine.train_with(&dataset, TrainConfig::default());
    let mut spire_hits = 0usize;
    let mut reg_hits = 0usize;
    for run in &test_runs {
        let report = engine.report(&spire_model, &run.session.samples);
        if spire_finds_expected(&report, run.profile.expected_bottleneck, 10) {
            spire_hits += 1;
        }
        // The regression baseline trains on the *workload's own* samples
        // (importance = which rates explain its throughput variation).
        match RegressionBaseline::train(&run.session.samples, 1.0) {
            Ok(reg) => {
                let top: Vec<_> = reg.importance_ranking().into_iter().take(10).collect();
                let hit = top
                    .iter()
                    .any(|(m, _)| catalog.area_of(m) == Some(run.profile.expected_bottleneck));
                reg_hits += usize::from(hit);
                println!(
                    "  {:<36} expected {:<16} regression top metric: {}",
                    workload_label(&run.profile),
                    run.profile.expected_bottleneck.to_string(),
                    top.first().map_or("-".into(), |(m, _)| m.to_string())
                );
            }
            Err(e) => println!("  {}: regression failed: {e}", run.label),
        }
    }
    println!("\n  SPIRE: {spire_hits}/4 | regression importance: {reg_hits}/4");
}
