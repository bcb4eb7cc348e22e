//! Importing real `perf stat` data: ingest machine-readable perf output
//! into SPIRE samples, train, and rank — the path a user takes on real
//! hardware instead of the bundled simulator.
//!
//! The embedded text mimics `perf stat -I 2000 -x,` on a CPU whose IPC
//! degrades as branch mispredictions rise. The import is all-or-nothing:
//! `ingest_perf_csv` under a zero error budget, then `into_strict`, so a
//! single malformed row fails it.
//!
//! Run with: `cargo run --example perf_import`

use spire_core::catalog::MetricCatalog;
use spire_core::{BottleneckReport, SampleSet, SpireModel, TrainConfig};
use spire_counters::{ingest_perf_csv, IngestConfig};

/// Imports perf CSV text, refusing it if any row is quarantined.
fn import(text: &str) -> spire_core::Result<SampleSet> {
    let config = IngestConfig {
        error_budget: 0.0,
        ..IngestConfig::default()
    };
    ingest_perf_csv(text, &config).into_strict()
}

/// Synthetic-but-realistic perf stat interval output. Each 2-second
/// interval reports the fixed counters plus two metrics. IPC falls from
/// 2.4 to 0.8 as mispredictions climb; cache misses stay flat. The metric
/// rows carry 50% running fractions (the two events share one counter),
/// so the importer scales their counts by 2x — multiplex correction.
const PERF_TRAINING: &str = "\
# started on Fri Jul  4 09:00:00 2026
2.000,4800000000,,inst_retired.any,2000000000,100.00,,
2.000,2000000000,,cpu_clk_unhalted.thread,2000000000,100.00,,
2.000,2400000,,br_misp_retired.all_branches,1000000000,50.00,,
2.000,9600000,,longest_lat_cache.miss,1000000000,50.00,,
4.000,3600000000,,inst_retired.any,2000000000,100.00,,
4.000,2000000000,,cpu_clk_unhalted.thread,2000000000,100.00,,
4.000,7200000,,br_misp_retired.all_branches,1000000000,50.00,,
4.000,7200000,,longest_lat_cache.miss,1000000000,50.00,,
6.000,2400000000,,inst_retired.any,2000000000,100.00,,
6.000,2000000000,,cpu_clk_unhalted.thread,2000000000,100.00,,
6.000,12000000,,br_misp_retired.all_branches,1000000000,50.00,,
6.000,4800000,,longest_lat_cache.miss,1000000000,50.00,,
8.000,1600000000,,inst_retired.any,2000000000,100.00,,
8.000,2000000000,,cpu_clk_unhalted.thread,2000000000,100.00,,
8.000,16000000,,br_misp_retired.all_branches,1000000000,50.00,,
8.000,3200000,,longest_lat_cache.miss,1000000000,50.00,,
";

/// The workload under analysis: low IPC with heavy mispredictions.
const PERF_WORKLOAD: &str = "\
2.000,1800000000,,inst_retired.any,2000000000,100.00,,
2.000,2000000000,,cpu_clk_unhalted.thread,2000000000,100.00,,
2.000,13500000,,br_misp_retired.all_branches,1000000000,50.00,,
2.000,3600000,,longest_lat_cache.miss,1000000000,50.00,,
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Import: perf CSV -> SPIRE samples (W=instructions, T=cycles).
    let training = import(PERF_TRAINING)?;
    println!(
        "imported {} training samples covering {} metrics",
        training.len(),
        training.metrics().count()
    );

    // 2. Train and analyze exactly as with simulated data.
    let model = SpireModel::train(&training, TrainConfig::default())?;
    let workload = import(PERF_WORKLOAD)?;
    let estimate = model.estimate(&workload)?;
    let report = BottleneckReport::new(&estimate, &MetricCatalog::table_iii());

    println!(
        "\nworkload IPC estimate: {:.2} (measured: {:.2})",
        estimate.throughput(),
        1.8e9 / 2.0e9
    );
    println!("\nranked metrics:");
    print!("{}", report.to_table(5));

    // The misprediction counter should rank as the bottleneck: the
    // workload's instructions-per-misprediction is low, where training
    // showed low IPC.
    let top = report.rows().first().expect("non-empty report");
    println!(
        "\nprimary suspect: {} ({})",
        top.metric,
        top.abbr.as_deref().unwrap_or("uncataloged")
    );
    Ok(())
}
