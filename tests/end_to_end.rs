//! Cross-crate integration tests: the full paper pipeline — simulate,
//! sample through the multiplexed PMU, train the SPIRE ensemble, rank
//! bottlenecks, and validate against the TMA baseline.

use spire_core::catalog::{MetricCatalog, UarchArea};
use spire_core::{BottleneckReport, ModelSnapshot, SnapshotMode, SpireModel, TrainConfig};
use spire_counters::{collect, Dataset, SessionConfig};
use spire_sim::{Core, CoreConfig, Event};
use spire_tma::analyze;
use spire_workloads::suite;

fn quick_session() -> SessionConfig {
    SessionConfig {
        interval_cycles: 40_000,
        slice_cycles: 2_500,
        pmu_slots: 4,
        switch_overhead_cycles: 40,
        max_cycles: 350_000,
    }
}

/// Samples one workload and returns its sample set.
fn sample_workload(name: &str, config: &str, seed: u64) -> spire_core::SampleSet {
    let profile = suite::by_name(name, config).expect("workload exists");
    let mut core = Core::new(CoreConfig::skylake_server());
    let mut stream = profile.stream(seed);
    collect(&mut core, &mut stream, Event::ALL, &quick_session()).samples
}

/// Trains a model over a subset of the training suite. Every other
/// workload is taken so the subset spans all four bottleneck areas
/// (consecutive prefixes would miss the front-end-bound entries).
fn train_subset(n: usize, seed: u64) -> SpireModel {
    let mut all = spire_core::SampleSet::new();
    for profile in suite::training().into_iter().step_by(2).take(n) {
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = profile.stream(seed);
        all.merge(collect(&mut core, &mut stream, Event::ALL, &quick_session()).samples);
    }
    SpireModel::train(&all, TrainConfig::default()).expect("trains")
}

#[test]
fn spire_flags_the_memory_bottleneck_of_onnx() {
    let model = train_subset(8, 1);
    let samples = sample_workload("onnx", "T5 Encoder, Std.", 2);
    let estimate = model.estimate(&samples).expect("common metrics");
    let report = BottleneckReport::new(&estimate, &MetricCatalog::table_iii());
    assert!(
        report.area_in_top(UarchArea::Memory, 10),
        "memory metrics must appear in ONNX's top 10:\n{}",
        report.to_table(10)
    );
}

#[test]
fn spire_flags_the_frontend_bottleneck_of_tnn() {
    let model = train_subset(8, 1);
    let samples = sample_workload("tnn", "SqueezeNet v1.1", 2);
    let estimate = model.estimate(&samples).expect("common metrics");
    let report = BottleneckReport::new(&estimate, &MetricCatalog::table_iii());
    assert!(
        report.area_in_top(UarchArea::FrontEnd, 10),
        "front-end metrics must appear in TNN's top 10:\n{}",
        report.to_table(10)
    );
}

#[test]
fn ensemble_estimate_tracks_measured_ipc_within_2x() {
    // The ensemble estimates an upper bound on throughput; it should be
    // in the right ballpark of the measured IPC, not orders off.
    let model = train_subset(8, 1);
    for (name, config) in [
        ("onnx", "T5 Encoder, Std."),
        ("tnn", "SqueezeNet v1.1"),
        ("parboil", "CUTCP"),
    ] {
        let profile = suite::by_name(name, config).unwrap();
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = profile.stream(2);
        let summary = core.run(&mut stream, 350_000);
        let samples = sample_workload(name, config, 2);
        let est = model.estimate(&samples).unwrap().throughput();
        let ratio = est / summary.ipc();
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{name}: estimate {est:.2} vs measured {:.2}",
            summary.ipc()
        );
    }
}

#[test]
fn tma_and_spire_agree_on_test_workloads() {
    let model = train_subset(10, 3);
    for profile in suite::testing() {
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = profile.stream(4);
        core.run(&mut stream, 350_000);
        let tma = analyze(core.counters(), &CoreConfig::skylake_server());

        let samples = sample_workload(&profile.name, &profile.config, 4);
        let estimate = model.estimate(&samples).expect("common metrics");
        let report = BottleneckReport::new(&estimate, &MetricCatalog::table_iii());
        assert!(
            report.area_in_top(tma.dominant_bottleneck(), 10),
            "{} ({}): TMA sees {} but SPIRE top-10 misses it:\n{}",
            profile.name,
            profile.config,
            tma.dominant_bottleneck(),
            report.to_table(10)
        );
    }
}

#[test]
fn dataset_round_trip_preserves_training_results() {
    let samples = sample_workload("parboil", "Stencil", 5);
    let mut dataset = Dataset::new();
    dataset.insert("stencil", samples);
    let json = dataset.to_json().unwrap();
    let back = Dataset::from_json(&json).unwrap();

    let a = SpireModel::train(&dataset.merged(), TrainConfig::default()).unwrap();
    let b = SpireModel::train(&back.merged(), TrainConfig::default()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn model_persists_through_json() {
    let model = train_subset(3, 6);
    let json = ModelSnapshot::from_model(&model).unwrap().to_json();
    let back = ModelSnapshot::from_json(&json)
        .unwrap()
        .into_model(SnapshotMode::Strict)
        .unwrap()
        .model;
    assert_eq!(back, model);
    let samples = sample_workload("graph500", "Scale: 29", 7);
    let x = model.estimate(&samples).unwrap();
    let y = back.estimate(&samples).unwrap();
    assert_eq!(x.throughput(), y.throughput());
}

#[test]
fn sampling_is_deterministic_end_to_end() {
    let a = sample_workload("mafft", "", 9);
    let b = sample_workload("mafft", "", 9);
    assert_eq!(a, b);
}

#[test]
fn every_table_iii_metric_gets_a_roofline() {
    let model = train_subset(6, 10);
    let catalog = MetricCatalog::table_iii();
    for info in catalog.iter() {
        let id = spire_core::MetricId::new(&info.event);
        assert!(
            model.roofline(&id).is_some(),
            "no roofline trained for {} ({})",
            info.event,
            info.abbr
        );
    }
}
