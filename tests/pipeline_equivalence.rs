//! Locks the pipeline's bit-identical guarantee: models, snapshots,
//! estimates, and bottleneck rankings produced through the instrumented
//! `spire_core::pipeline` / `spire_counters::pipeline` steps are
//! byte-for-byte equal to the same artifacts produced by direct library
//! calls — at both `--threads 1` (serial) and `--threads 0` (auto
//! parallel).

use spire_core::catalog::MetricCatalog;
use spire_core::pipeline::{analyze, estimate, train, PipelineConfig, RunContext};
use spire_core::{
    BottleneckReport, ModelSnapshot, Sample, SampleSet, SpireModel, TrainConfig, TrainOutcome,
    TrainStrictness,
};
use spire_counters::pipeline::build;
use spire_counters::Dataset;

/// A deterministic multi-workload, multi-metric dataset with enough
/// spread to exercise both hull and graph fitting.
fn fixture_dataset() -> Dataset {
    let mut ds = Dataset::new();
    for (w, label) in ["wl_a", "wl_b", "wl_c"].iter().enumerate() {
        let mut set = SampleSet::new();
        for (m, metric) in ["m_alpha", "m_beta", "m_gamma", "m_delta"]
            .iter()
            .enumerate()
        {
            for i in 1..14 {
                let x = (i * (m + 2) + w) as f64;
                let y = 40.0 - (i as f64) - (w as f64) * 0.5;
                set.push(Sample::new(*metric, 10.0 + w as f64, x, y.max(1.0)).unwrap());
            }
        }
        ds.insert(*label, set);
    }
    ds
}

/// The `build` → `train` steps over `dataset` under `config`.
fn build_and_train(dataset: &Dataset, config: TrainConfig) -> TrainOutcome {
    let ctx = RunContext::new(PipelineConfig {
        train: config,
        ..PipelineConfig::default()
    });
    train(&ctx, &build(&ctx, dataset).unwrap()).unwrap()
}

#[test]
fn pipeline_artifacts_are_bit_identical_to_direct_api() {
    let dataset = fixture_dataset();
    for threads in [1usize, 0] {
        let config = TrainConfig {
            threads,
            ..TrainConfig::default()
        };

        // Direct API path (the pre-refactor CLI/bench code path).
        let direct = SpireModel::train_with_report(
            &dataset.merged(),
            config.clone(),
            TrainStrictness::Lenient,
        )
        .unwrap();
        let direct_snapshot = ModelSnapshot::from_model(&direct.model).unwrap().to_json();
        let samples = dataset.get("wl_b").unwrap();
        let direct_estimate = direct.model.estimate(samples).unwrap();
        let direct_report = BottleneckReport::new(&direct_estimate, &MetricCatalog::table_iii());

        // Through the steps: build -> train, then estimate -> analyze.
        let outcome = build_and_train(&dataset, config);
        let pipe_snapshot = ModelSnapshot::from_model(&outcome.model).unwrap().to_json();
        let ctx = RunContext::new(PipelineConfig::default());
        let pipe_estimate = estimate(&ctx, &outcome.model, samples).unwrap();
        let pipe_report = analyze(&ctx, &pipe_estimate).unwrap();

        // Serialized artifacts must match byte for byte.
        assert_eq!(
            serde_json::to_string(&direct.model).unwrap(),
            serde_json::to_string(&outcome.model).unwrap(),
            "model JSON diverged at threads={threads}"
        );
        assert_eq!(
            direct_snapshot, pipe_snapshot,
            "snapshot bytes diverged at threads={threads}"
        );
        assert_eq!(
            serde_json::to_string(&direct_estimate).unwrap(),
            serde_json::to_string(&pipe_estimate).unwrap(),
            "estimate JSON diverged at threads={threads}"
        );
        assert_eq!(
            direct_report.rows(),
            pipe_report.rows(),
            "ranking diverged at threads={threads}"
        );
        assert_eq!(direct_report.throughput(), pipe_report.throughput());
        assert_eq!(
            serde_json::to_string(&direct.report).unwrap(),
            serde_json::to_string(&outcome.report).unwrap(),
            "train report diverged at threads={threads}"
        );
    }
}

#[test]
fn serve_path_estimates_are_bit_identical_to_the_direct_api() {
    // The daemon's coalesced batch path (`estimate_batch` over
    // concatenated SoA columns) and a real client round trip must both
    // reproduce `SpireModel::estimate` exactly, bit for bit.
    let dataset = fixture_dataset();
    let trained = SpireModel::train_with_report(
        &dataset.merged(),
        TrainConfig::default(),
        TrainStrictness::Lenient,
    )
    .unwrap();
    let model = trained.model;

    // Library-level: the batched path against the scalar path.
    let sets: Vec<&SampleSet> = dataset.iter().map(|(_, set)| set).collect();
    let batched = model.estimate_batch(&sets);
    for (set, batched) in sets.iter().zip(&batched) {
        let direct = model.estimate(set).unwrap();
        let batched = batched.as_ref().unwrap();
        assert_eq!(
            serde_json::to_string(&direct).unwrap(),
            serde_json::to_string(batched).unwrap(),
            "estimate_batch diverged from estimate"
        );
    }

    // Wire-level: the same estimates served over the daemon protocol.
    let dir = std::env::temp_dir().join(format!("spire-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    spire_core::write_atomic(&path, &ModelSnapshot::from_model(&model).unwrap().to_json()).unwrap();
    let server = spire_serve::Server::bind(
        spire_serve::ServerConfig::default(),
        vec![("m".to_owned(), path)],
        Vec::new(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());
    let mut client = spire_serve::Client::connect(addr).unwrap();
    for (label, set) in dataset.iter() {
        let response = client.estimate("m", set).unwrap();
        assert!(response.ok, "serve estimate failed for {label}");
        let direct = model.estimate(set).unwrap();
        assert_eq!(
            response.throughput.unwrap().to_bits(),
            direct.throughput().to_bits(),
            "served throughput diverged for {label}"
        );
        let per_metric = response.per_metric.unwrap();
        assert_eq!(per_metric.len(), direct.per_metric().len());
        for row in &per_metric {
            let me = &direct.per_metric()[&spire_core::MetricId::new(&row.metric)];
            assert_eq!(row.merged.to_bits(), me.merged.to_bits());
            assert_eq!(row.sample_count, me.sample_count);
        }
    }
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serial_and_parallel_training_agree_through_the_pipeline() {
    // The two thread settings must also agree with each other (the
    // engine preserves the library's determinism guarantee).
    let dataset = fixture_dataset();
    let mut models = Vec::new();
    for threads in [1usize, 0] {
        let mut outcome = build_and_train(
            &dataset,
            TrainConfig {
                threads,
                ..TrainConfig::default()
            },
        );
        // The model records the thread setting it was trained with;
        // normalize it so the comparison covers the learned rooflines.
        outcome.model.set_threads(1);
        models.push(serde_json::to_string(&outcome.model).unwrap());
    }
    assert_eq!(models[0], models[1]);
}
