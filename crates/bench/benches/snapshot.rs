//! Criterion benchmarks for model snapshots and fault containment:
//! checksummed snapshot save and load, and the overhead of per-item panic
//! containment (`map_catching`) over the plain fan-out (`map`) at
//! training scale.
//!
//! Run `cargo bench --bench snapshot` for full measurements, or with
//! `-- --test` for the smoke mode CI uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spire_core::{
    parallel, ModelSnapshot, Sample, SampleSet, SnapshotMode, SpireModel, TrainConfig,
    TrainStrictness,
};

/// Trains a model over `metrics` metrics with 48 samples each — enough
/// knots per roofline for serialization cost to be realistic.
fn trained_model(metrics: usize) -> SpireModel {
    let mut set = SampleSet::new();
    for m in 0..metrics {
        for i in 1..49 {
            let t = 10.0 + (i % 5) as f64;
            let w = (3 * i + m) as f64;
            let delta = 1.0 + ((i * 7 + m) % 23) as f64;
            set.push(Sample::new(format!("metric_{m:03}").as_str(), t, w, delta).unwrap());
        }
    }
    SpireModel::train(&set, TrainConfig::default()).unwrap()
}

fn bench_snapshot(c: &mut Criterion) {
    let model = trained_model(64);
    let snapshot_json = ModelSnapshot::from_model(&model).unwrap().to_json();

    let mut group = c.benchmark_group("snapshot");
    group.bench_function("save/checksummed", |b| {
        b.iter(|| {
            ModelSnapshot::from_model(std::hint::black_box(&model))
                .unwrap()
                .to_json()
        });
    });
    group.bench_with_input(
        BenchmarkId::new("load", "checksummed"),
        &snapshot_json,
        |b, text| {
            b.iter(|| {
                ModelSnapshot::from_json(std::hint::black_box(text))
                    .unwrap()
                    .into_model(SnapshotMode::Strict)
                    .unwrap()
            });
        },
    );
    group.finish();
}

fn bench_containment(c: &mut Criterion) {
    // The cost of catch_unwind per fit job, measured against the plain
    // fan-out on identical work, serial and parallel.
    let jobs: Vec<Vec<f64>> = (0..256)
        .map(|i| {
            (0..512)
                .map(|j| ((i * 512 + j) % 997) as f64 * 1e-3)
                .collect()
        })
        .collect();
    let reduce = |v: &Vec<f64>| v.iter().sum::<f64>();

    let mut group = c.benchmark_group("containment");
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("map", threads), &threads, |b, &t| {
            b.iter(|| parallel::map(std::hint::black_box(&jobs), t, reduce));
        });
        group.bench_with_input(
            BenchmarkId::new("map_catching", threads),
            &threads,
            |b, &t| {
                b.iter(|| parallel::map_catching(std::hint::black_box(&jobs), t, reduce));
            },
        );
    }
    group.finish();
}

fn bench_fault_isolated_training(c: &mut Criterion) {
    // End-to-end: strict (fail-fast) vs lenient (report-building) training
    // on a clean corpus — the containment machinery's real-world overhead.
    let mut set = SampleSet::new();
    for m in 0..32 {
        for i in 1..33 {
            let w = (3 * i + m) as f64;
            let delta = 1.0 + ((i * 5 + m) % 17) as f64;
            set.push(Sample::new(format!("metric_{m:02}").as_str(), 10.0, w, delta).unwrap());
        }
    }
    let config = TrainConfig {
        threads: 1,
        ..TrainConfig::default()
    };

    let mut group = c.benchmark_group("train_isolated");
    group.bench_function("plain", |b| {
        b.iter(|| SpireModel::train(std::hint::black_box(&set), config.clone()).unwrap());
    });
    group.bench_function("with_report", |b| {
        b.iter(|| {
            SpireModel::train_with_report(
                std::hint::black_box(&set),
                config.clone(),
                TrainStrictness::Lenient,
            )
            .unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_snapshot,
    bench_containment,
    bench_fault_isolated_training
);
criterion_main!(benches);
