//! Online-training benchmark: sustained incremental update throughput vs
//! full retraining at paper scale (424 metrics, ~1.3M samples, k≈1024
//! Pareto fronts).
//!
//! Seeds an [`OnlineTrainer`] with a wide staircase front per metric,
//! then streams batches in which most samples are dominated (exact
//! no-ops) and a rotating 10% of metrics extend their fronts (full
//! refits) — the regime the maintenance layer is built for.
//! After the last batch the accumulated sample set is retrained from
//! scratch. The gates on [`OnlineCase`] require the two models to be
//! identical and the per-batch update to be cheaper than the retrain, on
//! every run. Full runs write `BENCH_online.json` at the workspace root;
//! `--quick` runs a tiny instance and writes nothing.

use spire_bench::report::{finish, OnlineCase};
use spire_bench::{median_ms, time_ms, XorShift};
use spire_core::{OnlineTrainer, Sample, SampleSet, SpireModel, TrainConfig, TrainStrictness};

struct Scale {
    metrics: usize,
    /// Staircase points per metric in the seed (front size ≈ this + 1).
    front: usize,
    /// Dominated fill samples per metric in the seed.
    fill: usize,
    rounds: usize,
    /// Batch samples per metric per round.
    batch: usize,
}

impl Scale {
    fn new(quick: bool) -> Self {
        if quick {
            Scale {
                metrics: 6,
                front: 64,
                fill: 40,
                rounds: 3,
                batch: 10,
            }
        } else {
            // 424 × (1025 + 1500) + 424 × 30 × 20 ≈ 1.33M samples.
            Scale {
                metrics: 424,
                front: 1024,
                fill: 1500,
                rounds: 30,
                batch: 20,
            }
        }
    }

    fn seed_samples(&self) -> usize {
        self.metrics * (1 + self.front + self.fill)
    }

    fn batch_samples(&self) -> usize {
        self.metrics * self.batch
    }
}

fn metric_name(j: usize) -> String {
    format!("metric_{j:03}")
}

/// One sample at operational intensity `i` and throughput `p` (T = 1).
fn at(metric: &str, i: f64, p: f64) -> Sample {
    Sample::new(metric, 1.0, p, p / i).expect("positive synthetic sample")
}

/// The shared staircase front shape: strictly ascending intensity and
/// strictly descending throughput with quasi-random (golden-ratio) step
/// sizes, so every point is Pareto-undominated but no three points are
/// collinear. A perfectly collinear staircase would be the right-fit
/// DP's adversarial dense-graph case, and the benchmark would measure
/// that pathology instead of maintenance cost.
fn staircase(front: usize) -> (Vec<f64>, Vec<f64>) {
    let mut xs = Vec::with_capacity(front);
    let mut ys = Vec::with_capacity(front);
    let (mut x, mut y) = (1.0, 1000.0);
    for i in 0..front {
        x += 0.05 + (i as f64 * 0.618_033_988_749_894_8).fract();
        y -= 0.05 + (i as f64 * 0.381_966_011_250_105_2).fract() * 0.5;
        xs.push(x);
        ys.push(y);
    }
    (xs, ys)
}

/// A dominated interior sample: just right of front step `i`, strictly
/// below the front's minimum throughput, so step `i + 1` (higher
/// intensity, higher throughput) dominates it exactly.
fn dominated_at(rng: &mut XorShift, xs: &[f64], ys: &[f64]) -> (f64, f64) {
    let i = rng.next_u64() as usize % (xs.len() - 1);
    let min_y = ys[ys.len() - 1];
    (xs[i] + 0.01, min_y * (0.3 + 0.4 * rng.unit()))
}

/// The seed: per metric, an apex at (1, 1000), the full staircase front,
/// and `fill` dominated samples between the steps.
fn seed_set(scale: &Scale, xs: &[f64], ys: &[f64], rng: &mut XorShift) -> SampleSet {
    let mut set = SampleSet::new();
    for j in 0..scale.metrics {
        let m = metric_name(j);
        set.push(at(&m, 1.0, 1000.0));
        for (&x, &y) in xs.iter().zip(ys) {
            set.push(at(&m, x, y));
        }
        for _ in 0..scale.fill {
            let (x, y) = dominated_at(rng, xs, ys);
            set.push(at(&m, x, y));
        }
    }
    set
}

/// One streamed batch: per metric, `batch` samples below the front
/// (exact no-ops), except that a rotating tenth of the metrics spend
/// their last sample extending the front past its current maximum
/// intensity (a full refit).
fn round_batch(
    scale: &Scale,
    round: usize,
    xs: &[f64],
    ys: &[f64],
    rng: &mut XorShift,
) -> SampleSet {
    let mut set = SampleSet::new();
    for j in 0..scale.metrics {
        let m = metric_name(j);
        let extends = (j + round).is_multiple_of(10);
        let body = scale.batch - usize::from(extends);
        for _ in 0..body {
            let (x, y) = dominated_at(rng, xs, ys);
            set.push(at(&m, x, y));
        }
        if extends {
            // Strictly past the current maximum intensity, strictly below
            // the current minimum front throughput (including the points
            // earlier rounds appended).
            let x = xs[xs.len() - 1] + (round + 1) as f64 * 0.1;
            let y = ys[ys.len() - 1] - (round + 1) as f64 * 0.5;
            set.push(at(&m, x, y));
        }
    }
    set
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = Scale::new(quick);
    let config = TrainConfig::default();
    let mut rng = XorShift(0x5eed_cafe_f00d_1234);

    let mut trainer =
        OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).expect("valid config");

    let (xs, ys) = staircase(scale.front);
    let seed = seed_set(&scale, &xs, &ys, &mut rng);
    let (seed_ms, _) = time_ms(|| {
        trainer.push_batch(&seed);
        trainer.commit().expect("seed commit")
    });
    println!(
        "seeded {} metrics / {} samples in {seed_ms:.1} ms",
        scale.metrics,
        scale.seed_samples()
    );

    let mut update_ms: Vec<f64> = Vec::with_capacity(scale.rounds);
    let mut metrics_refit = 0usize;
    for round in 0..scale.rounds {
        let batch = round_batch(&scale, round, &xs, &ys, &mut rng);
        let (ms, outcome) = time_ms(|| {
            trainer.push_batch(&batch);
            trainer.commit().expect("update commit")
        });
        update_ms.push(ms);
        metrics_refit += outcome.update.refit_full.len();
        println!("round {round}: {} in {ms:.2} ms", outcome.update.summary());
    }
    let update_ms_total: f64 = update_ms.iter().sum();
    let mean_update_ms = update_ms_total / scale.rounds as f64;
    update_ms.sort_by(f64::total_cmp);
    let median_update_ms = update_ms[update_ms.len() / 2];
    let update_samples_per_sec =
        (scale.rounds * scale.batch_samples()) as f64 / (update_ms_total / 1e3);

    // Median of three retrains: a single half-second measurement on a
    // shared machine is too noisy to anchor the headline ratio.
    let total_samples = trainer.samples().len();
    let (retrain_ms, retrained) = median_ms(3, || {
        SpireModel::train_with_report(trainer.samples(), config.clone(), TrainStrictness::Lenient)
            .expect("batch retrain")
    });
    let speedup = retrain_ms / median_update_ms;

    println!(
        "\n{} samples total: update {median_update_ms:.2} ms/batch median \
         ({mean_update_ms:.2} ms mean, {update_samples_per_sec:.0} samples/s sustained), \
         full retrain {retrain_ms:.1} ms, speedup {speedup:.1}x",
        total_samples
    );

    let models_match = trainer.model().expect("committed model") == &retrained.model;
    finish(
        &OnlineCase {
            metrics: scale.metrics,
            front_size: scale.front + 1,
            seed_samples: scale.seed_samples(),
            rounds: scale.rounds,
            batch_samples: scale.batch_samples(),
            total_samples,
            seed_ms,
            mean_update_ms,
            median_update_ms,
            update_samples_per_sec,
            retrain_ms,
            speedup,
            mean_metrics_refit: metrics_refit as f64 / scale.rounds as f64,
            models_match,
        },
        quick,
    );
}
