//! Pins the online-training equivalence guarantee: any interleaving of
//! pushed batches, committed at any boundaries, converges to the
//! *bit-identical* model, report, and notices of one batch retrain over
//! the concatenated samples — at both `threads = 1` (serial) and
//! `threads = 0` (auto fan-out). Two deterministic cases check every
//! commit of perfbench-shaped traffic and of a thinned front the same way.
//!
//! Equality here is structural (`PartialEq` over every fitted segment),
//! not a tolerance: the maintenance layer only skips work it can prove is
//! an exact no-op, and replays everything else through the same fitting
//! code paths as the batch trainer.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spire_core::{
    FitOptions, MetricId, OnlineTrainer, Sample, SampleSet, SpireModel, TrainConfig,
    TrainStrictness, UpdateOutcome,
};

/// Strategy: one raw `(T, W, M)` triple; `M` is zero ~10% of the time to
/// exercise the infinite-intensity (constant-fit) paths.
fn raw_sample() -> impl Strategy<Value = (f64, f64, f64)> {
    (
        0.1f64..100.0,
        0.0f64..1000.0,
        prop_oneof![
            1 => Just(0.0f64),
            9 => 0.01f64..100.0,
        ],
    )
}

/// Strategy: an interleaved multi-metric stream, pre-split into batches.
/// Batch sizes are part of the random input, so commit boundaries land at
/// arbitrary points of the stream — including empty-batch-adjacent ones.
fn batched_stream(
    metrics: usize,
    max_rows: usize,
    max_batches: usize,
) -> impl Strategy<Value = Vec<Vec<Sample>>> {
    let names: Vec<String> = (0..metrics).map(|i| format!("metric_{i}")).collect();
    let rows = prop::collection::vec((0..metrics, raw_sample()), metrics..max_rows);
    (rows, 1..=max_batches).prop_map(move |(rows, batches)| {
        let mut out = vec![Vec::new(); batches];
        for (k, (i, (t, w, m))) in rows.into_iter().enumerate() {
            out[k % batches]
                .push(Sample::new(names[i].as_str(), t, w, m).expect("valid by construction"));
        }
        out
    })
}

/// Streams the batches through an [`OnlineTrainer`] with a commit after
/// every batch, and asserts the final state matches one batch retrain
/// over the concatenation.
fn assert_converges(batches: &[Vec<Sample>], threads: usize) {
    let config = TrainConfig {
        threads,
        ..TrainConfig::default()
    };
    let mut trainer =
        OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).expect("valid config");
    let mut concatenated = SampleSet::new();
    let mut last = None;
    for rows in batches {
        let batch: SampleSet = rows.iter().cloned().collect();
        concatenated.extend(batch.iter());
        trainer.push_batch(&batch);
        last = Some(trainer.commit().expect("lenient commit"));
    }
    let expected = SpireModel::train_with_report(&concatenated, config, TrainStrictness::Lenient)
        .expect("batch retrain");
    let last = last.expect("at least one batch");
    assert_eq!(
        trainer.model().expect("committed model"),
        &expected.model,
        "incremental model diverged from batch retrain"
    );
    assert_eq!(last.report, expected.report, "train report diverged");
    assert_eq!(last.fit_notices, expected.fit_notices, "notices diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any batch interleaving converges to the batch-retrain model,
    /// bit-identically, with the serial executor.
    #[test]
    fn interleavings_converge_serial(batches in batched_stream(4, 120, 6)) {
        assert_converges(&batches, 1);
    }

    /// The same guarantee with `threads = 0` (auto fan-out): the executor
    /// choice must not perturb the result.
    #[test]
    fn interleavings_converge_auto_threads(batches in batched_stream(4, 120, 6)) {
        assert_converges(&batches, 0);
    }
}

/// A sample at intensity `x` (one rounding) and throughput `y` (exact).
fn point(metric: &str, x: f64, y: f64) -> Sample {
    Sample::new(metric, 1.0, y, y / x).expect("positive by construction")
}

/// perfbench's noisy narrow metric: log-uniform intensity over 0.5–2000
/// under a roofline-shaped throughput.
fn noisy_roof(rng: &mut SmallRng, x: f64) -> f64 {
    let roof = if x < 40.0 {
        0.08 * x
    } else {
        3.2 * (40.0 / x).powf(0.4)
    };
    roof * (0.2 + 0.8 * rng.gen::<f64>())
}

fn log_uniform(rng: &mut SmallRng) -> f64 {
    0.5 * (rng.gen::<f64>() * 4000f64.ln()).exp()
}

/// Seed columns shaped like perfbench's: two noisy narrow metrics and two
/// staircases climbing in intensity as throughput falls (every step on
/// the front, the rest under it).
fn perfbench_seed(rng: &mut SmallRng, n: usize) -> SampleSet {
    let mut set = SampleSet::new();
    for metric in ["noisy_a", "noisy_b"] {
        for _ in 0..n {
            let x = log_uniform(rng);
            let y = noisy_roof(rng, x);
            set.push(point(metric, x, y));
        }
    }
    let golden = 0.618_033_988_749_895_f64;
    for metric in ["stair_a", "stair_b"] {
        for r in 0..n {
            let r = r as f64;
            let stair = 0.7 * (1.0 + 0.1 * (r + 0.5 * (r * golden).fract()));
            let y = 3.0 - 2.5 * r / n as f64;
            if rng.gen_bool(0.25) {
                set.push(point(metric, stair, y));
            } else {
                let (x, y) = (stair * (0.2 + 0.6 * rng.gen::<f64>()), y * rng.gen::<f64>());
                set.push(point(metric, x, y.max(1e-3)));
            }
        }
    }
    set
}

/// Commits `batch` and asserts the model, report and notices equal one
/// batch retrain over `all` (which already holds `batch`).
fn commit_matches_batch(
    trainer: &mut OnlineTrainer,
    batch: &SampleSet,
    all: &SampleSet,
) -> UpdateOutcome {
    trainer.push_batch(batch);
    let outcome = trainer.commit().expect("lenient commit");
    let expected =
        SpireModel::train_with_report(all, trainer.config().clone(), TrainStrictness::Lenient)
            .expect("batch retrain");
    assert_eq!(trainer.model().expect("committed"), &expected.model);
    assert_eq!(outcome.report, expected.report);
    assert_eq!(outcome.fit_notices, expected.fit_notices);
    assert!(outcome.update.refit_right.is_empty());
    outcome
}

/// Perfbench-shaped traffic: wide seed columns, then 20-row updates of
/// log-uniform intensity (some rows at `M = 0`), each row landing on one
/// metric, so a commit sees both refitted and unchanged metrics. Every
/// commit equals a batch retrain over everything pushed so far.
#[test]
fn perfbench_shaped_updates_match_batch_retrains() {
    let mut rng = SmallRng::seed_from_u64(25);
    let mut trainer =
        OnlineTrainer::new(TrainConfig::default(), TrainStrictness::Lenient).expect("valid");
    let mut all = perfbench_seed(&mut rng, 400);
    let seed = all.clone();
    commit_matches_batch(&mut trainer, &seed, &all);

    let metrics = ["noisy_a", "noisy_b", "stair_a", "stair_b"];
    let (mut refit, mut unchanged) = (0, 0);
    for round in 0..12 {
        let mut batch = SampleSet::new();
        for row in 0..20 {
            let metric = metrics[(row + round) % metrics.len()];
            let x = log_uniform(&mut rng);
            let y = noisy_roof(&mut rng, x.min(400.0));
            if row % 7 == 3 {
                batch.push(Sample::new(metric, 1.0, y, 0.0).expect("valid"));
            } else {
                batch.push(point(metric, x, y));
            }
        }
        all.merge(batch.clone());
        let update = commit_matches_batch(&mut trainer, &batch, &all).update;
        refit += update.refit_full.len();
        unchanged += update.unchanged.len();
    }
    assert!(
        refit > 0 && unchanged > 0,
        "refit {refit}, unchanged {unchanged}"
    );
}

/// With front thinning on, a front-extending sample refits through the
/// batch fit (which thins a copy of the exact front) and a dominated one
/// keeps the stored notice.
#[test]
fn thinned_front_refits_match_batch_retrains() {
    let config = TrainConfig {
        fit: FitOptions {
            thin_front: true,
            max_front_size: 8,
            ..FitOptions::default()
        },
        ..TrainConfig::default()
    };
    let mut trainer = OnlineTrainer::new(config, TrainStrictness::Lenient).expect("valid");
    // Apex (10, 10), then a 30-step front descending to the right.
    let mut all = SampleSet::new();
    all.push(point("m", 1.0, 1.0));
    all.push(point("m", 10.0, 10.0));
    for i in 0..30 {
        all.push(point(
            "m",
            12.0 + 2.0 * f64::from(i),
            9.5 - 0.25 * f64::from(i),
        ));
    }
    let seed = all.clone();
    let outcome = commit_matches_batch(&mut trainer, &seed, &all);
    assert_eq!(outcome.fit_notices.len(), 1);

    // Between two front steps and above both: the front grows by one.
    let extend: SampleSet = [point("m", 31.0, 9.0)].into_iter().collect();
    all.merge(extend.clone());
    let outcome = commit_matches_batch(&mut trainer, &extend, &all);
    assert_eq!(outcome.update.refit_full, vec![MetricId::new("m")]);
    assert_eq!(outcome.fit_notices.len(), 1);

    let dominated: SampleSet = [point("m", 50.0, 0.5)].into_iter().collect();
    all.merge(dominated.clone());
    let outcome = commit_matches_batch(&mut trainer, &dominated, &all);
    assert_eq!(outcome.update.unchanged, vec![MetricId::new("m")]);
    assert_eq!(outcome.fit_notices.len(), 1);
}
