//! Fault-injection suite: drives every containment path in the crate —
//! poisoned sample columns, panicking and erring fits, corrupted and
//! truncated snapshots — with deterministic, seeded faults from
//! [`spire_core::fault`].
//!
//! These are the acceptance tests for the robustness contract: training
//! degrades to the surviving metrics instead of tearing down, damaged
//! snapshots are salvaged (lenient) or refused (strict) with the damage
//! attributed to the record that carries it, and nothing in the pipeline
//! panics past the containment boundary.

use spire_core::fault::{
    erring_fit, flip_digit, panicking_fit, poison_metric, silence_panics, truncate, FaultRng,
};
use spire_core::snapshot::load_model;
use spire_core::{
    MetricId, ModelSnapshot, Sample, SampleSet, SnapshotMode, SpireError, SpireModel, TrainConfig,
    TrainQuarantineReason, TrainStrictness,
};

/// A clean multi-metric training corpus: `metrics` metrics, 6 samples
/// each, varied enough to give non-trivial left and right regions.
fn clean_corpus(metrics: usize) -> SampleSet {
    let mut set = SampleSet::new();
    for m in 0..metrics {
        for i in 1..7 {
            let w = (4 * i + m) as f64;
            let delta = (12 - i) as f64;
            set.push(Sample::new(format!("metric_{m:02}").as_str(), 10.0, w, delta).unwrap());
        }
    }
    set
}

#[test]
fn poisoned_column_is_quarantined_leniently_and_fatal_strictly() {
    let mut set = clean_corpus(4);
    let target = MetricId::new("metric_01");
    let mut rng = FaultRng::new(0xfeed);
    // NaN/inf/negative rows flow into the fit, producing a roofline that
    // fails validation (or a fit error) — never a crash.
    poison_metric(&mut set, &target, &mut rng, 8);

    let outcome =
        SpireModel::train_with_report(&set, TrainConfig::default(), TrainStrictness::Lenient)
            .unwrap();
    assert_eq!(outcome.model.metric_count(), 3);
    assert!(outcome.model.roofline(&target).is_none());
    assert!(outcome.report.is_degraded());
    assert_eq!(outcome.report.quarantined.len(), 1);
    assert_eq!(outcome.report.quarantined[0].metric, target);
    // The degraded model still estimates over the survivors.
    let mut wl = SampleSet::new();
    wl.push(Sample::new("metric_00", 10.0, 8.0, 4.0).unwrap());
    assert!(outcome.model.estimate(&wl).is_ok());

    let err = SpireModel::train_with_report(&set, TrainConfig::default(), TrainStrictness::Strict)
        .unwrap_err();
    match err {
        SpireError::ModelInvariantViolation { metric, .. } => assert_eq!(metric, "metric_01"),
        SpireError::FitPanicked { metric, .. } => assert_eq!(metric, "metric_01"),
        other => panic!("expected a typed per-metric error, got {other:?}"),
    }
}

#[test]
fn poisoning_many_seeds_never_escapes_containment() {
    // Whatever the poison placement, lenient training must return either
    // a degraded model or a typed error — never unwind.
    for seed in 0..50u64 {
        let mut set = clean_corpus(5);
        let mut rng = FaultRng::new(seed);
        let victim = MetricId::new(format!("metric_{:02}", rng.index(5)));
        poison_metric(&mut set, &victim, &mut rng, 4);
        let result = silence_panics(|| {
            SpireModel::train_with_report(&set, TrainConfig::default(), TrainStrictness::Lenient)
        });
        match result {
            Ok(outcome) => {
                // If the poisoned metric survived, its fit passed
                // validation despite the hostile rows; that is allowed
                // (e.g. a negative count can still fit under the hull) —
                // what matters is nothing crashed.
                assert!(outcome.model.metric_count() >= 4, "seed {seed}");
            }
            Err(e) => {
                let msg = e.to_string();
                assert!(!msg.is_empty(), "seed {seed}");
            }
        }
    }
}

#[test]
fn injected_panics_are_contained_across_thread_counts() {
    let set = clean_corpus(6);
    for threads in [1, 2, 4, 8] {
        let config = TrainConfig {
            threads,
            ..TrainConfig::default()
        };
        let outcome = silence_panics(|| {
            SpireModel::train_with_report_using(
                &set,
                config,
                TrainStrictness::Lenient,
                panicking_fit("metric_02"),
            )
        })
        .unwrap();
        assert_eq!(outcome.model.metric_count(), 5, "threads {threads}");
        assert_eq!(outcome.report.quarantined.len(), 1);
        assert_eq!(
            outcome.report.quarantined[0].reason,
            TrainQuarantineReason::FitPanicked
        );
        assert!(outcome.report.quarantined[0]
            .detail
            .contains("injected panic"));
    }
}

#[test]
fn erring_fits_quarantine_with_their_own_reason() {
    let set = clean_corpus(4);
    let outcome = SpireModel::train_with_report_using(
        &set,
        TrainConfig::default(),
        TrainStrictness::Lenient,
        erring_fit("metric_03"),
    )
    .unwrap();
    assert_eq!(
        outcome.report.quarantined[0].reason,
        TrainQuarantineReason::FitFailed
    );
    assert_eq!(outcome.report.by_reason()["fit_failed"], 1);
}

#[test]
fn error_budget_bounds_lenient_degradation() {
    let set = clean_corpus(4);
    let config = TrainConfig {
        metric_error_budget: 0.25,
        ..TrainConfig::default()
    };
    // Two of four metrics fail: 0.5 > budget 0.25.
    let err = silence_panics(|| {
        SpireModel::train_with_report_using(
            &set,
            config,
            TrainStrictness::Lenient,
            panicking_fit("metric_0"), // matches metric_00..metric_03
        )
    });
    // All four match the needle, so everything is quarantined.
    match err.unwrap_err() {
        SpireError::ErrorBudgetExceeded {
            quarantined,
            total,
            budget,
        } => {
            assert_eq!((quarantined, total), (4, 4));
            assert!((budget - 0.25).abs() < 1e-12);
        }
        other => panic!("expected ErrorBudgetExceeded, got {other:?}"),
    }
}

#[test]
fn flipped_snapshot_records_salvage_and_attribute() {
    let model = SpireModel::train(&clean_corpus(5), TrainConfig::default()).unwrap();
    let pristine = ModelSnapshot::from_model(&model).unwrap();
    // Over many seeds: flip one digit inside one record's payload. The
    // checksum must catch it; lenient load drops exactly that record.
    let mut salvaged = 0;
    for seed in 0..40u64 {
        let mut rng = FaultRng::new(seed);
        let mut snapshot = pristine.clone();
        let victim = rng.index(snapshot.metrics.len());
        let Some(damaged) = flip_digit(&snapshot.metrics[victim].roofline, &mut rng) else {
            continue;
        };
        if damaged == snapshot.metrics[victim].roofline {
            continue;
        }
        snapshot.metrics[victim].roofline = damaged;
        let victim_metric = snapshot.metrics[victim].metric.clone();
        let json = snapshot.to_json();

        let strict = ModelSnapshot::from_json(&json)
            .unwrap()
            .into_model(SnapshotMode::Strict);
        assert!(strict.is_err(), "seed {seed}");

        let lenient = ModelSnapshot::from_json(&json)
            .unwrap()
            .into_model(SnapshotMode::Lenient)
            .unwrap();
        assert_eq!(lenient.report.dropped.len(), 1, "seed {seed}");
        assert_eq!(lenient.report.dropped[0].metric, victim_metric);
        assert_eq!(lenient.model.metric_count(), 4);
        salvaged += 1;
    }
    assert!(
        salvaged > 30,
        "only {salvaged} seeds exercised the salvage path"
    );
}

#[test]
fn container_level_digit_flips_never_panic() {
    let model = SpireModel::train(&clean_corpus(3), TrainConfig::default()).unwrap();
    let json = ModelSnapshot::from_model(&model).unwrap().to_json();
    for seed in 0..60u64 {
        let mut rng = FaultRng::new(seed);
        let damaged = flip_digit(&json, &mut rng).unwrap();
        // Any outcome is acceptable except a panic: pristine load (the
        // flip hit insignificant text), salvage, or a typed refusal.
        match load_model(&damaged, SnapshotMode::Lenient) {
            Ok((model, ..)) => assert!(model.metric_count() >= 1),
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
}

#[test]
fn truncated_snapshots_refuse_in_both_modes() {
    let model = SpireModel::train(&clean_corpus(4), TrainConfig::default()).unwrap();
    let json = ModelSnapshot::from_model(&model).unwrap().to_json();
    for fraction in [0.0, 0.1, 0.5, 0.9, 0.99] {
        let cut = truncate(&json, fraction);
        for mode in [SnapshotMode::Lenient, SnapshotMode::Strict] {
            let err = load_model(cut, mode).unwrap_err();
            assert!(
                matches!(err, SpireError::SnapshotFormat { .. }),
                "fraction {fraction}: {err:?}"
            );
        }
    }
}

#[test]
fn zero_time_workload_fails_typed_through_the_snapshot_path() {
    // The DegenerateWeights guard must hold for snapshot-loaded models
    // exactly as for in-memory ones, for both merge strategies.
    for merge in [
        spire_core::MergeStrategy::TimeWeighted,
        spire_core::MergeStrategy::Unweighted,
    ] {
        let config = TrainConfig {
            merge,
            ..TrainConfig::default()
        };
        let model = SpireModel::train(&clean_corpus(2), config).unwrap();
        let json = ModelSnapshot::from_model(&model).unwrap().to_json();
        let (loaded, ..) = load_model(&json, SnapshotMode::Strict).unwrap();
        let mut wl = SampleSet::new();
        wl.push_unchecked(MetricId::new("metric_00"), 0.0, 1.0, 1.0);
        match loaded.estimate(&wl).unwrap_err() {
            SpireError::DegenerateWeights { metric } => assert_eq!(metric, "metric_00"),
            other => panic!("{merge:?}: expected DegenerateWeights, got {other:?}"),
        }
    }
}

#[test]
fn quarantine_order_is_deterministic_across_thread_counts() {
    let set = clean_corpus(8);
    let mut reference: Option<Vec<String>> = None;
    for threads in [1, 2, 4, 8] {
        let config = TrainConfig {
            threads,
            ..TrainConfig::default()
        };
        let outcome = silence_panics(|| {
            SpireModel::train_with_report_using(
                &set,
                config,
                TrainStrictness::Lenient,
                // Fail every other metric.
                |column, fit| {
                    let idx: usize = column.metric().as_str()[7..].parse().unwrap();
                    if idx % 2 == 1 {
                        panic!("odd metric down");
                    }
                    spire_core::PiecewiseRoofline::fit_column(column, fit)
                },
            )
        })
        .unwrap();
        let order: Vec<String> = outcome
            .report
            .quarantined
            .iter()
            .map(|q| q.metric.to_string())
            .collect();
        match &reference {
            None => reference = Some(order),
            Some(expect) => assert_eq!(&order, expect, "threads {threads}"),
        }
    }
    assert_eq!(reference.unwrap().len(), 4);
}
