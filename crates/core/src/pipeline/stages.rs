//! The pipeline's steps as plain functions: training, incremental
//! update, snapshot loading, estimation, and bottleneck analysis. Ingest
//! and dataset build live in `spire_counters::pipeline`, which depends on
//! this crate.
//!
//! Each function takes the run's [`RunContext`] and borrowed inputs,
//! calls the same library entry point a direct caller would — so its
//! output is bit-identical to the direct API — and runs it inside
//! [`RunContext::stage`]. The functions add only bus events.

use crate::analysis::BottleneckReport;
use crate::catalog::MetricCatalog;
use crate::ensemble::{Estimate, SpireModel, TrainOutcome, TrainReport};
use crate::online::{OnlineTrainer, UpdateOutcome};
use crate::roofline::ThinningNotice;
use crate::sample::SampleSet;
use crate::snapshot::{ModelSnapshot, SnapshotLoad, SnapshotReport};
use crate::Result;

use super::{Event, RunContext};

/// Emits the bus events implied by a finished training run: one
/// `MetricQuarantined` per quarantined metric, one `FrontThinned` per
/// lossy thinning decision, and a `BudgetConsumed` summary. Public so
/// tests (and custom training paths like the fault-injection harness) can
/// mirror any [`TrainReport`] onto a bus.
pub fn emit_train_events(report: &TrainReport, notices: &[ThinningNotice], ctx: &RunContext) {
    for q in &report.quarantined {
        ctx.emit(Event::MetricQuarantined {
            metric: q.metric.to_string(),
            reason: q.reason.as_str().to_owned(),
            detail: q.detail.clone(),
        });
    }
    for n in notices {
        ctx.emit(Event::FrontThinned {
            metric: n.metric.to_string(),
            original: n.original,
            retained: n.retained,
            cap: n.cap,
        });
    }
    ctx.emit(Event::BudgetConsumed {
        stage: "train".to_owned(),
        consumed: report.quarantined_fraction(),
        budget: report.error_budget,
        exceeded: report.budget_exceeded(),
    });
}

/// The `train` stage: fault-isolated training over the context's
/// [`TrainConfig`](crate::TrainConfig) and strictness
/// ([`SpireModel::train_with_report`]), mirroring the resulting
/// [`TrainReport`] onto the bus.
///
/// # Errors
///
/// As [`SpireModel::train_with_report`].
pub fn train(ctx: &RunContext, samples: &SampleSet) -> Result<TrainOutcome> {
    ctx.stage(
        "train",
        Some(samples.len()),
        || {
            let outcome = SpireModel::train_with_report(
                samples,
                ctx.config.train.clone(),
                ctx.config.strictness,
            )?;
            emit_train_events(&outcome.report, &outcome.fit_notices, ctx);
            Ok(outcome)
        },
        |outcome| Some(outcome.model.metric_count()),
    )
}

/// The `update` stage: feeds one sample batch into `trainer` and commits,
/// mirroring the resulting [`UpdateReport`](crate::UpdateReport) onto the
/// bus — one `ModelRefit` per refitted metric (`mode` distinguishes full
/// refits from patched right-region refits), one `ModelUnchanged` per
/// metric whose new samples were all dominated, plus the usual train
/// events (quarantines, thinning, budget).
///
/// # Errors
///
/// As [`OnlineTrainer::commit`]; a failed commit leaves the trainer's
/// model untouched.
pub fn update(
    ctx: &RunContext,
    trainer: &mut OnlineTrainer,
    batch: &SampleSet,
) -> Result<UpdateOutcome> {
    ctx.stage(
        "update",
        Some(batch.len()),
        || {
            trainer.push_batch(batch);
            let outcome = trainer.commit()?;
            for metric in &outcome.update.refit_full {
                ctx.emit(Event::ModelRefit {
                    metric: metric.to_string(),
                    mode: "full".to_owned(),
                });
            }
            for metric in &outcome.update.refit_right {
                ctx.emit(Event::ModelRefit {
                    metric: metric.to_string(),
                    mode: "right".to_owned(),
                });
            }
            for metric in &outcome.update.unchanged {
                ctx.emit(Event::ModelUnchanged {
                    metric: metric.to_string(),
                });
            }
            emit_train_events(&outcome.report, &outcome.fit_notices, ctx);
            Ok((outcome, trainer.model().map(SpireModel::metric_count)))
        },
        |(_, metrics)| *metrics,
    )
    .map(|(outcome, _)| outcome)
}

/// Emits the bus events implied by a salvaged snapshot load: one
/// `SnapshotRecordDropped` per dropped record, then `SnapshotSalvaged`.
/// Clean loads emit nothing. `source` names where the text came from.
pub fn emit_salvage_events(report: &SnapshotReport, source: &str, ctx: &RunContext) {
    if !report.is_degraded() {
        return;
    }
    for d in &report.dropped {
        ctx.emit(Event::SnapshotRecordDropped {
            metric: d.metric.to_string(),
            reason: d.reason.clone(),
        });
    }
    ctx.emit(Event::SnapshotSalvaged {
        source: source.to_owned(),
        dropped: report.dropped.len(),
        total: report.metrics_total,
    });
}

/// The `load-model` stage: parses snapshot JSON `text` once and loads it
/// in the context's [`SnapshotMode`](crate::SnapshotMode)
/// ([`ModelSnapshot::into_model`]), mirroring any salvage onto the bus
/// ([`emit_salvage_events`]). The caller supplies the text; file I/O
/// stays at the edges.
///
/// # Errors
///
/// As [`ModelSnapshot::from_json`] and [`ModelSnapshot::into_model`].
pub fn load_model(ctx: &RunContext, source: &str, text: &str) -> Result<SnapshotLoad> {
    ctx.stage(
        "load-model",
        None,
        || {
            let loaded = ModelSnapshot::from_json(text)?.into_model(ctx.config.snapshot_mode())?;
            emit_salvage_events(&loaded.report, source, ctx);
            Ok(loaded)
        },
        |loaded| Some(loaded.model.metric_count()),
    )
}

/// The `estimate` stage: ensemble estimation of one workload under a trained
/// model ([`SpireModel::estimate`]).
///
/// # Errors
///
/// As [`SpireModel::estimate`].
pub fn estimate(ctx: &RunContext, model: &SpireModel, samples: &SampleSet) -> Result<Estimate> {
    ctx.stage(
        "estimate",
        Some(samples.len()),
        || model.estimate(samples),
        |estimate| Some(estimate.per_metric().len()),
    )
}

/// The `analyze` stage: ranks an estimate into a [`BottleneckReport`]
/// annotated from the Table III [`MetricCatalog`].
///
/// # Errors
///
/// Never fails; the `Result` keeps every step's signature alike.
pub fn analyze(ctx: &RunContext, estimate: &Estimate) -> Result<BottleneckReport> {
    ctx.stage(
        "analyze",
        None,
        || Ok(BottleneckReport::new(estimate, &MetricCatalog::table_iii())),
        |report| Some(report.rows().len()),
    )
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::super::{CollectingSink, PipelineConfig};
    use super::*;
    use crate::ensemble::{TrainConfig, TrainStrictness};
    use crate::error::SpireError;
    use crate::roofline::{FitOptions, PiecewiseRoofline};
    use crate::sample::Sample;

    fn training_set() -> SampleSet {
        let mut set = SampleSet::new();
        for m in ["m_alpha", "m_beta", "m_gamma"] {
            for i in 1..6 {
                set.push(Sample::new(m, 10.0, (5 * i) as f64, (10 - i) as f64).unwrap());
            }
        }
        set
    }

    fn ctx_with_sink() -> (RunContext, Arc<CollectingSink>) {
        let sink = Arc::new(CollectingSink::new());
        let ctx = RunContext::new(PipelineConfig::default()).with_sink(sink.clone());
        (ctx, sink)
    }

    #[test]
    fn train_output_is_bit_identical_to_direct_training() {
        let (ctx, sink) = ctx_with_sink();
        let set = training_set();
        let outcome = train(&ctx, &set).unwrap();
        let kinds: Vec<&str> = sink.events().iter().map(Event::kind).collect();
        assert_eq!(
            kinds,
            ["stage_started", "budget_consumed", "stage_finished"]
        );
        let direct =
            SpireModel::train_with_report(&set, TrainConfig::default(), TrainStrictness::Lenient)
                .unwrap();
        assert_eq!(outcome.model, direct.model);
        assert_eq!(
            serde_json::to_string(&ModelSnapshot::from_model(&outcome.model).unwrap()).unwrap(),
            serde_json::to_string(&ModelSnapshot::from_model(&direct.model).unwrap()).unwrap()
        );
    }

    #[test]
    fn quarantine_decisions_appear_as_typed_events() {
        let (ctx, sink) = ctx_with_sink();
        // Drive a quarantine through the fault-injection seam: one metric's
        // fit always errs, the others train normally.
        let outcome = SpireModel::train_with_report_using(
            &training_set(),
            TrainConfig::default(),
            TrainStrictness::Lenient,
            |column, options| {
                if column.metric().as_str() == "m_beta" {
                    Err(SpireError::EmptyWorkload)
                } else {
                    PiecewiseRoofline::fit_column(column, options)
                }
            },
        )
        .unwrap();
        emit_train_events(&outcome.report, &outcome.fit_notices, &ctx);
        let events = sink.events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                Event::MetricQuarantined { metric, reason, .. }
                    if metric == "m_beta" && reason == "fit_failed"
            )),
            "{events:?}"
        );
        let budget = events
            .iter()
            .find(|e| matches!(e, Event::BudgetConsumed { .. }))
            .expect("budget event");
        if let Event::BudgetConsumed {
            consumed,
            budget,
            exceeded,
            ..
        } = budget
        {
            assert!((consumed - 1.0 / 3.0).abs() < 1e-12);
            assert_eq!(*budget, 0.5);
            assert!(!exceeded);
        }
        assert!(ctx.degraded(), "quarantine must flip the degraded flag");
    }

    #[test]
    fn front_thinning_surfaces_as_an_event_not_stderr() {
        let (ctx, sink) = ctx_with_sink();
        // A wide front: strictly decreasing throughput right of the apex.
        let mut set = SampleSet::new();
        for i in 0..40 {
            let intensity = 1.0 + i as f64;
            let throughput = 50.0 - i as f64;
            set.push(Sample::new("wide", 1.0, intensity * throughput, throughput).unwrap());
        }
        let config = TrainConfig {
            fit: FitOptions {
                thin_front: true,
                max_front_size: 8,
                ..FitOptions::default()
            },
            ..TrainConfig::default()
        };
        let outcome =
            SpireModel::train_with_report(&set, config, TrainStrictness::Lenient).unwrap();
        assert_eq!(outcome.fit_notices.len(), 1);
        emit_train_events(&outcome.report, &outcome.fit_notices, &ctx);
        assert!(
            sink.events().iter().any(|e| matches!(
                e,
                Event::FrontThinned { metric, retained: 8, cap: 8, .. } if metric == "wide"
            )),
            "{:?}",
            sink.events()
        );
        assert!(
            !ctx.degraded(),
            "requested thinning is a warning, not degradation"
        );
    }

    #[test]
    fn load_model_mirrors_salvage_onto_the_bus() {
        let outcome = SpireModel::train_with_report(
            &training_set(),
            TrainConfig::default(),
            TrainStrictness::Strict,
        )
        .unwrap();
        let mut snapshot = ModelSnapshot::from_model(&outcome.model).unwrap();
        snapshot.metrics[0].checksum = "0000000000000000".to_owned();
        let text = snapshot.to_json();

        let (ctx, sink) = ctx_with_sink();
        let loaded = load_model(&ctx, "test.snapshot.json", &text).unwrap();
        assert_eq!(loaded.model.metric_count(), 2);
        assert_eq!(loaded.machine, None);
        assert_eq!(loaded.report.dropped.len(), 1);
        let events = sink.events();
        assert!(matches!(
            events.last(),
            Some(Event::StageFinished { stage, items_out: Some(2), .. }) if stage == "load-model"
        ));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::SnapshotRecordDropped { metric, .. } if metric == "m_alpha"
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::SnapshotSalvaged {
                dropped: 1,
                total: 3,
                ..
            }
        )));
        assert!(ctx.degraded());
    }

    #[test]
    fn update_emits_refit_and_unchanged_events() {
        let (ctx, sink) = ctx_with_sink();
        let mut trainer =
            OnlineTrainer::new(TrainConfig::default(), TrainStrictness::Lenient).unwrap();

        // First batch: a metric with a multi-point Pareto front right of
        // the apex. Everything is a full refit (no prior model).
        let mut seed = SampleSet::new();
        for (w, m) in [(10.0, 10.0), (40.0, 10.0), (60.0, 6.0), (30.0, 1.0)] {
            seed.push(Sample::new("m_front", 10.0, w, m).unwrap());
        }
        let outcome = update(&ctx, &mut trainer, &seed).unwrap();
        assert_eq!(outcome.update.refit_full.len(), 1);
        assert!(
            sink.events().iter().any(|e| matches!(
                e,
                Event::ModelRefit { metric, mode } if metric == "m_front" && mode == "full"
            )),
            "{:?}",
            sink.events()
        );

        // Second batch: a sample right of the apex, strictly below the
        // front — an exact no-op, so the model is untouched.
        let mut dominated = SampleSet::new();
        dominated.push(Sample::new("m_front", 10.0, 20.0, 1.0).unwrap());
        let outcome = update(&ctx, &mut trainer, &dominated).unwrap();
        assert!(outcome.update.refit_full.is_empty());
        assert!(outcome.update.refit_right.is_empty());
        assert_eq!(outcome.update.unchanged.len(), 1);
        assert!(
            sink.events().iter().any(|e| matches!(
                e,
                Event::ModelUnchanged { metric } if metric == "m_front"
            )),
            "{:?}",
            sink.events()
        );
        assert!(!ctx.degraded());
    }

    #[test]
    fn update_result_matches_batch_training() {
        let (ctx, _sink) = ctx_with_sink();
        let mut trainer =
            OnlineTrainer::new(TrainConfig::default(), TrainStrictness::Lenient).unwrap();
        let set = training_set();
        let (half_a, half_b): (Vec<_>, Vec<_>) =
            set.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let mut batch_a = SampleSet::new();
        batch_a.extend(half_a.into_iter().map(|(_, s)| s));
        let mut batch_b = SampleSet::new();
        batch_b.extend(half_b.into_iter().map(|(_, s)| s));

        let mut concatenated = SampleSet::new();
        concatenated.extend(batch_a.iter());
        concatenated.extend(batch_b.iter());

        update(&ctx, &mut trainer, &batch_a).unwrap();
        update(&ctx, &mut trainer, &batch_b).unwrap();
        let direct = SpireModel::train_with_report(
            &concatenated,
            TrainConfig::default(),
            TrainStrictness::Lenient,
        )
        .unwrap();
        assert_eq!(trainer.model().expect("committed"), &direct.model);
    }

    #[test]
    fn estimate_and_analyze_match_direct_calls() {
        let set = training_set();
        let model = SpireModel::train(&set, TrainConfig::default()).unwrap();
        let (ctx, sink) = ctx_with_sink();
        let report = analyze(&ctx, &estimate(&ctx, &model, &set).unwrap()).unwrap();
        assert!(matches!(
            &sink.events()[1],
            Event::StageFinished { stage, items_in: Some(15), items_out: Some(3), .. }
                if stage == "estimate"
        ));
        let direct =
            BottleneckReport::new(&model.estimate(&set).unwrap(), &MetricCatalog::table_iii());
        assert_eq!(report, direct);
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&direct).unwrap()
        );
    }
}
