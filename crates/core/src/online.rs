//! Incremental model maintenance: the streaming counterpart of
//! [`SpireModel::train`].
//!
//! An [`OnlineTrainer`] accepts sample batches ([`OnlineTrainer::push_batch`])
//! and, on [`OnlineTrainer::commit`], produces a model **bit-identical** to a
//! batch retrain over every sample pushed so far — while refitting only the
//! metrics whose fit inputs actually changed. Each metric a batch touches
//! lands in one of two classes:
//!
//! * **`Clean`: an exact no-op.** Each trained metric keeps the apex, the
//!   un-thinned right-region Pareto front and the `+∞`-intensity tail
//!   height of its last fit. A finite sample strictly right of the apex and
//!   weakly dominated by that front (checked in O(log k)) is one the batch
//!   Pareto sweep would discard; a sample of `+∞` intensity that leaves the
//!   running maximum's bits unchanged is one the batch fold would absorb.
//!   Either way the fit is unchanged, and the commit only records the grown
//!   sample count.
//! * **`Full`: a refit.** Any other sample — one that extends the front,
//!   raises the tail, sits at or left of the apex (where its interaction
//!   with the tolerance-based hull walk is not exactly predictable), or
//!   carries a NaN or −∞ intensity — makes the commit rerun the batch fit
//!   over the metric's whole column.
//!
//! Equality with the batch path is therefore structural, not a tolerance:
//! a `Clean` metric's fit is provably the batch fit, and a `Full` metric
//! runs it. Commit mirrors the batch trainer's control flow exactly (skip
//! ordering, quarantine flattening, strict-mode first-error, budget and
//! empty checks), so reports, notices, and error behavior also match a
//! batch retrain.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::ensemble::{
    QuarantinedMetric, SpireModel, TrainConfig, TrainQuarantineReason, TrainReport, TrainStrictness,
};
use crate::error::{Result, SpireError};
use crate::parallel;
use crate::roofline::{FitArtifacts, PiecewiseRoofline, ThinningNotice};
use crate::sample::{MetricColumn, MetricId, SampleSet};

/// What the next commit must do for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dirty {
    /// New samples (if any) were exact no-ops; only the recorded
    /// training-sample count needs patching.
    Clean,
    /// The fit must be recomputed from the full column.
    Full,
}

/// What the last commit concluded about one metric.
#[derive(Debug, Clone)]
enum SlotStatus {
    /// Samples exist but no commit has processed them yet.
    Pending,
    /// The metric has a validated roofline (owned by the maintained
    /// model, not the slot).
    Trained,
    /// The metric's fit failed and was quarantined (lenient mode).
    Quarantined(QuarantinedMetric),
}

/// Per-metric incremental state.
#[derive(Debug, Clone)]
struct Slot {
    status: SlotStatus,
    dirty: Dirty,
    /// What the metric's last fit left behind to classify new samples
    /// against; `Opaque` for quarantined or never-fitted metrics.
    artifacts: FitArtifacts,
    /// The thinning notice the metric's current fit produced (kept across
    /// clean commits: an unchanged front implies an unchanged decision).
    notice: Option<ThinningNotice>,
}

impl Slot {
    fn pending() -> Self {
        Slot {
            status: SlotStatus::Pending,
            dirty: Dirty::Full,
            artifacts: FitArtifacts::Opaque,
            notice: None,
        }
    }
}

/// What one [`OnlineTrainer::commit`] did, beyond the model itself.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct UpdateReport {
    /// Samples pushed since the previous commit.
    pub samples_added: usize,
    /// Metrics refitted from their full column, in metric-name order.
    pub refit_full: Vec<MetricId>,
    /// Always empty: every refit is a full one. The field stays because
    /// the daemon's `update` response serializes this report and the
    /// benchmark harness reads it.
    pub refit_right: Vec<MetricId>,
    /// Metrics that received samples which were exact no-ops, in
    /// metric-name order.
    pub unchanged: Vec<MetricId>,
}

impl UpdateReport {
    /// Metrics that received at least one sample since the last commit.
    pub fn metrics_touched(&self) -> usize {
        self.refit_full.len() + self.unchanged.len()
    }

    /// One-line summary, e.g. `+120 samples: 2 refitted, 5 unchanged`.
    pub fn summary(&self) -> String {
        format!(
            "+{} samples: {} refitted, {} unchanged",
            self.samples_added,
            self.refit_full.len(),
            self.unchanged.len()
        )
    }
}

/// The result of one [`OnlineTrainer::commit`]: the batch-equivalent train
/// report plus the incremental bookkeeping. The model itself stays inside
/// the trainer ([`OnlineTrainer::model`]) and owns the fitted rooflines:
/// each commit moves its `r` refitted fits into the model in place, so
/// model upkeep is O(r) map writes with zero roofline clones.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The batch-equivalent train report.
    pub report: TrainReport,
    /// Thinning notices the current fits carry, in metric-name order.
    pub fit_notices: Vec<ThinningNotice>,
    /// What the commit actually recomputed.
    pub update: UpdateReport,
}

/// Streaming model maintenance; see the module docs for the invariants.
///
/// ```
/// use spire_core::{OnlineTrainer, Sample, SampleSet, SpireModel, TrainConfig, TrainStrictness};
///
/// # fn main() -> Result<(), spire_core::SpireError> {
/// let mut batch = SampleSet::new();
/// for (w, m) in [(10.0, 10.0), (20.0, 5.0), (30.0, 2.0)] {
///     batch.push(Sample::new("stalls", 10.0, w, m)?);
/// }
/// let mut trainer = OnlineTrainer::new(TrainConfig::default(), TrainStrictness::Lenient)?;
/// trainer.push_batch(&batch);
/// trainer.commit()?;
/// // The incremental model equals a batch train over the same samples.
/// assert_eq!(
///     trainer.model().expect("committed"),
///     &SpireModel::train(&batch, TrainConfig::default())?
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnlineTrainer {
    /// Every sample pushed so far, in batch arrival order per metric —
    /// identical to merging the batches into one set.
    samples: SampleSet,
    config: TrainConfig,
    strictness: TrainStrictness,
    slots: BTreeMap<MetricId, Slot>,
    /// Metrics that received samples since the last successful commit.
    touched: BTreeSet<MetricId>,
    /// Samples pushed since the last successful commit.
    pending: usize,
    /// The maintained model: rebuilt on the first successful commit, then
    /// patched in place (changed rooflines only) on every later one.
    model: Option<SpireModel>,
}

impl OnlineTrainer {
    /// Creates an empty trainer.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::InvalidConfig`] if `config` fails validation.
    pub fn new(config: TrainConfig, strictness: TrainStrictness) -> Result<Self> {
        config.validate()?;
        Ok(OnlineTrainer {
            samples: SampleSet::new(),
            config,
            strictness,
            slots: BTreeMap::new(),
            touched: BTreeSet::new(),
            pending: 0,
            model: None,
        })
    }

    /// Appends a batch of samples, classifying each against the maintained
    /// per-metric state. No fitting happens here; call
    /// [`OnlineTrainer::commit`] to refit the dirty metrics.
    pub fn push_batch(&mut self, batch: &SampleSet) {
        for (metric, column) in batch.by_metric() {
            if column.is_empty() {
                continue;
            }
            self.touched.insert(metric.clone());
            let slot = self
                .slots
                .entry(metric.clone())
                .or_insert_with(Slot::pending);
            classify_rows(slot, column.intensities(), column.throughputs());
        }
        self.pending += batch.len();
        self.samples.merge(batch.clone());
    }

    /// Refits every dirty metric and patches the maintained model
    /// ([`OnlineTrainer::model`]), which is bit-identical to
    /// [`SpireModel::train_with_report`] over all samples pushed so far.
    ///
    /// On error the trainer keeps its samples and dirty flags, so a later
    /// push-and-commit behaves like a batch retrain over the larger set.
    ///
    /// # Errors
    ///
    /// Exactly the batch trainer's: [`SpireError::EmptyTrainingSet`],
    /// per-metric fit errors in [`TrainStrictness::Strict`] mode, and
    /// [`SpireError::ErrorBudgetExceeded`] in lenient mode.
    pub fn commit(&mut self) -> Result<UpdateOutcome> {
        self.config.validate()?;
        if self.samples.is_empty() {
            return Err(SpireError::EmptyTrainingSet { metric: None });
        }

        // Phase 1: decide, for every metric, whether it is skipped, clean,
        // or refitted — in by_metric (name) order, like the batch path.
        let mut skipped: Vec<MetricId> = Vec::new();
        let mut jobs: Vec<(&MetricId, &MetricColumn)> = Vec::new();
        for (metric, column) in self.samples.by_metric() {
            if column.len() < self.config.min_samples_per_metric {
                skipped.push(metric.clone());
                continue;
            }
            let settled = self.slots.get(metric).is_some_and(|slot| {
                slot.dirty == Dirty::Clean
                    && matches!(
                        slot.status,
                        SlotStatus::Trained | SlotStatus::Quarantined(_)
                    )
            });
            if !settled {
                jobs.push((metric, column));
            }
        }
        if jobs.is_empty()
            && self
                .slots
                .values()
                .all(|s| matches!(s.status, SlotStatus::Pending))
        {
            // Every metric fell below the minimum sample count: the batch
            // trainer reports an empty training set.
            return Err(SpireError::EmptyTrainingSet { metric: None });
        }

        // Phase 2: run the jobs with per-metric panic containment, results
        // in job (metric-name) order — exactly the batch fan-out.
        let options = &self.config.fit;
        let fitted = parallel::map_catching(&jobs, self.config.threads, |(_, column)| {
            PiecewiseRoofline::fit_column_seeded(column, options)
        });

        // Phase 3: flatten the three failure channels per metric, exactly
        // like the batch path, into staged slot updates.
        type Staged = (
            MetricId,
            std::result::Result<
                (PiecewiseRoofline, Option<ThinningNotice>, FitArtifacts),
                QuarantinedMetric,
            >,
        );
        let mut staged: Vec<Staged> = Vec::with_capacity(jobs.len());
        for (&(metric, _), outcome) in jobs.iter().zip(fitted) {
            let metric = metric.clone();
            let checked: Result<_> = match outcome {
                Err(message) => Err(SpireError::FitPanicked {
                    metric: metric.to_string(),
                    message,
                }),
                Ok(Err(e)) => Err(e),
                Ok(Ok((fit, notice, artifacts))) => {
                    fit.validate().map(|()| (fit, notice, artifacts))
                }
            };
            match checked {
                Ok(ok) => staged.push((metric, Ok(ok))),
                Err(e) => {
                    if self.strictness == TrainStrictness::Strict {
                        return Err(e);
                    }
                    let reason = match &e {
                        SpireError::FitPanicked { .. } => TrainQuarantineReason::FitPanicked,
                        SpireError::ModelInvariantViolation { .. } => {
                            TrainQuarantineReason::InvariantViolation
                        }
                        _ => TrainQuarantineReason::FitFailed,
                    };
                    staged.push((
                        metric.clone(),
                        Err(QuarantinedMetric {
                            metric,
                            reason,
                            detail: e.to_string(),
                        }),
                    ));
                }
            }
        }
        drop(jobs);

        // Phase 4: assemble the batch-equivalent report from staged results
        // plus untouched slots, and enforce the batch error ordering
        // (budget before the empty-ensemble check) WITHOUT mutating slots,
        // so a failed commit leaves the trainer retryable.
        let staged_map: BTreeMap<&MetricId, &Staged> = staged.iter().map(|s| (&s.0, s)).collect();
        let mut quarantined: Vec<QuarantinedMetric> = Vec::new();
        let mut metrics_trained = 0usize;
        for (metric, column) in self.samples.by_metric() {
            if column.len() < self.config.min_samples_per_metric {
                continue;
            }
            match staged_map.get(metric) {
                Some((_, Ok(_))) => metrics_trained += 1,
                Some((_, Err(q))) => quarantined.push(q.clone()),
                None => match self.slots.get(metric).map(|s| &s.status) {
                    Some(SlotStatus::Trained) => metrics_trained += 1,
                    Some(SlotStatus::Quarantined(q)) => quarantined.push(q.clone()),
                    _ => unreachable!("non-skipped metric without a job must have a settled slot"),
                },
            }
        }
        drop(staged_map);
        let report = TrainReport {
            metrics_seen: skipped.len() + metrics_trained + quarantined.len(),
            metrics_trained,
            metrics_skipped: skipped.len(),
            quarantined,
            error_budget: self.config.metric_error_budget,
        };
        if report.budget_exceeded() {
            return Err(SpireError::ErrorBudgetExceeded {
                quarantined: report.quarantined.len(),
                total: report.metrics_trained + report.quarantined.len(),
                budget: report.error_budget,
            });
        }
        if metrics_trained == 0 {
            return Err(SpireError::EmptyTrainingSet { metric: None });
        }

        // Phase 5: the commit succeeds — apply the staged updates. The
        // maintained model owns the fits: each staged roofline *moves*
        // into it below, so a commit that refits r of n metrics clones
        // zero rooflines and writes O(r) map entries.
        let mut update = UpdateReport {
            samples_added: self.pending,
            ..UpdateReport::default()
        };
        let mut moved: Vec<(MetricId, Option<PiecewiseRoofline>)> =
            Vec::with_capacity(staged.len());
        for (metric, result) in staged {
            update.refit_full.push(metric.clone());
            let slot = self.slots.get_mut(&metric).expect("job metrics have slots");
            match result {
                Ok((fit, notice, artifacts)) => {
                    slot.status = SlotStatus::Trained;
                    slot.notice = notice;
                    slot.artifacts = artifacts;
                    moved.push((metric, Some(fit)));
                }
                Err(q) => {
                    slot.status = SlotStatus::Quarantined(q);
                    slot.artifacts = FitArtifacts::Opaque;
                    slot.notice = None;
                    moved.push((metric, None));
                }
            }
            slot.dirty = Dirty::Clean;
        }

        // Phase 6: maintain the model in place. On the first successful
        // commit every trained metric was staged this round (no slot was
        // Clean before it), so `moved` is the complete roofline set; later
        // commits only touch the refitted entries. Notices come from the
        // slots in metric-name order (the batch job order).
        let mut fit_notices = Vec::new();
        for slot in self.slots.values() {
            if matches!(slot.status, SlotStatus::Trained) {
                fit_notices.extend(slot.notice.clone());
            }
        }
        let model = match self.model.as_mut() {
            Some(model) => {
                model.set_skipped_metrics(skipped);
                model
            }
            None => self.model.insert(SpireModel::from_parts(
                BTreeMap::new(),
                self.config.clone(),
                skipped,
            )),
        };
        for (metric, fit) in moved {
            match fit {
                Some(fit) => {
                    model.rooflines_mut().insert(metric, fit);
                }
                None => {
                    model.rooflines_mut().remove(&metric);
                }
            }
        }
        // Touched-but-clean metrics: the fit is unchanged, but a batch
        // retrain would record the grown sample count. The refit list is
        // in metric-name order, so membership is a binary search.
        for metric in &self.touched {
            if update.refit_full.binary_search(metric).is_ok() {
                continue;
            }
            let Some(column) = self.samples.column(metric) else {
                continue;
            };
            if column.len() < self.config.min_samples_per_metric {
                continue;
            }
            if !matches!(
                self.slots.get(metric).map(|s| &s.status),
                Some(SlotStatus::Trained)
            ) {
                continue;
            }
            if let Some(fit) = model.rooflines_mut().get_mut(metric) {
                fit.set_training_samples(column.len());
                update.unchanged.push(metric.clone());
            }
        }

        self.touched.clear();
        self.pending = 0;
        Ok(UpdateOutcome {
            report,
            fit_notices,
            update,
        })
    }

    /// The maintained model — bit-identical to a batch retrain over every
    /// sample pushed so far. `None` until the first successful commit.
    pub fn model(&self) -> Option<&SpireModel> {
        self.model.as_ref()
    }

    /// Every sample pushed so far (the set a batch retrain would consume).
    pub fn samples(&self) -> &SampleSet {
        &self.samples
    }

    /// The configuration every commit trains with.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Samples pushed since the last successful commit.
    pub fn pending_samples(&self) -> usize {
        self.pending
    }
}

/// Classifies one batch's rows for one metric: the slot stays `Clean` only
/// if every row is an exact no-op for its current fit (see the module
/// docs); the first row that is not makes it `Full`.
fn classify_rows(slot: &mut Slot, intensities: &[f64], throughputs: &[f64]) {
    if slot.dirty == Dirty::Full {
        return;
    }
    let noop = |(&x, &y): (&f64, &f64)| match &slot.artifacts {
        FitArtifacts::Opaque => false,
        // The batch fit folds `+∞`-intensity throughputs into a running
        // maximum in column order, and new rows append to the column: the
        // fit is unchanged iff the next fold step leaves the bits alone.
        FitArtifacts::Constant { inf_height } => {
            x == f64::INFINITY && inf_height.max(y).to_bits() == inf_height.to_bits()
        }
        FitArtifacts::Graph {
            inf_height: Some(h),
            ..
        } if x == f64::INFINITY => h.max(y).to_bits() == h.to_bits(),
        FitArtifacts::Graph { apex, front, .. } => {
            // Strictly right of the apex and below it, the hull and apex
            // are provably unchanged; the sample is then a no-op iff the
            // batch Pareto sweep would discard it. `front` is sorted by
            // strictly descending x and strictly increasing y.
            if !(x.is_finite() && y.is_finite() && x > apex.x && y < apex.y) {
                return false;
            }
            let j = front.partition_point(|q| q.x > x);
            (j > 0 && front[j - 1].y >= y)
                || (j < front.len() && front[j].x == x && front[j].y >= y)
        }
    };
    if !intensities.iter().zip(throughputs).all(noop) {
        slot.dirty = Dirty::Full;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::TrainOutcome;
    use crate::Sample;

    fn s(metric: &str, t: f64, w: f64, m: f64) -> Sample {
        Sample::new(metric, t, w, m).unwrap()
    }

    fn batch(rows: &[(&str, f64, f64, f64)]) -> SampleSet {
        rows.iter()
            .map(|&(metric, t, w, m)| s(metric, t, w, m))
            .collect()
    }

    fn batch_train(samples: &SampleSet, config: &TrainConfig) -> TrainOutcome {
        SpireModel::train_with_report(samples, config.clone(), TrainStrictness::Lenient).unwrap()
    }

    /// Asserts the online outcome is bit-identical to a batch retrain over
    /// the same samples.
    fn assert_matches_batch(
        trainer: &OnlineTrainer,
        outcome: &UpdateOutcome,
        samples: &SampleSet,
        config: &TrainConfig,
    ) {
        let expected = batch_train(samples, config);
        assert_eq!(trainer.model().expect("committed"), &expected.model);
        assert_eq!(outcome.report, expected.report);
        assert_eq!(outcome.fit_notices, expected.fit_notices);
    }

    #[test]
    fn first_commit_equals_batch_train() {
        let data = batch(&[
            ("stalls", 10.0, 10.0, 10.0),
            ("stalls", 10.0, 20.0, 5.0),
            ("stalls", 10.0, 30.0, 2.0),
            ("misses", 10.0, 12.0, 3.0),
            ("misses", 10.0, 24.0, 2.0),
        ]);
        let config = TrainConfig::default();
        let mut trainer = OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).unwrap();
        trainer.push_batch(&data);
        let outcome = trainer.commit().unwrap();
        assert_matches_batch(&trainer, &outcome, &data, &config);
        assert_eq!(outcome.update.refit_full.len(), 2);
        assert_eq!(outcome.update.samples_added, 5);
    }

    #[test]
    fn dominated_sample_is_exact_noop() {
        let config = TrainConfig::default();
        let mut trainer = OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).unwrap();
        let seed = batch(&[
            ("m", 10.0, 10.0, 10.0), // I 1,  P 1
            ("m", 10.0, 40.0, 10.0), // I 4,  P 4  (apex)
            ("m", 10.0, 60.0, 6.0),  // I 10, P 6? no: P = 6.0 -> apex is this
            ("m", 10.0, 30.0, 1.0),  // I 30, P 3
        ]);
        trainer.push_batch(&seed);
        trainer.commit().unwrap();

        // A sample right of the apex, below the front: exact no-op.
        let update = batch(&[("m", 10.0, 20.0, 1.0)]); // I 20, P 2 < front
        trainer.push_batch(&update);
        let outcome = trainer.commit().unwrap();
        assert_eq!(outcome.update.unchanged, vec![MetricId::new("m")]);
        assert!(outcome.update.refit_full.is_empty());

        let mut all = seed;
        all.merge(update);
        assert_matches_batch(&trainer, &outcome, &all, &config);
    }

    #[test]
    fn front_extending_sample_refits_the_metric() {
        let config = TrainConfig::default();
        let mut trainer = OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).unwrap();
        let seed = batch(&[
            ("m", 10.0, 10.0, 10.0), // I 1,  P 1
            ("m", 10.0, 60.0, 10.0), // I 6,  P 6  (apex)
            ("m", 10.0, 30.0, 1.0),  // I 30, P 3
        ]);
        trainer.push_batch(&seed);
        trainer.commit().unwrap();

        // Right of the apex, above the existing front at that x.
        let update = batch(&[("m", 10.0, 40.0, 2.0)]); // I 20, P 4
        trainer.push_batch(&update);
        let outcome = trainer.commit().unwrap();
        assert_eq!(outcome.update.refit_full, vec![MetricId::new("m")]);
        assert!(outcome.update.refit_right.is_empty());

        let mut all = seed;
        all.merge(update);
        assert_matches_batch(&trainer, &outcome, &all, &config);
    }

    #[test]
    fn new_apex_forces_full_refit() {
        let config = TrainConfig::default();
        let mut trainer = OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).unwrap();
        let seed = batch(&[
            ("m", 10.0, 10.0, 10.0),
            ("m", 10.0, 40.0, 8.0),
            ("m", 10.0, 30.0, 2.0),
        ]);
        trainer.push_batch(&seed);
        trainer.commit().unwrap();

        let update = batch(&[("m", 10.0, 90.0, 10.0)]); // P 9: new apex
        trainer.push_batch(&update);
        let outcome = trainer.commit().unwrap();
        assert_eq!(outcome.update.refit_full, vec![MetricId::new("m")]);

        let mut all = seed;
        all.merge(update);
        assert_matches_batch(&trainer, &outcome, &all, &config);
    }

    #[test]
    fn constant_metric_refits_when_its_height_rises() {
        let config = TrainConfig::default();
        let mut trainer = OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).unwrap();
        // All-infinite-intensity metric (M = 0 throughout).
        let seed = batch(&[("c", 10.0, 10.0, 0.0), ("c", 10.0, 20.0, 0.0)]);
        trainer.push_batch(&seed);
        trainer.commit().unwrap();

        let update = batch(&[("c", 10.0, 30.0, 0.0)]); // higher constant
        trainer.push_batch(&update);
        let outcome = trainer.commit().unwrap();
        assert_eq!(outcome.update.refit_full, vec![MetricId::new("c")]);

        let mut all = seed;
        all.merge(update);
        assert_matches_batch(&trainer, &outcome, &all, &config);

        // A lower sample is an exact no-op (count patch only).
        let noop = batch(&[("c", 10.0, 5.0, 0.0)]);
        trainer.push_batch(&noop);
        let outcome = trainer.commit().unwrap();
        assert_eq!(outcome.update.unchanged, vec![MetricId::new("c")]);
        all.merge(noop);
        assert_matches_batch(&trainer, &outcome, &all, &config);
    }

    #[test]
    fn skipped_metric_promotes_once_it_reaches_minimum() {
        let config = TrainConfig {
            min_samples_per_metric: 3,
            ..TrainConfig::default()
        };
        let mut trainer = OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).unwrap();
        let seed = batch(&[
            ("big", 10.0, 10.0, 10.0),
            ("big", 10.0, 20.0, 5.0),
            ("big", 10.0, 30.0, 2.0),
            ("small", 10.0, 10.0, 5.0),
        ]);
        trainer.push_batch(&seed);
        let outcome = trainer.commit().unwrap();
        assert_eq!(outcome.report.metrics_skipped, 1);
        assert_matches_batch(&trainer, &outcome, &seed, &config);

        let update = batch(&[("small", 10.0, 20.0, 4.0), ("small", 10.0, 30.0, 2.0)]);
        trainer.push_batch(&update);
        let outcome = trainer.commit().unwrap();
        assert_eq!(outcome.report.metrics_skipped, 0);
        assert_eq!(outcome.update.refit_full, vec![MetricId::new("small")]);
        let mut all = seed;
        all.merge(update);
        assert_matches_batch(&trainer, &outcome, &all, &config);
    }

    #[test]
    fn interleaved_batches_match_one_batch_retrain() {
        let config = TrainConfig::default();
        let mut trainer = OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).unwrap();
        let mut all = SampleSet::new();
        for round in 0u32..6 {
            let mut b = SampleSet::new();
            for metric in 0..5 {
                for i in 0..8 {
                    let t = 10.0 + f64::from(i % 3);
                    let w = 5.0 + f64::from((i * (metric + 2) + round * 7) % 23);
                    let m = f64::from((i + round) % 5); // includes M = 0 rows
                    b.push(s(&format!("metric_{metric}"), t, w, m));
                }
            }
            trainer.push_batch(&b);
            let outcome = trainer.commit().unwrap();
            all.merge(b);
            assert_matches_batch(&trainer, &outcome, &all, &config);
        }
    }

    #[test]
    fn commit_without_samples_errors_like_batch() {
        let mut trainer =
            OnlineTrainer::new(TrainConfig::default(), TrainStrictness::Lenient).unwrap();
        assert!(matches!(
            trainer.commit().unwrap_err(),
            SpireError::EmptyTrainingSet { metric: None }
        ));
    }

    #[test]
    fn all_metrics_below_minimum_errors_like_batch() {
        let config = TrainConfig {
            min_samples_per_metric: 5,
            ..TrainConfig::default()
        };
        let mut trainer = OnlineTrainer::new(config, TrainStrictness::Lenient).unwrap();
        trainer.push_batch(&batch(&[("m", 10.0, 10.0, 1.0)]));
        assert!(matches!(
            trainer.commit().unwrap_err(),
            SpireError::EmptyTrainingSet { metric: None }
        ));
    }

    #[test]
    fn thinning_notices_survive_clean_commits() {
        let config = TrainConfig {
            fit: crate::FitOptions {
                thin_front: true,
                max_front_size: 8,
                ..crate::FitOptions::default()
            },
            ..TrainConfig::default()
        };
        let mut trainer = OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).unwrap();
        // A descending staircase wide enough to trigger thinning, built
        // with exact I/P control: I = w/m, P = w/t with t = 10.
        let mut seed = SampleSet::new();
        seed.push(s("m", 10.0, 10.0, 10.0));
        seed.push(s("m", 10.0, 100.0, 10.0));
        for i in 0..30 {
            let p: f64 = 9.5 - f64::from(i) * 0.25;
            let intensity = 12.0 + f64::from(i) * 2.0;
            let w = 10.0 * p;
            let m = w / intensity;
            seed.push(s("m", 10.0, w, m));
        }
        trainer.push_batch(&seed);
        let outcome = trainer.commit().unwrap();
        assert_eq!(outcome.fit_notices.len(), 1);
        assert_matches_batch(&trainer, &outcome, &seed, &config);

        // A dominated no-op keeps the stored notice (batch still thins).
        let noop = batch(&[("m", 10.0, 1.0, 0.02)]); // I 50, P 0.1
        trainer.push_batch(&noop);
        let outcome = trainer.commit().unwrap();
        assert_eq!(outcome.update.unchanged, vec![MetricId::new("m")]);
        assert_eq!(outcome.fit_notices.len(), 1);
        let mut all = seed;
        all.merge(noop);
        assert_matches_batch(&trainer, &outcome, &all, &config);
    }

    #[test]
    fn threads_do_not_change_the_result() {
        let mut all = SampleSet::new();
        for metric in 0..8 {
            for i in 0..20 {
                let w = 5.0 + ((i * (metric + 3)) % 17) as f64;
                let m = (i % 4) as f64;
                all.push(s(&format!("metric_{metric}"), 10.0, w, m));
            }
        }
        let serial_cfg = TrainConfig {
            threads: 1,
            ..TrainConfig::default()
        };
        let auto_cfg = TrainConfig {
            threads: 0,
            ..TrainConfig::default()
        };
        let mut serial = OnlineTrainer::new(serial_cfg, TrainStrictness::Lenient).unwrap();
        let mut auto = OnlineTrainer::new(auto_cfg, TrainStrictness::Lenient).unwrap();
        serial.push_batch(&all);
        auto.push_batch(&all);
        let a = serial.commit().unwrap();
        let b = auto.commit().unwrap();
        assert_eq!(
            serial.model().unwrap().rooflines(),
            auto.model().unwrap().rooflines()
        );
        assert_eq!(a.report, b.report);
    }
}
