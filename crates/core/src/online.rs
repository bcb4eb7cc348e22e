//! Incremental model maintenance: the streaming counterpart of
//! [`SpireModel::train`].
//!
//! An [`OnlineTrainer`] accepts sample batches ([`OnlineTrainer::push_batch`])
//! and, on [`OnlineTrainer::commit`], produces a model **bit-identical** to a
//! batch retrain over every sample pushed so far — while refitting only the
//! metrics whose fit inputs actually changed. Three mechanisms make the
//! incremental path cheap without perturbing the result:
//!
//! * **Dirty-front tracking.** Each trained metric keeps the intermediate
//!   structures of its last fit (left hull, apex, un-thinned right-region
//!   Pareto front, infinite-intensity tail height). New samples are
//!   classified against them: a sample weakly dominated by the maintained
//!   front is an exact no-op (`Clean`, checked in O(log k)); a sample right
//!   of the apex that extends the front triggers a right-region-only refit
//!   (`Right`); anything that could touch the left hull or apex falls back
//!   to a full per-metric refit (`Full`).
//! * **Patchable prefix sums.** The right-region fitter's `x/x²/y/y²/xy`
//!   prefix sums (`PrefixSums`) are truncated and re-accumulated from the
//!   insertion point only, replaying the same additions in the same order —
//!   so a patched fit is bit-identical to a from-scratch one.
//! * **Exact-or-refit classification.** Every classification that avoids a
//!   refit is an *exact set-level no-op* (weak dominance, unchanged
//!   infinite-intensity maximum) or an order-free exact aggregate. Anything
//!   approximate — in particular samples at or left of the apex, whose
//!   interaction with the tolerance-based hull walk is not exactly
//!   predictable — conservatively refits. Equality with the batch path is
//!   therefore structural, not a tolerance.
//!
//! Commit mirrors the batch trainer's control flow exactly (skip ordering,
//! quarantine flattening, strict-mode first-error, budget and empty checks),
//! so reports, notices, and error behavior also match a batch retrain.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::ensemble::{
    QuarantinedMetric, SpireModel, TrainConfig, TrainQuarantineReason, TrainReport, TrainStrictness,
};
use crate::error::{Result, SpireError};
use crate::geometry::Point;
use crate::parallel;
use crate::roofline::{FitArtifacts, PiecewiseRoofline, PrefixSums, ThinningNotice};
use crate::sample::{MetricColumn, MetricId, SampleSet};

/// What the next commit must do for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Dirty {
    /// New samples (if any) were exact no-ops; only the recorded
    /// training-sample count needs patching.
    Clean,
    /// The right-region inputs (Pareto front or infinite-intensity height)
    /// changed; refit the right region from the maintained structures.
    Right,
    /// The fit must be recomputed from the full column.
    Full,
}

/// The maintained incremental state of one metric's fit.
#[derive(Debug, Clone)]
enum Tracker {
    /// Every sample so far had infinite intensity: the fit is a constant at
    /// the running maximum throughput.
    Constant { inf_height: f64 },
    /// A Graph-mode fit with a non-degenerate apex, maintainable in place.
    Fitted {
        /// Left-hull knots, origin to apex (ascending intensity).
        left: Vec<Point>,
        /// The hull's apex (also the last front point).
        apex: Point,
        /// The un-thinned right-region Pareto front (descending intensity,
        /// strictly increasing throughput, apex last).
        front: Vec<Point>,
        /// Prefix sums over `front`, kept in sync by patching.
        sums: PrefixSums,
        /// Running maximum throughput over infinite-intensity samples.
        inf_height: Option<f64>,
    },
    /// Not incrementally maintainable (Auto/Plateau right regions,
    /// degenerate fits, quarantined or never-fitted metrics): any new
    /// sample forces a full refit.
    Opaque,
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
    tracker: Tracker,
    /// The thinning notice the metric's current fit produced (kept across
    /// clean commits: an unchanged front implies an unchanged decision).
    notice: Option<ThinningNotice>,
}

impl Slot {
    fn pending() -> Self {
        Slot {
            status: SlotStatus::Pending,
            dirty: Dirty::Full,
            tracker: Tracker::Opaque,
            notice: None,
        }
    }
}

/// How a commit handled one metric that needed work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobClass {
    Full,
    Right,
    ConstantRaise,
}

/// One refit job, borrowing the trainer's immutable state.
enum JobKind<'a> {
    Full {
        column: &'a MetricColumn,
    },
    Right {
        left: &'a [Point],
        front: &'a [Point],
        sums: &'a PrefixSums,
        inf_height: Option<f64>,
        training_samples: usize,
    },
    ConstantRaise {
        height: f64,
        training_samples: usize,
    },
}

struct Job<'a> {
    metric: MetricId,
    class: JobClass,
    kind: JobKind<'a>,
}

/// What one [`OnlineTrainer::commit`] did, beyond the model itself.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct UpdateReport {
    /// Samples pushed since the previous commit.
    pub samples_added: usize,
    /// Metrics refitted from their full column, in metric-name order.
    pub refit_full: Vec<MetricId>,
    /// Metrics whose right region was patched in place (including constant
    /// fits whose height rose), in metric-name order.
    pub refit_right: Vec<MetricId>,
    /// Metrics that received samples which were exact no-ops, in
    /// metric-name order.
    pub unchanged: Vec<MetricId>,
}

impl UpdateReport {
    /// Metrics that received at least one sample since the last commit.
    pub fn metrics_touched(&self) -> usize {
        self.refit_full.len() + self.refit_right.len() + self.unchanged.len()
    }

    /// One-line summary, e.g.
    /// `+120 samples: 2 full refits, 3 right patches, 5 unchanged`.
    pub fn summary(&self) -> String {
        format!(
            "+{} samples: {} full refits, {} right patches, {} unchanged",
            self.samples_added,
            self.refit_full.len(),
            self.refit_right.len(),
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
        // or needs a job — in by_metric (name) order, like the batch path.
        let mut skipped: Vec<MetricId> = Vec::new();
        let mut jobs: Vec<Job<'_>> = Vec::new();
        for (metric, column) in self.samples.by_metric() {
            if column.len() < self.config.min_samples_per_metric {
                skipped.push(metric.clone());
                continue;
            }
            let slot = self.slots.get(metric);
            let (class, kind) = match slot {
                Some(Slot {
                    status: SlotStatus::Trained,
                    dirty: Dirty::Clean,
                    ..
                }) => continue,
                Some(Slot {
                    status: SlotStatus::Quarantined(_),
                    dirty: Dirty::Clean,
                    ..
                }) => continue,
                Some(Slot {
                    status: SlotStatus::Trained,
                    dirty: Dirty::Right,
                    tracker:
                        Tracker::Fitted {
                            left,
                            front,
                            sums,
                            inf_height,
                            ..
                        },
                    ..
                }) => (
                    JobClass::Right,
                    JobKind::Right {
                        left,
                        front,
                        sums,
                        inf_height: *inf_height,
                        training_samples: column.len(),
                    },
                ),
                Some(Slot {
                    status: SlotStatus::Trained,
                    dirty: Dirty::Right,
                    tracker: Tracker::Constant { inf_height },
                    ..
                }) => (
                    JobClass::ConstantRaise,
                    JobKind::ConstantRaise {
                        height: *inf_height,
                        training_samples: column.len(),
                    },
                ),
                _ => (JobClass::Full, JobKind::Full { column }),
            };
            jobs.push(Job {
                metric: metric.clone(),
                class,
                kind,
            });
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
        let config = &self.config;
        let fitted = parallel::map_catching(&jobs, self.config.threads, |job| run_job(job, config));

        // Phase 3: flatten the three failure channels per metric, exactly
        // like the batch path, into staged slot updates.
        type Staged = (
            MetricId,
            JobClass,
            std::result::Result<
                (
                    PiecewiseRoofline,
                    Option<ThinningNotice>,
                    Option<FitArtifacts>,
                ),
                QuarantinedMetric,
            >,
        );
        let mut staged: Vec<Staged> = Vec::with_capacity(jobs.len());
        for (job, outcome) in jobs.iter().zip(fitted) {
            let metric = job.metric.clone();
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
                Ok(ok) => staged.push((metric, job.class, Ok(ok))),
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
                        job.class,
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
                Some((_, _, Ok(_))) => metrics_trained += 1,
                Some((_, _, Err(q))) => quarantined.push(q.clone()),
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
        for (metric, class, result) in staged {
            match class {
                JobClass::Full => update.refit_full.push(metric.clone()),
                JobClass::Right | JobClass::ConstantRaise => {
                    update.refit_right.push(metric.clone())
                }
            }
            let slot = self.slots.get_mut(&metric).expect("job metrics have slots");
            match result {
                Ok((fit, notice, artifacts)) => {
                    slot.status = SlotStatus::Trained;
                    slot.notice = notice;
                    if let Some(artifacts) = artifacts {
                        slot.tracker = tracker_from_artifacts(artifacts);
                    }
                    moved.push((metric, Some(fit)));
                }
                Err(q) => {
                    slot.status = SlotStatus::Quarantined(q);
                    slot.tracker = Tracker::Opaque;
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
        // retrain would record the grown sample count. The refit lists are
        // in metric-name order, so membership is a binary search.
        for metric in &self.touched {
            if update.refit_full.binary_search(metric).is_ok()
                || update.refit_right.binary_search(metric).is_ok()
            {
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

/// Executes one refit job. Full jobs rerun the whole per-metric fit;
/// right/constant jobs rebuild only the parts the new samples changed,
/// bit-identically to the full fit on the same data.
fn run_job(
    job: &Job<'_>,
    config: &TrainConfig,
) -> Result<(
    PiecewiseRoofline,
    Option<ThinningNotice>,
    Option<FitArtifacts>,
)> {
    match &job.kind {
        JobKind::Full { column } => {
            let (fit, notice, artifacts) =
                PiecewiseRoofline::fit_column_seeded(column, &config.fit)?;
            Ok((fit, notice, Some(artifacts)))
        }
        JobKind::Right {
            left,
            front,
            sums,
            inf_height,
            training_samples,
        } => {
            let (fit, notice) = PiecewiseRoofline::refit_graph_right(
                job.metric.clone(),
                left,
                front,
                sums,
                *inf_height,
                *training_samples,
                &config.fit,
            );
            Ok((fit, notice, None))
        }
        JobKind::ConstantRaise {
            height,
            training_samples,
        } => Ok((
            PiecewiseRoofline::constant_roofline(job.metric.clone(), *height, *training_samples),
            None,
            None,
        )),
    }
}

/// Rebuilds a [`Tracker`] from the artifacts of a full fit.
fn tracker_from_artifacts(artifacts: FitArtifacts) -> Tracker {
    match artifacts {
        FitArtifacts::Constant { inf_height } => Tracker::Constant { inf_height },
        FitArtifacts::Graph {
            left,
            front,
            inf_height,
        } => {
            let apex = *left.last().expect("a hull always has an apex");
            let sums = PrefixSums::new(&front);
            Tracker::Fitted {
                left,
                apex,
                front,
                sums,
                inf_height,
            }
        }
        FitArtifacts::Opaque => Tracker::Opaque,
    }
}

/// Classifies one batch's rows for one metric against the maintained state,
/// escalating the slot's dirty flag and maintaining the front/heights.
///
/// Every branch that avoids `Full` is an *exact* no-op or an exact in-place
/// update (see the module docs); anything uncertain escalates.
fn classify_rows(slot: &mut Slot, intensities: &[f64], throughputs: &[f64]) {
    for (&x, &y) in intensities.iter().zip(throughputs) {
        if slot.dirty == Dirty::Full {
            // The tracker will be rebuilt from the refit; stop maintaining.
            return;
        }
        match &mut slot.tracker {
            Tracker::Opaque => {
                slot.dirty = Dirty::Full;
                return;
            }
            Tracker::Constant { inf_height } => {
                if x.is_finite() {
                    // The first finite-intensity sample turns a constant fit
                    // into a hull + front fit.
                    slot.dirty = Dirty::Full;
                    return;
                }
                // Non-finite intensity (∞ from M=0, or hostile NaN/−∞ rows
                // admitted by deserialization): the batch fit folds all of
                // them into the running maximum, which we replay exactly.
                let new = inf_height.max(y);
                if new.to_bits() != inf_height.to_bits() {
                    *inf_height = new;
                    slot.dirty = slot.dirty.max(Dirty::Right);
                }
            }
            Tracker::Fitted {
                apex,
                front,
                sums,
                inf_height,
                ..
            } => {
                if !x.is_finite() {
                    // Replay the batch fold over infinite-intensity rows.
                    let new = inf_height.map_or(y, |h| h.max(y));
                    let changed = match inf_height {
                        Some(h) => new.to_bits() != h.to_bits(),
                        None => true,
                    };
                    if changed {
                        *inf_height = Some(new);
                        slot.dirty = slot.dirty.max(Dirty::Right);
                    }
                    continue;
                }
                if !y.is_finite() {
                    // A finite-intensity row with a hostile throughput enters
                    // the hull machinery; refit rather than predict it.
                    slot.dirty = Dirty::Full;
                    return;
                }
                if y > apex.y || (y == apex.y && x > apex.x) {
                    // Lexicographically above the apex: the batch hull would
                    // pick a new apex, reshaping everything.
                    slot.dirty = Dirty::Full;
                    return;
                }
                if x <= apex.x {
                    // At or left of the apex: the sample could interact with
                    // the tolerance-based hull walk in ways no exact test
                    // predicts, so the clean/fast paths are not available.
                    slot.dirty = Dirty::Full;
                    return;
                }
                // Strictly right of the apex with y < apex.y: the hull and
                // apex are provably unchanged; only the Pareto front can
                // move. `front` is sorted by strictly descending x and
                // strictly increasing y.
                let j = front.partition_point(|q| q.x > x);
                let dominated = (j > 0 && front[j - 1].y >= y)
                    || (j < front.len() && front[j].x == x && front[j].y >= y);
                if !dominated {
                    // Remove the points the new sample dominates (a
                    // contiguous run at the insertion point) and splice it
                    // in; the result equals the batch Pareto sweep over the
                    // grown point set.
                    let mut end = j;
                    while end < front.len() && front[end].y <= y {
                        end += 1;
                    }
                    front.splice(j..end, [Point::new(x, y)]);
                    sums.patch(front, j);
                    slot.dirty = slot.dirty.max(Dirty::Right);
                }
            }
        }
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
        assert!(outcome.update.refit_right.is_empty());

        let mut all = seed;
        all.merge(update);
        assert_matches_batch(&trainer, &outcome, &all, &config);
    }

    #[test]
    fn front_extending_sample_patches_right_region_only() {
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
        assert_eq!(outcome.update.refit_right, vec![MetricId::new("m")]);
        assert!(outcome.update.refit_full.is_empty());

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
    fn constant_metric_raises_height_without_full_refit() {
        let config = TrainConfig::default();
        let mut trainer = OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).unwrap();
        // All-infinite-intensity metric (M = 0 throughout).
        let seed = batch(&[("c", 10.0, 10.0, 0.0), ("c", 10.0, 20.0, 0.0)]);
        trainer.push_batch(&seed);
        trainer.commit().unwrap();

        let update = batch(&[("c", 10.0, 30.0, 0.0)]); // higher constant
        trainer.push_batch(&update);
        let outcome = trainer.commit().unwrap();
        assert_eq!(outcome.update.refit_right, vec![MetricId::new("c")]);

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
