//! The SPIRE ensemble (paper Section III-C): one roofline per metric,
//! merged per-sample estimates, and the ensemble-wide minimum.
//!
//! Both training and estimation fan their per-metric work (one roofline
//! fit, or one Eq. (1) merge, per metric) across [`crate::parallel`]
//! worker threads when [`TrainConfig::threads`] allows. Results are
//! collected in metric-name order regardless of scheduling, so parallel
//! runs are bit-identical to serial ones.

use std::collections::BTreeMap;

use serde::de::Deserializer;
use serde::{Deserialize, Serialize};

use crate::error::{Result, SpireError};
use crate::parallel;
use crate::roofline::{FitOptions, PiecewiseRoofline, ThinningNotice};
#[cfg(test)]
use crate::sample::Sample;
use crate::sample::{MetricColumn, MetricId, SampleSet};

/// How per-sample estimates are merged into one value per metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MergeStrategy {
    /// The paper's Eq. (1): a time-weighted average over the samples'
    /// period lengths.
    #[default]
    TimeWeighted,
    /// An unweighted arithmetic mean (ablation baseline).
    Unweighted,
}

/// How per-metric averages are reduced to the ensemble-wide estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EnsembleAggregation {
    /// The paper's choice: the minimum over metrics, mirroring the
    /// `min(π, βI)` of a conventional roofline.
    #[default]
    Min,
    /// The mean over metrics (ablation baseline; loses the bounding
    /// interpretation but shows why `min` matters).
    Mean,
}

/// Configuration for [`SpireModel::train`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrainConfig {
    /// Options passed to every per-metric roofline fit.
    pub fit: FitOptions,
    /// Metrics with fewer training samples than this are skipped (with no
    /// error) rather than fitted from unrepresentative data. Must be at
    /// least 1.
    pub min_samples_per_metric: usize,
    /// How per-sample estimates merge into a per-metric value.
    pub merge: MergeStrategy,
    /// How per-metric values reduce to the ensemble estimate.
    pub aggregation: EnsembleAggregation,
    /// Worker threads for the per-metric fit/estimate fan-out: `0` (the
    /// default) uses [`parallel::available_parallelism`], `1` forces the
    /// serial path, anything else caps the worker count. Results are
    /// identical at every setting; this is purely a throughput knob.
    pub threads: usize,
    /// Fault-isolated training ([`SpireModel::train_with_report`]) tolerates
    /// quarantined metrics up to this fraction of the metrics it attempted
    /// to fit; beyond it, lenient training fails with
    /// [`SpireError::ErrorBudgetExceeded`]. Must lie in `[0, 1]`.
    /// Default `0.5`, mirroring the ingest layer's budget.
    pub metric_error_budget: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            fit: FitOptions::default(),
            min_samples_per_metric: 1,
            merge: MergeStrategy::TimeWeighted,
            aggregation: EnsembleAggregation::Min,
            threads: 0,
            metric_error_budget: 0.5,
        }
    }
}

/// Manual impl so configurations serialized before the `threads` and
/// `metric_error_budget` fields existed still deserialize (a missing
/// `threads` means `0` = auto; a missing budget means the default `0.5`).
impl<'de> Deserialize<'de> for TrainConfig {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Wire {
            fit: FitOptions,
            min_samples_per_metric: usize,
            merge: MergeStrategy,
            aggregation: EnsembleAggregation,
            threads: Option<usize>,
            metric_error_budget: Option<f64>,
        }
        let w = Wire::deserialize(deserializer)?;
        Ok(TrainConfig {
            fit: w.fit,
            min_samples_per_metric: w.min_samples_per_metric,
            merge: w.merge,
            aggregation: w.aggregation,
            threads: w.threads.unwrap_or(0),
            metric_error_budget: w.metric_error_budget.unwrap_or(0.5),
        })
    }
}

impl TrainConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::InvalidConfig`] if `min_samples_per_metric` is
    /// zero, `metric_error_budget` is outside `[0, 1]`, or the fit options
    /// are invalid.
    pub fn validate(&self) -> Result<()> {
        self.fit.validate()?;
        if self.min_samples_per_metric == 0 {
            return Err(SpireError::InvalidConfig {
                field: "min_samples_per_metric",
                reason: "must be at least 1".to_owned(),
            });
        }
        if !(0.0..=1.0).contains(&self.metric_error_budget) {
            return Err(SpireError::InvalidConfig {
                field: "metric_error_budget",
                reason: format!("must be within [0, 1], got {}", self.metric_error_budget),
            });
        }
        Ok(())
    }
}

/// Whether fault-isolated training tolerates quarantined metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrainStrictness {
    /// Quarantine failing metrics (up to
    /// [`TrainConfig::metric_error_budget`]) and train on the survivors.
    #[default]
    Lenient,
    /// Fail fast with the first failing metric's typed error.
    Strict,
}

/// Why a metric was quarantined during fault-isolated training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TrainQuarantineReason {
    /// The fit panicked; the panic was contained to this metric.
    FitPanicked,
    /// The fit returned a typed error.
    FitFailed,
    /// The fit returned a roofline that failed
    /// [`PiecewiseRoofline::validate`].
    InvariantViolation,
}

impl TrainQuarantineReason {
    /// Stable snake_case key for reports and tables.
    pub fn as_str(&self) -> &'static str {
        match self {
            TrainQuarantineReason::FitPanicked => "fit_panicked",
            TrainQuarantineReason::FitFailed => "fit_failed",
            TrainQuarantineReason::InvariantViolation => "invariant_violation",
        }
    }
}

/// One metric excluded from the ensemble by fault-isolated training.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedMetric {
    /// The metric that failed.
    pub metric: MetricId,
    /// Why it was quarantined.
    pub reason: TrainQuarantineReason,
    /// Human-readable detail: the fit error, panic message, or violated
    /// invariant.
    pub detail: String,
}

/// What fault-isolated training did: the training-side mirror of the
/// ingest layer's `IngestReport`.
///
/// Produced by [`SpireModel::train_with_report`]; persisted (as a summary)
/// into model snapshots so a degraded model stays honestly labeled.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// Distinct metrics in the training set.
    pub metrics_seen: usize,
    /// Metrics that produced a validated roofline.
    pub metrics_trained: usize,
    /// Metrics skipped for having fewer than
    /// [`TrainConfig::min_samples_per_metric`] samples (not a fault).
    pub metrics_skipped: usize,
    /// Metrics excluded by the quarantine, in metric-name order.
    pub quarantined: Vec<QuarantinedMetric>,
    /// The budget the run was held to
    /// ([`TrainConfig::metric_error_budget`]).
    pub error_budget: f64,
}

impl TrainReport {
    /// Quarantined metrics as a fraction of the metrics the run attempted
    /// to fit (seen minus skipped). `0.0` when nothing was attempted.
    pub fn quarantined_fraction(&self) -> f64 {
        let attempted = self.metrics_trained + self.quarantined.len();
        if attempted == 0 {
            0.0
        } else {
            self.quarantined.len() as f64 / attempted as f64
        }
    }

    /// Returns `true` if the quarantined fraction exceeds the budget.
    pub fn budget_exceeded(&self) -> bool {
        self.quarantined_fraction() > self.error_budget
    }

    /// Returns `true` if any metric was quarantined (the model is usable
    /// but degraded).
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty()
    }

    /// Quarantine counts grouped by reason key (see
    /// [`TrainQuarantineReason::as_str`]), in key order.
    pub fn by_reason(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for q in &self.quarantined {
            *counts.entry(q.reason.as_str()).or_insert(0) += 1;
        }
        counts
    }

    /// One-line summary, e.g.
    /// `trained 10/12 metrics (1 skipped, 1 quarantined: fit_panicked 1)`.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "trained {}/{} metrics ({} skipped, {} quarantined",
            self.metrics_trained,
            self.metrics_seen,
            self.metrics_skipped,
            self.quarantined.len()
        );
        if !self.quarantined.is_empty() {
            s.push_str(": ");
            let parts: Vec<String> = self
                .by_reason()
                .into_iter()
                .map(|(k, n)| format!("{k} {n}"))
                .collect();
            s.push_str(&parts.join(", "));
        }
        s.push(')');
        s
    }

    /// Multi-line report: the summary plus up to `max_details` quarantined
    /// metrics with their reasons.
    pub fn to_table(&self, max_details: usize) -> String {
        let mut out = self.summary();
        for q in self.quarantined.iter().take(max_details) {
            out.push_str(&format!(
                "\n  quarantined {} [{}]: {}",
                q.metric.as_str(),
                q.reason.as_str(),
                q.detail
            ));
        }
        if self.quarantined.len() > max_details {
            out.push_str(&format!(
                "\n  ... and {} more",
                self.quarantined.len() - max_details
            ));
        }
        out
    }
}

/// A trained model together with the [`TrainReport`] describing how the
/// training run degraded, if at all.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOutcome {
    /// The (possibly degraded) ensemble over the surviving metrics.
    pub model: SpireModel,
    /// What happened to every metric.
    pub report: TrainReport,
    /// Lossy front-thinning decisions the fits made (only with
    /// [`FitOptions::thin_front`]), in metric-name order. Lives here and
    /// not in [`TrainReport`] because the report is persisted inside
    /// snapshots, whose serialized bytes must stay stable.
    pub fit_notices: Vec<ThinningNotice>,
}

/// A metric's result from an earlier [`train_round`] that a later round
/// keeps without refitting (the online trainer's exact no-op metrics).
#[derive(Debug, Clone)]
pub(crate) enum Settled {
    /// The metric has a validated roofline; the notice its fit made.
    Trained(Option<ThinningNotice>),
    /// The metric's fit was quarantined.
    Quarantined(QuarantinedMetric),
}

/// One metric fitted by a [`train_round`]: the validated roofline, its
/// notice and the fit's extra output `A`, or the metric's quarantine.
pub(crate) type Fitted<A> =
    std::result::Result<(PiecewiseRoofline, Option<ThinningNotice>, A), QuarantinedMetric>;

/// What one [`train_round`] produced.
pub(crate) struct TrainRound<A> {
    /// Every metric the round fitted, in metric-name order.
    pub(crate) fitted: Vec<(MetricId, Fitted<A>)>,
    /// Metrics below the minimum sample count, in metric-name order.
    pub(crate) skipped: Vec<MetricId>,
    /// The report over every metric, settled or fitted.
    pub(crate) report: TrainReport,
    /// The notices of every trained metric, settled or fitted, in
    /// metric-name order.
    pub(crate) fit_notices: Vec<ThinningNotice>,
}

/// One fault-isolated training run (paper Fig. 3), shared by the batch
/// trainer and [`OnlineTrainer::commit`](crate::OnlineTrainer::commit).
///
/// Walks `samples.by_metric()` once. A metric below
/// [`TrainConfig::min_samples_per_metric`] is skipped; one for which
/// `settled` returns a result keeps it; every other metric is fitted by
/// `fit_fn` under [`parallel::map_catching`], its panic, error or invalid
/// roofline flattened into one typed error and quarantined (lenient) or
/// returned (strict, the first in metric-name order).
///
/// # Errors
///
/// In this order: [`SpireError::InvalidConfig`], then
/// [`SpireError::EmptyTrainingSet`] when `samples` is empty or no metric
/// reaches the minimum sample count, the first fit error in strict mode,
/// [`SpireError::ErrorBudgetExceeded`], and
/// [`SpireError::EmptyTrainingSet`] when no metric is trained.
pub(crate) fn train_round<'s, A, S, F>(
    samples: &SampleSet,
    config: &TrainConfig,
    strictness: TrainStrictness,
    settled: S,
    fit_fn: F,
) -> Result<TrainRound<A>>
where
    A: Send,
    S: Fn(&MetricId) -> Option<&'s Settled>,
    F: Fn(&MetricColumn, &FitOptions) -> Result<(PiecewiseRoofline, Option<ThinningNotice>, A)>
        + Sync,
{
    config.validate()?;
    if samples.is_empty() {
        return Err(SpireError::EmptyTrainingSet { metric: None });
    }
    let mut skipped = Vec::new();
    let mut attempted: Vec<(&MetricId, Option<&Settled>)> = Vec::new();
    let mut jobs: Vec<&MetricColumn> = Vec::new();
    for (metric, column) in samples.by_metric() {
        if column.len() < config.min_samples_per_metric {
            skipped.push(metric.clone());
            continue;
        }
        let kept = settled(metric);
        if kept.is_none() {
            jobs.push(column);
        }
        attempted.push((metric, kept));
    }
    if attempted.is_empty() {
        return Err(SpireError::EmptyTrainingSet { metric: None });
    }

    // Fan the independent per-metric fits across workers with per-item
    // panic containment; results come back in job (metric-name) order,
    // so the ensemble — and the quarantine order — is identical to a
    // serial build.
    let mut results =
        parallel::map_catching(&jobs, config.threads, |column| fit_fn(column, &config.fit))
            .into_iter();

    let mut fitted = Vec::with_capacity(jobs.len());
    let mut metrics_trained = 0;
    let mut quarantined: Vec<QuarantinedMetric> = Vec::new();
    let mut fit_notices: Vec<ThinningNotice> = Vec::new();
    for (metric, kept) in attempted {
        match kept {
            Some(Settled::Trained(notice)) => {
                metrics_trained += 1;
                fit_notices.extend(notice.clone());
                continue;
            }
            Some(Settled::Quarantined(q)) => {
                quarantined.push(q.clone());
                continue;
            }
            None => {}
        }
        // Flatten the three failure channels (panic, fit error, invariant
        // violation) into one typed error per metric.
        let checked = match results.next().expect("one result per job") {
            Err(message) => Err(SpireError::FitPanicked {
                metric: metric.to_string(),
                message,
            }),
            Ok(Err(e)) => Err(e),
            Ok(Ok((fit, notice, extra))) => fit.validate().map(|()| (fit, notice, extra)),
        };
        match checked {
            Ok((fit, notice, extra)) => {
                metrics_trained += 1;
                fit_notices.extend(notice.clone());
                fitted.push((metric.clone(), Ok((fit, notice, extra))));
            }
            Err(e) => {
                if strictness == TrainStrictness::Strict {
                    return Err(e);
                }
                let q = QuarantinedMetric {
                    metric: metric.clone(),
                    reason: match &e {
                        SpireError::FitPanicked { .. } => TrainQuarantineReason::FitPanicked,
                        SpireError::ModelInvariantViolation { .. } => {
                            TrainQuarantineReason::InvariantViolation
                        }
                        _ => TrainQuarantineReason::FitFailed,
                    },
                    detail: e.to_string(),
                };
                quarantined.push(q.clone());
                fitted.push((metric.clone(), Err(q)));
            }
        }
    }

    let report = TrainReport {
        metrics_seen: skipped.len() + metrics_trained + quarantined.len(),
        metrics_trained,
        metrics_skipped: skipped.len(),
        quarantined,
        error_budget: config.metric_error_budget,
    };
    if report.budget_exceeded() {
        return Err(SpireError::ErrorBudgetExceeded {
            quarantined: report.quarantined.len(),
            total: report.metrics_trained + report.quarantined.len(),
            budget: report.error_budget,
        });
    }
    if metrics_trained == 0 {
        // Every attempted metric was quarantined (possible only under a
        // budget of 1.0); a zero-metric ensemble cannot estimate, so the
        // run is refused as an empty training set.
        return Err(SpireError::EmptyTrainingSet { metric: None });
    }
    Ok(TrainRound {
        fitted,
        skipped,
        report,
        fit_notices,
    })
}

/// The merged estimate one metric produced for a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricEstimate {
    /// The merged (time-weighted by default) throughput estimate `P̄_x`.
    pub merged: f64,
    /// Number of workload samples that contributed.
    pub sample_count: usize,
    /// Total measurement time of the contributing samples.
    pub total_time: f64,
    /// Smallest single-sample estimate (diagnostic).
    pub min_sample_estimate: f64,
    /// Largest single-sample estimate (diagnostic).
    pub max_sample_estimate: f64,
}

/// A workload's throughput estimate from a trained [`SpireModel`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    per_metric: BTreeMap<MetricId, MetricEstimate>,
    throughput: f64,
    aggregation: EnsembleAggregation,
}

impl Estimate {
    /// The ensemble-wide throughput estimate (the minimum of the per-metric
    /// merged estimates under the default aggregation).
    pub fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Per-metric merged estimates, keyed by metric.
    pub fn per_metric(&self) -> &BTreeMap<MetricId, MetricEstimate> {
        &self.per_metric
    }

    /// Metrics ranked ascending by merged estimate: the head of this list
    /// holds the most likely bottlenecks.
    ///
    /// Ties are broken by metric name for determinism.
    pub fn ranked(&self) -> Vec<(&MetricId, &MetricEstimate)> {
        let mut v: Vec<_> = self.per_metric.iter().collect();
        v.sort_by(Self::rank_order);
        v
    }

    /// The `k` lowest-estimate metrics (the paper's "top metrics").
    ///
    /// Uses partial selection — `O(n + k log k)` rather than a full
    /// `O(n log n)` sort — since the typical query asks for the top ~15 of
    /// the paper's 424 metrics. The result and its tie-breaking (ascending
    /// merged estimate, then metric name) are identical to taking the
    /// first `k` entries of [`Estimate::ranked`].
    pub fn top_metrics(&self, k: usize) -> Vec<(&MetricId, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let mut v: Vec<_> = self.per_metric.iter().collect();
        if k < v.len() {
            v.select_nth_unstable_by(k - 1, Self::rank_order);
            v.truncate(k);
        }
        v.sort_by(Self::rank_order);
        v.into_iter().map(|(m, e)| (m, e.merged)).collect()
    }

    /// Total order used by [`Estimate::ranked`] and
    /// [`Estimate::top_metrics`]: ascending merged estimate, ties broken
    /// by metric name.
    fn rank_order(
        a: &(&MetricId, &MetricEstimate),
        b: &(&MetricId, &MetricEstimate),
    ) -> std::cmp::Ordering {
        a.1.merged.total_cmp(&b.1.merged).then_with(|| a.0.cmp(b.0))
    }

    /// The metric with the lowest merged estimate, if any.
    pub fn primary_bottleneck(&self) -> Option<(&MetricId, f64)> {
        self.top_metrics(1).into_iter().next()
    }

    /// Which aggregation produced [`Estimate::throughput`].
    pub fn aggregation(&self) -> EnsembleAggregation {
        self.aggregation
    }
}

/// A trained SPIRE model: an ensemble of per-metric rooflines.
///
/// The model has no serialized form of its own: a
/// [`ModelSnapshot`](crate::ModelSnapshot) is the one model file.
///
/// ```
/// use spire_core::{Sample, SampleSet, SpireModel, TrainConfig};
///
/// # fn main() -> Result<(), spire_core::SpireError> {
/// let mut training = SampleSet::new();
/// for (w, m) in [(10.0, 10.0), (20.0, 5.0), (30.0, 2.0)] {
///     training.push(Sample::new("stalls", 10.0, w, m)?);
///     training.push(Sample::new("misses", 10.0, w, m * 0.5)?);
/// }
/// let model = SpireModel::train(&training, TrainConfig::default())?;
///
/// let mut workload = SampleSet::new();
/// workload.push(Sample::new("stalls", 10.0, 12.0, 8.0)?);
/// workload.push(Sample::new("misses", 10.0, 12.0, 1.0)?);
/// let estimate = model.estimate(&workload)?;
/// assert!(estimate.throughput() <= 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpireModel {
    rooflines: BTreeMap<MetricId, PiecewiseRoofline>,
    config: TrainConfig,
    skipped_metrics: Vec<MetricId>,
}

impl SpireModel {
    /// Trains an ensemble from `samples`: groups them by metric and fits
    /// one roofline per metric (paper Fig. 3).
    ///
    /// Metrics with fewer than
    /// [`min_samples_per_metric`](TrainConfig::min_samples_per_metric)
    /// samples are recorded in [`SpireModel::skipped_metrics`] and excluded
    /// from the ensemble.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::EmptyTrainingSet`] if `samples` is empty or no
    /// metric reaches the minimum sample count, and
    /// [`SpireError::InvalidConfig`] for invalid configuration.
    pub fn train(samples: &SampleSet, config: TrainConfig) -> Result<Self> {
        Ok(Self::train_with_report(samples, config, TrainStrictness::Strict)?.model)
    }

    /// Fault-isolated training: like [`SpireModel::train`], but failing
    /// metrics are contained at the per-metric boundary instead of tearing
    /// the run down.
    ///
    /// Each fit runs under [`parallel::map_catching`], so a metric whose
    /// fit panics (or returns an error, or produces a roofline that fails
    /// [`PiecewiseRoofline::validate`]) is *quarantined* into the returned
    /// [`TrainReport`] and the ensemble is built from the survivors. In
    /// [`TrainStrictness::Strict`] mode the first failing metric's typed
    /// error is returned instead (panics become
    /// [`SpireError::FitPanicked`]).
    ///
    /// # Errors
    ///
    /// Everything [`SpireModel::train`] returns, plus — in lenient mode —
    /// [`SpireError::ErrorBudgetExceeded`] when the quarantined fraction
    /// exceeds [`TrainConfig::metric_error_budget`], and
    /// [`SpireError::EmptyTrainingSet`] (naming no metric) when every
    /// attempted metric is quarantined, which a budget of `1.0` allows.
    pub fn train_with_report(
        samples: &SampleSet,
        config: TrainConfig,
        strictness: TrainStrictness,
    ) -> Result<TrainOutcome> {
        Self::train_with_fit(samples, config, strictness, |column, options| {
            let (fit, notice, _) = PiecewiseRoofline::fit_slices(
                column.metric().clone(),
                column.intensities(),
                column.throughputs(),
                options,
            )?;
            Ok((fit, notice, ()))
        })
    }

    /// [`SpireModel::train_with_report`] with a caller-supplied fit
    /// function in place of [`PiecewiseRoofline::fit_column`]: the same
    /// skip rule, fault isolation, strictness, budget and errors. The
    /// fit reports no [`ThinningNotice`], so
    /// [`TrainOutcome::fit_notices`] is empty.
    ///
    /// This is the seam for custom fitters and for the fault-injection
    /// harness ([`crate::fault`]), which substitutes fits that panic or
    /// err on chosen metrics to drive every quarantine path
    /// deterministically.
    pub fn train_with_report_using<F>(
        samples: &SampleSet,
        config: TrainConfig,
        strictness: TrainStrictness,
        fit_fn: F,
    ) -> Result<TrainOutcome>
    where
        F: Fn(&MetricColumn, &FitOptions) -> Result<PiecewiseRoofline> + Sync,
    {
        Self::train_with_fit(samples, config, strictness, |column, options| {
            fit_fn(column, options).map(|fit| (fit, None, ()))
        })
    }

    /// One [`train_round`] with nothing settled, built into a model.
    fn train_with_fit<F>(
        samples: &SampleSet,
        config: TrainConfig,
        strictness: TrainStrictness,
        fit_fn: F,
    ) -> Result<TrainOutcome>
    where
        F: Fn(
                &MetricColumn,
                &FitOptions,
            ) -> Result<(PiecewiseRoofline, Option<ThinningNotice>, ())>
            + Sync,
    {
        let round = train_round(samples, &config, strictness, |_| None, fit_fn)?;
        let rooflines = round
            .fitted
            .into_iter()
            .filter_map(|(metric, fitted)| Some((metric, fitted.ok()?.0)))
            .collect();
        Ok(TrainOutcome {
            model: SpireModel {
                rooflines,
                config,
                skipped_metrics: round.skipped,
            },
            report: round.report,
            fit_notices: round.fit_notices,
        })
    }

    /// Reassembles a model from trained parts (the snapshot loader's
    /// constructor).
    pub(crate) fn from_parts(
        rooflines: BTreeMap<MetricId, PiecewiseRoofline>,
        config: TrainConfig,
        skipped_metrics: Vec<MetricId>,
    ) -> Self {
        SpireModel {
            rooflines,
            config,
            skipped_metrics,
        }
    }

    /// Mutable access to the per-metric rooflines, for the online
    /// maintenance layer's in-place patching.
    pub(crate) fn rooflines_mut(&mut self) -> &mut BTreeMap<MetricId, PiecewiseRoofline> {
        &mut self.rooflines
    }

    /// Replaces the skipped-metric list (online maintenance recomputes it
    /// each commit).
    pub(crate) fn set_skipped_metrics(&mut self, skipped_metrics: Vec<MetricId>) {
        self.skipped_metrics = skipped_metrics;
    }

    /// Estimates a workload's maximum attainable throughput (paper Fig. 4):
    /// per-sample roofline estimates, merged per metric (Eq. 1), reduced
    /// over metrics.
    ///
    /// Workload metrics the model was not trained on are ignored; metrics
    /// in the model but absent from the workload contribute nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::EmptyWorkload`] if `workload` has no samples,
    /// [`SpireError::NoCommonMetrics`] if no workload sample belongs to
    /// a trained metric, and [`SpireError::DegenerateWeights`] if a
    /// metric's merge weights sum to zero or NaN (possible only for
    /// workload data that bypassed [`Sample::new`](crate::Sample::new)
    /// validation, e.g. via deserialization).
    pub fn estimate(&self, workload: &SampleSet) -> Result<Estimate> {
        self.estimate_batch(&[workload])
            .pop()
            .expect("estimate_batch returns one result per workload")
    }

    /// Estimates many workloads in one coalesced pass, returning one
    /// result per workload **in input order**, each bit-identical to
    /// calling [`estimate`](SpireModel::estimate) on that workload alone
    /// (`estimate` is this method on a batch of one).
    ///
    /// This is the serving hot path: concurrently-arriving requests for
    /// the same model share one pass. Columns are grouped by metric across
    /// the batch so each metric is one [`parallel::map`] work item; within
    /// it every workload's column is evaluated sample by sample with
    /// [`PiecewiseRoofline::estimate`] and merged (paper Eq. 1) in its own
    /// sample order, so a result never depends on which other workloads
    /// share the batch.
    ///
    /// Per-workload errors ([`SpireError::EmptyWorkload`],
    /// [`SpireError::NoCommonMetrics`], [`SpireError::DegenerateWeights`])
    /// land in that workload's slot and never affect neighboring
    /// workloads in the batch. Emptiness is checked first, then common
    /// metrics, then each metric's merge weights in column order, and the
    /// first failure is reported.
    pub fn estimate_batch(&self, workloads: &[&SampleSet]) -> Vec<Result<Estimate>> {
        // Classify each workload up front and group its routed columns by
        // metric across the whole batch.
        let mut results: Vec<Option<Result<Estimate>>> = Vec::with_capacity(workloads.len());
        let mut metric_order: Vec<Vec<&MetricId>> = Vec::with_capacity(workloads.len());
        let mut groups: BTreeMap<&MetricId, Vec<(usize, &MetricColumn)>> = BTreeMap::new();
        for (wi, workload) in workloads.iter().enumerate() {
            if workload.is_empty() {
                results.push(Some(Err(SpireError::EmptyWorkload)));
                metric_order.push(Vec::new());
                continue;
            }
            let mut order = Vec::new();
            for (metric, column) in workload.by_metric() {
                if let Some((metric, _)) = self.rooflines.get_key_value(metric) {
                    groups.entry(metric).or_default().push((wi, column));
                    order.push(metric);
                }
            }
            results.push(if order.is_empty() {
                Some(Err(SpireError::NoCommonMetrics))
            } else {
                None
            });
            metric_order.push(order);
        }

        let merge = self.config.merge;
        /// One parallel work item: a metric, its roofline, and every
        /// (workload index, column) pair that needs it.
        type MetricGroup<'a> = (
            &'a MetricId,
            &'a PiecewiseRoofline,
            Vec<(usize, &'a MetricColumn)>,
        );
        let group_list: Vec<MetricGroup> = groups
            .into_iter()
            .map(|(metric, cols)| (metric, &self.rooflines[metric], cols))
            .collect();
        let merged: Vec<Vec<(usize, Result<MetricEstimate>)>> =
            parallel::map(&group_list, self.config.threads, |(_, roofline, cols)| {
                cols.iter()
                    .map(|(wi, column)| (*wi, merge_estimates(roofline, column, merge)))
                    .collect()
            });

        // Scatter metric results back to their workloads, then assemble
        // each Estimate, reporting the first failing metric in column
        // order.
        let mut per_workload: Vec<BTreeMap<&MetricId, Result<MetricEstimate>>> =
            workloads.iter().map(|_| BTreeMap::new()).collect();
        for ((metric, _, _), outs) in group_list.iter().zip(merged) {
            for (wi, result) in outs {
                per_workload[wi].insert(*metric, result);
            }
        }
        results
            .into_iter()
            .enumerate()
            .map(|(wi, pre)| {
                if let Some(decided) = pre {
                    return decided;
                }
                let mut per_metric = BTreeMap::new();
                for metric in &metric_order[wi] {
                    let result = per_workload[wi]
                        .remove(*metric)
                        .expect("every routed metric was merged");
                    per_metric.insert((*metric).clone(), result?);
                }
                let throughput = match self.config.aggregation {
                    EnsembleAggregation::Min => per_metric
                        .values()
                        .map(|e| e.merged)
                        .fold(f64::INFINITY, f64::min),
                    EnsembleAggregation::Mean => {
                        per_metric.values().map(|e| e.merged).sum::<f64>() / per_metric.len() as f64
                    }
                };
                Ok(Estimate {
                    per_metric,
                    throughput,
                    aggregation: self.config.aggregation,
                })
            })
            .collect()
    }

    /// The trained per-metric rooflines.
    pub fn rooflines(&self) -> &BTreeMap<MetricId, PiecewiseRoofline> {
        &self.rooflines
    }

    /// The roofline for one metric, if trained.
    pub fn roofline(&self, metric: &MetricId) -> Option<&PiecewiseRoofline> {
        self.rooflines.get(metric)
    }

    /// Metrics that were skipped during training for having too few
    /// samples.
    pub fn skipped_metrics(&self) -> &[MetricId] {
        &self.skipped_metrics
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Overrides the thread count used by [`SpireModel::estimate`]
    /// (0 = auto). Threading is purely a throughput knob — results are
    /// identical for every setting — so changing it after training is
    /// always safe.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    /// Number of metrics in the ensemble.
    pub fn metric_count(&self) -> usize {
        self.rooflines.len()
    }
}

/// Evaluates each sample of one workload column on its metric's roofline
/// and merges the per-sample estimates (paper Eq. 1).
fn merge_estimates(
    roofline: &PiecewiseRoofline,
    column: &MetricColumn,
    merge: MergeStrategy,
) -> Result<MetricEstimate> {
    let mut weighted_sum = 0.0;
    let mut weight_total = 0.0;
    let mut min_e = f64::INFINITY;
    let mut max_e = f64::NEG_INFINITY;
    let mut total_time = 0.0;
    // The strategy dispatch is hoisted out of the loop so each arm is a
    // tight loop. Bit-identity constraints (pinned by the
    // pipeline-equivalence and golden suites): the sums stay *sequential
    // in sample order* — float addition does not reassociate, so a
    // chunked/pairwise reduction would change results — and the
    // unweighted arm's `weighted_sum += e` is exactly the former
    // `1.0 * e` (multiplication by 1.0 is exact for every f64, NaN
    // payloads included).
    match merge {
        MergeStrategy::TimeWeighted => {
            for (&x, &time) in column.intensities().iter().zip(column.times()) {
                let e = roofline.estimate(x);
                weighted_sum += time * e;
                weight_total += time;
                min_e = min_e.min(e);
                max_e = max_e.max(e);
                total_time += time;
            }
        }
        MergeStrategy::Unweighted => {
            for (&x, &time) in column.intensities().iter().zip(column.times()) {
                let e = roofline.estimate(x);
                weighted_sum += e;
                weight_total += 1.0;
                min_e = min_e.min(e);
                max_e = max_e.max(e);
                total_time += time;
            }
        }
    }
    // `weight_total` catches degenerate TimeWeighted merges; `total_time`
    // additionally catches all-zero (or NaN) measurement times under the
    // Unweighted strategy, where every sample still gets weight 1. Valid
    // samples always have `time > 0`, so this only fires for data that
    // bypassed validation, such as a column file's raw columns.
    if weight_total <= 0.0 || weight_total.is_nan() || total_time <= 0.0 || total_time.is_nan() {
        return Err(SpireError::DegenerateWeights {
            metric: column.metric().to_string(),
        });
    }
    Ok(MetricEstimate {
        merged: weighted_sum / weight_total,
        sample_count: column.len(),
        total_time,
        min_sample_estimate: min_e,
        max_sample_estimate: max_e,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(metric: &str, t: f64, w: f64, m: f64) -> Sample {
        Sample::new(metric, t, w, m).unwrap()
    }

    fn training() -> SampleSet {
        let mut set = SampleSet::new();
        // "stalls": throughput rises with instructions-per-stall.
        set.push(s("stalls", 10.0, 10.0, 10.0)); // I 1, P 1
        set.push(s("stalls", 10.0, 20.0, 5.0)); // I 4, P 2
        set.push(s("stalls", 10.0, 30.0, 3.0)); // I 10, P 3
                                                // "hits": positively associated; throughput falls as hits thin out.
        set.push(s("hits", 10.0, 30.0, 30.0)); // I 1, P 3
        set.push(s("hits", 10.0, 20.0, 4.0)); // I 5, P 2
        set.push(s("hits", 10.0, 10.0, 1.0)); // I 10, P 1
        set
    }

    #[test]
    fn train_groups_by_metric() {
        let model = SpireModel::train(&training(), TrainConfig::default()).unwrap();
        assert_eq!(model.metric_count(), 2);
        assert!(model.roofline(&MetricId::new("stalls")).is_some());
        assert!(model.roofline(&MetricId::new("hits")).is_some());
    }

    #[test]
    fn empty_training_set_errors() {
        let err = SpireModel::train(&SampleSet::new(), TrainConfig::default()).unwrap_err();
        assert!(matches!(err, SpireError::EmptyTrainingSet { metric: None }));
    }

    #[test]
    fn min_samples_filter_skips_sparse_metrics() {
        let mut set = training();
        set.push(s("rare", 10.0, 10.0, 1.0));
        let config = TrainConfig {
            min_samples_per_metric: 2,
            ..TrainConfig::default()
        };
        let model = SpireModel::train(&set, config).unwrap();
        assert_eq!(model.metric_count(), 2);
        assert_eq!(model.skipped_metrics(), [MetricId::new("rare")]);
    }

    #[test]
    fn estimate_is_min_of_per_metric_averages() {
        let model = SpireModel::train(&training(), TrainConfig::default()).unwrap();
        let mut wl = SampleSet::new();
        wl.push(s("stalls", 10.0, 20.0, 5.0)); // I 4 -> ~2
        wl.push(s("hits", 10.0, 20.0, 20.0)); // I 1 -> ~3
        let est = model.estimate(&wl).unwrap();
        let per: Vec<f64> = est.per_metric().values().map(|e| e.merged).collect();
        let min = per.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(est.throughput(), min);
    }

    #[test]
    fn time_weighted_average_matches_eq_1() {
        let model = SpireModel::train(&training(), TrainConfig::default()).unwrap();
        // Two stalls samples with different periods: one at I=1 (est 1) for
        // 30 time units, one at I=10 (est 3) for 10 time units.
        let mut wl = SampleSet::new();
        wl.push(s("stalls", 30.0, 30.0, 30.0)); // I 1
        wl.push(s("stalls", 10.0, 100.0, 10.0)); // I 10
        let est = model.estimate(&wl).unwrap();
        let m = &est.per_metric()[&MetricId::new("stalls")];
        // (30*1 + 10*3) / 40 = 1.5
        assert!((m.merged - 1.5).abs() < 1e-9, "got {}", m.merged);
        assert_eq!(m.sample_count, 2);
        assert_eq!(m.total_time, 40.0);
    }

    #[test]
    fn unweighted_merge_ignores_period_lengths() {
        let config = TrainConfig {
            merge: MergeStrategy::Unweighted,
            ..TrainConfig::default()
        };
        let model = SpireModel::train(&training(), config).unwrap();
        let mut wl = SampleSet::new();
        wl.push(s("stalls", 30.0, 30.0, 30.0)); // I 1 -> 1
        wl.push(s("stalls", 10.0, 100.0, 10.0)); // I 10 -> 3
        let est = model.estimate(&wl).unwrap();
        let m = &est.per_metric()[&MetricId::new("stalls")];
        assert!((m.merged - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mean_aggregation_averages_metrics() {
        let config = TrainConfig {
            aggregation: EnsembleAggregation::Mean,
            ..TrainConfig::default()
        };
        let model = SpireModel::train(&training(), config).unwrap();
        let mut wl = SampleSet::new();
        wl.push(s("stalls", 10.0, 20.0, 5.0));
        wl.push(s("hits", 10.0, 20.0, 20.0));
        let est = model.estimate(&wl).unwrap();
        let per: Vec<f64> = est.per_metric().values().map(|e| e.merged).collect();
        let mean = per.iter().sum::<f64>() / per.len() as f64;
        assert!((est.throughput() - mean).abs() < 1e-12);
    }

    #[test]
    fn unknown_workload_metrics_are_ignored() {
        let model = SpireModel::train(&training(), TrainConfig::default()).unwrap();
        let mut wl = SampleSet::new();
        wl.push(s("stalls", 10.0, 20.0, 5.0));
        wl.push(s("untrained", 10.0, 20.0, 5.0));
        let est = model.estimate(&wl).unwrap();
        assert_eq!(est.per_metric().len(), 1);
    }

    #[test]
    fn no_common_metrics_errors() {
        let model = SpireModel::train(&training(), TrainConfig::default()).unwrap();
        let mut wl = SampleSet::new();
        wl.push(s("untrained", 10.0, 20.0, 5.0));
        assert!(matches!(
            model.estimate(&wl).unwrap_err(),
            SpireError::NoCommonMetrics
        ));
    }

    #[test]
    fn estimate_batch_is_bit_identical_to_per_workload_estimate() {
        let model = SpireModel::train(&training(), TrainConfig::default()).unwrap();
        // A mixed batch: overlapping metrics (so columns coalesce), an
        // empty workload, and a no-common-metrics workload interleaved
        // with valid ones.
        let mut w1 = SampleSet::new();
        w1.push(s("stalls", 10.0, 20.0, 5.0));
        w1.push(s("hits", 10.0, 20.0, 20.0));
        let mut w2 = SampleSet::new();
        w2.push(s("stalls", 30.0, 30.0, 30.0));
        w2.push(s("stalls", 10.0, 100.0, 10.0));
        let empty = SampleSet::new();
        let mut foreign = SampleSet::new();
        foreign.push(s("untrained", 10.0, 20.0, 5.0));
        let mut w3 = SampleSet::new();
        w3.push(s("hits", 5.0, 40.0, 8.0));

        let batch = [&w1, &empty, &w2, &foreign, &w3];
        for threads in [1usize, 0] {
            let mut model = model.clone();
            model.set_threads(threads);
            let batched = model.estimate_batch(&batch);
            assert_eq!(batched.len(), batch.len());
            for (wl, got) in batch.iter().zip(&batched) {
                match model.estimate(wl) {
                    Ok(direct) => {
                        let got = got.as_ref().expect("batch slot should succeed");
                        assert_eq!(got.throughput().to_bits(), direct.throughput().to_bits());
                        assert_eq!(got.per_metric(), direct.per_metric());
                    }
                    Err(expected) => {
                        let got = got.as_ref().expect_err("batch slot should fail");
                        assert_eq!(got.to_string(), expected.to_string());
                    }
                }
            }
        }
    }

    #[test]
    fn estimate_batch_isolates_degenerate_workloads() {
        let model = SpireModel::train(&training(), TrainConfig::default()).unwrap();
        // A workload with all-zero times (bypassing Sample::new validation)
        // fails with DegenerateWeights without poisoning its batch
        // neighbors — even though its column was coalesced with theirs.
        let mut poisoned = SampleSet::new();
        poisoned.push_unchecked("stalls".into(), 0.0, 0.0, 1.0);
        let mut healthy = SampleSet::new();
        healthy.push(s("stalls", 10.0, 20.0, 5.0));
        let out = model.estimate_batch(&[&poisoned, &healthy]);
        assert!(matches!(
            out[0].as_ref().unwrap_err(),
            SpireError::DegenerateWeights { .. }
        ));
        let direct = model.estimate(&healthy).unwrap();
        let got = out[1].as_ref().unwrap();
        assert_eq!(got.throughput().to_bits(), direct.throughput().to_bits());
    }

    #[test]
    fn empty_workload_errors() {
        let model = SpireModel::train(&training(), TrainConfig::default()).unwrap();
        assert!(matches!(
            model.estimate(&SampleSet::new()).unwrap_err(),
            SpireError::EmptyWorkload
        ));
    }

    #[test]
    fn ranking_is_ascending_and_deterministic() {
        let model = SpireModel::train(&training(), TrainConfig::default()).unwrap();
        let mut wl = SampleSet::new();
        wl.push(s("stalls", 10.0, 10.0, 10.0)); // I 1 -> 1
        wl.push(s("hits", 10.0, 30.0, 30.0)); // I 1 -> 3
        let est = model.estimate(&wl).unwrap();
        let ranked = est.ranked();
        assert_eq!(ranked[0].0.as_str(), "stalls");
        assert!(ranked[0].1.merged <= ranked[1].1.merged);
        assert_eq!(est.primary_bottleneck().unwrap().0.as_str(), "stalls");
    }

    #[test]
    fn zero_min_samples_config_is_rejected() {
        let config = TrainConfig {
            min_samples_per_metric: 0,
            ..TrainConfig::default()
        };
        assert!(SpireModel::train(&training(), config).is_err());
    }

    #[test]
    fn parallel_training_is_identical_to_serial() {
        // 12 metrics x 40 samples, varied shapes; any thread count must
        // produce the same ensemble and the same estimates, bit for bit.
        let mut set = SampleSet::new();
        for m in 0..12 {
            for i in 0..40 {
                let t = 10.0 + (i % 7) as f64;
                let w = 5.0 + ((i * m) % 13) as f64;
                let delta = (i % 5) as f64; // includes M = 0 rows
                set.push(s(&format!("metric_{m:02}"), t, w, delta));
            }
        }
        let serial_cfg = TrainConfig {
            threads: 1,
            ..TrainConfig::default()
        };
        let serial = SpireModel::train(&set, serial_cfg).unwrap();
        let wl: SampleSet = set.clone();
        let serial_est = serial.estimate(&wl).unwrap();
        for threads in [0, 2, 3, 8] {
            let cfg = TrainConfig {
                threads,
                ..TrainConfig::default()
            };
            let par = SpireModel::train(&set, cfg).unwrap();
            assert_eq!(serial.rooflines(), par.rooflines(), "threads = {threads}");
            let par_est = par.estimate(&wl).unwrap();
            assert_eq!(serial_est.per_metric(), par_est.per_metric());
            assert_eq!(serial_est.throughput(), par_est.throughput());
        }
    }

    #[test]
    fn zero_weight_workload_is_a_typed_error() {
        let model = SpireModel::train(&training(), TrainConfig::default()).unwrap();
        // Zero times cannot be built through Sample::new or JSON; raw
        // columns bypass that validation, which is exactly the hole the
        // typed error guards.
        let mut wl = SampleSet::new();
        wl.push_unchecked("stalls".into(), 0.0, 1.0, 1.0);
        match model.estimate(&wl).unwrap_err() {
            SpireError::DegenerateWeights { metric } => assert_eq!(metric, "stalls"),
            other => panic!("expected DegenerateWeights, got {other:?}"),
        }
    }

    #[test]
    fn top_metrics_matches_ranked_prefix_with_ties() {
        // Many metrics, several with identical merged estimates, so the
        // partial selection must reproduce the full sort's name
        // tie-breaking exactly.
        let mut set = SampleSet::new();
        for m in 0..20 {
            // Metrics come in tie groups of four: same samples -> same fit
            // -> same merged estimate.
            let group = m / 4;
            for i in 0..5 {
                let w = 10.0 + (group * 7 + i) as f64;
                set.push(s(&format!("tied_{m:02}"), 10.0, w, 2.0));
            }
        }
        let model = SpireModel::train(&set, TrainConfig::default()).unwrap();
        let est = model.estimate(&set).unwrap();
        let ranked = est.ranked();
        for k in [0, 1, 3, 4, 7, 19, 20, 25] {
            let top = est.top_metrics(k);
            assert_eq!(top.len(), k.min(ranked.len()));
            for (got, want) in top.iter().zip(&ranked) {
                assert_eq!(got.0, want.0, "k = {k}");
                assert_eq!(got.1, want.1.merged, "k = {k}");
            }
        }
    }

    #[test]
    fn train_config_without_threads_field_deserializes_to_auto() {
        // Configurations persisted before the `threads` knob existed (which
        // also predate `fit.thin_front`, and carry the old default front
        // cap of 256 from when thinning was unconditional).
        let json = serde_json::to_string(&TrainConfig::default()).unwrap();
        assert!(json.contains("\"threads\""));
        let legacy = r#"{"fit":{"right_fit":"Graph","auto_trend_threshold":-0.1,
            "max_front_size":256},"min_samples_per_metric":1,
            "merge":"TimeWeighted","aggregation":"Min"}"#;
        let cfg: TrainConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(cfg.threads, 0);
        assert_eq!(cfg.metric_error_budget, 0.5);
        // The stored fit options win over current defaults: the persisted
        // front cap is preserved and thinning stays off.
        assert_eq!(cfg.fit.max_front_size, 256);
        assert!(!cfg.fit.thin_front);
        assert_eq!(
            cfg,
            TrainConfig {
                fit: FitOptions {
                    max_front_size: 256,
                    ..FitOptions::default()
                },
                ..TrainConfig::default()
            }
        );
    }

    /// A fit function that panics on metrics whose name contains "poison".
    fn poisoned_fit(column: &MetricColumn, fit: &FitOptions) -> Result<PiecewiseRoofline> {
        if column.metric().as_str().contains("poison") {
            panic!("injected fit panic for {}", column.metric());
        }
        PiecewiseRoofline::fit_column(column, fit)
    }

    fn training_with_poison() -> SampleSet {
        let mut set = training();
        set.push(s("poisoned", 10.0, 10.0, 10.0));
        set.push(s("poisoned", 10.0, 20.0, 5.0));
        set
    }

    #[test]
    fn lenient_training_quarantines_panicking_metric() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        let outcome = SpireModel::train_with_report_using(
            &training_with_poison(),
            TrainConfig::default(),
            TrainStrictness::Lenient,
            poisoned_fit,
        );
        std::panic::set_hook(hook);
        let outcome = outcome.unwrap();
        assert_eq!(outcome.model.metric_count(), 2);
        assert!(outcome.model.roofline(&MetricId::new("poisoned")).is_none());
        assert_eq!(outcome.report.metrics_seen, 3);
        assert_eq!(outcome.report.metrics_trained, 2);
        assert_eq!(outcome.report.quarantined.len(), 1);
        let q = &outcome.report.quarantined[0];
        assert_eq!(q.metric.as_str(), "poisoned");
        assert_eq!(q.reason, TrainQuarantineReason::FitPanicked);
        assert!(q.detail.contains("injected fit panic"));
        assert!(outcome.report.is_degraded());
        assert!(!outcome.report.budget_exceeded());
        assert!(outcome.report.summary().contains("fit_panicked 1"));
        // The degraded model still estimates over the survivors.
        let mut wl = SampleSet::new();
        wl.push(s("stalls", 10.0, 20.0, 5.0));
        assert!(outcome.model.estimate(&wl).is_ok());
    }

    #[test]
    fn strict_training_fails_fast_on_panicking_metric() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = SpireModel::train_with_report_using(
            &training_with_poison(),
            TrainConfig::default(),
            TrainStrictness::Strict,
            poisoned_fit,
        )
        .unwrap_err();
        std::panic::set_hook(hook);
        match err {
            SpireError::FitPanicked { metric, message } => {
                assert_eq!(metric, "poisoned");
                assert!(message.contains("injected fit panic"));
            }
            other => panic!("expected FitPanicked, got {other:?}"),
        }
    }

    #[test]
    fn lenient_training_enforces_metric_error_budget() {
        // Two of three metrics poisoned with a budget of 0.5: 2/3 > 0.5.
        let mut set = training();
        set.push(s("poison_a", 10.0, 10.0, 10.0));
        set.push(s("poison_b", 10.0, 10.0, 10.0));
        // Drop "hits" so only stalls survives: seen 3 fitted, 2 quarantined.
        let mut thin = SampleSet::new();
        for smp in set.iter().filter(|smp| smp.metric().as_str() != "hits") {
            thin.push(smp);
        }
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = SpireModel::train_with_report_using(
            &thin,
            TrainConfig::default(),
            TrainStrictness::Lenient,
            poisoned_fit,
        )
        .unwrap_err();
        std::panic::set_hook(hook);
        match err {
            SpireError::ErrorBudgetExceeded {
                quarantined,
                total,
                budget,
            } => {
                assert_eq!((quarantined, total), (2, 3));
                assert!((budget - 0.5).abs() < 1e-12);
            }
            other => panic!("expected ErrorBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn every_metric_quarantined_is_an_empty_training_set() {
        // A budget of 1.0 admits quarantining every metric; the run is then
        // refused as an empty training set that names no metric.
        let config = TrainConfig {
            metric_error_budget: 1.0,
            ..TrainConfig::default()
        };
        let err = crate::fault::silence_panics(|| {
            SpireModel::train_with_report_using(
                &training(),
                config,
                TrainStrictness::Lenient,
                crate::fault::panicking_fit(""),
            )
        })
        .unwrap_err();
        assert_eq!(err, SpireError::EmptyTrainingSet { metric: None });
    }

    #[test]
    fn train_with_report_matches_train_on_clean_data() {
        let outcome = SpireModel::train_with_report(
            &training(),
            TrainConfig::default(),
            TrainStrictness::Lenient,
        )
        .unwrap();
        let plain = SpireModel::train(&training(), TrainConfig::default()).unwrap();
        assert_eq!(outcome.model, plain);
        assert!(!outcome.report.is_degraded());
        assert_eq!(outcome.report.metrics_trained, 2);
        assert_eq!(outcome.report.quarantined_fraction(), 0.0);
    }

    #[test]
    fn train_rejects_out_of_range_error_budget() {
        let config = TrainConfig {
            metric_error_budget: 1.5,
            ..TrainConfig::default()
        };
        assert!(matches!(
            SpireModel::train(&training(), config).unwrap_err(),
            SpireError::InvalidConfig {
                field: "metric_error_budget",
                ..
            }
        ));
    }

    #[test]
    fn train_report_serde_round_trip() {
        let report = TrainReport {
            metrics_seen: 5,
            metrics_trained: 3,
            metrics_skipped: 1,
            quarantined: vec![QuarantinedMetric {
                metric: MetricId::new("bad"),
                reason: TrainQuarantineReason::InvariantViolation,
                detail: "NaN plateau".to_owned(),
            }],
            error_budget: 0.5,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: TrainReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        assert!(back.to_table(5).contains("invariant_violation"));
    }

    #[test]
    fn unweighted_merge_with_zero_total_time_is_degenerate() {
        // The Unweighted strategy gives every sample weight 1, so the
        // original weight check alone cannot catch all-zero times; the
        // merge must still refuse them.
        let config = TrainConfig {
            merge: MergeStrategy::Unweighted,
            ..TrainConfig::default()
        };
        let model = SpireModel::train(&training(), config).unwrap();
        let mut wl = SampleSet::new();
        wl.push_unchecked("stalls".into(), 0.0, 1.0, 1.0);
        match model.estimate(&wl).unwrap_err() {
            SpireError::DegenerateWeights { metric } => assert_eq!(metric, "stalls"),
            other => panic!("expected DegenerateWeights, got {other:?}"),
        }
    }
}
