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
//! runs it. A commit is the batch trainer's own training round
//! (`ensemble::train_round`) with the `Clean` metrics' results passed in as
//! settled, so the skip rule, quarantines, strict-mode first error, budget
//! and empty checks, reports and notices are the batch trainer's by
//! construction.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::ensemble::{
    train_round, Settled, SpireModel, TrainConfig, TrainReport, TrainStrictness,
};
use crate::error::Result;
use crate::roofline::{FitArtifacts, PiecewiseRoofline, ThinningNotice};
use crate::sample::{MetricId, SampleSet};

/// Per-metric incremental state.
#[derive(Debug, Clone)]
struct Slot {
    /// The metric's result from the last successful commit, kept while
    /// every sample since has been an exact no-op; `None` when the next
    /// commit must fit it.
    settled: Option<Settled>,
    /// What the metric's last fit left behind to classify new samples
    /// against; `Opaque` for quarantined or never-fitted metrics.
    artifacts: FitArtifacts,
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
    /// Returns [`SpireError::InvalidConfig`](crate::SpireError::InvalidConfig)
    /// if `config` fails validation.
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
    /// [`OnlineTrainer::commit`] to refit the `Full` metrics.
    pub fn push_batch(&mut self, batch: &SampleSet) {
        for (metric, column) in batch.by_metric() {
            if column.is_empty() {
                continue;
            }
            self.touched.insert(metric.clone());
            let slot = self.slots.entry(metric.clone()).or_insert(Slot {
                settled: None,
                artifacts: FitArtifacts::Opaque,
            });
            classify_rows(slot, column.intensities(), column.throughputs());
        }
        self.pending += batch.len();
        self.samples.merge(batch.clone());
    }

    /// Runs the batch trainer's training round over all samples pushed so
    /// far, with every `Clean` metric keeping its last result, and patches
    /// the maintained model ([`OnlineTrainer::model`]), which is
    /// bit-identical to [`SpireModel::train_with_report`] over those
    /// samples.
    ///
    /// On error the trainer keeps its samples and per-metric state, so a
    /// later push-and-commit behaves like a batch retrain over the larger
    /// set.
    ///
    /// # Errors
    ///
    /// Exactly the batch trainer's:
    /// [`SpireError::EmptyTrainingSet`](crate::SpireError::EmptyTrainingSet),
    /// per-metric fit errors in [`TrainStrictness::Strict`] mode, and
    /// [`SpireError::ErrorBudgetExceeded`](crate::SpireError::ErrorBudgetExceeded)
    /// in lenient mode.
    pub fn commit(&mut self) -> Result<UpdateOutcome> {
        let slots = &self.slots;
        let round = train_round(
            &self.samples,
            &self.config,
            self.strictness,
            |metric| slots.get(metric)?.settled.as_ref(),
            |column, options| {
                PiecewiseRoofline::fit_slices(
                    column.metric().clone(),
                    column.intensities(),
                    column.throughputs(),
                    options,
                )
            },
        )?;

        // The commit succeeds. Touched metrics that kept a trained result
        // had only exact no-ops: the fit is unchanged, but a batch retrain
        // would record the grown sample count.
        let unchanged: Vec<MetricId> = self
            .touched
            .iter()
            .filter(|metric| matches!(self.slots[*metric].settled, Some(Settled::Trained(_))))
            .cloned()
            .collect();
        let model = match self.model.as_mut() {
            Some(model) => {
                model.set_skipped_metrics(round.skipped);
                model
            }
            None => self.model.insert(SpireModel::from_parts(
                BTreeMap::new(),
                self.config.clone(),
                round.skipped,
            )),
        };
        for metric in &unchanged {
            let count = self
                .samples
                .column(metric)
                .expect("touched metrics have columns")
                .len();
            model
                .rooflines_mut()
                .get_mut(metric)
                .expect("a settled trained metric is in the model")
                .set_training_samples(count);
        }

        // The model owns the fits: each refit *moves* into it, so a commit
        // that refits r of n metrics clones zero rooflines and writes O(r)
        // map entries.
        let mut refit_full = Vec::with_capacity(round.fitted.len());
        for (metric, fitted) in round.fitted {
            let slot = self
                .slots
                .get_mut(&metric)
                .expect("fitted metrics have slots");
            match fitted {
                Ok((fit, notice, artifacts)) => {
                    slot.settled = Some(Settled::Trained(notice));
                    slot.artifacts = artifacts;
                    model.rooflines_mut().insert(metric.clone(), fit);
                }
                Err(q) => {
                    slot.settled = Some(Settled::Quarantined(q));
                    slot.artifacts = FitArtifacts::Opaque;
                    model.rooflines_mut().remove(&metric);
                }
            }
            refit_full.push(metric);
        }

        let update = UpdateReport {
            samples_added: self.pending,
            refit_full,
            refit_right: Vec::new(),
            unchanged,
        };
        self.touched.clear();
        self.pending = 0;
        Ok(UpdateOutcome {
            report: round.report,
            fit_notices: round.fit_notices,
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

/// Classifies one batch's rows for one metric: the slot keeps its settled
/// result (`Clean`) only if every row is an exact no-op for its current
/// fit (see the module docs); the first row that is not clears it
/// (`Full`).
fn classify_rows(slot: &mut Slot, intensities: &[f64], throughputs: &[f64]) {
    if slot.settled.is_none() {
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
        slot.settled = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::TrainOutcome;
    use crate::{Sample, SpireError};

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
