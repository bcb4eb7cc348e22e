//! Error types returned by the SPIRE model.

use std::fmt;

/// The error type returned by fallible operations in this crate.
///
/// All variants carry enough context to diagnose the failing input. The type
/// implements [`std::error::Error`] and is `Send + Sync + 'static`, so it can
/// be boxed into `Box<dyn Error + Send + Sync>` or wrapped by downstream
/// error types.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SpireError {
    /// A sample field violated its domain constraint (e.g. `T <= 0`).
    InvalidSample {
        /// Name of the offending field (`"time"`, `"work"`, or `"metric_delta"`).
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// Constraint that was violated, e.g. `"must be finite and > 0"`.
        constraint: &'static str,
    },
    /// A roofline was asked to train with no usable samples.
    EmptyTrainingSet {
        /// Metric whose sample group was empty, if the failure is per-metric.
        metric: Option<String>,
    },
    /// Training was requested for a metric with fewer samples than the
    /// configured minimum.
    TooFewSamples {
        /// Metric whose sample group was too small.
        metric: String,
        /// Number of samples that were available.
        have: usize,
        /// Configured minimum number of samples.
        need: usize,
    },
    /// An estimate was requested for a workload that shares no metrics with
    /// the trained model.
    NoCommonMetrics,
    /// The per-metric merge weights summed to zero (or NaN), so the merged
    /// estimate of Eq. (1) is undefined.
    ///
    /// Unreachable for sample sets built through
    /// [`Sample::new`](crate::Sample::new) or decoded from JSON, which
    /// require strictly positive times, but a column file's raw columns
    /// bypass that validation and are surfaced here as an error rather
    /// than a `NaN` estimate.
    DegenerateWeights {
        /// Metric whose merge weights degenerate.
        metric: String,
    },
    /// An estimate was requested from an empty workload sample set.
    EmptyWorkload,
    /// The right-region fitting graph had no `Start -> End` path.
    ///
    /// This indicates an internal invariant violation; it should not occur
    /// for valid sample sets and is surfaced rather than panicking.
    NoFitPath {
        /// Metric whose right-region fit failed.
        metric: String,
    },
    /// A configuration value was rejected.
    InvalidConfig {
        /// Name of the offending configuration field.
        field: &'static str,
        /// Explanation of the constraint that was violated.
        reason: String,
    },
    /// A fault-tolerant ingest quarantined a larger fraction of its input
    /// rows than the configured error budget allows.
    ///
    /// The partial data is still available from the ingest layer; this
    /// error is raised only when a caller asks for budget enforcement
    /// (e.g. a strict import) rather than graceful degradation.
    ErrorBudgetExceeded {
        /// Number of rows that were quarantined.
        quarantined: usize,
        /// Total number of rows considered.
        total: usize,
        /// The configured budget as a fraction of `total` in `[0, 1]`.
        budget: f64,
    },
    /// A fitted or deserialized [`PiecewiseRoofline`](crate::PiecewiseRoofline)
    /// violates one of its structural invariants (ordered finite knots,
    /// increasing concave-down left region, decreasing concave-up right
    /// region, non-negative ceilings).
    ///
    /// Raised by [`PiecewiseRoofline::validate`](crate::PiecewiseRoofline::validate)
    /// after fits over hostile data and after loading model snapshots; a
    /// model that fails validation must not be used for estimates.
    ModelInvariantViolation {
        /// Metric whose roofline is malformed.
        metric: String,
        /// Which invariant was violated, in human-readable form.
        invariant: String,
    },
    /// A metric's roofline fit panicked inside the training fan-out.
    ///
    /// The panic is caught at the per-metric boundary (the scoped thread
    /// pool survives); in lenient training the metric is quarantined into
    /// the [`TrainReport`](crate::TrainReport) instead, and this error is
    /// surfaced only in strict mode.
    FitPanicked {
        /// Metric whose fit panicked.
        metric: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A model snapshot could not be understood at the container level:
    /// malformed JSON, a missing field, an unsupported format version, or
    /// an unknown checksum algorithm.
    ///
    /// Container-level damage is fatal in both strict and lenient loads —
    /// per-metric salvage only applies once the outer envelope parses.
    SnapshotFormat {
        /// What was wrong with the snapshot container.
        reason: String,
    },
    /// A per-metric snapshot record failed its integrity check: the stored
    /// checksum does not match the record payload, the payload no longer
    /// parses, or the embedded roofline fails validation.
    ///
    /// Lenient loads drop only the damaged record and salvage the rest;
    /// strict loads refuse the whole snapshot with this error.
    SnapshotRecordCorrupt {
        /// Metric whose snapshot record is damaged.
        metric: String,
        /// Why the record was rejected.
        reason: String,
    },
    /// A model and a dataset carry provenance from different machines:
    /// their [`MachineSpec`](crate::MachineSpec) fingerprints (or
    /// normalization units) disagree.
    ///
    /// Raised by strict estimate/analyze/update runs and by
    /// [`SnapshotDelta::apply`](crate::SnapshotDelta::apply) across
    /// differing machines; lenient runs degrade with a typed
    /// `machine_mismatch` event instead. Artifacts without machine
    /// provenance are never refused — absence is legacy, not a mismatch.
    MachineMismatch {
        /// `name [fingerprint]` of the machine the model was trained on.
        expected: String,
        /// `name [fingerprint]` of the machine the data came from.
        found: String,
        /// Which operation tripped the check (e.g. `"analyze"`).
        context: String,
    },
    /// A binary column-file ([`crate::colfile`]) data chunk failed its
    /// integrity check: the stored FNV-1a checksum does not match the chunk
    /// payload, or the chunk points outside the file.
    ///
    /// Lenient loads quarantine only the damaged chunk's rows and salvage
    /// the rest; strict loads refuse the whole file with this error — the
    /// same taxonomy as [`SpireError::SnapshotRecordCorrupt`].
    ColumnChunkCorrupt {
        /// Dataset section (workload label) the chunk belongs to.
        label: String,
        /// Metric whose column the chunk stores.
        metric: String,
        /// Index of the damaged chunk within its column.
        chunk: usize,
        /// Why the chunk was rejected.
        reason: String,
    },
}

impl fmt::Display for SpireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpireError::InvalidSample {
                field,
                value,
                constraint,
            } => write!(f, "invalid sample: {field} = {value} ({constraint})"),
            SpireError::EmptyTrainingSet { metric: Some(m) } => {
                write!(f, "no training samples for metric `{m}`")
            }
            SpireError::EmptyTrainingSet { metric: None } => {
                write!(f, "training set contains no samples")
            }
            SpireError::TooFewSamples { metric, have, need } => write!(
                f,
                "metric `{metric}` has {have} samples but at least {need} are required"
            ),
            SpireError::NoCommonMetrics => {
                write!(
                    f,
                    "workload samples share no metrics with the trained model"
                )
            }
            SpireError::EmptyWorkload => write!(f, "workload sample set is empty"),
            SpireError::DegenerateWeights { metric } => write!(
                f,
                "merge weights for metric `{metric}` sum to zero or NaN; no sample \
                 contributed positive weight"
            ),
            SpireError::NoFitPath { metric } => write!(
                f,
                "right-region fit for metric `{metric}` found no start-to-end path"
            ),
            SpireError::InvalidConfig { field, reason } => {
                write!(f, "invalid configuration: {field}: {reason}")
            }
            SpireError::ErrorBudgetExceeded {
                quarantined,
                total,
                budget,
            } => write!(
                f,
                "ingest quarantined {quarantined} of {total} rows, exceeding the \
                 error budget of {:.1}%",
                budget * 100.0
            ),
            SpireError::ModelInvariantViolation { metric, invariant } => write!(
                f,
                "roofline for metric `{metric}` violates model invariant: {invariant}"
            ),
            SpireError::FitPanicked { metric, message } => {
                write!(f, "roofline fit for metric `{metric}` panicked: {message}")
            }
            SpireError::SnapshotFormat { reason } => {
                write!(f, "model snapshot is unreadable: {reason}")
            }
            SpireError::SnapshotRecordCorrupt { metric, reason } => write!(
                f,
                "snapshot record for metric `{metric}` is corrupt: {reason}"
            ),
            SpireError::MachineMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "machine mismatch in {context}: model is from {expected} but the \
                 data is from {found}"
            ),
            SpireError::ColumnChunkCorrupt {
                label,
                metric,
                chunk,
                reason,
            } => write!(
                f,
                "column chunk {chunk} of metric `{metric}` in section `{label}` is \
                 corrupt: {reason}"
            ),
        }
    }
}

impl std::error::Error for SpireError {}

/// Convenient alias for `Result<T, SpireError>`.
pub type Result<T> = std::result::Result<T, SpireError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SpireError::InvalidSample {
            field: "time",
            value: -1.0,
            constraint: "must be finite and > 0",
        };
        let msg = e.to_string();
        assert!(msg.contains("time"));
        assert!(msg.contains("-1"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<SpireError>();
    }

    #[test]
    fn too_few_samples_reports_counts() {
        let e = SpireError::TooFewSamples {
            metric: "stalls".to_owned(),
            have: 1,
            need: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains('1') && msg.contains('3') && msg.contains("stalls"));
    }

    #[test]
    fn error_budget_exceeded_reports_counts_and_budget() {
        let e = SpireError::ErrorBudgetExceeded {
            quarantined: 7,
            total: 10,
            budget: 0.25,
        };
        let msg = e.to_string();
        assert!(msg.contains('7') && msg.contains("10") && msg.contains("25.0%"));
    }

    #[test]
    fn robustness_variants_render_their_context() {
        let e = SpireError::ModelInvariantViolation {
            metric: "stalls".to_owned(),
            invariant: "left knots must be strictly increasing in x".to_owned(),
        };
        assert!(e.to_string().contains("stalls") && e.to_string().contains("increasing"));

        let e = SpireError::FitPanicked {
            metric: "stalls".to_owned(),
            message: "index out of bounds".to_owned(),
        };
        assert!(e.to_string().contains("panicked") && e.to_string().contains("stalls"));

        let e = SpireError::SnapshotFormat {
            reason: "unsupported format version 99".to_owned(),
        };
        assert!(e.to_string().contains("version 99"));

        let e = SpireError::SnapshotRecordCorrupt {
            metric: "stalls".to_owned(),
            reason: "checksum mismatch".to_owned(),
        };
        assert!(e.to_string().contains("checksum") && e.to_string().contains("stalls"));
    }

    #[test]
    fn machine_mismatch_renders_both_tags_and_context() {
        let e = SpireError::MachineMismatch {
            expected: "skylake-server [aaaa]".to_owned(),
            found: "little [bbbb]".to_owned(),
            context: "analyze".to_owned(),
        };
        let msg = e.to_string();
        assert!(msg.contains("skylake-server [aaaa]"));
        assert!(msg.contains("little [bbbb]"));
        assert!(msg.contains("analyze"));
    }

    #[test]
    fn empty_training_set_variants_render() {
        assert!(SpireError::EmptyTrainingSet { metric: None }
            .to_string()
            .contains("no samples"));
        assert!(SpireError::EmptyTrainingSet {
            metric: Some("x".into())
        }
        .to_string()
        .contains("`x`"));
    }
}
