//! # spire-core
//!
//! An implementation of **SPIRE** (*Statistical Piecewise Linear Roofline
//! Ensemble*), the performance model of Wendt, Ketkar and Bertacco,
//! "SPIRE: Inferring Hardware Bottlenecks from Performance Counter Data"
//! (DATE 2025).
//!
//! SPIRE estimates the maximum throughput a workload can attain on a
//! processor from hardware performance-counter data, and ranks counters by
//! how likely each is to be the workload's bottleneck. It combines the
//! accessibility of roofline models with the microarchitectural detail of
//! performance counters: training requires nothing but counter samples.
//!
//! ## Model structure
//!
//! * Input data are [`Sample`]s: per measurement period, a time `T`, a work
//!   quantity `W`, and one metric's increase `M_x`, giving throughput
//!   `P = W/T` and metric-specific operational intensity `I_x = W/M_x`.
//! * Each metric gets an independent [`PiecewiseRoofline`]: an upper bound
//!   on `P` as a function of `I_x`, fitted as increasing concave-down
//!   segments left of the highest-throughput sample (a convex-hull walk)
//!   and decreasing concave-up segments to its right (a shortest-path
//!   search over the Pareto front).
//! * A [`SpireModel`] is the ensemble: estimates merge per metric with a
//!   time-weighted average and reduce to the minimum over metrics.
//! * A [`BottleneckReport`] ranks metrics ascending by estimate; the lowest
//!   are the likely bottlenecks.
//!
//! ## Quickstart
//!
//! ```
//! use spire_core::{BottleneckReport, Sample, SampleSet, SpireModel, TrainConfig};
//! use spire_core::catalog::MetricCatalog;
//!
//! # fn main() -> Result<(), spire_core::SpireError> {
//! // Train from counter samples (here: synthetic IPC-vs-stalls data).
//! let mut training = SampleSet::new();
//! for (cycles, instrs, stalls) in [
//!     (1e9, 1e9, 5e8),
//!     (1e9, 2e9, 2e8),
//!     (1e9, 3e9, 5e7),
//! ] {
//!     training.push(Sample::new("cycle_activity.stalls_total", cycles, instrs, stalls)?);
//! }
//! let model = SpireModel::train(&training, TrainConfig::default())?;
//!
//! // Analyze a workload's samples.
//! let mut workload = SampleSet::new();
//! workload.push(Sample::new("cycle_activity.stalls_total", 1e9, 1.2e9, 4e8)?);
//! let estimate = model.estimate(&workload)?;
//! let report = BottleneckReport::new(&estimate, &MetricCatalog::table_iii());
//! println!("{}", report.to_table(10));
//! # Ok(())
//! # }
//! ```
//!
//! The sibling crates in this workspace supply everything around the model:
//! `spire-sim` (a simulated CPU with a PMU), `spire-workloads` (synthetic
//! workloads), `spire-counters` (sampling sessions and `perf stat` import),
//! `spire-tma` (the Top-Down Analysis baseline), `spire-baselines` (classic
//! rooflines and a regression baseline) and `spire-plot` (rendering).

#![warn(missing_docs)]
// `deny` rather than `forbid`: the crate is unsafe-free except for one
// narrowly scoped, module-level `#[allow]` island — the mmap view in
// [`colfile::mmap`] — which documents its safety obligations inline.
#![deny(unsafe_code)]

pub mod analysis;
pub mod catalog;
pub mod colfile;
pub mod ensemble;
mod error;
pub mod fault;
pub mod geometry;
#[cfg(any(test, feature = "reference-fit"))]
pub mod graph;
pub mod machine;
pub mod online;
pub mod parallel;
pub mod pipeline;
pub mod roofline;
mod sample;
pub mod snapshot;
pub mod stats;

pub use analysis::{BottleneckReport, RankedMetric};
pub use colfile::{ColFileContents, ColFileReport, ColFileWriter, QuarantinedChunk};
pub use ensemble::{
    EnsembleAggregation, Estimate, MergeStrategy, MetricEstimate, QuarantinedMetric, SpireModel,
    TrainConfig, TrainOutcome, TrainQuarantineReason, TrainReport, TrainStrictness,
};
pub use error::{Result, SpireError};
pub use machine::{config_fingerprint, normalize_set, MachinePeaks, MachineSpec};
pub use online::{OnlineTrainer, UpdateOutcome, UpdateReport};
pub use pipeline::{CollectingSink, DiagnosticsBus, EventSink, PipelineConfig, RunContext};
pub use roofline::{FitOptions, PiecewiseRoofline, RightFitMode, RightRegion, ThinningNotice};
pub use sample::{MetricColumn, MetricId, Sample, SampleIter, SampleSet};
pub use snapshot::{
    write_atomic, write_atomic_bytes, ModelSnapshot, SnapshotDelta, SnapshotLoad, SnapshotMode,
    SnapshotProvenance, SnapshotReport, SNAPSHOT_FORMAT_VERSION,
};
