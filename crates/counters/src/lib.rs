//! # spire-counters
//!
//! The sample-collection layer of the SPIRE reproduction: everything
//! between a performance-monitoring unit and a trained model.
//!
//! * [`MultiplexSchedule`] — partitions a large event list into PMU-sized
//!   groups, as Linux perf's counter multiplexing does.
//! * [`collect`] / [`SessionConfig`] / [`SessionReport`] — runs a workload
//!   on a `spire_sim::Core` while rotating event groups and emitting one
//!   SPIRE sample per metric per interval (the paper's 2-second `perf
//!   stat` intervals), with reprogramming overhead accounted (the paper's
//!   1.6% average overhead statistic).
//! * [`perf`] — imports real `perf stat -I -x,` output, so models can be
//!   trained on actual hardware counters with the same pipeline.
//! * [`ingest`] — the multiplex-aware, fault-tolerant version of that
//!   import: counts are scaled by `1 / running_frac`, broken rows are
//!   quarantined under an error budget, and every run yields an
//!   [`IngestReport`].
//! * [`proc`] — supervises a live `perf` child process with deadline,
//!   retry, and graceful-degradation handling.
//! * [`Dataset`] — labeled, JSON-persisted sample corpora.
//!
//! ```
//! use spire_counters::{collect, SessionConfig};
//! use spire_sim::{Core, CoreConfig, Event, Instr};
//!
//! let mut core = Core::new(CoreConfig::skylake_server());
//! let mut stream = std::iter::repeat(Instr::simple_alu()).take(100_000);
//! let report = collect(
//!     &mut core,
//!     &mut stream,
//!     &[Event::IdqDsbUops, Event::BrMispRetiredAllBranches],
//!     &SessionConfig::quick(),
//! );
//! assert!(report.samples.len() > 0);
//! assert!(report.overhead_fraction() < 0.1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod coverage;
mod dataset;
pub mod ingest;
pub mod perf;
pub mod pipeline;
pub mod proc;
mod schedule;
mod session;

pub use coverage::{CoverageReport, MetricCoverage};
pub use dataset::Dataset;
pub use ingest::{
    ingest_perf_csv, EventCoverage, Ingest, IngestConfig, IngestReport, QuarantineReason,
    QuarantinedRow,
};
pub use proc::{run_capture, Capture, CaptureConfig, CaptureOutcome};
pub use schedule::MultiplexSchedule;
pub use session::{collect, collect_batched, SessionConfig, SessionReport};
