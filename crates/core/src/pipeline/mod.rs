//! The pipeline: plain ingest → build → train → estimate → analyze calls
//! shared by the CLI and the bench harness, instrumented on one bus.
//!
//! Each step is a function in [`stages`] (ingest and build live in
//! `spire_counters::pipeline`) taking the run's [`RunContext`] and
//! borrowed inputs. The context owns the run's [`PipelineConfig`] and its
//! [`DiagnosticsBus`]; [`RunContext::stage`] is the one place that wraps
//! a step in `stage_started` / `stage_finished` / `stage_failed` events.
//! Steps also emit typed [`Event`]s for their decisions (quarantines,
//! salvage warnings, budget consumption) into pluggable [`EventSink`]s —
//! a [`CollectingSink`] for tests and the CLI's renderers, a
//! [`StderrSink`] for humans, a [`JsonLinesSink`] for machines.
//!
//! The steps add **no** computation of their own: each calls exactly the
//! library entry point a direct caller would
//! ([`crate::SpireModel::train_with_report`], [`crate::ModelSnapshot::into_model`],
//! [`crate::SpireModel::estimate`], …), so models, snapshots, estimates and
//! rankings produced through the pipeline are bit-identical to direct API
//! calls — a guarantee locked by the `pipeline_equivalence` integration
//! test at the workspace root. See DESIGN.md §8 for the architecture.

pub mod event;
pub mod stages;

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::ensemble::{TrainConfig, TrainStrictness};
use crate::snapshot::SnapshotMode;
use crate::Result;

pub use event::{Event, Severity};
pub use stages::{
    analyze, emit_salvage_events, emit_train_events, estimate, load_model, train, update,
};

/// The one configuration object a pipeline run carries: the
/// [`TrainConfig`] (with [`crate::FitOptions`] in `train.fit`) plus
/// run-wide strictness and the determinism seed.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Training configuration (includes fit options and thread count).
    pub train: TrainConfig,
    /// Lenient runs quarantine and continue; strict runs fail fast.
    /// Applies to training, the ingest error budget and every snapshot
    /// or dataset load ([`PipelineConfig::snapshot_mode`]).
    pub strictness: TrainStrictness,
    /// Workload-stream seed for stages that synthesize data.
    pub seed: u64,
}

impl PipelineConfig {
    /// How loads treat damaged records, following [`Self::strictness`]:
    /// lenient runs salvage, strict runs refuse.
    pub fn snapshot_mode(&self) -> SnapshotMode {
        match self.strictness {
            TrainStrictness::Lenient => SnapshotMode::Lenient,
            TrainStrictness::Strict => SnapshotMode::Strict,
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            train: TrainConfig::default(),
            strictness: TrainStrictness::Lenient,
            seed: 1,
        }
    }
}

/// A destination for diagnostics events. Sinks must be shareable across
/// the worker threads a stage may spawn.
pub trait EventSink: Send + Sync {
    /// Receives one event. Implementations must not panic.
    fn emit(&self, event: &Event);
}

/// A sink that stores every event, for tests and for renderers that
/// replay the stream after the run (the CLI's `--json` envelope).
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<Vec<Event>>,
}

impl CollectingSink {
    /// Creates an empty collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the events collected so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }
}

impl EventSink for CollectingSink {
    fn emit(&self, event: &Event) {
        if let Ok(mut events) = self.events.lock() {
            events.push(event.clone());
        }
    }
}

/// A human-readable sink writing one `spire: `-prefixed line per event to
/// stderr. [`StderrSink::warnings`] restricts it to noteworthy events
/// (warnings and worse), which is what the CLI attaches by default.
#[derive(Debug, Clone, Copy)]
pub struct StderrSink {
    min: Severity,
}

impl StderrSink {
    /// A sink that narrates every event (stage progress included).
    pub fn verbose() -> Self {
        StderrSink {
            min: Severity::Info,
        }
    }

    /// A sink that only surfaces warnings, degradations, and failures.
    pub fn warnings() -> Self {
        StderrSink {
            min: Severity::Warning,
        }
    }
}

fn severity_rank(s: Severity) -> u8 {
    match s {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Degraded => 2,
        Severity::Error => 3,
    }
}

impl EventSink for StderrSink {
    fn emit(&self, event: &Event) {
        if severity_rank(event.severity()) >= severity_rank(self.min) {
            eprintln!("spire: {}", event.render());
        }
    }
}

/// A machine-readable sink writing one compact JSON object per event
/// (JSON-lines) to any writer.
pub struct JsonLinesSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps `writer`; each event becomes one `\n`-terminated JSON line.
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer: Mutex::new(writer),
        }
    }

    /// Unwraps the inner writer (tests read the buffer back).
    pub fn into_inner(self) -> W {
        self.writer.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<W: Write + Send> EventSink for JsonLinesSink<W> {
    fn emit(&self, event: &Event) {
        if let (Ok(line), Ok(mut w)) = (serde_json::to_string(event), self.writer.lock()) {
            let _ = writeln!(w, "{line}");
        }
    }
}

/// The diagnostics bus: fans events out to the attached sinks and tracks
/// whether any [`Severity::Degraded`] event was seen — the single source
/// of truth the CLI derives exit code 2 from.
#[derive(Default)]
pub struct DiagnosticsBus {
    sinks: Vec<Arc<dyn EventSink>>,
    degraded: AtomicBool,
}

impl std::fmt::Debug for DiagnosticsBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiagnosticsBus")
            .field("sinks", &self.sinks.len())
            .field("degraded", &self.degraded())
            .finish()
    }
}

impl DiagnosticsBus {
    /// An empty bus with no sinks (events still update the degraded flag).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a sink; every subsequent event is fanned out to it.
    pub fn add_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Emits one event to every sink and updates the degraded flag.
    pub fn emit(&self, event: Event) {
        if event.severity() == Severity::Degraded {
            self.degraded.store(true, Ordering::Relaxed);
        }
        for sink in &self.sinks {
            sink.emit(&event);
        }
    }

    /// Whether any degraded-severity event has been emitted.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }
}

/// Everything a run threads through its steps: configuration, the
/// diagnostics bus, and the determinism seed (inside the config). One
/// `RunContext` is created per run and passed by shared reference to
/// every step.
#[derive(Debug)]
pub struct RunContext {
    /// The run's configuration.
    pub config: PipelineConfig,
    bus: DiagnosticsBus,
}

impl RunContext {
    /// A context over `config` with an empty bus.
    pub fn new(config: PipelineConfig) -> Self {
        RunContext {
            config,
            bus: DiagnosticsBus::new(),
        }
    }

    /// Builder-style sink attachment.
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.bus.add_sink(sink);
        self
    }

    /// Attaches a sink to the bus.
    pub fn add_sink(&mut self, sink: Arc<dyn EventSink>) {
        self.bus.add_sink(sink);
    }

    /// Emits one event on the bus.
    pub fn emit(&self, event: Event) {
        self.bus.emit(event);
    }

    /// Emits a free-form [`Event::Note`].
    pub fn note(&self, stage: &str, text: impl Into<String>) {
        self.emit(Event::Note {
            stage: stage.to_owned(),
            text: text.into(),
        });
    }

    /// Whether the run has degraded (exit-code-2 semantics).
    pub fn degraded(&self) -> bool {
        self.bus.degraded()
    }

    /// The underlying bus, for sharing with non-stage emitters.
    pub fn bus(&self) -> &DiagnosticsBus {
        &self.bus
    }

    /// Runs `body` as the pipeline stage `name`: emits `StageStarted`,
    /// then `StageFinished` (wall time, `items_in`, and `items_out` of
    /// the result) or `StageFailed`. This is the only code that builds
    /// stage events.
    ///
    /// ```
    /// use spire_core::pipeline::{CollectingSink, Event, PipelineConfig, RunContext};
    /// use std::sync::Arc;
    ///
    /// let sink = Arc::new(CollectingSink::new());
    /// let ctx = RunContext::new(PipelineConfig::default()).with_sink(sink.clone());
    /// let doubled = ctx
    ///     .stage("double", Some(3), || Ok(vec![2, 4, 6]), |v| Some(v.len()))
    ///     .unwrap();
    /// assert_eq!(doubled, [2, 4, 6]);
    /// let kinds: Vec<&str> = sink.events().iter().map(Event::kind).collect();
    /// assert_eq!(kinds, ["stage_started", "stage_finished"]);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns `body`'s error after emitting `StageFailed` for it.
    pub fn stage<T>(
        &self,
        name: &str,
        items_in: Option<usize>,
        body: impl FnOnce() -> Result<T>,
        items_out: impl FnOnce(&T) -> Option<usize>,
    ) -> Result<T> {
        self.emit(Event::StageStarted {
            stage: name.to_owned(),
            items_in,
        });
        let start = Instant::now();
        match body() {
            Ok(output) => {
                self.emit(Event::StageFinished {
                    stage: name.to_owned(),
                    wall_ms: start.elapsed().as_secs_f64() * 1e3,
                    items_in,
                    items_out: items_out(&output),
                });
                Ok(output)
            }
            Err(error) => {
                self.emit(Event::StageFailed {
                    stage: name.to_owned(),
                    error: error.to_string(),
                });
                Err(error)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::SpireError;

    fn ctx_with_sink() -> (RunContext, Arc<CollectingSink>) {
        let sink = Arc::new(CollectingSink::new());
        let ctx = RunContext::new(PipelineConfig::default()).with_sink(sink.clone());
        (ctx, sink)
    }

    #[test]
    fn stage_instruments_start_and_finish_with_counts() {
        let (ctx, sink) = ctx_with_sink();
        let input = [1u32, 2, 3];
        let out = ctx
            .stage(
                "double",
                Some(input.len()),
                || {
                    ctx.note("double", "inside");
                    Ok(input.iter().map(|x| x * 2).collect::<Vec<_>>())
                },
                |out| Some(out.len() + 1),
            )
            .unwrap();
        assert_eq!(out, [2, 4, 6]);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            &events[0],
            Event::StageStarted { stage, items_in: Some(3) } if stage == "double"
        ));
        assert!(matches!(&events[1], Event::Note { text, .. } if text == "inside"));
        assert!(matches!(
            &events[2],
            Event::StageFinished { stage, wall_ms, items_in: Some(3), items_out: Some(4) }
                if stage == "double" && *wall_ms >= 0.0
        ));
        assert!(!ctx.degraded());
    }

    #[test]
    fn failed_stage_emits_stage_failed_and_returns_the_error() {
        let (ctx, sink) = ctx_with_sink();
        let err = ctx
            .stage(
                "fail",
                None,
                || -> Result<()> { Err(SpireError::EmptyWorkload) },
                |_| unreachable!("no output to count"),
            )
            .unwrap_err();
        assert_eq!(err, SpireError::EmptyWorkload);
        let events = sink.events();
        assert_eq!(events.len(), 2, "{events:?}");
        assert!(matches!(
            &events[0],
            Event::StageStarted { stage, items_in: None } if stage == "fail"
        ));
        assert!(matches!(
            &events[1],
            Event::StageFailed { stage, error }
                if stage == "fail" && *error == SpireError::EmptyWorkload.to_string()
        ));
    }

    #[test]
    fn degraded_events_flip_the_bus_flag() {
        let ctx = RunContext::new(PipelineConfig::default());
        assert!(!ctx.degraded());
        ctx.emit(Event::RowsQuarantined {
            reason: "unparseable".into(),
            rows: 1,
        });
        assert!(ctx.degraded());
    }

    #[test]
    fn json_lines_sink_writes_one_object_per_event() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.emit(&Event::Note {
            stage: "t".into(),
            text: "hello".into(),
        });
        sink.emit(&Event::RowsQuarantined {
            reason: "r".into(),
            rows: 2,
        });
        let buf = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = buf.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"note\""));
        assert!(lines[1].contains("\"rows\":2"));
    }
}
