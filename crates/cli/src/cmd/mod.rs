//! Per-command modules behind the `spire` dispatcher.
//!
//! Each module does exactly three things: parse its arguments into a
//! [`PipelineConfig`], call the `spire_core::pipeline` steps (plain
//! functions over one [`RunContext`]), and render the result — human
//! text on stdout, or the shared `--json` envelope.
//! Degradation (exit code 2) is derived from the diagnostics bus, never
//! tracked ad hoc: any `Severity::Degraded` event flips it.

pub(crate) mod analyze;
pub(crate) mod client;
pub(crate) mod collect;
pub(crate) mod convert;
pub(crate) mod coverage;
pub(crate) mod ingest;
pub(crate) mod json;
pub(crate) mod machines;
pub(crate) mod plot;
pub(crate) mod serve;
pub(crate) mod sim;
pub(crate) mod train;
pub(crate) mod update;

pub(crate) mod estimate;

use std::borrow::Cow;
use std::error::Error;
use std::fmt::Write as _;
use std::sync::Arc;

use serde::Content;
use spire_core::pipeline::{
    self, CollectingSink, Event, EventSink, PipelineConfig, RunContext, Severity,
};
use spire_core::{
    normalize_set, FitOptions, MachineSpec, SampleSet, SpireError, SpireModel, TrainConfig,
    TrainStrictness,
};
use spire_workloads::{suite, WorkloadProfile};

use crate::args::Args;
use crate::commands::{CmdOutput, CmdResult};

/// Shared error alias (same shape as `commands::CmdResult`'s error).
pub(crate) type CmdError = Box<dyn Error + Send + Sync>;

/// Renders warning-severity events (lossy-but-requested decisions like
/// front thinning) to stderr as the pre-pipeline CLI did. Degraded events
/// are *not* echoed here — the command renderers put those warnings in
/// the stdout text.
pub(crate) struct WarnSink;

impl EventSink for WarnSink {
    fn emit(&self, event: &Event) {
        if event.severity() == Severity::Warning {
            eprintln!("spire: {}", event.render());
        }
    }
}

/// One command's run handle: the [`RunContext`] plus the collecting
/// sink every event is mirrored into (feeding the `--json` envelope, the
/// warning renderers, and the degraded flag).
pub(crate) struct Runner {
    /// The run context every pipeline step reports to.
    pub ctx: RunContext,
    sink: Arc<CollectingSink>,
}

impl Runner {
    /// Builds a runner from a command's parsed arguments.
    pub fn from_args(args: &Args) -> Result<Self, CmdError> {
        let sink = Arc::new(CollectingSink::new());
        let ctx = RunContext::new(pipeline_config(args)?)
            .with_sink(sink.clone())
            .with_sink(Arc::new(WarnSink));
        Ok(Runner { ctx, sink })
    }

    /// The events emitted so far, in order.
    pub fn events(&self) -> Vec<Event> {
        self.sink.events()
    }

    /// Whether the run degraded (exit-code-2 semantics, from the bus).
    pub fn degraded(&self) -> bool {
        self.ctx.degraded()
    }

    /// Finishes a command: the human `text` on stdout, or — with
    /// `--json` — the shared envelope wrapping `result` plus the full
    /// event stream. The degraded flag always comes from the bus.
    pub fn finish(&self, args: &Args, command: &str, text: String, result: Content) -> CmdResult {
        let degraded = self.degraded();
        let text = if args.flag("json") {
            json::envelope(command, degraded, &self.events(), result)?
        } else {
            text
        };
        Ok(CmdOutput { text, degraded })
    }
}

/// Builds the run's [`PipelineConfig`] from the uniform option names
/// (`--threads`, `--strict`, `--min-samples`, `--metric-budget`,
/// `--max-front`, `--thin-front`, `--seed`). Options a command doesn't
/// document simply keep their defaults.
pub(crate) fn pipeline_config(args: &Args) -> Result<PipelineConfig, CmdError> {
    let fit_defaults = FitOptions::default();
    Ok(PipelineConfig {
        train: TrainConfig {
            min_samples_per_metric: args.get_or("min-samples", 1)?,
            threads: args.get_or("threads", 0)?,
            metric_error_budget: args.get_or("metric-budget", 0.5)?,
            fit: FitOptions {
                max_front_size: args.get_or("max-front", fit_defaults.max_front_size)?,
                thin_front: args.flag("thin-front"),
                ..fit_defaults
            },
            ..TrainConfig::default()
        },
        strictness: if args.flag("strict") {
            TrainStrictness::Strict
        } else {
            TrainStrictness::Lenient
        },
        seed: args.get_or("seed", 1)?,
    })
}

/// Loads a snapshot from `path` through [`pipeline::load_model`] (in the
/// mode chosen by `--strict`), rendering any salvage into warning text
/// for stdout. Returns the model, its machine tag, and that text.
pub(crate) fn load_model(
    runner: &Runner,
    path: &str,
) -> Result<(SpireModel, Option<MachineSpec>, String), CmdError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read model file {path}: {e}"))?;
    let loaded = pipeline::load_model(&runner.ctx, path, &text)?;
    let report = &loaded.report;
    let mut log = String::new();
    if report.is_degraded() {
        writeln!(
            log,
            "warning: salvaged snapshot {path}: {} of {} metric records dropped",
            report.dropped.len(),
            report.metrics_total
        )?;
        for d in &report.dropped {
            writeln!(log, "  dropped {}: {}", d.metric, d.reason)?;
        }
    }
    Ok((loaded.model, loaded.machine, log))
}

/// Cross-checks a model's machine against a dataset's before the model is
/// applied to the data. Both present and different emits exactly one
/// `machine_mismatch` event (degrading the run, exit code 2) and — under
/// `--strict` — refuses with [`SpireError::MachineMismatch`]. Either side
/// absent is legacy, not a mismatch: a `note` event records that the
/// check was skipped. Peak-normalized (hardware-agnostic) models skip the
/// identity check entirely — cross-machine use is their purpose.
///
/// Returns warning text for the command's stdout (empty when clean).
pub(crate) fn check_machine(
    runner: &Runner,
    context: &str,
    model_machine: Option<&MachineSpec>,
    data_machine: Option<&MachineSpec>,
) -> Result<String, CmdError> {
    match (model_machine, data_machine) {
        (Some(m), _) if m.normalized => {
            runner.ctx.note(
                context,
                "model is hardware-agnostic (peak-normalized); machine-identity check skipped",
            );
            Ok(String::new())
        }
        (Some(m), Some(d)) if !m.matches(d) => {
            runner.ctx.emit(Event::MachineMismatch {
                context: context.to_owned(),
                model_machine: m.name.clone(),
                model_fingerprint: m.fingerprint.clone(),
                data_machine: d.name.clone(),
                data_fingerprint: d.fingerprint.clone(),
            });
            if runner.ctx.config.strictness == TrainStrictness::Strict {
                return Err(Box::new(SpireError::MachineMismatch {
                    expected: m.tag(),
                    found: d.tag(),
                    context: context.to_owned(),
                }));
            }
            Ok(format!(
                "warning: machine mismatch in {context}: model is from {} but the data \
                 is from {}\n",
                m.tag(),
                d.tag()
            ))
        }
        (Some(_), Some(_)) => Ok(String::new()),
        (None, _) | (_, None) => {
            runner.ctx.note(
                context,
                "machine provenance absent on model or data; machine check skipped",
            );
            Ok(String::new())
        }
    }
}

/// Prepares one workload's samples for a model: a hardware-agnostic
/// (peak-normalized) model gets the data normalized by the *data*
/// machine's peaks — that is the cross-machine transfer path — while an
/// unnormalized model gets a machine-identity check instead. Returns the
/// samples to estimate with (borrowed unless normalized) plus warning
/// text for stdout.
pub(crate) fn align_samples<'s>(
    runner: &Runner,
    context: &str,
    model_machine: Option<&MachineSpec>,
    data_machine: Option<&MachineSpec>,
    samples: &'s SampleSet,
) -> Result<(Cow<'s, SampleSet>, String), CmdError> {
    if model_machine.is_some_and(|m| m.normalized) {
        if let Some(d) = data_machine {
            runner.ctx.note(
                context,
                format!(
                    "peak-normalizing samples by {} (peak throughput {})",
                    d.tag(),
                    d.peaks.throughput
                ),
            );
            return Ok((Cow::Owned(normalize_set(samples, &d.peaks)), String::new()));
        }
        let warn = format!(
            "warning: model is peak-normalized but the data carries no machine \
             provenance; estimating {context} in raw units\n"
        );
        runner
            .ctx
            .note(context, warn.trim_start_matches("warning: ").trim_end());
        return Ok((Cow::Borrowed(samples), warn));
    }
    let warn = check_machine(runner, context, model_machine, data_machine)?;
    Ok((Cow::Borrowed(samples), warn))
}

/// Loads a dataset from `path` through [`Dataset::load_with_mode`] — the
/// single format-sniffing entry point, so `SPIRECOL` binary column files
/// and JSON datasets both work everywhere a `--data` path is accepted.
/// The integrity mode follows `--strict`: strict runs refuse any binary
/// damage, lenient runs quarantine damaged chunks, emit each one on the
/// bus as a typed `chunk_quarantined` event (degrading the run, exit
/// code 2), and render the salvage into the returned warning text.
pub(crate) fn load_dataset(
    runner: &Runner,
    path: &str,
) -> Result<(spire_counters::Dataset, String), CmdError> {
    let mode = runner.ctx.config.snapshot_mode();
    let (dataset, report) = spire_counters::Dataset::load_with_mode(path, mode)
        .map_err(|e| format!("cannot load dataset {path}: {e}"))?;
    let mut log = String::new();
    if let Some(report) = report {
        if !report.is_clean() {
            writeln!(
                log,
                "warning: salvaged binary dataset {path}: {} of {} rows quarantined \
                 ({} of {} chunks)",
                report.rows_dropped,
                report.rows_total,
                report.quarantined.len(),
                report.chunks_total
            )?;
            for q in &report.quarantined {
                writeln!(
                    log,
                    "  quarantined {}/{} chunk {} ({} rows): {}",
                    q.label, q.metric, q.chunk, q.rows, q.reason
                )?;
                runner.ctx.emit(Event::ChunkQuarantined {
                    label: q.label.clone(),
                    metric: q.metric.clone(),
                    chunk: q.chunk,
                    rows: q.rows as usize,
                    reason: q.reason.clone(),
                });
            }
        }
    }
    Ok((dataset, log))
}

/// Resolves `--workload NAME [--config C]` against the suite.
pub(crate) fn find_workload(args: &Args) -> Result<WorkloadProfile, CmdError> {
    let name = args.require("workload")?;
    let config = args.get("config").unwrap_or("");
    suite::by_name(name, config)
        .ok_or_else(|| format!("no workload named `{name}` with config `{config}`").into())
}

/// Resolves a machine selector — a catalog preset name or the path of a
/// custom machine JSON file — into a validated [`spire_sim::Machine`].
pub(crate) fn resolve_machine_selector(selector: &str) -> Result<spire_sim::Machine, CmdError> {
    let catalog = spire_sim::MachineCatalog::builtin();
    if let Some(machine) = catalog.get(selector) {
        return Ok(machine.clone());
    }
    let text = std::fs::read_to_string(selector).map_err(|e| {
        format!(
            "`{selector}` is neither a catalog machine ({}) nor a readable machine file: {e}",
            catalog.names().join(", ")
        )
    })?;
    spire_sim::Machine::from_json(&text).map_err(|e| format!("machine file {selector}: {e}").into())
}

/// Resolves `--machine <name|path>` for sim-backed commands, defaulting
/// to the catalog's default machine when the option is absent.
pub(crate) fn resolve_machine(args: &Args) -> Result<spire_sim::Machine, CmdError> {
    match args.get("machine") {
        Some(selector) => resolve_machine_selector(selector),
        None => Ok(spire_sim::MachineCatalog::builtin()
            .default_machine()
            .clone()),
    }
}
