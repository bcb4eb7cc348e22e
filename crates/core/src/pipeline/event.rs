//! The typed event taxonomy of the diagnostics bus.
//!
//! Every decision a pipeline stage makes that used to live only inside a
//! returned report struct — a quarantined metric, a salvaged snapshot
//! record, budget consumption — is mirrored as an [`Event`] so sinks can
//! observe a run without threading report types through every caller.

use serde::{Content, Serialize};

/// How an event affects the overall run outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Progress or bookkeeping; does not change the run outcome.
    Info,
    /// Noteworthy but non-degrading (e.g. lossy-but-requested thinning).
    Warning,
    /// The run completed by dropping or quarantining part of its input;
    /// maps to the CLI's exit code 2.
    Degraded,
    /// A stage failed outright; maps to the CLI's exit code 1.
    Error,
}

/// One structured diagnostics event emitted by a pipeline stage.
///
/// Field types are deliberately primitive (strings and numbers) so the
/// taxonomy serializes to a flat, stable JSON schema — see README
/// "Machine-readable output" — and sinks need no spire-core type
/// knowledge beyond this enum.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A stage began executing.
    StageStarted {
        /// The stage's name (`ingest`, `build`, `train`, `estimate`, `analyze`, …).
        stage: String,
        /// Input item count, when the stage can measure it.
        items_in: Option<usize>,
    },
    /// A stage finished successfully.
    StageFinished {
        /// The stage's name.
        stage: String,
        /// Wall-clock time the stage took, in milliseconds.
        wall_ms: f64,
        /// Input item count, when measurable.
        items_in: Option<usize>,
        /// Output item count, when measurable.
        items_out: Option<usize>,
    },
    /// A stage returned an error; the pipeline stops here.
    StageFailed {
        /// The stage's name.
        stage: String,
        /// The error's display text.
        error: String,
    },
    /// Training quarantined one metric instead of failing the run
    /// (mirrors [`crate::QuarantinedMetric`]).
    MetricQuarantined {
        /// The quarantined metric.
        metric: String,
        /// Machine-readable reason (`fit_panicked`, `fit_failed`,
        /// `invariant_violation`).
        reason: String,
        /// Human-readable detail from the underlying error.
        detail: String,
    },
    /// Ingest quarantined rows for one reason (mirrors one entry of
    /// `IngestReport::quarantined_by_reason`).
    RowsQuarantined {
        /// Machine-readable quarantine reason.
        reason: String,
        /// Number of rows quarantined for this reason.
        rows: usize,
    },
    /// A lenient binary column-file load quarantined one damaged data
    /// chunk (checksum mismatch or out-of-bounds range), dropping its
    /// rows.
    ChunkQuarantined {
        /// Dataset section (workload label) the chunk belonged to.
        label: String,
        /// Metric whose column lost rows.
        metric: String,
        /// Index of the chunk within its column.
        chunk: usize,
        /// Rows dropped with the chunk.
        rows: usize,
        /// Why the chunk was rejected.
        reason: String,
    },
    /// A lenient snapshot load dropped one damaged metric record.
    SnapshotRecordDropped {
        /// The dropped metric.
        metric: String,
        /// Why the record was unusable.
        reason: String,
    },
    /// A lenient snapshot load completed by dropping records.
    SnapshotSalvaged {
        /// Where the snapshot came from (path or description).
        source: String,
        /// Records dropped.
        dropped: usize,
        /// Records present in the snapshot.
        total: usize,
    },
    /// The capture that produced an ingested dataset was itself flagged
    /// as degraded (possibly incomplete).
    CaptureDegraded {
        /// Dataset label.
        label: String,
        /// Why the capture is suspect.
        reason: String,
    },
    /// How much of a stage's error budget a run consumed.
    BudgetConsumed {
        /// The stage's name.
        stage: String,
        /// Fraction of the input quarantined (0.0–1.0).
        consumed: f64,
        /// The configured budget (0.0–1.0).
        budget: f64,
        /// Whether consumption exceeded the budget.
        exceeded: bool,
    },
    /// A Pareto front was lossily thinned before the right-region fit
    /// (only with `FitOptions::thin_front`).
    FrontThinned {
        /// The metric being fitted.
        metric: String,
        /// Front size before thinning.
        original: usize,
        /// Front size after thinning.
        retained: usize,
        /// The configured `max_front_size` cap.
        cap: usize,
    },
    /// An incremental update refitted one metric from its full column
    /// (mirrors one entry of [`crate::UpdateReport`]'s `refit_full`).
    ModelRefit {
        /// The refitted metric.
        metric: String,
    },
    /// An incremental update left one metric's model untouched because
    /// every new sample was an exact no-op for its fit.
    ModelUnchanged {
        /// The unchanged metric.
        metric: String,
    },
    /// A serving-layer request was shed because its model's bounded queue
    /// was full (the backpressure alternative to silent drops).
    RequestShed {
        /// The model the request targeted.
        model: String,
        /// Queue depth at shed time.
        depth: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// A serving-layer request panicked and was contained at the request
    /// boundary (`parallel::run_catching`); the connection got a typed
    /// error and the worker kept running.
    RequestIsolated {
        /// Request kind (`estimate`, `analyze`, …) — named `request` so it
        /// does not collide with the JSON `kind` discriminator.
        request: String,
        /// The recovered panic message.
        detail: String,
    },
    /// A serving-layer model was hot-reloaded by atomic snapshot swap.
    ModelReloaded {
        /// The reloaded model's registry name.
        model: String,
        /// Snapshot fingerprint before the swap.
        old_fingerprint: String,
        /// Snapshot fingerprint after the swap.
        new_fingerprint: String,
    },
    /// A serving-layer model was advanced in place by a committed
    /// `update` batch — the write-side counterpart of
    /// [`Event::ModelReloaded`].
    ModelUpdated {
        /// The updated model's registry name.
        model: String,
        /// Journal sequence number of the committed record.
        seq: u64,
        /// Snapshot fingerprint before the update.
        old_fingerprint: String,
        /// Snapshot fingerprint after the update.
        new_fingerprint: String,
        /// Samples in the committed batch.
        samples: usize,
    },
    /// A retried `update` carried an idempotency key the server had
    /// already committed; it was acknowledged without being re-applied.
    UpdateDeduplicated {
        /// The targeted model.
        model: String,
        /// The journal sequence the original commit got.
        seq: u64,
        /// The caller-supplied idempotency key.
        key: String,
    },
    /// Journal replay found a torn or corrupt record at the tail and
    /// truncated the file back to the last whole record. Warning, not
    /// Degraded: a torn tail is a record the crash prevented from being
    /// acknowledged, so dropping it loses nothing a client was promised.
    WalTruncated {
        /// The model whose journal was repaired.
        model: String,
        /// Whole records that survived and were replayed.
        valid_records: usize,
        /// Bytes cut from the tail.
        dropped_bytes: u64,
    },
    /// The write-ahead journal was compacted: its records were folded
    /// into a checkpoint written atomically, then the journal reset.
    WalCompacted {
        /// The model whose journal was compacted.
        model: String,
        /// Highest sequence number covered by the checkpoint.
        seq: u64,
        /// Journal records folded into the checkpoint.
        records: usize,
    },
    /// A supervised serve worker panicked outside request containment
    /// and was respawned in place.
    WorkerRestarted {
        /// Worker index within the pool.
        worker: usize,
        /// Restarts consumed so far (this one included), pool-wide.
        restarts: u64,
        /// The configured restart budget.
        budget: u64,
        /// The recovered panic message.
        detail: String,
    },
    /// The worker restart budget is exhausted; the daemon stopped
    /// accepting writes/work it can no longer do instead of
    /// crash-looping.
    DaemonReadOnly {
        /// Why the daemon degraded.
        reason: String,
    },
    /// A model and a dataset carry provenance from different machines
    /// (differing [`MachineSpec`](crate::MachineSpec) fingerprints or
    /// normalization units). Lenient runs emit this and continue
    /// degraded; strict runs refuse with
    /// [`SpireError::MachineMismatch`](crate::SpireError).
    MachineMismatch {
        /// Which operation tripped the check (`estimate`, `analyze`,
        /// `update`).
        context: String,
        /// Name of the machine the model was trained on.
        model_machine: String,
        /// Config fingerprint of the model's machine.
        model_fingerprint: String,
        /// Name of the machine the data came from.
        data_machine: String,
        /// Config fingerprint of the data's machine.
        data_fingerprint: String,
    },
    /// Free-form progress text (the bench bins' narration).
    Note {
        /// The stage or context name.
        stage: String,
        /// The message.
        text: String,
    },
}

impl Event {
    /// Machine-readable discriminator, stable across releases (the
    /// `kind` field of the JSON encoding).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::StageStarted { .. } => "stage_started",
            Event::StageFinished { .. } => "stage_finished",
            Event::StageFailed { .. } => "stage_failed",
            Event::MetricQuarantined { .. } => "metric_quarantined",
            Event::RowsQuarantined { .. } => "rows_quarantined",
            Event::ChunkQuarantined { .. } => "chunk_quarantined",
            Event::SnapshotRecordDropped { .. } => "snapshot_record_dropped",
            Event::SnapshotSalvaged { .. } => "snapshot_salvaged",
            Event::CaptureDegraded { .. } => "capture_degraded",
            Event::BudgetConsumed { .. } => "budget_consumed",
            Event::FrontThinned { .. } => "front_thinned",
            Event::ModelRefit { .. } => "model_refit",
            Event::ModelUnchanged { .. } => "model_unchanged",
            Event::RequestShed { .. } => "request_shed",
            Event::RequestIsolated { .. } => "request_isolated",
            Event::ModelReloaded { .. } => "model_reloaded",
            Event::ModelUpdated { .. } => "model_updated",
            Event::UpdateDeduplicated { .. } => "update_deduplicated",
            Event::WalTruncated { .. } => "wal_truncated",
            Event::WalCompacted { .. } => "wal_compacted",
            Event::WorkerRestarted { .. } => "worker_restarted",
            Event::DaemonReadOnly { .. } => "daemon_read_only",
            Event::MachineMismatch { .. } => "machine_mismatch",
            Event::Note { .. } => "note",
        }
    }

    /// The event's severity; [`Severity::Degraded`] events flip the
    /// bus's degraded flag, which the CLI maps to exit code 2.
    pub fn severity(&self) -> Severity {
        match self {
            Event::StageFailed { .. } => Severity::Error,
            Event::MetricQuarantined { .. }
            | Event::RowsQuarantined { .. }
            | Event::ChunkQuarantined { .. }
            | Event::SnapshotRecordDropped { .. }
            | Event::SnapshotSalvaged { .. }
            | Event::CaptureDegraded { .. }
            | Event::RequestShed { .. }
            | Event::RequestIsolated { .. }
            | Event::WorkerRestarted { .. }
            | Event::DaemonReadOnly { .. }
            | Event::MachineMismatch { .. } => Severity::Degraded,
            Event::FrontThinned { .. } | Event::WalTruncated { .. } => Severity::Warning,
            Event::BudgetConsumed { exceeded, .. } => {
                if *exceeded {
                    Severity::Warning
                } else {
                    Severity::Info
                }
            }
            _ => Severity::Info,
        }
    }

    /// One human-readable line describing the event (the stderr sink's
    /// rendering, without a prefix).
    pub fn render(&self) -> String {
        match self {
            Event::StageStarted { stage, items_in } => match items_in {
                Some(n) => format!("stage {stage} started ({n} items)"),
                None => format!("stage {stage} started"),
            },
            Event::StageFinished {
                stage,
                wall_ms,
                items_out,
                ..
            } => match items_out {
                Some(n) => format!("stage {stage} finished in {wall_ms:.1} ms ({n} items out)"),
                None => format!("stage {stage} finished in {wall_ms:.1} ms"),
            },
            Event::StageFailed { stage, error } => format!("stage {stage} failed: {error}"),
            Event::MetricQuarantined {
                metric,
                reason,
                detail,
            } => format!("quarantined metric {metric} ({reason}): {detail}"),
            Event::RowsQuarantined { reason, rows } => {
                format!("quarantined {rows} rows: {reason}")
            }
            Event::ChunkQuarantined {
                label,
                metric,
                chunk,
                rows,
                reason,
            } => format!("quarantined chunk {chunk} of {label}/{metric} ({rows} rows): {reason}"),
            Event::SnapshotRecordDropped { metric, reason } => {
                format!("dropped snapshot record {metric}: {reason}")
            }
            Event::SnapshotSalvaged {
                source,
                dropped,
                total,
            } => format!("salvaged snapshot {source}: {dropped} of {total} metric records dropped"),
            Event::CaptureDegraded { label, reason } => {
                format!("capture {label} is degraded: {reason}")
            }
            Event::BudgetConsumed {
                stage,
                consumed,
                budget,
                exceeded,
            } => format!(
                "{stage} error budget: consumed {:.1}% of {:.1}%{}",
                consumed * 100.0,
                budget * 100.0,
                if *exceeded { " (EXCEEDED)" } else { "" }
            ),
            Event::FrontThinned {
                metric,
                original,
                retained,
                cap,
            } => format!(
                "thinning {metric} Pareto front from {original} to {retained} samples \
                 (thin_front enabled, max_front_size = {cap})"
            ),
            Event::ModelRefit { metric } => format!("refit metric {metric}"),
            Event::ModelUnchanged { metric } => {
                format!("metric {metric} unchanged (all new samples dominated)")
            }
            Event::RequestShed {
                model,
                depth,
                capacity,
            } => format!("shed request for model {model}: queue full ({depth}/{capacity})"),
            Event::RequestIsolated { request, detail } => {
                format!("isolated panicking {request} request: {detail}")
            }
            Event::ModelReloaded {
                model,
                old_fingerprint,
                new_fingerprint,
            } => format!("reloaded model {model}: {old_fingerprint} -> {new_fingerprint}"),
            Event::ModelUpdated {
                model,
                seq,
                old_fingerprint,
                new_fingerprint,
                samples,
            } => format!(
                "updated model {model} (seq {seq}, {samples} samples): \
                 {old_fingerprint} -> {new_fingerprint}"
            ),
            Event::UpdateDeduplicated { model, seq, key } => {
                format!("deduplicated retried update for {model} (key {key}, seq {seq})")
            }
            Event::WalTruncated {
                model,
                valid_records,
                dropped_bytes,
            } => format!(
                "truncated torn journal tail for {model}: kept {valid_records} records, \
                 dropped {dropped_bytes} bytes"
            ),
            Event::WalCompacted {
                model,
                seq,
                records,
            } => format!("compacted journal for {model}: {records} records folded at seq {seq}"),
            Event::WorkerRestarted {
                worker,
                restarts,
                budget,
                detail,
            } => format!("restarted panicked worker {worker} ({restarts}/{budget}): {detail}"),
            Event::DaemonReadOnly { reason } => {
                format!("daemon degraded to read-only: {reason}")
            }
            Event::MachineMismatch {
                context,
                model_machine,
                model_fingerprint,
                data_machine,
                data_fingerprint,
            } => format!(
                "machine mismatch in {context}: model is from {model_machine} \
                 [{model_fingerprint}] but the data is from {data_machine} [{data_fingerprint}]"
            ),
            Event::Note { text, .. } => text.clone(),
        }
    }
}

fn field(key: &str, value: Content) -> (Content, Content) {
    (Content::Str(key.to_owned()), value)
}

fn opt_usize(v: &Option<usize>) -> Content {
    match v {
        Some(n) => Content::U64(*n as u64),
        None => Content::Null,
    }
}

/// Events serialize to a flat map with a `kind` discriminator plus the
/// variant's fields, so JSON-lines consumers can dispatch on one key.
impl Serialize for Event {
    fn serialize<S: serde::ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut entries = vec![field("kind", Content::Str(self.kind().to_owned()))];
        match self {
            Event::StageStarted { stage, items_in } => {
                entries.push(field("stage", Content::Str(stage.clone())));
                entries.push(field("items_in", opt_usize(items_in)));
            }
            Event::StageFinished {
                stage,
                wall_ms,
                items_in,
                items_out,
            } => {
                entries.push(field("stage", Content::Str(stage.clone())));
                entries.push(field("wall_ms", Content::F64(*wall_ms)));
                entries.push(field("items_in", opt_usize(items_in)));
                entries.push(field("items_out", opt_usize(items_out)));
            }
            Event::StageFailed { stage, error } => {
                entries.push(field("stage", Content::Str(stage.clone())));
                entries.push(field("error", Content::Str(error.clone())));
            }
            Event::MetricQuarantined {
                metric,
                reason,
                detail,
            } => {
                entries.push(field("metric", Content::Str(metric.clone())));
                entries.push(field("reason", Content::Str(reason.clone())));
                entries.push(field("detail", Content::Str(detail.clone())));
            }
            Event::RowsQuarantined { reason, rows } => {
                entries.push(field("reason", Content::Str(reason.clone())));
                entries.push(field("rows", Content::U64(*rows as u64)));
            }
            Event::ChunkQuarantined {
                label,
                metric,
                chunk,
                rows,
                reason,
            } => {
                entries.push(field("label", Content::Str(label.clone())));
                entries.push(field("metric", Content::Str(metric.clone())));
                entries.push(field("chunk", Content::U64(*chunk as u64)));
                entries.push(field("rows", Content::U64(*rows as u64)));
                entries.push(field("reason", Content::Str(reason.clone())));
            }
            Event::SnapshotRecordDropped { metric, reason } => {
                entries.push(field("metric", Content::Str(metric.clone())));
                entries.push(field("reason", Content::Str(reason.clone())));
            }
            Event::SnapshotSalvaged {
                source,
                dropped,
                total,
            } => {
                entries.push(field("source", Content::Str(source.clone())));
                entries.push(field("dropped", Content::U64(*dropped as u64)));
                entries.push(field("total", Content::U64(*total as u64)));
            }
            Event::CaptureDegraded { label, reason } => {
                entries.push(field("label", Content::Str(label.clone())));
                entries.push(field("reason", Content::Str(reason.clone())));
            }
            Event::BudgetConsumed {
                stage,
                consumed,
                budget,
                exceeded,
            } => {
                entries.push(field("stage", Content::Str(stage.clone())));
                entries.push(field("consumed", Content::F64(*consumed)));
                entries.push(field("budget", Content::F64(*budget)));
                entries.push(field("exceeded", Content::Bool(*exceeded)));
            }
            Event::FrontThinned {
                metric,
                original,
                retained,
                cap,
            } => {
                entries.push(field("metric", Content::Str(metric.clone())));
                entries.push(field("original", Content::U64(*original as u64)));
                entries.push(field("retained", Content::U64(*retained as u64)));
                entries.push(field("cap", Content::U64(*cap as u64)));
            }
            Event::ModelRefit { metric } | Event::ModelUnchanged { metric } => {
                entries.push(field("metric", Content::Str(metric.clone())));
            }
            Event::RequestShed {
                model,
                depth,
                capacity,
            } => {
                entries.push(field("model", Content::Str(model.clone())));
                entries.push(field("depth", Content::U64(*depth as u64)));
                entries.push(field("capacity", Content::U64(*capacity as u64)));
            }
            Event::RequestIsolated { request, detail } => {
                entries.push(field("request", Content::Str(request.clone())));
                entries.push(field("detail", Content::Str(detail.clone())));
            }
            Event::ModelReloaded {
                model,
                old_fingerprint,
                new_fingerprint,
            } => {
                entries.push(field("model", Content::Str(model.clone())));
                entries.push(field(
                    "old_fingerprint",
                    Content::Str(old_fingerprint.clone()),
                ));
                entries.push(field(
                    "new_fingerprint",
                    Content::Str(new_fingerprint.clone()),
                ));
            }
            Event::ModelUpdated {
                model,
                seq,
                old_fingerprint,
                new_fingerprint,
                samples,
            } => {
                entries.push(field("model", Content::Str(model.clone())));
                entries.push(field("seq", Content::U64(*seq)));
                entries.push(field(
                    "old_fingerprint",
                    Content::Str(old_fingerprint.clone()),
                ));
                entries.push(field(
                    "new_fingerprint",
                    Content::Str(new_fingerprint.clone()),
                ));
                entries.push(field("samples", Content::U64(*samples as u64)));
            }
            Event::UpdateDeduplicated { model, seq, key } => {
                entries.push(field("model", Content::Str(model.clone())));
                entries.push(field("seq", Content::U64(*seq)));
                entries.push(field("key", Content::Str(key.clone())));
            }
            Event::WalTruncated {
                model,
                valid_records,
                dropped_bytes,
            } => {
                entries.push(field("model", Content::Str(model.clone())));
                entries.push(field("valid_records", Content::U64(*valid_records as u64)));
                entries.push(field("dropped_bytes", Content::U64(*dropped_bytes)));
            }
            Event::WalCompacted {
                model,
                seq,
                records,
            } => {
                entries.push(field("model", Content::Str(model.clone())));
                entries.push(field("seq", Content::U64(*seq)));
                entries.push(field("records", Content::U64(*records as u64)));
            }
            Event::WorkerRestarted {
                worker,
                restarts,
                budget,
                detail,
            } => {
                entries.push(field("worker", Content::U64(*worker as u64)));
                entries.push(field("restarts", Content::U64(*restarts)));
                entries.push(field("budget", Content::U64(*budget)));
                entries.push(field("detail", Content::Str(detail.clone())));
            }
            Event::DaemonReadOnly { reason } => {
                entries.push(field("reason", Content::Str(reason.clone())));
            }
            Event::MachineMismatch {
                context,
                model_machine,
                model_fingerprint,
                data_machine,
                data_fingerprint,
            } => {
                entries.push(field("context", Content::Str(context.clone())));
                entries.push(field("model_machine", Content::Str(model_machine.clone())));
                entries.push(field(
                    "model_fingerprint",
                    Content::Str(model_fingerprint.clone()),
                ));
                entries.push(field("data_machine", Content::Str(data_machine.clone())));
                entries.push(field(
                    "data_fingerprint",
                    Content::Str(data_fingerprint.clone()),
                ));
            }
            Event::Note { stage, text } => {
                entries.push(field("stage", Content::Str(stage.clone())));
                entries.push(field("text", Content::Str(text.clone())));
            }
        }
        serializer.serialize_content(Content::Map(entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_severity_matches_exit_code_semantics() {
        assert_eq!(
            Event::MetricQuarantined {
                metric: "m".into(),
                reason: "fit_failed".into(),
                detail: "d".into(),
            }
            .severity(),
            Severity::Degraded
        );
        assert_eq!(
            Event::FrontThinned {
                metric: "m".into(),
                original: 10,
                retained: 5,
                cap: 5,
            }
            .severity(),
            Severity::Warning,
            "requested lossy thinning must not flip the degraded exit code"
        );
        assert_eq!(
            Event::StageFailed {
                stage: "train".into(),
                error: "boom".into(),
            }
            .severity(),
            Severity::Error
        );
        assert_eq!(
            Event::WorkerRestarted {
                worker: 0,
                restarts: 1,
                budget: 4,
                detail: "boom".into(),
            }
            .severity(),
            Severity::Degraded
        );
        assert_eq!(
            Event::DaemonReadOnly { reason: "r".into() }.severity(),
            Severity::Degraded
        );
        assert_eq!(
            Event::WalTruncated {
                model: "m".into(),
                valid_records: 3,
                dropped_bytes: 17,
            }
            .severity(),
            Severity::Warning,
            "a torn tail drops only unacknowledged work; it must not flip exit 2"
        );
        assert_eq!(
            Event::MachineMismatch {
                context: "analyze".into(),
                model_machine: "skylake-server".into(),
                model_fingerprint: "aaaa".into(),
                data_machine: "little".into(),
                data_fingerprint: "bbbb".into(),
            }
            .severity(),
            Severity::Degraded,
            "a lenient cross-machine run completes but must exit 2"
        );
    }

    #[test]
    fn machine_mismatch_serializes_both_fingerprints() {
        let json = serde_json::to_string(&Event::MachineMismatch {
            context: "estimate".into(),
            model_machine: "hpc".into(),
            model_fingerprint: "aaaa".into(),
            data_machine: "edge".into(),
            data_fingerprint: "bbbb".into(),
        })
        .unwrap();
        assert!(json.contains("\"kind\":\"machine_mismatch\""), "{json}");
        assert!(json.contains("\"model_fingerprint\":\"aaaa\""), "{json}");
        assert!(json.contains("\"data_fingerprint\":\"bbbb\""), "{json}");
    }

    #[test]
    fn events_serialize_with_a_kind_discriminator() {
        let json = serde_json::to_string(&Event::RowsQuarantined {
            reason: "not_counted".into(),
            rows: 3,
        })
        .unwrap();
        assert!(json.contains("\"kind\":\"rows_quarantined\""), "{json}");
        assert!(json.contains("\"rows\":3"), "{json}");
    }
}
