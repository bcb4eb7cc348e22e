//! The journaled update path: seeding a daemon's journal before it
//! starts, and the independent replay every served fingerprint is checked
//! against (timed layer by layer when tracing).

use std::path::Path;

use spire_core::pipeline::{PipelineConfig, RunContext};
use spire_core::snapshot::fnv1a64;
use spire_core::{
    write_atomic, ModelSnapshot, OnlineTrainer, SampleSet, SnapshotDelta, SpireModel, TrainConfig,
    TrainStrictness, SNAPSHOT_FORMAT_VERSION,
};
use spire_serve::wal::{UpdateState, Wal, WalCheckpoint, WalRecord};
use spire_serve::WalSettings;

use crate::daemon::MODEL;
use crate::trace::{mean, Tracer};
use crate::Outcome;

pub fn settings(dir: &Path, compact_every: usize) -> WalSettings {
    let mut settings = WalSettings::new(dir);
    settings.compact_records = compact_every;
    settings
}

fn ctx() -> RunContext {
    RunContext::new(PipelineConfig::default())
}

/// Cuts `samples` into `records` batches by row, every metric in every
/// batch (the corpus's rows are its intervals, in capture order).
pub fn split_rows(samples: &SampleSet, records: usize) -> Vec<SampleSet> {
    let mut batches: Vec<SampleSet> = (0..records).map(|_| SampleSet::new()).collect();
    for (metric, column) in samples.by_metric() {
        let n = column.len();
        let (t, w, m) = (column.times(), column.works(), column.metric_deltas());
        for (b, batch) in batches.iter_mut().enumerate() {
            for i in b * n / records..(b + 1) * n / records {
                batch
                    .push_parts(metric.clone(), t[i], w[i], m[i])
                    .expect("ingested samples are valid");
            }
        }
    }
    batches
}

/// Streams `batches` into a fresh journal in `dir` through the daemon's
/// own update path, before any daemon runs.
pub fn seed_journal(
    dir: &Path,
    config: &TrainConfig,
    batches: &[SampleSet],
    compact_every: usize,
) -> Result<(), String> {
    let ctx = ctx();
    let (mut state, _) = UpdateState::open(
        MODEL,
        config,
        TrainStrictness::Lenient,
        &settings(dir, compact_every),
        None,
        &ctx,
    )
    .map_err(|e| format!("cannot open seed journal: {e}"))?;
    for batch in batches {
        let json = serde_json::to_string(batch).map_err(|e| e.to_string())?;
        state
            .apply_update(batch, &json, None, &ctx)
            .map_err(|e| format!("seed update refused: {e}"))?;
    }
    Ok(())
}

/// One acknowledged update, in commit order.
pub struct Acked {
    /// The request id of the update's spans.
    pub id: u64,
    pub seq: u64,
    pub fingerprint: String,
    pub key: String,
    pub batch: SampleSet,
}

/// Where a traced replay may write, and what it replays from.
pub struct TracedWal<'a> {
    /// A copy of the journal as the daemons found it.
    pub pristine: &'a Path,
    pub scratch: &'a Path,
    pub compact_every: usize,
}

/// Rebuilds the served model with an [`OnlineTrainer`] of its own: the
/// seed batches, then every acknowledged update in commit order. After
/// each commit, `visit` sees the fingerprint and the model. Checks each
/// update's acknowledged fingerprint and returns the final one.
///
/// With `traced`, also replays the journal through the daemon's update
/// layer: `UpdateState::open` on the pristine journal, `apply_update` per
/// update, `Wal::append` of each record, and one compaction as the
/// daemon performs it.
pub fn rebuild(
    config: &TrainConfig,
    seed: &[SampleSet],
    updates: &[Acked],
    traced: Option<TracedWal<'_>>,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
    visit: &mut dyn FnMut(&str, &SpireModel, &mut Tracer),
) -> Result<Option<String>, String> {
    let mut trainer =
        OnlineTrainer::new(config.clone(), TrainStrictness::Lenient).map_err(|e| e.to_string())?;
    let mut last = None;
    for batch in seed {
        trainer.push_batch(batch);
        trainer
            .commit()
            .map_err(|e| format!("seed replay failed: {e}"))?;
        let model = trainer.model().ok_or("seed replay produced no model")?;
        let fp = snapshot_of(model)?.fingerprint();
        visit(&fp, model, tracer);
        last = Some(fp);
    }

    let ctx = ctx();
    let mut replay = match &traced {
        Some(t) => {
            let dir = t.scratch.join("replay");
            copy_dir(t.pristine, &dir)?;
            let (opened, ms) = tracer.time("serve.wal.replay", None, None, || {
                UpdateState::open(
                    MODEL,
                    config,
                    TrainStrictness::Lenient,
                    &settings(&dir, t.compact_every),
                    None,
                    &ctx,
                )
            });
            outcome.layer("serve.wal.replay_ms", ms, "ms");
            let (state, _) = opened.map_err(|e| format!("journal replay failed: {e}"))?;
            let (wal, _) = Wal::open(&t.scratch.join("append.wal")).map_err(|e| e.to_string())?;
            Some((state, wal))
        }
        None => None,
    };
    let (mut commit_ms, mut refit, mut apply_ms, mut append_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut head = match trainer.model() {
        Some(model) => snapshot_of(model)?,
        None => anchor(config),
    };
    for update in updates {
        let root = tracer.open("update.replay", None, Some(update.id));
        // A candidate trained on a clone, as the daemon commits.
        let (committed, ms) = tracer.time("core.online.commit", root, Some(update.id), || {
            let mut candidate = trainer.clone();
            candidate.push_batch(&update.batch);
            candidate.commit().map(|outcome| (candidate, outcome))
        });
        let (candidate, report) = committed.map_err(|e| format!("update replay failed: {e}"))?;
        commit_ms.push(ms);
        refit.push((report.update.refit_full.len() + report.update.refit_right.len()) as f64);
        trainer = candidate;
        let model = trainer.model().ok_or("update replay produced no model")?;
        let next = snapshot_of(model)?;
        let fp = next.fingerprint();
        if fp != update.fingerprint {
            return Err(format!(
                "update seq {} acknowledged fingerprint {} but an independent trainer over the \
                 seed and acknowledged batches reaches {fp}",
                update.seq, update.fingerprint
            ));
        }
        if let Some((state, wal)) = replay.as_mut() {
            let json = serde_json::to_string(&update.batch).map_err(|e| e.to_string())?;
            let (applied, ms) = tracer.time("serve.wal.apply", root, Some(update.id), || {
                state.apply_update(&update.batch, &json, Some(&update.key), &ctx)
            });
            applied.map_err(|e| format!("journal apply replay failed: {e}"))?;
            apply_ms.push(ms);
            let record = WalRecord {
                seq: update.seq,
                key: Some(update.key.clone()),
                batch_fingerprint: format!("{:016x}", fnv1a64(json.as_bytes())),
                batch: update.batch.clone(),
                delta: SnapshotDelta::between(&head, &next),
            };
            let (appended, ms) = tracer.time("serve.wal.append", root, Some(update.id), || {
                wal.append(&record)
            });
            appended.map_err(|_| "journal append replay failed".to_owned())?;
            append_ms.push(ms);
        }
        tracer.close(root);
        visit(&fp, model, tracer);
        head = next;
        last = Some(fp);
    }

    outcome.layer("core.online.commit_ms", mean(&commit_ms), "ms");
    outcome.layer("core.online.metrics_refit", mean(&refit), "count");
    if let (Some((_, mut wal)), Some(t)) = (replay, traced.as_ref()) {
        // Compaction as the daemon performs it: checkpoint every sample
        // atomically, then reset the journal.
        let (compacted, ms) = tracer.time("serve.wal.compact", None, None, || {
            let checkpoint = WalCheckpoint {
                format_version: SNAPSHOT_FORMAT_VERSION,
                seq: updates.last().map_or(0, |u| u.seq),
                fingerprint: head.fingerprint(),
                samples: trainer.samples().clone(),
            };
            let json = serde_json::to_string(&checkpoint).map_err(|e| e.to_string())?;
            write_atomic(&t.scratch.join("checkpoint.json"), &json).map_err(|e| e.to_string())?;
            wal.reset().map_err(|e| e.to_string())
        });
        compacted?;
        outcome.layer("serve.wal.apply_ms", mean(&apply_ms), "ms");
        outcome.layer("serve.wal.append_ms", mean(&append_ms), "ms");
        outcome.layer("serve.wal.compact_ms", ms, "ms");
    }
    Ok(last)
}

fn snapshot_of(model: &SpireModel) -> Result<ModelSnapshot, String> {
    ModelSnapshot::from_model(model).map_err(|e| e.to_string())
}

/// The journal's anchor: no metric records, the pinned configuration.
fn anchor(config: &TrainConfig) -> ModelSnapshot {
    ModelSnapshot {
        format_version: SNAPSHOT_FORMAT_VERSION,
        checksum_algorithm: "fnv1a64".to_owned(),
        config: config.clone(),
        skipped_metrics: Vec::new(),
        provenance: None,
        train_report: None,
        metrics: Vec::new(),
    }
}

pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("cannot list {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("cannot copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}
