//! `spire update`: incremental model maintenance. Seeds an
//! [`OnlineTrainer`] from the base dataset, feeds each positional batch
//! file through the `update` pipeline step, and persists the result as an updated
//! snapshot and/or a delta (changed metric records only) against the
//! existing snapshot — both written atomically.
//!
//! With `--via-server`, batches stream to a running daemon's journaled
//! `update` endpoint instead: each batch carries a fresh idempotency key
//! so the bounded retry loop can never double-apply, and the daemon's
//! WAL — not a local snapshot file — is the durability boundary.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use spire_core::pipeline::update;
use spire_core::{write_atomic, ModelSnapshot, OnlineTrainer, SnapshotDelta};
use spire_serve::{Client, ClientConfig};

use crate::args::Args;
use crate::commands::CmdResult;

use super::{check_machine, json, load_dataset, CmdError, Runner};

/// Streams the base dataset plus every positional batch to a daemon.
fn run_via_server(args: &Args) -> CmdResult {
    let addr = args.require("addr")?;
    let model = args.require("model")?;
    let data_path = args.require("data")?;
    let config = ClientConfig {
        read_timeout: Duration::from_millis(args.get_or("timeout-ms", 30_000)?),
        retries: args.get_or("retries", 3)?,
        ..ClientConfig::default()
    };
    let mut client =
        Client::connect_with(addr, config).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    // Keys are unique per run but stable per batch, so a retried send of
    // batch `i` (after a timeout or shed) is recognized and applied once.
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0)
        ^ u128::from(std::process::id());

    let runner = Runner::from_args(args)?;
    let mut log = String::new();
    let mut last_seq = 0u64;
    let mut fingerprint = String::new();
    let mut batches = 0usize;
    let base = load_dataset(&runner, data_path)?.0;
    let base = (data_path, base.machine().cloned(), base.merged());
    let batch_paths = &args.positionals()[1..];
    let later = batch_paths
        .iter()
        .map(|p| {
            let dataset = load_dataset(&runner, p)?.0;
            Ok((p.as_str(), dataset.machine().cloned(), dataset.merged()))
        })
        .collect::<Result<Vec<_>, CmdError>>()?;
    for (label, machine, samples) in std::iter::once(base).chain(later) {
        let key = format!("spire-update-{nonce:x}-{batches}");
        let response = client
            .update_tagged(model, &samples, Some(&key), machine.as_ref())
            .map_err(|e| format!("update of {label} failed: {e}"))?;
        if !response.ok {
            return Err(response
                .error
                .unwrap_or_else(|| format!("server refused update of {label}"))
                .into());
        }
        last_seq = response.seq.unwrap_or(last_seq);
        fingerprint = response.fingerprint.clone().unwrap_or(fingerprint);
        batches += 1;
        writeln!(
            log,
            "{label}: seq {last_seq}{}{}",
            if response.applied == Some(false) {
                " (deduplicated)"
            } else {
                ""
            },
            response
                .update
                .as_ref()
                .map(|r| format!(", {}", r.summary()))
                .unwrap_or_default()
        )?;
    }
    writeln!(
        log,
        "server model {model} now at seq {last_seq} [{fingerprint}]"
    )?;

    let result = json::obj(vec![
        ("addr", json::s(addr)),
        ("model", json::s(model)),
        ("batches", json::u(batches)),
        ("last_seq", json::u(last_seq as usize)),
        ("fingerprint", json::s(fingerprint.as_str())),
    ]);
    runner.finish(args, "update", log, result)
}

/// The trainer's maintained model (present after every successful commit).
fn seeded_model(trainer: &OnlineTrainer) -> Result<&spire_core::SpireModel, CmdError> {
    trainer
        .model()
        .ok_or_else(|| "update committed no model".into())
}

pub(crate) fn run(args: &Args) -> CmdResult {
    if args.flag("via-server") {
        return run_via_server(args);
    }
    let model_path = args.require("model")?;
    let data_path = args.require("data")?;
    let snapshot_out = args.get("snapshot-out");
    let delta_out = args.get("out-delta");
    if snapshot_out.is_none() && delta_out.is_none() {
        return Err("update requires --snapshot-out and/or --out-delta".into());
    }
    let base_text = std::fs::read_to_string(model_path)
        .map_err(|e| format!("cannot read snapshot {model_path}: {e}"))?;
    let base = ModelSnapshot::from_json(&base_text)?;

    let runner = Runner::from_args(args)?;
    // An update must be fit-compatible with the base snapshot, so the
    // training options come from the snapshot itself; only the thread
    // count is a run-time choice.
    let mut config = base.config.clone();
    config.threads = args.get_or("threads", config.threads)?;
    let strictness = runner.ctx.config.strictness;

    let mut log = String::new();
    let mut trainer = OnlineTrainer::new(config, strictness)?;

    // Batch 0: the base dataset the snapshot was trained from.
    let (dataset, warn) = load_dataset(&runner, data_path)?;
    log.push_str(&warn);
    let warn = check_machine(&runner, "update", base.machine(), dataset.machine())?;
    log.push_str(&warn);
    let mut last = update(&runner.ctx, &mut trainer, &dataset.merged())?;
    writeln!(
        log,
        "seeded from {data_path}: {} samples, {} metrics",
        last.update.samples_added,
        seeded_model(&trainer)?.metric_count()
    )?;
    if ModelSnapshot::from_model(seeded_model(&trainer)?)?.fingerprint() != base.fingerprint() {
        writeln!(
            log,
            "warning: base dataset does not reproduce snapshot {model_path} \
             (fingerprints differ); the delta will carry every divergent metric"
        )?;
    }

    let batch_paths = &args.positionals()[1..];
    let mut samples_added = 0usize;
    for path in batch_paths {
        let (batch, warn) = load_dataset(&runner, path)?;
        log.push_str(&warn);
        let warn = check_machine(&runner, "update", base.machine(), batch.machine())?;
        log.push_str(&warn);
        let outcome = update(&runner.ctx, &mut trainer, &batch.merged())?;
        samples_added += outcome.update.samples_added;
        writeln!(log, "{path}: {}", outcome.update.summary())?;
        last = outcome;
    }

    let model = seeded_model(&trainer)?;
    let updated = ModelSnapshot::from_model(model)?
        .with_provenance(dataset.provenance(Some(data_path)))
        .with_train_report(last.report.clone());
    if let Some(path) = snapshot_out {
        write_atomic(Path::new(path), &updated.to_json())?;
        writeln!(
            log,
            "wrote updated snapshot (format v{}, {} checksummed records) to {path}",
            spire_core::SNAPSHOT_FORMAT_VERSION,
            model.metric_count()
        )?;
    }
    let delta = SnapshotDelta::between(&base, &updated);
    if let Some(path) = delta_out {
        write_atomic(Path::new(path), &delta.to_json())?;
        writeln!(
            log,
            "wrote delta ({} changed, {} removed of {} records) to {path}",
            delta.changed.len(),
            delta.removed.len(),
            updated.metrics.len()
        )?;
    }

    let result = json::obj(vec![
        ("model", json::s(model_path)),
        ("data", json::s(data_path)),
        ("snapshot_out", json::opt_s(snapshot_out)),
        ("delta_out", json::opt_s(delta_out)),
        ("batches", json::u(batch_paths.len())),
        ("samples_added", json::u(samples_added)),
        ("metrics", json::u(model.metric_count())),
        ("changed_records", json::u(delta.changed.len())),
        ("removed_records", json::u(delta.removed.len())),
        ("update", serde::to_content(&last.update)),
        (
            "machine",
            json::machine_pair(base.machine(), dataset.machine()),
        ),
    ]);
    runner.finish(args, "update", log, result)
}
