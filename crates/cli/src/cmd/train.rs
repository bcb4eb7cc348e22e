//! `spire train`: the `build` and `train` pipeline steps over a dataset,
//! with model/snapshot persistence at the edges. With `--incremental`
//! the workloads feed an [`OnlineTrainer`] one batch each through the
//! `update` step instead of one monolithic fit — the result is
//! bit-identical, and the per-batch `model_refit`/`model_unchanged`
//! events show how much of the model each workload actually moved.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::Path;

use serde::Content;
use spire_core::pipeline::{train, update};
use spire_core::{
    normalize_set, write_atomic, MachineSpec, ModelSnapshot, OnlineTrainer, TrainOutcome,
};
use spire_counters::pipeline::build;

use crate::args::Args;
use crate::commands::CmdResult;

use super::{json, load_dataset, Runner};

pub(crate) fn run(args: &Args) -> CmdResult {
    let data_path = args.require("data")?;
    let out_path = args.get("out");
    let snapshot_path = args.get("snapshot");
    if out_path.is_none() && snapshot_path.is_none() {
        return Err("train requires --out and/or --snapshot".into());
    }
    let runner = Runner::from_args(args)?;
    let (dataset, mut log) = load_dataset(&runner, data_path)?;
    if args.flag("ingest-report") {
        let mut any = false;
        for (label, report) in dataset.reports() {
            any = true;
            writeln!(log, "{label}: {}", report.summary())?;
            if report.degraded {
                writeln!(log, "  warning: capture is degraded (possibly incomplete)")?;
            }
        }
        if !any {
            writeln!(log, "no ingest reports stored in {data_path}")?;
        }
        log.push('\n');
    }
    // `--normalize` trains a hardware-agnostic model: every sample is
    // divided by the dataset machine's peak throughput, and the snapshot's
    // machine tag flips to the normalized variant so estimate/analyze know
    // to normalize incoming data the same way.
    let normalize = args.flag("normalize");
    let machine: Option<MachineSpec> = match (normalize, dataset.machine()) {
        (true, Some(m)) => {
            runner.ctx.note(
                "train",
                format!(
                    "peak-normalizing samples by {} (peak throughput {})",
                    m.tag(),
                    m.peaks.throughput
                ),
            );
            Some(m.as_normalized())
        }
        (true, None) => {
            return Err("--normalize requires machine provenance on the dataset \
                        (collect it with `spire collect --machine ...`)"
                .into())
        }
        (false, m) => m.cloned(),
    };
    // Normalization scales each sample on its own, so normalizing the
    // merged set equals merging the normalized per-workload sets.
    let peaks = dataset.machine().filter(|_| normalize).map(|m| &m.peaks);
    let outcome = if args.flag("incremental") {
        let mut trainer = OnlineTrainer::new(
            runner.ctx.config.train.clone(),
            runner.ctx.config.strictness,
        )?;
        let mut last = None;
        for (label, set) in dataset.iter() {
            let set = match peaks {
                Some(peaks) => Cow::Owned(normalize_set(set, peaks)),
                None => Cow::Borrowed(set),
            };
            let outcome = update(&runner.ctx, &mut trainer, &set)?;
            writeln!(log, "{label}: {}", outcome.update.summary())?;
            last = Some(outcome);
        }
        let last = last.ok_or("dataset has no workloads")?;
        log.push('\n');
        let model = trainer
            .model()
            .cloned()
            .ok_or("incremental training committed no model")?;
        TrainOutcome {
            model,
            report: last.report,
            fit_notices: last.fit_notices,
        }
    } else {
        let merged = build(&runner.ctx, &dataset)?;
        let merged = match peaks {
            Some(peaks) => normalize_set(&merged, peaks),
            None => merged,
        };
        train(&runner.ctx, &merged)?
    };
    writeln!(log, "{}", outcome.report.to_table(10))?;
    if let Some(path) = out_path {
        write_atomic(Path::new(path), &serde_json::to_string(&outcome.model)?)?;
        writeln!(log, "wrote model to {path}")?;
    }
    if let Some(path) = snapshot_path {
        let mut provenance = dataset.provenance(Some(data_path));
        provenance.machine = machine.clone();
        let snapshot = ModelSnapshot::from_model(&outcome.model)?
            .with_provenance(provenance)
            .with_train_report(outcome.report.clone());
        write_atomic(Path::new(path), &snapshot.to_json())?;
        writeln!(
            log,
            "wrote snapshot (format v{}, {} checksummed records) to {path}",
            spire_core::SNAPSHOT_FORMAT_VERSION,
            outcome.model.metric_count()
        )?;
    }
    writeln!(
        log,
        "trained {} metric rooflines from {} samples",
        outcome.model.metric_count(),
        dataset.total_samples()
    )?;
    let result = json::obj(vec![
        ("data", json::s(data_path)),
        ("model_out", json::opt_s(out_path)),
        ("snapshot_out", json::opt_s(snapshot_path)),
        ("metrics", json::u(outcome.model.metric_count())),
        ("samples", json::u(dataset.total_samples())),
        ("machine", json::machine(machine.as_ref())),
        ("normalized", Content::Bool(normalize)),
        ("report", serde::to_content(&outcome.report)),
        (
            "fit_notices",
            Content::Seq(
                outcome
                    .fit_notices
                    .iter()
                    .map(|n| {
                        json::obj(vec![
                            ("metric", json::s(n.metric.as_str())),
                            ("original", json::u(n.original)),
                            ("retained", json::u(n.retained)),
                            ("cap", json::u(n.cap)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    runner.finish(args, "train", log, result)
}
