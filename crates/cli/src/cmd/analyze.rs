//! `spire analyze`: the `load-model`, `estimate` and `analyze` pipeline
//! steps, ranking bottleneck metrics for one workload.

use std::fmt::Write as _;

use serde::Content;
use spire_core::pipeline::{analyze, estimate};

use crate::args::Args;
use crate::commands::CmdResult;

use super::{align_samples, json, load_dataset, load_model, Runner};

pub(crate) fn run(args: &Args) -> CmdResult {
    let model_path = args.require("model")?;
    let data_path = args.require("data")?;
    let label = args.require("workload")?;
    let top: usize = args.get_or("top", 10)?;
    let runner = Runner::from_args(args)?;
    let (mut model, machine, mut out) = load_model(&runner, model_path)?;
    model.set_threads(args.get_or("threads", model.config().threads)?);
    let (dataset, warn) = load_dataset(&runner, data_path)?;
    out.push_str(&warn);
    let samples = dataset
        .get(label)
        .ok_or_else(|| format!("dataset has no workload labeled `{label}`"))?;
    let (samples, warn) = align_samples(
        &runner,
        "analyze",
        machine.as_ref(),
        dataset.machine(),
        samples,
    )?;
    out.push_str(&warn);
    let report = analyze(&runner.ctx, &estimate(&runner.ctx, &model, &samples)?)?;
    write!(
        out,
        "workload: {label}\nensemble throughput estimate: {:.4}\n\n",
        report.throughput()
    )?;
    out.push_str(&report.to_table(top));
    let rows: Vec<Content> = report.top(top).iter().map(serde::to_content).collect();
    let result = json::obj(vec![
        ("workload", json::s(label)),
        ("throughput", json::f(report.throughput())),
        ("rows", Content::Seq(rows)),
        (
            "machine",
            json::machine_pair(machine.as_ref(), dataset.machine()),
        ),
    ]);
    runner.finish(args, "analyze", out, result)
}
