//! `spire estimate`: the `load-model` and `estimate` pipeline steps,
//! printing just the ensemble throughput for one workload.

use std::fmt::Write as _;

use serde::Content;
use spire_core::pipeline;

use crate::args::Args;
use crate::commands::CmdResult;

use super::{align_samples, json, load_dataset, load_model, Runner};

pub(crate) fn run(args: &Args) -> CmdResult {
    let model_path = args.require("model")?;
    let data_path = args.require("data")?;
    let label = args.require("workload")?;
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
        "estimate",
        machine.as_ref(),
        dataset.machine(),
        samples,
    )?;
    out.push_str(&warn);
    let estimate = pipeline::estimate(&runner.ctx, &model, &samples)?;
    writeln!(
        out,
        "workload: {label}\nensemble throughput estimate: {:.6}",
        estimate.throughput()
    )?;
    if let Some((metric, value)) = estimate.primary_bottleneck() {
        writeln!(out, "primary bottleneck: {metric} ({value:.6})")?;
    }
    writeln!(
        out,
        "metrics contributing: {} of {} trained",
        estimate.per_metric().len(),
        model.metric_count()
    )?;
    let primary = match estimate.primary_bottleneck() {
        Some((metric, value)) => json::obj(vec![
            ("metric", json::s(metric.as_str())),
            ("value", json::f(value)),
        ]),
        None => Content::Null,
    };
    let result = json::obj(vec![
        ("workload", json::s(label)),
        ("throughput", json::f(estimate.throughput())),
        ("primary_bottleneck", primary),
        ("contributing", json::u(estimate.per_metric().len())),
        ("trained", json::u(model.metric_count())),
        (
            "machine",
            json::machine_pair(machine.as_ref(), dataset.machine()),
        ),
    ]);
    runner.finish(args, "estimate", out, result)
}
