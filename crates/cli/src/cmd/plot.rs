//! `spire plot`: render one metric's learned roofline with its samples.

use std::fmt::Write as _;

use crate::args::Args;
use crate::commands::CmdResult;

use super::{json, load_dataset, load_model, Runner};

pub(crate) fn run(args: &Args) -> CmdResult {
    let model_path = args.require("model")?;
    let data_path = args.require("data")?;
    let metric_name = args.require("metric")?;
    let out_path = args.require("out")?;
    let log_axes = !args.flag("linear");

    let runner = Runner::from_args(args)?;
    let (model, _machine, mut log) = load_model(&runner, model_path)?;
    let (dataset, warn) = load_dataset(&runner, data_path)?;
    log.push_str(&warn);
    let metric = spire_core::MetricId::new(metric_name);
    let roofline = model
        .roofline(&metric)
        .ok_or_else(|| format!("model has no roofline for `{metric_name}`"))?;

    // Plot against one workload's samples, or the whole dataset —
    // streaming (intensity, throughput) pairs straight off the column
    // slices instead of materializing an owned `Sample` per row.
    let columns: Vec<&spire_core::MetricColumn> = match args.get("workload") {
        Some(label) => dataset
            .get(label)
            .ok_or_else(|| format!("dataset has no workload labeled `{label}`"))?
            .column(&metric)
            .into_iter()
            .collect(),
        None => dataset
            .iter()
            .filter_map(|(_, set)| set.column(&metric))
            .collect(),
    };
    let n_samples: usize = columns.iter().map(|c| c.len()).sum();
    let points = columns.iter().flat_map(|c| {
        c.intensities()
            .iter()
            .copied()
            .zip(c.throughputs().iter().copied())
    });
    let chart = spire_plot::roofline_points_chart(roofline, points, log_axes);
    spire_core::write_atomic(std::path::Path::new(out_path), &chart.to_svg(720, 480))?;
    writeln!(
        log,
        "plotted `{metric_name}` ({n_samples} samples) to {out_path}"
    )?;
    let result = json::obj(vec![
        ("metric", json::s(metric_name)),
        ("out", json::s(out_path)),
        ("samples", json::u(n_samples)),
        ("log_axes", serde::Content::Bool(log_axes)),
    ]);
    runner.finish(args, "plot", log, result)
}
