//! `spire ingest` / `import-perf`: fault-tolerant `perf stat` CSV import
//! through the counters crate's `ingest` pipeline step, configured by
//! `--min-frac`, `--budget` and `--no-scale`.

use spire_counters::pipeline::ingest;
use spire_counters::{Dataset, IngestConfig};

use crate::args::Args;
use crate::commands::CmdResult;

use super::{json, Runner};

pub(crate) fn run(args: &Args) -> CmdResult {
    let csv_path = args.require("csv")?;
    let out_path = args.require("out")?;
    let label = args.get("label").unwrap_or("imported");
    let defaults = IngestConfig::default();
    let config = IngestConfig {
        min_running_frac: args.get_or("min-frac", defaults.min_running_frac)?,
        error_budget: args.get_or("budget", defaults.error_budget)?,
        scale_multiplexed: !args.flag("no-scale"),
        ..defaults
    };
    let runner = Runner::from_args(args)?;
    let text = std::fs::read_to_string(csv_path)?;
    // In strict mode the step fails when over budget, before anything is
    // written — the partial dataset only survives lenient runs.
    let out = ingest(&runner.ctx, label, &text, &config)?;
    // The full table embeds the summary as its first line.
    let mut log = if args.flag("ingest-report") {
        out.report.to_table(20)
    } else {
        format!("{}\n", out.report.summary())
    };
    let n = out.samples.len();
    let report_json = serde::to_content(&out.report);
    let mut dataset = Dataset::new();
    dataset.insert_with_report(label, out.samples, out.report);
    if args.flag("binary") {
        dataset.save_binary(out_path)?;
    } else {
        dataset.save(out_path)?;
    }
    log.push_str(&format!(
        "imported {n} samples as `{label}` into {out_path}\n"
    ));
    let result = json::obj(vec![
        ("out", json::s(out_path)),
        ("label", json::s(label)),
        ("samples", json::u(n)),
        ("report", report_json),
    ]);
    runner.finish(args, "ingest", log, result)
}
