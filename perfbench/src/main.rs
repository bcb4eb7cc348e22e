//! perfbench: the SPIRE benchmark.
//!
//! One run takes one workload through SPIRE's whole deployment shape,
//! train once and analyze many: `spire ingest → train → analyze` passes
//! over a seeded perf-stat capture, a `spire serve` daemon started on
//! the trained snapshot, open-loop reads and journaled updates against
//! it over loopback, and a search for the highest read rate that meets
//! the latency limit. The workloads differ in their traffic mix (see
//! `workloads.json`). Correctness checks run after the timed phases, and
//! the last stdout line is the JSON result.
//!
//! ```text
//! perfbench --workload <pipeline|serve-analyze|serve-update> --seed N
//!           --seconds S --trace <0|1> --spire <path> --work <dir> [--smoke]
//! ```
//!
//! With `--trace 1` the run also times each layer's public functions
//! from this benchmark's code (nothing inside the program is
//! instrumented), prints the per-layer metrics instead of the end-to-end
//! ones, and writes its spans to `<work>/trace/<workload>-seed<N>.json`.

mod daemon;
mod gen;
mod lifecycle;
mod loadgen;
mod offline;
mod online;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;

use serde::Serialize;

use crate::gen::Corpus;

/// How the run was asked to go.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spire: PathBuf,
    pub work: PathBuf,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut spire, mut work, mut smoke) = (None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--spire" => spire = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    let seconds = seconds.unwrap_or(30.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        spire: spire.ok_or("--spire is required")?,
        work: work.unwrap_or_else(|| PathBuf::from(".bench_work")),
        smoke,
    })
}

/// Which reads a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// The four held-out captures again and again, half estimate and
    /// half analyze: after the first of each, the result cache answers.
    HeldOut,
    /// A fresh paper-size workload every time, half estimate and half
    /// analyze: the cache never hits.
    Distinct,
    /// Small analyze requests repeated from a fixed pool.
    Pool,
}

/// One workload's traffic mix and sizes. The phases and their order are
/// the same for every workload; the shares split `--seconds` between the
/// timed phases.
#[derive(Debug, Clone)]
pub struct Spec {
    pub corpus: Corpus,
    /// Rows per metric of a `Distinct` read (20 rows ≈ 8.5 k samples).
    pub request_rows: usize,
    /// Rows per metric of an update batch.
    pub update_rows: usize,
    /// Share of the window spent on pipeline passes; at least
    /// `min_passes` run in any case.
    pub pass_share: f64,
    pub min_passes: usize,
    /// The corpus is also streamed into the daemon's journal as this many
    /// update records before the daemon starts.
    pub seed_records: usize,
    pub reads: Reads,
    pub read_rate: f64,
    pub read_share: f64,
    pub updates: usize,
    /// Updates run beside the reads, on a connection of their own;
    /// otherwise after the capacity search.
    pub updates_beside_reads: bool,
    pub update_share: f64,
    pub capacity_share: f64,
    /// Most steps of the capacity ladder; each lasts a quarter of its share.
    pub capacity_steps: usize,
    pub compact_every: usize,
    pub setups: usize,
    /// Peak RSS is the largest child process's (an ingest step) instead of
    /// the daemon's.
    pub rss_from_passes: bool,
}

pub const WORKLOADS: [&str; 3] = ["pipeline", "serve-analyze", "serve-update"];

/// Rows per metric of a `Pool` read and of a held-out capture: one row is
/// the ~400 samples `spire collect` emits per workload.
pub const SMALL_ROWS: usize = 1;
/// Distinct `Pool` reads.
pub const POOL: u64 = 16;

pub fn spec(workload: &str, smoke: bool) -> Result<Spec, String> {
    let metrics = if smoke { 12 } else { 424 };
    let paper = Corpus {
        metrics,
        intervals: if smoke { 96 } else { 3072 },
        wide: metrics / 4,
        front: if smoke { 24 } else { 1024 },
    };
    let base = Spec {
        corpus: paper,
        request_rows: if smoke { 4 } else { 20 },
        update_rows: SMALL_ROWS,
        pass_share: 0.0,
        min_passes: if smoke { 3 } else { 4 },
        seed_records: 0,
        reads: Reads::Distinct,
        read_rate: 12.0,
        read_share: 0.55,
        updates: 16,
        updates_beside_reads: false,
        update_share: 0.1,
        capacity_share: 0.35,
        capacity_steps: if smoke { 2 } else { 6 },
        compact_every: if smoke { 5 } else { 20 },
        setups: if smoke { 2 } else { 9 },
        rss_from_passes: false,
    };
    match workload {
        "pipeline" => Ok(Spec {
            pass_share: 0.2,
            reads: Reads::HeldOut,
            read_rate: 10.0,
            read_share: 0.35,
            capacity_share: 0.35,
            rss_from_passes: true,
            ..base
        }),
        "serve-analyze" => Ok(base),
        "serve-update" => Ok(Spec {
            corpus: Corpus {
                intervals: if smoke { 64 } else { 1024 },
                front: if smoke { 16 } else { 341 },
                ..paper
            },
            seed_records: if smoke { 2 } else { 4 },
            update_rows: if smoke { 4 } else { 20 },
            reads: Reads::Pool,
            read_rate: 10.0,
            read_share: 0.75,
            updates: if smoke { 6 } else { 32 },
            updates_beside_reads: true,
            update_share: 0.0,
            capacity_share: 0.25,
            // The last update crosses the one compaction: a stall earlier
            // in the stream would delay a varying number of the updates
            // queued behind it, and with them update_p90_ms.
            compact_every: if smoke { 8 } else { 36 },
            setups: if smoke { 2 } else { 3 },
            ..base
        }),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// One reported number.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// What a run produced: the result line's fields plus the trace's extras.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that did not hold; any one makes the run incorrect.
    pub problems: Vec<String>,
    pub end_to_end: Vec<(String, Metric)>,
    pub per_layer: Vec<(String, Metric)>,
    /// Notes for the trace file (sample counts, bases of ratios).
    pub notes: Vec<(String, f64)>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        push(&mut self.end_to_end, name, value, unit);
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        push(&mut self.per_layer, name, value, unit);
    }

    pub fn note(&mut self, name: &str, value: f64) {
        self.notes.push((name.to_owned(), value));
    }

    pub fn problem(&mut self, text: impl Into<String>) {
        let text = text.into();
        eprintln!("perfbench: check failed: {text}");
        self.problems.push(text);
    }
}

fn push(list: &mut Vec<(String, Metric)>, name: &str, value: f64, unit: &str) {
    list.push((
        name.to_owned(),
        Metric {
            value,
            unit: unit.to_owned(),
        },
    ));
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: std::collections::BTreeMap<String, Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match lifecycle::run(&args) {
        Ok(outcome) => {
            let metrics = if args.trace {
                &outcome.per_layer
            } else {
                &outcome.end_to_end
            };
            let line = ResultLine {
                correct: outcome.problems.is_empty(),
                attempted: outcome.attempted.max(1),
                failed: outcome.failed,
                metrics: metrics.iter().cloned().collect(),
            };
            println!(
                "{}",
                serde_json::to_string(&line).expect("the result line serializes")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
