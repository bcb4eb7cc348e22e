//! The committed `BENCH_*.json` reports as typed values, each declaring
//! the gates it must pass.
//!
//! A writer builds its report and hands it to [`finish`], which prints
//! every failed gate, writes the file atomically on a full run when all
//! gates hold, and exits non-zero otherwise. `tests/committed_gates.rs`
//! reads each committed file back through [`load`] and asserts the same
//! gates, so one declaration checks both fresh runs and the numbers the
//! repo claims.

// Report fields are named after the committed files' JSON keys.
#![allow(missing_docs)]

use std::collections::BTreeMap;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

/// One named pass/fail check on a report.
#[derive(Debug)]
pub struct Gate {
    /// The claim, e.g. `load_speedup >= 10`.
    pub name: &'static str,
    /// Whether the report satisfies it.
    pub passed: bool,
    /// The claim only means something at paper scale: toy-size timings
    /// are noise, so a `--quick` run reports but does not enforce it.
    pub paper_scale: bool,
}

impl Gate {
    fn new(name: &'static str, passed: bool) -> Self {
        Gate {
            name,
            passed,
            paper_scale: false,
        }
    }

    fn at_paper_scale(self) -> Self {
        Gate {
            paper_scale: true,
            ..self
        }
    }
}

/// A report committed as `{ KEY: report }` in `FILE` at the workspace root.
pub trait Report: Serialize + for<'de> Deserialize<'de> {
    /// File name at the workspace root.
    const FILE: &'static str;
    /// The top-level key wrapping the report in that file.
    const KEY: &'static str;
    /// Every claim the report makes, evaluated.
    fn gates(&self) -> Vec<Gate>;
}

/// Where `R` is committed.
pub fn path<R: Report>() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(R::FILE)
}

/// Reads the committed `R`.
///
/// # Errors
///
/// The file is unreadable, is not JSON of `R`'s shape, or lacks `R::KEY`.
pub fn load<R: Report>() -> Result<R, String> {
    let path = path::<R>();
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let text = std::fs::read_to_string(&path).map_err(|e| err(&e))?;
    let mut doc: BTreeMap<String, R> = serde_json::from_str(&text).map_err(|e| err(&e))?;
    doc.remove(R::KEY)
        .ok_or_else(|| err(&format!("no `{}` key", R::KEY)))
}

/// `report` as its committed file's text.
pub fn to_json<R: Report>(report: &R) -> String {
    let doc = BTreeMap::from([(R::KEY, report)]);
    serde_json::to_string_pretty(&doc).expect("report serializes")
}

/// The shared end of every writer: prints each failed gate, then exits 1
/// if any enforced gate failed; otherwise a full run (`quick == false`)
/// writes the report atomically. Paper-scale gates are not enforced on
/// quick runs. A failing report is never written, so the committed file
/// only changes to numbers that pass.
pub fn finish<R: Report>(report: &R, quick: bool) {
    let mut failed = false;
    for gate in report.gates().into_iter().filter(|g| !g.passed) {
        if quick && gate.paper_scale {
            println!("not enforced at quick scale: {}", gate.name);
        } else {
            eprintln!("FAIL: {}", gate.name);
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    if !quick {
        let path = path::<R>();
        spire_core::write_atomic(&path, &to_json(report))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// `BENCH_dataset.json`: JSON vs binary dataset loads at paper scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IoCase {
    pub metrics: usize,
    pub rows_per_metric: usize,
    pub total_samples: usize,
    pub json_bytes: usize,
    pub binary_bytes: usize,
    pub json_load_ms: f64,
    pub binary_load_ms: f64,
    pub load_speedup: f64,
    pub loads_bit_identical: bool,
}

impl Report for IoCase {
    const FILE: &'static str = "BENCH_dataset.json";
    const KEY: &'static str = "dataset_io";

    fn gates(&self) -> Vec<Gate> {
        vec![
            Gate::new("loads_bit_identical", self.loads_bit_identical),
            Gate::new("load_speedup >= 10", self.load_speedup >= 10.0).at_paper_scale(),
        ]
    }
}

/// `BENCH_online.json`: per-batch online updates vs a full retrain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineCase {
    pub metrics: usize,
    pub front_size: usize,
    pub seed_samples: usize,
    pub rounds: usize,
    pub batch_samples: usize,
    pub total_samples: usize,
    pub seed_ms: f64,
    pub mean_update_ms: f64,
    pub median_update_ms: f64,
    pub update_samples_per_sec: f64,
    pub retrain_ms: f64,
    pub speedup: f64,
    /// Metrics refitted per update, on average (ungated): the regime the
    /// speedup was measured in.
    pub mean_metrics_refit: f64,
    pub models_match: bool,
}

impl Report for OnlineCase {
    const FILE: &'static str = "BENCH_online.json";
    const KEY: &'static str = "online_training";

    fn gates(&self) -> Vec<Gate> {
        vec![
            Gate::new("models_match", self.models_match),
            Gate::new("speedup > 1", self.speedup > 1.0),
        ]
    }
}

/// One row of `BENCH_fitting.json`: the O(k² log k) right fit against the
/// graph/Dijkstra reference on one front.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FitCase {
    pub shape: String,
    pub k: usize,
    pub fast_ms: f64,
    /// `None` where the reference is too slow to time.
    pub reference_ms: Option<f64>,
    pub speedup: Option<f64>,
}

impl Report for Vec<FitCase> {
    const FILE: &'static str = "BENCH_fitting.json";
    const KEY: &'static str = "right_fit";

    /// Every front timed against the reference (at least one) is faster.
    fn gates(&self) -> Vec<Gate> {
        let timed: Vec<f64> = self.iter().filter_map(|c| c.speedup).collect();
        let wins = !timed.is_empty() && timed.iter().all(|&s| s > 1.0);
        vec![Gate::new("fast fit beats the reference", wins)]
    }
}

/// One catalog machine of the transfer matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferMachine {
    pub name: String,
    pub fingerprint: String,
    pub peak_throughput: f64,
}

/// One (train, eval) cell of the transfer matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferCell {
    pub train: String,
    pub eval: String,
    pub diagonal: bool,
    /// Train peak throughput below eval peak: the structurally hard
    /// direction for raw transfer (the model's ceilings cap too low).
    pub up_transfer: bool,
    pub raw_hit_rate: f64,
    pub raw_mean_rel_err: f64,
    pub raw_overlap_at_5: f64,
    pub raw_kendall_tau: f64,
    pub norm_hit_rate: f64,
    pub norm_mean_rel_err: f64,
}

/// The transfer verdicts recorded in `BENCH_transfer.json`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TransferGates {
    pub diagonal_hit_rate_dominates: bool,
    pub normalized_hit_rate_ge_raw: bool,
    pub normalized_narrows_uptransfer_err: bool,
}

/// `BENCH_transfer.json`: every catalog model scored on every catalog
/// machine, raw and peak-normalized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferSummary {
    pub top_k: usize,
    pub test_workloads: usize,
    pub machines: Vec<TransferMachine>,
    pub cells: Vec<TransferCell>,
    pub diag_raw_hit_rate: f64,
    pub offdiag_raw_hit_rate: f64,
    pub offdiag_norm_hit_rate: f64,
    pub diag_raw_rel_err: f64,
    pub offdiag_raw_rel_err: f64,
    pub offdiag_norm_rel_err: f64,
    pub uptransfer_raw_rel_err: f64,
    pub uptransfer_norm_rel_err: f64,
    pub gates: TransferGates,
}

impl TransferSummary {
    /// Aggregates the matrix's cells into the summary means and verdicts.
    pub fn new(
        top_k: usize,
        test_workloads: usize,
        machines: Vec<TransferMachine>,
        cells: Vec<TransferCell>,
    ) -> Self {
        let mean = |keep: fn(&TransferCell) -> bool, f: fn(&TransferCell) -> f64| {
            let kept: Vec<f64> = cells.iter().filter(|c| keep(c)).map(f).collect();
            kept.iter().sum::<f64>() / kept.len() as f64
        };
        let mut summary = TransferSummary {
            top_k,
            test_workloads,
            diag_raw_hit_rate: mean(|c| c.diagonal, |c| c.raw_hit_rate),
            offdiag_raw_hit_rate: mean(|c| !c.diagonal, |c| c.raw_hit_rate),
            offdiag_norm_hit_rate: mean(|c| !c.diagonal, |c| c.norm_hit_rate),
            diag_raw_rel_err: mean(|c| c.diagonal, |c| c.raw_mean_rel_err),
            offdiag_raw_rel_err: mean(|c| !c.diagonal, |c| c.raw_mean_rel_err),
            offdiag_norm_rel_err: mean(|c| !c.diagonal, |c| c.norm_mean_rel_err),
            uptransfer_raw_rel_err: mean(|c| c.up_transfer, |c| c.raw_mean_rel_err),
            uptransfer_norm_rel_err: mean(|c| c.up_transfer, |c| c.norm_mean_rel_err),
            machines,
            cells,
            gates: TransferGates::default(),
        };
        summary.gates = summary.verdicts();
        summary
    }

    /// The three transfer verdicts, recomputed from the cells and means.
    fn verdicts(&self) -> TransferGates {
        // Column-wise: each machine's self-trained model is at least as
        // good at locating its own bottlenecks as any transferred model
        // evaluated on the same test set.
        let diagonal_hit_rate_dominates = self.machines.iter().all(|m| {
            let on_m = || self.cells.iter().filter(|c| c.eval == m.name);
            on_m().find(|c| c.diagonal).is_some_and(|d| {
                on_m()
                    .filter(|c| !c.diagonal)
                    .all(|c| d.raw_hit_rate >= c.raw_hit_rate)
            })
        });
        TransferGates {
            diagonal_hit_rate_dominates,
            normalized_hit_rate_ge_raw: self.offdiag_norm_hit_rate >= self.offdiag_raw_hit_rate,
            normalized_narrows_uptransfer_err: self.uptransfer_norm_rel_err
                < self.uptransfer_raw_rel_err,
        }
    }
}

impl Report for TransferSummary {
    const FILE: &'static str = "BENCH_transfer.json";
    const KEY: &'static str = "uarch_transfer";

    /// Each verdict must hold in the data and be recorded as holding.
    fn gates(&self) -> Vec<Gate> {
        let (now, was) = (self.verdicts(), &self.gates);
        let n = self.machines.len();
        vec![
            Gate::new(
                "diagonal_hit_rate_dominates",
                now.diagonal_hit_rate_dominates && was.diagonal_hit_rate_dominates,
            ),
            Gate::new(
                "normalized_hit_rate_ge_raw",
                now.normalized_hit_rate_ge_raw && was.normalized_hit_rate_ge_raw,
            ),
            Gate::new(
                "normalized_narrows_uptransfer_err",
                now.normalized_narrows_uptransfer_err && was.normalized_narrows_uptransfer_err,
            ),
            Gate::new(
                "full matrix over >= 4 machines",
                n >= 4 && self.cells.len() == n * n,
            ),
        ]
    }
}
