//! Cross-microarchitecture transfer matrix (`BENCH_transfer.json`).
//!
//! The paper's generality claim is that SPIRE ports to any processor by
//! *retraining on its counters* — not that a trained model transfers
//! between machines. This experiment quantifies that on the full machine
//! catalog: for every (train, eval) pair of catalog presets, a model
//! trained on one machine's corpus scores the other machine's test
//! workloads, in raw counter units and in the hardware-agnostic
//! peak-normalized units of "Dissecting RISC-V Performance".
//!
//! Per cell the matrix records the bottleneck hit rate (expected area in
//! the top 10), the mean relative throughput error, and ranking drift
//! against the eval machine's native model (overlap@5 / Kendall tau).
//! Three gates hold in `--quick` and at paper scale:
//!
//! 1. every self-trained diagonal's hit rate ≥ each transferred
//!    off-diagonal evaluated on the same machine;
//! 2. peak-normalized transfer ≥ raw transfer on mean off-diagonal hit
//!    rate;
//! 3. normalization measurably narrows the structural transfer gap: on
//!    *up-transfers* (train peak below eval peak), where the raw model's
//!    learned ceilings cap every prediction at the small machine's
//!    limits, the normalized variant's mean relative error is strictly
//!    lower than the raw variant's.
//!
//! Down-transfers are reported but not gated: a raw model evaluated on a
//! narrower machine's counters already adapts through the samples'
//! intensities, so normalization has no structural error to remove there
//! — fraction-of-peak is not machine-invariant when utilization
//! efficiency differs, which is the paper's argument for retraining per
//! machine in the first place.

use std::path::Path;

use spire_bench::{config_from_args, dataset_of, run_suite, Engine, WorkloadRun};
use spire_core::{normalize_set, write_atomic, BottleneckReport, SpireModel, TrainConfig};
use spire_counters::Dataset;
use spire_sim::{Machine, MachineCatalog};
use spire_workloads::suite;

const OUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_transfer.json");

/// Ranking depth for the bottleneck hit check (the paper's top-10).
const TOP_K: usize = 10;

#[derive(serde::Serialize)]
struct MachineRow {
    name: String,
    fingerprint: String,
    peak_throughput: f64,
}

#[derive(serde::Serialize)]
struct Cell {
    train: String,
    eval: String,
    diagonal: bool,
    /// Train peak throughput below eval peak: the structurally hard
    /// direction for raw transfer (the model's ceilings cap too low).
    up_transfer: bool,
    raw_hit_rate: f64,
    raw_mean_rel_err: f64,
    raw_overlap_at_5: f64,
    raw_kendall_tau: f64,
    norm_hit_rate: f64,
    norm_mean_rel_err: f64,
}

#[derive(serde::Serialize)]
struct Gates {
    diagonal_hit_rate_dominates: bool,
    normalized_hit_rate_ge_raw: bool,
    normalized_narrows_uptransfer_err: bool,
}

#[derive(serde::Serialize)]
struct Summary {
    top_k: usize,
    test_workloads: usize,
    machines: Vec<MachineRow>,
    cells: Vec<Cell>,
    diag_raw_hit_rate: f64,
    offdiag_raw_hit_rate: f64,
    offdiag_norm_hit_rate: f64,
    diag_raw_rel_err: f64,
    offdiag_raw_rel_err: f64,
    offdiag_norm_rel_err: f64,
    uptransfer_raw_rel_err: f64,
    uptransfer_norm_rel_err: f64,
    gates: Gates,
}

/// One machine's trained artifacts: its test runs, a model in raw
/// counter units, a model in peak-normalized units, and the native
/// (self-trained) report per test workload — the drift baseline.
struct Trained {
    machine: Machine,
    tests: Vec<WorkloadRun>,
    raw: SpireModel,
    norm: SpireModel,
    native: Vec<BottleneckReport>,
}

/// The runs' samples with work rescaled to fraction-of-peak units.
fn normalized_dataset(runs: &[WorkloadRun], machine: &Machine) -> Dataset {
    let peaks = machine.peaks();
    runs.iter()
        .map(|r| (r.label.clone(), normalize_set(&r.session.samples, &peaks)))
        .collect()
}

fn main() {
    let (cfg, _outdir) = config_from_args();
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var_os("SPIRE_BENCH_SMOKE").is_some_and(|v| v == "1");
    let engine = Engine::narrated(TrainConfig::default());

    let catalog = MachineCatalog::builtin();
    let mut data: Vec<Trained> = Vec::new();
    for machine in catalog.machines() {
        engine.note(format!("collecting corpus on {}...", machine.name));
        let mcfg = cfg.clone().on_machine(machine);
        let train = run_suite(&suite::training(), &mcfg);
        let tests = run_suite(&suite::testing(), &mcfg);
        let raw = engine.train(&dataset_of(&train));
        let norm = engine.train(&normalized_dataset(&train, machine));
        let native: Vec<BottleneckReport> = tests
            .iter()
            .map(|r| engine.report(&raw, &r.session.samples))
            .collect();
        data.push(Trained {
            machine: machine.clone(),
            tests,
            raw,
            norm,
            native,
        });
    }

    let mut cells: Vec<Cell> = Vec::new();
    for trained in &data {
        for evald in &data {
            let peaks = evald.machine.peaks();
            let n = evald.tests.len() as f64;
            let (mut raw_hits, mut norm_hits) = (0usize, 0usize);
            let (mut raw_err, mut norm_err) = (0.0f64, 0.0f64);
            let (mut overlap, mut tau) = (0.0f64, 0.0f64);
            for (w, run) in evald.tests.iter().enumerate() {
                let raw_report = engine.report(&trained.raw, &run.session.samples);
                if raw_report.area_in_top(run.profile.expected_bottleneck, TOP_K) {
                    raw_hits += 1;
                }
                raw_err += ((raw_report.throughput() - run.ipc) / run.ipc).abs();
                let (o, t) = raw_report.compare(&evald.native[w], 5);
                overlap += o;
                tau += t;

                let norm_samples = normalize_set(&run.session.samples, &peaks);
                let norm_report = engine.report(&trained.norm, &norm_samples);
                if norm_report.area_in_top(run.profile.expected_bottleneck, TOP_K) {
                    norm_hits += 1;
                }
                // Normalized truth: achieved fraction of the eval
                // machine's peak throughput.
                let truth = run.ipc / peaks.throughput;
                norm_err += ((norm_report.throughput() - truth) / truth).abs();
            }
            cells.push(Cell {
                train: trained.machine.name.clone(),
                eval: evald.machine.name.clone(),
                diagonal: trained.machine.name == evald.machine.name,
                up_transfer: trained.machine.peaks().throughput < peaks.throughput,
                raw_hit_rate: raw_hits as f64 / n,
                raw_mean_rel_err: raw_err / n,
                raw_overlap_at_5: overlap / n,
                raw_kendall_tau: tau / n,
                norm_hit_rate: norm_hits as f64 / n,
                norm_mean_rel_err: norm_err / n,
            });
        }
    }

    let mean = |xs: &[&Cell], f: fn(&Cell) -> f64| -> f64 {
        xs.iter().map(|c| f(c)).sum::<f64>() / xs.len() as f64
    };
    let diag: Vec<&Cell> = cells.iter().filter(|c| c.diagonal).collect();
    let off: Vec<&Cell> = cells.iter().filter(|c| !c.diagonal).collect();
    let up: Vec<&Cell> = cells.iter().filter(|c| c.up_transfer).collect();
    let diag_raw_hit_rate = mean(&diag, |c| c.raw_hit_rate);
    let offdiag_raw_hit_rate = mean(&off, |c| c.raw_hit_rate);
    let offdiag_norm_hit_rate = mean(&off, |c| c.norm_hit_rate);
    let diag_raw_rel_err = mean(&diag, |c| c.raw_mean_rel_err);
    let offdiag_raw_rel_err = mean(&off, |c| c.raw_mean_rel_err);
    let offdiag_norm_rel_err = mean(&off, |c| c.norm_mean_rel_err);
    let uptransfer_raw_rel_err = mean(&up, |c| c.raw_mean_rel_err);
    let uptransfer_norm_rel_err = mean(&up, |c| c.norm_mean_rel_err);

    // Gate 1, column-wise: each machine's self-trained model is at least
    // as good at locating its own bottlenecks as any transferred model
    // evaluated on the same test set.
    let diagonal_hit_rate_dominates = data.iter().all(|d| {
        let name = &d.machine.name;
        let self_hit = cells
            .iter()
            .find(|c| c.diagonal && &c.eval == name)
            .expect("diagonal cell exists")
            .raw_hit_rate;
        cells
            .iter()
            .filter(|c| !c.diagonal && &c.eval == name)
            .all(|c| self_hit >= c.raw_hit_rate)
    });
    let gates = Gates {
        diagonal_hit_rate_dominates,
        normalized_hit_rate_ge_raw: offdiag_norm_hit_rate >= offdiag_raw_hit_rate,
        normalized_narrows_uptransfer_err: uptransfer_norm_rel_err < uptransfer_raw_rel_err,
    };

    println!(
        "Cross-microarchitecture transfer: {0}x{0} catalog matrix, {1} test workloads per cell\n",
        data.len(),
        data[0].tests.len()
    );
    println!(
        "{:<16} {:<16} {:>8} {:>10} {:>10} {:>8} {:>10}",
        "train", "eval", "raw hit", "raw err", "norm hit", "norm err", "overlap@5"
    );
    for c in &cells {
        println!(
            "{:<16} {:<16} {:>8.2} {:>10.3} {:>10.2} {:>8.3} {:>10.2}{}",
            c.train,
            c.eval,
            c.raw_hit_rate,
            c.raw_mean_rel_err,
            c.norm_hit_rate,
            c.norm_mean_rel_err,
            c.raw_overlap_at_5,
            if c.diagonal { "  (native)" } else { "" }
        );
    }
    println!(
        "\nhit rate: diagonal {diag_raw_hit_rate:.2} vs transferred {offdiag_raw_hit_rate:.2} \
         raw, {offdiag_norm_hit_rate:.2} normalized"
    );
    println!(
        "mean |rel err|: diagonal {diag_raw_rel_err:.3} vs transferred \
         {offdiag_raw_rel_err:.3} raw, {offdiag_norm_rel_err:.3} normalized"
    );
    println!(
        "up-transfer mean |rel err| (structural gap): {uptransfer_raw_rel_err:.3} raw \
         -> {uptransfer_norm_rel_err:.3} normalized"
    );

    let mut summary = Summary {
        top_k: TOP_K,
        test_workloads: data[0].tests.len(),
        machines: data
            .iter()
            .map(|d| {
                let spec = d.machine.spec();
                MachineRow {
                    name: spec.name,
                    fingerprint: spec.fingerprint,
                    peak_throughput: spec.peaks.throughput,
                }
            })
            .collect(),
        cells,
        diag_raw_hit_rate,
        offdiag_raw_hit_rate,
        offdiag_norm_hit_rate,
        diag_raw_rel_err,
        offdiag_raw_rel_err,
        offdiag_norm_rel_err,
        uptransfer_raw_rel_err,
        uptransfer_norm_rel_err,
        gates,
    };
    if !quick {
        // The same top-level wrapper convention as BENCH_online.json and
        // BENCH_dataset.json, so CI's jq gates address one stable path.
        #[derive(serde::Serialize)]
        struct Wrapper {
            uarch_transfer: Summary,
        }
        let wrapped = Wrapper {
            uarch_transfer: summary,
        };
        let json = serde_json::to_string_pretty(&wrapped).expect("summary serializes");
        write_atomic(Path::new(OUT_PATH), &json).expect("write BENCH_transfer.json");
        println!("\nwrote {OUT_PATH}");
        summary = wrapped.uarch_transfer;
    }

    let mut failed = false;
    if !summary.gates.diagonal_hit_rate_dominates {
        eprintln!(
            "FAIL: a transferred model out-hits the self-trained diagonal on some eval machine"
        );
        failed = true;
    }
    if !summary.gates.normalized_hit_rate_ge_raw {
        eprintln!(
            "FAIL: peak-normalized transfer hit rate {offdiag_norm_hit_rate:.2} < raw \
             {offdiag_raw_hit_rate:.2}"
        );
        failed = true;
    }
    if !summary.gates.normalized_narrows_uptransfer_err {
        eprintln!(
            "FAIL: peak normalization does not narrow the up-transfer error \
             ({uptransfer_norm_rel_err:.3} vs raw {uptransfer_raw_rel_err:.3})"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
