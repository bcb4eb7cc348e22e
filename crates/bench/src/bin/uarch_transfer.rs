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
//! The gates on [`TransferSummary`] hold in `--quick` and at paper scale:
//! the matrix is full over at least 4 machines, and
//!
//! 1. every self-trained diagonal's hit rate ≥ each transferred
//!    off-diagonal evaluated on the same machine;
//! 2. peak-normalized transfer ≥ raw transfer on mean off-diagonal hit
//!    rate;
//! 3. normalization measurably narrows the structural transfer gap: on
//!    *up-transfers* (train peak below eval peak), where the
//!    unnormalized model's learned ceilings cap every prediction at the
//!    small machine's limits, the normalized variant's mean relative
//!    error is strictly lower than the raw variant's.
//!
//! Down-transfers are reported but not gated: an unnormalized model
//! evaluated on a narrower machine's counters already adapts through the
//! samples' intensities, so normalization has no structural error to
//! remove there — fraction-of-peak is not machine-invariant when
//! utilization efficiency differs, which is the paper's argument for
//! retraining per machine in the first place.

use spire_bench::report::{finish, TransferCell, TransferMachine, TransferSummary};
use spire_bench::{config_from_args, dataset_of, run_suite, Engine, WorkloadRun};
use spire_core::{normalize_set, BottleneckReport, SpireModel, TrainConfig};
use spire_counters::Dataset;
use spire_sim::{Machine, MachineCatalog};
use spire_workloads::suite;

/// Ranking depth for the bottleneck hit check (the paper's top-10).
const TOP_K: usize = 10;

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
    let quick = std::env::args().any(|a| a == "--quick");
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

    let mut cells: Vec<TransferCell> = Vec::new();
    for trained in &data {
        for evald in &data {
            let peaks = evald.machine.peaks();
            let n = evald.tests.len() as f64;
            let (mut raw_hits, mut norm_hits) = (0usize, 0usize);
            let (mut raw_err, mut norm_err) = (0.0f64, 0.0f64);
            let (mut overlap, mut tau) = (0.0f64, 0.0f64);
            for (w, run) in evald.tests.iter().enumerate() {
                let expected = run.profile.expected_bottleneck;
                let raw_report = engine.report(&trained.raw, &run.session.samples);
                raw_hits += usize::from(raw_report.area_in_top(expected, TOP_K));
                raw_err += ((raw_report.throughput() - run.ipc) / run.ipc).abs();
                let (o, t) = raw_report.compare(&evald.native[w], 5);
                overlap += o;
                tau += t;

                let norm_samples = normalize_set(&run.session.samples, &peaks);
                let norm_report = engine.report(&trained.norm, &norm_samples);
                norm_hits += usize::from(norm_report.area_in_top(expected, TOP_K));
                // Normalized truth: achieved fraction of the eval
                // machine's peak throughput.
                let truth = run.ipc / peaks.throughput;
                norm_err += ((norm_report.throughput() - truth) / truth).abs();
            }
            cells.push(TransferCell {
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

    let summary = TransferSummary::new(
        TOP_K,
        data[0].tests.len(),
        data.iter()
            .map(|d| {
                let spec = d.machine.spec();
                TransferMachine {
                    name: spec.name,
                    fingerprint: spec.fingerprint,
                    peak_throughput: spec.peaks.throughput,
                }
            })
            .collect(),
        cells,
    );

    println!(
        "Cross-microarchitecture transfer: {0}x{0} catalog matrix, {1} test workloads per cell\n",
        data.len(),
        data[0].tests.len()
    );
    println!(
        "{:<16} {:<16} {:>8} {:>10} {:>10} {:>8} {:>10}",
        "train", "eval", "raw hit", "raw err", "norm hit", "norm err", "overlap@5"
    );
    for c in &summary.cells {
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
        "\nhit rate: diagonal {:.2} vs transferred {:.2} raw, {:.2} normalized",
        summary.diag_raw_hit_rate, summary.offdiag_raw_hit_rate, summary.offdiag_norm_hit_rate
    );
    println!(
        "mean |rel err|: diagonal {:.3} vs transferred {:.3} raw, {:.3} normalized",
        summary.diag_raw_rel_err, summary.offdiag_raw_rel_err, summary.offdiag_norm_rel_err
    );
    println!(
        "up-transfer mean |rel err| (structural gap): {:.3} raw -> {:.3} normalized",
        summary.uptransfer_raw_rel_err, summary.uptransfer_norm_rel_err
    );
    finish(&summary, quick);
}
