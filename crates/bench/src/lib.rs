//! # spire-bench
//!
//! The experiment harness for the SPIRE reproduction: shared machinery
//! for collecting the evaluation corpus, training models, and scoring
//! agreement between SPIRE and TMA. The `src/bin/` binaries regenerate
//! every table and figure of the paper (see DESIGN.md for the index), and
//! the `benches/` directory holds Criterion micro-benchmarks of the
//! algorithms.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod report;

pub use engine::Engine;

use spire_cli::args::{ArgCursor, ArgItem};
use spire_core::catalog::UarchArea;
use spire_core::{BottleneckReport, SpireModel, TrainConfig};
use spire_counters::{collect, Dataset, SessionConfig, SessionReport};
use spire_sim::{Core, CoreConfig, Event, Machine, MachineCatalog};
use spire_tma::{analyze, TmaBreakdown};
use spire_workloads::WorkloadProfile;

/// Deterministic xorshift for the synthetic benchmark corpora (the bins
/// avoid dev-only dependencies such as `rand`).
#[derive(Debug, Clone)]
pub struct XorShift(pub u64);

impl XorShift {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform f64 in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Wall time of one run of `f` (milliseconds), and its result.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = std::time::Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed().as_secs_f64() * 1e3, out)
}

/// Median wall time of `runs` runs of `f` (milliseconds), and the last
/// run's result.
pub fn median_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs.max(1) {
        let (ms, out) = time_ms(&mut f);
        times.push(ms);
        last = Some(out);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.expect("at least one run"))
}

/// Shared experiment parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Core configuration for all runs.
    pub core: CoreConfig,
    /// Workload stream seed.
    pub seed: u64,
    /// Sampling-session configuration.
    pub session: SessionConfig,
    /// Events to sample (defaults to the full catalog).
    pub events: Vec<Event>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            // The catalog's default preset, not a hand-rolled config: every
            // experiment binary states its machine through the catalog.
            core: MachineCatalog::builtin().default_machine().config,
            seed: 20250331,
            session: SessionConfig {
                interval_cycles: 150_000,
                slice_cycles: 9_000,
                pmu_slots: 4,
                // 150 cycles of PMU reprogramming per 9k-cycle slice
                // reproduces the paper's ~1.6% average sampling overhead.
                switch_overhead_cycles: 150,
                max_cycles: 3_000_000,
            },
            events: Event::ALL.to_vec(),
        }
    }
}

impl ExperimentConfig {
    /// A much smaller configuration for tests and quick runs.
    pub fn quick() -> Self {
        ExperimentConfig {
            session: SessionConfig {
                interval_cycles: 40_000,
                slice_cycles: 2_500,
                pmu_slots: 4,
                switch_overhead_cycles: 40,
                max_cycles: 400_000,
            },
            ..ExperimentConfig::default()
        }
    }

    /// The same experiment parameters on a different catalog machine.
    pub fn on_machine(mut self, machine: &Machine) -> Self {
        self.core = machine.config;
        self
    }
}

/// Resolves a `--machine` selector the way the `spire` CLI does: a
/// catalog preset name first, else a path to a custom machine JSON file.
///
/// # Errors
///
/// A human-readable message naming the catalog presets when the selector
/// is neither, or the typed [`spire_sim::MachineLoadError`] text when a
/// custom file fails validation.
pub fn resolve_machine(selector: &str) -> Result<Machine, String> {
    let catalog = MachineCatalog::builtin();
    if let Some(machine) = catalog.get(selector) {
        return Ok(machine.clone());
    }
    let path = std::path::Path::new(selector);
    if path.exists() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read machine file {selector}: {e}"))?;
        return Machine::from_json(&text).map_err(|e| format!("{selector}: {e}"));
    }
    Err(format!(
        "unknown machine `{selector}` (catalog: {}; or pass a machine JSON path)",
        catalog.names().join(", ")
    ))
}

/// The outcome of running one workload: its samples, sampling report,
/// and the TMA ground truth measured on an *unsampled* run of the same
/// stream (so the TMA numbers are not perturbed by multiplexing).
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// The workload that ran.
    pub profile: WorkloadProfile,
    /// Dataset label (`"name (config)"`).
    pub label: String,
    /// The sampling-session report (samples + overhead stats).
    pub session: SessionReport,
    /// TMA breakdown of the dedicated measurement run.
    pub tma: TmaBreakdown,
    /// IPC of the dedicated measurement run.
    pub ipc: f64,
}

/// Label used for a profile in datasets and reports.
pub fn workload_label(p: &WorkloadProfile) -> String {
    format!("{} ({})", p.name, p.config)
}

/// Runs one workload: a full sampling session plus a dedicated TMA run.
pub fn run_workload(profile: &WorkloadProfile, cfg: &ExperimentConfig) -> WorkloadRun {
    // Sampling session.
    let mut core = Core::new(cfg.core);
    let mut stream = profile.stream(cfg.seed);
    let session = collect(&mut core, &mut stream, &cfg.events, &cfg.session);

    // Dedicated TMA measurement (same stream parameters, fresh core).
    let mut core = Core::new(cfg.core);
    let mut stream = profile.stream(cfg.seed);
    let summary = core.run(&mut stream, cfg.session.max_cycles);
    let tma = analyze(core.counters(), &cfg.core);

    WorkloadRun {
        label: workload_label(profile),
        profile: profile.clone(),
        session,
        tma,
        ipc: summary.ipc(),
    }
}

/// Runs many workloads in parallel (one OS thread per workload, batched
/// to the available parallelism) and returns the runs in input order.
pub fn run_suite(profiles: &[WorkloadProfile], cfg: &ExperimentConfig) -> Vec<WorkloadRun> {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut results: Vec<Option<WorkloadRun>> = (0..profiles.len()).map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        for (chunk_profiles, chunk_results) in profiles
            .chunks(threads.max(1))
            .zip(results.chunks_mut(threads.max(1)))
        {
            let handles: Vec<_> = chunk_profiles
                .iter()
                .map(|p| scope.spawn(move |_| run_workload(p, cfg)))
                .collect();
            for (slot, handle) in chunk_results.iter_mut().zip(handles) {
                *slot = Some(handle.join().expect("workload thread panicked"));
            }
        }
    })
    .expect("crossbeam scope");
    results.into_iter().map(|r| r.expect("filled")).collect()
}

/// Collects the runs' samples into a labeled dataset.
pub fn dataset_of(runs: &[WorkloadRun]) -> Dataset {
    runs.iter()
        .map(|r| (r.label.clone(), r.session.samples.clone()))
        .collect()
}

/// Trains a SPIRE model from a dataset with the given config, through a
/// quiet pipeline [`Engine`].
///
/// # Panics
///
/// Panics if training fails (experiment corpora are never empty).
pub fn train_model(dataset: &Dataset, config: TrainConfig) -> SpireModel {
    Engine::new(config).train(dataset)
}

/// Builds the annotated bottleneck report for one workload run under a
/// trained model, through a quiet pipeline [`Engine`].
///
/// # Panics
///
/// Panics if the workload shares no metrics with the model (impossible
/// when both came from the same event catalog).
pub fn report_for(model: &SpireModel, run: &WorkloadRun) -> BottleneckReport {
    Engine::new(model.config().clone()).report(model, &run.session.samples)
}

/// Agreement check used in EXPERIMENTS.md: does the TMA dominant
/// bottleneck area appear among the top `k` SPIRE metrics' areas?
pub fn spire_agrees_with_tma(report: &BottleneckReport, tma: &TmaBreakdown, k: usize) -> bool {
    report.area_in_top(tma.dominant_bottleneck(), k)
}

/// Agreement against the workload's *intended* bottleneck.
pub fn spire_finds_expected(report: &BottleneckReport, expected: UarchArea, k: usize) -> bool {
    report.area_in_top(expected, k)
}

/// Parses the shared experiment flags used by every `src/bin/` binary:
/// `--quick` selects [`ExperimentConfig::quick`], `--seed N` overrides the
/// stream seed, and `--machine NAME|PATH` swaps the simulated core for a
/// catalog preset or custom machine file (via [`resolve_machine`]; an
/// unresolvable selector is a hard error — exit 2 — not a silent default).
/// Returns the config plus the output directory from `--outdir DIR`
/// (default `target/experiments`).
///
/// Built on the CLI's shared [`ArgCursor`], so the bench bins classify
/// `--key value` vs `--switch` words exactly like the `spire` command.
pub fn config_from_args() -> (ExperimentConfig, std::path::PathBuf) {
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut machine: Option<String> = None;
    let mut outdir = std::path::PathBuf::from("target/experiments");
    let cursor = ArgCursor::new(std::env::args().skip(1), &["quick"]);
    for item in cursor.flatten() {
        match item {
            ArgItem::Switch(key) if key == "quick" => quick = true,
            ArgItem::Value(key, value) if key == "seed" => seed = value.parse().ok(),
            ArgItem::Value(key, value) if key == "machine" => machine = Some(value),
            ArgItem::Value(key, value) if key == "outdir" => outdir = value.into(),
            _ => {}
        }
    }
    let mut cfg = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::default()
    };
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    if let Some(selector) = machine {
        match resolve_machine(&selector) {
            Ok(m) => cfg = cfg.on_machine(&m),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&outdir).ok();
    (cfg, outdir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spire_workloads::suite;

    #[test]
    fn run_workload_produces_samples_and_tma() {
        let cfg = ExperimentConfig::quick();
        let p = suite::by_name("onnx", "T5 Encoder, Std.").unwrap();
        let run = run_workload(&p, &cfg);
        assert!(!run.session.samples.is_empty());
        assert!(run.ipc > 0.0);
        assert_eq!(run.tma.dominant_bottleneck(), UarchArea::Memory);
        assert_eq!(run.label, "onnx (T5 Encoder, Std.)");
    }

    #[test]
    fn run_suite_preserves_order_and_parallel_matches_serial() {
        let cfg = ExperimentConfig::quick();
        let profiles = suite::testing();
        let runs = run_suite(&profiles, &cfg);
        assert_eq!(runs.len(), 4);
        for (r, p) in runs.iter().zip(&profiles) {
            assert_eq!(r.label, workload_label(p));
        }
        // Determinism: the same workload run twice yields identical samples.
        let again = run_workload(&profiles[0], &cfg);
        assert_eq!(again.session.samples, runs[0].session.samples);
    }

    #[test]
    fn machine_selection_routes_through_the_catalog() {
        let catalog = MachineCatalog::builtin();
        assert_eq!(
            ExperimentConfig::default().core,
            catalog.default_machine().config
        );
        let little = resolve_machine("little").expect("catalog preset resolves");
        assert_eq!(little.config, catalog.get("little").unwrap().config);
        assert_eq!(
            ExperimentConfig::quick().on_machine(&little).core,
            little.config
        );
        let err = resolve_machine("no-such-machine").unwrap_err();
        assert!(
            err.contains("skylake-server"),
            "err names the catalog: {err}"
        );
    }

    #[test]
    fn train_and_report_end_to_end() {
        let cfg = ExperimentConfig::quick();
        let runs = run_suite(&suite::testing(), &cfg);
        let dataset = dataset_of(&runs);
        let model = train_model(&dataset, TrainConfig::default());
        assert!(model.metric_count() > 30);
        let report = report_for(&model, &runs[0]);
        assert!(!report.rows().is_empty());
    }
}
