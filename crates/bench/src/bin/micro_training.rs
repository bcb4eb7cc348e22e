//! Extension experiment: microbenchmark-driven training.
//!
//! The paper notes that ideal training data comes from "optimized
//! workloads specifically designed to exercise each metric (e.g.,
//! microbenchmarks)", while its evaluation uses a workload variety
//! instead. This experiment runs both options and compares them on the
//! four test workloads: the `spire_workloads::micro` sweeps (one knob
//! per family) versus the 23-workload suite.

use spire_bench::{config_from_args, dataset_of, run_suite, spire_finds_expected, Engine};
use spire_core::TrainConfig;
use spire_workloads::{micro, suite};

fn main() {
    let (cfg, _outdir) = config_from_args();
    let engine = Engine::narrated(TrainConfig::default());

    engine.note("collecting microbenchmark corpus (4 sweeps x 8 steps)...");
    let micro_profiles = micro::full_corpus(8);
    let micro_runs = run_suite(&micro_profiles, &cfg);
    let micro_dataset = dataset_of(&micro_runs);

    engine.note("collecting suite corpus (23 workloads)...");
    let suite_runs = run_suite(&suite::training(), &cfg);
    let suite_dataset = dataset_of(&suite_runs);

    engine.note("collecting test workloads...");
    let test_runs = run_suite(&suite::testing(), &cfg);

    println!("Microbenchmark vs suite training (4 test workloads)\n");
    println!(
        "{:<14} {:>9} {:>8} {:>6} {:>12}",
        "corpus", "profiles", "samples", "hits", "mean |err|"
    );
    for (name, dataset, n) in [
        ("micro sweeps", &micro_dataset, micro_profiles.len()),
        ("suite (23)", &suite_dataset, 23),
    ] {
        let model = engine.train(dataset);
        let mut hits = 0;
        let mut err = 0.0;
        for run in &test_runs {
            let report = engine.report(&model, &run.session.samples);
            if spire_finds_expected(&report, run.profile.expected_bottleneck, 10) {
                hits += 1;
            }
            err += ((report.throughput() - run.ipc) / run.ipc).abs();
        }
        println!(
            "{:<14} {:>9} {:>8} {:>4}/4 {:>12.3}",
            name,
            n,
            dataset.total_samples(),
            hits,
            err / test_runs.len() as f64
        );
    }
    println!(
        "\nBoth corpora should locate all four bottlenecks; the suite's broader\n\
         intensity coverage typically yields tighter throughput estimates, while\n\
         the sweeps achieve theirs with far fewer profiles."
    );
}
