//! Behavioral tests for every `spire` subcommand, moved out of
//! `commands.rs` when it shattered into per-command modules. They only
//! use the public API, and they lock the human-readable output and
//! exit-code semantics across the pipeline-engine refactor.

use spire_cli::commands::{run, CmdResult};
use spire_core::{ModelSnapshot, Sample, SampleSet};
use spire_counters::Dataset;

fn run_str(argv: &[&str]) -> CmdResult {
    let v: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
    run(&v)
}

/// Writes a small three-metric dataset to `path` and returns it.
fn write_dataset(path: &std::path::Path) -> Dataset {
    let mut set = SampleSet::new();
    for m in ["m_alpha", "m_beta", "m_gamma"] {
        for i in 1..6 {
            let s = Sample::new(m, 10.0, (5 * i) as f64, (10 - i) as f64).unwrap();
            set.push(s);
        }
    }
    let mut ds = Dataset::new();
    ds.insert("wl", set);
    ds.save(path).unwrap();
    ds
}

/// A snapshot's model without the container: the ensemble's fields with
/// each roofline inlined, as the retired bare-model file stored them.
fn bare_model_json(snapshot: &ModelSnapshot) -> String {
    let rooflines: Vec<String> = snapshot
        .metrics
        .iter()
        .map(|r| {
            let key = serde_json::to_string(&r.metric).unwrap();
            format!("{key}:{}", r.roofline)
        })
        .collect();
    format!(
        r#"{{"rooflines":{{{}}},"config":{},"skipped_metrics":{}}}"#,
        rooflines.join(","),
        serde_json::to_string(&snapshot.config).unwrap(),
        serde_json::to_string(&snapshot.skipped_metrics).unwrap()
    )
}

#[test]
fn no_command_prints_usage() {
    let out = run_str(&[]).unwrap();
    assert!(out.contains("USAGE"));
}

#[test]
fn unknown_command_errors_with_usage() {
    let err = run_str(&["bogus"]).unwrap_err();
    assert!(err.to_string().contains("unknown command"));
}

#[test]
fn list_workloads_has_27_rows() {
    let out = run_str(&["list-workloads"]).unwrap();
    // header + 27 entries
    assert_eq!(out.lines().count(), 28);
    assert!(out.contains("tnn"));
    assert!(out.contains("CUTCP"));
}

#[test]
fn simulate_reports_ipc_and_tma() {
    let out = run_str(&[
        "simulate",
        "--workload",
        "tnn",
        "--config",
        "SqueezeNet v1.1",
        "--cycles",
        "50000",
    ])
    .unwrap();
    assert!(out.contains("ipc:"));
    assert!(out.contains("retiring"));
}

#[test]
fn simulate_unknown_workload_errors() {
    let err = run_str(&["simulate", "--workload", "nope"]).unwrap_err();
    assert!(err.to_string().contains("no workload"));
}

#[test]
fn tma_command_prints_the_tree() {
    let out = run_str(&[
        "tma",
        "--workload",
        "onnx",
        "--config",
        "T5 Encoder, Std.",
        "--cycles",
        "50000",
    ])
    .unwrap();
    assert!(out.contains("Memory Bound"));
    assert!(out.contains("Core Bound"));
    assert!(out.contains("main bottleneck: Memory"));
}

#[test]
fn end_to_end_collect_train_analyze() {
    let dir = std::env::temp_dir().join("spire-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let model = dir.join("model.snapshot.json");

    // Tiny collection run over the test set to stay fast.
    let out = run_str(&[
        "collect",
        "--out",
        data.to_str().unwrap(),
        "--set",
        "test",
        "--cycles",
        "60000",
        "--interval",
        "20000",
        "--slice",
        "1000",
    ])
    .unwrap();
    assert!(out.contains("wrote"));

    let out = run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        model.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("trained"));

    let out = run_str(&[
        "analyze",
        "--model",
        model.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--workload",
        "tnn (SqueezeNet v1.1)",
        "--top",
        "5",
    ])
    .unwrap();
    assert!(out.contains("ensemble throughput estimate"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plot_writes_an_svg() {
    let dir = std::env::temp_dir().join("spire-cli-plot-test");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let model = dir.join("model.snapshot.json");
    let svg = dir.join("roofline.svg");
    run_str(&[
        "collect",
        "--out",
        data.to_str().unwrap(),
        "--set",
        "test",
        "--cycles",
        "60000",
        "--interval",
        "20000",
        "--slice",
        "1000",
    ])
    .unwrap();
    run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        model.to_str().unwrap(),
    ])
    .unwrap();
    let out = run_str(&[
        "plot",
        "--model",
        model.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--metric",
        "idq.dsb_uops",
        "--out",
        svg.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("plotted"));
    let content = std::fs::read_to_string(&svg).unwrap();
    assert!(content.contains("<svg"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coverage_command_reports_fractions() {
    let dir = std::env::temp_dir().join("spire-cli-coverage-test");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    run_str(&[
        "collect",
        "--out",
        data.to_str().unwrap(),
        "--set",
        "test",
        "--cycles",
        "60000",
        "--interval",
        "20000",
        "--slice",
        "1000",
    ])
    .unwrap();
    let out = run_str(&[
        "coverage",
        "--data",
        data.to_str().unwrap(),
        "--workload",
        "tnn (SqueezeNet v1.1)",
    ])
    .unwrap();
    assert!(out.contains("coverage fraction range"));
    assert!(out.contains("time frac"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ingest_scales_multiplexed_counts_and_stores_the_report() {
    let dir = std::env::temp_dir().join("spire-cli-ingest-test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("perf.csv");
    let out_file = dir.join("imported.json");
    std::fs::write(
        &csv,
        "1.0,100,,inst_retired.any,1,100,,\n\
         1.0,50,,cpu_clk_unhalted.thread,1,100,,\n\
         1.0,7,,longest_lat_cache.miss,250000,25.00,,\n\
         broken line\n",
    )
    .unwrap();
    let out = run_str(&[
        "ingest",
        "--csv",
        csv.to_str().unwrap(),
        "--out",
        out_file.to_str().unwrap(),
        "--label",
        "mux",
        "--ingest-report",
    ])
    .unwrap();
    assert!(out.contains("1 quarantined"));
    assert!(out.contains("quarantine breakdown"));
    assert!(out.contains("imported 1 samples"));
    assert!(out.degraded, "quarantined rows must flag partial success");
    let ds = Dataset::load(&out_file).unwrap();
    // 7 counted over 25% of the interval -> 28 estimated.
    let s = ds.get("mux").unwrap().iter().next().unwrap();
    assert_eq!(s.metric_delta(), 28.0);
    assert_eq!(ds.report("mux").unwrap().rows_scaled, 1);

    // The stored report feeds the coverage table's mux column.
    let cov = run_str(&[
        "coverage",
        "--data",
        out_file.to_str().unwrap(),
        "--workload",
        "mux",
    ])
    .unwrap();
    assert!(cov.contains("25.0%"));

    // And train --ingest-report surfaces the provenance.
    let model = dir.join("model.snapshot.json");
    let trained = run_str(&[
        "train",
        "--data",
        out_file.to_str().unwrap(),
        "--snapshot",
        model.to_str().unwrap(),
        "--ingest-report",
    ])
    .unwrap();
    assert!(trained.contains("mux:"));
    assert!(trained.contains("trained"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_accepts_front_fitting_flags() {
    let dir = std::env::temp_dir().join("spire-cli-front-flags-test");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let model = dir.join("model.snapshot.json");
    write_dataset(&data);
    let out = run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        model.to_str().unwrap(),
        "--max-front",
        "64",
        "--thin-front",
    ])
    .unwrap();
    assert!(out.contains("trained"));
    assert!(model.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_requires_an_output() {
    // The retired bare-model output is no alternative to a snapshot.
    for extra in [&[][..], &["--out", "m.json"]] {
        let mut argv = vec!["train", "--data", "whatever.json"];
        argv.extend_from_slice(extra);
        let err = run_str(&argv).unwrap_err().to_string();
        assert!(
            err.contains("required option --snapshot is missing"),
            "{err}"
        );
    }
}

#[test]
fn train_snapshot_estimate_round_trip() {
    let dir = std::env::temp_dir().join("spire-cli-snapshot-test");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let snap = dir.join("model.snapshot.json");
    write_dataset(&data);

    let out = run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("wrote snapshot (format v1, 3 checksummed records)"));
    assert!(out.contains("trained 3/3 metrics"));
    assert!(!out.degraded);

    // The snapshot stores provenance from the dataset.
    let stored = ModelSnapshot::from_json(&std::fs::read_to_string(&snap).unwrap()).unwrap();
    let prov = stored.provenance.as_ref().unwrap();
    assert_eq!(prov.labels, ["wl"]);
    assert_eq!(prov.total_samples, 15);
    assert!(stored.train_report.is_some());

    // estimate and analyze load the snapshot without retraining.
    let common = [
        "--model",
        snap.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--workload",
        "wl",
    ];
    let mut argv = vec!["estimate"];
    argv.extend_from_slice(&common);
    let est = run_str(&argv).unwrap();
    assert!(est.contains("ensemble throughput estimate"));
    assert!(est.contains("primary bottleneck"));
    assert!(!est.degraded);
    let mut argv = vec!["analyze"];
    argv.extend_from_slice(&common);
    let ana = run_str(&argv).unwrap();
    assert!(ana.contains("ensemble throughput estimate"));
    assert!(!ana.degraded);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_snapshot_salvages_leniently_and_refuses_strictly() {
    let dir = std::env::temp_dir().join("spire-cli-salvage-test");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let snap = dir.join("model.snapshot.json");
    write_dataset(&data);
    run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
    ])
    .unwrap();

    // Corrupt one record's checksum on disk.
    let clean = ModelSnapshot::from_json(&std::fs::read_to_string(&snap).unwrap()).unwrap();
    let mut stored = clean.clone();
    stored.metrics[0].checksum = "0000000000000000".to_owned();
    std::fs::write(&snap, stored.to_json()).unwrap();

    let common = [
        "--model",
        snap.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--workload",
        "wl",
    ];
    // Lenient (default): completes on the surviving metrics, degraded.
    let mut argv = vec!["estimate"];
    argv.extend_from_slice(&common);
    let out = run_str(&argv).unwrap();
    assert!(out.degraded);
    assert!(out.contains("salvaged snapshot"));
    assert!(out.contains("dropped m_alpha"));
    assert!(out.contains("metrics contributing: 2 of 2 trained"));
    // Strict: refuses the artifact.
    argv.push("--strict");
    let err = run_str(&argv).unwrap_err();
    assert!(err.to_string().contains("corrupt"), "got: {err}");

    // The ensemble without its snapshot container is no model file: both
    // modes refuse it as unreadable.
    let bare = dir.join("model.bare.json");
    std::fs::write(&bare, bare_model_json(&clean)).unwrap();
    let mut argv = vec!["estimate", "--model", bare.to_str().unwrap()];
    argv.extend_from_slice(&common[2..]);
    for strict in [false, true] {
        if strict {
            argv.push("--strict");
        }
        let err = run_str(&argv).unwrap_err();
        assert!(
            err.to_string().contains("model snapshot is unreadable"),
            "got: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn strict_ingest_fails_when_over_budget() {
    let dir = std::env::temp_dir().join("spire-cli-strict-test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("garbage.csv");
    let out_file = dir.join("out.json");
    std::fs::write(&csv, "junk\nmore junk\nstill junk\n").unwrap();
    let common = [
        "--csv",
        csv.to_str().unwrap(),
        "--out",
        out_file.to_str().unwrap(),
    ];
    // Lenient mode saves the (empty) partial dataset.
    let mut argv = vec!["ingest"];
    argv.extend_from_slice(&common);
    assert!(run_str(&argv).unwrap().contains("3 quarantined"));
    // Strict mode refuses and writes nothing.
    std::fs::remove_file(&out_file).ok();
    argv.push("--strict");
    let err = run_str(&argv).unwrap_err();
    assert!(err.to_string().contains("error budget"));
    assert!(!out_file.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_scale_keeps_raw_counts() {
    let dir = std::env::temp_dir().join("spire-cli-noscale-test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("perf.csv");
    let out_file = dir.join("out.json");
    std::fs::write(
        &csv,
        "1.0,100,,inst_retired.any,1,100,,\n\
         1.0,50,,cpu_clk_unhalted.thread,1,100,,\n\
         1.0,7,,longest_lat_cache.miss,250000,25.00,,\n",
    )
    .unwrap();
    run_str(&[
        "ingest",
        "--csv",
        csv.to_str().unwrap(),
        "--out",
        out_file.to_str().unwrap(),
        "--no-scale",
    ])
    .unwrap();
    let ds = Dataset::load(&out_file).unwrap();
    let s = ds.get("imported").unwrap().iter().next().unwrap();
    assert_eq!(s.metric_delta(), 7.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn import_perf_round_trips() {
    let dir = std::env::temp_dir().join("spire-cli-perf-test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("perf.csv");
    let out_file = dir.join("imported.json");
    std::fs::write(
        &csv,
        "1.0,100,,inst_retired.any,1,100,,\n\
         1.0,50,,cpu_clk_unhalted.thread,1,100,,\n\
         1.0,7,,longest_lat_cache.miss,1,100,,\n",
    )
    .unwrap();
    let out = run_str(&[
        "import-perf",
        "--csv",
        csv.to_str().unwrap(),
        "--out",
        out_file.to_str().unwrap(),
        "--label",
        "real-cpu",
    ])
    .unwrap();
    assert!(out.contains("imported 1 samples"));
    let ds = Dataset::load(&out_file).unwrap();
    assert_eq!(ds.get("real-cpu").unwrap().len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_incremental_matches_batch_training() {
    let dir = std::env::temp_dir().join("spire-cli-incr-test");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    write_dataset(&data);
    let batch_snap = dir.join("batch.snapshot.json");
    let incr_snap = dir.join("incr.snapshot.json");

    run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        batch_snap.to_str().unwrap(),
    ])
    .unwrap();
    let out = run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        incr_snap.to_str().unwrap(),
        "--incremental",
    ])
    .unwrap();
    assert!(out.contains("wl: +15 samples"), "{}", out.text);

    let batch = ModelSnapshot::from_json(&std::fs::read_to_string(&batch_snap).unwrap()).unwrap();
    let incr = ModelSnapshot::from_json(&std::fs::read_to_string(&incr_snap).unwrap()).unwrap();
    assert_eq!(batch.fingerprint(), incr.fingerprint());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn update_command_matches_retraining_and_writes_an_applicable_delta() {
    let dir = std::env::temp_dir().join("spire-cli-update-test");
    std::fs::create_dir_all(&dir).unwrap();
    let base_data = dir.join("base.json");
    let base_ds = write_dataset(&base_data);

    // New samples for one metric only; the other two stay untouched.
    let mut extra = SampleSet::new();
    for i in 6..9 {
        extra.push(Sample::new("m_alpha", 10.0, (5 * i) as f64, (10 - i) as f64).unwrap());
    }
    let batch_data = dir.join("batch.json");
    let mut batch_ds = Dataset::new();
    batch_ds.insert("wl2", extra.clone());
    batch_ds.save(&batch_data).unwrap();

    let base_snap = dir.join("base.snapshot.json");
    run_str(&[
        "train",
        "--data",
        base_data.to_str().unwrap(),
        "--snapshot",
        base_snap.to_str().unwrap(),
    ])
    .unwrap();

    let updated_snap = dir.join("updated.snapshot.json");
    let delta_path = dir.join("delta.json");
    let out = run_str(&[
        "update",
        "--model",
        base_snap.to_str().unwrap(),
        "--data",
        base_data.to_str().unwrap(),
        batch_data.to_str().unwrap(),
        "--snapshot-out",
        updated_snap.to_str().unwrap(),
        "--out-delta",
        delta_path.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("wrote updated snapshot"), "{}", out.text);
    assert!(out.contains("wrote delta"), "{}", out.text);
    assert!(
        !out.contains("fingerprints differ"),
        "base dataset must reproduce the snapshot: {}",
        out.text
    );

    // The updated snapshot must equal a full retrain over base + batch.
    let full_data = dir.join("full.json");
    let mut full_ds = Dataset::new();
    full_ds.insert("wl", base_ds.get("wl").unwrap().clone());
    full_ds.insert("wl2", extra);
    full_ds.save(&full_data).unwrap();
    let full_snap = dir.join("full.snapshot.json");
    run_str(&[
        "train",
        "--data",
        full_data.to_str().unwrap(),
        "--snapshot",
        full_snap.to_str().unwrap(),
    ])
    .unwrap();
    let updated =
        ModelSnapshot::from_json(&std::fs::read_to_string(&updated_snap).unwrap()).unwrap();
    let full = ModelSnapshot::from_json(&std::fs::read_to_string(&full_snap).unwrap()).unwrap();
    assert_eq!(updated.fingerprint(), full.fingerprint());

    // The delta applies to the base snapshot and reproduces the update,
    // carrying only the metric whose front moved.
    let base = ModelSnapshot::from_json(&std::fs::read_to_string(&base_snap).unwrap()).unwrap();
    let delta =
        spire_core::SnapshotDelta::from_json(&std::fs::read_to_string(&delta_path).unwrap())
            .unwrap();
    assert_eq!(delta.changed.len(), 1);
    assert_eq!(delta.changed[0].metric.as_str(), "m_alpha");
    let applied = delta.apply(&base).unwrap();
    assert_eq!(applied.fingerprint(), updated.fingerprint());

    // No temp files left behind by the atomic writes.
    let stray: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(stray.is_empty(), "{stray:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn update_requires_an_output() {
    let err = run_str(&["update", "--model", "x.json", "--data", "y.json"]).unwrap_err();
    assert!(err
        .to_string()
        .contains("--snapshot-out and/or --out-delta"));
}
