//! Golden-file tests for the CLI's `--json` envelope: the full
//! ingest → train --snapshot → estimate → analyze flow on a fixture
//! dataset, asserting exit-code semantics (0 / 2 / 1) and byte-stable
//! machine output.
//!
//! Volatile content is normalized before comparison: stage wall times
//! become `0.0` and the per-run temp directory becomes `<DIR>`. To
//! regenerate the goldens after an intentional schema change, run with
//! `SPIRE_UPDATE_GOLDEN=1` and review the diff.

use spire_cli::commands::{run, CmdResult, EXIT_DEGRADED, EXIT_FAILURE, EXIT_OK};
use spire_core::{ModelSnapshot, Sample, SampleSet};
use spire_counters::Dataset;

fn run_str(argv: &[&str]) -> CmdResult {
    let v: Vec<String> = argv.iter().map(|s| (*s).to_owned()).collect();
    run(&v)
}

/// The exit code the binary would report for this result.
fn exit_code(result: &CmdResult) -> i32 {
    match result {
        Ok(out) if out.degraded => EXIT_DEGRADED,
        Ok(_) => EXIT_OK,
        Err(_) => EXIT_FAILURE,
    }
}

/// Zeroes `"wall_ms"` values and replaces `dir` with `<DIR>` so the
/// remainder of the envelope must be byte-identical run to run.
fn normalize(text: &str, dir: &str) -> String {
    let mut out = String::new();
    for line in text.replace(dir, "<DIR>").lines() {
        if let Some(start) = line.find("\"wall_ms\": ") {
            let prefix = &line[..start + "\"wall_ms\": ".len()];
            let trailing = if line.trim_end().ends_with(',') {
                ","
            } else {
                ""
            };
            out.push_str(prefix);
            out.push_str("0.0");
            out.push_str(trailing);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Compares `actual` to the committed golden, or rewrites the golden
/// when `SPIRE_UPDATE_GOLDEN` is set.
fn assert_golden(actual: &str, name: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("SPIRE_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; run with SPIRE_UPDATE_GOLDEN=1 if intentional"
    );
}

fn fixture_csv() -> String {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/perf_mixed.csv")
        .to_str()
        .unwrap()
        .to_owned()
}

/// A deterministic three-metric dataset for the train/estimate/analyze
/// legs (the mixed CSV's single metric is too thin to train on).
fn write_dataset(path: &std::path::Path) {
    let mut set = SampleSet::new();
    for m in ["m_alpha", "m_beta", "m_gamma"] {
        for i in 1..6 {
            set.push(Sample::new(m, 10.0, (5 * i) as f64, (10 - i) as f64).unwrap());
        }
    }
    let mut ds = Dataset::new();
    ds.insert("wl", set);
    ds.save(path).unwrap();
}

#[test]
fn golden_ingest_json_degraded() {
    let dir = std::env::temp_dir().join("spire-golden-ingest");
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("imported.json");
    let csv = fixture_csv();
    let result = run_str(&[
        "ingest",
        "--csv",
        &csv,
        "--out",
        out_file.to_str().unwrap(),
        "--label",
        "mux",
        "--json",
    ]);
    assert_eq!(exit_code(&result), EXIT_DEGRADED, "quarantined rows => 2");
    let fixture_dir = fixture_csv().rsplit_once('/').unwrap().0.to_owned();
    let text = normalize(&result.unwrap().text, dir.to_str().unwrap());
    let text = text.replace(&fixture_dir, "<FIXTURES>");
    assert_golden(&text, "ingest_mixed.golden.json");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_train_estimate_analyze_json() {
    let dir = std::env::temp_dir().join("spire-golden-flow");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let snap = dir.join("model.snapshot.json");
    write_dataset(&data);

    let result = run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(exit_code(&result), EXIT_OK, "clean training => 0");
    assert_golden(
        &normalize(&result.unwrap().text, dir.to_str().unwrap()),
        "train.golden.json",
    );

    let common = [
        "--model",
        snap.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--workload",
        "wl",
        "--json",
    ];
    let mut argv = vec!["estimate"];
    argv.extend_from_slice(&common);
    let result = run_str(&argv);
    assert_eq!(exit_code(&result), EXIT_OK);
    assert_golden(
        &normalize(&result.unwrap().text, dir.to_str().unwrap()),
        "estimate.golden.json",
    );

    let mut argv = vec!["analyze"];
    argv.extend_from_slice(&common);
    argv.extend_from_slice(&["--top", "3"]);
    let result = run_str(&argv);
    assert_eq!(exit_code(&result), EXIT_OK);
    assert_golden(
        &normalize(&result.unwrap().text, dir.to_str().unwrap()),
        "analyze.golden.json",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_salvaged_snapshot_is_degraded_then_strict_fails() {
    let dir = std::env::temp_dir().join("spire-golden-salvage");
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
    let mut stored = ModelSnapshot::from_json(&std::fs::read_to_string(&snap).unwrap()).unwrap();
    stored.metrics[0].checksum = "0000000000000000".to_owned();
    std::fs::write(&snap, stored.to_json()).unwrap();

    let common = [
        "--model",
        snap.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        "--workload",
        "wl",
        "--json",
    ];
    // Lenient: salvaged => exit 2, with the drop visible in the events.
    let mut argv = vec!["estimate"];
    argv.extend_from_slice(&common);
    let result = run_str(&argv);
    assert_eq!(exit_code(&result), EXIT_DEGRADED, "salvage => 2");
    let text = normalize(&result.unwrap().text, dir.to_str().unwrap());
    assert!(text.contains("\"degraded\": true"));
    assert!(text.contains("\"kind\": \"snapshot_record_dropped\""));
    assert!(text.contains("\"kind\": \"snapshot_salvaged\""));
    assert_golden(&text, "estimate_salvaged.golden.json");

    // Strict: the artifact is refused outright => exit 1.
    argv.push("--strict");
    let result = run_str(&argv);
    assert_eq!(exit_code(&result), EXIT_FAILURE, "strict salvage => 1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_convert_round_trip_is_byte_identical() {
    let dir = std::env::temp_dir().join("spire-golden-convert");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let binary = dir.join("data.spirecol");
    let back = dir.join("back.json");
    write_dataset(&data);

    // JSON -> binary, with the envelope pinned (sizes are deterministic).
    let result = run_str(&[
        "convert",
        "--data",
        data.to_str().unwrap(),
        "--out",
        binary.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(exit_code(&result), EXIT_OK, "clean convert => 0");
    assert_golden(
        &normalize(&result.unwrap().text, dir.to_str().unwrap()),
        "convert.golden.json",
    );

    // binary -> JSON reproduces the source file byte for byte.
    let result = run_str(&[
        "convert",
        "--data",
        binary.to_str().unwrap(),
        "--out",
        back.to_str().unwrap(),
        "--to",
        "json",
    ]);
    assert_eq!(exit_code(&result), EXIT_OK);
    assert_eq!(
        std::fs::read(&data).unwrap(),
        std::fs::read(&back).unwrap(),
        "JSON -> binary -> JSON must be byte-identical"
    );

    // Training reads either encoding to the same model.
    let train = |data_path: &std::path::Path, snap: &std::path::Path| {
        run_str(&[
            "train",
            "--data",
            data_path.to_str().unwrap(),
            "--snapshot",
            snap.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(snap).unwrap();
        ModelSnapshot::from_json(&text).unwrap().fingerprint()
    };
    let snap = dir.join("model.snapshot.json");
    assert_eq!(
        train(&data, &snap),
        train(&binary, &dir.join("model-bin.snapshot.json")),
        "training from the binary dataset drifted from the JSON path"
    );

    // The binary dataset answers estimates bit-identically to the JSON
    // one: the whole --json envelope (throughput included, full float
    // precision) must match byte for byte.
    let estimate = |data_path: &str| {
        let result = run_str(&[
            "estimate",
            "--model",
            snap.to_str().unwrap(),
            "--data",
            data_path,
            "--workload",
            "wl",
            "--json",
        ]);
        assert_eq!(exit_code(&result), EXIT_OK);
        normalize(&result.unwrap().text, dir.to_str().unwrap())
    };
    assert_eq!(
        estimate(data.to_str().unwrap()),
        estimate(binary.to_str().unwrap()),
        "estimates from the binary dataset drifted from the JSON path"
    );

    // One damaged data byte: a lenient convert salvages the rest with a
    // typed chunk_quarantined event (exit 2); --strict refuses (exit 1).
    let bad = dir.join("bad.spirecol");
    let mut bytes = std::fs::read(&binary).unwrap();
    bytes[100] ^= 0xff;
    std::fs::write(&bad, bytes).unwrap();
    let convert = |extra: &str| {
        run_str(&[
            "convert",
            "--data",
            bad.to_str().unwrap(),
            "--out",
            dir.join("salvaged.json").to_str().unwrap(),
            "--to",
            "json",
            extra,
        ])
    };
    let result = convert("--json");
    assert_eq!(exit_code(&result), EXIT_DEGRADED, "salvaged chunk => 2");
    assert!(result
        .unwrap()
        .text
        .contains(r#""kind": "chunk_quarantined""#));
    assert_eq!(exit_code(&convert("--strict")), EXIT_FAILURE, "strict => 1");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_envelope_is_uniform_across_subcommands() {
    // Every subcommand's --json output parses and carries the same
    // top-level schema fields in the same order.
    let dir = std::env::temp_dir().join("spire-golden-uniform");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    write_dataset(&data);
    let outputs = [
        run_str(&["list-workloads", "--json"]).unwrap(),
        run_str(&[
            "simulate",
            "--workload",
            "tnn",
            "--config",
            "SqueezeNet v1.1",
            "--cycles",
            "50000",
            "--json",
        ])
        .unwrap(),
        run_str(&[
            "tma",
            "--workload",
            "onnx",
            "--config",
            "T5 Encoder, Std.",
            "--cycles",
            "50000",
            "--json",
        ])
        .unwrap(),
        run_str(&[
            "coverage",
            "--data",
            data.to_str().unwrap(),
            "--workload",
            "wl",
            "--json",
        ])
        .unwrap(),
    ];
    for out in &outputs {
        let lines: Vec<&str> = out.text.lines().collect();
        assert_eq!(lines[0], "{");
        assert!(lines[1].starts_with("  \"command\": "), "{}", lines[1]);
        assert!(out.text.contains("\"schema_version\": 1"));
        assert!(out.text.contains("\"degraded\": "));
        assert!(out.text.contains("\"events\": "));
        assert!(out.text.contains("\"result\": "));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The base set: the three metrics above plus `m_front`, whose Pareto
/// front extends right of its apex.
fn base_set() -> SampleSet {
    let mut base = SampleSet::new();
    for m in ["m_alpha", "m_beta", "m_gamma"] {
        for i in 1..6 {
            base.push(Sample::new(m, 10.0, (5 * i) as f64, (10 - i) as f64).unwrap());
        }
    }
    for (w, d) in [(10.0, 10.0), (40.0, 10.0), (60.0, 6.0), (30.0, 1.0)] {
        base.push(Sample::new("m_front", 10.0, w, d).unwrap());
    }
    base
}

/// The extra batch: it raises `m_alpha`'s apex (a full refit), adds a
/// point right of `m_gamma`'s apex (a right-region refit) and one below
/// `m_front`'s front (unchanged). It pins the `update` stage's per-batch
/// `model_refit`/`model_unchanged` ordering.
fn extra_batch() -> SampleSet {
    let mut extra = SampleSet::new();
    for i in 6..9 {
        extra.push(Sample::new("m_alpha", 10.0, (5 * i) as f64, (10 - i) as f64).unwrap());
    }
    extra.push(Sample::new("m_gamma", 10.0, 10.0, 1.0).unwrap());
    extra.push(Sample::new("m_front", 10.0, 20.0, 1.0).unwrap());
    extra
}

/// `wl` is the base set, `wl2` the extra batch.
fn two_workload_dataset() -> Dataset {
    let mut ds = Dataset::new();
    ds.insert("wl", base_set());
    ds.insert("wl2", extra_batch());
    ds
}

#[test]
fn golden_train_incremental_json() {
    let dir = std::env::temp_dir().join("spire-golden-incremental");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let snap = dir.join("model.snapshot.json");
    two_workload_dataset().save(&data).unwrap();
    let result = run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
        "--incremental",
        "--json",
    ]);
    assert_eq!(
        exit_code(&result),
        EXIT_OK,
        "clean incremental training => 0"
    );
    assert_golden(
        &normalize(&result.unwrap().text, dir.to_str().unwrap()),
        "train_incremental.golden.json",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_update_json() {
    let dir = std::env::temp_dir().join("spire-golden-update");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let batch = dir.join("batch.json");
    let snap = dir.join("model.snapshot.json");
    let mut base_ds = Dataset::new();
    base_ds.insert("wl", base_set());
    base_ds.save(&data).unwrap();
    let mut batch_ds = Dataset::new();
    batch_ds.insert("wl2", extra_batch());
    batch_ds.save(&batch).unwrap();
    run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
    ])
    .unwrap();
    let result = run_str(&[
        "update",
        "--model",
        snap.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
        batch.to_str().unwrap(),
        "--snapshot-out",
        dir.join("updated.snapshot.json").to_str().unwrap(),
        "--out-delta",
        dir.join("delta.json").to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(exit_code(&result), EXIT_OK, "clean update => 0");
    assert_golden(
        &normalize(&result.unwrap().text, dir.to_str().unwrap()),
        "update.golden.json",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn golden_train_normalize_snapshot_bytes() {
    // `--normalize` over a multi-workload, machine-tagged dataset, with
    // one cycle-denominated metric (left unscaled): the snapshot file is
    // pinned byte for byte.
    let dir = std::env::temp_dir().join("spire-golden-normalize");
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.json");
    let snap = dir.join("model.snapshot.json");
    let mut ds = two_workload_dataset();
    let mut stalls = SampleSet::new();
    for i in 1..6 {
        stalls.push(Sample::new("stalls_total", 10.0, (7 * i) as f64, (9 - i) as f64).unwrap());
    }
    ds.insert("wl3", stalls);
    ds.set_machine(Some(
        spire_sim::MachineCatalog::builtin()
            .get("little")
            .unwrap()
            .spec(),
    ));
    ds.save(&data).unwrap();
    let result = run_str(&[
        "train",
        "--data",
        data.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
        "--normalize",
    ]);
    assert_eq!(exit_code(&result), EXIT_OK);
    let bytes = std::fs::read_to_string(&snap).unwrap();
    assert_golden(
        &normalize(&bytes, dir.to_str().unwrap()),
        "train_normalize.snapshot.golden.json",
    );
    std::fs::remove_dir_all(&dir).ok();
}
