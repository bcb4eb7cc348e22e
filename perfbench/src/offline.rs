//! The offline path: `spire ingest → train → analyze` passes through the
//! CLI, and the same path through the library as the reference the CLI's
//! rankings must equal (timed layer by layer when tracing).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use spire_core::catalog::MetricCatalog;
use spire_core::geometry::{pareto_front_soa, upper_hull_from_origin_soa};
use spire_core::roofline::fit_right_front;
use spire_core::{
    write_atomic, BottleneckReport, ModelSnapshot, RankedMetric, SampleSet, SnapshotMode,
    SpireModel, TrainConfig, TrainStrictness,
};
use spire_counters::{ingest_perf_csv, Dataset, IngestConfig};

use crate::trace::Tracer;
use crate::Outcome;

/// Held-out captures analyzed by every pass.
pub const HELD_OUT: usize = 4;

pub fn held_out_label(k: usize) -> String {
    format!("heldout-{k}")
}

/// The files one pass reads and writes.
pub struct PassFiles {
    pub csv: PathBuf,
    pub held_out: PathBuf,
    pub data: PathBuf,
    pub snapshot: PathBuf,
}

impl PassFiles {
    pub fn new(dir: &Path) -> Self {
        PassFiles {
            csv: dir.join("corpus.csv"),
            held_out: dir.join("heldout.json"),
            data: dir.join("corpus.spirecol"),
            snapshot: dir.join("model.snapshot.json"),
        }
    }
}

/// One `spire analyze --json` answer.
#[derive(Debug, serde::Deserialize)]
struct Envelope {
    result: AnalyzeResult,
}

#[derive(Debug, serde::Deserialize)]
struct AnalyzeResult {
    throughput: f64,
    rows: Vec<RankedMetric>,
}

/// A pass's rankings, in held-out order.
pub type Rankings = Vec<(f64, Vec<RankedMetric>)>;

/// Runs one CLI step; `Ok(stdout)` only on exit code 0.
fn step(spire: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new(spire)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run spire {}: {e}", args[0]))?;
    if !out.status.success() {
        return Err(format!(
            "spire {} exited with {}: {}",
            args[0],
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// One timed pass: ingest the capture to the binary format, train a
/// snapshot, analyze each held-out capture. Every step counts as an
/// attempted operation; a failed step ends the pass.
pub fn cli_pass(
    spire: &Path,
    files: &PassFiles,
    outcome: &mut Outcome,
) -> Result<(f64, Rankings), String> {
    let start = Instant::now();
    let path = |p: &PathBuf| p.display().to_string();
    let (csv, data, snapshot, held_out) = (
        path(&files.csv),
        path(&files.data),
        path(&files.snapshot),
        path(&files.held_out),
    );
    let mut rankings = Vec::new();
    let mut steps_ms = Vec::new();
    let mut run = |args: &[&str]| {
        outcome.attempted += 1;
        let started = Instant::now();
        let out = step(spire, args).inspect_err(|_| outcome.failed += 1);
        steps_ms.push(format!(
            "{} {:.0}",
            args[0],
            started.elapsed().as_secs_f64() * 1e3
        ));
        out
    };
    run(&[
        "ingest", "--csv", &csv, "--out", &data, "--binary", "--label", "corpus",
    ])?;
    run(&["train", "--data", &data, "--snapshot", &snapshot])?;
    for k in 0..HELD_OUT {
        let label = held_out_label(k);
        let text = run(&[
            "analyze",
            "--model",
            &snapshot,
            "--data",
            &held_out,
            "--workload",
            &label,
            "--json",
        ])?;
        let envelope: Envelope = serde_json::from_str(text.trim())
            .map_err(|e| format!("analyze --json output does not parse: {e}"))?;
        rankings.push((envelope.result.throughput, envelope.result.rows));
    }
    eprintln!("perfbench: pass steps (ms): {}", steps_ms.join(", "));
    Ok((start.elapsed().as_secs_f64(), rankings))
}

/// The held-out captures as one labeled dataset file.
pub fn write_held_out(sets: &[SampleSet], path: &Path) -> Result<(), String> {
    let mut dataset = Dataset::new();
    for (k, set) in sets.iter().enumerate() {
        dataset.insert(held_out_label(k), set.clone());
    }
    dataset
        .save(path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The direct-API ranking the CLI must reproduce.
pub fn rank(
    model: &SpireModel,
    set: &SampleSet,
    top: usize,
) -> Result<(f64, Vec<RankedMetric>), String> {
    let estimate = model.estimate(set).map_err(|e| e.to_string())?;
    let report = BottleneckReport::new(&estimate, &MetricCatalog::table_iii());
    Ok((report.throughput(), report.top(top).to_vec()))
}

/// The offline path through the library: ingest, binary round trip,
/// train, snapshot round trip. With tracing on, each call is a span and
/// the per-layer numbers land in `outcome`; the geometry and right-fit
/// kernels are also timed on their own, metric by metric, as training
/// calls them.
pub fn library_chain(
    csv: &str,
    scratch: &Path,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(SampleSet, SpireModel), String> {
    let root = tracer.open("offline", None, None);
    let (ingest, ingest_ms) = tracer.time("counters.ingest", root, None, || {
        ingest_perf_csv(csv, &IngestConfig::default())
    });
    let rows = ingest.report.rows_seen;
    let rows_quarantined = ingest.report.rows_quarantined;
    let mut dataset = Dataset::new();
    dataset.insert_with_report("corpus", ingest.samples, ingest.report);
    let (bytes, write_ms) = tracer.time("core.colfile.write", root, None, || {
        dataset.to_colfile_bytes()
    });
    drop(dataset);
    let (loaded, load_ms) = tracer.time("core.colfile.load", root, None, || {
        Dataset::from_colfile_bytes(&bytes, SnapshotMode::Lenient)
    });
    let (loaded, _) = loaded.map_err(|e| format!("binary round trip failed: {e}"))?;
    let samples = loaded
        .get("corpus")
        .cloned()
        .ok_or("binary round trip lost the corpus")?;

    let (mut front_ms, mut hull_ms, mut fit_ms) = (0.0, 0.0, 0.0);
    let (mut front_points, mut knots) = (0usize, 0usize);
    if tracer.enabled() {
        for (_, column) in samples.by_metric() {
            let (xs, ys) = (column.intensities(), column.throughputs());
            let (hull, ms) = tracer.time("core.geometry.hull", root, None, || {
                upper_hull_from_origin_soa(xs, ys)
            });
            hull_ms += ms;
            let apex = hull.last().map_or(0.0, |p| p.x);
            let (rx, ry): (Vec<f64>, Vec<f64>) = xs
                .iter()
                .zip(ys)
                .filter(|(&x, _)| x.is_finite() && x >= apex)
                .map(|(&x, &y)| (x, y))
                .unzip();
            let (front, ms) = tracer.time("core.geometry.front", root, None, || {
                pareto_front_soa(&rx, &ry)
            });
            front_ms += ms;
            front_points += front.len();
            if !front.is_empty() {
                let (region, ms) = tracer.time("core.roofline.right_fit", root, None, || {
                    fit_right_front(&front, None)
                });
                fit_ms += ms;
                knots += region.knots().len();
            }
        }
    }

    let (trained, train_ms) = tracer.time("core.ensemble.train", root, None, || {
        // `spire train` with no options trains with the default configuration.
        SpireModel::train_with_report(&samples, TrainConfig::default(), TrainStrictness::Lenient)
    });
    let trained = trained.map_err(|e| format!("direct training failed: {e}"))?;
    let snapshot_path = scratch.join("library.snapshot.json");
    let (written, snap_write_ms) = tracer.time("core.snapshot.write", root, None, || {
        let json = ModelSnapshot::from_model(&trained.model)
            .map_err(|e| e.to_string())?
            .to_json();
        write_atomic(&snapshot_path, &json).map_err(|e| e.to_string())?;
        Ok::<usize, String>(json.len())
    });
    let snapshot_bytes = written?;
    let (reloaded, snap_load_ms) = tracer.time("core.snapshot.load", root, None, || {
        load_snapshot(&snapshot_path)
    });
    let model = reloaded?;
    tracer.close(root);

    outcome.layer("counters.ingest.ms", ingest_ms, "ms");
    outcome.layer("counters.ingest.rows", rows as f64, "count");
    outcome.layer(
        "counters.ingest.rows_quarantined",
        rows_quarantined as f64,
        "count",
    );
    outcome.layer("core.colfile.write_ms", write_ms, "ms");
    outcome.layer("core.colfile.load_ms", load_ms, "ms");
    outcome.layer("core.colfile.bytes", bytes.len() as f64, "bytes");
    outcome.layer("core.geometry.front_ms", front_ms, "ms");
    outcome.layer("core.geometry.hull_ms", hull_ms, "ms");
    outcome.layer("core.geometry.front_points", front_points as f64, "count");
    outcome.layer("core.roofline.right_fit_ms", fit_ms, "ms");
    outcome.layer("core.roofline.right_knots", knots as f64, "count");
    outcome.layer("core.ensemble.train_ms", train_ms, "ms");
    outcome.layer(
        "core.ensemble.metrics_quarantined",
        trained.report.quarantined.len() as f64,
        "count",
    );
    outcome.layer("core.snapshot.write_ms", snap_write_ms, "ms");
    outcome.layer("core.snapshot.load_ms", snap_load_ms, "ms");
    outcome.layer("core.snapshot.bytes", snapshot_bytes as f64, "bytes");
    Ok((samples, model))
}

/// Loads a snapshot file the way the daemon does.
pub fn load_snapshot(path: &Path) -> Result<SpireModel, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let snapshot = ModelSnapshot::from_json(&text).map_err(|e| e.to_string())?;
    let load = snapshot
        .into_model(SnapshotMode::Lenient)
        .map_err(|e| e.to_string())?;
    Ok(load.model)
}

/// The serving fingerprint of a model, as the daemon computes it.
pub fn fingerprint(model: &SpireModel) -> Result<String, String> {
    Ok(ModelSnapshot::from_model(model)
        .map_err(|e| e.to_string())?
        .fingerprint())
}

/// Peak resident set of the largest child process reaped so far, in MiB.
pub fn children_peak_rss_mb() -> Result<f64, String> {
    // struct rusage on 64-bit Linux: two timevals, then fourteen longs
    // starting with ru_maxrss (KiB).
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a writable struct with the size and layout of
    // `struct rusage` on 64-bit Linux, and getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err("getrusage failed".to_owned());
    }
    Ok(usage.longs[0] as f64 / 1024.0)
}
