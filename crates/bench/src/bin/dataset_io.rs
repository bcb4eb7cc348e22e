//! Dataset I/O benchmark: JSON parse vs binary column-file load at paper
//! scale (424 metrics, ~1.3M samples).
//!
//! Builds one synthetic dataset, writes it in both formats, and times
//! the two load paths (median of warm runs). Both decoded datasets must
//! be bit-identical to the source. The gates live on [`IoCase`]; a full
//! run writes `BENCH_dataset.json` at the workspace root when they pass.
//! `--quick` runs a tiny instance where only the identity gate is
//! enforced: at toy sizes the timings are noise.

use spire_bench::report::{finish, IoCase};
use spire_bench::{median_ms, XorShift};
use spire_core::{MetricColumn, MetricId, SampleSet};
use spire_counters::Dataset;

/// One synthetic workload: `metrics` metrics of `rows` samples each,
/// with intensities spread over [0.1, ~100] and throughputs on a noisy
/// roofline-ish surface. Built through the raw-column constructors so
/// generation is not the bottleneck at 1.3M rows.
fn build_dataset(metrics: usize, rows: usize, rng: &mut XorShift) -> Dataset {
    let mut columns = Vec::with_capacity(metrics);
    for j in 0..metrics {
        let metric = format!("metric_{j:03}");
        let mut time = Vec::with_capacity(rows);
        let mut work = Vec::with_capacity(rows);
        let mut delta = Vec::with_capacity(rows);
        for _ in 0..rows {
            let x = 0.1 + rng.unit() * 100.0;
            let p = (x * 10.0).min(500.0) * (0.5 + 0.5 * rng.unit());
            time.push(1.0);
            work.push(p);
            delta.push(p / x);
        }
        columns.push(
            MetricColumn::from_raw_columns(MetricId::new(&metric), time, work, delta)
                .expect("equal-length columns"),
        );
    }
    let set = SampleSet::from_columns(columns).expect("ascending metric order");
    [("bench".to_owned(), set)].into_iter().collect()
}

/// Bitwise equality of every column in two datasets.
fn bit_identical(a: &Dataset, b: &Dataset) -> bool {
    if a.iter().count() != b.iter().count() {
        return false;
    }
    for ((la, sa), (lb, sb)) in a.iter().zip(b.iter()) {
        if la != lb || sa.columns().len() != sb.columns().len() {
            return false;
        }
        for (ca, cb) in sa.columns().iter().zip(sb.columns()) {
            let same = |x: &[f64], y: &[f64]| {
                x.len() == y.len() && x.iter().zip(y).all(|(&p, &q)| p.to_bits() == q.to_bits())
            };
            if ca.metric() != cb.metric()
                || !same(ca.times(), cb.times())
                || !same(ca.works(), cb.works())
                || !same(ca.metric_deltas(), cb.metric_deltas())
            {
                return false;
            }
        }
    }
    true
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Paper scale is 424 × 3072 ≈ 1.30M samples, the paper's corpus size.
    let (metrics, rows) = if quick { (8, 128) } else { (424, 3072) };
    let mut rng = XorShift(0xda7a_10ad_bead_5eed);
    let dataset = build_dataset(metrics, rows, &mut rng);
    let total = dataset.total_samples();
    println!("built {metrics} metrics / {total} samples");

    let dir = std::env::temp_dir().join(format!("spire-dataset-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let json_path = dir.join("bench.json");
    let bin_path = dir.join("bench.spirecol");
    dataset.save(&json_path).expect("write JSON dataset");
    dataset
        .save_binary(&bin_path)
        .expect("write binary dataset");
    let json_bytes = std::fs::metadata(&json_path).expect("json size").len() as usize;
    let binary_bytes = std::fs::metadata(&bin_path).expect("binary size").len() as usize;
    println!("json {json_bytes} bytes, binary {binary_bytes} bytes");

    // The JSON parse at paper scale runs for minutes, so full mode times
    // it once; it is the slow side of a 10x-plus ratio, where run-to-run
    // noise cannot change the verdict.
    let json_runs = if quick { 3 } else { 1 };
    let (json_load_ms, from_json) =
        median_ms(json_runs, || Dataset::load(&json_path).expect("json load"));
    let (binary_load_ms, from_bin) =
        median_ms(3, || Dataset::load(&bin_path).expect("binary load"));
    let loads_bit_identical =
        bit_identical(&dataset, &from_json) && bit_identical(&dataset, &from_bin);
    let load_speedup = json_load_ms / binary_load_ms;
    println!("load: json {json_load_ms:.1} ms, binary {binary_load_ms:.1} ms ({load_speedup:.1}x)");

    let _ = std::fs::remove_dir_all(&dir);

    finish(
        &IoCase {
            metrics,
            rows_per_metric: rows,
            total_samples: total,
            json_bytes,
            binary_bytes,
            json_load_ms,
            binary_load_ms,
            load_speedup,
            loads_bit_identical,
        },
        quick,
    );
}
