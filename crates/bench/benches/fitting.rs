//! Benchmarks for the roofline fitting algorithms: the Jarvis-march left
//! fit, the Pareto front, whole-roofline fits (including perfbench-shaped
//! metric columns through the columnar path training takes), the
//! right-region fit (fast topological-DP path vs. the retained
//! graph/Dijkstra reference), and per-sample estimation.
//!
//! Besides the criterion-style groups, `main` runs a timed head-to-head of
//! `fit_right_front` against `roofline::reference::fit_right` on synthetic
//! Pareto fronts of k = 256 / 1024 / 4096 samples and writes the results to
//! `BENCH_fitting.json` at the workspace root when the rows pass their
//! gates (`spire_bench::report`). The comparison asserts the two fits
//! agree (equal plateau/tail, fit cost within 1e-9 relative) and panics on
//! a mismatch, so `--test` smoke runs validate correctness even though
//! they skip the timing.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spire_bench::median_ms;
use spire_bench::report::{finish, FitCase};
use spire_core::geometry::{pareto_front, upper_hull_from_origin, Point};
use spire_core::roofline::{fit_right_front, reference};
use spire_core::{FitOptions, MetricId, PiecewiseRoofline, RightFitMode, Sample, SampleSet};

/// Synthetic roofline-shaped samples: throughput rises then falls with
/// intensity, plus noise — the shape a real metric produces.
fn synthetic_samples(n: usize, seed: u64) -> Vec<Sample> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let intensity: f64 = rng.gen_range(0.01..100.0);
            let roof = if intensity < 10.0 {
                intensity * 0.4
            } else {
                4.0 * (10.0 / intensity).powf(0.3)
            };
            let p = roof * rng.gen_range(0.3..1.0);
            let t = rng.gen_range(0.5..2.0);
            Sample::new("bench", t, p * t, p * t / intensity).unwrap()
        })
        .collect()
}

/// One perfbench-shaped metric column: log-uniform intensity over
/// 0.5–2000 against per-interval cycles and instructions (IPC 0.4–3.0),
/// the noisy narrow metric the benchmark's pipeline trains 424 of.
fn perfbench_column(n: usize, seed: u64) -> SampleSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut set = SampleSet::new();
    for _ in 0..n {
        let cycles: f64 = 2.0e9 * rng.gen_range(0.9..1.1);
        let instructions = cycles * rng.gen_range(0.4..3.0);
        let intensity = 0.5 * (rng.gen::<f64>() * 4000f64.ln()).exp();
        set.push(Sample::new("bench", cycles, instructions, instructions / intensity).unwrap());
    }
    set
}

fn points_of(samples: &[Sample]) -> Vec<Point> {
    samples
        .iter()
        .map(|s| Point::new(s.intensity(), s.throughput()))
        .collect()
}

/// A jittered k-sample Pareto front (descending intensity, ascending
/// throughput), the shape the right fit sees from noisy real data.
fn jittered_front(k: usize, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut x = 100.0 + k as f64;
    let mut y = 0.5;
    (0..k)
        .map(|_| {
            x -= rng.gen_range(0.05..1.0);
            y += rng.gen_range(0.02..0.5);
            Point::new(x, y)
        })
        .collect()
}

/// An adversarial front for the reference algorithm: blocks of `block`
/// samples in convex position separated by throughput jumps far larger
/// than any within-block variation. Cross-block chords sag below the
/// convex interior, so the reference's per-pair feasibility scan walks
/// deep into each block before rejecting, while within-block pairs are
/// all feasible — a dense segment graph with long scans, without the
/// memory blow-up of a fully convex front.
fn block_convex_front(k: usize, block: usize) -> Vec<Point> {
    let jump = 10.0 * (block * block) as f64;
    (0..k)
        .map(|i| {
            let t = (i % block) as f64;
            let y = (i / block) as f64 * jump + t * t + 1.0;
            Point::new((k - i) as f64, y)
        })
        .collect()
}

fn bench_geometry(c: &mut Criterion) {
    let mut group = c.benchmark_group("geometry");
    group.sample_size(20);
    for n in [100usize, 1_000, 10_000] {
        let pts = points_of(&synthetic_samples(n, 7));
        group.bench_with_input(BenchmarkId::new("upper_hull", n), &pts, |b, pts| {
            b.iter(|| upper_hull_from_origin(std::hint::black_box(pts)));
        });
        group.bench_with_input(BenchmarkId::new("pareto_front", n), &pts, |b, pts| {
            b.iter(|| pareto_front(std::hint::black_box(pts)));
        });
    }
    group.finish();
}

fn bench_roofline_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("roofline_fit");
    group.sample_size(10);
    for n in [100usize, 1_000, 10_000] {
        let samples = synthetic_samples(n, 11);
        group.bench_with_input(BenchmarkId::new("graph", n), &samples, |b, s| {
            b.iter(|| {
                PiecewiseRoofline::fit("bench".into(), s.iter(), &FitOptions::default()).unwrap()
            });
        });
        let plateau = FitOptions {
            right_fit: RightFitMode::Plateau,
            ..FitOptions::default()
        };
        group.bench_with_input(BenchmarkId::new("plateau", n), &samples, |b, s| {
            b.iter(|| PiecewiseRoofline::fit("bench".into(), s.iter(), &plateau).unwrap());
        });
    }
    // The columnar path training takes, on the traffic perfbench serves.
    for n in [1_664usize, 3_072] {
        let set = perfbench_column(n, 23);
        let column = set.column(&MetricId::new("bench")).unwrap();
        group.bench_with_input(BenchmarkId::new("perfbench_column", n), column, |b, c| {
            b.iter(|| {
                PiecewiseRoofline::fit_column(std::hint::black_box(c), &FitOptions::default())
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_right_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("right_fit");
    group.sample_size(10);
    for k in [256usize, 1_024, 4_096] {
        let front = jittered_front(k, 17);
        group.bench_with_input(BenchmarkId::new("front_dp", k), &front, |b, f| {
            b.iter(|| fit_right_front(std::hint::black_box(f), None));
        });
    }
    group.finish();
}

fn bench_estimate(c: &mut Criterion) {
    let samples = synthetic_samples(5_000, 13);
    let roofline =
        PiecewiseRoofline::fit("bench".into(), samples.iter(), &FitOptions::default()).unwrap();
    c.bench_function("roofline_estimate", |b| {
        let mut x = 0.01;
        b.iter(|| {
            x = if x > 90.0 { 0.01 } else { x * 1.07 };
            std::hint::black_box(roofline.estimate(x))
        });
    });
}

fn bench_batch_estimate(c: &mut Criterion) {
    let train = synthetic_samples(5_000, 13);
    let roofline =
        PiecewiseRoofline::fit("bench".into(), train.iter(), &FitOptions::default()).unwrap();
    let probes: SampleSet = synthetic_samples(10_000, 19).into_iter().collect();
    let column = probes.column(&MetricId::new("bench")).unwrap();
    let mut group = c.benchmark_group("batch_estimate");
    group.sample_size(20);
    group.bench_function("per_sample", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in column.intensities() {
                acc += roofline.estimate(std::hint::black_box(x));
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_geometry,
    bench_roofline_fit,
    bench_right_fit,
    bench_estimate,
    bench_batch_estimate
);

// --- fast-vs-reference comparison, emitted as BENCH_fitting.json -----------

/// Asserts the fast fit matches the reference on `front`: equal plateau
/// and tail, fit cost within 1e-9 relative. Panics on violation (this is
/// the invariant CI smoke mode checks).
fn assert_fits_agree(shape: &str, k: usize, front: &[Point]) {
    let fast = fit_right_front(front, None);
    let slow = reference::fit_right(front, None);
    assert_eq!(
        fast.plateau(),
        slow.plateau(),
        "{shape}/{k}: plateau mismatch"
    );
    assert_eq!(fast.tail(), slow.tail(), "{shape}/{k}: tail mismatch");
    let (a, b) = (fast.fit_error(), slow.fit_error());
    assert!(
        (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
        "{shape}/{k}: fit cost diverged: fast {a} vs reference {b}"
    );
}

fn fit_comparison() -> Vec<FitCase> {
    let mut cases = Vec::new();
    for &(shape, make) in &[
        ("jittered", jittered_front as fn(usize, u64) -> Vec<Point>),
        ("block_convex", |k, _| block_convex_front(k, 64)),
    ] {
        for &k in &[256usize, 1_024, 4_096] {
            let front = make(k, 17);
            // The reference is O(k^3)-ish; skip it at the largest size.
            let run_reference = k <= 1_024;
            if run_reference {
                assert_fits_agree(shape, k, &front);
            }
            let (fast_ms, _) = median_ms(5, || fit_right_front(&front, None));
            let reference_ms =
                run_reference.then(|| median_ms(3, || reference::fit_right(&front, None)).0);
            let speedup = reference_ms.map(|r| r / fast_ms);
            println!(
                "right_fit {shape}/{k}: fast {fast_ms:.3} ms, reference {}, speedup {}",
                reference_ms.map_or("skipped".into(), |r| format!("{r:.3} ms")),
                speedup.map_or("-".into(), |s| format!("{s:.1}x")),
            );
            cases.push(FitCase {
                shape: shape.to_owned(),
                k,
                fast_ms,
                reference_ms,
                speedup,
            });
        }
    }
    cases
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        // Validate the fast-vs-reference invariants on small fronts; no
        // timing, no BENCH_fitting.json (smoke numbers would be noise).
        for k in [64usize, 256] {
            assert_fits_agree("jittered", k, &jittered_front(k, 17));
            assert_fits_agree("block_convex", k, &block_convex_front(k, 16));
        }
        println!("bench right_fit invariants ... ok (smoke)");
    } else {
        finish(&fit_comparison(), false);
    }
    benches();
}
