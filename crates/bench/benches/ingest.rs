//! Criterion benchmarks for the fault-tolerant perf ingest: clean
//! multiplexed captures, captures salted with quarantine-worthy rows, the
//! scaling-disabled path, and a paper-shaped capture (424 events
//! recurring in a fixed order every interval, as `perf stat` writes
//! them) beside a copy with its interval blocks shuffled, which defeats
//! the ingest's next-event guess and in-order interval fast path.
//!
//! Run `cargo bench --bench ingest` for full measurements, or with
//! `-- --test` for the smoke mode CI uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spire_counters::{ingest_perf_csv, IngestConfig};

/// Synthesizes a multiplexed `perf stat -I -x,` capture: `intervals`
/// intervals of `events` events each, with running fractions drawn from
/// `(0.1, 1.0]` and a `garbage_every`-th line replaced by junk (0 = none).
fn synth_capture(intervals: usize, events: usize, garbage_every: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = String::with_capacity(intervals * events * 48);
    let mut line = 0usize;
    for i in 0..intervals {
        let t = (i + 1) as f64;
        out.push_str(&format!(
            "{t:.6},{},,inst_retired.any,1000000,100.00,,\n",
            rng.gen_range(500_000u64..2_000_000)
        ));
        out.push_str(&format!(
            "{t:.6},{},,cpu_clk_unhalted.thread,1000000,100.00,,\n",
            rng.gen_range(500_000u64..1_000_000)
        ));
        for e in 0..events {
            line += 1;
            if garbage_every > 0 && line.is_multiple_of(garbage_every) {
                out.push_str("…truncated garbage row…\n");
                continue;
            }
            let pct: f64 = rng.gen_range(10.0..100.0);
            out.push_str(&format!(
                "{t:.6},{},,synth.event_{e:03},{},{pct:.2},,\n",
                rng.gen_range(0u64..5_000_000),
                (pct * 10_000.0) as u64
            ));
        }
    }
    out
}

/// `text` (as [`synth_capture`] writes it, `events` rows plus the two
/// fixed rows per interval) with its interval blocks in a seeded random
/// order.
fn shuffle_intervals(text: &str, events: usize, seed: u64) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut blocks: Vec<&[&str]> = lines.chunks(events + 2).collect();
    blocks.shuffle(&mut SmallRng::seed_from_u64(seed));
    let mut out = String::with_capacity(text.len());
    for line in blocks.concat() {
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn bench_ingest(c: &mut Criterion) {
    let clean = synth_capture(200, 64, 0, 11);
    let dirty = synth_capture(200, 64, 9, 13);
    let paper = synth_capture(96, 424, 0, 17);
    let paper_shuffled = shuffle_intervals(&paper, 424, 19);
    let config = IngestConfig::default();
    let raw = IngestConfig {
        scale_multiplexed: false,
        ..IngestConfig::default()
    };

    let mut group = c.benchmark_group("ingest");
    group.bench_with_input(BenchmarkId::new("scaled", "clean"), &clean, |b, text| {
        b.iter(|| ingest_perf_csv(std::hint::black_box(text), &config));
    });
    group.bench_with_input(BenchmarkId::new("scaled", "dirty"), &dirty, |b, text| {
        b.iter(|| ingest_perf_csv(std::hint::black_box(text), &config));
    });
    group.bench_with_input(BenchmarkId::new("raw", "clean"), &clean, |b, text| {
        b.iter(|| ingest_perf_csv(std::hint::black_box(text), &raw));
    });
    group.bench_with_input(BenchmarkId::new("scaled", "paper"), &paper, |b, text| {
        b.iter(|| ingest_perf_csv(std::hint::black_box(text), &config));
    });
    group.bench_with_input(
        BenchmarkId::new("scaled", "paper-shuffled"),
        &paper_shuffled,
        |b, text| {
            b.iter(|| ingest_perf_csv(std::hint::black_box(text), &config));
        },
    );
    group.finish();

    // Sanity outside the timed loop: the dirty capture really exercises
    // the quarantine path without tripping the budget.
    let out = ingest_perf_csv(&dirty, &config);
    assert!(out.report.rows_quarantined > 0);
    assert!(!out.report.budget_exceeded());
    // The shuffled paper capture holds the same intervals, so it must
    // yield the same samples bit for bit.
    assert_ne!(paper, paper_shuffled);
    let in_order = ingest_perf_csv(&paper, &config).samples;
    let shuffled = ingest_perf_csv(&paper_shuffled, &config).samples;
    assert_eq!(in_order.len(), 96 * 424);
    let bits = |set: &spire_core::SampleSet| -> Vec<(String, [u64; 3])> {
        set.iter()
            .map(|s| {
                let fields = [s.time(), s.work(), s.metric_delta()];
                (s.metric().to_string(), fields.map(f64::to_bits))
            })
            .collect()
    };
    assert_eq!(bits(&in_order), bits(&shuffled));
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
