//! Seeded input generation: the perf-stat capture every workload trains
//! on, and the sample sets its reads and updates carry.
//!
//! Everything is a pure function of the run seed and a stream index, so a
//! check made after the timed window can regenerate exactly the inputs a
//! request carried instead of keeping them in memory.

use std::fmt::Write as _;

use spire_core::{MetricId, SampleSet};

/// SplitMix64: small, fast, and good enough to drive input generation.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean (Poisson gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Stream indices, one per kind of generated input.
pub mod stream {
    pub const CORPUS: u64 = 1;
    pub const HELD_OUT: u64 = 2;
    pub const SCHEDULE: u64 = 3;
    pub const READ: u64 = 1_000_000;
    pub const UPDATE: u64 = 2_000_000;
    pub const SMALL: u64 = 3_000_000;
}

/// The perf event name of metric `j`.
pub fn metric_name(j: usize) -> String {
    format!("bench.ev{j:03}")
}

/// The fixed events the ingest path reads `W` and `T` from.
const WORK_EVENT: &str = "inst_retired.any";
const TIME_EVENT: &str = "cpu_clk_unhalted.thread";

/// Shape of a generated capture.
#[derive(Debug, Clone, Copy)]
pub struct Corpus {
    pub metrics: usize,
    pub intervals: usize,
    /// Metrics `0..wide` get a staircase Pareto front of about `front`
    /// points; the rest get noisy narrow fronts (a handful of points).
    pub wide: usize,
    pub front: usize,
}

/// One interval's cycles and instructions.
fn interval(rng: &mut Rng) -> (f64, f64) {
    let cycles = (2.0e9 * (0.9 + 0.2 * rng.unit())).round();
    let ipc = 0.4 + 2.6 * rng.unit();
    (cycles, (ipc * cycles).round())
}

/// A `perf stat -I -x,` capture of `corpus.metrics` multiplexed events
/// plus the two fixed events, one row per event per interval.
pub fn corpus_csv(seed: u64, corpus: Corpus) -> String {
    let mut rng = Rng::new(seed, stream::CORPUS);
    let n = corpus.intervals;
    let fixed: Vec<(f64, f64)> = (0..n).map(|_| interval(&mut rng)).collect();
    // Rank intervals by throughput, highest first: a wide metric's
    // staircase climbs in intensity as throughput falls, so every point on
    // it is Pareto-undominated.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let pa = fixed[a].1 / fixed[a].0;
        let pb = fixed[b].1 / fixed[b].0;
        pb.total_cmp(&pa)
    });
    let mut rank = vec![0usize; n];
    for (r, &t) in order.iter().enumerate() {
        rank[t] = r;
    }
    let on_share = corpus.front as f64 / n as f64;
    let golden = 0.618_033_988_749_895_f64;
    // intensity[j][t]
    let mut intensity = vec![vec![0.0f64; n]; corpus.metrics];
    for (j, row) in intensity.iter_mut().enumerate() {
        let base = 0.5 + 4.0 * rng.unit();
        for t in 0..n {
            row[t] = if j < corpus.wide {
                let r = rank[t] as f64;
                // Strictly increasing in rank, with quasi-random step
                // sizes so no three staircase points are collinear (the
                // shape of the online-training benchmark's fronts).
                let stair = base * (1.0 + 0.1 * (r + 0.5 * (r * golden).fract()));
                if rank[t] == 0 || rng.unit() < on_share {
                    stair
                } else {
                    stair * (0.2 + 0.6 * rng.unit())
                }
            } else {
                base * (rng.unit() * 400f64.ln()).exp()
            };
        }
    }
    let mut out = String::with_capacity(n * (corpus.metrics + 2) * 48);
    for (t, &(cycles, instructions)) in fixed.iter().enumerate() {
        let ts = t + 1;
        let _ = writeln!(
            out,
            "{ts}.000000,{instructions},,{WORK_EVENT},1000000000,100.00,,"
        );
        let _ = writeln!(
            out,
            "{ts}.000000,{cycles},,{TIME_EVENT},1000000000,100.00,,"
        );
        for (j, row) in intensity.iter().enumerate() {
            // Events share counters three ways, so each is live for a
            // fixed share of every interval and ingest scales it back up.
            let (share, run, pct) = match j % 3 {
                0 => (1.0, 1_000_000_000u64, "100.00"),
                1 => (0.5, 500_000_000, "50.00"),
                _ => (0.25, 250_000_000, "25.00"),
            };
            let count = (instructions / row[t] * share).round().max(1.0) as u64;
            let _ = writeln!(out, "{ts}.000000,{count},,{},{run},{pct},,", metric_name(j));
        }
    }
    out
}

/// A workload's samples: `rows` intervals of every metric, drawn from
/// the same ranges as the corpus.
pub fn workload(seed: u64, stream: u64, metrics: usize, rows: usize) -> SampleSet {
    let mut rng = Rng::new(seed, stream);
    let mut set = SampleSet::new();
    let names: Vec<MetricId> = (0..metrics)
        .map(|j| MetricId::new(metric_name(j)))
        .collect();
    for _ in 0..rows {
        let (cycles, instructions) = interval(&mut rng);
        for name in &names {
            let intensity = 0.5 * (rng.unit() * 4000f64.ln()).exp();
            set.push_parts(name.clone(), cycles, instructions, instructions / intensity)
                .expect("generated samples are positive and finite");
        }
    }
    set
}
