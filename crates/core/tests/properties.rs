//! Property-based tests for the SPIRE core invariants.
//!
//! These exercise the fitting algorithms and ensemble arithmetic on random
//! inputs: the invariants here are the paper's correctness conditions
//! (upper-bound fits, monotone regions, min-ensemble semantics).

use proptest::prelude::*;
use spire_core::geometry::{pareto_front, piecewise_eval, upper_hull_from_origin, Point};
use spire_core::{
    EnsembleAggregation, FitOptions, MergeStrategy, PiecewiseRoofline, RightFitMode, Sample,
    SampleSet, SpireModel, TrainConfig,
};

/// Strategy: one raw sample triple `(T, W, M)`. `M` is zero ~10% of the
/// time to exercise infinite-intensity handling.
fn raw_sample() -> impl Strategy<Value = (f64, f64, f64)> {
    (
        0.1f64..100.0,
        0.0f64..1000.0,
        prop_oneof![
            1 => Just(0.0f64),
            9 => 0.01f64..100.0,
        ],
    )
}

fn samples(metric: &'static str, n: usize) -> impl Strategy<Value = Vec<Sample>> {
    prop::collection::vec(raw_sample(), 1..n).prop_map(move |v| {
        v.into_iter()
            .map(|(t, w, m)| Sample::new(metric, t, w, m).expect("valid by construction"))
            .collect()
    })
}

/// Strategy: an interleaved multi-metric corpus — up to `per_metric`
/// samples for each of `metrics` metric names, in arbitrary row order.
fn corpus(metrics: usize, per_metric: usize) -> impl Strategy<Value = Vec<Sample>> {
    let names: Vec<String> = (0..metrics).map(|i| format!("metric_{i}")).collect();
    prop::collection::vec((0..metrics, raw_sample()), metrics..metrics * per_metric).prop_map(
        move |v| {
            v.into_iter()
                .map(|(i, (t, w, m))| {
                    Sample::new(names[i].as_str(), t, w, m).expect("valid by construction")
                })
                .collect()
        },
    )
}

/// Tolerance used when checking the upper-bound property; fits only need
/// to hold up to floating-point round-off.
fn tol(v: f64) -> f64 {
    1e-6 * (1.0 + v.abs())
}

/// Strategy: an f64 that may be finite, NaN, or an infinity — the full
/// range a long-running service can see in hostile request payloads.
fn wild_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -1e6f64..1e6,
        1 => Just(f64::NAN),
        1 => prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(-0.0f64)],
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite hardening: rank statistics are total functions. No
    /// finite-or-NaN (or infinite) input may panic, and results stay in
    /// the documented ranges.
    #[test]
    fn rank_stats_never_panic(pairs in prop::collection::vec((wild_f64(), wild_f64()), 0..32)) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let tau = spire_core::stats::kendall_tau(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&tau), "tau out of range: {tau}");
        let rho = spire_core::stats::spearman_rho(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&rho), "rho out of range: {rho}");
    }

    /// `overlap_at_k` is total over every `k` (including 0 and beyond
    /// both lengths), bounded in [0, 1], and symmetric in its lists.
    #[test]
    fn overlap_at_k_is_total_and_symmetric(
        a in prop::collection::vec(0u8..16, 0..12),
        b in prop::collection::vec(0u8..16, 0..12),
        k in 0usize..32,
    ) {
        let ab = spire_core::stats::overlap_at_k(&a, &b, k);
        let ba = spire_core::stats::overlap_at_k(&b, &a, k);
        prop_assert!((0.0..=1.0).contains(&ab), "overlap out of range: {ab}");
        prop_assert_eq!(ab.to_bits(), ba.to_bits(), "overlap not symmetric");
        prop_assert_eq!(spire_core::stats::overlap_at_k(&a, &b, 0).to_bits(), 1.0f64.to_bits());
    }

    /// Paper Sec. III-B: the fitted function lies on or above all of its
    /// training samples — for every fitting mode.
    #[test]
    fn roofline_is_upper_bound(samples in samples("m", 64)) {
        for mode in [RightFitMode::Graph, RightFitMode::Plateau, RightFitMode::Auto] {
            let opts = FitOptions { right_fit: mode, ..FitOptions::default() };
            let r = PiecewiseRoofline::fit("m".into(), samples.iter(), &opts).unwrap();
            for s in &samples {
                let est = r.estimate(s.intensity());
                prop_assert!(
                    est >= s.throughput() - tol(s.throughput()),
                    "mode {mode:?}: estimate {est} below throughput {} at I={}",
                    s.throughput(),
                    s.intensity()
                );
            }
        }
    }

    /// Left of the apex the fit is non-decreasing (increasing, concave-down
    /// segments from the origin).
    #[test]
    fn left_region_is_monotone_nondecreasing(samples in samples("m", 64)) {
        let r = PiecewiseRoofline::fit("m".into(), samples.iter(), &FitOptions::default())
            .unwrap();
        if let Some(apex) = r.apex() {
            if apex.x > 0.0 {
                let mut prev = f64::NEG_INFINITY;
                for i in 0..=50 {
                    // Clamp: rounding in the multiply must not push the
                    // probe past the apex into the right region.
                    let x = (apex.x * i as f64 / 50.0).min(apex.x);
                    let v = r.estimate(x.max(f64::MIN_POSITIVE));
                    prop_assert!(v >= prev - tol(prev));
                    prev = v;
                }
            }
        }
    }

    /// Left knots are concave-down: slopes are non-increasing along the
    /// hull.
    #[test]
    fn left_knots_are_concave_down(samples in samples("m", 64)) {
        let r = PiecewiseRoofline::fit("m".into(), samples.iter(), &FitOptions::default())
            .unwrap();
        let knots = r.left_knots();
        let slopes: Vec<f64> = knots
            .windows(2)
            .filter(|w| w[1].x > w[0].x)
            .map(|w| w[0].slope_to(&w[1]))
            .collect();
        for w in slopes.windows(2) {
            prop_assert!(w[1] <= w[0] + tol(w[0]), "slopes increased: {slopes:?}");
        }
    }

    /// Right-region knots descend: throughput is non-increasing across the
    /// chosen Pareto knots, and their slopes are non-decreasing
    /// (concave-up).
    #[test]
    fn right_knots_descend_concave_up(samples in samples("m", 64)) {
        let r = PiecewiseRoofline::fit("m".into(), samples.iter(), &FitOptions::default())
            .unwrap();
        if let Some(region) = r.right_region() {
            let knots = region.knots();
            for w in knots.windows(2) {
                prop_assert!(w[1].y <= w[0].y + tol(w[0].y));
            }
            let slopes: Vec<f64> = knots
                .windows(2)
                .filter(|w| w[1].x > w[0].x)
                .map(|w| w[0].slope_to(&w[1]))
                .collect();
            for w in slopes.windows(2) {
                prop_assert!(w[1] >= w[0] - tol(w[0]), "not concave-up: {slopes:?}");
            }
        }
    }

    /// The ensemble estimate equals the minimum per-metric merged estimate
    /// under the paper's aggregation, and the mean under the ablation.
    #[test]
    fn ensemble_aggregation_matches_definition(
        a in samples("metric_a", 32),
        b in samples("metric_b", 32),
    ) {
        let mut train = SampleSet::new();
        train.extend(a.iter().cloned());
        train.extend(b.iter().cloned());
        let mut wl = SampleSet::new();
        wl.extend(a.iter().take(4).cloned());
        wl.extend(b.iter().take(4).cloned());

        for agg in [EnsembleAggregation::Min, EnsembleAggregation::Mean] {
            let cfg = TrainConfig { aggregation: agg, ..TrainConfig::default() };
            let model = SpireModel::train(&train, cfg).unwrap();
            let est = model.estimate(&wl).unwrap();
            let vals: Vec<f64> = est.per_metric().values().map(|m| m.merged).collect();
            let expect = match agg {
                EnsembleAggregation::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
                EnsembleAggregation::Mean => vals.iter().sum::<f64>() / vals.len() as f64,
                _ => unreachable!(),
            };
            prop_assert!((est.throughput() - expect).abs() <= tol(expect));
        }
    }

    /// Eq. (1): the merged per-metric estimate is bounded by the extreme
    /// single-sample estimates, for both merge strategies.
    #[test]
    fn merged_estimate_is_bounded_by_extremes(train in samples("m", 48), wl in samples("m", 16)) {
        for merge in [MergeStrategy::TimeWeighted, MergeStrategy::Unweighted] {
            let cfg = TrainConfig { merge, ..TrainConfig::default() };
            let train_set: SampleSet = train.iter().cloned().collect();
            let model = SpireModel::train(&train_set, cfg).unwrap();
            let wl_set: SampleSet = wl.iter().cloned().collect();
            let est = model.estimate(&wl_set).unwrap();
            for me in est.per_metric().values() {
                prop_assert!(me.merged >= me.min_sample_estimate - tol(me.merged));
                prop_assert!(me.merged <= me.max_sample_estimate + tol(me.merged));
            }
        }
    }

    /// Every input point is dominated by (or on) the Pareto front, and no
    /// front point dominates another.
    #[test]
    fn pareto_front_dominates_all_points(
        pts in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..64)
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let front = pareto_front(&points);
        prop_assert!(!front.is_empty());
        for p in &points {
            prop_assert!(
                front.iter().any(|f| f.x >= p.x && f.y >= p.y),
                "point ({}, {}) not covered by front",
                p.x,
                p.y
            );
        }
        for (i, f) in front.iter().enumerate() {
            for (j, g) in front.iter().enumerate() {
                if i != j {
                    prop_assert!(!(g.x >= f.x && g.y >= f.y && (g.x > f.x || g.y > f.y)));
                }
            }
        }
    }

    /// The upper hull from the origin covers every point left of the apex.
    #[test]
    fn hull_covers_left_points(
        pts in prop::collection::vec((0.001f64..100.0, 0.0f64..100.0), 1..64)
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let hull = upper_hull_from_origin(&points);
        let apex = *hull.last().unwrap();
        for p in &points {
            if p.x <= apex.x {
                let v = piecewise_eval(&hull, p.x);
                prop_assert!(v >= p.y - tol(p.y), "hull({}) = {v} < {}", p.x, p.y);
            }
        }
    }

    /// The columnar fit fast path is bit-identical to the generic row
    /// API for arbitrary sample populations (including M = 0 rows).
    #[test]
    fn column_fit_matches_row_fit(rows in samples("m", 64)) {
        let set: SampleSet = rows.iter().cloned().collect();
        let column = set.column(&spire_core::MetricId::new("m")).unwrap();
        for mode in [RightFitMode::Graph, RightFitMode::Plateau, RightFitMode::Auto] {
            let opts = FitOptions { right_fit: mode, ..FitOptions::default() };
            let by_rows = PiecewiseRoofline::fit("m".into(), rows.iter(), &opts).unwrap();
            let by_column = PiecewiseRoofline::fit_column(column, &opts).unwrap();
            prop_assert_eq!(&by_rows, &by_column, "mode {:?}", mode);
        }
    }

    /// Columnar grouping is row-order independent: interleaving samples
    /// across metrics in any order yields the same store and the same
    /// trained model as pushing them metric-by-metric.
    #[test]
    fn grouping_is_push_order_independent(rows in corpus(4, 24)) {
        let interleaved: SampleSet = rows.iter().cloned().collect();
        let mut grouped = SampleSet::new();
        for metric in interleaved.metrics().cloned().collect::<Vec<_>>() {
            for s in interleaved.samples_for(&metric) {
                grouped.push(s);
            }
        }
        prop_assert_eq!(&interleaved, &grouped);
        let a = SpireModel::train(&interleaved, TrainConfig::default()).unwrap();
        let b = SpireModel::train(&grouped, TrainConfig::default()).unwrap();
        prop_assert_eq!(a.rooflines(), b.rooflines());
    }

    /// Fanning training and estimation across worker threads is
    /// bit-identical to the serial path for every thread count.
    #[test]
    fn parallel_pipeline_matches_serial(
        train_rows in corpus(6, 24),
        probe_rows in corpus(6, 8),
        threads in 2usize..=8,
    ) {
        let train_set: SampleSet = train_rows.iter().cloned().collect();
        let probe_set: SampleSet = probe_rows.iter().cloned().collect();
        let serial_cfg = TrainConfig { threads: 1, ..TrainConfig::default() };
        let par_cfg = TrainConfig { threads, ..TrainConfig::default() };
        let serial = SpireModel::train(&train_set, serial_cfg).unwrap();
        let parallel = SpireModel::train(&train_set, par_cfg).unwrap();
        prop_assert_eq!(serial.rooflines(), parallel.rooflines());
        let a = serial.estimate(&probe_set).unwrap();
        let b = parallel.estimate(&probe_set).unwrap();
        prop_assert_eq!(a.throughput(), b.throughput());
        prop_assert_eq!(a.per_metric(), b.per_metric());
    }

    /// The batch SoA estimate kernel ([`PiecewiseRoofline::estimate_soa`])
    /// is bit-identical to the scalar per-sample path, for models trained
    /// at every thread count (serial and parallel training must agree on
    /// the fit, and both estimate paths must agree on every sample).
    #[test]
    fn batch_estimate_matches_scalar_across_thread_counts(
        train_rows in corpus(4, 24),
        probe_rows in corpus(4, 12),
        threads in 1usize..=8,
    ) {
        let train_set: SampleSet = train_rows.iter().cloned().collect();
        let probe_set: SampleSet = probe_rows.iter().cloned().collect();
        let cfg = TrainConfig { threads, ..TrainConfig::default() };
        let model = SpireModel::train(&train_set, cfg).unwrap();
        for (metric, column) in probe_set.by_metric() {
            let Some(roofline) = model.roofline(metric) else { continue };
            let mut batch = Vec::new();
            roofline.estimate_soa(column.intensities(), &mut batch);
            prop_assert_eq!(batch.len(), column.len());
            for (est, &intensity) in batch.iter().zip(column.intensities()) {
                let scalar = roofline.estimate(intensity);
                prop_assert_eq!(
                    est.to_bits(),
                    scalar.to_bits(),
                    "batch {} != scalar {} at I={} ({} threads)",
                    est,
                    scalar,
                    intensity,
                    threads
                );
            }
        }
    }

    /// Every fit over arbitrary valid samples satisfies the model
    /// invariants ([`PiecewiseRoofline::validate`]), in every right-fit
    /// mode: the validator must never reject what the fitter produces.
    #[test]
    fn every_fit_validates(rows in samples("m", 64)) {
        for mode in [RightFitMode::Graph, RightFitMode::Plateau, RightFitMode::Auto] {
            let opts = FitOptions { right_fit: mode, ..FitOptions::default() };
            let r = PiecewiseRoofline::fit("m".into(), rows.iter(), &opts).unwrap();
            prop_assert!(r.validate().is_ok(), "mode {:?}: {:?}", mode, r.validate());
        }
    }

    /// A model pushed through the checksummed snapshot format estimates
    /// bit-identically to the in-memory original.
    #[test]
    fn snapshot_round_trip_estimates_bit_identical(
        train_rows in corpus(4, 24),
        probe_rows in corpus(4, 8),
    ) {
        let train_set: SampleSet = train_rows.iter().cloned().collect();
        let probe_set: SampleSet = probe_rows.iter().cloned().collect();
        let model = SpireModel::train(&train_set, TrainConfig::default()).unwrap();
        let json = spire_core::ModelSnapshot::from_model(&model).unwrap().to_json();
        let loaded = spire_core::ModelSnapshot::from_json(&json)
            .unwrap()
            .into_model(spire_core::SnapshotMode::Strict)
            .unwrap();
        prop_assert!(!loaded.report.is_degraded());
        prop_assert_eq!(&model, &loaded.model);
        let a = model.estimate(&probe_set).unwrap();
        let b = loaded.model.estimate(&probe_set).unwrap();
        prop_assert_eq!(a.throughput().to_bits(), b.throughput().to_bits());
        prop_assert_eq!(a.per_metric(), b.per_metric());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The chunked estimate kernel is a pure performance rewrite: at
    /// every chunk offset it is bit-identical to the scalar `estimate`
    /// chain — NaN, infinities, and region-boundary-exact probes
    /// included, in every chunk position.
    #[test]
    fn estimate_soa_is_bitwise_scalar_at_every_chunk_offset(
        rows in samples("m", 48),
        probes in prop::collection::vec(wild_f64(), 1..200),
        pad in prop::collection::vec(wild_f64(), 0..100),
    ) {
        let r = PiecewiseRoofline::fit("m".into(), rows.iter(), &FitOptions::default()).unwrap();
        // The pad shifts every probe to a different offset within the
        // kernel's 64-lane chunks. Mix in boundary-exact probes so
        // `piecewise_eval`'s end-knot early returns land in arbitrary
        // chunk positions.
        let mut probes = [pad, probes].concat();
        if let Some(apex) = r.apex() {
            probes.push(apex.x);
        }
        if let Some(region) = r.right_region() {
            if let (Some(f), Some(l)) = (region.knots().first(), region.knots().last()) {
                probes.push(f.x);
                probes.push(l.x);
            }
        }
        let mut out = Vec::new();
        r.estimate_soa(&probes, &mut out);
        prop_assert_eq!(out.len(), probes.len());
        for (&x, &got) in probes.iter().zip(&out) {
            prop_assert_eq!(got.to_bits(), r.estimate(x).to_bits(), "x {}", x);
        }
    }

    /// The binary column file round-trips hostile values bit-exactly, and
    /// a workload loaded from it estimates bit-identically to the
    /// original at threads 1 and 0.
    #[test]
    fn colfile_roundtrip_preserves_estimates_across_threads(
        train_rows in corpus(3, 24),
        hostile in prop::collection::vec(
            (0usize..3, wild_f64(), wild_f64(), wild_f64()),
            0..16
        ),
    ) {
        let train_set: SampleSet = train_rows.iter().cloned().collect();
        let mut workload = train_set.clone();
        for (m, t, w, d) in hostile {
            workload.push_unchecked(format!("metric_{m}").into(), t, w, d);
        }
        let image = spire_core::colfile::write_sections([("w", &workload)], "meta");
        let decoded =
            spire_core::colfile::read(&image, spire_core::SnapshotMode::Strict).unwrap();
        prop_assert!(decoded.report.is_clean());
        prop_assert_eq!(decoded.meta.as_str(), "meta");
        let loaded = &decoded.sections[0].1;
        // Column-by-column bit equality (PartialEq would reject NaN rows).
        prop_assert_eq!(loaded.columns().len(), workload.columns().len());
        for (col, orig) in loaded.columns().iter().zip(workload.columns()) {
            prop_assert_eq!(col.metric(), orig.metric());
            for (field, (a, b)) in [
                (col.times(), orig.times()),
                (col.works(), orig.works()),
                (col.metric_deltas(), orig.metric_deltas()),
            ]
            .into_iter()
            .enumerate()
            {
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "field {}", field);
                }
            }
        }
        // Same estimates (or same refusal) from either copy, at both
        // thread settings.
        let mut outcomes = Vec::new();
        for threads in [1usize, 0] {
            let config = TrainConfig { threads, ..TrainConfig::default() };
            let model = SpireModel::train(&train_set, config).unwrap();
            for set in [&workload, loaded] {
                outcomes.push(model.estimate(set).ok().map(|e| e.throughput().to_bits()));
            }
        }
        prop_assert!(
            outcomes.windows(2).all(|w| w[0] == w[1]),
            "estimates diverged: {:?}",
            outcomes
        );
    }
}
