//! Property tests for the fault-tolerant ingest: no input — valid,
//! truncated, or arbitrary byte soup — may panic it, and multiplex
//! scaling must obey its algebraic contract.

use proptest::prelude::*;
use spire_core::fault::FaultRng;
use spire_counters::perf::export_perf_csv;
use spire_counters::{ingest_perf_csv, IngestConfig, IngestReport};
use spire_sim::{Core, CoreConfig, Event, Instr};

/// Arbitrary bytes rendered as (lossy) text — the worst thing a wedged
/// or killed perf could leave in a capture file.
fn byte_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..512)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// The rows of a syntactically plausible perf CSV with randomized values,
/// including sub-floor and >100% running fractions, each with its
/// interval index.
fn plausible_rows() -> impl Strategy<Value = Vec<(u32, String)>> {
    let row = (
        0u32..4,     // interval index
        0f64..1e12,  // count
        0u8..4,      // event selector
        0f64..150.0, // pct running
    )
        .prop_map(|(t, count, event, pct)| {
            let event = match event {
                0 => "inst_retired.any",
                1 => "cpu_clk_unhalted.thread",
                2 => "evt.alpha",
                _ => "evt.beta",
            };
            (t, format!("{}.0,{count},,{event},1000,{pct:.2},,", t + 1))
        });
    prop::collection::vec(row, 0..40)
}

/// A syntactically plausible perf CSV (see [`plausible_rows`]).
fn plausible_csv() -> impl Strategy<Value = String> {
    plausible_rows().prop_map(|rows| {
        let rows: Vec<String> = rows.into_iter().map(|(_, row)| row).collect();
        rows.join("\n")
    })
}

/// The capture with each interval's rows gathered into one block, in
/// their original order, and the blocks laid out in the given order.
fn blocks_in_order(rows: &[(u32, String)], order: &[u32]) -> String {
    let mut text = String::new();
    for &t in order {
        for (_, row) in rows.iter().filter(|(i, _)| *i == t) {
            text.push_str(row);
            text.push('\n');
        }
    }
    text
}

/// Every sample as `(metric, T bits, W bits, M_x bits)`, in set order.
fn sample_bits(set: &spire_core::SampleSet) -> Vec<(String, u64, u64, u64)> {
    set.iter()
        .map(|s| {
            (
                s.metric().to_string(),
                s.time().to_bits(),
                s.work().to_bits(),
                s.metric_delta().to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ingest never panics and its report always accounts for every row.
    #[test]
    fn byte_soup_never_panics(text in byte_soup()) {
        let out = ingest_perf_csv(&text, &IngestConfig::default());
        let r = &out.report;
        prop_assert!(r.rows_quarantined <= r.rows_seen);
        prop_assert!(r.rows_parsed + r.rows_not_counted + r.rows_not_supported <= r.rows_seen);
        prop_assert!(r.intervals_ingested + r.intervals_dropped == r.intervals_seen);
        prop_assert!(r.samples_emitted == out.samples.len());
        prop_assert!(r.quarantined_fraction() >= 0.0 && r.quarantined_fraction() <= 1.0);
    }

    /// Structured-but-random captures also never panic, and every emitted
    /// sample satisfies the core domain invariants.
    #[test]
    fn plausible_csv_never_panics(text in plausible_csv()) {
        let out = ingest_perf_csv(&text, &IngestConfig::default());
        for s in out.samples.iter() {
            prop_assert!(s.time() > 0.0);
            prop_assert!(s.work() >= 0.0);
            prop_assert!(s.metric_delta() >= 0.0 && s.metric_delta().is_finite());
        }
        // Per-reason counts sum to the quarantine total.
        let by_reason: usize = out.report.quarantined_by_reason.values().sum();
        prop_assert_eq!(by_reason, out.report.rows_quarantined);
    }

    /// Shuffling whole interval blocks leaves the samples bit-identical:
    /// assembly orders intervals by their timestamps, not by file order.
    /// The report moves only where file order shows through: quarantine
    /// line numbers, and the summation order of each event's mean running
    /// fraction.
    #[test]
    fn interval_block_order_does_not_change_the_ingest(
        rows in plausible_rows(),
        seed in any::<u64>(),
    ) {
        let mut order: Vec<u32> = (0..4).collect();
        let mut rng = FaultRng::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        // Room for every row's details, so none depend on which come first.
        let config = IngestConfig {
            max_quarantine_details: 64,
            ..IngestConfig::default()
        };
        let sorted = ingest_perf_csv(&blocks_in_order(&rows, &[0, 1, 2, 3]), &config);
        let shuffled = ingest_perf_csv(&blocks_in_order(&rows, &order), &config);
        prop_assert_eq!(sample_bits(&sorted.samples), sample_bits(&shuffled.samples));

        let fracs = |r: &IngestReport| -> Vec<Option<f64>> {
            r.per_event.iter().map(|e| e.mean_running_frac).collect()
        };
        for (a, b) in fracs(&sorted.report).into_iter().zip(fracs(&shuffled.report)) {
            match (a, b) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() <= 1e-12, "{} vs {}", a, b),
                (a, b) => prop_assert_eq!(a, b),
            }
        }
        let normalized = |r: &IngestReport| {
            let mut r = r.clone();
            for e in &mut r.per_event {
                e.mean_running_frac = None;
            }
            for q in &mut r.quarantine_details {
                q.line = 0;
            }
            r.quarantine_details
                .sort_by(|a, b| (a.reason, &a.snippet).cmp(&(b.reason, &b.snippet)));
            r
        };
        prop_assert_eq!(normalized(&sorted.report), normalized(&shuffled.report));
    }

    /// Truncating a valid capture at any byte still ingests cleanly, and
    /// never yields more samples than the full capture.
    #[test]
    fn truncation_is_graceful(cut in 0usize..2048, seed in 1u64..5) {
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream =
            std::iter::repeat_n(Instr::simple_alu(), 40_000 * seed as usize);
        let full = export_perf_csv(
            &mut core,
            &mut stream,
            &[
                Event::InstRetiredAny,
                Event::CpuClkUnhaltedThread,
                Event::LongestLatCacheMiss,
            ],
            10_000,
            80_000,
            1e9,
        );
        let config = IngestConfig::default();
        let complete = ingest_perf_csv(&full, &config);
        let cut = cut.min(full.len());
        // Cut on a char boundary (the export is ASCII, but be exact).
        let mut cut = cut;
        while !full.is_char_boundary(cut) {
            cut -= 1;
        }
        let partial = ingest_perf_csv(&full[..cut], &config);
        prop_assert!(partial.samples.len() <= complete.samples.len());
        prop_assert!(partial.report.rows_seen <= complete.report.rows_seen);
    }
}

/// The exporter emits 100% running fractions, so a round trip through the
/// scaled ingest must reproduce the raw counts exactly.
#[test]
fn export_round_trip_is_scale_invariant() {
    let events = [
        Event::InstRetiredAny,
        Event::CpuClkUnhaltedThread,
        Event::LongestLatCacheMiss,
        Event::BrMispRetiredAllBranches,
    ];
    let mut core = Core::new(CoreConfig::skylake_server());
    let mut stream = std::iter::repeat_n(Instr::simple_alu(), 120_000);
    let csv = export_perf_csv(&mut core, &mut stream, &events, 10_000, 60_000, 1e9);

    let scaled = ingest_perf_csv(&csv, &IngestConfig::default());
    let unscaled = ingest_perf_csv(
        &csv,
        &IngestConfig {
            scale_multiplexed: false,
            ..IngestConfig::default()
        },
    );
    assert!(!scaled.samples.is_empty());
    assert_eq!(scaled.samples, unscaled.samples);
    assert_eq!(scaled.report.rows_scaled, 0);
    assert!(!scaled.report.budget_exceeded());
}

/// Halving every running fraction doubles every ingested count (as long
/// as the fraction stays above the floor): the scaling law itself.
#[test]
fn halving_running_fraction_doubles_estimates() {
    let base = "\
1.0,1000,,inst_retired.any,1000,100.00,,
1.0,500,,cpu_clk_unhalted.thread,1000,100.00,,
1.0,80,,evt.a,400,40.00,,
1.0,30,,evt.b,600,60.00,,
";
    let halved = "\
1.0,1000,,inst_retired.any,1000,100.00,,
1.0,500,,cpu_clk_unhalted.thread,1000,100.00,,
1.0,80,,evt.a,200,20.00,,
1.0,30,,evt.b,300,30.00,,
";
    let config = IngestConfig::default();
    let a = ingest_perf_csv(base, &config);
    let b = ingest_perf_csv(halved, &config);
    let pairs = a.samples.iter().zip(b.samples.iter());
    let mut compared = 0;
    for (x, y) in pairs {
        assert!((y.metric_delta() - 2.0 * x.metric_delta()).abs() < 1e-9);
        compared += 1;
    }
    assert_eq!(compared, 2);
}
