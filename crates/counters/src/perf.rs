//! The `perf stat` CSV format: the line scanner behind
//! [`crate::ingest_perf_csv`] and a simulator exporter that writes it.
//!
//! The paper collects its samples with Linux perf's `stat` mode. This
//! module scans the machine-readable output of
//!
//! ```text
//! perf stat -I <ms> -x, -e <events> -- <workload>
//! ```
//!
//! one row per `(interval, event)`: `time,count,unit,event,run_time,
//! pct_running[,...]`. Rows whose count is `<not counted>` or
//! `<not supported>` carry no count. [`crate::ingest_perf_csv`] turns the
//! rows into SPIRE [`Sample`](spire_core::Sample)s: within each interval
//! the designated *work* and *time* events supply `W` and `T`, every
//! other event becomes one sample, and multiplexed counts are scaled by
//! `1 / running_frac` (see [`crate::IngestConfig`]). A caller that wants
//! an all-or-nothing import ends that call with
//! [`crate::Ingest::into_strict`].
//!
//! [`export_perf_csv`] runs the simulator and writes the same format, so
//! simulated captures go through the parser real perf output goes
//! through.

/// A structurally valid numeric row whose event name borrows from the
/// capture text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Row<'a> {
    pub(crate) time_s: f64,
    pub(crate) count: f64,
    pub(crate) event: &'a str,
    pub(crate) running_frac: Option<f64>,
}

/// The outcome of scanning one line of perf CSV; text borrows from the
/// capture. [`crate::ingest_perf_csv`] quarantines the failure variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum RowScan<'a> {
    /// A structurally valid numeric row.
    Row(Row<'a>),
    /// A comment or empty line.
    Blank,
    /// A `<not counted>` / `<not supported>` row.
    NotCounted {
        /// Whether the event was supported (`<not counted>`) or not
        /// (`<not supported>`).
        supported: bool,
    },
    /// A row with too few fields or an empty event name; `row` is the
    /// trimmed line.
    Malformed { row: &'a str },
    /// A numeric field that failed to parse: the timestamp field as
    /// written, or the trimmed count field.
    BadNumber { value: &'a str },
}

/// Scans `text` line by line without allocating. Lines end at `\n`, and a
/// `\r` before it is trimmed with the other whitespace, so the rows and
/// their 1-based line numbers are those of [`str::lines`].
pub(crate) fn scan_rows(text: &str) -> Scanner<'_> {
    Scanner {
        rest: Some(text),
        line: 0,
        time: None,
    }
}

/// The allocation-free line scanner behind [`scan_rows`]: one pass over
/// each line's bytes finds its end and its first six commas.
///
/// A capture repeats its timestamp field on every row of an interval, so
/// the scanner keeps the last timestamp parse: when a field's bytes equal
/// the cached field, its cached value is the parse of the same bytes.
pub(crate) struct Scanner<'a> {
    /// The text after the last line scanned; `None` once the last line
    /// (which has no `\n`) has been scanned.
    rest: Option<&'a str>,
    line: usize,
    time: Option<(&'a str, f64)>,
}

impl<'a> Iterator for Scanner<'a> {
    type Item = (usize, RowScan<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let text = self.rest?;
        let mut commas = [0; 6];
        let mut n = 0;
        let mut end = text.len();
        for (i, &b) in text.as_bytes().iter().enumerate() {
            // Digits, letters, '.' and '_' sort above ',', so most bytes
            // take one compare.
            if b <= b',' {
                if b == b'\n' {
                    end = i;
                    break;
                }
                if b == b',' && n < commas.len() {
                    commas[n] = i;
                    n += 1;
                }
            }
        }
        self.rest = text.get(end + 1..);
        self.line += 1;
        Some((self.line, self.scan(&text[..end], &commas[..n])))
    }
}

impl<'a> Scanner<'a> {
    /// Classifies one line given its first six comma positions: `trim`,
    /// at least four fields, `<`-prefixed counts, then timestamp, count,
    /// event and the optional sixth (percent running) field, in that
    /// order.
    fn scan(&mut self, line: &'a str, commas: &[usize]) -> RowScan<'a> {
        let bounds = trim_bounds(line);
        let row = &line[bounds.clone()];
        if row.is_empty() || row.starts_with('#') {
            return RowScan::Blank;
        }
        if commas.len() < 3 {
            return RowScan::Malformed { row };
        }
        // A comma is not whitespace, so every comma lies inside the
        // trimmed row: the first field starts where the row starts and
        // the last ends where it ends.
        let field = |k: usize| {
            let start = if k == 0 {
                bounds.start
            } else {
                commas[k - 1] + 1
            };
            &line[start..commas.get(k).copied().unwrap_or(bounds.end)]
        };
        let count_field = trim(field(1));
        if count_field.starts_with('<') {
            // "<not counted>" / "<not supported>"
            return RowScan::NotCounted {
                supported: !count_field.contains("not supported"),
            };
        }
        let time_field = field(0);
        let time_s = match self.time {
            Some((cached, time_s)) if cached == time_field => time_s,
            _ => match trim(time_field).parse() {
                Ok(time_s) => {
                    self.time = Some((time_field, time_s));
                    time_s
                }
                Err(_) => return RowScan::BadNumber { value: time_field },
            },
        };
        let Ok(count) = count_field.parse() else {
            return RowScan::BadNumber { value: count_field };
        };
        let event = trim(field(3));
        if event.is_empty() {
            return RowScan::Malformed { row };
        }
        let running_frac = if commas.len() < 5 {
            None
        } else {
            trim(field(5)).parse().ok().map(|pct: f64| pct / 100.0)
        };
        RowScan::Row(Row {
            time_s,
            count,
            event,
            running_frac,
        })
    }
}

/// The byte range of [`str::trim`]'s result within `s`, skipping the
/// Unicode scan when both ends are printable ASCII (never whitespace).
fn trim_bounds(s: &str) -> std::ops::Range<usize> {
    let printable = |b: Option<&u8>| b.is_some_and(u8::is_ascii_graphic);
    if printable(s.as_bytes().first()) && printable(s.as_bytes().last()) {
        return 0..s.len();
    }
    let start = s.len() - s.trim_start().len();
    start..s.trim_end().len().max(start)
}

/// [`str::trim`], through [`trim_bounds`].
fn trim(s: &str) -> &str {
    &s[trim_bounds(s)]
}

/// Runs `stream` on `core` and emits `perf stat -I -x,`-style CSV: one
/// row per `(interval, event)` with the fixed counters included, exactly
/// what [`crate::ingest_perf_csv`] consumes. `cycles_per_second` calibrates
/// the timestamp column (perf reports wall-clock seconds).
///
/// Unlike [`crate::collect`], this reads every event each interval (as
/// if the PMU had unlimited counters); combined with the importer it
/// gives a multiplexing-free reference corpus, and it exercises the same
/// parser real perf output goes through.
pub fn export_perf_csv<I>(
    core: &mut spire_sim::Core,
    stream: &mut I,
    events: &[spire_sim::Event],
    interval_cycles: u64,
    max_cycles: u64,
    cycles_per_second: f64,
) -> String
where
    I: Iterator<Item = spire_sim::Instr>,
{
    assert!(interval_cycles > 0, "interval_cycles must be non-zero");
    assert!(
        cycles_per_second > 0.0,
        "cycles_per_second must be positive"
    );
    let mut out = String::from("# exported by spire-counters (simulated perf stat -I -x,)\n");
    let start = core.cycle();
    loop {
        let snapshot = core.counters().clone();
        core.run(stream, interval_cycles);
        let delta = core.counters().delta(&snapshot);
        let t = core.cycle() as f64 / cycles_per_second;
        for &e in events {
            out.push_str(&format!(
                "{t:.6},{},,{},{},100.00,,\n",
                delta.get(e),
                e.name(),
                interval_cycles
            ));
        }
        if core.is_drained() || core.cycle() - start >= max_cycles {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ingest_perf_csv, IngestConfig, QuarantineReason};
    use spire_core::{SampleSet, SpireError};

    const SAMPLE: &str = "\
# started on Fri Jul  4 10:00:00 2026
1.000241,1200000000,,inst_retired.any,1000000000,100.00,,
1.000241,1000000000,,cpu_clk_unhalted.thread,1000000000,100.00,,
1.000241,5000000,,br_misp_retired.all_branches,250000000,25.00,,
1.000241,300000,,longest_lat_cache.miss,250000000,25.00,,
2.000300,1100000000,,inst_retired.any,1000000000,100.00,,
2.000300,1000000000,,cpu_clk_unhalted.thread,1000000000,100.00,,
2.000300,<not counted>,,br_misp_retired.all_branches,0,0.00,,
2.000300,250000,,longest_lat_cache.miss,500000000,50.00,,
";

    /// The structurally valid numeric rows of `text`.
    fn rows(text: &str) -> Vec<Row<'_>> {
        scan_rows(text)
            .filter_map(|(_, scan)| match scan {
                RowScan::Row(row) => Some(row),
                _ => None,
            })
            .collect()
    }

    /// Ingest with zero tolerance: no quarantined row at all.
    fn zero_budget() -> IngestConfig {
        IngestConfig {
            error_budget: 0.0,
            ..IngestConfig::default()
        }
    }

    /// The all-or-nothing import: samples only if no row was quarantined.
    fn import(text: &str) -> SampleSet {
        ingest_perf_csv(text, &zero_budget())
            .into_strict()
            .expect("no row is quarantined")
    }

    /// Checks that `text`'s one line is quarantined for `reason` and that
    /// the zero-tolerance strict import refuses it.
    fn assert_strict_refusal(text: &str, reason: QuarantineReason) {
        let out = ingest_perf_csv(text, &zero_budget());
        let details = &out.report.quarantine_details;
        assert_eq!(details.len(), 1);
        assert_eq!((details[0].line, details[0].reason), (1, reason));
        assert!(matches!(
            out.into_strict(),
            Err(SpireError::ErrorBudgetExceeded {
                quarantined: 1,
                total: 1,
                ..
            })
        ));
    }

    #[test]
    fn parses_rows_and_skips_comments_and_not_counted() {
        let rows = rows(SAMPLE);
        assert_eq!(rows.len(), 7);
        assert!((rows[0].time_s - 1.000241).abs() < 1e-9);
        assert_eq!(rows[2].running_frac, Some(0.25));
    }

    #[test]
    fn builds_samples_grouped_by_interval() {
        let set = import(SAMPLE);
        // Interval 1: 2 metric rows; interval 2: 1 (misp not counted).
        assert_eq!(set.len(), 3);
        let misp = set.samples_for(&spire_core::MetricId::new("br_misp_retired.all_branches"));
        assert_eq!(misp.len(), 1);
        assert_eq!(misp[0].work(), 1.2e9);
        assert_eq!(misp[0].time(), 1e9);
        // The counter ran for 25% of the interval, so the raw 5e6 count is
        // scaled by 1/0.25 to estimate the full interval.
        assert_eq!(misp[0].metric_delta(), 2e7);
        assert!((misp[0].throughput() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn multiplexed_counts_are_scaled_by_running_fraction() {
        let miss = import(SAMPLE);
        let miss = miss.samples_for(&spire_core::MetricId::new("longest_lat_cache.miss"));
        assert_eq!(miss.len(), 2);
        // 300000 at 25% -> 1.2e6; 250000 at 50% -> 5e5.
        assert_eq!(miss[0].metric_delta(), 1.2e6);
        assert_eq!(miss[1].metric_delta(), 5e5);
    }

    #[test]
    fn malformed_row_is_an_error() {
        assert_strict_refusal("1.0,42\n", QuarantineReason::MalformedRow);
    }

    #[test]
    fn bad_number_is_an_error() {
        assert_strict_refusal("abc,42,,evt,1,100,,\n", QuarantineReason::BadNumber);
    }

    #[test]
    fn trailing_commas_are_tolerated() {
        let rows = rows("1.0,42,,evt,1,100,,,,,,\n");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].event, "evt");
        assert_eq!(rows[0].running_frac, Some(1.0));
    }

    #[test]
    fn not_supported_and_not_counted_are_both_skipped() {
        let text = "\
1.0,<not counted>,,idq.dsb_uops,0,0.00,,
1.0,<not supported>,,slots,0,0.00,,
1.0,42,,evt,1,100,,
";
        let rows = rows(text);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].event, "evt");
        let scans: Vec<RowScan<'_>> = scan_rows(text).map(|(_, scan)| scan).collect();
        assert_eq!(scans[0], RowScan::NotCounted { supported: true });
        assert_eq!(scans[1], RowScan::NotCounted { supported: false });
    }

    #[test]
    fn trim_matches_str_trim() {
        for s in [
            "",
            " ",
            "a",
            " a ",
            "\u{3000}a\u{00A0}",
            "a\r",
            "\u{0085}",
            "\u{2003}\u{2003}",
            "é",
            "a b",
        ] {
            assert_eq!(trim(s), s.trim(), "{s:?}");
        }
    }

    #[test]
    fn empty_running_fraction_field_means_unknown() {
        let rows_a = rows("1.0,42,,evt,1,,,\n");
        assert_eq!(rows_a[0].running_frac, None);
        // A row short enough to have no fraction field at all.
        let rows_b = rows("1.0,42,,evt\n");
        assert_eq!(rows_b[0].running_frac, None);
        // Unknown fractions are ingested unscaled.
        let text = "\
1.0,100,,inst_retired.any,1,100,,
1.0,50,,cpu_clk_unhalted.thread,1,100,,
1.0,7,,evt,1,,,
";
        let set = import(text);
        assert_eq!(set.iter().next().unwrap().metric_delta(), 7.0);
    }

    #[test]
    fn missing_fixed_events_is_an_error() {
        let text = "1.0,100,,some.event,1,100,,\n";
        let out = ingest_perf_csv(text, &IngestConfig::default());
        assert_eq!(out.report.intervals_ingested, 0);
        assert_eq!(out.report.intervals_dropped, 1);
        assert!(out.samples.is_empty());
        assert!(matches!(
            out.into_strict(),
            Err(SpireError::MissingFixedEvents { intervals: 1 })
        ));
    }

    #[test]
    fn intervals_without_fixed_events_are_skipped_not_fatal() {
        let text = "\
1.0,100,,inst_retired.any,1,100,,
1.0,50,,cpu_clk_unhalted.thread,1,100,,
1.0,7,,some.event,1,100,,
2.0,9,,some.event,1,100,,
";
        let set = import(text);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn export_import_round_trip_from_the_simulator() {
        use spire_sim::{Core, CoreConfig, Event, Instr, MemLevel};
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = (0..50_000).map(|i| {
            if i % 5 == 0 {
                Instr::load(MemLevel::L2)
            } else {
                Instr::simple_alu()
            }
        });
        let events = [
            Event::InstRetiredAny,
            Event::CpuClkUnhaltedThread,
            Event::MemLoadRetiredL2Hit,
            Event::BrMispRetiredAllBranches,
        ];
        let csv = export_perf_csv(&mut core, &mut stream, &events, 5_000, 100_000, 1e9);
        let set = import(&csv);
        assert!(!set.is_empty());
        // Two non-fixed events per interval.
        assert_eq!(set.metrics().count(), 2);
        // Work adds up to the retired instructions across intervals for
        // each metric.
        for (_, group) in set.by_metric() {
            let w: f64 = group.works().iter().sum();
            assert_eq!(w as u64, core.retired_instructions());
        }
        // The never-firing misprediction counter yields I = ∞ samples.
        let misp = set.samples_for(&spire_core::MetricId::new("br_misp_retired.all_branches"));
        assert!(misp.iter().all(|s| s.intensity().is_infinite()));
    }

    #[test]
    fn zero_metric_count_gives_infinite_intensity_sample() {
        let text = "\
1.0,100,,inst_retired.any,1,100,,
1.0,50,,cpu_clk_unhalted.thread,1,100,,
1.0,0,,some.event,1,100,,
";
        let set = import(text);
        assert_eq!(set.len(), 1);
        assert!(set.iter().next().unwrap().intensity().is_infinite());
    }
}
