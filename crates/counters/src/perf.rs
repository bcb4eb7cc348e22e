//! Import of real `perf stat` interval data.
//!
//! The paper collects its samples with Linux perf's `stat` mode. This
//! module parses the machine-readable output of
//!
//! ```text
//! perf stat -I <ms> -x, -e <events> -- <workload>
//! ```
//!
//! and converts it into SPIRE [`Sample`](spire_core::Sample)s, so a
//! model can be trained on a real CPU's counters with the same code path
//! used for the simulator.
//!
//! Each CSV row is `time,count,unit,event,run_time,pct_running[,...]`;
//! rows whose count is `<not counted>` or `<not supported>` are skipped.
//! Within each interval, the designated *work* and *time* events supply
//! `W` and `T`, and every other event becomes one sample.
//!
//! Multiplexed captures report a `pct_running` below 100%: the counter was
//! live for only that fraction of the interval, so the raw count
//! undercounts the interval by the same factor. The conversion functions
//! here scale counts by `1 / running_frac` (see [`crate::IngestConfig`]);
//! the fault-tolerant entry point with quarantine accounting is
//! [`crate::ingest_perf_csv`].

use std::fmt;

use serde::{Deserialize, Serialize};
use spire_core::SampleSet;

use crate::ingest::{self, IngestConfig};

/// One parsed `perf stat -I -x,` row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfRow {
    /// Interval end time in seconds.
    pub time_s: f64,
    /// Raw counter value for the interval (not yet corrected for
    /// multiplexing; see [`PerfRow::running_frac`]).
    pub count: f64,
    /// Event name.
    pub event: String,
    /// Fraction of the interval the event was actually counted
    /// (`pct_running / 100`), when present.
    pub running_frac: Option<f64>,
}

/// Errors produced while parsing perf output.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PerfParseError {
    /// A row had too few comma-separated fields.
    MalformedRow {
        /// 1-based line number.
        line: usize,
        /// The offending row text.
        row: String,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The field's content.
        value: String,
    },
    /// No interval contained both the work and time events.
    MissingFixedEvents {
        /// The work event looked for.
        work_event: String,
        /// The time event looked for.
        time_event: String,
    },
}

impl fmt::Display for PerfParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfParseError::MalformedRow { line, row } => {
                write!(f, "malformed perf row at line {line}: {row:?}")
            }
            PerfParseError::BadNumber { line, value } => {
                write!(f, "unparsable number at line {line}: {value:?}")
            }
            PerfParseError::MissingFixedEvents {
                work_event,
                time_event,
            } => write!(
                f,
                "no interval contains both `{work_event}` and `{time_event}`"
            ),
        }
    }
}

impl std::error::Error for PerfParseError {}

/// Parses `perf stat -I <ms> -x,` output into rows.
///
/// Comment lines (starting with `#`), empty lines, and rows whose count
/// is `<not counted>` / `<not supported>` are skipped silently.
///
/// # Errors
///
/// Returns [`PerfParseError`] for structurally malformed rows.
///
/// ```
/// use spire_counters::perf::parse_perf_csv;
///
/// let text = "\
/// 1.000241,1200000000,,inst_retired.any,1000000000,100.00,,
/// 1.000241,1000000000,,cpu_clk_unhalted.thread,1000000000,100.00,,
/// 1.000241,5000000,,br_misp_retired.all_branches,250000000,25.00,,
/// 1.000241,<not counted>,,idq.dsb_uops,0,0.00,,
/// ";
/// let rows = parse_perf_csv(text)?;
/// assert_eq!(rows.len(), 3); // the not-counted row is dropped
/// assert_eq!(rows[2].event, "br_misp_retired.all_branches");
/// # Ok::<(), spire_counters::perf::PerfParseError>(())
/// ```
pub fn parse_perf_csv(text: &str) -> Result<Vec<PerfRow>, PerfParseError> {
    let mut rows = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        match parse_row(idx + 1, line) {
            RowParse::Row(row) => rows.push(row),
            RowParse::Blank | RowParse::NotCounted { .. } => {}
            RowParse::Malformed { line, row } => {
                return Err(PerfParseError::MalformedRow { line, row });
            }
            RowParse::BadNumber { line, value } => {
                return Err(PerfParseError::BadNumber { line, value });
            }
        }
    }
    Ok(rows)
}

/// The outcome of parsing one line of perf CSV.
///
/// The strict path ([`parse_perf_csv`]) turns the failure variants into
/// hard [`PerfParseError`]s; the fault-tolerant path
/// ([`crate::ingest_perf_csv`]) quarantines them instead.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RowParse {
    /// A structurally valid numeric row.
    Row(PerfRow),
    /// A comment or empty line.
    Blank,
    /// A `<not counted>` / `<not supported>` row.
    NotCounted {
        /// Whether the event was supported (`<not counted>`) or not
        /// (`<not supported>`).
        supported: bool,
    },
    /// A row with too few fields or an empty event name.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending row text.
        row: String,
    },
    /// A numeric field that failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The field's content.
        value: String,
    },
}

/// Classifies one line of `perf stat -I -x,` output.
pub(crate) fn parse_row(line_no: usize, line: &str) -> RowParse {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return RowParse::Blank;
    }
    let fields: Vec<&str> = trimmed.split(',').collect();
    if fields.len() < 4 {
        return RowParse::Malformed {
            line: line_no,
            row: trimmed.to_owned(),
        };
    }
    let count_field = fields[1].trim();
    if count_field.starts_with('<') {
        // "<not counted>" / "<not supported>"
        return RowParse::NotCounted {
            supported: !count_field.contains("not supported"),
        };
    }
    let Ok(time_s) = fields[0].trim().parse::<f64>() else {
        return RowParse::BadNumber {
            line: line_no,
            value: fields[0].to_owned(),
        };
    };
    let Ok(count) = count_field.parse::<f64>() else {
        return RowParse::BadNumber {
            line: line_no,
            value: count_field.to_owned(),
        };
    };
    let event = fields[3].trim().to_owned();
    if event.is_empty() {
        return RowParse::Malformed {
            line: line_no,
            row: trimmed.to_owned(),
        };
    }
    let running_frac = fields
        .get(5)
        .and_then(|s| s.trim().parse::<f64>().ok())
        .map(|pct| pct / 100.0);
    RowParse::Row(PerfRow {
        time_s,
        count,
        event,
        running_frac,
    })
}

/// Converts parsed perf rows into a SPIRE [`SampleSet`], correcting
/// multiplexed counts.
///
/// Rows are grouped by interval timestamp; within each interval, the
/// `work_event` row supplies `W`, the `time_event` row supplies `T`, and
/// every other row becomes one sample for its event. Counts with a
/// running fraction below 100% are scaled by `1 / running_frac` (the
/// counter was live for only that fraction of the interval); rows whose
/// fraction falls below the default [`IngestConfig::min_running_frac`]
/// floor are dropped as unreliable rather than wildly extrapolated.
/// Intervals missing either fixed event are skipped.
///
/// This is the strict wrapper over [`crate::ingest_perf_csv`]'s engine;
/// use that entry point to also receive an [`crate::IngestReport`] of
/// what was scaled, quarantined, or dropped.
///
/// # Errors
///
/// Returns [`PerfParseError::MissingFixedEvents`] if no interval carries
/// both fixed events (which would produce an empty set).
pub fn samples_from_rows(
    rows: &[PerfRow],
    work_event: &str,
    time_event: &str,
) -> Result<SampleSet, PerfParseError> {
    let config = IngestConfig {
        work_event: work_event.to_owned(),
        time_event: time_event.to_owned(),
        ..IngestConfig::default()
    };
    let out = ingest::ingest_rows(rows, &config);
    if out.report.intervals_ingested == 0 {
        return Err(PerfParseError::MissingFixedEvents {
            work_event: work_event.to_owned(),
            time_event: time_event.to_owned(),
        });
    }
    Ok(out.samples)
}

/// One-step convenience: parse perf CSV text and build multiplex-corrected
/// samples using the paper's fixed events (`inst_retired.any` and
/// `cpu_clk_unhalted.thread`).
///
/// # Errors
///
/// Propagates [`PerfParseError`] from parsing and conversion.
pub fn import_perf_stat(text: &str) -> Result<SampleSet, PerfParseError> {
    let rows = parse_perf_csv(text)?;
    let config = IngestConfig::default();
    samples_from_rows(&rows, &config.work_event, &config.time_event)
}

/// Runs `stream` on `core` and emits `perf stat -I -x,`-style CSV: one
/// row per `(interval, event)` with the fixed counters included, exactly
/// what [`import_perf_stat`] consumes. `cycles_per_second` calibrates
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

    #[test]
    fn parses_rows_and_skips_comments_and_not_counted() {
        let rows = parse_perf_csv(SAMPLE).unwrap();
        assert_eq!(rows.len(), 7);
        assert!((rows[0].time_s - 1.000241).abs() < 1e-9);
        assert_eq!(rows[2].running_frac, Some(0.25));
    }

    #[test]
    fn builds_samples_grouped_by_interval() {
        let set = import_perf_stat(SAMPLE).unwrap();
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
        let miss = import_perf_stat(SAMPLE).unwrap();
        let miss = miss.samples_for(&spire_core::MetricId::new("longest_lat_cache.miss"));
        assert_eq!(miss.len(), 2);
        // 300000 at 25% -> 1.2e6; 250000 at 50% -> 5e5.
        assert_eq!(miss[0].metric_delta(), 1.2e6);
        assert_eq!(miss[1].metric_delta(), 5e5);
    }

    #[test]
    fn malformed_row_is_an_error() {
        let err = parse_perf_csv("1.0,42\n").unwrap_err();
        assert!(matches!(err, PerfParseError::MalformedRow { line: 1, .. }));
    }

    #[test]
    fn bad_number_is_an_error() {
        let err = parse_perf_csv("abc,42,,evt,1,100,,\n").unwrap_err();
        assert!(matches!(err, PerfParseError::BadNumber { .. }));
    }

    #[test]
    fn trailing_commas_are_tolerated() {
        let rows = parse_perf_csv("1.0,42,,evt,1,100,,,,,,\n").unwrap();
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
        let rows = parse_perf_csv(text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].event, "evt");
        assert!(matches!(
            parse_row(1, "1.0,<not counted>,,e,0,0.00,,"),
            RowParse::NotCounted { supported: true }
        ));
        assert!(matches!(
            parse_row(1, "1.0,<not supported>,,e,0,0.00,,"),
            RowParse::NotCounted { supported: false }
        ));
    }

    #[test]
    fn empty_running_fraction_field_means_unknown() {
        let rows = parse_perf_csv("1.0,42,,evt,1,,,\n").unwrap();
        assert_eq!(rows[0].running_frac, None);
        // A row short enough to have no fraction field at all.
        let rows = parse_perf_csv("1.0,42,,evt\n").unwrap();
        assert_eq!(rows[0].running_frac, None);
        // Unknown fractions are ingested unscaled.
        let text = "\
1.0,100,,inst_retired.any,1,100,,
1.0,50,,cpu_clk_unhalted.thread,1,100,,
1.0,7,,evt,1,,,
";
        let set = import_perf_stat(text).unwrap();
        assert_eq!(set.iter().next().unwrap().metric_delta(), 7.0);
    }

    #[test]
    fn missing_fixed_events_is_an_error() {
        let text = "1.0,100,,some.event,1,100,,\n";
        let rows = parse_perf_csv(text).unwrap();
        let err =
            samples_from_rows(&rows, "inst_retired.any", "cpu_clk_unhalted.thread").unwrap_err();
        assert!(matches!(err, PerfParseError::MissingFixedEvents { .. }));
    }

    #[test]
    fn intervals_without_fixed_events_are_skipped_not_fatal() {
        let text = "\
1.0,100,,inst_retired.any,1,100,,
1.0,50,,cpu_clk_unhalted.thread,1,100,,
1.0,7,,some.event,1,100,,
2.0,9,,some.event,1,100,,
";
        let set = import_perf_stat(text).unwrap();
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
        let set = import_perf_stat(&csv).unwrap();
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
        let set = import_perf_stat(text).unwrap();
        assert_eq!(set.len(), 1);
        assert!(set.iter().next().unwrap().intensity().is_infinite());
    }
}
