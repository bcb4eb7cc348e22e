//! Multiplex-aware, fault-tolerant counter ingest.
//!
//! Real `perf stat` captures are messy: events share hardware counters
//! and are only live for a fraction of each interval (multiplexing),
//! lines get truncated when a run is killed, counts come back as
//! `<not counted>`, and long captures can contain intervals with no
//! usable fixed counters at all. The paper's evaluation multiplexes 424
//! events over a handful of counters, so feeding *raw* counts into the
//! model silently biases every `M_x` — and thus every intensity and
//! bottleneck ranking — for any event that shared a counter.
//!
//! This module is the hardened counters→[`SampleSet`] path:
//!
//! * **Multiplex correction** — each row's count is scaled by
//!   `1 / running_frac`, with a configurable floor below which a row is
//!   quarantined as unreliable rather than wildly extrapolated.
//! * **Quarantine channel** — malformed rows, unparsable numbers,
//!   non-finite counts, and low-coverage rows are counted per reason and
//!   (capped) recorded, instead of vanishing or aborting the ingest.
//! * **Error budget** — ingest always returns the partial data it could
//!   recover; callers that need a quality gate check
//!   [`IngestReport::budget_exceeded`] or use [`Ingest::into_strict`].
//! * **[`IngestReport`]** — rows parsed/scaled/quarantined, intervals
//!   dropped, and per-event multiplex coverage, for surfacing through the
//!   CLI and [`crate::CoverageReport`].

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use serde::{Deserialize, Serialize};
use spire_core::{MetricColumn, MetricId, SampleSet, SpireError};

use crate::perf::{scan_rows, Row, RowScan};

/// Configuration of the fault-tolerant ingest path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestConfig {
    /// Event supplying `W` (work) per interval.
    pub work_event: String,
    /// Event supplying `T` (time) per interval.
    pub time_event: String,
    /// Scale counts by `1 / running_frac` to correct for counter
    /// multiplexing. Disable only for perf builds that already emit
    /// extrapolated counts.
    pub scale_multiplexed: bool,
    /// Rows whose running fraction is below this floor are quarantined as
    /// unreliable instead of extrapolated; must be in `(0, 1]`.
    pub min_running_frac: f64,
    /// Maximum tolerated fraction of quarantined rows (the error budget),
    /// in `[0, 1]`. Exceeding it never aborts a lenient ingest, but flags
    /// the report and fails [`Ingest::into_strict`].
    pub error_budget: f64,
    /// Cap on the number of per-row quarantine details retained in the
    /// report (counts are always exact; details beyond the cap are
    /// dropped and flagged).
    pub max_quarantine_details: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            work_event: "inst_retired.any".to_owned(),
            time_event: "cpu_clk_unhalted.thread".to_owned(),
            scale_multiplexed: true,
            min_running_frac: 0.05,
            error_budget: 0.5,
            max_quarantine_details: 16,
        }
    }
}

impl IngestConfig {
    /// Checks the configuration's domain constraints.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> spire_core::Result<()> {
        if !(self.min_running_frac > 0.0 && self.min_running_frac <= 1.0) {
            return Err(SpireError::InvalidConfig {
                field: "min_running_frac",
                reason: format!("must be in (0, 1], got {}", self.min_running_frac),
            });
        }
        if !(self.error_budget >= 0.0 && self.error_budget <= 1.0) {
            return Err(SpireError::InvalidConfig {
                field: "error_budget",
                reason: format!("must be in [0, 1], got {}", self.error_budget),
            });
        }
        if self.work_event.is_empty() || self.time_event.is_empty() {
            return Err(SpireError::InvalidConfig {
                field: "work_event/time_event",
                reason: "fixed event names must be non-empty".to_owned(),
            });
        }
        if self.work_event == self.time_event {
            return Err(SpireError::InvalidConfig {
                field: "work_event/time_event",
                reason: "work and time events must differ".to_owned(),
            });
        }
        Ok(())
    }
}

/// Why a row was quarantined instead of ingested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QuarantineReason {
    /// Too few fields, or an empty event name.
    MalformedRow,
    /// The timestamp or count field failed to parse as a number.
    BadNumber,
    /// The timestamp parsed but is not finite.
    BadTimestamp,
    /// The count parsed but is NaN or infinite, or overflows when scaled
    /// by its running fraction.
    NonFiniteCount,
    /// The count is negative (counters are monotonic).
    NegativeCount,
    /// The running fraction is below the configured floor (or zero), so
    /// extrapolating the count would be unreliable.
    LowRunningFrac,
}

impl QuarantineReason {
    /// Stable snake_case name, used as the report's per-reason map key.
    pub fn as_str(self) -> &'static str {
        match self {
            QuarantineReason::MalformedRow => "malformed_row",
            QuarantineReason::BadNumber => "bad_number",
            QuarantineReason::BadTimestamp => "bad_timestamp",
            QuarantineReason::NonFiniteCount => "non_finite_count",
            QuarantineReason::NegativeCount => "negative_count",
            QuarantineReason::LowRunningFrac => "low_running_frac",
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One quarantined row, retained (up to a cap) for diagnosis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedRow {
    /// 1-based line number in the capture.
    pub line: usize,
    /// Why the row was quarantined.
    pub reason: QuarantineReason,
    /// The offending row text, truncated to a diagnostic snippet.
    pub snippet: String,
}

/// Per-event multiplex coverage, aggregated over the whole capture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventCoverage {
    /// The event name.
    pub event: String,
    /// Structurally valid rows observed for this event (ingested or
    /// quarantined at the scaling stage).
    pub rows: usize,
    /// Rows whose count was scaled up to correct for multiplexing.
    pub scaled_rows: usize,
    /// Rows quarantined at the scaling stage (low running fraction).
    pub quarantined_rows: usize,
    /// Mean running fraction over rows that reported one.
    pub mean_running_frac: Option<f64>,
    /// Smallest running fraction observed.
    pub min_running_frac: Option<f64>,
}

/// What a fault-tolerant ingest did to its input: rows parsed, scaled,
/// and quarantined; intervals dropped; per-event multiplex coverage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IngestReport {
    /// Non-comment, non-empty lines seen.
    pub rows_seen: usize,
    /// Structurally valid numeric rows.
    pub rows_parsed: usize,
    /// Rows reporting `<not counted>` (normal under heavy multiplexing;
    /// tracked but not charged against the error budget).
    pub rows_not_counted: usize,
    /// Rows reporting `<not supported>`.
    pub rows_not_supported: usize,
    /// Rows whose count was scaled by `1 / running_frac`.
    pub rows_scaled: usize,
    /// Rows quarantined for any reason.
    pub rows_quarantined: usize,
    /// Quarantine counts keyed by [`QuarantineReason::as_str`].
    pub quarantined_by_reason: BTreeMap<String, usize>,
    /// Capped per-row quarantine details.
    pub quarantine_details: Vec<QuarantinedRow>,
    /// Whether quarantine details beyond the cap were dropped.
    pub details_truncated: bool,
    /// Distinct interval timestamps seen.
    pub intervals_seen: usize,
    /// Intervals that produced samples (both fixed events present and
    /// valid).
    pub intervals_ingested: usize,
    /// Intervals dropped because a fixed event was missing or invalid.
    pub intervals_dropped: usize,
    /// Samples emitted into the [`SampleSet`].
    pub samples_emitted: usize,
    /// Per-event multiplex coverage, ordered by event name.
    pub per_event: Vec<EventCoverage>,
    /// The error budget the ingest ran under (fraction in `[0, 1]`).
    pub error_budget: f64,
    /// Whether the capture is known to be incomplete (set by the process
    /// supervision layer on timeout, kill, or non-zero exit).
    pub degraded: bool,
    /// Human-readable reason for the degradation, when degraded.
    pub degraded_reason: Option<String>,
}

impl IngestReport {
    /// Fraction of seen rows that were quarantined (`0.0` when empty).
    pub fn quarantined_fraction(&self) -> f64 {
        if self.rows_seen == 0 {
            0.0
        } else {
            self.rows_quarantined as f64 / self.rows_seen as f64
        }
    }

    /// Whether the quarantined fraction exceeds the error budget.
    pub fn budget_exceeded(&self) -> bool {
        self.quarantined_fraction() > self.error_budget
    }

    /// Mean running fraction for one event, if the capture reported any.
    pub fn event_running_frac(&self, event: &str) -> Option<f64> {
        self.per_event
            .iter()
            .find(|c| c.event == event)
            .and_then(|c| c.mean_running_frac)
    }

    /// One-line summary of the ingest outcome.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} rows: {} parsed, {} scaled, {} quarantined ({:.1}% of budget {:.0}%); \
             {} intervals ingested, {} dropped; {} samples",
            self.rows_seen,
            self.rows_parsed,
            self.rows_scaled,
            self.rows_quarantined,
            self.quarantined_fraction() * 100.0,
            self.error_budget * 100.0,
            self.intervals_ingested,
            self.intervals_dropped,
            self.samples_emitted,
        );
        if self.budget_exceeded() {
            s.push_str(" [ERROR BUDGET EXCEEDED]");
        }
        if self.degraded {
            s.push_str(" [DEGRADED");
            if let Some(reason) = &self.degraded_reason {
                s.push_str(": ");
                s.push_str(reason);
            }
            s.push(']');
        }
        s
    }

    /// Renders the report as an aligned text table: the summary, the
    /// quarantine breakdown, and the `n` worst-covered events.
    pub fn to_table(&self, n: usize) -> String {
        let mut out = String::new();
        out.push_str(&self.summary());
        out.push('\n');
        if !self.quarantined_by_reason.is_empty() {
            out.push_str("\nquarantine breakdown:\n");
            for (reason, count) in &self.quarantined_by_reason {
                out.push_str(&format!("  {reason:<20} {count:>8}\n"));
            }
        }
        for q in &self.quarantine_details {
            out.push_str(&format!(
                "    line {:>5} [{}]: {}\n",
                q.line, q.reason, q.snippet
            ));
        }
        if self.details_truncated {
            out.push_str("    (further details truncated)\n");
        }
        if !self.per_event.is_empty() {
            out.push_str(&format!(
                "\n{:<50} {:>6} {:>7} {:>6} {:>9}\n",
                "event", "rows", "scaled", "quar", "mux frac"
            ));
            let mut events: Vec<&EventCoverage> = self.per_event.iter().collect();
            events.sort_by(|a, b| {
                let fa = a.mean_running_frac.unwrap_or(1.0);
                let fb = b.mean_running_frac.unwrap_or(1.0);
                fa.total_cmp(&fb)
            });
            for c in events.into_iter().take(n) {
                let frac = c
                    .mean_running_frac
                    .map_or("-".to_owned(), |f| format!("{:.1}%", f * 100.0));
                out.push_str(&format!(
                    "{:<50} {:>6} {:>7} {:>6} {:>9}\n",
                    c.event, c.rows, c.scaled_rows, c.quarantined_rows, frac
                ));
            }
        }
        out
    }
}

/// The outcome of a fault-tolerant ingest: the recovered samples plus the
/// report of everything that was scaled, quarantined, or dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Ingest {
    /// The recovered (possibly partial) sample set.
    pub samples: SampleSet,
    /// What happened to the input.
    pub report: IngestReport,
}

impl Ingest {
    /// The strict-mode check: the quarantined fraction stayed within the
    /// error budget, and a capture with any interval ingested at least
    /// one of them. An empty capture passes.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::ErrorBudgetExceeded`] when over budget, and
    /// [`SpireError::MissingFixedEvents`] when every interval was dropped.
    pub fn check_strict(&self) -> spire_core::Result<()> {
        let report = &self.report;
        if report.budget_exceeded() {
            return Err(SpireError::ErrorBudgetExceeded {
                quarantined: report.rows_quarantined,
                total: report.rows_seen,
                budget: report.error_budget,
            });
        }
        if report.intervals_seen > 0 && report.intervals_ingested == 0 {
            return Err(SpireError::MissingFixedEvents {
                intervals: report.intervals_seen,
            });
        }
        Ok(())
    }

    /// Returns the samples if [`check_strict`](Ingest::check_strict)
    /// passes.
    ///
    /// # Errors
    ///
    /// The errors of [`check_strict`](Ingest::check_strict).
    pub fn into_strict(self) -> spire_core::Result<SampleSet> {
        self.check_strict()?;
        Ok(self.samples)
    }
}

/// Truncates a row to a bounded diagnostic snippet (char-safe).
fn snippet(row: &str) -> String {
    const MAX: usize = 80;
    if row.chars().count() <= MAX {
        row.to_owned()
    } else {
        let mut s: String = row.chars().take(MAX).collect();
        s.push('…');
        s
    }
}

/// Per-event coverage accumulator.
#[derive(Default)]
struct CovAcc {
    rows: usize,
    scaled_rows: usize,
    quarantined_rows: usize,
    frac_sum: f64,
    frac_rows: usize,
    frac_min: f64,
}

/// Staged `(event id, count)` rows of one interval, keyed by the bits of
/// its timestamp.
type Interval = (u64, Vec<(u32, f64)>);

/// The streaming state of one [`ingest_perf_csv`] run.
///
/// Event names are interned into dense ids on first sight; a capture
/// lists its events in the same order every interval, so the next row's
/// id is guessed as the last one plus one and confirmed with one string
/// compare. Coverage is indexed by id, and staged rows are grouped by
/// interval in first-seen order.
struct Assembler<'a> {
    config: &'a IngestConfig,
    report: IngestReport,
    /// Event names, indexed by id.
    names: Vec<&'a str>,
    /// Fallback lookup when the guessed id misses.
    ids: HashMap<&'a str, u32>,
    /// Id of the last interned row.
    last: usize,
    work_id: Option<u32>,
    time_id: Option<u32>,
    /// Coverage, indexed by id.
    coverage: Vec<CovAcc>,
    intervals: Vec<Interval>,
    /// Position in `intervals` of each timestamp's bits.
    slots: HashMap<u64, usize>,
    /// Position in `intervals` of the last staged row.
    current: usize,
}

impl<'a> Assembler<'a> {
    fn new(config: &'a IngestConfig) -> Self {
        Assembler {
            config,
            report: IngestReport {
                error_budget: config.error_budget,
                ..IngestReport::default()
            },
            names: Vec::new(),
            ids: HashMap::new(),
            last: 0,
            work_id: None,
            time_id: None,
            coverage: Vec::new(),
            intervals: Vec::new(),
            slots: HashMap::new(),
            current: 0,
        }
    }

    fn quarantine(&mut self, line: usize, reason: QuarantineReason, row: &str) {
        self.report.rows_quarantined += 1;
        *self
            .report
            .quarantined_by_reason
            .entry(reason.as_str().to_owned())
            .or_insert(0) += 1;
        if self.report.quarantine_details.len() < self.config.max_quarantine_details {
            self.report.quarantine_details.push(QuarantinedRow {
                line,
                reason,
                snippet: snippet(row),
            });
        } else {
            self.report.details_truncated = true;
        }
    }

    /// Accounts for one scanned line.
    fn take(&mut self, line: usize, scan: RowScan<'a>) {
        match scan {
            RowScan::Blank => return,
            RowScan::Row(row) => self.offer(line, row),
            RowScan::NotCounted { supported: true } => self.report.rows_not_counted += 1,
            RowScan::NotCounted { supported: false } => self.report.rows_not_supported += 1,
            RowScan::Malformed { row } => {
                self.quarantine(line, QuarantineReason::MalformedRow, row);
            }
            RowScan::BadNumber { value } => {
                self.quarantine(line, QuarantineReason::BadNumber, value);
            }
        }
        self.report.rows_seen += 1;
    }

    /// The id of `event`, interning it on first sight.
    fn intern(&mut self, event: &'a str) -> u32 {
        let guess = if self.last + 1 < self.names.len() {
            self.last + 1
        } else {
            0
        };
        let id = if self.names.get(guess) == Some(&event) {
            guess as u32
        } else if let Some(&id) = self.ids.get(event) {
            id
        } else {
            let id = u32::try_from(self.names.len()).expect("fewer than 2^32 distinct events");
            self.names.push(event);
            self.ids.insert(event, id);
            self.coverage.push(CovAcc::default());
            if event == self.config.work_event {
                self.work_id = Some(id);
            } else if event == self.config.time_event {
                self.time_id = Some(id);
            }
            id
        };
        self.last = id as usize;
        id
    }

    /// Validates, scales, and stages one structurally valid row.
    fn offer(&mut self, line: usize, row: Row<'a>) {
        if !row.time_s.is_finite() {
            self.quarantine(line, QuarantineReason::BadTimestamp, row.event);
            return;
        }
        if !row.count.is_finite() {
            self.quarantine(line, QuarantineReason::NonFiniteCount, row.event);
            return;
        }
        if row.count < 0.0 {
            self.quarantine(line, QuarantineReason::NegativeCount, row.event);
            return;
        }
        self.report.rows_parsed += 1;
        let id = self.intern(row.event);
        let cov = &mut self.coverage[id as usize];
        cov.rows += 1;

        let (count, scaled) = match row.running_frac {
            Some(frac) if frac.is_finite() && frac > 0.0 => {
                let frac = frac.min(1.0);
                cov.frac_sum += frac;
                cov.frac_rows += 1;
                cov.frac_min = if cov.frac_rows == 1 {
                    frac
                } else {
                    cov.frac_min.min(frac)
                };
                if frac < self.config.min_running_frac {
                    cov.quarantined_rows += 1;
                    self.quarantine(line, QuarantineReason::LowRunningFrac, row.event);
                    return;
                }
                if self.config.scale_multiplexed && frac < 1.0 {
                    let count = row.count / frac;
                    if !count.is_finite() {
                        cov.quarantined_rows += 1;
                        self.quarantine(line, QuarantineReason::NonFiniteCount, row.event);
                        return;
                    }
                    (count, true)
                } else {
                    (row.count, false)
                }
            }
            Some(_) => {
                // A zero or non-finite fraction: the counter observed
                // nothing; there is no defensible extrapolation.
                cov.quarantined_rows += 1;
                self.quarantine(line, QuarantineReason::LowRunningFrac, row.event);
                return;
            }
            // No fraction reported: assume full coverage, ingest raw.
            None => (row.count, false),
        };
        if scaled {
            self.report.rows_scaled += 1;
            cov.scaled_rows += 1;
        }
        let bits = row.time_s.to_bits();
        if self.intervals.get(self.current).is_none_or(|i| i.0 != bits) {
            let next = self.intervals.len();
            self.current = *self.slots.entry(bits).or_insert(next);
            if self.current == next {
                self.intervals.push((bits, Vec::new()));
            }
        }
        self.intervals[self.current].1.push((id, count));
    }

    /// Assembles staged rows into samples, intervals in the order of their
    /// timestamps' bits, and finalizes the report.
    fn finish(mut self) -> Ingest {
        let mut intervals = std::mem::take(&mut self.intervals);
        intervals.sort_unstable_by_key(|i| i.0);
        let mut columns: Vec<MetricColumn> = self
            .names
            .iter()
            .map(|name| MetricColumn::new(MetricId::new(name)))
            .collect();
        let (work_id, time_id) = (self.work_id, self.time_id);
        for (_, rows) in intervals {
            self.report.intervals_seen += 1;
            let first = |id: Option<u32>| {
                let id = id?;
                rows.iter().find(|r| r.0 == id).map(|r| r.1)
            };
            let (Some(work), Some(time)) = (first(work_id), first(time_id)) else {
                self.report.intervals_dropped += 1;
                continue;
            };
            if time <= 0.0 {
                self.report.intervals_dropped += 1;
                continue;
            }
            self.report.intervals_ingested += 1;
            for &(id, count) in &rows {
                if Some(id) == work_id || Some(id) == time_id {
                    continue;
                }
                columns[id as usize]
                    .try_push(time, work, count)
                    .expect("rows are validated before staging");
                self.report.samples_emitted += 1;
            }
        }
        columns.retain(|c| !c.is_empty());
        columns.sort_unstable_by(|a, b| a.metric().cmp(b.metric()));
        let samples = SampleSet::from_columns(columns).expect("interned event names are distinct");
        self.report.per_event = self
            .names
            .iter()
            .zip(self.coverage)
            .map(|(event, acc)| EventCoverage {
                event: (*event).to_owned(),
                rows: acc.rows,
                scaled_rows: acc.scaled_rows,
                quarantined_rows: acc.quarantined_rows,
                mean_running_frac: (acc.frac_rows > 0).then(|| acc.frac_sum / acc.frac_rows as f64),
                min_running_frac: (acc.frac_rows > 0).then_some(acc.frac_min),
            })
            .collect();
        self.report
            .per_event
            .sort_unstable_by(|a, b| a.event.cmp(&b.event));
        Ingest {
            samples,
            report: self.report,
        }
    }
}

/// Fault-tolerant ingest of `perf stat -I -x,` CSV text.
///
/// Never fails and never panics on malformed input: structurally broken
/// rows, unparsable numbers, non-finite counts, and unreliable
/// low-coverage rows are quarantined (counted per reason, details capped)
/// while everything recoverable is multiplex-corrected and assembled into
/// samples. A truncated or wedged capture therefore yields a partial,
/// honestly-labeled [`SampleSet`] plus an [`IngestReport`] instead of an
/// error. An all-or-nothing import ends the call with
/// [`Ingest::into_strict`], under `error_budget: 0.0` to refuse any
/// quarantined row.
///
/// ```
/// use spire_counters::{ingest_perf_csv, IngestConfig};
///
/// // A multiplexed capture with one garbage line.
/// let text = "\
/// 1.0,1000,,inst_retired.any,1000000,100.00,,
/// 1.0,500,,cpu_clk_unhalted.thread,1000000,100.00,,
/// 1.0,120,,evt.a,250000,25.00,,
/// ???garbage???
/// ";
/// let out = ingest_perf_csv(text, &IngestConfig::default());
/// assert_eq!(out.samples.len(), 1);
/// // 120 counted over 25% of the interval -> 480 estimated.
/// assert_eq!(out.samples.iter().next().unwrap().metric_delta(), 480.0);
/// assert_eq!(out.report.rows_quarantined, 1);
/// ```
///
/// # Panics
///
/// Panics if `config` fails [`IngestConfig::validate`] (a programming
/// error, not a data error).
pub fn ingest_perf_csv(text: &str, config: &IngestConfig) -> Ingest {
    config
        .validate()
        .expect("ingest requires a valid IngestConfig");
    let mut asm = Assembler::new(config);
    for (line, scan) in scan_rows(text) {
        asm.take(line, scan);
    }
    asm.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-interval multiplexed capture with hand-computable scaling,
    /// one sub-floor row, one malformed line, and one interval missing
    /// its fixed events.
    const GOLDEN: &str = "\
# exported by perf stat -I 2000 -x,
1.0,1000,,inst_retired.any,1000000,100.00,,
1.0,500,,cpu_clk_unhalted.thread,1000000,100.00,,
1.0,120,,evt.a,250000,25.00,,
1.0,50,,evt.b,500000,50.00,,
1.0,10,,evt.c,20000,2.00,,
2.0,800,,inst_retired.any,1000000,100.00,,
2.0,400,,cpu_clk_unhalted.thread,1000000,100.00,,
2.0,60,,evt.a,300000,30.00,,
not,a,perf,row
3.0,100,,evt.a,1000000,100.00,,
";

    fn metric(samples: &SampleSet, name: &str) -> Vec<spire_core::Sample> {
        samples.samples_for(&MetricId::new(name))
    }

    #[test]
    fn golden_multiplexed_counts_match_hand_computed_values() {
        let out = ingest_perf_csv(GOLDEN, &IngestConfig::default());
        let a = metric(&out.samples, "evt.a");
        assert_eq!(a.len(), 2);
        // 120 / 0.25 = 480 over (T=500, W=1000).
        assert_eq!(a[0].metric_delta(), 480.0);
        assert_eq!(a[0].time(), 500.0);
        assert_eq!(a[0].work(), 1000.0);
        // 60 / 0.30 = 200 over (T=400, W=800).
        assert!((a[1].metric_delta() - 200.0).abs() < 1e-9);
        assert_eq!(a[1].time(), 400.0);
        let b = metric(&out.samples, "evt.b");
        assert_eq!(b.len(), 1);
        // 50 / 0.50 = 100.
        assert_eq!(b[0].metric_delta(), 100.0);
        // evt.c sits below the 5% floor: quarantined, not extrapolated.
        assert!(metric(&out.samples, "evt.c").is_empty());
    }

    #[test]
    fn golden_report_accounts_for_every_row() {
        let out = ingest_perf_csv(GOLDEN, &IngestConfig::default());
        let r = &out.report;
        assert_eq!(r.rows_seen, 10);
        assert_eq!(r.rows_parsed, 9);
        assert_eq!(r.rows_quarantined, 2); // evt.c + the malformed line
        assert_eq!(r.quarantined_by_reason["low_running_frac"], 1);
        assert_eq!(r.quarantined_by_reason["bad_number"], 1);
        assert_eq!(r.rows_scaled, 3); // evt.a x2, evt.b
        assert_eq!(r.intervals_seen, 3);
        assert_eq!(r.intervals_ingested, 2);
        assert_eq!(r.intervals_dropped, 1); // t=3.0 has no fixed events
        assert_eq!(r.samples_emitted, 3);
        assert!(!r.budget_exceeded());
        assert!(!r.degraded);
        // Per-event coverage: evt.a observed at (0.25 + 0.30 + 1.0) / 3.
        let frac = r.event_running_frac("evt.a").unwrap();
        assert!((frac - (0.25 + 0.30 + 1.0) / 3.0).abs() < 1e-12);
        let evt_a = r.per_event.iter().find(|c| c.event == "evt.a").unwrap();
        assert_eq!(evt_a.rows, 3);
        assert_eq!(evt_a.scaled_rows, 2);
        assert_eq!(evt_a.min_running_frac, Some(0.25));
    }

    #[test]
    fn scaling_can_be_disabled() {
        let config = IngestConfig {
            scale_multiplexed: false,
            ..IngestConfig::default()
        };
        let out = ingest_perf_csv(GOLDEN, &config);
        let a = metric(&out.samples, "evt.a");
        assert_eq!(a[0].metric_delta(), 120.0);
        assert_eq!(out.report.rows_scaled, 0);
    }

    #[test]
    fn truncated_capture_yields_partial_samples_not_an_error() {
        // A capture cut mid-row, as a killed perf leaves behind.
        let text = "\
1.0,1000,,inst_retired.any,1000000,100.00,,
1.0,500,,cpu_clk_unhalted.thread,1000000,100.00,,
1.0,40,,evt.a,1000000,100.00,,
2.0,900,,inst_retired.any,1000000,100.00,,
2.0,45";
        let out = ingest_perf_csv(text, &IngestConfig::default());
        assert_eq!(out.samples.len(), 1);
        assert_eq!(out.report.rows_quarantined, 1);
        assert_eq!(out.report.quarantined_by_reason["malformed_row"], 1);
        assert_eq!(out.report.intervals_dropped, 1);
    }

    #[test]
    fn pure_garbage_yields_empty_samples_and_a_full_quarantine() {
        let out = ingest_perf_csv("a,b,c,\n%%%%\n\u{1F980},1,2\n", &IngestConfig::default());
        assert!(out.samples.is_empty());
        assert_eq!(out.report.rows_seen, 3);
        assert_eq!(out.report.rows_quarantined, 3);
        assert!(out.report.budget_exceeded());
        assert!(out.into_strict().is_err());
    }

    #[test]
    fn strict_conversion_passes_within_budget() {
        let out = ingest_perf_csv(GOLDEN, &IngestConfig::default());
        assert!(out.into_strict().is_ok());
    }

    #[test]
    fn non_finite_and_negative_counts_are_quarantined() {
        let text = "\
1.0,1000,,inst_retired.any,1,100,,
1.0,500,,cpu_clk_unhalted.thread,1,100,,
1.0,NaN,,evt.a,1,100,,
1.0,inf,,evt.b,1,100,,
1.0,-5,,evt.c,1,100,,
1.0,7,,evt.d,1,100,,
";
        let out = ingest_perf_csv(text, &IngestConfig::default());
        assert_eq!(out.samples.len(), 1);
        let r = &out.report;
        assert_eq!(r.quarantined_by_reason["non_finite_count"], 2);
        assert_eq!(r.quarantined_by_reason["negative_count"], 1);
    }

    #[test]
    fn counts_that_overflow_when_scaled_are_quarantined() {
        // 1e308 is finite, but at 10% running its extrapolation is not.
        let text = "\
1.0,1000,,inst_retired.any,1,100,,
1.0,500,,cpu_clk_unhalted.thread,1,100,,
1.0,1e308,,evt.a,100000,10.00,,
1.0,7,,evt.b,100000,10.00,,
";
        let out = ingest_perf_csv(text, &IngestConfig::default());
        let r = &out.report;
        assert_eq!(r.rows_quarantined, 1);
        assert_eq!(r.quarantined_by_reason["non_finite_count"], 1);
        assert_eq!(r.quarantine_details[0].line, 3);
        assert_eq!(r.rows_scaled, 1);
        let evt_a = r.per_event.iter().find(|c| c.event == "evt.a").unwrap();
        assert_eq!(evt_a.quarantined_rows, 1);
        assert!(metric(&out.samples, "evt.a").is_empty());
        assert_eq!(metric(&out.samples, "evt.b").len(), 1);
    }

    #[test]
    fn not_counted_rows_do_not_consume_the_error_budget() {
        let text = "\
1.0,1000,,inst_retired.any,1,100,,
1.0,500,,cpu_clk_unhalted.thread,1,100,,
1.0,<not counted>,,evt.a,0,0.00,,
1.0,<not supported>,,evt.b,0,0.00,,
";
        let out = ingest_perf_csv(text, &IngestConfig::default());
        assert_eq!(out.report.rows_not_counted, 1);
        assert_eq!(out.report.rows_not_supported, 1);
        assert_eq!(out.report.rows_quarantined, 0);
        assert!(!out.report.budget_exceeded());
    }

    #[test]
    fn quarantine_details_are_capped_but_counts_are_exact() {
        let mut text = String::new();
        for _ in 0..50 {
            text.push_str("garbage\n");
        }
        let config = IngestConfig {
            max_quarantine_details: 4,
            ..IngestConfig::default()
        };
        let out = ingest_perf_csv(&text, &config);
        assert_eq!(out.report.rows_quarantined, 50);
        assert_eq!(out.report.quarantine_details.len(), 4);
        assert!(out.report.details_truncated);
    }

    #[test]
    fn zero_running_fraction_is_quarantined() {
        let text = "\
1.0,1000,,inst_retired.any,1,100,,
1.0,500,,cpu_clk_unhalted.thread,1,100,,
1.0,7,,evt.a,0,0.00,,
";
        let out = ingest_perf_csv(text, &IngestConfig::default());
        assert!(out.samples.is_empty());
        assert_eq!(out.report.quarantined_by_reason["low_running_frac"], 1);
    }

    #[test]
    fn running_fraction_above_one_is_clamped() {
        let text = "\
1.0,1000,,inst_retired.any,1,100,,
1.0,500,,cpu_clk_unhalted.thread,1,100,,
1.0,7,,evt.a,1,250.00,,
";
        let out = ingest_perf_csv(text, &IngestConfig::default());
        let a = metric(&out.samples, "evt.a");
        assert_eq!(a[0].metric_delta(), 7.0);
        assert_eq!(out.report.rows_scaled, 0);
    }

    #[test]
    fn config_validation_rejects_bad_domains() {
        let bad_floor = IngestConfig {
            min_running_frac: 0.0,
            ..IngestConfig::default()
        };
        assert!(bad_floor.validate().is_err());
        let bad_budget = IngestConfig {
            error_budget: 1.5,
            ..IngestConfig::default()
        };
        assert!(bad_budget.validate().is_err());
        let nan_budget = IngestConfig {
            error_budget: f64::NAN,
            ..IngestConfig::default()
        };
        assert!(nan_budget.validate().is_err());
        let same_events = IngestConfig {
            time_event: "inst_retired.any".to_owned(),
            ..IngestConfig::default()
        };
        assert!(same_events.validate().is_err());
        assert!(IngestConfig::default().validate().is_ok());
    }

    #[test]
    fn report_renders_summary_and_table() {
        let out = ingest_perf_csv(GOLDEN, &IngestConfig::default());
        let summary = out.report.summary();
        assert!(summary.contains("2 quarantined"));
        assert!(summary.contains("2 intervals ingested"));
        let table = out.report.to_table(10);
        assert!(table.contains("quarantine breakdown"));
        assert!(table.contains("low_running_frac"));
        assert!(table.contains("evt.a"));
        assert!(table.contains("mux frac"));
    }

    #[test]
    fn report_round_trips_through_json() {
        let out = ingest_perf_csv(GOLDEN, &IngestConfig::default());
        let json = serde_json::to_string(&out.report).unwrap();
        let back: IngestReport = serde_json::from_str(&json).unwrap();
        assert_eq!(out.report, back);
    }

    #[test]
    fn empty_input_is_a_clean_empty_ingest() {
        let out = ingest_perf_csv("", &IngestConfig::default());
        assert!(out.samples.is_empty());
        assert_eq!(out.report.rows_seen, 0);
        assert!(!out.report.budget_exceeded());
        assert!(out.into_strict().is_ok());
    }
}
