//! SPIRE's input data model: performance-counter [`Sample`]s and the
//! columnar [`SampleSet`] collection.
//!
//! A sample (paper Section III-A) describes one measurement period of a
//! workload executing on the processor under analysis:
//!
//! * `T` — length of the period ([`Sample::time`]),
//! * `W` — quantity of work completed ([`Sample::work`]),
//! * `M_x` — increase of performance metric `x` ([`Sample::metric_delta`]),
//! * `P = W / T` — average throughput ([`Sample::throughput`]),
//! * `I_x = W / M_x` — metric-specific operational intensity
//!   ([`Sample::intensity`]).
//!
//! The units of `T` and `W` must be consistent across all samples (for IPC
//! analysis: `W` in retired instructions, `T` in unhalted core cycles).
//! `M_x` is in whatever unit the associated metric counts.
//!
//! # Storage layout
//!
//! [`SampleSet`] stores samples **grouped by metric** in struct-of-arrays
//! form: one [`MetricColumn`] per distinct [`MetricId`], each holding the
//! `time`/`work`/`metric_delta` fields as parallel `Vec<f64>` columns.
//! Training iterates per-metric groups (424 metrics in the paper's setup),
//! so the grouped layout makes [`SampleSet::by_metric`] a zero-copy view
//! instead of a per-call `BTreeMap<_, Vec<&Sample>>` allocation, and the
//! columnar fields let the roofline fitter stream contiguous `&[f64]`
//! slices. A row-oriented compatibility API ([`SampleSet::push`],
//! [`SampleSet::iter`]) and the serialized `{"samples": [...]}` format are
//! preserved.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;
use std::sync::OnceLock;

use serde::de::Deserializer;
use serde::ser::Serializer;
use serde::{Deserialize, Serialize};

use crate::error::{Result, SpireError};

/// Identifier of a performance metric (one hardware counter event).
///
/// Metric ids are interned strings: cloning is cheap (an atomic reference
/// count), and equality/ordering follow the underlying string. Construct one
/// from any string-like value:
///
/// ```
/// use spire_core::MetricId;
///
/// let a = MetricId::new("br_misp_retired.all_branches");
/// let b: MetricId = "br_misp_retired.all_branches".into();
/// assert_eq!(a, b);
/// assert_eq!(a.as_str(), "br_misp_retired.all_branches");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId(Arc<str>);

impl MetricId {
    /// Creates a metric id from any string-like value.
    pub fn new(name: impl AsRef<str>) -> Self {
        MetricId(Arc::from(name.as_ref()))
    }

    /// Returns the metric name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for MetricId {
    fn from(s: &str) -> Self {
        MetricId::new(s)
    }
}

impl From<String> for MetricId {
    fn from(s: String) -> Self {
        MetricId(Arc::from(s.as_str()))
    }
}

impl AsRef<str> for MetricId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for MetricId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl Serialize for MetricId {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.0)
    }
}

impl<'de> Deserialize<'de> for MetricId {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Ok(MetricId::from(s))
    }
}

/// One measurement period for a single performance metric.
///
/// Invariants (enforced by [`Sample::new`]):
/// * `time` is finite and strictly positive,
/// * `work` is finite and non-negative,
/// * `metric_delta` is finite and non-negative.
///
/// A `metric_delta` of zero yields an **infinite** operational intensity
/// (`I_x = W / 0`); such samples anchor the right-region fit's `Start`
/// vertex (paper Section III-D).
///
/// ```
/// use spire_core::Sample;
///
/// # fn main() -> Result<(), spire_core::SpireError> {
/// // 2e9 cycles, 3e9 retired instructions, 1.5e7 branch mispredictions.
/// let s = Sample::new("br_misp_retired.all_branches", 2e9, 3e9, 1.5e7)?;
/// assert_eq!(s.throughput(), 1.5); // IPC
/// assert_eq!(s.intensity(), 200.0); // instructions per misprediction
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    metric: MetricId,
    time: f64,
    work: f64,
    metric_delta: f64,
}

impl Sample {
    /// Creates a validated sample.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::InvalidSample`] if `time` is not finite and
    /// strictly positive, or if `work` or `metric_delta` is not finite and
    /// non-negative.
    pub fn new(
        metric: impl Into<MetricId>,
        time: f64,
        work: f64,
        metric_delta: f64,
    ) -> Result<Self> {
        validate_parts(time, work, metric_delta)?;
        Ok(Sample {
            metric: metric.into(),
            time,
            work,
            metric_delta,
        })
    }

    /// The metric this sample is associated with.
    pub fn metric(&self) -> &MetricId {
        &self.metric
    }

    /// `T`: length of the measurement period.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// `W`: quantity of work completed during the period.
    pub fn work(&self) -> f64 {
        self.work
    }

    /// `M_x`: increase of the associated metric during the period.
    pub fn metric_delta(&self) -> f64 {
        self.metric_delta
    }

    /// `P = W / T`: average throughput over the period.
    pub fn throughput(&self) -> f64 {
        self.work / self.time
    }

    /// `I_x = W / M_x`: metric-specific operational intensity.
    ///
    /// Returns `f64::INFINITY` when `M_x` is zero (the metric never fired
    /// during the period), matching the paper's `I_x = ∞` samples. Returns
    /// `0.0` when both `W` and `M_x` are zero: a period that did no work is
    /// treated as zero intensity rather than an indeterminate `0/0`.
    pub fn intensity(&self) -> f64 {
        intensity_of(self.work, self.metric_delta)
    }
}

/// Validates the `(time, work, metric_delta)` domain constraints shared by
/// [`Sample::new`] and the streaming [`SampleSet::push_parts`] /
/// [`MetricColumn::try_push`] ingest paths.
fn validate_parts(time: f64, work: f64, metric_delta: f64) -> Result<()> {
    if !time.is_finite() || time <= 0.0 {
        return Err(SpireError::InvalidSample {
            field: "time",
            value: time,
            constraint: "must be finite and > 0",
        });
    }
    if !work.is_finite() || work < 0.0 {
        return Err(SpireError::InvalidSample {
            field: "work",
            value: work,
            constraint: "must be finite and >= 0",
        });
    }
    if !metric_delta.is_finite() || metric_delta < 0.0 {
        return Err(SpireError::InvalidSample {
            field: "metric_delta",
            value: metric_delta,
            constraint: "must be finite and >= 0",
        });
    }
    Ok(())
}

/// Shared `I_x = W / M_x` rule (see [`Sample::intensity`]).
fn intensity_of(work: f64, metric_delta: f64) -> f64 {
    if metric_delta == 0.0 {
        if work == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        work / metric_delta
    }
}

/// Lazily computed derived columns of a [`MetricColumn`].
#[derive(Debug, Clone)]
struct Derived {
    throughput: Vec<f64>,
    intensity: Vec<f64>,
}

/// All samples of one metric in struct-of-arrays form.
///
/// The raw `time`/`work`/`metric_delta` fields are stored as parallel
/// `Vec<f64>` columns in insertion order. The derived `throughput` and
/// `intensity` columns are computed on first access and cached; any
/// mutation ([`MetricColumn::push`]) invalidates the cache.
///
/// Equality compares the metric id and raw columns only — the derived
/// cache is a pure function of them.
///
/// ```
/// use spire_core::MetricColumn;
///
/// let mut col = MetricColumn::new("stalls".into());
/// col.push(2.0, 8.0, 4.0);
/// col.push(4.0, 8.0, 0.0);
/// assert_eq!(col.throughputs(), &[4.0, 2.0]);
/// assert_eq!(col.intensities()[0], 2.0);
/// assert!(col.intensities()[1].is_infinite());
/// ```
#[derive(Debug, Clone)]
pub struct MetricColumn {
    metric: MetricId,
    time: Vec<f64>,
    work: Vec<f64>,
    metric_delta: Vec<f64>,
    derived: OnceLock<Derived>,
}

impl MetricColumn {
    /// Creates an empty column for `metric`.
    pub fn new(metric: MetricId) -> Self {
        MetricColumn {
            metric,
            time: Vec::new(),
            work: Vec::new(),
            metric_delta: Vec::new(),
            derived: OnceLock::new(),
        }
    }

    /// Builds a column directly from its three raw arrays, in row order.
    ///
    /// This is the bulk-load path for the binary column file
    /// ([`crate::colfile`]): decoded `f64` columns move straight in with no
    /// per-row work. Like [`SampleSet::push_unchecked`], the rows bypass
    /// [`Sample::new`] domain validation — deserialized data already does —
    /// so downstream code must tolerate hostile values.
    ///
    /// # Errors
    ///
    /// [`SpireError::InvalidConfig`] if the three arrays differ in length
    /// (the columns would silently desynchronize otherwise).
    pub fn from_raw_columns(
        metric: MetricId,
        time: Vec<f64>,
        work: Vec<f64>,
        metric_delta: Vec<f64>,
    ) -> Result<Self> {
        if time.len() != work.len() || time.len() != metric_delta.len() {
            return Err(SpireError::InvalidConfig {
                field: "columns",
                reason: format!(
                    "column lengths differ for metric `{}`: time {} work {} metric_delta {}",
                    metric,
                    time.len(),
                    work.len(),
                    metric_delta.len()
                ),
            });
        }
        Ok(MetricColumn {
            metric,
            time,
            work,
            metric_delta,
            derived: OnceLock::new(),
        })
    }

    /// The metric every row of this column belongs to.
    pub fn metric(&self) -> &MetricId {
        &self.metric
    }

    /// Number of rows (samples) in the column.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Returns `true` if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Appends one row. The caller must uphold the [`Sample::new`] domain
    /// constraints (use [`SampleSet::push`] / [`SampleSet::push_parts`] for
    /// validated ingest). Invalidates the derived-column cache.
    pub fn push(&mut self, time: f64, work: f64, metric_delta: f64) {
        self.time.push(time);
        self.work.push(work);
        self.metric_delta.push(metric_delta);
        self.derived = OnceLock::new();
    }

    /// Validates one row under the [`Sample::new`] domain constraints,
    /// then appends it. Invalidates the derived-column cache.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::InvalidSample`] under the same domain
    /// constraints as [`Sample::new`]; the column is left unchanged.
    pub fn try_push(&mut self, time: f64, work: f64, metric_delta: f64) -> Result<()> {
        validate_parts(time, work, metric_delta)?;
        self.push(time, work, metric_delta);
        Ok(())
    }

    /// The `T` column, in insertion order.
    pub fn times(&self) -> &[f64] {
        &self.time
    }

    /// The `W` column, in insertion order.
    pub fn works(&self) -> &[f64] {
        &self.work
    }

    /// The `M_x` column, in insertion order.
    pub fn metric_deltas(&self) -> &[f64] {
        &self.metric_delta
    }

    /// The derived `P = W / T` column (computed on first access, cached).
    pub fn throughputs(&self) -> &[f64] {
        &self.derived().throughput
    }

    /// The derived `I_x = W / M_x` column (computed on first access,
    /// cached). Follows the [`Sample::intensity`] zero rules, so rows may
    /// be `f64::INFINITY`.
    pub fn intensities(&self) -> &[f64] {
        &self.derived().intensity
    }

    /// Sum of the `T` column.
    pub fn total_time(&self) -> f64 {
        self.time.iter().sum()
    }

    /// Sum of the `W` column.
    pub fn total_work(&self) -> f64 {
        self.work.iter().sum()
    }

    /// Appends another column's raw rows (which must belong to the same
    /// metric), invalidating the derived-column cache. This is the single
    /// bulk-mutation path, so cache invalidation cannot be forgotten at a
    /// call site.
    pub(crate) fn append_rows(&mut self, other: MetricColumn) {
        debug_assert_eq!(self.metric, other.metric, "column metric mismatch");
        self.time.extend(other.time);
        self.work.extend(other.work);
        self.metric_delta.extend(other.metric_delta);
        self.derived = OnceLock::new();
    }

    /// Reconstructs row `i` as an owned [`Sample`].
    pub fn get(&self, i: usize) -> Option<Sample> {
        if i >= self.len() {
            return None;
        }
        Some(Sample {
            metric: self.metric.clone(),
            time: self.time[i],
            work: self.work[i],
            metric_delta: self.metric_delta[i],
        })
    }

    /// Iterates the rows as owned [`Sample`]s, in insertion order.
    pub fn samples(&self) -> impl ExactSizeIterator<Item = Sample> + '_ {
        (0..self.len()).map(move |i| Sample {
            metric: self.metric.clone(),
            time: self.time[i],
            work: self.work[i],
            metric_delta: self.metric_delta[i],
        })
    }

    fn derived(&self) -> &Derived {
        self.derived.get_or_init(|| Derived {
            throughput: self
                .work
                .iter()
                .zip(&self.time)
                .map(|(&w, &t)| w / t)
                .collect(),
            intensity: self
                .work
                .iter()
                .zip(&self.metric_delta)
                .map(|(&w, &m)| intensity_of(w, m))
                .collect(),
        })
    }
}

impl PartialEq for MetricColumn {
    fn eq(&self, other: &Self) -> bool {
        self.metric == other.metric
            && self.time == other.time
            && self.work == other.work
            && self.metric_delta == other.metric_delta
    }
}

/// A collection of [`Sample`]s stored grouped by metric.
///
/// `SampleSet` is the unit of data exchanged with the model: training
/// consumes one, and each analyzed workload is described by one.
///
/// Internally the set keeps one [`MetricColumn`] per distinct metric,
/// ordered by metric name, so [`SampleSet::by_metric`] is a zero-copy
/// view and [`SampleSet::column`] is a binary search. Row-level insertion
/// order is preserved *within* each metric group; whole-set iteration
/// ([`SampleSet::iter`]) visits groups in metric-name order.
///
/// ```
/// use spire_core::{Sample, SampleSet};
///
/// # fn main() -> Result<(), spire_core::SpireError> {
/// let mut set = SampleSet::new();
/// set.push(Sample::new("stalls", 100.0, 150.0, 10.0)?);
/// set.push(Sample::new("stalls", 100.0, 180.0, 5.0)?);
/// set.push(Sample::new("l3_miss", 100.0, 150.0, 2.0)?);
/// assert_eq!(set.len(), 3);
/// assert_eq!(set.metrics().count(), 2);
/// let stalls = set.column(&"stalls".into()).unwrap();
/// assert_eq!(stalls.throughputs(), &[1.5, 1.8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSet {
    /// Columns sorted by metric name (the `by_metric` iteration order).
    columns: Vec<MetricColumn>,
    /// Total row count across all columns.
    len: usize,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Builds a set directly from complete per-metric columns.
    ///
    /// This is the bulk-load path for the binary column file
    /// ([`crate::colfile`]): the columns move in without re-grouping or
    /// per-row validation. The caller must supply them already sorted by
    /// metric name with no duplicates — the invariant every accessor
    /// (binary search in [`SampleSet::column`], the [`SampleSet::by_metric`]
    /// iteration order) relies on.
    ///
    /// # Errors
    ///
    /// [`SpireError::InvalidConfig`] if the columns are not strictly
    /// ascending by metric name.
    pub fn from_columns(columns: Vec<MetricColumn>) -> Result<Self> {
        for pair in columns.windows(2) {
            if pair[0].metric() >= pair[1].metric() {
                return Err(SpireError::InvalidConfig {
                    field: "columns",
                    reason: format!(
                        "metric columns must be strictly sorted by name; `{}` precedes `{}`",
                        pair[0].metric(),
                        pair[1].metric()
                    ),
                });
            }
        }
        let len = columns.iter().map(MetricColumn::len).sum();
        Ok(SampleSet { columns, len })
    }

    /// Appends a sample to its metric's column.
    pub fn push(&mut self, sample: Sample) {
        let Sample {
            metric,
            time,
            work,
            metric_delta,
        } = sample;
        self.column_mut(metric).push(time, work, metric_delta);
        self.len += 1;
    }

    /// Streaming ingest: validates and appends one measurement without
    /// materializing a [`Sample`].
    ///
    /// This is the hot path for counter sessions that emit one reading per
    /// multiplexing slice — the fields go straight into the metric's
    /// columns.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::InvalidSample`] under the same domain
    /// constraints as [`Sample::new`].
    pub fn push_parts(
        &mut self,
        metric: MetricId,
        time: f64,
        work: f64,
        metric_delta: f64,
    ) -> Result<()> {
        validate_parts(time, work, metric_delta)?;
        self.column_mut(metric).push(time, work, metric_delta);
        self.len += 1;
        Ok(())
    }

    /// Appends one measurement **without** the [`Sample::new`] domain
    /// validation — NaN, infinite, zero, and negative fields all pass.
    ///
    /// Deserialization already admits such rows (serde builds columns
    /// directly from the wire format), so downstream code must tolerate
    /// them anyway; this constructor exists so the fault-injection
    /// harness ([`crate::fault`]) can build those hostile sets
    /// deliberately and deterministically. Prefer [`SampleSet::push`] /
    /// [`SampleSet::push_parts`] everywhere else.
    pub fn push_unchecked(&mut self, metric: MetricId, time: f64, work: f64, metric_delta: f64) {
        self.column_mut(metric).push(time, work, metric_delta);
        self.len += 1;
    }

    /// Number of samples in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set contains no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the samples grouped by metric (name order), rows in
    /// insertion order within each group. Yields owned [`Sample`]s
    /// reconstructed from the columns.
    pub fn iter(&self) -> SampleIter<'_> {
        SampleIter {
            columns: self.columns.iter(),
            current: None,
            remaining: self.len,
        }
    }

    /// The per-metric groups as a zero-copy view, ordered by metric name.
    ///
    /// This is the training fan-out point: each item borrows one
    /// [`MetricColumn`] directly from the set — no per-call map or
    /// reference vectors are built.
    pub fn by_metric(&self) -> impl ExactSizeIterator<Item = (&MetricId, &MetricColumn)> + Clone {
        self.columns.iter().map(|c| (c.metric(), c))
    }

    /// The underlying columns, ordered by metric name.
    pub fn columns(&self) -> &[MetricColumn] {
        &self.columns
    }

    /// Returns the column for `metric`, if any samples were recorded for it.
    pub fn column(&self, metric: &MetricId) -> Option<&MetricColumn> {
        self.columns
            .binary_search_by(|c| c.metric().cmp(metric))
            .ok()
            .map(|i| &self.columns[i])
    }

    /// Iterates over the distinct metrics present in the set, in name order.
    pub fn metrics(&self) -> impl ExactSizeIterator<Item = &MetricId> + Clone {
        self.columns.iter().map(MetricColumn::metric)
    }

    /// Returns all samples for one metric as owned rows, in insertion order.
    pub fn samples_for(&self, metric: &MetricId) -> Vec<Sample> {
        self.column(metric)
            .map(|c| c.samples().collect())
            .unwrap_or_default()
    }

    /// Total measurement time across all samples (sum of `T`).
    pub fn total_time(&self) -> f64 {
        self.columns.iter().map(MetricColumn::total_time).sum()
    }

    /// Merges another sample set into this one, appending each of its
    /// columns to the matching metric group (a column move when the
    /// metric is new here). The result equals pushing `other`'s rows one
    /// by one: an empty column, which only a decoded column file can
    /// carry, adds no group.
    pub fn merge(&mut self, other: SampleSet) {
        for col in other.columns {
            if col.is_empty() {
                continue;
            }
            self.len += col.len();
            match self
                .columns
                .binary_search_by(|c| c.metric().cmp(col.metric()))
            {
                Ok(i) => self.columns[i].append_rows(col),
                Err(i) => self.columns.insert(i, col),
            }
        }
    }

    /// Finds or creates the column for `metric`, keeping `columns` sorted
    /// by metric name.
    fn column_mut(&mut self, metric: MetricId) -> &mut MetricColumn {
        match self.columns.binary_search_by(|c| c.metric().cmp(&metric)) {
            Ok(i) => &mut self.columns[i],
            Err(i) => {
                self.columns.insert(i, MetricColumn::new(metric));
                &mut self.columns[i]
            }
        }
    }
}

/// Iterator over a [`SampleSet`]'s rows as owned [`Sample`]s; see
/// [`SampleSet::iter`] for the visit order.
#[derive(Debug, Clone)]
pub struct SampleIter<'a> {
    columns: std::slice::Iter<'a, MetricColumn>,
    current: Option<(&'a MetricColumn, usize)>,
    remaining: usize,
}

impl Iterator for SampleIter<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        loop {
            if let Some((col, i)) = &mut self.current {
                if let Some(s) = col.get(*i) {
                    *i += 1;
                    self.remaining -= 1;
                    return Some(s);
                }
            }
            self.current = Some((self.columns.next()?, 0));
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SampleIter<'_> {}

impl FromIterator<Sample> for SampleSet {
    fn from_iter<I: IntoIterator<Item = Sample>>(iter: I) -> Self {
        let mut set = SampleSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Sample> for SampleSet {
    fn extend<I: IntoIterator<Item = Sample>>(&mut self, iter: I) {
        for s in iter {
            self.push(s);
        }
    }
}

impl IntoIterator for SampleSet {
    type Item = Sample;
    type IntoIter = std::vec::IntoIter<Sample>;

    fn into_iter(self) -> Self::IntoIter {
        let rows: Vec<Sample> = self.iter().collect();
        rows.into_iter()
    }
}

impl<'a> IntoIterator for &'a SampleSet {
    type Item = Sample;
    type IntoIter = SampleIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Serialization keeps the pre-columnar row format `{"samples": [...]}`,
/// with rows emitted in [`SampleSet::iter`] order (grouped by metric).
/// Round-tripping therefore preserves equality — [`SampleSet`] comparison
/// is group-based and row order within each group survives.
#[derive(Serialize, Deserialize)]
struct SampleSetRows {
    samples: Vec<Sample>,
}

impl Serialize for SampleSet {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        SampleSetRows {
            samples: self.iter().collect(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for SampleSet {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        let rows = SampleSetRows::deserialize(deserializer)?;
        Ok(rows.samples.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(metric: &str, t: f64, w: f64, m: f64) -> Sample {
        Sample::new(metric, t, w, m).unwrap()
    }

    #[test]
    fn throughput_and_intensity_derive_from_fields() {
        let x = s("stalls", 4.0, 8.0, 2.0);
        assert_eq!(x.throughput(), 2.0);
        assert_eq!(x.intensity(), 4.0);
    }

    #[test]
    fn zero_metric_delta_gives_infinite_intensity() {
        let x = s("stalls", 4.0, 8.0, 0.0);
        assert!(x.intensity().is_infinite());
    }

    #[test]
    fn zero_work_zero_delta_gives_zero_intensity() {
        let x = s("stalls", 4.0, 0.0, 0.0);
        assert_eq!(x.intensity(), 0.0);
        assert_eq!(x.throughput(), 0.0);
    }

    #[test]
    fn rejects_nonpositive_time() {
        assert!(Sample::new("m", 0.0, 1.0, 1.0).is_err());
        assert!(Sample::new("m", -3.0, 1.0, 1.0).is_err());
        assert!(Sample::new("m", f64::NAN, 1.0, 1.0).is_err());
        assert!(Sample::new("m", f64::INFINITY, 1.0, 1.0).is_err());
    }

    #[test]
    fn rejects_negative_or_nonfinite_work_and_delta() {
        assert!(Sample::new("m", 1.0, -1.0, 1.0).is_err());
        assert!(Sample::new("m", 1.0, f64::NAN, 1.0).is_err());
        assert!(Sample::new("m", 1.0, 1.0, -0.5).is_err());
        assert!(Sample::new("m", 1.0, 1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn grouping_by_metric_preserves_order_and_counts() {
        let set: SampleSet = vec![
            s("b", 1.0, 1.0, 1.0),
            s("a", 1.0, 2.0, 1.0),
            s("b", 1.0, 3.0, 1.0),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.by_metric().len(), 2);
        let b = set.column(&MetricId::new("b")).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.works(), &[1.0, 3.0]);
    }

    #[test]
    fn by_metric_is_ordered_by_name_and_zero_copy() {
        let set: SampleSet = vec![
            s("z", 1.0, 1.0, 1.0),
            s("a", 1.0, 1.0, 1.0),
            s("m", 1.0, 1.0, 1.0),
        ]
        .into_iter()
        .collect();
        let names: Vec<&str> = set.by_metric().map(|(m, _)| m.as_str()).collect();
        assert_eq!(names, ["a", "m", "z"]);
        // The view borrows the set's own columns.
        let (_, col) = set.by_metric().next().unwrap();
        assert!(std::ptr::eq(col, &set.columns()[0]));
    }

    #[test]
    fn metrics_are_deduped_and_sorted() {
        let set: SampleSet = vec![
            s("z", 1.0, 1.0, 1.0),
            s("a", 1.0, 1.0, 1.0),
            s("z", 1.0, 1.0, 1.0),
        ]
        .into_iter()
        .collect();
        let names: Vec<&str> = set.metrics().map(MetricId::as_str).collect();
        assert_eq!(names, ["a", "z"]);
    }

    #[test]
    fn total_time_sums_periods() {
        let set: SampleSet = vec![s("a", 1.5, 1.0, 1.0), s("b", 2.5, 1.0, 1.0)]
            .into_iter()
            .collect();
        assert_eq!(set.total_time(), 4.0);
    }

    #[test]
    fn merge_appends_within_matching_groups() {
        let mut a: SampleSet = vec![s("a", 1.0, 1.0, 1.0)].into_iter().collect();
        let b: SampleSet = vec![s("b", 1.0, 1.0, 1.0), s("a", 2.0, 4.0, 1.0)]
            .into_iter()
            .collect();
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.column(&"a".into()).unwrap().times(), &[1.0, 2.0]);
        assert_eq!(a.column(&"b".into()).unwrap().len(), 1);
    }

    #[test]
    fn merge_adds_no_group_for_an_empty_column() {
        let empty = MetricColumn::new("z".into());
        let b = SampleSet::from_columns(vec![empty]).unwrap();
        let mut a = SampleSet::new();
        a.merge(b);
        assert_eq!(a, SampleSet::new());
        assert_eq!(a.metrics().count(), 0);
    }

    #[test]
    fn metric_id_borrow_allows_str_lookup() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<MetricId, u32> = BTreeMap::new();
        m.insert(MetricId::new("x"), 1);
        assert_eq!(m.get("x"), Some(&1));
    }

    #[test]
    fn sample_set_serde_round_trip() {
        let set: SampleSet = vec![s("a", 1.0, 2.0, 3.0), s("b", 2.0, 2.0, 0.0)]
            .into_iter()
            .collect();
        let json = serde_json::to_string(&set).unwrap();
        assert!(json.contains("\"samples\""));
        let back: SampleSet = serde_json::from_str(&json).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn derived_columns_match_row_accessors() {
        let rows = vec![
            s("x", 2.0, 8.0, 4.0),
            s("x", 4.0, 8.0, 0.0),
            s("x", 5.0, 0.0, 0.0),
        ];
        let set: SampleSet = rows.clone().into_iter().collect();
        let col = set.column(&"x".into()).unwrap();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(col.throughputs()[i], r.throughput());
            let (a, b) = (col.intensities()[i], r.intensity());
            assert!(a == b || (a.is_infinite() && b.is_infinite()));
        }
    }

    #[test]
    fn push_invalidates_derived_cache() {
        let mut col = MetricColumn::new("x".into());
        col.push(1.0, 2.0, 1.0);
        assert_eq!(col.throughputs(), &[2.0]);
        col.push(1.0, 6.0, 2.0);
        assert_eq!(col.throughputs(), &[2.0, 6.0]);
        assert_eq!(col.intensities(), &[2.0, 3.0]);
    }

    #[test]
    fn every_mutation_path_invalidates_derived_after_by_metric_read() {
        // Regression: reading derived columns through `by_metric` populates
        // the per-column cache; every later mutation path — `push`,
        // `push_parts`, `push_unchecked`, and `merge` — must invalidate it
        // so stale intensities can never reach a fit.
        let mut set = SampleSet::new();
        set.push_parts("x".into(), 1.0, 2.0, 1.0).unwrap();
        let (_, col) = set.by_metric().next().unwrap();
        assert_eq!(col.intensities(), &[2.0]); // warm the cache

        set.push(Sample::new("x", 1.0, 6.0, 2.0).unwrap());
        assert_eq!(set.column(&"x".into()).unwrap().intensities(), &[2.0, 3.0]);

        set.push_parts("x".into(), 1.0, 8.0, 2.0).unwrap();
        assert_eq!(
            set.column(&"x".into()).unwrap().intensities(),
            &[2.0, 3.0, 4.0]
        );

        let _ = set.column(&"x".into()).unwrap().throughputs(); // re-warm
        set.push_unchecked("x".into(), 1.0, 10.0, 2.0);
        let col = set.column(&"x".into()).unwrap();
        assert_eq!(col.intensities(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(col.throughputs(), &[2.0, 6.0, 8.0, 10.0]);

        let other: SampleSet = vec![Sample::new("x", 1.0, 12.0, 2.0).unwrap()]
            .into_iter()
            .collect();
        let _ = set.column(&"x".into()).unwrap().intensities(); // re-warm
        set.merge(other);
        assert_eq!(
            set.column(&"x".into()).unwrap().intensities(),
            &[2.0, 3.0, 4.0, 5.0, 6.0]
        );
    }

    #[test]
    fn push_parts_validates_like_sample_new() {
        let mut set = SampleSet::new();
        set.push_parts("m".into(), 1.0, 2.0, 1.0).unwrap();
        assert!(set.push_parts("m".into(), 0.0, 2.0, 1.0).is_err());
        assert!(set.push_parts("m".into(), 1.0, -2.0, 1.0).is_err());
        assert_eq!(set.len(), 1);
        let mut col = MetricColumn::new("m".into());
        col.try_push(1.0, 2.0, 1.0).unwrap();
        assert!(col.try_push(0.0, 2.0, 1.0).is_err());
        assert!(col.try_push(1.0, 2.0, f64::INFINITY).is_err());
        assert_eq!(col, *set.column(&"m".into()).unwrap());
    }

    #[test]
    fn iter_yields_every_row_grouped() {
        let set: SampleSet = vec![
            s("b", 1.0, 1.0, 1.0),
            s("a", 2.0, 1.0, 1.0),
            s("b", 3.0, 1.0, 1.0),
        ]
        .into_iter()
        .collect();
        let rows: Vec<Sample> = set.iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(set.iter().len(), 3);
        let metrics: Vec<&str> = rows.iter().map(|r| r.metric().as_str()).collect();
        assert_eq!(metrics, ["a", "b", "b"]);
        assert_eq!(rows[1].time(), 1.0);
        assert_eq!(rows[2].time(), 3.0);
    }

    #[test]
    fn equality_ignores_original_push_interleaving() {
        let interleaved: SampleSet = vec![
            s("a", 1.0, 1.0, 1.0),
            s("b", 2.0, 1.0, 1.0),
            s("a", 3.0, 1.0, 1.0),
        ]
        .into_iter()
        .collect();
        let grouped: SampleSet = vec![
            s("a", 1.0, 1.0, 1.0),
            s("a", 3.0, 1.0, 1.0),
            s("b", 2.0, 1.0, 1.0),
        ]
        .into_iter()
        .collect();
        assert_eq!(interleaved, grouped);
    }
}
