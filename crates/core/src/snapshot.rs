//! Versioned, checksummed on-disk form for trained [`SpireModel`]s.
//!
//! A snapshot is the durability contract between `train` and
//! `estimate`/`analyze`: training is expensive (the paper's setup fits 424
//! rooflines over 1.3M samples), so serving must load a previously trained
//! ensemble — and must be able to *trust* it. The format is designed so
//! damage is detected, attributed, and contained:
//!
//! * a `format_version` field gates structural compatibility — a snapshot
//!   from a future format refuses to load rather than misparse;
//! * each per-metric roofline is stored as an *embedded JSON string* with
//!   its own FNV-1a checksum over the exact bytes, so a bit flip inside one
//!   record is attributable to that record and cannot silently change a
//!   ceiling;
//! * loading re-validates every roofline's structural invariants
//!   ([`PiecewiseRoofline::validate`]) — a record can be bytewise intact
//!   yet semantically hostile;
//! * [`SnapshotMode::Lenient`] salvages the intact metrics from a partially
//!   corrupted snapshot (reporting what was dropped); strict mode refuses
//!   the whole artifact on the first damaged record.
//!
//! Container-level damage — truncation, malformed JSON, an unsupported
//! version — is fatal in both modes: there is no trustworthy boundary to
//! salvage within.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::ensemble::{TrainConfig, TrainReport};
use crate::error::{Result, SpireError};
use crate::roofline::PiecewiseRoofline;
use crate::sample::MetricId;
use crate::{MachineSpec, SpireModel};

/// The snapshot format version this build writes and the newest it reads.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// The checksum algorithm identifier written into snapshots.
const CHECKSUM_ALGORITHM: &str = "fnv1a64";

/// 64-bit FNV-1a over `bytes` — dependency-free, stable across platforms,
/// and plenty for integrity (not security) checking.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Where the training data for a snapshot came from: dataset labels,
/// sample counts, and the ingest layer's degradation summaries.
///
/// Populated by the CLI from the counters crate's `Dataset`; kept generic
/// here (strings and counts) so the dependency direction stays
/// `counters -> core`.
#[derive(Debug, Clone, PartialEq, Default, Deserialize)]
pub struct SnapshotProvenance {
    /// Path or description of the source dataset.
    pub source: Option<String>,
    /// Workload labels the training data was collected from.
    pub labels: Vec<String>,
    /// Total training samples across all labels.
    pub total_samples: usize,
    /// Per-label ingest report summaries (label -> summary line), for
    /// datasets that came through the fault-tolerant ingest.
    pub ingest_summaries: BTreeMap<String, String>,
    /// The machine the training data was collected on, when known.
    /// Absent for legacy snapshots — absence is never treated as a
    /// mismatch, only as missing provenance.
    pub machine: Option<crate::MachineSpec>,
}

/// Hand-written so a machine-less provenance serializes without a
/// `machine` key at all: snapshots written before machines existed stay
/// byte-identical, and "no machine" is visibly absence rather than
/// `null`. (The vendored derive has no `skip_serializing_if`.)
impl Serialize for SnapshotProvenance {
    fn serialize<S: serde::ser::Serializer>(
        &self,
        serializer: S,
    ) -> std::result::Result<S::Ok, S::Error> {
        use serde::{to_content, Content};
        let key = |k: &str| Content::Str(k.to_owned());
        let mut entries = vec![
            (key("source"), to_content(&self.source)),
            (key("labels"), to_content(&self.labels)),
            (key("total_samples"), to_content(&self.total_samples)),
            (key("ingest_summaries"), to_content(&self.ingest_summaries)),
        ];
        if let Some(machine) = &self.machine {
            entries.push((key("machine"), to_content(machine)));
        }
        serializer.serialize_content(Content::Map(entries))
    }
}

/// One metric's roofline record: the fit serialized to a JSON string plus
/// a checksum over those exact bytes.
///
/// The payload is a *string* (JSON-in-JSON) deliberately: checksumming the
/// exact stored bytes makes verification independent of any number
/// re-formatting a structural round-trip might apply, and a record whose
/// payload no longer parses is attributable to that record rather than
/// poisoning the whole file. The fields are public so fault-injection
/// harnesses and tooling can tamper with records deliberately.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricRecord {
    /// The metric this record models.
    pub metric: MetricId,
    /// FNV-1a 64 checksum of `roofline`'s UTF-8 bytes, in lowercase hex.
    pub checksum: String,
    /// The [`PiecewiseRoofline`] serialized as canonical JSON.
    pub roofline: String,
}

impl MetricRecord {
    /// Builds a record (and its checksum) for one fitted roofline.
    fn new(roofline: &PiecewiseRoofline) -> Result<Self> {
        let payload = serde_json::to_string(roofline).map_err(|e| SpireError::SnapshotFormat {
            reason: format!("failed to serialize roofline: {e}"),
        })?;
        Ok(MetricRecord {
            metric: roofline.metric().clone(),
            checksum: format!("{:016x}", fnv1a64(payload.as_bytes())),
            roofline: payload,
        })
    }

    /// Verifies and decodes the record into a validated roofline.
    fn decode(&self) -> Result<PiecewiseRoofline> {
        let corrupt = |reason: String| SpireError::SnapshotRecordCorrupt {
            metric: self.metric.to_string(),
            reason,
        };
        let actual = format!("{:016x}", fnv1a64(self.roofline.as_bytes()));
        if actual != self.checksum {
            return Err(corrupt(format!(
                "checksum mismatch (stored {}, computed {actual})",
                self.checksum
            )));
        }
        let roofline: PiecewiseRoofline = serde_json::from_str(&self.roofline)
            .map_err(|e| corrupt(format!("payload does not parse: {e}")))?;
        if roofline.metric() != &self.metric {
            return Err(corrupt(format!(
                "payload models metric `{}`, record claims `{}`",
                roofline.metric(),
                self.metric
            )));
        }
        roofline.validate()?;
        Ok(roofline)
    }
}

/// How snapshot loading treats damaged per-metric records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SnapshotMode {
    /// Salvage the intact metrics; report the dropped ones.
    #[default]
    Lenient,
    /// Refuse the whole snapshot on the first damaged record.
    Strict,
}

/// One metric dropped by a lenient snapshot load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DroppedMetric {
    /// The metric whose record was damaged.
    pub metric: MetricId,
    /// Why it was dropped (checksum mismatch, parse failure, invariant
    /// violation).
    pub reason: String,
}

/// What a snapshot load did: loaded/dropped counts, mirroring the
/// train-time [`TrainReport`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SnapshotReport {
    /// Metric records present in the snapshot.
    pub metrics_total: usize,
    /// Records that verified, parsed, and validated.
    pub metrics_loaded: usize,
    /// Records dropped by the lenient load, in snapshot order.
    pub dropped: Vec<DroppedMetric>,
}

impl SnapshotReport {
    /// Returns `true` if any record was dropped (the model is usable but
    /// degraded).
    pub fn is_degraded(&self) -> bool {
        !self.dropped.is_empty()
    }

    /// One-line summary, e.g. `loaded 10/12 snapshot metrics (2 dropped)`.
    pub fn summary(&self) -> String {
        format!(
            "loaded {}/{} snapshot metrics ({} dropped)",
            self.metrics_loaded,
            self.metrics_total,
            self.dropped.len()
        )
    }
}

/// A loaded model together with the [`SnapshotReport`] describing what was
/// salvaged.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotLoad {
    /// The reassembled (possibly degraded) model.
    pub model: SpireModel,
    /// Per-record load outcomes.
    pub report: SnapshotReport,
}

/// The on-disk snapshot container: format version, training configuration,
/// provenance, and one checksummed [`MetricRecord`] per trained metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// Format version; see [`SNAPSHOT_FORMAT_VERSION`].
    pub format_version: u32,
    /// Checksum algorithm used by the records (`"fnv1a64"`).
    pub checksum_algorithm: String,
    /// The configuration the model was trained with.
    pub config: TrainConfig,
    /// Metrics skipped at train time for having too few samples.
    pub skipped_metrics: Vec<MetricId>,
    /// Training-data provenance, when the trainer supplied it.
    pub provenance: Option<SnapshotProvenance>,
    /// The train-time quarantine report, when training was fault-isolated.
    pub train_report: Option<TrainReport>,
    /// One record per trained metric, in metric-name order.
    pub metrics: Vec<MetricRecord>,
}

impl ModelSnapshot {
    /// Builds a snapshot of `model`, checksumming every per-metric record.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::SnapshotFormat`] if a roofline fails to
    /// serialize (not expected for well-formed models).
    pub fn from_model(model: &SpireModel) -> Result<Self> {
        let metrics: Result<Vec<MetricRecord>> =
            model.rooflines().values().map(MetricRecord::new).collect();
        Ok(ModelSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            checksum_algorithm: CHECKSUM_ALGORITHM.to_owned(),
            config: model.config().clone(),
            skipped_metrics: model.skipped_metrics().to_vec(),
            provenance: None,
            train_report: None,
            metrics: metrics?,
        })
    }

    /// Attaches training-data provenance.
    pub fn with_provenance(mut self, provenance: SnapshotProvenance) -> Self {
        self.provenance = Some(provenance);
        self
    }

    /// Attaches the train-time quarantine report.
    pub fn with_train_report(mut self, report: TrainReport) -> Self {
        self.train_report = Some(report);
        self
    }

    /// The machine this snapshot's training data came from, when its
    /// provenance recorded one.
    pub fn machine(&self) -> Option<&crate::MachineSpec> {
        self.provenance.as_ref().and_then(|p| p.machine.as_ref())
    }

    /// Serializes the snapshot container to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot containers always serialize")
    }

    /// Parses a snapshot container from JSON, checking the format version
    /// and checksum algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::SnapshotFormat`] for malformed or truncated
    /// JSON, an unsupported `format_version`, or an unknown checksum
    /// algorithm — all fatal in both load modes.
    pub fn from_json(text: &str) -> Result<Self> {
        let snapshot: ModelSnapshot =
            serde_json::from_str(text).map_err(|e| SpireError::SnapshotFormat {
                reason: format!("container does not parse: {e}"),
            })?;
        if snapshot.format_version == 0 || snapshot.format_version > SNAPSHOT_FORMAT_VERSION {
            return Err(SpireError::SnapshotFormat {
                reason: format!(
                    "unsupported format version {} (this build reads up to {})",
                    snapshot.format_version, SNAPSHOT_FORMAT_VERSION
                ),
            });
        }
        if snapshot.checksum_algorithm != CHECKSUM_ALGORITHM {
            return Err(SpireError::SnapshotFormat {
                reason: format!(
                    "unknown checksum algorithm `{}` (expected `{CHECKSUM_ALGORITHM}`)",
                    snapshot.checksum_algorithm
                ),
            });
        }
        Ok(snapshot)
    }

    /// Verifies every record and reassembles the model.
    ///
    /// In [`SnapshotMode::Lenient`], damaged records are dropped into the
    /// returned [`SnapshotReport`] and the model is built from the
    /// survivors; in [`SnapshotMode::Strict`] the first damaged record's
    /// error is returned.
    ///
    /// # Errors
    ///
    /// [`SpireError::SnapshotRecordCorrupt`] /
    /// [`SpireError::ModelInvariantViolation`] in strict mode;
    /// [`SpireError::SnapshotFormat`] when no metric survives a lenient
    /// load (a zero-metric model cannot estimate).
    pub fn into_model(self, mode: SnapshotMode) -> Result<SnapshotLoad> {
        let metrics_total = self.metrics.len();
        let mut rooflines = BTreeMap::new();
        let mut dropped = Vec::new();
        for record in &self.metrics {
            match record.decode() {
                Ok(roofline) => {
                    rooflines.insert(record.metric.clone(), roofline);
                }
                Err(e) => {
                    if mode == SnapshotMode::Strict {
                        return Err(e);
                    }
                    dropped.push(DroppedMetric {
                        metric: record.metric.clone(),
                        reason: e.to_string(),
                    });
                }
            }
        }
        if rooflines.is_empty() {
            return Err(SpireError::SnapshotFormat {
                reason: format!(
                    "no metric record could be salvaged ({metrics_total} present, all damaged \
                     or none stored)"
                ),
            });
        }
        let report = SnapshotReport {
            metrics_total,
            metrics_loaded: rooflines.len(),
            dropped,
        };
        Ok(SnapshotLoad {
            model: SpireModel::from_parts(rooflines, self.config, self.skipped_metrics),
            report,
        })
    }
}

impl ModelSnapshot {
    /// A 16-hex-digit FNV-1a fingerprint of the snapshot's model content:
    /// the per-metric `metric:checksum` lines in record order.
    ///
    /// Two snapshots of the same model always agree (records are stored in
    /// metric-name order and each checksum covers the exact roofline
    /// bytes); any change to any metric's fit changes the fingerprint.
    /// Container metadata (provenance, train report) is deliberately
    /// excluded — the fingerprint anchors *model* identity for delta
    /// application.
    pub fn fingerprint(&self) -> String {
        let mut lines = String::new();
        for record in &self.metrics {
            lines.push_str(record.metric.as_str());
            lines.push(':');
            lines.push_str(&record.checksum);
            lines.push('\n');
        }
        format!("{:016x}", fnv1a64(lines.as_bytes()))
    }
}

/// A *delta* between two model snapshots: only the per-metric records that
/// changed, plus the metrics that disappeared — the streaming update loop's
/// alternative to rewriting a full snapshot after every batch.
///
/// Deltas carry the base and result fingerprints ([`ModelSnapshot::fingerprint`])
/// so application is anchored at both ends: applying to the wrong base, or
/// a corrupted splice, is a typed error rather than a silently wrong model.
/// The changed records keep the full-snapshot [`MetricRecord`] form, so the
/// same FNV checksums guard each roofline's bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotDelta {
    /// Format version; shares [`SNAPSHOT_FORMAT_VERSION`] with snapshots.
    pub format_version: u32,
    /// Checksum algorithm used by the records (`"fnv1a64"`).
    pub checksum_algorithm: String,
    /// Fingerprint of the snapshot this delta applies to.
    pub base_fingerprint: String,
    /// Fingerprint of the snapshot the application must produce.
    pub result_fingerprint: String,
    /// The updated training configuration.
    pub config: TrainConfig,
    /// The updated skipped-metric list.
    pub skipped_metrics: Vec<MetricId>,
    /// Updated provenance, when the trainer supplied it.
    pub provenance: Option<SnapshotProvenance>,
    /// The updated train report, when training was fault-isolated.
    pub train_report: Option<TrainReport>,
    /// Records added or changed since the base, in metric-name order.
    pub changed: Vec<MetricRecord>,
    /// Metrics present in the base but absent from the result, in
    /// metric-name order.
    pub removed: Vec<MetricId>,
}

impl SnapshotDelta {
    /// Computes the delta turning `base` into `updated`.
    ///
    /// A metric is *changed* if it is new or its record checksum differs;
    /// *removed* if it exists in `base` only. An empty `changed`/`removed`
    /// pair is valid (the delta still re-anchors config and reports).
    pub fn between(base: &ModelSnapshot, updated: &ModelSnapshot) -> Self {
        let base_checksums: BTreeMap<&MetricId, &str> = base
            .metrics
            .iter()
            .map(|r| (&r.metric, r.checksum.as_str()))
            .collect();
        let changed: Vec<MetricRecord> = updated
            .metrics
            .iter()
            .filter(|r| base_checksums.get(&r.metric) != Some(&r.checksum.as_str()))
            .cloned()
            .collect();
        let updated_names: BTreeMap<&MetricId, ()> =
            updated.metrics.iter().map(|r| (&r.metric, ())).collect();
        let removed: Vec<MetricId> = base
            .metrics
            .iter()
            .filter(|r| !updated_names.contains_key(&r.metric))
            .map(|r| r.metric.clone())
            .collect();
        SnapshotDelta {
            format_version: SNAPSHOT_FORMAT_VERSION,
            checksum_algorithm: CHECKSUM_ALGORITHM.to_owned(),
            base_fingerprint: base.fingerprint(),
            result_fingerprint: updated.fingerprint(),
            config: updated.config.clone(),
            skipped_metrics: updated.skipped_metrics.clone(),
            provenance: updated.provenance.clone(),
            train_report: updated.train_report.clone(),
            changed,
            removed,
        }
    }

    /// Applies the delta to `base`, returning the updated snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::SnapshotFormat`] if `base`'s fingerprint does
    /// not match [`SnapshotDelta::base_fingerprint`], or if the spliced
    /// result does not reproduce [`SnapshotDelta::result_fingerprint`]
    /// (either indicates the delta belongs to a different history or was
    /// damaged in a way the per-record checksums cannot see).
    /// Returns [`SpireError::MachineMismatch`] when both the base and the
    /// delta carry machine provenance and the machines differ — a stream
    /// of updates must not silently hop microarchitectures. Either side
    /// lacking a machine (legacy artifacts) passes the check.
    pub fn apply(&self, base: &ModelSnapshot) -> Result<ModelSnapshot> {
        if let (Some(base_m), Some(delta_m)) = (base.machine(), self.machine()) {
            if !base_m.matches(delta_m) {
                return Err(SpireError::MachineMismatch {
                    expected: base_m.tag(),
                    found: delta_m.tag(),
                    context: "snapshot delta apply".to_owned(),
                });
            }
        }
        let base_fp = base.fingerprint();
        if base_fp != self.base_fingerprint {
            return Err(SpireError::SnapshotFormat {
                reason: format!(
                    "delta applies to base fingerprint {}, got a snapshot with {base_fp}",
                    self.base_fingerprint
                ),
            });
        }
        let mut metrics = base.metrics.clone();
        metrics.retain(|r| !self.removed.contains(&r.metric));
        for record in &self.changed {
            match metrics.binary_search_by(|r| r.metric.cmp(&record.metric)) {
                Ok(i) => metrics[i] = record.clone(),
                Err(i) => metrics.insert(i, record.clone()),
            }
        }
        let result = ModelSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            checksum_algorithm: CHECKSUM_ALGORITHM.to_owned(),
            config: self.config.clone(),
            skipped_metrics: self.skipped_metrics.clone(),
            provenance: self.provenance.clone(),
            train_report: self.train_report.clone(),
            metrics,
        };
        let result_fp = result.fingerprint();
        if result_fp != self.result_fingerprint {
            return Err(SpireError::SnapshotFormat {
                reason: format!(
                    "applied delta produced fingerprint {result_fp}, expected {}",
                    self.result_fingerprint
                ),
            });
        }
        Ok(result)
    }

    /// The machine this delta's updated provenance names, when recorded.
    pub fn machine(&self) -> Option<&crate::MachineSpec> {
        self.provenance.as_ref().and_then(|p| p.machine.as_ref())
    }

    /// Serializes the delta to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot deltas always serialize")
    }

    /// Parses a delta from JSON, checking the format version and checksum
    /// algorithm like [`ModelSnapshot::from_json`].
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::SnapshotFormat`] for malformed JSON, an
    /// unsupported version, or an unknown checksum algorithm.
    pub fn from_json(text: &str) -> Result<Self> {
        let delta: SnapshotDelta =
            serde_json::from_str(text).map_err(|e| SpireError::SnapshotFormat {
                reason: format!("delta does not parse: {e}"),
            })?;
        if delta.format_version == 0 || delta.format_version > SNAPSHOT_FORMAT_VERSION {
            return Err(SpireError::SnapshotFormat {
                reason: format!(
                    "unsupported delta format version {} (this build reads up to {})",
                    delta.format_version, SNAPSHOT_FORMAT_VERSION
                ),
            });
        }
        if delta.checksum_algorithm != CHECKSUM_ALGORITHM {
            return Err(SpireError::SnapshotFormat {
                reason: format!(
                    "unknown checksum algorithm `{}` (expected `{CHECKSUM_ALGORITHM}`)",
                    delta.checksum_algorithm
                ),
            });
        }
        Ok(delta)
    }
}

/// Writes `contents` to `path` atomically: the bytes go to a temporary
/// sibling file which is then renamed over the destination, so a crash
/// mid-write can never leave a torn snapshot (or delta) for a later load
/// to chew on — the destination either keeps its old bytes or holds the
/// complete new ones.
///
/// # Errors
///
/// Any I/O error from writing or renaming; the temporary file is cleaned
/// up on a best-effort basis when the rename fails.
pub fn write_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    write_atomic_bytes(path, contents.as_bytes())
}

/// Byte-level form of [`write_atomic`], for binary artifacts such as
/// [`crate::colfile`] datasets: write to a temporary sibling, then rename
/// over the target.
///
/// # Errors
///
/// Any I/O error from writing or renaming; the temporary file is cleaned
/// up on a best-effort basis when the rename fails.
pub fn write_atomic_bytes(path: &std::path::Path, contents: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Loads a model from either a snapshot or the legacy raw-model JSON that
/// `train --out` writes, sniffing the format by attempting the snapshot
/// container first.
///
/// Returns the model, the machine its training data came from (when the
/// snapshot's provenance recorded one), and, for snapshots, the load
/// report. Legacy models carry neither a machine nor integrity
/// information, so both are `None` for them.
///
/// # Errors
///
/// Snapshot errors as in [`ModelSnapshot::into_model`]; for legacy input,
/// [`SpireError::SnapshotFormat`] when the text parses as neither format.
/// A legacy model is also run through [`PiecewiseRoofline::validate`]
/// per-metric (strict: any violation fails; lenient: violations are
/// reported but legacy models carry no per-record boundary, so the model
/// is refused only if every metric is invalid).
pub fn load_model(
    text: &str,
    mode: SnapshotMode,
) -> Result<(SpireModel, Option<MachineSpec>, Option<SnapshotReport>)> {
    match ModelSnapshot::from_json(text) {
        Ok(snapshot) => {
            let machine = snapshot.machine().cloned();
            let loaded = snapshot.into_model(mode)?;
            return Ok((loaded.model, machine, Some(loaded.report)));
        }
        Err(SpireError::SnapshotFormat { reason })
            if text.contains("\"format_version\"") || text.contains("\"checksum_algorithm\"") =>
        {
            // The text is (or claims to be) a snapshot; don't fall back to
            // the legacy parser and mask a version or corruption problem.
            return Err(SpireError::SnapshotFormat { reason });
        }
        Err(_) => {}
    }
    let model: SpireModel = serde_json::from_str(text).map_err(|e| SpireError::SnapshotFormat {
        reason: format!("neither a model snapshot nor a legacy model: {e}"),
    })?;
    for roofline in model.rooflines().values() {
        match roofline.validate() {
            Ok(()) => {}
            Err(e) if mode == SnapshotMode::Strict => return Err(e),
            Err(_) => {}
        }
    }
    Ok((model, None, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sample, SampleSet, TrainConfig};

    fn trained() -> SpireModel {
        let mut set = SampleSet::new();
        for m in 0..4 {
            for i in 1..6 {
                let s = Sample::new(
                    format!("metric_{m}").as_str(),
                    10.0,
                    (5 * i) as f64,
                    (10 - i) as f64,
                )
                .unwrap();
                set.push(s);
            }
        }
        SpireModel::train(&set, TrainConfig::default()).unwrap()
    }

    #[test]
    fn snapshot_round_trip_is_identity() {
        let model = trained();
        let json = ModelSnapshot::from_model(&model).unwrap().to_json();
        let loaded = ModelSnapshot::from_json(&json)
            .unwrap()
            .into_model(SnapshotMode::Strict)
            .unwrap();
        assert_eq!(loaded.model, model);
        assert_eq!(loaded.report.metrics_loaded, 4);
        assert!(!loaded.report.is_degraded());
    }

    #[test]
    fn fnv1a64_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn corrupted_record_is_dropped_leniently_and_fatal_strictly() {
        let model = trained();
        let mut snapshot = ModelSnapshot::from_model(&model).unwrap();
        // Tamper with one record's payload without updating its checksum.
        snapshot.metrics[1].roofline = snapshot.metrics[1].roofline.replacen('1', "2", 1);
        let json = snapshot.to_json();

        let strict = ModelSnapshot::from_json(&json)
            .unwrap()
            .into_model(SnapshotMode::Strict);
        assert!(matches!(
            strict.unwrap_err(),
            SpireError::SnapshotRecordCorrupt { .. }
        ));

        let lenient = ModelSnapshot::from_json(&json)
            .unwrap()
            .into_model(SnapshotMode::Lenient)
            .unwrap();
        assert_eq!(lenient.report.metrics_loaded, 3);
        assert_eq!(lenient.report.dropped.len(), 1);
        assert_eq!(lenient.report.dropped[0].metric.as_str(), "metric_1");
        assert!(lenient.report.dropped[0].reason.contains("checksum"));
        assert!(lenient.model.roofline(&"metric_1".into()).is_none());
        assert!(lenient.model.roofline(&"metric_0".into()).is_some());
    }

    #[test]
    fn metric_name_mismatch_is_corruption() {
        let model = trained();
        let mut snapshot = ModelSnapshot::from_model(&model).unwrap();
        // Swap two records' metric names (payloads and checksums intact).
        let m0 = snapshot.metrics[0].metric.clone();
        snapshot.metrics[0].metric = snapshot.metrics[1].metric.clone();
        snapshot.metrics[1].metric = m0;
        let err = snapshot.into_model(SnapshotMode::Strict).unwrap_err();
        match err {
            SpireError::SnapshotRecordCorrupt { reason, .. } => {
                assert!(reason.contains("record claims"));
            }
            other => panic!("expected record corruption, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_version_refuses_in_both_modes() {
        let model = trained();
        let mut snapshot = ModelSnapshot::from_model(&model).unwrap();
        snapshot.format_version = 99;
        let json = snapshot.to_json();
        let err = ModelSnapshot::from_json(&json).unwrap_err();
        assert!(matches!(err, SpireError::SnapshotFormat { .. }));
        assert!(err.to_string().contains("version 99"));
    }

    #[test]
    fn truncated_container_refuses_in_both_modes() {
        let model = trained();
        let json = ModelSnapshot::from_model(&model).unwrap().to_json();
        let truncated = &json[..json.len() / 2];
        assert!(matches!(
            ModelSnapshot::from_json(truncated).unwrap_err(),
            SpireError::SnapshotFormat { .. }
        ));
        // Auto-detecting loader must not fall back to the legacy parser
        // for a damaged snapshot.
        assert!(matches!(
            load_model(truncated, SnapshotMode::Lenient).unwrap_err(),
            SpireError::SnapshotFormat { .. }
        ));
    }

    #[test]
    fn all_records_damaged_refuses_even_leniently() {
        let model = trained();
        let mut snapshot = ModelSnapshot::from_model(&model).unwrap();
        for record in &mut snapshot.metrics {
            record.checksum = "0000000000000000".to_owned();
        }
        assert!(matches!(
            snapshot.into_model(SnapshotMode::Lenient).unwrap_err(),
            SpireError::SnapshotFormat { .. }
        ));
    }

    #[test]
    fn load_model_accepts_legacy_raw_model_json() {
        let model = trained();
        let legacy = serde_json::to_string(&model).unwrap();
        let (loaded, _, report) = load_model(&legacy, SnapshotMode::Strict).unwrap();
        assert_eq!(loaded, model);
        assert!(report.is_none());
    }

    #[test]
    fn load_model_accepts_snapshot_json() {
        let model = trained();
        let json = ModelSnapshot::from_model(&model).unwrap().to_json();
        let (loaded, _, report) = load_model(&json, SnapshotMode::Lenient).unwrap();
        assert_eq!(loaded, model);
        assert!(!report.unwrap().is_degraded());
    }

    #[test]
    fn provenance_and_train_report_round_trip() {
        let model = trained();
        let provenance = SnapshotProvenance {
            source: Some("data.json".to_owned()),
            labels: vec!["wl_a".to_owned(), "wl_b".to_owned()],
            total_samples: 20,
            ingest_summaries: [("wl_a".to_owned(), "scaled 10/10 rows".to_owned())]
                .into_iter()
                .collect(),
            machine: None,
        };
        let snapshot = ModelSnapshot::from_model(&model)
            .unwrap()
            .with_provenance(provenance.clone())
            .with_train_report(TrainReport::default());
        let back = ModelSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(back.provenance.as_ref(), Some(&provenance));
        assert!(back.train_report.is_some());
        let loaded = back.into_model(SnapshotMode::Strict).unwrap();
        assert_eq!(loaded.model, model);
    }

    fn machine_spec(name: &str, fp: &str) -> crate::MachineSpec {
        crate::MachineSpec {
            name: name.to_owned(),
            fingerprint: fp.to_owned(),
            peaks: crate::MachinePeaks {
                throughput: 4.0,
                bandwidth: std::collections::BTreeMap::new(),
            },
            normalized: false,
        }
    }

    #[test]
    fn machine_survives_snapshot_round_trip() {
        let model = trained();
        let provenance = SnapshotProvenance {
            machine: Some(machine_spec("little", "00aa00aa00aa00aa")),
            ..SnapshotProvenance::default()
        };
        let snapshot = ModelSnapshot::from_model(&model)
            .unwrap()
            .with_provenance(provenance);
        let back = ModelSnapshot::from_json(&snapshot.to_json()).unwrap();
        assert_eq!(back.machine().unwrap().name, "little");
        assert_eq!(back.machine().unwrap().fingerprint, "00aa00aa00aa00aa");
        // Machine provenance is metadata: the model fingerprint ignores it.
        assert_eq!(
            back.fingerprint(),
            ModelSnapshot::from_model(&model).unwrap().fingerprint()
        );
    }

    #[test]
    fn machine_less_provenance_serializes_without_machine_key() {
        // Legacy byte-compat: snapshots that never saw a machine must not
        // grow a `"machine": null` field.
        let model = trained();
        let snapshot = ModelSnapshot::from_model(&model)
            .unwrap()
            .with_provenance(SnapshotProvenance::default());
        assert!(!snapshot.to_json().contains("\"machine\""));
        assert!(snapshot.machine().is_none());
    }

    #[test]
    fn legacy_provenance_json_without_machine_field_loads() {
        let model = trained();
        let snapshot = ModelSnapshot::from_model(&model)
            .unwrap()
            .with_provenance(SnapshotProvenance::default());
        // Simulate a pre-machine snapshot on disk: no `machine` key at all.
        let json = snapshot.to_json();
        let back = ModelSnapshot::from_json(&json).unwrap();
        assert!(back.provenance.as_ref().unwrap().machine.is_none());
        assert!(back.into_model(SnapshotMode::Strict).is_ok());
    }

    /// Like [`trained`] but with one metric's data perturbed and one metric
    /// added, so a delta against [`trained`] has both changed and new
    /// records.
    fn trained_updated() -> SpireModel {
        let mut set = SampleSet::new();
        for m in 0..5 {
            for i in 1..6 {
                let w = if m == 1 {
                    (6 * i) as f64
                } else {
                    (5 * i) as f64
                };
                set.push(
                    Sample::new(format!("metric_{m}").as_str(), 10.0, w, (10 - i) as f64).unwrap(),
                );
            }
        }
        SpireModel::train(&set, TrainConfig::default()).unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = ModelSnapshot::from_model(&trained()).unwrap();
        let b = ModelSnapshot::from_model(&trained()).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().len(), 16);
        // Metadata does not participate in the fingerprint...
        let with_meta = a.clone().with_train_report(TrainReport::default());
        assert_eq!(a.fingerprint(), with_meta.fingerprint());
        // ...but model content does.
        let updated = ModelSnapshot::from_model(&trained_updated()).unwrap();
        assert_ne!(a.fingerprint(), updated.fingerprint());
    }

    #[test]
    fn delta_round_trip_reproduces_updated_snapshot() {
        let base = ModelSnapshot::from_model(&trained()).unwrap();
        let updated = ModelSnapshot::from_model(&trained_updated()).unwrap();
        let delta = SnapshotDelta::between(&base, &updated);
        // metric_1 changed and metric_4 is new; the untouched three are
        // not shipped.
        assert_eq!(delta.changed.len(), 2);
        assert!(delta.removed.is_empty());
        let back = SnapshotDelta::from_json(&delta.to_json()).unwrap();
        let applied = back.apply(&base).unwrap();
        assert_eq!(applied, updated);
        // And the applied snapshot loads into the exact updated model.
        let loaded = applied.into_model(SnapshotMode::Strict).unwrap();
        assert_eq!(loaded.model, trained_updated());
    }

    #[test]
    fn delta_records_removed_metrics() {
        let base = ModelSnapshot::from_model(&trained_updated()).unwrap();
        let updated = ModelSnapshot::from_model(&trained()).unwrap();
        let delta = SnapshotDelta::between(&base, &updated);
        assert_eq!(delta.removed, vec![MetricId::new("metric_4")]);
        assert_eq!(delta.apply(&base).unwrap(), updated);
    }

    #[test]
    fn delta_refuses_wrong_base_and_tampered_result() {
        let base = ModelSnapshot::from_model(&trained()).unwrap();
        let updated = ModelSnapshot::from_model(&trained_updated()).unwrap();
        let delta = SnapshotDelta::between(&base, &updated);

        // Applying to the wrong base is a typed error.
        let err = delta.apply(&updated).unwrap_err();
        assert!(matches!(err, SpireError::SnapshotFormat { .. }));
        assert!(err.to_string().contains("base fingerprint"));

        // A tampered record that still checksums (record-level integrity
        // intact, wrong history) is caught by the result fingerprint.
        let mut tampered = delta.clone();
        tampered.changed.pop();
        let err = tampered.apply(&base).unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn delta_refuses_cross_machine_apply_with_typed_error() {
        let prov_a = SnapshotProvenance {
            machine: Some(machine_spec("skylake-server", "aaaaaaaaaaaaaaaa")),
            ..SnapshotProvenance::default()
        };
        let prov_b = SnapshotProvenance {
            machine: Some(machine_spec("little", "bbbbbbbbbbbbbbbb")),
            ..SnapshotProvenance::default()
        };
        let base = ModelSnapshot::from_model(&trained())
            .unwrap()
            .with_provenance(prov_a.clone());
        let updated = ModelSnapshot::from_model(&trained_updated())
            .unwrap()
            .with_provenance(prov_b);
        let delta = SnapshotDelta::between(&base, &updated);
        let err = delta.apply(&base).unwrap_err();
        match err {
            SpireError::MachineMismatch {
                expected, found, ..
            } => {
                assert!(expected.contains("aaaaaaaaaaaaaaaa"));
                assert!(found.contains("bbbbbbbbbbbbbbbb"));
            }
            other => panic!("expected machine mismatch, got {other:?}"),
        }

        // Same machine on both sides applies cleanly...
        let same = ModelSnapshot::from_model(&trained_updated())
            .unwrap()
            .with_provenance(prov_a.clone());
        let delta = SnapshotDelta::between(&base, &same);
        assert!(delta.apply(&base).is_ok());

        // ...and a machine-less side (legacy) is never a mismatch.
        let legacy_updated = ModelSnapshot::from_model(&trained_updated()).unwrap();
        let delta = SnapshotDelta::between(&base, &legacy_updated);
        assert!(delta.apply(&base).is_ok());
    }

    #[test]
    fn delta_json_is_rejected_by_the_model_loader() {
        // Feeding a delta where a snapshot is expected must fail cleanly,
        // not fall back to the legacy parser.
        let base = ModelSnapshot::from_model(&trained()).unwrap();
        let updated = ModelSnapshot::from_model(&trained_updated()).unwrap();
        let json = SnapshotDelta::between(&base, &updated).to_json();
        assert!(matches!(
            load_model(&json, SnapshotMode::Lenient).unwrap_err(),
            SpireError::SnapshotFormat { .. }
        ));
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("spire_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_estimates_bit_identical_to_in_memory() {
        let model = trained();
        let mut wl = SampleSet::new();
        for i in 1..4 {
            wl.push(Sample::new("metric_0", 10.0, (3 * i) as f64, 2.0).unwrap());
            wl.push(Sample::new("metric_2", 10.0, (4 * i) as f64, 3.0).unwrap());
        }
        let json = ModelSnapshot::from_model(&model).unwrap().to_json();
        let (loaded, _, _) = load_model(&json, SnapshotMode::Strict).unwrap();
        let a = model.estimate(&wl).unwrap();
        let b = loaded.estimate(&wl).unwrap();
        assert_eq!(a.throughput().to_bits(), b.throughput().to_bits());
        assert_eq!(a.per_metric(), b.per_metric());
    }
}
