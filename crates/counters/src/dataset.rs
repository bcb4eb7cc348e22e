//! Labeled sample datasets: persistence for training/testing corpora.
//!
//! A [`Dataset`] maps workload labels to their [`SampleSet`]s and
//! round-trips through JSON, so collected corpora (simulated or imported
//! from perf) can be reused across runs and shipped with experiments.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};
use spire_core::colfile::{self, ColFileReport, ColFileWriter};
use spire_core::{MachineSpec, SampleSet, SnapshotMode, SnapshotProvenance};

use crate::ingest::IngestReport;

/// A labeled collection of sample sets.
///
/// ```
/// use spire_core::{Sample, SampleSet};
/// use spire_counters::Dataset;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut dataset = Dataset::new();
/// let mut set = SampleSet::new();
/// set.push(Sample::new("stalls", 100.0, 150.0, 10.0)?);
/// dataset.insert("workload-a", set);
///
/// let json = dataset.to_json()?;
/// let back = Dataset::from_json(&json)?;
/// assert_eq!(back.get("workload-a").unwrap().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Deserialize)]
pub struct Dataset {
    entries: BTreeMap<String, SampleSet>,
    /// Per-label ingest provenance, for entries that came through the
    /// fault-tolerant perf ingest. `Option` so datasets persisted before
    /// this field existed still deserialize (absent → `None`).
    reports: Option<BTreeMap<String, IngestReport>>,
    /// The machine the samples were collected on, when known. `Option`
    /// for the same legacy reason as `reports`: datasets persisted before
    /// machines existed deserialize with `None`, and absence is never
    /// treated as a mismatch.
    machine: Option<MachineSpec>,
}

/// Hand-written so machine-less datasets serialize without a `machine`
/// key at all, keeping pre-machine dataset JSON byte-identical. (The
/// vendored derive has no `skip_serializing_if`.)
impl Serialize for Dataset {
    fn serialize<S: serde::ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::{to_content, Content};
        let key = |k: &str| Content::Str(k.to_owned());
        let mut fields = vec![
            (key("entries"), to_content(&self.entries)),
            (key("reports"), to_content(&self.reports)),
        ];
        if let Some(machine) = &self.machine {
            fields.push((key("machine"), to_content(machine)));
        }
        serializer.serialize_content(Content::Map(fields))
    }
}

/// The `.spirecol` directory metadata once a machine tag is present: a
/// marker field (always serialized first) distinguishes this wrapper from
/// the legacy meta, which was the bare ingest-report map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ColMeta {
    /// Wrapper version marker; `1` for this layout. Doubles as the
    /// sniffing key: legacy metas can never start with this field.
    spirecol_meta: u32,
    machine: Option<MachineSpec>,
    reports: Option<BTreeMap<String, IngestReport>>,
}

/// The sniff prefix for the wrapped metadata layout. The writer emits
/// compact JSON with `spirecol_meta` as the first field, so this prefix
/// match is exact, and a legacy meta (an ingest-report map or `null`)
/// can never begin with it.
const COL_META_PREFIX: &str = "{\"spirecol_meta\"";

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Inserts (or replaces) a labeled sample set.
    pub fn insert(&mut self, label: impl Into<String>, samples: SampleSet) {
        let label = label.into();
        if let Some(reports) = &mut self.reports {
            reports.remove(&label);
        }
        self.entries.insert(label, samples);
    }

    /// Inserts a labeled sample set together with the [`IngestReport`]
    /// that produced it, preserving the capture's provenance (multiplex
    /// coverage, quarantines, degradation) alongside the data.
    pub fn insert_with_report(
        &mut self,
        label: impl Into<String>,
        samples: SampleSet,
        report: IngestReport,
    ) {
        let label = label.into();
        self.reports
            .get_or_insert_with(BTreeMap::new)
            .insert(label.clone(), report);
        self.entries.insert(label, samples);
    }

    /// Looks up a sample set by label.
    pub fn get(&self, label: &str) -> Option<&SampleSet> {
        self.entries.get(label)
    }

    /// The machine the samples were collected on, when recorded.
    pub fn machine(&self) -> Option<&MachineSpec> {
        self.machine.as_ref()
    }

    /// Records (or clears) the machine the samples came from.
    pub fn set_machine(&mut self, machine: Option<MachineSpec>) {
        self.machine = machine;
    }

    /// Looks up the ingest provenance recorded for a label, if any.
    pub fn report(&self, label: &str) -> Option<&IngestReport> {
        self.reports.as_ref()?.get(label)
    }

    /// Iterates `(label, report)` pairs for every entry with provenance.
    pub fn reports(&self) -> impl Iterator<Item = (&str, &IngestReport)> {
        self.reports
            .iter()
            .flat_map(|m| m.iter().map(|(k, v)| (k.as_str(), v)))
    }

    /// Iterates `(label, samples)` pairs in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SampleSet)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Labels in order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Number of labeled entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the dataset has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of samples across all entries.
    pub fn total_samples(&self) -> usize {
        self.entries.values().map(SampleSet::len).sum()
    }

    /// Merges every entry, in label order, into one combined sample set
    /// (the shape [`spire_core::SpireModel::train`] consumes).
    ///
    /// Each entry's columns move into the result ([`SampleSet::merge`]),
    /// so no row is copied one by one and a one-label dataset is just its
    /// set. Rows keep their order within each metric: label order, then
    /// each entry's own row order.
    pub fn merged(self) -> SampleSet {
        let mut all = SampleSet::new();
        for set in self.entries.into_values() {
            all.merge(set);
        }
        all
    }

    /// Builds training-data provenance for a model snapshot: the labels,
    /// total sample count, and per-label ingest summaries of this dataset.
    ///
    /// `source` is the path or description the dataset was loaded from.
    pub fn provenance(&self, source: Option<&str>) -> SnapshotProvenance {
        SnapshotProvenance {
            source: source.map(str::to_owned),
            labels: self.labels().map(str::to_owned).collect(),
            total_samples: self.total_samples(),
            ingest_summaries: self
                .reports()
                .map(|(label, report)| (label.to_owned(), report.summary()))
                .collect(),
            machine: self.machine.clone(),
        }
    }

    /// Serializes to pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`serde_json::Error`] if serialization fails (it cannot
    /// for this type, but the signature is honest).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`serde_json::Error`] for malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Writes the dataset to `path` as JSON, atomically: a crash
    /// mid-write leaves the destination with either its old bytes or the
    /// complete new ones, never a truncated dataset.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = self.to_json().map_err(io::Error::other)?;
        spire_core::write_atomic(path.as_ref(), &json)
    }

    /// Encodes the dataset as a binary column-file image
    /// ([`spire_core::colfile`]): each labeled entry becomes one section,
    /// and the per-label ingest reports ride in the directory's metadata
    /// blob — so capture provenance survives the format change.
    pub fn to_colfile_bytes(&self) -> Vec<u8> {
        let mut writer = ColFileWriter::new();
        // Machine-less datasets keep the legacy meta layout (the bare
        // report map) so their binary images stay byte-identical; a
        // machine tag upgrades the meta to the marked wrapper.
        let meta = if self.machine.is_some() {
            serde_json::to_string(&ColMeta {
                spirecol_meta: 1,
                machine: self.machine.clone(),
                reports: self.reports.clone(),
            })
            .expect("column-file metadata serializes")
        } else {
            serde_json::to_string(&self.reports).expect("ingest reports serialize")
        };
        writer.set_meta(meta);
        for (label, set) in self.iter() {
            writer.add_section(label, set);
        }
        writer.finish()
    }

    /// Decodes a dataset from a binary column-file image.
    ///
    /// # Errors
    ///
    /// Container-level damage is fatal in both modes; a damaged data
    /// chunk is refused under [`SnapshotMode::Strict`] and quarantined
    /// into the returned [`ColFileReport`] under
    /// [`SnapshotMode::Lenient`] — see [`spire_core::colfile::read`].
    pub fn from_colfile_bytes(
        bytes: &[u8],
        mode: SnapshotMode,
    ) -> Result<(Self, ColFileReport), spire_core::SpireError> {
        let contents = colfile::read(bytes, mode)?;
        let meta_error = |e: serde_json::Error| spire_core::SpireError::SnapshotFormat {
            reason: format!("column-file metadata does not parse: {e}"),
        };
        let (machine, reports) = if contents.meta.is_empty() {
            (None, None)
        } else if contents.meta.starts_with(COL_META_PREFIX) {
            let meta: ColMeta = serde_json::from_str(&contents.meta).map_err(meta_error)?;
            (meta.machine, meta.reports)
        } else {
            (
                None,
                serde_json::from_str(&contents.meta).map_err(meta_error)?,
            )
        };
        let dataset = Dataset {
            entries: contents.sections.into_iter().collect(),
            reports,
            machine,
        };
        Ok((dataset, contents.report))
    }

    /// Writes the dataset to `path` in the binary column format,
    /// atomically (temp file + rename, like [`Dataset::save`]).
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] on filesystem failure.
    pub fn save_binary(&self, path: impl AsRef<Path>) -> io::Result<()> {
        spire_core::write_atomic_bytes(path.as_ref(), &self.to_colfile_bytes())
    }

    /// Reads a dataset from `path`, sniffing the format: files starting
    /// with the `SPIRECOL` magic decode as binary column files
    /// (strictly — any integrity failure refuses the load), everything
    /// else parses as JSON. This is the single format-dispatch point;
    /// every loader goes through it (or [`Dataset::load_with_mode`] for
    /// lenient salvage).
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] on filesystem failure, malformed JSON, or
    /// a binary integrity failure.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Dataset::load_with_mode(path, SnapshotMode::Strict).map(|(dataset, _)| dataset)
    }

    /// [`Dataset::load`] with an explicit integrity mode for binary
    /// inputs, returning the chunk report (`None` for JSON files, which
    /// carry no chunk integrity information).
    ///
    /// Under [`SnapshotMode::Lenient`], damaged chunks are quarantined
    /// into the report and the surviving rows are returned; under
    /// [`SnapshotMode::Strict`] any damage refuses the load. JSON parsing
    /// is unaffected by the mode.
    ///
    /// # Errors
    ///
    /// As [`Dataset::load`], except lenient binary loads tolerate chunk
    /// damage.
    pub fn load_with_mode(
        path: impl AsRef<Path>,
        mode: SnapshotMode,
    ) -> io::Result<(Self, Option<ColFileReport>)> {
        let bytes = fs::read(path)?;
        if colfile::is_colfile(&bytes) {
            let (dataset, report) =
                Dataset::from_colfile_bytes(&bytes, mode).map_err(io::Error::other)?;
            return Ok((dataset, Some(report)));
        }
        let text = String::from_utf8(bytes)
            .map_err(|e| io::Error::other(format!("dataset is neither binary nor UTF-8: {e}")))?;
        Ok((Dataset::from_json(&text).map_err(io::Error::other)?, None))
    }
}

impl FromIterator<(String, SampleSet)> for Dataset {
    fn from_iter<I: IntoIterator<Item = (String, SampleSet)>>(iter: I) -> Self {
        Dataset {
            entries: iter.into_iter().collect(),
            reports: None,
            machine: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spire_core::Sample;

    fn set(n: usize) -> SampleSet {
        (0..n)
            .map(|i| Sample::new("m", 1.0, i as f64, 1.0).unwrap())
            .collect()
    }

    #[test]
    fn insert_get_len() {
        let mut d = Dataset::new();
        assert!(d.is_empty());
        d.insert("a", set(3));
        d.insert("b", set(2));
        assert_eq!(d.len(), 2);
        assert_eq!(d.total_samples(), 5);
        assert_eq!(d.get("a").unwrap().len(), 3);
        assert!(d.get("c").is_none());
    }

    #[test]
    fn merged_concatenates_everything() {
        let mut d = Dataset::new();
        d.insert("a", set(3));
        d.insert("b", set(4));
        let mut c = set(2);
        c.push(Sample::new("a_first", 2.0, 1.0, 1.0).unwrap());
        d.insert("c", c);
        // Row by row, in label order: the order training relies on.
        let rows: SampleSet = d.iter().flat_map(|(_, s)| s.iter()).collect();
        let merged = d.merged();
        assert_eq!(merged.len(), 10);
        assert_eq!(merged, rows);
    }

    #[test]
    fn json_round_trip() {
        let mut d = Dataset::new();
        d.insert("a", set(2));
        let back = Dataset::from_json(&d.to_json().unwrap()).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn save_and_load_round_trip() {
        let mut d = Dataset::new();
        d.insert("x", set(1));
        let dir = std::env::temp_dir().join("spire-dataset-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        d.save(&path).unwrap();
        let back = Dataset::load(&path).unwrap();
        assert_eq!(d, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(Dataset::load("/nonexistent/path/ds.json").is_err());
    }

    #[test]
    fn reports_persist_with_their_entries() {
        let text = "\
1.0,1000,,inst_retired.any,1000000,100.00,,
1.0,500,,cpu_clk_unhalted.thread,1000000,100.00,,
1.0,120,,evt.a,250000,25.00,,
garbage line
";
        let out = crate::ingest_perf_csv(text, &crate::IngestConfig::default());
        let mut d = Dataset::new();
        d.insert_with_report("capture", out.samples, out.report);
        d.insert("plain", set(1));
        assert_eq!(d.report("capture").unwrap().rows_quarantined, 1);
        assert!(d.report("plain").is_none());
        let back = Dataset::from_json(&d.to_json().unwrap()).unwrap();
        assert_eq!(d, back);
        assert_eq!(back.report("capture").unwrap().rows_scaled, 1);
        assert_eq!(back.reports().count(), 1);
    }

    #[test]
    fn plain_insert_clears_stale_provenance() {
        let out = crate::ingest_perf_csv("", &crate::IngestConfig::default());
        let mut d = Dataset::new();
        d.insert_with_report("x", out.samples, out.report);
        assert!(d.report("x").is_some());
        d.insert("x", set(1));
        assert!(d.report("x").is_none());
    }

    #[test]
    fn datasets_without_reports_field_still_load() {
        // JSON persisted before provenance existed has no `reports` key.
        let legacy = r#"{"entries": {}}"#;
        let d = Dataset::from_json(legacy).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.reports().count(), 0);
    }

    #[test]
    fn provenance_carries_labels_counts_and_ingest_summaries() {
        let text = "\
1.0,1000,,inst_retired.any,1000000,100.00,,
1.0,500,,cpu_clk_unhalted.thread,1000000,100.00,,
1.0,120,,evt.a,250000,25.00,,
";
        let out = crate::ingest_perf_csv(text, &crate::IngestConfig::default());
        let mut d = Dataset::new();
        d.insert_with_report("capture", out.samples, out.report);
        d.insert("plain", set(2));
        let prov = d.provenance(Some("corpus.json"));
        assert_eq!(prov.source.as_deref(), Some("corpus.json"));
        assert_eq!(prov.labels, ["capture", "plain"]);
        assert_eq!(prov.total_samples, d.total_samples());
        assert_eq!(prov.ingest_summaries.len(), 1);
        assert!(prov.ingest_summaries["capture"].contains("rows"));
    }

    #[test]
    fn binary_round_trip_is_json_byte_identical() {
        let text = "\
1.0,1000,,inst_retired.any,1000000,100.00,,
1.0,500,,cpu_clk_unhalted.thread,1000000,100.00,,
1.0,120,,evt.a,250000,25.00,,
garbage line
";
        let out = crate::ingest_perf_csv(text, &crate::IngestConfig::default());
        let mut d = Dataset::new();
        d.insert_with_report("capture", out.samples, out.report);
        d.insert("plain", set(5));

        let bytes = d.to_colfile_bytes();
        assert!(spire_core::colfile::is_colfile(&bytes));
        let (back, report) = Dataset::from_colfile_bytes(&bytes, SnapshotMode::Strict).unwrap();
        assert!(report.is_clean());
        assert_eq!(d, back);
        // JSON -> binary -> JSON is byte-identical, ingest report included.
        assert_eq!(d.to_json().unwrap(), back.to_json().unwrap());
        assert_eq!(back.report("capture").unwrap().rows_quarantined, 1);

        // A dataset with no provenance stays `reports: None` (not an
        // empty map) so its JSON also round-trips byte-identically.
        let mut plain = Dataset::new();
        plain.insert("x", set(2));
        let (back, _) =
            Dataset::from_colfile_bytes(&plain.to_colfile_bytes(), SnapshotMode::Strict).unwrap();
        assert_eq!(plain.to_json().unwrap(), back.to_json().unwrap());
    }

    #[test]
    fn load_sniffs_binary_and_json() {
        let mut d = Dataset::new();
        d.insert("a", set(4));
        let dir = std::env::temp_dir().join(format!("spire-ds-sniff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("ds.json");
        let bin_path = dir.join("ds.spirecol");
        d.save(&json_path).unwrap();
        d.save_binary(&bin_path).unwrap();
        assert_eq!(Dataset::load(&json_path).unwrap(), d);
        assert_eq!(Dataset::load(&bin_path).unwrap(), d);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_binary_refused_strict_salvaged_lenient() {
        let mut d = Dataset::new();
        d.insert("a", set(64));
        let mut bytes = d.to_colfile_bytes();
        bytes[80] ^= 0x10; // inside the first data chunk
        assert!(Dataset::from_colfile_bytes(&bytes, SnapshotMode::Strict).is_err());
        let (salvaged, report) =
            Dataset::from_colfile_bytes(&bytes, SnapshotMode::Lenient).unwrap();
        assert_eq!(report.quarantined.len(), 1);
        assert!(salvaged.total_samples() < d.total_samples());

        let dir = std::env::temp_dir().join(format!("spire-ds-damage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.spirecol");
        std::fs::write(&path, &bytes).unwrap();
        assert!(Dataset::load(&path).is_err(), "strict default must refuse");
        let (_, report) = Dataset::load_with_mode(&path, SnapshotMode::Lenient).unwrap();
        assert_eq!(report.unwrap().quarantined.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn machine_spec() -> MachineSpec {
        MachineSpec {
            name: "little".to_owned(),
            fingerprint: "00aa00aa00aa00aa".to_owned(),
            peaks: spire_core::MachinePeaks {
                throughput: 2.0,
                bandwidth: [("dram".to_owned(), 0.0125)].into_iter().collect(),
            },
            normalized: false,
        }
    }

    #[test]
    fn machine_survives_json_and_binary_round_trips() {
        let mut d = Dataset::new();
        d.insert("a", set(3));
        d.set_machine(Some(machine_spec()));

        let json_back = Dataset::from_json(&d.to_json().unwrap()).unwrap();
        assert_eq!(json_back.machine().unwrap().name, "little");
        assert_eq!(json_back, d);

        let (bin_back, report) =
            Dataset::from_colfile_bytes(&d.to_colfile_bytes(), SnapshotMode::Strict).unwrap();
        assert!(report.is_clean());
        assert_eq!(bin_back, d);
        assert_eq!(bin_back.machine().unwrap().fingerprint, "00aa00aa00aa00aa");
        // JSON -> binary -> JSON stays byte-identical with a machine too.
        assert_eq!(d.to_json().unwrap(), bin_back.to_json().unwrap());
    }

    #[test]
    fn machine_less_dataset_keeps_legacy_bytes() {
        let mut d = Dataset::new();
        d.insert("a", set(2));
        // No `machine` key in JSON...
        assert!(!d.to_json().unwrap().contains("\"machine\""));
        // ...and the binary meta keeps the legacy (unwrapped) layout.
        let mut with_machine = d.clone();
        with_machine.set_machine(Some(machine_spec()));
        let legacy_bytes = d.to_colfile_bytes();
        assert_ne!(legacy_bytes, with_machine.to_colfile_bytes());
        let (back, _) = Dataset::from_colfile_bytes(&legacy_bytes, SnapshotMode::Strict).unwrap();
        assert!(back.machine().is_none());
        assert_eq!(back, d);
    }

    #[test]
    fn machine_rides_alongside_ingest_reports_in_colfile_meta() {
        let text = "\
1.0,1000,,inst_retired.any,1000000,100.00,,
1.0,500,,cpu_clk_unhalted.thread,1000000,100.00,,
garbage line
";
        let out = crate::ingest_perf_csv(text, &crate::IngestConfig::default());
        let mut d = Dataset::new();
        d.insert_with_report("capture", out.samples, out.report);
        d.set_machine(Some(machine_spec()));
        let (back, _) =
            Dataset::from_colfile_bytes(&d.to_colfile_bytes(), SnapshotMode::Strict).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.machine().unwrap().name, "little");
        assert_eq!(back.report("capture").unwrap().rows_quarantined, 1);
    }

    #[test]
    fn provenance_carries_the_machine() {
        let mut d = Dataset::new();
        d.insert("a", set(1));
        assert!(d.provenance(None).machine.is_none());
        d.set_machine(Some(machine_spec()));
        let prov = d.provenance(Some("ds.json"));
        assert_eq!(prov.machine.as_ref().unwrap().name, "little");
    }

    #[test]
    fn labels_are_sorted() {
        let mut d = Dataset::new();
        d.insert("zeta", set(1));
        d.insert("alpha", set(1));
        let labels: Vec<&str> = d.labels().collect();
        assert_eq!(labels, ["alpha", "zeta"]);
    }
}
