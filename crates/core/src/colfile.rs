//! Checksummed, chunked binary column-file layout for sample datasets.
//!
//! The paper-scale dataset (1.3M samples x 424 metrics) spends far more
//! time in JSON parsing than in fitting; this module stores the columnar
//! [`SampleSet`] layout directly on disk so a load is straight `f64`
//! column copies with no per-value parsing.
//!
//! # On-disk layout
//!
//! ```text
//! +--------------------------------------------------------------+
//! | header (64 bytes, fixed)                                     |
//! |   0..8   magic  "SPIRECOL"                                   |
//! |   8..12  format version (u32 LE)                             |
//! |  12..16  endianness marker 0x01020304 (u32 LE)               |
//! |  16..24  directory offset (u64 LE)                           |
//! |  24..32  directory length (u64 LE)                           |
//! |  32..40  total file length (u64 LE)                          |
//! |  40..48  FNV-1a 64 checksum of the directory bytes (u64 LE)  |
//! |  48..56  FNV-1a 64 checksum of header bytes 0..48 (u64 LE)   |
//! |  56..64  reserved (zero)                                     |
//! +--------------------------------------------------------------+
//! | data chunks, each 64-byte aligned                            |
//! |   chunk = time[rows] ++ pad64 ++ work[rows] ++ pad64         |
//! |           ++ metric_delta[rows] ++ pad64   (f64 LE each)     |
//! +--------------------------------------------------------------+
//! | directory (JSON): sections -> columns -> chunk table         |
//! |   each chunk entry: rows, byte offset, FNV-1a 64 checksum    |
//! |   plus an opaque `meta` string for the embedding layer       |
//! +--------------------------------------------------------------+
//! ```
//!
//! Values are always written little-endian; the endianness marker lets a
//! foreign-order reader detect the mismatch and refuse rather than decode
//! garbage. Each chunk start — and, via the per-array zero padding, each
//! of the three arrays inside it — is aligned to [`CHUNK_ALIGN`] bytes so
//! a memory-mapped reader could view each array as `&[f64]` in place.
//!
//! # Integrity taxonomy
//!
//! The same salvage-or-refuse rules as model snapshots
//! ([`crate::snapshot`]): damage to the header or directory is fatal in
//! both modes (there is nothing to salvage without the map), while a
//! checksum mismatch in a data chunk quarantines just that chunk's rows
//! under [`SnapshotMode::Lenient`] and refuses the whole file with
//! [`SpireError::ColumnChunkCorrupt`] under [`SnapshotMode::Strict`]. A
//! damaged chunk is therefore always quarantined or refused — never
//! silently decoded into wrong columns.

use serde::{Deserialize, Serialize};

use crate::error::{Result, SpireError};
use crate::sample::{MetricColumn, MetricId, SampleSet};
use crate::snapshot::{fnv1a64, SnapshotMode};

/// The 8-byte magic every column file starts with.
pub const COLFILE_MAGIC: [u8; 8] = *b"SPIRECOL";

/// Current format version written by [`ColFileWriter`].
pub const COLFILE_FORMAT_VERSION: u32 = 1;

/// Alignment (bytes) of every chunk and of each array within a chunk.
pub const CHUNK_ALIGN: usize = 64;

/// Default number of rows per chunk (~96 KiB of payload per chunk).
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// Marker value distinguishing byte orders: written little-endian, so a
/// big-endian reader sees `0x04030201` and refuses.
const ENDIAN_MARK: u32 = 0x0102_0304;

const HEADER_LEN: usize = 64;

/// Rounds `n` up to the next multiple of [`CHUNK_ALIGN`].
fn pad64(n: usize) -> usize {
    n.div_ceil(CHUNK_ALIGN) * CHUNK_ALIGN
}

fn format_err(reason: impl Into<String>) -> SpireError {
    SpireError::SnapshotFormat {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------------
// Directory
// ---------------------------------------------------------------------------

/// One chunk of one column: a contiguous row range with its own checksum.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ChunkEntry {
    /// Rows stored in this chunk.
    rows: u64,
    /// Absolute byte offset of the chunk start (64-byte aligned).
    offset: u64,
    /// FNV-1a 64 checksum of the full padded chunk span, lowercase hex.
    checksum: String,
}

/// The chunk table for one metric's column.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ColumnEntry {
    metric: String,
    rows: u64,
    chunks: Vec<ChunkEntry>,
}

/// One labeled dataset section (a workload label's [`SampleSet`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SectionEntry {
    label: String,
    columns: Vec<ColumnEntry>,
}

/// The JSON directory stored at the end of the file. Parsing it is
/// negligible next to the per-value `f64` parsing the format eliminates.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Directory {
    sections: Vec<SectionEntry>,
    /// Opaque metadata for the embedding layer (the counters crate stores
    /// its per-label ingest reports here); preserved verbatim.
    meta: String,
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

struct Header {
    dir_offset: usize,
    dir_len: usize,
    total_len: usize,
    dir_checksum: u64,
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte slice"))
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// Parses and integrity-checks the fixed header. All failures are
/// container-level ([`SpireError::SnapshotFormat`]): without a trusted
/// header there is nothing to salvage.
fn parse_header(bytes: &[u8]) -> Result<Header> {
    if bytes.len() < HEADER_LEN {
        return Err(format_err(format!(
            "column file is {} bytes, shorter than the {HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    if bytes[..8] != COLFILE_MAGIC {
        return Err(format_err("missing SPIRECOL magic"));
    }
    let version = read_u32(bytes, 8);
    if version != COLFILE_FORMAT_VERSION {
        return Err(format_err(format!(
            "unsupported column-file format version {version} \
             (this build reads version {COLFILE_FORMAT_VERSION})"
        )));
    }
    let endian = read_u32(bytes, 12);
    if endian != ENDIAN_MARK {
        return Err(format_err(format!(
            "endianness marker is {endian:#010x}, expected {ENDIAN_MARK:#010x}; \
             the file was written on a foreign-byte-order machine"
        )));
    }
    let stored = read_u64(bytes, 48);
    let actual = fnv1a64(&bytes[..48]);
    if stored != actual {
        return Err(format_err(format!(
            "header checksum mismatch (stored {stored:016x}, computed {actual:016x})"
        )));
    }
    let header = Header {
        dir_offset: read_u64(bytes, 16) as usize,
        dir_len: read_u64(bytes, 24) as usize,
        total_len: read_u64(bytes, 32) as usize,
        dir_checksum: read_u64(bytes, 40),
    };
    if header.total_len != bytes.len() {
        return Err(format_err(format!(
            "file is {} bytes but the header records {} — truncated or padded",
            bytes.len(),
            header.total_len
        )));
    }
    let dir_end = header.dir_offset.checked_add(header.dir_len);
    if header.dir_offset < HEADER_LEN || dir_end.is_none_or(|end| end > bytes.len()) {
        return Err(format_err("directory range is out of bounds"));
    }
    Ok(header)
}

/// Parses and integrity-checks the directory named by a trusted header.
fn parse_directory(bytes: &[u8], header: &Header) -> Result<Directory> {
    let dir_bytes = &bytes[header.dir_offset..header.dir_offset + header.dir_len];
    let actual = fnv1a64(dir_bytes);
    if actual != header.dir_checksum {
        return Err(format_err(format!(
            "directory checksum mismatch (stored {:016x}, computed {actual:016x})",
            header.dir_checksum
        )));
    }
    let text = std::str::from_utf8(dir_bytes)
        .map_err(|e| format_err(format!("directory is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| format_err(format!("directory does not parse: {e}")))
}

/// Returns `true` if `bytes` begin with the column-file magic — the sniff
/// [`crate::snapshot`]-style loaders use to dispatch between JSON and
/// binary inputs.
pub fn is_colfile(bytes: &[u8]) -> bool {
    bytes.len() >= COLFILE_MAGIC.len() && bytes[..COLFILE_MAGIC.len()] == COLFILE_MAGIC
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming writer: add labeled sections, then [`ColFileWriter::finish`]
/// into the complete file image.
pub struct ColFileWriter {
    buf: Vec<u8>,
    sections: Vec<SectionEntry>,
    meta: String,
    chunk_rows: usize,
}

impl Default for ColFileWriter {
    fn default() -> Self {
        ColFileWriter::new()
    }
}

impl ColFileWriter {
    /// A writer with the default chunk size ([`DEFAULT_CHUNK_ROWS`]).
    pub fn new() -> Self {
        ColFileWriter::with_chunk_rows(DEFAULT_CHUNK_ROWS)
    }

    /// A writer splitting columns into chunks of at most `chunk_rows` rows
    /// (clamped to at least 1). Smaller chunks localize corruption at the
    /// cost of directory size; tests use tiny chunks to exercise the
    /// quarantine paths.
    pub fn with_chunk_rows(chunk_rows: usize) -> Self {
        ColFileWriter {
            buf: vec![0u8; HEADER_LEN],
            sections: Vec::new(),
            meta: String::new(),
            chunk_rows: chunk_rows.max(1),
        }
    }

    /// Sets the opaque metadata string preserved in the directory.
    pub fn set_meta(&mut self, meta: impl Into<String>) {
        self.meta = meta.into();
    }

    /// Appends one labeled section holding `set`'s columns.
    pub fn add_section(&mut self, label: &str, set: &SampleSet) {
        let mut columns = Vec::with_capacity(set.columns().len());
        for column in set.columns() {
            columns.push(self.add_column(column));
        }
        self.sections.push(SectionEntry {
            label: label.to_owned(),
            columns,
        });
    }

    fn add_column(&mut self, column: &MetricColumn) -> ColumnEntry {
        let rows = column.len();
        let mut chunks = Vec::with_capacity(rows.div_ceil(self.chunk_rows.max(1)));
        let mut start = 0usize;
        while start < rows {
            let end = rows.min(start + self.chunk_rows);
            chunks.push(self.add_chunk(
                &column.times()[start..end],
                &column.works()[start..end],
                &column.metric_deltas()[start..end],
            ));
            start = end;
        }
        ColumnEntry {
            metric: column.metric().to_string(),
            rows: rows as u64,
            chunks,
        }
    }

    fn add_chunk(&mut self, time: &[f64], work: &[f64], delta: &[f64]) -> ChunkEntry {
        // Align the chunk start, then write each array padded to the
        // alignment so every array start inside the chunk is aligned too.
        self.buf.resize(pad64(self.buf.len()), 0);
        let offset = self.buf.len();
        for array in [time, work, delta] {
            for &v in array {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
            self.buf.resize(pad64(self.buf.len()), 0);
        }
        let checksum = fnv1a64(&self.buf[offset..]);
        ChunkEntry {
            rows: time.len() as u64,
            offset: offset as u64,
            checksum: format!("{checksum:016x}"),
        }
    }

    /// Serializes the directory, fills in the header, and returns the
    /// complete file image.
    pub fn finish(mut self) -> Vec<u8> {
        let directory = Directory {
            sections: std::mem::take(&mut self.sections),
            meta: std::mem::take(&mut self.meta),
        };
        let dir_bytes = serde_json::to_string(&directory)
            .expect("directory serializes")
            .into_bytes();
        let dir_offset = self.buf.len();
        let dir_checksum = fnv1a64(&dir_bytes);
        self.buf.extend_from_slice(&dir_bytes);
        let total_len = self.buf.len();

        let header = &mut self.buf[..HEADER_LEN];
        header[..8].copy_from_slice(&COLFILE_MAGIC);
        header[8..12].copy_from_slice(&COLFILE_FORMAT_VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&ENDIAN_MARK.to_le_bytes());
        header[16..24].copy_from_slice(&(dir_offset as u64).to_le_bytes());
        header[24..32].copy_from_slice(&(dir_bytes.len() as u64).to_le_bytes());
        header[32..40].copy_from_slice(&(total_len as u64).to_le_bytes());
        header[40..48].copy_from_slice(&dir_checksum.to_le_bytes());
        let head_checksum = fnv1a64(&header[..48]);
        header[48..56].copy_from_slice(&head_checksum.to_le_bytes());
        self.buf
    }
}

/// Encodes labeled sample sets (and an opaque metadata string) into a
/// complete column-file image with default chunking.
pub fn write_sections<'a>(
    sections: impl IntoIterator<Item = (&'a str, &'a SampleSet)>,
    meta: &str,
) -> Vec<u8> {
    let mut writer = ColFileWriter::new();
    writer.set_meta(meta);
    for (label, set) in sections {
        writer.add_section(label, set);
    }
    writer.finish()
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One data chunk dropped by a lenient load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantinedChunk {
    /// Section (workload label) the chunk belonged to.
    pub label: String,
    /// Metric whose column lost rows.
    pub metric: String,
    /// Index of the chunk within its column's chunk table.
    pub chunk: usize,
    /// Rows the chunk stored (all dropped).
    pub rows: u64,
    /// Why the chunk was rejected.
    pub reason: String,
}

/// Integrity outcome of a column-file load — the formats's analogue of the
/// snapshot load report, so ingest provenance survives the format change.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ColFileReport {
    /// Chunks the directory described.
    pub chunks_total: usize,
    /// Rows the directory described.
    pub rows_total: u64,
    /// Rows dropped with their chunks (lenient mode only; strict loads
    /// refuse instead).
    pub rows_dropped: u64,
    /// Every quarantined chunk, in directory order.
    pub quarantined: Vec<QuarantinedChunk>,
}

impl ColFileReport {
    /// `true` if every chunk verified and decoded.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// A fully decoded column file: labeled sample sets in stored order, the
/// opaque metadata string, and the integrity report.
#[derive(Debug, Clone)]
pub struct ColFileContents {
    /// Labeled sections in stored order.
    pub sections: Vec<(String, SampleSet)>,
    /// The opaque metadata string the writer stored.
    pub meta: String,
    /// Chunk integrity outcome.
    pub report: ColFileReport,
}

/// Decodes a column-file image.
///
/// # Errors
///
/// [`SpireError::SnapshotFormat`] for container-level damage (bad magic,
/// version, endianness, header or directory checksum, truncation) in both
/// modes; [`SpireError::ColumnChunkCorrupt`] for the first damaged data
/// chunk under [`SnapshotMode::Strict`]. Lenient loads quarantine damaged
/// chunks into the report instead.
pub fn read(bytes: &[u8], mode: SnapshotMode) -> Result<ColFileContents> {
    let header = parse_header(bytes)?;
    let directory = parse_directory(bytes, &header)?;
    let mut report = ColFileReport::default();
    let mut sections = Vec::with_capacity(directory.sections.len());
    for section in &directory.sections {
        let mut columns = Vec::with_capacity(section.columns.len());
        for entry in &section.columns {
            if let Some(column) = decode_column(bytes, section, entry, mode, &mut report)? {
                columns.push(column);
            }
        }
        let set = SampleSet::from_columns(columns).map_err(|e| {
            format_err(format!(
                "directory for section `{}` is invalid: {e}",
                section.label
            ))
        })?;
        sections.push((section.label.clone(), set));
    }
    Ok(ColFileContents {
        sections,
        meta: directory.meta,
        report,
    })
}

/// Decodes one column, quarantining or refusing damaged chunks per `mode`.
/// Returns `None` when every chunk of a non-empty column was quarantined —
/// an empty remnant column would change the set's structure, so it is
/// dropped entirely (and fully accounted in the report).
fn decode_column(
    bytes: &[u8],
    section: &SectionEntry,
    entry: &ColumnEntry,
    mode: SnapshotMode,
    report: &mut ColFileReport,
) -> Result<Option<MetricColumn>> {
    let rows = entry.rows as usize;
    let mut time = Vec::with_capacity(rows);
    let mut work = Vec::with_capacity(rows);
    let mut delta = Vec::with_capacity(rows);
    let mut dropped_any = false;
    for (index, chunk) in entry.chunks.iter().enumerate() {
        report.chunks_total += 1;
        report.rows_total += chunk.rows;
        match verify_chunk(bytes, chunk) {
            Ok(spans) => {
                decode_f64s(&mut time, spans[0]);
                decode_f64s(&mut work, spans[1]);
                decode_f64s(&mut delta, spans[2]);
            }
            Err(reason) => {
                if mode == SnapshotMode::Strict {
                    return Err(SpireError::ColumnChunkCorrupt {
                        label: section.label.clone(),
                        metric: entry.metric.clone(),
                        chunk: index,
                        reason,
                    });
                }
                dropped_any = true;
                report.rows_dropped += chunk.rows;
                report.quarantined.push(QuarantinedChunk {
                    label: section.label.clone(),
                    metric: entry.metric.clone(),
                    chunk: index,
                    rows: chunk.rows,
                    reason,
                });
            }
        }
    }
    if dropped_any && time.is_empty() && rows > 0 {
        return Ok(None);
    }
    let column = MetricColumn::from_raw_columns(MetricId::new(&entry.metric), time, work, delta)
        .expect("decoded arrays share the chunk row counts");
    Ok(Some(column))
}

/// Bounds- and checksum-checks one chunk, returning the three array byte
/// spans on success or the refusal reason on failure.
fn verify_chunk<'a>(
    bytes: &'a [u8],
    chunk: &ChunkEntry,
) -> std::result::Result<[&'a [u8]; 3], String> {
    let rows = chunk.rows as usize;
    let offset = chunk.offset as usize;
    let array_span = pad64(rows * 8);
    let len = array_span * 3;
    let end = offset.checked_add(len).filter(|&e| e <= bytes.len());
    let Some(end) = end else {
        return Err(format!(
            "chunk range {offset}..{} is out of bounds (file is {} bytes)",
            offset.saturating_add(len),
            bytes.len()
        ));
    };
    if !offset.is_multiple_of(CHUNK_ALIGN) {
        return Err(format!(
            "chunk offset {offset} is not {CHUNK_ALIGN}-byte aligned"
        ));
    }
    let span = &bytes[offset..end];
    let actual = format!("{:016x}", fnv1a64(span));
    if actual != chunk.checksum {
        return Err(format!(
            "checksum mismatch (stored {}, computed {actual})",
            chunk.checksum
        ));
    }
    Ok([
        &span[..rows * 8],
        &span[array_span..array_span + rows * 8],
        &span[2 * array_span..2 * array_span + rows * 8],
    ])
}

/// Decodes a little-endian `f64` byte span into `dst`. `chunks_exact` +
/// `from_le_bytes` compiles to a straight copy on little-endian targets.
fn decode_f64s(dst: &mut Vec<f64>, bytes: &[u8]) {
    dst.extend(
        bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sample;

    fn sample_set(seed: u64, rows: usize) -> SampleSet {
        let mut set = SampleSet::new();
        for i in 0..rows {
            let v = (seed + i as u64) as f64;
            set.push(Sample::new("cycles", 1.0 + v, 2.0 * v + 1.0, 0.5 + v).unwrap());
            set.push(Sample::new("stalls", 2.0 + v, v + 3.0, 1.0 + v).unwrap());
        }
        set
    }

    #[test]
    fn round_trips_sections_meta_and_exact_bits() {
        let a = sample_set(1, 100);
        let b = sample_set(7, 33);
        let image = write_sections([("wl_a", &a), ("wl_b", &b)], "meta-blob");
        assert!(is_colfile(&image));
        let contents = read(&image, SnapshotMode::Strict).unwrap();
        assert_eq!(contents.meta, "meta-blob");
        assert!(contents.report.is_clean());
        assert_eq!(contents.sections.len(), 2);
        assert_eq!(contents.sections[0].0, "wl_a");
        assert_eq!(contents.sections[0].1, a);
        assert_eq!(contents.sections[1].1, b);
        // Bit-level check beyond PartialEq: NaN-tolerant exactness.
        let col = contents.sections[0].1.column(&"cycles".into()).unwrap();
        let orig = a.column(&"cycles".into()).unwrap();
        for (x, y) in col.times().iter().zip(orig.times()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn round_trips_hostile_values_exactly() {
        let mut set = SampleSet::new();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e-308] {
            set.push_unchecked("weird".into(), v, v, v);
        }
        let image = write_sections([("w", &set)], "");
        let contents = read(&image, SnapshotMode::Strict).unwrap();
        let col = contents.sections[0].1.column(&"weird".into()).unwrap();
        let orig = set.column(&"weird".into()).unwrap();
        for (x, y) in col.times().iter().zip(orig.times()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn chunk_corruption_refused_strict_quarantined_lenient() {
        let set = sample_set(3, 64);
        let mut writer = ColFileWriter::with_chunk_rows(16);
        writer.add_section("w", &set);
        let mut image = writer.finish();
        // Flip one byte inside the first chunk's payload (past the header).
        image[HEADER_LEN + 3] ^= 0x40;
        let err = read(&image, SnapshotMode::Strict).unwrap_err();
        assert!(
            matches!(err, SpireError::ColumnChunkCorrupt { .. }),
            "{err}"
        );
        let contents = read(&image, SnapshotMode::Lenient).unwrap();
        assert_eq!(contents.report.quarantined.len(), 1);
        assert_eq!(contents.report.rows_dropped, 16);
        let col = contents.sections[0].1.column(&"cycles".into()).unwrap();
        assert_eq!(col.len(), 48);
        // The surviving rows are the later chunks, bit-exact.
        let orig = set.column(&"cycles".into()).unwrap();
        assert_eq!(col.times(), &orig.times()[16..]);
    }

    #[test]
    fn header_and_directory_damage_is_fatal_in_both_modes() {
        let set = sample_set(5, 8);
        let image = write_sections([("w", &set)], "");
        for at in [0usize, 9, 50, image.len() - 4] {
            let mut bad = image.clone();
            bad[at] ^= 0xff;
            for mode in [SnapshotMode::Strict, SnapshotMode::Lenient] {
                let err = read(&bad, mode).unwrap_err();
                assert!(
                    matches!(err, SpireError::SnapshotFormat { .. }),
                    "at {at}: {err}"
                );
            }
        }
        // Truncation too.
        let cut = &image[..image.len() - 7];
        assert!(read(cut, SnapshotMode::Lenient).is_err());
    }

    #[test]
    fn empty_sets_and_empty_files_round_trip() {
        let empty = SampleSet::new();
        let image = write_sections([("w", &empty)], "m");
        let contents = read(&image, SnapshotMode::Strict).unwrap();
        assert!(contents.sections[0].1.is_empty());
        let none = write_sections(std::iter::empty::<(&str, &SampleSet)>(), "");
        assert!(read(&none, SnapshotMode::Strict)
            .unwrap()
            .sections
            .is_empty());
        assert!(!is_colfile(b"{\"not\": \"binary\"}"));
    }
}
