//! Crash-safe model maintenance: a checksummed write-ahead journal
//! behind the daemon's `update` request.
//!
//! ## Durability contract
//!
//! An `update` is acknowledged only after its journal record is written
//! and fsynced. On restart the daemon replays the journal and must
//! reproduce the pre-crash model **bit-identically** — the same
//! discipline the online trainer already pins against batch retraining
//! (`online_equivalence.rs`), extended across a process boundary. A
//! record the crash tore in half was by definition never acknowledged,
//! so the replay truncates it (typed `wal_truncated` event, Warning)
//! and loses nothing a client was promised. A crash tears only the
//! last frame, so only a frame that runs to the end of the file is a
//! torn tail. Anything else the daemon cannot read — a journal or
//! checkpoint of another format version, a damaged frame with bytes
//! after it, or a record whose checksum holds but whose payload does
//! not decode — is refused with [`ServeError::Unreadable`] and left
//! byte-for-byte as it was.
//!
//! ## On-disk layout (per model, under the configured WAL directory)
//!
//! Samples are stored in the [`colfile`] column layout (`SPIRECOL`
//! header, checksummed 64-byte-aligned `f64` chunks, JSON directory
//! with an opaque `meta` string), so replay decodes them as straight
//! column copies and every sample byte is covered by the colfile's own
//! chunk and directory checksums.
//!
//! - `<name>.base.json` — the anchor [`ModelSnapshot`]: zero metric
//!   records plus the pinned [`TrainConfig`], written durably (like the
//!   checkpoint below) when the model's journal directory is set up.
//!   The maintained model is the online trainer over exactly the
//!   streamed batches (matching a clean batch retrain over them), so the
//!   delta chain starts from the empty model, and the anchor's only jobs
//!   are pinning the training configuration and the first record's
//!   `base_fingerprint`.
//! - `<name>.checkpoint.spirecol` — compaction output ([`WalCheckpoint`]):
//!   a colfile whose one section holds every committed sample, and whose
//!   `meta` is the JSON of the format version, sequence number and model
//!   fingerprint. Written durably before the journal is reset (the
//!   temporary file fsynced, renamed over the checkpoint, the directory
//!   fsynced), so a power loss cannot leave the journal empty behind a
//!   checkpoint that is missing or empty; replay folds it in first and
//!   skips journal records it already covers.
//! - `<name>.wal` — the journal: a 12-byte header (`SPIREWAL` magic +
//!   big-endian u32 [`WAL_VERSION`]) followed by records framed as
//!   `[u32 BE payload len][u64 BE fnv1a64(payload)][payload]`, reusing
//!   the snapshot layer's FNV-1a checksum. Each payload is one colfile
//!   holding one [`WalRecord`]: its only section is the batch, and its
//!   `meta` is the JSON of the sequence number, optional idempotency
//!   key, batch fingerprint and the [`SnapshotDelta`] the commit
//!   produced — every record is chained to its predecessor through the
//!   delta's base/result fingerprints, so replay can *verify* each step
//!   rather than trust it.
//!
//! ## Commit ordering
//!
//! [`UpdateState::apply_update`] trains a **cloned** trainer first (a
//! failed or refused commit leaves no trace), appends + fsyncs the
//! journal record, and only then publishes the new state in memory. A
//! failed append discards the candidate trainer and truncates the
//! journal back to its previous length; if even that fails the state is
//! poisoned and all further updates are refused with a typed error
//! until restart.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use spire_core::colfile;
use spire_core::pipeline::{Event, RunContext};
use spire_core::snapshot::fnv1a64;
use spire_core::{
    MachineSpec, ModelSnapshot, OnlineTrainer, SampleSet, SnapshotDelta, SnapshotMode,
    SnapshotProvenance, SpireModel, TrainConfig, TrainStrictness, UpdateReport,
    SNAPSHOT_FORMAT_VERSION,
};

use crate::ServeError;

/// Journal file magic; the version after it gates format evolution.
pub const WAL_MAGIC: &[u8; 8] = b"SPIREWAL";
/// Journal format version. Version 1 stored each record as JSON;
/// version 2 stores it as a colfile.
pub const WAL_VERSION: u32 = 2;
/// Header length: magic + big-endian version.
pub const WAL_HEADER_LEN: u64 = 12;
/// Per-record frame overhead: u32 length + u64 checksum.
pub const WAL_FRAME_LEN: u64 = 12;
/// Hard cap on one record's payload — a corrupt length prefix must not
/// trigger a giant allocation during replay.
const MAX_RECORD_LEN: usize = 256 << 20;
/// Section label of a record's batch and of a checkpoint's samples.
const SAMPLES_SECTION: &str = "samples";

/// Where and how a daemon journals updates.
#[derive(Debug, Clone)]
pub struct WalSettings {
    /// Directory holding every model's journal, anchor, and checkpoint.
    pub dir: PathBuf,
    /// Compact (checkpoint + journal reset) after this many records.
    pub compact_records: usize,
    /// Idempotency-window size: how many recent keyed commits are
    /// remembered for retry deduplication.
    pub dedup_window: usize,
}

impl WalSettings {
    /// Settings with the default compaction and dedup windows.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalSettings {
            dir: dir.into(),
            compact_records: 64,
            dedup_window: 64,
        }
    }

    /// The journal path for `model`.
    pub fn wal_path(&self, model: &str) -> PathBuf {
        self.dir.join(format!("{model}.wal"))
    }

    /// The anchor-snapshot path for `model`.
    pub fn base_path(&self, model: &str) -> PathBuf {
        self.dir.join(format!("{model}.base.json"))
    }

    /// The checkpoint path for `model`.
    pub fn checkpoint_path(&self, model: &str) -> PathBuf {
        self.dir.join(format!("{model}.checkpoint.spirecol"))
    }

    /// Where journal version 1 kept `model`'s JSON checkpoint; its
    /// presence is refused, never read.
    fn legacy_checkpoint_path(&self, model: &str) -> PathBuf {
        self.dir.join(format!("{model}.checkpoint.json"))
    }
}

/// One journaled update: the batch plus the delta its commit produced,
/// chained to the previous record through the delta's fingerprints.
#[derive(Debug, Clone)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based; 0 is the anchor).
    pub seq: u64,
    /// Caller-supplied idempotency key, when the client sent one.
    pub key: Option<String>,
    /// 16-hex FNV-1a fingerprint of the batch's canonical JSON, the
    /// other half of the idempotency identity.
    pub batch_fingerprint: String,
    /// The committed sample batch, replayed through the online trainer.
    pub batch: SampleSet,
    /// The snapshot delta this commit produced; `base_fingerprint` must
    /// equal the replaying trainer's current fingerprint and
    /// `result_fingerprint` the post-commit one, or replay refuses.
    pub delta: SnapshotDelta,
}

/// A record's fields other than its batch: the `meta` string of the
/// record's colfile.
#[derive(Serialize, Deserialize)]
struct RecordMeta {
    seq: u64,
    key: Option<String>,
    batch_fingerprint: String,
    delta: SnapshotDelta,
}

impl WalRecord {
    /// The record's payload: a colfile whose one section is the batch.
    fn encode(&self) -> Result<Vec<u8>, String> {
        let meta = serde_json::to_string(&RecordMeta {
            seq: self.seq,
            key: self.key.clone(),
            batch_fingerprint: self.batch_fingerprint.clone(),
            delta: self.delta.clone(),
        })
        .map_err(|e| format!("cannot serialize record metadata: {e}"))?;
        Ok(colfile::write_sections(
            [(SAMPLES_SECTION, &self.batch)],
            &meta,
        ))
    }

    /// Decodes a checksum-verified payload. Any failure here is damage
    /// the frame checksum did not see, or another writer's bytes — never
    /// a torn write.
    fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        let (meta, batch) = decode_samples(payload)?;
        let meta: RecordMeta = serde_json::from_str(&meta)
            .map_err(|e| format!("record metadata does not parse: {e}"))?;
        Ok(WalRecord {
            seq: meta.seq,
            key: meta.key,
            batch_fingerprint: meta.batch_fingerprint,
            batch,
            delta: meta.delta,
        })
    }
}

/// Compaction output: everything needed to rebuild the trainer without
/// the records the checkpoint covers.
#[derive(Debug, Clone, Serialize)]
pub struct WalCheckpoint {
    /// Snapshot-format version (shared with the model snapshot layer).
    pub format_version: u32,
    /// Highest journal sequence folded into this checkpoint.
    pub seq: u64,
    /// Fingerprint the rebuilt model must reproduce.
    pub fingerprint: String,
    /// Every sample committed up to `seq`, in commit order.
    pub samples: SampleSet,
}

/// A checkpoint's fields other than its samples: the `meta` string of
/// the checkpoint's colfile.
#[derive(Serialize, Deserialize)]
struct CheckpointMeta {
    format_version: u32,
    seq: u64,
    fingerprint: String,
}

/// The checkpoint file image for `samples` as of `seq`/`fingerprint`,
/// encoded straight from the borrowed set.
fn encode_checkpoint(seq: u64, fingerprint: &str, samples: &SampleSet) -> Result<Vec<u8>, String> {
    let meta = serde_json::to_string(&CheckpointMeta {
        format_version: SNAPSHOT_FORMAT_VERSION,
        seq,
        fingerprint: fingerprint.to_owned(),
    })
    .map_err(|e| format!("cannot serialize checkpoint metadata: {e}"))?;
    Ok(colfile::write_sections([(SAMPLES_SECTION, samples)], &meta))
}

/// Decodes a checkpoint file image.
fn decode_checkpoint(bytes: &[u8]) -> Result<WalCheckpoint, String> {
    let (meta, samples) = decode_samples(bytes)?;
    let meta: CheckpointMeta = serde_json::from_str(&meta)
        .map_err(|e| format!("checkpoint metadata does not parse: {e}"))?;
    if meta.format_version != SNAPSHOT_FORMAT_VERSION {
        return Err(format!(
            "checkpoint format version {} (this build reads {SNAPSHOT_FORMAT_VERSION})",
            meta.format_version
        ));
    }
    Ok(WalCheckpoint {
        format_version: meta.format_version,
        seq: meta.seq,
        fingerprint: meta.fingerprint,
        samples,
    })
}

/// Strictly decodes a colfile that must hold exactly one sample section,
/// returning its `meta` string and that section.
fn decode_samples(bytes: &[u8]) -> Result<(String, SampleSet), String> {
    let contents = colfile::read(bytes, SnapshotMode::Strict).map_err(|e| e.to_string())?;
    let sections = contents.sections.len();
    match <[(String, SampleSet); 1]>::try_from(contents.sections) {
        Ok([(_, samples)]) => Ok((contents.meta, samples)),
        Err(_) => Err(format!("holds {sections} sample sections, expected 1")),
    }
}

/// What the journal scan found on open.
#[derive(Debug)]
pub struct WalScan {
    /// Whole, checksum-verified records in file order.
    pub records: Vec<WalRecord>,
    /// `(valid_records, dropped_bytes)` when a torn tail was cut off.
    pub truncated: Option<(usize, u64)>,
}

/// The append-only journal file for one model.
#[derive(Debug)]
pub struct Wal {
    file: File,
    /// Logical end of valid data (the append position).
    len: u64,
    path: PathBuf,
}

fn io_err(context: &str, e: std::io::Error) -> ServeError {
    ServeError::Protocol(format!("{context}: {e}"))
}

fn unreadable(path: &Path, reason: impl Into<String>) -> ServeError {
    ServeError::Unreadable {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

/// The header every journal of this version starts with.
fn wal_header() -> [u8; WAL_HEADER_LEN as usize] {
    let mut header = [0u8; WAL_HEADER_LEN as usize];
    header[..8].copy_from_slice(WAL_MAGIC);
    header[8..].copy_from_slice(&WAL_VERSION.to_be_bytes());
    header
}

impl Wal {
    /// Opens (or creates) the journal at `path`, scanning every record
    /// and truncating a torn tail back to the last whole record. The
    /// scan result reports what was kept and what was cut.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unreadable`], with the file left untouched, for a
    /// journal of another version, a file that is not a journal, a
    /// damaged frame that does not run to the end of the file, or a
    /// checksum-valid record whose payload does not decode.
    pub fn open(path: &Path) -> Result<(Wal, WalScan), ServeError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(&format!("cannot open journal {}", path.display()), e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err(&format!("cannot read journal {}", path.display()), e))?;

        let header = wal_header();
        let total = bytes.len() as u64;
        if total < WAL_HEADER_LEN && header.starts_with(&bytes) {
            // Empty, or a header whose creation the crash tore: no record
            // can follow it, so (re)writing the header loses nothing. The
            // directory is fsynced too, so a new journal's entry is durable
            // before its first record is acknowledged.
            file.set_len(0)
                .and_then(|()| file.seek(SeekFrom::Start(0)).map(|_| ()))
                .and_then(|()| file.write_all(&header))
                .and_then(|()| file.sync_data())
                .and_then(|()| sync_parent_dir(path))
                .map_err(|e| io_err("cannot initialize journal", e))?;
            let truncated = (total > 0).then_some((0, total));
            let wal = Wal {
                file,
                len: WAL_HEADER_LEN,
                path: path.to_path_buf(),
            };
            let scan = WalScan {
                records: Vec::new(),
                truncated,
            };
            return Ok((wal, scan));
        }
        if !bytes.starts_with(WAL_MAGIC) {
            return Err(unreadable(path, "not a journal (no SPIREWAL magic)"));
        }
        if !bytes.starts_with(&header) {
            let version = match bytes.get(8..12) {
                Some(v) => u32::from_be_bytes(v.try_into().expect("4-byte slice")).to_string(),
                None => "unknown (torn header)".to_owned(),
            };
            return Err(unreadable(
                path,
                format!(
                    "journal format version {version} (this build reads version {WAL_VERSION})"
                ),
            ));
        }

        let mut records = Vec::new();
        let mut pos = WAL_HEADER_LEN as usize;
        while let Some((record, len)) = read_record(&bytes, pos).map_err(|e| unreadable(path, e))? {
            pos += WAL_FRAME_LEN as usize + len;
            records.push(record);
        }
        let valid_end = pos as u64;
        let truncated = if valid_end < total {
            file.set_len(valid_end)
                .and_then(|()| file.sync_data())
                .map_err(|e| io_err("cannot truncate torn journal tail", e))?;
            Some((records.len(), total - valid_end))
        } else {
            None
        };
        Ok((
            Wal {
                file,
                len: valid_end,
                path: path.to_path_buf(),
            },
            WalScan { records, truncated },
        ))
    }

    /// Appends one record and fsyncs. On any failure the journal is
    /// rolled back to its previous length so a half-written frame can
    /// never be mistaken for a commit; a rollback failure is returned
    /// as `Err(Err(_))` and the caller must poison the state.
    #[allow(clippy::result_large_err)]
    pub fn append(&mut self, record: &WalRecord) -> Result<(), Result<ServeError, ServeError>> {
        let payload = record.encode().map_err(|e| Ok(ServeError::Protocol(e)))?;
        let prev = self.len;
        let result = (|| -> std::io::Result<()> {
            let len = u32::try_from(payload.len()).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "record exceeds u32 bytes")
            })?;
            self.file.seek(SeekFrom::Start(prev))?;
            self.file.write_all(&len.to_be_bytes())?;
            self.file.write_all(&fnv1a64(&payload).to_be_bytes())?;
            self.file.write_all(&payload)?;
            self.file.sync_data()
        })();
        match result {
            Ok(()) => {
                self.len = prev + WAL_FRAME_LEN + payload.len() as u64;
                Ok(())
            }
            Err(e) => {
                let rollback = self.file.set_len(prev).and_then(|()| self.file.sync_data());
                let append_err = io_err(
                    &format!("cannot append to journal {}", self.path.display()),
                    e,
                );
                match rollback {
                    Ok(()) => Err(Ok(append_err)),
                    Err(re) => Err(Err(ServeError::Protocol(format!(
                        "{append_err}; rollback also failed ({re}) — journal state unknown"
                    )))),
                }
            }
        }
    }

    /// Discards every record (after a checkpoint covered them).
    pub fn reset(&mut self) -> Result<(), ServeError> {
        self.file
            .set_len(WAL_HEADER_LEN)
            .map_err(|e| io_err("cannot reset journal", e))?;
        // The records are gone whether or not the fsync below succeeds;
        // the next append writes at the header's end either way.
        self.len = WAL_HEADER_LEN;
        self.file
            .sync_data()
            .map_err(|e| io_err("cannot fsync reset journal", e))
    }

    /// Fsyncs the journal (the shutdown drain's last act).
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.file
            .sync_data()
            .map_err(|e| io_err("cannot fsync journal", e))
    }

    /// Current logical length in bytes (tests index kill offsets by it).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN
    }
}

/// Decodes the record starting at `pos`, returning it and its payload
/// length — or `Ok(None)` for the torn tail, where truncation starts: a
/// frame whose header or payload is cut short by the end of the file, or
/// one that declares an oversize length or fails its checksum and runs
/// to the end of the file.
///
/// A crash tears only the last frame, so a damaged frame with bytes after
/// its declared extent is damage inside the journal, and truncating it
/// would silently drop every acknowledged record behind it: it is an
/// error. So is a payload that passes the checksum but does not decode,
/// which no torn write can produce.
fn read_record(bytes: &[u8], pos: usize) -> Result<Option<(WalRecord, usize)>, String> {
    let Some(frame) = bytes.get(pos..pos + WAL_FRAME_LEN as usize) else {
        return Ok(None);
    };
    let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
    let checksum = u64::from_be_bytes([
        frame[4], frame[5], frame[6], frame[7], frame[8], frame[9], frame[10], frame[11],
    ]);
    let start = pos + WAL_FRAME_LEN as usize;
    let end = start + len;
    let damage = if len > MAX_RECORD_LEN {
        format!("declares an oversize payload of {len} bytes")
    } else {
        let Some(payload) = bytes.get(start..end) else {
            return Ok(None);
        };
        if fnv1a64(payload) == checksum {
            let record = WalRecord::decode(payload).map_err(|e| {
                format!("the checksum-valid record at byte {pos} does not decode: {e}")
            })?;
            return Ok(Some((record, len)));
        }
        "fails its checksum".to_owned()
    };
    if end < bytes.len() {
        return Err(format!(
            "the record at byte {pos} {damage}, yet {} bytes follow it: \
             damage inside the journal, not a torn tail",
            bytes.len() - end
        ));
    }
    Ok(None)
}

/// A remembered keyed commit, for retry deduplication.
#[derive(Debug, Clone)]
struct DedupEntry {
    key: String,
    batch_fingerprint: String,
    seq: u64,
    fingerprint: String,
}

/// The acknowledgement an applied (or deduplicated) update earns.
#[derive(Debug, Clone)]
pub struct UpdateAck {
    /// The commit's journal sequence number.
    pub seq: u64,
    /// The model fingerprint after the commit.
    pub fingerprint: String,
    /// `false` when the idempotency window recognized a retry and the
    /// batch was *not* re-applied.
    pub applied: bool,
    /// What the commit recomputed (absent on deduplicated retries).
    pub report: Option<UpdateReport>,
    /// The post-commit model, for the registry to install (absent on
    /// deduplicated retries).
    pub model: Option<SpireModel>,
}

/// Per-model durable update state: the online trainer, its journal, the
/// delta-chain head, and the idempotency window.
#[derive(Debug)]
pub struct UpdateState {
    model_name: String,
    settings: WalSettings,
    trainer: OnlineTrainer,
    /// Snapshot of the trainer's current model — each commit's delta
    /// base, so the journal chain is verifiable link by link.
    head: ModelSnapshot,
    seq: u64,
    wal: Wal,
    dedup: VecDeque<DedupEntry>,
    /// The served model's machine tag: stamped onto every delta-chain
    /// head, so journal records inherit it and replay's `delta.apply`
    /// cross-check re-verifies the machine link by link.
    machine: Option<MachineSpec>,
    records_since_checkpoint: usize,
    /// Set when a failed append could not be rolled back; all further
    /// updates are refused until restart.
    broken: Option<String>,
}

/// A provenance record carrying only a machine tag (the delta chain's
/// heads are rebuilt models, so the tag is the only provenance that
/// survives replay).
fn machine_provenance(machine: Option<&MachineSpec>) -> Option<SnapshotProvenance> {
    machine.map(|m| SnapshotProvenance {
        machine: Some(m.clone()),
        ..SnapshotProvenance::default()
    })
}

/// The empty anchor snapshot: no metric records, pinned config (and the
/// served model's machine tag, when it has one). Its fingerprint (FNV-1a
/// of zero `metric:checksum` lines) anchors the first journal record's
/// delta; the machine tag makes every later delta in the chain carry it,
/// so replay re-verifies the machine per link through
/// [`SnapshotDelta::apply`]'s cross-machine refusal.
fn anchor_snapshot(config: TrainConfig, machine: Option<&MachineSpec>) -> ModelSnapshot {
    ModelSnapshot {
        format_version: SNAPSHOT_FORMAT_VERSION,
        checksum_algorithm: "fnv1a64".to_owned(),
        config,
        skipped_metrics: Vec::new(),
        provenance: machine_provenance(machine),
        train_report: None,
        metrics: Vec::new(),
    }
}

fn snapshot_of(
    model: &SpireModel,
    machine: Option<&MachineSpec>,
) -> Result<ModelSnapshot, ServeError> {
    let snapshot = ModelSnapshot::from_model(model)
        .map_err(|e| ServeError::Protocol(format!("cannot snapshot updated model: {e}")))?;
    Ok(match machine_provenance(machine) {
        Some(provenance) => snapshot.with_provenance(provenance),
        None => snapshot,
    })
}

impl UpdateState {
    /// Opens (or creates) the durable state for `model_name`, replaying
    /// checkpoint + journal. Returns the state and, when any committed
    /// update was recovered, the model that must be installed as the
    /// served entry.
    ///
    /// Replay is verified at every link: the checkpoint's rebuilt model
    /// must reproduce its recorded fingerprint, and each journal record
    /// must chain (`delta.base_fingerprint` equals the current head)
    /// and land (`delta.result_fingerprint` equals the re-committed
    /// trainer's fingerprint, cross-checked against `delta.apply`). Any
    /// mismatch is a typed refusal — never a silent wrong merge.
    pub fn open(
        model_name: &str,
        config: &TrainConfig,
        strictness: TrainStrictness,
        settings: &WalSettings,
        machine: Option<&MachineSpec>,
        ctx: &RunContext,
    ) -> Result<(UpdateState, Option<(SpireModel, String)>), ServeError> {
        std::fs::create_dir_all(&settings.dir).map_err(|e| {
            io_err(
                &format!("cannot create WAL directory {}", settings.dir.display()),
                e,
            )
        })?;
        let legacy_checkpoint = settings.legacy_checkpoint_path(model_name);
        if legacy_checkpoint.exists() {
            return Err(unreadable(
                &legacy_checkpoint,
                format!(
                    "a JSON checkpoint from journal format version 1 (this build reads \
                     version {WAL_VERSION})"
                ),
            ));
        }

        // Anchor: pin the config the whole delta chain trains under.
        let base_path = settings.base_path(model_name);
        let anchor = if base_path.exists() {
            let text = std::fs::read_to_string(&base_path)
                .map_err(|e| io_err(&format!("cannot read {}", base_path.display()), e))?;
            ModelSnapshot::from_json(&text).map_err(|e| {
                ServeError::Protocol(format!("damaged anchor {}: {e}", base_path.display()))
            })?
        } else {
            let anchor = anchor_snapshot(config.clone(), machine);
            write_durable(&base_path, anchor.to_json().as_bytes())
                .map_err(|e| io_err(&format!("cannot write {}", base_path.display()), e))?;
            anchor
        };

        let mut trainer = OnlineTrainer::new(anchor.config.clone(), strictness)
            .map_err(|e| ServeError::Protocol(format!("invalid anchor config: {e}")))?;
        let mut head = anchor;
        let mut seq = 0u64;

        // Checkpoint: fold in compacted history.
        let checkpoint_path = settings.checkpoint_path(model_name);
        // Only a file can be a checkpoint: anything else at the path was
        // never written by a successful compaction.
        if checkpoint_path.is_file() {
            let bytes = std::fs::read(&checkpoint_path)
                .map_err(|e| io_err(&format!("cannot read {}", checkpoint_path.display()), e))?;
            let cp = decode_checkpoint(&bytes).map_err(|e| unreadable(&checkpoint_path, e))?;
            trainer.push_batch(&cp.samples);
            trainer
                .commit()
                .map_err(|e| ServeError::Protocol(format!("checkpoint replay failed: {e}")))?;
            let model = trainer
                .model()
                .ok_or_else(|| ServeError::Protocol("checkpoint produced no model".to_owned()))?;
            let rebuilt = snapshot_of(model, machine)?;
            if rebuilt.fingerprint() != cp.fingerprint {
                return Err(ServeError::Protocol(format!(
                    "checkpoint replay for {model_name} produced fingerprint {}, expected {}",
                    rebuilt.fingerprint(),
                    cp.fingerprint
                )));
            }
            head = rebuilt;
            seq = cp.seq;
        }

        // Journal: truncate the torn tail, then replay the verified chain.
        let (wal, scan) = Wal::open(&settings.wal_path(model_name))?;
        if let Some((valid_records, dropped_bytes)) = scan.truncated {
            ctx.emit(Event::WalTruncated {
                model: model_name.to_owned(),
                valid_records,
                dropped_bytes,
            });
        }
        let mut dedup = VecDeque::new();
        let mut records_since_checkpoint = 0usize;
        for record in &scan.records {
            if record.seq <= seq {
                // Covered by the checkpoint (a crash between checkpoint
                // write and journal reset leaves these behind).
                remember(&mut dedup, record, settings.dedup_window);
                continue;
            }
            records_since_checkpoint += 1;
            if record.seq != seq + 1 {
                return Err(ServeError::Protocol(format!(
                    "journal gap for {model_name}: record seq {} after seq {seq}",
                    record.seq
                )));
            }
            let head_fp = head.fingerprint();
            if record.delta.base_fingerprint != head_fp {
                return Err(ServeError::Protocol(format!(
                    "journal chain broken for {model_name} at seq {}: delta base {} \
                     does not match replayed fingerprint {head_fp}",
                    record.seq, record.delta.base_fingerprint
                )));
            }
            trainer.push_batch(&record.batch);
            trainer.commit().map_err(|e| {
                ServeError::Protocol(format!(
                    "journal replay for {model_name} failed at seq {}: {e}",
                    record.seq
                ))
            })?;
            let model = trainer.model().ok_or_else(|| {
                ServeError::Protocol(format!("replay produced no model at seq {}", record.seq))
            })?;
            let rebuilt = snapshot_of(model, machine)?;
            if rebuilt.fingerprint() != record.delta.result_fingerprint {
                return Err(ServeError::Protocol(format!(
                    "journal replay for {model_name} diverged at seq {}: rebuilt {}, \
                     record says {}",
                    record.seq,
                    rebuilt.fingerprint(),
                    record.delta.result_fingerprint
                )));
            }
            // Cross-check through the delta path too: applying the
            // record's delta to the old head must land on the same model.
            let applied = record.delta.apply(&head).map_err(|e| {
                ServeError::Protocol(format!(
                    "journal delta for {model_name} refuses its own base at seq {}: {e}",
                    record.seq
                ))
            })?;
            if applied.fingerprint() != rebuilt.fingerprint() {
                return Err(ServeError::Protocol(format!(
                    "journal delta for {model_name} disagrees with retrain at seq {}",
                    record.seq
                )));
            }
            head = rebuilt;
            seq = record.seq;
            remember(&mut dedup, record, settings.dedup_window);
        }

        let recovered = if seq > 0 {
            trainer.model().map(|m| (m.clone(), head.fingerprint()))
        } else {
            None
        };
        Ok((
            UpdateState {
                model_name: model_name.to_owned(),
                settings: settings.clone(),
                trainer,
                head,
                seq,
                wal,
                dedup,
                machine: machine.cloned(),
                records_since_checkpoint,
                broken: None,
            },
            recovered,
        ))
    }

    /// The last committed sequence number (0 before the first commit).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The current model fingerprint.
    pub fn fingerprint(&self) -> String {
        self.head.fingerprint()
    }

    /// The maintained model, once at least one update committed.
    pub fn model(&self) -> Option<&SpireModel> {
        self.trainer.model()
    }

    /// Marks the state unusable (e.g. after a panic mid-apply); every
    /// later update is refused with this reason.
    pub fn mark_broken(&mut self, reason: impl Into<String>) {
        if self.broken.is_none() {
            self.broken = Some(reason.into());
        }
    }

    /// Fsyncs the journal (graceful-shutdown drain).
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.wal.sync()
    }

    /// Applies one update batch: dedup check, clone-train-commit,
    /// journal append + fsync, then publish. See the module docs for
    /// the ordering argument.
    pub fn apply_update(
        &mut self,
        samples: &SampleSet,
        samples_json: &str,
        key: Option<&str>,
        ctx: &RunContext,
    ) -> Result<UpdateAck, ServeError> {
        if let Some(reason) = &self.broken {
            return Err(ServeError::Protocol(format!(
                "updates for {} are disabled: {reason}",
                self.model_name
            )));
        }
        let batch_fingerprint = format!("{:016x}", fnv1a64(samples_json.as_bytes()));
        if let Some(key) = key {
            if let Some(hit) = self
                .dedup
                .iter()
                .find(|e| e.key == key && e.batch_fingerprint == batch_fingerprint)
            {
                ctx.emit(Event::UpdateDeduplicated {
                    model: self.model_name.clone(),
                    seq: hit.seq,
                    key: key.to_owned(),
                });
                return Ok(UpdateAck {
                    seq: hit.seq,
                    fingerprint: hit.fingerprint.clone(),
                    applied: false,
                    report: None,
                    model: None,
                });
            }
        }
        if samples.is_empty() {
            return Err(ServeError::Protocol(
                "update requires a non-empty sample batch".to_owned(),
            ));
        }

        // Train a candidate first: a refused commit must leave no trace,
        // in memory or on disk.
        let mut candidate = self.trainer.clone();
        candidate.push_batch(samples);
        let outcome = candidate
            .commit()
            .map_err(|e| ServeError::Protocol(format!("update commit refused: {e}")))?;
        let model = candidate
            .model()
            .ok_or_else(|| ServeError::Protocol("update commit produced no model".to_owned()))?;
        let new_head = snapshot_of(model, self.machine.as_ref())?;
        let new_fingerprint = new_head.fingerprint();
        let old_fingerprint = self.head.fingerprint();
        let seq = self.seq + 1;
        let record = WalRecord {
            seq,
            key: key.map(str::to_owned),
            batch_fingerprint: batch_fingerprint.clone(),
            batch: samples.clone(),
            delta: SnapshotDelta::between(&self.head, &new_head),
        };

        // Durability point: the record is on disk (or nothing is).
        match self.wal.append(&record) {
            Ok(()) => {}
            Err(Ok(e)) => return Err(e),
            Err(Err(e)) => {
                self.broken = Some(e.to_string());
                return Err(e);
            }
        }

        // Publish: plain moves, no fallible step between disk and memory.
        let model = model.clone();
        self.trainer = candidate;
        self.head = new_head;
        self.seq = seq;
        self.records_since_checkpoint += 1;
        if let Some(key) = key {
            self.dedup.push_back(DedupEntry {
                key: key.to_owned(),
                batch_fingerprint,
                seq,
                fingerprint: new_fingerprint.clone(),
            });
            while self.dedup.len() > self.settings.dedup_window.max(1) {
                self.dedup.pop_front();
            }
        }
        ctx.emit(Event::ModelUpdated {
            model: self.model_name.clone(),
            seq,
            old_fingerprint,
            new_fingerprint: new_fingerprint.clone(),
            samples: samples.len(),
        });
        self.maybe_compact(ctx);
        Ok(UpdateAck {
            seq,
            fingerprint: new_fingerprint,
            applied: true,
            report: Some(outcome.update),
            model: Some(model),
        })
    }

    /// Compacts once enough records accumulated: checkpoint written
    /// atomically first, journal reset second — a crash between the two
    /// is safe because replay skips records the checkpoint covers.
    /// `wal_compacted` is emitted only when both steps succeed. A failed
    /// step emits a `note` carrying the error and leaves the record count
    /// standing, so the next commit retries; it never loses data.
    fn maybe_compact(&mut self, ctx: &RunContext) {
        if self.records_since_checkpoint < self.settings.compact_records.max(1) {
            return;
        }
        let path = self.settings.checkpoint_path(&self.model_name);
        let compacted =
            encode_checkpoint(self.seq, &self.head.fingerprint(), self.trainer.samples())
                .and_then(|image| {
                    write_durable(&path, &image)
                        .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))
                })
                .and_then(|()| self.wal.reset().map_err(|e| e.to_string()));
        match compacted {
            Ok(()) => {
                ctx.emit(Event::WalCompacted {
                    model: self.model_name.clone(),
                    seq: self.seq,
                    records: self.records_since_checkpoint,
                });
                self.records_since_checkpoint = 0;
            }
            Err(e) => ctx.note(
                "wal-compact",
                format!(
                    "compaction of {} at seq {} deferred: {e}",
                    self.model_name, self.seq
                ),
            ),
        }
    }
}

/// Replaces `path` with `contents` so that both are on disk before the
/// caller goes on: the bytes go to a temporary file that is fsynced, the
/// file is renamed over `path`, and the directory is fsynced so the
/// rename is too. The compaction checkpoint needs this because the
/// journal records it covers are dropped right after, and the anchor
/// because every acknowledged record chains from its fingerprint.
fn write_durable(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(contents)?;
            file.sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path))
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
    sync_parent_dir(path)
}

/// Fsyncs the directory holding `path`, so that a file created or
/// renamed there survives a power loss.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

fn remember(dedup: &mut VecDeque<DedupEntry>, record: &WalRecord, window: usize) {
    if let Some(key) = &record.key {
        dedup.push_back(DedupEntry {
            key: key.clone(),
            batch_fingerprint: record.batch_fingerprint.clone(),
            seq: record.seq,
            fingerprint: record.delta.result_fingerprint.clone(),
        });
        while dedup.len() > window.max(1) {
            dedup.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spire_core::pipeline::{CollectingSink, PipelineConfig};
    use spire_core::Sample;

    fn ctx() -> RunContext {
        RunContext::new(PipelineConfig::default())
    }

    fn collecting_ctx() -> (RunContext, std::sync::Arc<CollectingSink>) {
        let sink = std::sync::Arc::new(CollectingSink::new());
        (ctx().with_sink(sink.clone()), sink)
    }

    /// How many events of `kind` the sink collected.
    fn kinds(sink: &CollectingSink, kind: &str) -> usize {
        sink.events().iter().filter(|e| e.kind() == kind).count()
    }

    fn open_state(
        settings: &WalSettings,
        ctx: &RunContext,
    ) -> Result<(UpdateState, Option<(SpireModel, String)>), ServeError> {
        UpdateState::open(
            "m",
            &TrainConfig::default(),
            TrainStrictness::Lenient,
            settings,
            None,
            ctx,
        )
    }

    /// Commits `batch(salt, 6)` for each salt, returning the acks'
    /// fingerprints.
    fn commit(
        state: &mut UpdateState,
        salts: std::ops::Range<u64>,
        ctx: &RunContext,
    ) -> Vec<String> {
        salts
            .map(|salt| {
                let b = batch(salt, 6);
                let json = serde_json::to_string(&b).unwrap();
                state
                    .apply_update(&b, &json, None, ctx)
                    .unwrap()
                    .fingerprint
            })
            .collect()
    }

    fn retrain(salts: std::ops::Range<u64>) -> SpireModel {
        let mut merged = SampleSet::new();
        for salt in salts {
            merged.merge(batch(salt, 6));
        }
        SpireModel::train(&merged, TrainConfig::default()).unwrap()
    }

    fn batch(salt: u64, n: usize) -> SampleSet {
        let mut set = SampleSet::new();
        for i in 0..n {
            let x = (salt * 31 + i as u64) as f64;
            set.push(Sample::new("wal.metric", 10.0, 5.0 + x, 1.0 + (x * 7.0) % 13.0).unwrap());
            set.push(Sample::new("wal.other", 10.0, 3.0 + x, 2.0 + (x * 3.0) % 11.0).unwrap());
        }
        set
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "spire-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn journal_round_trips_and_survives_reopen() {
        let dir = temp_dir("roundtrip");
        let settings = WalSettings::new(&dir);
        let config = TrainConfig::default();
        let ctx = ctx();
        let mut fingerprints = Vec::new();
        {
            let (mut state, recovered) = UpdateState::open(
                "m",
                &config,
                TrainStrictness::Lenient,
                &settings,
                None,
                &ctx,
            )
            .unwrap();
            assert!(recovered.is_none());
            for salt in 0..4 {
                let b = batch(salt, 6);
                let json = serde_json::to_string(&b).unwrap();
                let ack = state.apply_update(&b, &json, None, &ctx).unwrap();
                assert!(ack.applied);
                assert_eq!(ack.seq, salt + 1);
                fingerprints.push(ack.fingerprint);
            }
        }
        // Reopen: replay must land on the last acknowledged fingerprint
        // and equal a clean batch retrain over all four batches.
        let (state, recovered) = UpdateState::open(
            "m",
            &config,
            TrainStrictness::Lenient,
            &settings,
            None,
            &ctx,
        )
        .unwrap();
        let (model, fp) = recovered.expect("recovered model");
        assert_eq!(state.seq(), 4);
        assert_eq!(fp, *fingerprints.last().unwrap());
        let mut merged = SampleSet::new();
        for salt in 0..4 {
            merged.merge(batch(salt, 6));
        }
        let retrained = SpireModel::train(&merged, config.clone()).unwrap();
        assert_eq!(
            model, retrained,
            "recovery must equal a clean batch retrain"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_recovers() {
        let dir = temp_dir("torn");
        let settings = WalSettings::new(&dir);
        let config = TrainConfig::default();
        let ctx = ctx();
        let wal_path = settings.wal_path("m");
        {
            let (mut state, _) = UpdateState::open(
                "m",
                &config,
                TrainStrictness::Lenient,
                &settings,
                None,
                &ctx,
            )
            .unwrap();
            for salt in 0..3 {
                let b = batch(salt, 6);
                let json = serde_json::to_string(&b).unwrap();
                state.apply_update(&b, &json, None, &ctx).unwrap();
            }
        }
        // Tear the last record in half.
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 40]).unwrap();
        let (ctx, sink) = collecting_ctx();
        let (state, recovered) = UpdateState::open(
            "m",
            &config,
            TrainStrictness::Lenient,
            &settings,
            None,
            &ctx,
        )
        .unwrap();
        assert_eq!(state.seq(), 2, "the torn third record must be dropped");
        assert_eq!(kinds(&sink, "wal_truncated"), 1);
        assert!(std::fs::metadata(&wal_path).unwrap().len() < bytes.len() as u64 - 40);
        let (model, _) = recovered.unwrap();
        let mut merged = SampleSet::new();
        merged.merge(batch(0, 6));
        merged.merge(batch(1, 6));
        assert_eq!(model, SpireModel::train(&merged, config.clone()).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keyed_retry_is_applied_at_most_once() {
        let dir = temp_dir("dedup");
        let settings = WalSettings::new(&dir);
        let config = TrainConfig::default();
        let ctx = ctx();
        let (mut state, _) = UpdateState::open(
            "m",
            &config,
            TrainStrictness::Lenient,
            &settings,
            None,
            &ctx,
        )
        .unwrap();
        let b = batch(0, 6);
        let json = serde_json::to_string(&b).unwrap();
        let first = state.apply_update(&b, &json, Some("k1"), &ctx).unwrap();
        assert!(first.applied);
        let retry = state.apply_update(&b, &json, Some("k1"), &ctx).unwrap();
        assert!(!retry.applied, "retried key must not re-apply");
        assert_eq!(retry.seq, first.seq);
        assert_eq!(retry.fingerprint, first.fingerprint);
        // Same key, different batch: a distinct update, not a retry.
        let b2 = batch(9, 6);
        let json2 = serde_json::to_string(&b2).unwrap();
        let other = state.apply_update(&b2, &json2, Some("k1"), &ctx).unwrap();
        assert!(other.applied);
        assert_eq!(other.seq, first.seq + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_checkpoints_and_recovery_still_matches_retrain() {
        let dir = temp_dir("compact");
        let mut settings = WalSettings::new(&dir);
        settings.compact_records = 2;
        let config = TrainConfig::default();
        let ctx = ctx();
        let mut last_fp = String::new();
        {
            let (mut state, _) = UpdateState::open(
                "m",
                &config,
                TrainStrictness::Lenient,
                &settings,
                None,
                &ctx,
            )
            .unwrap();
            for salt in 0..5 {
                let b = batch(salt, 6);
                let json = serde_json::to_string(&b).unwrap();
                last_fp = state
                    .apply_update(&b, &json, None, &ctx)
                    .unwrap()
                    .fingerprint;
            }
        }
        assert!(
            settings.checkpoint_path("m").exists(),
            "compaction must have written a checkpoint"
        );
        let (state, recovered) = UpdateState::open(
            "m",
            &config,
            TrainStrictness::Lenient,
            &settings,
            None,
            &ctx,
        )
        .unwrap();
        assert_eq!(state.seq(), 5);
        let (model, fp) = recovered.unwrap();
        assert_eq!(fp, last_fp);
        let mut merged = SampleSet::new();
        for salt in 0..5 {
            merged.merge(batch(salt, 6));
        }
        assert_eq!(model, SpireModel::train(&merged, config.clone()).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn machine(name: &str, fp: &str) -> MachineSpec {
        MachineSpec {
            name: name.to_owned(),
            fingerprint: fp.to_owned(),
            peaks: spire_core::MachinePeaks {
                throughput: 4.0,
                bandwidth: std::collections::BTreeMap::new(),
            },
            normalized: false,
        }
    }

    #[test]
    fn machine_tag_threads_through_journal_and_refuses_cross_machine_replay() {
        let dir = temp_dir("machine");
        let settings = WalSettings::new(&dir);
        let config = TrainConfig::default();
        let ctx = ctx();
        let m = machine("skylake-server", "aaaaaaaaaaaaaaaa");
        {
            let (mut state, _) = UpdateState::open(
                "m",
                &config,
                TrainStrictness::Lenient,
                &settings,
                Some(&m),
                &ctx,
            )
            .unwrap();
            for salt in 0..3 {
                let b = batch(salt, 6);
                let json = serde_json::to_string(&b).unwrap();
                state.apply_update(&b, &json, None, &ctx).unwrap();
            }
        }
        // The anchor on disk carries the machine tag.
        let anchor_text = std::fs::read_to_string(settings.base_path("m")).unwrap();
        let anchor = ModelSnapshot::from_json(&anchor_text).unwrap();
        assert_eq!(anchor.machine().unwrap().name, "skylake-server");
        // Same machine replays cleanly.
        let (state, recovered) = UpdateState::open(
            "m",
            &config,
            TrainStrictness::Lenient,
            &settings,
            Some(&m),
            &ctx,
        )
        .unwrap();
        assert_eq!(state.seq(), 3);
        assert!(recovered.is_some());
        // A different machine is refused at the first chained link — the
        // journal deltas carry the original tag and `delta.apply` refuses
        // a cross-machine base during replay.
        let other = machine("little", "bbbbbbbbbbbbbbbb");
        let err = UpdateState::open(
            "m",
            &config,
            TrainStrictness::Lenient,
            &settings,
            Some(&other),
            &ctx,
        )
        .unwrap_err();
        assert!(err.to_string().contains("machine mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batch_and_broken_state_are_refused() {
        let dir = temp_dir("refuse");
        let settings = WalSettings::new(&dir);
        let config = TrainConfig::default();
        let ctx = ctx();
        let (mut state, _) = UpdateState::open(
            "m",
            &config,
            TrainStrictness::Lenient,
            &settings,
            None,
            &ctx,
        )
        .unwrap();
        let empty = SampleSet::new();
        let json = serde_json::to_string(&empty).unwrap();
        assert!(state.apply_update(&empty, &json, None, &ctx).is_err());
        state.mark_broken("test poison");
        let b = batch(0, 6);
        let json = serde_json::to_string(&b).unwrap();
        let err = state.apply_update(&b, &json, None, &ctx).unwrap_err();
        assert!(err.to_string().contains("test poison"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_journal_and_checkpoint_are_refused_untouched() {
        let dir = temp_dir("v1");
        let settings = WalSettings::new(&dir);
        let ctx = ctx();
        let wal_path = settings.wal_path("m");
        // A version-1 journal: the old header and one JSON record frame.
        let payload = br#"{"seq":1,"key":null,"batch_fingerprint":"00"}"#;
        let mut v1 = WAL_MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_be_bytes());
        v1.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        v1.extend_from_slice(&fnv1a64(payload).to_be_bytes());
        v1.extend_from_slice(payload);
        // Whole, torn after its header, and reset by a compaction.
        for journal in [&v1[..], &v1[..20], &v1[..WAL_HEADER_LEN as usize]] {
            std::fs::write(&wal_path, journal).unwrap();
            let err = open_state(&settings, &ctx).unwrap_err();
            assert!(
                matches!(&err, ServeError::Unreadable { path, .. } if *path == wal_path),
                "{err}"
            );
            assert!(err.to_string().contains("version 1"), "{err}");
            assert_eq!(std::fs::read(&wal_path).unwrap(), journal);
        }

        // A file that is not a journal at all is refused too.
        std::fs::write(&wal_path, b"not a journal, but someone's bytes").unwrap();
        let err = open_state(&settings, &ctx).unwrap_err();
        assert!(err.to_string().contains("not a journal"), "{err}");
        assert_eq!(
            std::fs::read(&wal_path).unwrap(),
            b"not a journal, but someone's bytes"
        );

        // A version-1 JSON checkpoint is named before the journal is read.
        let legacy = settings.legacy_checkpoint_path("m");
        std::fs::write(&legacy, r#"{"format_version":1,"seq":4}"#).unwrap();
        let err = open_state(&settings, &ctx).unwrap_err();
        assert!(
            matches!(&err, ServeError::Unreadable { path, .. } if *path == legacy),
            "{err}"
        );
        assert_eq!(
            std::fs::read_to_string(&legacy).unwrap(),
            r#"{"format_version":1,"seq":4}"#
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_valid_record_that_does_not_decode_is_refused_not_truncated() {
        let dir = temp_dir("reframed");
        let settings = WalSettings::new(&dir);
        let ctx = ctx();
        {
            let (mut state, _) = open_state(&settings, &ctx).unwrap();
            commit(&mut state, 0..3, &ctx);
        }
        let wal_path = settings.wal_path("m");
        let mut bytes = std::fs::read(&wal_path).unwrap();
        // Edit the second record's colfile magic, then recompute its
        // frame checksum: no torn write can look like this.
        let first_len = u32::from_be_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let second = 12 + 12 + first_len;
        let len = u32::from_be_bytes(bytes[second..second + 4].try_into().unwrap()) as usize;
        let payload = second + 12..second + 12 + len;
        bytes[payload.start] = b'X';
        let checksum = fnv1a64(&bytes[payload]);
        bytes[second + 4..second + 12].copy_from_slice(&checksum.to_be_bytes());
        std::fs::write(&wal_path, &bytes).unwrap();

        let (ctx, sink) = collecting_ctx();
        let err = open_state(&settings, &ctx).unwrap_err();
        assert!(
            matches!(&err, ServeError::Unreadable { path, .. } if *path == wal_path),
            "{err}"
        );
        assert!(err.to_string().contains("does not decode"), "{err}");
        assert_eq!(kinds(&sink, "wal_truncated"), 0);
        assert_eq!(
            std::fs::read(&wal_path).unwrap(),
            bytes,
            "journal was modified"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_record_before_whole_records_is_refused_not_truncated() {
        let dir = temp_dir("mid-damage");
        let settings = WalSettings::new(&dir);
        let ctx = ctx();
        {
            let (mut state, _) = open_state(&settings, &ctx).unwrap();
            commit(&mut state, 0..3, &ctx);
        }
        let wal_path = settings.wal_path("m");
        let mut bytes = std::fs::read(&wal_path).unwrap();
        // Flip one payload byte of the second of three records.
        let first_len = u32::from_be_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let second = 12 + 12 + first_len;
        bytes[second + 12 + 40] ^= 0x01;
        std::fs::write(&wal_path, &bytes).unwrap();

        let (ctx, sink) = collecting_ctx();
        let err = open_state(&settings, &ctx).unwrap_err();
        assert!(
            matches!(&err, ServeError::Unreadable { path, .. } if *path == wal_path),
            "{err}"
        );
        assert!(err.to_string().contains("fails its checksum"), "{err}");
        assert_eq!(kinds(&sink, "wal_truncated"), 0);
        assert_eq!(
            std::fs::read(&wal_path).unwrap(),
            bytes,
            "journal was modified"
        );

        // The same damage in the last record is a torn tail.
        {
            let mut last = bytes.clone();
            last[second + 12 + 40] ^= 0x01;
            let second_len =
                u32::from_be_bytes(last[second..second + 4].try_into().unwrap()) as usize;
            let third = second + 12 + second_len;
            last[third + 12 + 40] ^= 0x01;
            std::fs::write(&wal_path, &last).unwrap();
        }
        let (ctx, sink) = collecting_ctx();
        let (state, _) = open_state(&settings, &ctx).unwrap();
        assert_eq!(state.seq(), 2);
        assert_eq!(kinds(&sink, "wal_truncated"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_compaction_reports_a_note_and_keeps_the_journal() {
        let dir = temp_dir("compact-fail");
        let mut settings = WalSettings::new(&dir);
        settings.compact_records = 2;
        // Occupy the checkpoint path so the atomic rename must fail.
        std::fs::create_dir_all(settings.checkpoint_path("m")).unwrap();
        let (ctx, sink) = collecting_ctx();
        let fingerprints = {
            let (mut state, _) = open_state(&settings, &ctx).unwrap();
            commit(&mut state, 0..3, &ctx)
        };
        assert_eq!(kinds(&sink, "wal_compacted"), 0);
        let notes: Vec<String> = sink
            .events()
            .iter()
            .filter(|e| e.kind() == "note")
            .map(Event::render)
            .collect();
        assert_eq!(notes.len(), 2, "records 2 and 3 each try: {notes:?}");
        assert!(notes.iter().all(|n| n.contains("deferred")), "{notes:?}");

        // Every record is still in the journal, and recovery is exact.
        let (_, scan) = Wal::open(&settings.wal_path("m")).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(scan.truncated.is_none());
        let (state, recovered) = open_state(&settings, &ctx).unwrap();
        assert_eq!(state.seq(), 3);
        let (model, fp) = recovered.unwrap();
        assert_eq!(fp, fingerprints[2]);
        assert_eq!(model, retrain(0..3));
        drop(state);

        // Once the path is free, the next commit compacts all four.
        std::fs::remove_dir(settings.checkpoint_path("m")).unwrap();
        let (ctx, sink) = collecting_ctx();
        let (mut state, _) = open_state(&settings, &ctx).unwrap();
        let last = commit(&mut state, 3..4, &ctx);
        assert!(sink.events().iter().any(|e| matches!(
            e,
            Event::WalCompacted {
                seq: 4,
                records: 4,
                ..
            }
        )));
        drop(state);
        let (state, recovered) = open_state(&settings, &ctx).unwrap();
        assert_eq!(state.seq(), 4);
        assert_eq!(recovered.unwrap().1, last[0]);
        assert_eq!(state.model().unwrap(), &retrain(0..4));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
