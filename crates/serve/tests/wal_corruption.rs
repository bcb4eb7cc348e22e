//! Corruption suite for the journal and the compaction checkpoint: drives
//! the [`spire_core::fault`] corruptors over pristine journal records
//! and checkpoints, in the style of the counters crate's
//! `colfile_corruption.rs`.
//!
//! Every damaged input must end in exactly one of two outcomes:
//! - a typed refusal ([`ServeError::Unreadable`] for bytes that cannot be
//!   read, [`ServeError::Protocol`] for a chain that does not verify),
//!   with the refused file left byte-for-byte as it was; or
//! - a recovery whose fingerprint and model equal a clean retrain over a
//!   prefix of the acknowledged batches (a torn tail truncated, or damage
//!   the formats provably ignore).
//!
//! Never a panic, and never a recovered model that no acknowledged
//! prefix produces.

use std::path::{Path, PathBuf};

use spire_core::colfile;
use spire_core::fault::{flip_byte, flip_digit, truncate_bytes, FaultRng};
use spire_core::pipeline::{PipelineConfig, RunContext};
use spire_core::snapshot::fnv1a64;
use spire_core::{
    ModelSnapshot, Sample, SampleSet, SnapshotMode, SpireModel, TrainConfig, TrainStrictness,
};
use spire_serve::wal::{UpdateState, WalSettings, WAL_FRAME_LEN, WAL_HEADER_LEN};
use spire_serve::ServeError;

const BATCHES: u64 = 3;

fn ctx() -> RunContext {
    RunContext::new(PipelineConfig::default())
}

/// A small two-metric batch, so each record and replay stays cheap.
fn batch(salt: u64) -> SampleSet {
    let mut set = SampleSet::new();
    for i in 0..3u64 {
        let x = (salt * 13 + i * 5 + 1) as f64;
        set.push(Sample::new("hostile.a", 10.0, x, 1.0 + (x * 7.0) % 11.0).unwrap());
        set.push(Sample::new("hostile.b", 10.0, x + 2.0, 2.0 + (x * 3.0) % 7.0).unwrap());
    }
    set
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spire-wal-corruption-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn open(settings: &WalSettings) -> Result<(UpdateState, Option<(SpireModel, String)>), ServeError> {
    UpdateState::open(
        "m",
        &TrainConfig::default(),
        TrainStrictness::Lenient,
        settings,
        None,
        &ctx(),
    )
}

/// A pristine durable state: `BATCHES` acknowledged commits under
/// `compact_records`. Holds the fingerprint after each acknowledged
/// prefix (index 0 is the empty anchor) and the clean retrain of each.
struct Fixture {
    dir: PathBuf,
    settings: WalSettings,
    fingerprints: Vec<String>,
    models: Vec<Option<SpireModel>>,
}

impl Fixture {
    fn new(tag: &str, compact_records: usize) -> Fixture {
        let dir = temp_dir(tag);
        let mut settings = WalSettings::new(dir.join("src"));
        settings.compact_records = compact_records;
        let (mut state, _) = open(&settings).unwrap();
        let mut fingerprints = vec![state.fingerprint()];
        let mut models = vec![None];
        let mut merged = SampleSet::new();
        for salt in 0..BATCHES {
            let b = batch(salt);
            let json = serde_json::to_string(&b).unwrap();
            let ack = state.apply_update(&b, &json, Some("k"), &ctx()).unwrap();
            merged.merge(b);
            let retrained = SpireModel::train(&merged, TrainConfig::default()).unwrap();
            assert_eq!(
                ModelSnapshot::from_model(&retrained).unwrap().fingerprint(),
                ack.fingerprint
            );
            fingerprints.push(ack.fingerprint);
            models.push(Some(retrained));
        }
        Fixture {
            dir,
            settings,
            fingerprints,
            models,
        }
    }

    fn wal(&self) -> Vec<u8> {
        std::fs::read(self.settings.wal_path("m")).unwrap()
    }

    fn checkpoint(&self) -> Vec<u8> {
        std::fs::read(self.settings.checkpoint_path("m")).unwrap()
    }

    /// A fresh copy of the pristine state with the journal and the
    /// checkpoint (when there is one) replaced by the given bytes.
    fn damaged(&self, wal: &[u8], checkpoint: Option<&[u8]>) -> WalSettings {
        let mut settings = self.settings.clone();
        settings.dir = self.dir.join("replay");
        let _ = std::fs::remove_dir_all(&settings.dir);
        std::fs::create_dir_all(&settings.dir).unwrap();
        std::fs::copy(self.settings.base_path("m"), settings.base_path("m")).unwrap();
        std::fs::write(settings.wal_path("m"), wal).unwrap();
        if let Some(bytes) = checkpoint {
            std::fs::write(settings.checkpoint_path("m"), bytes).unwrap();
        }
        settings
    }

    /// The acknowledged prefix a recovery landed on, checked bit for bit
    /// against the clean retrain of that prefix.
    fn assert_acked_prefix(&self, state: &UpdateState, model: Option<&SpireModel>, what: &str) {
        let k = self
            .fingerprints
            .iter()
            .position(|fp| *fp == state.fingerprint())
            .unwrap_or_else(|| panic!("{what}: recovered a fingerprint no acked prefix has"));
        assert_eq!(
            model,
            self.models[k].as_ref(),
            "{what}: recovered model differs from the retrain of prefix {k}"
        );
    }

    /// Opens `settings` and checks the outcome contract. Returns the
    /// recovered state, or `None` after a typed refusal whose files are
    /// untouched.
    fn check(&self, settings: &WalSettings, what: &str) -> Option<UpdateState> {
        let before = snapshot_files(&settings.dir);
        match open(settings) {
            Ok((state, recovered)) => {
                let model = recovered.as_ref().map(|(m, _)| m);
                self.assert_acked_prefix(&state, model, what);
                Some(state)
            }
            Err(ServeError::Unreadable { path, .. }) => {
                assert!(
                    path.starts_with(&settings.dir),
                    "{what}: refusal names {path:?}"
                );
                assert_eq!(
                    snapshot_files(&settings.dir),
                    before,
                    "{what}: refused file changed"
                );
                None
            }
            Err(ServeError::Protocol(reason)) => {
                assert_eq!(snapshot_files(&settings.dir), before, "{what}: {reason}");
                None
            }
            Err(e) => panic!("{what}: untyped failure {e}"),
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The bytes of the journal and checkpoint in `dir`, for "untouched"
/// checks (the anchor is never rewritten once it exists).
fn snapshot_files(dir: &Path) -> Vec<Option<Vec<u8>>> {
    ["m.wal", "m.checkpoint.spirecol"]
        .iter()
        .map(|name| std::fs::read(dir.join(name)).ok())
        .collect()
}

/// Byte ranges of every record payload in a journal image.
fn payloads(wal: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    while pos < wal.len() {
        let len = u32::from_be_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        let start = pos + WAL_FRAME_LEN as usize;
        out.push(start..start + len);
        pos = start + len;
    }
    out
}

/// Rewrites the frame checksum of the record whose payload is `payload`
/// — an edit a torn write cannot produce.
fn reframe(wal: &mut [u8], payload: std::ops::Range<usize>) {
    let checksum = fnv1a64(&wal[payload.clone()]);
    wal[payload.start - 8..payload.start].copy_from_slice(&checksum.to_be_bytes());
}

/// A colfile with `meta` replaced by a digit-flipped copy, every
/// checksum inside it recomputed — damage only a forger can make.
fn with_flipped_meta(image: &[u8], rng: &mut FaultRng) -> Vec<u8> {
    let contents = colfile::read(image, SnapshotMode::Strict).unwrap();
    let meta = flip_digit(&contents.meta, rng).expect("metadata carries digits");
    colfile::write_sections(
        contents
            .sections
            .iter()
            .map(|(label, set)| (label.as_str(), set)),
        &meta,
    )
}

#[test]
fn journal_bit_flips_are_refused_or_truncated_to_an_acked_prefix() {
    let f = Fixture::new("flip", 64);
    let pristine = f.wal();
    for seed in 0..200u64 {
        let mut rng = FaultRng::new(0x3a1 ^ seed);
        let mut bytes = pristine.clone();
        for _ in 0..=(seed % 3) {
            flip_byte(&mut bytes, &mut rng);
        }
        let settings = f.damaged(&bytes, None);
        f.check(&settings, &format!("flip seed {seed}"));
    }
}

#[test]
fn journal_truncations_recover_the_acked_prefix() {
    let f = Fixture::new("truncate", 64);
    let pristine = f.wal();
    let ends: Vec<usize> = payloads(&pristine).iter().map(|p| p.end).collect();
    let mut rng = FaultRng::new(11);
    for _ in 0..40 {
        let fraction = rng.index(1001) as f64 / 1000.0;
        let short = truncate_bytes(&pristine, fraction);
        let settings = f.damaged(short, None);
        let state = f
            .check(&settings, &format!("truncated to {} bytes", short.len()))
            .expect("a torn tail is truncated, never refused");
        let whole = ends.iter().filter(|&&end| end <= short.len()).count();
        assert_eq!(state.seq(), whole as u64, "cut at {}", short.len());
    }
}

#[test]
fn reframed_record_edits_are_refused_never_truncated() {
    let f = Fixture::new("reframe", 64);
    let pristine = f.wal();
    let records = payloads(&pristine);
    let mut rng = FaultRng::new(0x5eed);
    for seed in 0..120u64 {
        let payload = records[rng.index(records.len())].clone();
        let mut bytes = pristine.clone();
        let pos = payload.start + rng.index(payload.len());
        bytes[pos] ^= 1 << rng.index(8);
        reframe(&mut bytes, payload);
        let settings = f.damaged(&bytes, None);
        if let Some(state) = f.check(&settings, &format!("reframed edit {seed} at byte {pos}")) {
            // Only bytes the colfile layout ignores can be edited without
            // a refusal, and then nothing is lost.
            assert_eq!(state.seq(), BATCHES, "reframed edit {seed} at byte {pos}");
        }
    }
    // Digit flips in a record's metadata (sequence, key, fingerprints,
    // delta), with every inner and outer checksum recomputed.
    for seed in 0..60u64 {
        let mut rng = FaultRng::new(0xd161 ^ seed);
        let index = rng.index(records.len());
        let payload = records[index].clone();
        let edited = with_flipped_meta(&pristine[payload.clone()], &mut rng);
        let mut bytes = pristine[..payload.start - WAL_FRAME_LEN as usize].to_vec();
        bytes.extend_from_slice(&(edited.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&fnv1a64(&edited).to_be_bytes());
        bytes.extend_from_slice(&edited);
        bytes.extend_from_slice(&pristine[payload.end..]);
        let settings = f.damaged(&bytes, None);
        f.check(
            &settings,
            &format!("meta digit flip {seed} in record {index}"),
        );
    }
}

#[test]
fn checkpoint_damage_is_refused_or_harmless() {
    // Three commits under `compact_records = 2`: a checkpoint at seq 2,
    // then record 3 alone in the journal.
    let f = Fixture::new("checkpoint", 2);
    let wal = f.wal();
    let pristine = f.checkpoint();
    assert_eq!(payloads(&wal).len(), 1);
    {
        let settings = f.damaged(&wal, Some(&pristine));
        let state = f.check(&settings, "pristine").unwrap();
        assert_eq!(state.seq(), BATCHES);
    }
    let mut rng = FaultRng::new(0xc4e);
    for seed in 0..150u64 {
        let mut bytes = pristine.clone();
        let pos = flip_byte(&mut bytes, &mut rng).unwrap();
        let settings = f.damaged(&wal, Some(&bytes));
        if let Some(state) = f.check(&settings, &format!("checkpoint flip {seed} at byte {pos}")) {
            assert_eq!(state.seq(), BATCHES, "checkpoint flip {seed} at byte {pos}");
        }
    }
    for _ in 0..30 {
        let fraction = rng.index(1000) as f64 / 1000.0;
        let short = truncate_bytes(&pristine, fraction);
        let settings = f.damaged(&wal, Some(short));
        let refused = f.check(&settings, &format!("checkpoint cut to {}", short.len()));
        assert!(refused.is_none(), "a truncated checkpoint must be refused");
    }
    for seed in 0..40u64 {
        let mut rng = FaultRng::new(0x9c ^ seed);
        let edited = with_flipped_meta(&pristine, &mut rng);
        let settings = f.damaged(&wal, Some(&edited));
        f.check(&settings, &format!("checkpoint meta digit flip {seed}"));
    }
}
