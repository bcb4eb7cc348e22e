//! The model registry: named snapshot models behind atomically-swappable
//! `Arc` handles.
//!
//! Each registered model is one [`ModelSlot`]: the snapshot path it was
//! loaded from, the currently-served [`ModelEntry`] behind an
//! `RwLock<Arc<...>>`, its counters, result cache, and analyze-drift
//! state. A hot reload builds the new entry off-lock (file read,
//! checksum-verified snapshot load, fingerprint), then swaps the `Arc`
//! under a brief write lock — in-flight requests keep the entry they
//! cloned and finish against exactly the snapshot they started with,
//! which is why every response can carry an attributable fingerprint.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, RwLock};

use spire_core::pipeline::{emit_salvage_events, Event, RunContext};
use spire_core::snapshot::{load_model, ModelSnapshot};
use spire_core::{BottleneckReport, MachineSpec, SpireModel};

use crate::cache::LruCache;
use crate::proto::ReloadInfo;
use crate::wal::{UpdateState, WalSettings};
use crate::ServeError;

/// One immutable served model: requests clone the `Arc` and never
/// observe a half-swapped state.
#[derive(Debug)]
pub struct ModelEntry {
    /// The loaded (possibly salvaged) model.
    pub model: SpireModel,
    /// Fingerprint of the snapshot re-derived from the served model, so
    /// it identifies what is actually answering requests even after a
    /// lenient salvage dropped records.
    pub fingerprint: String,
    /// The machine the snapshot's training data came from, when its
    /// provenance recorded one. Every response carries it, and updates
    /// against a batch tagged with a different machine are refused.
    pub machine: Option<MachineSpec>,
}

/// Per-model request counters (all relaxed: they are monotonic telemetry,
/// not synchronization).
#[derive(Debug, Default)]
pub struct ModelCounters {
    /// Estimate requests routed here.
    pub estimates: AtomicU64,
    /// Analyze requests routed here.
    pub analyzes: AtomicU64,
    /// Requests shed because the queue was full.
    pub shed: AtomicU64,
    /// Requests isolated after a contained panic.
    pub isolated: AtomicU64,
    /// Cache hits.
    pub cache_hits: AtomicU64,
    /// Cache misses.
    pub cache_misses: AtomicU64,
    /// Worker batches that coalesced >1 request.
    pub coalesced_batches: AtomicU64,
    /// Largest batch seen.
    pub max_batch: AtomicU64,
    /// Successful reloads.
    pub reloads: AtomicU64,
    /// Committed update batches.
    pub updates: AtomicU64,
    /// Retried updates absorbed by the idempotency window.
    pub deduplicated: AtomicU64,
}

impl ModelCounters {
    /// Relaxed increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Raises `max_batch` to at least `n`.
    pub fn observe_batch(&self, n: u64) {
        self.max_batch.fetch_max(n, Ordering::Relaxed);
        if n > 1 {
            Self::bump(&self.coalesced_batches);
        }
    }
}

/// One registered model with its serving state.
pub struct ModelSlot {
    path: Mutex<PathBuf>,
    current: RwLock<Arc<ModelEntry>>,
    /// Telemetry counters.
    pub counters: ModelCounters,
    /// Recent batch results, keyed by request identity hash.
    pub cache: Mutex<LruCache>,
    /// The previous analyze report, for ranking-drift stats.
    pub last_report: Mutex<Option<BottleneckReport>>,
    /// `(overlap@5, kendall tau)` between the last two analyze rankings.
    pub drift: Mutex<Option<(f64, f64)>>,
    /// Durable update state, when the daemon journals updates (`None`
    /// without a WAL directory — updates are then refused, never
    /// applied volatile). The mutex also serializes commits per model.
    pub update: Mutex<Option<UpdateState>>,
}

impl ModelSlot {
    /// The currently-served entry (an `Arc` clone; never blocks writers
    /// for longer than the clone).
    pub fn current(&self) -> Arc<ModelEntry> {
        self.current
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The snapshot path backing this slot.
    pub fn path(&self) -> PathBuf {
        self.path.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Swaps the served entry (a committed update's publish step).
    pub fn install(&self, entry: ModelEntry) {
        let mut current = self.current.write().unwrap_or_else(|p| p.into_inner());
        *current = Arc::new(entry);
    }
}

/// Named models served by one daemon.
pub struct ModelRegistry {
    slots: BTreeMap<String, ModelSlot>,
}

/// Loads one snapshot file into an entry, mirroring salvage decisions
/// onto the context's bus with the pipeline's [`emit_salvage_events`]
/// (no stage events: a daemon load is not a pipeline stage).
fn load_entry(name: &str, path: &Path, ctx: &RunContext) -> Result<(ModelEntry, bool), ServeError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        ServeError::Protocol(format!("cannot read snapshot {}: {e}", path.display()))
    })?;
    let (model, machine, report) = load_model(&text, ctx.config.snapshot_mode)
        .map_err(|e| ServeError::Protocol(format!("cannot load model {name}: {e}")))?;
    let salvaged = report.as_ref().is_some_and(|r| r.is_degraded());
    if let Some(report) = &report {
        emit_salvage_events(report, &path.display().to_string(), ctx);
    }
    let fingerprint = ModelSnapshot::from_model(&model)
        .map_err(|e| ServeError::Protocol(format!("cannot fingerprint model {name}: {e}")))?
        .fingerprint();
    Ok((
        ModelEntry {
            model,
            fingerprint,
            machine,
        },
        salvaged,
    ))
}

impl ModelRegistry {
    /// Loads every `(name, snapshot path)` spec; fails fast if any model
    /// is unreadable or (in strict mode) damaged.
    ///
    /// With `wal` settings, each model's durable update state is opened
    /// too: its journal is replayed (torn tails truncated with a typed
    /// event), and when committed updates are recovered the replayed
    /// model — not the snapshot from disk — becomes the served entry,
    /// so a crash-restart cycle is invisible to clients beyond the
    /// events it emits.
    pub fn open(
        specs: &[(String, PathBuf)],
        cache_capacity: usize,
        wal: Option<&WalSettings>,
        ctx: &RunContext,
    ) -> Result<Self, ServeError> {
        let mut slots = BTreeMap::new();
        for (name, path) in specs {
            if slots.contains_key(name) {
                return Err(ServeError::Protocol(format!("duplicate model name {name}")));
            }
            let (mut entry, _) = load_entry(name, path, ctx)?;
            let update = match wal {
                None => None,
                Some(settings) => {
                    let (state, recovered) = UpdateState::open(
                        name,
                        entry.model.config(),
                        ctx.config.strictness,
                        settings,
                        entry.machine.as_ref(),
                        ctx,
                    )?;
                    if let Some((model, fingerprint)) = recovered {
                        entry = ModelEntry {
                            model,
                            fingerprint,
                            machine: entry.machine,
                        };
                    }
                    Some(state)
                }
            };
            slots.insert(
                name.clone(),
                ModelSlot {
                    path: Mutex::new(path.clone()),
                    current: RwLock::new(Arc::new(entry)),
                    counters: ModelCounters::default(),
                    cache: Mutex::new(LruCache::new(cache_capacity)),
                    last_report: Mutex::new(None),
                    drift: Mutex::new(None),
                    update: Mutex::new(update),
                },
            );
        }
        Ok(ModelRegistry { slots })
    }

    /// Looks up a model by name.
    pub fn get(&self, name: &str) -> Option<&ModelSlot> {
        self.slots.get(name)
    }

    /// Iterates `(name, slot)` in name order (the `stats` endpoint).
    pub fn iter(&self) -> impl Iterator<Item = (&String, &ModelSlot)> {
        self.slots.iter()
    }

    /// Hot-reloads `name` from `path_override` (or its registered path):
    /// builds the new entry off-lock, then swaps the `Arc`. A failed load
    /// leaves the served model untouched.
    pub fn reload(
        &self,
        name: &str,
        path_override: Option<&Path>,
        ctx: &RunContext,
    ) -> Result<ReloadInfo, ServeError> {
        let slot = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_owned()))?;
        let path = match path_override {
            Some(p) => p.to_path_buf(),
            None => slot.path(),
        };
        let (entry, salvaged) = load_entry(name, &path, ctx)?;
        let new_fingerprint = entry.fingerprint.clone();
        let old_fingerprint = {
            let mut current = slot.current.write().unwrap_or_else(|p| p.into_inner());
            let old = current.fingerprint.clone();
            *current = Arc::new(entry);
            old
        };
        if path_override.is_some() {
            *slot.path.lock().unwrap_or_else(|p| p.into_inner()) = path;
        }
        ModelCounters::bump(&slot.counters.reloads);
        ctx.emit(Event::ModelReloaded {
            model: name.to_owned(),
            old_fingerprint: old_fingerprint.clone(),
            new_fingerprint: new_fingerprint.clone(),
        });
        Ok(ReloadInfo {
            old_fingerprint,
            new_fingerprint,
            salvaged,
        })
    }
}
