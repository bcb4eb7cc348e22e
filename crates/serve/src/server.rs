//! The connection supervisor: accept loop, per-connection handlers,
//! request dispatch, and the worker pool's lifecycle.
//!
//! Threading model: one blocking accept loop (the `shutdown` handler
//! wakes it with a connection of its own), one thread per connection
//! reading frames with a short receive timeout (so handlers notice
//! shutdown without a wakeup channel), and a fixed worker pool draining
//! the bounded job queue.
//! Only `estimate`/`analyze` requests go through the queue (where they
//! coalesce per model); the connection thread that built a read's cache
//! key also looks it up and stores the answer. `update` is applied on
//! its connection thread under the model's update mutex, so it is never
//! shed; `ping`/`stats`/`reload`/`shutdown` are answered inline too —
//! reload is an atomic `Arc` swap, so answering it inline cannot stall
//! the workers.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use spire_core::catalog::MetricCatalog;
use spire_core::parallel;
use spire_core::pipeline::{Event, EventSink, PipelineConfig, RunContext};

use crate::cache::request_key;
use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{ModelStats, Request, Response, ServerStats};
use crate::queue::{Job, JobQueue};
use crate::registry::{ModelCounters, ModelEntry, ModelRegistry, ModelSlot};
use crate::wal::WalSettings;
use crate::worker::{self, effective_top};
use crate::ServeError;

/// How long the `shutdown` handler waits to connect to its own listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Seeded fault-injection seams, all off by default. Tests plant a
/// marked metric name in a request's samples to detonate a panic at a
/// chosen layer; production configs leave both markers `None`.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Panic *inside* request containment (`parallel::run_catching`)
    /// when a batch carries a metric containing this marker — drives
    /// the `request_isolated` path.
    pub panic_marker: Option<String>,
    /// Panic in the worker loop *outside* containment — drives worker
    /// supervision, `worker_restarted`, and the restart budget. Reads
    /// only: updates never reach a worker.
    pub worker_panic_marker: Option<String>,
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded read-queue capacity; overflow sheds with a typed event.
    pub queue_capacity: usize,
    /// Per-model LRU capacity for recent batch results (0 disables).
    pub cache_capacity: usize,
    /// Maximum accepted frame payload, in bytes.
    pub max_frame: usize,
    /// Maximum requests coalesced into one worker batch.
    pub max_batch: usize,
    /// Run configuration (snapshot mode, estimate threads, …).
    pub pipeline: PipelineConfig,
    /// Write-ahead-journal settings; `None` disables `update` requests
    /// (never applied volatile — durability is the point of the path).
    pub wal: Option<WalSettings>,
    /// How many panicked-worker respawns are tolerated before the
    /// daemon degrades to read-only instead of crash-looping.
    pub worker_restart_budget: u64,
    /// Fault-injection seams (tests only).
    pub chaos: ChaosConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 32,
            max_frame: 8 << 20,
            max_batch: 32,
            pipeline: PipelineConfig::default(),
            wal: None,
            worker_restart_budget: 4,
            chaos: ChaosConfig::default(),
        }
    }
}

/// State shared by the accept loop, connection handlers, and workers.
pub struct ServerShared {
    /// Daemon configuration.
    pub config: ServerConfig,
    /// The served models.
    pub registry: ModelRegistry,
    /// The bounded request queue.
    pub queue: JobQueue,
    /// The daemon's one run context: its bus carries every serving
    /// decision, and loads, reloads and updates run under it.
    pub ctx: RunContext,
    /// Catalog used to annotate analyze rankings.
    pub catalog: MetricCatalog,
    /// Set (`Release`) by the `shutdown` handler before it wakes the
    /// accept; read (`Acquire`) by the accept loop after each accept and
    /// by connection handlers between frames.
    shutdown: AtomicBool,
    /// Where the `shutdown` handler connects to wake the blocking accept:
    /// the listener's address, with loopback for an unspecified bind.
    wake_addr: SocketAddr,
    connections: AtomicU64,
    requests: AtomicU64,
    /// Panicked-worker respawns so far, charged against the budget.
    worker_restarts: AtomicU64,
    /// Workers currently alive (the last one out drains the queue).
    live_workers: AtomicU64,
    /// Set once the restart budget is exhausted: updates are refused,
    /// reads keep flowing.
    read_only: AtomicBool,
}

impl ServerShared {
    /// Whether shutdown has been requested.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Whether the daemon has degraded to read-only (restart budget
    /// exhausted). Updates are refused in this state; estimates,
    /// analyzes, and stats keep working.
    pub fn read_only(&self) -> bool {
        self.read_only.load(Ordering::Relaxed)
    }

    /// Degrades the daemon to read-only, emitting `daemon_read_only`
    /// exactly once no matter how many workers hit the budget.
    pub fn enter_read_only(&self, reason: String) {
        if !self.read_only.swap(true, Ordering::Relaxed) {
            self.ctx.emit(Event::DaemonReadOnly { reason });
        }
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    shared: Arc<ServerShared>,
}

impl Server {
    /// Binds the listener and loads every `(name, snapshot path)` model.
    /// Load failures (unreadable file, strict-mode damage) fail the bind;
    /// lenient salvages come up serving with salvage events on `sinks`.
    pub fn bind(
        config: ServerConfig,
        models: Vec<(String, PathBuf)>,
        sinks: Vec<Arc<dyn EventSink>>,
    ) -> Result<Server, ServeError> {
        let mut ctx = RunContext::new(config.pipeline.clone());
        for sink in sinks {
            ctx.add_sink(sink);
        }
        let registry =
            ModelRegistry::open(&models, config.cache_capacity, config.wal.as_ref(), &ctx)?;
        let listener = TcpListener::bind(&config.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let queue = JobQueue::new(config.queue_capacity);
        Ok(Server {
            listener,
            shared: Arc::new(ServerShared {
                config,
                registry,
                queue,
                ctx,
                catalog: MetricCatalog::table_iii(),
                shutdown: AtomicBool::new(false),
                wake_addr,
                connections: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                worker_restarts: AtomicU64::new(0),
                live_workers: AtomicU64::new(0),
                read_only: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared state (tests inspect counters and the run context).
    pub fn shared(&self) -> Arc<ServerShared> {
        self.shared.clone()
    }

    /// Serves until a `shutdown` request arrives, then drains the queue,
    /// joins workers and connections, and returns whether the run
    /// degraded (sheds, isolations, salvages — exit-code-2 semantics).
    pub fn run(self) -> Result<bool, ServeError> {
        let shared = self.shared;
        let worker_count = shared.config.workers.max(1);
        shared
            .live_workers
            .store(worker_count as u64, Ordering::Relaxed);
        let mut workers = Vec::new();
        for i in 0..worker_count {
            let s = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("spire-serve-worker-{i}"))
                    .spawn(move || supervised_worker(&s, i))?,
            );
        }
        let mut connections = Vec::new();
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // After a `shutdown` this is the handler's wake-up
                    // connection (or one that raced it): not served, not
                    // counted.
                    if shared.shutting_down() {
                        break;
                    }
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    let s = shared.clone();
                    connections.push(std::thread::spawn(move || handle_connection(&s, stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    shared.queue.close();
                    return Err(ServeError::Io(e));
                }
            }
        }
        // Drain: accepted requests still get answers, then workers see
        // the closed+empty queue and exit.
        shared.queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        for connection in connections {
            let _ = connection.join();
        }
        // Every committed update is already fsynced, and with the
        // connections joined none can follow; this final pass re-syncs
        // each journal so even metadata-only tail state is durable before
        // the process exits.
        for (_, slot) in shared.registry.iter() {
            let mut guard = slot.update.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(state) = guard.as_mut() {
                let _ = state.sync();
            }
        }
        Ok(shared.ctx.degraded())
    }
}

/// The supervision wrapper around [`worker::worker_loop`]: a panicked
/// worker is respawned in place (same thread, fresh loop) with a
/// `worker_restarted` event, until the pool-wide restart budget is
/// exhausted — then the daemon degrades to read-only instead of
/// crash-looping. The last worker out closes and drains the queue so no
/// accepted request waits forever on a pool that no longer exists.
fn supervised_worker(shared: &ServerShared, index: usize) {
    loop {
        match parallel::run_catching(|| worker::worker_loop(shared)) {
            Ok(()) => break, // queue closed and drained: clean exit
            Err(detail) => {
                let restarts = shared.worker_restarts.fetch_add(1, Ordering::Relaxed) + 1;
                let budget = shared.config.worker_restart_budget;
                if restarts <= budget {
                    shared.ctx.emit(Event::WorkerRestarted {
                        worker: index,
                        restarts,
                        budget,
                        detail,
                    });
                    continue;
                }
                shared.enter_read_only(format!(
                    "worker restart budget exhausted ({restarts} panics, budget {budget})"
                ));
                break;
            }
        }
    }
    if shared.live_workers.fetch_sub(1, Ordering::AcqRel) == 1 && !shared.shutting_down() {
        // Budget exhaustion killed the last worker while the daemon is
        // still accepting: close the queue (new pushes shed) and refuse
        // what is already queued with a typed error.
        shared.queue.close();
        for job in shared.queue.drain() {
            let _ = job.reply.send(Response::error(
                "no live workers remain (restart budget exhausted); request refused",
            ));
        }
    }
}

fn send(writer: &mut impl Write, response: &Response) -> bool {
    match serde_json::to_string(response) {
        Ok(json) => write_frame(writer, json.as_bytes()).is_ok(),
        Err(_) => false,
    }
}

/// A connection's reader: the receive timeout is the shutdown poll, so
/// a timed-out read is retried until shutdown is flagged, whether the
/// connection is idle or a frame has started. A frame that spans a poll
/// therefore stays in sync, and a peer stalled mid-frame still cannot
/// hold up shutdown.
struct UntilShutdown<'a> {
    inner: BufReader<TcpStream>,
    shared: &'a ServerShared,
}

impl Read for UntilShutdown<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) && !self.shared.shutting_down() => {}
                other => return other,
            }
        }
    }
}

fn handle_connection(shared: &ServerShared, stream: TcpStream) {
    // The short receive timeout is the shutdown poll: an idle connection
    // wakes every 200 ms to check the flag instead of blocking forever.
    if stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = UntilShutdown {
        inner: BufReader::new(read_half),
        shared,
    };
    let mut writer = BufWriter::new(stream);
    loop {
        match read_frame(&mut reader, shared.config.max_frame) {
            Ok(None) => break,
            Ok(Some(payload)) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let parsed: Result<Request, String> = std::str::from_utf8(&payload)
                    .map_err(|e| format!("payload is not UTF-8: {e}"))
                    .and_then(|text| {
                        serde_json::from_str(text).map_err(|e| format!("invalid request: {e}"))
                    });
                match parsed {
                    Err(detail) => {
                        // Malformed JSON inside a well-formed frame: the
                        // stream is still in sync, so answer and go on.
                        if !send(&mut writer, &Response::error(detail)) {
                            break;
                        }
                    }
                    Ok(request) if request.kind == "shutdown" => {
                        shared.shutdown.store(true, Ordering::Release);
                        shared.queue.close();
                        // Wake the blocking accept so the loop sees the flag.
                        let _ = TcpStream::connect_timeout(&shared.wake_addr, WAKE_TIMEOUT);
                        let _ = send(&mut writer, &Response::ok("shutdown"));
                        break;
                    }
                    Ok(request) => {
                        let response = dispatch(shared, request);
                        // Once shutdown is flagged the answer is the last:
                        // a peer that never idles would otherwise hold up
                        // the connection joins in `Server::run`.
                        if !send(&mut writer, &response) || shared.shutting_down() {
                            break;
                        }
                    }
                }
            }
            Err(FrameError::Oversize { declared, max }) => {
                // The refused payload is still on the wire, so the stream
                // is desynced: answer, then close.
                let _ = send(
                    &mut writer,
                    &Response::error(format!(
                        "frame of {declared} bytes exceeds the {max}-byte cap"
                    )),
                );
                break;
            }
            // A truncated frame, a dead socket, or a poll that found
            // shutdown flagged.
            Err(FrameError::Truncated | FrameError::Io(_)) => break,
        }
    }
}

fn dispatch(shared: &ServerShared, request: Request) -> Response {
    match request.kind.as_str() {
        "ping" => Response::ok("pong"),
        "stats" => stats_response(shared),
        "reload" => reload_response(shared, &request),
        "estimate" | "analyze" => batchable_response(shared, request),
        "update" => update_response(shared, request),
        other => Response::error(format!(
            "unknown request kind {other:?} \
             (expected ping, estimate, analyze, update, reload, stats, or shutdown)"
        )),
    }
}

fn reload_response(shared: &ServerShared, request: &Request) -> Response {
    let Some(name) = request.model.as_deref() else {
        return Response::error("reload requires a model name");
    };
    match shared
        .registry
        .reload(name, request.path.as_deref().map(Path::new), &shared.ctx)
    {
        Ok(info) => {
            let mut r = Response::ok("reload");
            r.model = Some(name.to_owned());
            r.fingerprint = Some(info.new_fingerprint.clone());
            r.machine = shared
                .registry
                .get(name)
                .and_then(|slot| slot.current().machine.clone());
            r.reloaded = Some(info);
            r
        }
        Err(e) => {
            let mut r = Response::error(e.to_string());
            r.model = Some(name.to_owned());
            r
        }
    }
}

impl ModelStats {
    /// One model's row of the `stats` response, read from its registry
    /// slot: the served snapshot, the counters, the last journal
    /// sequence and the ranking drift.
    pub fn from_slot(name: &str, slot: &ModelSlot) -> Self {
        let entry = slot.current();
        let c = &slot.counters;
        let drift = *slot.drift.lock().unwrap_or_else(|p| p.into_inner());
        let last_seq = slot
            .update
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .as_ref()
            .map(|state| state.seq());
        ModelStats {
            name: name.to_owned(),
            fingerprint: entry.fingerprint.clone(),
            metrics: entry.model.metric_count(),
            estimates: c.estimates.load(Ordering::Relaxed),
            analyzes: c.analyzes.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            isolated: c.isolated.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            coalesced_batches: c.coalesced_batches.load(Ordering::Relaxed),
            max_batch: c.max_batch.load(Ordering::Relaxed),
            reloads: c.reloads.load(Ordering::Relaxed),
            updates: c.updates.load(Ordering::Relaxed),
            deduplicated: c.deduplicated.load(Ordering::Relaxed),
            last_seq,
            drift_overlap: drift.map(|(overlap, _)| overlap),
            drift_tau: drift.map(|(_, tau)| tau),
            machine: entry.machine.clone(),
        }
    }
}

fn stats_response(shared: &ServerShared) -> Response {
    let models = shared
        .registry
        .iter()
        .map(|(name, slot)| ModelStats::from_slot(name, slot))
        .collect();
    let mut r = Response::ok("stats");
    r.stats = Some(ServerStats {
        connections: shared.connections.load(Ordering::Relaxed),
        requests: shared.requests.load(Ordering::Relaxed),
        models,
    });
    r
}

fn batchable_response(shared: &ServerShared, request: Request) -> Response {
    let Some(name) = request.model.clone() else {
        return Response::error(format!("{} requires a model name", request.kind));
    };
    let Some(slot) = shared.registry.get(&name) else {
        return Response::error(format!("unknown model {name}"));
    };
    let Some(samples) = request.samples.as_ref() else {
        return Response::error(format!("{} requires samples", request.kind));
    };
    let samples_json = match serde_json::to_string(samples) {
        Ok(json) => json,
        Err(e) => return Response::error(format!("cannot serialize samples: {e}")),
    };
    // The key names the currently-served fingerprint; the answer is
    // stored under it only if it came from that same model, so a reload
    // racing the queue leaves the answer uncached rather than filed
    // under the wrong model.
    let fingerprint = slot.current().fingerprint.clone();
    let key = request_key(
        &request.kind,
        effective_top(&request.kind, request.top),
        &fingerprint,
        &samples_json,
    );
    // Not needed past the key: free it before the queue wait.
    drop(samples_json);
    // The estimates/analyzes counters count *accepted* requests — bumped
    // on a cache hit or after a successful enqueue, never on a shed —
    // so `estimates + analyzes` always equals requests that received (or
    // will receive) a real answer, exactly once each.
    let counter = match request.kind.as_str() {
        "estimate" => &slot.counters.estimates,
        _ => &slot.counters.analyzes,
    };
    if let Some(mut hit) = slot
        .cache
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .get(key)
    {
        ModelCounters::bump(&slot.counters.cache_hits);
        ModelCounters::bump(counter);
        hit.cached = Some(true);
        return hit;
    }
    ModelCounters::bump(&slot.counters.cache_misses);

    let (reply, receiver) = mpsc::channel();
    let job = Job {
        model: name,
        request,
        reply,
    };
    if let Err((job, depth)) = shared.queue.push(job) {
        return shed_response(shared, slot, job, depth);
    }
    ModelCounters::bump(counter);
    let response = receiver
        .recv()
        .unwrap_or_else(|_| Response::error("worker dropped the request"));
    if response.ok && response.fingerprint.as_deref() == Some(fingerprint.as_str()) {
        slot.cache
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .put(key, response.clone());
    }
    response
}

/// Refuses a job the full queue would not take: counts the shed against
/// its model, emits `request_shed`, and answers with the typed refusal.
fn shed_response(shared: &ServerShared, slot: &ModelSlot, job: Job, depth: usize) -> Response {
    let capacity = shared.queue.capacity();
    ModelCounters::bump(&slot.counters.shed);
    shared.ctx.emit(Event::RequestShed {
        model: job.model.clone(),
        depth,
        capacity,
    });
    let mut r = Response::error(format!(
        "request shed: queue full ({depth}/{capacity}); retry later"
    ));
    r.shed = Some(true);
    r.model = Some(job.model);
    r
}

/// Applies an `update` on the connection thread, under the slot's update
/// mutex: commits are serialized per model and the journal orders them.
/// A committed update swaps the served entry, so later reads see the new
/// fingerprint at once. Updates never touch the result cache and never
/// enter the job queue, so they are never shed.
fn update_response(shared: &ServerShared, request: Request) -> Response {
    let Some(name) = request.model.as_deref() else {
        return Response::error("update requires a model name");
    };
    let Some(slot) = shared.registry.get(name) else {
        return Response::error(format!("unknown model {name}"));
    };
    let Some(samples) = request.samples.as_ref() else {
        return Response::error("update requires samples");
    };
    let samples_json = match serde_json::to_string(samples) {
        Ok(json) => json,
        Err(e) => return Response::error(format!("cannot serialize samples: {e}")),
    };
    let mut guard = slot.update.lock().unwrap_or_else(|p| p.into_inner());
    // Checked under the mutex: no commit starts once shutdown is flagged,
    // so the final journal sync is the last write.
    if shared.shutting_down() {
        return Response::error("daemon is shutting down; update refused");
    }
    if shared.read_only() {
        return Response::error(
            "daemon is read-only (worker restart budget exhausted); update refused",
        );
    }
    let Some(state) = guard.as_mut() else {
        return Response::error(
            "updates are disabled: start the daemon with --wal-dir to enable \
             durable model maintenance",
        );
    };
    // A batch tagged with a different machine is refused like a
    // fingerprint mismatch: folding foreign-machine samples into the
    // delta chain would silently corrupt the model. Either side lacking
    // a tag (legacy artifacts, untagged clients) passes, and a
    // peak-normalized model is machine-agnostic by construction.
    let machine = slot.current().machine.clone();
    if let (Some(model_m), Some(data_m)) = (&machine, &request.machine) {
        if !model_m.normalized && !model_m.matches(data_m) {
            shared.ctx.emit(Event::MachineMismatch {
                context: "serve update".to_owned(),
                model_machine: model_m.name.clone(),
                model_fingerprint: model_m.fingerprint.clone(),
                data_machine: data_m.name.clone(),
                data_fingerprint: data_m.fingerprint.clone(),
            });
            let mut r = Response::error(format!(
                "machine mismatch: model {name} is from {} but the update batch is \
                 from {}; update refused",
                model_m.tag(),
                data_m.tag()
            ));
            r.model = Some(name.to_owned());
            r.machine = machine;
            return r;
        }
    }
    let outcome = parallel::run_catching(|| {
        state.apply_update(samples, &samples_json, request.key.as_deref(), &shared.ctx)
    });
    let mut r = match outcome {
        Ok(Ok(ack)) => {
            if ack.applied {
                ModelCounters::bump(&slot.counters.updates);
                if let Some(model) = ack.model {
                    slot.install(ModelEntry {
                        model,
                        fingerprint: ack.fingerprint.clone(),
                        machine: machine.clone(),
                    });
                }
            } else {
                ModelCounters::bump(&slot.counters.deduplicated);
            }
            let mut r = Response::ok("update");
            r.fingerprint = Some(ack.fingerprint);
            r.seq = Some(ack.seq);
            r.applied = Some(ack.applied);
            r.update = ack.report;
            r.machine = machine;
            r
        }
        Ok(Err(e)) => Response::error(e.to_string()),
        Err(panic_msg) => {
            // A panic mid-apply may have left half-built state; the
            // clone-then-publish discipline makes that unlikely, but
            // refusing further writes is the safe side.
            state.mark_broken(format!("panic during update: {panic_msg}"));
            ModelCounters::bump(&slot.counters.isolated);
            shared.ctx.emit(Event::RequestIsolated {
                request: "update".to_owned(),
                detail: panic_msg.clone(),
            });
            Response::error(format!(
                "update isolated after panic: {panic_msg}; further updates for this \
                 model are refused until restart"
            ))
        }
    };
    r.model = Some(name.to_owned());
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use spire_core::{write_atomic, ModelSnapshot, Sample, SampleSet, SpireModel, TrainConfig};

    /// A three-metric set; `salt` shifts it so batches differ.
    fn samples(salt: usize) -> SampleSet {
        let mut set = SampleSet::new();
        for (m, metric) in ["m_alpha", "m_beta", "m_gamma"].iter().enumerate() {
            for i in 1..20 {
                let x = (i * (m + 2) + salt) as f64;
                let y = (60.0 - i as f64 - salt as f64 * 0.25).max(1.0);
                set.push(Sample::new(*metric, 10.0, x, y).unwrap());
            }
        }
        set
    }

    /// A daemon with a journal, bound but never run: no worker is alive.
    fn bound(tag: &str) -> (Server, PathBuf) {
        let dir = std::env::temp_dir().join(format!("spire-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let model = SpireModel::train(&samples(0), TrainConfig::default()).unwrap();
        let path = dir.join("model.json");
        write_atomic(&path, &ModelSnapshot::from_model(&model).unwrap().to_json()).unwrap();
        let config = ServerConfig {
            wal: Some(WalSettings::new(dir.join("wal"))),
            ..ServerConfig::default()
        };
        let server = Server::bind(config, vec![("m".to_owned(), path)], Vec::new()).unwrap();
        (server, dir)
    }

    fn update(salt: usize) -> Request {
        let mut request = Request::bare("update");
        request.model = Some("m".to_owned());
        request.samples = Some(samples(salt));
        request.key = Some(format!("k{salt}"));
        request
    }

    #[test]
    fn an_update_commits_with_no_worker_alive() {
        let (server, dir) = bound("inline-update");
        let shared = server.shared();
        assert_eq!(shared.live_workers.load(Ordering::Relaxed), 0);
        let r = dispatch(&shared, update(1));
        assert!(r.ok, "{:?}", r.error);
        assert_eq!((r.seq, r.applied), (Some(1), Some(true)));
        let slot = shared.registry.get("m").unwrap();
        assert_eq!(r.fingerprint, Some(slot.current().fingerprint.clone()));
        assert_eq!(slot.counters.updates.load(Ordering::Relaxed), 1);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_update_is_refused_once_shutdown_is_flagged() {
        let (server, dir) = bound("shutdown-update");
        let shared = server.shared();
        shared.shutdown.store(true, Ordering::Release);
        let r = dispatch(&shared, update(1));
        assert!(!r.ok);
        assert!(
            r.error.as_deref().unwrap_or("").contains("shutting down"),
            "got: {:?}",
            r.error
        );
        assert_eq!(r.shed, None, "a refused update is not shed");
        let slot = shared.registry.get("m").unwrap();
        assert_eq!(slot.counters.updates.load(Ordering::Relaxed), 0);
        let seq = slot
            .update
            .lock()
            .unwrap()
            .as_ref()
            .map(|state| state.seq());
        assert_eq!(seq, Some(0), "nothing was journaled");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
