//! The connection supervisor: accept loop, per-connection handlers,
//! request dispatch, and the worker pool's lifecycle.
//!
//! Threading model: one blocking accept loop (the `shutdown` handler
//! wakes it with a connection of its own), one thread per connection
//! reading frames with a short receive timeout (so handlers notice
//! shutdown without a wakeup channel), and a fixed worker pool draining
//! the bounded job queue.
//! `estimate`/`analyze` requests go through the queue (where they
//! coalesce per model); `ping`/`stats`/`reload`/`shutdown` are answered
//! inline on the connection thread — reload is an atomic `Arc` swap, so
//! answering it inline cannot stall the workers.

use std::io::{BufReader, BufWriter, Write};
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
use crate::registry::{ModelCounters, ModelRegistry, ModelSlot};
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
    /// supervision, `worker_restarted`, and the restart budget.
    pub worker_panic_marker: Option<String>,
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded job-queue capacity; overflow sheds with a typed event.
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
        // Every committed update is already fsynced; this final pass
        // re-syncs each journal so even metadata-only tail state is
        // durable before the process exits.
        for (_, slot) in shared.registry.iter() {
            let mut guard = slot.update.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(state) = guard.as_mut() {
                let _ = state.sync();
            }
        }
        for connection in connections {
            let _ = connection.join();
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
    let mut reader = BufReader::new(read_half);
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
                        if !send(&mut writer, &response) {
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
            Err(FrameError::Truncated) => break,
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutting_down() {
                    break;
                }
            }
            Err(FrameError::Io(_)) => break,
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
    // Cache lookup against the currently-served fingerprint; a reload
    // between here and the worker only wastes the lookup, never serves a
    // stale model's result as the new model's.
    let fingerprint = slot.current().fingerprint.clone();
    let key = request_key(
        &request.kind,
        effective_top(&request.kind, request.top),
        &fingerprint,
        &samples_json,
    );
    // The estimates/analyzes counters count *accepted* requests — bumped
    // on a cache hit or after a successful enqueue, never on a shed —
    // so `estimates + analyzes` always equals requests that received (or
    // will receive) a real answer, exactly once each.
    if let Some(mut hit) = slot
        .cache
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .get(key)
    {
        ModelCounters::bump(&slot.counters.cache_hits);
        match request.kind.as_str() {
            "estimate" => ModelCounters::bump(&slot.counters.estimates),
            _ => ModelCounters::bump(&slot.counters.analyzes),
        }
        hit.cached = Some(true);
        return hit;
    }
    ModelCounters::bump(&slot.counters.cache_misses);

    let kind = request.kind.clone();
    let (reply, receiver) = mpsc::channel();
    let job = Job {
        model: name,
        request,
        samples_json,
        reply,
    };
    match shared.queue.push(job) {
        Ok(()) => {
            match kind.as_str() {
                "estimate" => ModelCounters::bump(&slot.counters.estimates),
                _ => ModelCounters::bump(&slot.counters.analyzes),
            }
            receiver
                .recv()
                .unwrap_or_else(|_| Response::error("worker dropped the request"))
        }
        Err((job, depth)) => shed_response(shared, slot, job, depth),
    }
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

/// Routes an `update` through the queue. Updates never touch the result
/// cache; fast-fail checks (unknown model, updates disabled, read-only)
/// answer inline so a doomed write never occupies queue capacity. The
/// worker re-checks both conditions — they can flip while queued.
fn update_response(shared: &ServerShared, request: Request) -> Response {
    let Some(name) = request.model.clone() else {
        return Response::error("update requires a model name");
    };
    let Some(slot) = shared.registry.get(&name) else {
        return Response::error(format!("unknown model {name}"));
    };
    let Some(samples) = request.samples.as_ref() else {
        return Response::error("update requires samples");
    };
    if shared.read_only() {
        return Response::error(
            "daemon is read-only (worker restart budget exhausted); update refused",
        );
    }
    if slot
        .update
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .is_none()
    {
        return Response::error(
            "updates are disabled: start the daemon with --wal-dir to enable \
             durable model maintenance",
        );
    }
    let samples_json = match serde_json::to_string(samples) {
        Ok(json) => json,
        Err(e) => return Response::error(format!("cannot serialize samples: {e}")),
    };
    let (reply, receiver) = mpsc::channel();
    let job = Job {
        model: name,
        request,
        samples_json,
        reply,
    };
    match shared.queue.push(job) {
        Ok(()) => receiver
            .recv()
            .unwrap_or_else(|_| Response::error("worker dropped the request")),
        Err((job, depth)) => shed_response(shared, slot, job, depth),
    }
}
