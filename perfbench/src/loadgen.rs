//! The open-loop load generator: one process, at most `nproc` threads,
//! one connection per thread.
//!
//! Operations carry a due time on a seeded schedule. A free connection
//! takes the next operation in schedule order, builds its payload, waits
//! for the due time and sends it through [`spire_serve::Client`], the
//! client users call. Latency runs from the due time, so a stall charges
//! every request that queued behind it; the generator's own lateness
//! (`lag`) is measured from when the request could first have been sent.
//!
//! When a phase mixes reads and updates, reads and updates each get a
//! connection of their own, as a reader and a writer would: a read then
//! waits for an update only inside the daemon, never on the wire.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use spire_core::SampleSet;
use spire_serve::{Client, Response};

use crate::daemon::{client_config, MODEL};
use crate::gen::Rng;
use crate::trace::{mean, percentile, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Estimate,
    Analyze,
    Update,
}

impl Kind {
    pub fn is_read(self) -> bool {
        self != Kind::Update
    }
}

/// One scheduled operation; `item` indexes the workload's payloads.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub due: Duration,
    pub kind: Kind,
    pub item: u64,
}

/// What happened to one operation. Times are milliseconds since the
/// phase started.
#[derive(Debug)]
pub struct Done {
    pub op: Op,
    /// When the phase started; the times below count from here.
    pub origin: Instant,
    pub start_ms: f64,
    pub done_ms: f64,
    pub lag_ms: f64,
    pub response: Result<Response, String>,
}

impl Done {
    pub fn due_ms(&self) -> f64 {
        self.op.due.as_secs_f64() * 1e3
    }

    pub fn latency_ms(&self) -> f64 {
        self.done_ms - self.due_ms()
    }

    /// Waiting for a free connection, from the due time to the send.
    pub fn wait_ms(&self) -> f64 {
        (self.start_ms - self.due_ms()).max(0.0)
    }

    pub fn ok(&self) -> bool {
        matches!(&self.response, Ok(r) if r.ok)
    }

    pub fn shed(&self) -> bool {
        matches!(&self.response, Ok(r) if r.shed == Some(true))
    }

    /// The request id its spans carry: reads and updates are numbered
    /// apart.
    pub fn request_id(&self) -> u64 {
        match self.op.kind {
            Kind::Update => UPDATE_IDS + self.op.item,
            _ => self.op.item,
        }
    }

    /// Records the operation as a span from due to done, split into the
    /// wait for a connection and the exchange itself.
    pub fn trace(&self, tracer: &mut Tracer) {
        let at = |ms: f64| self.origin + Duration::from_secs_f64(ms.max(0.0) / 1e3);
        let id = Some(self.request_id());
        let name = if self.op.kind.is_read() {
            "read"
        } else {
            "update"
        };
        let (due, start, done) = (at(self.due_ms()), at(self.start_ms), at(self.done_ms));
        let root = tracer.record(name, due, done, None, id);
        tracer.record("loadgen.wait", due, start, root, id);
        tracer.record("serve.rpc", start, done, root, id);
    }
}

/// Update request ids start here, above any read's.
pub const UPDATE_IDS: u64 = 1 << 40;

/// Poisson arrival offsets at `rate` per second over `secs`.
pub fn poisson(rng: &mut Rng, rate: f64, secs: f64) -> Vec<Duration> {
    let mut at = rng.exp(1.0 / rate);
    let mut out = Vec::new();
    while at < secs {
        out.push(Duration::from_secs_f64(at));
        at += rng.exp(1.0 / rate);
    }
    out
}

/// `count` evenly spaced offsets over `secs`, the first half a gap in.
pub fn fixed(count: usize, secs: f64) -> Vec<Duration> {
    let gap = secs / count as f64;
    (0..count)
        .map(|i| Duration::from_secs_f64(gap * (i as f64 + 0.5)))
        .collect()
}

/// How many connections (and threads) the generator may use.
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Runs `ops` (sorted by due time) against the daemon at `addr`.
/// `payload` builds an operation's samples and `key` an update's
/// idempotency key.
pub fn run(
    addr: &str,
    ops: &[Op],
    payload: &(dyn Fn(&Op) -> SampleSet + Sync),
    key: &(dyn Fn(&Op) -> String + Sync),
) -> Result<Vec<Done>, String> {
    let conns = connections();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(conns <= nproc, "generator threads exceed nproc");
    // One queue of operation indices per lane; threads share a lane's
    // queue when there are more threads than lanes.
    let mixed = ops.iter().any(|o| o.kind.is_read()) && ops.iter().any(|o| !o.kind.is_read());
    let lanes: Vec<Vec<usize>> = if mixed && conns >= 2 {
        let (reads, writes) = (0..ops.len()).partition(|&i| ops[i].kind.is_read());
        vec![reads, writes]
    } else {
        vec![(0..ops.len()).collect()]
    };
    let cursors: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(0)).collect();
    let mut clients = (0..conns)
        .map(|_| Client::connect_with(addr, client_config()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let results: Mutex<Vec<Option<Done>>> = Mutex::new((0..ops.len()).map(|_| None).collect());
    let origin = Instant::now();
    let since = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e3;
    std::thread::scope(|scope| {
        for (t, client) in clients.iter_mut().enumerate() {
            let (lane, cursor, results) =
                (&lanes[t % lanes.len()], &cursors[t % lanes.len()], &results);
            scope.spawn(move || {
                while let Some(&i) = lane.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let op = ops[i];
                    let free = Instant::now();
                    let samples = payload(&op);
                    let key = (op.kind == Kind::Update).then(|| key(&op));
                    let due = origin + op.due;
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let start = Instant::now();
                    let lag_ms = since(start) - since(due.max(free));
                    let response = match op.kind {
                        Kind::Estimate => client.estimate(MODEL, &samples),
                        Kind::Analyze => client.analyze(MODEL, &samples, None),
                        Kind::Update => client.update(MODEL, &samples, key.as_deref()),
                    }
                    .map_err(|e| e.to_string());
                    let done_ms = since(Instant::now());
                    if response.is_err() {
                        // A failed exchange may leave the stream desynced.
                        if let Ok(fresh) = Client::connect_with(addr, client_config()) {
                            *client = fresh;
                        }
                    }
                    results
                        .lock()
                        .expect("no generator thread panics holding the lock")[i] = Some(Done {
                        op,
                        origin,
                        start_ms: since(start),
                        done_ms,
                        lag_ms: lag_ms.max(0.0),
                        response,
                    });
                }
            });
        }
    });
    let results = results.into_inner().expect("generator threads joined");
    Ok(results
        .into_iter()
        .map(|d| d.expect("every scheduled operation ran"))
        .collect())
}

/// Little's law over one phase: the time-averaged number of operations
/// in flight (counted from due to done) against arrival rate × mean
/// latency. Returns `(in_flight, rate_times_latency)`.
pub fn littles_law(done: &[Done]) -> (f64, f64) {
    if done.is_empty() {
        return (0.0, 0.0);
    }
    let mut edges: Vec<(f64, i32)> = done
        .iter()
        .flat_map(|d| [(d.due_ms(), 1), (d.done_ms, -1)])
        .collect();
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
    let (first, last) = (edges[0].0, edges[edges.len() - 1].0);
    let span = (last - first).max(1e-9);
    let (mut area, mut level, mut at) = (0.0, 0i32, first);
    for (t, step) in edges {
        area += f64::from(level) * (t - at);
        level += step;
        at = t;
    }
    let latencies: Vec<f64> = done.iter().map(Done::latency_ms).collect();
    let rate = done.len() as f64 / span;
    (area / span, rate * mean(&latencies))
}

/// The generator's lateness: 99th percentile of `lag`, in ms.
pub fn lag_p99<'a>(done: impl IntoIterator<Item = &'a Done>) -> f64 {
    let lags: Vec<f64> = done.into_iter().map(|d| d.lag_ms).collect();
    if lags.is_empty() {
        0.0
    } else {
        percentile(&lags, 0.99)
    }
}
