//! The worker pool's batch-processing loop.
//!
//! Workers pop coalesced same-model batches from the [`crate::queue`],
//! estimate all of them in one
//! [`spire_core::SpireModel::estimate_batch`] call (bit-identical to
//! per-request estimation), and fan typed responses back to each
//! request's reply channel. The whole batch serves from one `Arc`'d
//! model entry cloned up front, so a concurrent hot reload can never
//! tear a batch: every response is attributable to exactly the snapshot
//! fingerprint it carries.
//!
//! Panic containment is two-level: a batch that panics is retried
//! request-by-request under [`spire_core::parallel::run_catching`], so
//! one poisoned request degrades to a typed `request_isolated` error
//! while its batch neighbors still get answers.

use std::sync::Arc;
use std::time::Instant;

use spire_core::ensemble::Estimate;
use spire_core::parallel;
use spire_core::pipeline::Event;
use spire_core::{BottleneckReport, SampleSet, SpireError};

use crate::cache::request_key;
use crate::proto::{MetricResult, Response};
use crate::queue::Job;
use crate::registry::{ModelCounters, ModelEntry, ModelSlot};
use crate::server::ServerShared;

/// Whether any job in the batch carries a sample metric whose name
/// contains `marker` — the chaos harness's injection seam: tests plant
/// a marked metric in a request to detonate a panic at a chosen layer.
fn batch_matches_marker(batch: &[Job], marker: &str) -> bool {
    batch.iter().any(|job| {
        job.request
            .samples
            .as_ref()
            .is_some_and(|s| s.metrics().any(|m| m.as_str().contains(marker)))
    })
}

/// The analyze default for `top` when a request does not specify one.
pub(crate) const DEFAULT_TOP: usize = 10;

/// The `top` value that participates in a request's cache key (estimate
/// responses do not vary with `top`).
pub(crate) fn effective_top(kind: &str, top: Option<usize>) -> usize {
    if kind == "analyze" {
        top.unwrap_or(DEFAULT_TOP)
    } else {
        0
    }
}

/// Runs until the queue closes and drains.
pub(crate) fn worker_loop(shared: &ServerShared) {
    while let Some(batch) = shared.queue.pop_coalesced(shared.config.max_batch) {
        // Chaos seam OUTSIDE the request containment: this panic
        // escapes to the supervisor, exercising worker restart and the
        // restart budget (the in-containment seam is in the estimate
        // closure below).
        if let Some(marker) = &shared.config.chaos.worker_panic_marker {
            if batch_matches_marker(&batch, marker) {
                panic!("chaos: worker panic marker {marker:?} matched");
            }
        }
        if batch[0].is_update() {
            process_update_batch(shared, batch);
        } else {
            process_batch(shared, batch);
        }
    }
}

/// Applies a coalesced batch of update jobs sequentially under the
/// slot's update mutex (writes are serialized per model; the journal
/// orders them). Each committed update swaps the served entry, so
/// subsequent reads see the new fingerprint immediately.
fn process_update_batch(shared: &ServerShared, batch: Vec<Job>) {
    let Some(slot) = shared.registry.get(&batch[0].model) else {
        let name = batch[0].model.clone();
        for job in batch {
            let _ = job
                .reply
                .send(Response::error(format!("unknown model {name}")));
        }
        return;
    };
    let mut guard = slot.update.lock().unwrap_or_else(|p| p.into_inner());
    for job in batch {
        let Some(state) = guard.as_mut() else {
            let _ = job.reply.send(Response::error(
                "updates are disabled: start the daemon with --wal-dir to enable \
                 durable model maintenance",
            ));
            continue;
        };
        if shared.read_only() {
            let _ = job.reply.send(Response::error(
                "daemon is read-only (worker restart budget exhausted); update refused",
            ));
            continue;
        }
        // A batch tagged with a different machine is refused like a
        // fingerprint mismatch: folding foreign-machine samples into the
        // delta chain would silently corrupt the model. Either side
        // lacking a tag (legacy artifacts, untagged clients) passes, and
        // a peak-normalized model is machine-agnostic by construction.
        let entry_machine = slot.current().machine.clone();
        if let (Some(model_m), Some(data_m)) = (&entry_machine, &job.request.machine) {
            if !model_m.normalized && !model_m.matches(data_m) {
                shared.bus.emit(Event::MachineMismatch {
                    context: "serve update".to_owned(),
                    model_machine: model_m.name.clone(),
                    model_fingerprint: model_m.fingerprint.clone(),
                    data_machine: data_m.name.clone(),
                    data_fingerprint: data_m.fingerprint.clone(),
                });
                let mut r = Response::error(format!(
                    "machine mismatch: model {} is from {} but the update batch is \
                     from {}; update refused",
                    job.model,
                    model_m.tag(),
                    data_m.tag()
                ));
                r.model = Some(job.model.clone());
                r.machine = entry_machine;
                let _ = job.reply.send(r);
                continue;
            }
        }
        let samples = job.request.samples.as_ref().expect("validated at enqueue");
        let ctx = shared.ctx();
        let key = job.request.key.as_deref();
        let outcome =
            parallel::run_catching(|| state.apply_update(samples, &job.samples_json, key, &ctx));
        let response = match outcome {
            Ok(Ok(ack)) => {
                if ack.applied {
                    ModelCounters::bump(&slot.counters.updates);
                    if let Some(model) = &ack.model {
                        slot.install(ModelEntry {
                            model: model.clone(),
                            fingerprint: ack.fingerprint.clone(),
                            machine: entry_machine.clone(),
                        });
                    }
                } else {
                    ModelCounters::bump(&slot.counters.deduplicated);
                }
                let mut r = Response::ok("update");
                r.model = Some(job.model.clone());
                r.fingerprint = Some(ack.fingerprint);
                r.seq = Some(ack.seq);
                r.applied = Some(ack.applied);
                r.update = ack.report;
                r.machine = entry_machine;
                r
            }
            Ok(Err(e)) => {
                let mut r = Response::error(e.to_string());
                r.model = Some(job.model.clone());
                r
            }
            Err(panic_msg) => {
                // A panic mid-apply may have left half-built state; the
                // clone-then-publish discipline makes that unlikely, but
                // refusing further writes is the safe side.
                state.mark_broken(format!("panic during update: {panic_msg}"));
                ModelCounters::bump(&slot.counters.isolated);
                shared.bus.emit(Event::RequestIsolated {
                    request: "update".to_owned(),
                    detail: panic_msg.clone(),
                });
                let mut r = Response::error(format!(
                    "update isolated after panic: {panic_msg}; further updates for this \
                     model are refused until restart"
                ));
                r.model = Some(job.model.clone());
                r
            }
        };
        let _ = job.reply.send(response);
    }
}

fn process_batch(shared: &ServerShared, batch: Vec<Job>) {
    let Some(slot) = shared.registry.get(&batch[0].model) else {
        let name = batch[0].model.clone();
        for job in batch {
            let _ = job
                .reply
                .send(Response::error(format!("unknown model {name}")));
        }
        return;
    };
    // One entry serves the whole batch: requests never straddle a reload.
    let entry = slot.current();
    slot.counters.observe_batch(batch.len() as u64);
    let total_samples: usize = batch
        .iter()
        .map(|j| j.request.samples.as_ref().map_or(0, SampleSet::len))
        .sum();
    shared.bus.emit(Event::StageStarted {
        stage: "serve-batch".to_owned(),
        items_in: Some(total_samples),
    });
    let start = Instant::now();
    let sets: Vec<&SampleSet> = batch
        .iter()
        .map(|j| j.request.samples.as_ref().expect("validated at enqueue"))
        .collect();
    match parallel::run_catching(|| {
        // Chaos seam INSIDE request containment: drives the isolation
        // path (typed error, worker survives) for tests.
        if let Some(marker) = &shared.config.chaos.panic_marker {
            if batch_matches_marker(&batch, marker) {
                panic!("chaos: request panic marker {marker:?} matched");
            }
        }
        entry.model.estimate_batch(&sets)
    }) {
        Ok(results) => {
            shared.bus.emit(Event::StageFinished {
                stage: "serve-batch".to_owned(),
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
                items_in: Some(total_samples),
                items_out: Some(results.len()),
            });
            for (job, result) in batch.into_iter().zip(results) {
                finish_job(shared, slot, &entry, job, result);
            }
        }
        Err(batch_panic) => {
            // The coalesced pass panicked; degrade to per-request retries
            // so only the poisoned request(s) fail.
            for job in batch {
                let samples = job.request.samples.as_ref().expect("validated at enqueue");
                match parallel::run_catching(|| {
                    if let Some(marker) = &shared.config.chaos.panic_marker {
                        if batch_matches_marker(std::slice::from_ref(&job), marker) {
                            panic!("chaos: request panic marker {marker:?} matched");
                        }
                    }
                    entry.model.estimate(samples)
                }) {
                    Ok(result) => finish_job(shared, slot, &entry, job, result),
                    Err(panic_msg) => {
                        ModelCounters::bump(&slot.counters.isolated);
                        shared.bus.emit(Event::RequestIsolated {
                            request: job.request.kind.clone(),
                            detail: panic_msg.clone(),
                        });
                        let mut response = Response::error(format!(
                            "request isolated after panic: {panic_msg} \
                             (batch pass reported: {batch_panic})"
                        ));
                        response.model = Some(job.model.clone());
                        response.fingerprint = Some(entry.fingerprint.clone());
                        let _ = job.reply.send(response);
                    }
                }
            }
        }
    }
}

/// Builds the job's response from its estimate outcome, caches success,
/// and replies.
fn finish_job(
    shared: &ServerShared,
    slot: &ModelSlot,
    entry: &Arc<ModelEntry>,
    job: Job,
    result: Result<Estimate, SpireError>,
) {
    let response = match result {
        Err(e) => {
            let mut r = Response::error(e.to_string());
            r.model = Some(job.model.clone());
            r.fingerprint = Some(entry.fingerprint.clone());
            r.machine = entry.machine.clone();
            r
        }
        Ok(estimate) => {
            let mut r = Response::ok(&job.request.kind);
            r.model = Some(job.model.clone());
            r.fingerprint = Some(entry.fingerprint.clone());
            r.machine = entry.machine.clone();
            r.cached = Some(false);
            if job.request.kind == "analyze" {
                let report = BottleneckReport::new(&estimate, &shared.catalog);
                update_drift(slot, &report);
                let top = effective_top("analyze", job.request.top);
                r.throughput = Some(report.throughput());
                r.ranked = Some(report.top(top).to_vec());
            } else {
                r.throughput = Some(estimate.throughput());
                r.per_metric = Some(
                    estimate
                        .per_metric()
                        .iter()
                        .map(|(metric, me)| MetricResult {
                            metric: metric.to_string(),
                            merged: me.merged,
                            sample_count: me.sample_count,
                        })
                        .collect(),
                );
            }
            r
        }
    };
    if response.ok {
        let top = effective_top(&job.request.kind, job.request.top);
        let key = request_key(
            &job.request.kind,
            top,
            &entry.fingerprint,
            &job.samples_json,
        );
        slot.cache
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .put(key, response.clone());
    }
    let _ = job.reply.send(response);
}

/// Records ranking drift between the last two analyze reports — the
/// `stats` endpoint's `overlap@5` / Kendall-tau pair, which also keeps
/// the hardened rank statistics on a hot path.
fn update_drift(slot: &ModelSlot, report: &BottleneckReport) {
    let mut last = slot.last_report.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(prev) = last.as_ref() {
        let (overlap, tau) = prev.compare(report, 5);
        *slot.drift.lock().unwrap_or_else(|p| p.into_inner()) = Some((overlap, tau));
    }
    *last = Some(report.clone());
}
