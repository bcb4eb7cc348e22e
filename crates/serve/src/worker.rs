//! The worker pool's batch-processing loop.
//!
//! Workers pop coalesced same-model `estimate`/`analyze` batches from
//! the [`crate::queue`], estimate all of them in one
//! [`spire_core::SpireModel::estimate_batch`] call (bit-identical to
//! per-request estimation), and fan typed responses back to each
//! request's reply channel. The whole batch serves from one `Arc`'d
//! model entry cloned up front, so a concurrent hot reload can never
//! tear a batch: every response is attributable to exactly the snapshot
//! fingerprint it carries. Workers never touch the result cache (the
//! connection thread that built a request's key stores its answer), and
//! updates never reach them (they apply on their connection thread).
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
        process_batch(shared, batch);
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
    shared.ctx.emit(Event::StageStarted {
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
            shared.ctx.emit(Event::StageFinished {
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
                        shared.ctx.emit(Event::RequestIsolated {
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

/// Builds the job's response from its estimate outcome and replies.
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
