//! The bounded read queue between connection handlers and workers, with
//! same-model coalescing on the pop side. It carries only
//! `estimate`/`analyze` requests; updates apply on their connection
//! thread.
//!
//! Backpressure is explicit: a push against a full queue is refused and
//! the caller sheds the request with a typed `request_shed` event — the
//! daemon never blocks a connection thread on queue space and never
//! drops silently. Workers pop *batches*: the oldest job plus every
//! other queued job for the same model (FIFO order preserved), which is
//! what feeds the coalesced SoA estimate path.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

use crate::proto::{Request, Response};

/// One queued estimate/analyze request.
pub struct Job {
    /// Target model name (validated against the registry at enqueue).
    pub model: String,
    /// The parsed request (kind is `estimate` or `analyze`).
    pub request: Request,
    /// Where the worker sends the response.
    pub reply: mpsc::Sender<Response>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Bounded multi-producer queue with coalescing consumers.
pub struct JobQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// A queue refusing pushes beyond `capacity` pending jobs.
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues `job`, or refuses it when the queue is full or closed.
    /// The refusal returns the job (so the caller can answer its reply
    /// channel) together with the depth observed.
    // The Err variant deliberately hands the whole Job back by value;
    // boxing it would put an allocation on the shed path.
    #[allow(clippy::result_large_err)]
    pub fn push(&self, job: Job) -> Result<(), (Job, usize)> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.closed || state.jobs.len() >= self.capacity {
            let depth = state.jobs.len();
            return Err((job, depth));
        }
        state.jobs.push_back(job);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next batch: the oldest job plus up to
    /// `max_batch - 1` other queued jobs for the same model, in FIFO
    /// order. Returns `None` once the queue is closed *and* drained, so
    /// no accepted request is ever abandoned at shutdown.
    pub fn pop_coalesced(&self, max_batch: usize) -> Option<Vec<Job>> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(first) = state.jobs.pop_front() {
                let model = first.model.clone();
                let mut batch = vec![first];
                let mut i = 0;
                while i < state.jobs.len() && batch.len() < max_batch.max(1) {
                    if state.jobs[i].model == model {
                        batch.push(state.jobs.remove(i).expect("index checked"));
                    } else {
                        i += 1;
                    }
                }
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Empties the queue, returning every pending job — the last-resort
    /// drain when no worker is left alive to answer them.
    pub fn drain(&self) -> Vec<Job> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.jobs.drain(..).collect()
    }

    /// Closes the queue: pushes start failing, and poppers drain what is
    /// left then observe `None`.
    pub fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// Pending job count (diagnostics only; racy by nature).
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .jobs
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(model: &str) -> Job {
        let (tx, _rx) = mpsc::channel();
        Job {
            model: model.to_owned(),
            request: Request::bare("estimate"),
            reply: tx,
        }
    }

    #[test]
    fn pop_coalesces_same_model_jobs_in_fifo_order() {
        let q = JobQueue::new(16);
        for m in ["a", "b", "a", "a", "b"] {
            q.push(job(m)).map_err(|_| ()).unwrap();
        }
        let batch = q.pop_coalesced(8).unwrap();
        assert_eq!(
            batch.iter().map(|j| j.model.as_str()).collect::<Vec<_>>(),
            ["a", "a", "a"]
        );
        let batch = q.pop_coalesced(8).unwrap();
        assert_eq!(
            batch.iter().map(|j| j.model.as_str()).collect::<Vec<_>>(),
            ["b", "b"]
        );
    }

    #[test]
    fn drain_empties_pending_jobs() {
        let q = JobQueue::new(8);
        for _ in 0..3 {
            q.push(job("a")).map_err(|_| ()).unwrap();
        }
        assert_eq!(q.drain().len(), 3);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn max_batch_caps_coalescing() {
        let q = JobQueue::new(16);
        for _ in 0..5 {
            q.push(job("a")).map_err(|_| ()).unwrap();
        }
        assert_eq!(q.pop_coalesced(2).unwrap().len(), 2);
        assert_eq!(q.pop_coalesced(2).unwrap().len(), 2);
        assert_eq!(q.pop_coalesced(2).unwrap().len(), 1);
    }

    #[test]
    fn full_queue_refuses_with_depth() {
        let q = JobQueue::new(2);
        q.push(job("a")).map_err(|_| ()).unwrap();
        q.push(job("a")).map_err(|_| ()).unwrap();
        let (_returned, depth) = q.push(job("a")).expect_err("third push sheds");
        assert_eq!(depth, 2);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = JobQueue::new(4);
        q.push(job("a")).map_err(|_| ()).unwrap();
        q.close();
        assert!(q.push(job("a")).is_err(), "closed queue refuses pushes");
        assert_eq!(q.pop_coalesced(8).unwrap().len(), 1);
        assert!(q.pop_coalesced(8).is_none());
    }
}
