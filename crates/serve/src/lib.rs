//! spire-serve: a resident estimation/analysis daemon over SPIRE
//! snapshot models.
//!
//! The paper's deployment shape is train-once/analyze-many: a fitted
//! ensemble answers estimate and bottleneck-ranking queries for a stream
//! of workloads. This crate turns that CLI round trip into a long-running
//! service:
//!
//! - **Protocol** ([`frame`], [`proto`]): length-prefixed JSON frames on
//!   plain `std::net` sockets — no network crates, explicit payload caps.
//! - **Registry** ([`registry`]): named snapshot models behind
//!   `RwLock<Arc<...>>`, hot-reloaded by atomic swap through the existing
//!   checksum/salvage machinery; every response carries the fingerprint
//!   of the snapshot that produced it.
//! - **Queue + workers** ([`queue`], the worker pool in [`server`]):
//!   bounded queues whose overflow sheds requests with typed
//!   `request_shed` events; workers coalesce same-model requests into one
//!   `SpireModel::estimate_batch` call (bit-identical to per-request
//!   estimation) and contain request panics at the request boundary
//!   (`parallel::run_catching`).
//! - **Cache** ([`cache`]): per-model LRU of recent batch results keyed
//!   by request identity including the serving fingerprint.
//!
//! All serving decisions — sheds, isolations, reloads, salvages — are
//! typed events on the shared `DiagnosticsBus`, so the daemon's event
//! stream is greppable and its degraded state maps to the CLI's exit
//! code 2 convention.

#![forbid(unsafe_code)]

use std::time::Duration;

pub mod cache;
pub mod client;
pub mod frame;
pub mod proto;
pub mod queue;
pub mod registry;
pub mod server;
pub mod wal;
mod worker;

pub use client::{Client, ClientConfig};
pub use frame::FrameError;
pub use proto::{Request, Response};
pub use server::{ChaosConfig, Server, ServerConfig};
pub use wal::WalSettings;

/// Serving-layer errors.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure.
    Io(std::io::Error),
    /// Framing violation (oversize or truncated frame).
    Frame(FrameError),
    /// A request named a model the registry does not hold.
    UnknownModel(String),
    /// The server did not answer within the client's read timeout — a
    /// distinct, retryable condition (the request may still have been
    /// applied, which is what idempotency keys are for).
    Timeout(Duration),
    /// Any other protocol or load failure, with detail.
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Frame(e) => write!(f, "{e}"),
            ServeError::UnknownModel(name) => write!(f, "unknown model {name}"),
            ServeError::Timeout(limit) => {
                write!(f, "no response within {} ms", limit.as_millis())
            }
            ServeError::Protocol(detail) => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e)
    }
}
