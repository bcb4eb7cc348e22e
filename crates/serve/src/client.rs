//! A small synchronous client for the serve protocol, shared by the
//! `spire client` subcommand and the integration tests.
//!
//! Resilience lives here, not in the daemon: connects and shed responses
//! retry under bounded, seeded, jittered exponential backoff
//! ([`ClientConfig::retries`]), and a read timeout surfaces as the
//! distinct [`ServeError::Timeout`] — retryable, but *only* safely so
//! for requests carrying an idempotency key, because a timed-out update
//! may have committed before the response was lost.

use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::time::{Duration, Instant};

use spire_core::fault::FaultRng;
use spire_core::{MachineSpec, SampleSet};

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{Request, Response};
use crate::ServeError;

/// Client-side transport knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long one request waits for its response before surfacing
    /// [`ServeError::Timeout`].
    pub read_timeout: Duration,
    /// Maximum accepted response frame, in bytes.
    pub max_frame: usize,
    /// Extra attempts after the first for retryable failures (connect
    /// refused, timeout, shed). `0` preserves single-shot semantics.
    pub retries: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Ceiling on any single backoff delay.
    pub backoff_cap: Duration,
    /// Seed for backoff jitter, so retry schedules are reproducible.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(30),
            max_frame: 64 << 20,
            retries: 0,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            seed: 1,
        }
    }
}

impl ClientConfig {
    /// The jittered delay before retry attempt `attempt` (0-based):
    /// exponential in the attempt number, capped, then scaled by a
    /// seeded factor in `[0.5, 1.0)` so synchronized clients desynchronize.
    fn backoff(&self, attempt: u32, rng: &mut FaultRng) -> Duration {
        let exp = self
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.backoff_cap);
        let jitter = 0.5 + (rng.next_u64() % 1000) as f64 / 2000.0;
        exp.mul_f64(jitter)
    }
}

/// One connection to a spire-serve daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    config: ClientConfig,
}

/// Whether the timeout-class io error kinds occurred.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl Client {
    /// Connects to `addr` with default configuration (30 s timeout, no
    /// retries).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects to `addr` under `config`, retrying refused connects with
    /// jittered exponential backoff when `config.retries > 0`.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Client, ServeError> {
        let mut rng = FaultRng::new(config.seed);
        let mut attempt = 0;
        loop {
            match TcpStream::connect(&addr) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(config.read_timeout))?;
                    let read_half = stream.try_clone()?;
                    return Ok(Client {
                        reader: BufReader::new(read_half),
                        writer: BufWriter::new(stream),
                        config,
                    });
                }
                Err(e) if attempt < config.retries => {
                    let _ = e;
                    std::thread::sleep(config.backoff(attempt, &mut rng));
                    attempt += 1;
                }
                Err(e) => return Err(ServeError::Io(e)),
            }
        }
    }

    /// Waits until the daemon answers `ping`, reconnecting with backoff
    /// for up to `deadline` — the readiness poll behind
    /// `spire client ping --wait` (and CI's replacement for sleep loops).
    pub fn wait_ready(
        addr: impl ToSocketAddrs + Clone,
        config: ClientConfig,
        deadline: Duration,
    ) -> Result<Client, ServeError> {
        let start = Instant::now();
        let mut rng = FaultRng::new(config.seed);
        let mut attempt = 0;
        loop {
            match Client::connect_with(addr.clone(), config.clone()) {
                Ok(mut client) => match client.ping() {
                    Ok(r) if r.ok => return Ok(client),
                    Ok(_) | Err(_) if start.elapsed() < deadline => {}
                    Ok(r) => {
                        return Err(ServeError::Protocol(format!(
                            "daemon answered ping with {}",
                            r.error.unwrap_or_else(|| r.kind.clone())
                        )))
                    }
                    Err(e) => return Err(e),
                },
                Err(e) => {
                    if start.elapsed() >= deadline {
                        return Err(e);
                    }
                }
            }
            std::thread::sleep(config.backoff(attempt.min(6), &mut rng));
            attempt += 1;
        }
    }

    /// Sends one request and waits for its response. A read timeout maps
    /// to [`ServeError::Timeout`]; the connection should be considered
    /// desynced afterwards (a late response may still arrive on the wire).
    pub fn request(&mut self, request: &Request) -> Result<Response, ServeError> {
        let json = serde_json::to_string(request)
            .map_err(|e| ServeError::Protocol(format!("cannot serialize request: {e}")))?;
        write_frame(&mut self.writer, json.as_bytes()).map_err(ServeError::Io)?;
        let payload = match read_frame(&mut self.reader, self.config.max_frame) {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                return Err(ServeError::Protocol(
                    "server closed the connection".to_owned(),
                ))
            }
            Err(FrameError::Io(e)) if is_timeout(&e) => {
                return Err(ServeError::Timeout(self.config.read_timeout))
            }
            Err(e) => return Err(e.into()),
        };
        let text = std::str::from_utf8(&payload)
            .map_err(|e| ServeError::Protocol(format!("response is not UTF-8: {e}")))?;
        serde_json::from_str(text)
            .map_err(|e| ServeError::Protocol(format!("invalid response: {e}")))
    }

    /// Sends `request`, retrying timeouts and shed responses up to the
    /// configured budget with jittered exponential backoff. Responses
    /// (including errors) that are neither shed nor timeouts return
    /// immediately. Only reads are ever shed (updates bypass the job
    /// queue), so an update retries only on a timeout. Only safe for
    /// idempotent requests: a timed-out update without a `key` may apply
    /// twice.
    pub fn request_with_retry(&mut self, request: &Request) -> Result<Response, ServeError> {
        let mut rng = FaultRng::new(self.config.seed);
        let mut attempt = 0;
        loop {
            match self.request(request) {
                Ok(r) if r.shed == Some(true) && attempt < self.config.retries => {}
                Ok(r) => return Ok(r),
                Err(ServeError::Timeout(_)) if attempt < self.config.retries => {}
                Err(e) => return Err(e),
            }
            std::thread::sleep(self.config.backoff(attempt, &mut rng));
            attempt += 1;
        }
    }

    /// `ping` → expects `pong`.
    pub fn ping(&mut self) -> Result<Response, ServeError> {
        self.request(&Request::bare("ping"))
    }

    /// `estimate` of `samples` under `model`.
    pub fn estimate(&mut self, model: &str, samples: &SampleSet) -> Result<Response, ServeError> {
        let mut request = Request::bare("estimate");
        request.model = Some(model.to_owned());
        request.samples = Some(samples.clone());
        self.request(&request)
    }

    /// `analyze` of `samples` under `model`, returning the top `top` rows.
    pub fn analyze(
        &mut self,
        model: &str,
        samples: &SampleSet,
        top: Option<usize>,
    ) -> Result<Response, ServeError> {
        let mut request = Request::bare("analyze");
        request.model = Some(model.to_owned());
        request.samples = Some(samples.clone());
        request.top = top;
        self.request(&request)
    }

    /// `update`: streams one sample batch into `model`'s online trainer,
    /// journaled before acknowledgment. With a `key`, retries of the
    /// same batch are applied at most once, and a timeout retries under
    /// the configured budget.
    pub fn update(
        &mut self,
        model: &str,
        samples: &SampleSet,
        key: Option<&str>,
    ) -> Result<Response, ServeError> {
        self.update_tagged(model, samples, key, None)
    }

    /// [`update`](Client::update) with the batch's machine tag attached:
    /// the daemon refuses the batch when the served model is tagged with
    /// a *different* machine (the same policy as fingerprint mismatches).
    /// An untagged batch against a tagged model passes — absence is
    /// legacy, not a mismatch.
    pub fn update_tagged(
        &mut self,
        model: &str,
        samples: &SampleSet,
        key: Option<&str>,
        machine: Option<&MachineSpec>,
    ) -> Result<Response, ServeError> {
        let mut request = Request::bare("update");
        request.model = Some(model.to_owned());
        request.samples = Some(samples.clone());
        request.key = key.map(str::to_owned);
        request.machine = machine.cloned();
        if key.is_some() {
            self.request_with_retry(&request)
        } else {
            self.request(&request)
        }
    }

    /// `reload` of `model`, optionally from a new snapshot path.
    pub fn reload(&mut self, model: &str, path: Option<&Path>) -> Result<Response, ServeError> {
        let mut request = Request::bare("reload");
        request.model = Some(model.to_owned());
        request.path = path.map(|p| p.display().to_string());
        self.request(&request)
    }

    /// `stats` counters.
    pub fn stats(&mut self) -> Result<Response, ServeError> {
        self.request(&Request::bare("stats"))
    }

    /// Asks the daemon to shut down cleanly.
    pub fn shutdown(&mut self) -> Result<Response, ServeError> {
        self.request(&Request::bare("shutdown"))
    }
}
