//! A `spire serve` child process: spawned, timed to its first answered
//! `ping`, queried, and always stopped and reaped.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use spire_serve::proto::ModelStats;
use spire_serve::{Client, ClientConfig};

/// The model name every workload serves.
pub const MODEL: &str = "spire";

pub fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    }
}

pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// Spawn until the first answered `ping`, in seconds.
    pub setup_s: f64,
    pub events: PathBuf,
}

impl Daemon {
    /// Starts `spire serve` on `snapshot` with a journal in `wal_dir`.
    pub fn spawn(
        spire: &Path,
        snapshot: &Path,
        wal_dir: &Path,
        compact_every: usize,
        events: PathBuf,
    ) -> Result<Daemon, String> {
        let start = Instant::now();
        let mut child = Command::new(spire)
            .arg("serve")
            .arg(format!("{MODEL}={}", snapshot.display()))
            .args(["--addr", "127.0.0.1:0", "--wal-dir"])
            .arg(wal_dir)
            .args(["--wal-compact", &compact_every.to_string(), "--events"])
            .arg(&events)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", spire.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("spire-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_owned);
        let mut daemon = Daemon {
            child,
            stdout,
            addr: addr.clone().unwrap_or_default(),
            setup_s: 0.0,
            events,
        };
        if read.is_err() || addr.is_none() {
            return Err(format!("spire serve did not report its address: {line:?}"));
        }
        Client::wait_ready(
            daemon.addr.as_str(),
            client_config(),
            Duration::from_secs(120),
        )
        .map_err(|e| format!("spire serve never answered ping: {e}"))?;
        daemon.setup_s = start.elapsed().as_secs_f64();
        Ok(daemon)
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect_with(self.addr.as_str(), client_config())
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    /// The served model's counters.
    pub fn stats(&self) -> Result<ModelStats, String> {
        let response = self.client()?.stats().map_err(|e| e.to_string())?;
        response
            .stats
            .and_then(|s| s.models.into_iter().find(|m| m.name == MODEL))
            .ok_or_else(|| "stats response lacks the served model".to_owned())
    }

    /// Peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read daemon status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "daemon status has no VmHWM".to_owned())
    }

    /// Asks for a clean shutdown and reaps the process.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self
            .client()
            .and_then(|mut c| c.shutdown().map(drop).map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let exited = self.child.try_wait();
            if let Ok(Some(_)) = exited {
                // The exit summary is a few lines; the pipe is closed now.
                let _ = self.stdout.read_to_end(&mut Vec::new());
            }
            match exited {
                Ok(Some(status)) if status.success() || status.code() == Some(2) => return asked,
                Ok(Some(status)) => return Err(format!("spire serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("spire serve did not stop after shutdown".to_owned());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One line of the daemon's `--events` stream (fields other kinds carry
/// are ignored).
#[derive(Debug, serde::Deserialize)]
struct EventLine {
    kind: String,
    stage: Option<String>,
    wall_ms: Option<f64>,
    items_out: Option<usize>,
}

/// What the daemon's event stream recorded.
#[derive(Debug, Default)]
pub struct EventSummary {
    /// `(wall_ms, requests)` of every `serve-batch` stage.
    pub batches: Vec<(f64, usize)>,
    pub compactions: usize,
}

pub fn read_events(path: &Path) -> Result<EventSummary, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut summary = EventSummary::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let event: EventLine =
            serde_json::from_str(line).map_err(|e| format!("bad event line {line:?}: {e}"))?;
        match event.kind.as_str() {
            "stage_finished" if event.stage.as_deref() == Some("serve-batch") => summary
                .batches
                .push((event.wall_ms.unwrap_or(0.0), event.items_out.unwrap_or(0))),
            "wal_compacted" => summary.compactions += 1,
            _ => {}
        }
    }
    Ok(summary)
}
