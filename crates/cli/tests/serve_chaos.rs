//! End-to-end crash harness for the daemon's durable update path.
//!
//! These tests drive the real `spire` binary: train a snapshot, serve it
//! with a write-ahead journal, stream live updates, and SIGKILL the
//! daemon — no drain, no flush — then restart on the same journal and
//! assert the served model is exactly the last acknowledged state. The
//! byte-level torn-tail cases are pinned by the serve crate's
//! kill-at-every-offset test; this file proves the same contract holds
//! through the CLI surface (`serve --wal-dir`, `update --via-server`,
//! `client ping --wait`) across real process boundaries.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use spire_core::{ModelSnapshot, SampleSet, SpireModel};
use spire_counters::Dataset;
use spire_serve::{Client, ClientConfig};

fn spire() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spire"))
}

/// An OS-assigned free port. The listener is dropped before use; the
/// tiny race with other processes is acceptable for a test.
fn free_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    format!("127.0.0.1:{}", listener.local_addr().unwrap().port())
}

/// Shared corpus: a base dataset, five update batches, and a snapshot
/// trained from the base — built once with the real binary.
struct Fixture {
    dir: PathBuf,
    base: PathBuf,
    batches: Vec<PathBuf>,
    snapshot: PathBuf,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("spire-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let collect = |out: &Path, set: &str, seed: u64| {
            let status = spire()
                .args(["collect", "--out"])
                .arg(out)
                .args([
                    "--cycles",
                    "1200",
                    "--set",
                    set,
                    "--seed",
                    &seed.to_string(),
                ])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .expect("spawn spire collect");
            assert!(status.success(), "collect into {} failed", out.display());
        };
        collect(&base, "train", 7);
        let batches: Vec<PathBuf> = (0..5)
            .map(|i| {
                let path = dir.join(format!("batch_{i}.json"));
                collect(&path, "test", 100 + i);
                path
            })
            .collect();
        let snapshot = dir.join("model.json");
        let status = spire()
            .args(["train", "--data"])
            .arg(&base)
            .arg("--snapshot")
            .arg(&snapshot)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("spawn spire train");
        assert!(status.success(), "training the fixture snapshot failed");
        Fixture {
            dir,
            base,
            batches,
            snapshot,
        }
    })
}

/// Starts the daemon and waits for readiness with `client ping --wait`
/// (a readiness poll instead of sleep loops). Its output goes to
/// `NAME.log` and its event stream to `NAME.events.jsonl` in the fixture
/// directory.
fn start_daemon(f: &Fixture, name: &str, addr: &str, wal: &Path) -> Child {
    let log = std::fs::File::create(f.dir.join(format!("{name}.log"))).unwrap();
    let child = spire()
        .arg("serve")
        .arg(format!("m={}", f.snapshot.display()))
        .args(["--addr", addr, "--workers", "2"])
        .arg("--wal-dir")
        .arg(wal)
        .arg("--events")
        .arg(f.dir.join(format!("{name}.events.jsonl")))
        .stdout(log.try_clone().unwrap())
        .stderr(log)
        .spawn()
        .expect("spawn spire serve");
    wait_ready(addr);
    child
}

/// Blocks until the daemon at `addr` answers a ping.
fn wait_ready(addr: &str) {
    let status = spire()
        .args([
            "client",
            "ping",
            "--addr",
            addr,
            "--wait",
            "--timeout-ms",
            "15000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn spire client ping --wait");
    assert!(status.success(), "daemon at {addr} never became ready");
}

/// The text of the daemon output or event file `file` in the fixture
/// directory.
fn read(f: &Fixture, file: &str) -> String {
    std::fs::read_to_string(f.dir.join(file)).unwrap()
}

fn connect(addr: &str) -> Client {
    Client::connect_with(addr, ClientConfig::default()).expect("connect to daemon")
}

/// The daemon's served state for model `m`: (last_seq, fingerprint).
fn served_state(addr: &str) -> (u64, String) {
    let stats = connect(addr).stats().expect("stats request");
    let m = stats
        .stats
        .as_ref()
        .and_then(|s| s.models.iter().find(|m| m.name == "m"))
        .expect("daemon serves model m");
    (m.last_seq.expect("wal enabled"), m.fingerprint.clone())
}

/// Fingerprint the journaled trainer must reach after the first `k`
/// batches of `sets`, computed independently by clean retraining.
fn expected_fingerprint(f: &Fixture, sets: &[SampleSet], k: usize) -> String {
    if k == 0 {
        let text = std::fs::read_to_string(&f.snapshot).unwrap();
        return ModelSnapshot::from_json(&text).unwrap().fingerprint();
    }
    let config = {
        let text = std::fs::read_to_string(&f.snapshot).unwrap();
        ModelSnapshot::from_json(&text).unwrap().config
    };
    let mut merged = SampleSet::new();
    for set in &sets[..k] {
        merged.merge(set.clone());
    }
    let model = SpireModel::train(&merged, config).unwrap();
    ModelSnapshot::from_model(&model).unwrap().fingerprint()
}

#[test]
fn sigkill_between_acked_updates_recovers_the_acked_state() {
    let f = fixture();
    let wal = f.dir.join("wal_acked");
    let addr = free_addr();
    let mut daemon = start_daemon(f, "acked-1", &addr, &wal);

    let base = Dataset::load(f.base.to_str().unwrap()).unwrap().merged();
    let batch = Dataset::load(f.batches[0].to_str().unwrap())
        .unwrap()
        .merged();

    let mut client = connect(&addr);
    let a = client.update("m", &base, Some("chaos-a")).unwrap();
    assert!(a.ok, "{:?}", a.error);
    assert_eq!(a.seq, Some(1));
    let b = client.update("m", &batch, Some("chaos-b")).unwrap();
    assert!(b.ok, "{:?}", b.error);
    assert_eq!(b.seq, Some(2));
    let acked_fp = b
        .fingerprint
        .clone()
        .expect("update acks carry a fingerprint");

    // SIGKILL: no drain, no final fsync beyond the per-commit ones.
    daemon.kill().expect("kill daemon");
    daemon.wait().expect("reap daemon");

    let addr2 = free_addr();
    let mut daemon2 = start_daemon(f, "acked-2", &addr2, &wal);
    let (seq, fp) = served_state(&addr2);
    assert_eq!(seq, 2, "both acked updates must survive the kill");
    assert_eq!(fp, acked_fp, "served model must be the last acked state");

    // The dedup window is journaled too: retrying an acked key after the
    // crash is recognized, not re-applied.
    let mut client2 = connect(&addr2);
    let retry = client2.update("m", &batch, Some("chaos-b")).unwrap();
    assert!(retry.ok, "{:?}", retry.error);
    assert_eq!(retry.applied, Some(false));
    assert_eq!(retry.seq, Some(2));
    assert_eq!(retry.fingerprint.as_deref(), Some(acked_fp.as_str()));

    // And the journal keeps rolling: a fresh key advances the sequence.
    let c = client2.update("m", &base, Some("chaos-c")).unwrap();
    assert!(c.ok, "{:?}", c.error);
    assert_eq!(c.seq, Some(3));

    let _ = client2.shutdown();
    let _ = daemon2.wait();

    // Journaled updates are events too, and a shutdown request ends the
    // daemon cleanly; neither run panicked.
    assert!(read(f, "acked-1.events.jsonl").contains(r#""kind":"model_updated""#));
    let log = read(f, "acked-2.log");
    assert!(log.contains("spire-serve shut down cleanly"), "{log}");
    for name in ["acked-1.log", "acked-2.log"] {
        let log = read(f, name);
        assert!(!log.to_lowercase().contains("panic"), "{name}: {log}");
    }
}

#[test]
fn sigkill_mid_update_stream_recovers_an_acked_prefix() {
    let f = fixture();
    let wal = f.dir.join("wal_stream");
    let addr = free_addr();
    let mut daemon = start_daemon(f, "stream-1", &addr, &wal);

    // Stream base + 5 batches through the real `update --via-server`
    // client in a child process, and SIGKILL the daemon once at least
    // one batch has been acknowledged.
    let mut stream = spire()
        .args([
            "update",
            "--via-server",
            "--addr",
            &addr,
            "--model",
            "m",
            "--data",
        ])
        .arg(&f.base)
        .args(f.batches.iter().map(|p| p.as_os_str()))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn spire update --via-server");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (seq, _) = served_state(&addr);
        if seq >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "stream never applied a batch");
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.kill().expect("kill daemon mid-stream");
    daemon.wait().expect("reap daemon");
    // The client may have finished or died on the broken connection;
    // either way it must not be left running.
    let _ = stream.kill();
    let _ = stream.wait();

    let addr2 = free_addr();
    let mut daemon2 = start_daemon(f, "stream-2", &addr2, &wal);
    let (seq, fp) = served_state(&addr2);
    let sets: Vec<SampleSet> = std::iter::once(&f.base)
        .chain(f.batches.iter())
        .map(|p| Dataset::load(p.to_str().unwrap()).unwrap().merged())
        .collect();
    assert!(
        (1..=sets.len() as u64).contains(&seq),
        "recovered seq {seq} outside the streamed range"
    );
    // The recovered model is exactly the acked prefix: bit-identical to
    // retraining from scratch on the first `seq` batches.
    assert_eq!(
        fp,
        expected_fingerprint(f, &sets, seq as usize),
        "recovered model is not the acked {seq}-batch prefix"
    );

    // Recovery is not read-only: the stream can resume where it left off.
    let mut client = connect(&addr2);
    let next = client
        .update("m", &sets[seq as usize % sets.len()], Some("resume-0"))
        .unwrap();
    assert!(next.ok, "{:?}", next.error);
    assert_eq!(next.seq, Some(seq + 1));

    let _ = client.shutdown();
    let _ = daemon2.wait();
}

#[test]
fn served_estimates_from_binary_dataset_are_bit_identical_to_json() {
    let f = fixture();

    // Re-encode the base dataset into the binary column format with the
    // real binary, then ask a running daemon for estimates through both
    // encodings of the same data — the full `--json` client envelopes
    // (float text at full precision) must match byte for byte.
    let binary = f.dir.join("base.spirecol");
    let status = spire()
        .args(["convert", "--data"])
        .arg(&f.base)
        .arg("--out")
        .arg(&binary)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn spire convert");
    assert!(status.success(), "convert to binary failed");

    let label = Dataset::load(f.base.to_str().unwrap())
        .unwrap()
        .iter()
        .next()
        .expect("fixture dataset has workloads")
        .0
        .to_owned();

    let wal = f.dir.join("wal_binfmt");
    let addr = free_addr();
    let mut daemon = start_daemon(f, "binfmt", &addr, &wal);
    let estimate = |data: &Path| {
        let out = spire()
            .args(["client", "estimate", "--addr", &addr, "--model", "m"])
            .arg("--data")
            .arg(data)
            .args(["--workload", &label, "--json"])
            .stderr(Stdio::null())
            .output()
            .expect("spawn spire client estimate");
        assert!(out.status.success(), "client estimate failed");
        String::from_utf8(out.stdout).expect("UTF-8 envelope")
    };
    let from_json = estimate(&f.base);
    let from_binary = estimate(&binary);
    assert!(!from_json.is_empty());

    // The daemon's LRU keys on a hash of the request's serialized
    // samples, so the second request answering from cache is itself
    // proof the binary-loaded samples are bit-identical to the
    // JSON-loaded ones. Everything else in the envelope must match
    // byte for byte.
    assert!(from_json.contains("\"cached\": false"), "{from_json}");
    assert!(
        from_binary.contains("\"cached\": true"),
        "binary-loaded samples missed the cache: not bit-identical"
    );
    assert_eq!(
        from_json.replace("\"cached\": false", "\"cached\": true"),
        from_binary,
        "served estimates differ between dataset encodings"
    );

    let _ = connect(&addr).shutdown();
    let _ = daemon.wait();
}

#[test]
fn serve_json_prints_one_envelope_with_the_batch_events() {
    let f = fixture();
    let addr = free_addr();
    let out = f.dir.join("json.out");
    let mut daemon = spire()
        .arg("serve")
        .arg(format!("m={}", f.snapshot.display()))
        .args(["--addr", &addr, "--json"])
        .stdout(std::fs::File::create(&out).unwrap())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn spire serve --json");
    wait_ready(&addr);

    let base = Dataset::load(f.base.to_str().unwrap()).unwrap().merged();
    let mut client = connect(&addr);
    let estimate = client.estimate("m", &base).unwrap();
    assert!(estimate.ok, "{:?}", estimate.error);
    let _ = client.shutdown();
    assert!(daemon.wait().expect("reap daemon").success());

    // The listening line comes first; the envelope replaces the
    // shutdown summary.
    let stdout = read(f, "json.out");
    let (listening, envelope) = stdout.split_once('\n').expect("two parts");
    assert!(
        listening.starts_with("spire-serve listening on "),
        "{stdout}"
    );
    assert!(
        envelope.starts_with("{\n  \"command\": \"serve\","),
        "{stdout}"
    );
    assert!(!envelope.contains("shut down cleanly"), "{stdout}");
    assert!(
        envelope.contains("\"kind\": \"stage_finished\",\n      \"stage\": \"serve-batch\""),
        "{envelope}"
    );
}
