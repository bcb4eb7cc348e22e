//! End-to-end tests for the spire-serve daemon: a real listener on an
//! ephemeral port, real client connections, concurrent load, malformed
//! and oversize frames, mid-flight hot reload, and shed-under-load.
//!
//! The invariants under test:
//! - serve-path estimates are bit-identical to direct
//!   `SpireModel::estimate` on the same samples;
//! - every response is attributable to exactly one snapshot fingerprint,
//!   even while `reload` races in-flight requests (no torn models);
//! - a full queue sheds with a typed refusal and a `request_shed` event,
//!   never a silent drop or a hang;
//! - protocol garbage is rejected without killing the daemon.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use spire_core::pipeline::{CollectingSink, EventSink};
use spire_core::{
    write_atomic, ModelSnapshot, Sample, SampleSet, SpireModel, TrainConfig, TrainStrictness,
};
use spire_serve::frame::{read_frame, write_frame};
use spire_serve::{Client, Request, Server, ServerConfig};

/// A deterministic multi-metric training set; `scale` perturbs the
/// ceilings so different scales train to different fingerprints.
fn training_set(scale: f64) -> SampleSet {
    let mut set = SampleSet::new();
    for (m, metric) in ["m_alpha", "m_beta", "m_gamma"].iter().enumerate() {
        for i in 1..20 {
            let x = (i * (m + 2)) as f64;
            let y = (60.0 * scale - i as f64).max(1.0);
            set.push(Sample::new(*metric, 10.0, x, y).unwrap());
        }
    }
    set
}

/// A request workload: same metrics, spread varied by `salt` so distinct
/// workloads produce distinct estimates (and distinct cache keys).
fn workload(salt: usize) -> SampleSet {
    let mut set = SampleSet::new();
    for (m, metric) in ["m_alpha", "m_beta", "m_gamma"].iter().enumerate() {
        for i in 1..10 {
            let x = (i * (m + 2) + salt) as f64;
            let y = (30.0 - i as f64 - salt as f64 * 0.25).max(1.0);
            set.push(Sample::new(*metric, 5.0 + salt as f64, x, y).unwrap());
        }
    }
    set
}

fn train(scale: f64) -> SpireModel {
    SpireModel::train_with_report(
        &training_set(scale),
        TrainConfig::default(),
        TrainStrictness::Strict,
    )
    .unwrap()
    .model
}

fn snapshot_to(path: &std::path::Path, model: &SpireModel) -> String {
    let snapshot = ModelSnapshot::from_model(model).unwrap();
    write_atomic(path, &snapshot.to_json()).unwrap();
    snapshot.fingerprint()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spire-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Binds a daemon on an ephemeral port and runs it on a background
/// thread. Returns the address, the shared state, the collecting sink,
/// and the join handle yielding `run()`'s degraded flag.
#[allow(clippy::type_complexity)]
fn start(
    config: ServerConfig,
    models: Vec<(String, PathBuf)>,
) -> (
    String,
    Arc<spire_serve::server::ServerShared>,
    Arc<CollectingSink>,
    thread::JoinHandle<Result<bool, spire_serve::ServeError>>,
) {
    let sink = Arc::new(CollectingSink::new());
    let sinks: Vec<Arc<dyn EventSink>> = vec![sink.clone()];
    let server = Server::bind(config, models, sinks).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let shared = server.shared();
    let handle = thread::spawn(move || server.run());
    (addr, shared, sink, handle)
}

#[test]
fn concurrent_clients_match_direct_estimates_bit_for_bit() {
    let dir = temp_dir("concurrent");
    let model = train(1.0);
    let path = dir.join("model.json");
    let fingerprint = snapshot_to(&path, &model);

    let (addr, _shared, sink, handle) =
        start(ServerConfig::default(), vec![("m".to_owned(), path)]);

    // Expected throughputs straight from the library.
    let expected: Vec<u64> = (0..4)
        .map(|salt| {
            model
                .estimate(&workload(salt))
                .unwrap()
                .throughput()
                .to_bits()
        })
        .collect();

    let mut clients = Vec::new();
    for t in 0..8 {
        let addr = addr.clone();
        let expected = expected.clone();
        clients.push(thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            for round in 0..6 {
                let salt = (t + round) % 4;
                let response = client.estimate("m", &workload(salt)).unwrap();
                assert!(response.ok, "estimate failed: {:?}", response.error);
                assert_eq!(
                    response.throughput.unwrap().to_bits(),
                    expected[salt],
                    "serve-path estimate diverged from the direct API"
                );
                let per_metric = response.per_metric.as_ref().unwrap();
                assert_eq!(per_metric.len(), 3);
                let analyze = client.analyze("m", &workload(salt), Some(2)).unwrap();
                assert!(analyze.ok);
                assert_eq!(analyze.ranked.as_ref().unwrap().len(), 2);
            }
        }));
    }
    for client in clients {
        client.join().unwrap();
    }

    let mut control = Client::connect(&addr).unwrap();
    let stats = control.stats().unwrap().stats.unwrap();
    let m = &stats.models[0];
    assert_eq!(m.fingerprint, fingerprint);
    assert_eq!(m.estimates + m.analyzes, 96, "all requests accounted for");
    assert_eq!(m.isolated, 0, "no server panics");
    assert!(
        m.cache_hits > 0,
        "repeated identical requests should hit the cache"
    );
    // Two analyzes happened, so drift (overlap@5, kendall tau) between
    // the last two rankings is populated and finite — this is the
    // hardened rank-statistics path under real traffic.
    let overlap = m.drift_overlap.expect("drift overlap recorded");
    let tau = m.drift_tau.expect("drift tau recorded");
    assert!((0.0..=1.0).contains(&overlap));
    assert!((-1.0..=1.0).contains(&tau));
    control.shutdown().unwrap();

    let degraded = handle.join().unwrap().unwrap();
    assert!(!degraded, "a clean run must not be degraded");
    assert!(
        !sink.events().iter().any(|e| e.kind() == "request_isolated"),
        "no requests should have been isolated"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_and_oversize_frames_are_rejected_without_killing_the_daemon() {
    let dir = temp_dir("frames");
    let path = dir.join("model.json");
    snapshot_to(&path, &train(1.0));
    let config = ServerConfig {
        max_frame: 4096,
        ..ServerConfig::default()
    };
    let (addr, _shared, _sink, handle) = start(config, vec![("m".to_owned(), path)]);

    // Garbage JSON in a well-formed frame: typed error, stream stays in
    // sync, the same connection keeps working.
    let mut stream = TcpStream::connect(&addr).unwrap();
    write_frame(&mut stream, b"this is not json").unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    let text = std::str::from_utf8(&payload).unwrap();
    assert!(text.contains("invalid request"), "got: {text}");
    write_frame(&mut stream, b"{\"kind\":\"ping\"}").unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    assert!(std::str::from_utf8(&payload).unwrap().contains("pong"));

    // Non-UTF-8 payload: typed error.
    let mut stream = TcpStream::connect(&addr).unwrap();
    write_frame(&mut stream, &[0xff, 0xfe, 0x80]).unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    assert!(std::str::from_utf8(&payload).unwrap().contains("not UTF-8"));

    // Oversize declared length: refused before allocation, answered,
    // then the (desynced) connection is closed.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(&(8192u32).to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let payload = read_frame(&mut stream, 1 << 20).unwrap().unwrap();
    assert!(std::str::from_utf8(&payload)
        .unwrap()
        .contains("exceeds the 4096-byte cap"));
    assert!(
        read_frame(&mut stream, 1 << 20).unwrap().is_none(),
        "oversize connection must be closed"
    );

    // A truncated frame (prefix promises more than arrives) only drops
    // that connection.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(&(100u32).to_be_bytes()).unwrap();
    stream.write_all(b"short").unwrap();
    drop(stream);

    // Unknown request kinds and unknown models get typed errors.
    let mut client = Client::connect(&addr).unwrap();
    let response = client.request(&Request::bare("frobnicate")).unwrap();
    assert!(!response.ok);
    assert!(response.error.unwrap().contains("unknown request kind"));
    let response = client.estimate("nope", &workload(0)).unwrap();
    assert!(!response.ok);
    assert!(response.error.unwrap().contains("unknown model"));
    let response = client.request(&Request::bare("estimate")).unwrap();
    assert!(!response.ok, "estimate without a model must fail");

    // The daemon survived all of it.
    assert!(client.ping().unwrap().ok);
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_flight_reload_never_tears_a_model() {
    let dir = temp_dir("reload");
    let path = dir.join("model.json");
    let model_a = train(1.0);
    let model_b = train(1.7);
    let fp_a = snapshot_to(&path, &model_a);
    let fp_b = ModelSnapshot::from_model(&model_b).unwrap().fingerprint();
    assert_ne!(fp_a, fp_b, "the two snapshots must be distinguishable");

    // Cache off: every response must come from a real estimate pass.
    let config = ServerConfig {
        cache_capacity: 0,
        workers: 3,
        ..ServerConfig::default()
    };
    let (addr, _shared, sink, handle) = start(config, vec![("m".to_owned(), path.clone())]);

    // Every (workload, fingerprint) pair has exactly one right answer.
    let expected: Vec<[u64; 2]> = (0..4)
        .map(|salt| {
            [
                model_a
                    .estimate(&workload(salt))
                    .unwrap()
                    .throughput()
                    .to_bits(),
                model_b
                    .estimate(&workload(salt))
                    .unwrap()
                    .throughput()
                    .to_bits(),
            ]
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let mut hammers = Vec::new();
    for t in 0..4usize {
        let addr = addr.clone();
        let expected = expected.clone();
        let fp_a = fp_a.clone();
        let fp_b = fp_b.clone();
        let stop = stop.clone();
        hammers.push(thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            let mut checked = 0usize;
            let mut round = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let salt = (t + round) % 4;
                round += 1;
                let response = client.estimate("m", &workload(salt)).unwrap();
                assert!(response.ok, "estimate failed: {:?}", response.error);
                let fp = response.fingerprint.as_deref().unwrap();
                let want = if fp == fp_a {
                    expected[salt][0]
                } else if fp == fp_b {
                    expected[salt][1]
                } else {
                    panic!("response carries unknown fingerprint {fp}");
                };
                assert_eq!(
                    response.throughput.unwrap().to_bits(),
                    want,
                    "throughput does not match the fingerprint's model: torn reload"
                );
                checked += 1;
            }
            checked
        }));
    }

    // Flip the snapshot on disk and hot-reload, repeatedly, while the
    // hammers are mid-flight.
    let mut control = Client::connect(&addr).unwrap();
    let mut current_is_a = true;
    for _ in 0..8 {
        thread::sleep(Duration::from_millis(30));
        let next = if current_is_a { &model_b } else { &model_a };
        snapshot_to(&path, next);
        let response = control.reload("m", None).unwrap();
        assert!(response.ok, "reload failed: {:?}", response.error);
        let info = response.reloaded.unwrap();
        assert_eq!(
            info.new_fingerprint,
            if current_is_a {
                fp_b.clone()
            } else {
                fp_a.clone()
            }
        );
        current_is_a = !current_is_a;
    }
    stop.store(true, Ordering::Relaxed);
    let checked: usize = hammers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(
        checked > 32,
        "hammers should have exercised the swap window"
    );

    let reload_events = sink
        .events()
        .iter()
        .filter(|e| e.kind() == "model_reloaded")
        .count();
    assert_eq!(reload_events, 8);
    let stats = control.stats().unwrap().stats.unwrap();
    assert_eq!(stats.models[0].reloads, 8, "stats counts every reload");
    control.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_with_typed_refusals_and_events() {
    let dir = temp_dir("shed");
    let path = dir.join("model.json");
    snapshot_to(&path, &train(1.0));
    // One worker, a one-slot queue: concurrent pushers must overflow.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        cache_capacity: 0,
        ..ServerConfig::default()
    };
    let (addr, shared, sink, handle) = start(config, vec![("m".to_owned(), path)]);

    let mut total_ok = 0usize;
    let mut total_shed = 0usize;
    // Rounds of 16 simultaneous estimates against the one-slot queue;
    // retry until sheds appear (they essentially always do in round 1).
    for _round in 0..10 {
        let mut senders = Vec::new();
        for t in 0..16usize {
            let addr = addr.clone();
            senders.push(thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let response = client.estimate("m", &workload(t % 4)).unwrap();
                (response.ok, response.shed == Some(true), response.error)
            }));
        }
        for sender in senders {
            let (ok, shed, error) = sender.join().unwrap();
            if shed {
                assert!(!ok, "a shed response must not claim success");
                assert!(
                    error.unwrap().contains("queue full"),
                    "shed refusals must say why"
                );
                total_shed += 1;
            } else {
                assert!(ok, "non-shed responses must succeed: {error:?}");
                total_ok += 1;
            }
        }
        if total_shed > 0 {
            break;
        }
    }
    assert!(total_shed > 0, "overload never shed");
    assert!(total_ok > 0, "someone must still have been served");

    let shed_events = sink
        .events()
        .iter()
        .filter(|e| e.kind() == "request_shed")
        .count();
    assert_eq!(
        shed_events, total_shed,
        "every shed refusal must also be a bus event"
    );
    assert!(shared.bus.degraded(), "sheds flip the degraded flag");

    let mut control = Client::connect(&addr).unwrap();
    let stats = control.stats().unwrap().stats.unwrap();
    assert_eq!(stats.models[0].shed, total_shed as u64);
    assert_eq!(stats.models[0].isolated, 0);
    control.shutdown().unwrap();
    let degraded = handle.join().unwrap().unwrap();
    assert!(degraded, "a shedding run reports degraded at exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn machine_tags_flow_through_responses_and_gate_updates() {
    use spire_core::{MachinePeaks, MachineSpec, SnapshotProvenance};

    fn spec(name: &str, fp: &str) -> MachineSpec {
        MachineSpec {
            name: name.to_owned(),
            fingerprint: fp.to_owned(),
            peaks: MachinePeaks {
                throughput: 4.0,
                bandwidth: std::collections::BTreeMap::new(),
            },
            normalized: false,
        }
    }

    let dir = temp_dir("machine");
    let model = train(1.0);
    let path = dir.join("model.json");
    let machine = spec("skylake-server", "aaaaaaaaaaaaaaaa");
    let snapshot = ModelSnapshot::from_model(&model)
        .unwrap()
        .with_provenance(SnapshotProvenance {
            machine: Some(machine.clone()),
            ..SnapshotProvenance::default()
        });
    write_atomic(&path, &snapshot.to_json()).unwrap();

    let config = ServerConfig {
        wal: Some(spire_serve::WalSettings::new(dir.join("wal"))),
        ..ServerConfig::default()
    };
    let (addr, shared, sink, handle) = start(config, vec![("m".to_owned(), path)]);
    let mut client = Client::connect(&addr).unwrap();

    // Estimate responses and stats carry the served model's machine tag.
    let response = client.estimate("m", &workload(0)).unwrap();
    assert!(response.ok);
    let served = response.machine.expect("estimate response carries machine");
    assert_eq!(served.name, "skylake-server");
    assert_eq!(served.fingerprint, "aaaaaaaaaaaaaaaa");
    let stats = client.stats().unwrap().stats.unwrap();
    assert_eq!(
        stats.models[0].machine.as_ref().unwrap().name,
        "skylake-server"
    );

    // An update tagged with a different machine is refused with a typed
    // error and exactly one machine_mismatch bus event.
    let foreign = spec("little", "bbbbbbbbbbbbbbbb");
    let refused = client
        .update_tagged("m", &workload(1), Some("k-mismatch"), Some(&foreign))
        .unwrap();
    assert!(!refused.ok, "cross-machine update must be refused");
    let detail = refused.error.unwrap();
    assert!(detail.contains("machine mismatch"), "{detail}");
    assert!(
        detail.contains("skylake-server") && detail.contains("little"),
        "{detail}"
    );
    let mismatches: Vec<_> = sink
        .events()
        .iter()
        .filter(|e| e.kind() == "machine_mismatch")
        .cloned()
        .collect();
    assert_eq!(mismatches.len(), 1, "exactly one machine_mismatch event");
    assert!(
        shared.bus.degraded(),
        "a refused cross-machine update degrades the run"
    );

    // The same batch tagged with the *matching* machine commits, and so
    // does an untagged (legacy) batch.
    let accepted = client
        .update_tagged("m", &workload(1), Some("k-match"), Some(&machine))
        .unwrap();
    assert!(
        accepted.ok,
        "same-machine update must commit: {:?}",
        accepted.error
    );
    assert_eq!(accepted.machine.as_ref().unwrap().name, "skylake-server");
    let legacy = client.update("m", &workload(2), Some("k-legacy")).unwrap();
    assert!(legacy.ok, "untagged update must commit: {:?}", legacy.error);

    // The installed post-update entry keeps the machine tag.
    let stats = client.stats().unwrap().stats.unwrap();
    assert_eq!(
        stats.models[0].machine.as_ref().unwrap().name,
        "skylake-server"
    );
    assert_eq!(stats.models[0].updates, 2);

    client.shutdown().unwrap();
    let _ = handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn update_with_an_out_of_domain_row_is_refused_and_changes_nothing() {
    let dir = temp_dir("bad-row");
    let path = dir.join("model.json");
    snapshot_to(&path, &train(1.0));
    let config = ServerConfig {
        wal: Some(spire_serve::WalSettings::new(dir.join("wal"))),
        ..ServerConfig::default()
    };
    let (addr, _shared, _sink, handle) = start(config, vec![("m".to_owned(), path)]);
    let mut client = Client::connect(&addr).unwrap();
    let committed = client.update("m", &workload(1), Some("k-good")).unwrap();
    assert!(committed.ok, "{:?}", committed.error);
    let before = client.stats().unwrap().stats.unwrap().models.remove(0);
    assert_eq!(before.last_seq, Some(1));

    // A zero time (throughput +∞) and an intensity of −∞: the request
    // body fails to decode, so the update never reaches the trainer.
    for (time, work, delta) in [(0.0, 1.0, 1.0), (1.0, -1e300, 1e-300)] {
        let mut batch = workload(2);
        batch.push_unchecked("m_alpha".into(), time, work, delta);
        let refused = client.update("m", &batch, Some("k-bad")).unwrap();
        assert!(!refused.ok, "an out-of-domain row must be refused");
        let detail = refused.error.unwrap();
        assert!(detail.contains("must be"), "{detail}");
        let after = client.stats().unwrap().stats.unwrap().models.remove(0);
        assert_eq!(after.last_seq, before.last_seq);
        assert_eq!(after.fingerprint, before.fingerprint);
        assert_eq!(after.updates, before.updates);
    }

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn salvaged_loads_emit_salvage_events_and_no_stage_events() {
    // A daemon load mirrors salvage onto the bus with the same events the
    // CLI's `load-model` stage emits, but is not itself a stage: the
    // `--events` stream carries no `stage_*` events for it.
    let dir = temp_dir("salvage-events");
    let path = dir.join("model.json");
    let mut snapshot = ModelSnapshot::from_model(&train(1.0)).unwrap();
    snapshot.metrics[0].checksum = "0000000000000000".to_owned();
    write_atomic(&path, &snapshot.to_json()).unwrap();

    let sink = Arc::new(CollectingSink::new());
    let ctx =
        spire_core::RunContext::new(spire_core::PipelineConfig::default()).with_sink(sink.clone());
    let registry =
        spire_serve::registry::ModelRegistry::open(&[("m".to_owned(), path)], 4, None, &ctx)
            .unwrap();
    let info = registry.reload("m", None, &ctx).unwrap();
    assert!(info.salvaged);
    let kinds: Vec<&str> = sink
        .events()
        .iter()
        .map(spire_core::pipeline::Event::kind)
        .collect();
    assert_eq!(
        kinds,
        [
            "snapshot_record_dropped",
            "snapshot_salvaged",
            "snapshot_record_dropped",
            "snapshot_salvaged",
            "model_reloaded"
        ]
    );

    // The ensemble without its snapshot container is refused at load.
    let bare = dir.join("bare.json");
    let rooflines: Vec<String> = snapshot
        .metrics
        .iter()
        .map(|r| {
            let key = serde_json::to_string(&r.metric).unwrap();
            format!("{key}:{}", r.roofline)
        })
        .collect();
    let config = serde_json::to_string(&snapshot.config).unwrap();
    let text = format!(
        r#"{{"rooflines":{{{}}},"config":{config},"skipped_metrics":[]}}"#,
        rooflines.join(",")
    );
    write_atomic(&bare, &text).unwrap();
    let err = spire_serve::registry::ModelRegistry::open(&[("m".to_owned(), bare)], 4, None, &ctx)
        .err()
        .expect("a bare model file must not load");
    assert!(
        err.to_string().contains("model snapshot is unreadable"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
