//! One run: every workload goes through the same phases, with its own
//! sizes, rates and shares of the window.
//!
//! 1. Pipeline passes through the CLI (`pipeline_s`): the first builds
//!    the snapshot the daemon serves, one runs after each of phases 3
//!    and 4, the rest after phase 5. Only the `pipeline` workload spends
//!    a share of the window on them.
//! 2. Daemon set-up, several times (`setup_s`), on that snapshot and a
//!    journal directory (seeded beforehand on `serve-update`).
//! 3. Open-loop reads at a fixed rate (`read_p50_ms`, `read_p99_ms`),
//!    with journaled updates beside them on `serve-update`.
//! 4. A search for the highest read rate meeting the latency limit
//!    (`read_capacity_rps`).
//! 5. A short stream of updates where none ran beside the reads
//!    (`update_p50_ms`, `update_p90_ms`).
//!
//! Then, outside every timed phase: the rankings against the library,
//! every answer against the library on the model that served it, the
//! final fingerprint against an independent trainer, and the client's
//! counts against the daemon's `stats`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use spire_core::{SampleSet, SpireModel, TrainConfig};
use spire_serve::proto::ModelStats;

use crate::daemon::{read_events, Daemon};
use crate::gen::{self, stream, Rng};
use crate::loadgen::{self, Done, Kind, Op};
use crate::offline::{self, PassFiles, Rankings, HELD_OUT};
use crate::online::{self, Acked, TracedWal};
use crate::trace::{mean, median, percentile, Tracer};
use crate::verify::Checker;
use crate::{spec, Args, Outcome, Reads, Spec, POOL, SMALL_ROWS};

/// The read latency limit the capacity search holds p99 to, in ms.
const LATENCY_LIMIT_MS: f64 = 250.0;
/// Ratio between neighbouring rates of the capacity ladder.
const RUNG: f64 = 1.15;
/// A run is invalid when the generator ran later than this (p99, ms).
const MAX_LAG_MS: f64 = 50.0;

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds each operation's samples from the run seed alone.
struct Payloads<'a> {
    seed: u64,
    spec: &'a Spec,
    held_out: &'a [SampleSet],
}

impl Payloads<'_> {
    fn samples(&self, op: &Op) -> SampleSet {
        let (s, metrics) = (self.spec, self.spec.corpus.metrics);
        match (op.kind, s.reads) {
            (Kind::Update, _) => {
                gen::workload(self.seed, stream::UPDATE + op.item, metrics, s.update_rows)
            }
            (_, Reads::HeldOut) => self.held_out[op.item as usize % HELD_OUT].clone(),
            (_, Reads::Distinct) => {
                gen::workload(self.seed, stream::READ + op.item, metrics, s.request_rows)
            }
            (_, Reads::Pool) => gen::workload(
                self.seed,
                stream::SMALL + op.item % POOL,
                metrics,
                SMALL_ROWS,
            ),
        }
    }

    fn key(&self, op: &Op) -> String {
        format!("bench-{}-{}", self.seed, op.item)
    }

    fn run(&self, addr: &str, ops: &[Op]) -> Result<Vec<Done>, String> {
        loadgen::run(addr, ops, &|op| self.samples(op), &|op| self.key(op))
    }
}

/// Read operations at Poisson arrivals, items numbered from `*next`.
fn reads(spec: &Spec, rng: &mut Rng, rate: f64, secs: f64, next: &mut u64) -> Vec<Op> {
    let dues = loadgen::poisson(rng, rate, secs);
    dues.into_iter()
        .map(|due| {
            let kind = match spec.reads {
                Reads::Pool => Kind::Analyze,
                _ if rng.unit() < 0.5 => Kind::Estimate,
                _ => Kind::Analyze,
            };
            *next += 1;
            Op {
                due,
                kind,
                item: *next,
            }
        })
        .collect()
}

fn updates(count: usize, secs: f64) -> Vec<Op> {
    loadgen::fixed(count, secs)
        .into_iter()
        .zip(0u64..)
        .map(|(due, item)| Op {
            due,
            kind: Kind::Update,
            item,
        })
        .collect()
}

fn latencies(done: &[Done], read: bool) -> Vec<f64> {
    done.iter()
        .filter(|d| d.op.kind.is_read() == read)
        .map(Done::latency_ms)
        .collect()
}

/// Whether one capacity step met the limit: every read answered, p99
/// within the limit, and requests due at the end of the step waited no
/// longer than half the limit for a connection (no growing backlog).
fn step_holds(done: &[Done], step_secs: f64) -> bool {
    let lat = latencies(done, true);
    let tail: Vec<f64> = done
        .iter()
        .filter(|d| d.due_ms() >= 0.8 * step_secs * 1e3)
        .map(Done::wait_ms)
        .collect();
    !lat.is_empty()
        && done.iter().all(Done::ok)
        && percentile(&lat, 0.99) <= LATENCY_LIMIT_MS
        && mean(&tail) <= LATENCY_LIMIT_MS / 2.0
}

/// The highest read rate meeting the limit, on a ladder of rates 15%
/// apart climbed from `start`, each step a quarter of `secs`. Between the
/// last step that holds and the first that misses, the rate where p99
/// crosses the limit is interpolated on log p99; the search stops at the
/// first miss, or after `capacity_steps` steps.
fn capacity(
    payloads: &Payloads<'_>,
    addr: &str,
    rng: &mut Rng,
    next: &mut u64,
    secs: f64,
    start: f64,
    outcome: &mut Outcome,
) -> Result<(f64, Vec<Done>), String> {
    let spec = payloads.spec;
    let steps = spec.capacity_steps;
    let step_secs = secs / 4.0;
    let mut all = Vec::new();
    let mut held: Option<(f64, f64)> = None;
    let mut found = None;
    for k in 0..steps {
        let rate = start * RUNG.powi(k as i32);
        let ops = reads(spec, rng, rate, step_secs, next);
        let done = payloads.run(addr, &ops)?;
        let p99 = percentile(&latencies(&done, true), 0.99);
        let holds = step_holds(&done, step_secs);
        eprintln!(
            "perfbench: capacity step {rate:.2}/s: {} reads, p99 {p99:.1} ms, {}",
            done.len(),
            if holds { "holds" } else { "misses" }
        );
        all.extend(done);
        if holds {
            held = Some((rate, p99));
            continue;
        }
        found = Some(match held {
            Some((lo, lo_p99)) if p99 > lo_p99 => {
                let t = ((LATENCY_LIMIT_MS.ln() - lo_p99.ln()) / (p99.ln() - lo_p99.ln()))
                    .clamp(0.0, 1.0);
                lo * (rate / lo).powf(t)
            }
            Some((lo, _)) => lo,
            // The limit is missed below the ladder: report the rate a
            // step below the lowest one tried.
            None => rate / RUNG,
        });
        break;
    }
    outcome.note("capacity.reads", all.len() as f64);
    outcome.note(
        "capacity.bracketed",
        f64::from(u8::from(found.is_some() && held.is_some())),
    );
    // Every step held: the capacity is at least the top of the ladder.
    Ok((
        found.unwrap_or_else(|| held.map_or(start, |(rate, _)| rate)),
        all,
    ))
}

/// What the timed serve phases produced.
struct Traffic {
    /// Reads (and updates beside them) at the fixed rate.
    fixed: Vec<Done>,
    /// Reads of the capacity ladder.
    ladder: Vec<Done>,
    /// Updates after the capacity search.
    trailing: Vec<Done>,
    capacity: f64,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = spec(&args.workload, args.smoke)?;
    let dir = args
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let _scratch = Scratch(dir.clone());
    let mut outcome = Outcome::default();
    let mut tracer = Tracer::new(args.trace);
    let run_started = Instant::now();
    let progress = |what: &str| {
        eprintln!(
            "perfbench: {what} ({:.1} s)",
            run_started.elapsed().as_secs_f64()
        );
    };

    // Inputs, generated from the seed alone.
    let files = PassFiles::new(&dir);
    let csv = gen::corpus_csv(args.seed, spec.corpus);
    std::fs::write(&files.csv, &csv).map_err(|e| format!("cannot write the capture: {e}"))?;
    let held_out: Vec<SampleSet> = (0..HELD_OUT as u64)
        .map(|k| {
            gen::workload(
                args.seed,
                stream::HELD_OUT + k,
                spec.corpus.metrics,
                SMALL_ROWS,
            )
        })
        .collect();
    offline::write_held_out(&held_out, &files.held_out)?;
    progress("inputs generated");

    // 1. The first pipeline pass builds the served snapshot. The others
    //    run between and after the serve phases, so the passes sample the
    //    host at different times of the run.
    let (first_s, first_ranking) = offline::cli_pass(&args.spire, &files, &mut outcome)?;
    let (mut pass_s, mut rankings) = (vec![first_s], vec![first_ranking]);
    let (corpus, direct) = offline::library_chain(&csv, &dir, &mut tracer, &mut outcome)?;
    drop(csv);
    progress("first pipeline pass done");

    // 2. Daemon set-up, on a journal seeded beforehand where the spec asks.
    let served = offline::load_snapshot(&files.snapshot)?;
    let config = served.config().clone();
    let wal = dir.join("wal");
    std::fs::create_dir_all(&wal).map_err(|e| e.to_string())?;
    let seed_batches = online::split_rows(&corpus, spec.seed_records);
    drop(corpus);
    online::seed_journal(&wal, &config, &seed_batches, spec.compact_every)?;
    let pristine = dir.join("wal-pristine");
    if args.trace {
        online::copy_dir(&wal, &pristine)?;
    }
    let mut setups = Vec::new();
    for i in 1..spec.setups {
        let daemon = Daemon::spawn(
            &args.spire,
            &files.snapshot,
            &wal,
            spec.compact_every,
            dir.join(format!("events-{i}.jsonl")),
        )?;
        setups.push(daemon.setup_s);
        daemon.shutdown()?;
    }
    let daemon = Daemon::spawn(
        &args.spire,
        &files.snapshot,
        &wal,
        spec.compact_every,
        dir.join("events.jsonl"),
    )?;
    setups.push(daemon.setup_s);
    progress("daemon set up");

    // 3–5. The timed serve phases.
    let payloads = Payloads {
        seed: args.seed,
        spec: &spec,
        held_out: &held_out,
    };
    let mut pass = |outcome: &mut Outcome| {
        let (secs, ranked) = offline::cli_pass(&args.spire, &files, outcome)?;
        pass_s.push(secs);
        rankings.push(ranked);
        Ok(())
    };
    let traffic = serve(
        &payloads,
        &daemon.addr,
        args.seconds,
        &mut pass,
        &mut outcome,
    )?;
    progress("serve phases done");
    let stats = daemon.stats()?;
    let daemon_rss = daemon.peak_rss_mb()?;
    let events_path = daemon.events.clone();
    daemon.shutdown()?;
    let events = read_events(&events_path)?;
    more_passes(
        args,
        &spec,
        &files,
        &mut pass_s,
        &mut rankings,
        &mut outcome,
    )?;
    let passes_rss = offline::children_peak_rss_mb()?;
    check_rankings(&direct, &held_out, &rankings, &mut outcome)?;
    progress("pipeline passes done");

    // Every operation has one terminal outcome.
    let all: Vec<&Done> = traffic
        .fixed
        .iter()
        .chain(&traffic.ladder)
        .chain(&traffic.trailing)
        .collect();
    if tracer.enabled() {
        for d in &all {
            d.trace(&mut tracer);
        }
    }
    outcome.attempted += all.len() as u64;
    outcome.failed += all.iter().filter(|d| !d.ok()).count() as u64;

    let mut checker = Checker::new();
    let scratch = dir.join("replay-scratch");
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let traced_wal = args.trace.then(|| TracedWal {
        pristine: &pristine,
        scratch: &scratch,
        compact_every: spec.compact_every,
    });
    check_answers(
        &payloads,
        &traffic,
        &all,
        (&served, &config, &seed_batches),
        &stats.fingerprint,
        traced_wal,
        &mut checker,
        &mut tracer,
        &mut outcome,
    )?;
    reconcile(&all, &stats, &mut outcome);
    let (in_flight, rate_latency) = loadgen::littles_law(&traffic.fixed);
    if (in_flight - rate_latency).abs() > 0.05 * rate_latency.max(1e-9) {
        outcome.problem(format!(
            "Little's law: mean in flight {in_flight:.4} vs rate × mean latency {rate_latency:.4}"
        ));
    }
    let lag = loadgen::lag_p99(all.iter().copied());
    if lag > MAX_LAG_MS {
        outcome.problem(format!(
            "the generator fell behind its schedule (lag p99 {lag:.1} ms)"
        ));
    }
    if events.compactions != expected_compactions(&spec) {
        outcome.problem(format!(
            "the daemon compacted {} times, expected {}",
            events.compactions,
            expected_compactions(&spec)
        ));
    }
    progress("answers checked");

    // End-to-end numbers.
    let read_lat = latencies(&traffic.fixed, true);
    let update_lat: Vec<f64> = latencies(&traffic.fixed, false)
        .into_iter()
        .chain(latencies(&traffic.trailing, false))
        .collect();
    outcome.e2e("pipeline_s", median(&pass_s), "s");
    outcome.e2e("read_p50_ms", percentile(&read_lat, 0.5), "ms");
    outcome.e2e("read_p99_ms", percentile(&read_lat, 0.99), "ms");
    outcome.e2e("read_capacity_rps", traffic.capacity, "1/s");
    outcome.e2e("update_p50_ms", percentile(&update_lat, 0.5), "ms");
    outcome.e2e("update_p90_ms", percentile(&update_lat, 0.9), "ms");
    outcome.e2e("setup_s", median(&setups), "s");
    let rss = if spec.rss_from_passes {
        passes_rss
    } else {
        daemon_rss
    };
    outcome.e2e("peak_rss_mb", rss, "MiB");
    outcome.note("passes", pass_s.len() as f64);
    outcome.note("reads.fixed_rate", read_lat.len() as f64);
    outcome.note("updates", update_lat.len() as f64);

    // Per-layer numbers.
    checker.report(&mut outcome);
    let batch_ms: Vec<f64> = events.batches.iter().map(|b| b.0).collect();
    let batch_size: Vec<f64> = events.batches.iter().map(|b| b.1 as f64).collect();
    outcome.layer("serve.worker.batch_ms", mean(&batch_ms), "ms");
    outcome.layer("serve.worker.batches", batch_ms.len() as f64, "count");
    outcome.layer(
        "serve.worker.requests_per_batch",
        mean(&batch_size),
        "count",
    );
    let lookups = stats.cache_hits + stats.cache_misses;
    outcome.layer(
        "serve.cache.hit_ratio",
        stats.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    outcome.note("serve.cache.lookups", lookups as f64);
    outcome.layer("serve.queue.shed", stats.shed as f64, "count");
    outcome.layer("serve.wal.compactions", events.compactions as f64, "count");
    outcome.layer("loadgen.lag_p99_ms", lag, "ms");
    outcome.layer("trace.overhead_ms", tracer.overhead_ms(), "ms");

    if args.trace {
        write_trace(args, &tracer, &outcome)?;
    }
    Ok(outcome)
}

/// Pipeline passes after the first, until there are `min_passes` and
/// they have taken the workload's share of the window.
fn more_passes(
    args: &Args,
    spec: &Spec,
    files: &PassFiles,
    pass_s: &mut Vec<f64>,
    rankings: &mut Vec<Rankings>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    while pass_s.len() < spec.min_passes
        || pass_s.iter().sum::<f64>() < spec.pass_share * args.seconds
    {
        let (secs, ranked) = offline::cli_pass(&args.spire, files, outcome)?;
        pass_s.push(secs);
        rankings.push(ranked);
    }
    Ok(())
}

/// Every pass's ranking of every held-out capture must equal the
/// library's on a direct-API train of the same capture.
fn check_rankings(
    direct: &SpireModel,
    held_out: &[SampleSet],
    rankings: &[Rankings],
    outcome: &mut Outcome,
) -> Result<(), String> {
    for (k, set) in held_out.iter().enumerate() {
        let (throughput, rows) = offline::rank(direct, set, 10)?;
        for ranked in rankings {
            if ranked[k].0.to_bits() != throughput.to_bits() || ranked[k].1 != rows {
                outcome.failed += 1;
                outcome.problem(format!(
                    "spire analyze ranks {} differently from a direct-API train",
                    offline::held_out_label(k)
                ));
            }
        }
    }
    Ok(())
}

/// Phases 3–5: reads at the fixed rate (with updates beside them where
/// the spec says), the capacity ladder, and trailing updates, with a
/// pipeline `pass` after each of the first two phases while the daemon
/// idles.
fn serve(
    payloads: &Payloads<'_>,
    addr: &str,
    window: f64,
    pass: &mut dyn FnMut(&mut Outcome) -> Result<(), String>,
    outcome: &mut Outcome,
) -> Result<Traffic, String> {
    let spec = payloads.spec;
    // Arrival times and the read mix come from one fixed stream, so runs
    // with different seeds differ in their data, not their burstiness.
    let mut sched = Rng::new(0, stream::SCHEDULE);
    let mut next_item = 0u64;
    let read_secs = spec.read_share * window;
    let mut ops = reads(spec, &mut sched, spec.read_rate, read_secs, &mut next_item);
    if spec.updates_beside_reads {
        ops.extend(updates(spec.updates, read_secs));
        ops.sort_by_key(|op| op.due);
    }
    let fixed = payloads.run(addr, &ops)?;
    pass(outcome)?;
    for kind in [Kind::Estimate, Kind::Analyze, Kind::Update] {
        let lat: Vec<f64> = fixed
            .iter()
            .filter(|d| d.op.kind == kind)
            .map(Done::latency_ms)
            .collect();
        if !lat.is_empty() {
            eprintln!(
                "perfbench: {kind:?}: {} ops, p10 {:.1} p50 {:.1} p90 {:.1} p99 {:.1} ms",
                lat.len(),
                percentile(&lat, 0.1),
                percentile(&lat, 0.5),
                percentile(&lat, 0.9),
                percentile(&lat, 0.99)
            );
        }
    }

    // The ladder starts below the rate the connections could carry at
    // the median service time, and climbs past it.
    let service: Vec<f64> = fixed
        .iter()
        .filter(|d| d.op.kind.is_read() && d.ok())
        .map(|d| d.done_ms - d.start_ms)
        .collect();
    let ceiling = loadgen::connections() as f64 / (median(&service).max(1.0) / 1e3);
    let (capacity, ladder) = capacity(
        payloads,
        addr,
        &mut sched,
        &mut next_item,
        spec.capacity_share * window,
        0.7 * ceiling,
        outcome,
    )?;

    pass(outcome)?;
    let trailing = if spec.updates_beside_reads {
        Vec::new()
    } else {
        payloads.run(addr, &updates(spec.updates, spec.update_share * window))?
    };
    Ok(Traffic {
        fixed,
        ladder,
        trailing,
        capacity,
    })
}

/// Checks every answered read against the library on the model whose
/// fingerprint it carries, and every acknowledged update against an
/// independent trainer over the journal seed and the acknowledged batches
/// in commit order; the final fingerprint must be the daemon's.
#[allow(clippy::too_many_arguments)]
fn check_answers(
    payloads: &Payloads<'_>,
    traffic: &Traffic,
    all: &[&Done],
    (served, config, seed): (&SpireModel, &TrainConfig, &[SampleSet]),
    daemon_fingerprint: &str,
    traced_wal: Option<TracedWal<'_>>,
    checker: &mut Checker,
    tracer: &mut Tracer,
    outcome: &mut Outcome,
) -> Result<(), String> {
    // Only fixed-rate reads are split by layer; ladder reads are checked.
    let mut by_fp: BTreeMap<String, Vec<(&Done, bool)>> = BTreeMap::new();
    for (list, replay) in [(&traffic.fixed, true), (&traffic.ladder, false)] {
        for d in list.iter().filter(|d| d.op.kind.is_read() && d.ok()) {
            let fp = d.response.as_ref().ok().and_then(|r| r.fingerprint.clone());
            by_fp
                .entry(fp.unwrap_or_default())
                .or_default()
                .push((d, replay));
        }
    }
    let mut wrong = 0u64;
    let mut visit = |fp: &str, model: &SpireModel, tracer: &mut Tracer| {
        for (d, replay) in by_fp.remove(fp).unwrap_or_default() {
            if !checker.read(d, &payloads.samples(&d.op), model, replay, tracer) {
                wrong += 1;
            }
        }
    };
    let served_fp = offline::fingerprint(served)?;
    visit(&served_fp, served, tracer);
    let mut acked: Vec<Acked> = all
        .iter()
        .filter(|d| d.op.kind == Kind::Update && d.ok())
        .filter_map(|d| {
            let r = d.response.as_ref().ok()?;
            (r.applied == Some(true)).then(|| Acked {
                id: d.request_id(),
                seq: r.seq.unwrap_or(0),
                fingerprint: r.fingerprint.clone().unwrap_or_default(),
                key: payloads.key(&d.op),
                batch: payloads.samples(&d.op),
            })
        })
        .collect();
    acked.sort_by_key(|a| a.seq);
    let rebuilt = online::rebuild(
        config, seed, &acked, traced_wal, tracer, outcome, &mut visit,
    );
    match rebuilt {
        Ok(fp) => {
            let fp = fp.unwrap_or(served_fp);
            if fp != daemon_fingerprint {
                outcome.problem(format!(
                    "daemon ends on fingerprint {daemon_fingerprint} but an independent trainer \
                     over the seed and acknowledged updates reaches {fp}"
                ));
            }
        }
        Err(e) => outcome.problem(e),
    }
    let unverified: usize = by_fp.values().map(Vec::len).sum();
    wrong += unverified as u64;
    if wrong > 0 {
        outcome.failed += wrong;
        outcome.problem(format!(
            "{wrong} answers differ from the library on the model that served them \
             ({unverified} came from a model no replay reached)"
        ));
    }
    Ok(())
}

/// The client's counts against the daemon's `stats`, exactly.
fn reconcile(all: &[&Done], stats: &ModelStats, outcome: &mut Outcome) {
    let count = |f: &dyn Fn(&Done) -> bool| all.iter().filter(|d| f(d)).count() as u64;
    let reads_sent = count(&|d| d.op.kind.is_read());
    let reads_acked = count(&|d| d.op.kind.is_read() && d.ok());
    let updates_acked = count(&|d| d.op.kind == Kind::Update && d.ok());
    let sheds = count(&Done::shed);
    for (what, daemon_count, client_count) in [
        (
            "estimates + analyzes vs reads acked",
            stats.estimates + stats.analyzes,
            reads_acked,
        ),
        (
            "cache hits + misses vs reads sent",
            stats.cache_hits + stats.cache_misses,
            reads_sent,
        ),
        (
            "updates + deduplicated vs updates acked",
            stats.updates + stats.deduplicated,
            updates_acked,
        ),
        ("shed vs sheds seen", stats.shed, sheds),
    ] {
        if daemon_count != client_count {
            outcome.problem(format!(
                "{what}: daemon {daemon_count}, client {client_count}"
            ));
        }
    }
}

/// Compactions the seeded journal plus the run's updates must cross.
fn expected_compactions(spec: &Spec) -> usize {
    (spec.seed_records % spec.compact_every + spec.updates) / spec.compact_every
}

#[derive(serde::Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    seconds: f64,
    nests: bool,
    overhead_ms: f64,
    self_ms: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, crate::Metric>,
    traced_end_to_end: BTreeMap<String, crate::Metric>,
    notes: BTreeMap<String, f64>,
    spans: Vec<crate::trace::Span>,
}

fn write_trace(args: &Args, tracer: &Tracer, outcome: &Outcome) -> Result<(), String> {
    let dir = args.work.join("trace");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path: PathBuf = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let file = TraceFile {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        nests: tracer.nests(),
        overhead_ms: tracer.overhead_ms(),
        self_ms: tracer.self_times_ms(),
        per_layer: outcome.per_layer.iter().cloned().collect(),
        traced_end_to_end: outcome.end_to_end.iter().cloned().collect(),
        notes: outcome.notes.iter().cloned().collect(),
        spans: tracer.spans().to_vec(),
    };
    let json = serde_json::to_string(&file).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: trace written to {}", path.display());
    Ok(())
}
