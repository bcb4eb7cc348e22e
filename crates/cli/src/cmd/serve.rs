//! `spire serve`: run the resident estimation/analysis daemon.
//!
//! Models are positional `name=path` specs (the options map keeps one
//! value per key, so repeated `--model` flags could not name several
//! models). The bound address is printed and flushed immediately so
//! scripts can read the ephemeral port before the daemon blocks in its
//! accept loop.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use spire_core::pipeline::{CollectingSink, EventSink, JsonLinesSink};
use spire_serve::proto::ModelStats;
use spire_serve::{Server, ServerConfig, WalSettings};

use crate::args::Args;
use crate::commands::{CmdOutput, CmdResult};

use super::{json, pipeline_config, WarnSink};

/// Parses the positional `name=path` model specs (everything after the
/// command word).
fn model_specs(args: &Args) -> Result<Vec<(String, PathBuf)>, super::CmdError> {
    let specs: Vec<(String, PathBuf)> = args
        .positionals()
        .iter()
        .skip(1)
        .map(|spec| {
            spec.split_once('=')
                .map(|(name, path)| (name.to_owned(), PathBuf::from(path)))
                .ok_or_else(|| format!("model spec `{spec}` is not name=path"))
        })
        .collect::<Result<_, _>>()?;
    if specs.is_empty() {
        return Err("serve requires at least one name=path model spec".into());
    }
    Ok(specs)
}

pub(crate) fn run(args: &Args) -> CmdResult {
    let specs = model_specs(args)?;
    // Durable updates are opt-in: `--wal-dir` turns the journal on and
    // with it the `update` request kind (refused otherwise).
    let wal = match args.get("wal-dir") {
        None => None,
        Some(dir) => {
            let mut settings = WalSettings::new(dir);
            settings.compact_records = args.get_or("wal-compact", settings.compact_records)?;
            settings.dedup_window = args.get_or("dedup-window", settings.dedup_window)?;
            Some(settings)
        }
    };
    let config = ServerConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:0").to_owned(),
        workers: args.get_or("workers", 2)?,
        queue_capacity: args.get_or("queue", 64)?,
        cache_capacity: args.get_or("cache", 32)?,
        max_frame: args.get_or("max-frame", 8 << 20)?,
        max_batch: args.get_or("max-batch", 32)?,
        pipeline: pipeline_config(args)?,
        wal,
        worker_restart_budget: args.get_or("restart-budget", 4)?,
        chaos: Default::default(),
    };

    // Events are kept in memory only for the `--json` envelope; without
    // it a long-lived daemon would accumulate every batch's events.
    let collecting = args.flag("json").then(|| Arc::new(CollectingSink::new()));
    let mut sinks: Vec<Arc<dyn EventSink>> = vec![Arc::new(WarnSink)];
    if let Some(collecting) = &collecting {
        sinks.push(collecting.clone());
    }
    if let Some(events_path) = args.get("events") {
        let file = std::fs::File::create(events_path)
            .map_err(|e| format!("cannot create events file {events_path}: {e}"))?;
        sinks.push(Arc::new(JsonLinesSink::new(file)));
    }

    let server = Server::bind(config, specs.clone(), sinks)?;
    let addr = server.local_addr()?;
    // Flushed before the accept loop so wrappers can read the port.
    println!("spire-serve listening on {addr} ({} models)", specs.len());
    std::io::stdout().flush().ok();

    let shared = server.shared();
    let degraded = server.run()?;

    let mut text = String::new();
    writeln!(text, "spire-serve shut down cleanly")?;
    for (name, slot) in shared.registry.iter() {
        let m = ModelStats::from_slot(name, slot);
        writeln!(
            text,
            "model {name}: {} estimates, {} analyzes, {} updates, {} shed, \
             {} isolated, {} cache hits, {} reloads",
            m.estimates, m.analyzes, m.updates, m.shed, m.isolated, m.cache_hits, m.reloads,
        )?;
    }

    let text = if let Some(collecting) = collecting {
        let models = json::obj(
            specs
                .iter()
                .map(|(name, path)| (name.as_str(), json::s(path.display().to_string())))
                .collect(),
        );
        let result = json::obj(vec![
            ("addr", json::s(addr.to_string())),
            ("models", models),
        ]);
        json::envelope("serve", degraded, &collecting.events(), result)?
    } else {
        text
    };
    Ok(CmdOutput { text, degraded })
}
