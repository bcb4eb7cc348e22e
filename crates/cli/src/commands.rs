//! The `spire` command dispatcher. Each subcommand lives in its own
//! module under `crate::cmd`; they return a [`CmdOutput`] so the logic
//! is testable without capturing stdout, and so partial success (a
//! degraded-but-usable result) is visible to the process exit code.
//!
//! Every command calls the `spire_core::pipeline` steps over one
//! [`RunContext`](spire_core::RunContext), which carries the run's
//! configuration and a diagnostics bus of typed events; the degraded flag
//! (exit code 2) is derived from that event stream rather than tracked ad
//! hoc.

use std::error::Error;

use crate::args::Args;
use crate::cmd;

/// Process exit code for full success.
pub const EXIT_OK: i32 = 0;
/// Process exit code for failure (the command could not complete).
pub const EXIT_FAILURE: i32 = 1;
/// Process exit code for partial success: the command completed, but some
/// inputs were quarantined or dropped along the way (lenient training with
/// quarantined metrics, a salvaged snapshot, an ingest with quarantined
/// rows). Scripts that require pristine runs should treat 2 like 1;
/// pipelines that tolerate degradation can treat it like 0.
pub const EXIT_DEGRADED: i32 = 2;

/// A command's printable output plus whether the run was degraded
/// (mapped to [`EXIT_DEGRADED`] by the binary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// Text for stdout.
    pub text: String,
    /// `true` when the command completed by dropping or quarantining part
    /// of its input — derived from the diagnostics bus.
    pub degraded: bool,
}

impl From<String> for CmdOutput {
    fn from(text: String) -> Self {
        CmdOutput {
            text,
            degraded: false,
        }
    }
}

/// A [`CmdOutput`] derefs to its text, so callers that only care about
/// stdout (tests, the usage path) can treat it as a string.
impl std::ops::Deref for CmdOutput {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

/// Convenience alias for command results.
pub type CmdResult = Result<CmdOutput, Box<dyn Error + Send + Sync>>;

/// Top-level usage text.
pub const USAGE: &str = "\
spire — SPIRE performance-model toolkit (DATE 2025 reproduction)

USAGE: spire <command> [options]

COMMANDS:
  list-workloads                      list the 27-workload evaluation suite
  machines  [list|show M|export M]    inspect the microarchitecture catalog;
            [--out FILE]              M is a catalog name or a machine JSON
                                      file. export writes the editable JSON
                                      definition (custom-machine template).
  simulate  --workload N --config C   run one workload, print a TMA summary
            [--cycles X] [--seed S] [--machine M]
  collect   --out FILE [--cycles X]   sample the full suite into a dataset
            [--set train|test|all] [--seed S] [--interval X] [--slice X]
            [--machine M]             (--machine picks the simulated core
                                      from the catalog, or a machine JSON
                                      file; the dataset is tagged with it)
  train     --data FILE               train a SPIRE model from a dataset;
            --snapshot FILE           --snapshot writes it as a versioned,
            [--min-samples N]         checksummed snapshot with provenance
            [--threads N]             (the model file every command
            [--metric-budget F]       loads). Training is fault-
            [--max-front N]           isolated: failing metrics are
            [--thin-front]            quarantined up to --metric-budget
            [--strict]                (default 0.5) unless --strict, which
            [--ingest-report]         fails on the first bad metric.
            [--incremental]           --ingest-report prints the stored
            [--normalize]             ingest provenance before training.
                                      --normalize divides samples by the
                                      dataset machine's peaks, producing a
                                      hardware-agnostic model usable
                                      across machines.
                                      --thin-front re-enables lossy Pareto
                                      front thinning above --max-front
                                      samples (default 2048); without it
                                      the full front is always fitted.
                                      --incremental trains through the
                                      online maintenance layer, one batch
                                      per workload (identical model).
  update    --model SNAPSHOT          incrementally update an existing
            --data FILE [BATCH...]    snapshot: --data is the dataset the
            [--snapshot-out FILE]     snapshot was trained from, each
            [--out-delta FILE]        positional BATCH is a dataset of new
            [--threads N] [--strict]  samples. Only metrics whose Pareto
            [--via-server --addr A    front moved are refitted.
             --model NAME             --snapshot-out writes the updated
             [--retries N]            snapshot, --out-delta a delta with
             [--timeout-ms MS]]       the changed records only (at least
                                      one of the two is required); both
                                      writes are atomic. --via-server
                                      streams the batches to a running
                                      daemon's journaled update endpoint
                                      instead (--model is then the served
                                      model name); each batch carries an
                                      idempotency key so retries are safe.
  analyze   --model FILE --data FILE  rank bottleneck metrics for a workload
            --workload LABEL          (--model is a snapshot from train;
            [--top K] [--threads N]   corrupted snapshot records are
            [--strict]                dropped unless --strict)
  estimate  --model FILE --data FILE  just the ensemble throughput estimate
            --workload LABEL          for a workload (same --model handling
            [--threads N] [--strict]  as analyze)
  tma       --workload N --config C   full TMA breakdown for one workload
            [--cycles X] [--seed S] [--machine M]
  ingest    --csv FILE --out FILE     fault-tolerant import of `perf stat
            [--label L]               -I -x,` output: counts are scaled by
            [--min-frac F]            1/running_frac (multiplex correction,
            [--budget F]              disable with --no-scale), broken rows
            [--no-scale] [--strict]   are quarantined under an error budget,
            [--ingest-report]         and the ingest report is stored with
            [--binary]                the dataset (alias: import-perf;
                                      --strict fails when over budget;
                                      --binary writes the SPIRECOL column
                                      format instead of JSON)
  convert   --data FILE --out FILE    re-encode a dataset: --to binary
            [--to binary|json]        (default) writes the `SPIRECOL`
            [--strict]                checksummed column format, --to json
                                      the interchange JSON. Input format
                                      is sniffed; the round trip is
                                      byte-identical and keeps stored
                                      ingest reports. Damaged binary
                                      chunks are quarantined unless
                                      --strict, which refuses them.
  plot      --model FILE --data FILE  render a metric's learned roofline
            --metric EVENT --out SVG  with its samples (add --linear for
            [--workload LABEL]        a linear-scale zoom)
  coverage  --data FILE               sampling-coverage diagnostics for a
            --workload LABEL [--n K]  collected workload (multiplex column
                                      filled from the stored ingest report)
  serve     NAME=MODEL [NAME=MODEL..] run the resident estimation daemon on
            [--addr HOST:PORT]        a length-prefixed TCP protocol; models
            [--workers N] [--queue N] hot-reload by atomic swap, same-model
            [--cache N] [--max-batch N] requests coalesce into one batched
            [--max-frame BYTES]       SoA pass, and a full queue sheds with
            [--events FILE] [--strict] a typed refusal (--events appends the
            [--wal-dir DIR]           diagnostics stream as JSON lines).
            [--wal-compact N]         --wal-dir enables durable `update`
            [--dedup-window N]        requests behind a checksummed
            [--restart-budget N]      write-ahead journal, replayed on
                                      restart; --restart-budget caps
                                      panicked-worker respawns before the
                                      daemon degrades to read-only.
  client    KIND --addr HOST:PORT     one request against a running daemon:
            [--model NAME]            ping, stats, shutdown, reload
            [--data FILE              [--path NEWSNAPSHOT], or estimate /
             --workload LABEL]        analyze / update with samples from a
            [--top K] [--path FILE]   dataset (update: --key sets the
            [--key KEY]               idempotency key). A shed response
            [--timeout-ms MS]         exits 2 (degraded). ping --wait polls
            [--retries N] [--wait]    until the daemon is ready.

GLOBAL OPTIONS:
  --json    print a machine-readable envelope instead of the human text:
            {command, schema_version, degraded, events, result}. Uniform
            across every subcommand; see README \"Machine-readable
            output\" for the schema. The exit code is unchanged.

EXIT CODES:
  0  success
  2  partial success: the command completed but quarantined or dropped
     part of its input (degraded training, salvaged snapshot, lossy
     ingest)
  1  failure
";

/// Option names that are valueless switches rather than `--key value`.
pub(crate) const BOOL_FLAGS: &[&str] = &[
    "linear",
    "ingest-report",
    "binary",
    "strict",
    "no-scale",
    "thin-front",
    "incremental",
    "wait",
    "via-server",
    "json",
    "normalize",
];

/// Dispatches a command line (without the program name).
///
/// # Errors
///
/// Returns any command error; unknown commands produce the usage text as
/// an error message.
pub fn run(argv: &[String]) -> CmdResult {
    let args = Args::parse_with_flags(argv.iter().cloned(), BOOL_FLAGS)?;
    let Some(command) = args.positionals().first().map(String::as_str) else {
        return Ok(USAGE.to_owned().into());
    };
    match command {
        "list-workloads" => cmd::sim::list_workloads(&args),
        "simulate" => cmd::sim::simulate(&args),
        "collect" => cmd::collect::run(&args),
        "train" => cmd::train::run(&args),
        "update" => cmd::update::run(&args),
        "analyze" => cmd::analyze::run(&args),
        "estimate" => cmd::estimate::run(&args),
        "tma" => cmd::sim::tma(&args),
        "ingest" | "import-perf" => cmd::ingest::run(&args),
        "convert" => cmd::convert::run(&args),
        "plot" => cmd::plot::run(&args),
        "coverage" => cmd::coverage::run(&args),
        "serve" => cmd::serve::run(&args),
        "client" => cmd::client::run(&args),
        "machines" => cmd::machines::run(&args),
        "help" | "--help" => Ok(USAGE.to_owned().into()),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}").into()),
    }
}
