//! The counters crate's pipeline steps, instrumented through
//! [`RunContext::stage`]: [`ingest`] parses `perf stat -I -x,` text under
//! an [`IngestConfig`] and mirrors its [`IngestReport`] onto the
//! diagnostics bus as typed events, and [`build`] merges a [`Dataset`]
//! into the one training set.

use spire_core::pipeline::{Event, RunContext};
use spire_core::{SampleSet, SpireError, TrainStrictness};

use crate::dataset::Dataset;
use crate::ingest::{ingest_perf_csv, Ingest, IngestConfig, IngestReport};

/// Emits the bus events implied by a finished ingest: one
/// `RowsQuarantined` per quarantine reason, a `CaptureDegraded` when the
/// supervision layer flagged the capture, and a `BudgetConsumed` summary.
/// Public so callers that ingest outside [`ingest`] (the proc supervisor)
/// can mirror their reports too.
pub fn emit_ingest_events(label: &str, report: &IngestReport, ctx: &RunContext) {
    for (reason, rows) in &report.quarantined_by_reason {
        ctx.emit(Event::RowsQuarantined {
            reason: reason.clone(),
            rows: *rows,
        });
    }
    if report.degraded {
        ctx.emit(Event::CaptureDegraded {
            label: label.to_owned(),
            reason: report
                .degraded_reason
                .clone()
                .unwrap_or_else(|| "capture flagged as incomplete".to_owned()),
        });
    }
    ctx.emit(Event::BudgetConsumed {
        stage: "ingest".to_owned(),
        consumed: report.quarantined_fraction(),
        budget: report.error_budget,
        exceeded: report.budget_exceeded(),
    });
}

/// The `ingest` stage: fault-tolerant `perf stat` CSV ingest of `text` (file
/// I/O stays at the edges) into the full [`Ingest`] (samples + report),
/// with the samples to be stored under `label` (used in events).
///
/// Lenient runs keep whatever parsed; under [`TrainStrictness::Strict`]
/// the step fails with [`SpireError::ErrorBudgetExceeded`] when
/// quarantined rows exceed the configured budget, after emitting the
/// ingest events.
///
/// # Errors
///
/// [`SpireError::InvalidConfig`] for an out-of-domain `config`, and the
/// strict budget refusal above.
pub fn ingest(
    ctx: &RunContext,
    label: &str,
    text: &str,
    config: &IngestConfig,
) -> spire_core::Result<Ingest> {
    ctx.stage(
        "ingest",
        Some(text.lines().count()),
        || {
            config.validate()?;
            let out = ingest_perf_csv(text, config);
            emit_ingest_events(label, &out.report, ctx);
            if ctx.config.strictness == TrainStrictness::Strict && out.report.budget_exceeded() {
                return Err(SpireError::ErrorBudgetExceeded {
                    quarantined: out.report.rows_quarantined,
                    total: out.report.rows_seen,
                    budget: out.report.error_budget,
                });
            }
            Ok(out)
        },
        |out| Some(out.samples.len()),
    )
}

/// The `build` stage: merges every workload of `dataset`, in label order,
/// into one training set ([`Dataset::merged`]).
///
/// # Errors
///
/// Never fails; the `Result` keeps every step's signature alike.
pub fn build(ctx: &RunContext, dataset: &Dataset) -> spire_core::Result<SampleSet> {
    ctx.stage(
        "build",
        Some(dataset.len()),
        || Ok(dataset.merged()),
        |merged| Some(merged.len()),
    )
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use spire_core::pipeline::{CollectingSink, PipelineConfig};
    use spire_core::Sample;

    use super::*;

    const MIXED_CSV: &str = "1.0,100,,inst_retired.any,1,100,,\n\
         1.0,50,,cpu_clk_unhalted.thread,1,100,,\n\
         1.0,7,,longest_lat_cache.miss,250000,25.00,,\n\
         broken line\n";

    fn ctx_with_sink(strictness: TrainStrictness) -> (RunContext, Arc<CollectingSink>) {
        let sink = Arc::new(CollectingSink::new());
        let config = PipelineConfig {
            strictness,
            ..PipelineConfig::default()
        };
        let ctx = RunContext::new(config).with_sink(sink.clone());
        (ctx, sink)
    }

    #[test]
    fn quarantined_rows_surface_as_typed_events() {
        let (ctx, sink) = ctx_with_sink(TrainStrictness::Lenient);
        let out = ingest(&ctx, "mux", MIXED_CSV, &IngestConfig::default()).unwrap();
        assert_eq!(out.samples.len(), 1);
        assert_eq!(out.report.rows_quarantined, 1);
        let events = sink.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::RowsQuarantined { rows: 1, .. })),
            "{events:?}"
        );
        let budget = events
            .iter()
            .find(|e| matches!(e, Event::BudgetConsumed { .. }))
            .expect("budget event");
        if let Event::BudgetConsumed {
            stage, exceeded, ..
        } = budget
        {
            assert_eq!(stage, "ingest");
            assert!(!exceeded);
        }
        assert!(ctx.degraded(), "quarantined rows flag partial success");
    }

    #[test]
    fn strict_ingest_fails_over_budget_after_emitting_events() {
        let (ctx, sink) = ctx_with_sink(TrainStrictness::Strict);
        let err = ingest(
            &ctx,
            "junk",
            "junk\nmore junk\nstill junk\n",
            &IngestConfig::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("error budget"), "{err}");
        let events = sink.events();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::BudgetConsumed { exceeded: true, .. })));
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::StageFailed { .. })),
            "{events:?}"
        );
    }

    #[test]
    fn clean_ingest_emits_no_degrading_events() {
        let (ctx, sink) = ctx_with_sink(TrainStrictness::Lenient);
        let clean = "1.0,100,,inst_retired.any,1,100,,\n\
             1.0,50,,cpu_clk_unhalted.thread,1,100,,\n\
             1.0,7,,longest_lat_cache.miss,1,100,,\n";
        ingest(&ctx, "clean", clean, &IngestConfig::default()).unwrap();
        assert!(!ctx.degraded());
        assert!(sink
            .events()
            .iter()
            .all(|e| !matches!(e, Event::RowsQuarantined { .. })));
    }

    #[test]
    fn build_merges_in_label_order_under_a_build_stage() {
        let (ctx, sink) = ctx_with_sink(TrainStrictness::Lenient);
        let mut dataset = Dataset::new();
        for (label, metric) in [("b", "m_beta"), ("a", "m_alpha")] {
            let mut set = SampleSet::new();
            set.push(Sample::new(metric, 10.0, 5.0, 2.0).unwrap());
            dataset.insert(label, set);
        }
        assert_eq!(build(&ctx, &dataset).unwrap(), dataset.merged());
        let events = sink.events();
        assert!(matches!(
            &events[1],
            Event::StageFinished { stage, items_in: Some(2), items_out: Some(2), .. }
                if stage == "build"
        ));
    }
}
