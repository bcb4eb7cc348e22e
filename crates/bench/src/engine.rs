//! The experiment harness's handle on the `spire_core::pipeline` steps.
//!
//! Every `src/bin/` experiment trains and scores through an [`Engine`],
//! so the bench path calls exactly the same steps as the CLI: `build` →
//! `train` for model fitting, `estimate` → `analyze` for reports, with
//! stage timings, quarantine decisions, and free-form narration all
//! flowing through the diagnostics bus instead of ad-hoc `eprintln!`s.

use std::sync::Arc;

use spire_core::pipeline::{analyze, estimate, train, PipelineConfig, RunContext, StderrSink};
use spire_core::{BottleneckReport, SampleSet, SpireModel, TrainConfig};
use spire_counters::pipeline::build;
use spire_counters::Dataset;

/// A pipeline-backed experiment session. One engine can train any number
/// of models and build any number of reports; all of them share a single
/// [`RunContext`] (and therefore one event stream).
pub struct Engine {
    ctx: RunContext,
}

impl Engine {
    /// A quiet engine: events go nowhere.
    pub fn new(config: TrainConfig) -> Self {
        Self::build(config, false)
    }

    /// An engine that narrates every event (stage progress, notes,
    /// quarantines) to stderr — the experiment binaries' progress output.
    pub fn narrated(config: TrainConfig) -> Self {
        Self::build(config, true)
    }

    fn build(config: TrainConfig, narrate: bool) -> Self {
        let mut ctx = RunContext::new(PipelineConfig {
            train: config,
            ..PipelineConfig::default()
        });
        if narrate {
            ctx.add_sink(Arc::new(StderrSink::verbose()));
        }
        Engine { ctx }
    }

    /// Emits a free-form progress note on the bus.
    pub fn note(&self, text: impl Into<String>) {
        self.ctx.note("bench", text);
    }

    /// Trains a SPIRE model from `dataset` through `build` → `train`
    /// under the engine's configuration.
    ///
    /// # Panics
    ///
    /// Panics if training fails (experiment corpora are never empty).
    pub fn train(&self, dataset: &Dataset) -> SpireModel {
        let merged = build(&self.ctx, dataset.clone()).expect("merging is infallible");
        train(&self.ctx, &merged)
            .expect("experiment corpus trains")
            .model
    }

    /// Like [`Engine::train`], but under a different [`TrainConfig`] —
    /// for ablation grids that sweep model configurations within one
    /// session.
    pub fn train_with(&mut self, dataset: &Dataset, config: TrainConfig) -> SpireModel {
        self.ctx.config.train = config;
        self.train(dataset)
    }

    /// Builds the annotated bottleneck report for one sample set under a
    /// trained model, through `estimate` → `analyze`.
    ///
    /// # Panics
    ///
    /// Panics if the samples share no metrics with the model (impossible
    /// when both came from the same event catalog).
    pub fn report(&self, model: &SpireModel, samples: &SampleSet) -> BottleneckReport {
        let estimate = estimate(&self.ctx, model, samples).expect("shared event catalog");
        analyze(&self.ctx, &estimate).expect("analysis is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spire_core::pipeline::{CollectingSink, Event};
    use spire_core::Sample;

    fn tiny_dataset() -> Dataset {
        let mut set = SampleSet::new();
        for m in ["m_a", "m_b"] {
            for i in 1..6 {
                set.push(Sample::new(m, 10.0, (5 * i) as f64, (10 - i) as f64).unwrap());
            }
        }
        let mut ds = Dataset::new();
        ds.insert("wl", set);
        ds
    }

    #[test]
    fn engine_train_matches_direct_api() {
        let ds = tiny_dataset();
        let mut engine = Engine::new(TrainConfig::default());
        let sink = Arc::new(CollectingSink::new());
        engine.ctx.add_sink(sink.clone());
        let via_engine = engine.train(&ds);
        let direct = SpireModel::train(&ds.merged(), TrainConfig::default()).unwrap();
        assert_eq!(via_engine, direct);
        // Build + Train both instrumented.
        let kinds: Vec<&str> = sink.events().iter().map(Event::kind).collect();
        assert!(kinds.contains(&"stage_started"));
        assert!(kinds.contains(&"stage_finished"));
        assert!(!engine.ctx.degraded());
    }

    #[test]
    fn engine_report_matches_direct_api() {
        let ds = tiny_dataset();
        let engine = Engine::new(TrainConfig::default());
        let model = engine.train(&ds);
        let samples = ds.get("wl").unwrap();
        let via_engine = engine.report(&model, samples);
        let estimate = model.estimate(samples).unwrap();
        let direct =
            BottleneckReport::new(&estimate, &spire_core::catalog::MetricCatalog::table_iii());
        assert_eq!(via_engine.rows(), direct.rows());
        assert_eq!(via_engine.throughput(), direct.throughput());
    }
}
