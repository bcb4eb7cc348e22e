//! Sampling sessions: running a workload on the simulated core while
//! collecting SPIRE samples through a multiplexed PMU.
//!
//! This mirrors the paper's collection setup (Section IV): `perf stat`
//! reads the counters in fixed wall-clock intervals while multiplexing a
//! large event list over a small number of hardware counters, and each
//! `(interval, metric)` pair becomes one SPIRE sample with shared `T`
//! (cycles) and `W` (instructions).

use serde::{Deserialize, Serialize};
use spire_core::{MetricId, SampleSet};
use spire_sim::{Core, Event, Instr, Pmu};

use crate::schedule::MultiplexSchedule;

/// Configuration of a sampling session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Cycles per sampling interval (the paper's "2 seconds"). One sample
    /// per metric is emitted per interval.
    pub interval_cycles: u64,
    /// Cycles each event group is programmed for within an interval.
    pub slice_cycles: u64,
    /// Programmable PMU slots available for multiplexing.
    pub pmu_slots: usize,
    /// Cycles of overhead charged for each group reprogramming (the
    /// source of the paper's 1.6% average sampling overhead).
    pub switch_overhead_cycles: u64,
    /// Hard cap on total simulated cycles (including overhead).
    pub max_cycles: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            interval_cycles: 200_000,
            slice_cycles: 10_000,
            pmu_slots: 4,
            switch_overhead_cycles: 60,
            max_cycles: 20_000_000,
        }
    }
}

impl SessionConfig {
    /// A fast configuration for unit tests.
    pub fn quick() -> Self {
        SessionConfig {
            interval_cycles: 20_000,
            slice_cycles: 2_000,
            pmu_slots: 4,
            switch_overhead_cycles: 20,
            max_cycles: 400_000,
        }
    }
}

/// The outcome of a sampling session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// The collected SPIRE samples (one per metric per interval).
    pub samples: SampleSet,
    /// Total cycles simulated, including multiplexing overhead.
    pub total_cycles: u64,
    /// Instructions retired over the session.
    pub instructions: u64,
    /// Cycles spent on PMU reprogramming.
    pub overhead_cycles: u64,
    /// Number of completed sampling intervals.
    pub intervals: usize,
    /// Number of event groups in the rotation.
    pub groups: usize,
    /// Readings that failed sample validation and were dropped instead of
    /// aborting the session (0 for healthy counters; non-zero indicates a
    /// simulator or PMU defect worth investigating).
    pub dropped_samples: usize,
}

impl SessionReport {
    /// Overall instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.total_cycles as f64
        }
    }

    /// Fraction of execution time lost to counter multiplexing — the
    /// statistic the paper reports as 1.6% average / 4.6% max.
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.overhead_cycles as f64 / self.total_cycles as f64
        }
    }
}

/// Runs `stream` on `core`, sampling `events` with multiplexing, until the
/// stream drains or `config.max_cycles` is reached.
///
/// For each interval, the schedule's groups rotate in round-robin slices.
/// Per `(group slice, event)` the session reads `T` (cycles), `W`
/// (instructions) and `M_x` through the PMU; slices belonging to the same
/// interval accumulate into one [`Sample`](spire_core::Sample) per event.
/// The fixed counters are measured alongside every group, exactly as on
/// real hardware.
///
/// # Panics
///
/// Panics if `config` has a zero interval, slice, or slot count.
pub fn collect<I>(
    core: &mut Core,
    stream: &mut I,
    events: &[Event],
    config: &SessionConfig,
) -> SessionReport
where
    I: Iterator<Item = Instr>,
{
    let mut samples = SampleSet::new();
    let mut report = collect_batched(core, stream, events, config, |batch| samples.merge(batch));
    report.samples = samples;
    report
}

/// Streaming variant of [`collect`]: hands each completed interval's
/// samples to `on_batch` as one insertable [`SampleSet`] instead of
/// accumulating them, so callers can feed an incremental trainer
/// ([`spire_core::OnlineTrainer`]) without holding the whole session in
/// memory. Batches arrive in interval order; merging them in order
/// reproduces [`collect`]'s sample set exactly.
///
/// The returned report's `samples` field is left empty — the samples were
/// handed to `on_batch` — while every other field (cycles, instructions,
/// overhead, intervals, groups, dropped samples) is identical to what
/// [`collect`] would report.
///
/// # Panics
///
/// Panics if `config` has a zero interval, slice, or slot count.
pub fn collect_batched<I, F>(
    core: &mut Core,
    stream: &mut I,
    events: &[Event],
    config: &SessionConfig,
    mut on_batch: F,
) -> SessionReport
where
    I: Iterator<Item = Instr>,
    F: FnMut(SampleSet),
{
    assert!(
        config.interval_cycles > 0,
        "interval_cycles must be non-zero"
    );
    assert!(config.slice_cycles > 0, "slice_cycles must be non-zero");
    let schedule = MultiplexSchedule::new(events, config.pmu_slots);
    let mut pmu = Pmu::new(config.pmu_slots);
    let start_cycles = core.cycle();
    let start_instrs = core.retired_instructions();
    let mut overhead_cycles = 0u64;
    let mut intervals = 0usize;
    let mut dropped_samples = 0usize;

    // Accumulators per event within the current interval: (T, W, M).
    let mut acc: Vec<(f64, f64, f64)> = vec![(0.0, 0.0, 0.0); schedule.event_count()];
    let flat_events: Vec<Event> = schedule.events().collect();
    let overhead_stream_budget = config.switch_overhead_cycles;

    'outer: while schedule.group_count() > 0 {
        // One interval: rotate groups until interval_cycles are consumed.
        let interval_start = core.cycle();
        acc.iter_mut().for_each(|a| *a = (0.0, 0.0, 0.0));
        'interval: for (group_idx, group) in schedule.groups().iter().enumerate().cycle() {
            // Reprogramming overhead: the workload keeps running but no
            // group is being measured.
            pmu.program(group)
                .expect("groups fit the PMU by construction");
            if overhead_stream_budget > 0 {
                let before = core.cycle();
                core.run(stream, overhead_stream_budget);
                overhead_cycles += core.cycle() - before;
            }

            // Measure the slice through the PMU.
            let snapshot = core.counters().clone();
            core.run(stream, config.slice_cycles);
            let delta = core.counters().delta(&snapshot);
            let t = pmu
                .read(&delta, Event::CpuClkUnhaltedThread)
                .expect("fixed counter") as f64;
            let w = pmu
                .read(&delta, Event::InstRetiredAny)
                .expect("fixed counter") as f64;
            for &e in group {
                let m = pmu.read(&delta, e).expect("programmed event") as f64;
                let idx = flat_events
                    .iter()
                    .position(|&fe| fe == e)
                    .expect("event is in the schedule");
                let slot = &mut acc[idx];
                slot.0 += t;
                slot.1 += w;
                slot.2 += m;
            }

            let drained = core.is_drained();
            let out_of_budget = core.cycle() - start_cycles >= config.max_cycles;
            // Intervals close only at rotation boundaries so that every
            // event receives the same number of slices per interval (the
            // final interval may still be truncated by drain or budget).
            let rotation_done = group_idx + 1 == schedule.group_count();
            if (rotation_done && core.cycle() - interval_start >= config.interval_cycles)
                || drained
                || out_of_budget
            {
                // Close the interval: emit one sample per covered event
                // into this interval's batch.
                let mut batch = SampleSet::new();
                for (i, &e) in flat_events.iter().enumerate() {
                    let (t, w, m) = acc[i];
                    // A malfunctioning counter (e.g. a wrapped delta) must
                    // not abort the whole session: drop the reading and
                    // account for it instead.
                    if t > 0.0 {
                        match batch.push_parts(MetricId::new(e.name()), t, w, m) {
                            Ok(()) => {}
                            Err(_) => dropped_samples += 1,
                        }
                    }
                }
                if !batch.is_empty() {
                    intervals += 1;
                    on_batch(batch);
                }
                if drained || out_of_budget {
                    break 'outer;
                }
                break 'interval;
            }
        }
    }

    SessionReport {
        samples: SampleSet::new(),
        total_cycles: core.cycle() - start_cycles,
        instructions: core.retired_instructions() - start_instrs,
        overhead_cycles,
        intervals,
        groups: schedule.group_count(),
        dropped_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spire_sim::CoreConfig;

    fn alu_stream(n: usize) -> std::vec::IntoIter<Instr> {
        vec![Instr::simple_alu(); n].into_iter()
    }

    fn small_events() -> Vec<Event> {
        vec![
            Event::IdqDsbUops,
            Event::IcacheMisses,
            Event::LongestLatCacheMiss,
            Event::BrMispRetiredAllBranches,
            Event::CycleActivityStallsTotal,
            Event::UopsIssuedAny,
        ]
    }

    #[test]
    fn collect_emits_one_sample_per_event_per_interval() {
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = alu_stream(500_000);
        let report = collect(
            &mut core,
            &mut stream,
            &small_events(),
            &SessionConfig::quick(),
        );
        assert!(report.intervals >= 2, "intervals = {}", report.intervals);
        // Each interval covers all 6 events; healthy counters drop nothing.
        assert_eq!(report.samples.len(), report.intervals * 6);
        assert_eq!(report.samples.metrics().count(), 6);
        assert_eq!(report.dropped_samples, 0);
    }

    #[test]
    fn sample_times_are_positive_and_bounded_by_interval() {
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = alu_stream(300_000);
        let cfg = SessionConfig::quick();
        let report = collect(&mut core, &mut stream, &small_events(), &cfg);
        for s in report.samples.iter() {
            assert!(s.time() > 0.0);
            assert!(s.time() <= cfg.interval_cycles as f64 + cfg.slice_cycles as f64);
        }
    }

    #[test]
    fn overhead_is_accounted_and_small() {
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = alu_stream(500_000);
        let report = collect(
            &mut core,
            &mut stream,
            &small_events(),
            &SessionConfig::quick(),
        );
        assert!(report.overhead_cycles > 0);
        // The paper reports 1.6% average; our default is the same order.
        assert!(
            report.overhead_fraction() < 0.1,
            "overhead {}",
            report.overhead_fraction()
        );
    }

    #[test]
    fn session_stops_at_max_cycles() {
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = std::iter::repeat(Instr::simple_alu());
        let mut cfg = SessionConfig::quick();
        cfg.max_cycles = 50_000;
        let report = collect(&mut core, &mut stream, &small_events(), &cfg);
        assert!(report.total_cycles >= 50_000);
        assert!(report.total_cycles < 80_000);
    }

    #[test]
    fn session_drains_short_streams() {
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = alu_stream(5_000);
        let report = collect(
            &mut core,
            &mut stream,
            &small_events(),
            &SessionConfig::quick(),
        );
        assert_eq!(report.instructions, 5_000);
        assert!(core.is_drained());
        assert!(report.intervals >= 1);
    }

    #[test]
    fn fixed_counters_are_consistent_with_samples() {
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = alu_stream(200_000);
        let report = collect(
            &mut core,
            &mut stream,
            &small_events(),
            &SessionConfig::quick(),
        );
        // Summed per-metric work cannot exceed the total work (each event
        // only sees its own slices).
        let per_metric = report.samples.by_metric();
        for (_, group) in per_metric {
            let w: f64 = group.works().iter().sum();
            assert!(w <= report.instructions as f64 + 1.0);
        }
    }

    #[test]
    fn batched_collection_concatenates_to_the_unbatched_sample_set() {
        let cfg = SessionConfig::quick();
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = alu_stream(300_000);
        let whole = collect(&mut core, &mut stream, &small_events(), &cfg);

        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = alu_stream(300_000);
        let mut batches = Vec::new();
        let report = collect_batched(&mut core, &mut stream, &small_events(), &cfg, |batch| {
            batches.push(batch)
        });

        assert!(report.samples.is_empty(), "batched report holds no samples");
        assert_eq!(batches.len(), report.intervals, "one batch per interval");
        assert_eq!(report.intervals, whole.intervals);
        assert_eq!(report.total_cycles, whole.total_cycles);
        assert_eq!(report.instructions, whole.instructions);
        assert_eq!(report.overhead_cycles, whole.overhead_cycles);
        assert_eq!(report.dropped_samples, whole.dropped_samples);

        let mut merged = SampleSet::new();
        for batch in batches {
            merged.merge(batch);
        }
        assert_eq!(merged, whole.samples);
    }

    #[test]
    fn empty_event_list_produces_no_samples() {
        let mut core = Core::new(CoreConfig::skylake_server());
        let mut stream = alu_stream(10_000);
        let report = collect(&mut core, &mut stream, &[], &SessionConfig::quick());
        assert!(report.samples.is_empty());
    }
}
