//! Machine identity: which processor produced a dataset or trained a
//! model.
//!
//! SPIRE's portability story is retraining per machine, which makes the
//! machine a first-class dimension of every artifact: a [`MachineSpec`]
//! names the microarchitecture, fingerprints its exact configuration
//! (FNV-1a 64 over the canonical config JSON), and carries the derived
//! peak descriptors ([`MachinePeaks`]) used by the hardware-agnostic
//! normalization of "Dissecting RISC-V Performance". The spec is threaded
//! through dataset metadata, snapshot provenance, and serve responses, so
//! a model trained on one machine can never be silently applied to
//! another machine's counters: the mismatch surfaces as a typed
//! `machine_mismatch` event (lenient) or a [`SpireError::MachineMismatch`](crate::SpireError::MachineMismatch)
//! refusal (strict).
//!
//! # Normalization math
//!
//! A hardware-agnostic (peak-normalized) sample scales the work quantity
//! by the machine's peak throughput, `W' = W / peak`, so throughput
//! becomes the dimensionless fraction of peak `P' = W'/T = P/peak`.
//! Metric deltas scale by their dimension, following the peak-scaled
//! roofline construction of "Dissecting RISC-V Performance":
//!
//! * **event counts** (retired/issued µops, per-level hits, misses,
//!   branches) are proportional to the work done, so they scale with it:
//!   `M' = M / peak`. The intensity `I = W'/M' = W/M` — work per event —
//!   is then *machine-invariant*, and the metric's roofline relates a
//!   workload property (x axis) to a machine-relative fraction of peak
//!   (y axis), which is exactly what transfers across machines;
//! * **cycle-denominated counters** (stall, activity, and occupancy
//!   cycles) keep raw deltas — cycles are already machine-neutral time —
//!   so their intensity becomes fraction-of-peak work per cycle.
//!
//! A spec with [`MachineSpec::normalized`] set tags artifacts in those
//! units; normalized models skip the machine-identity check entirely
//! (cross-machine use is their purpose).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::sample::{MetricColumn, SampleSet};
use crate::snapshot::fnv1a64;

/// Derived peak descriptors of a machine: the ceilings normalization
/// divides by and the catalog reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachinePeaks {
    /// Peak work throughput (work units per cycle; issue width for IPC).
    pub throughput: f64,
    /// Per-memory-level bandwidth ceilings (misses serviceable per cycle,
    /// Little's-law style: outstanding misses / latency), keyed by level
    /// name (`"l1"`, `"l2"`, `"l3"`, `"dram"`).
    pub bandwidth: BTreeMap<String, f64>,
}

/// Identity of the machine an artifact came from: a catalog name, the
/// FNV-1a 64 fingerprint of the canonical configuration JSON, and the
/// derived peaks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Human-meaningful machine name (catalog preset or custom file stem).
    pub name: String,
    /// FNV-1a 64 fingerprint of the canonical config JSON, lowercase hex.
    pub fingerprint: String,
    /// Derived peak descriptors.
    pub peaks: MachinePeaks,
    /// `true` when the tagged artifact is in peak-normalized
    /// (hardware-agnostic) units rather than raw counter units.
    pub normalized: bool,
}

impl MachineSpec {
    /// Short `name [fingerprint]` form for logs and event payloads.
    pub fn tag(&self) -> String {
        format!("{} [{}]", self.name, self.fingerprint)
    }

    /// Returns a copy tagged as peak-normalized.
    pub fn as_normalized(&self) -> MachineSpec {
        MachineSpec {
            normalized: true,
            ..self.clone()
        }
    }

    /// Whether two specs identify the same machine in the same units:
    /// equal fingerprints and equal normalization. Names are advisory.
    pub fn matches(&self, other: &MachineSpec) -> bool {
        self.fingerprint == other.fingerprint && self.normalized == other.normalized
    }
}

/// Fingerprints a machine's canonical configuration text (FNV-1a 64,
/// lowercase hex) — the identity compared by every mismatch check.
pub fn config_fingerprint(canonical_json: &str) -> String {
    format!("{:016x}", fnv1a64(canonical_json.as_bytes()))
}

/// Whether a counter's deltas are denominated in cycles rather than
/// event counts, inferred from the counter naming convention (stall,
/// activity, and occupancy counters all carry `cycles`, `stalls`, or
/// `activity` in their names). Cycle deltas are machine-neutral time and
/// stay raw under normalization; event counts scale with the work so
/// work-per-event intensities stay machine-invariant.
fn cycle_denominated(metric: &str) -> bool {
    metric.contains("cycles") || metric.contains("stalls") || metric.contains("activity")
}

/// Peak-normalizes one sample set (see the module docs for the math):
/// every row's work `W` — and, for event-count metrics, the metric delta
/// with it — is scaled by `1 / peaks.throughput`, putting throughput in
/// fraction-of-peak units while work-per-event intensities stay
/// machine-invariant. Times and cycle-denominated deltas are unchanged.
/// Hostile rows (NaN/infinite work) pass through scaled, as the
/// unchecked ingest paths already admit them.
pub fn normalize_set(set: &SampleSet, peaks: &MachinePeaks) -> SampleSet {
    let scale = 1.0 / peaks.throughput;
    let columns = set
        .columns()
        .iter()
        .map(|col| {
            let delta_scale = if cycle_denominated(col.metric().as_str()) {
                1.0
            } else {
                scale
            };
            MetricColumn::from_raw_columns(
                col.metric().clone(),
                col.times().to_vec(),
                col.works().iter().map(|w| w * scale).collect(),
                col.metric_deltas()
                    .iter()
                    .map(|d| d * delta_scale)
                    .collect(),
            )
            .expect("source column arrays share one length")
        })
        .collect();
    SampleSet::from_columns(columns).expect("source columns are sorted and distinct")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sample;

    fn spec(name: &str, fp: &str) -> MachineSpec {
        MachineSpec {
            name: name.to_owned(),
            fingerprint: fp.to_owned(),
            peaks: MachinePeaks {
                throughput: 4.0,
                bandwidth: [("dram".to_owned(), 0.05)].into_iter().collect(),
            },
            normalized: false,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let a = config_fingerprint("{\"issue_width\":4}");
        let b = config_fingerprint("{\"issue_width\":4}");
        let c = config_fingerprint("{\"issue_width\":8}");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|ch| ch.is_ascii_hexdigit()));
    }

    #[test]
    fn matches_compares_fingerprint_and_normalization() {
        let a = spec("a", "00ff");
        assert!(a.matches(&spec("other-name", "00ff")));
        assert!(!a.matches(&spec("a", "00fe")));
        assert!(!a.matches(&a.as_normalized()));
        assert!(a.as_normalized().matches(&a.as_normalized()));
    }

    #[test]
    fn serde_round_trip_preserves_every_field() {
        let mut s = spec("hpc", "abcd0123abcd0123");
        s.normalized = true;
        let json = serde_json::to_string(&s).unwrap();
        let back: MachineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn normalize_scales_work_and_event_counts_together() {
        let mut set = SampleSet::new();
        set.push(Sample::new("mem_load_retired.l2_hit", 2.0, 8.0, 4.0).unwrap());
        set.push(Sample::new("uops_issued.any", 1.0, 4.0, 0.0).unwrap());
        let peaks = MachinePeaks {
            throughput: 4.0,
            bandwidth: BTreeMap::new(),
        };
        let scaled = normalize_set(&set, &peaks);
        let m = scaled.column(&"mem_load_retired.l2_hit".into()).unwrap();
        assert_eq!(m.times(), &[2.0]);
        assert_eq!(m.works(), &[2.0]);
        // Event counts scale with the work, so work-per-event intensity
        // is unchanged while throughput is a fraction of peak.
        assert_eq!(m.metric_deltas(), &[1.0]);
        assert_eq!(m.throughputs(), &[1.0]);
        assert_eq!(m.intensities(), &[2.0]);
        // Infinite intensity (zero delta) survives normalization.
        let n = scaled.column(&"uops_issued.any".into()).unwrap();
        assert!(n.intensities()[0].is_infinite());
        assert_eq!(scaled.len(), set.len());
    }

    #[test]
    fn normalize_keeps_cycle_denominated_deltas_raw() {
        let mut set = SampleSet::new();
        set.push(Sample::new("cycle_activity.stalls_total", 2.0, 8.0, 6.0).unwrap());
        set.push(Sample::new("resource_stalls.any", 2.0, 8.0, 3.0).unwrap());
        set.push(Sample::new("exe_activity.1_ports_util", 2.0, 8.0, 5.0).unwrap());
        set.push(Sample::new("l1d_pend_miss.pending_cycles", 2.0, 8.0, 7.0).unwrap());
        let peaks = MachinePeaks {
            throughput: 4.0,
            bandwidth: BTreeMap::new(),
        };
        let scaled = normalize_set(&set, &peaks);
        for (metric, delta) in [
            ("cycle_activity.stalls_total", 6.0),
            ("resource_stalls.any", 3.0),
            ("exe_activity.1_ports_util", 5.0),
            ("l1d_pend_miss.pending_cycles", 7.0),
        ] {
            let col = scaled.column(&metric.into()).unwrap();
            // Cycles are machine-neutral time: deltas stay raw while the
            // work (and thus throughput/intensity) is a fraction of peak.
            assert_eq!(col.metric_deltas(), &[delta], "{metric}");
            assert_eq!(col.works(), &[2.0], "{metric}");
        }
    }
}
