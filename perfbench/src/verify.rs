//! Checks each served answer against the library on the same model and,
//! when tracing, splits each read's latency across the layers the
//! request went through.
//!
//! The split replays, outside the timed window, the calls the daemon and
//! the client made for the request: client encode, request decode, cache
//! key, estimate kernel, ranking, response encode, client decode. What
//! the replayed calls and the generator's queue wait do not cover is
//! `serve.unattributed_ms`: transport, frame I/O, queueing inside the
//! daemon, and stalls. Per request the parts sum to the latency exactly.

use spire_core::catalog::MetricCatalog;
use spire_core::ensemble::Estimate;
use spire_core::{BottleneckReport, SampleSet, SpireModel};
use spire_serve::cache::request_key;
use spire_serve::{Request, Response};

use crate::daemon::MODEL;
use crate::loadgen::{Done, Kind};
use crate::trace::{mean, Tracer};
use crate::Outcome;

/// The `top` an analyze request without one gets, and its cache-key value.
const DEFAULT_TOP: usize = 10;

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Whether `response` is bit-identical to what the library computes;
/// `report` is the estimate's ranking, for analyze.
fn matches(
    kind: Kind,
    response: &Response,
    estimate: &Estimate,
    report: Option<&BottleneckReport>,
) -> bool {
    match (kind, report) {
        (Kind::Estimate, _) => {
            let Some(rows) = &response.per_metric else {
                return false;
            };
            response
                .throughput
                .is_some_and(|t| same(t, estimate.throughput()))
                && rows.len() == estimate.per_metric().len()
                && rows
                    .iter()
                    .zip(estimate.per_metric())
                    .all(|(row, (metric, me))| {
                        row.metric == metric.as_str()
                            && same(row.merged, me.merged)
                            && row.sample_count == me.sample_count
                    })
        }
        (Kind::Analyze, Some(report)) => {
            response
                .throughput
                .is_some_and(|t| same(t, report.throughput()))
                && response.ranked.as_deref() == Some(report.top(DEFAULT_TOP))
        }
        _ => false,
    }
}

/// Per-request layer times of the traced reads, in ms.
#[derive(Default)]
struct Split {
    client_encode: Vec<f64>,
    proto_decode: Vec<f64>,
    cache_key: Vec<f64>,
    estimate: Vec<f64>,
    rank: Vec<f64>,
    proto_encode: Vec<f64>,
    client_decode: Vec<f64>,
    wait: Vec<f64>,
    unattributed: Vec<f64>,
    latency: Vec<f64>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    estimate_samples: usize,
}

pub struct Checker {
    catalog: MetricCatalog,
    split: Split,
}

impl Checker {
    pub fn new() -> Self {
        Checker {
            catalog: MetricCatalog::table_iii(),
            split: Split::default(),
        }
    }

    /// Checks one answered read; with `replay` (and tracing on) also
    /// times its layers. Returns whether the answer was right.
    pub fn read(
        &mut self,
        done: &Done,
        samples: &SampleSet,
        model: &SpireModel,
        replay: bool,
        tracer: &mut Tracer,
    ) -> bool {
        let Ok(response) = &done.response else {
            return false;
        };
        let kind = done.op.kind;
        if !(replay && tracer.enabled()) {
            let Ok(estimate) = model.estimate(samples) else {
                return false;
            };
            let report =
                (kind == Kind::Analyze).then(|| BottleneckReport::new(&estimate, &self.catalog));
            return matches(kind, response, &estimate, report.as_ref());
        }
        let id = Some(done.op.item);
        let root = tracer.open("read.replay", None, id);
        let kind_name = if kind == Kind::Estimate {
            "estimate"
        } else {
            "analyze"
        };
        let mut request = Request::bare(kind_name);
        request.model = Some(MODEL.to_owned());
        let (json, encode_ms) = tracer.time("serve.client.encode", root, id, || {
            request.samples = Some(samples.clone());
            serde_json::to_string(&request).unwrap_or_default()
        });
        let (_, decode_ms) = tracer.time("serve.proto.decode", root, id, || {
            serde_json::from_str::<Request>(&json).is_ok()
        });
        let fingerprint = response.fingerprint.clone().unwrap_or_default();
        let top = if kind == Kind::Analyze {
            DEFAULT_TOP
        } else {
            0
        };
        let (_, key_ms) = tracer.time("serve.cache.key", root, id, || {
            let samples_json = serde_json::to_string(samples).unwrap_or_default();
            request_key(kind_name, top, &fingerprint, &samples_json)
        });
        // A cached answer skipped the kernel and the ranking in the daemon,
        // so the split charges them only on a miss; the check runs either way.
        let cached = response.cached == Some(true);
        let (parent, names) = if cached {
            (None, ["check.estimate", "check.rank"])
        } else {
            (root, ["core.ensemble.estimate", "core.analysis.rank"])
        };
        let (estimate, estimate_ms) = tracer.time(names[0], parent, id, || {
            model.estimate_batch(&[samples]).pop()
        });
        let Some(Ok(estimate)) = estimate else {
            tracer.close(root);
            return false;
        };
        let (report, rank_ms) = tracer.time(names[1], parent, id, || {
            (kind == Kind::Analyze).then(|| BottleneckReport::new(&estimate, &self.catalog))
        });
        let right = matches(kind, response, &estimate, report.as_ref());
        let (estimate_ms, rank_ms) = if cached {
            (0.0, 0.0)
        } else {
            (estimate_ms, rank_ms)
        };
        if !cached {
            self.split.estimate_samples += samples.len();
        }
        let (response_json, proto_encode_ms) = tracer.time("serve.proto.encode", root, id, || {
            serde_json::to_string(response).unwrap_or_default()
        });
        let (_, client_decode_ms) = tracer.time("serve.client.decode", root, id, || {
            serde_json::from_str::<Response>(&response_json).is_ok()
        });
        tracer.close(root);

        let s = &mut self.split;
        let parts = [
            encode_ms,
            decode_ms,
            key_ms,
            estimate_ms,
            rank_ms,
            proto_encode_ms,
            client_decode_ms,
            done.wait_ms(),
        ];
        s.client_encode.push(encode_ms);
        s.proto_decode.push(decode_ms);
        s.cache_key.push(key_ms);
        s.estimate.push(estimate_ms);
        s.rank.push(rank_ms);
        s.proto_encode.push(proto_encode_ms);
        s.client_decode.push(client_decode_ms);
        s.wait.push(done.wait_ms());
        s.latency.push(done.latency_ms());
        s.unattributed
            .push(done.latency_ms() - parts.iter().sum::<f64>());
        // Frames carry a 4-byte length prefix.
        s.request_bytes.push((json.len() + 4) as f64);
        s.response_bytes.push((response_json.len() + 4) as f64);
        right
    }

    /// Reports the split as per-request means, which sum to the mean read
    /// latency (`serve.read_mean_ms`).
    pub fn report(&self, outcome: &mut Outcome) {
        let s = &self.split;
        let parts = [
            ("serve.client.encode_ms", &s.client_encode),
            ("serve.proto.decode_ms", &s.proto_decode),
            ("serve.cache.key_ms", &s.cache_key),
            ("core.ensemble.estimate_ms", &s.estimate),
            ("core.analysis.rank_ms", &s.rank),
            ("serve.proto.encode_ms", &s.proto_encode),
            ("serve.client.decode_ms", &s.client_decode),
            ("loadgen.wait_ms", &s.wait),
            ("serve.unattributed_ms", &s.unattributed),
        ];
        let mut total = 0.0;
        for (name, values) in parts {
            total += mean(values);
            outcome.layer(name, mean(values), "ms");
        }
        let latency = mean(&s.latency);
        outcome.layer("serve.read_mean_ms", latency, "ms");
        if (total - latency).abs() > 1e-6 * latency.max(1.0) {
            outcome.problem(format!(
                "layer split sums to {total} ms but the mean read latency is {latency} ms"
            ));
        }
        outcome.layer(
            "core.ensemble.estimate_samples",
            s.estimate_samples as f64,
            "count",
        );
        outcome.layer(
            "serve.client.request_bytes",
            mean(&s.request_bytes),
            "bytes",
        );
        outcome.layer(
            "serve.client.response_bytes",
            mean(&s.response_bytes),
            "bytes",
        );
        outcome.note("split.requests", s.latency.len() as f64);
    }
}
