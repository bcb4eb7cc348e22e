//! Right-region fitting (paper Section III-D, Fig. 6).
//!
//! The right region of a SPIRE roofline is a series of decreasing,
//! concave-up line segments lying on or above all training samples with
//! intensity at or beyond the apex (the highest-throughput sample). The
//! paper phrases the fit as a shortest-path search over a graph whose
//! vertices are candidate segments between Pareto-front samples; this
//! module solves the same optimization directly, in `O(k² log k)` for a
//! front of `k` samples, without materializing the graph:
//!
//! 1. compute the Pareto front of `(I_x, P)` (all other samples cannot be
//!    touched by a valid decreasing fit and are ignored);
//! 2. score candidate segments in O(1) each via closed-form squared-error
//!    expressions over prefix sums of `x, x², y, y², xy` ([`PrefixSums`]);
//! 3. decide segment feasibility (on-or-above every interior sample) in
//!    amortized O(1) per candidate with a visibility walk per junction: a
//!    chord clears its interior iff its slope does not exceed the running
//!    minimum slope from the junction to any interior sample;
//! 4. run a topological dynamic program over segments ordered by their
//!    right endpoint (the graph is a DAG: edges only go from `(a, b)` to
//!    `(b, z)` with `b > a`, so processing junctions in front order
//!    finalizes every predecessor before it is needed), picking for each
//!    segment the cheapest concave predecessor via a slope-sorted
//!    prefix-minimum instead of a binary-heap Dijkstra.
//!
//! The previous O(k³) graph construction + Dijkstra implementation is kept
//! verbatim (modulo the shared degenerate-`dx` fix) in [`reference`] as an
//! executable specification; a proptest below asserts the two agree on
//! random fronts, and `spire-bench` compares their runtime under the
//! `reference-fit` feature.

use crate::geometry::{approx_coincident_x, ge_approx, Point, EPS};

/// The fitted right region of a roofline.
///
/// For intensities `x >= apex.x` the region evaluates as:
///
/// * `apex.y` (the *plateau*, the paper's `End` horizontal) for
///   `x < knots[0].x`;
/// * linear interpolation through `knots` (ascending `x`, ending at the
///   `Start` connection sample) within the knot span — including both
///   boundaries: `x == knots[0].x` evaluates to `knots[0].y` (not the
///   plateau) and `x == knots[last].x` to `knots[last].y` (not the tail);
/// * `tail` (the `Start` height, i.e. the max throughput observed at
///   `I_x = ∞`, or the rightmost front sample's height for a dummy start)
///   for `x` beyond the last knot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RightRegion {
    /// Height of the horizontal plateau between the apex and the first knot.
    pub(crate) plateau: f64,
    /// Chosen Pareto samples, ascending by intensity.
    pub(crate) knots: Vec<Point>,
    /// Value for intensities beyond the last knot (including `I_x = ∞`).
    pub(crate) tail: f64,
    /// Total squared estimation error of the chosen fit (the path cost).
    pub(crate) fit_error: f64,
}

impl RightRegion {
    /// Evaluates the region at intensity `x` (which may be `f64::INFINITY`).
    ///
    /// A NaN intensity carries no position information, so the result is
    /// NaN — mirroring the geometry layer, which skips non-finite points
    /// when fitting — rather than an arbitrary interpolation.
    pub fn eval(&self, x: f64) -> f64 {
        if x.is_nan() {
            return f64::NAN;
        }
        if self.knots.is_empty() {
            return self.tail;
        }
        let first = self.knots[0];
        let last = self.knots[self.knots.len() - 1];
        if x < first.x {
            self.plateau
        } else if x > last.x {
            self.tail
        } else {
            crate::geometry::piecewise_eval(&self.knots, x)
        }
    }

    /// The chosen Pareto knots, ascending by intensity.
    pub fn knots(&self) -> &[Point] {
        &self.knots
    }

    /// Height of the plateau segment (the `End` horizontal).
    pub fn plateau(&self) -> f64 {
        self.plateau
    }

    /// Value beyond the last knot (the `Start` height).
    pub fn tail(&self) -> f64 {
        self.tail
    }

    /// Total squared estimation error of the selected fit.
    pub fn fit_error(&self) -> f64 {
        self.fit_error
    }

    /// A degenerate region that is constant at `height` everywhere.
    pub(crate) fn constant(height: f64) -> Self {
        RightRegion {
            plateau: height,
            knots: Vec::new(),
            tail: height,
            fit_error: 0.0,
        }
    }
}

/// Slope of the segment between front samples `a` and `b` (`a` right of
/// `b`, so the slope is measured left-to-right as usual).
fn slope(front: &[Point], a: usize, b: usize) -> f64 {
    front[b].slope_to(&front[a])
}

/// Prefix sums of `x, x², y, y², xy` over the front, enabling O(1)
/// closed-form segment errors: `x[i]` is `Σ front[0..i].x`, and a sum over
/// the half-open index range `[lo, hi)` is `x[hi] - x[lo]`.
#[derive(Debug, Clone)]
struct PrefixSums {
    x: Vec<f64>,
    xx: Vec<f64>,
    y: Vec<f64>,
    yy: Vec<f64>,
    xy: Vec<f64>,
}

impl PrefixSums {
    fn new(front: &[Point]) -> Self {
        let k = front.len();
        let mut s = PrefixSums {
            x: Vec::with_capacity(k + 1),
            xx: Vec::with_capacity(k + 1),
            y: Vec::with_capacity(k + 1),
            yy: Vec::with_capacity(k + 1),
            xy: Vec::with_capacity(k + 1),
        };
        s.x.push(0.0);
        s.xx.push(0.0);
        s.y.push(0.0);
        s.yy.push(0.0);
        s.xy.push(0.0);
        let (mut x, mut xx, mut y, mut yy, mut xy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for p in front {
            x += p.x;
            xx += p.x * p.x;
            y += p.y;
            yy += p.y * p.y;
            xy += p.x * p.y;
            s.x.push(x);
            s.xx.push(xx);
            s.y.push(y);
            s.yy.push(yy);
            s.xy.push(xy);
        }
        s
    }
}

/// Squared overestimation of the chord `a -> b` over the interior front
/// samples `a+1 .. b-1`, in O(1) closed form from the prefix sums.
///
/// With the chord `v(x) = c0 + c1·x`, the error `Σ (v(x_q) - y_q)²`
/// expands to
///
/// ```text
/// n·c0² + c1²·Σx² + Σy² + 2·c0·c1·Σx − 2·c0·Σy − 2·c1·Σxy
/// ```
///
/// where every `Σ` ranges over the interior samples and is a prefix-sum
/// difference. When the endpoints are numerically coincident in `x`
/// (`coincident`), the chord degenerates to a vertical stack evaluated as a
/// horizontal at `max(y_a, y_b)`, and the error reduces to
/// `n·v² − 2·v·Σy + Σy²`.
///
/// Feasibility (on-or-above every interior sample) is decided separately by
/// the visibility walk; tiny negative results from floating-point
/// cancellation are clamped to zero.
fn chord_error(front: &[Point], sums: &PrefixSums, a: usize, b: usize, coincident: bool) -> f64 {
    debug_assert!(a < b);
    let n = b - a - 1;
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let (lo, hi) = (a + 1, b);
    let sy = sums.y[hi] - sums.y[lo];
    let syy = sums.yy[hi] - sums.yy[lo];
    let (pa, pb) = (front[a], front[b]);
    if coincident {
        let v = pa.y.max(pb.y);
        (nf * v * v - 2.0 * v * sy + syy).max(0.0)
    } else {
        let sx = sums.x[hi] - sums.x[lo];
        let sxx = sums.xx[hi] - sums.xx[lo];
        let sxy = sums.xy[hi] - sums.xy[lo];
        let c1 = (pb.y - pa.y) / (pb.x - pa.x);
        let c0 = pa.y - c1 * pa.x;
        (nf * c0 * c0 + c1 * c1 * sxx + syy + 2.0 * c0 * c1 * sx - 2.0 * c0 * sy - 2.0 * c1 * sxy)
            .max(0.0)
    }
}

/// Sentinel front index for the `S∞` pseudo-sample (the `Start` side).
const START: u32 = u32::MAX;

/// One reachable DP state: a feasible segment `(from, to)` — or a start
/// connection `(S∞, to)` when `from == START` — stored in `incoming[to]`.
#[derive(Debug, Clone, Copy)]
struct InEntry {
    /// Slope of this segment (`0.0` for the initial `Start` horizontal).
    slope: f64,
    /// Cheapest cost of any concave path from `Start` through this segment.
    cost: f64,
    /// Front index of the segment's right endpoint (`START` for `S∞`).
    from: u32,
    /// Index into `incoming[from]` of this segment's chosen predecessor
    /// (unused for start connections).
    pred: u32,
}

/// Fits the right region over the Pareto `front` with optional
/// `start_height` from infinite-intensity samples.
///
/// `front` must be non-empty, ordered by strictly decreasing intensity and
/// strictly increasing throughput (the [`pareto_front`] order), with the
/// apex last. Returns a region whose piecewise function lies on or above
/// every front sample and whose total squared overestimation of the front
/// is minimal among decreasing concave-up knot chains (the paper's Fig. 6
/// objective).
///
/// This runs in `O(k² log k)` time for a front of `k` samples — the
/// `log k` only from sorting predecessor slopes — and `O(F)` memory, where
/// `F ≤ k(k-1)/2` is the number of *feasible* segments. See the module
/// docs for the algorithm and `reference` for the executable O(k³)
/// specification it replaces.
///
/// [`pareto_front`]: crate::geometry::pareto_front
///
/// # Panics
///
/// Panics if `front` is empty.
pub fn fit_right_front(front: &[Point], start_height: Option<f64>) -> RightRegion {
    assert!(!front.is_empty(), "right fit requires a non-empty front");
    debug_assert!(
        front.windows(2).all(|w| w[1].x < w[0].x && w[1].y > w[0].y),
        "front must be ordered by strictly decreasing x / strictly increasing y"
    );
    let k = front.len();
    let apex = front[k - 1];
    let h_start = start_height.unwrap_or(front[0].y);

    if k == 1 {
        // Only the apex: plateau at the apex, tail at the start height.
        return RightRegion {
            plateau: apex.y,
            knots: vec![apex],
            tail: h_start,
            fit_error: 0.0,
        };
    }

    let sums = &PrefixSums::new(front);

    // Cost of the closing `End` horizontal from junction b: the apex
    // plateau's squared overestimation of front[b..k-1] (the departure
    // sample inclusive, the apex itself exclusive).
    let mut end_cost = vec![0.0; k];
    for b in (0..k - 1).rev() {
        let d = (apex.y - front[b].y).max(0.0);
        end_cost[b] = end_cost[b + 1] + d * d;
    }

    let mut incoming: Vec<Vec<InEntry>> = vec![Vec::new(); k];
    // Best complete path seen so far: (total cost, junction, entry index).
    // Strict `<` updates keep the first minimum found, which matches the
    // deterministic lowest-node-id tie-break of the reference Dijkstra
    // (start connections are created first, then segments in (a, b) order).
    let mut best_total = f64::INFINITY;
    let mut best_to = 0usize;
    let mut best_entry = 0usize;

    // Start connections (S∞, c): valid while every front sample strictly
    // right of c lies at or below the start height. Front heights increase
    // leftward, so the first sample above the start height ends the scan,
    // and the prefix cost accumulates in the same left-to-right order as
    // the reference's per-connection sums.
    let mut start_cost = 0.0;
    for c in 0..k {
        if c > 0 {
            let q = front[c - 1];
            if !ge_approx(h_start, q.y) {
                break;
            }
            let d = (h_start - q.y).max(0.0);
            start_cost += d * d;
        }
        incoming[c].push(InEntry {
            slope: 0.0,
            cost: start_cost,
            from: START,
            pred: 0,
        });
        let total = start_cost + end_cost[c];
        if total < best_total {
            best_total = total;
            best_to = c;
            best_entry = incoming[c].len() - 1;
        }
    }

    // Topological DP over junctions in front order. Every segment ending at
    // junction j departs from a junction < j, so by the time j is processed
    // `incoming[j]` is final; no heap or global distance array is needed.
    //
    // Scratch buffers, reused across junctions:
    // * `order` — indices of `incoming[j]` sorted by slope descending (ties
    //   by insertion order, for determinism);
    // * `pref_min` — running (cost, entry index) minimum over that order,
    //   so the cheapest concave predecessor of an outgoing segment with
    //   slope s is `pref_min[#eligible - 1]`, where the eligible entries
    //   (those with `s <= slope + tol`) form a prefix of `order`.
    let mut order: Vec<u32> = Vec::new();
    let mut pref_min: Vec<(f64, u32)> = Vec::new();
    for j in 0..k - 1 {
        if incoming[j].is_empty() {
            continue;
        }
        // Segments depart rightward (`b > j`), so splitting after `j` lets
        // the borrow checker see that `entries` and the push targets are
        // disjoint.
        let (head, rest) = incoming.split_at_mut(j + 1);
        let entries = &head[j];
        order.clear();
        order.extend(0..entries.len() as u32);
        order.sort_by(|&p, &q| {
            entries[q as usize]
                .slope
                .total_cmp(&entries[p as usize].slope)
                .then(p.cmp(&q))
        });
        pref_min.clear();
        let mut min_cost = f64::INFINITY;
        let mut min_entry = 0u32;
        for &i in &order {
            let e = entries[i as usize];
            if e.cost < min_cost {
                min_cost = e.cost;
                min_entry = i;
            }
            pref_min.push((min_cost, min_entry));
        }

        // Visibility walk: a chord (j, b) lies on or above every interior
        // sample iff its slope is at most the minimum slope from j to any
        // interior sample (tracked as a running minimum). When the exact
        // test fails, fall back to the reference's tolerant `ge_approx`
        // check at the binding (minimum-slope) sample.
        let pj = front[j];
        let mut min_slope = f64::INFINITY;
        let mut min_at = j;
        for b in (j + 1)..k {
            let pb = front[b];
            let coincident = approx_coincident_x(pj.x, pb.x);
            let s = slope(front, j, b);
            let feasible = if b == j + 1 || coincident || s <= min_slope {
                // No interior samples, a vertical stack (horizontal chord
                // at max(y) clears the increasing interior heights), or the
                // chord is at most as steep as every junction-to-interior
                // slope — which is exactly "on or above every interior
                // sample".
                true
            } else {
                let q = front[min_at];
                let v = pj.y + (q.x - pj.x) * s;
                ge_approx(v, q.y)
            };
            if feasible {
                // Concave predecessors (`s <= slope + tol`) form a prefix
                // of the slope-descending order.
                let eligible = order.partition_point(|&i| {
                    let ps = entries[i as usize].slope;
                    s <= ps + EPS * (1.0 + ps.abs())
                });
                if eligible > 0 {
                    let (pred_cost, pred_entry) = pref_min[eligible - 1];
                    let cost = pred_cost + chord_error(front, sums, j, b, coincident);
                    let target = &mut rest[b - j - 1];
                    target.push(InEntry {
                        slope: s,
                        cost,
                        from: j as u32,
                        pred: pred_entry,
                    });
                    let total = cost + end_cost[b];
                    if total < best_total {
                        best_total = total;
                        best_to = b;
                        best_entry = target.len() - 1;
                    }
                }
            }
            // Ties go to the farther sample: its larger lever arm makes the
            // tolerant fallback check the stricter of the two.
            if s <= min_slope {
                min_slope = s;
                min_at = b;
            }
        }
    }

    // Decode the chosen path by walking predecessor links backwards from
    // the best vertex. Front indices come out descending, which is exactly
    // ascending intensity.
    debug_assert!(
        best_total.is_finite(),
        "(S∞, 0) always yields a complete path"
    );
    let mut knots: Vec<Point> = Vec::new();
    let (mut to, mut entry) = (best_to, best_entry);
    loop {
        let e = incoming[to][entry];
        knots.push(front[to]);
        if e.from == START {
            break;
        }
        to = e.from as usize;
        entry = e.pred as usize;
    }

    RightRegion {
        plateau: apex.y,
        knots,
        tail: h_start,
        fit_error: best_total,
    }
}

/// The original O(k³) right-region fit, retained as an executable
/// specification: explicit segment graph construction (per-pair O(k)
/// feasibility/error scans) followed by binary-heap Dijkstra over
/// [`DiGraph`](crate::graph::DiGraph).
///
/// The production path is [`fit_right_front`]; this module exists so the
/// equivalence proptest and the `spire-bench` speedup measurements (under
/// the `reference-fit` feature) always compare against the real thing
/// rather than a re-derivation. The only change from the original is the
/// degenerate-`dx` guard in [`segment_error`](reference::segment_error), which now uses the shared
/// relative-epsilon test instead of `< f64::MIN_POSITIVE` (which only
/// caught exact zeros and denormals).
#[cfg(any(test, feature = "reference-fit"))]
pub mod reference {
    use super::{slope, RightRegion};
    use crate::geometry::{approx_coincident_x, ge_approx, Point, EPS};
    use crate::graph::{DiGraph, NodeId};

    /// A vertex in the segment graph: a candidate line segment between two
    /// front samples (`usize::MAX` encodes the `Start` pseudo-sample `S∞`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct SegmentVertex {
        /// Index of the right endpoint in the front (or `usize::MAX`).
        from: usize,
        /// Index of the left endpoint in the front.
        to: usize,
    }

    const START_SAMPLE: usize = usize::MAX;

    /// Squared overestimation error of the segment `a -> b` over the front
    /// samples strictly between them, or `None` if the segment dips below
    /// one (checked per sample with the tolerant `ge_approx`).
    ///
    /// `front` is ordered by decreasing intensity.
    pub fn segment_error(front: &[Point], a: usize, b: usize) -> Option<f64> {
        let (pa, pb) = (front[a], front[b]);
        debug_assert!(a < b);
        let coincident = approx_coincident_x(pa.x, pb.x);
        let mut err = 0.0;
        for q in &front[a + 1..b] {
            let v = if coincident {
                pa.y.max(pb.y)
            } else {
                pa.y + (q.x - pa.x) * (pb.y - pa.y) / (pb.x - pa.x)
            };
            if !ge_approx(v, q.y) {
                return None;
            }
            let d = (v - q.y).max(0.0);
            err += d * d;
        }
        Some(err)
    }

    /// The original graph-based right-region fit over the Pareto `front`
    /// (ordered by decreasing intensity, apex last) with optional
    /// `start_height`; same contract as
    /// [`fit_right_front`](super::fit_right_front).
    ///
    /// # Panics
    ///
    /// Panics if `front` is empty.
    pub fn fit_right(front: &[Point], start_height: Option<f64>) -> RightRegion {
        assert!(!front.is_empty(), "right fit requires a non-empty front");
        let k = front.len();
        let apex = front[k - 1];
        let h_start = start_height.unwrap_or(front[0].y);

        if k == 1 {
            // Only the apex: plateau at the apex, tail at the start height.
            return RightRegion {
                plateau: apex.y,
                knots: vec![apex],
                tail: h_start,
                fit_error: 0.0,
            };
        }

        // --- Build the segment graph. -------------------------------------
        let mut g = DiGraph::new();
        let start = g.add_node();
        let end = g.add_node();
        let mut vertices: Vec<SegmentVertex> = Vec::new();
        let mut vertex_ids: Vec<NodeId> = Vec::new();

        // Start connections: (S∞, c) valid when every front sample strictly
        // right of c lies at or below the start height.
        for c in 0..k {
            if front[..c].iter().all(|q| ge_approx(h_start, q.y)) {
                let id = g.add_node();
                vertices.push(SegmentVertex {
                    from: START_SAMPLE,
                    to: c,
                });
                vertex_ids.push(id);
                let w: f64 = front[..c]
                    .iter()
                    .map(|q| {
                        let d = (h_start - q.y).max(0.0);
                        d * d
                    })
                    .sum();
                g.add_edge(start, id, w);
            } else {
                // Front heights increase leftward, so once one sample
                // exceeds the start height every later c fails too.
                break;
            }
        }

        // Regular segment vertices (a, b), a right of b, segment on/above
        // the front samples between them.
        let mut seg_err = vec![vec![None; k]; k];
        #[allow(clippy::needless_range_loop)]
        for a in 0..k {
            for b in (a + 1)..k {
                if let Some(err) = segment_error(front, a, b) {
                    seg_err[a][b] = Some(err);
                    let id = g.add_node();
                    vertices.push(SegmentVertex { from: a, to: b });
                    vertex_ids.push(id);
                }
            }
        }

        // Bucket vertices by their right endpoint so that edge construction
        // only pairs (X, Y) with (Y, Z) candidates.
        let mut by_from: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, v) in vertices.iter().enumerate() {
            if v.from != START_SAMPLE {
                by_from[v.from].push(i);
            }
        }

        // Edges: (X, Y) -> (Y, Z) when YZ is at least as steep as XY.
        for (i, v) in vertices.iter().enumerate() {
            let vi = vertex_ids[i];
            for &j in &by_from[v.to] {
                let w = &vertices[j];
                let prev_slope = if v.from == START_SAMPLE {
                    // The initial horizontal has slope 0; any front segment
                    // is steeper (the front decreases rightward).
                    0.0
                } else {
                    slope(front, v.from, v.to)
                };
                let next_slope = slope(front, w.from, w.to);
                let tol = EPS * (1.0 + prev_slope.abs());
                if next_slope <= prev_slope + tol {
                    let weight = seg_err[w.from][w.to].expect("vertex implies valid segment");
                    g.add_edge(vi, vertex_ids[j], weight);
                }
            }
            // Every vertex has an edge to End: a horizontal segment at the
            // apex height covering the front samples between v.to
            // (inclusive — the horizontal passes over the departure sample
            // as well, unless it is the apex itself) and the apex
            // (exclusive).
            let w_end: f64 = front[v.to..k - 1]
                .iter()
                .map(|q| {
                    let d = (apex.y - q.y).max(0.0);
                    d * d
                })
                .sum();
            g.add_edge(vi, end, w_end);
        }

        let path = g
            .shortest_path(start, end)
            .expect("start connects to (S∞, 0) which connects to End");

        // --- Decode the path into knots. -----------------------------------
        // Path nodes: start, v1, v2, .., vn, end. The chosen samples are
        // v1.to, v2.to, ... read right-to-left; the connection sample is
        // v1.to.
        let mut chosen: Vec<usize> = Vec::new();
        for &node in &path.nodes[1..path.nodes.len() - 1] {
            let idx = vertex_ids
                .iter()
                .position(|&id| id == node)
                .expect("interior path nodes are segment vertices");
            let v = vertices[idx];
            if v.from != START_SAMPLE && chosen.is_empty() {
                chosen.push(v.from);
            }
            chosen.push(v.to);
        }
        debug_assert!(!chosen.is_empty());
        // `chosen` is ordered right-to-left (increasing front index =
        // decreasing x ... front index increases leftward). Convert to
        // ascending-x knots.
        let mut knots: Vec<Point> = chosen.iter().map(|&i| front[i]).collect();
        knots.reverse();

        RightRegion {
            plateau: apex.y,
            knots,
            tail: h_start,
            fit_error: path.cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    /// The paper's Fig. 6 worked example: Pareto samples A(10,1), B(8,2),
    /// C(6,3), D(4,4), E(2,5) plus the BD edge whose weight is the squared
    /// overestimation of C.
    fn paper_front() -> Vec<Point> {
        pts(&[(10.0, 1.0), (8.0, 2.0), (6.0, 3.0), (4.0, 4.0), (2.0, 5.0)])
    }

    #[test]
    fn segment_error_matches_paper_bd_example() {
        // Paper: the BD line overestimates C "with a squared error of 11".
        // With the paper's plot coordinates that value depends on the exact
        // sample heights; with A..E as placed here, line B(8,2)-D(4,4) at
        // C.x = 6 gives 3.0 => error (3-3)^2 = 0. Use a C that sits below:
        let front = pts(&[(8.0, 2.0), (6.0, 2.5), (4.0, 4.0)]);
        // line from (8,2) to (4,4) at x=6 -> 3.0; error (3.0-2.5)^2 = 0.25
        let err = reference::segment_error(&front, 0, 2).unwrap();
        assert!((err - 0.25).abs() < 1e-12);
        // The closed-form prefix-sum error agrees.
        let sums = PrefixSums::new(&front);
        assert!((chord_error(&front, &sums, 0, 2, false) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn segment_below_a_sample_is_invalid() {
        let front = pts(&[(8.0, 2.0), (6.0, 3.5), (4.0, 4.0)]);
        // line (8,2)-(4,4) at x=6 -> 3.0 < 3.5
        assert!(reference::segment_error(&front, 0, 2).is_none());
    }

    #[test]
    fn chord_error_matches_scan_on_all_feasible_pairs() {
        let front = pts(&[
            (20.0, 0.5),
            (12.0, 1.2),
            (9.0, 2.8),
            (6.0, 3.1),
            (4.0, 4.5),
            (2.0, 6.0),
        ]);
        let sums = PrefixSums::new(&front);
        for a in 0..front.len() {
            for b in (a + 1)..front.len() {
                if let Some(scan) = reference::segment_error(&front, a, b) {
                    let closed = chord_error(&front, &sums, a, b, false);
                    assert!(
                        (closed - scan).abs() <= 1e-9 * (1.0 + scan),
                        "chord ({a},{b}): closed-form {closed} vs scan {scan}"
                    );
                }
            }
        }
    }

    #[test]
    fn collinear_front_fits_exactly_with_zero_error() {
        let front = pts(&[(8.0, 1.0), (6.0, 2.0), (4.0, 3.0), (2.0, 4.0)]);
        let out = fit_right_front(&front, None);
        assert!(out.fit_error < 1e-12);
        for q in &front {
            assert!(ge_approx(out.eval(q.x), q.y));
            assert!(out.eval(q.x) <= q.y + 1e-9);
        }
    }

    #[test]
    fn fit_lies_on_or_above_all_front_samples() {
        let front = paper_front();
        let out = fit_right_front(&front, None);
        for q in &front {
            assert!(
                ge_approx(out.eval(q.x), q.y),
                "fit({}) = {} below {}",
                q.x,
                out.eval(q.x),
                q.y
            );
        }
    }

    #[test]
    fn plateau_holds_at_apex_and_beyond_left_knot() {
        let front = paper_front();
        let out = fit_right_front(&front, None);
        // Between apex x=2 and the first knot the fit is the apex height.
        assert_eq!(out.eval(2.0), 5.0);
    }

    #[test]
    fn tail_uses_start_height_when_infinite_samples_exist() {
        let front = paper_front();
        let out = fit_right_front(&front, Some(1.5));
        assert_eq!(out.eval(f64::INFINITY), 1.5);
        assert_eq!(out.eval(1e12), 1.5);
    }

    #[test]
    fn dummy_start_uses_rightmost_front_height() {
        let front = paper_front();
        let out = fit_right_front(&front, None);
        assert_eq!(out.eval(f64::INFINITY), 1.0);
    }

    #[test]
    fn nan_intensity_evaluates_to_nan() {
        // Regression: a NaN intensity used to fall through both boundary
        // comparisons into `piecewise_eval` and return an arbitrary
        // interpolation between the first knots.
        let out = fit_right_front(&paper_front(), None);
        assert!(out.eval(f64::NAN).is_nan());
        // The degenerate constant region propagates NaN too.
        let constant = RightRegion::constant(3.0);
        assert!(constant.eval(f64::NAN).is_nan());
        assert_eq!(constant.eval(1.0), 3.0);
    }

    #[test]
    fn eval_boundary_at_exactly_first_and_last_knot() {
        // `x == knots[0].x` belongs to the knot span, not the plateau;
        // `x == knots[last].x` belongs to the knot span, not the tail.
        // Distinct plateau/tail values make any misclassification visible.
        let region = RightRegion {
            plateau: 9.0,
            knots: vec![Point::new(4.0, 5.0), Point::new(8.0, 2.0)],
            tail: 0.5,
            fit_error: 0.0,
        };
        assert_eq!(region.eval(4.0), 5.0, "first knot is part of the span");
        assert_eq!(region.eval(8.0), 2.0, "last knot is part of the span");
        // Half-open neighbours on either side.
        assert_eq!(region.eval(4.0 - 1e-9), 9.0);
        assert_eq!(region.eval(8.0 + 1e-9), 0.5);
        // Interior interpolation unchanged.
        assert!((region.eval(6.0) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_front_is_a_plateau() {
        let front = pts(&[(3.0, 7.0)]);
        let out = fit_right_front(&front, None);
        assert_eq!(out.eval(3.0), 7.0);
        assert_eq!(out.eval(100.0), 7.0);
    }

    #[test]
    fn single_sample_front_with_infinite_tail() {
        let front = pts(&[(3.0, 7.0)]);
        let out = fit_right_front(&front, Some(2.0));
        assert_eq!(out.eval(3.0), 7.0);
        assert_eq!(out.eval(f64::INFINITY), 2.0);
    }

    #[test]
    fn concavity_holds_on_chosen_knots() {
        let front = pts(&[
            (20.0, 0.5),
            (12.0, 1.2),
            (9.0, 2.8),
            (6.0, 3.1),
            (4.0, 4.5),
            (2.0, 6.0),
        ]);
        let out = fit_right_front(&front, None);
        let knots = out.knots();
        let slopes: Vec<f64> = knots.windows(2).map(|w| w[0].slope_to(&w[1])).collect();
        // Ascending x => slopes must be non-increasing in steepness going
        // right, i.e. increasing (toward 0) with x: concave-up.
        for w in slopes.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "right-region knots must be concave-up: slopes {slopes:?}"
            );
        }
        for s in &slopes {
            assert!(*s <= 1e-9, "right-region segments must be decreasing");
        }
    }

    #[test]
    fn low_start_height_still_finds_a_path() {
        // Start height below every front sample: connection forced at the
        // rightmost front sample.
        let front = paper_front();
        let out = fit_right_front(&front, Some(0.1));
        assert_eq!(out.tail(), 0.1);
        assert_eq!(out.eval(10.0), 1.0);
    }

    #[test]
    fn high_start_height_may_skip_front_samples() {
        // Start height above everything: the fit may connect anywhere; the
        // error-minimizing path still covers all samples.
        let front = paper_front();
        let out = fit_right_front(&front, Some(10.0));
        for q in &front {
            assert!(ge_approx(out.eval(q.x), q.y));
        }
        assert_eq!(out.eval(f64::INFINITY), 10.0);
    }

    #[test]
    fn near_duplicate_intensity_front_is_handled_as_a_vertical_stack() {
        // Regression for the degenerate-dx guard: these intensities differ
        // by ~1e-11 relative — far above f64::MIN_POSITIVE (so the old
        // absolute guard never fired, producing ~1e12-magnitude slopes and
        // catastrophically cancelled interpolation) but well inside the
        // EPS-relative coincidence band.
        let x0 = 10.0;
        let front = pts(&[(x0 + 2e-10, 1.0), (x0 + 1e-10, 5.0), (x0, 6.0), (4.0, 8.0)]);
        let sums = PrefixSums::new(&front);
        // The stacked chord (0, 2) is treated as a horizontal at max(y):
        // error (6 - 5)^2 = 1 against the interior sample, in both the
        // reference scan and the closed form.
        assert!(approx_coincident_x(front[0].x, front[2].x));
        let scan = reference::segment_error(&front, 0, 2).expect("vertical stack is feasible");
        assert!((scan - 1.0).abs() < 1e-9);
        let closed = chord_error(&front, &sums, 0, 2, true);
        assert!((closed - 1.0).abs() < 1e-9);
        // The full fit stays finite, covers every sample, and matches the
        // reference path cost.
        let out = fit_right_front(&front, None);
        let expected = reference::fit_right(&front, None);
        assert!(out.fit_error.is_finite());
        for q in &front {
            assert!(
                ge_approx(out.eval(q.x), q.y),
                "fit({}) = {} below {}",
                q.x,
                out.eval(q.x),
                q.y
            );
        }
        assert!(
            (out.fit_error - expected.fit_error).abs() <= 1e-9 * (1.0 + expected.fit_error),
            "new cost {} vs reference {}",
            out.fit_error,
            expected.fit_error
        );
        for w in out.knots.windows(2) {
            assert!(w[1].x > w[0].x, "knots must stay strictly increasing");
        }
    }

    #[test]
    fn two_point_front_picks_the_direct_segment() {
        let front = pts(&[(8.0, 2.0), (4.0, 5.0)]);
        let out = fit_right_front(&front, None);
        let expected = reference::fit_right(&front, None);
        assert_eq!(out.knots(), expected.knots());
        assert!((out.fit_error - expected.fit_error).abs() < 1e-12);
    }

    /// Strictly decreasing-x / increasing-y fronts of up to 200 samples,
    /// built from positive step increments (uniform random points would
    /// yield only O(log n)-sized Pareto fronts), plus an optional start
    /// height spanning below/within/above the front heights.
    fn front_and_start() -> impl Strategy<Value = (Vec<Point>, Option<f64>)> {
        (
            prop::collection::vec((0.05f64..1.0, 0.02f64..0.5), 1..200),
            any::<bool>(),
            0.0f64..30.0,
        )
            .prop_map(|(steps, has_start, h)| {
                let mut x = 1.0 + steps.iter().map(|s| s.0).sum::<f64>();
                let mut y = 0.5;
                let mut front = Vec::with_capacity(steps.len());
                for (dx, dy) in steps {
                    front.push(Point::new(x, y));
                    x -= dx;
                    y += dy;
                }
                (front, has_start.then_some(h))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The tentpole equivalence claim: on random fronts the O(k²) fit
        /// selects the same knots as the O(k³) graph reference, or a path
        /// of equal total cost within 1e-9 (relative) — fit costs are sums
        /// of squared errors computed by two different summation orders, so
        /// bitwise equality is not required, only equal-cost optimality.
        #[test]
        fn new_fit_matches_reference_on_random_fronts(
            (front, start) in front_and_start()
        ) {
            let fast = fit_right_front(&front, start);
            let slow = reference::fit_right(&front, start);
            prop_assert_eq!(fast.plateau(), slow.plateau());
            prop_assert_eq!(fast.tail(), slow.tail());
            let cost_tol = 1e-9 * (1.0 + slow.fit_error().abs());
            if fast.knots() != slow.knots() {
                // Different optimal paths are only acceptable at equal cost.
                prop_assert!(
                    (fast.fit_error() - slow.fit_error()).abs() <= cost_tol,
                    "knots differ with cost gap: new {} vs reference {}",
                    fast.fit_error(),
                    slow.fit_error()
                );
            } else {
                prop_assert!(
                    (fast.fit_error() - slow.fit_error()).abs() <= cost_tol,
                    "same knots, different cost: new {} vs reference {}",
                    fast.fit_error(),
                    slow.fit_error()
                );
            }
            // And the fast fit must itself be a valid cover of the front.
            for q in &front {
                prop_assert!(
                    ge_approx(fast.eval(q.x), q.y),
                    "fit({}) = {} below {}", q.x, fast.eval(q.x), q.y
                );
            }
        }
    }
}
