//! Plane geometry used by the roofline fitting algorithms: the Jarvis-march
//! upper-hull walk (paper Fig. 5) and the Pareto front (paper Fig. 6).
//!
//! Points live in the `(intensity, throughput)` plane. Non-finite
//! coordinates are skipped by every algorithm here; infinite-intensity
//! samples are handled at the fitting layer before geometry is invoked.
//!
//! # One sort
//!
//! Both algorithms run over one `SortedPoints`: the finite pairs sorted
//! by `x`, then `y`, under [`f64::total_cmp`]. A roofline fit sorts each
//! metric's points once and runs the hull walk and the front sweep over
//! the same slice. The public entry points ([`upper_hull_from_origin`],
//! [`pareto_front`] and their struct-of-arrays `*_soa` forms) are "sort,
//! then walk" or "sort, then sweep", so there is one hull and one front
//! implementation.
//!
//! The sort makes the results functions of the point *set*: the hull's
//! slope tie-break is tolerant (`EPS`-approximate), approximate equality
//! is not transitive, and in any other order the winner among near-tied
//! candidates could depend on the sample sequence.
//!
//! Sorting also lets the walk scan a window instead of every point. At
//! each step the candidates are the points with `x` strictly beyond the
//! current knot (by the relative tolerance) and at most the apex's `x`.
//! On the sorted slice those are exactly one contiguous run,
//! `pts[lo..hi]`, found by two binary searches: each bound is a monotone
//! predicate of `x` alone, and `total_cmp` orders `x` like `<=` does
//! (`-0.0` and `0.0` sit next to each other and compare alike). The run
//! is visited in the order a full scan would visit the same points, so
//! every comparison and every tie-break is the one a full scan makes.
//!
//! Exact duplicates need no removal: equal points yield equal slopes, and
//! the walk replaces its best candidate only on a strictly steeper slope
//! or a strictly larger `x`, so a later copy never displaces the first;
//! the apex reduction likewise keeps the first of equal maxima.

use serde::{Deserialize, Serialize};

/// A point in the `(intensity, throughput)` plane.
///
/// `x` is a metric-specific operational intensity `I_x`; `y` is a throughput
/// `P`. Both must be finite and non-negative for the algorithms in this
/// module.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Operational intensity coordinate.
    pub x: f64,
    /// Throughput coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Slope of the line from `self` to `other`.
    ///
    /// Returns `f64::INFINITY` / `f64::NEG_INFINITY` for vertical pairs and
    /// `NAN` for coincident points; callers filter those cases.
    pub fn slope_to(&self, other: &Point) -> f64 {
        (other.y - self.y) / (other.x - self.x)
    }
}

/// Comparison tolerance used throughout the fitting algorithms.
///
/// Measurement data is noisy and fits only need to hold up to floating-point
/// round-off; a relative epsilon of this magnitude keeps the "on or above"
/// constraints from being violated by the last bit of a subtraction.
pub const EPS: f64 = 1e-9;

/// Returns `true` if `a >= b` up to a relative tolerance of [`EPS`].
pub(crate) fn ge_approx(a: f64, b: f64) -> bool {
    a >= b - EPS * (1.0 + a.abs().max(b.abs()))
}

/// Returns `true` when two x-coordinates are close enough that a chord
/// between them has no numerically meaningful slope, using the same
/// relative tolerance as [`EPS`].
///
/// This replaces an absolute `< f64::MIN_POSITIVE` guard that only caught
/// exact zeros and denormals: near-duplicate intensities (samples whose
/// `x` differ only in the last few bits) produce slopes of magnitude
/// `~1/Δx` and catastrophic cancellation in chord interpolation, so the
/// fitting layer treats such pairs as a vertical stack instead.
pub(crate) fn approx_coincident_x(xa: f64, xb: f64) -> bool {
    (xb - xa).abs() <= EPS * (1.0 + xa.abs().max(xb.abs()))
}

/// Finite `(x, y)` points sorted by `x`, then `y`, under
/// [`f64::total_cmp`]: the one input both the hull walk and the front
/// sweep run over (see the module docs).
#[derive(Debug)]
pub(crate) struct SortedPoints(Vec<Point>);

impl SortedPoints {
    /// Collects the pairs whose coordinates are both finite and sorts
    /// them. Points equal under `total_cmp` are bit-identical, so the
    /// unstable sort's order among them is unobservable.
    pub(crate) fn new(points: impl Iterator<Item = Point>) -> Self {
        let mut pts: Vec<Point> = points
            .filter(|p| p.x.is_finite() && p.y.is_finite())
            .collect();
        pts.sort_unstable_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        SortedPoints(pts)
    }

    /// Sorts the finite pairs of parallel `xs`/`ys` columns.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub(crate) fn from_columns(xs: &[f64], ys: &[f64]) -> Self {
        assert_eq!(xs.len(), ys.len(), "xs and ys must be parallel columns");
        Self::new(xs.iter().zip(ys).map(|(&x, &y)| Point::new(x, y)))
    }

    /// The increasing, concave-down upper hull from the origin to the
    /// apex; see [`upper_hull_from_origin`].
    pub(crate) fn upper_hull(&self) -> Vec<Point> {
        let pts = &self.0;
        let mut hull = vec![Point::ORIGIN];
        // The walk terminates at the apex: the maximum-throughput point
        // (ties broken toward larger x so the hull spans the data; the
        // first of equal points wins).
        let Some(apex) = pts
            .iter()
            .copied()
            .reduce(|a, b| if (b.y, b.x) > (a.y, a.x) { b } else { a })
        else {
            return hull;
        };
        if apex.y <= 0.0 {
            // All throughputs are zero: the hull degenerates to the origin
            // plus the farthest zero-height point so the span is still
            // covered.
            if apex.x > 0.0 {
                hull.push(apex);
            }
            return hull;
        }

        // Candidates are limited to the left region (x <= apex.x): points
        // beyond the apex belong to the right-region fit.
        let hi = pts.partition_point(|p| p.x <= apex.x);
        let mut current = Point::ORIGIN;
        loop {
            if current == apex {
                break;
            }
            // Candidates strictly to the right of the current knot.
            let reach = current.x + EPS * (1.0 + current.x.abs());
            let lo = pts[..hi].partition_point(|p| p.x <= reach);
            let mut best: Option<(f64, Point)> = None;
            for &p in &pts[lo..hi] {
                let slope = current.slope_to(&p);
                match best {
                    None => best = Some((slope, p)),
                    Some((bs, bp)) => {
                        // Ties in slope go to the farther point, which
                        // minimizes the knots of a collinear run.
                        let tol = EPS * (1.0 + bs.abs());
                        if slope > bs + tol || ((slope - bs).abs() <= tol && p.x > bp.x) {
                            best = Some((slope, p));
                        }
                    }
                }
            }
            match best {
                Some((_, p)) => {
                    hull.push(p);
                    current = p;
                    if (current.x - apex.x).abs() <= EPS * (1.0 + apex.x.abs()) {
                        // Reached the apex column; the max-slope choice at
                        // the apex's x is the apex itself (it has the max y).
                        break;
                    }
                }
                None => break,
            }
        }
        hull
    }

    /// The Pareto front of the points with `x >= from`, in decreasing `x`;
    /// see [`pareto_front`]. `from = -∞` takes every point.
    ///
    /// The sweep walks the sorted slice backwards, which is decreasing `x`
    /// and, for equal `x`, decreasing `y` — the front's own order.
    pub(crate) fn pareto_front_from(&self, from: f64) -> Vec<Point> {
        let pts = &self.0;
        let start = pts.partition_point(|p| p.x < from);
        let mut front: Vec<Point> = Vec::new();
        let mut best_y = f64::NEG_INFINITY;
        for &p in pts[start..].iter().rev() {
            if p.y > best_y {
                front.push(p);
                best_y = p.y;
            }
        }
        front
    }
}

/// Computes the increasing, concave-down upper hull from the origin to the
/// highest-throughput point (the paper's left-region fit, Fig. 5).
///
/// Starting at the origin, the walk repeatedly moves to the point with the
/// greatest slope from the current position among points strictly to the
/// right, until the maximum-throughput point is reached. The returned knot
/// sequence starts at [`Point::ORIGIN`] and ends at the apex; consecutive
/// knots have strictly increasing `x` and non-decreasing `y`, and the
/// piecewise-linear function through them lies on or above every input
/// point with `x` at most the apex's `x`.
///
/// Points with non-finite coordinates are ignored. If `points` is empty (or
/// contains no finite points), only the origin is returned.
///
/// Ties in slope are broken toward the farther point, which minimizes the
/// number of knots for collinear runs. The points are sorted first, so the
/// hull does not depend on their order (see the module docs).
pub fn upper_hull_from_origin(points: &[Point]) -> Vec<Point> {
    SortedPoints::new(points.iter().copied()).upper_hull()
}

/// Struct-of-arrays form of [`upper_hull_from_origin`]: `xs[i]`/`ys[i]`
/// are the coordinates of point `i`. Pairs with a non-finite coordinate
/// are skipped, so an intensity column containing `I_x = ∞` rows can be
/// passed directly.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn upper_hull_from_origin_soa(xs: &[f64], ys: &[f64]) -> Vec<Point> {
    SortedPoints::from_columns(xs, ys).upper_hull()
}

/// Computes the Pareto front of `points` under joint maximization of `x`
/// and `y` (paper Fig. 6, step 1).
///
/// A point is on the front if no other point has both `x >=` and `y >=` it
/// (with at least one strict). The result is sorted by **decreasing `x`**
/// (and therefore strictly increasing `y`), matching the right-region
/// fitting order `q1 (rightmost) .. qk (leftmost, highest)`. Duplicate
/// points are collapsed to one representative. Non-finite points are
/// skipped.
pub fn pareto_front(points: &[Point]) -> Vec<Point> {
    SortedPoints::new(points.iter().copied()).pareto_front_from(f64::NEG_INFINITY)
}

/// Struct-of-arrays form of [`pareto_front`]: `xs[i]`/`ys[i]` are the
/// coordinates of point `i`. Pairs with a non-finite coordinate are
/// skipped.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pareto_front_soa(xs: &[f64], ys: &[f64]) -> Vec<Point> {
    SortedPoints::from_columns(xs, ys).pareto_front_from(f64::NEG_INFINITY)
}

/// Evaluates the piecewise-linear function through `knots` (ascending `x`)
/// at `x`, clamping to the end values outside the knot range.
///
/// # Panics
///
/// Panics if `knots` is empty.
pub fn piecewise_eval(knots: &[Point], x: f64) -> f64 {
    assert!(
        !knots.is_empty(),
        "piecewise_eval requires at least one knot"
    );
    if x <= knots[0].x {
        return knots[0].y;
    }
    if x >= knots[knots.len() - 1].x {
        return knots[knots.len() - 1].y;
    }
    // Binary search for the segment containing x.
    let mut lo = 0;
    let mut hi = knots.len() - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if knots[mid].x <= x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (a, b) = (knots[lo], knots[hi]);
    if b.x == a.x {
        return a.y.max(b.y);
    }
    a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn hull_of_single_point_is_origin_to_point() {
        let hull = upper_hull_from_origin(&[p(2.0, 3.0)]);
        assert_eq!(hull, vec![Point::ORIGIN, p(2.0, 3.0)]);
    }

    #[test]
    fn hull_walks_by_max_slope() {
        // Mirrors the paper's Fig. 5 shape: several points, the hull picks
        // the steepest first, then flattens toward the apex.
        let pts = [
            p(1.0, 2.0),
            p(2.0, 3.0),
            p(3.0, 3.5),
            p(1.5, 1.0),
            p(2.5, 2.0),
        ];
        let hull = upper_hull_from_origin(&pts);
        assert_eq!(
            hull,
            vec![Point::ORIGIN, p(1.0, 2.0), p(2.0, 3.0), p(3.0, 3.5)]
        );
    }

    #[test]
    fn hull_lies_on_or_above_all_left_points() {
        let pts = [
            p(0.5, 0.4),
            p(1.0, 2.0),
            p(1.2, 0.3),
            p(2.0, 2.5),
            p(2.7, 2.9),
            p(3.0, 3.0),
        ];
        let hull = upper_hull_from_origin(&pts);
        for q in &pts {
            let v = piecewise_eval(&hull, q.x);
            assert!(
                ge_approx(v, q.y),
                "hull({}) = {} below sample {}",
                q.x,
                v,
                q.y
            );
        }
    }

    #[test]
    fn hull_slopes_are_nonincreasing() {
        let pts = [p(1.0, 3.0), p(2.0, 4.0), p(4.0, 5.0), p(3.0, 4.2)];
        let hull = upper_hull_from_origin(&pts);
        let slopes: Vec<f64> = hull.windows(2).map(|w| w[0].slope_to(&w[1])).collect();
        for w in slopes.windows(2) {
            assert!(
                w[1] <= w[0] + EPS,
                "slopes must be non-increasing: {slopes:?}"
            );
        }
    }

    #[test]
    fn hull_ignores_points_right_of_apex() {
        // The point at x=10 has lower y than the apex at x=3; it belongs to
        // the right region and must not drag the hull past the apex.
        let pts = [p(3.0, 5.0), p(10.0, 2.0), p(1.0, 2.0)];
        let hull = upper_hull_from_origin(&pts);
        assert_eq!(*hull.last().unwrap(), p(3.0, 5.0));
    }

    #[test]
    fn hull_with_collinear_points_skips_interior() {
        let pts = [p(1.0, 1.0), p(2.0, 2.0), p(3.0, 3.0)];
        let hull = upper_hull_from_origin(&pts);
        assert_eq!(hull, vec![Point::ORIGIN, p(3.0, 3.0)]);
    }

    #[test]
    fn hull_of_empty_input_is_origin_only() {
        assert_eq!(upper_hull_from_origin(&[]), vec![Point::ORIGIN]);
    }

    #[test]
    fn hull_all_zero_throughput() {
        let hull = upper_hull_from_origin(&[p(1.0, 0.0), p(2.0, 0.0)]);
        assert_eq!(hull, vec![Point::ORIGIN, p(2.0, 0.0)]);
    }

    #[test]
    fn pareto_front_orders_by_decreasing_x() {
        // The paper's Fig. 6 setting: A..E with A rightmost/lowest and E
        // leftmost/highest.
        let a = p(10.0, 1.0);
        let b = p(8.0, 2.0);
        let c = p(6.0, 3.0);
        let d = p(4.0, 4.0);
        let e = p(2.0, 5.0);
        let dominated = p(5.0, 2.5);
        let front = pareto_front(&[c, dominated, e, a, d, b]);
        assert_eq!(front, vec![a, b, c, d, e]);
    }

    #[test]
    fn pareto_front_drops_dominated_points() {
        let front = pareto_front(&[p(1.0, 1.0), p(2.0, 2.0), p(0.5, 0.5)]);
        assert_eq!(front, vec![p(2.0, 2.0)]);
    }

    #[test]
    fn pareto_front_handles_equal_x() {
        let front = pareto_front(&[p(2.0, 1.0), p(2.0, 3.0), p(1.0, 4.0)]);
        assert_eq!(front, vec![p(2.0, 3.0), p(1.0, 4.0)]);
    }

    #[test]
    fn pareto_front_of_empty_is_empty() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn soa_forms_match_point_forms() {
        let pts = [
            p(0.5, 0.4),
            p(1.0, 2.0),
            p(f64::INFINITY, 3.0),
            p(2.0, 2.5),
            p(2.7, 2.9),
            p(3.0, 3.0),
            p(4.0, 1.0),
        ];
        let xs: Vec<f64> = pts.iter().map(|q| q.x).collect();
        let ys: Vec<f64> = pts.iter().map(|q| q.y).collect();
        assert_eq!(
            upper_hull_from_origin(&pts),
            upper_hull_from_origin_soa(&xs, &ys)
        );
        assert_eq!(pareto_front(&pts), pareto_front_soa(&xs, &ys));
    }

    #[test]
    #[should_panic(expected = "parallel columns")]
    fn soa_length_mismatch_panics() {
        upper_hull_from_origin_soa(&[1.0, 2.0], &[1.0]);
    }

    /// Deterministic permutations of a slice (rotations + reversal) —
    /// enough to expose order-dependent tie-breaking without needing an
    /// RNG in a unit test.
    fn permutations(pts: &[Point]) -> Vec<Vec<Point>> {
        let mut all = Vec::new();
        for k in 0..pts.len() {
            let mut rot: Vec<Point> = pts[k..].iter().chain(&pts[..k]).copied().collect();
            all.push(rot.clone());
            rot.reverse();
            all.push(rot);
        }
        all
    }

    #[test]
    fn hull_is_independent_of_input_order_with_duplicates() {
        // Duplicate intensities (equal x, differing y), exact duplicate
        // points, and a near-collinear run that exercises the approximate
        // slope tie-break.
        let pts = [
            p(1.0, 2.0),
            p(1.0, 2.0),
            p(1.0, 1.5),
            p(2.0, 4.0),
            p(2.0, 3.999999999),
            p(3.0, 5.9999999995),
            p(3.0, 6.0),
            p(4.0, 6.5),
        ];
        let reference = upper_hull_from_origin(&pts);
        for perm in permutations(&pts) {
            assert_eq!(
                upper_hull_from_origin(&perm),
                reference,
                "hull must not depend on sample order"
            );
        }
    }

    #[test]
    fn pareto_front_is_independent_of_input_order_with_duplicates() {
        let pts = [
            p(10.0, 1.0),
            p(10.0, 1.0),
            p(10.0, 0.5),
            p(8.0, 2.0),
            p(8.0, 2.0),
            p(6.0, 2.0),
            p(4.0, 4.0),
        ];
        let reference = pareto_front(&pts);
        for perm in permutations(&pts) {
            assert_eq!(
                pareto_front(&perm),
                reference,
                "front must not depend on sample order"
            );
        }
    }

    #[test]
    fn kernels_skip_zero_time_infinities_deterministically() {
        // Zero-time samples surface here as infinite throughput (w / 0);
        // zero-delta samples as infinite intensity. Both must be skipped,
        // in every input order.
        let pts = [
            p(1.0, f64::INFINITY),
            p(f64::INFINITY, 2.0),
            p(1.0, f64::NAN),
            p(2.0, 3.0),
            p(1.0, 2.0),
        ];
        let reference_hull = upper_hull_from_origin(&pts);
        let reference_front = pareto_front(&pts);
        assert_eq!(
            reference_hull,
            vec![Point::ORIGIN, p(1.0, 2.0), p(2.0, 3.0)]
        );
        for perm in permutations(&pts) {
            assert_eq!(upper_hull_from_origin(&perm), reference_hull);
            assert_eq!(pareto_front(&perm), reference_front);
        }
    }

    #[test]
    fn front_from_a_bound_is_the_front_of_the_points_at_or_beyond_it() {
        let pts = [
            p(-0.0, 7.0),
            p(0.0, 6.0),
            p(1.0, 5.0),
            p(2.0, 4.0),
            p(2.0, 4.0),
            p(2.0, 4.5),
            p(3.0, 1.0),
            p(3.0, f64::NAN),
            p(f64::INFINITY, 9.0),
            p(5.0, 0.5),
        ];
        let sorted = SortedPoints::new(pts.iter().copied());
        for from in [f64::NEG_INFINITY, -0.0, 0.0, 1.5, 2.0, 3.0, 5.0, 6.0] {
            let beyond: Vec<Point> = pts.iter().copied().filter(|q| q.x >= from).collect();
            assert_eq!(
                sorted.pareto_front_from(from),
                pareto_front(&beyond),
                "from {from}"
            );
        }
    }

    #[test]
    fn approx_coincident_x_uses_relative_tolerance() {
        // Exact zero and denormal gaps (the old absolute guard's range).
        assert!(approx_coincident_x(10.0, 10.0));
        assert!(approx_coincident_x(10.0, 10.0 + f64::MIN_POSITIVE));
        // Last-bits gaps at ordinary magnitudes, invisible to an absolute
        // `< f64::MIN_POSITIVE` test.
        assert!(approx_coincident_x(10.0, 10.0 + 1e-10));
        assert!(approx_coincident_x(1e6, 1e6 + 1e-4));
        // Genuine gaps stay distinct, including near zero.
        assert!(!approx_coincident_x(10.0, 10.1));
        assert!(!approx_coincident_x(0.0, 1e-6));
    }

    #[test]
    fn piecewise_eval_interpolates_and_clamps() {
        let knots = [p(0.0, 0.0), p(2.0, 4.0), p(4.0, 5.0)];
        assert_eq!(piecewise_eval(&knots, -1.0), 0.0);
        assert_eq!(piecewise_eval(&knots, 1.0), 2.0);
        assert_eq!(piecewise_eval(&knots, 3.0), 4.5);
        assert_eq!(piecewise_eval(&knots, 9.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "at least one knot")]
    fn piecewise_eval_empty_panics() {
        piecewise_eval(&[], 1.0);
    }
}
