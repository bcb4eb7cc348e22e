//! Per-metric piecewise-linear roofline models (paper Section III-B/III-D).
//!
//! Each SPIRE roofline maps one metric's operational intensity `I_x` to an
//! upper bound on throughput. The fitted function is split at the
//! highest-throughput training sample (the *apex*):
//!
//! * **left** of the apex the metric is assumed negatively associated with
//!   performance, and the fit is an increasing, concave-down chain of
//!   segments from the origin (a Jarvis-march upper hull, Fig. 5);
//! * **right** of the apex the metric is assumed positively associated, and
//!   the fit is a decreasing, concave-up chain selected by a shortest-path
//!   search over the Pareto front (Fig. 6), ending in a horizontal *tail*
//!   at the height observed for `I_x = ∞` samples.

mod right;

pub use right::{fit_right_front, RightRegion};

#[cfg(any(test, feature = "reference-fit"))]
pub use right::reference;

use serde::de::Deserializer;
use serde::{Deserialize, Serialize};

use crate::error::{Result, SpireError};
use crate::geometry::{self, ge_approx, Point, SortedPoints};
use crate::sample::{MetricColumn, MetricId, Sample};

/// Strategy for the region right of the apex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum RightFitMode {
    /// The paper's algorithm: graph search over the Pareto front.
    #[default]
    Graph,
    /// Treat the metric as purely negatively associated with performance:
    /// hold the apex height for all intensities at or beyond the apex.
    ///
    /// This sidesteps the failure mode the paper observes on its `BP.1`
    /// roofline (Fig. 7 left), where sparse high-intensity samples make the
    /// right fit drop inaccurately.
    Plateau,
    /// Choose between [`Graph`](RightFitMode::Graph) and
    /// [`Plateau`](RightFitMode::Plateau) per metric by testing whether the
    /// right-region samples actually trend downward (a robust-trend
    /// extension of the paper's split heuristic; see
    /// [`FitOptions::auto_trend_threshold`]).
    Auto,
}

/// Options controlling how a roofline is fitted.
///
/// The defaults reproduce the paper's algorithm exactly.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FitOptions {
    /// How to fit the region right of the apex.
    pub right_fit: RightFitMode,
    /// For [`RightFitMode::Auto`]: the Pearson correlation between
    /// intensity and throughput over right-region samples below which the
    /// region is considered genuinely decreasing and the graph fit is used.
    /// Must lie in `[-1, 0]`. Default `-0.1`.
    pub auto_trend_threshold: f64,
    /// Pareto-front size beyond which [`thin_front`](FitOptions::thin_front)
    /// (when enabled) thins the front before the right-region fit. Default
    /// `2048`.
    ///
    /// The limit dates from the original `O(front³)` graph search, where it
    /// defaulted to `256` and was applied unconditionally; the fit is now
    /// `O(front²)`, so by default the full front is fitted exactly and this
    /// value only takes effect when thinning is explicitly enabled.
    pub max_front_size: usize,
    /// Opt-in fidelity/memory trade-off: when `true`, fronts larger than
    /// [`max_front_size`](FitOptions::max_front_size) are thinned to that
    /// size (keeping both extremes, evenly spaced interior picks) and a
    /// [`ThinningNotice`] is reported in the training outcome
    /// ([`TrainOutcome::fit_notices`](crate::ensemble::TrainOutcome::fit_notices),
    /// routed onto the diagnostics bus as an
    /// [`Event::FrontThinned`](crate::pipeline::Event::FrontThinned)).
    /// When `false` (the default) the front is never thinned. Default
    /// `false`.
    pub thin_front: bool,
}

/// One lossy front-thinning decision made during a fit, reported in
/// [`TrainOutcome::fit_notices`](crate::ensemble::TrainOutcome::fit_notices)
/// so callers can surface it on the diagnostics bus instead of losing it
/// to stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThinningNotice {
    /// The metric whose front was thinned.
    pub metric: MetricId,
    /// Front size before thinning.
    pub original: usize,
    /// Front size after thinning.
    pub retained: usize,
    /// The configured [`FitOptions::max_front_size`] cap.
    pub cap: usize,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            right_fit: RightFitMode::Graph,
            auto_trend_threshold: -0.1,
            max_front_size: 2048,
            thin_front: false,
        }
    }
}

/// Manual impl so options serialized before the `thin_front` field existed
/// (when thinning at `max_front_size` was unconditional) still deserialize;
/// a missing `thin_front` means `false`.
impl<'de> Deserialize<'de> for FitOptions {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> std::result::Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Wire {
            right_fit: RightFitMode,
            auto_trend_threshold: f64,
            max_front_size: usize,
            thin_front: Option<bool>,
        }
        let w = Wire::deserialize(deserializer)?;
        Ok(FitOptions {
            right_fit: w.right_fit,
            auto_trend_threshold: w.auto_trend_threshold,
            max_front_size: w.max_front_size,
            thin_front: w.thin_front.unwrap_or(false),
        })
    }
}

impl FitOptions {
    /// Validates the option values.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::InvalidConfig`] if `auto_trend_threshold` is
    /// outside `[-1, 0]` or `max_front_size` is less than 2.
    pub fn validate(&self) -> Result<()> {
        if !(-1.0..=0.0).contains(&self.auto_trend_threshold) {
            return Err(SpireError::InvalidConfig {
                field: "auto_trend_threshold",
                reason: format!("must be within [-1, 0], got {}", self.auto_trend_threshold),
            });
        }
        if self.max_front_size < 2 {
            return Err(SpireError::InvalidConfig {
                field: "max_front_size",
                reason: format!("must be at least 2, got {}", self.max_front_size),
            });
        }
        Ok(())
    }
}

/// The internal shape of a fitted roofline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    /// Every training sample had infinite intensity (`M_x = 0` throughout):
    /// the roofline is a constant at the maximum observed throughput.
    Constant(f64),
    /// The general case: a left hull up to the apex and a right region
    /// beyond it.
    Full {
        /// Knots of the left region, from the origin to the apex
        /// (ascending intensity).
        left: Vec<Point>,
        /// The right region (plateau, knots, tail).
        right: RightRegion,
    },
}

/// The intermediate structures of a fit, kept by the online trainer so it
/// can tell which new samples leave the fit exactly unchanged.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FitArtifacts {
    /// Every finite-or-`+∞` training sample had `+∞` intensity and there
    /// was at least one; the fit is a constant at `inf_height`.
    Constant {
        /// The maximum observed throughput over the `+∞`-intensity rows.
        inf_height: f64,
    },
    /// A Graph-mode fit with a non-degenerate apex: the apex, the
    /// *un-thinned* right-region Pareto front (descending intensity, the
    /// apex last), and the `+∞`-intensity tail height.
    Graph {
        /// The hull's apex.
        apex: Point,
        /// The un-thinned Pareto front over points at or beyond the apex.
        front: Vec<Point>,
        /// Maximum throughput over `+∞`-intensity rows, if any.
        inf_height: Option<f64>,
    },
    /// Any other fit (Auto/Plateau right regions, degenerate hulls, a
    /// constant with no `+∞` row): no new sample is a provable no-op.
    Opaque,
}

/// A fitted per-metric roofline: an upper bound on throughput as a function
/// of one metric's operational intensity.
///
/// ```
/// use spire_core::{FitOptions, PiecewiseRoofline, Sample};
///
/// # fn main() -> Result<(), spire_core::SpireError> {
/// let samples = vec![
///     Sample::new("stalls", 10.0, 10.0, 10.0)?, // I = 1, P = 1
///     Sample::new("stalls", 10.0, 20.0, 5.0)?,  // I = 4, P = 2
///     Sample::new("stalls", 10.0, 30.0, 3.0)?,  // I = 10, P = 3
/// ];
/// let roofline = PiecewiseRoofline::fit(
///     "stalls".into(),
///     samples.iter(),
///     &FitOptions::default(),
/// )?;
/// // More work per stall can only help up to the observed maximum.
/// assert!(roofline.estimate(2.0) <= 3.0);
/// assert_eq!(roofline.estimate(10.0), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PiecewiseRoofline {
    metric: MetricId,
    shape: Shape,
    training_samples: usize,
}

impl PiecewiseRoofline {
    /// Fits a roofline to `samples`, all of which must belong to `metric`.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::EmptyTrainingSet`] if `samples` is empty and
    /// [`SpireError::InvalidConfig`] if `options` fails validation.
    ///
    /// # Panics
    ///
    /// Debug builds assert that every sample's metric equals `metric`.
    pub fn fit<'a, I>(metric: MetricId, samples: I, options: &FitOptions) -> Result<Self>
    where
        I: IntoIterator<Item = &'a Sample>,
    {
        let mut intensities: Vec<f64> = Vec::new();
        let mut throughputs: Vec<f64> = Vec::new();
        for s in samples {
            debug_assert_eq!(s.metric(), &metric, "sample metric mismatch");
            intensities.push(s.intensity());
            throughputs.push(s.throughput());
        }
        Self::fit_slices(metric, &intensities, &throughputs, options).map(|(fit, _, _)| fit)
    }

    /// Fits a roofline directly from a [`MetricColumn`]'s cached derived
    /// columns, without materializing per-sample rows.
    ///
    /// This is the training hot path: the intensity and throughput slices
    /// are borrowed straight from the column and streamed through the SoA
    /// geometry kernels. The result is identical to running [`fit`] over
    /// the column's rows — both delegate to the same slice-based
    /// implementation.
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::EmptyTrainingSet`] if `column` is empty and
    /// [`SpireError::InvalidConfig`] if `options` fails validation.
    ///
    /// [`fit`]: PiecewiseRoofline::fit
    pub fn fit_column(column: &MetricColumn, options: &FitOptions) -> Result<Self> {
        Self::fit_slices(
            column.metric().clone(),
            column.intensities(),
            column.throughputs(),
            options,
        )
        .map(|(fit, _, _)| fit)
    }

    /// The one fit body: `intensities[i]`/`throughputs[i]` describe sample
    /// `i`. Rows with `+∞` intensity feed the right region's tail height;
    /// finite rows feed the hull and Pareto front. A NaN or −∞ intensity,
    /// which only a hostile column can carry, feeds neither region.
    ///
    /// Besides the roofline it returns any lossy [`ThinningNotice`] the
    /// fit made and the [`FitArtifacts`] the online trainer classifies new
    /// samples against; the un-thinned front moves into the artifacts, so
    /// a caller that drops them pays no copy.
    pub(crate) fn fit_slices(
        metric: MetricId,
        intensities: &[f64],
        throughputs: &[f64],
        options: &FitOptions,
    ) -> Result<(Self, Option<ThinningNotice>, FitArtifacts)> {
        options.validate()?;
        debug_assert_eq!(intensities.len(), throughputs.len());
        let count = intensities.len();
        if count == 0 {
            return Err(SpireError::EmptyTrainingSet {
                metric: Some(metric.to_string()),
            });
        }
        let mut inf_height: Option<f64> = None;
        let mut any_finite = false;
        for (&i, &p) in intensities.iter().zip(throughputs) {
            if i.is_finite() {
                any_finite = true;
            } else if i == f64::INFINITY {
                inf_height = Some(inf_height.map_or(p, |h: f64| h.max(p)));
            }
        }
        if !any_finite {
            let height = inf_height.unwrap_or(0.0);
            let artifacts = match inf_height {
                Some(inf_height) => FitArtifacts::Constant { inf_height },
                None => FitArtifacts::Opaque,
            };
            return Ok((
                PiecewiseRoofline {
                    metric,
                    shape: Shape::Constant(height),
                    training_samples: count,
                },
                None,
                artifacts,
            ));
        }

        // One sort of the finite points serves both regions (the
        // infinite-intensity rows drop out there): the left region is the
        // hull from the origin to the apex, the right region the Pareto
        // front over the points at or beyond the apex.
        let sorted = SortedPoints::from_columns(intensities, throughputs);
        let left = sorted.upper_hull();
        let apex = *left.last().expect("hull always contains the origin");
        // `front` stays un-thinned (the online trainer classifies new
        // samples against the exact batch front); thinning, when enabled,
        // works on a copy for the fit itself.
        let front = {
            let mut f = sorted.pareto_front_from(apex.x);
            if f.is_empty() {
                // Possible only when no finite sample sits at or beyond
                // the apex; fall back to the apex alone.
                f.push(apex);
            }
            f
        };
        let mut notice = None;
        let thinned: Option<Vec<Point>> =
            if options.thin_front && front.len() > options.max_front_size {
                let original = front.len();
                let mut f = front.clone();
                thin_front(&mut f, options.max_front_size);
                notice = Some(ThinningNotice {
                    metric: metric.clone(),
                    original,
                    retained: f.len(),
                    cap: options.max_front_size,
                });
                Some(f)
            } else {
                None
            };
        let fit_front: &[Point] = thinned.as_deref().unwrap_or(&front);

        let use_graph = match options.right_fit {
            RightFitMode::Graph => true,
            RightFitMode::Plateau => false,
            RightFitMode::Auto => {
                // Judge the trend on points strictly beyond the apex: the
                // apex itself is the maximum by construction and would bias
                // the correlation negative. The sums run in sample order.
                let beyond: Vec<Point> = intensities
                    .iter()
                    .zip(throughputs)
                    .filter(|(&i, _)| i.is_finite() && i > apex.x)
                    .map(|(&i, &p)| Point::new(i, p))
                    .collect();
                beyond.len() >= 3 && right_trend(&beyond) <= options.auto_trend_threshold
            }
        };

        let right = if use_graph {
            right::fit_right_front(fit_front, inf_height)
        } else {
            // Plateau mode must still bound infinite-intensity samples.
            let height = inf_height.map_or(apex.y, |h| h.max(apex.y));
            RightRegion::constant(height.max(apex.y))
        };

        // Only a pure Graph-mode fit with a non-degenerate apex has provable
        // no-ops: Auto re-judges the right-region trend over *all* right
        // points (which the trainer does not keep), Plateau's height is not
        // front-driven, and the degenerate zero-throughput fallbacks bypass
        // the front entirely.
        let maintainable =
            options.right_fit == RightFitMode::Graph && apex.y > 0.0 && front.last() == Some(&apex);
        let artifacts = if maintainable {
            FitArtifacts::Graph {
                apex,
                front,
                inf_height,
            }
        } else {
            FitArtifacts::Opaque
        };
        Ok((
            PiecewiseRoofline {
                metric,
                shape: Shape::Full { left, right },
                training_samples: count,
            },
            notice,
            artifacts,
        ))
    }

    /// Patches the recorded training-sample count (used by the online
    /// trainer when new samples leave a metric's fit untouched but the
    /// count — which a batch retrain would update — must stay in sync).
    pub(crate) fn set_training_samples(&mut self, count: usize) {
        self.training_samples = count;
    }

    /// The metric this roofline models.
    pub fn metric(&self) -> &MetricId {
        &self.metric
    }

    /// Number of training samples the fit consumed.
    pub fn training_samples(&self) -> usize {
        self.training_samples
    }

    /// Estimates the maximum attainable throughput at operational intensity
    /// `intensity` (which may be `f64::INFINITY` for `M_x = 0` samples).
    ///
    /// Non-positive intensities estimate zero throughput: zero work per
    /// metric event can only mean zero work.
    pub fn estimate(&self, intensity: f64) -> f64 {
        match &self.shape {
            Shape::Constant(h) => *h,
            Shape::Full { left, right } => {
                if intensity <= 0.0 {
                    return 0.0;
                }
                let apex = *left.last().expect("hull is non-empty");
                if intensity < apex.x {
                    geometry::piecewise_eval(left, intensity)
                } else {
                    right.eval(intensity)
                }
            }
        }
    }

    /// The apex: the highest-throughput training sample the fit split at,
    /// or `None` for constant (all-infinite-intensity) rooflines.
    pub fn apex(&self) -> Option<Point> {
        match &self.shape {
            Shape::Constant(_) => None,
            Shape::Full { left, .. } => left.last().copied(),
        }
    }

    /// Knots of the left region (origin to apex, ascending intensity);
    /// empty for constant rooflines.
    pub fn left_knots(&self) -> &[Point] {
        match &self.shape {
            Shape::Constant(_) => &[],
            Shape::Full { left, .. } => left,
        }
    }

    /// The fitted right region, or `None` for constant rooflines.
    pub fn right_region(&self) -> Option<&RightRegion> {
        match &self.shape {
            Shape::Constant(_) => None,
            Shape::Full { right, .. } => Some(right),
        }
    }

    /// Returns `true` if the roofline degenerated to a constant because all
    /// training samples had infinite intensity.
    pub fn is_constant(&self) -> bool {
        matches!(self.shape, Shape::Constant(_))
    }

    /// Checks the structural invariants every usable roofline must satisfy:
    ///
    /// * all knot coordinates finite, with non-negative heights;
    /// * left region from the origin, strictly increasing in intensity,
    ///   non-decreasing and concave-down in throughput (up to [`EPS`]
    ///   tolerances, like the fit itself);
    /// * right region strictly increasing in intensity, non-increasing and
    ///   concave-up in throughput, starting at or beyond the apex, with no
    ///   knot above the plateau;
    /// * plateau, tail, and fit error finite and non-negative.
    ///
    /// The fit upholds these by construction over validated samples, but a
    /// roofline can also arrive from hostile places — a fit over poisoned
    /// (NaN/negative) columns, or a deserialized snapshot — so training
    /// quarantine and snapshot loading both run this validator and refuse
    /// models that fail it.
    ///
    /// The tail is *not* required to sit below the interior knots: samples
    /// at `I_x = ∞` can legitimately raise the start height above the
    /// chosen front (see [`RightRegion`]).
    ///
    /// [`EPS`]: crate::geometry::EPS
    ///
    /// # Errors
    ///
    /// Returns [`SpireError::ModelInvariantViolation`] naming the first
    /// violated invariant.
    pub fn validate(&self) -> Result<()> {
        let fail = |invariant: String| {
            Err(SpireError::ModelInvariantViolation {
                metric: self.metric.to_string(),
                invariant,
            })
        };
        let finite_nonneg = |v: f64| v.is_finite() && v >= 0.0;
        match &self.shape {
            Shape::Constant(h) => {
                if !finite_nonneg(*h) {
                    return fail(format!("constant height must be finite and >= 0, got {h}"));
                }
            }
            Shape::Full { left, right } => {
                // Left region: origin-anchored, increasing, concave-down.
                let Some(first) = left.first() else {
                    return fail("left region must contain at least the origin".to_owned());
                };
                if *first != Point::ORIGIN {
                    return fail(format!(
                        "left region must start at the origin, got ({}, {})",
                        first.x, first.y
                    ));
                }
                for k in left {
                    if !finite_nonneg(k.x) || !finite_nonneg(k.y) {
                        return fail(format!(
                            "left knot ({}, {}) must be finite and non-negative",
                            k.x, k.y
                        ));
                    }
                }
                let mut prev_slope = f64::INFINITY;
                for w in left.windows(2) {
                    let (a, b) = (w[0], w[1]);
                    if b.x <= a.x {
                        return fail(format!(
                            "left knots must be strictly increasing in intensity \
                             ({} then {})",
                            a.x, b.x
                        ));
                    }
                    if !ge_approx(b.y, a.y) {
                        return fail(format!(
                            "left region must be non-decreasing ({} then {})",
                            a.y, b.y
                        ));
                    }
                    let slope = a.slope_to(&b);
                    if !ge_approx(prev_slope, slope) {
                        return fail(format!(
                            "left region must be concave-down (slope {prev_slope} \
                             then {slope})"
                        ));
                    }
                    prev_slope = slope;
                }
                let apex = *left.last().expect("checked non-empty above");

                // Right region: decreasing, concave-up, under the plateau.
                if !finite_nonneg(right.plateau) {
                    return fail(format!(
                        "plateau must be finite and >= 0, got {}",
                        right.plateau
                    ));
                }
                if !finite_nonneg(right.tail) {
                    return fail(format!("tail must be finite and >= 0, got {}", right.tail));
                }
                if !finite_nonneg(right.fit_error) {
                    return fail(format!(
                        "fit error must be finite and >= 0, got {}",
                        right.fit_error
                    ));
                }
                for k in &right.knots {
                    if !finite_nonneg(k.x) || !finite_nonneg(k.y) {
                        return fail(format!(
                            "right knot ({}, {}) must be finite and non-negative",
                            k.x, k.y
                        ));
                    }
                    if !ge_approx(right.plateau, k.y) {
                        return fail(format!(
                            "right knot height {} exceeds the plateau {}",
                            k.y, right.plateau
                        ));
                    }
                }
                if let Some(k0) = right.knots.first() {
                    if !ge_approx(k0.x, apex.x) {
                        return fail(format!(
                            "right region must start at or beyond the apex \
                             (first knot at {}, apex at {})",
                            k0.x, apex.x
                        ));
                    }
                }
                let mut prev_slope = f64::NEG_INFINITY;
                for w in right.knots.windows(2) {
                    let (a, b) = (w[0], w[1]);
                    if b.x <= a.x {
                        return fail(format!(
                            "right knots must be strictly increasing in intensity \
                             ({} then {})",
                            a.x, b.x
                        ));
                    }
                    if !ge_approx(a.y, b.y) {
                        return fail(format!(
                            "right region must be non-increasing ({} then {})",
                            a.y, b.y
                        ));
                    }
                    let slope = a.slope_to(&b);
                    if !ge_approx(slope, prev_slope) {
                        return fail(format!(
                            "right region must be concave-up (slope {prev_slope} \
                             then {slope})"
                        ));
                    }
                    prev_slope = slope;
                }
            }
        }
        Ok(())
    }
}

/// Thins an oversized Pareto front to at most `max` points, always keeping
/// the first (rightmost) and last (apex) entries.
fn thin_front(front: &mut Vec<Point>, max: usize) {
    let n = front.len();
    if n <= max {
        return;
    }
    let mut kept = Vec::with_capacity(max);
    kept.push(front[0]);
    // Evenly spaced interior picks.
    for i in 1..max - 1 {
        let idx = i * (n - 1) / (max - 1);
        kept.push(front[idx]);
    }
    kept.push(front[n - 1]);
    kept.dedup_by(|a, b| a.x == b.x && a.y == b.y);
    *front = kept;
}

/// Pearson correlation between intensity and throughput over right-region
/// points; `0.0` when degenerate (fewer than 3 points or zero variance).
fn right_trend(points: &[Point]) -> f64 {
    if points.len() < 3 {
        return 0.0;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.x).sum::<f64>() / n;
    let my = points.iter().map(|p| p.y).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for p in points {
        let dx = p.x - mx;
        let dy = p.y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t: f64, w: f64, m: f64) -> Sample {
        Sample::new("m", t, w, m).unwrap()
    }

    fn fit(samples: &[Sample]) -> PiecewiseRoofline {
        PiecewiseRoofline::fit("m".into(), samples.iter(), &FitOptions::default()).unwrap()
    }

    #[test]
    fn empty_training_set_is_an_error() {
        let err = PiecewiseRoofline::fit("m".into(), std::iter::empty(), &FitOptions::default())
            .unwrap_err();
        assert!(matches!(err, SpireError::EmptyTrainingSet { .. }));
    }

    #[test]
    fn all_infinite_intensity_gives_constant() {
        // metric never fires: M = 0 in every sample.
        let samples = vec![s(10.0, 20.0, 0.0), s(10.0, 30.0, 0.0)];
        let r = fit(&samples);
        assert!(r.is_constant());
        assert_eq!(r.estimate(1.0), 3.0);
        assert_eq!(r.estimate(f64::INFINITY), 3.0);
    }

    #[test]
    fn single_sample_produces_triangle_roofline() {
        // One sample at (I=2, P=1): left segment from origin, plateau after.
        let samples = vec![s(10.0, 10.0, 5.0)];
        let r = fit(&samples);
        assert_eq!(r.estimate(1.0), 0.5);
        assert_eq!(r.estimate(2.0), 1.0);
        assert_eq!(r.estimate(100.0), 1.0);
        assert_eq!(r.estimate(f64::INFINITY), 1.0);
    }

    #[test]
    fn estimate_at_nonpositive_intensity_is_zero() {
        let samples = vec![s(10.0, 10.0, 5.0)];
        let r = fit(&samples);
        assert_eq!(r.estimate(0.0), 0.0);
        assert_eq!(r.estimate(-3.0), 0.0);
    }

    #[test]
    fn fit_is_upper_bound_on_training_samples() {
        let samples = vec![
            s(10.0, 5.0, 10.0), // I 0.5, P 0.5
            s(10.0, 12.0, 8.0), // I 1.5, P 1.2
            s(10.0, 20.0, 5.0), // I 4, P 2
            s(10.0, 25.0, 2.5), // I 10, P 2.5
            s(10.0, 18.0, 1.0), // I 18, P 1.8
            s(10.0, 12.0, 0.5), // I 24, P 1.2
            s(10.0, 8.0, 0.0),  // I inf, P 0.8
        ];
        let r = fit(&samples);
        for smp in &samples {
            let est = r.estimate(smp.intensity());
            assert!(
                est >= smp.throughput() - 1e-9,
                "estimate {est} below sample throughput {}",
                smp.throughput()
            );
        }
    }

    #[test]
    fn left_region_is_nondecreasing() {
        let samples = vec![
            s(10.0, 5.0, 10.0),
            s(10.0, 12.0, 8.0),
            s(10.0, 20.0, 5.0),
            s(10.0, 25.0, 2.5),
        ];
        let r = fit(&samples);
        let apex = r.apex().unwrap();
        let mut prev = 0.0;
        let mut x = 0.0;
        while x <= apex.x {
            let v = r.estimate(x.max(1e-12));
            assert!(v >= prev - 1e-9, "left region must be non-decreasing");
            prev = v;
            x += apex.x / 64.0;
        }
    }

    #[test]
    fn plateau_mode_never_decreases_right_of_apex() {
        let samples = [
            s(10.0, 20.0, 5.0), // I 4, P 2 (apex)
            s(10.0, 10.0, 1.0), // I 10, P 1
            s(10.0, 5.0, 0.25), // I 20, P 0.5
        ];
        let opts = FitOptions {
            right_fit: RightFitMode::Plateau,
            ..FitOptions::default()
        };
        let r = PiecewiseRoofline::fit("m".into(), samples.iter(), &opts).unwrap();
        assert_eq!(r.estimate(10.0), 2.0);
        assert_eq!(r.estimate(1e6), 2.0);
    }

    #[test]
    fn graph_mode_decreases_right_of_apex() {
        let samples = vec![
            s(10.0, 20.0, 5.0), // I 4, P 2 (apex)
            s(10.0, 10.0, 1.0), // I 10, P 1
            s(10.0, 5.0, 0.25), // I 20, P 0.5
        ];
        let r = fit(&samples);
        assert!(r.estimate(20.0) < 2.0);
        assert!(r.estimate(20.0) >= 0.5 - 1e-9);
    }

    #[test]
    fn auto_mode_prefers_plateau_for_flat_right_region() {
        // Right-region throughput does not trend downward.
        let samples = [
            s(10.0, 20.0, 5.0), // I 4, P 2 (apex)
            s(10.0, 19.0, 2.0), // I 9.5, P 1.9
            s(10.0, 19.5, 1.0), // I 19.5, P 1.95
            s(10.0, 19.2, 0.5), // I 38.4, P 1.92
        ];
        let opts = FitOptions {
            right_fit: RightFitMode::Auto,
            ..FitOptions::default()
        };
        let r = PiecewiseRoofline::fit("m".into(), samples.iter(), &opts).unwrap();
        // Plateau chosen: no drop at high intensity.
        assert_eq!(r.estimate(1e9), 2.0);
    }

    #[test]
    fn auto_mode_uses_graph_for_decreasing_right_region() {
        let samples = [
            s(10.0, 20.0, 5.0),  // I 4, P 2 (apex)
            s(10.0, 15.0, 1.5),  // I 10, P 1.5
            s(10.0, 10.0, 0.5),  // I 20, P 1.0
            s(10.0, 5.0, 0.125), // I 40, P 0.5
        ];
        let opts = FitOptions {
            right_fit: RightFitMode::Auto,
            ..FitOptions::default()
        };
        let r = PiecewiseRoofline::fit("m".into(), samples.iter(), &opts).unwrap();
        assert!(r.estimate(40.0) < 1.0 + 1e-9);
    }

    #[test]
    fn fit_options_validate_bounds() {
        let bad = FitOptions {
            auto_trend_threshold: 0.5,
            ..FitOptions::default()
        };
        assert!(bad.validate().is_err());
        let bad = FitOptions {
            max_front_size: 1,
            ..FitOptions::default()
        };
        assert!(bad.validate().is_err());
        assert!(FitOptions::default().validate().is_ok());
    }

    #[test]
    fn thinning_is_opt_in_and_bounds_the_front() {
        // 20 right-region Pareto samples on a convex curve; every one is a
        // front point, so an exact fit can (and does) pass through all of
        // them with zero error.
        let mut samples = vec![s(10.0, 40.0, 10.0)]; // apex: I 4, P 4
        for i in 0..20 {
            let x = 5.0 + i as f64;
            let y = 16.0 / x; // convex, decreasing
                              // Sample::new(metric, t, w, m): I = w/m = x, P = w/t = y.
            samples.push(Sample::new("m", 10.0, 10.0 * y, 10.0 * y / x).unwrap());
        }
        let exact_opts = FitOptions {
            max_front_size: 8,
            thin_front: false,
            ..FitOptions::default()
        };
        let exact = PiecewiseRoofline::fit("m".into(), samples.iter(), &exact_opts).unwrap();
        let exact_knots = exact.right_region().unwrap().knots().len();
        assert!(
            exact_knots > 8,
            "without thinning the full front must be fitted (got {exact_knots} knots)"
        );
        assert!(exact.right_region().unwrap().fit_error() < 1e-9);
        exact.validate().unwrap();

        let thinned_opts = FitOptions {
            max_front_size: 8,
            thin_front: true,
            ..FitOptions::default()
        };
        let thinned = PiecewiseRoofline::fit("m".into(), samples.iter(), &thinned_opts).unwrap();
        let thinned_knots = thinned.right_region().unwrap().knots().len();
        assert!(
            thinned_knots <= 8,
            "thinning must cap the front at max_front_size (got {thinned_knots} knots)"
        );
        thinned.validate().unwrap();
    }

    #[test]
    fn fit_options_without_thin_front_field_deserialize_to_disabled() {
        // Options serialized before `thin_front` existed (when thinning at
        // `max_front_size` was unconditional) must still load; the stored
        // front cap is preserved, thinning defaults to off.
        let legacy = r#"{"right_fit":"Graph","auto_trend_threshold":-0.1,"max_front_size":256}"#;
        let opts: FitOptions = serde_json::from_str(legacy).unwrap();
        assert_eq!(opts.right_fit, RightFitMode::Graph);
        assert_eq!(opts.max_front_size, 256);
        assert!(!opts.thin_front);
        // And the current shape round-trips exactly.
        let json = serde_json::to_string(&FitOptions::default()).unwrap();
        let back: FitOptions = serde_json::from_str(&json).unwrap();
        assert_eq!(back, FitOptions::default());
    }

    #[test]
    fn thin_front_keeps_extremes() {
        let mut front: Vec<Point> = (0..100)
            .map(|i| Point::new(100.0 - i as f64, i as f64))
            .collect();
        thin_front(&mut front, 10);
        assert!(front.len() <= 10);
        assert_eq!(front[0], Point::new(100.0, 0.0));
        assert_eq!(*front.last().unwrap(), Point::new(1.0, 99.0));
    }

    #[test]
    fn fit_column_matches_row_fit() {
        let samples = vec![
            s(10.0, 5.0, 10.0),
            s(10.0, 12.0, 8.0),
            s(10.0, 20.0, 5.0),
            s(10.0, 25.0, 2.5),
            s(10.0, 18.0, 1.0),
            s(10.0, 8.0, 0.0), // I = inf
        ];
        let row_fit = fit(&samples);
        let set: crate::SampleSet = samples.into_iter().collect();
        let col = set.column(&"m".into()).unwrap();
        let col_fit = PiecewiseRoofline::fit_column(col, &FitOptions::default()).unwrap();
        assert_eq!(row_fit, col_fit);
    }

    #[test]
    fn nan_and_negative_infinite_intensities_feed_neither_region() {
        // Only a hostile column carries these rows; they must not raise the
        // tail or, under Auto/Plateau, the plateau above the apex.
        let intensities = [1.0, 2.0, 4.0, f64::NEG_INFINITY, f64::NAN];
        let throughputs = [1.0, 2.0, 1.5, 9.0, 9.0];
        for right_fit in [
            RightFitMode::Graph,
            RightFitMode::Auto,
            RightFitMode::Plateau,
        ] {
            let opts = FitOptions {
                right_fit,
                ..FitOptions::default()
            };
            let (r, _, _) =
                PiecewiseRoofline::fit_slices("m".into(), &intensities, &throughputs, &opts)
                    .unwrap();
            assert_eq!(r.apex(), Some(Point::new(2.0, 2.0)));
            let right = r.right_region().unwrap();
            assert!(right.tail() <= 2.0, "{right_fit:?}: tail {}", right.tail());
            assert_eq!(right.plateau(), 2.0, "{right_fit:?}");
            assert!(r.estimate(f64::INFINITY) <= 2.0);
            r.validate().unwrap();
        }
        // A column of such rows alone is a zero constant, and a `+∞` row
        // still sets the tail.
        let (r, _, _) = PiecewiseRoofline::fit_slices(
            "m".into(),
            &[f64::NEG_INFINITY, f64::NAN],
            &[9.0, 9.0],
            &FitOptions::default(),
        )
        .unwrap();
        assert!(r.is_constant());
        assert_eq!(r.estimate(1.0), 0.0);
        let (r, _, _) = PiecewiseRoofline::fit_slices(
            "m".into(),
            &[2.0, f64::INFINITY, f64::NEG_INFINITY],
            &[2.0, 0.5, 9.0],
            &FitOptions::default(),
        )
        .unwrap();
        assert_eq!(r.right_region().unwrap().tail(), 0.5);
    }

    #[test]
    fn roofline_serde_round_trip() {
        let samples = vec![s(10.0, 10.0, 5.0), s(10.0, 20.0, 2.0)];
        let r = fit(&samples);
        let json = serde_json::to_string(&r).unwrap();
        let back: PiecewiseRoofline = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
        assert_eq!(r.estimate(3.0), back.estimate(3.0));
    }

    #[test]
    fn zero_work_samples_fit_without_panic() {
        let samples = vec![s(10.0, 0.0, 5.0), s(10.0, 0.0, 2.0)];
        let r = fit(&samples);
        assert_eq!(r.estimate(1.0), 0.0);
    }

    #[test]
    fn validate_accepts_well_formed_fits() {
        let cases: Vec<Vec<Sample>> = vec![
            vec![s(10.0, 10.0, 5.0)],
            vec![s(10.0, 20.0, 0.0), s(10.0, 30.0, 0.0)], // constant
            vec![s(10.0, 0.0, 5.0), s(10.0, 0.0, 2.0)],   // all-zero throughput
            vec![
                s(10.0, 5.0, 10.0),
                s(10.0, 12.0, 8.0),
                s(10.0, 20.0, 5.0),
                s(10.0, 25.0, 2.5),
                s(10.0, 18.0, 1.0),
                s(10.0, 8.0, 0.0),
            ],
        ];
        for samples in cases {
            fit(&samples)
                .validate()
                .expect("fit must satisfy invariants");
        }
    }

    #[test]
    fn validate_rejects_corrupted_shapes() {
        let violation = |shape: Shape| {
            let r = PiecewiseRoofline {
                metric: "m".into(),
                shape,
                training_samples: 1,
            };
            match r.validate() {
                Err(SpireError::ModelInvariantViolation { metric, .. }) => {
                    assert_eq!(metric, "m");
                }
                other => panic!("expected invariant violation, got {other:?}"),
            }
        };

        violation(Shape::Constant(f64::NAN));
        violation(Shape::Constant(-1.0));
        // Left region not starting at the origin.
        violation(Shape::Full {
            left: vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)],
            right: RightRegion::constant(2.0),
        });
        // Left region decreasing.
        violation(Shape::Full {
            left: vec![Point::ORIGIN, Point::new(1.0, 2.0), Point::new(2.0, 1.0)],
            right: RightRegion::constant(2.0),
        });
        // Left region convex (slopes increasing).
        violation(Shape::Full {
            left: vec![Point::ORIGIN, Point::new(1.0, 0.5), Point::new(2.0, 5.0)],
            right: RightRegion::constant(5.0),
        });
        // Non-finite left knot.
        violation(Shape::Full {
            left: vec![Point::ORIGIN, Point::new(1.0, f64::NAN)],
            right: RightRegion::constant(1.0),
        });
    }

    #[test]
    fn validate_rejects_corrupted_right_regions() {
        let full = |right: RightRegion| Shape::Full {
            left: vec![Point::ORIGIN, Point::new(2.0, 4.0)],
            right,
        };
        let violation = |shape: Shape| {
            let r = PiecewiseRoofline {
                metric: "m".into(),
                shape,
                training_samples: 1,
            };
            assert!(
                matches!(
                    r.validate(),
                    Err(SpireError::ModelInvariantViolation { .. })
                ),
                "shape should be rejected"
            );
        };

        // Increasing right region.
        violation(full(RightRegion {
            plateau: 4.0,
            knots: vec![Point::new(2.0, 3.0), Point::new(4.0, 3.5)],
            tail: 3.5,
            fit_error: 0.0,
        }));
        // Concave-down (slopes decreasing) right region.
        violation(full(RightRegion {
            plateau: 4.0,
            knots: vec![
                Point::new(2.0, 4.0),
                Point::new(3.0, 3.9),
                Point::new(4.0, 1.0),
            ],
            tail: 1.0,
            fit_error: 0.0,
        }));
        // Knot above the plateau.
        violation(full(RightRegion {
            plateau: 4.0,
            knots: vec![Point::new(2.0, 5.0)],
            tail: 1.0,
            fit_error: 0.0,
        }));
        // Right region starting left of the apex.
        violation(full(RightRegion {
            plateau: 4.0,
            knots: vec![Point::new(1.0, 4.0), Point::new(4.0, 1.0)],
            tail: 1.0,
            fit_error: 0.0,
        }));
        // Non-finite fit error.
        violation(full(RightRegion {
            plateau: 4.0,
            knots: vec![Point::new(2.0, 4.0)],
            tail: 4.0,
            fit_error: f64::INFINITY,
        }));
        // NaN plateau (what a fully poisoned column degenerates to).
        violation(full(RightRegion::constant(f64::NAN)));
    }

    #[test]
    fn validate_allows_tail_above_interior_knots() {
        // An I = ∞ sample can raise the start height above the front.
        let r = PiecewiseRoofline {
            metric: "m".into(),
            shape: Shape::Full {
                left: vec![Point::ORIGIN, Point::new(2.0, 4.0)],
                right: RightRegion {
                    plateau: 4.0,
                    knots: vec![Point::new(2.0, 4.0), Point::new(6.0, 1.0)],
                    tail: 10.0,
                    fit_error: 0.0,
                },
            },
            training_samples: 3,
        };
        r.validate().expect("high tail is legitimate");
    }
}
