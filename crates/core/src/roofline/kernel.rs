//! The chunked, branch-thin batch-estimate kernel.
//!
//! [`estimate_into`] is the fast path behind
//! [`PiecewiseRoofline::estimate_soa`](super::PiecewiseRoofline::estimate_soa)
//! for every roofline shape it [`covers`]: strictly increasing knots on
//! both sides of the apex, at most [`SCAN_KNOTS`] of each. Intensities
//! are processed in 64-lane chunks, and every chunk runs through one
//! region-compaction pass ([`eval_compacted`]): a branch-free sweep
//! writes the constant regions and compacts the interpolating lanes into
//! per-region index lists, whose counts also reveal pure single-region
//! chunks and send them to tight interpolation loops the compiler can
//! autovectorize. Shapes the kernel does not cover (a one-knot or
//! duplicate-`x` right region, more than [`SCAN_KNOTS`] knots, constant
//! rooflines) never reach this module: `estimate_soa` maps the scalar
//! [`estimate`](super::PiecewiseRoofline::estimate) over them instead.
//!
//! # Bit-identity contract
//!
//! Every output is bit-identical to the scalar
//! [`estimate`](super::PiecewiseRoofline::estimate) on the same input —
//! including NaN handling and region-boundary precedence. The fast
//! paths earn this by construction, not by tolerance:
//!
//! * Constant regions (`0.0`, plateau, tail) are selected per lane by the
//!   same comparisons, in the same precedence, as the scalar branch chain.
//! * Interpolation evaluates the *same expression in the same operation
//!   order* as [`geometry::piecewise_eval`](crate::geometry::piecewise_eval):
//!   `a.y + ((x - a.x) * (b.y - a.y)) / (b.x - a.x)`. IEEE-754 basic
//!   operations are exactly rounded and deterministic, so identical
//!   per-lane operation sequences give identical bits. No slope is
//!   hoisted (`(x-a.x) * dy/dx` would reassociate) and no FMA contraction
//!   is used (an FMA rounds once where `mul` + `add` round twice, so it
//!   is *not* bit-identical; `rustc` never contracts without explicit
//!   intrinsics, and this module never asks for them).
//! * Lanes at or beyond an end knot get `piecewise_eval`'s early-return
//!   knot heights through final selects on the same comparisons, and
//!   strictly increasing knots rule out its duplicate-`x` branch.
//! * A NaN intensity joins no interpolation list and gets `f64::NAN`
//!   from the constant select, as scalar `RightRegion::eval` does: the
//!   input's sign and payload never reach the output.
//!
//! The contract is pinned by the `estimate_soa_matches_per_sample_*`
//! tests in [`super`] and the chunk-offset/NaN proptests in
//! `tests/properties.rs`.

use crate::geometry::Point;

use super::RightRegion;

/// Chunk width: 64 lanes (one 512-byte stripe of `f64`s) keeps the
/// per-chunk index lists and segment counts in stack arrays.
const CHUNK: usize = 64;

/// Knot-count ceiling for the kernel: above this, the `O(k)` counting
/// scan of [`eval_counted`] stops paying for itself.
const SCAN_KNOTS: usize = 64;

/// Whether [`estimate_into`] covers a roofline with these left and right
/// knots: both strictly increasing (no duplicate-`x` segment, at least
/// one real segment) and at most [`SCAN_KNOTS`] long.
pub(super) fn covers(left: &[Point], right: &[Point]) -> bool {
    strictly_increasing(left)
        && strictly_increasing(right)
        && left.len() <= SCAN_KNOTS
        && right.len() <= SCAN_KNOTS
}

/// Estimates every intensity in `xs`, appending to `out`, for a roofline
/// shape the kernel [`covers`].
pub(super) fn estimate_into(left: &[Point], right: &RightRegion, xs: &[f64], out: &mut Vec<f64>) {
    debug_assert!(covers(left, &right.knots));
    let apex = *left.last().expect("hull is non-empty");
    for chunk in xs.chunks(CHUNK) {
        eval_compacted(left, right, apex, chunk, out);
    }
}

/// Evaluates one chunk of at most [`CHUNK`] lanes by region compaction.
/// Correct for *every* chunk composition; no classification pre-pass
/// needed.
///
/// Randomly ordered intensities almost never produce single-region
/// chunks, so mixed chunks are the hot path for unsorted batches. One
/// branch-free pass writes the constant regions (zero / plateau / tail)
/// and compacts the lane indices that need a real interpolation into two
/// small lists (left hull, right span). The compaction increments are
/// `usize::from(bool)` adds, so the pass has no data-dependent branches;
/// the per-region loops that follow then run the [`eval_knots_strict`]
/// search over one fixed knot array each, with perfectly predictable
/// control flow. This is what beats the scalar chain on mixed chunks:
/// the ~50/50 apex split that mispredicts in a branch chain becomes two
/// dense loops.
///
/// The lane counts double as a free chunk classification: a chunk whose
/// every lane joined one list is a pure-region chunk, and those dispatch
/// to [`eval_segmented`], whose single-segment vector loop is what makes
/// sorted batches fast. Both-lists-empty means every lane kept its
/// constant.
///
/// Bit-identity per lane, mirroring the scalar chain's precedence:
/// a lane joins the left list on exactly the scalar `x > 0 && x <
/// apex.x` test, and the right list on the scalar chain's span test
/// (`x > 0 && x >= apex.x && x >= first.x && x <= last.x`). A NaN lane
/// fails every ordered comparison, so it joins neither list and falls
/// through the constant select to `f64::NAN` — the canonical NaN scalar
/// [`RightRegion::eval`] returns, whatever the input's sign or payload.
/// The constant pass writes its fall-through NaN into every span lane
/// too; the lists overwrite those, so only NaN lanes keep it.
fn eval_compacted(
    left: &[Point],
    right: &RightRegion,
    apex: Point,
    chunk: &[f64],
    out: &mut Vec<f64>,
) {
    debug_assert!(chunk.len() <= CHUNK);
    let rk: &[Point] = &right.knots;
    let (first, last) = (rk[0], rk[rk.len() - 1]);
    let mut idx_l = [0u32; CHUNK];
    let mut idx_r = [0u32; CHUNK];
    let mut buf = [0.0f64; CHUNK];
    let (mut n_l, mut n_r) = (0usize, 0usize);
    for (j, &x) in chunk.iter().enumerate() {
        // `&` instead of `&&`: no short-circuit branch on a
        // data-dependent predicate.
        let in_left = (x > 0.0) & (x < apex.x);
        let in_right = (x > 0.0) & (x >= apex.x) & (x >= first.x) & (x <= last.x);
        idx_l[n_l] = j as u32;
        n_l += usize::from(in_left);
        idx_r[n_r] = j as u32;
        n_r += usize::from(in_right);
        // Constant regions inline; interpolated lanes get a
        // placeholder the region loops overwrite. The select is a
        // chain of cmovs, and writing to the stack buffer instead of
        // pushing skips a capacity check per lane.
        buf[j] = if x <= 0.0 {
            0.0
        } else if x < first.x {
            right.plateau
        } else if x > last.x {
            right.tail
        } else {
            f64::NAN
        };
    }
    if n_l == chunk.len() {
        eval_segmented(left, chunk, out);
        return;
    }
    if n_r == chunk.len() {
        eval_segmented(rk, chunk, out);
        return;
    }
    for &j in &idx_l[..n_l] {
        buf[j as usize] = eval_knots_strict(left, chunk[j as usize]);
    }
    for &j in &idx_r[..n_r] {
        buf[j as usize] = eval_knots_strict(rk, chunk[j as usize]);
    }
    out.extend_from_slice(&buf[..chunk.len()]);
}

/// Whether the knot `x`s strictly increase — the precondition for the
/// branchless [`eval_knots_strict`] search (no duplicate-`x` segments, at
/// least one real segment).
#[inline]
fn strictly_increasing(knots: &[Point]) -> bool {
    knots.len() >= 2 && knots.windows(2).all(|w| w[0].x < w[1].x)
}

/// [`piecewise_eval`](crate::geometry::piecewise_eval) for
/// strictly-increasing knots, with the branchy binary search replaced by
/// a conditional-move search whose trip count is uniform across lanes
/// (the interval halves every iteration no matter which side wins), so
/// independent lanes pipeline instead of stalling on ~50%-mispredicted
/// search branches.
///
/// Bit-identity: the search is the same algorithm as the scalar one, so
/// it lands on the same segment; the interpolation is the same expression
/// in the same operation order; and the end-knot early returns become
/// final selects on the same comparisons. Strictly-increasing `x`s rule
/// out the duplicate-`x` (`b.x == a.x`) scalar branch. NaN lanes never
/// reach it.
#[inline]
fn eval_knots_strict(knots: &[Point], x: f64) -> f64 {
    debug_assert!(strictly_increasing(knots));
    let n = knots.len();
    let mut lo = 0usize;
    let mut hi = n - 1;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let le = knots[mid].x <= x;
        lo = if le { mid } else { lo };
        hi = if le { hi } else { mid };
    }
    let (a, b) = (knots[lo], knots[hi]);
    let mut y = a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x);
    y = if x <= knots[0].x { knots[0].y } else { y };
    y = if x >= knots[n - 1].x {
        knots[n - 1].y
    } else {
        y
    };
    y
}

/// Piecewise-linear evaluation of a pure-region chunk over strictly
/// increasing knots: if every lane lands strictly inside one segment, run
/// the straight-line interpolation as a vector loop with hoisted knot
/// constants; otherwise count segments with [`eval_counted`].
#[inline]
fn eval_segmented(knots: &[Point], chunk: &[f64], out: &mut Vec<f64>) {
    let (mut mn, mut mx) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in chunk {
        mn = mn.min(x);
        mx = mx.max(x);
    }
    // Strict interior bounds keep the end-knot early returns of
    // `piecewise_eval` (which return the knot height exactly, not the
    // interpolation formula) out of the vector path.
    if mn > knots[0].x && mx < knots[knots.len() - 1].x {
        let seg = segment_index(knots, mn);
        let (a, b) = (knots[seg], knots[seg + 1]);
        if mx < b.x && b.x != a.x {
            interpolate_segment(a, b, chunk, out);
            return;
        }
    }
    eval_counted(knots, chunk, out);
}

/// Multi-segment chunk evaluation by counting scan, for strictly
/// increasing knots and NaN-free chunks. The segment index is
/// `#{i >= 1 : knots[i].x <= x}`, which for
/// strictly increasing `x`s equals the binary-search index — but the
/// count is data-independent straight-line code the compiler vectorizes
/// (one broadcast compare-and-accumulate sweep per knot), where any
/// search would branch or gather per lane.
///
/// Bit-identity with
/// [`piecewise_eval`](crate::geometry::piecewise_eval): interior lanes
/// get the same segment and the same interpolation expression; lanes at
/// or beyond an end knot get the interpolation overwritten by the same
/// early-return constants through final selects (at `x == knots[0].x`
/// the clamped interpolation is evaluated but discarded).
fn eval_counted(knots: &[Point], chunk: &[f64], out: &mut Vec<f64>) {
    let n = knots.len();
    debug_assert!(n >= 2);
    let (first, last) = (knots[0], knots[n - 1]);
    let mut cnt = [0u32; CHUNK];
    let cnt = &mut cnt[..chunk.len()];
    for k in &knots[1..] {
        let kx = k.x;
        for (c, &x) in cnt.iter_mut().zip(chunk) {
            *c += u32::from(kx <= x);
        }
    }
    for (&c, &x) in cnt.iter().zip(chunk) {
        let lo = (c as usize).min(n - 2);
        let (a, b) = (knots[lo], knots[lo + 1]);
        let mut y = a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x);
        y = if x <= first.x { first.y } else { y };
        y = if x >= last.x { last.y } else { y };
        out.push(y);
    }
}

/// The binary search of
/// [`piecewise_eval`](crate::geometry::piecewise_eval): the index `i`
/// with `knots[i].x <= x` and (for interior `x`) `x < knots[i+1].x`.
#[inline]
fn segment_index(knots: &[Point], x: f64) -> usize {
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
    lo
}

/// One-segment interpolation over a whole chunk — the expression and
/// operation order of
/// [`piecewise_eval`](crate::geometry::piecewise_eval)'s last line, with
/// the knot loads hoisted.
#[inline]
fn interpolate_segment(a: Point, b: Point, chunk: &[f64], out: &mut Vec<f64>) {
    let dy = b.y - a.y;
    let dx = b.x - a.x;
    for &x in chunk {
        out.push(a.y + (x - a.x) * dy / dx);
    }
}
