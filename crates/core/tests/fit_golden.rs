//! Golden pin of the roofline geometry and fit on seeded adversarial
//! columns: the left hull, the Pareto front right of the apex and the
//! fitted roofline under each right-fit mode, every coordinate written as
//! the hex of its `f64` bits, so any change to a comparison, a tie-break
//! or a scan order shows up as a diff.
//!
//! The columns cover exact duplicates, ±0.0, NaN and ±∞ intensities and
//! throughputs, zero throughputs, intensity ties within `EPS`, collinear
//! runs on both sides of the apex, a perfbench-shaped noisy column
//! (log-uniform intensity over 0.5–2000) and a staircase column whose
//! every step is on the front.
//!
//! To regenerate after an intentional change, run with
//! `SPIRE_UPDATE_GOLDEN=1` and review the diff.

use std::fmt::Write as _;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spire_core::geometry::{
    pareto_front, pareto_front_soa, upper_hull_from_origin, upper_hull_from_origin_soa, Point,
};
use spire_core::{FitOptions, MetricColumn, MetricId, PiecewiseRoofline, RightFitMode};

/// A column whose derived `(intensity, throughput)` pairs are `(x, y)`
/// (up to one rounding each), with the specials exact: the raw row is
/// `T = 1/y`, `W = 1`, `M = 1/x`, so `x = ±0, ∞, NaN` and
/// `y = ±0, ∞, NaN` come back as themselves. `x = −∞` gives `M = −0`,
/// which counts as zero, so it comes back as `+∞`.
fn column(points: &[(f64, f64)]) -> MetricColumn {
    let time = points.iter().map(|&(_, y)| 1.0 / y).collect();
    let work = vec![1.0; points.len()];
    let delta = points.iter().map(|&(x, _)| 1.0 / x).collect();
    MetricColumn::from_raw_columns(MetricId::new("golden"), time, work, delta)
        .expect("parallel columns")
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn points(out: &mut String, label: &str, pts: &[Point]) {
    let _ = write!(out, "{label} ({}):", pts.len());
    for p in pts {
        let _ = write!(out, " {}:{}", hex(p.x), hex(p.y));
    }
    out.push('\n');
}

/// The geometry and the four fits of one column.
fn render_column(out: &mut String, name: &str, col: &MetricColumn) {
    let (xs, ys) = (col.intensities(), col.throughputs());
    let _ = writeln!(out, "== {name} (n = {})", xs.len());
    let hull = upper_hull_from_origin_soa(xs, ys);
    let apex = *hull.last().expect("hull holds the origin");
    let (rx, ry): (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .filter(|(&x, _)| x.is_finite() && x >= apex.x)
        .map(|(&x, &y)| (x, y))
        .unzip();
    let front = pareto_front_soa(&rx, &ry);
    points(out, "hull", &hull);
    points(out, "front", &front);

    // The point forms run the same kernels as the column forms.
    let pts: Vec<Point> = xs.iter().zip(ys).map(|(&x, &y)| Point::new(x, y)).collect();
    assert_eq!(
        upper_hull_from_origin(&pts),
        hull,
        "{name}: hull forms differ"
    );
    let all_front = pareto_front_soa(xs, ys);
    assert_eq!(pareto_front(&pts), all_front, "{name}: front forms differ");
    points(out, "front(all)", &all_front);

    let modes = [
        ("graph", FitOptions::default()),
        (
            "auto",
            FitOptions {
                right_fit: RightFitMode::Auto,
                ..FitOptions::default()
            },
        ),
        (
            "plateau",
            FitOptions {
                right_fit: RightFitMode::Plateau,
                ..FitOptions::default()
            },
        ),
        (
            "graph-thin8",
            FitOptions {
                thin_front: true,
                max_front_size: 8,
                ..FitOptions::default()
            },
        ),
    ];
    for (mode, options) in &modes {
        match PiecewiseRoofline::fit_column(col, options) {
            Err(e) => {
                let _ = writeln!(out, "fit {mode}: error {e}");
            }
            Ok(fit) if fit.is_constant() => {
                let _ = writeln!(
                    out,
                    "fit {mode}: constant {} samples {}",
                    hex(fit.estimate(f64::INFINITY)),
                    fit.training_samples()
                );
            }
            Ok(fit) => {
                let right = fit.right_region().expect("full fits have a right region");
                let _ = writeln!(
                    out,
                    "fit {mode}: plateau {} tail {} error {} samples {}",
                    hex(right.plateau()),
                    hex(right.tail()),
                    hex(right.fit_error()),
                    fit.training_samples()
                );
                points(out, "  left", fit.left_knots());
                points(out, "  right", right.knots());
            }
        }
    }
}

/// Hand-built edge cases, one per hazard.
fn named_columns() -> Vec<(String, Vec<(f64, f64)>)> {
    let nan = f64::NAN;
    let inf = f64::INFINITY;
    let mut cols: Vec<(String, Vec<(f64, f64)>)> = vec![
        (
            "duplicates and signed zeros".into(),
            vec![
                (1.0, 2.0),
                (1.0, 2.0),
                (-0.0, 3.0),
                (0.0, 3.0),
                (2.0, -0.0),
                (2.0, 0.0),
                (3.0, 4.0),
                (3.0, 4.0),
                (5.0, 1.0),
                (5.0, 1.0),
            ],
        ),
        (
            "non-finite intensities and throughputs".into(),
            vec![
                (nan, 1.0),
                (inf, 2.5),
                (-inf, 9.0),
                (1.0, nan),
                (2.0, inf),
                (1.5, 1.0),
                (4.0, 2.0),
                (8.0, 1.0),
                (inf, 0.5),
            ],
        ),
        (
            "only infinite intensities".into(),
            vec![(inf, 1.0), (inf, 3.0), (inf, 2.0)],
        ),
        ("only NaN intensities".into(), vec![(nan, 1.0), (nan, 2.0)]),
        (
            "zero throughputs".into(),
            vec![(1.0, 0.0), (2.0, 0.0), (3.0, -0.0), (0.5, 0.0)],
        ),
        (
            "zero throughputs with an infinite tail".into(),
            vec![(1.0, 0.0), (4.0, 0.0), (inf, 2.0)],
        ),
        (
            "some zero throughputs".into(),
            vec![(1.0, 0.0), (2.0, 3.0), (3.0, 0.0), (6.0, 1.0), (9.0, 0.0)],
        ),
        (
            "signed zero intensities only".into(),
            vec![(-0.0, 1.0), (0.0, 2.0), (0.0, 2.0)],
        ),
        (
            "negative intensities only".into(),
            vec![(-1.0, 1.0), (-2.0, 3.0)],
        ),
    ];
    // Intensity ties within EPS, on both sides of the apex.
    let mut ties = Vec::new();
    for k in 0..6 {
        let x = 1.0 + k as f64;
        for j in 0..3 {
            let xj = x * (1.0 + j as f64 * 3e-10);
            ties.push((xj, 2.0 * x - 0.1 * j as f64));
        }
    }
    for k in 0..6 {
        let x = 8.0 + k as f64;
        ties.push((x, 12.0 - k as f64));
        ties.push((x * (1.0 + 4e-10), 12.0 - k as f64 + 1e-9));
    }
    cols.push(("intensity ties within EPS".into(), ties));
    // Collinear runs: through the origin, along the hull and past the apex.
    let mut collinear = Vec::new();
    for k in 1..=8 {
        collinear.push((k as f64, 0.5 * k as f64));
    }
    for k in 1..=6 {
        collinear.push((8.0 + k as f64, 4.0 - 0.25 * k as f64));
    }
    collinear.push((3.0, 1.0));
    collinear.push((10.0, 2.0));
    cols.push(("collinear runs".into(), collinear));
    cols
}

/// perfbench's noisy narrow metric: log-uniform intensity over 0.5–2000
/// and a noisy roofline-shaped throughput.
fn noisy_column(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = 0.5 * (rng.gen::<f64>() * 4000f64.ln()).exp();
            let roof = if x < 40.0 {
                0.08 * x
            } else {
                3.2 * (40.0 / x).powf(0.4)
            };
            (x, roof * (0.2 + 0.8 * rng.gen::<f64>()))
        })
        .collect()
}

/// perfbench's wide metric: a staircase climbing in intensity as
/// throughput falls (every step on the front), plus points under it.
fn staircase_column(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let golden = 0.618_033_988_749_895_f64;
    (0..n)
        .map(|r| {
            let r = r as f64;
            let stair = 0.7 * (1.0 + 0.1 * (r + 0.5 * (r * golden).fract()));
            let y = 3.0 - 2.5 * r / n as f64;
            if rng.gen_bool(0.25) {
                (stair, y)
            } else {
                (stair * (0.2 + 0.6 * rng.gen::<f64>()), y * rng.gen::<f64>())
            }
        })
        .collect()
}

/// A small random column drawn from a pool of hazards, so duplicates,
/// signed zeros, non-finite values, EPS ties and collinear points meet
/// in the same column.
fn adversarial_column(seed: u64) -> Vec<(f64, f64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(1usize..48);
    let bases = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 9.0];
    let mut pts: Vec<(f64, f64)> = Vec::with_capacity(n);
    while pts.len() < n {
        let base = bases[rng.gen_range(0usize..bases.len())];
        let x = match rng.gen_range(0u32..16) {
            0 => -0.0,
            1 => 0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4 => base * (1.0 + rng.gen_range(1u32..4) as f64 * 3e-10),
            5 => rng.gen_range(0.01..12.0),
            _ => base,
        };
        let y = match rng.gen_range(0u32..16) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::NAN,
            3 => f64::INFINITY,
            4..=6 => 0.75 * x,
            7 => 9.0 - 0.5 * x,
            8 => rng.gen_range(0.0..6.0),
            _ => [1.0, 2.0, 3.0, 4.5][rng.gen_range(0usize..4)],
        };
        pts.push((x, y));
        if rng.gen_bool(0.2) && pts.len() < n {
            pts.push((x, y));
        }
    }
    pts
}

fn render() -> String {
    let mut out = String::new();
    for (name, pts) in named_columns() {
        render_column(&mut out, &name, &column(&pts));
    }
    for (n, seed) in [(1664, 1), (3072, 2)] {
        render_column(
            &mut out,
            &format!("noisy {n}"),
            &column(&noisy_column(n, seed)),
        );
    }
    for (n, seed) in [(400, 3), (1664, 4)] {
        render_column(
            &mut out,
            &format!("staircase {n}"),
            &column(&staircase_column(n, seed)),
        );
    }
    for seed in 0..160 {
        render_column(
            &mut out,
            &format!("adversarial seed {seed}"),
            &column(&adversarial_column(seed)),
        );
    }
    out
}

/// Compares `actual` to the committed golden, or rewrites the golden
/// when `SPIRE_UPDATE_GOLDEN` is set.
fn assert_golden(actual: &str, name: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("SPIRE_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or(actual.lines().count().min(expected.lines().count()), |i| i);
        panic!(
            "{name} drifted from its golden at line {}; run with SPIRE_UPDATE_GOLDEN=1 \
             if intentional",
            line + 1
        );
    }
}

#[test]
fn adversarial_fits_are_pinned() {
    assert_golden(&render(), "fits.golden.txt");
}
