//! The committed `BENCH_*.json` files pass the gates their writers
//! enforce, and each gate can fail.
//!
//! Every report type declares its claims once, in `spire_bench::report`;
//! the writer bins check them on every run and this test checks them
//! against the numbers in the repo. The doctoring tests change one value
//! of a committed report and assert that exactly the gate guarding it
//! fails, so a gate that can never fail cannot pass here vacuously.

use spire_bench::report::{
    load, path, to_json, FitCase, IoCase, OnlineCase, Report, TransferSummary,
};

fn committed<R: Report>() -> R {
    load().unwrap_or_else(|e| panic!("{e}"))
}

/// The names of the gates `report` fails.
fn failed<R: Report>(report: &R) -> Vec<&'static str> {
    report
        .gates()
        .into_iter()
        .filter(|g| !g.passed)
        .map(|g| g.name)
        .collect()
}

fn assert_all_pass<R: Report>() {
    let report: R = committed();
    // The typed report is the whole file: writing it back reproduces
    // the committed bytes, so no field escapes the gates unread.
    let text = std::fs::read_to_string(path::<R>()).unwrap();
    assert_eq!(to_json(&report), text, "{} does not round-trip", R::FILE);
    let gates = report.gates();
    assert!(!gates.is_empty(), "{} declares no gates", R::FILE);
    let failing: Vec<_> = gates.iter().filter(|g| !g.passed).collect();
    assert!(failing.is_empty(), "{} fails {failing:#?}", R::FILE);
}

#[test]
fn committed_reports_pass_their_gates() {
    assert_all_pass::<IoCase>();
    assert_all_pass::<OnlineCase>();
    assert_all_pass::<TransferSummary>();
    assert_all_pass::<Vec<FitCase>>();
}

#[test]
fn dataset_gates_fail_on_their_own_values() {
    let base: IoCase = committed();
    let mut r = base.clone();
    r.loads_bit_identical = false;
    assert_eq!(failed(&r), ["loads_bit_identical"]);
    let mut r = base.clone();
    r.estimates_bit_identical = false;
    assert_eq!(failed(&r), ["estimates_bit_identical"]);
    let mut r = base.clone();
    r.load_speedup = 9.9;
    assert_eq!(failed(&r), ["load_speedup >= 10"]);
    let mut r = base;
    r.estimate_speedup = 1.49;
    assert_eq!(failed(&r), ["estimate_speedup >= 1.5"]);
    // Only the two timing gates are waived on quick runs.
    let paper: Vec<_> = r
        .gates()
        .into_iter()
        .filter(|g| g.paper_scale)
        .map(|g| g.name)
        .collect();
    assert_eq!(paper, ["load_speedup >= 10", "estimate_speedup >= 1.5"]);
}

#[test]
fn online_gates_fail_on_their_own_values() {
    let base: OnlineCase = committed();
    let mut r = base.clone();
    r.models_match = false;
    assert_eq!(failed(&r), ["models_match"]);
    let mut r = base;
    r.speedup = 1.0;
    assert_eq!(failed(&r), ["speedup > 1"]);
}

#[test]
fn fitting_gate_fails_when_the_reference_wins_or_is_never_timed() {
    let base: Vec<FitCase> = committed();
    let mut r = base.clone();
    r[1].speedup = Some(0.9);
    assert_eq!(failed(&r), ["fast fit beats the reference"]);
    let mut r = base;
    for case in &mut r {
        case.speedup = None;
    }
    assert_eq!(failed(&r), ["fast fit beats the reference"]);
}

#[test]
fn transfer_gates_fail_on_their_own_values() {
    let base: TransferSummary = committed();

    // A 3x3 matrix: drop the last machine and every cell touching it.
    let mut r = base.clone();
    let gone = r.machines.pop().unwrap().name;
    r.cells.retain(|c| c.train != gone && c.eval != gone);
    assert_eq!(failed(&r), ["full matrix over >= 4 machines"]);

    // A missing off-diagonal cell.
    let mut r = base.clone();
    let off = r.cells.iter().position(|c| !c.diagonal).unwrap();
    r.cells.remove(off);
    assert_eq!(failed(&r), ["full matrix over >= 4 machines"]);

    // A transferred model out-hitting the diagonal, in the data...
    let mut r = base.clone();
    let cell = r.cells.iter_mut().find(|c| !c.diagonal).unwrap();
    cell.raw_hit_rate = 1.5;
    assert_eq!(failed(&r), ["diagonal_hit_rate_dominates"]);
    // ...or only in the recorded verdict.
    let mut r = base.clone();
    r.gates.diagonal_hit_rate_dominates = false;
    assert_eq!(failed(&r), ["diagonal_hit_rate_dominates"]);

    let mut r = base.clone();
    r.offdiag_norm_hit_rate = r.offdiag_raw_hit_rate - 0.01;
    assert_eq!(failed(&r), ["normalized_hit_rate_ge_raw"]);

    let mut r = base;
    r.uptransfer_norm_rel_err = r.uptransfer_raw_rel_err;
    assert_eq!(failed(&r), ["normalized_narrows_uptransfer_err"]);
}
