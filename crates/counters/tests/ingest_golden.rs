//! Golden test for the fault-tolerant ingest on a hostile capture: the
//! full [`IngestReport`] JSON and the bits of every emitted sample are
//! pinned, so any change to row scanning, quarantine order, interval
//! assembly or sample order shows up as a diff.
//!
//! The capture mixes out-of-order and repeated timestamps, an interval
//! block that reappears later in the file, duplicate fixed events, event
//! order changing mid-capture, `-0.0`/`0.0` and negative timestamps, CRLF
//! endings, Unicode whitespace, every quarantine reason, and rows salted
//! by the [`spire_core::fault`] corruptors.
//!
//! To regenerate the golden after an intentional change, run with
//! `SPIRE_UPDATE_GOLDEN=1` and review the diff.

use spire_core::fault::{flip_digit, truncate, FaultRng};
use spire_core::SampleSet;
use spire_counters::{ingest_perf_csv, IngestConfig};

/// The hand-written part of the capture.
const HOSTILE: &str = concat!(
    "# started on Fri Jul  4 10:00:00 2026\r\n",
    "\r\n",
    // t = 3 arrives first.
    "3.000000,3000,,inst_retired.any,1000000,100.00,,\r\n",
    "3.000000,1500,,cpu_clk_unhalted.thread,1000000,100.00,,\r\n",
    "3.000000,30,,evt.a,250000,25.00,,\r\n",
    "3.000000,31,,evt.b,500000,50.00,,\r\n",
    // t = 1 with a duplicated work event (the first one counts) and a
    // duplicated metric row (both become samples).
    "1.000000,1000,,inst_retired.any,1000000,100.00,,\n",
    "1.000000,999,,inst_retired.any,1000000,100.00,,\n",
    "1.000000,500,,cpu_clk_unhalted.thread,1000000,100.00,,\n",
    "1.000000,10,,evt.a,1000000,100.00,,\n",
    "1.000000,11,,evt.b,333300,33.33,,\n",
    "1.000000,12,,evt.a,1000000,100.00,,\n",
    // t = 2 lists its events in another order, scales its work event and
    // introduces a new event.
    "2.000000,21,,evt.b,1000000,100.00,,\n",
    "2.000000,2000,,inst_retired.any,800000,80.00,,\n",
    "2.000000,20,,evt.a,1000000,100.00,,\n",
    "2.000000,22,,evt.c,700000,70.00,,\n",
    "2.000000,1000,,cpu_clk_unhalted.thread,1000000,100.00,,\n",
    // Signed zeros and a negative timestamp are distinct intervals.
    "-0.0,100,,inst_retired.any,1,100,,\n",
    "-0.0,50,,cpu_clk_unhalted.thread,1,100,,\n",
    "-0.0,5,,evt.a,1,100,,\n",
    "0.0,200,,inst_retired.any,1,100,,\n",
    "0.0,100,,cpu_clk_unhalted.thread,1,100,,\n",
    "0.0,6,,evt.a,1,100,,\n",
    "-1.5,300,,inst_retired.any,1,100,,\n",
    "-1.5,150,,cpu_clk_unhalted.thread,1,100,,\n",
    "-1.5,7,,evt.b,1,100,,\n",
    // Unicode and ASCII whitespace around fields and lines.
    "\u{3000}4.0\u{00A0},4000,,\u{2003}inst_retired.any\u{2009},1,100.00,,\u{200A}\r\n",
    "4.0 , 2000 ,, cpu_clk_unhalted.thread ,1, 100.00 ,,\n",
    "\t4.0,40,,evt.\u{e9}t\u{e9},1,\u{00A0}60.00\u{00A0},,\n",
    "4.0,41,,evt.a,1,100\u{0085},,\n",
    // Number spellings the parser accepts.
    "4.0,1e3,,evt.b,1,100,,\n",
    "4.0,+5,,evt.c,1,100,,\n",
    "4.0,007,,evt.d,1,100,,\n",
    "4.0,9007199254740993,,evt.e,1,100,,\n",
    "4.0,12345678901234567890,,evt.f,1,100,,\n",
    "4.0,18446744073709551615,,evt.g,1,100,,\n",
    "4.0,42.,,evt.h,1,.5e2,,\n",
    // A zero time count drops the interval; a missing fixed event too.
    "5.0,100,,inst_retired.any,1,100,,\n",
    "5.0,0,,cpu_clk_unhalted.thread,1,100,,\n",
    "5.0,9,,evt.a,1,100,,\n",
    "6.0,9,,evt.a,1,100,,\n",
    "6.0,-4,,cpu_clk_unhalted.thread,1,100,,\n",
    // Every quarantine reason, the not-counted channel and the
    // running-fraction edge cases, in an interval without fixed events.
    "7.0,<not counted>,,evt.a,0,0.00,,\n",
    "7.0,<not supported>,,evt.z,0,0.00,,\n",
    "7.0, <not counted> ,,evt.b,0,0.00,,\n",
    "7.0,NaN,,evt.a,1,100,,\n",
    "7.0,inf,,evt.b,1,100,,\n",
    "7.0,-3,,evt.c,1,100,,\n",
    "inf,5,,evt.a,1,100,,\n",
    "NaN,5,,evt.b,1,100,,\n",
    "7.0,5,,evt.a,1,2.00,,\n",
    "7.0,5,,evt.a,0,0.00,,\n",
    "7.0,5,,evt.a,1,NaN,,\n",
    "7.0,5,,evt.a,1,250.00,,\n",
    "7.0,5,,evt.a,1,,,\n",
    "7.0,5,,evt.a\n",
    "7.0,5,,evt.a,1,abc,,\n",
    "7.0,5,,evt.a,1,4.99,,\n",
    "7.0,5,,evt.a,1,5.00,,\n",
    "7.0,5,,\u{00A0},1,100,,\n",
    "7.0,5\n",
    "1.0z\u{2003},5,,evt.a,1,100,,\n",
    "7.0,12x,,evt.a,1,100,,\n",
    "7.0,0x10,,evt.a,1,100,,\n",
    "\u{1F980}\u{1F980}\u{1F980} a truncated row whose text runs well past the eighty-character snippet cap \u{1F980}\u{1F980}\n",
    "   \n",
    "# a trailing comment\n",
    // The t = 1 block reappears: its rows join the first block, and the
    // repeated fixed events lose to the first occurrences.
    "1.000000,13,,evt.c,1000000,100.00,,\n",
    "1.000000,2000,,inst_retired.any,1000000,100.00,,\n",
    "1.000000,14,,evt.a,500000,50.00,,\n",
    "1.000000,600,,cpu_clk_unhalted.thread,1000000,100.00,,\n",
);

/// Clean intervals `8..16` that the fault corruptors damage row by row.
fn salted_rows() -> String {
    let mut rng = FaultRng::new(0x005e_ed16);
    let mut out = String::new();
    for t in 8..16u32 {
        let rows = [
            format!("{t}.500000,{},,inst_retired.any,1000000,100.00,,", 4000 + t),
            format!(
                "{t}.500000,{},,cpu_clk_unhalted.thread,1000000,100.00,,",
                2000 + t
            ),
            format!("{t}.500000,{},,evt.a,400000,40.00,,", 70 + t),
            format!("{t}.500000,{},,evt.b,900000,90.00,,", 80 + t),
        ];
        for (i, row) in rows.iter().enumerate() {
            let salted = match (t as usize + i) % 4 {
                0 => flip_digit(row, &mut rng).expect("rows have digits"),
                1 => truncate(row, 0.1 + 0.8 * (rng.index(100) as f64 / 100.0)).to_owned(),
                _ => row.clone(),
            };
            out.push_str(&salted);
            out.push_str(if i % 2 == 0 { "\r\n" } else { "\n" });
        }
    }
    out
}

fn capture() -> String {
    // The salted block ends without a final newline.
    let mut text = format!("{HOSTILE}{}", salted_rows());
    text.truncate(text.trim_end().len());
    text
}

/// One line per sample: metric, then the bits of `T`, `W` and `M_x`.
fn sample_bits(samples: &SampleSet) -> String {
    let mut out = String::new();
    for s in samples.iter() {
        out.push_str(&format!(
            "{} {:016x} {:016x} {:016x}\n",
            s.metric(),
            s.time().to_bits(),
            s.work().to_bits(),
            s.metric_delta().to_bits()
        ));
    }
    out
}

fn render(text: &str) -> String {
    let configs = [
        ("default", IngestConfig::default()),
        (
            "unscaled, floor 0.3, every detail",
            IngestConfig {
                scale_multiplexed: false,
                min_running_frac: 0.3,
                max_quarantine_details: 1000,
                ..IngestConfig::default()
            },
        ),
        (
            "evt.a as work, evt.b as time",
            IngestConfig {
                work_event: "evt.a".to_owned(),
                time_event: "evt.b".to_owned(),
                ..IngestConfig::default()
            },
        ),
    ];
    let mut out = String::new();
    for (name, config) in &configs {
        let ingest = ingest_perf_csv(text, config);
        out.push_str(&format!("== ingest_perf_csv: {name} ==\n"));
        out.push_str(&serde_json::to_string_pretty(&ingest.report).expect("report serializes"));
        out.push_str("\n-- samples --\n");
        out.push_str(&sample_bits(&ingest.samples));
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
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; run with SPIRE_UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn hostile_capture_ingest_is_pinned() {
    assert_golden(&render(&capture()), "hostile_capture.golden.txt");
}
