//! Property tests for the borrowed line-protocol decoder and the
//! batch ingest path built on it.
//!
//! Arbitrary points — names needing escapes, hand-written lines with
//! duplicate and unsorted tags and fields, blank lines — must decode to
//! exactly what the owned `Point` API produces, index into the same
//! database state, and a malformed line anywhere in an object must
//! report the same `(line, ParseError)` and ingest nothing.

use proptest::prelude::*;
use std::collections::BTreeMap;
use tsdb::line::{self, decode_batch_lines, decode_lines, ParseError};
use tsdb::{Db, Point};

/// Names drawn from a small alphabet plus every escapable character, so
/// duplicates and escapes are both common.
const NAME: &str = "[abc ,=\\\\]{1,4}";

/// Short keys for hand-written lines: few enough to collide often.
const KEY: &str = "[abc]{1,2}";

fn finite(rng: &mut TestRng) -> f64 {
    // Mix integer-valued floats (the ".0" marker) with fractional ones.
    if Strategy::sample(&(0u8..4), rng) == 0 {
        Strategy::sample(&(-1000i64..1000), rng) as f64
    } else {
        Strategy::sample(&(-1.0e6..1.0e6f64), rng)
    }
}

fn point(rng: &mut TestRng, measurement: &str) -> Point {
    let mut p = Point::new(measurement, Strategy::sample(&(0u64..u64::MAX), rng));
    for _ in 0..Strategy::sample(&(0usize..4), rng) {
        p = p.tag(Strategy::sample(&NAME, rng), Strategy::sample(&NAME, rng));
    }
    for _ in 0..Strategy::sample(&(1usize..4), rng) {
        p = p.field(Strategy::sample(&NAME, rng), finite(rng));
    }
    p
}

/// One protocol line written by hand: tags and fields in arbitrary
/// order, keys repeating. Returns the line and the point a sequence of
/// builder calls in the same order yields (last duplicate wins).
fn hand_written(rng: &mut TestRng) -> (String, Point) {
    let measurement = Strategy::sample(&NAME, rng);
    let time = Strategy::sample(&(0u64..1_000_000), rng);
    let mut text = String::new();
    line::escape_into(&measurement, &mut text);
    let mut p = Point::new(measurement, time);
    for _ in 0..Strategy::sample(&(0usize..6), rng) {
        let (k, v) = (Strategy::sample(&KEY, rng), Strategy::sample(&NAME, rng));
        text.push(',');
        line::escape_into(&k, &mut text);
        text.push('=');
        line::escape_into(&v, &mut text);
        p = p.tag(k, v);
    }
    text.push(' ');
    for i in 0..Strategy::sample(&(1usize..6), rng) {
        let (k, v) = (Strategy::sample(&KEY, rng), finite(rng));
        if i > 0 {
            text.push(',');
        }
        line::escape_into(&k, &mut text);
        text.push('=');
        line::float_into(v, &mut text);
        p = p.field(k, v);
    }
    text.push_str(&format!(" {time}"));
    (text, p)
}

/// Malformed lines and the error each one must produce.
fn malformed(rng: &mut TestRng) -> (&'static str, ParseError) {
    let cases = [
        ("nope", ParseError::MissingSection),
        ("m f=1 0 extra", ParseError::MissingSection),
        ("m f=x 0", ParseError::BadNumber("x".into())),
        ("m,oops f=1 0", ParseError::BadKeyValue("oops".into())),
        ("m a\\=b f=1 0", ParseError::MissingSection),
        ("m  0", ParseError::BadKeyValue(String::new())),
        ("m f=NaN 0", ParseError::NonFinite("NaN".into())),
        ("m f=1e400 0", ParseError::NonFinite("1e400".into())),
        ("m f=1 later", ParseError::BadTimestamp("later".into())),
        ("m,s=a\\ b f=1,g 0", ParseError::BadKeyValue("g".into())),
    ];
    let (line, err) = &cases[Strategy::sample(&(0..cases.len()), rng)];
    (line, err.clone())
}

/// A generated protocol object.
#[derive(Debug)]
struct Object {
    /// The object's text: encoded and hand-written lines, with blanks.
    text: String,
    /// The points its non-blank lines stand for, in line order.
    points: Vec<Point>,
}

struct Objects;

impl Strategy for Objects {
    type Value = Object;

    fn sample(&self, rng: &mut TestRng) -> Object {
        let measurements = ["speedtest", "m,x", "a b", "c=d\\"];
        let mut text = String::new();
        let mut points = Vec::new();
        for _ in 0..Strategy::sample(&(0usize..12), rng) {
            match Strategy::sample(&(0u8..5), rng) {
                0 => text.push_str(["\n", "  \n", "\t\n"][Strategy::sample(&(0usize..3), rng)]),
                1 => {
                    let (line, p) = hand_written(rng);
                    text.push_str(&line);
                    text.push('\n');
                    points.push(p);
                }
                _ => {
                    let m = measurements[Strategy::sample(&(0..measurements.len()), rng)];
                    let p = point(rng, m);
                    text.push_str(&line::encode_batch(std::slice::from_ref(&p)));
                    points.push(p);
                }
            }
        }
        Object { text, points }
    }
}

/// Key, measurement, tags and samples of one series.
type SeriesContents = (String, String, BTreeMap<String, String>, Vec<tsdb::Sample>);

/// Everything a snapshot says about each series, in series-id order.
fn contents(db: &mut Db) -> Vec<SeriesContents> {
    db.snapshot()
        .series()
        .map(|s| {
            (
                s.key().to_string(),
                s.measurement.clone(),
                s.tags.clone(),
                s.samples().to_vec(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoded_lines_convert_back_to_points(obj in Objects) {
        let batch = decode_lines(&obj.text).expect("well-formed object");
        prop_assert_eq!(batch.len(), obj.points.len());
        prop_assert_eq!(batch.to_points(), obj.points.clone());
        // The owned conversion agrees, and so does each view.
        prop_assert_eq!(decode_batch_lines(&obj.text), Ok(obj.points.clone()));
        for (r, p) in batch.iter().zip(&obj.points) {
            prop_assert!(r.tags().eq(p.view().tags()));
            prop_assert!(r.fields().eq(p.view().fields()));
            let mut key = String::new();
            r.series_key_into(&mut key);
            prop_assert_eq!(key.as_str(), p.series_key());
        }
    }

    #[test]
    fn batch_ingest_matches_point_ingest(obj in Objects) {
        let batch = decode_lines(&obj.text).expect("well-formed object");
        let mut lines_db = Db::new();
        lines_db.insert_lines(&batch);
        let mut points_db = Db::new();
        points_db.insert_batch(obj.points.clone());
        prop_assert_eq!(lines_db.points_written, points_db.points_written);
        prop_assert_eq!(lines_db.stats, points_db.stats);
        for p in &obj.points {
            prop_assert_eq!(
                lines_db.series_id(&p.measurement, &p.tags),
                points_db.series_id(&p.measurement, &p.tags)
            );
            prop_assert!(lines_db.series_id(&p.measurement, &p.tags).is_some());
        }
        prop_assert_eq!(contents(&mut lines_db), contents(&mut points_db));
    }

    #[test]
    fn malformed_line_reports_its_position_and_ingests_nothing(
        obj in Objects,
        pos in 0usize..16,
        bad in 0u64..u64::MAX
    ) {
        let mut rng = TestRng::for_case("malformed", bad);
        let (bad_line, err) = malformed(&mut rng);
        let mut lines: Vec<&str> = obj.text.lines().collect();
        let at = pos.min(lines.len());
        lines.insert(at, bad_line);
        let text = lines.join("\n");
        let expected = Err((at + 1, err));
        let mut db = Db::new();
        let decoded = decode_lines(&text);
        if let Ok(batch) = &decoded {
            db.insert_lines(batch);
        }
        prop_assert_eq!(decoded.map(|b| b.len()), expected.clone());
        prop_assert_eq!(decode_batch_lines(&text).map(|p| p.len()), expected);
        prop_assert_eq!(db.points_written, 0);
        prop_assert_eq!(db.series_count(), 0);
    }
}
