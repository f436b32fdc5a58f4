//! Influx-style line protocol: `measurement,tag=v field=1.5 1620000000`.
//!
//! Used to persist raw campaign results to the storage bucket and read
//! them back in the analysis pipeline. The dialect is a subset of
//! InfluxDB's: numeric fields only, whitespace-free tag values (the writer
//! escapes spaces as `\ `), integer-second timestamps.

use crate::point::{Point, PointRef};
use std::borrow::Cow;
use std::ops::Range;

/// Serialises a point to one protocol line.
///
/// ```
/// let p = tsdb::Point::new("speedtest", 3600)
///     .tag("server", "ookla-1")
///     .field("download", 412.5);
/// let line = tsdb::line::encode(&p);
/// assert_eq!(line, "speedtest,server=ookla-1 download=412.5 3600");
/// assert_eq!(tsdb::line::decode(&line).unwrap(), p);
/// ```
pub fn encode(p: &Point) -> String {
    let mut out = String::new();
    encode_into(p, &mut out);
    out
}

/// [`encode`] appending to a caller-owned buffer — the batch writer's
/// allocation-free steady state.
pub fn encode_into(p: &Point, out: &mut String) {
    use std::fmt::Write;
    escape_into(&p.measurement, out);
    for (k, v) in &p.tags {
        out.push(',');
        escape_into(k, out);
        out.push('=');
        escape_into(v, out);
    }
    out.push(' ');
    let mut first = true;
    for (k, v) in &p.fields {
        if !first {
            out.push(',');
        }
        first = false;
        escape_into(k, out);
        out.push('=');
        float_into(*v, out);
    }
    out.push(' ');
    let _ = write!(out, "{}", p.time); // fmt to String is infallible
}

/// Appends the protocol's float form: the shortest representation that
/// round-trips, with a ".0" marker on integer-valued floats so the value
/// reads back as a float.
pub fn float_into(v: f64, out: &mut String) {
    use std::fmt::Write;
    let mark = out.len();
    let _ = write!(out, "{v}"); // fmt to String is infallible
    let plain = out.get(mark..).is_some_and(|s| {
        !(s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN"))
    });
    if plain {
        out.push_str(".0");
    }
}

/// Appends `s` with the protocol escapes (`\`, space, `,`, `=`).
pub fn escape_into(s: &str, out: &mut String) {
    // Fast path: campaign measurements, tags and field names contain no
    // escapable characters, so the common case is a straight copy.
    if !s.contains(['\\', ' ', ',', '=']) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        if matches!(c, '\\' | ' ' | ',' | '=') {
            out.push('\\');
        }
        out.push(c);
    }
}

/// Removes the protocol escapes, borrowing when `s` has none.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('\\') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            if let Some(n) = chars.next() {
                out.push(n);
            }
        } else {
            out.push(c);
        }
    }
    Cow::Owned(out)
}

/// Errors from parsing a protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Line had fewer than three space-separated sections.
    MissingSection,
    /// A tag or field was not `key=value`.
    BadKeyValue(String),
    /// A field value was not a number.
    BadNumber(String),
    /// A field value parsed to NaN or ±infinity (`NaN`, `inf`, or a
    /// literal such as `1e400` that overflows `f64`). Points carry
    /// finite values only: one non-finite sample would poison every
    /// aggregate over its series.
    NonFinite(String),
    /// The timestamp was not an integer.
    BadTimestamp(String),
    /// The field set was empty.
    NoFields,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingSection => write!(f, "line has fewer than 3 sections"),
            ParseError::BadKeyValue(s) => write!(f, "bad key=value pair: {s}"),
            ParseError::BadNumber(s) => write!(f, "bad numeric value: {s}"),
            ParseError::NonFinite(s) => write!(f, "non-finite numeric value: {s}"),
            ParseError::BadTimestamp(s) => write!(f, "bad timestamp: {s}"),
            ParseError::NoFields => write!(f, "no fields"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Splits on an ASCII separator outside `\`-escape sequences, borrowing
/// every part from the input (escapes are kept; [`unescape`] removes
/// them). Yields at least one part, like `str::split`.
#[derive(Debug, Clone)]
struct SplitEscaped<'a> {
    rest: Option<&'a str>,
    sep: u8,
}

impl<'a> SplitEscaped<'a> {
    fn new(s: &'a str, sep: u8) -> Self {
        Self { rest: Some(s), sep }
    }
}

impl<'a> Iterator for SplitEscaped<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let s = self.rest?;
        let bytes = s.as_bytes();
        let mut i = 0;
        // Separators and `\` are ASCII, so stepping over an escape's
        // second byte can only land inside a multi-byte character, whose
        // continuation bytes never match either.
        while let Some(&b) = bytes.get(i) {
            if b == b'\\' {
                i += 2;
            } else if b == self.sep {
                self.rest = s.get(i + 1..);
                return s.get(..i);
            } else {
                i += 1;
            }
        }
        self.rest = None;
        Some(s)
    }
}

/// Splits one `key=value` pair (escape-aware).
fn key_value(kv: &str) -> Result<(&str, &str), ParseError> {
    let mut pair = SplitEscaped::new(kv, b'=');
    match (pair.next(), pair.next(), pair.next()) {
        (Some(k), Some(v), None) => Ok((k, v)),
        _ => Err(ParseError::BadKeyValue(kv.to_string())),
    }
}

/// Parses a field value, which must be a finite number.
fn parse_field(v: &str) -> Result<f64, ParseError> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        Ok(_) => Err(ParseError::NonFinite(v.to_string())),
        Err(_) => Err(ParseError::BadNumber(v.to_string())),
    }
}

/// Sorts one line's pairs by key, the last of duplicate keys winning —
/// exactly the map a sequence of `BTreeMap::insert`s would leave.
/// Writers emit sorted, unique keys, so the check usually settles it.
fn canonicalize<V>(pairs: &mut Vec<(Cow<'_, str>, V)>) {
    if pairs.windows(2).all(|w| matches!(w, [a, b] if a.0 < b.0)) {
        return;
    }
    pairs.reverse();
    // Stable: after the reversal, the last duplicate leads its run.
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs.dedup_by(|later, kept| later.0 == kept.0);
}

/// One decoded protocol line: ranges into its batch's pair vectors.
#[derive(Debug)]
struct LineRec<'a> {
    measurement: Cow<'a, str>,
    tags: Range<usize>,
    fields: Range<usize>,
    time: u64,
}

/// A decoded protocol object: every line's parts borrowed from the
/// input text (escaped names own their unescaped form), stored in three
/// per-object vectors instead of one [`Point`] per line. Iterating it
/// yields [`PointRef`] views, which [`crate::Db::insert_lines`] indexes
/// without allocating a string per point.
#[derive(Debug, Default)]
pub struct LineBatch<'a> {
    lines: Vec<LineRec<'a>>,
    tags: Vec<(Cow<'a, str>, Cow<'a, str>)>,
    fields: Vec<(Cow<'a, str>, f64)>,
}

impl<'a> LineBatch<'a> {
    /// Number of points (decoded lines).
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when the object held no lines.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The points, in line order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PointRef<'_>> + Clone + '_ {
        self.lines.iter().map(|l| {
            PointRef::from_pairs(
                &l.measurement,
                self.tags.get(l.tags.clone()).unwrap_or_default(),
                self.fields.get(l.fields.clone()).unwrap_or_default(),
                l.time,
            )
        })
    }

    /// Owned copies of the points, in line order.
    pub fn to_points(&self) -> Vec<Point> {
        self.iter().map(|p| p.to_point()).collect()
    }

    /// Parses one non-blank line onto the batch. `tags`/`fields` are
    /// per-object scratch buffers, so a line allocates nothing itself
    /// unless it carries escapes.
    fn push_line(
        &mut self,
        line: &'a str,
        tags: &mut Vec<(Cow<'a, str>, Cow<'a, str>)>,
        fields: &mut Vec<(Cow<'a, str>, f64)>,
    ) -> Result<(), ParseError> {
        let mut sections = SplitEscaped::new(line.trim(), b' ');
        let (Some(head), Some(field_sec), Some(time_sec), None) = (
            sections.next(),
            sections.next(),
            sections.next(),
            sections.next(),
        ) else {
            return Err(ParseError::MissingSection);
        };
        let mut head = SplitEscaped::new(head, b',');
        let measurement = unescape(head.next().unwrap_or_default()); // yields ≥1 part
        tags.clear();
        for kv in head {
            let (k, v) = key_value(kv)?;
            tags.push((unescape(k), unescape(v)));
        }
        fields.clear();
        for kv in SplitEscaped::new(field_sec, b',') {
            let (k, v) = key_value(kv)?;
            fields.push((unescape(k), parse_field(v)?));
        }
        if fields.is_empty() {
            return Err(ParseError::NoFields);
        }
        let time: u64 = time_sec
            .parse()
            .map_err(|_| ParseError::BadTimestamp(time_sec.to_string()))?;
        canonicalize(tags);
        canonicalize(fields);
        let tag_start = self.tags.len();
        self.tags.append(tags);
        let field_start = self.fields.len();
        self.fields.append(fields);
        self.lines.push(LineRec {
            measurement,
            tags: tag_start..self.tags.len(),
            fields: field_start..self.fields.len(),
            time,
        });
        Ok(())
    }
}

/// Decodes a protocol object without building [`Point`]s, skipping
/// blank lines. Malformed input surfaces as the 1-based line number and
/// [`ParseError`] of the first bad line — never a panic (these objects
/// also arrive over the serve socket) — and yields no batch at all, so
/// nothing of a bad object is ingested.
pub fn decode_lines(text: &str) -> Result<LineBatch<'_>, (usize, ParseError)> {
    let mut batch = LineBatch::default();
    let (mut tags, mut fields) = (Vec::new(), Vec::new());
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        batch
            .push_line(line, &mut tags, &mut fields)
            .map_err(|e| (i + 1, e))?;
    }
    Ok(batch)
}

/// Parses one protocol line back into a [`Point`].
pub fn decode(line: &str) -> Result<Point, ParseError> {
    let mut batch = LineBatch::default();
    batch.push_line(line, &mut Vec::new(), &mut Vec::new())?;
    let point = batch.iter().next().map(|p| p.to_point());
    point.ok_or(ParseError::MissingSection) // push_line added exactly one line
}

/// Encodes many points, one per line.
pub fn encode_batch(points: &[Point]) -> String {
    let mut out = String::new();
    for p in points {
        encode_into(p, &mut out);
        out.push('\n');
    }
    out
}

/// Decodes a batch, skipping blank lines; fails on the first bad line.
pub fn decode_batch(text: &str) -> Result<Vec<Point>, ParseError> {
    decode_batch_lines(text).map_err(|(_, e)| e)
}

/// Like [`decode_batch`], but a failure also reports the 1-based line
/// number of the offending line, so ingestion errors can name exactly
/// which record of which object was malformed.
pub fn decode_batch_lines(text: &str) -> Result<Vec<Point>, (usize, ParseError)> {
    decode_lines(text).map(|batch| batch.to_points())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Point {
        Point::new("throughput", 1234)
            .tag("region", "us-west1")
            .tag("server", "s 1") // space to exercise escaping
            .field("mbps", 412.5)
            .field("loss", 0.01)
    }

    #[test]
    fn encode_shape() {
        let line = encode(&sample());
        assert!(line.starts_with("throughput,region=us-west1,server=s\\ 1 "));
        assert!(line.ends_with(" 1234"));
        assert!(line.contains("mbps=412.5"));
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let q = decode(&encode(&p)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn roundtrip_special_characters() {
        let p = Point::new("m,x=y", 7)
            .tag("k=1", "v,2 z")
            .field("f 1", -3.25e-4);
        let q = decode(&encode(&p)).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn integer_valued_field_roundtrips_as_float() {
        let p = Point::new("m", 0).field("n", 100.0);
        let line = encode(&p);
        assert!(line.contains("n=100.0"), "{line}");
        assert_eq!(decode(&line).unwrap().fields["n"], 100.0);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode("nope"), Err(ParseError::MissingSection));
        assert!(matches!(decode("m f=x 0"), Err(ParseError::BadNumber(_))));
        assert!(matches!(
            decode("m f=1 tomorrow"),
            Err(ParseError::BadTimestamp(_))
        ));
        assert!(matches!(
            decode("m,oops f=1 0"),
            Err(ParseError::BadKeyValue(_))
        ));
    }

    #[test]
    fn decode_rejects_non_finite_fields() {
        for v in [
            "NaN", "nan", "inf", "-inf", "+inf", "infinity", "1e400", "-1e400",
        ] {
            let line = format!("speedtest,server=s1 download={v},upload=1.0 3600");
            assert_eq!(
                decode(&line),
                Err(ParseError::NonFinite(v.to_string())),
                "{line}"
            );
            // The escaped path rejects it the same way.
            let escaped = format!("speedtest,server=s\\ 1 download={v} 3600");
            assert_eq!(decode(&escaped), Err(ParseError::NonFinite(v.to_string())));
        }
        // Large but finite values still parse.
        assert_eq!(decode("m f=1e300 0").unwrap().fields["f"], 1e300);
    }

    #[test]
    fn fast_and_escaped_decoders_agree() {
        // Escape-free names are borrowed, escaped ones owned: a line and
        // its twin with a redundant escape on every name must decode to
        // the same point, and fail with the same error kind.
        fn escaped_twin(line: &str) -> String {
            let mut out = String::new();
            let mut name_start = true;
            for c in line.chars() {
                if name_start && c.is_ascii_alphabetic() {
                    out.push('\\');
                }
                name_start = matches!(c, ',' | ' ');
                out.push(c);
            }
            out
        }
        for line in [
            "speedtest,region=us-west1,server=ookla-1 download=412.5,loss=0.01 3600",
            "m f=1 0",
            "m  0",
            "m f=x 0",
            "m f=NaN 0",
            "m f=1e400 0",
            "m f=1 tomorrow",
            "m,oops f=1 0",
            "nope",
        ] {
            let twin = escaped_twin(line);
            assert!(twin.contains('\\'), "{twin}");
            match (decode(line), decode(&twin)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "disagreement on {line:?}"),
                (Err(a), Err(b)) => assert_eq!(
                    std::mem::discriminant(&a),
                    std::mem::discriminant(&b),
                    "disagreement on {line:?}: {a:?} vs {b:?}"
                ),
                (a, b) => panic!("disagreement on {line:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn unescaped_lines_borrow_their_names() {
        // A campaign-written line carries no escapes, so decoding it must
        // copy no string: every name and tag value borrows the object's
        // text. Owned strings here would mean an allocation per point.
        let text = "speedtest,method=topo,region=us-west1,server=ookla-1,tier=premium \
                    dloss=0.001,download=412.5,latency=20.0,uloss=0.0005,upload=95.0 3600\n";
        let batch = decode_lines(text).unwrap();
        let borrowed = |c: &Cow<'_, str>| matches!(c, Cow::Borrowed(_));
        assert_eq!(batch.len(), 1);
        assert!(batch.lines.iter().all(|l| borrowed(&l.measurement)));
        assert_eq!(batch.tags.len(), 4);
        assert!(batch.tags.iter().all(|(k, v)| borrowed(k) && borrowed(v)));
        assert_eq!(batch.fields.len(), 5);
        assert!(batch.fields.iter().all(|(k, _)| borrowed(k)));
        // Only an escaped name owns its unescaped form.
        let batch = decode_lines("m,server=s\\ 1 f=1 0").unwrap();
        assert!(borrowed(&batch.tags[0].0));
        assert!(matches!(&batch.tags[0].1, Cow::Owned(s) if s == "s 1"));
    }

    #[test]
    fn duplicate_keys_resolve_like_a_map() {
        // Unsorted keys come back sorted; the last duplicate wins, as
        // repeated `BTreeMap::insert`s would have it.
        let p = decode("m,b=1,a=2,b=3 y=1,x=2,y=3 0").unwrap();
        let expected = Point::new("m", 0)
            .tag("b", "1")
            .tag("a", "2")
            .tag("b", "3")
            .field("y", 1.0)
            .field("x", 2.0)
            .field("y", 3.0);
        assert_eq!(p, expected);
        assert_eq!(p.series_key(), "m,a=2,b=3");
    }

    #[test]
    fn batch_roundtrip_skips_blanks() {
        let pts = vec![sample(), Point::new("m", 1).field("x", 1.0)];
        let text = format!("\n{}\n\n", encode_batch(&pts));
        let back = decode_batch(&text).unwrap();
        assert_eq!(back, pts);
    }

    #[test]
    fn batch_fails_on_bad_line() {
        assert!(decode_batch("m f=1 0\nbroken\n").is_err());
    }

    #[test]
    fn batch_error_carries_line_number() {
        // Line 3 is the bad one; blank lines still count toward numbering.
        let text = "m f=1 0\n\nbroken\nm f=2 1\n";
        match decode_batch_lines(text) {
            Err((line, ParseError::MissingSection)) => assert_eq!(line, 3),
            other => panic!("expected line-3 failure, got {other:?}"),
        }
        assert_eq!(decode_batch_lines("m f=1 0\n").unwrap().len(), 1);
    }
}
