//! Exact snapshot/restore of the engine state.
//!
//! Snapshots are canonical JSON: every object is built through [`Canon`],
//! which sorts keys (and rejects duplicates) before emission, so equal
//! states serialize to equal bytes regardless of how the vendored
//! `serde_json` happens to order its maps. Every float is stored as its
//! 16-hex-digit IEEE-754 bit pattern — the
//! vendored JSON number is an `f64`, which cannot carry a raw `u64` bit
//! pattern losslessly, and a decimal round-trip would not be provably
//! bit-exact. Day indices ride as decimal strings because the open/closed
//! sentinels (`i64::MIN`/`MAX`) overflow the f64-backed JSON number.
//!
//! The advisory live trailing window is deliberately *not* serialized: it
//! influences no label, record or alert, and restoring it empty keeps
//! snapshots of a resumed run byte-identical to an uninterrupted one.
//! The campaign driver uses [`StreamEngine::events_seen`] (in the
//! snapshot's stats) as the replay-skip cursor when resuming.

use crate::alert::AlertState;
use crate::engine::{DayRecord, EngineConfig, HourLabel, SeriesMeta, StreamEngine};
use crate::CongestionAlert;
use clasp_stats::StreamingElbow;
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Canonical JSON-object builder: pairs are collected, sorted by key and
/// checked for duplicates before emission, so the snapshot's byte layout
/// is sorted *by construction* — not by courtesy of the vendored `Map`'s
/// (current) `BTreeMap` backing.
struct Canon(Vec<(String, Value)>);

impl Canon {
    fn new() -> Self {
        Self(Vec::new())
    }

    fn put(&mut self, key: &str, value: impl Into<Value>) {
        self.0.push((key.to_string(), value.into()));
    }

    fn finish(self) -> Value {
        let mut pairs = self.0;
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate snapshot key"
        );
        let mut m = Map::new();
        for (k, v) in pairs {
            m.insert(k, v);
        }
        Value::Object(m)
    }
}

fn fb(v: f64) -> Value {
    Value::String(format!("{:016x}", v.to_bits()))
}

fn iv(d: i64) -> Value {
    Value::String(d.to_string())
}

fn get<'v>(v: &'v Value, key: &str, what: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("{what}: missing {key:?}"))
}

fn read_fb(v: &Value, what: &str) -> Result<f64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("{what}: not a bit string"))?;
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("{what}: bad bit string {s:?}"))
}

fn read_iv(v: &Value, what: &str) -> Result<i64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| format!("{what}: not a day string"))?;
    s.parse().map_err(|_| format!("{what}: bad day {s:?}"))
}

fn read_u64(v: &Value, what: &str) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("{what}: not an integer"))
}

fn read_u32(v: &Value, what: &str) -> Result<u32, String> {
    Ok(read_u64(v, what)? as u32)
}

fn read_bool(v: &Value, what: &str) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| format!("{what}: not a bool"))
}

fn read_str(v: &Value, what: &str) -> Result<String, String> {
    Ok(v.as_str()
        .ok_or_else(|| format!("{what}: not a string"))?
        .to_string())
}

fn read_array<'v>(v: &'v Value, what: &str) -> Result<&'v Vec<Value>, String> {
    v.as_array().ok_or_else(|| format!("{what}: not an array"))
}

fn encode_day(d: &DayRecord) -> Value {
    Value::Array(vec![
        u64::from(d.series_idx).into(),
        iv(d.local_day),
        fb(d.v),
        fb(d.t_max),
        fb(d.t_min),
        d.n.into(),
    ])
}

fn encode_label(l: &HourLabel) -> Value {
    Value::Array(vec![
        u64::from(l.series_idx).into(),
        l.time.into(),
        u64::from(l.local_hour).into(),
        iv(l.local_day),
        fb(l.value),
        fb(l.v_h),
        l.congested.into(),
    ])
}

fn encode_alert(a: &CongestionAlert) -> Value {
    Value::Array(vec![
        u64::from(a.series_idx).into(),
        a.start.into(),
        a.end.into(),
        fb(a.peak_v_h),
        u64::from(a.events).into(),
        a.open.into(),
    ])
}

/// Encodes an append-only log as an array of [`Value::Shared`]
/// elements, taking over the elements of `prev` (the same log in an
/// earlier snapshot) by reference. `prev` is trusted only when it is no
/// longer than `items` and its last element equals the encoding of the
/// item at the same position; otherwise every element is encoded anew.
fn history<T>(items: &[T], prev: Option<&Vec<Value>>, encode: fn(&T) -> Value) -> Value {
    let reused = prev.filter(|p| match p.last() {
        None => true,
        Some(last) => items
            .get(p.len() - 1)
            .is_some_and(|item| *last == encode(item)),
    });
    let mut out = Vec::with_capacity(items.len());
    if let Some(p) = reused {
        out.extend_from_slice(p);
    }
    let fresh = items.iter().skip(out.len());
    out.extend(fresh.map(|item| Value::Shared(Arc::new(encode(item)))));
    Value::Array(out)
}

impl StreamEngine {
    /// Serializes the complete engine state (minus the advisory live
    /// window) to canonical JSON. `clasp-core` embeds this under the
    /// `"stream"` key of campaign checkpoints.
    pub fn snapshot(&self) -> Value {
        self.snapshot_extending(None)
    }

    /// [`Self::snapshot`], reusing the encoded history of `prev`, an
    /// earlier snapshot of this same engine.
    ///
    /// Day records, labels and alerts only ever grow between snapshots
    /// (until [`Self::finalize`] re-sorts them), and every element is
    /// encoded as its own [`Value::Shared`] subtree. The elements `prev`
    /// already holds are therefore taken over by reference — an `Arc`
    /// bump each — and only the newer ones are encoded, so snapshotting
    /// after every campaign unit costs O(new history) instead of
    /// O(history) per snapshot. The bytes are identical to
    /// [`Self::snapshot`]'s. A log of `prev` is ignored, and encoded
    /// from scratch, when `prev` was taken on the other side of
    /// `finalize`, or when the log's last element differs from this
    /// engine's element at that position. Elements of a `prev` parsed
    /// from text are copied rather than shared.
    pub fn snapshot_extending(&self, prev: Option<&Value>) -> Value {
        let prev =
            prev.filter(|p| p.get("finalized").and_then(Value::as_bool) == Some(self.finalized));
        let prev_log = |key: &str| prev.and_then(|p| p.get(key)).and_then(Value::as_array);
        let mut m = Canon::new();
        m.put("version", 1u64);
        m.put("measurement", self.cfg.measurement.clone());
        m.put("field", self.cfg.field.clone());
        m.put("finalized", self.finalized);
        m.put("current_h", fb(self.current_h));

        let mut stats = Canon::new();
        stats.put("events_seen", self.stats.events_seen);
        stats.put("points_matched", self.stats.points_matched);
        stats.put("days_closed", self.stats.days_closed);
        stats.put("labels_emitted", self.stats.labels_emitted);
        stats.put("out_of_order", self.stats.out_of_order);
        stats.put("duplicates", self.stats.duplicates);
        stats.put("gap_hours", self.stats.gap_hours);
        stats.put("late_dropped", self.stats.late_dropped);
        stats.put("bus_overflow", self.stats.bus_overflow);
        stats.put("window_updates", self.stats.window_updates);
        stats.put("recalibrations", self.stats.recalibrations);
        stats.put("alert_transitions", self.stats.alert_transitions);
        m.put("stats", stats.finish());

        let mut recal = Canon::new();
        recal.put(
            "above",
            Value::Array(self.recal.counts().iter().map(|&c| c.into()).collect()),
        );
        recal.put("total", self.recal.total());
        m.put("recal", recal.finish());

        let series: Vec<Value> = self
            .series
            .iter()
            .zip(&self.states)
            .map(|(meta, st)| {
                let mut s = Canon::new();
                s.put("key", meta.key.clone());
                s.put("server", meta.server.clone());
                s.put("region", meta.region.clone());
                s.put("tier", meta.tier.clone());
                s.put("offset", Value::Number(meta.utc_offset as f64));
                s.put("max_day", iv(st.max_day));
                s.put("closed_through", iv(st.closed_through));
                s.put("last_time", st.last_time.map_or(Value::Null, |t| t.into()));
                s.put(
                    "hour_events",
                    Value::Array(
                        st.hour_events
                            .iter()
                            .map(|&c| u64::from(c).into())
                            .collect(),
                    ),
                );
                s.put(
                    "hour_trials",
                    Value::Array(
                        st.hour_trials
                            .iter()
                            .map(|&c| u64::from(c).into())
                            .collect(),
                    ),
                );
                s.put("days_total", u64::from(st.days_total));
                s.put("days_with_event", u64::from(st.days_with_event));
                s.put("last_label_time", st.last_label_time);
                let mut a = Canon::new();
                a.put("active", st.alert.active);
                a.put("on_streak", u64::from(st.alert.on_streak));
                a.put("off_streak", u64::from(st.alert.off_streak));
                a.put("start", st.alert.start);
                a.put("peak", fb(st.alert.peak));
                a.put("events", u64::from(st.alert.events));
                s.put("alert", a.finish());
                let open: Vec<Value> = st
                    .open
                    .iter()
                    .map(|(&day, w)| {
                        let mut o = Canon::new();
                        o.put("day", iv(day));
                        // Extrema and the out-of-order flag are folds over
                        // the entry sequence; restore re-derives them by
                        // replaying the pushes.
                        o.put(
                            "entries",
                            Value::Array(
                                w.entries
                                    .iter()
                                    .map(|&(t, v)| Value::Array(vec![t.into(), fb(v)]))
                                    .collect(),
                            ),
                        );
                        o.finish()
                    })
                    .collect();
                s.put("open", Value::Array(open));
                s.finish()
            })
            .collect();
        m.put("series", Value::Array(series));

        // The three append-only logs are encoded one shared element at
        // a time, so a later snapshot can reuse every element encoded
        // here instead of re-encoding the whole history.
        m.put(
            "day_records",
            history(&self.day_records, prev_log("day_records"), encode_day),
        );
        m.put(
            "labels",
            history(&self.labels, prev_log("labels"), encode_label),
        );
        m.put(
            "alerts",
            history(&self.alerts, prev_log("alerts"), encode_alert),
        );
        m.finish()
    }

    /// Rebuilds an engine from a [`Self::snapshot`]. `cfg` and `offsets`
    /// must be the ones the snapshotted engine ran with (the snapshot
    /// cross-checks measurement and field and the sweep resolution; the
    /// rest is the caller's contract). The advisory live window restarts
    /// empty.
    pub fn restore(
        cfg: EngineConfig,
        offsets: BTreeMap<String, i32>,
        snap: &Value,
    ) -> Result<Self, String> {
        let version = read_u64(get(snap, "version", "snapshot")?, "version")?;
        if version != 1 {
            return Err(format!("unsupported stream snapshot version {version}"));
        }
        if read_str(get(snap, "measurement", "snapshot")?, "measurement")? != cfg.measurement
            || read_str(get(snap, "field", "snapshot")?, "field")? != cfg.field
        {
            return Err("stream snapshot was taken with a different measurement/field".into());
        }
        let mut engine = Self::new(cfg, offsets);
        engine.finalized = read_bool(get(snap, "finalized", "snapshot")?, "finalized")?;
        engine.current_h = read_fb(get(snap, "current_h", "snapshot")?, "current_h")?;

        let stats = get(snap, "stats", "snapshot")?;
        let su = |k: &str| -> Result<u64, String> { read_u64(get(stats, k, "stats")?, k) };
        engine.stats.events_seen = su("events_seen")?;
        engine.stats.points_matched = su("points_matched")?;
        engine.stats.days_closed = su("days_closed")?;
        engine.stats.labels_emitted = su("labels_emitted")?;
        engine.stats.out_of_order = su("out_of_order")?;
        engine.stats.duplicates = su("duplicates")?;
        engine.stats.gap_hours = su("gap_hours")?;
        engine.stats.late_dropped = su("late_dropped")?;
        engine.stats.bus_overflow = su("bus_overflow")?;
        engine.stats.window_updates = su("window_updates")?;
        engine.stats.recalibrations = su("recalibrations")?;
        engine.stats.alert_transitions = su("alert_transitions")?;

        let recal = get(snap, "recal", "snapshot")?;
        let above: Vec<u64> = read_array(get(recal, "above", "recal")?, "recal.above")?
            .iter()
            .map(|v| read_u64(v, "recal.above"))
            .collect::<Result<_, _>>()?;
        if above.len() != engine.cfg.sweep_steps + 1 {
            return Err(format!(
                "stream snapshot sweep has {} thresholds, config wants {}",
                above.len(),
                engine.cfg.sweep_steps + 1
            ));
        }
        if !above.windows(2).all(|w| w[0] >= w[1]) {
            return Err("stream snapshot sweep counts are not non-increasing".into());
        }
        let total = read_u64(get(recal, "total", "recal")?, "recal.total")?;
        engine.recal = StreamingElbow::from_counts(above, total);

        for s in read_array(get(snap, "series", "snapshot")?, "series")? {
            let key = read_str(get(s, "key", "series")?, "key")?;
            let meta = SeriesMeta {
                key: key.clone(),
                server: read_str(get(s, "server", "series")?, "server")?,
                region: read_str(get(s, "region", "series")?, "region")?,
                tier: read_str(get(s, "tier", "series")?, "tier")?,
                utc_offset: get(s, "offset", "series")?
                    .as_f64()
                    .ok_or("series offset: not a number")? as i32,
            };
            let idx = engine.register_series(meta);
            let st = &mut engine.states[idx];
            st.max_day = read_iv(get(s, "max_day", "series")?, "max_day")?;
            st.last_time = match get(s, "last_time", "series")? {
                Value::Null => None,
                v => Some(read_u64(v, "last_time")?),
            };
            for (slot, v) in st
                .hour_events
                .iter_mut()
                .zip(read_array(get(s, "hour_events", "series")?, "hour_events")?)
            {
                *slot = read_u32(v, "hour_events")?;
            }
            for (slot, v) in st
                .hour_trials
                .iter_mut()
                .zip(read_array(get(s, "hour_trials", "series")?, "hour_trials")?)
            {
                *slot = read_u32(v, "hour_trials")?;
            }
            st.days_total = read_u32(get(s, "days_total", "series")?, "days_total")?;
            st.days_with_event = read_u32(get(s, "days_with_event", "series")?, "days_with_event")?;
            st.last_label_time = read_u64(get(s, "last_label_time", "series")?, "last_label_time")?;
            let a = get(s, "alert", "series")?;
            st.alert = AlertState {
                active: read_bool(get(a, "active", "alert")?, "active")?,
                on_streak: read_u32(get(a, "on_streak", "alert")?, "on_streak")?,
                off_streak: read_u32(get(a, "off_streak", "alert")?, "off_streak")?,
                start: read_u64(get(a, "start", "alert")?, "start")?,
                peak: read_fb(get(a, "peak", "alert")?, "peak")?,
                events: read_u32(get(a, "events", "alert")?, "events")?,
            };
            for o in read_array(get(s, "open", "series")?, "open")? {
                let day = read_iv(get(o, "day", "open window")?, "open day")?;
                for e in read_array(get(o, "entries", "open window")?, "entries")? {
                    let pair = read_array(e, "entry")?;
                    if pair.len() != 2 {
                        return Err("open-window entry is not a [time, value] pair".into());
                    }
                    let t = read_u64(&pair[0], "entry time")?;
                    let v = read_fb(&pair[1], "entry value")?;
                    // Replaying the pushes re-derives the running extrema
                    // and the out-of-order flag bit-exactly.
                    let st = &mut engine.states[idx];
                    let w = st.open.entry(day).or_default();
                    if let Some(&(last, _)) = w.entries.last() {
                        if t < last {
                            w.ooo = true;
                        }
                    }
                    w.t_max = w.t_max.max(v);
                    w.t_min = w.t_min.min(v);
                    w.entries.push((t, v));
                }
            }
            // Set after window replay so `or_default` inserts stay legal.
            engine.states[idx].closed_through =
                read_iv(get(s, "closed_through", "series")?, "closed_through")?;
        }

        for d in read_array(get(snap, "day_records", "snapshot")?, "day_records")? {
            let row = read_array(d, "day record")?;
            if row.len() != 6 {
                return Err("day record is not a 6-tuple".into());
            }
            engine.day_records.push(DayRecord {
                series_idx: read_u32(&row[0], "day series_idx")?,
                local_day: read_iv(&row[1], "day local_day")?,
                v: read_fb(&row[2], "day v")?,
                t_max: read_fb(&row[3], "day t_max")?,
                t_min: read_fb(&row[4], "day t_min")?,
                n: read_u64(&row[5], "day n")? as usize,
            });
        }
        for l in read_array(get(snap, "labels", "snapshot")?, "labels")? {
            let row = read_array(l, "label")?;
            if row.len() != 7 {
                return Err("label is not a 7-tuple".into());
            }
            engine.labels.push(HourLabel {
                series_idx: read_u32(&row[0], "label series_idx")?,
                time: read_u64(&row[1], "label time")?,
                local_hour: read_u64(&row[2], "label local_hour")? as u8,
                local_day: read_iv(&row[3], "label local_day")?,
                value: read_fb(&row[4], "label value")?,
                v_h: read_fb(&row[5], "label v_h")?,
                congested: read_bool(&row[6], "label congested")?,
            });
        }
        for a in read_array(get(snap, "alerts", "snapshot")?, "alerts")? {
            let row = read_array(a, "alert")?;
            if row.len() != 6 {
                return Err("alert is not a 6-tuple".into());
            }
            let series_idx = read_u32(&row[0], "alert series_idx")?;
            let meta = engine
                .series
                .get(series_idx as usize)
                .ok_or("alert references an unknown series")?;
            engine.alerts.push(CongestionAlert {
                series_idx,
                series: meta.key.clone(),
                server: meta.server.clone(),
                start: read_u64(&row[1], "alert start")?,
                end: read_u64(&row[2], "alert end")?,
                peak_v_h: read_fb(&row[3], "alert peak")?,
                events: read_u32(&row[4], "alert events")?,
                open: read_bool(&row[5], "alert open")?,
            });
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ThresholdMode;
    use simnet::time::{HOUR, SECONDS_PER_DAY};
    use tsdb::Point;

    fn point(server: &str, t: u64, down: f64) -> Point {
        Point::new("speedtest", t)
            .tag("region", "us-west1")
            .tag("server", server)
            .tag("tier", "premium")
            .tag("method", "topo")
            .field("download", down)
    }

    fn stream(seed: u64, n_days: u64) -> Vec<Point> {
        let mut pts = Vec::new();
        for day in 0..n_days {
            for h in 0..24u64 {
                // Deterministic pseudo-random walk with occasional dips.
                let x = (seed ^ (day * 31 + h)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                let base = 60.0 + (x % 1000) as f64 / 20.0;
                let v = if (x >> 10).is_multiple_of(11) {
                    base / 6.0
                } else {
                    base
                };
                for server in ["s1", "s2"] {
                    pts.push(point(server, day * SECONDS_PER_DAY + h * HOUR, v));
                }
            }
        }
        pts
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            threshold: ThresholdMode::Auto {
                initial: 0.5,
                min_days: 3,
            },
            ..EngineConfig::paper()
        }
    }

    fn offsets() -> BTreeMap<String, i32> {
        [("s1".to_string(), -5), ("s2".to_string(), 9)].into()
    }

    #[test]
    fn roundtrip_preserves_snapshot_bytes() {
        let mut e = StreamEngine::new(cfg(), offsets());
        for p in stream(7, 5) {
            e.ingest(&p);
        }
        let snap = e.snapshot();
        let back = StreamEngine::restore(cfg(), offsets(), &snap).unwrap();
        assert_eq!(
            serde_json::to_string(&snap),
            serde_json::to_string(&back.snapshot()),
        );
        assert_eq!(back.events_seen(), e.events_seen());
        assert_eq!(back.labels(), e.labels());
        assert_eq!(back.day_records(), e.day_records());
        assert_eq!(back.threshold(), e.threshold());
    }

    #[test]
    fn resumed_engine_finishes_identical_to_uninterrupted() {
        let pts = stream(11, 8);
        let mut full = StreamEngine::new(cfg(), offsets());
        for p in &pts {
            full.ingest(p);
        }

        // Interrupt mid-stream (mid-day, windows open, alerts pending).
        let cut = pts.len() / 2 + 7;
        let mut first = StreamEngine::new(cfg(), offsets());
        for p in &pts[..cut] {
            first.ingest(p);
        }
        let snap = first.snapshot();
        let mut resumed = StreamEngine::restore(cfg(), offsets(), &snap).unwrap();
        assert_eq!(resumed.events_seen(), cut as u64);
        for p in &pts[cut..] {
            resumed.ingest(p);
        }

        full.finalize();
        resumed.finalize();
        assert_eq!(full.labels(), resumed.labels());
        assert_eq!(full.day_records(), resumed.day_records());
        assert_eq!(full.alerts(), resumed.alerts());
        assert_eq!(full.stats(), resumed.stats());
        assert_eq!(
            serde_json::to_string(&full.snapshot()),
            serde_json::to_string(&resumed.snapshot()),
        );
    }

    fn text(v: &Value) -> String {
        serde_json::to_string(v)
    }

    /// Restores from `snap` in process (shared subtrees) and from its
    /// re-parsed text, and checks both re-snapshot to the same bytes.
    fn assert_restores(snap: &Value) {
        let bytes = text(snap);
        let parsed = serde_json::from_str(&bytes).unwrap();
        for source in [snap, &parsed] {
            let back = StreamEngine::restore(cfg(), offsets(), source).unwrap();
            assert_eq!(text(&back.snapshot()), bytes);
        }
    }

    /// A snapshot built from the previous snapshot's prefix is byte-
    /// identical to one encoded from scratch, for any number of feed
    /// steps, across `finalize`, and whether it is restored from the
    /// in-process value or from its text.
    #[test]
    fn extended_snapshots_equal_scratch_snapshots() {
        let pts = stream(5, 9);
        for steps in [1, 2, 3, 7, 40] {
            let mut e = StreamEngine::new(cfg(), offsets());
            let mut prev: Option<Value> = None;
            for chunk in pts.chunks(pts.len().div_ceil(steps)) {
                for p in chunk {
                    e.ingest(p);
                }
                let extended = e.snapshot_extending(prev.as_ref());
                assert_eq!(text(&extended), text(&e.snapshot()), "{steps} steps");
                assert_restores(&extended);
                // Every label is its own shared subtree, and the history
                // is taken over by reference, not re-encoded.
                let labels = |s: &Value| s.get("labels").and_then(Value::as_array).cloned();
                let now = labels(&extended).unwrap();
                assert!(now.iter().all(|l| matches!(l, Value::Shared(_))));
                if let Some(Value::Shared(a)) =
                    prev.as_ref().and_then(labels).unwrap_or_default().first()
                {
                    let Some(Value::Shared(b)) = now.first() else {
                        unreachable!("checked shared above")
                    };
                    assert!(Arc::ptr_eq(a, b), "{steps} steps: label re-encoded");
                }
                prev = Some(extended);
            }
            let before = prev.expect("at least one step");
            e.finalize();
            // Finalize re-sorts the logs series-major, so the pre-finalize
            // label log is no prefix of the final one and must not be
            // reused.
            let after = e.snapshot_extending(Some(&before));
            let labels = |s: &Value| s.get("labels").and_then(Value::as_array).cloned();
            let (old, new) = (labels(&before).unwrap(), labels(&after).unwrap());
            assert_ne!(
                old[..],
                new[..old.len()],
                "{steps} steps: finalize reordered nothing"
            );
            assert_eq!(
                text(&after),
                text(&e.snapshot()),
                "{steps} steps, finalized"
            );
            assert_restores(&after);
            let again = e.snapshot_extending(Some(&after));
            assert_eq!(text(&again), text(&after));
        }
    }

    /// `finalize` re-sorts the label log series-major. A log closed in
    /// the order B, A, C ends on the same label as the sorted A, B, C,
    /// so only the finalized flag tells the stale prefix apart.
    #[test]
    fn pre_finalize_history_is_not_reused() {
        let mut e = StreamEngine::new(
            EngineConfig {
                grace_days: 0,
                ..cfg()
            },
            offsets(),
        );
        let noon = |day: u64| day * SECONDS_PER_DAY + 12 * HOUR;
        for s in ["s1", "s2", "s3"] {
            e.ingest(&point(s, noon(0), 100.0));
        }
        // Day 1 carries no throughput, so finalize closes it without
        // emitting labels: the log only changes order.
        for s in ["s2", "s1", "s3"] {
            e.ingest(&point(s, noon(1), 0.0));
        }
        let before = e.snapshot();
        e.finalize();
        let after = e.snapshot();
        let labels = |s: &Value| s.get("labels").and_then(Value::as_array).cloned().unwrap();
        let (old, new) = (labels(&before), labels(&after));
        assert_eq!(old.len(), 3);
        assert_eq!(old.last(), new.last());
        assert_ne!(old, new);
        assert_eq!(text(&e.snapshot_extending(Some(&before))), text(&after));
    }

    /// The first snapshot after a resume extends nothing in process; one
    /// built on the restored text still comes out byte-identical, and a
    /// snapshot of another engine's history is not taken over.
    #[test]
    fn extending_parsed_or_foreign_snapshots_is_exact() {
        let pts = stream(13, 6);
        let (head, tail) = pts.split_at(pts.len() / 2);
        let mut e = StreamEngine::new(cfg(), offsets());
        for p in head {
            e.ingest(p);
        }
        let parsed = serde_json::from_str(&text(&e.snapshot())).unwrap();
        let mut resumed = StreamEngine::restore(cfg(), offsets(), &parsed).unwrap();
        for p in tail {
            e.ingest(p);
            resumed.ingest(p);
        }
        assert_eq!(
            text(&resumed.snapshot_extending(Some(&parsed))),
            text(&e.snapshot())
        );
        let mut other = StreamEngine::new(cfg(), offsets());
        for p in stream(99, 3) {
            other.ingest(&p);
        }
        assert_eq!(
            text(&e.snapshot_extending(Some(&other.snapshot()))),
            text(&e.snapshot())
        );
    }

    /// Asserts that every object in `v` iterates (and therefore
    /// serializes) its keys in strictly ascending order.
    fn assert_sorted_objects(v: &Value, path: &str) {
        match v {
            Value::Object(m) => {
                let keys: Vec<&String> = m.keys().collect();
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "unsorted keys at {path}: {keys:?}"
                );
                for (k, child) in m.iter() {
                    assert_sorted_objects(child, &format!("{path}.{k}"));
                }
            }
            Value::Array(items) => {
                for (i, child) in items.iter().enumerate() {
                    assert_sorted_objects(child, &format!("{path}[{i}]"));
                }
            }
            _ => {}
        }
    }

    #[test]
    fn snapshot_bytes_are_key_sorted() {
        let mut e = StreamEngine::new(cfg(), offsets());
        for p in stream(3, 4) {
            e.ingest(&p);
        }
        let snap = e.snapshot();
        assert_sorted_objects(&snap, "snapshot");

        // And in the actual bytes: the top-level keys appear in sorted
        // textual positions (`"alerts"` first, `"version"` last).
        let text = serde_json::to_string(&snap);
        let mut last = 0usize;
        for key in [
            "\"alerts\":",
            "\"current_h\":",
            "\"day_records\":",
            "\"field\":",
            "\"finalized\":",
            "\"labels\":",
            "\"measurement\":",
            "\"recal\":",
            "\"series\":",
            "\"stats\":",
            "\"version\":",
        ] {
            let at = text.find(key).unwrap_or_else(|| panic!("missing {key}"));
            assert!(at > last || last == 0, "{key} out of order");
            last = at;
        }
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let e = StreamEngine::new(cfg(), offsets());
        let snap = e.snapshot();
        let mut other = cfg();
        other.field = "upload".into();
        assert!(StreamEngine::restore(other, offsets(), &snap)
            .unwrap_err()
            .contains("different measurement/field"));
        let mut narrow = cfg();
        narrow.sweep_steps = 10;
        assert!(StreamEngine::restore(narrow, offsets(), &snap)
            .unwrap_err()
            .contains("thresholds"));
    }

    #[test]
    fn restore_rejects_garbage() {
        let bad = serde_json::from_str("{}").unwrap();
        assert!(StreamEngine::restore(cfg(), offsets(), &bad).is_err());
        let wrong_version = serde_json::from_str(r#"{"version": 9}"#).unwrap();
        assert!(StreamEngine::restore(cfg(), offsets(), &wrong_version)
            .unwrap_err()
            .contains("version"));
    }
}
