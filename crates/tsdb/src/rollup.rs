//! Continuous-query-style rollups and retention.
//!
//! InfluxDB deployments like CLASP's keep raw points briefly and persist
//! downsampled rollups (daily min/max/mean per series) under a longer
//! retention policy — the daily peak-to-trough variability `V(s,d)` is
//! exactly a min/max rollup. This module provides both halves:
//! [`rollup`] materialises windowed aggregates into a new measurement,
//! and [`enforce_retention`] drops raw samples older than a horizon.

use crate::db::Db;
use crate::point::Point;
use crate::query::Aggregate;

/// Which aggregates a rollup materialises for one source field.
#[derive(Debug, Clone)]
pub struct RollupSpec {
    /// Source field, e.g. `download`.
    pub field: String,
    /// Window length in seconds (86 400 for daily).
    pub window: u64,
    /// Aggregates to compute; each becomes `"<field>_<suffix>"`.
    pub aggregates: Vec<(Aggregate, &'static str)>,
}

impl RollupSpec {
    /// The daily min/max/mean rollup the congestion analysis consumes.
    pub fn daily(field: impl Into<String>) -> Self {
        Self {
            field: field.into(),
            window: 86_400,
            aggregates: vec![
                (Aggregate::Min, "min"),
                (Aggregate::Max, "max"),
                (Aggregate::Mean, "mean"),
                (Aggregate::Count, "count"),
            ],
        }
    }
}

/// Materialises `spec` over every series of `measurement` into
/// `<measurement>_<window>s`, preserving the tag set. Returns the number
/// of rollup points written.
pub fn rollup(db: &mut Db, measurement: &str, spec: &RollupSpec) -> u64 {
    // Collect per-series windows first (the borrow of matching_series
    // must end before we insert).
    struct SeriesWindows {
        tags: std::collections::BTreeMap<String, String>,
        // window start → field suffix → value
        windows: std::collections::BTreeMap<u64, Vec<(String, f64)>>,
    }
    let mut collected: Vec<SeriesWindows> = Vec::new();
    for series in db.matching_series(measurement, &[]) {
        let tags = series.tags.clone();
        let mut per_window: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for (t, fields) in series.samples() {
            if let Some(v) = fields.get(&spec.field) {
                per_window
                    .entry(t / spec.window * spec.window)
                    .or_default()
                    .push(*v);
            }
        }
        let mut windows = std::collections::BTreeMap::new();
        for (start, mut values) in per_window {
            let mut outs = Vec::new();
            for (agg, suffix) in &spec.aggregates {
                // A non-finite aggregate (a window holding NaN) is left
                // out: stored points carry finite values only.
                if let Some(v) = apply(agg, &mut values).filter(|v| v.is_finite()) {
                    outs.push((format!("{}_{}", spec.field, suffix), v));
                }
            }
            windows.insert(start, outs);
        }
        collected.push(SeriesWindows { tags, windows });
    }

    let target = format!("{}_{}s", measurement, spec.window);
    let mut written = 0;
    for sw in collected {
        for (start, fields) in sw.windows {
            let mut p = Point::new(target.clone(), start);
            for (k, v) in sw.tags.iter() {
                p = p.tag(k.clone(), v.clone());
            }
            for (k, v) in fields {
                p = p.field(k, v);
            }
            if !p.fields.is_empty() {
                db.insert(p);
                written += 1;
            }
        }
    }
    written
}

/// One aggregate over a window's values. Percentiles sort with
/// `f64::total_cmp`, so a NaN stored in the series (decoders and
/// `Point::from_parts` do not re-check finiteness) sorts last instead of
/// panicking mid-sort.
fn apply(agg: &Aggregate, values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    match agg {
        Aggregate::Min => Some(values.iter().copied().fold(f64::INFINITY, f64::min)),
        Aggregate::Max => Some(values.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
        Aggregate::Mean => Some(values.iter().sum::<f64>() / values.len() as f64),
        Aggregate::Count => Some(values.len() as f64),
        Aggregate::Sum => Some(values.iter().sum()),
        Aggregate::Last => values.last().copied(),
        Aggregate::Percentile(p) => {
            values.sort_by(f64::total_cmp);
            let pos = (p / 100.0).clamp(0.0, 1.0) * (values.len() - 1) as f64;
            let lo = values.get(pos.floor() as usize)?;
            let hi = values.get(pos.ceil() as usize)?;
            Some(lo + (hi - lo) * (pos - pos.floor()))
        }
    }
}

/// Drops samples of `measurement` older than `horizon` (seconds).
/// Returns how many samples were dropped.
pub fn enforce_retention(db: &mut Db, measurement: &str, horizon: u64) -> u64 {
    let mut dropped = 0;
    for series in db.matching_series(measurement, &[]) {
        dropped += series.drop_before(horizon);
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;

    fn seeded_db() -> Db {
        let mut db = Db::new();
        for server in ["a", "b"] {
            for h in 0..48u64 {
                let v = if server == "a" && h % 24 == 20 {
                    50.0
                } else {
                    400.0 + h as f64
                };
                db.insert(
                    Point::new("speedtest", h * 3600)
                        .tag("server", server)
                        .field("download", v)
                        .field("latency", 20.0),
                );
            }
        }
        db
    }

    #[test]
    fn daily_rollup_materialises_min_max() {
        let mut db = seeded_db();
        let written = rollup(&mut db, "speedtest", &RollupSpec::daily("download"));
        // 2 servers × 2 days.
        assert_eq!(written, 4);
        let res = Query::select("speedtest_86400s", "download_min")
            .r#where("server", "a")
            .aggregate(Aggregate::Min)
            .run(&mut db);
        assert_eq!(res[0].rows[0].value, 50.0);
        let res = Query::select("speedtest_86400s", "download_count")
            .r#where("server", "b")
            .group_by_time(86_400)
            .aggregate(Aggregate::Last)
            .run(&mut db);
        assert!(res[0].rows.iter().all(|r| r.value == 24.0));
    }

    #[test]
    fn rollup_preserves_tags() {
        let mut db = seeded_db();
        rollup(&mut db, "speedtest", &RollupSpec::daily("download"));
        let servers = db.tag_values("speedtest_86400s", "server");
        assert_eq!(servers, vec!["a", "b"]);
    }

    #[test]
    fn variability_from_rollup_matches_direct() {
        let mut db = seeded_db();
        rollup(&mut db, "speedtest", &RollupSpec::daily("download"));
        // V(s,d) for server a, day 0: (max−min)/max with min 50.
        let min = Query::select("speedtest_86400s", "download_min")
            .r#where("server", "a")
            .time_range(0, 86_400)
            .aggregate(Aggregate::Last)
            .run(&mut db)[0]
            .rows[0]
            .value;
        let max = Query::select("speedtest_86400s", "download_max")
            .r#where("server", "a")
            .time_range(0, 86_400)
            .aggregate(Aggregate::Last)
            .run(&mut db)[0]
            .rows[0]
            .value;
        let v = (max - min) / max;
        assert!((v - (423.0 - 50.0) / 423.0).abs() < 1e-9, "V = {v}");
    }

    #[test]
    fn rollup_over_a_nan_sample_does_not_panic() {
        // NaN reaches a series through `Point::from_parts`, which skips
        // the builder's finite check.
        let mut db = Db::new();
        for (t, v) in [(0, 3.0), (3600, f64::NAN), (7200, 1.0), (10_800, 2.0)] {
            let fields = [("download".to_string(), v)].into();
            let tags = [("server".to_string(), "a".to_string())].into();
            db.insert(Point::from_parts("speedtest".into(), tags, fields, t));
        }
        let mut spec = RollupSpec::daily("download");
        spec.aggregates.push((Aggregate::Percentile(50.0), "p50"));
        spec.aggregates.push((Aggregate::Percentile(100.0), "p100"));
        assert_eq!(rollup(&mut db, "speedtest", &spec), 1);
        let read = |db: &mut Db, field: &str| {
            Query::select("speedtest_86400s", field)
                .aggregate(Aggregate::Last)
                .run(db)
                .first()
                .and_then(|r| r.rows.first())
                .map(|r| r.value)
        };
        // NaN sorts last under total_cmp: p50 of [1, 2, 3, NaN] is 2.5.
        assert_eq!(read(&mut db, "download_p50"), Some(2.5));
        // Min/max skip the NaN; the count includes it.
        assert_eq!(read(&mut db, "download_min"), Some(1.0));
        assert_eq!(read(&mut db, "download_max"), Some(3.0));
        assert_eq!(read(&mut db, "download_count"), Some(4.0));
        // Aggregates the NaN poisons are left out rather than stored.
        assert_eq!(read(&mut db, "download_mean"), None);
        assert_eq!(read(&mut db, "download_p100"), None);
    }

    #[test]
    fn percentile_ties_at_signed_zero_are_order_free() {
        // total_cmp orders -0.0 before +0.0 where partial_cmp ties them;
        // the interpolated percentile is the same value either way.
        for p in [0.0, 25.0, 50.0, 75.0, 100.0] {
            let mut a = [0.0, -0.0, 1.0, -0.0];
            let mut b = [-0.0, 0.0, -0.0, 1.0];
            let (x, y) = (
                apply(&Aggregate::Percentile(p), &mut a).unwrap(),
                apply(&Aggregate::Percentile(p), &mut b).unwrap(),
            );
            assert_eq!(x.to_bits(), y.to_bits(), "p{p}");
        }
    }

    #[test]
    fn missing_field_writes_nothing() {
        let mut db = seeded_db();
        let written = rollup(&mut db, "speedtest", &RollupSpec::daily("nonexistent"));
        assert_eq!(written, 0);
    }

    #[test]
    fn retention_drops_old_samples() {
        let mut db = seeded_db();
        let dropped = enforce_retention(&mut db, "speedtest", 24 * 3600);
        // First 24 hours of both servers dropped.
        assert_eq!(dropped, 48);
        let res = Query::select("speedtest", "download")
            .r#where("server", "a")
            .aggregate(Aggregate::Count)
            .run(&mut db);
        assert_eq!(res[0].rows[0].value, 24.0);
    }

    #[test]
    fn retention_then_rollup_pipeline() {
        // The CLASP pattern: roll up daily, then drop raw older than the
        // horizon; the rollups survive.
        let mut db = seeded_db();
        rollup(&mut db, "speedtest", &RollupSpec::daily("download"));
        enforce_retention(&mut db, "speedtest", 48 * 3600);
        let rolled = Query::select("speedtest_86400s", "download_max")
            .aggregate(Aggregate::Count)
            .run(&mut db);
        assert_eq!(rolled.len(), 2, "rollups retained");
    }
}
