//! Storage: series-indexed, time-ordered point store, with an optional
//! bounded tail for streaming consumers.

use crate::line::LineBatch;
use crate::point::{Fields, Point, PointRef};
use crate::snapshot::{SeriesSnap, Snapshot};
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, Weak};

/// A stored sample inside one series: `(time, fields)`.
pub type Sample = (u64, FieldSet);

/// Interned, sorted field names shared by every sample of one schema.
pub type FieldNames = Arc<[String]>;

/// The field values of one stored sample, in schema (sorted-name) order.
///
/// Samples of one series almost always share a single field-name set, so
/// the store keeps one interned [`FieldNames`] per schema and each sample
/// holds only an `Arc` to it plus its values — ~80 bytes instead of the
/// ~1 KB a per-sample `BTreeMap<String, f64>` costs. At campaign scale
/// (~1.7 M points) that is the difference between fitting in cache-warm
/// memory and a gigabyte of page faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSet {
    names: FieldNames,
    values: Box<[f64]>,
}

impl FieldSet {
    /// Builds a field set from a point's name-ordered fields, reusing an
    /// interned schema from `schemas` when the name set matches (the
    /// common case is a single schema per series, matched on the first
    /// probe). Names are copied only when a new schema is interned.
    fn from_fields(fields: Fields<'_>, schemas: &mut Vec<FieldNames>) -> Self {
        let names = fields.clone().map(|(k, _)| k);
        let names = match schemas
            .iter()
            .find(|s| s.len() == fields.len() && s.iter().map(String::as_str).eq(names.clone()))
        {
            Some(s) => Arc::clone(s),
            None => {
                let s: FieldNames = names.map(str::to_string).collect();
                schemas.push(Arc::clone(&s));
                s
            }
        };
        FieldSet {
            names,
            values: fields.map(|(_, v)| v).collect(),
        }
    }

    /// Looks a field up by name.
    pub fn get(&self, name: &str) -> Option<&f64> {
        // Names are sorted, so binary search; sets are tiny (≤ ~8).
        self.names
            .binary_search_by(|n| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.values[i])
    }

    /// Iterates `(name, value)` in sorted-name order — the same order a
    /// `BTreeMap` of the fields would yield.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.values.iter().copied())
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the sample has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The fields as an owned map (for callers that need `Point`-shaped
    /// data back, e.g. replaying stored samples as inserts).
    pub fn to_map(&self) -> BTreeMap<String, f64> {
        self.iter().map(|(k, v)| (k.to_string(), v)).collect()
    }
}

/// Stable identifier of one series within a [`Db`]: the index of the
/// series in first-insertion order. Interning series keys down to ids
/// keeps the hot ingest path free of per-point `String` allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub u32);

/// One series: the shared tag set plus its time-ordered samples.
#[derive(Debug, Clone)]
pub struct Series {
    /// Measurement name.
    pub measurement: String,
    /// The series' tag set.
    pub tags: BTreeMap<String, String>,
    /// Interned canonical series key (built once, at registration).
    key: String,
    /// Time-ordered samples. Out-of-order inserts are re-sorted lazily.
    samples: Vec<Sample>,
    /// Interned field-name schemas seen in this series (normally one).
    schemas: Vec<FieldNames>,
    sorted: bool,
    /// Frozen copy of this series from the last [`Db::snapshot`],
    /// invalidated by any mutation. Its presence doubles as the
    /// per-series "unchanged" bit, so an idle series costs nothing at
    /// the next snapshot (the Arc is reused wholesale).
    snap: Option<Arc<SeriesSnap>>,
}

impl Series {
    fn new(measurement: String, tags: BTreeMap<String, String>, key: String) -> Self {
        Self {
            measurement,
            tags,
            key,
            samples: Vec::new(),
            schemas: Vec::new(),
            sorted: true,
            snap: None,
        }
    }

    /// The canonical series key (`measurement,tag1=v1,...`), interned
    /// when the series was first seen.
    pub fn key(&self) -> &str {
        &self.key
    }

    fn push(&mut self, time: u64, fields: Fields<'_>) {
        if let Some((last, _)) = self.samples.last() {
            if time < *last {
                self.sorted = false;
            }
        }
        self.samples
            .push((time, FieldSet::from_fields(fields, &mut self.schemas)));
        self.snap = None;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by_key(|(t, _)| *t);
            self.sorted = true;
        }
    }

    /// Time-ordered view of the samples.
    pub fn samples(&mut self) -> &[Sample] {
        self.ensure_sorted();
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Drops samples with `time < horizon`; returns how many were
    /// removed (used by retention enforcement).
    pub fn drop_before(&mut self, horizon: u64) -> u64 {
        self.ensure_sorted();
        let cut = self.samples.partition_point(|(t, _)| *t < horizon);
        self.samples.drain(..cut);
        if cut > 0 {
            self.snap = None;
        }
        cut as u64
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Hashes a (measurement, sorted tags) pair without materialising the
/// canonical key string. `DefaultHasher::new()` is deterministic (fixed
/// keys), so the same series always lands in the same index bucket.
fn key_hash<'t>(measurement: &str, tags: impl Iterator<Item = (&'t str, &'t str)>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    measurement.hash(&mut h);
    for (k, v) in tags {
        k.hash(&mut h);
        v.hash(&mut h);
    }
    h.finish()
}

/// A tag map as the borrowed pairs [`key_hash`] and series lookup take.
fn tag_pairs(
    tags: &BTreeMap<String, String>,
) -> impl ExactSizeIterator<Item = (&str, &str)> + Clone {
    tags.iter().map(|(k, v)| (k.as_str(), v.as_str()))
}

/// Ingest-side observability counters for a [`Db`].
///
/// Plain data, updated under locks the hot paths already hold, so
/// scraping them costs nothing. All values are deterministic functions
/// of the insert/publish call sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Calls to [`Db::insert_batch`] and [`Db::insert_lines`].
    pub insert_batches: u64,
    /// Points mirrored into tail buffers (excludes overflow).
    pub points_published: u64,
    /// Deepest any tail buffer has been at publish time.
    pub tail_peak_depth: u64,
    /// Points lost to backpressure across all tails.
    pub tail_overflow: u64,
    /// Tails handed out by [`Db::subscribe`].
    pub tails_opened: u64,
    /// Tails pruned from the publish list (dropped or closed).
    pub tails_closed: u64,
}

/// Shared state of one tail subscription: a bounded FIFO of inserted
/// points plus an overflow tally.
#[derive(Debug)]
struct TailShared {
    buf: VecDeque<Point>,
    capacity: usize,
    overflow: u64,
    /// Set when the subscriber goes away ([`Tail::close`] or last
    /// handle dropped); the publisher prunes closed tails eagerly.
    closed: bool,
    /// Live [`Tail`] handles sharing this subscription. Tracked
    /// explicitly (not via `Arc::strong_count`) because the publisher
    /// holds a temporary strong reference while it mirrors a point: a
    /// strong-count check in `Drop` would race with publish and skip
    /// the close, leaving a zombie subscription that counts phantom
    /// overflow forever.
    handles: usize,
}

/// A bounded subscription to a [`Db`]'s insert stream.
///
/// Every point inserted after [`Db::subscribe`] is appended to the
/// tail's buffer. The buffer is *bounded*: when the consumer falls more
/// than `capacity` points behind, further inserts are counted in
/// [`Tail::overflow`] instead of buffered — the publisher never blocks
/// and never reorders, so an overflowing consumer sees a gap, knows its
/// exact size, and can fall back to a batch rescan. Dropping the tail
/// unsubscribes it.
#[derive(Debug)]
pub struct Tail {
    shared: Arc<Mutex<TailShared>>,
}

impl Clone for Tail {
    fn clone(&self) -> Self {
        self.shared.lock().expect("tail lock").handles += 1;
        Tail {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Tail {
    /// Pops the oldest buffered point, if any.
    pub fn try_recv(&self) -> Option<Point> {
        self.shared.lock().expect("tail lock").buf.pop_front()
    }

    /// Drains every buffered point into `f`, in insert order; returns
    /// how many were delivered.
    pub fn drain(&self, mut f: impl FnMut(Point)) -> u64 {
        let mut n = 0;
        // Take the whole buffer in one lock so `f` runs unlocked.
        let batch = {
            let mut shared = self.shared.lock().expect("tail lock");
            std::mem::take(&mut shared.buf)
        };
        for p in batch {
            f(p);
            n += 1;
        }
        n
    }

    /// Points currently buffered.
    pub fn len(&self) -> usize {
        self.shared.lock().expect("tail lock").buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points lost to backpressure (inserted while the buffer was full).
    pub fn overflow(&self) -> u64 {
        self.shared.lock().expect("tail lock").overflow
    }

    /// Unsubscribes now: the buffer is cleared and the publisher prunes
    /// this tail on its next publish instead of feeding a buffer nobody
    /// will drain. Dropping the last handle does the same implicitly.
    pub fn close(&self) {
        let mut shared = self.shared.lock().expect("tail lock");
        shared.closed = true;
        shared.buf.clear();
    }
}

impl Drop for Tail {
    fn drop(&mut self) {
        // Only the last handle closes the subscription; clones share
        // it. The handle count lives under the subscription lock, so a
        // drop racing a publish serializes: either the publisher sees
        // `closed` and prunes without counting, or it finished its
        // offer before the subscriber went away — never a phantom
        // overflow against a dead tail.
        let Ok(mut shared) = self.shared.lock() else {
            return;
        };
        shared.handles -= 1;
        if shared.handles == 0 {
            shared.closed = true;
            shared.buf.clear();
        }
    }
}

/// The database: an in-memory, single-writer time-series store.
#[derive(Debug, Default)]
pub struct Db {
    series: Vec<Series>,
    /// Key-hash → candidate series ids (collisions resolved by exact
    /// measurement + tag comparison). Lookups never build a key string.
    index: HashMap<u64, Vec<u32>>,
    /// Live tail subscriptions; dead ones are pruned on insert.
    tails: Vec<Weak<Mutex<TailShared>>>,
    /// Points accepted in total.
    pub points_written: u64,
    /// Ingest/publish counters (see [`DbStats`]).
    pub stats: DbStats,
    /// Publish epoch of the last *changed* snapshot (see
    /// [`Db::snapshot`]).
    generation: u64,
    /// The last snapshot taken, returned again while the database is
    /// unchanged so repeated publishes of an idle store are free.
    last_snapshot: Option<Snapshot>,
}

impl Db {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribes a bounded tail to the insert stream: every subsequent
    /// [`Db::insert`] is mirrored into the returned [`Tail`] until it
    /// holds `capacity` undrained points, after which new points are
    /// counted as overflow rather than buffered.
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn subscribe(&mut self, capacity: usize) -> Tail {
        assert!(capacity > 0, "tail capacity must be positive");
        let shared = Arc::new(Mutex::new(TailShared {
            buf: VecDeque::new(),
            capacity,
            overflow: 0,
            closed: false,
            handles: 1,
        }));
        self.tails.push(Arc::downgrade(&shared));
        self.stats.tails_opened += 1;
        Tail { shared }
    }

    /// Mirrors inserted points to the live tails, acquiring each
    /// subscriber's lock once per call rather than once per point — the
    /// per-point order every tail observes is unchanged. Tails own their
    /// points, so each buffered point is copied out of its view.
    ///
    /// A subscriber whose buffer is already full costs O(1) for the
    /// whole call (one bulk overflow add) instead of a per-point
    /// offer/overflow walk, so a stalled consumer cannot drag ingest
    /// down to per-point work.
    fn publish<'p>(&mut self, points: impl ExactSizeIterator<Item = PointRef<'p>> + Clone) {
        let n = points.len();
        if self.tails.is_empty() || n == 0 {
            return;
        }
        let stats = &mut self.stats;
        self.tails.retain(|weak| {
            let Some(shared) = weak.upgrade() else {
                stats.tails_closed += 1;
                return false;
            };
            let mut shared = shared.lock().expect("tail lock");
            if shared.closed {
                stats.tails_closed += 1;
                return false;
            }
            let free = shared.capacity.saturating_sub(shared.buf.len());
            let take = free.min(n);
            shared
                .buf
                .extend(points.clone().take(take).map(|p| p.to_point()));
            let spill = (n - take) as u64;
            shared.overflow += spill;
            stats.tail_overflow += spill;
            stats.points_published += take as u64;
            stats.tail_peak_depth = stats.tail_peak_depth.max(shared.buf.len() as u64);
            true
        });
    }

    /// Finds the series of `measurement` with exactly the sorted `tags`
    /// among the candidates of hash `h`, comparing in place.
    fn find<'t>(
        &self,
        h: u64,
        measurement: &str,
        tags: impl ExactSizeIterator<Item = (&'t str, &'t str)> + Clone,
    ) -> Option<SeriesId> {
        self.index.get(&h)?.iter().copied().find_map(|i| {
            let s = self.series.get(i as usize)?;
            if s.measurement != measurement {
                return None;
            }
            let same_tags = s.tags.len() == tags.len()
                && tag_pairs(&s.tags).zip(tags.clone()).all(|(a, b)| a == b);
            same_tags.then_some(SeriesId(i))
        })
    }

    /// Resolves (or registers) the series a point belongs to. A hit
    /// allocates nothing — the borrowed parts are hashed and compared in
    /// place; a miss copies the measurement and tags and interns the
    /// canonical key once for the lifetime of the series.
    fn series_id_or_create(&mut self, p: &PointRef<'_>) -> SeriesId {
        let h = key_hash(p.measurement(), p.tags());
        if let Some(id) = self.find(h, p.measurement(), p.tags()) {
            return id;
        }
        let i = u32::try_from(self.series.len()).expect("series count fits u32");
        let mut key = String::new();
        p.series_key_into(&mut key);
        self.series.push(Series::new(
            p.measurement().to_string(),
            p.tags()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            key,
        ));
        self.index.entry(h).or_default().push(i);
        SeriesId(i)
    }

    /// Looks up the id of an existing series.
    pub fn series_id(
        &self,
        measurement: &str,
        tags: &BTreeMap<String, String>,
    ) -> Option<SeriesId> {
        self.find(
            key_hash(measurement, tag_pairs(tags)),
            measurement,
            tag_pairs(tags),
        )
    }

    /// The one ingest core: mirrors `points` to the tails, then routes
    /// each to its series and appends its sample.
    fn ingest<'p>(&mut self, points: impl ExactSizeIterator<Item = PointRef<'p>> + Clone) {
        self.publish(points.clone());
        for p in points {
            let id = self.series_id_or_create(&p);
            if let Some(s) = self.series.get_mut(id.0 as usize) {
                s.push(p.time(), p.fields());
            }
            self.points_written += 1;
        }
    }

    /// Inserts one point, routing it to its series.
    pub fn insert(&mut self, p: Point) {
        self.ingest(std::iter::once(p.view()));
    }

    /// Inserts many points. Tail subscribers are locked once for the
    /// whole batch, so batched flushes don't serialize on subscriber
    /// locks point by point.
    pub fn insert_batch(&mut self, points: impl IntoIterator<Item = Point>) {
        self.stats.insert_batches += 1;
        let points: Vec<Point> = points.into_iter().collect();
        self.ingest(points.iter().map(Point::view));
    }

    /// Inserts a decoded protocol object straight from its borrowed
    /// lines — the campaign's ingest path. Same result as
    /// `insert_batch(batch.to_points())`, but a point whose series
    /// exists costs no string allocation.
    pub fn insert_lines(&mut self, batch: &LineBatch<'_>) {
        self.stats.insert_batches += 1;
        self.ingest(batch.iter());
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Freezes the current contents into an immutable, cheaply-clonable
    /// [`Snapshot`] for lock-free concurrent reads.
    ///
    /// Generations are content-addressed per [`Db`]: a changed database
    /// yields a new snapshot with `generation + 1`; an unchanged one
    /// returns the previous snapshot (same generation, same storage).
    /// Series untouched since the last snapshot share their frozen
    /// storage across generations, so the cost of a snapshot tracks the
    /// freshly-ingested data, not the store size.
    ///
    /// Needs `&mut self` only to finalize lazy sorts and maintain the
    /// per-series caches; the returned value is pure read-side state.
    pub fn snapshot(&mut self) -> Snapshot {
        let unchanged = self
            .last_snapshot
            .as_ref()
            .is_some_and(|s| s.series_count() == self.series.len())
            && self.series.iter().all(|s| s.snap.is_some());
        if unchanged {
            return self.last_snapshot.clone().expect("checked above");
        }
        let mut frozen = Vec::with_capacity(self.series.len());
        let mut points = 0u64;
        for s in &mut self.series {
            s.ensure_sorted();
            points += s.samples.len() as u64;
            let snap = s.snap.get_or_insert_with(|| {
                Arc::new(SeriesSnap::new(
                    s.measurement.clone(),
                    s.tags.clone(),
                    s.key.clone(),
                    s.samples.clone(),
                ))
            });
            frozen.push(Arc::clone(snap));
        }
        self.generation += 1;
        let snap = Snapshot::new(self.generation, points, frozen);
        self.last_snapshot = Some(snap.clone());
        snap
    }

    /// Looks a series up by measurement and exact tag set.
    pub fn series_mut(
        &mut self,
        measurement: &str,
        tags: &BTreeMap<String, String>,
    ) -> Option<&mut Series> {
        let id = self.series_id(measurement, tags)?;
        Some(&mut self.series[id.0 as usize])
    }

    /// Iterates over the series of a measurement that match all `filters`
    /// (tag key → required value). Yields mutable references because
    /// reading samples may trigger a lazy re-sort.
    pub fn matching_series(
        &mut self,
        measurement: &str,
        filters: &[(String, String)],
    ) -> Vec<&mut Series> {
        self.series
            .iter_mut()
            .filter(|s| {
                s.measurement == measurement
                    && filters
                        .iter()
                        .all(|(k, v)| s.tags.get(k).is_some_and(|tv| tv == v))
            })
            .collect()
    }

    /// Distinct values of `tag` across all series of a measurement.
    pub fn tag_values(&self, measurement: &str, tag: &str) -> Vec<String> {
        let mut vals: Vec<String> = self
            .series
            .iter()
            .filter(|s| s.measurement == measurement)
            .filter_map(|s| s.tags.get(tag).cloned())
            .collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::series_key;

    fn point(server: &str, t: u64, mbps: f64) -> Point {
        Point::new("throughput", t)
            .tag("server", server)
            .field("mbps", mbps)
    }

    #[test]
    fn insert_routes_to_series() {
        let mut db = Db::new();
        db.insert(point("a", 0, 1.0));
        db.insert(point("a", 10, 2.0));
        db.insert(point("b", 5, 3.0));
        assert_eq!(db.series_count(), 2);
        assert_eq!(db.points_written, 3);
        let tags: BTreeMap<String, String> = [("server".to_string(), "a".to_string())].into();
        let s = db.series_mut("throughput", &tags).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn series_ids_follow_first_insertion_order() {
        let mut db = Db::new();
        db.insert(point("b", 0, 1.0));
        db.insert(point("a", 1, 2.0));
        db.insert(point("b", 2, 3.0));
        let b_tags: BTreeMap<String, String> = [("server".to_string(), "b".to_string())].into();
        let a_tags: BTreeMap<String, String> = [("server".to_string(), "a".to_string())].into();
        assert_eq!(db.series_id("throughput", &b_tags), Some(SeriesId(0)));
        assert_eq!(db.series_id("throughput", &a_tags), Some(SeriesId(1)));
        assert_eq!(db.series_id("latency", &b_tags), None);
    }

    #[test]
    fn interned_key_matches_canonical_form() {
        let mut db = Db::new();
        db.insert(
            Point::new("throughput", 0)
                .tag("server", "a")
                .tag("region", "r1")
                .field("mbps", 1.0),
        );
        let all = db.matching_series("throughput", &[]);
        assert_eq!(all[0].key(), "throughput,region=r1,server=a");
        assert_eq!(
            all[0].key(),
            series_key(&all[0].measurement, &all[0].tags.clone())
        );
    }

    #[test]
    fn out_of_order_inserts_are_sorted_on_read() {
        let mut db = Db::new();
        db.insert(point("a", 100, 1.0));
        db.insert(point("a", 50, 2.0));
        db.insert(point("a", 75, 3.0));
        let tags: BTreeMap<String, String> = [("server".to_string(), "a".to_string())].into();
        let s = db.series_mut("throughput", &tags).unwrap();
        let times: Vec<u64> = s.samples().iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![50, 75, 100]);
    }

    #[test]
    fn matching_series_filters_by_tags() {
        let mut db = Db::new();
        db.insert(
            Point::new("throughput", 0)
                .tag("region", "us-west1")
                .tag("server", "a")
                .field("mbps", 1.0),
        );
        db.insert(
            Point::new("throughput", 0)
                .tag("region", "us-east1")
                .tag("server", "b")
                .field("mbps", 2.0),
        );
        let matched = db.matching_series(
            "throughput",
            &[("region".to_string(), "us-west1".to_string())],
        );
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0].tags["server"], "a");
    }

    #[test]
    fn matching_series_requires_measurement() {
        let mut db = Db::new();
        db.insert(point("a", 0, 1.0));
        assert!(db.matching_series("latency", &[]).is_empty());
    }

    #[test]
    fn tag_values_are_sorted_distinct() {
        let mut db = Db::new();
        for s in ["b", "a", "b", "c"] {
            db.insert(point(s, 0, 1.0));
        }
        assert_eq!(db.tag_values("throughput", "server"), vec!["a", "b", "c"]);
        assert!(db.tag_values("throughput", "nope").is_empty());
    }

    #[test]
    fn tail_receives_inserts_in_order() {
        let mut db = Db::new();
        db.insert(point("a", 0, 1.0)); // before subscribe: not mirrored
        let tail = db.subscribe(16);
        db.insert(point("a", 10, 2.0));
        db.insert(point("b", 5, 3.0));
        let mut seen = Vec::new();
        assert_eq!(
            tail.drain(|p| seen.push((p.time, p.tags["server"].clone()))),
            2
        );
        assert_eq!(seen, vec![(10, "a".to_string()), (5, "b".to_string())]);
        assert!(tail.is_empty());
        assert_eq!(tail.overflow(), 0);
    }

    #[test]
    fn tail_bounded_with_overflow_count() {
        let mut db = Db::new();
        let tail = db.subscribe(2);
        for t in 0..5 {
            db.insert(point("a", t, 1.0));
        }
        // The first two buffered, the other three counted as overflow.
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.overflow(), 3);
        assert_eq!(tail.try_recv().unwrap().time, 0);
        // Draining frees capacity for later inserts.
        db.insert(point("a", 9, 1.0));
        let times: Vec<u64> = std::iter::from_fn(|| tail.try_recv())
            .map(|p| p.time)
            .collect();
        assert_eq!(times, vec![1, 9]);
    }

    #[test]
    fn batch_insert_mirrors_to_tails_in_order() {
        let mut db = Db::new();
        let tail = db.subscribe(3);
        db.insert_batch((0..5).map(|t| point("a", t, 1.0)));
        // Capacity bounds the batch exactly as per-point publishing.
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.overflow(), 2);
        let times: Vec<u64> = std::iter::from_fn(|| tail.try_recv())
            .map(|p| p.time)
            .collect();
        assert_eq!(times, vec![0, 1, 2]);
        assert_eq!(db.points_written, 5);
    }

    #[test]
    fn dropped_tail_unsubscribes() {
        let mut db = Db::new();
        let tail = db.subscribe(4);
        drop(tail);
        db.insert(point("a", 0, 1.0)); // must not panic or leak
        let live = db.subscribe(4);
        db.insert(point("a", 1, 2.0));
        assert_eq!(live.len(), 1);
        // Batch inserts prune dropped tails too.
        drop(live);
        db.insert_batch(vec![point("a", 2, 3.0)]);
        assert_eq!(db.points_written, 3);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_tail_rejected() {
        Db::new().subscribe(0);
    }

    #[test]
    fn closed_tail_is_pruned_while_handle_lives() {
        let mut db = Db::new();
        let tail = db.subscribe(2);
        db.insert(point("a", 0, 1.0));
        assert_eq!(tail.len(), 1);
        tail.close();
        // Close clears the buffer and the next publish prunes the tail,
        // so a stalled-but-alive subscriber can't absorb publish work.
        assert_eq!(tail.len(), 0);
        db.insert(point("a", 1, 2.0));
        db.insert(point("a", 2, 3.0));
        assert_eq!(tail.len(), 0);
        assert_eq!(db.stats.tails_closed, 1);
        assert_eq!(db.stats.tails_opened, 1);
    }

    #[test]
    fn dropping_one_clone_keeps_subscription() {
        let mut db = Db::new();
        let tail = db.subscribe(4);
        let clone = tail.clone();
        drop(clone);
        db.insert(point("a", 0, 1.0));
        assert_eq!(tail.len(), 1);
        drop(tail);
        db.insert(point("a", 1, 2.0));
        assert_eq!(db.stats.tails_closed, 1);
    }

    #[test]
    fn full_buffer_batch_is_bulk_overflow() {
        let mut db = Db::new();
        let tail = db.subscribe(2);
        db.insert_batch((0..5).map(|t| point("a", t, 1.0)));
        assert_eq!((tail.len(), tail.overflow()), (2, 3));
        // Buffer already full: the whole second batch overflows in one
        // O(1) bulk add, order and counts identical to per-point offers.
        db.insert_batch((5..9).map(|t| point("a", t, 1.0)));
        assert_eq!((tail.len(), tail.overflow()), (2, 7));
        let times: Vec<u64> = std::iter::from_fn(|| tail.try_recv())
            .map(|p| p.time)
            .collect();
        assert_eq!(times, vec![0, 1]);
        assert_eq!(db.stats.tail_overflow, 7);
        assert_eq!(db.stats.points_published, 2);
    }

    #[test]
    fn stats_track_batches_and_peak_depth() {
        let mut db = Db::new();
        assert_eq!(db.stats, DbStats::default());
        let tail = db.subscribe(8);
        db.insert_batch((0..3).map(|t| point("a", t, 1.0)));
        db.insert_batch((3..5).map(|t| point("a", t, 1.0)));
        assert_eq!(db.stats.insert_batches, 2);
        assert_eq!(db.stats.points_published, 5);
        assert_eq!(db.stats.tail_peak_depth, 5);
        tail.drain(|_| {});
        db.insert(point("a", 9, 1.0));
        // Peak is a high-water mark: draining doesn't lower it.
        assert_eq!(db.stats.tail_peak_depth, 5);
        assert_eq!(db.stats.tail_overflow, 0);
    }

    #[test]
    fn drop_during_publish_never_counts_phantom_overflow() {
        let mut db = Db::new();
        let tail = db.subscribe(1);
        db.insert(point("a", 0, 1.0)); // fills the one-slot buffer
                                       // Simulate the publisher's mid-publish state: it holds a
                                       // temporary strong reference (the upgraded Weak) at the moment
                                       // the subscriber drops its last handle. A strong-count-based
                                       // close check would see two owners here, skip the close, and
                                       // leave a zombie subscription counting overflow forever.
        let publisher_ref = Arc::clone(&tail.shared);
        drop(tail);
        drop(publisher_ref);
        let before = db.stats.tail_overflow;
        db.insert(point("a", 1, 1.0)); // prunes the closed tail
        db.insert_batch((2..10).map(|t| point("a", t, 1.0)));
        assert_eq!(db.stats.tail_overflow, before, "phantom overflow");
        assert_eq!(db.stats.tails_closed, 1);
    }

    #[test]
    fn concurrent_drop_stops_overflow_accrual() {
        // Stress the same race with a real publisher thread: once the
        // drop has been observed (the tail is pruned), later inserts
        // must never add overflow.
        let db = Arc::new(Mutex::new(Db::new()));
        let tail = db.lock().unwrap().subscribe(1);
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for t in 0..500u64 {
                    db.lock().unwrap().insert(point("a", t, 1.0));
                }
            })
        };
        drop(tail); // races the writer's publishes
        writer.join().unwrap();
        let mut db = db.lock().unwrap();
        // One more publish is guaranteed to observe the drop and prune.
        db.insert(point("a", 1000, 1.0));
        assert_eq!(db.stats.tails_closed, 1);
        let settled = db.stats.tail_overflow;
        db.insert_batch((500..600).map(|t| point("a", t, 1.0)));
        assert_eq!(db.stats.tail_overflow, settled, "phantom overflow");
    }

    #[test]
    fn clone_handles_are_counted_not_guessed() {
        let mut db = Db::new();
        let tail = db.subscribe(2);
        let clone = tail.clone();
        // An outstanding foreign Arc (publisher mid-publish) must not
        // keep the subscription alive once both handles are gone.
        let foreign = Arc::clone(&tail.shared);
        drop(tail);
        db.insert(point("a", 0, 1.0));
        assert_eq!(clone.len(), 1, "one handle left: still subscribed");
        drop(clone);
        drop(foreign);
        db.insert(point("a", 1, 2.0));
        assert_eq!(db.stats.tails_closed, 1);
        assert_eq!(db.stats.points_published, 1);
    }

    #[test]
    fn insert_lines_counts_one_batch_and_feeds_tails() {
        // Equivalence with insert_batch is the property test's job; this
        // pins the bookkeeping: one batch, owned tail copies, overflow.
        let text = crate::line::encode_batch(&[
            point("a", 0, 1.0),
            point("b", 5, 2.0),
            point("a", 3, 3.0),
        ]);
        let batch = crate::line::decode_lines(&text).unwrap();
        let mut db = Db::new();
        let tail = db.subscribe(2);
        db.insert_lines(&batch);
        assert_eq!(db.stats.insert_batches, 1);
        assert_eq!(db.points_written, 3);
        assert_eq!(db.series_count(), 2);
        assert_eq!((tail.len(), tail.overflow()), (2, 1));
        assert_eq!(tail.try_recv(), Some(point("a", 0, 1.0)));
        assert_eq!(tail.try_recv(), Some(point("b", 5, 2.0)));
    }

    #[test]
    fn different_tag_sets_are_distinct_series() {
        let mut db = Db::new();
        db.insert(point("a", 0, 1.0));
        db.insert(
            Point::new("throughput", 0)
                .tag("server", "a")
                .tag("tier", "premium")
                .field("mbps", 2.0),
        );
        assert_eq!(db.series_count(), 2);
    }
}
