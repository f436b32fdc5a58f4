//! The data model: measurements, tags, fields, timestamps.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{btree_map, BTreeMap};

/// One timestamped observation: a measurement name, a sorted tag set
/// (indexing dimensions), numeric fields, and a timestamp in seconds.
///
/// Tags are `BTreeMap`s so the serialised series key is canonical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Measurement name, e.g. `"throughput"`.
    pub measurement: String,
    /// Indexed dimensions, e.g. `region=us-west1, server=ookla-123`.
    pub tags: BTreeMap<String, String>,
    /// Numeric observations, e.g. `mbps=412.3, loss=0.002`.
    pub fields: BTreeMap<String, f64>,
    /// Seconds since the campaign epoch.
    pub time: u64,
}

impl Point {
    /// Starts building a point for `measurement` at `time`.
    pub fn new(measurement: impl Into<String>, time: u64) -> Self {
        Self {
            measurement: measurement.into(),
            tags: BTreeMap::new(),
            fields: BTreeMap::new(),
            time,
        }
    }

    /// Assembles a point from already-built parts (decoders, benches).
    pub fn from_parts(
        measurement: String,
        tags: BTreeMap<String, String>,
        fields: BTreeMap<String, f64>,
        time: u64,
    ) -> Self {
        Self {
            measurement,
            tags,
            fields,
            time,
        }
    }

    /// Adds a tag.
    pub fn tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tags.insert(key.into(), value.into());
        self
    }

    /// Adds a field. Non-finite values are rejected.
    ///
    /// # Panics
    /// Panics on NaN/infinite values: persisting them silently would
    /// poison downstream aggregates.
    pub fn field(mut self, key: impl Into<String>, value: f64) -> Self {
        assert!(value.is_finite(), "field value must be finite");
        self.fields.insert(key.into(), value);
        self
    }

    /// The canonical series key: `measurement,tag1=v1,tag2=v2`.
    pub fn series_key(&self) -> String {
        series_key(&self.measurement, &self.tags)
    }

    /// A borrowed view of this point — the form [`crate::Db`] and the
    /// stream engine ingest.
    pub fn view(&self) -> PointRef<'_> {
        PointRef {
            measurement: &self.measurement,
            time: self.time,
            parts: Parts::Maps {
                tags: &self.tags,
                fields: &self.fields,
            },
        }
    }
}

/// Builds a canonical series key from a measurement and tag set.
pub fn series_key(measurement: &str, tags: &BTreeMap<String, String>) -> String {
    let mut key = String::with_capacity(measurement.len() + tags.len() * 16);
    write_series_key(
        measurement,
        tags.iter().map(|(k, v)| (k.as_str(), v.as_str())),
        &mut key,
    );
    key
}

/// Appends the canonical series key of `measurement` and its sorted
/// `tags` to `out`.
fn write_series_key<'t>(
    measurement: &str,
    tags: impl IntoIterator<Item = (&'t str, &'t str)>,
    out: &mut String,
) {
    out.push_str(measurement);
    for (k, v) in tags {
        out.push(',');
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
}

/// A borrowed point: what one decoded protocol line or one [`Point`]
/// looks like to the ingest paths, without owning a string.
///
/// Tags and fields iterate sorted by key with unique keys — the order
/// and content a `BTreeMap` of them would have — whichever form backs
/// the view ([`Point::view`] or a [`crate::line::LineBatch`]).
#[derive(Debug, Clone, Copy)]
pub struct PointRef<'b> {
    measurement: &'b str,
    time: u64,
    parts: Parts<'b>,
}

/// Decoded tag pairs, sorted by key with unique keys.
pub(crate) type TagPairs<'a> = [(Cow<'a, str>, Cow<'a, str>)];
/// Decoded field pairs, sorted by key with unique keys.
pub(crate) type FieldPairs<'a> = [(Cow<'a, str>, f64)];

#[derive(Debug, Clone, Copy)]
enum Parts<'b> {
    /// Sorted, key-unique slices of a [`crate::line::LineBatch`].
    Pairs {
        tags: &'b TagPairs<'b>,
        fields: &'b FieldPairs<'b>,
    },
    /// A [`Point`]'s own maps.
    Maps {
        tags: &'b BTreeMap<String, String>,
        fields: &'b BTreeMap<String, f64>,
    },
}

impl<'b> PointRef<'b> {
    /// A view over decoded parts. Both slices must be sorted by key
    /// with unique keys.
    pub(crate) fn from_pairs(
        measurement: &'b str,
        tags: &'b TagPairs<'b>,
        fields: &'b FieldPairs<'b>,
        time: u64,
    ) -> Self {
        Self {
            measurement,
            time,
            parts: Parts::Pairs { tags, fields },
        }
    }

    /// Measurement name.
    pub fn measurement(&self) -> &'b str {
        self.measurement
    }

    /// Seconds since the campaign epoch.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// `(key, value)` tags in key order.
    pub fn tags(&self) -> Tags<'b> {
        match self.parts {
            Parts::Pairs { tags, .. } => Tags(TagsIter::Pairs(tags.iter())),
            Parts::Maps { tags, .. } => Tags(TagsIter::Map(tags.iter())),
        }
    }

    /// `(name, value)` fields in name order.
    pub fn fields(&self) -> Fields<'b> {
        match self.parts {
            Parts::Pairs { fields, .. } => Fields(FieldsIter::Pairs(fields.iter())),
            Parts::Maps { fields, .. } => Fields(FieldsIter::Map(fields.iter())),
        }
    }

    /// The value of tag `key`.
    pub fn tag(&self, key: &str) -> Option<&'b str> {
        match self.parts {
            Parts::Pairs { tags, .. } => tags
                .binary_search_by(|(k, _)| k.as_ref().cmp(key))
                .ok()
                .and_then(|i| tags.get(i))
                .map(|(_, v)| v.as_ref()),
            Parts::Maps { tags, .. } => tags.get(key).map(String::as_str),
        }
    }

    /// The value of field `name`.
    pub fn field(&self, name: &str) -> Option<f64> {
        match self.parts {
            Parts::Pairs { fields, .. } => fields
                .binary_search_by(|(k, _)| k.as_ref().cmp(name))
                .ok()
                .and_then(|i| fields.get(i))
                .map(|(_, v)| *v),
            Parts::Maps { fields, .. } => fields.get(name).copied(),
        }
    }

    /// Replaces `out` with this point's canonical series key (the
    /// string [`Point::series_key`] returns), reusing its allocation.
    pub fn series_key_into(&self, out: &mut String) {
        out.clear();
        write_series_key(self.measurement, self.tags(), out);
    }

    /// An owned copy.
    pub fn to_point(&self) -> Point {
        Point::from_parts(
            self.measurement.to_string(),
            self.tags()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            self.fields().map(|(k, v)| (k.to_string(), v)).collect(),
            self.time,
        )
    }
}

/// Iterator over a [`PointRef`]'s tags, in key order.
#[derive(Debug, Clone)]
pub struct Tags<'b>(TagsIter<'b>);

#[derive(Debug, Clone)]
enum TagsIter<'b> {
    Pairs(std::slice::Iter<'b, (Cow<'b, str>, Cow<'b, str>)>),
    Map(btree_map::Iter<'b, String, String>),
}

impl<'b> Iterator for Tags<'b> {
    type Item = (&'b str, &'b str);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            TagsIter::Pairs(it) => it.next().map(|(k, v)| (k.as_ref(), v.as_ref())),
            TagsIter::Map(it) => it.next().map(|(k, v)| (k.as_str(), v.as_str())),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            TagsIter::Pairs(it) => it.size_hint(),
            TagsIter::Map(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Tags<'_> {}

/// Iterator over a [`PointRef`]'s fields, in name order.
#[derive(Debug, Clone)]
pub struct Fields<'b>(FieldsIter<'b>);

#[derive(Debug, Clone)]
enum FieldsIter<'b> {
    Pairs(std::slice::Iter<'b, (Cow<'b, str>, f64)>),
    Map(btree_map::Iter<'b, String, f64>),
}

impl<'b> Iterator for Fields<'b> {
    type Item = (&'b str, f64);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            FieldsIter::Pairs(it) => it.next().map(|(k, v)| (k.as_ref(), *v)),
            FieldsIter::Map(it) => it.next().map(|(k, v)| (k.as_str(), *v)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            FieldsIter::Pairs(it) => it.size_hint(),
            FieldsIter::Map(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Fields<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let p = Point::new("throughput", 3600)
            .tag("region", "us-west1")
            .tag("server", "s1")
            .field("mbps", 412.5)
            .field("loss", 0.01);
        assert_eq!(p.measurement, "throughput");
        assert_eq!(p.tags.len(), 2);
        assert_eq!(p.fields["mbps"], 412.5);
        assert_eq!(p.time, 3600);
    }

    #[test]
    fn series_key_is_canonical_regardless_of_insertion_order() {
        let a = Point::new("m", 0).tag("b", "2").tag("a", "1");
        let b = Point::new("m", 0).tag("a", "1").tag("b", "2");
        assert_eq!(a.series_key(), b.series_key());
        assert_eq!(a.series_key(), "m,a=1,b=2");
    }

    #[test]
    fn series_key_without_tags_is_measurement() {
        assert_eq!(Point::new("cpu", 0).series_key(), "cpu");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_field_rejected() {
        Point::new("m", 0).field("x", f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_field_rejected() {
        Point::new("m", 0).field("x", f64::INFINITY);
    }

    #[test]
    fn duplicate_tag_overwrites() {
        let p = Point::new("m", 0).tag("a", "1").tag("a", "2");
        assert_eq!(p.tags["a"], "2");
    }
}
