//! `BENCHMARK.json`: the declared workloads and metrics, validated
//! before a single run so the printed result always matches them.

use serde_json::Value;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Whether a lower value is the better one.
    pub lower_is_better: bool,
}

/// The validated contents of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics printed by an untraced run.
    pub end_to_end: Vec<Metric>,
    /// Metrics printed by a traced run.
    pub per_layer: Vec<Metric>,
}

const MAX_END_TO_END: usize = 16;
const MAX_PER_LAYER: usize = 128;
const MAX_BOUND: f64 = 0.25;

/// Whether `name` is a valid workload or metric name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys_exactly(v: &Value, want: &[&str], what: &str) -> Result<(), String> {
    let obj = v.as_object().ok_or(format!("{what} must be an object"))?;
    let mut have: Vec<&str> = obj.keys().map(String::as_str).collect();
    let mut want = want.to_vec();
    have.sort_unstable();
    want.sort_unstable();
    if have != want {
        return Err(format!(
            "{what} must have exactly the keys {want:?}, has {have:?}"
        ));
    }
    Ok(())
}

fn str_of<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or(format!("{what}: \"{key}\" must be a string"))
}

fn list<'a>(v: &'a Value, key: &str, min: usize, max: usize) -> Result<&'a Vec<Value>, String> {
    let items = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("\"{key}\" must be a list"))?;
    if items.len() < min || items.len() > max {
        return Err(format!(
            "\"{key}\" must hold {min} to {max} entries, holds {}",
            items.len()
        ));
    }
    Ok(items)
}

fn metrics(v: &Value, key: &str, max: usize, bounded: bool) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    for m in list(v, key, 1, max)? {
        let fields: &[&str] = if bounded {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        keys_exactly(m, fields, key)?;
        let name = str_of(m, "name", key)?;
        let unit = str_of(m, "unit", key)?;
        if !valid_name(name) {
            return Err(format!("{key}: invalid metric name {name:?}"));
        }
        if !valid_unit(unit) {
            return Err(format!("{key}: invalid unit {unit:?} for {name}"));
        }
        let lower_is_better = match str_of(m, "better", key)? {
            "lower" => true,
            "higher" => false,
            _ => return Err(format!("{key}: {name}: \"better\" must be lower or higher")),
        };
        if bounded {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(-1.0);
            if !(bound > 0.0 && bound <= MAX_BOUND) {
                return Err(format!("{key}: {name}: bound must be in (0, {MAX_BOUND}]"));
            }
        }
        out.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            lower_is_better,
        });
    }
    Ok(out)
}

/// Parses and validates the text of a `BENCHMARK.json`.
pub fn parse(text: &str) -> Result<Spec, String> {
    let v = serde_json::from_str(text).map_err(|e| format!("not JSON: {e:?}"))?;
    keys_exactly(
        &v,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "BENCHMARK.json",
    )?;
    let secs = v.get("run_seconds").and_then(Value::as_u64).unwrap_or(0);
    if !(1..=60).contains(&secs) {
        return Err("run_seconds must be a whole number from 1 to 60".into());
    }
    let mut workloads = Vec::new();
    for w in list(&v, "workloads", 2, 8)? {
        keys_exactly(w, &["name", "why"], "workloads")?;
        let name = str_of(w, "name", "workloads")?;
        if !valid_name(name) {
            return Err(format!("workloads: invalid name {name:?}"));
        }
        let why = str_of(w, "why", "workloads")?;
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workloads: {name}: \"why\" must be one line of at most 200 characters"
            ));
        }
        workloads.push(name.to_string());
    }
    let end_to_end = metrics(&v, "end_to_end", MAX_END_TO_END, true)?;
    let per_layer = metrics(&v, "per_layer", MAX_PER_LAYER, false)?;
    let mut names: Vec<&str> = workloads
        .iter()
        .map(String::as_str)
        .chain(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()))
        .collect();
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("name {:?} is used more than once", w[0]));
    }
    if !end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s")
    {
        return Err("end_to_end must include setup_s in s".into());
    }
    Ok(Spec {
        workloads,
        end_to_end,
        per_layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(workloads: &str, e2e: &str, layer: &str) -> String {
        format!(
            r#"{{"command": ["cargo"], "paths": ["perfbench"], "run_seconds": 10,
                "workloads": [{workloads}], "end_to_end": [{e2e}], "per_layer": [{layer}]}}"#
        )
    }

    const TWO: &str = r#"{"name": "a", "why": "x"}, {"name": "b", "why": "y"}"#;
    const SETUP: &str = r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}"#;
    const LAYER: &str = r#"{"name": "tsdb.insert_ns", "unit": "ns", "better": "lower"}"#;

    fn e2e(n: usize) -> String {
        let mut v = vec![SETUP.to_string()];
        for i in 1..n {
            v.push(format!(
                r#"{{"name": "m{i}", "unit": "ms", "better": "lower", "bound": 0.1}}"#
            ));
        }
        v.join(",")
    }

    fn layer(n: usize) -> String {
        (0..n)
            .map(|i| format!(r#"{{"name": "l.{i}", "unit": "count", "better": "higher"}}"#))
            .collect::<Vec<_>>()
            .join(",")
    }

    #[test]
    fn names_follow_the_charset() {
        for ok in [
            "setup_s",
            "tsdb.insert_ns",
            "serve.publish_ms_p95",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "slash/name",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn accepts_a_well_formed_file() {
        let spec = parse(&doc(TWO, &e2e(3), LAYER)).unwrap();
        assert_eq!(spec.workloads, ["a", "b"]);
        assert_eq!(spec.end_to_end.len(), 3);
        assert_eq!(spec.per_layer[0].unit, "ns");
        assert!(spec.per_layer[0].lower_is_better);
        assert!(!parse(&doc(TWO, &e2e(1), &layer(1))).unwrap().per_layer[0].lower_is_better);
    }

    #[test]
    fn enforces_metric_counts() {
        assert!(parse(&doc(TWO, &e2e(16), &layer(128))).is_ok());
        assert!(parse(&doc(TWO, &e2e(17), LAYER)).is_err());
        assert!(parse(&doc(TWO, &e2e(1), &layer(129))).is_err());
        assert!(parse(&doc(TWO, &e2e(1), "")).is_err());
        assert!(parse(&doc(r#"{"name": "a", "why": "x"}"#, &e2e(1), LAYER)).is_err());
    }

    #[test]
    fn rejects_bad_names_duplicates_and_bounds() {
        let bad_name = r#"{"name": "bad name", "unit": "ns", "better": "lower"}"#;
        assert!(parse(&doc(TWO, &e2e(1), bad_name)).is_err());
        let dup = format!("{LAYER},{LAYER}");
        assert!(parse(&doc(TWO, &e2e(1), &dup)).is_err());
        let loose = r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.5}"#;
        assert!(parse(&doc(TWO, loose, LAYER)).is_err());
        let no_setup = r#"{"name": "x_s", "unit": "s", "better": "lower", "bound": 0.1}"#;
        assert!(parse(&doc(TWO, no_setup, LAYER)).is_err());
        let extra_key = r#"{"name": "l", "unit": "ns", "better": "lower", "bound": 0.1}"#;
        assert!(parse(&doc(TWO, &e2e(1), extra_key)).is_err());
    }

    #[test]
    fn the_committed_file_is_valid() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = parse(text).unwrap();
        assert_eq!(spec.workloads, ["paper_batch", "paper_stream"]);
    }
}
