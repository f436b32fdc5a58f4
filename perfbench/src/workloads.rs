//! The two workloads, each run as one measured iteration in a fresh
//! process. An untraced iteration produces the end-to-end metrics; a
//! traced one attaches a `clasp-obs` observer, reads its phase spans and
//! counters, and times calls into each crate's public functions on
//! samples of the iteration's own data.

use crate::serve::{self, ServeRun, BATCH, PUBLISH_EVERY};
use crate::stats::{mean, median, percentile};
use crate::sys::{now, vm_hwm_mb};
use analysis::experiments;
use clasp_core::campaign::{Campaign, CampaignConfig, CampaignResult};
use clasp_core::congestion::CongestionAnalysis;
use clasp_core::world::World;
use clasp_obs::Observer;
use clasp_stream::{EngineConfig, StreamEngine};
use simnet::routing::Tier;
use simnet::time::{SimTime, HOUR};
use speedtest::client::SpeedTestClient;
use std::collections::BTreeMap;
use std::hint::black_box;
use tsdb::{line, Db, Point, Snapshot};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["paper_batch", "paper_stream"];

/// Pins at the default seed (`analysis::harness::PAPER_SEED`), taken
/// from the parent commit of the benchmark.
mod pins {
    /// Speed tests in the 153-day paper campaign.
    pub const PAPER_TESTS: u64 = 1_658_520;
    /// FNV-1a of the final checkpoint of the `--jobs 1` paper campaign.
    pub const PAPER_BATCH_CHECKPOINT: &str = "102d536b5e7ac369";
    /// Hourly samples in the topology-method `CongestionAnalysis`.
    pub const PAPER_BATCH_SAMPLES: usize = 1_509_192;
    /// FNV-1a of the final checkpoint of the streaming `gcp-2020`
    /// paper campaign at `--jobs 1`; `--jobs 2` must reproduce it.
    pub const PAPER_STREAM_CHECKPOINT: &str = "23e648da2e563dc5";
}

/// Leading campaign days a traced paper iteration serves, to measure
/// the serve layers on the workload's own data.
const PAPER_SERVE_DAYS: u64 = 7;
/// Worker threads of `paper_stream`.
const STREAM_JOBS: usize = 2;
/// (VM, server, hour) triples timed by the path and test probes.
const PROBE_TRIPLES: usize = 2000;

/// Worker count a workload's campaign runs with.
pub fn jobs(workload: &str) -> usize {
    if workload == "paper_stream" {
        STREAM_JOBS
    } else {
        1
    }
}

/// One iteration's measurements and checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metrics (read from traced iterations).
    pub layer: BTreeMap<String, f64>,
    /// Operations attempted: the checked pipeline run plus every serve
    /// request.
    pub ops: u64,
    /// Error responses among the serve requests. The pipeline run
    /// counts as one more failed operation when `failures` is not empty.
    pub failed_ops: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

impl Outcome {
    fn e2e(&mut self, name: &str, v: f64) {
        self.e2e.insert(name.into(), v);
    }

    fn layer(&mut self, name: &str, v: f64) {
        self.layer.insert(name.into(), v);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// FNV-1a of a string: a stable fingerprint for pinned outputs.
fn fnv1a(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("{h:016x}")
}

/// Fingerprint of the final checkpoint without its `"obs"` section,
/// which only an observed run writes.
fn checkpoint_fnv(result: &CampaignResult) -> String {
    match result.checkpoints.last().and_then(|c| c.as_object()) {
        Some(c) => {
            let mut c = c.clone();
            c.remove("obs");
            fnv1a(&serde_json::to_string(&serde_json::Value::Object(c)))
        }
        None => "none".into(),
    }
}

/// A small deterministic generator for probe samples (splitmix64).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The points of `snap` with time before `horizon`, in time order
/// (series order within one timestamp).
fn flatten(snap: &Snapshot, horizon: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for series in snap.series() {
        for (time, fields) in series.samples().iter().take_while(|(t, _)| *t < horizon) {
            points.push(Point::from_parts(
                series.measurement.clone(),
                series.tags.clone(),
                fields.to_map(),
                *time,
            ));
        }
    }
    points.sort_by_key(|p| p.time);
    points
}

/// Table 1 and Figs. 2–8 as the analysis binaries compute them.
/// Returns how many artifacts came out non-empty.
fn figures(world: &World, result: &mut CampaignResult) -> usize {
    let mut made = 0;
    let mut count = |nonempty: bool| made += usize::from(nonempty);
    count(!black_box(experiments::table1(result)).is_empty());
    count(!black_box(experiments::fig2(world, result, 20)).is_empty());
    count(black_box(experiments::fig3(world, result, 0.5)).is_some());
    for (method, tier) in [
        ("topo", "premium"),
        ("diff", "premium"),
        ("diff", "standard"),
    ] {
        let pts = experiments::fig4(result, method, tier);
        black_box(experiments::fig4_summary(&pts));
        count(!pts.is_empty());
    }
    count(black_box(experiments::fig5(result, "europe-west1")).is_some());
    for (region, method, n) in [
        ("us-east1", "topo", 10),
        ("us-west1", "topo", 10),
        ("europe-west1", "diff", 24),
    ] {
        count(!black_box(experiments::fig6(world, result, region, method, 0.5, n)).is_empty());
    }
    count(!black_box(experiments::fig7(world, result)).is_empty());
    count(!black_box(experiments::fig8(world, result, 0.5)).is_empty());
    made
}

/// Artifacts [`figures`] produces: Table 1, Figs. 2, 3, 4 (×3), 5,
/// 6 (×3), 7 and 8.
const ARTIFACTS: usize = 12;

fn topo_analysis(result: &mut CampaignResult, world: &World) -> CongestionAnalysis {
    CongestionAnalysis::build(
        &mut result.db,
        world,
        "download",
        &[("method".to_string(), "topo".to_string())],
    )
}

/// Phase spans and counters of an observed campaign.
fn campaign_layers(out: &mut Outcome, obs: &Observer, result: &CampaignResult) {
    let spans = obs.spans();
    for (span, name) in [
        ("phase0:route_warm", "campaign.route_warm_s"),
        ("phase1:unit_prep", "campaign.unit_prep_s"),
        ("phase2:vm_exec", "campaign.vm_exec_s"),
        ("phase3:merge", "campaign.merge_s"),
    ] {
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.wall_ns)
            .sum();
        out.layer(name, ns as f64 / 1e9);
    }
    let m = obs.metrics();
    out.layer("campaign.tests", result.tests_run as f64);
    for c in ["ingest.points", "ingest.objects", "ingest.errors"] {
        out.layer(c, m.counter(c) as f64);
    }
    let errors = m.counter("ingest.errors");
    out.check(errors == 0, || {
        format!("{errors} raw objects failed to ingest")
    });
    let f = result.fault_log.summary();
    out.layer("faults.injected", f.total as f64);
    out.layer("faults.recovered", f.recovered as f64);
    out.layer("faults.lost", f.lost as f64);
}

/// Times `SpeedTestClient::resolve_paths` and `run_test` on a seeded
/// sample of the campaign's own (VM, server, hour) triples. Resolution
/// starts from a fresh session, so route computation is included the
/// way the campaign pays it, once per distinct destination.
fn path_layers(out: &mut Outcome, world: &World, result: &CampaignResult, seed: u64, days: u64) {
    let mut candidates = Vec::new();
    for sel in &result.topo_selections {
        let Some(region) = world.provider.region(&sel.region) else {
            continue;
        };
        let city = region.city_id(&world.topo.cities);
        for id in &sel.servers {
            if let Some(server) = world.registry.by_id(id) {
                candidates.push((city, world.topo.vm_ip(city, 0), server));
            }
        }
    }
    if candidates.is_empty() {
        out.failures.push("no topology servers to probe".into());
        return;
    }
    let mut rng = Rng(seed ^ 0x7e57_ab1e);
    let triples: Vec<_> = (0..PROBE_TRIPLES)
        .map(|_| {
            let c = candidates[rng.below(candidates.len())];
            (c, SimTime(rng.below((days * 24) as usize) as u64 * HOUR))
        })
        .collect();
    let session = world.session();
    let client = SpeedTestClient::default();
    let resolve = |&((city, ip, server), _): &(_, SimTime)| {
        client.resolve_paths(&session.paths, city, ip, server, Tier::Premium)
    };
    let (pairs, secs) = timed(|| triples.iter().map(resolve).collect::<Vec<_>>());
    out.layer("simnet.resolve_paths_us", secs * 1e6 / triples.len() as f64);
    let resolved: Vec<_> = triples
        .iter()
        .zip(&pairs)
        .filter_map(|(((_, _, server), t), p)| p.as_ref().map(|p| (p, *server, *t)))
        .collect();
    let (_, secs) = timed(|| {
        for (k, (pair, server, t)) in resolved.iter().enumerate() {
            black_box(client.run_test(&session.perf, pair, server, *t, seed ^ k as u64));
        }
    });
    out.layer(
        "speedtest.run_test_us",
        secs * 1e6 / resolved.len().max(1) as f64,
    );
}

/// Times line-protocol encode and decode and `Db` insert per point, and
/// the total `Db::snapshot` time, replaying `points` at the serve
/// cadence.
fn tsdb_layers(out: &mut Outcome, points: &[Point]) {
    let n = points.len().max(1) as f64;
    let (texts, enc) = timed(|| {
        points
            .chunks(BATCH)
            .map(line::encode_batch)
            .collect::<Vec<_>>()
    });
    let (decoded, dec) = timed(|| {
        texts
            .iter()
            .map(|t| line::decode_batch(t))
            .collect::<Result<Vec<_>, _>>()
    });
    out.layer("tsdb.line_encode_ns", enc * 1e9 / n);
    out.layer("tsdb.line_decode_ns", dec * 1e9 / n);
    let Ok(decoded) = decoded else {
        out.failures
            .push("line protocol failed to decode its own encoding".into());
        return;
    };
    let mut db = Db::new();
    let (mut insert, mut snapshot) = (0.0, 0.0);
    for (b, batch) in decoded.into_iter().enumerate() {
        insert += timed(|| db.insert_batch(batch)).1;
        if (b + 1) % PUBLISH_EVERY == 0 {
            snapshot += timed(|| black_box(db.snapshot())).1;
        }
    }
    snapshot += timed(|| black_box(db.snapshot())).1;
    out.layer("tsdb.insert_ns", insert * 1e9 / n);
    out.layer("tsdb.snapshot_s", snapshot);
    out.check(db.points_written == points.len() as u64, || {
        "tsdb replay lost points".into()
    });
}

fn stream_stats(out: &mut Outcome, engine: &StreamEngine) {
    let s = engine.stats();
    out.layer("stream.events_seen", s.events_seen as f64);
    out.layer("stream.labels_emitted", s.labels_emitted as f64);
    out.layer("stream.out_of_order", s.out_of_order as f64);
    out.layer("stream.late_dropped", s.late_dropped as f64);
}

/// Times `StreamEngine::ingest` per point over `points` (a fresh
/// engine) and, unless the workload measures its own, `finalize`.
fn stream_replay(out: &mut Outcome, world: &World, points: &[Point], own: bool) {
    let mut engine = StreamEngine::new(EngineConfig::paper(), world.server_utc_offsets());
    let (_, secs) = timed(|| points.iter().for_each(|p| engine.ingest(p)));
    out.layer("stream.ingest_ns", secs * 1e9 / points.len().max(1) as f64);
    if !own {
        out.layer("stream.finalize_s", timed(|| engine.finalize()).1);
        stream_stats(out, &engine);
    }
}

fn serve_metrics(out: &mut Outcome, run: &ServeRun, trace: bool) {
    let p = |xs: &[f64], q: f64| percentile(xs, q).unwrap_or(f64::NAN);
    out.ops += run.requests;
    out.failed_ops += run.errors;
    out.failures.extend(run.failures.iter().cloned());
    if !trace {
        return;
    }
    let tenth = (run.publish_ms.len() / 10).max(1);
    let nan = f64::NAN;
    out.layer("serve.freshness_p95_ms", p(&run.freshness_ms, 0.95));
    out.layer("serve.query_p50_ms", p(&run.reader.latency_ms, 0.50));
    out.layer("serve.query_p95_ms", p(&run.reader.latency_ms, 0.95));
    out.layer("serve.ingest_call_us_p50", p(&run.ingest_call_us, 0.50));
    out.layer("serve.ingest_call_us_p95", p(&run.ingest_call_us, 0.95));
    out.layer("serve.publish_ms_p50", p(&run.publish_ms, 0.50));
    out.layer("serve.publish_ms_p95", p(&run.publish_ms, 0.95));
    out.layer(
        "serve.publish_ms_first_tenth",
        mean(&run.publish_ms[..tenth]).unwrap_or(nan),
    );
    out.layer(
        "serve.publish_ms_last_tenth",
        mean(&run.publish_ms[run.publish_ms.len() - tenth..]).unwrap_or(nan),
    );
    out.layer(
        "serve.query_service_ms_p50",
        p(&run.reader.service_ms, 0.50),
    );
    out.layer(
        "serve.query_service_ms_p95",
        p(&run.reader.service_ms, 0.95),
    );
    out.layer(
        "serve.congestion_ms",
        median(&run.congestion_ms).unwrap_or(nan),
    );
    out.layer("serve.cache_hit_ratio", run.cache_hit_ratio);
    out.layer("serve.generator_lag_ms_p95", p(&run.reader.lag_ms, 0.95));
    out.layer("serve.queries", run.reader.latency_ms.len() as f64);
    out.layer("serve.errors", run.errors as f64);
    out.layer("tsdb.points_published", run.published_points as f64);
    out.layer("tsdb.insert_batches", run.insert_batches as f64);
}

/// Serves `points` live and, when traced, replays them through the
/// tsdb and stream layers.
fn serve_step(
    out: &mut Outcome,
    world: &World,
    points: Vec<Point>,
    seed: u64,
    trace: bool,
    own_stream: bool,
) -> ServeRun {
    if trace {
        tsdb_layers(out, &points);
        stream_replay(out, world, &points, own_stream);
    }
    let run = serve::run(serve::batches(points), seed);
    serve_metrics(out, &run, trace);
    run
}

/// Runs one iteration of `workload`.
pub fn run(workload: &str, seed: u64, trace: bool) -> Outcome {
    match workload {
        "paper_batch" => paper(seed, trace, false),
        "paper_stream" => paper(seed, trace, true),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Only the set-up, timed.
pub fn setup_only(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let (world, secs) = timed(|| World::new(seed));
    out.e2e("setup_s", secs);
    out.check(!world.registry.servers.is_empty(), || {
        "world has no servers".into()
    });
    out.ops = 1;
    out
}

fn paper(seed: u64, trace: bool, stream: bool) -> Outcome {
    let mut out = Outcome {
        ops: 1,
        ..Outcome::default()
    };
    let (world, setup) = timed(|| World::new(seed));
    out.e2e("setup_s", setup);
    let hwm_world = vm_hwm_mb();

    let mut cfg = CampaignConfig::paper(seed);
    cfg.jobs = if stream { STREAM_JOBS } else { 1 };
    if stream {
        cfg.fault_plan = faultsim::FaultPlan::builtin("gcp-2020").expect("built-in profile");
    }
    let days = cfg.days;
    let campaign = Campaign::new(&world, cfg);
    let mut engine = stream.then(|| campaign.stream_engine(EngineConfig::paper()));
    let obs = Observer::new();
    let (result, campaign_s) = timed(|| {
        let mut runner = campaign.runner();
        if let Some(e) = engine.as_mut() {
            runner = runner.streaming(e);
        }
        if trace {
            runner = runner.observer(&obs);
        }
        runner.run()
    });
    let mut result = match result {
        Ok(r) => r,
        Err(e) => {
            out.failures.push(format!("campaign failed: {e}"));
            return out;
        }
    };
    out.e2e("campaign_s", campaign_s);
    out.e2e(
        "ingest_points_per_s",
        result.db.points_written as f64 / campaign_s,
    );
    let hwm_campaign = vm_hwm_mb();

    let mut batch_analysis = None;
    let mut made = ARTIFACTS;
    let (analysis_s, hwm_analysis) = match engine.as_ref() {
        None => {
            let (ca, build) = timed(|| topo_analysis(&mut result, &world));
            let (n, figs) = timed(|| figures(&world, &mut result));
            out.layer("analysis.congestion_build_s", build);
            out.layer("analysis.figures_s", figs);
            batch_analysis = Some(ca);
            made = n;
            (build + figs, vm_hwm_mb())
        }
        // `Runner::run` finalizes the attached engine itself, so the
        // finalize is timed again on the engine restored from the final
        // checkpoint (the state `Runner::run` finalized; checked equal
        // below), followed by what `clasp stream` reports. The restored
        // copy is the benchmark's, so the peak is read before it exists.
        Some(attached) => {
            let hwm = vm_hwm_mb();
            let restored = result
                .checkpoints
                .last()
                .map(|c| campaign.restore_stream_engine(EngineConfig::paper(), c));
            match restored {
                Some(Ok(mut e)) => {
                    let (_, fin) = timed(|| e.finalize());
                    let (_, artifacts) = timed(|| {
                        let h = e.threshold();
                        black_box((e.fraction_days_above(h), e.fraction_hours_above(h)));
                        black_box(e.elbow());
                        black_box(e.hourly_probability());
                        black_box(e.congested_series(0.10));
                        black_box(e.alerts().len());
                    });
                    out.layer("stream.finalize_s", fin);
                    out.check(
                        e.labels() == attached.labels()
                            && e.day_records() == attached.day_records()
                            && e.alerts() == attached.alerts(),
                        || {
                            "the engine restored from the final checkpoint finalizes differently"
                                .into()
                        },
                    );
                    (fin + artifacts, hwm)
                }
                _ => {
                    out.failures
                        .push("could not restore the stream engine".into());
                    (f64::NAN, hwm)
                }
            }
        }
    };
    out.e2e("analysis_s", analysis_s);
    out.e2e("peak_rss_mb", hwm_analysis);
    out.layer("mem.hwm_after_world_mb", hwm_world);
    out.layer("mem.hwm_after_campaign_mb", hwm_campaign);
    out.layer("mem.hwm_after_analysis_mb", hwm_analysis);

    // Output checks: seed-independent ones always, pins at the default
    // seed only.
    let pinned = seed == analysis::harness::PAPER_SEED;
    // Serializing the checkpoint takes about a second; only a pin needs it.
    let fnv = if pinned {
        checkpoint_fnv(&result)
    } else {
        String::new()
    };
    out.check(made == ARTIFACTS, || {
        format!("{made} of {ARTIFACTS} artifacts came out non-empty")
    });
    if let Some(engine) = engine.as_ref() {
        out.check(result.completeness.reconciles(), || {
            "completeness does not reconcile with the fault log".into()
        });
        let ca = topo_analysis(&mut result, &world);
        out.check(same_as_batch(engine, &ca), || {
            "stream day records or hourly labels differ from the batch analysis".into()
        });
        out.check(!pinned || fnv == pins::PAPER_STREAM_CHECKPOINT, || {
            format!("checkpoint {fnv} differs from the --jobs 1 pin")
        });
        batch_analysis = Some(ca);
    } else {
        let samples = batch_analysis.as_ref().map_or(0, |ca| ca.samples.len());
        out.check(result.db.points_written == result.tests_run, || {
            format!(
                "{} points ingested for {} tests",
                result.db.points_written, result.tests_run
            )
        });
        out.check(!pinned || result.tests_run == pins::PAPER_TESTS, || {
            format!("{} tests, pinned {}", result.tests_run, pins::PAPER_TESTS)
        });
        out.check(!pinned || fnv == pins::PAPER_BATCH_CHECKPOINT, || {
            format!("checkpoint {fnv} differs from the pin")
        });
        out.check(!pinned || samples == pins::PAPER_BATCH_SAMPLES, || {
            format!(
                "{samples} congestion samples, pinned {}",
                pins::PAPER_BATCH_SAMPLES
            )
        });
    }

    if trace {
        let points = flatten(&result.db.snapshot(), PAPER_SERVE_DAYS * 24 * HOUR);
        serve_step(&mut out, &world, points, seed, trace, stream);
        campaign_layers(&mut out, &obs, &result);
        out.layer("world.build_s", setup);
        path_layers(&mut out, &world, &result, seed, days);
        if let Some(engine) = engine.as_ref() {
            stream_stats(&mut out, engine);
            let ((), build) = timed(|| drop(black_box(topo_analysis(&mut result, &world))));
            let (_, figs) = timed(|| figures(&world, &mut result));
            out.layer("analysis.congestion_build_s", build);
            out.layer("analysis.figures_s", figs);
        }
    }
    // The worker exits right after reporting: skip freeing millions of
    // small allocations, seconds of teardown that no metric includes.
    drop(campaign);
    std::mem::forget((world, result, engine, batch_analysis));
    out
}

/// Whether the engine's day records and hourly labels equal the batch
/// analysis element by element (the check `clasp stream` makes).
fn same_as_batch(engine: &StreamEngine, ca: &CongestionAnalysis) -> bool {
    let days = ca.day_vars.len() == engine.day_records().len()
        && ca.day_vars.iter().zip(engine.day_records()).all(|(b, d)| {
            b.local_day == d.local_day
                && b.v == d.v
                && b.t_max == d.t_max
                && b.t_min == d.t_min
                && b.n == d.n
        });
    let hours = ca.samples.len() == engine.labels().len()
        && ca.samples.iter().zip(engine.labels()).all(|(b, l)| {
            b.series_idx == l.series_idx
                && b.time == l.time
                && b.local_hour == l.local_hour
                && b.value == l.value
                && b.v_h == l.v_h
        });
    days && hours
}
