//! The live-serving step: a campaign's points fed through the serve
//! front door while an open-loop reader queries the published
//! generations.
//!
//! Both sides speak the line protocol through `Client<LocalTransport>`
//! into `Server::handle_line` inside this process: no socket is
//! crossed, so the numbers exclude kernel networking.

use crate::openloop::OpenLoop;
use crate::sys::now;
use clasp_serve::proto::{ok_response, results_to_map};
use clasp_serve::{Client, CongestionSpec, LocalTransport, QuerySpec, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tsdb::{Aggregate, Point, Snapshot};

/// Points per ingest batch; with [`PUBLISH_EVERY`], the cadence of the
/// repository's `serve_load` bench.
pub const BATCH: usize = 512;
/// Ingest batches between publish barriers.
pub const PUBLISH_EVERY: usize = 4;
/// The reader's open-loop rate. It must sit below capacity, or the
/// latencies measure a growing backlog instead of the service: at
/// 100 q/s the reader is busy about a quarter of the time on a 30-day
/// slice on a 2-core machine, and the traced paper iterations serve
/// only 7 days.
pub const QUERY_RATE: f64 = 100.0;
/// Fewest queries a run issues, so that p95 has at least ten samples
/// beyond it (nearest rank: 220 samples leave 11).
const MIN_QUERIES: usize = 220;

/// One request of the reader's mix.
#[derive(Debug, Clone)]
enum ReadSpec {
    /// A tsdb query.
    Query(QuerySpec),
    /// The `congestion` verb.
    Congestion(CongestionSpec),
}

/// The reader's rotation: dashboard-shaped reads of one region each,
/// of varying cost, plus the congestion verb, which re-runs detection
/// on every new generation. Unscoped, the hourly query's response alone
/// is megabytes at 30 days and the reader cannot keep its rate.
fn reader_mix() -> Vec<ReadSpec> {
    vec![
        ReadSpec::Query(
            QuerySpec::select("speedtest", "download")
                .r#where("region", "us-west2")
                .group_by_time(3600)
                .aggregate(Aggregate::Percentile(95.0)),
        ),
        ReadSpec::Query(
            QuerySpec::select("speedtest", "upload")
                .r#where("region", "us-east4")
                .aggregate(Aggregate::Mean),
        ),
        ReadSpec::Query(
            QuerySpec::select("speedtest", "latency")
                .r#where("region", "us-central1")
                .group_by_time(86400)
                .aggregate(Aggregate::Percentile(5.0)),
        ),
        ReadSpec::Query(
            QuerySpec::select("speedtest", "download")
                .r#where("region", "us-west1")
                .aggregate(Aggregate::Count),
        ),
        ReadSpec::Congestion(
            CongestionSpec::analyze("speedtest", "download")
                .r#where("method", "topo")
                .r#where("region", "us-west2"),
        ),
    ]
}

/// The artifacts read once feeding is done: the reader's mix, each
/// made distinct from what the reader asked (an explicit end of range
/// past the last point; a stricter congested-series criterion) so none
/// is a cache hit.
fn final_mix(end: u64) -> Vec<ReadSpec> {
    reader_mix()
        .into_iter()
        .map(|s| match s {
            ReadSpec::Query(q) => ReadSpec::Query(q.time_range(0, end)),
            ReadSpec::Congestion(c) => ReadSpec::Congestion(c.min_day_fraction(0.25)),
        })
        .collect()
}

/// What the server must answer for `spec` at snapshot `snap`.
fn expected(spec: &ReadSpec, snap: &Snapshot) -> String {
    match spec {
        ReadSpec::Query(q) => ok_response(results_to_map(
            snap.generation(),
            &q.to_query().run_snapshot(snap),
        )),
        ReadSpec::Congestion(c) => ok_response(c.evaluate(snap).to_map(snap.generation())),
    }
}

fn call(client: &mut Client<LocalTransport>, spec: &ReadSpec) -> Option<String> {
    let r = match spec {
        ReadSpec::Query(q) => client.query(q),
        ReadSpec::Congestion(c) => client.congestion(c),
    };
    match r {
        Ok((_, raw)) => Some(raw),
        Err(e) => {
            eprintln!("perfbench: serve error: {e}");
            None
        }
    }
}

/// Everything one serving run measured.
#[derive(Debug)]
pub struct ServeRun {
    /// Duration of each ingest call (client encode, `handle_line`
    /// decode, staging), µs.
    pub ingest_call_us: Vec<f64>,
    /// Duration of each publish barrier (apply + `Db::snapshot`), ms.
    pub publish_ms: Vec<f64>,
    /// Per batch: from its ingest call to the end of the publish that
    /// made it visible, ms.
    pub freshness_ms: Vec<f64>,
    /// The reader's open-loop timings.
    pub reader: OpenLoop,
    /// Service time of each congestion request, ms.
    pub congestion_ms: Vec<f64>,
    /// Requests sent: ingests, publishes, reads and final reads.
    pub requests: u64,
    /// Error responses among them.
    pub errors: u64,
    /// Response-cache hits over lookups while feeding.
    pub cache_hit_ratio: f64,
    /// Points in the last published snapshot.
    pub published_points: u64,
    /// `Db::insert_batch` calls the server's database saw.
    pub insert_batches: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

/// Splits a time-ordered point stream into ingest batches.
pub fn batches(points: Vec<Point>) -> Vec<Vec<Point>> {
    let mut out = Vec::with_capacity(points.len().div_ceil(BATCH));
    let mut it = points.into_iter().peekable();
    while it.peek().is_some() {
        out.push(it.by_ref().take(BATCH).collect());
    }
    out
}

fn reader(server: Arc<Server>, done: &AtomicBool) -> (OpenLoop, Vec<f64>, u64) {
    let mut client = Client::new("reader", LocalTransport::new(server));
    let mix = reader_mix();
    let mut ol = OpenLoop::new(QUERY_RATE);
    let mut congestion_ms = Vec::new();
    let mut errors = 0;
    let t0 = now();
    let mut i = 0;
    while i < MIN_QUERIES || !done.load(Ordering::Acquire) {
        let wait = ol.due_s(i) - t0.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        let sent = t0.elapsed().as_secs_f64();
        let spec = &mix[i % mix.len()];
        let ok = call(&mut client, spec).is_some();
        let end = t0.elapsed().as_secs_f64();
        ol.record(i, sent, end);
        if matches!(spec, ReadSpec::Congestion(_)) {
            congestion_ms.push((end - sent) * 1e3);
        }
        errors += u64::from(!ok);
        i += 1;
    }
    (ol, congestion_ms, errors)
}

/// Feeds `batches` through one feeder client, publishing every
/// [`PUBLISH_EVERY`] batches, while one reader thread runs the
/// open-loop mix; then reads the final artifacts and checks them.
pub fn run(batches: Vec<Vec<Point>>, seed: u64) -> ServeRun {
    let server = Arc::new(Server::new(ServerConfig {
        seed,
        ..ServerConfig::default()
    }));
    let done = AtomicBool::new(false);
    let n_batches = batches.len();
    let fed_points: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let end = batches
        .iter()
        .flatten()
        .map(|p| p.time + 1)
        .max()
        .unwrap_or(1);
    let mut ingest_call_us = Vec::with_capacity(n_batches);
    let mut publish_ms = Vec::with_capacity(n_batches / PUBLISH_EVERY + 1);
    let mut freshness_ms = Vec::with_capacity(n_batches);
    let mut errors = 0u64;
    let mut requests = 0u64;

    let (reader_loop, congestion_ms, reader_errors) = std::thread::scope(|scope| {
        let handle = scope.spawn(|| reader(Arc::clone(&server), &done));
        let mut feeder = Client::new("feeder", LocalTransport::new(Arc::clone(&server)));
        let mut pending = Vec::with_capacity(PUBLISH_EVERY);
        for (b, batch) in batches.into_iter().enumerate() {
            let t = now();
            if let Err(e) = feeder.ingest(batch) {
                eprintln!("perfbench: ingest error: {e}");
                errors += 1;
            }
            ingest_call_us.push(t.elapsed().as_secs_f64() * 1e6);
            requests += 1;
            pending.push(t);
            if (b + 1) % PUBLISH_EVERY == 0 || b + 1 == n_batches {
                let tp = now();
                if let Err(e) = feeder.publish() {
                    eprintln!("perfbench: publish error: {e}");
                    errors += 1;
                }
                let visible = now();
                requests += 1;
                publish_ms.push((visible - tp).as_secs_f64() * 1e3);
                for t in pending.drain(..) {
                    freshness_ms.push((visible - t).as_secs_f64() * 1e3);
                }
            }
        }
        done.store(true, Ordering::Release);
        handle.join().expect("reader thread panicked")
    });
    requests += reader_loop.latency_ms.len() as u64;
    errors += reader_errors;

    let snap = server.snapshot();
    let mut failures = Vec::new();
    if snap.points() != fed_points {
        failures.push(format!(
            "published {} points, fed {fed_points}",
            snap.points()
        ));
    }
    let cache = server.cache_stats();
    let mut client = Client::new("final", LocalTransport::new(Arc::clone(&server)));
    let finals = final_mix(end);
    requests += finals.len() as u64;
    for (k, spec) in finals.iter().enumerate() {
        match call(&mut client, spec) {
            None => errors += 1,
            Some(got) if got != expected(spec, &snap) => failures.push(format!(
                "final response {k} differs from the snapshot's answer"
            )),
            Some(_) => {}
        }
    }
    ServeRun {
        ingest_call_us,
        publish_ms,
        freshness_ms,
        reader: reader_loop,
        congestion_ms,
        requests,
        errors,
        cache_hit_ratio: cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        published_points: snap.points(),
        insert_batches: server.db_stats().insert_batches,
        failures,
    }
}
