//! perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_batch|paper_stream> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Workloads and metrics are declared in
//! `BENCHMARK.json`, which is validated first. Each measured iteration
//! runs in a fresh child process (this executable with `--worker`): a
//! second paper campaign in one process takes about twice as long as
//! the first, and `VmHWM` is a per-process high-water mark. The parent
//! keeps starting iterations while the next one fits in `--seconds`.
//! It reports `setup_s` and every per-layer metric as a median, and the
//! other end-to-end metrics as the quartile on their better side (see
//! `stats::better_quartile`): on a shared host a paper campaign's time
//! swings by a fifth between fresh processes, and a neighbour can only
//! slow it down. An iteration whose output checks fail counts as failed
//! and is not timed.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced iterations and prints the per-layer metrics of
//! the traced ones, plus `trace.overhead_frac`: traced over untraced
//! median `campaign_s`, minus one. At `--jobs 1` an observer sends the
//! campaign from its serial path to the phased one, so on `paper_batch`
//! that fraction measures a different execution path plus the
//! observer's cost, not the observer alone.

#![forbid(unsafe_code)]

mod openloop;
mod serve;
mod spec;
mod stats;
mod sys;
mod workloads;

use serde_json::{Map, Value};
use std::process::{Command, ExitCode, Stdio};
use sys::now;

/// Set-up samples every untraced run collects at least, topping up
/// with set-up-only children when few full iterations fit.
const MIN_SETUP_SAMPLES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    worker: bool,
    setup_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: analysis::harness::PAPER_SEED,
        seconds: 60,
        trace: false,
        worker: false,
        setup_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--worker" => args.worker = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            workloads::WORKLOADS
        ));
    }
    Ok(args)
}

fn to_object(m: &std::collections::BTreeMap<String, f64>) -> Value {
    Value::Object(
        m.iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect(),
    )
}

/// Worker side: one iteration, reported as one JSON line.
fn worker(args: &Args) -> ExitCode {
    let out = if args.setup_only {
        workloads::setup_only(args.seed)
    } else {
        workloads::run(&args.workload, args.seed, args.trace)
    };
    let mut m = Map::new();
    m.insert("e2e".into(), to_object(&out.e2e));
    m.insert("layer".into(), to_object(&out.layer));
    m.insert("ops".into(), out.ops.into());
    m.insert(
        "failed_ops".into(),
        (out.failed_ops + u64::from(!out.failures.is_empty())).into(),
    );
    m.insert(
        "failures".into(),
        Value::Array(out.failures.iter().map(|f| f.as_str().into()).collect()),
    );
    println!("{}", serde_json::to_string(&Value::Object(m)));
    ExitCode::SUCCESS
}

/// One finished child iteration.
struct Iteration {
    traced: bool,
    setup_only: bool,
    wall_s: f64,
    ok: bool,
    ops: u64,
    failed_ops: u64,
    e2e: Map,
    layer: Map,
}

fn spawn(args: &Args, traced: bool, setup_only: bool) -> Result<Iteration, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--worker", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if setup_only {
        cmd.arg("--setup-only");
    }
    let t = now();
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let wall_s = t.elapsed().as_secs_f64();
    eprintln!(
        "perfbench: {} iteration took {wall_s:.2} s",
        match (setup_only, traced) {
            (true, _) => "set-up",
            (false, true) => "traced",
            (false, false) => "untraced",
        }
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = output
        .status
        .success()
        .then(|| stdout.lines().last().map(serde_json::from_str))
        .flatten()
        .and_then(Result::ok);
    let Some(v) = parsed else {
        eprintln!("perfbench: iteration exited with {}", output.status);
        return Ok(Iteration {
            traced,
            setup_only,
            wall_s,
            ok: false,
            ops: 1,
            failed_ops: 1,
            e2e: Map::new(),
            layer: Map::new(),
        });
    };
    let failures = v
        .get("failures")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    for f in &failures {
        eprintln!("perfbench: check failed: {}", f.as_str().unwrap_or("?"));
    }
    let count = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let map = |k: &str| {
        v.get(k)
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_default()
    };
    let failed_ops = count("failed_ops");
    Ok(Iteration {
        traced,
        setup_only,
        wall_s,
        ok: failed_ops == 0,
        ops: count("ops").max(1),
        failed_ops,
        e2e: map("e2e"),
        layer: map("layer"),
    })
}

fn samples(iters: &[&Iteration], pick: impl Fn(&Iteration) -> Option<f64>) -> Vec<f64> {
    iters
        .iter()
        .filter_map(|i| pick(i))
        .filter(|x| x.is_finite())
        .collect()
}

fn median_of(iters: &[&Iteration], pick: impl Fn(&Iteration) -> Option<f64>) -> Option<f64> {
    stats::median(&samples(iters, pick))
}

fn parent(args: &Args) -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let spec = spec::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if !spec.workloads.contains(&args.workload) {
        return Err(format!(
            "{} is not declared in BENCHMARK.json",
            args.workload
        ));
    }
    let env = sys::environment(
        &args.workload,
        args.seed,
        workloads::jobs(&args.workload),
        serve::QUERY_RATE,
    );
    println!("environment {}", serde_json::to_string(&env));
    if args.trace {
        println!(
            "transport: Client<LocalTransport> into Server::handle_line in one process; \
             no socket is crossed"
        );
    }
    if args.trace && workloads::jobs(&args.workload) == 1 {
        println!(
            "note: an observer sends a --jobs 1 campaign from its serial path to the \
             phased one, so trace.overhead_frac here is that path change plus the \
             observer's cost"
        );
    }

    let start = now();
    let mut iters: Vec<Iteration> = Vec::new();
    loop {
        let traced = args.trace && iters.len() % 2 == 1;
        iters.push(spawn(args, traced, false)?);
        let walls: Vec<f64> = iters.iter().map(|i| i.wall_s).collect();
        let next = stats::median(&walls).unwrap_or(0.0);
        let enough = !args.trace || iters.len() >= 2;
        if enough && start.elapsed().as_secs_f64() + next > args.seconds as f64 {
            break;
        }
    }
    if !args.trace {
        while iters.len() < MIN_SETUP_SAMPLES {
            iters.push(spawn(args, false, true)?);
        }
    }
    let attempted: u64 = iters.iter().map(|i| i.ops).sum();
    let failed: u64 = iters.iter().map(|i| i.failed_ops).sum();
    let ok: Vec<&Iteration> = iters.iter().filter(|i| i.ok).collect();
    let full = |traced: bool| -> Vec<&Iteration> {
        ok.iter()
            .copied()
            .filter(|i| !i.setup_only && i.traced == traced)
            .collect()
    };
    let (untraced, traced) = (full(false), full(true));
    let get = |m: &Map, k: &str| m.get(k).and_then(Value::as_f64);

    let mut metrics = Map::new();
    let mut missing = Vec::new();
    let (declared, pool) = if args.trace {
        (&spec.per_layer, &traced)
    } else {
        (&spec.end_to_end, &untraced)
    };
    for m in declared {
        let value = match m.name.as_str() {
            "setup_s" => median_of(&ok, |i| get(&i.e2e, "setup_s")),
            "trace.overhead_frac" => {
                let on = median_of(&traced, |i| get(&i.e2e, "campaign_s"));
                let off = median_of(&untraced, |i| get(&i.e2e, "campaign_s"));
                on.zip(off).map(|(on, off)| on / off - 1.0)
            }
            name if args.trace => median_of(pool, |i| get(&i.layer, name)),
            name => {
                stats::better_quartile(&samples(pool, |i| get(&i.e2e, name)), m.lower_is_better)
            }
        };
        match value {
            Some(v) => {
                println!("{:<34} {:>16.6} {}", m.name, v, m.unit);
                let mut entry = Map::new();
                entry.insert("value".into(), v.into());
                entry.insert("unit".into(), m.unit.as_str().into());
                metrics.insert(m.name.clone(), Value::Object(entry));
            }
            None => missing.push(m.name.clone()),
        }
    }
    println!(
        "iterations: {} ({} ok, {} traced), {attempted} operations, {failed} failed",
        iters.len(),
        ok.len(),
        traced.len()
    );
    if !missing.is_empty() {
        eprintln!("perfbench: no measurement for {missing:?}");
    }
    let correct = failed == 0 && missing.is_empty();
    let mut result = Map::new();
    result.insert("correct".into(), correct.into());
    result.insert("attempted".into(), attempted.into());
    result.insert("failed".into(), failed.into());
    result.insert("metrics".into(), Value::Object(metrics));
    println!("{}", serde_json::to_string(&Value::Object(result)));
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.worker {
        return worker(&args);
    }
    match parent(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
