//! Differential tests for `--jobs N`: a parallel campaign must be
//! *bit-identical* to the serial run — every checkpoint byte-for-byte,
//! every fault id, every completeness tally, every analysis float — in
//! batch and streaming mode, with and without fault injection, and
//! across a serial-checkpoint → parallel-resume cut (and vice versa).

use clasp_core::campaign::{Campaign, CampaignConfig, CampaignResult};
use clasp_core::congestion::CongestionAnalysis;
use clasp_core::world::World;
use clasp_stream::{EngineConfig, EngineStats, StreamEngine, ThresholdMode};
use faultsim::FaultPlan;
use proptest::prelude::*;

fn config(seed: u64) -> CampaignConfig {
    let mut c = CampaignConfig::small(seed);
    c.days = 3;
    c.diff_days = 1;
    c
}

fn engine_cfg() -> EngineConfig {
    EngineConfig {
        threshold: ThresholdMode::Fixed(0.5),
        ..EngineConfig::paper()
    }
}

/// Full result comparison: scalar counters, ground truth, and every
/// intermediate checkpoint (which embed billing's f64 meters and the
/// raw bucket snapshots) byte-for-byte.
fn assert_identical(serial: &CampaignResult, par: &CampaignResult, label: &str) {
    assert_eq!(serial.tests_run, par.tests_run, "{label}");
    assert_eq!(serial.tainted_tests, par.tainted_tests, "{label}");
    assert_eq!(serial.vm_count, par.vm_count, "{label}");
    assert_eq!(serial.raw_objects, par.raw_objects, "{label}");
    assert_eq!(serial.db.points_written, par.db.points_written, "{label}");
    assert_eq!(serial.db.series_count(), par.db.series_count(), "{label}");
    assert_eq!(serial.fault_log, par.fault_log, "{label}");
    assert_eq!(serial.completeness, par.completeness, "{label}");
    assert_eq!(
        serial.billing.total_usd().to_bits(),
        par.billing.total_usd().to_bits(),
        "{label}"
    );
    assert_eq!(serial.checkpoints.len(), par.checkpoints.len(), "{label}");
    for (a, b) in serial.checkpoints.iter().zip(&par.checkpoints) {
        assert_eq!(
            serde_json::to_string(a),
            serde_json::to_string(b),
            "{label}"
        );
    }
}

/// The batch congestion analysis over both databases must agree on
/// every float, bit for bit.
fn assert_analyses_identical(serial: &mut CampaignResult, par: &mut CampaignResult, world: &World) {
    let filters = vec![("method".to_string(), "topo".to_string())];
    let a = CongestionAnalysis::build(&mut serial.db, world, "download", &filters);
    let b = CongestionAnalysis::build(&mut par.db, world, "download", &filters);
    assert_eq!(a.series.len(), b.series.len());
    assert_eq!(a.day_vars.len(), b.day_vars.len());
    for (x, y) in a.day_vars.iter().zip(&b.day_vars) {
        assert_eq!(x.series, y.series);
        assert_eq!(x.local_day, y.local_day);
        assert_eq!(x.v.to_bits(), y.v.to_bits());
        assert_eq!(x.t_max.to_bits(), y.t_max.to_bits());
        assert_eq!(x.t_min.to_bits(), y.t_min.to_bits());
        assert_eq!(x.n, y.n);
    }
    assert_eq!(a.samples.len(), b.samples.len());
    for (x, y) in a.samples.iter().zip(&b.samples) {
        assert_eq!(x.series_idx, y.series_idx);
        assert_eq!(x.time, y.time);
        assert_eq!(x.value.to_bits(), y.value.to_bits());
        assert_eq!(x.v_h.to_bits(), y.v_h.to_bits());
    }
}

#[test]
fn batch_parallel_equals_serial_without_faults() {
    let world = World::new(91);
    let cfg = config(91);
    let mut serial = Campaign::new(&world, cfg.clone())
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    for jobs in [2, 4] {
        let mut pcfg = cfg.clone();
        pcfg.jobs = jobs;
        let mut par = Campaign::new(&world, pcfg)
            .runner()
            .run()
            .expect("fresh runs cannot fail");
        assert_identical(&serial, &par, &format!("jobs={jobs}"));
        assert_analyses_identical(&mut serial, &mut par, &world);
    }
}

#[test]
fn batch_parallel_equals_serial_under_gcp_2020_faults() {
    let world = World::new(92);
    let mut cfg = config(92);
    cfg.fault_plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");
    let serial = Campaign::new(&world, cfg.clone())
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    assert!(!serial.fault_log.is_empty(), "profile injected no faults");
    for jobs in [2, 4] {
        let mut pcfg = cfg.clone();
        pcfg.jobs = jobs;
        let par = Campaign::new(&world, pcfg)
            .runner()
            .run()
            .expect("fresh runs cannot fail");
        assert_identical(&serial, &par, &format!("jobs={jobs}"));
    }
}

/// Streaming mode: the engine consumes the merged, canonically-ordered
/// point stream, so its whole state — labels, alerts, health counters —
/// must come out byte-identical (snapshot JSON) to the serial run's.
#[test]
fn streaming_parallel_equals_serial() {
    let world = World::new(93);
    let mut cfg = config(93);
    cfg.fault_plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");

    let campaign = Campaign::new(&world, cfg.clone());
    let mut serial_engine: StreamEngine = campaign.stream_engine(engine_cfg());
    let serial = campaign
        .runner()
        .streaming(&mut serial_engine)
        .run()
        .expect("fresh runs cannot fail");

    for jobs in [2, 4] {
        let mut pcfg = cfg.clone();
        pcfg.jobs = jobs;
        let pcampaign = Campaign::new(&world, pcfg);
        let mut par_engine = pcampaign.stream_engine(engine_cfg());
        let par = pcampaign
            .runner()
            .streaming(&mut par_engine)
            .run()
            .expect("fresh runs cannot fail");
        assert_identical(&serial, &par, &format!("jobs={jobs}"));
        assert_eq!(serial_engine.stats(), par_engine.stats(), "jobs={jobs}");
        assert_eq!(
            serde_json::to_string(&serial_engine.snapshot()),
            serde_json::to_string(&par_engine.snapshot()),
            "jobs={jobs}"
        );
    }
}

/// Checkpoints cross execution modes: a serial run's checkpoint resumed
/// in parallel — and a parallel run's checkpoint resumed serially —
/// both land on the uninterrupted run's final state.
#[test]
fn checkpoints_cross_serial_and_parallel_resume() {
    let world = World::new(94);
    let mut cfg = config(94);
    cfg.fault_plan = FaultPlan::builtin("moderate").expect("built-in profile");
    let full = Campaign::new(&world, cfg.clone())
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    assert!(full.checkpoints.len() >= 2, "need a mid-run checkpoint");

    // Serial checkpoint → parallel resume.
    let mut pcfg = cfg.clone();
    pcfg.jobs = 4;
    let par = Campaign::new(&world, pcfg.clone())
        .runner()
        .resume_from(&full.checkpoints[0])
        .run()
        .expect("resume succeeds");
    assert_identical(&full, &par, "serial->parallel");

    // Parallel run from scratch, cut at its own checkpoint, resumed
    // serially.
    let par_full = Campaign::new(&world, pcfg)
        .runner()
        .run()
        .expect("fresh runs cannot fail");
    let resumed = Campaign::new(&world, cfg)
        .runner()
        .resume_from(&par_full.checkpoints[0])
        .run()
        .expect("resume succeeds");
    assert_identical(&par_full, &resumed, "parallel->serial");
}

/// A streaming run checkpointed serially resumes under `--jobs 4` with
/// byte-identical engine state.
#[test]
fn streaming_checkpoint_resumes_in_parallel() {
    let world = World::new(95);
    let cfg = config(95);
    let campaign = Campaign::new(&world, cfg.clone());
    let mut full_engine = campaign.stream_engine(engine_cfg());
    let full = campaign
        .runner()
        .streaming(&mut full_engine)
        .run()
        .expect("fresh runs cannot fail");
    let ckpt = &full.checkpoints[0];
    assert!(ckpt.get("stream").is_some());

    let mut pcfg = cfg;
    pcfg.jobs = 4;
    let pcampaign = Campaign::new(&world, pcfg);
    let mut resumed_engine = pcampaign
        .restore_stream_engine(engine_cfg(), ckpt)
        .expect("snapshot restores");
    let resumed = pcampaign
        .runner()
        .resume_from(ckpt)
        .streaming(&mut resumed_engine)
        .run()
        .expect("resume succeeds");

    assert_identical(&full, &resumed, "stream serial->parallel");
    assert_eq!(full_engine.stats(), resumed_engine.stats());
    assert_eq!(
        serde_json::to_string(&full_engine.snapshot()),
        serde_json::to_string(&resumed_engine.snapshot())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Bit-identity holds for arbitrary seeds, campaign lengths, fault
    /// rates and job counts — on the tiny world so each case stays
    /// test-suite cheap.
    #[test]
    fn parallel_equals_serial_for_any_seed(
        seed in 0u64..1_000,
        days in 2u64..4,
        jobs in 2usize..6,
        inject in 0u8..2,
    ) {
        let world = World::tiny(seed);
        let mut cfg = CampaignConfig::small(seed);
        cfg.days = days;
        cfg.diff_days = 1;
        if inject == 1 {
            cfg.fault_plan = FaultPlan::uniform(seed ^ 0xfa, 0.02);
        }
        let serial = Campaign::new(&world, cfg.clone()).runner().run().expect("fresh runs cannot fail");
        let mut pcfg = cfg;
        pcfg.jobs = jobs;
        let par = Campaign::new(&world, pcfg).runner().run().expect("fresh runs cannot fail");
        prop_assert_eq!(serial.tests_run, par.tests_run);
        prop_assert_eq!(serial.fault_log, par.fault_log);
        prop_assert_eq!(serial.completeness, par.completeness);
        prop_assert_eq!(serial.checkpoints.len(), par.checkpoints.len());
        for (a, b) in serial.checkpoints.iter().zip(&par.checkpoints) {
            prop_assert_eq!(
                serde_json::to_string(a),
                serde_json::to_string(b)
            );
        }
    }
}

/// FNV-1a 64 over every checkpoint of a run (`"stream"` sections
/// included), each serialized canonically and folded in order.
fn checkpoints_fnv(result: &CampaignResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in &result.checkpoints {
        for b in serde_json::to_string(c).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

const PIN_SEED: u64 = 96;

/// Fingerprint of every checkpoint of the faulted streaming campaign
/// below, and the engine's final counters. Captured at commit 3fce170,
/// where an un-observed `--jobs 1` run still took the dedicated serial
/// loop; the phased engine must land on the same bytes at every job
/// count and across a resume.
const PIN_CHECKPOINTS_FNV: u64 = 0x80b2_f8e6_6551_6d59;
const PIN_ENGINE_STATS: EngineStats = EngineStats {
    events_seen: 1920,
    points_matched: 1152,
    days_closed: 60,
    labels_emitted: 1152,
    out_of_order: 0,
    duplicates: 0,
    gap_hours: 0,
    late_dropped: 0,
    bus_overflow: 0,
    window_updates: 1152,
    recalibrations: 0,
    alert_transitions: 44,
};

#[test]
fn faulted_streaming_campaign_matches_serial_pin() {
    let world = World::tiny(PIN_SEED);
    let mut cfg = CampaignConfig::small(PIN_SEED);
    cfg.fault_plan = FaultPlan::builtin("gcp-2020").expect("built-in profile");
    let mut first = None;
    for jobs in [1, 2, 4] {
        let campaign = Campaign::new(&world, cfg.clone());
        let mut engine = campaign.stream_engine(EngineConfig::paper());
        let result = campaign
            .runner()
            .jobs(jobs)
            .streaming(&mut engine)
            .run()
            .expect("fresh runs cannot fail");
        assert!(!result.fault_log.is_empty(), "profile injected no faults");
        assert_eq!(checkpoints_fnv(&result), PIN_CHECKPOINTS_FNV, "jobs={jobs}");
        assert_eq!(engine.stats(), &PIN_ENGINE_STATS, "jobs={jobs}");
        first.get_or_insert(result);
    }
    let ckpt = &first.expect("ran at least once").checkpoints[0];
    assert!(ckpt.get("stream").is_some());
    let campaign = Campaign::new(&world, cfg);
    let mut engine = campaign
        .restore_stream_engine(EngineConfig::paper(), ckpt)
        .expect("snapshot restores");
    let resumed = campaign
        .runner()
        .resume_from(ckpt)
        .streaming(&mut engine)
        .run()
        .expect("resume succeeds");
    assert_eq!(checkpoints_fnv(&resumed), PIN_CHECKPOINTS_FNV, "resume");
    assert_eq!(engine.stats(), &PIN_ENGINE_STATS, "resume");
}
