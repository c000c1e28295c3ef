//! Service-level guarantees: panic isolation, queue health after
//! sabotage, backpressure, and cooperative cancellation (including
//! cancellation raised in the middle of a committed recovery).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

use ftsg_core::app::keys;
use ftsg_core::config::{AppConfig, AppEvent, AppObserver, Technique};
use ftsg_core::run_app;
use ftsg_service::{
    CustomOutput, JobEvent, JobId, JobOutput, JobSpec, JobState, Service, ServiceConfig,
    SubmitError,
};
use ulfm_sim::{run, FaultPlan, RunConfig};

fn collect_events(rx: Receiver<JobEvent>) -> Vec<JobEvent> {
    rx.try_iter().collect()
}

/// The heart of the tentpole: sabotaged jobs land `Failed` with their
/// payload, every sibling completes, the queue drains, and the pool
/// stays usable afterwards.
#[test]
fn panic_isolation_exactly_the_sabotaged_jobs_fail() {
    let (svc, rx) = Service::start(ServiceConfig { workers: 3, queue_depth: 16 });

    let mut good = Vec::new();
    let mut bad = Vec::new();
    for i in 0..9 {
        if i % 3 == 1 {
            let id = svc
                .submit(JobSpec::sabotage(format!("bad-{i}"), format!("boom-{i}")))
                .expect("submit");
            bad.push((i, id));
        } else {
            let id = svc
                .submit(JobSpec::custom(format!("good-{i}"), move |_jc| {
                    Ok(Box::new(i * 10) as CustomOutput)
                }))
                .expect("submit");
            good.push((i, id));
        }
    }
    svc.drain();
    assert_eq!(svc.open_jobs(), 0, "queue must fully drain despite panics");

    for (i, id) in &bad {
        match svc.state(*id) {
            Some(JobState::Failed(msg)) => {
                assert!(
                    msg.contains(&format!("boom-{i}")),
                    "panic payload must survive to the job state, got {msg:?}"
                );
            }
            other => panic!("sabotaged job {id} should be Failed, got {other:?}"),
        }
    }
    for (i, id) in &good {
        assert_eq!(svc.state(*id), Some(JobState::Done), "sibling {id} must complete");
        match svc.take_output(*id) {
            Some(JobOutput::Custom(out)) => {
                assert_eq!(*out.downcast::<i32>().expect("i32 output"), i * 10);
            }
            other => panic!("expected custom output for {id}, got none: {:?}", other.is_some()),
        }
    }

    // The pool is still healthy: a job submitted after the sabotage runs.
    let late = svc.submit(JobSpec::custom("late", |_jc| Ok(Box::new(7u8) as CustomOutput)));
    let late = late.expect("submit after sabotage");
    assert_eq!(svc.wait(late), Some(JobState::Done));

    svc.shutdown();
    let events = collect_events(rx);
    let failed: Vec<JobId> = events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Failed { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    let mut expect: Vec<JobId> = bad.iter().map(|(_, id)| *id).collect();
    expect.sort();
    let mut got = failed.clone();
    got.sort();
    assert_eq!(got, expect, "exactly the sabotaged jobs emit Failed events");
    // Per-job ordering: terminal event is last for every job.
    for (_, id) in bad.iter().chain(good.iter()) {
        let mine: Vec<&JobEvent> = events.iter().filter(|e| e.id() == *id).collect();
        assert!(mine.last().expect("events for job").is_terminal());
    }
}

/// A solve whose simulated world runs the real fault-tolerant
/// application completes as a service job, streaming progress events.
#[test]
fn solve_job_completes_and_streams_progress() {
    let (svc, rx) = Service::start(ServiceConfig { workers: 2, queue_depth: 8 });
    let cfg = AppConfig::small(Technique::CheckpointRestart);
    let id = svc.submit(JobSpec::solve("cr-clean", cfg, 42)).expect("submit");
    assert_eq!(svc.wait(id), Some(JobState::Done));
    let Some(JobOutput::Solve(report)) = svc.take_output(id) else {
        panic!("solve output missing");
    };
    assert!(report.app_errors.is_empty());
    assert!(report.makespan > 0.0);
    svc.shutdown();
    let events = collect_events(rx);
    assert!(
        events.iter().any(|e| matches!(e, JobEvent::Progress { .. })),
        "epoch boundaries must stream as Progress events"
    );
    assert!(events.iter().any(|e| matches!(e, JobEvent::Done { makespan, .. } if *makespan > 0.0)));
}

/// A solve that loses ranks mid-run streams `Recovered` and still lands
/// `Done` — failures inside the simulated world are the application's
/// business, not job failures.
#[test]
fn solve_job_with_faults_recovers_and_completes() {
    let (svc, rx) = Service::start(ServiceConfig { workers: 1, queue_depth: 4 });
    let cfg =
        AppConfig::small(Technique::CheckpointRestart).with_plan(FaultPlan::new(vec![(3, 12)]));
    let id = svc.submit(JobSpec::solve("cr-faulty", cfg, 7)).expect("submit");
    assert_eq!(svc.wait(id), Some(JobState::Done));
    let Some(JobOutput::Solve(report)) = svc.take_output(id) else {
        panic!("solve output missing");
    };
    assert_eq!(report.procs_failed, 1);
    svc.shutdown();
    let events = collect_events(rx);
    assert!(
        events.iter().any(|e| matches!(e, JobEvent::Recovered { ranks, .. } if *ranks == 1)),
        "committed recovery must stream as a Recovered event"
    );
}

/// d = 3 solves launch the world of the d-dimensional layout: a healthy
/// job lands `Done` with the combined error of the same run made
/// directly, and a job that loses a rank recovers and lands `Done`.
#[test]
fn d3_solve_jobs_complete() {
    let cfg = AppConfig::small_nd(Technique::AlternateCombination, 3);
    let world = cfg.world_size(cfg.layout_world_size());
    let direct_cfg = cfg.clone();
    let direct = run(RunConfig::local(world).with_seed(5), move |ctx| run_app(&direct_cfg, ctx));
    direct.assert_no_app_errors();

    let (svc, _rx) = Service::start(ServiceConfig { workers: 2, queue_depth: 4 });
    let healthy = svc.submit(JobSpec::solve("ac-d3", cfg, 5)).expect("submit");
    let faulty_cfg = AppConfig::small_nd(Technique::CheckpointRestart, 3)
        .with_plan(FaultPlan::new(vec![(3, 6)]));
    let faulty = svc.submit(JobSpec::solve("cr-d3-faulty", faulty_cfg, 7)).expect("submit");
    assert_eq!(svc.wait(healthy), Some(JobState::Done));
    assert_eq!(svc.wait(faulty), Some(JobState::Done));
    let Some(JobOutput::Solve(report)) = svc.take_output(healthy) else {
        panic!("solve output missing");
    };
    let bits = |r: &ulfm_sim::Report| r.get_f64(keys::ERR_L1).map(f64::to_bits);
    assert!(bits(&report).is_some());
    assert_eq!(bits(&report), bits(&direct), "service and direct d3 runs must agree bitwise");
    let Some(JobOutput::Solve(report)) = svc.take_output(faulty) else {
        panic!("solve output missing");
    };
    assert_eq!(report.procs_failed, 1);
    svc.shutdown();
}

/// Cancellation raised *during* a recovery round: the caller's observer
/// flips the token synchronously inside rank 0's `Recovered` callback, so
/// the very next epoch-boundary poll sees it. The job must finish the
/// committed recovery, then land `Cancelled` — with the report showing
/// both the repaired failure and the cancellation marker.
#[test]
fn cancellation_mid_recovery_lands_cancelled_not_failed() {
    let (svc, rx) = Service::start(ServiceConfig { workers: 1, queue_depth: 4 });
    let token = Arc::new(AtomicBool::new(false));
    // 64 steps, 4 checkpoints -> detection boundaries every 16 steps.
    // Kill rank 3 at step 20: detected at 32, recovered, then epochs 48
    // and 64 remain — the poll at 48 must observe the token.
    let mut cfg = AppConfig::small(Technique::CheckpointRestart)
        .with_plan(FaultPlan::new(vec![(3, 20)]))
        .with_checkpoints(4);
    cfg.log2_steps = 6;
    let flip = Arc::clone(&token);
    let cfg = cfg.with_observer(AppObserver::new(move |ev| {
        if matches!(ev, AppEvent::Recovered { .. }) {
            flip.store(true, Ordering::Relaxed);
        }
    }));
    let id = svc
        .submit(JobSpec::solve("cr-cancel-mid-recovery", cfg, 11).with_cancel_token(token))
        .expect("submit");
    assert_eq!(svc.wait(id), Some(JobState::Cancelled));
    let Some(JobOutput::Solve(report)) = svc.take_output(id) else {
        panic!("cancelled solves keep their report");
    };
    assert!(report.app_errors.is_empty(), "cancellation is quiet: {:?}", report.app_errors);
    assert_eq!(report.procs_failed, 1, "the injected failure was really repaired");
    assert_eq!(
        report.get_f64(ftsg_core::app::keys::CANCELLED),
        Some(1.0),
        "rank 0 reports the cancellation marker"
    );
    svc.shutdown();
    let events = collect_events(rx);
    assert!(events.iter().any(|e| matches!(e, JobEvent::Recovered { .. })));
    assert!(events.iter().any(|e| matches!(e, JobEvent::Cancelled { .. })));
    assert!(!events.iter().any(|e| matches!(e, JobEvent::Failed { .. })));
}

/// A job cancelled while still queued never starts: no `Started` event,
/// terminal state `Cancelled`.
#[test]
fn cancelling_a_queued_job_prevents_it_from_starting() {
    let (svc, rx) = Service::start(ServiceConfig { workers: 1, queue_depth: 4 });
    let gate = Arc::new(AtomicBool::new(false));
    let hold = Arc::clone(&gate);
    let blocker = svc
        .submit(JobSpec::custom("blocker", move |_jc| {
            while !hold.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Box::new(()) as CustomOutput)
        }))
        .expect("submit blocker");
    let victim = svc
        .submit(JobSpec::custom("victim", |_jc| Ok(Box::new(()) as CustomOutput)))
        .expect("submit victim");
    assert!(svc.cancel(victim), "cancelling a queued job succeeds");
    gate.store(true, Ordering::Relaxed);
    assert_eq!(svc.wait(blocker), Some(JobState::Done));
    assert_eq!(svc.wait(victim), Some(JobState::Cancelled));
    svc.shutdown();
    let events = collect_events(rx);
    assert!(
        !events.iter().any(|e| matches!(e, JobEvent::Started { id } if *id == victim)),
        "a queued-cancelled job must never emit Started"
    );
}

/// `try_submit` refuses (and returns the spec) once the bounded queue is
/// full; blocking `submit` then applies backpressure until a slot frees.
#[test]
fn try_submit_signals_backpressure_when_the_queue_is_full() {
    let (svc, _rx) = Service::start(ServiceConfig { workers: 1, queue_depth: 1 });
    let gate = Arc::new(AtomicBool::new(false));
    let hold = Arc::clone(&gate);
    let blocker = svc
        .submit(JobSpec::custom("blocker", move |_jc| {
            while !hold.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(Box::new(()) as CustomOutput)
        }))
        .expect("submit blocker");
    // Give the single worker a moment to pick the blocker up, then fill
    // the depth-1 queue; the next try_submit must refuse.
    let mut filler = JobSpec::custom("filler", |_jc| Ok(Box::new(()) as CustomOutput));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let filler_id = loop {
        match svc.try_submit(filler) {
            Ok(id) => break id,
            Err(SubmitError::Full(spec)) => {
                assert!(std::time::Instant::now() < deadline, "queue never accepted filler");
                filler = spec;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    };
    // Depth-1 queue now holds the filler (worker is busy on the
    // blocker): a further try_submit sees Full and gets its spec back.
    let spare = JobSpec::custom("spare", |_jc| Ok(Box::new(()) as CustomOutput));
    match svc.try_submit(spare) {
        Err(SubmitError::Full(spec)) => assert_eq!(spec.name, "spare"),
        Ok(_) => panic!("queue should be full"),
        Err(e) => panic!("unexpected submit error: {e}"),
    }
    gate.store(true, Ordering::Relaxed);
    assert_eq!(svc.wait(blocker), Some(JobState::Done));
    assert_eq!(svc.wait(filler_id), Some(JobState::Done));
    svc.shutdown();
}
