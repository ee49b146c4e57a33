//! End-to-end chaos-layer tests: one deterministic fault trace — a
//! flapping worker (two crashes), an OOM window, an RPC spike, and a
//! straggler — replayed under each resilience mechanism, asserting that
//! every mechanism measurably changes the completed side-task steps
//! against the no-mechanism baseline, and that replaying the same trace
//! yields an identical report. A separate plan checks that overlapping
//! crash windows on one worker keep it down until the last one closes.

use freeride::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker the trace crashes at 4.0s (down 1s) and 5.2s (down 3s).
const FLAPPING: usize = 1;

/// Six epochs of the paper's 3.6B pipeline: ~24.4s of simulated
/// training, so the trace's 3–10s faults land early and leave plenty of
/// recovery runway.
const EPOCHS: usize = 6;

const SEED: u64 = 0xC4A05;

/// Scenario policy: the first three submissions (two steady tasks and
/// the OOM-window arrival) route like [`MinTasksJob`]; later ones are
/// pinned to the flapping worker. Wrapping this in a [`CircuitBreaker`]
/// is the breaker cell — the mechanisms are exercised on a custom
/// user-written policy, not just the stock ones.
struct PinLateToFlapping {
    routed: AtomicUsize,
}

impl PinLateToFlapping {
    fn new() -> Self {
        PinLateToFlapping {
            routed: AtomicUsize::new(0),
        }
    }
}

impl PlacementPolicy for PinLateToFlapping {
    fn name(&self) -> &'static str {
        "pin-late"
    }

    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
        if self.routed.fetch_add(1, Ordering::Relaxed) < 3 {
            MinTasksJob.place(needed, view)
        } else {
            Some(Placement::Worker {
                job: 0,
                worker: FLAPPING,
            })
        }
    }
}

fn fault_plan() -> FaultPlan {
    FaultPlan::new()
        .oom_window(SimTime::from_millis(3_000), SimDuration::from_secs(2))
        .crash_worker(
            SimTime::from_millis(4_000),
            FLAPPING,
            SimDuration::from_secs(1),
        )
        .rpc_spike(
            SimTime::from_millis(5_000),
            3,
            SimDuration::from_millis(40),
            SimDuration::from_secs(1),
        )
        .crash_worker(
            SimTime::from_millis(5_200),
            FLAPPING,
            SimDuration::from_secs(3),
        )
        .straggler(
            SimTime::from_millis(6_000),
            2,
            0.25,
            SimDuration::from_secs(4),
        )
}

/// Replays the trace under a mechanism mix and returns the report.
/// `breaker` implies the submissions should also retry — a breaker only
/// acts on re-submissions.
fn run_cell(retry: bool, checkpoint: bool, breaker: bool) -> ClusterReport {
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(EPOCHS);
    let mut job = ClusterJob::new(pipeline).seed(SEED).faults(fault_plan());
    if checkpoint {
        job = job.checkpoint(SimDuration::from_secs(1));
    }
    let builder = Cluster::builder().job(job).cost_report(false);
    let builder = if breaker {
        builder.policy(CircuitBreaker::new(
            PinLateToFlapping::new(),
            2,
            SimDuration::from_secs(3),
        ))
    } else {
        builder.policy(PinLateToFlapping::new())
    };
    let mut cluster = builder.build();

    let opts = || {
        if retry {
            SubmitOptions::new().retry(RetryPolicy::new(8, SimDuration::from_millis(200)))
        } else {
            SubmitOptions::new()
        }
    };
    // Two steady tasks, spread by Algorithm 1 onto workers 0 and 1.
    for _ in 0..2 {
        cluster
            .submit_with(
                Submission::new(WorkloadKind::PageRank),
                SubmitOptions::new(),
            )
            .expect("up-front tasks fit");
    }
    // Arrives inside the OOM window (3.0–5.0s).
    let _ = cluster.submit_with(
        Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(3_500)),
        opts(),
    );
    // Pinned to the flapping worker, arriving between its two crashes.
    let _ = cluster.submit_with(
        Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(4_500)),
        opts(),
    );
    cluster.run()
}

fn lost_tasks(report: &ClusterReport) -> usize {
    report.jobs[0]
        .tasks
        .iter()
        .filter(|t| t.stop_reason == StopReason::WorkerLost)
        .count()
}

#[test]
fn without_mechanisms_the_trace_rejects_arrivals_and_loses_a_task() {
    let none = run_cell(false, false, false);
    // Both arrivals bounce: the OOM window rejects one, the pinned one
    // hits the downed worker. The steady task on the flapping worker
    // dies in the first crash and stays dead.
    assert_eq!(none.total_rejections(), 2);
    assert_eq!(lost_tasks(&none), 1);
    assert!(none.jobs[0].recoveries.is_empty());
    // The two surviving tasks still harvested bubbles.
    assert!(none.total_steps() > 0);
}

#[test]
fn retry_rides_out_the_oom_window_and_changes_steps() {
    let none = run_cell(false, false, false);
    let retry = run_cell(true, false, false);
    // Backoff carries both arrivals past the OOM window: no rejections,
    // and the admitted arrival's harvest shows up in the step count.
    assert_eq!(retry.total_rejections(), 0);
    assert!(
        retry.total_steps() > none.total_steps(),
        "retry must complete more steps than the baseline ({} vs {})",
        retry.total_steps(),
        none.total_steps()
    );
    // Each recovered arrival reports its first-failure-to-admission
    // latency.
    assert_eq!(retry.jobs[0].recoveries.len(), 2);
    // The pinned arrival lands in the gap between the two crashes and
    // dies with the worker: retried onto a flapping worker, without a
    // breaker, is a trap.
    assert_eq!(lost_tasks(&retry), 2);
}

#[test]
fn checkpoint_restores_the_crashed_task_and_changes_steps() {
    let none = run_cell(false, false, false);
    let ckpt = run_cell(false, true, false);
    // The steady task on the flapping worker is restored from its last
    // snapshot after each crash — nothing ends the run dead, and the
    // restored chain's harvest dwarfs the baseline's severed one.
    assert_eq!(lost_tasks(&ckpt), 0);
    assert!(
        ckpt.total_steps() > none.total_steps(),
        "checkpoint must complete more steps than the baseline ({} vs {})",
        ckpt.total_steps(),
        none.total_steps()
    );
    // Two crashes, two restores; each reports crash-to-restore latency.
    assert_eq!(ckpt.jobs[0].recoveries.len(), 2);
    assert!(ckpt.jobs[0]
        .recoveries
        .iter()
        .all(|r| r.latency > SimDuration::ZERO));
    // Both are daemon-rejoin restores, not supervised migrations.
    assert!(ckpt.jobs[0]
        .recoveries
        .iter()
        .all(|r| r.kind == RecoveryKind::Rejoin));
    // Checkpointing alone does not admit anything: the arrivals still
    // bounce.
    assert_eq!(ckpt.total_rejections(), 2);
}

#[test]
fn breaker_sheds_the_flapping_worker_and_changes_steps() {
    let retry = run_cell(true, false, false);
    let breaker = run_cell(true, false, true);
    assert_eq!(breaker.policy, "circuit-breaker");
    // Plain retry re-places the pinned arrival in the 0.2s gap between
    // the crashes and it dies with the worker. The breaker stays open
    // through the gap, so its half-open probe only re-admits the task
    // once the worker is stably back — it survives to the end of
    // training and out-harvests the retry cell.
    assert!(
        breaker.total_steps() > retry.total_steps(),
        "breaker must complete more steps than plain retry ({} vs {})",
        breaker.total_steps(),
        retry.total_steps()
    );
    assert_eq!(
        lost_tasks(&breaker),
        1,
        "only the un-checkpointed steady task dies"
    );
    assert_eq!(breaker.total_rejections(), 0);
    // The deferred admission is reported as a (slower) recovery.
    let worst = breaker.jobs[0].recoveries.iter().map(|r| r.latency).max();
    let worst_retry = retry.jobs[0].recoveries.iter().map(|r| r.latency).max();
    assert!(
        worst > worst_retry,
        "shedding trades recovery latency for survival"
    );
}

#[test]
fn all_mechanisms_compose() {
    let none = run_cell(false, false, false);
    let retry = run_cell(true, false, false);
    let ckpt = run_cell(false, true, false);
    let all = run_cell(true, true, true);
    assert_eq!(all.total_rejections(), 0);
    assert_eq!(lost_tasks(&all), 0);
    // Retry recoveries plus checkpoint restores.
    assert_eq!(all.jobs[0].recoveries.len(), 4);
    for other in [&none, &retry, &ckpt] {
        assert!(
            all.total_steps() > other.total_steps(),
            "all mechanisms together must out-harvest every subset ({} vs {})",
            all.total_steps(),
            other.total_steps()
        );
    }
}

#[test]
fn the_same_fault_trace_replays_identically() {
    let digest = |r: &ClusterReport| {
        let job = &r.jobs[0];
        format!(
            "{:?}|{:?}|{}|{}|{}",
            job.tasks
                .iter()
                .map(|t| (t.id, t.worker, t.steps, t.stop_reason))
                .collect::<Vec<_>>(),
            job.recoveries,
            r.total_rejections(),
            r.events_processed,
            job.total_time,
        )
    };
    let a = run_cell(true, true, true);
    let b = run_cell(true, true, true);
    assert_eq!(digest(&a), digest(&b), "chaos runs must be deterministic");
}

/// Pins every submission to the flapping worker.
struct PinFlapping;

impl PlacementPolicy for PinFlapping {
    fn name(&self) -> &'static str {
        "pin-flapping"
    }

    fn place(&self, _needed: MemBytes, _view: &ClusterView) -> Option<Placement> {
        Some(Placement::Worker {
            job: 0,
            worker: FLAPPING,
        })
    }
}

#[test]
fn a_short_crash_inside_a_long_one_keeps_the_worker_down() {
    // Down 1–11s; the second crash (2–3s) closes first but must not
    // bring the daemon back early.
    let plan = FaultPlan::new()
        .crash_worker(
            SimTime::from_millis(1_000),
            FLAPPING,
            SimDuration::from_secs(10),
        )
        .crash_worker(
            SimTime::from_millis(2_000),
            FLAPPING,
            SimDuration::from_secs(1),
        );
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(EPOCHS);
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline).seed(SEED).faults(plan))
        .policy(PinFlapping)
        .cost_report(false)
        .build();
    let inside = cluster
        .submit(Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(5_000)))
        .expect("routed at submission time");
    let after = cluster
        .submit(Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(12_000)))
        .expect("routed at submission time");
    let report = cluster.run();
    let job = &report.jobs[0];

    assert_eq!(job.rejected.len(), 1, "{:?}", job.rejected);
    assert!(
        matches!(
            job.rejected[0].error,
            SubmitError::WorkerDown { worker: FLAPPING }
        ),
        "the 5s arrival lands inside the long window: {:?}",
        job.rejected[0].error
    );
    assert!(inside.steps().is_none(), "the rejected arrival never ran");
    assert!(
        after.steps().unwrap_or(0) > 0,
        "the worker is back once the last window closes"
    );
}
