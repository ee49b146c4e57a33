//! Failure injection across the full stack: misbehaving side tasks must be
//! contained by the GPU resource limits (§4.5, Fig. 8) and by process
//! isolation (§8), leaving pipeline training essentially unaffected.

use freeride::prelude::*;
use freeride::sim::SimDuration;

fn pipeline(epochs: usize) -> PipelineConfig {
    PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs)
}

/// One training job co-located with `subs`, all submitted up front;
/// submissions that do not fit stay in [`ClusterReport::rejected`].
fn colocate(p: &PipelineConfig, cfg: &FreeRideConfig, subs: &[Submission]) -> ClusterReport {
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(p.clone()).config(cfg.clone()))
        .cost_report(false)
        .build();
    for sub in subs {
        let _ = cluster.submit(sub.clone());
    }
    cluster.run()
}

#[test]
fn rogue_task_is_grace_killed_and_training_survives() {
    let p = pipeline(6);
    let baseline = run_baseline(&p);
    let rogue =
        vec![Submission::new(WorkloadKind::ResNet18).with_misbehavior(Misbehavior::IgnorePause)];
    let run = colocate(&p, &FreeRideConfig::iterative(), &rogue);
    assert_eq!(run.jobs[0].tasks[0].stop_reason, StopReason::KilledGrace);
    assert_eq!(run.jobs[0].tasks[0].final_state, SideTaskState::Stopped);
    let i = time_increase(baseline, run.jobs[0].total_time);
    assert!(
        i < 0.05,
        "the grace kill must bound a rogue task's damage: {i}"
    );
}

#[test]
fn memory_leak_is_oom_killed_without_touching_training_memory() {
    let p = pipeline(5);
    // Healthy tasks fill workers 0-2 so the leaky task lands on stage 3,
    // where the MPS cap (not device exhaustion) must stop it.
    let mut leaky: Vec<Submission> = (0..3)
        .map(|_| Submission::new(WorkloadKind::PageRank))
        .collect();
    leaky.push(
        Submission::new(WorkloadKind::ResNet18).with_misbehavior(Misbehavior::LeakMemory {
            per_step: MemBytes::from_gib(1),
        }),
    );
    let run = colocate(&p, &FreeRideConfig::iterative(), &leaky);
    let task = run.jobs[0]
        .tasks
        .iter()
        .find(|t| t.kind == WorkloadKind::ResNet18)
        .expect("leaky task admitted");
    assert_eq!(task.stop_reason, StopReason::KilledOom);

    // The worker GPU's memory returns exactly to the training footprint.
    let series = run.jobs[0]
        .trace
        .series(&format!("gpu{}.mem", task.worker))
        .expect("memory trace");
    let final_mem = series.samples().last().unwrap().value;
    let train_mem = p.stage_memory(task.worker).as_gib_f64();
    assert!((final_mem - train_mem).abs() < 1e-9);
    // The leak never reached device capacity (the cap fired first).
    assert!(series.max_value().unwrap() < 47.0);
}

#[test]
fn crashing_task_is_contained() {
    let p = pipeline(5);
    let baseline = run_baseline(&p);
    let crashy = vec![Submission::new(WorkloadKind::PageRank)
        .with_misbehavior(Misbehavior::CrashAfter { steps: 20 })];
    let run = colocate(&p, &FreeRideConfig::iterative(), &crashy);
    assert_eq!(run.jobs[0].tasks[0].stop_reason, StopReason::Crashed);
    assert!(run.jobs[0].tasks[0].steps >= 20);
    let i = time_increase(baseline, run.jobs[0].total_time);
    assert!(i < 0.02, "a crash must not hurt training: {i}");
}

#[test]
fn queued_task_takes_over_after_a_kill() {
    // Two tasks on the same worker: when the first is OOM-killed, the
    // manager promotes the second (Algorithm 2, lines 11–15).
    let p = pipeline(8);
    let subs = vec![
        Submission::new(WorkloadKind::GraphSgd)
            .with_misbehavior(Misbehavior::CrashAfter { steps: 5 }),
        Submission::new(WorkloadKind::GraphSgd),
        Submission::new(WorkloadKind::GraphSgd),
        Submission::new(WorkloadKind::GraphSgd),
        // Fifth task queues behind one of the four.
        Submission::new(WorkloadKind::GraphSgd),
    ];
    let run = colocate(&p, &FreeRideConfig::iterative(), &subs);
    let crashed = run.jobs[0]
        .tasks
        .iter()
        .filter(|t| t.stop_reason == StopReason::Crashed)
        .count();
    assert_eq!(crashed, 1);
    // The queued task got promoted and did work.
    let finished_with_work = run.jobs[0]
        .tasks
        .iter()
        .filter(|t| t.stop_reason == StopReason::Finished && t.steps > 0)
        .count();
    assert!(finished_with_work >= 4, "{:?}", run.jobs[0].tasks);
}

#[test]
fn misbehaving_neighbour_does_not_affect_other_workers() {
    let p = pipeline(6);
    // Healthy PageRank everywhere, plus one leaky ResNet18.
    let mut subs = Submission::per_worker(WorkloadKind::PageRank, 4);
    subs.push(
        Submission::new(WorkloadKind::ResNet18).with_misbehavior(Misbehavior::LeakMemory {
            per_step: MemBytes::from_gib(2),
        }),
    );
    let run = colocate(&p, &FreeRideConfig::iterative(), &subs);
    let healthy_steps: u64 = run.jobs[0]
        .tasks
        .iter()
        .filter(|t| t.kind == WorkloadKind::PageRank)
        .map(|t| t.steps)
        .sum();

    let clean = colocate(
        &p,
        &FreeRideConfig::iterative(),
        &Submission::per_worker(WorkloadKind::PageRank, 4),
    );
    let clean_steps: u64 = clean.jobs[0].tasks.iter().map(|t| t.steps).sum();
    // The leaky task shares one worker's queue; the other three workers'
    // PageRank instances are untouched, so at least 3/4 of the clean
    // throughput must survive.
    assert!(
        healthy_steps * 4 >= clean_steps * 3,
        "healthy {healthy_steps} vs clean {clean_steps}"
    );
}

#[test]
fn grace_period_scales_rogue_damage() {
    let p = pipeline(6);
    let baseline = run_baseline(&p);
    let rogue =
        vec![Submission::new(WorkloadKind::GraphSgd).with_misbehavior(Misbehavior::IgnorePause)];
    let mut damages = Vec::new();
    for grace_ms in [100u64, 2000] {
        let mut cfg = FreeRideConfig::iterative();
        cfg.grace_period = SimDuration::from_millis(grace_ms);
        let run = colocate(&p, &cfg, &rogue);
        assert_eq!(run.jobs[0].tasks[0].stop_reason, StopReason::KilledGrace);
        damages.push(time_increase(baseline, run.jobs[0].total_time));
    }
    assert!(
        damages[0] <= damages[1],
        "longer grace must not reduce rogue damage: {damages:?}"
    );
}

#[test]
fn oversized_tasks_are_rejected_not_crashed() {
    // A batch-256 VGG19 (~24 GiB) exceeds every stage's bubble memory.
    let p = pipeline(3);
    let subs = vec![Submission::new(WorkloadKind::Vgg19).with_batch(256)];
    let run = colocate(&p, &FreeRideConfig::iterative(), &subs);

    // Rejected at submission: the cluster keeps the whole submission,
    // with real numbers.
    assert_eq!(run.total_rejections(), 1);
    assert_eq!(run.rejected.len(), 1);
    let rejected = &run.rejected[0];
    assert_eq!(*rejected.submission.tag(), WorkloadKind::Vgg19);
    assert_eq!(rejected.submission.batch(), 256);
    let needed = WorkloadKind::Vgg19.profile_with_batch(256).gpu_mem;
    let best = (0..p.stages)
        .map(|st| p.stage_free_memory(st))
        .max()
        .unwrap();
    assert_eq!(
        rejected.error,
        SubmitError::InsufficientMemory {
            needed,
            best_worker_free: best,
        }
    );
    assert!(needed >= best, "rejection implies the task cannot fit");
    // The error message names both quantities, not just "rejected".
    let msg = rejected.error.to_string();
    assert!(
        msg.contains(&needed.to_string()) && msg.contains(&best.to_string()),
        "rejection message must carry the numbers: {msg}"
    );

    assert!(run.jobs[0].tasks.is_empty());
    // Training ran to completion regardless.
    assert_eq!(run.jobs[0].epoch_times.len(), 3);
}
