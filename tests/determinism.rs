//! Reproducibility: the whole evaluation is a deterministic simulation —
//! identical seeds must give bit-identical runs, and different seeds must
//! only perturb what randomness touches (RPC jitter), never the physics.

use freeride::prelude::*;

fn pipeline() -> PipelineConfig {
    PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(4)
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
fn identical_seeds_identical_runs() {
    let p = pipeline();
    let subs = Submission::mixed();
    let a = colocate(&p, &FreeRideConfig::iterative().with_seed(7), &subs);
    let b = colocate(&p, &FreeRideConfig::iterative().with_seed(7), &subs);
    assert_eq!(a.jobs[0].total_time, b.jobs[0].total_time);
    assert_eq!(a.jobs[0].epoch_times, b.jobs[0].epoch_times);
    assert_eq!(a.jobs[0].bubbles_reported, b.jobs[0].bubbles_reported);
    let steps_a: Vec<u64> = a.jobs[0].tasks.iter().map(|t| t.steps).collect();
    let steps_b: Vec<u64> = b.jobs[0].tasks.iter().map(|t| t.steps).collect();
    assert_eq!(steps_a, steps_b);
}

#[test]
fn different_seeds_only_jitter_the_margins() {
    let p = pipeline();
    let subs = Submission::per_worker(WorkloadKind::ResNet18, 4);
    let a = colocate(&p, &FreeRideConfig::iterative().with_seed(1), &subs);
    let b = colocate(&p, &FreeRideConfig::iterative().with_seed(2), &subs);
    // RPC jitter shifts step counts by at most a few steps per bubble.
    let sa: u64 = a.jobs[0].tasks.iter().map(|t| t.steps).sum();
    let sb: u64 = b.jobs[0].tasks.iter().map(|t| t.steps).sum();
    let diff = sa.abs_diff(sb) as f64 / sa.max(sb) as f64;
    assert!(
        diff < 0.05,
        "seeds changed throughput by {diff}: {sa} vs {sb}"
    );
    // Training time is physics, not randomness: within 0.1%.
    let dt = (a.jobs[0].total_time.as_secs_f64() - b.jobs[0].total_time.as_secs_f64()).abs()
        / a.jobs[0].total_time.as_secs_f64();
    assert!(dt < 0.001, "training time diverged by {dt}");
}

#[test]
fn baseline_training_is_seed_free_and_stable() {
    let p = pipeline();
    let a = run_baseline(&p);
    let b = run_baseline(&p);
    assert_eq!(a, b);
}

#[test]
fn epochs_are_identical_after_warmup() {
    // Paper §8: pipeline training has a stable throughput and pattern.
    let p = pipeline();
    let run = colocate(
        &p,
        &FreeRideConfig::iterative(),
        &Submission::per_worker(WorkloadKind::PageRank, 4),
    );
    // Serving epochs (after the profiling epoch) are near-identical: the
    // only variation is RPC jitter, far below 1%.
    let serving = &run.jobs[0].epoch_times[1..];
    let min = serving.iter().min().unwrap().as_secs_f64();
    let max = serving.iter().max().unwrap().as_secs_f64();
    assert!(
        (max - min) / min < 0.01,
        "serving epochs vary too much: {min} vs {max}"
    );
}

#[test]
fn online_arrivals_are_deterministic_across_identical_runs() {
    // Two clusters with identical seeds and identical arrival
    // schedules (including mid-run arrivals and a custom workload) must
    // produce identical reports, RPC jitter and all.
    let p = pipeline();
    let run = || {
        let mut cluster = Cluster::builder()
            .job(
                ClusterJob::new(p.clone())
                    .interface(InterfaceKind::Iterative)
                    .seed(42),
            )
            .cost_report(false)
            .build();
        cluster
            .submit(Submission::new(WorkloadKind::PageRank))
            .unwrap();
        cluster
            .submit(Submission::new(WorkloadKind::ResNet18).at(SimTime::from_millis(1_500)))
            .unwrap();
        cluster
            .submit(
                Submission::custom("ticker", MemBytes::from_gib(1), |seed| {
                    WorkloadKind::ImageProc.build(seed)
                })
                .at(SimTime::from_millis(6_000)),
            )
            .unwrap();
        cluster.run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.jobs[0].total_time, b.jobs[0].total_time);
    assert_eq!(a.jobs[0].epoch_times, b.jobs[0].epoch_times);
    assert_eq!(a.jobs[0].bubbles_reported, b.jobs[0].bubbles_reported);
    assert_eq!(a.jobs[0].tasks.len(), b.jobs[0].tasks.len());
    for (ta, tb) in a.jobs[0].tasks.iter().zip(&b.jobs[0].tasks) {
        assert_eq!(ta.id, tb.id);
        assert_eq!(ta.kind, tb.kind);
        assert_eq!(ta.worker, tb.worker);
        assert_eq!(ta.steps, tb.steps);
        assert_eq!(ta.final_state, tb.final_state);
        assert_eq!(ta.stop_reason, tb.stop_reason);
        assert_eq!(ta.last_value, tb.last_value);
    }
}

#[test]
fn workload_computations_are_deterministic_end_to_end() {
    // Two identical runs must leave the real workloads in identical
    // states (steps → identical data streams).
    let p = pipeline();
    let subs = Submission::per_worker(WorkloadKind::GraphSgd, 4);
    let a = colocate(&p, &FreeRideConfig::iterative().with_seed(3), &subs);
    let b = colocate(&p, &FreeRideConfig::iterative().with_seed(3), &subs);
    for (ta, tb) in a.jobs[0].tasks.iter().zip(&b.jobs[0].tasks) {
        assert_eq!(ta.steps, tb.steps);
        assert_eq!(ta.worker, tb.worker);
    }
}
