//! The `Cluster` API, end to end: multi-job determinism, pluggable
//! placement policies, and cross-job spillover.
//!
//! Stage free memory underlying the contention scenarios (GiB):
//! nanoGPT-1.2B [7.2, 15.6, 24.0, 32.4], 3.6B [2.9, 8.8, 14.6, 20.5],
//! 6B [1.6, 4.2, 6.8, 9.4].

use freeride::prelude::*;

fn pipeline(model: ModelSpec, epochs: usize) -> PipelineConfig {
    PipelineConfig::paper_default(model).with_epochs(epochs)
}

/// A submission with an explicit GPU footprint (the contention knob).
fn task_of(gib: u64) -> Submission {
    Submission::custom(format!("mem{gib}g"), MemBytes::from_gib(gib), |seed| {
        WorkloadKind::PageRank.build(seed)
    })
}

/// A 4-job cluster mixing models, seeds, interfaces, and modes, loaded
/// with policy-routed, affinity, and online submissions.
fn four_job_cluster() -> Cluster {
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 2)).seed(1))
        .job(
            ClusterJob::new(pipeline(ModelSpec::nanogpt_1_2b(), 3))
                .interface(InterfaceKind::Imperative)
                .seed(2),
        )
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_6b(), 2)).seed(3))
        .job(
            ClusterJob::new(pipeline(ModelSpec::nanogpt_1_2b(), 2))
                .mode(ColocationMode::Mps)
                .seed(4),
        )
        .policy(LeastLoaded)
        .cost_report(false)
        .build();
    for kind in [WorkloadKind::PageRank, WorkloadKind::ImageProc] {
        cluster
            .submit_with(Submission::new(kind), SubmitOptions::new())
            .unwrap();
    }
    cluster
        .submit_with(task_of(3), SubmitOptions::new().affinity(2))
        .unwrap();
    cluster
        .submit_with(
            Submission::new(WorkloadKind::ResNet18).at(SimTime::from_millis(500)),
            SubmitOptions::new(),
        )
        .unwrap();
    cluster
}

/// Collapses a run into a comparable fingerprint: every number that could
/// drift under nondeterminism.
fn fingerprint(report: &ClusterReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "policy={} events={} steps={} rejections={}",
        report.policy,
        report.events_processed,
        report.total_steps(),
        report.total_rejections()
    )
    .unwrap();
    for (j, job) in report.jobs.iter().enumerate() {
        writeln!(
            s,
            "job{j} mode={} total={} epochs={} bubbles={} events={}",
            job.mode,
            job.total_time,
            job.epoch_times.len(),
            job.bubbles_reported,
            job.events_processed
        )
        .unwrap();
        for t in &job.tasks {
            writeln!(
                s,
                "  task id={:?} worker={} steps={} state={:?} reason={:?}",
                t.id, t.worker, t.steps, t.final_state, t.stop_reason
            )
            .unwrap();
        }
    }
    s
}

/// (a) A 4-job cluster run is deterministic regardless of how many OS
/// threads the host throws at it: the simulation is one logical timeline,
/// so N concurrent runs (the `--threads N` sweep situation) and a
/// sequential run produce identical reports.
#[test]
fn four_job_cluster_is_deterministic_for_any_thread_count() {
    let reference = fingerprint(&four_job_cluster().run());
    assert!(reference.contains("job3 mode=mps"), "{reference}");

    // Re-run sequentially…
    assert_eq!(reference, fingerprint(&four_job_cluster().run()));

    // …and across 4 concurrent OS threads, as a --threads 4 sweep would.
    let handles: Vec<_> = (0..4)
        .map(|_| std::thread::spawn(|| fingerprint(&four_job_cluster().run())))
        .collect();
    for h in handles {
        assert_eq!(reference, h.join().expect("cluster thread"));
    }
}

/// (b) The three shipped placement policies make genuinely different
/// decisions on a contended cluster.
///
/// Cluster: job 0 = 1.2B (free [7.2, 15.6, 24.0, 32.4]), job 1 = 3.6B
/// (free [2.9, 8.8, 14.6, 20.5]). Two 8 GiB tasks:
/// * first-fit piles both onto job 0 / worker 1 (first slot > 8 GiB);
/// * best-fit-memory picks job 1 / worker 1 twice (tightest fit, 8.8);
/// * least-loaded starts at job 0 / worker 1, then moves to the next
///   empty slot, job 0 / worker 2.
#[test]
fn placement_policies_disagree_on_a_contended_cluster() {
    fn place_two(policy_name: &str) -> Vec<(usize, usize)> {
        let builder = Cluster::builder()
            .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_1_2b(), 2)).seed(1))
            .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 2)).seed(2))
            .cost_report(false);
        let mut cluster = match policy_name {
            "first-fit" => builder.policy(FirstFit).build(),
            "best-fit-memory" => builder.policy(BestFitMemory).build(),
            "least-loaded" => builder.policy(LeastLoaded).build(),
            other => panic!("unknown policy {other}"),
        };
        let a = cluster
            .submit_with(task_of(8), SubmitOptions::new())
            .unwrap();
        let b = cluster
            .submit_with(task_of(8), SubmitOptions::new())
            .unwrap();
        let report = cluster.run();
        assert_eq!(report.total_rejections(), 0);
        assert!(report.total_steps() > 0);
        vec![
            (a.job(), a.worker().unwrap()),
            (b.job(), b.worker().unwrap()),
        ]
    }

    let first_fit = place_two("first-fit");
    let best_fit = place_two("best-fit-memory");
    let least_loaded = place_two("least-loaded");

    assert_eq!(first_fit, vec![(0, 1), (0, 1)], "first-fit piles up");
    assert_eq!(
        best_fit,
        vec![(1, 1), (1, 1)],
        "best-fit hugs the tightest slot"
    );
    assert_eq!(least_loaded, vec![(0, 1), (0, 2)], "least-loaded spreads");

    assert_ne!(first_fit, best_fit);
    assert_ne!(first_fit, least_loaded);
    assert_ne!(best_fit, least_loaded);
}

/// (c) Cross-job spillover: a submission a single 6B job must reject with
/// `InsufficientMemory` is admitted by a cluster that also hosts a 3.6B
/// job — the affinity submit spills over instead of failing.
#[test]
fn spillover_admits_what_a_single_job_rejects() {
    // Alone, the 6B job's best worker offers only ~9.4 GiB.
    let mut alone = Cluster::builder()
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_6b(), 2)))
        .build();
    let err = alone.submit(task_of(12)).unwrap_err();
    let SubmitError::InsufficientMemory {
        needed,
        best_worker_free,
    } = err
    else {
        panic!("expected InsufficientMemory, got {err:?}");
    };
    assert_eq!(needed, MemBytes::from_gib(12));
    assert!(best_worker_free < needed);

    // In a cluster with a roomier neighbour, the same submission —
    // explicitly targeted at the cramped job — spills over and runs.
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_6b(), 2)).seed(1))
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 2)).seed(2))
        .policy(FirstFit)
        .cost_report(false)
        .build();
    let handle = cluster
        .submit_with(task_of(12), SubmitOptions::new().affinity(0))
        .expect("spillover must admit what job 0 alone cannot hold");
    assert_eq!(handle.job(), 1, "routed to the job with room");
    let report = cluster.run();
    assert!(report.rejected.is_empty());
    assert_eq!(report.jobs[1].tasks.len(), 1);
    assert!(
        handle.steps().unwrap() > 0,
        "the spilled task did real work"
    );
    // Worker 2 of the 3.6B job (14.6 GiB free) is first-fit for 12 GiB.
    assert_eq!(handle.worker(), Some(2));
}

/// A one-job cluster built with the defaults is exactly the paper's
/// single-job co-location: the `MinTasksJob` policy (which defers every
/// placement to the job manager's Algorithm 1) and an RPC bus seeded with
/// the job's own seed. Spelling both out changes nothing.
#[test]
fn one_job_cluster_defaults_match_explicit_policy_and_seed() {
    let submissions = || {
        vec![
            Submission::new(WorkloadKind::PageRank),
            Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(800)),
        ]
    };

    let mut explicit = Cluster::builder()
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 3)).seed(9))
        .policy(MinTasksJob)
        .seed(9)
        .cost_report(false)
        .build();
    for s in submissions() {
        explicit.submit(s).unwrap();
    }
    let explicit = explicit.run();
    assert_eq!(explicit.jobs.len(), 1);
    let reference = &explicit.jobs[0];

    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 3)).seed(9))
        .cost_report(false)
        .build();
    for s in submissions() {
        cluster.submit_with(s, SubmitOptions::new()).unwrap();
    }
    let cluster_report = cluster.run();

    assert_eq!(cluster_report.jobs.len(), 1);
    let job = &cluster_report.jobs[0];
    assert_eq!(job.total_time, reference.total_time);
    assert_eq!(job.events_processed, reference.events_processed);
    assert_eq!(job.bubbles_reported, reference.bubbles_reported);
    assert_eq!(job.tasks.len(), reference.tasks.len());
    for (a, b) in job.tasks.iter().zip(&reference.tasks) {
        assert_eq!(a.worker, b.worker);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.final_state, b.final_state);
    }
}

/// Online arrivals work cluster-wide: a task arriving mid-run lands on
/// the policy-pinned worker of its job and still harvests bubbles.
#[test]
fn online_arrival_lands_on_the_pinned_worker() {
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_3_6b(), 3)).seed(5))
        .job(ClusterJob::new(pipeline(ModelSpec::nanogpt_1_2b(), 3)).seed(6))
        .policy(BestFitMemory)
        .cost_report(false)
        .build();
    let late = cluster
        .submit_with(
            task_of(8).at(SimTime::from_millis(1_000)),
            SubmitOptions::new(),
        )
        .unwrap();
    // Tightest 8 GiB fit cluster-wide is job 0's worker 1 (8.8 GiB free).
    assert_eq!(late.job(), 0);
    let report = cluster.run();
    assert_eq!(
        late.worker(),
        Some(1),
        "pinned placement survives the arrival path"
    );
    assert!(late.steps().unwrap() > 0);
    assert_eq!(report.total_rejections(), 0);
}
