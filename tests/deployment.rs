//! A one-job deployment through the `Cluster` session API, end to end:
//! online submissions, custom workloads through the public front door,
//! task handles, typed errors, baseline modes, and the cost report.

use freeride::prelude::*;

fn pipeline(epochs: usize) -> PipelineConfig {
    PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs)
}

/// A one-job cluster training `job` (cost report on, as by default).
fn one_job(job: ClusterJob) -> Cluster {
    Cluster::builder().job(job).build()
}

/// A minimal custom workload: counts up, reports the count.
struct Counter {
    created: bool,
    on_gpu: bool,
    steps: u64,
}

impl SideTaskWorkload for Counter {
    fn name(&self) -> &'static str {
        "counter"
    }
    fn create(&mut self) {
        self.created = true;
    }
    fn init_gpu(&mut self) {
        assert!(self.created, "init_gpu before create");
        self.on_gpu = true;
    }
    fn run_step(&mut self) -> f64 {
        assert!(self.on_gpu, "run_step before init_gpu");
        self.steps += 1;
        self.steps as f64
    }
    fn steps_done(&self) -> u64 {
        self.steps
    }
}

fn counter_submission() -> Submission {
    Submission::custom("counter", MemBytes::from_gib(1), |_seed| {
        Box::new(Counter {
            created: false,
            on_gpu: false,
            steps: 0,
        })
    })
    .with_step_time(SimDuration::from_millis(4))
}

#[test]
fn custom_workload_runs_full_lifecycle_through_public_api() {
    let mut cluster = one_job(ClusterJob::new(pipeline(4)).seed(1));
    let handle = cluster.submit(counter_submission()).expect("1 GiB fits");
    let report = cluster.run();

    // The custom task appears in the report under its own name…
    let task = report.jobs[0].task(handle.id()).expect("in report");
    assert_eq!(task.kind, WorkloadTag::Custom("counter".into()));
    assert_eq!(task.kind.name(), "counter");
    // …went through the manager's full lifecycle (Create → Init → Start →
    // Pause cycles → Stop at training end)…
    assert_eq!(task.final_state, SideTaskState::Stopped);
    assert_eq!(task.stop_reason, StopReason::Finished);
    // …and did real work: the workload's own counter agrees.
    assert!(task.steps > 100, "harvested many bubbles: {}", task.steps);
    assert_eq!(task.last_value, Some(task.steps as f64));
    // The handle resolves to the same outcome.
    assert_eq!(handle.steps(), Some(task.steps));
    assert_eq!(handle.state(), Some(SideTaskState::Stopped));
    assert_eq!(handle.stop_reason(), Some(StopReason::Finished));
}

#[test]
fn mid_run_submission_is_placed_and_completes_steps() {
    let mut cluster = one_job(ClusterJob::new(pipeline(6)).seed(2));
    // Fill workers 1 and 2 so placement of the late arrival is visible.
    cluster
        .submit(Submission::new(WorkloadKind::PageRank))
        .unwrap();
    cluster
        .submit(Submission::new(WorkloadKind::PageRank))
        .unwrap();
    // Arrives 3 s into a ~25 s run.
    let late = cluster
        .submit(Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(3_000)))
        .expect("admission is time-independent");
    let report = cluster.run();

    assert!(
        report.jobs[0].total_time > SimDuration::from_millis(3_000),
        "arrival fell inside the run"
    );
    let outcome = late.outcome().expect("placed and ran");
    assert!(outcome.steps > 0, "mid-run arrival harvested bubbles");
    assert_eq!(outcome.final_state, SideTaskState::Stopped);
    assert_eq!(outcome.stop_reason, StopReason::Finished);
    assert_eq!(report.jobs[0].tasks.len(), 3);
    assert_eq!(report.total_rejections(), 0);
}

#[test]
fn custom_workload_can_arrive_mid_run() {
    let mut cluster = one_job(ClusterJob::new(pipeline(5)).seed(3));
    let late = cluster
        .submit(counter_submission().at(SimTime::from_millis(2_500)))
        .unwrap();
    cluster.run();
    assert!(late.steps().unwrap() > 0);
    assert_eq!(late.stop_reason(), Some(StopReason::Finished));
}

#[test]
fn arrival_after_training_end_is_rejected_with_typed_error() {
    let mut cluster = one_job(ClusterJob::new(pipeline(2)).seed(4));
    // A 2-epoch run lasts ~8 s; an arrival at t = 10 min cannot be served.
    let ghost = cluster
        .submit(Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(600_000)))
        .expect("admission alone cannot know the run will end first");
    let report = cluster.run();

    assert!(ghost.outcome().is_none(), "never placed");
    // Admitted at submission, rejected in-run: the job keeps it.
    assert!(report.rejected.is_empty());
    let job = &report.jobs[0];
    assert_eq!(job.tasks.len(), 0);
    assert_eq!(job.rejected.len(), 1);
    let r = &job.rejected[0];
    assert_eq!(*r.submission.tag(), WorkloadKind::PageRank);
    assert!(
        matches!(r.error, SubmitError::ArrivedAfterShutdown { arrival }
            if arrival == SimTime::from_millis(600_000)),
        "{:?}",
        r.error
    );
}

#[test]
fn handles_expose_placement_and_progress() {
    let mut cluster = one_job(ClusterJob::new(pipeline(4)).seed(9));
    let handles: Vec<ClusterTaskHandle> = Submission::mixed()
        .into_iter()
        .map(|s| cluster.submit(s).unwrap())
        .collect();
    let report = cluster.run();
    let mut workers: Vec<usize> = handles.iter().map(|h| h.worker().unwrap()).collect();
    workers.sort_unstable();
    workers.dedup();
    assert_eq!(workers.len(), 4, "mixed workload spreads across workers");
    for h in &handles {
        assert!(h.steps().unwrap() > 0, "{:?}", h.tag());
        assert!(h.last_value().is_some(), "progress metric surfaced");
        assert_eq!(h.job(), 0);
        assert_eq!(
            report.jobs[0].task(h.id()).unwrap().steps,
            h.steps().unwrap()
        );
    }
}

#[test]
fn online_arrivals_work_under_the_baseline_modes_too() {
    for cfg in [
        FreeRideConfig::mps_baseline(),
        FreeRideConfig::naive_baseline(),
    ] {
        let mut cluster = one_job(ClusterJob::new(pipeline(3)).config(cfg));
        let late = cluster
            .submit(Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(2_000)))
            .unwrap();
        let mode = cluster.run().jobs[0].mode;
        assert_eq!(late.state(), Some(SideTaskState::Stopped), "{mode:?}");
        assert!(late.steps().unwrap() > 0, "{mode:?}");
    }
}

#[test]
fn cost_report_subsumes_the_legacy_evaluate_call() {
    let p = pipeline(4);
    let mut cluster = one_job(ClusterJob::new(p.clone()).seed(5));
    for sub in Submission::per_worker(WorkloadKind::PageRank, 4) {
        cluster.submit(sub).unwrap();
    }
    let report = cluster.run().jobs.remove(0);
    let cost = report.cost.as_ref().expect("enabled by default");
    // Identical to evaluating by hand with the legacy pieces.
    let baseline = run_baseline(&p);
    assert_eq!(report.baseline_time, Some(baseline));
    let by_hand = evaluate(baseline, report.total_time, &report.work());
    assert_eq!(cost.time_increase, by_hand.time_increase);
    assert_eq!(cost.cost_savings, by_hand.cost_savings);
}
