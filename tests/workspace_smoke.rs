//! Workspace wiring smoke test: exercises the `freeride::prelude` glob
//! import and one baseline → colocation → evaluate round-trip, so facade
//! re-export breakage is caught by a plain integration test and not only
//! by doctests.

use freeride::prelude::*;

#[test]
fn prelude_glob_import_round_trip() {
    // Every name below must resolve through the prelude alone.
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(3);

    let baseline = run_baseline(&pipeline);
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline).config(FreeRideConfig::iterative()))
        .cost_report(false)
        .build();
    for sub in Submission::per_worker(WorkloadKind::PageRank, 4) {
        cluster.submit(sub).expect("fits bubble memory");
    }
    let run = cluster.run();
    let job: &JobReport = &run.jobs[0];
    let report = evaluate(baseline, job.total_time, &job.work());

    // The quickstart's promise, with the paper's ~1% overhead headroom.
    assert!(
        report.time_increase < 0.05,
        "time increase {} should stay under 5%",
        report.time_increase
    );
    assert!(
        report.cost_savings > 0.0,
        "harvested bubbles must yield savings, got {}",
        report.cost_savings
    );
    assert!(run.total_steps() > 0);
}

#[test]
fn prelude_exposes_every_layer() {
    // Touch one symbol per re-exported crate so a dropped facade edge
    // fails here with a clear name.
    let _sched: ScheduleKind = ScheduleKind::OneFOneB;
    let _gpu = GpuId(0);
    let _mem = MemBytes::from_gib(1);
    let _prio = Priority::Low;
    let _state = SideTaskState::Submitted;
    let _kind: WorkloadKind = WorkloadKind::PageRank;
    let mut rng = DetRng::seed_from_u64(1);
    assert!(rng.next_f64() < 1.0);
    let t = SimTime::ZERO + SimDuration::from_millis(5);
    assert_eq!(t, SimTime::from_millis(5));
}
