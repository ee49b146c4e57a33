//! Heterogeneous hardware, end to end: the `HardwareSpec` API observably
//! changes per-worker behavior, while the homogeneous default reproduces
//! the pre-hardware middleware byte-for-byte.

use freeride::prelude::*;

fn pipeline(epochs: usize) -> PipelineConfig {
    PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs)
}

/// The per-task fingerprint a hardware change must (or must not) move.
fn fingerprint(report: &JobReport) -> Vec<(usize, u64)> {
    report.tasks.iter().map(|t| (t.worker, t.steps)).collect()
}

fn run_with_fleet(fleet: Vec<HardwareSpec>) -> JobReport {
    let mut cluster = Cluster::builder()
        .job(ClusterJob::new(pipeline(4).with_hardware(fleet)).seed(11))
        .cost_report(false)
        .build();
    for sub in Submission::per_worker(WorkloadKind::PageRank, 4) {
        cluster.submit(sub).expect("fits bubble memory");
    }
    cluster.run().jobs.remove(0)
}

#[test]
fn explicit_reference_fleet_is_identical_to_default() {
    // Spelling out the implicit homogeneous fleet must change nothing:
    // same placements, same step counts, same training time, same event
    // count.
    let default_run = run_with_fleet(Vec::new());
    let explicit = run_with_fleet(vec![HardwareSpec::rtx6000ada_48g(); 4]);
    assert_eq!(fingerprint(&default_run), fingerprint(&explicit));
    assert_eq!(default_run.total_time, explicit.total_time);
    assert_eq!(default_run.events_processed, explicit.events_processed);
    assert_eq!(default_run.epoch_times, explicit.epoch_times);
}

#[test]
fn mixed_speed_fleet_changes_per_worker_steps_and_training_time() {
    // Same memory everywhere — only compute speed differs — so any
    // behavioral change is the speed model, not admission capacity.
    let reference = run_with_fleet(vec![HardwareSpec::rtx6000ada_48g(); 4]);
    let mixed = run_with_fleet(vec![
        HardwareSpec::rtx6000ada_48g().with_compute_speed(2.0),
        HardwareSpec::rtx6000ada_48g(),
        HardwareSpec::rtx6000ada_48g(),
        HardwareSpec::rtx6000ada_48g().with_compute_speed(0.5),
    ]);
    assert_ne!(
        fingerprint(&reference),
        fingerprint(&mixed),
        "a mixed-speed fleet must reshape per-worker harvests"
    );
    // The slow stage drags the pipeline: mixed training takes longer than
    // the uniform reference.
    assert!(mixed.total_time > reference.total_time);
    // And a uniformly faster fleet trains strictly faster.
    let fast = run_with_fleet(vec![
        HardwareSpec::rtx6000ada_48g().with_compute_speed(2.0);
        4
    ]);
    assert!(fast.total_time < reference.total_time);
}

#[test]
fn faster_worker_fits_more_steps_into_its_bubbles() {
    // One task pinned per stage; double stage 3's speed with memory held
    // constant. The program-directed check budgets steps at the scaled
    // wall-clock duration, so the fast worker's task retires more steps
    // inside the same bubble schedule.
    let steps_on_w3 = |fleet: Vec<HardwareSpec>| {
        let report = run_with_fleet(fleet);
        report
            .tasks
            .iter()
            .filter(|t| t.worker == 3)
            .map(|t| t.steps)
            .sum::<u64>()
    };
    let reference = steps_on_w3(vec![HardwareSpec::rtx6000ada_48g(); 4]);
    let boosted = steps_on_w3(vec![
        HardwareSpec::rtx6000ada_48g(),
        HardwareSpec::rtx6000ada_48g(),
        HardwareSpec::rtx6000ada_48g(),
        HardwareSpec::rtx6000ada_48g().with_compute_speed(2.0),
    ]);
    assert!(
        boosted > reference,
        "2x worker must harvest more steps: {boosted} vs {reference}"
    );
}

#[test]
fn hetero_cluster_is_deterministic() {
    let run = || {
        let fleet = vec![
            HardwareSpec::h100_80g(),
            HardwareSpec::a100_80g(),
            HardwareSpec::a100_40g(),
            HardwareSpec::l4_24g(),
        ];
        let mut cluster = Cluster::builder()
            .job(
                ClusterJob::new(
                    PipelineConfig::paper_default(ModelSpec::nanogpt_1_2b())
                        .with_epochs(3)
                        .with_hardware(fleet),
                )
                .seed(5),
            )
            .policy(FastestFit)
            .cost_report(false)
            .build();
        for kind in [
            WorkloadKind::PageRank,
            WorkloadKind::ResNet18,
            WorkloadKind::ImageProc,
        ] {
            let _ = cluster.submit_with(Submission::new(kind), SubmitOptions::new());
        }
        let report = cluster.run();
        (
            report.total_steps(),
            report.events_processed,
            report.makespan(),
            fingerprint(&report.jobs[0]),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn bigger_cards_admit_what_the_reference_fleet_rejects() {
    // A 30 GiB task does not fit any stage of the reference 3.6B fleet
    // (best free ≈ 20.5 GiB) but fits an 80 GiB card's head stage.
    let task = || {
        Submission::custom("mem30g", MemBytes::from_gib(30), |seed| {
            WorkloadKind::PageRank.build(seed)
        })
    };
    let one_job = |p: PipelineConfig| {
        Cluster::builder()
            .job(ClusterJob::new(p))
            .cost_report(false)
            .build()
    };
    let mut reference = one_job(pipeline(3));
    let err = reference.submit(task()).unwrap_err();
    assert!(matches!(err, SubmitError::InsufficientMemory { .. }));

    let mut roomy = one_job(pipeline(3).with_worker_hardware(3, HardwareSpec::a100_80g()));
    let handle = roomy.submit(task()).expect("80 GiB tail admits 30 GiB");
    let report = roomy.run();
    assert_eq!(handle.worker(), Some(3));
    assert!(handle.steps().unwrap() > 0);
    assert_eq!(report.total_rejections(), 0);
}
