//! Determinism contract of the parallel sweep executor: fanning real
//! simulations across threads must produce byte-identical results to a
//! sequential run of the same closures, in submission order.

use freeride_bench::{chaos, colocate, health, main_pipeline, traffic, SweepRunner};
use freeride_core::{
    BestFitMemory, Cluster, ClusterJob, FastestFit, FirstFit, FreeRideConfig, LeastLoaded,
    MinTasksJob, PlacementPolicy, SimTracer, Submission, SubmitOptions,
};
use freeride_gpu::HardwareSpec;
use freeride_pipeline::{ModelSpec, PipelineConfig};
use freeride_tasks::WorkloadKind;

/// The recorded `table1_rows` output. Thread-count agreement alone cannot
/// catch a refactor that moves a number on every thread count at once;
/// this pin can.
const TABLE1_PINNED: [&str; 6] = [
    "ResNet18   steps=432 thr=35.079172 events=1942 time=12.315s",
    "ResNet50   steps=142 thr=11.530654 events=1362 time=12.315s",
    "VGG19      steps=16 thr=1.299229 events=1012 time=12.315s",
    "PageRank   steps=4122 thr=334.713764 events=9322 time=12.315s",
    "Graph SGD  steps=142 thr=11.530654 events=1362 time=12.315s",
    "Image      steps=198 thr=16.077954 events=1376 time=12.315s",
];

/// The recorded `cluster_rows` output (see [`TABLE1_PINNED`]).
const CLUSTER_PINNED: [&str; 4] = [
    "first-fit steps=558 events=2415 makespan=9.580s",
    "best-fit-memory steps=558 events=2415 makespan=9.580s",
    "least-loaded steps=558 events=2415 makespan=9.580s",
    "min-tasks-job steps=568 events=2441 makespan=9.580s",
];

/// The recorded `hetero_rows` output (see [`TABLE1_PINNED`]).
const HETERO_PINNED: [&str; 5] = [
    "first-fit steps=3843 events=8775 placements=[0, 0] makespan=17.468s",
    "best-fit-memory steps=310 events=1733 placements=[3, 2] makespan=17.468s",
    "least-loaded steps=4047 events=9217 placements=[0, 1] makespan=17.468s",
    "fastest-fit steps=3843 events=8775 placements=[0, 0] makespan=17.468s",
    "min-tasks-job steps=4047 events=9217 placements=[0, 1] makespan=17.468s",
];

/// The recorded `chaos_rows` output (see [`TABLE1_PINNED`]).
const CHAOS_PINNED: [&str; 6] = [
    "none        policy=pin-late        steps=1016   rejected=2 lost=1 recovered=0 worst_recovery=0ns events=3115",
    "retry       policy=pin-late        steps=1066   rejected=0 lost=2 recovered=2 worst_recovery=3.000s events=3254",
    "checkpoint  policy=pin-late        steps=1665   rejected=2 lost=0 recovered=2 worst_recovery=3.000s events=4472",
    "breaker     policy=circuit-breaker steps=1535   rejected=0 lost=1 recovered=2 worst_recovery=6.200s events=4218",
    "all         policy=circuit-breaker steps=1715   rejected=0 lost=0 recovered=4 worst_recovery=6.200s events=4613",
    "supervised  policy=circuit-breaker steps=2195   rejected=0 lost=0 recovered=3 worst_recovery=6.200s events=6857",
];

/// The recorded `health_rows` output (see [`TABLE1_PINNED`]), detector
/// transition logs included.
const HEALTH_PINNED: [&str; 82] = [
    "unsupervised  steps=2264   transitions=0 mean_ttd=0ns mean_ttr=0ns migrations=0 hedge_wins=0 hedge_losses=0 events=5725",
    "detect        steps=2407   transitions=26 mean_ttd=300.000ms mean_ttr=283.460ms migrations=1 hedge_wins=0 hedge_losses=0 events=7214",
    "              j0 w1 healthy->suspect @4.300000s",
    "              j0 w1 suspect->dead @4.800000s",
    "              j0 w1 dead->healthy @5.000117s",
    "              j0 w1 healthy->suspect @5.500000s",
    "              j0 w1 suspect->dead @6.000000s",
    "              j0 w2 healthy->suspect @6.400000s",
    "              j0 w2 suspect->healthy @6.400146s",
    "              j0 w2 healthy->suspect @6.800000s",
    "              j0 w2 suspect->healthy @6.800114s",
    "              j0 w2 healthy->suspect @7.200000s",
    "              j0 w2 suspect->healthy @7.200109s",
    "              j0 w2 healthy->suspect @7.600000s",
    "              j0 w2 suspect->healthy @7.600145s",
    "              j0 w2 healthy->suspect @8.000000s",
    "              j0 w2 suspect->healthy @8.000119s",
    "              j0 w1 dead->healthy @8.200115s",
    "              j0 w2 healthy->suspect @8.400000s",
    "              j0 w2 suspect->healthy @8.400138s",
    "              j0 w2 healthy->suspect @8.800000s",
    "              j0 w2 suspect->healthy @8.800155s",
    "              j0 w2 healthy->suspect @9.200000s",
    "              j0 w2 suspect->healthy @9.200110s",
    "              j0 w2 healthy->suspect @9.600000s",
    "              j0 w2 suspect->healthy @9.600140s",
    "              j0 w2 healthy->suspect @10.000000s",
    "              j0 w2 suspect->healthy @10.000108s",
    "migrate       steps=2498   transitions=26 mean_ttd=300.000ms mean_ttr=283.459ms migrations=1 hedge_wins=0 hedge_losses=0 events=7396",
    "              j0 w1 healthy->suspect @4.300000s",
    "              j0 w1 suspect->dead @4.800000s",
    "              j0 w1 dead->healthy @5.000114s",
    "              j0 w1 healthy->suspect @5.500000s",
    "              j0 w1 suspect->dead @6.000000s",
    "              j0 w2 healthy->suspect @6.400000s",
    "              j0 w2 suspect->healthy @6.400146s",
    "              j0 w2 healthy->suspect @6.800000s",
    "              j0 w2 suspect->healthy @6.800114s",
    "              j0 w2 healthy->suspect @7.200000s",
    "              j0 w2 suspect->healthy @7.200109s",
    "              j0 w2 healthy->suspect @7.600000s",
    "              j0 w2 suspect->healthy @7.600145s",
    "              j0 w2 healthy->suspect @8.000000s",
    "              j0 w2 suspect->healthy @8.000119s",
    "              j0 w1 dead->healthy @8.200115s",
    "              j0 w2 healthy->suspect @8.400000s",
    "              j0 w2 suspect->healthy @8.400138s",
    "              j0 w2 healthy->suspect @8.800000s",
    "              j0 w2 suspect->healthy @8.800155s",
    "              j0 w2 healthy->suspect @9.200000s",
    "              j0 w2 suspect->healthy @9.200110s",
    "              j0 w2 healthy->suspect @9.600000s",
    "              j0 w2 suspect->healthy @9.600140s",
    "              j0 w2 healthy->suspect @10.000000s",
    "              j0 w2 suspect->healthy @10.000108s",
    "hedged        steps=2498   transitions=26 mean_ttd=300.000ms mean_ttr=283.466ms migrations=1 hedge_wins=0 hedge_losses=2 events=7434",
    "              j0 w1 healthy->suspect @4.300000s",
    "              j0 w1 suspect->dead @4.800000s",
    "              j0 w1 dead->healthy @5.000114s",
    "              j0 w1 healthy->suspect @5.500000s",
    "              j0 w1 suspect->dead @6.000000s",
    "              j0 w2 healthy->suspect @6.400000s",
    "              j0 w2 suspect->healthy @6.400139s",
    "              j0 w2 healthy->suspect @6.800000s",
    "              j0 w2 suspect->healthy @6.800156s",
    "              j0 w2 healthy->suspect @7.200000s",
    "              j0 w2 suspect->healthy @7.200144s",
    "              j0 w2 healthy->suspect @7.600000s",
    "              j0 w2 suspect->healthy @7.600116s",
    "              j0 w2 healthy->suspect @8.000000s",
    "              j0 w2 suspect->healthy @8.000136s",
    "              j0 w1 dead->healthy @8.200093s",
    "              j0 w2 healthy->suspect @8.400000s",
    "              j0 w2 suspect->healthy @8.400127s",
    "              j0 w2 healthy->suspect @8.800000s",
    "              j0 w2 suspect->healthy @8.800125s",
    "              j0 w2 healthy->suspect @9.200000s",
    "              j0 w2 suspect->healthy @9.200124s",
    "              j0 w2 healthy->suspect @9.600000s",
    "              j0 w2 suspect->healthy @9.600142s",
    "              j0 w2 healthy->suspect @10.000000s",
    "              j0 w2 suspect->healthy @10.000172s",
];

/// The recorded `traffic_rows` output (see [`TABLE1_PINNED`]).
const TRAFFIC_PINNED: [&str; 18] = [
    "poisson/open     arrivals=64   accepted=64   rejected=0    p50=0ns p99=0ns p999=0ns harvest=0.930 events=2116",
    "                   rejected/submitted by tenant: batch=0/36 interactive=0/16 training=0/12",
    "                   shed by layer: service-metrics=0 placement=0 | by kind: arrived-after-shutdown=33",
    "poisson/guarded  arrivals=64   accepted=45   rejected=19   p50=0ns p99=864.037ms p999=864.037ms harvest=0.930 events=2061",
    "                   rejected/submitted by tenant: batch=14/36 interactive=2/16 training=3/12",
    "                   shed by layer: service-metrics=0 admission-control=8 tenant-quota=11 deadline=0 priority-tag=0 rate-limit=0 placement=0 | by kind: arrived-after-shutdown=23 overloaded=8 quota-exceeded=11",
    "onoff/open       arrivals=64   accepted=64   rejected=0    p50=0ns p99=0ns p999=0ns harvest=0.930 events=2128",
    "                   rejected/submitted by tenant: batch=0/36 interactive=0/16 training=0/12",
    "                   shed by layer: service-metrics=0 placement=0 | by kind: arrived-after-shutdown=30",
    "onoff/guarded    arrivals=64   accepted=13   rejected=51   p50=328.487ms p99=1.331s p999=1.331s harvest=0.930 events=1993",
    "                   rejected/submitted by tenant: batch=29/36 interactive=11/16 training=11/12",
    "                   shed by layer: service-metrics=0 admission-control=0 tenant-quota=2 deadline=0 priority-tag=0 rate-limit=0 placement=49 | by kind: deadline-exceeded=49 quota-exceeded=2",
    "diurnal/open     arrivals=57   accepted=57   rejected=0    p50=0ns p99=0ns p999=0ns harvest=0.923 events=3089",
    "                   rejected/submitted by tenant: batch=0/26 interactive=0/25 training=0/6",
    "                   shed by layer: service-metrics=0 placement=0 | by kind: arrived-after-shutdown=34",
    "diurnal/guarded  arrivals=57   accepted=41   rejected=16   p50=0ns p99=849.492ms p999=849.492ms harvest=0.923 events=3053",
    "                   rejected/submitted by tenant: batch=8/26 interactive=8/25 training=0/6",
    "                   shed by layer: service-metrics=0 admission-control=12 tenant-quota=4 deadline=0 priority-tag=0 rate-limit=0 placement=0 | by kind: arrived-after-shutdown=23 overloaded=12 quota-exceeded=4",
];

/// The table1-style row computation: a full co-location simulation per
/// workload, formatted exactly like the binary's output rows.
fn table1_rows(threads: usize) -> Vec<String> {
    let pipeline = main_pipeline(3);
    let jobs: Vec<_> = WorkloadKind::ALL
        .into_iter()
        .map(|kind| {
            let pipeline = pipeline.clone();
            move || {
                let run = colocate(
                    &pipeline,
                    &FreeRideConfig::iterative(),
                    &Submission::per_worker(kind, 4),
                );
                let total_steps = run.total_steps();
                let thr = total_steps as f64 / run.makespan().as_secs_f64();
                format!(
                    "{:<10} steps={} thr={:.6} events={} time={}",
                    kind.name(),
                    total_steps,
                    thr,
                    run.events_processed,
                    run.makespan()
                )
            }
        })
        .collect();
    SweepRunner::new(threads).run(jobs)
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    let sequential = table1_rows(1);
    assert_eq!(sequential, TABLE1_PINNED, "table1 rows moved");
    for threads in [2, 4] {
        let parallel = table1_rows(threads);
        assert_eq!(
            sequential, parallel,
            "threads={threads} must not change a single byte of output"
        );
    }
}

/// The cluster-bin row computation: a multi-job cluster simulation per
/// policy, formatted like the binary's output rows.
fn cluster_rows(threads: usize) -> Vec<String> {
    let policies: Vec<Box<dyn PlacementPolicy>> = vec![
        Box::new(FirstFit),
        Box::new(BestFitMemory),
        Box::new(LeastLoaded),
        Box::new(MinTasksJob),
    ];
    let jobs: Vec<_> = policies
        .into_iter()
        .map(|policy| {
            move || {
                let mut cluster = Cluster::builder()
                    .job(
                        ClusterJob::new(
                            PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2),
                        )
                        .seed(1),
                    )
                    .job(
                        ClusterJob::new(
                            PipelineConfig::paper_default(ModelSpec::nanogpt_1_2b()).with_epochs(2),
                        )
                        .seed(2),
                    )
                    .policy(policy)
                    .cost_report(false)
                    .build();
                for kind in [WorkloadKind::PageRank, WorkloadKind::ImageProc] {
                    let _ = cluster.submit_with(Submission::new(kind), SubmitOptions::new());
                }
                let report = cluster.run();
                format!(
                    "{} steps={} events={} makespan={}",
                    report.policy,
                    report.total_steps(),
                    report.events_processed,
                    report.makespan()
                )
            }
        })
        .collect();
    SweepRunner::new(threads).run(jobs)
}

#[test]
fn cluster_sweep_is_byte_identical_to_sequential() {
    let sequential = cluster_rows(1);
    assert_eq!(sequential, CLUSTER_PINNED, "cluster rows moved");
    for threads in [2, 4] {
        let parallel = cluster_rows(threads);
        assert_eq!(
            sequential, parallel,
            "threads={threads} must not change a single byte of cluster output"
        );
    }
}

/// The hetero-bin row computation: a mixed-fleet simulation per policy,
/// formatted like the binary's output rows.
fn hetero_rows(threads: usize) -> Vec<String> {
    let policies: Vec<Box<dyn PlacementPolicy>> = vec![
        Box::new(FirstFit),
        Box::new(BestFitMemory),
        Box::new(LeastLoaded),
        Box::new(FastestFit),
        Box::new(MinTasksJob),
    ];
    let jobs: Vec<_> = policies
        .into_iter()
        .map(|policy| {
            move || {
                let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_1_2b())
                    .with_epochs(2)
                    .with_hardware(vec![
                        HardwareSpec::h100_80g(),
                        HardwareSpec::a100_80g(),
                        HardwareSpec::a100_40g(),
                        HardwareSpec::l4_24g(),
                    ]);
                let mut cluster = Cluster::builder()
                    .job(ClusterJob::new(pipeline).seed(0x4E_7E_20))
                    .policy(policy)
                    .cost_report(false)
                    .build();
                for kind in [WorkloadKind::PageRank, WorkloadKind::ImageProc] {
                    let _ = cluster.submit_with(Submission::new(kind), SubmitOptions::new());
                }
                let report = cluster.run();
                let placements: Vec<usize> =
                    report.jobs[0].tasks.iter().map(|t| t.worker).collect();
                format!(
                    "{} steps={} events={} placements={placements:?} makespan={}",
                    report.policy,
                    report.total_steps(),
                    report.events_processed,
                    report.makespan()
                )
            }
        })
        .collect();
    SweepRunner::new(threads).run(jobs)
}

#[test]
fn hetero_sweep_is_byte_identical_to_sequential() {
    // The ISSUE's bar: the hetero bin must print the same bytes at
    // `--threads 1` and `--threads 4`.
    let sequential = hetero_rows(1);
    assert_eq!(sequential, HETERO_PINNED, "hetero rows moved");
    for threads in [2, 4] {
        let parallel = hetero_rows(threads);
        assert_eq!(
            sequential, parallel,
            "threads={threads} must not change a single byte of hetero output"
        );
    }
}

/// The chaos-bin row computation: the six-cell resilience grid over one
/// fault trace, formatted exactly like the binary's output rows.
fn chaos_rows(threads: usize) -> Vec<String> {
    chaos::run_cells(3, chaos::DEFAULT_SEED, SweepRunner::new(threads))
        .iter()
        .map(chaos::row)
        .collect()
}

#[test]
fn chaos_sweep_is_byte_identical_to_sequential() {
    // The ISSUE's bar: the chaos bin must print the same bytes for any
    // `--threads`, even though its cells inject faults, retry arrivals,
    // and restore checkpointed tasks.
    let sequential = chaos_rows(1);
    assert_eq!(sequential, CHAOS_PINNED, "chaos rows moved");
    for threads in [2, 4] {
        let parallel = chaos_rows(threads);
        assert_eq!(
            sequential, parallel,
            "threads={threads} must not change a single byte of chaos output"
        );
    }
}

/// The health-bin row computation: the supervision-level grid over the
/// chaos fault trace, formatted exactly like the binary's output rows —
/// including the detector's full transition log and the TTD/TTR means.
fn health_rows(threads: usize) -> Vec<String> {
    health::run_cells(3, health::DEFAULT_SEED, SweepRunner::new(threads))
        .iter()
        .flat_map(health::rows)
        .collect()
}

#[test]
fn health_sweep_is_byte_identical_to_sequential() {
    // The ISSUE's bar: detection and recovery latencies and the full
    // detector transition log must not move by a byte across thread
    // counts — supervision reacts to the event stream, so any
    // nondeterminism in it would smear the log.
    let sequential = health_rows(1);
    assert_eq!(sequential, HEALTH_PINNED, "health rows moved");
    assert!(
        sequential.iter().any(|l| l.contains("->suspect")),
        "the grid must actually exercise the detector"
    );
    assert!(
        sequential.iter().any(|l| l.contains("mean_ttd=300.000ms")),
        "detection latency must be part of the compared bytes"
    );
    for threads in [2, 4] {
        let parallel = health_rows(threads);
        assert_eq!(
            sequential, parallel,
            "threads={threads} must not change a single byte of health output"
        );
    }
}

/// The traffic-bin row computation: the 3-process × 2-stack service
/// front-end grid, formatted exactly like the binary's output rows.
fn traffic_rows(threads: usize) -> Vec<String> {
    traffic::run_cells(2, traffic::DEFAULT_SEED, SweepRunner::new(threads))
        .iter()
        .flat_map(traffic::rows)
        .collect()
}

#[test]
fn traffic_sweep_is_byte_identical_to_sequential() {
    // The ISSUE's bar: the traffic bin must print the same bytes at
    // `--threads 1` and `--threads 4`, even though its cells meter,
    // delay, and shed hundreds of generated arrivals.
    let sequential = traffic_rows(1);
    assert_eq!(sequential, TRAFFIC_PINNED, "traffic rows moved");
    for threads in [2, 4] {
        let parallel = traffic_rows(threads);
        assert_eq!(
            sequential, parallel,
            "threads={threads} must not change a single byte of traffic output"
        );
    }
}

/// The trace-export computation: traced two-job cluster simulations
/// (one per placement policy), each closure owning its own tracer, with
/// both exporters' full output as the compared rows.
fn trace_rows(threads: usize) -> Vec<String> {
    let policies: Vec<Box<dyn PlacementPolicy>> = vec![
        Box::new(FirstFit),
        Box::new(LeastLoaded),
        Box::new(MinTasksJob),
    ];
    let jobs: Vec<_> = policies
        .into_iter()
        .map(|policy| {
            move || {
                let sink = SimTracer::shared();
                let mut cluster = Cluster::builder()
                    .job(
                        ClusterJob::new(
                            PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2),
                        )
                        .seed(1),
                    )
                    .job(
                        ClusterJob::new(
                            PipelineConfig::paper_default(ModelSpec::nanogpt_1_2b()).with_epochs(2),
                        )
                        .seed(2),
                    )
                    .policy(policy)
                    .cost_report(false)
                    .trace(sink.clone())
                    .build();
                for kind in [WorkloadKind::PageRank, WorkloadKind::ImageProc] {
                    let _ = cluster.submit_with(Submission::new(kind), SubmitOptions::new());
                }
                let report = cluster.run();
                let summary = report.trace_summary.expect("tracing armed");
                let tracer = sink.lock().unwrap();
                format!(
                    "policy={} trace_events={} by_kind={:?}\n{}\n{}",
                    report.policy,
                    summary.events,
                    summary.by_kind,
                    tracer.to_chrome_trace(),
                    tracer.to_jsonl()
                )
            }
        })
        .collect();
    SweepRunner::new(threads).run(jobs)
}

#[test]
fn trace_exports_are_byte_identical_across_threads() {
    // The ISSUE's bar: the Chrome-trace and JSONL exports must not move
    // by a byte for any `--threads` — the tracer observes the per-cluster
    // event stream, which is single-threaded and deterministic, so the
    // sweep executor's fan-out must not smear it.
    let sequential = trace_rows(1);
    assert!(
        sequential.iter().all(|r| r.contains("traceEvents")),
        "every row must carry a Chrome-trace export"
    );
    assert!(
        sequential.iter().any(|r| r.contains("\"bubble\"")),
        "the traced runs must record bubble spans"
    );
    for threads in [2, 4] {
        let parallel = trace_rows(threads);
        assert_eq!(
            sequential, parallel,
            "threads={threads} must not change a single byte of trace output"
        );
    }
}

#[test]
fn sweep_preserves_submission_order_not_completion_order() {
    // Mix long (many-epoch) and short jobs so completion order inverts
    // submission order under parallel scheduling.
    let jobs: Vec<_> = [5usize, 1, 3, 1, 2]
        .into_iter()
        .enumerate()
        .map(|(i, epochs)| {
            move || {
                let pipeline = main_pipeline(epochs);
                let run = colocate(
                    &pipeline,
                    &FreeRideConfig::iterative(),
                    &Submission::per_worker(WorkloadKind::PageRank, 4),
                );
                (i, epochs, run.events_processed)
            }
        })
        .collect();
    let out = SweepRunner::new(4).run(jobs);
    let order: Vec<usize> = out.iter().map(|(i, _, _)| *i).collect();
    assert_eq!(order, vec![0, 1, 2, 3, 4], "submission order preserved");
    // More epochs, more events — sanity that these were distinct runs.
    assert!(out[0].2 > out[1].2);
}
