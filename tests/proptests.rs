//! Property-based tests over the core data structures and invariants:
//! schedules, the state machine, placement, memory accounting, the event
//! queue, whole-pipeline termination for arbitrary shapes, and replay
//! determinism under arbitrary fault traces.

use freeride::core::{
    next_state, AdmissionControl, BestFitMemory, Cluster, ClusterJob, ClusterReport, DeadlineLayer,
    FastestFit, FaultPlan, FirstFit, FreeRideConfig, LeastLoaded, MinTasksJob, Placement,
    PlacementPolicy, PriorityTag, RateLimit, RateLimitMode, RetryPolicy, ServiceMetrics,
    SideTaskManager, SideTaskState, Submission, SubmitOptions, SupervisorConfig, TaskId,
    TenantQuota, Transition, WorkerPolicy,
};
use freeride::gpu::{HardwareSpec, MemBytes, MemoryPool};
use freeride::obs::SimTracer;
use freeride::pipeline::{run_training, ModelSpec, PipelineConfig, Schedule, ScheduleKind};
use freeride::sim::{EventQueue, SimDuration, SimTime};
use freeride::tasks::WorkloadKind;
use freeride::tasks::{ArrivalProcess, TrafficClass, TrafficGen};
use proptest::prelude::*;

proptest! {
    #[test]
    fn any_schedule_shape_is_valid(
        stages in 2usize..10,
        micro_batches in 1usize..24,
        gpipe in any::<bool>(),
    ) {
        let kind = if gpipe { ScheduleKind::GPipe } else { ScheduleKind::OneFOneB };
        let s = Schedule::build(kind, stages, micro_batches);
        s.assert_valid();
        prop_assert_eq!(s.num_stages(), stages);
        for st in 0..stages {
            prop_assert_eq!(s.stage_plan(st).len(), 2 * micro_batches + 1);
        }
    }

    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(*t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn event_queue_cancellation_preserves_others(
        times in prop::collection::vec(0u64..100_000, 2..100),
        cancel_idx in prop::collection::vec(any::<prop::sample::Index>(), 1..10),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, t)| q.push(SimTime::from_nanos(*t), i))
            .collect();
        let mut cancelled = std::collections::BTreeSet::new();
        for idx in cancel_idx {
            let i = idx.index(ids.len());
            if cancelled.insert(i) {
                prop_assert!(q.cancel(ids[i]));
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some((_, v)) = q.pop() {
            prop_assert!(!cancelled.contains(&v), "cancelled event delivered");
            seen.insert(v);
        }
        prop_assert_eq!(seen.len(), times.len() - cancelled.len());
    }

    #[test]
    fn state_machine_never_leaves_stopped(
        transitions in prop::collection::vec(0usize..6, 0..40),
    ) {
        let all = [
            Transition::CreateSideTask,
            Transition::InitSideTask,
            Transition::StartSideTask,
            Transition::PauseSideTask,
            Transition::RunNextStep,
            Transition::StopSideTask,
        ];
        let mut state = SideTaskState::Submitted;
        let mut stopped = false;
        for idx in transitions {
            if let Ok(next) = next_state(state, all[idx]) {
                prop_assert!(!stopped, "transition out of STOPPED");
                state = next;
                if state == SideTaskState::Stopped {
                    stopped = true;
                }
            }
        }
    }

    #[test]
    fn state_machine_gpu_memory_only_after_init(
        transitions in prop::collection::vec(0usize..6, 0..40),
    ) {
        // The paper's resource story: CREATED holds host memory only;
        // PAUSED/RUNNING hold GPU memory. Check that RUNNING is only
        // reachable through PAUSED, which is only reachable through
        // CREATED.
        let all = [
            Transition::CreateSideTask,
            Transition::InitSideTask,
            Transition::StartSideTask,
            Transition::PauseSideTask,
            Transition::RunNextStep,
            Transition::StopSideTask,
        ];
        let mut state = SideTaskState::Submitted;
        let mut seen_created = false;
        let mut seen_paused = false;
        for idx in transitions {
            if let Ok(next) = next_state(state, all[idx]) {
                match next {
                    SideTaskState::Created => seen_created = true,
                    SideTaskState::Paused => {
                        prop_assert!(seen_created);
                        seen_paused = true;
                    }
                    SideTaskState::Running => prop_assert!(seen_paused),
                    _ => {}
                }
                state = next;
            }
        }
    }

    #[test]
    fn placement_respects_memory_under_any_policy(
        mems in prop::collection::vec(1u64..32, 1..6),
        tasks in prop::collection::vec(1u64..32, 0..20),
        policy_idx in 0usize..3,
    ) {
        let policy = [
            WorkerPolicy::MinTasks,
            WorkerPolicy::FirstFit,
            WorkerPolicy::MostMemory,
        ][policy_idx];
        let worker_mems: Vec<MemBytes> = mems.iter().map(|g| MemBytes::from_gib(*g)).collect();
        let mut m = SideTaskManager::new(worker_mems.clone()).with_policy(policy);
        for (i, t) in tasks.iter().enumerate() {
            let req = MemBytes::from_gib(*t);
            match m.submit(TaskId(i as u64), req) {
                Ok((w, _)) => prop_assert!(worker_mems[w] > req, "overcommitted worker {w}"),
                Err(_) => {
                    // Rejection must mean no worker could hold it.
                    prop_assert!(worker_mems.iter().all(|wm| *wm <= req));
                }
            }
        }
    }

    #[test]
    fn no_cluster_policy_overplaces_on_random_hetero_fleets(
        extras in prop::collection::vec(0u64..40, 8),
        speed_tenths in prop::collection::vec(1u64..40, 8),
        needed_gib in 1u64..48,
    ) {
        // Two jobs on randomized heterogeneous fleets: per stage, a
        // device barely big enough for training plus 0–39 GiB of bubble
        // headroom, at a random speed in 0.1x–3.9x. Every shipped policy
        // (including the hardware-aware FastestFit) must only ever place
        // where free memory strictly exceeds the request, and must not
        // miss a feasible placement.
        let base = PipelineConfig::paper_default(ModelSpec::nanogpt_1_2b());
        let spec = |s: usize, extra: u64, tenths: u64| {
            let mem = base.stage_memory(s) + MemBytes::from_gib(extra) + MemBytes::from_mib(1);
            HardwareSpec::custom(format!("rand-{s}"), mem, tenths as f64 / 10.0)
        };
        let job = |off: usize| {
            let fleet = (0..4)
                .map(|s| spec(s, extras[off + s], speed_tenths[off + s]))
                .collect();
            ClusterJob::new(base.clone().with_hardware(fleet))
        };
        let cluster = Cluster::builder()
            .job(job(0))
            .job(job(4))
            .cost_report(false)
            .build();
        let view = cluster.view();
        let needed = MemBytes::from_gib(needed_gib);
        let any_fits = view
            .jobs()
            .iter()
            .any(|j| j.workers.iter().any(|w| w.free_mem > needed));
        let policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(FirstFit),
            Box::new(BestFitMemory),
            Box::new(LeastLoaded),
            Box::new(FastestFit),
            Box::new(MinTasksJob),
        ];
        for policy in policies {
            match policy.place(needed, &view) {
                Some(Placement::Worker { job, worker }) => {
                    let w = &view.jobs()[job].workers[worker];
                    prop_assert!(
                        w.free_mem > needed,
                        "{} placed {needed} on job {job} worker {worker} offering {}",
                        policy.name(),
                        w.free_mem
                    );
                }
                Some(Placement::Job(job)) => {
                    prop_assert!(
                        view.jobs()[job].workers.iter().any(|w| w.free_mem > needed),
                        "{} routed {needed} to job {job} with no fitting worker",
                        policy.name()
                    );
                }
                None => prop_assert!(
                    !any_fits,
                    "{} rejected {needed} although a worker fits",
                    policy.name()
                ),
                // `Placement` is non-exhaustive: future placement shapes
                // are simply not checked by this property.
                Some(_) => {}
            }
        }
    }

    #[test]
    fn min_tasks_placement_is_balanced(count in 1usize..16) {
        let mut m = SideTaskManager::new(vec![MemBytes::from_gib(10); 4]);
        for i in 0..count {
            m.submit(TaskId(i as u64), MemBytes::from_gib(1)).unwrap();
        }
        let counts: Vec<usize> = (0..4).map(|w| m.worker(w).task_count()).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        prop_assert!(max - min <= 1, "unbalanced: {counts:?}");
    }

    #[test]
    fn memory_pool_never_overcommits(
        ops in prop::collection::vec((any::<bool>(), 1u64..10), 0..60),
    ) {
        let total = MemBytes::from_gib(32);
        let mut pool = MemoryPool::new(total);
        let mut held: Vec<MemBytes> = Vec::new();
        for (is_alloc, gib) in ops {
            let size = MemBytes::from_gib(gib);
            if is_alloc {
                if pool.reserve(size).is_ok() {
                    held.push(size);
                }
            } else if let Some(s) = held.pop() {
                pool.release(s);
            }
            let held_total: MemBytes = held.iter().copied().sum();
            prop_assert_eq!(pool.used(), held_total);
            prop_assert!(pool.used() <= total);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Online arrivals are work-preserving: when memory never binds and
    /// every task arrives before bubble serving begins (inside the
    /// profiling epoch), any interleaving of arrival times yields the
    /// same total work as the equivalent up-front batch. RPC jitter is
    /// disabled so message latencies cannot depend on send order.
    #[test]
    fn arrival_interleaving_preserves_total_work(
        arrivals_ms in prop::collection::vec(0u64..1500, 4),
    ) {
        let p = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(3);
        let cfg = || {
            let mut c = FreeRideConfig::iterative();
            c.rpc_jitter = 0.0;
            c
        };

        let run = |subs: Vec<Submission>| {
            let mut cluster = Cluster::builder()
                .job(ClusterJob::new(p.clone()).config(cfg()))
                .cost_report(false)
                .build();
            for sub in subs {
                cluster.submit(sub).unwrap();
            }
            cluster.run().jobs.remove(0)
        };
        let batch = run(vec![Submission::new(WorkloadKind::PageRank); 4]);
        let online = run(arrivals_ms
            .iter()
            .map(|ms| Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(*ms)))
            .collect());

        // Precondition: every arrival fell inside the profiling epoch,
        // before the first serving bubble.
        prop_assert!(
            online.epoch_times[0] > freeride::sim::SimDuration::from_millis(2_000),
            "profiling epoch shorter than the arrival window"
        );
        let batch_total: u64 = batch.tasks.iter().map(|t| t.steps).sum();
        let online_total: u64 = online.tasks.iter().map(|t| t.steps).sum();
        prop_assert_eq!(
            batch_total, online_total,
            "arrivals at {:?} ms changed total work", arrivals_ms
        );
        prop_assert_eq!(online.tasks.len(), 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pipeline engine terminates and keeps a sane bubble rate for any
    /// micro-batch count; the known (s−1)/(m+s−1) law bounds it.
    #[test]
    fn training_terminates_for_any_micro_batch_count(mb in 1usize..12) {
        let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
            .with_micro_batches(mb)
            .with_epochs(2);
        let run = run_training(&cfg, ScheduleKind::OneFOneB);
        prop_assert_eq!(run.epoch_times.len(), 2);
        let rate = run.bubble_stats.bubble_rate;
        let ideal = 3.0 / (mb as f64 + 3.0);
        prop_assert!(
            (rate - ideal).abs() < 0.09,
            "rate {rate} far from the pipeline law {ideal} at mb={mb}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Chaos determinism: an arbitrary fault trace — crashes, stragglers,
    /// OOM windows, RPC spikes, in any order, overlapping or not — with
    /// any mechanism mix, replayed twice, yields an identical report.
    /// Fault injection must not break the simulation's replay contract.
    #[test]
    fn any_fault_trace_replays_identically(
        events in prop::collection::vec(
            (0u8..4, 500u64..11_000, 0usize..4, 200u64..3_000, 1u64..50),
            0..5,
        ),
        checkpoint in any::<bool>(),
        retry in any::<bool>(),
    ) {
        let plan = || {
            let mut p = FaultPlan::new();
            for (kind, at_ms, worker, dur_ms, lat_ms) in &events {
                let at = SimTime::from_millis(*at_ms);
                let dur = SimDuration::from_millis(*dur_ms);
                p = match kind {
                    0 => p.crash_worker(at, *worker, dur),
                    1 => p.straggler(at, *worker, 0.25 + (*lat_ms as f64) / 100.0, dur),
                    2 => p.oom_window(at, dur),
                    _ => p.rpc_spike(at, *worker, SimDuration::from_millis(*lat_ms), dur),
                };
            }
            p
        };
        let run = || {
            let pipeline =
                PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(3);
            let mut job = ClusterJob::new(pipeline).seed(0xD1CE).faults(plan());
            if checkpoint {
                job = job.checkpoint(SimDuration::from_millis(700));
            }
            let mut cluster = Cluster::builder().job(job).cost_report(false).build();
            for _ in 0..2 {
                let _ =
                    cluster.submit_with(Submission::new(WorkloadKind::PageRank), SubmitOptions::new());
            }
            let opts = if retry {
                SubmitOptions::new().retry(RetryPolicy::new(4, SimDuration::from_millis(250)))
            } else {
                SubmitOptions::new()
            };
            let _ = cluster.submit_with(
                Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(3_300)),
                opts,
            );
            cluster.run()
        };
        let digest = |r: &ClusterReport| {
            let j = &r.jobs[0];
            format!(
                "{:?}|{:?}|{}|{}|{}",
                j.tasks
                    .iter()
                    .map(|t| (t.id, t.worker, t.steps, t.stop_reason))
                    .collect::<Vec<_>>(),
                j.recoveries,
                r.total_rejections(),
                r.events_processed,
                j.total_time,
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(digest(&a), digest(&b), "fault trace {:?} diverged on replay", events);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Observability is passive: arming a tracer on an arbitrary chaos
    /// run — crashes, stragglers, OOM windows, RPC spikes, checkpoints,
    /// supervision — must not move the simulation by a byte. The traced
    /// run's digest (task outcomes, recoveries, rejections, event count,
    /// makespan) equals the untraced run's, while the trace itself is
    /// non-empty and internally consistent with the event stream it
    /// observed.
    #[test]
    fn traced_run_replays_digest_identical_to_untraced(
        events in prop::collection::vec(
            (0u8..4, 500u64..11_000, 0usize..4, 200u64..3_000, 1u64..50),
            0..5,
        ),
        supervise in any::<bool>(),
    ) {
        let plan = || {
            let mut p = FaultPlan::new();
            for (kind, at_ms, worker, dur_ms, lat_ms) in &events {
                let at = SimTime::from_millis(*at_ms);
                let dur = SimDuration::from_millis(*dur_ms);
                p = match kind {
                    0 => p.crash_worker(at, *worker, dur),
                    1 => p.straggler(at, *worker, 0.25 + (*lat_ms as f64) / 100.0, dur),
                    2 => p.oom_window(at, dur),
                    _ => p.rpc_spike(at, *worker, SimDuration::from_millis(*lat_ms), dur),
                };
            }
            p
        };
        let run = |traced: bool| {
            let pipeline =
                PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(3);
            let mut job = ClusterJob::new(pipeline)
                .seed(0xD1CE)
                .faults(plan())
                .checkpoint(SimDuration::from_millis(700));
            if supervise {
                job = job.supervise(SupervisorConfig::new().hedge(0.5));
            }
            let mut builder = Cluster::builder().job(job).cost_report(false);
            if traced {
                builder = builder.trace(SimTracer::shared());
            }
            let mut cluster = builder.build();
            for _ in 0..2 {
                let _ =
                    cluster.submit_with(Submission::new(WorkloadKind::PageRank), SubmitOptions::new());
            }
            let _ = cluster.submit_with(
                Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(3_300)),
                SubmitOptions::new().retry(RetryPolicy::new(4, SimDuration::from_millis(250))),
            );
            cluster.run()
        };
        let digest = |r: &ClusterReport| {
            let j = &r.jobs[0];
            format!(
                "{:?}|{:?}|{:?}|{}|{}|{}",
                j.tasks
                    .iter()
                    .map(|t| (t.id, t.worker, t.steps, t.stop_reason))
                    .collect::<Vec<_>>(),
                j.recoveries,
                r.health,
                r.total_rejections(),
                r.events_processed,
                j.total_time,
            )
        };
        let untraced = run(false);
        let traced = run(true);
        prop_assert_eq!(
            digest(&untraced),
            digest(&traced),
            "tracing perturbed the run on fault trace {:?}",
            events
        );
        prop_assert!(untraced.trace_summary.is_none(), "no sink, no summary");
        let summary = traced.trace_summary.as_ref().expect("tracing armed");
        prop_assert!(summary.events > 0, "armed tracer saw no events");
        prop_assert!(
            summary.by_kind.contains_key("bubble-begin"),
            "training bubbles must be traced"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Health determinism: with the supervisor armed — heartbeats on the
    /// bus, migration on Suspect, hedging — an arbitrary fault trace
    /// still replays digest-identically, where the digest now includes
    /// the detector's full transition log, the TTD/TTR samples, and the
    /// per-recovery attribution. Supervision reacts to the event stream,
    /// so any replay divergence would smear straight into this digest.
    #[test]
    fn any_fault_trace_replays_identically_under_supervision(
        events in prop::collection::vec(
            (0u8..4, 500u64..11_000, 0usize..4, 200u64..3_000, 1u64..50),
            0..5,
        ),
        hedge in any::<bool>(),
    ) {
        let plan = || {
            let mut p = FaultPlan::new();
            for (kind, at_ms, worker, dur_ms, lat_ms) in &events {
                let at = SimTime::from_millis(*at_ms);
                let dur = SimDuration::from_millis(*dur_ms);
                p = match kind {
                    0 => p.crash_worker(at, *worker, dur),
                    1 => p.straggler(at, *worker, 0.25 + (*lat_ms as f64) / 100.0, dur),
                    2 => p.oom_window(at, dur),
                    _ => p.rpc_spike(at, *worker, SimDuration::from_millis(*lat_ms), dur),
                };
            }
            p
        };
        let run = || {
            let pipeline =
                PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(3);
            let supervise = if hedge {
                SupervisorConfig::new().hedge(0.5)
            } else {
                SupervisorConfig::new()
            };
            let job = ClusterJob::new(pipeline)
                .seed(0xD1CE)
                .faults(plan())
                .checkpoint(SimDuration::from_millis(700))
                .supervise(supervise);
            let mut cluster = Cluster::builder().job(job).cost_report(false).build();
            for _ in 0..2 {
                let _ =
                    cluster.submit_with(Submission::new(WorkloadKind::PageRank), SubmitOptions::new());
            }
            let _ = cluster.submit_with(
                Submission::new(WorkloadKind::ImageProc).at(SimTime::from_millis(3_300)),
                SubmitOptions::new().retry(RetryPolicy::new(4, SimDuration::from_millis(250))),
            );
            cluster.run()
        };
        let digest = |r: &ClusterReport| {
            let j = &r.jobs[0];
            format!(
                "{:?}|{:?}|{:?}|{}|{}|{}",
                j.tasks
                    .iter()
                    .map(|t| (t.id, t.worker, t.steps, t.stop_reason))
                    .collect::<Vec<_>>(),
                j.recoveries,
                r.health,
                r.total_rejections(),
                r.events_processed,
                j.total_time,
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(
            digest(&a),
            digest(&b),
            "supervised fault trace {:?} diverged on replay",
            events
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Service determinism: an arbitrary middleware stack — any mix of
    /// admission control, quotas, shedding/delaying rate limiters,
    /// priority tags, and deadlines, in any order — driven by an
    /// arbitrary generated arrival trace, replayed twice, yields an
    /// identical service report. The front-end must not break the
    /// simulation's replay contract.
    #[test]
    fn any_middleware_stack_replays_identically(
        layers in prop::collection::vec(
            (0u8..5, 1usize..12, 200u64..4_000, 1u64..40),
            0..5,
        ),
        seed in 1u64..u64::MAX,
        poisson in any::<bool>(),
        rate_x10 in 5u64..40,
    ) {
        let trace = || {
            let process = if poisson {
                ArrivalProcess::Poisson { rate_per_sec: rate_x10 as f64 / 10.0 }
            } else {
                ArrivalProcess::OnOff {
                    on: SimDuration::from_millis(800),
                    off: SimDuration::from_millis(1_700),
                    rate_per_sec: rate_x10 as f64 / 4.0,
                }
            };
            TrafficGen::new(seed)
                .duration(SimDuration::from_secs(10))
                .class(
                    TrafficClass::new("alpha", process)
                        .workload(WorkloadKind::PageRank, 2.0)
                        .workload(WorkloadKind::ImageProc, 1.0),
                )
                .generate()
        };
        let run = || {
            let pipeline =
                PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2);
            let mut builder = Cluster::builder()
                .job(ClusterJob::new(pipeline).seed(seed))
                .cost_report(false)
                .layer(ServiceMetrics::new());
            for (kind, limit, ms, rate_x10) in &layers {
                let window = SimDuration::from_millis(*ms);
                let rate = *rate_x10 as f64 / 10.0;
                builder = match kind {
                    0 => builder.layer(AdmissionControl::new(*limit, window)),
                    1 => builder.layer(TenantQuota::new(*limit, window)),
                    2 => builder.layer(RateLimit::new(rate, *limit)),
                    3 => builder
                        .layer(RateLimit::new(rate, *limit).mode(RateLimitMode::Delay)),
                    _ => builder.layer(PriorityTag::new("prop")),
                };
            }
            let mut cluster = builder
                .layer(DeadlineLayer::new(SimDuration::from_millis(2_500)))
                .build();
            for arrival in trace() {
                let _ = cluster.submit_with(
                    Submission::new(arrival.kind).at(arrival.at),
                    SubmitOptions::new().tenant(arrival.tenant),
                );
            }
            cluster.run()
        };
        let digest = |r: &ClusterReport| {
            let s = r.service.as_ref().expect("metrics layer registered");
            format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}",
                s.layers,
                s.placement,
                s.tenants,
                s.rejections_by_kind,
                s.latency.as_ref().map(|h| (h.len(), h.p50(), h.p99(), h.p999())),
                r.events_processed,
                r.makespan(),
            )
        };
        let a = run();
        let b = run();
        prop_assert_eq!(digest(&a), digest(&b), "stack {:?} diverged on replay", layers);
    }
}
