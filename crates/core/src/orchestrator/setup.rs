//! Building, seeding and gathering one cluster run: each job's runtime is
//! built from its [`JobSlot`], every job is seeded in a fixed order, the
//! simulation runs to quiescence, and each finished job is folded into
//! its [`JobReport`].

use super::admission::ArrivalSlot;
use super::resilience::Resilience;
use super::{ClusterEv, ClusterWorld, Ev, JobRuntime, TaskSource, TaskSummary};
use crate::cluster::{JobSlot, PlacementPolicy};
use crate::config::{ColocationMode, FreeRideConfig, InterfaceKind};
use crate::job::{AcceptedSubmission, JobReport, RejectedSubmission};
use crate::manager::SideTaskManager;
use crate::metrics::{evaluate, BubbleBreakdown};
use crate::state::SideTaskState;
use crate::task::{StopReason, TaskId};
use crate::worker::Worker;
use freeride_gpu::{GpuDevice, GpuId, SharingKind};
use freeride_obs::{ProfileCollector, ProfileReport, TraceEventKind, TraceHandle};
use freeride_pipeline::{run_training, EngineAction, PipelineEngine};
use freeride_rpc::{job_scope, Directory, Endpoint, LatencyModel, RpcBus};
use freeride_sim::{DetRng, RunOutcome, SimDuration, SimTime, Simulation, TraceRecorder};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A job's RPC physics as a bus latency model.
pub(super) fn rpc_model(cfg: &FreeRideConfig) -> LatencyModel {
    LatencyModel {
        base: cfg.rpc_latency,
        jitter_sigma: cfg.rpc_jitter,
    }
}

impl TaskSource {
    /// The source of an accepted submission: its own id is the root.
    pub(super) fn of(acc: &AcceptedSubmission) -> Self {
        TaskSource {
            sub: acc.submission.clone(),
            profile: acc.profile,
            root: acc.id,
        }
    }
}

/// Runs N pipeline-training jobs co-located with their accepted
/// submissions in **one** deterministic simulation, to completion, and
/// reports each job (with its no-side-task baseline and cost metrics
/// when `cost_report` is set).
///
/// `bus_seed` seeds the shared RPC bus's jitter stream. The cluster
/// defaults it to job 0's seed, which makes a one-job execution's stream
/// identical to the pre-cluster orchestrator's. `policy` is consulted
/// during online admission so resilience middleware (circuit breakers)
/// can observe failures and mask workers mid-run; the hooks it uses are
/// no-op defaults on plain policies, so they never perturb the event
/// stream.
///
/// `tracer` arms sim-time tracing (every runtime and worker emits into
/// the shared handle); `profile` arms per-subsystem wall-time
/// attribution. Both default off, leaving the hot path untouched, and
/// neither schedules events — armed runs replay the untraced event
/// stream exactly.
pub(crate) fn execute_cluster(
    jobs: &[JobSlot],
    bus_seed: u64,
    policy: Arc<dyn PlacementPolicy>,
    tracer: Option<TraceHandle>,
    profile: bool,
    cost_report: bool,
) -> (Vec<JobReport>, Option<ProfileReport>) {
    assert!(!jobs.is_empty(), "cluster needs at least one job");

    // One job-qualified directory and one bus span every job. The global
    // latency model is job 0's; every job's own links get per-link
    // overrides carrying that job's RPC physics, so heterogeneous configs
    // coexist on the shared bus.
    let mut directory = Directory::new();
    let mut bus = RpcBus::new(
        rpc_model(&jobs[0].cfg),
        DetRng::seed_from_u64(bus_seed).derive("rpc"),
    );
    let mut normal_seeds = Vec::with_capacity(jobs.len());
    let runtimes = jobs
        .iter()
        .enumerate()
        .map(|(j, slot)| {
            let (rt, seeds) = JobRuntime::build(
                j,
                slot,
                &jobs[0].cfg,
                &mut directory,
                &mut bus,
                tracer.as_ref(),
            );
            normal_seeds.push(seeds);
            rt
        })
        .collect();
    let mut sim = Simulation::new(ClusterWorld {
        jobs: runtimes,
        bus,
        policy,
        profile: profile.then(ProfileCollector::new),
    });

    // Seed every job's normal schedule, in job order. The chaos schedule
    // comes after all of them and the supervisor's after even that: extra
    // seeds append to the event-id sequence, so a job with an empty fault
    // plan, no checkpointing and no supervisor replays the exact
    // historical event stream byte for byte.
    let jobs_now = &sim.world().jobs;
    let chaos_seeds: Vec<_> = jobs_now.iter().map(|rt| rt.res.fault_seeds()).collect();
    let health_seeds: Vec<_> = jobs_now
        .iter()
        .map(|rt| rt.res.supervisor_seeds())
        .collect();
    for phase in [normal_seeds, chaos_seeds, health_seeds] {
        for (job, seeds) in phase.into_iter().enumerate() {
            for (at, ev) in seeds {
                sim.seed_at(at, ClusterEv { job, ev });
            }
        }
    }

    let outcome = sim.run_to_quiescence();
    assert_eq!(outcome, RunOutcome::Quiescent, "run must drain");
    let world = sim.into_world();
    let reports = world
        .jobs
        .into_iter()
        .zip(jobs)
        .map(|(rt, slot)| rt.into_report(slot, cost_report))
        .collect();
    (reports, world.profile.map(|c| c.report()))
}

/// Registers job `j`'s trainer, manager and per-stage worker endpoints,
/// in that order, under the job's scope.
fn register_endpoints(
    directory: &mut Directory,
    j: usize,
    stages: usize,
) -> (Endpoint, Endpoint, Vec<Endpoint>) {
    let scope = job_scope(j);
    let roles = ["trainer".to_string(), "manager".to_string()]
        .into_iter()
        .chain((0..stages).map(|i| format!("worker{i}")));
    let mut eps = roles
        .map(|role| directory.register_scoped(&scope, &role))
        .collect::<Result<Vec<_>, _>>()
        .expect("job scopes are unique");
    let workers = eps.split_off(2);
    (eps[0], eps[1], workers)
}

impl JobRuntime {
    /// Builds job `j` from its slot: devices, engine, endpoints, manager
    /// and workers. Up-front submissions are placed and their Create
    /// RPCs posted; online ones are queued for their arrival events.
    /// Returns the runtime and its normal seeds in the pre-cluster order:
    /// training, create RPCs, arrivals, manager loop.
    fn build(
        j: usize,
        slot: &JobSlot,
        global: &FreeRideConfig,
        directory: &mut Directory,
        bus: &mut RpcBus,
        tracer: Option<&TraceHandle>,
    ) -> (Self, Vec<(SimTime, Ev)>) {
        let (pipeline, cfg) = (&slot.pipeline, &slot.cfg);
        let stages = pipeline.stages;

        // Devices built from each stage's hardware spec, under the
        // sharing regime the mode implies. The homogeneous default spec
        // reproduces the pre-hardware devices exactly.
        let sharing = match cfg.mode {
            ColocationMode::Naive => SharingKind::TimeSliced,
            _ => SharingKind::Prioritized,
        };
        let mut devices: Vec<GpuDevice> = (0..stages)
            .map(|i| {
                pipeline
                    .hardware_of(i)
                    .build_device(GpuId(i as u32), sharing)
            })
            .collect();
        let (instr, interface) = match cfg.mode {
            ColocationMode::FreeRide(i) => (cfg.instrumentation_overhead, i),
            // Baselines co-run the original (non-step-wise) implementation.
            _ => (SimDuration::ZERO, InterfaceKind::Imperative),
        };
        let mut engine = PipelineEngine::new(pipeline.clone(), cfg.schedule)
            .with_instrumentation_overhead(instr);
        engine.init(&mut devices);

        let (ep_trainer, ep_manager, ep_workers) = register_endpoints(directory, j, stages);
        // This job's links carry its own RPC physics on the shared bus.
        // Links whose model equals the global one are left to the default
        // (sampling is identical either way), so homogeneous clusters —
        // and every one-job run — keep an empty link table on the send
        // hot path.
        if cfg.rpc_latency != global.rpc_latency || cfg.rpc_jitter != global.rpc_jitter {
            let model = rpc_model(cfg);
            bus.set_link_latency(ep_trainer, ep_manager, model.clone());
            for &w in &ep_workers {
                bus.set_link_latency(ep_manager, w, model.clone());
                bus.set_link_latency(w, ep_manager, model.clone());
            }
        }

        let mut trace = TraceRecorder::new();
        for (g, d) in devices.iter().enumerate() {
            trace.record(&format!("gpu{g}.sm"), SimTime::ZERO, 0.0);
            trace.record(
                &format!("gpu{g}.mem"),
                SimTime::ZERO,
                d.used_mem().as_gib_f64(),
            );
        }
        let workers = (0..stages)
            .map(|i| {
                let mut w = Worker::new(i, cfg.clone());
                if let Some(t) = tracer {
                    w.set_tracer(t.clone(), j);
                }
                w
            })
            .collect();
        let base_speeds = devices.iter().map(|d| d.compute_speed()).collect();

        let mut rt = JobRuntime {
            job: j,
            cfg: cfg.clone(),
            interface,
            devices,
            engine,
            manager: SideTaskManager::new(
                (0..stages)
                    .map(|st| pipeline.stage_free_memory(st))
                    .collect(),
            ),
            workers,
            ep_trainer,
            ep_manager,
            ep_workers,
            pending_create: BTreeMap::new(),
            pid_index: BTreeMap::new(),
            tick_ids: vec![None; stages],
            placements: Vec::new(),
            arrivals: Vec::new(),
            late_rejected: Vec::new(),
            stop_sent: BTreeSet::new(),
            trace,
            bubble_total: SimDuration::ZERO,
            bubble_unused: SimDuration::ZERO,
            bubbles_reported: 0,
            training_done: false,
            stops_issued: false,
            events_processed: 0,
            cmd_buf: Vec::new(),
            res: Resilience::new(slot, base_speeds),
            tracer: tracer.cloned(),
        };

        let mut seeds: Vec<(SimTime, Ev)> = rt
            .engine
            .start(SimTime::ZERO)
            .into_iter()
            .filter_map(|a| match a {
                EngineAction::ScheduleLaunch { stage, at } => Some((at, Ev::LaunchOp(stage))),
                EngineAction::ScheduleEpochBoundary { at } => Some((at, Ev::EpochBoundary)),
                _ => None,
            })
            .collect();
        let mut arrival_seeds = Vec::new();
        for acc in &slot.accepted {
            let src = TaskSource::of(acc);
            let arrival = acc.submission.arrival();
            if arrival != SimTime::ZERO {
                arrival_seeds.push((arrival, Ev::Arrival(rt.arrivals.len())));
                rt.arrivals.push(Some(ArrivalSlot {
                    id: acc.id,
                    src,
                    pinned: acc.pinned,
                    retry: acc.retry,
                    attempt: 0,
                }));
                continue;
            }
            let mem = acc.profile.gpu_mem;
            let placed = match acc.pinned {
                Some(w) => rt.manager.submit_to(acc.id, mem, w),
                None => rt.manager.submit(acc.id, mem),
            };
            match placed {
                Ok((w, create)) => {
                    seeds.push(rt.spawn(SimTime::ZERO, create, &src, 0, bus));
                    rt.emit_with(SimTime::ZERO, Some(w), || TraceEventKind::TaskAdmitted {
                        task: acc.id.0,
                        name: src.sub.tag().name().to_string(),
                    });
                }
                Err(e) => rt.late_rejected.push((acc.id, e)),
            }
        }
        seeds.extend(arrival_seeds);
        seeds.push((SimTime::ZERO, Ev::ManagerPollPeriodic));
        (rt, seeds)
    }

    /// Folds a finished job into its report. Restored incarnations fold
    /// into their original submission: one summary per submitted task,
    /// read from the tail of its restore chain and reported under the id
    /// the submitter knows. Task handles resolve, in-run rejections are
    /// kept whole, and with `cost_report` the no-side-task baseline is
    /// trained for the paper's cost metrics.
    fn into_report(self, slot: &JobSlot, cost_report: bool) -> JobReport {
        assert!(self.engine.is_done(), "training must complete");
        assert!(self.finished(), "all tasks must stop");

        let restore_ids = self.res.restore_ids();
        let mut tasks = Vec::new();
        for (id, wi, tag, profile) in &self.placements {
            if restore_ids.contains(id) {
                continue; // summarised under its original id
            }
            let (cur, tail_worker) = self.res.chain_tail(*id, *wi);
            let (worker, steps, final_state, stop_reason, last_value) =
                match self.workers[tail_worker].task(cur) {
                    Some(t) => (tail_worker, t.steps, t.state(), t.stop_reason, t.last_value),
                    // Placed, but training ended before the Create RPC
                    // landed (online arrival racing the shutdown, or a
                    // task lost to a crash and never restored): never
                    // materialised.
                    None => (
                        *wi,
                        0,
                        SideTaskState::Submitted,
                        StopReason::NotStopped,
                        None,
                    ),
                };
            tasks.push(TaskSummary {
                id: *id,
                kind: tag.clone(),
                worker,
                steps,
                final_state,
                stop_reason,
                last_value,
                profile: *profile,
            });
        }

        let accepted: BTreeMap<TaskId, &AcceptedSubmission> =
            slot.accepted.iter().map(|a| (a.id, a)).collect();
        for t in &tasks {
            if let Some(acc) = accepted.get(&t.id) {
                let _ = acc.outcome.set(t.clone());
            }
        }
        let rejected = self
            .late_rejected
            .into_iter()
            .filter_map(|(id, error)| {
                accepted.get(&id).map(|acc| RejectedSubmission {
                    submission: acc.submission.clone(),
                    error,
                })
            })
            .collect();

        let mut breakdown = BubbleBreakdown {
            total: self.bubble_total,
            unused_oom: self.bubble_unused,
            ..BubbleBreakdown::default()
        };
        for w in &self.workers {
            let acc = w.accounting();
            breakdown.running += acc.running;
            breakdown.insufficient += acc.insufficient;
        }

        let (recoveries, health) = self.res.into_report();
        let mut report = JobReport {
            mode: self.cfg.mode,
            total_time: self.engine.total_time(),
            epoch_times: self.engine.epoch_times().to_vec(),
            tasks,
            rejected,
            breakdown,
            trace: self.trace,
            bubbles_reported: self.bubbles_reported,
            events_processed: self.events_processed,
            recoveries,
            health,
            baseline_time: None,
            cost: None,
        };
        if cost_report {
            let baseline = run_training(&slot.pipeline, slot.cfg.schedule).total_time;
            report.cost = Some(evaluate(baseline, report.total_time, &report.work()));
            report.baseline_time = Some(baseline);
        }
        report
    }
}
