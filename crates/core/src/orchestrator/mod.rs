//! The FreeRide execution engine: pipeline training, side-task manager,
//! per-GPU workers, and RPC wiring, composed into one deterministic
//! simulation world (Fig. 3 and Fig. 5 of the paper).
//!
//! Since the cluster API the world is **job-multiplexed**: one
//! discrete-event simulation hosts N independent pipeline-training jobs
//! (each a [`JobRuntime`]: its own engine, manager, workers, and devices,
//! under its own seed and mode), wired through a **single shared
//! [`RpcBus`]** whose endpoints live in a job-qualified
//! [`Directory`](freeride_rpc::Directory) namespace (`"job3/worker1"`).
//! Every event carries its job index, so the event loop dispatches to
//! exactly one job's state machine — a one-job cluster is byte-identical
//! to the pre-cluster single-job orchestrator.
//!
//! The public entry point is the [`Cluster`](crate::Cluster) session API;
//! this module owns the simulation world it runs on, plus
//! [`run_baseline`], the vanilla-DeepSpeed training run the paper's
//! metrics compare against.
//!
//! The same orchestrator also runs the two baselines of §6.1.2 — MPS
//! co-location and naive co-location — by skipping the bubble machinery
//! and letting side tasks run continuously under the corresponding device
//! sharing model.
//!
//! Side tasks arrive **online**: each submission carries an arrival time,
//! and arrivals after t = 0 are simulation events that feed
//! [`SideTaskManager::submit`] mid-run — the task is placed by
//! Algorithm 1 against the bubbles that remain (or lands on the worker a
//! cluster [`PlacementPolicy`] pinned at submission time). Submissions
//! arriving after training finished are recorded as rejected with
//! [`SubmitError::ArrivedAfterShutdown`].
//!
//! # Which file holds what
//!
//! * `mod.rs` — the event ([`Ev`]) and message ([`Msg`]) alphabets, the
//!   [`JobRuntime`] training and co-location core, [`JobRuntime::spawn`]
//!   (the one place a side task is built), event dispatch, and the
//!   cluster-wide [`ClusterWorld`].
//! * `admission.rs` — online arrivals: Algorithm 1 admission under the
//!   fault overlays, and retry with backoff.
//! * `resilience.rs` — the [`Resilience`] state: faults,
//!   checkpoint/restore, supervised migration, heartbeats, and straggler
//!   hedging.
//! * `setup.rs` — building each job's runtime, seeding the event queue,
//!   and gathering each finished job into its [`JobReport`](crate::JobReport).

mod admission;
mod resilience;
mod setup;

pub(crate) use setup::execute_cluster;

use crate::cluster::PlacementPolicy;
use crate::config::{ColocationMode, FreeRideConfig, InterfaceKind};
use crate::job::Submission;
use crate::manager::{ManagerCmd, SideTaskManager, SubmitError};
use crate::state::SideTaskState;
use crate::task::{SideTask, StopReason, TaskId};
use crate::worker::{Worker, WorkerEffect};
use admission::ArrivalSlot;
use freeride_gpu::{GpuDevice, ProcessId};
use freeride_obs::{ProfileCollector, Subsystem, TraceEvent, TraceEventKind, TraceHandle};
use freeride_pipeline::{BubbleReport, EngineAction, PipelineConfig, PipelineEngine};
use freeride_rpc::{Endpoint, Envelope, RpcBus};
use freeride_sim::{EventId, Scheduler, SimDuration, SimTime, TraceRecorder, World};
use freeride_tasks::{WorkloadProfile, WorkloadTag};
use resilience::Resilience;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Outcome of one submitted task.
#[derive(Debug, Clone, Serialize)]
pub struct TaskSummary {
    /// Task id.
    pub id: TaskId,
    /// Workload identity (built-in kind or custom name).
    pub kind: WorkloadTag,
    /// Worker (stage) it was assigned to.
    pub worker: usize,
    /// Steps completed.
    pub steps: u64,
    /// Final life-cycle state.
    pub final_state: SideTaskState,
    /// Why it stopped.
    pub stop_reason: StopReason,
    /// The workload's most recent progress metric, if it ever stepped.
    pub last_value: Option<f64>,
    /// The profile it ran under (batch-adjusted).
    pub profile: WorkloadProfile,
}

enum Msg {
    Bubble(BubbleReport),
    Cmd(ManagerCmd),
    Ack {
        worker: usize,
        task: TaskId,
        state: SideTaskState,
    },
    /// A worker daemon's liveness beacon to the supervisor (health
    /// subsystem; only sent when the job arms one).
    Heartbeat {
        worker: usize,
    },
}

enum Ev {
    LaunchOp(usize),
    EpochBoundary,
    DeviceTick(usize),
    ManagerPollPeriodic,
    ManagerPollOnce,
    Deliver(Envelope<Msg>),
    /// An online submission's arrival time was reached (index into
    /// `JobRuntime::arrivals`).
    Arrival(usize),
    InitDone {
        worker: usize,
        task: TaskId,
    },
    StepLaunch {
        worker: usize,
        task: TaskId,
    },
    GraceCheck {
        worker: usize,
        task: TaskId,
        requested_at: SimTime,
    },
    /// A scheduled fault fires (index into the job's fault list).
    Fault(usize),
    /// A transient fault's window closes (index into the job's fault
    /// list).
    FaultEnd(usize),
    /// Periodic side-task progress snapshot (checkpoint/restart).
    Checkpoint,
    /// A worker daemon's heartbeat emission is due (health subsystem).
    Heartbeat(usize),
    /// The supervisor re-evaluates every worker's suspicion score.
    HealthCheck,
    /// The supervisor scans for straggling side tasks to hedge.
    HedgeCheck,
}

/// A per-job event in the cluster-wide queue: the job index plus that
/// job's event alphabet. The cluster world dispatches on `job`, so jobs
/// interleave in virtual time but never share mutable state.
struct ClusterEv {
    job: usize,
    ev: Ev,
}

/// Everything needed to (re)build a side task: its submission, the
/// profile it was admitted under, and the root id its workload seed
/// derives from. Restored incarnations and hedge duplicates keep their
/// original's root, so they rerun the same workload.
#[derive(Clone)]
struct TaskSource {
    sub: Submission,
    profile: WorkloadProfile,
    root: TaskId,
}

/// One training job's complete simulation state: pipeline engine, manager,
/// workers, devices, and bookkeeping — everything except the RPC bus,
/// which is shared across all jobs of the cluster.
struct JobRuntime {
    /// This job's index in the cluster (tags every scheduled event).
    job: usize,
    cfg: FreeRideConfig,
    interface: InterfaceKind,
    devices: Vec<GpuDevice>,
    engine: PipelineEngine,
    manager: SideTaskManager,
    workers: Vec<Worker>,
    ep_trainer: Endpoint,
    ep_manager: Endpoint,
    ep_workers: Vec<Endpoint>,
    pending_create: BTreeMap<TaskId, SideTask>,
    pid_index: BTreeMap<ProcessId, (usize, TaskId)>,
    tick_ids: Vec<Option<EventId>>,
    /// Placement log `(id, worker, tag, profile)`, grown as tasks place.
    placements: Vec<(TaskId, usize, WorkloadTag, WorkloadProfile)>,
    /// Online submissions not yet arrived.
    arrivals: Vec<Option<ArrivalSlot>>,
    /// Submissions that could not be placed mid-run.
    late_rejected: Vec<(TaskId, SubmitError)>,
    /// Tasks already sent a `Stop` after training ended (suppresses
    /// duplicates when late acknowledgements race the shutdown).
    stop_sent: BTreeSet<TaskId>,
    trace: TraceRecorder,
    bubble_total: SimDuration,
    bubble_unused: SimDuration,
    bubbles_reported: u64,
    training_done: bool,
    stops_issued: bool,
    /// Events delivered to this job (sums to the simulation total across
    /// the cluster).
    events_processed: u64,
    /// Reusable buffer for manager poll commands; the management tick
    /// fires on every bubble, ack, and poll interval, so it must not
    /// allocate.
    cmd_buf: Vec<ManagerCmd>,
    /// Faults, checkpoints, supervision and hedging — all empty/`None`
    /// on the fault-free, unsupervised path.
    res: Resilience,
    /// Sim-time trace sink, when the cluster armed one. `None` (the
    /// default) keeps every emission site a skipped branch: the fault-free
    /// untraced run is byte-for-byte the pre-observability one.
    tracer: Option<TraceHandle>,
}

impl JobRuntime {
    /// Wraps a job-local event for the cluster-wide queue.
    fn ev(&self, ev: Ev) -> ClusterEv {
        ClusterEv { job: self.job, ev }
    }

    /// Emits a trace event iff tracing is armed; `f` runs only then, so
    /// the disarmed path never allocates or formats.
    fn emit_with(&self, at: SimTime, worker: Option<usize>, f: impl FnOnce() -> TraceEventKind) {
        if let Some(tracer) = &self.tracer {
            tracer.emit(TraceEvent {
                at,
                job: Some(self.job),
                worker,
                kind: f(),
            });
        }
    }

    fn is_freeride(&self) -> bool {
        matches!(self.cfg.mode, ColocationMode::FreeRide(_))
    }

    /// Training has ended and every side task has stopped (or never
    /// materialised): nothing periodic needs rescheduling.
    fn finished(&self) -> bool {
        self.training_done
            && self.pending_create.is_empty()
            && self.workers.iter().all(|w| !w.has_live_tasks())
    }

    /// Training is still running, so arrivals, restores and hedges are
    /// still admitted.
    fn accepting(&self) -> bool {
        !self.stops_issued && !self.training_done
    }

    fn send(
        &mut self,
        now: SimTime,
        from: Endpoint,
        to: Endpoint,
        msg: Msg,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let (at, env) = bus.send(now, from, to, msg);
        s.schedule_at(at, self.ev(Ev::Deliver(env)));
    }

    /// Sends a manager command to the worker it addresses.
    fn send_cmd(
        &mut self,
        now: SimTime,
        cmd: ManagerCmd,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let to = self.ep_workers[target(&cmd).0];
        self.send(now, self.ep_manager, to, Msg::Cmd(cmd), bus, s);
    }

    /// Materialises a task the manager just placed — the one place a
    /// [`SideTask`] is built. `create` is the placement's Create command;
    /// the task's workload is rebuilt from `src` (seeded by the job seed
    /// xor the source's root id), resumes at `steps`, waits in
    /// `pending_create` until the command lands, and joins the placement
    /// log. The command is posted on the bus; the returned delivery is
    /// for the caller to schedule (a seed at setup, a scheduled event
    /// mid-run).
    #[must_use]
    fn spawn(
        &mut self,
        now: SimTime,
        create: ManagerCmd,
        src: &TaskSource,
        steps: u64,
        bus: &mut RpcBus,
    ) -> (SimTime, Ev) {
        let (worker, id) = target(&create);
        let mut task = SideTask::new(
            id,
            src.sub.tag().clone(),
            src.profile,
            self.interface,
            src.sub.build_workload(self.cfg.seed ^ src.root.0),
            now,
        )
        .with_misbehavior(src.sub.misbehavior());
        task.steps = steps;
        self.pending_create.insert(id, task);
        self.placements
            .push((id, worker, src.sub.tag().clone(), src.profile));
        let (at, env) = bus.send(
            now,
            self.ep_manager,
            self.ep_workers[worker],
            Msg::Cmd(create),
        );
        (at, Ev::Deliver(env))
    }

    fn resync_device(&mut self, g: usize, s: &mut Scheduler<'_, ClusterEv>) {
        if let Some(id) = self.tick_ids[g].take() {
            s.cancel(id);
        }
        if let Some(t) = self.devices[g].next_completion_time() {
            let ev = self.ev(Ev::DeviceTick(g));
            self.tick_ids[g] = Some(s.schedule_at(t, ev));
        }
    }

    /// Dispatches every completion device `g` owes at or before `now`:
    /// pipeline ops to the engine, side-task steps to their worker. The
    /// body of `Ev::DeviceTick`, also used to settle a device before a
    /// fault rewrites its state. Callers resync the tick afterwards.
    fn drain_device(
        &mut self,
        now: SimTime,
        g: usize,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let completions = self.devices[g].advance_through(now);
        for c in completions {
            if self.engine.stage_of_pid(c.process).is_some() {
                let actions = self.engine.on_op_complete(now, g);
                self.apply_engine_actions(now, actions, bus, s);
            } else if let Some(&(wi, task)) = self.pid_index.get(&c.process) {
                let fx = self.workers[wi].on_step_complete(now, task, &mut self.devices[wi]);
                self.apply_worker_effects(now, wi, fx, bus, s);
            }
        }
    }

    fn record_device(&mut self, now: SimTime, g: usize) {
        let occ = self.devices[g].occupancy();
        let mem = self.devices[g].used_mem().as_gib_f64();
        self.trace.record(&format!("gpu{g}.sm"), now, occ);
        self.trace.record(&format!("gpu{g}.mem"), now, mem);
    }

    fn apply_engine_actions(
        &mut self,
        now: SimTime,
        actions: Vec<EngineAction>,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        for a in actions {
            match a {
                EngineAction::ScheduleLaunch { stage, at } => {
                    s.schedule_at(at, self.ev(Ev::LaunchOp(stage)));
                }
                EngineAction::ScheduleEpochBoundary { at } => {
                    s.schedule_at(at, self.ev(Ev::EpochBoundary));
                }
                EngineAction::BubbleStart(r) => {
                    self.emit_with(now, Some(r.stage), || TraceEventKind::BubbleBegin);
                    if self.is_freeride() {
                        self.send(
                            now,
                            self.ep_trainer,
                            self.ep_manager,
                            Msg::Bubble(r),
                            bus,
                            s,
                        );
                    }
                }
                EngineAction::BubbleEnd { stage, at } => {
                    self.emit_with(at, Some(stage), || TraceEventKind::BubbleEnd);
                }
                EngineAction::EpochEnd { epoch, at } => {
                    self.emit_with(at, None, || TraceEventKind::EpochEnd { epoch });
                }
                EngineAction::TrainingDone { .. } => {
                    self.training_done = true;
                    self.emit_with(now, None, || TraceEventKind::TrainingDone);
                    self.issue_stops(now, bus, s);
                }
            }
        }
    }

    fn issue_stops(&mut self, now: SimTime, bus: &mut RpcBus, s: &mut Scheduler<'_, ClusterEv>) {
        if self.stops_issued {
            return;
        }
        self.stops_issued = true;
        // Settle hedge races before the stops go out, so a losing
        // incarnation's Stop lands as a hedge cancellation.
        self.resolve_hedges(now);
        let cmds = if self.is_freeride() {
            self.manager.stop_all()
        } else {
            // Baselines: stop every live task directly.
            let mut stops = Vec::new();
            for (wi, w) in self.workers.iter().enumerate() {
                for t in w.tasks() {
                    if !t.is_stopped() {
                        stops.push(ManagerCmd::Stop {
                            worker: wi,
                            task: t.id,
                        });
                    }
                }
            }
            // Tasks still awaiting creation never start.
            self.pending_create.clear();
            stops
        };
        for cmd in cmds {
            if let ManagerCmd::Stop { task, .. } = cmd {
                self.stop_sent.insert(task);
            }
            self.send_cmd(now, cmd, bus, s);
        }
    }

    /// A task acknowledged a non-stopped state after training already
    /// ended (an online arrival racing the shutdown): stop it now so the
    /// run drains.
    fn stop_straggler(
        &mut self,
        now: SimTime,
        worker: usize,
        task: TaskId,
        state: SideTaskState,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) -> bool {
        if !self.stops_issued || state == SideTaskState::Stopped || !self.stop_sent.insert(task) {
            return false;
        }
        self.send_cmd(now, ManagerCmd::Stop { worker, task }, bus, s);
        true
    }

    fn run_manager_poll(
        &mut self,
        now: SimTime,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        if !self.is_freeride() {
            return;
        }
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        cmds.clear();
        self.manager.poll_into(now, &mut cmds);
        for cmd in cmds.drain(..) {
            self.send_cmd(now, cmd, bus, s);
        }
        self.cmd_buf = cmds;
    }

    fn apply_worker_effects(
        &mut self,
        now: SimTime,
        worker: usize,
        effects: Vec<WorkerEffect>,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        for e in effects {
            match e {
                WorkerEffect::Ack { task, state } => {
                    if self.is_freeride() {
                        self.send(
                            now,
                            self.ep_workers[worker],
                            self.ep_manager,
                            Msg::Ack {
                                worker,
                                task,
                                state,
                            },
                            bus,
                            s,
                        );
                    } else if !self.stop_straggler(now, worker, task, state, bus, s) {
                        // Baselines have no manager loop: drive the task
                        // straight through Init and then run it
                        // continuously (an infinite "bubble").
                        let next = match state {
                            SideTaskState::Created => Some(ManagerCmd::Init { worker, task }),
                            SideTaskState::Paused => Some(ManagerCmd::Start {
                                worker,
                                task,
                                bubble_end: SimTime::MAX,
                            }),
                            _ => None,
                        };
                        if let Some(cmd) = next {
                            self.send_cmd(now, cmd, bus, s);
                        }
                    }
                }
                WorkerEffect::ScheduleInitDone { task, at } => {
                    s.schedule_at(at, self.ev(Ev::InitDone { worker, task }));
                }
                WorkerEffect::ScheduleStepLaunch { task, at } => {
                    s.schedule_at(at, self.ev(Ev::StepLaunch { worker, task }));
                }
                WorkerEffect::ScheduleGraceCheck {
                    task,
                    at,
                    requested_at,
                } => {
                    s.schedule_at(
                        at,
                        self.ev(Ev::GraceCheck {
                            worker,
                            task,
                            requested_at,
                        }),
                    );
                }
            }
        }
    }

    fn handle_cmd(
        &mut self,
        now: SimTime,
        cmd: ManagerCmd,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let (wi, id) = target(&cmd);
        // A command racing a daemon crash: the task died with its worker's
        // daemon, so the in-flight RPC is void. (Never fires on fault-free
        // runs — `WorkerLost` is only ever set by a crash fault.)
        if self.workers[wi]
            .task(id)
            .is_some_and(|t| t.stop_reason == StopReason::WorkerLost)
        {
            return;
        }
        self.emit_with(now, Some(wi), || TraceEventKind::Command {
            task: id.0,
            cmd: cmd.label(),
        });
        let effects = match cmd {
            ManagerCmd::Create { task, .. } => {
                let Some(obj) = self.pending_create.remove(&task) else {
                    return; // run ended before creation
                };
                let fx = self.workers[wi].handle_create(now, obj, &mut self.devices[wi]);
                if let Some(pid) = self.workers[wi].task(task).and_then(|t| t.pid) {
                    self.pid_index.insert(pid, (wi, task));
                }
                fx
            }
            ManagerCmd::Init { task, .. } => {
                self.workers[wi].handle_init(now, task, &mut self.devices[wi])
            }
            ManagerCmd::Start {
                task, bubble_end, ..
            } => self.workers[wi].handle_start(now, task, bubble_end, &mut self.devices[wi]),
            ManagerCmd::Pause { task, .. } => {
                self.workers[wi].handle_pause(now, task, &mut self.devices[wi])
            }
            ManagerCmd::Stop { task, .. } => {
                if self.res.hedge_lost(task) {
                    self.workers[wi].cancel(now, task, &mut self.devices[wi])
                } else {
                    self.workers[wi].handle_stop(now, task, &mut self.devices[wi])
                }
            }
        };
        self.apply_worker_effects(now, wi, effects, bus, s);
        self.resync_device(wi, s);
        self.record_device(now, wi);
    }

    /// One job's event dispatch, with the shared bus threaded in.
    fn handle_ev(
        &mut self,
        now: SimTime,
        event: Ev,
        bus: &mut RpcBus,
        policy: &dyn PlacementPolicy,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        match event {
            Ev::LaunchOp(stage) => {
                let actions = self.engine.launch_due(now, stage, &mut self.devices);
                self.apply_engine_actions(now, actions, bus, s);
                self.resync_device(stage, s);
                self.record_device(now, stage);
            }
            Ev::EpochBoundary => {
                let actions = self.engine.epoch_boundary(now);
                self.apply_engine_actions(now, actions, bus, s);
            }
            Ev::DeviceTick(g) => {
                self.tick_ids[g] = None;
                self.drain_device(now, g, bus, s);
                self.resync_device(g, s);
                self.record_device(now, g);
            }
            Ev::ManagerPollPeriodic => {
                self.run_manager_poll(now, bus, s);
                if !self.finished() {
                    s.schedule_after(
                        self.cfg.manager_poll_interval,
                        self.ev(Ev::ManagerPollPeriodic),
                    );
                }
            }
            Ev::ManagerPollOnce => {
                self.run_manager_poll(now, bus, s);
            }
            Ev::Arrival(idx) => self.handle_arrival(now, idx, bus, policy, s),
            Ev::Fault(idx) => self.handle_fault(now, idx, bus, policy, s),
            Ev::FaultEnd(idx) => self.handle_fault_end(now, idx, bus, s),
            Ev::Checkpoint => self.handle_checkpoint(now, s),
            Ev::Heartbeat(w) => self.handle_heartbeat(now, w, bus, s),
            Ev::HealthCheck => self.handle_health_check(now, bus, s),
            Ev::HedgeCheck => self.handle_hedge_check(now, bus, s),
            Ev::Deliver(env) => match env.msg {
                Msg::Bubble(r) => {
                    self.bubbles_reported += 1;
                    self.bubble_total += r.duration;
                    let meta = self.manager.worker(r.stage);
                    let has_assignee = meta.task_count() > 0;
                    let live = has_assignee
                        && (self.workers[r.stage].has_live_tasks()
                            || !self.pending_create.is_empty());
                    if !live {
                        self.bubble_unused += r.duration;
                    }
                    self.manager.add_bubble(r.stage, r);
                    self.run_manager_poll(now, bus, s);
                    // Pause promptly when the bubble expires.
                    s.schedule_at(r.predicted_end().max(now), self.ev(Ev::ManagerPollOnce));
                }
                Msg::Cmd(cmd) => self.handle_cmd(now, cmd, bus, s),
                Msg::Ack {
                    worker,
                    task,
                    state,
                } => {
                    self.emit_with(now, Some(worker), || TraceEventKind::TaskState {
                        task: task.0,
                        state: state.label(),
                    });
                    self.manager.on_task_state(worker, task, state);
                    self.stop_straggler(now, worker, task, state, bus, s);
                    self.run_manager_poll(now, bus, s);
                }
                Msg::Heartbeat { worker } => self.res.on_heartbeat(now, worker),
            },
            Ev::InitDone { worker, task } => {
                let fx = self.workers[worker].init_done(now, task);
                self.apply_worker_effects(now, worker, fx, bus, s);
            }
            Ev::StepLaunch { worker, task } => {
                let fx = self.workers[worker].step_launch_due(now, task, &mut self.devices[worker]);
                self.apply_worker_effects(now, worker, fx, bus, s);
                self.resync_device(worker, s);
            }
            Ev::GraceCheck {
                worker,
                task,
                requested_at,
            } => {
                let fx = self.workers[worker].grace_check(
                    now,
                    task,
                    requested_at,
                    &mut self.devices[worker],
                );
                self.apply_worker_effects(now, worker, fx, bus, s);
                self.resync_device(worker, s);
                self.record_device(now, worker);
            }
        }
    }
}

/// The worker and task a manager command addresses.
fn target(cmd: &ManagerCmd) -> (usize, TaskId) {
    match *cmd {
        ManagerCmd::Create { worker, task, .. }
        | ManagerCmd::Init { worker, task }
        | ManagerCmd::Start { worker, task, .. }
        | ManagerCmd::Pause { worker, task }
        | ManagerCmd::Stop { worker, task } => (worker, task),
    }
}

impl Ev {
    /// Which subsystem's logic an event exercises — the attribution key
    /// for profiled runs. RPC deliveries are bucketed as `rpc` even
    /// though their payload fans out into manager/worker logic: the
    /// delivery boundary is where the simulated network hands off, which
    /// is the cut an operator reasons about.
    fn subsystem(&self) -> Subsystem {
        match self {
            Ev::LaunchOp(_)
            | Ev::EpochBoundary
            | Ev::DeviceTick(_)
            | Ev::InitDone { .. }
            | Ev::StepLaunch { .. }
            | Ev::GraceCheck { .. } => Subsystem::Orchestrator,
            Ev::ManagerPollPeriodic | Ev::ManagerPollOnce => Subsystem::Manager,
            Ev::Deliver(_) => Subsystem::Rpc,
            Ev::Arrival(_) => Subsystem::Service,
            Ev::Fault(_) | Ev::FaultEnd(_) | Ev::Checkpoint => Subsystem::Fault,
            Ev::Heartbeat(_) | Ev::HealthCheck | Ev::HedgeCheck => Subsystem::Health,
        }
    }
}

/// The cluster-wide simulation world: N job runtimes sharing one event
/// queue and one RPC bus.
struct ClusterWorld {
    jobs: Vec<JobRuntime>,
    bus: RpcBus,
    /// The cluster's placement policy, consulted by resilience middleware
    /// (circuit breakers observe failures and mask workers mid-run).
    policy: Arc<dyn PlacementPolicy>,
    /// Per-subsystem event/wall-time attribution, when profiling is armed.
    /// `None` keeps the dispatch hot path free of `Instant` reads.
    profile: Option<ProfileCollector>,
}

impl World for ClusterWorld {
    type Event = ClusterEv;

    fn handle(&mut self, now: SimTime, event: ClusterEv, s: &mut Scheduler<'_, ClusterEv>) {
        let started = self.profile.is_some().then(|| {
            // freeride: allow(no-wall-clock) -- obs wall-profiling seam: attributes real dispatch cost, sim clock never reads it
            (event.ev.subsystem(), std::time::Instant::now())
        });
        let job = &mut self.jobs[event.job];
        job.events_processed += 1;
        job.handle_ev(now, event.ev, &mut self.bus, self.policy.as_ref(), s);
        if let (Some(collector), Some((bucket, start))) = (&mut self.profile, started) {
            collector.record(bucket, start.elapsed());
        }
    }
}

/// Runs the no-side-task baseline with the same pipeline configuration
/// (vanilla DeepSpeed: 1F1B, no instrumentation overhead).
pub fn run_baseline(pipeline_cfg: &PipelineConfig) -> SimDuration {
    freeride_pipeline::run_training(pipeline_cfg, freeride_pipeline::ScheduleKind::OneFOneB)
        .total_time
}
