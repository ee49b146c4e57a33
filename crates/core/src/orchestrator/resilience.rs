//! The chaos and health layers of one job: injected faults,
//! checkpoint/restore, supervised migration, heartbeats, and straggler
//! hedging.
//!
//! Every piece of state lives in one plain [`Resilience`] struct that is
//! empty (or `None`) on the fault-free, unsupervised path, and every
//! event it reacts to is seeded after the job's normal seeds — so an
//! unarmed job replays the historical event stream byte for byte.

use super::{ClusterEv, Ev, JobRuntime, TaskSource};
use crate::cluster::{JobSlot, Placement, PlacementPolicy};
use crate::fault::{FaultEvent, FaultKind};
use crate::health::{HealthReport, HealthState, Recovery, RecoveryKind, Supervisor};
use crate::task::TaskId;
use freeride_gpu::MemBytes;
use freeride_obs::TraceEventKind;
use freeride_rpc::{LatencyModel, RpcBus};
use freeride_sim::{Scheduler, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Restored tasks and hedge duplicates get fresh ids in a reserved high
/// range so they can never collide with submission-time ids (which count
/// up from zero).
const RESTORE_ID_BASE: u64 = 1 << 63;

/// A side task that died with its worker's daemon, remembered for
/// checkpoint/restart.
struct LostTask {
    /// The id the task ran under when it died.
    orig: TaskId,
    /// The worker it died with (and is restored onto when it rejoins).
    worker: usize,
    /// Steps credited from the last checkpoint snapshot (progress since
    /// is lost — that is the cost the chaos bench measures).
    steps: u64,
    crashed_at: SimTime,
}

/// A live hedge race: a speculative duplicate of a lagging task.
struct Hedge {
    /// The worker the lagging original ran on when it was hedged.
    orig_worker: usize,
    dup: TaskId,
    dup_worker: usize,
    launched: SimTime,
}

/// One job's fault, checkpoint and supervision state.
pub(super) struct Resilience {
    /// This job's scheduled fault events, in plan order.
    faults: Vec<FaultEvent>,
    /// Per-worker daemon-down windows (crash faults): submissions
    /// targeting the worker are rejected `WorkerDown` until this instant.
    /// Overlapping crashes keep the latest end.
    down_until: Vec<Option<SimTime>>,
    /// Each worker's configured compute speed, restored when a straggler
    /// window closes.
    base_speeds: Vec<f64>,
    /// Open transient-OOM window on the admission plane, if any.
    oom_until: Option<SimTime>,
    /// Checkpoint/restart snapshot interval, when the mechanism is on.
    ckpt_interval: Option<SimDuration>,
    /// Last checkpointed steps per task.
    ckpt_steps: BTreeMap<TaskId, u64>,
    /// Tasks lost to a crashed daemon, awaiting its restart.
    lost: Vec<LostTask>,
    /// Restore chain: a lost task's id → the id it was re-admitted under
    /// and the worker that took it.
    restored: BTreeMap<TaskId, (TaskId, usize)>,
    /// Sources of rebuildable tasks (kept under checkpointing or
    /// supervision only).
    sources: BTreeMap<TaskId, TaskSource>,
    /// Allocator for `RESTORE_ID_BASE`-range ids.
    next_restore_id: u64,
    /// Recovery log: task, first failure/crash → re-admission latency,
    /// and the mechanism that recovered it.
    recoveries: Vec<Recovery>,
    /// First retryable rejection per retried arrival (recovery latency
    /// numerator for the retry mechanism).
    pub(super) first_failure: BTreeMap<TaskId, SimTime>,
    /// The job's supervision layer: failure detector + drain state.
    supervisor: Option<Supervisor>,
    /// Live hedge races, keyed by the original task's id.
    hedges: BTreeMap<TaskId, Hedge>,
    /// Losing incarnations to cancel with
    /// [`StopReason::HedgeLost`](crate::StopReason::HedgeLost) when their
    /// Stop command lands.
    hedge_cancel: BTreeSet<TaskId>,
    /// Resolved hedge races the duplicate won / lost.
    hedge_wins: u64,
    hedge_losses: u64,
}

impl Resilience {
    /// The state for `slot`'s job, whose devices run at `base_speeds`.
    pub(super) fn new(slot: &JobSlot, base_speeds: Vec<f64>) -> Self {
        let stages = slot.pipeline.stages;
        // Under checkpoint/restart or supervision, keep every submission's
        // source so a task lost to a daemon crash can be rebuilt (same
        // workload seed, resumed step count) and a straggler can be
        // speculatively duplicated.
        let sources = if slot.checkpoint.is_some() || slot.supervise.is_some() {
            slot.accepted
                .iter()
                .map(|acc| (acc.id, TaskSource::of(acc)))
                .collect()
        } else {
            BTreeMap::new()
        };
        Resilience {
            faults: slot.faults.events().to_vec(),
            down_until: vec![None; stages],
            base_speeds,
            oom_until: None,
            ckpt_interval: slot.checkpoint,
            ckpt_steps: BTreeMap::new(),
            lost: Vec::new(),
            restored: BTreeMap::new(),
            sources,
            next_restore_id: 0,
            recoveries: Vec::new(),
            first_failure: BTreeMap::new(),
            supervisor: slot
                .supervise
                .as_ref()
                .map(|cfg| Supervisor::new(stages, cfg)),
            hedges: BTreeMap::new(),
            hedge_cancel: BTreeSet::new(),
            hedge_wins: 0,
            hedge_losses: 0,
        }
    }

    /// The fault schedule's seeds — each fault, then its window's end —
    /// followed by the first checkpoint.
    pub(super) fn fault_seeds(&self) -> Vec<(SimTime, Ev)> {
        let mut seeds = Vec::new();
        for (i, f) in self.faults.iter().enumerate() {
            seeds.push((f.at, Ev::Fault(i)));
            if let Some(d) = f.kind.restore_after() {
                seeds.push((f.at + d, Ev::FaultEnd(i)));
            }
        }
        if self.ckpt_interval.is_some() {
            seeds.push((SimTime::ZERO, Ev::Checkpoint));
        }
        seeds
    }

    /// The supervisor's seeds: every worker's first heartbeat, the first
    /// health check, and (when hedging) the first hedge scan.
    pub(super) fn supervisor_seeds(&self) -> Vec<(SimTime, Ev)> {
        let Some(cfg) = self.supervisor.as_ref().map(Supervisor::cfg) else {
            return Vec::new();
        };
        let first = SimTime::ZERO + cfg.heartbeat_interval;
        let mut seeds: Vec<_> = (0..self.down_until.len())
            .map(|w| (first, Ev::Heartbeat(w)))
            .collect();
        seeds.push((first, Ev::HealthCheck));
        if cfg.hedge_threshold.is_some() {
            seeds.push((SimTime::ZERO + cfg.hedge_interval, Ev::HedgeCheck));
        }
        seeds
    }

    /// Whether a transient-OOM window is open.
    pub(super) fn oom(&self, now: SimTime) -> bool {
        self.oom_until.is_some_and(|t| now < t)
    }

    /// Whether `worker`'s side-task daemon is inside a crash window.
    fn down(&self, now: SimTime, worker: usize) -> bool {
        self.down_until[worker].is_some_and(|t| now < t)
    }

    /// Whether `worker` is down or drained by the supervisor (Suspect or
    /// Dead): the admission plane routes around it until it rejoins or a
    /// heartbeat restores it.
    pub(super) fn unavailable(&self, now: SimTime, worker: usize) -> bool {
        self.down(now, worker)
            || self
                .supervisor
                .as_ref()
                .is_some_and(|s| s.is_drained(worker))
    }

    /// Whether `task`'s Stop should land as a hedge cancellation.
    pub(super) fn hedge_lost(&self, task: TaskId) -> bool {
        self.hedge_cancel.contains(&task)
    }

    /// A worker daemon's heartbeat reached the supervisor.
    pub(super) fn on_heartbeat(&mut self, now: SimTime, worker: usize) {
        if let Some(sup) = &mut self.supervisor {
            sup.on_heartbeat(now, worker);
        }
    }

    fn next_id(&mut self) -> TaskId {
        let id = TaskId(RESTORE_ID_BASE | self.next_restore_id);
        self.next_restore_id += 1;
        id
    }

    /// Follows `id`'s restore chain (crash restores and migrations
    /// re-admit a task under fresh ids) from `worker` to its latest
    /// incarnation and the worker hosting it.
    pub(super) fn chain_tail(&self, mut id: TaskId, mut worker: usize) -> (TaskId, usize) {
        while let Some(&(next, w)) = self.restored.get(&id) {
            (id, worker) = (next, w);
        }
        (id, worker)
    }

    /// Ids that are restored incarnations of another task.
    pub(super) fn restore_ids(&self) -> BTreeSet<TaskId> {
        self.restored.values().map(|&(id, _)| id).collect()
    }

    /// The recovery log and the supervisor's report, hedge outcomes
    /// folded in.
    pub(super) fn into_report(self) -> (Vec<Recovery>, HealthReport) {
        let mut health = self
            .supervisor
            .map(Supervisor::into_report)
            .unwrap_or_default();
        health.hedge_wins += self.hedge_wins;
        health.hedge_losses += self.hedge_losses;
        (self.recoveries, health)
    }
}

impl JobRuntime {
    /// Logs a recovery of `task` (failing since `since`) by `kind`,
    /// landing on `worker`.
    pub(super) fn record_recovery(
        &mut self,
        now: SimTime,
        task: TaskId,
        since: SimTime,
        kind: RecoveryKind,
        worker: usize,
    ) {
        self.res.recoveries.push(Recovery {
            task,
            latency: now.saturating_since(since),
            kind,
        });
        self.emit_with(now, Some(worker), || TraceEventKind::Recovery {
            task: task.0,
            kind: kind.label(),
        });
    }

    /// Settles device `worker` to `now`, sets its compute speed, and
    /// resyncs its tick.
    fn set_speed(
        &mut self,
        now: SimTime,
        worker: usize,
        speed: f64,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        self.drain_device(now, worker, bus, s);
        self.devices[worker].set_compute_speed(now, speed);
        self.resync_device(worker, s);
        self.record_device(now, worker);
    }

    /// Points both of `worker`'s manager links at `model`.
    fn set_links(&self, worker: usize, model: LatencyModel, bus: &mut RpcBus) {
        let (manager, ep) = (self.ep_manager, self.ep_workers[worker]);
        bus.set_link_latency(manager, ep, model.clone());
        bus.set_link_latency(ep, manager, model);
    }

    /// A scheduled fault fires.
    pub(super) fn handle_fault(
        &mut self,
        now: SimTime,
        idx: usize,
        bus: &mut RpcBus,
        policy: &dyn PlacementPolicy,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let fault = self.res.faults[idx].kind;
        self.emit_with(now, fault.worker(), || TraceEventKind::FaultBegin {
            fault: fault.label(),
        });
        match fault {
            FaultKind::WorkerCrash { worker, down_for } => {
                // Settle the device up to the crash instant, then take
                // every live side task down with the daemon. Training is
                // untouched: the crash models the side-task daemon dying,
                // not the GPU or the pipeline rank.
                self.drain_device(now, worker, bus, s);
                let mut gone = self.workers[worker].crash(now, &mut self.devices[worker]);
                // Tasks placed on the worker whose Create RPC had not
                // landed yet die in flight too.
                for id in self.manager.on_worker_crash(worker) {
                    if self.pending_create.remove(&id).is_some() && !gone.contains(&id) {
                        gone.push(id);
                    }
                }
                if self.res.ckpt_interval.is_some() {
                    for orig in gone {
                        let steps = self.res.ckpt_steps.get(&orig).copied().unwrap_or(0);
                        self.res.lost.push(LostTask {
                            orig,
                            worker,
                            steps,
                            crashed_at: now,
                        });
                    }
                }
                let end = now + down_for;
                let until = &mut self.res.down_until[worker];
                *until = Some(until.map_or(end, |t| t.max(end)));
                // Ground truth for the detector's time-to-detect metric:
                // the supervisor learns of the crash only via missing
                // heartbeats.
                if let Some(sup) = &mut self.res.supervisor {
                    sup.note_crash(now, worker);
                }
                policy.on_outcome(
                    now,
                    Placement::Worker {
                        job: self.job,
                        worker,
                    },
                    false,
                );
                self.resync_device(worker, s);
                self.record_device(now, worker);
            }
            FaultKind::Straggler { worker, factor, .. } => {
                let slow = self.res.base_speeds[worker] * factor;
                self.set_speed(now, worker, slow, bus, s);
            }
            FaultKind::OomWindow { duration } => {
                let end = now + duration;
                self.res.oom_until = Some(self.res.oom_until.map_or(end, |t| t.max(end)));
            }
            FaultKind::RpcSpike {
                worker, latency, ..
            } => self.set_links(worker, LatencyModel::fixed(latency), bus),
        }
    }

    /// A transient fault's window closes: restore the degraded resource
    /// and, under checkpoint/restart, re-admit the tasks a crashed daemon
    /// took down.
    pub(super) fn handle_fault_end(
        &mut self,
        now: SimTime,
        idx: usize,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let fault = self.res.faults[idx].kind;
        self.emit_with(now, fault.worker(), || TraceEventKind::FaultEnd {
            fault: fault.label(),
        });
        match fault {
            FaultKind::Straggler { worker, .. } => {
                let base = self.res.base_speeds[worker];
                self.set_speed(now, worker, base, bus, s);
            }
            // Back to this job's own RPC physics. Overriding with the
            // model the link already carries does not perturb the jitter
            // stream, so an un-spiked link is indistinguishable from one
            // that never spiked.
            FaultKind::RpcSpike { worker, .. } => {
                self.set_links(worker, super::setup::rpc_model(&self.cfg), bus)
            }
            FaultKind::WorkerCrash { worker, .. } => {
                // Overlapping crash windows: the daemon restarts only
                // when the last one closes.
                if self.res.down_until[worker].is_some_and(|t| t <= now) {
                    self.res.down_until[worker] = None;
                    if self.res.ckpt_interval.is_some() && self.accepting() {
                        self.respawn_lost(now, worker, RecoveryKind::Rejoin, bus, s);
                    }
                }
            }
            // Time-bounded by `oom_until`; never seeded.
            FaultKind::OomWindow { .. } => {}
        }
    }

    /// Re-admits every checkpointed task `worker`'s daemon lost under a
    /// fresh restore-range id, resuming from its last snapshot. On a
    /// rejoin ([`RecoveryKind::Rejoin`]) each lands back on `worker` —
    /// it fit there before the crash, so restarts replay the same
    /// placement. Under supervised migration each moves to the
    /// least-loaded healthy worker now instead; tasks with no healthy
    /// host stay queued for the rejoin.
    fn respawn_lost(
        &mut self,
        now: SimTime,
        worker: usize,
        kind: RecoveryKind,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let (mine, rest) = std::mem::take(&mut self.res.lost)
            .into_iter()
            .partition::<Vec<_>, _>(|l| l.worker == worker);
        self.res.lost = rest;
        for l in mine {
            let Some(src) = self.res.sources.get(&l.orig).cloned() else {
                continue; // not rebuildable (no submission source)
            };
            let target = if kind == RecoveryKind::Rejoin {
                worker
            } else {
                let least_loaded = |w: usize| self.manager.worker(w).task_count();
                match self.healthy_target(now, src.profile.gpu_mem, worker, least_loaded) {
                    Some(t) => t,
                    None => {
                        self.res.lost.push(l); // no healthy host: wait for the rejoin
                        continue;
                    }
                }
            };
            let id = self.res.next_id();
            let create = self.manager.admit_to(id, src.profile.gpu_mem, target);
            let (at, ev) = self.spawn(now, create, &src, l.steps, bus);
            self.res.restored.insert(l.orig, (id, target));
            self.res.sources.insert(id, src);
            self.res.ckpt_steps.insert(id, l.steps);
            self.record_recovery(now, l.orig, l.crashed_at, kind, target);
            s.schedule_at(at, self.ev(ev));
            if kind == RecoveryKind::Migration {
                if let Some(sup) = &mut self.res.supervisor {
                    sup.record_migration();
                }
            }
        }
    }

    /// The healthy worker (not down, not drained, not `exclude`) whose
    /// bubble memory fits `needed` and that ranks lowest under `rank`;
    /// ties break toward the lower index, deterministically.
    fn healthy_target<K: PartialOrd>(
        &self,
        now: SimTime,
        needed: MemBytes,
        exclude: usize,
        rank: impl Fn(usize) -> K,
    ) -> Option<usize> {
        let mut best: Option<(K, usize)> = None;
        for w in 0..self.workers.len() {
            if w == exclude
                || self.res.unavailable(now, w)
                || self.manager.worker(w).gpu_mem <= needed
            {
                continue;
            }
            let key = rank(w);
            if best.as_ref().is_none_or(|(b, _)| key < *b) {
                best = Some((key, w));
            }
        }
        best.map(|(_, w)| w)
    }

    /// Periodic checkpoint snapshot: record every live task's step count
    /// so a later crash restores from here rather than from zero.
    pub(super) fn handle_checkpoint(&mut self, now: SimTime, s: &mut Scheduler<'_, ClusterEv>) {
        let Some(interval) = self.res.ckpt_interval else {
            return;
        };
        if self.finished() {
            return; // run is draining — stop rescheduling
        }
        let mut snapped: u64 = 0;
        for w in &self.workers {
            for t in w.tasks() {
                if !t.is_stopped() {
                    self.res.ckpt_steps.insert(t.id, t.steps);
                    snapped += 1;
                }
            }
        }
        self.emit_with(now, None, || TraceEventKind::Checkpoint { tasks: snapped });
        s.schedule_after(interval, self.ev(Ev::Checkpoint));
    }

    /// A worker daemon's heartbeat emission is due. A downed daemon stays
    /// silent (the whole point of the detector); a straggling one emits
    /// proportionally slower, so the suspicion score rises with the
    /// slowdown. The beacon rides the RPC bus, so `rpc_spike` latency
    /// delays its delivery and perturbs the score too.
    pub(super) fn handle_heartbeat(
        &mut self,
        now: SimTime,
        worker: usize,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let Some(interval) = self
            .res
            .supervisor
            .as_ref()
            .map(|sup| sup.cfg().heartbeat_interval)
        else {
            return;
        };
        if self.finished() {
            return; // chain dies with the run, so the sim can drain
        }
        if !self.res.down(now, worker) {
            let (from, to) = (self.ep_workers[worker], self.ep_manager);
            self.send(now, from, to, super::Msg::Heartbeat { worker }, bus, s);
        }
        let base = self.res.base_speeds[worker];
        let speed = self.devices[worker].compute_speed();
        let next = if speed < base {
            SimDuration::from_secs_f64(interval.as_secs_f64() * base / speed)
        } else {
            interval
        };
        s.schedule_after(next, self.ev(Ev::Heartbeat(worker)));
    }

    /// The supervisor re-evaluates every worker's suspicion score. A
    /// worker turning Suspect (when configured) or Dead gets its
    /// checkpointed lost tasks migrated to healthy workers immediately.
    pub(super) fn handle_health_check(
        &mut self,
        now: SimTime,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        if self.finished() {
            return;
        }
        let Some(sup) = &mut self.res.supervisor else {
            return;
        };
        let transitions = sup.check(now);
        let interval = sup.cfg().heartbeat_interval;
        let migrate_on_suspect = sup.cfg().migrate_on_suspect;
        for tr in transitions {
            self.emit_with(now, Some(tr.worker), || TraceEventKind::Health {
                from: tr.from.label(),
                to: tr.to.label(),
            });
            let evict = match tr.to {
                HealthState::Suspect => migrate_on_suspect,
                HealthState::Dead => true,
                HealthState::Healthy => false,
            };
            if evict && self.res.ckpt_interval.is_some() && self.accepting() {
                self.respawn_lost(now, tr.worker, RecoveryKind::Migration, bus, s);
            }
        }
        s.schedule_after(interval, self.ev(Ev::HealthCheck));
    }

    /// The supervisor scans for straggling side tasks to hedge.
    pub(super) fn handle_hedge_check(
        &mut self,
        now: SimTime,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let Some(cfg) = self.res.supervisor.as_ref().map(Supervisor::cfg) else {
            return;
        };
        let (Some(threshold), interval) = (cfg.hedge_threshold, cfg.hedge_interval) else {
            return;
        };
        if self.finished() {
            return;
        }
        if self.accepting() {
            self.hedge_laggards(now, threshold, bus, s);
        }
        s.schedule_after(interval, self.ev(Ev::HedgeCheck));
    }

    /// Straggler hedging: find live side tasks whose progress fell below
    /// `threshold` of the fleet median and launch a speculative duplicate
    /// of each on the fastest healthy worker. First completion wins; the
    /// loser is cancelled with
    /// [`StopReason::HedgeLost`](crate::StopReason::HedgeLost).
    fn hedge_laggards(
        &mut self,
        now: SimTime,
        threshold: f64,
        bus: &mut RpcBus,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        // Progress of every live, original-id task (restored incarnations
        // and duplicates sit in the reserved high id range and never
        // trigger a second hedge).
        let mut progress: Vec<(TaskId, usize, u64)> = Vec::new();
        for (wi, w) in self.workers.iter().enumerate() {
            for t in w.tasks() {
                if t.is_stopped() || t.id.0 >= RESTORE_ID_BASE {
                    continue;
                }
                progress.push((t.id, wi, t.steps));
            }
        }
        if progress.len() < 2 {
            return; // a median needs a fleet to lag behind
        }
        let mut steps: Vec<u64> = progress.iter().map(|p| p.2).collect();
        steps.sort_unstable();
        let median = steps[steps.len() / 2];
        if median == 0 {
            return;
        }
        let cut = threshold * median as f64;
        progress.sort_unstable_by_key(|p| p.0); // deterministic hedge order
        for (id, wi, st) in progress {
            if (st as f64) >= cut || self.res.hedges.contains_key(&id) {
                continue;
            }
            let Some(src) = self.res.sources.get(&id).cloned() else {
                continue; // not rebuildable (no submission source)
            };
            // Fastest first, then fewer queued tasks — the deterministic
            // tie-break hedge races resolve by.
            let fastest = |w: usize| {
                let n = self.manager.worker(w).task_count();
                (-self.devices[w].compute_speed(), n)
            };
            let Some(target) = self.healthy_target(now, src.profile.gpu_mem, wi, fastest) else {
                continue; // no healthy worker to speculate on
            };
            let dup = self.res.next_id();
            let create = self.manager.admit_to(dup, src.profile.gpu_mem, target);
            // The duplicate reruns the same workload (same derived seed)
            // from step zero — speculation, not checkpoint resumption.
            let (at, ev) = self.spawn(now, create, &src, 0, bus);
            self.res.sources.insert(dup, src);
            self.res.hedges.insert(
                id,
                Hedge {
                    orig_worker: wi,
                    dup,
                    dup_worker: target,
                    launched: now,
                },
            );
            s.schedule_at(at, self.ev(ev));
        }
    }

    /// Settles every open hedge race at shutdown: the incarnation with
    /// more harvested steps wins (a real completion beats a lost one by
    /// construction — a dead incarnation stopped accruing); ties break
    /// toward the lower worker index. The loser's Stop is downgraded to a
    /// hedge cancellation.
    pub(super) fn resolve_hedges(&mut self, now: SimTime) {
        for (orig, h) in std::mem::take(&mut self.res.hedges) {
            let (o_cur, o_w) = self.res.chain_tail(orig, h.orig_worker);
            let (d_cur, d_w) = self.res.chain_tail(h.dup, h.dup_worker);
            let live_steps =
                |cur: TaskId, w: usize| self.workers[w].task(cur).map_or(0, |t| t.steps);
            let o_steps = live_steps(o_cur, o_w);
            let d_steps = live_steps(d_cur, d_w);
            let dup_won = d_steps > o_steps || (d_steps == o_steps && d_w < o_w);
            self.res
                .hedge_cancel
                .insert(if dup_won { o_cur } else { d_cur });
            if dup_won {
                self.res.hedge_wins += 1;
                self.record_recovery(now, orig, h.launched, RecoveryKind::Hedge, d_w);
            } else {
                self.res.hedge_losses += 1;
            }
        }
    }
}
