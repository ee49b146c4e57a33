//! Online arrivals: a submission whose arrival time is reached mid-run
//! is admitted by Algorithm 1 under the chaos overlays, or rejected —
//! and, with a [`RetryPolicy`], re-enters admission after a backoff.

use super::{ClusterEv, Ev, JobRuntime, TaskSource};
use crate::cluster::{Placement, PlacementPolicy};
use crate::fault::RetryPolicy;
use crate::health::RecoveryKind;
use crate::manager::{ManagerCmd, SubmitError};
use crate::task::TaskId;
use freeride_gpu::MemBytes;
use freeride_obs::TraceEventKind;
use freeride_rpc::RpcBus;
use freeride_sim::{Scheduler, SimTime};

/// An online submission waiting for its arrival event.
pub(super) struct ArrivalSlot {
    pub(super) id: TaskId,
    pub(super) src: TaskSource,
    /// Worker pinned by a cluster-level placement policy, if any; `None`
    /// defers to the job manager's Algorithm 1.
    pub(super) pinned: Option<usize>,
    /// Retry middleware: a rejected arrival re-enters admission after an
    /// exponential backoff instead of being dropped.
    pub(super) retry: Option<RetryPolicy>,
    /// Admission attempts already failed (drives the backoff exponent).
    pub(super) attempt: u32,
}

impl JobRuntime {
    /// The admission half of an online arrival, with the chaos overlays
    /// layered on Algorithm 1: a transient-OOM window rejects outright,
    /// downed workers reject `WorkerDown`, circuit-broken workers reject
    /// `CircuitOpen`, and unpinned submissions route around both. With no
    /// fault in force this is byte-for-byte the pre-chaos admission path.
    fn admit_arrival(
        &mut self,
        now: SimTime,
        slot: &ArrivalSlot,
        policy: &dyn PlacementPolicy,
    ) -> Result<(usize, ManagerCmd), SubmitError> {
        let mem = slot.src.profile.gpu_mem;
        if self.res.oom(now) {
            // The allocator is transiently exhausted cluster-side: no
            // worker can host anything until the window closes.
            return Err(SubmitError::InsufficientMemory {
                needed: mem,
                best_worker_free: MemBytes::ZERO,
            });
        }
        if let Some(w) = slot.pinned {
            if self.res.unavailable(now, w) {
                return Err(SubmitError::WorkerDown { worker: w });
            }
            if policy.blocks(now, self.job, w) {
                return Err(SubmitError::CircuitOpen { worker: w });
            }
            return self.manager.submit_to(slot.id, mem, w);
        }
        let blocked: Vec<bool> = (0..self.workers.len())
            .map(|w| self.res.unavailable(now, w) || policy.blocks(now, self.job, w))
            .collect();
        if !blocked.iter().any(|&b| b) {
            return self.manager.submit(slot.id, mem);
        }
        if let Some(w) = self.manager.select_worker(mem, &blocked) {
            return Ok((w, self.manager.admit_to(slot.id, mem, w)));
        }
        // Nothing placeable. If a blocked worker would have fit, name the
        // fault that blocked it; otherwise it is a plain capacity miss.
        for (w, &b) in blocked.iter().enumerate() {
            if b && self.manager.worker(w).gpu_mem > mem {
                return Err(if self.res.unavailable(now, w) {
                    SubmitError::WorkerDown { worker: w }
                } else {
                    SubmitError::CircuitOpen { worker: w }
                });
            }
        }
        Err(SubmitError::InsufficientMemory {
            needed: mem,
            best_worker_free: self.manager.best_worker_free(),
        })
    }

    /// An online submission's arrival time was reached: admit and spawn
    /// it, or reject it (rescheduling it after a backoff when its retry
    /// policy allows).
    pub(super) fn handle_arrival(
        &mut self,
        now: SimTime,
        idx: usize,
        bus: &mut RpcBus,
        policy: &dyn PlacementPolicy,
        s: &mut Scheduler<'_, ClusterEv>,
    ) {
        let Some(mut slot) = self.arrivals[idx].take() else {
            return;
        };
        if !self.accepting() {
            self.late_rejected
                .push((slot.id, SubmitError::ArrivedAfterShutdown { arrival: now }));
            return;
        }
        match self.admit_arrival(now, &slot, policy) {
            Ok((w, cmd)) => {
                // A retried arrival landing at last closes its recovery
                // window (first rejection → successful admission).
                if let Some(first) = self.res.first_failure.remove(&slot.id) {
                    self.record_recovery(now, slot.id, first, RecoveryKind::Resubmit, w);
                }
                policy.on_outcome(
                    now,
                    Placement::Worker {
                        job: self.job,
                        worker: w,
                    },
                    true,
                );
                let (at, ev) = self.spawn(now, cmd, &slot.src, 0, bus);
                self.emit_with(now, Some(w), || TraceEventKind::TaskAdmitted {
                    task: slot.id.0,
                    name: slot.src.sub.tag().name().to_string(),
                });
                self.emit_with(now, Some(w), || TraceEventKind::Placement {
                    task: Some(slot.id.0),
                    accepted: true,
                    detail: format!("worker{w}"),
                });
                s.schedule_at(at, self.ev(ev));
            }
            Err(e) => {
                self.emit_with(now, slot.pinned, || TraceEventKind::Placement {
                    task: Some(slot.id.0),
                    accepted: false,
                    detail: e.kind().to_string(),
                });
                let failed_worker = match &e {
                    SubmitError::WorkerDown { worker } | SubmitError::CircuitOpen { worker } => {
                        Some(*worker)
                    }
                    _ => slot.pinned,
                };
                if let Some(w) = failed_worker {
                    policy.on_outcome(
                        now,
                        Placement::Worker {
                            job: self.job,
                            worker: w,
                        },
                        false,
                    );
                }
                match slot.retry {
                    Some(rp) if slot.attempt < rp.max_attempts && rp.retryable(&e) => {
                        self.res.first_failure.entry(slot.id).or_insert(now);
                        let backoff = rp.backoff(slot.attempt);
                        slot.attempt += 1;
                        self.arrivals[idx] = Some(slot);
                        s.schedule_after(backoff, self.ev(Ev::Arrival(idx)));
                    }
                    _ => self.late_rejected.push((slot.id, e)),
                }
            }
        }
    }
}
