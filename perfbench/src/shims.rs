//! Timing shims for the traced run.
//!
//! Each shim wraps one of the program's public plug-in seams and
//! forwards every call unchanged, so a shimmed run replays the unshimmed
//! simulation exactly (the workload digests prove it):
//!
//! * `TimedFactory` / `TimedWorkload` — the side-task payload
//!   (`WorkloadFactory` / `SideTaskWorkload::run_step`);
//! * `TimedLayer` — one `SubmitMiddleware` layer, whose self time is
//!   its span minus the inner `Next` call;
//! * `TimedPolicy` — the cluster's `PlacementPolicy::place`;
//! * `TimedSink` — the program's `TraceSink`, around an in-memory
//!   `SimTracer`.
//!
//! All of them write into one [`Recorder`]: per-seam samples plus spans
//! (name, start, end, parent; one id per submission), kept in memory and
//! written out when the benchmark ends.

use crate::clock::{now, stamp};
use freeride::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};

/// The recorder every shim of one traced run shares.
pub type Shared = Arc<Mutex<Recorder>>;

/// Locks the recorder. A shim that panicked while holding it left its
/// samples whole (every update is a single push), so a poisoned lock is
/// still usable.
pub fn lock(rec: &Shared) -> MutexGuard<'_, Recorder> {
    rec.lock().unwrap_or_else(|e| e.into_inner())
}

/// One timed interval of host time.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the span belongs to (`submit`, `service`, `cluster`, `core`, `tasks`).
    pub cat: &'static str,
    /// What ran (a middleware layer's name, `place`, `run_step`, …).
    pub name: &'static str,
    /// The submission the span served, when it served one.
    pub id: Option<u64>,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Start, nanoseconds since the benchmark started.
    pub start_ns: u64,
    /// End, nanoseconds since the benchmark started.
    pub end_ns: u64,
}

/// Host-time samples of one seam, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// One entry per call.
    pub ns: Vec<u64>,
    /// Sum of `ns`.
    pub total_ns: u64,
}

impl Samples {
    fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.total_ns += ns;
    }

    /// Number of calls.
    pub fn calls(&self) -> u64 {
        self.ns.len() as u64
    }
}

/// Everything the shims of one traced run measured.
#[derive(Debug, Default)]
pub struct Recorder {
    /// `SideTaskWorkload::run_step` durations.
    pub run_step: Samples,
    /// Self time per middleware layer, keyed by the layer's name.
    pub layers: BTreeMap<&'static str, Samples>,
    /// `PlacementPolicy::place` durations.
    pub place: Samples,
    /// `place` calls that found no fitting placement.
    pub place_misses: u64,
    /// `TraceSink::record` durations.
    pub trace_record: Samples,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    submission: Option<u64>,
}

impl Recorder {
    /// A fresh recorder behind the shared handle the shims hold.
    pub fn shared() -> Shared {
        Arc::new(Mutex::new(Recorder::default()))
    }

    /// Opens a span under the innermost open one; returns its index.
    pub(crate) fn enter(
        &mut self,
        cat: &'static str,
        name: &'static str,
        id: Option<u64>,
    ) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            cat,
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: stamp(now()),
            end_ns: 0,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `idx` (and any left open inside it).
    pub(crate) fn exit(&mut self, idx: usize) {
        let end = stamp(now());
        while let Some(top) = self.open.pop() {
            if let Some(span) = self.spans.get_mut(top) {
                span.end_ns = end;
            }
            if top == idx {
                break;
            }
        }
    }

    /// Records a closed span under the innermost open one.
    fn leaf(
        &mut self,
        cat: &'static str,
        name: &'static str,
        id: Option<u64>,
        start: u64,
        end: u64,
    ) {
        self.spans.push(Span {
            cat,
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: end,
        });
    }

    /// Marks the submission the next placement and middleware spans serve.
    pub(crate) fn set_submission(&mut self, id: Option<u64>) {
        self.submission = id;
    }

    /// The spans as a JSON array, one object per line.
    pub(crate) fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let id = s.id.map_or("null".to_string(), |v| v.to_string());
            let parent = s.parent.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"idx\":{i},\"cat\":\"{}\",\"name\":\"{}\",\"id\":{id},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.cat, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]\n");
        out
    }
}

/// Wraps a workload factory so every built workload is a
/// `TimedWorkload`. Tag and profile are the inner factory's, so the
/// submission is admitted, placed and stepped exactly as unwrapped.
pub(crate) struct TimedFactory {
    inner: Arc<dyn WorkloadFactory>,
    rec: Shared,
    id: u64,
}

impl TimedFactory {
    /// Wraps `inner` for submission `id`.
    pub(crate) fn new(inner: Arc<dyn WorkloadFactory>, rec: Shared, id: u64) -> Self {
        TimedFactory { inner, rec, id }
    }
}

impl WorkloadFactory for TimedFactory {
    fn tag(&self) -> WorkloadTag {
        self.inner.tag()
    }

    fn profile(&self, batch: usize) -> WorkloadProfile {
        self.inner.profile(batch)
    }

    fn build(&self, seed: u64) -> Box<dyn SideTaskWorkload> {
        Box::new(TimedWorkload::new(
            self.inner.build(seed),
            self.rec.clone(),
            self.id,
        ))
    }
}

/// Times every `run_step` of the wrapped workload.
pub(crate) struct TimedWorkload {
    inner: Box<dyn SideTaskWorkload>,
    rec: Shared,
    id: u64,
}

impl TimedWorkload {
    /// Wraps `inner`, which serves submission `id`.
    pub(crate) fn new(inner: Box<dyn SideTaskWorkload>, rec: Shared, id: u64) -> Self {
        TimedWorkload { inner, rec, id }
    }
}

impl SideTaskWorkload for TimedWorkload {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn create(&mut self) {
        self.inner.create();
    }

    fn init_gpu(&mut self) {
        self.inner.init_gpu();
    }

    fn run_step(&mut self) -> f64 {
        let start = stamp(now());
        let value = self.inner.run_step();
        let end = stamp(now());
        let mut rec = lock(&self.rec);
        rec.run_step.push(end - start);
        rec.leaf("tasks", "run_step", Some(self.id), start, end);
        value
    }

    fn steps_done(&self) -> u64 {
        self.inner.steps_done()
    }
}

/// Times one middleware layer. Its self time excludes the inner `Next`
/// call, which `TimedNext` measures.
pub(crate) struct TimedLayer<L> {
    inner: L,
    rec: Shared,
}

impl<L> TimedLayer<L> {
    /// Wraps `inner`.
    pub(crate) fn new(inner: L, rec: Shared) -> Self {
        TimedLayer { inner, rec }
    }
}

impl<L: SubmitMiddleware> SubmitMiddleware for TimedLayer<L> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn handle(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
        next: &mut dyn Next,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        let name = self.inner.name();
        let span = {
            let mut rec = lock(&self.rec);
            let id = rec.submission;
            rec.enter("service", name, id)
        };
        // The recorder is unlocked while the layer runs: inner layers,
        // the placement shim and the trace sink all record into it.
        let start = stamp(now());
        let mut timed_next = TimedNext { next, inner_ns: 0 };
        let out = self.inner.handle(submission, opts, &mut timed_next);
        let total = stamp(now()) - start;
        let mut rec = lock(&self.rec);
        rec.exit(span);
        rec.layers
            .entry(name)
            .or_default()
            .push(total.saturating_sub(timed_next.inner_ns));
        out
    }

    fn finish(&mut self, report: &mut ServiceReport) {
        self.inner.finish(report);
    }
}

/// The continuation handed to a `TimedLayer`'s inner layer: forwards
/// to the real `Next` and adds up the time spent inside it.
struct TimedNext<'a> {
    next: &'a mut dyn Next,
    inner_ns: u64,
}

impl Next for TimedNext<'_> {
    fn call(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        let start = stamp(now());
        let out = self.next.call(submission, opts);
        self.inner_ns += stamp(now()) - start;
        out
    }

    fn view(&self) -> ClusterView {
        self.next.view()
    }
}

/// Times the placement decision of the wrapped policy; every other hook
/// is forwarded untouched.
pub(crate) struct TimedPolicy<P> {
    inner: P,
    rec: Shared,
}

impl<P> TimedPolicy<P> {
    /// Wraps `inner`.
    pub(crate) fn new(inner: P, rec: Shared) -> Self {
        TimedPolicy { inner, rec }
    }
}

impl<P: PlacementPolicy> PlacementPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&self, needed: MemBytes, view: &ClusterView) -> Option<Placement> {
        let start = stamp(now());
        let placement = self.inner.place(needed, view);
        let end = stamp(now());
        let mut rec = lock(&self.rec);
        rec.place.push(end - start);
        if placement.is_none() {
            rec.place_misses += 1;
        }
        let id = rec.submission;
        rec.leaf("cluster", "place", id, start, end);
        placement
    }

    fn on_outcome(&self, now: SimTime, placement: Placement, ok: bool) {
        self.inner.on_outcome(now, placement, ok);
    }

    fn blocks(&self, now: SimTime, job: usize, worker: usize) -> bool {
        self.inner.blocks(now, job, worker)
    }

    fn breaker_state(&self, job: usize, worker: usize) -> Option<BreakerState> {
        self.inner.breaker_state(job, worker)
    }
}

/// A trace sink that times each `record` into the in-memory
/// [`SimTracer`] it owns.
pub(crate) struct TimedSink {
    /// The program's tracer, read back for the Chrome-trace export.
    pub(crate) tracer: SimTracer,
    rec: Shared,
}

impl TimedSink {
    /// An empty tracer behind the timing shim.
    pub(crate) fn new(rec: Shared) -> Self {
        TimedSink {
            tracer: SimTracer::new(),
            rec,
        }
    }
}

impl TraceSink for TimedSink {
    fn record(&mut self, event: TraceEvent) {
        let start = stamp(now());
        self.tracer.record(event);
        let ns = stamp(now()) - start;
        lock(&self.rec).trace_record.push(ns);
    }
}
