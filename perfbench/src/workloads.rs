//! The three workloads, built from a seed through FreeRide's public API.
//!
//! | workload | what it stresses |
//! |---|---|
//! | `paper-mixed` | Table 2's mixed workload with the real side-task payload |
//! | `fleet-sched` | the simulator itself: 4 jobs, long-lived stand-in tasks |
//! | `service-chaos` | open-loop multi-tenant arrivals through the middleware stack, under faults |
//!
//! A run is `setup` (inputs, build, every `submit_with`), then `run`
//! (`Cluster::run`, plus the Chrome-trace export on `service-chaos`),
//! then `Outcome::of`, which reduces the report to the simulated
//! metrics, a digest of everything simulated, and any broken invariant.

use crate::shims::{lock, Shared, TimedFactory, TimedLayer, TimedPolicy, TimedSink, TimedWorkload};
use freeride::prelude::*;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Epochs of the paper-mixed training job.
const PAPER_EPOCHS: usize = 4;
/// Epochs of each fleet-sched training job.
const FLEET_EPOCHS: usize = 80;
/// Long-lived side tasks submitted per fleet-sched job.
const FLEET_TASKS_PER_JOB: usize = 6;
/// Epochs of each service-chaos training job.
const CHAOS_EPOCHS: usize = 40;
/// Simulated seconds of offered load in service-chaos.
const CHAOS_HORIZON_SECS: u64 = 180;
/// Offered load of service-chaos relative to the traffic benchmark's
/// three-tenant mix (1.5 + 1.0 + 0.5 arrivals per simulated second).
const CHAOS_LOAD: f64 = 1.5;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 2's mixed workload: PageRank, ResNet18, Image, VGG19 on the
    /// 3.6B job, real payload, cost report on.
    PaperMixed,
    /// Four jobs (3.6B/1.2B/6B rotation) under `LeastLoaded`, several
    /// long-lived stand-in side tasks per job, no middleware or faults.
    FleetSched,
    /// Seeded Poisson multi-tenant arrivals through the guarded
    /// middleware stack onto two jobs; job 0 under the chaos fault plan
    /// with checkpointing and a supervisor; tracing armed and exported.
    ServiceChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMixed,
        Workload::FleetSched,
        Workload::ServiceChaos,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMixed => "paper-mixed",
            Workload::FleetSched => "fleet-sched",
            Workload::ServiceChaos => "service-chaos",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run's inputs are generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// The benchmark seed; job seeds and the arrival trace derive from it.
    pub seed: u64,
    /// What computes the side-task steps.
    pub payload: Payload,
    /// Training epochs of every job.
    pub epochs: usize,
}

impl Spec {
    /// The benchmark's configuration of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        let (payload, epochs) = match workload {
            Workload::PaperMixed => (Payload::Real, PAPER_EPOCHS),
            Workload::FleetSched => (Payload::StandIn, FLEET_EPOCHS),
            Workload::ServiceChaos => (Payload::StandIn, CHAOS_EPOCHS),
        };
        Spec {
            workload,
            seed,
            payload,
            epochs,
        }
    }
}

/// What computes a side task's steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// The built-in workload's real computation.
    Real,
    /// A `StandIn` with the built-in kind's profile: the same
    /// simulation, with an O(1) step.
    StandIn,
}

/// A side task whose step costs O(1) host time. Submitted with a
/// built-in kind's profile, it is placed, paused and stepped exactly as
/// that kind is; only the host-side computation differs.
#[derive(Debug, Clone)]
struct StandIn {
    state: u64,
    steps: u64,
}

impl StandIn {
    /// A stand-in seeded like the workload it replaces.
    fn new(seed: u64) -> Self {
        StandIn {
            state: seed,
            steps: 0,
        }
    }
}

impl SideTaskWorkload for StandIn {
    fn name(&self) -> &'static str {
        "stand-in"
    }

    fn create(&mut self) {}

    fn init_gpu(&mut self) {}

    fn run_step(&mut self) -> f64 {
        self.steps += 1;
        self.state = mix(self.state);
        (self.state >> 11) as f64 / (1u64 << 53) as f64
    }

    fn steps_done(&self) -> u64 {
        self.steps
    }
}

/// SplitMix64 finalizer: derives independent seeds from the benchmark
/// seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn job_seed(seed: u64, job: u64) -> u64 {
    mix(seed ^ mix(job.wrapping_add(1)))
}

/// A submission of `kind` as the payload asks, shimmed when `rec` is
/// given. `id` is the submission's index, carried into its spans.
fn submission(kind: WorkloadKind, payload: Payload, rec: Option<&Shared>, id: u64) -> Submission {
    match (payload, rec) {
        (Payload::Real, None) => Submission::new(kind),
        (Payload::Real, Some(rec)) => {
            Submission::from_factory(Arc::new(TimedFactory::new(Arc::new(kind), rec.clone(), id)))
        }
        (Payload::StandIn, rec) => {
            let rec = rec.cloned();
            let profile = kind.profile();
            Submission::custom(
                format!("{} stand-in", kind.name()),
                profile.gpu_mem,
                move |seed| -> Box<dyn SideTaskWorkload> {
                    let task = Box::new(StandIn::new(seed));
                    match &rec {
                        Some(rec) => Box::new(TimedWorkload::new(task, rec.clone(), id)),
                        None => task,
                    }
                },
            )
            .with_profile(profile)
        }
    }
}

/// The program's trace sink, plain or behind the timing shim.
pub(crate) enum Sink {
    /// The tracer as a user arms it.
    Plain(Arc<Mutex<SimTracer>>),
    /// The same tracer inside `TimedSink`.
    Timed(Arc<Mutex<TimedSink>>),
}

impl Sink {
    fn new(rec: Option<&Shared>) -> Sink {
        match rec {
            Some(rec) => Sink::Timed(Arc::new(Mutex::new(TimedSink::new(rec.clone())))),
            None => Sink::Plain(SimTracer::shared()),
        }
    }

    fn handle(&self) -> Arc<Mutex<dyn TraceSink>> {
        match self {
            Sink::Plain(s) => s.clone(),
            Sink::Timed(s) => s.clone(),
        }
    }

    /// The Chrome-trace export of everything recorded.
    fn export(&self) -> String {
        match self {
            Sink::Plain(s) => s
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .to_chrome_trace(),
            Sink::Timed(s) => s
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .tracer
                .to_chrome_trace(),
        }
    }
}

/// What the front door did with the offered submissions.
#[derive(Default)]
pub(crate) struct FrontDoor {
    /// Handles of the submissions accepted at submission time.
    pub handles: Vec<ClusterTaskHandle>,
    /// Submissions offered.
    pub offered: u64,
    /// Submissions refused at submission time (shed or unplaceable).
    pub refused: u64,
}

/// A built cluster with every submission made, ready to run.
pub(crate) struct Prepared {
    /// The cluster.
    pub cluster: Cluster,
    /// The armed trace sink (service-chaos only).
    pub sink: Option<Sink>,
    /// The submissions made.
    pub front: FrontDoor,
}

impl Prepared {
    fn new(cluster: Cluster, sink: Option<Sink>) -> Prepared {
        Prepared {
            cluster,
            sink,
            front: FrontDoor::default(),
        }
    }

    fn submit(&mut self, sub: Submission, opts: SubmitOptions, rec: Option<&Shared>) {
        let id = self.front.offered;
        let span = rec.map(|r| {
            let mut r = lock(r);
            r.set_submission(Some(id));
            r.enter("submit", "submit_with", Some(id))
        });
        let result = self.cluster.submit_with(sub, opts);
        if let (Some(rec), Some(span)) = (rec, span) {
            let mut r = lock(rec);
            r.exit(span);
            r.set_submission(None);
        }
        self.front.offered += 1;
        match result {
            Ok(handle) => self.front.handles.push(handle),
            Err(_) => self.front.refused += 1,
        }
    }
}

/// Registers `policy`, behind the timing shim when `rec` is given.
fn with_policy(
    builder: ClusterBuilder,
    policy: impl PlacementPolicy + 'static,
    rec: Option<&Shared>,
) -> ClusterBuilder {
    match rec {
        Some(r) => builder.policy(TimedPolicy::new(policy, r.clone())),
        None => builder.policy(policy),
    }
}

/// Registers `layer`, behind the timing shim when `rec` is given.
fn with_layer(
    builder: ClusterBuilder,
    layer: impl SubmitMiddleware + 'static,
    rec: Option<&Shared>,
) -> ClusterBuilder {
    match rec {
        Some(r) => builder.layer(TimedLayer::new(layer, r.clone())),
        None => builder.layer(layer),
    }
}

/// Registers the traffic benchmark's `guarded` stack, outermost first,
/// with limits sized for service-chaos's offered load.
fn with_guarded_stack(builder: ClusterBuilder, rec: Option<&Shared>) -> ClusterBuilder {
    let b = with_layer(builder, ServiceMetrics::new(), rec);
    let b = with_layer(b, AdmissionControl::new(16, SimDuration::from_secs(4)), rec);
    let b = with_layer(b, TenantQuota::new(8, SimDuration::from_secs(4)), rec);
    let b = with_layer(b, DeadlineLayer::new(SimDuration::from_millis(1_500)), rec);
    let b = with_layer(b, PriorityTag::new("best-effort"), rec);
    with_layer(b, RateLimit::new(5.0, 4).mode(RateLimitMode::Delay), rec)
}

/// Names of the guarded stack's layers, outermost first.
pub(crate) const GUARDED_LAYERS: [&str; 6] = [
    "service-metrics",
    "admission-control",
    "tenant-quota",
    "deadline",
    "priority-tag",
    "rate-limit",
];

/// Simulated seconds between repeats of the fault pattern.
const CHAOS_FAULT_PERIOD_SECS: u64 = 30;

/// The chaos benchmark's fault trace on job 0's four workers, repeated
/// every `CHAOS_FAULT_PERIOD_SECS` across the offered-load horizon: an
/// OOM window, a worker that crashes twice, an RPC spike, a straggler.
fn fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    let mut base = 0;
    while base < CHAOS_HORIZON_SECS * 1_000 {
        let at = |ms: u64| SimTime::from_millis(base + ms);
        plan = plan
            .oom_window(at(3_000), SimDuration::from_secs(2))
            .crash_worker(at(4_000), 1, SimDuration::from_secs(1))
            .rpc_spike(
                at(5_000),
                3,
                SimDuration::from_millis(40),
                SimDuration::from_secs(1),
            )
            .crash_worker(at(5_200), 1, SimDuration::from_secs(3))
            .straggler(at(6_000), 2, 0.25, SimDuration::from_secs(4));
        base += CHAOS_FAULT_PERIOD_SECS * 1_000;
    }
    plan
}

/// The service-chaos arrival trace: three tenants, open-loop Poisson.
pub fn chaos_trace(seed: u64) -> Vec<Arrival> {
    let poisson = |rate: f64| ArrivalProcess::Poisson {
        rate_per_sec: rate * CHAOS_LOAD,
    };
    TrafficGen::new(seed)
        .duration(SimDuration::from_secs(CHAOS_HORIZON_SECS))
        .class(
            TrafficClass::new("batch", poisson(1.5))
                .workload(WorkloadKind::PageRank, 3.0)
                .workload(WorkloadKind::GraphSgd, 1.0),
        )
        .class(
            TrafficClass::new("interactive", poisson(1.0)).workload(WorkloadKind::ImageProc, 1.0),
        )
        .class(
            TrafficClass::new("training", poisson(0.5))
                .workload(WorkloadKind::ResNet18, 1.0)
                .workload(WorkloadKind::Vgg19, 1.0),
        )
        .generate()
}

fn model(job: usize) -> ModelSpec {
    match job % 3 {
        0 => ModelSpec::nanogpt_3_6b(),
        1 => ModelSpec::nanogpt_1_2b(),
        _ => ModelSpec::nanogpt_6b(),
    }
}

/// Table 2's mixed workload, one task per worker of a 4-stage job.
const MIXED: [WorkloadKind; 4] = [
    WorkloadKind::PageRank,
    WorkloadKind::ResNet18,
    WorkloadKind::ImageProc,
    WorkloadKind::Vgg19,
];

/// The fleet-sched side-task rotation.
const FLEET_KINDS: [WorkloadKind; 6] = [
    WorkloadKind::PageRank,
    WorkloadKind::ImageProc,
    WorkloadKind::ResNet18,
    WorkloadKind::GraphSgd,
    WorkloadKind::Vgg19,
    WorkloadKind::ResNet50,
];

/// Generates the workload's inputs from `seed`, builds the cluster and
/// makes every submission. With `rec`, every plug-in seam is shimmed and
/// the program's profiler is armed.
pub(crate) fn setup(spec: &Spec, rec: Option<&Shared>) -> Prepared {
    let Spec {
        workload,
        seed,
        payload,
        epochs,
    } = *spec;
    let traced = rec.is_some();
    match workload {
        Workload::PaperMixed => {
            let pipeline =
                PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs);
            let job = ClusterJob::new(pipeline)
                .config(FreeRideConfig::iterative())
                .seed(job_seed(seed, 0));
            let builder = Cluster::builder()
                .job(job)
                .cost_report(true)
                .profile(traced);
            let builder = with_policy(builder, MinTasksJob, rec);
            let mut p = Prepared::new(builder.build(), None);
            for kind in MIXED {
                let sub = submission(kind, payload, rec, p.front.offered);
                p.submit(sub, SubmitOptions::new(), rec);
            }
            p
        }
        Workload::FleetSched => {
            let builder = Cluster::builder().cost_report(true).profile(traced);
            let mut builder = with_policy(builder, LeastLoaded, rec);
            for j in 0..4 {
                let pipeline = PipelineConfig::paper_default(model(j)).with_epochs(epochs);
                builder = builder.job(
                    ClusterJob::new(pipeline)
                        .config(FreeRideConfig::iterative())
                        .seed(job_seed(seed, j as u64)),
                );
            }
            let mut p = Prepared::new(builder.build(), None);
            for j in 0..4 {
                for t in 0..FLEET_TASKS_PER_JOB {
                    let kind = FLEET_KINDS[(j + t) % FLEET_KINDS.len()];
                    let sub = submission(kind, payload, rec, p.front.offered);
                    p.submit(sub, SubmitOptions::new().affinity(j), rec);
                }
            }
            p
        }
        Workload::ServiceChaos => {
            let trace = chaos_trace(seed);
            let faulty = PipelineConfig::paper_default(model(0)).with_epochs(epochs);
            let steady = PipelineConfig::paper_default(model(1)).with_epochs(epochs);
            let sink = Sink::new(rec);
            let breaker = CircuitBreaker::new(LeastLoaded, 2, SimDuration::from_secs(3));
            let builder = Cluster::builder()
                .job(
                    ClusterJob::new(faulty)
                        .seed(job_seed(seed, 0))
                        .faults(fault_plan())
                        .checkpoint(SimDuration::from_secs(1))
                        .supervise(SupervisorConfig::new().hedge(0.5)),
                )
                .job(ClusterJob::new(steady).seed(job_seed(seed, 1)))
                .cost_report(true)
                .trace(sink.handle())
                .profile(traced);
            let builder = with_policy(builder, breaker, rec);
            let builder = with_guarded_stack(builder, rec);
            let mut p = Prepared::new(builder.build(), Some(sink));
            let retry = RetryPolicy::new(8, SimDuration::from_millis(200));
            // The standing load: Table 2's mixed workload on every job,
            // placed before the first arrival.
            for j in 0..2 {
                for kind in MIXED {
                    let sub = submission(kind, payload, rec, p.front.offered);
                    let opts = SubmitOptions::new()
                        .affinity(j)
                        .tenant("standing")
                        .retry(retry);
                    p.submit(sub, opts, rec);
                }
            }
            for arrival in &trace {
                let sub = submission(arrival.kind, payload, rec, p.front.offered).at(arrival.at);
                let opts = SubmitOptions::new()
                    .tenant(arrival.tenant.clone())
                    .retry(retry);
                p.submit(sub, opts, rec);
            }
            p
        }
    }
}

/// A finished run: the report, the front door's record, and the
/// Chrome-trace export if tracing was armed.
pub(crate) struct Ran {
    /// What `Cluster::run` returned.
    pub report: ClusterReport,
    /// The submissions made before the run.
    pub front: FrontDoor,
    /// The Chrome-trace JSON (service-chaos only).
    pub export: Option<String>,
    /// Host time of the export, in seconds.
    pub export_s: f64,
}

/// Runs the cluster, then exports the trace if one was armed. This is
/// the part `run_s` times.
pub(crate) fn run(prepared: Prepared) -> Ran {
    let Prepared {
        cluster,
        sink,
        front,
    } = prepared;
    let report = cluster.run();
    let t0 = crate::clock::now();
    let export = sink.as_ref().map(Sink::export);
    let export_s = if export.is_some() {
        crate::clock::secs_since(t0)
    } else {
        0.0
    };
    Ran {
        report,
        front,
        export,
        export_s,
    }
}

/// One run reduced to what the benchmark reports and checks.
#[derive(Debug)]
pub struct Outcome {
    /// FNV-1a digest of everything simulated (never of host time).
    pub digest: u64,
    /// Side-task steps harvested across the fleet.
    pub harvested_steps: u64,
    /// The paper's `S` over the fleet, in percent.
    pub cost_savings_pct: f64,
    /// The paper's `I` over the fleet, in percent.
    pub time_increase_pct: f64,
    /// Submissions the front door (middleware and placement policy)
    /// admitted, per hundred offered.
    pub admit_pct: f64,
    /// Simulated latency-to-placement p99 in ms (0 without a metrics layer).
    pub place_p99_ms: f64,
    /// Discrete events simulated.
    pub events: u64,
    /// Simulated seconds of the longest job.
    pub makespan_s: f64,
    /// Bubble reports delivered to the managers.
    pub bubbles_reported: u64,
    /// Bubble time spent running side-task steps, in percent.
    pub harvest_pct: f64,
    /// Change-points in the reports' device time series.
    pub series_samples: u64,
    /// Rejections originated per middleware layer.
    pub shed: Vec<(&'static str, u64)>,
    /// Trace events emitted (0 when tracing is disarmed).
    pub trace_events: u64,
    /// Size of the Chrome-trace export in bytes.
    pub export_bytes: u64,
    /// Broken invariants; empty for a correct run.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Reduces a finished run of `workload`.
    pub(crate) fn of(workload: Workload, ran: &Ran) -> Outcome {
        let report = &ran.report;
        let front = &ran.front;
        let mut d = String::new();
        let mut problems = Vec::new();

        let mut value = 0.0;
        let mut extra = 0.0;
        let mut base_cost = 0.0;
        let mut running = 0.0;
        let mut total = 0.0;
        let mut series_samples = 0u64;
        let mut bubbles = 0u64;
        for (j, job) in report.jobs.iter().enumerate() {
            let _ = write!(
                d,
                "job {j} time={} epochs={:?} bubbles={} events={} base={:?} cost={:?}\n\
                 breakdown={:?}\nrecoveries={:?}\nhealth={:?}\n",
                job.total_time.as_nanos(),
                job.epoch_times,
                job.bubbles_reported,
                job.events_processed,
                job.baseline_time,
                job.cost,
                job.breakdown,
                job.recoveries,
                job.health,
            );
            for t in &job.tasks {
                let _ = writeln!(
                    d,
                    "task {} {} w{} steps={} {:?} {:?} {:?}",
                    t.id.0,
                    t.kind,
                    t.worker,
                    t.steps,
                    t.final_state,
                    t.stop_reason,
                    t.last_value.map(f64::to_bits)
                );
            }
            for r in &job.rejected {
                let _ = writeln!(d, "late-reject {:?}", r);
            }
            for (name, series) in job.trace.iter() {
                let _ = write!(d, "series {name}:");
                for s in series.samples() {
                    let _ = write!(d, " {}={:x}", s.time.as_nanos(), s.value.to_bits());
                }
                d.push('\n');
                series_samples += series.samples().len() as u64;
            }
            match &job.cost {
                Some(c) => {
                    value += c.side_task_value;
                    extra += c.extra_cost;
                    base_cost += c.baseline_cost;
                }
                None => problems.push(format!("job {j} has no cost report")),
            }
            running += job.breakdown.running.as_secs_f64();
            total += job.breakdown.total.as_secs_f64();
            bubbles += job.bubbles_reported;
            if job.bubbles_reported == 0 {
                problems.push(format!("job {j} reported no bubbles"));
            }
        }
        for r in &report.rejected {
            let _ = writeln!(d, "reject {:?}", r);
        }
        let _ = writeln!(
            d,
            "policy={} events={} service={:?} trace={:?}",
            report.policy, report.events_processed, report.service, report.trace_summary
        );
        let mut placed = 0u64;
        let mut handle_steps = 0u64;
        for h in &front.handles {
            let _ = writeln!(
                d,
                "handle {} job={} at={} prio={:?} steps={:?}",
                h.id().0,
                h.job(),
                h.admitted_at().as_nanos(),
                h.priority(),
                h.steps()
            );
            if let Some(steps) = h.steps() {
                placed += 1;
                handle_steps += steps;
            }
        }
        if let Some(export) = &ran.export {
            let _ = writeln!(d, "export {} {:x}", export.len(), fnv1a(export.as_bytes()));
        }

        let harvested_steps = report.total_steps();
        let time_increase_pct = report.global_throughput_loss().unwrap_or(f64::NAN) * 100.0;
        let cost_savings_pct = if base_cost > 0.0 {
            (value - extra) / base_cost * 100.0
        } else {
            f64::NAN
        };
        let place_p99_ms = report
            .service
            .as_ref()
            .and_then(|s| s.latency.as_ref())
            .map_or(0.0, |l| l.p99().as_secs_f64() * 1e3);
        let shed = report
            .service
            .as_ref()
            .map(|s| s.layers.iter().map(|l| (l.name, l.shed)).collect())
            .unwrap_or_default();
        let trace_events = report.trace_summary.as_ref().map_or(0, |t| t.events);

        // Invariants every workload keeps.
        if front.offered != front.handles.len() as u64 + front.refused {
            problems.push("a submission is unaccounted for".to_string());
        }
        if harvested_steps == 0 {
            problems.push("no side-task step was harvested".to_string());
        }
        if !time_increase_pct.is_finite() || !cost_savings_pct.is_finite() {
            problems.push("the cost report is incomplete".to_string());
        }
        match workload {
            Workload::PaperMixed | Workload::FleetSched => {
                if front.refused != 0 || report.total_rejections() != 0 {
                    problems.push("a long-lived side task was rejected".to_string());
                }
                if placed != front.offered || handle_steps != harvested_steps {
                    problems.push("task handles disagree with the report".to_string());
                }
                if trace_events != 0 || ran.export.is_some() {
                    problems.push("tracing ran although it was not armed".to_string());
                }
            }
            Workload::ServiceChaos => {
                if front.handles.is_empty() || front.refused == 0 {
                    problems.push("admitted and shed paths must both carry traffic".to_string());
                }
                if trace_events == 0 || !ran.export.as_deref().is_some_and(|e| e.starts_with('{')) {
                    problems.push("the armed tracer exported nothing".to_string());
                }
            }
        }
        if workload == Workload::PaperMixed {
            let mut workers: Vec<usize> = report
                .jobs
                .iter()
                .flat_map(|j| j.tasks.iter().map(|t| t.worker))
                .collect();
            workers.sort_unstable();
            workers.dedup();
            if workers.len() != 4 {
                problems.push("the mixed workload is not one task per worker".to_string());
            }
            if !(0.0..5.0).contains(&time_increase_pct) || cost_savings_pct <= 0.0 {
                problems.push(format!(
                    "I={time_increase_pct:.3}% S={cost_savings_pct:.3}% outside the paper's regime"
                ));
            }
        }

        Outcome {
            digest: fnv1a(d.as_bytes()),
            harvested_steps,
            cost_savings_pct,
            time_increase_pct,
            admit_pct: front.handles.len() as f64 * 100.0 / front.offered.max(1) as f64,
            place_p99_ms,
            events: report.events_processed,
            makespan_s: report.makespan().as_secs_f64(),
            bubbles_reported: bubbles,
            harvest_pct: if total > 0.0 {
                running / total * 100.0
            } else {
                0.0
            },
            series_samples,
            shed,
            trace_events,
            export_bytes: ran.export.as_ref().map_or(0, |e| e.len() as u64),
            problems,
        }
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Sets up, runs and reduces one run.
pub fn run_once(spec: &Spec, rec: Option<&Shared>) -> Outcome {
    Outcome::of(spec.workload, &run(setup(spec, rec)))
}
