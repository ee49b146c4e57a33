//! # FreeRide — harvesting bubbles in pipeline parallelism
//!
//! A from-scratch Rust reproduction of *"FreeRide: Harvesting Bubbles in
//! Pipeline Parallelism"* (ACM Middleware 2025): a middleware that runs
//! generic GPU *side tasks* inside the bubbles of pipeline-parallel LLM
//! training with ~1% overhead, plus every substrate the paper depends on
//! (simulated multi-GPU server, DeepSpeed-style pipeline engine, CUDA-MPS
//! sharing semantics, gRPC-style RPC, and the six evaluation workloads).
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `freeride-sim` | deterministic discrete-event engine |
//! | [`gpu`] | `freeride-gpu` | simulated GPUs, MPS, containers |
//! | [`rpc`] | `freeride-rpc` | latency-modelled RPC bus |
//! | [`pipeline`] | `freeride-pipeline` | pipeline training + bubbles |
//! | [`tasks`] | `freeride-tasks` | side-task workloads + profiles |
//! | [`obs`] | `freeride-obs` | sim-time tracing, metrics, profiling |
//! | [`core`] | `freeride-core` | the FreeRide middleware itself |
//! | [`rt`] | `freeride-rt` | the middleware on real OS threads |
//!
//! ## Quickstart
//!
//! ```
//! use freeride::prelude::*;
//!
//! // The paper's main setup: 3.6B nanoGPT, 4 stages, 4 micro-batches.
//! let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
//!     .with_epochs(4);
//!
//! // A cluster is the middleware as a service: configure its training
//! // job(s), submit side tasks (at any simulated time), run, inspect
//! // per-task outcomes. One job is the paper's setup.
//! let mut cluster = Cluster::builder()
//!     .job(
//!         ClusterJob::new(pipeline)
//!             .interface(InterfaceKind::Iterative)
//!             .seed(0xF1EE),
//!     )
//!     .build();
//!
//! // Two PageRank side tasks up front, plus one arriving mid-training —
//! // Algorithm 1 places it on a still-idle worker and it starts
//! // harvesting the bubbles that remain.
//! for sub in Submission::per_worker(WorkloadKind::PageRank, 2) {
//!     cluster.submit(sub).expect("fits bubble memory");
//! }
//! let late = cluster
//!     .submit(Submission::new(WorkloadKind::PageRank).at(SimTime::from_millis(2_000)))
//!     .expect("online arrivals share the same front door");
//!
//! let report = cluster.run();
//! let cost = report.jobs[0].cost.expect("cost report enabled by default");
//! assert!(cost.time_increase < 0.02); // ~1% overhead
//! assert!(cost.cost_savings > 0.05);  // real savings
//! assert!(late.steps().unwrap() > 0); // the online task did real work
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use freeride_core as core;
pub use freeride_gpu as gpu;
pub use freeride_obs as obs;
pub use freeride_pipeline as pipeline;
pub use freeride_rpc as rpc;
pub use freeride_rt as rt;
pub use freeride_sim as sim;
pub use freeride_tasks as tasks;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use freeride_core::{
        evaluate, run_baseline, time_increase, AdaptiveAdmission, AdmissionControl, BestFitMemory,
        BreakerState, Brownout, CircuitBreaker, Cluster, ClusterBuilder, ClusterJob, ClusterReport,
        ClusterTaskHandle, ClusterView, ColocationMode, CostReport, DeadlineLayer, FailureDetector,
        FastestFit, FaultEvent, FaultKind, FaultPlan, FirstFit, FreeRideConfig, HealthReport,
        HealthState, HealthTransition, InterfaceKind, JobReport, JobView, LatencyHistogram,
        LayerReport, LeastLoaded, MinTasksJob, Misbehavior, Next, Placement, PlacementPolicy,
        PriorityTag, RateLimit, RateLimitMode, Recovery, RecoveryKind, RejectedSubmission,
        RetryPolicy, ServiceMetrics, ServiceReport, SideTaskManager, SideTaskState, StopReason,
        Submission, SubmitError, SubmitMiddleware, SubmitOptions, Supervisor, SupervisorConfig,
        TaskId, TaskSummary, TenantQuota, TenantStats, Transition, WorkerPolicy, WorkerView,
        DEFAULT_TENANT,
    };
    pub use freeride_gpu::{GpuDevice, GpuId, HardwareSpec, MemBytes, Priority, SharingKind};
    pub use freeride_obs::{
        MetricsRegistry, ProfileReport, SimTracer, TraceEvent, TraceEventKind, TraceSink,
        TraceSummary,
    };
    pub use freeride_pipeline::{
        run_training, BubbleKind, BubbleProfile, BubbleReport, ModelSpec, PipelineConfig,
        ScheduleKind,
    };
    pub use freeride_sim::{DetRng, SimDuration, SimTime, Simulation, World};
    pub use freeride_tasks::{
        Arrival, ArrivalProcess, ServerSpec, SideTaskWorkload, TrafficClass, TrafficGen,
        WorkloadFactory, WorkloadKind, WorkloadProfile, WorkloadTag,
    };
}
