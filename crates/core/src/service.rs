//! The online service front-end: onion-model submit middleware.
//!
//! The paper evaluates FreeRide against hand-placed side tasks; a real
//! deployment fronts the admission plane with a middleware stack the way
//! any web service does. This module is that stack: a [`SubmitMiddleware`]
//! trait in the classic onion model — each layer sees the submission plus
//! a [`Next`] continuation and composes in **registration order, first
//! registered = outermost** — hung on the seam that
//! [`Cluster::submit_with`](crate::Cluster::submit_with) already is.
//!
//! ```text
//!   submission ──▶ ServiceMetrics          (observe everything)
//!                    └▶ AdmissionControl   (cluster pressure gate)
//!                         └▶ TenantQuota   (per-tenant fairness)
//!                              └▶ RateLimit(token bucket, sim time)
//!                                   └▶ PriorityTag / DeadlineLayer
//!                                        └▶ placement (route + policy)
//! ```
//!
//! Layers run at submission time, **in simulated time**: a token bucket
//! refills along the arrival timestamps of the trace, not the wall
//! clock, so the same trace replays byte-identically. An empty chain is
//! not merely equivalent to the direct path — the cluster short-circuits
//! it, so the no-middleware configuration *is* the historical code path.
//!
//! Shipped layers: [`AdmissionControl`], [`TenantQuota`], [`RateLimit`],
//! [`PriorityTag`], [`DeadlineLayer`], [`ServiceMetrics`]. Per-layer
//! accept/reject counters are collected by the chain driver for every
//! layer (custom ones included) and land in
//! [`ClusterReport::service`](crate::ClusterReport::service) as a
//! [`ServiceReport`].

use crate::cluster::{Cluster, ClusterTaskHandle, ClusterView};
use crate::fault::SubmitOptions;
use crate::job::Submission;
use crate::manager::SubmitError;
use freeride_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Tenant label used when a submission carries no
/// [`SubmitOptions::tenant`]: quota and metrics layers pool anonymous
/// traffic under this shared bucket.
pub const DEFAULT_TENANT: &str = "shared";

/// The continuation a [`SubmitMiddleware`] layer calls to pass the
/// submission inward — to the next layer, or, at the innermost position,
/// to the cluster's placement policy itself.
pub trait Next {
    /// Forwards the submission to the rest of the chain. A layer may
    /// rewrite `submission` (e.g. delay its arrival) and `opts` (e.g.
    /// stamp a priority or deadline) before forwarding, short-circuit
    /// with an `Err` to shed the request, or inspect the result on the
    /// way back out.
    fn call(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
    ) -> Result<ClusterTaskHandle, SubmitError>;

    /// The cluster state at this instant — what the placement policy
    /// would decide over. Lets pressure-sensitive layers (admission
    /// control, load shedders) observe the fleet without reaching around
    /// the chain.
    fn view(&self) -> ClusterView;
}

/// One layer of the submit onion.
///
/// Layers compose in registration order
/// ([`ClusterBuilder::layer`](crate::ClusterBuilder::layer)): the first
/// registered layer is outermost, sees every submission first and its
/// result last. A layer that never calls `next` sheds the request; a
/// layer that calls it twice retries; a layer that rewrites the
/// submission's arrival delays it — all in simulated time, so replays
/// stay byte-identical.
///
/// ```
/// use freeride_core::{
///     Cluster, ClusterJob, ClusterTaskHandle, Next, Submission, SubmitError,
///     SubmitMiddleware, SubmitOptions,
/// };
/// use freeride_pipeline::{ModelSpec, PipelineConfig};
/// use freeride_tasks::WorkloadKind;
///
/// /// Shed every second submission — a 50% load shedder.
/// struct ShedHalf {
///     seen: u64,
/// }
///
/// impl SubmitMiddleware for ShedHalf {
///     fn name(&self) -> &'static str {
///         "shed-half"
///     }
///
///     fn handle(
///         &mut self,
///         sub: Submission,
///         opts: SubmitOptions,
///         next: &mut dyn Next,
///     ) -> Result<ClusterTaskHandle, SubmitError> {
///         self.seen += 1;
///         if self.seen % 2 == 0 {
///             return Err(SubmitError::Overloaded {
///                 inflight: 1,
///                 limit: 1,
///             });
///         }
///         next.call(sub, opts)
///     }
/// }
///
/// let mut cluster = Cluster::builder()
///     .job(ClusterJob::new(
///         PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2),
///     ))
///     .layer(ShedHalf { seen: 0 })
///     .cost_report(false)
///     .build();
///
/// assert!(cluster
///     .submit_with(Submission::new(WorkloadKind::PageRank), SubmitOptions::new())
///     .is_ok());
/// assert!(cluster
///     .submit_with(Submission::new(WorkloadKind::PageRank), SubmitOptions::new())
///     .is_err());
/// let report = cluster.run();
/// let service = report.service.expect("a chain was registered");
/// assert_eq!(service.layers[0].name, "shed-half");
/// assert_eq!(service.layers[0].entered, 2);
/// assert_eq!(service.layers[0].shed, 1);
/// ```
pub trait SubmitMiddleware: Send {
    /// Stable layer name, used in [`ServiceReport`] rows.
    fn name(&self) -> &'static str;

    /// Handles one submission: shed it, rewrite it, or pass it inward
    /// via `next` (any number of times).
    fn handle(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
        next: &mut dyn Next,
    ) -> Result<ClusterTaskHandle, SubmitError>;

    /// Called once when the cluster run finishes, letting stateful
    /// layers (e.g. [`ServiceMetrics`]) contribute to the
    /// [`ServiceReport`]. The default does nothing.
    fn finish(&mut self, report: &mut ServiceReport) {
        let _ = report;
    }
}

/// Accept/reject counters the chain driver keeps per layer.
#[derive(Debug, Clone, Copy, Default)]
struct LayerStats {
    entered: u64,
    rejected: u64,
}

/// The registered middleware stack of a [`Cluster`], plus the driver
/// bookkeeping. Empty by default; [`Cluster::submit_with`] bypasses an
/// empty chain entirely.
#[derive(Default)]
pub(crate) struct ServiceChain {
    layers: Vec<(Box<dyn SubmitMiddleware>, LayerStats)>,
    core: LayerStats,
}

impl ServiceChain {
    pub(crate) fn push(&mut self, layer: Box<dyn SubmitMiddleware>) {
        self.layers.push((layer, LayerStats::default()));
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Drives `submission` through the onion: outermost layer first,
    /// innermost position routing to the cluster's placement policy.
    pub(crate) fn dispatch(
        &mut self,
        cluster: &mut Cluster,
        submission: Submission,
        opts: SubmitOptions,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        let mut ctx = ChainCtx {
            rest: &mut self.layers,
            core: &mut self.core,
            cluster,
        };
        ctx.call(submission, opts)
    }

    /// Consumes the chain into its report: driver-collected per-layer
    /// counters first, then each layer's own [`SubmitMiddleware::finish`]
    /// contribution. `None` when no layer was registered.
    pub(crate) fn finish(self) -> Option<ServiceReport> {
        if self.layers.is_empty() {
            return None;
        }
        let mut layers = self.layers;
        let mut rows = Vec::with_capacity(layers.len());
        for i in 0..layers.len() {
            let inner_rejected = layers
                .get(i + 1)
                .map(|(_, s)| s.rejected)
                .unwrap_or(self.core.rejected);
            let (layer, stats) = &layers[i];
            rows.push(LayerReport {
                name: layer.name(),
                entered: stats.entered,
                rejected: stats.rejected,
                // Rejections that *originated* here: what this layer
                // returned minus what came back from inside. Saturating,
                // because a retrying layer can swallow inner rejections.
                shed: stats.rejected.saturating_sub(inner_rejected),
            });
        }
        let mut report = ServiceReport {
            layers: rows,
            placement: LayerReport {
                name: "placement",
                entered: self.core.entered,
                rejected: self.core.rejected,
                shed: self.core.rejected,
            },
            latency: None,
            tenants: BTreeMap::new(),
            rejections_by_kind: BTreeMap::new(),
        };
        for (layer, _) in &mut layers {
            layer.finish(&mut report);
        }
        Some(report)
    }
}

/// The driver's view of "the rest of the onion": the layers not yet
/// entered plus the cluster at the center. Implements [`Next`] by
/// peeling one layer per call.
struct ChainCtx<'a> {
    rest: &'a mut [(Box<dyn SubmitMiddleware>, LayerStats)],
    core: &'a mut LayerStats,
    cluster: &'a mut Cluster,
}

impl Next for ChainCtx<'_> {
    fn call(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        match self.rest.split_first_mut() {
            None => {
                self.core.entered += 1;
                let out = self.cluster.route(submission, opts);
                if out.is_err() {
                    self.core.rejected += 1;
                }
                out
            }
            Some((entry, tail)) => {
                entry.1.entered += 1;
                let layer = entry.0.name();
                let at = submission.arrival();
                let mut inner = ChainCtx {
                    rest: tail,
                    core: &mut *self.core,
                    cluster: &mut *self.cluster,
                };
                let out = entry.0.handle(submission, opts, &mut inner);
                if out.is_err() {
                    entry.1.rejected += 1;
                }
                self.cluster.emit_trace(at, None, None, || {
                    freeride_obs::TraceEventKind::Middleware {
                        layer,
                        decision: match &out {
                            Ok(_) => "accept".to_string(),
                            Err(e) => e.kind().to_string(),
                        },
                    }
                });
                out
            }
        }
    }

    fn view(&self) -> ClusterView {
        self.cluster.view()
    }
}

// ---------------------------------------------------------------------
// Shipped layers
// ---------------------------------------------------------------------

/// Cluster-wide admission gate: sheds submissions with
/// [`SubmitError::Overloaded`] while more than `limit` admissions
/// happened inside the trailing `window` of simulated time.
///
/// The gate counts *accepted* submissions (a shed request does not add
/// pressure) against arrival timestamps, so the same trace replays
/// byte-identically regardless of wall-clock scheduling.
pub struct AdmissionControl {
    limit: usize,
    window: SimDuration,
    recent: VecDeque<SimTime>,
}

impl AdmissionControl {
    /// A gate admitting at most `limit` submissions per trailing
    /// `window`.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: usize, window: SimDuration) -> Self {
        assert!(limit > 0, "an admission gate needs a positive limit");
        AdmissionControl {
            limit,
            window,
            recent: VecDeque::new(),
        }
    }
}

impl SubmitMiddleware for AdmissionControl {
    fn name(&self) -> &'static str {
        "admission-control"
    }

    fn handle(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
        next: &mut dyn Next,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        let now = submission.arrival();
        let cutoff = SimTime::from_nanos(now.as_nanos().saturating_sub(self.window.as_nanos()));
        while self.recent.front().is_some_and(|&t| t < cutoff) {
            self.recent.pop_front();
        }
        if self.recent.len() >= self.limit {
            return Err(SubmitError::Overloaded {
                inflight: self.recent.len(),
                limit: self.limit,
            });
        }
        let out = next.call(submission, opts);
        if out.is_ok() {
            self.recent.push_back(now);
        }
        out
    }
}

/// Per-tenant admission quota: at most `limit` accepted submissions per
/// tenant per trailing `window` of simulated time; excess is shed with
/// [`SubmitError::QuotaExceeded`].
///
/// Tenancy comes from [`SubmitOptions::tenant`]; anonymous submissions
/// pool under [`DEFAULT_TENANT`].
pub struct TenantQuota {
    limit: usize,
    window: SimDuration,
    ledger: BTreeMap<String, VecDeque<SimTime>>,
}

impl TenantQuota {
    /// A quota of `limit` accepted submissions per tenant per trailing
    /// `window`.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: usize, window: SimDuration) -> Self {
        assert!(limit > 0, "a quota needs a positive limit");
        TenantQuota {
            limit,
            window,
            ledger: BTreeMap::new(),
        }
    }
}

impl SubmitMiddleware for TenantQuota {
    fn name(&self) -> &'static str {
        "tenant-quota"
    }

    fn handle(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
        next: &mut dyn Next,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        let now = submission.arrival();
        let tenant = opts
            .tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_owned());
        let used = self.ledger.entry(tenant).or_default();
        let cutoff = SimTime::from_nanos(now.as_nanos().saturating_sub(self.window.as_nanos()));
        while used.front().is_some_and(|&t| t < cutoff) {
            used.pop_front();
        }
        if used.len() >= self.limit {
            return Err(SubmitError::QuotaExceeded { limit: self.limit });
        }
        let out = next.call(submission, opts);
        if out.is_ok() {
            used.push_back(now);
        }
        out
    }
}

/// What a [`RateLimit`] does when the bucket is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateLimitMode {
    /// Reject immediately with [`SubmitError::RateLimited`], telling the
    /// caller when the next token accrues.
    Shed,
    /// Delay the submission: rewrite its arrival to the instant the next
    /// token accrues and pass it inward — an open queue in simulated
    /// time. The added delay shows up in latency-to-placement.
    Delay,
}

/// Token-bucket rate limiter running on simulated time.
///
/// The bucket holds up to `burst` tokens and refills at `rate_per_sec`
/// along the *arrival timestamps* of the submissions it sees — no wall
/// clock anywhere, so a replayed trace meters identically. Each accepted
/// submission spends one token; an empty bucket sheds
/// ([`RateLimitMode::Shed`], the default) or delays
/// ([`RateLimitMode::Delay`]).
///
/// ```
/// use freeride_core::{RateLimit, RateLimitMode};
///
/// // 2 submissions per simulated second, bursts of up to 5,
/// // delaying (not shedding) when the bucket runs dry.
/// let layer = RateLimit::new(2.0, 5).mode(RateLimitMode::Delay);
/// assert_eq!(layer.rate_per_sec(), 2.0);
/// ```
pub struct RateLimit {
    rate_per_sec: f64,
    burst: f64,
    mode: RateLimitMode,
    tokens: f64,
    last: SimTime,
}

impl RateLimit {
    /// A bucket refilling at `rate_per_sec` tokens per simulated second,
    /// holding at most `burst`. Starts full; sheds by default.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is not finite and positive, or `burst`
    /// is zero.
    pub fn new(rate_per_sec: f64, burst: usize) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "rate must be finite and positive"
        );
        assert!(burst > 0, "a rate limiter needs a positive burst");
        RateLimit {
            rate_per_sec,
            burst: burst as f64,
            mode: RateLimitMode::Shed,
            tokens: burst as f64,
            last: SimTime::ZERO,
        }
    }

    /// Selects what happens when the bucket is empty (default:
    /// [`RateLimitMode::Shed`]).
    pub fn mode(mut self, mode: RateLimitMode) -> Self {
        self.mode = mode;
        self
    }

    /// The configured refill rate.
    pub fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec
    }
}

impl SubmitMiddleware for RateLimit {
    fn name(&self) -> &'static str {
        "rate-limit"
    }

    fn handle(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
        next: &mut dyn Next,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        // Clamp non-monotonic traces: the bucket never refills backwards.
        let now = submission.arrival().max(self.last);
        let elapsed = now.saturating_since(self.last);
        self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate_per_sec).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return next.call(submission, opts);
        }
        let deficit = 1.0 - self.tokens;
        let wait = SimDuration::from_secs_f64(deficit / self.rate_per_sec);
        let retry_at = now.saturating_add(wait);
        match self.mode {
            RateLimitMode::Shed => Err(SubmitError::RateLimited { retry_at }),
            RateLimitMode::Delay => {
                // The fractional token accrued by `retry_at` is spent on
                // this submission.
                self.tokens = 0.0;
                self.last = retry_at;
                next.call(submission.at(retry_at), opts)
            }
        }
    }
}

/// Stamps a default priority tag on untagged submissions. Explicit
/// [`SubmitOptions::priority`] wins.
pub struct PriorityTag {
    tag: String,
}

impl PriorityTag {
    /// Tags untagged submissions with `tag`.
    pub fn new(tag: impl Into<String>) -> Self {
        PriorityTag { tag: tag.into() }
    }
}

impl SubmitMiddleware for PriorityTag {
    fn name(&self) -> &'static str {
        "priority-tag"
    }

    fn handle(
        &mut self,
        submission: Submission,
        mut opts: SubmitOptions,
        next: &mut dyn Next,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        if opts.priority.is_none() {
            opts.priority = Some(self.tag.clone());
        }
        next.call(submission, opts)
    }
}

/// Deadline enforcement: gives every submission a placement deadline of
/// `budget` past its arrival (explicit [`SubmitOptions::deadline`] wins)
/// and rejects already-late submissions at its position with
/// [`SubmitError::DeadlineExceeded`].
///
/// The deadline travels inward with the options, so delays added by
/// *inner* layers (e.g. a delaying [`RateLimit`]) are still checked at
/// the admission plane itself — a submission delayed past its budget is
/// rejected, not placed late.
pub struct DeadlineLayer {
    budget: SimDuration,
}

impl DeadlineLayer {
    /// Grants each submission `budget` of simulated time from arrival to
    /// placement.
    pub fn new(budget: SimDuration) -> Self {
        DeadlineLayer { budget }
    }
}

impl SubmitMiddleware for DeadlineLayer {
    fn name(&self) -> &'static str {
        "deadline"
    }

    fn handle(
        &mut self,
        submission: Submission,
        mut opts: SubmitOptions,
        next: &mut dyn Next,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        let deadline = *opts
            .deadline
            .get_or_insert_with(|| submission.arrival().saturating_add(self.budget));
        if submission.arrival() > deadline {
            return Err(SubmitError::DeadlineExceeded {
                deadline,
                arrival: submission.arrival(),
            });
        }
        next.call(submission, opts)
    }
}

/// Observation layer: per-tenant accept/reject counts, rejection counts
/// by error kind, and a latency-to-placement histogram — the simulated
/// time between a submission's arrival *as this layer saw it* and its
/// effective admission instant (after any inner delays).
///
/// Register it **outermost** so it observes the whole stack. Its
/// numbers land in the [`ServiceReport`] at
/// [`ClusterReport::service`](crate::ClusterReport::service) when the
/// run finishes.
#[derive(Default)]
pub struct ServiceMetrics {
    samples: Vec<u64>,
    tenants: BTreeMap<String, TenantStats>,
    rejections: BTreeMap<&'static str, u64>,
}

impl ServiceMetrics {
    /// An empty metrics layer.
    pub fn new() -> Self {
        ServiceMetrics::default()
    }
}

impl SubmitMiddleware for ServiceMetrics {
    fn name(&self) -> &'static str {
        "service-metrics"
    }

    fn handle(
        &mut self,
        submission: Submission,
        opts: SubmitOptions,
        next: &mut dyn Next,
    ) -> Result<ClusterTaskHandle, SubmitError> {
        let arrival = submission.arrival();
        let tenant = opts
            .tenant
            .clone()
            .unwrap_or_else(|| DEFAULT_TENANT.to_owned());
        let out = next.call(submission, opts);
        let stats = self.tenants.entry(tenant).or_default();
        stats.submitted += 1;
        match &out {
            Ok(handle) => {
                stats.accepted += 1;
                self.samples
                    .push(handle.admitted_at().saturating_since(arrival).as_nanos());
            }
            Err(error) => {
                stats.rejected += 1;
                *self.rejections.entry(error.kind()).or_default() += 1;
            }
        }
        out
    }

    fn finish(&mut self, report: &mut ServiceReport) {
        let mut samples = std::mem::take(&mut self.samples);
        samples.sort_unstable();
        report.latency = Some(LatencyHistogram::from_nanos(samples));
        report.tenants = std::mem::take(&mut self.tenants);
        report.rejections_by_kind = std::mem::take(&mut self.rejections);
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// Driver-collected counters for one layer of the chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerReport {
    /// The layer's [`SubmitMiddleware::name`].
    pub name: &'static str,
    /// Submissions that entered this layer.
    pub entered: u64,
    /// Errors this layer returned outward (its own sheds plus inner
    /// rejections it propagated).
    pub rejected: u64,
    /// Rejections that *originated* at this layer: [`Self::rejected`]
    /// minus the rejections the layer inside it returned.
    pub shed: u64,
}

/// Per-tenant submission counters kept by [`ServiceMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Submissions attributed to this tenant.
    pub submitted: u64,
    /// Of those, accepted by the admission plane.
    pub accepted: u64,
    /// Of those, rejected anywhere in the stack.
    pub rejected: u64,
}

/// Sorted latency-to-placement samples with nearest-rank quantiles.
///
/// Hoisted into [`freeride_obs`] as the single histogram implementation
/// of the observability subsystem (the [`freeride_obs::MetricsRegistry`]
/// records into the same type); re-exported here so every historical
/// `freeride_core::LatencyHistogram` path keeps working unchanged.
pub use freeride_obs::LatencyHistogram;

/// What the service front-end observed over one cluster lifetime:
/// driver-collected per-layer counters (every layer, custom ones
/// included) plus whatever the registered layers contribute in
/// [`SubmitMiddleware::finish`] — for [`ServiceMetrics`], the latency
/// histogram, per-tenant stats, and rejection counts by error kind.
///
/// `Some` in [`ClusterReport::service`](crate::ClusterReport::service)
/// exactly when at least one layer was registered.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Per-layer counters, outermost first.
    pub layers: Vec<LayerReport>,
    /// The innermost position: the placement policy itself.
    pub placement: LayerReport,
    /// Latency-to-placement histogram ([`ServiceMetrics`] only).
    pub latency: Option<LatencyHistogram>,
    /// Per-tenant counters ([`ServiceMetrics`] only).
    pub tenants: BTreeMap<String, TenantStats>,
    /// Rejection counts keyed by [`SubmitError::kind`]
    /// ([`ServiceMetrics`] only).
    pub rejections_by_kind: BTreeMap<&'static str, u64>,
}

impl ServiceReport {
    /// The counters of the layer named `name`, if registered.
    pub fn layer(&self, name: &str) -> Option<&LayerReport> {
        self.layers.iter().find(|l| l.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_nearest_rank() {
        let h = LatencyHistogram::from_nanos((1..=100).collect());
        assert_eq!(h.quantile(0.5), SimDuration::from_nanos(50));
        assert_eq!(h.quantile(0.99), SimDuration::from_nanos(99));
        assert_eq!(h.quantile(1.0), SimDuration::from_nanos(100));
        assert_eq!(h.p999(), SimDuration::from_nanos(100));
        assert_eq!(h.max(), SimDuration::from_nanos(100));
        assert_eq!(h.mean(), SimDuration::from_nanos(50));
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.p50(), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h.mean(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "quantile must be in (0, 1]")]
    fn histogram_rejects_zero_quantile() {
        LatencyHistogram::from_nanos(vec![1]).quantile(0.0);
    }

    #[test]
    #[should_panic(expected = "positive limit")]
    fn admission_control_rejects_zero_limit() {
        AdmissionControl::new(0, SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "positive limit")]
    fn tenant_quota_rejects_zero_limit() {
        TenantQuota::new(0, SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "positive burst")]
    fn rate_limit_rejects_zero_burst() {
        RateLimit::new(1.0, 0);
    }
}
