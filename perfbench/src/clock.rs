//! The benchmark's only wall-clock reads. Host time is measured here and
//! never flows back into simulated state.

use std::sync::OnceLock;
use std::time::Instant;

/// Reads the host clock.
pub(crate) fn now() -> Instant {
    // freeride: allow(no-wall-clock) -- the benchmark measures host time; it never feeds simulated state
    Instant::now()
}

/// `t` in nanoseconds since the first call, the time base of recorded
/// spans.
pub(crate) fn stamp(t: Instant) -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = *START.get_or_init(now);
    nanos(t.saturating_duration_since(start))
}

/// A duration in whole nanoseconds, saturating.
fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Host seconds elapsed since `start`.
pub(crate) fn secs_since(start: Instant) -> f64 {
    now().saturating_duration_since(start).as_secs_f64()
}
