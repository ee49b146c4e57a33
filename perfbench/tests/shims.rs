//! The benchmark's own checks: the timing shims leave the simulation
//! untouched, the stand-in payload simulates exactly like the built-in
//! kinds, and the seed reaches the generated inputs.
//!
//! Run with `cargo test --release` from this directory (the real payload
//! is slow in debug builds).

use freeride_perfbench::measure::Args;
use freeride_perfbench::shims::{lock, Recorder};
use freeride_perfbench::workloads::{chaos_trace, run_once, Payload, Spec, Workload};

fn small(workload: Workload, seed: u64) -> Spec {
    let mut spec = Spec::new(workload, seed);
    if workload == Workload::FleetSched {
        spec.epochs = 4;
    }
    spec
}

#[test]
fn shims_are_transparent_on_every_workload() {
    for workload in Workload::ALL {
        let spec = small(workload, 7);
        let plain = run_once(&spec, None);
        let rec = Recorder::shared();
        let shimmed = run_once(&spec, Some(&rec));
        assert!(
            plain.problems.is_empty(),
            "{workload:?}: {:?}",
            plain.problems
        );
        assert!(
            shimmed.problems.is_empty(),
            "{workload:?}: {:?}",
            shimmed.problems
        );
        assert_eq!(
            plain.digest, shimmed.digest,
            "{workload:?}: shims changed the run"
        );
        let rec = lock(&rec);
        assert_eq!(rec.run_step.calls(), plain.harvested_steps, "{workload:?}");
        assert!(
            rec.place.calls() > 0,
            "{workload:?}: placement went unobserved"
        );
        assert!(!rec.spans.is_empty());
        if workload == Workload::ServiceChaos {
            assert_eq!(rec.trace_record.calls(), plain.trace_events);
            assert_eq!(rec.layers.len(), 6, "every middleware layer is timed");
        } else {
            assert_eq!(plain.trace_events, 0, "tracing is disarmed");
            assert!(rec.layers.is_empty());
        }
    }
}

#[test]
fn repeated_runs_share_a_digest() {
    let spec = small(Workload::ServiceChaos, 3);
    assert_eq!(run_once(&spec, None).digest, run_once(&spec, None).digest);
}

#[test]
fn stand_ins_simulate_like_the_built_in_kinds() {
    for workload in [Workload::PaperMixed, Workload::FleetSched] {
        let real = Spec {
            payload: Payload::Real,
            ..small(workload, 11)
        };
        let stand_in = Spec {
            payload: Payload::StandIn,
            ..real
        };
        let a = run_once(&real, None);
        let b = run_once(&stand_in, None);
        assert!(a.problems.is_empty() && b.problems.is_empty());
        assert_eq!(a.events, b.events, "{workload:?}: event counts differ");
        assert_eq!(a.harvested_steps, b.harvested_steps, "{workload:?}");
        assert_eq!(
            a.makespan_s.to_bits(),
            b.makespan_s.to_bits(),
            "{workload:?}"
        );
        assert_eq!(a.bubbles_reported, b.bubbles_reported, "{workload:?}");
        assert_eq!(a.series_samples, b.series_samples, "{workload:?}");
        assert_eq!(a.time_increase_pct.to_bits(), b.time_increase_pct.to_bits());
        assert_eq!(a.cost_savings_pct.to_bits(), b.cost_savings_pct.to_bits());
    }
}

#[test]
fn seed_changes_the_service_chaos_trace() {
    assert_eq!(chaos_trace(1), chaos_trace(1));
    assert_ne!(chaos_trace(1), chaos_trace(2));
    let a = run_once(&Spec::new(Workload::ServiceChaos, 1), None);
    let b = run_once(&Spec::new(Workload::ServiceChaos, 2), None);
    assert_ne!(a.digest, b.digest);
    assert!(
        a.admit_pct > 0.0 && a.admit_pct < 100.0,
        "both paths carry traffic"
    );
}

#[test]
fn command_line_is_checked() {
    let args = |s: &str| Args::parse(s.split_whitespace().map(String::from));
    let ok = args("--workload fleet-sched --seed 5 --seconds 2 --trace 1").unwrap();
    assert_eq!(ok.workload, Workload::FleetSched);
    assert_eq!(ok.seed, 5);
    assert!(ok.trace);
    assert!(args("--workload nope --seed 5 --seconds 2 --trace 1").is_err());
    assert!(args("--workload fleet-sched --seed 5 --seconds 2 --trace 2").is_err());
    assert!(args("--workload fleet-sched --seed 5 --seconds 2").is_err());
    assert!(args("--workload fleet-sched --seed x --seconds 2 --trace 0").is_err());
}
