//! The run loop: one reference run, then timed repeats for the requested
//! host seconds, every repeat checked against the reference digest.
//!
//! * `--trace 0` times untraced runs only and reports the end-to-end
//!   metrics (order statistics of host time, scaled by the host-speed
//!   probe of [`crate::calib`]; simulated metrics, which repeat exactly,
//!   from the reference run).
//! * `--trace 1` alternates untraced and traced runs. The traced runs
//!   wrap every plug-in seam in a timing shim (see [`crate::shims`]) and
//!   arm the program's profiler; they report the per-layer metrics and
//!   must reproduce the untraced digest.
//!
//! An operation is one workload run. It fails if it panics, breaks an
//! invariant, or its digest differs from the reference.

use crate::calib;
use crate::clock::{now, secs_since};
use crate::shims::{lock, Recorder, Shared};
use crate::stats::{median, min, quantile, quantile_u64};
use crate::workloads::{run, setup, Outcome, Spec, Workload, GUARDED_LAYERS};
use freeride::prelude::ProfileReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Timed repeats made even when `--seconds` has run out.
const MIN_REPEATS: usize = 3;
/// The quantile of the probe times `run_s` is scaled by. The probe is
/// about a tenth of a repeat long, so its 5th percentile, like the
/// fastest repeat, falls in the host's quietest moments.
const PROBE_QUANTILE: f64 = 0.05;
/// Probes timed before every repeat: more samples steady the quantile.
const PROBES_PER_REPEAT: usize = 2;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Host seconds to spend on timed repeats.
    pub seconds: f64,
    /// Per-layer (traced) mode.
    pub trace: bool,
    /// Where spans and trace exports are written (traced mode only).
    pub out: Option<PathBuf>,
    /// Run the workload once, untimed, and report no metrics: the
    /// process whose peak memory is the workload's own.
    pub once: bool,
}

/// The usage line printed on a bad command line.
pub const USAGE: &str =
    "usage: freeride-perfbench --workload <paper-mixed|fleet-sched|service-chaos> \
--seed <u64> --seconds <n> --trace <0|1> [--out <dir>] [--once 1]";

impl Args {
    /// Parses `--flag value` pairs; every flag but `--out` is required.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(flag, value);
        }
        let get = |k: &str| map.get(k).ok_or_else(|| format!("missing {k}"));
        let name = get("--workload")?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".to_string());
        }
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        let once = match map.get("--once").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--once must be 0 or 1, not {other}")),
        };
        for flag in map.keys() {
            let known = [
                "--workload",
                "--seed",
                "--seconds",
                "--trace",
                "--out",
                "--once",
            ];
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown flag {flag}"));
            }
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            out: map.get("--out").map(PathBuf::from),
            once,
        })
    }
}

/// One successful, checked run.
struct Sample {
    setup_s: f64,
    run_s: f64,
    outcome: Outcome,
    profile: Option<ProfileReport>,
    export: Option<String>,
    export_s: f64,
}

/// Attempt and failure counts plus the reference digest.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<u64>,
}

impl Tally {
    /// Runs `workload` once (shimmed into `rec` if given) and checks it.
    fn attempt(&mut self, args: &Args, rec: Option<&Shared>) -> Option<Sample> {
        self.attempted += 1;
        let spec = Spec::new(args.workload, args.seed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let t0 = now();
            let prepared = setup(&spec, rec);
            let t1 = now();
            let span = rec.map(|r| lock(r).enter("core", "Cluster::run", None));
            let ran = run(prepared);
            if let (Some(r), Some(span)) = (rec, span) {
                lock(r).exit(span);
            }
            let t2 = now();
            let outcome = Outcome::of(spec.workload, &ran);
            Sample {
                setup_s: t1.saturating_duration_since(t0).as_secs_f64(),
                run_s: t2.saturating_duration_since(t1).as_secs_f64(),
                outcome,
                profile: ran.report.profile,
                export: ran.export,
                export_s: ran.export_s,
            }
        }));
        let sample = match result {
            Ok(sample) => sample,
            Err(_) => {
                eprintln!("run {} panicked", self.attempted);
                self.failed += 1;
                return None;
            }
        };
        let digest = sample.outcome.digest;
        let reference = *self.reference.get_or_insert(digest);
        if !sample.outcome.problems.is_empty() || digest != reference {
            eprintln!(
                "run {} failed: digest {digest:016x} (reference {reference:016x}) {:?}",
                self.attempted, sample.outcome.problems
            );
            self.failed += 1;
            return None;
        }
        Some(sample)
    }
}

/// A metric's value and unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Runs the benchmark and returns the lines to print; the last one is the
/// JSON result.
pub fn main(args: &Args) -> Vec<String> {
    let mut tally = Tally::default();
    let reference = tally.attempt(args, None);
    let metrics = if args.once {
        Metrics::new()
    } else if args.trace {
        traced(args, &mut tally)
    } else {
        untraced(args, &mut tally, reference.as_ref())
    };
    let mut lines: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| format!("{name:<44} {value:>16.6} {unit}"))
        .collect();
    lines.insert(
        0,
        format!(
            "{} seed={} trace={} attempted={} failed={}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace),
            tally.attempted,
            tally.failed
        ),
    );
    lines.push(result_json(&tally, &metrics));
    lines
}

fn untraced(args: &Args, tally: &mut Tally, reference: Option<&Sample>) -> Metrics {
    let _ = calib::probe_s();
    let start = now();
    let mut probe_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut run_s = Vec::new();
    while run_s.len() < MIN_REPEATS || secs_since(start) < args.seconds {
        let probes: Vec<f64> = (0..PROBES_PER_REPEAT).map(|_| calib::probe_s()).collect();
        if let Some(s) = tally.attempt(args, None) {
            probe_s.extend(probes);
            setup_s.push(s.setup_s);
            run_s.push(s.run_s);
        } else if tally.failed > 2 * MIN_REPEATS as u64 {
            break;
        }
    }
    // Host time at the reference host speed (see `calib`): the probe,
    // timed before every repeat, slows down with the workload.
    let run_probe = quantile(&probe_s, PROBE_QUANTILE);
    let setup_probe = median(&probe_s);
    let scaled = |t: f64, probe: f64| {
        if probe > 0.0 {
            t * calib::REFERENCE_S / probe
        } else {
            t
        }
    };
    eprintln!(
        "{} timed repeats: run_s median {:.6} s, fastest {:.6} s; \
probe p{:.0} {:.6} s, median {:.6} s",
        run_s.len(),
        median(&run_s),
        min(&run_s),
        PROBE_QUANTILE * 100.0,
        run_probe,
        setup_probe
    );
    let mut m = Metrics::new();
    m.insert("run_s".into(), (scaled(min(&run_s), run_probe), "s"));
    m.insert(
        "setup_s".into(),
        (scaled(median(&setup_s), setup_probe), "s"),
    );
    if let Some(r) = reference {
        let o = &r.outcome;
        m.insert(
            "harvested_steps".into(),
            (o.harvested_steps as f64, "count"),
        );
        m.insert("cost_savings_pct".into(), (o.cost_savings_pct, "%"));
        m.insert("time_increase_pct".into(), (o.time_increase_pct, "%"));
        m.insert("admit_pct".into(), (o.admit_pct, "%"));
    }
    m
}

fn traced(args: &Args, tally: &mut Tally) -> Metrics {
    // The traced warm-up also proves the shims transparent before timing.
    let _ = tally.attempt(args, Some(&Recorder::shared()));
    let start = now();
    let mut plain_run_s = Vec::new();
    let mut traced_run_s = Vec::new();
    let mut layers: BTreeMap<String, (Vec<f64>, &'static str)> = BTreeMap::new();
    let mut last: Option<(Shared, Option<String>)> = None;
    while traced_run_s.len() < MIN_REPEATS || secs_since(start) < args.seconds {
        if let Some(s) = tally.attempt(args, None) {
            plain_run_s.push(s.run_s);
        }
        let rec = Recorder::shared();
        if let Some(s) = tally.attempt(args, Some(&rec)) {
            traced_run_s.push(s.run_s);
            for (name, (value, unit)) in layer_metrics(&s, &rec) {
                let entry = layers.entry(name).or_insert_with(|| (Vec::new(), unit));
                entry.0.push(value);
            }
            last = Some((rec, s.export));
        } else if tally.failed > 2 * MIN_REPEATS as u64 {
            break;
        }
    }
    let mut m: Metrics = layers
        .into_iter()
        .map(|(name, (values, unit))| (name, (median(&values), unit)))
        .collect();
    let plain = min(&plain_run_s);
    let overhead = if plain > 0.0 {
        (min(&traced_run_s) / plain - 1.0) * 100.0
    } else {
        0.0
    };
    m.insert("bench.trace_overhead_pct".into(), (overhead, "%"));
    if let (Some(dir), Some((rec, export))) = (&args.out, last) {
        write_out(dir, args.workload, &rec, export.as_deref());
    }
    m
}

/// The per-layer metrics of one traced run.
fn layer_metrics(s: &Sample, rec: &Shared) -> Metrics {
    let rec = lock(rec);
    let o = &s.outcome;
    let mut m = Metrics::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_string(), (value, unit));
    };
    let bucket = |label: &str| {
        s.profile
            .as_ref()
            .and_then(|p| p.rows.iter().find(|r| r.subsystem == label))
            .map_or((0, 0.0), |r| (r.events, r.wall.as_secs_f64() * 1e9))
    };
    let per_event = |events: u64, ns: f64| if events > 0 { ns / events as f64 } else { 0.0 };

    let steps = &rec.run_step;
    let busy_s = steps.total_ns as f64 / 1e9;
    put("tasks.run_step.calls", steps.calls() as f64, "count");
    put("tasks.run_step.busy_s", busy_s, "s");
    put(
        "tasks.run_step.p50_ns",
        quantile_u64(&steps.ns, 0.5) as f64,
        "ns",
    );
    put(
        "tasks.run_step.p99_ns",
        quantile_u64(&steps.ns, 0.99) as f64,
        "ns",
    );
    put(
        "tasks.run_step.share",
        if s.run_s > 0.0 { busy_s / s.run_s } else { 0.0 },
        "ratio",
    );

    let (events, ns) = bucket("orchestrator");
    put("core.orchestrator.events", events as f64, "count");
    put(
        "core.orchestrator.self_ns_per_event",
        per_event(events, (ns - steps.total_ns as f64).max(0.0)),
        "ns",
    );
    put("sim.events", o.events as f64, "count");
    put(
        "sim.events_per_sim_s",
        if o.makespan_s > 0.0 {
            o.events as f64 / o.makespan_s
        } else {
            0.0
        },
        "1/s",
    );
    for (label, name) in [
        ("manager", "core.manager"),
        ("rpc", "rpc"),
        ("service", "core.arrival"),
        ("fault", "core.fault"),
        ("health", "core.health"),
    ] {
        let (events, ns) = bucket(label);
        put(&format!("{name}.events"), events as f64, "count");
        put(&format!("{name}.ns_per_event"), per_event(events, ns), "ns");
    }
    put("gpu.series_samples", o.series_samples as f64, "count");
    put(
        "pipeline.bubbles_reported",
        o.bubbles_reported as f64,
        "count",
    );
    put("pipeline.harvest_pct", o.harvest_pct, "%");

    for layer in GUARDED_LAYERS {
        let empty = Default::default();
        let samples = rec.layers.get(layer).unwrap_or(&empty);
        let shed = o
            .shed
            .iter()
            .find(|(n, _)| *n == layer)
            .map_or(0, |(_, s)| *s);
        let base = format!("core.service.{layer}");
        put(&format!("{base}.calls"), samples.calls() as f64, "count");
        put(
            &format!("{base}.self_ns_p50"),
            quantile_u64(&samples.ns, 0.5) as f64,
            "ns",
        );
        put(
            &format!("{base}.self_ns_p99"),
            quantile_u64(&samples.ns, 0.99) as f64,
            "ns",
        );
        put(&format!("{base}.shed"), shed as f64, "count");
    }
    put("core.service.place_p99_ms", o.place_p99_ms, "ms");

    put(
        "core.cluster.place.calls",
        rec.place.calls() as f64,
        "count",
    );
    put(
        "core.cluster.place.misses",
        rec.place_misses as f64,
        "count",
    );
    put(
        "core.cluster.place.ns_p50",
        quantile_u64(&rec.place.ns, 0.5) as f64,
        "ns",
    );
    put(
        "core.cluster.place.ns_p99",
        quantile_u64(&rec.place.ns, 0.99) as f64,
        "ns",
    );

    put("obs.trace.events", o.trace_events as f64, "count");
    put(
        "obs.trace.record_ns_p50",
        quantile_u64(&rec.trace_record.ns, 0.5) as f64,
        "ns",
    );
    put("obs.export.ms", s.export_s * 1e3, "ms");
    put("obs.export.bytes", o.export_bytes as f64, "B");
    m
}

/// Writes the last traced run's spans (and trace export) under `dir`.
fn write_out(dir: &std::path::Path, w: Workload, rec: &Shared, export: Option<&str>) {
    let mut files = vec![(format!("{}.spans.json", w.name()), lock(rec).spans_json())];
    if let Some(export) = export {
        files.push((format!("{}.trace.json", w.name()), export.to_string()));
    }
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        files
            .iter()
            .try_for_each(|(name, body)| std::fs::write(dir.join(name), body))
    });
    if let Err(e) = written {
        eprintln!("could not write spans to {}: {e}", dir.display());
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric.
fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let correct = tally.failed == 0 && tally.attempted > 0;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
