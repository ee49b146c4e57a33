//! Figure 8 — demonstration of FreeRide's GPU resource limits:
//! (a) the framework-enforced execution-time limit: a side task that
//!     refuses to pause is `SIGKILL`ed after the grace period;
//! (b) the MPS memory limit: a side task that keeps allocating past its
//!     cap is terminated, releasing GPU memory; training is unaffected.
//!
//! Run: `cargo run --release -p freeride-bench --bin figure8
//! [--threads N]` — the three demonstration runs are independent and fan
//! across threads; the epoch count is pinned (the demo's assertions
//! depend on it) and output is identical for any thread count.

#![forbid(unsafe_code)]

use freeride_bench::{colocate, header, main_pipeline, BenchArgs};
use freeride_core::{
    run_baseline, time_increase, FreeRideConfig, JobReport, Misbehavior, StopReason, Submission,
};
use freeride_gpu::MemBytes;
use freeride_sim::SimDuration;
use freeride_tasks::WorkloadKind;

fn main() {
    let args = BenchArgs::parse();
    let pipeline = main_pipeline(6);
    let baseline = run_baseline(&pipeline);

    // The three demonstration runs are independent simulations; fan them
    // out and print afterwards.
    let rogue =
        || vec![Submission::new(WorkloadKind::ResNet18).with_misbehavior(Misbehavior::IgnorePause)];
    let job = |cfg: FreeRideConfig, subs: Vec<Submission>| {
        let pipeline = pipeline.clone();
        let cfg = args.configure(cfg);
        move || colocate(&pipeline, &cfg, &subs).jobs.remove(0)
    };

    // (a) without the limit (grace period effectively infinite) vs with.
    let mut no_limit = FreeRideConfig::iterative();
    no_limit.grace_period = SimDuration::from_secs(3600);
    // (b) a task that leaks 1 GiB per step against its ~8 GiB cap. Three
    // healthy PageRank tasks occupy workers 0-2 so the leaky task lands on
    // stage 3, whose bubbles have plenty of physical memory — the *cap*,
    // not device exhaustion, must stop it (the paper's 8 GB demo).
    let mut leak_cfg = FreeRideConfig::iterative();
    leak_cfg.mem_cap_headroom = MemBytes::from_gib_f64(8.0 - 2.63);
    let mut leaky: Vec<Submission> = (0..3)
        .map(|_| Submission::new(WorkloadKind::PageRank))
        .collect();
    leaky.push(
        Submission::new(WorkloadKind::ResNet18).with_misbehavior(Misbehavior::LeakMemory {
            per_step: MemBytes::from_gib(1),
        }),
    );

    let mut runs: Vec<JobReport> = args.sweep().run(vec![
        job(no_limit, rogue()),
        job(FreeRideConfig::iterative(), rogue()),
        job(leak_cfg, leaky),
    ]);
    let leak_run = runs.pop().expect("three runs");
    let with_limit_run = runs.pop().expect("three runs");
    let no_limit_run = runs.pop().expect("three runs");

    header("Figure 8(a): framework-enforced execution-time limit");
    let i_no_limit = time_increase(baseline, no_limit_run.total_time);
    println!(
        "without limit: task end state {:?} after {} steps, training +{:.1}%",
        no_limit_run.tasks[0].stop_reason,
        no_limit_run.tasks[0].steps,
        i_no_limit * 100.0
    );

    // With the limit: killed via SIGKILL after the 500ms grace period.
    let i_with_limit = time_increase(baseline, with_limit_run.total_time);
    println!(
        "with limit:    task end state {:?} after {} steps, training +{:.1}%",
        with_limit_run.tasks[0].stop_reason,
        with_limit_run.tasks[0].steps,
        i_with_limit * 100.0
    );
    assert_eq!(with_limit_run.tasks[0].stop_reason, StopReason::KilledGrace);
    assert!(
        i_with_limit < i_no_limit,
        "the kill must bound the overhead"
    );
    println!("  (paper: the worker terminates the side task after a grace period)");

    header("Figure 8(b): side task GPU memory limit");
    let run = leak_run;
    let task = run
        .tasks
        .iter()
        .find(|t| t.kind == WorkloadKind::ResNet18)
        .expect("leaky task admitted");
    println!(
        "leaky task: end state {:?} after {} steps (cap 8 GiB, leak 1 GiB/step)",
        task.stop_reason, task.steps
    );
    assert_eq!(task.stop_reason, StopReason::KilledOom);

    // Memory trace on the worker's GPU: rises, then drops to the training
    // footprint at the kill.
    let series = run
        .trace
        .series(&format!("gpu{}.mem", task.worker))
        .expect("memory trace");
    let peak = series.max_value().unwrap();
    let last = series.samples().last().unwrap().value;
    let train_only = pipeline.stage_memory(task.worker).as_gib_f64();
    println!(
        "gpu{} memory: training-only {train_only:.1} GiB, peak {peak:.1} GiB, after kill {last:.1} GiB",
        task.worker
    );
    assert!(peak > train_only + 4.0, "leak must be visible");
    assert!(
        peak < train_only + 9.0,
        "cap must bound the leak well below device capacity"
    );
    assert!(
        peak < 46.0,
        "the cap, not device exhaustion, stops the leak"
    );
    assert!(
        (last - train_only).abs() < 1e-6,
        "kill must release everything"
    );
    let i = time_increase(baseline, run.total_time);
    println!(
        "training time increase during all of this: {:.2}%",
        i * 100.0
    );
    println!("  (paper: the process exceeding its 8 GB limit is terminated to");
    println!("   release GPU memory; other processes remain unaffected)");
}
