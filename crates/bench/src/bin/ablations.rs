//! Ablations of FreeRide's design choices (beyond the paper's figures):
//!
//! * grace period — too short wrongly kills long-step tasks, too long lets
//!   misbehaving tasks overlap training (§4.5);
//! * RPC latency — the cost of putting the manager off-host (§8,
//!   scalability);
//! * program-directed safety margin — harvest vs overlap trade-off (§4.5);
//! * placement policy — the paper's min-tasks rule vs alternatives (§8);
//! * pipeline schedule — 1F1B (DeepSpeed default) vs GPipe bubbles.
//!
//! Run: `cargo run --release -p freeride-bench --bin ablations
//! [epochs] [--threads N]` — each ablation point is an independent
//! simulation, fanned across threads; output is identical for any thread
//! count.

#![forbid(unsafe_code)]

use freeride_bench::{colocate, header, main_pipeline, BenchArgs};
use freeride_core::{evaluate, run_baseline, FreeRideConfig, Misbehavior, Submission};
use freeride_pipeline::ScheduleKind;
use freeride_sim::SimDuration;
use freeride_tasks::WorkloadKind;

fn main() {
    let args = BenchArgs::parse();
    let pipeline = main_pipeline(args.epochs);
    let baseline = run_baseline(&pipeline);
    let sweep = args.sweep();

    header("Ablation: grace period (VGG19, 283ms steps; rogue ResNet18)");
    println!(
        "{:<12} {:>16} {:>16} {:>10}",
        "grace", "VGG19 outcome", "rogue outcome", "I% (rogue)"
    );
    let jobs: Vec<_> = [50u64, 200, 500, 2000]
        .into_iter()
        .map(|grace_ms| {
            let pipeline = pipeline.clone();
            move || {
                let mut cfg = args.configure(FreeRideConfig::iterative());
                cfg.grace_period = SimDuration::from_millis(grace_ms);
                // Well-behaved VGG19: long steps keep a kernel in flight
                // when the pause lands; a too-short grace period kills it
                // by mistake.
                let run = colocate(
                    &pipeline,
                    &cfg,
                    &Submission::per_worker(WorkloadKind::Vgg19, 4),
                );
                let vgg_outcome = run.jobs[0]
                    .tasks
                    .iter()
                    .map(|t| format!("{:?}", t.stop_reason))
                    .next()
                    .unwrap_or_default();
                // Misbehaving task: longer grace = longer overlap before
                // the kill.
                let rogue = vec![Submission::new(WorkloadKind::ResNet18)
                    .with_misbehavior(Misbehavior::IgnorePause)];
                let rogue_run = colocate(&pipeline, &cfg, &rogue);
                format!(
                    "{:<12} {:>16} {:>16?} {:>10.2}",
                    format!("{grace_ms}ms"),
                    vgg_outcome,
                    rogue_run.jobs[0].tasks[0].stop_reason,
                    (rogue_run.makespan().as_secs_f64() / baseline.as_secs_f64() - 1.0) * 100.0
                )
            }
        })
        .collect();
    for row in sweep.run(jobs) {
        println!("{row}");
    }
    println!("  (take-away: the 500ms default kills no well-behaved task and");
    println!("   bounds a rogue task's damage)");

    header("Ablation: RPC latency (PageRank, 3ms steps)");
    println!("{:<12} {:>8} {:>8} {:>10}", "latency", "I%", "S%", "steps");
    let jobs: Vec<_> = [120u64, 1000, 5000, 20000]
        .into_iter()
        .map(|lat_us| {
            let pipeline = pipeline.clone();
            move || {
                let mut cfg = args.configure(FreeRideConfig::iterative());
                cfg.rpc_latency = SimDuration::from_micros(lat_us);
                let run = colocate(
                    &pipeline,
                    &cfg,
                    &Submission::per_worker(WorkloadKind::PageRank, 4),
                );
                let job = &run.jobs[0];
                let report = evaluate(baseline, job.total_time, &job.work());
                format!(
                    "{:<12} {:>8.1} {:>8.1} {:>10}",
                    format!("{}us", lat_us),
                    report.time_increase * 100.0,
                    report.cost_savings * 100.0,
                    run.total_steps()
                )
            }
        })
        .collect();
    for row in sweep.run(jobs) {
        println!("{row}");
    }
    println!("  (take-away: same-host RPC latency is negligible; tens of ms");
    println!("   start to eat into each bubble's harvest)");

    header("Ablation: program-directed safety margin (Graph SGD, 90ms steps)");
    println!("{:<12} {:>8} {:>8} {:>10}", "margin", "I%", "S%", "steps");
    let jobs: Vec<_> = [0u64, 5, 20, 60]
        .into_iter()
        .map(|margin_ms| {
            let pipeline = pipeline.clone();
            move || {
                let mut cfg = args.configure(FreeRideConfig::iterative());
                cfg.step_safety_margin = SimDuration::from_millis(margin_ms);
                let run = colocate(
                    &pipeline,
                    &cfg,
                    &Submission::per_worker(WorkloadKind::GraphSgd, 4),
                );
                let job = &run.jobs[0];
                let report = evaluate(baseline, job.total_time, &job.work());
                format!(
                    "{:<12} {:>8.1} {:>8.1} {:>10}",
                    format!("{margin_ms}ms"),
                    report.time_increase * 100.0,
                    report.cost_savings * 100.0,
                    run.total_steps()
                )
            }
        })
        .collect();
    for row in sweep.run(jobs) {
        println!("{row}");
    }
    println!("  (take-away: a small margin costs almost no harvest; a large one");
    println!("   forfeits steps that would have fit)");

    header("Ablation: pipeline schedule (PageRank side tasks)");
    println!(
        "{:<12} {:>12} {:>8} {:>8}",
        "schedule", "bubble rate", "I%", "S%"
    );
    let jobs: Vec<_> = [
        ("1F1B", ScheduleKind::OneFOneB),
        ("GPipe", ScheduleKind::GPipe),
    ]
    .into_iter()
    .map(|(name, kind)| {
        let pipeline = pipeline.clone();
        move || {
            // The no-side-task run under this schedule is also the
            // baseline its cost metrics compare against.
            let training = freeride_pipeline::run_training(&pipeline, kind);
            let cfg = args
                .configure(FreeRideConfig::iterative())
                .with_schedule(kind);
            let run = colocate(
                &pipeline,
                &cfg,
                &Submission::per_worker(WorkloadKind::PageRank, 4),
            );
            let job = &run.jobs[0];
            let report = evaluate(training.total_time, job.total_time, &job.work());
            format!(
                "{:<12} {:>11.1}% {:>8.1} {:>8.1}",
                name,
                training.bubble_stats.bubble_rate * 100.0,
                report.time_increase * 100.0,
                report.cost_savings * 100.0
            )
        }
    })
    .collect();
    for row in sweep.run(jobs) {
        println!("{row}");
    }
    println!("  (take-away: both schedules leave a similar bubble rate at this");
    println!("   scale; FreeRide harvests either)");

    header("Ablation: placement policy (mixed workload)");
    // The policy lives in the manager; `colocate` uses the paper's
    // min-tasks policy. Here we compare placements structurally.
    use freeride_core::{SideTaskManager, TaskId, WorkerPolicy};
    use freeride_gpu::MemBytes;
    for (name, policy) in [
        ("min-tasks (paper)", WorkerPolicy::MinTasks),
        ("first-fit", WorkerPolicy::FirstFit),
        ("most-memory", WorkerPolicy::MostMemory),
    ] {
        let mems: Vec<MemBytes> = (0..4).map(|s| pipeline.stage_free_memory(s)).collect();
        let mut mgr = SideTaskManager::new(mems).with_policy(policy);
        let mut placed = Vec::new();
        for (i, sub) in Submission::mixed().iter().enumerate() {
            let profile = sub.profile().expect("built-in profiles are valid");
            match mgr.submit(TaskId(i as u64), profile.gpu_mem) {
                Ok((w, _)) => placed.push(format!("{}→w{}", sub.tag().name(), w)),
                Err(_) => placed.push(format!("{}→rejected", sub.tag().name())),
            }
        }
        println!("{:<18} {}", name, placed.join("  "));
    }
    println!("  (take-away: min-tasks spreads the mixed workload across workers;");
    println!("   first-fit and most-memory pile tasks onto one queue)");
}
