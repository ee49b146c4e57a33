//! Figure 7 — sensitivity studies of FreeRide (iterative interface):
//! (a,b) side-task batch size 16–128 (model-training tasks; OOM cells
//!       where Server-II's 10 GB cannot hold the configuration),
//! (c,d) pipeline model size 1.2B / 3.6B / 6B,
//! (e,f) micro-batch count 4 / 6 / 8.
//!
//! Run: `cargo run --release -p freeride-bench --bin figure7
//! [epochs] [--threads N]` — 51 independent simulations, fanned across
//! threads; output is identical for any thread count.

#![forbid(unsafe_code)]

use freeride_bench::{colocate, header, BenchArgs};
use freeride_core::{evaluate, run_baseline, FreeRideConfig, Submission};
use freeride_pipeline::{ModelSpec, PipelineConfig};
use freeride_tasks::WorkloadKind;

fn main() {
    let args = BenchArgs::parse();
    let epochs = args.epochs;
    let cfg = args.configure(FreeRideConfig::iterative());
    let sweep = args.sweep();

    header("Figure 7(a,b): time increase / dollar saving vs side-task batch size");
    println!(
        "{:<10} {:>6} {:>8} {:>8} {:>10}",
        "task", "batch", "I%", "S%", "note"
    );
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(epochs);
    let baseline = run_baseline(&pipeline);
    let kinds_ab = [
        WorkloadKind::ResNet18,
        WorkloadKind::ResNet50,
        WorkloadKind::Vgg19,
    ];
    let batches = [16usize, 32, 64, 96, 128];
    let jobs: Vec<_> = kinds_ab
        .into_iter()
        .flat_map(|kind| batches.into_iter().map(move |batch| (kind, batch)))
        .map(|(kind, batch)| {
            let pipeline = pipeline.clone();
            let cfg = cfg.clone();
            move || {
                let subs: Vec<Submission> = (0..4)
                    .map(|_| Submission::new(kind).with_batch(batch))
                    .collect();
                let run = colocate(&pipeline, &cfg, &subs);
                let job = &run.jobs[0];
                let report = evaluate(baseline, job.total_time, &job.work());
                let profile = kind.profile_with_batch(batch);
                let note = if !profile.fits_server2() {
                    "OOM on Server-II (S not comparable)"
                } else if run.total_rejections() > 0 {
                    "partially rejected (bubble memory)"
                } else {
                    ""
                };
                format!(
                    "{:<10} {:>6} {:>8.1} {:>8.1} {:>10}",
                    kind.name(),
                    batch,
                    report.time_increase * 100.0,
                    report.cost_savings * 100.0,
                    note
                )
            }
        })
        .collect();
    for (i, row) in sweep.run(jobs).into_iter().enumerate() {
        println!("{row}");
        if (i + 1) % batches.len() == 0 {
            println!();
        }
    }
    println!("  (paper: ~1% time increase throughout; savings 3.4%-7.5%; OOM at");
    println!("   VGG19 batch >= 96 where the RTX 3080 runs out of memory)");

    header("Figure 7(c,d): time increase / dollar saving vs pipeline model size");
    println!("{:<10} {:>6} {:>8} {:>8}", "task", "model", "I%", "S%");
    let params_all = [1.2f64, 3.6, 6.0];
    let jobs: Vec<_> = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| params_all.into_iter().map(move |params| (kind, params)))
        .map(|(kind, params)| {
            let cfg = cfg.clone();
            move || {
                let pipeline = PipelineConfig::paper_default(ModelSpec::by_params_b(params))
                    .with_epochs(epochs);
                let baseline = run_baseline(&pipeline);
                let run = colocate(&pipeline, &cfg, &Submission::per_worker(kind, 4));
                let job = &run.jobs[0];
                let report = evaluate(baseline, job.total_time, &job.work());
                format!(
                    "{:<10} {:>5}B {:>8.1} {:>8.1}",
                    kind.name(),
                    params,
                    report.time_increase * 100.0,
                    report.cost_savings * 100.0
                )
            }
        })
        .collect();
    for (i, row) in sweep.run(jobs).into_iter().enumerate() {
        println!("{row}");
        if (i + 1) % params_all.len() == 0 {
            println!();
        }
    }
    println!("  (paper: overheads -0.7%..1.9%; savings shrink for larger models");
    println!("   because their bubbles are shorter)");

    header("Figure 7(e,f): time increase / dollar saving vs micro-batch count");
    println!("{:<10} {:>4} {:>8} {:>8}", "task", "mb", "I%", "S%");
    let mbs = [4usize, 6, 8];
    let jobs: Vec<_> = WorkloadKind::ALL
        .into_iter()
        .flat_map(|kind| mbs.into_iter().map(move |mb| (kind, mb)))
        .map(|(kind, mb)| {
            let cfg = cfg.clone();
            move || {
                let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b())
                    .with_micro_batches(mb)
                    .with_epochs(epochs);
                let baseline = run_baseline(&pipeline);
                let run = colocate(&pipeline, &cfg, &Submission::per_worker(kind, 4));
                let job = &run.jobs[0];
                let report = evaluate(baseline, job.total_time, &job.work());
                format!(
                    "{:<10} {:>4} {:>8.1} {:>8.1}",
                    kind.name(),
                    mb,
                    report.time_increase * 100.0,
                    report.cost_savings * 100.0
                )
            }
        })
        .collect();
    for (i, row) in sweep.run(jobs).into_iter().enumerate() {
        println!("{row}");
        if (i + 1) % mbs.len() == 0 {
            println!();
        }
    }
    println!("  (paper: savings decrease with micro-batch count - the bubble rate");
    println!("   drops from 42% to 26% - while the time increase stays ~1%)");
}
