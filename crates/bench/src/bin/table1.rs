//! Table 1 — throughput of GPU side tasks on different platforms,
//! measured as iterations per second: harvested bubbles (iterative
//! interface) vs a dedicated Server-II (RTX 3080) vs Server-CPU.
//!
//! Absolute iterations/s are testbed-specific; the paper's headline is the
//! *ratios*: bubbles achieve 1.06–2.82× of the lower-tier GPU and
//! 7–59.9× of the CPU.
//!
//! Run: `cargo run --release -p freeride-bench --bin table1
//! [epochs] [--threads N]` — one simulation per workload, fanned across
//! threads; output is identical for any thread count.

#![forbid(unsafe_code)]

use freeride_bench::{colocate, header, main_pipeline, paper_table1, BenchArgs};
use freeride_core::Submission;
use freeride_tasks::WorkloadKind;

fn main() {
    let args = BenchArgs::parse();
    let pipeline = main_pipeline(args.epochs);

    header("Table 1: side-task throughput (steps/s) per platform");
    println!(
        "{:<10} {:>10} {:>10} {:>8} | {:>12} {:>10} | {:>12} {:>10}",
        "Side task", "bubbles", "Server-II", "CPU", "x Server-II", "(paper)", "x CPU", "(paper)"
    );

    let jobs: Vec<_> = WorkloadKind::ALL
        .into_iter()
        .map(|kind| {
            let pipeline = pipeline.clone();
            let cfg = args.configure(freeride_core::FreeRideConfig::iterative());
            move || {
                let run = colocate(&pipeline, &cfg, &Submission::per_worker(kind, 4));
                let thr_bubbles = run.total_steps() as f64 / run.makespan().as_secs_f64();
                let profile = kind.profile();
                let thr_s2 = profile.throughput_server2();
                let thr_cpu = profile.throughput_cpu();
                let (p_b, p_s2, p_cpu) = paper_table1(kind);
                format!(
                    "{:<10} {:>10.2} {:>10.2} {:>8.3} | {:>11.2}x {:>9.2}x | {:>11.1}x {:>9.1}x",
                    kind.name(),
                    thr_bubbles,
                    thr_s2,
                    thr_cpu,
                    thr_bubbles / thr_s2,
                    p_b / p_s2,
                    thr_bubbles / thr_cpu,
                    p_b / p_cpu,
                )
            }
        })
        .collect();
    for row in args.sweep().run(jobs) {
        println!("{row}");
    }
    println!();
    println!("  (absolute steps/s differ from the paper's units; the reproduction");
    println!("   target is the ratio columns: paper band 1.06-2.82x / 7-59.9x)");
}
