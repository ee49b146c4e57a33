//! Figure 9 — bubble time breakdown under the iterative interface: how
//! much of the total bubble time goes to side-task execution ("Running"),
//! FreeRide's own bookkeeping ("FreeRide runtime"), tails too short for
//! another step ("No side task: insufficient time"), and bubbles no task
//! fits into ("No side task: OOM").
//!
//! Run: `cargo run --release -p freeride-bench --bin figure9
//! [epochs] [--threads N]` — one simulation per row, fanned across
//! threads; output is identical for any thread count.

#![forbid(unsafe_code)]

use freeride_bench::{colocate, header, main_pipeline, BenchArgs};
use freeride_core::{FreeRideConfig, Submission};
use freeride_tasks::WorkloadKind;

fn main() {
    let args = BenchArgs::parse();
    let pipeline = main_pipeline(args.epochs);
    let cfg = args.configure(FreeRideConfig::iterative());

    header("Figure 9: bubble time breakdown (iterative interface)");
    println!(
        "{:<10} {:>9} {:>12} {:>14} {:>10}",
        "Side task", "Running", "FR runtime", "insufficient", "OOM"
    );

    let mut rows: Vec<(String, Vec<Submission>)> = WorkloadKind::ALL
        .iter()
        .map(|k| (k.name().to_string(), Submission::per_worker(*k, 4)))
        .collect();
    rows.push(("Mixed".to_string(), Submission::mixed()));

    let jobs: Vec<_> = rows
        .into_iter()
        .map(|(name, subs)| {
            let pipeline = pipeline.clone();
            let cfg = cfg.clone();
            move || {
                let run = colocate(&pipeline, &cfg, &subs);
                let f = run.jobs[0].breakdown.fractions();
                format!(
                    "{:<10} {:>8.1}% {:>11.1}% {:>13.1}% {:>9.1}%",
                    name,
                    f.running * 100.0,
                    f.runtime * 100.0,
                    f.insufficient * 100.0,
                    f.unused_oom * 100.0
                )
            }
        })
        .collect();
    for row in args.sweep().run(jobs) {
        println!("{row}");
    }
    println!();
    println!("  (paper: most bubble time with enough memory is used; VGG19 and");
    println!("   Image cannot use stages 0-1 (OOM); short-step tasks like");
    println!("   PageRank show a higher runtime share; long-step tasks show");
    println!("   more insufficient time)");
}
