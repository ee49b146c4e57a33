//! The paper's flagship scenario: a long LLM pipeline-training job serving
//! a *mixed* bag of side tasks — graph analytics on stage 0's tight
//! bubbles, model training on stage 1, image processing and VGG19 training
//! on the roomy late-stage bubbles — compared against both co-location
//! baselines.
//!
//! Run: `cargo run --release --example llm_training_with_side_tasks`

use freeride::prelude::*;

fn main() {
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(16);
    let baseline = run_baseline(&pipeline);
    println!("3.6B nanoGPT, 4 stages, 16 epochs; baseline {baseline}");
    println!();

    let methods: Vec<(&str, FreeRideConfig)> = vec![
        ("FreeRide (iterative)", FreeRideConfig::iterative()),
        ("FreeRide (imperative)", FreeRideConfig::imperative()),
        ("CUDA MPS co-location", FreeRideConfig::mps_baseline()),
        ("naive co-location", FreeRideConfig::naive_baseline()),
    ];

    // Each method is a one-job cluster with the mixed workload submitted
    // up front; the manager places each task by Algorithm 1.
    let colocate = |cfg: &FreeRideConfig| {
        let mut cluster = Cluster::builder()
            .job(ClusterJob::new(pipeline.clone()).config(cfg.clone()))
            .cost_report(false)
            .build();
        for sub in Submission::mixed() {
            cluster.submit(sub).expect("the mixed workload fits");
        }
        cluster.run().jobs.remove(0)
    };

    println!(
        "{:<24} {:>10} {:>10} {:>12} {:>14}",
        "method", "I", "S", "extra cost", "side value"
    );
    for (name, cfg) in methods {
        let run = colocate(&cfg);
        let report = evaluate(baseline, run.total_time, &run.work());
        println!(
            "{:<24} {:>9.1}% {:>9.1}% {:>11}$ {:>13}$",
            name,
            report.time_increase * 100.0,
            report.cost_savings * 100.0,
            format!("{:.4}", report.extra_cost),
            format!("{:.4}", report.side_task_value),
        );
    }

    println!();
    println!("placement chosen by the manager (Algorithm 1):");
    let run = colocate(&FreeRideConfig::iterative());
    for t in &run.tasks {
        println!(
            "  {:<10} -> stage {} (bubble memory {}), {} steps, ended {:?}",
            t.kind.name(),
            t.worker,
            pipeline.stage_free_memory(t.worker),
            t.steps,
            t.stop_reason
        );
    }

    println!();
    let f = run.breakdown.fractions();
    println!(
        "bubble usage: {:.0}% running, {:.0}% runtime, {:.0}% insufficient, {:.0}% unusable",
        f.running * 100.0,
        f.runtime * 100.0,
        f.insufficient * 100.0,
        f.unused_oom * 100.0
    );
}
