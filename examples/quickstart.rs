//! Quickstart: train a 3.6B-parameter model with pipeline parallelism and
//! harvest its bubbles with PageRank side tasks through the `Cluster`
//! session API.
//!
//! Run: `cargo run --release --example quickstart`

use freeride::prelude::*;

fn main() {
    // 1. The primary workload: the paper's main setup — a 3.6B nanoGPT on
    //    four 48 GiB GPUs, 4 micro-batches per epoch.
    let pipeline = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(8);

    // 2. Configure a one-job cluster: FreeRide's iterative interface,
    //    fixed seed. The no-side-task baseline (vanilla DeepSpeed) is
    //    trained automatically for the cost report.
    let mut cluster = Cluster::builder()
        .job(
            ClusterJob::new(pipeline)
                .interface(InterfaceKind::Iterative)
                .seed(0xF1EE),
        )
        .build();

    // 3. Submit one PageRank side task per GPU; each handle resolves to
    //    the task's outcome after the run.
    let handles: Vec<ClusterTaskHandle> = Submission::per_worker(WorkloadKind::PageRank, 4)
        .into_iter()
        .map(|sub| cluster.submit(sub).expect("fits bubble memory"))
        .collect();

    // 4. Run training with bubble harvesting; the job's report carries
    //    the per-task outcomes and the cost metrics.
    let report = cluster.run().jobs.remove(0);
    println!("baseline training time: {}", report.baseline_time.unwrap());
    println!("with side tasks:        {}", report.total_time);

    // 5. The paper's metrics: time increase I and cost savings S.
    let cost = report.cost.expect("cost report enabled by default");
    println!();
    println!("time increase I = {:+.2}%", cost.time_increase * 100.0);
    println!("cost savings  S = {:+.2}%", cost.cost_savings * 100.0);
    println!(
        "side-task work: {} PageRank iterations across {} tasks",
        report.tasks.iter().map(|t| t.steps).sum::<u64>(),
        report.tasks.len()
    );
    for h in &handles {
        println!(
            "  task {} on stage {}: {} steps, {:?}",
            h.id(),
            h.worker().unwrap(),
            h.steps().unwrap(),
            h.stop_reason().unwrap()
        );
    }

    assert!(cost.time_increase < 0.02, "FreeRide overhead should be ~1%");
    assert!(cost.cost_savings > 0.0, "harvesting bubbles should pay");
    println!();
    println!("bubbles harvested with ~1% overhead — free rides taken.");
}
