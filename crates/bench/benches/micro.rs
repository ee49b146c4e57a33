//! Criterion micro-benchmarks of the reproduction's hot paths: the event
//! queue, the GPU device fluid model, schedule construction, the manager's
//! Algorithms 1 & 2, each real side-task step, and a full simulated
//! training epoch with and without FreeRide.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use freeride_bench::colocate;
use freeride_core::{FreeRideConfig, SideTaskManager, Submission, TaskId};
use freeride_gpu::{GpuDevice, GpuId, KernelSpec, MemBytes, MpsPrioritized, Priority};
use freeride_pipeline::{run_training, ModelSpec, PipelineConfig, Schedule, ScheduleKind};
use freeride_sim::{DetRng, EventQueue, SimDuration, SimTime};
use freeride_tasks::{CsrGraph, ImagePipeline, NnTraining, PageRank, WorkloadKind};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue push+pop 1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.push(SimTime::from_nanos((i * 7919) % 100_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
    // The slot/generation scheme's stress case: half of all scheduled
    // events are cancelled, so pops must purge tombstone runs while slots
    // recycle.
    c.bench_function("sim/event_queue 50% cancellations 1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut ids = Vec::with_capacity(1000);
            for i in 0..1000u64 {
                ids.push(q.push(SimTime::from_nanos((i * 7919) % 100_000), i));
            }
            for id in ids.iter().skip(1).step_by(2) {
                q.cancel(*id);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box((acc, q.len()))
        })
    });
}

fn bench_device(c: &mut Criterion) {
    c.bench_function("gpu/device co-run advance", |b| {
        b.iter(|| {
            let mut d = GpuDevice::new(
                GpuId(0),
                MemBytes::from_gib(48),
                Box::new(MpsPrioritized::default()),
            );
            let train = d.register_process("t", Priority::High, None);
            let side = d.register_process("s", Priority::Low, None);
            let mut now = SimTime::ZERO;
            for _ in 0..50 {
                d.launch(
                    now,
                    KernelSpec::new(
                        train,
                        SimDuration::from_millis(10),
                        1.0,
                        Priority::High,
                        "fp",
                    ),
                )
                .unwrap();
                d.launch(
                    now,
                    KernelSpec::new(side, SimDuration::from_millis(3), 0.5, Priority::Low, "s"),
                )
                .unwrap();
                now = d.next_completion_time().unwrap();
                let done = d.advance_through(now);
                black_box(done.len());
                now = d.next_completion_time().map(|t| t.max(now)).unwrap_or(now);
                let done = d.advance_through(now);
                black_box(done.len());
            }
        })
    });
}

fn bench_schedule(c: &mut Criterion) {
    c.bench_function("pipeline/schedule 1f1b 8x32", |b| {
        b.iter(|| {
            let s = Schedule::one_f_one_b(8, 32);
            black_box(s.stage_plan(0).len())
        })
    });
}

fn bench_manager(c: &mut Criterion) {
    c.bench_function("core/manager submit+poll", |b| {
        b.iter(|| {
            let mut m = SideTaskManager::new(vec![MemBytes::from_gib(10); 4]);
            for i in 0..16u64 {
                let _ = m.submit(TaskId(i), MemBytes::from_gib(2));
            }
            for t in 0..100u64 {
                black_box(m.poll(SimTime::from_millis(t)).len());
            }
        })
    });
    // The management tick with a reused caller-owned buffer: 8 workers,
    // 16 queued tasks each, polled across many ticks — the orchestrator's
    // steady-state shape, now allocation-free.
    c.bench_function("core/manager poll_into 8 workers deep queues", |b| {
        let mut m = SideTaskManager::new(vec![MemBytes::from_gib(24); 8]);
        for i in 0..128u64 {
            let _ = m.submit(TaskId(i), MemBytes::from_gib(1));
        }
        let mut buf = Vec::new();
        b.iter(|| {
            for t in 0..100u64 {
                buf.clear();
                m.poll_into(SimTime::from_millis(t), &mut buf);
                black_box(buf.len());
            }
        })
    });
}

fn bench_workload_steps(c: &mut Criterion) {
    c.bench_function("tasks/nn train_step", |b| {
        let mut nn = NnTraining::new(8, &[32, 16], 32, 1);
        b.iter(|| black_box(nn.train_step()))
    });
    c.bench_function("tasks/pagerank step 1k nodes", |b| {
        let mut rng = DetRng::seed_from_u64(1);
        let g = CsrGraph::power_law(1000, 4, &mut rng);
        let mut pr = PageRank::new(g);
        b.iter(|| black_box(pr.step()))
    });
    c.bench_function("tasks/image step 96x96", |b| {
        let mut p = ImagePipeline::new(96, 96, 1);
        b.iter(|| black_box(p.step()))
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let cfg = PipelineConfig::paper_default(ModelSpec::nanogpt_3_6b()).with_epochs(2);
    // Full-epoch events/sec, from the counter the orchestrator now
    // surfaces (`Simulation::events_processed` → `events_processed` on the
    // run): the single-run hot-path metric tracked in BENCH.json.
    {
        // freeride: allow(no-wall-clock) -- bench harness measures real wall time; never feeds back into sim state
        let start = std::time::Instant::now();
        let run = colocate(
            &cfg,
            &FreeRideConfig::iterative(),
            &Submission::per_worker(WorkloadKind::PageRank, 4),
        );
        let wall = start.elapsed().as_secs_f64();
        println!(
            "e2e: 2-epoch freeride run processed {} events in {:.3}s ({:.0} events/sec)",
            run.events_processed,
            wall,
            run.events_processed as f64 / wall
        );
    }
    let mut group = c.benchmark_group("e2e");
    group.sample_size(10);
    group.bench_function("train 2 epochs (no side tasks)", |b| {
        b.iter(|| black_box(run_training(&cfg, ScheduleKind::OneFOneB).total_time))
    });
    group.bench_function("train 2 epochs + pagerank (freeride)", |b| {
        b.iter(|| {
            let run = colocate(
                &cfg,
                &FreeRideConfig::iterative(),
                &Submission::per_worker(WorkloadKind::PageRank, 4),
            );
            black_box(run.events_processed)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_device,
    bench_schedule,
    bench_manager,
    bench_workload_steps,
    bench_end_to_end
);
criterion_main!(benches);
