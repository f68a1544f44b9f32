//! Criterion bench: ablations over the design choices DESIGN.md calls
//! out — buffer depth, routing possibilities, arbitration policy and
//! source-queue bound.
//! The measured quantity is wall-clock per complete paper-platform run
//! (2 000 packets), which tracks how much congestion each choice
//! produces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nocem::config::{PaperConfig, PaperRouting, PlatformConfig};
use nocem::SteppableEngine;
use nocem_switch::arbiter::ArbiterKind;

const PACKETS: u64 = 2_000;

fn run(cfg: &PlatformConfig) -> u64 {
    let mut emu = nocem::engine::build(cfg).expect("compiles");
    emu.run().expect("runs");
    emu.now().raw()
}

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    for depth in [2u8, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("fifo_depth", depth),
            &depth,
            |b, &depth| {
                let mut cfg = PaperConfig::new().total_packets(PACKETS).burst(8);
                cfg.switch.fifo_depth = depth;
                b.iter(|| run(&cfg));
            },
        );
    }

    group.bench_function(BenchmarkId::new("routing", "single"), |b| {
        let cfg = PaperConfig::new().total_packets(PACKETS).burst(8);
        b.iter(|| run(&cfg));
    });
    group.bench_function(BenchmarkId::new("routing", "dual"), |b| {
        let cfg = PaperConfig::new()
            .total_packets(PACKETS)
            .routing(PaperRouting::Dual {
                secondary_probability: 0.5,
            })
            .burst(8);
        b.iter(|| run(&cfg));
    });

    for (label, kind) in [
        ("round_robin", ArbiterKind::RoundRobin),
        ("fixed_priority", ArbiterKind::FixedPriority),
    ] {
        group.bench_function(BenchmarkId::new("arbiter", label), |b| {
            let mut cfg = PaperConfig::new().total_packets(PACKETS).burst(8);
            cfg.switch.arbiter = kind;
            b.iter(|| run(&cfg));
        });
    }

    // Source-queue bound: smaller queues push burstiness back into the
    // generators (clock-gating stalls) instead of absorbing it.
    for capacity in [2usize, 8, 32] {
        group.bench_with_input(
            BenchmarkId::new("source_queue", capacity),
            &capacity,
            |b, &capacity| {
                let mut cfg = PaperConfig::new().total_packets(PACKETS).burst(16);
                cfg.source_queue_capacity = capacity;
                b.iter(|| run(&cfg));
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
