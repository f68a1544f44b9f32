//! Criterion bench: cycles-per-second of the three engines on the
//! paper platform (the measurement behind Table 2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nocem::SteppableEngine;
use nocem_bench::endless_paper_config;
use nocem_rtl::model::RtlEngine;
use nocem_tlm::model::TlmEngine;

const CYCLES_PER_ITER: u64 = 10_000;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group.throughput(Throughput::Elements(CYCLES_PER_ITER));
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("emulation", "paper"), |b| {
        let mut emu = nocem::engine::build(&endless_paper_config()).expect("compiles");
        b.iter(|| {
            for _ in 0..CYCLES_PER_ITER {
                emu.step().expect("step");
            }
        });
    });

    group.bench_function(BenchmarkId::new("tlm", "paper"), |b| {
        let elab = nocem::compile::elaborate(&endless_paper_config()).expect("compiles");
        let mut engine = TlmEngine::new(elab);
        b.iter(|| {
            for _ in 0..CYCLES_PER_ITER {
                engine.step().expect("step");
            }
        });
    });

    group.bench_function(BenchmarkId::new("rtl", "paper"), |b| {
        let elab = nocem::compile::elaborate(&endless_paper_config()).expect("compiles");
        let mut engine = RtlEngine::new(elab);
        b.iter(|| {
            for _ in 0..CYCLES_PER_ITER {
                engine.step().expect("step");
            }
        });
    });

    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
