//! Endpoint state grows with traffic, not with capacity.
//!
//! A counting global allocator measures the bytes a compiled engine
//! keeps live after bring-up of mesh16×16 uniform-random, and the bytes
//! `results()` adds after a run. Receptor histograms store only the bins
//! they have counted and source queues allocate as descriptors arrive,
//! so neither figure is sized by the 64 + 128 nominal histogram bins or
//! the 16-descriptor queue bound of every endpoint. Telemetry likewise
//! grows with the windows a run records, not with the ring's capacity.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nocem::clock::SteppableEngine;
use nocem::compile::elaborate;
use nocem::config::{PlatformConfig, TrafficModel};
use nocem::CompiledEngine;
use nocem_stats::histogram::Histogram;
use nocem_telemetry::TelemetryConfig;
use support::{mesh, uniform_random};

/// The system allocator, keeping a running total of live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by every test: the live-byte count is process-wide, so two
/// tests must not allocate at once.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Live bytes `f` leaves behind, with what it returns.
fn held_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let value = f();
    let after = LIVE.load(Ordering::Relaxed);
    (value, after.saturating_sub(before))
}

/// Bins up to and including the highest non-empty one.
fn counted_bins(h: &Histogram) -> usize {
    (0..h.bins())
        .rev()
        .find(|&i| h.bin_count(i) > 0)
        .map_or(0, |top| top + 1)
}

/// The benchmark's `setup_mesh16x16` platform: uniform-random at 2 %
/// load, budgets and the delivery stop removed.
fn mesh16x16() -> PlatformConfig {
    let mut cfg = uniform_random(mesh(16, 16), 0.02, 1_000);
    for g in &mut cfg.generators {
        if let TrafficModel::Uniform(u) = g {
            u.budget = None;
        }
    }
    cfg.stop.delivered_packets = None;
    cfg.stop.cycle_limit = u64::MAX;
    cfg
}

#[test]
fn endpoint_state_is_sized_by_traffic_not_capacity() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = mesh16x16();
    let endpoints = cfg.topology.receptors().len();
    assert_eq!(endpoints, 256);

    let (mut engine, brought_up) =
        held_by(|| CompiledEngine::new(elaborate(&cfg).expect("the platform elaborates")));
    assert!(
        brought_up <= endpoints * 1536,
        "bring-up holds {brought_up} B: over 1.5 KB per endpoint"
    );
    let (_, empty) = held_by(|| engine.results());
    assert!(
        empty <= endpoints * 512,
        "results() at bring-up adds {empty} B: over 0.5 KB per receptor"
    );

    // After a run, results() copies the bins the receptors have counted
    // and nothing more.
    for _ in 0..6_000 {
        engine.step().expect("the run steps");
    }
    let (results, collected) = held_by(|| engine.results());
    assert!(results.delivered > 0);
    let counted: usize = (results.receptors.iter())
        .flat_map(|r| [&r.length_histogram, &r.interarrival_histogram])
        .flatten()
        .map(counted_bins)
        .sum();
    assert!(
        collected <= empty + counted * 8,
        "results() after the run adds {collected} B: over {empty} B and {counted} counted bins"
    );
}

#[test]
fn telemetry_is_sized_by_the_windows_recorded() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let plain = mesh16x16();
    let mut cfg = plain.clone();
    cfg.telemetry = Some(TelemetryConfig::windowed(1024));
    let links = cfg.topology.link_count();
    assert_eq!(links, 1472);
    let build = |cfg: &PlatformConfig| {
        held_by(|| CompiledEngine::new(elaborate(cfg).expect("the platform elaborates")))
    };
    let (mut without, plain_up) = build(&plain);
    let (mut with, brought_up) = build(&cfg);
    let bring_up = brought_up.saturating_sub(plain_up);
    assert!(
        bring_up <= links * 24,
        "the collector holds {bring_up} B at bring-up: over 24 B per link"
    );

    // Both engines run the same cycles and allocate their views; what
    // the second holds beyond the first is its collector.
    let windows = 4;
    let run = |engine: &mut CompiledEngine| {
        held_by(|| {
            for _ in 0..=windows * 1024 {
                engine.step().expect("the run steps");
            }
            engine.arch_view().links
        })
        .1
    };
    let (plain_grew, grew) = (run(&mut without), run(&mut with));
    let recorded = with.telemetry().expect("telemetry on").windows_recorded();
    assert_eq!(recorded, windows);
    let row = (2 * links + 1) * 8;
    let held = bring_up + grew.saturating_sub(plain_grew);
    assert!(
        held <= links * 24 + windows as usize * row,
        "the collector holds {held} B after {windows} windows of {row} B"
    );
}
