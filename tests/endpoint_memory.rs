//! Endpoint state grows with traffic, not with capacity.
//!
//! A counting global allocator measures the bytes a compiled engine
//! keeps live after bring-up of mesh16×16 uniform-random, and the bytes
//! `results()` adds after a run. Receptor histograms store only the bins
//! they have counted and source queues allocate as descriptors arrive,
//! so neither figure is sized by the 64 + 128 nominal histogram bins or
//! the 16-descriptor queue bound of every endpoint.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use nocem::clock::SteppableEngine;
use nocem::compile::elaborate;
use nocem::config::TrafficModel;
use nocem::CompiledEngine;
use nocem_stats::histogram::Histogram;
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

#[test]
fn endpoint_state_is_sized_by_traffic_not_capacity() {
    // The benchmark's `setup_mesh16x16` platform: uniform-random at 2 %
    // load, budgets and the delivery stop removed.
    let mut cfg = uniform_random(mesh(16, 16), 0.02, 1_000);
    for g in &mut cfg.generators {
        if let TrafficModel::Uniform(u) = g {
            u.budget = None;
        }
    }
    cfg.stop.delivered_packets = None;
    cfg.stop.cycle_limit = u64::MAX;
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
