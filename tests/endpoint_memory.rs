//! Endpoint state grows with traffic, not with capacity, results are
//! read in place, and a run's steady state costs neither an allocation
//! per cycle nor more than a few bits per packet.
//!
//! A counting global allocator measures the bytes a compiled engine
//! keeps live after bring-up of mesh16×16 uniform-random (1 297 B per
//! endpoint), the view rows its first `results()` fills and keeps, and
//! the bytes the returned results hold. Receptor histograms store only
//! the bins they have counted and source queues allocate as descriptors
//! arrive, so no figure is sized by the 64 + 128 nominal histogram bins
//! or the 16-descriptor queue bound of every endpoint; the results
//! share the receptors' histograms, so they hold no bin at all. After
//! 6 000 cycles the receptors have counted 23 667 bins. Replayed from
//! the lowest bin up, 32-bit bins grown by blocks of 16 hold them in
//! 1 787 blocks of 64 B (114 368 B) and take 1 609 allocations; 64-bit
//! bins grown one at a time held 189 336 B and took 5 877. Telemetry
//! likewise grows with the windows a run records, not with the ring's
//! capacity. On `sat_mesh8x8`'s platform `Emulation` makes 8 allocations
//! in 4 000 warm cycles, `TlmEngine` and `RtlEngine` 7 each in 1 000,
//! and after 20 000 cycles the ledger archive holds 2.05 B per delivered
//! packet.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use nocem::clock::SteppableEngine;
use nocem::compile::elaborate;
use nocem::config::{PlatformConfig, TrafficModel};
use nocem::{ArchView, CompiledEngine, Emulation};
use nocem_rtl::RtlEngine;
use nocem_stats::histogram::Histogram;
use nocem_telemetry::TelemetryConfig;
use nocem_tlm::TlmEngine;
use support::{mesh, uniform_random};

/// The system allocator, keeping a running total of live bytes and a
/// count of the calls that allocate or reallocate.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// Allocating calls `f` makes, with what it returns.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let value = f();
    (value, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// A fresh histogram of `h`'s geometry counting `h`'s bins, recorded
/// bin by bin from the lowest up: the order in which a prefix grown one
/// bin at a time would reallocate at every new bin.
fn replay(h: &Histogram) -> Histogram {
    let mut copy = Histogram::new(h.bins(), h.bin_width());
    for (edge, count) in h.iter() {
        for _ in 0..count {
            copy.record(edge);
        }
    }
    copy
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
    open_loop(16, 0.02)
}

/// Uniform-random four-flit packets on a `side` × `side` mesh at
/// `load`, budgets and the delivery stop removed, as the benchmark's
/// stepping workloads run it.
fn open_loop(side: u32, load: f64) -> PlatformConfig {
    let mut cfg = uniform_random(mesh(side, side), load, 1_000);
    for g in &mut cfg.generators {
        if let TrafficModel::Uniform(u) = g {
            u.budget = None;
        }
    }
    cfg.stop.delivered_packets = None;
    cfg.stop.cycle_limit = u64::MAX;
    cfg
}

/// The bytes of a filled view's live half: its rows per output port,
/// input VC, output VC, (switch, VC), NI and receptor.
fn live_half(view: &ArchView) -> usize {
    use std::mem::size_of_val;
    size_of_val(&view.ports[..])
        + size_of_val(&view.inputs[..])
        + size_of_val(&view.credits[..])
        + size_of_val(&view.watermarks[..])
        + size_of_val(&view.nis[..])
        + size_of_val(&view.receptors[..])
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
        brought_up <= endpoints * 1344,
        "bring-up holds {brought_up} B: over 1 344 B per endpoint"
    );

    // The first read fills the engine's own view and keeps its live
    // half for the next; a second read allocates nothing in the engine.
    let (_, kept) = held_by(|| drop(engine.results()));
    let rows = live_half(engine.arch_view());
    assert!(
        kept <= rows,
        "results() keeps {kept} B in the engine: over the view's {rows} B of live rows"
    );
    let (_, again) = held_by(|| drop(engine.results()));
    assert_eq!(again, 0, "a repeated results() grows the engine");
    let (results, empty) = held_by(|| engine.results());
    assert!(
        empty <= endpoints * 512,
        "results() at bring-up holds {empty} B: over 0.5 KB per receptor"
    );
    drop(results);

    // After a run the results share the bins the receptors have
    // counted: they hold no more than at bring-up.
    for _ in 0..6_000 {
        engine.step().expect("the run steps");
    }
    let (results, collected) = held_by(|| engine.results());
    assert!(results.delivered > 0);
    let histograms: Vec<&Histogram> = (results.receptors.iter())
        .flat_map(|r| [&r.length_histogram, &r.interarrival_histogram])
        .flatten()
        .map(|h| &**h)
        .collect();
    let counted: usize = histograms.iter().map(|h| counted_bins(h)).sum();
    assert!(counted > 0);
    assert!(
        collected <= empty,
        "results() after the run holds {collected} B: over its {empty} B at bring-up, \
         with {counted} counted bins"
    );

    // The receptors' bins are 32-bit and their storage grows by blocks
    // of 16 bins, which every nominal bin count here divides.
    let blocks: usize = histograms
        .iter()
        .map(|h| counted_bins(h).div_ceil(16))
        .sum();
    for h in &histograms {
        let allowed = counted_bins(h).next_multiple_of(16);
        assert!(
            h.allocated_bins() <= allowed,
            "{h:?} holds room for over {allowed} bins"
        );
    }
    // Replayed into fresh histograms from the lowest bin up, they hold
    // 4 B per counted bin, each histogram's last block rounded up, and
    // allocate once per block, not once per bin.
    let mut replayed = Vec::with_capacity(histograms.len());
    let ((_, held), allocations) =
        allocations_in(|| held_by(|| replayed.extend(histograms.iter().map(|h| replay(h)))));
    assert!(replayed
        .iter()
        .zip(&histograms)
        .all(|(r, h)| r.iter().eq(h.iter())));
    assert!(
        held <= blocks * 16 * 4,
        "{counted} counted bins in {blocks} blocks of 16 hold {held} B: over 4 B per bin"
    );
    assert!(
        allocations <= blocks,
        "{counted} counted bins in {blocks} blocks of 16 take {allocations} allocations"
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

/// `Emulation` on `sat_mesh8x8`'s platform (mesh8×8 at 40 % load)
/// allocates less than once per cycle once warm: each switch fills the
/// engine's one transfer buffer instead of returning a new vector. It
/// reads 8 allocations over the 4 000 cycles measured; a vector per
/// forwarding switch took about 57 a cycle.
#[test]
fn emulation_allocates_less_than_once_per_cycle() {
    const WARM: usize = 2_000;
    const MEASURED: usize = 4_000;
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = open_loop(8, 0.40);
    let mut engine = Emulation::new(elaborate(&cfg).expect("the platform elaborates"));
    let mut run = |cycles| {
        for _ in 0..cycles {
            engine.step().expect("the run steps");
        }
    };
    run(WARM);
    let (_, allocations) = allocations_in(|| run(MEASURED));
    assert!(
        allocations < MEASURED,
        "{allocations} allocations in {MEASURED} cycles"
    );
}

/// The process model under `TlmEngine` and `RtlEngine`, on
/// `sat_mesh8x8`'s platform, allocates at most 7 times over 1 000 warm
/// cycles on each: each switch process refills a buffer of output flits
/// of its own every clock, and the RTL kernel swaps two write queues
/// and keeps one wake list across its delta cycles. A vector of output
/// flits per switch and clock, and the kernel's per-delta vectors, took
/// 64 007 allocations on TLM and 76 964 on RTL.
#[test]
fn process_models_allocate_less_than_once_per_cycle() {
    const WARM: usize = 1_000;
    const MEASURED: usize = 1_000;
    const TLM_WARM: usize = 7;
    const RTL_WARM: usize = 7;
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = open_loop(8, 0.40);
    fn warm_allocations(engine: &mut dyn SteppableEngine) -> usize {
        let mut run = |cycles| {
            for _ in 0..cycles {
                engine.step().expect("the run steps");
            }
        };
        run(WARM);
        allocations_in(|| run(MEASURED)).1
    }
    let elab = || elaborate(&cfg).expect("the platform elaborates");
    let tlm = warm_allocations(&mut TlmEngine::new(elab()));
    let rtl = warm_allocations(&mut RtlEngine::new(elab()));
    assert!(
        tlm <= TLM_WARM && rtl <= RTL_WARM,
        "{tlm} allocations on TLM and {rtl} on RTL in {MEASURED} cycles"
    );
}

/// The ledger archive of `sat_mesh8x8`'s platform, shortened to 20 000
/// cycles, costs at most 16.8 bits per delivered packet: it reads
/// 2.05 B (16.4 bits) over 94 309 packets. A length bit on every row
/// and Rice parameters one higher cost 2.27 B.
#[test]
fn ledger_archive_costs_at_most_16_8_bits_per_packet() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = open_loop(8, 0.40);
    let mut engine = CompiledEngine::new(elaborate(&cfg).expect("the platform elaborates"));
    for _ in 0..20_000 {
        engine.step().expect("the run steps");
    }
    let ledger = engine.ledger();
    let (bytes, delivered) = (ledger.archive_bytes() as u64, ledger.delivered());
    assert!(delivered > 90_000, "{delivered} packets delivered");
    assert!(
        10 * 8 * bytes <= 168 * delivered,
        "{bytes} B archived for {delivered} packets"
    );
}
