//! Property-based tests for the shared vocabulary: flit serialization,
//! the hardware-style PRNGs, the time formatting helpers and the JSON
//! writer's escaping.

use nocem_common::choice::check;
use nocem_common::flit::{FlitKind, PacketDescriptor};
use nocem_common::ids::{EndpointId, FlowId, PacketId};
use nocem_common::json::{validate_json, JsonWriter};
use nocem_common::rng::{Lfsr16, Lfsr32, Pcg32, RandomSource, SplitMix64};
use nocem_common::time::{format_duration, Cycle};
use nocem_common::{prop_assert, prop_assert_eq, prop_assert_ne};

fn descriptor(id: u64, len: u16) -> PacketDescriptor {
    PacketDescriptor {
        id: PacketId::new(id),
        src: EndpointId::new(0),
        dst: EndpointId::new(1),
        flow: FlowId::new(0),
        len_flits: len,
        release: Cycle::ZERO,
    }
}

/// Serialization of any packet yields exactly `len` flits, with
/// the wormhole framing the switches rely on: a single Single
/// flit, or Head..Body..Tail with monotonically increasing `seq`.
#[test]
fn packet_serialization_framing() {
    check("packet_serialization_framing", 0..128, |c| {
        let (id, len) = (c.range(0u64..1_000_000), c.range(1u16..500));
        let flits: Vec<_> = descriptor(id, len).flits().collect();
        prop_assert_eq!(flits.len(), usize::from(len));
        if len == 1 {
            prop_assert_eq!(flits[0].kind, FlitKind::Single);
        } else {
            prop_assert_eq!(flits[0].kind, FlitKind::Head);
            prop_assert_eq!(flits[len as usize - 1].kind, FlitKind::Tail);
            for f in &flits[1..len as usize - 1] {
                prop_assert_eq!(f.kind, FlitKind::Body);
            }
        }
        for (i, f) in flits.iter().enumerate() {
            prop_assert_eq!(usize::from(f.seq), i);
            prop_assert!(f.payload_is_valid(), "flit {} corrupt", i);
            prop_assert_eq!(f.packet, PacketId::new(id));
        }
        // Exactly one head-carrying and one tail-carrying flit.
        prop_assert_eq!(flits.iter().filter(|f| f.kind.is_head()).count(), 1);
        prop_assert_eq!(flits.iter().filter(|f| f.kind.is_tail()).count(), 1);
        Ok(())
    });
}

/// The flit iterator reports an exact length at every point.
#[test]
fn flit_iterator_len_is_exact() {
    check("flit_iterator_len_is_exact", 0..128, |c| {
        let len = c.range(1u16..100);
        let mut it = descriptor(7, len).flits();
        for remaining in (1..=usize::from(len)).rev() {
            prop_assert_eq!(it.len(), remaining);
            prop_assert!(it.next().is_some());
        }
        prop_assert_eq!(it.len(), 0);
        prop_assert!(it.next().is_none());
        Ok(())
    });
}

/// Corrupting the payload of any flit is detected.
#[test]
fn payload_corruption_is_detected() {
    check("payload_corruption_is_detected", 0..128, |c| {
        let (id, len, bit) = (c.range(0u64..100_000), c.range(1u16..64), c.range(0u32..32));
        let mut flits: Vec<_> = descriptor(id, len).flits().collect();
        let victim = (id as usize) % flits.len();
        flits[victim].payload ^= 1 << bit;
        prop_assert!(!flits[victim].payload_is_valid());
        Ok(())
    });
}

/// A maximal-length LFSR never reaches the all-zero lock-up state
/// from a nonzero seed, and is deterministic per seed.
#[test]
fn lfsr16_stays_nonzero_and_deterministic() {
    check("lfsr16_stays_nonzero_and_deterministic", 0..128, |c| {
        let seed = c.range(1u16..=u16::MAX);
        let mut a = Lfsr16::new(seed);
        let mut b = Lfsr16::new(seed);
        for _ in 0..1_000 {
            let x = a.step();
            prop_assert_eq!(x, b.step());
            prop_assert_ne!(x, 0, "LFSR locked up");
        }
        Ok(())
    });
}

/// Same for the 32-bit variant.
#[test]
fn lfsr32_stays_nonzero_and_deterministic() {
    check("lfsr32_stays_nonzero_and_deterministic", 0..128, |c| {
        let seed = c.range(1u32..=u32::MAX);
        let mut a = Lfsr32::new(seed);
        let mut b = Lfsr32::new(seed);
        for _ in 0..1_000 {
            let x = a.step();
            prop_assert_eq!(x, b.step());
            prop_assert_ne!(x, 0);
        }
        Ok(())
    });
}

/// `below` always respects its bound, for any generator state.
#[test]
fn pcg_below_respects_bound() {
    check("pcg_below_respects_bound", 0..128, |c| {
        let (seed, bound, draws) = (c.word(), c.range(1u32..=u32::MAX), c.range(1usize..50));
        let mut rng = Pcg32::seeded(seed);
        for _ in 0..draws {
            prop_assert!(rng.below(bound) < bound);
        }
        Ok(())
    });
}

/// `in_range` is inclusive on both ends and never escapes.
#[test]
fn pcg_in_range_is_inclusive() {
    check("pcg_in_range_is_inclusive", 0..128, |c| {
        let (seed, lo, width) = (c.word(), c.range(0u32..1000), c.range(0u32..1000));
        let hi = lo + width;
        let mut rng = Pcg32::seeded(seed);
        for _ in 0..50 {
            let v = rng.in_range(lo, hi);
            prop_assert!(v >= lo && v <= hi);
        }
        Ok(())
    });
}

/// Probability edge cases are exact, not approximate.
#[test]
fn chance_edges_are_exact() {
    check("chance_edges_are_exact", 0..128, |c| {
        let seed = c.word();
        let mut rng = Pcg32::seeded(seed);
        for _ in 0..100 {
            prop_assert!(!rng.chance(0.0));
            prop_assert!(rng.chance(1.0));
        }
        prop_assert_eq!(rng.geometric(1.0), 0);
        prop_assert_eq!(rng.geometric(0.0), u32::MAX);
        Ok(())
    });
}

/// Geometric sampling has (approximately) the right mean: the
/// number of failures before a success of Bernoulli(p) averages
/// `(1-p)/p`.
#[test]
fn geometric_mean_matches() {
    check("geometric_mean_matches", 0..128, |c| {
        let seed = c.word();
        let p = 0.25;
        let mut rng = Pcg32::seeded(seed);
        let n = 4_000;
        let sum: u64 = (0..n).map(|_| u64::from(rng.geometric(p))).sum();
        let mean = sum as f64 / f64::from(n);
        let expect = (1.0 - p) / p; // 3.0
        prop_assert!((mean - expect).abs() < 0.5, "mean {mean}");
        Ok(())
    });
}

/// SplitMix64 streams with different seeds diverge immediately
/// (used to derive per-device seeds from the platform seed).
#[test]
fn splitmix_streams_diverge() {
    check("splitmix_streams_diverge", 0..128, |c| {
        let seed = c.word();
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed ^ 1);
        prop_assert_ne!(a.next(), b.next());
        Ok(())
    });
}

/// Duration formatting is total: every finite non-negative input
/// renders to a non-empty string with a recognized unit.
#[test]
fn duration_formatting_is_total() {
    check("duration_formatting_is_total", 0..128, |c| {
        let secs = c.range(0.0f64..1e9);
        let s = format_duration(secs);
        prop_assert!(!s.is_empty());
        prop_assert!(
            s.contains("sec") || s.contains('\'') || s.contains('h') || s.contains("day"),
            "unrecognized format {s:?}"
        );
        Ok(())
    });
}

/// Cycle arithmetic: `since` is the saturating inverse of `+`.
#[test]
fn cycle_since_inverts_add() {
    check("cycle_since_inverts_add", 0..128, |c| {
        let (base, delta) = (c.range(0u64..1_000_000_000), c.range(0u64..1_000_000));
        let t0 = Cycle::new(base);
        let t1 = t0 + delta;
        prop_assert_eq!(t1.since(t0), delta);
        prop_assert_eq!(t0.since(t1), 0, "since saturates backwards");
        prop_assert_eq!(t1 - t0, delta);
        Ok(())
    });
}

/// Any string, as a key or as a value, is written as valid JSON:
/// every quote, backslash and control byte is escaped.
#[test]
fn any_string_writes_valid_json() {
    check("any_string_writes_valid_json", 0..128, |c| {
        let codes = c.vec(0..24, |c| c.range(0u32..0x300));
        let s: String = codes.into_iter().filter_map(char::from_u32).collect();
        let mut w = JsonWriter::new();
        w.object(|w| _ = w.field(&s, s.as_str()));
        let json = w.finish();
        prop_assert!(validate_json(&json).is_ok(), "{:?} as {}", s, json);
        Ok(())
    });
}

/// The 16-bit LFSR with maximal taps has period 2^16 - 1: it visits
/// every nonzero state exactly once.
#[test]
fn lfsr16_has_maximal_period() {
    let mut lfsr = Lfsr16::new(1);
    let mut seen = vec![false; 1 << 16];
    for _ in 0..(1u32 << 16) - 1 {
        let v = lfsr.step();
        assert!(!seen[usize::from(v)], "state {v:#06x} repeated early");
        seen[usize::from(v)] = true;
    }
    assert!(!seen[0], "zero state must be unreachable");
    assert_eq!(seen.iter().filter(|&&s| s).count(), (1 << 16) - 1);
}
