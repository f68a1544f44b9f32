//! Property-based tests of the traffic substrate: the `with_load`
//! constructors invert the offered-load formula across their whole
//! domain, trace text round-trips, replay generators respect their
//! events, the network interface conserves flits, and a destination
//! model that names a row of a flow set draws what the list of that
//! row's options draws.

use nocem_common::choice::check;
use nocem_common::flit::PacketDescriptor;
use nocem_common::flows::{AllButSelf, Row};
use nocem_common::ids::{EndpointId, FlowId, PacketId};
use nocem_common::rng::Pcg32;
use nocem_common::time::Cycle;
use nocem_common::{prop_assert, prop_assert_eq};
use nocem_traffic::generator::{DestinationModel, HotRow, TrafficGenerator};
use nocem_traffic::ni::SourceNi;
use nocem_traffic::stochastic::{BurstConfig, PoissonConfig, StochasticTg, UniformConfig};
use nocem_traffic::trace::{synthesize_bursty, BurstyTraceSpec, Trace, TraceDrivenTg, TraceEvent};

fn dst() -> DestinationModel {
    DestinationModel::Fixed {
        dst: EndpointId::new(1),
        flow: FlowId::new(0),
    }
}

/// Measures the offered load of a generator over a long horizon.
fn measured_load(tg: &mut dyn TrafficGenerator, horizon: u64) -> f64 {
    let mut flits = 0u64;
    for t in 0..horizon {
        if let Some(req) = tg.tick(Cycle::new(t)) {
            flits += u64::from(req.len_flits);
        }
    }
    flits as f64 / horizon as f64
}

/// `UniformConfig::with_load` produces the requested load for any
/// (load, length) combination, measured over a long run.
#[test]
fn uniform_with_load_inverts() {
    check("uniform_with_load_inverts", 0..16, |c| {
        let (load, len, seed) = (c.range(0.05f64..0.95), c.range(1u16..32), c.word());
        let cfg = UniformConfig::with_load(load, len, None, dst());
        let mut tg = StochasticTg::uniform(cfg.clone(), seed);
        let measured = measured_load(&mut tg, 300_000);
        // The gap range is integer-quantized, so short packets at high
        // load carry more relative rounding error.
        let tolerance = (0.05 + 0.5 / f64::from(len)).min(0.15);
        prop_assert!(
            (measured - load).abs() < tolerance,
            "target {load:.3}, measured {measured:.3} (len {len})"
        );
        // The analytic helper agrees with itself.
        prop_assert!((cfg.offered_load() - load).abs() < tolerance);
        Ok(())
    });
}

/// Same inversion for the burst model, at any mean burst length.
#[test]
fn burst_with_load_inverts() {
    check("burst_with_load_inverts", 0..16, |c| {
        let (load, burst, len) = (c.range(0.05f64..0.85), c.range(1u32..32), c.range(1u16..16));
        let seed = c.word();
        let cfg = BurstConfig::with_load(load, burst, len, None, dst());
        let mut tg = StochasticTg::burst(cfg.clone(), seed);
        let measured = measured_load(&mut tg, 400_000);
        prop_assert!(
            (measured - load).abs() < 0.08,
            "target {load:.3}, measured {measured:.3} (burst {burst}, len {len})"
        );
        prop_assert!((cfg.mean_burst_packets() - f64::from(burst)).abs() < 1e-9);
        Ok(())
    });
}

/// Same inversion for the Poisson model.
#[test]
fn poisson_with_load_inverts() {
    check("poisson_with_load_inverts", 0..16, |c| {
        let (load, len, seed) = (c.range(0.05f64..0.85), c.range(1u16..16), c.word());
        let cfg = PoissonConfig::with_load(load, len, None, dst());
        let mut tg = StochasticTg::poisson(cfg, seed);
        let measured = measured_load(&mut tg, 300_000);
        prop_assert!(
            (measured - load).abs() < 0.05,
            "target {load:.3}, measured {measured:.3}"
        );
        Ok(())
    });
}

/// A generator with a budget releases exactly the budget, then
/// reports exhaustion forever.
#[test]
fn budget_is_exact() {
    check("budget_is_exact", 0..16, |c| {
        let (budget, seed) = (c.range(1u64..200), c.word());
        let cfg = BurstConfig::with_load(0.5, 4, 4, Some(budget), dst());
        let mut tg = StochasticTg::burst(cfg, seed);
        let mut released = 0u64;
        for t in 0..200_000 {
            if tg.tick(Cycle::new(t)).is_some() {
                released += 1;
            }
            if tg.is_exhausted() {
                break;
            }
        }
        prop_assert_eq!(released, budget);
        prop_assert_eq!(tg.remaining(), Some(0));
        prop_assert!(tg.tick(Cycle::new(u64::MAX / 2)).is_none());
        Ok(())
    });
}

/// Trace text rendering round-trips exactly.
#[test]
fn trace_text_roundtrip() {
    check("trace_text_roundtrip", 0..16, |c| {
        let raw = c.vec(0..100, |c| {
            (
                c.range(0u64..100_000),
                c.range(0u32..8),
                c.range(0u32..8),
                c.range(1u16..64),
            )
        });
        let events: Vec<TraceEvent> = raw
            .iter()
            .map(|&(at, src, d, len)| TraceEvent {
                at: Cycle::new(at),
                src: EndpointId::new(src),
                dst: EndpointId::new(d),
                flow: FlowId::new(src),
                len_flits: len,
            })
            .collect();
        let trace = Trace::from_events(events);
        let text = trace.to_text();
        let parsed = Trace::parse(&text).expect("rendered trace parses");
        prop_assert_eq!(parsed, trace);
        Ok(())
    });
}

/// Replay never releases an event before its timestamp, releases
/// at most one event per cycle, and eventually drains the trace.
#[test]
fn replay_respects_timestamps() {
    check("replay_respects_timestamps", 0..16, |c| {
        let gaps = c.vec(1..50, |c| c.range(0u64..5));
        let mut at = 0u64;
        let mut events = Vec::new();
        for (i, &g) in gaps.iter().enumerate() {
            at += g;
            events.push(TraceEvent {
                at: Cycle::new(at),
                src: EndpointId::new(0),
                dst: EndpointId::new(1),
                flow: FlowId::new(0),
                len_flits: 1 + (i % 5) as u16,
            });
        }
        let mut tg = TraceDrivenTg::from_events(events.clone());
        let mut released = 0usize;
        for t in 0..=(at + events.len() as u64 + 1) {
            if let Some(req) = tg.tick(Cycle::new(t)) {
                let e = &events[released];
                prop_assert!(Cycle::new(t) >= e.at, "event released early");
                prop_assert_eq!(req.len_flits, e.len_flits);
                released += 1;
            }
        }
        prop_assert_eq!(released, events.len());
        prop_assert!(tg.is_exhausted());
        Ok(())
    });
}

/// Synthetic bursty traces hit their packet count and offered load.
#[test]
fn synthesized_trace_matches_spec() {
    check("synthesized_trace_matches_spec", 0..16, |c| {
        let (burst, len, total) = (c.range(1u32..32), c.range(1u16..16), c.range(50u64..500));
        let seed = c.word();
        let spec = BurstyTraceSpec {
            src: EndpointId::new(0),
            dst: EndpointId::new(1),
            flow: FlowId::new(0),
            packets_per_burst: burst,
            flits_per_packet: len,
            offered_load: 0.45,
            total_packets: total,
            seed,
        };
        let trace = synthesize_bursty(&spec);
        prop_assert_eq!(trace.len(), total as usize);
        prop_assert_eq!(trace.total_flits(), total * u64::from(len));
        // Mean load over the trace's span approximates the target.
        let span = trace.events().last().unwrap().at.raw()
            - trace.events().first().unwrap().at.raw()
            + u64::from(len);
        let measured = trace.total_flits() as f64 / span as f64;
        prop_assert!(
            (measured - 0.45).abs() < 0.12,
            "load {measured:.3} over span {span}"
        );
        Ok(())
    });
}

/// The NI conserves flits: everything accepted is eventually
/// emitted in order, one flit per cycle, gated by credits.
#[test]
fn ni_conserves_and_orders_flits() {
    check("ni_conserves_and_orders_flits", 0..16, |c| {
        let (lens, credits) = (c.vec(1..20, |c| c.range(1u16..6)), c.range(1u32..8));
        let mut ni = SourceNi::new(lens.len().max(1), credits);
        let mut expected = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let desc = PacketDescriptor {
                id: PacketId::new(i as u64),
                src: EndpointId::new(0),
                dst: EndpointId::new(1),
                flow: FlowId::new(0),
                len_flits: len,
                release: Cycle::ZERO,
            };
            prop_assert!(ni.can_accept());
            prop_assert!(ni.offer(desc));
            expected.extend(desc.flits());
        }
        // Drain with a credit loop of delay 1.
        let mut got = Vec::new();
        let mut owed = 0u32;
        let mut guard = 0;
        while got.len() < expected.len() {
            guard += 1;
            prop_assert!(guard < 10 * expected.len() + 50, "NI wedged");
            if owed > 0 {
                ni.credit_return();
                owed -= 1;
            }
            if let Some(f) = ni.tick_send() {
                got.push(f);
                owed += 1;
            }
        }
        prop_assert_eq!(got, expected);
        prop_assert!(ni.is_idle());
        let c = ni.counters();
        prop_assert_eq!(c.accepted_packets, lens.len() as u64);
        prop_assert_eq!(c.injected_packets, lens.len() as u64);
        prop_assert_eq!(c.rejected_packets, 0);
        Ok(())
    });
}

/// A TG/TR pair per node: sources `0, 2, 4, …`, sinks `1, 3, 5, …`.
fn node_pairs(n: u32) -> AllButSelf {
    AllButSelf::new(
        (0..n).map(|i| EndpointId::new(2 * i)).collect(),
        (0..n).map(|i| EndpointId::new(2 * i + 1)).collect(),
    )
}

/// `draws` picks from a row form and from its list form, from the
/// same random state: the same `(destination, flow)` every time, and
/// the same state left behind.
fn assert_draw_for_draw(row_form: &DestinationModel, seed: u64, draws: usize) {
    let listed = row_form.to_listed();
    assert!(
        matches!(
            listed,
            DestinationModel::UniformChoice(_) | DestinationModel::Weighted(_)
        ),
        "{listed:?}"
    );
    assert!(row_form.pairs().eq(listed.pairs()));
    let (mut a, mut b) = (Pcg32::seeded(seed), Pcg32::seeded(seed));
    for draw in 0..draws {
        assert_eq!(row_form.pick(&mut a), listed.pick(&mut b), "draw {draw}");
    }
    assert_eq!(a, b, "the two forms consumed different random numbers");
}

/// Row `s` of an all-but-self set and `UniformChoice` over the
/// row's listed pairs are the same generator.
#[test]
fn uniform_row_draws_what_its_list_draws() {
    check("uniform_row_draws_what_its_list_draws", 0..24, |c| {
        let (n, source, seed) = (c.range(2u32..70), c.word() as u32, c.word());
        let row = Row::new(node_pairs(n), source % n);
        assert_draw_for_draw(&DestinationModel::UniformRow(row), seed, 10_000);
        Ok(())
    });
}

/// The hotspot row form resolves the weighted draw without the
/// cumulative walk and still lands where the walk lands — for any
/// hot set (the row's own sink included or not, none, or all),
/// and weights 0 (never drawn) and 1 (uniform) included.
#[test]
fn weighted_row_draws_what_its_list_draws() {
    check("weighted_row_draws_what_its_list_draws", 0..24, |c| {
        let (n, source, hot_bits) = (c.range(2u32..70), c.word() as u32, c.word());
        let (hot_bits_high, weight, seed) = (c.word(), c.range(0u32..12), c.word());
        let source = source % n;
        let bits = u128::from(hot_bits) | u128::from(hot_bits_high) << 64;
        let mut hot: Vec<u32> = (0..n).filter(|&k| bits >> k & 1 == 1).collect();
        if weight == 0 && (0..n).all(|k| k == source || hot.contains(&k)) {
            // Every option at weight 0 has no draw to make.
            hot.retain(|&k| k != (source + 1) % n);
        }
        let model = DestinationModel::WeightedRow(HotRow::new(
            Row::new(node_pairs(n), source),
            hot.into(),
            weight,
        ));
        assert_draw_for_draw(&model, seed, 10_000);
        Ok(())
    });
}

#[test]
fn hot_rows_weigh_exactly_the_hot_sinks() {
    let row = Row::new(node_pairs(5), 2);
    // Sink 2 is the row's own: hot or not, it is no option.
    let hot = HotRow::new(row, vec![0, 2, 4].into(), 7);
    let weights: Vec<u32> = hot.triples().map(|(_, _, w)| w).collect();
    assert_eq!(weights, [7, 1, 1, 7], "sinks 0, 1, 3, 4");
    let DestinationModel::Weighted(listed) = DestinationModel::WeightedRow(hot).to_listed() else {
        panic!("a weighted row lists as a weighted choice");
    };
    assert_eq!(listed[3], (EndpointId::new(9), FlowId::new(2 * 4 + 3), 7));
}

#[test]
#[should_panic(expected = "zero total weight")]
fn an_all_hot_row_at_weight_zero_panics_like_its_list() {
    let hot = HotRow::new(Row::new(node_pairs(3), 0), vec![1, 2].into(), 0);
    DestinationModel::WeightedRow(hot).pick(&mut Pcg32::seeded(1));
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn hot_sinks_must_be_sorted() {
    HotRow::new(Row::new(node_pairs(4), 0), vec![2, 1].into(), 3);
}

#[test]
#[should_panic(expected = "outside the flow set")]
fn hot_sinks_must_be_sinks_of_the_set() {
    HotRow::new(Row::new(node_pairs(4), 0), vec![1, 4].into(), 3);
}

/// `can_accept` is a faithful precondition for `offer`: whenever it
/// returns true the offer succeeds, whenever false the offer fails.
#[test]
fn can_accept_predicts_offer() {
    let mut ni = SourceNi::new(3, 4);
    for i in 0..10u64 {
        let desc = PacketDescriptor {
            id: PacketId::new(i),
            src: EndpointId::new(0),
            dst: EndpointId::new(1),
            flow: FlowId::new(0),
            len_flits: 2,
            release: Cycle::ZERO,
        };
        let predicted = ni.can_accept();
        let actual = ni.offer(desc);
        assert_eq!(predicted, actual, "packet {i}");
    }
    assert_eq!(ni.counters().accepted_packets, 3);
    assert_eq!(ni.counters().rejected_packets, 7);
}
