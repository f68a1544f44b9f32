//! Property-based tests of the wormhole switch — the behavioural
//! contract all three simulation engines implement.
//!
//! A reference harness drives one switch with randomized packet
//! streams under a faithful credit loop (each output's credit returns
//! a fixed number of cycles after a transfer, modelling the downstream
//! FIFO pop) and checks the invariants the engines rely on:
//!
//! * **conservation** — every flit pushed in comes out exactly once,
//!   unmodified;
//! * **per-input order** — flits leave each input in arrival order
//!   (FIFOs never reorder);
//! * **wormhole atomicity** — on every output, the flits of one packet
//!   are contiguous: no interleaving between Head and Tail;
//! * **credit safety** — with a correct credit loop the input FIFO
//!   never overflows and credits never exceed their cap;
//! * **work conservation** — an output with credits and exactly one
//!   requester transfers every cycle (no idle cycles under load).

use nocem_common::choice::{check, Choices};
use nocem_common::flit::{Flit, PacketDescriptor};
use nocem_common::ids::{EndpointId, FlowId, PacketId, PortId, VcId};
use nocem_common::time::Cycle;
use nocem_common::{prop_assert, prop_assert_eq, prop_assert_ne};
use nocem_switch::arbiter::ArbiterKind;
use nocem_switch::config::{SelectionPolicy, SwitchConfigBuilder};
use nocem_switch::switch::{Switch, Transfer, CREDITS_INFINITE};
use std::collections::VecDeque;

/// One randomized packet: which input it arrives on, its flow (= the
/// routing key) and its flit count.
#[derive(Debug, Clone)]
struct PacketPlan {
    input: usize,
    flow: u32,
    len: u16,
}

fn packet_plan(c: &mut Choices, inputs: usize, flows: u32) -> PacketPlan {
    let (input, flow, len) = (c.range(0..inputs), c.range(0..flows), c.range(1u16..6));
    PacketPlan { input, flow, len }
}

fn flits_of(id: u64, plan: &PacketPlan) -> Vec<Flit> {
    PacketDescriptor {
        id: PacketId::new(id),
        src: EndpointId::new(0),
        dst: EndpointId::new(plan.flow),
        flow: FlowId::new(plan.flow),
        len_flits: plan.len,
        release: Cycle::ZERO,
    }
    .flits()
    .collect()
}

/// Drives `sw` until every queued flit has been delivered, modelling a
/// downstream that pops after `credit_delay` cycles. Returns the full
/// transfer log in commit order.
fn run_to_drain(
    sw: &mut Switch,
    mut arrivals: Vec<VecDeque<Flit>>,
    fifo_depth: usize,
    credit_delay: usize,
    outputs: usize,
) -> Vec<Transfer> {
    let (mut log, mut sends) = (Vec::new(), Vec::new());
    let mut pending_credits: VecDeque<(usize, PortId)> = VecDeque::new();
    let total: usize = arrivals.iter().map(VecDeque::len).sum();
    let mut cycle = 0usize;
    let limit = 64 * total + 1_000;
    while log.len() < total {
        assert!(cycle < limit, "switch wedged after {cycle} cycles");
        // Downstream pops: return due credits.
        while pending_credits
            .front()
            .is_some_and(|&(due, _)| due <= cycle)
        {
            let (_, port) = pending_credits.pop_front().unwrap();
            sw.credit_return(port, VcId::ZERO);
        }
        sw.decide();
        sw.commit_sends(&mut sends);
        for t in &sends {
            pending_credits.push_back((cycle + credit_delay, t.output));
        }
        log.extend_from_slice(&sends);
        // Arrivals: one flit per input per cycle, only when the FIFO
        // has room (the upstream credit loop guarantees this in the
        // real platform).
        for (i, q) in arrivals.iter_mut().enumerate() {
            if sw.occupancy(PortId::new(i as u8)) < fifo_depth {
                if let Some(f) = q.pop_front() {
                    sw.accept(PortId::new(i as u8), f).expect("fifo has room");
                }
            }
        }
        let _ = outputs;
        cycle += 1;
    }
    log
}

/// Builds a switch where flow `f` routes to output `f % outputs`.
fn build_switch(inputs: usize, outputs: usize, flows: u32, depth: u8) -> Switch {
    let config = SwitchConfigBuilder::new(inputs as u8, outputs as u8)
        .fifo_depth(depth)
        .arbiter(ArbiterKind::RoundRobin)
        .selection(SelectionPolicy::First)
        .build();
    let routes = (0..flows)
        .map(|f| vec![PortId::new((f % outputs as u32) as u8)])
        .collect();
    Switch::new(config, routes, vec![u32::from(depth); outputs], 0xBEEF).unwrap()
}

/// Conservation + order + wormhole atomicity for arbitrary packet
/// mixes on a 4x4 switch.
#[test]
fn switch_preserves_and_orders_flits() {
    check("switch_preserves_and_orders_flits", 0..64, |c| {
        let (plans, credit_delay) = (c.vec(1..40, |c| packet_plan(c, 4, 8)), c.range(1usize..4));
        let (inputs, outputs, depth) = (4usize, 4usize, 4u8);
        let mut sw = build_switch(inputs, outputs, 8, depth);
        let mut arrivals: Vec<VecDeque<Flit>> = vec![VecDeque::new(); inputs];
        let mut expected_per_input: Vec<Vec<Flit>> = vec![Vec::new(); inputs];
        for (id, p) in plans.iter().enumerate() {
            for f in flits_of(id as u64, p) {
                arrivals[p.input].push_back(f);
                expected_per_input[p.input].push(f);
            }
        }
        let log = run_to_drain(&mut sw, arrivals, usize::from(depth), credit_delay, outputs);

        // Conservation: every flit delivered exactly once, unmodified.
        let total: usize = expected_per_input.iter().map(Vec::len).sum();
        prop_assert_eq!(log.len(), total);
        for t in &log {
            prop_assert!(t.flit.payload_is_valid(), "corrupted {:?}", t.flit);
        }

        // Per-input order: the sub-sequence leaving input i equals the
        // arrival order.
        for (i, expected) in expected_per_input.iter().enumerate() {
            let out: Vec<Flit> = log
                .iter()
                .filter(|t| t.input == PortId::new(i as u8))
                .map(|t| t.flit)
                .collect();
            prop_assert_eq!(&out, expected, "input {} reordered", i);
        }

        // Wormhole atomicity: per output, packets never interleave.
        for o in 0..outputs {
            let mut open: Option<PacketId> = None;
            for t in log.iter().filter(|t| t.output == PortId::new(o as u8)) {
                match open {
                    None => {
                        prop_assert!(t.flit.kind.is_head(), "worm opened by {:?}", t.flit);
                        if !t.flit.kind.is_tail() {
                            open = Some(t.flit.packet);
                        }
                    }
                    Some(p) => {
                        prop_assert_eq!(t.flit.packet, p, "interleaved wormhole");
                        if t.flit.kind.is_tail() {
                            open = None;
                        }
                    }
                }
            }
            prop_assert_eq!(open, None, "worm left open on output {}", o);
        }

        // After drain the switch is idle and all credits returned.
        prop_assert!(sw.is_idle());
        Ok(())
    });
}

/// A single uncontended stream flows at full rate: one flit per
/// cycle once started, regardless of packet boundaries.
#[test]
fn uncontended_stream_is_work_conserving() {
    check("uncontended_stream_is_work_conserving", 0..64, |c| {
        let lens = c.vec(1..10, |c| c.range(1u16..5));
        let mut sw = build_switch(1, 1, 1, 8);
        let mut arrivals: Vec<VecDeque<Flit>> = vec![VecDeque::new()];
        let mut total = 0usize;
        for (id, &len) in lens.iter().enumerate() {
            for f in flits_of(
                id as u64,
                &PacketPlan {
                    input: 0,
                    flow: 0,
                    len,
                },
            ) {
                arrivals[0].push_back(f);
                total += 1;
            }
        }
        // Credit loop with 1-cycle delay and depth 8 never starves a
        // single stream.
        let (mut log, mut sends) = (Vec::new(), Vec::new());
        let mut due: VecDeque<usize> = VecDeque::new();
        let mut cycle = 0usize;
        while log.len() < total {
            prop_assert!(cycle < 4 * total + 16, "stream stalled");
            while due.front().is_some_and(|&d| d <= cycle) {
                due.pop_front();
                sw.credit_return(PortId::new(0), VcId::ZERO);
            }
            sw.decide();
            sw.commit_sends(&mut sends);
            for &t in &sends {
                due.push_back(cycle + 1);
                log.push((cycle, t));
            }
            if sw.occupancy(PortId::new(0)) < 8 {
                if let Some(f) = arrivals[0].pop_front() {
                    sw.accept(PortId::new(0), f).unwrap();
                }
            }
            cycle += 1;
        }
        // From the first transfer on, there is a transfer every cycle.
        let first = log[0].0;
        for (k, (c, _)) in log.iter().enumerate() {
            prop_assert_eq!(*c, first + k, "bubble in an uncontended stream");
        }
        Ok(())
    });
}

/// Round-robin arbitration is fair: with two inputs saturating one
/// output with single-flit packets, grants strictly alternate.
#[test]
fn round_robin_alternates_under_saturation() {
    check("round_robin_alternates_under_saturation", 0..64, |c| {
        let n = c.range(2usize..20);
        let mut sw = build_switch(2, 1, 1, 8);
        let mut id = 0u64;
        let (mut winners, mut sends) = (Vec::new(), Vec::new());
        // Pre-load both inputs, keep them topped up, infinite credits
        // via immediate return.
        for cycle in 0..2 * n {
            for i in 0..2 {
                if sw.occupancy(PortId::new(i)) < 8 {
                    let f = flits_of(
                        id,
                        &PacketPlan {
                            input: i as usize,
                            flow: 0,
                            len: 1,
                        },
                    )[0];
                    sw.accept(PortId::new(i), f).unwrap();
                    id += 1;
                }
            }
            sw.decide();
            sw.commit_sends(&mut sends);
            for t in &sends {
                winners.push(t.input.raw());
                sw.credit_return(PortId::new(0), VcId::ZERO);
            }
            let _ = cycle;
        }
        // Ignore the first grant; afterwards inputs alternate.
        for w in winners.windows(2) {
            prop_assert_ne!(w[0], w[1], "round robin starved an input");
        }
        Ok(())
    });
}

/// The quiescence predicate is exact on randomized switch states:
/// `is_quiescent()` is false whenever any flit is buffered, any
/// wormhole is partially through, or any credit is still
/// outstanding — and true exactly when none of those hold. This is
/// the invariant the clock-gating fast-forward kernel rests on.
#[test]
fn quiescence_predicate_is_exact() {
    check("quiescence_predicate_is_exact", 0..64, |c| {
        let (plans, credit_delay) = (c.vec(1..24, |c| packet_plan(c, 3, 6)), c.range(1usize..5));
        let (inputs, outputs, depth) = (3usize, 3usize, 3u8);
        let mut sw = build_switch(inputs, outputs, 6, depth);
        let mut arrivals: Vec<VecDeque<Flit>> = vec![VecDeque::new(); inputs];
        let mut len_of: Vec<u16> = Vec::new();
        for (id, p) in plans.iter().enumerate() {
            for f in flits_of(id as u64, p) {
                arrivals[p.input].push_back(f);
            }
            len_of.push(p.len);
        }
        let total: usize = arrivals.iter().map(VecDeque::len).sum();

        let mut pending_credits: VecDeque<(usize, PortId)> = VecDeque::new();
        let mut popped_per_packet = vec![0u16; plans.len()];
        let mut buffered = 0usize;
        let mut delivered = 0usize;
        let (mut cycle, mut sends) = (0usize, Vec::new());
        while delivered < total || !pending_credits.is_empty() {
            prop_assert!(cycle < 64 * total + 1_000, "switch wedged");
            while pending_credits
                .front()
                .is_some_and(|&(due, _)| due <= cycle)
            {
                let (_, port) = pending_credits.pop_front().unwrap();
                sw.credit_return(port, VcId::ZERO);
            }
            sw.decide();
            sw.commit_sends(&mut sends);
            for t in &sends {
                pending_credits.push_back((cycle + credit_delay, t.output));
                popped_per_packet[t.flit.packet.index()] += 1;
                buffered -= 1;
                delivered += 1;
            }
            for (i, q) in arrivals.iter_mut().enumerate() {
                if sw.occupancy(PortId::new(i as u8)) < usize::from(depth) {
                    if let Some(f) = q.pop_front() {
                        sw.accept(PortId::new(i as u8), f).expect("fifo has room");
                        buffered += 1;
                    }
                }
            }
            // External ground truth, from the harness bookkeeping
            // alone: flits in FIFOs, worms partially through, credits
            // on their way back.
            let worm_open = popped_per_packet
                .iter()
                .zip(&len_of)
                .any(|(&popped, &len)| popped > 0 && popped < len);
            let expected = buffered == 0 && !worm_open && pending_credits.is_empty();
            prop_assert_eq!(
                sw.is_quiescent(),
                expected,
                "cycle {}: buffered {}, worm_open {}, credits out {}",
                cycle,
                buffered,
                worm_open,
                pending_credits.len()
            );
            cycle += 1;
        }
        prop_assert!(sw.is_quiescent(), "drained switch must be quiescent");
        Ok(())
    });
}

/// Credits never exceed their cap and the FIFO never overflows,
/// even with the slowest legal credit loop.
#[test]
fn credit_loop_is_safe() {
    check("credit_loop_is_safe", 0..64, |c| {
        let (plans, credit_delay) = (c.vec(1..20, |c| packet_plan(c, 2, 4)), c.range(1usize..6));
        let mut sw = build_switch(2, 4, 4, 2);
        let mut arrivals: Vec<VecDeque<Flit>> = vec![VecDeque::new(); 2];
        for (id, p) in plans.iter().enumerate() {
            for f in flits_of(id as u64, p) {
                arrivals[p.input].push_back(f);
            }
        }
        let total: usize = arrivals.iter().map(VecDeque::len).sum();
        let log = run_to_drain(&mut sw, arrivals, 2, credit_delay, 4);
        prop_assert_eq!(log.len(), total);
        for o in 0..4 {
            prop_assert!(sw.credits(PortId::new(o)) <= 2, "credit overflow");
        }
        Ok(())
    });
}

/// Infinite-credit outputs (ejection ports) never block a stream and
/// never change their credit count.
#[test]
fn infinite_credits_are_stable() {
    let config = SwitchConfigBuilder::new(1, 1).fifo_depth(4).build();
    let mut sw = Switch::new(
        config,
        vec![vec![PortId::new(0)]],
        vec![CREDITS_INFINITE],
        1,
    )
    .unwrap();
    let mut sends = Vec::new();
    for id in 0..100u64 {
        let f = flits_of(
            id,
            &PacketPlan {
                input: 0,
                flow: 0,
                len: 1,
            },
        )[0];
        sw.accept(PortId::new(0), f).unwrap();
        sw.decide();
        sw.commit_sends(&mut sends);
        assert_eq!(sends.len(), 1, "ejection never blocks");
        assert_eq!(sw.credits(PortId::new(0)), CREDITS_INFINITE);
    }
    assert_eq!(sw.counters().forwarded_per_output[0], 100);
    assert_eq!(sw.counters().blocked_cycles_per_output[0], 0);
}

/// The per-output blocked counters sum to the blocked input cycles
/// counted from outside: with one VC, every cycle an input holds a flit
/// and sends nothing is attributed to exactly one requested output.
#[test]
fn blocked_accounting_balances() {
    // Two inputs fight for one output with a slow credit loop.
    let config = SwitchConfigBuilder::new(2, 1).fifo_depth(4).build();
    let mut sw = Switch::new(config, vec![vec![PortId::new(0)]], vec![1], 1).unwrap();
    let mut id = 0u64;
    let (mut per_input, mut sends) = (0u64, Vec::new());
    for _ in 0..50 {
        for i in 0..2 {
            if sw.occupancy(PortId::new(i)) < 4 {
                let f = flits_of(
                    id,
                    &PacketPlan {
                        input: i as usize,
                        flow: 0,
                        len: 1,
                    },
                )[0];
                sw.accept(PortId::new(i), f).unwrap();
                id += 1;
            }
        }
        let waiting: Vec<bool> = (0..2).map(|i| sw.occupancy(PortId::new(i)) > 0).collect();
        sw.decide();
        let mut sent = [false; 2];
        sw.commit_sends(&mut sends);
        for t in &sends {
            sent[t.input.index()] = true;
            sw.credit_return(PortId::new(0), VcId::ZERO);
        }
        per_input += (0..2).filter(|&i| waiting[i] && !sent[i]).count() as u64;
    }
    let per_output: u64 = sw.counters().blocked_cycles_per_output.iter().sum();
    assert_eq!(per_input, per_output, "blocked cycles must balance");
    assert!(per_output > 0, "contention must register");
}
