//! Property-based round-trip of the lowering pass: for randomized
//! mesh/torus/ring/star platforms, [`lower`] must reproduce the
//! elaboration exactly — routes are the elaboration's own objects (its
//! grid router, or the very per-switch tables the interpreted switches
//! hold), never a copy, the prefix-sum layout tiles
//! the arrays with no gaps or overlaps, the FIFO arena is sized from
//! the elaboration's port counts, and the initial credit/cursor state
//! matches the freshly instantiated switches.

use nocem::compile::{elaborate, lower, InSlotState, SLOT_NONE};
use nocem::config::PlatformConfig;
use nocem::Platform;
use nocem_common::choice::check;
use nocem_common::ids::{PortId, VcId};
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_switch::switch::CREDITS_INFINITE;

/// Elaborates `cfg`, lowers it, and asserts the full round-trip.
fn check_lowering(cfg: &PlatformConfig) {
    let elab = elaborate(cfg).expect("config elaborates");
    let low = lower(&elab);
    let topo = &cfg.topology;
    let vcs = low.num_vcs;
    let n = low.switch_count;
    assert_eq!(n, topo.switch_count(), "switch count survives lowering");
    assert_eq!(vcs, usize::from(cfg.switch.num_vcs));
    assert_eq!(low.fifo_depth, usize::from(cfg.switch.fifo_depth));

    // Prefix sums tile the slot and port arrays exactly: each
    // switch's span is its own port count (from the elaboration, not
    // any uniform maximum), and the spans are contiguous.
    for s in 0..n {
        let info = topo.switch(nocem_common::ids::SwitchId::new(s as u32));
        assert_eq!(low.inputs[s], u32::from(info.inputs));
        assert_eq!(low.outputs[s], u32::from(info.outputs));
        assert_eq!(
            low.in_slot_base[s + 1] - low.in_slot_base[s],
            low.inputs[s] * vcs as u32,
            "input-slot span of switch {s}"
        );
        assert_eq!(
            low.out_slot_base[s + 1] - low.out_slot_base[s],
            low.outputs[s] * vcs as u32,
            "output-slot span of switch {s}"
        );
        assert_eq!(low.in_port_base[s + 1] - low.in_port_base[s], low.inputs[s]);
        assert_eq!(
            low.out_port_base[s + 1] - low.out_port_base[s],
            low.outputs[s]
        );
    }

    // The arena allocates exactly `fifo_depth` handle slots per input
    // slot, and every cursor record starts empty.
    assert_eq!(low.fifo_arena.len(), low.total_in_slots() * low.fifo_depth);
    assert_eq!(low.in_state.len(), low.total_in_slots());
    assert!(
        low.in_state.iter().all(|st| *st == InSlotState::EMPTY),
        "every input slot starts empty with no worm and no selection"
    );

    // Output-slot records start at their credit caps — the exact
    // credits the interpreted switches `Platform::new` builds hold:
    // inter-switch links carry the downstream buffer depth, ejection
    // links are infinite unless the configuration caps them.
    let platform = Platform::new(elab);
    let elab = &platform.elab;
    assert_eq!(low.out_state.len(), low.total_out_slots());
    assert_eq!(low.credit_cap.len(), low.total_out_slots());
    for s in 0..n {
        let osb = low.out_slot_base[s] as usize;
        for p in 0..low.outputs[s] as usize {
            let link = topo.out_link(
                nocem_common::ids::SwitchId::new(s as u32),
                PortId::new(p as u8),
            );
            let want = match topo.link(link).to_switch() {
                Some(_) => u32::from(cfg.switch.fifo_depth),
                None => cfg.switch.ejection_credits.unwrap_or(CREDITS_INFINITE),
            };
            for v in 0..vcs {
                let gslot = osb + p * vcs + v;
                let cap = platform.switches[s].credits_vc(PortId::new(p as u8), VcId::new(v as u8));
                assert_eq!(cap, want, "credits of switch {s} output {p} VC {v}");
                assert_eq!(low.out_state[gslot].credits, cap);
                assert_eq!(low.credit_cap[gslot], cap);
                assert_eq!(low.out_state[gslot].busy_with, SLOT_NONE);
                assert_eq!(
                    low.out_state[gslot].arb_last as usize,
                    low.inputs[s] as usize * vcs - 1,
                    "arbiter pointer starts just before input slot 0"
                );
            }
        }
    }

    // Routes are not lowered: arithmetic routing keeps the very
    // router the interpreted switches ask, and every switch reads the
    // very table `Platform::new` handed its interpreted twin.
    match (&low.router, elab.routing.grid_router()) {
        (Some(lowered), Some(elaborated)) => assert!(std::sync::Arc::ptr_eq(lowered, elaborated)),
        (None, None) => {}
        _ => panic!("the lowered platform routes as the elaboration does"),
    }
    for s in topo.switch_ids() {
        assert!(
            std::ptr::eq(low.routing.switch_table(s), elab.routing.switch_table(s)),
            "switch {s} reads the elaboration's own route table"
        );
    }
}

/// A uniform-random scenario on `topo` (the registry picks the
/// topology-appropriate routing: XY on meshes, 2-VC dateline on tori).
fn uniform(topo: TopologySpec) -> PlatformConfig {
    ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .expect("builtin scenario")
        .build_config(topo, 0.20, 4, 100)
        .expect("scenario config compiles")
}

/// Capped ejection credits (the stall-forensics fixture) reach the
/// lowered arrays as they reach the switches, on both VCs of a torus.
#[test]
fn capped_ejection_credits_lower_exactly() {
    let mut cfg = uniform(TopologySpec::Torus {
        width: 4,
        height: 3,
    });
    assert_eq!(cfg.switch.num_vcs, 2, "dateline routing");
    cfg.switch.ejection_credits = Some(3);
    check_lowering(&cfg);
}

/// Random meshes lower exactly.
#[test]
fn mesh_lowering_round_trips() {
    check("mesh_lowering_round_trips", 0..12, |c| {
        let (w, h) = (c.range(2u32..7), c.range(2u32..7));
        check_lowering(&uniform(TopologySpec::Mesh {
            width: w,
            height: h,
        }));
        Ok(())
    });
}

/// Random tori (2 VCs, dateline routing) lower exactly.
#[test]
fn torus_lowering_round_trips() {
    check("torus_lowering_round_trips", 0..12, |c| {
        let (w, h) = (c.range(2u32..6), c.range(2u32..6));
        check_lowering(&uniform(TopologySpec::Torus {
            width: w,
            height: h,
        }));
        Ok(())
    });
}

/// Random rings lower exactly.
#[test]
fn ring_lowering_round_trips() {
    check("ring_lowering_round_trips", 0..12, |c| {
        let switches = c.range(2u32..12);
        check_lowering(&uniform(TopologySpec::Ring { switches }));
        Ok(())
    });
}

/// Random stars lower exactly: the hub's port count differs from
/// every leaf's, exercising the heterogeneous prefix sums.
#[test]
fn star_lowering_round_trips() {
    check("star_lowering_round_trips", 0..12, |c| {
        let leaves = c.range(2u32..10);
        let topology = nocem_topology::builders::star(leaves).unwrap();
        let cfg = PlatformConfig::baseline(format!("star{leaves}-lowering"), topology).unwrap();
        check_lowering(&cfg);
        Ok(())
    });
}
