//! Integration test: the paper's experimental setup behaves as slide
//! 19 describes — 4 TGs at 45 % of link bandwidth, two routing
//! possibilities, two inter-switch links loaded at 90 %.

use nocem::config::{PaperConfig, PaperRouting, TrafficModel};
use nocem::engine::build;
use nocem::SteppableEngine;
use nocem_topology::analysis::{hot_links, predict_link_loads, SplitModel};
use nocem_topology::deadlock::check_routing_deadlock_freedom;
use nocem_topology::routing::RoutingTables;

#[test]
fn predicted_and_measured_hot_link_loads_agree() {
    let cfg = PaperConfig::new().total_packets(20_000).uniform();
    let mut emu = build(&cfg).unwrap();

    // Analytic prediction over the elaborated routes.
    let elab = emu.elaboration();
    let offered: Vec<f64> = cfg
        .generators
        .iter()
        .map(|g| match g {
            TrafficModel::Uniform(u) => u.offered_load(),
            other => panic!("the paper setup builds uniform generators, got {other:?}"),
        })
        .collect();
    let predicted = predict_link_loads(
        &cfg.topology,
        &elab.routing.flows(),
        &offered,
        SplitModel::PrimaryOnly,
    );
    let setup = PaperConfig::new();
    let hot = setup.setup().hot_links;
    for h in hot {
        assert!(
            (predicted[h.index()] - 0.90).abs() < 0.03,
            "predicted hot-link load {}",
            predicted[h.index()]
        );
    }

    // Measured utilization after the run.
    emu.run().unwrap();
    let cycles = emu.now().raw();
    let cc = emu.results().congestion;
    for h in hot {
        let measured = cc.utilization(h, cycles);
        assert!(
            (measured - 0.90).abs() < 0.05,
            "measured hot-link utilization {measured} (expected ~0.90)"
        );
    }
}

#[test]
fn exactly_two_inter_switch_links_are_hot() {
    let setup = PaperConfig::new();
    let p = setup.setup();
    let loads = predict_link_loads(
        &p.topology,
        &p.primary_paths,
        &[0.45; 4],
        SplitModel::PrimaryOnly,
    );
    let hot: Vec<_> = hot_links(&loads, 0.85)
        .into_iter()
        .filter(|(l, _)| p.topology.link(*l).is_inter_switch())
        .collect();
    assert_eq!(hot.len(), 2, "hot links: {hot:?}");
    for (l, _) in hot {
        assert!(p.hot_links.contains(&l));
    }
}

#[test]
fn both_routing_cases_are_deadlock_free() {
    let setup = PaperConfig::new();
    let p = setup.setup();
    for paths in [&p.primary_paths, &p.dual_paths] {
        let tables = RoutingTables::from_paths(&p.topology, paths.clone()).unwrap();
        check_routing_deadlock_freedom(&p.topology, &tables).unwrap();
    }
}

#[test]
fn offered_load_is_45_percent_per_generator() {
    let cfg = PaperConfig::new().total_packets(40_000).uniform();
    let mut emu = build(&cfg).unwrap();
    emu.run().unwrap();
    let cycles = emu.now().raw();
    let cc = emu.results().congestion;
    // Each injection link should carry ~45% of a flit per cycle.
    for &(_, _, link) in &emu.elaboration().wiring.injection {
        let util = cc.utilization(link, cycles);
        assert!(
            (util - 0.45).abs() < 0.05,
            "injection link utilization {util} (expected ~0.45)"
        );
    }
}

#[test]
fn dual_routing_delivers_and_spreads_load() {
    let single = {
        let cfg = PaperConfig::new().total_packets(5_000).uniform();
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        emu.results()
    };
    let dual = {
        let cfg = PaperConfig::new()
            .total_packets(5_000)
            .routing(PaperRouting::Dual {
                secondary_probability: 0.5,
            })
            .uniform();
        let mut emu = build(&cfg).unwrap();
        emu.run().unwrap();
        emu.results()
    };
    assert_eq!(single.delivered, 5_000);
    assert_eq!(dual.delivered, 5_000);

    // Under dual routing, detour (vertical) links carry real traffic.
    let setup = PaperConfig::new();
    let p = setup.setup();
    let vertical: Vec<_> = p
        .topology
        .links()
        .filter(|l| l.is_inter_switch() && !p.hot_links.contains(&l.id))
        .map(|l| l.id)
        .collect();
    let single_vertical: u64 = vertical
        .iter()
        .map(|&l| single.congestion.forwarded(l))
        .sum();
    let dual_vertical: u64 = vertical.iter().map(|&l| dual.congestion.forwarded(l)).sum();
    assert!(
        dual_vertical > single_vertical + 1_000,
        "dual routing must move flits onto the detours ({single_vertical} -> {dual_vertical})"
    );
}
