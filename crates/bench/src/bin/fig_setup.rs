//! **Figure 1 / experimental-setup reproduction** — prints the
//! 6-switch platform of slide 19 with its flows, routing possibilities
//! and predicted link loads, and verifies the 45 % / 90 % numbers by
//! emulation.
//!
//! ```text
//! cargo run --release -p nocem-bench --bin fig_setup
//! ```

use nocem::config::PaperConfig;
use nocem::engine::build;
use nocem::SteppableEngine;
use nocem_common::table::{Align, TextTable};
use nocem_topology::analysis::{predict_link_loads, SplitModel};
use nocem_topology::graph::LinkEnd;

fn main() {
    let setup = PaperConfig::new();
    let p = setup.setup();

    println!("experimental setup: {}", p.topology.name());
    println!(
        "{} switches, {} TGs, {} TRs, {} links ({} inter-switch)\n",
        p.topology.switch_count(),
        p.topology.generators().len(),
        p.topology.receptors().len(),
        p.topology.link_count(),
        p.topology.links().filter(|l| l.is_inter_switch()).count(),
    );

    println!("   TG0            TG1");
    println!("    |              |");
    println!("   [S0] -------- [S1] -------- [S2] --> TR0, TR1");
    println!("    |              |             |");
    println!("   [S3] -------- [S4] -------- [S5] --> TR2, TR3");
    println!("    |              |");
    println!("   TG2            TG3\n");

    let mut t = TextTable::with_columns(&["flow", "primary path", "secondary path"]);
    for (fp_primary, fp_dual) in p.primary_paths.iter().zip(&p.dual_paths) {
        let fmt = |path: &[nocem_common::ids::SwitchId]| {
            path.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(" -> ")
        };
        t.row(vec![
            format!("TG{0} -> TR{0}", fp_primary.spec.flow.raw()),
            fmt(&fp_primary.paths[0]),
            fmt(&fp_dual.paths[1]),
        ]);
    }
    println!("{t}");

    // Predicted loads per inter-switch link.
    let loads = predict_link_loads(
        &p.topology,
        &p.primary_paths,
        &[0.45; 4],
        SplitModel::PrimaryOnly,
    );
    let mut t = TextTable::with_columns(&["link", "predicted load", "hot?"]);
    t.align(1, Align::Right);
    for l in p.topology.links().filter(|l| l.is_inter_switch()) {
        let (LinkEnd::Switch { switch: a, .. }, LinkEnd::Switch { switch: b, .. }) = (l.src, l.dst)
        else {
            continue;
        };
        if loads[l.id.index()] == 0.0 {
            continue;
        }
        t.row(vec![
            format!("{a} -> {b}"),
            format!("{:.2}", loads[l.id.index()]),
            if p.hot_links.contains(&l.id) {
                "90% HOT".into()
            } else {
                String::new()
            },
        ]);
    }
    println!("loaded inter-switch links (primary routing):\n{t}");

    // Verify by emulation.
    let packets = 20_000;
    let cfg = PaperConfig::new().total_packets(packets).uniform();
    let mut emu = build(&cfg).expect("paper config compiles");
    emu.run().expect("run completes");
    let cycles = emu.now().raw();
    let cc = emu.results().congestion;
    println!("measured over {cycles} cycles ({packets} packets):");
    for h in p.hot_links {
        println!(
            "  hot link {}: utilization {:.3} (predicted 0.90)",
            h,
            cc.utilization(h, cycles)
        );
    }
}
