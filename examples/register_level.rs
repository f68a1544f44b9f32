//! Register-level session: drive the platform exactly like the
//! paper's PowerPC software.
//!
//! Every interaction in this example goes through the memory-mapped
//! bus: the TGs are reprogrammed through their register files, the
//! control module is configured and started, progress is polled, and
//! all statistics are read back through typed drivers. No direct
//! access to any component. The bus is a [`nocem::Board`] in front of
//! the compiled engine, the one a user runs for speed; the example
//! exits non-zero when a read-back disagrees with the engine's own
//! results.
//!
//! ```text
//! cargo run --release --example register_level
//! ```

use nocem::config::{EngineKind, PaperConfig, TrafficModel};
use nocem::devices::{SwitchDriver, TgDriver, TrDriver};
use nocem::Board;
use nocem_common::ids::PortId;
use nocem_platform::bus::DeviceClass;
use nocem_platform::control::ControlDriver;
use nocem_traffic::generator::DestinationModel;
use nocem_traffic::stochastic::BurstConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = PaperConfig::new()
        .total_packets(5_000)
        .uniform()
        .with_engine(EngineKind::Compiled);
    let mut emu = Board::build(&cfg)?;

    // Discover devices from the address map, like a driver probing
    // the bus.
    let map = emu.address_map().clone();
    println!("-- device inventory --");
    for d in map.devices() {
        println!("{}  {:8}  {}", d.addr, d.class.to_string(), d.label());
    }
    let ctrl = ControlDriver::new(map.devices()[0].addr);
    let tg_drivers: Vec<TgDriver> = map
        .of_class(DeviceClass::TrafficGenerator)
        .map(|d| TgDriver::new(d.addr))
        .collect();
    let tr_drivers: Vec<TrDriver> = map
        .of_class(DeviceClass::TrafficReceptor)
        .map(|d| TrDriver::new(d.addr))
        .collect();
    let sw_drivers: Vec<SwitchDriver> = map
        .of_class(DeviceClass::Switch)
        .map(|d| SwitchDriver::new(d.addr))
        .collect();

    // Reprogram every TG over the bus: switch from the compiled
    // uniform model to bursts of 8 packets.
    let setup = PaperConfig::new();
    for (i, tg) in tg_drivers.iter().enumerate() {
        let flow = setup.setup().flows[i];
        let model = TrafficModel::Burst(BurstConfig::with_load(
            0.45,
            8,
            8,
            Some(1_250),
            DestinationModel::Fixed {
                dst: flow.dst,
                flow: flow.flow,
            },
        ));
        tg.program(&mut emu, &model)?;
    }

    // Configure and start through the control module.
    ctrl.configure(&mut emu, 5_000, 10_000_000, 0xBEEF)?;
    ctrl.start(&mut emu)?;
    emu.run_programmed()?;

    // Poll results the way the monitor does, and hold every read-back
    // to the engine's own results.
    let results = emu.engine_mut().results()?;
    let mut mismatches = Vec::new();
    let mut expect = |what: String, read: u64, want: u64| {
        if read != want {
            mismatches.push(format!("{what}: bus reads {read}, results say {want}"));
        }
    };
    println!("\n-- control module --");
    let cycles = ctrl.cycles(&mut emu)?;
    println!("cycles:    {cycles}");
    println!("delivered: {}", ctrl.delivered(&mut emu)?);
    expect("control cycles".into(), cycles, results.cycles);

    println!("\n-- traffic generators --");
    let mut sent = 0;
    for (i, tg) in tg_drivers.iter().enumerate() {
        let tg_sent = tg.sent(&mut emu)?;
        sent += tg_sent;
        println!(
            "tg{i}: sent {tg_sent} packets, {} flits, blocked {} cycles",
            tg.injected_flits(&mut emu)?,
            tg.blocked_cycles(&mut emu)?
        );
    }
    expect("TGs sent".into(), sent, results.released);

    println!("\n-- traffic receptors --");
    for (i, (tr, want)) in tr_drivers.iter().zip(&results.receptors).enumerate() {
        let (packets, flits) = (tr.packets(&mut emu)?, tr.flits(&mut emu)?);
        let running = tr.running_time(&mut emu)?;
        println!(
            "tr{i}: {packets} packets, {flits} flits, running time {running} cycles, mean latency {:.1}",
            tr.mean_network_latency(&mut emu)?.unwrap_or(0.0),
        );
        expect(format!("tr{i} packets"), packets, want.packets);
        expect(format!("tr{i} flits"), flits, want.flits);
        expect(format!("tr{i} running time"), running, want.running_time);
    }

    println!("\n-- switches --");
    let topo = &emu.config().topology.clone();
    for (i, (sw, s)) in sw_drivers.iter().zip(topo.switch_ids()).enumerate() {
        let forwarded = sw.forwarded(&mut emu)?;
        println!(
            "sw{i}: forwarded {forwarded} flits, blocked {} cycles",
            sw.blocked(&mut emu)?
        );
        let ports = 0..topo.switch(s).outputs;
        let links = ports.map(|p| topo.out_link(s, PortId::new(p)));
        let want = links.map(|l| results.congestion.forwarded(l)).sum();
        expect(format!("sw{i} forwarded"), forwarded, want);
    }

    if !mismatches.is_empty() {
        return Err(format!("register read-back disagrees:\n{}", mismatches.join("\n")).into());
    }
    Ok(())
}
