//! Register-level session: drive the platform exactly like the
//! paper's PowerPC software.
//!
//! Every interaction in this example goes through the memory-mapped
//! bus: the TGs are reprogrammed through their register files, the
//! control module is configured and started, progress is polled, and
//! all statistics are read back through typed drivers. No direct
//! access to any component.
//!
//! ```text
//! cargo run --release -p nocem --example register_level
//! ```

use nocem::config::{PaperConfig, TrafficModel};
use nocem::devices::{SwitchDriver, TgDriver, TrDriver};
use nocem::engine::build;
use nocem_platform::bus::DeviceClass;
use nocem_platform::control::ControlDriver;
use nocem_traffic::generator::DestinationModel;
use nocem_traffic::stochastic::BurstConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = PaperConfig::new().total_packets(5_000).uniform();
    let mut emu = build(&cfg)?;

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

    // Poll results the way the monitor does.
    println!("\n-- control module --");
    println!("cycles:    {}", ctrl.cycles(&mut emu)?);
    println!("delivered: {}", ctrl.delivered(&mut emu)?);

    println!("\n-- traffic generators --");
    for (i, tg) in tg_drivers.iter().enumerate() {
        println!(
            "tg{i}: sent {} packets, {} flits, blocked {} cycles",
            tg.sent(&mut emu)?,
            tg.injected_flits(&mut emu)?,
            tg.blocked_cycles(&mut emu)?
        );
    }

    println!("\n-- traffic receptors --");
    for (i, tr) in tr_drivers.iter().enumerate() {
        println!(
            "tr{i}: {} packets, {} flits, running time {} cycles, mean latency {:.1}",
            tr.packets(&mut emu)?,
            tr.flits(&mut emu)?,
            tr.running_time(&mut emu)?,
            tr.mean_network_latency(&mut emu)?.unwrap_or(0.0),
        );
    }

    println!("\n-- switches --");
    for (i, sw) in sw_drivers.iter().enumerate() {
        println!(
            "sw{i}: forwarded {} flits, blocked {} input-cycles",
            sw.forwarded(&mut emu)?,
            sw.blocked(&mut emu)?
        );
    }
    Ok(())
}
