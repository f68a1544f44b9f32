//! The register-level configuration path: the "software part" programs
//! the whole run through memory-mapped registers only — exactly what
//! the paper's PowerPC does — and reads every statistic back over the
//! bus.

use nocem::config::{PaperConfig, TrafficModel};
use nocem::devices::{SwitchDriver, TgDriver, TrDriver};
use nocem::engine::{build, Emulation};
use nocem::SteppableEngine;
use nocem_platform::bus::{BusAccess, BusError, DeviceClass};
use nocem_platform::control::{ControlDriver, STATUS_DONE};
use nocem_traffic::generator::DestinationModel;
use nocem_traffic::stochastic::UniformConfig;

/// Builds the paper platform and the driver set from its address map.
fn platform() -> (
    Emulation,
    ControlDriver,
    Vec<TgDriver>,
    Vec<TrDriver>,
    Vec<SwitchDriver>,
) {
    let cfg = PaperConfig::new().total_packets(1_000).uniform();
    let emu = build(&cfg).unwrap();
    let map = emu.address_map().clone();
    let ctrl = ControlDriver::new(map.devices()[0].addr);
    let tgs = map
        .of_class(DeviceClass::TrafficGenerator)
        .map(|d| TgDriver::new(d.addr))
        .collect();
    let trs = map
        .of_class(DeviceClass::TrafficReceptor)
        .map(|d| TrDriver::new(d.addr))
        .collect();
    let sws = map
        .of_class(DeviceClass::Switch)
        .map(|d| SwitchDriver::new(d.addr))
        .collect();
    (emu, ctrl, tgs, trs, sws)
}

#[test]
fn full_run_programmed_and_observed_through_registers() {
    let (mut emu, ctrl, tgs, trs, sws) = platform();

    // Reprogram every TG over the bus: heavier packets, fresh budgets.
    let setup = PaperConfig::new();
    for (i, tg) in tgs.iter().enumerate() {
        let flow = setup.setup().flows[i];
        let model = TrafficModel::Uniform(UniformConfig::with_load(
            0.30,
            4,
            Some(250),
            DestinationModel::Fixed {
                dst: flow.dst,
                flow: flow.flow,
            },
        ));
        tg.program(&mut emu, &model).unwrap();
    }

    // Program the control module: 1000 packets, safety limit, seed.
    ctrl.configure(&mut emu, 1_000, 5_000_000, 0xF00D).unwrap();
    ctrl.start(&mut emu).unwrap();
    emu.run_programmed().unwrap();

    // Observe everything through the bus.
    assert_eq!(ctrl.delivered(&mut emu).unwrap(), 1_000);
    let cycles = ctrl.cycles(&mut emu).unwrap();
    assert!(cycles > 0);
    assert_eq!(ctrl.status(&mut emu).unwrap() & STATUS_DONE, STATUS_DONE);

    let sent: u64 = tgs.iter().map(|t| t.sent(&mut emu).unwrap()).sum();
    assert_eq!(sent, 1_000);

    let received: u64 = trs.iter().map(|t| t.packets(&mut emu).unwrap()).sum();
    assert_eq!(received, 1_000);
    let flits: u64 = trs.iter().map(|t| t.flits(&mut emu).unwrap()).sum();
    assert_eq!(flits, 4_000, "4 flits per reprogrammed packet");

    // Switch counters: the network moved at least one hop per flit.
    let forwarded: u64 = sws.iter().map(|s| s.forwarded(&mut emu).unwrap()).sum();
    assert!(forwarded >= flits);

    // Running time is reported per receptor.
    for tr in &trs {
        assert!(tr.running_time(&mut emu).unwrap() > 0);
    }
}

#[test]
fn register_writes_are_locked_while_running() {
    let (mut emu, ctrl, tgs, _, _) = platform();
    ctrl.configure(&mut emu, 10, 100_000, 1).unwrap();
    ctrl.start(&mut emu).unwrap();
    emu.run_programmed().unwrap();

    let setup = PaperConfig::new();
    let flow = setup.setup().flows[0];
    let model = TrafficModel::Uniform(UniformConfig::with_load(
        0.1,
        2,
        Some(1),
        DestinationModel::Fixed {
            dst: flow.dst,
            flow: flow.flow,
        },
    ));
    let err = tgs[0].program(&mut emu, &model).unwrap_err();
    assert!(matches!(err, BusError::InvalidValue { .. }));
    assert!(err.to_string().contains("locked"));
}

#[test]
fn start_bit_is_required() {
    let (mut emu, _, _, _, _) = platform();
    let err = emu.run_programmed().unwrap_err();
    assert!(err.to_string().contains("start bit"));
}

#[test]
fn counters_and_status_read_back_sanely_midway() {
    let (mut emu, ctrl, tgs, trs, _) = platform();
    ctrl.configure(&mut emu, 1_000, 5_000_000, 7).unwrap();
    // Step manually half-way and poll.
    for _ in 0..2_000 {
        emu.step().unwrap();
    }
    let sent_so_far: u64 = tgs.iter().map(|t| t.sent(&mut emu).unwrap()).sum();
    let received_so_far: u64 = trs.iter().map(|t| t.packets(&mut emu).unwrap()).sum();
    assert!(sent_so_far > 0);
    assert!(received_so_far <= sent_so_far);
    let cycles = ctrl.cycles(&mut emu).unwrap();
    assert_eq!(cycles, 2_000);
}

#[test]
fn unmapped_and_out_of_range_accesses_fault() {
    let (mut emu, _, _, _, _) = platform();
    // Device 999 on bus 3 does not exist.
    let bad = nocem_platform::addr::Address::from_parts(
        nocem_common::ids::BusId::new(3),
        nocem_common::ids::DeviceId::new(999),
        0,
    );
    assert!(matches!(emu.read(bad), Err(BusError::Unmapped(_))));
    // TR registers beyond the layout fault.
    let tr0 = emu.address_map().by_label("tr0").unwrap().addr;
    assert!(matches!(
        emu.read(tr0.reg(0x40)),
        Err(BusError::RegisterOutOfRange { .. })
    ));
    // TR registers are read-only.
    assert!(matches!(
        emu.write(tr0.reg(0), 1),
        Err(BusError::ReadOnly(_))
    ));
}

#[test]
fn over_capacity_platform_emulates_without_a_bus() {
    use nocem::clock::SteppableEngine;
    use nocem_scenarios::registry::ScenarioRegistry;
    use nocem_scenarios::scenario::TopologySpec;

    // 37x37 = 1369 switches, so ctrl + 1369 TGs + 1369 TRs + 1369
    // switches + monitor = 4109 devices > the 4x1024 control plane.
    let cfg = ScenarioRegistry::builtin()
        .resolve("transpose")
        .unwrap()
        .build_config(
            TopologySpec::Mesh {
                width: 37,
                height: 37,
            },
            0.10,
            2,
            50,
        )
        .unwrap();
    let mut emu = build(&cfg).unwrap();

    // The control plane is all-or-nothing: nothing is mapped...
    assert!(emu.address_map().devices().is_empty());
    let ctrl0 = nocem_platform::addr::Address::from_parts(
        nocem_common::ids::BusId::new(0),
        nocem_common::ids::DeviceId::new(0),
        0,
    );
    assert!(matches!(emu.read(ctrl0), Err(BusError::Unmapped(_))));

    // ...but the platform still emulates.
    for _ in 0..50 {
        SteppableEngine::step(&mut emu).unwrap();
    }
    assert!(SteppableEngine::summary(&emu).injected > 0);
}
