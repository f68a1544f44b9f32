//! The register-level configuration path: the "software part" programs
//! the whole run through memory-mapped registers only — exactly what
//! the paper's PowerPC does — and reads every statistic back over the
//! bus, a [`Board`] in front of any engine.

use nocem::clock::run_engine;
use nocem::config::{EngineKind, PaperConfig, PlatformConfig, TrafficModel};
use nocem::devices::{trreg, SwitchDriver, TgDriver, TrDriver};
use nocem::error::{CompileError, EmulationError};
use nocem::{elaborate, AnyEngine, Board, SteppableEngine};
use nocem_common::choice::{check, Choices};
use nocem_platform::bus::{BusAccess, BusError, DeviceClass};
use nocem_platform::control::{self, ControlDriver, STATUS_DONE, STATUS_RUNNING};
use nocem_stats::TrKind;
use nocem_traffic::generator::DestinationModel;
use nocem_traffic::registers as tgreg;
use nocem_traffic::stochastic::UniformConfig;

/// The engines a board is tried on.
const ENGINES: [EngineKind; 2] = [EngineKind::SingleThread, EngineKind::Compiled];

/// `cfg` behind a bus, on the engine it names.
fn build(cfg: &PlatformConfig) -> Board<AnyEngine> {
    Board::build(cfg).unwrap()
}

/// Builds the paper platform and the driver set from its address map.
fn platform() -> (
    Board<AnyEngine>,
    ControlDriver,
    Vec<TgDriver>,
    Vec<TrDriver>,
    Vec<SwitchDriver>,
) {
    let cfg = PaperConfig::new().total_packets(1_000).uniform();
    let emu = build(&cfg);
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
        emu.engine_mut().step().unwrap();
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
    let mut emu = build(&cfg);

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
        emu.engine_mut().step().unwrap();
    }
    assert!(emu.engine().summary().injected > 0);
}

/// The platform of the programming-is-configuration tests.
fn paper() -> PlatformConfig {
    PaperConfig::new().total_packets(400).uniform()
}

/// Asserts that `emu`'s run is the run of the configuration it
/// elaborated: the same results and packet ledger as that
/// configuration on the compiled engine.
fn assert_is_the_config_run(emu: &mut Board<AnyEngine>, what: &str) {
    let mut cfg = emu.config().clone();
    cfg.engine = EngineKind::Compiled;
    let mut twin = AnyEngine::build(&cfg).unwrap();
    run_engine(&mut twin).unwrap();
    let results = emu.engine_mut().results().unwrap();
    assert_eq!(results, twin.results().unwrap(), "{what}: results");
    assert!(
        emu.engine().ledger() == twin.ledger(),
        "{what}: packet ledger"
    );
}

#[test]
fn programming_the_configs_own_values_is_the_config_run() {
    let cfg = paper();
    let mut emu = build(&cfg);
    let map = emu.address_map().clone();
    let ctrl = ControlDriver::new(map.devices()[0].addr);
    for (tg, model) in map
        .of_class(DeviceClass::TrafficGenerator)
        .zip(&cfg.generators)
    {
        TgDriver::new(tg.addr).program(&mut emu, model).unwrap();
    }
    let target = cfg.stop.delivered_packets.unwrap();
    ctrl.configure(&mut emu, target, cfg.stop.cycle_limit, cfg.seed)
        .unwrap();
    ctrl.start(&mut emu).unwrap();
    emu.run_programmed().unwrap();
    assert_eq!(emu.config().generators, cfg.generators);
    assert_eq!(emu.config().seed, cfg.seed);
    assert_is_the_config_run(&mut emu, "self-programmed");
}

#[test]
fn the_control_seed_alone_is_the_platform_seed() {
    let mut emu = build(&paper());
    let ctrl = emu.address_map().devices()[0].addr;
    emu.write_u64(
        ctrl.reg(control::REG_SEED_LO),
        ctrl.reg(control::REG_SEED_HI),
        0xF00D,
    )
    .unwrap();
    ControlDriver::new(ctrl).start(&mut emu).unwrap();
    emu.run_programmed().unwrap();
    let config = emu.config();
    assert_eq!(config.seed, 0xF00D);
    assert_eq!(config.generators, paper().generators);
    assert_is_the_config_run(&mut emu, "reseeded");
}

#[test]
fn an_unregistered_flow_is_a_compile_error() {
    let mut emu = build(&paper());
    let map = emu.address_map().clone();
    let tg0 = map.by_label("tg0").unwrap().addr;
    emu.write(tg0.reg(tgreg::REG_DST), 5).unwrap();
    emu.write(tg0.reg(tgreg::REG_FLOW), 99).unwrap();
    ControlDriver::new(map.devices()[0].addr)
        .start(&mut emu)
        .unwrap();
    let err = emu.run_programmed().unwrap_err();
    assert!(
        matches!(
            err,
            EmulationError::Compile(CompileError::TrafficMismatch { .. })
        ),
        "{err}"
    );
}

#[test]
fn tr_registers_read_both_receptor_kinds() {
    let mut cfg = paper();
    cfg.receptors = vec![
        TrKind::Stochastic,
        TrKind::TraceDriven,
        TrKind::Stochastic,
        TrKind::TraceDriven,
    ];
    let mut summaries = Vec::new();
    for engine in ENGINES {
        let mut emu = build(&cfg.clone().with_engine(engine));
        run_engine(emu.engine_mut()).unwrap();
        let results = emu.engine_mut().results().unwrap();
        let map = emu.address_map().clone();
        for (i, tr) in map.of_class(DeviceClass::TrafficReceptor).enumerate() {
            let (regs, want) = (TrDriver::new(tr.addr), &results.receptors[i]);
            let at = format!("tr{i} on {engine:?}");
            assert!(want.packets > 0, "{at} received nothing");
            assert_eq!(regs.packets(&mut emu).unwrap(), want.packets, "{at}");
            assert_eq!(regs.flits(&mut emu).unwrap(), want.flits, "{at}");
            let running = regs.running_time(&mut emu).unwrap();
            assert_eq!(running, want.running_time, "{at}");
            let mean = regs.mean_network_latency(&mut emu).unwrap();
            let lat_min = emu.read(tr.addr.reg(trreg::REG_LAT_MIN)).unwrap();
            let lat_max = emu.read(tr.addr.reg(trreg::REG_LAT_MAX)).unwrap();
            if cfg.receptors[i] == TrKind::TraceDriven {
                assert!(want.mean_network_latency.is_some(), "{at}");
                assert_eq!(mean, want.mean_network_latency, "{at}");
                assert!(0 < lat_min && lat_min <= lat_max, "{at}");
            } else {
                assert_eq!(mean, None, "{at}");
                assert_eq!((lat_min, lat_max), (u32::MAX, 0), "{at}");
            }
        }
        summaries.push(results.receptors);
    }
    assert_eq!(summaries[1], summaries[0], "Compiled");
}

#[test]
fn status_is_derived_on_every_engine_loop() {
    let mut emu = build(&paper());
    let ctrl = ControlDriver::new(emu.address_map().devices()[0].addr);
    assert_eq!(ctrl.status(&mut emu).unwrap(), 0, "reset");
    emu.engine_mut().step().unwrap();
    assert_eq!(ctrl.status(&mut emu).unwrap(), STATUS_RUNNING);
    run_engine(emu.engine_mut()).unwrap();
    assert_eq!(ctrl.status(&mut emu).unwrap(), STATUS_DONE);
    assert_eq!(ctrl.delivered(&mut emu).unwrap(), 400);
}

#[test]
fn only_traffic_model_registers_are_writable() {
    let mut emu = build(&paper());
    let map = emu.address_map().clone();
    let seeds = elaborate(&paper()).unwrap().tg_seeds;
    for (i, tg) in map.of_class(DeviceClass::TrafficGenerator).enumerate() {
        let seed = seeds[i];
        let at = |reg| tg.addr.reg(reg);
        assert_eq!(emu.read(at(tgreg::REG_CTRL)).unwrap(), 1);
        let read = emu.read_u64(at(tgreg::REG_SEED_LO), at(tgreg::REG_SEED_HI));
        assert_eq!(read.unwrap(), seed);
        for reg in [
            tgreg::REG_CTRL,
            tgreg::REG_STATUS,
            tgreg::REG_SEED_LO,
            tgreg::REG_SEED_HI,
            tgreg::REG_SENT_LO,
            tgreg::REG_SENT_HI,
            tgreg::REG_FLITS_LO,
            tgreg::REG_FLITS_HI,
            tgreg::REG_BLOCKED_LO,
            tgreg::REG_BLOCKED_HI,
        ] {
            assert_eq!(emu.write(at(reg), 7), Err(BusError::ReadOnly(at(reg))));
        }
    }
    // Nothing was programmed: the run is the configuration's.
    ControlDriver::new(map.devices()[0].addr)
        .start(&mut emu)
        .unwrap();
    emu.run_programmed().unwrap();
    assert_is_the_config_run(&mut emu, "refused writes");
}

/// A value to write at `addr`: small, arbitrary, all-ones, or the
/// register's current value nudged (which keeps most programs valid).
fn fuzz_value(c: &mut Choices, emu: &mut Board<AnyEngine>, addr: nocem_platform::Address) -> u32 {
    match c.below(4) {
        0 => c.range(0u32..16),
        1 => c.word() as u32,
        2 => u32::MAX,
        _ => emu
            .read(addr)
            .unwrap_or(0)
            .wrapping_add(c.range(0u32..5))
            .wrapping_sub(2),
    }
}

/// Generated register fuzz: 1 to 20 random writes to any device, a
/// cycle limit of at most 4 096, then start — each case drawn on the
/// interpreted engine's board and replayed on the compiled engine's.
/// Every case ends alike on both, in `Ok` — and
/// is then exactly the run of the configuration it elaborated — or in
/// a typed error; none panics.
#[test]
fn random_register_programs_run_as_their_config_or_fail_typed() {
    let (mut ran, mut refused) = (0, 0);
    check(
        "random_register_programs_run_as_their_config_or_fail_typed",
        0..64,
        |c| {
            let mut boards: Vec<Board<AnyEngine>> = ENGINES
                .iter()
                .map(|&engine| build(&paper().with_engine(engine)))
                .collect();
            let map = boards[0].address_map().clone();
            let devices = map.devices();
            for _ in 0..c.range(1u32..=20) {
                let device = devices[c.below(devices.len())];
                let addr = device.addr.reg(c.range(0u16..0x18));
                let value = fuzz_value(c, &mut boards[0], addr);
                // A refused write is part of the fuzz, not its failure.
                let wrote: Vec<_> = boards.iter_mut().map(|b| b.write(addr, value)).collect();
                assert!(wrote.iter().all(|w| *w == wrote[0]), "{wrote:?}");
            }
            let ctrl = devices[0].addr;
            let limit = c.range(1u64..=4_096);
            let (lo, hi) = (control::REG_LIMIT_LO, control::REG_LIMIT_HI);
            let mut outcomes = Vec::new();
            for (board, engine) in boards.iter_mut().zip(ENGINES) {
                board.write_u64(ctrl.reg(lo), ctrl.reg(hi), limit).unwrap();
                ControlDriver::new(ctrl).start(board).unwrap();
                let outcome = board.run_programmed();
                match &outcome {
                    Ok(()) => assert_is_the_config_run(board, &format!("{engine:?}")),
                    Err(
                        EmulationError::Bus(_)
                        | EmulationError::Compile(_)
                        | EmulationError::CycleLimitExceeded { .. },
                    ) => {}
                    Err(other) => panic!("{engine:?}: unexpected error {other}"),
                }
                outcomes.push(outcome);
            }
            assert!(
                outcomes.iter().all(|o| *o == outcomes[0]),
                "the case ends unlike on the two engines: {outcomes:?}"
            );
            match outcomes[0] {
                Ok(()) => ran += 1,
                Err(_) => refused += 1,
            }
            Ok(())
        },
    );
    assert!(ran >= 8 && refused >= 8, "{ran} ran, {refused} refused");
}
