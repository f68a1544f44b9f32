//! The bus in lockstep: one [`Board`] per engine — the interpreted and
//! compiled engines, TLM and RTL — each every-cycle and gated, stepped
//! side by side on one run with telemetry on. Wherever they stand on
//! one cycle, every mapped register of every device reads alike on all
//! eight; the comparison runs at every telemetry window
//! boundary a board stands on and at the end of the run.

use nocem::config::{EngineKind, PaperConfig, PlatformConfig, TrafficModel};
use nocem::devices::{monreg, swreg, trreg};
use nocem::{elaborate, Board, ClockMode, SteppableEngine};
use nocem_platform::bus::{AddressMap, BusAccess, BusError, DeviceClass};
use nocem_platform::control::CTRL_REG_COUNT;
use nocem_platform::Address;
use nocem_rtl::RtlEngine;
use nocem_stats::TrKind;
use nocem_telemetry::TelemetryConfig;
use nocem_tlm::TlmEngine;
use nocem_traffic::registers as tgreg;

/// The telemetry window, in cycles.
const WINDOW: u64 = 128;

/// A board of any engine, stepped and read through one interface.
trait Subject: BusAccess {
    fn engine(&mut self) -> &mut dyn SteppableEngine;
}

impl<E: SteppableEngine> Subject for Board<E> {
    fn engine(&mut self) -> &mut dyn SteppableEngine {
        self.engine_mut()
    }
}

/// The paper platform with gaps the gated clock can jump, both receptor
/// kinds, and telemetry.
fn platform() -> PlatformConfig {
    let mut cfg = PaperConfig::new().total_packets(200).uniform();
    for g in &mut cfg.generators {
        if let TrafficModel::Uniform(u) = g {
            u.gap = (40, 60);
        }
    }
    cfg.receptors = vec![
        TrKind::Stochastic,
        TrKind::TraceDriven,
        TrKind::Stochastic,
        TrKind::TraceDriven,
    ];
    cfg.with_telemetry(Some(TelemetryConfig::windowed(WINDOW)))
}

/// The eight boards, every-cycle ones first; the first is the reference.
fn boards(cfg: &PlatformConfig) -> Vec<(String, Box<dyn Subject>)> {
    let mut out: Vec<(String, Box<dyn Subject>)> = Vec::new();
    for mode in [ClockMode::EveryCycle, ClockMode::Gated] {
        let cfg = cfg.clone().with_clock_mode(mode);
        for engine in [EngineKind::SingleThread, EngineKind::Compiled] {
            let board = Board::build(&cfg.clone().with_engine(engine)).unwrap();
            out.push((format!("{engine:?} {mode:?}"), Box::new(board)));
        }
        let elab = || elaborate(&cfg).unwrap();
        let tlm = Board::<TlmEngine>::new(elab(), TlmEngine::new);
        out.push((format!("TLM {mode:?}"), Box::new(tlm)));
        let rtl = Board::<RtlEngine>::new(elab(), RtlEngine::new);
        out.push((format!("RTL {mode:?}"), Box::new(rtl)));
    }
    out
}

/// Every mapped register of every device, the monitor's once per
/// selected link, with what each read returned.
fn registers(board: &mut dyn Subject, map: &AddressMap) -> Vec<(Address, Result<u32, BusError>)> {
    let mut out = Vec::new();
    for d in map.devices() {
        let regs = match d.class {
            DeviceClass::Control => CTRL_REG_COUNT,
            DeviceClass::TrafficGenerator => tgreg::TG_REG_COUNT,
            DeviceClass::TrafficReceptor => trreg::TR_REG_COUNT,
            DeviceClass::Switch => swreg::SW_REG_COUNT,
            DeviceClass::Monitor => monreg::MON_REG_COUNT,
        };
        let selects = if d.class == DeviceClass::Monitor {
            board.read(d.addr.reg(monreg::REG_LINKS)).unwrap()
        } else {
            1
        };
        for link in 0..selects {
            if d.class == DeviceClass::Monitor {
                board.write(d.addr.reg(monreg::REG_SELECT), link).unwrap();
            }
            for reg in 0..regs {
                let at = d.addr.reg(reg);
                out.push((at, board.read(at)));
            }
        }
    }
    out
}

/// Asserts that `board` reads every register as `want` does.
fn assert_reads(
    want: &[(Address, Result<u32, BusError>)],
    board: &mut dyn Subject,
    map: &AddressMap,
    what: &str,
) {
    let got = registers(board, map);
    assert_eq!(got.len(), want.len(), "{what}: register count");
    if let Some((g, w)) = got.iter().zip(want).find(|(g, w)| g != w) {
        let device = map.device_at(g.0.device_addr()).unwrap().label();
        panic!(
            "{what}: {device} register {:#x} reads {:?}, the reference {:?}",
            g.0.reg(),
            g.1,
            w.1
        );
    }
}

#[test]
fn every_register_reads_alike_on_every_engine_and_clock_mode() {
    let cfg = platform();
    let map = elaborate(&cfg).unwrap().map;
    let mut subjects = boards(&cfg);
    let (reference, rest) = subjects.split_first_mut().unwrap();
    let mut compared = vec![0u32; rest.len()];
    let mut boundaries = 0;
    while !reference.1.engine().finished() {
        reference.1.engine().step().unwrap();
        let now = reference.1.engine().now();
        for (name, s) in rest.iter_mut() {
            // A gated board may have jumped past `now`; it waits there.
            while s.engine().now() < now {
                let step = s.engine().step();
                step.unwrap_or_else(|e| panic!("{name} failed before cycle {now:?}: {e}"));
            }
        }
        if now.raw() % WINDOW != 0 {
            continue;
        }
        boundaries += 1;
        let want = registers(&mut *reference.1, &map);
        for ((name, s), n) in rest.iter_mut().zip(&mut compared) {
            if s.engine().now() == now {
                assert_reads(&want, &mut **s, &map, &format!("{name} at cycle {now:?}"));
                *n += 1;
            }
        }
    }
    let now = reference.1.engine().now();
    let want = registers(&mut *reference.1, &map);
    for (name, s) in rest.iter_mut() {
        assert_eq!(s.engine().now(), now, "{name}: stop cycle");
        assert!(s.engine().finished(), "{name}: stop condition lagged");
        assert_reads(&want, &mut **s, &map, &format!("{name} at the end"));
    }
    // Every every-cycle board stood on every boundary, and the gated
    // clock both stood on some and jumped others.
    assert!(boundaries >= 16, "{boundaries} boundaries");
    for ((name, _), &n) in rest.iter().zip(&compared) {
        if name.ends_with("EveryCycle") {
            assert_eq!(n, boundaries, "{name}");
        } else {
            assert!(0 < n && n < boundaries, "{name}: {n} of {boundaries}");
        }
    }
}
