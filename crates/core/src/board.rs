//! The board: the paper's memory-mapped bus, once, in front of any
//! engine. It owns the control module, the TG register shadows, the
//! monitor's link selector and a copy of the address map; every other
//! register reads the engine's architectural-state view or telemetry
//! collector ([`crate::devices`]), so it reads alike on every engine.

use crate::clock::{run_engine, SteppableEngine};
use crate::compile::{elaborate, Elaboration};
use crate::config::PlatformConfig;
use crate::devices::{self, TgShadow};
use crate::error::{CompileError, EmulationError};
use crate::sweep::AnyEngine;
use nocem_common::ids::{BusId, DeviceId};
use nocem_platform::addr::{Address, DeviceAddr, DEVICES_PER_BUS};
use nocem_platform::bus::{AddressMap, BusAccess, BusError, DeviceClass};
use nocem_platform::control::{ControlModule, REG_CTRL};

/// An engine behind the paper's memory-mapped bus (module docs).
pub struct Board<E: SteppableEngine> {
    engine: E,
    /// What programmed runs are rebuilt with.
    build: fn(Elaboration) -> E,
    /// The configuration the engine runs.
    config: PlatformConfig,
    map: AddressMap,
    control: ControlModule,
    tg_shadow: Vec<TgShadow>,
    /// Link selected through the monitor device's `SELECT` register.
    monitor_select: u32,
}

impl Board<AnyEngine> {
    /// Compiles `config` onto the engine `config.engine` names, behind a
    /// bus.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`].
    pub fn build(config: &PlatformConfig) -> Result<Self, CompileError> {
        Ok(Board::new(elaborate(config)?, AnyEngine::from_elaboration))
    }
}

impl<E: SteppableEngine> Board<E> {
    /// Puts `elab` behind a bus on the engine `build` makes of it, as
    /// every programmed run will be.
    pub fn new(elab: Elaboration, build: fn(Elaboration) -> E) -> Self {
        let (config, map) = (elab.config.clone(), elab.map.clone());
        let mut tg_shadow: Vec<TgShadow> =
            config.generators.iter().map(TgShadow::from_model).collect();
        latch_seeds(&mut tg_shadow, &elab.tg_seeds);
        Board {
            engine: build(elab),
            build,
            config,
            map,
            control: ControlModule::new(),
            tg_shadow,
            monitor_select: 0,
        }
    }

    /// The engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The engine, to step or run directly.
    pub fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    /// The configuration the engine runs — after
    /// [`Board::run_programmed`], the programmed one.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The address map (for drivers to locate devices).
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Runs the platform the registers describe, the path the paper's
    /// software takes. Programming is configuration: the control
    /// module's nonzero TARGET, LIMIT and SEED and the model of every
    /// TG whose registers were written are applied to a copy of the
    /// configuration, which [`elaborate`] validates, routes and seeds
    /// like any other; the engine is rebuilt from it and run from reset.
    /// The bus side carries over.
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError::Bus`] if the start bit is not set or a
    /// TG's registers do not decode into a traffic model, and
    /// [`EmulationError::Compile`] if the programmed configuration does
    /// not compile; otherwise propagates run errors.
    pub fn run_programmed(&mut self) -> Result<(), EmulationError> {
        if !self.control.start_requested() {
            // The control module's slot (even on an unmapped platform,
            // whose start bit can never be set).
            let ctrl = DeviceAddr::new(BusId::new(0), DeviceId::new(0));
            return Err(EmulationError::Bus(BusError::InvalidValue {
                addr: ctrl.reg(REG_CTRL),
                reason: "start bit not set".into(),
            }));
        }
        let mut config = self.config.clone();
        let control = &self.control;
        if control.target() != 0 {
            config.stop.delivered_packets = Some(control.target());
        }
        if control.cycle_limit() != 0 {
            config.stop.cycle_limit = control.cycle_limit();
        }
        if control.seed() != 0 {
            config.seed = control.seed();
        }
        for (shadow, model) in self.tg_shadow.iter().zip(&mut config.generators) {
            if shadow.dirty {
                *model = shadow.to_model(model)?;
            }
        }
        let elab = elaborate(&config)?;
        let seeds = elab.tg_seeds.clone();
        self.engine = (self.build)(elab);
        self.config = config;
        latch_seeds(&mut self.tg_shadow, &seeds);
        run_engine(&mut self.engine)
    }

    /// The class and class index of the device at `addr`: the map
    /// allocates slots in order, so slot `n` is `devices()[n]`.
    fn device(&self, addr: Address) -> Result<(DeviceClass, usize), BusError> {
        let d = addr.device_addr();
        let n =
            usize::from(d.bus.raw()) * usize::from(DEVICES_PER_BUS) + usize::from(d.device.raw());
        let device = self.map.devices().get(n);
        device
            .map(|m| (m.class, m.index as usize))
            .ok_or(BusError::Unmapped(addr))
    }
}

/// Latches the seeds elaboration drew into the TG shadows.
fn latch_seeds(shadows: &mut [TgShadow], seeds: &[u64]) {
    for (shadow, &seed) in shadows.iter_mut().zip(seeds) {
        shadow.latch_seed(seed);
    }
}

impl<E: SteppableEngine> BusAccess for Board<E> {
    fn read(&mut self, addr: Address) -> Result<u32, BusError> {
        match self.device(addr)? {
            (DeviceClass::Control, _) => {
                // STATUS: running once the clock left cycle 0, until done.
                let (now, done) = (self.engine.now().raw(), self.engine.finished());
                self.control.set_cycles(now);
                self.control.set_delivered(self.engine.delivered());
                self.control.set_running(now > 0 && !done);
                self.control.set_done(done);
                self.control.bus_read(addr)
            }
            (DeviceClass::TrafficGenerator, i) => {
                devices::tg_read(self.engine.arch_view(), &self.tg_shadow[i], i, addr)
            }
            (DeviceClass::TrafficReceptor, i) => devices::tr_read(self.engine.arch_view(), i, addr),
            (DeviceClass::Switch, i) => devices::switch_read(self.engine.arch_view(), i, addr),
            (DeviceClass::Monitor, _) => {
                let links = self.config.topology.link_count();
                devices::monitor_read(self.engine.telemetry(), links, self.monitor_select, addr)
            }
        }
    }

    fn write(&mut self, addr: Address, value: u32) -> Result<(), BusError> {
        match self.device(addr)? {
            (DeviceClass::Control, _) => self.control.bus_write(addr, value),
            (DeviceClass::TrafficGenerator, i) => {
                if self.engine.now().raw() > 0 {
                    return Err(BusError::InvalidValue {
                        addr,
                        reason: "traffic parameters are locked while running".into(),
                    });
                }
                self.tg_shadow[i].bus_write(addr, value)
            }
            (DeviceClass::TrafficReceptor, _) | (DeviceClass::Switch, _) => {
                Err(BusError::ReadOnly(addr))
            }
            (DeviceClass::Monitor, _) => {
                let links = self.config.topology.link_count();
                devices::monitor_write(links, &mut self.monitor_select, addr, value)
            }
        }
    }
}
