//! The control module: the small device that orchestrates a run.
//!
//! In the paper's platform, the processor starts/stops the emulation
//! and polls progress through the control module (Table 1 lists it at
//! a mere 18 slices — it is just a handful of registers and counters).
//! [`ControlModule`] is that register block; [`ControlDriver`] is the
//! software half that programs it over any [`BusAccess`].

use crate::addr::{Address, DeviceAddr};
use crate::bus::{BusAccess, BusError};
use crate::regfile::{Access, RegFile};

/// Control register: bit 0 starts the emulation.
pub const REG_CTRL: u16 = 0x0;
/// Status register (read-only): see [`STATUS_RUNNING`] / [`STATUS_DONE`].
pub const REG_STATUS: u16 = 0x1;
/// Elapsed platform cycles, low half (read-only).
pub const REG_CYCLES_LO: u16 = 0x2;
/// Elapsed platform cycles, high half (read-only).
pub const REG_CYCLES_HI: u16 = 0x3;
/// Stop-after-N-delivered-packets target, low half.
pub const REG_TARGET_LO: u16 = 0x4;
/// Stop-after-N-delivered-packets target, high half.
pub const REG_TARGET_HI: u16 = 0x5;
/// Packets delivered so far, low half (read-only).
pub const REG_DELIVERED_LO: u16 = 0x6;
/// Packets delivered so far, high half (read-only).
pub const REG_DELIVERED_HI: u16 = 0x7;
/// Safety cycle limit, low half (0 = unlimited).
pub const REG_LIMIT_LO: u16 = 0x8;
/// Safety cycle limit, high half.
pub const REG_LIMIT_HI: u16 = 0x9;
/// Platform random seed, low half.
pub const REG_SEED_LO: u16 = 0xA;
/// Platform random seed, high half.
pub const REG_SEED_HI: u16 = 0xB;

/// Number of control-module registers.
pub const CTRL_REG_COUNT: u16 = 0xC;

/// STATUS bit: the emulation is running.
pub const STATUS_RUNNING: u32 = 1 << 0;
/// STATUS bit: the emulation finished (target met or limit hit).
pub const STATUS_DONE: u32 = 1 << 1;

/// CTRL bit: start request.
pub const CTRL_START: u32 = 1 << 0;

/// The control module device model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlModule {
    regs: RegFile,
}

impl Default for ControlModule {
    fn default() -> Self {
        Self::new()
    }
}

impl ControlModule {
    /// Creates a reset control module.
    pub fn new() -> Self {
        let mut access = vec![Access::ReadWrite; usize::from(CTRL_REG_COUNT)];
        for ro in [
            REG_STATUS,
            REG_CYCLES_LO,
            REG_CYCLES_HI,
            REG_DELIVERED_LO,
            REG_DELIVERED_HI,
        ] {
            access[usize::from(ro)] = Access::ReadOnly;
        }
        ControlModule {
            regs: RegFile::new(&access),
        }
    }

    /// Software-side register read.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the register file.
    pub fn bus_read(&self, addr: Address) -> Result<u32, BusError> {
        self.regs.bus_read(addr)
    }

    /// Software-side register write.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the register file.
    pub fn bus_write(&mut self, addr: Address, value: u32) -> Result<(), BusError> {
        self.regs.bus_write(addr, value)
    }

    /// Whether software has requested a start.
    pub fn start_requested(&self) -> bool {
        self.regs.get(REG_CTRL) & CTRL_START != 0
    }

    /// Hardware side: reflect run state into STATUS.
    pub fn set_running(&mut self, running: bool) {
        let mut s = self.regs.get(REG_STATUS);
        if running {
            s |= STATUS_RUNNING;
        } else {
            s &= !STATUS_RUNNING;
        }
        self.regs.set(REG_STATUS, s);
    }

    /// Hardware side: mark the run finished (which clears running), or
    /// not finished.
    pub fn set_done(&mut self, done: bool) {
        let s = self.regs.get(REG_STATUS);
        let s = if done {
            (s & !STATUS_RUNNING) | STATUS_DONE
        } else {
            s & !STATUS_DONE
        };
        self.regs.set(REG_STATUS, s);
    }

    /// Hardware side: update the cycle counter.
    pub fn set_cycles(&mut self, cycles: u64) {
        self.regs.set_u64(REG_CYCLES_LO, REG_CYCLES_HI, cycles);
    }

    /// Hardware side: update the delivered-packet counter.
    pub fn set_delivered(&mut self, packets: u64) {
        self.regs
            .set_u64(REG_DELIVERED_LO, REG_DELIVERED_HI, packets);
    }

    /// Configured delivered-packet target (0 = none).
    pub fn target(&self) -> u64 {
        self.regs.get_u64(REG_TARGET_LO, REG_TARGET_HI)
    }

    /// Configured cycle limit (0 = unlimited).
    pub fn cycle_limit(&self) -> u64 {
        self.regs.get_u64(REG_LIMIT_LO, REG_LIMIT_HI)
    }

    /// Configured platform seed.
    pub fn seed(&self) -> u64 {
        self.regs.get_u64(REG_SEED_LO, REG_SEED_HI)
    }

    /// Elapsed cycles as reported to software.
    pub fn cycles(&self) -> u64 {
        self.regs.get_u64(REG_CYCLES_LO, REG_CYCLES_HI)
    }
}

/// Typed software driver for the control module.
#[derive(Debug, Clone, Copy)]
pub struct ControlDriver {
    base: DeviceAddr,
}

impl ControlDriver {
    /// Creates a driver bound to the control module at `base`.
    pub fn new(base: DeviceAddr) -> Self {
        ControlDriver { base }
    }

    /// The device slot this driver programs.
    pub fn base(&self) -> DeviceAddr {
        self.base
    }

    /// Programs target, cycle limit and seed.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn configure<B: BusAccess>(
        &self,
        bus: &mut B,
        target_packets: u64,
        cycle_limit: u64,
        seed: u64,
    ) -> Result<(), BusError> {
        bus.write_u64(
            self.base.reg(REG_TARGET_LO),
            self.base.reg(REG_TARGET_HI),
            target_packets,
        )?;
        bus.write_u64(
            self.base.reg(REG_LIMIT_LO),
            self.base.reg(REG_LIMIT_HI),
            cycle_limit,
        )?;
        bus.write_u64(self.base.reg(REG_SEED_LO), self.base.reg(REG_SEED_HI), seed)
    }

    /// Sets the start bit.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn start<B: BusAccess>(&self, bus: &mut B) -> Result<(), BusError> {
        bus.write(self.base.reg(REG_CTRL), CTRL_START)
    }

    /// Reads the raw status word.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn status<B: BusAccess>(&self, bus: &mut B) -> Result<u32, BusError> {
        bus.read(self.base.reg(REG_STATUS))
    }

    /// Reads the elapsed cycle counter.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn cycles<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        bus.read_u64(self.base.reg(REG_CYCLES_LO), self.base.reg(REG_CYCLES_HI))
    }

    /// Reads the delivered-packet counter.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn delivered<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        bus.read_u64(
            self.base.reg(REG_DELIVERED_LO),
            self.base.reg(REG_DELIVERED_HI),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::ids::{BusId, DeviceId};

    fn base() -> DeviceAddr {
        DeviceAddr::new(BusId::new(0), DeviceId::new(0))
    }

    #[test]
    fn status_bits() {
        let mut cm = ControlModule::new();
        let status = |cm: &mut ControlModule| cm.bus_read(base().reg(REG_STATUS)).unwrap();
        assert!(!cm.start_requested());
        assert_eq!(status(&mut cm) & STATUS_DONE, 0);
        cm.set_running(true);
        assert_eq!(status(&mut cm), STATUS_RUNNING);
        cm.set_done(true);
        let s = status(&mut cm);
        assert_ne!(s & STATUS_DONE, 0);
        assert_eq!(s & STATUS_RUNNING, 0, "done clears running");
        cm.set_done(false);
        assert_eq!(status(&mut cm) & STATUS_DONE, 0);
    }

    #[test]
    fn software_cannot_write_counters() {
        let mut cm = ControlModule::new();
        assert!(matches!(
            cm.bus_write(base().reg(REG_CYCLES_LO), 1),
            Err(BusError::ReadOnly(_))
        ));
        cm.set_cycles(0x1_0000_0001);
        assert_eq!(cm.cycles(), 0x1_0000_0001);
    }

    #[test]
    fn configuration_through_registers() {
        let mut cm = ControlModule::new();
        cm.bus_write(base().reg(REG_TARGET_LO), 500).unwrap();
        cm.bus_write(base().reg(REG_LIMIT_LO), 9_999).unwrap();
        cm.bus_write(base().reg(REG_SEED_LO), 42).unwrap();
        cm.bus_write(base().reg(REG_CTRL), CTRL_START).unwrap();
        assert_eq!(cm.target(), 500);
        assert_eq!(cm.cycle_limit(), 9_999);
        assert_eq!(cm.seed(), 42);
        assert!(cm.start_requested());
    }

    /// Bus backed directly by a ControlModule, for driver tests.
    struct OneDeviceBus {
        cm: ControlModule,
    }

    impl BusAccess for OneDeviceBus {
        fn read(&mut self, addr: Address) -> Result<u32, BusError> {
            self.cm.bus_read(addr)
        }

        fn write(&mut self, addr: Address, value: u32) -> Result<(), BusError> {
            self.cm.bus_write(addr, value)
        }
    }

    #[test]
    fn driver_round_trip() {
        let mut bus = OneDeviceBus {
            cm: ControlModule::new(),
        };
        let drv = ControlDriver::new(base());
        assert_eq!(drv.base(), base());
        drv.configure(&mut bus, 1_000, 50_000, 7).unwrap();
        drv.start(&mut bus).unwrap();
        assert!(bus.cm.start_requested());
        assert_eq!(bus.cm.target(), 1_000);
        assert_eq!(bus.cm.cycle_limit(), 50_000);
        assert_eq!(bus.cm.seed(), 7);

        bus.cm.set_cycles(123);
        bus.cm.set_delivered(45);
        assert_eq!(drv.cycles(&mut bus).unwrap(), 123);
        assert_eq!(drv.delivered(&mut bus).unwrap(), 45);
        bus.cm.set_done(true);
        assert_eq!(drv.status(&mut bus).unwrap() & STATUS_DONE, STATUS_DONE);
    }

    #[test]
    fn default_is_new() {
        assert_eq!(ControlModule::default(), ControlModule::new());
    }
}
