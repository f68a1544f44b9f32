//! Memory-mapped device views and their typed drivers.
//!
//! Every platform component is visible to the configuration software
//! as a register file (the paper: "the processor can access each
//! component by accessing their specific addresses"). This module
//! defines
//!
//! * the TG register *shadow* ([`TgShadow`]): its writable registers
//!   are exactly a traffic model's fields, and when the start bit is
//!   set [`crate::Board::run_programmed`] decodes them back into the
//!   configuration it elaborates; every other TG register is
//!   read-only;
//! * the read-only registers of TGs, TRs and switches, each a plain
//!   function of the architectural-state view ([`ArchView`]) every
//!   engine fills, and the monitor's, a function of the telemetry
//!   collector — so a register reads alike on every engine standing on
//!   the same cycle;
//! * the typed drivers ([`TgDriver`], [`TrDriver`], [`SwitchDriver`],
//!   [`MonitorDriver`]) — the "software part" that programs and polls
//!   the devices over any [`BusAccess`].

use crate::config::TrafficModel;
use crate::view::ArchView;
use nocem_common::ids::{EndpointId, FlowId};
use nocem_platform::addr::{Address, DeviceAddr};
use nocem_platform::bus::{BusAccess, BusError};
use nocem_platform::regfile::{Access, RegFile};
use nocem_telemetry::Collector;
use nocem_traffic::generator::{DestinationModel, LengthModel};
use nocem_traffic::registers as tgreg;
use nocem_traffic::stochastic::{BurstConfig, PoissonConfig, UniformConfig};

/// Marker for "keep the compiled destination model" in the DST
/// register (used when the destination is not a single endpoint).
const DST_KEEP: u32 = u32::MAX;
/// Marker for an unbounded packet budget.
const BUDGET_UNBOUNDED: u64 = u64::MAX;

/// Encodes a traffic model into `(register, value)` pairs.
pub fn model_register_image(model: &TrafficModel) -> Vec<(u16, u32)> {
    let mut img = Vec::new();
    let push_len = |img: &mut Vec<(u16, u32)>, len: &LengthModel| {
        let (min, max) = match *len {
            LengthModel::Fixed(n) => (n, n),
            LengthModel::UniformRange { min, max } => (min, max),
        };
        img.push((
            tgreg::REG_PACKET_LEN,
            (u32::from(max) << 16) | u32::from(min),
        ));
    };
    let push_budget = |img: &mut Vec<(u16, u32)>, budget: Option<u64>| {
        let b = budget.unwrap_or(BUDGET_UNBOUNDED);
        img.push((tgreg::REG_BUDGET_LO, b as u32));
        img.push((tgreg::REG_BUDGET_HI, (b >> 32) as u32));
    };
    let push_dst = |img: &mut Vec<(u16, u32)>, dst: &DestinationModel| match dst {
        DestinationModel::Fixed { dst, flow } => {
            img.push((tgreg::REG_DST, dst.raw()));
            img.push((tgreg::REG_FLOW, flow.raw()));
        }
        DestinationModel::UniformChoice(_)
        | DestinationModel::Weighted(_)
        | DestinationModel::UniformRow(_)
        | DestinationModel::WeightedRow(_) => {
            // Distribution models live in the software shadow; the
            // register file only knows "keep the elaborated model".
            img.push((tgreg::REG_DST, DST_KEEP));
        }
    };
    match model {
        TrafficModel::Uniform(u) => {
            img.push((tgreg::REG_MODEL, tgreg::ModelCode::Uniform as u32));
            push_len(&mut img, &u.length);
            img.push((tgreg::REG_GAP_MIN, u.gap.0));
            img.push((tgreg::REG_GAP_MAX, u.gap.1));
            push_budget(&mut img, u.budget);
            push_dst(&mut img, &u.destination);
        }
        TrafficModel::Burst(b) => {
            img.push((tgreg::REG_MODEL, tgreg::ModelCode::Burst as u32));
            push_len(&mut img, &b.length);
            img.push((
                tgreg::REG_START_PROB,
                tgreg::prob_to_q16(b.start_probability),
            ));
            img.push((
                tgreg::REG_CONT_PROB,
                tgreg::prob_to_q16(b.continue_probability),
            ));
            push_budget(&mut img, b.budget);
            push_dst(&mut img, &b.destination);
        }
        TrafficModel::Poisson(p) => {
            img.push((tgreg::REG_MODEL, tgreg::ModelCode::Poisson as u32));
            push_len(&mut img, &p.length);
            img.push((
                tgreg::REG_START_PROB,
                tgreg::prob_to_q16(p.start_probability),
            ));
            push_budget(&mut img, p.budget);
            push_dst(&mut img, &p.destination);
        }
        TrafficModel::Trace(_) => {
            img.push((tgreg::REG_MODEL, tgreg::ModelCode::Trace as u32));
        }
    }
    img
}

/// The TG configuration registers software programs (shadow of the
/// traffic model).
#[derive(Debug, Clone)]
pub struct TgShadow {
    /// The register values; only the traffic-model fields are
    /// writable.
    pub regs: RegFile,
    /// Whether software wrote anything since elaboration.
    pub dirty: bool,
}

impl TgShadow {
    /// Builds the shadow matching a compiled traffic model.
    pub fn from_model(model: &TrafficModel) -> Self {
        // Writable: the registers a model is encoded in (the image).
        let access: Vec<Access> = (0..tgreg::TG_REG_COUNT)
            .map(|reg| match reg {
                tgreg::REG_MODEL | tgreg::REG_PACKET_LEN..=tgreg::REG_FLOW => Access::ReadWrite,
                _ => Access::ReadOnly,
            })
            .collect();
        let mut regs = RegFile::new(&access);
        regs.set(tgreg::REG_CTRL, 1);
        for (reg, value) in model_register_image(model) {
            regs.set(reg, value);
        }
        TgShadow { regs, dirty: false }
    }

    /// Latches the seed elaboration drew for this TG into its
    /// read-only SEED registers.
    pub(crate) fn latch_seed(&mut self, seed: u64) {
        self.regs
            .set_u64(tgreg::REG_SEED_LO, tgreg::REG_SEED_HI, seed);
    }

    /// Software write into the shadow.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for out-of-range and read-only registers.
    pub fn bus_write(&mut self, addr: Address, value: u32) -> Result<(), BusError> {
        self.regs.bus_write(addr, value)?;
        self.dirty = true;
        Ok(())
    }

    fn length(&self) -> Result<LengthModel, String> {
        let raw = self.regs.get(tgreg::REG_PACKET_LEN);
        let min = (raw & 0xFFFF) as u16;
        let max = (raw >> 16) as u16;
        if min == 0 || min > max {
            return Err(format!("malformed packet length register {raw:#x}"));
        }
        Ok(if min == max {
            LengthModel::Fixed(min)
        } else {
            LengthModel::UniformRange { min, max }
        })
    }

    fn budget(&self) -> Option<u64> {
        let b = self
            .regs
            .get_u64(tgreg::REG_BUDGET_LO, tgreg::REG_BUDGET_HI);
        (b != BUDGET_UNBOUNDED).then_some(b)
    }

    fn destination(&self, original: &DestinationModel) -> DestinationModel {
        let dst = self.regs.get(tgreg::REG_DST);
        if dst == DST_KEEP {
            original.clone()
        } else {
            DestinationModel::Fixed {
                dst: EndpointId::new(dst),
                flow: FlowId::new(self.regs.get(tgreg::REG_FLOW)),
            }
        }
    }

    /// Decodes the shadow back into a traffic model. `original` is the
    /// compiled model, consulted for state a register cannot encode
    /// (trace contents, destination choice lists).
    ///
    /// # Errors
    ///
    /// Returns [`BusError::InvalidValue`] for malformed register
    /// contents (unknown model code, zero packet length, trace model
    /// selected without a compiled trace).
    pub fn to_model(&self, original: &TrafficModel) -> Result<TrafficModel, BusError> {
        let fault = |reason: String| BusError::InvalidValue {
            // Reported against the model register; precise enough for
            // configuration debugging.
            addr: Address::from_parts(
                nocem_common::ids::BusId::new(0),
                nocem_common::ids::DeviceId::new(0),
                tgreg::REG_MODEL,
            ),
            reason,
        };
        let code = tgreg::ModelCode::from_raw(self.regs.get(tgreg::REG_MODEL))
            .ok_or_else(|| fault("unknown traffic model code".into()))?;
        let original_dst = match original {
            TrafficModel::Uniform(u) => &u.destination,
            TrafficModel::Burst(b) => &b.destination,
            TrafficModel::Poisson(p) => &p.destination,
            TrafficModel::Trace(_) => &DestinationModel::UniformChoice(Vec::new()),
        };
        match code {
            tgreg::ModelCode::Uniform => Ok(TrafficModel::Uniform(UniformConfig {
                length: self.length().map_err(&fault)?,
                gap: (
                    self.regs.get(tgreg::REG_GAP_MIN),
                    self.regs.get(tgreg::REG_GAP_MAX),
                ),
                budget: self.budget(),
                destination: self.destination(original_dst),
            })),
            tgreg::ModelCode::Burst => Ok(TrafficModel::Burst(BurstConfig {
                length: self.length().map_err(&fault)?,
                start_probability: tgreg::q16_to_prob(self.regs.get(tgreg::REG_START_PROB)),
                continue_probability: tgreg::q16_to_prob(self.regs.get(tgreg::REG_CONT_PROB)),
                budget: self.budget(),
                destination: self.destination(original_dst),
            })),
            tgreg::ModelCode::Poisson => Ok(TrafficModel::Poisson(PoissonConfig {
                length: self.length().map_err(&fault)?,
                start_probability: tgreg::q16_to_prob(self.regs.get(tgreg::REG_START_PROB)),
                budget: self.budget(),
                destination: self.destination(original_dst),
            })),
            tgreg::ModelCode::Trace => match original {
                TrafficModel::Trace(t) => Ok(TrafficModel::Trace(t.clone())),
                _ => Err(fault(
                    "trace model selected but no trace was compiled in".into(),
                )),
            },
        }
    }
}

// --- Register reads over the view, the collector and the shadows -----

/// Checks `addr`'s register against a device of `regs` registers.
fn in_range(addr: Address, regs: u16) -> Result<u16, BusError> {
    let reg = addr.reg();
    if reg >= regs {
        return Err(BusError::RegisterOutOfRange { addr, regs });
    }
    Ok(reg)
}

/// TG `i`'s register at `addr`: STATUS and the counters from its NI's
/// row of `view`; `CTRL` (always enabled), `SEED` (the seed elaboration
/// drew) and the configuration from `shadow`.
pub(crate) fn tg_read(
    view: &ArchView,
    shadow: &TgShadow,
    i: usize,
    addr: Address,
) -> Result<u32, BusError> {
    let reg = in_range(addr, tgreg::TG_REG_COUNT)?;
    let row = &view.nis[i];
    let (sent, flits, blocked) = (row.accepted, row.link.forwarded, row.link.blocked);
    Ok(match reg {
        tgreg::REG_STATUS => u32::from(row.exhausted) | (u32::from(row.idle) << 1),
        tgreg::REG_SENT_LO => sent as u32,
        tgreg::REG_SENT_HI => (sent >> 32) as u32,
        tgreg::REG_FLITS_LO => flits as u32,
        tgreg::REG_FLITS_HI => (flits >> 32) as u32,
        tgreg::REG_BLOCKED_LO => blocked as u32,
        tgreg::REG_BLOCKED_HI => (blocked >> 32) as u32,
        other => shadow.regs.get(other),
    })
}

/// TR device registers.
pub mod trreg {
    /// Status: bit 0 = has received anything.
    pub const REG_STATUS: u16 = 0x0;
    /// Packets received, low half.
    pub const REG_PACKETS_LO: u16 = 0x1;
    /// Packets received, high half.
    pub const REG_PACKETS_HI: u16 = 0x2;
    /// Flits received, low half.
    pub const REG_FLITS_LO: u16 = 0x3;
    /// Flits received, high half.
    pub const REG_FLITS_HI: u16 = 0x4;
    /// Total running time in cycles, low half.
    pub const REG_RUNNING_LO: u16 = 0x5;
    /// Total running time in cycles, high half.
    pub const REG_RUNNING_HI: u16 = 0x6;
    /// Network-latency sample count, low half.
    pub const REG_LAT_COUNT_LO: u16 = 0x7;
    /// Network-latency sample count, high half.
    pub const REG_LAT_COUNT_HI: u16 = 0x8;
    /// Network-latency sum, low half.
    pub const REG_LAT_SUM_LO: u16 = 0x9;
    /// Network-latency sum, high half.
    pub const REG_LAT_SUM_HI: u16 = 0xA;
    /// Minimum network latency (saturates at `u32::MAX`).
    pub const REG_LAT_MIN: u16 = 0xB;
    /// Maximum network latency (saturates at `u32::MAX`).
    pub const REG_LAT_MAX: u16 = 0xC;
    /// Register count of a TR device.
    pub const TR_REG_COUNT: u16 = 0xD;
}

/// TR `i`'s register at `addr`, from its row of `view`.
pub(crate) fn tr_read(view: &ArchView, i: usize, addr: Address) -> Result<u32, BusError> {
    let reg = in_range(addr, trreg::TR_REG_COUNT)?;
    let row = &view.receptors[i];
    let (counters, latency) = (&row.counters, row.latency.as_ref());
    let sat32 = |v: u64| v.min(u64::from(u32::MAX)) as u32;
    let value = match reg {
        trreg::REG_STATUS => u32::from(counters.flits > 0),
        trreg::REG_PACKETS_LO => counters.packets as u32,
        trreg::REG_PACKETS_HI => (counters.packets >> 32) as u32,
        trreg::REG_FLITS_LO => counters.flits as u32,
        trreg::REG_FLITS_HI => (counters.flits >> 32) as u32,
        trreg::REG_RUNNING_LO => counters.running_time() as u32,
        trreg::REG_RUNNING_HI => (counters.running_time() >> 32) as u32,
        trreg::REG_LAT_COUNT_LO => latency.map_or(0, |l| l.count() as u32),
        trreg::REG_LAT_COUNT_HI => latency.map_or(0, |l| (l.count() >> 32) as u32),
        trreg::REG_LAT_SUM_LO => latency.map_or(0, |l| l.sum() as u32),
        trreg::REG_LAT_SUM_HI => latency.map_or(0, |l| (l.sum() >> 32) as u32),
        trreg::REG_LAT_MIN => latency.and_then(|l| l.min()).map_or(u32::MAX, sat32),
        trreg::REG_LAT_MAX => latency.and_then(|l| l.max()).map_or(0, sat32),
        _ => unreachable!("range checked above"),
    };
    Ok(value)
}

/// Switch statistics registers: sums over the switch's output ports,
/// the links its flits leave on.
pub mod swreg {
    /// Flits forwarded, low half.
    pub const REG_FORWARDED_LO: u16 = 0x0;
    /// Flits forwarded, high half.
    pub const REG_FORWARDED_HI: u16 = 0x1;
    /// Blocked cycles, low half: each cycle, one per buffered input VC
    /// that wanted an output and was not granted it.
    pub const REG_BLOCKED_LO: u16 = 0x2;
    /// Blocked cycles, high half.
    pub const REG_BLOCKED_HI: u16 = 0x3;
    /// Register count of a switch device.
    pub const SW_REG_COUNT: u16 = 0x4;
}

/// Switch `s`'s register at `addr`, summed over its output ports in
/// `view`.
pub(crate) fn switch_read(view: &ArchView, s: usize, addr: Address) -> Result<u32, BusError> {
    let reg = in_range(addr, swreg::SW_REG_COUNT)?;
    let outs = view.out_port_base[s] as usize..view.out_port_base[s + 1] as usize;
    let ports = &view.ports[outs];
    let forwarded: u64 = ports.iter().map(|p| p.forwarded).sum();
    let blocked: u64 = ports.iter().map(|p| p.blocked).sum();
    let value = match reg {
        swreg::REG_FORWARDED_LO => forwarded as u32,
        swreg::REG_FORWARDED_HI => (forwarded >> 32) as u32,
        swreg::REG_BLOCKED_LO => blocked as u32,
        swreg::REG_BLOCKED_HI => (blocked >> 32) as u32,
        _ => unreachable!("range checked above"),
    };
    Ok(value)
}

/// Telemetry monitor registers.
///
/// The monitor exposes the windowed congestion collector to the
/// emulated software: select a link via `REG_SELECT`, then poll its
/// most recent window and lifetime totals; `REG_HOT_*` shortcut to
/// the most blocked link without scanning. All counters read as zero
/// while telemetry is disabled (`REG_WINDOW == 0` tells software so).
pub mod monreg {
    /// Telemetry window length in cycles; 0 = telemetry disabled.
    pub const REG_WINDOW: u16 = 0x0;
    /// Windows recorded so far (saturates at `u32::MAX`).
    pub const REG_WINDOWS: u16 = 0x1;
    /// Number of links in the topology.
    pub const REG_LINKS: u16 = 0x2;
    /// Link selector for the `LAST_*`/`TOTAL_*` registers (RW).
    pub const REG_SELECT: u16 = 0x3;
    /// Selected link: flits forwarded in the last window, low half.
    pub const REG_LAST_FORWARDED_LO: u16 = 0x4;
    /// Selected link: flits forwarded in the last window, high half.
    pub const REG_LAST_FORWARDED_HI: u16 = 0x5;
    /// Selected link: blocked cycles in the last window, low half.
    pub const REG_LAST_BLOCKED_LO: u16 = 0x6;
    /// Selected link: blocked cycles in the last window, high half.
    pub const REG_LAST_BLOCKED_HI: u16 = 0x7;
    /// Selected link: lifetime flits forwarded, low half.
    pub const REG_TOTAL_FORWARDED_LO: u16 = 0x8;
    /// Selected link: lifetime flits forwarded, high half.
    pub const REG_TOTAL_FORWARDED_HI: u16 = 0x9;
    /// Selected link: lifetime blocked cycles, low half.
    pub const REG_TOTAL_BLOCKED_LO: u16 = 0xA;
    /// Selected link: lifetime blocked cycles, high half.
    pub const REG_TOTAL_BLOCKED_HI: u16 = 0xB;
    /// Link id with the most lifetime blocked cycles.
    pub const REG_HOT_LINK: u16 = 0xC;
    /// Blocked cycles of the hottest link, low half.
    pub const REG_HOT_BLOCKED_LO: u16 = 0xD;
    /// Blocked cycles of the hottest link, high half.
    pub const REG_HOT_BLOCKED_HI: u16 = 0xE;
    /// Register count of the monitor device.
    pub const MON_REG_COUNT: u16 = 0xF;
}

/// The monitor's register at `addr` over `telemetry`, on a topology of
/// `links` links with link `select` selected.
pub(crate) fn monitor_read(
    telemetry: Option<&Collector>,
    links: usize,
    select: u32,
    addr: Address,
) -> Result<u32, BusError> {
    let reg = in_range(addr, monreg::MON_REG_COUNT)?;
    if reg == monreg::REG_LINKS {
        return Ok(links as u32);
    }
    if reg == monreg::REG_SELECT {
        return Ok(select);
    }
    let Some(t) = telemetry else {
        return Ok(0);
    };
    let sel = nocem_common::ids::LinkId::new(select);
    let value = match reg {
        monreg::REG_WINDOW => t.window_cycles() as u32,
        monreg::REG_WINDOWS => t.windows_recorded().min(u64::from(u32::MAX)) as u32,
        monreg::REG_LAST_FORWARDED_LO => t.last_forwarded(sel) as u32,
        monreg::REG_LAST_FORWARDED_HI => (t.last_forwarded(sel) >> 32) as u32,
        monreg::REG_LAST_BLOCKED_LO => t.last_blocked(sel) as u32,
        monreg::REG_LAST_BLOCKED_HI => (t.last_blocked(sel) >> 32) as u32,
        monreg::REG_TOTAL_FORWARDED_LO => t.total_forwarded(sel) as u32,
        monreg::REG_TOTAL_FORWARDED_HI => (t.total_forwarded(sel) >> 32) as u32,
        monreg::REG_TOTAL_BLOCKED_LO => t.total_blocked(sel) as u32,
        monreg::REG_TOTAL_BLOCKED_HI => (t.total_blocked(sel) >> 32) as u32,
        monreg::REG_HOT_LINK => t.hottest().map_or(0, |h| h.link.raw()),
        monreg::REG_HOT_BLOCKED_LO => t.hottest().map_or(0, |h| h.blocked as u32),
        monreg::REG_HOT_BLOCKED_HI => t.hottest().map_or(0, |h| (h.blocked >> 32) as u32),
        _ => unreachable!("range checked above"),
    };
    Ok(value)
}

/// A write of `value` to the monitor's register at `addr`, on a
/// topology of `links` links: only `SELECT` takes one, and only a link
/// that exists.
pub(crate) fn monitor_write(
    links: usize,
    select: &mut u32,
    addr: Address,
    value: u32,
) -> Result<(), BusError> {
    if in_range(addr, monreg::MON_REG_COUNT)? != monreg::REG_SELECT {
        return Err(BusError::ReadOnly(addr));
    }
    if value as usize >= links {
        return Err(BusError::InvalidValue {
            addr,
            reason: format!("link {value} out of range (topology has {links} links)"),
        });
    }
    *select = value;
    Ok(())
}

// --- Typed drivers (the "software part") ------------------------------

/// Driver for a traffic generator device.
#[derive(Debug, Clone, Copy)]
pub struct TgDriver {
    base: DeviceAddr,
}

impl TgDriver {
    /// Binds to the TG at `base`.
    pub fn new(base: DeviceAddr) -> Self {
        TgDriver { base }
    }

    /// Programs a traffic model through the registers.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn program<B: BusAccess>(&self, bus: &mut B, model: &TrafficModel) -> Result<(), BusError> {
        for (reg, value) in model_register_image(model) {
            bus.write(self.base.reg(reg), value)?;
        }
        Ok(())
    }

    /// Packets accepted into the source queue so far.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn sent<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        bus.read_u64(
            self.base.reg(tgreg::REG_SENT_LO),
            self.base.reg(tgreg::REG_SENT_HI),
        )
    }

    /// Flits injected so far.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn injected_flits<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        bus.read_u64(
            self.base.reg(tgreg::REG_FLITS_LO),
            self.base.reg(tgreg::REG_FLITS_HI),
        )
    }

    /// Injection blocked-cycle counter.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn blocked_cycles<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        bus.read_u64(
            self.base.reg(tgreg::REG_BLOCKED_LO),
            self.base.reg(tgreg::REG_BLOCKED_HI),
        )
    }
}

/// Driver for a traffic receptor device.
#[derive(Debug, Clone, Copy)]
pub struct TrDriver {
    base: DeviceAddr,
}

impl TrDriver {
    /// Binds to the TR at `base`.
    pub fn new(base: DeviceAddr) -> Self {
        TrDriver { base }
    }

    /// Packets fully received.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn packets<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        bus.read_u64(
            self.base.reg(trreg::REG_PACKETS_LO),
            self.base.reg(trreg::REG_PACKETS_HI),
        )
    }

    /// Flits received.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn flits<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        bus.read_u64(
            self.base.reg(trreg::REG_FLITS_LO),
            self.base.reg(trreg::REG_FLITS_HI),
        )
    }

    /// The "total running time" statistic.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn running_time<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        bus.read_u64(
            self.base.reg(trreg::REG_RUNNING_LO),
            self.base.reg(trreg::REG_RUNNING_HI),
        )
    }

    /// Mean network latency, or `None` when no samples exist (also
    /// for stochastic receptors, which have no latency analyzer).
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn mean_network_latency<B: BusAccess>(&self, bus: &mut B) -> Result<Option<f64>, BusError> {
        let count = bus.read_u64(
            self.base.reg(trreg::REG_LAT_COUNT_LO),
            self.base.reg(trreg::REG_LAT_COUNT_HI),
        )?;
        if count == 0 {
            return Ok(None);
        }
        let sum = bus.read_u64(
            self.base.reg(trreg::REG_LAT_SUM_LO),
            self.base.reg(trreg::REG_LAT_SUM_HI),
        )?;
        Ok(Some(sum as f64 / count as f64))
    }
}

/// Driver for a switch statistics device.
#[derive(Debug, Clone, Copy)]
pub struct SwitchDriver {
    base: DeviceAddr,
}

impl SwitchDriver {
    /// Binds to the switch device at `base`.
    pub fn new(base: DeviceAddr) -> Self {
        SwitchDriver { base }
    }

    /// Flits forwarded by the switch.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn forwarded<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        bus.read_u64(
            self.base.reg(swreg::REG_FORWARDED_LO),
            self.base.reg(swreg::REG_FORWARDED_HI),
        )
    }

    /// Blocked cycles charged to the switch's output ports: each
    /// cycle, one per buffered input VC that wanted an output and was
    /// not granted it.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn blocked<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        bus.read_u64(
            self.base.reg(swreg::REG_BLOCKED_LO),
            self.base.reg(swreg::REG_BLOCKED_HI),
        )
    }
}

/// Driver for the telemetry monitor device: the emulated software's
/// window into the hot-link statistics while the run is in flight.
#[derive(Debug, Clone, Copy)]
pub struct MonitorDriver {
    base: DeviceAddr,
}

impl MonitorDriver {
    /// Binds to the monitor device at `base`.
    pub fn new(base: DeviceAddr) -> Self {
        MonitorDriver { base }
    }

    /// The telemetry window length in cycles, or `None` when
    /// telemetry is disabled on this platform.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn window<B: BusAccess>(&self, bus: &mut B) -> Result<Option<u64>, BusError> {
        let w = bus.read(self.base.reg(monreg::REG_WINDOW))?;
        Ok((w != 0).then_some(u64::from(w)))
    }

    /// Windows recorded so far.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn windows<B: BusAccess>(&self, bus: &mut B) -> Result<u32, BusError> {
        bus.read(self.base.reg(monreg::REG_WINDOWS))
    }

    /// Number of links the monitor covers.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn links<B: BusAccess>(&self, bus: &mut B) -> Result<u32, BusError> {
        bus.read(self.base.reg(monreg::REG_LINKS))
    }

    /// Selects the link the `last_*`/`total_*` reads refer to.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus (including
    /// [`BusError::InvalidValue`] for an out-of-range link).
    pub fn select<B: BusAccess>(&self, bus: &mut B, link: u32) -> Result<(), BusError> {
        bus.write(self.base.reg(monreg::REG_SELECT), link)
    }

    /// Flits the selected link forwarded in the most recent window.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn last_forwarded<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        let (lo, hi) = self.base.reg_u64(monreg::REG_LAST_FORWARDED_LO);
        bus.read_u64(lo, hi)
    }

    /// Blocked cycles of the selected link in the most recent window.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn last_blocked<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        let (lo, hi) = self.base.reg_u64(monreg::REG_LAST_BLOCKED_LO);
        bus.read_u64(lo, hi)
    }

    /// Lifetime flits forwarded on the selected link.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn total_forwarded<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        let (lo, hi) = self.base.reg_u64(monreg::REG_TOTAL_FORWARDED_LO);
        bus.read_u64(lo, hi)
    }

    /// Lifetime blocked cycles on the selected link.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn total_blocked<B: BusAccess>(&self, bus: &mut B) -> Result<u64, BusError> {
        let (lo, hi) = self.base.reg_u64(monreg::REG_TOTAL_BLOCKED_LO);
        bus.read_u64(lo, hi)
    }

    /// The most blocked link and its lifetime blocked cycles.
    ///
    /// # Errors
    ///
    /// Propagates [`BusError`] from the bus.
    pub fn hottest<B: BusAccess>(&self, bus: &mut B) -> Result<(u32, u64), BusError> {
        let link = bus.read(self.base.reg(monreg::REG_HOT_LINK))?;
        let (lo, hi) = self.base.reg_u64(monreg::REG_HOT_BLOCKED_LO);
        Ok((link, bus.read_u64(lo, hi)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::ids::{EndpointId, FlowId};

    fn fixed_dst() -> DestinationModel {
        DestinationModel::Fixed {
            dst: EndpointId::new(3),
            flow: FlowId::new(1),
        }
    }

    #[test]
    fn uniform_model_register_roundtrip() {
        let model = TrafficModel::Uniform(UniformConfig {
            length: LengthModel::Fixed(8),
            gap: (5, 15),
            budget: Some(1_000),
            destination: fixed_dst(),
        });
        let shadow = TgShadow::from_model(&model);
        let decoded = shadow.to_model(&model).unwrap();
        assert_eq!(decoded, model);
    }

    #[test]
    fn burst_model_register_roundtrip() {
        let model = TrafficModel::Burst(BurstConfig::with_load(0.45, 8, 8, Some(77), fixed_dst()));
        let shadow = TgShadow::from_model(&model);
        let decoded = shadow.to_model(&model).unwrap();
        if let (TrafficModel::Burst(a), TrafficModel::Burst(b)) = (&model, &decoded) {
            assert_eq!(a.length, b.length);
            assert_eq!(a.budget, b.budget);
            // Probabilities go through Q0.16 and may lose < 1e-4.
            assert!((a.start_probability - b.start_probability).abs() < 1e-4);
            assert!((a.continue_probability - b.continue_probability).abs() < 1e-4);
        } else {
            panic!("expected burst models");
        }
    }

    #[test]
    fn length_range_roundtrip() {
        let model = TrafficModel::Poisson(PoissonConfig {
            length: LengthModel::UniformRange { min: 2, max: 9 },
            start_probability: 0.25,
            budget: None,
            destination: fixed_dst(),
        });
        let shadow = TgShadow::from_model(&model);
        match shadow.to_model(&model).unwrap() {
            TrafficModel::Poisson(p) => {
                assert_eq!(p.length, LengthModel::UniformRange { min: 2, max: 9 });
                assert_eq!(p.budget, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn zero_length_register_faults() {
        let model = TrafficModel::Uniform(UniformConfig {
            length: LengthModel::Fixed(4),
            gap: (0, 0),
            budget: None,
            destination: fixed_dst(),
        });
        let mut shadow = TgShadow::from_model(&model);
        shadow.regs.set(tgreg::REG_PACKET_LEN, 0);
        assert!(matches!(
            shadow.to_model(&model),
            Err(BusError::InvalidValue { .. })
        ));
    }

    #[test]
    fn unknown_model_code_faults() {
        let model = TrafficModel::Uniform(UniformConfig {
            length: LengthModel::Fixed(4),
            gap: (0, 0),
            budget: None,
            destination: fixed_dst(),
        });
        let mut shadow = TgShadow::from_model(&model);
        shadow.regs.set(tgreg::REG_MODEL, 42);
        assert!(shadow.to_model(&model).is_err());
    }

    #[test]
    fn trace_code_requires_compiled_trace() {
        let model = TrafficModel::Uniform(UniformConfig {
            length: LengthModel::Fixed(4),
            gap: (0, 0),
            budget: None,
            destination: fixed_dst(),
        });
        let mut shadow = TgShadow::from_model(&model);
        shadow
            .regs
            .set(tgreg::REG_MODEL, tgreg::ModelCode::Trace as u32);
        let err = shadow.to_model(&model).unwrap_err();
        assert!(err.to_string().contains("no trace"));
    }

    #[test]
    fn dirty_flag_tracks_writes() {
        let model = TrafficModel::Uniform(UniformConfig {
            length: LengthModel::Fixed(4),
            gap: (0, 0),
            budget: None,
            destination: fixed_dst(),
        });
        let mut shadow = TgShadow::from_model(&model);
        assert!(!shadow.dirty);
        let at = |reg| {
            Address::from_parts(
                nocem_common::ids::BusId::new(0),
                nocem_common::ids::DeviceId::new(1),
                reg,
            )
        };
        let status = at(tgreg::REG_STATUS);
        assert_eq!(shadow.bus_write(status, 1), Err(BusError::ReadOnly(status)));
        assert!(!shadow.dirty, "a refused write programs nothing");
        shadow.bus_write(at(tgreg::REG_GAP_MIN), 9).unwrap();
        assert!(shadow.dirty);
    }
}
