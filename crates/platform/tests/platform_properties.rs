//! Property-based tests of the HW/SW boundary: address encoding
//! round-trips across the whole 4-bus × 1024-device space, register
//! files enforce their access modes, and the control module's 64-bit
//! register pairs are consistent under arbitrary splits.

use nocem_common::choice::check;
use nocem_common::ids::{BusId, DeviceId};
use nocem_common::{prop_assert, prop_assert_eq};
use nocem_platform::addr::{Address, DeviceAddr, DEVICES_PER_BUS, MAX_BUSES};
use nocem_platform::bus::{AddressMap, BusError, DeviceClass};
use nocem_platform::control::{
    ControlModule, REG_CYCLES_HI, REG_CYCLES_LO, REG_SEED_HI, REG_SEED_LO, REG_TARGET_HI,
    REG_TARGET_LO,
};
use nocem_platform::regfile::{Access, RegFile};

/// Encode→decode round-trips over the full address space, and the
/// field accessors recover every part.
#[test]
fn address_roundtrip() {
    check("address_roundtrip", 0..128, |c| {
        let (bus, dev) = (c.range(0u8..MAX_BUSES), c.range(0u16..DEVICES_PER_BUS));
        let reg = c.word() as u16;
        let a = Address::from_parts(BusId::new(bus), DeviceId::new(dev), reg);
        let back = Address::decode(a.raw()).expect("constructed addresses decode");
        prop_assert_eq!(a, back);
        prop_assert_eq!(a.bus(), BusId::new(bus));
        prop_assert_eq!(a.device(), DeviceId::new(dev));
        prop_assert_eq!(a.reg(), reg);
        prop_assert_eq!(
            a.device_addr(),
            DeviceAddr::new(BusId::new(bus), DeviceId::new(dev))
        );
        // Word alignment is structural.
        prop_assert_eq!(a.raw() & 0b11, 0);
        Ok(())
    });
}

/// Distinct (bus, device, register) triples produce distinct
/// addresses — the map is injective.
#[test]
fn address_encoding_is_injective() {
    check("address_encoding_is_injective", 0..128, |c| {
        let a = (
            c.range(0u8..MAX_BUSES),
            c.range(0u16..DEVICES_PER_BUS),
            c.range(0u16..256),
        );
        let b = (
            c.range(0u8..MAX_BUSES),
            c.range(0u16..DEVICES_PER_BUS),
            c.range(0u16..256),
        );
        let ea = Address::from_parts(BusId::new(a.0), DeviceId::new(a.1), a.2);
        let eb = Address::from_parts(BusId::new(b.0), DeviceId::new(b.1), b.2);
        prop_assert_eq!(ea == eb, a == b);
        Ok(())
    });
}

/// Unaligned raw values never decode.
#[test]
fn unaligned_addresses_are_rejected() {
    check("unaligned_addresses_are_rejected", 0..128, |c| {
        let raw = c.word() as u32;
        if let Ok(a) = Address::decode(raw) {
            prop_assert_eq!(raw & 0b11, 0, "accepted unaligned {:#x}", a.raw());
        }
        prop_assert!(Address::decode(raw | 1).is_err());
        Ok(())
    });
}

/// Register files enforce access modes for arbitrary traffic: RW
/// registers take every software write, RO registers reject all of
/// them, W1C registers clear exactly the written 1-bits.
#[test]
fn regfile_access_modes() {
    check("regfile_access_modes", 0..128, |c| {
        let writes = c.vec(1..60, |c| (c.range(0u16..3), c.word() as u32));
        let mut rf = RegFile::new(&[Access::ReadWrite, Access::ReadOnly, Access::WriteOneToClear]);
        let base = DeviceAddr::new(BusId::new(0), DeviceId::new(0));
        // Hardware preloads the W1C register with all-ones so clears
        // are observable.
        rf.set(2, u32::MAX);
        let mut rw_shadow = 0u32;
        let mut w1c_shadow = u32::MAX;
        for (reg, value) in writes {
            let addr = base.reg(reg);
            match reg {
                0 => {
                    rf.bus_write(addr, value).unwrap();
                    rw_shadow = value;
                }
                1 => {
                    prop_assert!(matches!(
                        rf.bus_write(addr, value),
                        Err(BusError::ReadOnly(_))
                    ));
                }
                _ => {
                    rf.bus_write(addr, value).unwrap();
                    w1c_shadow &= !value;
                }
            }
            prop_assert_eq!(rf.bus_read(base.reg(0)).unwrap(), rw_shadow);
            prop_assert_eq!(rf.bus_read(base.reg(2)).unwrap(), w1c_shadow);
        }
        Ok(())
    });
}

/// 64-bit register pairs split and rejoin losslessly.
#[test]
fn regfile_u64_pairs_roundtrip() {
    check("regfile_u64_pairs_roundtrip", 0..128, |c| {
        let v = c.word();
        let mut rf = RegFile::read_write(2);
        rf.set_u64(0, 1, v);
        prop_assert_eq!(rf.get_u64(0, 1), v);
        prop_assert_eq!(rf.get(0), (v & 0xFFFF_FFFF) as u32);
        prop_assert_eq!(rf.get(1), (v >> 32) as u32);
        Ok(())
    });
}

/// The control module's 64-bit quantities survive the bus: writing
/// the two halves in either order reads back the full value.
#[test]
fn control_module_u64_registers() {
    check("control_module_u64_registers", 0..128, |c| {
        let (target, seed, lo_first) = (c.word(), c.word(), c.bool());
        let mut cm = ControlModule::new();
        let base = DeviceAddr::new(BusId::new(0), DeviceId::new(0));
        let writes = [
            (REG_TARGET_LO, (target & 0xFFFF_FFFF) as u32),
            (REG_TARGET_HI, (target >> 32) as u32),
            (REG_SEED_LO, (seed & 0xFFFF_FFFF) as u32),
            (REG_SEED_HI, (seed >> 32) as u32),
        ];
        if lo_first {
            for (r, v) in writes {
                cm.bus_write(base.reg(r), v).unwrap();
            }
        } else {
            for (r, v) in writes.iter().rev() {
                cm.bus_write(base.reg(*r), *v).unwrap();
            }
        }
        prop_assert_eq!(cm.target(), target);
        prop_assert_eq!(cm.seed(), seed);
        Ok(())
    });
}

/// The cycle counter is read-only over the bus but updatable by
/// hardware, for any value.
#[test]
fn control_cycles_are_read_only() {
    check("control_cycles_are_read_only", 0..128, |c| {
        let cycles = c.word();
        let mut cm = ControlModule::new();
        let base = DeviceAddr::new(BusId::new(0), DeviceId::new(0));
        cm.set_cycles(cycles);
        let lo = cm.bus_read(base.reg(REG_CYCLES_LO)).unwrap();
        let hi = cm.bus_read(base.reg(REG_CYCLES_HI)).unwrap();
        prop_assert_eq!((u64::from(hi) << 32) | u64::from(lo), cycles);
        prop_assert!(cm.bus_write(base.reg(REG_CYCLES_LO), 0).is_err());
        prop_assert!(cm.bus_write(base.reg(REG_CYCLES_HI), 0).is_err());
        Ok(())
    });
}

/// The address map allocates devices densely, never collides, and
/// looks every device back up by slot and by label.
#[test]
fn address_map_allocations_are_unique() {
    check("address_map_allocations_are_unique", 0..128, |c| {
        let n = c.range(1usize..200);
        let mut map = AddressMap::new();
        let mut slots = Vec::new();
        for _ in 0..n {
            slots.push(map.allocate(DeviceClass::TrafficGenerator).unwrap());
        }
        let mut unique = slots.clone();
        unique.sort();
        unique.dedup();
        prop_assert_eq!(unique.len(), slots.len(), "slot collision");
        for (i, &slot) in slots.iter().enumerate() {
            let found = map.device_at(slot).expect("slot resolves");
            prop_assert_eq!(found.label(), format!("tg{i}"));
            let by_label = map.by_label(&format!("tg{i}")).expect("label resolves");
            prop_assert_eq!(by_label.addr, slot);
        }
        prop_assert_eq!(map.of_class(DeviceClass::TrafficGenerator).count(), n);
        Ok(())
    });
}

/// The platform refuses to allocate beyond 4 × 1024 devices — the
/// paper's stated limit.
#[test]
fn address_map_enforces_platform_limit() {
    let mut map = AddressMap::new();
    let total = usize::from(MAX_BUSES) * usize::from(DEVICES_PER_BUS);
    for i in 0..total {
        map.allocate(DeviceClass::Switch)
            .unwrap_or_else(|_| panic!("allocation {i} must fit"));
    }
    assert!(
        map.allocate(DeviceClass::Switch).is_err(),
        "4097th device must be refused"
    );
}
