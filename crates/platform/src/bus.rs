//! The bus access contract and the address map.
//!
//! [`BusAccess`] is what the platform's "software part" programs
//! against: 32-bit word reads and writes at [`Address`]es. In this
//! workspace the implementation is the emulation platform itself (the
//! core crate); on the paper's FPGA it would be the PowerPC's bus
//! bridge — drivers written against [`BusAccess`] cannot tell the
//! difference, which is precisely the paper's HW/SW split.
//!
//! [`AddressMap`] allocates device slots (4 buses × 1024 devices) and
//! remembers what sits where, so the monitor can enumerate the
//! platform.

use crate::addr::{Address, DeviceAddr, DEVICES_PER_BUS, MAX_BUSES};
use nocem_common::ids::{BusId, DeviceId};

/// Errors a bus transaction can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BusError {
    /// No device is mapped at the address.
    Unmapped(Address),
    /// The device exists but the register index is out of its range.
    RegisterOutOfRange {
        /// The accessed address.
        addr: Address,
        /// Number of registers the device has.
        regs: u16,
    },
    /// The register is read-only.
    ReadOnly(Address),
    /// The register is write-only (reads as zero would hide bugs, so
    /// the platform faults instead).
    WriteOnly(Address),
    /// The written value is invalid for the register.
    InvalidValue {
        /// The accessed address.
        addr: Address,
        /// Why the value was rejected.
        reason: String,
    },
    /// The device's state cannot be read: the platform behind the bus
    /// has failed.
    Unreadable {
        /// The accessed address.
        addr: Address,
        /// Why the state is unavailable.
        reason: String,
    },
}

impl std::fmt::Display for BusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusError::Unmapped(a) => write!(f, "no device mapped at {a}"),
            BusError::RegisterOutOfRange { addr, regs } => {
                write!(
                    f,
                    "register {addr} out of range (device has {regs} registers)"
                )
            }
            BusError::ReadOnly(a) => write!(f, "register {a} is read-only"),
            BusError::WriteOnly(a) => write!(f, "register {a} is write-only"),
            BusError::InvalidValue { addr, reason } => {
                write!(f, "invalid value for {a}: {r}", a = addr, r = reason)
            }
            BusError::Unreadable { addr, reason } => write!(f, "{addr} is unreadable: {reason}"),
        }
    }
}

impl std::error::Error for BusError {}

/// Word-granular register access, the contract between the platform
/// hardware and its configuration software.
pub trait BusAccess {
    /// Reads the 32-bit register at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for unmapped addresses, out-of-range or
    /// write-only registers.
    fn read(&mut self, addr: Address) -> Result<u32, BusError>;

    /// Writes the 32-bit register at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] for unmapped addresses, out-of-range or
    /// read-only registers, and rejected values.
    fn write(&mut self, addr: Address, value: u32) -> Result<(), BusError>;

    /// Reads a 64-bit quantity split over `(lo, hi)` register pairs.
    ///
    /// # Errors
    ///
    /// Propagates the underlying read errors.
    fn read_u64(&mut self, lo: Address, hi: Address) -> Result<u64, BusError> {
        let l = self.read(lo)?;
        let h = self.read(hi)?;
        Ok((u64::from(h) << 32) | u64::from(l))
    }

    /// Writes a 64-bit quantity split over `(lo, hi)` register pairs.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write errors.
    fn write_u64(&mut self, lo: Address, hi: Address, value: u64) -> Result<(), BusError> {
        self.write(lo, value as u32)?;
        self.write(hi, (value >> 32) as u32)
    }
}

impl<B: BusAccess + ?Sized> BusAccess for &mut B {
    fn read(&mut self, addr: Address) -> Result<u32, BusError> {
        (**self).read(addr)
    }

    fn write(&mut self, addr: Address, value: u32) -> Result<(), BusError> {
        (**self).write(addr, value)
    }
}

/// What kind of component occupies a device slot (monitor labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// Platform control module.
    Control,
    /// Traffic generator.
    TrafficGenerator,
    /// Traffic receptor.
    TrafficReceptor,
    /// Switch statistics block.
    Switch,
    /// Telemetry monitor (windowed hot-link statistics).
    Monitor,
}

impl std::fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeviceClass::Control => "control",
            DeviceClass::TrafficGenerator => "tg",
            DeviceClass::TrafficReceptor => "tr",
            DeviceClass::Switch => "switch",
            DeviceClass::Monitor => "monitor",
        })
    }
}

/// A registered device slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappedDevice {
    /// Where the device sits.
    pub addr: DeviceAddr,
    /// What it is.
    pub class: DeviceClass,
    /// Which one of its class, in allocation order.
    pub index: u32,
}

impl MappedDevice {
    /// Human-readable instance label, rendered on demand (a map of a
    /// thousand devices stores no string): `"ctrl"`, `"tg0"`, `"tr7"`,
    /// `"sw12"`, `"mon"`.
    pub fn label(&self) -> String {
        match self.class {
            DeviceClass::Control => "ctrl".into(),
            DeviceClass::TrafficGenerator => format!("tg{}", self.index),
            DeviceClass::TrafficReceptor => format!("tr{}", self.index),
            DeviceClass::Switch => format!("sw{}", self.index),
            DeviceClass::Monitor => "mon".into(),
        }
    }
}

/// Error returned when the platform runs out of device slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapFullError;

impl std::fmt::Display for MapFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "address map full ({MAX_BUSES} buses x {DEVICES_PER_BUS} devices)"
        )
    }
}

impl std::error::Error for MapFullError {}

/// Sequential allocator and directory of device slots.
///
/// # Examples
///
/// ```
/// use nocem_platform::bus::{AddressMap, DeviceClass};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut map = AddressMap::new();
/// let ctrl = map.allocate(DeviceClass::Control)?;
/// let tg0 = map.allocate(DeviceClass::TrafficGenerator)?;
/// assert_ne!(ctrl, tg0);
/// assert_eq!(map.devices().len(), 2);
/// assert_eq!(map.by_label("tg0").map(|d| d.addr), Some(tg0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AddressMap {
    devices: Vec<MappedDevice>,
    /// Devices allocated so far, per [`DeviceClass`].
    allocated: [u32; 5],
}

impl AddressMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        AddressMap::default()
    }

    /// Total device slots the control plane can address
    /// (`MAX_BUSES * DEVICES_PER_BUS`).
    pub fn capacity() -> usize {
        usize::from(MAX_BUSES) * usize::from(DEVICES_PER_BUS)
    }

    /// Allocates the next free slot (bus 0 fills first, then bus 1,
    /// …) to the next device of `class`.
    ///
    /// # Errors
    ///
    /// Returns [`MapFullError`] when all
    /// `MAX_BUSES * DEVICES_PER_BUS` slots are taken.
    pub fn allocate(&mut self, class: DeviceClass) -> Result<DeviceAddr, MapFullError> {
        let n = self.devices.len();
        let capacity = usize::from(MAX_BUSES) * usize::from(DEVICES_PER_BUS);
        if n >= capacity {
            return Err(MapFullError);
        }
        let addr = DeviceAddr::new(
            BusId::new((n / usize::from(DEVICES_PER_BUS)) as u8),
            DeviceId::new((n % usize::from(DEVICES_PER_BUS)) as u16),
        );
        let index = &mut self.allocated[class as usize];
        self.devices.push(MappedDevice {
            addr,
            class,
            index: *index,
        });
        *index += 1;
        Ok(addr)
    }

    /// All registered devices, in allocation order.
    pub fn devices(&self) -> &[MappedDevice] {
        &self.devices
    }

    /// Looks up the device at `addr`.
    pub fn device_at(&self, addr: DeviceAddr) -> Option<&MappedDevice> {
        self.devices.iter().find(|d| d.addr == addr)
    }

    /// Finds the first device with the given label.
    pub fn by_label(&self, label: &str) -> Option<&MappedDevice> {
        self.devices.iter().find(|d| d.label() == label)
    }

    /// Devices of one class, in allocation order.
    pub fn of_class(&self, class: DeviceClass) -> impl Iterator<Item = &MappedDevice> + '_ {
        self.devices.iter().filter(move |d| d.class == class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_allocation_spills_to_next_bus() {
        let mut map = AddressMap::new();
        let mut last = None;
        for _ in 0..(usize::from(DEVICES_PER_BUS) + 2) {
            last = Some(
                map.allocate(DeviceClass::Switch)
                    .expect("capacity not reached"),
            );
        }
        let last = last.unwrap();
        assert_eq!(last.bus, BusId::new(1));
        assert_eq!(last.device, DeviceId::new(1));
    }

    #[test]
    fn map_capacity_is_enforced() {
        let mut map = AddressMap::new();
        let capacity = usize::from(MAX_BUSES) * usize::from(DEVICES_PER_BUS);
        for _ in 0..capacity {
            map.allocate(DeviceClass::Switch).unwrap();
        }
        assert_eq!(map.allocate(DeviceClass::Switch), Err(MapFullError));
        assert!(MapFullError.to_string().contains("4 buses"));
    }

    #[test]
    fn lookup_by_addr_and_label() {
        let mut map = AddressMap::new();
        let a = map.allocate(DeviceClass::Control).unwrap();
        let b = map.allocate(DeviceClass::TrafficGenerator).unwrap();
        let c = map.allocate(DeviceClass::TrafficGenerator).unwrap();
        assert_eq!(map.device_at(a).unwrap().label(), "ctrl");
        assert_eq!(map.by_label("tg0").unwrap().addr, b);
        assert_eq!(map.device_at(c).unwrap().label(), "tg1");
        assert!(map.by_label("nope").is_none());
        assert_eq!(map.of_class(DeviceClass::TrafficGenerator).count(), 2);
    }

    #[test]
    fn bus_error_messages() {
        let a = Address::from_parts(BusId::new(0), DeviceId::new(3), 7);
        assert!(BusError::Unmapped(a).to_string().contains("b0:d3"));
        assert!(BusError::ReadOnly(a).to_string().contains("read-only"));
        assert!(BusError::WriteOnly(a).to_string().contains("write-only"));
        assert!(BusError::RegisterOutOfRange { addr: a, regs: 4 }
            .to_string()
            .contains("4 registers"));
        assert!(BusError::InvalidValue {
            addr: a,
            reason: "zero length".into()
        }
        .to_string()
        .contains("zero length"));
    }

    #[test]
    fn device_class_display() {
        assert_eq!(DeviceClass::Control.to_string(), "control");
        assert_eq!(DeviceClass::TrafficGenerator.to_string(), "tg");
    }

    /// A trivial BusAccess for the u64 helper test.
    struct FakeBus {
        regs: std::collections::HashMap<u32, u32>,
    }

    impl BusAccess for FakeBus {
        fn read(&mut self, addr: Address) -> Result<u32, BusError> {
            self.regs
                .get(&addr.raw())
                .copied()
                .ok_or(BusError::Unmapped(addr))
        }

        fn write(&mut self, addr: Address, value: u32) -> Result<(), BusError> {
            self.regs.insert(addr.raw(), value);
            Ok(())
        }
    }

    #[test]
    fn u64_split_register_helpers() {
        let mut bus = FakeBus {
            regs: std::collections::HashMap::new(),
        };
        let lo = Address::from_parts(BusId::new(0), DeviceId::new(0), 0);
        let hi = Address::from_parts(BusId::new(0), DeviceId::new(0), 1);
        bus.write_u64(lo, hi, 0x1234_5678_9ABC_DEF0).unwrap();
        assert_eq!(bus.read_u64(lo, hi).unwrap(), 0x1234_5678_9ABC_DEF0);
        // The &mut blanket impl also works.
        let r = &mut bus;
        assert_eq!(r.read(lo).unwrap(), 0x9ABC_DEF0);
    }
}
