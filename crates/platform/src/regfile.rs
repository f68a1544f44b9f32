//! Register files: the per-device "bench of registers".
//!
//! [`RegFile`] is the helper every memory-mapped device model builds
//! its register interface from. Each register carries an access mode
//! (read-write, read-only, write-1-to-clear) and the file enforces the
//! semantics, so device wrappers only deal with *values*.

use crate::addr::Address;
use crate::bus::BusError;

/// Register access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Software may read and write.
    ReadWrite,
    /// Hardware-owned; software reads only.
    ReadOnly,
    /// Reads return the value; writing 1 bits clears them (interrupt
    /// style).
    WriteOneToClear,
}

/// A fixed-size file of 32-bit registers with per-register access
/// modes.
///
/// # Examples
///
/// ```
/// use nocem_platform::regfile::{Access, RegFile};
///
/// let mut rf = RegFile::new(&[Access::ReadWrite, Access::ReadOnly]);
/// rf.set(1, 42); // hardware side may always write
/// assert_eq!(rf.get(1), 42);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    values: Vec<u32>,
    access: Vec<Access>,
}

impl RegFile {
    /// Creates a file with one register per access entry, all zero.
    pub fn new(access: &[Access]) -> Self {
        RegFile {
            values: vec![0; access.len()],
            access: access.to_vec(),
        }
    }

    /// Creates a file of `n` read-write registers.
    pub fn read_write(n: usize) -> Self {
        RegFile {
            values: vec![0; n],
            access: vec![Access::ReadWrite; n],
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the file has no registers.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Hardware-side read (no access checking).
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    pub fn get(&self, reg: u16) -> u32 {
        self.values[usize::from(reg)]
    }

    /// Hardware-side 64-bit read from a `(lo, hi)` pair.
    ///
    /// # Panics
    ///
    /// Panics if either register is out of range.
    pub fn get_u64(&self, lo: u16, hi: u16) -> u64 {
        (u64::from(self.get(hi)) << 32) | u64::from(self.get(lo))
    }

    /// Hardware-side write (no access checking; hardware owns all
    /// registers).
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    pub fn set(&mut self, reg: u16, value: u32) {
        self.values[usize::from(reg)] = value;
    }

    /// Hardware-side 64-bit write into a `(lo, hi)` pair.
    ///
    /// # Panics
    ///
    /// Panics if either register is out of range.
    pub fn set_u64(&mut self, lo: u16, hi: u16, value: u64) {
        self.set(lo, value as u32);
        self.set(hi, (value >> 32) as u32);
    }

    /// Software-side read at `addr` (for error reporting), honouring
    /// access modes.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::RegisterOutOfRange`] beyond the file.
    pub fn bus_read(&self, addr: Address) -> Result<u32, BusError> {
        let reg = usize::from(addr.reg());
        if reg >= self.values.len() {
            return Err(BusError::RegisterOutOfRange {
                addr,
                regs: self.values.len() as u16,
            });
        }
        Ok(self.values[reg])
    }

    /// Software-side write at `addr`, honouring access modes.
    ///
    /// # Errors
    ///
    /// Returns [`BusError::RegisterOutOfRange`] beyond the file and
    /// [`BusError::ReadOnly`] for hardware-owned registers.
    pub fn bus_write(&mut self, addr: Address, value: u32) -> Result<(), BusError> {
        let reg = usize::from(addr.reg());
        if reg >= self.values.len() {
            return Err(BusError::RegisterOutOfRange {
                addr,
                regs: self.values.len() as u16,
            });
        }
        match self.access[reg] {
            Access::ReadWrite => {
                self.values[reg] = value;
                Ok(())
            }
            Access::ReadOnly => Err(BusError::ReadOnly(addr)),
            Access::WriteOneToClear => {
                self.values[reg] &= !value;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::ids::{BusId, DeviceId};

    fn addr(reg: u16) -> Address {
        Address::from_parts(BusId::new(0), DeviceId::new(0), reg)
    }

    #[test]
    fn read_write_register() {
        let mut rf = RegFile::read_write(2);
        rf.bus_write(addr(0), 7).unwrap();
        assert_eq!(rf.bus_read(addr(0)).unwrap(), 7);
        assert_eq!(rf.get(0), 7);
    }

    #[test]
    fn read_only_rejects_software_writes() {
        let mut rf = RegFile::new(&[Access::ReadOnly]);
        assert!(matches!(
            rf.bus_write(addr(0), 1),
            Err(BusError::ReadOnly(_))
        ));
        rf.set(0, 9); // hardware side still writes
        assert_eq!(rf.bus_read(addr(0)).unwrap(), 9);
    }

    #[test]
    fn write_one_to_clear_semantics() {
        let mut rf = RegFile::new(&[Access::WriteOneToClear]);
        rf.set(0, 0b1111);
        rf.bus_write(addr(0), 0b0101).unwrap();
        assert_eq!(rf.get(0), 0b1010);
    }

    #[test]
    fn out_of_range_register_faults() {
        let mut rf = RegFile::read_write(1);
        assert!(matches!(
            rf.bus_read(addr(1)),
            Err(BusError::RegisterOutOfRange { regs: 1, .. })
        ));
        assert!(rf.bus_write(addr(9), 0).is_err());
    }

    #[test]
    fn u64_pair_helpers() {
        let mut rf = RegFile::read_write(2);
        rf.set_u64(0, 1, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(rf.get_u64(0, 1), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(rf.get(0), 0xCAFE_F00D);
        assert_eq!(rf.get(1), 0xDEAD_BEEF);
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(RegFile::read_write(3).len(), 3);
        assert!(RegFile::read_write(0).is_empty());
    }
}
