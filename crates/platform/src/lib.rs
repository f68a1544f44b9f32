//! # nocem-platform — the HW/SW bus substrate
//!
//! The paper's platform is "HW/SW": the hardware exposes every
//! component behind memory-mapped registers on up to 4 internal buses
//! of 1024 devices each, and a processor configures and observes
//! everything by reading and writing those registers. This crate is
//! that contract:
//!
//! * [`addr`] — the 32-bit address layout (bus / device / register);
//! * [`bus`] — the [`bus::BusAccess`] trait drivers program against,
//!   bus errors, and the [`bus::AddressMap`] device directory;
//! * [`regfile`] — per-device register files with RW / RO /
//!   write-1-to-clear semantics;
//! * [`control`] — the control module device (start/stop, cycle and
//!   packet counters) and its typed [`control::ControlDriver`];
//! * [`monitor`] — the final-report assembler ("the user visualizes
//!   the results … on the screen of his/her PC").
//!
//! Device models for TGs, TRs and switches are assembled in the core
//! crate (they need the traffic and statistics substrates); their
//! drivers talk [`bus::BusAccess`], so they would work unchanged
//! against a real FPGA bridge.
//!
//! # Examples
//!
//! ```
//! use nocem_platform::addr::DeviceAddr;
//! use nocem_platform::bus::{AddressMap, DeviceClass};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut map = AddressMap::new();
//! let ctrl = map.allocate(DeviceClass::Control)?;
//! let reg0 = ctrl.reg(0);
//! assert_eq!(reg0.device_addr(), ctrl);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bus;
pub mod control;
pub mod monitor;
pub mod regfile;

pub use addr::{Address, DeviceAddr, DEVICES_PER_BUS, MAX_BUSES};
pub use bus::{AddressMap, BusAccess, BusError, DeviceClass, MappedDevice};
pub use control::{ControlDriver, ControlModule};
pub use monitor::Monitor;
pub use regfile::{Access, RegFile};
