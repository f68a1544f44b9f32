//! Error types of the emulation framework.

use nocem_common::ids::{EndpointId, SwitchId};
use nocem_platform::bus::BusError;
use nocem_stats::ledger::LedgerError;
use nocem_stats::receptor::ReceiveError;
use nocem_switch::fifo::FifoFullError;
use nocem_switch::switch::BuildSwitchError;
use nocem_topology::deadlock::DeadlockCycle;
use nocem_topology::TopologyError;

/// Errors detected while compiling a platform configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The topology or routing configuration is invalid.
    Topology(TopologyError),
    /// The routing configuration could deadlock the network.
    Deadlock(DeadlockCycle),
    /// A switch could not be instantiated.
    Switch {
        /// The offending switch.
        switch: SwitchId,
        /// The underlying error.
        source: BuildSwitchError,
    },
    /// The traffic configuration does not match the topology.
    TrafficMismatch {
        /// What is wrong.
        reason: String,
    },
    /// The routing tables use a virtual channel the switches do not
    /// have.
    VcOverflow {
        /// Highest VC any routing entry references (0-based).
        max_vc: u8,
        /// Configured VCs per switch port.
        num_vcs: u8,
    },
    /// A configuration field holds a value no platform can be built
    /// with.
    InvalidField {
        /// The field, as a path into `PlatformConfig`
        /// (`switch.fifo_depth`).
        field: &'static str,
        /// What a valid value is.
        reason: &'static str,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Topology(e) => write!(f, "topology error: {e}"),
            CompileError::Deadlock(c) => write!(f, "routing is not deadlock-free: {c}"),
            CompileError::Switch { switch, source } => {
                write!(f, "cannot build switch {switch}: {source}")
            }
            CompileError::TrafficMismatch { reason } => {
                write!(f, "traffic configuration mismatch: {reason}")
            }
            CompileError::VcOverflow { max_vc, num_vcs } => write!(
                f,
                "routing uses VC {max_vc} but switches have only {num_vcs} VCs"
            ),
            CompileError::InvalidField { field, reason } => {
                write!(f, "invalid `{field}`: {reason}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<TopologyError> for CompileError {
    fn from(e: TopologyError) -> Self {
        CompileError::Topology(e)
    }
}

impl From<DeadlockCycle> for CompileError {
    fn from(e: DeadlockCycle) -> Self {
        CompileError::Deadlock(e)
    }
}

/// Errors raised while an emulation runs. Every variant indicates an
/// engine or wiring bug, not a legal traffic condition — the engines
/// are designed so that a correct build can never return one.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EmulationError {
    /// A buffer overflowed: flow-control credits were mis-wired.
    FifoOverflow {
        /// The switch whose buffer overflowed.
        switch: SwitchId,
        /// The underlying error.
        source: FifoFullError,
    },
    /// A receptor detected a protocol violation.
    Receive {
        /// The receptor.
        receptor: EndpointId,
        /// The underlying error.
        source: ReceiveError,
    },
    /// Packet conservation was violated.
    Ledger(LedgerError),
    /// The run hit the safety cycle limit before meeting its stop
    /// condition.
    CycleLimitExceeded {
        /// The configured limit.
        limit: u64,
        /// Packets delivered when the limit was hit.
        delivered: u64,
    },
    /// A register access performed by the run-control software
    /// faulted.
    Bus(BusError),
    /// The configuration of a run did not compile (a runner that
    /// builds its engine itself reports it here).
    Compile(CompileError),
}

impl std::fmt::Display for EmulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmulationError::FifoOverflow { switch, source } => {
                write!(f, "buffer overflow at switch {switch}: {source}")
            }
            EmulationError::Receive { receptor, source } => {
                write!(f, "reception error at {receptor}: {source}")
            }
            EmulationError::Ledger(e) => write!(f, "packet conservation violated: {e}"),
            EmulationError::CycleLimitExceeded { limit, delivered } => write!(
                f,
                "cycle limit {limit} exceeded with only {delivered} packets delivered"
            ),
            EmulationError::Bus(e) => write!(f, "bus fault: {e}"),
            EmulationError::Compile(e) => write!(f, "configuration failed to compile: {e}"),
        }
    }
}

impl std::error::Error for EmulationError {}

impl From<LedgerError> for EmulationError {
    fn from(e: LedgerError) -> Self {
        EmulationError::Ledger(e)
    }
}

impl From<BusError> for EmulationError {
    fn from(e: BusError) -> Self {
        EmulationError::Bus(e)
    }
}

impl From<CompileError> for EmulationError {
    fn from(e: CompileError) -> Self {
        EmulationError::Compile(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::ids::FlowId;

    #[test]
    fn display_messages() {
        let e = CompileError::Topology(TopologyError::NoRoute {
            flow: FlowId::new(1),
        });
        assert!(e.to_string().contains("no route"));
        let e = EmulationError::CycleLimitExceeded {
            limit: 100,
            delivered: 7,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn conversions() {
        let ce: CompileError = TopologyError::Empty.into();
        assert!(matches!(ce, CompileError::Topology(_)));
        let ee: EmulationError = LedgerError::DuplicateRelease(Default::default()).into();
        assert!(matches!(ee, EmulationError::Ledger(_)));
    }

    #[test]
    fn errors_are_send_sync() {
        fn ok<E: std::error::Error + Send + Sync + 'static>() {}
        ok::<CompileError>();
        ok::<EmulationError>();
    }
}
