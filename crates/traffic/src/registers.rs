//! Register-map layout of traffic generator devices.
//!
//! The paper's TG contains "a bench of registers for traffic
//! parameterization \[and\] random initialization" behind the platform
//! bus. This module pins down the register offsets and fixed-point
//! encodings that the memory-mapped TG device (in the core crate) and
//! its driver (the "software part") agree on. Keeping the layout here,
//! next to the traffic models, means a model change and its register
//! encoding change review together.
//!
//! All registers are 32 bits wide. Probabilities are encoded as Q0.16
//! fixed point in the low half-word (the comparator width a hardware
//! LFSR draw is checked against).
//!
//! Software may write only the registers that are fields of a traffic
//! model (model, length, gaps, probabilities, budget, destination,
//! flow); they are configuration, applied when the run starts. Every
//! other register is read-only.

/// Control register (read-only): bit 0 = enable, always set.
pub const REG_CTRL: u16 = 0x0;
/// Status register (read-only): bit 0 = exhausted, bit 1 = idle.
pub const REG_STATUS: u16 = 0x1;
/// Traffic model selector, see [`ModelCode`].
pub const REG_MODEL: u16 = 0x2;
/// RNG seed, low 32 bits (read-only: the seed elaboration drew from
/// the platform seed).
pub const REG_SEED_LO: u16 = 0x3;
/// RNG seed, high 32 bits (read-only).
pub const REG_SEED_HI: u16 = 0x4;
/// Packet length in flits.
pub const REG_PACKET_LEN: u16 = 0x5;
/// Minimum inter-packet gap (uniform model).
pub const REG_GAP_MIN: u16 = 0x6;
/// Maximum inter-packet gap (uniform model).
pub const REG_GAP_MAX: u16 = 0x7;
/// Idle→burst probability, Q0.16 (burst/Poisson models).
pub const REG_START_PROB: u16 = 0x8;
/// Burst continuation probability, Q0.16 (burst model).
pub const REG_CONT_PROB: u16 = 0x9;
/// Packet budget, low 32 bits (`0xFFFF_FFFF/0xFFFF_FFFF` = unbounded).
pub const REG_BUDGET_LO: u16 = 0xA;
/// Packet budget, high 32 bits.
pub const REG_BUDGET_HI: u16 = 0xB;
/// Destination endpoint id.
pub const REG_DST: u16 = 0xC;
/// Flow id.
pub const REG_FLOW: u16 = 0xD;
/// Packets released so far, low 32 bits (read-only).
pub const REG_SENT_LO: u16 = 0xE;
/// Packets released so far, high 32 bits (read-only).
pub const REG_SENT_HI: u16 = 0xF;
/// Flits injected so far, low 32 bits (read-only).
pub const REG_FLITS_LO: u16 = 0x10;
/// Flits injected so far, high 32 bits (read-only).
pub const REG_FLITS_HI: u16 = 0x11;
/// Injection blocked-cycle counter, low 32 bits (read-only).
pub const REG_BLOCKED_LO: u16 = 0x12;
/// Injection blocked-cycle counter, high 32 bits (read-only).
pub const REG_BLOCKED_HI: u16 = 0x13;

/// Number of registers a TG device occupies.
pub const TG_REG_COUNT: u16 = 0x14;

/// Traffic model codes written to [`REG_MODEL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum ModelCode {
    /// Uniform stochastic model.
    Uniform = 0,
    /// Burst (2-state Markov) model.
    Burst = 1,
    /// Poisson model.
    Poisson = 2,
    /// Trace-driven replay.
    Trace = 3,
}

impl ModelCode {
    /// Decodes a register value.
    pub fn from_raw(raw: u32) -> Option<Self> {
        match raw {
            0 => Some(ModelCode::Uniform),
            1 => Some(ModelCode::Burst),
            2 => Some(ModelCode::Poisson),
            3 => Some(ModelCode::Trace),
            _ => None,
        }
    }
}

/// Encodes a probability as the Q0.16 fixed-point register value.
///
/// # Examples
///
/// ```
/// use nocem_traffic::registers::{prob_to_q16, q16_to_prob};
/// let q = prob_to_q16(0.45);
/// assert!((q16_to_prob(q) - 0.45).abs() < 1e-4);
/// ```
pub fn prob_to_q16(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * 65_535.0).round() as u32
}

/// Decodes a Q0.16 fixed-point register value into a probability.
pub fn q16_to_prob(q: u32) -> f64 {
    f64::from(q.min(65_535)) / 65_535.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_offsets_are_dense_and_unique() {
        let regs = [
            REG_CTRL,
            REG_STATUS,
            REG_MODEL,
            REG_SEED_LO,
            REG_SEED_HI,
            REG_PACKET_LEN,
            REG_GAP_MIN,
            REG_GAP_MAX,
            REG_START_PROB,
            REG_CONT_PROB,
            REG_BUDGET_LO,
            REG_BUDGET_HI,
            REG_DST,
            REG_FLOW,
            REG_SENT_LO,
            REG_SENT_HI,
            REG_FLITS_LO,
            REG_FLITS_HI,
            REG_BLOCKED_LO,
            REG_BLOCKED_HI,
        ];
        assert_eq!(regs.len(), TG_REG_COUNT as usize);
        let mut sorted = regs.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), regs.len(), "offsets collide");
        assert_eq!(*sorted.last().unwrap(), TG_REG_COUNT - 1);
    }

    #[test]
    fn model_code_roundtrip() {
        for code in [
            ModelCode::Uniform,
            ModelCode::Burst,
            ModelCode::Poisson,
            ModelCode::Trace,
        ] {
            assert_eq!(ModelCode::from_raw(code as u32), Some(code));
        }
        assert_eq!(ModelCode::from_raw(99), None);
    }

    #[test]
    fn q16_roundtrip_precision() {
        for p in [0.0, 0.25, 0.45, 0.5, 0.999, 1.0] {
            assert!((q16_to_prob(prob_to_q16(p)) - p).abs() < 1e-4);
        }
    }

    #[test]
    fn q16_clamps() {
        assert_eq!(prob_to_q16(-1.0), 0);
        assert_eq!(prob_to_q16(2.0), 65_535);
        assert_eq!(q16_to_prob(1_000_000), 1.0);
    }
}
