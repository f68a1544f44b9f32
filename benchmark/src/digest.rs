//! FNV-1a over a run's simulated outcome. Hand-rolled, not `std::hash`:
//! the goldens under `golden/` must mean the same thing on every
//! toolchain and host.

use nocem::{EmulationResults, EngineSummary};
use nocem_stats::PacketLedger;

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a byte string (the curve set's CSV).
pub fn of_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// Digest of everything a stepping run simulated: the clocks, the
/// counters and the lifecycle of every packet. A change that moves any
/// simulated statistic moves this.
pub fn of_run(summary: &EngineSummary, results: &EmulationResults, ledger: &PacketLedger) -> u64 {
    let mut h = Fnv::new();
    for v in [
        summary.cycles,
        summary.cycles_skipped,
        summary.released,
        summary.injected,
        summary.delivered,
        summary.delivered_flits,
        results.stalled_cycles,
    ] {
        h.u64(v);
    }
    for r in ledger.records() {
        h.u64(r.id.raw());
        h.u64(r.release.raw());
        h.u64(u64::from(r.len_flits));
        h.u64(r.inject.map_or(u64::MAX, |c| c.raw()));
        h.u64(r.deliver.map_or(u64::MAX, |c| c.raw()));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn fixed_vectors() {
        assert_eq!(of_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn u64_is_little_endian_bytes() {
        let mut a = Fnv::new();
        a.u64(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), of_bytes(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
