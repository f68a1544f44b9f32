//! Transaction-level model of the emulation platform.
//!
//! The platform's process model ([`nocem::process`]) over the
//! scheduler's double-buffered channels ([`crate::scheduler`]): one
//! channel per link and per (link, VC) credit, one process per network
//! interface and switch, one watcher per receptor. Runs are cycle- and
//! flit-identical to the fast engine and the RTL model; the cost sits
//! between them — the MPARM role in the paper's Table 2.

use crate::scheduler::{BitChanId, ChannelCtx, FlitChanId, Scheduler};
use nocem::error::EmulationError;
use nocem::process::{Fabric, ProcessModel};
use nocem_common::flit::Flit;
use nocem_common::time::Cycle;

/// The transaction-level simulation engine.
pub type TlmEngine = ProcessModel<Scheduler>;

impl Fabric for Scheduler {
    const LABEL: &'static str = "tlm";
    type FlitLink = FlitChanId;
    type CreditLink = BitChanId;
    type Ctx<'a> = ChannelCtx;

    fn flit_link(&mut self, _link: usize) -> FlitChanId {
        self.flit_channel()
    }

    fn credit_link(&mut self, _link: usize, _vc: usize) -> BitChanId {
        self.bit_channel()
    }

    fn clocked(&mut self, process: impl for<'a> FnMut(Cycle, &mut ChannelCtx) + 'static) {
        self.process(process);
    }

    fn watch(&mut self, link: FlitChanId, watcher: impl FnMut(Option<Flit>, Cycle) + 'static) {
        self.watch_flit(link, watcher);
    }

    fn read_flit(ctx: &ChannelCtx, link: FlitChanId) -> Option<Flit> {
        ctx.read_flit(link)
    }

    fn write_flit(ctx: &mut ChannelCtx, link: FlitChanId, flit: Option<Flit>) {
        ctx.write_flit(link, flit);
    }

    fn read_credit(ctx: &ChannelCtx, link: BitChanId) -> bool {
        ctx.read_bit(link)
    }

    fn write_credit(ctx: &mut ChannelCtx, link: BitChanId, credit: bool) {
        ctx.write_bit(link, credit);
    }

    fn peek_flit(&self, link: FlitChanId) -> Option<Flit> {
        self.flit_value(link)
    }

    fn peek_credit(&self, link: BitChanId) -> bool {
        self.bit_value(link)
    }

    fn take_credit(&mut self, link: BitChanId) -> bool {
        self.take_bit(link)
    }

    fn time(&self) -> u64 {
        Scheduler::time(self)
    }

    fn advance_time(&mut self, cycles: u64) {
        Scheduler::advance_time(self, cycles);
    }

    fn cycle(&mut self) -> Result<(), EmulationError> {
        Scheduler::cycle(self);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem::clock::SteppableEngine;
    use nocem::compile::elaborate;
    use nocem::config::PaperConfig;

    #[test]
    fn tlm_delivers_all_packets() {
        let cfg = PaperConfig::new().total_packets(150).uniform();
        let mut engine = TlmEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        let s = engine.summary();
        assert_eq!(s.delivered, 150);
        assert!(engine.fabric().stats().activations > s.cycles);
    }

    #[test]
    fn tlm_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new().total_packets(300).burst(8);
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        let mut tlm = TlmEngine::new(elaborate(&cfg).unwrap());
        tlm.run().unwrap();
        let s = tlm.summary();
        assert_eq!(s.cycles, emu.now().raw(), "cycle-exact run length");
        assert_eq!(s.delivered, emu.delivered());
        assert_eq!(
            s.network_latency.sum(),
            emu.ledger().network_latency().sum()
        );
        assert_eq!(s.total_latency.sum(), emu.ledger().total_latency().sum());
    }

    #[test]
    fn tlm_telemetry_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new()
            .total_packets(200)
            .burst(8)
            .with_telemetry(Some(nocem_telemetry::TelemetryConfig::windowed(64)));
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        emu.seal_telemetry();
        let mut tlm = TlmEngine::new(elaborate(&cfg).unwrap());
        tlm.run().unwrap();
        tlm.seal_telemetry();
        let fast = emu.telemetry().unwrap();
        let ours = tlm.telemetry().unwrap();
        assert!(fast.windows_recorded() > 0, "run long enough to window");
        assert_eq!(
            ours, fast,
            "windowed series (incl. live occupancy) are engine-invariant"
        );
    }

    #[test]
    fn tlm_trace_driven_works() {
        let cfg = PaperConfig::new().total_packets(100).trace_bursty(4);
        let mut engine = TlmEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        assert_eq!(engine.delivered(), 100);
    }

    #[test]
    fn tlm_cycle_limit_enforced() {
        let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
        cfg.stop.cycle_limit = 100;
        let mut engine = TlmEngine::new(elaborate(&cfg).unwrap());
        assert!(matches!(
            engine.run(),
            Err(EmulationError::CycleLimitExceeded { .. })
        ));
    }
}
