//! RTL-style model of the emulation platform.
//!
//! The platform's process model ([`nocem::process`]) at the signal
//! level, scheduled by the event-driven [`crate::kernel`]: every link
//! is a flit wire plus a reverse credit wire per VC, every switch and
//! network interface is a clocked process with nonblocking outputs, and
//! every receptor is a monitor process woken by activity on its
//! ejection wire.
//!
//! Because the processes wrap the *identical* component models and the
//! kernel's NBA semantics realize exactly the two-phase cycle contract
//! of `nocem-switch`, a run here is cycle- and flit-identical to the
//! fast engine — it just pays the per-signal event machinery that a
//! Verilog simulator pays, which is the point of the Table 2 baseline.

use crate::kernel::{Kernel, ProcessCtx, SignalId, Value};
use nocem::error::EmulationError;
use nocem::process::{Fabric, ProcessModel};
use nocem_common::flit::Flit;
use nocem_common::ids::{BusId, DeviceId};
use nocem_common::time::Cycle;
use nocem_platform::addr::Address;
use nocem_platform::bus::BusError;

/// The RTL simulation engine.
pub type RtlEngine = ProcessModel<Kernel>;

/// Waveform capture on the RTL engine's kernel.
pub trait Vcd {
    /// Enables VCD recording on the kernel.
    fn enable_vcd(&mut self);
    /// The VCD document, if recording was enabled.
    fn vcd_output(&self) -> Option<String>;
}

impl Vcd for RtlEngine {
    fn enable_vcd(&mut self) {
        self.fabric_mut().enable_vcd();
    }

    fn vcd_output(&self) -> Option<String> {
        self.fabric().vcd_output()
    }
}

impl Fabric for Kernel {
    const LABEL: &'static str = "rtl";
    type FlitLink = SignalId;
    type CreditLink = SignalId;
    type Ctx<'a> = ProcessCtx<'a>;

    fn flit_link(&mut self, link: usize) -> SignalId {
        self.signal(format!("flit_l{link}"))
    }

    fn credit_link(&mut self, link: usize, vc: usize) -> SignalId {
        self.signal(format!("credit_l{link}v{vc}"))
    }

    fn clocked(&mut self, mut process: impl for<'a> FnMut(Cycle, &mut ProcessCtx<'a>) + 'static) {
        self.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
            process(Cycle::new(ctx.time()), ctx);
        });
    }

    fn watch(&mut self, link: SignalId, mut watcher: impl FnMut(Option<Flit>, Cycle) + 'static) {
        self.reactive_process(&[link], move |ctx: &mut ProcessCtx<'_>| {
            watcher(ctx.read(link).flit(), Cycle::new(ctx.time()));
        });
    }

    fn read_flit(ctx: &ProcessCtx<'_>, link: SignalId) -> Option<Flit> {
        ctx.read(link).flit()
    }

    fn write_flit(ctx: &mut ProcessCtx<'_>, link: SignalId, flit: Option<Flit>) {
        ctx.write(link, Value::Flit(flit));
    }

    fn read_credit(ctx: &ProcessCtx<'_>, link: SignalId) -> bool {
        ctx.read(link).is_high()
    }

    fn write_credit(ctx: &mut ProcessCtx<'_>, link: SignalId, credit: bool) {
        ctx.write(link, if credit { Value::High } else { Value::Low });
    }

    fn peek_flit(&self, link: SignalId) -> Option<Flit> {
        self.value(link).flit()
    }

    fn peek_credit(&self, link: SignalId) -> bool {
        self.value(link).is_high()
    }

    fn take_credit(&mut self, link: SignalId) -> bool {
        self.take_high(link)
    }

    fn time(&self) -> u64 {
        Kernel::time(self)
    }

    fn advance_time(&mut self, cycles: u64) {
        Kernel::advance_time(self, cycles);
    }

    fn cycle(&mut self) -> Result<(), EmulationError> {
        Kernel::cycle(self).map_err(|e| {
            let addr = Address::from_parts(BusId::new(0), DeviceId::new(0), 0);
            let reason = e.to_string();
            EmulationError::Bus(BusError::InvalidValue { addr, reason })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem::clock::SteppableEngine;
    use nocem::compile::elaborate;
    use nocem::config::PaperConfig;

    #[test]
    fn rtl_delivers_all_packets() {
        let cfg = PaperConfig::new().total_packets(150).uniform();
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        let (s, kernel) = (engine.summary(), engine.fabric().stats());
        assert_eq!(s.delivered, 150);
        assert!(s.cycles > 0);
        assert!(kernel.signal_events > 0);
        assert!(kernel.activations > s.cycles, "many activations per cycle");
    }

    #[test]
    fn rtl_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new().total_packets(300).burst(8);
        // Fast engine.
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        // RTL engine on a fresh elaboration of the same config.
        let mut rtl = RtlEngine::new(elaborate(&cfg).unwrap());
        rtl.run().unwrap();
        let s = rtl.summary();
        assert_eq!(s.cycles, emu.now().raw(), "cycle-exact run length");
        assert_eq!(s.delivered, emu.delivered());
        assert_eq!(
            s.network_latency.sum(),
            emu.ledger().network_latency().sum(),
            "identical per-packet network latencies"
        );
        assert_eq!(
            s.total_latency.sum(),
            emu.ledger().total_latency().sum(),
            "identical per-packet total latencies"
        );
        assert_eq!(
            s.network_latency.max(),
            emu.ledger().network_latency().max()
        );
    }

    #[test]
    fn rtl_telemetry_matches_fast_engine_exactly() {
        let cfg = PaperConfig::new()
            .total_packets(200)
            .burst(8)
            .with_telemetry(Some(nocem_telemetry::TelemetryConfig::windowed(64)));
        let mut emu = nocem::engine::build(&cfg).unwrap();
        emu.run().unwrap();
        emu.seal_telemetry();
        let mut rtl = RtlEngine::new(elaborate(&cfg).unwrap());
        rtl.run().unwrap();
        rtl.seal_telemetry();
        let fast = emu.telemetry().unwrap();
        let ours = rtl.telemetry().unwrap();
        assert!(fast.windows_recorded() > 0, "run long enough to window");
        assert_eq!(
            ours, fast,
            "windowed series (incl. live occupancy) are engine-invariant"
        );
    }

    #[test]
    fn rtl_vcd_capture_works() {
        let cfg = PaperConfig::new().total_packets(10).uniform();
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        engine.enable_vcd();
        engine.run().unwrap();
        let vcd = engine.vcd_output().unwrap();
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("flit_l"));
    }

    #[test]
    fn rtl_drain_mode_terminates() {
        let mut cfg = PaperConfig::new().total_packets(60).uniform();
        cfg.stop.delivered_packets = None;
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        engine.run().unwrap();
        assert_eq!(engine.delivered(), 60);
    }

    #[test]
    fn rtl_cycle_limit_enforced() {
        let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
        cfg.stop.cycle_limit = 200;
        let mut engine = RtlEngine::new(elaborate(&cfg).unwrap());
        assert!(matches!(
            engine.run(),
            Err(EmulationError::CycleLimitExceeded { .. })
        ));
    }
}
