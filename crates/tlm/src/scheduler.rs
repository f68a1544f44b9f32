//! A SystemC-like cycle-true process scheduler with double-buffered
//! channels.
//!
//! This kernel reproduces the mechanism of the paper's "SystemC
//! (MPARM)" baseline: components are **processes** activated once per
//! simulated cycle by a central scheduler; they exchange values
//! through **primitive channels** with `sc_signal` semantics — writes
//! go to a shadow slot and become visible in the update phase at the
//! end of the cycle. **Watchers** (value-changed callbacks) fire during
//! the update phase, like SystemC event notifications.
//!
//! Compared with the fast emulation engine, every interaction pays a
//! scheduler activation and a channel update; compared with the RTL
//! kernel there are no per-signal sensitivity lists or delta cycles —
//! which is exactly the cost ordering Table 2 reports.

use nocem_common::flit::Flit;
use nocem_common::time::Cycle;

/// Handle to a flit channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitChanId(u32);

/// Handle to a single-bit channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitChanId(u32);

/// A component process, activated once per cycle.
type Process = Box<dyn FnMut(Cycle, &mut ChannelCtx)>;

/// Update-phase callback observing a flit channel (receptor monitors).
type FlitWatcher = Box<dyn FnMut(Option<Flit>, Cycle)>;

/// Channel access handed to processes (reads see the *current* value;
/// writes land in the shadow slot).
#[derive(Debug, Default)]
pub struct ChannelCtx {
    flit_cur: Vec<Option<Flit>>,
    flit_next: Vec<Option<Flit>>,
    bit_cur: Vec<bool>,
    bit_next: Vec<bool>,
}

impl ChannelCtx {
    /// Reads a flit channel.
    pub fn read_flit(&self, c: FlitChanId) -> Option<Flit> {
        self.flit_cur[c.0 as usize]
    }

    /// Writes a flit channel (visible next cycle).
    pub fn write_flit(&mut self, c: FlitChanId, v: Option<Flit>) {
        self.flit_next[c.0 as usize] = v;
    }

    /// Reads a bit channel.
    pub fn read_bit(&self, c: BitChanId) -> bool {
        self.bit_cur[c.0 as usize]
    }

    /// Writes a bit channel (visible next cycle).
    pub fn write_bit(&mut self, c: BitChanId, v: bool) {
        self.bit_next[c.0 as usize] = v;
    }
}

/// Scheduler work counters (the TLM cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Process activations.
    pub activations: u64,
    /// Channel value updates committed.
    pub channel_updates: u64,
    /// Watcher invocations.
    pub watcher_calls: u64,
    /// Cycles simulated.
    pub cycles: u64,
}

/// The cycle-true scheduler.
///
/// # Examples
///
/// ```
/// use nocem_common::time::Cycle;
/// use nocem_tlm::scheduler::{ChannelCtx, Scheduler};
///
/// let mut s = Scheduler::new();
/// let bit = s.bit_channel();
/// s.process(move |_now: Cycle, ch: &mut ChannelCtx| {
///     let v = ch.read_bit(bit);
///     ch.write_bit(bit, !v);
/// });
/// s.cycle();
/// assert!(s.bit_value(bit));
/// s.cycle();
/// assert!(!s.bit_value(bit));
/// ```
#[derive(Default)]
pub struct Scheduler {
    ctx: ChannelCtx,
    processes: Vec<Process>,
    watchers: Vec<(FlitChanId, FlitWatcher)>,
    time: u64,
    stats: SchedulerStats,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Declares a flit channel (initially idle).
    pub fn flit_channel(&mut self) -> FlitChanId {
        self.ctx.flit_cur.push(None);
        self.ctx.flit_next.push(None);
        FlitChanId((self.ctx.flit_cur.len() - 1) as u32)
    }

    /// Declares a bit channel (initially low).
    pub fn bit_channel(&mut self) -> BitChanId {
        self.ctx.bit_cur.push(false);
        self.ctx.bit_next.push(false);
        BitChanId((self.ctx.bit_cur.len() - 1) as u32)
    }

    /// Registers a process, activated every cycle in registration
    /// order.
    pub fn process(&mut self, p: impl FnMut(Cycle, &mut ChannelCtx) + 'static) {
        self.processes.push(Box::new(p));
    }

    /// Registers a value-changed watcher on a flit channel, invoked in
    /// the update phase of the cycle whose write changed the value.
    pub fn watch_flit(
        &mut self,
        chan: FlitChanId,
        watcher: impl FnMut(Option<Flit>, Cycle) + 'static,
    ) {
        self.watchers.push((chan, Box::new(watcher)));
    }

    /// Current value of a flit channel.
    pub fn flit_value(&self, c: FlitChanId) -> Option<Flit> {
        self.ctx.flit_cur[c.0 as usize]
    }

    /// Current value of a bit channel.
    pub fn bit_value(&self, c: BitChanId) -> bool {
        self.ctx.bit_cur[c.0 as usize]
    }

    /// Takes a bit channel's value between cycles, leaving it low as if
    /// its writer had written low — for a value whose reader is served
    /// outside the processes.
    pub fn take_bit(&mut self, c: BitChanId) -> bool {
        let i = c.0 as usize;
        self.ctx.bit_next[i] = false;
        std::mem::take(&mut self.ctx.bit_cur[i])
    }

    /// Simulated time in cycles.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Jumps simulated time forward without activating any process or
    /// committing any channel — the clock-gating fast-forward. The
    /// caller must have proven the skipped cycles are pure no-ops
    /// (every component quiescent, every channel at its idle value);
    /// the skipped cycles do not count as scheduler work.
    pub fn advance_time(&mut self, cycles: u64) {
        self.time += cycles;
    }

    /// Scheduler work counters.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Runs one cycle: activate all processes, then the update phase
    /// (commit channel writes, fire watchers).
    pub fn cycle(&mut self) {
        let now = Cycle::new(self.time);
        for p in &mut self.processes {
            self.stats.activations += 1;
            p(now, &mut self.ctx);
        }
        // Update phase: bits first (no watchers), then flits.
        for i in 0..self.ctx.bit_cur.len() {
            if self.ctx.bit_cur[i] != self.ctx.bit_next[i] {
                self.ctx.bit_cur[i] = self.ctx.bit_next[i];
                self.stats.channel_updates += 1;
            }
        }
        for i in 0..self.ctx.flit_cur.len() {
            if self.ctx.flit_cur[i] != self.ctx.flit_next[i] {
                self.ctx.flit_cur[i] = self.ctx.flit_next[i];
                self.stats.channel_updates += 1;
                for (chan, watcher) in &mut self.watchers {
                    if chan.0 as usize == i {
                        self.stats.watcher_calls += 1;
                        watcher(self.ctx.flit_cur[i], now);
                    }
                }
            }
        }
        self.time += 1;
        self.stats.cycles += 1;
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("processes", &self.processes.len())
            .field("time", &self.time)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::flit::FlitKind;
    use nocem_common::ids::{EndpointId, FlowId, PacketId};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn flit(n: u64) -> Flit {
        Flit {
            packet: PacketId::new(n),
            kind: FlitKind::Single,
            seq: 0,
            flow: FlowId::new(0),
            dst: EndpointId::new(0),
            vc: nocem_common::ids::VcId::ZERO,
            payload: 0,
        }
    }

    #[test]
    fn double_buffering_hides_same_cycle_writes() {
        let mut s = Scheduler::new();
        let c = s.flit_channel();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let seen2 = Rc::clone(&seen);
        // Process A writes; process B (registered later, same cycle)
        // must still read the old value.
        s.process(move |now: Cycle, ch: &mut ChannelCtx| {
            if now.raw() == 0 {
                ch.write_flit(c, Some(flit(7)));
            }
        });
        s.process(move |_now: Cycle, ch: &mut ChannelCtx| {
            seen2
                .borrow_mut()
                .push(ch.read_flit(c).map(|f| f.packet.raw()));
        });
        s.cycle();
        s.cycle();
        assert_eq!(*seen.borrow(), vec![None, Some(7)]);
    }

    #[test]
    fn watcher_fires_on_change_only() {
        let mut s = Scheduler::new();
        let c = s.flit_channel();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let hits2 = Rc::clone(&hits);
        s.watch_flit(c, move |v, now| {
            hits2
                .borrow_mut()
                .push((now.raw(), v.map(|f| f.packet.raw())));
        });
        s.process(move |now: Cycle, ch: &mut ChannelCtx| {
            // Write flit 1 at cycle 0, keep it at cycle 1, clear at 2.
            let v = match now.raw() {
                0 | 1 => Some(flit(1)),
                _ => None,
            };
            ch.write_flit(c, v);
        });
        for _ in 0..4 {
            s.cycle();
        }
        assert_eq!(*hits.borrow(), vec![(0, Some(1)), (2, None)]);
        assert_eq!(s.stats().watcher_calls, 2);
    }

    #[test]
    fn bit_channels_update() {
        let mut s = Scheduler::new();
        let b = s.bit_channel();
        s.process(move |_now: Cycle, ch: &mut ChannelCtx| {
            let v = ch.read_bit(b);
            ch.write_bit(b, !v);
        });
        s.cycle();
        assert!(s.bit_value(b));
        assert_eq!(s.stats().channel_updates, 1);
    }

    #[test]
    fn processes_run_in_registration_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut s = Scheduler::new();
        for tag in 0..3 {
            let o = Rc::clone(&order);
            s.process(move |_n: Cycle, _c: &mut ChannelCtx| o.borrow_mut().push(tag));
        }
        s.cycle();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
        assert_eq!(s.stats().activations, 3);
        assert_eq!(s.time(), 1);
    }
}
