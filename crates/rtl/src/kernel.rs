//! An event-driven RTL simulation kernel.
//!
//! This is the mechanism that makes HDL simulators (the paper's
//! "Verilog / ModelSim" baseline) slow and general: **signals** hold
//! values; **processes** wake on clock edges or on signal changes
//! (sensitivity lists); writes are **nonblocking** (they take effect
//! in a delta cycle after all processes of the current phase ran), and
//! cascaded wake-ups run to a fixpoint before simulated time advances.
//!
//! The kernel counts its own work (process activations, signal events,
//! delta cycles) so the Table 2 reproduction can report *why* RTL
//! simulation is orders of magnitude slower than the emulation engine
//! on identical workloads.
//!
//! A simple VCD dump ([`Kernel::enable_vcd`]) is included for
//! waveform-level debugging, as any RTL simulator would offer.

use nocem_common::flit::Flit;
use std::fmt::Write as _;

/// Value carried by a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Value {
    /// Logic low (also the reset value of every signal).
    #[default]
    Low,
    /// Logic high.
    High,
    /// A word-sized bus.
    Word(u64),
    /// A flit bus with its valid bit (`None` = idle).
    Flit(Option<Flit>),
}

impl Value {
    /// Interprets the value as a boolean wire.
    pub fn is_high(self) -> bool {
        matches!(self, Value::High)
    }

    /// Extracts a flit if the bus is valid.
    pub fn flit(self) -> Option<Flit> {
        match self {
            Value::Flit(f) => f,
            _ => None,
        }
    }
}

/// Handle to a signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(u32);

impl SignalId {
    /// Dense index of the signal.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Read/write access handed to a process while it executes.
pub struct ProcessCtx<'a> {
    signals: &'a [Value],
    nba: &'a mut Vec<(SignalId, Value)>,
    time: u64,
}

impl ProcessCtx<'_> {
    /// Current simulated time (cycle number).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Reads the *current* value of a signal (writes of this phase are
    /// not yet visible — nonblocking semantics).
    pub fn read(&self, sig: SignalId) -> Value {
        self.signals[sig.index()]
    }

    /// Schedules a nonblocking write, applied in the next delta.
    pub fn write(&mut self, sig: SignalId, value: Value) {
        self.nba.push((sig, value));
    }
}

/// A simulation process: sequential (clocked) or reactive
/// (sensitivity-driven).
type Process = Box<dyn FnMut(&mut ProcessCtx<'_>)>;

/// Kernel statistics — the cost model of RTL simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Process activations executed.
    pub activations: u64,
    /// Signal value changes dispatched.
    pub signal_events: u64,
    /// Delta cycles executed.
    pub delta_cycles: u64,
    /// Clock cycles simulated.
    pub cycles: u64,
}

/// Error raised when combinational logic fails to settle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvergenceError {
    /// The time step at which the network oscillated.
    pub time: u64,
}

impl std::fmt::Display for ConvergenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "delta cycles did not converge at time {}", self.time)
    }
}

impl std::error::Error for ConvergenceError {}

/// The event-driven kernel.
///
/// # Examples
///
/// ```
/// use nocem_rtl::kernel::{Kernel, Value};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut k = Kernel::new();
/// let q = k.signal("q");
/// // A clocked toggler: q <= !q every cycle.
/// k.clocked_process(move |ctx: &mut nocem_rtl::kernel::ProcessCtx<'_>| {
///     let v = if ctx.read(q).is_high() { Value::Low } else { Value::High };
///     ctx.write(q, v);
/// });
/// k.cycle()?;
/// assert!(k.value(q).is_high());
/// k.cycle()?;
/// assert!(!k.value(q).is_high());
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Kernel {
    signals: Vec<Value>,
    names: Vec<String>,
    sensitivity: Vec<Vec<u32>>,
    clocked: Vec<u32>,
    processes: Vec<Process>,
    nba: Vec<(SignalId, Value)>,
    /// The writes being applied while processes queue the next delta's
    /// in `nba`: the two swap each delta, so neither reallocates once
    /// warm.
    applying: Vec<(SignalId, Value)>,
    /// The processes the last applied writes woke, in waking order.
    wake: Vec<u32>,
    stats: KernelStats,
    time: u64,
    /// Whether the one-time reactive initialization pass has run.
    /// Keyed on a flag, not on `time == 0`, so a clock-gating
    /// [`Kernel::advance_time`] jump before the first cycle cannot
    /// skip it.
    initialized: bool,
    vcd: Option<Vcd>,
}

/// Delta cycles one time step may take before the kernel reports an
/// oscillation.
const MAX_DELTAS: u32 = 1_000;

#[derive(Debug, Default)]
struct Vcd {
    body: String,
    last_time_marker: Option<u64>,
}

impl Kernel {
    /// Creates an empty kernel.
    pub fn new() -> Self {
        Kernel::default()
    }

    /// Declares a signal, initialized to [`Value::Low`].
    pub fn signal(&mut self, name: impl Into<String>) -> SignalId {
        self.signals.push(Value::Low);
        self.sensitivity.push(Vec::new());
        self.names.push(name.into());
        SignalId((self.signals.len() - 1) as u32)
    }

    /// Registers a process activated at every clock edge, in
    /// registration order.
    pub fn clocked_process(&mut self, p: impl FnMut(&mut ProcessCtx<'_>) + 'static) {
        self.clocked.push(self.processes.len() as u32);
        self.processes.push(Box::new(p));
    }

    /// Registers a process activated whenever any signal in `sens`
    /// changes (combinational logic or monitors).
    pub fn reactive_process(
        &mut self,
        sens: &[SignalId],
        p: impl FnMut(&mut ProcessCtx<'_>) + 'static,
    ) {
        for s in sens {
            self.sensitivity[s.index()].push(self.processes.len() as u32);
        }
        self.processes.push(Box::new(p));
    }

    /// Current value of a signal.
    pub fn value(&self, sig: SignalId) -> Value {
        self.signals[sig.index()]
    }

    /// Drives `sig` low between cycles if it is high and reports whether
    /// it was — for a value whose reader is served outside the clocked
    /// processes. The change is recorded like any other; `sig` must
    /// have no sensitive process.
    pub fn take_high(&mut self, sig: SignalId) -> bool {
        let high = self.value(sig).is_high();
        if high {
            self.nba.push((sig, Value::Low));
            self.apply_nba();
            debug_assert!(self.wake.is_empty(), "a taken signal wakes no process");
        }
        high
    }

    /// Current simulated time in cycles.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Jumps simulated time forward without activating any process or
    /// dispatching any event — the clock-gating fast-forward. The
    /// caller must have proven the skipped cycles are pure no-ops
    /// (every component quiescent, every signal at its idle value);
    /// the skipped cycles do not count as kernel work.
    pub fn advance_time(&mut self, cycles: u64) {
        self.time += cycles;
    }

    /// Kernel work counters.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Starts VCD recording (in memory; fetch with
    /// [`Kernel::vcd_output`]).
    pub fn enable_vcd(&mut self) {
        self.vcd = Some(Vcd::default());
    }

    /// Renders the VCD document recorded so far.
    pub fn vcd_output(&self) -> Option<String> {
        let vcd = self.vcd.as_ref()?;
        let mut out = String::from("$timescale 1ns $end\n$scope module nocem $end\n");
        for (i, name) in self.names.iter().enumerate() {
            let _ = writeln!(out, "$var wire 64 s{i} {} $end", sanitize(name));
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        out.push_str(&vcd.body);
        Some(out)
    }

    fn run_process(&mut self, pid: u32) {
        self.stats.activations += 1;
        let mut ctx = ProcessCtx {
            signals: &self.signals,
            nba: &mut self.nba,
            time: self.time,
        };
        self.processes[pid as usize](&mut ctx);
    }

    /// Applies queued NBA writes; leaves the processes to wake in
    /// `wake`.
    fn apply_nba(&mut self) {
        self.wake.clear();
        std::mem::swap(&mut self.nba, &mut self.applying);
        for &(sig, value) in &self.applying {
            let cur = &mut self.signals[sig.index()];
            if *cur == value {
                continue;
            }
            *cur = value;
            self.stats.signal_events += 1;
            if let Some(vcd) = &mut self.vcd {
                if vcd.last_time_marker != Some(self.time) {
                    let _ = writeln!(vcd.body, "#{}", self.time);
                    vcd.last_time_marker = Some(self.time);
                }
                let _ = writeln!(vcd.body, "b{:b} s{}", encode(value), sig.index());
            }
            for &p in &self.sensitivity[sig.index()] {
                if !self.wake.contains(&p) {
                    self.wake.push(p);
                }
            }
        }
        self.applying.clear();
    }

    /// Simulates one clock cycle: activate every clocked process, then
    /// run delta cycles (NBA apply → wake sensitive processes) until
    /// the network settles.
    ///
    /// # Errors
    ///
    /// Returns [`ConvergenceError`] if the delta loop exceeds its
    /// bound (combinational oscillation).
    pub fn cycle(&mut self) -> Result<(), ConvergenceError> {
        for k in 0..self.clocked.len() {
            self.run_process(self.clocked[k]);
        }
        // Initialization phase: on the first cycle every reactive
        // process runs once (as HDL simulators do), so combinational
        // networks settle from their reset values even before any
        // input event — also when clock gating jumped time before the
        // first cycle executed.
        if !self.initialized {
            self.initialized = true;
            let reactive: Vec<u32> = (0..self.processes.len() as u32)
                .filter(|p| !self.clocked.contains(p))
                .collect();
            for pid in reactive {
                self.run_process(pid);
            }
        }
        let mut deltas = 0;
        loop {
            self.apply_nba();
            if self.wake.is_empty() {
                break;
            }
            self.stats.delta_cycles += 1;
            deltas += 1;
            if deltas > MAX_DELTAS {
                return Err(ConvergenceError { time: self.time });
            }
            for i in 0..self.wake.len() {
                self.run_process(self.wake[i]);
            }
        }
        self.time += 1;
        self.stats.cycles += 1;
        Ok(())
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("signals", &self.signals.len())
            .field("processes", &self.processes.len())
            .field("time", &self.time)
            .finish_non_exhaustive()
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn encode(value: Value) -> u64 {
    match value {
        Value::Low => 0,
        Value::High => 1,
        Value::Word(w) => w,
        Value::Flit(None) => 0,
        Value::Flit(Some(f)) => 0x8000_0000_0000_0000 | f.packet.raw() << 16 | u64::from(f.seq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocked_counter_counts() {
        let mut k = Kernel::new();
        let count = k.signal("count");
        k.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
            let v = match ctx.read(count) {
                Value::Word(w) => w,
                _ => 0,
            };
            ctx.write(count, Value::Word(v + 1));
        });
        for _ in 0..5 {
            k.cycle().unwrap();
        }
        assert_eq!(k.value(count), Value::Word(5));
        assert_eq!(k.stats().cycles, 5);
        assert_eq!(k.stats().activations, 5);
    }

    #[test]
    fn nonblocking_semantics_swap() {
        // Two registers swapping values every cycle — only correct
        // with NBA semantics.
        let mut k = Kernel::new();
        let a = k.signal("a");
        let b = k.signal("b");
        k.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
            if ctx.time() == 0 {
                ctx.write(a, Value::Word(1));
                ctx.write(b, Value::Word(2));
            } else {
                ctx.write(a, ctx.read(b));
                ctx.write(b, ctx.read(a));
            }
        });
        k.cycle().unwrap(); // load 1, 2
        k.cycle().unwrap(); // swap
        assert_eq!(k.value(a), Value::Word(2));
        assert_eq!(k.value(b), Value::Word(1));
    }

    #[test]
    fn reactive_process_follows_signal() {
        // not_q is the inverse of q, computed combinationally.
        let mut k = Kernel::new();
        let q = k.signal("q");
        let not_q = k.signal("not_q");
        k.reactive_process(&[q], move |ctx: &mut ProcessCtx<'_>| {
            let v = if ctx.read(q).is_high() {
                Value::Low
            } else {
                Value::High
            };
            ctx.write(not_q, v);
        });
        k.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
            let v = if ctx.read(q).is_high() {
                Value::Low
            } else {
                Value::High
            };
            ctx.write(q, v);
        });
        k.cycle().unwrap();
        assert!(k.value(q).is_high());
        assert!(!k.value(not_q).is_high());
        k.cycle().unwrap();
        assert!(!k.value(q).is_high());
        assert!(k.value(not_q).is_high());
    }

    #[test]
    fn chained_combinational_logic_cascades_deltas() {
        // w0 -> w1 -> w2 chain of inverters driven by a toggling reg.
        let mut k = Kernel::new();
        let w: Vec<SignalId> = (0..3).map(|i| k.signal(format!("w{i}"))).collect();
        for i in 0..2 {
            let (src, dst) = (w[i], w[i + 1]);
            k.reactive_process(&[src], move |ctx: &mut ProcessCtx<'_>| {
                let v = if ctx.read(src).is_high() {
                    Value::Low
                } else {
                    Value::High
                };
                ctx.write(dst, v);
            });
        }
        let w0 = w[0];
        k.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
            let v = if ctx.read(w0).is_high() {
                Value::Low
            } else {
                Value::High
            };
            ctx.write(w0, v);
        });
        k.cycle().unwrap();
        assert!(k.value(w[0]).is_high());
        assert!(!k.value(w[1]).is_high());
        assert!(k.value(w[2]).is_high());
        assert!(k.stats().delta_cycles >= 2, "cascade took deltas");
    }

    #[test]
    fn oscillating_loop_is_detected() {
        // A combinational inverter driving itself never settles.
        let mut k = Kernel::new();
        let q = k.signal("q");
        k.reactive_process(&[q], move |ctx: &mut ProcessCtx<'_>| {
            let v = if ctx.read(q).is_high() {
                Value::Low
            } else {
                Value::High
            };
            ctx.write(q, v);
        });
        // Kick the loop from a clocked process.
        k.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
            if ctx.time() == 0 {
                ctx.write(q, Value::High);
            }
        });
        let err = k.cycle().unwrap_err();
        assert_eq!(err.time, 0);
        assert!(err.to_string().contains("converge"));
    }

    #[test]
    fn same_value_writes_do_not_wake() {
        let mut k = Kernel::new();
        let q = k.signal("q");
        let wakes = std::rc::Rc::new(std::cell::Cell::new(0));
        let w = wakes.clone();
        k.reactive_process(&[q], move |_ctx: &mut ProcessCtx<'_>| {
            w.set(w.get() + 1);
        });
        k.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
            ctx.write(q, Value::Low); // unchanged value
        });
        k.cycle().unwrap();
        // One activation from the time-zero initialization phase, then
        // never again: identical-value writes raise no events.
        assert_eq!(wakes.get(), 1, "only the initialization run");
        assert_eq!(k.stats().signal_events, 0);
        k.cycle().unwrap();
        k.cycle().unwrap();
        assert_eq!(wakes.get(), 1, "no event for identical value");
        assert_eq!(k.stats().signal_events, 0);
    }

    #[test]
    fn vcd_records_changes() {
        let mut k = Kernel::new();
        k.enable_vcd();
        let q = k.signal("data bus");
        k.clocked_process(move |ctx: &mut ProcessCtx<'_>| {
            ctx.write(q, Value::Word(ctx.time() + 1));
        });
        k.cycle().unwrap();
        k.cycle().unwrap();
        let vcd = k.vcd_output().unwrap();
        assert!(vcd.contains("$timescale"));
        assert!(vcd.contains("data_bus"), "names sanitized: {vcd}");
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("#1"));
        assert!(vcd.contains("b1 s0"));
        assert!(vcd.contains("b10 s0"));
    }

    #[test]
    fn initialization_pass_survives_a_time_jump() {
        // Clock gating may advance time before the first cycle ever
        // executes; the one-shot reactive initialization pass must
        // still run on that first cycle (it used to key on time == 0).
        use std::cell::Cell;
        use std::rc::Rc;
        let mut k = Kernel::new();
        let s = k.signal("s");
        let ran = Rc::new(Cell::new(0u32));
        let ran2 = Rc::clone(&ran);
        k.reactive_process(&[s], move |_ctx: &mut ProcessCtx<'_>| {
            ran2.set(ran2.get() + 1);
        });
        k.advance_time(100);
        k.cycle().unwrap();
        assert_eq!(ran.get(), 1, "reactive init pass must run once");
        assert_eq!(k.time(), 101);
        k.cycle().unwrap();
        assert_eq!(ran.get(), 1, "init pass runs exactly once");
    }

    #[test]
    fn flit_values_compare_and_encode() {
        use nocem_common::flit::FlitKind;
        use nocem_common::ids::{EndpointId, FlowId, PacketId};
        let f = Flit {
            packet: PacketId::new(3),
            kind: FlitKind::Single,
            seq: 0,
            flow: FlowId::new(0),
            dst: EndpointId::new(0),
            vc: nocem_common::ids::VcId::ZERO,
            payload: 0,
        };
        assert_eq!(Value::Flit(Some(f)).flit(), Some(f));
        assert_eq!(Value::Flit(None).flit(), None);
        assert_ne!(Value::Flit(Some(f)), Value::Flit(None));
        assert!(encode(Value::Flit(Some(f))) & 0x8000_0000_0000_0000 != 0);
    }
}
