//! The one lockstep harness of the engine-equivalence tests.
//!
//! A reference engine and any number of engines under test step side by
//! side; after every step each stands on the reference's cycle with the
//! reference's packet ledger and architectural state
//! ([`assert_same_cycle`]), so a divergence names its cycle — and, for
//! the state, its switch, port and VC. A gated engine may jump a window
//! its ungated twin steps through: the ungated side shadow-steps across
//! it and the two are compared where they meet. At the end every engine has finished
//! with the same behavioural summary, the same sealed telemetry and the
//! same results, and every engine with a stall watchdog has latched the
//! reference's report: trip cycle, packets in flight, wait-for edges.
//!
//! Engines are built by name ([`Backend`], [`subject`]); platforms by
//! [`scenario`] and the topology shorthands, with [`retraffic`] /
//! [`each_uniform`] swapping their generators. [`check`] is the property
//! a generated configuration must meet: it runs alike on every engine,
//! or every engine rejects it alike at build.

#![allow(dead_code)]

use std::any::Any;
use std::fmt::Debug;
use std::ops::Deref;

use nocem::clock::{ClockMode, CycleKernel, SteppableEngine};
use nocem::compile::elaborate;
use nocem::config::{EngineKind, PlatformConfig, TrafficModel};
use nocem::error::CompileError;
use nocem::{AnyEngine, ArchView, CompiledEngine, Emulation, EmulationResults};
use nocem_rtl::RtlEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_stats::ledger::PacketLedger;
use nocem_tlm::TlmEngine;
use nocem_traffic::generator::LengthModel;
use nocem_traffic::stochastic::{BurstConfig, PoissonConfig, UniformConfig};

/// What the harness asks of an engine beyond [`SteppableEngine`].
pub trait Engine: SteppableEngine + Any {
    /// The packet ledger, borrowed: a copy per step would dominate a
    /// debug run.
    fn ledger_ref(&self) -> Box<dyn Deref<Target = PacketLedger> + '_>;

    /// The full results.
    fn all_results(&mut self) -> EmulationResults;
}

macro_rules! engine {
    ($($ty:ty => |$e:ident| $results:expr),* $(,)?) => {$(
        impl Engine for $ty {
            fn ledger_ref(&self) -> Box<dyn Deref<Target = PacketLedger> + '_> {
                Box::new(self.ledger())
            }

            fn all_results(&mut self) -> EmulationResults {
                let $e = self;
                $results
            }
        }
    )*};
}

engine! {
    Emulation => |e| e.results(),
    CompiledEngine => |e| e.results(),
    AnyEngine => |e| e.results().unwrap(),
    TlmEngine => |e| e.results(),
    RtlEngine => |e| e.results(),
}

/// One engine of a lockstep run.
pub struct Subject {
    /// What it is and which config it runs, for failure messages.
    pub name: String,
    /// Whether its config gates the clock.
    pub gated: bool,
    /// The engine.
    pub engine: Box<dyn Engine>,
}

impl Subject {
    /// `engine`, built from `cfg` and called `label`.
    pub fn new(label: &str, cfg: &PlatformConfig, engine: impl Engine) -> Subject {
        Subject::boxed(label, cfg, Box::new(engine))
    }

    fn boxed(label: &str, cfg: &PlatformConfig, engine: Box<dyn Engine>) -> Subject {
        Subject {
            name: format!("{label} on {}", cfg.name),
            gated: cfg.clock_mode == ClockMode::Gated,
            engine,
        }
    }

    /// The engine as its own type, for assertions the trait cannot make.
    pub fn get<E: Engine>(&mut self) -> &mut E {
        let any: &mut dyn Any = &mut *self.engine;
        let name = &self.name;
        any.downcast_mut()
            .unwrap_or_else(|| panic!("{name} is no {}", std::any::type_name::<E>()))
    }

    fn step(&mut self) {
        if let Err(e) = self.engine.step() {
            panic!(
                "{} failed at cycle {}: {e}",
                self.name,
                self.engine.now().raw()
            );
        }
    }
}

/// An engine by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// [`EngineKind::SingleThread`] through [`AnyEngine`].
    Emulation,
    /// [`EngineKind::Compiled`] through [`AnyEngine`].
    Compiled,
    /// The compiled engine built directly over [`elaborate`], not
    /// through [`AnyEngine`].
    DirectCompiled,
    /// The transaction-level model.
    Tlm,
    /// The RTL model.
    Rtl,
}

/// `cfg` built on `backend`, or the build's error.
pub fn try_subject(cfg: &PlatformConfig, backend: Backend) -> Result<Subject, CompileError> {
    let any = |kind| AnyEngine::build(&cfg.clone().with_engine(kind));
    let engine: Box<dyn Engine> = match backend {
        Backend::Emulation => Box::new(any(EngineKind::SingleThread)?),
        Backend::Compiled => Box::new(any(EngineKind::Compiled)?),
        Backend::DirectCompiled => Box::new(CompiledEngine::new(elaborate(cfg)?)),
        Backend::Tlm => Box::new(TlmEngine::new(elaborate(cfg)?)),
        Backend::Rtl => Box::new(RtlEngine::new(elaborate(cfg)?)),
    };
    Ok(Subject::boxed(&format!("{backend:?}"), cfg, engine))
}

/// `cfg` built on `backend`.
pub fn subject(cfg: &PlatformConfig, backend: Backend) -> Subject {
    try_subject(cfg, backend).unwrap_or_else(|e| panic!("{backend:?} on {}: {e}", cfg.name))
}

/// The per-step check: `subject` stands on `reference`'s cycle with
/// `reference`'s packet ledger and architectural state.
pub fn assert_same_cycle(reference: &mut Subject, subject: &mut Subject) {
    let (r, s) = (&mut reference.engine, &mut subject.engine);
    let cycle = r.now().raw();
    assert_eq!(
        s.now().raw(),
        cycle,
        "{}: clock left {}'s",
        subject.name,
        reference.name
    );
    let (want, got) = (r.ledger_ref(), s.ledger_ref());
    if **got != **want {
        let first = got.records().zip(want.records()).find(|(a, b)| a != b);
        panic!(
            "{}: ledger diverged from {} at cycle {cycle}: \
             released/injected/delivered {:?} vs {:?}, first differing packet {first:?}",
            subject.name,
            reference.name,
            (got.released(), got.injected(), got.delivered()),
            (want.released(), want.injected(), want.delivered()),
        );
    }
    drop((want, got));
    // One `==` a cycle; the field-by-field search for the first
    // difference runs only on a mismatch, to name it.
    let (want, got) = (r.arch_view(), s.arch_view());
    if want != got {
        let diff = first_difference(want, got).unwrap_or_default();
        panic!(
            "{}: architectural state diverged from {} at cycle {cycle}: {diff}",
            subject.name, reference.name
        );
    }
}

/// Where two views of one configuration first differ, naming the switch,
/// port and VC (or the TG and its NI, or the TR); `None` when they are
/// equal.
pub fn first_difference(want: &ArchView, got: &ArchView) -> Option<String> {
    fn first<T: PartialEq + Debug>(a: &[T], b: &[T]) -> Option<(usize, String)> {
        let k = a.iter().zip(b).position(|(x, y)| x != y)?;
        Some((k, format!("{:?} vs {:?}", b[k], a[k])))
    }
    let vcs = want.vcs;
    let port = |base: &[u32], k: usize| {
        let s = base.partition_point(|&b| b as usize <= k) - 1;
        format!("switch {s} port {}", k - base[s] as usize)
    };
    let (ins, outs) = (&want.in_port_base, &want.out_port_base);
    if let Some((k, d)) = first(&want.ports, &got.ports) {
        return Some(format!("{} out: {d}", port(outs, k)));
    }
    if let Some((k, d)) = first(&want.credits, &got.credits) {
        return Some(format!(
            "{} out VC {}: credits {d}",
            port(outs, k / vcs),
            k % vcs
        ));
    }
    if let Some((k, d)) = first(&want.inputs, &got.inputs) {
        return Some(format!("{} in VC {}: {d}", port(ins, k / vcs), k % vcs));
    }
    if let Some((k, d)) = first(&want.watermarks, &got.watermarks) {
        return Some(format!("switch {} VC {}: watermark {d}", k / vcs, k % vcs));
    }
    if let Some((i, d)) = first(&want.nis, &got.nis) {
        return Some(format!("TG {i} (NI {i}): {d}"));
    }
    if let Some((i, d)) = first(&want.receptors, &got.receptors) {
        return Some(format!("TR {i}: {d}"));
    }
    (want != got).then(|| "the views' shapes differ".into())
}

/// Steps `reference` and every subject in lockstep until the reference
/// finishes, checking clock and ledger after every step, then asserts
/// that every subject finished there too with the same summary, sealed
/// telemetry, results and stall report. The engines stay the caller's
/// for further assertions.
pub fn lockstep(reference: &mut Subject, subjects: &mut [Subject]) {
    drive(reference, subjects, u64::MAX);
    for s in subjects.iter() {
        assert!(s.engine.finished(), "{}: stop condition lagged", s.name);
    }
    finish(reference, subjects);
}

/// [`lockstep`] over the first `cycles` cycles of a run that need not
/// finish by then.
pub fn lockstep_until(reference: &mut Subject, subjects: &mut [Subject], cycles: u64) {
    drive(reference, subjects, cycles);
    finish(reference, subjects);
}

/// `cfg` on every backend, in [`lockstep`] with the interpreted engine
/// on the same config; returns the engines under test.
pub fn against_emulation(cfg: &PlatformConfig, backends: &[Backend]) -> Vec<Subject> {
    let mut reference = subject(cfg, Backend::Emulation);
    let mut subjects: Vec<Subject> = backends.iter().map(|&b| subject(cfg, b)).collect();
    lockstep(&mut reference, &mut subjects);
    subjects
}

/// The property a configuration must meet: either it runs on every
/// backend in lockstep with the interpreted engine (the engines under
/// test are returned), or the interpreted engine and every backend
/// reject it at build with one equal error (returned). A panic in any
/// build or step fails the caller.
pub fn check(cfg: &PlatformConfig, backends: &[Backend]) -> Result<Vec<Subject>, CompileError> {
    let built = std::iter::once(Backend::Emulation)
        .chain(backends.iter().copied())
        .map(|b| (b, try_subject(cfg, b)))
        .collect::<Vec<_>>();
    if let Some(err) = built.iter().find_map(|(_, r)| r.as_ref().err()).cloned() {
        for (b, r) in &built {
            let got = r.as_ref().err();
            assert_eq!(
                got,
                Some(&err),
                "{b:?} on {} builds unlike the others",
                cfg.name
            );
        }
        return Err(err);
    }
    let mut subjects: Vec<Subject> = built.into_iter().map(|(_, r)| r.unwrap()).collect();
    let mut reference = subjects.remove(0);
    lockstep(&mut reference, &mut subjects);
    Ok(subjects)
}

/// The error every backend (and the interpreted engine) rejects `cfg`
/// with.
pub fn rejects_alike(cfg: &PlatformConfig, backends: &[Backend]) -> CompileError {
    match check(cfg, backends) {
        Err(e) => e,
        Ok(_) => panic!("{} builds and runs on every engine", cfg.name),
    }
}

fn drive(reference: &mut Subject, subjects: &mut [Subject], until: u64) {
    let mut steps = 0u64;
    while !reference.engine.finished() && reference.engine.now().raw() < until {
        reference.step();
        let now = reference.engine.now();
        for s in subjects.iter_mut() {
            let same_mode = s.gated == reference.gated;
            if same_mode {
                s.step();
            } else {
                // One side jumps a window the other steps through: the
                // one behind shadow-steps up to the other's clock.
                while s.engine.now() < now {
                    s.step();
                }
            }
            if same_mode || s.engine.now() == now {
                assert_same_cycle(reference, s);
            }
        }
        steps += 1;
        assert!(steps < 2_000_000, "{}: runaway lockstep", reference.name);
    }
}

fn finish(reference: &mut Subject, subjects: &mut [Subject]) {
    let r = &mut reference.engine;
    r.seal_telemetry();
    let (want, results) = (r.summary(), r.all_results());
    let never = "ungated clocks never skip";
    assert!(
        reference.gated || want.cycles_skipped == 0,
        "{}: {never}",
        reference.name
    );
    for s in subjects.iter_mut() {
        let same_mode = s.gated == reference.gated;
        let e = &mut s.engine;
        assert_eq!(e.now(), reference.engine.now(), "{}: stop cycle", s.name);
        let got = e.summary();
        assert_eq!(got.behavioral(), want.behavioral(), "{}: summary", s.name);
        assert_eq!(
            e.stall_report(),
            reference.engine.stall_report(),
            "{}: stall report",
            s.name
        );
        if same_mode {
            assert_eq!(got.cycles_skipped, want.cycles_skipped, "{}", s.name);
        } else {
            assert!(s.gated || got.cycles_skipped == 0, "{}: {never}", s.name);
        }
        e.seal_telemetry();
        assert!(
            e.telemetry() == reference.engine.telemetry(),
            "{}: telemetry windows diverged from {}",
            s.name,
            reference.name
        );
        let (mut got, mut want) = (e.all_results(), results.clone());
        if !same_mode {
            (got.cycles_skipped, want.cycles_skipped) = (0, 0);
        }
        assert_eq!(got, want, "{}: results", s.name);
    }
}

/// A mesh of `width` × `height` switches.
pub const fn mesh(width: u32, height: u32) -> TopologySpec {
    TopologySpec::Mesh { width, height }
}

/// A torus of `width` × `height` switches (two dateline VCs in every
/// scenario).
pub const fn torus(width: u32, height: u32) -> TopologySpec {
    TopologySpec::Torus { width, height }
}

/// A bidirectional ring of `switches` switches (two dateline VCs).
pub const fn ring(switches: u32) -> TopologySpec {
    TopologySpec::Ring { switches }
}

/// The registry scenario `name` on `topo` at `load`: `packets` packets
/// of `flits` flits, split over the generators as budgets and awaited
/// as the stop condition.
pub fn scenario(
    name: &str,
    topo: TopologySpec,
    load: f64,
    flits: u16,
    packets: u64,
) -> PlatformConfig {
    ScenarioRegistry::builtin()
        .resolve(name)
        .unwrap()
        .build_config(topo, load, flits, packets)
        .unwrap()
}

/// [`scenario`] `uniform_random` with four-flit packets.
pub fn uniform_random(topo: TopologySpec, load: f64, packets: u64) -> PlatformConfig {
    scenario("uniform_random", topo, load, 4, packets)
}

/// Rewrites every generator of `cfg` — uniform, as scenarios build
/// them — with `f(index, config)`.
pub fn each_uniform(cfg: &mut PlatformConfig, f: impl Fn(usize, UniformConfig) -> TrafficModel) {
    for (i, g) in cfg.generators.iter_mut().enumerate() {
        let TrafficModel::Uniform(u) = g.clone() else {
            panic!("{}: generator {i} is not uniform", cfg.name);
        };
        *g = f(i, u);
    }
}

/// What [`retraffic`] puts in place of uniform generators.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Traffic {
    /// The uniform generators as built.
    Steady,
    /// Bursts of `packets` back-to-back packets at `load`.
    Burst { load: f64, packets: u32 },
    /// Memoryless releases at `load`.
    Poisson { load: f64 },
    /// Packet trains that start with probability `start` per idle cycle
    /// and continue with 0.75: idle phases far longer than a train.
    Trains { start: f64 },
}

/// `cfg` with every uniform generator swapped for `traffic` — same
/// packet length, budget and destinations — and named after it.
pub fn retraffic(mut cfg: PlatformConfig, traffic: Traffic) -> PlatformConfig {
    each_uniform(&mut cfg, |_, u| {
        let LengthModel::Fixed(flits) = u.length else {
            panic!("scenarios build fixed packet lengths");
        };
        match traffic {
            Traffic::Steady => TrafficModel::Uniform(u),
            Traffic::Burst { load, packets } => TrafficModel::Burst(BurstConfig::with_load(
                load,
                packets,
                flits,
                u.budget,
                u.destination,
            )),
            Traffic::Poisson { load } => TrafficModel::Poisson(PoissonConfig::with_load(
                load,
                flits,
                u.budget,
                u.destination,
            )),
            Traffic::Trains { start } => TrafficModel::Burst(BurstConfig {
                length: u.length,
                start_probability: start,
                continue_probability: 0.75,
                budget: u.budget,
                destination: u.destination,
            }),
        }
    });
    cfg.name = format!("{}/{traffic:?}", cfg.name);
    cfg
}
