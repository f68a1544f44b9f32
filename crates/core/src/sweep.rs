//! Grids of runs: run many configurations — or any other list of
//! work items — across threads, outcomes in input order.
//!
//! [`run_sweep`] runs configurations, each named by its own
//! [`PlatformConfig::name`]; the figure binaries use it for the
//! packet-count sweep (Figure 2) and the packets-per-burst ×
//! flits-per-packet sweeps (Figures 3 and 4). [`run_sweep_indexed`] is
//! the scheduler under it, which the scenario matrix and the curve set
//! run their own items through.

use crate::clock::{run_engine, EngineSummary, SteppableEngine};
use crate::compile::{elaborate, elaborate_routed, Elaboration};
use crate::compiled::CompiledEngine;
use crate::config::{EngineKind, PlatformConfig};
use crate::engine::Emulation;
use crate::error::{CompileError, EmulationError};
use crate::results::EmulationResults;
use nocem_common::time::Cycle;
use nocem_stats::ledger::PacketLedger;
use nocem_topology::routing::RoutingTables;

/// Runs every configuration (see [`run_config`]) across up to
/// `threads` workers and returns the results in input order; each
/// [`EmulationResults::name`] is its configuration's name.
///
/// # Errors
///
/// Returns the error of the first failing configuration by input
/// order ([`run_sweep_indexed`]).
pub fn run_sweep(
    configs: &[PlatformConfig],
    threads: usize,
) -> Result<Vec<EmulationResults>, EmulationError> {
    run_sweep_indexed(configs, threads, |_, config| run_config(config))
}

/// The one scheduler for grids of runs: applies `run` to every item
/// and its input index across up to `threads` workers (`1` runs inline,
/// more use `std::thread::scope`) and returns the outcomes in input
/// order.
///
/// Worker panics are caught per item and re-raised after all workers
/// drain, so one panicking item can neither poison the slot mutex nor
/// silently discard the outcomes of its worker's other items.
///
/// # Errors
///
/// Returns the error of the first failing item by *input* order, even
/// when a later item fails first in wall-clock time.
///
/// # Panics
///
/// Re-raises the panic of the first panicking item (by input order).
/// When an earlier item returned `Err`, the `Err` wins and the later
/// panic payload is dropped.
pub fn run_sweep_indexed<T, R, E, F>(items: &[T], threads: usize, run: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || items.len() <= 1 {
        // Inline path: panics and errors already surface in input
        // order because evaluation is sequential.
        return items.iter().enumerate().map(|(i, t)| run(i, t)).collect();
    }

    type Slot<R, E> = Option<Result<Result<R, E>, Box<dyn std::any::Any + Send>>>;
    let mut slots: Vec<Slot<R, E>> = (0..items.len()).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots_mutex = std::sync::Mutex::new(&mut slots);

    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(i, &items[i])));
                let mut guard = slots_mutex.lock().expect("no panics while holding lock");
                guard[i] = Some(outcome);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| match slot.expect("every slot filled by a worker") {
            Ok(outcome) => outcome,
            Err(payload) => std::panic::resume_unwind(payload),
        })
        .collect()
}

/// Whichever engine a configuration names, behind one concrete type —
/// the one config → engine dispatcher, which the curve harness and
/// [`run_config`] build on. Beyond the [`SteppableEngine`] contract it
/// exposes full [`EmulationResults`] collection, which the trait
/// cannot.
#[derive(Debug)]
pub enum AnyEngine {
    /// The interpreted reference engine.
    Single(Box<Emulation>),
    /// The compiled data-oriented engine (flat arrays), which
    /// [`EngineKind::ShardedCompiled`] names too.
    Compiled(Box<CompiledEngine>),
}

impl AnyEngine {
    /// Compiles `config` and builds the engine `config.engine` names.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`].
    pub fn build(config: &PlatformConfig) -> Result<Self, CompileError> {
        Self::build_routed(config, None)
    }

    /// Like [`AnyEngine::build`] but reusing precomputed routing
    /// tables (see [`crate::compile::compute_routing`]); pass `None`
    /// to compute them here.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`].
    pub fn build_routed(
        config: &PlatformConfig,
        routing: Option<&RoutingTables>,
    ) -> Result<Self, CompileError> {
        Ok(Self::from_elaboration(match routing {
            Some(routing) => elaborate_routed(config, routing.clone())?,
            None => elaborate(config)?,
        }))
    }

    /// Builds the engine `elab.config.engine` names over `elab` — the
    /// function a [`crate::Board`] rebuilds its programmed runs with.
    /// [`EngineKind::ShardedCompiled`] builds [`AnyEngine::Compiled`]
    /// at every shard count.
    pub(crate) fn from_elaboration(elab: Elaboration) -> Self {
        match elab.config.engine {
            EngineKind::SingleThread => AnyEngine::Single(Box::new(Emulation::new(elab))),
            EngineKind::Compiled | EngineKind::ShardedCompiled { .. } => {
                AnyEngine::Compiled(Box::new(CompiledEngine::new(elab)))
            }
        }
    }

    /// The packet ledger, borrowed — what a caller that only reads it
    /// wants ([`SteppableEngine::packet_ledger`] hands out a copy, which
    /// after a saturated run is megabytes).
    pub fn ledger(&self) -> &PacketLedger {
        match self {
            AnyEngine::Single(e) => e.ledger(),
            AnyEngine::Compiled(e) => e.ledger(),
        }
    }

    /// Collects the full run results.
    ///
    /// # Errors
    ///
    /// None today: every engine collects its results infallibly. The
    /// `Result` stays for the callers that already handle it.
    pub fn results(&mut self) -> Result<EmulationResults, EmulationError> {
        Ok(match self {
            AnyEngine::Single(e) => e.results(),
            AnyEngine::Compiled(e) => e.results(),
        })
    }
}

/// Evaluates `$body` with `$e` bound to whichever engine `$any` holds —
/// the one place the trait methods below look at the variant. A macro
/// rather than a `&dyn SteppableEngine` accessor: static dispatch keeps
/// `now()` / `finished()` inlined into the run loops, and the accessor
/// measured 6 % of `lowload_mesh12x12`'s run stage.
macro_rules! with_engine {
    ($any:expr, $e:ident => $body:expr) => {
        match $any {
            AnyEngine::Single($e) => $body,
            AnyEngine::Compiled($e) => $body,
        }
    };
}

impl SteppableEngine for AnyEngine {
    fn step(&mut self) -> Result<(), EmulationError> {
        with_engine!(self, e => e.step())
    }

    fn now(&self) -> Cycle {
        with_engine!(self, e => e.now())
    }

    fn finished(&self) -> bool {
        with_engine!(self, e => e.finished())
    }

    fn delivered(&self) -> u64 {
        with_engine!(self, e => e.delivered())
    }

    fn cycles_skipped(&self) -> u64 {
        with_engine!(self, e => e.cycles_skipped())
    }

    fn summary(&self) -> EngineSummary {
        with_engine!(self, e => e.summary())
    }

    fn packet_ledger(&self) -> PacketLedger {
        with_engine!(self, e => e.packet_ledger())
    }

    fn telemetry(&self) -> Option<&nocem_telemetry::Collector> {
        with_engine!(self, e => e.telemetry())
    }

    fn seal_telemetry(&mut self) {
        with_engine!(self, e => e.seal_telemetry());
    }

    fn profile(&mut self) -> Option<crate::profile::PhaseReport> {
        with_engine!(self, e => e.profile())
    }

    fn stall_report(&self) -> Option<&crate::profile::StallReport> {
        with_engine!(self, e => e.stall_report())
    }

    fn arch_view(&mut self) -> &crate::ArchView {
        with_engine!(self, e => SteppableEngine::arch_view(&mut **e))
    }
}

/// Compiles and runs one configuration to completion on whichever
/// engine `config.engine` names, returning its full results. This is
/// how a sweep or matrix point honours [`PlatformConfig::engine`]
/// without its caller knowing about engines.
///
/// # Errors
///
/// Returns [`EmulationError::Compile`] when the configuration does not
/// compile, and propagates [`EmulationError`] from the run.
pub fn run_config(config: &PlatformConfig) -> Result<EmulationResults, EmulationError> {
    let mut engine = AnyEngine::build(config)?;
    run_engine(&mut engine)?;
    engine.results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperConfig;

    fn configs(n: usize) -> Vec<PlatformConfig> {
        (0..n)
            .map(|i| {
                let mut cfg = PaperConfig::new()
                    .total_packets(100 + 50 * i as u64)
                    .uniform();
                cfg.name = format!("p{i}");
                cfg
            })
            .collect()
    }

    #[test]
    fn serial_sweep_preserves_order() {
        let out = run_sweep(&configs(3), 1).unwrap();
        let names: Vec<&str> = out.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["p0", "p1", "p2"]);
        assert_eq!(out[0].delivered, 100);
        assert_eq!(out[2].delivered, 200);
    }

    #[test]
    fn threaded_sweep_matches_serial() {
        let serial = run_sweep(&configs(4), 1).unwrap();
        let parallel = run_sweep(&configs(4), 4).unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.cycles, p.cycles, "determinism across threads");
            assert_eq!(s.delivered, p.delivered);
        }
    }

    #[test]
    fn any_engine_honours_the_engine_kind_and_reuses_routing() {
        let cfg = PaperConfig::new().total_packets(150).uniform();
        let routing = crate::compile::compute_routing(&cfg).unwrap();
        let baseline = run_config(&cfg).unwrap();
        let compiled_cfg = cfg.clone().with_engine(EngineKind::Compiled);
        let mut engine = AnyEngine::build_routed(&compiled_cfg, Some(&routing)).unwrap();
        assert!(matches!(engine, AnyEngine::Compiled(_)));
        run_engine(&mut engine).unwrap();
        assert_eq!(engine.results().unwrap(), baseline);
    }

    #[test]
    fn run_engine_until_stops_at_the_cycle() {
        let mut cfg = PaperConfig::new().total_packets(1_000_000).uniform();
        cfg.stop.delivered_packets = None;
        let mut engine = AnyEngine::build(&cfg).unwrap();
        crate::clock::run_engine_until(&mut engine, 500).unwrap();
        assert_eq!(engine.now().raw(), 500);
        // Resuming continues from where it stopped.
        crate::clock::run_engine_until(&mut engine, 600).unwrap();
        assert_eq!(engine.now().raw(), 600);
    }

    #[test]
    fn a_config_that_does_not_compile_is_a_compile_error() {
        let mut cfg = PaperConfig::new().total_packets(10).uniform();
        cfg.switch.fifo_depth = 0;
        assert!(matches!(
            run_config(&cfg),
            Err(EmulationError::Compile(CompileError::InvalidField {
                field: "switch.fifo_depth",
                ..
            }))
        ));
    }

    #[test]
    fn failing_point_reports_error() {
        let mut bad = configs(1);
        bad[0].stop.cycle_limit = 10; // cannot finish in 10 cycles
        assert!(run_sweep(&bad, 1).is_err());
    }

    #[test]
    fn generalized_sweep_threads_custom_outcomes() {
        let out = run_sweep_indexed::<_, _, EmulationError, _>(&configs(4), 4, |i, c| {
            Ok((i, c.name.clone()))
        })
        .unwrap();
        let names: Vec<&str> = out.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, ["p0", "p1", "p2", "p3"]);
        assert!(out.iter().enumerate().all(|(i, &(j, _))| i == j));
        // Any slice, not only configurations; early items sleep
        // longest, so workers finish them last.
        let items: Vec<u32> = (0..24).collect();
        for threads in [2, 3, 8] {
            let out = run_sweep_indexed::<_, _, String, _>(&items, threads, |i, &x| {
                std::thread::sleep(std::time::Duration::from_micros(200 * u64::from(24 - x)));
                Ok((i, x * x))
            })
            .unwrap();
            let want: Vec<(usize, u32)> = items.iter().map(|&x| (x as usize, x * x)).collect();
            assert_eq!(out, want, "{threads} threads");
        }
    }

    #[test]
    fn worker_panic_propagates_under_threads() {
        // Regression: a panicking point used to kill its worker,
        // leaving unfilled slots whose `expect` masked the real panic.
        let result = std::panic::catch_unwind(|| {
            run_sweep_indexed::<_, (), EmulationError, _>(&configs(6), 3, |i, _| {
                if i == 2 {
                    panic!("scenario exploded");
                }
                Ok(())
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("scenario exploded"), "payload: {msg}");
    }

    #[test]
    fn first_failure_by_input_order_under_threads() {
        // Point 0 fails slowly, point 3 fails instantly; with several
        // workers, point 3's error lands first in wall-clock time but
        // point 0's must still be the one reported.
        for _ in 0..8 {
            let err = run_sweep_indexed::<_, (), String, _>(&configs(4), 4, |i, _| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Err("early point".to_owned())
                } else if i == 3 {
                    Err("late point".to_owned())
                } else {
                    Ok(())
                }
            })
            .unwrap_err();
            assert_eq!(err, "early point");
        }
    }

    #[test]
    fn earlier_error_wins_over_later_panic() {
        let outcome = std::panic::catch_unwind(|| {
            run_sweep_indexed::<_, (), String, _>(&configs(3), 3, |i, _| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    Err("input-order first".to_owned())
                } else if i == 2 {
                    panic!("later panic");
                } else {
                    Ok(())
                }
            })
        })
        .expect("the earlier Err must win, not the panic");
        assert_eq!(outcome.unwrap_err(), "input-order first");
    }
}
