//! Parameter sweeps: run many configurations and collect their
//! results, optionally across threads.
//!
//! The benchmark harness uses sweeps for every figure: packet-count
//! sweeps (Figure 2), packets-per-burst × flits-per-packet sweeps
//! (Figures 3 and 4) and the ablation studies.

use crate::clock::{run_engine, EngineSummary, SteppableEngine};
use crate::compile::{elaborate, elaborate_routed};
use crate::compiled::CompiledEngine;
use crate::config::{EngineKind, PlatformConfig};
use crate::engine::Emulation;
use crate::error::{CompileError, EmulationError};
use crate::results::EmulationResults;
use crate::shard_compiled::ShardedCompiledEngine;
use nocem_common::time::Cycle;
use nocem_stats::ledger::PacketLedger;
use nocem_topology::routing::RoutingTables;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Label carried into the results.
    pub label: String,
    /// The configuration to run.
    pub config: PlatformConfig,
}

impl SweepPoint {
    /// Creates a labelled point.
    pub fn new(label: impl Into<String>, config: PlatformConfig) -> Self {
        SweepPoint {
            label: label.into(),
            config,
        }
    }
}

/// Runs every point and returns `(label, results)` in input order.
///
/// `threads` bounds the worker count (`1` = run inline; higher values
/// use `std::thread::scope`).
///
/// # Errors
///
/// Returns the error of the first failing point (by input order).
///
/// # Panics
///
/// Re-raises the panic of the first panicking point (by input order);
/// a failure — `Err` or panic — at an earlier input index always wins
/// over a later one, regardless of thread scheduling.
pub fn run_sweep(
    points: &[SweepPoint],
    threads: usize,
) -> Result<Vec<(String, EmulationResults)>, EmulationError> {
    run_sweep_indexed(points, threads, |_, p| run_point(p))
}

/// Generalized sweep runner: applies `run` to every point and its
/// *input index* across up to `threads` workers and returns
/// `(label, outcome)` in input order.
///
/// This is the engine under [`run_sweep`]; the scenario-matrix runner
/// and the curve runner use it directly to thread custom per-point
/// evaluation (different engines, derived statistics) through the same
/// scheduling, ordering and failure semantics. Callers that join outcomes back to side tables (the
/// matrix's shard groups, the curve runner's specs) key on the index
/// instead of the label — labels then stay purely cosmetic and
/// duplicates cannot misroute work.
///
/// Worker panics are caught per point and re-raised after all workers
/// drain, so one panicking point can neither poison the slot mutex nor
/// silently discard the outcomes of its worker's other points.
///
/// # Errors
///
/// Returns the error of the first failing point by *input* order, even
/// when a later point fails first in wall-clock time.
///
/// # Panics
///
/// Re-raises the panic of the first panicking point (by input order).
/// When an earlier point returned `Err`, the `Err` wins and the later
/// panic payload is dropped.
pub fn run_sweep_indexed<T, E, F>(
    points: &[SweepPoint],
    threads: usize,
    run: F,
) -> Result<Vec<(String, T)>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize, &SweepPoint) -> Result<T, E> + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || points.len() <= 1 {
        // Inline path: panics and errors already surface in input
        // order because evaluation is sequential.
        return points
            .iter()
            .enumerate()
            .map(|(i, p)| run(i, p).map(|t| (p.label.clone(), t)))
            .collect();
    }

    type Slot<T, E> = Option<Result<Result<T, E>, Box<dyn std::any::Any + Send>>>;
    let mut slots: Vec<Slot<T, E>> = (0..points.len()).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots_mutex = std::sync::Mutex::new(&mut slots);

    std::thread::scope(|scope| {
        for _ in 0..threads.min(points.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= points.len() {
                    break;
                }
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(i, &points[i])));
                let mut guard = slots_mutex.lock().expect("no panics while holding lock");
                guard[i] = Some(outcome);
            });
        }
    });

    let mut out = Vec::with_capacity(points.len());
    for (slot, point) in slots.into_iter().zip(points) {
        match slot.expect("every slot filled by a worker") {
            Ok(Ok(t)) => out.push((point.label.clone(), t)),
            Ok(Err(e)) => return Err(e),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    Ok(out)
}

/// Whichever engine a configuration names, behind one concrete type —
/// the one config → engine dispatcher, which the curve harness and
/// [`run_config`] build on. Beyond the [`SteppableEngine`] contract it
/// exposes full [`EmulationResults`] collection, which the trait
/// cannot.
#[derive(Debug)]
pub enum AnyEngine {
    /// The single-threaded fast emulation engine.
    Single(Box<Emulation>),
    /// The compiled data-oriented engine (flat arrays).
    Compiled(Box<CompiledEngine>),
    /// The sharded compiled engine (array-slice shards, batched
    /// boundary exchange).
    ShardedCompiled(Box<ShardedCompiledEngine>),
}

impl AnyEngine {
    /// Compiles `config` and builds the engine `config.engine` names.
    /// One shard is not sharded: `ShardedCompiled { shards: 1, .. }`
    /// is [`AnyEngine::Compiled`] on the caller's thread (bit-identical
    /// by the lockstep proof), so sharding costs nothing until
    /// something crosses a shard.
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
        let elab = match routing {
            Some(routing) => elaborate_routed(config, routing.clone())?,
            None => elaborate(config)?,
        };
        Ok(match config.engine {
            EngineKind::SingleThread => AnyEngine::Single(Box::new(Emulation::new(elab))),
            EngineKind::Compiled | EngineKind::ShardedCompiled { shards: 1, .. } => {
                AnyEngine::Compiled(Box::new(CompiledEngine::new(elab)))
            }
            EngineKind::ShardedCompiled { shards, batch } => AnyEngine::ShardedCompiled(Box::new(
                ShardedCompiledEngine::from_elaboration(elab, shards, batch)?,
            )),
        })
    }

    /// The packet ledger, borrowed — what a caller that only reads it
    /// wants ([`SteppableEngine::packet_ledger`] hands out a copy, which
    /// after a saturated run is megabytes).
    pub fn ledger(&self) -> &PacketLedger {
        match self {
            AnyEngine::Single(e) => e.ledger(),
            AnyEngine::Compiled(e) => e.ledger(),
            AnyEngine::ShardedCompiled(e) => e.ledger(),
        }
    }

    /// Collects the full run results.
    ///
    /// # Errors
    ///
    /// Returns [`EmulationError::Shard`] when a shard worker died.
    pub fn results(&mut self) -> Result<EmulationResults, EmulationError> {
        match self {
            AnyEngine::Single(e) => Ok(e.results()),
            AnyEngine::Compiled(e) => Ok(e.results()),
            AnyEngine::ShardedCompiled(e) => e.results(),
        }
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
            AnyEngine::ShardedCompiled($e) => $body,
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

    fn span_trace(&mut self) -> Option<nocem_telemetry::SpanTrace> {
        with_engine!(self, e => e.span_trace())
    }

    fn stall_report(&self) -> Option<&crate::profile::StallReport> {
        with_engine!(self, e => e.stall_report())
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
    run_config_routed(config, None)
}

/// Like [`run_config`] but reusing precomputed routing tables from
/// [`crate::compile::compute_routing`] — callers that run the same
/// topology × flow set at many loads or shard counts (the scenario
/// matrix, a saturation search) pay the route computation and the
/// deadlock check once instead of per point.
///
/// # Errors
///
/// Those of [`run_config`].
pub fn run_config_routed(
    config: &PlatformConfig,
    routing: Option<&RoutingTables>,
) -> Result<EmulationResults, EmulationError> {
    let mut engine = AnyEngine::build_routed(config, routing)?;
    run_engine(&mut engine)?;
    engine.results()
}

fn run_point(point: &SweepPoint) -> Result<EmulationResults, EmulationError> {
    run_config(&point.config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PaperConfig;

    fn points(n: usize) -> Vec<SweepPoint> {
        (0..n)
            .map(|i| {
                SweepPoint::new(
                    format!("p{i}"),
                    PaperConfig::new()
                        .total_packets(100 + 50 * i as u64)
                        .uniform(),
                )
            })
            .collect()
    }

    #[test]
    fn serial_sweep_preserves_order() {
        let out = run_sweep(&points(3), 1).unwrap();
        let labels: Vec<&str> = out.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["p0", "p1", "p2"]);
        assert_eq!(out[0].1.delivered, 100);
        assert_eq!(out[2].1.delivered, 200);
    }

    #[test]
    fn threaded_sweep_matches_serial() {
        let serial = run_sweep(&points(4), 1).unwrap();
        let parallel = run_sweep(&points(4), 4).unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.0, p.0);
            assert_eq!(s.1.cycles, p.1.cycles, "determinism across threads");
            assert_eq!(s.1.delivered, p.1.delivered);
        }
    }

    #[test]
    fn any_engine_honours_the_engine_kind_and_reuses_routing() {
        let cfg = PaperConfig::new().total_packets(150).uniform();
        let routing = crate::compile::compute_routing(&cfg).unwrap();
        let baseline = run_config(&cfg).unwrap();
        let routed = run_config_routed(&cfg, Some(&routing)).unwrap();
        assert_eq!(baseline, routed);

        let sharded_cfg = cfg.clone().with_engine(EngineKind::ShardedCompiled {
            shards: 2,
            batch: 8,
        });
        let mut engine = AnyEngine::build_routed(&sharded_cfg, Some(&routing)).unwrap();
        assert!(matches!(engine, AnyEngine::ShardedCompiled(_)));
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
        let mut bad = points(1);
        bad[0].config.stop.cycle_limit = 10; // cannot finish in 10 cycles
        assert!(run_sweep(&bad, 1).is_err());
    }

    #[test]
    fn generalized_sweep_threads_custom_outcomes() {
        let out =
            run_sweep_indexed::<_, EmulationError, _>(&points(4), 4, |_, p| Ok(p.label.len()))
                .unwrap();
        let labels: Vec<&str> = out.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["p0", "p1", "p2", "p3"]);
        assert!(out.iter().all(|&(_, n)| n == 2));
    }

    #[test]
    fn worker_panic_propagates_under_threads() {
        // Regression: a panicking point used to kill its worker,
        // leaving unfilled slots whose `expect` masked the real panic.
        let result = std::panic::catch_unwind(|| {
            run_sweep_indexed::<(), EmulationError, _>(&points(6), 3, |_, p| {
                if p.label == "p2" {
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
            let err = run_sweep_indexed::<(), String, _>(&points(4), 4, |_, p| {
                if p.label == "p0" {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Err("early point".to_owned())
                } else if p.label == "p3" {
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
            run_sweep_indexed::<(), String, _>(&points(3), 3, |_, p| {
                if p.label == "p0" {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    Err("input-order first".to_owned())
                } else if p.label == "p2" {
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
