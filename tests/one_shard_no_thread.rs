//! `EngineKind::ShardedCompiled` names the compiled engine at every
//! shard count: it builds `AnyEngine::Compiled`, starts no thread and
//! runs the ledger `EngineKind::Compiled` runs. Alone in its test binary
//! on purpose: the probe counts this process's threads, so a
//! concurrently running test would be counted too.

#![cfg(target_os = "linux")]

use nocem::config::{EngineKind, PaperConfig};
use nocem::run_engine;
use nocem::sweep::AnyEngine;

/// This process's live threads.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn one_shard_runs_on_the_callers_thread() {
    let cfg = PaperConfig::new().total_packets(200).uniform();
    let mut compiled = AnyEngine::build(&cfg.clone().with_engine(EngineKind::Compiled)).unwrap();
    run_engine(&mut compiled).unwrap();
    let before = threads();
    for shards in [1, 2, 4] {
        let kind = EngineKind::ShardedCompiled { shards, batch: 16 };
        let mut engine = AnyEngine::build(&cfg.clone().with_engine(kind)).unwrap();
        assert!(matches!(engine, AnyEngine::Compiled(_)), "{kind:?}");
        run_engine(&mut engine).unwrap();
        assert_eq!(threads(), before, "{kind:?} started a thread");
        assert_eq!(engine.ledger(), compiled.ledger(), "{kind:?}");
    }
}
