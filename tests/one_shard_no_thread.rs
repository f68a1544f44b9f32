//! `ShardedCompiled { shards: 1 }` spawns no worker thread. Alone in
//! its test binary on purpose: the probe lists this process's threads
//! by name, so a concurrently running sharded test would be seen too.

#![cfg(target_os = "linux")]

use nocem::config::{EngineKind, PaperConfig};
use nocem::sweep::AnyEngine;
use nocem::{run_engine, SteppableEngine};

/// Names of this process's live threads that belong to a shard worker.
fn shard_worker_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_owned())
        .filter(|name| name.starts_with("nocem-cshard-"))
        .collect()
}

#[test]
fn one_shard_runs_on_the_callers_thread() {
    let sharded = |shards| {
        PaperConfig::new()
            .total_packets(200)
            .uniform()
            .with_engine(EngineKind::ShardedCompiled { shards, batch: 16 })
    };
    let mut one = AnyEngine::build(&sharded(1)).unwrap();
    assert!(matches!(one, AnyEngine::Compiled(_)));
    assert_eq!(shard_worker_threads(), [""; 0]);
    run_engine(&mut one).unwrap();
    assert_eq!(shard_worker_threads(), [""; 0]);

    // The probe does see workers when there are some (a thread names
    // itself, so wait for one round trip before looking).
    let mut two = AnyEngine::build(&sharded(2)).unwrap();
    two.step().unwrap();
    let mut names = shard_worker_threads();
    names.sort();
    assert_eq!(names, ["nocem-cshard-0", "nocem-cshard-1"]);
    drop(two);
    assert_eq!(shard_worker_threads(), [""; 0]);
}
