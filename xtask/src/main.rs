//! The repository's checks as one program.
//!
//! ```text
//! cargo run -p xtask -- <stage>|all|--list
//! ```
//!
//! [`STAGES`] is the one list of what CI runs, in the order `all` runs
//! it; `--list` prints it. A stage prints each command before running
//! it at the workspace root, stops at the first that fails and exits
//! with that command's code, and ends with one JSON line
//! `{"stage","wall_s","ok"}`. `all` then prints a table of stage times.
//! CI's workflow runs each stage as one step, which this crate's tests
//! check line by line.

use std::path::Path;
use std::process::{exit, Command};
use std::time::Instant;

use nocem_common::json::{Fixed, JsonWriter};
use nocem_common::table::{Align, TextTable};

/// A named list of checks.
struct Stage {
    name: &'static str,
    /// What the stage checks, where its commands do not say it.
    doc: &'static str,
    /// Command lines, split on whitespace without a shell; leading
    /// `VAR=value` words are set in the command's environment.
    commands: &'static [&'static str],
}

const STAGES: &[Stage] = &[
    Stage {
        name: "tier1",
        doc: "The release build, then every crate's unit, property and doc tests and the\n\
              integration tests in the dev profile (debug assertions and overflow checks\n\
              on), this crate's guard on the CI workflow included.",
        commands: &["cargo build --release", "cargo test -q"],
    },
    Stage {
        name: "release-tests",
        doc: "The whole workspace's tests again in release.",
        commands: &["cargo test --release -q --workspace"],
    },
    Stage {
        name: "yardstick",
        doc: "The benchmark crate's own tests, then every workload of BENCHMARK.json once,\n\
              in release: oracle gate against `Emulation` and golden digest; non-zero exit\n\
              on any failed operation.",
        commands: &[
            "cargo test --offline --manifest-path benchmark/Cargo.toml",
            "cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --seconds 1",
        ],
    },
    Stage {
        name: "probes",
        doc: "Set-up and memory limits. Uniform-random on mesh64x64 and torus64x64 (16.7 M\n\
              flows, none stored) from scenario name to a stepping compiled engine: non-zero\n\
              exit over 0.5 s of set-up or 64 MB peak. The packet ledger of mesh8x8 at 40 %\n\
              over 1 000 000 cycles: non-zero exit over 21 MB peak; a starving tornado point\n\
              on torus8x8: non-zero exit over 336 KiB of open window.",
        commands: &[
            "cargo run --release --example scale_setup -- 64 uniform_random",
            "cargo run --release --example scale_setup -- 64 uniform_random torus",
            "cargo run --release --example ledger_memory",
        ],
    },
    Stage {
        name: "examples",
        doc: "Every example, and Figure 1's set-up; each exits non-zero on a run that fails\n\
              or a check of its own (`register_level`: a bus read-back disagrees with the\n\
              engine's results).",
        commands: &[
            "cargo run --release --example quickstart",
            "cargo run --release --example scenario_tour",
            "cargo run --release --example custom_topology",
            "cargo run --release --example synthesis_report",
            "cargo run --release --example trace_driven",
            "cargo run --release --example register_level",
            "cargo run --release --example design_space",
            "cargo run --release -p nocem-bench --bin fig_setup",
        ],
    },
    Stage {
        name: "figures",
        doc: "Figures 2-4 and Table 1 check the paper's claims and exit non-zero on one that\n\
              fails without a recorded deviation; the full latency curves rewrite\n\
              latency_curves.csv, link_heat.csv and latency_accepted.csv. No checked-in CSV\n\
              carries a timing column, so any difference under results/ is a behaviour\n\
              change.",
        commands: &[
            "cargo run --release -p nocem-bench --bin fig2_runtime",
            "cargo run --release -p nocem-bench --bin fig3_congestion",
            "cargo run --release -p nocem-bench --bin fig4_latency",
            "cargo run --release -p nocem-bench --bin table1_resources",
            "cargo run --release -p nocem-bench --bin latency_curves",
            "git diff --exit-code results/",
        ],
    },
    Stage {
        name: "matrix",
        doc: "The scenario matrix (torus minimal+dateline routing included), then the\n\
              latency-curve smoke: the saturation search terminates, accepted throughput is\n\
              monotone below saturation, the top bottleneck crosses the mesh4x4 bisection\n\
              and telemetry overhead stays under its bound.",
        commands: &[
            "cargo run --release -p nocem-bench --bin scenario_matrix",
            "cargo run --release -p nocem-bench --bin latency_curves -- --smoke",
        ],
    },
    Stage {
        name: "lint",
        doc: "Clippy and rustfmt on the workspace and on the benchmark crate, which is\n\
              outside it; rustdoc with warnings as errors, without and with private items.",
        commands: &[
            "cargo clippy --workspace --all-targets -- -D warnings",
            "cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings",
            "cargo fmt --check",
            "cargo fmt --manifest-path benchmark/Cargo.toml --check",
            "RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps",
            "RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps --document-private-items",
        ],
    },
];

/// Examples and bench binaries that no stage runs: `name: why`.
const NOT_RUN: &[&str] = &[
    "ab: a measurement tool; it builds a second workspace from a git revision",
    "table2_speed: wall times; tier1's `engine_speed_ordering_holds` checks its claim",
];

/// The workspace root, where every command runs.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask/ sits in the workspace root")
}

/// Runs one command line; its exit code if it fails.
fn run(line: &str) -> Result<(), i32> {
    println!("$ {line}");
    let words: Vec<&str> = line.split_whitespace().collect();
    let (env, argv) = words.split_at(words.iter().take_while(|w| w.contains('=')).count());
    let status = Command::new(argv[0])
        .args(&argv[1..])
        .envs(env.iter().filter_map(|kv| kv.split_once('=')))
        .current_dir(root())
        .status();
    match status {
        Ok(s) if s.success() => Ok(()),
        Ok(s) => Err(s.code().unwrap_or(1)),
        Err(e) => {
            eprintln!("xtask: cannot start `{}`: {e}", argv[0]);
            Err(127)
        }
    }
}

/// Runs `stage`'s commands up to the first that fails and prints the
/// stage's JSON line.
fn run_stage(stage: &Stage) -> (f64, Result<(), i32>) {
    let start = Instant::now();
    let outcome = stage.commands.iter().try_for_each(|c| run(c));
    let wall_s = start.elapsed().as_secs_f64();
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.field("stage", stage.name)
            .field("wall_s", Fixed(wall_s, 1))
            .field("ok", outcome.is_ok());
    });
    println!("{}", w.finish());
    (wall_s, outcome)
}

fn list() {
    for stage in STAGES {
        println!("{}", stage.name);
        for line in stage.doc.lines() {
            println!("    {line}");
        }
        for c in stage.commands {
            println!("    $ {c}");
        }
    }
    println!("\nnot run by any stage:");
    for why in NOT_RUN {
        println!("    {why}");
    }
}

fn usage() -> ! {
    let names: Vec<&str> = STAGES.iter().map(|s| s.name).collect();
    eprintln!(
        "usage: cargo run -p xtask -- <stage>|all|--list\nstages: {}",
        names.join(", ")
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stages: Vec<&Stage> = match args.as_slice() {
        [a] if a == "--list" => return list(),
        [a] => STAGES
            .iter()
            .filter(|s| a == "all" || s.name == a)
            .collect(),
        _ => Vec::new(),
    };
    if stages.is_empty() {
        usage();
    }
    let mut table = TextTable::with_columns(&["stage", "wall_s", "ok"]);
    table.align(1, Align::Right);
    let mut failed = None;
    for stage in &stages {
        let (wall_s, outcome) = run_stage(stage);
        let ok = if outcome.is_ok() { "yes" } else { "NO" };
        table.row(vec![stage.name.into(), format!("{wall_s:.1}"), ok.into()]);
        if let Err(code) = outcome {
            failed = Some(code);
            break;
        }
    }
    if stages.len() > 1 {
        print!("{table}");
    }
    if let Some(code) = failed {
        exit(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    /// What is wrong with a CI workflow, by a line scan of its layout
    /// (jobs at indent 2, job keys at 4, steps as `- ` items at 6): empty
    /// when every `run:` is one stage, every stage runs once, and tier1's
    /// job times out at 30 minutes and its step at 10.
    fn ci_faults(ci: &str) -> Vec<String> {
        let lines: Vec<&str> = ci.lines().collect();
        let indent = |l: &&str| l.len() - l.trim_start().len();
        let mut faults = Vec::new();
        let mut runs = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let Some(run) = line
                .trim_start()
                .trim_start_matches("- ")
                .strip_prefix("run:")
            else {
                continue;
            };
            let stage = run.trim().strip_prefix("cargo run -p xtask -- ");
            match stage.filter(|s| STAGES.iter().any(|st| st.name == *s)) {
                Some(stage) => runs.push((i, stage)),
                None => faults.push(format!("line {}: `{}` is no stage", i + 1, line.trim())),
            }
        }
        for stage in STAGES {
            let n = runs.iter().filter(|(_, s)| *s == stage.name).count();
            if n != 1 {
                faults.push(format!("stage {} runs {n} times, not once", stage.name));
            }
        }
        if let Some(&(i, _)) = runs.iter().find(|(_, s)| *s == "tier1") {
            let key = |l: &&str, depth, kv| indent(l) == depth && l.trim() == kv;
            let mut step = lines[i + 1..].iter().take_while(|l| indent(l) > 6);
            let mut job = lines[..i].iter().rev().take_while(|l| indent(l) != 2);
            if !step.any(|l| key(l, 8, "timeout-minutes: 10"))
                || !job.any(|l| key(l, 4, "timeout-minutes: 30"))
            {
                faults.push("tier1's step must time out at 10 minutes, its job at 30".into());
            }
        }
        faults
    }

    #[test]
    fn ci_runs_every_stage_once_and_nothing_else() {
        let ci = fs::read_to_string(root().join(".github/workflows/ci.yml")).expect("CI workflow");
        assert_eq!(ci_faults(&ci), Vec::<String>::new());
    }

    #[test]
    fn every_example_and_bench_bin_is_run_or_says_why_not() {
        let words = STAGES.iter().flat_map(|s| s.commands).flat_map(|c| {
            let w: Vec<&str> = c.split_whitespace().collect();
            let after = |p: &[&'static str]| matches!(p[0], "--example" | "--bin").then_some(p[1]);
            w.windows(2).filter_map(after).collect::<Vec<_>>()
        });
        let not_run = NOT_RUN.iter().flat_map(|w| w.split(':').next());
        let named: Vec<&str> = words.chain(not_run).collect();
        let entries = |dir: &str| {
            let dir = fs::read_dir(root().join(dir)).expect("a target directory");
            dir.map(|e| e.expect("a directory entry").path())
        };
        let examples = entries("examples").filter(|p| p.extension().is_some_and(|x| x == "rs"));
        let unnamed: Vec<String> = (examples.chain(entries("crates/bench/src/bin")))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .filter(|t| !named.contains(&t.as_str()))
            .collect();
        assert!(
            unnamed.is_empty(),
            "no stage runs {unnamed:?}, and NOT_RUN gives no reason"
        );
    }
}
