//! The nocem benchmark: end-to-end and per-layer metrics of the whole
//! `config -> routing -> elaborate -> lower -> run -> results/CSV`
//! pipeline on five workloads. See `README.md` for the glossary and
//! `../BENCHMARK.json` for the contract the driver checks.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--check-repeat] [--bless]
//! ```
//!
//! This process only schedules and checks; every repetition runs in a
//! child process (this binary again, with `--child-rep`).

#[cfg(test)]
mod contract;
mod digest;
mod json;
mod metrics;
mod rep;
mod spans;
mod summary;
mod workloads;

use metrics::{Better, END_TO_END, PER_LAYER};
use nocem::{run_engine_until, AnyEngine, EngineKind, SteppableEngine};
use nocem_scenarios::ScenarioRegistry;
use rep::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use summary::Summary;
use workloads::{Kind, Stepping, Workload, WORKLOADS};

/// How long one run measures unless `--seconds` says otherwise;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// This crate's directory: goldens are read from it and traced runs
/// write under it, wherever the benchmark is started from.
fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where traced runs leave their timelines and tables (git-ignored).
fn out_dir() -> PathBuf {
    crate_dir().join("out")
}

fn golden_path(w: &Workload) -> PathBuf {
    crate_dir()
        .join("golden")
        .join(format!("{}.digest", w.name))
}

struct Args {
    /// `None`: all five, repetitions scheduled round-robin across them
    /// so a noisy minute on a shared host does not land on one workload.
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
    bless: bool,
    /// Internal: run repetition number `n` in this process.
    child_rep: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check_repeat: false,
        bless: false,
        child_rep: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(workloads::find(&v).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {v:?}; the workloads are {names:?}")
                })?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--child-rep" => {
                let v = value()?;
                args.child_rep = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--check-repeat" => args.check_repeat = true,
            "--bless" => args.bless = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

/// A printed metric: name, unit, which way it improves, and the order
/// statistics of its samples.
type Row = (&'static str, &'static str, Better, Summary);

/// Everything one run learned about one workload.
struct Outcome {
    workload: &'static Workload,
    /// Operations: the oracle comparisons, every repetition, and every
    /// digest comparison. Any failure fails the run.
    attempted: u64,
    failed: u64,
    untraced: Vec<Report>,
    traced: Vec<Report>,
    /// A repetition did not run to its report. The workload makes no
    /// more of them: the run has failed, and a child that fails at once
    /// would otherwise be restarted for the whole of `--seconds`.
    rep_errored: bool,
    /// Seconds of `--seconds` spent in repetitions so far.
    spent: f64,
    longest_rep: f64,
    oracle: Option<Oracle>,
    /// The digest every repetition must reproduce: the checked-in
    /// golden at seed 0; at any other seed whatever the first repetition
    /// simulated (the oracle gate is then the only check against a
    /// reference).
    expected: Option<u64>,
}

/// The reference engine against the engine under test over a
/// workload's check prefix.
struct Oracle {
    cycles_per_s: f64,
    /// Engine under test over the oracle, on the same prefix.
    speedup: f64,
}

impl Outcome {
    fn new(workload: &'static Workload) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            untraced: Vec::new(),
            traced: Vec::new(),
            rep_errored: false,
            spent: 0.0,
            longest_rep: 0.0,
            oracle: None,
            expected: None,
        }
    }

    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED {}: {}", self.workload.name, what());
        }
    }

    /// Runs the engine under test and `EngineKind::SingleThread` (whose
    /// cycle semantics are the specification) over the check prefix and
    /// requires identical ledgers and summaries: accuracy is exact, the
    /// error is 0 diverging packets or the run fails.
    fn oracle_gate(&mut self, p: &Stepping, seed: u64) {
        let run = |engine: EngineKind| -> Result<(AnyEngine, f64), String> {
            let cfg = p.config(&ScenarioRegistry::builtin(), engine, seed)?;
            let mut engine = AnyEngine::build_routed(&cfg, None).map_err(|e| e.to_string())?;
            let t = Instant::now();
            run_engine_until(&mut engine, p.oracle_prefix).map_err(|e| e.to_string())?;
            Ok((engine, t.elapsed().as_secs_f64()))
        };
        match run(p.engine).and_then(|t| Ok((t, run(EngineKind::SingleThread)?))) {
            Ok(((tested, tested_s), (oracle, oracle_s))) => {
                let diverges = |what: &str| {
                    format!(
                        "{what} diverges from the oracle within {} cycles",
                        p.oracle_prefix
                    )
                };
                self.op(tested.packet_ledger() == oracle.packet_ledger(), || {
                    diverges("ledger")
                });
                self.op(
                    tested.summary().behavioral() == oracle.summary().behavioral(),
                    || diverges("summary"),
                );
                self.oracle = Some(Oracle {
                    cycles_per_s: p.oracle_prefix as f64 / oracle_s,
                    speedup: oracle_s / tested_s,
                });
            }
            Err(e) => self.op(false, || format!("oracle check did not run: {e}")),
        }
    }

    fn wants_rep(&self, args: &Args) -> bool {
        let reps = self.untraced.len() + self.traced.len();
        !self.rep_errored
            && (reps < self.workload.min_reps || self.spent + self.longest_rep <= args.seconds)
    }

    /// One repetition in a child process. A traced run alternates
    /// untraced and traced repetitions, so that the two kinds see the
    /// same minutes of the host and their difference is the tracing
    /// overhead.
    fn rep(&mut self, args: &Args) {
        let n = (self.untraced.len() + self.traced.len()) as u64;
        let traced = args.trace && n % 2 == 1;
        let t = Instant::now();
        let result = spawn_rep(self.workload, args.seed, traced, n);
        let took = t.elapsed().as_secs_f64();
        self.spent += took;
        self.longest_rep = self.longest_rep.max(took);
        match result {
            Ok(report) => {
                self.op(true, String::new);
                let digest = report.digest;
                let want = *self.expected.get_or_insert(digest);
                self.op(digest == want, || {
                    format!("repetition {n} simulated {digest:016x}, expected {want:016x}")
                });
                if traced {
                    self.traced.push(report);
                } else {
                    self.untraced.push(report);
                }
            }
            Err(e) => {
                self.rep_errored = true;
                self.op(false, || format!("repetition {n}: {e}"));
            }
        }
    }

    /// Median and quartiles of every end-to-end metric, over the
    /// untraced repetitions (tracing is off for what the user sees).
    fn end_to_end(&self) -> Vec<Row> {
        END_TO_END
            .iter()
            .filter_map(|m| {
                let samples: Vec<f64> = match m.name {
                    "setup_s" => self
                        .untraced
                        .iter()
                        .flat_map(|r| r.setup_samples.iter().copied())
                        .collect(),
                    name => self
                        .untraced
                        .iter()
                        .filter_map(|r| r.values.get(name).copied())
                        .collect(),
                };
                (!samples.is_empty()).then(|| (m.name, m.unit, m.better, Summary::of(&samples)))
            })
            .collect()
    }

    /// Every per-layer metric, over the traced repetitions. A layer the
    /// workload does not exercise reads 0.
    fn per_layer(&self) -> Vec<Row> {
        let wall = |reps: &[Report]| -> Option<f64> {
            let walls: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.values.get("wall_s").copied())
                .collect();
            (!walls.is_empty()).then(|| Summary::of(&walls).median)
        };
        PER_LAYER
            .iter()
            .map(|m| {
                let single = match m.name {
                    "oracle.cycles_per_s" => self.oracle.as_ref().map(|o| o.cycles_per_s),
                    "oracle.speedup" => self.oracle.as_ref().map(|o| o.speedup),
                    "host.cores" => Some(host_cores() as f64),
                    "sim.ledger_digest" => self
                        .traced
                        .first()
                        .map(|r| (r.digest & 0xFFFF_FFFF_FFFF) as f64),
                    "trace.overhead_share" => wall(&self.traced)
                        .zip(wall(&self.untraced))
                        .map(|(traced, untraced)| (traced - untraced) / untraced),
                    _ => None,
                };
                let samples: Vec<f64> = match single {
                    Some(v) => vec![v],
                    None => self
                        .traced
                        .iter()
                        .filter_map(|r| r.values.get(m.name).copied())
                        .collect(),
                };
                let samples = if samples.is_empty() {
                    vec![0.0]
                } else {
                    samples
                };
                (m.name, m.unit, m.better, Summary::of(&samples))
            })
            .collect()
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs repetition `n` of `w` in a child process and reads its report.
fn spawn_rep(w: &Workload, seed: u64, traced: bool, n: u64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--child-rep", &n.to_string(), "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("starting the repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Report::parse(&String::from_utf8_lossy(&output.stdout))
}

/// The checked-in digest of `w` at seed 0.
fn golden_digest(w: &Workload) -> Result<u64, String> {
    let path = golden_path(w);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e} (a PR that intends the behaviour runs --bless)",
            path.display()
        )
    })?;
    u64::from_str_radix(text.trim(), 16).map_err(|e| format!("{}: {e}", path.display()))
}

/// One set of runs: the oracle gate of every workload, then repetitions
/// round-robin until every workload has spent its `--seconds`.
fn run_set(selected: &[&'static Workload], args: &Args) -> Vec<Outcome> {
    let mut set: Vec<Outcome> = selected
        .iter()
        .map(|&workload| {
            let mut outcome = Outcome::new(workload);
            if let Kind::Stepping(p) = &workload.kind {
                outcome.oracle_gate(p, args.seed);
            }
            if args.seed == 0 {
                match golden_digest(workload) {
                    Ok(golden) => outcome.expected = Some(golden),
                    Err(e) => outcome.op(false, || e),
                }
            }
            outcome
        })
        .collect();
    loop {
        let mut ran = false;
        for outcome in &mut set {
            if outcome.wants_rep(args) {
                outcome.rep(args);
                ran = true;
            }
        }
        if !ran {
            return set;
        }
    }
}

fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<38} {:>16} {:<9} {:<6} {:>14} {:>14} {:>14} {:>4} {:>8}\n",
        "metric", "median", "unit", "better", "q1", "q3", "min", "n", "spread"
    );
    for (name, unit, better, s) in rows {
        out.push_str(&format!(
            "{name:<38} {:>16.6} {unit:<9} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>4} {:>7.2}%\n",
            s.median,
            better.name(),
            s.q1,
            s.q3,
            s.min,
            s.n,
            s.spread() * 100.0
        ));
    }
    out
}

/// The result line the driver reads: `correct`, `attempted`, `failed`
/// and the run's metrics, each a median with all its digits.
fn result_line(outcome: &Outcome, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, unit, _, s)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(s.median),
                json::string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Prints a workload's table and result line; a traced run also leaves
/// the table under `out/`.
fn print_outcome(outcome: &Outcome, args: &Args) {
    let name = outcome.workload.name;
    let rows = if args.trace {
        outcome.per_layer()
    } else {
        outcome.end_to_end()
    };
    let text = table(&rows);
    println!(
        "== {name}: {}\n== {name}: {} untraced + {} traced repetitions, {} of {} operations failed",
        outcome.workload.why,
        outcome.untraced.len(),
        outcome.traced.len(),
        outcome.failed,
        outcome.attempted
    );
    print!("{text}");
    if args.trace {
        let path = out_dir().join(format!("{name}.layers.txt"));
        if let Err(e) =
            std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &text))
        {
            eprintln!("warning: {}: {e}", path.display());
        }
    }
    println!("{}", result_line(outcome, &rows));
}

/// Host, toolchain and revision, so a printed result says where it came
/// from.
fn print_stamp(args: &Args) {
    let first_line = |cmd: &mut Command| {
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| {
                String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .next()
                    .map(String::from)
            })
            .unwrap_or_else(|| "unknown".into())
    };
    let repo = crate_dir().join("..");
    // Only a repository of our own: a checkout without `.git` must not
    // report the revision of whatever directory encloses it.
    let revision = if repo.join(".git").exists() {
        first_line(
            Command::new("git")
                .arg("-C")
                .arg(&repo)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        "unknown".into()
    };
    println!(
        "nocem-benchmark: seed {} seconds {} trace {} | host.cores {}, repetitions on cpu {} | {} | revision {revision}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cores(),
        rep::last_allowed_cpu().map_or_else(|e| e, |cpu| cpu.to_string()),
        first_line(Command::new("rustc").arg("-V")),
    );
}

/// Acceptance check anyone can run: two sets of runs of the same code
/// must agree on every end-to-end metric of every workload within the
/// metric's bound, and simulate the same thing.
fn check_repeat(selected: &[&'static Workload], args: &Args) -> bool {
    let first = run_set(selected, args);
    let second = run_set(selected, args);
    let mut ok = true;
    for (a, b) in first.iter().zip(&second) {
        print_outcome(a, args);
        print_outcome(b, args);
        if a.failed + b.failed > 0 || a.expected != b.expected {
            println!(
                "REPEAT {}: operations failed or the two sets simulated different outcomes",
                a.workload.name
            );
            ok = false;
            continue;
        }
        for ((m, (_, _, _, sa)), (_, _, _, sb)) in
            END_TO_END.iter().zip(a.end_to_end()).zip(b.end_to_end())
        {
            let differs = (sb.median - sa.median).abs() / sa.median;
            let verdict = if differs <= m.bound { "ok" } else { "DIFFERS" };
            ok &= differs <= m.bound;
            println!(
                "REPEAT {} {}: {} [{} .. {}] vs {} [{} .. {}] {}: {:.1}% apart, bound {:.0}% {verdict}",
                a.workload.name, m.name, sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, m.unit,
                differs * 100.0, m.bound * 100.0
            );
        }
    }
    ok
}

/// Rewrites the seed-0 goldens from one fresh repetition each. Only in
/// a PR that intends a change of simulated behaviour.
fn bless(selected: &[&'static Workload]) -> Result<(), String> {
    for w in selected {
        let report = spawn_rep(w, 0, false, 0)?;
        let path = golden_path(w);
        std::fs::write(&path, format!("{:016x}\n", report.digest))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("blessed {} = {:016x}", path.display(), report.digest);
    }
    Ok(())
}

/// Runs the mode the arguments name; `Ok(false)` when an operation
/// failed.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let selected: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    if let Some(n) = args.child_rep {
        let w = args.workload.ok_or("--child-rep needs --workload")?;
        print!("{}", rep::run(w, args.seed, args.trace, n)?.to_lines());
        return Ok(true);
    }
    if args.bless {
        return bless(&selected).map(|()| true);
    }
    print_stamp(&args);
    if args.check_repeat {
        return Ok(check_repeat(&selected, &args));
    }
    let outcomes = run_set(&selected, &args);
    for outcome in &outcomes {
        print_outcome(outcome, &args);
    }
    Ok(outcomes.iter().all(|o| o.failed == 0))
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nocem-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_drivers_keys() {
        let mut outcome = Outcome::new(&WORKLOADS[0]);
        outcome.op(true, String::new);
        outcome.op(false, || "expected in this test".into());
        let rows = vec![(
            "wall_s",
            "s",
            Better::Lower,
            Summary::of(&[1.25, 1.5, 1.75]),
        )];
        let line = result_line(&outcome, &rows);
        nocem_telemetry::validate_json(&line).expect("valid JSON");
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn every_per_layer_metric_is_reported_even_when_unmeasured() {
        let outcome = Outcome::new(&WORKLOADS[0]);
        let names: Vec<_> = outcome.per_layer().iter().map(|r| r.0).collect();
        let catalogue: Vec<_> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, catalogue);
        assert!(
            outcome.end_to_end().is_empty(),
            "no repetitions, no end-to-end medians"
        );
    }
}
