//! One repetition of one workload, run in a process of its own so that
//! set-up is cold (as a CLI user pays it) and the peak resident set is
//! the workload's alone. The parent reads the [`Report`] off stdout.

use crate::metrics::{phase_metric, PHASES};
use crate::spans::{chrome_trace, self_time_table, Recorder};
use crate::workloads::{curve_set, Kind, Stepping, Workload};
use crate::{digest, out_dir};
use nocem::{
    compute_routing, elaborate_routed, lower, run_engine_until, AnyEngine, PlatformConfig,
    ProfileConfig, SteppableEngine,
};
use nocem_curves::PointMeasurement;
use nocem_scenarios::ScenarioRegistry;
use nocem_stats::{Window, WindowStats};
use nocem_topology::deadlock::check_routing_deadlock_freedom;
use nocem_topology::RoutingTables;
use std::collections::BTreeMap;
use std::hint::black_box;

/// The run stage steps in chunks of this many cycles, one span each, so
/// a slow stretch of a run is visible in a traced run's timeline.
/// Untraced runs step in the same chunks: whether spans are kept is the
/// only difference between the two.
const RUN_CHUNK: u64 = 10_000;

/// What one repetition measured.
#[derive(Debug, Default, PartialEq)]
pub struct Report {
    /// Metric name to value: every end-to-end metric but `setup_s`
    /// (see `setup_samples`), and the per-layer metrics the repetition
    /// could measure.
    pub values: BTreeMap<String, f64>,
    /// Every set-up timed in this repetition, the cold one first.
    pub setup_samples: Vec<f64>,
    /// Digest of the simulated outcome (see [`crate::digest`]).
    pub digest: u64,
}

impl Report {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// The wire form: one `name value` line per entry.
    pub fn to_lines(&self) -> String {
        let mut out = format!("digest {:016x}\n", self.digest);
        for s in &self.setup_samples {
            out.push_str(&format!("setup_sample {s}\n"));
        }
        for (name, value) in &self.values {
            out.push_str(&format!("{name} {value}\n"));
        }
        out
    }

    /// Parses [`Report::to_lines`].
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        for line in text.lines() {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed report line {line:?}"))?;
            let number = || {
                value
                    .parse::<f64>()
                    .map_err(|e| format!("report line {line:?}: {e}"))
            };
            match name {
                "digest" => {
                    report.digest = u64::from_str_radix(value, 16)
                        .map_err(|e| format!("report line {line:?}: {e}"))?;
                }
                "setup_sample" => report.setup_samples.push(number()?),
                _ => report.set(name, number()?),
            }
        }
        Ok(report)
    }
}

/// Runs one repetition, on one CPU. A traced one also writes its spans
/// under `out/`, as Chrome trace JSON and as a table of self times.
pub fn run(w: &Workload, seed: u64, traced: bool, rep: u64) -> Result<Report, String> {
    pin_to(last_allowed_cpu()?)?;
    let mut rec = Recorder::new(traced);
    let report = match &w.kind {
        Kind::Stepping(p) => stepping(p, w.setup_builds, seed, traced, &mut rec)?,
        Kind::Curves => curves(w.setup_builds, traced, &mut rec)?,
    };
    if traced {
        let dir = out_dir();
        let write = |file: String, content: String| {
            let path = dir.join(file);
            std::fs::write(&path, content).map_err(|e| format!("writing {}: {e}", path.display()))
        };
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        write(
            format!("{}.trace.json", w.name),
            chrome_trace(rec.spans(), w.name, rep),
        )?;
        write(
            format!("{}.spans.txt", w.name),
            self_time_table(rec.spans()),
        )?;
    }
    Ok(report)
}

/// A platform brought up to the point where it can take its first
/// `step()`.
struct BroughtUp {
    cfg: PlatformConfig,
    routing: RoutingTables,
    engine: AnyEngine,
}

/// The set-up stage: config, routing, and the engine `cfg.engine` names
/// (which elaborates, lowers and, when sharded, spawns its worker).
fn bring_up(
    make_cfg: impl FnOnce() -> Result<PlatformConfig, String>,
    report: &mut Report,
    rec: &mut Recorder,
) -> Result<BroughtUp, String> {
    let span = rec.enter("scenarios.build_config");
    let cfg = make_cfg()?;
    report.set("scenarios.build_config_s", rec.exit(span));

    let span = rec.enter("topology.compute_routing");
    let routing = compute_routing(&cfg).map_err(|e| e.to_string())?;
    report.set("topology.compute_routing_s", rec.exit(span));

    let span = rec.enter("core.engine_build");
    let engine = AnyEngine::build_routed(&cfg, Some(&routing)).map_err(|e| e.to_string())?;
    report.set("core.engine_build_s", rec.exit(span));

    Ok(BroughtUp {
        cfg,
        routing,
        engine,
    })
}

/// Times, outside the measured stages, the layer calls that
/// `AnyEngine::build_routed` makes internally, and counts the routing
/// tables. Traced repetitions only: it elaborates a second time.
fn probe_layers(up: &BroughtUp, report: &mut Report, rec: &mut Recorder) -> Result<(), String> {
    let probes = rec.enter("layer-probes");

    let span = rec.enter("topology.deadlock_check");
    check_routing_deadlock_freedom(&up.cfg.topology, &up.routing).map_err(|e| e.to_string())?;
    report.set("topology.deadlock_check_s", rec.exit(span));

    let span = rec.enter("core.elaborate");
    let elab = elaborate_routed(&up.cfg, up.routing.clone()).map_err(|e| e.to_string())?;
    report.set("core.elaborate_s", rec.exit(span));

    let span = rec.enter("core.lower");
    black_box(lower(&elab));
    report.set("core.lower_s", rec.exit(span));

    report.set("topology.flows", up.routing.flow_count() as f64);
    let entries: usize = up
        .cfg
        .topology
        .switch_ids()
        .map(|s| up.routing.switch_table(s).flow_entries())
        .sum();
    report.set("topology.route_entries", entries as f64);

    rec.exit(probes);
    Ok(())
}

fn stepping(
    p: &Stepping,
    setup_builds: usize,
    seed: u64,
    traced: bool,
    rec: &mut Recorder,
) -> Result<Report, String> {
    let mut report = Report::default();
    let make_cfg = || {
        let mut cfg = p.config(&ScenarioRegistry::builtin(), p.engine, seed)?;
        if traced {
            cfg.profile = Some(ProfileConfig::default().without_spans());
        }
        Ok(cfg)
    };
    let cpu_before = cpu_seconds();
    let rep = rec.enter("rep");

    let span = rec.enter("setup");
    let mut up = bring_up(make_cfg, &mut report, rec)?;
    report.setup_samples.push(rec.exit(span));

    let span = rec.enter("core.run");
    let mut until = 0;
    while until < p.cycles {
        until = (until + RUN_CHUNK).min(p.cycles);
        let chunk = rec.enter("core.run-chunk");
        run_engine_until(&mut up.engine, until).map_err(|e| e.to_string())?;
        rec.exit(chunk);
    }
    let run_s = rec.exit(span);

    let span = rec.enter("stats.window_extract");
    let ledger = up.engine.packet_ledger();
    let warmup = p.cycles / 10;
    let window = Window::after_warmup(warmup, p.cycles - warmup, p.cycles);
    black_box(WindowStats::from_ledger_both(&ledger, window));
    report.set("stats.window_extract_s", rec.exit(span));

    let span = rec.enter("core.results");
    let results = up.engine.results().map_err(|e| e.to_string())?;
    report.set("core.results_s", rec.exit(span));

    let wall_s = rec.exit(rep);
    report.set("host.cpu_share", (cpu_seconds() - cpu_before) / wall_s);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("wall_s", wall_s);
    report.set("sim_cycles_per_s", p.cycles as f64 / run_s);
    report.set("core.run_s", run_s);
    report.set("core.step_ns_per_cycle", run_s * 1e9 / p.cycles as f64);

    let summary = up.engine.summary();
    report.digest = digest::of_run(&summary, &results, &ledger);
    report.set("sim.cycles", summary.cycles as f64);
    report.set("sim.cycles_skipped", summary.cycles_skipped as f64);
    report.set("sim.delivered_packets", summary.delivered as f64);
    report.set("sim.delivered_flits", summary.delivered_flits as f64);
    report.set("sim.stalled_cycles", results.stalled_cycles as f64);
    drop(ledger);

    if let Some(profile) = up.engine.profile() {
        for phase in PHASES {
            let ns = profile.ns_of(phase) as f64;
            report.set(&phase_metric(phase), ns / p.cycles as f64);
        }
    }
    if traced {
        probe_layers(&up, &mut report, rec)?;
    }
    drop(up);
    for _ in 1..setup_builds {
        let span = rec.enter("setup");
        black_box(bring_up(make_cfg, &mut Report::default(), rec)?);
        report.setup_samples.push(rec.exit(span));
    }
    Ok(report)
}

fn curves(setup_builds: usize, traced: bool, rec: &mut Recorder) -> Result<Report, String> {
    let mut report = Report::default();
    let set = curve_set();
    let cpu_before = cpu_seconds();
    let rep = rec.enter("rep");

    // What a curve-set user waits for before the first point runs: the
    // registry and the applicability check of every combination.
    let setup = |rec: &mut Recorder| {
        let span = rec.enter("setup");
        let registry = ScenarioRegistry::builtin();
        let expanded = set.expand(&registry).map_err(|e| e.to_string());
        (rec.exit(span), registry, expanded)
    };
    let (setup_s, registry, expanded) = setup(rec);
    let (specs, _skipped) = expanded?;
    report.setup_samples.push(setup_s);

    let span = rec.enter("curves.run");
    let outcome = set.run(&registry, 1).map_err(|e| e.to_string())?;
    let run_s = rec.exit(span);

    let span = rec.enter("curves.csv");
    let csv = outcome.to_csv();
    black_box(outcome.link_heat_csv());
    report.set("curves.csv_s", rec.exit(span));

    let wall_s = rec.exit(rep);
    report.set("host.cpu_share", (cpu_seconds() - cpu_before) / wall_s);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("wall_s", wall_s);

    let measured: Vec<&PointMeasurement> = outcome
        .curves
        .iter()
        .flat_map(|c| &c.points)
        .map(|p| &p.measurement)
        .collect();
    let sum = |f: fn(&PointMeasurement) -> u64| measured.iter().map(|m| f(m)).sum::<u64>() as f64;
    let cycles = sum(|m| m.cycles);
    report.set("sim_cycles_per_s", cycles / run_s);
    report.set("core.run_s", run_s);
    report.set("core.step_ns_per_cycle", run_s * 1e9 / cycles);
    report.set("curves.points", measured.len() as f64);
    report.set("curves.s_per_point", run_s / measured.len() as f64);
    report.digest = digest::of_bytes(csv.as_bytes());
    report.set("sim.cycles", cycles);
    report.set("sim.cycles_skipped", sum(|m| m.cycles_skipped));
    report.set("sim.delivered_packets", sum(|m| m.packets_measured));
    report.set("sim.stalled_cycles", sum(|m| m.stalled_cycles));

    if traced {
        // What one point pays before it steps, on the set's first
        // curve; 93 points each pay something like it.
        let span = rec.enter("point-setup-probe");
        let spec = &specs[0];
        let make_cfg = || {
            spec.config_at(&registry, spec.search.start_load)
                .map_err(|e| e.to_string())
        };
        let up = bring_up(make_cfg, &mut report, rec)?;
        probe_layers(&up, &mut report, rec)?;
        rec.exit(span);
    }
    for _ in 1..setup_builds {
        let (setup_s, _, expanded) = setup(rec);
        black_box(expanded?);
        report.setup_samples.push(setup_s);
    }
    Ok(report)
}

/// The last CPU the benchmark may run on: the one every repetition is
/// confined to.
pub fn last_allowed_cpu() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().rsplit([',', '-']).next()?.parse().ok())
        .ok_or_else(|| "no Cpus_allowed_list in /proc/self/status".to_string())
}

extern "C" {
    /// The C library's `sched_setaffinity(2)`; `mask` points at
    /// `cpusetsize` bytes, one bit per CPU.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines this process, and every thread it starts from here on, to
/// `cpu`. A repetition that cannot be pinned fails: pinned and unpinned
/// timings are not comparable (`shard1_mesh8x8` differs 2x), so there is
/// no unpinned regime to fall back to.
///
/// One CPU, because `shard1_mesh8x8` hands every window from its
/// coordinator to its worker and back: across two virtual CPUs of a
/// shared host each hand-over waits on the hypervisor to wake the other
/// one, which cost nothing for two hours and then doubled the workload's
/// run time for twelve minutes. On one CPU the hand-over is a context
/// switch. The single-threaded workloads only lose their migrations.
fn pin_to(cpu: usize) -> Result<(), String> {
    // The kernel's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("cpu {cpu} is beyond the 1024 a cpu_set_t holds"))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized array and the size passed is
    // its size in bytes, so the call reads only inside it; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "pinning to cpu {cpu}: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// `VmHWM` of this process in MB (2^20 bytes): the most memory the
/// repetition ever had resident.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process so far, all threads.
fn cpu_seconds() -> f64 {
    // Linux reports both in clock ticks of 1/100 s on every mainstream
    // configuration; the fields follow the parenthesised command name.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_its_wire_form() {
        let mut report = Report {
            digest: 0x0123_4567_89ab_cdef,
            setup_samples: vec![0.004_312_5, 0.003_9],
            ..Report::default()
        };
        report.set("wall_s", 1.234_567_891_234);
        report.set("phase.tg-tick.ns_per_cycle", 0.0);
        assert_eq!(Report::parse(&report.to_lines()), Ok(report));
        assert!(Report::parse("wall_s\n").is_err());
        assert!(Report::parse("wall_s fast\n").is_err());
    }

    /// Why `lowload_mesh12x12` stands beside `sat_mesh8x8`: on one the
    /// clock is gated off most cycles and switching is under half of a
    /// step, on the other every cycle is stepped and switching is most
    /// of it. Should a change of the engine make this fail, the two no
    /// longer stand on opposite sides of the optimisations they were
    /// chosen to tell apart, and the workloads need choosing again.
    #[test]
    fn sparse_and_saturated_workloads_stand_on_opposite_sides() {
        let profile = |name: &str, cycles: u64| {
            let workload = crate::workloads::find(name).expect("a workload");
            let Kind::Stepping(p) = &workload.kind else {
                panic!("{name} is a stepping workload");
            };
            let p = Stepping { cycles, ..*p };
            let report = stepping(&p, 1, 0, true, &mut Recorder::new(false)).expect("a report");
            let v = |metric: &str| report.values[metric];
            let switching = v("phase.decide.ns_per_cycle") + v("phase.commit.ns_per_cycle");
            (
                switching / v("core.step_ns_per_cycle"),
                v("sim.cycles_skipped") / v("sim.cycles"),
            )
        };
        let (saturated, saturated_skipped) = profile("sat_mesh8x8", 10_000);
        let (sparse, sparse_skipped) = profile("lowload_mesh12x12", 400_000);
        assert_eq!(saturated_skipped, 0.0);
        assert!(sparse_skipped > 0.5, "gating skipped {sparse_skipped}");
        assert!(saturated > 0.6, "decide+commit share {saturated}");
        assert!(sparse < 0.5, "decide+commit share {sparse}");
    }

    #[test]
    fn host_readings_are_available() {
        assert!(peak_rss_mb() > 0.0, "VmHWM not readable");
        assert!(cpu_seconds() >= 0.0);
    }
}
