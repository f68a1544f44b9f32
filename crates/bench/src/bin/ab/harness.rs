//! The harness the `ab` binary writes: the compiled engine of every
//! side, each built from its own tree's crates through one macro, and
//! stepped in alternating slices in one process.
//!
//! Arguments: `mesh|torus <side> <load> gated|every <rounds>`.

use std::process::ExitCode;
use std::time::Instant;

const WARMUP: u64 = 2_000;
const SLICE: u64 = 1_000;

/// The platform every side steps: uniform-random 4-flit packets with no
/// budget, as the benchmark's stepping workloads run it.
struct Platform {
    torus: bool,
    side: u32,
    load: f64,
    gated: bool,
}

/// One side's engine.
trait Side {
    /// Steps at least `cycles` cycles (a gated jump may step further).
    fn run(&mut self, cycles: u64);
    /// FNV-1a over the clock and every packet's lifecycle.
    fn digest(&self) -> u64;
}

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

macro_rules! side {
    ($name:ident, $nocem:ident, $scenarios:ident) => {
        mod $name {
            use $nocem::{ClockMode, CompiledEngine, SteppableEngine, TrafficModel};
            use $scenarios::{ScenarioRegistry, TopologySpec};

            struct Engine(CompiledEngine);

            pub fn build(p: &crate::Platform) -> Box<dyn crate::Side> {
                let (width, height) = (p.side, p.side);
                let topology = if p.torus {
                    TopologySpec::Torus { width, height }
                } else {
                    TopologySpec::Mesh { width, height }
                };
                let mut cfg = ScenarioRegistry::builtin()
                    .resolve("uniform_random")
                    .and_then(|s| s.build_config(topology, p.load, 4, 1_000))
                    .expect("the platform builds");
                for g in &mut cfg.generators {
                    if let TrafficModel::Uniform(u) = g {
                        u.budget = None;
                    }
                }
                cfg.stop.delivered_packets = None;
                cfg.stop.cycle_limit = u64::MAX;
                cfg.clock_mode = if p.gated {
                    ClockMode::Gated
                } else {
                    ClockMode::EveryCycle
                };
                let elab = $nocem::compile::elaborate(&cfg).expect("the platform elaborates");
                Box::new(Engine(CompiledEngine::new(elab)))
            }

            impl crate::Side for Engine {
                fn run(&mut self, cycles: u64) {
                    let end = self.0.now().raw() + cycles;
                    while self.0.now().raw() < end {
                        self.0.step().expect("the platform steps");
                    }
                }

                fn digest(&self) -> u64 {
                    let mut h = crate::Fnv(0xcbf2_9ce4_8422_2325);
                    h.u64(self.0.now().raw());
                    for r in self.0.ledger().records() {
                        h.u64(r.id.raw());
                        h.u64(r.release.raw());
                        h.u64(u64::from(r.len_flits));
                        h.u64(r.inject.map_or(u64::MAX, |c| c.raw()));
                        h.u64(r.deliver.map_or(u64::MAX, |c| c.raw()));
                    }
                    h.0
                }
            }
        }
    };
}

side!(parent, nocem_parent, nocem_scenarios_parent);
side!(change, nocem_change, nocem_scenarios_change);
side!(null, nocem_null, nocem_scenarios_null);

/// The `q`-quantile of sorted `v`, interpolated.
fn quantile(v: &[f64], q: f64) -> f64 {
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [topology, side, load, clock, rounds] = &args[..] else {
        eprintln!("usage: harness mesh|torus <side> <load> gated|every <rounds>");
        return ExitCode::FAILURE;
    };
    let p = Platform {
        torus: topology == "torus",
        side: side.parse().expect("side"),
        load: load.parse().expect("load"),
        gated: clock == "gated",
    };
    let rounds: usize = rounds.parse().expect("rounds");
    let names = ["parent", "change", "null"];
    let mut sides = [parent::build(&p), change::build(&p), null::build(&p)];
    for s in &mut sides {
        s.run(WARMUP);
    }
    // Per round, one slice per side; the order rotates every round, so
    // each side runs first, second and last equally often.
    let mut times = vec![[0.0f64; 3]; rounds];
    for (r, t) in times.iter_mut().enumerate() {
        for k in 0..3 {
            let i = (r + k) % 3;
            let start = Instant::now();
            sides[i].run(SLICE);
            t[i] = start.elapsed().as_secs_f64();
        }
    }
    let digests = sides.map(|s| s.digest());
    if digests[0] != digests[1] || digests[2] != digests[1] {
        for (name, d) in names.iter().zip(digests) {
            eprintln!("{name}: ledger digest {d:016x}");
        }
        eprintln!("the sides' ledgers differ: a behaviour change, so no ratio");
        return ExitCode::FAILURE;
    }
    let kind = if p.gated { "gated" } else { "every cycle" };
    println!(
        "{topology}{side}x{side} at load {load}, {kind}: {rounds} rounds of one \
         {SLICE}-cycle slice per side after {WARMUP} warm-up cycles; ledgers equal"
    );
    // Speed of the change over side `i`: side i's time over the change's.
    for (i, what) in [(0, "change / parent"), (2, "change / null  ")] {
        let mut v: Vec<f64> = times.iter().map(|t| t[i] / t[1]).collect();
        v.sort_by(f64::total_cmp);
        println!(
            "speed {what}: median {:.4}  [q1 {:.4}, q3 {:.4}]",
            quantile(&v, 0.5),
            quantile(&v, 0.25),
            quantile(&v, 0.75)
        );
    }
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    println!("load average: {}", load.trim());
    ExitCode::SUCCESS
}
