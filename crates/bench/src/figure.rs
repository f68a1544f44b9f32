//! The paper's evaluation as checked claims.
//!
//! A `Figure` is how its rows are measured, the CSV columns they are
//! written as, and the `Claim`s the paper makes about them. [`run`]
//! prints a figure's table, writes `results/<name>.csv` and checks
//! every claim. A claim that fails is accepted only through a
//! recorded `Deviation` whose evidence is exactly what the run
//! produced, so a deviation that no longer describes the numbers fails
//! as well.
//!
//! Every band, ε and tolerance here is fixed from the paper's
//! sentence, before a run reads it, and is checked at the paper's one
//! scale.

use crate::{endless_paper_config, measure_work_per_cycle, num_threads, save_csv, time_steps};
use nocem::compile::elaborate;
use nocem::config::{PaperConfig, PlatformConfig};
use nocem::flow::synthesize;
use nocem::{CompiledEngine, Emulation, EmulationResults};
use nocem_area::devices::{
    control_module, tg_stochastic, tg_trace_driven, tr_stochastic, tr_trace_driven,
};
use nocem_area::fpga::XC2VP20;
use nocem_common::csv::CsvWriter;
use nocem_common::table::{Align, TextTable};
use nocem_rtl::model::RtlEngine;
use nocem_tlm::model::TlmEngine;
use nocem_topology::builders::PAPER_OFFERED_LOAD;
use std::fmt;
use std::process::ExitCode;

/// Runs the figure or table named `name` (its binary's name): prints
/// the table, writes `results/<name>.csv`, prints every claim's
/// verdict, and fails when a claim fails.
///
/// # Panics
///
/// Panics on an unknown name or when a measurement faults.
pub fn run(name: &str) -> ExitCode {
    let figures = [FIG2, FIG3, FIG4, TABLE1, TABLE2];
    let Some(figure) = figures.iter().find(|f| f.name == name) else {
        panic!("no figure named {name}");
    };
    figure.run()
}

/// A row's fields as the CSV writes them: numbers by `Display`, which
/// reads back exactly.
type Row = Vec<String>;

fn nums(values: impl IntoIterator<Item = f64>) -> Row {
    values.into_iter().map(|v| v.to_string()).collect()
}

/// A row of `label` and `values`; an absent value is an empty field.
fn labeled(label: &str, values: impl IntoIterator<Item = Option<f64>>) -> Row {
    let fields = values
        .into_iter()
        .map(|v| v.map_or(String::new(), |v| v.to_string()));
    std::iter::once(label.to_string()).chain(fields).collect()
}

/// Column `i` of `rows`, which must be numeric.
fn col(rows: &[Row], i: usize) -> Vec<f64> {
    let field = |r: &Row| r[i].parse().expect("a numeric column");
    rows.iter().map(field).collect()
}

/// `Ok(evidence)` when a claim holds, `Err(evidence)` when it fails;
/// the evidence is the numbers that decide it.
type Verdict = Result<String, String>;

fn verdict(holds: bool, evidence: String) -> Verdict {
    if holds {
        Ok(evidence)
    } else {
        Err(evidence)
    }
}

/// A sentence of the paper, checked against a figure's rows.
struct Claim {
    name: &'static str,
    paper: &'static str,
    check: fn(&[Row]) -> Verdict,
}

/// A claim this reproduction fails: the evidence a run produces for
/// it, and the suspected cause.
struct Deviation {
    claim: &'static str,
    evidence: &'static str,
    cause: &'static str,
}

struct Figure {
    name: &'static str,
    title: &'static str,
    /// The CSV header.
    columns: &'static str,
    /// A `#` line under the CSV header.
    comment: Option<&'static str>,
    rows: fn() -> Vec<Row>,
    claims: &'static [Claim],
    deviations: &'static [Deviation],
}

impl Figure {
    /// Each claim's verdict line: `Ok` when it holds or deviates
    /// exactly as recorded, `Err` otherwise.
    fn verdicts(&self, rows: &[Row]) -> Vec<Verdict> {
        self.claims
            .iter()
            .map(|c| {
                let recorded = self.deviations.iter().find(|d| d.claim == c.name);
                match ((c.check)(rows), recorded) {
                    (Ok(e), None) => Ok(format!("holds: {} — {e}", c.name)),
                    (Err(e), Some(d)) if e == d.evidence => Ok(format!(
                        "DEVIATES: {} — {e}\n  paper: {}\n  suspected cause: {}",
                        c.name, c.paper, d.cause
                    )),
                    (Err(e), None) => Err(format!("FAILS: {} — {e}\n  paper: {}", c.name, c.paper)),
                    (now, Some(d)) => Err(format!(
                        "STALE DEVIATION: {} — recorded {:?}, this run {now:?}",
                        c.name, d.evidence
                    )),
                }
            })
            .collect()
    }

    fn run(&self) -> ExitCode {
        let rows = (self.rows)();
        let columns: Vec<&str> = self.columns.split(',').collect();
        let mut table = TextTable::with_columns(&columns);
        table.title(self.title);
        let mut csv = CsvWriter::new(&columns);
        if let Some(comment) = self.comment {
            csv.comment(comment);
        }
        for row in &rows {
            let shown = row.iter().map(|field| match field.parse::<f64>() {
                Ok(v) if v.fract() != 0.0 && v.abs() < 1e3 => format!("{v:.4}"),
                Ok(v) => format!("{v:.0}"),
                Err(_) => field.clone(),
            });
            table.row(shown.collect());
            csv.record(&row.iter().map(String::as_str).collect::<Vec<_>>());
        }
        for c in 0..columns.len() {
            if rows.iter().any(|r| r[c].parse::<f64>().is_ok()) {
                table.align(c, Align::Right);
            }
        }
        println!("{table}");
        let path = save_csv(&format!("{}.csv", self.name), csv.as_str());
        println!("data written to {}\n", path.display());
        let verdicts = self.verdicts(&rows);
        for line in &verdicts {
            println!("{}", line.as_ref().unwrap_or_else(|e| e));
        }
        ExitCode::from(u8::from(verdicts.iter().any(Result::is_err)))
    }
}

fn sweep(configs: &[PlatformConfig]) -> Vec<EmulationResults> {
    nocem::run_sweep(configs, num_threads()).expect("sweep runs")
}

/// The paper platform with trace-driven bursty traffic (Figures 3, 4).
fn trace(flits_per_packet: u16, packets_per_burst: u32) -> PlatformConfig {
    let paper = PaperConfig::new().total_packets(20_000);
    paper
        .packet_flits(flits_per_packet)
        .trace_bursty(packets_per_burst)
}

/// The congestion rate of the two 90 %-loaded links.
fn hot_congestion(r: &EmulationResults) -> f64 {
    r.congestion_rate(&PaperConfig::new().setup().hot_links)
}

/// Holds when no curve falls as its `x` ascends; the evidence names
/// each step that does, as `x0→x1 unit: y0→y1`.
fn never_falls(curves: Vec<(String, Vec<(f64, f64)>)>) -> Verdict {
    let mut falls = Vec::new();
    for (unit, curve) in &curves {
        for w in curve.windows(2).filter(|w| w[1].1 < w[0].1) {
            let (a, b) = (w[0], w[1]);
            falls.push(format!("{}→{} {unit}: {:.3}→{:.3}", a.0, b.0, a.1, b.1));
        }
    }
    verdict(falls.is_empty(), format!("falls at [{}]", falls.join("; ")))
}

/// "Both curves grow linearly": each further packet costs the
/// offered-load pace ±10 % — packets of 8 flits from 4 TGs, each
/// injecting 45 % of a flit per cycle.
const FIG2_BAND: (f64, f64) = (
    0.9 * 8.0 / (4.0 * PAPER_OFFERED_LOAD),
    1.1 * 8.0 / (4.0 * PAPER_OFFERED_LOAD),
);

const FIG2: Figure = Figure {
    name: "fig2_runtime",
    title: "Figure 2 — run-time vs number of sent packets (45% load, 8-flit packets)",
    columns: "packets,uniform_cycles,burst_cycles",
    comment: Some("paper fig: run-time vs packets; burst congests more than uniform"),
    rows: || {
        let counts = [2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000];
        let paper = |n| PaperConfig::new().total_packets(n);
        let pair = |&n: &u64| [paper(n).uniform(), paper(n).burst(8)];
        let configs: Vec<_> = counts.iter().flat_map(pair).collect();
        let runs = sweep(&configs);
        let cycles = |i: usize| runs[i].cycles as f64;
        let row = |(i, &n): (usize, &u64)| nums([n as f64, cycles(2 * i), cycles(2 * i + 1)]);
        counts.iter().enumerate().map(row).collect()
    },
    claims: &[
        Claim {
            name: "burst run time above uniform at every packet count",
            paper: "burst traffic congests the NoC more than uniform traffic at the same load",
            check: |rows| {
                let (u, b) = (col(rows, 1), col(rows, 2));
                let ratios: Vec<f64> = (0..rows.len()).map(|i| b[i] / u[i]).collect();
                let low = ratios.iter().copied().fold(f64::INFINITY, f64::min);
                verdict(low > 1.0, format!("lowest burst/uniform {low:.3}"))
            },
        },
        Claim {
            name: "run time grows linearly in the packet count",
            paper: "both curves grow linearly with the number of sent packets",
            check: |rows| {
                let (n, mut slopes) = (col(rows, 0), Vec::new());
                for y in [col(rows, 1), col(rows, 2)] {
                    slopes.extend((1..n.len()).map(|i| (y[i] - y[i - 1]) / (n[i] - n[i - 1])));
                }
                let (lo, hi) = slopes
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &s| (lo.min(s), hi.max(s)));
                let (min, max) = FIG2_BAND;
                let e = format!("slope {lo:.2}…{hi:.2} cycles/packet, band {min:.2}…{max:.2}");
                verdict(lo >= min && hi <= max, e)
            },
        },
    ],
    deviations: &[],
};

const FIG3: Figure = Figure {
    name: "fig3_congestion",
    title: "Figure 3 — hot-link congestion rate vs burst length (trace-driven)",
    columns: "packets_per_burst,flits_per_packet,congestion_rate",
    comment: None,
    rows: || {
        let grid: Vec<(u32, u16)> = [1, 2, 4, 8, 16, 32, 64]
            .into_iter()
            .flat_map(|b| [2, 4, 8, 16].map(|f| (b, f)))
            .collect();
        let configs: Vec<_> = grid.iter().map(|&(b, f)| trace(f, b)).collect();
        let row = |(&(b, f), r): (&(u32, u16), _)| nums([b.into(), f.into(), hot_congestion(&r)]);
        grid.iter().zip(sweep(&configs)).map(row).collect()
    },
    claims: &[Claim {
        name: "congestion does not fall as bursts grow longer in flits",
        paper: "congestion according to burst's length in flits: longer bursts congest the \
                90%-loaded links more",
        check: |rows| {
            // A burst is packets per burst × flits per packet long; on
            // each packet length's curve it grows with packets per burst.
            let (bursts, flits, rate) = (col(rows, 0), col(rows, 1), col(rows, 2));
            let point = |i: usize| (flits[i], bursts[i] * flits[i], rate[i]);
            let mut points: Vec<_> = (0..rows.len()).map(point).collect();
            points.sort_by(|p, q| p.partial_cmp(q).expect("no NaN"));
            let curve = |c: &[(f64, f64, f64)]| {
                let unit = format!("flits ({}-flit packets)", c[0].0);
                (unit, c.iter().map(|&(_, x, y)| (x, y)).collect())
            };
            never_falls(points.chunk_by(|p, q| p.0 == q.0).map(curve).collect())
        },
    }],
    deviations: &[Deviation {
        claim: "congestion does not fall as bursts grow longer in flits",
        evidence: "falls at [16→32 flits (2-flit packets): 0.326→0.314; 32→64 flits (2-flit \
                   packets): 0.314→0.311; 32→64 flits (4-flit packets): 0.314→0.307]",
        cause: "congestion rises up to 4–8 packets per burst and then sits on a plateau of \
                0.29–0.34 whose order is set by how few long bursts of the four traces \
                overlap, not by their length: at platform seeds 1, 2 and 3 the falls move to \
                other steps and reach 0.04. Counting blocked cycles per cycle instead of per \
                blocked-or-forwarded cycle falls at the same steps, so the metric is not the \
                cause.",
    }],
};

/// "Reaches a maximum": the last doubling of the burst adds at most
/// this share of what the first doubling added.
const FIG4_EPSILON: f64 = 0.10;

const FIG4: Figure = Figure {
    name: "fig4_latency",
    title: "Figure 4 — average latency vs packets per burst (8 flits/pkt, trace-driven)",
    columns: "packets_per_burst,mean_network_latency,max_network_latency,hot_congestion",
    comment: None,
    rows: || {
        let bursts = [1, 2, 4, 8, 16, 32, 64, 128];
        let configs: Vec<_> = bursts.iter().map(|&b| trace(8, b)).collect();
        let row = |(&b, r): (&u32, EmulationResults)| {
            let mean = r.network_latency.mean().unwrap_or(0.0);
            let max = r.network_latency.max().unwrap_or(0) as f64;
            nums([b.into(), mean, max, hot_congestion(&r)])
        };
        bursts.iter().zip(sweep(&configs)).map(row).collect()
    },
    claims: &[
        Claim {
            name: "latency does not fall with burst length",
            paper: "average latency grows with the number of packets per burst",
            check: |rows| {
                let curve = col(rows, 0).into_iter().zip(col(rows, 1)).collect();
                never_falls(vec![("packets/burst".into(), curve)])
            },
        },
        Claim {
            name: "latency saturates",
            paper: "average latency reaches a maximum, set by the congestion of the 90%-loaded \
                    links",
            check: |rows| {
                let (mean, n) = (col(rows, 1), rows.len());
                let (first, last) = (mean[1] - mean[0], mean[n - 1] - mean[n - 2]);
                let epsilon = FIG4_EPSILON * first;
                let shown = format!("first doubling {first:+.3}, last {last:+.3} cycles");
                verdict(last <= epsilon, format!("{shown}, ε {epsilon:.3}"))
            },
        },
    ],
    deviations: &[Deviation {
        claim: "latency does not fall with burst length",
        evidence: "falls at [64→128 packets/burst: 15.968→15.832]",
        cause: "from 16 packets per burst on, mean latency moves with how the four traces' \
                few long bursts overlap (hot-link congestion falls 0.344→0.337 on the same \
                step): at platform seeds 1–4 the steps past 16 packets per burst rise or fall \
                by up to 1.4 cycles.",
    }],
};

/// "Every device within ±10 % of the paper's slices."
const TABLE1_TOLERANCE: f64 = 0.10;

const TABLE1: Figure = Figure {
    name: "table1_resources",
    title: "Table 1 — FPGA reports: slices per device (target XC2VP20)",
    columns: "device,paper_slices,model_slices,rel_error",
    comment: None,
    rows: || {
        let paper = [
            ("TG stochastic", 719.0, tg_stochastic(<_>::default())),
            ("TG trace driven", 652.0, tg_trace_driven(<_>::default())),
            ("TR stochastic", 371.0, tr_stochastic(<_>::default())),
            ("TR trace driven", 690.0, tr_trace_driven(<_>::default())),
            ("Control module", 18.0, control_module()),
        ];
        let row = |(device, slices, resources): (&str, f64, _)| {
            let model = XC2VP20.slices_for(resources) as f64;
            let error = format!("{:.4}", (model - slices) / slices);
            [labeled(device, [Some(slices), Some(model)]), vec![error]].concat()
        };
        paper.into_iter().map(row).collect()
    },
    claims: &[Claim {
        name: "every device within ±10% of the paper's slices",
        paper: "Table 1: slices per TG, TR and control module on the XC2VP20",
        check: |rows| {
            let (p, m) = (col(rows, 1), col(rows, 2));
            let errors: Vec<f64> = (0..rows.len()).map(|i| (m[i] - p[i]) / p[i]).collect();
            let worst = (0..rows.len())
                .max_by(|&i, &j| errors[i].abs().total_cmp(&errors[j].abs()))
                .expect("Table 1 has devices");
            let shown = format!("worst {} {:+.1}%", rows[worst][0], 100.0 * errors[worst]);
            verdict(errors[worst].abs() <= TABLE1_TOLERANCE, shown)
        },
    }],
    deviations: &[],
};

/// Cycles per packet implied by the paper's Table 2 (16 Mpackets in
/// 3.2 s at 50 Mcycles/s).
const PAPER_CYCLES_PER_PACKET: f64 = 10.0;
/// Cycles of the endless paper platform each engine's machinery is
/// counted over.
pub(crate) const WORK_CYCLES: u64 = 4_096;
/// Timed repetitions per engine.
const TIMED_REPS: usize = 5;

/// "Emulation is faster than SystemC, which is faster than Verilog",
/// read off each engine's counted machinery per simulated cycle: the
/// faster engine does strictly less.
pub(crate) fn engine_order(ops: &[(impl fmt::Display, f64)]) -> Verdict {
    let shown: Vec<String> = ops.iter().map(|(m, o)| format!("{m} {o:.2}")).collect();
    verdict(
        ops.len() >= 2 && ops.windows(2).all(|w| w[0].1 < w[1].1),
        format!("ops/cycle {}", shown.join(" < ")),
    )
}

const TABLE2: Figure = Figure {
    name: "table2_speed",
    title: "Table 2 — simulation speed, cycles per on-CPU second (16 Mpackets = 160 Mcycles)",
    columns: "mode,cycles_per_sec,iqr,ops_per_cycle,t_16m_s,t_1000m_s",
    comment: None,
    rows: || {
        let elab = || elaborate(&endless_paper_config()).expect("paper config compiles");
        let clock_hz = synthesize(&elab(), XC2VP20).clock_mhz() * 1e6;
        let work = measure_work_per_cycle(WORK_CYCLES).expect("work counts");
        // Cycles per repetition: ≈ 100 ms of on-CPU time on each
        // engine on a 2-vCPU x86 host, 25 scheduler ticks at 250 Hz.
        let timed = [
            time_steps(&mut CompiledEngine::new(elab()), 400_000, TIMED_REPS),
            time_steps(&mut Emulation::new(elab()), 100_000, TIMED_REPS),
            time_steps(&mut TlmEngine::new(elab()), 50_000, TIMED_REPS),
            time_steps(&mut RtlEngine::new(elab()), 50_000, TIMED_REPS),
        ]
        .map(|t| t.expect("engine timing"));
        // Cycles per second, with the time 16 M and 1000 M packets take.
        let speed = |mode, cps: f64, iqr, ops| {
            let t = |packets: f64| Some(packets * PAPER_CYCLES_PER_PACKET / cps);
            labeled(mode, [Some(cps), iqr, ops, t(16e6), t(1000e6)])
        };
        let engines = [
            ("Compiled", None),
            ("Emulation (reference engine)", Some(work.emulation)),
            ("TLM (SystemC analog)", Some(work.tlm)),
            ("RTL (ModelSim analog)", Some(work.rtl)),
        ];
        let mut rows = vec![
            speed("paper: Our Emulation", 50e6, None, None),
            speed("paper: SystemC (MPARM)", 20e3, None, None),
            speed("paper: Verilog (ModelSim)", 3.2e3, None, None),
            speed("FPGA emulation (estimated clock)", clock_hz, None, None),
        ];
        for (&(mode, ops), t) in engines.iter().zip(&timed) {
            rows.push(speed(mode, t.median, Some(t.iqr), ops));
        }
        let ratio = Some(clock_hz / timed[3].median);
        let mode = "FPGA estimated clock / RTL (ModelSim analog) (paper: 15625)";
        rows.push(labeled(mode, [ratio, None, None, None, None]));
        rows
    },
    claims: &[Claim {
        name: "engine order Emulation > TLM > RTL",
        paper: "emulation is orders of magnitude faster than SystemC (MPARM), and SystemC than \
                Verilog (ModelSim)",
        check: |rows| {
            let engine = |r: &Row| Some((r[0].clone(), r[3].parse::<f64>().ok()?));
            engine_order(&rows.iter().filter_map(engine).collect::<Vec<_>>())
        },
    }],
    deviations: &[],
};

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[&[f64]]) -> Vec<Row> {
        data.iter().map(|r| nums(r.iter().copied())).collect()
    }

    fn check(figure: &Figure, claim: usize, data: &[&[f64]]) -> Verdict {
        (figure.claims[claim].check)(&rows(data))
    }

    /// Checks every claim on the figure's own rows, measured at the
    /// paper's scale, and that the README prints each deviation.
    fn holds_at_paper_scale(figure: &Figure) {
        let readme = include_str!("../../../README.md");
        for d in figure.deviations {
            assert!(
                figure.claims.iter().any(|c| c.name == d.claim),
                "{} names no claim",
                d.claim
            );
            assert!(readme.contains(d.evidence), "README lacks {:?}", d.evidence);
        }
        for verdict in figure.verdicts(&(figure.rows)()) {
            assert!(verdict.is_ok(), "{}: {}", figure.name, verdict.unwrap_err());
        }
    }

    /// Table 2's claim reads only the counted machinery, and
    /// `engine_speed_ordering_holds` checks it on the same numbers; its
    /// timed rows take ≈ 17 s in the dev profile.
    #[test]
    fn every_claim_holds_or_deviates_as_recorded() {
        for figure in [FIG2, FIG3, FIG4, TABLE1] {
            holds_at_paper_scale(&figure);
        }
    }

    #[test]
    fn figure2_claims_can_fail() {
        let linear: &[&[f64]] = &[&[1e3, 4_400.0, 4_600.0], &[2e3, 8_800.0, 9_200.0]];
        assert!(check(&FIG2, 0, linear).is_ok() && check(&FIG2, 1, linear).is_ok());
        let burst_below: &[&[f64]] = &[&[1e3, 4_400.0, 4_600.0], &[2e3, 8_800.0, 8_800.0]];
        assert!(check(&FIG2, 0, burst_below).is_err());
        let quadratic: &[&[f64]] = &[&[1e3, 4_400.0, 4_600.0], &[2e3, 17_600.0, 18_400.0]];
        assert!(check(&FIG2, 1, quadratic).is_err());
    }

    #[test]
    fn figure3_claim_reads_burst_length_in_flits() {
        let rising: &[&[f64]] = &[
            &[1.0, 2.0, 0.1],
            &[1.0, 4.0, 0.3],
            &[2.0, 2.0, 0.2],
            &[2.0, 4.0, 0.4],
        ];
        assert!(check(&FIG3, 0, rising).is_ok());
        // Falling across packet lengths at a fixed packet count is no
        // fall: a 2×2-flit burst is shorter than a 1×8-flit one.
        assert!(check(&FIG3, 0, &[&[1.0, 8.0, 0.3], &[2.0, 2.0, 0.2]]).is_ok());
        assert_eq!(
            check(&FIG3, 0, &[&[1.0, 4.0, 0.3], &[2.0, 4.0, 0.2]]),
            Err("falls at [4→8 flits (4-flit packets): 0.300→0.200]".into())
        );
    }

    fn fig4(means: &[f64]) -> Vec<Row> {
        let bursts = [1.0, 2.0, 4.0, 8.0];
        means
            .iter()
            .zip(bursts)
            .map(|(&m, b)| nums([b, m]))
            .collect()
    }

    #[test]
    fn figure4_claims_can_fail() {
        let saturating = fig4(&[10.0, 12.0, 13.0, 13.1]);
        assert!(FIG4.claims.iter().all(|c| (c.check)(&saturating).is_ok()));
        assert!((FIG4.claims[0].check)(&fig4(&[10.0, 12.0, 11.0])).is_err());
        assert!((FIG4.claims[1].check)(&fig4(&[10.0, 12.0, 13.0, 13.5])).is_err());
    }

    #[test]
    fn table_claims_can_fail() {
        assert!(check(&TABLE1, 0, &[&[0.0, 100.0, 110.0], &[1.0, 100.0, 90.0]]).is_ok());
        assert!(check(&TABLE1, 0, &[&[0.0, 100.0, 100.0], &[1.0, 100.0, 111.0]]).is_err());
        assert!(engine_order(&[("a", 1.0), ("b", 2.0), ("c", 3.0)]).is_ok());
        assert!(engine_order(&[("a", 1.0), ("b", 3.0), ("c", 2.0)]).is_err());
        assert!(engine_order(&[("a", 1.0), ("b", 1.0)]).is_err());
    }

    #[test]
    fn a_deviation_that_no_longer_matches_fails() {
        let recorded = FIG4.deviations[0].evidence;
        // The claim holds: the recorded deviation is stale.
        let rising = FIG4.verdicts(&fig4(&[10.0, 12.0, 13.0, 13.1]));
        assert!(rising[0].as_ref().is_err_and(|e| e.contains(recorded)));
        // The claim fails elsewhere than recorded.
        let other = FIG4.verdicts(&fig4(&[10.0, 12.0, 11.0, 11.1]));
        assert!(other[0].as_ref().is_err_and(|e| e.starts_with("STALE")));
    }
}
