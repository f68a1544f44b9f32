//! Stall forensics: a deliberately credit-starved platform (finite
//! ejection credits that receptors never return) must trip the
//! watchdog on all four engines — it lives in the shared step skeleton
//! — and produce a blame chain naming the concrete starved (link, VC);
//! a healthy saturating run must never trip it.

use nocem::clock::SteppableEngine;
use nocem::compile::elaborate;
use nocem::compiled::CompiledEngine;
use nocem::config::PlatformConfig;
use nocem::engine::build;
use nocem::profile::{ProfileConfig, StallReport, WaitDest};
use nocem_rtl::model::RtlEngine;
use nocem_scenarios::registry::ScenarioRegistry;
use nocem_scenarios::scenario::TopologySpec;
use nocem_telemetry::validate_json;
use nocem_tlm::model::TlmEngine;

const MESH4X4: TopologySpec = TopologySpec::Mesh {
    width: 4,
    height: 4,
};

fn uniform(load: f64, packets: u64) -> PlatformConfig {
    ScenarioRegistry::builtin()
        .resolve("uniform_random")
        .unwrap()
        .build_config(MESH4X4, load, 4, packets)
        .unwrap()
}

/// Ejection ports get 2 credits that no receptor ever returns: after
/// two flits eject per (port, VC) the port wedges, traffic piles up
/// behind it, and the ledger stops moving with packets in flight.
fn starved_config() -> PlatformConfig {
    let mut cfg = uniform(0.40, 10_000);
    cfg.switch.ejection_credits = Some(2);
    cfg.profile = Some(ProfileConfig::default().with_stall(200));
    cfg
}

/// Steps the engine until the watchdog latches (bounded), then
/// returns a clone of the report.
fn run_to_stall(engine: &mut dyn SteppableEngine) -> StallReport {
    for _ in 0..5_000 {
        engine.step().expect("stepping a wedged run is still legal");
        if engine.stall_report().is_some() {
            break;
        }
    }
    engine
        .stall_report()
        .expect("credit starvation must trip the watchdog within 5000 cycles")
        .clone()
}

fn assert_blames_starved_ejection(report: &StallReport) {
    assert!(report.in_flight > 0, "stall implies packets in flight");
    assert!(report.window >= 200);
    assert!(report.starved_count() > 0, "no credit-starved edges");
    // The blame chain starts at the worst starved edge and follows
    // the worm downstream until it hits the root cause: the wedged
    // ejection port, zero credits left of its cap of 2.
    let head = report
        .chain_edges()
        .next()
        .expect("chain must be non-empty");
    assert!(head.starved(), "chain head must be credit-starved");
    let culprit = report
        .chain_edges()
        .last()
        .expect("chain must be non-empty");
    assert!(
        matches!(culprit.dest, WaitDest::Receptor { .. }),
        "the chain must terminate at an ejection port, got {:?}",
        culprit.dest
    );
    assert_eq!(culprit.credits, 0);
    assert_eq!(culprit.credit_cap, 2, "the fixture's ejection credit cap");
    // The rendered blame chain names that (link, VC) concretely.
    let text = report.render();
    assert!(text.contains("blame chain"));
    assert!(
        text.contains(&format!("vc{} link{}", culprit.out_vc, culprit.link)),
        "report must name the starved (link, VC):\n{text}"
    );
    assert!(text.contains("(ejection)"), "and its receptor end:\n{text}");
    // Every JSONL line is a valid JSON object.
    let jsonl = report.to_jsonl();
    assert!(jsonl.lines().count() > 1);
    for line in jsonl.lines() {
        validate_json(line).unwrap();
    }
    assert!(jsonl.contains(&format!("\"link\":{}", culprit.link)));
}

#[test]
fn starved_fixture_trips_the_watchdog_on_emulation() {
    let cfg = starved_config();
    let mut engine = build(&cfg).unwrap();
    let report = run_to_stall(&mut engine);
    assert_blames_starved_ejection(&report);
}

#[test]
fn starved_fixture_trips_the_watchdog_on_the_compiled_engine() {
    let cfg = starved_config();
    let mut engine = CompiledEngine::new(elaborate(&cfg).unwrap());
    let report = run_to_stall(&mut engine);
    assert_blames_starved_ejection(&report);

    // Both engines wedge identically: the emulation reference trips
    // at the same cycle with the same blame chain.
    let mut reference = build(&cfg).unwrap();
    let ref_report = run_to_stall(&mut reference);
    assert_eq!(report.at_cycle, ref_report.at_cycle);
    assert_eq!(report.edges, ref_report.edges);
    assert_eq!(report.chain, ref_report.chain);
}

/// The TLM and RTL models wedge like the fast engine: the whole report
/// is equal — trip cycle, wait-for edges, blame chain, blocked links.
/// Their wait-for edges read the switches as if every flit and credit
/// still on a channel or a wire had landed, which is the state the fast
/// engine holds at the same cycle.
#[test]
fn starved_fixture_trips_the_watchdog_identically_on_tlm_and_rtl() {
    let cfg = starved_config();
    let reference = run_to_stall(&mut build(&cfg).unwrap());
    let legs: [(&str, Box<dyn SteppableEngine>); 2] = [
        ("tlm", Box::new(TlmEngine::new(elaborate(&cfg).unwrap()))),
        ("rtl", Box::new(RtlEngine::new(elaborate(&cfg).unwrap()))),
    ];
    for (name, mut engine) in legs {
        let report = run_to_stall(engine.as_mut());
        assert_blames_starved_ejection(&report);
        assert_eq!(report, reference, "{name} stall report");
    }
}

/// A healthy run at a saturating load makes slow-but-steady progress:
/// the watchdog must stay quiet even with a small window.
#[test]
fn healthy_saturating_run_does_not_trip() {
    let mut cfg = uniform(0.90, 2_000);
    cfg.profile = Some(ProfileConfig::default().with_stall(200));
    let mut engine = CompiledEngine::new(elaborate(&cfg).unwrap());
    nocem::run_engine(&mut engine).unwrap();
    assert!(
        engine.stall_report().is_none(),
        "a draining run must never trip the watchdog"
    );
    assert!(engine.summary().delivered > 0);
}
