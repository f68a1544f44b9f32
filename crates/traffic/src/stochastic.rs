//! Stochastic traffic models: uniform, burst (2-state Markov chain)
//! and Poisson.
//!
//! These are the paper's stochastic TGs (slide 9):
//!
//! * **Uniform** — parameterized by packet length and the interval
//!   between packets;
//! * **Burst** — parameterized by the transition probabilities of a
//!   2-state Markov chain (idle ↔ burst); inside a burst, packets
//!   leave back-to-back;
//! * **Poisson** — memoryless packet starts (geometric gaps in
//!   discrete time), the "other models" the paper mentions.
//!
//! All three share the same skeleton: after releasing a packet of `L`
//! flits the generator cools down for `L - 1` cycles (the network
//! interface is busy serializing), then the model decides how long to
//! stay idle. Offered load is therefore `E[L] / E[spacing]`, and each
//! config exposes a `with_load` constructor that inverts this relation
//! the way the paper's software sets up its 45 % experiments.
//!
//! Idle gaps are **predrawn**: instead of flipping a Bernoulli coin on
//! every eligible idle cycle, the generator draws the same coin-flip
//! sequence eagerly at release time and folds the run of failures into
//! its cooldown. The RNG stream — and therefore the release stream —
//! is bit-identical to the per-cycle formulation, but the next release
//! cycle becomes known in advance, which lets clock-gated runs skip
//! burst/Poisson idle phases instead of pinning the clock.

use crate::generator::{
    DestinationModel, LengthModel, NextEvent, PacketRequest, TgKind, TrafficGenerator,
};
use nocem_common::rng::{Pcg32, RandomSource};
use nocem_common::time::Cycle;

/// Configuration of a uniform TG.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformConfig {
    /// Packet length model.
    pub length: LengthModel,
    /// Inter-packet gap (cycles *beyond* the serialization time),
    /// drawn uniformly from this inclusive range.
    pub gap: (u32, u32),
    /// Total packets to release (`None` = unbounded).
    pub budget: Option<u64>,
    /// Destination selection.
    pub destination: DestinationModel,
}

impl UniformConfig {
    /// Derives the gap range for a target offered load (fraction of
    /// link bandwidth, `0 < load <= 1`) with the given fixed packet
    /// length. The gap jitters ±50 % around its mean, preserving the
    /// mean load.
    ///
    /// # Panics
    ///
    /// Panics if `load` is out of `(0, 1]` or `len_flits == 0`.
    pub fn with_load(
        load: f64,
        len_flits: u16,
        budget: Option<u64>,
        destination: DestinationModel,
    ) -> Self {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
        assert!(len_flits >= 1, "packet length must be at least one flit");
        let l = f64::from(len_flits);
        // spacing = L + gap  =>  gap = L (1 - load) / load.
        let gap_mean = l * (1.0 - load) / load;
        let lo = (gap_mean * 0.5).floor() as u32;
        let hi = (gap_mean * 1.5).ceil() as u32;
        UniformConfig {
            length: LengthModel::Fixed(len_flits),
            gap: (lo, hi.max(lo)),
            budget,
            destination,
        }
    }

    /// Offered load implied by this configuration.
    pub fn offered_load(&self) -> f64 {
        let l = self.length.mean();
        let gap_mean = (f64::from(self.gap.0) + f64::from(self.gap.1)) / 2.0;
        l / (l + gap_mean)
    }
}

/// Configuration of a burst (2-state Markov) TG.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstConfig {
    /// Packet length model.
    pub length: LengthModel,
    /// Probability (per eligible idle cycle) of starting a burst —
    /// the idle→burst transition of the Markov chain.
    pub start_probability: f64,
    /// Probability of continuing the burst after each packet — the
    /// burst→burst self-transition. Expected burst length is
    /// `1 / (1 - continue_probability)` packets.
    pub continue_probability: f64,
    /// Total packets to release (`None` = unbounded).
    pub budget: Option<u64>,
    /// Destination selection.
    pub destination: DestinationModel,
}

impl BurstConfig {
    /// Derives Markov parameters for a target offered load and mean
    /// burst length (in packets), with a fixed packet length.
    ///
    /// Within a burst, packets are back-to-back (the link is saturated
    /// for `burst_packets * len_flits` cycles); the idle→burst
    /// probability is then solved so that the long-run offered load is
    /// `load`.
    ///
    /// # Panics
    ///
    /// Panics if `load` is out of `(0, 1)`, `burst_packets == 0` or
    /// `len_flits == 0`.
    pub fn with_load(
        load: f64,
        burst_packets: u32,
        len_flits: u16,
        budget: Option<u64>,
        destination: DestinationModel,
    ) -> Self {
        assert!(load > 0.0 && load < 1.0, "load must be in (0, 1)");
        assert!(
            burst_packets >= 1,
            "burst length must be at least one packet"
        );
        assert!(len_flits >= 1, "packet length must be at least one flit");
        let b = f64::from(burst_packets);
        let l = f64::from(len_flits);
        let continue_probability = 1.0 - 1.0 / b;
        // Mean spacing: S = L + (1 - beta) * E[extra idle]
        //             = L + (1/B) * (1 - alpha)/alpha.
        // Solve S = L / load for alpha.
        let alpha = load / (b * l * (1.0 - load) + load);
        BurstConfig {
            length: LengthModel::Fixed(len_flits),
            start_probability: alpha,
            continue_probability,
            budget,
            destination,
        }
    }

    /// Long-run offered load implied by this configuration (assumes a
    /// fixed-length packet model).
    pub fn offered_load(&self) -> f64 {
        let l = self.length.mean();
        let extra = (1.0 - self.continue_probability) * (1.0 - self.start_probability)
            / self.start_probability;
        l / (l + extra)
    }

    /// Expected burst length in packets.
    pub fn mean_burst_packets(&self) -> f64 {
        1.0 / (1.0 - self.continue_probability)
    }
}

/// Configuration of a Poisson TG (geometric inter-arrival gaps).
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonConfig {
    /// Packet length model.
    pub length: LengthModel,
    /// Per-cycle packet-start probability once eligible.
    pub start_probability: f64,
    /// Total packets to release (`None` = unbounded).
    pub budget: Option<u64>,
    /// Destination selection.
    pub destination: DestinationModel,
}

impl PoissonConfig {
    /// Derives the start probability for a target offered load with a
    /// fixed packet length.
    ///
    /// # Panics
    ///
    /// Panics if `load` is out of `(0, 1)` or `len_flits == 0`.
    pub fn with_load(
        load: f64,
        len_flits: u16,
        budget: Option<u64>,
        destination: DestinationModel,
    ) -> Self {
        assert!(load > 0.0 && load < 1.0, "load must be in (0, 1)");
        assert!(len_flits >= 1, "packet length must be at least one flit");
        let l = f64::from(len_flits);
        let p = load / (l * (1.0 - load) + load);
        PoissonConfig {
            length: LengthModel::Fixed(len_flits),
            start_probability: p,
            budget,
            destination,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Inside a burst: the next packet starts as soon as the cooldown
    /// expires.
    Burst,
    /// The idle gap has been predrawn into the cooldown: the next
    /// packet starts deterministically when the cooldown expires.
    Armed,
    /// The model will never start another packet
    /// (`start_probability <= 0`).
    Dead,
}

/// The shared stochastic TG engine. Which paper model it realizes
/// depends on the constructor used.
#[derive(Debug, Clone)]
pub struct StochasticTg {
    length: LengthModel,
    destination: DestinationModel,
    /// Idle→release probability per eligible cycle (`alpha`).
    start_probability: f64,
    /// Release→burst-continuation probability (`beta`, 0 for
    /// uniform/Poisson).
    continue_probability: f64,
    /// Uniform extra gap drawn after leaving a burst (uniform model);
    /// `None` uses the geometric draw implied by `start_probability`.
    uniform_gap: Option<(u32, u32)>,
    budget: Option<u64>,
    phase: Phase,
    /// Cycles that must elapse before the next release is possible.
    cooldown: u32,
    rng: Pcg32,
    released: u64,
}

impl StochasticTg {
    /// Builds a uniform TG.
    pub fn uniform(config: UniformConfig, seed: u64) -> Self {
        let mut tg = StochasticTg {
            length: config.length,
            destination: config.destination,
            start_probability: 1.0, // release exactly when the gap expires
            continue_probability: 0.0,
            uniform_gap: Some(config.gap),
            budget: config.budget,
            phase: Phase::Armed,
            cooldown: 0,
            rng: Pcg32::seeded(seed),
            released: 0,
        };
        tg.predraw_idle_gap();
        tg
    }

    /// Builds a burst (2-state Markov) TG.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are outside `[0, 1]`.
    pub fn burst(config: BurstConfig, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&config.start_probability));
        assert!((0.0..=1.0).contains(&config.continue_probability));
        let mut tg = StochasticTg {
            length: config.length,
            destination: config.destination,
            start_probability: config.start_probability,
            continue_probability: config.continue_probability,
            uniform_gap: None,
            budget: config.budget,
            phase: Phase::Armed,
            cooldown: 0,
            rng: Pcg32::seeded(seed),
            released: 0,
        };
        tg.predraw_idle_gap();
        tg
    }

    /// Builds a Poisson TG.
    ///
    /// # Panics
    ///
    /// Panics if the probability is outside `[0, 1]`.
    pub fn poisson(config: PoissonConfig, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&config.start_probability));
        let mut tg = StochasticTg {
            length: config.length,
            destination: config.destination,
            start_probability: config.start_probability,
            continue_probability: 0.0,
            uniform_gap: None,
            budget: config.budget,
            phase: Phase::Armed,
            cooldown: 0,
            rng: Pcg32::seeded(seed),
            released: 0,
        };
        tg.predraw_idle_gap();
        tg
    }

    /// Predraws the idle-phase Bernoulli sequence: folds the failed
    /// per-cycle start trials an every-cycle run would draw after the
    /// cooldown expires into the cooldown itself, leaving a
    /// deterministic release cycle ([`Phase::Armed`]).
    ///
    /// The RNG stream is bit-identical to the per-cycle model's:
    /// exactly the trials that would have been drawn on the eligible
    /// idle cycles are drawn here, in the same order, and `chance`
    /// with `p >= 1` or `p <= 0` draws nothing in either version. An
    /// exhausted model never ticks its RNG again, so no trial is
    /// predrawn past the final release.
    fn predraw_idle_gap(&mut self) {
        if self.is_exhausted() || self.start_probability <= 0.0 {
            self.phase = Phase::Dead;
            return;
        }
        while !self.rng.chance(self.start_probability) {
            self.cooldown += 1;
        }
        self.phase = Phase::Armed;
    }

    fn release(&mut self) -> PacketRequest {
        let len = self.length.draw(&mut self.rng);
        let (dst, flow) = self.destination.pick(&mut self.rng);
        self.released += 1;
        // The NI serializes for `len` cycles; the next release can
        // happen `len` cycles from now at the earliest.
        self.cooldown = u32::from(len) - 1;
        // Markov transition after the packet.
        if self.rng.chance(self.continue_probability) {
            self.phase = Phase::Burst;
        } else {
            if let Some((lo, hi)) = self.uniform_gap {
                // Uniform model: predraw the whole extra gap.
                self.cooldown += self.rng.in_range(lo, hi);
            }
            self.predraw_idle_gap();
        }
        PacketRequest {
            dst,
            flow,
            len_flits: len,
        }
    }
}

impl TrafficGenerator for StochasticTg {
    fn tick(&mut self, _now: Cycle) -> Option<PacketRequest> {
        if self.is_exhausted() {
            return None;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        match self.phase {
            Phase::Burst | Phase::Armed => Some(self.release()),
            Phase::Dead => None,
        }
    }

    fn remaining(&self) -> Option<u64> {
        self.budget.map(|b| b.saturating_sub(self.released))
    }

    fn kind(&self) -> TgKind {
        TgKind::Stochastic
    }

    /// Every idle gap — the uniform inter-packet gap and the geometric
    /// burst/Poisson idle phases alike — is predrawn into the cooldown
    /// at release time, so ticks strictly before `now + cooldown` are
    /// pure countdowns: the next release cycle is exact and low-load
    /// runs of every stochastic model are almost entirely skippable.
    fn next_event_cycle(&self, now: Cycle) -> NextEvent {
        if self.is_exhausted() || self.phase == Phase::Dead {
            NextEvent::Never
        } else {
            NextEvent::At(now + u64::from(self.cooldown))
        }
    }

    fn skip_to(&mut self, now: Cycle, target: Cycle) {
        if self.is_exhausted() {
            // Exhausted ticks bail out before the cooldown countdown,
            // so the skipped window leaves the (now meaningless)
            // cooldown untouched, exactly like ticking would.
            return;
        }
        let skipped = target - now;
        if self.phase == Phase::Dead {
            // A dead model only counts its serializer cooldown down and
            // then ticks as a no-op forever; it reports `Never`, so the
            // engine may jump arbitrarily far past the cooldown.
            let skipped = u32::try_from(skipped).unwrap_or(u32::MAX);
            self.cooldown = self.cooldown.saturating_sub(skipped);
            return;
        }
        debug_assert!(
            skipped <= u64::from(self.cooldown),
            "skip past the cooldown would swallow RNG draws"
        );
        self.cooldown -= skipped as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_common::ids::{EndpointId, FlowId};

    fn fixed_dst() -> DestinationModel {
        DestinationModel::Fixed {
            dst: EndpointId::new(1),
            flow: FlowId::new(0),
        }
    }

    /// Ticks the generator for `cycles` cycles; returns release times
    /// and total flits.
    fn run(tg: &mut dyn TrafficGenerator, cycles: u64) -> (Vec<u64>, u64) {
        let mut releases = Vec::new();
        let mut flits = 0;
        for t in 0..cycles {
            if let Some(req) = tg.tick(Cycle::new(t)) {
                releases.push(t);
                flits += u64::from(req.len_flits);
            }
        }
        (releases, flits)
    }

    #[test]
    fn uniform_respects_budget() {
        let cfg = UniformConfig {
            length: LengthModel::Fixed(4),
            gap: (0, 0),
            budget: Some(5),
            destination: fixed_dst(),
        };
        let mut tg = StochasticTg::uniform(cfg, 1);
        let (rel, flits) = run(&mut tg, 1000);
        assert_eq!(rel.len(), 5);
        assert_eq!(flits, 20);
        assert!(tg.is_exhausted());
        assert_eq!(tg.remaining(), Some(0));
    }

    #[test]
    fn uniform_zero_gap_is_back_to_back() {
        let cfg = UniformConfig {
            length: LengthModel::Fixed(3),
            gap: (0, 0),
            budget: Some(4),
            destination: fixed_dst(),
        };
        let mut tg = StochasticTg::uniform(cfg, 1);
        let (rel, _) = run(&mut tg, 100);
        assert_eq!(rel, vec![0, 3, 6, 9], "spacing equals packet length");
    }

    #[test]
    fn uniform_with_load_hits_target() {
        let cfg = UniformConfig::with_load(0.45, 8, None, fixed_dst());
        assert!((cfg.offered_load() - 0.45).abs() < 0.02);
        let mut tg = StochasticTg::uniform(cfg, 7);
        // Long-run measured load.
        let horizon = 200_000;
        let (_rel, flits) = run(&mut tg, horizon);
        let measured = flits as f64 / horizon as f64;
        assert!(
            (measured - 0.45).abs() < 0.03,
            "measured uniform load {measured}"
        );
    }

    #[test]
    fn burst_with_load_hits_target() {
        let cfg = BurstConfig::with_load(0.45, 8, 8, None, fixed_dst());
        assert!((cfg.offered_load() - 0.45).abs() < 0.02);
        assert!((cfg.mean_burst_packets() - 8.0).abs() < 1e-9);
        let mut tg = StochasticTg::burst(cfg, 11);
        let horizon = 400_000;
        let (_rel, flits) = run(&mut tg, horizon);
        let measured = flits as f64 / horizon as f64;
        assert!(
            (measured - 0.45).abs() < 0.03,
            "measured burst load {measured}"
        );
    }

    #[test]
    fn burst_packets_are_back_to_back_within_burst() {
        // continue_probability 1.0: one endless burst.
        let cfg = BurstConfig {
            length: LengthModel::Fixed(5),
            start_probability: 1.0,
            continue_probability: 1.0,
            budget: Some(10),
            destination: fixed_dst(),
        };
        let mut tg = StochasticTg::burst(cfg, 3);
        let (rel, _) = run(&mut tg, 200);
        let gaps: Vec<u64> = rel.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().all(|&g| g == 5), "gaps {gaps:?}");
    }

    #[test]
    fn burstiness_creates_longer_quiet_periods_than_uniform() {
        // Same 30% load; burst model must show a larger maximum gap.
        let u = UniformConfig::with_load(0.3, 4, None, fixed_dst());
        let b = BurstConfig::with_load(0.3, 16, 4, None, fixed_dst());
        let mut utg = StochasticTg::uniform(u, 5);
        let mut btg = StochasticTg::burst(b, 5);
        let horizon = 100_000;
        let (ur, _) = run(&mut utg, horizon);
        let (br, _) = run(&mut btg, horizon);
        let max_gap = |rel: &[u64]| rel.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        assert!(
            max_gap(&br) > 2 * max_gap(&ur),
            "burst max gap {} vs uniform {}",
            max_gap(&br),
            max_gap(&ur)
        );
    }

    #[test]
    fn poisson_load_matches_target() {
        let cfg = PoissonConfig::with_load(0.3, 6, None, fixed_dst());
        let mut tg = StochasticTg::poisson(cfg, 13);
        let horizon = 300_000;
        let (_, flits) = run(&mut tg, horizon);
        let measured = flits as f64 / horizon as f64;
        assert!(
            (measured - 0.3).abs() < 0.02,
            "measured poisson load {measured}"
        );
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mk = || {
            StochasticTg::burst(
                BurstConfig::with_load(0.4, 4, 4, Some(100), fixed_dst()),
                42,
            )
        };
        let mut a = mk();
        let mut b = mk();
        let (ra, _) = run(&mut a, 10_000);
        let (rb, _) = run(&mut b, 10_000);
        assert_eq!(ra, rb);
    }

    #[test]
    fn kind_is_stochastic() {
        let tg = StochasticTg::poisson(PoissonConfig::with_load(0.1, 2, None, fixed_dst()), 1);
        assert_eq!(tg.kind(), TgKind::Stochastic);
        assert_eq!(tg.remaining(), None);
    }

    #[test]
    fn uniform_next_event_is_the_release_cycle() {
        // Gap (5, 5): releases at 0, 8, 16, ... for 3-flit packets.
        let cfg = UniformConfig {
            length: LengthModel::Fixed(3),
            gap: (5, 5),
            budget: Some(3),
            destination: fixed_dst(),
        };
        let mut tg = StochasticTg::uniform(cfg, 1);
        assert_eq!(tg.next_event_cycle(Cycle::ZERO), NextEvent::At(Cycle::ZERO));
        assert!(tg.tick(Cycle::ZERO).is_some());
        // Cooldown is now 2 + 5 = 7: next release at cycle 8.
        assert_eq!(
            tg.next_event_cycle(Cycle::new(1)),
            NextEvent::At(Cycle::new(8))
        );
        // Skipping the whole window and ticking at 8 releases exactly
        // like ticking every cycle would.
        tg.skip_to(Cycle::new(1), Cycle::new(8));
        assert!(tg.tick(Cycle::new(8)).is_some());
        tg.skip_to(Cycle::new(9), Cycle::new(16));
        assert!(tg.tick(Cycle::new(16)).is_some());
        assert!(tg.is_exhausted());
        assert_eq!(tg.next_event_cycle(Cycle::new(17)), NextEvent::Never);
    }

    #[test]
    fn skipped_uniform_run_matches_every_cycle_run() {
        assert_skipped_run_matches_every_cycle_run(|| {
            StochasticTg::uniform(UniformConfig::with_load(0.05, 4, Some(40), fixed_dst()), 17)
        });
    }

    #[test]
    fn burst_idle_gap_is_predrawn_and_skippable() {
        // The idle-phase Bernoulli run is predrawn into the cooldown,
        // so `next_event_cycle` names the exact release cycle — which a
        // per-cycle reference run of the same seed must agree with.
        let mk =
            || StochasticTg::burst(BurstConfig::with_load(0.2, 4, 4, Some(10), fixed_dst()), 3);
        let mut reference = mk();
        let (releases, _) = run(&mut reference, 10_000);
        let first = releases[0];
        let tg = mk();
        assert_eq!(
            tg.next_event_cycle(Cycle::ZERO),
            NextEvent::At(Cycle::new(first)),
            "predrawn next event must be the first release cycle"
        );
        // Jumping straight to it releases, like ticking every cycle.
        let mut gated = mk();
        gated.skip_to(Cycle::ZERO, Cycle::new(first));
        assert!(gated.tick(Cycle::new(first)).is_some());
    }

    /// Gated-style skipping over the predrawn gaps must reproduce the
    /// per-cycle release stream exactly. Every gap is skipped in two
    /// legs, so the composition contract (`skip_to(a, b); skip_to(b, c)`
    /// ≡ `skip_to(a, c)`, the event cycle unmoved) is what is checked.
    fn assert_skipped_run_matches_every_cycle_run(mk: impl Fn() -> StochasticTg) {
        let mut plain = mk();
        let (expected, _) = run(&mut plain, 100_000);
        assert!(!expected.is_empty(), "model never released");
        let mut gated = mk();
        let mut releases = Vec::new();
        let mut now = Cycle::ZERO;
        while let NextEvent::At(next) = gated.next_event_cycle(now) {
            if next > now {
                let mid = now + (next - now) / 2;
                gated.skip_to(now, mid);
                assert_eq!(gated.next_event_cycle(mid), NextEvent::At(next));
                gated.skip_to(mid, next);
                now = next;
            }
            if gated.tick(now).is_some() {
                releases.push(now.raw());
            }
            now = now.next();
            assert!(now.raw() < 200_000, "runaway");
        }
        assert_eq!(releases, expected, "gated release stream diverged");
    }

    #[test]
    fn skipped_burst_run_matches_every_cycle_run() {
        assert_skipped_run_matches_every_cycle_run(|| {
            StochasticTg::burst(
                BurstConfig::with_load(0.05, 4, 4, Some(40), fixed_dst()),
                17,
            )
        });
    }

    #[test]
    fn skipped_poisson_run_matches_every_cycle_run() {
        assert_skipped_run_matches_every_cycle_run(|| {
            StochasticTg::poisson(PoissonConfig::with_load(0.05, 4, Some(40), fixed_dst()), 23)
        });
    }

    #[test]
    fn zero_start_probability_reports_never() {
        // chance(p <= 0) never draws and never fires: the model is
        // dead and must not pin a gated clock.
        let cfg = BurstConfig {
            length: LengthModel::Fixed(4),
            start_probability: 0.0,
            continue_probability: 0.0,
            budget: Some(10),
            destination: fixed_dst(),
        };
        let mut tg = StochasticTg::burst(cfg, 3);
        assert_eq!(tg.next_event_cycle(Cycle::ZERO), NextEvent::Never);
        assert!(tg.tick(Cycle::ZERO).is_none());
        // Engines may jump arbitrarily far; ticking afterwards is
        // still a no-op.
        tg.skip_to(Cycle::new(1), Cycle::new(1_000_000));
        assert!(tg.tick(Cycle::new(1_000_000)).is_none());
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn with_load_validates_range() {
        UniformConfig::with_load(0.0, 4, None, fixed_dst());
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn burst_load_validates_range() {
        BurstConfig::with_load(1.0, 4, 4, None, fixed_dst());
    }
}
