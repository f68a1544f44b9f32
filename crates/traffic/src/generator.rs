//! The traffic generator contract.
//!
//! A traffic generator (TG) is the stimulus side of the emulation
//! platform: each cycle it may *release* one packet request, which the
//! network interface then serializes into flits. The paper's platform
//! offers stochastic TGs (uniform, burst, Poisson — all parameterized
//! through "a bench of registers") and trace-driven TGs; all implement
//! [`TrafficGenerator`].
//!
//! A TG releases **at most one packet per cycle**: a single network
//! interface cannot start two packets simultaneously, and trace events
//! that share a timestamp are serialized by the source queue.

use nocem_common::flows::Row;
use nocem_common::ids::{EndpointId, FlowId};
use nocem_common::rng::{Pcg32, RandomSource};
use nocem_common::time::Cycle;
use std::sync::Arc;

/// A packet the traffic model wants to send (before id assignment and
/// flit serialization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRequest {
    /// Destination endpoint.
    pub dst: EndpointId,
    /// Flow used for routing.
    pub flow: FlowId,
    /// Packet length in flits (`>= 1`).
    pub len_flits: u16,
}

/// Which device flavour a generator is (drives the FPGA area model and
/// the report labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TgKind {
    /// Stochastic TG (uniform / burst / Poisson models).
    Stochastic,
    /// Trace-driven TG.
    TraceDriven,
}

impl std::fmt::Display for TgKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TgKind::Stochastic => "TG stochastic",
            TgKind::TraceDriven => "TG trace driven",
        })
    }
}

/// When a traffic generator next needs its clock — the generator half
/// of the platform's quiescence/next-event protocol (clock gating à la
/// EmuNoC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextEvent {
    /// The generator will never need another tick (exhausted).
    Never,
    /// The earliest cycle (`>=` the `now` it was queried at) whose tick
    /// is *not* a pure no-op. Ticks strictly before this cycle change
    /// no observable state beyond internal countdowns, which
    /// [`TrafficGenerator::skip_to`] compensates exactly.
    At(Cycle),
}

impl NextEvent {
    /// The event cycle, or `u64::MAX` for [`NextEvent::Never`] (the
    /// identity of the `min` the fast-forward kernel takes).
    pub fn cycle_or_max(self) -> u64 {
        match self {
            NextEvent::Never => u64::MAX,
            NextEvent::At(c) => c.raw(),
        }
    }
}

/// A source of packet releases, clocked once per platform cycle.
///
/// Implementations must be deterministic functions of their seed and
/// tick sequence — the cross-engine equivalence tests tick the same
/// generator configuration in all three engines and require identical
/// release streams.
///
/// # Clock gating
///
/// [`TrafficGenerator::next_event_cycle`] and
/// [`TrafficGenerator::skip_to`] let an engine jump its clock over
/// cycles whose ticks are provably pure no-ops. The contract is
/// exactness, not usefulness: a model that draws randomness on
/// eligible cycles must either report `At(now)` so no draw is ever
/// skipped, or predraw those trials (the stochastic models fold their
/// idle-gap Bernoulli runs into the cooldown at release time) — the
/// default implementations are always safe, merely never skippable.
pub trait TrafficGenerator {
    /// Advances one cycle; returns the packet released this cycle, if
    /// any.
    fn tick(&mut self, now: Cycle) -> Option<PacketRequest>;

    /// Packets this generator still intends to release; `None` means
    /// unbounded.
    fn remaining(&self) -> Option<u64>;

    /// Device flavour (for synthesis reports).
    fn kind(&self) -> TgKind;

    /// Whether the generator will never release another packet.
    fn is_exhausted(&self) -> bool {
        self.remaining() == Some(0)
    }

    /// The earliest cycle at which ticking this generator is not a
    /// pure no-op, given the current cycle `now` (about to be ticked).
    ///
    /// Returning [`NextEvent::At`]`(now)` forbids any skip; the
    /// default does exactly that for live generators, so models that
    /// do not opt into gating are never skipped over.
    fn next_event_cycle(&self, now: Cycle) -> NextEvent {
        if self.is_exhausted() {
            NextEvent::Never
        } else {
            NextEvent::At(now)
        }
    }

    /// Replays the pure-no-op ticks of the half-open window
    /// `[now, target)` in one jump, so that the next real tick at
    /// `target` observes exactly the state an every-cycle run would
    /// have produced.
    ///
    /// Engines only call this with `target` no later than this
    /// generator's [`TrafficGenerator::next_event_cycle`]; the default
    /// is a no-op, correct for any model whose skipped ticks carry no
    /// state (trace replay, exhausted models).
    ///
    /// Skips compose: `skip_to(a, b); skip_to(b, c)` must leave the
    /// generator in exactly the state `skip_to(a, c)` does, and a skip
    /// must not move the cycle `next_event_cycle` reports. Engines
    /// rely on both to synchronise lazily: a generator that sat out
    /// any number of deferred ticks and clock-gated jumps is replayed
    /// with one call spanning all of them, right before its next real
    /// tick, and the clock jumps to the earliest event without
    /// touching any generator.
    fn skip_to(&mut self, now: Cycle, target: Cycle) {
        let _ = (now, target);
    }
}

/// How a generator chooses the destination (and therefore the flow) of
/// each packet.
///
/// The two list forms spell their options out; the two *row* forms
/// name one [`Row`] of an all-but-self flow set instead
/// (`nocem_common::flows`) — what uniform-random and hotspot traffic
/// use, whose lists would be one entry per other node in every
/// generator. A row form draws exactly what the list form of the same
/// options draws ([`DestinationModel::to_listed`] is that list), so the
/// two are interchangeable packet for packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DestinationModel {
    /// Every packet goes to the same destination over the same flow —
    /// the paper setup's configuration.
    Fixed {
        /// Destination endpoint.
        dst: EndpointId,
        /// Flow id registered for (src, dst).
        flow: FlowId,
    },
    /// Uniform-random choice among the listed (destination, flow)
    /// pairs (nearest-neighbour traffic, hand-written configurations).
    UniformChoice(Vec<(EndpointId, FlowId)>),
    /// Weighted choice among `(destination, flow, weight)` triples —
    /// the destination-distribution hook used by the scenario
    /// subsystem (core-graph bandwidth shares).
    ///
    /// Weights are relative integers; a destination is drawn with
    /// probability `weight / total_weight`. Zero-weight entries are
    /// legal and never drawn (they still register their flow).
    Weighted(Vec<(EndpointId, FlowId, u32)>),
    /// Uniform-random choice among the options of a row: every sink of
    /// the set but the source's own (synthetic uniform-random traffic).
    /// The same single draw as [`DestinationModel::UniformChoice`] over
    /// the row's `n − 1` pairs.
    UniformRow(Row),
    /// Weighted choice among the options of a row: a few *hot* sinks
    /// at one weight, every other at weight 1 (synthetic hotspot
    /// traffic). The same single draw as
    /// [`DestinationModel::Weighted`] over the row's triples, resolved
    /// in `O(hot sinks)` instead of a walk over every option.
    WeightedRow(HotRow),
}

/// A [`Row`] whose options are weighted: the sinks in a hot set carry
/// `weight`, every other sink carries 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotRow {
    row: Row,
    /// Indices (into the set's sinks) of the hot sinks, ascending. The
    /// row's own sink may be among them: it is no option of the row.
    hot: Arc<[u32]>,
    weight: u32,
}

impl HotRow {
    /// `row` with the sinks at indices `hot` drawn `weight` times as
    /// often as the others (`weight` 0 never draws them, 1 is
    /// uniform). One `hot` list serves every row of a set.
    ///
    /// # Panics
    ///
    /// Panics unless `hot` is strictly ascending and within the set's
    /// sinks.
    pub fn new(row: Row, hot: Arc<[u32]>, weight: u32) -> Self {
        assert!(
            hot.windows(2).all(|w| w[0] < w[1]),
            "hot sinks must be strictly ascending"
        );
        assert!(
            hot.last().is_none_or(|&k| (k as usize) < row.set().nodes()),
            "hot sink outside the flow set"
        );
        HotRow { row, hot, weight }
    }

    /// The row whose options are weighted.
    pub fn row(&self) -> &Row {
        &self.row
    }

    /// The hot sinks that are options of this row, as option indices.
    fn hot_options(&self) -> impl Iterator<Item = u32> + '_ {
        let own = self.row.index();
        self.hot
            .iter()
            .filter(move |&&k| k != own)
            .map(move |&k| k - u32::from(k > own))
    }

    /// The weight of option `j`.
    fn weight_of(&self, j: u32) -> u32 {
        if self.hot_options().any(|hot| hot == j) {
            self.weight
        } else {
            1
        }
    }

    /// The options' total weight, in `O(hot sinks)`.
    pub fn total_weight(&self) -> u64 {
        let hot = self.hot_options().count() as u64;
        self.row.len() as u64 - hot + hot * u64::from(self.weight)
    }

    /// Every `(destination, flow, weight)` option, in flow order.
    pub fn triples(&self) -> impl Iterator<Item = (EndpointId, FlowId, u32)> + '_ {
        (0u32..)
            .zip(self.row.pairs())
            .map(|(j, (dst, flow))| (dst, flow, self.weight_of(j)))
    }

    /// The option a cumulative-weight walk over [`HotRow::triples`]
    /// reaches for the same draw, without the walk: before the `i`-th
    /// hot option lie `i` hot and `hot − i` cold ones, so each hot
    /// option's span of the draw range is known from its index alone.
    fn pick(&self, rng: &mut Pcg32) -> (EndpointId, FlowId) {
        assert!(!self.row.is_empty(), "destination choice list is empty");
        let weight = u64::from(self.weight);
        let total = self.total_weight();
        assert!(
            total > 0,
            "weighted destination model has zero total weight"
        );
        let draw = rng.next_u64() % total;
        // `before`: hot options passed, all of them below the draw.
        let mut before = 0u64;
        for option in self.hot_options() {
            let start = u64::from(option) - before + before * weight;
            if draw < start {
                break;
            }
            if draw < start + weight {
                return self.row.at(option);
            }
            before += 1;
        }
        // A cold option: `draw − before·weight` cold ones precede it.
        self.row.at((draw - before * weight + before) as u32)
    }
}

impl DestinationModel {
    /// Picks the destination for the next packet.
    ///
    /// # Panics
    ///
    /// Panics if the model has no option, or a weighted model has zero
    /// total weight — elaboration-time configuration bugs.
    pub fn pick(&self, rng: &mut Pcg32) -> (EndpointId, FlowId) {
        match self {
            DestinationModel::Fixed { dst, flow } => (*dst, *flow),
            DestinationModel::UniformChoice(options) => {
                assert!(!options.is_empty(), "destination choice list is empty");
                options[rng.below(options.len() as u32) as usize]
            }
            DestinationModel::Weighted(options) => {
                assert!(!options.is_empty(), "destination choice list is empty");
                let total: u64 = options.iter().map(|&(_, _, w)| u64::from(w)).sum();
                assert!(
                    total > 0,
                    "weighted destination model has zero total weight"
                );
                // Draw a 64-bit threshold below `total`, then walk the
                // cumulative weights (lists are small: one entry per
                // outgoing flow of the generator).
                let mut draw = rng.next_u64() % total;
                for &(dst, flow, w) in options {
                    let w = u64::from(w);
                    if draw < w {
                        return (dst, flow);
                    }
                    draw -= w;
                }
                unreachable!("cumulative weight walk covers the draw range");
            }
            DestinationModel::UniformRow(row) => {
                assert!(!row.is_empty(), "destination choice list is empty");
                row.at(rng.below(row.len() as u32))
            }
            DestinationModel::WeightedRow(hot) => hot.pick(rng),
        }
    }

    /// Every `(destination, flow)` pair this model can emit
    /// (zero-weight entries included: they register their flow), in
    /// option order — computed, not stored, for the row forms.
    pub fn pairs(&self) -> impl Iterator<Item = (EndpointId, FlowId)> + '_ {
        let (fixed, uniform, weighted, row): (_, &[_], &[_], _) = match self {
            DestinationModel::Fixed { dst, flow } => (Some((*dst, *flow)), &[], &[], None),
            DestinationModel::UniformChoice(options) => (None, options, &[], None),
            DestinationModel::Weighted(options) => (None, &[], options, None),
            DestinationModel::UniformRow(row) => (None, &[], &[], Some(row)),
            DestinationModel::WeightedRow(hot) => (None, &[], &[], Some(hot.row())),
        };
        fixed
            .into_iter()
            .chain(uniform.iter().copied())
            .chain(weighted.iter().map(|&(dst, flow, _)| (dst, flow)))
            .chain(row.into_iter().flat_map(Row::pairs))
    }

    /// All flows this model can emit on.
    pub fn flows(&self) -> Vec<FlowId> {
        self.pairs().map(|(_, flow)| flow).collect()
    }

    /// The row a row form names, `None` for the list forms.
    pub fn row(&self) -> Option<&Row> {
        match self {
            DestinationModel::UniformRow(row) => Some(row),
            DestinationModel::WeightedRow(hot) => Some(hot.row()),
            DestinationModel::Fixed { .. }
            | DestinationModel::UniformChoice(_)
            | DestinationModel::Weighted(_) => None,
        }
    }

    /// The same model with its options written out: a row form becomes
    /// the list form that draws the same `(destination, flow)` from
    /// the same random numbers; list forms are returned as they are.
    pub fn to_listed(&self) -> DestinationModel {
        match self {
            DestinationModel::UniformRow(row) => {
                DestinationModel::UniformChoice(row.pairs().collect())
            }
            DestinationModel::WeightedRow(hot) => {
                DestinationModel::Weighted(hot.triples().collect())
            }
            listed => listed.clone(),
        }
    }
}

/// Packet length model shared by the stochastic generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LengthModel {
    /// Every packet has the same number of flits.
    Fixed(u16),
    /// Uniform in the inclusive range.
    UniformRange {
        /// Minimum length in flits (`>= 1`).
        min: u16,
        /// Maximum length in flits (`>= min`).
        max: u16,
    },
}

impl LengthModel {
    /// Draws a packet length.
    ///
    /// # Panics
    ///
    /// Panics on a malformed range (`min == 0` or `min > max`).
    pub fn draw(&self, rng: &mut Pcg32) -> u16 {
        match *self {
            LengthModel::Fixed(n) => {
                assert!(n >= 1, "packet length must be at least one flit");
                n
            }
            LengthModel::UniformRange { min, max } => {
                assert!(min >= 1 && min <= max, "malformed length range");
                rng.in_range(u32::from(min), u32::from(max)) as u16
            }
        }
    }

    /// Expected length in flits.
    pub fn mean(&self) -> f64 {
        match *self {
            LengthModel::Fixed(n) => f64::from(n),
            LengthModel::UniformRange { min, max } => (f64::from(min) + f64::from(max)) / 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_destination_ignores_rng() {
        let model = DestinationModel::Fixed {
            dst: EndpointId::new(3),
            flow: FlowId::new(1),
        };
        let mut rng = Pcg32::seeded(1);
        assert_eq!(model.pick(&mut rng), (EndpointId::new(3), FlowId::new(1)));
        assert_eq!(model.flows(), vec![FlowId::new(1)]);
    }

    #[test]
    fn uniform_choice_covers_options() {
        let opts = vec![
            (EndpointId::new(0), FlowId::new(0)),
            (EndpointId::new(1), FlowId::new(1)),
            (EndpointId::new(2), FlowId::new(2)),
        ];
        let model = DestinationModel::UniformChoice(opts.clone());
        let mut rng = Pcg32::seeded(5);
        let mut seen = [false; 3];
        for _ in 0..100 {
            let (_, f) = model.pick(&mut rng);
            seen[f.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(model.flows().len(), 3);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_choice_panics() {
        DestinationModel::UniformChoice(Vec::new()).pick(&mut Pcg32::seeded(1));
    }

    #[test]
    fn weighted_choice_follows_weights() {
        let model = DestinationModel::Weighted(vec![
            (EndpointId::new(0), FlowId::new(0), 9),
            (EndpointId::new(1), FlowId::new(1), 1),
            (EndpointId::new(2), FlowId::new(2), 0),
        ]);
        let mut rng = Pcg32::seeded(11);
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            let (_, f) = model.pick(&mut rng);
            counts[f.index()] += 1;
        }
        // 90/10 split within generous tolerance; zero weight never drawn.
        assert!(counts[0] > 8_500, "hot destination undrawn: {counts:?}");
        assert!(counts[1] > 500, "cold destination starved: {counts:?}");
        assert_eq!(counts[2], 0, "zero-weight destination drawn");
        assert_eq!(model.flows().len(), 3);
    }

    #[test]
    #[should_panic(expected = "zero total weight")]
    fn all_zero_weights_panic() {
        DestinationModel::Weighted(vec![(EndpointId::new(0), FlowId::new(0), 0)])
            .pick(&mut Pcg32::seeded(1));
    }

    #[test]
    fn length_models() {
        let mut rng = Pcg32::seeded(2);
        assert_eq!(LengthModel::Fixed(8).draw(&mut rng), 8);
        assert_eq!(LengthModel::Fixed(8).mean(), 8.0);
        let range = LengthModel::UniformRange { min: 2, max: 6 };
        for _ in 0..200 {
            let l = range.draw(&mut rng);
            assert!((2..=6).contains(&l));
        }
        assert_eq!(range.mean(), 4.0);
    }

    #[test]
    #[should_panic(expected = "malformed length range")]
    fn inverted_range_panics() {
        LengthModel::UniformRange { min: 5, max: 2 }.draw(&mut Pcg32::seeded(1));
    }

    #[test]
    fn tg_kind_display_matches_table1_labels() {
        assert_eq!(TgKind::Stochastic.to_string(), "TG stochastic");
        assert_eq!(TgKind::TraceDriven.to_string(), "TG trace driven");
    }
}
