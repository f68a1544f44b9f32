//! Synthetic spatial traffic patterns.
//!
//! Each pattern maps every source switch of a topology to a
//! *destination distribution* over switches, in the style every NoC
//! evaluation since Dally & Towles' textbook uses:
//!
//! | pattern | destination of source `s` |
//! |---|---|
//! | uniform-random | every other switch, equal probability |
//! | transpose | `(x, y) → (y, x)` on a square grid |
//! | bit-complement | `s → !s` over `log2(N)` bits |
//! | bit-reversal | `s → reverse(s)` over `log2(N)` bits |
//! | shuffle | `s → rotate_left(s, 1)` over `log2(N)` bits |
//! | tornado | half-way around each dimension |
//! | hotspot | center switches drawn `weight×` more often |
//! | nearest-neighbor | one-hop neighbors, equal probability |
//!
//! A pattern *expands* ([`SyntheticPattern::traffic`]) into a densely
//! numbered [`FlowSet`] plus one [`DestinationModel`] per traffic
//! generator — exactly what `nocem::PlatformConfig` consumes. The two
//! all-to-all patterns, uniform-random and hotspot, expand to the
//! implicit set (every switch's TG to every other switch's TR) and to
//! destination models that name a row of it, so their expansion is
//! linear in the switch count; every other pattern lists its one to
//! four flows per switch. Patterns address destinations by switch, so
//! they require a topology with at least one TG and one TR per switch
//! (what the mesh/torus/ring builders produce);
//! [`Topology::has_endpoint_pair_per_switch`] is the gate.

use crate::ScenarioError;
use nocem_common::flows::{AllButSelf, Row};
use nocem_common::ids::FlowId;
use nocem_common::ids::SwitchId;
use nocem_topology::routing::{FlowSet, FlowSpec};
use nocem_topology::Topology;
use nocem_traffic::generator::{DestinationModel, HotRow};
use std::sync::Arc;

/// Default hotspot count for [`SyntheticPattern::Hotspot`].
pub const DEFAULT_HOTSPOTS: u32 = 1;
/// Default hotspot weight multiplier (a hotspot is drawn this many
/// times more often than a regular destination).
pub const DEFAULT_HOTSPOT_WEIGHT: u32 = 8;

/// A synthetic spatial traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SyntheticPattern {
    /// Uniform-random destination over all other switches.
    UniformRandom,
    /// Matrix transpose `(x, y) → (y, x)`; requires a square grid.
    Transpose,
    /// Bitwise complement of the switch index; requires a
    /// power-of-two switch count.
    BitComplement,
    /// Bit-order reversal of the switch index; requires a
    /// power-of-two switch count.
    BitReversal,
    /// Perfect shuffle (rotate index bits left by one); requires a
    /// power-of-two switch count.
    Shuffle,
    /// Tornado: half-way around each dimension (grid) or around the
    /// ring (no grid).
    Tornado,
    /// Hotspot: `hotspots` central switches receive `weight×` the
    /// traffic of every other switch.
    Hotspot {
        /// Number of hotspot switches (≥ 1).
        hotspots: u32,
        /// Relative draw weight of a hotspot destination (≥ 2).
        weight: u32,
    },
    /// Uniform choice among the switches one hop away.
    NearestNeighbor,
}

impl SyntheticPattern {
    /// The eight built-in patterns with default parameters, in
    /// catalogue order.
    pub const ALL: [SyntheticPattern; 8] = [
        SyntheticPattern::UniformRandom,
        SyntheticPattern::Transpose,
        SyntheticPattern::BitComplement,
        SyntheticPattern::BitReversal,
        SyntheticPattern::Shuffle,
        SyntheticPattern::Tornado,
        SyntheticPattern::Hotspot {
            hotspots: DEFAULT_HOTSPOTS,
            weight: DEFAULT_HOTSPOT_WEIGHT,
        },
        SyntheticPattern::NearestNeighbor,
    ];

    /// Stable registry/CSV name.
    pub fn name(&self) -> &'static str {
        match self {
            SyntheticPattern::UniformRandom => "uniform_random",
            SyntheticPattern::Transpose => "transpose",
            SyntheticPattern::BitComplement => "bit_complement",
            SyntheticPattern::BitReversal => "bit_reversal",
            SyntheticPattern::Shuffle => "shuffle",
            SyntheticPattern::Tornado => "tornado",
            SyntheticPattern::Hotspot { .. } => "hotspot",
            SyntheticPattern::NearestNeighbor => "nearest_neighbor",
        }
    }

    /// One-line catalogue description.
    pub fn description(&self) -> &'static str {
        match self {
            SyntheticPattern::UniformRandom => "uniform-random destination over all other switches",
            SyntheticPattern::Transpose => "matrix transpose (x,y) -> (y,x) on a square grid",
            SyntheticPattern::BitComplement => "destination = bitwise complement of source index",
            SyntheticPattern::BitReversal => "destination = bit-reversed source index",
            SyntheticPattern::Shuffle => "perfect shuffle: rotate index bits left by one",
            SyntheticPattern::Tornado => "half-way around each dimension",
            SyntheticPattern::Hotspot { .. } => "central hotspot switches drawn more often",
            SyntheticPattern::NearestNeighbor => "uniform choice among one-hop neighbors",
        }
    }

    /// Checks whether the pattern can be instantiated on `topo`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::NotApplicable`] with the precise
    /// precondition that failed.
    pub fn check(&self, topo: &Topology) -> Result<(), ScenarioError> {
        let fail = |reason: String| {
            Err(ScenarioError::NotApplicable {
                pattern: self.name(),
                topology: topo.name().to_owned(),
                reason,
            })
        };
        if !topo.has_endpoint_pair_per_switch() {
            return fail("every switch needs one TG and one TR".into());
        }
        let n = topo.switch_count();
        match self {
            SyntheticPattern::UniformRandom | SyntheticPattern::Tornado => {
                if n < 2 {
                    return fail("needs at least two switches".into());
                }
            }
            SyntheticPattern::Transpose => match topo.grid() {
                None => return fail("needs grid metadata".into()),
                Some(g) if g.width != g.height => {
                    return fail(format!("needs a square grid, got {}x{}", g.width, g.height));
                }
                Some(_) => {}
            },
            SyntheticPattern::BitComplement
            | SyntheticPattern::BitReversal
            | SyntheticPattern::Shuffle => {
                if n < 2 || !n.is_power_of_two() {
                    return fail(format!("needs a power-of-two switch count, got {n}"));
                }
            }
            SyntheticPattern::Hotspot { hotspots, weight } => {
                if *hotspots == 0 || *hotspots as usize >= n {
                    return fail(format!("hotspot count {hotspots} must be in [1, {})", n));
                }
                if *weight < 2 {
                    return fail("hotspot weight must be at least 2".into());
                }
            }
            SyntheticPattern::NearestNeighbor => {
                if n < 2 {
                    return fail("needs at least two switches".into());
                }
            }
        }
        Ok(())
    }

    /// For deterministic (one-destination-per-source) patterns: the
    /// destination switch of every source switch, indexed by source.
    /// `None` for the distribution patterns (uniform-random, hotspot,
    /// nearest-neighbor).
    ///
    /// The scenario property tests assert these are true permutations.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::NotApplicable`] if [`Self::check`]
    /// fails.
    pub fn permutation(&self, topo: &Topology) -> Result<Option<Vec<SwitchId>>, ScenarioError> {
        self.check(topo)?;
        let n = topo.switch_count();
        let map = match self {
            SyntheticPattern::Transpose => {
                let grid = topo.grid().expect("checked");
                (0..n)
                    .map(|s| {
                        let (x, y) = grid.coords(SwitchId::new(s as u32));
                        grid.at(y, x)
                    })
                    .collect()
            }
            SyntheticPattern::BitComplement => {
                let mask = (n - 1) as u32;
                (0..n).map(|s| SwitchId::new(!(s as u32) & mask)).collect()
            }
            SyntheticPattern::BitReversal => {
                let bits = n.trailing_zeros();
                (0..n)
                    .map(|s| {
                        let r = (s as u32).reverse_bits() >> (32 - bits);
                        SwitchId::new(r)
                    })
                    .collect()
            }
            SyntheticPattern::Shuffle => {
                let bits = n.trailing_zeros();
                let mask = (n - 1) as u32;
                (0..n)
                    .map(|s| {
                        let s = s as u32;
                        SwitchId::new(((s << 1) | (s >> (bits - 1))) & mask)
                    })
                    .collect()
            }
            SyntheticPattern::Tornado => match topo.grid() {
                Some(grid) => (0..n)
                    .map(|s| {
                        let (x, y) = grid.coords(SwitchId::new(s as u32));
                        let dx = grid.width.div_ceil(2) - 1;
                        let dy = grid.height.div_ceil(2) - 1;
                        grid.at((x + dx) % grid.width, (y + dy) % grid.height)
                    })
                    .collect(),
                None => {
                    let hop = (n as u32).div_ceil(2) - 1;
                    (0..n)
                        .map(|s| SwitchId::new((s as u32 + hop) % n as u32))
                        .collect()
                }
            },
            SyntheticPattern::UniformRandom
            | SyntheticPattern::Hotspot { .. }
            | SyntheticPattern::NearestNeighbor => return Ok(None),
        };
        Ok(Some(map))
    }

    /// Expands the pattern over `topo` into flows and per-generator
    /// destination models.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::NotApplicable`] if [`Self::check`]
    /// fails.
    pub fn traffic(&self, topo: &Topology) -> Result<PatternTraffic, ScenarioError> {
        self.check(topo)?;
        let mut expansion = Expansion::new(topo);
        if let Some(map) = self.permutation(topo)? {
            for (src, &dst) in map.iter().enumerate() {
                let src = SwitchId::new(src as u32);
                let flow = expansion.flow(src, dst);
                expansion.fixed(src, flow);
            }
            return Ok(expansion.finish());
        }
        match *self {
            SyntheticPattern::UniformRandom => {
                Ok(expansion.all_but_self(DestinationModel::UniformRow))
            }
            SyntheticPattern::Hotspot { hotspots, weight } => {
                let mut hot: Vec<u32> = crate::switches_center_out(topo)
                    .into_iter()
                    .take(hotspots as usize)
                    .map(SwitchId::raw)
                    .collect();
                hot.sort_unstable();
                let hot: Arc<[u32]> = hot.into();
                Ok(expansion.all_but_self(|row| {
                    DestinationModel::WeightedRow(HotRow::new(row, hot.clone(), weight))
                }))
            }
            SyntheticPattern::NearestNeighbor => {
                for src in topo.switch_ids() {
                    let mut neighbors: Vec<SwitchId> = topo
                        .switch_neighbors(src)
                        .map(|(_, _, next, _)| next)
                        .collect();
                    neighbors.sort();
                    neighbors.dedup();
                    let options: Vec<_> = neighbors
                        .into_iter()
                        .map(|d| expansion.flow_pair(src, d))
                        .collect();
                    expansion.uniform(src, options);
                }
                Ok(expansion.finish())
            }
            _ => unreachable!("deterministic patterns handled via permutation()"),
        }
    }
}

impl std::fmt::Display for SyntheticPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A pattern expanded over a concrete topology: dense flows plus one
/// destination model per generator (in `topology.generators()` order).
#[derive(Debug, Clone)]
pub struct PatternTraffic {
    /// All (src TG, dst TR) flows the pattern uses, densely numbered:
    /// the implicit all-but-self set for uniform-random and hotspot
    /// (whose destination models are rows of it), a list otherwise.
    pub flows: FlowSet,
    /// Destination model of each generator, `generators()` order.
    pub destinations: Vec<DestinationModel>,
}

/// Builder state shared by all pattern expansions: interns (src
/// switch, dst switch) pairs as dense flows and records per-generator
/// destination models.
struct Expansion<'t> {
    topo: &'t Topology,
    flows: Vec<FlowSpec>,
    /// `[src switch] -> (dst switch, interned flow)`, sorted by
    /// destination. Every built-in pattern emits a source's
    /// destinations in ascending order, so interning is an append;
    /// anything else pays a binary search (uniform-random alone
    /// creates n·(n−1) distinct flows, so a linear scan would make
    /// expansion O(n⁴), and hashing every pair was 40 % of what was
    /// left of set-up).
    flow_index: Vec<Vec<(SwitchId, FlowId)>>,
    /// Per-switch TG / TR, precomputed once — `Topology::generator_at`
    /// is a linear endpoint scan, far too slow to call per (src, dst)
    /// pair.
    tg_at: Vec<nocem_common::ids::EndpointId>,
    tr_at: Vec<nocem_common::ids::EndpointId>,
    /// Destination model per switch (generators are per-switch here).
    models: Vec<Option<DestinationModel>>,
}

impl<'t> Expansion<'t> {
    fn new(topo: &'t Topology) -> Self {
        // `check()` has already guaranteed one TG and one TR per
        // switch.
        let tg_at = topo
            .switch_ids()
            .map(|s| topo.generator_at(s).expect("checked: TG per switch"))
            .collect();
        let tr_at = topo
            .switch_ids()
            .map(|s| topo.receptor_at(s).expect("checked: TR per switch"))
            .collect();
        Expansion {
            topo,
            flows: Vec::new(),
            flow_index: vec![Vec::new(); topo.switch_count()],
            tg_at,
            tr_at,
            models: vec![None; topo.switch_count()],
        }
    }

    /// Interns the flow src-switch → dst-switch, returning its id.
    fn flow(&mut self, src: SwitchId, dst: SwitchId) -> FlowId {
        let known = &mut self.flow_index[src.index()];
        let at = match known.last() {
            Some(&(last, _)) if last < dst => known.len(),
            None => 0,
            Some(_) => match known.binary_search_by_key(&dst, |&(d, _)| d) {
                Ok(i) => return known[i].1,
                Err(i) => i,
            },
        };
        let flow = FlowId::new(self.flows.len() as u32);
        known.insert(at, (dst, flow));
        self.flows.push(FlowSpec {
            flow,
            src: self.tg_at[src.index()],
            dst: self.tr_at[dst.index()],
        });
        flow
    }

    /// Interns a flow and returns the `(endpoint, flow)` pair the
    /// destination models consume.
    fn flow_pair(
        &mut self,
        src: SwitchId,
        dst: SwitchId,
    ) -> (nocem_common::ids::EndpointId, FlowId) {
        let flow = self.flow(src, dst);
        (self.tr_at[dst.index()], flow)
    }

    fn fixed(&mut self, src: SwitchId, flow: FlowId) {
        let spec = self.flows[flow.index()];
        self.models[src.index()] = Some(DestinationModel::Fixed {
            dst: spec.dst,
            flow,
        });
    }

    fn uniform(&mut self, src: SwitchId, options: Vec<(nocem_common::ids::EndpointId, FlowId)>) {
        assert!(!options.is_empty(), "pattern produced no destinations");
        self.models[src.index()] = Some(DestinationModel::UniformChoice(options));
    }

    #[cfg(test)]
    fn weighted(
        &mut self,
        src: SwitchId,
        options: Vec<(nocem_common::ids::EndpointId, FlowId, u32)>,
    ) {
        assert!(!options.is_empty(), "pattern produced no destinations");
        self.models[src.index()] = Some(DestinationModel::Weighted(options));
    }

    /// Every switch's TG to every other switch's TR, as a function: the
    /// implicit flow set — numbered as interning `for src { for dst ≠
    /// src }` pair by pair would number it — and, per switch, the model
    /// `model` makes of its row.
    fn all_but_self(mut self, model: impl Fn(Row) -> DestinationModel) -> PatternTraffic {
        let set = AllButSelf::new(
            std::mem::take(&mut self.tg_at),
            std::mem::take(&mut self.tr_at),
        );
        for (s, slot) in (0u32..).zip(&mut self.models) {
            *slot = Some(model(Row::new(set.clone(), s)));
        }
        PatternTraffic {
            destinations: self.destinations(),
            flows: set.into(),
        }
    }

    fn finish(mut self) -> PatternTraffic {
        let destinations = self.destinations();
        PatternTraffic {
            flows: self.flows.into(),
            destinations,
        }
    }

    /// The per-switch models in `generators()` order.
    fn destinations(&mut self) -> Vec<DestinationModel> {
        // Reorder per-switch models into generators() order. A model
        // moves to the last generator of its switch (the only one, on
        // every built-in topology); earlier ones get copies.
        let generators = self.topo.generators();
        let mut pending = vec![0u32; self.models.len()];
        for &g in &generators {
            pending[self.topo.endpoint(g).switch.index()] += 1;
        }
        generators
            .into_iter()
            .map(|g| {
                let s = self.topo.endpoint(g).switch.index();
                pending[s] -= 1;
                let model = if pending[s] == 0 {
                    self.models[s].take()
                } else {
                    self.models[s].clone()
                };
                model.expect("every switch's generator received a model")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_topology::builders::{mesh, ring, star, torus};

    #[test]
    fn catalogue_is_complete() {
        assert_eq!(SyntheticPattern::ALL.len(), 8);
        let names: std::collections::BTreeSet<_> =
            SyntheticPattern::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 8, "pattern names must be unique");
    }

    #[test]
    fn transpose_needs_square_grid() {
        let m = mesh(4, 2).unwrap();
        assert!(SyntheticPattern::Transpose.check(&m).is_err());
        let sq = mesh(3, 3).unwrap();
        assert!(SyntheticPattern::Transpose.check(&sq).is_ok());
        let r = ring(4).unwrap();
        assert!(SyntheticPattern::Transpose.check(&r).is_err());
    }

    #[test]
    fn bit_patterns_need_power_of_two() {
        let m9 = mesh(3, 3).unwrap();
        for p in [
            SyntheticPattern::BitComplement,
            SyntheticPattern::BitReversal,
            SyntheticPattern::Shuffle,
        ] {
            assert!(p.check(&m9).is_err(), "{p} must reject 9 switches");
            assert!(p.check(&mesh(4, 4).unwrap()).is_ok());
            assert!(p.check(&ring(8).unwrap()).is_ok());
        }
    }

    #[test]
    fn patterns_reject_star_hub_without_endpoints() {
        let s = star(4).unwrap();
        for p in SyntheticPattern::ALL {
            assert!(p.check(&s).is_err(), "{p} must reject hub-only switches");
        }
    }

    #[test]
    fn transpose_permutation_on_4x4() {
        let m = mesh(4, 4).unwrap();
        let map = SyntheticPattern::Transpose
            .permutation(&m)
            .unwrap()
            .unwrap();
        let grid = m.grid().unwrap();
        // (1, 2) -> (2, 1): switch 9 -> switch 6.
        assert_eq!(map[grid.at(1, 2).index()], grid.at(2, 1));
        // Diagonal maps to itself.
        assert_eq!(map[grid.at(3, 3).index()], grid.at(3, 3));
    }

    #[test]
    fn bit_complement_pairs_opposite_corners() {
        let m = mesh(4, 4).unwrap();
        let map = SyntheticPattern::BitComplement
            .permutation(&m)
            .unwrap()
            .unwrap();
        assert_eq!(map[0], SwitchId::new(15));
        assert_eq!(map[15], SwitchId::new(0));
    }

    #[test]
    fn tornado_on_ring_is_half_way() {
        let r = ring(8).unwrap();
        let map = SyntheticPattern::Tornado.permutation(&r).unwrap().unwrap();
        // hop = ceil(8/2) - 1 = 3.
        assert_eq!(map[0], SwitchId::new(3));
        assert_eq!(map[6], SwitchId::new(1));
    }

    #[test]
    fn tornado_on_torus_moves_per_dimension() {
        let t = torus(4, 4).unwrap();
        let map = SyntheticPattern::Tornado.permutation(&t).unwrap().unwrap();
        let grid = t.grid().unwrap();
        // dx = dy = 1 on a 4-ary torus.
        assert_eq!(map[grid.at(0, 0).index()], grid.at(1, 1));
        assert_eq!(map[grid.at(3, 3).index()], grid.at(0, 0));
    }

    #[test]
    fn uniform_random_expands_all_pairs() {
        let m = mesh(2, 2).unwrap();
        let t = SyntheticPattern::UniformRandom.traffic(&m).unwrap();
        assert_eq!(t.flows.len(), 4 * 3);
        assert_eq!(t.destinations.len(), 4);
        for d in &t.destinations {
            assert!(matches!(d, DestinationModel::UniformRow(_)), "{d:?}");
            match d.to_listed() {
                DestinationModel::UniformChoice(opts) => assert_eq!(opts.len(), 3),
                other => panic!("expected uniform choice, got {other:?}"),
            }
        }
    }

    #[test]
    fn hotspot_weights_center() {
        let m = mesh(3, 3).unwrap();
        let t = SyntheticPattern::Hotspot {
            hotspots: 1,
            weight: 10,
        }
        .traffic(&m)
        .unwrap();
        // Sources other than the center must weight the center 10x.
        let center_tr = m.receptor_at(SwitchId::new(4)).unwrap();
        for (i, d) in t.destinations.iter().enumerate() {
            let src_switch = m.endpoint(m.generators()[i]).switch;
            assert!(matches!(d, DestinationModel::WeightedRow(_)), "{d:?}");
            let DestinationModel::Weighted(opts) = d.to_listed() else {
                panic!("expected weighted model");
            };
            if src_switch != SwitchId::new(4) {
                let hot = opts.iter().find(|&&(e, _, _)| e == center_tr).unwrap();
                assert_eq!(hot.2, 10);
            }
            assert!(opts.iter().all(|&(_, _, w)| w == 1 || w == 10));
        }
    }

    /// The expansion this module had before flow sets could be
    /// implicit, kept as the oracle: every (src, dst ≠ src) pair
    /// interned one by one, every destination list written out.
    fn listed(pattern: SyntheticPattern, topo: &Topology) -> PatternTraffic {
        let mut expansion = Expansion::new(topo);
        match pattern {
            SyntheticPattern::UniformRandom => {
                for src in topo.switch_ids() {
                    let options: Vec<_> = topo
                        .switch_ids()
                        .filter(|&d| d != src)
                        .map(|d| expansion.flow_pair(src, d))
                        .collect();
                    expansion.uniform(src, options);
                }
            }
            SyntheticPattern::Hotspot { hotspots, weight } => {
                let hot: Vec<SwitchId> = crate::switches_center_out(topo)
                    .into_iter()
                    .take(hotspots as usize)
                    .collect();
                for src in topo.switch_ids() {
                    let options: Vec<_> = topo
                        .switch_ids()
                        .filter(|&d| d != src)
                        .map(|d| {
                            let w = if hot.contains(&d) { weight } else { 1 };
                            let (dst, flow) = expansion.flow_pair(src, d);
                            (dst, flow, w)
                        })
                        .collect();
                    expansion.weighted(src, options);
                }
            }
            other => panic!("{other} never was all-to-all"),
        }
        expansion.finish()
    }

    #[test]
    fn the_implicit_expansion_is_the_listed_one_element_for_element() {
        let mut shapes = vec![
            (2, 2),
            (3, 2),
            (3, 3),
            (4, 4),
            (5, 3),
            (6, 5),
            (8, 8),
            (9, 7),
        ];
        shapes.extend((2..8).flat_map(|n| [(1, n), (n, 1)]));
        for (w, h) in shapes {
            for topo in [mesh(w, h).unwrap(), torus(w, h).unwrap()] {
                let n = topo.switch_count();
                let mut patterns = vec![SyntheticPattern::UniformRandom];
                for hotspots in [1, 2.min(n as u32 - 1), n as u32 - 1] {
                    for weight in [2, 8] {
                        patterns.push(SyntheticPattern::Hotspot { hotspots, weight });
                    }
                }
                for pattern in patterns {
                    let what = format!("{pattern:?} on {}", topo.name());
                    let got = pattern.traffic(&topo).unwrap();
                    let want = listed(pattern, &topo);
                    let FlowSet::Listed(want_flows) = &want.flows else {
                        panic!("{what}: the oracle lists");
                    };
                    assert!(matches!(got.flows, FlowSet::AllButSelf(_)), "{what}");
                    // Same flows, same ids, same order — and equal as sets.
                    assert_eq!(got.flows.len(), n * (n - 1), "{what}");
                    assert!(got.flows.iter().eq(want_flows.iter().copied()), "{what}");
                    assert_eq!(&got.flows.to_listed(), want_flows, "{what}");
                    assert_eq!(got.flows, want.flows, "{what}");
                    // get / id_of round-trip, past the end is nothing.
                    for spec in want_flows {
                        assert_eq!(got.flows.get(spec.flow), Some(*spec), "{what}");
                        assert_eq!(
                            got.flows.id_of(spec.src, spec.dst),
                            Some(spec.flow),
                            "{what}"
                        );
                    }
                    assert_eq!(got.flows.get(FlowId::new(want_flows.len() as u32)), None);
                    // Rows partition the set, in order.
                    let by_row: Vec<FlowSpec> = topo
                        .generators()
                        .into_iter()
                        .flat_map(|g| got.flows.row(g).collect::<Vec<_>>())
                        .collect();
                    assert_eq!(&by_row, want_flows, "{what}");
                    // Every generator draws among the same options, at
                    // the same weights, and its row is its own.
                    assert_eq!(got.destinations.len(), want.destinations.len());
                    for ((g, model), listed) in topo
                        .generators()
                        .into_iter()
                        .zip(&got.destinations)
                        .zip(&want.destinations)
                    {
                        assert_eq!(&model.to_listed(), listed, "{what}, {g}");
                        assert_eq!(model.row().unwrap().source(), g, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn all_to_all_models_share_the_flow_sets_storage() {
        let m = mesh(6, 6).unwrap();
        for pattern in [
            SyntheticPattern::UniformRandom,
            SyntheticPattern::Hotspot {
                hotspots: 2,
                weight: 4,
            },
        ] {
            let t = pattern.traffic(&m).unwrap();
            let FlowSet::AllButSelf(set) = &t.flows else {
                panic!("{pattern} is implicit");
            };
            assert!(t
                .destinations
                .iter()
                .all(|d| d.row().unwrap().set().shares_storage(set)));
        }
    }

    #[test]
    fn nearest_neighbor_uses_one_hop_switches() {
        let m = mesh(3, 3).unwrap();
        let t = SyntheticPattern::NearestNeighbor.traffic(&m).unwrap();
        // Corner switch 0 has exactly two neighbors.
        let DestinationModel::UniformChoice(opts) = &t.destinations[0] else {
            panic!("expected uniform choice");
        };
        assert_eq!(opts.len(), 2);
        // Center switch 4 has four.
        let DestinationModel::UniformChoice(opts) = &t.destinations[4] else {
            panic!("expected uniform choice");
        };
        assert_eq!(opts.len(), 4);
    }

    #[test]
    fn interning_is_order_independent() {
        // Out-of-order and repeated pairs take the sorted-insert path
        // and still intern each (src, dst) exactly once.
        let m = mesh(3, 3).unwrap();
        let mut e = Expansion::new(&m);
        let s = SwitchId::new;
        let order = [5u32, 2, 7, 2, 8, 0, 5, 7];
        let ids: Vec<FlowId> = order.iter().map(|&d| e.flow(s(4), s(d))).collect();
        assert_eq!(e.flows.len(), 5, "five distinct destinations");
        for (i, &d) in order.iter().enumerate() {
            assert_eq!(e.flows[ids[i].index()].dst, e.tr_at[d as usize]);
            assert_eq!(
                e.flow(s(4), s(d)),
                ids[i],
                "re-interning returns the same id"
            );
        }
        assert!(e.flow_index[4].windows(2).all(|w| w[0].0 < w[1].0));
        assert_ne!(
            e.flow(s(3), s(5)),
            ids[0],
            "other sources intern separately"
        );
    }

    #[test]
    fn flow_ids_are_dense_and_unique() {
        let m = mesh(4, 4).unwrap();
        for p in SyntheticPattern::ALL {
            let t = p.traffic(&m).unwrap();
            for (i, f) in t.flows.iter().enumerate() {
                assert_eq!(f.flow.index(), i, "{p}: flows must be densely numbered");
            }
            let pairs: std::collections::BTreeSet<_> =
                t.flows.iter().map(|f| (f.src, f.dst)).collect();
            assert_eq!(pairs.len(), t.flows.len(), "{p}: duplicate flow pair");
        }
    }
}
