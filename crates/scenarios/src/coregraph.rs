//! Application core-graph workloads.
//!
//! A [`CoreGraph`] is the classic NoC-benchmark IR: named cores plus
//! directed flows annotated with bandwidth (MB/s). Two bundled graphs
//! model the canonical MPEG-4 decoder and VOPD (Video Object Plane
//! Decoder) benchmarks — the pair virtually every bandwidth-aware NoC
//! mapping paper evaluates (bandwidth figures after Bertozzi et al.
//! and Murali & De Micheli, DATE 2004; approximate by design).
//!
//! [`map_greedy`] places cores onto a topology's switches with a
//! greedy bandwidth-aware heuristic: cores are placed in decreasing
//! order of attached bandwidth; the heaviest core takes the most
//! central switch, and every following core takes the free switch
//! minimizing the bandwidth-weighted hop distance to its already
//! placed neighbors. [`CoreGraphWorkload`] then lowers graph +
//! mapping into flows, per-generator weighted destination models and
//! per-generator offered loads, ready for `nocem::PlatformConfig`.

use crate::ScenarioError;
use nocem::config::{PlatformConfig, StopCondition, SwitchSettings, TrafficModel};
use nocem_common::ids::{EndpointId, FlowId, SwitchId};
use nocem_stats::TrKind;
use nocem_topology::routing::{FlowSet, FlowSpec};
use nocem_topology::Topology;
use nocem_traffic::generator::DestinationModel;
use nocem_traffic::stochastic::UniformConfig;
use nocem_traffic::LengthModel;

/// One directed core-to-core flow with its bandwidth demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreFlow {
    /// Producing core (index into [`CoreGraph::cores`]).
    pub src: usize,
    /// Consuming core (index into [`CoreGraph::cores`]).
    pub dst: usize,
    /// Bandwidth demand in MB/s (relative weights are what matters).
    pub bandwidth: f64,
}

/// A bandwidth-annotated application task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreGraph {
    /// Benchmark name (`mpeg4`, `vopd`, …).
    pub name: String,
    /// Core names, indexed by the flow endpoints.
    pub cores: Vec<String>,
    /// Directed bandwidth-annotated flows.
    pub flows: Vec<CoreFlow>,
}

impl CoreGraph {
    /// Validates indices and bandwidths.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::MalformedGraph`] for dangling core
    /// indices, self-loops, non-positive bandwidths or an empty graph.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let fail = |reason: String| {
            Err(ScenarioError::MalformedGraph {
                graph: self.name.clone(),
                reason,
            })
        };
        if self.cores.is_empty() {
            return fail("graph has no cores".into());
        }
        if self.flows.is_empty() {
            return fail("graph has no flows".into());
        }
        for (i, f) in self.flows.iter().enumerate() {
            if f.src >= self.cores.len() || f.dst >= self.cores.len() {
                return fail(format!("flow {i} references a core out of range"));
            }
            if f.src == f.dst {
                return fail(format!("flow {i} is a self-loop on core {}", f.src));
            }
            if f.bandwidth <= 0.0 || f.bandwidth.is_nan() {
                return fail(format!("flow {i} has non-positive bandwidth"));
            }
        }
        Ok(())
    }

    /// Total bandwidth attached to each core (in + out), the placement
    /// priority of the greedy mapper.
    pub fn attached_bandwidth(&self) -> Vec<f64> {
        let mut bw = vec![0.0; self.cores.len()];
        for f in &self.flows {
            bw[f.src] += f.bandwidth;
            bw[f.dst] += f.bandwidth;
        }
        bw
    }

    /// Outgoing bandwidth of each core (drives per-TG offered load).
    pub fn outgoing_bandwidth(&self) -> Vec<f64> {
        let mut bw = vec![0.0; self.cores.len()];
        for f in &self.flows {
            bw[f.src] += f.bandwidth;
        }
        bw
    }
}

/// Core-graph workload modeled on the classic 12-core MPEG-4 decoder
/// benchmark: an SDRAM-centred star of decoder stages plus the
/// up-sampling / BAB calculation side path.
pub fn mpeg4_decoder() -> CoreGraph {
    let cores = [
        "vu", "au", "med_cpu", "sdram", "sram1", "sram2", "rast", "idct", "adsp", "up_samp", "bab",
        "risc",
    ];
    let flows = [
        (0, 3, 190.0),  // vu -> sdram
        (3, 0, 60.0),   // sdram -> vu
        (1, 3, 0.5),    // au -> sdram
        (3, 1, 0.5),    // sdram -> au
        (2, 3, 600.0),  // med_cpu -> sdram
        (3, 2, 40.0),   // sdram -> med_cpu
        (6, 3, 640.0),  // rast -> sdram
        (3, 4, 32.0),   // sdram -> sram1
        (4, 7, 32.0),   // sram1 -> idct
        (7, 5, 250.0),  // idct -> sram2
        (5, 3, 173.0),  // sram2 -> sdram
        (8, 3, 0.5),    // adsp -> sdram
        (3, 9, 910.0),  // sdram -> up_samp
        (9, 10, 500.0), // up_samp -> bab
        (10, 3, 32.0),  // bab -> sdram
        (11, 3, 250.0), // risc -> sdram
        (3, 11, 250.0), // sdram -> risc
    ];
    CoreGraph {
        name: "mpeg4".into(),
        cores: cores.iter().map(|&c| c.to_owned()).collect(),
        flows: flows
            .iter()
            .map(|&(src, dst, bandwidth)| CoreFlow {
                src,
                dst,
                bandwidth,
            })
            .collect(),
    }
}

/// Core-graph workload modeled on the classic 16-core VOPD (Video
/// Object Plane Decoder) benchmark: the deep decoding pipeline with
/// its stripe-memory and reference-memory side channels.
pub fn vopd() -> CoreGraph {
    let cores = [
        "vld",
        "run_le_dec",
        "inv_scan",
        "acdc_pred",
        "stripe_mem",
        "iquant",
        "idct",
        "up_samp",
        "vop_rec",
        "pad",
        "vop_mem",
        "arm",
        "ref_mem",
        "smooth",
        "down_samp",
        "demux",
    ];
    let flows = [
        (15, 0, 70.0),   // demux -> vld
        (0, 1, 70.0),    // vld -> run_le_dec
        (1, 2, 362.0),   // run_le_dec -> inv_scan
        (2, 3, 362.0),   // inv_scan -> acdc_pred
        (3, 4, 49.0),    // acdc_pred -> stripe_mem
        (4, 3, 27.0),    // stripe_mem -> acdc_pred
        (3, 5, 362.0),   // acdc_pred -> iquant
        (5, 6, 357.0),   // iquant -> idct
        (6, 7, 353.0),   // idct -> up_samp
        (7, 8, 300.0),   // up_samp -> vop_rec
        (8, 9, 313.0),   // vop_rec -> pad
        (9, 10, 313.0),  // pad -> vop_mem
        (10, 9, 94.0),   // vop_mem -> pad (reference read-back)
        (11, 10, 16.0),  // arm -> vop_mem
        (10, 11, 16.0),  // vop_mem -> arm
        (12, 8, 94.0),   // ref_mem -> vop_rec
        (8, 12, 94.0),   // vop_rec -> ref_mem
        (13, 12, 49.0),  // smooth -> ref_mem
        (14, 13, 313.0), // down_samp -> smooth
        (10, 14, 300.0), // vop_mem -> down_samp
    ];
    CoreGraph {
        name: "vopd".into(),
        cores: cores.iter().map(|&c| c.to_owned()).collect(),
        flows: flows
            .iter()
            .map(|&(src, dst, bandwidth)| CoreFlow {
                src,
                dst,
                bandwidth,
            })
            .collect(),
    }
}

/// A placement of cores onto switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// `core index -> switch` (parallel to [`CoreGraph::cores`]).
    pub core_to_switch: Vec<SwitchId>,
}

impl Mapping {
    /// The switch hosting `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn switch_of(&self, core: usize) -> SwitchId {
        self.core_to_switch[core]
    }

    /// Total bandwidth-weighted hop count of the mapping — the
    /// objective the greedy mapper minimizes; exposed so tests and
    /// reports can compare placements.
    pub fn weighted_hops(&self, graph: &CoreGraph, topo: &Topology) -> f64 {
        let mut cost = 0.0;
        for f in &graph.flows {
            let dst = self.core_to_switch[f.dst];
            let dist = topo.distances_to(dst);
            let d = dist[self.core_to_switch[f.src].index()];
            assert!(d != usize::MAX, "mapped cores must be connected");
            cost += f.bandwidth * d as f64;
        }
        cost
    }
}

/// Greedy bandwidth-aware placement of `graph` onto `topo`.
///
/// Cores are placed in decreasing order of attached bandwidth. The
/// first core takes the most central switch
/// (grid center on meshes/tori); each following core takes the free
/// switch minimizing the bandwidth-weighted distance to its already
/// placed neighbors, falling back to centrality when it has none.
///
/// # Errors
///
/// Returns [`ScenarioError::Mapping`] if the graph needs more cores
/// than the topology has switches or the topology lacks a TG/TR pair
/// on some switch, and [`ScenarioError::MalformedGraph`] if the graph
/// fails validation.
pub fn map_greedy(graph: &CoreGraph, topo: &Topology) -> Result<Mapping, ScenarioError> {
    graph.validate()?;
    let n_cores = graph.cores.len();
    if n_cores > topo.switch_count() {
        return Err(ScenarioError::Mapping {
            graph: graph.name.clone(),
            reason: format!(
                "{n_cores} cores need {n_cores} switches, topology {} has {}",
                topo.name(),
                topo.switch_count()
            ),
        });
    }
    if !topo.has_endpoint_pair_per_switch() {
        return Err(ScenarioError::Mapping {
            graph: graph.name.clone(),
            reason: "every switch needs one TG and one TR".into(),
        });
    }

    // Placement order: attached bandwidth, heaviest first (ties by
    // core index for determinism).
    let attached = graph.attached_bandwidth();
    let mut order: Vec<usize> = (0..n_cores).collect();
    order.sort_by(|&a, &b| {
        attached[b]
            .partial_cmp(&attached[a])
            .expect("bandwidths are finite")
            .then(a.cmp(&b))
    });

    // Free switches, most central first.
    let central = crate::switches_center_out(topo);
    let mut free: Vec<SwitchId> = central;
    let mut placement: Vec<Option<SwitchId>> = vec![None; n_cores];

    for &core in &order {
        // Bandwidth to already placed neighbors.
        let mut placed_neighbors: Vec<(SwitchId, f64)> = Vec::new();
        for f in &graph.flows {
            let (other, bw) = if f.src == core {
                (f.dst, f.bandwidth)
            } else if f.dst == core {
                (f.src, f.bandwidth)
            } else {
                continue;
            };
            if let Some(s) = placement[other] {
                placed_neighbors.push((s, bw));
            }
        }
        let choice = if placed_neighbors.is_empty() {
            // No placed neighbors yet: take the most central free
            // switch (`free` is ordered center-out).
            free[0]
        } else {
            // Free switch minimizing bandwidth-weighted hop distance;
            // `free`'s center-out order breaks ties.
            let mut best = free[0];
            let mut best_cost = f64::INFINITY;
            // Distance maps are per placed neighbor, not per
            // candidate, keeping this O(neighbors × V + free).
            let dists: Vec<(Vec<usize>, f64)> = placed_neighbors
                .iter()
                .map(|&(s, bw)| (topo.distances_to(s), bw))
                .collect();
            for &cand in &free {
                let mut cost = 0.0;
                for (dist, bw) in &dists {
                    let d = dist[cand.index()];
                    if d == usize::MAX {
                        cost = f64::INFINITY;
                        break;
                    }
                    cost += bw * d as f64;
                }
                if cost < best_cost {
                    best_cost = cost;
                    best = cand;
                }
            }
            best
        };
        placement[core] = Some(choice);
        free.retain(|&s| s != choice);
    }

    Ok(Mapping {
        core_to_switch: placement
            .into_iter()
            .map(|p| p.expect("every core placed"))
            .collect(),
    })
}

/// A core graph lowered onto a topology: flows, destination models
/// and offered loads, ready to become a `PlatformConfig`.
#[derive(Debug, Clone)]
pub struct CoreGraphWorkload {
    /// The application graph.
    pub graph: CoreGraph,
    /// Where each core sits.
    pub mapping: Mapping,
    /// NoC flows, densely numbered: one per core-graph flow, plus one
    /// self-flow per idle generator (cores without outgoing traffic
    /// and unoccupied switches park on a zero-budget self-flow).
    pub flows: Vec<FlowSpec>,
    /// Destination model per generator, `generators()` order.
    pub destinations: Vec<DestinationModel>,
    /// Offered load per generator, `generators()` order (zero for
    /// idle generators).
    pub loads: Vec<f64>,
    /// The peak per-TG offered load the workload was derived with
    /// (the heaviest core's TG offers exactly this).
    pub peak_load: f64,
}

impl CoreGraphWorkload {
    /// Maps `graph` onto `topo` and derives traffic: each core's TG
    /// offers `peak_load × (outgoing bandwidth / max outgoing
    /// bandwidth)` and distributes destinations proportionally to
    /// per-flow bandwidth.
    ///
    /// # Errors
    ///
    /// Propagates [`map_greedy`] errors.
    ///
    /// # Panics
    ///
    /// Panics if `peak_load` is outside `(0, 1)`.
    pub fn new(graph: CoreGraph, topo: &Topology, peak_load: f64) -> Result<Self, ScenarioError> {
        assert!(
            peak_load > 0.0 && peak_load < 1.0,
            "peak load must be in (0, 1)"
        );
        let mapping = map_greedy(&graph, topo)?;
        let out_bw = graph.outgoing_bandwidth();
        let max_out = out_bw.iter().cloned().fold(0.0, f64::max);
        // validate() guarantees at least one positive-bandwidth flow.
        assert!(max_out > 0.0, "validated graph has outgoing bandwidth");

        let mut flows: Vec<FlowSpec> = Vec::new();
        let flow_of = |src_tg: EndpointId, dst_tr: EndpointId, flows: &mut Vec<FlowSpec>| {
            if let Some(f) = flows.iter().find(|f| f.src == src_tg && f.dst == dst_tr) {
                return f.flow;
            }
            let flow = FlowId::new(flows.len() as u32);
            flows.push(FlowSpec {
                flow,
                src: src_tg,
                dst: dst_tr,
            });
            flow
        };

        // Weighted destination options per switch hosting a core with
        // outgoing traffic.
        let mut options_per_switch: Vec<Vec<(EndpointId, FlowId, u32)>> =
            vec![Vec::new(); topo.switch_count()];
        for f in &graph.flows {
            let src_switch = mapping.switch_of(f.src);
            let dst_switch = mapping.switch_of(f.dst);
            let src_tg = topo.generator_at(src_switch).expect("checked");
            let dst_tr = topo.receptor_at(dst_switch).expect("checked");
            let flow = flow_of(src_tg, dst_tr, &mut flows);
            // Scale relative bandwidth into integer weights; every
            // flow keeps at least weight 1.
            let weight = ((f.bandwidth / max_out) * 1_000.0).round().max(1.0) as u32;
            options_per_switch[src_switch.index()].push((dst_tr, flow, weight));
        }

        let generators = topo.generators();
        let mut destinations = Vec::with_capacity(generators.len());
        let mut loads = Vec::with_capacity(generators.len());
        for &g in &generators {
            let s = topo.endpoint(g).switch;
            let options = &options_per_switch[s.index()];
            if options.is_empty() {
                // Idle generator (core without outgoing traffic, or
                // unoccupied switch): parked on a zero-budget
                // self-flow so elaboration still sees a routable
                // destination.
                let self_tr = topo.receptor_at(s).expect("checked");
                let flow = flow_of(g, self_tr, &mut flows);
                destinations.push(DestinationModel::Fixed { dst: self_tr, flow });
                loads.push(0.0);
            } else {
                destinations.push(DestinationModel::Weighted(options.clone()));
                let core = mapping
                    .core_to_switch
                    .iter()
                    .position(|&cs| cs == s)
                    .expect("switch with options hosts a core");
                loads.push(peak_load * out_bw[core] / max_out);
            }
        }

        Ok(CoreGraphWorkload {
            graph,
            mapping,
            flows,
            destinations,
            loads,
            peak_load,
        })
    }

    /// Canonical label, e.g. `vopd@mesh4x4@0.3` (same shape as
    /// [`crate::scenario::ScenarioSpec::label`]; the load is the
    /// workload's peak load, in `f64`'s exact representation).
    pub fn label(&self, topo: &Topology) -> String {
        format!("{}@{}@{}", self.graph.name, topo.name(), self.peak_load)
    }

    /// Lowers the workload into a runnable configuration.
    ///
    /// `total_packets` is split over the active generators
    /// proportionally to their offered load, and the run stops once
    /// all of them are delivered.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::BudgetTooSmall`] if `total_packets`
    /// is lower than the number of active generators (every active
    /// generator needs at least one packet).
    ///
    /// # Panics
    ///
    /// Panics if `packet_flits == 0` or `total_packets == 0`.
    pub fn build_config(
        &self,
        topo: &Topology,
        packet_flits: u16,
        total_packets: u64,
    ) -> Result<PlatformConfig, ScenarioError> {
        assert!(packet_flits >= 1, "packets need at least one flit");
        assert!(total_packets >= 1, "need at least one packet");
        let total_load: f64 = self.loads.iter().sum();
        let active = self.loads.iter().filter(|&&l| l > 0.0).count() as u64;
        if total_packets < active {
            return Err(ScenarioError::BudgetTooSmall {
                scenario: self.graph.name.clone(),
                needed: active,
                available: total_packets,
            });
        }

        // Budgets proportional to load, with a floor of one packet
        // per active generator; the heaviest generator absorbs the
        // rounding remainder.
        let mut budgets: Vec<u64> = self
            .loads
            .iter()
            .map(|&l| {
                if l > 0.0 {
                    ((total_packets as f64) * l / total_load).floor().max(1.0) as u64
                } else {
                    0
                }
            })
            .collect();
        let assigned: u64 = budgets.iter().sum();
        let heaviest = self
            .loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
            .map(|(i, _)| i)
            .expect("at least one generator");
        if assigned < total_packets {
            budgets[heaviest] += total_packets - assigned;
        } else {
            // Flooring can only overshoot through the one-packet
            // floors; shave the remainder off the heaviest budget.
            budgets[heaviest] -= (assigned - total_packets).min(budgets[heaviest] - 1);
        }
        let delivered: u64 = budgets.iter().sum();

        let name = self.label(topo);
        let seed = crate::scenario::scenario_seed(&name);
        let generators: Vec<TrafficModel> = self
            .destinations
            .iter()
            .zip(&self.loads)
            .zip(&budgets)
            .map(|((dst, &load), &budget)| {
                if load > 0.0 {
                    TrafficModel::Uniform(UniformConfig::with_load(
                        load,
                        packet_flits,
                        Some(budget),
                        dst.clone(),
                    ))
                } else {
                    // Idle generator: zero budget, releases nothing.
                    TrafficModel::Uniform(UniformConfig {
                        length: LengthModel::Fixed(packet_flits),
                        gap: (0, 0),
                        budget: Some(0),
                        destination: dst.clone(),
                    })
                }
            })
            .collect();
        let flows = FlowSet::from(self.flows.clone());
        let routing = crate::scenario::scenario_routing(topo, &flows);
        Ok(PlatformConfig {
            name,
            topology: topo.clone(),
            flows,
            routing: routing.routing,
            vc_policy: routing.vc_policy,
            switch: SwitchSettings {
                num_vcs: routing.num_vcs,
                ..SwitchSettings::default()
            },
            generators,
            receptors: vec![TrKind::Stochastic; topo.receptors().len()],
            source_queue_capacity: 16,
            stop: StopCondition {
                delivered_packets: Some(delivered),
                ..StopCondition::default()
            },
            seed,
            record_trace: false,
            clock_mode: nocem::ClockMode::default(),
            engine: nocem::config::EngineKind::default(),
            telemetry: None,
            profile: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocem_topology::builders::mesh;

    #[test]
    fn bundled_graphs_validate() {
        for g in [mpeg4_decoder(), vopd()] {
            g.validate().unwrap();
            assert!(g.cores.len() >= 12);
            assert!(g.flows.len() >= 15);
        }
        assert_eq!(vopd().cores.len(), 16);
        assert_eq!(mpeg4_decoder().cores.len(), 12);
    }

    #[test]
    fn malformed_graphs_are_rejected() {
        let mut g = mpeg4_decoder();
        g.flows.push(CoreFlow {
            src: 0,
            dst: 99,
            bandwidth: 1.0,
        });
        assert!(matches!(
            g.validate(),
            Err(ScenarioError::MalformedGraph { .. })
        ));
        let mut g = vopd();
        g.flows[0].bandwidth = 0.0;
        assert!(g.validate().is_err());
        let mut g = vopd();
        g.flows[0].src = g.flows[0].dst;
        assert!(g.validate().is_err());
    }

    #[test]
    fn mapper_places_all_cores_on_distinct_switches() {
        let topo = mesh(4, 4).unwrap();
        for g in [mpeg4_decoder(), vopd()] {
            let m = map_greedy(&g, &topo).unwrap();
            assert_eq!(m.core_to_switch.len(), g.cores.len());
            let unique: std::collections::BTreeSet<_> = m.core_to_switch.iter().collect();
            assert_eq!(unique.len(), g.cores.len(), "{}: switch reused", g.name);
        }
    }

    #[test]
    fn mapper_beats_worst_case_placement() {
        // The greedy mapping must cost less weighted hops than the
        // pessimal (reversed center-out) placement.
        let topo = mesh(4, 4).unwrap();
        let g = vopd();
        let greedy = map_greedy(&g, &topo).unwrap();
        let mut reversed = crate::switches_center_out(&topo);
        reversed.reverse();
        let pessimal = Mapping {
            core_to_switch: reversed.into_iter().take(g.cores.len()).collect(),
        };
        assert!(greedy.weighted_hops(&g, &topo) < pessimal.weighted_hops(&g, &topo));
    }

    #[test]
    fn mapper_rejects_small_topologies() {
        let topo = mesh(2, 2).unwrap();
        assert!(matches!(
            map_greedy(&vopd(), &topo),
            Err(ScenarioError::Mapping { .. })
        ));
    }

    #[test]
    fn workload_lowering_shapes_up() {
        let topo = mesh(4, 4).unwrap();
        let w = CoreGraphWorkload::new(vopd(), &topo, 0.4).unwrap();
        assert_eq!(w.destinations.len(), 16);
        assert_eq!(w.loads.len(), 16);
        // The heaviest core offers exactly the peak load.
        let max = w.loads.iter().cloned().fold(0.0, f64::max);
        assert!((max - 0.4).abs() < 1e-12);
        // All loads in [0, peak].
        assert!(w.loads.iter().all(|&l| (0.0..=0.4).contains(&l)));
        let cfg = w.build_config(&topo, 4, 1_000).unwrap();
        assert_eq!(cfg.generators.len(), 16);
        // Stop condition covers exactly the budget sum.
        let budget_sum: u64 = cfg
            .generators
            .iter()
            .map(|g| match g {
                TrafficModel::Uniform(u) => u.budget.unwrap(),
                _ => unreachable!(),
            })
            .sum();
        assert_eq!(cfg.stop.delivered_packets, Some(budget_sum));
        assert_eq!(budget_sum, 1_000);
    }

    #[test]
    fn workload_on_larger_topology_parks_unused_switches() {
        let topo = mesh(5, 5).unwrap();
        let w = CoreGraphWorkload::new(mpeg4_decoder(), &topo, 0.3).unwrap();
        let idle = w.loads.iter().filter(|&&l| l == 0.0).count();
        // 25 switches, 12 cores, but some cores are pure sinks; at
        // least the 13 unoccupied switches are idle.
        assert!(idle >= 13, "expected >= 13 idle generators, got {idle}");
        let cfg = w.build_config(&topo, 4, 500).unwrap();
        assert_eq!(cfg.generators.len(), 25);
    }

    #[test]
    fn determinism_of_mapping() {
        let topo = mesh(4, 4).unwrap();
        let a = map_greedy(&vopd(), &topo).unwrap();
        let b = map_greedy(&vopd(), &topo).unwrap();
        assert_eq!(a, b);
    }
}
