//! Analytic topology/routing analyses: offered link loads and hot-spot
//! detection.
//!
//! [`predict_link_loads`] computes the load each link would carry if
//! every flow injected at its configured rate — the calculation behind
//! the paper's claim that "two inter-switch links are loaded with 90 %
//! of traffic". The integration tests compare this prediction with the
//! utilization the emulator actually measures.

use crate::graph::Topology;
use crate::routing::FlowPaths;
use nocem_common::ids::LinkId;

/// How a flow's offered load is divided over its path alternatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitModel {
    /// All traffic follows the primary (first) path.
    PrimaryOnly,
    /// Traffic divides evenly over all configured paths.
    Even,
    /// The primary path carries `1 - p`, every secondary path shares
    /// `p` evenly (`p` is the probability of taking an alternative).
    Secondary(f64),
}

/// Predicted offered load per link (flits per cycle, `0.0..=`), indexed
/// by [`LinkId`].
///
/// `loads[i]` is the offered load of flow `i` in flits/cycle
/// (e.g. `0.45` for the paper's TGs).
///
/// # Panics
///
/// Panics if `loads.len() != flows.len()` or a path references a
/// non-existent connection — both are construction-time bugs, not
/// runtime inputs.
///
/// # Examples
///
/// ```
/// use nocem_topology::analysis::{predict_link_loads, SplitModel};
/// use nocem_topology::builders::paper_setup;
///
/// let p = paper_setup();
/// let loads = predict_link_loads(
///     &p.topology,
///     &p.primary_paths,
///     &[0.45; 4],
///     SplitModel::PrimaryOnly,
/// );
/// // The two hot links carry 2 x 45% = 90%.
/// for hot in p.hot_links {
///     assert!((loads[hot.index()] - 0.90).abs() < 1e-9);
/// }
/// ```
pub fn predict_link_loads(
    topo: &Topology,
    flows: &[FlowPaths],
    loads: &[f64],
    split: SplitModel,
) -> Vec<f64> {
    assert_eq!(
        flows.len(),
        loads.len(),
        "one load per flow ({} flows, {} loads)",
        flows.len(),
        loads.len()
    );
    let mut link_load = vec![0.0_f64; topo.link_count()];
    for (fp, &load) in flows.iter().zip(loads) {
        let n = fp.paths.len();
        for (pi, path) in fp.paths.iter().enumerate() {
            let weight = match split {
                SplitModel::PrimaryOnly => {
                    if pi == 0 {
                        1.0
                    } else {
                        0.0
                    }
                }
                SplitModel::Even => 1.0 / n as f64,
                SplitModel::Secondary(p) => {
                    if n == 1 {
                        1.0
                    } else if pi == 0 {
                        1.0 - p
                    } else {
                        p / (n - 1) as f64
                    }
                }
            };
            if weight == 0.0 {
                continue;
            }
            let share = load * weight;
            // Injection link.
            let inj = topo.endpoint(fp.spec.src).link;
            link_load[inj.index()] += share;
            // Hop links.
            for w in path.windows(2) {
                let (_, l) = topo
                    .link_toward(w[0], w[1])
                    .unwrap_or_else(|| panic!("no link {} -> {}", w[0], w[1]));
                link_load[l.index()] += share;
            }
            // Ejection link.
            let ej = topo.endpoint(fp.spec.dst).link;
            link_load[ej.index()] += share;
        }
    }
    link_load
}

/// Links whose predicted load is at least `threshold`, sorted by
/// descending load.
pub fn hot_links(link_loads: &[f64], threshold: f64) -> Vec<(LinkId, f64)> {
    let mut hot: Vec<(LinkId, f64)> = link_loads
        .iter()
        .enumerate()
        .filter(|(_, &l)| l >= threshold)
        .map(|(i, &l)| (LinkId::new(i as u32), l))
        .collect();
    hot.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("loads are finite"));
    hot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::paper_setup;

    #[test]
    fn paper_primary_loads_match_slide19() {
        let p = paper_setup();
        let loads = predict_link_loads(
            &p.topology,
            &p.primary_paths,
            &[0.45; 4],
            SplitModel::PrimaryOnly,
        );
        for hot in p.hot_links {
            assert!((loads[hot.index()] - 0.90).abs() < 1e-9);
        }
        // Exactly two inter-switch links at 90 %.
        let hot = hot_links(&loads, 0.89);
        let inter: Vec<_> = hot
            .iter()
            .filter(|(l, _)| p.topology.link(*l).is_inter_switch())
            .collect();
        assert_eq!(inter.len(), 2, "hot inter-switch links: {inter:?}");
    }

    #[test]
    fn hot_links_stay_at_90_percent_in_both_routing_cases() {
        // The paper's "two inter-switch links are loaded with 90 % of
        // traffic … in two cases": every path into the receptor column
        // must cross one of the two hot links, so their combined load
        // is conserved whichever routing possibility each packet
        // takes. The prediction shows both links individually stay at
        // 90 % for any secondary-path probability.
        let p = paper_setup();
        for prob in [0.0, 0.25, 0.5, 1.0] {
            let loads = predict_link_loads(
                &p.topology,
                &p.dual_paths,
                &[0.45; 4],
                SplitModel::Secondary(prob),
            );
            for hot in p.hot_links {
                assert!(
                    (loads[hot.index()] - 0.90).abs() < 1e-9,
                    "p={prob}: hot link load {}",
                    loads[hot.index()]
                );
            }
        }
    }

    #[test]
    fn secondary_probability_moves_load_onto_vertical_links() {
        let p = paper_setup();
        let vertical_total = |prob: f64| -> f64 {
            let loads = predict_link_loads(
                &p.topology,
                &p.dual_paths,
                &[0.45; 4],
                SplitModel::Secondary(prob),
            );
            // Sum over all inter-switch links except the two hot ones:
            // the detours ride the vertical links.
            p.topology
                .links()
                .filter(|l| l.is_inter_switch() && !p.hot_links.contains(&l.id))
                .map(|l| loads[l.id.index()])
                .sum()
        };
        let base = vertical_total(0.0);
        assert!(vertical_total(0.25) > base + 0.1);
        assert!(vertical_total(0.5) > vertical_total(0.25));
    }

    #[test]
    fn injection_links_carry_flow_load() {
        let p = paper_setup();
        let loads = predict_link_loads(
            &p.topology,
            &p.primary_paths,
            &[0.45; 4],
            SplitModel::PrimaryOnly,
        );
        for f in &p.flows {
            let inj = p.topology.endpoint(f.src).link;
            assert!((loads[inj.index()] - 0.45).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "one load per flow")]
    fn load_count_mismatch_panics() {
        let p = paper_setup();
        predict_link_loads(&p.topology, &p.primary_paths, &[0.45], SplitModel::Even);
    }
}
