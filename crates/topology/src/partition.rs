//! Switch-graph partitioning for the sharded emulation engine.
//!
//! A [`PartitionMap`] assigns every switch of a [`Topology`] to one of
//! `K` *shards* — the unit of parallelism of `nocem`'s sharded engine,
//! which runs each shard's switches, network interfaces, traffic
//! generators and receptors on its own worker thread. Endpoints always
//! follow the switch they are attached to, so injection and ejection
//! never cross a shard boundary; only inter-switch links can, and
//! those **boundary links** ([`PartitionMap::boundary_links`]) are the
//! links the engine bridges with bounded channels.
//!
//! The partitioner, [`grid_stripes`], exploits the spatial locality of
//! grid links: it cuts a mesh/torus into contiguous stripes of rows, so every cut
//! edge is a vertical (or wrap-around) link between two adjacent
//! stripes — `O(width)` boundary links per seam instead of the
//! `O(switches)` a random assignment would produce. Non-grid
//! topologies fall back to contiguous switch-index ranges.

use crate::graph::Topology;
use nocem_common::ids::{LinkId, SwitchId};

/// Why a topology could not be partitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// Zero shards were requested.
    ZeroShards,
    /// More shards than switches were requested.
    TooManyShards {
        /// Requested shard count.
        shards: usize,
        /// Available switches.
        switches: usize,
    },
    /// An assignment did not cover every switch with a valid shard.
    InvalidAssignment {
        /// What is wrong.
        reason: String,
    },
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::ZeroShards => write!(f, "cannot partition into zero shards"),
            PartitionError::TooManyShards { shards, switches } => {
                write!(f, "{shards} shards requested for {switches} switches")
            }
            PartitionError::InvalidAssignment { reason } => {
                write!(f, "invalid shard assignment: {reason}")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// A validated, total assignment of switches to shards.
///
/// Construct through [`PartitionMap::new`] (which validates) or
/// [`grid_stripes`]. Every switch belongs to exactly one
/// shard and every shard owns at least one switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    shard_of: Vec<usize>,
    shards: usize,
}

impl PartitionMap {
    /// Wraps a per-switch shard assignment, validating that it is a
    /// total, disjoint cover: one entry per switch, every entry below
    /// `shards`, every shard non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] when the assignment is not a valid
    /// cover.
    pub fn new(shard_of: Vec<usize>, shards: usize) -> Result<Self, PartitionError> {
        if shards == 0 {
            return Err(PartitionError::ZeroShards);
        }
        let mut seen = vec![false; shards];
        for (s, &k) in shard_of.iter().enumerate() {
            if k >= shards {
                return Err(PartitionError::InvalidAssignment {
                    reason: format!("switch s{s} assigned to shard {k} of {shards}"),
                });
            }
            seen[k] = true;
        }
        if let Some(empty) = seen.iter().position(|&s| !s) {
            return Err(PartitionError::InvalidAssignment {
                reason: format!("shard {empty} owns no switch"),
            });
        }
        Ok(PartitionMap { shard_of, shards })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of switches covered.
    pub fn switch_count(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard owning switch `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is outside the partitioned topology.
    pub fn shard_of(&self, s: SwitchId) -> usize {
        self.shard_of[s.index()]
    }

    /// The switches of one shard, in ascending id order.
    pub fn switches_of(&self, shard: usize) -> Vec<SwitchId> {
        self.shard_of
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k == shard)
            .map(|(s, _)| SwitchId::new(s as u32))
            .collect()
    }

    /// All boundary links — the cut edges of the partition — in
    /// ascending link-id order.
    ///
    /// Enumerated from the per-switch output-link tables (each shard's
    /// switches contribute their outgoing inter-switch links whose far
    /// end lives elsewhere), which the partition property tests check
    /// against an independent scan of the whole link list.
    pub fn boundary_links(&self, topo: &Topology) -> Vec<LinkId> {
        let mut cut = Vec::new();
        for s in topo.switch_ids() {
            let here = self.shard_of(s);
            for (port, link, next, _) in topo.switch_neighbors(s) {
                let _ = port;
                if self.shard_of(next) != here {
                    cut.push(link);
                }
            }
        }
        cut.sort_by_key(|l| l.index());
        cut
    }
}

/// Splits a topology's switch graph into `shards` grid stripes.
///
/// Grids (meshes and tori) are cut into `shards` contiguous stripes of
/// whole rows *or* whole columns — whichever orientation cuts fewer
/// links, **counting torus wrap links**: striping along a wrapped
/// dimension adds one extra seam (the stripe at one edge is adjacent
/// to the stripe at the other through the wrap links), so on a torus
/// or a non-square mesh the cheaper orientation can differ from the
/// naive rows-always choice. A seam between adjacent stripes of rows
/// costs `2·width` directed links (`2·height` for columns); ties
/// prefer rows. When the topology is not a grid — or neither dimension
/// has at least `shards` lines — switches are striped by contiguous id
/// ranges instead, which on the row-major grid builders is the same
/// thing at finer granularity.
///
/// The brute-force enumeration test below checks the cost model: the
/// chosen cut equals the minimum [`PartitionMap::boundary_links`]
/// count over *every* contiguous row and column composition.
///
/// # Errors
///
/// Returns [`PartitionError`] when the request is unsatisfiable (zero
/// shards, more shards than switches).
pub fn grid_stripes(topo: &Topology, shards: usize) -> Result<PartitionMap, PartitionError> {
    let n = topo.switch_count();
    if shards == 0 {
        return Err(PartitionError::ZeroShards);
    }
    if shards > n {
        return Err(PartitionError::TooManyShards {
            shards,
            switches: n,
        });
    }
    let mut shard_of = vec![0usize; n];
    let grid = topo
        .grid()
        .filter(|g| (g.width as usize) * (g.height as usize) == n);
    let orientation = grid.and_then(|g| {
        // Which dimensions wrap (a torus link spans more than one
        // grid step): striping along a wrapped dimension pays one
        // extra seam, because the edge stripes touch through the
        // wrap links.
        let mut wrap_v = false;
        let mut wrap_h = false;
        for s in topo.switch_ids() {
            let (ax, ay) = g.coords(s);
            for (_, _, next, _) in topo.switch_neighbors(s) {
                let (bx, by) = g.coords(next);
                wrap_v |= ay.abs_diff(by) > 1;
                wrap_h |= ax.abs_diff(bx) > 1;
            }
        }
        // Directed cut cost of each orientation: seams × links per
        // seam (each seam carries one link pair per line it crosses).
        // A single shard cuts nothing either way.
        let seams = |wraps: bool| shards - 1 + usize::from(wraps && shards > 1);
        let rows_cost = seams(wrap_v) * 2 * g.width as usize;
        let cols_cost = seams(wrap_h) * 2 * g.height as usize;
        let rows_ok = g.height as usize >= shards;
        let cols_ok = g.width as usize >= shards;
        match (rows_ok, cols_ok) {
            (true, true) if cols_cost < rows_cost => Some(false),
            (true, _) => Some(true),
            (_, true) => Some(false),
            _ => None,
        }
    });
    match (grid, orientation) {
        // Stripes of whole rows (or columns), balanced to within one
        // line, so the cut consists of the links between adjacent
        // stripes plus any wrap seam.
        (Some(grid), Some(by_rows)) => {
            let lines = if by_rows { grid.height } else { grid.width };
            for (k, range) in stripe_ranges(lines as usize, shards)
                .into_iter()
                .enumerate()
            {
                for line in range {
                    let across = if by_rows { grid.width } else { grid.height };
                    for i in 0..across as usize {
                        let (x, y) = if by_rows {
                            (i as u32, line as u32)
                        } else {
                            (line as u32, i as u32)
                        };
                        shard_of[grid.at(x, y).index()] = k;
                    }
                }
            }
        }
        _ => {
            for (k, range) in stripe_ranges(n, shards).into_iter().enumerate() {
                for s in range {
                    shard_of[s] = k;
                }
            }
        }
    }
    PartitionMap::new(shard_of, shards)
}

/// Splits `n` items into `k` contiguous ranges balanced to within one.
fn stripe_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let base = n / k;
    let extra = n % k;
    let mut start = 0;
    (0..k)
        .map(|i| {
            let len = base + usize::from(i < extra);
            let r = start..start + len;
            start += len;
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{mesh, ring, star, torus};

    #[test]
    fn stripe_ranges_cover_exactly() {
        for n in 1..20usize {
            for k in 1..=n {
                let ranges = stripe_ranges(n, k);
                assert_eq!(ranges.len(), k);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                    assert!(!w[1].is_empty());
                }
            }
        }
    }

    #[test]
    fn mesh_rows_stripe_cleanly() {
        let topo = mesh(4, 4).unwrap();
        let map = grid_stripes(&topo, 2).unwrap();
        let grid = topo.grid().unwrap();
        for s in topo.switch_ids() {
            let (_, y) = grid.coords(s);
            assert_eq!(map.shard_of(s), usize::from(y >= 2));
        }
        // The cut is exactly the 2x4 vertical links between rows 1 and 2.
        assert_eq!(map.boundary_links(&topo).len(), 8);
    }

    #[test]
    fn torus_wrap_links_join_the_cut() {
        let topo = torus(4, 4).unwrap();
        let map = grid_stripes(&topo, 2).unwrap();
        // Seam links (8) plus the vertical wrap links row 3 <-> row 0 (8).
        assert_eq!(map.boundary_links(&topo).len(), 16);
    }

    #[test]
    fn ring_and_star_fall_back_to_index_stripes() {
        for topo in [ring(8).unwrap(), star(6).unwrap()] {
            let map = grid_stripes(&topo, 2).unwrap();
            let total: usize = (0..2).map(|k| map.switches_of(k).len()).sum();
            assert_eq!(total, topo.switch_count());
            assert!(!map.boundary_links(&topo).is_empty());
        }
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let topo = mesh(3, 3).unwrap();
        let map = grid_stripes(&topo, 1).unwrap();
        assert!(map.boundary_links(&topo).is_empty());
        assert_eq!(map.switches_of(0).len(), 9);
    }

    #[test]
    fn degenerate_requests_are_rejected() {
        let topo = mesh(2, 2).unwrap();
        assert_eq!(grid_stripes(&topo, 0), Err(PartitionError::ZeroShards));
        assert!(matches!(
            grid_stripes(&topo, 5),
            Err(PartitionError::TooManyShards { .. })
        ));
    }

    #[test]
    fn invalid_assignments_are_rejected() {
        let err = PartitionMap::new(vec![0, 3], 2).unwrap_err();
        assert!(matches!(err, PartitionError::InvalidAssignment { .. }));
        let err = PartitionMap::new(vec![0, 0], 2).unwrap_err();
        assert!(err.to_string().contains("no switch"));
    }

    #[test]
    fn more_shards_than_rows_still_covers() {
        // mesh 8x2 has 2 rows; 4 shards stripe by columns instead.
        let topo = mesh(8, 2).unwrap();
        let map = grid_stripes(&topo, 4).unwrap();
        for k in 0..4 {
            assert_eq!(map.switches_of(k).len(), 4);
        }
    }

    #[test]
    fn wide_grids_stripe_by_columns_when_cheaper() {
        // mesh 16x4, 2 shards: a row seam cuts 2·16 = 32 directed
        // links, a column seam only 2·4 = 8.
        let topo = mesh(16, 4).unwrap();
        let map = grid_stripes(&topo, 2).unwrap();
        assert_eq!(map.boundary_links(&topo).len(), 8);
        // torus 8x4, 4 shards: row stripes would pay 4 seams (3 cuts
        // + vertical wrap) of 16 = 64; column stripes pay 4 seams of
        // 8 = 32.
        let topo = torus(8, 4).unwrap();
        let map = grid_stripes(&topo, 4).unwrap();
        assert_eq!(map.boundary_links(&topo).len(), 32);
    }

    /// All strictly increasing `k`-subsets of `1..lines` — the cut
    /// points of every contiguous composition into `k + 1` stripes.
    fn cut_sets(lines: usize, k: usize) -> Vec<Vec<usize>> {
        fn rec(
            start: usize,
            lines: usize,
            k: usize,
            cur: &mut Vec<usize>,
            out: &mut Vec<Vec<usize>>,
        ) {
            if cur.len() == k {
                out.push(cur.clone());
                return;
            }
            for c in start..lines {
                cur.push(c);
                rec(c + 1, lines, k, cur, out);
                cur.pop();
            }
        }
        let mut out = Vec::new();
        rec(1, lines, k, &mut Vec::new(), &mut out);
        out
    }

    /// The smallest boundary cut over *every* contiguous row and
    /// column composition into `shards` stripes, by brute force.
    fn brute_force_best_cut(topo: &Topology, shards: usize) -> usize {
        let grid = topo.grid().unwrap();
        let mut best = usize::MAX;
        for by_rows in [true, false] {
            let lines = if by_rows { grid.height } else { grid.width } as usize;
            if lines < shards {
                continue;
            }
            for cuts in cut_sets(lines, shards - 1) {
                let shard_of = topo
                    .switch_ids()
                    .map(|s| {
                        let (x, y) = grid.coords(s);
                        let line = if by_rows { y } else { x } as usize;
                        cuts.iter().filter(|&&c| line >= c).count()
                    })
                    .collect();
                let map = PartitionMap::new(shard_of, shards).unwrap();
                best = best.min(map.boundary_links(topo).len());
            }
        }
        best
    }

    #[test]
    fn stripe_choice_matches_brute_force_enumeration() {
        // The partitioner's closed-form cost model (seams × seam
        // width, wrap seams counted) must pick a cut as small as the
        // best of *all* contiguous stripe compositions in either
        // orientation.
        let topos = [
            mesh(8, 8).unwrap(),
            torus(8, 8).unwrap(),
            mesh(8, 2).unwrap(),
            torus(4, 8).unwrap(),
            mesh(16, 4).unwrap(),
            torus(8, 4).unwrap(),
        ];
        for topo in &topos {
            for shards in 2..=4 {
                let chosen = grid_stripes(topo, shards).unwrap();
                let cut = chosen.boundary_links(topo).len();
                let best = brute_force_best_cut(topo, shards);
                assert_eq!(
                    cut,
                    best,
                    "{} into {shards}: chose a {cut}-link cut, best is {best}",
                    topo.name()
                );
            }
        }
    }
}
