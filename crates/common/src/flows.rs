//! Flow sets that are a function of their endpoints.
//!
//! Uniform-random and hotspot traffic over `n` nodes use `n·(n−1)`
//! flows — every source to every sink but its own — and each source
//! draws among the `n−1` of them that leave it. Written out, that is a
//! list quadratic in the node count and `n` destination lists of
//! `n−1` entries each; [`AllButSelf`] is the same set as arithmetic
//! over two endpoint lists, and [`Row`] names one source's share of it.
//! Flow ids are the ones the nested loop `for source { for sink ≠
//! source }` hands out, so a listed and an implicit set number their
//! flows identically.
//!
//! The types live here (rather than in `nocem-topology`, which wraps
//! [`AllButSelf`] into its `FlowSet`) so that `nocem-traffic`'s
//! destination models can name a row without depending on the
//! topology crate.

use crate::ids::{EndpointId, FlowId};
use std::sync::Arc;

/// "Not an endpoint of this side" in the reverse indices.
const ABSENT: u32 = u32::MAX;

struct Ends {
    sources: Vec<EndpointId>,
    sinks: Vec<EndpointId>,
    /// `[endpoint id] -> index in sources`, [`ABSENT`] elsewhere.
    source_at: Vec<u32>,
    /// `[endpoint id] -> index in sinks`, [`ABSENT`] elsewhere.
    sink_at: Vec<u32>,
}

/// All sources × all sinks but the one at the same index: flow
/// `s·(n−1) + j` runs from `sources[s]` to `sinks[j + (j ≥ s)]`.
///
/// Memory is `O(n)` behind an [`Arc`], so `clone()` is `O(1)` and a
/// platform's flow set and all of its destination models share one
/// allocation. Equality is `O(1)` between clones and compares the
/// endpoint lists otherwise.
///
/// # Examples
///
/// ```
/// use nocem_common::flows::AllButSelf;
/// use nocem_common::ids::{EndpointId, FlowId};
///
/// let e = EndpointId::new;
/// let set = AllButSelf::new(vec![e(0), e(2), e(4)], vec![e(1), e(3), e(5)]);
/// assert_eq!(set.len(), 6);
/// // Source 1 skips its own sink: 2 -> 1, then 2 -> 5.
/// assert_eq!(set.get(FlowId::new(2)), Some((e(2), e(1))));
/// assert_eq!(set.get(FlowId::new(3)), Some((e(2), e(5))));
/// assert_eq!(set.id_of(e(2), e(5)), Some(FlowId::new(3)));
/// assert_eq!(set.id_of(e(2), e(3)), None, "its own sink");
/// ```
#[derive(Clone)]
pub struct AllButSelf(Arc<Ends>);

impl std::fmt::Debug for AllButSelf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a {}-node all-but-self flow set", self.nodes())
    }
}

impl AllButSelf {
    /// The set over `sources` and `sinks` (pair them up by index: a
    /// node's generator and its receptor).
    ///
    /// # Panics
    ///
    /// Panics if the two lists differ in length, if one of them names
    /// an endpoint twice, or if the set would hold more flows than a
    /// [`FlowId`] can number.
    pub fn new(sources: Vec<EndpointId>, sinks: Vec<EndpointId>) -> Self {
        assert_eq!(
            sources.len(),
            sinks.len(),
            "sources and sinks pair up by index"
        );
        let n = sources.len() as u64;
        assert!(
            n * n.saturating_sub(1) <= u64::from(u32::MAX),
            "{n} nodes have more flows than a flow id can number"
        );
        let reverse = |side: &[EndpointId]| {
            let ids = side.iter().map(|e| e.index() + 1).max().unwrap_or(0);
            let mut at = vec![ABSENT; ids];
            for (i, e) in side.iter().enumerate() {
                assert_eq!(at[e.index()], ABSENT, "{e} is listed twice");
                at[e.index()] = i as u32;
            }
            at
        };
        AllButSelf(Arc::new(Ends {
            source_at: reverse(&sources),
            sink_at: reverse(&sinks),
            sources,
            sinks,
        }))
    }

    /// Number of nodes `n` (sources, and sinks).
    pub fn nodes(&self) -> usize {
        self.0.sources.len()
    }

    /// Number of flows, `n·(n−1)`.
    pub fn len(&self) -> usize {
        self.nodes() * self.nodes().saturating_sub(1)
    }

    /// Whether the set holds no flow (fewer than two nodes).
    pub fn is_empty(&self) -> bool {
        self.nodes() < 2
    }

    /// The sources, in index order.
    pub fn sources(&self) -> &[EndpointId] {
        &self.0.sources
    }

    /// The sinks, in index order.
    pub fn sinks(&self) -> &[EndpointId] {
        &self.0.sinks
    }

    /// The `(source, sink)` of `flow`, `None` past the end.
    pub fn get(&self, flow: FlowId) -> Option<(EndpointId, EndpointId)> {
        let row = self.nodes().checked_sub(1).filter(|&row| row > 0)?;
        let (s, j) = (flow.index() / row, flow.index() % row);
        let source = *self.0.sources.get(s)?;
        Some((source, self.0.sinks[j + usize::from(j >= s)]))
    }

    /// The flow from `src` to `dst`, if the set holds it.
    pub fn id_of(&self, src: EndpointId, dst: EndpointId) -> Option<FlowId> {
        let s = self.source_index(src)?;
        let k = *self.0.sink_at.get(dst.index()).filter(|&&k| k != ABSENT)?;
        (k != s).then(|| FlowId::new(s * (self.nodes() as u32 - 1) + k - u32::from(k > s)))
    }

    /// The index of `src` among the sources.
    pub fn source_index(&self, src: EndpointId) -> Option<u32> {
        self.0
            .source_at
            .get(src.index())
            .copied()
            .filter(|&s| s != ABSENT)
    }

    /// Every flow as `(flow, source, sink)`, in flow order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, EndpointId, EndpointId)> + '_ {
        (0..self.nodes() as u32).flat_map(move |s| {
            let source = self.0.sources[s as usize];
            self.row(s).map(move |(sink, flow)| (flow, source, sink))
        })
    }

    /// The `(sink, flow)` options of the source at index `s`, in flow
    /// order ([`Row`] is the owned form).
    ///
    /// # Panics
    ///
    /// Panics if the set has no source of that index.
    pub fn row(&self, s: u32) -> impl Iterator<Item = (EndpointId, FlowId)> + '_ {
        assert!((s as usize) < self.nodes(), "row {s} of {self:?}");
        let row = self.nodes() as u32 - 1;
        (0..row).map(move |j| {
            let sink = self.0.sinks[(j + u32::from(j >= s)) as usize];
            (sink, FlowId::new(s * row + j))
        })
    }

    /// Calls `visit(source, sink)` for every flow, grouped by sink:
    /// sinks in ascending endpoint-id order, the sources of one sink in
    /// flow order.
    pub fn for_each_by_sink(&self, mut visit: impl FnMut(EndpointId, EndpointId)) {
        for (sink, &k) in self.0.sink_at.iter().enumerate() {
            if k == ABSENT {
                continue;
            }
            let sink = EndpointId::new(sink as u32);
            for (s, &source) in self.0.sources.iter().enumerate() {
                if s != k as usize {
                    visit(source, sink);
                }
            }
        }
    }

    /// Whether `self` and `other` are clones of one set (they share
    /// their allocation) — what makes equality `O(1)`.
    pub fn shares_storage(&self, other: &AllButSelf) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl PartialEq for AllButSelf {
    fn eq(&self, other: &Self) -> bool {
        self.shares_storage(other)
            || (self.0.sources == other.0.sources && self.0.sinks == other.0.sinks)
    }
}

impl Eq for AllButSelf {}

/// One source's flows in an [`AllButSelf`] set: "row `s`", the `n−1`
/// `(sink, flow)` options a generator at `sources[s]` draws among —
/// named, not listed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    set: AllButSelf,
    source: u32,
}

impl Row {
    /// Row `source` of `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` has no source of that index.
    pub fn new(set: AllButSelf, source: u32) -> Self {
        assert!((source as usize) < set.nodes(), "row {source} of {set:?}");
        Row { set, source }
    }

    /// The set this is a row of.
    pub fn set(&self) -> &AllButSelf {
        &self.set
    }

    /// Which row: the index of [`Row::source`] among the set's sources.
    pub fn index(&self) -> u32 {
        self.source
    }

    /// The endpoint every flow of the row leaves from.
    pub fn source(&self) -> EndpointId {
        self.set.sources()[self.source as usize]
    }

    /// Number of options, `n−1`.
    pub fn len(&self) -> usize {
        self.set.nodes() - 1
    }

    /// Whether the row has no option (a one-node set).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Option `j`: the sink and the flow to it.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    #[inline]
    pub fn at(&self, j: u32) -> (EndpointId, FlowId) {
        let row = self.len() as u32;
        assert!(j < row, "option {j} of a {row}-option row");
        let sink = self.set.sinks()[(j + u32::from(j >= self.source)) as usize];
        (sink, FlowId::new(self.source * row + j))
    }

    /// Every `(sink, flow)` option, in flow order.
    pub fn pairs(&self) -> impl Iterator<Item = (EndpointId, FlowId)> + '_ {
        self.set.row(self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sources `0, 2, 4, …`, sinks `1, 3, 5, …` — a TG/TR pair per node.
    fn interleaved(n: u32) -> AllButSelf {
        let e = EndpointId::new;
        AllButSelf::new(
            (0..n).map(|i| e(2 * i)).collect(),
            (0..n).map(|i| e(2 * i + 1)).collect(),
        )
    }

    #[test]
    fn numbering_is_the_nested_loops() {
        for n in 0..7 {
            let set = interleaved(n);
            let mut want = Vec::new();
            for s in 0..n {
                for k in (0..n).filter(|&k| k != s) {
                    let flow = FlowId::new(want.len() as u32);
                    want.push((flow, set.sources()[s as usize], set.sinks()[k as usize]));
                }
            }
            assert_eq!(set.iter().collect::<Vec<_>>(), want, "{n} nodes");
            assert_eq!(set.len(), want.len());
            assert_eq!(set.is_empty(), want.is_empty());
            for &(flow, src, dst) in &want {
                assert_eq!(set.get(flow), Some((src, dst)));
                assert_eq!(set.id_of(src, dst), Some(flow));
            }
            assert_eq!(set.get(FlowId::new(want.len() as u32)), None);
        }
    }

    #[test]
    fn id_of_knows_what_is_not_in_the_set() {
        let set = interleaved(4);
        let e = EndpointId::new;
        assert_eq!(set.id_of(e(2), e(3)), None, "a node's own sink");
        assert_eq!(set.id_of(e(1), e(3)), None, "a sink is no source");
        assert_eq!(set.id_of(e(0), e(2)), None, "a source is no sink");
        assert_eq!(set.id_of(e(0), e(99)), None);
        assert_eq!(set.id_of(e(99), e(1)), None);
        assert_eq!(set.source_index(e(4)), Some(2));
        assert_eq!(set.source_index(e(5)), None);
    }

    #[test]
    fn rows_partition_the_set() {
        let set = interleaved(5);
        let mut seen = Vec::new();
        for s in 0..5 {
            let row = Row::new(set.clone(), s);
            assert_eq!(row.source(), set.sources()[s as usize]);
            assert_eq!(row.len(), 4);
            for (j, (sink, flow)) in row.pairs().enumerate() {
                assert_eq!(row.at(j as u32), (sink, flow));
                assert_eq!(set.get(flow), Some((row.source(), sink)));
                seen.push(flow);
            }
        }
        let all: Vec<FlowId> = set.iter().map(|(flow, _, _)| flow).collect();
        assert_eq!(seen, all);
    }

    #[test]
    fn by_sink_groups_in_ascending_sink_order() {
        // Sinks listed in descending id order: the grouping still runs
        // ascending by id, sources in flow (index) order.
        let e = EndpointId::new;
        let set = AllButSelf::new(vec![e(0), e(1), e(2)], vec![e(9), e(7), e(5)]);
        let mut got = Vec::new();
        set.for_each_by_sink(|src, dst| got.push((src.raw(), dst.raw())));
        assert_eq!(got, [(0, 5), (1, 5), (0, 7), (2, 7), (1, 9), (2, 9)]);
        assert_eq!(got.len(), set.len());
    }

    #[test]
    fn equality_is_by_content_and_free_between_clones() {
        let a = interleaved(6);
        let b = a.clone();
        assert!(a.shares_storage(&b));
        assert_eq!(a, b);
        let c = interleaved(6);
        assert!(!a.shares_storage(&c));
        assert_eq!(a, c);
        assert_ne!(a, interleaved(5));
        assert_ne!(Row::new(a.clone(), 1), Row::new(a.clone(), 2));
        assert_eq!(Row::new(a, 1), Row::new(c, 1));
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn a_repeated_endpoint_is_rejected() {
        let e = EndpointId::new;
        AllButSelf::new(vec![e(0), e(0)], vec![e(1), e(2)]);
    }

    #[test]
    #[should_panic(expected = "pair up by index")]
    fn unpaired_lists_are_rejected() {
        AllButSelf::new(vec![EndpointId::new(0)], Vec::new());
    }

    #[test]
    #[should_panic(expected = "row 3 of a 3-node all-but-self flow set")]
    fn a_row_past_the_end_is_rejected() {
        Row::new(interleaved(3), 3);
    }
}
