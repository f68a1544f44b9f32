//! The architectural-state view: one plain snapshot of a platform's
//! switches, NIs and receptors. The paper's processor reads each
//! component through one address map; here every engine hands out one
//! [`ArchView`], filled by one of two producers —
//! [`crate::Platform::read_view`] or the compiled kernel's — and the
//! telemetry probe, the wait-for edges, the congestion counters, the
//! results' VC watermarks and every device register
//! ([`crate::devices`]) are read over it.
//! The fixed half is derived once from the elaboration's wiring; the
//! live half is allocated on the first fill and reused. Input VCs are
//! numbered `(in_port_base[s] + port) * vcs + vc`, output VCs likewise
//! over `out_port_base` — the compiled kernel's own slot numbering.

use crate::compile::{Elaboration, OutTarget};
use crate::profile::{WaitDest, WaitEdge};
use nocem_common::ids::{LinkId, PortId};
use nocem_common::route::RouteHop;
use nocem_stats::congestion::{CongestionCounter, VcOccupancy};
use nocem_stats::latency::LatencyAnalyzer;
use nocem_stats::receptor::{Receptor, ReceptorCounters};
use nocem_telemetry::LinkStat;

/// The source-side counters of one link: at a switch output port, or
/// at the network interface for an injection link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounts {
    /// Cycles some flit wanted the link and was not granted (an NI:
    /// credit-starved cycles).
    pub blocked: u64,
    /// Flits that crossed the link.
    pub forwarded: u64,
}

/// One network interface and the traffic generator in front of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NiRow {
    /// The injection link's counters.
    pub link: LinkCounts,
    /// Packets the NI's source queue accepted from the generator.
    pub accepted: u64,
    /// Whether the generator will release nothing more.
    pub exhausted: bool,
    /// Whether the NI holds no queued or half-sent packet.
    pub idle: bool,
}

/// One traffic receptor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceptorRow {
    /// The counters every receptor kind keeps.
    pub counters: ReceptorCounters,
    /// A trace receptor's network latency; `None` on a stochastic one.
    pub latency: Option<LatencyAnalyzer>,
}

impl ReceptorRow {
    /// The row of receptor `r`.
    pub(crate) fn of(r: &Receptor) -> Self {
        ReceptorRow {
            counters: *r.counters(),
            latency: r.network_latency().copied(),
        }
    }
}

/// One input VC buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InputVc {
    /// Buffered flits.
    pub occupancy: u32,
    /// The output VC the buffer's worm holds, else the one its routed
    /// head chose; `None` while nothing is routed.
    pub want: Option<RouteHop>,
    /// Whether `want` is a worm's allocation.
    pub worm_open: bool,
}

/// The architectural state of a platform at one cycle (module docs), a
/// plain struct: the fixed half first, then the live half. Two views of
/// one configuration are equal exactly when the engines that filled
/// them hold the same state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArchView {
    /// Virtual channels per port.
    pub vcs: usize,
    /// Depth of every input VC buffer.
    pub fifo_depth: u32,
    /// Links in the topology.
    pub links: usize,
    /// Prefix sums of the switches' input ports (`switches + 1` long).
    pub in_port_base: Vec<u32>,
    /// Prefix sums of the switches' output ports.
    pub out_port_base: Vec<u32>,
    /// Per output port: the link it drives.
    pub out_link: Vec<LinkId>,
    /// Per output port: where that link leads.
    pub out_dest: Vec<WaitDest>,
    /// Per output port: the credit cap of each of its VCs.
    pub credit_cap: Vec<u32>,
    /// Per NI: its injection link.
    pub injection_link: Vec<LinkId>,
    /// Per output port.
    pub ports: Vec<LinkCounts>,
    /// Per input VC.
    pub inputs: Vec<InputVc>,
    /// Per output VC: credits left toward the downstream buffer.
    pub credits: Vec<u32>,
    /// Per `(switch, VC)`: the highest fill any one FIFO reached.
    pub watermarks: Vec<u64>,
    /// Per NI.
    pub nis: Vec<NiRow>,
    /// Per receptor.
    pub receptors: Vec<ReceptorRow>,
}

impl ArchView {
    /// The fixed half of `elab`'s view; the live half stays empty until
    /// the first fill.
    pub(crate) fn new(elab: &Elaboration) -> Self {
        let topo = &elab.config.topology;
        let ports = elab.wiring.out_target.iter().map(Vec::len).sum();
        let mut view = ArchView {
            vcs: usize::from(elab.config.switch.num_vcs),
            fifo_depth: u32::from(elab.config.switch.fifo_depth),
            links: topo.link_count(),
            in_port_base: vec![0],
            out_port_base: vec![0],
            out_link: Vec::with_capacity(ports),
            out_dest: Vec::with_capacity(ports),
            credit_cap: Vec::with_capacity(ports),
            injection_link: elab.wiring.injection.iter().map(|&(_, _, l)| l).collect(),
            ..ArchView::default()
        };
        for s in topo.switch_ids() {
            let info = topo.switch(s);
            let (ins, outs) = (view.in_port_base[s.index()], view.out_port_base[s.index()]);
            view.in_port_base.push(ins + u32::from(info.inputs));
            view.out_port_base.push(outs + u32::from(info.outputs));
            for (p, target) in elab.wiring.out_target[s.index()].iter().enumerate() {
                let port = PortId::new(p as u8);
                view.out_link.push(topo.out_link(s, port));
                view.out_dest.push(match *target {
                    OutTarget::Switch { switch, port } => WaitDest::Switch {
                        switch: switch as u32,
                        input: port.index() as u32,
                    },
                    OutTarget::Receptor { index } => WaitDest::Receptor {
                        index: index as u32,
                    },
                });
                view.credit_cap.push(elab.out_credits(s, port));
            }
        }
        view
    }

    /// Allocates the live half on the first fill; a producer then
    /// overwrites every entry.
    pub(crate) fn alloc_live(&mut self) {
        let (ports, vcs) = (self.out_link.len(), self.vcs);
        if self.ports.len() != ports {
            let switches = self.in_port_base.len() - 1;
            self.ports = vec![LinkCounts::default(); ports];
            self.inputs = vec![InputVc::default(); self.input_vc(switches, 0, 0)];
            self.credits = vec![0; ports * vcs];
            self.watermarks = vec![0; switches * vcs];
            self.nis = vec![NiRow::default(); self.injection_link.len()];
            let receptors = self.out_dest.iter();
            let receptors = receptors.filter(|d| matches!(d, WaitDest::Receptor { .. }));
            self.receptors = vec![ReceptorRow::default(); receptors.count()];
        }
    }

    /// The index of input VC `vc` of port `port` of switch `s`.
    pub(crate) fn input_vc(&self, s: usize, port: usize, vc: usize) -> usize {
        (self.in_port_base[s] as usize + port) * self.vcs + vc
    }

    /// Every link with its source-side counters. Each link is counted
    /// at exactly one point, its source: inter-switch and ejection
    /// links at the upstream output port, injection links at the NI.
    /// That is what makes a 90 %-loaded link show as congested: stalls
    /// pile up where flits wait to enter it, not at its sink buffer.
    pub(crate) fn links(&self) -> impl Iterator<Item = (LinkId, LinkCounts)> + '_ {
        let ports = self.out_link.iter().zip(&self.ports);
        let injected = self.nis.iter().map(|n| &n.link);
        let nis = self.injection_link.iter().zip(injected);
        ports.chain(nis).map(|(&l, &c)| (l, c))
    }

    /// What the telemetry collector records a window from: every
    /// link's cumulative counters, and each input VC's buffered flits
    /// as `(vc, flits)`.
    pub(crate) fn telemetry_counters(
        &self,
    ) -> (
        impl Iterator<Item = LinkStat> + '_,
        impl Iterator<Item = (usize, u64)> + '_,
    ) {
        let links = self.links().map(|(link, c)| LinkStat {
            link,
            blocked: c.blocked,
            forwarded: c.forwarded,
        });
        let buffered = self.inputs.chunks(self.vcs).flat_map(|port| {
            let vcs = port.iter().enumerate();
            vcs.map(|(vc, input)| (vc, u64::from(input.occupancy)))
        });
        (links, buffered)
    }

    /// The per-link congestion counters.
    pub fn congestion(&self) -> CongestionCounter {
        let mut cc = CongestionCounter::new(self.links);
        for (link, c) in self.links() {
            cc.add(link, c.blocked, c.forwarded);
        }
        cc
    }

    /// The platform-wide per-VC watermarks: the highest fill any FIFO
    /// of each VC reached on any switch.
    pub fn vc_watermarks(&self) -> VcOccupancy {
        let mut out = VcOccupancy::new(self.vcs);
        for (k, &peak) in self.watermarks.iter().enumerate() {
            out.record(k % self.vcs, peak);
        }
        out
    }

    /// Every waiting input VC — flits buffered and an output VC wanted
    /// — as a wait-for edge, resolved through the wiring to the switch
    /// input or receptor downstream; in `(switch, port, VC)` order.
    pub fn wait_for_edges(&self) -> Vec<WaitEdge> {
        let mut edges = Vec::new();
        for (k, input) in self.inputs.iter().enumerate() {
            let Some(hop) = input.want.filter(|_| input.occupancy > 0) else {
                continue;
            };
            let (s, in_port) = locate(&self.in_port_base, k / self.vcs);
            let gp = self.out_port_base[s] as usize + hop.port.index();
            edges.push(WaitEdge {
                switch: s as u32,
                in_port: in_port as u32,
                in_vc: (k % self.vcs) as u8,
                out_port: u32::from(hop.port.raw()),
                out_vc: hop.vc.raw(),
                link: self.out_link[gp].raw(),
                occupancy: input.occupancy,
                fifo_depth: self.fifo_depth,
                credits: self.credits[gp * self.vcs + hop.vc.index()],
                credit_cap: self.credit_cap[gp],
                worm_open: input.worm_open,
                dest: self.out_dest[gp],
            });
        }
        edges
    }
}

/// The switch and local port of global port `k`, given the switches'
/// port prefix sums.
fn locate(base: &[u32], k: usize) -> (usize, usize) {
    let s = base.partition_point(|&b| b as usize <= k) - 1;
    (s, k - base[s] as usize)
}
