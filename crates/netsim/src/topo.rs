//! Declarative topology construction: k-ary relay trees and multi-region
//! meshes with per-tier link configurations.
//!
//! Experiment binaries used to hand-wire every node and link; this module
//! turns a topology into data. A [`TopoBuilder`] describes tiers — node
//! count, how many parents each node attaches to in the tier above, and
//! the [`LinkConfig`] of those attachments — and [`TopoBuilder::build`]
//! instantiates it against a [`Simulator`], calling a caller-supplied
//! factory for each node (the simulator neither knows nor cares what the
//! nodes *are*; protocol crates layer meaning on top). The result is a
//! [`Topology`] handle that remembers tiers, parent sets, and edges so
//! tests can iterate `edges()` and assert per-link traffic invariants
//! (e.g. the §3 one-copy-per-link aggregation claim).
//!
//! Parent assignment is deterministic: child `j` of a tier with `M`
//! parents above it attaches to `j % M`, `(j/M + j) % M`… — fixed
//! round-robin, so identical specs always produce identical wiring and a
//! seeded simulation replays bit-identically.
//!
//! ```
//! use moqdns_netsim::{topo::TopoBuilder, LinkConfig, Simulator, Node, Ctx, Addr};
//! use std::any::Any;
//! use std::time::Duration;
//!
//! struct Silent;
//! impl Node for Silent {
//!     fn on_datagram(&mut self, _: &mut Ctx<'_>, _: Addr, _: u16, _: moqdns_netsim::Payload) {}
//!     fn as_any(&mut self) -> &mut dyn Any { self }
//!     fn as_any_ref(&self) -> &dyn Any { self }
//! }
//!
//! let mut sim = Simulator::new(1);
//! // 1 root, 2 mid relays, 4 leaves: a binary tree.
//! let topo = TopoBuilder::new()
//!     .tier("root", 1, 0, LinkConfig::instant())
//!     .tier("mid", 2, 1, LinkConfig::with_delay(Duration::from_millis(10)))
//!     .tier("leaf", 4, 1, LinkConfig::with_delay(Duration::from_millis(5)))
//!     .build(&mut sim, |sim, ctx| sim.add_node(ctx.name.clone(), Box::new(Silent)));
//! assert_eq!(topo.tier_named("mid").len(), 2);
//! assert_eq!(topo.edges().count(), 2 + 4);
//! let leaf = topo.tier_named("leaf")[3];
//! assert_eq!(topo.parents_of(leaf), &[topo.tier_named("mid")[1]]);
//! ```

use crate::link::LinkConfig;
use crate::node::NodeId;
use crate::par::ParSim;
use crate::sim::Simulator;
use std::collections::HashMap;

/// A simulation front-end [`TopoBuilder::build`] can instantiate a
/// topology against: the single-threaded [`Simulator`] or the sharded
/// [`ParSim`]. The builder itself only wires links — node creation goes
/// through the caller's factory, which receives the same host and (for a
/// sharded host) routes each node to its owning shard.
pub trait TopoHost {
    /// Sets both directions of the link between `a` and `b`.
    fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig);
}

impl TopoHost for Simulator {
    fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        Simulator::set_link(self, a, b, cfg);
    }
}

impl TopoHost for ParSim {
    fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        ParSim::set_link(self, a, b, cfg);
    }
}

/// How a tier's children pick their parents among the tier above.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ParentMode {
    /// Child `j` starts at parent `j % M` and walks forward — spreads
    /// primary attachments round-robin (trees, failover pairs).
    #[default]
    Rotate,
    /// Every child takes parents `[0..take]` in identical order — required
    /// when uplink *index* must name the same parent at every child, e.g.
    /// hash-shard meshes where shard `i` means "core relay `i`" globally.
    Aligned,
}

/// One tier of the topology.
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// Label ("root", "tier1", "edge", …).
    pub name: String,
    /// Number of nodes at this tier.
    pub count: usize,
    /// How many parents in the tier above each node attaches to
    /// (0 for the top tier; >1 builds a mesh for sharding/failover).
    pub parents_per_node: usize,
    /// Link configuration applied in both directions between a node and
    /// each of its parents.
    pub link: LinkConfig,
    /// Parent pick order (rotate round-robin vs. globally aligned).
    pub parent_mode: ParentMode,
}

/// Context handed to the node factory for each node being created.
#[derive(Debug)]
pub struct TopoCtx<'a> {
    /// Tier index (0 = top).
    pub tier: usize,
    /// Tier label.
    pub tier_name: &'a str,
    /// Index of this node within its tier.
    pub index: usize,
    /// Parents this node attaches to (already created, in preference
    /// order: `parents[0]` is the primary).
    pub parents: &'a [NodeId],
    /// Suggested simulator node name (`"<tier><index>"`).
    pub name: String,
}

/// One intra-tier peer interconnect (cross-region core federation: cores
/// serving each other, not only the origin above them): which tier, and
/// the link configuration of the peer edges (inter-region links are
/// typically slower than intra-region attachments — give them their own
/// config so the latency asymmetry is visible in results). Every
/// unordered pair of the tier's members is linked — what a fetch-anywhere
/// federation needs so any core reaches any home core in one hop.
#[derive(Debug, Clone)]
pub struct PeerSpec {
    /// Tier label the interconnect applies to.
    pub tier: String,
    /// Link configuration of every peer edge (both directions).
    pub link: LinkConfig,
}

/// Declarative builder for tiered topologies.
#[derive(Debug, Default)]
pub struct TopoBuilder {
    tiers: Vec<TierSpec>,
    peerings: Vec<PeerSpec>,
}

impl TopoBuilder {
    /// An empty topology.
    pub fn new() -> TopoBuilder {
        TopoBuilder::default()
    }

    /// Appends a tier below the previously added ones (rotating
    /// round-robin parent assignment).
    pub fn tier(
        self,
        name: impl Into<String>,
        count: usize,
        parents_per_node: usize,
        link: LinkConfig,
    ) -> TopoBuilder {
        self.tier_with_mode(name, count, parents_per_node, link, ParentMode::Rotate)
    }

    /// Appends a tier with an explicit [`ParentMode`].
    pub fn tier_with_mode(
        mut self,
        name: impl Into<String>,
        count: usize,
        parents_per_node: usize,
        link: LinkConfig,
        parent_mode: ParentMode,
    ) -> TopoBuilder {
        self.tiers.push(TierSpec {
            name: name.into(),
            count,
            parents_per_node,
            link,
            parent_mode,
        });
        self
    }

    /// Interconnects the members of the tier labelled `tier` as a full
    /// mesh over `link` (every unordered pair linked).
    pub fn peer_full_mesh(mut self, tier: impl Into<String>, link: LinkConfig) -> TopoBuilder {
        self.peerings.push(PeerSpec {
            tier: tier.into(),
            link,
        });
        self
    }

    /// Convenience: a deep relay chain — the paper's "5 MoQ relays on
    /// average" distribution path as one call. One root named
    /// `root_name`, then `hops` single-relay tiers named `hop1..hopN`,
    /// each attached to the tier above over `link`. Append a leaf tier
    /// (`.tier("stub", …)`) for subscribers.
    pub fn chain(root_name: impl Into<String>, hops: usize, link: LinkConfig) -> TopoBuilder {
        let mut b = TopoBuilder::new().tier(root_name, 1, 0, link);
        for i in 1..=hops {
            b = b.tier(format!("hop{i}"), 1, 1, link);
        }
        b
    }

    /// Convenience: a multi-region hash-shard mesh — one origin named
    /// `origin_name`, a `core` tier of `cores` relays attached to it, and
    /// an `edge` tier of `regions * edges_per_region` relays, each
    /// attached to **all** cores in *aligned* order (uplink `i` is core
    /// `i` at every edge, so a track's hash shard names the same core
    /// everywhere). Edge `j` belongs to region `j / edges_per_region`.
    /// Append a leaf tier for subscribers.
    pub fn mesh(
        origin_name: impl Into<String>,
        cores: usize,
        regions: usize,
        edges_per_region: usize,
        link: LinkConfig,
    ) -> TopoBuilder {
        TopoBuilder::new()
            .tier(origin_name, 1, 0, link)
            .tier("core", cores, 1, link)
            .tier_with_mode(
                "edge",
                regions * edges_per_region,
                cores,
                link,
                ParentMode::Aligned,
            )
    }

    /// Instantiates the topology: calls `factory` once per node
    /// (top tier first, then tier by tier, index order within a tier) and
    /// wires each node to its parents with the tier's link config.
    ///
    /// The factory receives a [`TopoCtx`] naming the node's tier, index,
    /// and parents, and must add exactly one node to `sim` and return its
    /// id. `sim` is any [`TopoHost`] — a plain [`Simulator`] or a sharded
    /// [`ParSim`]; creation and wiring order are identical either way, so
    /// a seeded world replays bit-identically on both.
    pub fn build<S: TopoHost>(
        self,
        sim: &mut S,
        mut factory: impl FnMut(&mut S, &TopoCtx<'_>) -> NodeId,
    ) -> Topology {
        let mut tiers: Vec<(String, Vec<NodeId>)> = Vec::with_capacity(self.tiers.len());
        let mut parents_map: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for (ti, spec) in self.tiers.iter().enumerate() {
            let above: &[NodeId] = if ti == 0 { &[] } else { &tiers[ti - 1].1 };
            let mut ids = Vec::with_capacity(spec.count);
            for j in 0..spec.count {
                let parents = assign_parents(j, spec.parents_per_node, above, spec.parent_mode);
                let ctx = TopoCtx {
                    tier: ti,
                    tier_name: &spec.name,
                    index: j,
                    parents: &parents,
                    name: format!("{}{}", spec.name, j),
                };
                let id = factory(sim, &ctx);
                for &p in &parents {
                    sim.set_link(id, p, spec.link);
                }
                parents_map.insert(id, parents);
                ids.push(id);
            }
            tiers.push((spec.name.clone(), ids));
        }
        // Intra-tier peer interconnects (after every member exists).
        let mut peer_edges: Vec<(NodeId, NodeId)> = Vec::new();
        for p in &self.peerings {
            let members: &[NodeId] = tiers
                .iter()
                .find(|(n, _)| *n == p.tier)
                .map(|(_, t)| t.as_slice())
                .unwrap_or(&[]);
            let n = members.len();
            let mut wire = |a: NodeId, b: NodeId| {
                sim.set_link(a, b, p.link);
                peer_edges.push((a, b));
            };
            for i in 0..n {
                for j in i + 1..n {
                    wire(members[i], members[j]);
                }
            }
        }
        Topology {
            tiers,
            parents: parents_map,
            peer_edges,
        }
    }
}

/// Deterministic parent pick. `Rotate`: primary is round-robin (`j % M`),
/// extra parents walk forward from the primary, never repeating.
/// `Aligned`: every child takes `above[0..take]` in identical order.
fn assign_parents(j: usize, want: usize, above: &[NodeId], mode: ParentMode) -> Vec<NodeId> {
    let m = above.len();
    if m == 0 || want == 0 {
        return Vec::new();
    }
    let take = want.min(m);
    match mode {
        ParentMode::Rotate => (0..take).map(|s| above[(j + s) % m]).collect(),
        ParentMode::Aligned => above[..take].to_vec(),
    }
}

/// The built topology: tier membership, parent sets, and edges.
#[derive(Debug, Clone)]
pub struct Topology {
    tiers: Vec<(String, Vec<NodeId>)>,
    parents: HashMap<NodeId, Vec<NodeId>>,
    /// Intra-tier peer interconnect edges (unordered pairs, wiring order).
    peer_edges: Vec<(NodeId, NodeId)>,
}

impl Topology {
    /// Nodes at tier `i` (0 = top).
    pub fn tier(&self, i: usize) -> &[NodeId] {
        &self.tiers[i].1
    }

    /// Nodes of the tier labelled `name` (empty slice when absent).
    pub fn tier_named(&self, name: &str) -> &[NodeId] {
        self.tiers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_slice())
            .unwrap_or(&[])
    }

    /// The parents of `node`, primary first.
    pub fn parents_of(&self, node: NodeId) -> &[NodeId] {
        self.parents.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The primary (first) parent of `node`.
    pub fn primary_parent(&self, node: NodeId) -> Option<NodeId> {
        self.parents_of(node).first().copied()
    }

    /// Every (parent, child) attachment in the topology, top-down.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.tiers.iter().flat_map(move |(_, tier)| {
            tier.iter()
                .flat_map(move |&child| self.parents_of(child).iter().map(move |&p| (p, child)))
        })
    }

    /// Every intra-tier peer interconnect edge (core federation wiring),
    /// as unordered pairs in wiring order.
    pub fn peer_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.peer_edges.iter().copied()
    }

    /// Every *primary* (parent, child) edge — the distribution tree used
    /// by single-parent routing even when extra failover parents exist.
    pub fn primary_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.tiers.iter().flat_map(move |(_, tier)| {
            tier.iter()
                .filter_map(move |&child| self.primary_parent(child).map(|p| (p, child)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Addr, Ctx, Node};
    use std::any::Any;
    use std::time::Duration;

    struct Silent;
    impl Node for Silent {
        fn on_datagram(&mut self, _: &mut Ctx<'_>, _: Addr, _: u16, _: crate::Payload) {}
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    fn silent(sim: &mut Simulator, ctx: &TopoCtx<'_>) -> NodeId {
        sim.add_node(ctx.name.clone(), Box::new(Silent))
    }

    #[test]
    fn three_tier_tree_shape() {
        let mut sim = Simulator::new(1);
        let topo = TopoBuilder::new()
            .tier("auth", 1, 0, LinkConfig::instant())
            .tier(
                "tier1",
                2,
                1,
                LinkConfig::with_delay(Duration::from_millis(10)),
            )
            .tier(
                "edge",
                4,
                1,
                LinkConfig::with_delay(Duration::from_millis(5)),
            )
            .build(&mut sim, silent);
        assert_eq!(topo.tiers.len(), 3);
        assert_eq!(topo.tiers.iter().map(|(_, t)| t.len()).sum::<usize>(), 7);
        assert_eq!(topo.tier(0).len(), 1);
        assert_eq!(topo.tier_named("edge").len(), 4);
        assert!(topo.tier_named("nope").is_empty());
        // Round-robin: edges 0,2 under tier1[0]; edges 1,3 under tier1[1].
        let t1 = topo.tier_named("tier1");
        let edge = topo.tier_named("edge");
        assert_eq!(topo.primary_parent(edge[0]), Some(t1[0]));
        assert_eq!(topo.primary_parent(edge[1]), Some(t1[1]));
        assert_eq!(topo.primary_parent(edge[2]), Some(t1[0]));
        assert_eq!(topo.primary_parent(edge[3]), Some(t1[1]));
        // The root has no parents.
        assert!(topo.parents_of(topo.tier(0)[0]).is_empty());
        assert_eq!(topo.edges().count(), 6);
        assert_eq!(topo.primary_edges().count(), 6);
    }

    #[test]
    fn mesh_tier_gets_multiple_parents() {
        let mut sim = Simulator::new(1);
        let topo = TopoBuilder::new()
            .tier("core", 3, 0, LinkConfig::instant())
            .tier("edge", 4, 2, LinkConfig::instant())
            .build(&mut sim, silent);
        for &e in topo.tier_named("edge") {
            let ps = topo.parents_of(e);
            assert_eq!(ps.len(), 2);
            assert_ne!(ps[0], ps[1], "distinct parents");
        }
        // parents_per_node is clamped to the tier-above size.
        let mut sim2 = Simulator::new(1);
        let topo2 = TopoBuilder::new()
            .tier("core", 1, 0, LinkConfig::instant())
            .tier("edge", 2, 5, LinkConfig::instant())
            .build(&mut sim2, silent);
        assert_eq!(topo2.parents_of(topo2.tier_named("edge")[0]).len(), 1);
    }

    #[test]
    fn chain_convenience_builds_deep_path() {
        let mut sim = Simulator::new(1);
        let topo = TopoBuilder::chain("auth", 5, LinkConfig::instant())
            .tier("stub", 3, 1, LinkConfig::instant())
            .build(&mut sim, silent);
        // 1 origin + 5 relay hops + 3 stubs.
        assert_eq!(topo.tiers.len(), 7);
        assert_eq!(topo.tiers.iter().map(|(_, t)| t.len()).sum::<usize>(), 9);
        for i in 1..=5 {
            let tier = topo.tier_named(&format!("hop{i}"));
            assert_eq!(tier.len(), 1);
            assert_eq!(topo.parents_of(tier[0]).len(), 1);
        }
        // The chain is a straight line: hop5's parent is hop4 and so on
        // up to the origin.
        assert_eq!(
            topo.primary_parent(topo.tier_named("hop5")[0]),
            Some(topo.tier_named("hop4")[0])
        );
        assert_eq!(
            topo.primary_parent(topo.tier_named("hop1")[0]),
            Some(topo.tier_named("auth")[0])
        );
    }

    #[test]
    fn mesh_convenience_aligns_edge_uplinks() {
        let mut sim = Simulator::new(1);
        let topo = TopoBuilder::mesh("origin", 3, 2, 2, LinkConfig::instant())
            .tier("stub", 4, 1, LinkConfig::instant())
            .build(&mut sim, silent);
        let cores = topo.tier_named("core");
        assert_eq!(cores.len(), 3);
        let edges = topo.tier_named("edge");
        assert_eq!(edges.len(), 4, "2 regions x 2 edges");
        // Aligned: uplink i names core i at EVERY edge — the property
        // hash sharding needs for shard indices to be globally meaningful.
        for &e in edges {
            assert_eq!(topo.parents_of(e), cores);
        }
        // Every core attaches to the single origin.
        let origin = topo.tier_named("origin")[0];
        for &c in cores {
            assert_eq!(topo.parents_of(c), &[origin]);
        }
    }

    #[test]
    fn peer_full_mesh_wires_all_pairs() {
        let mut sim = Simulator::new(1);
        let topo = TopoBuilder::new()
            .tier("core", 4, 0, LinkConfig::instant())
            .peer_full_mesh("core", LinkConfig::with_delay(Duration::from_millis(40)))
            .build(&mut sim, silent);
        assert_eq!(topo.peer_edges().count(), 6, "C(4,2) pairs");
        for &c in topo.tier_named("core") {
            let peers = topo.peer_edges().filter(|&(a, b)| a == c || b == c);
            assert_eq!(peers.count(), 3, "every other core is a peer");
        }
        // An unknown tier name peers nothing.
        let mut sim2 = Simulator::new(1);
        let topo2 = TopoBuilder::new()
            .tier("core", 2, 0, LinkConfig::instant())
            .peer_full_mesh("nope", LinkConfig::instant())
            .build(&mut sim2, silent);
        assert_eq!(topo2.peer_edges().count(), 0);
    }

    #[test]
    fn deterministic_wiring() {
        let build = || {
            let mut sim = Simulator::new(9);
            let topo = TopoBuilder::new()
                .tier("a", 2, 0, LinkConfig::instant())
                .tier("b", 5, 2, LinkConfig::instant())
                .build(&mut sim, silent);
            topo.edges().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn factory_sees_context() {
        let mut sim = Simulator::new(1);
        let mut seen = Vec::new();
        TopoBuilder::new()
            .tier("x", 1, 0, LinkConfig::instant())
            .tier("y", 2, 1, LinkConfig::instant())
            .build(&mut sim, |sim, ctx| {
                seen.push((ctx.tier, ctx.index, ctx.name.clone(), ctx.parents.len()));
                sim.add_node(ctx.name.clone(), Box::new(Silent))
            });
        assert_eq!(
            seen,
            vec![
                (0, 0, "x0".into(), 0),
                (1, 0, "y0".into(), 1),
                (1, 1, "y1".into(), 1),
            ]
        );
    }
}
