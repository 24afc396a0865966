//! Traffic accounting.
//!
//! Counters live *inside* the per-node adjacency rows (`sim`'s
//! `LinkEntry`), not in a side map: a transmit updates the same cache
//! line it already touched for the link config and loss draws, and a
//! delivery re-indexes the row slot recorded in the event — zero map
//! lookups on the data path. The types here are read/reset *views* over
//! those rows; a view may span several shard cores (the parallel
//! simulator), in which case counters for one directed pair are summed
//! across shards (the sender's shard holds the sent/drop counters, the
//! receiver's shard holds the delivered counters of cross-shard pairs).

use crate::node::NodeId;
use crate::sim::SimCore;

/// Counters for one directed node pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Datagrams handed to the link (including ones later dropped).
    pub datagrams: u64,
    /// Payload bytes handed to the link (including ones later dropped).
    pub bytes: u64,
    /// Datagrams dropped by random loss.
    pub dropped_loss: u64,
    /// Datagrams actually delivered.
    pub delivered: u64,
    /// Payload bytes actually delivered.
    pub delivered_bytes: u64,
}

impl LinkStats {
    /// Accumulates `other` into `self` (merging shard-local counters).
    pub(crate) fn merge(&mut self, other: &LinkStats) {
        self.datagrams += other.datagrams;
        self.bytes += other.bytes;
        self.dropped_loss += other.dropped_loss;
        self.delivered += other.delivered;
        self.delivered_bytes += other.delivered_bytes;
    }
}

/// Read-only view of per-directed-pair traffic statistics, merged over
/// one (single-threaded) or several (parallel) shard cores.
///
/// The update-traffic experiments (E5–E7) read these to compare the bytes
/// and message counts of request/response DNS against publish/subscribe.
pub struct TrafficStats<'a> {
    pub(crate) cores: Vec<&'a SimCore>,
}

impl TrafficStats<'_> {
    /// Stats for the directed pair `src -> dst`.
    pub fn between(&self, src: NodeId, dst: NodeId) -> LinkStats {
        let mut out = LinkStats::default();
        for c in &self.cores {
            c.pair_stats_into(src, dst, &mut out);
        }
        out
    }

    /// Total bytes handed to all links.
    pub fn total_bytes(&self) -> u64 {
        self.fold(|s| s.bytes)
    }

    /// Total datagrams handed to all links.
    pub fn total_datagrams(&self) -> u64 {
        self.fold(|s| s.datagrams)
    }

    /// Total bytes sent by `src` to anyone.
    pub fn bytes_out_of(&self, src: NodeId) -> u64 {
        self.filter_fold(|(s, _)| s == src, |st| st.bytes)
    }

    fn fold(&self, f: impl Fn(&LinkStats) -> u64) -> u64 {
        let mut total = 0;
        for c in &self.cores {
            c.for_each_pair_stats(|_, s| total += f(&s));
        }
        total
    }

    fn filter_fold(
        &self,
        keep: impl Fn((NodeId, NodeId)) -> bool,
        f: impl Fn(&LinkStats) -> u64,
    ) -> u64 {
        let mut total = 0;
        for c in &self.cores {
            c.for_each_pair_stats(|pair, s| {
                if keep(pair) {
                    total += f(&s)
                }
            });
        }
        total
    }
}

/// Mutable handle over the traffic counters (e.g. to reset after a
/// warm-up phase), spanning every shard core of the simulator it came
/// from.
pub struct TrafficStatsMut<'a> {
    pub(crate) cores: Vec<&'a mut SimCore>,
}

impl TrafficStatsMut<'_> {
    /// Resets all counters (e.g. after a warm-up phase).
    pub fn reset(&mut self) {
        for c in self.cores.iter_mut() {
            c.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::link::LinkConfig;
    use crate::node::{Addr, Ctx, Node, NodeId};
    use crate::sim::Simulator;
    use moqdns_wire::Payload;
    use std::any::Any;

    struct Sink;
    impl Node for Sink {
        fn on_datagram(&mut self, _: &mut Ctx<'_>, _: Addr, _: u16, _: Payload) {}
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    fn world() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(1);
        sim.set_default_link(LinkConfig::instant());
        let a = sim.add_node("a", Box::new(Sink));
        let b = sim.add_node("b", Box::new(Sink));
        (sim, a, b)
    }

    #[test]
    fn accumulates_per_pair() {
        let (mut sim, a, b) = world();
        sim.set_link_directed(a, b, LinkConfig::instant().loss(1.0));
        sim.with_node::<Sink, _>(a, |_, ctx| {
            ctx.send(1, Addr::new(b, 1), vec![0; 60]);
        });
        sim.set_link_directed(a, b, LinkConfig::instant());
        sim.with_node::<Sink, _>(a, |_, ctx| {
            ctx.send(1, Addr::new(b, 1), vec![0; 50]);
            ctx.send(1, Addr::new(b, 1), vec![0; 100]);
        });
        sim.with_node::<Sink, _>(b, |_, ctx| {
            ctx.send(1, Addr::new(a, 1), vec![0; 10]);
        });
        sim.run_until_idle();

        let s01 = sim.stats().between(a, b);
        assert_eq!(s01.datagrams, 3);
        assert_eq!(s01.bytes, 210);
        assert_eq!(s01.delivered, 2);
        assert_eq!(s01.delivered_bytes, 150);
        assert_eq!(s01.dropped_loss, 1);

        assert_eq!(sim.stats().total_bytes(), 220);
        assert_eq!(sim.stats().total_datagrams(), 4);
        assert_eq!(sim.stats().bytes_out_of(a), 210);
        assert_eq!(sim.stats().between(b, a).delivered, 1);
    }

    #[test]
    fn unknown_pair_is_zero() {
        let (sim, a, b) = world();
        assert_eq!(sim.stats().between(b, a), super::LinkStats::default());
    }

    #[test]
    fn reset_clears() {
        let (mut sim, a, b) = world();
        sim.with_node::<Sink, _>(a, |_, ctx| {
            ctx.send(1, Addr::new(b, 1), vec![0; 100]);
        });
        sim.run_until_idle();
        assert_eq!(sim.stats().total_bytes(), 100);
        sim.stats_mut().reset();
        assert_eq!(sim.stats().total_bytes(), 0);
        assert_eq!(sim.stats().between(a, b).delivered, 0);
    }
}
