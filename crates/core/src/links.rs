//! Upstream link management for relays: N parents **and** M federated
//! peer cores, one [`MoqtStack`] connection each, with reconnect and
//! subscription replay — one dial/queue/replay/reconnect machine for both
//! link classes.
//!
//! [`RelayCore`](moqdns_moqt::relay::RelayCore) decides *which* link a
//! track should ride (its `RoutePolicy` for parents, its federation shard
//! map for peers); this module owns the *how*: dialing the remote,
//! queueing subscriptions until the session is ready, replaying the queue
//! on `Ready`, tracking upstream request ids, and clearing everything
//! when a connection dies so the next subscribe redials. Links are
//! addressed by [`LinkId`] in the core's order — parents first
//! (`0..parent_count`), then peers — so the node-side plumbing never
//! needs to know a link's class except when issuing a budgeted peer
//! fetch. It is deliberately independent of `RelayNode` so any future
//! node that needs several upstreams (multi-homed recursive resolvers,
//! inter-region bridges) can reuse it.

use crate::stack::MoqtStack;
use crate::MOQT_PORT;
use moqdns_moqt::relay::{DialStats, LinkId};
use moqdns_moqt::track::FullTrackName;
use moqdns_netsim::{Addr, Ctx};
use moqdns_quic::ConnHandle;
use std::collections::BTreeMap;

/// State for one upstream link (parent or peer).
#[derive(Debug)]
struct LinkState {
    /// Remote node address (the MoQT port is applied when dialing).
    remote: Addr,
    /// Live (or in-progress) connection to the remote.
    conn: Option<ConnHandle>,
    /// Upstream subscribe request id -> track.
    subs: BTreeMap<u64, FullTrackName>,
    /// track -> upstream subscribe request id (for teardown).
    by_track: BTreeMap<FullTrackName, u64>,
    /// Upstream fetch request id -> (track, requested group range). The
    /// downstream fetches waiting on the result live in `RelayCore`'s
    /// pending-fetch table (one entry per track, with a waiter list), so
    /// this map only recovers the track identity — and the range the
    /// answer covers — when the response arrives.
    fetches: BTreeMap<u64, (FullTrackName, u64, u64)>,
    /// Tracks to subscribe once the session object exists.
    queued: Vec<FullTrackName>,
}

impl LinkState {
    fn new(remote: Addr) -> LinkState {
        LinkState {
            remote,
            conn: None,
            subs: BTreeMap::new(),
            by_track: BTreeMap::new(),
            fetches: BTreeMap::new(),
            queued: Vec::new(),
        }
    }
}

/// Manager for a relay's (or any multi-homed node's) upstream
/// connections: one slot per parent and per federated peer, addressed by
/// [`LinkId`] (parents first, then peers — the same order `RelayCore`
/// uses).
#[derive(Debug)]
pub struct Links {
    links: Vec<LinkState>,
    /// Links `0..parents` are parent uplinks; the rest are peers.
    parents: usize,
    /// Redials and failed dials. Cumulative: they survive
    /// [`Links::reset`] — a revived node keeps its history — so chaos
    /// drills can gate redial storms over a whole run.
    stats: DialStats,
}

impl Links {
    /// One parent slot per address, in route-policy index order, with no
    /// peer links (the classic pre-federation shape).
    pub fn new(parents: Vec<Addr>) -> Links {
        let parents_n = parents.len();
        Links {
            links: parents.into_iter().map(LinkState::new).collect(),
            parents: parents_n,
            stats: DialStats::default(),
        }
    }

    /// Appends peer links after the parents, in federation shard order
    /// (self omitted).
    pub fn add_peers(&mut self, peers: Vec<Addr>) {
        assert_eq!(
            self.links.len(),
            self.parents,
            "peers must be added before any reconfiguration"
        );
        self.links.extend(peers.into_iter().map(LinkState::new));
    }

    /// Number of configured links (parents + peers).
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no links are configured.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Number of parent uplinks (links `0..n`).
    pub fn parent_count(&self) -> usize {
        self.parents
    }

    /// Number of federated peer links (links `parent_count()..len()`).
    pub fn peer_count(&self) -> usize {
        self.links.len() - self.parents
    }

    /// Which link (if any) owns connection `h`.
    pub fn classify(&self, h: ConnHandle) -> Option<LinkId> {
        self.links.iter().position(|l| l.conn == Some(h))
    }

    /// Live upstream subscriptions on `id`.
    pub fn sub_count(&self, id: LinkId) -> usize {
        self.links.get(id).map(|l| l.subs.len()).unwrap_or(0)
    }

    /// Live upstream subscriptions across all links (§3 aggregation:
    /// this is the relay's total upstream cost).
    pub fn total_subs(&self) -> usize {
        self.links.iter().map(|l| l.subs.len()).sum()
    }

    /// Live upstream subscriptions riding parent uplinks — the traffic
    /// the origin side of the hierarchy still carries.
    pub fn parent_subs(&self) -> usize {
        self.links[..self.parents]
            .iter()
            .map(|l| l.subs.len())
            .sum()
    }

    /// Live upstream subscriptions riding federated peer links — demand
    /// served region-to-region instead of through the origin.
    pub fn peer_subs(&self) -> usize {
        self.links[self.parents..]
            .iter()
            .map(|l| l.subs.len())
            .sum()
    }

    /// The track an upstream subscription id on `id` belongs to.
    pub fn track_for_sub(&self, id: LinkId, request_id: u64) -> Option<&FullTrackName> {
        self.links.get(id)?.subs.get(&request_id)
    }

    /// Removes and returns the track and requested group range of
    /// upstream fetch `request_id` on link `id`.
    pub fn take_fetch(&mut self, id: LinkId, request_id: u64) -> Option<(FullTrackName, u64, u64)> {
        self.links.get_mut(id)?.fetches.remove(&request_id)
    }

    fn ensure_conn(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &mut MoqtStack,
        id: LinkId,
    ) -> Option<ConnHandle> {
        let link = self.links.get_mut(id)?;
        match link.conn {
            Some(h) if stack.session(h).is_some() => Some(h),
            _ => {
                let remote = link.remote;
                match stack.connect(ctx.now(), Addr::new(remote.node, MOQT_PORT), true) {
                    Some(h) => {
                        link.conn = Some(h);
                        Some(h)
                    }
                    None => {
                        self.stats.failed_dials += 1;
                        None
                    }
                }
            }
        }
    }

    /// Subscribes to `track` on link `id`, dialing the remote if needed.
    /// If the session object is not available yet the track is queued and
    /// replayed from [`Links::on_session_ready`].
    pub fn subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &mut MoqtStack,
        id: LinkId,
        track: FullTrackName,
    ) {
        let Some(h) = self.ensure_conn(ctx, stack, id) else {
            if let Some(link) = self.links.get_mut(id) {
                link.queued.push(track);
            }
            return;
        };
        let link = &mut self.links[id];
        if link.by_track.contains_key(&track) {
            return;
        }
        // CLIENT_SETUP may still be in flight; MoQT control messages queue
        // on the stream, so subscribing immediately is safe either way —
        // but we only subscribe once the session object exists.
        let Some((session, conn)) = stack.session_conn(h) else {
            link.queued.push(track);
            return;
        };
        let sub_id = session.subscribe(conn, track.clone());
        link.subs.insert(sub_id, track.clone());
        link.by_track.insert(track, sub_id);
    }

    /// Drops the upstream subscription for `track` on link `id`.
    pub fn unsubscribe(&mut self, stack: &mut MoqtStack, id: LinkId, track: &FullTrackName) {
        let Some(link) = self.links.get_mut(id) else {
            return;
        };
        link.queued.retain(|t| t != track);
        if let Some(sub_id) = link.by_track.remove(track) {
            link.subs.remove(&sub_id);
            if let Some(h) = link.conn {
                if let Some((session, conn)) = stack.session_conn(h) {
                    session.unsubscribe(conn, sub_id);
                }
            }
        }
    }

    /// Issues an upstream fetch for `track` on link `id`. Returns false
    /// when no connection could be established (the caller should fail the
    /// pending fetch, rejecting its waiters).
    pub fn fetch(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &mut MoqtStack,
        id: LinkId,
        track: FullTrackName,
        start_group: u64,
        end_group: u64,
    ) -> bool {
        let Some(h) = self.ensure_conn(ctx, stack, id) else {
            return false;
        };
        let Some((session, conn)) = stack.session_conn(h) else {
            return false;
        };
        let fid = session.fetch(conn, track.clone(), start_group, end_group);
        self.links[id]
            .fetches
            .insert(fid, (track, start_group, end_group));
        true
    }

    /// Issues a budgeted federation fetch for `track` on peer link `id`
    /// (the wire carries `hop_budget` so the receiving core can bound
    /// further forwards). Returns false when no connection could be
    /// established.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_peer(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &mut MoqtStack,
        id: LinkId,
        track: FullTrackName,
        start_group: u64,
        end_group: u64,
        hop_budget: u64,
    ) -> bool {
        let Some(h) = self.ensure_conn(ctx, stack, id) else {
            return false;
        };
        let Some((session, conn)) = stack.session_conn(h) else {
            return false;
        };
        let fid = session.fetch_peer(conn, track.clone(), start_group, end_group, hop_budget);
        self.links[id]
            .fetches
            .insert(fid, (track, start_group, end_group));
        true
    }

    /// Dials the remote behind link `id` if no connection attempt is
    /// live, abandoning a stalled previous attempt first. Used by the
    /// owning node's recovery probe: once the dial completes, the session
    /// `Ready` event flows back through `classify` and the core marks the
    /// link healthy (triggering rebalancing) — identically for parents
    /// and peers.
    pub fn redial(&mut self, ctx: &mut Ctx<'_>, stack: &mut MoqtStack, id: LinkId) {
        let Some(link) = self.links.get_mut(id) else {
            return;
        };
        // A previous probe's dial may be stuck retransmitting its
        // handshake into a void (the QUIC PTO backoff is capped at
        // `MAX_PTO_BACKOFF`× base, but under an hour-long idle timeout a
        // stalled dial still probes forever); abandon it so each probe
        // starts a fresh, promptly-answered handshake.
        if let Some(h) = link.conn.take() {
            match stack.session(h) {
                Some(s) if s.is_ready() => {
                    link.conn = Some(h);
                    return;
                }
                Some(_) => stack.abandon(h),
                None => {}
            }
        }
        // Anything issued on the abandoned attempt never reached the
        // remote. Requeue its subscriptions so the fresh dial's `Ready`
        // replays them (via [`Links::on_session_ready`]) — without this a
        // single-uplink relay that resubscribed at close time onto its
        // own stalled dial comes back from an outage permanently deaf.
        // In-flight fetches died with the attempt; their waiters were
        // re-routed or rejected by the core's close handling.
        let stale: Vec<FullTrackName> = link.subs.values().cloned().collect();
        link.subs.clear();
        link.by_track.clear();
        link.fetches.clear();
        link.queued.extend(stale);
        self.stats.redials += 1;
        self.ensure_conn(ctx, stack, id);
    }

    /// Cumulative recovery counters.
    pub fn stats(&self) -> DialStats {
        self.stats
    }

    /// Forgets every connection, subscription, and in-flight fetch on
    /// every link (without sending anything). Used when the owning node
    /// is revived after a mid-run shutdown and must rebuild from scratch.
    pub fn reset(&mut self) {
        for link in &mut self.links {
            link.conn = None;
            link.subs.clear();
            link.by_track.clear();
            link.fetches.clear();
            link.queued.clear();
        }
    }

    /// The session on link `id` became ready: replays queued
    /// subscriptions.
    pub fn on_session_ready(&mut self, ctx: &mut Ctx<'_>, stack: &mut MoqtStack, id: LinkId) {
        let Some(link) = self.links.get_mut(id) else {
            return;
        };
        let queued = std::mem::take(&mut link.queued);
        for track in queued {
            self.subscribe(ctx, stack, id, track);
        }
    }

    /// The connection on link `id` closed: forgets it and every
    /// subscription/fetch riding it. Tracks are re-routed by
    /// `RelayCore::on_uplink_closed`, whose subscribe / fetch actions
    /// land back here and redial; in-flight fetches' waiters live in the
    /// core's pending-fetch table, which re-issues or rejects them there.
    pub fn on_closed(&mut self, id: LinkId) {
        let Some(link) = self.links.get_mut(id) else {
            return;
        };
        link.conn = None;
        link.subs.clear();
        link.by_track.clear();
        link.queued.clear();
        link.fetches.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqdns_netsim::NodeId;

    fn addr(i: usize) -> Addr {
        Addr::new(NodeId::from_index(i), MOQT_PORT)
    }

    #[test]
    fn classify_and_counts_empty() {
        let up = Links::new(vec![addr(1), addr(2)]);
        assert_eq!(up.len(), 2);
        assert!(!up.is_empty());
        assert_eq!(up.total_subs(), 0);
        assert_eq!(up.sub_count(0), 0);
        assert_eq!(up.classify(moqdns_quic::ConnHandle(77)), None);
    }

    #[test]
    fn on_closed_clears_everything() {
        let mut up = Links::new(vec![addr(1)]);
        let t = FullTrackName::new(vec![vec![1]], vec![2]).unwrap();
        up.links[0].fetches.insert(9, (t.clone(), 0, u64::MAX));
        up.links[0].subs.insert(1, t.clone());
        up.links[0].by_track.insert(t, 1);
        up.on_closed(0);
        assert_eq!(up.total_subs(), 0);
        assert!(up.links[0].conn.is_none());
        assert!(up.links[0].fetches.is_empty());
        assert_eq!(up.take_fetch(0, 9), None);
    }

    #[test]
    fn reset_forgets_all_links() {
        let mut up = Links::new(vec![addr(1), addr(2)]);
        let t = FullTrackName::new(vec![vec![1]], vec![2]).unwrap();
        up.links[1].fetches.insert(4, (t.clone(), 0, u64::MAX));
        up.links[1].subs.insert(2, t.clone());
        up.links[1].by_track.insert(t.clone(), 2);
        up.links[0].queued.push(t);
        up.reset();
        assert_eq!(up.total_subs(), 0);
        for l in &up.links {
            assert!(l.conn.is_none() && l.fetches.is_empty() && l.queued.is_empty());
        }
    }

    #[test]
    fn peers_extend_the_link_space_after_parents() {
        let mut up = Links::new(vec![addr(1)]);
        up.add_peers(vec![addr(2), addr(3)]);
        assert_eq!(up.len(), 3);
        assert_eq!(up.parent_count(), 1);
        assert_eq!(up.peer_count(), 2);
        let t = FullTrackName::new(vec![vec![1]], vec![2]).unwrap();
        up.links[0].subs.insert(1, t.clone());
        up.links[2].subs.insert(2, t);
        assert_eq!(up.parent_subs(), 1);
        assert_eq!(up.peer_subs(), 1);
        assert_eq!(up.total_subs(), 2);
    }
}
