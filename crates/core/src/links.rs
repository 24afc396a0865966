//! The subscriber side of pub/sub DNS, written once: one [`Link`] to one
//! upstream, and [`Newest`], the rule for what a subscriber keeps.
//!
//! The paper trades TTL expiry for a subscription the resolver holds
//! (§5.2) and must re-establish after a connection loss (§4.4). Every
//! node that is somebody's subscriber does that through a [`Link`]: dial
//! the remote if no session is live, SUBSCRIBE (plain, or with a joining
//! FETCH) at most once per key, FETCH, map the request ids of the answers
//! back to what was asked, notice that a `Closed` is its own, hand back
//! what was held, redial and replay. The link is generic over the key its
//! node holds things under, and never looks inside it.
//!
//! # Who holds a link
//!
//! | node | key `K` | a fetch resolves to `F` |
//! |---|---|---|
//! | [`RelayNode`](crate::relay_node::RelayNode), via [`Links`]: one per parent, then one per federated peer | the track | the track and the group range asked for |
//! | [`StubResolver`](crate::stub::StubResolver) | the question | the question and when the lookup started |
//! | [`Forwarder`](crate::forwarder::Forwarder) | question + header flags | the same |
//! | [`TreeStub`](crate::tree_stub::TreeStub) | index of the question | nothing |
//!
//! [`RecursiveResolver`](crate::recursive::RecursiveResolver) does *not*:
//! its upstream subscriptions belong to resolution steps against whichever
//! authority a referral named, so it keeps its own per-authority
//! connection table. It shares only [`Newest`].
//!
//! # Two policies stay with the node
//!
//! The link has no timer and takes no policy: *when* to redial and *when*
//! to replay differ between nodes for a reason, so they are the calls the
//! node makes.
//!
//! * **When to redial.** A relay probes an uplink it believes down with a
//!   capped, jittered backoff and [`Link::redial`]s unless the session is
//!   ready — abandoning a dial that stalled, because under an hour-long
//!   idle timeout a handshake into a void retransmits for ever. A stub
//!   arms a fixed delay when `Closed` arrives and redials only if no
//!   session exists by then — a dial already in progress (a fresh lookup
//!   got there first) is kept.
//! * **When to replay.** [`Link::redial`] moves what was held into the
//!   link's queue. A relay [`Link::replay`]s at `Ready`: its core has
//!   re-routed the tracks meanwhile and the replay only fills in what the
//!   abandoned attempt had swallowed. A stub replays at the dial: the
//!   session holds the requests until they may leave, so they ride with
//!   CLIENT_SETUP.
//!
//! The queue is the only one there is. A request issued on a connection
//! that is still establishing is not queued here — `MoqtStack::connect`
//! returns a started session and that session holds requests back itself.
//!
//! The reverse lookup (key → request id) is a scan of the one table: a
//! link holds what its own node asked for, and the per-subscription
//! tables of ten thousand leaf stubs are what resident memory is made of.
//! A relay that homes 10⁵ tracks on one uplink will want an index back.

use crate::stack::MoqtStack;
use crate::MOQT_PORT;
use moqdns_moqt::relay::{DialStats, LinkId};
use moqdns_moqt::track::FullTrackName;
use moqdns_netsim::{Addr, Ctx};
use moqdns_quic::ConnHandle;
use moqdns_wire::VecMap;

/// Newest version wins (§4.2: the group id is the zone version): what one
/// subscription has delivered for its track, and the one place that
/// decides whether an arriving object replaces it. The scope is the
/// subscription — the objects that can overtake each other share a
/// connection — so a node starts a new subscription from
/// `Newest::default()`; a restarted publisher may number from 1 again.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Newest(Option<u64>);

impl Newest {
    /// Holding `version`.
    pub fn at(version: u64) -> Newest {
        Newest(Some(version))
    }

    /// The version held, if any.
    pub fn version(self) -> Option<u64> {
        self.0
    }

    /// A pushed object is admitted iff it is newer than what is held:
    /// each push rides its own uni stream, so a retransmitted one can
    /// arrive after its successor and must lose.
    pub fn admit_push(&mut self, version: u64) -> bool {
        self.admit(version, true)
    }

    /// A fetch answer is admitted iff it is not older than what is held:
    /// it may restate the held version, but a fetch overtaken by a newer
    /// push must not regress it.
    pub fn admit_fetch(&mut self, version: u64) -> bool {
        self.admit(version, false)
    }

    fn admit(&mut self, version: u64, only_newer: bool) -> bool {
        let admitted = self
            .0
            .is_none_or(|held| version > held || (version == held && !only_newer));
        if admitted {
            self.0 = Some(version);
        }
        admitted
    }
}

/// What [`Link::subscribe`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subscribed {
    /// SUBSCRIBE was issued under this request id (the session sends it
    /// as soon as it may).
    Issued(u64),
    /// The key is already held. A track is never subscribed twice: every
    /// later push would arrive twice.
    AlreadyHeld,
    /// No connection to the remote could be made; nothing was issued.
    Unreachable,
}

/// One link to one upstream: the connection, what is subscribed and being
/// fetched on it, and what to re-subscribe on the next one (see the
/// module docs).
#[derive(Debug)]
pub struct Link<K, F = ()> {
    /// Remote node address (the MoQT port is applied when dialing).
    remote: Addr,
    /// Whether a dial may resume with a stored 0-RTT ticket.
    use_ticket: bool,
    /// Live (or in-progress) connection to the remote.
    conn: Option<ConnHandle>,
    /// Our subscribe request id -> key, for this connection only.
    subs: VecMap<u64, K>,
    /// Our fetch request id -> what its answer resolves to.
    fetches: VecMap<u64, F>,
    /// Keys to subscribe on [`Link::replay`].
    queued: Vec<K>,
    /// Cumulative: survives [`Link::reset`] — a revived node keeps its
    /// history — so chaos drills can gate redial storms over a whole run.
    stats: DialStats,
}

impl<K: PartialEq + Clone, F> Link<K, F> {
    /// A link to `remote`, not yet dialed.
    pub fn new(remote: Addr, use_ticket: bool) -> Link<K, F> {
        Link {
            remote,
            use_ticket,
            conn: None,
            subs: VecMap::new(),
            fetches: VecMap::new(),
            queued: Vec::new(),
            stats: DialStats::default(),
        }
    }

    /// Whether `h` is this link's connection — "is this `Closed` mine?".
    /// A stale handle closing (an abandoned earlier attempt) is nobody's.
    pub fn owns(&self, h: ConnHandle) -> bool {
        self.conn == Some(h)
    }

    /// The current connection attempt, whatever became of it.
    pub fn conn(&self) -> Option<ConnHandle> {
        self.conn
    }

    /// Whether the link has a session, ready or still establishing.
    pub fn has_session(&self, stack: &MoqtStack) -> bool {
        self.conn.is_some_and(|h| stack.session(h).is_some())
    }

    /// Whether the link's session finished its set-up.
    pub fn is_ready(&self, stack: &MoqtStack) -> bool {
        self.conn
            .and_then(|h| stack.session(h))
            .is_some_and(|s| s.is_ready())
    }

    /// Subscriptions held on the current connection.
    pub fn sub_count(&self) -> usize {
        self.subs.len()
    }

    /// The keys held, in the order they were subscribed.
    pub fn held(&self) -> impl Iterator<Item = &K> {
        self.subs.values()
    }

    /// The keys the next [`Link::replay`] subscribes.
    pub fn queued(&self) -> impl Iterator<Item = &K> {
        self.queued.iter()
    }

    /// The request id `key` is subscribed under, if it is held.
    pub fn holds(&self, key: &K) -> Option<u64> {
        self.subs.iter().find(|(_, k)| *k == key).map(|(&id, _)| id)
    }

    /// The key subscription `request_id` on connection `h` belongs to.
    pub fn key_of(&self, h: ConnHandle, request_id: u64) -> Option<&K> {
        self.subs.get(&request_id).filter(|_| self.owns(h))
    }

    /// The request id of an in-flight fetch whose answer resolves to
    /// something `is` holds for.
    pub fn fetching(&self, is: impl Fn(&F) -> bool) -> Option<u64> {
        let mut in_flight = self.fetches.iter();
        in_flight.find(|(_, what)| is(what)).map(|(&id, _)| id)
    }

    /// Removes and returns what fetch `request_id` on connection `h`
    /// resolves to.
    pub fn take_fetch(&mut self, h: ConnHandle, request_id: u64) -> Option<F> {
        if !self.owns(h) {
            return None;
        }
        self.fetches.remove(&request_id)
    }

    /// Cumulative recovery counters.
    pub fn stats(&self) -> DialStats {
        self.stats
    }

    /// The connection to issue on: the one held if it still has a
    /// session, else a fresh dial.
    fn ensure_conn(&mut self, ctx: &mut Ctx<'_>, stack: &mut MoqtStack) -> Option<ConnHandle> {
        if self.has_session(stack) {
            return self.conn;
        }
        let peer = Addr::new(self.remote.node, MOQT_PORT);
        let dialed = stack.connect(ctx.now(), peer, self.use_ticket);
        match dialed {
            Some(_) => self.conn = dialed,
            None => self.stats.failed_dials += 1,
        }
        dialed
    }

    /// SUBSCRIBE to `track` on `h` under `key` — with a joining FETCH
    /// resolving to `joining`, if given. `None` when the session is gone.
    fn issue(
        &mut self,
        stack: &mut MoqtStack,
        h: ConnHandle,
        key: &K,
        track: FullTrackName,
        joining: Option<F>,
    ) -> Option<u64> {
        let (session, conn) = stack.session_conn(h)?;
        let sub_id = match joining {
            Some(what) => {
                let (sub_id, fetch_id) = session.subscribe_with_joining_fetch(conn, track, 1);
                self.fetches.insert(fetch_id, what);
                sub_id
            }
            None => session.subscribe(conn, track),
        };
        self.subs.insert(sub_id, key.clone());
        Some(sub_id)
    }

    /// Subscribes to `track` under `key`, dialing the remote if no
    /// session is live; with `joining`, a joining FETCH goes with it and
    /// its answer resolves to that. Safe on a connection that is still
    /// establishing: the session holds requests until they may leave.
    pub fn subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &mut MoqtStack,
        key: &K,
        track: FullTrackName,
        joining: Option<F>,
    ) -> Subscribed {
        if self.holds(key).is_some() {
            return Subscribed::AlreadyHeld;
        }
        self.ensure_conn(ctx, stack)
            .and_then(|h| self.issue(stack, h, key, track, joining))
            .map_or(Subscribed::Unreachable, Subscribed::Issued)
    }

    /// Drops the subscription held (or queued) under `key`, telling the
    /// remote.
    pub fn unsubscribe(&mut self, stack: &mut MoqtStack, key: &K) {
        self.queued.retain(|k| k != key);
        if let Some(sub_id) = self.holds(key) {
            self.unsubscribe_id(stack, sub_id);
        }
    }

    /// Drops subscription `request_id`, telling the remote.
    pub fn unsubscribe_id(&mut self, stack: &mut MoqtStack, request_id: u64) {
        if self.subs.remove(&request_id).is_none() {
            return;
        }
        if let Some((session, conn)) = self.conn.and_then(|h| stack.session_conn(h)) {
            session.unsubscribe(conn, request_id);
        }
    }

    /// Forgets subscription `request_id` without sending anything: the
    /// remote refused or ended it.
    pub fn forget(&mut self, h: ConnHandle, request_id: u64) -> Option<K> {
        self.key_of(h, request_id)?;
        self.subs.remove(&request_id)
    }

    /// Issues a standalone FETCH of `groups` (first, last) of `track`,
    /// dialing the remote if no session is live; the answer resolves to
    /// `what`. With a `hop_budget` it is a federation fetch: the wire
    /// carries the budget so the receiving core can bound further
    /// forwards. False when no connection could be made.
    pub fn fetch(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &mut MoqtStack,
        track: FullTrackName,
        groups: (u64, u64),
        hop_budget: Option<u64>,
        what: F,
    ) -> bool {
        let Some(h) = self.ensure_conn(ctx, stack) else {
            return false;
        };
        let Some((session, conn)) = stack.session_conn(h) else {
            return false;
        };
        let (first, last) = groups;
        let fetch_id = match hop_budget {
            Some(budget) => session.fetch_peer(conn, track, first, last, budget),
            None => session.fetch(conn, track, first, last),
        };
        self.fetches.insert(fetch_id, what);
        true
    }

    /// Adds `keys` to what the next [`Link::replay`] subscribes.
    pub fn queue(&mut self, keys: impl IntoIterator<Item = K>) {
        for key in keys {
            if !self.queued.contains(&key) {
                self.queued.push(key);
            }
        }
    }

    /// The connection closed: forgets it and every request id riding it,
    /// and hands back the keys that were held, in the order they were
    /// subscribed — to [`Link::queue`] for the redial, or to drop. The
    /// queue stays as it is.
    pub fn on_closed(&mut self) -> impl Iterator<Item = K> {
        self.conn = None;
        self.fetches.clear();
        std::mem::take(&mut self.subs).into_iter().map(|(_, k)| k)
    }

    /// Silently drops the current connection attempt, if any (no packet
    /// is sent; the remote sees an idle timeout later).
    pub fn abandon(&mut self, stack: &mut MoqtStack) {
        if let Some(h) = self.conn.take() {
            stack.abandon(h);
        }
    }

    /// Abandons the current attempt, if any, and dials afresh. Whatever
    /// was issued on the abandoned attempt never got an answer: its
    /// subscriptions are queued for [`Link::replay`], its fetches are
    /// forgotten (their waiters are the node's to fail or re-issue).
    /// False when the dial failed.
    pub fn redial(&mut self, ctx: &mut Ctx<'_>, stack: &mut MoqtStack) -> bool {
        self.abandon(stack);
        let stale = self.on_closed();
        self.queue(stale);
        self.stats.redials += 1;
        self.ensure_conn(ctx, stack).is_some()
    }

    /// Subscribes every queued key not held by now, dialing if no session
    /// is live; `request` names each key's track and what its joining
    /// fetch, if it gets one, resolves to. Returns the request ids of the
    /// SUBSCRIBEs issued. Keys stay queued when the remote is
    /// unreachable.
    pub fn replay(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &mut MoqtStack,
        mut request: impl FnMut(&K) -> (FullTrackName, Option<F>),
    ) -> Vec<u64> {
        let mut issued = Vec::new();
        if self.queued.is_empty() {
            return issued;
        }
        let Some(h) = self.ensure_conn(ctx, stack) else {
            return issued;
        };
        for key in std::mem::take(&mut self.queued) {
            if self.holds(&key).is_some() {
                continue;
            }
            let (track, joining) = request(&key);
            match self.issue(stack, h, &key, track, joining) {
                Some(sub_id) => issued.push(sub_id),
                None => self.queued.push(key),
            }
        }
        issued
    }

    /// Forgets the connection, every subscription and fetch and the queue
    /// without sending anything: the owning node is revived after a
    /// mid-run shutdown and rebuilds from scratch.
    pub fn reset(&mut self) {
        self.conn = None;
        self.subs.clear();
        self.fetches.clear();
        self.queued.clear();
    }
}

#[cfg(test)]
impl<K: Ord, F> Link<K, F> {
    /// For in-crate tests that script session events at a node with no
    /// peer: the link as if `sub` and `fetch` were outstanding on `h`.
    pub(crate) fn pretend(&mut self, h: ConnHandle, sub: (u64, K), fetch: (u64, F)) {
        self.conn = Some(h);
        self.subs.insert(sub.0, sub.1);
        self.fetches.insert(fetch.0, fetch.1);
    }
}

/// What a relay's upstream fetch resolves to: the track and the group
/// range asked for. The downstream fetches waiting on it live in
/// `RelayCore`'s pending-fetch table (one entry per track, with a waiter
/// list), so this only recovers the track identity — and the range the
/// answer covers — when the response arrives.
pub type RelayFetch = (FullTrackName, u64, u64);

/// A relay's upstream links: one [`Link`] per parent and per federated
/// peer core, indexed by [`LinkId`] in the order `RelayCore` uses —
/// parents first, then peers. The core decides *which* link a track rides
/// (its `RoutePolicy` for parents, its federation shard map for peers); a
/// link's class matters here only for the counts. What is relay policy
/// rather than link mechanism is a method here; the rest the node calls
/// on the link it indexes.
#[derive(Debug)]
pub struct Links {
    links: Vec<Link<FullTrackName, RelayFetch>>,
    /// Links `0..parents` are parent uplinks; the rest are peers.
    parents: usize,
}

impl std::ops::Index<LinkId> for Links {
    type Output = Link<FullTrackName, RelayFetch>;
    fn index(&self, id: LinkId) -> &Self::Output {
        &self.links[id]
    }
}

impl std::ops::IndexMut<LinkId> for Links {
    fn index_mut(&mut self, id: LinkId) -> &mut Self::Output {
        &mut self.links[id]
    }
}

impl Links {
    /// One parent slot per address, in route-policy index order, with no
    /// peer links (the classic pre-federation shape).
    pub fn new(parents: Vec<Addr>) -> Links {
        Links {
            parents: parents.len(),
            links: parents.into_iter().map(|a| Link::new(a, true)).collect(),
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
        let peers = peers.into_iter().map(|a| Link::new(a, true));
        self.links.extend(peers);
    }

    /// Number of configured links (parents + peers).
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no links are configured.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Which link (if any) owns connection `h`.
    pub fn classify(&self, h: ConnHandle) -> Option<LinkId> {
        self.links.iter().position(|l| l.owns(h))
    }

    /// Live upstream subscriptions across all links (§3 aggregation:
    /// this is the relay's total upstream cost).
    pub fn total_subs(&self) -> usize {
        self.links.iter().map(Link::sub_count).sum()
    }

    /// Live upstream subscriptions riding federated peer links — demand
    /// served region-to-region instead of through the origin.
    pub fn peer_subs(&self) -> usize {
        self.links[self.parents..].iter().map(Link::sub_count).sum()
    }

    /// Subscribes to `track` on link `id`, dialing the remote if needed.
    /// A track the remote could not be reached for is queued and replayed
    /// when a later dial of the link reaches `Ready`.
    pub fn subscribe(
        &mut self,
        ctx: &mut Ctx<'_>,
        stack: &mut MoqtStack,
        id: LinkId,
        track: FullTrackName,
    ) {
        let link = &mut self.links[id];
        if link.subscribe(ctx, stack, &track, track.clone(), None) == Subscribed::Unreachable {
            link.queue([track]);
        }
    }

    /// Redials link `id` unless its session is ready (see the module
    /// docs: a stalled attempt is abandoned, what it swallowed is replayed
    /// at the fresh dial's `Ready` — without that a single-uplink relay
    /// that resubscribed at close time onto its own stalled dial comes
    /// back from an outage permanently deaf). In-flight fetches died with
    /// the attempt; their waiters were re-routed or rejected by the core's
    /// close handling.
    pub fn redial(&mut self, ctx: &mut Ctx<'_>, stack: &mut MoqtStack, id: LinkId) {
        let link = &mut self.links[id];
        if !link.is_ready(stack) {
            link.redial(ctx, stack);
        }
    }

    /// Cumulative recovery counters over every link.
    pub fn stats(&self) -> DialStats {
        let mut total = DialStats::default();
        for link in &self.links {
            total.add(&link.stats());
        }
        total
    }

    /// Forgets every connection, subscription, and in-flight fetch on
    /// every link (without sending anything). Used when the owning node
    /// is revived after a mid-run shutdown and must rebuild from scratch.
    pub fn reset(&mut self) {
        self.links.iter_mut().for_each(Link::reset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqdns_netsim::NodeId;

    fn addr(i: usize) -> Addr {
        Addr::new(NodeId::from_index(i), MOQT_PORT)
    }

    fn track() -> FullTrackName {
        FullTrackName::new(vec![vec![1]], vec![2]).unwrap()
    }

    #[test]
    fn newest_admits_a_newer_push_and_a_fetch_that_is_not_older() {
        let mut held = Newest::default();
        assert!(held.admit_push(3), "nothing held: anything is news");
        assert!(
            !held.admit_push(3),
            "a push restating the version is a duplicate"
        );
        assert!(!held.admit_push(2));
        assert!(held.admit_fetch(3), "a fetch may restate what is held");
        assert!(!held.admit_fetch(2));
        assert_eq!(held.version(), Some(3));
        assert!(held.admit_fetch(5));
        assert_eq!(held, Newest::at(5));
    }

    #[test]
    fn classify_and_counts_empty() {
        let up = Links::new(vec![addr(1), addr(2)]);
        assert_eq!(up.len(), 2);
        assert!(!up.is_empty());
        assert_eq!(up.total_subs(), 0);
        assert_eq!(up[0].sub_count(), 0);
        assert_eq!(up.classify(moqdns_quic::ConnHandle(77)), None);
    }

    #[test]
    fn on_closed_clears_everything() {
        let mut up = Links::new(vec![addr(1)]);
        let h = ConnHandle(5);
        up[0].pretend(h, (1, track()), (9, (track(), 0, u64::MAX)));
        assert_eq!(up.classify(h), Some(0));
        assert_eq!(up[0].key_of(h, 1), Some(&track()));
        assert_eq!(up[0].key_of(ConnHandle(6), 1), None, "not its conn");
        assert_eq!(up[0].take_fetch(ConnHandle(6), 9), None, "not its conn");
        assert_eq!(up[0].on_closed().collect::<Vec<_>>(), [track()]);
        assert_eq!(up.total_subs(), 0);
        assert_eq!(up[0].conn(), None);
        assert_eq!(up[0].take_fetch(h, 9), None);
        assert_eq!(up[0].key_of(h, 1), None);
    }

    #[test]
    fn reset_forgets_all_links() {
        let mut up = Links::new(vec![addr(1), addr(2)]);
        up[1].pretend(ConnHandle(3), (2, track()), (4, (track(), 0, u64::MAX)));
        up[0].queue([track()]);
        up.reset();
        assert_eq!(up.total_subs(), 0);
        for l in &up.links {
            assert!(l.conn().is_none() && l.fetches.is_empty() && l.queued.is_empty());
        }
    }

    #[test]
    fn peers_extend_the_link_space_after_parents() {
        let mut up = Links::new(vec![addr(1)]);
        up.add_peers(vec![addr(2), addr(3)]);
        assert_eq!(up.len(), 3);
        up[0].pretend(ConnHandle(1), (1, track()), (9, (track(), 0, 0)));
        up[2].pretend(ConnHandle(2), (2, track()), (9, (track(), 0, 0)));
        assert_eq!(up.peer_subs(), 1);
        assert_eq!(up.total_subs(), 2);
    }
}
