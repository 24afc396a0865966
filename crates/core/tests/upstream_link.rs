//! The subscriber side, end to end: `core::links::Link` under random
//! interleavings against a scripted server, and the stub's redial.
//!
//! **The model** (in the style of `moqt/tests/session_model.rs`). A client
//! node holding one [`Link`] plays seeded random sequences of *want*,
//! *drop*, *fetch*, *redial* (the stub's policy: only without a session,
//! replay at the dial) and *probe* (the relay's: unless ready, abandoning
//! the stalled attempt; replay at `Ready`) against a server that may
//! *publish*, *close* every connection, go *dark* (a dial into it stalls)
//! and come back, with the network allowed to settle only now and then.
//! Sixteen more seeds play the recursive resolver's policy instead of the
//! last two: at `Closed` it redials at once, replays at the dial and asks
//! again for what its fetches in flight were for.
//! Whatever the interleaving:
//!
//! 1. **every wanted key is held or queued, never twice** — after each
//!    step `held ∪ queued` is the wanted set and no key is held twice;
//! 2. **after close → redial → replay each key is subscribed exactly
//!    once** — settled on a ready session, the held keys are the wanted
//!    ones, the server has one live subscription per wanted track and
//!    none other, it never saw a SUBSCRIBE for a track already live on
//!    that connection, and a publish arrives once (a second SUBSCRIBE
//!    would deliver every later push twice);
//! 3. **no request id of a dead connection resolves** — not for a
//!    subscription, not for a fetch, also when the next connection hands
//!    out the same ids again; and no answer on the live one goes
//!    unresolved because of it;
//! 4. **`redials` and `failed_dials` are exact**;
//! 5. **a held version never decreases**, across connections too, with
//!    [`Newest`] kept beside the link as the leaf stub keeps it.

use moqdns_core::auth::AuthServer;
use moqdns_core::links::{Link, Newest, Subscribed};
use moqdns_core::relay_node::RelayNode;
use moqdns_core::stack::{MoqtStack, StackEvent, StackNode};
use moqdns_core::stub::{StubMode, StubResolver};
use moqdns_core::teardown::TeardownPolicy;
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Question;
use moqdns_dns::name::Name;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_moqt::data::Object;
use moqdns_moqt::session::{IncomingFetchKind, SessionEvent};
use moqdns_moqt::track::FullTrackName;
use moqdns_netsim::{splitmix64, Addr, Ctx, LinkConfig, Node, NodeId, Payload, Simulator};
use moqdns_quic::{ConnHandle, TransportConfig};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Keys (= tracks) the model plays with.
const KEYS: usize = 4;

fn track(key: usize) -> FullTrackName {
    FullTrackName::new(vec![b"model".to_vec()], vec![key as u8]).unwrap()
}

fn key_of_track(t: &FullTrackName) -> usize {
    (0..KEYS).find(|&k| track(k) == *t).expect("a model track")
}

/// Both ends give up on a silent peer after two seconds; the client
/// keeps a live connection alive.
fn transport() -> TransportConfig {
    TransportConfig::default().idle_timeout(Duration::from_secs(2))
}

/// The scripted server: accepts every SUBSCRIBE, answers every FETCH with
/// the track's current version, pushes on command.
struct Server {
    stack: MoqtStack,
    versions: [u64; KEYS],
    /// Live subscriptions: (connection, request id) -> key.
    subs: BTreeMap<(ConnHandle, u64), usize>,
    /// SUBSCRIBEs for a track already live on their connection.
    second_subscribes: u64,
    /// Dark: deaf and mute, like a crashed process.
    dark: bool,
}

impl Server {
    fn object(&self, key: usize) -> Object {
        Object {
            group_id: self.versions[key],
            object_id: 0,
            payload: vec![key as u8].into(),
        }
    }

    fn publish(&mut self, ctx: &mut Ctx<'_>, key: usize) {
        self.versions[key] += 1;
        let object = self.object(key);
        for (&(h, request_id), _) in self.subs.iter().filter(|(_, &k)| k == key) {
            if let Some((session, conn)) = self.stack.session_conn(h) {
                session.publish(conn, request_id, object.clone());
            }
        }
        self.end_turn(ctx);
    }

    fn close_all(&mut self, ctx: &mut Ctx<'_>) {
        self.stack.close_all(ctx, 0, "restart");
        self.subs.clear();
    }
}

impl StackNode for Server {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }
    fn handle_events(&mut self, _ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for e in events {
            match e {
                StackEvent::Session(h, SessionEvent::IncomingSubscribe { request_id, track }) => {
                    let key = key_of_track(&track);
                    let live = |(&(hh, _), &k): (&(ConnHandle, u64), &usize)| hh == h && k == key;
                    self.second_subscribes += u64::from(self.subs.iter().any(live));
                    self.subs.insert((h, request_id), key);
                    let largest = Some((self.versions[key], 0));
                    let (session, conn) = self.stack.session_conn(h).expect("its session");
                    session.accept_subscribe(conn, request_id, largest);
                }
                StackEvent::Session(h, SessionEvent::IncomingFetch { request_id, kind }) => {
                    let (IncomingFetchKind::StandAlone { track, .. }
                    | IncomingFetchKind::Joining { track, .. }) = kind;
                    let object = self.object(key_of_track(&track));
                    let largest = (object.group_id, 0);
                    let (session, conn) = self.stack.session_conn(h).expect("its session");
                    session.respond_fetch(conn, request_id, largest, vec![object]);
                }
                StackEvent::Session(h, SessionEvent::PeerUnsubscribed { request_id }) => {
                    self.subs.remove(&(h, request_id));
                }
                StackEvent::Closed(h) => self.subs.retain(|&(hh, _), _| hh != h),
                _ => {}
            }
        }
    }
}

impl Node for Server {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, d: Payload) {
        if !self.dark {
            self.stack.on_datagram(ctx.now(), from, &d);
            self.end_turn(ctx);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        self.stack.on_timer(ctx.now());
        self.end_turn(ctx);
    }
    fn on_flush(&mut self, ctx: &mut Ctx<'_>) {
        self.flush(ctx);
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

/// The client under test: one link whose keys are track numbers and whose
/// fetches resolve to the key fetched.
struct Client {
    stack: MoqtStack,
    link: Link<usize, usize>,
    /// What was delivered per key; outlives the connection.
    newest: [Newest; KEYS],
    pushes: [u64; KEYS],
    /// Pushes [`Newest`] did not admit: duplicates or older versions.
    regressions: u64,
    /// Answers on the live connection that no request id resolved.
    unresolved: u64,
    /// Calls of [`Link::redial`].
    redials: u64,
    /// The recursive resolver's policy: redial at `Closed`, not on a step.
    redial_at_close: bool,
    /// Connections gone, with the subscribe ids they held.
    graveyard: Vec<(ConnHandle, Vec<u64>)>,
}

impl Client {
    /// Remembers the current connection's ids before it is given up.
    fn bury(&mut self) {
        if let Some(h) = self.link.conn() {
            let ids = (0..KEYS).filter_map(|k| self.link.holds(&k)).collect();
            self.graveyard.push((h, ids));
        }
    }

    fn replay(&mut self, ctx: &mut Ctx<'_>) {
        self.link
            .replay(ctx, &mut self.stack, |&k| (track(k), Some(k)));
    }

    /// The recursive resolver's policy at `Closed`: redial at once, replay
    /// at the dial, fetch again what the lost fetches were for.
    fn recover(&mut self, ctx: &mut Ctx<'_>, fetches: Vec<usize>) {
        self.redials += 1;
        assert!(self.link.redial(ctx, &mut self.stack).0);
        self.replay(ctx);
        for key in fetches {
            let groups = (0, u64::MAX);
            assert!(self
                .link
                .fetch(ctx, &mut self.stack, track(key), groups, None, key));
        }
    }

    fn want(&mut self, ctx: &mut Ctx<'_>, key: usize) {
        let subscribed = self
            .link
            .subscribe(ctx, &mut self.stack, &key, track(key), Some(key));
        assert_ne!(subscribed, Subscribed::Unreachable);
        self.end_turn(ctx);
    }

    fn drop_key(&mut self, ctx: &mut Ctx<'_>, key: usize) {
        self.link.unsubscribe(&mut self.stack, &key);
        self.end_turn(ctx);
    }

    fn fetch(&mut self, ctx: &mut Ctx<'_>, key: usize) {
        let groups = (0, u64::MAX);
        let stack = &mut self.stack;
        assert!(self.link.fetch(ctx, stack, track(key), groups, None, key));
        self.end_turn(ctx);
    }

    /// The stub's policy: redial only without a session, replay at once.
    fn redial(&mut self, ctx: &mut Ctx<'_>) {
        if !self.link.has_session(&self.stack) {
            self.bury();
            self.redials += 1;
            assert!(self.link.redial(ctx, &mut self.stack).0);
            self.replay(ctx);
            self.end_turn(ctx);
        }
    }

    /// The relay's policy: redial unless ready, abandoning a stalled
    /// attempt; the replay waits for `Ready`.
    fn probe(&mut self, ctx: &mut Ctx<'_>) {
        if !self.link.is_ready(&self.stack) {
            self.bury();
            self.redials += 1;
            assert!(self.link.redial(ctx, &mut self.stack).0);
            self.end_turn(ctx);
        }
    }

    /// Contract 3, checked after every step.
    fn the_dead_stay_dead(&mut self) {
        for (h, ids) in self.graveyard.clone() {
            assert!(!self.link.owns(h));
            // Request ids start over on every session: these are live ids
            // of the current connection as often as not.
            for id in ids.into_iter().chain(0..8) {
                assert_eq!(self.link.key_of(h, id), None);
                assert_eq!(self.link.take_fetch(h, id), None);
                assert_eq!(self.link.forget(h, id), None);
            }
        }
    }
}

impl StackNode for Client {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }
    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for e in events {
            match e {
                StackEvent::Session(h, SessionEvent::Ready { .. }) if self.link.owns(h) => {
                    self.replay(ctx);
                }
                StackEvent::Session(h, SessionEvent::SubscriptionObject { request_id, object }) => {
                    match self.link.key_of(h, request_id) {
                        Some(&key) => {
                            self.pushes[key] += 1;
                            let admitted = self.newest[key].admit_push(object.group_id);
                            self.regressions += u64::from(!admitted);
                        }
                        None => self.unresolved += u64::from(self.link.owns(h)),
                    }
                }
                StackEvent::Session(
                    h,
                    SessionEvent::FetchObjects {
                        request_id,
                        objects,
                    },
                ) => match self.link.take_fetch(h, request_id) {
                    Some(key) => {
                        assert_eq!(objects[0].payload[..], [key as u8]);
                        self.newest[key].admit_fetch(objects[0].group_id);
                    }
                    None => self.unresolved += u64::from(self.link.owns(h)),
                },
                StackEvent::Closed(h) if self.link.owns(h) => {
                    self.bury();
                    let lost = self.link.on_closed();
                    self.link.queue(lost.held);
                    if self.redial_at_close {
                        self.recover(ctx, lost.fetches);
                    }
                }
                _ => {}
            }
        }
    }
}

impl Node for Client {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, d: Payload) {
        self.stack.on_datagram(ctx.now(), from, &d);
        self.end_turn(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        self.stack.on_timer(ctx.now());
        self.end_turn(ctx);
    }
    fn on_flush(&mut self, ctx: &mut Ctx<'_>) {
        self.flush(ctx);
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

struct Model {
    sim: Simulator,
    server: NodeId,
    client: NodeId,
    /// What the client's application wants subscribed.
    wanted: BTreeSet<usize>,
    /// Per key, the version held when last looked (contract 5).
    floor: [Option<u64>; KEYS],
}

impl Model {
    fn new(seed: u64, redial_at_close: bool) -> Model {
        let mut sim = Simulator::new(seed);
        sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(5)));
        let server = Server {
            stack: MoqtStack::server(transport(), seed ^ 1),
            versions: [1; KEYS],
            subs: BTreeMap::new(),
            second_subscribes: 0,
            dark: false,
        };
        let server = sim.add_node("server", Box::new(server));
        let keep_alive = Duration::from_millis(500);
        let client = Client {
            stack: MoqtStack::client(transport().keep_alive(keep_alive), seed ^ 2),
            link: Link::new(Addr::new(server, MOQT_PORT), seed & 1 == 0),
            newest: [Newest::default(); KEYS],
            pushes: [0; KEYS],
            regressions: 0,
            unresolved: 0,
            redials: 0,
            redial_at_close,
            graveyard: Vec::new(),
        };
        let client = sim.add_node("client", Box::new(client));
        Model {
            sim,
            server,
            client,
            wanted: BTreeSet::new(),
            floor: [None; KEYS],
        }
    }

    fn client<R>(&mut self, f: impl FnOnce(&mut Client, &mut Ctx<'_>) -> R) -> R {
        self.sim.with_node::<Client, _>(self.client, f)
    }

    fn server<R>(&mut self, f: impl FnOnce(&mut Server, &mut Ctx<'_>) -> R) -> R {
        self.sim.with_node::<Server, _>(self.server, f)
    }

    /// One random step, then contracts 1, 3, 4 and 5.
    fn step(&mut self, r: u64) {
        let key = (r >> 8) as usize % KEYS;
        match r % 16 {
            0..=3 => {
                self.wanted.insert(key);
                self.client(|c, ctx| c.want(ctx, key));
            }
            4 => {
                self.wanted.remove(&key);
                self.client(|c, ctx| c.drop_key(ctx, key));
            }
            5 => self.client(|c, ctx| c.fetch(ctx, key)),
            6..=8 if self.client(|c, _| c.redial_at_close) => {}
            6 | 7 => self.client(|c, ctx| c.redial(ctx)),
            8 => self.client(|c, ctx| c.probe(ctx)),
            9 | 10 => self.server(|s, ctx| s.publish(ctx, key)),
            11 => self.server(|s, ctx| s.close_all(ctx)),
            12 => self.server(|s, _| s.dark = !s.dark),
            // The rest only let time pass.
            _ => {}
        }
        // Mostly less than a round trip, so that steps land on
        // connections still establishing; now and then long enough for a
        // dial into a dark server to time out.
        let pause = [0, 3, 3, 40, 40, 400, 2500][(r >> 16) as usize % 7];
        self.sim.run_for(Duration::from_millis(pause));
        self.check_step();
    }

    fn check_step(&mut self) {
        let (wanted, floor) = (self.wanted.clone(), self.floor);
        self.floor = self.client(|c, _| {
            let held: Vec<usize> = c.link.held().copied().collect();
            let distinct: BTreeSet<usize> = held.iter().copied().collect();
            assert_eq!(held.len(), distinct.len(), "a key is held twice: {held:?}");
            let mut known: BTreeSet<usize> = c.link.queued().copied().collect();
            known.extend(distinct);
            assert_eq!(known, wanted, "held ∪ queued is what is wanted");
            c.the_dead_stay_dead();
            let stats = c.link.stats();
            assert_eq!((stats.redials, stats.failed_dials), (c.redials, 0));
            let now = c.newest.map(Newest::version);
            assert!(
                floor.iter().zip(&now).all(|(was, is)| was <= is),
                "a held version decreased: {floor:?} → {now:?}"
            );
            now
        });
    }

    /// Brings the world to rest on a ready session, then contract 2.
    fn settle_and_check(&mut self) {
        self.server(|s, _| s.dark = false);
        // What the client still holds on a connection the server has
        // forgotten dies with its idle timeout.
        self.sim.run_for(Duration::from_secs(3));
        self.client(|c, ctx| c.redial(ctx));
        self.sim.run_for(Duration::from_secs(3));
        self.check_step();
        if self.wanted.is_empty() && self.client(|c, _| !c.link.has_session(&c.stack)) {
            return; // nothing to hold, nothing dialed
        }
        let wanted: Vec<usize> = self.wanted.iter().copied().collect();
        let pushes = self.client(|c, _| {
            assert!(c.link.is_ready(&c.stack));
            let mut held: Vec<usize> = c.link.held().copied().collect();
            held.sort_unstable();
            assert_eq!(held, wanted, "every wanted key is held, once");
            assert_eq!(c.link.queued().count(), 0);
            assert_eq!(c.link.fetching(|_| true), None, "no fetch is left waiting");
            c.pushes
        });
        let versions = self.server(|s, ctx| {
            let mut live: Vec<usize> = s.subs.values().copied().collect();
            live.sort_unstable();
            assert_eq!(live, wanted, "one live subscription per wanted track");
            assert_eq!(s.second_subscribes, 0);
            (0..KEYS).for_each(|k| s.publish(ctx, k));
            s.versions
        });
        self.sim.run_for(Duration::from_secs(1));
        self.client(|c, _| {
            for k in 0..KEYS {
                let held = wanted.contains(&k);
                assert_eq!(c.pushes[k] - pushes[k], u64::from(held), "key {k}");
                assert!(!held || c.newest[k].version() == Some(versions[k]));
            }
            assert_eq!((c.regressions, c.unresolved), (0, 0));
        });
    }
}

/// Walks `seeds` under one policy; returns (redials, connections lost).
fn walk(seeds: std::ops::Range<u64>, redial_at_close: bool) -> (u64, usize) {
    let (mut redials, mut buried) = (0, 0);
    for seed in seeds {
        let mut model = Model::new(seed, redial_at_close);
        let mut r = splitmix64(seed);
        for _round in 0..6 {
            for _ in 0..30 {
                r = splitmix64(r);
                model.step(r);
            }
            model.settle_and_check();
        }
        redials += model.client(|c, _| c.redials);
        buried += model.client(|c, _| c.graveyard.len());
    }
    (redials, buried)
}

#[test]
fn the_link_holds_each_wanted_key_once_through_any_interleaving() {
    let (redials, buried) = walk(0..48, false);
    // The walk reaches what it is about.
    assert!(
        redials > 100 && buried > 200,
        "{redials} redials, {buried} connections lost"
    );
}

#[test]
fn the_recursive_close_policy_holds_each_wanted_key_once() {
    let (redials, buried) = walk(48..64, true);
    assert!(
        redials > 200 && buried > 200,
        "{redials} redials, {buried} connections lost"
    );
}

/// `StubResolver::redial_after`, in the simulator: two lookups, the relay
/// they ride shuts down, a round is published while it is dark, it comes
/// back — one redial re-subscribes both questions with joining fetches in
/// the order they were first issued, and the answers are the newest.
#[test]
fn stub_redial_resubscribes_everything_with_joining_fetches() {
    let names: Vec<Name> = ["b.example.com", "a.example.com"]
        .iter()
        .map(|n| n.parse().unwrap())
        .collect();
    let record =
        |name: &Name, last: u8| Record::new(name.clone(), 60, RData::A([192, 0, 2, last].into()));
    let questions: Vec<Question> = names
        .iter()
        .map(|n| Question::new(n.clone(), RecordType::A))
        .collect();
    let mut sim = Simulator::new(9);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));
    let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
    names.iter().for_each(|n| zone.add_record(record(n, 1)));
    let auth = AuthServer::new(Authority::single(zone), TransportConfig::patient(), 1);
    let auth = sim.add_node("auth", Box::new(auth));
    let relay = RelayNode::new(Addr::new(auth, MOQT_PORT), 8, 2);
    let relay = sim.add_node("relay", Box::new(relay));
    let stub = StubResolver::with_transport(
        StubMode::Moqt,
        Addr::new(relay, MOQT_PORT),
        3,
        TeardownPolicy::Never,
        TransportConfig::patient(),
    )
    .redial_after(Duration::from_millis(500));
    let stub = sim.add_node("stub", Box::new(stub));
    for q in &questions {
        sim.with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, q.clone()));
        sim.run_for(Duration::from_secs(1));
    }
    let node = sim.node_ref::<StubResolver>(stub);
    assert_eq!(node.subscribed_questions(), questions);
    assert_eq!(
        node.answer(&questions[0]),
        Some(&[record(&names[0], 1)][..])
    );

    // The relay goes down with a CONNECTION_CLOSE; the zone moves on
    // while it is dark; it is back before the stub's redial fires.
    sim.with_node::<RelayNode, _>(relay, |r, ctx| r.shutdown(ctx));
    sim.run_for(Duration::from_millis(100));
    assert_eq!(sim.node_ref::<StubResolver>(stub).subscription_count(), 0);
    sim.with_node::<AuthServer, _>(auth, |a, ctx| {
        a.update_zone(ctx, |authority| {
            let zone = authority.find_zone_mut(&names[0]).expect("the zone");
            for n in &names {
                zone.set_records(n, RecordType::A, vec![record(n, 2)]);
            }
        })
    });
    sim.with_node::<RelayNode, _>(relay, |r, _| r.revive());
    sim.run_for(Duration::from_secs(3));

    let node = sim.node_ref::<StubResolver>(stub);
    assert_eq!(node.redials(), 1);
    assert_eq!(node.subscribed_questions(), questions, "first-issued order");
    assert_eq!(
        (
            node.metrics.counts.subscribes_sent,
            node.metrics.counts.fetches_sent
        ),
        (4, 4)
    );
    for (q, n) in questions.iter().zip(&names) {
        assert_eq!(
            node.answer(q),
            Some(&[record(n, 2)][..]),
            "recovered by the fetch"
        );
    }
    assert_eq!(node.metrics.counts.stale_objects_dropped, 0);
    assert!(
        node.metrics.updates.is_empty(),
        "nothing was pushed: it was fetched"
    );

    // The re-established subscriptions carry the next round.
    sim.with_node::<AuthServer, _>(auth, |a, ctx| {
        a.update_zone(ctx, |authority| {
            let zone = authority.find_zone_mut(&names[0]).expect("the zone");
            zone.set_records(&names[1], RecordType::A, vec![record(&names[1], 3)]);
        })
    });
    sim.run_for(Duration::from_secs(1));
    let node = sim.node_ref::<StubResolver>(stub);
    assert_eq!(
        node.answer(&questions[1]),
        Some(&[record(&names[1], 3)][..])
    );
    assert_eq!(node.metrics.updates.len(), 1);
}
