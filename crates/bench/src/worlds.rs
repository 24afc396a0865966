//! Reusable simulated worlds for the experiments: the paper's
//! root → TLD → auth → recursive hierarchy ([`World`]) and the one relay
//! world every gated scenario runs on ([`RelayWorld`], built from a
//! plain-data [`WorldPlan`]).

use crate::plans;
use moqdns_core::adversary::{ByzantineNode, FetchBombNode, SlowLorisNode};
use moqdns_core::auth::AuthServer;
use moqdns_core::mapping::{track_from_question, RequestFlags};
use moqdns_core::metrics::TierRelayStats;
use moqdns_core::node_ip;
use moqdns_core::recursive::{RecursiveConfig, RecursiveResolver, UpstreamMode};
use moqdns_core::relay_node::RelayNode;
use moqdns_core::stub::{StubMode, StubResolver};
use moqdns_core::teardown::TeardownPolicy;
pub use moqdns_core::tree_stub::TreeStub;
use moqdns_core::{DNS_PORT, MOQT_PORT};
use moqdns_dns::message::Question;
use moqdns_dns::name::Name;
use moqdns_dns::rdata::RData;
use moqdns_dns::resolver::RootHint;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::transport::serve_datagram;
use moqdns_dns::zone::Zone;
use moqdns_moqt::relay::{track_hash, RelayLimits, Route};
use moqdns_netsim::{Addr, Ctx, LinkConfig, Node, NodeId, ParSim, Payload, SimTime, Simulator};
use moqdns_quic::TransportConfig;
use moqdns_workload::scenarios::MetroScenario;
use std::any::Any;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::slice;
use std::time::Duration;

/// One delegated zone of the hierarchy world and the server behind it.
#[derive(Clone)]
pub struct ZoneSpec {
    /// Zone apex, a child of `com` (`example.com`).
    pub apex: String,
    /// Host names under the apex with their TTLs; host `i` starts at
    /// `192.0.2.(i + 1)`.
    pub records: Vec<(String, u32)>,
    /// Served by a [`UdpOnlyAuth`] instead of an [`AuthServer`] (§4.5).
    pub udp_only: bool,
}

impl ZoneSpec {
    /// `example.com` holding `records`, served over MoQT and UDP.
    pub fn example(records: Vec<(String, u32)>) -> ZoneSpec {
        ZoneSpec {
            apex: "example.com".into(),
            records,
            udp_only: false,
        }
    }
}

/// Recursive ↔ authoritative legs that are not `link_delay` long (§5.3,
/// Mars): the one-way delay and the timers sized to it.
#[derive(Clone)]
pub struct LongHaul {
    /// One-way delay between the recursive resolver and every server.
    pub delay: Duration,
    /// UDP retransmission timeout of the recursive resolver and the stubs.
    pub udp_rto: Duration,
    /// QUIC transport of both ends of those legs.
    pub transport: TransportConfig,
}

/// Parameters of the standard three-level hierarchy world.
#[derive(Clone)]
pub struct WorldSpec {
    /// RNG seed.
    pub seed: u64,
    /// One-way delay of every link.
    pub link_delay: Duration,
    /// Recursive resolver upstream transport.
    pub mode: UpstreamMode,
    /// Stub transport.
    pub stub_mode: StubMode,
    /// Number of stub resolvers.
    pub n_stubs: usize,
    /// The zones `com` delegates, one server each.
    pub zones: Vec<ZoneSpec>,
    /// Stub subscription teardown policy.
    pub stub_policy: TeardownPolicy,
    /// Recursive poll-proxy mode (§4.5).
    pub poll_proxy: bool,
    /// How long the recursive resolver waits on one MoQT step.
    pub moqt_step_timeout: Duration,
    /// The recursive resolver sits this far from the servers.
    pub long_haul: Option<LongHaul>,
}

impl Default for WorldSpec {
    fn default() -> WorldSpec {
        WorldSpec {
            seed: 1,
            link_delay: Duration::from_millis(10),
            mode: UpstreamMode::Moqt,
            stub_mode: StubMode::Moqt,
            n_stubs: 1,
            zones: vec![ZoneSpec::example(vec![("www".into(), 300)])],
            stub_policy: TeardownPolicy::Never,
            poll_proxy: false,
            moqt_step_timeout: Duration::from_secs(3),
            long_haul: None,
        }
    }
}

/// An authoritative server that only speaks classic DNS-over-UDP — the
/// pre-MoQT world §4.5 must interoperate with. MoQT datagrams fall on
/// deaf ears, like a legacy server with no QUIC listener.
pub struct UdpOnlyAuth {
    authority: Authority,
}

impl Node for UdpOnlyAuth {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload) {
        if to_port == DNS_PORT {
            if let Ok(reply) = serve_datagram(&self.authority, &payload) {
                ctx.send(DNS_PORT, from, reply);
            }
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

/// The built world.
pub struct World {
    /// The simulator.
    pub sim: Simulator,
    /// Root nameserver node.
    pub root: NodeId,
    /// TLD (.com) nameserver node.
    pub tld: NodeId,
    /// The zones' authoritative nodes, in [`WorldSpec::zones`] order.
    pub auths: Vec<NodeId>,
    /// Recursive resolver node.
    pub recursive: NodeId,
    /// Stub resolver nodes.
    pub stubs: Vec<NodeId>,
    /// The zones' apexes, parallel to `auths`.
    apexes: Vec<Name>,
}

fn name(s: &str) -> Name {
    s.parse().expect("valid name")
}

impl World {
    /// Builds the standard world from `spec`.
    pub fn build(spec: &WorldSpec) -> World {
        let mut sim = Simulator::new(spec.seed);
        sim.set_default_link(LinkConfig::with_delay(spec.link_delay));

        // Dense ids: root=0, tld=1, one server per zone from 2, then the
        // recursive, then the stubs — so glue can name a server before
        // it exists.
        let tld_id = NodeId::from_index(1);
        let mut root_zone = Zone::with_default_soa(Name::root());
        root_zone.add_record(Record::new(name("com"), 86_400, RData::NS(name("ns.tld"))));
        root_zone.add_record(Record::new(
            name("ns.tld"),
            86_400,
            RData::A(node_ip(tld_id)),
        ));

        let mut tld_zone = Zone::with_default_soa(name("com"));
        for (z, zone) in spec.zones.iter().enumerate() {
            let ns = name(&format!("ns1.{}", zone.apex));
            tld_zone.add_record(Record::new(name(&zone.apex), 86_400, RData::NS(ns.clone())));
            let server = NodeId::from_index(2 + z);
            tld_zone.add_record(Record::new(ns, 86_400, RData::A(node_ip(server))));
        }

        let transport = spec
            .long_haul
            .as_ref()
            .map_or_else(TransportConfig::default, |h| h.transport.clone());
        let server = |zone: Zone, seed: u64| -> Box<dyn Node> {
            Box::new(AuthServer::new(
                Authority::single(zone),
                transport.clone(),
                seed,
            ))
        };
        let root = sim.add_node("root", server(root_zone, 11));
        let tld = sim.add_node("tld", server(tld_zone, 12));
        assert_eq!(tld, tld_id);
        let mut auths = Vec::with_capacity(spec.zones.len());
        for (z, spec_zone) in spec.zones.iter().enumerate() {
            let mut zone = Zone::with_default_soa(name(&spec_zone.apex));
            for (i, (host, ttl)) in spec_zone.records.iter().enumerate() {
                zone.add_record(Record::new(
                    name(&format!("{host}.{}", spec_zone.apex)),
                    *ttl,
                    RData::A(Ipv4Addr::new(192, 0, 2, (i % 250) as u8 + 1)),
                ));
            }
            let node = if spec_zone.udp_only {
                Box::new(UdpOnlyAuth {
                    authority: Authority::single(zone),
                })
            } else {
                server(zone, 13 + z as u64)
            };
            auths.push(sim.add_node(format!("auth{z}"), node));
            assert_eq!(auths[z].index(), 2 + z);
        }

        let roots = vec![RootHint {
            name: name("a.root-servers.net"),
            addr: IpAddr::V4(node_ip(root)),
        }];
        let mut rec_cfg = RecursiveConfig::new(spec.mode, roots, 21);
        rec_cfg.poll_proxy = spec.poll_proxy;
        rec_cfg.moqt_step_timeout = spec.moqt_step_timeout;
        if let Some(haul) = &spec.long_haul {
            rec_cfg.udp_rto = haul.udp_rto;
            rec_cfg.transport = haul.transport.clone();
        }
        let recursive = sim.add_node("recursive", Box::new(RecursiveResolver::new(rec_cfg)));
        if let Some(haul) = &spec.long_haul {
            for &earth in [root, tld].iter().chain(&auths) {
                sim.set_link(recursive, earth, LinkConfig::with_delay(haul.delay));
            }
        }

        let mut stubs = Vec::with_capacity(spec.n_stubs);
        for i in 0..spec.n_stubs {
            let mut stub = StubResolver::with_policy(
                spec.stub_mode,
                Addr::new(recursive, 0),
                31 + i as u64,
                spec.stub_policy,
            );
            if let Some(haul) = &spec.long_haul {
                stub.set_udp_rto(haul.udp_rto);
            }
            stubs.push(sim.add_node(format!("stub{i}"), Box::new(stub)));
        }
        // Nodes with periodic sweep timers never go idle; just run the
        // start events.
        sim.run_for(Duration::from_millis(1));
        World {
            sim,
            root,
            tld,
            auths,
            recursive,
            stubs,
            apexes: spec.zones.iter().map(|z| name(&z.apex)).collect(),
        }
    }

    /// The A question for `host` (a full name, `www.example.com`).
    pub fn question(host: &str) -> Question {
        Question::new(name(host), RecordType::A)
    }

    /// Issues a lookup from stub `i` and runs the sim for `settle`.
    pub fn lookup(&mut self, stub_index: usize, host: &str, settle: Duration) {
        let stub = self.stubs[stub_index];
        let q = Self::question(host);
        self.sim.with_node::<StubResolver, _>(stub, |s, ctx| {
            s.lookup(ctx, q);
        });
        self.sim.run_for(settle);
    }

    /// Replaces `host`'s A records at its zone's [`AuthServer`] with one
    /// of `ttl` and `addr` now, triggering pushes. Returns the change time.
    /// A scripted change is a `replace_a` in a `with_node` at a barrier
    /// point ([`moqdns_netsim::play`]).
    pub fn set_a(&mut self, host: &str, ttl: u32, addr: Ipv4Addr) -> SimTime {
        let host = name(host);
        let zone = self.apexes.iter().position(|a| host.is_subdomain_of(a));
        let auth = self.auths[zone.expect("a host of one of the zones")];
        self.sim
            .with_node::<AuthServer, _>(auth, |a, ctx| replace_a(a, ctx, &host, ttl, addr));
        self.sim.now()
    }
}

/// Replaces `host`'s A records at `auth` with one of `ttl` and `addr`: one
/// turn, whose pushes leave with the flush that ends its `with_node` — so
/// changes made in one `with_node` leave in one flight.
pub(crate) fn replace_a(
    auth: &mut AuthServer,
    ctx: &mut Ctx<'_>,
    host: &Name,
    ttl: u32,
    addr: Ipv4Addr,
) {
    auth.update_zone(ctx, |authority| {
        if let Some(z) = authority.find_zone_mut(host) {
            let record = Record::new(host.clone(), ttl, RData::A(addr));
            z.set_records(host, RecordType::A, vec![record]);
        }
    });
}

/// Applies a [`moqdns_netsim::NodeFault`] to a [`RelayNode`] living in
/// `sim` — the `on_node` callback the relay-tree chaos drills hand to
/// [`moqdns_netsim::FaultAction::apply`]. Crash sends CONNECTION_CLOSE
/// everywhere and goes dark ([`RelayNode::shutdown`]); restart
/// re-initializes the relay in place ([`RelayNode::revive`]) with its
/// cumulative stats intact. A drill plays its plan once, so each fault
/// arrives once.
pub fn apply_relay_fault(sim: &mut ParSim, node: NodeId, fault: moqdns_netsim::NodeFault) {
    sim.with_node::<RelayNode, _>(node, |relay, ctx| match fault {
        moqdns_netsim::NodeFault::Crash => relay.shutdown(ctx),
        moqdns_netsim::NodeFault::Restart => relay.revive(),
    });
}

/// One relay tier of a [`WorldPlan`].
#[derive(Debug, Clone)]
pub struct TierPlan {
    /// Tier label: node `i` is named `"<name><i>"`, and the label keys
    /// [`RelayWorld::tier`] and the per-tier stats.
    pub name: String,
    /// Relays in the tier.
    pub count: usize,
    /// Parents each relay attaches to in the tier above (at most all of
    /// them), picked by [`WorldPlan::parents`].
    pub parents: usize,
    /// Link to each parent.
    pub link: LinkConfig,
    /// Parent choice per track. Under [`Route::HashShard`] parents are
    /// taken in *aligned* order, so parent `i` is the same relay at every
    /// member of the tier.
    pub policy: Route,
    /// Relay `i` seeds its stack with `seed + i`.
    pub seed: u64,
    /// Full-mesh peer federation among the tier's members over this link
    /// (member `i` is hash shard `i`).
    pub peers: Option<LinkConfig>,
    /// Tightened per-session fetch limits and send-backlog bound (bytes).
    pub limits: Option<(RelayLimits, usize)>,
}

impl TierPlan {
    /// A single-parent, static-routing tier with default limits.
    pub fn new(name: impl Into<String>, count: usize, link: LinkConfig, seed: u64) -> TierPlan {
        TierPlan {
            name: name.into(),
            count,
            parents: 1,
            link,
            policy: Route::Static,
            seed,
            peers: None,
            limits: None,
        }
    }
}

/// Everything that tells one relay world from another, as data: the zone,
/// the tiers between the authoritative server and the stubs, who
/// subscribes to what, every node seed, and how the world is cut into
/// simulator shards. Who attaches to whom is one function of the plan,
/// [`WorldPlan::parents`]. [`RelayWorld::from_plan`] is the only code that
/// turns a plan into nodes and links.
pub struct WorldPlan {
    /// Zone apex.
    pub apex: Name,
    /// Record name of each track, in track order.
    pub tracks: Vec<Name>,
    /// Name of the authoritative server's tier (and, with a `0` appended,
    /// of the node).
    pub auth_name: &'static str,
    /// The authoritative server's transport.
    pub auth_transport: TransportConfig,
    /// The authoritative server's stack seed.
    pub auth_seed: u64,
    /// Relay tiers, top-down; the first is the shard tier of
    /// [`Demand::home`]. Empty: stubs attach to the server.
    pub tiers: Vec<TierPlan>,
    /// Name of the stub tier.
    pub stub_name: &'static str,
    /// Resident stubs, stub `j` attached to member `j % n` of the `n` in
    /// the last tier ([`WorldPlan::parents`]).
    pub stubs: usize,
    /// Stub `j` seeds its stack with `stub_seed + j`.
    pub stub_seed: u64,
    /// Tracks per subscriber: the track space is cut into
    /// `tracks.len() / slice_len` slices of consecutive tracks.
    pub slice_len: usize,
    /// The slice resident stub `j` subscribes to.
    pub slice_of: Box<dyn Fn(usize) -> usize>,
    /// Default link, also the link of every stub and of every node
    /// attached after the build.
    pub link: LinkConfig,
    /// Index of the tier whose member `r` roots region `r`: it and
    /// everything below it live on shard `r % workers`, everything above
    /// on shard 0. `None`: one region.
    pub region_tier: Option<usize>,
    /// First three octets of the addresses updates push (the fourth is
    /// the update's octet).
    pub update_net: [u8; 3],
    /// Run time after the build before anyone measures.
    pub settle: Duration,
    /// Run time of one [`RelayWorld::update_round`].
    pub update_interval: Duration,
}

impl WorldPlan {
    /// A plan for a zone holding `tracks`, every stub subscribing to all
    /// of them, with the defaults the standing worlds share; callers
    /// override fields with struct-update syntax.
    pub fn new(apex: &str, tracks: Vec<Name>, link: LinkConfig) -> WorldPlan {
        WorldPlan {
            apex: apex.parse().expect("valid apex"),
            auth_name: "auth",
            auth_transport: TransportConfig::patient(),
            auth_seed: 11,
            tiers: Vec::new(),
            stub_name: "stub",
            stubs: 0,
            stub_seed: 100,
            slice_len: tracks.len(),
            slice_of: Box::new(|_| 0),
            tracks,
            link,
            region_tier: None,
            update_net: [198, 51, 100],
            settle: Duration::from_secs(5),
            update_interval: Duration::from_secs(5),
        }
    }

    /// Distinct track slices.
    pub fn slices(&self) -> usize {
        self.tracks.len() / self.slice_len
    }

    /// The parents of member `j` of tier `t` below the server — relay tier
    /// `t`, or at `t == tiers.len()` resident stub `j` — primary first, as
    /// indices into the tier above (the server alone above tier 0). This
    /// one rule decides who attaches where: [`WorldPlan::demand`] places
    /// every relay and stub by it and [`RelayWorld::from_plan`] wires them
    /// by it. A member of a plain tier of `m` relays below `m` parents
    /// walks forward from `j % m`, so primaries spread round-robin; every
    /// member of a [`Route::HashShard`] tier takes `above[..parents]` in
    /// aligned order; a stub takes the one parent `j % m`.
    pub fn parents(&self, t: usize, j: usize) -> impl Iterator<Item = usize> {
        let m = t.checked_sub(1).map_or(1, |above| self.tiers[above].count);
        let (take, first) = match self.tiers.get(t) {
            Some(tier) if tier.policy == Route::HashShard => (tier.parents, 0),
            Some(tier) => (tier.parents, j),
            None => (1, j),
        };
        (0..take.min(m)).map(move |s| (first + s) % m)
    }

    /// The primary parent of member `j` of tier `t` ([`WorldPlan::parents`]).
    fn primary(&self, t: usize, j: usize) -> usize {
        let mut parents = self.parents(t, j);
        parents
            .next()
            .expect("every tier below the server has a parent")
    }

    /// Replaces track `i`'s A record at `auth`, the origin of a world
    /// built from this plan: one `with_node`, flushed.
    fn update_track(&self, sim: &mut ParSim, auth: NodeId, i: usize, octet: u8) {
        let [n0, n1, n2] = self.update_net;
        let addr = Ipv4Addr::new(n0, n1, n2, octet);
        sim.with_node::<AuthServer, _>(auth, |a, ctx| replace_a(a, ctx, &self.tracks[i], 60, addr));
    }

    /// Replaces every track's A record at `auth` once, track `i`'s to
    /// octet `octet_base + i`, without advancing time — so a chaos drill
    /// can push a round at a barrier point inside a fault window.
    pub(crate) fn push_round(&self, sim: &mut ParSim, auth: NodeId, octet_base: u8) {
        for i in 0..self.tracks.len() {
            self.update_track(sim, auth, i, octet_base.wrapping_add(i as u8));
        }
    }

    /// Who subscribes to what under this plan, in which region each
    /// relay lives and where each track is homed, computed once. Every
    /// stub and relay hangs off its primary parent ([`WorldPlan::parents`]);
    /// member `i` of the region tier roots region `i`, and every other
    /// relay is in the region of its primary parent.
    /// [`RelayWorld::from_plan`] places every node by this map.
    pub fn demand(&self) -> Demand {
        let slices = self.slices();
        let mut region = vec![vec![0]];
        for (t, tier) in self.tiers.iter().enumerate() {
            let above = region.last().expect("the server's region");
            let members = (0..tier.count).map(|i| match self.region_tier {
                Some(rt) if rt == t => i,
                _ => above[self.primary(t, i)],
            });
            region.push(members.collect());
        }
        let edges = region.last().expect("the server's region").len();
        let regions = self.region_tier.map_or(1, |t| self.tiers[t].count);
        let shards = self.tiers.first().map_or(1, |t| t.count as u64);
        let home = self.tracks.iter().map(|name| {
            let question = Question::new(name.clone(), RecordType::A);
            let track = track_from_question(&question, RequestFlags::iterative());
            (track_hash(&track.expect("a record name maps to a track")) % shards) as usize
        });
        let mut demand = Demand {
            slice_len: self.slice_len,
            population: vec![0; slices],
            under: vec![vec![false; slices]; edges],
            region,
            wanted: vec![vec![false; slices]; regions],
            home: home.collect(),
            federated: self.tiers.first().is_some_and(|t| t.peers.is_some()),
        };
        let stub_tier = self.tiers.len();
        for j in 0..self.stubs {
            let s = (self.slice_of)(j);
            let e = self.primary(stub_tier, j);
            let r = demand.region[stub_tier][e];
            demand.population[s] += 1;
            demand.under[e][s] = true;
            demand.wanted[r][s] = true;
        }
        demand
    }
}

/// A [`WorldPlan`]'s demand map ([`WorldPlan::demand`]): what its
/// resident stubs subscribe to, under which relay and region, and which
/// member of the first relay tier each track is homed on. Every count a
/// relay row expects is computed from it. Who hangs under whom comes from
/// the rule the world is wired by, [`WorldPlan::parents`].
pub struct Demand {
    /// Tracks per subscriber.
    pub slice_len: usize,
    /// Resident stubs per slice.
    pub population: Vec<usize>,
    /// `under[e][s]`: some resident stub of last-tier relay `e` (of the
    /// server, without tiers) subscribes slice `s`.
    pub under: Vec<Vec<bool>>,
    /// `region[t][i]`: the region of member `i` of tier `t` from the top:
    /// the server at `t = 0`, then the relay tiers.
    region: Vec<Vec<usize>>,
    /// `wanted[r][s]`: some resident stub of region `r` subscribes slice `s`.
    wanted: Vec<Vec<bool>>,
    /// The home shard of each track: the member of the first relay tier
    /// its hash names — under a peer federation the only one that ever
    /// contacts the origin for it, under [`Route::HashShard`] the one
    /// every relay below routes it to.
    pub home: Vec<usize>,
    /// The first tier is a peer federation.
    federated: bool,
}

impl Demand {
    /// Resident (stub, track) subscriptions: the joining fetches of the
    /// stampede, which a deployment that does not coalesce would all
    /// escalate, and the deliveries of one update round.
    pub fn subscriptions(&self) -> u64 {
        (self.population.iter().sum::<usize>() * self.slice_len) as u64
    }

    /// Deliveries `k` updates of every track must produce.
    pub fn deliveries(&self, k: u64) -> u64 {
        k * self.subscriptions()
    }

    /// Tracks subscribed below last-tier relay `e`: its upstream fetches
    /// under the stampede, and the objects one update round brings it.
    pub fn tracks_under(&self, e: usize) -> u64 {
        (self.under[e].iter().filter(|&&p| p).count() * self.slice_len) as u64
    }

    /// Tracks homed on shard `c`.
    pub fn shard_size(&self, c: usize) -> usize {
        self.home.iter().filter(|&&h| h == c).count()
    }

    /// The slice of every track homed on shard `c` (`homed`) or
    /// elsewhere.
    fn slices_homed(&self, c: usize, homed: bool) -> impl Iterator<Item = usize> + '_ {
        let tracks = self.home.iter().enumerate();
        let picked = tracks.filter(move |&(_, &h)| (h == c) == homed);
        picked.map(|(t, _)| t / self.slice_len)
    }

    /// Fetches shard `c` sends the origin under the stampede, and the
    /// objects per update it takes from the origin: the tracks homed on it
    /// that some region wants.
    pub fn origin_fetches(&self, c: usize) -> u64 {
        let wanted = self.slices_homed(c, true);
        wanted.filter(|&s| self.wanted.iter().any(|w| w[s])).count() as u64
    }

    /// Fetches federated core `c` sends its peers, and the objects per
    /// update it takes from them: the tracks its region wants that are
    /// homed elsewhere. None without a federation.
    pub fn peer_fetches(&self, c: usize) -> u64 {
        if !self.federated {
            return 0;
        }
        let foreign = self.slices_homed(c, false);
        foreign.filter(|&s| self.wanted[c][s]).count() as u64
    }
}

/// What hangs at the end of an [`RelayWorld::attach`]ed link.
pub enum Leaf {
    /// A [`TreeStub`]; stub `i` subscribes to slice `slice_of(i)`. With
    /// `redial`, it runs that transport and re-dials after a loss.
    Stub {
        /// Slice per cohort index.
        slice_of: Box<dyn Fn(usize) -> usize>,
        /// Transport and redial delay of a reconnecting stub.
        redial: Option<(TransportConfig, Duration)>,
    },
    /// A static-parent [`RelayNode`].
    Relay,
    /// A [`ByzantineNode`] ticking at this interval.
    Byzantine(Duration),
    /// A [`SlowLorisNode`] subscribing to every track.
    SlowLoris,
    /// A [`FetchBombNode`]: interval and fetches per tick.
    FetchBomb(Duration, u32),
}

/// Nodes that join a built world mid-run, all under one parent.
pub struct Cohort {
    /// Node names; one node per name.
    pub names: Vec<String>,
    /// Node `i` seeds its stack with `seed + i`.
    pub seed: u64,
    /// What each node is.
    pub leaf: Leaf,
}

/// A relay world: one authoritative server, tiers of [`RelayNode`]s and
/// [`TreeStub`] leaves, built from a [`WorldPlan`] on a [`ParSim`]: one
/// shard per region, with the event history of one shard at any count
/// (`tests/parallel_parity.rs`).
///
/// ```text
///                  auth                  plan.auth_*
///               /   |    \
///          tier[0] ══ … ══ tier[0]       plan.tiers[0] (peers: full mesh)
///            |  \      …      |
///          tier[1] …        tier[1]      plan.tiers[1] …
///            |                |
///          stubs            stubs        plan.stubs, slice_of
/// ```
///
/// Every tree link's traffic is observable through `sim.stats()`, which
/// is how the §3 one-copy-per-link invariant gets asserted. Who is whose
/// parent is not stored: the plan decides it ([`WorldPlan::parents`]).
pub struct RelayWorld {
    /// The simulator, sharded by region.
    pub sim: ParSim,
    /// The relays of each plan tier, in index order.
    tiers: Vec<Vec<NodeId>>,
    /// The plan this world was built from.
    pub plan: WorldPlan,
    /// The plan's demand map.
    pub demand: Demand,
    /// Authoritative server node.
    pub auth: NodeId,
    /// Resident stub nodes (stub `j` hangs off its parent by
    /// [`WorldPlan::parents`] and subscribes to slice `plan.slice_of(j)`).
    pub stubs: Vec<NodeId>,
    /// The questions, one per track.
    pub questions: Vec<Question>,
    /// Region of the server and of every relay, attached ones included.
    regions: HashMap<NodeId, usize>,
}

/// The metro-scale world under the name `benchmark/` builds it by.
pub type MetroWorld = RelayWorld;

impl RelayWorld {
    /// Builds and settles the metro world `spec` describes on one shard.
    pub fn build(spec: &MetroScenario, seed: u64) -> RelayWorld {
        RelayWorld::from_plan(plans::metro(spec), seed, 1)
    }

    /// Builds the world `plan` describes and runs it for `plan.settle`
    /// (stubs connected, joining fetches answered, parent and peer
    /// subscriptions in place). Sharding is by region: only the links
    /// above `plan.region_tier` and its peer mesh cross shards. Workers
    /// beyond the region count would own nothing, so the count is
    /// clamped to `1..=regions`.
    pub fn from_plan(plan: WorldPlan, seed: u64, workers: usize) -> RelayWorld {
        let region_count = plan.region_tier.map_or(1, |t| plan.tiers[t].count);
        let mut sim = ParSim::new(seed, workers.clamp(1, region_count.max(1)));
        let w = sim.workers();
        sim.set_default_link(plan.link);

        let mut zone = Zone::with_default_soa(plan.apex.clone());
        for (i, name) in plan.tracks.iter().enumerate() {
            zone.add_record(Record::new(
                name.clone(),
                60,
                RData::A(Ipv4Addr::new(192, 0, 2, (i % 250) as u8 + 1)),
            ));
        }
        let questions: Vec<Question> = plan
            .tracks
            .iter()
            .map(|n| Question::new(n.clone(), RecordType::A))
            .collect();

        // The server, then tier by tier, then the stubs: node ids are
        // dense in that order, so a federated relay knows its peers' ids
        // before they exist.
        let demand = plan.demand();
        let server = AuthServer::new(
            Authority::single(zone),
            plan.auth_transport.clone(),
            plan.auth_seed,
        );
        let auth = sim.add_node(0, format!("{}0", plan.auth_name), Box::new(server));
        let mut regions = HashMap::from([(auth, 0)]);
        let mut tiers: Vec<Vec<NodeId>> = Vec::with_capacity(plan.tiers.len());
        for (t, tier) in plan.tiers.iter().enumerate() {
            let above = tiers.last().map_or(slice::from_ref(&auth), Vec::as_slice);
            let first = 1 + tiers.iter().map(Vec::len).sum::<usize>();
            let mut ids = Vec::with_capacity(tier.count);
            for j in 0..tier.count {
                let parents: Vec<NodeId> = plan.parents(t, j).map(|p| above[p]).collect();
                let uplinks = parents.iter().map(|&p| Addr::new(p, MOQT_PORT)).collect();
                let mut relay = RelayNode::with_policy(uplinks, tier.policy, tier.seed + j as u64);
                if tier.peers.is_some() {
                    let peers = (0..tier.count).filter(|&s| s != j);
                    let peers = peers.map(|s| Addr::new(NodeId::from_index(first + s), MOQT_PORT));
                    relay = relay.peers(peers.collect(), j);
                }
                if let Some((limits, backlog)) = tier.limits {
                    relay = relay.limits(limits).session_backlog(backlog);
                }
                let region = demand.region[t + 1][j];
                let id = sim.add_node(region % w, format!("{}{j}", tier.name), Box::new(relay));
                for &p in &parents {
                    sim.set_link(id, p, tier.link);
                }
                regions.insert(id, region);
                ids.push(id);
            }
            tiers.push(ids);
        }
        let edges = tiers.last().map_or(slice::from_ref(&auth), Vec::as_slice);
        let stub_tier = plan.tiers.len();
        let mut stubs = Vec::with_capacity(plan.stubs);
        for j in 0..plan.stubs {
            let e = plan.primary(stub_tier, j);
            let qs = slice_questions(&plan, &questions, (plan.slice_of)(j));
            let stub = TreeStub::new(
                Addr::new(edges[e], MOQT_PORT),
                qs,
                plan.stub_seed + j as u64,
            );
            let shard = demand.region[stub_tier][e] % w;
            let id = sim.add_node(shard, format!("{}{j}", plan.stub_name), Box::new(stub));
            sim.set_link(id, edges[e], plan.link);
            stubs.push(id);
        }
        for (tier, ids) in plan.tiers.iter().zip(&tiers) {
            if let Some(link) = tier.peers {
                for (i, &a) in ids.iter().enumerate() {
                    for &b in &ids[i + 1..] {
                        sim.set_link(a, b, link);
                    }
                }
            }
        }

        let settle = plan.settle;
        let mut world = RelayWorld {
            sim,
            tiers,
            demand,
            plan,
            auth,
            stubs,
            questions,
            regions,
        };
        world.sim.run_for(settle);
        world
    }

    /// The world with its deliveries digested from here on — for
    /// [`crate::gate::InvariantGate::history`] once the scenario has run.
    pub fn digested(mut self) -> RelayWorld {
        self.sim.enable_delivery_digest();
        self
    }

    /// The relays of the tier labelled `name`, in index order (none for a
    /// label the plan does not have).
    pub fn tier(&self, name: &str) -> &[NodeId] {
        let t = self.plan.tiers.iter().position(|t| t.name == name);
        t.map_or(&[], |t| &self.tiers[t])
    }

    /// Every relay's (primary parent, relay) attachment, tier by tier from
    /// the top: the distribution tree single-parent routing uses, whatever
    /// failover parents a tier has besides.
    pub fn primary_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.tiers.iter().enumerate().flat_map(move |(t, ids)| {
            let above = t
                .checked_sub(1)
                .map_or(slice::from_ref(&self.auth), |u| &self.tiers[u]);
            let parent = move |j| above[self.plan.primary(t, j)];
            ids.iter()
                .enumerate()
                .map(move |(j, &relay)| (parent(j), relay))
        })
    }

    /// The relay at `id`.
    pub fn relay(&self, id: NodeId) -> &RelayNode {
        self.sim.node_ref::<RelayNode>(id)
    }

    /// Replaces track `i`'s A record at the origin, triggering a push
    /// through the tiers.
    pub fn update_track(&mut self, i: usize, new_octet: u8) {
        self.plan
            .update_track(&mut self.sim, self.auth, i, new_octet);
    }

    /// Pushes one round of updates (every track once) without advancing
    /// time.
    pub fn push_round(&mut self, octet_base: u8) {
        self.plan.push_round(&mut self.sim, self.auth, octet_base);
    }

    /// Pushes one round of updates and runs `plan.update_interval`.
    pub fn update_round(&mut self, octet_base: u8) {
        self.push_round(octet_base);
        self.sim.run_for(self.plan.update_interval);
    }

    /// Takes the authoritative server or a relay out of service mid-run:
    /// CONNECTION_CLOSE to every peer, then dark.
    pub fn shutdown(&mut self, id: NodeId) {
        if id == self.auth {
            self.sim
                .with_node::<AuthServer, _>(id, |a, ctx| a.shutdown(ctx));
        } else {
            self.sim
                .with_node::<RelayNode, _>(id, |r, ctx| r.shutdown(ctx));
        }
    }

    /// Brings a shut-down relay back; recovery probes below re-attach to
    /// it and rebalance its shard home.
    pub fn revive(&mut self, id: NodeId) {
        self.sim.with_node::<RelayNode, _>(id, |r, _| r.revive());
    }

    /// Adds `cohort`'s nodes under `parent` (a relay, or the server), on
    /// the parent's shard, each linked to it over `plan.link`. Returns
    /// the new nodes; run the sim to let them join.
    pub fn attach(&mut self, parent: NodeId, cohort: &Cohort) -> Vec<NodeId> {
        let region = self.regions[&parent];
        let shard = region % self.sim.workers();
        let target = Addr::new(parent, MOQT_PORT);
        let mut ids = Vec::with_capacity(cohort.names.len());
        for (i, name) in cohort.names.iter().enumerate() {
            let seed = cohort.seed + i as u64;
            let node: Box<dyn Node> = match &cohort.leaf {
                Leaf::Stub { slice_of, redial } => {
                    let qs = slice_questions(&self.plan, &self.questions, slice_of(i));
                    match redial {
                        None => Box::new(TreeStub::new(target, qs, seed)),
                        Some((transport, delay)) => Box::new(
                            TreeStub::with_transport(target, qs, seed, transport.clone())
                                .redial_after(*delay),
                        ),
                    }
                }
                Leaf::Relay => Box::new(RelayNode::new(target, 0, seed)),
                Leaf::Byzantine(interval) => Box::new(ByzantineNode::new(target, *interval, seed)),
                Leaf::SlowLoris => {
                    Box::new(SlowLorisNode::new(target, self.questions.clone(), seed))
                }
                Leaf::FetchBomb(interval, burst) => {
                    Box::new(FetchBombNode::new(target, *interval, *burst, seed))
                }
            };
            let id = self.sim.add_node(shard, name.clone(), node);
            self.sim.set_link(id, parent, self.plan.link);
            if matches!(cohort.leaf, Leaf::Relay) {
                self.regions.insert(id, region);
            }
            ids.push(id);
        }
        ids
    }

    /// Attaches a cold edge relay (and the fresh stubs behind it) under
    /// the core of `region`; returns the stubs.
    pub fn add_late_edge(&mut self, region: usize, [edge, stubs]: [Cohort; 2]) -> Vec<NodeId> {
        let core = self.tier("core")[region];
        let edge = self.attach(core, &edge)[0];
        self.attach(edge, &stubs)
    }

    /// The stubs in `ids` go offline for good ([`TreeStub::leave`]).
    pub fn leave(&mut self, ids: &[NodeId]) {
        for &s in ids {
            self.sim
                .with_node::<TreeStub, _>(s, |stub, ctx| stub.leave(ctx));
        }
    }

    /// Pushed updates received across the stubs in `ids`.
    pub fn delivered(&self, ids: &[NodeId]) -> u64 {
        ids.iter()
            .map(|&s| self.sim.node_ref::<TreeStub>(s).updates)
            .sum()
    }

    /// Fetch responses (joining + rejoin) answered across the stubs in
    /// `ids`.
    pub fn fetched(&self, ids: &[NodeId]) -> u64 {
        ids.iter()
            .map(|&s| self.sim.node_ref::<TreeStub>(s).fetched)
            .sum()
    }

    /// Pushed updates received across the resident stubs.
    pub fn delivered_updates(&self) -> u64 {
        self.delivered(&self.stubs)
    }

    /// Joining fetches answered across the resident stubs.
    pub fn fetched_total(&self) -> u64 {
        self.fetched(&self.stubs)
    }

    /// Datagrams delivered over every `from → to` link since the last
    /// stats reset — the per-link form of the one-copy invariant.
    pub fn delivered_between(&self, from: &[NodeId], to: &[NodeId]) -> u64 {
        let stats = self.sim.stats();
        from.iter()
            .flat_map(|&a| to.iter().map(move |&b| (a, b)))
            .map(|(a, b)| stats.between(a, b).delivered)
            .sum()
    }

    /// The summed relay stats of the tier labelled `name`.
    pub fn tier_totals(&self, name: &str) -> TierRelayStats {
        let mut tier = TierRelayStats::new(name);
        for &id in self.tier(name) {
            let r = self.relay(id);
            tier.accumulate(r.stats(), r.upstream_subscription_count());
        }
        tier
    }

    /// Per-tier relay stats, top tier first.
    pub fn tier_stats(&self) -> Vec<TierRelayStats> {
        let tiers = self.plan.tiers.iter();
        tiers.map(|t| self.tier_totals(&t.name)).collect()
    }
}

/// The questions of slice `s` of `plan`'s track space.
fn slice_questions(plan: &WorldPlan, questions: &[Question], s: usize) -> Vec<Question> {
    questions[s * plan.slice_len..(s + 1) * plan.slice_len].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(tiers: Vec<TierPlan>, stubs: usize) -> WorldPlan {
        let tracks = vec!["r0.rule.example".parse().expect("valid name")];
        WorldPlan {
            tiers,
            stubs,
            ..WorldPlan::new("rule.example", tracks, LinkConfig::instant())
        }
    }

    fn parents(plan: &WorldPlan, t: usize, j: usize) -> Vec<usize> {
        plan.parents(t, j).collect()
    }

    #[test]
    fn a_plain_tier_walks_forward_from_its_rotated_primary() {
        let link = LinkConfig::instant();
        let edge = TierPlan {
            parents: 2,
            ..TierPlan::new("edge", 4, link, 60)
        };
        let plan = plan(vec![TierPlan::new("tier1", 3, link, 40), edge], 9);
        // Every member of the first tier hangs off the server.
        assert_eq!(parents(&plan, 0, 2), [0]);
        // Edge `j` starts at `j % 3` and walks forward, never repeating.
        assert_eq!(parents(&plan, 1, 0), [0, 1]);
        assert_eq!(parents(&plan, 1, 1), [1, 2]);
        assert_eq!(parents(&plan, 1, 2), [2, 0]);
        assert_eq!(parents(&plan, 1, 3), [0, 1]);
        // Stub `j` takes one parent, edge `j % 4`.
        let under: Vec<Vec<usize>> = (0..9).map(|j| parents(&plan, 2, j)).collect();
        assert_eq!(under, [[0], [1], [2], [3], [0], [1], [2], [3], [0]]);
    }

    #[test]
    fn a_hash_shard_tier_takes_its_parents_in_aligned_order() {
        let link = LinkConfig::instant();
        let edge = TierPlan {
            parents: 5,
            policy: Route::HashShard,
            ..TierPlan::new("edge", 4, link, 60)
        };
        let plan = plan(vec![TierPlan::new("core", 3, link, 40), edge], 0);
        // Parent `i` is core `i` at every edge, and no edge takes more
        // parents than the tier above holds.
        for j in 0..4 {
            assert_eq!(parents(&plan, 1, j), [0, 1, 2]);
        }
    }

    #[test]
    fn a_chain_takes_a_single_parent_per_member() {
        // Five single-relay hops, each under the one above, and the
        // stubs all under the last.
        let plan = plans::chain(true);
        for t in 0..5 {
            assert_eq!(parents(&plan, t, 0), [0]);
        }
        for j in 0..3 {
            assert_eq!(parents(&plan, 5, j), [0]);
        }
        // Without relay tiers a stub hangs off the server.
        assert_eq!(parents(&plans::relay_fanout(3, false), 0, 2), [0]);
    }

    #[test]
    fn the_built_tree_is_wired_by_the_rule() {
        let w = RelayWorld::from_plan(plans::tree(true, true), 1, 1);
        let (tier1, edges) = (w.tier("tier1"), w.tier("edge"));
        assert_eq!((tier1.len(), edges.len(), w.stubs.len()), (2, 4, 8));
        assert!(w.tier("nope").is_empty());
        // Edges 0 and 2 under tier-1 relay 0, edges 1 and 3 under 1.
        let tree: Vec<_> = w.primary_edges().collect();
        let expected = [
            (w.auth, tier1[0]),
            (w.auth, tier1[1]),
            (tier1[0], edges[0]),
            (tier1[1], edges[1]),
            (tier1[0], edges[2]),
            (tier1[1], edges[3]),
        ];
        assert_eq!(tree, expected);
        assert_eq!(w.sim.node_name(edges[3]), "edge3");
        // Each stub's joining fetches of both tracks came back through it.
        assert_eq!(w.fetched_total(), 8 * 2);
    }

    #[test]
    fn demand_places_relays_and_stubs_by_their_primary_parent() {
        // 3 regional cores over 6 edges: edge `e` is in region `e % 3`,
        // and each of the 12 stubs is under edge `j % 6`.
        let demand = plans::federation(true).demand();
        assert_eq!(demand.region[1], [0, 1, 2]);
        assert_eq!(demand.region[2], [0, 1, 2, 0, 1, 2]);
        assert_eq!(demand.under.len(), 6);
        assert!(demand.under.iter().all(|e| e == &[true]));
        assert_eq!(demand.population, [12]);
    }
}
