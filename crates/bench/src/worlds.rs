//! Reusable simulated worlds for the experiments: the paper's
//! root → TLD → auth → recursive hierarchy ([`World`]) and the one relay
//! world every gated scenario runs on ([`RelayWorld`], built from a
//! plain-data [`WorldPlan`]).

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
use moqdns_moqt::relay::{track_hash, Failover, HashShard, RelayLimits, RoutePolicy, StaticParent};
use moqdns_netsim::topo::{ParentMode, TopoBuilder, TopoHost};
use moqdns_netsim::{
    Addr, Ctx, LinkConfig, Node, NodeId, ParSim, Payload, SimTime, Simulator, Topology,
};
use moqdns_quic::TransportConfig;
use std::any::Any;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
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
    /// of `ttl` and `addr`, triggering pushes — now, or when the clock
    /// reaches `at`. Returns the change time.
    pub fn set_a(&mut self, at: Option<SimTime>, host: &str, ttl: u32, addr: Ipv4Addr) -> SimTime {
        let host = name(host);
        let zone = self.apexes.iter().position(|a| host.is_subdomain_of(a));
        let auth = self.auths[zone.expect("a host of one of the zones")];
        let set = move |sim: &mut Simulator| {
            sim.with_node::<AuthServer, _>(auth, |a, ctx| {
                a.update_zone(ctx, |authority| {
                    if let Some(z) = authority.find_zone_mut(&host) {
                        let record = Record::new(host.clone(), ttl, RData::A(addr));
                        z.set_records(&host, RecordType::A, vec![record]);
                    }
                });
            });
        };
        match at {
            Some(at) => self.sim.schedule_at(at, set),
            None => set(&mut self.sim),
        }
        at.unwrap_or(self.sim.now())
    }
}

/// Either a single-threaded [`Simulator`] or a sharded [`ParSim`].
///
/// [`RelayWorld`] builds against this handle so one construction path
/// drives both the CI-baseline run (single-threaded, bit-exact against
/// committed results) and the parallel run (one worker per region group,
/// conservative-lookahead barriers — see `moqdns_netsim::par`). Node
/// creation names the owning shard; the single-threaded variant ignores
/// it. Because every link in these worlds is lossless (the simulator's
/// RNG is never consulted on a lossless transmit) and every node carries
/// its own seeded RNG, the two variants produce identical delivery
/// traces — pinned by `tests/parallel_parity.rs` for 1, 2, and N workers.
pub enum SimHandle {
    /// One global event loop — the exact CI-baseline event stream.
    /// (Boxed: the simulator is hundreds of bytes of inline state and
    /// this enum is stored by value in every world.)
    Single(Box<Simulator>),
    /// Sharded, synchronized at conservative-lookahead barriers.
    Par(ParSim),
}

impl SimHandle {
    /// Creates a handle: `workers == 0` builds the single-threaded
    /// simulator, `workers >= 1` the sharded one (1 shard replays the
    /// exact single-threaded event stream through the parallel plumbing).
    pub fn new(seed: u64, workers: usize) -> SimHandle {
        if workers == 0 {
            SimHandle::Single(Box::new(Simulator::new(seed)))
        } else {
            SimHandle::Par(ParSim::new(seed, workers))
        }
    }

    /// Number of shards (1 for the single-threaded variant).
    pub fn workers(&self) -> usize {
        match self {
            SimHandle::Single(_) => 1,
            SimHandle::Par(p) => p.workers(),
        }
    }

    /// Adds a node owned by `shard` (ignored single-threaded).
    pub fn add_node(
        &mut self,
        shard: usize,
        name: impl Into<String>,
        node: Box<dyn Node>,
    ) -> NodeId {
        match self {
            SimHandle::Single(s) => s.add_node(name, node),
            SimHandle::Par(p) => p.add_node(shard, name, node),
        }
    }

    /// Sets the link configuration used for pairs without an override.
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        match self {
            SimHandle::Single(s) => s.set_default_link(cfg),
            SimHandle::Par(p) => p.set_default_link(cfg),
        }
    }

    /// Sets both directions of the link between `a` and `b`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        match self {
            SimHandle::Single(s) => s.set_link(a, b, cfg),
            SimHandle::Par(p) => p.set_link(a, b, cfg),
        }
    }

    /// Sets only the `src -> dst` direction of a link (asymmetric fault
    /// windows; the chaos plane uses this through
    /// [`moqdns_netsim::FaultHost`]).
    pub fn set_link_directed(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        match self {
            SimHandle::Single(s) => s.set_link_directed(src, dst, cfg),
            SimHandle::Par(p) => p.set_link_directed(src, dst, cfg),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        match self {
            SimHandle::Single(s) => s.now(),
            SimHandle::Par(p) => p.now(),
        }
    }

    /// Runs events until `deadline` (inclusive); returns events executed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        match self {
            SimHandle::Single(s) => s.run_until(deadline),
            SimHandle::Par(p) => p.run_until(deadline),
        }
    }

    /// Runs for `d` of simulated time from now.
    pub fn run_for(&mut self, d: Duration) -> u64 {
        match self {
            SimHandle::Single(s) => s.run_for(d),
            SimHandle::Par(p) => p.run_for(d),
        }
    }

    /// Runs `f` with mutable access to the concrete node `T` at `id`.
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        match self {
            SimHandle::Single(s) => s.with_node(id, f),
            SimHandle::Par(p) => p.with_node(id, f),
        }
    }

    /// Immutable access to the concrete node `T` at `id`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        match self {
            SimHandle::Single(s) => s.node_ref(id),
            SimHandle::Par(p) => p.node_ref(id),
        }
    }

    /// Human-readable node name.
    pub fn node_name(&self, id: NodeId) -> &str {
        match self {
            SimHandle::Single(s) => s.node_name(id),
            SimHandle::Par(p) => p.node_name(id),
        }
    }

    /// Traffic counters (merged across shards when sharded).
    pub fn stats(&self) -> moqdns_netsim::TrafficStats<'_> {
        match self {
            SimHandle::Single(s) => s.stats(),
            SimHandle::Par(p) => p.stats(),
        }
    }

    /// Mutable traffic counters (e.g. to reset after warm-up).
    pub fn stats_mut(&mut self) -> moqdns_netsim::TrafficStatsMut<'_> {
        match self {
            SimHandle::Single(s) => s.stats_mut(),
            SimHandle::Par(p) => p.stats_mut(),
        }
    }

    /// Enables the order-independent delivery digest.
    pub fn enable_delivery_digest(&mut self) {
        match self {
            SimHandle::Single(s) => s.enable_delivery_digest(),
            SimHandle::Par(p) => p.enable_delivery_digest(),
        }
    }

    /// The delivery digest (wrapping sum across shards when sharded).
    pub fn delivery_digest(&self) -> u64 {
        match self {
            SimHandle::Single(s) => s.delivery_digest(),
            SimHandle::Par(p) => p.delivery_digest(),
        }
    }
}

impl TopoHost for SimHandle {
    fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        SimHandle::set_link(self, a, b, cfg);
    }
}

impl moqdns_netsim::FaultHost for SimHandle {
    fn now(&self) -> SimTime {
        SimHandle::now(self)
    }
    fn run_until(&mut self, deadline: SimTime) {
        SimHandle::run_until(self, deadline);
    }
    fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        SimHandle::set_link(self, a, b, cfg);
    }
    fn set_link_directed(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        SimHandle::set_link_directed(self, src, dst, cfg);
    }
}

/// Applies a [`moqdns_netsim::NodeFault`] to a [`RelayNode`] living in
/// `sim` — the
/// `on_node` callback the relay-tree chaos drills hand to
/// [`moqdns_netsim::run_plan`]. Crash sends CONNECTION_CLOSE everywhere
/// and goes dark ([`RelayNode::shutdown`]); restart re-initializes the
/// relay in place ([`RelayNode::revive`]) with its cumulative stats
/// intact.
pub fn apply_relay_fault(sim: &mut SimHandle, node: NodeId, fault: moqdns_netsim::NodeFault) {
    sim.with_node::<RelayNode, _>(node, |relay, ctx| match fault {
        // Guarded so replaying an already-applied plan prefix (the
        // drills drive one plan in segments, pausing mid-window to push
        // an update round) is a no-op rather than a second shutdown or a
        // state-wiping double revive.
        moqdns_netsim::NodeFault::Crash if !relay.is_dead() => relay.shutdown(ctx),
        moqdns_netsim::NodeFault::Restart if relay.is_dead() => relay.revive(),
        _ => {}
    });
}

/// How the relays of one tier pick the uplink for a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Always the first parent (chains, trees, regional edges).
    StaticParent,
    /// The primary parent until it dies, then the next one.
    Failover,
    /// The parent the track's hash names. Parents are wired in *aligned*
    /// order, so uplink `i` is the same relay at every member of the tier.
    HashShard,
}

/// One relay tier of a [`WorldPlan`].
#[derive(Debug, Clone)]
pub struct TierPlan {
    /// Tier label: node `i` is named `"<name><i>"`, and the label keys
    /// [`RelayWorld::tier`] and the per-tier stats.
    pub name: String,
    /// Relays in the tier.
    pub count: usize,
    /// Parents each relay attaches to in the tier above.
    pub parents: usize,
    /// Link to each parent.
    pub link: LinkConfig,
    /// Uplink choice per track.
    pub policy: Policy,
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
            policy: Policy::StaticParent,
            seed,
            peers: None,
            limits: None,
        }
    }
}

/// Everything that tells one relay world from another, as data: the zone,
/// the tiers between the authoritative server and the stubs, who
/// subscribes to what, every node seed, and how the world is cut into
/// simulator shards. [`RelayWorld::from_plan`] is the only code that turns
/// one into nodes.
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
    /// [`RelayWorld::home_core`]. Empty: stubs attach to the server.
    pub tiers: Vec<TierPlan>,
    /// Name of the stub tier.
    pub stub_name: &'static str,
    /// Resident stubs, attached round-robin to the last tier.
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
    /// The record names `r0.<apex>` … `r<n-1>.<apex>`.
    pub fn numbered_tracks(apex: &str, n: usize) -> Vec<Name> {
        (0..n)
            .map(|i| format!("r{i}.{apex}").parse().expect("valid record name"))
            .collect()
    }

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
}

/// A scenario parameter set that describes a relay world.
pub trait Scenario {
    /// The world this scenario runs on. `seed` is the simulator seed, for
    /// plans whose zone content is drawn from it.
    fn plan(&self, seed: u64) -> WorldPlan;
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
    /// A static-parent [`RelayNode`] with this tier label.
    Relay(&'static str),
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
/// [`TreeStub`] leaves, built from a [`WorldPlan`] on a [`SimHandle`] —
/// single-threaded (the CI-baseline path) or sharded by region with a
/// bit-identical event history (`tests/parallel_parity.rs`).
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
/// is how the §3 one-copy-per-link invariant gets asserted.
pub struct RelayWorld {
    /// The simulator (single-threaded or sharded — see [`SimHandle`]).
    pub sim: SimHandle,
    /// Tier/parent/peer bookkeeping from the builder.
    pub topo: Topology,
    /// The plan this world was built from.
    pub plan: WorldPlan,
    /// Authoritative server node.
    pub auth: NodeId,
    /// Resident stub nodes (stub `j` hangs off relay `j % n` of the last
    /// tier and subscribes to slice `plan.slice_of(j)`).
    pub stubs: Vec<NodeId>,
    /// The questions, one per track.
    pub questions: Vec<Question>,
    /// Region of the server and of every relay, attached ones included.
    regions: HashMap<NodeId, usize>,
}

/// The metro-scale world under the name `benchmark/` builds it by.
pub type MetroWorld = RelayWorld;

impl RelayWorld {
    /// Builds and settles `spec`'s world single-threaded — the
    /// CI-baseline path.
    pub fn build(spec: &impl Scenario, seed: u64) -> RelayWorld {
        RelayWorld::build_with_workers(spec, seed, 0)
    }

    /// Builds `spec`'s world on `workers` parallel shards (`0` =
    /// single-threaded).
    pub fn build_with_workers(spec: &impl Scenario, seed: u64, workers: usize) -> RelayWorld {
        RelayWorld::from_plan(spec.plan(seed), seed, workers)
    }

    /// Builds the world `plan` describes and runs it for `plan.settle`
    /// (stubs connected, joining fetches answered, parent and peer
    /// subscriptions in place). Sharding is by region: only the links
    /// above `plan.region_tier` and its peer mesh cross shards. Workers
    /// beyond the region count would own nothing, so the count is
    /// clamped.
    pub fn from_plan(plan: WorldPlan, seed: u64, workers: usize) -> RelayWorld {
        let region_count = plan.region_tier.map_or(1, |t| plan.tiers[t].count);
        let mut sim = SimHandle::new(seed, workers.min(region_count.max(1)));
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

        let mut builder = TopoBuilder::new().tier(plan.auth_name, 1, 0, plan.link);
        // Node creation is dense and tier-ordered (server = 0, then tier
        // by tier), so a federated relay knows its peers' addresses
        // before they exist (asserted below).
        let mut first_id = vec![1usize];
        for t in &plan.tiers {
            let mode = match t.policy {
                Policy::HashShard => ParentMode::Aligned,
                _ => ParentMode::Rotate,
            };
            builder = builder.tier_with_mode(t.name.as_str(), t.count, t.parents, t.link, mode);
            if let Some(link) = t.peers {
                builder = builder.peer_full_mesh(t.name.as_str(), link);
            }
            first_id.push(first_id.last().expect("non-empty") + t.count);
        }
        builder = builder.tier(plan.stub_name, plan.stubs, 1, plan.link);

        let mut regions: HashMap<NodeId, usize> = HashMap::new();
        let topo = builder.build(&mut sim, |sim, ctx| {
            let uplinks: Vec<Addr> = ctx
                .parents
                .iter()
                .map(|&p| Addr::new(p, MOQT_PORT))
                .collect();
            let above = ctx.parents.first().map_or(0, |p| regions[p]);
            let tier = ctx.tier.checked_sub(1).and_then(|t| plan.tiers.get(t));
            let (region, node): (usize, Box<dyn Node>) = match tier {
                None if ctx.tier == 0 => (
                    0,
                    Box::new(AuthServer::new(
                        Authority::single(zone.clone()),
                        plan.auth_transport.clone(),
                        plan.auth_seed,
                    )),
                ),
                None => {
                    let qs = slice_questions(&plan, &questions, (plan.slice_of)(ctx.index));
                    let seed = plan.stub_seed + ctx.index as u64;
                    (above, Box::new(TreeStub::new(uplinks[0], qs, seed)))
                }
                Some(t) => {
                    let policy: Box<dyn RoutePolicy> = match t.policy {
                        Policy::StaticParent => Box::new(StaticParent),
                        Policy::Failover => Box::new(Failover),
                        Policy::HashShard => Box::new(HashShard),
                    };
                    let mut relay =
                        RelayNode::with_policy(uplinks, policy, 0, t.seed + ctx.index as u64)
                            .tier(t.name.as_str());
                    if t.peers.is_some() {
                        let peers = (0..t.count)
                            .filter(|&s| s != ctx.index)
                            .map(|s| {
                                let id = NodeId::from_index(first_id[ctx.tier - 1] + s);
                                Addr::new(id, MOQT_PORT)
                            })
                            .collect();
                        relay = relay.peers(peers, ctx.index);
                    }
                    if let Some((limits, backlog)) = t.limits {
                        relay = relay.limits(limits).session_backlog(backlog);
                    }
                    let region = match plan.region_tier {
                        Some(rt) if ctx.tier - 1 == rt => ctx.index,
                        _ => above,
                    };
                    (region, Box::new(relay))
                }
            };
            let id = sim.add_node(region % w, ctx.name.clone(), node);
            if ctx.tier <= plan.tiers.len() {
                regions.insert(id, region);
            }
            id
        });
        for (t, tier) in plan.tiers.iter().enumerate() {
            let ids = topo.tier_named(&tier.name);
            assert_eq!(
                ids.first().map(|id| id.index()),
                (tier.count > 0).then_some(first_id[t]),
                "dense tier-ordered node ids"
            );
        }

        let auth = topo.tier_named(plan.auth_name)[0];
        let stubs = topo.tier_named(plan.stub_name).to_vec();
        let settle = plan.settle;
        let mut world = RelayWorld {
            sim,
            topo,
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
    /// [`crate::gate::InvariantGate::digest`] once the scenario has run.
    pub fn digested(mut self) -> RelayWorld {
        self.sim.enable_delivery_digest();
        self
    }

    /// The relays of the tier labelled `name`, in index order.
    pub fn tier(&self, name: &str) -> &[NodeId] {
        self.topo.tier_named(name)
    }

    /// The relay at `id`.
    pub fn relay(&self, id: NodeId) -> &RelayNode {
        self.sim.node_ref::<RelayNode>(id)
    }

    /// The home shard of track `i`: the member of the first relay tier
    /// its hash names — under a peer federation the only one that ever
    /// contacts the origin for it, under [`Policy::HashShard`] the one
    /// every relay below routes it to.
    pub fn home_core(&self, i: usize) -> usize {
        let track = track_from_question(&self.questions[i], RequestFlags::iterative()).unwrap();
        (track_hash(&track) % self.plan.tiers[0].count as u64) as usize
    }

    /// Tracks homed on shard `c`.
    pub fn shard_size(&self, c: usize) -> usize {
        (0..self.questions.len())
            .filter(|&i| self.home_core(i) == c)
            .count()
    }

    /// Replaces track `i`'s A record at the origin, triggering a push
    /// through the tiers.
    pub fn update_track(&mut self, i: usize, new_octet: u8) {
        let name = self.plan.tracks[i].clone();
        let apex = self.plan.apex.clone();
        let [n0, n1, n2] = self.plan.update_net;
        self.sim.with_node::<AuthServer, _>(self.auth, |a, ctx| {
            a.update_zone(ctx, |authority| {
                if let Some(z) = authority.find_zone_mut(&apex) {
                    z.set_records(
                        &name,
                        RecordType::A,
                        vec![Record::new(
                            name.clone(),
                            60,
                            RData::A(Ipv4Addr::new(n0, n1, n2, new_octet)),
                        )],
                    );
                }
            });
        });
    }

    /// Pushes one round of updates (every track once) without advancing
    /// time — the chaos drills push mid-fault-window and let the fault
    /// plan drive the clock.
    pub fn push_round(&mut self, octet_base: u8) {
        for i in 0..self.questions.len() {
            self.update_track(i, octet_base.wrapping_add(i as u8));
        }
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
                Leaf::Relay(label) => Box::new(RelayNode::new(target, 0, seed).tier(*label)),
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
            if matches!(cohort.leaf, Leaf::Relay(_)) {
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
