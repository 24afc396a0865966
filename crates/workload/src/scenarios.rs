//! The §5.3 use-case parameter sets, with the paper's back-of-envelope
//! arithmetic reproduced exactly (experiments E6–E8), plus
//! [`TreeScenario`]: scaled-down versions of those worlds that run as
//! *simulated* multi-relay distribution trees instead of closed-form
//! arithmetic.

use std::time::Duration;

/// Dynamic DNS (paper §5.3, first scenario).
///
/// "Let us assume 100M users worldwide with 1,000 other users each
/// interested in their hosted services and involving 5 MoQ relays on
/// average. At two IP address updates per day and 300 B update size, this
/// would yield a globally distributed application layer update traffic of
/// some 5.5 Gbps."
#[derive(Debug, Clone, Copy)]
pub struct DdnsScenario {
    /// DDNS users hosting services.
    pub users: u64,
    /// Subscribers interested in each user's records.
    pub interested_per_user: u64,
    /// Average MoQ relays on each distribution path.
    pub relays_per_path: u64,
    /// Record updates per user per day.
    pub updates_per_day: f64,
    /// Bytes per pushed update.
    pub update_size: u64,
}

impl Default for DdnsScenario {
    fn default() -> DdnsScenario {
        DdnsScenario {
            users: 100_000_000,
            interested_per_user: 1_000,
            relays_per_path: 5,
            updates_per_day: 2.0,
            update_size: 300,
        }
    }
}

impl DdnsScenario {
    /// Deliveries per day across the system: each update reaches every
    /// interested party once (the relay tree aggregates the distribution,
    /// so intermediate hops do not multiply delivered copies — this is the
    /// paper's arithmetic, which lands at ≈5.5 Gbps).
    pub fn messages_per_day(&self) -> f64 {
        self.users as f64 * self.updates_per_day * self.interested_per_user as f64
    }

    /// Global application-layer update traffic in bits per second — the
    /// paper's ≈5.5 Gbps figure.
    pub fn global_bps(&self) -> f64 {
        self.messages_per_day() * self.update_size as f64 * 8.0 / 86_400.0
    }
}

/// CDN load balancing via short-TTL records (paper §5.3, second scenario).
///
/// "Conservatively assuming that a stub resolver subscribes to 1,000
/// different domains and all domains are updated at the lowest observed
/// clustered TTL of 10 s with 300 B per update, we obtain a downstream
/// update traffic of 240 kbps."
#[derive(Debug, Clone, Copy)]
pub struct CdnScenario {
    /// Domains a stub resolver is subscribed to.
    pub subscribed_domains: u64,
    /// Update interval (the lowest observed clustered TTL).
    pub update_interval: Duration,
    /// Bytes per pushed update.
    pub update_size: u64,
}

impl Default for CdnScenario {
    fn default() -> CdnScenario {
        CdnScenario {
            subscribed_domains: 1_000,
            update_interval: Duration::from_secs(10),
            update_size: 300,
        }
    }
}

impl CdnScenario {
    /// Downstream update traffic at one stub, bits per second — the
    /// paper's 240 kbps figure.
    pub fn stub_downstream_bps(&self) -> f64 {
        self.subscribed_domains as f64 * self.update_size as f64 * 8.0
            / self.update_interval.as_secs_f64()
    }
}

/// Deep space DNS replication (paper §5.3, third scenario; TIPTOP WG).
#[derive(Debug, Clone, Copy)]
pub struct DeepSpaceScenario {
    /// Domains replicated to the remote resolver.
    pub replicated_domains: u64,
    /// Update rate cap after throttling high-churn (load-balancing) records
    /// (§5.3: "forwarding of records for domains observed to provide high
    /// update rates could be throttled").
    pub max_updates_per_domain_per_hour: f64,
    /// Bytes per pushed update.
    pub update_size: u64,
}

impl Default for DeepSpaceScenario {
    fn default() -> DeepSpaceScenario {
        DeepSpaceScenario {
            replicated_domains: 10_000,
            max_updates_per_domain_per_hour: 1.0,
            update_size: 300,
        }
    }
}

impl DeepSpaceScenario {
    /// Throttled update traffic on the deep-space link, bits per second.
    pub fn link_bps(&self) -> f64 {
        self.replicated_domains as f64
            * self.max_updates_per_domain_per_hour
            * self.update_size as f64
            * 8.0
            / 3600.0
    }
}

/// A scaled-down §5.3 world instantiated on a real 3-tier relay tree
/// (auth → tier-1 relays → edge relays → stubs) inside `netsim`.
///
/// The paper's 5.5 Gbps DDNS estimate and 240 kbps CDN estimate both rest
/// on one structural assumption: relays aggregate subscriptions, so an
/// update crosses each tree link **once** no matter how many subscribers
/// sit below it. This scenario type carries the tree shape and update
/// schedule; `moqdns-bench` builds the matching simulation and checks the
/// measured per-link traffic against one copy per link and the fan-out
/// arithmetic below.
#[derive(Debug, Clone, Copy)]
pub struct TreeScenario {
    /// Scenario label ("ddns-tree", "cdn-tree", …).
    pub name: &'static str,
    /// Tier-1 relays attached to the authoritative server.
    pub tier1_relays: usize,
    /// Edge relays attached to each tier-1 relay.
    pub edges_per_tier1: usize,
    /// Stub subscribers attached to each edge relay.
    pub stubs_per_edge: usize,
    /// Distinct records (tracks); every stub subscribes to all of them.
    pub tracks: usize,
    /// Updates pushed per track during the measured window.
    pub updates_per_track: u64,
    /// Gap between update rounds.
    pub update_interval: Duration,
    /// One-way delay of every tree link.
    pub link_delay: Duration,
}

impl TreeScenario {
    /// DDNS flavour (§5.3 first scenario, scaled down): few records with
    /// a burst of address changes, fanned out through the tree.
    pub fn ddns_tree() -> TreeScenario {
        TreeScenario {
            name: "ddns-tree",
            tier1_relays: 2,
            edges_per_tier1: 2,
            stubs_per_edge: 16,
            tracks: 2,
            updates_per_track: 3,
            update_interval: Duration::from_secs(5),
            link_delay: Duration::from_millis(15),
        }
    }

    /// CDN flavour (§5.3 second scenario, scaled down): more records on a
    /// short-TTL update cadence.
    pub fn cdn_tree() -> TreeScenario {
        TreeScenario {
            name: "cdn-tree",
            tier1_relays: 2,
            edges_per_tier1: 2,
            stubs_per_edge: 8,
            tracks: 8,
            updates_per_track: 2,
            update_interval: Duration::from_secs(10),
            link_delay: Duration::from_millis(15),
        }
    }

    /// A tiny variant for CI smoke runs.
    pub fn smoke(self) -> TreeScenario {
        TreeScenario {
            stubs_per_edge: self.stubs_per_edge.min(2),
            tracks: self.tracks.min(2),
            updates_per_track: self.updates_per_track.min(2),
            ..self
        }
    }

    /// Total edge relays.
    pub fn edge_relays(&self) -> usize {
        self.tier1_relays * self.edges_per_tier1
    }

    /// Total stub subscribers.
    pub fn stub_count(&self) -> usize {
        self.edge_relays() * self.stubs_per_edge
    }

    /// Updates pushed at the authoritative server over the whole run.
    pub fn total_updates(&self) -> u64 {
        self.updates_per_track * self.tracks as u64
    }

    /// Deliveries the run must produce: every stub sees every update of
    /// every track exactly once.
    pub fn expected_deliveries(&self) -> u64 {
        self.total_updates() * self.stub_count() as u64
    }

    /// Copies of one update a *naive* (relay-free) deployment would send
    /// from the authoritative server: one per stub. The tree sends
    /// [`TreeScenario::tier1_relays`] instead; the ratio is the paper's
    /// aggregation saving at the origin.
    pub fn origin_saving(&self) -> f64 {
        self.stub_count() as f64 / self.tier1_relays as f64
    }

    /// Update objects any single edge relay forwards over the run.
    pub fn edge_forwards(&self) -> u64 {
        self.total_updates() * self.stubs_per_edge as u64
    }
}

/// A multi-region hash-shard mesh instantiated on a real topology inside
/// `netsim`: origin → core relays (one shard each) → per-region edge
/// relays hash-sharding tracks across **all** cores → stubs.
///
/// Where [`TreeScenario`] pins the §3 one-copy-per-link invariant on a
/// tree, this scenario pins three more of the paper's assumptions:
///
/// 1. sharding preserves aggregation — each update still crosses each
///    upstream link at most once, summed per child exactly once;
/// 2. a joining-fetch stampede is *coalesced* — concurrent same-track
///    fetches produce one upstream fetch per relay per track, so the
///    origin sees `tracks` fetches, not `stubs × tracks`;
/// 3. shard recovery rebalances — killing a core re-routes its shard to
///    surviving cores (ring walk) with zero loss, and reviving it makes
///    every edge move the shard *back* with zero loss.
#[derive(Debug, Clone, Copy)]
pub struct MeshScenario {
    /// Scenario label.
    pub name: &'static str,
    /// Core relays (= hash shards) attached to the origin.
    pub cores: usize,
    /// Regions of edge relays.
    pub regions: usize,
    /// Edge relays per region (each attaches to all cores, aligned).
    pub edges_per_region: usize,
    /// Stub subscribers per edge relay.
    pub stubs_per_edge: usize,
    /// Distinct records (tracks); every stub subscribes to all of them.
    pub tracks: usize,
    /// Updates pushed per track during each measured round.
    pub updates_per_track: u64,
    /// Gap between update rounds.
    pub update_interval: Duration,
    /// One-way delay of every link.
    pub link_delay: Duration,
}

impl MeshScenario {
    /// The standing multi-region mesh drill.
    pub fn mesh() -> MeshScenario {
        MeshScenario {
            name: "mesh",
            cores: 3,
            regions: 3,
            edges_per_region: 2,
            stubs_per_edge: 8,
            tracks: 6,
            updates_per_track: 3,
            update_interval: Duration::from_secs(5),
            link_delay: Duration::from_millis(15),
        }
    }

    /// A tiny variant for CI smoke runs (shape preserved, volume shrunk).
    pub fn smoke(self) -> MeshScenario {
        MeshScenario {
            regions: self.regions.min(2),
            stubs_per_edge: self.stubs_per_edge.min(2),
            tracks: self.tracks.min(4),
            updates_per_track: self.updates_per_track.min(2),
            ..self
        }
    }

    /// Total edge relays across all regions.
    pub fn edge_count(&self) -> usize {
        self.regions * self.edges_per_region
    }

    /// Total stub subscribers.
    pub fn stub_count(&self) -> usize {
        self.edge_count() * self.stubs_per_edge
    }

    /// Updates pushed at the origin per round.
    pub fn total_updates(&self) -> u64 {
        self.updates_per_track * self.tracks as u64
    }

    /// Deliveries one update round must produce: every stub sees every
    /// update of every track exactly once.
    pub fn expected_deliveries(&self) -> u64 {
        self.total_updates() * self.stub_count() as u64
    }

    /// Upstream fetches one edge relay may open under a joining-fetch
    /// stampede: one per track, however many stubs join at once.
    pub fn edge_fetch_bound(&self) -> u64 {
        self.tracks as u64
    }

    /// Upstream fetches the whole core tier may open under the stampede:
    /// one per track system-wide (each track has exactly one home core,
    /// which coalesces every edge's fetch).
    pub fn core_tier_fetch_bound(&self) -> u64 {
        self.tracks as u64
    }

    /// Fetches a naive (non-coalescing) deployment would escalate from
    /// the edge tier during the stampede: one per stub per track.
    pub fn naive_edge_fetches(&self) -> u64 {
        self.stub_count() as u64 * self.tracks as u64
    }
}

/// A cross-region **core federation** instantiated on a real topology:
/// origin → K regional cores (one hash shard each, full-mesh peer links
/// between them) → region-local edge relays → stubs.
///
/// Where [`MeshScenario`] lets every edge attach to every core (so shard
/// routing happens at the edges), a federation keeps edges *regional* —
/// each edge attaches only to its region's core — and moves the shard
/// routing into the core tier: a core serves tracks homed on a *peer*
/// core by subscribing/fetching over the peer link to that core, never
/// via the origin. The invariants this pins:
///
/// 1. **origin offload** — during a full-join stampede the origin sees
///    exactly one fetch per track (from its home core); every non-home
///    core fetches the track from its home peer exactly once, however
///    many regional edges stampede;
/// 2. **one copy per link under federation** — an update leaves the
///    origin once (to the home core) and crosses each home→peer core
///    link once, regardless of per-region subscriber counts;
/// 3. **origin independence** — after the origin dies, every
///    already-published track remains fully servable region-to-region
///    from the core tier's caches and peer subscriptions, with zero loss.
#[derive(Debug, Clone, Copy)]
pub struct FederationScenario {
    /// Scenario label.
    pub name: &'static str,
    /// Federated cores (= regions = hash shards).
    pub cores: usize,
    /// Edge relays per region (each attaches only to its region's core).
    pub edges_per_region: usize,
    /// Stub subscribers per edge relay.
    pub stubs_per_edge: usize,
    /// Distinct records (tracks); every stub subscribes to all of them.
    pub tracks: usize,
    /// Updates pushed per track during each measured round.
    pub updates_per_track: u64,
    /// Gap between update rounds.
    pub update_interval: Duration,
    /// One-way delay of intra-region links (core→edge, edge→stub).
    pub link_delay: Duration,
    /// One-way delay of inter-region links (origin→core, core↔core) —
    /// deliberately slower so the latency asymmetry shows in results.
    pub peer_delay: Duration,
}

impl FederationScenario {
    /// The standing cross-region federation drill.
    pub fn federation() -> FederationScenario {
        FederationScenario {
            name: "federation",
            cores: 3,
            edges_per_region: 2,
            stubs_per_edge: 4,
            tracks: 6,
            updates_per_track: 3,
            update_interval: Duration::from_secs(5),
            link_delay: Duration::from_millis(10),
            peer_delay: Duration::from_millis(40),
        }
    }

    /// A tiny variant for CI smoke runs (shape preserved, volume shrunk;
    /// the core count stays put so the shard map is unchanged).
    pub fn smoke(self) -> FederationScenario {
        FederationScenario {
            stubs_per_edge: self.stubs_per_edge.min(2),
            tracks: self.tracks.min(4),
            updates_per_track: self.updates_per_track.min(2),
            ..self
        }
    }

    /// Total edge relays across all regions.
    pub fn edge_count(&self) -> usize {
        self.cores * self.edges_per_region
    }

    /// Total stub subscribers.
    pub fn stub_count(&self) -> usize {
        self.edge_count() * self.stubs_per_edge
    }

    /// Updates pushed at the origin per round.
    pub fn total_updates(&self) -> u64 {
        self.updates_per_track * self.tracks as u64
    }

    /// Deliveries one update round must produce: every stub sees every
    /// update of every track exactly once.
    pub fn expected_deliveries(&self) -> u64 {
        self.total_updates() * self.stub_count() as u64
    }

    /// Peer fetches the whole core tier opens during the stampede: each
    /// of the K cores fetches every track *not* homed on it from the home
    /// peer, exactly once.
    pub fn peer_fetch_total(&self) -> u64 {
        (self.cores as u64 - 1) * self.tracks as u64
    }

    /// Fetches the origin sees during the stampede: one per track, from
    /// its home core only.
    pub fn origin_fetch_bound(&self) -> u64 {
        self.tracks as u64
    }

    /// Fetches the origin would see if the regional cores were *not*
    /// federated (every core escalates every regional miss): one per
    /// core per track.
    pub fn naive_origin_fetches(&self) -> u64 {
        self.cores as u64 * self.tracks as u64
    }

    /// Origin offload of the stampede as a percentage: the share of
    /// would-be origin fetches served core-to-core instead.
    pub fn offload_percent(&self) -> u64 {
        100 * self.peer_fetch_total() / self.naive_origin_fetches()
    }
}

/// A **metro-scale** cross-region federation: the [`FederationScenario`]
/// shape grown two orders of magnitude past anything else in the CI
/// matrix — 1 origin → K federated cores (full-mesh peer links, one hash
/// shard each) → K regions of region-local edges → **~10,000 stubs**
/// subscribing across **~64 tracks**.
///
/// At this scale no stub subscribes to *every* track (a metro population
/// doesn't): the track space is cut into `tracks / tracks_per_stub`
/// equal **slices** and stub `j` takes slice `(j / edge_count) %
/// slices`, so consecutive stubs under one edge walk all slices and
/// every edge still aggregates demand for the *full* track set
/// (guaranteed whenever `stubs_per_edge >= slices`, asserted at build).
/// That keeps every federation invariant meaningful at scale:
///
/// 1. **stampede coalescing** — ~10k stubs' joining fetches collapse to
///    exactly `tracks` upstream fetches per edge, `tracks` fetches at
///    the origin system-wide;
/// 2. **one copy per link** — an update still crosses origin→home-core
///    and each home→peer core link exactly once, with ~10k subscribers
///    below;
/// 3. **origin independence** — killing the origin leaves every
///    published track servable region-to-region, proven by cold edges +
///    stubs joining in every region with zero loss.
///
/// The scenario exists to measure the *simulator* as much as the
/// protocol: its full-size run is the wall-clock benchmark the sim
/// data-plane (zero-copy delivery, timing-wheel scheduler) is graded on.
#[derive(Debug, Clone, Copy)]
pub struct MetroScenario {
    /// Scenario label.
    pub name: &'static str,
    /// Federated cores (= regions = hash shards).
    pub cores: usize,
    /// Edge relays per region (each attaches only to its region's core).
    pub edges_per_region: usize,
    /// Stub subscribers per edge relay.
    pub stubs_per_edge: usize,
    /// Distinct records (tracks) across the whole metro.
    pub tracks: usize,
    /// Tracks each stub subscribes to (one contiguous slice).
    pub tracks_per_stub: usize,
    /// Updates pushed per track during each measured round.
    pub updates_per_track: u64,
    /// Gap between update rounds.
    pub update_interval: Duration,
    /// One-way delay of intra-region links (core→edge, edge→stub).
    pub link_delay: Duration,
    /// One-way delay of inter-region links (origin→core, core↔core).
    pub peer_delay: Duration,
}

impl MetroScenario {
    /// The standing metro drill: 3 regions × 4 edges × 833 stubs =
    /// 9,996 subscribers over 64 tracks (8 per stub).
    pub fn metro() -> MetroScenario {
        MetroScenario {
            name: "metro",
            cores: 3,
            edges_per_region: 4,
            stubs_per_edge: 833,
            tracks: 64,
            tracks_per_stub: 8,
            updates_per_track: 2,
            update_interval: Duration::from_secs(2),
            link_delay: Duration::from_millis(5),
            peer_delay: Duration::from_millis(30),
        }
    }

    /// A tiny variant for CI smoke runs: the federation shape and the
    /// slice machinery are preserved (cores and slice count stay put),
    /// only the population shrinks.
    pub fn smoke(self) -> MetroScenario {
        MetroScenario {
            edges_per_region: self.edges_per_region.min(2),
            stubs_per_edge: self.stubs_per_edge.min(8),
            tracks: self.tracks.min(16),
            tracks_per_stub: self.tracks_per_stub.min(2),
            ..self
        }
    }

    /// Distinct track slices (`tracks / tracks_per_stub`; the division
    /// must be exact).
    pub fn slices(&self) -> usize {
        assert!(
            self.tracks_per_stub > 0 && self.tracks.is_multiple_of(self.tracks_per_stub),
            "tracks_per_stub must divide tracks"
        );
        self.tracks / self.tracks_per_stub
    }

    /// The slice stub `j` (global index) subscribes to. Consecutive
    /// stubs under one edge (they sit `edge_count` apart in the global
    /// order) walk consecutive slices, so every edge sees every slice.
    pub fn slice_of_stub(&self, j: usize) -> usize {
        (j / self.edge_count()) % self.slices()
    }

    /// Total edge relays across all regions.
    pub fn edge_count(&self) -> usize {
        self.cores * self.edges_per_region
    }

    /// Total stub subscribers.
    pub fn stub_count(&self) -> usize {
        self.edge_count() * self.stubs_per_edge
    }

    /// Total (stub, track) subscriptions — also the joining-fetch
    /// stampede size and the deliveries per update round.
    pub fn subscription_count(&self) -> u64 {
        self.stub_count() as u64 * self.tracks_per_stub as u64
    }

    /// Updates pushed at the origin per round.
    pub fn total_updates(&self) -> u64 {
        self.updates_per_track * self.tracks as u64
    }

    /// Deliveries the measured rounds must produce: every stub sees
    /// every update of every track it subscribes to, exactly once.
    pub fn expected_deliveries(&self) -> u64 {
        self.updates_per_track * self.subscription_count()
    }

    /// Upstream fetches one edge relay opens under the stampede: one per
    /// track (all slices are present under every edge), however many
    /// hundreds of stubs join at once.
    pub fn edge_fetch_bound(&self) -> u64 {
        self.tracks as u64
    }

    /// Fetches the origin sees during the stampede: one per track, from
    /// its home core only — the federation origin-offload invariant,
    /// unchanged at metro scale.
    pub fn origin_fetch_bound(&self) -> u64 {
        self.tracks as u64
    }

    /// The naive stampede the coalescing machinery absorbs: one fetch
    /// per (stub, track) subscription.
    pub fn naive_fetches(&self) -> u64 {
        self.subscription_count()
    }
}

/// A **planet-scale** federation: the [`MetroScenario`] shape grown one
/// more order of magnitude — dozens of regions, **~100,000 stubs** — with
/// two workload dimensions the metro deliberately leaves flat:
///
/// 1. **Zipf popularity** (from `workload::toplist`): the track space is
///    cut into slices as in the metro, but stub `j` picks its slice by a
///    Zipf quantile over track rank instead of a uniform walk, so slice 0
///    (the top-ranked records) holds the majority of subscribers and the
///    tail slices thin out — some edges never see them at all. Every
///    expectation is therefore *computed* from [`slice_of_stub`], never
///    assumed: the per-edge fetch bound sums the slices actually present
///    under each edge.
/// 2. **diurnal join/leave waves**: transient cohorts join every edge,
///    subscribe Zipf-popular slices, receive a round, and leave (their
///    connections close). The invariants: wave joining fetches are all
///    answered (zero loss from caches/aggregation), deliveries stay exact
///    for residents *and* waves, departed stubs receive nothing further,
///    and the edge tier's session state returns to its pre-wave size.
///
/// Everything is a pure function of the spec, so the scenario stays
/// machine-checkable at 100k scale and bit-identical at every shard
/// count of its [`ParSim`]-backed simulator build.
///
/// [`slice_of_stub`]: PlanetScenario::slice_of_stub
/// [`ParSim`]: ../../moqdns_netsim/par/index.html
#[derive(Debug, Clone, Copy)]
pub struct PlanetScenario {
    /// Scenario label.
    pub name: &'static str,
    /// Federated cores (= regions = hash shards). "Dozens."
    pub cores: usize,
    /// Edge relays per region (each attaches only to its region's core).
    pub edges_per_region: usize,
    /// Resident stub subscribers per edge relay.
    pub stubs_per_edge: usize,
    /// Distinct records (tracks), rank-ordered: track 0 is the most
    /// popular (toplist rank 1).
    pub tracks: usize,
    /// Tracks each stub subscribes to (one contiguous rank slice).
    pub tracks_per_stub: usize,
    /// Zipf exponent for popularity (matches `Toplist::zipf_exponent`).
    pub zipf_s: f64,
    /// Diurnal waves: transient cohorts that join, stay a round, leave.
    pub waves: usize,
    /// Transient stubs each wave adds under every edge.
    pub wave_stubs_per_edge: usize,
    /// Updates pushed per track during each measured round.
    pub updates_per_track: u64,
    /// Gap between update rounds.
    pub update_interval: Duration,
    /// One-way delay of intra-region links (core→edge, edge→stub).
    pub link_delay: Duration,
    /// One-way delay of inter-region links (origin→core, core↔core).
    pub peer_delay: Duration,
}

impl PlanetScenario {
    /// The standing planet drill: 24 regions × 8 edges × 521 stubs =
    /// 100,032 resident subscribers over 96 tracks (8 per stub), plus
    /// 2 diurnal waves of 24×8×16 = 3,072 transient stubs each.
    pub fn planet() -> PlanetScenario {
        PlanetScenario {
            name: "planet",
            cores: 24,
            edges_per_region: 8,
            stubs_per_edge: 521,
            tracks: 96,
            tracks_per_stub: 8,
            zipf_s: 1.0,
            waves: 2,
            wave_stubs_per_edge: 16,
            updates_per_track: 2,
            update_interval: Duration::from_secs(2),
            link_delay: Duration::from_millis(5),
            peer_delay: Duration::from_millis(30),
        }
    }

    /// A tiny variant for CI smoke runs. The *shape* is the point and is
    /// preserved: still 24 regions (the planet's "dozens"), still 12
    /// slices, still 2 waves — only the population shrinks.
    pub fn smoke(self) -> PlanetScenario {
        PlanetScenario {
            edges_per_region: 1,
            stubs_per_edge: self.stubs_per_edge.min(12),
            tracks: self.tracks.min(24),
            tracks_per_stub: self.tracks_per_stub.min(2),
            wave_stubs_per_edge: self.wave_stubs_per_edge.min(2),
            ..self
        }
    }

    /// Distinct track slices (`tracks / tracks_per_stub`; exact).
    pub fn slices(&self) -> usize {
        assert!(
            self.tracks_per_stub > 0 && self.tracks.is_multiple_of(self.tracks_per_stub),
            "tracks_per_stub must divide tracks"
        );
        self.tracks / self.tracks_per_stub
    }

    /// The track indices of slice `s`.
    pub fn slice_tracks(&self, s: usize) -> std::ops::Range<usize> {
        s * self.tracks_per_stub..(s + 1) * self.tracks_per_stub
    }

    /// Cumulative Zipf weight per slice: `cum[s]` sums `1/rank^s` over
    /// every track of slices `0..=s` (track `t` has rank `t + 1`).
    fn slice_cum(&self) -> Vec<f64> {
        let mut cum = Vec::with_capacity(self.slices());
        let mut acc = 0.0;
        for s in 0..self.slices() {
            for t in self.slice_tracks(s) {
                acc += 1.0 / ((t + 1) as f64).powf(self.zipf_s);
            }
            cum.push(acc);
        }
        cum
    }

    /// The slice at popularity quantile `u ∈ [0, 1)`: low `u` lands on
    /// the head slices, which hold most of the Zipf mass.
    pub fn slice_at_quantile(&self, u: f64) -> usize {
        let cum = self.slice_cum();
        let total = *cum.last().expect("at least one slice");
        cum.partition_point(|w| *w <= u * total)
            .min(self.slices() - 1)
    }

    /// The slice resident stub `j` (global index) subscribes to: stubs
    /// are spread evenly over the popularity quantile axis, so slice
    /// populations follow the Zipf weights. A pure function of `j`, so
    /// every subscriber-count expectation below is computable.
    pub fn slice_of_stub(&self, j: usize) -> usize {
        self.slice_at_quantile((j as f64 + 0.5) / self.stub_count() as f64)
    }

    /// The slice the `i`-th transient stub of a wave subscribes to (the
    /// same per-edge cohort shape for every wave and edge).
    pub fn wave_slice_of(&self, i: usize) -> usize {
        self.slice_at_quantile((i as f64 + 0.5) / self.wave_stubs_per_edge as f64)
    }

    /// Total edge relays across all regions.
    pub fn edge_count(&self) -> usize {
        self.cores * self.edges_per_region
    }

    /// The region edge `j` serves (the builder wires edge `j`'s parent
    /// round-robin: core `j % cores`).
    pub fn region_of_edge(&self, j: usize) -> usize {
        j % self.cores
    }

    /// Total resident stub subscribers.
    pub fn stub_count(&self) -> usize {
        self.edge_count() * self.stubs_per_edge
    }

    /// Total resident (stub, track) subscriptions — the joining-fetch
    /// stampede size and the per-round resident delivery count.
    pub fn subscription_count(&self) -> u64 {
        self.stub_count() as u64 * self.tracks_per_stub as u64
    }

    /// Resident stubs subscribed to slice `s`.
    pub fn slice_population(&self, s: usize) -> usize {
        (0..self.stub_count())
            .filter(|&j| self.slice_of_stub(j) == s)
            .count()
    }

    /// Which slices are present under edge `e` (resident population):
    /// `present[s]` is true when some resident stub of edge `e`
    /// subscribes slice `s`. Zipf-tail slices are absent under many
    /// edges — that is the point.
    pub fn slices_under_edge(&self, e: usize) -> Vec<bool> {
        let mut present = vec![false; self.slices()];
        let ec = self.edge_count();
        for l in 0..self.stubs_per_edge {
            present[self.slice_of_stub(e + l * ec)] = true;
        }
        present
    }

    /// Which slices a wave cohort subscribes (identical for every edge).
    pub fn wave_slices(&self) -> Vec<bool> {
        let mut present = vec![false; self.slices()];
        for i in 0..self.wave_stubs_per_edge {
            present[self.wave_slice_of(i)] = true;
        }
        present
    }

    /// Which slices are demanded in region `r` (union over its edges).
    pub fn region_slices(&self, r: usize) -> Vec<bool> {
        let mut present = vec![false; self.slices()];
        for j in 0..self.edge_count() {
            if self.region_of_edge(j) == r {
                for (s, &p) in self.slices_under_edge(j).iter().enumerate() {
                    present[s] |= p;
                }
            }
        }
        present
    }

    /// Which tracks are demanded in region `r`.
    pub fn region_tracks(&self, r: usize) -> Vec<bool> {
        let mut present = vec![false; self.tracks];
        for (s, &p) in self.region_slices(r).iter().enumerate() {
            if p {
                for t in self.slice_tracks(s) {
                    present[t] = true;
                }
            }
        }
        present
    }

    /// Which tracks are demanded *anywhere* (some region wants them).
    pub fn demanded_tracks(&self) -> Vec<bool> {
        let mut present = vec![false; self.tracks];
        for r in 0..self.cores {
            for (t, &p) in self.region_tracks(r).iter().enumerate() {
                present[t] |= p;
            }
        }
        present
    }

    /// Upstream fetches the whole edge tier opens under the resident
    /// stampede: each edge fetches one per track of each slice actually
    /// present under it (coalescing makes it independent of population).
    pub fn edge_fetch_total(&self) -> u64 {
        (0..self.edge_count())
            .map(|e| {
                let n = self.slices_under_edge(e).iter().filter(|&&p| p).count();
                (n * self.tracks_per_stub) as u64
            })
            .sum()
    }

    /// Extra upstream fetches the edge tier opens when a wave joins:
    /// only slices the wave demands that the edge's residents do *not*
    /// cover need a fetch; everything else is served from the edge.
    pub fn wave_edge_fetch_delta(&self) -> u64 {
        let wave = self.wave_slices();
        (0..self.edge_count())
            .map(|e| {
                let under = self.slices_under_edge(e);
                let novel = wave.iter().zip(&under).filter(|&(&w, &u)| w && !u).count();
                (novel * self.tracks_per_stub) as u64
            })
            .sum()
    }

    /// Transient (stub, track) subscriptions one wave adds system-wide.
    pub fn wave_subscription_count(&self) -> u64 {
        (self.edge_count() * self.wave_stubs_per_edge * self.tracks_per_stub) as u64
    }

    /// Updates pushed at the origin per round.
    pub fn total_updates(&self) -> u64 {
        self.updates_per_track * self.tracks as u64
    }

    /// Resident deliveries the measured rounds must produce.
    pub fn expected_deliveries(&self) -> u64 {
        self.updates_per_track * self.subscription_count()
    }

    /// The naive stampede the coalescing machinery absorbs.
    pub fn naive_fetches(&self) -> u64 {
        self.subscription_count()
    }
}

/// The paper's depth-D relay chain ("involving 5 MoQ relays on average",
/// §5.3) as a standing drill: origin → `hops` single-relay tiers →
/// stubs, built by `TopoBuilder::chain`. Pins that aggregation holds at
/// *every* depth: one upstream fetch per track per hop under a joining
/// stampede, one copy of each update per hop link, complete delivery.
#[derive(Debug, Clone, Copy)]
pub struct ChainScenario {
    /// Scenario label.
    pub name: &'static str,
    /// Relay hops between origin and stubs.
    pub hops: usize,
    /// Stub subscribers attached to the last hop.
    pub stubs: usize,
    /// Distinct records (tracks); every stub subscribes to all of them.
    pub tracks: usize,
    /// Updates pushed per track during the measured window.
    pub updates_per_track: u64,
    /// One-way delay of every link.
    pub link_delay: Duration,
}

impl ChainScenario {
    /// The standing depth-5 chain (the paper's average path length).
    pub fn chain() -> ChainScenario {
        ChainScenario {
            name: "chain",
            hops: 5,
            stubs: 8,
            tracks: 4,
            updates_per_track: 3,
            link_delay: Duration::from_millis(10),
        }
    }

    /// A tiny variant for CI smoke runs — the depth is the point, so
    /// only the fan-in shrinks.
    pub fn smoke(self) -> ChainScenario {
        ChainScenario {
            stubs: self.stubs.min(3),
            tracks: self.tracks.min(2),
            updates_per_track: self.updates_per_track.min(2),
            ..self
        }
    }

    /// Updates pushed at the origin over the whole run.
    pub fn total_updates(&self) -> u64 {
        self.updates_per_track * self.tracks as u64
    }

    /// Deliveries the run must produce.
    pub fn expected_deliveries(&self) -> u64 {
        self.total_updates() * self.stubs as u64
    }
}

/// The protocol-hardening drill (ISSUE 6): a small honest tree — origin →
/// core relay → edge relays → stubs — that must keep perfect delivery
/// while three attackers hang off one edge relay:
///
/// - a **byzantine** client feeding the edge garbage control bytes,
///   bogus-alias datagrams, and duplicate request ids (the session state
///   machine must poison + close, counting violations);
/// - a **slow-loris** subscriber that subscribes to every track and then
///   never drains (the per-session backlog bound must evict it);
/// - a **fetch bomber** stampeding cold tracks (the per-session fetch
///   budget must throttle and finally evict it).
///
/// The survival invariants the binary gates: honest stubs see every
/// update of every track (zero loss under attack), the attacked edge's
/// session state stays bounded (evictions actually reclaim), and each
/// attack leaves its fingerprint in the hardening counters
/// (`violations`, `dropped_datagrams`, `throttled_fetches`,
/// `evicted_sessions`) rather than in honest-path metrics.
#[derive(Debug, Clone, Copy)]
pub struct AdversarialScenario {
    /// Scenario label.
    pub name: &'static str,
    /// Edge relays under the core (attackers target the first).
    pub edges: usize,
    /// Honest stub subscribers per edge relay.
    pub stubs_per_edge: usize,
    /// Distinct records (tracks); every honest stub subscribes to all.
    pub tracks: usize,
    /// Update rounds pushed per track during the attack window.
    pub updates_per_track: u64,
    /// Gap between update rounds.
    pub update_interval: Duration,
    /// One-way delay of every link.
    pub link_delay: Duration,
    /// Attack cadence (byzantine + fetch-bomb tick).
    pub attack_interval: Duration,
    /// Standalone cold-track FETCHes per fetch-bomb tick.
    pub fetch_burst: u32,
    /// Edge-relay limit: outstanding upstream fetches one session may
    /// hold before throttling.
    pub max_outstanding_fetches: u32,
    /// Edge-relay limit: throttles a session survives before eviction.
    pub evict_after_throttles: u32,
    /// Edge-relay bound on per-session unacked send backlog (bytes); a
    /// publish that finds the session above it evicts the session.
    pub session_backlog: usize,
}

impl AdversarialScenario {
    /// The standing hardening drill.
    pub fn adversarial() -> AdversarialScenario {
        AdversarialScenario {
            name: "adversarial",
            edges: 2,
            stubs_per_edge: 3,
            tracks: 8,
            updates_per_track: 8,
            update_interval: Duration::from_secs(2),
            link_delay: Duration::from_millis(10),
            attack_interval: Duration::from_millis(500),
            fetch_burst: 48,
            max_outstanding_fetches: 16,
            evict_after_throttles: 64,
            session_backlog: 4 * 1024,
        }
    }

    /// A tiny variant for CI smoke runs. The update-round count is NOT
    /// shrunk: the slow-loris eviction needs enough pushed-and-unacked
    /// updates to cross the backlog bound, so rounds are the shape here,
    /// not the volume.
    pub fn smoke(self) -> AdversarialScenario {
        AdversarialScenario {
            stubs_per_edge: self.stubs_per_edge.min(2),
            tracks: self.tracks.min(6),
            ..self
        }
    }

    /// Total honest stub subscribers.
    pub fn stub_count(&self) -> usize {
        self.edges * self.stubs_per_edge
    }

    /// Updates pushed at the origin over the attack window.
    pub fn total_updates(&self) -> u64 {
        self.updates_per_track * self.tracks as u64
    }

    /// Deliveries the honest population must see despite the attackers:
    /// every stub, every update, every track, exactly once.
    pub fn expected_deliveries(&self) -> u64 {
        self.total_updates() * self.stub_count() as u64
    }

    /// Throttles one fetch-bomb burst must produce once the budget is
    /// exhausted (burst size minus the outstanding allowance).
    pub fn throttles_per_burst(&self) -> u64 {
        self.fetch_burst
            .saturating_sub(self.max_outstanding_fetches) as u64
    }
}

/// The **chaos** drill: the metro-class federation world driven through
/// a composed, seeded fault plan — flap the busiest origin→core uplink
/// through an update round, partition one whole region, and
/// crash+restart an edge relay with a live subscriber cohort below it —
/// gating the recovery invariants the paper's always-on distribution
/// tree depends on:
///
/// 1. **zero honest post-recovery loss** — every update round pushed
///    before, during, or after a fault window is eventually delivered in
///    full (pushed objects ride reliable streams; flapped links
///    retransmit after healing, partitioned regions drain on reunion);
/// 2. **no duplicate delivery across a fault** — per-stub, per-track
///    version sequences never regress, across link flaps *and* across a
///    crash/redial/resubscribe cycle;
/// 3. **bounded redial storms** — disconnected subscribers re-attach
///    within a bounded number of dial attempts, and relay recovery
///    probes back off exponentially (capped) instead of hammering;
/// 4. **bounded state high-water** — relay session/state size returns to
///    its steady-state envelope once the faults heal (no leaked sessions
///    or subscriptions from the chaos).
///
/// The same plan replays bit-identically at every shard count
/// (`--par N`) — the fault plane applies at simulation barriers and all
/// loss draws are per-link deterministic (see `moqdns_netsim::faults`).
#[derive(Debug, Clone, Copy)]
pub struct ChaosScenario {
    /// Scenario label.
    pub name: &'static str,
    /// The underlying metro-class world.
    pub metro: MetroScenario,
    /// Subscribers on the crash-target edge (the redial cohort).
    pub chaos_stubs: usize,
    /// Idle timeout for the redial cohort: short, so a dial into a dead
    /// edge fails fast instead of probing into the void for an hour.
    pub stub_idle: Duration,
    /// Keep-alive interval for the redial cohort.
    pub stub_keep_alive: Duration,
    /// Redial cadence of the cohort after a lost connection.
    pub stub_redial: Duration,
    /// Length of the uplink flap window (covers an update round).
    pub flap_len: Duration,
    /// The region isolated by the partition drill.
    pub partition_region: usize,
    /// How long the partition holds (the paper-shaped drill: 10 s).
    pub partition_len: Duration,
    /// How long the crashed edge stays down before its restart.
    pub edge_downtime: Duration,
    /// Settle time after each fault heals before gating.
    pub settle: Duration,
    /// Seed for the fault plan's deterministic window jitter.
    pub fault_seed: u64,
}

impl ChaosScenario {
    /// The standing chaos drill on the metro world.
    pub fn chaos() -> ChaosScenario {
        ChaosScenario {
            name: "chaos",
            metro: MetroScenario::metro(),
            chaos_stubs: 8,
            stub_idle: Duration::from_secs(4),
            stub_keep_alive: Duration::from_secs(1),
            stub_redial: Duration::from_millis(500),
            flap_len: Duration::from_secs(3),
            partition_region: 1,
            partition_len: Duration::from_secs(10),
            edge_downtime: Duration::from_secs(12),
            settle: Duration::from_secs(5),
            fault_seed: 0xC4A05,
        }
    }

    /// The CI smoke variant: only the metro population shrinks — every
    /// fault window keeps its full length (the drill is about time
    /// constants, not volume).
    pub fn smoke(self) -> ChaosScenario {
        ChaosScenario {
            metro: self.metro.smoke(),
            ..self
        }
    }

    /// (stub, track) subscriptions held by the redial cohort — also the
    /// deliveries it must see per update round while attached.
    pub fn chaos_subscriptions(&self) -> u64 {
        self.chaos_stubs as u64 * self.metro.tracks_per_stub as u64
    }

    /// Upper bound on dial attempts per cohort stub across the whole
    /// run: the downtime divided by the fastest possible
    /// redial-and-time-out cycle, plus slack for the reconnect race.
    pub fn redials_per_stub_bound(&self) -> u64 {
        let cycle = (self.stub_idle + self.stub_redial).as_millis().max(1);
        (self.edge_downtime.as_millis() / cycle) as u64 + 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_scenario_arithmetic() {
        let s = FederationScenario::federation();
        assert_eq!(s.edge_count(), 6);
        assert_eq!(s.stub_count(), 24);
        assert_eq!(s.total_updates(), 18);
        assert_eq!(s.expected_deliveries(), 18 * 24);
        // The offload headline: 18 naive origin fetches shrink to 6; the
        // other 12 are served core-to-core.
        assert_eq!(s.peer_fetch_total(), 12);
        assert_eq!(s.origin_fetch_bound(), 6);
        assert_eq!(s.naive_origin_fetches(), 18);
        assert_eq!(s.offload_percent(), 66);
    }

    #[test]
    fn federation_scenario_smoke_keeps_shards() {
        let s = FederationScenario::federation().smoke();
        assert!(s.stub_count() <= 12);
        assert!(s.total_updates() <= 8);
        assert_eq!(s.cores, 3, "shard map unchanged");
        assert!(s.peer_delay > s.link_delay, "asymmetry preserved");
    }

    #[test]
    fn metro_scenario_arithmetic() {
        let s = MetroScenario::metro();
        assert_eq!(s.edge_count(), 12);
        assert_eq!(s.stub_count(), 9_996, "~10k stubs");
        assert_eq!(s.slices(), 8);
        assert_eq!(s.subscription_count(), 9_996 * 8);
        assert_eq!(s.expected_deliveries(), 2 * 9_996 * 8);
        assert_eq!(s.edge_fetch_bound(), 64);
        assert_eq!(s.origin_fetch_bound(), 64);
        // The coalescing headline: ~80k naive joining fetches become 64
        // at the origin.
        assert_eq!(s.naive_fetches(), 79_968);
        // Every edge sees every slice: consecutive stubs under one edge
        // walk consecutive slices.
        assert!(s.stubs_per_edge >= s.slices());
        for e in 0..s.edge_count() {
            let mut seen = vec![false; s.slices()];
            for k in 0..s.slices() {
                seen[s.slice_of_stub(e + k * s.edge_count())] = true;
            }
            assert!(seen.iter().all(|&b| b), "edge {e} misses a slice");
        }
    }

    #[test]
    fn metro_scenario_smoke_keeps_shape() {
        let s = MetroScenario::metro().smoke();
        assert_eq!(s.cores, 3, "shard map unchanged");
        assert_eq!(s.slices(), 8, "slice machinery unchanged");
        assert!(s.stub_count() <= 48);
        assert!(
            s.stubs_per_edge >= s.slices(),
            "every edge sees every slice"
        );
        assert!(s.peer_delay > s.link_delay, "asymmetry preserved");
    }

    #[test]
    fn planet_scenario_arithmetic() {
        let s = PlanetScenario::planet();
        assert_eq!(s.edge_count(), 192);
        assert_eq!(s.stub_count(), 100_032, "~100k resident stubs");
        assert_eq!(s.slices(), 12);
        assert_eq!(s.subscription_count(), 100_032 * 8);
        assert_eq!(s.expected_deliveries(), 2 * 100_032 * 8);
        assert_eq!(s.wave_subscription_count(), 192 * 16 * 8);
        // Zipf skew: the head slice dwarfs the tail slice, and the
        // populations cover the whole resident population.
        let pops: Vec<usize> = (0..s.slices()).map(|x| s.slice_population(x)).collect();
        assert_eq!(pops.iter().sum::<usize>(), s.stub_count());
        assert!(
            pops[0] > 10 * pops[s.slices() - 1],
            "head {} vs tail {}",
            pops[0],
            pops[s.slices() - 1]
        );
        // Every slice has someone at full scale, so every track is
        // demanded somewhere.
        assert!(pops.iter().all(|&p| p > 0));
        assert!(s.demanded_tracks().iter().all(|&d| d));
        // At full scale the per-edge quantile grid (1/521 spacing) is
        // finer than the thinnest slice band, so every edge still covers
        // every slice and the fetch total hits the dense bound exactly.
        assert_eq!(s.edge_fetch_total(), (s.edge_count() * s.tracks) as u64);
    }

    #[test]
    fn planet_scenario_smoke_keeps_shape() {
        let s = PlanetScenario::planet().smoke();
        assert_eq!(s.cores, 24, "dozens of regions is the shape");
        assert_eq!(s.slices(), 12, "slice machinery unchanged");
        assert_eq!(s.waves, 2, "diurnal waves preserved");
        assert!(s.stub_count() <= 300);
        assert!(s.peer_delay > s.link_delay, "asymmetry preserved");
        // Quantile assignment stays total and in-range.
        for j in 0..s.stub_count() {
            assert!(s.slice_of_stub(j) < s.slices());
        }
        for i in 0..s.wave_stubs_per_edge {
            assert!(s.wave_slice_of(i) < s.slices());
        }
        // In the sparse smoke shape (12 stubs per edge, 8.3% quantile
        // spacing) Zipf-tail slices ARE absent under some edges — the
        // effect the planet exists to exercise.
        assert!(s.edge_fetch_total() < (s.edge_count() * s.tracks) as u64);
        // Yet system-wide every slice still has subscribers, so every
        // track is demanded somewhere.
        assert!((0..s.slices()).all(|x| s.slice_population(x) > 0));
        assert!(s.demanded_tracks().iter().all(|&d| d));
    }

    #[test]
    fn planet_quantiles_are_monotone_and_popular_heavy() {
        let s = PlanetScenario::planet();
        // Monotone: later quantiles never map to earlier slices.
        let mut last = 0;
        for k in 0..100 {
            let sl = s.slice_at_quantile(k as f64 / 100.0);
            assert!(sl >= last);
            last = sl;
        }
        // Popular-heavy: the median subscriber sits in the head slices.
        assert!(s.slice_at_quantile(0.5) < s.slices() / 2);
        // Wave cohorts lean on the head too but still reach past it.
        let wave = s.wave_slices();
        assert!(wave[0], "waves always demand the head slice");
    }

    #[test]
    fn chain_scenario_arithmetic() {
        let s = ChainScenario::chain();
        assert_eq!(s.hops, 5, "the paper's average path length");
        assert_eq!(s.total_updates(), 12);
        assert_eq!(s.expected_deliveries(), 96);
        let sm = s.smoke();
        assert_eq!(sm.hops, 5, "depth is the point of the drill");
        assert!(sm.expected_deliveries() <= 12);
    }

    #[test]
    fn mesh_scenario_arithmetic() {
        let s = MeshScenario::mesh();
        assert_eq!(s.edge_count(), 6);
        assert_eq!(s.stub_count(), 48);
        assert_eq!(s.total_updates(), 18);
        assert_eq!(s.expected_deliveries(), 18 * 48);
        // The stampede bound: 6 tracks -> 6 upstream fetches per edge and
        // 6 across the whole core tier, vs 288 naive edge escalations.
        assert_eq!(s.edge_fetch_bound(), 6);
        assert_eq!(s.core_tier_fetch_bound(), 6);
        assert_eq!(s.naive_edge_fetches(), 288);
    }

    #[test]
    fn mesh_scenario_smoke_shrinks() {
        let s = MeshScenario::mesh().smoke();
        assert!(s.stub_count() <= 8);
        assert!(s.total_updates() <= 8);
        // Shape is preserved — the shard count stays put.
        assert_eq!(s.cores, 3);
        assert_eq!(s.edges_per_region, 2);
    }

    #[test]
    fn tree_scenario_arithmetic() {
        let s = TreeScenario::ddns_tree();
        assert_eq!(s.edge_relays(), 4);
        assert_eq!(s.stub_count(), 64);
        assert_eq!(s.total_updates(), 6);
        assert_eq!(s.expected_deliveries(), 6 * 64);
        // Origin egress shrinks from 64 copies to 2 per update.
        assert!((s.origin_saving() - 32.0).abs() < 1e-9);
        // Each edge forwards every update to its 16 stubs.
        assert_eq!(s.edge_forwards(), 96);
    }

    #[test]
    fn tree_scenario_smoke_shrinks() {
        let s = TreeScenario::cdn_tree().smoke();
        assert!(s.stub_count() <= 8);
        assert!(s.total_updates() <= 4);
        // Shape is preserved — only volume shrinks.
        assert_eq!(s.tier1_relays, 2);
        assert_eq!(s.edges_per_tier1, 2);
    }

    #[test]
    fn adversarial_scenario_arithmetic() {
        let s = AdversarialScenario::adversarial();
        assert_eq!(s.stub_count(), 6);
        assert_eq!(s.total_updates(), 64);
        assert_eq!(s.expected_deliveries(), 64 * 6);
        // Budget math: a 48-fetch burst against a 16-slot allowance
        // throttles 32 times per tick.
        assert_eq!(s.throttles_per_burst(), 32);
        assert!(
            s.fetch_burst > s.max_outstanding_fetches,
            "the bomb must actually exceed the budget"
        );
    }

    #[test]
    fn adversarial_scenario_smoke_keeps_attack_shape() {
        let s = AdversarialScenario::adversarial().smoke();
        assert!(s.stub_count() <= 4);
        // The limits, cadence, and round count survive the shrink — they
        // are what make the attacks trip their defenses.
        assert_eq!(s.updates_per_track, 8, "loris needs the full rounds");
        assert_eq!(s.fetch_burst, 48);
        assert_eq!(s.max_outstanding_fetches, 16);
        assert_eq!(s.session_backlog, 4 * 1024);
        assert!(s.throttles_per_burst() > 0);
    }

    #[test]
    fn ddns_matches_paper_5_5_gbps() {
        let s = DdnsScenario::default();
        let gbps = s.global_bps() / 1e9;
        // 100e6 * 2 * 1000 * 5 * 300 B * 8 / 86400 s = 5.55… Gbps.
        assert!((5.0..6.0).contains(&gbps), "{gbps} Gbps");
        assert!((gbps - 5.555).abs() < 0.1);
    }

    #[test]
    fn cdn_matches_paper_240_kbps() {
        let s = CdnScenario::default();
        let kbps = s.stub_downstream_bps() / 1e3;
        // 1000 * 300 B * 8 / 10 s = 240 kbps exactly.
        assert!((kbps - 240.0).abs() < 1e-9, "{kbps} kbps");
    }

    #[test]
    fn deep_space_round_trip_vs_replicated() {
        let s = DeepSpaceScenario::default();
        // Throttled updates keep the link load tiny.
        assert!(s.link_bps() < 10_000.0, "{} bps", s.link_bps());
    }

    #[test]
    fn scaling_behaviour() {
        let mut s = DdnsScenario::default();
        let base = s.global_bps();
        s.users *= 2;
        assert!(
            (s.global_bps() / base - 2.0).abs() < 1e-9,
            "linear in users"
        );
    }
}
