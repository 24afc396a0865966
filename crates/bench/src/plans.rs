//! The gated scenarios' worlds as data: one [`WorldPlan`] per relay row,
//! at full size and under `smoke` at CI size, plus the [`Cohort`]s that
//! join those worlds mid-run (late edges, the chaos edge and its redial
//! cohort, diurnal waves, attackers). What a row expects of its world is
//! computed from the plan ([`WorldPlan::demand`]). Node names, node seeds,
//! keep-alives and settle times here are part of the committed-baseline
//! contract: the simulator is seeded, so changing one changes
//! `results/ci_baseline_*`.

use crate::worlds::{Cohort, Leaf, TierPlan, WorldPlan};
use moqdns_moqt::relay::{RelayLimits, Route};
use moqdns_netsim::LinkConfig;
use moqdns_quic::TransportConfig;
use moqdns_workload::scenarios::MetroScenario;
use moqdns_workload::toplist::Toplist;
use std::time::Duration;

/// `full`, or under `smoke` the CI size.
pub(crate) fn pick<T>(smoke: bool, full: T, ci: T) -> T {
    if smoke {
        ci
    } else {
        full
    }
}

fn link_ms(ms: u64) -> LinkConfig {
    LinkConfig::with_delay(Duration::from_millis(ms))
}

/// A plan for the records `r0.<apex>` … `r<tracks-1>.<apex>`, every stub
/// subscribing to all of them.
fn numbered(apex: &str, tracks: usize, link: LinkConfig) -> WorldPlan {
    let names = (0..tracks).map(|i| format!("r{i}.{apex}").parse().expect("valid record name"));
    WorldPlan::new(apex, names.collect(), link)
}

/// §5.3 3-tier tree: auth → 2 tier-1 relays → 4 failover edge relays
/// (primary tier-1 round-robin, the other as secondary) → stubs. The DDNS
/// flavour (`ddns`) fans 2 records out to 16 stubs per edge; the CDN
/// flavour has 8 records, 8 stubs per edge and a 10 s round. `smoke`
/// keeps the shape with 2 stubs per edge and at most 2 records.
pub fn tree(ddns: bool, smoke: bool) -> WorldPlan {
    let (per_edge, tracks, round) = if ddns { (16, 2, 5) } else { (8, 8, 10) };
    let (per_edge, tracks) = pick(smoke, (per_edge, tracks), (2, tracks.min(2)));
    let link = link_ms(15);
    let edge = TierPlan {
        parents: 2,
        policy: Route::Failover,
        ..TierPlan::new("edge", 4, link, 60)
    };
    WorldPlan {
        tiers: vec![TierPlan::new("tier1", 2, link, 40), edge],
        stubs: 4 * per_edge,
        update_interval: Duration::from_secs(round),
        ..numbered("tree.example", tracks, link)
    }
}

/// Multi-region hash-shard mesh: 3 cores, one hash shard each, and 2
/// edges per region, each attached to every core in aligned order, so
/// core `i` aggregates exactly shard `i` mesh-wide. 3 regions, 8 stubs
/// per edge, 6 records; `smoke`: 2 regions, 2 stubs per edge, 4 records.
pub fn mesh(smoke: bool) -> WorldPlan {
    let (regions, per_edge, tracks) = pick(smoke, (3, 8, 6), (2, 2, 4));
    let link = link_ms(15);
    let edge = TierPlan {
        parents: 3,
        policy: Route::HashShard,
        ..TierPlan::new("edge", 2 * regions, link, 60)
    };
    WorldPlan {
        tiers: vec![TierPlan::new("core", 3, link, 40), edge],
        stubs: 2 * regions * per_edge,
        ..numbered("mesh.example", tracks, link)
    }
}

/// The cross-region federation shape on top of `base`: `cores` regional
/// cores over slow inter-region links (origin uplinks and a full peer
/// mesh, core `i` = hash shard `i` = region `i`), region-local edges and
/// stubs over `base.link`, one simulator shard per region.
fn federated(base: WorldPlan, cores: usize, edges: usize, peer_delay: Duration) -> WorldPlan {
    let inter = LinkConfig::with_delay(peer_delay);
    let core = TierPlan {
        peers: Some(inter),
        ..TierPlan::new("core", cores, inter, 40)
    };
    WorldPlan {
        tiers: vec![core, TierPlan::new("edge", edges, base.link, 60)],
        region_tier: Some(0),
        ..base
    }
}

/// The standing cross-region federation: 3 regional cores, 2 edges per
/// region, 4 stubs per edge (2 under `smoke`) subscribing to all of 6
/// records (4); 10 ms links inside a region, 40 ms between regions.
pub fn federation(smoke: bool) -> WorldPlan {
    let (per_edge, tracks) = pick(smoke, (4, 6), (2, 4));
    let base = WorldPlan {
        stubs: 6 * per_edge,
        ..numbered("fed.example", tracks, link_ms(10))
    };
    federated(base, 3, 6, Duration::from_millis(40))
}

/// Federation grown to ~10,000 stubs: stub `j` subscribes to slice
/// `(j / edges) % slices`, so consecutive stubs under one edge walk the
/// slices; longer keep-alive and settle than the small worlds.
pub fn metro(spec: &MetroScenario) -> WorldPlan {
    let edges = spec.cores * spec.edges_per_region;
    let slices = spec.tracks / spec.tracks_per_stub;
    let base = WorldPlan {
        auth_transport: TransportConfig::patient().keep_alive(Duration::from_secs(60)),
        stubs: spec.stub_count(),
        slice_len: spec.tracks_per_stub,
        slice_of: Box::new(move |j| (j / edges) % slices),
        settle: Duration::from_secs(10),
        update_interval: spec.update_interval,
        ..numbered(
            "metro.example",
            spec.tracks,
            LinkConfig::with_delay(spec.link_delay),
        )
    };
    federated(base, spec.cores, edges, spec.peer_delay)
}

/// Track popularity as Zipf weights over rank, cut into slices of
/// consecutive tracks: slice 0 (the top-ranked records) holds most of the
/// weight and the tail slices thin out, so under a sparse population some
/// edges never see them at all.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// `cum[s]` sums `1/rank^exponent` over every track of slices `0..=s`
    /// (track `t` has rank `t + 1`).
    cum: Vec<f64>,
}

impl Zipf {
    /// `slices` slices of `slice_len` tracks under exponent `exponent`.
    pub fn new(slices: usize, slice_len: usize, exponent: f64) -> Zipf {
        let mut acc = 0.0;
        let cum = (0..slices).map(|s| {
            for t in s * slice_len..(s + 1) * slice_len {
                acc += 1.0 / ((t + 1) as f64).powf(exponent);
            }
            acc
        });
        Zipf { cum: cum.collect() }
    }

    /// The slice at popularity quantile `u ∈ [0, 1)`: low `u` lands on
    /// the head slices, which hold most of the Zipf mass.
    pub fn slice_at(&self, u: f64) -> usize {
        let total = *self.cum.last().expect("at least one slice");
        let s = self.cum.partition_point(|w| *w <= u * total);
        s.min(self.cum.len() - 1)
    }

    /// The slice of member `i` of a population of `n` spread evenly over
    /// the quantile axis, so slice populations follow the Zipf weights.
    pub fn spread(&self, n: usize) -> Box<dyn Fn(usize) -> usize> {
        let zipf = self.clone();
        Box::new(move |i| zipf.slice_at((i as f64 + 0.5) / n as f64))
    }
}

/// The metro shape at planet scale: 24 regions of 8 edges with 521 stubs
/// each (100,032 stubs) over 96 records, 8 per stub; `smoke` keeps the 24
/// regions and the 12 slices with one edge per region, 12 stubs per edge
/// and 24 records, 2 per stub. Track names and popularity come from the
/// synthetic toplist drawn from the world seed: track `i` is toplist rank
/// `i + 1`, first label kept (`site00001.planet.example`), and stubs pick
/// slices by the returned [`Zipf`] popularity, which the diurnal waves
/// pick theirs by too.
pub fn planet(smoke: bool, seed: u64) -> (WorldPlan, Zipf) {
    let (edges_per_region, per_edge, tracks, slice_len) =
        pick(smoke, (8, 521, 96, 8), (1, 12, 24, 2));
    let toplist = Toplist::generate(tracks, seed);
    let zipf = Zipf::new(tracks / slice_len, slice_len, toplist.zipf_exponent());
    let names = toplist.domains().iter().map(|d| {
        let label = d.name.to_string();
        let first = label.split('.').next().expect("non-empty name");
        format!("{first}.planet.example")
            .parse()
            .expect("valid name")
    });
    let stubs = 24 * edges_per_region * per_edge;
    let base = WorldPlan {
        auth_transport: TransportConfig::patient().keep_alive(Duration::from_secs(60)),
        stubs,
        slice_len,
        slice_of: zipf.spread(stubs),
        settle: Duration::from_secs(10),
        update_interval: Duration::from_secs(2),
        ..WorldPlan::new("planet.example", names.collect(), link_ms(5))
    };
    let edges = 24 * edges_per_region;
    (federated(base, 24, edges, Duration::from_millis(30)), zipf)
}

/// The paper's depth-5 chain: single-relay tiers `hop1..hop5` (each seeds
/// 40, its index within its own tier being 0) above 8 stubs (3 under
/// `smoke`) subscribing to all of 4 records (2).
pub fn chain(smoke: bool) -> WorldPlan {
    let (stubs, tracks) = pick(smoke, (8, 4), (3, 2));
    let link = link_ms(10);
    WorldPlan {
        tiers: (1..=5)
            .map(|i| TierPlan::new(format!("hop{i}"), 1, link, 40))
            .collect(),
        stubs,
        update_interval: Duration::from_secs(2),
        ..numbered("chain.example", tracks, link)
    }
}

/// The hardening drill's honest tree: origin → one core → 2 edges → 3
/// stubs per edge (2 under `smoke`) subscribing to all of 8 records (6).
/// The edges hold a session to 16 outstanding upstream fetches, evict it
/// after 64 throttles or past a 4 KiB send backlog.
pub fn adversarial(smoke: bool) -> WorldPlan {
    let (per_edge, tracks) = pick(smoke, (3, 8), (2, 6));
    let link = link_ms(10);
    let limits = RelayLimits {
        max_outstanding_fetches_per_session: 16,
        evict_after_throttles: 64,
    };
    let edge = TierPlan {
        limits: Some((limits, 4 * 1024)),
        ..TierPlan::new("edge", 2, link, 60)
    };
    WorldPlan {
        tiers: vec![TierPlan::new("core", 1, link, 40), edge],
        stubs: 2 * per_edge,
        update_interval: Duration::from_secs(2),
        ..numbered("adv.example", tracks, link)
    }
}

/// One record behind `auth → [relay] → subs` on default transports — the
/// §5.3 DDNS micro-simulation and the A3 fan-out ablation.
fn one_record(apex: &str, host: &str, auth_name: &'static str, relay: bool) -> WorldPlan {
    let link = LinkConfig::with_delay(Duration::from_millis(15));
    let record = format!("{host}.{apex}").parse().expect("valid name");
    WorldPlan {
        auth_name,
        auth_transport: TransportConfig::default(),
        auth_seed: 1,
        tiers: Vec::from_iter(relay.then(|| TierPlan::new("relay", 1, link, 2))),
        stub_name: "sub",
        update_net: [203, 0, 113],
        ..WorldPlan::new(apex, vec![record], link)
    }
}

/// The DDNS micro-simulation: one record, one relay, `subs` subscribers.
pub fn ddns(subs: usize) -> WorldPlan {
    WorldPlan {
        stubs: subs,
        stub_seed: 10,
        ..one_record("ddns.example", "home", "ddns-auth", true)
    }
}

/// The fan-out ablation: `subs` subscribers of one record, attached to
/// the server directly or through one relay.
pub fn relay_fanout(subs: usize, via_relay: bool) -> WorldPlan {
    WorldPlan {
        stubs: subs,
        ..one_record("pop.example", "www", "auth", via_relay)
    }
}

/// The endurance row's tree: origin → one edge → two stubs holding one
/// record, on millisecond links, one update round every 10 ms — a clock
/// compressed so a subscription's thousands of updates take a minute of
/// simulated time.
pub fn endurance() -> WorldPlan {
    let link = LinkConfig::with_delay(Duration::from_millis(1));
    WorldPlan {
        tiers: vec![TierPlan::new("edge", 1, link, 60)],
        stubs: 2,
        settle: Duration::from_secs(1),
        update_interval: Duration::from_millis(10),
        ..numbered("endurance.example", 1, link)
    }
}

/// The §4.1 ablation: one subscriber of one record, attached to the
/// server over a link that loses `loss` of its datagrams.
pub fn lossy_push(loss: f64) -> WorldPlan {
    WorldPlan {
        stubs: 1,
        stub_seed: 2,
        link: LinkConfig::with_delay(Duration::from_millis(20)).loss(loss),
        settle: Duration::from_secs(10),
        ..one_record("cdn.example", "lb", "auth", false)
    }
}

/// `count` stubs named `<prefix><i>`, stub `i` taking slice `i % slices`.
fn stubs(
    prefix: &str,
    count: usize,
    slices: usize,
    seed: u64,
    redial: Option<(TransportConfig, Duration)>,
) -> Cohort {
    Cohort {
        names: (0..count).map(|i| format!("{prefix}{i}")).collect(),
        seed,
        leaf: Leaf::Stub {
            slice_of: Box::new(move |i| i % slices),
            redial,
        },
    }
}

/// The `n`-th cold edge relay of a drill and the `count` fresh stubs
/// behind it.
fn late_edge(n: usize, count: usize, slices: usize, seeds: (u64, u64)) -> [Cohort; 2] {
    let edge = Cohort {
        names: vec![format!("late-edge{n}")],
        seed: seeds.0,
        leaf: Leaf::Relay,
    };
    let prefix = format!("late-stub{n}-");
    [edge, stubs(&prefix, count, slices, seeds.1, None)]
}

/// The federation drill's `n`-th late edge: `count` stubs subscribing to
/// every track.
pub fn federation_late_edge(n: usize, count: usize) -> [Cohort; 2] {
    late_edge(n, count, 1, (600 + n as u64, 700 + (n * 16) as u64))
}

/// The metro drill's `n`-th late edge: stub `i` takes slice `i % slices`.
pub fn metro_late_edge(slices: usize, n: usize, count: usize) -> [Cohort; 2] {
    let seeds = (6000 + n as u64, 7000 + (n * 64) as u64);
    late_edge(n, count, slices, seeds)
}

/// The chaos drill's crash-target edge and its cohort of `count`
/// auto-redialing stubs on `transport`, stub `i` taking slice
/// `i % slices`.
pub fn chaos_cohorts(
    count: usize,
    slices: usize,
    transport: TransportConfig,
    redial: Duration,
) -> [Cohort; 2] {
    let edge = Cohort {
        names: vec!["chaos-edge".into()],
        seed: 5000,
        leaf: Leaf::Relay,
    };
    let redial = Some((transport, redial));
    [edge, stubs("chaos-stub", count, slices, 8000, redial)]
}

/// The `per_edge` transient stubs diurnal wave `wave` adds under edge `e`
/// of `edges`, each subscribing its [`Zipf`]-popular slice.
pub fn wave_cohort(zipf: &Zipf, per_edge: usize, wave: usize, e: usize, edges: usize) -> Cohort {
    Cohort {
        names: (0..per_edge)
            .map(|i| format!("wave{wave}-e{e}-{i}"))
            .collect(),
        seed: 500_000 + ((wave * edges + e) * 1024) as u64,
        leaf: Leaf::Stub {
            slice_of: zipf.spread(per_edge),
            redial: None,
        },
    }
}

/// Which attacker hangs off the first edge relay of the adversarial world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Garbage control bytes, bogus-alias datagrams, duplicate request
    /// ids — the state machine must poison + close, counting violations.
    Byzantine,
    /// Subscribes to everything, then never drains — the backlog bound
    /// must evict the session.
    SlowLoris,
    /// Stampedes cold tracks with standalone fetches — the per-session
    /// fetch budget must throttle, then evict.
    FetchBomb,
}

impl AttackKind {
    /// Stable label for tables and gate metric names.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::Byzantine => "byzantine",
            AttackKind::SlowLoris => "slow_loris",
            AttackKind::FetchBomb => "fetch_bomb",
        }
    }
}

/// The one attacker of an adversarial run; the byzantine client and the
/// fetch bomber tick every `interval`, the bomber sending `burst`
/// fetches a tick.
pub fn attacker(kind: AttackKind, interval: Duration, burst: u32) -> Cohort {
    Cohort {
        names: vec![format!("attacker-{}", kind.label())],
        seed: 900,
        leaf: match kind {
            AttackKind::Byzantine => Leaf::Byzantine(interval),
            AttackKind::SlowLoris => Leaf::SlowLoris,
            AttackKind::FetchBomb => Leaf::FetchBomb(interval, burst),
        },
    }
}

/// The fan-out ablation's late joiner.
pub fn late_joiner() -> Cohort {
    Cohort {
        names: vec!["late-joiner".into()],
        ..stubs("", 0, 1, 999, None)
    }
}
