//! The gated scenarios' worlds as data: one [`WorldPlan`] per
//! `moqdns_workload::scenarios` parameter set, plus the [`Cohort`]s that
//! join those worlds mid-run (late edges, the chaos edge and its redial
//! cohort, diurnal waves, attackers). Node names, node seeds, keep-alives
//! and settle times here are part of the committed-baseline contract:
//! the simulator is seeded, so changing one changes `results/ci_baseline_*`.

use crate::worlds::{Cohort, Leaf, Scenario, TierPlan, WorldPlan};
use moqdns_moqt::relay::{RelayLimits, Route};
use moqdns_netsim::LinkConfig;
use moqdns_quic::TransportConfig;
use moqdns_workload::scenarios::{
    AdversarialScenario, ChainScenario, ChaosScenario, FederationScenario, MeshScenario,
    MetroScenario, PlanetScenario, TreeScenario,
};
use moqdns_workload::toplist::Toplist;
use std::time::Duration;

/// §5.3 3-tier tree: auth → tier-1 relays → failover edge relays (primary
/// tier-1 round-robin, the other as secondary) → stubs.
impl Scenario for TreeScenario {
    fn plan(&self, _seed: u64) -> WorldPlan {
        let link = LinkConfig::with_delay(self.link_delay);
        let edge = TierPlan {
            parents: self.tier1_relays.min(2),
            policy: Route::Failover,
            ..TierPlan::new("edge", self.edge_relays(), link, 60)
        };
        WorldPlan {
            tiers: vec![TierPlan::new("tier1", self.tier1_relays, link, 40), edge],
            stubs: self.stub_count(),
            update_interval: self.update_interval,
            ..WorldPlan::new(
                "tree.example",
                WorldPlan::numbered_tracks("tree.example", self.tracks),
                link,
            )
        }
    }
}

/// Multi-region hash-shard mesh: every edge attaches to every core in
/// aligned order, so core `i` aggregates exactly shard `i` mesh-wide.
impl Scenario for MeshScenario {
    fn plan(&self, _seed: u64) -> WorldPlan {
        let link = LinkConfig::with_delay(self.link_delay);
        let edge = TierPlan {
            parents: self.cores,
            policy: Route::HashShard,
            ..TierPlan::new("edge", self.edge_count(), link, 60)
        };
        WorldPlan {
            tiers: vec![TierPlan::new("core", self.cores, link, 40), edge],
            stubs: self.stub_count(),
            update_interval: self.update_interval,
            ..WorldPlan::new(
                "mesh.example",
                WorldPlan::numbered_tracks("mesh.example", self.tracks),
                link,
            )
        }
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

impl Scenario for FederationScenario {
    fn plan(&self, _seed: u64) -> WorldPlan {
        let base = WorldPlan {
            stubs: self.stub_count(),
            update_interval: self.update_interval,
            ..WorldPlan::new(
                "fed.example",
                WorldPlan::numbered_tracks("fed.example", self.tracks),
                LinkConfig::with_delay(self.link_delay),
            )
        };
        federated(base, self.cores, self.edge_count(), self.peer_delay)
    }
}

/// Federation grown to ~10,000 stubs, each subscribing to one track
/// slice; longer keep-alive and settle than the small worlds.
impl Scenario for MetroScenario {
    fn plan(&self, _seed: u64) -> WorldPlan {
        assert!(
            self.stubs_per_edge >= self.slices(),
            "every edge must see every slice for the fetch invariants"
        );
        let spec = *self;
        let base = WorldPlan {
            auth_transport: TransportConfig::patient().keep_alive(Duration::from_secs(60)),
            stubs: self.stub_count(),
            slice_len: self.tracks_per_stub,
            slice_of: Box::new(move |j| spec.slice_of_stub(j)),
            settle: Duration::from_secs(10),
            update_interval: self.update_interval,
            ..WorldPlan::new(
                "metro.example",
                WorldPlan::numbered_tracks("metro.example", self.tracks),
                LinkConfig::with_delay(self.link_delay),
            )
        };
        federated(base, self.cores, self.edge_count(), self.peer_delay)
    }
}

/// The metro shape at dozens of regions and ~100k stubs. Track names and
/// popularity come from the synthetic toplist drawn from the world seed:
/// track `i` is toplist rank `i + 1`, first label kept
/// (`site00001.planet.example`); stubs pick slices by Zipf quantile.
impl Scenario for PlanetScenario {
    fn plan(&self, seed: u64) -> WorldPlan {
        let toplist = Toplist::generate(self.tracks, seed);
        assert_eq!(
            toplist.zipf_exponent(),
            self.zipf_s,
            "spec popularity must match the toplist's Zipf exponent"
        );
        let tracks = toplist
            .domains()
            .iter()
            .map(|d| {
                let label = d.name.to_string();
                let first = label.split('.').next().expect("non-empty name");
                format!("{first}.planet.example")
                    .parse()
                    .expect("valid name")
            })
            .collect();
        let spec = *self;
        let base = WorldPlan {
            auth_transport: TransportConfig::patient().keep_alive(Duration::from_secs(60)),
            stubs: self.stub_count(),
            slice_len: self.tracks_per_stub,
            slice_of: Box::new(move |j| spec.slice_of_stub(j)),
            settle: Duration::from_secs(10),
            update_interval: self.update_interval,
            ..WorldPlan::new(
                "planet.example",
                tracks,
                LinkConfig::with_delay(self.link_delay),
            )
        };
        federated(base, self.cores, self.edge_count(), self.peer_delay)
    }
}

/// The depth-N chain: single-relay tiers `hop1..hopN` (each seeds 40, its
/// index within its own tier being 0).
impl Scenario for ChainScenario {
    fn plan(&self, _seed: u64) -> WorldPlan {
        let link = LinkConfig::with_delay(self.link_delay);
        WorldPlan {
            tiers: (1..=self.hops)
                .map(|i| TierPlan::new(format!("hop{i}"), 1, link, 40))
                .collect(),
            stubs: self.stubs,
            update_interval: Duration::from_secs(2),
            ..WorldPlan::new(
                "chain.example",
                WorldPlan::numbered_tracks("chain.example", self.tracks),
                link,
            )
        }
    }
}

/// The hardening drill's honest tree: origin → one core → edges with
/// tightened fetch limits and backlog bound → stubs.
impl Scenario for AdversarialScenario {
    fn plan(&self, _seed: u64) -> WorldPlan {
        let link = LinkConfig::with_delay(self.link_delay);
        let limits = RelayLimits {
            max_outstanding_fetches_per_session: self.max_outstanding_fetches,
            evict_after_throttles: self.evict_after_throttles,
        };
        let edge = TierPlan {
            limits: Some((limits, self.session_backlog)),
            ..TierPlan::new("edge", self.edges, link, 60)
        };
        WorldPlan {
            tiers: vec![TierPlan::new("core", 1, link, 40), edge],
            stubs: self.stub_count(),
            update_interval: self.update_interval,
            ..WorldPlan::new(
                "adv.example",
                WorldPlan::numbered_tracks("adv.example", self.tracks),
                link,
            )
        }
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
        ..WorldPlan::new(
            "endurance.example",
            WorldPlan::numbered_tracks("endurance.example", 1),
            link,
        )
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
pub fn metro_late_edge(spec: &MetroScenario, n: usize, count: usize) -> [Cohort; 2] {
    let seeds = (6000 + n as u64, 7000 + (n * 64) as u64);
    late_edge(n, count, spec.slices(), seeds)
}

/// The chaos drill's crash-target edge and its cohort of short-idle,
/// auto-redialing stubs (a dial into the crashed edge fails fast instead
/// of probing into the void for an hour).
pub fn chaos_cohorts(spec: &ChaosScenario) -> [Cohort; 2] {
    let edge = Cohort {
        names: vec!["chaos-edge".into()],
        seed: 5000,
        leaf: Leaf::Relay,
    };
    let transport = TransportConfig::default()
        .idle_timeout(spec.stub_idle)
        .keep_alive(spec.stub_keep_alive);
    let redial = Some((transport, spec.stub_redial));
    let slices = spec.metro.slices();
    [
        edge,
        stubs("chaos-stub", spec.chaos_stubs, slices, 8000, redial),
    ]
}

/// The transient stubs diurnal wave `wave` adds under edge `e`, each
/// subscribing its Zipf-popular slice ([`PlanetScenario::wave_slice_of`]).
pub fn wave_cohort(spec: &PlanetScenario, wave: usize, e: usize) -> Cohort {
    let spec = *spec;
    Cohort {
        names: (0..spec.wave_stubs_per_edge)
            .map(|i| format!("wave{wave}-e{e}-{i}"))
            .collect(),
        seed: 500_000 + ((wave * spec.edge_count() + e) * 1024) as u64,
        leaf: Leaf::Stub {
            slice_of: Box::new(move |i| spec.wave_slice_of(i)),
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

/// The one attacker of an adversarial run.
pub fn attacker(spec: &AdversarialScenario, kind: AttackKind) -> Cohort {
    Cohort {
        names: vec![format!("attacker-{}", kind.label())],
        seed: 900,
        leaf: match kind {
            AttackKind::Byzantine => Leaf::Byzantine(spec.attack_interval),
            AttackKind::SlowLoris => Leaf::SlowLoris,
            AttackKind::FetchBomb => Leaf::FetchBomb(spec.attack_interval, spec.fetch_burst),
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
