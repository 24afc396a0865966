//! Incremental deployment (paper §4.5 + §5): a traditional stub resolver
//! keeps speaking classic DNS to a local **forwarder**, which talks
//! DNS-over-MoQT to the recursive resolver — "thereby also enabling
//! backwards compatibility with traditional DNS stub resolvers".
//!
//!     cargo run --example mixed_deployment
//!
//! Exits 1 (after a `MISSED:` line) when a legacy query goes unanswered
//! or the pushed update does not reach the client's second answer.

use moqdns::core::auth::AuthServer;
use moqdns::core::forwarder::Forwarder;
use moqdns::core::recursive::{RecursiveConfig, RecursiveResolver, UpstreamMode};
use moqdns::core::{node_ip, DNS_PORT};
use moqdns::dns::message::{Message, Question};
use moqdns::dns::rdata::RData;
use moqdns::dns::resolver::RootHint;
use moqdns::dns::rr::{Record, RecordType};
use moqdns::dns::server::Authority;
use moqdns::dns::zone::Zone;
use moqdns::netsim::{Addr, Ctx, LinkConfig, Node, Payload, SimTime, Simulator};
use moqdns::quic::TransportConfig;
use std::any::Any;
use std::net::IpAddr;
use std::time::Duration;

/// A completely traditional DNS client: fires a UDP query, prints replies.
struct LegacyClient {
    forwarder: Option<Addr>,
    replies: Vec<(SimTime, Message)>,
}

impl Node for LegacyClient {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _from: Addr, _p: u16, d: Payload) {
        if let Ok(m) = Message::decode(&d) {
            self.replies.push((ctx.now(), m));
        }
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

impl LegacyClient {
    /// The first answer record of reply number `i`, or exit 1.
    fn answer(&self, i: usize) -> &Record {
        let reply = self.replies.get(i).map(|(_, m)| m);
        reply.and_then(|m| m.answers.first()).unwrap_or_else(|| {
            eprintln!("MISSED: legacy query #{} got no answer", i + 1);
            std::process::exit(1);
        })
    }

    fn query(&self, ctx: &mut Ctx<'_>, id: u16, q: Question) {
        let msg = Message::query(id, q);
        ctx.send(
            5353,
            Addr::new(self.forwarder.unwrap().node, DNS_PORT),
            msg.encode(),
        );
    }
}

fn main() {
    let mut sim = Simulator::new(17);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));

    // One authoritative zone (doubling as the root for brevity).
    let name: moqdns::dns::name::Name = "www.example.com".parse().unwrap();
    let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
    zone.add_record(Record::new(
        name.clone(),
        300,
        RData::A("192.0.2.1".parse().unwrap()),
    ));
    let auth = sim.add_node(
        "auth",
        Box::new(AuthServer::new(
            Authority::single(zone),
            TransportConfig::default(),
            1,
        )),
    );
    let roots = vec![RootHint {
        name: "ns1.example.com".parse().unwrap(),
        addr: IpAddr::V4(node_ip(auth)),
    }];
    let recursive = sim.add_node(
        "recursive",
        Box::new(RecursiveResolver::new(RecursiveConfig::new(
            UpstreamMode::Moqt,
            roots,
            2,
        ))),
    );
    // The forwarder runs "on the client's device".
    let forwarder = sim.add_node(
        "forwarder",
        Box::new(Forwarder::new(Addr::new(recursive, 0), 3)),
    );
    let client = sim.add_node(
        "legacy-client",
        Box::new(LegacyClient {
            forwarder: Some(Addr::new(forwarder, 0)),
            replies: Vec::new(),
        }),
    );
    // Client ↔ forwarder is on-device: instantaneous.
    sim.set_link(client, forwarder, LinkConfig::instant());
    sim.run_until_idle();

    // Plain UDP query from the legacy client.
    let q = Question::new(name.clone(), RecordType::A);
    let qq = q.clone();
    sim.with_node::<LegacyClient, _>(client, |c, ctx| c.query(ctx, 1, qq));
    sim.run_until(SimTime::from_secs(5));
    let c = sim.node_ref::<LegacyClient>(client);
    println!(
        "legacy query #1 answered: {} (forwarder went over MoQT and subscribed)",
        c.answer(0)
    );

    // The record changes; the forwarder receives the push.
    sim.with_node::<AuthServer, _>(auth, |a, ctx| {
        a.update_zone(ctx, |authority| {
            if let Some(z) = authority.find_zone_mut(&name) {
                z.set_records(
                    &name,
                    RecordType::A,
                    vec![Record::new(
                        name.clone(),
                        300,
                        RData::A("192.0.2.200".parse().unwrap()),
                    )],
                );
            }
        });
    });
    sim.run_until(sim.now() + Duration::from_secs(2));

    // Second legacy query: answered instantly from the forwarder's pushed
    // state — the legacy client gets pub/sub freshness without changing.
    let qq = q.clone();
    sim.with_node::<LegacyClient, _>(client, |c, ctx| c.query(ctx, 2, qq));
    sim.run_until(sim.now() + Duration::from_secs(1));
    let c = sim.node_ref::<LegacyClient>(client);
    let second = c.answer(1);
    if second.rdata != RData::A("192.0.2.200".parse().unwrap()) {
        eprintln!("MISSED: the pushed update did not reach the legacy client ({second})");
        std::process::exit(1);
    }
    println!(
        "legacy query #2 answered: {second} (fresh, served on-device at {})",
        c.replies[1].0
    );
    let f = sim.node_ref::<Forwarder>(forwarder);
    println!(
        "forwarder: {} upstream subscription(s), {} pushed update(s) absorbed",
        f.subscription_count(),
        f.metrics.updates.len()
    );
    println!(
        "\nThe client never spoke anything but classic DNS, yet its second \
         answer reflects a change no TTL had expired on."
    );
}
