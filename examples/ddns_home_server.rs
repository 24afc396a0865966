//! Dynamic DNS (paper §1/§5.3): a home user's IP address changes; everyone
//! who cares learns about it at push latency through a MoQ relay, and the
//! update traffic is tiny.
//!
//!     cargo run --example ddns_home_server

use moqdns::core::auth::AuthServer;
use moqdns::core::mapping::{track_from_question, RequestFlags};
use moqdns::core::relay_node::RelayNode;
use moqdns::core::stack::{MoqtStack, StackEvent, StackNode};
use moqdns::core::MOQT_PORT;
use moqdns::dns::message::Question;
use moqdns::dns::rdata::RData;
use moqdns::dns::rr::{Record, RecordType};
use moqdns::dns::server::Authority;
use moqdns::dns::zone::Zone;
use moqdns::moqt::session::SessionEvent;
use moqdns::netsim::{Addr, Ctx, LinkConfig, Node, Payload, SimTime, Simulator};
use moqdns::quic::TransportConfig;
use moqdns::stats::format_bps;
use moqdns::workload::scenarios::DdnsScenario;
use std::any::Any;
use std::net::Ipv4Addr;
use std::time::Duration;

/// A friend's device subscribed to the home server's record.
struct Friend {
    stack: MoqtStack,
    relay: Option<Addr>,
    question: Question,
    log: Vec<(SimTime, String)>,
}

impl Node for Friend {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let relay = self.relay.unwrap();
        let Some(h) = self.stack.connect(ctx.now(), relay, false) else {
            return;
        };
        let track = track_from_question(&self.question, RequestFlags::iterative()).unwrap();
        if let Some((sess, conn)) = self.stack.session_conn(h) {
            sess.subscribe_with_joining_fetch(conn, track, 1);
        }
        self.end_turn(ctx);
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _p: u16, d: Payload) {
        self.stack.on_datagram(ctx.now(), from, &d);
        self.end_turn(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        self.stack.on_timer(ctx.now());
        self.end_turn(ctx);
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

impl StackNode for Friend {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }
    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        let now = ctx.now();
        for e in events {
            match e {
                StackEvent::Session(_, SessionEvent::FetchObjects { objects, .. }) => {
                    if let Some(o) = objects.first() {
                        if let Ok(m) = moqdns::core::response_from_object(o) {
                            self.log.push((now, format!("initial: {}", m.answers[0])));
                        }
                    }
                }
                StackEvent::Session(_, SessionEvent::SubscriptionObject { object, .. }) => {
                    if let Ok(m) = moqdns::core::response_from_object(&object) {
                        self.log.push((
                            now,
                            format!("update v{}: {}", object.group_id, m.answers[0]),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

fn main() {
    // The paper's back-of-envelope first.
    let s = DdnsScenario::default();
    println!(
        "paper estimate: {} users x {} interested x {} updates/day x {} B \
         => {} globally (\"negligible at global scale\")\n",
        s.users,
        s.interested_per_user,
        s.updates_per_day,
        s.update_size,
        format_bps(s.global_bps())
    );

    // Now the mechanics, at home scale: 1 home server, 1 relay, 5 friends.
    let mut sim = Simulator::new(42);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(20)));

    let name: moqdns::dns::name::Name = "myhome.ddns.example".parse().unwrap();
    let mut zone = Zone::with_default_soa("ddns.example".parse().unwrap());
    zone.add_record(Record::new(
        name.clone(),
        60,
        RData::A(Ipv4Addr::new(203, 0, 113, 1)),
    ));
    let auth = sim.add_node(
        "ddns-anchor",
        Box::new(AuthServer::new(
            Authority::single(zone),
            TransportConfig::default(),
            1,
        )),
    );
    let relay = sim.add_node(
        "moq-relay",
        Box::new(RelayNode::new(Addr::new(auth, MOQT_PORT), 0, 2)),
    );
    let q = Question::new(name.clone(), RecordType::A);
    let friends: Vec<_> = (0..5)
        .map(|i| {
            sim.add_node(
                format!("friend{i}"),
                Box::new(Friend {
                    stack: MoqtStack::client(TransportConfig::default(), 10 + i),
                    relay: Some(Addr::new(relay, MOQT_PORT)),
                    question: q.clone(),
                    log: Vec::new(),
                }),
            )
        })
        .collect();
    sim.run_until(SimTime::from_secs(5));

    // The ISP renumbers the home connection twice today.
    for (i, ip) in [[203, 0, 113, 77], [203, 0, 113, 142]].iter().enumerate() {
        let at = sim.now() + Duration::from_secs(30 * (i as u64 + 1));
        let nm = name.clone();
        let ip = *ip;
        sim.schedule_at(at, move |sim| {
            println!(
                "[{}] home IP changed -> {}.{}.{}.{}",
                sim.now(),
                ip[0],
                ip[1],
                ip[2],
                ip[3]
            );
            sim.with_node::<AuthServer, _>(auth, |a, ctx| {
                a.update_zone(ctx, |authority| {
                    if let Some(z) = authority.find_zone_mut(&nm) {
                        z.set_records(
                            &nm,
                            RecordType::A,
                            vec![Record::new(nm.clone(), 60, RData::A(Ipv4Addr::from(ip)))],
                        );
                    }
                });
            });
        });
    }
    sim.run_until(SimTime::from_secs(120));

    println!("\nfriend0's view (through the relay):");
    for (t, line) in &sim.node_ref::<Friend>(friends[0]).log {
        println!("  [{t}] {line}");
    }
    let relay_ref = sim.node_ref::<RelayNode>(relay);
    println!(
        "\nrelay aggregation: {} downstream subscriptions -> 1 upstream (factor {:.0})",
        5,
        relay_ref.aggregation_factor()
    );
    let up = sim.stats().between(auth, relay).bytes;
    println!("anchor egress for 2 updates to 5 friends: {up} bytes (one copy per update)");
}
