//! Dynamic DNS (paper §1/§5.3): a home user's IP address changes; everyone
//! who cares learns about it at push latency through a MoQ relay, and the
//! update traffic is tiny.
//!
//!     cargo run --example ddns_home_server
//!
//! Exits 1 (after a `MISSED:` line) when a friend did not log both
//! renumberings or the relay did not aggregate the five subscriptions
//! into one.

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
use moqdns::netsim::{play, Addr, Ctx, LinkConfig, Node, ParSim, Payload, SimTime};
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
    let mut sim = ParSim::new(42, 1);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(20)));

    let name: moqdns::dns::name::Name = "myhome.ddns.example".parse().unwrap();
    let mut zone = Zone::with_default_soa("ddns.example".parse().unwrap());
    zone.add_record(Record::new(
        name.clone(),
        60,
        RData::A(Ipv4Addr::new(203, 0, 113, 1)),
    ));
    let auth = sim.add_node(
        0,
        "ddns-anchor",
        Box::new(AuthServer::new(
            Authority::single(zone),
            TransportConfig::default(),
            1,
        )),
    );
    let relay = sim.add_node(
        0,
        "moq-relay",
        Box::new(RelayNode::new(Addr::new(auth, MOQT_PORT), 0, 2)),
    );
    let q = Question::new(name.clone(), RecordType::A);
    let friends: Vec<_> = (0..5)
        .map(|i| {
            sim.add_node(
                0,
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

    // The ISP renumbers the home connection twice today: 30 s apart.
    let ips = [
        Ipv4Addr::new(203, 0, 113, 77),
        Ipv4Addr::new(203, 0, 113, 142),
    ];
    let start = sim.now();
    let script = (1..).map(|k| start + Duration::from_secs(30 * k)).zip(ips);
    play(&mut sim, script, SimTime::from_secs(120), |sim, ip| {
        println!("[{}] home IP changed -> {ip}", sim.now());
        sim.with_node::<AuthServer, _>(auth, |a, ctx| {
            a.update_zone(ctx, |authority| {
                if let Some(z) = authority.find_zone_mut(&name) {
                    let record = Record::new(name.clone(), 60, RData::A(ip));
                    z.set_records(&name, RecordType::A, vec![record]);
                }
            });
        });
    });

    println!("\nfriend0's view (through the relay):");
    for (t, line) in &sim.node_ref::<Friend>(friends[0]).log {
        println!("  [{t}] {line}");
    }
    let relay_ref = sim.node_ref::<RelayNode>(relay);
    let (factor, upstream) = (
        relay_ref.aggregation_factor(),
        relay_ref.upstream_subscription_count(),
    );
    println!(
        "\nrelay aggregation: {} downstream subscriptions -> {upstream} upstream (factor {factor:.0})",
        friends.len(),
    );
    let up = sim.stats().between(auth, relay).bytes;
    println!("anchor egress for 2 updates to 5 friends: {up} bytes (one copy per update)");

    for (i, &f) in friends.iter().enumerate() {
        let log = &sim.node_ref::<Friend>(f).log;
        for ip in ips {
            if !log
                .iter()
                .any(|(_, line)| line.starts_with("update") && line.contains(&ip.to_string()))
            {
                eprintln!("MISSED: friend{i} never logged the renumbering to {ip}");
                std::process::exit(1);
            }
        }
    }
    if upstream != 1 || factor != friends.len() as f64 {
        eprintln!("MISSED: the relay held {upstream} upstream subscriptions (factor {factor})");
        std::process::exit(1);
    }
}
