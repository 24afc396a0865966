//! A2 — ablation (§4.1): "Our DNS over MoQT prototype uses QUIC streams
//! and no datagrams to avoid losing messages due to the unreliability of
//! datagrams."
//!
//! One authoritative server pushes a sequence of updates to one subscriber
//! over a lossy link, once with subgroup streams (retransmitted by QUIC
//! loss recovery) and once with RFC 9221 datagrams (fire and forget). We
//! count delivered updates at each loss rate.

use moqdns_bench::report;
use moqdns_core::auth::AuthServer;
use moqdns_core::mapping::{track_from_question, RequestFlags};
use moqdns_core::stack::{MoqtStack, StackEvent, StackNode};
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Question;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_moqt::session::SessionEvent;
use moqdns_netsim::{Addr, Ctx, LinkConfig, Node, Payload, SimTime, Simulator};
use moqdns_quic::TransportConfig;
use moqdns_stats::Table;
use std::any::Any;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::time::Duration;

const UPDATES: u64 = 50;

struct Sub {
    stack: MoqtStack,
    server: Option<Addr>,
    question: Question,
    versions: BTreeSet<u64>,
}

impl Node for Sub {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let server = self.server.unwrap();
        let Some(h) = self.stack.connect(ctx.now(), server, false) else {
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

impl StackNode for Sub {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }
    fn handle_events(&mut self, _ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for e in events {
            if let StackEvent::Session(_, SessionEvent::SubscriptionObject { object, .. }) = e {
                self.versions.insert(object.group_id);
            }
        }
    }
}

fn run(loss: f64, datagrams: bool, seed: u64) -> u64 {
    let mut sim = Simulator::new(seed);
    sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(20)).loss(loss));
    let name: moqdns_dns::name::Name = "lb.cdn.example".parse().unwrap();
    let mut zone = Zone::with_default_soa("cdn.example".parse().unwrap());
    zone.add_record(Record::new(
        name.clone(),
        10,
        RData::A(Ipv4Addr::new(192, 0, 2, 1)),
    ));
    let mut auth_node = AuthServer::new(Authority::single(zone), TransportConfig::default(), 1);
    auth_node.set_use_datagrams(datagrams);
    let auth = sim.add_node("auth", Box::new(auth_node));
    let q = Question::new(name.clone(), RecordType::A);
    let sub = sim.add_node(
        "sub",
        Box::new(Sub {
            stack: MoqtStack::client(TransportConfig::default(), 2),
            server: Some(Addr::new(auth, MOQT_PORT)),
            question: q,
            versions: BTreeSet::new(),
        }),
    );
    sim.run_until(SimTime::from_secs(10));

    let t0 = sim.now();
    for i in 0..UPDATES {
        let at = t0 + Duration::from_secs(2 * (i + 1));
        let nm = name.clone();
        let octet = (i % 250) as u8 + 1;
        sim.schedule_at(at, move |sim| {
            sim.with_node::<AuthServer, _>(auth, |a, ctx| {
                a.update_zone(ctx, |authority| {
                    if let Some(z) = authority.find_zone_mut(&nm) {
                        z.set_records(
                            &nm,
                            RecordType::A,
                            vec![Record::new(
                                nm.clone(),
                                10,
                                RData::A(Ipv4Addr::new(203, 0, 113, octet)),
                            )],
                        );
                    }
                });
            });
        });
    }
    sim.run_until(t0 + Duration::from_secs(2 * UPDATES + 30));
    sim.node_ref::<Sub>(sub).versions.len() as u64
}

fn main() {
    report::heading("A2 / §4.1 — streams vs datagrams under loss");

    let mut t = Table::new(
        format!("{UPDATES} record updates pushed over a lossy link; delivered versions"),
        &["loss %", "via streams", "via datagrams"],
    );
    for (i, loss) in [0.0, 0.05, 0.15, 0.30].iter().enumerate() {
        let streams = run(*loss, false, 700 + i as u64);
        let datagrams = run(*loss, true, 800 + i as u64);
        t.push(&[
            format!("{:.0}", loss * 100.0),
            streams.to_string(),
            datagrams.to_string(),
        ]);
    }
    report::emit(&t, "abl_streams_vs_datagrams");
    println!(
        "Streams recover lost updates via QUIC retransmission; datagrams \
         silently drop them — the reliability argument of §4.1."
    );
}
