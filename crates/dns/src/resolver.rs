//! The iterative resolution state machine (RFC 1034 §5.3.3).
//!
//! `Iterative` is sans-io: it decides *which server to ask next* (root →
//! TLD → authoritative, following referrals and CNAME chains) while the
//! caller performs the actual exchanges — over classic UDP, or over MoQT
//! FETCH/SUBSCRIBE in the pub/sub variant. The recursive resolvers in
//! `moqdns-core` drive this machine for both transports, which is what the
//! paper means by "DNS over MoQT does not change the recursive nature of
//! the process" (§4.1).

use crate::message::{Message, Question, Rcode};
use crate::name::Name;
use crate::rdata::RData;
use crate::rr::{Record, RecordType};
use std::collections::HashSet;
use std::fmt;
use std::net::IpAddr;

/// Maximum referral hops (root → TLD → auth is 2; leave headroom).
const MAX_REFERRALS: usize = 16;
/// Maximum CNAME indirections across zones.
const MAX_CNAME: usize = 8;

/// A root hint: the name and address of a root server.
#[derive(Debug, Clone)]
pub struct RootHint {
    /// Server name (e.g. `a.root-servers.net`).
    pub name: Name,
    /// Server address.
    pub addr: IpAddr,
}

/// What the driver should do next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IterAction {
    /// Send `query` to `server` and feed the response (or timeout) back.
    SendQuery {
        /// Destination server.
        server: IpAddr,
        /// The query message to transmit.
        query: Message,
    },
    /// Resolution finished (positively or negatively).
    Finished(Resolution),
    /// Resolution failed.
    Failed(ResolveError),
}

/// A completed resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolution {
    /// Final response code (NoError or NxDomain).
    pub rcode: Rcode,
    /// Accumulated answer records (CNAME chain plus final answers).
    pub answers: Vec<Record>,
    /// SOA from the final response, for negative caching.
    pub soa: Option<Record>,
    /// The address of the authoritative server that produced the final
    /// answer — the pub/sub variant subscribes to updates *there*.
    pub auth_server: IpAddr,
    /// How many query/response exchanges the resolution took.
    pub exchanges: u32,
}

/// Why a resolution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// All candidate servers timed out.
    AllServersTimedOut,
    /// A referral carried no usable glue addresses.
    NoGlue(Name),
    /// Referral or CNAME limits exceeded, or servers answered uselessly.
    Lame(&'static str),
    /// The server returned an unexpected rcode (e.g. SERVFAIL, REFUSED).
    BadRcode(Rcode),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::AllServersTimedOut => write!(f, "all servers timed out"),
            ResolveError::NoGlue(n) => write!(f, "referral to {n} had no glue"),
            ResolveError::Lame(why) => write!(f, "lame resolution: {why}"),
            ResolveError::BadRcode(rc) => write!(f, "server returned {rc}"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// The iterative resolution state machine for one question.
pub struct Iterative {
    /// Name currently being chased (changes on CNAME).
    current_name: Name,
    /// The original question's type/class.
    qtype: RecordType,
    question: Question,
    /// Candidate servers for the current step, tried in order.
    servers: Vec<IpAddr>,
    next_server: usize,
    /// Server the in-flight query went to.
    in_flight: Option<IpAddr>,
    roots: Vec<IpAddr>,
    answers: Vec<Record>,
    referrals: usize,
    cnames: usize,
    exchanges: u32,
    next_id: u16,
    /// Guards against referral loops (same NS set seen twice).
    seen_referrals: HashSet<Name>,
}

impl Iterative {
    /// Starts resolving `question` from the given root servers. `id_seed`
    /// randomizes transaction ids (pass an RNG draw).
    pub fn new(question: Question, roots: &[RootHint], id_seed: u16) -> Iterative {
        let root_addrs: Vec<IpAddr> = roots.iter().map(|r| r.addr).collect();
        Iterative {
            current_name: question.qname.clone(),
            qtype: question.qtype,
            question,
            servers: root_addrs.clone(),
            next_server: 0,
            in_flight: None,
            roots: root_addrs,
            answers: Vec::new(),
            referrals: 0,
            cnames: 0,
            exchanges: 0,
            next_id: id_seed,
            seen_referrals: HashSet::new(),
        }
    }

    /// The first action (a query to a root server, unless no roots exist).
    pub fn start(&mut self) -> IterAction {
        self.query_next_server()
    }

    fn fresh_id(&mut self) -> u16 {
        self.next_id = self.next_id.wrapping_add(1);
        self.next_id
    }

    fn query_next_server(&mut self) -> IterAction {
        if self.next_server >= self.servers.len() {
            return IterAction::Failed(ResolveError::AllServersTimedOut);
        }
        let server = self.servers[self.next_server];
        self.next_server += 1;
        self.in_flight = Some(server);
        self.exchanges += 1;
        let id = self.fresh_id();
        // Iterative queries do not request recursion.
        let mut q = Message::query(
            id,
            Question {
                qname: self.current_name.clone(),
                qtype: self.qtype,
                qclass: self.question.qclass,
            },
        );
        q.header.rd = false;
        IterAction::SendQuery { server, query: q }
    }

    /// The driver reports that the in-flight query timed out.
    pub fn on_timeout(&mut self) -> IterAction {
        self.in_flight = None;
        self.query_next_server()
    }

    /// The driver delivers a response from the in-flight server.
    pub fn on_response(&mut self, response: &Message) -> IterAction {
        let Some(server) = self.in_flight.take() else {
            return IterAction::Failed(ResolveError::Lame("response with nothing in flight"));
        };

        match response.header.rcode {
            Rcode::NoError => {}
            Rcode::NxDomain => {
                let soa = response
                    .authorities
                    .iter()
                    .find(|r| r.rtype() == RecordType::SOA)
                    .cloned();
                return IterAction::Finished(Resolution {
                    rcode: Rcode::NxDomain,
                    answers: std::mem::take(&mut self.answers),
                    soa,
                    auth_server: server,
                    exchanges: self.exchanges,
                });
            }
            rc => return IterAction::Failed(ResolveError::BadRcode(rc)),
        }

        // Final answers for the current name?
        let direct: Vec<Record> = response
            .answers
            .iter()
            .filter(|r| r.rtype() == self.qtype && r.name == self.current_name)
            .cloned()
            .collect();
        if !direct.is_empty() {
            // Keep any CNAME links the server included, then the answers.
            for r in &response.answers {
                if r.rtype() == RecordType::CNAME && !self.answers.contains(r) {
                    self.answers.push(r.clone());
                }
            }
            self.answers.extend(direct);
            return IterAction::Finished(Resolution {
                rcode: Rcode::NoError,
                answers: std::mem::take(&mut self.answers),
                soa: None,
                auth_server: server,
                exchanges: self.exchanges,
            });
        }

        // CNAME for the current name? Follow it (restarting from the roots,
        // unless the same response already answers the target).
        if let Some(cn) = response
            .answers
            .iter()
            .find(|r| r.rtype() == RecordType::CNAME && r.name == self.current_name)
        {
            self.cnames += 1;
            if self.cnames > MAX_CNAME {
                return IterAction::Failed(ResolveError::Lame("CNAME chain too long"));
            }
            let target = match &cn.rdata {
                RData::CNAME(t) => t.clone(),
                _ => unreachable!(),
            };
            self.answers.push(cn.clone());
            self.current_name = target;
            self.servers = self.roots.clone();
            self.next_server = 0;
            self.seen_referrals.clear();
            return self.query_next_server();
        }

        // NODATA: name exists, no records of this type.
        if response.answers.is_empty() && response.header.aa {
            let soa = response
                .authorities
                .iter()
                .find(|r| r.rtype() == RecordType::SOA)
                .cloned();
            return IterAction::Finished(Resolution {
                rcode: Rcode::NoError,
                answers: std::mem::take(&mut self.answers),
                soa,
                auth_server: server,
                exchanges: self.exchanges,
            });
        }

        // Referral: collect NS + glue, descend.
        let ns_names: Vec<Name> = response
            .authorities
            .iter()
            .filter_map(|r| match &r.rdata {
                RData::NS(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        if !ns_names.is_empty() {
            self.referrals += 1;
            if self.referrals > MAX_REFERRALS {
                return IterAction::Failed(ResolveError::Lame("too many referrals"));
            }
            // Loop guard: a referral must be for a new delegation point.
            let deleg = response.authorities[0].name.clone();
            if !self.seen_referrals.insert(deleg.to_lowercase()) {
                return IterAction::Failed(ResolveError::Lame("referral loop"));
            }
            let glue: Vec<IpAddr> = response
                .additionals
                .iter()
                .filter(|g| ns_names.contains(&g.name))
                .filter_map(|g| match &g.rdata {
                    RData::A(a) => Some(IpAddr::V4(*a)),
                    RData::AAAA(a) => Some(IpAddr::V6(*a)),
                    _ => None,
                })
                .collect();
            if glue.is_empty() {
                return IterAction::Failed(ResolveError::NoGlue(ns_names[0].clone()));
            }
            self.servers = glue;
            self.next_server = 0;
            return self.query_next_server();
        }

        IterAction::Failed(ResolveError::Lame("useless response"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Authority;
    use crate::zone::Zone;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a(name: &str, ttl: u32, ip: [u8; 4]) -> Record {
        Record::new(n(name), ttl, RData::A(Ipv4Addr::from(ip)))
    }

    /// Builds the classic three-level hierarchy: root, com, example.com.
    fn hierarchy() -> (Authority, Authority, Authority, Vec<RootHint>) {
        let mut root = Zone::with_default_soa(Name::root());
        root.add_record(Record::new(n("com"), 86_400, RData::NS(n("ns.tld"))));
        root.add_record(a("ns.tld", 86_400, [10, 0, 0, 2]));

        let mut com = Zone::with_default_soa(n("com"));
        com.add_record(Record::new(
            n("example.com"),
            86_400,
            RData::NS(n("ns1.example.com")),
        ));
        com.add_record(a("ns1.example.com", 86_400, [10, 0, 0, 3]));

        let mut ex = Zone::with_default_soa(n("example.com"));
        ex.add_record(a("www.example.com", 300, [192, 0, 2, 1]));
        ex.add_record(Record::new(
            n("alias.example.com"),
            300,
            RData::CNAME(n("www.example.com")),
        ));

        let hints = vec![RootHint {
            name: n("a.root-servers.net"),
            addr: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
        }];
        (
            Authority::single(root),
            Authority::single(com),
            Authority::single(ex),
            hints,
        )
    }

    /// Drives `iter` against the in-memory hierarchy, mapping addresses to
    /// authorities, and returns the terminal action.
    fn drive(iter: &mut Iterative, auths: &[(IpAddr, &Authority)]) -> IterAction {
        let mut action = iter.start();
        for _ in 0..64 {
            match action {
                IterAction::SendQuery { server, ref query } => {
                    let auth = auths
                        .iter()
                        .find(|(a, _)| *a == server)
                        .map(|(_, a)| *a)
                        .expect("query to unknown server");
                    let resp = auth.answer(query);
                    action = iter.on_response(&resp);
                }
                terminal => return terminal,
            }
        }
        panic!("resolution did not terminate");
    }

    fn addr(o: [u8; 4]) -> IpAddr {
        IpAddr::V4(Ipv4Addr::from(o))
    }

    #[test]
    fn resolves_through_root_tld_auth() {
        let (root, com, ex, hints) = hierarchy();
        let auths = [
            (addr([10, 0, 0, 1]), &root),
            (addr([10, 0, 0, 2]), &com),
            (addr([10, 0, 0, 3]), &ex),
        ];
        let mut iter = Iterative::new(
            Question::new(n("www.example.com"), RecordType::A),
            &hints,
            7,
        );
        match drive(&mut iter, &auths) {
            IterAction::Finished(res) => {
                assert_eq!(res.rcode, Rcode::NoError);
                assert_eq!(res.answers.len(), 1);
                assert_eq!(res.answers[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
                assert_eq!(res.auth_server, addr([10, 0, 0, 3]));
                assert_eq!(res.exchanges, 3); // root, TLD, auth
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn follows_cname_chains() {
        let (root, com, ex, hints) = hierarchy();
        let auths = [
            (addr([10, 0, 0, 1]), &root),
            (addr([10, 0, 0, 2]), &com),
            (addr([10, 0, 0, 3]), &ex),
        ];
        let mut iter = Iterative::new(
            Question::new(n("alias.example.com"), RecordType::A),
            &hints,
            7,
        );
        match drive(&mut iter, &auths) {
            IterAction::Finished(res) => {
                // CNAME + A (the authoritative server chases in-zone, so one
                // exchange chain suffices).
                assert_eq!(res.answers.len(), 2);
                assert_eq!(res.answers[0].rtype(), RecordType::CNAME);
                assert_eq!(res.answers[1].rtype(), RecordType::A);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nxdomain_finishes_negatively_with_soa() {
        let (root, com, ex, hints) = hierarchy();
        let auths = [
            (addr([10, 0, 0, 1]), &root),
            (addr([10, 0, 0, 2]), &com),
            (addr([10, 0, 0, 3]), &ex),
        ];
        let mut iter = Iterative::new(
            Question::new(n("missing.example.com"), RecordType::A),
            &hints,
            7,
        );
        match drive(&mut iter, &auths) {
            IterAction::Finished(res) => {
                assert_eq!(res.rcode, Rcode::NxDomain);
                assert!(res.soa.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nodata_finishes_with_soa() {
        let (root, com, ex, hints) = hierarchy();
        let auths = [
            (addr([10, 0, 0, 1]), &root),
            (addr([10, 0, 0, 2]), &com),
            (addr([10, 0, 0, 3]), &ex),
        ];
        let mut iter = Iterative::new(
            Question::new(n("www.example.com"), RecordType::AAAA),
            &hints,
            7,
        );
        match drive(&mut iter, &auths) {
            IterAction::Finished(res) => {
                assert_eq!(res.rcode, Rcode::NoError);
                assert!(res.answers.is_empty());
                assert!(res.soa.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn timeout_rotates_servers_then_fails() {
        let hints = vec![
            RootHint {
                name: n("a.root"),
                addr: addr([10, 0, 0, 1]),
            },
            RootHint {
                name: n("b.root"),
                addr: addr([10, 0, 0, 9]),
            },
        ];
        let mut iter = Iterative::new(Question::new(n("x.com"), RecordType::A), &hints, 7);
        let first = iter.start();
        let IterAction::SendQuery { server: s1, .. } = first else {
            panic!()
        };
        assert_eq!(s1, addr([10, 0, 0, 1]));
        let second = iter.on_timeout();
        let IterAction::SendQuery { server: s2, .. } = second else {
            panic!()
        };
        assert_eq!(s2, addr([10, 0, 0, 9]));
        assert_eq!(
            iter.on_timeout(),
            IterAction::Failed(ResolveError::AllServersTimedOut)
        );
    }

    #[test]
    fn servfail_propagates() {
        let hints = vec![RootHint {
            name: n("a.root"),
            addr: addr([10, 0, 0, 1]),
        }];
        let mut iter = Iterative::new(Question::new(n("x.com"), RecordType::A), &hints, 7);
        let IterAction::SendQuery { query, .. } = iter.start() else {
            panic!()
        };
        let mut resp = Message::response_to(&query);
        resp.header.rcode = Rcode::ServFail;
        assert_eq!(
            iter.on_response(&resp),
            IterAction::Failed(ResolveError::BadRcode(Rcode::ServFail))
        );
    }

    #[test]
    fn referral_without_glue_fails() {
        let hints = vec![RootHint {
            name: n("a.root"),
            addr: addr([10, 0, 0, 1]),
        }];
        let mut iter = Iterative::new(Question::new(n("x.com"), RecordType::A), &hints, 7);
        let IterAction::SendQuery { query, .. } = iter.start() else {
            panic!()
        };
        let mut resp = Message::response_to(&query);
        resp.authorities
            .push(Record::new(n("com"), 60, RData::NS(n("ns.com"))));
        match iter.on_response(&resp) {
            IterAction::Failed(ResolveError::NoGlue(name)) => assert_eq!(name, n("ns.com")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn referral_loop_detected() {
        let hints = vec![RootHint {
            name: n("a.root"),
            addr: addr([10, 0, 0, 1]),
        }];
        let mut iter = Iterative::new(Question::new(n("x.com"), RecordType::A), &hints, 7);
        let IterAction::SendQuery { query, .. } = iter.start() else {
            panic!()
        };
        let mut referral = Message::response_to(&query);
        referral
            .authorities
            .push(Record::new(n("com"), 60, RData::NS(n("ns.com"))));
        referral.additionals.push(a("ns.com", 60, [10, 0, 0, 1]));
        // First referral is accepted and re-queries…
        let act = iter.on_response(&referral);
        assert!(matches!(act, IterAction::SendQuery { .. }));
        // …but the same delegation point again is a loop.
        let referral2 = {
            let IterAction::SendQuery { query, .. } = act else {
                panic!()
            };
            let mut r = Message::response_to(&query);
            r.authorities
                .push(Record::new(n("com"), 60, RData::NS(n("ns.com"))));
            r.additionals.push(a("ns.com", 60, [10, 0, 0, 1]));
            r
        };
        assert!(matches!(
            iter.on_response(&referral2),
            IterAction::Failed(ResolveError::Lame("referral loop"))
        ));
    }

    #[test]
    fn iterative_queries_do_not_request_recursion() {
        let hints = vec![RootHint {
            name: n("a.root"),
            addr: addr([10, 0, 0, 1]),
        }];
        let mut iter = Iterative::new(Question::new(n("x.com"), RecordType::A), &hints, 7);
        let IterAction::SendQuery { query, .. } = iter.start() else {
            panic!()
        };
        assert!(!query.header.rd);
    }
}
