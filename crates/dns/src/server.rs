//! Authoritative answer construction: turns a zone lookup into a full DNS
//! response message (RFC 1034 §4.3.2 within one zone).

use crate::message::{Message, Question, Rcode};
use crate::name::Name;
use crate::rdata::RData;
use crate::zone::{Zone, ZoneLookup};

/// Maximum CNAME chain length followed inside one zone.
const MAX_CNAME_CHAIN: usize = 8;

/// An authoritative engine over a set of zones.
///
/// One engine can serve several zones (a root server and a TLD server are
/// both just `Authority` instances with different zone files).
pub struct Authority {
    zones: Vec<Zone>,
}

impl Authority {
    /// Creates an engine serving `zones`.
    #[cfg(test)]
    pub fn new(zones: Vec<Zone>) -> Authority {
        Authority { zones }
    }

    /// Creates an engine serving one zone.
    pub fn single(zone: Zone) -> Authority {
        Authority { zones: vec![zone] }
    }

    /// Finds the zone with the longest origin matching `name`.
    pub fn find_zone(&self, name: &Name) -> Option<&Zone> {
        self.zones
            .iter()
            .filter(|z| name.is_subdomain_of(z.origin()))
            .max_by_key(|z| z.origin().num_labels())
    }

    /// Mutable variant of [`Authority::find_zone`].
    pub fn find_zone_mut(&mut self, name: &Name) -> Option<&mut Zone> {
        self.zones
            .iter_mut()
            .filter(|z| name.is_subdomain_of(z.origin()))
            .max_by_key(|z| z.origin().num_labels())
    }

    /// Answers `query` authoritatively. Always returns a response message
    /// (REFUSED when no zone matches, FORMERR without a question).
    pub fn answer(&self, query: &Message) -> Message {
        self.answer_into(Message::response_to(query))
    }

    /// Answers a bare question (no enclosing query message) with a fresh
    /// response — the form DNS-over-MoQT uses, where the "request" arrived
    /// as a SUBSCRIBE/FETCH rather than a DNS query message (paper §4.3).
    pub fn answer_question(&self, q: &Question) -> Message {
        self.respond(Message::query(0, q.clone()))
    }

    /// Answers an owned `query` like [`Authority::answer`]; its question
    /// moves into the response instead of being copied.
    pub fn respond(&self, query: Message) -> Message {
        self.answer_into(Message::response(query))
    }

    fn answer_into(&self, mut resp: Message) -> Message {
        let Some(q) = resp.question().cloned() else {
            resp.header.rcode = Rcode::FormErr;
            return resp;
        };
        match self.find_zone(&q.qname) {
            Some(zone) => self.answer_in_zone(zone, &q, &mut resp),
            None => resp.header.rcode = Rcode::Refused,
        }
        resp
    }

    fn answer_in_zone(&self, zone: &Zone, q: &Question, resp: &mut Message) {
        let mut qname = q.qname.clone();
        resp.header.aa = true;
        for _ in 0..MAX_CNAME_CHAIN {
            match zone.lookup(&qname, q.qtype) {
                ZoneLookup::Answer(rs) => {
                    resp.answers.extend(rs);
                    return;
                }
                ZoneLookup::CName(cn) => {
                    let target = match &cn.rdata {
                        RData::CNAME(t) => t.clone(),
                        _ => unreachable!("CName lookup returns CNAME rdata"),
                    };
                    resp.answers.push(cn);
                    if !target.is_subdomain_of(zone.origin()) {
                        // Chain leaves the zone: the resolver continues.
                        return;
                    }
                    qname = target;
                }
                ZoneLookup::Referral { ns, glue } => {
                    resp.header.aa = false;
                    resp.authorities.extend(ns);
                    resp.additionals.extend(glue);
                    return;
                }
                ZoneLookup::NoData => {
                    resp.authorities.push(zone.soa_record());
                    return;
                }
                ZoneLookup::NxDomain => {
                    resp.header.rcode = Rcode::NxDomain;
                    resp.authorities.push(zone.soa_record());
                    return;
                }
                ZoneLookup::OutOfZone => {
                    resp.header.rcode = Rcode::Refused;
                    return;
                }
            }
        }
        // CNAME chain too long.
        resp.header.rcode = Rcode::ServFail;
    }

    /// Looks up which zone (if any) would answer `name`, returning its
    /// current version — used by DNS-over-MoQT to stamp group IDs.
    pub fn zone_version_for(&self, name: &Name) -> Option<u64> {
        self.find_zone(name).map(|z| z.version())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::{Record, RecordType};
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a(name: &str, ttl: u32, ip: [u8; 4]) -> Record {
        Record::new(n(name), ttl, RData::A(Ipv4Addr::from(ip)))
    }

    fn authority() -> Authority {
        let mut z = Zone::with_default_soa(n("example.com"));
        z.add_record(a("www.example.com", 300, [192, 0, 2, 1]));
        z.add_record(Record::new(
            n("alias.example.com"),
            300,
            RData::CNAME(n("www.example.com")),
        ));
        z.add_record(Record::new(
            n("ext.example.com"),
            300,
            RData::CNAME(n("elsewhere.org")),
        ));
        z.add_record(Record::new(
            n("sub.example.com"),
            3600,
            RData::NS(n("ns.sub.example.com")),
        ));
        z.add_record(a("ns.sub.example.com", 3600, [192, 0, 2, 53]));
        Authority::single(z)
    }

    fn ask(auth: &Authority, name: &str, t: RecordType) -> Message {
        auth.answer(&Message::query(9, Question::new(n(name), t)))
    }

    #[test]
    fn positive_answer_is_authoritative() {
        let auth = authority();
        let r = ask(&auth, "www.example.com", RecordType::A);
        assert!(r.header.qr);
        assert!(r.header.aa);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn cname_is_chased_in_zone() {
        let auth = authority();
        let r = ask(&auth, "alias.example.com", RecordType::A);
        assert_eq!(r.answers.len(), 2);
        assert_eq!(r.answers[0].rtype(), RecordType::CNAME);
        assert_eq!(r.answers[1].rtype(), RecordType::A);
    }

    #[test]
    fn cname_leaving_zone_stops() {
        let auth = authority();
        let r = ask(&auth, "ext.example.com", RecordType::A);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.answers[0].rtype(), RecordType::CNAME);
        assert_eq!(r.header.rcode, Rcode::NoError);
    }

    #[test]
    fn referral_clears_aa_and_carries_glue() {
        let auth = authority();
        let r = ask(&auth, "x.sub.example.com", RecordType::A);
        assert!(!r.header.aa);
        assert_eq!(r.answers.len(), 0);
        assert_eq!(r.authorities.len(), 1);
        assert_eq!(r.additionals.len(), 1);
    }

    #[test]
    fn nxdomain_carries_soa() {
        let auth = authority();
        let r = ask(&auth, "missing.example.com", RecordType::A);
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert_eq!(r.authorities.len(), 1);
        assert_eq!(r.authorities[0].rtype(), RecordType::SOA);
    }

    #[test]
    fn nodata_carries_soa_with_noerror() {
        let auth = authority();
        let r = ask(&auth, "www.example.com", RecordType::AAAA);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
        assert_eq!(r.authorities[0].rtype(), RecordType::SOA);
    }

    #[test]
    fn out_of_zone_is_refused() {
        let auth = authority();
        let r = ask(&auth, "www.other.org", RecordType::A);
        assert_eq!(r.header.rcode, Rcode::Refused);
    }

    #[test]
    fn cname_loop_is_servfail() {
        let mut z = Zone::with_default_soa(n("example.com"));
        z.add_record(Record::new(
            n("a.example.com"),
            60,
            RData::CNAME(n("b.example.com")),
        ));
        z.add_record(Record::new(
            n("b.example.com"),
            60,
            RData::CNAME(n("a.example.com")),
        ));
        let auth = Authority::single(z);
        let r = ask(&auth, "a.example.com", RecordType::A);
        assert_eq!(r.header.rcode, Rcode::ServFail);
    }

    #[test]
    fn longest_zone_match_wins() {
        let mut parent = Zone::with_default_soa(n("com"));
        parent.add_record(a("com", 60, [9, 9, 9, 9]));
        let mut child = Zone::with_default_soa(n("example.com"));
        child.add_record(a("www.example.com", 60, [1, 1, 1, 1]));
        let auth = Authority::new(vec![parent, child]);
        let z = auth.find_zone(&n("www.example.com")).unwrap();
        assert_eq!(z.origin(), &n("example.com"));
    }

    #[test]
    fn answer_question_form() {
        let auth = authority();
        let r = auth.answer_question(&Question::new(n("www.example.com"), RecordType::A));
        assert_eq!(r.answers.len(), 1);
        assert!(r.header.qr);
    }

    #[test]
    fn zone_version_for_names() {
        let auth = authority();
        assert!(auth.zone_version_for(&n("www.example.com")).is_some());
        assert!(auth.zone_version_for(&n("other.org")).is_none());
    }

    #[test]
    fn missing_question_is_formerr() {
        let auth = authority();
        let r = auth.answer(&Message::default());
        assert_eq!(r.header.rcode, Rcode::FormErr);
    }
}
