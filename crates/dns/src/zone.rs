//! Authoritative zones with strictly monotonic version numbers.
//!
//! The paper (§4.2) requires authoritative servers to keep "a version number
//! of the managed zone … a strictly monotonically increasing sequence of
//! integers"; every record change bumps it, and the new version becomes the
//! group ID of the MoQT objects that push the update. [`Zone`] implements
//! exactly that: every mutation increments [`Zone::version`], and the SOA
//! serial mirrors the version so classic DNS observers see changes too.

use crate::name::Name;
use crate::rdata::{RData, Soa};
use crate::rr::{Record, RecordType};
use std::collections::BTreeMap;

/// Result of looking a name/type up in one zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneLookup {
    /// Authoritative answer records (non-empty).
    Answer(Vec<Record>),
    /// The name exists and is an alias; chase the target.
    CName(Record),
    /// The name is below a delegation: NS records plus any in-zone glue.
    Referral {
        /// NS records at the delegation point.
        ns: Vec<Record>,
        /// A/AAAA glue for the NS targets, when present in the zone.
        glue: Vec<Record>,
    },
    /// The name exists but has no records of the requested type.
    NoData,
    /// The name does not exist in this zone.
    NxDomain,
    /// The name is not within this zone at all.
    OutOfZone,
}

/// An authoritative zone: origin, SOA, records, and the monotonic version.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    soa: Soa,
    /// (owner, type) -> records. BTreeMap for deterministic iteration.
    records: BTreeMap<(Name, RecordType), Vec<Record>>,
    /// Strictly monotonically increasing; bumped on every mutation.
    version: u64,
}

impl Zone {
    /// Creates a zone for `origin` with an initial SOA (version 1).
    pub fn new(origin: Name, mut soa: Soa) -> Zone {
        soa.serial = 1;
        Zone {
            origin,
            soa,
            records: BTreeMap::new(),
            version: 1,
        }
    }

    /// Creates a zone with a boilerplate SOA — convenient for tests and
    /// synthetic workloads.
    pub fn with_default_soa(origin: Name) -> Zone {
        let mname = origin.prepend("ns1").unwrap_or_else(|_| origin.clone());
        let rname = origin
            .prepend("hostmaster")
            .unwrap_or_else(|_| origin.clone());
        Zone::new(
            origin,
            Soa {
                mname,
                rname,
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            },
        )
    }

    /// The zone origin (apex name).
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Current zone version — the MoQT group ID for pushed updates.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The SOA record (serial mirrors the version).
    pub fn soa_record(&self) -> Record {
        let mut soa = self.soa.clone();
        soa.serial = self.version as u32;
        Record::new(self.origin.clone(), self.soa.minimum, RData::SOA(soa))
    }

    fn bump(&mut self) {
        self.version += 1;
    }

    fn key(&self, name: &Name, rtype: RecordType) -> (Name, RecordType) {
        (name.to_lowercase(), rtype)
    }

    /// Adds one record (appending to any existing set of the same
    /// name/type). Bumps the version.
    pub fn add_record(&mut self, record: Record) {
        let key = self.key(&record.name, record.rtype());
        self.records.entry(key).or_default().push(record);
        self.bump();
    }

    /// Replaces the full record set for (name, type). Bumps the version.
    /// An empty `records` removes the set.
    pub fn set_records(&mut self, name: &Name, rtype: RecordType, records: Vec<Record>) {
        let key = self.key(name, rtype);
        if records.is_empty() {
            self.records.remove(&key);
        } else {
            self.records.insert(key, records);
        }
        self.bump();
    }

    /// The record set for exactly (name, type), if any.
    pub fn get(&self, name: &Name, rtype: RecordType) -> Option<&[Record]> {
        self.records
            .get(&self.key(name, rtype))
            .map(|v| v.as_slice())
    }

    /// True if any record set exists at `name` (any type).
    pub fn name_exists(&self, name: &Name) -> bool {
        let lname = name.to_lowercase();
        self.records.keys().any(|(n, _)| *n == lname) || lname == self.origin.to_lowercase()
    }

    /// Iterates all record sets, deterministically ordered.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = (&Name, RecordType, &[Record])> {
        self.records.iter().map(|((n, t), v)| (n, *t, v.as_slice()))
    }

    /// Finds the closest enclosing delegation for `name`, if the zone
    /// delegates a sub-zone at or above it (excluding the apex).
    fn find_delegation(&self, name: &Name) -> Option<&[Record]> {
        let mut cut = Some(name.clone());
        while let Some(c) = cut {
            if c == self.origin || !c.is_subdomain_of(&self.origin) {
                break;
            }
            if let Some(ns) = self.get(&c, RecordType::NS) {
                return Some(ns);
            }
            cut = c.parent();
        }
        None
    }

    /// Authoritative lookup of (name, type) following RFC 1034 §4.3.2
    /// within this single zone: answer, CNAME, referral, NODATA, NXDOMAIN.
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> ZoneLookup {
        if !name.is_subdomain_of(&self.origin) {
            return ZoneLookup::OutOfZone;
        }
        // Delegations take precedence below the cut (except asking the apex
        // for its own NS set, which is authoritative data).
        if let Some(ns) = self.find_delegation(name) {
            let is_apex_ns_query = rtype == RecordType::NS && *name == self.origin;
            if !is_apex_ns_query {
                let ns = ns.to_vec();
                let mut glue = Vec::new();
                for r in &ns {
                    if let RData::NS(target) = &r.rdata {
                        for t in [RecordType::A, RecordType::AAAA] {
                            if let Some(g) = self.get(target, t) {
                                glue.extend(g.iter().cloned());
                            }
                        }
                    }
                }
                return ZoneLookup::Referral { ns, glue };
            }
        }
        if let Some(rs) = self.get(name, rtype) {
            return ZoneLookup::Answer(rs.to_vec());
        }
        if rtype != RecordType::CNAME {
            if let Some(cn) = self.get(name, RecordType::CNAME) {
                return ZoneLookup::CName(cn[0].clone());
            }
        }
        if rtype == RecordType::SOA && *name == self.origin {
            return ZoneLookup::Answer(vec![self.soa_record()]);
        }
        if self.name_exists(name) {
            ZoneLookup::NoData
        } else {
            // A name "exists" (empty non-terminal) if anything lives below it.
            let lname = name.to_lowercase();
            let has_descendant = self
                .records
                .keys()
                .any(|(n, _)| n.is_subdomain_of(&lname) && *n != lname);
            if has_descendant {
                ZoneLookup::NoData
            } else {
                ZoneLookup::NxDomain
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn a(name: &str, ttl: u32, ip: [u8; 4]) -> Record {
        Record::new(n(name), ttl, RData::A(Ipv4Addr::from(ip)))
    }

    fn example_zone() -> Zone {
        let mut z = Zone::with_default_soa(n("example.com"));
        z.add_record(a("www.example.com", 300, [192, 0, 2, 1]));
        z.add_record(a("example.com", 300, [192, 0, 2, 2]));
        z.add_record(Record::new(
            n("alias.example.com"),
            300,
            RData::CNAME(n("www.example.com")),
        ));
        // Delegation of sub.example.com with glue.
        z.add_record(Record::new(
            n("sub.example.com"),
            3600,
            RData::NS(n("ns.sub.example.com")),
        ));
        z.add_record(a("ns.sub.example.com", 3600, [192, 0, 2, 53]));
        z
    }

    #[test]
    fn version_starts_at_one_and_bumps_on_every_mutation() {
        let mut z = Zone::with_default_soa(n("example.com"));
        assert_eq!(z.version(), 1);
        z.add_record(a("www.example.com", 300, [1, 2, 3, 4]));
        assert_eq!(z.version(), 2);
        z.set_records(
            &n("www.example.com"),
            RecordType::A,
            vec![a("www.example.com", 300, [5, 6, 7, 8])],
        );
        assert_eq!(z.version(), 3);
        z.set_records(&n("www.example.com"), RecordType::A, vec![]);
        assert_eq!(z.version(), 4);
    }

    #[test]
    fn version_is_strictly_monotonic() {
        let mut z = Zone::with_default_soa(n("example.com"));
        let mut last = z.version();
        for i in 0..100u8 {
            z.set_records(
                &n("www.example.com"),
                RecordType::A,
                vec![a("www.example.com", 300, [192, 0, 2, i])],
            );
            assert!(z.version() > last);
            last = z.version();
        }
    }

    #[test]
    fn soa_serial_mirrors_version() {
        let mut z = Zone::with_default_soa(n("example.com"));
        z.add_record(a("x.example.com", 60, [1, 1, 1, 1]));
        let soa = z.soa_record();
        match &soa.rdata {
            RData::SOA(s) => assert_eq!(s.serial as u64, z.version()),
            _ => panic!(),
        }
    }

    #[test]
    fn lookup_answer() {
        let z = example_zone();
        match z.lookup(&n("www.example.com"), RecordType::A) {
            ZoneLookup::Answer(rs) => {
                assert_eq!(rs.len(), 1);
                assert_eq!(rs[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let z = example_zone();
        assert!(matches!(
            z.lookup(&n("WWW.Example.COM"), RecordType::A),
            ZoneLookup::Answer(_)
        ));
    }

    #[test]
    fn lookup_cname() {
        let z = example_zone();
        match z.lookup(&n("alias.example.com"), RecordType::A) {
            ZoneLookup::CName(r) => {
                assert_eq!(r.rdata, RData::CNAME(n("www.example.com")))
            }
            other => panic!("{other:?}"),
        }
        // Asking for the CNAME itself returns it as an answer.
        assert!(matches!(
            z.lookup(&n("alias.example.com"), RecordType::CNAME),
            ZoneLookup::Answer(_)
        ));
    }

    #[test]
    fn lookup_referral_with_glue() {
        let z = example_zone();
        match z.lookup(&n("deep.sub.example.com"), RecordType::A) {
            ZoneLookup::Referral { ns, glue } => {
                assert_eq!(ns.len(), 1);
                assert_eq!(glue.len(), 1);
                assert_eq!(glue[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 53)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lookup_nodata_vs_nxdomain() {
        let z = example_zone();
        assert_eq!(
            z.lookup(&n("www.example.com"), RecordType::AAAA),
            ZoneLookup::NoData
        );
        assert_eq!(
            z.lookup(&n("missing.example.com"), RecordType::A),
            ZoneLookup::NxDomain
        );
    }

    #[test]
    fn empty_non_terminal_is_nodata() {
        let mut z = Zone::with_default_soa(n("example.com"));
        z.add_record(a("a.b.example.com", 60, [1, 1, 1, 1]));
        // b.example.com has no records but has a descendant.
        assert_eq!(
            z.lookup(&n("b.example.com"), RecordType::A),
            ZoneLookup::NoData
        );
    }

    #[test]
    fn lookup_out_of_zone() {
        let z = example_zone();
        assert_eq!(
            z.lookup(&n("www.other.org"), RecordType::A),
            ZoneLookup::OutOfZone
        );
    }

    #[test]
    fn apex_soa_lookup() {
        let z = example_zone();
        match z.lookup(&n("example.com"), RecordType::SOA) {
            ZoneLookup::Answer(rs) => assert_eq!(rs[0].rtype(), RecordType::SOA),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn record_count_and_iter() {
        let z = example_zone();
        assert_eq!(z.iter().map(|(_, _, rs)| rs.len()).sum::<usize>(), 5);
        assert_eq!(z.iter().count(), 5);
    }
}
