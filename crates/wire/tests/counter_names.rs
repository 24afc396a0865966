//! Every counter family of the workspace, read by its names: each name
//! dotted, lowercase and unique, and each the name of its own count
//! (`moqdns_wire::counters` module docs).

use moqdns_core::metrics::ResolverCounts;
use moqdns_dns::cache::CacheStats;
use moqdns_moqt::relay::{DialStats, RelayStats};
use moqdns_moqt::session::SessionStats;
use moqdns_moqt::ReasonCounts;
use moqdns_netsim::LinkStats;
use moqdns_quic::Faults;
use moqdns_relayd::netio::HostStats;
use moqdns_wire::counters::Counters;
use std::collections::BTreeSet;

/// `F`'s names, in declaration order, after checking that building a
/// family by name and listing it walk the same names in the same order.
fn names<F: Counters>() -> Vec<String> {
    let mut built = Vec::new();
    let counts = F::from_fn(&mut |name| {
        built.push(name.to_string());
        built.len() as u64
    });
    let rows = counts.rows();
    for (at, (name, value)) in rows.iter().enumerate() {
        assert_eq!((name, *value), (&built[at], at as u64 + 1));
    }
    built
}

#[test]
fn every_counter_name_is_dotted_lowercase_and_unique() {
    let relay = names::<RelayStats>();
    // What a relay embeds lists with it, under the same names.
    let embedded = [
        names::<SessionStats>(),
        names::<DialStats>(),
        names::<ReasonCounts>(),
        names::<Faults>(),
    ];
    for name in embedded.iter().flatten() {
        assert!(
            relay.contains(name),
            "{name} is missing from the relay's list"
        );
    }
    let all = [
        relay,
        names::<CacheStats>(),
        names::<LinkStats>(),
        names::<HostStats>(),
        names::<ResolverCounts>(),
    ]
    .concat();
    let mut seen = BTreeSet::new();
    for name in &all {
        assert!(seen.insert(name), "two counters are called {name}");
        let word = |w: &str| {
            !w.is_empty()
                && w.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        };
        let words: Vec<&str> = name.split('.').collect();
        assert!(
            words.len() >= 2 && words.iter().all(|w| word(w)),
            "{name:?}"
        );
    }
    assert!(seen.contains(&"relay.fetch.coalesced".to_string()));
    assert!(seen.contains(&"moqt.reason.unexpected_client_setup".to_string()));
    assert!(seen.contains(&"quic.endpoint.dropped.malformed_header".to_string()));
    assert!(seen.contains(&"dns.cache.hits".to_string()));
}
