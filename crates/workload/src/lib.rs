//! # moqdns-workload
//!
//! Synthetic workloads calibrated to the paper's §2 measurement study:
//!
//! * [`toplist`] — a Tranco-like top-10k domain list with Zipf popularity
//!   and per-record-type presence matching Fig 1a's counts (8435 A, 2870
//!   AAAA, 1835 HTTPS out of 10 000 domains);
//! * [`ttl_model`] — TTL assignment from the clusters
//!   {20, 60, 300, 600, 1200, 3600} s, with HTTPS records "almost
//!   exclusively" at 300 s;
//! * [`churn`] — record-change processes reproducing Fig 1b: records with
//!   TTL ≤ 300 s change often (≥ 71 changes in the 90th percentile of 300
//!   consecutive observations) while TTL ≥ 600 s records essentially never
//!   change;
//! * [`queries`] — query arrival processes (Poisson, Zipf-over-toplist);
//! * [`live`] — the models above compiled into a pure-data [`LivePlan`]
//!   replayed by `moqdns-loadgen` against a real daemon over sockets;
//! * [`scenarios`] — the §5.3 use-case parameter sets (DDNS, CDN, deep
//!   space) with the paper's back-of-envelope arithmetic reproduced
//!   exactly.
//!
//! **Substitution note:** the paper measured the live
//! Internet from one vantage point; we regenerate the published
//! distributions synthetically and run the same analysis pipeline over
//! them.

pub mod churn;
pub mod live;
pub mod queries;
pub mod scenarios;
pub mod toplist;
pub mod ttl_model;

pub use churn::ChurnModel;
pub use live::{LivePlan, LiveSpec};
pub use toplist::{Toplist, ToplistDomain};
pub use ttl_model::TtlModel;
