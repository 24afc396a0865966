//! The recursive resolver (paper §4.1, §4.5, §5).
//!
//! Downstream it serves stub resolvers over classic DNS-on-UDP and over
//! MoQT; upstream it resolves iteratively (root → TLD → authoritative)
//! over one of three transports:
//!
//! * [`UpstreamMode::Classic`] — plain DNS-over-UDP with retransmission;
//! * [`UpstreamMode::Moqt`] — every step is a MoQT SUBSCRIBE + joining
//!   FETCH (Fig 2), so referral and answer updates keep flowing after the
//!   lookup;
//! * [`UpstreamMode::HappyEyeballs`] — §4.5: "the resolver can use a happy
//!   eyeballs-like approach by trying to establish a MoQT connection while
//!   simultaneously sending a request over UDP".
//!
//! When the authoritative side cannot provide updates (classic-only), the
//! resolver either declines downstream subscriptions with SUBSCRIBE_ERROR,
//! or — in `poll_proxy` mode — re-requests the record every TTL and
//! synthesizes update pushes (§4.5 last paragraph).

use crate::links::Newest;
use crate::mapping::{
    object_from_response, question_from_track, track_from_question, RequestFlags,
};
use crate::metrics::{AnswerSource, LookupSample, Metrics, UpdateSample};
use crate::stack::{MoqtStack, StackEvent, StackNode, TOKEN_QUIC};
use crate::teardown::{SubscriptionTracker, TeardownPolicy};
use crate::{ip_node, DNS_PORT, MOQT_PORT};
use moqdns_dns::cache::{Cache, CacheHit};
use moqdns_dns::message::{Message, Question, Rcode};
use moqdns_dns::resolver::{IterAction, Iterative, Resolution, RootHint};
use moqdns_dns::rr::Record;
use moqdns_dns::transport::{UdpAction, UdpExchange};
use moqdns_moqt::data::Object;
use moqdns_moqt::session::{IncomingFetchKind, SessionEvent};
use moqdns_moqt::track::FullTrackName;
use moqdns_netsim::{Addr, Ctx, Node, Payload, SimTime};
use moqdns_quic::{ConnHandle, TransportConfig};
use std::any::Any;
use std::collections::BTreeMap;
use std::net::IpAddr;
use std::time::Duration;

/// Which transport the resolver uses toward authoritative servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpstreamMode {
    /// Traditional DNS over UDP.
    Classic,
    /// DNS over MoQT (subscribe + joining fetch per step).
    Moqt,
    /// Race MoQT against UDP (§4.5).
    HappyEyeballs,
}

/// Resolver configuration.
#[derive(Clone)]
pub struct RecursiveConfig {
    /// Upstream transport.
    pub mode: UpstreamMode,
    /// Teardown policy for upstream subscriptions (§4.4).
    pub teardown: TeardownPolicy,
    /// Provide downstream updates for classic-only records by re-polling
    /// at TTL intervals (§4.5).
    pub poll_proxy: bool,
    /// Root server hints.
    pub roots: Vec<RootHint>,
    /// How often the teardown sweep runs.
    pub sweep_interval: Duration,
    /// QUIC transport tuning.
    pub transport: TransportConfig,
    /// Cache capacity (record sets).
    pub cache_size: usize,
    /// RNG/cid seed.
    pub seed: u64,
    /// Give up on a MoQT step after this long (fall to the next server, or
    /// let UDP win the happy-eyeballs race).
    pub moqt_step_timeout: Duration,
    /// Initial retransmission timeout for upstream UDP queries. Raise for
    /// long-delay paths (deep space, E8).
    pub udp_rto: Duration,
    /// Happy-eyeballs grace: how long MoQT gets to answer before the UDP
    /// probe is sent (preferring the subscription-capable transport, §4.5).
    pub happy_eyeballs_grace: Duration,
}

impl RecursiveConfig {
    /// A sensible default configuration for `mode` with the given roots.
    pub fn new(mode: UpstreamMode, roots: Vec<RootHint>, seed: u64) -> RecursiveConfig {
        RecursiveConfig {
            mode,
            teardown: TeardownPolicy::Never,
            poll_proxy: false,
            roots,
            sweep_interval: Duration::from_secs(60),
            transport: TransportConfig::patient(),
            cache_size: 100_000,
            seed,
            moqt_step_timeout: Duration::from_secs(3),
            udp_rto: Duration::from_secs(1),
            happy_eyeballs_grace: Duration::from_millis(250),
        }
    }
}

// Timer token namespaces (high byte).
const K_UDP: u64 = 2 << 56;
const K_STEP: u64 = 3 << 56;
const K_SWEEP: u64 = 4 << 56;
const K_POLL: u64 = 5 << 56;
const K_MASK: u64 = 0xFF << 56;

/// Who is waiting for a resolution to finish.
enum Waiter {
    /// A classic UDP client (answer with this transaction id).
    Classic { from: Addr, query_id: u16 },
    /// A downstream MoQT subscriber (subscribe + joining fetch pair).
    Moqt {
        conn: ConnHandle,
        sub_request: Option<u64>,
        fetch_request: Option<u64>,
        track: FullTrackName,
    },
    /// Internal poll-proxy refresh for a track.
    Poll { track: FullTrackName },
}

/// The upstream transport state of one resolution step.
#[allow(dead_code)] // conn handles kept for diagnostics
enum Step {
    Udp {
        server: Addr,
        exchange: UdpExchange,
    },
    Moqt {
        conn: ConnHandle,
        fetch_id: Option<u64>,
    },
    Race {
        server: Addr,
        exchange: UdpExchange,
        conn: ConnHandle,
        fetch_id: Option<u64>,
        /// False until the grace period elapsed and the UDP probe flew.
        udp_started: bool,
    },
}

/// One in-flight recursive resolution.
struct Task {
    question: Question,
    iter: Iterative,
    waiters: Vec<Waiter>,
    step: Option<Step>,
    started: SimTime,
    /// Whether the final answer arrived over MoQT (updates available).
    answered_via_moqt: bool,
}

/// Upstream subscription bookkeeping.
struct UpSub {
    question: Question,
    track: FullTrackName,
}

/// A pending downstream subscribe+fetch pair not yet resolvable.
#[derive(Default)]
struct DownPending {
    sub_request: Option<u64>,
    fetch_request: Option<u64>,
}

/// The recursive resolver node.
pub struct RecursiveResolver {
    config: RecursiveConfig,
    cache: Cache,
    stack: MoqtStack,
    tasks: BTreeMap<u64, Task>,
    next_task: u64,
    active_by_question: BTreeMap<Question, u64>,
    /// Upstream MoQT connections by authoritative server address.
    upstream_conns: BTreeMap<Addr, ConnHandle>,
    /// (conn, our fetch request id) -> task.
    fetch_waiters: BTreeMap<(ConnHandle, u64), u64>,
    /// (conn, our subscribe request id) -> upstream subscription.
    up_subs: BTreeMap<(ConnHandle, u64), UpSub>,
    /// track -> latest version we can serve (group id downstream).
    versions: BTreeMap<FullTrackName, Newest>,
    /// Tracks whose updates arrive via upstream subscription.
    live_tracks: BTreeMap<FullTrackName, (ConnHandle, u64)>,
    /// Downstream subscribers per track.
    down_subs: BTreeMap<FullTrackName, Vec<(ConnHandle, u64)>>,
    /// Downstream subscribe/fetch pairs awaiting resolution.
    down_pending: BTreeMap<(ConnHandle, FullTrackName), DownPending>,
    /// Poll-proxy entries: poll id -> (track, interval).
    polls: BTreeMap<u64, (FullTrackName, Duration)>,
    next_poll: u64,
    /// Teardown tracker over upstream subscriptions.
    tracker: SubscriptionTracker<FullTrackName>,
    /// Fingerprint of last-published content per downstream track (the
    /// paper's §2 lexicographic change detection).
    fingerprints: BTreeMap<FullTrackName, (Rcode, Vec<String>)>,
    /// Raw measurements.
    pub metrics: Metrics,
}

impl RecursiveResolver {
    /// Creates a resolver node.
    pub fn new(config: RecursiveConfig) -> RecursiveResolver {
        let stack = MoqtStack::server(config.transport.clone(), config.seed);
        RecursiveResolver {
            cache: Cache::new(config.cache_size),
            stack,
            tasks: BTreeMap::new(),
            next_task: 0,
            active_by_question: BTreeMap::new(),
            upstream_conns: BTreeMap::new(),
            fetch_waiters: BTreeMap::new(),
            up_subs: BTreeMap::new(),
            versions: BTreeMap::new(),
            live_tracks: BTreeMap::new(),
            down_subs: BTreeMap::new(),
            down_pending: BTreeMap::new(),
            polls: BTreeMap::new(),
            next_poll: 0,
            tracker: SubscriptionTracker::new(config.teardown),
            fingerprints: BTreeMap::new(),
            metrics: Metrics::default(),
            config,
        }
    }

    /// The record cache (inspection).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Live upstream subscription count (§5.1 state overhead).
    pub fn upstream_subscription_count(&self) -> usize {
        self.up_subs.len()
    }

    /// Live downstream subscriber count.
    pub fn downstream_subscriber_count(&self) -> usize {
        self.down_subs.values().map(Vec::len).sum()
    }

    /// Estimated protocol state bytes (E9).
    pub fn state_size_estimate(&self) -> usize {
        self.stack.state_size_estimate()
            + self.up_subs.len() * 96
            + self.downstream_subscriber_count() * 32
    }

    // ------------------------------------------------------------------
    // Resolution engine
    // ------------------------------------------------------------------

    fn start_or_join(&mut self, ctx: &mut Ctx<'_>, question: Question, waiter: Waiter) {
        if let Some(&task_id) = self.active_by_question.get(&question) {
            if let Some(t) = self.tasks.get_mut(&task_id) {
                t.waiters.push(waiter);
                return;
            }
        }
        let task_id = self.next_task;
        self.next_task += 1;
        let seed = (ctx.random_u64() & 0xFFFF) as u16;
        let mut iter = Iterative::new(question.clone(), &self.config.roots, seed);
        let first = iter.start();
        let task = Task {
            question: question.clone(),
            iter,
            waiters: vec![waiter],
            step: None,
            started: ctx.now(),
            answered_via_moqt: false,
        };
        self.active_by_question.insert(question, task_id);
        self.tasks.insert(task_id, task);
        self.advance(ctx, task_id, first);
    }

    fn advance(&mut self, ctx: &mut Ctx<'_>, task_id: u64, action: IterAction) {
        match action {
            IterAction::SendQuery { server, query } => self.start_step(ctx, task_id, server, query),
            IterAction::Finished(res) => self.finish(ctx, task_id, Some(res)),
            IterAction::Failed(_) => self.finish(ctx, task_id, None),
        }
    }

    fn start_step(&mut self, ctx: &mut Ctx<'_>, task_id: u64, server: IpAddr, query: Message) {
        let IpAddr::V4(v4) = server else {
            // v6 unmapped in the simulator; skip to the next server.
            let next = self.tasks.get_mut(&task_id).map(|t| t.iter.on_timeout());
            if let Some(a) = next {
                self.advance(ctx, task_id, a);
            }
            return;
        };
        let node = ip_node(v4);
        let use_moqt = matches!(
            self.config.mode,
            UpstreamMode::Moqt | UpstreamMode::HappyEyeballs
        );
        let use_udp = matches!(
            self.config.mode,
            UpstreamMode::Classic | UpstreamMode::HappyEyeballs
        );

        let racing = use_udp && use_moqt;
        let udp_part = if use_udp {
            let mut exchange = UdpExchange::with_policy(query.clone(), self.config.udp_rto, 3);
            let server_addr = Addr::new(node, DNS_PORT);
            if racing {
                // §4.5 happy eyeballs with a preference for MoQT: give the
                // subscription-capable transport a head start.
                ctx.set_timer(self.config.happy_eyeballs_grace, K_UDP | task_id);
            } else if let UdpAction::Transmit { datagram, timeout } = exchange.start() {
                self.metrics.classic_queries_sent += 1;
                ctx.send(DNS_PORT, server_addr, datagram);
                ctx.set_timer(timeout, K_UDP | task_id);
            }
            Some((server_addr, exchange))
        } else {
            None
        };

        let moqt_part = if use_moqt {
            let peer = Addr::new(node, MOQT_PORT);
            let conn = match self.upstream_conns.get(&peer) {
                Some(&h) if self.stack.session(h).is_some() => Some(h),
                _ => {
                    let h = self.stack.connect(ctx.now(), peer, true);
                    if let Some(h) = h {
                        self.upstream_conns.insert(peer, h);
                    }
                    h
                }
            };
            if conn.is_some() {
                ctx.set_timer(self.config.moqt_step_timeout, K_STEP | task_id);
            }
            conn
        } else {
            None
        };

        let step = match (udp_part, moqt_part) {
            (Some((server, exchange)), None) => Step::Udp { server, exchange },
            (None, Some(conn)) => Step::Moqt {
                conn,
                fetch_id: None,
            },
            (Some((server, exchange)), Some(conn)) => Step::Race {
                server,
                exchange,
                conn,
                fetch_id: None,
                udp_started: false,
            },
            // MoQT-only mode with a failed connect: no transport is left
            // for this step, so the lookup fails instead of hanging.
            (None, None) => {
                self.finish(ctx, task_id, None);
                return;
            }
        };
        if let Some(t) = self.tasks.get_mut(&task_id) {
            t.step = Some(step);
        }
        // The session holds the requests back for as long as it must.
        if let Some(conn) = moqt_part {
            self.issue_step_fetch(ctx, task_id, conn);
        }
    }

    /// Sends SUBSCRIBE + joining FETCH for the current step's question.
    fn issue_step_fetch(&mut self, ctx: &mut Ctx<'_>, task_id: u64, conn: ConnHandle) {
        let Some(task) = self.tasks.get(&task_id) else {
            return;
        };
        // Current name under resolution may differ from the original
        // question (CNAME); the iterative machine re-sends the same
        // question per step in our design, so use the task question.
        let question = task.question.clone();
        let track =
            track_from_question(&question, RequestFlags::iterative()).expect("valid dns track");
        let Some((session, c)) = self.stack.session_conn(conn) else {
            return;
        };
        let (sub_id, fetch_id) = session.subscribe_with_joining_fetch(c, track.clone(), 1);
        self.metrics.subscribes_sent += 1;
        self.metrics.fetches_sent += 1;
        self.fetch_waiters.insert((conn, fetch_id), task_id);
        self.up_subs.insert(
            (conn, sub_id),
            UpSub {
                question,
                track: track.clone(),
            },
        );
        self.tracker.insert(track.clone(), ctx.now());
        if let Some(t) = self.tasks.get_mut(&task_id) {
            match &mut t.step {
                Some(Step::Moqt { fetch_id: f, .. }) | Some(Step::Race { fetch_id: f, .. }) => {
                    *f = Some(fetch_id)
                }
                _ => {}
            }
        }
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>, task_id: u64, res: Option<Resolution>) {
        let Some(task) = self.tasks.remove(&task_id) else {
            return;
        };
        self.active_by_question.remove(&task.question);

        let (rcode, answers, soa, ok) = match &res {
            Some(r) => (r.rcode, r.answers.clone(), r.soa.clone(), true),
            None => (Rcode::ServFail, Vec::new(), None, false),
        };

        // Cache the outcome.
        if ok {
            if rcode == Rcode::NoError && !answers.is_empty() {
                self.cache.insert(
                    ctx.now(),
                    &task.question.qname,
                    task.question.qtype,
                    answers.clone(),
                );
            } else if rcode == Rcode::NxDomain || answers.is_empty() {
                let ttl = soa.as_ref().map(|s| s.ttl).unwrap_or(300);
                self.cache.insert_negative(
                    ctx.now(),
                    &task.question.qname,
                    task.question.qtype,
                    rcode,
                    ttl,
                );
            }
        }

        self.metrics.lookups.push(LookupSample {
            question: task.question.clone(),
            started: task.started,
            finished: ctx.now(),
            source: if task.answered_via_moqt {
                AnswerSource::Moqt
            } else {
                AnswerSource::ClassicUdp
            },
            ok,
            version: None,
        });

        // Downstream track + version bookkeeping.
        let down_track = track_from_question(&task.question, RequestFlags::recursive())
            .expect("valid dns track");
        let updates_available = task.answered_via_moqt || self.config.poll_proxy;
        let version = self.bump_version_if_changed(&down_track, &task.question, rcode, &answers);

        // Build the canonical response.
        let response = self.build_response(&task.question, rcode, &answers, &soa);

        for waiter in task.waiters {
            match waiter {
                Waiter::Classic { from, query_id } => {
                    let mut r = response.clone();
                    r.header.id = query_id;
                    r.header.ra = true;
                    ctx.send(DNS_PORT, from, r.encode());
                }
                Waiter::Moqt {
                    conn,
                    sub_request,
                    fetch_request,
                    track,
                } => {
                    let object = object_from_response(&response, version);
                    if let Some(fr) = fetch_request {
                        if let Some((session, c)) = self.stack.session_conn(conn) {
                            session.respond_fetch(c, fr, (version, 0), vec![object.clone()]);
                        }
                    }
                    if let Some(sr) = sub_request {
                        if updates_available && ok {
                            if let Some((session, c)) = self.stack.session_conn(conn) {
                                session.accept_subscribe(c, sr, Some((version, 0)));
                            }
                            self.down_subs
                                .entry(track.clone())
                                .or_default()
                                .push((conn, sr));
                            if self.config.poll_proxy && !task.answered_via_moqt {
                                self.ensure_poll(ctx, &track, &answers);
                            }
                        } else {
                            // §4.5: decline the subscription, answer the fetch.
                            if let Some((session, c)) = self.stack.session_conn(conn) {
                                session.reject_subscribe(
                                    c,
                                    sr,
                                    0x4,
                                    "updates unavailable for this record",
                                );
                            }
                        }
                    }
                }
                Waiter::Poll { track } => {
                    // The version bump above already happened; push the new
                    // object to downstream subscribers if content changed.
                    self.push_downstream(&track, &response, version);
                }
            }
        }
    }

    /// Bumps the per-track version when the answer content changed.
    fn bump_version_if_changed(
        &mut self,
        track: &FullTrackName,
        question: &Question,
        rcode: Rcode,
        answers: &[Record],
    ) -> u64 {
        let key = (rcode, canonical_answers(answers));
        let current = self.version_of(track).unwrap_or(0);
        // Store a fingerprint alongside by reusing the version map keyed by
        // a shadow track; simpler: keep fingerprints in their own map.
        let fp_changed = match self.fingerprints.get(track) {
            Some(old) => *old != key,
            None => true,
        };
        let v = if fp_changed {
            current + 1
        } else {
            current.max(1)
        };
        self.versions.insert(track.clone(), Newest::at(v));
        self.fingerprints.insert(track.clone(), key);
        let _ = question;
        v
    }

    /// The latest version of `track` this resolver can serve downstream.
    fn version_of(&self, track: &FullTrackName) -> Option<u64> {
        self.versions.get(track).and_then(|held| held.version())
    }

    fn build_response(
        &self,
        question: &Question,
        rcode: Rcode,
        answers: &[Record],
        soa: &Option<Record>,
    ) -> Message {
        let mut resp = Message::response(Message::query(0, question.clone()));
        resp.header.rcode = rcode;
        resp.header.ra = true;
        resp.answers = answers.to_vec();
        if answers.is_empty() {
            if let Some(s) = soa {
                resp.authorities.push(s.clone());
            }
        }
        resp
    }

    /// Pushes `response` as version `version` to all downstream subscribers
    /// of `track` whose content changed.
    fn push_downstream(&mut self, track: &FullTrackName, response: &Message, version: u64) {
        let Some(subs) = self.down_subs.get(track).cloned() else {
            return;
        };
        let object = object_from_response(response, version);
        for (conn, req) in subs {
            if let Some((session, c)) = self.stack.session_conn(conn) {
                session.publish(c, req, object.clone());
            }
        }
    }

    fn ensure_poll(&mut self, ctx: &mut Ctx<'_>, track: &FullTrackName, answers: &[Record]) {
        if self.polls.values().any(|(t, _)| t == track) {
            return;
        }
        let ttl = answers.iter().map(|r| r.ttl).min().unwrap_or(300).max(1);
        let interval = Duration::from_secs(ttl as u64);
        let id = self.next_poll;
        self.next_poll += 1;
        self.polls.insert(id, (track.clone(), interval));
        ctx.set_timer(interval, K_POLL | id);
    }

    // ------------------------------------------------------------------
    // Step response routing
    // ------------------------------------------------------------------

    fn on_step_response(&mut self, ctx: &mut Ctx<'_>, task_id: u64, msg: &Message, via_moqt: bool) {
        let Some(task) = self.tasks.get_mut(&task_id) else {
            return;
        };
        task.step = None;
        task.answered_via_moqt = via_moqt;
        let action = task.iter.on_response(msg);
        self.advance(ctx, task_id, action);
    }

    fn on_step_timeout(&mut self, ctx: &mut Ctx<'_>, task_id: u64) {
        let Some(task) = self.tasks.get_mut(&task_id) else {
            return;
        };
        task.step = None;
        let action = task.iter.on_timeout();
        self.advance(ctx, task_id, action);
    }

    // ------------------------------------------------------------------
    // MoQT event handling
    // ------------------------------------------------------------------
}

impl StackNode for RecursiveResolver {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for ev in events {
            match ev {
                StackEvent::Session(h, sev) => self.handle_session_event(ctx, h, sev),
                StackEvent::Closed(h) => {
                    self.upstream_conns.retain(|_, hh| *hh != h);
                    self.up_subs.retain(|(hh, _), _| *hh != h);
                    self.fetch_waiters.retain(|(hh, _), _| *hh != h);
                    self.live_tracks.retain(|_, (hh, _)| *hh != h);
                    for subs in self.down_subs.values_mut() {
                        subs.retain(|(hh, _)| *hh != h);
                    }
                    self.down_pending.retain(|(hh, _), _| *hh != h);
                }
                _ => {}
            }
        }
    }
}

impl RecursiveResolver {
    fn handle_session_event(&mut self, ctx: &mut Ctx<'_>, h: ConnHandle, ev: SessionEvent) {
        match ev {
            SessionEvent::FetchObjects {
                request_id,
                objects,
            } => {
                if let Some(task_id) = self.fetch_waiters.remove(&(h, request_id)) {
                    let current = self
                        .tasks
                        .get(&task_id)
                        .map(|t| {
                            matches!(
                                &t.step,
                                Some(Step::Moqt { fetch_id, .. })
                                | Some(Step::Race { fetch_id, .. })
                                if *fetch_id == Some(request_id)
                            )
                        })
                        .unwrap_or(false);
                    if current {
                        if let Some(object) = objects.first() {
                            if let Ok(msg) = crate::mapping::response_from_object(object) {
                                self.on_step_response(ctx, task_id, &msg, true);
                            }
                        }
                    }
                }
            }
            SessionEvent::FetchRejected { request_id, .. } => {
                if let Some(task_id) = self.fetch_waiters.remove(&(h, request_id)) {
                    self.on_step_timeout(ctx, task_id);
                }
            }
            SessionEvent::SubscribeAccepted { request_id, .. } => {
                if let Some(up) = self.up_subs.get(&(h, request_id)) {
                    self.live_tracks.insert(up.track.clone(), (h, request_id));
                }
            }
            SessionEvent::SubscribeRejected { request_id, .. } => {
                self.up_subs.remove(&(h, request_id));
            }
            SessionEvent::SubscriptionObject { request_id, object } => {
                self.on_upstream_push(ctx, h, request_id, object);
            }
            SessionEvent::SubscriptionEnded { request_id, .. } => {
                if let Some(up) = self.up_subs.remove(&(h, request_id)) {
                    self.live_tracks.remove(&up.track);
                }
            }
            // --- downstream (we are the publisher) ---
            SessionEvent::IncomingSubscribe { request_id, track } => {
                self.down_pending.entry((h, track)).or_default().sub_request = Some(request_id);
                self.try_serve_downstream(ctx, h);
            }
            SessionEvent::IncomingFetch { request_id, kind } => {
                let track = match kind {
                    IncomingFetchKind::StandAlone { track, .. } => track,
                    IncomingFetchKind::Joining { track, .. } => track,
                    IncomingFetchKind::Peer { track, .. } => track,
                };
                self.down_pending
                    .entry((h, track))
                    .or_default()
                    .fetch_request = Some(request_id);
                self.try_serve_downstream(ctx, h);
            }
            SessionEvent::PeerUnsubscribed { request_id } => {
                for subs in self.down_subs.values_mut() {
                    subs.retain(|&(hh, r)| !(hh == h && r == request_id));
                }
            }
            _ => {}
        }
    }

    /// An update pushed from an authoritative server: refresh the cache and
    /// fan out to downstream subscribers (the pub/sub payoff).
    fn on_upstream_push(
        &mut self,
        ctx: &mut Ctx<'_>,
        h: ConnHandle,
        request_id: u64,
        object: Object,
    ) {
        let Some(up) = self.up_subs.get(&(h, request_id)) else {
            return;
        };
        let question = up.question.clone();
        let Ok(msg) = crate::mapping::response_from_object(&object) else {
            return;
        };
        self.metrics.objects_received += 1;
        self.metrics.updates.push(UpdateSample {
            question: question.clone(),
            version: object.group_id,
            received: ctx.now(),
        });
        // Downstream the track has the *recursive* identity and carries the
        // upstream version through, so group ids stay consistent (§4.2) —
        // and a retransmitted older push must lose here as at any
        // subscriber: not cached, not served, not fanned out.
        let down_track =
            track_from_question(&question, RequestFlags::recursive()).expect("valid dns track");
        let held = self.versions.entry(down_track.clone()).or_default();
        if !held.admit_push(object.group_id) {
            self.metrics.stale_objects_dropped += 1;
            return;
        }
        // Refresh the cache with the pushed answers.
        if !msg.answers.is_empty() {
            self.cache.insert(
                ctx.now(),
                &question.qname,
                question.qtype,
                msg.answers.clone(),
            );
        }
        self.fingerprints.insert(
            down_track.clone(),
            (msg.header.rcode, canonical_answers(&msg.answers)),
        );
        let mut response = msg;
        response.header.ra = true;
        self.push_downstream(&down_track, &response, object.group_id);
    }

    /// Serves a downstream subscribe/fetch pair once both halves arrived.
    fn try_serve_downstream(&mut self, ctx: &mut Ctx<'_>, h: ConnHandle) {
        let ready: Vec<(FullTrackName, DownPending)> = self
            .down_pending
            .iter()
            .filter(|((hh, _), p)| *hh == h && p.fetch_request.is_some())
            .map(|((_, t), p)| {
                (
                    t.clone(),
                    DownPending {
                        sub_request: p.sub_request,
                        fetch_request: p.fetch_request,
                    },
                )
            })
            .collect();
        for (track, pending) in ready {
            self.down_pending.remove(&(h, track.clone()));
            let Ok((question, _flags)) = question_from_track(&track) else {
                if let Some((session, c)) = self.stack.session_conn(h) {
                    if let Some(fr) = pending.fetch_request {
                        session.reject_fetch(c, fr, 0x1, "malformed dns track");
                    }
                    if let Some(sr) = pending.sub_request {
                        session.reject_subscribe(c, sr, 0x1, "malformed dns track");
                    }
                }
                continue;
            };
            // Cache hit with live updates → serve immediately.
            let cached = self.cache.get(ctx.now(), &question.qname, question.qtype);
            let has_live = self
                .live_tracks
                .contains_key(&track_from_question(&question, RequestFlags::iterative()).unwrap())
                || self.polls.values().any(|(t, _)| {
                    *t == track_from_question(&question, RequestFlags::recursive()).unwrap()
                });
            if let (Some(CacheHit::Records(records)), true) = (&cached, has_live) {
                let version = self.version_of(&track).unwrap_or(1);
                let response = self.build_response(&question, Rcode::NoError, records, &None);
                let object = object_from_response(&response, version);
                if let Some((session, c)) = self.stack.session_conn(h) {
                    if let Some(fr) = pending.fetch_request {
                        session.respond_fetch(c, fr, (version, 0), vec![object.clone()]);
                    }
                    if let Some(sr) = pending.sub_request {
                        session.accept_subscribe(c, sr, Some((version, 0)));
                    }
                }
                if let Some(sr) = pending.sub_request {
                    self.down_subs
                        .entry(track.clone())
                        .or_default()
                        .push((h, sr));
                }
                self.tracker.touch(
                    &track_from_question(&question, RequestFlags::iterative()).unwrap(),
                    ctx.now(),
                );
                continue;
            }
            // Otherwise resolve upstream, then answer.
            self.start_or_join(
                ctx,
                question,
                Waiter::Moqt {
                    conn: h,
                    sub_request: pending.sub_request,
                    fetch_request: pending.fetch_request,
                    track,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Classic downstream + timers
    // ------------------------------------------------------------------

    fn on_classic_query(&mut self, ctx: &mut Ctx<'_>, from: Addr, data: &[u8]) {
        let Ok(query) = Message::decode(data) else {
            return;
        };
        let Some(q) = query.question().cloned() else {
            return;
        };
        match self.cache.get(ctx.now(), &q.qname, q.qtype) {
            Some(CacheHit::Records(records)) => {
                let mut resp = Message::response(query);
                resp.header.ra = true;
                resp.answers = records;
                ctx.send(DNS_PORT, from, resp.encode());
                self.metrics.lookups.push(LookupSample {
                    question: q,
                    started: ctx.now(),
                    finished: ctx.now(),
                    source: AnswerSource::Cache,
                    ok: true,
                    version: None,
                });
            }
            Some(CacheHit::Negative(rcode)) => {
                let mut resp = Message::response(query);
                resp.header.ra = true;
                resp.header.rcode = rcode;
                ctx.send(DNS_PORT, from, resp.encode());
            }
            None => {
                self.start_or_join(
                    ctx,
                    q,
                    Waiter::Classic {
                        from,
                        query_id: query.header.id,
                    },
                );
            }
        }
    }

    fn on_udp_timer(&mut self, ctx: &mut Ctx<'_>, task_id: u64) {
        let Some(task) = self.tasks.get_mut(&task_id) else {
            return;
        };
        let (server, action) = match &mut task.step {
            Some(Step::Race {
                server,
                exchange,
                udp_started,
                ..
            }) if !*udp_started => {
                // Grace elapsed without a MoQT answer: launch the UDP probe.
                *udp_started = true;
                (*server, exchange.start())
            }
            Some(Step::Udp { server, exchange })
            | Some(Step::Race {
                server, exchange, ..
            }) => (*server, exchange.on_timeout()),
            _ => return,
        };
        match action {
            UdpAction::Transmit { datagram, timeout } => {
                self.metrics.classic_queries_sent += 1;
                ctx.send(DNS_PORT, server, datagram);
                ctx.set_timer(timeout, K_UDP | task_id);
            }
            UdpAction::Failed => {
                // In a race, keep waiting for MoQT (its own timer fires
                // eventually); standalone UDP gives up this server.
                let race = matches!(task.step, Some(Step::Race { .. }));
                if !race {
                    self.on_step_timeout(ctx, task_id);
                }
            }
            _ => {}
        }
    }

    fn on_udp_response(&mut self, ctx: &mut Ctx<'_>, from: Addr, data: &[u8]) {
        // Find the task whose UDP step is waiting on this server.
        let task_id = self.tasks.iter_mut().find_map(|(id, t)| match &mut t.step {
            Some(Step::Udp { server, exchange })
            | Some(Step::Race {
                server, exchange, ..
            }) if *server == from => match exchange.on_datagram(data) {
                UdpAction::Complete(msg) => Some((*id, *msg)),
                _ => None,
            },
            _ => None,
        });
        if let Some((id, msg)) = task_id {
            self.metrics.classic_responses_received += 1;
            self.on_step_response(ctx, id, &msg, false);
        }
    }

    fn on_poll_timer(&mut self, ctx: &mut Ctx<'_>, poll_id: u64) {
        let Some((track, interval)) = self.polls.get(&poll_id).cloned() else {
            return;
        };
        // Stop polling tracks nobody subscribes to anymore.
        let has_subs = self
            .down_subs
            .get(&track)
            .map(|v| !v.is_empty())
            .unwrap_or(false);
        if !has_subs {
            self.polls.remove(&poll_id);
            return;
        }
        if let Ok((question, _)) = question_from_track(&track) {
            // Invalidate the cache entry so the poll actually re-queries.
            self.cache.remove(&question.qname, question.qtype);
            self.start_or_join(ctx, question, Waiter::Poll { track });
        }
        ctx.set_timer(interval, K_POLL | poll_id);
    }

    fn on_sweep(&mut self, ctx: &mut Ctx<'_>) {
        let victims = self.tracker.sweep(ctx.now());
        for track in victims {
            if let Some((conn, sub_id)) = self.live_tracks.remove(&track) {
                self.up_subs.remove(&(conn, sub_id));
                if let Some((session, c)) = self.stack.session_conn(conn) {
                    session.unsubscribe(c, sub_id);
                }
            }
        }
        if self.config.teardown != TeardownPolicy::Never {
            ctx.set_timer(self.config.sweep_interval, K_SWEEP);
        }
    }
}

/// Lexicographically ordered answer fingerprint (the paper's §2 method for
/// change detection, countering round-robin reordering).
fn canonical_answers(answers: &[Record]) -> Vec<String> {
    let mut v: Vec<String> = answers.iter().map(|r| r.to_string()).collect();
    v.sort();
    v
}

impl Node for RecursiveResolver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.config.teardown != TeardownPolicy::Never {
            ctx.set_timer(self.config.sweep_interval, K_SWEEP);
        }
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload) {
        match to_port {
            DNS_PORT => {
                // Could be a downstream query or an upstream response;
                // distinguish by the QR bit.
                if payload.len() > 2 && payload[2] & 0x80 != 0 {
                    self.on_udp_response(ctx, from, &payload);
                } else {
                    self.on_classic_query(ctx, from, &payload);
                }
            }
            MOQT_PORT => self.stack.on_datagram(ctx.now(), from, &payload),
            _ => {}
        }
        self.end_turn(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token & K_MASK {
            TOKEN_QUIC => self.stack.on_timer(ctx.now()),
            K_UDP => self.on_udp_timer(ctx, token & !K_MASK),
            K_STEP => self.on_step_timeout_token(ctx, token & !K_MASK),
            K_SWEEP => self.on_sweep(ctx),
            K_POLL => self.on_poll_timer(ctx, token & !K_MASK),
            _ => {}
        }
        self.end_turn(ctx);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

impl RecursiveResolver {
    fn on_step_timeout_token(&mut self, ctx: &mut Ctx<'_>, task_id: u64) {
        // Only meaningful if the task is still waiting on a MoQT step.
        let waiting_moqt = self
            .tasks
            .get(&task_id)
            .map(|t| matches!(t.step, Some(Step::Moqt { .. }) | Some(Step::Race { .. })))
            .unwrap_or(false);
        if waiting_moqt {
            self.on_step_timeout(ctx, task_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthServer;
    use crate::node_ip;
    use crate::stub::{StubMode, StubResolver};
    use moqdns_dns::name::Name;
    use moqdns_dns::rdata::RData;
    use moqdns_dns::rr::RecordType;
    use moqdns_dns::server::Authority;
    use moqdns_dns::zone::Zone;
    use moqdns_netsim::{LinkConfig, Simulator};
    use std::net::Ipv4Addr;

    /// A subscribed stub behind the recursive; upstream pushes version 3,
    /// then a retransmitted version 2: the cache, the version served to new
    /// subscribers and what the stub was sent all stay at 3.
    #[test]
    fn an_upstream_push_older_than_the_one_held_is_dropped() {
        let name: Name = "www.example.com".parse().unwrap();
        let question = Question::new(name.clone(), RecordType::A);
        let record = |last: u8| Record::new(name.clone(), 300, RData::A([192, 0, 2, last].into()));
        let mut sim = Simulator::new(5);
        sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));
        let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
        zone.add_record(record(1));
        let auth = AuthServer::new(Authority::single(zone), TransportConfig::default(), 1);
        let auth = sim.add_node("auth", Box::new(auth));
        let roots = vec![RootHint {
            name: "ns1.example.com".parse().unwrap(),
            addr: IpAddr::V4(node_ip(auth)),
        }];
        let config = RecursiveConfig::new(UpstreamMode::Moqt, roots, 2);
        let recursive = sim.add_node("recursive", Box::new(RecursiveResolver::new(config)));
        let stub = StubResolver::new(StubMode::Moqt, Addr::new(recursive, 0), 3);
        let stub = sim.add_node("stub", Box::new(stub));
        sim.with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, question.clone()));
        sim.run_for(Duration::from_secs(5));
        assert_eq!(sim.node_ref::<StubResolver>(stub).subscription_count(), 1);

        let down_track = track_from_question(&question, RequestFlags::recursive()).unwrap();
        sim.with_node::<RecursiveResolver, _>(recursive, |r, ctx| {
            let (&(h, request_id), _) = r.up_subs.iter().next().expect("subscribed upstream");
            let pushed = |version: u64| {
                let mut response = Message::response(Message::query(0, question.clone()));
                response.answers.push(record(version as u8));
                let object = object_from_response(&response, version);
                StackEvent::Session(h, SessionEvent::SubscriptionObject { request_id, object })
            };
            r.handle_events(ctx, vec![pushed(3), pushed(2)]);
            r.end_turn(ctx);
            assert_eq!(r.version_of(&down_track), Some(3));
            assert_eq!(r.metrics.stale_objects_dropped, 1);
            assert_eq!(r.metrics.objects_received, 2);
            let cached = r.cache.get(ctx.now(), &name, RecordType::A);
            let Some(CacheHit::Records(cached)) = cached else {
                panic!("the pushed answer is cached");
            };
            assert_eq!(cached[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 3)));
        });
        sim.run_for(Duration::from_secs(1));
        let stub = sim.node_ref::<StubResolver>(stub);
        let versions: Vec<u64> = stub.metrics.updates.iter().map(|u| u.version).collect();
        assert_eq!(versions, [3], "version 2 was not fanned out");
        assert_eq!(stub.answer(&question), Some(&[record(3)][..]));
    }
}
