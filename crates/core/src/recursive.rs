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
//!
//! # Upstream: one link per authority
//!
//! A MoQT step asks its server through one [`Link`] per server address;
//! one that holds the question already gets a plain FETCH. What a link
//! loses is recovered at once (§4.4). Downstream the resolver numbers
//! versions itself; the authority's numbering says what is news.
//!
//! It publishes as the origin does ([`crate::auth`]): a [`RelayCore`] with
//! no links, run by the relay's downstream half, holds the subscribers and
//! each track's answer, forwards what the resolver deems news and evicts a
//! stub that stops reading.

use crate::links::{Link, Lost, Newest, Subscribed};
use crate::mapping::{
    object_from_response, question_from_track, response_from_object, track_from_question,
    RequestFlags,
};
use crate::metrics::{AnswerSource, LookupSample, Metrics, UpdateSample};
use crate::relay_node::Downstream;
use crate::stack::{MoqtStack, StackEvent, StackNode, TOKEN_QUIC};
use crate::{ip_node, DNS_PORT, MOQT_PORT};
use moqdns_dns::cache::{Cache, CacheHit};
use moqdns_dns::message::{Message, Question, Rcode};
use moqdns_dns::resolver::{IterAction, Iterative, Resolution, RootHint};
use moqdns_dns::rr::Record;
use moqdns_dns::transport::{UdpAction, UdpExchange};
use moqdns_moqt::data::Object;
use moqdns_moqt::relay::{RelayAction, RelayCore, Route};
use moqdns_moqt::session::{IncomingFetchKind, SessionEvent};
use moqdns_moqt::track::FullTrackName;
use moqdns_moqt::Reason;
use moqdns_netsim::{Addr, Ctx, Node, Payload, SimTime};
use moqdns_quic::{ConnHandle, TransportConfig};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
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
    /// Provide downstream updates for classic-only records by re-polling
    /// at TTL intervals (§4.5).
    pub poll_proxy: bool,
    /// Root server hints.
    pub roots: Vec<RootHint>,
    /// QUIC transport tuning.
    pub transport: TransportConfig,
    /// RNG/cid seed.
    pub seed: u64,
    /// Give up on a MoQT step after this long (fall to the next server, or
    /// let UDP win the happy-eyeballs race).
    pub moqt_step_timeout: Duration,
    /// Initial retransmission timeout for upstream UDP queries. Raise for
    /// long-delay paths (deep space, E8).
    pub udp_rto: Duration,
}

impl RecursiveConfig {
    /// A sensible default configuration for `mode` with the given roots.
    pub fn new(mode: UpstreamMode, roots: Vec<RootHint>, seed: u64) -> RecursiveConfig {
        RecursiveConfig {
            mode,
            poll_proxy: false,
            roots,
            transport: TransportConfig::patient(),
            seed,
            moqt_step_timeout: Duration::from_secs(3),
            udp_rto: Duration::from_secs(1),
        }
    }
}

/// Cache capacity (record sets).
const CACHE_SIZE: usize = 100_000;

/// Happy-eyeballs grace: how long MoQT gets to answer before the UDP probe
/// is sent (preferring the subscription-capable transport, §4.5).
const HAPPY_EYEBALLS_GRACE: Duration = Duration::from_millis(250);

// Timer token namespaces (high byte).
const K_UDP: u64 = 2 << 56;
const K_STEP: u64 = 3 << 56;
const K_POLL: u64 = 5 << 56;
const K_MASK: u64 = 0xFF << 56;

/// Who is waiting for a resolution to finish.
enum Waiter {
    /// A classic UDP client: its answer echoes the query's id and question
    /// as asked (a task is joined by any case of its question).
    Classic { from: Addr, query: Message },
    /// A downstream MoQT fetch, with the subscription it joins, if any,
    /// or a subscription no fetch joined. The subscription is held under
    /// the track the resolver serves the question on, whatever flags the
    /// subscriber's track carried: news goes out on that one.
    Moqt {
        conn: ConnHandle,
        sub_request: Option<u64>,
        fetch_request: Option<u64>,
        track: FullTrackName,
    },
}

/// A MoQT step's fetch: its request id on the link to the step's server,
/// and the `K_STEP` timer that gives up on it.
struct StepFetch {
    id: u64,
    timer: u64,
}

/// The upstream transport state of one resolution step.
enum Step {
    Udp {
        server: Addr,
        exchange: UdpExchange,
        /// The armed `K_UDP` timer: the exchange's retransmit deadline.
        timer: Option<u64>,
    },
    Moqt(StepFetch),
    Race {
        server: Addr,
        exchange: UdpExchange,
        fetch: StepFetch,
        /// False until the grace period elapsed and the UDP probe flew.
        udp_started: bool,
        /// The armed `K_UDP` timer: the grace period, then the
        /// exchange's retransmit deadline.
        timer: Option<u64>,
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

/// What an upstream fetch's answer is for: the task whose step it is, or
/// `None`, a re-subscription's joining fetch bringing the track current.
type Awaiting = Option<u64>;

/// What the resolver serves on one downstream track.
#[derive(Default)]
struct Served {
    /// The version downstream last got: the resolver's own numbering,
    /// up with every change served, so a stub never sees it go back.
    version: u64,
    /// Its content (the paper's §2 lexicographic change detection).
    fingerprint: Option<(Rcode, Vec<String>)>,
    /// The authority's numbering (§4.2) on the subscription held now;
    /// a new one starts from nothing.
    upstream: Newest,
}

/// The track the resolver asks an authority for `question` on.
fn iterative_track(question: &Question) -> FullTrackName {
    track_from_question(question, RequestFlags::iterative()).expect("valid dns track")
}

/// The track the resolver serves `question` on.
fn recursive_track(question: &Question) -> FullTrackName {
    track_from_question(question, RequestFlags::recursive()).expect("valid dns track")
}

/// The recursive resolver node.
pub struct RecursiveResolver {
    config: RecursiveConfig,
    cache: Cache,
    stack: MoqtStack,
    tasks: BTreeMap<u64, Task>,
    next_task: u64,
    active_by_question: BTreeMap<Question, u64>,
    /// One link per authority, by its MoQT address.
    links: BTreeMap<Addr, Link<Question, Awaiting>>,
    /// Per downstream track: what was served.
    served: BTreeMap<FullTrackName, Served>,
    /// The downstream subscriptions: a core with no links, fed with news.
    core: RelayCore,
    /// What the node does for its subscribers' sessions.
    downstream: Downstream,
    /// Downstream SUBSCRIBEs waiting for their joining FETCH, within the
    /// turn that read them: the end of the turn answers the rest alone.
    down_pending: BTreeMap<(ConnHandle, FullTrackName), u64>,
    /// Poll-proxy entries: poll id -> (track, interval).
    polls: BTreeMap<u64, (FullTrackName, Duration)>,
    next_poll: u64,
    /// Raw measurements.
    pub metrics: Metrics,
}

impl RecursiveResolver {
    /// Creates a resolver node.
    pub fn new(config: RecursiveConfig) -> RecursiveResolver {
        let stack = MoqtStack::server(config.transport.clone(), config.seed);
        RecursiveResolver {
            cache: Cache::new(CACHE_SIZE),
            stack,
            tasks: BTreeMap::new(),
            next_task: 0,
            active_by_question: BTreeMap::new(),
            links: BTreeMap::new(),
            served: BTreeMap::new(),
            core: RelayCore::with_policy(0, Route::Static),
            downstream: Downstream::default(),
            down_pending: BTreeMap::new(),
            polls: BTreeMap::new(),
            next_poll: 0,
            metrics: Metrics::default(),
            config,
        }
    }

    /// The record cache (inspection).
    ///
    /// Kept public for: `crates/core/tests/full_chain.rs`, which checks that a
    /// second classic lookup was a cache hit at the recursive.
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Live upstream subscription count (§5.1 state overhead).
    pub fn upstream_subscription_count(&self) -> usize {
        self.links.values().map(Link::sub_count).sum()
    }

    /// Times an authority link redialed after losing its connection.
    pub fn redials(&self) -> u64 {
        self.links.values().map(|l| l.stats().redials).sum()
    }

    /// Live downstream subscriber count: its core's.
    ///
    /// Kept public for: `crates/core/tests/full_chain.rs` and
    /// `tests/pubsub_chain.rs`, which count the stubs subscribed at it.
    pub fn downstream_subscriber_count(&self) -> usize {
        self.core.subscriber_count()
    }

    /// Estimated protocol state bytes (E9), the core's included.
    pub fn state_size_estimate(&self) -> usize {
        self.stack.state_size_estimate()
            + self.core.state_size_estimate()
            + self.upstream_subscription_count() * 96
    }

    // ------------------------------------------------------------------
    // Resolution engine
    // ------------------------------------------------------------------

    /// Joins the resolution of `question` in flight, or starts one; a
    /// poll-proxy refresh waits on none.
    fn start_or_join(&mut self, ctx: &mut Ctx<'_>, question: Question, waiter: Option<Waiter>) {
        if let Some(&task_id) = self.active_by_question.get(&question) {
            if let Some(t) = self.tasks.get_mut(&task_id) {
                t.waiters.extend(waiter);
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
            waiters: waiter.into_iter().collect(),
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
            let mut timer = None;
            if racing {
                // §4.5 happy eyeballs with a preference for MoQT: give the
                // subscription-capable transport a head start.
                timer = Some(ctx.set_timer(HAPPY_EYEBALLS_GRACE, K_UDP | task_id));
            } else if let UdpAction::Transmit { datagram, timeout } = exchange.start() {
                self.metrics.counts.classic_queries_sent += 1;
                ctx.send(DNS_PORT, server_addr, datagram);
                timer = Some(ctx.set_timer(timeout, K_UDP | task_id));
            }
            Some((server_addr, exchange, timer))
        } else {
            None
        };

        let peer = Addr::new(node, MOQT_PORT);
        let moqt_part = use_moqt
            .then(|| self.issue_step(ctx, task_id, peer))
            .flatten();

        let step = match (udp_part, moqt_part) {
            (Some((server, exchange, timer)), None) => Step::Udp {
                server,
                exchange,
                timer,
            },
            (None, Some(fetch)) => Step::Moqt(fetch),
            (Some((server, exchange, timer)), Some(fetch)) => Step::Race {
                server,
                exchange,
                fetch,
                udp_started: false,
                timer,
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
    }

    /// Asks the server at `peer` for `task_id`'s question: SUBSCRIBE +
    /// joining FETCH, or a FETCH if the link holds the question already (a
    /// track subscribed twice gets every push twice), and arms the step's
    /// deadline. `None` when the server cannot be reached.
    fn issue_step(&mut self, ctx: &mut Ctx<'_>, task_id: u64, peer: Addr) -> Option<StepFetch> {
        // The task's question, whatever name a CNAME has the iterative
        // machine chase: every step asks it in our design.
        let question = self.tasks.get(&task_id)?.question.clone();
        let track = iterative_track(&question);
        let link = self.links.entry(peer).or_insert(Link::new(peer, true));
        let (stack, awaiting) = (&mut self.stack, Some(task_id));
        match link.subscribe(ctx, stack, &question, track.clone(), Some(awaiting)) {
            Subscribed::Issued(_) => {
                self.metrics.counts.subscribes_sent += 1;
                let served = self.served.entry(recursive_track(&question));
                served.or_default().upstream = Newest::default();
            }
            Subscribed::AlreadyHeld => {
                if !link.fetch(ctx, stack, track, (0, u64::MAX), None, awaiting) {
                    return None;
                }
            }
            Subscribed::Unreachable => return None,
        }
        self.metrics.counts.fetches_sent += 1;
        let id = link.fetching(|&a| a == awaiting)?;
        let timer = ctx.set_timer(self.config.moqt_step_timeout, K_STEP | task_id);
        Some(StepFetch { id, timer })
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
        let down_track = recursive_track(&task.question);
        let updates = ok && (task.answered_via_moqt || self.config.poll_proxy);
        let (version, moved) = self.bump_version_if_changed(&down_track, rcode, &answers);

        // The canonical response, as the object subscribers are sent.
        let response = self.build_response(&task.question, rcode, &answers, &soa);
        let object = object_from_response(&response, version);
        if moved {
            // Newest wins: the track's subscribers get it, a re-poll's too.
            let forwards = self.core.on_upstream_object(&down_track, object.clone());
            self.run_actions(forwards);
        }

        for waiter in task.waiters {
            match waiter {
                Waiter::Classic { from, query } => {
                    // The canonical response carries RD=1, CD=0: echo the
                    // asker's own (RFC 1035 §4.1.1, RFC 4035 §3.2.2).
                    let mut r = response.clone();
                    (r.header.id, r.questions) = (query.header.id, query.questions);
                    (r.header.rd, r.header.cd) = (query.header.rd, query.header.cd);
                    r.header.ra = true;
                    ctx.send(DNS_PORT, from, r.encode());
                }
                Waiter::Moqt {
                    conn,
                    sub_request,
                    fetch_request,
                    track,
                } => {
                    let accepted = sub_request.filter(|_| updates);
                    let sub = accepted.map(|sr| (sr, track.clone()));
                    self.serve(conn, fetch_request, sub, object.clone());
                    if accepted.is_some() && self.config.poll_proxy && !task.answered_via_moqt {
                        self.ensure_poll(ctx, &track, &answers);
                    }
                    let declined = sub_request.filter(|_| !updates);
                    if let Some(((session, c), sr)) = self.stack.session_conn(conn).zip(declined) {
                        // §4.5: decline the subscription, answer the fetch.
                        session.reject_subscribe(c, sr, 0x4, "updates unavailable for this record");
                    }
                }
            }
        }
    }

    /// Bumps the per-track version when the answer content changed:
    /// the version served, and whether it moved.
    fn bump_version_if_changed(
        &mut self,
        track: &FullTrackName,
        rcode: Rcode,
        answers: &[Record],
    ) -> (u64, bool) {
        let fingerprint = Some((rcode, canonical_answers(answers)));
        let served = self.served.entry(track.clone()).or_default();
        let changed = served.fingerprint != fingerprint;
        served.version = (served.version + u64::from(changed)).max(1);
        served.fingerprint = fingerprint;
        (served.version, changed)
    }

    /// Answers downstream FETCH `fetch`, if any, with `object`, then
    /// accepts the SUBSCRIBE, if any, through the core once the core holds
    /// `object`, so SUBSCRIBE_OK carries its version. Held as a fetch
    /// result is, it goes to no subscriber: one already on the track was
    /// sent this version. A session already gone is not subscribed: its
    /// close was handled, and nothing would end the subscription.
    fn serve(
        &mut self,
        h: ConnHandle,
        fetch: Option<u64>,
        sub: Option<(u64, FullTrackName)>,
        object: Object,
    ) {
        let mut actions = Vec::new();
        if let Some(request_id) = fetch {
            actions.push(RelayAction::ServeFetch {
                session: h.0,
                request_id,
                largest: (object.group_id, object.object_id),
                object: Some(object.clone()),
            });
        }
        if let Some((request_id, track)) = sub.filter(|_| self.stack.session(h).is_some()) {
            actions.extend(self.core.on_upstream_fetch_result(&track, vec![object]));
            actions.extend(self.core.on_downstream_subscribe(h.0, request_id, track));
        }
        self.run_actions(actions);
    }

    /// Runs the core's actions: with no links, each names a subscriber's.
    fn run_actions(&mut self, actions: Vec<RelayAction>) {
        for a in actions {
            self.downstream.run(&mut self.stack, &mut self.core, a);
        }
    }

    /// The latest version of `track` this resolver can serve downstream.
    fn version_of(&self, track: &FullTrackName) -> Option<u64> {
        self.served.get(track).map(|s| s.version).filter(|&v| v > 0)
    }

    /// The request id of the fetch `task_id`'s current step waits on.
    fn step_fetch(&self, task_id: u64) -> Option<u64> {
        match self.tasks.get(&task_id)?.step.as_ref()? {
            Step::Moqt(fetch) | Step::Race { fetch, .. } => Some(fetch.id),
            Step::Udp { .. } => None,
        }
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

    /// Ends `task_id`'s current step, forgetting its fetch if in flight (a
    /// fetch a link resolves to a task is always its current step's) and
    /// the deadlines that would give up on it or resend its UDP query.
    fn end_step(&mut self, ctx: &mut Ctx<'_>, task_id: u64) -> Option<&mut Task> {
        let task = self.tasks.get_mut(&task_id)?;
        let step = task.step.take();
        if let Some(Step::Udp { timer, .. } | Step::Race { timer, .. }) = &step {
            if let Some(timer) = *timer {
                ctx.cancel_timer(timer);
            }
        }
        if let Some(Step::Moqt(fetch) | Step::Race { fetch, .. }) = step {
            ctx.cancel_timer(fetch.timer);
            let awaiting = Some(task_id);
            for link in self.links.values_mut() {
                if let (Some(h), Some(id)) = (link.conn(), link.fetching(|&a| a == awaiting)) {
                    link.take_fetch(h, id);
                }
            }
        }
        Some(task)
    }

    fn on_step_response(&mut self, ctx: &mut Ctx<'_>, task_id: u64, msg: &Message, via_moqt: bool) {
        let Some(task) = self.end_step(ctx, task_id) else {
            return;
        };
        task.answered_via_moqt = via_moqt;
        let action = task.iter.on_response(msg);
        self.advance(ctx, task_id, action);
    }

    fn on_step_timeout(&mut self, ctx: &mut Ctx<'_>, task_id: u64) {
        let Some(task) = self.end_step(ctx, task_id) else {
            return;
        };
        let action = task.iter.on_timeout();
        self.advance(ctx, task_id, action);
    }

    /// The authority address and link whose connection `h` is.
    fn link_of(&mut self, h: ConnHandle) -> Option<(Addr, &mut Link<Question, Awaiting>)> {
        let mut links = self.links.iter_mut();
        links.find(|(_, l)| l.owns(h)).map(|(&peer, l)| (peer, l))
    }

    /// Recovers what the link to `peer` lost — its connection (`redial`),
    /// or a subscription the authority ended: a question downstream still
    /// holds is re-subscribed with a joining fetch, a step asked again. A
    /// lost connection is redialed at once (a dead authority costs a dial
    /// per idle timeout). Failing that, the question's subscribers get
    /// SUBSCRIBE_DONE (a stub re-subscribes on its next lookup) and each
    /// step times out.
    fn recover(
        &mut self,
        ctx: &mut Ctx<'_>,
        peer: Addr,
        lost: Lost<Question, Awaiting>,
        redial: bool,
    ) {
        let subscribed: BTreeSet<_> = self.core.subscribed_tracks().collect();
        let wanted = lost.held.into_iter();
        let wanted: Vec<Question> =
            (wanted.filter(|q| subscribed.contains(&recursive_track(q)))).collect();
        let steps: Vec<u64> = lost.fetches.into_iter().flatten().collect();
        let link = self.links.get_mut(&peer).expect("the link that lost them");
        if wanted.is_empty() && steps.is_empty() {
            return;
        }
        if redial && !link.redial(ctx, &mut self.stack).0 {
            for question in wanted {
                let ended = self.core.end_subscribers(&recursive_track(&question));
                for (session, request_id) in ended {
                    if let Some((session, c)) = self.stack.session_conn(ConnHandle(session)) {
                        let why = Reason::UpstreamUnavailable;
                        session.subscribe_done(c, request_id, 0x0, why.as_str());
                        self.stack.count(why);
                    }
                }
            }
            steps.into_iter().for_each(|t| self.on_step_timeout(ctx, t));
            return;
        }
        for question in &wanted {
            let served = self.served.entry(recursive_track(question));
            served.or_default().upstream = Newest::default();
        }
        link.queue(wanted);
        let request = |q: &Question| (iterative_track(q), Some(None));
        let issued = link.replay(ctx, &mut self.stack, request).len() as u64;
        self.metrics.counts.subscribes_sent += issued;
        self.metrics.counts.fetches_sent += issued;
        for task_id in steps {
            let Some(fetch) = self.issue_step(ctx, task_id, peer) else {
                self.on_step_timeout(ctx, task_id);
                continue;
            };
            // The fetch asked again gets a whole step's time: it dials first.
            let step = self.tasks.get_mut(&task_id).and_then(|t| t.step.as_mut());
            if let Some(Step::Moqt(asked) | Step::Race { fetch: asked, .. }) = step {
                ctx.cancel_timer(std::mem::replace(asked, fetch).timer);
            }
        }
    }
}

impl StackNode for RecursiveResolver {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        for ev in events {
            match ev {
                StackEvent::Session(h, sev) => self.handle_session_event(ctx, h, sev),
                StackEvent::Closed(h) => match self.link_of(h) {
                    Some((peer, link)) => {
                        let lost = link.on_closed();
                        self.recover(ctx, peer, lost, true);
                    }
                    None => {
                        let actions = self.core.on_session_closed(h.0);
                        self.run_actions(actions);
                        self.down_pending.retain(|(hh, _), _| *hh != h);
                    }
                },
                _ => {}
            }
        }
        // The turn's control messages are read: a SUBSCRIBE no joining
        // FETCH followed is answered on its own.
        for ((h, track), request_id) in std::mem::take(&mut self.down_pending) {
            self.serve_downstream(ctx, h, track, Some(request_id), None);
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
                let awaiting = self
                    .link_of(h)
                    .and_then(|(_, l)| l.take_fetch(h, request_id));
                let decoded = objects
                    .first()
                    .and_then(|o| Some((o.group_id, response_from_object(o).ok()?)));
                let Some((group_id, msg)) = decoded else {
                    return;
                };
                match awaiting {
                    // Not an answer to a step that ended meanwhile.
                    Some(Some(task)) if self.step_fetch(task) == Some(request_id) => {
                        self.on_step_response(ctx, task, &msg, true);
                    }
                    Some(None) => {
                        if let Some(question) = msg.question().cloned() {
                            self.on_upstream_object(ctx, &question, group_id, msg, false);
                        }
                    }
                    _ => {}
                }
            }
            SessionEvent::FetchRejected { request_id, .. } => {
                let awaiting = self
                    .link_of(h)
                    .and_then(|(_, l)| l.take_fetch(h, request_id));
                if let Some(Some(task_id)) = awaiting {
                    self.on_step_timeout(ctx, task_id);
                }
            }
            SessionEvent::SubscribeRejected { request_id, .. } => {
                if let Some((_, link)) = self.link_of(h) {
                    link.forget(h, request_id);
                }
            }
            SessionEvent::SubscriptionObject { request_id, object } => {
                let key = self
                    .link_of(h)
                    .and_then(|(_, l)| l.key_of(h, request_id).cloned());
                let (Some(question), Ok(msg)) = (key, response_from_object(&object)) else {
                    return;
                };
                self.metrics.counts.objects_received += 1;
                self.metrics.updates.push(UpdateSample {
                    question: question.clone(),
                    version: object.group_id,
                    received: ctx.now(),
                });
                self.on_upstream_object(ctx, &question, object.group_id, msg, true);
            }
            SessionEvent::SubscriptionEnded { request_id, .. } => {
                let ended = self
                    .link_of(h)
                    .and_then(|(peer, l)| Some((peer, l.forget(h, request_id)?)));
                if let Some((peer, question)) = ended {
                    let lost = Lost {
                        held: vec![question],
                        fetches: Vec::new(),
                    };
                    self.recover(ctx, peer, lost, false);
                }
            }
            // --- downstream (we are the publisher) ---
            SessionEvent::IncomingSubscribe { request_id, track } => {
                self.down_pending.insert((h, track), request_id);
            }
            // A pair is served when its FETCH arrives: a joining FETCH
            // follows its SUBSCRIBE on the control stream.
            SessionEvent::IncomingFetch { request_id, kind } => {
                let (IncomingFetchKind::StandAlone { track, .. }
                | IncomingFetchKind::Joining { track, .. }) = kind;
                let sub_request = self.down_pending.remove(&(h, track.clone()));
                self.serve_downstream(ctx, h, track, sub_request, Some(request_id));
            }
            SessionEvent::PeerUnsubscribed { request_id } => {
                let actions = self.core.on_downstream_unsubscribe(h.0, request_id);
                self.run_actions(actions);
            }
            _ => {}
        }
    }

    /// An object on the subscription held for `question`, pushed or the
    /// answer to a re-subscription's joining fetch. If it is news (a
    /// retransmitted older push is not, nor a fetch restating what was
    /// served), it is cached, held in the core and forwarded to the
    /// track's subscribers: the pub/sub payoff.
    fn on_upstream_object(
        &mut self,
        ctx: &mut Ctx<'_>,
        question: &Question,
        group_id: u64,
        mut msg: Message,
        pushed: bool,
    ) {
        let down_track = recursive_track(question);
        let served = self.served.entry(down_track.clone()).or_default();
        let fingerprint = (msg.header.rcode, canonical_answers(&msg.answers));
        let news = if pushed {
            served.upstream.admit_push(group_id)
        } else {
            served.upstream.admit_fetch(group_id)
                && served.fingerprint.as_ref() != Some(&fingerprint)
        };
        if !news {
            self.metrics.counts.stale_objects_dropped += u64::from(pushed);
            return;
        }
        // Downstream, the group id is carried through while the resolver's
        // own numbering is behind it (§4.2: group ids stay consistent).
        served.version = group_id.max(served.version + 1);
        served.fingerprint = Some(fingerprint);
        let version = served.version;
        if !msg.answers.is_empty() {
            self.cache.insert(
                ctx.now(),
                &question.qname,
                question.qtype,
                msg.answers.clone(),
            );
        }
        msg.header.ra = true;
        let object = object_from_response(&msg, version);
        let forwards = self.core.on_upstream_object(&down_track, object);
        self.run_actions(forwards);
    }

    /// Answers downstream FETCH `fetch_request` of `track`, if any, and
    /// accepts the SUBSCRIBE it joins, if any, or one no fetch joined:
    /// from the cache while something keeps it current, else once a
    /// resolution finished. The subscription is held under the track the
    /// resolver serves the question on ([`Waiter::Moqt`]).
    fn serve_downstream(
        &mut self,
        ctx: &mut Ctx<'_>,
        h: ConnHandle,
        track: FullTrackName,
        sub_request: Option<u64>,
        fetch_request: Option<u64>,
    ) {
        let Ok((question, _flags)) = question_from_track(&track) else {
            if let Some((session, c)) = self.stack.session_conn(h) {
                if let Some(fr) = fetch_request {
                    session.reject_fetch(c, fr, 0x1, "malformed dns track");
                }
                if let Some(sr) = sub_request {
                    session.reject_subscribe(c, sr, 0x1, "malformed dns track");
                }
            }
            return;
        };
        let cached = self.cache.get(ctx.now(), &question.qname, question.qtype);
        let track = recursive_track(&question);
        let has_live = self.links.values().any(|l| l.holds(&question).is_some())
            || self.polls.values().any(|(t, _)| *t == track);
        let (Some(CacheHit::Records(records)), true) = (cached, has_live) else {
            let waiter = Waiter::Moqt {
                conn: h,
                sub_request,
                fetch_request,
                track,
            };
            self.start_or_join(ctx, question, Some(waiter));
            return;
        };
        let version = self.version_of(&track).unwrap_or(1);
        let response = self.build_response(&question, Rcode::NoError, &records, &None);
        let object = object_from_response(&response, version);
        self.serve(h, fetch_request, sub_request.map(|sr| (sr, track)), object);
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
                self.start_or_join(ctx, q, Some(Waiter::Classic { from, query }));
            }
        }
    }

    fn on_udp_timer(&mut self, ctx: &mut Ctx<'_>, task_id: u64) {
        let Some(task) = self.tasks.get_mut(&task_id) else {
            return;
        };
        let (server, action, timer) = match &mut task.step {
            Some(Step::Race {
                server,
                exchange,
                udp_started,
                timer,
                ..
            }) if !*udp_started => {
                // Grace elapsed without a MoQT answer: launch the UDP probe.
                *udp_started = true;
                (*server, exchange.start(), timer)
            }
            Some(Step::Udp {
                server,
                exchange,
                timer,
            })
            | Some(Step::Race {
                server,
                exchange,
                timer,
                ..
            }) => (*server, exchange.on_timeout(), timer),
            _ => return,
        };
        // This was the step's timer: whatever comes next arms its own.
        *timer = None;
        match action {
            UdpAction::Transmit { datagram, timeout } => {
                self.metrics.counts.classic_queries_sent += 1;
                ctx.send(DNS_PORT, server, datagram);
                *timer = Some(ctx.set_timer(timeout, K_UDP | task_id));
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
            Some(Step::Udp {
                server, exchange, ..
            })
            | Some(Step::Race {
                server, exchange, ..
            }) if *server == from => match exchange.on_datagram(data) {
                UdpAction::Complete(msg) => Some((*id, *msg)),
                _ => None,
            },
            _ => None,
        });
        if let Some((id, msg)) = task_id {
            self.on_step_response(ctx, id, &msg, false);
        }
    }

    fn on_poll_timer(&mut self, ctx: &mut Ctx<'_>, poll_id: u64) {
        let Some((track, interval)) = self.polls.get(&poll_id).cloned() else {
            return;
        };
        // Stop polling tracks nobody subscribes to anymore.
        if !self.core.subscribed_tracks().any(|t| *t == track) {
            self.polls.remove(&poll_id);
            return;
        }
        if let Ok((question, _)) = question_from_track(&track) {
            // Invalidate the cache entry so the poll actually re-queries.
            self.cache.remove(&question.qname, question.qtype);
            self.start_or_join(ctx, question, None);
        }
        ctx.set_timer(interval, K_POLL | poll_id);
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
            // Only meaningful while the task waits on a MoQT step.
            K_STEP if self.step_fetch(token & !K_MASK).is_some() => {
                self.on_step_timeout(ctx, token & !K_MASK)
            }
            K_POLL => self.on_poll_timer(ctx, token & !K_MASK),
            _ => {}
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::SlowLorisNode;
    use crate::auth::AuthServer;
    use crate::node_ip;
    use crate::stub::{StubMode, StubResolver};
    use crate::teardown::TeardownPolicy;
    use moqdns_dns::name::Name;
    use moqdns_dns::rdata::RData;
    use moqdns_dns::rr::RecordType;
    use moqdns_dns::server::Authority;
    use moqdns_dns::zone::Zone;
    use moqdns_netsim::{LinkConfig, NodeId, Simulator};
    use std::net::Ipv4Addr;

    fn www() -> Name {
        "www.example.com".parse().unwrap()
    }

    /// `www.example.com` at `192.0.2.<last>`.
    fn record(ttl: u32, last: u8) -> Record {
        Record::new(www(), ttl, RData::A([192, 0, 2, last].into()))
    }

    /// An authority that is also the root, holding [`record`] (`ttl`, 1);
    /// the recursive; and `stubs` MoQT stubs behind it.
    fn world(ttl: u32, stubs: usize) -> (Simulator, NodeId, NodeId, Vec<NodeId>) {
        world_over(UpstreamMode::Moqt, ttl, stubs)
    }

    /// [`world`], the recursive asking upstream over `mode`.
    fn world_over(
        mode: UpstreamMode,
        ttl: u32,
        stubs: usize,
    ) -> (Simulator, NodeId, NodeId, Vec<NodeId>) {
        let mut sim = Simulator::new(5);
        sim.set_default_link(LinkConfig::with_delay(Duration::from_millis(10)));
        let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
        zone.add_record(record(ttl, 1));
        let auth = AuthServer::new(Authority::single(zone), TransportConfig::default(), 1);
        let auth = sim.add_node("auth", Box::new(auth));
        let roots = vec![RootHint {
            name: "ns1.example.com".parse().unwrap(),
            addr: IpAddr::V4(node_ip(auth)),
        }];
        let config = RecursiveConfig::new(mode, roots, 2);
        let recursive = sim.add_node("recursive", Box::new(RecursiveResolver::new(config)));
        let stubs = (0..stubs)
            .map(|i| {
                let stub = StubResolver::new(StubMode::Moqt, Addr::new(recursive, 0), 3 + i as u64);
                sim.add_node(format!("stub{i}"), Box::new(stub))
            })
            .collect();
        (sim, auth, recursive, stubs)
    }

    /// A subscribed stub behind the recursive; upstream pushes version 3,
    /// then a retransmitted version 2: the cache, the version served to new
    /// subscribers and what the stub was sent all stay at 3.
    #[test]
    fn an_upstream_push_older_than_the_one_held_is_dropped() {
        let question = Question::new(www(), RecordType::A);
        let (mut sim, _, recursive, stubs) = world(300, 1);
        let stub = stubs[0];
        sim.with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, question.clone()));
        sim.run_for(Duration::from_secs(5));
        assert_eq!(sim.node_ref::<StubResolver>(stub).subscription_count(), 1);

        let down_track = track_from_question(&question, RequestFlags::recursive()).unwrap();
        sim.with_node::<RecursiveResolver, _>(recursive, |r, ctx| {
            let held = r
                .links
                .values()
                .find_map(|l| Some((l.conn()?, l.holds(&question)?)));
            let (h, request_id) = held.expect("subscribed upstream");
            let pushed = |version: u64| {
                let mut response = Message::response(Message::query(0, question.clone()));
                response.answers.push(record(300, version as u8));
                let object = object_from_response(&response, version);
                StackEvent::Session(h, SessionEvent::SubscriptionObject { request_id, object })
            };
            r.handle_events(ctx, vec![pushed(3), pushed(2)]);
            r.end_turn(ctx);
            assert_eq!(r.version_of(&down_track), Some(3));
            assert_eq!(r.metrics.counts.stale_objects_dropped, 1);
            assert_eq!(r.metrics.counts.objects_received, 2);
            let cached = r.cache.get(ctx.now(), &www(), RecordType::A);
            let Some(CacheHit::Records(cached)) = cached else {
                panic!("the pushed answer is cached");
            };
            assert_eq!(cached[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 3)));
        });
        sim.run_for(Duration::from_secs(1));
        let stub = sim.node_ref::<StubResolver>(stub);
        let versions: Vec<u64> = stub.metrics.updates.iter().map(|u| u.version).collect();
        assert_eq!(versions, [3], "version 2 was not fanned out");
        assert_eq!(stub.answer(&question), Some(&[record(300, 3)][..]));
    }

    /// A second stub asks after the cached answer expired: the re-resolution
    /// asks the authority, which still holds the question's subscription,
    /// with a standalone FETCH — not a second SUBSCRIBE, whose pushes would
    /// all arrive twice.
    #[test]
    fn a_re_resolution_fetches_on_the_subscription_held() {
        let question = Question::new(www(), RecordType::A);
        let (mut sim, auth, recursive, stubs) = world(5, 2);
        for stub in stubs {
            sim.with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, question.clone()));
            sim.run_for(Duration::from_secs(10));
            let lookups = &sim.node_ref::<StubResolver>(stub).metrics.lookups;
            assert!(lookups.len() == 1 && lookups[0].ok);
        }
        let auth = sim.node_ref::<AuthServer>(auth);
        assert_eq!(auth.subscription_count(), 1, "one subscription per track");
        assert_eq!(auth.stats().fetch_cache_hits, 2);
        let r = sim.node_ref::<RecursiveResolver>(recursive);
        assert_eq!(
            (
                r.metrics.counts.subscribes_sent,
                r.metrics.counts.fetches_sent
            ),
            (1, 2)
        );
        assert_eq!(r.upstream_subscription_count(), 1);
    }

    /// The authority's answers are lost until just before the step's
    /// deadline, when it closes the connection: the step is asked again on
    /// the redialed link, with a deadline of its own, and answered.
    #[test]
    fn a_step_asked_again_after_its_connection_closed_gets_a_whole_window() {
        let question = Question::new(www(), RecordType::A);
        let (mut sim, auth, recursive, stubs) = world(300, 1);
        let link = LinkConfig::with_delay(Duration::from_millis(10));
        sim.set_link_directed(auth, recursive, link.loss(1.0));
        sim.with_node::<StubResolver, _>(stubs[0], |s, ctx| s.lookup(ctx, question.clone()));
        sim.run_for(Duration::from_millis(2_990));
        sim.set_link_directed(auth, recursive, link);
        sim.with_node::<AuthServer, _>(auth, |a, ctx| {
            a.stack().close_all(ctx, 0, "restart");
            a.end_turn(ctx);
        });
        sim.run_for(Duration::from_secs(5));
        let r = sim.node_ref::<RecursiveResolver>(recursive);
        assert_eq!(r.redials(), 1);
        let [lookup] = &r.metrics.lookups[..] else {
            panic!("one resolution: {:?}", r.metrics.lookups);
        };
        assert!(lookup.ok, "answered, not timed out");
        assert!(
            lookup.finished > SimTime::from_secs(3),
            "after the first deadline"
        );
        let stub = sim.node_ref::<StubResolver>(stubs[0]);
        assert_eq!(stub.answer(&question), Some(&[record(300, 1)][..]));
    }

    /// A classic client that records what it is sent.
    #[derive(Default)]
    struct UdpClient {
        replies: Vec<Message>,
    }

    impl Node for UdpClient {
        fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, _from: Addr, _to: u16, data: Payload) {
            self.replies.extend(Message::decode(&data));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&mut self) -> &mut dyn Any {
            self
        }
        fn as_any_ref(&self) -> &dyn Any {
            self
        }
    }

    /// Two classic clients ask for one name in two cases while one
    /// resolution runs: the second joins the first's task, and each is
    /// answered with the question as it asked it (the 0x20 echo).
    #[test]
    fn a_joined_classic_query_echoes_its_own_question() {
        let (mut sim, _, recursive, _) = world(300, 0);
        let asked = ["www.EXAMPLE.com", "WWW.example.COM"].map(|name| {
            let question = Question::new(name.parse().unwrap(), RecordType::A);
            let client = sim.add_node(name, Box::new(UdpClient::default()));
            sim.with_node::<UdpClient, _>(client, |_, ctx| {
                let query = Message::query(7, question.clone());
                ctx.send(DNS_PORT, Addr::new(recursive, DNS_PORT), query.encode());
            });
            (client, question)
        });
        sim.run_for(Duration::from_secs(5));

        let r = sim.node_ref::<RecursiveResolver>(recursive);
        assert_eq!(r.metrics.lookups.len(), 1, "one resolution for both");
        for (client, question) in asked {
            let replies = &sim.node_ref::<UdpClient>(client).replies;
            let [reply] = &replies[..] else {
                panic!("one answer each: {replies:?}");
            };
            assert_eq!(reply.answers, [record(300, 1)]);
            let echoed = &reply.question().expect("a question").qname;
            assert_eq!(echoed.as_wire(), question.qname.as_wire());
        }
    }

    /// Every classic answer echoes its query's id and its question as
    /// asked, 0x20 case included, on each path: a resolution's answer, a
    /// resolution's NXDOMAIN, then the same two from the cache.
    #[test]
    fn every_classic_answer_echoes_the_querys_id_and_question() {
        let (mut sim, _, recursive, _) = world(300, 0);
        let client = sim.add_node("client", Box::new(UdpClient::default()));
        let to = Addr::new(recursive, DNS_PORT);
        let ask = |sim: &mut Simulator, id: u16, name: &str| {
            let query = Message::query(id, Question::new(name.parse().unwrap(), RecordType::A));
            sim.with_node::<UdpClient, _>(client, |_, ctx| ctx.send(DNS_PORT, to, query.encode()));
            (id, query)
        };
        let mut asked = vec![
            ask(&mut sim, 0x0101, "www.EXAMPLE.com"),
            ask(&mut sim, 0x0202, "nOnE.example.com"),
        ];
        sim.run_for(Duration::from_secs(5));
        asked.push(ask(&mut sim, 0x0303, "WwW.eXaMpLe.CoM"));
        asked.push(ask(&mut sim, 0x0404, "NONE.EXAMPLE.COM"));
        sim.run_for(Duration::from_secs(1));

        let r = sim.node_ref::<RecursiveResolver>(recursive);
        assert_eq!(r.metrics.lookups.len(), 3, "two resolutions, one cache hit");
        let replies = &sim.node_ref::<UdpClient>(client).replies;
        assert_eq!(replies.len(), 4, "{replies:?}");
        for (id, query) in asked {
            let reply = replies.iter().find(|m| m.header.id == id);
            let reply = reply.unwrap_or_else(|| panic!("no reply with id {id:#06x}"));
            assert_eq!(reply.questions.len(), 1, "{id:#06x}");
            let (echoed, asked) = (&reply.questions[0], &query.questions[0]);
            assert_eq!(echoed.qname.as_wire(), asked.qname.as_wire(), "{id:#06x}");
            assert_eq!((echoed.qtype, echoed.qclass), (asked.qtype, asked.qclass));
            let (rcode, answers) = match id {
                0x0101 | 0x0303 => (Rcode::NoError, vec![record(300, 1).rdata]),
                _ => (Rcode::NxDomain, Vec::new()),
            };
            let got: Vec<RData> = reply.answers.iter().map(|r| r.rdata.clone()).collect();
            assert_eq!((reply.header.rcode, got), (rcode, answers), "{id:#06x}");
        }
    }

    /// Every classic answer echoes its query's RD and CD bits, under all
    /// four combinations, with RA set: a resolution's answer and its
    /// NXDOMAIN, then the same two from the cache and the negative cache.
    #[test]
    fn every_classic_answer_echoes_rd_and_cd() {
        for (rd, cd) in [(false, false), (false, true), (true, false), (true, true)] {
            let (mut sim, _, recursive, _) = world(300, 0);
            let client = sim.add_node("client", Box::new(UdpClient::default()));
            let to = Addr::new(recursive, DNS_PORT);
            let ask = |sim: &mut Simulator, id: u16, name: &str| {
                let question = Question::new(name.parse().unwrap(), RecordType::A);
                let mut query = Message::query(id, question);
                (query.header.rd, query.header.cd) = (rd, cd);
                sim.with_node::<UdpClient, _>(client, |_, ctx| {
                    ctx.send(DNS_PORT, to, query.encode())
                });
            };
            ask(&mut sim, 1, "www.example.com");
            ask(&mut sim, 2, "none.example.com");
            sim.run_for(Duration::from_secs(5));
            ask(&mut sim, 3, "www.example.com");
            ask(&mut sim, 4, "none.example.com");
            sim.run_for(Duration::from_secs(1));

            let r = sim.node_ref::<RecursiveResolver>(recursive);
            assert_eq!(r.metrics.lookups.len(), 3, "two resolutions, one cache hit");
            let replies = &sim.node_ref::<UdpClient>(client).replies;
            let mut ids: Vec<u16> = replies.iter().map(|m| m.header.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, [1, 2, 3, 4], "{replies:?}");
            for reply in replies {
                let h = &reply.header;
                let what = format!("reply {} to RD={rd} CD={cd}", h.id);
                assert_eq!((h.rd, h.cd, h.ra), (rd, cd, true), "{what}");
                let nx = h.id % 2 == 0;
                let rcode = if nx { Rcode::NxDomain } else { Rcode::NoError };
                assert_eq!(h.rcode, rcode, "{what}");
            }
        }
    }

    /// The recursive runs the relay's downstream half. A stub and a slow
    /// loris subscribe at it — the loris with a lone SUBSCRIBE on the
    /// iterative track, then silence, so it acknowledges nothing — while
    /// the authority changes the record 63 times, 20 ms apart. The loris
    /// is evicted over the (lowered) backlog bound, counted once, and what
    /// it made the recursive hold is given back; the honest stub keeps its
    /// session and is sent every version, ending at the newest.
    #[test]
    fn the_recursive_evicts_a_slow_loris_and_keeps_an_honest_subscriber() {
        let question = Question::new(www(), RecordType::A);
        let (mut sim, auth, recursive, stubs) = world(300, 1);
        let honest = stubs[0];
        sim.with_node::<RecursiveResolver, _>(recursive, |r, _| {
            r.downstream.max_session_backlog = 4 * 1024;
        });
        sim.with_node::<StubResolver, _>(honest, |s, ctx| s.lookup(ctx, question.clone()));
        let target = Addr::new(recursive, MOQT_PORT);
        let loris = SlowLorisNode::new(target, vec![question.clone()], 7);
        let loris = sim.add_node("loris", Box::new(loris));
        sim.run_for(Duration::from_secs(1));
        assert!(sim.node_ref::<SlowLorisNode>(loris).blackholed);
        let r = sim.node_ref::<RecursiveResolver>(recursive);
        assert_eq!(r.downstream_subscriber_count(), 2);
        let mut peak = 0;
        for octet in 2..=64u8 {
            sim.with_node::<AuthServer, _>(auth, |a, ctx| {
                a.update_zone(ctx, |authority| {
                    let zone = authority.find_zone_mut(&www()).unwrap();
                    zone.set_records(&www(), RecordType::A, vec![record(300, octet)]);
                });
            });
            sim.run_for(Duration::from_millis(20));
            peak = peak.max(
                sim.node_ref::<RecursiveResolver>(recursive)
                    .state_size_estimate(),
            );
        }
        sim.run_for(Duration::from_secs(5));

        let r = sim.node_ref::<RecursiveResolver>(recursive);
        assert_eq!(r.core.stats().evicted_sessions, 1);
        let reasons = r.stack.reason_counts();
        assert_eq!(reasons[Reason::SessionBacklogExceeded], 1, "{reasons:?}");
        assert_eq!(r.downstream_subscriber_count(), 1);
        let after = r.state_size_estimate();
        assert!(after < peak, "after {after}, peak {peak}");
        let newest = r.version_of(&recursive_track(&question));
        let stub = sim.node_ref::<StubResolver>(honest);
        assert_eq!(stub.subscription_count(), 1);
        let versions: Vec<u64> = stub.metrics.updates.iter().map(|u| u.version).collect();
        assert_eq!(versions.len(), 63, "{versions:?}");
        assert!(versions.windows(2).all(|w| w[0] < w[1]), "{versions:?}");
        assert_eq!(versions.last().copied(), newest);
        assert_eq!(stub.answer(&question), Some(&[record(300, 64)][..]));
    }

    /// A MoQT client that subscribes to one track once its session is
    /// ready — with a joining FETCH or alone — and keeps every session
    /// event it is raised.
    struct Subscriber {
        stack: MoqtStack,
        target: Addr,
        track: FullTrackName,
        joining_fetch: bool,
        events: Vec<SessionEvent>,
    }

    impl Subscriber {
        fn new(target: Addr, track: FullTrackName, joining_fetch: bool) -> Subscriber {
            Subscriber {
                stack: MoqtStack::client(TransportConfig::default(), 9),
                target,
                track,
                joining_fetch,
                events: Vec::new(),
            }
        }

        /// The answers pushed on its subscription, oldest first.
        fn pushed(&self) -> Vec<Vec<Record>> {
            let objects = self.events.iter().filter_map(|ev| match ev {
                SessionEvent::SubscriptionObject { object, .. } => Some(object),
                _ => None,
            });
            let answers = objects.map(|o| response_from_object(o).expect("a DNS answer").answers);
            answers.collect()
        }
    }

    impl StackNode for Subscriber {
        fn stack(&mut self) -> &mut MoqtStack {
            &mut self.stack
        }

        fn handle_events(&mut self, _ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
            for ev in events {
                let StackEvent::Session(h, ev) = ev else {
                    continue;
                };
                if matches!(ev, SessionEvent::Ready { .. }) {
                    let (session, conn) = self.stack.session_conn(h).expect("a live session");
                    let track = self.track.clone();
                    if self.joining_fetch {
                        session.subscribe_with_joining_fetch(conn, track, 1);
                    } else {
                        session.subscribe(conn, track);
                    }
                }
                self.events.push(ev);
            }
        }
    }

    impl Node for Subscriber {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.stack.connect(ctx.now(), self.target, false);
            self.end_turn(ctx);
        }
        fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, data: Payload) {
            self.stack.on_datagram(ctx.now(), from, &data);
            self.end_turn(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
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

    /// A subscription on a track whose flags are not the resolver's own
    /// (RD=0, or CD=1), with its joining FETCH or with none, is accepted
    /// once the question resolves and is sent the next change: news goes
    /// out on the track the resolver serves, and the subscription is held
    /// there. (A SUBSCRIBE no FETCH followed was left unanswered, and one
    /// on the iterative track was accepted and never sent anything.)
    #[test]
    fn a_subscriber_on_any_flags_is_answered_and_sent_the_next_change() {
        let question = Question::new(www(), RecordType::A);
        let flags = |rd, cd| RequestFlags {
            rd,
            cd,
            ..RequestFlags::recursive()
        };
        for (what, flags, joining_fetch) in [
            ("RD=0 with its FETCH", flags(false, false), true),
            ("RD=0 alone", flags(false, false), false),
            ("CD=1 alone", flags(true, true), false),
            ("RD=1 alone", flags(true, false), false),
        ] {
            let (mut sim, auth, recursive, _) = world(300, 0);
            let track = track_from_question(&question, flags).unwrap();
            let node = Subscriber::new(Addr::new(recursive, MOQT_PORT), track, joining_fetch);
            let node = sim.add_node("subscriber", Box::new(node));
            sim.run_for(Duration::from_secs(1));
            let events = &sim.node_ref::<Subscriber>(node).events;
            assert!(
                events.iter().any(|ev| matches!(
                    ev,
                    SessionEvent::SubscribeAccepted {
                        largest: Some((1, 0)),
                        ..
                    }
                )),
                "{what}: {events:?}"
            );
            sim.with_node::<AuthServer, _>(auth, |a, ctx| {
                a.update_zone(ctx, |authority| {
                    let zone = authority.find_zone_mut(&www()).unwrap();
                    zone.set_records(&www(), RecordType::A, vec![record(300, 2)]);
                });
            });
            sim.run_for(Duration::from_secs(1));
            let pushed = sim.node_ref::<Subscriber>(node).pushed();
            assert_eq!(pushed, [vec![record(300, 2)]], "{what}");
            let r = sim.node_ref::<RecursiveResolver>(recursive);
            assert_eq!(r.downstream_subscriber_count(), 1, "{what}");
        }
    }

    /// A lone SUBSCRIBE at a resolver that asks upstream over classic DNS
    /// only, which cannot keep the answer current, is refused once the
    /// question resolves: SUBSCRIBE_ERROR, not silence.
    #[test]
    fn a_lone_subscribe_the_resolver_cannot_keep_current_is_refused() {
        let question = Question::new(www(), RecordType::A);
        let (mut sim, _, recursive, _) = world_over(UpstreamMode::Classic, 300, 0);
        let track = recursive_track(&question);
        let node = Subscriber::new(Addr::new(recursive, MOQT_PORT), track, false);
        let node = sim.add_node("subscriber", Box::new(node));
        sim.run_for(Duration::from_secs(2));
        let events = &sim.node_ref::<Subscriber>(node).events;
        assert!(
            events
                .iter()
                .any(|ev| matches!(ev, SessionEvent::SubscribeRejected { code: 0x4, .. })),
            "{events:?}"
        );
        let r = sim.node_ref::<RecursiveResolver>(recursive);
        assert_eq!(r.metrics.lookups.len(), 1, "resolved once");
        assert_eq!(r.downstream_subscriber_count(), 0);
    }

    /// A stub that unsubscribes (its idle subscription swept), one whose
    /// connection closes, and one whose connection closes while its
    /// lookup is being resolved each leave the recursive's core as it
    /// started: no subscriber and no track entry.
    #[test]
    fn a_subscriber_that_leaves_leaves_no_track_behind() {
        let question = Question::new(www(), RecordType::A);
        let empty = RelayCore::with_policy(0, Route::Static).state_size_estimate();
        let idle = TeardownPolicy::IdleTimeout(Duration::from_secs(30));
        for (leaves, after_ms) in [
            ("unsubscribes", 1_000),
            ("closes", 1_000),
            ("closes early", 25),
        ] {
            let (mut sim, _, recursive, _) = world(300, 0);
            let policy = if leaves == "unsubscribes" {
                idle
            } else {
                TeardownPolicy::Never
            };
            let stub =
                StubResolver::with_policy(StubMode::Moqt, Addr::new(recursive, 0), 3, policy);
            let stub = sim.add_node("stub", Box::new(stub));
            sim.with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, question.clone()));
            sim.run_for(Duration::from_millis(after_ms));
            let r = sim.node_ref::<RecursiveResolver>(recursive);
            let answered = usize::from(leaves != "closes early");
            assert_eq!(r.metrics.lookups.len(), answered, "{leaves}");
            assert_eq!(r.downstream_subscriber_count(), answered, "{leaves}");
            if leaves == "unsubscribes" {
                // The stub's sweep runs a minute after it started.
                sim.run_for(Duration::from_secs(60));
                assert_eq!(sim.node_ref::<StubResolver>(stub).subscription_count(), 0);
            } else {
                sim.with_node::<StubResolver, _>(stub, |s, ctx| {
                    s.stack().close_all(ctx, 0, "bye");
                    s.end_turn(ctx);
                });
                sim.run_for(Duration::from_secs(1));
            }
            let r = sim.node_ref::<RecursiveResolver>(recursive);
            assert_eq!(r.metrics.lookups.len(), 1, "{leaves}: resolved");
            assert_eq!(r.core.subscriber_count(), 0, "{leaves}");
            assert_eq!(
                r.core.state_size_estimate(),
                empty,
                "{leaves}: no track entry"
            );
        }
    }
}
