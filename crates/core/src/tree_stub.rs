//! A bare MoQT subscriber leaf for relay-tree worlds and tests.

use crate::links::{Link, Newest};
use crate::mapping::{track_from_question, RequestFlags};
use crate::stack::{MoqtStack, StackEvent, StackNode};
use moqdns_dns::message::Question;
use moqdns_moqt::session::SessionEvent;
use moqdns_moqt::track::FullTrackName;
use moqdns_netsim::{Addr, Ctx, Node, Payload, SimTime};
use moqdns_quic::TransportConfig;
use std::any::Any;
use std::time::Duration;

/// A bare MoQT subscriber leaf for relay-tree worlds: connects to its
/// parent (an edge relay or server), subscribes to every question with a
/// joining fetch, and counts what arrives. Shared by the gated scenarios,
/// the relay ablations and the relay tests so each doesn't hand-roll its
/// own.
pub struct TreeStub {
    stack: MoqtStack,
    /// The link to the parent; its keys are question indices.
    link: Link<usize>,
    questions: Vec<Question>,
    /// Pushed updates received, total.
    pub updates: u64,
    /// Pushed updates received, per question index.
    pub updates_by_track: Vec<u64>,
    /// Joining fetches answered with at least one object.
    pub fetched: u64,
    /// Pushed updates whose group id did not advance past the highest
    /// version already seen on that track — a duplicate or out-of-order
    /// delivery. The chaos drills gate this at zero: a link flap or a
    /// redial must never replay an already-delivered version.
    pub regressions: u64,
    /// Sim time the most recent pushed update arrived (per-region
    /// delivery latency: remote regions lag by the inter-region delay).
    pub last_update_at: Option<SimTime>,
    /// Highest group id delivered per question index. Outlives the
    /// connection, so a post-redial replay of an old version still counts
    /// as a regression.
    newest: Vec<Newest>,
    /// When set, a lost connection re-dials after this delay instead of
    /// staying dark — the crash/restart drills need leaves that come
    /// back. `None` (the default, and what [`TreeStub::leave`] sets)
    /// keeps the historical never-reconnect behavior of every standing
    /// world.
    redial_delay: Option<Duration>,
}

/// The track a leaf asks its parent for `question` on.
fn track_of(question: &Question) -> FullTrackName {
    track_from_question(question, RequestFlags::iterative()).expect("valid dns track")
}

/// Timer token the stub uses for its own redial alarm (distinct from
/// anything the QUIC stack arms; stack timers tolerate spurious
/// wakeups, so the shared `on_timer` pump stays correct).
const TOKEN_STUB_REDIAL: u64 = 0x5EED_D1A1;

impl TreeStub {
    /// A stub that will subscribe to `questions` at `server`, with the
    /// historical long-idle transport (patient: a partition never kills
    /// the connection, QUIC retransmission drains it on heal).
    pub fn new(server: Addr, questions: Vec<Question>, seed: u64) -> TreeStub {
        TreeStub::with_transport(server, questions, seed, TransportConfig::patient())
    }

    /// A stub with an explicit transport config. The chaos drills use a
    /// short idle timeout so a dial into a crashed parent fails fast
    /// (PTO probes, then idle timeout, then the redial timer) instead of
    /// probing into the void for an hour. Its `max_streams` must equal
    /// the server's (`moqdns_quic::TransportConfig::max_streams`): it is
    /// never negotiated, each side assumes the other's.
    pub fn with_transport(
        server: Addr,
        questions: Vec<Question>,
        seed: u64,
        transport: TransportConfig,
    ) -> TreeStub {
        let n = questions.len();
        TreeStub {
            stack: MoqtStack::client(transport, seed),
            link: Link::new(server, false),
            questions,
            updates: 0,
            updates_by_track: vec![0; n],
            fetched: 0,
            regressions: 0,
            last_update_at: None,
            newest: vec![Newest::default(); n],
            redial_delay: None,
        }
    }

    /// Makes the stub re-dial its parent `delay` after a connection
    /// loss (and keep retrying at that cadence until it sticks).
    pub fn redial_after(mut self, delay: Duration) -> TreeStub {
        self.redial_delay = Some(delay);
        self
    }

    /// Times the stub re-dialed its parent after losing the connection
    /// (only when [`TreeStub::redial_after`] is configured).
    pub fn redials(&self) -> u64 {
        self.link.stats().redials
    }

    /// The stub goes offline: every connection closes (the
    /// CONNECTION_CLOSE lands at the relay, which tears the session and
    /// its subscriptions down) and it never reconnects. Used by the
    /// diurnal-wave drills — a departed stub must receive nothing more.
    pub fn leave(&mut self, ctx: &mut Ctx<'_>) {
        self.redial_delay = None;
        self.link.reset();
        self.stack.close_all(ctx, 0, "diurnal leave");
    }

    /// Issues a standalone FETCH for every group of question `i`'s track
    /// (a turn of its own). False when the parent cannot be reached.
    pub fn fetch(&mut self, ctx: &mut Ctx<'_>, i: usize) -> bool {
        let (track, groups) = (track_of(&self.questions[i]), (0, u64::MAX));
        let issued = self
            .link
            .fetch(ctx, &mut self.stack, track, groups, None, ());
        self.end_turn(ctx);
        issued
    }

    /// Subscribes every queued question with a joining fetch, connecting
    /// to the parent first if need be.
    fn subscribe_queued(&mut self, ctx: &mut Ctx<'_>) {
        let questions = &self.questions;
        let request = |&i: &usize| (track_of(&questions[i]), Some(()));
        self.link.replay(ctx, &mut self.stack, request);
    }
}

impl StackNode for TreeStub {
    fn stack(&mut self) -> &mut MoqtStack {
        &mut self.stack
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<StackEvent>) {
        let now = ctx.now();
        for e in events {
            match e {
                StackEvent::Session(h, SessionEvent::SubscriptionObject { request_id, object }) => {
                    self.updates += 1;
                    self.last_update_at = Some(now);
                    if let Some(&i) = self.link.key_of(h, request_id) {
                        self.updates_by_track[i] += 1;
                        if !self.newest[i].admit_push(object.group_id) {
                            self.regressions += 1;
                        }
                    }
                }
                StackEvent::Session(
                    h,
                    SessionEvent::FetchObjects {
                        request_id,
                        objects,
                    },
                ) => {
                    let mine = self.link.take_fetch(h, request_id).is_some();
                    self.fetched += u64::from(mine && !objects.is_empty());
                }
                StackEvent::Session(h, SessionEvent::FetchRejected { request_id, .. }) => {
                    self.link.take_fetch(h, request_id);
                }
                StackEvent::Closed(h) if self.link.owns(h) => {
                    let held = self.link.on_closed();
                    if let Some(delay) = self.redial_delay {
                        self.link.queue(held);
                        ctx.set_timer(delay, TOKEN_STUB_REDIAL);
                    }
                }
                _ => {}
            }
        }
    }
}

impl Node for TreeStub {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.link.queue(0..self.questions.len());
        self.subscribe_queued(ctx);
        self.end_turn(ctx);
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, d: Payload) {
        self.stack.on_datagram(ctx.now(), from, &d);
        self.end_turn(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: u64) {
        if let (TOKEN_STUB_REDIAL, None, Some(delay)) = (t, self.link.conn(), self.redial_delay) {
            if self.link.redial(ctx, &mut self.stack) {
                self.subscribe_queued(ctx);
            } else {
                // The dial itself failed (endpoint exhausted?): retry.
                ctx.set_timer(delay, TOKEN_STUB_REDIAL);
            }
        }
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
