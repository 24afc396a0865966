//! Classic DNS-over-UDP framing: one message per datagram, client-side
//! retransmission with exponential backoff, and a server-side helper.
//!
//! Sans-io like everything else: [`UdpExchange`] tells the driver what to
//! transmit and when to arm timers; the driver feeds datagrams and timeouts
//! back. This is the "traditional DNS" baseline the paper compares its
//! pub/sub variant against, and the fallback path for incremental
//! deployment (§4.5).

use crate::message::Message;
use crate::server::Authority;
use moqdns_wire::WireResult;
use std::time::Duration;

/// Default initial retransmission timeout.
pub const DEFAULT_RTO: Duration = Duration::from_millis(1000);
/// Default number of transmissions (1 original + 2 retries).
pub const DEFAULT_MAX_TRANSMISSIONS: u32 = 3;

/// Client-side state for one UDP query/response exchange.
#[derive(Debug, Clone)]
pub struct UdpExchange {
    query: Message,
    wire: Vec<u8>,
    rto: Duration,
    transmissions: u32,
    max_transmissions: u32,
    done: bool,
}

/// What the exchange wants the driver to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpAction {
    /// Transmit `datagram` now and arm a timer for `timeout` from now.
    Transmit {
        /// Encoded query bytes.
        datagram: Vec<u8>,
        /// Retransmission timeout to arm.
        timeout: Duration,
    },
    /// The exchange completed with a validated response.
    Complete(Box<Message>),
    /// The datagram did not match this exchange; keep waiting.
    Ignored(IgnoreReason),
    /// All transmissions exhausted without a response.
    Failed,
}

/// Why an inbound datagram was ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IgnoreReason {
    /// Could not be decoded as a DNS message.
    Undecodable,
    /// Transaction id mismatch (off-path injection or stale response).
    WrongId,
    /// Question section mismatch.
    WrongQuestion,
    /// Not a response (QR bit clear).
    NotAResponse,
    /// The exchange already completed.
    AlreadyDone,
}

impl UdpExchange {
    /// Creates an exchange for `query` with the default RTO policy.
    #[cfg(test)]
    pub fn new(query: Message) -> UdpExchange {
        UdpExchange::with_policy(query, DEFAULT_RTO, DEFAULT_MAX_TRANSMISSIONS)
    }

    /// Creates an exchange with explicit RTO and transmission budget.
    pub fn with_policy(query: Message, rto: Duration, max_transmissions: u32) -> UdpExchange {
        let wire = query.encode();
        UdpExchange {
            query,
            wire,
            rto,
            transmissions: 0,
            max_transmissions: max_transmissions.max(1),
            done: false,
        }
    }

    /// Number of datagrams transmitted so far.
    #[cfg(test)]
    pub fn transmissions(&self) -> u32 {
        self.transmissions
    }

    /// First transmission. Call once, immediately after construction.
    pub fn start(&mut self) -> UdpAction {
        self.transmit()
    }

    fn transmit(&mut self) -> UdpAction {
        if self.transmissions >= self.max_transmissions {
            self.done = true;
            return UdpAction::Failed;
        }
        self.transmissions += 1;
        // Exponential backoff: RTO, 2*RTO, 4*RTO, ...
        let timeout = self.rto * 2u32.pow(self.transmissions - 1);
        UdpAction::Transmit {
            datagram: self.wire.clone(),
            timeout,
        }
    }

    /// The armed retransmission timer fired.
    pub fn on_timeout(&mut self) -> UdpAction {
        if self.done {
            return UdpAction::Ignored(IgnoreReason::AlreadyDone);
        }
        self.transmit()
    }

    /// A datagram arrived from the queried server.
    pub fn on_datagram(&mut self, datagram: &[u8]) -> UdpAction {
        if self.done {
            return UdpAction::Ignored(IgnoreReason::AlreadyDone);
        }
        let Ok(msg) = Message::decode(datagram) else {
            return UdpAction::Ignored(IgnoreReason::Undecodable);
        };
        if !msg.header.qr {
            return UdpAction::Ignored(IgnoreReason::NotAResponse);
        }
        if msg.header.id != self.query.header.id {
            return UdpAction::Ignored(IgnoreReason::WrongId);
        }
        if msg.questions != self.query.questions {
            return UdpAction::Ignored(IgnoreReason::WrongQuestion);
        }
        self.done = true;
        UdpAction::Complete(Box::new(msg))
    }
}

/// Server-side: decodes a query datagram, answers from `auth`, returns the
/// encoded response (or `Err` for undecodable input, which servers drop).
pub fn serve_datagram(auth: &Authority, datagram: &[u8]) -> WireResult<Vec<u8>> {
    let query = Message::decode(datagram)?;
    let response = auth.answer(&query);
    Ok(response.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Question, Rcode};
    use crate::name::Name;
    use crate::rdata::RData;
    use crate::rr::{Record, RecordType};
    use crate::zone::Zone;
    use std::net::Ipv4Addr;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn query() -> Message {
        Message::query(0x42, Question::new(n("www.example.com"), RecordType::A))
    }

    fn authority() -> Authority {
        let mut z = Zone::with_default_soa(n("example.com"));
        z.add_record(Record::new(
            n("www.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        Authority::single(z)
    }

    #[test]
    fn happy_path_exchange() {
        let mut ex = UdpExchange::new(query());
        let UdpAction::Transmit { datagram, timeout } = ex.start() else {
            panic!()
        };
        assert_eq!(timeout, DEFAULT_RTO);
        let resp = serve_datagram(&authority(), &datagram).unwrap();
        match ex.on_datagram(&resp) {
            UdpAction::Complete(msg) => {
                assert_eq!(msg.header.rcode, Rcode::NoError);
                assert_eq!(msg.answers.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn retransmits_with_backoff_then_fails() {
        let mut ex = UdpExchange::with_policy(query(), Duration::from_millis(100), 3);
        let UdpAction::Transmit { timeout: t1, .. } = ex.start() else {
            panic!()
        };
        let UdpAction::Transmit { timeout: t2, .. } = ex.on_timeout() else {
            panic!()
        };
        let UdpAction::Transmit { timeout: t3, .. } = ex.on_timeout() else {
            panic!()
        };
        assert_eq!(t1, Duration::from_millis(100));
        assert_eq!(t2, Duration::from_millis(200));
        assert_eq!(t3, Duration::from_millis(400));
        assert_eq!(ex.on_timeout(), UdpAction::Failed);
        assert_eq!(ex.transmissions(), 3);
    }

    #[test]
    fn rejects_wrong_id() {
        let mut ex = UdpExchange::new(query());
        ex.start();
        let mut q2 = query();
        q2.header.id = 0x43;
        let resp = serve_datagram(&authority(), &q2.encode()).unwrap();
        assert_eq!(
            ex.on_datagram(&resp),
            UdpAction::Ignored(IgnoreReason::WrongId)
        );
    }

    #[test]
    fn rejects_wrong_question() {
        let mut ex = UdpExchange::new(query());
        ex.start();
        let mut other = Message::query(0x42, Question::new(n("evil.com"), RecordType::A));
        other.header.qr = true;
        assert_eq!(
            ex.on_datagram(&other.encode()),
            UdpAction::Ignored(IgnoreReason::WrongQuestion)
        );
    }

    #[test]
    fn rejects_non_response_and_garbage() {
        let mut ex = UdpExchange::new(query());
        ex.start();
        assert_eq!(
            ex.on_datagram(&query().encode()),
            UdpAction::Ignored(IgnoreReason::NotAResponse)
        );
        assert_eq!(
            ex.on_datagram(b"not dns"),
            UdpAction::Ignored(IgnoreReason::Undecodable)
        );
    }

    #[test]
    fn completed_exchange_ignores_everything() {
        let mut ex = UdpExchange::new(query());
        let UdpAction::Transmit { datagram, .. } = ex.start() else {
            panic!()
        };
        let resp = serve_datagram(&authority(), &datagram).unwrap();
        assert!(matches!(ex.on_datagram(&resp), UdpAction::Complete(_)));
        assert_eq!(
            ex.on_datagram(&resp),
            UdpAction::Ignored(IgnoreReason::AlreadyDone)
        );
        assert_eq!(
            ex.on_timeout(),
            UdpAction::Ignored(IgnoreReason::AlreadyDone)
        );
    }

    #[test]
    fn serve_datagram_rejects_garbage() {
        assert!(serve_datagram(&authority(), b"xx").is_err());
    }

    #[test]
    fn serve_datagram_answers_refused_out_of_zone() {
        let q = Message::query(1, Question::new(n("other.org"), RecordType::A));
        let resp = serve_datagram(&authority(), &q.encode()).unwrap();
        let msg = Message::decode(&resp).unwrap();
        assert_eq!(msg.header.rcode, Rcode::Refused);
    }
}
