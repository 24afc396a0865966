//! The simulated handshake ("TLS-shaped, crypto-free").
//!
//! The flights mirror TLS 1.3 over QUIC closely enough that every latency
//! property the paper reasons about is preserved:
//!
//! * fresh connection: `ClientHello` → `ServerHello` (+ ticket) — the
//!   client can send application data only after one round trip;
//! * resumption: the client presents a [`Ticket`] in its `ClientHello` and
//!   may send 0-RTT packets in the same flight; the server accepts early
//!   data only on a ticket it issued, presented for the token it selects
//!   (RFC 8446 §4.2.10), and rejects it otherwise;
//! * ALPN: the client offers protocols, the server selects one (or fails
//!   the handshake). DNS-over-MoQT's future "version negotiation in ALPN"
//!   optimization (§5.2) is modelled by putting the MoQT version into the
//!   ALPN string.
//!
//! Messages ride in CRYPTO frames, encoded with the same varint toolbox as
//! everything else.

use crate::connection::Alpn;
use moqdns_wire::{varint, Reader, WireError, WireResult, Writer};

/// A resumption ticket: 16 bytes, the issuing server's nonce and the id
/// of the connection it was issued on (deviation 11). A client presents
/// it for the ALPN token it resumes under: the token is folded into the
/// nonce half ([`Ticket::presented`]), so a server that selects another
/// token reads a nonce it never issued and rejects the early data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ticket(pub Vec<u8>);

impl Ticket {
    /// The ticket a server with `nonce` issues on connection `cid`.
    pub fn new(nonce: u64, cid: u64) -> Ticket {
        Ticket(ticket_bytes(nonce, cid).to_vec())
    }

    /// The ticket as a client presents it to resume under `token`, its
    /// offer starting with `first`: the difference of the two folded
    /// into the nonce half. Resuming under its first choice — every
    /// resumption but one that falls back to an older token — presents
    /// the ticket as it was issued.
    pub fn presented(&self, token: &[u8], first: &[u8]) -> Ticket {
        self.folded(token, first)
            .map_or_else(|| self.clone(), |(nonce, cid)| Ticket::new(nonce, cid))
    }

    /// The `(nonce, cid)` a ticket presented for `token` names, with
    /// [`Ticket::presented`]'s fold undone; `None` if it is not 16 bytes.
    pub(crate) fn folded(&self, token: &[u8], first: &[u8]) -> Option<(u64, u64)> {
        let (nonce, cid) = self.0.split_first_chunk::<8>()?;
        let cid: [u8; 8] = cid.try_into().ok()?;
        let fold = token_hash(token) ^ token_hash(first);
        Some((u64::from_be_bytes(*nonce) ^ fold, u64::from_be_bytes(cid)))
    }
}

/// A ticket's bytes: the nonce half, then the cid half.
pub(crate) fn ticket_bytes(nonce: u64, cid: u64) -> [u8; 16] {
    let mut ticket = [0; 16];
    ticket[..8].copy_from_slice(&nonce.to_be_bytes());
    ticket[8..].copy_from_slice(&cid.to_be_bytes());
    ticket
}

/// A token's 64-bit FNV-1a hash: what [`Ticket::presented`] folds in.
fn token_hash(token: &[u8]) -> u64 {
    token.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The multiplicative inverse of odd `x` modulo 2^64 (Newton's method:
/// each step doubles the bits that are right).
const fn inverse(x: u64) -> u64 {
    let mut y = x;
    let mut i = 0;
    while i < 5 {
        y = y.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(y)));
        i += 1;
    }
    y
}

/// How a server endpoint makes its connection ids and the nonces of the
/// tickets it issues, and so tells its own tickets from anyone else's
/// without keeping them: its connection-id generator starts at `start`
/// and steps by [`Issuer::STEP`] per dial, and the ticket a connection
/// accepted at position `next` issues for peer cid `cid` carries the
/// nonce `next * NONCE + cid`. A presented nonce is the endpoint's if
/// undoing both gives a position the generator has passed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Issuer {
    /// The generator's first position.
    pub start: u64,
    /// Its position now.
    pub next: u64,
}

impl Issuer {
    /// What the connection-id generator adds per dial.
    pub const STEP: u64 = 0x9E37_79B9_7F4A_7C15;
    /// What a ticket nonce multiplies the generator's position by.
    const NONCE: u64 = 0xD6E8_FEB8_6659_FD93;

    /// The nonce of the ticket a connection accepted now issues, for
    /// the peer's connection id `cid`.
    pub fn nonce(&self, cid: u64) -> u64 {
        self.next.wrapping_mul(Self::NONCE).wrapping_add(cid)
    }

    /// True if `nonce` is one this endpoint issued on connection `cid`:
    /// at a position the generator has passed through. (A generator that
    /// wraps to zero restarts at one, and takes a ticket from before
    /// that for a stranger's: one chance in 2^64 per dial.)
    pub fn issued(&self, nonce: u64, cid: u64) -> bool {
        let dials = |position: u64| {
            position
                .wrapping_sub(self.start)
                .wrapping_mul(inverse(Self::STEP))
        };
        let position = nonce.wrapping_sub(cid).wrapping_mul(inverse(Self::NONCE));
        dials(position) <= dials(self.next)
    }
}

/// A handshake message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeMessage {
    /// Client's first flight.
    ClientHello {
        /// Offered ALPN protocols, in preference order.
        alpn: Vec<Alpn>,
        /// Resumption ticket, if any.
        ticket: Option<Ticket>,
        /// True if 0-RTT packets accompany this hello.
        early_data: bool,
    },
    /// Server's reply; completes the handshake from the client's view.
    ServerHello {
        /// The selected ALPN protocol.
        alpn: Alpn,
        /// Whether presented early data was accepted.
        early_data_accepted: bool,
        /// A fresh ticket for future resumption.
        new_ticket: Ticket,
    },
    /// Server refuses the handshake (e.g. no ALPN overlap).
    HelloRetry {
        /// Reason code.
        code: u64,
    },
}

const M_CLIENT_HELLO: u64 = 1;
const M_SERVER_HELLO: u64 = 2;
const M_HELLO_RETRY: u64 = 3;

impl HandshakeMessage {
    /// Encodes to bytes (the CRYPTO stream content).
    #[cfg(test)]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_into(&mut w);
        w.into_vec()
    }

    /// Encodes onto `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            HandshakeMessage::ClientHello {
                alpn,
                ticket,
                early_data,
            } => encode_client_hello(w, alpn, ticket.as_ref(), *early_data),
            HandshakeMessage::ServerHello {
                alpn,
                early_data_accepted,
                new_ticket,
            } => encode_server_hello(w, alpn, *early_data_accepted, &new_ticket.0),
            HandshakeMessage::HelloRetry { code } => {
                varint::put_varint(w, M_HELLO_RETRY);
                varint::put_varint(w, *code);
            }
        }
    }

    /// Decodes one message from exactly `buf`.
    pub fn decode(buf: &[u8]) -> WireResult<HandshakeMessage> {
        let mut r = Reader::new(buf);
        let m = Self::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(m)
    }

    fn decode_from(r: &mut Reader<'_>) -> WireResult<HandshakeMessage> {
        Ok(match varint::get_varint(r)? {
            M_CLIENT_HELLO => {
                let n = varint::get_varint(r)? as usize;
                if n > 32 {
                    return Err(WireError::Invalid { what: "alpn count" });
                }
                let mut alpn = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = varint::get_varint(r)? as usize;
                    alpn.push(Alpn::from(r.get_bytes(len)?));
                }
                let ticket = match r.get_u8()? {
                    0 => None,
                    1 => {
                        let len = varint::get_varint(r)? as usize;
                        Some(Ticket(r.get_vec(len)?))
                    }
                    _ => {
                        return Err(WireError::Invalid {
                            what: "ticket flag",
                        })
                    }
                };
                let early_data = r.get_u8()? != 0;
                HandshakeMessage::ClientHello {
                    alpn,
                    ticket,
                    early_data,
                }
            }
            M_SERVER_HELLO => {
                let len = varint::get_varint(r)? as usize;
                let alpn = Alpn::from(r.get_bytes(len)?);
                let early_data_accepted = r.get_u8()? != 0;
                let tlen = varint::get_varint(r)? as usize;
                HandshakeMessage::ServerHello {
                    alpn,
                    early_data_accepted,
                    new_ticket: Ticket(r.get_vec(tlen)?),
                }
            }
            M_HELLO_RETRY => HandshakeMessage::HelloRetry {
                code: varint::get_varint(r)?,
            },
            _ => {
                return Err(WireError::Invalid {
                    what: "handshake message type",
                })
            }
        })
    }
}

/// Encodes a ClientHello from its parts, so a connection sends the list
/// of ALPNs it was given without building the message first.
pub fn encode_client_hello(
    w: &mut Writer,
    alpn: &[Alpn],
    ticket: Option<&Ticket>,
    early_data: bool,
) {
    varint::put_varint(w, M_CLIENT_HELLO);
    varint::put_varint(w, alpn.len() as u64);
    for p in alpn {
        varint::put_varint(w, p.len() as u64);
        w.put_slice(p);
    }
    match ticket {
        Some(t) => {
            w.put_u8(1);
            varint::put_varint(w, t.0.len() as u64);
            w.put_slice(&t.0);
        }
        None => w.put_u8(0),
    }
    w.put_u8(early_data as u8);
}

/// Encodes a ServerHello from its parts (see [`encode_client_hello`]).
pub fn encode_server_hello(w: &mut Writer, alpn: &[u8], early_data_accepted: bool, ticket: &[u8]) {
    varint::put_varint(w, M_SERVER_HELLO);
    varint::put_varint(w, alpn.len() as u64);
    w.put_slice(alpn);
    w.put_u8(early_data_accepted as u8);
    varint::put_varint(w, ticket.len() as u64);
    w.put_slice(ticket);
}

/// Server-side ALPN selection: the first client offer the server
/// supports. Returns the server's own handle for it, which every
/// connection the server accepts shares, not the one decoded from this
/// client's hello.
pub fn select_alpn(offered: &[Alpn], supported: &[Alpn]) -> Option<Alpn> {
    offered
        .iter()
        .find_map(|o| supported.iter().find(|s| *s == o))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_hello_roundtrip() {
        let m = HandshakeMessage::ClientHello {
            alpn: vec![Alpn::from(&b"moqt-12"[..]), Alpn::from(&b"doq"[..])],
            ticket: Some(Ticket(vec![9; 16])),
            early_data: true,
        };
        assert_eq!(HandshakeMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn client_hello_without_ticket() {
        let m = HandshakeMessage::ClientHello {
            alpn: vec![Alpn::from(&b"moqt-12"[..])],
            ticket: None,
            early_data: false,
        };
        assert_eq!(HandshakeMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn server_hello_roundtrip() {
        let m = HandshakeMessage::ServerHello {
            alpn: Alpn::from(&b"moqt-12"[..]),
            early_data_accepted: true,
            new_ticket: Ticket(vec![1, 2, 3]),
        };
        assert_eq!(HandshakeMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn hello_retry_roundtrip() {
        let m = HandshakeMessage::HelloRetry { code: 0x128 };
        assert_eq!(HandshakeMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn alpn_selection_prefers_client_order() {
        let offered = vec![Alpn::from(&b"moqt-13"[..]), Alpn::from(&b"moqt-12"[..])];
        let supported = vec![Alpn::from(&b"moqt-12"[..]), Alpn::from(&b"moqt-13"[..])];
        assert_eq!(
            select_alpn(&offered, &supported),
            Some(Alpn::from(&b"moqt-13"[..]))
        );
        assert_eq!(select_alpn(&offered, &[]), None);
        let chosen = select_alpn(&offered, &supported).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&chosen, &supported[1]),
            "the server's handle, not the decoded offer"
        );
    }

    #[test]
    fn an_issuer_knows_its_own_tickets_from_every_position_it_passed() {
        let mut issuer = Issuer {
            start: 77,
            next: 77,
        };
        let mut issued = Vec::new();
        for cid in [5, 1 << 40, u64::MAX] {
            issued.push((issuer.nonce(cid), cid));
            issuer.next = issuer.next.wrapping_add(Issuer::STEP);
        }
        for &(nonce, cid) in &issued {
            assert!(issuer.issued(nonce, cid));
            assert!(!issuer.issued(nonce ^ 1, cid), "a nonce one bit off");
            assert!(!issuer.issued(nonce, cid ^ 1), "another connection's");
        }
        let ahead = Issuer {
            next: issuer.next.wrapping_add(Issuer::STEP),
            ..issuer
        };
        assert!(!issuer.issued(ahead.nonce(5), 5), "a position not reached");
        assert!(!issuer.issued(7, 7), "a stranger's");
        assert_eq!(inverse(Issuer::STEP).wrapping_mul(Issuer::STEP), 1);
    }

    #[test]
    fn a_ticket_names_the_token_it_is_presented_for() {
        let (first, older) = (&b"moqt-12"[..], &b"moq-00"[..]);
        let ticket = Ticket::new(0x0102_0304_0506_0708, 42);
        assert_eq!(ticket.0.len(), 16);
        assert_eq!(ticket.presented(first, first), ticket, "as issued");
        let fallback = ticket.presented(older, first);
        assert_eq!(fallback.0.len(), 16);
        assert_eq!(fallback.0[8..], ticket.0[8..], "the cid half stays");
        assert_eq!(
            fallback.folded(older, first),
            Some((0x0102_0304_0506_0708, 42))
        );
        assert_ne!(
            fallback.folded(first, first),
            Some((0x0102_0304_0506_0708, 42)),
            "read for another token, it names another nonce"
        );
        assert_eq!(Ticket(vec![1, 2, 3]).folded(first, first), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(HandshakeMessage::decode(&[0xFF, 0xFF]).is_err());
        assert!(HandshakeMessage::decode(&[]).is_err());
        // Trailing bytes rejected.
        let mut b = HandshakeMessage::HelloRetry { code: 1 }.encode();
        b.push(0);
        assert!(HandshakeMessage::decode(&b).is_err());
    }
}
