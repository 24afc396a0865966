//! The simulated handshake ("TLS-shaped, crypto-free").
//!
//! The flights mirror TLS 1.3 over QUIC closely enough that every latency
//! property the paper reasons about is preserved:
//!
//! * fresh connection: `ClientHello` → `ServerHello` (+ ticket) — the
//!   client can send application data only after one round trip;
//! * resumption: the client presents a [`Ticket`] in its `ClientHello` and
//!   may send 0-RTT packets in the same flight; the server either accepts
//!   (ticket it recognizes) or rejects early data;
//! * ALPN: the client offers protocols, the server selects one (or fails
//!   the handshake). DNS-over-MoQT's future "version negotiation in ALPN"
//!   optimization (§5.2) is modelled by putting the MoQT version into the
//!   ALPN string.
//!
//! Messages ride in CRYPTO frames, encoded with the same varint toolbox as
//! everything else.

use crate::connection::Alpn;
use moqdns_wire::{varint, Reader, WireError, WireResult, Writer};

/// An opaque resumption ticket (issued by a server, presented by a client).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ticket(pub Vec<u8>);

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
    fn rejects_garbage() {
        assert!(HandshakeMessage::decode(&[0xFF, 0xFF]).is_err());
        assert!(HandshakeMessage::decode(&[]).is_err());
        // Trailing bytes rejected.
        let mut b = HandshakeMessage::HelloRetry { code: 1 }.encode();
        b.push(0);
        assert!(HandshakeMessage::decode(&b).is_err());
    }
}
