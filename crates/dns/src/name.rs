//! Domain names (RFC 1035 §3.1).
//!
//! A [`Name`] is a sequence of labels. Limits enforced: each label is 1–63
//! bytes, and the wire form of the whole name (labels plus length octets
//! plus the root terminator) is at most 255 bytes. Comparison and hashing
//! are ASCII case-insensitive, as required for DNS names; the original
//! spelling is preserved for display.
//!
//! # Layout
//!
//! A name is **one** immutable, reference-counted buffer holding its
//! uncompressed wire form — `len label len label … 0`, case as given —
//! and nothing else; the root holds no buffer at all. So `clone` is a
//! reference-count bump, `encode` is one `put_slice`, and every
//! constructor (`from_str`, `from_labels`, `decode`, `parent`, …)
//! validates and assembles on the stack first and allocates exactly once,
//! after the name is known to be legal.
//!
//! `Eq`, `Ord`, `Hash` and [`Name::is_subdomain_of`] read those bytes in
//! place and never allocate. A length octet is at most 63 and therefore
//! never an ASCII letter, so two wire forms are the same name exactly when
//! they are equal byte for byte ignoring ASCII case.
//!
//! # Ordering contract
//!
//! `Ord` is the canonical DNS order of RFC 4034 §6.1: names compare label
//! by label from the **rightmost** label, each label as its lowercased
//! bytes (a label that is a prefix of another sorts first), and a name
//! that runs out of labels sorts before one that does not. Tables keyed by
//! [`Name`] or [`crate::Question`] are B-trees whose iteration order is
//! part of the simulator's determinism contract, so this order must never
//! change.

use moqdns_wire::{Reader, WireError, WireResult, Writer};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::Arc;

/// Maximum length of one label in bytes.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name's wire form in bytes.
pub const MAX_NAME_LEN: usize = 255;
/// Maximum pointer jumps followed while decompressing (loop guard).
const MAX_POINTER_JUMPS: usize = 32;
/// Wire form of the root name.
const ROOT_WIRE: &[u8] = &[0];

/// A fully-qualified domain name.
///
/// ```
/// use moqdns_dns::Name;
/// let n: Name = "www.Example.COM".parse().unwrap();
/// assert_eq!(n.to_string(), "www.Example.COM.");
/// assert_eq!(n, "WWW.example.com.".parse().unwrap()); // case-insensitive
/// assert_eq!(n.num_labels(), 3);
/// assert!(n.is_subdomain_of(&"example.com".parse().unwrap()));
/// ```
#[derive(Clone, Default)]
pub struct Name {
    /// The uncompressed wire form, original case kept; `None` is the root,
    /// so a `Some` buffer always holds at least one label.
    wire: Option<Arc<[u8]>>,
}

/// Iterator over the labels of a wire-form name, leftmost first.
struct Labels<'a>(&'a [u8]);

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let len = self.0[0] as usize;
        if len == 0 {
            return None;
        }
        let (label, rest) = self.0[1..].split_at(len);
        self.0 = rest;
        Some(label)
    }
}

/// A name being assembled on the stack. Nothing is allocated until
/// [`Assembly::finish`]; labels past the 255-byte limit are counted, not
/// written, so the caller can report the length it refused.
struct Assembly {
    buf: [u8; MAX_NAME_LEN],
    /// Wire length so far, root terminator included.
    wire_len: usize,
}

impl Assembly {
    fn new() -> Assembly {
        Assembly {
            buf: [0; MAX_NAME_LEN],
            wire_len: 1,
        }
    }

    /// Appends one label of 1–63 bytes.
    fn push(&mut self, label: &[u8]) {
        let at = self.wire_len - 1;
        self.wire_len += 1 + label.len();
        if self.fits() {
            self.buf[at] = label.len() as u8;
            self.buf[at + 1..self.wire_len - 1].copy_from_slice(label);
        }
    }

    fn fits(&self) -> bool {
        self.wire_len <= MAX_NAME_LEN
    }

    /// The one allocation; the zeroed buffer already holds the terminator.
    /// Only for an assembly that [`Assembly::fits`].
    fn finish(&self) -> Name {
        Name::from_valid_wire(&self.buf[..self.wire_len])
    }
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Name {
        Name { wire: None }
    }

    /// Wraps bytes already known to be a legal uncompressed wire form.
    fn from_valid_wire(wire: &[u8]) -> Name {
        Name {
            wire: (wire.len() > 1).then(|| Arc::from(wire)),
        }
    }

    /// Builds a name from raw label byte strings.
    pub fn from_labels<I, L>(labels: I) -> Result<Name, NameError>
    where
        I: IntoIterator<Item = L>,
        L: Into<Vec<u8>>,
    {
        Name::build(labels.into_iter().map(Into::<Vec<u8>>::into))
    }

    /// Validates `labels` and assembles them; the name is allocated only
    /// once every label and the total length have passed.
    fn build(labels: impl Iterator<Item = impl AsRef<[u8]>>) -> Result<Name, NameError> {
        let mut asm = Assembly::new();
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(l.len()));
            }
            asm.push(l);
        }
        if !asm.fits() {
            return Err(NameError::NameTooLong(asm.wire_len));
        }
        Ok(asm.finish())
    }

    /// The uncompressed wire form, borrowed.
    pub fn as_wire(&self) -> &[u8] {
        self.wire.as_deref().unwrap_or(ROOT_WIRE)
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_none()
    }

    /// Number of labels (0 for the root).
    pub fn num_labels(&self) -> usize {
        self.labels().count()
    }

    /// The labels, leftmost first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        Labels(self.as_wire())
    }

    /// Length of the uncompressed wire form (length octets + labels + root).
    pub fn wire_len(&self) -> usize {
        self.as_wire().len()
    }

    /// The name with the leftmost label removed; `None` for the root.
    pub fn parent(&self) -> Option<Name> {
        let wire = self.wire.as_deref()?;
        Some(Name::from_valid_wire(&wire[1 + wire[0] as usize..]))
    }

    /// Creates `child.self` by prepending a label.
    pub fn prepend(&self, label: impl Into<Vec<u8>>) -> Result<Name, NameError> {
        let label = label.into();
        Name::build(std::iter::once(label.as_slice()).chain(self.labels()))
    }

    /// True if `self` equals `ancestor` or is beneath it.
    ///
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        let (wire, suffix) = (self.as_wire(), ancestor.as_wire());
        let Some(start) = wire.len().checked_sub(suffix.len()) else {
            return false;
        };
        // The candidate suffix must begin on one of our label boundaries.
        let mut at = 0;
        while at < start {
            at += 1 + wire[at] as usize;
        }
        at == start && wire[start..].eq_ignore_ascii_case(suffix)
    }

    /// ASCII-lowercased copy (canonical form for keys); the same buffer
    /// when the name already is lowercase.
    pub fn to_lowercase(&self) -> Name {
        match &self.wire {
            Some(wire) if wire.iter().any(u8::is_ascii_uppercase) => {
                let mut lower = [0u8; MAX_NAME_LEN];
                let lower = &mut lower[..wire.len()];
                lower.copy_from_slice(wire);
                lower.make_ascii_lowercase();
                Name::from_valid_wire(lower)
            }
            _ => self.clone(),
        }
    }

    /// Encodes the uncompressed wire form.
    pub fn encode(&self, w: &mut Writer) {
        w.put_slice(self.as_wire());
    }

    /// The uncompressed wire form as a byte vector.
    ///
    /// This is exactly what DNS-over-MoQT uses as the MoQT **track name**
    /// (paper §4.3, Fig 3).
    pub fn to_wire(&self) -> Vec<u8> {
        self.as_wire().to_vec()
    }

    /// Decodes a name, following compression pointers (RFC 1035 §4.1.4).
    ///
    /// The reader must be positioned inside the full message buffer so that
    /// pointers (absolute offsets) can be resolved; pointers must point
    /// strictly backwards, and at most `MAX_POINTER_JUMPS` (32) are followed.
    /// Every limit is checked while the labels are gathered on the stack;
    /// a rejected name allocates nothing.
    pub fn decode(r: &mut Reader<'_>) -> WireResult<Name> {
        let mut asm = Assembly::new();
        let mut jumps = 0usize;
        // After the first pointer jump we stop advancing the real cursor.
        let mut saved_pos: Option<usize> = None;
        let mut min_ptr = r.position(); // pointers must go strictly backwards

        loop {
            let len = r.get_u8()?;
            match len {
                0 => break,
                1..=63 => {
                    asm.push(r.get_bytes(len as usize)?);
                    if !asm.fits() {
                        return Err(WireError::Invalid {
                            what: "name too long",
                        });
                    }
                }
                _ if len & 0b1100_0000 == 0b1100_0000 => {
                    let lo = r.get_u8()?;
                    let target = ((len as usize & 0b0011_1111) << 8) | lo as usize;
                    if target >= min_ptr {
                        return Err(WireError::Invalid {
                            what: "forward or self compression pointer",
                        });
                    }
                    jumps += 1;
                    if jumps > MAX_POINTER_JUMPS {
                        return Err(WireError::Invalid {
                            what: "compression pointer loop",
                        });
                    }
                    if saved_pos.is_none() {
                        saved_pos = Some(r.position());
                    }
                    min_ptr = target;
                    r.seek(target)?;
                }
                _ => {
                    return Err(WireError::Invalid {
                        what: "label type (only 00/11 defined)",
                    })
                }
            }
        }
        if let Some(p) = saved_pos {
            r.seek(p)?;
        }
        Ok(asm.finish())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_wire().eq_ignore_ascii_case(other.as_wire())
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The wire form is self-delimiting, so the lowercased bytes alone
        // identify the name.
        let mut lower = [0u8; 64];
        for chunk in self.as_wire().chunks(lower.len()) {
            let lower = &mut lower[..chunk.len()];
            lower.copy_from_slice(chunk);
            lower.make_ascii_lowercase();
            state.write(lower);
        }
    }
}

/// Orders two labels as their lowercased bytes; a prefix sorts first.
fn cmp_ignore_ascii_case(a: &[u8], b: &[u8]) -> Ordering {
    let lower = |l: &u8| l.to_ascii_lowercase();
    a.iter().map(lower).cmp(b.iter().map(lower))
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering (RFC 4034 §6.1): compare by label from the
    /// rightmost (closest to root), case-insensitively.
    fn cmp(&self, other: &Self) -> Ordering {
        if self == other {
            return Ordering::Equal;
        }
        // Line the two names up on their last labels, then walk the common
        // run left to right: the last pair that differs is the rightmost
        // one, which is the pair that decides.
        let (n, m) = (self.num_labels(), other.num_labels());
        let common = n.min(m);
        self.labels()
            .skip(n - common)
            .zip(other.labels().skip(m - common))
            .map(|(a, b)| cmp_ignore_ascii_case(a, b))
            .fold(n.cmp(&m), |decided, pair| pair.then(decided))
    }
}

impl FromStr for Name {
    type Err = NameError;

    /// Parses dotted notation; a trailing dot is optional. The empty string
    /// and `"."` are the root.
    fn from_str(s: &str) -> Result<Name, NameError> {
        if s.is_empty() || s == "." {
            return Ok(Name::root());
        }
        let s = s.strip_suffix('.').unwrap_or(s);
        Name::build(s.split('.'))
    }
}

impl fmt::Display for Name {
    /// Dotted notation with a trailing dot (FQDN form); the root prints `.`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for l in self.labels() {
            for &b in l {
                if b.is_ascii_graphic() && b != b'.' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{b:03}")?;
                }
            }
            write!(f, ".")?;
        }
        Ok(())
    }
}

/// Errors constructing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (e.g. `a..b`).
    EmptyLabel,
    /// A label exceeded 63 bytes.
    LabelTooLong(usize),
    /// The whole name exceeded 255 wire bytes.
    NameTooLong(usize),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(n) => write!(f, "label too long ({n} > {MAX_LABEL_LEN})"),
            NameError::NameTooLong(n) => write!(f, "name too long ({n} > {MAX_NAME_LEN})"),
        }
    }
}

impl std::error::Error for NameError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("example.com").to_string(), "example.com.");
        assert_eq!(n("example.com.").to_string(), "example.com.");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("").to_string(), ".");
        assert_eq!(n("a.b.c").num_labels(), 3);
    }

    #[test]
    fn case_insensitive_equality_and_hash() {
        use std::collections::HashSet;
        assert_eq!(n("Example.COM"), n("example.com"));
        let mut set = HashSet::new();
        set.insert(n("Example.COM"));
        assert!(set.contains(&n("eXaMpLe.CoM")));
    }

    #[test]
    fn rejects_bad_labels() {
        assert_eq!("a..b".parse::<Name>(), Err(NameError::EmptyLabel));
        let long = "x".repeat(64);
        assert!(matches!(
            long.parse::<Name>(),
            Err(NameError::LabelTooLong(64))
        ));
        // 255-byte wire limit: 4 labels of 63 = 4*64 + 1 = 257 > 255.
        let l63 = "y".repeat(63);
        let too_long = format!("{l63}.{l63}.{l63}.{l63}");
        assert!(matches!(
            too_long.parse::<Name>(),
            Err(NameError::NameTooLong(_))
        ));
        // 3 labels of 63 + 1 label of 61 = 3*64 + 62 + 1 = 255: exactly legal.
        let l61 = "z".repeat(61);
        let ok = format!("{l63}.{l63}.{l63}.{l61}");
        assert_eq!(ok.parse::<Name>().unwrap().wire_len(), 255);
    }

    #[test]
    fn wire_roundtrip_simple() {
        let name = n("www.example.com");
        let wire = name.to_wire();
        assert_eq!(wire, b"\x03www\x07example\x03com\x00");
        let mut r = Reader::new(&wire);
        assert_eq!(Name::decode(&mut r).unwrap(), name);
        assert!(r.is_empty());
    }

    #[test]
    fn root_wire_form() {
        assert_eq!(Name::root().to_wire(), vec![0]);
        assert_eq!(Name::root().wire_len(), 1);
    }

    #[test]
    fn decode_with_compression_pointer() {
        // Buffer: at 0: "example.com." ; at 13: "www" + pointer to 0.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"\x07example\x03com\x00"); // 13 bytes
        buf.extend_from_slice(b"\x03www");
        buf.extend_from_slice(&[0xC0, 0x00]); // pointer to offset 0
        let mut r = Reader::new(&buf);
        r.seek(13).unwrap();
        let got = Name::decode(&mut r).unwrap();
        assert_eq!(got, n("www.example.com"));
        // Cursor continues after the pointer, not at the target.
        assert!(r.is_empty());
    }

    #[test]
    fn decode_rejects_pointer_loops() {
        // Pointer at offset 2 pointing to itself via offset 0.
        let buf = [0xC0u8, 0x02, 0xC0, 0x00];
        let mut r = Reader::new(&buf);
        r.seek(2).unwrap();
        // 2 -> 0 -> 2 would loop; forward/self pointers are rejected.
        assert!(Name::decode(&mut r).is_err());
    }

    #[test]
    fn decode_rejects_forward_pointer() {
        let buf = [0xC0u8, 0x02, 0x00];
        let mut r = Reader::new(&buf);
        assert!(Name::decode(&mut r).is_err());
    }

    #[test]
    fn decode_rejects_reserved_label_types() {
        let buf = [0b1000_0001u8, 0x00];
        let mut r = Reader::new(&buf);
        assert!(Name::decode(&mut r).is_err());
    }

    #[test]
    fn subdomain_relationships() {
        assert!(n("www.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(n("example.com").is_subdomain_of(&Name::root()));
        assert!(!n("example.com").is_subdomain_of(&n("www.example.com")));
        assert!(!n("anexample.com").is_subdomain_of(&n("example.com")));
        assert!(n("WWW.EXAMPLE.COM").is_subdomain_of(&n("example.com")));
    }

    #[test]
    fn parent_chain() {
        let name = n("a.b.c");
        let p1 = name.parent().unwrap();
        assert_eq!(p1, n("b.c"));
        let p2 = p1.parent().unwrap().parent().unwrap();
        assert!(p2.is_root());
        assert!(p2.parent().is_none());
    }

    #[test]
    fn prepend_builds_children() {
        let base = n("example.com");
        assert_eq!(base.prepend("www").unwrap(), n("www.example.com"));
        assert!(base.prepend(vec![b'x'; 64]).is_err());
    }

    #[test]
    fn canonical_ordering() {
        // RFC 4034 §6.1 example ordering.
        let mut names = vec![
            n("example.com"),
            n("a.example.com"),
            n("yljkjljk.a.example.com"),
            n("z.a.example.com"),
            n("zabc.a.example.com"),
            n("z.example.com"),
        ];
        let sorted = names.clone();
        names.reverse();
        names.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn display_escapes_non_printable() {
        let name = Name::from_labels([&b"a\x00b"[..]]).unwrap();
        assert_eq!(name.to_string(), "a\\000b.");
    }

    /// The representation [`Name`] replaced — a vector of label vectors,
    /// with the comparison, hashing, display and codec it had — kept as
    /// the reference the one-buffer type must agree with.
    mod model {
        use super::super::{MAX_LABEL_LEN, MAX_NAME_LEN};
        use std::cmp::Ordering;
        use std::hash::{Hash, Hasher};

        #[derive(Debug, Clone)]
        pub struct Name {
            pub labels: Vec<Vec<u8>>,
        }

        impl Name {
            pub fn is_valid(&self) -> bool {
                self.labels
                    .iter()
                    .all(|l| !l.is_empty() && l.len() <= MAX_LABEL_LEN)
                    && self.to_wire().len() <= MAX_NAME_LEN
            }

            pub fn to_wire(&self) -> Vec<u8> {
                let mut out = Vec::new();
                for l in &self.labels {
                    out.push(l.len() as u8);
                    out.extend_from_slice(l);
                }
                out.push(0);
                out
            }

            pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
                if ancestor.labels.len() > self.labels.len() {
                    return false;
                }
                let offset = self.labels.len() - ancestor.labels.len();
                self.labels[offset..]
                    .iter()
                    .zip(&ancestor.labels)
                    .all(|(a, b)| a.eq_ignore_ascii_case(b))
            }

            pub fn display(&self) -> String {
                if self.labels.is_empty() {
                    return ".".to_string();
                }
                let mut out = String::new();
                for l in &self.labels {
                    for &b in l {
                        if b.is_ascii_graphic() && b != b'.' && b != b'\\' {
                            out.push(b as char);
                        } else {
                            out.push_str(&format!("\\{b:03}"));
                        }
                    }
                    out.push('.');
                }
                out
            }
        }

        impl PartialEq for Name {
            fn eq(&self, other: &Self) -> bool {
                self.labels.len() == other.labels.len()
                    && self
                        .labels
                        .iter()
                        .zip(&other.labels)
                        .all(|(a, b)| a.eq_ignore_ascii_case(b))
            }
        }

        impl Eq for Name {}

        impl Hash for Name {
            fn hash<H: Hasher>(&self, state: &mut H) {
                state.write_usize(self.labels.len());
                for l in &self.labels {
                    for b in l {
                        state.write_u8(b.to_ascii_lowercase());
                    }
                    state.write_u8(0xFF);
                }
            }
        }

        impl PartialOrd for Name {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        impl Ord for Name {
            fn cmp(&self, other: &Self) -> Ordering {
                for (la, lb) in self.labels.iter().rev().zip(other.labels.iter().rev()) {
                    match la.to_ascii_lowercase().cmp(&lb.to_ascii_lowercase()) {
                        Ordering::Equal => continue,
                        o => return o,
                    }
                }
                self.labels.len().cmp(&other.labels.len())
            }
        }
    }

    /// Bytes that make labels collide and nearly collide: both cases of
    /// three letters, the characters just outside `A–Z` / `a–z` (whose
    /// order against a letter flips when the letter is lowercased), and
    /// what `Display` escapes.
    const ALPHABET: [u8; 14] = *b"aAbBzZ@[`{.\\\0\xFF";

    fn labels_from(picks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        picks
            .iter()
            .map(|l| l.iter().map(|&i| ALPHABET[i as usize]).collect())
            .collect()
    }

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Everything observable about the pair agrees between the two types.
    fn assert_agree(a: &[Vec<u8>], b: &[Vec<u8>]) {
        let (ma, mb) = (
            model::Name { labels: a.to_vec() },
            model::Name { labels: b.to_vec() },
        );
        let (na, nb) = (
            Name::from_labels(a.to_vec()).unwrap(),
            Name::from_labels(b.to_vec()).unwrap(),
        );
        assert_eq!(na == nb, ma == mb, "eq {na} {nb}");
        assert_eq!(na.cmp(&nb), ma.cmp(&mb), "cmp {na} {nb}");
        assert_eq!(nb.cmp(&na), mb.cmp(&ma), "cmp {nb} {na}");
        if ma == mb {
            assert_eq!(hash_of(&na), hash_of(&nb), "hash {na} {nb}");
        }
        assert_eq!(na.is_subdomain_of(&nb), ma.is_subdomain_of(&mb));
        assert_eq!(nb.is_subdomain_of(&na), mb.is_subdomain_of(&ma));
        for (n, m) in [(&na, &ma), (&nb, &mb)] {
            assert_eq!(n.to_string(), m.display());
            assert_eq!(n.to_wire(), m.to_wire());
            assert_eq!(n.wire_len(), m.to_wire().len());
            assert_eq!(n.num_labels(), m.labels.len());
            assert!(n.labels().eq(m.labels.iter().map(Vec::as_slice)));
            // The codec keeps the spelling, not just the identity.
            let wire = m.to_wire();
            let mut r = Reader::new(&wire);
            let back = Name::decode(&mut r).unwrap();
            assert!(r.is_empty());
            assert_eq!(back.to_wire(), wire);
        }
    }

    /// `labels` with the case of every letter flipped.
    fn case_flipped(labels: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let flip = |b: &u8| {
            if b.is_ascii_alphabetic() {
                b ^ 0x20
            } else {
                *b
            }
        };
        labels
            .iter()
            .map(|l| l.iter().map(flip).collect())
            .collect()
    }

    #[test]
    fn model_agrees_at_the_length_limits() {
        let l63 = vec![b'y'; 63];
        // 3 × 64 + 62 + 1 = 255: the longest legal name.
        let longest = vec![l63.clone(), l63.clone(), l63.clone(), vec![b'Z'; 61]];
        assert_agree(&longest, &case_flipped(&longest));
        assert_agree(&longest, &longest[1..]);
        assert_agree(&longest, &[]);
        // 127 one-byte labels: the most labels a name can have.
        let most: Vec<Vec<u8>> = (0..127).map(|i| vec![b'a' + (i % 26) as u8]).collect();
        assert_agree(&most, &case_flipped(&most));
        assert_agree(&most, &most[100..]);
        for (bad, err) in [
            (
                vec![l63.clone(), l63.clone(), l63.clone(), vec![b'z'; 62]],
                NameError::NameTooLong(256),
            ),
            (vec![vec![b'x'; 64]], NameError::LabelTooLong(64)),
            (
                vec![l63.clone(), l63.clone(), l63.clone(), l63.clone(), vec![]],
                NameError::EmptyLabel,
            ),
            (vec![vec![b'a']; 128], NameError::NameTooLong(257)),
        ] {
            assert!(!model::Name {
                labels: bad.clone()
            }
            .is_valid());
            assert_eq!(Name::from_labels(bad.clone()), Err(err));
            // The decoder refuses what the constructor refuses.
            if bad.iter().all(|l| (1..=63).contains(&l.len())) {
                let wire = model::Name { labels: bad }.to_wire();
                assert!(Name::decode(&mut Reader::new(&wire)).is_err());
            }
        }
    }

    #[test]
    fn empty_names_do_not_allocate() {
        // `None` inside: there is no buffer to have allocated.
        assert!(Name::root().wire.is_none());
        assert!(Name::default().wire.is_none());
        assert!(n("a").parent().unwrap().wire.is_none());
        assert!(Name::decode(&mut Reader::new(&[0])).unwrap().wire.is_none());
        let lower = n("already.lower");
        assert!(Arc::ptr_eq(
            lower.wire.as_ref().unwrap(),
            lower.to_lowercase().wire.as_ref().unwrap()
        ));
    }

    proptest! {
        #[test]
        fn prop_model_agrees_on_pairs(
            a in proptest::collection::vec(proptest::collection::vec(0u8..14, 1..=3), 0..5),
            b in proptest::collection::vec(proptest::collection::vec(0u8..14, 1..=3), 0..5),
            cut in 0usize..5,
        ) {
            let (a, b) = (labels_from(&a), labels_from(&b));
            assert_agree(&a, &b);
            assert_agree(&a, &case_flipped(&a));
            // A suffix (an ancestor) and a name sharing only a suffix.
            let suffix = &a[cut.min(a.len())..];
            assert_agree(&a, suffix);
            assert_agree(&[&b[..], suffix].concat(), &a);
        }

        #[test]
        fn prop_model_agrees_on_sorting(
            picks in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(0u8..14, 1..=2), 0..4),
                2..24,
            ),
        ) {
            let labels: Vec<Vec<Vec<u8>>> = picks.iter().map(|p| labels_from(p)).collect();
            let mut names: Vec<Name> =
                labels.iter().map(|l| Name::from_labels(l.clone()).unwrap()).collect();
            let mut models: Vec<model::Name> =
                labels.iter().map(|l| model::Name { labels: l.clone() }).collect();
            // Both sorts are stable, so equal orders give equal sequences.
            names.sort();
            models.sort();
            let got: Vec<Vec<u8>> = names.iter().map(Name::to_wire).collect();
            let want: Vec<Vec<u8>> = models.iter().map(model::Name::to_wire).collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_wire_roundtrip(labels in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..=20), 0..6)
        ) {
            if let Ok(name) = Name::from_labels(labels) {
                let wire = name.to_wire();
                let mut r = Reader::new(&wire);
                let back = Name::decode(&mut r).unwrap();
                prop_assert_eq!(back, name);
                prop_assert!(r.is_empty());
            }
        }

        #[test]
        fn prop_parse_display_roundtrip(s in "[a-z0-9]{1,10}(\\.[a-z0-9]{1,10}){0,4}") {
            let name: Name = s.parse().unwrap();
            let redisplayed: Name = name.to_string().parse().unwrap();
            prop_assert_eq!(name, redisplayed);
        }

        #[test]
        fn prop_decode_arbitrary_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut r = Reader::new(&bytes);
            let _ = Name::decode(&mut r);
        }
    }
}
