//! Message-size accounting.
//!
//! The CONGEST model allows `O(log n)` bits per edge per round. We account sizes in
//! *words*: one word = one `O(log n)`-bit message (a constant number of IDs/values).
//! A payload of `k` words costs `k` messages per edge it crosses — exactly the paper's
//! accounting in Lemmas 1.5/1.6 (`I_n / log n` messages for `I_n` bits of input) and in
//! the "Õ(1)-bit aggregate packets cost logarithmically many messages" remark of §3.

use std::fmt;

/// Types that can be sent as CONGEST messages, with an explicit size in words.
///
/// The default size is one word, which is correct for anything encodable as a constant
/// number of node IDs / integer values. Composite payloads override [`Wire::words`].
pub trait Wire: Clone + fmt::Debug + PartialEq {
    /// Size of this payload in `O(log n)`-bit words (i.e., in CONGEST messages).
    fn words(&self) -> usize {
        1
    }
}

/// Fixed-width packed encoding into `u32` lanes, the wire format of the flat
/// message plane ([`crate::plane`]).
///
/// `LANES` is a per-type constant: every value of the type occupies exactly
/// `LANES` consecutive `u32` lanes in a round arena. This is what makes the
/// flat plane a struct-of-arrays with O(1) indexing. Variable-width payloads
/// (`Vec<T>`, padding probes) never cross a runner's plane (treeops and the
/// router move them) and implement only [`Wire`].
///
/// The packed size is an *implementation* byte count; the model-level cost in
/// CONGEST words is still [`Wire::words`] and the two are accounted
/// independently (words in [`crate::Metrics::messages`], bytes in
/// [`crate::Metrics::payload_bytes`]).
pub trait WireEncode: Wire {
    /// Number of `u32` lanes a value of this type occupies. Must be exact:
    /// `encode` writes all of them, `decode` reads all of them.
    const LANES: usize;

    /// Write the value into `out`, which is exactly `Self::LANES` long.
    fn encode(&self, out: &mut [u32]);
}

/// Decoding half of the packed codec: reconstruct a value from its lanes.
///
/// `decode(lanes)` must be a left inverse of [`WireEncode::encode`] for every
/// value (round-trip identity — property-tested per message type). Decoding
/// lanes that no `encode` produced may panic: only runner-produced arenas are
/// ever decoded.
pub trait WireDecode: WireEncode {
    /// Reconstruct a value from exactly `Self::LANES` lanes.
    fn decode(lanes: &[u32]) -> Self;
}

macro_rules! codec_u32 {
    ($t:ty) => {
        impl WireEncode for $t {
            const LANES: usize = 1;
            fn encode(&self, out: &mut [u32]) {
                out[0] = self.raw();
            }
        }
        impl WireDecode for $t {
            fn decode(lanes: &[u32]) -> Self {
                Self::from(lanes[0])
            }
        }
    };
}

impl Wire for u32 {}
impl WireEncode for u32 {
    const LANES: usize = 1;
    fn encode(&self, out: &mut [u32]) {
        out[0] = *self;
    }
}
impl WireDecode for u32 {
    fn decode(lanes: &[u32]) -> Self {
        lanes[0]
    }
}

impl Wire for u64 {}
impl WireEncode for u64 {
    const LANES: usize = 2;
    fn encode(&self, out: &mut [u32]) {
        out[0] = *self as u32;
        out[1] = (*self >> 32) as u32;
    }
}
impl WireDecode for u64 {
    fn decode(lanes: &[u32]) -> Self {
        lanes[0] as u64 | (lanes[1] as u64) << 32
    }
}

impl Wire for i64 {}
impl WireEncode for i64 {
    const LANES: usize = 2;
    fn encode(&self, out: &mut [u32]) {
        (*self as u64).encode(out);
    }
}
impl WireDecode for i64 {
    fn decode(lanes: &[u32]) -> Self {
        u64::decode(lanes) as i64
    }
}

impl Wire for usize {}
impl WireEncode for usize {
    const LANES: usize = 2;
    fn encode(&self, out: &mut [u32]) {
        (*self as u64).encode(out);
    }
}
impl WireDecode for usize {
    fn decode(lanes: &[u32]) -> Self {
        u64::decode(lanes) as usize
    }
}

impl Wire for (u32, u32) {}
impl WireEncode for (u32, u32) {
    const LANES: usize = 2;
    fn encode(&self, out: &mut [u32]) {
        out[0] = self.0;
        out[1] = self.1;
    }
}
impl WireDecode for (u32, u32) {
    fn decode(lanes: &[u32]) -> Self {
        (lanes[0], lanes[1])
    }
}

impl Wire for (u64, u64) {}
impl WireEncode for (u64, u64) {
    const LANES: usize = 4;
    fn encode(&self, out: &mut [u32]) {
        self.0.encode(&mut out[..2]);
        self.1.encode(&mut out[2..]);
    }
}
impl WireDecode for (u64, u64) {
    fn decode(lanes: &[u32]) -> Self {
        (u64::decode(&lanes[..2]), u64::decode(&lanes[2..]))
    }
}

impl Wire for () {
    fn words(&self) -> usize {
        0
    }
}
impl WireEncode for () {
    const LANES: usize = 0;
    fn encode(&self, _out: &mut [u32]) {}
}
impl WireDecode for () {
    fn decode(_lanes: &[u32]) -> Self {}
}

impl<T: Wire> Wire for Vec<T> {
    fn words(&self) -> usize {
        self.iter().map(Wire::words).sum::<usize>().max(1)
    }
}

impl Wire for congest_graph::NodeId {}
codec_u32!(congest_graph::NodeId);
impl Wire for congest_graph::EdgeId {}
codec_u32!(congest_graph::EdgeId);
impl Wire for congest_graph::ClusterId {}
codec_u32!(congest_graph::ClusterId);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(5u64.words(), 1);
        assert_eq!((3u32, 4u32).words(), 1);
        assert_eq!(().words(), 0);
    }

    #[test]
    fn vec_sizes() {
        assert_eq!(vec![1u64, 2, 3].words(), 3);
        assert_eq!(Vec::<u64>::new().words(), 1); // even an empty payload costs a message
    }

    #[test]
    fn id_pairs_fit_in_a_word() {
        // A constant number of IDs fits in one O(log n)-bit message.
        assert_eq!((1u32, 2u32).words(), 1);
        assert_eq!((1u64, 2u64).words(), 1);
    }

    fn roundtrip<T: WireDecode>(v: T) {
        let mut lanes = vec![0u32; T::LANES];
        v.encode(&mut lanes);
        assert_eq!(T::decode(&lanes), v);
    }

    #[test]
    fn primitive_codecs_roundtrip() {
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX - 7);
        roundtrip(-42i64);
        roundtrip(usize::MAX);
        roundtrip((7u32, u32::MAX));
        roundtrip((u64::MAX, 3u64));
        roundtrip(());
        roundtrip(congest_graph::NodeId::new(12345));
        roundtrip(congest_graph::EdgeId::new(0));
        roundtrip(congest_graph::ClusterId::new(9));
    }
}
