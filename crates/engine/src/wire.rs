//! The wire format of one CONGEST message.
//!
//! The CONGEST and BCONGEST models allow `O(log n)` bits per edge per round, and
//! every message is one such *word*: a constant number of node IDs or values.
//! So one message costs one word, always. A runner charges one word per
//! message it delivers. A tree cast, a phase or a tree pass charges the words
//! it moves, each word one message on each edge it crosses. That is the
//! paper's accounting in Lemmas 1.5/1.6 (`I_n / log n` messages for `I_n` bits
//! of input) and in the "Õ(1)-bit aggregate packets cost logarithmically many
//! messages" remark of §3. Nothing that crosses an edge carries its own word
//! count.
//!
//! [`WireEncode`] / [`WireDecode`] pack a message into a fixed number of `u32`
//! lanes for the flat message plane ([`crate::plane`]). The packed width is an
//! *implementation* byte count, accounted apart from the model's words: words
//! in [`crate::Metrics::messages`], bytes in [`crate::Metrics::payload_bytes`].

use std::fmt;

/// Fixed-width packed encoding of a message into `u32` lanes, the wire
/// format of the flat message plane ([`crate::plane`]).
///
/// `LANES` is a per-type constant: every value of the type occupies exactly
/// `LANES` consecutive `u32` lanes in a round arena. This is what makes the
/// flat plane a struct-of-arrays with O(1) indexing. Whatever its width, a
/// value is one message.
pub trait WireEncode: Clone + fmt::Debug + PartialEq {
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

codec_u32!(congest_graph::NodeId);
codec_u32!(congest_graph::EdgeId);
codec_u32!(congest_graph::ClusterId);

#[cfg(test)]
mod tests {
    use super::*;

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
        roundtrip(congest_graph::NodeId::new(12345));
        roundtrip(congest_graph::EdgeId::new(0));
        roundtrip(congest_graph::ClusterId::new(9));
    }
}
