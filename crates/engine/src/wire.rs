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
//! [`WireEncode`] packs a message into a fixed number of `u32` lanes. The
//! lanes are the format a recorded trace stores each delivery in
//! ([`crate::trace`]), and their width is the byte charge: every delivered
//! message costs `4 × LANES` bytes. That byte count is an *implementation*
//! figure, accounted apart from the model's words: words in
//! [`crate::Metrics::messages`], bytes in [`crate::Metrics::payload_bytes`].
//! The message plane ([`crate::plane`]) stores messages as values and never
//! encodes them.

use std::fmt;

/// Fixed-width packed encoding of a message into `u32` lanes: the trace
/// format of a delivery and the byte charge of a message.
///
/// `LANES` is a per-type constant: every value of the type occupies exactly
/// `LANES` `u32` lanes. Whatever its width, a value is one message. Distinct
/// values encode to distinct lanes (property-tested per message type), so a
/// trace tells every two messages apart.
pub trait WireEncode: Clone + fmt::Debug + PartialEq {
    /// Number of `u32` lanes a value of this type occupies. Must be exact:
    /// `encode` writes all of them.
    const LANES: usize;

    /// Write the value into `out`, which is exactly `Self::LANES` long.
    fn encode(&self, out: &mut [u32]);
}

macro_rules! encode_id {
    ($t:ty) => {
        impl WireEncode for $t {
            const LANES: usize = 1;
            fn encode(&self, out: &mut [u32]) {
                out[0] = self.raw();
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

impl WireEncode for u64 {
    const LANES: usize = 2;
    fn encode(&self, out: &mut [u32]) {
        out[0] = *self as u32;
        out[1] = (*self >> 32) as u32;
    }
}

impl WireEncode for i64 {
    const LANES: usize = 2;
    fn encode(&self, out: &mut [u32]) {
        (*self as u64).encode(out);
    }
}

impl WireEncode for usize {
    const LANES: usize = 2;
    fn encode(&self, out: &mut [u32]) {
        (*self as u64).encode(out);
    }
}

impl WireEncode for (u32, u32) {
    const LANES: usize = 2;
    fn encode(&self, out: &mut [u32]) {
        out[0] = self.0;
        out[1] = self.1;
    }
}

impl WireEncode for (u64, u64) {
    const LANES: usize = 4;
    fn encode(&self, out: &mut [u32]) {
        self.0.encode(&mut out[..2]);
        self.1.encode(&mut out[2..]);
    }
}

encode_id!(congest_graph::NodeId);
encode_id!(congest_graph::EdgeId);
encode_id!(congest_graph::ClusterId);
