//! Checksummed, generation-tagged object envelopes.
//!
//! The memory server stores each object wrapped in an envelope carrying the
//! server incarnation that stored it (the *generation*), the key it was
//! stored under, and an FNV-1a checksum over all of it. The client side of
//! the transport verifies the envelope on every fetch, so a torn or
//! bit-flipped payload surfaces as [`crate::NetError::Corrupt`] instead of
//! being silently handed to the runtime as garbage.
//!
//! Wire layout (little-endian):
//!
//! ```text
//! magic      u32   0x43415244 ("CARD")
//! generation u64   server incarnation at store time
//! ds         u32   key: data-structure id
//! index      u64   key: object index
//! trace      u64   causal trace id of the storing operation (0 = untraced)
//! span       u32   issuing span within that trace
//! len        u32   payload length
//! checksum   u64   fnv1a64(generation ‖ ds ‖ index ‖ trace ‖ span ‖ payload)
//! payload    [u8; len]
//! ```
//!
//! The trace fields carry the [`TraceContext`] of the operation that stored
//! the object, so a fetched envelope names the span tree that last wrote it
//! (write provenance). They sit inside the checksum: a flipped trace id is
//! a detected corruption, never a silently wrong attribution.

use crate::transport::ObjKey;
use crate::wiretap::TraceContext;

/// Envelope magic ("CARD" little-endian).
pub const ENVELOPE_MAGIC: u32 = 0x4352_4144;

/// Bytes of header preceding the payload.
pub const HEADER_LEN: usize = 4 + 8 + 4 + 8 + 8 + 4 + 4 + 8;

/// FNV-1a 64-bit over `bytes`, continuing from `state` (seed with
/// [`fnv1a_init`]). Dependency-free and byte-order independent.
pub fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(PRIME);
    }
    state
}

/// FNV-1a offset basis.
pub fn fnv1a_init() -> u64 {
    0xcbf2_9ce4_8422_2325
}

fn checksum(generation: u64, key: ObjKey, ctx: TraceContext, payload: &[u8]) -> u64 {
    let mut h = fnv1a_init();
    h = fnv1a(h, &generation.to_le_bytes());
    h = fnv1a(h, &key.ds.to_le_bytes());
    h = fnv1a(h, &key.index.to_le_bytes());
    h = fnv1a(h, &ctx.trace.to_le_bytes());
    h = fnv1a(h, &ctx.span.to_le_bytes());
    fnv1a(h, payload)
}

/// Wrap `payload` in an envelope stamped with `generation`, `key` and the
/// causal context of the storing operation.
pub fn encode(generation: u64, key: ObjKey, ctx: TraceContext, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&ENVELOPE_MAGIC.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&key.ds.to_le_bytes());
    out.extend_from_slice(&key.index.to_le_bytes());
    out.extend_from_slice(&ctx.trace.to_le_bytes());
    out.extend_from_slice(&ctx.span.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum(generation, key, ctx, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Why an envelope failed to decode. Every variant maps to
/// `NetError::Corrupt` at the transport boundary; the distinction exists
/// for diagnostics and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Bad magic or a header shorter than [`HEADER_LEN`].
    Malformed,
    /// Payload shorter than the header's length field (torn write/read).
    Torn,
    /// Envelope was stored under a different key than it was fetched with.
    KeyMismatch,
    /// Checksum over generation+key+payload does not verify.
    BadChecksum,
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// Verify and unwrap an envelope fetched under `key`. Returns the stored
/// generation, the storing operation's trace context, and the payload.
pub fn decode(key: ObjKey, bytes: &[u8]) -> Result<(u64, TraceContext, Vec<u8>), EnvelopeError> {
    if bytes.len() < HEADER_LEN || read_u32(bytes, 0) != ENVELOPE_MAGIC {
        return Err(EnvelopeError::Malformed);
    }
    let generation = read_u64(bytes, 4);
    let ds = read_u32(bytes, 12);
    let index = read_u64(bytes, 16);
    let ctx = TraceContext {
        trace: read_u64(bytes, 24),
        span: read_u32(bytes, 32),
    };
    let len = read_u32(bytes, 36) as usize;
    let sum = read_u64(bytes, 40);
    if bytes.len() != HEADER_LEN + len {
        return Err(EnvelopeError::Torn);
    }
    if ds != key.ds || index != key.index {
        return Err(EnvelopeError::KeyMismatch);
    }
    let payload = &bytes[HEADER_LEN..];
    if checksum(generation, key, ctx, payload) != sum {
        return Err(EnvelopeError::BadChecksum);
    }
    Ok((generation, ctx, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ObjKey {
        ObjKey { ds: 7, index: 42 }
    }

    fn ctx() -> TraceContext {
        TraceContext { trace: 11, span: 2 }
    }

    #[test]
    fn round_trip() {
        let payload = vec![0xabu8; 4096];
        let env = encode(3, key(), ctx(), &payload);
        assert_eq!(env.len(), HEADER_LEN + 4096);
        let (generation, got_ctx, got) = decode(key(), &env).unwrap();
        assert_eq!(generation, 3);
        assert_eq!(got_ctx, ctx());
        assert_eq!(got, payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let env = encode(0, key(), TraceContext::NONE, &[]);
        assert_eq!(decode(key(), &env), Ok((0, TraceContext::NONE, Vec::new())));
    }

    #[test]
    fn single_bit_flip_is_detected_anywhere() {
        let env = encode(9, key(), ctx(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        for byte in 0..env.len() {
            for bit in 0..8 {
                let mut bad = env.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode(key(), &bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn torn_reads_are_detected() {
        let env = encode(1, key(), ctx(), &[9u8; 128]);
        assert_eq!(
            decode(key(), &env[..env.len() - 1]),
            Err(EnvelopeError::Torn)
        );
        assert_eq!(decode(key(), &env[..10]), Err(EnvelopeError::Malformed));
        let mut longer = env.clone();
        longer.push(0);
        assert_eq!(decode(key(), &longer), Err(EnvelopeError::Torn));
    }

    #[test]
    fn wrong_key_is_detected() {
        let env = encode(1, key(), ctx(), &[5u8; 16]);
        assert_eq!(
            decode(ObjKey { ds: 7, index: 43 }, &env),
            Err(EnvelopeError::KeyMismatch)
        );
    }

    #[test]
    fn generation_is_covered_by_checksum() {
        let mut env = encode(1, key(), ctx(), &[5u8; 16]);
        env[4] = 2; // patch the generation field
        assert_eq!(decode(key(), &env), Err(EnvelopeError::BadChecksum));
    }

    #[test]
    fn trace_fields_are_covered_by_checksum() {
        let mut env = encode(1, key(), ctx(), &[5u8; 16]);
        env[24] ^= 1; // patch the trace id field
        assert_eq!(decode(key(), &env), Err(EnvelopeError::BadChecksum));
        let mut env = encode(1, key(), ctx(), &[5u8; 16]);
        env[32] ^= 1; // patch the span field
        assert_eq!(decode(key(), &env), Err(EnvelopeError::BadChecksum));
    }
}
