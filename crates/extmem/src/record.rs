//! Fixed-width record codec for priority-queue spills.
//!
//! The external priority queue spills homogeneous records. The [`Record`]
//! trait describes a `Copy` value with a fixed on-disk width;
//! implementations are provided for integer shapes: `u32`/`u64` keys,
//! key–value pairs and edge-like triples.

/// A fixed-width, plain-old-data record.
///
/// `BYTES` must equal the number of bytes `encode` writes and `decode`
/// reads. Records are ordered via `Ord`; the priority queue sorts by that
/// ordering.
pub trait Record: Copy + Ord {
    /// Encoded width in bytes.
    const BYTES: usize;

    /// Encodes `self` into `out` (`out.len() == Self::BYTES`).
    fn encode(&self, out: &mut [u8]);

    /// Decodes a record from `buf` (`buf.len() == Self::BYTES`).
    fn decode(buf: &[u8]) -> Self;
}

impl Record for u32 {
    const BYTES: usize = 4;

    fn encode(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]])
    }
}

impl Record for u64 {
    const BYTES: usize = 8;

    fn encode(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        let mut b = [0u8; 8];
        b.copy_from_slice(buf);
        u64::from_le_bytes(b)
    }
}

impl Record for (u32, u32) {
    const BYTES: usize = 8;

    fn encode(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.0.to_le_bytes());
        out[4..].copy_from_slice(&self.1.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        (u32::decode(&buf[..4]), u32::decode(&buf[4..]))
    }
}

impl Record for (u64, u32) {
    const BYTES: usize = 12;

    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.0.to_le_bytes());
        out[8..].copy_from_slice(&self.1.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        (u64::decode(&buf[..8]), u32::decode(&buf[8..]))
    }
}

impl Record for (u32, u32, u32) {
    const BYTES: usize = 12;

    fn encode(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.0.to_le_bytes());
        out[4..8].copy_from_slice(&self.1.to_le_bytes());
        out[8..].copy_from_slice(&self.2.to_le_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        (
            u32::decode(&buf[..4]),
            u32::decode(&buf[4..8]),
            u32::decode(&buf[8..]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<R: Record + std::fmt::Debug>(r: R) {
        let mut buf = vec![0u8; R::BYTES];
        r.encode(&mut buf);
        assert_eq!(R::decode(&buf), r);
    }

    #[test]
    fn all_shapes_round_trip() {
        round_trip(0u32);
        round_trip(u32::MAX);
        round_trip(u64::MAX - 7);
        round_trip((3u32, 9u32));
        round_trip((u64::MAX, 1u32));
        round_trip((1u32, 2u32, u32::MAX));
    }

    #[test]
    fn tuple_order_is_lexicographic() {
        assert!((1u32, 9u32) < (2u32, 0u32));
        assert!((2u32, 1u32, 0u32) < (2u32, 1u32, 1u32));
    }
}
