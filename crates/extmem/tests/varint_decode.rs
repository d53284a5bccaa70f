//! Fuzz equivalence of the chunked slice decoders against the original
//! per-byte reader decoders.
//!
//! The chunked decoder (`decode_varint_slice`, `varint_run_len`,
//! `decode_ascending_gaps_slice`) replaced the `Read`-based loops on the
//! scan hot path, but the old loops (`read_varint`,
//! `read_ascending_gaps`) remain the executable specification: every
//! property here pits the two against each other on adversarial inputs
//! — max-width varints, empty records, single-vertex lists and
//! truncated streams.

use std::io::Cursor;

use proptest::prelude::*;

use mis_extmem::varint::{
    decode_ascending_gaps_slice, decode_varint_slice, encode_varint_padded, read_ascending_gaps,
    read_varint, varint_run_len, write_ascending_gaps, write_varint, SliceError, MAX_VARINT_BYTES,
};

/// Values with the distribution that matters for varints: byte-width
/// boundaries (`2^7k ± 1`), `u32::MAX`, `u64::MAX`, plus uniform noise.
fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec((0u8..16, any::<u64>()), 0..64).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(sel, raw)| match sel {
                0 => 0,
                1 => 127,
                2 => 128,
                3 => (1u64 << 14) - 1,
                4 => 1u64 << 14,
                5 => (1u64 << 21) - 1,
                6 => u64::from(u32::MAX),
                7 => u64::from(u32::MAX) + 1,
                8 => (1u64 << 63) - 1,
                9 => u64::MAX,
                _ => raw,
            })
            .collect()
    })
}

/// A strictly ascending `u32` list — the shape of a gap-coded adjacency
/// record — including empty and single-vertex lists, with ids pushed
/// toward both tiny gaps (the 4-at-a-time fast path) and huge ones.
fn arb_ascending() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec((0u8..4, any::<u32>()), 0..80).prop_map(|pairs| {
        let mut ids: Vec<u32> = pairs
            .into_iter()
            .map(|(sel, raw)| match sel {
                0 => raw % 200,              // dense head, 1-byte gaps
                1 => u32::MAX - (raw % 500), // gaps at the top of id space
                _ => raw,                    // anywhere
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    })
}

fn encode_values(values: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    for &v in values {
        write_varint(&mut buf, v).unwrap();
    }
    buf
}

fn encode_gaps(ids: &[u32]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_ascending_gaps(&mut buf, ids).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The slice decoder and the reader decoder agree value-for-value,
    // and the word-at-a-time framer agrees on the total byte length
    // without decoding anything.
    #[test]
    fn slice_decoder_matches_reader_decoder(values in arb_values()) {
        let buf = encode_values(&values);
        let mut cursor = Cursor::new(buf.as_slice());
        let mut pos = 0usize;
        for &expect in &values {
            let (got, width) = decode_varint_slice(&buf[pos..]).unwrap();
            prop_assert_eq!(got, expect);
            prop_assert_eq!(read_varint(&mut cursor).unwrap(), expect);
            pos += width;
        }
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(varint_run_len(&buf, values.len()), Ok(buf.len()));
        // Framing a longer run than the buffer holds must ask for more.
        prop_assert_eq!(varint_run_len(&buf, values.len() + 1), Err(SliceError::NeedMore));
    }

    // Max-width (10-byte padded) varints decode to the same value with
    // the full width consumed, for every byte-width class of value.
    #[test]
    fn padded_max_width_varints_decode(values in arb_values()) {
        for &v in &values {
            let padded = encode_varint_padded(v);
            prop_assert_eq!(decode_varint_slice(&padded), Ok((v, MAX_VARINT_BYTES)));
            prop_assert_eq!(read_varint(&mut Cursor::new(&padded[..])).unwrap(), v);
        }
    }

    // Gap-coded ascending lists round-trip identically through the old
    // reader decoder and the chunked slice decoder, consuming the whole
    // encoding.
    #[test]
    fn gap_decode_matches_old_decoder(ids in arb_ascending()) {
        let buf = encode_gaps(&ids);
        let mut via_reader = Vec::new();
        read_ascending_gaps(&mut Cursor::new(buf.as_slice()), &mut via_reader, ids.len()).unwrap();
        prop_assert_eq!(&via_reader, &ids);
        let mut via_slice = Vec::new();
        let consumed = decode_ascending_gaps_slice(&buf, &mut via_slice, ids.len()).unwrap();
        prop_assert_eq!(&via_slice, &ids);
        prop_assert_eq!(consumed, buf.len());
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Every strict prefix of a gap run fails with `NeedMore` (never a
    // panic, never a silent short read) and rolls the destination back.
    #[test]
    fn truncated_gap_run_rolls_back(ids in arb_ascending(), cut_sel in any::<u32>()) {
        if ids.is_empty() {
            return;
        }
        let buf = encode_gaps(&ids);
        let cut = (cut_sel as usize) % buf.len();
        let mut dst = vec![0xDEAD_BEEFu32];
        let got = decode_ascending_gaps_slice(&buf[..cut], &mut dst, ids.len());
        prop_assert_eq!(got, Err(SliceError::NeedMore));
        prop_assert_eq!(&dst[..], &[0xDEAD_BEEFu32][..]);
        // The framer reports the same truncation without decoding.
        prop_assert_eq!(varint_run_len(&buf[..cut], ids.len()), Err(SliceError::NeedMore));
    }
}

#[test]
fn empty_record_decodes_to_nothing() {
    let mut dst = Vec::new();
    assert_eq!(decode_ascending_gaps_slice(&[], &mut dst, 0), Ok(0));
    assert!(dst.is_empty());
    assert_eq!(varint_run_len(&[], 0), Ok(0));
}

#[test]
fn single_vertex_lists_round_trip() {
    for v in [0u32, 1, 127, 128, u32::MAX] {
        let buf = encode_gaps(&[v]);
        let mut dst = Vec::new();
        assert_eq!(
            decode_ascending_gaps_slice(&buf, &mut dst, 1),
            Ok(buf.len())
        );
        assert_eq!(dst, vec![v]);
    }
}

#[test]
fn corrupt_varints_are_invalid_not_panics() {
    // Eleven continuation bytes: longer than any u64 varint (the 10th
    // byte already carries payload past bit 63).
    let overlong = [0x80u8; 11];
    assert!(matches!(
        decode_varint_slice(&overlong),
        Err(SliceError::Invalid(_))
    ));
    // Nine full payload bytes then a terminator too large for the top
    // bit of a u64.
    let mut overflow = [0xFFu8; 9].to_vec();
    overflow.push(0x7F);
    assert_eq!(
        decode_varint_slice(&overflow),
        Err(SliceError::Invalid("varint overflows u64"))
    );
    // A first id beyond the u32 vertex space.
    let buf = encode_values(&[u64::from(u32::MAX) + 1]);
    let mut dst = Vec::new();
    assert_eq!(
        decode_ascending_gaps_slice(&buf, &mut dst, 1),
        Err(SliceError::Invalid("id overflows u32"))
    );
    assert!(dst.is_empty());
    // A gap that pushes the running id past u32::MAX.
    let buf = encode_values(&[u64::from(u32::MAX), 0]);
    assert_eq!(
        decode_ascending_gaps_slice(&buf, &mut dst, 2),
        Err(SliceError::Invalid("gap overflows u32"))
    );
    assert!(dst.is_empty());
}
