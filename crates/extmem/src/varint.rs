//! LEB128 variable-length integers and delta (gap) coding.
//!
//! The paper's datasets are distributed in WebGraph-compressed form \[6\];
//! the dominant tricks are exactly these two: adjacency lists sorted by
//! id are stored as *gaps*, and gaps are small, so a variable-length
//! byte code shrinks them by 2–4×. The compressed adjacency file format
//! of `mis-graph` builds on this module; scans stay strictly sequential,
//! so the semi-external model is untouched — the block transfer count
//! simply drops with the file size.

use std::io::{self, Read, Write};

/// Maximum encoded width of a `u64` (10 × 7 bits ≥ 64 bits).
pub const MAX_VARINT_BYTES: usize = 10;

/// Writes `value` as LEB128.
pub fn write_varint<W: Write>(w: &mut W, mut value: u64) -> io::Result<usize> {
    let mut buf = [0u8; MAX_VARINT_BYTES];
    let mut i = 0;
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf[i] = byte;
            i += 1;
            break;
        }
        buf[i] = byte | 0x80;
        i += 1;
    }
    w.write_all(&buf[..i])?;
    Ok(i)
}

/// Encodes `value` as a **fixed-width** LEB128 of exactly
/// [`MAX_VARINT_BYTES`] bytes, padding with redundant continuation
/// groups. [`read_varint`] decodes it like any other varint, so the
/// encoding is wire-compatible — but because the width never depends on
/// the value, a field written this way can be **patched in place** after
/// the fact (the compressed adjacency writer uses this for the `|E|`
/// header it can only know once every record is deduplicated).
pub fn encode_varint_padded(value: u64) -> [u8; MAX_VARINT_BYTES] {
    let mut buf = [0u8; MAX_VARINT_BYTES];
    for (i, byte) in buf.iter_mut().enumerate().take(MAX_VARINT_BYTES - 1) {
        *byte = ((value >> (7 * i)) & 0x7F) as u8 | 0x80;
    }
    buf[MAX_VARINT_BYTES - 1] = (value >> (7 * (MAX_VARINT_BYTES - 1))) as u8;
    buf
}

/// Writes `value` via [`encode_varint_padded`] (always
/// [`MAX_VARINT_BYTES`] bytes).
pub fn write_varint_padded<W: Write>(w: &mut W, value: u64) -> io::Result<usize> {
    w.write_all(&encode_varint_padded(value))?;
    Ok(MAX_VARINT_BYTES)
}

/// Reads one LEB128 value.
pub fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift >= 63 && b > 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflows u64",
            ));
        }
        value |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint too long",
            ));
        }
    }
}

/// Why a slice decode failed.
///
/// The chunked decoders below work on in-memory byte slices, so "the
/// slice ended mid-value" is not an error in itself — a streaming caller
/// refills its buffer and retries. Only [`SliceError::Invalid`] is a
/// hard decode failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceError {
    /// The slice ended before the value (or run) was complete. Refill
    /// and retry; at end-of-file this means a truncated input.
    NeedMore,
    /// The bytes cannot encode a valid value (overlong varint, `u64`
    /// overflow, or a gap that overflows the `u32` id space).
    Invalid(&'static str),
}

impl SliceError {
    /// Converts the failure into an `io::Error` for callers that have
    /// exhausted their input: `NeedMore` at end-of-stream is a truncated
    /// file, `Invalid` is corrupt data.
    pub fn into_io_error(self, what: &str) -> io::Error {
        match self {
            SliceError::NeedMore => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("truncated {what}: input ends mid-value"),
            ),
            SliceError::Invalid(msg) => {
                io::Error::new(io::ErrorKind::InvalidData, format!("corrupt {what}: {msg}"))
            }
        }
    }
}

/// `CONT[b] != 0` iff byte `b` carries the LEB128 continuation bit. The
/// table keeps the scalar decode loop's length dispatch free of shifts
/// and masks on the hot path.
const CONT: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut b = 0x80usize;
    while b < 256 {
        t[b] = 1;
        b += 1;
    }
    t
};

/// All-ones in every continuation-bit position of a little-endian word.
const CONT_WORD: u64 = 0x8080_8080_8080_8080;

/// Decodes one LEB128 value from the front of `buf`, returning the value
/// and the encoded width. Unlike [`read_varint`] this never touches a
/// [`Read`] impl — it is the scalar primitive of the chunked decoder.
#[inline]
pub fn decode_varint_slice(buf: &[u8]) -> Result<(u64, usize), SliceError> {
    let &b0 = buf.first().ok_or(SliceError::NeedMore)?;
    if CONT[b0 as usize] == 0 {
        return Ok((u64::from(b0), 1));
    }
    // Two-byte values (gaps 128..16384, the bulk of multi-byte gaps on
    // sparse lists) resolve with one more lookup instead of entering the
    // shift loop.
    let &b1 = buf.get(1).ok_or(SliceError::NeedMore)?;
    if CONT[b1 as usize] == 0 {
        return Ok((u64::from(b0 & 0x7F) | u64::from(b1) << 7, 2));
    }
    let mut value = u64::from(b0 & 0x7F) | u64::from(b1 & 0x7F) << 7;
    let mut shift = 14u32;
    for (i, &b) in buf.iter().enumerate().skip(2) {
        if shift >= 63 && b > 1 {
            return Err(SliceError::Invalid("varint overflows u64"));
        }
        value |= u64::from(b & 0x7F) << shift;
        if CONT[b as usize] == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
        if shift > 63 {
            return Err(SliceError::Invalid("varint too long"));
        }
    }
    Err(SliceError::NeedMore)
}

/// Byte length of the next `count` varints in `buf` **without decoding
/// them**: terminator bytes (continuation bit clear) are counted eight
/// at a time via one `u64` population count per word. This is the
/// framing primitive of the compressed scan and record index: it finds
/// record boundaries at close to memory bandwidth, so a record is only
/// decoded once it is known to be fully buffered.
///
/// Returns `Err(NeedMore)` when `buf` ends before `count` varints do.
/// The caller is responsible for validating the varints it frames; a
/// later decode rejects overlong or overflowing values.
#[inline]
pub fn varint_run_len(buf: &[u8], count: usize) -> Result<usize, SliceError> {
    let mut remaining = count;
    let mut pos = 0usize;
    while remaining >= 8 && buf.len() - pos >= 8 {
        let w = u64::from_le_bytes(buf[pos..pos + 8].try_into().expect("8-byte window"));
        let terminators = (!w & CONT_WORD).count_ones() as usize;
        if terminators > remaining {
            break; // the run ends inside this word; finish byte-wise
        }
        remaining -= terminators;
        pos += 8;
    }
    while remaining > 0 {
        let &b = buf.get(pos).ok_or(SliceError::NeedMore)?;
        remaining -= usize::from(CONT[b as usize] == 0);
        pos += 1;
    }
    Ok(pos)
}

/// Decodes `count` values written by [`write_ascending_gaps`] from the
/// front of `buf` into `dst`, returning the bytes consumed.
///
/// This is the chunked fast path of the compressed adjacency scan:
/// values decode straight off the slice with a branch-reduced inner loop
/// — runs of four single-byte gaps (the overwhelmingly common case on
/// gap-coded power-law lists) are recognised with one 4-byte load and
/// one mask test, and only multi-byte varints take the scalar
/// table-dispatched route. Results are byte-identical to
/// [`read_ascending_gaps`].
///
/// On any failure `dst` is rolled back to its original length, so a
/// streaming caller can refill its buffer and retry the whole run.
pub fn decode_ascending_gaps_slice(
    buf: &[u8],
    dst: &mut Vec<u32>,
    count: usize,
) -> Result<usize, SliceError> {
    let rollback = dst.len();
    decode_gap_run(buf, dst, count).inspect_err(|_| dst.truncate(rollback))
}

#[inline]
fn decode_gap_run(buf: &[u8], dst: &mut Vec<u32>, count: usize) -> Result<usize, SliceError> {
    if count == 0 {
        return Ok(0);
    }
    dst.reserve(count);
    // The first varint is the absolute first value. The running value is
    // a u64: every push checks the u32 bound, so `prev` never exceeds
    // u32::MAX once stored.
    let (first, mut pos) = decode_varint_slice(buf)?;
    if first > u64::from(u32::MAX) {
        return Err(SliceError::Invalid("id overflows u32"));
    }
    dst.push(first as u32);
    let mut prev = first;
    let mut i = 1usize;
    while i < count {
        let &b0 = buf.get(pos).ok_or(SliceError::NeedMore)?;
        let gap = if CONT[b0 as usize] == 0 {
            // The next gap fits one byte. Probe for the common dense run:
            // four pending one-byte gaps decode with one load, one mask
            // test and one range check. The probe is gated on `b0` being
            // a terminator so sparse (multi-byte) lists never pay for it.
            if count - i >= 4 && buf.len() - pos >= 4 {
                let w = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4-byte window"));
                if w & 0x8080_8080 == 0 {
                    let v1 = prev + u64::from(w & 0x7F) + 1;
                    let v2 = v1 + u64::from((w >> 8) & 0x7F) + 1;
                    let v3 = v2 + u64::from((w >> 16) & 0x7F) + 1;
                    let v4 = v3 + u64::from((w >> 24) & 0x7F) + 1;
                    if v4 > u64::from(u32::MAX) {
                        return Err(SliceError::Invalid("gap overflows u32"));
                    }
                    dst.extend_from_slice(&[v1 as u32, v2 as u32, v3 as u32, v4 as u32]);
                    prev = v4;
                    pos += 4;
                    i += 4;
                    continue;
                }
            }
            pos += 1;
            u64::from(b0)
        } else {
            // Scalar path: one multi-byte varint, decoded byte-wise in
            // place — indexing with a running position compiles tighter
            // than the general slice-front decoder.
            pos += 1;
            let mut gap = u64::from(b0 & 0x7F);
            let mut shift = 7u32;
            loop {
                let &b = buf.get(pos).ok_or(SliceError::NeedMore)?;
                pos += 1;
                if shift >= 63 && b > 1 {
                    return Err(SliceError::Invalid("varint overflows u64"));
                }
                gap |= u64::from(b & 0x7F) << shift;
                if CONT[b as usize] == 0 {
                    break;
                }
                shift += 7;
                if shift > 63 {
                    return Err(SliceError::Invalid("varint too long"));
                }
            }
            gap
        };
        let v = prev + gap + 1;
        if v > u64::from(u32::MAX) {
            return Err(SliceError::Invalid("gap overflows u32"));
        }
        dst.push(v as u32);
        prev = v;
        i += 1;
    }
    Ok(pos)
}

/// Encodes a **strictly ascending** `u32` sequence as first value +
/// gaps−1, all varint. Empty sequences write nothing (callers store the
/// length separately).
pub fn write_ascending_gaps<W: Write>(w: &mut W, values: &[u32]) -> io::Result<usize> {
    let mut written = 0;
    let mut prev: Option<u32> = None;
    for &v in values {
        written += match prev {
            None => write_varint(w, u64::from(v))?,
            Some(p) => {
                debug_assert!(v > p, "sequence must be strictly ascending");
                write_varint(w, u64::from(v - p) - 1)?
            }
        };
        prev = Some(v);
    }
    Ok(written)
}

/// Decodes `count` values written by [`write_ascending_gaps`] into `dst`.
pub fn read_ascending_gaps<R: Read>(r: &mut R, dst: &mut Vec<u32>, count: usize) -> io::Result<()> {
    dst.reserve(count);
    let mut prev: Option<u32> = None;
    for _ in 0..count {
        let raw = read_varint(r)?;
        let v = match prev {
            None => u32::try_from(raw)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "id overflows u32"))?,
            Some(p) => {
                let next = u64::from(p) + raw + 1;
                u32::try_from(next)
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "gap overflows u32"))?
            }
        };
        dst.push(v);
        prev = Some(v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut Cursor::new(&buf)).unwrap(), v, "value {v}");
        }
    }

    #[test]
    fn varint_small_values_are_one_byte() {
        let mut buf = Vec::new();
        assert_eq!(write_varint(&mut buf, 127).unwrap(), 1);
        assert_eq!(write_varint(&mut buf, 128).unwrap(), 2);
    }

    #[test]
    fn padded_varint_round_trips_and_is_fixed_width() {
        for v in [0u64, 1, 127, 128, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            assert_eq!(write_varint_padded(&mut buf, v).unwrap(), MAX_VARINT_BYTES);
            assert_eq!(buf.len(), MAX_VARINT_BYTES, "value {v}");
            assert_eq!(read_varint(&mut Cursor::new(&buf)).unwrap(), v, "value {v}");
        }
        // In-place patching: overwrite the bytes, decode the new value.
        let mut buf = encode_varint_padded(7).to_vec();
        buf.copy_from_slice(&encode_varint_padded(u64::from(u32::MAX) + 5));
        assert_eq!(
            read_varint(&mut Cursor::new(&buf)).unwrap(),
            u64::from(u32::MAX) + 5
        );
    }

    #[test]
    fn overlong_varint_rejected() {
        let buf = vec![0x80u8; 11];
        assert!(read_varint(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn gap_round_trip() {
        let values: Vec<u32> = vec![3, 4, 10, 1000, 1001, 4_000_000_000];
        let mut buf = Vec::new();
        write_ascending_gaps(&mut buf, &values).unwrap();
        let mut out = Vec::new();
        read_ascending_gaps(&mut Cursor::new(buf), &mut out, values.len()).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn gaps_compress_dense_lists() {
        let values: Vec<u32> = (1000..2000).collect();
        let mut buf = Vec::new();
        write_ascending_gaps(&mut buf, &values).unwrap();
        // First value 2 bytes, each consecutive gap (0) one byte.
        assert!(
            buf.len() < values.len() + 4,
            "{} bytes for {} values",
            buf.len(),
            values.len()
        );
        assert!(
            buf.len() < 4 * values.len() / 3,
            "must beat fixed u32 encoding"
        );
    }

    #[test]
    fn slice_decode_matches_reader_decode() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            let written = write_varint(&mut buf, v).unwrap();
            let (decoded, len) = decode_varint_slice(&buf).unwrap();
            assert_eq!((decoded, len), (v, written), "value {v}");
        }
        // Padded encodings decode identically.
        let padded = encode_varint_padded(u64::MAX);
        assert_eq!(
            decode_varint_slice(&padded).unwrap(),
            (u64::MAX, MAX_VARINT_BYTES)
        );
    }

    #[test]
    fn slice_decode_distinguishes_truncation_from_corruption() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000).unwrap();
        for cut in 0..buf.len() {
            assert_eq!(
                decode_varint_slice(&buf[..cut]).unwrap_err(),
                SliceError::NeedMore,
                "cut {cut}"
            );
        }
        let overlong = [0x80u8; 11];
        assert!(matches!(
            decode_varint_slice(&overlong).unwrap_err(),
            SliceError::Invalid(_)
        ));
        assert_eq!(decode_varint_slice(&[]).unwrap_err(), SliceError::NeedMore);
    }

    #[test]
    fn chunked_gap_decode_matches_reader_decode() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![u32::MAX],
            vec![3, 4, 10, 1000, 1001, 4_000_000_000],
            (1000..1400).collect(),                 // dense: all 1-byte gaps
            (0..300).map(|i| i * 50_000).collect(), // sparse: multi-byte gaps
            (0..100).map(|i| i * i * 400_000 + i).collect(),
        ];
        for values in cases {
            let mut buf = Vec::new();
            write_ascending_gaps(&mut buf, &values).unwrap();
            let mut old = Vec::new();
            read_ascending_gaps(&mut Cursor::new(&buf), &mut old, values.len()).unwrap();
            let mut new = vec![7u32]; // pre-existing content must survive
            let consumed = decode_ascending_gaps_slice(&buf, &mut new, values.len()).unwrap();
            assert_eq!(consumed, buf.len());
            assert_eq!(&new[1..], &old[..], "values {values:?}");
            assert_eq!(old, values);
        }
    }

    #[test]
    fn chunked_gap_decode_rolls_back_on_truncation() {
        let values: Vec<u32> = (10..200).collect();
        let mut buf = Vec::new();
        write_ascending_gaps(&mut buf, &values).unwrap();
        for cut in 0..buf.len() {
            let mut dst = vec![42u32];
            assert_eq!(
                decode_ascending_gaps_slice(&buf[..cut], &mut dst, values.len()).unwrap_err(),
                SliceError::NeedMore,
                "cut {cut}"
            );
            assert_eq!(dst, vec![42], "cut {cut}: rollback");
        }
    }

    #[test]
    fn gap_decode_rejects_u32_overflow() {
        // First value near the top of the id space, then a fat gap.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::from(u32::MAX - 1)).unwrap();
        write_varint(&mut buf, 1000).unwrap();
        let mut dst = Vec::new();
        assert!(matches!(
            decode_ascending_gaps_slice(&buf, &mut dst, 2).unwrap_err(),
            SliceError::Invalid(_)
        ));
        assert!(dst.is_empty(), "rollback on invalid");
    }

    #[test]
    fn run_len_frames_without_decoding() {
        let values: Vec<u32> = (0..500).map(|i| i * 37 + (i % 5) * 100_000).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut buf = Vec::new();
        write_ascending_gaps(&mut buf, &sorted).unwrap();
        assert_eq!(varint_run_len(&buf, sorted.len()).unwrap(), buf.len());
        // Prefix counts agree with scalar decoding.
        let mid = varint_run_len(&buf, 123).unwrap();
        let mut dst = Vec::new();
        let consumed = decode_ascending_gaps_slice(&buf, &mut dst, 123).unwrap();
        assert_eq!(mid, consumed);
        assert_eq!(
            varint_run_len(&buf, sorted.len() + 1).unwrap_err(),
            SliceError::NeedMore
        );
        assert_eq!(varint_run_len(&buf, 0).unwrap(), 0);
    }

    #[test]
    fn slice_error_converts_to_io_kinds() {
        assert_eq!(
            SliceError::NeedMore.into_io_error("record").kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        assert_eq!(
            SliceError::Invalid("x").into_io_error("record").kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn empty_sequence() {
        let mut buf = Vec::new();
        assert_eq!(write_ascending_gaps(&mut buf, &[]).unwrap(), 0);
        let mut out = Vec::new();
        read_ascending_gaps(&mut Cursor::new(buf), &mut out, 0).unwrap();
        assert!(out.is_empty());
    }
}
