//! Little-endian primitive codecs shared by all on-disk formats.
//!
//! All file formats in this workspace (adjacency files, sorted runs,
//! priority-queue spills) are sequences of little-endian integers. These
//! helpers keep the encode/decode sites short and uniform.

use std::io::{self, Read, Write};

/// Writes a `u32` in little-endian order.
pub fn write_u32<W: Write>(w: &mut W, value: u32) -> io::Result<()> {
    w.write_all(&value.to_le_bytes())
}

/// Writes a `u64` in little-endian order.
pub fn write_u64<W: Write>(w: &mut W, value: u64) -> io::Result<()> {
    w.write_all(&value.to_le_bytes())
}

/// Reads a little-endian `u32`.
pub fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads a little-endian `u64`.
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn u32_round_trip() {
        let mut buf = Vec::new();
        write_u32(&mut buf, 0).unwrap();
        write_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        write_u32(&mut buf, u32::MAX).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_u32(&mut cur).unwrap(), 0);
        assert_eq!(read_u32(&mut cur).unwrap(), 0xDEAD_BEEF);
        assert_eq!(read_u32(&mut cur).unwrap(), u32::MAX);
    }

    #[test]
    fn u64_round_trip() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX - 1).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_u64(&mut cur).unwrap(), u64::MAX - 1);
    }

    #[test]
    fn short_read_is_error() {
        let mut cur = Cursor::new(vec![1u8, 2]);
        assert!(read_u32(&mut cur).is_err());
    }
}
