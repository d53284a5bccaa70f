//! Block-granularity buffered streams with transfer accounting.
//!
//! In the external-memory model, data moves in blocks of `B` bytes and the
//! cost of an algorithm is the number of block transfers. [`BlockReader`]
//! and [`BlockWriter`] wrap any [`Read`]/[`Write`] source, move data in
//! fixed-size blocks, and report each transfer to a shared [`IoStats`].
//!
//! [`BlockReader`] is the one sequential reader. Its buffer holds the
//! bytes read but not yet consumed, and a record loop frames records in
//! place: [`BlockReader::available`] is the slice a codec decodes from,
//! [`BlockReader::consume`] steps past a record, and
//! [`BlockReader::refill`] appends the next block behind what is left
//! when a record runs past the end. Every block leaves the source
//! straight into that buffer, once. The fixed-width readers — the
//! degree sort's bucket files, the external priority queue's runs — use
//! its [`Read`] impl instead.
//!
//! The default block size follows the common 64 KiB choice for sequential
//! scans of spinning disks; the paper's formulas are parameterised on `B`
//! and all experiments print the block size they used.

use std::io::{self, Read, Write};
use std::sync::Arc;

use crate::stats::IoStats;

/// Default transfer block size in bytes (64 KiB).
pub const DEFAULT_BLOCK_SIZE: usize = 64 * 1024;

/// A sequential reader that reads its source one block at a time and
/// counts each block as one transfer, exposing the unconsumed bytes as
/// a slice.
#[derive(Debug)]
pub struct BlockReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// `buf[start..end]` is read and not yet consumed.
    start: usize,
    end: usize,
    /// Stream offset of `buf[start]`.
    position: u64,
    block_size: usize,
    stats: Arc<IoStats>,
}

impl<R: Read> BlockReader<R> {
    /// Wraps `inner` with the default block size.
    pub fn new(inner: R, stats: Arc<IoStats>) -> Self {
        Self::with_block_size(inner, stats, DEFAULT_BLOCK_SIZE)
    }

    /// Wraps `inner` with an explicit block size (must be non-zero).
    pub fn with_block_size(inner: R, stats: Arc<IoStats>, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        Self {
            inner,
            // Room for the next block behind any record no longer than a
            // block, so a scan allocates once.
            buf: vec![0; 2 * block_size],
            start: 0,
            end: 0,
            position: 0,
            block_size,
            stats,
        }
    }

    /// The bytes read and not yet consumed.
    #[inline]
    pub fn available(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Stream offset of the first available byte.
    #[inline]
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Marks the first `n` available bytes as consumed.
    ///
    /// # Panics
    /// If `n` exceeds the available bytes.
    #[inline]
    pub fn consume(&mut self, n: usize) {
        assert!(n <= self.end - self.start, "consumed beyond the buffer");
        self.start += n;
        self.position += n as u64;
    }

    /// Reads the next block of the source behind the available bytes and
    /// counts it as one transfer. The consumed prefix is dropped first;
    /// the buffer grows only when the available bytes and one block do
    /// not fit, i.e. when a record is longer than a block. Returns
    /// `false` when the source is exhausted and nothing was added — a
    /// record the caller still needs more bytes of is then truncated.
    pub fn refill(&mut self) -> io::Result<bool> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let want = self.end + self.block_size;
        if want > self.buf.len() {
            self.buf.resize(want.max(2 * self.buf.len()), 0);
        }
        // The source may return short counts; the block is still one
        // transfer.
        let mut filled = 0;
        while filled < self.block_size {
            match self.inner.read(&mut self.buf[self.end + filled..want]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if filled > 0 {
            self.stats.record_block_read(filled as u64);
        }
        self.end += filled;
        Ok(filled > 0)
    }
}

impl<R: Read> Read for BlockReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.start == self.end && !self.refill()? {
            return Ok(0);
        }
        let n = out.len().min(self.end - self.start);
        out[..n].copy_from_slice(&self.buf[self.start..self.start + n]);
        self.consume(n);
        Ok(n)
    }
}

/// A buffered writer that flushes whole blocks and counts each flush as one
/// block transfer.
#[derive(Debug)]
pub struct BlockWriter<W: Write> {
    /// `None` only after `finish` has taken the writer.
    inner: Option<W>,
    buf: Vec<u8>,
    block_size: usize,
    stats: Arc<IoStats>,
}

impl<W: Write> BlockWriter<W> {
    /// Wraps `inner` with the default block size.
    pub fn new(inner: W, stats: Arc<IoStats>) -> Self {
        Self::with_block_size(inner, stats, DEFAULT_BLOCK_SIZE)
    }

    /// Wraps `inner` with an explicit block size (must be non-zero).
    pub fn with_block_size(inner: W, stats: Arc<IoStats>, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be non-zero");
        Self {
            inner: Some(inner),
            buf: Vec::with_capacity(block_size),
            block_size,
            stats,
        }
    }

    fn flush_buf(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            let inner = self.inner.as_mut().expect("writer already finished");
            inner.write_all(&self.buf)?;
            self.stats.record_block_write(self.buf.len() as u64);
            self.buf.clear();
        }
        Ok(())
    }

    /// Flushes remaining bytes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_buf()?;
        let mut inner = self.inner.take().expect("writer already finished");
        inner.flush()?;
        Ok(inner)
    }
}

impl<W: Write> Write for BlockWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut rest = data;
        while !rest.is_empty() {
            let room = self.block_size - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() == self.block_size {
                self.flush_buf()?;
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_buf()?;
        self.inner
            .as_mut()
            .expect("writer already finished")
            .flush()
    }
}

impl<W: Write> Drop for BlockWriter<W> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            let _ = self.flush_buf();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    #[test]
    fn reader_counts_blocks() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let stats = IoStats::shared();
        let mut r =
            BlockReader::with_block_size(Cursor::new(data.clone()), Arc::clone(&stats), 256);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        let snap = stats.snapshot();
        // 1000 bytes over 256-byte blocks: 4 transfers (3 full + 1 partial).
        assert_eq!(snap.blocks_read, 4);
        assert_eq!(snap.bytes_read, 1000);
    }

    #[test]
    fn windows_slide_and_track_positions() {
        let data: Vec<u8> = (0..=255u8).collect();
        let stats = IoStats::shared();
        let mut r = BlockReader::with_block_size(Cursor::new(&data), Arc::clone(&stats), 64);
        assert_eq!(r.available().len(), 0);
        assert!(r.refill().unwrap());
        assert_eq!(r.position(), 0);
        assert_eq!(r.available(), &data[..64]);
        r.consume(10);
        assert_eq!(r.position(), 10);
        assert_eq!(r.available()[0], 10);
        // The next block lands behind the 54 unconsumed bytes.
        assert!(r.refill().unwrap());
        assert_eq!(r.position(), 10);
        assert_eq!(r.available(), &data[10..128]);
        // Drain everything.
        let mut total = 10;
        loop {
            let n = r.available().len();
            r.consume(n);
            total += n;
            if !r.refill().unwrap() {
                break;
            }
        }
        assert_eq!(total, 256);
        assert_eq!(r.position(), 256);
        assert!(r.available().is_empty());
        assert!(!r.refill().unwrap());
        assert_eq!(stats.snapshot().blocks_read, 4);
        assert_eq!(stats.snapshot().bytes_read, 256);
    }

    #[test]
    fn grows_when_a_record_outgrows_the_window() {
        let data = vec![7u8; 4096];
        let stats = IoStats::shared();
        let mut r = BlockReader::with_block_size(Cursor::new(&data), Arc::clone(&stats), 64);
        // Never consume: each refill must still add one block by growing.
        while r.refill().unwrap() {}
        assert_eq!(r.available().len(), 4096);
        assert_eq!(r.available()[4095], 7);
        assert_eq!(r.position(), 0);
        assert_eq!(stats.snapshot().blocks_read, 4096 / 64);
    }

    #[test]
    fn end_of_stream_keeps_a_truncated_tail() {
        let data = [1u8, 2, 3, 4, 5];
        let stats = IoStats::shared();
        let mut r = BlockReader::with_block_size(Cursor::new(&data), Arc::clone(&stats), 4);
        assert!(r.refill().unwrap());
        r.consume(3);
        assert!(r.refill().unwrap());
        assert_eq!(r.available(), &[4, 5]);
        // A record that needs a third byte finds the stream exhausted;
        // what was read stays available.
        assert!(!r.refill().unwrap());
        assert_eq!(r.available(), &[4, 5]);
        assert_eq!(r.position(), 3);
        let snap = stats.snapshot();
        assert_eq!((snap.blocks_read, snap.bytes_read), (2, 5));
    }

    #[test]
    #[should_panic(expected = "consumed beyond the buffer")]
    fn consuming_past_the_buffer_panics() {
        let mut r = BlockReader::with_block_size(Cursor::new([1u8; 8]), IoStats::shared(), 4);
        r.refill().unwrap();
        r.consume(5);
    }

    /// Reads `data` through `available`/`consume`/`refill`, taking the
    /// consume sizes from `steps` in turn, and returns the bytes and the
    /// transfers counted.
    fn read_sliced(data: &[u8], block_size: usize, steps: &[usize]) -> (Vec<u8>, u64, u64) {
        let stats = IoStats::shared();
        let mut r = BlockReader::with_block_size(Cursor::new(data), Arc::clone(&stats), block_size);
        let mut out = Vec::new();
        for &step in steps.iter().cycle() {
            // A step longer than what is available stands for a record
            // that runs past the end: refill until it fits or the
            // stream ends.
            while r.available().len() < step && r.refill().unwrap() {}
            let n = step.min(r.available().len());
            assert_eq!(r.position(), out.len() as u64);
            out.extend_from_slice(&r.available()[..n]);
            r.consume(n);
            if r.available().is_empty() && !r.refill().unwrap() {
                break;
            }
        }
        let snap = stats.snapshot();
        (out, snap.blocks_read, snap.bytes_read)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        // Any consume pattern reads the same bytes as `read_to_end`, in
        // exactly ⌈len/B⌉ blocks of `len` bytes in total.
        #[test]
        fn sliced_reads_match_read_to_end(
            data in proptest::collection::vec(any::<u8>(), 0..3000),
            block_size in 1usize..301,
            steps in proptest::collection::vec(1usize..700, 1..8),
        ) {
            let stats = IoStats::shared();
            let mut r =
                BlockReader::with_block_size(Cursor::new(&data), Arc::clone(&stats), block_size);
            let mut whole = Vec::new();
            r.read_to_end(&mut whole).unwrap();
            let blocks = data.len().div_ceil(block_size) as u64;
            let snap = stats.snapshot();
            assert_eq!(whole, data);
            assert_eq!((snap.blocks_read, snap.bytes_read), (blocks, data.len() as u64));

            let (sliced, blocks_read, bytes_read) = read_sliced(&data, block_size, &steps);
            assert_eq!(sliced, data);
            assert_eq!((blocks_read, bytes_read), (blocks, data.len() as u64));
        }
    }

    #[test]
    fn writer_counts_blocks() {
        let stats = IoStats::shared();
        let mut w = BlockWriter::with_block_size(Vec::new(), Arc::clone(&stats), 128);
        let data: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        w.write_all(&data).unwrap();
        let inner = w.finish().unwrap();
        assert_eq!(inner, data);
        let snap = stats.snapshot();
        assert_eq!(snap.blocks_written, 3); // 128 + 128 + 44
        assert_eq!(snap.bytes_written, 300);
    }

    #[test]
    fn round_trip_through_both() {
        let stats = IoStats::shared();
        let mut w = BlockWriter::with_block_size(Vec::new(), Arc::clone(&stats), 64);
        for i in 0..500u32 {
            crate::codec::write_u32(&mut w, i * 3).unwrap();
        }
        let bytes = w.finish().unwrap();
        let mut r = BlockReader::with_block_size(Cursor::new(bytes), Arc::clone(&stats), 64);
        for i in 0..500u32 {
            assert_eq!(crate::codec::read_u32(&mut r).unwrap(), i * 3);
        }
        assert_eq!(
            crate::codec::read_u32(&mut r).err().unwrap().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn empty_source_reads_zero() {
        let stats = IoStats::shared();
        let mut r = BlockReader::new(Cursor::new(Vec::<u8>::new()), Arc::clone(&stats));
        let mut buf = [0u8; 8];
        assert_eq!(r.read(&mut buf).unwrap(), 0);
        assert_eq!(stats.snapshot().blocks_read, 0);
    }

    #[test]
    #[should_panic(expected = "block size must be non-zero")]
    fn zero_block_size_panics() {
        let stats = IoStats::shared();
        let _ = BlockReader::with_block_size(Cursor::new(Vec::<u8>::new()), stats, 0);
    }

    #[test]
    fn drop_flushes_writer() {
        let stats = IoStats::shared();
        {
            let mut w = BlockWriter::with_block_size(std::io::sink(), Arc::clone(&stats), 1024);
            w.write_all(&[1, 2, 3]).unwrap();
        }
        assert_eq!(stats.snapshot().bytes_written, 3);
    }
}
