//! Gap-compressed adjacency files (WebGraph-style).
//!
//! The paper reads its biggest inputs in compressed form \[6\]; this module
//! provides the same capability for our pipeline as [`GapCodec`], the
//! second [`RecordCodec`] of [`crate::adjfile`]. Writer, reader, record
//! loops, record index and paged fetch are the shared ones; only the
//! encoding below is this module's. Layout:
//!
//! ```text
//! magic   "MISADJC1"          8 bytes
//! |V|     varint
//! |E|     fixed-width varint  10 bytes (patchable in place, see below)
//! record* |V| times:
//!     vertex   varint
//!     degree   varint
//!     nbrs     ascending gap-coded varints (see mis_extmem::varint)
//! ```
//!
//! The `|E|` header is written as a **fixed-width padded varint**
//! ([`mis_extmem::varint::write_varint_padded`]): the codec sorts and
//! deduplicates each neighbour list (gap coding needs strict
//! monotonicity), so the true undirected edge count is only known after
//! the last record — [`crate::adjfile::RecordWriter::finish`] counts the
//! entries actually written and patches the header in place when a
//! multigraph source made the original `|E|` a lie. Readers decode the
//! padded field like any other varint, so older compact-width files stay
//! readable.
//!
//! Neighbour lists are stored sorted by **id**, which differs from the
//! uncompressed [`crate::AdjFile`] convention of neighbour-degree order.
//! The scan-order of *records* is preserved, which is what the
//! algorithms' correctness and conflict resolution depend on; neighbour
//! order within a record only affects greedy tie-breaking inside
//! Algorithm 5's star choice, not any invariant. On the paper's
//! power-law analogues the compressed file is ~2–3× smaller, so every
//! scan moves proportionally fewer blocks.
//!
//! Records are framed without being decoded: [`varint_run_len`] counts
//! gap terminators a word at a time, so the record index build and the
//! paged fetch find where a record ends at close to memory bandwidth.
//! The index therefore stores only byte offsets (`8|V|` bytes, as for
//! plain files).

use std::io;
use std::path::Path;
use std::sync::Arc;

use mis_extmem::varint::{
    decode_ascending_gaps_slice, decode_varint_slice, varint_run_len, write_ascending_gaps,
    write_varint, write_varint_padded, SliceError,
};
use mis_extmem::IoStats;

use crate::adjfile::{Frame, RecordCodec, RecordFile, RecordWriter};
use crate::scan::GraphScan;
use crate::VertexId;

/// The varint/gap-coded `MISADJC1` codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct GapCodec;

impl RecordCodec for GapCodec {
    const MAGIC: &'static [u8; 8] = b"MISADJC1";
    /// One-byte vertex and degree varints, no neighbours.
    const MIN_RECORD_BYTES: u64 = 2;
    const STORAGE: &'static str = "adj-file-compressed";
    const PAGED_STORAGE: &'static str = "cadj-file+pager";

    fn encode_header(num_vertices: u64, num_edges: u64, out: &mut Vec<u8>) -> io::Result<()> {
        write_varint(out, num_vertices)?;
        write_varint_padded(out, num_edges)?;
        Ok(())
    }

    fn parse_header(fields: &[u8]) -> Result<(u64, u64, usize), SliceError> {
        let (num_vertices, a) = decode_varint_slice(fields)?;
        let (num_edges, b) = decode_varint_slice(&fields[a..])?;
        Ok((num_vertices, num_edges, a + b))
    }

    /// Sorts and deduplicates the list first: gap coding needs strictly
    /// ascending ids.
    fn encode_record(
        vertex: VertexId,
        neighbors: &[VertexId],
        scratch: &mut Vec<VertexId>,
        out: &mut Vec<u8>,
    ) -> io::Result<usize> {
        scratch.clear();
        scratch.extend_from_slice(neighbors);
        scratch.sort_unstable();
        scratch.dedup();
        write_varint(out, u64::from(vertex))?;
        write_varint(out, scratch.len() as u64)?;
        write_ascending_gaps(out, scratch)?;
        Ok(scratch.len())
    }

    #[inline]
    fn frame(bytes: &[u8], degree_cap: u64) -> Result<Frame, SliceError> {
        let (vertex, a) = decode_varint_slice(bytes)?;
        if vertex > u64::from(u32::MAX) {
            return Err(SliceError::Invalid("vertex id overflows u32"));
        }
        let (degree, b) = decode_varint_slice(&bytes[a..])?;
        // A simple-graph record can never list more neighbours than there
        // are vertices; treating larger degrees as corruption also stops a
        // truncated/garbage file from driving a huge allocation.
        if degree > degree_cap {
            return Err(SliceError::Invalid("degree exceeds vertex count"));
        }
        let header = a + b;
        let body = varint_run_len(&bytes[header..], degree as usize)?;
        Ok(Frame {
            vertex: vertex as VertexId,
            degree: degree as usize,
            header,
            len: header + body,
        })
    }

    #[inline]
    fn decode(body: &[u8], degree: usize, dst: &mut Vec<VertexId>) -> Result<(), SliceError> {
        decode_ascending_gaps_slice(body, dst, degree).map(|_| ())
    }
}

/// A readable gap-compressed adjacency file.
pub type CompressedAdjFile = RecordFile<GapCodec>;

/// Streaming writer for gap-compressed adjacency files.
pub type CompressedAdjWriter = RecordWriter<GapCodec>;

/// Writes `graph` (any scannable source) as a compressed adjacency file,
/// preserving the source's record order.
pub fn compress_adj<G: GraphScan + ?Sized>(
    graph: &G,
    path: &Path,
    stats: Arc<IoStats>,
    block_size: usize,
) -> io::Result<CompressedAdjFile> {
    let mut writer = CompressedAdjWriter::create(
        path,
        graph.num_vertices() as u64,
        graph.num_edges(),
        Arc::clone(&stats),
        block_size,
    )?;
    writer.write_scan(graph)?;
    writer.finish()?;
    CompressedAdjFile::open_with_block_size(path, stats, block_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjfile::AdjFileWriter;
    use crate::csr::CsrGraph;
    use crate::AdjFile;
    use mis_extmem::ScratchDir;

    fn sample() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 5)])
    }

    #[test]
    fn round_trips_the_graph() {
        let g = sample();
        let dir = ScratchDir::new("cadj").unwrap();
        let stats = IoStats::shared();
        let file = compress_adj(&g, &dir.file("g.cadj"), stats, 256).unwrap();
        assert_eq!(file.num_vertices(), 6);
        assert_eq!(file.num_edges(), 6);
        let mut records = Vec::new();
        file.scan(&mut |v, ns| records.push((v, ns.to_vec())))
            .unwrap();
        assert_eq!(records.len(), 6);
        // Neighbour lists id-sorted.
        assert_eq!(records[0], (0, vec![1, 2, 5]));
        assert_eq!(records[5], (5, vec![0]));
    }

    #[test]
    fn compresses_power_law_graphs() {
        let g = mis_gen_free_plrg(4000);
        let dir = ScratchDir::new("cadj-size").unwrap();
        let stats = IoStats::shared();
        let raw = crate::builder::build_adj_file(&g, &dir.file("g.adj"), Arc::clone(&stats), 4096)
            .unwrap();
        let compressed = compress_adj(&g, &dir.file("g.cadj"), stats, 4096).unwrap();
        let raw_bytes = raw.disk_bytes().unwrap();
        let comp_bytes = compressed.disk_bytes().unwrap();
        assert!(
            comp_bytes * 2 < raw_bytes,
            "expected ≥2x compression, got {raw_bytes} -> {comp_bytes}"
        );
    }

    /// Deterministic power-law-ish graph without depending on mis-gen
    /// (which would create a dependency cycle).
    fn mis_gen_free_plrg(n: u32) -> CsrGraph {
        let mut edges = Vec::new();
        let mut s = 7u64;
        for v in 1..n {
            // Preferential-attachment flavoured: connect to a random
            // earlier vertex biased toward small ids.
            for _ in 0..2 {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let t = ((s >> 33) % u64::from(v)) as u32;
                let t = t / 2; // bias to low ids = heavy tail
                edges.push((t, v));
            }
        }
        CsrGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn algorithms_agree_with_uncompressed() {
        let g = mis_gen_free_plrg(2000);
        let dir = ScratchDir::new("cadj-agree").unwrap();
        let stats = IoStats::shared();
        let compressed = compress_adj(&g, &dir.file("g.cadj"), Arc::clone(&stats), 1024).unwrap();
        // Baseline greedy depends only on record order (same) and the set
        // of neighbours (same), so the outcomes must be identical.
        let mut in_mem = Vec::new();
        let mut on_disk = Vec::new();
        // Emulate greedy over both scans.
        for (scan, out) in [
            (&g as &dyn GraphScan, &mut in_mem),
            (&compressed as &dyn GraphScan, &mut on_disk),
        ] {
            let mut state = vec![0u8; scan.num_vertices()];
            scan.scan(&mut |v, ns| {
                if state[v as usize] == 0 {
                    state[v as usize] = 1;
                    for &u in ns {
                        if state[u as usize] == 0 {
                            state[u as usize] = 2;
                        }
                    }
                }
            })
            .unwrap();
            out.extend((0..scan.num_vertices()).filter(|&v| state[v] == 1));
        }
        assert_eq!(in_mem, on_disk);
    }

    #[test]
    fn rejects_wrong_magic() {
        let dir = ScratchDir::new("cadj-bad").unwrap();
        let path = dir.file("bad.cadj");
        std::fs::write(&path, b"MISADJ01________").unwrap();
        assert!(CompressedAdjFile::open(&path, IoStats::shared()).is_err());
    }

    #[test]
    fn incomplete_writer_errors() {
        let dir = ScratchDir::new("cadj-inc").unwrap();
        let w =
            CompressedAdjWriter::create(&dir.file("i.cadj"), 3, 0, IoStats::shared(), 256).unwrap();
        assert!(w.finish().is_err());
    }

    #[test]
    fn scan_counts_io() {
        let g = sample();
        let dir = ScratchDir::new("cadj-io").unwrap();
        let stats = IoStats::shared();
        let file = compress_adj(&g, &dir.file("g.cadj"), Arc::clone(&stats), 256).unwrap();
        let before = stats.snapshot();
        file.scan(&mut |_, _| {}).unwrap();
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.scans_started, 1);
        assert!(delta.blocks_read >= 1);
    }

    /// Regression for the `MISADJC1` `|E|` lie: a multigraph source whose
    /// duplicate edges are deduplicated by the writer must not leave the
    /// header overstating the edge count.
    #[test]
    fn duplicate_edges_patch_the_edge_header() {
        let dir = ScratchDir::new("cadj-dup").unwrap();
        let stats = IoStats::shared();
        // A plain adjacency file *can* hold duplicate entries; claim 3
        // edges where only 2 are distinct.
        let adj_path = dir.file("dup.adj");
        let mut w = AdjFileWriter::create(&adj_path, 3, 3, Arc::clone(&stats), 256).unwrap();
        w.write_record(0, &[1, 1, 2]).unwrap();
        w.write_record(1, &[0, 0]).unwrap();
        w.write_record(2, &[0]).unwrap();
        w.finish().unwrap();
        let adj = AdjFile::open(&adj_path, Arc::clone(&stats)).unwrap();
        assert_eq!(adj.num_edges(), 3, "the plain header repeats the claim");

        let compressed = compress_adj(&adj, &dir.file("dup.cadj"), stats, 256).unwrap();
        assert_eq!(
            compressed.num_edges(),
            2,
            "dedup shrank the file; the |E| header must say so"
        );
        let mut total = 0u64;
        compressed
            .scan(&mut |_, ns| total += ns.len() as u64)
            .unwrap();
        assert_eq!(total, 2 * compressed.num_edges());
    }

    #[test]
    fn asymmetric_source_is_rejected() {
        let dir = ScratchDir::new("cadj-asym").unwrap();
        let mut w =
            CompressedAdjWriter::create(&dir.file("a.cadj"), 2, 1, IoStats::shared(), 256).unwrap();
        w.write_record(0, &[1]).unwrap();
        w.write_record(1, &[]).unwrap(); // edge (0,1) missing its mirror
        let err = w.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("asymmetric"), "{err}");
    }

    #[test]
    fn scan_validates_header_against_open_metadata() {
        let g = sample();
        let dir = ScratchDir::new("cadj-swap").unwrap();
        let stats = IoStats::shared();
        let path = dir.file("g.cadj");
        let file = compress_adj(&g, &path, Arc::clone(&stats), 256).unwrap();
        // Replace the file behind the handle's back with a smaller graph.
        let tiny = CsrGraph::from_edges(2, &[(0, 1)]);
        compress_adj(&tiny, &path, Arc::clone(&stats), 256).unwrap();
        let err = file.scan(&mut |_, _| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("header changed"), "{err}");
    }
}
