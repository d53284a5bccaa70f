//! Criterion micro-benchmarks for the gap-varint decoders: the original
//! per-byte reader loop (`read_ascending_gaps`) against the chunked
//! slice decoder (`decode_ascending_gaps_slice`) on the two gap
//! distributions that matter — dense power-law lists (almost all 1-byte
//! gaps, the 4-at-a-time fast path) and uniform sparse lists (mixed
//! multi-byte gaps, the scalar table-dispatched path). The framing
//! primitive `varint_run_len` is measured separately: it is the
//! per-record cost the compressed scan pays to find a record's end
//! before decoding it.

use std::io::Cursor;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mis_extmem::varint::{
    decode_ascending_gaps_slice, read_ascending_gaps, varint_run_len, write_ascending_gaps,
};

/// Deterministic 64-bit mix (splitmix64) — no RNG dependency needed.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Ascending ids with gaps drawn from `1..=max_gap` — `max_gap = 100`
/// keeps nearly every encoded gap in one byte (a dense power-law
/// neighbourhood); `max_gap = 30_000` forces a 2–3-byte mix (uniform
/// sparse ids) while 100k draws still fit the u32 id space.
fn ascending_ids(n: usize, max_gap: u64, seed: u64) -> Vec<u32> {
    let mut ids = Vec::with_capacity(n);
    let mut cur = 0u64;
    for i in 0..n {
        cur += 1 + mix(seed.wrapping_add(i as u64)) % max_gap;
        ids.push(u32::try_from(cur.min(u64::from(u32::MAX))).unwrap());
    }
    ids.dedup();
    ids
}

fn bench_gap_decode(c: &mut Criterion) {
    for (name, max_gap) in [("power_law_dense", 100u64), ("uniform_sparse", 30_000)] {
        let ids = ascending_ids(100_000, max_gap, 7);
        let mut encoded = Vec::new();
        write_ascending_gaps(&mut encoded, &ids).unwrap();

        let mut group = c.benchmark_group(format!("gap_decode/{name}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements(ids.len() as u64));
        group.bench_function("old_reader_per_byte", |b| {
            let mut dst = Vec::with_capacity(ids.len());
            b.iter(|| {
                dst.clear();
                read_ascending_gaps(&mut Cursor::new(encoded.as_slice()), &mut dst, ids.len())
                    .unwrap();
                dst.len()
            })
        });
        group.bench_function("new_chunked_slice", |b| {
            let mut dst = Vec::with_capacity(ids.len());
            b.iter(|| {
                dst.clear();
                decode_ascending_gaps_slice(&encoded, &mut dst, ids.len()).unwrap();
                dst.len()
            })
        });
        group.bench_function("frame_only_run_len", |b| {
            b.iter(|| varint_run_len(&encoded, ids.len()).unwrap())
        });
        group.finish();
    }
}

criterion_group!(benches, bench_gap_decode);
criterion_main!(benches);
