//! Golden outputs of the two-k swap (Algorithms 3–4).
//!
//! Pins the complete observable result of `TwoKSwap` on seeded power-law
//! (`P(α, β)` for β ∈ {1.8, 2.0, 2.3}) and `G(n, m)` graphs under three
//! configurations: run to convergence, the paper's 3-round early stop,
//! and every pre-swap pass on the paged path. Each case records `|IS|`,
//! the scan and paged-round counts, per-round swap counts and SC peaks,
//! the SC memory peak, and an FNV-1a hash of the final set.
//!
//! The swap-candidate bookkeeping is order-sensitive: `PAIR_CAP`
//! truncation and "the first stored pair that fires wins" both depend on
//! list insertion order. A change to that bookkeeping must reproduce
//! these lines exactly; a mismatch prints the actual table for review.
//!
//! A second table pins dense `G(n, m)` graphs on which the shrink guard
//! fires: a round whose nominees got blocked would shrink the set, so it
//! is rolled back and the run finishes with the maximality scan (an undone
//! pass leaves no open vertices to replay). Each of its
//! cases was confirmed to roll back a round under both of its
//! configurations (round 1 for the first three graphs, round 2 for the
//! last two).

use mis_core::{Greedy, SwapConfig, SwapOutcome, TwoKSwap};
use mis_graph::{CsrGraph, OrderedCsr};

/// FNV-1a (64-bit) over the set's vertex ids, little-endian.
fn fnv1a(set: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in set {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One case's pinned line: `|IS|`, scans, paged rounds, SC peak
/// vertices/bytes, per-round `in/out/sc`, and the set hash.
fn describe(out: &SwapOutcome) -> String {
    let rounds: Vec<String> = out
        .stats
        .rounds
        .iter()
        .map(|r| format!("{}/{}/{}", r.swapped_in, r.swapped_out, r.sc_peak_vertices))
        .collect();
    format!(
        "is={} scans={} paged={} sc={}/{} rounds=[{}] set={:016x}",
        out.result.set.len(),
        out.result.file_scans,
        out.stats.paged_rounds,
        out.stats.sc_peak_vertices,
        out.result.memory.sc_peak_bytes,
        rounds.join(" "),
        fnv1a(&out.result.set)
    )
}

fn graphs() -> Vec<(String, CsrGraph)> {
    let mut list = Vec::new();
    for beta in [1.8, 2.0, 2.3] {
        for seed in 0..5 {
            let g = mis_gen::plrg::Plrg::with_vertices(2_000, beta)
                .seed(seed)
                .generate();
            list.push((format!("plrg-b{beta}-s{seed}"), g));
        }
    }
    for (seed, m) in [(0, 3_000), (1, 3_000), (2, 4_500), (3, 4_500), (4, 6_000)] {
        list.push((
            format!("gnm-m{m}-s{seed}"),
            mis_gen::er::gnm(1_500, m, seed),
        ));
    }
    list
}

/// Dense `G(n, m)` graphs on which a two-k round rolls back.
fn rollback_graphs() -> Vec<(String, CsrGraph)> {
    [
        (40, 200, 11),
        (40, 240, 0),
        (30, 150, 699),
        (40, 200, 1283),
        (50, 250, 504),
    ]
    .into_iter()
    .map(|(n, m, seed)| {
        (
            format!("gnm-n{n}-m{m}-s{seed}"),
            mis_gen::er::gnm(n, m, seed),
        )
    })
    .collect()
}

fn actual_rollback_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, g) in rollback_graphs() {
        let scan = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&scan);
        for (config, swap) in [
            ("default", SwapConfig::default()),
            ("early3", SwapConfig::early_stop(3)),
        ] {
            let out = TwoKSwap::with_config(swap).run(&scan, &greedy.set);
            lines.push(format!("{name} {config}: {}", describe(&out)));
        }
    }
    lines
}

fn actual_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, g) in graphs() {
        let scan = OrderedCsr::degree_sorted(&g);
        let greedy = Greedy::new().run(&scan);
        let runs =
            [
                (
                    "default",
                    TwoKSwap::with_config(SwapConfig::default()).run(&scan, &greedy.set),
                ),
                (
                    "early3",
                    TwoKSwap::with_config(SwapConfig::early_stop(3)).run(&scan, &greedy.set),
                ),
                (
                    "paged",
                    TwoKSwap::with_config(SwapConfig::default().with_paged_threshold(1.0))
                        .run_paged(&scan, Some(&scan), &greedy.set),
                ),
            ];
        for (config, out) in runs {
            lines.push(format!("{name} {config}: {}", describe(&out)));
        }
    }
    lines
}

/// Recorded with the `FxHashMap`-of-`Vec`s SC bookkeeping that the flat
/// linked-list layout replaced. The `scans=` column was re-recorded when
/// the maximality finish began replaying the last post-swap pass's open
/// vertices in memory: every count fell by one and nothing else moved.
const GOLDEN: &[&str] = &[
    "plrg-b1.8-s0 default: is=1305 scans=5 paged=0 sc=172/1944 rounds=[18/9/155 0/0/172] set=27b2a3e8604ca4ac",
    "plrg-b1.8-s0 early3: is=1305 scans=5 paged=0 sc=172/1944 rounds=[18/9/155 0/0/172] set=27b2a3e8604ca4ac",
    "plrg-b1.8-s0 paged: is=1305 scans=3 paged=2 sc=172/1944 rounds=[18/9/155 0/0/172] set=27b2a3e8604ca4ac",
    "plrg-b1.8-s1 default: is=1309 scans=5 paged=0 sc=163/1936 rounds=[12/6/156 0/0/163] set=2935fba0915aeaee",
    "plrg-b1.8-s1 early3: is=1309 scans=5 paged=0 sc=163/1936 rounds=[12/6/156 0/0/163] set=2935fba0915aeaee",
    "plrg-b1.8-s1 paged: is=1309 scans=3 paged=2 sc=163/1936 rounds=[12/6/156 0/0/163] set=2935fba0915aeaee",
    "plrg-b1.8-s2 default: is=1310 scans=5 paged=0 sc=162/1904 rounds=[4/2/157 0/0/162] set=4e5bdeff6696a2da",
    "plrg-b1.8-s2 early3: is=1310 scans=5 paged=0 sc=162/1904 rounds=[4/2/157 0/0/162] set=4e5bdeff6696a2da",
    "plrg-b1.8-s2 paged: is=1310 scans=3 paged=2 sc=162/1904 rounds=[4/2/157 0/0/162] set=4e5bdeff6696a2da",
    "plrg-b1.8-s3 default: is=1301 scans=5 paged=0 sc=182/2004 rounds=[14/7/168 0/0/182] set=3e5cbef2dcf5f7fe",
    "plrg-b1.8-s3 early3: is=1301 scans=5 paged=0 sc=182/2004 rounds=[14/7/168 0/0/182] set=3e5cbef2dcf5f7fe",
    "plrg-b1.8-s3 paged: is=1301 scans=3 paged=2 sc=182/2004 rounds=[14/7/168 0/0/182] set=3e5cbef2dcf5f7fe",
    "plrg-b1.8-s4 default: is=1302 scans=5 paged=0 sc=161/1940 rounds=[10/5/153 0/0/161] set=21eb918ad9f8c62d",
    "plrg-b1.8-s4 early3: is=1302 scans=5 paged=0 sc=161/1940 rounds=[10/5/153 0/0/161] set=21eb918ad9f8c62d",
    "plrg-b1.8-s4 paged: is=1302 scans=3 paged=2 sc=161/1940 rounds=[10/5/153 0/0/161] set=21eb918ad9f8c62d",
    "plrg-b2-s0 default: is=1300 scans=5 paged=0 sc=177/2180 rounds=[2/1/176 0/0/177] set=f2f6a43ede3d778d",
    "plrg-b2-s0 early3: is=1300 scans=5 paged=0 sc=177/2180 rounds=[2/1/176 0/0/177] set=f2f6a43ede3d778d",
    "plrg-b2-s0 paged: is=1300 scans=3 paged=2 sc=177/2180 rounds=[2/1/176 0/0/177] set=f2f6a43ede3d778d",
    "plrg-b2-s1 default: is=1297 scans=7 paged=0 sc=162/2144 rounds=[2/2/161 2/1/159 0/0/162] set=c071be5da94d64f3",
    "plrg-b2-s1 early3: is=1297 scans=7 paged=0 sc=162/2144 rounds=[2/2/161 2/1/159 0/0/162] set=c071be5da94d64f3",
    "plrg-b2-s1 paged: is=1297 scans=4 paged=3 sc=162/2144 rounds=[2/2/161 2/1/159 0/0/162] set=c071be5da94d64f3",
    "plrg-b2-s2 default: is=1290 scans=5 paged=0 sc=161/2128 rounds=[8/4/151 0/0/161] set=8317a5d1d775245e",
    "plrg-b2-s2 early3: is=1290 scans=5 paged=0 sc=161/2128 rounds=[8/4/151 0/0/161] set=8317a5d1d775245e",
    "plrg-b2-s2 paged: is=1290 scans=3 paged=2 sc=161/2128 rounds=[8/4/151 0/0/161] set=8317a5d1d775245e",
    "plrg-b2-s3 default: is=1297 scans=5 paged=0 sc=165/2128 rounds=[4/2/162 0/0/165] set=76ba9db7eb73cfcf",
    "plrg-b2-s3 early3: is=1297 scans=5 paged=0 sc=165/2128 rounds=[4/2/162 0/0/165] set=76ba9db7eb73cfcf",
    "plrg-b2-s3 paged: is=1297 scans=3 paged=2 sc=165/2128 rounds=[4/2/162 0/0/165] set=76ba9db7eb73cfcf",
    "plrg-b2-s4 default: is=1298 scans=3 paged=0 sc=164/2148 rounds=[0/0/164] set=ef687a2a256d2695",
    "plrg-b2-s4 early3: is=1298 scans=3 paged=0 sc=164/2148 rounds=[0/0/164] set=ef687a2a256d2695",
    "plrg-b2-s4 paged: is=1298 scans=2 paged=1 sc=164/2148 rounds=[0/0/164] set=ef687a2a256d2695",
    "plrg-b2.3-s0 default: is=1240 scans=3 paged=0 sc=160/2512 rounds=[0/0/160] set=8970dfcd791776ba",
    "plrg-b2.3-s0 early3: is=1240 scans=3 paged=0 sc=160/2512 rounds=[0/0/160] set=8970dfcd791776ba",
    "plrg-b2.3-s0 paged: is=1240 scans=2 paged=1 sc=160/2512 rounds=[0/0/160] set=8970dfcd791776ba",
    "plrg-b2.3-s1 default: is=1253 scans=5 paged=0 sc=160/2436 rounds=[2/1/159 0/0/160] set=26ba899db3a16cbf",
    "plrg-b2.3-s1 early3: is=1253 scans=5 paged=0 sc=160/2436 rounds=[2/1/159 0/0/160] set=26ba899db3a16cbf",
    "plrg-b2.3-s1 paged: is=1253 scans=3 paged=2 sc=160/2436 rounds=[2/1/159 0/0/160] set=26ba899db3a16cbf",
    "plrg-b2.3-s2 default: is=1240 scans=3 paged=0 sc=170/2532 rounds=[0/0/170] set=bdbcd10a45df89dc",
    "plrg-b2.3-s2 early3: is=1240 scans=3 paged=0 sc=170/2532 rounds=[0/0/170] set=bdbcd10a45df89dc",
    "plrg-b2.3-s2 paged: is=1240 scans=2 paged=1 sc=170/2532 rounds=[0/0/170] set=bdbcd10a45df89dc",
    "plrg-b2.3-s3 default: is=1228 scans=5 paged=0 sc=162/2608 rounds=[2/1/161 0/0/162] set=26e54ef77f3de4c4",
    "plrg-b2.3-s3 early3: is=1228 scans=5 paged=0 sc=162/2608 rounds=[2/1/161 0/0/162] set=26e54ef77f3de4c4",
    "plrg-b2.3-s3 paged: is=1228 scans=3 paged=2 sc=162/2608 rounds=[2/1/161 0/0/162] set=26e54ef77f3de4c4",
    "plrg-b2.3-s4 default: is=1258 scans=3 paged=0 sc=158/2376 rounds=[0/0/158] set=6a3f4bc393b2cef8",
    "plrg-b2.3-s4 early3: is=1258 scans=3 paged=0 sc=158/2376 rounds=[0/0/158] set=6a3f4bc393b2cef8",
    "plrg-b2.3-s4 paged: is=1258 scans=2 paged=1 sc=158/2376 rounds=[0/0/158] set=6a3f4bc393b2cef8",
    "gnm-m3000-s0 default: is=705 scans=11 paged=0 sc=380/2540 rounds=[61/38/328 17/10/357 4/3/375 2/1/377 0/0/380] set=3ccad4d28dc71c6a",
    "gnm-m3000-s0 early3: is=704 scans=7 paged=0 sc=375/2540 rounds=[61/38/328 17/10/357 4/3/375] set=e0471db7570c48c2",
    "gnm-m3000-s0 paged: is=705 scans=6 paged=5 sc=380/2540 rounds=[61/38/328 17/10/357 4/3/375 2/1/377 0/0/380] set=3ccad4d28dc71c6a",
    "gnm-m3000-s1 default: is=708 scans=9 paged=0 sc=362/2376 rounds=[55/33/310 13/8/361 4/2/360 0/0/362] set=facebbfdc3d9e733",
    "gnm-m3000-s1 early3: is=708 scans=7 paged=0 sc=361/2376 rounds=[55/33/310 13/8/361 4/2/360] set=facebbfdc3d9e733",
    "gnm-m3000-s1 paged: is=708 scans=5 paged=4 sc=362/2376 rounds=[55/33/310 13/8/361 4/2/360 0/0/362] set=facebbfdc3d9e733",
    "gnm-m4500-s2 default: is=590 scans=9 paged=0 sc=334/2264 rounds=[76/49/297 20/11/326 4/2/329 0/0/334] set=d200af7e13c18ba6",
    "gnm-m4500-s2 early3: is=590 scans=7 paged=0 sc=329/2264 rounds=[76/49/297 20/11/326 4/2/329] set=d200af7e13c18ba6",
    "gnm-m4500-s2 paged: is=590 scans=5 paged=4 sc=334/2264 rounds=[76/49/297 20/11/326 4/2/329 0/0/334] set=d200af7e13c18ba6",
    "gnm-m4500-s3 default: is=578 scans=9 paged=0 sc=364/2516 rounds=[89/55/342 24/14/351 2/1/364 0/0/362] set=45c846db4b596c20",
    "gnm-m4500-s3 early3: is=578 scans=7 paged=0 sc=364/2516 rounds=[89/55/342 24/14/351 2/1/364] set=45c846db4b596c20",
    "gnm-m4500-s3 paged: is=578 scans=5 paged=4 sc=364/2516 rounds=[89/55/342 24/14/351 2/1/364 0/0/362] set=45c846db4b596c20",
    "gnm-m6000-s4 default: is=512 scans=9 paged=0 sc=339/2244 rounds=[56/35/327 13/7/338 4/2/339 0/0/335] set=ab339ceb0782c8af",
    "gnm-m6000-s4 early3: is=512 scans=7 paged=0 sc=339/2244 rounds=[56/35/327 13/7/338 4/2/339] set=ab339ceb0782c8af",
    "gnm-m6000-s4 paged: is=512 scans=5 paged=4 sc=339/2244 rounds=[56/35/327 13/7/338 4/2/339 0/0/335] set=ab339ceb0782c8af",
];

/// Recorded on the snapshot-and-restore shrink guard that the undo list
/// replaced.
const ROLLBACK_GOLDEN: &[&str] = &[
    "gnm-n40-m200-s11 default: is=10 scans=4 paged=0 sc=12/104 rounds=[] set=8585efecce75c95a",
    "gnm-n40-m200-s11 early3: is=10 scans=4 paged=0 sc=12/104 rounds=[] set=8585efecce75c95a",
    "gnm-n40-m240-s0 default: is=8 scans=4 paged=0 sc=16/136 rounds=[] set=4d26c1d20fd57e93",
    "gnm-n40-m240-s0 early3: is=8 scans=4 paged=0 sc=16/136 rounds=[] set=4d26c1d20fd57e93",
    "gnm-n30-m150-s699 default: is=6 scans=4 paged=0 sc=6/44 rounds=[] set=b4d04001c66dbeea",
    "gnm-n30-m150-s699 early3: is=6 scans=4 paged=0 sc=6/44 rounds=[] set=b4d04001c66dbeea",
    "gnm-n40-m200-s1283 default: is=10 scans=6 paged=0 sc=13/104 rounds=[3/2/8] set=8f0d762a32b1d07c",
    "gnm-n40-m200-s1283 early3: is=10 scans=6 paged=0 sc=13/104 rounds=[3/2/8] set=8f0d762a32b1d07c",
    "gnm-n50-m250-s504 default: is=12 scans=6 paged=0 sc=16/136 rounds=[3/2/13] set=5de3c5f591bc11e6",
    "gnm-n50-m250-s504 early3: is=12 scans=6 paged=0 sc=16/136 rounds=[3/2/13] set=5de3c5f591bc11e6",
];

fn assert_matches(actual: &[String], golden: &[&str]) {
    let table = actual
        .iter()
        .map(|l| format!("    \"{l}\","))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(
        actual.len(),
        golden.len(),
        "case count changed; actual table:\n{table}"
    );
    for (a, g) in actual.iter().zip(golden) {
        assert_eq!(a, g, "two-k output drifted; actual table:\n{table}");
    }
}

#[test]
fn two_k_swap_matches_golden_outputs() {
    assert_matches(&actual_lines(), GOLDEN);
}

#[test]
fn shrink_guard_rollbacks_match_golden_outputs() {
    assert_matches(&actual_rollback_lines(), ROLLBACK_GOLDEN);
}
