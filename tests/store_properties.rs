//! Property-based tests for the disk-resident store: round-trips of both
//! snapshot layouts (compressed v5, demand-paged v7) over random graphs and
//! refined indexes, plus robustness against corruption. Randomness comes
//! from the in-repo seeded PRNG, so every failure reproduces from its case
//! number.

use mrx::datagen::{random_graph, Prng, RandomGraphConfig};
use mrx::graph::{DataGraph, FrozenGraph};
use mrx::index::{MStarIndex, QuerySession, TrustPolicy};
use mrx::path::{eval_data, PathExpr};
use mrx::store::{load_compressed_from, paged_image, save_compressed_to, PagedFile, StoreError};
use mrx::workload::{Workload, WorkloadConfig};
use mrx_error::MrxError;

/// The v5 image of `idx` over `g`.
fn v5_image(g: &DataGraph, idx: &MStarIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    save_compressed_to(&mut buf, &FrozenGraph::freeze(g), &idx.freeze_compressed()).unwrap();
    buf
}

/// The v7 image of `idx` over `g`, with small pages so images span many.
fn v7_image(g: &DataGraph, idx: &MStarIndex) -> Vec<u8> {
    paged_image(&FrozenGraph::freeze(g), &idx.freeze_compressed(), 256).unwrap()
}

/// Opens a v7 image and touches everything it holds: every component, a
/// query, and the full page-checksum walk.
fn open_v7(image: &[u8], q: &PathExpr) -> Result<(), StoreError> {
    let mut f = PagedFile::open_bytes(image.to_vec(), 1 << 20)?;
    f.ensure_loaded(usize::MAX)?;
    let (graph, star) = f.activate(q)?;
    match QuerySession::new(TrustPolicy::Proven).try_serve(star, graph, q) {
        Ok(_) => {}
        Err(MrxError::Store(e)) => return Err(e),
        Err(e) => panic!("unbudgeted serving failed outside the store: {e}"),
    }
    f.verify()
}

/// Typed-or-Ok, by construction of the error enum: any panic (index out of
/// bounds, capacity overflow, unwrap) fails the harness, which is the
/// property under test.
fn assert_typed(r: Result<(), StoreError>) {
    match r {
        Ok(())
        | Err(
            StoreError::Checksum { .. }
            | StoreError::Format(_)
            | StoreError::Io(_)
            | StoreError::Retired { .. },
        ) => {}
    }
}

#[test]
fn graph_roundtrip_is_exact() {
    for case in 0..48u64 {
        let mut rng = Prng::seed_from_u64(0x60AD ^ case);
        let g = random_graph(
            &RandomGraphConfig {
                nodes: rng.gen_range(1..80usize),
                labels: rng.gen_range(1..6usize),
                extra_edge_ratio: rng.gen_range(0.0..0.8),
                allow_cycles: true,
            },
            rng.next_u64(),
        );
        let idx = MStarIndex::new(&g);
        let fg = FrozenGraph::freeze(&g);
        let (g5, _) = load_compressed_from(&v5_image(&g, &idx)[..]).unwrap();
        assert_eq!(g5, fg, "case {case}: v5 graph");
        let f7 = PagedFile::open_bytes(v7_image(&g, &idx), 1 << 20).unwrap();
        assert_eq!(f7.graph().to_frozen().unwrap(), fg, "case {case}: v7 graph");
        for v in g.nodes() {
            assert_eq!(g.label_str(g.label(v)), g5.label_str(g5.label(v)));
            assert_eq!(g.children(v), g5.children(v));
            assert_eq!(g.parents(v), g5.parents(v));
        }
    }
}

#[test]
fn mstar_roundtrip_preserves_everything() {
    for case in 0..24u64 {
        let mut rng = Prng::seed_from_u64(0x57A6 ^ case);
        let g = random_graph(
            &RandomGraphConfig {
                nodes: rng.gen_range(10..60usize),
                labels: 4,
                extra_edge_ratio: 0.4,
                allow_cycles: true,
            },
            rng.next_u64(),
        );
        let w = Workload::generate(
            &g,
            &WorkloadConfig {
                max_path_len: 3,
                num_queries: 6,
                seed: rng.next_u64(),
                max_enumerated_paths: 10_000,
            },
        );
        let mut idx = MStarIndex::new(&g);
        for q in &w.queries {
            idx.refine_for(&g, q);
        }
        let cz = idx.freeze_compressed();
        let (g5, cz5) = load_compressed_from(&v5_image(&g, &idx)[..]).unwrap();
        assert_eq!(cz5, cz, "case {case}: v5 index");
        let mut f7 = PagedFile::open_bytes(v7_image(&g, &idx), 1 << 20).unwrap();
        f7.ensure_loaded(usize::MAX).unwrap();
        assert_eq!(f7.component_count(), idx.max_k() + 1);
        assert_eq!(f7.mutation_epoch(), idx.mutation_epoch());
        // proven similarities survive, so sound answers stay identical
        for q in &w.queries {
            let truth = eval_data(&g, &q.compile(&g));
            let mut session = QuerySession::new(TrustPolicy::Proven);
            assert_eq!(
                session.serve(&cz5, &g5, q).nodes,
                truth,
                "case {case}: v5 {q}"
            );
            let (g7, star7) = f7.activate(q).unwrap();
            let mut session = QuerySession::new(TrustPolicy::Proven);
            assert_eq!(
                session.try_serve(star7, g7, q).unwrap().nodes,
                truth,
                "case {case}: v7 {q}"
            );
        }
    }
}

#[test]
fn single_byte_corruption_never_panics_and_rarely_passes() {
    for case in 0..48u64 {
        let mut rng = Prng::seed_from_u64(0xC0DE ^ case);
        let g = random_graph(
            &RandomGraphConfig {
                nodes: 20,
                labels: 3,
                extra_edge_ratio: 0.3,
                allow_cycles: true,
            },
            rng.next_u64(),
        );
        let mut idx = MStarIndex::new(&g);
        idx.refine_for(&g, &PathExpr::parse("//l0/l1").unwrap());
        let mut buf = v5_image(&g, &idx);
        let i = rng.gen_range(0..buf.len());
        buf[i] ^= 0x5A;
        // Must not panic; anything but silent acceptance of a *different*
        // index is fine. (Flips inside the directory or a length prefix
        // surface as Format/Io errors; flips in payloads trip the
        // checksum.)
        match load_compressed_from(&buf[..]) {
            Ok((g2, cz2)) => {
                // The flip hit a byte that decodes identically (e.g. inside
                // the directory, which the sequential loader skips). Accept
                // only if the result is indistinguishable.
                assert_eq!(g2, FrozenGraph::freeze(&g));
                assert_eq!(cz2, idx.freeze_compressed());
            }
            Err(
                StoreError::Checksum { .. }
                | StoreError::Format(_)
                | StoreError::Io(_)
                | StoreError::Retired { .. },
            ) => {}
        }
    }
}

/// Builds a small refined snapshot pair (v5 compressed bytes, v7
/// demand-paged bytes) from one seeded random graph.
fn snapshot_pair(seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = Prng::seed_from_u64(seed);
    let g = random_graph(
        &RandomGraphConfig {
            nodes: rng.gen_range(12..48usize),
            labels: 4,
            extra_edge_ratio: 0.3,
            allow_cycles: true,
        },
        rng.next_u64(),
    );
    let mut idx = MStarIndex::new(&g);
    idx.refine_for(&g, &PathExpr::parse("//l0/l1").unwrap());
    idx.refine_for(&g, &PathExpr::parse("//l2").unwrap());
    (v5_image(&g, &idx), v7_image(&g, &idx))
}

/// Applies `count` seeded byte mutations (xor, overwrite, or splice-out)
/// to `buf` in place.
fn mutate_bytes(buf: &mut Vec<u8>, rng: &mut Prng, count: usize) {
    for _ in 0..count {
        if buf.is_empty() {
            return;
        }
        let at = rng.gen_range(0..buf.len());
        match rng.gen_range(0..3usize) {
            0 => buf[at] ^= (rng.next_u64() % 255 + 1) as u8,
            1 => buf[at] = rng.next_u64() as u8,
            _ => {
                // Remove a short run, shifting everything after it — models
                // a lost block rather than a flipped one.
                let run = rng.gen_range(1..9usize).min(buf.len() - at);
                buf.drain(at..at + run);
            }
        }
    }
}

/// Seeded multi-byte mutation over both snapshot layouts: every mutated
/// image must either load (the mutation hit dead bytes such as directory
/// padding) or fail with a typed `StoreError` — never panic. On v7 the
/// "load" is open + full activation + a query + the page-checksum walk. Exercises
/// 1..=8 mutations per image so shifted lengths, spliced sections, and
/// compound corruptions are all covered, not just single flips.
#[test]
fn seeded_multibyte_mutation_parses_or_errors_typed() {
    for case in 0..96u64 {
        let mut rng = Prng::seed_from_u64(0xFA17 ^ case);
        let (v5, v7) = snapshot_pair(rng.next_u64());
        let q = PathExpr::parse("//l0/l1").unwrap();
        let mut buf = v5.clone();
        let n = rng.gen_range(1..9usize);
        mutate_bytes(&mut buf, &mut rng, n);
        assert_typed(load_compressed_from(&buf[..]).map(|_| ()));
        let mut buf = v7.clone();
        let n = rng.gen_range(1..9usize);
        mutate_bytes(&mut buf, &mut rng, n);
        assert_typed(open_v7(&buf, &q));
    }
}

/// Fixed-seed regression cases for the mutation property. The seeds below
/// reproduce corruption shapes that exercised every rejection family
/// (checksum, format, io) during the initial fuzzing sweep; they pin the
/// loader's behaviour so a refactor that reintroduces a panicking path
/// fails here with a reproducible case number.
#[test]
fn mutation_regression_seeds_stay_typed() {
    // (seed, mutations) pairs covering: header damage, directory damage,
    // mid-payload splice, tail truncation-by-drain, and compound hits.
    const CASES: &[(u64, usize)] = &[
        (0xFA17, 1),
        (0xFA17 ^ 7, 3),
        (0xFA17 ^ 23, 8),
        (0xDEAD_BEEF, 2),
        (0x0BAD_F00D, 5),
        (42, 8),
    ];
    for &(seed, n) in CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let (v5, v7) = snapshot_pair(rng.next_u64());
        let q = PathExpr::parse("//l2").unwrap();
        for image in [&v5, &v7] {
            let mut buf = image.clone();
            mutate_bytes(&mut buf, &mut rng, n);
            assert_typed(load_compressed_from(&buf[..]).map(|_| ()));
            assert_typed(open_v7(&buf, &q));
        }
    }
}

#[test]
fn truncation_is_an_io_or_format_error() {
    for case in 0..48u64 {
        let mut rng = Prng::seed_from_u64(0x7A11 ^ case);
        let g = random_graph(
            &RandomGraphConfig {
                nodes: 15,
                labels: 3,
                extra_edge_ratio: 0.2,
                allow_cycles: false,
            },
            rng.next_u64(),
        );
        let idx = MStarIndex::new(&g);
        let q = PathExpr::parse("//l0").unwrap();
        let v5 = v5_image(&g, &idx);
        let n = rng.gen_range(0..v5.len().saturating_sub(1).max(1));
        assert!(matches!(
            load_compressed_from(&v5[..n]),
            Err(StoreError::Io(_) | StoreError::Format(_))
        ));
        let v7 = v7_image(&g, &idx);
        let n = rng.gen_range(0..v7.len().saturating_sub(1).max(1));
        assert!(matches!(
            open_v7(&v7[..n], &q),
            Err(StoreError::Io(_) | StoreError::Format(_))
        ));
    }
}
