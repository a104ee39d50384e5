//! Property tests for [`er_service::ErService`]: under arbitrary
//! insert/delete traffic the incrementally-maintained matching stays
//! equal to a from-scratch re-match on the resident store, and the point
//! queries equal their naive references exactly: `neighbors` the gather
//! over the store's rows, `match_of` a lookup in the full matching.

use er_core::{total_cmp_desc, Side};
use er_matchers::AlgorithmKind;
use er_pipeline::SimilarityFunction;
use er_service::{ErService, ServiceConfig};
use er_textsim::{NGramScheme, VectorMeasure};
use proptest::prelude::*;

fn boot(kind: AlgorithmKind, threshold: f64) -> ErService {
    let d = er_datasets::Dataset::generate(er_datasets::DatasetId::D1, 0.02, 5);
    let f = SimilarityFunction::SchemaAgnosticVector {
        scheme: NGramScheme::Token(1),
        measure: VectorMeasure::CosineTfIdf,
    };
    let cfg = ServiceConfig {
        k: 3,
        threshold,
        algorithm: kind,
        ..ServiceConfig::default()
    };
    ErService::load(&d.left, &d.right, &f, cfg)
}

/// Apply one raw op: even selectors insert (a clone of a resident
/// profile's attributes under the next append id), odd selectors delete
/// the first live id at or after `pick`.
fn step(s: &mut ErService, sel: u8, pick: u16) {
    let side = if sel & 2 == 0 {
        Side::Left
    } else {
        Side::Right
    };
    if sel & 1 == 0 {
        let donor_side = if sel & 4 == 0 { side } else { side.opposite() };
        let n = match donor_side {
            Side::Left => s.n_left(),
            Side::Right => s.n_right(),
        };
        let Some(donor) = s.profile(donor_side, pick as u32 % n.max(1)) else {
            return;
        };
        let mut p = donor.clone();
        p.id = s.next_id(side);
        s.insert(side, &p)
            .expect("insert with handed-out id succeeds");
    } else {
        let n = match side {
            Side::Left => s.n_left(),
            Side::Right => s.n_right(),
        };
        let start = pick as u32 % n.max(1);
        if let Some(id) = (0..n)
            .map(|d| (start + d) % n)
            .find(|&i| s.is_live(side, i))
        {
            s.remove(side, id).expect("live id removes");
        }
    }
}

/// The naive reference for `neighbors(Right, right)`: gather the column
/// across every live row, then order weight descending, ids ascending.
/// Weights as bits, so equality is bit for bit.
fn gathered_column(s: &ErService, right: u32) -> Vec<(u32, u64)> {
    let csr = s.store();
    let mut out: Vec<(u32, f64)> = (0..csr.n_left())
        .flat_map(|l| {
            csr.live_row(l)
                .filter(move |&(r, _)| r == right)
                .map(move |(_, w)| (l, w))
        })
        .collect();
    out.sort_by(|a, b| total_cmp_desc(&a.1, &b.1).then(a.0.cmp(&b.0)));
    out.into_iter().map(|(l, w)| (l, w.to_bits())).collect()
}

/// The naive reference for `match_of(side, id)`: a scan of the full
/// matching.
fn looked_up(s: &mut ErService, side: Side, id: u32) -> Option<u32> {
    let m = s.matching();
    match side {
        Side::Left => m.iter().find(|&(l, _)| l == id).map(|(_, r)| r),
        Side::Right => m.iter().find(|&(_, r)| r == id).map(|(l, _)| l),
    }
}

/// The algorithms the point-query properties cover: the cascade repair,
/// the contribution-map search, and one replay algorithm.
const POINT_QUERY_KINDS: [AlgorithmKind; 3] =
    [AlgorithmKind::Umc, AlgorithmKind::Bah, AlgorithmKind::Krc];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The incremental-UMC service (the fast path) tracks the full
    /// re-match after every operation.
    #[test]
    fn umc_service_tracks_full_rematch(ops in proptest::collection::vec((0u8..8, 0u16..512), 1..10)) {
        let mut s = boot(AlgorithmKind::Umc, 0.3);
        for (sel, pick) in ops {
            step(&mut s, sel, pick);
            prop_assert_eq!(s.matching(), s.full_rematch());
            let m = s.matching();
            prop_assert!(m.is_unique_mapping());
            for (l, r) in m.iter() {
                prop_assert!(s.is_live(Side::Left, l) && s.is_live(Side::Right, r),
                    "matched a tombstoned record ({l},{r})");
            }
        }
    }

    /// A replay-fallback algorithm behind the same trait sees the same
    /// guarantee (end-state check — replay recomputes per read).
    #[test]
    fn replay_service_tracks_full_rematch(ops in proptest::collection::vec((0u8..8, 0u16..512), 1..6)) {
        let mut s = boot(AlgorithmKind::Krc, 0.3);
        for (sel, pick) in ops {
            step(&mut s, sel, pick);
        }
        prop_assert_eq!(s.matching(), s.full_rematch());
    }

    /// Neighbor reads equal the store after traffic: every left neighbor
    /// edge is live on both endpoints and shows up in its column, and
    /// every column — tombstoned and unknown ids included — equals the
    /// naive gather across rows, in order and bit for bit.
    #[test]
    fn neighbors_stay_consistent(
        kind in 0usize..3,
        ops in proptest::collection::vec((0u8..8, 0u16..512), 1..8),
    ) {
        let mut s = boot(POINT_QUERY_KINDS[kind], 0.3);
        for (sel, pick) in ops {
            step(&mut s, sel, pick);
        }
        for l in 0..s.n_left() {
            for (r, w) in s.neighbors(Side::Left, l) {
                prop_assert!(s.is_live(Side::Right, r));
                prop_assert!(s.neighbors(Side::Right, r).contains(&(l, w)));
            }
        }
        for r in 0..s.n_right() + 2 {
            let got: Vec<(u32, u64)> = s
                .neighbors(Side::Right, r)
                .into_iter()
                .map(|(l, w)| (l, w.to_bits()))
                .collect();
            prop_assert_eq!(got, gathered_column(&s, r), "neighbors(Right, {})", r);
        }
    }

    /// `match_of` equals a lookup in `matching()` for every id on both
    /// sides, unknown ids included, after every operation.
    #[test]
    fn match_of_equals_a_matching_lookup(
        kind in 0usize..3,
        ops in proptest::collection::vec((0u8..8, 0u16..512), 1..6),
    ) {
        let mut s = boot(POINT_QUERY_KINDS[kind], 0.3);
        for (sel, pick) in ops {
            step(&mut s, sel, pick);
            for side in [Side::Left, Side::Right] {
                let n = s.next_id(side);
                for id in 0..n + 2 {
                    let want = looked_up(&mut s, side, id);
                    prop_assert_eq!(s.match_of(side, id), want, "match_of({:?}, {})", side, id);
                }
            }
        }
    }
}
