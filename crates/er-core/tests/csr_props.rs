//! Property tests for the two-way [`CsrGraph`]: the column index against
//! an exact reference.
//!
//! The reference for a column is the naive `O(n_left)` gather over every
//! live row ([`CsrGraph::live_row`]), the read the column index replaces.
//! After arbitrary `insert_left` / `insert_right` / `remove_left` /
//! `remove_right` / `compact` sequences, including inserts the store
//! rejects:
//! 1. `live_col(r)` equals the gather for **every** right id, tombstoned
//!    and out-of-bounds ones included, in order and weight bit for bit;
//! 2. `remove_right` returns exactly the gather taken just before it;
//! 3. `slab_bytes` counts the column index: a folded store spends 16 B per
//!    live edge (4 B row id + 8 B weight + 4 B column id) plus both offset
//!    arrays and the tombstone lists, and a store with pending deltas
//!    never reports less;
//! 4. equality stays defined by the live row state: a delta-built store,
//!    once compacted, equals `from_graph` of its own graph carrying the
//!    same tombstones, and equals the same store compacted at other
//!    points, however each column index was reached.

use er_core::{CsrGraph, GraphBuilder, SimilarityGraph};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = SimilarityGraph> {
    (1u32..12, 1u32..12).prop_flat_map(|(nl, nr)| {
        proptest::collection::btree_map((0..nl, 0..nr), 1u32..=20, 0..40).prop_map(move |edges| {
            let mut b = GraphBuilder::new(nl, nr);
            for ((l, r), w) in edges {
                b.add_edge(l, r, w as f64 * 0.05).unwrap();
            }
            b.build()
        })
    })
}

/// Raw op material: a selector, a flag that sends an insert through
/// unfiltered ids (so the store may reject it), and candidate edges as
/// `(index, weight step)`, interpreted against the store's dimensions
/// at the time.
type RawOp = (u8, bool, Vec<(u16, u8)>);

fn arb_ops() -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        (
            0u8..5,
            (0u8..4).prop_map(|f| f == 0),
            proptest::collection::vec((0u16..64, 1u8..=20), 0..6),
        ),
        1..16,
    )
}

/// The reference column: gather `right` across every live row.
fn gather(csr: &CsrGraph, right: u32) -> Vec<(u32, u64)> {
    (0..csr.n_left())
        .flat_map(|l| {
            csr.live_row(l)
                .filter(move |&(r, _)| r == right)
                .map(move |(_, w)| (l, w.to_bits()))
        })
        .collect()
}

fn column(csr: &CsrGraph, right: u32) -> Vec<(u32, u64)> {
    csr.live_col(right).map(|(l, w)| (l, w.to_bits())).collect()
}

/// Every column of the store, two ids past the end included.
fn all_columns(csr: &CsrGraph) -> Vec<Vec<(u32, u64)>> {
    (0..csr.n_right() + 2).map(|r| column(csr, r)).collect()
}

fn assert_columns_exact(csr: &CsrGraph) {
    for r in 0..csr.n_right() + 2 {
        assert_eq!(column(csr, r), gather(csr, r), "column {r}");
    }
}

/// The bytes of a folded store: both offset arrays, 16 B per live edge,
/// 4 B per tombstone.
fn folded_bytes(csr: &CsrGraph) -> usize {
    let ids = (csr.n_left() as usize + 1) + (csr.n_right() as usize + 1);
    let dead = csr.dead_left().len() + csr.dead_right().len();
    ids * 8 + csr.n_edges() * 16 + dead * 4
}

/// Apply one raw op to `csr`, checking the remove and reject contracts
/// on the way.
fn step(csr: &mut CsrGraph, sel: u8, unfiltered: bool, raw: &[(u16, u8)]) {
    let (nl, nr) = (csr.n_left(), csr.n_right());
    match sel {
        0 | 1 => {
            let left_insert = sel == 0;
            let other = if left_insert { nr } else { nl };
            let mut edges: Vec<(u32, f64)> = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            for &(idx, w) in raw {
                let w = w as f64 * 0.05;
                if unfiltered {
                    // Out-of-range, dead and duplicate ids all pass.
                    edges.push((idx as u32 % (other + 2), w));
                    continue;
                }
                if other == 0 {
                    break;
                }
                let o = idx as u32 % other;
                let live = if left_insert {
                    csr.is_live_right(o)
                } else {
                    csr.is_live_left(o)
                };
                if live && seen.insert(o) {
                    edges.push((o, w));
                }
            }
            let before = csr.clone();
            let columns = all_columns(csr);
            let res = if left_insert {
                csr.insert_left(&edges)
            } else {
                csr.insert_right(&edges)
            };
            if res.is_err() {
                assert!(unfiltered, "a filtered insert is valid");
                assert_eq!(*csr, before, "a rejected insert leaves the rows");
                assert_eq!(all_columns(csr), columns, "and the columns");
            }
        }
        2 | 3 => {
            let n = if sel == 2 { nl } else { nr };
            let start = raw.first().map(|&(i, _)| i as u32).unwrap_or(0) % n.max(1);
            let Some(id) = (0..n).map(|d| (start + d) % n).find(|&i| {
                if sel == 2 {
                    csr.is_live_left(i)
                } else {
                    csr.is_live_right(i)
                }
            }) else {
                return;
            };
            if sel == 2 {
                csr.remove_left(id).expect("live id removes");
            } else {
                let want = gather(csr, id);
                let got: Vec<(u32, u64)> = csr
                    .remove_right(id)
                    .expect("live id removes")
                    .into_iter()
                    .map(|(l, w)| (l, w.to_bits()))
                    .collect();
                assert_eq!(got, want, "remove_right({id}) returns the gather");
                assert!(column(csr, id).is_empty());
            }
        }
        4 => {
            let columns = all_columns(csr);
            csr.compact();
            assert_eq!(all_columns(csr), columns, "compact keeps column reads");
        }
        _ => unreachable!(),
    }
}

/// `from_graph` of the store's own graph, carrying the same tombstones,
/// folded: the canonical store for that live row state.
fn canonical(csr: &CsrGraph) -> CsrGraph {
    let mut c = CsrGraph::from_graph(&csr.to_graph());
    for &l in csr.dead_left() {
        c.remove_left(l).unwrap();
    }
    for &r in csr.dead_right() {
        c.remove_right(r).unwrap();
    }
    c.compact();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Columns equal the gather after every step; `remove_right` returns
    /// it; rejected inserts change nothing.
    #[test]
    fn columns_equal_the_row_gather(g in arb_graph(), ops in arb_ops()) {
        let mut csr = CsrGraph::from_graph(&g);
        assert_columns_exact(&csr);
        for (sel, unfiltered, raw) in &ops {
            step(&mut csr, *sel, *unfiltered, raw);
            assert_columns_exact(&csr);
        }
    }

    /// `slab_bytes` counts the column index: exact on a folded store,
    /// never below the folded figure with deltas pending.
    #[test]
    fn slab_bytes_count_the_column_index(g in arb_graph(), ops in arb_ops()) {
        let mut csr = CsrGraph::from_graph(&g);
        prop_assert_eq!(csr.slab_bytes(), folded_bytes(&csr));
        for (sel, unfiltered, raw) in &ops {
            step(&mut csr, *sel, *unfiltered, raw);
            prop_assert!(csr.slab_bytes() >= folded_bytes(&csr));
        }
        csr.compact();
        prop_assert_eq!(csr.slab_bytes(), folded_bytes(&csr));
    }

    /// Equality is the live row state: compaction points and build paths
    /// do not matter, and equal stores read equal columns.
    #[test]
    fn equality_is_defined_by_the_rows(g in arb_graph(), ops in arb_ops()) {
        let mut lazy = CsrGraph::from_graph(&g);
        let mut eager = lazy.clone();
        for (sel, unfiltered, raw) in &ops {
            step(&mut lazy, *sel, *unfiltered, raw);
            step(&mut eager, *sel, *unfiltered, raw);
            eager.compact();
        }
        lazy.compact();
        let canon = canonical(&lazy);
        prop_assert_eq!(&lazy, &eager);
        prop_assert_eq!(&lazy, &canon);
        prop_assert_eq!(all_columns(&lazy), all_columns(&eager));
        prop_assert_eq!(all_columns(&lazy), all_columns(&canon));
    }
}

#[test]
fn right_inserts_then_left_inserts_chain_in_order() {
    // A column appended by a right insert, then extended through the
    // column patch by a later left insert, reads back ascending.
    let mut csr = CsrGraph::from_graph(&GraphBuilder::new(3, 1).build());
    let r = csr.insert_right(&[(2, 0.5), (0, 0.25)]).unwrap();
    let l = csr.insert_left(&[(r, 0.75), (0, 1.0)]).unwrap();
    assert_eq!(
        csr.live_col(r).collect::<Vec<_>>(),
        vec![(0, 0.25), (2, 0.5), (l, 0.75)]
    );
    assert_columns_exact(&csr);
    assert_eq!(
        csr.remove_right(r).unwrap(),
        vec![(0, 0.25), (2, 0.5), (l, 0.75)]
    );
    assert_columns_exact(&csr);
    assert_eq!(csr.n_edges(), 1);
}
