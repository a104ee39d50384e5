//! Property tests for the core substrate.
//!
//! The matcher views are checked against the textbook paths they
//! replace, kept here as test-side references: a comparator sort by
//! `edge_key_desc` for [`SortedEdges::from_edges`]'s bucketed key sort,
//! and a per-node sort of each neighbor list for the scatter-only
//! [`Adjacency::from_sorted`]. The tie-heavy strategy draws most weights
//! from {-0.0, 0.0, 0.25, 0.5, 1.0}, so equal weights, the sign of zero
//! and the id tie-breaks decide most comparisons.

use er_core::float::edge_key_desc;
use er_core::{
    min_max_normalize, Adjacency, Edge, GraphBuilder, GroundTruth, Matching, Neighbor,
    SimilarityGraph, SortedEdges, ThresholdGrid, UnionFind,
};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = SimilarityGraph> {
    (1u32..20, 1u32..20).prop_flat_map(|(nl, nr)| {
        proptest::collection::btree_map((0..nl, 0..nr), 0.0f64..=1.0, 0..60).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(nl, nr);
                for ((l, r), w) in edges {
                    b.add_edge(l, r, w).unwrap();
                }
                b.build()
            },
        )
    })
}

/// The tied weights; `-0.0` and `0.0` are distinct under `total_cmp`.
const TIES: [f64; 5] = [-0.0, 0.0, 0.25, 0.5, 1.0];

/// Five draws in seven come from [`TIES`], the rest are uniform.
fn arb_tie_weight() -> impl Strategy<Value = f64> {
    (0usize..7, 0.0f64..=1.0).prop_map(|(i, w)| TIES.get(i).copied().unwrap_or(w))
}

/// Graphs with few nodes and tie-heavy weights: most neighbor lists hold
/// several equal weights.
fn arb_tie_graph() -> impl Strategy<Value = SimilarityGraph> {
    (1u32..12, 1u32..12).prop_flat_map(|(nl, nr)| {
        proptest::collection::btree_map((0..nl, 0..nr), arb_tie_weight(), 0..80).prop_map(
            move |edges| {
                let mut b = GraphBuilder::new(nl, nr);
                for ((l, r), w) in edges {
                    b.add_edge(l, r, w).unwrap();
                }
                b.build()
            },
        )
    })
}

/// Raw edge lists beyond what a graph admits: repeated pairs and any
/// weight bits (negative, above 1, infinite, NaN) besides the ties.
fn arb_raw_edges() -> impl Strategy<Value = Vec<Edge>> {
    proptest::collection::vec((0u32..6, 0u32..6, 0usize..8, 0u64..u64::MAX), 0..120).prop_map(
        |cells| {
            cells
                .into_iter()
                .map(|(l, r, i, bits)| {
                    Edge::new(l, r, TIES.get(i).copied().unwrap_or(f64::from_bits(bits)))
                })
                .collect()
        },
    )
}

/// A seeded Fisher–Yates shuffle (xorshift64).
fn shuffled(mut edges: Vec<Edge>, seed: u64) -> Vec<Edge> {
    let mut x = seed | 1;
    for i in (1..edges.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        edges.swap(i, (x % (i as u64 + 1)) as usize);
    }
    edges
}

/// Edges as `(left, right, weight bits)`: equality is bit equality.
fn bits(edges: &[Edge]) -> Vec<(u32, u32, u64)> {
    edges
        .iter()
        .map(|e| (e.left, e.right, e.weight.to_bits()))
        .collect()
}

/// Reference sort: the comparator the key sort replaces.
fn comparator_sorted(mut edges: Vec<Edge>) -> Vec<Edge> {
    edges.sort_by(|a, b| edge_key_desc((a.weight, a.left, a.right), (b.weight, b.left, b.right)));
    edges
}

/// Reference adjacency side: group by `key(e).0`, then sort each list by
/// weight descending (`total_cmp`), node ascending.
fn per_node_sorted(
    n: u32,
    edges: &[Edge],
    key: impl Fn(&Edge) -> (u32, u32),
) -> Vec<Vec<(u32, u64)>> {
    let mut lists = vec![Vec::new(); n as usize];
    for e in edges {
        let (from, to) = key(e);
        lists[from as usize].push((to, e.weight));
    }
    lists
        .into_iter()
        .map(|mut ns| {
            ns.sort_by(|a: &(u32, f64), b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ns.into_iter()
                .map(|(node, w)| (node, w.to_bits()))
                .collect()
        })
        .collect()
}

fn neighbor_bits(ns: &[Neighbor]) -> Vec<(u32, u64)> {
    ns.iter().map(|n| (n.node, n.weight.to_bits())).collect()
}

/// Both sides of `adj` equal the per-node-sort reference, bit for bit.
fn assert_adjacency_matches_reference(adj: &Adjacency, g: &SimilarityGraph) {
    let left = per_node_sorted(g.n_left(), g.edges(), |e| (e.left, e.right));
    for (i, want) in left.iter().enumerate() {
        prop_assert_eq!(&neighbor_bits(adj.left(i as u32)), want, "left node {}", i);
    }
    let right = per_node_sorted(g.n_right(), g.edges(), |e| (e.right, e.left));
    for (j, want) in right.iter().enumerate() {
        prop_assert_eq!(
            &neighbor_bits(adj.right(j as u32)),
            want,
            "right node {}",
            j
        );
    }
}

/// Every edge appears exactly once per side, and each list descends by
/// weight (`total_cmp`, so `0.0` precedes `-0.0`) with ascending ids on
/// equal weights.
fn assert_adjacency_complete_and_sorted(g: &SimilarityGraph) {
    let adj = g.adjacency();
    let mut count = 0usize;
    for i in 0..g.n_left() {
        let ns = adj.left(i);
        count += ns.len();
        for w in ns.windows(2) {
            prop_assert!(
                w[1].weight
                    .total_cmp(&w[0].weight)
                    .then_with(|| w[0].node.cmp(&w[1].node))
                    .is_lt(),
                "left adjacency must be sorted desc with id tiebreak"
            );
        }
    }
    prop_assert_eq!(count, g.n_edges());
    let right_count: usize = (0..g.n_right()).map(|j| adj.right(j).len()).sum();
    prop_assert_eq!(right_count, g.n_edges());
}

proptest! {
    #[test]
    fn adjacency_is_complete_and_sorted(g in arb_graph()) {
        assert_adjacency_complete_and_sorted(&g);
    }

    #[test]
    fn adjacency_is_complete_and_sorted_under_ties(g in arb_tie_graph()) {
        assert_adjacency_complete_and_sorted(&g);
    }

    #[test]
    fn key_sort_equals_comparator_sort_under_any_permutation(
        g in arb_tie_graph(),
        seed in 0u64..u64::MAX,
    ) {
        let want = bits(&comparator_sorted(g.edges().to_vec()));
        prop_assert_eq!(&bits(g.sorted_edges().all()), &want);
        let input = shuffled(g.edges().to_vec(), seed);
        prop_assert_eq!(&bits(SortedEdges::from_edges(input).all()), &want);
        let mut reversed = g.edges().to_vec();
        reversed.reverse();
        prop_assert_eq!(&bits(SortedEdges::from_edges(reversed).all()), &want);
    }

    #[test]
    fn key_sort_equals_comparator_sort_on_raw_edges(
        edges in arb_raw_edges(),
        seed in 0u64..u64::MAX,
    ) {
        let want = bits(&comparator_sorted(edges.clone()));
        prop_assert_eq!(&bits(SortedEdges::from_edges(edges.clone()).all()), &want);
        prop_assert_eq!(&bits(SortedEdges::from_edges(shuffled(edges, seed)).all()), &want);
    }

    #[test]
    fn scatter_adjacency_equals_per_node_sort(g in arb_tie_graph(), seed in 0u64..u64::MAX) {
        assert_adjacency_matches_reference(&g.adjacency(), &g);
        let sorted = SortedEdges::from_edges(shuffled(g.edges().to_vec(), seed));
        let adj = Adjacency::from_sorted(g.n_left(), g.n_right(), sorted.all().iter().copied());
        assert_adjacency_matches_reference(&adj, &g);
        prop_assert_eq!(adj.n_entries(), 2 * g.n_edges());
    }

    #[test]
    fn scatter_adjacency_equals_per_node_sort_on_spread_weights(g in arb_graph()) {
        assert_adjacency_matches_reference(&g.adjacency(), &g);
    }

    #[test]
    fn adjacency_agrees_with_edge_list(g in arb_graph()) {
        let adj = g.adjacency();
        for e in g.edges() {
            prop_assert!(adj.left(e.left).iter().any(|n| n.node == e.right && n.weight == e.weight));
            prop_assert!(adj.right(e.right).iter().any(|n| n.node == e.left && n.weight == e.weight));
        }
    }

    #[test]
    fn normalization_bounds_and_extremes(g in arb_graph()) {
        let mut g = g;
        min_max_normalize(&mut g);
        if let Some((lo, hi)) = g.weight_range() {
            prop_assert!(lo >= 0.0 && hi <= 1.0);
            // Non-degenerate graphs hit both 0 and 1 after min-max.
            if g.n_edges() >= 2 && lo != hi {
                prop_assert!((hi - 1.0).abs() < 1e-12);
                prop_assert!(lo.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pruning_is_monotone(g in arb_graph(), t in 0.0f64..=1.0) {
        let pruned = g.pruned(t);
        prop_assert!(pruned.n_edges() <= g.n_edges());
        prop_assert!(pruned.edges().iter().all(|e| e.weight >= t));
        // Pruning at 0 keeps everything.
        prop_assert_eq!(g.pruned(0.0).n_edges(), g.n_edges());
    }

    #[test]
    fn union_find_partitions(pairs in proptest::collection::vec((0u32..30, 0u32..30), 0..50)) {
        let mut uf = UnionFind::new(30);
        for &(a, b) in &pairs {
            uf.union(a, b);
        }
        // Connectivity is symmetric/transitive: spot-check via roots.
        for &(a, b) in &pairs {
            prop_assert!(uf.connected(a, b));
        }
        // Set sizes sum to n.
        let mut sizes = std::collections::HashMap::new();
        for x in 0..30u32 {
            let root = uf.find(x);
            *sizes.entry(root).or_insert(0u32) += 1;
        }
        for (&root, &count) in &sizes {
            prop_assert_eq!(uf.set_size(root), count);
        }
        prop_assert_eq!(sizes.values().sum::<u32>(), 30);
    }

    #[test]
    fn matching_total_weight_bounded_by_graph(g in arb_graph()) {
        // A matching over real edges never outweighs the total edge mass.
        let mut used_l = std::collections::HashSet::new();
        let mut used_r = std::collections::HashSet::new();
        let mut pairs = Vec::new();
        for e in g.edges() {
            if !used_l.contains(&e.left) && !used_r.contains(&e.right) {
                used_l.insert(e.left);
                used_r.insert(e.right);
                pairs.push((e.left, e.right));
            }
        }
        let m = Matching::new(pairs);
        let total: f64 = g.edges().iter().map(|e| e.weight).sum();
        prop_assert!(m.total_weight(&g) <= total + 1e-9);
        prop_assert!(m.is_unique_mapping());
    }

    #[test]
    fn ground_truth_tp_bounded(g in arb_graph()) {
        let gt_pairs: Vec<(u32, u32)> = (0..g.n_left().min(g.n_right()))
            .map(|i| (i, i))
            .collect();
        let gt = GroundTruth::new(gt_pairs);
        let m: Matching = g
            .edges()
            .iter()
            .take(1)
            .map(|e| (e.left, e.right))
            .collect();
        prop_assert!(gt.true_positives(&m) <= m.len());
        prop_assert!(gt.true_positives(&m) <= gt.len());
    }

    #[test]
    fn threshold_grid_is_sorted_unique(start in 1u32..10, len in 1u32..15) {
        let step = 0.05;
        let grid = ThresholdGrid::new(start as f64 * step, (start + len) as f64 * step, step);
        let v: Vec<f64> = grid.values().collect();
        prop_assert_eq!(v.len(), len as usize + 1);
        for w in v.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn graph_construction_roundtrip(g in arb_graph()) {
        let edges: Vec<Edge> = g.edges().to_vec();
        let rebuilt = SimilarityGraph::new(g.n_left(), g.n_right(), edges).unwrap();
        prop_assert_eq!(rebuilt.n_edges(), g.n_edges());
        prop_assert_eq!(rebuilt.weight_range(), g.weight_range());
    }
}
