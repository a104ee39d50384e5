//! Connected Components clustering (CNC) — Algorithm 2 of the paper.
//!
//! The simplest bipartite matcher: discard all edges with weight **below**
//! the threshold, compute the transitive closure of what remains, and keep
//! only the components that consist of exactly two entities, one from each
//! collection. Larger components are dropped entirely (the paper's Figure 1
//! example: the 4-node component `{A1, B1, A5, B3}` produces no output).
//!
//! Complexity: `O(m · α(n))` with union-find ≈ `O(m)`. Threshold sweeps
//! go through [`crate::sweeper::CncSweeper`], which keeps the union-find
//! across grid points; this from-scratch run is its reference.

use er_core::{Matching, UnionFind};

use crate::matcher::{EdgeView, Matcher};

/// Connected Components clustering.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cnc;

impl Matcher for Cnc {
    fn name(&self) -> &'static str {
        "CNC"
    }

    fn run_view(&self, view: &EdgeView<'_, '_>) -> Matching {
        let n_left = view.n_left();
        let n = n_left as usize + view.n_right() as usize;
        let mut uf = UnionFind::new(n);
        // Algorithm 2 removes edges with sim < t, so the inclusive prefix
        // is the retained edge set. Right node j maps to id n_left + j.
        let retained = view.edges_inclusive();
        for e in retained {
            uf.union(e.left, n_left + e.right);
        }
        // A valid output pair is a retained edge whose component has exactly
        // two members; since the graph is bipartite and simple, that
        // component is precisely {left, right} of this edge.
        let mut pairs = Vec::new();
        for e in retained {
            if uf.set_size(e.left) == 2 {
                pairs.push((e.left, e.right));
            }
        }
        Matching::new(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::PreparedGraph;
    use crate::testkit::{diamond, figure1};

    #[test]
    fn figure1_example() {
        // Paper, Figure 1(b): with t = 0.5 CNC discards the 4-node component
        // (A1, B1, A5, B3) and keeps (A2, B2) and (A3, B4).
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Cnc.run(&pg, 0.5);
        assert_eq!(m.pairs(), &[(1, 1), (2, 3)]);
    }

    #[test]
    fn high_threshold_isolates_pairs() {
        // At t = 0.9 only A5-B1 survives, as its own 2-node component.
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Cnc.run(&pg, 0.9);
        assert_eq!(m.pairs(), &[(4, 0)]);
    }

    #[test]
    fn threshold_is_inclusive() {
        // Algorithm 2 removes edges with sim < t, so w == t is retained.
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Cnc.run(&pg, 0.7);
        assert!(m.contains(1, 1), "A2-B2 at exactly 0.7 must be kept");
    }

    #[test]
    fn chains_are_dropped() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        // At t = 0.2 everything is connected except (2,2): the 4-node
        // component {0,1}×{0,1} is dropped, only (2,2) remains.
        let m = Cnc.run(&pg, 0.2);
        assert_eq!(m.pairs(), &[(2, 2)]);
    }

    #[test]
    fn empty_when_nothing_survives() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let m = Cnc.run(&pg, 0.95);
        assert!(m.is_empty());
    }

    #[test]
    fn unique_mapping_holds() {
        let g = diamond();
        let pg = PreparedGraph::new(&g);
        for t in [0.0, 0.3, 0.5, 0.8, 1.0] {
            assert!(Cnc.run(&pg, t).is_unique_mapping());
        }
    }
}
