//! Incremental descending-threshold execution of the matching algorithms.
//!
//! The paper's protocol (§5) evaluates every algorithm at 20 grid
//! thresholds over the same similarity graph. Re-running from scratch at
//! each grid point repeats work that threshold monotonicity makes
//! redundant: as the threshold **descends**, the retained edge set only
//! *grows*, and it grows by extending a prefix of the weight-descending
//! sorted edge view (see [`er_core::SortedEdges`]).
//!
//! A [`ThresholdSweeper`] walks the grid top-down and reuses the previous
//! grid point's state:
//!
//! * [`UmcSweeper`] — UMC's greedy scan consumes edges in exactly the
//!   sorted-view order, so its entire state (cursor + matched flags +
//!   emitted pairs) carries over: a full 20-point sweep costs one `O(m)`
//!   pass total instead of 20.
//! * [`CncSweeper`] — CNC's retained set is the *inclusive* prefix, and
//!   connectivity only grows with it: a union-find carries over between
//!   grid points and unions only the newly retained edges. A component
//!   that is exactly one {left, right} pair holds exactly one edge (the
//!   graph is simple and bipartite), so the live pairs are the edges
//!   that joined two singletons and whose component has not grown
//!   since; once grown, a component never shrinks back to a pair. A
//!   full sweep costs one union-find pass over the edges instead of 20.
//! * [`BahSweeper`] — BAH's swap search must restart per threshold to stay
//!   equivalent to the protocol (its RNG stream starts fresh each run), but
//!   its edge-contribution map is maintained incrementally from the sorted
//!   cursor instead of being rebuilt by an `O(m)` re-scan.
//! * [`RestartSweeper`] — the general fallback: re-runs the wrapped
//!   [`Matcher`] on the prefix view, short-circuiting entirely when the
//!   grid step added no edges (for a fixed graph, every matcher's output is
//!   a function of the strict/inclusive prefix pair — the threshold only
//!   enters via `> t` / `>= t` comparisons — so an unchanged prefix pair
//!   implies an unchanged result).
//!
//! Every sweeper is **result-equivalent** to calling
//! [`Matcher::run`] fresh at each threshold; `er-eval`'s property tests
//! enforce this for all eight algorithms.

use er_core::{FxHashMap, Matching, UnionFind};

use crate::bah::{self, BahConfig};
use crate::matcher::{Matcher, PreparedGraph};

/// A matcher driven across a **non-increasing** sequence of thresholds over
/// one fixed graph.
///
/// Contract: `step` must be called with the same `g` every time and with
/// thresholds that never increase; the returned matching is identical to
/// `matcher.run(g, t)`. Fresh sweepers are cheap — build one per
/// (algorithm, graph) sweep.
pub trait ThresholdSweeper {
    /// The wrapped algorithm's acronym.
    fn name(&self) -> &'static str;

    /// The matching at threshold `t`, reusing prior state where possible.
    fn step(&mut self, g: &PreparedGraph<'_>, t: f64) -> Matching;
}

/// Fallback sweeper: rerun the matcher per threshold, memoizing on the
/// prefix-length pair so grid points that retain no new edges are free.
pub struct RestartSweeper {
    matcher: Box<dyn Matcher>,
    memo: Option<((usize, usize), Matching)>,
}

impl RestartSweeper {
    /// Wrap a matcher.
    pub fn new(matcher: Box<dyn Matcher>) -> Self {
        RestartSweeper {
            matcher,
            memo: None,
        }
    }
}

impl ThresholdSweeper for RestartSweeper {
    fn name(&self) -> &'static str {
        self.matcher.name()
    }

    fn step(&mut self, g: &PreparedGraph<'_>, t: f64) -> Matching {
        let view = g.view(t);
        let lens = view.prefix_lens();
        if let Some((memo_lens, m)) = &self.memo {
            if *memo_lens == lens {
                return m.clone();
            }
        }
        let m = self.matcher.run_view(&view);
        self.memo = Some((lens, m.clone()));
        m
    }
}

/// Incremental UMC: the greedy scan over the weight-descending edge stream
/// is resumable, because the matcher state after consuming a prefix is a
/// deterministic function of that prefix. Descending the threshold extends
/// the prefix, so each grid point only consumes the newly retained edges.
#[derive(Default)]
pub struct UmcSweeper {
    started: bool,
    cursor: usize,
    matched_left: Vec<bool>,
    matched_right: Vec<bool>,
    pairs: Vec<(u32, u32)>,
}

impl UmcSweeper {
    /// A fresh sweeper (state initializes on the first step).
    pub fn new() -> Self {
        Self::default()
    }
}

impl ThresholdSweeper for UmcSweeper {
    fn name(&self) -> &'static str {
        "UMC"
    }

    fn step(&mut self, g: &PreparedGraph<'_>, t: f64) -> Matching {
        if !self.started {
            self.started = true;
            self.matched_left = vec![false; g.n_left() as usize];
            self.matched_right = vec![false; g.n_right() as usize];
        }
        let retained = g.edges_above(t);
        debug_assert!(
            self.cursor <= retained.len(),
            "thresholds must be non-increasing"
        );
        for e in retained.tail(self.cursor) {
            if !self.matched_left[e.left as usize] && !self.matched_right[e.right as usize] {
                self.matched_left[e.left as usize] = true;
                self.matched_right[e.right as usize] = true;
                self.pairs.push((e.left, e.right));
            }
        }
        self.cursor = retained.len();
        Matching::new(self.pairs.clone())
    }
}

/// Incremental CNC: one union-find over `V1 ∪ V2` (right node `j` is id
/// `n_left + j`, as in [`crate::Cnc`]) lives across grid points, and each
/// step unions only the edges the inclusive prefix gained.
///
/// `pairs` holds the candidates for output: every edge that joined two
/// singletons into a 2-node component. Such a component is exactly the
/// pair {left, right} with its one edge; a later union that grows it
/// retires the pair for good, since component sizes never shrink. Each
/// step drops the retired candidates (those whose left node's component
/// outgrew 2) and emits the rest.
#[derive(Default)]
pub struct CncSweeper {
    uf: Option<UnionFind>,
    cursor: usize,
    pairs: Vec<(u32, u32)>,
}

impl CncSweeper {
    /// A fresh sweeper (state initializes on the first step).
    pub fn new() -> Self {
        Self::default()
    }
}

impl ThresholdSweeper for CncSweeper {
    fn name(&self) -> &'static str {
        "CNC"
    }

    fn step(&mut self, g: &PreparedGraph<'_>, t: f64) -> Matching {
        let n_left = g.n_left();
        let uf = self
            .uf
            .get_or_insert_with(|| UnionFind::new(n_left as usize + g.n_right() as usize));
        let retained = g.edges_at_least(t);
        debug_assert!(
            self.cursor <= retained.len(),
            "thresholds must be non-increasing"
        );
        for e in retained.tail(self.cursor) {
            if uf.union(e.left, n_left + e.right) && uf.set_size(e.left) == 2 {
                self.pairs.push((e.left, e.right));
            }
        }
        self.cursor = retained.len();
        self.pairs.retain(|&(l, _)| uf.set_size(l) == 2);
        Matching::new(self.pairs.clone())
    }
}

/// Incremental BAH: maintains the edge-contribution map across grid points
/// (new edges stream in from the sorted cursor) and memoizes on the prefix
/// length; the seeded swap search itself restarts per threshold so that
/// each grid point's RNG stream — and therefore its result — is identical
/// to a from-scratch run.
pub struct BahSweeper {
    config: BahConfig,
    started: bool,
    left_drives: bool,
    cursor: usize,
    d: FxHashMap<(u32, u32), f64>,
    memo: Option<Matching>,
}

impl BahSweeper {
    /// A fresh sweeper for the given BAH budgets/seed.
    pub fn new(config: BahConfig) -> Self {
        BahSweeper {
            config,
            started: false,
            left_drives: true,
            cursor: 0,
            d: FxHashMap::default(),
            memo: None,
        }
    }
}

impl ThresholdSweeper for BahSweeper {
    fn name(&self) -> &'static str {
        "BAH"
    }

    fn step(&mut self, g: &PreparedGraph<'_>, t: f64) -> Matching {
        if !self.started {
            self.started = true;
            self.left_drives = bah::left_drives(g.n_left(), g.n_right());
        }
        let retained = g.edges_above(t);
        debug_assert!(
            self.cursor <= retained.len(),
            "thresholds must be non-increasing"
        );
        if self.cursor == retained.len() {
            if let Some(m) = &self.memo {
                return m.clone();
            }
        } else {
            for e in retained.tail(self.cursor) {
                self.d
                    .insert(bah::driver_key(e.left, e.right, self.left_drives), e.weight);
            }
            self.cursor = retained.len();
        }
        let m = bah::search(g.n_left(), g.n_right(), &self.d, self.config);
        self.memo = Some(m.clone());
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{AlgorithmConfig, AlgorithmKind};
    use crate::testkit::{diamond, figure1};
    use er_core::ThresholdGrid;

    /// Every sweeper must match a fresh per-threshold run along a
    /// descending grid.
    #[test]
    fn sweepers_match_fresh_runs_descending() {
        let config = AlgorithmConfig {
            bah: BahConfig {
                max_moves: 500,
                ..BahConfig::default()
            },
            ..AlgorithmConfig::default()
        };
        for g in [figure1(), diamond()] {
            let pg = PreparedGraph::new(&g);
            let grid = ThresholdGrid::paper();
            for kind in AlgorithmKind::ALL {
                let matcher = config.build(kind);
                let mut sweeper = config.sweeper(kind);
                assert_eq!(sweeper.name(), kind.name());
                for t in grid.values_desc() {
                    let incremental = sweeper.step(&pg, t);
                    let fresh = matcher.run(&pg, t);
                    assert_eq!(
                        incremental, fresh,
                        "{kind} diverged at t={t} (incremental vs fresh)"
                    );
                }
            }
        }
    }

    /// A graph in which lower-weight edges merge existing pairs: (0, 1)
    /// joins the pairs {0, 0} and {1, 1}, (2, 3) joins {2, 2} and
    /// {3, 3}. The (2, 2) edge weighs exactly the grid value `11 × 0.05`,
    /// so the inclusive cut-off decides whether it is retained.
    fn merging_pairs() -> er_core::SimilarityGraph {
        let mut b = er_core::GraphBuilder::new(4, 4);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(1, 1, 0.8).unwrap();
        b.add_edge(2, 2, 11.0 * 0.05).unwrap();
        b.add_edge(0, 1, 0.4).unwrap();
        b.add_edge(3, 3, 0.3).unwrap();
        b.add_edge(2, 3, 0.12).unwrap();
        b.build()
    }

    #[test]
    fn cnc_sweeper_matches_cnc_at_every_grid_point() {
        let grid = ThresholdGrid::paper();
        for g in [figure1(), diamond(), merging_pairs()] {
            let pg = PreparedGraph::new(&g);
            let mut s = CncSweeper::new();
            assert_eq!(s.name(), "CNC");
            for t in grid.values_desc() {
                assert_eq!(s.step(&pg, t), crate::Cnc.run(&pg, t), "t={t}");
            }
        }
        // The merge graph passes through each state the sweeper tracks.
        let g = merging_pairs();
        let pg = PreparedGraph::new(&g);
        let mut s = CncSweeper::new();
        let at = |s: &mut CncSweeper, i: u32| s.step(&pg, i as f64 * 0.05);
        assert_eq!(at(&mut s, 12).pairs(), &[(0, 0), (1, 1)]);
        assert_eq!(at(&mut s, 11).pairs(), &[(0, 0), (1, 1), (2, 2)]);
        assert_eq!(at(&mut s, 8).pairs(), &[(2, 2)], "(0, 1) merged two pairs");
        assert_eq!(at(&mut s, 5).pairs(), &[(2, 2), (3, 3)]);
        assert!(at(&mut s, 2).is_empty(), "(2, 3) merged the last two");
    }

    #[test]
    fn umc_sweeper_resumes_rather_than_restarts() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let mut s = UmcSweeper::new();
        // At t=0.65 only A5-B1 (0.9) and A2-B2 (0.7) are retained.
        assert_eq!(s.step(&pg, 0.65).pairs(), &[(1, 1), (4, 0)]);
        // Dropping to 0.5 adds the 0.6 edges; previous pairs persist.
        assert_eq!(s.step(&pg, 0.5).pairs(), &[(1, 1), (2, 3), (4, 0)]);
        // A repeated threshold is a no-op.
        assert_eq!(s.step(&pg, 0.5).pairs(), &[(1, 1), (2, 3), (4, 0)]);
    }

    #[test]
    fn restart_sweeper_memoizes_unchanged_prefixes() {
        let g = figure1();
        let pg = PreparedGraph::new(&g);
        let config = AlgorithmConfig::default();
        let mut s = config.sweeper(AlgorithmKind::Krc);
        let a = s.step(&pg, 0.65);
        // 0.62 retains exactly the same edges (nothing lies in (0.62, 0.65]).
        let b = s.step(&pg, 0.62);
        assert_eq!(a, b);
    }
}
