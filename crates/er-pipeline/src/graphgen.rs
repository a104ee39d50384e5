//! Similarity-graph construction for every function of the taxonomy.
//!
//! The paper applies **no blocking**: every cross-pair with similarity
//! above zero becomes an edge. For set/bag measures a pair has positive
//! similarity iff it shares at least one term (or n-gram-graph edge), so an
//! inverted index enumerates the positive pairs *exactly*; edit-distance
//! and semantic measures score the full Cartesian product.
//!
//! All weights are min-max normalized with a `0.0` floor: non-negative raw
//! scores map onto `(0, 1]` (the weakest retained edge keeps a positive
//! weight instead of being demoted to an exact-0 non-edge), and graphs
//! with negative raw scores (`keep_positive_only: false` under signed
//! measures) fall back to plain min-max over `[lo, hi]`.
//!
//! # The parallel construction engine
//!
//! Construction of one graph is split into a serial **prepare** phase that
//! builds the immutable read-side structures — DF indexes, the inverted
//! index, encoded vectors / n-gram graphs, the interned WMD token table —
//! and a **score** phase that shards the left-entity rows over
//! `cfg.effective_threads()` scoped workers. Workers share the
//! prepared state read-only (plain `&` reads, no locks on the hot path),
//! keep their own scratch (probe stamps, WMD distance caches), claim
//! contiguous row chunks through an atomic cursor, and emit local triple
//! buffers that a deterministic chunk-order merge feeds into
//! [`GraphBuilder`] — so results are **bit-identical** to the serial path
//! for any thread count (property-tested in `tests/graphgen_props.rs`).
//!
//! [`build_graph_restricted`] reuses the same scorers to score *only*
//! blocked candidate pairs — the production "blocking first" pipeline —
//! instead of building the full graph and discarding most of it.
//!
//! # The streaming top-k path
//!
//! [`build_graph_topk`] bounds peak memory at `O(n_left × k)` edges: each
//! worker streams its rows' candidates through a bounded per-row binary
//! heap (`er_core::TopKRow`) **during** the score phase, so the dense
//! graph never materializes — scored-and-rejected candidates cost one
//! heap comparison and no storage. Selection is deterministic (weight
//! descending, ties by ascending right id) and row-local, so results are
//! bit-identical across thread counts; with `k = usize::MAX` the retained
//! edge set equals [`build_graph`]'s (property-tested in
//! `tests/graphgen_props.rs`). [`build_graph_topk_mode`] returns the
//! builder accounting ([`TopKStats`]) that proves the bound.
//!
//! # Bound-driven scoring
//!
//! The all-pairs branches (character edit distances, Word Mover's) go
//! further: they **prune before scoring**. The sink exposes an
//! *admission bound* — the row heap's current k-th weight — and the
//! scorers skip any candidate whose cheap exact upper bound (length /
//! character-bag counting filters for the char measures, centroid
//! distance for relaxed WMD) falls strictly below it; the edit-distance
//! measures additionally run banded early-exit kernels that abandon a
//! pair once its distance provably exceeds what the bound admits, and
//! the WMD transport sum short-circuits on its monotone partial sums.
//! Every bound dominates the measure's own `f64` under monotone float
//! steps and pruning is strict-below only, so a pruned candidate could
//! never have entered the heap: [`build_graph_topk`] output stays
//! **bit-identical** to the dense-then-prune flow (property-proven per
//! measure and thread count). [`TopKStats`] reports the
//! offered/pruned/scored accounting.
//!
//! # One kernel per branch
//!
//! Each taxonomy branch scores through exactly one production kernel:
//! the lane kernels for the character measures (multi-text Myers for
//! Levenshtein, batched bound screens for the rest), the
//! weighted-postings dot accumulator for token cosine, the
//! dimension-blocked kernel for dense semantic vectors, and the
//! per-worker distance cache for Word Mover's. The property suites
//! compare them against one naive all-pairs reference built from the
//! public per-pair measures (`tests/common/`), bit for bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use er_core::{
    ConstructionCounters, Edge, FxHashMap, FxHashSet, GraphBuilder, SimilarityGraph, TopKRow,
};
use er_datasets::{Dataset, EntityCollection, EntityProfile};
use er_embed::lanes::{self as embed_lanes, Probe, VectorBlocks};
use er_embed::{BagSummary, DenseVector, SemanticMeasure};
use er_textsim::lanes::{self, MyersBatch, LANE_WIDTH};
use er_textsim::{
    CharMeasure, CharScratch, CharTable, DfIndex, GraphSimilarity, LengthBucketIndex, NGramGraph,
    NGramScheme, SchemaBasedMeasure, SparseVector, VectorMeasure, VectorModel,
};
use serde::Serialize;

use crate::candidates::{generate_char_candidates, generate_token_candidates, CandidateMode};
use crate::config::PipelineConfig;
use crate::taxonomy::{SemanticScope, SimilarityFunction};

/// A scored pair before normalization: `(left, right, raw weight)`.
pub(crate) type Triple = (u32, u32, f64);

/// The min-max normalization frame one build derived from its retained
/// raw scores — the map the construction finalize step applies to every
/// edge weight.
///
/// A resident service that scores *new* records against an already-built
/// graph must map their raw scores through the **same** frame, or the new
/// edges would live on a different scale than the resident ones. The
/// frame is therefore a first-class output of the framed build variants
/// ([`build_graph_topk_framed`]) and an input to
/// [`ResidentScorer`](crate::resident::ResidentScorer). It is frozen at
/// build time: later inserts could in principle widen the raw score
/// range, which a full rebuild would absorb into a new frame — documented
/// drift of the incremental path (the clamp keeps weights valid anyway).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NormFrame {
    /// Lower bound of the raw score range (floored at `0.0`, see
    /// the finalize step).
    lo: f64,
    /// `hi - lo`; non-positive or non-finite means a degenerate frame
    /// (every weight maps to `1.0`).
    span: f64,
}

impl NormFrame {
    /// The frame of a retained raw-score multiset (post positivity
    /// filter). Mirrors the finalize step bit for bit.
    pub(crate) fn compute(shards: &[Vec<Triple>]) -> Self {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for shard in shards {
            for &(_, _, w) in shard {
                lo = lo.min(w);
                hi = hi.max(w);
            }
        }
        NormFrame::from_bounds(lo, hi)
    }

    /// The frame over raw-score bounds folded externally: `lo` / `hi`
    /// are the running min / max over the retained raw scores
    /// (`f64::INFINITY` / `f64::NEG_INFINITY` when there are none, as a
    /// fold from those identities yields). Because min/max folding is
    /// order- and grouping-independent, a frame assembled from per-shard
    /// bounds is **bit-identical** to [`compute`] over the concatenated
    /// triples — the keystone of the out-of-core build's equivalence
    /// with the in-RAM path (`crate::sharded`).
    pub(crate) fn from_bounds(lo: f64, hi: f64) -> Self {
        let lo = lo.min(0.0);
        NormFrame { lo, span: hi - lo }
    }

    /// A degenerate frame mapping every raw score to `1.0` — what an
    /// empty build produces.
    pub fn degenerate() -> Self {
        NormFrame { lo: 0.0, span: 0.0 }
    }

    /// Normalize one raw score exactly as the producing build did.
    #[inline]
    pub fn apply(&self, w: f64) -> f64 {
        if self.span <= f64::EPSILON || self.span.is_nan() {
            1.0
        } else {
            ((w - self.lo) / self.span).clamp(0.0, 1.0)
        }
    }
}

/// Where a scorer's retained triples go. The dense path collects them
/// verbatim (`Vec<Triple>`); the top-k path routes them through a bounded
/// per-row heap so rejected candidates never occupy memory.
///
/// The sink also drives **bound-driven scoring**: before paying for a
/// full similarity computation a scorer may ask for the sink's
/// [`admission_bound`](EdgeSink::admission_bound) and skip any candidate
/// whose cheap *exact* upper bound falls strictly below it — the skipped
/// emit could not have entered the sink, so results stay bit-identical.
/// The dense sink admits everything (bound `-∞`, pruning never fires);
/// [`TopKSink`] answers with its row heap's current k-th weight.
trait EdgeSink {
    /// Accept one scored pair (already positivity-filtered by the scorer).
    fn emit(&mut self, left: u32, right: u32, weight: f64);

    /// The weight a new candidate of the current row must reach to
    /// possibly be retained. A scorer may skip a candidate iff its upper
    /// bound is **strictly** below this (equal weights can still win the
    /// sink's tie-break).
    #[inline]
    fn admission_bound(&self) -> f64 {
        f64::NEG_INFINITY
    }

    /// Count one candidate pair materialized and handed to a measure
    /// (it will subsequently be pruned or scored, never both). Pairs an
    /// index skips *before* generation are not counted anywhere — that
    /// is the point of [`CandidateMode::Indexed`].
    #[inline]
    fn note_generated(&mut self) {}

    /// Count one candidate skipped via an upper bound (never emitted).
    #[inline]
    fn note_pruned(&mut self) {}

    /// Count one candidate fully scored (emitted or positivity-dropped).
    #[inline]
    fn note_scored(&mut self) {}
}

impl EdgeSink for Vec<Triple> {
    #[inline]
    fn emit(&mut self, left: u32, right: u32, weight: f64) {
        self.push((left, right, weight));
    }
}

/// A similarity graph together with the function that produced it.
#[derive(Debug, Clone, Serialize)]
pub struct GeneratedGraph {
    /// The producing similarity function.
    pub function: SimilarityFunction,
    /// The normalized similarity graph.
    pub graph: SimilarityGraph,
}

/// Build the similarity graph of `function` over `dataset`.
pub fn build_graph(
    dataset: &Dataset,
    function: &SimilarityFunction,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    build_graph_over(&dataset.left, &dataset.right, function, cfg)
}

/// Build the similarity graph of `function` over two bare collections.
///
/// The entry point for *imported* data (`er_datasets::import`): everything
/// `build_graph` does — inverted-index candidate generation, parallel
/// scoring, min-max normalization — without requiring a generated
/// [`Dataset`].
pub fn build_graph_over(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    finalize(
        left,
        right,
        score_shards(left, right, function, cfg, ScoreMode::Dense),
        cfg,
    )
}

/// Build the **top-k pruned** similarity graph of `function` over
/// `dataset`: only each left entity's best `k` edges are kept, selected
/// *during* scoring so the dense graph never materializes (peak resident
/// edges stay in `O(n_left × k)` — see [`build_graph_topk_mode`]).
///
/// ```
/// use er_datasets::{Dataset, DatasetId};
/// use er_pipeline::{build_graph_topk, PipelineConfig, SimilarityFunction};
/// use er_textsim::{NGramScheme, VectorMeasure};
///
/// let d = Dataset::generate(DatasetId::D1, 0.02, 7);
/// let f = SimilarityFunction::SchemaAgnosticVector {
///     scheme: NGramScheme::Token(1),
///     measure: VectorMeasure::CosineTfIdf,
/// };
/// let g = build_graph_topk(&d, &f, 2, &PipelineConfig::default());
/// let adj = g.adjacency();
/// assert!((0..g.n_left()).all(|l| adj.left_degree(l) <= 2));
/// ```
pub fn build_graph_topk(
    dataset: &Dataset,
    function: &SimilarityFunction,
    k: usize,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    build_graph_topk_mode(
        &dataset.left,
        &dataset.right,
        function,
        k,
        CandidateMode::Enumerated,
        cfg,
    )
    .0
}

/// [`build_graph_topk`] over two bare collections — the imported-data
/// entry point — with an explicit [`CandidateMode`], plus the builder
/// accounting that proves the memory bound.
///
/// Semantics: each left row keeps its `k` best candidates by **raw**
/// score, ties broken by ascending right id (the deterministic
/// `er_core::TopKBuilder` order); min-max normalization then runs over
/// the retained set. Under the default `keep_positive_only` protocol the
/// result equals `build_graph_over(..).pruned_top_k(k)` bit for bit —
/// raw scores are non-negative, so the normalization floor pins
/// `lo = 0` and the global maximum (always some row's best edge)
/// survives pruning, making the normalizer the same strictly monotone
/// map — at a fraction of the memory. (One theoretical caveat: the
/// dense flow selects on *normalized* weights, so two distinct raw
/// scores that collide onto one f64 after normalization would tie there
/// but not here; no taxonomy measure emits adjacent-ulp raw scores, and
/// the per-branch property suite enforces exact equality in practice.)
/// With the positivity filter off and genuinely negative scores,
/// normalization sees only the pruned score set (the same caveat as
/// [`build_graph_restricted`]). `k = usize::MAX` reproduces
/// [`build_graph_over`]'s edge set exactly; results are bit-identical
/// across thread counts either way.
///
/// [`CandidateMode::Indexed`] replaces each branch's candidate
/// *enumeration* with index-driven generation under the sink's admission
/// bound (prefix-filtered postings for the non-cosine token-vector
/// measures, length buckets with counting filters for the character
/// measures — see [`crate::candidates`]): pairs an index rules out are
/// never materialized, so [`TopKStats::generated_pairs`] itself drops
/// below `n_left × n_right` while the finished graph stays
/// **bit-identical** to [`CandidateMode::Enumerated`] for every taxonomy
/// branch, `k` and thread count (property-proven in
/// `tests/candidates_props.rs`). Branches without a candidate index (the
/// token cosine measures, whose weighted-postings walk already visits
/// only term-sharing pairs; the schema-based token measures; the n-gram
/// graph models; every semantic measure, Word Mover's included) run
/// their own enumeration — still correct, just not sub-quadratic. Of
/// those, the cosine and semantic branches generate nothing when the
/// sink can admit nothing (`k = 0`): their similarities never exceed 1.
///
/// ```
/// use er_datasets::{Dataset, DatasetId};
/// use er_pipeline::{
///     build_graph_topk_mode, CandidateMode, PipelineConfig, SimilarityFunction,
/// };
/// use er_textsim::{CharMeasure, SchemaBasedMeasure};
///
/// let d = Dataset::generate(DatasetId::D1, 0.02, 7);
/// let f = SimilarityFunction::SchemaBasedSyntactic {
///     attribute: "name".into(),
///     measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
/// };
/// let cfg = PipelineConfig::default();
/// let k = 2;
/// let (g_enum, s_enum) =
///     build_graph_topk_mode(&d.left, &d.right, &f, k, CandidateMode::Enumerated, &cfg);
/// let (g_idx, s_idx) =
///     build_graph_topk_mode(&d.left, &d.right, &f, k, CandidateMode::Indexed, &cfg);
/// assert_eq!(g_enum.edges(), g_idx.edges());
/// assert_eq!(s_enum.retained_edges, g_enum.n_edges());
/// assert!(s_enum.peak_resident_edges <= d.left.len() * k);
/// assert!(s_idx.generated_pairs <= s_enum.generated_pairs);
/// assert_eq!(s_idx.generated_pairs, s_idx.pruned_pairs + s_idx.scored_pairs);
/// ```
pub fn build_graph_topk_mode(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    k: usize,
    mode: CandidateMode,
    cfg: &PipelineConfig,
) -> (SimilarityGraph, TopKStats) {
    let (graph, stats, _) = build_graph_topk_framed(left, right, function, k, mode, cfg);
    (graph, stats)
}

/// [`build_graph_topk_mode`] that also returns the [`NormFrame`] the
/// build normalized with — the entry point for a resident service that
/// must score later record inserts onto the same weight scale (see
/// [`crate::resident`]).
pub fn build_graph_topk_framed(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    k: usize,
    mode: CandidateMode,
    cfg: &PipelineConfig,
) -> (SimilarityGraph, TopKStats, NormFrame) {
    let acct = ConstructionCounters::default();
    let shards = score_shards(
        left,
        right,
        function,
        cfg,
        ScoreMode::TopK {
            k,
            acct: &acct,
            indexed: mode == CandidateMode::Indexed,
        },
    );
    let (graph, frame) = finalize_framed(left, right, shards, cfg);
    let stats = TopKStats {
        generated_pairs: acct.generated(),
        offered_edges: acct.offered(),
        retained_edges: graph.n_edges(),
        peak_resident_edges: acct.peak(),
        pruned_pairs: acct.pruned(),
        scored_pairs: acct.scored(),
    };
    (graph, stats, frame)
}

/// Builder accounting of one streaming top-k construction
/// ([`build_graph_topk_mode`]).
///
/// ```
/// # use er_datasets::{Dataset, DatasetId};
/// # use er_pipeline::{build_graph_topk_mode, CandidateMode, PipelineConfig, SimilarityFunction};
/// # use er_textsim::{NGramScheme, VectorMeasure};
/// let d = Dataset::generate(DatasetId::D1, 0.02, 7);
/// let f = SimilarityFunction::SchemaAgnosticVector {
///     scheme: NGramScheme::Token(1),
///     measure: VectorMeasure::CosineTfIdf,
/// };
/// let cfg = PipelineConfig::default();
/// let (_, stats) =
///     build_graph_topk_mode(&d.left, &d.right, &f, 3, CandidateMode::Enumerated, &cfg);
/// assert!(stats.offered_edges >= stats.retained_edges);
/// assert!(stats.peak_resident_edges >= stats.retained_edges);
/// ```
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TopKStats {
    /// Candidate pairs the scorers **generated** — materialized and
    /// handed to a measure, after which each was either bound-pruned or
    /// fully scored (`generated_pairs == pruned_pairs + scored_pairs` on
    /// every path). [`CandidateMode::Enumerated`] generates the branch's
    /// full candidate enumeration; [`CandidateMode::Indexed`] generates
    /// only the pairs its candidate index could not rule out, so this is
    /// the counter that proves the all-pairs loop is dead
    /// (`generated_pairs ≪ n_left × n_right`). Branches without a
    /// candidate index (see [`build_graph_topk_mode`]) generate their
    /// enumeration in both modes.
    pub generated_pairs: usize,
    /// Triples the scorers emitted — what the dense path would have
    /// buffered in full.
    pub offered_edges: usize,
    /// Edges in the finished graph (at most `n_left × k`).
    pub retained_edges: usize,
    /// Maximum triples resident at once during the score phase (bounded
    /// row heaps plus finished shard buffers) — at most `n_left × k` by
    /// construction, however many edges were offered.
    pub peak_resident_edges: usize,
    /// Candidate pairs a bound-aware scorer skipped **before** scoring:
    /// their exact upper bound fell strictly below the row heap's
    /// admission weight, so scoring them could not have changed the
    /// result. Zero for scorers without upper bounds (the
    /// inverted-index branches, whose candidate enumeration is already
    /// the filter).
    pub pruned_pairs: usize,
    /// Candidate pairs fully scored (then emitted or positivity-dropped).
    /// `pruned_pairs + scored_pairs` is the candidate volume a
    /// bound-aware scorer faced; the prune rate is their ratio.
    pub scored_pairs: usize,
}

/// Build the similarity graph of `function` restricted to the blocked
/// `candidates` — the **blocking-first** pipeline.
///
/// Only candidate pairs are scored, so the cost is `O(|candidates|)`
/// comparisons instead of the full (or inverted-index) enumeration the
/// unrestricted build pays; under the paper's protocol
/// (`keep_positive_only: true`, the default) the edge set equals
/// `restrict_graph(build_graph_over(..), candidates)`'s. (With the
/// positivity filter off, zero-scored candidate pairs are additionally
/// retained here — the inverted-index full build cannot enumerate
/// non-term-sharing pairs at all.) In the n-gram branches a candidate
/// pair of two profiles with no terms (no graph edges) is skipped, as
/// the inverted-index builds never enumerate it: the measures' empty
/// conventions would otherwise score it 1, a max-weight edge. Min-max
/// normalization runs over the
/// *restricted* score set — exactly what a pipeline that blocks before
/// scoring would see — so absolute weights can differ from the
/// build-full-then-restrict flow, which normalizes over the full graph
/// first. Candidate pairs referencing out-of-range entity ids are
/// ignored.
pub fn build_graph_restricted(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    candidates: &FxHashSet<(u32, u32)>,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    let lists = CandidateLists::new(left.len() as u32, right.len() as u32, candidates);
    finalize(
        left,
        right,
        score_shards(left, right, function, cfg, ScoreMode::Restricted(&lists)),
        cfg,
    )
}

/// Per-left-entity candidate lists (right ids, ascending) for the
/// restricted path, built once from the blocked pair set.
pub(crate) struct CandidateLists {
    rows: Vec<Vec<u32>>,
}

impl CandidateLists {
    fn new(n_left: u32, n_right: u32, pairs: &FxHashSet<(u32, u32)>) -> Self {
        let mut rows = vec![Vec::new(); n_left as usize];
        for &(l, r) in pairs {
            if l < n_left && r < n_right {
                rows[l as usize].push(r);
            }
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        CandidateLists { rows }
    }

    #[inline]
    fn row(&self, left_id: u32) -> &[u32] {
        self.rows
            .get(left_id as usize)
            .map_or(&[], |row| row.as_slice())
    }
}

/// One taxonomy branch's scoring state: prepared serially, then shared
/// read-only (`Sync`) by every worker of the score phase.
///
/// Each scorer carries the `keep_positive` flag
/// (`cfg.keep_positive_only`): when set (the paper's protocol), only
/// positive-similarity pairs are emitted; when cleared, every *enumerated*
/// pair is emitted regardless of sign, so zero or negative raw scores
/// (e.g. semantic cosine) reach `finalize`'s plain min-max fallback. Note
/// the inverted-index branches enumerate only term-sharing pairs either
/// way — that is their exactness guarantee, not a positivity filter.
trait RowScorer: Sync {
    /// Per-worker mutable scratch (probe stamps, distance caches).
    type Scratch: Send;

    /// Number of left rows to score.
    fn n_rows(&self) -> usize;

    /// Fresh scratch for one worker.
    fn scratch(&self) -> Self::Scratch;

    /// Score row `row` against the scorer's own candidate enumeration
    /// (inverted index or full cross product), emitting retained triples.
    fn score_row<O: EdgeSink>(&self, row: usize, scratch: &mut Self::Scratch, out: &mut O);

    /// Score row `row` with **index-driven candidate generation** (the
    /// [`CandidateMode::Indexed`] top-k path): produce candidates from
    /// the scorer's index under the sink's admission bound instead of
    /// enumerating them, so ruled-out pairs are never generated at all.
    /// Scorers without a candidate index fall back to their own
    /// enumeration — still correct (the same bounded sink receives every
    /// candidate), just not sub-quadratic.
    fn score_row_indexed<O: EdgeSink>(&self, row: usize, scratch: &mut Self::Scratch, out: &mut O) {
        self.score_row(row, scratch, out);
    }

    /// Score row `row` against the blocked candidates only.
    fn score_row_restricted<O: EdgeSink>(
        &self,
        row: usize,
        cands: &CandidateLists,
        scratch: &mut Self::Scratch,
        out: &mut O,
    );
}

/// Fan `n_chunks` work units out over `threads` scoped workers claiming
/// chunk indexes through an atomic cursor, and return the per-chunk
/// results **in chunk order** — which equals the serial row order, making
/// the merge deterministic and every build bit-identical to `threads: 1`.
fn fan_out_chunks<S: RowScorer>(
    scorer: &S,
    threads: usize,
    n_chunks: usize,
    score_chunk: impl Fn(usize, &mut S::Scratch) -> Vec<Triple> + Sync,
) -> Vec<Vec<Triple>> {
    if threads == 1 {
        let mut scratch = scorer.scratch();
        return (0..n_chunks)
            .map(|c| score_chunk(c, &mut scratch))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Vec<Triple>>>> = Mutex::new((0..n_chunks).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut scratch = scorer.scratch();
                loop {
                    let c = next.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let buf = score_chunk(c, &mut scratch);
                    slots.lock().expect("poisoned: a scoped worker panicked")[c] = Some(buf);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("poisoned: a scoped worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every chunk scored"))
        .collect()
}

/// The dense score phase: shard rows into contiguous chunks and collect
/// every retained triple — of each row's own enumeration, or of its
/// blocked candidates when `cands` is given.
fn run_rows<S: RowScorer>(
    scorer: &S,
    cands: Option<&CandidateLists>,
    cfg: &PipelineConfig,
) -> Vec<Vec<Triple>> {
    let n_rows = scorer.n_rows();
    if n_rows == 0 {
        return Vec::new();
    }
    let threads = cfg.effective_threads().clamp(1, n_rows);
    let chunk = cfg.effective_chunk_rows(n_rows, threads);
    let n_chunks = n_rows.div_ceil(chunk);

    let score_chunk = |c: usize, scratch: &mut S::Scratch| -> Vec<Triple> {
        let mut buf = Vec::new();
        for row in c * chunk..((c + 1) * chunk).min(n_rows) {
            match cands {
                None => scorer.score_row(row, scratch, &mut buf),
                Some(lists) => scorer.score_row_restricted(row, lists, scratch, &mut buf),
            }
        }
        buf
    };

    fan_out_chunks(scorer, threads, n_chunks, score_chunk)
}

/// Per-worker [`EdgeSink`] of the top-k path: candidates of the current
/// row stream through a bounded binary heap; only net insertions touch
/// the shared resident/peak counters (evictions swap one entry for
/// another), and the flow counters are accumulated locally per chunk and
/// flushed once into the shared [`ConstructionCounters`].
struct TopKSink<'a> {
    row: TopKRow,
    left: u32,
    generated: usize,
    offered: usize,
    pruned: usize,
    scored: usize,
    drain_scratch: Vec<(u32, f64)>,
    acct: &'a ConstructionCounters,
}

impl<'a> TopKSink<'a> {
    fn new(k: usize, acct: &'a ConstructionCounters) -> Self {
        TopKSink {
            row: TopKRow::new(k),
            left: 0,
            generated: 0,
            offered: 0,
            pruned: 0,
            scored: 0,
            drain_scratch: Vec::new(),
            acct,
        }
    }

    /// Flush the finished row's survivors into the chunk buffer (sorted
    /// by weight desc, right asc) and reset the heap for the next row.
    fn drain_row_into(&mut self, buf: &mut Vec<Triple>) {
        self.drain_scratch.clear();
        self.row.drain_sorted_into(&mut self.drain_scratch);
        let left = self.left;
        buf.extend(self.drain_scratch.iter().map(|&(r, w)| (left, r, w)));
    }
}

impl EdgeSink for TopKSink<'_> {
    #[inline]
    fn emit(&mut self, left: u32, right: u32, weight: f64) {
        self.left = left;
        self.offered += 1;
        let before = self.row.len();
        self.row.offer(right, weight);
        if self.row.len() > before {
            self.acct.add_resident();
        }
    }

    #[inline]
    fn admission_bound(&self) -> f64 {
        self.row.admission_bound()
    }

    #[inline]
    fn note_generated(&mut self) {
        self.generated += 1;
    }

    #[inline]
    fn note_pruned(&mut self) {
        self.pruned += 1;
    }

    #[inline]
    fn note_scored(&mut self) {
        self.scored += 1;
    }
}

/// The streaming top-k score phase: like [`run_rows`], but each row's
/// candidates pass through a bounded heap so at most `k` of them are ever
/// resident per row. Selection is row-local, so sharding cannot change
/// results: the output is bit-identical for any thread count and chunk
/// size, exactly as for the dense path.
fn run_rows_topk<S: RowScorer>(
    scorer: &S,
    k: usize,
    cfg: &PipelineConfig,
    acct: &ConstructionCounters,
    indexed: bool,
) -> Vec<Vec<Triple>> {
    run_rows_topk_range(scorer, k, cfg, acct, indexed, 0..scorer.n_rows())
}

/// [`run_rows_topk`] over a contiguous sub-range of the scorer's rows —
/// the per-shard score phase of the out-of-core build
/// (`crate::sharded`). Each row's retained set is row-local, so scoring
/// `rows` in isolation yields exactly the triples the full run emits
/// for those rows, in the same order: concatenating consecutive range
/// outputs reproduces the full run's output bit for bit regardless of
/// the range boundaries, thread count, or chunk size.
fn run_rows_topk_range<S: RowScorer>(
    scorer: &S,
    k: usize,
    cfg: &PipelineConfig,
    acct: &ConstructionCounters,
    indexed: bool,
    rows: std::ops::Range<usize>,
) -> Vec<Vec<Triple>> {
    let n_rows = rows.len();
    if n_rows == 0 {
        return Vec::new();
    }
    let base = rows.start;
    let threads = cfg.effective_threads().clamp(1, n_rows);
    let chunk = cfg.effective_chunk_rows(n_rows, threads);
    let n_chunks = n_rows.div_ceil(chunk);

    let score_chunk = |c: usize, scratch: &mut S::Scratch| -> Vec<Triple> {
        let mut buf = Vec::new();
        let mut sink = TopKSink::new(k, acct);
        for row in base + c * chunk..base + ((c + 1) * chunk).min(n_rows) {
            if indexed {
                scorer.score_row_indexed(row, scratch, &mut sink);
            } else {
                scorer.score_row(row, scratch, &mut sink);
            }
            sink.drain_row_into(&mut buf);
        }
        acct.add_generated(sink.generated);
        acct.add_offered(sink.offered);
        acct.add_pruned(sink.pruned);
        acct.add_scored(sink.scored);
        buf
    };

    fan_out_chunks(scorer, threads, n_chunks, score_chunk)
}

/// How the score phase collects a row's retained triples.
#[derive(Clone, Copy)]
pub(crate) enum ScoreMode<'a> {
    /// Keep every retained triple — the paper's dense protocol.
    Dense,
    /// Keep every retained triple of the blocked candidates only.
    Restricted(&'a CandidateLists),
    /// Stream through bounded per-row top-k heaps (the scale path).
    TopK {
        /// Edges kept per left row.
        k: usize,
        /// Shared candidate-flow and resident/peak counters.
        acct: &'a ConstructionCounters,
        /// Generate candidates from indexes ([`CandidateMode::Indexed`])
        /// instead of enumerating them.
        indexed: bool,
    },
}

impl ScoreMode<'_> {
    /// Whether the scorers should prepare their candidate indexes.
    #[inline]
    fn is_indexed(&self) -> bool {
        matches!(self, ScoreMode::TopK { indexed: true, .. })
    }
}

/// Dispatch one prepared scorer into the requested score phase.
fn run_scorer<S: RowScorer>(
    scorer: &S,
    cfg: &PipelineConfig,
    mode: ScoreMode<'_>,
) -> Vec<Vec<Triple>> {
    match mode {
        ScoreMode::Dense => run_rows(scorer, None, cfg),
        ScoreMode::Restricted(lists) => run_rows(scorer, Some(lists), cfg),
        ScoreMode::TopK { k, acct, indexed } => run_rows_topk(scorer, k, cfg, acct, indexed),
    }
}

/// A continuation over the branch-dispatched prepared scorer: the one
/// place that knows every taxonomy branch's prepare signature
/// ([`visit_scorer`]) hands the prepared scorer to `visit`, which runs
/// whatever score phase(s) the caller wants over it. Generic rather
/// than object-safe on purpose — each visitor monomorphizes per scorer,
/// exactly like the direct calls it replaces.
trait ScorerVisitor {
    /// What the continuation produces.
    type Out;

    /// Run over the prepared scorer.
    fn visit<S: RowScorer>(self, scorer: &S) -> Self::Out;
}

/// Prepare the branch's scorer — DF statistics, inverted indexes,
/// encoded vectors, interned token tables, all over the **full**
/// collections — and hand it to `v`. `with_bounds` / `indexed` pick the
/// bound-driven / index-backed prepare variants (the top-k engine);
/// both flags only add pruning structures, never change scores.
/// `indexed` matters to the character measures alone, the only branch
/// whose build keeps a separate candidate index.
fn visit_scorer<V: ScorerVisitor>(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    cfg: &PipelineConfig,
    with_bounds: bool,
    indexed: bool,
    v: V,
) -> V::Out {
    match function {
        SimilarityFunction::SchemaBasedSyntactic { attribute, measure } => match measure {
            // Character measures ride the bound-driven engine: interned
            // char tables, bit-parallel Levenshtein, prune-aware sinks.
            SchemaBasedMeasure::Char(m) => {
                let s = CharScorer::prepare(
                    left,
                    right,
                    attribute,
                    *m,
                    cfg.keep_positive_only,
                    indexed,
                );
                v.visit(&s)
            }
            SchemaBasedMeasure::Token(_) => {
                let s = SchemaBasedScorer::prepare(
                    left,
                    right,
                    attribute,
                    *measure,
                    cfg.keep_positive_only,
                );
                v.visit(&s)
            }
        },
        SimilarityFunction::SchemaAgnosticVector { scheme, measure } => {
            let s = VectorScorer::prepare(left, right, *scheme, *measure, cfg.keep_positive_only);
            v.visit(&s)
        }
        SimilarityFunction::SchemaAgnosticGraph { scheme, measure } => {
            let s =
                GraphModelScorer::prepare(left, right, *scheme, *measure, cfg.keep_positive_only);
            v.visit(&s)
        }
        SimilarityFunction::Semantic {
            model,
            measure,
            scope,
        } => {
            let enc = model.encoder();
            if measure.needs_token_vectors() {
                let s = WmdScorer::prepare(left, right, &enc, scope, cfg, with_bounds);
                v.visit(&s)
            } else {
                let s = DenseSemanticScorer::prepare(
                    left,
                    right,
                    &enc,
                    *measure,
                    scope,
                    cfg.keep_positive_only,
                );
                v.visit(&s)
            }
        }
    }
}

/// The in-RAM continuation: one score phase over all rows.
struct RunAllRows<'a, 'b> {
    cfg: &'a PipelineConfig,
    mode: ScoreMode<'b>,
}

impl ScorerVisitor for RunAllRows<'_, '_> {
    type Out = Vec<Vec<Triple>>;

    fn visit<S: RowScorer>(self, scorer: &S) -> Vec<Vec<Triple>> {
        run_scorer(scorer, self.cfg, self.mode)
    }
}

/// Prepare the branch's scorer and run the score phase.
pub(crate) fn score_shards(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    cfg: &PipelineConfig,
    mode: ScoreMode<'_>,
) -> Vec<Vec<Triple>> {
    visit_scorer(
        left,
        right,
        function,
        cfg,
        matches!(mode, ScoreMode::TopK { .. }),
        mode.is_indexed(),
        RunAllRows { cfg, mode },
    )
}

/// The out-of-core continuation: the same prepared scorer, scored one
/// contiguous left-row range ("shard") at a time through the streaming
/// top-k engine, each finished shard handed to `on_shard` (which spills
/// it and frees the memory) before the next shard starts.
struct RunShardedRows<'a, F> {
    k: usize,
    indexed: bool,
    cfg: &'a PipelineConfig,
    acct: &'a ConstructionCounters,
    shard_rows: usize,
    on_shard: F,
}

impl<F: FnMut(usize, Vec<Vec<Triple>>)> ScorerVisitor for RunShardedRows<'_, F> {
    type Out = ();

    fn visit<S: RowScorer>(mut self, scorer: &S) {
        let n_rows = scorer.n_rows();
        let mut start = 0;
        let mut shard = 0;
        while start < n_rows {
            let end = (start + self.shard_rows).min(n_rows);
            let bufs = run_rows_topk_range(
                scorer,
                self.k,
                self.cfg,
                self.acct,
                self.indexed,
                start..end,
            );
            (self.on_shard)(shard, bufs);
            start = end;
            shard += 1;
        }
    }
}

/// Prepare the branch's scorer **once** over the full collections, then
/// run the streaming top-k score phase shard by shard: `shard_rows`
/// scorer rows at a time, each finished shard's triple buffers passed to
/// `on_shard` in row order and dropped before the next shard is scored.
///
/// Because the scorer (and with it every DF statistic, index and
/// encoding that feeds the raw scores) is identical to the in-RAM
/// build's, and each row's top-k selection is row-local, concatenating
/// the `on_shard` payloads in call order reproduces
/// [`score_shards`]`(…, ScoreMode::TopK, …)`'s output bit for bit — the
/// out-of-core builder (`crate::sharded`) owes its equivalence proof to
/// exactly this invariant.
#[allow(clippy::too_many_arguments)]
pub(crate) fn score_topk_sharded<F: FnMut(usize, Vec<Vec<Triple>>)>(
    left: &EntityCollection,
    right: &EntityCollection,
    function: &SimilarityFunction,
    k: usize,
    indexed: bool,
    cfg: &PipelineConfig,
    shard_rows: usize,
    acct: &ConstructionCounters,
    on_shard: F,
) {
    visit_scorer(
        left,
        right,
        function,
        cfg,
        true,
        indexed,
        RunShardedRows {
            k,
            indexed,
            cfg,
            acct,
            shard_rows,
            on_shard,
        },
    )
}

/// Filter non-positive weights, min-max normalize with a `0.0` floor, and
/// merge the shards into the graph (deterministic shard order).
///
/// The floor keeps non-negative measures on `(0, 1]`: with plain min-max
/// the weakest retained edge maps to exactly `0.0`, silently demoting a
/// positive-similarity pair to a non-edge at every positive grid
/// threshold. Only genuinely negative raw scores (possible under
/// `keep_positive_only: false`) shift the lower bound below zero.
fn finalize(
    left: &EntityCollection,
    right: &EntityCollection,
    shards: Vec<Vec<Triple>>,
    cfg: &PipelineConfig,
) -> SimilarityGraph {
    finalize_framed(left, right, shards, cfg).0
}

/// [`finalize`] that also returns the [`NormFrame`] it applied, so a
/// resident service can normalize later incremental scores identically.
fn finalize_framed(
    left: &EntityCollection,
    right: &EntityCollection,
    mut shards: Vec<Vec<Triple>>,
    cfg: &PipelineConfig,
) -> (SimilarityGraph, NormFrame) {
    if cfg.keep_positive_only {
        for shard in &mut shards {
            shard.retain(|&(_, _, w)| w > 0.0);
        }
    }
    let frame = NormFrame::compute(&shards);
    let n1 = left.len() as u32;
    let n2 = right.len() as u32;
    let n_edges = shards.iter().map(Vec::len).sum();
    let mut b = GraphBuilder::with_capacity(n1, n2, n_edges);
    for shard in shards {
        b.merge_shard(
            shard
                .into_iter()
                .map(|(l, r, w)| Edge::new(l, r, frame.apply(w))),
        )
        .expect("scorers emit valid unique edges");
    }
    (b.build(), frame)
}

// ---------------------------------------------------------------------------
// Schema-based syntactic: all-pairs scoring of one attribute.
// ---------------------------------------------------------------------------

/// All-pairs scoring of one attribute with a string measure. Entities
/// missing the attribute produce no edges; rows range over the left
/// entities that *have* the attribute.
struct SchemaBasedScorer<'a> {
    left: Vec<(u32, &'a str)>,
    right: Vec<(u32, &'a str)>,
    /// Right attribute values by entity id, for candidate lookups.
    right_by_id: FxHashMap<u32, &'a str>,
    measure: SchemaBasedMeasure,
    keep_positive: bool,
}

impl<'a> SchemaBasedScorer<'a> {
    fn prepare(
        left: &'a EntityCollection,
        right: &'a EntityCollection,
        attribute: &str,
        measure: SchemaBasedMeasure,
        keep_positive: bool,
    ) -> Self {
        let with_attr = |c: &'a EntityCollection| -> Vec<(u32, &'a str)> {
            c.profiles
                .iter()
                .filter_map(|p| p.value(attribute).map(|v| (p.id, v)))
                .collect()
        };
        let right = with_attr(right);
        SchemaBasedScorer {
            left: with_attr(left),
            right_by_id: right.iter().copied().collect(),
            right,
            measure,
            keep_positive,
        }
    }
}

impl RowScorer for SchemaBasedScorer<'_> {
    type Scratch = ();

    fn n_rows(&self) -> usize {
        self.left.len()
    }

    fn scratch(&self) -> Self::Scratch {}

    fn score_row<O: EdgeSink>(&self, row: usize, _scratch: &mut (), out: &mut O) {
        let (li, lv) = self.left[row];
        for &(ri, rv) in &self.right {
            out.note_generated();
            let w = self.measure.similarity(lv, rv);
            out.note_scored();
            if w > 0.0 || !self.keep_positive {
                out.emit(li, ri, w);
            }
        }
    }

    fn score_row_restricted<O: EdgeSink>(
        &self,
        row: usize,
        cands: &CandidateLists,
        _scratch: &mut (),
        out: &mut O,
    ) {
        let (li, lv) = self.left[row];
        for &r in cands.row(li) {
            if let Some(rv) = self.right_by_id.get(&r) {
                out.note_generated();
                let w = self.measure.similarity(lv, rv);
                out.note_scored();
                if w > 0.0 || !self.keep_positive {
                    out.emit(li, r, w);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Schema-based character measures: bound-driven all-pairs scoring over a
// prepared char table.
// ---------------------------------------------------------------------------

/// All-pairs scoring of one attribute with a **character-level** measure,
/// rebuilt around upper bounds that prune before scoring.
///
/// The prepare phase interns every attribute value (both sides) once
/// into one shared [`CharTable`] — contiguous scalar-value slab, offsets
/// and sorted character bags — so the score phase never re-decodes a
/// string or allocates a `Vec<char>` per pair. Candidates are scored in
/// lane chunks ([`Self::score_lane_chunk`]): when the sink has an
/// admission bound (the top-k path) each chunk is first screened by the
/// batched `O(1)` length bounds and counting-filter bag bounds
/// ([`CharMeasure::length_upper_bound`] / [`CharMeasure::bag_upper_bound`]);
/// Levenshtein survivors then get exact distances from the multi-text
/// [`MyersBatch`], and the other measures' survivors run the scalar
/// kernels, where the edit-distance measures derive the largest distance
/// the bound still admits and abandon a pair once its distance provably
/// exceeds it.
///
/// Every bound is **exact** (≥ the measure's own `f64` under monotone
/// float steps) and pruning fires only on *strictly* smaller bounds, so
/// the retained edge set — and therefore the finished graph — is
/// bit-identical to the unpruned build (property-proven per measure in
/// `tests/graphgen_props.rs`). The dense path reports bound `-∞` and
/// skips the bound machinery entirely.
struct CharScorer {
    /// One shared table: left entries first, then right entries.
    table: CharTable,
    /// Left entity ids that carry the attribute, in profile order.
    left_ids: Vec<u32>,
    /// Right entity ids that carry the attribute, in profile order.
    right_ids: Vec<u32>,
    /// Right entity id → table entry index, for the restricted path.
    right_entry_by_id: FxHashMap<u32, usize>,
    /// Length-bucketed index over the right entries' character bags —
    /// the inverted form of the length and counting filters, prepared
    /// only for [`CandidateMode::Indexed`]. Slot `j` is the `j`-th right
    /// entry (table entry `left_ids.len() + j`).
    index: Option<LengthBucketIndex>,
    measure: CharMeasure,
    keep_positive: bool,
}

impl CharScorer {
    fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        attribute: &str,
        measure: CharMeasure,
        keep_positive: bool,
        indexed: bool,
    ) -> Self {
        fn with_attr<'a>(c: &'a EntityCollection, attribute: &str) -> (Vec<u32>, Vec<&'a str>) {
            let mut ids = Vec::new();
            let mut values = Vec::new();
            for p in &c.profiles {
                if let Some(v) = p.value(attribute) {
                    ids.push(p.id);
                    values.push(v);
                }
            }
            (ids, values)
        }
        let (left_ids, left_values) = with_attr(left, attribute);
        let (right_ids, right_values) = with_attr(right, attribute);
        let table = CharTable::build(
            left_values
                .iter()
                .copied()
                .chain(right_values.iter().copied()),
        );
        let right_entry_by_id = right_ids
            .iter()
            .enumerate()
            .map(|(j, &id)| (id, left_ids.len() + j))
            .collect();
        let index = indexed.then(|| {
            LengthBucketIndex::build((0..right_ids.len()).map(|j| table.bag(left_ids.len() + j)))
        });
        CharScorer {
            table,
            left_ids,
            right_ids,
            right_entry_by_id,
            index,
            measure,
            keep_positive,
        }
    }

    /// Whether survivors are scored by the multi-text Myers batch (the
    /// Levenshtein kernel) rather than one at a time.
    #[inline]
    fn uses_pattern(&self) -> bool {
        matches!(self.measure, CharMeasure::Levenshtein)
    }

    /// Similarity under an admission bound, for every measure but
    /// Levenshtein (which [`MyersBatch`] scores): Damerau-Levenshtein
    /// runs the banded early-exit kernel with the largest cutoff the
    /// bound still admits; `None` means the pair provably scores below
    /// the bound (counted as pruned). Other measures are fully scored —
    /// their bounds already did the pruning.
    fn bounded_similarity(
        &self,
        a: &[u32],
        b: &[u32],
        bound: f64,
        s: &mut CharScratch,
    ) -> Option<f64> {
        if matches!(self.measure, CharMeasure::DamerauLevenshtein) && bound > 0.0 {
            let max_len = a.len().max(b.len());
            if max_len == 0 {
                return Some(1.0);
            }
            let cutoff = edit_cutoff(bound, max_len);
            // Band the DP only where it beats the full kernel.
            if 2 * cutoff + 1 < max_len {
                let d = s.osa_bounded(a, b, cutoff)?;
                return Some(1.0 - d as f64 / max_len as f64);
            }
        }
        Some(self.measure.similarity_codes(a, b, s))
    }

    /// Score one **index-generated** candidate: the generator already
    /// applied the length and counting-filter bounds through the
    /// [`LengthBucketIndex`], so only the banded-kernel short-circuit
    /// stands between the candidate and a full score.
    fn score_generated<O: EdgeSink>(
        &self,
        li: u32,
        row_entry: usize,
        ri: u32,
        right_entry: usize,
        scratch: &mut CharScratch,
        out: &mut O,
    ) {
        out.note_generated();
        let a = self.table.codes(row_entry);
        let b = self.table.codes(right_entry);
        let Some(w) = self.bounded_similarity(a, b, out.admission_bound(), scratch) else {
            out.note_pruned();
            return;
        };
        out.note_scored();
        if w > 0.0 || !self.keep_positive {
            out.emit(li, ri, w);
        }
    }

    /// Lane-parallel scoring of up to [`LANE_WIDTH`] candidates
    /// (`(right id, table entry)` pairs, in candidate order). The graph
    /// this path builds is **bit-identical** to scoring every candidate
    /// with the measure's own `similarity` and keeping each row's best
    /// `k` — the argument, expanded in DESIGN.md §19:
    ///
    /// * The batched length/counting-filter screens compute the exact
    ///   per-candidate bound values (`lanes::length_upper_bounds` /
    ///   `lanes::bag_upper_bounds_from_common` are bit-identical to the
    ///   scalar bound formulas by construction), against the admission
    ///   bound captured at chunk start. The bound is monotone
    ///   non-decreasing, so a candidate screened out here scores strictly
    ///   below the row's final bound (the prune comparison is strict
    ///   `<`), and every survivor that later turns out to score below it
    ///   is rejected by the sink's heap without displacing anything.
    /// * Levenshtein survivors get **exact** distances from the
    ///   multi-text [`MyersBatch`] — the same integer the measure's own
    ///   kernel computes, fed through the same weight formula.
    /// * Other measures score their survivors through the scalar
    ///   bounded kernel with a *refreshed* per-candidate bound.
    ///
    /// `prescreened` marks candidates that already passed the
    /// length/bag bounds inside an index generator (the
    /// [`Self::score_generated`] contract) so the chunk screens are
    /// skipped for them.
    #[allow(clippy::too_many_arguments)]
    fn score_lane_chunk<O: EdgeSink>(
        &self,
        li: u32,
        row_entry: usize,
        cands: &[(u32, u32)],
        prescreened: bool,
        chars: &mut CharScratch,
        batch: &mut MyersBatch,
        out: &mut O,
    ) {
        let n = cands.len();
        debug_assert!(n <= LANE_WIDTH && n > 0);
        let a = self.table.codes(row_entry);
        let bound = out.admission_bound();
        let mut keep = [true; LANE_WIDTH];
        if bound != f64::NEG_INFINITY && !prescreened {
            let mut lens = [0usize; LANE_WIDTH];
            for (l, &(_, entry)) in cands.iter().enumerate() {
                lens[l] = self.table.char_len(entry as usize);
            }
            let mut ubs = [0.0f64; LANE_WIDTH];
            lanes::length_upper_bounds(self.measure, a.len(), &lens[..n], &mut ubs[..n]);
            for l in 0..n {
                keep[l] = ubs[l] >= bound;
            }
            if self.measure.has_bag_bound() {
                let mut kept_lane = [0usize; LANE_WIDTH];
                let mut kept_bags: [&[u32]; LANE_WIDTH] = [&[]; LANE_WIDTH];
                let mut kept_lens = [0usize; LANE_WIDTH];
                let mut kn = 0;
                for l in 0..n {
                    if keep[l] {
                        kept_lane[kn] = l;
                        kept_bags[kn] = self.table.bag(cands[l].1 as usize);
                        kept_lens[kn] = lens[l];
                        kn += 1;
                    }
                }
                if kn > 0 {
                    let mut commons = [0usize; LANE_WIDTH];
                    lanes::sorted_common_counts(
                        self.table.bag(row_entry),
                        &kept_bags[..kn],
                        &mut commons[..kn],
                    );
                    lanes::bag_upper_bounds_from_common(
                        self.measure,
                        &commons[..kn],
                        a.len(),
                        &kept_lens[..kn],
                        &mut ubs[..kn],
                    );
                    for i in 0..kn {
                        if ubs[i] < bound {
                            keep[kept_lane[i]] = false;
                        }
                    }
                }
            }
        }
        for &kept in keep.iter().take(n) {
            out.note_generated();
            if !kept {
                out.note_pruned();
            }
        }
        if self.uses_pattern() {
            // Multi-text Myers: exact distances for all surviving lanes.
            let mut kept_lane = [0usize; LANE_WIDTH];
            let mut texts: [&[u32]; LANE_WIDTH] = [&[]; LANE_WIDTH];
            let mut kn = 0;
            for l in 0..n {
                if keep[l] {
                    kept_lane[kn] = l;
                    texts[kn] = self.table.codes(cands[l].1 as usize);
                    kn += 1;
                }
            }
            if kn == 0 {
                return;
            }
            let mut dists = [0usize; LANE_WIDTH];
            batch.distances(&texts[..kn], &mut dists[..kn]);
            for i in 0..kn {
                let ri = cands[kept_lane[i]].0;
                let max_len = a.len().max(texts[i].len());
                let w = if max_len == 0 {
                    1.0
                } else {
                    1.0 - dists[i] as f64 / max_len as f64
                };
                out.note_scored();
                if w > 0.0 || !self.keep_positive {
                    out.emit(li, ri, w);
                }
            }
        } else {
            for l in 0..n {
                if !keep[l] {
                    continue;
                }
                let (ri, entry) = cands[l];
                let b = self.table.codes(entry as usize);
                let Some(w) = self.bounded_similarity(a, b, out.admission_bound(), chars) else {
                    out.note_pruned();
                    continue;
                };
                out.note_scored();
                if w > 0.0 || !self.keep_positive {
                    out.emit(li, ri, w);
                }
            }
        }
    }

    /// Score row `row` against `cands` (`(right id, table entry)`
    /// pairs, in order) in lane chunks.
    fn score_lanes<O: EdgeSink>(
        &self,
        row: usize,
        cands: impl Iterator<Item = (u32, u32)>,
        scratch: &mut CharGenScratch,
        out: &mut O,
    ) {
        let li = self.left_ids[row];
        if self.uses_pattern() {
            scratch.batch.prepare(self.table.codes(row));
        }
        let mut chunk = [(0u32, 0u32); LANE_WIDTH];
        let mut cn = 0;
        for cand in cands {
            chunk[cn] = cand;
            cn += 1;
            if cn == LANE_WIDTH {
                self.score_lane_chunk(
                    li,
                    row,
                    &chunk,
                    false,
                    &mut scratch.chars,
                    &mut scratch.batch,
                    out,
                );
                cn = 0;
            }
        }
        if cn > 0 {
            self.score_lane_chunk(
                li,
                row,
                &chunk[..cn],
                false,
                &mut scratch.chars,
                &mut scratch.batch,
                out,
            );
        }
    }
}

/// Largest edit distance whose similarity `1 − d/L` still reaches
/// `bound`. Safety (the exactness of edit-distance pruning): on return,
/// either `cutoff == L` — the kernel can never report "exceeded" — or
/// `1.0 − (cutoff + 1) as f64 / L as f64 < bound` holds in **the same
/// f64 arithmetic the similarity formula uses**; since that formula is
/// monotone non-increasing in the integer distance, every `d > cutoff`
/// yields a similarity strictly below the bound. The float guess only
/// seeds the search — the verification loops decide.
fn edit_cutoff(bound: f64, max_len: usize) -> usize {
    let l = max_len as f64;
    let sim = |d: usize| 1.0 - d as f64 / l;
    let guess = (1.0 - bound) * l;
    let mut cutoff = if guess.is_finite() && guess > 0.0 {
        (guess as usize).min(max_len)
    } else {
        0
    };
    while cutoff > 0 && sim(cutoff) < bound {
        cutoff -= 1;
    }
    while cutoff < max_len && sim(cutoff + 1) >= bound {
        cutoff += 1;
    }
    cutoff
}

/// Per-worker scratch of the char scorer: the kernel scratch, the
/// indexed path's bucket-order and common-count buffers, and the
/// lane kernels' multi-text Myers state.
struct CharGenScratch {
    chars: CharScratch,
    order: Vec<u32>,
    counts: Vec<u32>,
    batch: MyersBatch,
}

impl RowScorer for CharScorer {
    type Scratch = CharGenScratch;

    fn n_rows(&self) -> usize {
        self.left_ids.len()
    }

    fn scratch(&self) -> CharGenScratch {
        CharGenScratch {
            chars: CharScratch::new(),
            order: Vec::new(),
            counts: Vec::new(),
            batch: MyersBatch::new(),
        }
    }

    fn score_row<O: EdgeSink>(&self, row: usize, scratch: &mut CharGenScratch, out: &mut O) {
        let offset = self.left_ids.len();
        let cands = (self.right_ids.iter().enumerate()).map(|(j, &ri)| (ri, (offset + j) as u32));
        self.score_lanes(row, cands, scratch, out);
    }

    fn score_row_indexed<O: EdgeSink>(
        &self,
        row: usize,
        scratch: &mut CharGenScratch,
        out: &mut O,
    ) {
        let index = self
            .index
            .as_ref()
            .expect("indexed mode prepared without a length-bucket index");
        let li = self.left_ids[row];
        let offset = self.left_ids.len();
        let CharGenScratch {
            chars,
            order,
            counts,
            batch,
        } = scratch;
        if !self.uses_pattern() {
            generate_char_candidates(
                index,
                self.measure,
                self.table.char_len(row),
                self.table.bag(row),
                order,
                counts,
                out.admission_bound(),
                |j| {
                    let ri = self.right_ids[j as usize];
                    self.score_generated(li, row, ri, offset + j as usize, chars, out);
                    out.admission_bound()
                },
            );
            return;
        }
        // Levenshtein: buffer generated candidates into lanes and flush
        // through the multi-text Myers batch. Between flushes the
        // generator keeps working with the bound as of the last flush —
        // it therefore enumerates a *superset* of what a per-candidate
        // bound refresh would generate, and every extra candidate scores
        // strictly below the final admission bound (see
        // [`Self::score_lane_chunk`]); the retained graph is
        // bit-identical.
        batch.prepare(self.table.codes(row));
        let mut chunk = [(0u32, 0u32); LANE_WIDTH];
        let mut cn = 0usize;
        generate_char_candidates(
            index,
            self.measure,
            self.table.char_len(row),
            self.table.bag(row),
            order,
            counts,
            out.admission_bound(),
            |j| {
                let ri = self.right_ids[j as usize];
                chunk[cn] = (ri, (offset + j as usize) as u32);
                cn += 1;
                if cn == LANE_WIDTH {
                    self.score_lane_chunk(li, row, &chunk, true, chars, batch, out);
                    cn = 0;
                }
                out.admission_bound()
            },
        );
        if cn > 0 {
            self.score_lane_chunk(li, row, &chunk[..cn], true, chars, batch, out);
        }
    }

    fn score_row_restricted<O: EdgeSink>(
        &self,
        row: usize,
        cands: &CandidateLists,
        scratch: &mut CharGenScratch,
        out: &mut O,
    ) {
        let li = self.left_ids[row];
        let cands = cands.row(li).iter().filter_map(|&r| {
            self.right_entry_by_id
                .get(&r)
                .map(|&entry| (r, entry as u32))
        });
        self.score_lanes(row, cands, scratch, out);
    }
}

// ---------------------------------------------------------------------------
// Schema-agnostic n-gram vector models: inverted-index scoring.
// ---------------------------------------------------------------------------

/// Per-worker probe scratch: a stamp array deduplicates inverted-index
/// hits per row (mark = row + 1, unique per row, so workers never need to
/// clear it).
struct ProbeScratch {
    stamp: Vec<u32>,
    candidates: Vec<u32>,
    /// Per-right-id dot accumulators of the cosine path (empty for the
    /// other measures). A slot is zeroed when its candidate is first
    /// discovered, so no end-of-row sweep is needed.
    acc: Vec<f64>,
}

/// The right-side postings a [`VectorScorer`] walks.
enum Postings {
    /// Right ids per term: the candidate enumeration of the non-cosine
    /// measures, each candidate then scored by
    /// [`VectorMeasure::similarity`], and the index their prefix-filtered
    /// [`CandidateMode::Indexed`] walk probes.
    Plain(FxHashMap<u64, Vec<u32>>),
    /// `(right id, term weight)` per term, for the cosine measures: one
    /// pass accumulates every candidate's dot product in the probe's
    /// term order — the **same ascending-term-id order** (and hence the
    /// same f64 addition sequence, bit for bit) that
    /// `SparseVector::dot`'s sorted merge join produces per pair. The
    /// walk visits only term-sharing pairs, so it is itself the index:
    /// it beat the prefix-filter walk in both candidate modes
    /// (DESIGN.md §19).
    Weighted {
        postings: FxHashMap<u64, Vec<(u32, f64)>>,
        /// `right_vecs[j].norm()` — recomputing a norm is
        /// deterministic, so the cached value equals a per-pair
        /// recomputation bit for bit.
        right_norms: Vec<f64>,
    },
}

/// Inverted-index scoring of n-gram vector models.
struct VectorScorer {
    left_vecs: Vec<SparseVector>,
    right_vecs: Vec<SparseVector>,
    df_left: DfIndex,
    df_right: DfIndex,
    postings: Postings,
    measure: VectorMeasure,
    keep_positive: bool,
}

impl VectorScorer {
    fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        scheme: NGramScheme,
        measure: VectorMeasure,
        keep_positive: bool,
    ) -> Self {
        let model = VectorModel::new(scheme);
        let weighting = measure.weighting();

        // Per-collection DF indexes (ARCS) and the union index (TF-IDF).
        let mut df_left = DfIndex::new();
        let mut df_right = DfIndex::new();
        let mut df_union = DfIndex::new();
        let texts_left: Vec<String> = left.profiles.iter().map(|p| p.all_values_text()).collect();
        let texts_right: Vec<String> = right.profiles.iter().map(|p| p.all_values_text()).collect();
        for t in &texts_left {
            let terms: Vec<u64> = model.term_frequencies(t).keys().copied().collect();
            df_left.add_document(terms.iter().copied());
            df_union.add_document(terms);
        }
        for t in &texts_right {
            let terms: Vec<u64> = model.term_frequencies(t).keys().copied().collect();
            df_right.add_document(terms.iter().copied());
            df_union.add_document(terms);
        }

        let vec_of =
            |text: &String| -> SparseVector { model.vector(text, weighting, Some(&df_union)) };
        let left_vecs: Vec<SparseVector> = texts_left.iter().map(vec_of).collect();
        let right_vecs: Vec<SparseVector> = texts_right.iter().map(vec_of).collect();

        let postings = if matches!(
            measure,
            VectorMeasure::CosineTf | VectorMeasure::CosineTfIdf
        ) {
            let mut postings: FxHashMap<u64, Vec<(u32, f64)>> = FxHashMap::default();
            for (j, v) in right_vecs.iter().enumerate() {
                for &(t, wt) in v.terms() {
                    postings.entry(t).or_default().push((j as u32, wt));
                }
            }
            Postings::Weighted {
                postings,
                right_norms: right_vecs.iter().map(SparseVector::norm).collect(),
            }
        } else {
            let mut index: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
            for (j, v) in right_vecs.iter().enumerate() {
                for &(t, _) in v.terms() {
                    index.entry(t).or_default().push(j as u32);
                }
            }
            Postings::Plain(index)
        };

        VectorScorer {
            left_vecs,
            right_vecs,
            df_left,
            df_right,
            postings,
            measure,
            keep_positive,
        }
    }

    #[inline]
    fn dfs(&self) -> Option<(&DfIndex, &DfIndex)> {
        Some((&self.df_left, &self.df_right))
    }

    /// Score right vector `j` against left row `row` with the measure
    /// itself.
    #[inline]
    fn score_pair<O: EdgeSink>(&self, row: usize, j: u32, out: &mut O) {
        out.note_generated();
        let w = self.measure.similarity(
            &self.left_vecs[row],
            &self.right_vecs[j as usize],
            self.dfs(),
        );
        out.note_scored();
        if w > 0.0 || !self.keep_positive {
            out.emit(row as u32, j, w);
        }
    }
}

impl RowScorer for VectorScorer {
    type Scratch = ProbeScratch;

    fn n_rows(&self) -> usize {
        self.left_vecs.len()
    }

    fn scratch(&self) -> ProbeScratch {
        let n_acc = match self.postings {
            Postings::Weighted { .. } => self.right_vecs.len(),
            Postings::Plain(_) => 0,
        };
        ProbeScratch {
            stamp: vec![0u32; self.right_vecs.len()],
            candidates: Vec::new(),
            acc: vec![0.0; n_acc],
        }
    }

    fn score_row<O: EdgeSink>(&self, row: usize, scratch: &mut ProbeScratch, out: &mut O) {
        let lv = &self.left_vecs[row];
        let mark = row as u32 + 1;
        scratch.candidates.clear();
        match &self.postings {
            Postings::Weighted {
                postings,
                right_norms,
            } => {
                // One pass over the weighted postings accumulates every
                // candidate's dot product. Candidate `j`'s products
                // arrive in ascending probe-term order — exactly the
                // order `SparseVector::dot`'s sorted merge adds them —
                // from an accumulator zeroed at discovery, so `acc[j]`
                // equals the per-pair dot bit for bit; the cached norms
                // and the `denom == 0 → 0` / clamp steps replicate
                // `VectorMeasure::similarity`'s cosine arm exactly.
                for &(t, wa) in lv.terms() {
                    if let Some(js) = postings.get(&t) {
                        for &(j, wb) in js {
                            let ju = j as usize;
                            if scratch.stamp[ju] != mark {
                                scratch.stamp[ju] = mark;
                                scratch.candidates.push(j);
                                scratch.acc[ju] = 0.0;
                            }
                            scratch.acc[ju] += wa * wb;
                        }
                    }
                }
                let norm_a = lv.norm();
                for &j in &scratch.candidates {
                    out.note_generated();
                    let denom = norm_a * right_norms[j as usize];
                    let w = if denom == 0.0 {
                        0.0
                    } else {
                        (scratch.acc[j as usize] / denom).clamp(0.0, 1.0)
                    };
                    out.note_scored();
                    if w > 0.0 || !self.keep_positive {
                        out.emit(row as u32, j, w);
                    }
                }
            }
            Postings::Plain(index) => {
                for &(t, _) in lv.terms() {
                    if let Some(js) = index.get(&t) {
                        for &j in js {
                            if scratch.stamp[j as usize] != mark {
                                scratch.stamp[j as usize] = mark;
                                scratch.candidates.push(j);
                            }
                        }
                    }
                }
                for &j in &scratch.candidates {
                    self.score_pair(row, j, out);
                }
            }
        }
    }

    /// Cosine rows run the weighted-postings walk, but no row at all
    /// when the sink can admit nothing (`k = 0`): cosine is at most 1,
    /// so an admission bound above 1 rules out the whole row. The other
    /// measures walk the postings in prefix-filter order.
    fn score_row_indexed<O: EdgeSink>(&self, row: usize, scratch: &mut ProbeScratch, out: &mut O) {
        let Postings::Plain(index) = &self.postings else {
            if out.admission_bound() > 1.0 {
                return;
            }
            return self.score_row(row, scratch, out);
        };
        let lv = &self.left_vecs[row];
        let plan = self.measure.probe_plan(lv, self.dfs());
        generate_token_candidates(
            &plan,
            lv.terms(),
            index,
            &mut scratch.stamp,
            row as u32 + 1,
            out.admission_bound(),
            |j| {
                self.score_pair(row, j, out);
                out.admission_bound()
            },
        );
    }

    fn score_row_restricted<O: EdgeSink>(
        &self,
        row: usize,
        cands: &CandidateLists,
        _scratch: &mut ProbeScratch,
        out: &mut O,
    ) {
        // Two term-less profiles share no term, so the inverted index
        // never enumerates them, whatever the measure's empty-vs-empty
        // convention would score.
        let left_empty = self.left_vecs[row].is_empty();
        for &j in cands.row(row as u32) {
            if left_empty && self.right_vecs[j as usize].is_empty() {
                continue;
            }
            self.score_pair(row, j, out);
        }
    }
}

// ---------------------------------------------------------------------------
// Schema-agnostic n-gram graph models: inverted-index scoring by edge key.
// ---------------------------------------------------------------------------

/// Inverted-index scoring of n-gram graph models (indexed by graph edges).
struct GraphModelScorer {
    left_graphs: Vec<NGramGraph>,
    right_graphs: Vec<NGramGraph>,
    index: FxHashMap<(u64, u64), Vec<u32>>,
    measure: GraphSimilarity,
    keep_positive: bool,
}

impl GraphModelScorer {
    fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        scheme: NGramScheme,
        measure: GraphSimilarity,
        keep_positive: bool,
    ) -> Self {
        let graphs_of = |c: &EntityCollection| -> Vec<NGramGraph> {
            c.profiles
                .iter()
                .map(|p| NGramGraph::from_values(p.values(), scheme))
                .collect()
        };
        let right_graphs = graphs_of(right);
        let mut index: FxHashMap<(u64, u64), Vec<u32>> = FxHashMap::default();
        for (j, g) in right_graphs.iter().enumerate() {
            for k in g.edge_keys() {
                index.entry(k).or_default().push(j as u32);
            }
        }
        GraphModelScorer {
            left_graphs: graphs_of(left),
            right_graphs,
            index,
            measure,
            keep_positive,
        }
    }
}

impl RowScorer for GraphModelScorer {
    type Scratch = ProbeScratch;

    fn n_rows(&self) -> usize {
        self.left_graphs.len()
    }

    fn scratch(&self) -> ProbeScratch {
        ProbeScratch {
            stamp: vec![0u32; self.right_graphs.len()],
            candidates: Vec::new(),
            acc: Vec::new(),
        }
    }

    fn score_row<O: EdgeSink>(&self, row: usize, scratch: &mut ProbeScratch, out: &mut O) {
        let lg = &self.left_graphs[row];
        let mark = row as u32 + 1;
        scratch.candidates.clear();
        for k in lg.edge_keys() {
            if let Some(js) = self.index.get(&k) {
                for &j in js {
                    if scratch.stamp[j as usize] != mark {
                        scratch.stamp[j as usize] = mark;
                        scratch.candidates.push(j);
                    }
                }
            }
        }
        for &j in &scratch.candidates {
            out.note_generated();
            let w = self.measure.similarity(lg, &self.right_graphs[j as usize]);
            out.note_scored();
            if w > 0.0 || !self.keep_positive {
                out.emit(row as u32, j, w);
            }
        }
    }

    fn score_row_restricted<O: EdgeSink>(
        &self,
        row: usize,
        cands: &CandidateLists,
        _scratch: &mut ProbeScratch,
        out: &mut O,
    ) {
        let lg = &self.left_graphs[row];
        for &j in cands.row(row as u32) {
            // As for vectors: two edge-less graphs are never enumerated.
            if lg.is_empty() && self.right_graphs[j as usize].is_empty() {
                continue;
            }
            out.note_generated();
            let w = self.measure.similarity(lg, &self.right_graphs[j as usize]);
            out.note_scored();
            if w > 0.0 || !self.keep_positive {
                out.emit(row as u32, j, w);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Semantic: dense all-pairs scoring (cosine / Euclidean).
// ---------------------------------------------------------------------------

/// The text a semantic function compares for one profile.
pub(crate) fn scoped_text(p: &EntityProfile, scope: &SemanticScope) -> String {
    match scope {
        SemanticScope::SchemaBased { attribute } => {
            p.value(attribute).unwrap_or_default().to_string()
        }
        SemanticScope::SchemaAgnostic => p.all_values_text(),
    }
}

/// All-pairs semantic scoring over pre-encoded text vectors.
///
/// Every branch scores **full rows**, [`CandidateMode::Indexed`]
/// included: encoded texts crowd into the encoders' anisotropy cone, so a
/// centroid-ball index over them skipped under 1% of the pairs at
/// `k = 5` and cost more than it saved (DESIGN.md §14). The right vectors are
/// stored once, in the dimension-major [`VectorBlocks`] layout the lane
/// kernel reads, with their norms and zero flags cached.
struct DenseSemanticScorer {
    left: Vec<DenseVector>,
    right: VectorBlocks,
    measure: SemanticMeasure,
    keep_positive: bool,
}

impl DenseSemanticScorer {
    fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        enc: &er_embed::measures::Encoder,
        measure: SemanticMeasure,
        scope: &SemanticScope,
        keep_positive: bool,
    ) -> Self {
        // One token cache for both sides: a token shared by many
        // profiles is embedded once per build.
        let texts = left.profiles.iter().chain(&right.profiles);
        let mut enc = enc.caching(texts.map(|p| scoped_text(p, scope)));
        let left = left
            .profiles
            .iter()
            .map(|p| enc.encode(&scoped_text(p, scope)))
            .collect();
        let mut blocks = VectorBlocks::with_capacity(enc.dim(), right.len());
        for p in &right.profiles {
            blocks.push(&enc.encode(&scoped_text(p, scope)));
        }
        DenseSemanticScorer {
            left,
            right: blocks,
            measure,
            keep_positive,
        }
    }

    /// Emit one scored candidate under the positivity filter.
    #[inline]
    fn emit_scored<O: EdgeSink>(&self, li: u32, j: u32, w: f64, out: &mut O) {
        out.note_generated();
        out.note_scored();
        if w > 0.0 || !self.keep_positive {
            out.emit(li, j, w);
        }
    }
}

impl RowScorer for DenseSemanticScorer {
    /// Up to [`LANE_WIDTH`](embed_lanes::LANE_WIDTH) restricted
    /// candidates packed into one block.
    type Scratch = VectorBlocks;

    fn n_rows(&self) -> usize {
        self.left.len()
    }

    fn scratch(&self) -> VectorBlocks {
        VectorBlocks::with_capacity(self.right.dim(), embed_lanes::LANE_WIDTH)
    }

    fn score_row<O: EdgeSink>(&self, row: usize, _gathered: &mut VectorBlocks, out: &mut O) {
        let a = &self.left[row];
        if a.is_zero() {
            return;
        }
        let li = row as u32;
        let probe = Probe::new(a);
        let mut sims = [0.0f64; embed_lanes::LANE_WIDTH];
        for block in 0..self.right.n_blocks() {
            self.right
                .similarity_block(self.measure, &probe, block, &mut sims);
            let first = block * embed_lanes::LANE_WIDTH;
            let lanes = (self.right.len() - first).min(embed_lanes::LANE_WIDTH);
            for (l, &w) in sims[..lanes].iter().enumerate() {
                if !self.right.is_zero(first + l) {
                    self.emit_scored(li, (first + l) as u32, w, out);
                }
            }
        }
    }

    /// Full rows, but no row at all when the sink can admit nothing
    /// (`k = 0`): every dense similarity is at most 1, so an admission
    /// bound above 1 rules out the whole row before it is generated.
    fn score_row_indexed<O: EdgeSink>(&self, row: usize, gathered: &mut VectorBlocks, out: &mut O) {
        if out.admission_bound() > 1.0 {
            return;
        }
        self.score_row(row, gathered, out);
    }

    fn score_row_restricted<O: EdgeSink>(
        &self,
        row: usize,
        cands: &CandidateLists,
        gathered: &mut VectorBlocks,
        out: &mut O,
    ) {
        let a = &self.left[row];
        if a.is_zero() {
            return;
        }
        let li = row as u32;
        let live = cands
            .row(li)
            .iter()
            .copied()
            .filter(|&j| !self.right.is_zero(j as usize));
        // Pack the candidates into one block at a time, then run the
        // same block kernel as the full-row path.
        let probe = Probe::new(a);
        let mut js = [0u32; embed_lanes::LANE_WIDTH];
        let mut sims = [0.0f64; embed_lanes::LANE_WIDTH];
        let mut flush = |gathered: &mut VectorBlocks, js: &[u32], out: &mut O| {
            gathered.similarity_block(self.measure, &probe, 0, &mut sims);
            for (&j, &w) in js.iter().zip(&sims) {
                self.emit_scored(li, j, w, out);
            }
            gathered.clear();
        };
        let mut cn = 0;
        for j in live {
            gathered.push_from(&self.right, j as usize);
            js[cn] = j;
            cn += 1;
            if cn == embed_lanes::LANE_WIDTH {
                flush(gathered, &js, out);
                cn = 0;
            }
        }
        if cn > 0 {
            flush(gathered, &js[..cn], out);
        }
    }
}

// ---------------------------------------------------------------------------
// Semantic: Word Mover's over interned token bags with distance caching.
// ---------------------------------------------------------------------------

/// Symmetric token-distance cache. Euclidean distance is symmetric, so
/// keys are canonicalized to `(min, max)`: each unordered vector pair is
/// computed and stored **once** (a plain `(a, b)` key held every pair
/// twice). One cache per worker — values are pure functions of the shared
/// interned table, so per-worker caches cannot diverge.
struct DistCache {
    map: FxHashMap<(u32, u32), f64>,
}

impl DistCache {
    fn new() -> Self {
        DistCache {
            map: FxHashMap::default(),
        }
    }

    #[inline]
    fn dist(&mut self, vectors: &[DenseVector], a: u32, b: u32) -> f64 {
        let key = (a.min(b), a.max(b));
        *self
            .map
            .entry(key)
            .or_insert_with(|| vectors[key.0 as usize].euclidean_distance(&vectors[key.1 as usize]))
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Word Mover's scoring with a token-distance cache: contextual token
/// vectors repeat heavily across profiles, so each distinct unordered
/// (token, token) distance is computed once per worker, on first use.
/// Bags are truncated to `cfg.wmd_token_cap` tokens (documented
/// substitution — relaxed WMD is quadratic in bag size).
///
/// Both candidate modes enumerate every non-empty right bag under the
/// centroid upper bound: a centroid-ball index over the bag summaries
/// skipped under 0.2% of the pairs at `k = 5`, and a lane-batched
/// prefill of the cache was slower than filling it on demand
/// (DESIGN.md §19).
struct WmdScorer {
    /// Interned token-vector table: identical vectors share one id.
    /// Contextual encoders produce per-(token, context) vectors, interned
    /// by the (prev, token, next) signature embedded in the vector bits.
    /// Built serially in prepare, then shared across workers behind a
    /// lock-free read path (plain immutable slice reads).
    vectors: Vec<DenseVector>,
    left_bags: Vec<Vec<u32>>,
    right_bags: Vec<Vec<u32>>,
    /// Per-bag centroid + radius summaries (`None` for empty bags):
    /// `RWMD(a, b) ≥ ‖c_a − c_b‖ − r_a − r_b`, so one vector distance
    /// upper-bounds the similarity of a pair before any transport work.
    /// Left **empty** on the dense path, whose sink never exposes an
    /// admission bound — the summaries would be pure prepare overhead.
    left_summaries: Vec<Option<BagSummary>>,
    right_summaries: Vec<Option<BagSummary>>,
    keep_positive: bool,
}

impl WmdScorer {
    fn prepare(
        left: &EntityCollection,
        right: &EntityCollection,
        enc: &er_embed::measures::Encoder,
        scope: &SemanticScope,
        cfg: &PipelineConfig,
        with_bounds: bool,
    ) -> Self {
        let mut vectors: Vec<DenseVector> = Vec::new();
        let mut intern: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        let mut bag_of = |p: &EntityProfile| -> Vec<u32> {
            let mut toks = enc.token_vectors(&scoped_text(p, scope));
            toks.truncate(cfg.wmd_token_cap);
            toks.into_iter()
                .map(|v| {
                    let bits: Vec<u32> = v.0.iter().map(|f| f.to_bits()).collect();
                    *intern.entry(bits).or_insert_with(|| {
                        vectors.push(v);
                        vectors.len() as u32 - 1
                    })
                })
                .collect()
        };
        let left_bags: Vec<Vec<u32>> = left.profiles.iter().map(&mut bag_of).collect();
        let right_bags: Vec<Vec<u32>> = right.profiles.iter().map(&mut bag_of).collect();
        let summarize = |bags: &[Vec<u32>]| -> Vec<Option<BagSummary>> {
            if !with_bounds {
                return Vec::new();
            }
            bags.iter()
                .map(|bag| {
                    BagSummary::from_vectors(bag.len(), bag.iter().map(|&id| &vectors[id as usize]))
                })
                .collect()
        };
        let left_summaries = summarize(&left_bags);
        let right_summaries = summarize(&right_bags);
        WmdScorer {
            vectors,
            left_bags,
            right_bags,
            left_summaries,
            right_summaries,
            keep_positive: cfg.keep_positive_only,
        }
    }

    /// Relaxed WMD similarity of two non-empty bags:
    /// `1 / (1 + max of the two directed nearest-neighbor means)` —
    /// with an **exact** admission-bound short-circuit.
    ///
    /// `None` means the final similarity is provably `< bound`: the
    /// directed sums accumulate non-negative terms, and every float
    /// step from a partial sum to the final similarity (add, divide by
    /// a positive constant, `max`, `1/(1+d)`) is monotone — so once
    /// `1/(1 + partial/|a|)` falls below the bound, the fully computed
    /// similarity must too, bit for bit. Passing
    /// `bound = f64::NEG_INFINITY` disables the short-circuit and
    /// reproduces the plain computation exactly.
    fn similarity_bounded(
        &self,
        cache: &mut DistCache,
        a: &[u32],
        b: &[u32],
        bound: f64,
    ) -> Option<f64> {
        let mut d_ab = 0.0;
        for &x in a {
            let mut best = f64::INFINITY;
            for &y in b {
                best = best.min(cache.dist(&self.vectors, x, y));
            }
            d_ab += best;
            if 1.0 / (1.0 + d_ab / a.len() as f64) < bound {
                return None;
            }
        }
        d_ab /= a.len() as f64;
        let mut d_ba = 0.0;
        for &y in b {
            let mut best = f64::INFINITY;
            for &x in a {
                best = best.min(cache.dist(&self.vectors, x, y));
            }
            d_ba += best;
            if 1.0 / (1.0 + d_ab.max(d_ba / b.len() as f64)) < bound {
                return None;
            }
        }
        d_ba /= b.len() as f64;
        Some(1.0 / (1.0 + d_ab.max(d_ba)))
    }

    /// Score the candidate pair `(left row, right j)` — both known
    /// non-empty: centroid upper bound first, then the short-circuiting
    /// transport computation.
    fn score_pair<O: EdgeSink>(&self, row: usize, j: usize, cache: &mut DistCache, out: &mut O) {
        out.note_generated();
        let (a, b) = (&self.left_bags[row], &self.right_bags[j]);
        let bound = out.admission_bound();
        if bound != f64::NEG_INFINITY {
            if let (Some(Some(sa)), Some(Some(sb))) =
                (self.left_summaries.get(row), self.right_summaries.get(j))
            {
                if sa.wms_upper_bound(sb) < bound {
                    out.note_pruned();
                    return;
                }
            }
        }
        match self.similarity_bounded(cache, a, b, bound) {
            None => out.note_pruned(),
            Some(w) => {
                out.note_scored();
                if w > 0.0 || !self.keep_positive {
                    out.emit(row as u32, j as u32, w);
                }
            }
        }
    }
}

impl RowScorer for WmdScorer {
    /// The worker's symmetric token-distance cache.
    type Scratch = DistCache;

    fn n_rows(&self) -> usize {
        self.left_bags.len()
    }

    fn scratch(&self) -> DistCache {
        DistCache::new()
    }

    fn score_row<O: EdgeSink>(&self, row: usize, cache: &mut DistCache, out: &mut O) {
        if self.left_bags[row].is_empty() {
            return;
        }
        for (j, b) in self.right_bags.iter().enumerate() {
            if b.is_empty() {
                continue;
            }
            self.score_pair(row, j, cache, out);
        }
    }

    /// Full rows under the centroid bound, but no row at all when the
    /// sink can admit nothing (`k = 0`): relaxed WMD similarity is at
    /// most 1, so an admission bound above 1 rules out the whole row.
    fn score_row_indexed<O: EdgeSink>(&self, row: usize, cache: &mut DistCache, out: &mut O) {
        if out.admission_bound() > 1.0 {
            return;
        }
        self.score_row(row, cache, out);
    }

    fn score_row_restricted<O: EdgeSink>(
        &self,
        row: usize,
        cands: &CandidateLists,
        cache: &mut DistCache,
        out: &mut O,
    ) {
        if self.left_bags[row].is_empty() {
            return;
        }
        for &j in cands.row(row as u32) {
            if self.right_bags[j as usize].is_empty() {
                continue;
            }
            self.score_pair(row, j as usize, cache, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_datasets::DatasetId;
    use er_embed::EmbeddingModel;
    use er_textsim::CharMeasure;

    fn tiny() -> Dataset {
        er_datasets::Dataset::generate(DatasetId::D1, 0.03, 42)
    }

    fn weights_in_bounds(g: &SimilarityGraph) {
        for e in g.edges() {
            assert!((0.0..=1.0).contains(&e.weight));
        }
    }

    /// Edge triples with weight bits, for exact graph comparison.
    fn edge_bits(g: &SimilarityGraph) -> Vec<(u32, u32, u64)> {
        g.edges()
            .iter()
            .map(|e| (e.left, e.right, e.weight.to_bits()))
            .collect()
    }

    #[test]
    fn schema_based_graph_is_normalized() {
        let d = tiny();
        let f = SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        };
        let g = build_graph(&d, &f, &PipelineConfig::default());
        assert!(!g.is_empty());
        weights_in_bounds(&g);
        let (lo, hi) = g.weight_range().unwrap();
        assert!(lo >= 0.0 && hi <= 1.0);
        assert!((hi - 1.0).abs() < 1e-12, "min-max maps max weight to 1");
    }

    #[test]
    fn min_weight_edge_survives_lowest_grid_threshold() {
        // Regression: plain min-max mapped the weakest retained edge to
        // exactly 0.0, demoting a positive-similarity pair to a non-edge
        // for every positive grid threshold. The 0.0 floor keeps
        // non-negative measures on (0, 1]: weight = raw / max(raw).
        let collection = |texts: &[&str]| EntityCollection {
            profiles: texts
                .iter()
                .enumerate()
                .map(|(i, t)| EntityProfile::new(i as u32, vec![("name".into(), (*t).into())]))
                .collect(),
            attribute_names: vec!["name".into()],
        };
        let left = collection(&["alpha", "alphas", "alpha x"]);
        let right = collection(&["alpha", "alph"]);
        let f = SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        };
        let g = build_graph_over(&left, &right, &f, &PipelineConfig::default());
        assert!(!g.is_empty());
        let (lo, _) = g.weight_range().unwrap();
        assert!(lo > 0.0, "weakest edge keeps positive weight, got {lo}");
        let lowest_grid_t = er_core::ThresholdGrid::paper().values().next().unwrap();
        assert_eq!(
            g.edges()
                .iter()
                .filter(|e| e.weight > lowest_grid_t)
                .count(),
            g.n_edges(),
            "every retained edge survives the lowest grid threshold here"
        );
        // The floor makes normalization proportional: weight = raw / hi.
        let raws: Vec<(u32, u32, f64)> = {
            let mut out = Vec::new();
            for (i, lp) in left.profiles.iter().enumerate() {
                for (j, rp) in right.profiles.iter().enumerate() {
                    let w = SchemaBasedMeasure::Char(CharMeasure::Levenshtein)
                        .similarity(lp.value("name").unwrap(), rp.value("name").unwrap());
                    if w > 0.0 {
                        out.emit(i as u32, j as u32, w);
                    }
                }
            }
            out
        };
        let hi = raws.iter().map(|&(_, _, w)| w).fold(0.0, f64::max);
        for (l, r, raw) in raws {
            let got = g.weight_of(l, r).unwrap();
            assert!((got - raw / hi).abs() < 1e-12, "({l},{r}): {got} vs raw/hi");
        }
    }

    #[test]
    fn keep_positive_only_false_retains_non_positive_scores() {
        // "abc" vs "xyz": Levenshtein similarity is exactly 0 — dropped
        // under the paper's protocol, retained (at normalized weight 0)
        // when the positivity filter is switched off.
        let collection = |texts: &[&str]| EntityCollection {
            profiles: texts
                .iter()
                .enumerate()
                .map(|(i, t)| EntityProfile::new(i as u32, vec![("name".into(), (*t).into())]))
                .collect(),
            attribute_names: vec!["name".into()],
        };
        let left = collection(&["abc"]);
        let right = collection(&["abc", "xyz"]);
        let f = SimilarityFunction::SchemaBasedSyntactic {
            attribute: "name".into(),
            measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
        };
        let strict = build_graph_over(&left, &right, &f, &PipelineConfig::default());
        assert_eq!(strict.n_edges(), 1, "zero-similarity pair dropped");
        let lax_cfg = PipelineConfig {
            keep_positive_only: false,
            ..PipelineConfig::default()
        };
        let lax = build_graph_over(&left, &right, &f, &lax_cfg);
        assert_eq!(lax.n_edges(), 2, "zero-similarity pair retained");
        assert_eq!(lax.weight_of(0, 0), Some(1.0));
        assert_eq!(lax.weight_of(0, 1), Some(0.0));
        // The lax path stays bit-identical across thread counts too.
        let lax_par = build_graph_over(
            &left,
            &right,
            &f,
            &PipelineConfig {
                threads: 3,
                chunk_rows: 1,
                ..lax_cfg
            },
        );
        assert_eq!(edge_bits(&lax), edge_bits(&lax_par));
    }

    #[test]
    fn vector_graph_scores_ground_truth_higher() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let g = build_graph(&d, &f, &PipelineConfig::default());
        assert!(!g.is_empty());
        weights_in_bounds(&g);
        let sep = er_core::WeightSeparation::of(&g, &d.ground_truth);
        assert!(
            sep.mean_match_weight > sep.mean_nonmatch_weight,
            "matches {:.3} must outweigh non-matches {:.3}",
            sep.mean_match_weight,
            sep.mean_nonmatch_weight
        );
    }

    #[test]
    fn graph_model_graph_builds() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticGraph {
            scheme: NGramScheme::Char(3),
            measure: GraphSimilarity::Value,
        };
        let g = build_graph(&d, &f, &PipelineConfig::default());
        assert!(!g.is_empty());
        weights_in_bounds(&g);
    }

    #[test]
    fn semantic_graphs_are_dense_and_high_scoring() {
        let d = tiny();
        let f = SimilarityFunction::Semantic {
            model: EmbeddingModel::FastText,
            measure: SemanticMeasure::Cosine,
            scope: SemanticScope::SchemaAgnostic,
        };
        let g = build_graph(&d, &f, &PipelineConfig::default());
        weights_in_bounds(&g);
        // The anisotropy cone makes nearly every pair positive (the paper's
        // "semantic similarities assign relatively high scores to most
        // pairs").
        let density = g.n_edges() as f64 / (g.n_left() as f64 * g.n_right() as f64);
        assert!(density > 0.9, "semantic graph density {density:.3}");
    }

    #[test]
    fn wmd_scope_and_cap() {
        let d = tiny();
        let f = SimilarityFunction::Semantic {
            model: EmbeddingModel::FastText,
            measure: SemanticMeasure::WordMovers,
            scope: SemanticScope::SchemaBased {
                attribute: "name".into(),
            },
        };
        let cfg = PipelineConfig {
            wmd_token_cap: 4,
            ..PipelineConfig::default()
        };
        let g = build_graph(&d, &f, &cfg);
        assert!(!g.is_empty());
        weights_in_bounds(&g);
    }

    #[test]
    fn cached_wmd_matches_direct_computation() {
        // Full equivalence: recompute the raw score matrix directly via the
        // measure (no interning, no distance cache), apply the same
        // positive-filter + floored min-max normalization, and require the
        // graph weights to agree within 1e-12.
        let d = tiny();
        let f = SimilarityFunction::Semantic {
            model: EmbeddingModel::FastText,
            measure: SemanticMeasure::WordMovers,
            scope: SemanticScope::SchemaBased {
                attribute: "name".into(),
            },
        };
        let cfg = PipelineConfig::default();
        let g = build_graph(&d, &f, &cfg);

        let enc = EmbeddingModel::FastText.encoder();
        let bag = |p: &EntityProfile| -> Vec<DenseVector> {
            let mut toks = enc.token_vectors(p.value("name").unwrap_or_default());
            toks.truncate(cfg.wmd_token_cap);
            toks
        };
        let left: Vec<Vec<DenseVector>> = d.left.profiles.iter().map(&bag).collect();
        let right: Vec<Vec<DenseVector>> = d.right.profiles.iter().map(&bag).collect();
        let mut raws: Vec<(u32, u32, f64)> = Vec::new();
        for (i, a) in left.iter().enumerate() {
            if a.is_empty() {
                continue;
            }
            for (j, b) in right.iter().enumerate() {
                if b.is_empty() {
                    continue;
                }
                let raw = SemanticMeasure::WordMovers.similarity_tokens(a, b);
                if raw > 0.0 {
                    raws.push((i as u32, j as u32, raw));
                }
            }
        }
        assert_eq!(g.n_edges(), raws.len(), "same positive pair set");
        let hi = raws
            .iter()
            .map(|&(_, _, w)| w)
            .fold(f64::NEG_INFINITY, f64::max);
        let span = hi - 0.0;
        for (l, r, raw) in raws {
            let expect = if span <= f64::EPSILON {
                1.0
            } else {
                (raw / span).clamp(0.0, 1.0)
            };
            let got = g
                .weight_of(l, r)
                .unwrap_or_else(|| panic!("edge ({l},{r}) missing"));
            assert!(
                (got - expect).abs() < 1e-12,
                "({l},{r}): cached {got} vs direct {expect}"
            );
        }
    }

    #[test]
    fn wmd_cache_canonicalizes_symmetric_pairs() {
        // Symmetric workload: identical token bags on both sides, so every
        // ordered (a, b) distance is also queried as (b, a). With 3
        // distinct interned tokens the scoring queries all 9 ordered pairs;
        // the canonical (min, max) key stores only the 6 unordered ones —
        // the old (a, b) key held all 9.
        let collection = |texts: &[&str]| EntityCollection {
            profiles: texts
                .iter()
                .enumerate()
                .map(|(i, t)| EntityProfile::new(i as u32, vec![("name".into(), (*t).into())]))
                .collect(),
            attribute_names: vec!["name".into()],
        };
        let left = collection(&["alpha beta gamma"]);
        let right = collection(&["alpha beta gamma"]);
        let cfg = PipelineConfig::default();
        let scorer = WmdScorer::prepare(
            &left,
            &right,
            &EmbeddingModel::FastText.encoder(),
            &SemanticScope::SchemaBased {
                attribute: "name".into(),
            },
            &cfg,
            false,
        );
        assert_eq!(scorer.vectors.len(), 3, "3 distinct interned tokens");
        let mut scratch = scorer.scratch();
        let mut out = Vec::new();
        scorer.score_row(0, &mut scratch, &mut out);
        assert_eq!(out.len(), 1);
        assert!((out[0].2 - 1.0).abs() < 1e-12, "identical bags score 1");
        assert_eq!(
            scratch.len(),
            6,
            "canonical keys store 3·4/2 = 6 unordered pairs, not 9 ordered"
        );
    }

    #[test]
    fn inverted_index_matches_bruteforce_for_vectors() {
        // The index must produce exactly the positive pairs.
        let d = tiny();
        let scheme = NGramScheme::Char(3);
        let measure = VectorMeasure::CosineTf;
        let f = SimilarityFunction::SchemaAgnosticVector { scheme, measure };
        let g = build_graph(&d, &f, &PipelineConfig::default());

        // Brute force.
        let model = VectorModel::new(scheme);
        let lv: Vec<SparseVector> = d
            .left
            .profiles
            .iter()
            .map(|p| model.vector(&p.all_values_text(), er_textsim::TermWeighting::Tf, None))
            .collect();
        let rv: Vec<SparseVector> = d
            .right
            .profiles
            .iter()
            .map(|p| model.vector(&p.all_values_text(), er_textsim::TermWeighting::Tf, None))
            .collect();
        let mut brute = 0usize;
        for a in &lv {
            for b in &rv {
                if measure.similarity(a, b, None) > 0.0 {
                    brute += 1;
                }
            }
        }
        assert_eq!(g.n_edges(), brute);
    }

    #[test]
    fn parallel_construction_is_bit_identical_to_serial() {
        // Quick smoke over one branch; the exhaustive four-branch property
        // suite lives in tests/graphgen_props.rs.
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let serial = PipelineConfig {
            threads: 1,
            ..PipelineConfig::default()
        };
        let parallel = PipelineConfig {
            threads: 4,
            chunk_rows: 3,
            ..PipelineConfig::default()
        };
        let gs = build_graph(&d, &f, &serial);
        let gp = build_graph(&d, &f, &parallel);
        assert_eq!(edge_bits(&gs), edge_bits(&gp));
    }

    #[test]
    fn restricted_build_matches_full_restriction() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let cfg = PipelineConfig::default();
        let candidates = crate::blocking::token_blocking(&d.left, &d.right).candidate_pairs();
        let full = build_graph(&d, &f, &cfg);
        let via_restrict = crate::blocking::restrict_graph(&full, &candidates);
        let direct = build_graph_restricted(&d.left, &d.right, &f, &candidates, &cfg);
        let pairs = |g: &SimilarityGraph| -> FxHashSet<(u32, u32)> {
            g.edges().iter().map(|e| (e.left, e.right)).collect()
        };
        assert_eq!(
            pairs(&direct),
            pairs(&via_restrict),
            "restricted build scores exactly the candidate edges"
        );
        assert!(!direct.is_empty());
        weights_in_bounds(&direct);
    }

    #[test]
    fn restricted_build_skips_pairs_of_term_less_profiles() {
        // Regression: a candidate pair of two profiles with no terms was
        // scored by the measures' empty-vs-empty convention (1.0), a
        // max-weight edge the full inverted-index build never has.
        let collection = |texts: &[&str]| EntityCollection {
            profiles: texts
                .iter()
                .enumerate()
                .map(|(i, t)| EntityProfile::new(i as u32, vec![("name".into(), (*t).into())]))
                .collect(),
            attribute_names: vec!["name".into()],
        };
        let left = collection(&["alpha beta", "", "gamma"]);
        let right = collection(&["alpha beta", "gamma delta", ""]);
        let candidates: FxHashSet<(u32, u32)> = [(0, 0), (0, 1), (1, 2), (1, 0), (2, 1)]
            .into_iter()
            .collect();
        let functions = [
            SimilarityFunction::SchemaAgnosticVector {
                scheme: NGramScheme::Token(1),
                measure: VectorMeasure::CosineTf,
            },
            SimilarityFunction::SchemaAgnosticVector {
                scheme: NGramScheme::Char(2),
                measure: VectorMeasure::Jaccard,
            },
            SimilarityFunction::SchemaAgnosticGraph {
                scheme: NGramScheme::Char(2),
                measure: GraphSimilarity::Value,
            },
        ];
        let cfg = PipelineConfig::default();
        let pairs = |g: &SimilarityGraph| -> Vec<(u32, u32)> {
            let mut v: Vec<_> = g.edges().iter().map(|e| (e.left, e.right)).collect();
            v.sort_unstable();
            v
        };
        for f in &functions {
            let full = build_graph_over(&left, &right, f, &cfg);
            let via_restrict = crate::blocking::restrict_graph(&full, &candidates);
            let direct = build_graph_restricted(&left, &right, f, &candidates, &cfg);
            assert_eq!(pairs(&direct), pairs(&via_restrict), "{f:?}");
            assert_eq!(direct.weight_of(1, 2), None, "{f:?}: term-less pair");
        }
    }

    #[test]
    fn topk_matches_dense_then_prune_bitwise() {
        let d = tiny();
        let cfg = PipelineConfig::default();
        let functions = [
            SimilarityFunction::SchemaAgnosticVector {
                scheme: NGramScheme::Token(1),
                measure: VectorMeasure::CosineTfIdf,
            },
            SimilarityFunction::SchemaBasedSyntactic {
                attribute: "name".into(),
                measure: SchemaBasedMeasure::Char(CharMeasure::Levenshtein),
            },
        ];
        for f in &functions {
            let dense = build_graph(&d, f, &cfg);
            for k in [1usize, 3] {
                let streamed = build_graph_topk(&d, f, k, &cfg);
                assert_eq!(
                    edge_bits(&streamed),
                    edge_bits(&dense.pruned_top_k(k)),
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn topk_peak_is_bounded_while_dense_volume_is_not() {
        // Semantic cosine makes nearly every pair an edge (density > 0.9),
        // so the dense candidate volume is ~n_left × n_right while the
        // streaming path's accounting must stay within n_left × k.
        let d = tiny();
        let f = SimilarityFunction::Semantic {
            model: EmbeddingModel::FastText,
            measure: SemanticMeasure::Cosine,
            scope: SemanticScope::SchemaAgnostic,
        };
        let k = 2usize;
        let enumerated = CandidateMode::Enumerated;
        let (g, stats) = build_graph_topk_mode(
            &d.left,
            &d.right,
            &f,
            k,
            enumerated,
            &PipelineConfig::default(),
        );
        let bound = d.left.len() * k;
        assert!(
            stats.peak_resident_edges <= bound,
            "peak {} exceeds n_left × k = {bound}",
            stats.peak_resident_edges
        );
        assert_eq!(stats.retained_edges, g.n_edges());
        assert!(g.n_edges() <= bound);
        assert!(
            stats.offered_edges > 4 * bound,
            "dense volume {} should dwarf the bound {bound} — otherwise \
             this test proves nothing",
            stats.offered_edges
        );
        // The same accounting holds when workers shard the rows.
        let (_, par_stats) = build_graph_topk_mode(
            &d.left,
            &d.right,
            &f,
            k,
            enumerated,
            &PipelineConfig {
                threads: 4,
                chunk_rows: 2,
                ..PipelineConfig::default()
            },
        );
        assert!(par_stats.peak_resident_edges <= bound);
        assert_eq!(par_stats.offered_edges, stats.offered_edges);
    }

    #[test]
    fn topk_parallel_is_bit_identical_to_serial() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let serial = build_graph_topk(
            &d,
            &f,
            2,
            &PipelineConfig {
                threads: 1,
                ..PipelineConfig::default()
            },
        );
        let parallel = build_graph_topk(
            &d,
            &f,
            2,
            &PipelineConfig {
                threads: 4,
                chunk_rows: 3,
                ..PipelineConfig::default()
            },
        );
        assert_eq!(edge_bits(&serial), edge_bits(&parallel));
    }

    #[test]
    fn topk_unbounded_reproduces_dense_edge_set() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let cfg = PipelineConfig::default();
        let dense = build_graph(&d, &f, &cfg);
        let unbounded = build_graph_topk(&d, &f, usize::MAX, &cfg);
        let canon = |g: &SimilarityGraph| {
            let mut v = edge_bits(g);
            v.sort_unstable();
            v
        };
        assert_eq!(canon(&dense), canon(&unbounded));
    }

    #[test]
    fn topk_zero_keeps_nothing() {
        let d = tiny();
        let f = SimilarityFunction::SchemaAgnosticVector {
            scheme: NGramScheme::Token(1),
            measure: VectorMeasure::CosineTfIdf,
        };
        let (g, stats) = build_graph_topk_mode(
            &d.left,
            &d.right,
            &f,
            0,
            CandidateMode::Enumerated,
            &PipelineConfig::default(),
        );
        assert!(g.is_empty());
        assert_eq!(stats.peak_resident_edges, 0);
        assert!(stats.offered_edges > 0, "candidates were still scored");
    }
}
