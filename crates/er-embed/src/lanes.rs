//! Lane-parallel dense-vector kernels.
//!
//! The scalar geometry of [`DenseVector`] is a *serial* float chain: a
//! 300-dimension dot product is 300 dependent additions, and every
//! candidate pays the full chain latency before the next one starts.
//! One left row, however, is scored against many independent right
//! candidates — so these kernels restructure the loops to advance
//! [`LANE_WIDTH`] candidates per dimension step through `[f64; L]` lane
//! accumulators. The lanes are independent dependency chains, which
//! buys instruction-level parallelism on any core and gives LLVM
//! regular loops to autovectorize — no nightly `core::simd`, no
//! intrinsics.
//!
//! [`VectorBlocks`] is the storage the semantic graph builds score
//! against: the right-side vectors, stored once in dimension-major
//! blocks of [`LANE_WIDTH`], so one block step reads `LANE_WIDTH`
//! contiguous components, with each vector's norm and zero flag computed
//! once at push time instead of once per pair.
//!
//! # Exactness contract
//!
//! Each lane performs **exactly the scalar operation sequence**: lane
//! `l`'s accumulator starts from the identity `Iterator::sum` folds from
//! and receives the same values, in the same order, with the same
//! rounding steps as `a.dot(b)` / `a.cosine(b)` /
//! `a.euclidean_distance(b)` would produce. Interleaving *between*
//! accumulators never reorders the operations *within* one, and IEEE-754
//! ops are deterministic — so the block results equal
//! [`SemanticMeasure::similarity_vectors`] bit for bit, signed zeros
//! included (property-pinned in `er-pipeline/tests/kernel_props.rs`).
//! This is what keeps the pipeline's dense semantic graphs bit-identical
//! to a naive per-pair reference all the way up to finished graph
//! weights.

use crate::dense::DenseVector;
use crate::measures::SemanticMeasure;

/// Number of candidates one lane step advances — mirrors
/// `er_textsim::lanes::LANE_WIDTH` (eight independent `f64` chains keep
/// a 512-bit FMA pipe busy without spilling lane state to the stack).
pub const LANE_WIDTH: usize = 8;

/// The value `Iterator::sum::<f64>` folds from (`-0.0` on current
/// toolchains). Starting the lane accumulators from it keeps a sum of
/// all-`-0.0` products `-0.0`, exactly like the scalar dot product.
#[inline]
fn sum_identity() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// A left-row vector prepared for block scoring: its norm and zero flag
/// are computed once per row instead of once per pair.
#[derive(Debug, Clone, Copy)]
pub struct Probe<'a> {
    vector: &'a DenseVector,
    norm: f64,
    zero: bool,
}

impl<'a> Probe<'a> {
    /// Prepare `vector` for scoring against [`VectorBlocks`].
    pub fn new(vector: &'a DenseVector) -> Self {
        Probe {
            vector,
            norm: vector.norm(),
            zero: vector.is_zero(),
        }
    }
}

/// Dense vectors of one dimension, stored in dimension-major blocks of
/// [`LANE_WIDTH`] with each vector's norm and zero flag cached.
///
/// Component `i` of vector `j` lives at
/// `comps[(j / L) · dim · L + i · L + j % L]`, so scoring a block walks
/// its memory once, front to back. The last block is padded with zero
/// lanes (norm `0`, zero flag set); their outputs are meaningless and
/// callers stop at [`len`](VectorBlocks::len).
///
/// ```
/// use er_embed::lanes::{Probe, VectorBlocks, LANE_WIDTH};
/// use er_embed::{DenseVector, SemanticMeasure};
///
/// let right = [DenseVector(vec![3.0, 4.0]), DenseVector(vec![-1.0, 0.5])];
/// let mut blocks = VectorBlocks::with_capacity(2, right.len());
/// for v in &right {
///     blocks.push(v);
/// }
/// let a = DenseVector(vec![1.0, 2.0]);
/// let mut out = [0.0f64; LANE_WIDTH];
/// blocks.similarity_block(SemanticMeasure::Cosine, &Probe::new(&a), 0, &mut out);
/// for (j, b) in right.iter().enumerate() {
///     assert_eq!(out[j].to_bits(), SemanticMeasure::Cosine.similarity_vectors(&a, b).to_bits());
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct VectorBlocks {
    dim: usize,
    len: usize,
    comps: Vec<f32>,
    /// `DenseVector::norm` per slot, padded to whole blocks with `0`.
    norms: Vec<f64>,
    /// `DenseVector::is_zero` per slot, padded to whole blocks with `true`.
    zero: Vec<bool>,
}

impl VectorBlocks {
    /// Empty storage for vectors of dimension `dim`, with room for `n`
    /// vectors before reallocating.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        let slots = n.div_ceil(LANE_WIDTH) * LANE_WIDTH;
        VectorBlocks {
            dim,
            len: 0,
            comps: Vec::with_capacity(slots * dim),
            norms: Vec::with_capacity(slots),
            zero: Vec::with_capacity(slots),
        }
    }

    /// Number of stored vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no vector is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimension of the stored vectors.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of [`LANE_WIDTH`]-wide blocks (the last one may be partial).
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.len.div_ceil(LANE_WIDTH)
    }

    /// Whether vector `j` is the zero vector.
    #[inline]
    pub fn is_zero(&self, j: usize) -> bool {
        assert!(j < self.len, "vector index out of range");
        self.zero[j]
    }

    /// Remove every vector, keeping the allocation.
    pub fn clear(&mut self) {
        self.len = 0;
        self.comps.clear();
        self.norms.clear();
        self.zero.clear();
    }

    /// Open the next slot, appending a zero-padded block when the last
    /// one is full, and return its `(block offset, lane)`.
    fn open_slot(&mut self) -> (usize, usize) {
        let (block, lane) = (self.len / LANE_WIDTH, self.len % LANE_WIDTH);
        if lane == 0 {
            self.comps
                .resize(self.comps.len() + self.dim * LANE_WIDTH, 0.0);
            self.norms.resize(self.norms.len() + LANE_WIDTH, 0.0);
            self.zero.resize(self.zero.len() + LANE_WIDTH, true);
        }
        self.len += 1;
        (block * self.dim * LANE_WIDTH, lane)
    }

    /// Append `v`, computing its norm and zero flag once. Panics on
    /// dimension mismatch.
    pub fn push(&mut self, v: &DenseVector) {
        assert_eq!(v.dim(), self.dim, "dimension mismatch");
        let j = self.len;
        let (base, lane) = self.open_slot();
        for (i, &x) in v.0.iter().enumerate() {
            self.comps[base + i * LANE_WIDTH + lane] = x;
        }
        self.norms[j] = v.norm();
        self.zero[j] = v.is_zero();
    }

    /// Append a copy of `other`'s vector `j`, cached norm and zero flag
    /// included — the gather step that packs scattered candidates into
    /// one block. Panics on dimension mismatch.
    pub fn push_from(&mut self, other: &VectorBlocks, j: usize) {
        assert_eq!(other.dim, self.dim, "dimension mismatch");
        assert!(j < other.len, "vector index out of range");
        let (src, src_lane) = ((j / LANE_WIDTH) * self.dim * LANE_WIDTH, j % LANE_WIDTH);
        let slot = self.len;
        let (dst, lane) = self.open_slot();
        for i in 0..self.dim {
            self.comps[dst + i * LANE_WIDTH + lane] = other.comps[src + i * LANE_WIDTH + src_lane];
        }
        self.norms[slot] = other.norms[j];
        self.zero[slot] = other.zero[j];
    }

    /// Score `probe` against every lane of block `block`:
    /// `out[l] = measure.similarity_vectors(probe, vector(block · L + l))`
    /// bit for bit for every stored lane (padding lanes hold garbage).
    /// Panics for [`SemanticMeasure::WordMovers`], exactly like the scalar
    /// method, and on dimension mismatch.
    pub fn similarity_block(
        &self,
        measure: SemanticMeasure,
        probe: &Probe<'_>,
        block: usize,
        out: &mut [f64; LANE_WIDTH],
    ) {
        assert_eq!(probe.vector.dim(), self.dim, "dimension mismatch");
        let span = self.dim * LANE_WIDTH;
        let comps = &self.comps[block * span..(block + 1) * span];
        let lanes = block * LANE_WIDTH..(block + 1) * LANE_WIDTH;
        let (norms, zero) = (&self.norms[lanes.clone()], &self.zero[lanes]);
        let rows = probe.vector.0.iter().zip(comps.chunks_exact(LANE_WIDTH));
        let mut acc = [sum_identity(); LANE_WIDTH];
        match measure {
            SemanticMeasure::Cosine => {
                for (&av, b) in rows {
                    let av = av as f64;
                    for l in 0..LANE_WIDTH {
                        acc[l] += av * b[l] as f64;
                    }
                }
                for l in 0..LANE_WIDTH {
                    let denom = probe.norm * norms[l];
                    out[l] = if denom == 0.0 {
                        0.0
                    } else {
                        (acc[l] / denom).clamp(0.0, 1.0)
                    };
                }
            }
            SemanticMeasure::Euclidean => {
                for (&av, b) in rows {
                    let av = av as f64;
                    for l in 0..LANE_WIDTH {
                        let d = av - b[l] as f64;
                        acc[l] += d * d;
                    }
                }
                for l in 0..LANE_WIDTH {
                    out[l] = if probe.zero || zero[l] {
                        0.0
                    } else {
                        1.0 / (1.0 + acc[l].sqrt())
                    };
                }
            }
            SemanticMeasure::WordMovers => {
                panic!("WordMovers requires token vectors; use similarity_tokens")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs() -> Vec<DenseVector> {
        vec![
            DenseVector(vec![1.0, 2.0, -3.0]),
            DenseVector(vec![0.5, -0.25, 8.0]),
            DenseVector::zeros(3),
            DenseVector(vec![1e-30, 2e30, 1.0]),
            DenseVector(vec![-0.0, 0.0, -1.0]),
        ]
    }

    fn blocks_of(vs: &[DenseVector]) -> VectorBlocks {
        let mut blocks = VectorBlocks::with_capacity(vs[0].dim(), vs.len());
        for v in vs {
            blocks.push(v);
        }
        blocks
    }

    #[test]
    fn blocks_are_bit_identical_to_scalar() {
        let bs = vecs();
        let blocks = blocks_of(&bs);
        let probes = [
            DenseVector(vec![0.1, -7.0, 2.5]),
            DenseVector::zeros(3),
            // All products with the last vector are -0.0: the scalar
            // dot product of it is -0.0, and so must the lane's be.
            DenseVector(vec![1.0, -1.0, 0.0]),
        ];
        let mut out = [0.0f64; LANE_WIDTH];
        for a in &probes {
            for m in [SemanticMeasure::Cosine, SemanticMeasure::Euclidean] {
                blocks.similarity_block(m, &Probe::new(a), 0, &mut out);
                for (l, b) in bs.iter().enumerate() {
                    assert_eq!(
                        out[l].to_bits(),
                        m.similarity_vectors(a, b).to_bits(),
                        "{} lane {l}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn gather_round_trip() {
        let bs: Vec<DenseVector> = (0..11)
            .map(|j| DenseVector(vec![j as f32, -(j as f32), 0.5]))
            .collect();
        let blocks = blocks_of(&bs);
        assert_eq!((blocks.len(), blocks.n_blocks()), (11, 2));
        let mut gathered = VectorBlocks::with_capacity(3, LANE_WIDTH);
        let order = [10usize, 0, 7];
        for (slot, &j) in order.iter().enumerate() {
            gathered.push_from(&blocks, j);
            assert_eq!(gathered.is_zero(slot), bs[j].is_zero());
        }
        // A gathered lane scores exactly like the vector it copied.
        let probe = DenseVector(vec![0.25, 3.0, -1.0]);
        let mut out = [0.0f64; LANE_WIDTH];
        gathered.similarity_block(SemanticMeasure::Euclidean, &Probe::new(&probe), 0, &mut out);
        for (slot, &j) in order.iter().enumerate() {
            assert_eq!(
                out[slot].to_bits(),
                SemanticMeasure::Euclidean
                    .similarity_vectors(&probe, &bs[j])
                    .to_bits()
            );
        }
        gathered.clear();
        assert!(gathered.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut blocks = VectorBlocks::with_capacity(2, 1);
        blocks.push(&DenseVector(vec![1.0]));
    }
}
