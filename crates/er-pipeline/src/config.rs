//! Pipeline configuration.

use serde::Serialize;

/// Knobs for graph generation.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineConfig {
    /// Cap on token-bag size for schema-agnostic Word Mover's similarity.
    ///
    /// Relaxed WMD is quadratic in bag size; whole-profile texts can carry
    /// dozens of tokens. Capping at the first `wmd_token_cap` tokens bounds
    /// the cost while preserving the measure's character (documented
    /// substitution; schema-based values stay uncapped in practice as they
    /// are short).
    pub wmd_token_cap: usize,
    /// Drop edges with weight ≤ 0 before normalization (the paper keeps
    /// "all pairs of entities … with a similarity higher than 0").
    pub keep_positive_only: bool,
    /// Number of worker threads (0 = all cores). Governs both the corpus
    /// runner's across-graph fan-out and the construction engine's
    /// within-graph left-row sharding; the runner divides its budget so
    /// the two never multiply (see `runner::generate_corpus`).
    pub threads: usize,
    /// Left rows per work chunk of the parallel construction engine
    /// (0 = auto). Chunks are contiguous row ranges claimed by workers
    /// through an atomic cursor and merged back in chunk order, so the
    /// chunk size affects load balancing only — never results.
    pub chunk_rows: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            wmd_token_cap: 16,
            keep_positive_only: true,
            threads: 0,
            chunk_rows: 0,
        }
    }
}

impl PipelineConfig {
    /// Effective worker count.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// The config an outer fan-out (corpus runner, repro harness) hands
    /// to each of its `workers` per-graph builds: the thread budget is
    /// **divided**, `⌊T / workers⌋` (at least 1) intra-graph threads, so
    /// nested fan-outs never multiply into `T × T` threads.
    pub fn divided_among(&self, workers: usize) -> PipelineConfig {
        PipelineConfig {
            threads: (self.effective_threads() / workers.max(1)).max(1),
            ..self.clone()
        }
    }

    /// Effective rows per construction chunk for a graph with `n_rows`
    /// left rows scored by `threads` workers. Auto mode (0) targets ~8
    /// chunks per worker so a slow chunk (skewed profile lengths) cannot
    /// idle the rest of the pool.
    pub fn effective_chunk_rows(&self, n_rows: usize, threads: usize) -> usize {
        if self.chunk_rows > 0 {
            self.chunk_rows
        } else {
            n_rows.div_ceil(threads.max(1) * 8).max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PipelineConfig::default();
        assert!(c.wmd_token_cap >= 8);
        assert!(c.keep_positive_only);
        assert!(c.effective_threads() >= 1);
        let c2 = PipelineConfig {
            threads: 3,
            ..PipelineConfig::default()
        };
        assert_eq!(c2.effective_threads(), 3);
    }

    #[test]
    fn divided_among_splits_without_multiplying() {
        let c = PipelineConfig {
            threads: 8,
            ..PipelineConfig::default()
        };
        assert_eq!(c.divided_among(4).effective_threads(), 2);
        assert_eq!(c.divided_among(8).effective_threads(), 1);
        assert_eq!(c.divided_among(100).effective_threads(), 1, "floors at 1");
        assert_eq!(
            c.divided_among(0).effective_threads(),
            8,
            "0 workers → whole budget"
        );
        assert_eq!(c.divided_among(1).effective_threads(), 8);
    }

    #[test]
    fn chunk_rows_auto_and_explicit() {
        let auto = PipelineConfig::default();
        // 100 rows over 4 workers → ceil(100/32) = 4 rows per chunk.
        assert_eq!(auto.effective_chunk_rows(100, 4), 4);
        // Tiny inputs never produce zero-sized chunks.
        assert_eq!(auto.effective_chunk_rows(1, 8), 1);
        assert_eq!(auto.effective_chunk_rows(0, 4), 1);
        let explicit = PipelineConfig {
            chunk_rows: 7,
            ..PipelineConfig::default()
        };
        assert_eq!(explicit.effective_chunk_rows(100, 4), 7);
    }
}
