//! `service-mix`: resident `ErService`s under a stream of updates and
//! queries.
//!
//! Set-up loads [`TENANTS`] services, each over its own draw of the
//! dataset (top-k token TF-IDF cosine graph, resident scorer,
//! incremental UMC). One thread then issues a fixed mix of point reads
//! and writes, first open-loop at [`OFFERED_RATE`] (latency timed from
//! each op's due time) and then closed-loop for throughput. Checkpoints
//! compare each incremental matching with a full re-match.

use std::time::{Duration, Instant};

use er_core::{Side, ThresholdGrid};
use er_eval::sweep::SweepEngine;
use er_matchers::{AlgorithmConfig, AlgorithmKind, PreparedGraph};
use er_service::{ErService, ServiceConfig};

use crate::report::{Metrics, Ops, Outcome};
use crate::stats::{chunked_percentile, mean, median, percentile};
use crate::{function_named, Bench};

/// Dataset scale: D7 at 0.25 is 1514 × 1953 records.
pub const SCALE: f64 = 0.25;

/// Edges kept per record.
pub const K: usize = 5;

/// Threshold the resident UMC matches at.
pub const THRESHOLD: f64 = 0.3;

/// Similarity function of the resident graph.
pub const FUNCTION: &str = "sa-syn/t1/CosineTFIDF";

/// Open-loop offered rate in ops/s: a fixed share of the closed-loop
/// capacity measured once (see `README.md`).
pub const OFFERED_RATE: f64 = 2000.0;

/// Share of `--seconds` spent in the open loop; the rest is closed-loop.
/// Over ten seeds the closed-loop rates spread about half as much as
/// the open-loop figures, so the open loop gets the larger share.
pub const OPEN_SHARE: f64 = 0.7;

/// Resident services, each over its own draw of the dataset; op `i` of
/// the stream goes to service `i mod TENANTS`.
pub const TENANTS: usize = 8;

/// Closed-loop operations between two matching checkpoints.
const CHECK_EVERY: u64 = 2000;

/// Open-loop operations between two matching checkpoints. Each one
/// times a full re-match per tenant for `graphs_per_s`, so a short gap
/// spreads the samples over the whole open loop and a slow host phase
/// moves few of them.
const REMATCH_EVERY: u64 = 500;

/// Latency samples per chunk: each reported percentile is the median of
/// the chunks' percentiles, and a chunk of 100 leaves 10 samples above
/// its p90.
const LATENCY_CHUNK: usize = 100;

/// Closed-loop ops per block; the traced run alternates traced and
/// untraced blocks to measure tracing overhead.
const BLOCK: u64 = 1000;

/// The op mix, in per-mille: `(kind, share)`.
pub const MIX: [(OpKind, u64); 5] = [
    (OpKind::NeighborsLeft, 250),
    (OpKind::NeighborsRight, 250),
    (OpKind::MatchOf, 300),
    (OpKind::Insert, 140),
    (OpKind::Remove, 60),
];

/// One class of service operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `neighbors(Left, id)`.
    NeighborsLeft,
    /// `neighbors(Right, id)`.
    NeighborsRight,
    /// `match_of(side, id)`.
    MatchOf,
    /// `insert(side, clone of a resident donor under next_id)`.
    Insert,
    /// `remove(side, live id)`.
    Remove,
}

impl OpKind {
    /// Metric stem.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::NeighborsLeft => "neighbors_left",
            OpKind::NeighborsRight => "neighbors_right",
            OpKind::MatchOf => "match_of",
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
        }
    }

    /// Name of the span around one op; a constant, so that the plain
    /// run allocates nothing for it.
    fn span(self) -> &'static str {
        match self {
            OpKind::NeighborsLeft => "service.neighbors_left",
            OpKind::NeighborsRight => "service.neighbors_right",
            OpKind::MatchOf => "service.match_of",
            OpKind::Insert => "service.insert",
            OpKind::Remove => "service.remove",
        }
    }

    fn is_write(self) -> bool {
        matches!(self, OpKind::Insert | OpKind::Remove)
    }
}

/// Deterministic 64-bit LCG: the op stream depends only on the seed.
pub struct Lcg(u64);

impl Lcg {
    /// A generator for one seed.
    pub fn new(seed: u64) -> Self {
        Lcg(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// Next value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) % n.max(1)
    }

    /// Next op class, drawn from [`MIX`].
    pub fn op(&mut self) -> OpKind {
        let mut x = self.below(1000);
        for (kind, share) in MIX {
            if x < share {
                return kind;
            }
            x -= share;
        }
        unreachable!("MIX sums to 1000")
    }

    fn side(&mut self) -> Side {
        if self.below(2) == 0 {
            Side::Left
        } else {
            Side::Right
        }
    }
}

/// A live id of `side` at or after a random start, if any.
fn live_id(svc: &ErService, side: Side, rng: &mut Lcg) -> Option<u32> {
    let n = svc.next_id(side);
    let start = rng.below(u64::from(n)) as u32;
    (0..n)
        .map(|d| (start + d) % n)
        .find(|&id| svc.is_live(side, id))
}

/// Issue one operation of class `kind`. Returns whether a remove
/// triggered an auto-compaction.
fn issue(
    svc: &mut ErService,
    kind: OpKind,
    rng: &mut Lcg,
    donors: (u32, u32),
) -> Result<bool, String> {
    match kind {
        OpKind::NeighborsLeft | OpKind::NeighborsRight => {
            let side = if kind == OpKind::NeighborsLeft {
                Side::Left
            } else {
                Side::Right
            };
            let id = live_id(svc, side, rng).ok_or("no live id")?;
            std::hint::black_box(svc.neighbors(side, id));
        }
        OpKind::MatchOf => {
            let side = rng.side();
            let id = live_id(svc, side, rng).ok_or("no live id")?;
            std::hint::black_box(svc.match_of(side, id));
        }
        OpKind::Insert => {
            let side = rng.side();
            let n = if side == Side::Left {
                donors.0
            } else {
                donors.1
            };
            let donor = rng.below(u64::from(n)) as u32;
            let mut p = svc
                .profile(side, donor)
                .ok_or_else(|| format!("no donor profile {donor}"))?
                .clone();
            p.id = svc.next_id(side);
            svc.insert(side, &p).map_err(|e| format!("insert: {e}"))?;
        }
        OpKind::Remove => {
            let side = rng.side();
            let id = live_id(svc, side, rng).ok_or("no live id")?;
            let before = svc.tombstone_ratio();
            svc.remove(side, id).map_err(|e| format!("remove: {e}"))?;
            return Ok(svc.tombstone_ratio() < before);
        }
    }
    Ok(false)
}

/// Latency samples in microseconds, per op class.
#[derive(Default)]
struct Latencies {
    read: Vec<f64>,
    write: Vec<f64>,
}

/// One resident service over its own draw of the dataset.
struct Tenant {
    svc: ErService,
    donors: (u32, u32),
}

/// Run the workload.
pub fn run(bench: &Bench) -> Outcome {
    let tr = &bench.tracer;
    let cfg = ServiceConfig {
        k: K,
        threshold: THRESHOLD,
        algorithm: AlgorithmKind::Umc,
        ..ServiceConfig::default()
    };
    let mut build = || {
        let draws = bench.generate();
        let tenants: Vec<Tenant> = draws
            .iter()
            .enumerate()
            .map(|(i, ds)| {
                let f = function_named(ds, FUNCTION);
                let svc = tr.span("service.load", i as u64, || {
                    ErService::load(&ds.left, &ds.right, &f, cfg.clone())
                });
                let donors = (ds.left.len() as u32, ds.right.len() as u32);
                Tenant { svc, donors }
            })
            .collect();
        (draws, tenants)
    };
    let ((draws, mut tenants), setup_times) = bench.setup(&mut build);

    // Before the stream (untimed by the op clocks): the quality of each
    // loaded graph, as the best F1 of the eight matchers over the paper
    // grid. Under traffic, the checkpoints hold every served matching
    // equal to a full re-match.
    let engine = SweepEngine::new(AlgorithmConfig::default());
    let mut f1s: Vec<f64> = Vec::new();
    for (t, ds) in tenants.iter().zip(&draws) {
        let pg = PreparedGraph::from_csr(t.svc.store());
        let sweep = engine.sweep_all(&pg, &ds.ground_truth, &ThresholdGrid::paper());
        f1s.extend(sweep.iter().map(|r| r.best.f1));
    }

    let mut rng = Lcg::new(bench.args.seed);
    let mut ops = Ops::default();
    let mut compactions = 0u64;
    let mut issued = 0u64;
    // One op, sent to the tenants in turn: span, error accounting.
    let mut step = |tenants: &mut [Tenant], ops: &mut Ops, rng: &mut Lcg| -> (OpKind, bool) {
        let kind = rng.op();
        let req = issued;
        issued += 1;
        let n = tenants.len() as u64;
        let t = &mut tenants[(req % n) as usize];
        let done =
            ops.attempt(|| tr.span(kind.span(), req, || issue(&mut t.svc, kind, rng, t.donors)));
        if done == Some(true) {
            compactions += 1;
        }
        (kind, done.is_some())
    };
    // Checkpoint (untimed by the op clocks): each incremental matching
    // equals a full re-match. Returns the full re-match times, which the
    // open loop's checkpoints turn into `graphs_per_s`: their states are
    // fixed by the seed, and they spread over the loop's seconds.
    let checkpoint = |tenants: &mut [Tenant], ops: &mut Ops| -> Vec<f64> {
        let mut times = Vec::with_capacity(tenants.len());
        for t in tenants.iter_mut() {
            let start = Instant::now();
            let full =
                ops.attempt(|| Ok(tr.span("service.full_rematch", 0, || t.svc.full_rematch())));
            times.push(start.elapsed().as_secs_f64());
            if full.is_some_and(|full| t.svc.matching() != full) {
                ops.mismatch("incremental matching differs from a full re-match");
            }
        }
        times
    };
    let mut rematch_s: Vec<f64> = Vec::new();

    // Open loop at the offered rate; latency from each op's due time.
    let n_open = (OFFERED_RATE * bench.args.seconds * OPEN_SHARE).ceil() as u64;
    let period = Duration::from_secs_f64(1.0 / OFFERED_RATE);
    let mut lat = Latencies::default();
    let mut late_us = Vec::with_capacity(n_open as usize);
    let mut base = Instant::now();
    let mut since_base = 0u32;
    for i in 0..n_open {
        if i > 0 && i % REMATCH_EVERY == 0 {
            rematch_s.extend(checkpoint(&mut tenants, &mut ops));
            base = Instant::now();
            since_base = 0;
        }
        let due = base + period * since_base;
        since_base += 1;
        // Busy-wait on the clock alone: a PAUSE-based spin can make a
        // virtual CPU yield to its hypervisor, which shows up as noise.
        while Instant::now() < due {}
        late_us.push(due.elapsed().as_secs_f64() * 1e6);
        let (kind, ok) = step(&mut tenants, &mut ops, &mut rng);
        if ok {
            let us = due.elapsed().as_secs_f64() * 1e6;
            if kind.is_write() {
                lat.write.push(us);
            } else {
                lat.read.push(us);
            }
        }
    }
    rematch_s.extend(checkpoint(&mut tenants, &mut ops));

    // Closed loop: back-to-back ops for throughput.
    let closed_s = bench.args.seconds * (1.0 - OPEN_SHARE);
    let (mut closed_ops, mut closed_writes, mut busy_s) = (0u64, 0u64, 0.0f64);
    let mut parity = [(0u64, 0.0f64); 2];
    let mut block = 0u64;
    while busy_s < closed_s || (bench.args.trace && block < 2) {
        let traced = bench.args.trace && block % 2 == 1;
        tr.set_enabled(traced);
        let t0 = Instant::now();
        let mut done = 0u64;
        for _ in 0..BLOCK {
            let (kind, ok) = step(&mut tenants, &mut ops, &mut rng);
            if ok {
                done += 1;
                closed_writes += kind.is_write() as u64;
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        busy_s += dt;
        closed_ops += done;
        parity[traced as usize].0 += done;
        parity[traced as usize].1 += dt;
        block += 1;
        tr.set_enabled(bench.args.trace);
        if (block * BLOCK).is_multiple_of(CHECK_EVERY) {
            checkpoint(&mut tenants, &mut ops);
        }
    }
    checkpoint(&mut tenants, &mut ops);

    let mut e2e = Metrics::default();
    e2e.set("ok_ratio", ops.ok_ratio());
    e2e.set("graphs_per_s", 1.0 / median(&rematch_s));
    e2e.set("records_per_s", closed_writes as f64 / busy_s);
    e2e.set("f1_mean", mean(&f1s));
    e2e.set("ops_per_s", closed_ops as f64 / busy_s);
    e2e.set(
        "read_p50_us",
        chunked_percentile(&lat.read, LATENCY_CHUNK, 0.5),
    );
    e2e.set(
        "read_p90_us",
        chunked_percentile(&lat.read, LATENCY_CHUNK, 0.9),
    );
    e2e.set(
        "write_p50_us",
        chunked_percentile(&lat.write, LATENCY_CHUNK, 0.5),
    );
    e2e.set(
        "write_p90_us",
        chunked_percentile(&lat.write, LATENCY_CHUNK, 0.9),
    );

    let svcs = || tenants.iter().map(|t| &t.svc);
    let mut layer = Metrics::default();
    if bench.args.trace {
        for (kind, _) in MIX {
            let us: Vec<f64> = tr.self_ms(kind.span()).iter().map(|ms| ms * 1e3).collect();
            layer.set(
                format!("service.{}_us.p50", kind.name()),
                percentile(&us, 0.5),
            );
            layer.set(
                format!("service.{}_us.p99", kind.name()),
                percentile(&us, 0.99),
            );
        }
        layer.set("service.compactions", compactions as f64);
        let ratios: Vec<f64> = svcs().map(|s| s.tombstone_ratio()).collect();
        layer.set("service.tombstone_ratio_end", mean(&ratios));
        layer.set(
            "service.edges_end",
            svcs().map(|s| s.n_edges() as f64).sum(),
        );
        layer.set("service.gen_late_p99_us", percentile(&late_us, 0.99));
        super::set_overhead(&mut layer, parity, tr.len());
    }

    let mix: Vec<String> = MIX
        .iter()
        .map(|(k, share)| format!("{}={}", k.name(), *share as f64 / 1000.0))
        .collect();
    let count = |f: &dyn Fn(&ErService) -> u32| svcs().map(|s| u64::from(f(s))).sum::<u64>();
    let mut out = Outcome {
        ops,
        e2e,
        layer,
        inputs: vec![
            ("dataset", "D7".into()),
            ("scale", SCALE.to_string()),
            ("tenants", TENANTS.to_string()),
            (
                "n_left",
                draws
                    .iter()
                    .map(|d| d.left.len())
                    .sum::<usize>()
                    .to_string(),
            ),
            (
                "n_right",
                draws
                    .iter()
                    .map(|d| d.right.len())
                    .sum::<usize>()
                    .to_string(),
            ),
            ("function", FUNCTION.into()),
            ("k", K.to_string()),
            ("threshold", THRESHOLD.to_string()),
            ("algorithm", "UMC".into()),
            ("threads", "1".into()),
            ("op_mix", mix.join(",")),
            ("offered_rate", OFFERED_RATE.to_string()),
            ("open_ops", n_open.to_string()),
            ("closed_ops", closed_ops.to_string()),
            ("read_samples", lat.read.len().to_string()),
            ("write_samples", lat.write.len().to_string()),
            ("compactions", compactions.to_string()),
            ("n_left_end", count(&|s| s.n_left()).to_string()),
            ("n_right_end", count(&|s| s.n_right()).to_string()),
        ],
    };
    drop((draws, tenants));
    bench.finish_setup(
        setup_times,
        build,
        &["datasets.generate", "service.load"],
        &mut out,
    );
    out
}
