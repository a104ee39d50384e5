//! The three workloads. Each returns an [`Outcome`]; `main` adds the
//! process-wide figures and prints it.

pub mod linkage_ooc;
pub mod paper_sweep;
pub mod service_mix;

use er_datasets::{Dataset, DatasetId};

use crate::report::{Metrics, Outcome};
use crate::Bench;

/// Run the workload named in the arguments.
pub fn run(bench: &Bench) -> Outcome {
    match bench.args.workload.as_str() {
        "paper-sweep" => paper_sweep::run(bench),
        "linkage-ooc" => linkage_ooc::run(bench),
        "service-mix" => service_mix::run(bench),
        other => unreachable!("workload {other} rejected by argument parsing"),
    }
}

/// The dataset a workload generates its records from, its scale and the
/// number of independent draws. Batch workloads average over several
/// draws so that one run does not hinge on one draw's vocabulary.
pub fn dataset_of(workload: &str) -> (DatasetId, f64, usize) {
    match workload {
        "paper-sweep" => (
            DatasetId::D7,
            paper_sweep::SCALE,
            paper_sweep::FUNCTIONS.len(),
        ),
        "linkage-ooc" => (DatasetId::D7, linkage_ooc::SCALE, linkage_ooc::DRAWS),
        _ => (DatasetId::D7, service_mix::SCALE, service_mix::TENANTS),
    }
}

/// Seed of draw `i` of a run with seed `seed`; draws of different run
/// seeds never coincide.
pub fn draw_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(i as u64)
}

/// Canonical bytes of every input a workload generates from `seed`: the
/// two collections and the ground truth of each draw and, for
/// `service-mix`, the first 10 000 op classes of the stream.
pub fn input_bytes(workload: &str, seed: u64) -> Vec<u8> {
    let (id, scale, draws) = dataset_of(workload);
    let mut out = String::new();
    for i in 0..draws {
        let ds = Dataset::generate(id, scale, draw_seed(seed, i));
        out.push_str(&format!(
            "{:?}\n{:?}\n{:?}\n",
            ds.left.profiles,
            ds.right.profiles,
            ds.ground_truth.pairs()
        ));
    }
    if workload == "service-mix" {
        let mut rng = service_mix::Lcg::new(seed);
        for _ in 0..10_000 {
            out.push_str(rng.op().name());
            out.push(',');
        }
    }
    out.into_bytes()
}

/// Record the tracing overhead of a traced run whose timed region
/// alternated untraced and traced rounds. `parity[0]` and `parity[1]`
/// hold the items completed and seconds spent in untraced and traced
/// rounds.
pub(crate) fn set_overhead(layer: &mut Metrics, parity: [(u64, f64); 2], spans: usize) {
    let rate = |(n, s): (u64, f64)| if s > 0.0 { n as f64 / s } else { 0.0 };
    let (untraced, traced) = (rate(parity[0]), rate(parity[1]));
    layer.set("trace.spans", spans as f64);
    layer.set("trace.rate_untraced", untraced);
    layer.set("trace.rate_traced", traced);
    if untraced > 0.0 {
        layer.set("trace.overhead_pct", (untraced - traced) / untraced * 100.0);
    }
}
