//! Repository benchmark: three seeded workloads over the ER stack, each
//! run in its own process, printing end-to-end metrics (plain run) or
//! per-layer metrics from in-memory spans (traced run). See `README.md`.

pub mod host;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::time::Instant;

use er_datasets::Dataset;
use er_pipeline::SimilarityFunction;

use crate::trace::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper-sweep", "linkage-ooc", "service-mix"];

/// Times the workload state is built before the timed region; the
/// first is timed from process start.
pub const SETUP_REPEATS: usize = 2;

/// Times it is built again after the timed region, once the workload
/// has dropped its state. `setup_s` is the median over all the set-ups,
/// so a slow host phase must span both ends of the run to move it.
pub const LATE_SETUP_REPEATS: usize = 2;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Record spans and print per-layer metrics.
    pub trace: bool,
    /// Directory for store files, spills and span dumps.
    pub scratch: PathBuf,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--scratch <dir>]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut scratch = PathBuf::from(".perfbench");
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value after {flag}"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("bad seconds {value}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace flag {value}")),
                    }
                }
                "--scratch" => scratch = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload: String = workload.ok_or("missing --workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            scratch,
        })
    }
}

/// State shared by one workload run.
pub struct Bench {
    /// The parsed arguments.
    pub args: Args,
    /// Span recorder, on in the traced run.
    pub tracer: Tracer,
    started: Instant,
}

impl Bench {
    /// A run that started (for `setup_s`) at `started`.
    pub fn new(args: Args, started: Instant) -> Self {
        let tracer = Tracer::new(args.trace);
        Bench {
            args,
            tracer,
            started,
        }
    }

    /// Build the workload state [`SETUP_REPEATS`] times, dropping each
    /// copy before the next, and return the last one with the set-up
    /// times in seconds. The first repeat is timed from process start.
    /// Each repeat runs inside a `bench.setup` span.
    pub fn setup<S>(&self, mut build: impl FnMut() -> S) -> (S, Vec<f64>) {
        let mut times = Vec::with_capacity(SETUP_REPEATS + LATE_SETUP_REPEATS);
        let mut state = None;
        for rep in 0..SETUP_REPEATS {
            drop(state.take());
            let t0 = if rep == 0 {
                self.started
            } else {
                Instant::now()
            };
            state = Some(self.tracer.span("bench.setup", rep as u64, &mut build));
            times.push(t0.elapsed().as_secs_f64());
        }
        (state.expect("at least one repeat"), times)
    }

    /// Call once the workload's state is dropped. Builds it
    /// [`LATE_SETUP_REPEATS`] more times, each copy dropped at once, and
    /// sets `setup_s` in `out` to the median of all set-up times. In a
    /// traced run it also sets `<span>_ms` for each of `spans`: the
    /// median over set-ups of that span's self time.
    pub fn finish_setup<S>(
        &self,
        mut times: Vec<f64>,
        mut build: impl FnMut() -> S,
        spans: &[&str],
        out: &mut report::Outcome,
    ) {
        for rep in 0..LATE_SETUP_REPEATS {
            let t0 = Instant::now();
            let id = (SETUP_REPEATS + rep) as u64;
            let state = self.tracer.span("bench.setup", id, &mut build);
            times.push(t0.elapsed().as_secs_f64());
            drop(state);
        }
        out.e2e.set("setup_s", stats::median(&times));
        if self.args.trace {
            for name in spans {
                let per_setup = self
                    .tracer
                    .grouped_self_ms(name, |s| s.parent.unwrap_or(0) as u64);
                out.layer
                    .set(format!("{name}_ms"), stats::median(&per_setup));
            }
        }
    }

    /// Generate the workload's datasets, each inside a
    /// `datasets.generate` span.
    pub fn generate(&self) -> Vec<Dataset> {
        let (id, scale, draws) = workloads::dataset_of(&self.args.workload);
        (0..draws)
            .map(|i| {
                self.tracer.span("datasets.generate", i as u64, || {
                    Dataset::generate(id, scale, workloads::draw_seed(self.args.seed, i))
                })
            })
            .collect()
    }
}

/// The catalog function called `name` for a dataset.
pub fn function_named(ds: &Dataset, name: &str) -> SimilarityFunction {
    SimilarityFunction::catalog(&ds.spec, true)
        .into_iter()
        .find(|f| f.name() == name)
        .unwrap_or_else(|| panic!("no similarity function {name} for {}", ds.label()))
}
