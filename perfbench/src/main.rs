//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, on standard output, a record line
//! (inputs and host fingerprint) followed by the result line: one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::report::{end_to_end, per_layer, record_line, result_line};
use perfbench::{host, workloads, Args, Bench};

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]",
                perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        return ExitCode::from(2);
    }
    let bench = Bench::new(args, started);
    let mut out = workloads::run(&bench);
    let args = &bench.args;

    let rss = host::peak_rss_mb();
    out.e2e.set("peak_rss_mb", rss.unwrap_or(0.0));
    let mut record: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        (
            "peak_rss_mb",
            rss.map_or_else(|| "absent".to_string(), |v| v.to_string()),
        ),
    ];
    record.extend(out.inputs.iter().cloned());
    record.extend(host::fingerprint());
    if args.trace {
        let path = args
            .scratch
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        match bench.tracer.write_jsonl(&path) {
            Ok(()) => record.push(("spans_file", path.display().to_string())),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", record_line(&record));
    let (values, declared) = if args.trace {
        (&out.layer, per_layer())
    } else {
        (&out.e2e, end_to_end())
    };
    println!("{}", result_line(&out.ops, values, &declared));
    ExitCode::SUCCESS
}
