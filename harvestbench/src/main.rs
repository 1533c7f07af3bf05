//! The harvest benchmark.
//!
//! ```text
//! harvestbench --workload <harvest_inproc|harvest_wire|replay_portfolio>
//!              --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints provenance and human-readable notes, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`, and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run also writes its spans to
//! `.bench_out/spans-<workload>.jsonl` under the working directory.

mod episode;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use workloads::{Args, Workload};

const USAGE: &str = "usage: harvestbench --workload <harvest_inproc|harvest_wire|replay_portfolio> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<(String, Args), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let args = Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    };
    Ok((name, args))
}

fn main() -> ExitCode {
    let (name, args) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let (outcome, spans) = workloads::run(&args, epoch);

    if args.trace {
        let out_dir = std::path::Path::new(".bench_out");
        let path = out_dir.join(format!("spans-{name}.jsonl"));
        let written = std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                trace::write_jsonl(&spans, &mut w)?;
                w.flush()
            });
        match written {
            Ok(()) => eprintln!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    let expected: &[(&str, &str)] = if args.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let mut lines = vec![
        report::provenance(&name, args.seed, args.seconds, args.trace, outcome.runs),
        format!(
            "operations: attempted {} failed {}",
            outcome.attempted, outcome.failed
        ),
    ];
    lines.extend(outcome.problems.iter().map(|p| format!("failure: {p}")));
    lines.extend(outcome.notes.iter().cloned());
    for (metric, unit) in expected {
        let value = outcome.metrics.get(metric).copied().unwrap_or(f64::NAN);
        // Throughput is only as good as the work that succeeded: print the
        // operation ledger beside it.
        let ledger = if metric.ends_with("_per_sec") {
            format!(
                " (operations attempted {}, failed {})",
                outcome.attempted, outcome.failed
            )
        } else {
            String::new()
        };
        lines.push(format!("metric {metric} = {value} {unit}{ledger}"));
    }
    let result = report::result_line(&outcome, expected);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in &lines {
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "{result}");
    let _ = out.flush();
    ExitCode::SUCCESS
}
