//! The repository's benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <map-aligned|map-contaminated|serve-loopback|all>
//!           --seed <n> --seconds <n> --trace <0|1>
//! perfbench steady [--workload <name|all>] [--runs 10] [--first-seed 1]
//!           [--seconds 10] [--sets 1|2]
//! ```
//!
//! A run prints a fingerprint line, one line per metric (name, value,
//! unit, which direction is better), findings, and last a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! A correctness-gate violation prints the reason on stderr, no metrics,
//! and exits 1.

mod common;
mod digest;
mod fingerprint;
mod inputs;
mod json;
mod layers;
mod mapping;
mod report;
mod serving;
mod stats;
mod steady;
mod trace;

use inputs::Workload;
use report::{END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let whole = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(whole()?),
            "--seconds" => seconds = Some(whole()?),
            "--trace" => trace = Some(whole()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workloads = match workload.as_deref() {
        Some("all") => Workload::ALL.to_vec(),
        Some(name) => {
            vec![Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?]
        }
        None => return Err("--workload is required".to_string()),
    };
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".to_string());
    }
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
    })
}

fn run_one(workload: Workload, args: &Args) -> Result<common::Run, String> {
    let seconds = args.seconds as f64;
    let run = match workload {
        Workload::MapAligned | Workload::MapContaminated => {
            mapping::run(workload, args.seed, seconds, args.trace)?
        }
        Workload::ServeLoopback => serving::run(args.seed, seconds, args.trace)?,
    };
    run.outcome
        .check_complete(if args.trace { &PER_LAYER } else { &END_TO_END })?;
    Ok(run)
}

/// Writes the report and a sample of spans under `perfbench/out/`.
fn write_out(name: &str, trace: bool, text: &str, spans: &[trace::Span]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let file = dir.join(format!("{name}.trace{}.txt", u8::from(trace)));
    std::fs::write(&file, text).map_err(|e| format!("writing {}: {e}", file.display()))?;
    if trace {
        let mut tsv = String::from("name\tid\tparent\tkey\tstart_ns\tend_ns\tself_ns\n");
        for (span, own) in spans.iter().zip(trace::self_times(spans)) {
            let _ = writeln!(
                tsv,
                "{}\t{}\t{}\t{}\t{}\t{}\t{own}",
                span.layer.name(),
                span.id,
                span.parent,
                span.key,
                span.start_ns,
                span.end_ns
            );
        }
        let file = dir.join(format!("{name}.spans.tsv"));
        std::fs::write(&file, tsv).map_err(|e| format!("writing {}: {e}", file.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return ExitCode::from(steady::main(&args[1..]) as u8);
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut metrics = Vec::new();
    let prefixed = args.workloads.len() > 1;
    for &workload in &args.workloads {
        let name = workload.name();
        let mut text = format!(
            "perfbench {name}: seed {} seconds {} trace {}\n{}\n",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            fingerprint::line(name, args.seed, args.seconds, args.trace)
        );
        let run = match run_one(workload, &args) {
            Ok(run) => run,
            Err(message) => {
                eprintln!("perfbench {name}: {message}");
                return ExitCode::from(1);
            }
        };
        let prefix = if prefixed {
            format!("{name}.")
        } else {
            String::new()
        };
        text.push_str(&run.outcome.table(&prefix));
        for note in &run.outcome.notes {
            let _ = writeln!(text, "note: {note}");
        }
        print!("{text}");
        if let Err(message) = write_out(name, args.trace, &text, &run.spans) {
            eprintln!("perfbench {name}: {message}");
            return ExitCode::from(1);
        }
        attempted += run.outcome.attempted;
        failed += run.outcome.failed;
        for &(metric, value) in &run.outcome.metrics {
            let unit = report::def(metric).map_or("", |d| d.unit);
            metrics.push((format!("{prefix}{metric}"), value, unit));
        }
    }
    println!(
        "{}",
        report::result_line(true, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
