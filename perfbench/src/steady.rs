//! `perfbench steady`: runs a workload on several seeds, in one or two
//! sets, and judges each end-to-end metric the way a regression check
//! does: each set's quartile spread within the metric's bound (set-up time
//! exempt), and the second set's median not worse than the first's by more
//! than the bound.
//!
//! ```text
//! perfbench steady --workload map-aligned --runs 10 --first-seed 1 --seconds 10 --sets 2
//! ```

use crate::inputs::Workload;
use crate::json::{self, Value};
use crate::report::END_TO_END;
use crate::stats::{self, steadiness};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// Values of each metric, one per run.
type Series = BTreeMap<String, Vec<f64>>;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    flag(args, name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{name} wants a whole number, got '{v}'"))
    })
}

/// Runs one child benchmark and returns its metrics.
fn child(workload: Workload, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} failed: {}",
            workload.name(),
            output.status
        ));
    }
    let last = stdout.lines().last().ok_or("no result line")?;
    let doc = json::parse(last)?;
    if doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{} seed {seed}: result not correct",
            workload.name()
        ));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result without metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// The verdict table for one workload; returns whether every metric passed.
fn judge(workload: Workload, sets: &[Series], out: &mut String) -> bool {
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<17} {:<24} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median1", "median2", "spread1", "spread2", "bound"
    );
    for d in &END_TO_END {
        let first = &sets[0][d.name];
        let second = &sets[sets.len() - 1][d.name];
        let bound = d.bound.unwrap_or(0.0);
        let v = steadiness(first, second, bound, d.better, d.name == "setup_s");
        let verdict = match (v.spread_ok && v.median_ok, v.comfortable) {
            (true, true) => "steady",
            (true, false) => "ok (spread above a third of the bound)",
            (false, _) => "FAIL",
        };
        all_ok &= v.spread_ok && v.median_ok;
        let _ = writeln!(
            out,
            "{:<17} {:<24} {:>14} {:>14} {:>8.4} {:>8.4} {:>6}  {verdict}",
            workload.name(),
            d.name,
            format!("{:.6}", v.median_first),
            format!("{:.6}", v.median_second),
            v.spread_first,
            v.spread_second,
            bound,
        );
    }
    all_ok
}

/// Entry point of the `steady` subcommand; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    match run(args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("perfbench steady: {message}");
            2
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let workloads: Vec<Workload> = match flag(args, "--workload").unwrap_or("all") {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?],
    };
    let runs = number(args, "--runs", 10)?.max(2);
    let first_seed = number(args, "--first-seed", 1)?;
    let seconds = number(args, "--seconds", 10)?;
    let set_count = number(args, "--sets", 1)?.clamp(1, 2);
    let mut report = String::new();
    let mut all_ok = true;
    for workload in workloads {
        let mut sets: Vec<Series> = Vec::new();
        for set in 0..set_count {
            let mut series = Series::new();
            for i in 0..runs {
                let seed = first_seed + i;
                let metrics = child(workload, seed, seconds)?;
                eprintln!(
                    "steady: {} set {} seed {seed}: reads_per_s {:.0}",
                    workload.name(),
                    set + 1,
                    metrics.get("reads_per_s").copied().unwrap_or(0.0)
                );
                for (name, value) in metrics {
                    series.entry(name).or_default().push(value);
                }
            }
            for d in &END_TO_END {
                if series.get(d.name).map_or(0, Vec::len) != runs as usize {
                    return Err(format!("{} was not reported by every run", d.name));
                }
            }
            sets.push(series);
        }
        all_ok &= judge(workload, &sets, &mut report);
        for (set, series) in sets.iter().enumerate() {
            for (name, values) in series {
                let _ = writeln!(
                    report,
                    "# {} set {} {name}: median {} values {:?}",
                    workload.name(),
                    set + 1,
                    stats::median(values),
                    values
                );
            }
        }
    }
    print!("{report}");
    Ok(all_ok)
}
