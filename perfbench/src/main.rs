//! End-to-end and per-layer benchmark of the Confluence reproduction.
//!
//! Usage: `perfbench --workload <suite-cold|coverage-cold|served-warm>
//! [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Drives the library in one process. An untraced run (`--trace 0`, the
//! default) runs a fixed number of the workload's batches, sized so they
//! take about `--seconds` on the recording machine, and prints the
//! end-to-end metrics; a traced run (`--trace 1`) prints
//! the per-layer metrics. Human-readable lines come first; the last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (`{"name": {"value": v, "unit": u}}`). See README.md.

mod arith;
mod host;
mod jobs;
mod served;
mod traced;
mod untraced;

use std::process::ExitCode;
use std::time::Instant;

use crate::arith::{mean, median, ratio, tail};
use crate::jobs::Bench;

#[global_allocator]
static ALLOCATOR: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <suite-cold|coverage-cold|served-warm> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line.
struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut bench = None;
    let mut seed = 0u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => bench = Some(Bench::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The result line: the contract's JSON object, hand-written (no serde).
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report_problems(problems: &[String]) {
    for p in problems {
        eprintln!("failure: {p}");
    }
}

fn run_untraced(args: &Args) -> Result<String, String> {
    let started = Instant::now();
    let m = match args.bench {
        Bench::ServedWarm => untraced::run_served(args.seed, args.seconds)?,
        cold => untraced::run_cold(cold, args.seed, args.seconds),
    };
    report_problems(&m.problems);
    let batches = m.batch_s.len();
    let batch_ms: Vec<f64> = m.batch_s.iter().map(|s| s * 1e3).collect();
    let tail = tail(&batch_ms);
    let metrics = [
        ("setup_s", median(&m.setup_s), "s"),
        ("wall_s", mean(&m.batch_s), "s"),
        ("batch_ms_p50", median(&batch_ms), "ms"),
        ("batch_ms_tail", tail.value, "ms"),
        ("peak_rss_mb", median(&m.peak_mb), "MB"),
    ];
    let operation = if args.bench == Bench::ServedWarm {
        "requests"
    } else {
        "jobs"
    };
    println!(
        "workload {} seed {}: {batches} batches, {:.1} s of batch time, {:.1} s in all",
        args.bench.name(),
        args.seed,
        m.batch_s.iter().sum::<f64>(),
        started.elapsed().as_secs_f64()
    );
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    // Printed, not a result metric: per served request it swings with
    // host contention well beyond any useful bound, and on suite-cold it
    // is twice wall_s (both workers stay busy).
    println!("cpu_s {} s", ratio(m.cpu_s, batches as f64));
    if batches <= 64 {
        let list = |v: &[f64]| v.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>();
        println!("batch_s [{}]", list(&m.batch_s).join(", "));
        println!("peak_mb [{}]", list(&m.peak_mb).join(", "));
    }
    println!(
        "batch_ms_tail is p{} of {} batches ({} beyond it); setup_s is the median of {} \
         set-ups; peak_rss_mb the median of {} peak window(s)",
        tail.percentile,
        tail.samples,
        tail.beyond,
        m.setup_s.len(),
        m.peak_mb.len()
    );
    println!(
        "failed_frac {} ({} of {} {operation})",
        ratio(m.failed as f64, m.attempted as f64),
        m.failed,
        m.attempted
    );
    println!("output_digest {:016x}", m.digest);
    Ok(result_json(m.failed == 0, m.attempted, m.failed, &metrics))
}

fn run_traced(args: &Args) -> Result<String, String> {
    let started = Instant::now();
    let t = traced::run(args.bench, args.seed)?;
    report_problems(&t.problems);
    println!(
        "workload {} seed {} (traced): {:.1} s",
        args.bench.name(),
        args.seed,
        started.elapsed().as_secs_f64()
    );
    for (name, value, unit) in &t.metrics {
        println!("{name} {value} {unit}");
    }
    println!("sim_counts {}", t.fingerprint);
    println!("trace_overhead {}", t.overhead);
    println!(
        "failed_frac {} ({} of {} checks)",
        ratio(t.failed as f64, t.attempted as f64),
        t.failed,
        t.attempted
    );
    println!("output_digest {:016x}", t.digest);
    Ok(result_json(
        t.failed == 0,
        t.attempted,
        t.failed,
        &t.metrics,
    ))
}
