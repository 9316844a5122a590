//! The repository's benchmark: calibration, classification and serving
//! of the readout stack, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <paper5q|mux40|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload per process, so `peak_rss_mb` belongs to it. The run
//! generates its inputs from `--seed`, sets up several times, runs timed
//! rounds for about `--seconds`, checks the outputs and prints each metric
//! by name and unit, then one JSON line: end-to-end metrics with
//! `--trace 0`, per-layer metrics (from spans around the same public
//! calls) with `--trace 1`. A failed check exits with code 1; see
//! `README.md` for the workloads and metrics.

mod reference;
mod serve;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use spans::Tracer;
use workload::Metric;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} expects a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The malformed-window phase panics the fleet worker on purpose once per
/// round; print the first such panic and keep every other one as is.
fn quiet_repeated_worker_panics() {
    let default = std::panic::take_hook();
    let seen = std::sync::atomic::AtomicBool::new(false);
    std::panic::set_hook(Box::new(move |info| {
        let on_worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("mlr-fleet-worker"));
        if !on_worker || !seen.swap(true, std::sync::atomic::Ordering::Relaxed) {
            default(info);
        }
    }));
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workload::workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (expected paper5q, mux40 or serve-mix)",
            args.workload
        );
        return ExitCode::from(2);
    };
    // Fixed thread budget: read by every batch map in the program. Set
    // before any thread is started.
    std::env::set_var("MLR_THREADS", workload.threads.to_string());
    quiet_repeated_worker_panics();

    let mut tracer = Tracer::new(args.trace);
    let outcome = match workload.run(args.seed, args.seconds, &mut tracer) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };

    for (name, value, unit) in &outcome.end_to_end {
        println!("{}: {name} = {value} {unit}", workload.name);
    }
    if tracer.enabled() {
        println!(
            "{}: self time per span (count, total s, self s)",
            workload.name
        );
        for (name, count, total, own) in tracer.report() {
            println!("  {name:<24} {count:>6} {total:>10.4} {own:>10.4}");
        }
        for (name, value, unit) in &outcome.per_layer {
            println!("{}: {name} = {value} {unit}", workload.name);
        }
        let path = std::path::PathBuf::from(".perfbench")
            .join(format!("spans-{}-seed{}.json", workload.name, args.seed));
        match tracer.write(&path) {
            Ok(()) => eprintln!("[{}] spans written to {}", workload.name, path.display()),
            Err(e) => eprintln!("[{}] could not write spans: {e}", workload.name),
        }
    }
    println!(
        "{}: attempted {} operations, {} failed",
        workload.name, outcome.attempted, outcome.failed
    );
    for fault in &outcome.faults {
        eprintln!("perfbench: {}: check failed: {fault}", workload.name);
    }

    let reported = if tracer.enabled() {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let metrics = match json_metrics(reported) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.faults.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.attempted, outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
