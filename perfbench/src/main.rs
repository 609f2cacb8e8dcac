//! `eecs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! `[--trace-out <file>] [--nproc <n>] [--rustc <version>] [--commit <id>]`

use eecs_perfbench::bench::end_to_end;
use eecs_perfbench::layers::traced;
use eecs_perfbench::workload::{Inputs, Workload};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let arg = |k: &str| args.get(k).map(String::as_str);
    let workload = arg("workload")
        .and_then(Workload::parse)
        .ok_or("--workload must be mission_detect, mission_chaos or service_batch")?;
    let seed: u64 = arg("seed")
        .unwrap_or("1")
        .parse()
        .map_err(|_| "bad --seed")?;
    let seconds: f64 = arg("seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|_| "bad --seconds")?;
    let trace = match arg("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nproc: usize = match arg("nproc") {
        Some(n) => n.parse().map_err(|_| "bad --nproc")?,
        None => available,
    };
    let workers = nproc.min(available).max(1);
    let inputs = Inputs::generate(workload, seed, workers);

    println!(
        "host nproc={nproc} available_parallelism={available} workers={workers} rustc=\"{}\" commit={} workload={} seed={seed} seconds={seconds} trace={}",
        arg("rustc").unwrap_or("unknown"),
        arg("commit").unwrap_or("unknown"),
        workload.name(),
        u8::from(trace),
    );
    let outcome = if trace {
        let t = traced(workload, &inputs, workers)?;
        if let Some(path) = arg("trace-out") {
            std::fs::write(path, t.spans.chrome_trace()?)
                .map_err(|e| format!("write {path}: {e}"))?;
            println!("trace {path} ({} spans)", t.spans.spans().len());
        }
        t.outcome
    } else {
        end_to_end(workload, &inputs, workers, seconds)?
    };
    for m in &outcome.metrics {
        println!(
            "metric {} = {} {} (samples {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let t = outcome.tally;
    println!(
        "missions attempted={} completed={} failed={} refused={} failed_share={}",
        t.attempted,
        t.completed(),
        t.failed,
        t.refused,
        (t.failed + t.refused) as f64 / t.attempted.max(1) as f64
    );
    for failure in &outcome.check_failures {
        println!("check failed: {failure}");
    }
    println!("{}", outcome.result_line()?);
    Ok(outcome.correct())
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(key.to_string(), value);
    }
    Ok(out)
}
