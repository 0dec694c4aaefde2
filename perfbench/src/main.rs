//! The repository's benchmark.
//!
//! ```text
//! perfbench --workload <wire_mix|inproc_churn|restart> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the public APIs of `server`, `nvmemcached`,
//! `logfree`, `linkcache`, `nvalloc` and `pmem`, checks every answer,
//! prints each metric by name with its unit, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 1` it reports the per-layer metrics instead of the
//! end-to-end ones and writes its spans under `perfbench/traces/`.
//! See `perfbench/README.md`.

mod churn;
mod common;
mod gen;
mod ladder;
mod pace;
mod report;
mod restart;
#[cfg(test)]
mod selftest;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{facts_json, result_json, run_facts, Outcome};

const WORKLOADS: [&str; 3] = ["wire_mix", "inproc_churn", "restart"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {val}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(20);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace })
}

/// Writes a traced run's spans next to the benchmark's sources.
fn write_trace(workload: &str, seed: u64, spans: &[trace::Span]) {
    let path = PathBuf::from("perfbench/traces").join(format!("{workload}-seed{seed}.tsv"));
    match trace::write_tsv(&path, spans) {
        Ok(()) => println!("# spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let slack = std::fs::read_to_string("/proc/self/timerslack_ns").unwrap_or_default();
    let (mut extra, mut outcome): (Vec<(&str, String)>, Outcome) = match args.workload.as_str() {
        "wire_mix" => {
            let cfg = wire::WireCfg::standard(args.seconds);
            let facts = vec![
                (
                    "rates_rps",
                    format!(
                        "light {} busy {} ladder {:.0}..{:.0}",
                        cfg.light_rps,
                        cfg.busy_rps,
                        cfg.ladder[0],
                        cfg.ladder[cfg.ladder.len() - 1]
                    ),
                ),
                ("nvram_ns", common::NVRAM_NS.to_string()),
                ("pmem_mode", "Perf".into()),
            ];
            (facts, wire::run(&cfg, args.seed, args.trace))
        }
        "inproc_churn" => {
            let cfg = churn::ChurnCfg::standard(args.seconds);
            let facts = vec![
                ("rates_rps", format!("light closed-loop x1, busy closed-loop x{}", cfg.threads)),
                ("nvram_ns", common::NVRAM_NS.to_string()),
                ("pmem_mode", "Perf".into()),
            ];
            (facts, churn::run(&cfg, args.seed, args.trace))
        }
        _ => {
            let cfg = restart::RestartCfg::standard(args.seconds);
            let facts = vec![
                ("rates_rps", "light closed-loop x1, churn closed-loop x1".into()),
                ("nvram_ns", common::NVRAM_NS.to_string()),
                ("pmem_mode", "CrashSim".into()),
            ];
            (facts, restart::run(&cfg, args.seed, args.trace))
        }
    };
    extra.push(("timer_slack_ns_default", slack.trim().to_string()));
    if args.trace {
        write_trace(&args.workload, args.seed, &outcome.spans);
        outcome.metrics.put("fail_ratio", outcome.tally.fail_ratio(), "ratio");
    } else {
        println!("{:<32} {:>16.6} ratio", "fail_ratio", outcome.tally.fail_ratio());
    }
    let facts = run_facts(&args.workload, args.seed, args.seconds, &extra);
    for (name, value, unit) in &outcome.metrics.0 {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    for (reason, n) in &outcome.tally.reasons {
        println!("# failed: {reason} x{n}");
    }
    println!("{}", facts_json(&facts));
    println!("{}", result_json(&outcome.tally, &outcome.metrics));
    ExitCode::SUCCESS
}
