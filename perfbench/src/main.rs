//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--small] [--out <dir>]`
//!
//! Runs one workload and prints a table of every metric, then, as the last
//! line, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Untraced runs print the end-to-end metrics, traced runs the per-layer
//! ones. Exits 1 when any job fails its output check, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::bench::{self, Config};
use perfbench::json::metric;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workload::{self, NAMES};

const USAGE: &str = "usage: perfbench --workload <hpcg|npb_is|imb|launch> --seed <n> \
--seconds <s> --trace <0|1> [--small] [--out <dir>]";

fn parse_args() -> Result<Config, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut small, mut out) = (false, PathBuf::from(".bench_out"));
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--small" {
            small = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload::workload(&name, small)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {}", NAMES.join(", ")))?;
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so that every thread allocates under them.
    let cpus = match perfbench::machine::fix_malloc_thresholds()
        .and_then(|_| perfbench::machine::allowed_cpus())
    {
        Ok(cpus) => cpus,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut outcome = match bench::run(&cfg, cpus) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };

    let m = &outcome.machine;
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload.name, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    println!(
        "machine: nproc {} | cpus {:?} | {} | native hpcg 1-rank {:.6} s",
        m.cpus.len(),
        m.cpus,
        m.cpu_model,
        m.native_hpcg_s
    );
    let declared = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            outcome.failures.push(format!("metric {name} was not measured"));
        }
        println!("  {name:<30} {value:>16.6} {unit}");
        fields.push(metric(name, value, unit));
    }
    if !cfg.trace {
        for (name, unit) in [("fail_ratio", "ratio"), ("machine.steal_pct", "%")] {
            let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
            println!("  {name:<30} {value:>16.6} {unit}");
        }
    }
    for (name, value, unit) in &outcome.extras {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
    for f in outcome.failures.iter().take(20) {
        println!("FAILED: {f}");
    }
    let failed = outcome.failures.len();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        outcome.attempted.max(failed as u64).max(1),
        failed,
        fields.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
