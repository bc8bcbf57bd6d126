//! `livebench` — the host-normalized live-sync benchmark.
//!
//! ```text
//! livebench --workload <drag_large|edit_durable> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one seeded closed-loop workload against an in-process
//! `sns-server` on loopback, checks every reply against an in-process
//! shadow, and prints a report followed by one JSON line: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits
//! non-zero on any failed operation or correctness mismatch. See
//! `README.md` in this directory.

mod calib;
mod client;
mod script;
mod servers;
mod stats;
mod traced;
mod workload;

use sns_server::json::Json;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn metrics_json(metrics: &[(String, f64, &'static str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]),
                )
            })
            .collect(),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("livebench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "livebench: unknown workload {:?} (drag_large, edit_durable)",
            args.workload
        );
        std::process::exit(2);
    };
    let outcome =
        sns_eval::with_big_stack(move || workload::run(&spec, args.seed, args.seconds, args.trace));
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("livebench: {e}");
            std::process::exit(1);
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    for f in &outcome.failures {
        eprintln!("livebench: FAILED: {f}");
    }
    let correct = outcome.failed == 0;
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ]);
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
