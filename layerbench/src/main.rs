//! Layer-attributed end-to-end benchmark of the wsn workspace.
//!
//! ```text
//! layerbench --workload <design_d4|mission_s64|query_stream_s32>
//!            --seed <n> --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! One single-threaded process runs one workload against the public API
//! of the workspace crates. The untraced run (`--trace 0`) prints the
//! end-to-end metrics; the traced run (`--trace 1`) records in-memory
//! spans around every call into a layer and prints the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `NOTES.md`.

mod calib;
mod check;
mod counts;
mod design;
mod metrics;
mod mission;
mod query;
mod spans;
mod util;

use spans::Spans;
use std::time::Instant;

/// Environment knobs the runtime reads on every sharded run; either would
/// silently sabotage or skew the measured engine.
const FORBIDDEN_ENV: [&str; 2] = ["WSN_SHARD_MISORDER", "WSN_SHARD_SKEW"];

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: u64 = 5;

/// Run-wide state shared by the workloads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans: Spans,
}

impl Ctx {
    /// In the traced run, whole input cycles alternate between traced and
    /// untraced, so both modes see every input and the trace overhead is
    /// measured inside one run.
    pub fn cycle_traced(&self, cycle: usize) -> bool {
        self.trace && cycle.is_multiple_of(2)
    }
}

/// One timed op. Times are raw wall times; `factor` rescales them to
/// the reference host speed (see [`calib`]).
#[derive(Debug, Clone)]
pub struct Op {
    pub id: u64,
    pub ms: f64,
    pub traced: bool,
    /// Counts toward `op_p50_ms` (query ops; not heal ops).
    pub primary: bool,
    /// This op's contribution to `heal_p50_ms`, if any.
    pub heal_ms: Option<f64>,
    /// Bench-side correctness checking after the op (not in `ms`).
    pub check_ms: f64,
    pub factor: f64,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Raw wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    pub ops: Vec<Op>,
    /// Ops checked against an oracle (warm-ups, timed ops, replays).
    pub attempted: u64,
    /// One entry per op whose check failed.
    pub failed_ops: Vec<String>,
    /// Run-level checks that failed (determinism, drift, guard rails).
    pub run_failures: Vec<String>,
    pub sim_latency_ticks: f64,
    pub sim_energy_units: f64,
    /// Per-layer values measured outside the op spans.
    pub extra: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records one op's check result.
    pub fn checked(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            eprintln!("check failed: {what}: {e}");
            self.failed_ops.push(format!("{what}: {e}"));
        }
    }

    /// Records a failed run-level check.
    pub fn run_check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            eprintln!("run check failed: {what}: {e}");
            self.run_failures.push(format!("{what}: {e}"));
        }
    }
}

/// `Ok` when `ok`, else the error `why` describes.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// Loop bound shared by the workloads: keep issuing ops until `seconds`
/// have passed and at least `min_ops` ran.
pub fn keep_going(loop_start: Instant, seconds: f64, ops: usize, min_ops: usize) -> bool {
    ops < min_ops || loop_start.elapsed().as_secs_f64() < seconds
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_out,
    })
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("layerbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("layerbench: refusing to run with {var} set; it sabotages the sharded engine");
        std::process::exit(2);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        spans: Spans::new(process_start),
    };
    let result = match args.workload.as_str() {
        "design_d4" => design::run(&mut ctx, process_start),
        "mission_s64" => mission::run(&mut ctx, process_start),
        "query_stream_s32" => query::run(&mut ctx, process_start),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!("{}", metrics::raw_summary(&args.workload, &outcome));
    match metrics::drift(&outcome) {
        Ok(ratio) => println!(
            "drift {} second/first-half op median {ratio:.4}",
            args.workload
        ),
        Err(e) => outcome.run_check("no state drift across ops", Err(e)),
    }
    if let Some(path) = &args.spans_out {
        if let Err(e) = ctx.spans.write_jsonl(path) {
            eprintln!("layerbench: writing spans to {path}: {e}");
            std::process::exit(1);
        }
    }
    let values = if args.trace {
        metrics::per_layer(&ctx.spans, &outcome)
    } else {
        metrics::end_to_end(&outcome)
    };
    let values = match values {
        Ok(v) => v,
        Err(e) => {
            eprintln!("layerbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    println!("{}", metrics::render(&outcome, &values));
}
