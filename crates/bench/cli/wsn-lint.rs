//! `wsn-lint` — static analysis CLI for synthesized WSN artifacts.
//!
//! ```text
//! wsn-lint                         lint the paper's Figure-4 deployment (depth 2)
//! wsn-lint --fig4 [depth]          same, at an explicit hierarchy depth
//! wsn-lint --program <file.json>   lint a serialized program (JSON model)
//! wsn-lint --emit-json-program [depth]   print the Figure-4 program as JSON
//! wsn-lint --certify [depth]       derive the symbolic §4 cost certificate
//! wsn-lint --conform <trace.jsonl> check a measured trace against the certificate
//! wsn-lint --record-fidelity-trace <out.jsonl> [depth]
//!                                  record the seeded model-fidelity run as JSONL;
//!                                  --mutate-hop-cost <k> / --mutate-tx-energy <x>
//!                                  deliberately mis-price the runtime radio
//! wsn-lint --perf-baseline <out.json> [--include-scale]
//!                                  record the seeded perf snapshots (sides 4, 8);
//!                                  --include-scale adds the sharded-kernel scale row
//!                                  (--scale-side N, --scale-cut L, --scale-workers W)
//! wsn-lint --perf-gate <baseline.json> [--tolerance pct]
//!                                  re-record the snapshots and fail on drift;
//!                                  the mutation flags apply here too, so CI can
//!                                  prove an injected +50% hop delay trips it;
//!                                  --include-scale re-records the scale rows,
//!                                  --gate-throughput also gates events_per_sec and
//!                                  peak_rss_bytes (same-machine baselines only)
//! wsn-lint --parallel-gate         differential gate: sharded-kernel runs must be
//!                                  byte-identical to the sequential reference and
//!                                  certificate gating must hold; --mutate-misorder
//!                                  sabotages the boundary merge (gate must fail)
//! wsn-lint --shard-check [depth] [--cut-level N] [--emit-shard-cert]
//!                                  shard-interference analysis (SI001–SI004) of the
//!                                  Figure-4 program (or --program <file.json>) under
//!                                  the level-N quadrant plan; --emit-shard-cert
//!                                  prints the machine-checkable certificate JSON;
//!                                  --mutate-shard-leak plants a cross-shard defect
//! wsn-lint --shard-conform <trace.jsonl> [--cut-level N]
//!                                  TC009: replay a causal trace and verify every
//!                                  cross-shard delivery is a certified boundary edge
//! wsn-lint --record-shard-leak-trace <out.jsonl> [depth]
//!                                  record the planted-leak run TC009 must catch
//! wsn-lint --shard-metrics [depth] [--cut-level N] [--mutate-shard-skew]
//!                                  TC010: re-record the seeded sharded run and
//!                                  reconcile the per-shard telemetry against the
//!                                  shard certificate and the kernel's dispatch
//!                                  total; --mutate-shard-skew arms the planted
//!                                  undercounting tap the check must catch
//! wsn-lint --record-shard-metrics-trace <out.jsonl> [depth] [--cut-level N]
//!                                  record the sharded run with per-shard counters
//!                                  merged into the trace (netscope shards reads it)
//! wsn-lint --record-flight-dump <out.jsonl> [depth] [--cut-level N]
//!                                  record the sharded run with the flight recorder
//!                                  armed and write the ring dump (netscope flight)
//! wsn-lint --obs-gate [--tolerance pct]
//!                                  overhead gate: the instrumented steady-state
//!                                  hot path must stay within the bound (default
//!                                  10%) of the bare run's per-event cost; a trip
//!                                  writes obs-gate-flight.jsonl for post-mortem
//! wsn-lint --shard-gate            CI gate: shard-check + TC009 on sides 4 and 8
//!                                  at cut levels 1 and 2
//! wsn-lint --frame-check [depth] [--emit-frame-cert]
//!                                  frame-layout & allocation certification
//!                                  (FL001–FL005 / AL001–AL003) of the Figure-4
//!                                  program; --emit-frame-cert prints the
//!                                  machine-checkable certificate JSON;
//!                                  --mutate-payload-overflow analyzes the
//!                                  side-32 deployment the frame cannot carry
//!                                  (FL001 must trip)
//! wsn-lint --alloc-gate            certify the frame layout, then prove the
//!                                  steady-state framed hot path dispatches
//!                                  with zero heap allocations (this binary's
//!                                  counting allocator measures the round)
//! wsn-lint --check                 CI gate: paper deployments must be error-free
//! wsn-lint --codes                 list the diagnostic catalog
//! ```
//!
//! `--json` switches the report to JSON. Exit status: 0 when no
//! error-severity diagnostics were found, 1 otherwise, 2 on usage or
//! decode errors.
//!
//! This binary deliberately lives in `cli/`, not `src/bin/`: it installs
//! a counting `#[global_allocator]` (an `unsafe impl`, required by the
//! allocator API) to measure the `--alloc-gate` round, while everything
//! under the workspace's `src/` trees stays `#![forbid(unsafe_code)]`
//! and is audited for it in CI.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use wsn_analyze::{Code, Diagnostics};
use wsn_bench::lint;

/// [`System`], plus a relaxed counter of every allocation call — the
/// probe `wsn_bench::hotpath::allocprobe` reads around the measured
/// steady-state round. Deallocation stays uncounted: the gate's claim is
/// "no allocations per event", so only acquisition matters.
struct CountingAlloc;

static ALLOCATION_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_calls() -> u64 {
    ALLOCATION_CALLS.load(Ordering::Relaxed)
}

fn main() -> ExitCode {
    wsn_bench::hotpath::allocprobe::install(allocation_calls);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    // Flags that consume the following argument as their value.
    const VALUE_FLAGS: [&str; 7] = [
        "--mutate-hop-cost",
        "--mutate-tx-energy",
        "--tolerance",
        "--cut-level",
        "--scale-side",
        "--scale-cut",
        "--scale-workers",
    ];
    let mut positional: Vec<&String> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") || a.as_str() == "--" {
            positional.push(a);
        }
    }

    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }

    if args.iter().any(|a| a == "--codes") {
        for &code in Code::all() {
            println!("{code}  {}", code.description());
        }
        return ExitCode::SUCCESS;
    }

    if args.iter().any(|a| a == "--emit-json-program") {
        let depth = match parse_depth(&positional) {
            Ok(d) => d,
            Err(e) => return usage_error(&e),
        };
        if args.iter().any(|a| a == "--mutate-shard-leak") {
            let program = lint::leak_mutated_figure4(depth);
            println!("{}", wsn_analyze::program_to_json(&program).render());
        } else {
            println!("{}", lint::figure4_program_json(depth));
        }
        return ExitCode::SUCCESS;
    }

    if args.iter().any(|a| a == "--certify") {
        let depth = match parse_depth(&positional) {
            Ok(d) => d,
            Err(e) => return usage_error(&e),
        };
        let (cert, diags) = lint::certify_figure4(depth);
        if json {
            println!("{}", diags.to_json().render());
        } else {
            print!("{}", cert.render_text());
            print!("{}", diags.render_text());
        }
        return if diags.has_errors() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if args.iter().any(|a| a == "--conform") {
        let Some(path) = positional.first() else {
            return usage_error("--conform needs a trace file path");
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return usage_error(&format!("cannot read {path}: {e}")),
        };
        return match lint::conform_trace_text(&text) {
            Ok((cert, diags)) => {
                if json {
                    println!("{}", diags.to_json().render());
                } else {
                    print!("{}", cert.render_text());
                    if diags.is_empty() {
                        println!("trace conforms: every measured quantity is inside its bound");
                    } else {
                        print!("{}", diags.render_text());
                    }
                }
                if diags.has_errors() {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => usage_error(&format!("{path}: {e}")),
        };
    }

    if args.iter().any(|a| a == "--record-fidelity-trace") {
        let Some(path) = positional.first() else {
            return usage_error("--record-fidelity-trace needs an output path");
        };
        let depth = match parse_depth(&positional[1..]) {
            Ok(d) => d,
            Err(e) => return usage_error(&e),
        };
        let hop = match parse_flag_value(&args, "--mutate-hop-cost", 1.0f64) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        let tx = match parse_flag_value(&args, "--mutate-tx-energy", 1.0f64) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        let side = 2u32.pow(u32::from(depth));
        let doc = wsn_bench::experiments::record_model_fidelity_trace(side, 3, 5, hop, tx);
        if let Err(e) = std::fs::write(path, doc.to_jsonl()) {
            return usage_error(&format!("cannot write {path}: {e}"));
        }
        println!(
            "recorded side-{side} model-fidelity trace to {path} \
             (hop-cost ×{hop}, tx-energy ×{tx})"
        );
        return ExitCode::SUCCESS;
    }

    if args.iter().any(|a| a == "--perf-baseline") {
        let Some(path) = positional.first() else {
            return usage_error("--perf-baseline needs an output path");
        };
        let mut snaps = match wsn_bench::perfbase::perf_snapshots(&[4, 8], 1.0, 1.0) {
            Ok(s) => s,
            Err(e) => return usage_error(&e),
        };
        let mut described = "sides 4, 8".to_string();
        if args.iter().any(|a| a == "--include-scale") {
            let (side, engine) = match parse_scale_config(&args) {
                Ok(c) => c,
                Err(e) => return usage_error(&e),
            };
            match wsn_bench::perfbase::perf_snapshots_with(&[side], 1.0, 1.0, engine, true) {
                Ok(scale) => snaps.extend(scale),
                Err(e) => return usage_error(&e),
            }
            described = format!("{described} + scale side {side} ({engine})");
        }
        if let Err(e) = std::fs::write(path, wsn_bench::perfbase::render_snapshots(&snaps)) {
            return usage_error(&format!("cannot write {path}: {e}"));
        }
        println!("recorded perf baseline ({described}) to {path}");
        return ExitCode::SUCCESS;
    }

    if args.iter().any(|a| a == "--perf-gate") {
        let Some(path) = positional.first() else {
            return usage_error("--perf-gate needs a baseline file path");
        };
        let hop = match parse_flag_value(&args, "--mutate-hop-cost", 1.0f64) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        let tx = match parse_flag_value(&args, "--mutate-tx-energy", 1.0f64) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        let tolerance = match parse_flag_value(&args, "--tolerance", 10.0f64) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return usage_error(&format!("cannot read {path}: {e}")),
        };
        let baseline = match wsn_bench::perfbase::parse_snapshots(&text) {
            Ok(b) => b,
            Err(e) => return usage_error(&format!("{path}: {e}")),
        };
        // Scale rows (the side-512 sharded run) are only re-recorded on
        // request — routine gate runs stay cheap and deterministic.
        let include_scale = args.iter().any(|a| a == "--include-scale");
        let gate_throughput = args.iter().any(|a| a == "--gate-throughput");
        let sides: Vec<u32> = baseline
            .iter()
            .filter(|r| !r.scale)
            .map(|r| r.side)
            .collect();
        let mut current = match wsn_bench::perfbase::perf_snapshots(&sides, hop, tx) {
            Ok(s) => s,
            Err(e) => return usage_error(&e),
        };
        if include_scale {
            let (default_side, engine) = match parse_scale_config(&args) {
                Ok(c) => c,
                Err(e) => return usage_error(&e),
            };
            let scale_sides: Vec<u32> = {
                let from_baseline: Vec<u32> = baseline
                    .iter()
                    .filter(|r| r.scale)
                    .map(|r| r.side)
                    .collect();
                if from_baseline.is_empty() {
                    vec![default_side]
                } else {
                    from_baseline
                }
            };
            match wsn_bench::perfbase::perf_snapshots_with(&scale_sides, hop, tx, engine, true) {
                Ok(scale) => current.extend(scale),
                Err(e) => return usage_error(&e),
            }
        }
        return match wsn_bench::perfbase::regression_gate(
            &current,
            &baseline,
            tolerance,
            gate_throughput,
        ) {
            Ok(report) => {
                print!("{report}");
                println!("perf baseline gate: every metric within +/-{tolerance}%");
                ExitCode::SUCCESS
            }
            Err(report) => {
                eprint!("{report}");
                ExitCode::FAILURE
            }
        };
    }

    if args.iter().any(|a| a == "--frame-check") {
        let mutate = args.iter().any(|a| a == "--mutate-payload-overflow");
        let depth = match parse_depth(&positional) {
            Ok(d) => d,
            Err(e) => return usage_error(&e),
        };
        let (cert, diags) = lint::frame_check_figure4(depth, mutate);
        if args.iter().any(|a| a == "--emit-frame-cert") {
            match &cert {
                Some(c) => println!("{}", wsn_analyze::frame_cert_to_json(c).render()),
                None => {
                    eprintln!("wsn-lint: no certificate to emit (the frame layout did not certify)")
                }
            }
        } else if json {
            println!("{}", diags.to_json().render());
        } else {
            if let Some(c) = &cert {
                print!("{}", c.render_text());
            }
            if diags.is_empty() {
                println!(
                    "frame check: clean — every message fits the fixed frame and the \
                     hot path owns its buffers"
                );
            } else {
                print!("{}", diags.render_text());
            }
        }
        return if diags.has_errors() || cert.is_none() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if args.iter().any(|a| a == "--alloc-gate") {
        return match lint::alloc_gate(8, 200) {
            Ok(report) => {
                println!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("wsn-lint: alloc gate failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.iter().any(|a| a == "--shard-check") {
        let cut = match parse_flag_value(&args, "--cut-level", 1u8) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        let mutate = args.iter().any(|a| a == "--mutate-shard-leak");
        let result = if args.iter().any(|a| a == "--program") {
            let Some(path) = positional.first() else {
                return usage_error("--shard-check --program needs a file path");
            };
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    lint::shard_check_program_text(&text, cut).map_err(|e| format!("{path}: {e}"))
                }
                Err(e) => Err(format!("cannot read {path}: {e}")),
            }
        } else {
            match parse_depth(&positional) {
                Ok(depth) => lint::shard_check_figure4(depth, cut, mutate),
                Err(e) => Err(e),
            }
        };
        return match result {
            Ok((cert, diags)) => {
                if args.iter().any(|a| a == "--emit-shard-cert") {
                    match &cert {
                        Some(c) => println!("{}", wsn_analyze::shard_cert_to_json(c).render()),
                        None => eprintln!(
                            "wsn-lint: no certificate to emit (the program did not shard-check)"
                        ),
                    }
                } else if json {
                    println!("{}", diags.to_json().render());
                } else {
                    if let Some(c) = &cert {
                        print!("{}", c.render_text());
                    }
                    if diags.is_empty() {
                        println!(
                            "shard check: clean — same-shard events commute, cross-shard \
                             traffic stays on the boundary"
                        );
                    } else {
                        print!("{}", diags.render_text());
                    }
                }
                if diags.has_errors() || cert.is_none() {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => usage_error(&e),
        };
    }

    if args.iter().any(|a| a == "--shard-conform") {
        let Some(path) = positional.first() else {
            return usage_error("--shard-conform needs a trace file path");
        };
        let cut = match parse_flag_value(&args, "--cut-level", 1u8) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return usage_error(&format!("cannot read {path}: {e}")),
        };
        return match lint::shard_conform_trace_text(&text, cut) {
            Ok((cert, diags)) => {
                if json {
                    println!("{}", diags.to_json().render());
                } else {
                    print!("{}", cert.render_text());
                    if diags.is_empty() {
                        println!(
                            "trace conforms: every cross-shard delivery is a certified \
                             boundary edge"
                        );
                    } else {
                        print!("{}", diags.render_text());
                    }
                }
                if diags.has_errors() {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => usage_error(&format!("{path}: {e}")),
        };
    }

    if args.iter().any(|a| a == "--shard-metrics") {
        let cut = match parse_flag_value(&args, "--cut-level", 1u8) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        let skew = args.iter().any(|a| a == "--mutate-shard-skew");
        let depth = match parse_depth(&positional) {
            Ok(d) => d,
            Err(e) => return usage_error(&e),
        };
        return match lint::shard_metrics_figure4(depth, cut, skew) {
            Ok((cert, diags)) => {
                if json {
                    println!("{}", diags.to_json().render());
                } else {
                    print!("{}", cert.render_text());
                    if diags.is_empty() {
                        println!(
                            "shard metrics reconcile: per-shard counters sum to the kernel \
                             total and cross-shard traffic sits inside the certified envelope"
                        );
                    } else {
                        print!("{}", diags.render_text());
                    }
                }
                if diags.has_errors() {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => usage_error(&e),
        };
    }

    if args.iter().any(|a| a == "--record-shard-metrics-trace") {
        let Some(path) = positional.first() else {
            return usage_error("--record-shard-metrics-trace needs an output path");
        };
        let depth = match parse_depth(&positional[1..]) {
            Ok(d) => d,
            Err(e) => return usage_error(&e),
        };
        let cut = match parse_flag_value(&args, "--cut-level", 1u8) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        if cut < 1 || cut > depth {
            return usage_error(&format!("cut level {cut} is outside 1..={depth}"));
        }
        let skew = args.iter().any(|a| a == "--mutate-shard-skew");
        let side = 2u32.pow(u32::from(depth));
        let doc = wsn_bench::experiments::record_shard_metrics_trace(side, 3, 5, cut, skew);
        if let Err(e) = std::fs::write(path, doc.to_jsonl()) {
            return usage_error(&format!("cannot write {path}: {e}"));
        }
        println!(
            "recorded side-{side} cut-{cut} shard-metrics trace to {path}{}",
            if skew { " (skew-mutated)" } else { "" }
        );
        return ExitCode::SUCCESS;
    }

    if args.iter().any(|a| a == "--record-flight-dump") {
        let Some(path) = positional.first() else {
            return usage_error("--record-flight-dump needs an output path");
        };
        let depth = match parse_depth(&positional[1..]) {
            Ok(d) => d,
            Err(e) => return usage_error(&e),
        };
        let cut = match parse_flag_value(&args, "--cut-level", 1u8) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        if cut < 1 || cut > depth {
            return usage_error(&format!("cut level {cut} is outside 1..={depth}"));
        }
        let side = 2u32.pow(u32::from(depth));
        let dump = wsn_bench::experiments::record_flight_dump(side, 3, 5, cut, 64, "recorded");
        if let Err(e) = std::fs::write(path, dump.to_jsonl()) {
            return usage_error(&format!("cannot write {path}: {e}"));
        }
        println!(
            "recorded side-{side} cut-{cut} flight dump to {path} ({} dispatches stamped)",
            dump.recorded
        );
        return ExitCode::SUCCESS;
    }

    if args.iter().any(|a| a == "--obs-gate") {
        let tolerance = match parse_flag_value(&args, "--tolerance", 10.0f64) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        return match lint::obs_gate(8, 1000, tolerance) {
            Ok(report) => {
                print!("{report}");
                println!("obs gate: instrumented hot path within the bound");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                // Leave a post-mortem: the last dispatches of a fresh
                // seeded sharded run, for `netscope flight` / the CI
                // artifact upload.
                let dump = wsn_bench::experiments::record_flight_dump(8, 1, 5, 1, 64, "obs-gate");
                match std::fs::write("obs-gate-flight.jsonl", dump.to_jsonl()) {
                    Ok(()) => eprintln!("flight dump written to obs-gate-flight.jsonl"),
                    Err(e) => eprintln!("cannot write obs-gate-flight.jsonl: {e}"),
                }
                ExitCode::FAILURE
            }
        };
    }

    if args.iter().any(|a| a == "--record-shard-leak-trace") {
        let Some(path) = positional.first() else {
            return usage_error("--record-shard-leak-trace needs an output path");
        };
        let depth = match parse_depth(&positional[1..]) {
            Ok(d) => d,
            Err(e) => return usage_error(&e),
        };
        let side = 2u32.pow(u32::from(depth));
        let doc = wsn_bench::experiments::record_shard_leak_trace(side, 3, 5);
        if let Err(e) = std::fs::write(path, doc.to_jsonl()) {
            return usage_error(&format!("cannot write {path}: {e}"));
        }
        println!("recorded side-{side} planted-leak trace to {path}");
        return ExitCode::SUCCESS;
    }

    if args.iter().any(|a| a == "--parallel-gate") {
        // --mutate-misorder flips the sharded kernel's deterministic
        // boundary merge; the gate MUST then fail (CI inverts the exit
        // code to prove the differential suite has teeth).
        let sabotage = if args.iter().any(|a| a == "--mutate-misorder") {
            wsn_runtime::ShardSabotage::MisorderedMerge
        } else {
            wsn_runtime::ShardSabotage::None
        };
        let workers = match parse_flag_value(&args, "--scale-workers", 4usize) {
            Ok(v) => v,
            Err(e) => return usage_error(&e),
        };
        return match lint::parallel_gate(workers, sabotage) {
            Ok(checked) => {
                println!(
                    "wsn-lint --parallel-gate: certificate gating holds and {checked} sharded \
                     runs (sides 4, 8 at cut levels 1, 2) are byte-identical to the sequential \
                     reference"
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("wsn-lint --parallel-gate: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.iter().any(|a| a == "--shard-gate") {
        let configs = [(2u8, 1u8), (2, 2), (3, 1), (3, 2)];
        return match lint::shard_gate(&configs) {
            Ok(checked) => {
                println!(
                    "wsn-lint --shard-gate: {checked} certificate(s) hold, statically and \
                     on the seeded causal traces (sides 4, 8 at cut levels 1, 2)"
                );
                ExitCode::SUCCESS
            }
            Err(failures) => {
                for (depth, cut, diags) in failures {
                    eprintln!(
                        "depth {depth} cut {cut} failed the shard gate:\n{}",
                        diags.render_text()
                    );
                }
                ExitCode::FAILURE
            }
        };
    }

    if args.iter().any(|a| a == "--check") {
        return match lint::check_gate() {
            Ok(()) => {
                println!("wsn-lint --check: paper deployments (depths 1..=3) are error-free");
                ExitCode::SUCCESS
            }
            Err(failures) => {
                for (depth, diags) in failures {
                    eprintln!("depth {depth} failed the gate:\n{}", diags.render_text());
                }
                ExitCode::FAILURE
            }
        };
    }

    if args.iter().any(|a| a == "--program") {
        let Some(path) = positional.first() else {
            return usage_error("--program needs a file path");
        };
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return usage_error(&format!("cannot read {path}: {e}")),
        };
        return match lint::lint_program_text(&text) {
            Ok(diags) => report(&diags, json),
            Err(e) => usage_error(&format!("{path}: {e}")),
        };
    }

    // Default (and --fig4): the paper deployment.
    let depth = match parse_depth(&positional) {
        Ok(d) => d,
        Err(e) => return usage_error(&e),
    };
    let diags = lint::lint_figure4(depth);
    report(&diags, json)
}

/// Shape of the `--include-scale` run shared by `--perf-baseline` and
/// `--perf-gate`: scale side (default 512), cut level (default 2 → 16
/// shards), worker lanes (default 4). The engine is certificate-gated —
/// when the shard certificate is not clean at that cut, the scale row
/// silently runs on the sequential reference (with a warning), exactly
/// like the runtime drivers.
fn parse_scale_config(args: &[String]) -> Result<(u32, wsn_bench::experiments::RunEngine), String> {
    let side = parse_flag_value(args, "--scale-side", 512u32)?;
    let cut = parse_flag_value(args, "--scale-cut", 2u8)?;
    let workers = parse_flag_value(args, "--scale-workers", 4usize)?;
    let (engine, diags) = wsn_bench::lint::certified_engine(side, cut, workers, false);
    if engine == wsn_bench::experiments::RunEngine::Sequential {
        eprintln!(
            "wsn-lint: shard certificate not clean at side {side} cut {cut}; the scale row \
             falls back to the sequential kernel\n{}",
            diags.render_text()
        );
    }
    Ok((side, engine))
}

fn parse_flag_value<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => match args.get(i + 1) {
            None => Err(format!("{flag} needs a value")),
            Some(raw) => raw
                .parse::<T>()
                .map_err(|_| format!("{flag}: cannot parse {raw:?}")),
        },
    }
}

fn parse_depth(positional: &[&String]) -> Result<u8, String> {
    match positional.first() {
        None => Ok(2),
        Some(raw) => match raw.parse::<u8>() {
            Ok(d) if (1..=4).contains(&d) => Ok(d),
            _ => Err(format!("depth must be 1..=4, got {raw:?}")),
        },
    }
}

fn report(diags: &Diagnostics, json: bool) -> ExitCode {
    if json {
        println!("{}", diags.to_json().render());
    } else {
        print!("{}", diags.render_text());
    }
    if diags.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("wsn-lint: {message}");
    print_usage();
    ExitCode::from(2)
}

fn print_usage() {
    eprintln!(
        "usage: wsn-lint [--fig4] [depth] | --program <file.json> | \
         --emit-json-program [depth] | --certify [depth] | --conform <trace.jsonl> | \
         --record-fidelity-trace <out.jsonl> [depth] [--mutate-hop-cost k] \
         [--mutate-tx-energy x] | --perf-baseline <out.json> | \
         --perf-gate <baseline.json> [--tolerance pct] [--mutate-hop-cost k] \
         [--include-scale] [--gate-throughput] [--scale-side N] [--scale-cut L] \
         [--scale-workers W] | \
         --parallel-gate [--mutate-misorder] [--scale-workers W] | \
         --shard-check [depth] [--cut-level N] [--emit-shard-cert] [--mutate-shard-leak] | \
         --shard-check --program <file.json> [--cut-level N] | \
         --shard-conform <trace.jsonl> [--cut-level N] | \
         --shard-metrics [depth] [--cut-level N] [--mutate-shard-skew] | \
         --record-shard-metrics-trace <out.jsonl> [depth] [--cut-level N] \
         [--mutate-shard-skew] | \
         --record-flight-dump <out.jsonl> [depth] [--cut-level N] | \
         --obs-gate [--tolerance pct] | \
         --record-shard-leak-trace <out.jsonl> [depth] | --shard-gate | \
         --frame-check [depth] [--emit-frame-cert] [--mutate-payload-overflow] | \
         --alloc-gate | --check | --codes   [--json]"
    );
}
