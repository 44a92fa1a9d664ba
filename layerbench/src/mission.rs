//! `mission_s64`: one cold mission per op, from deployment to exported
//! trace, on a side-64 grid with 3 nodes per cell (12,288 nodes).
//!
//! The op generates the seeded deployment, builds the runtime with
//! telemetry on, runs §5.1 topology emulation and §5.2 binding, installs
//! the D&C programs, runs the application on the **sequential** engine
//! with causal tracing on, and exports: `record_trace`, `to_jsonl` into
//! memory, `extract_critical_path`. The engine is pinned to sequential on
//! purpose — never chosen by certification — so what this workload
//! measures cannot change with the certificate logic.

use crate::check::{answer_of, check_answer, oracle, Answer, THRESHOLD};
use crate::counts::{record_app, record_bind, record_topo, NetCounters};
use crate::metrics::OP_SPAN;
use crate::spans::{Spans, SETUP_BASE};
use crate::util::{mix, rss_mb, Digest};
use crate::{ensure, keep_going, Ctx, Op, Outcome, SETUP_REPEATS};
use std::time::Instant;
use wsn_net::{DeploymentSpec, LinkModel, RadioModel};
use wsn_obs::extract_critical_path;
use wsn_runtime::PhysicalRuntime;
use wsn_topoquery::{DandcMsg, DandcProgram, Field};

const SIDE: u32 = 64;
const PER_CELL: usize = 3;
/// Distinct (deployment, field) inputs per seed; ops cycle through them.
const CYCLE: usize = 3;

struct Input {
    seed: u64,
    field: Field,
    oracle: Answer,
}

/// Input `k` pairs a deployment seeded from the workload seed with the
/// `k`-th reference blob field. The fields are the same for every seed:
/// a single mission's simulated latency swings by about ±30% with the
/// field (the query stream averages that over many readings), while
/// with fixed readings it varies by about ±1.5% across deployments.
fn inputs(seed: u64) -> Vec<Input> {
    (0..CYCLE as u64)
        .map(|k| {
            let seed = mix(seed, 0x5164 + k);
            let field = wsn_bench::blob_field(SIDE, k);
            let oracle = oracle(&field);
            Input {
                seed,
                field,
                oracle,
            }
        })
        .collect()
}

/// What a mission op hands to the checks.
struct Mission {
    ms: f64,
    /// Wall time of topology emulation plus binding: cold convergence.
    converge_ms: f64,
    answer: Result<Answer, String>,
    protocol: Result<(), String>,
    latency_ticks: f64,
    energy: f64,
    digest: Digest,
}

fn mission_op(spans: &mut Spans, input: &Input) -> Mission {
    let field = input.field.clone();
    let traced = spans.enabled();
    let rss = |on: bool| if on { rss_mb() } else { 0.0 };
    let t0 = Instant::now();
    let root = spans.open(OP_SPAN);
    let deployment = spans.time("net.deploy", || {
        DeploymentSpec::per_cell(SIDE, PER_CELL).generate(input.seed)
    });
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    let rss0 = rss(traced);
    let mut rt = spans.time("runtime.build", || {
        let mut rt: PhysicalRuntime<DandcMsg> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            input.seed,
            move |c| field.value(c),
        );
        rt.enable_telemetry(false);
        rt
    });
    let tc = Instant::now();
    let topo = spans.time("runtime.topo", || rt.run_topology_emulation());
    let e_topo = rt.events_total();
    let bind = spans.time("runtime.bind", || rt.run_binding());
    let converge_ms = tc.elapsed().as_secs_f64() * 1e3;
    let e_bind = rt.events_total();
    let rss1 = rss(traced);
    spans.time("runtime.install", || {
        rt.install_programs(move |_| Box::new(DandcProgram::new(SIDE, THRESHOLD)))
    });
    let app_start = rt.now().ticks();
    let app = spans.time("runtime.app", || {
        rt.enable_causal_tracing();
        rt.run_application()
    });
    let e_app = rt.events_total();
    let rss2 = rss(traced);
    let doc = spans.time("obs.record", || rt.record_trace());
    let jsonl = spans.time("obs.jsonl", || doc.to_jsonl());
    let path = spans.time("obs.critpath", || extract_critical_path(&doc.causal));
    let rss3 = rss(traced);
    let exfil = spans.time("runtime.maintain", || rt.take_exfiltrated());
    spans.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    let energy = rt.medium().borrow().ledger().total();
    record_topo(spans, &topo, e_topo);
    record_bind(spans, rt.stats(), e_bind - e_topo);
    record_app(spans, &app, e_app - e_bind);
    let (tx, tx_units) = NetCounters::read(rt.stats()).record_since(NetCounters::default(), spans);
    spans.count("obs.jsonl_bytes", jsonl.len() as f64);
    spans.count("obs.causal_events", doc.causal.len() as f64);
    spans.count("runtime.rss_bringup_mb", rss1 - rss0);
    spans.count("sim.rss_app_mb", rss2 - rss1);
    spans.count("obs.rss_export_mb", rss3 - rss2);

    let answer = answer_of(&exfil);
    if let Ok(a) = &answer {
        spans.count("topoquery.regions", a.regions as f64);
    }
    let protocol = if !topo.complete {
        Err("topology emulation incomplete".to_string())
    } else if !(bind.unique && bind.tree_complete) {
        Err("binding did not elect unique leaders with complete trees".to_string())
    } else {
        path.as_ref()
            .map(|_| ())
            .map_err(|e| format!("critical path: {e}"))
    };
    let latency_ticks = (app_start + app.last_exfil_ticks.unwrap_or(0)) as f64;
    let digest = Digest::default()
        .word(topo.elapsed_ticks)
        .word(topo.broadcasts)
        .word(topo.suppressed)
        .word(bind.elapsed_ticks)
        .word(bind.delta_broadcasts)
        .word(bind.leaders.len() as u64)
        .word(app.elapsed_ticks)
        .word(app.messages)
        .word(app.physical_hops)
        .word(rt.events_total())
        .word(tx)
        .word(tx_units)
        .f64(energy)
        .word(latency_ticks as u64)
        .word(path.as_ref().map_or(0, |p| p.total_ticks()))
        .bytes(jsonl.as_bytes());
    Mission {
        ms,
        converge_ms,
        answer,
        protocol,
        latency_ticks,
        energy,
        digest,
    }
}

fn check(m: &Mission, input: &Input) -> Result<(), String> {
    m.protocol.clone()?;
    check_answer(m.answer.as_ref()?, &input.oracle)
}

pub fn run(ctx: &mut Ctx, process_start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut inputs_v = Vec::new();
    let mut start = process_start;
    for r in 0..SETUP_REPEATS {
        ctx.spans.set_enabled(ctx.trace);
        ctx.spans.set_op(SETUP_BASE + r);
        inputs_v = inputs(ctx.seed);
        let warm = mission_op(&mut ctx.spans, &inputs_v[0]);
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.checked("warm-up", check(&warm, &inputs_v[0]));
        start = Instant::now();
    }

    let mut first: Vec<Option<(Digest, f64, f64)>> = vec![None; CYCLE];
    let loop_start = Instant::now();
    let mut i = 0usize;
    while keep_going(loop_start, ctx.seconds, i, 2 * CYCLE) {
        let k = i % CYCLE;
        let traced = ctx.cycle_traced(i / CYCLE);
        ctx.spans.set_enabled(traced);
        ctx.spans.set_op(i as u64);
        let m = mission_op(&mut ctx.spans, &inputs_v[k]);
        ctx.spans.set_enabled(false);
        let c0 = Instant::now();
        out.checked(&format!("mission {i}"), check(&m, &inputs_v[k]));
        match first[k] {
            None => first[k] = Some((m.digest, m.latency_ticks, m.energy)),
            Some((d, _, _)) => out.run_check(
                "digest repeats for the same input (traced or not)",
                ensure(d == m.digest, || {
                    format!("mission {i} (input {k}) digest changed")
                }),
            ),
        }
        out.ops.push(Op {
            id: i as u64,
            ms: m.ms,
            traced,
            primary: true,
            heal_ms: Some(m.converge_ms),
            check_ms: c0.elapsed().as_secs_f64() * 1e3,
            // Not rescaled: neither probe kernel tracks the slowdown of
            // a 2-s, 200-MB mission (its spread grew in trials).
            factor: 1.0,
        });
        i += 1;
    }

    // Fixed op set: the first mission of each input.
    let fixed: Vec<(Digest, f64, f64)> = first.into_iter().flatten().collect();
    out.sim_latency_ticks = fixed.iter().map(|f| f.1).sum::<f64>() / fixed.len() as f64;
    out.sim_energy_units = fixed.iter().map(|f| f.2).sum::<f64>() / fixed.len() as f64;
    let digests: Vec<String> = fixed
        .iter()
        .map(|f| format!("{:016x}", f.0.value()))
        .collect();
    println!("digest mission_s64 seed={} {}", ctx.seed, digests.join(","));
    Ok(out)
}
