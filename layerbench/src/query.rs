//! `query_stream_s32`: a warm side-32 network (3 nodes per cell, 3,072
//! nodes) answering a stream of D&C queries on the sharded engine.
//!
//! Set-up certifies the engine with `certified_engine(32, 2, 2)` — and
//! fails the run if the sharded engine is not licensed, instead of
//! falling back — then deploys and brings the network up once. A
//! **query op** reinstalls the programs and answers one query (cut 2, 2
//! worker lanes) over a fresh seeded field reading, then takes the
//! exfiltrated result and prunes the dedup state. Every `CYCLE`-th op is
//! a **heal op**: kill or wake a seeded node set (every cell keeps a live
//! node), `refresh_after_churn`, then the query. Telemetry is off.

use crate::calib::{Kernel, Probe};
use crate::check::{answer_of, check_answer, oracle, Answer, THRESHOLD};
use crate::counts::{record_app, record_bind, record_topo, NetCounters};
use crate::metrics::OP_SPAN;
use crate::spans::{Spans, REPLAY_BASE, SETUP_BASE};
use crate::util::{median, mix, Digest};
use crate::{ensure, keep_going, Ctx, Op, Outcome, SETUP_REPEATS};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use wsn_bench::RunEngine;
use wsn_net::{DeploymentSpec, LinkModel, RadioModel};
use wsn_runtime::{ParallelConfig, PhysicalRuntime};
use wsn_topoquery::{DandcMsg, DandcProgram, Field};

const SIDE: u32 = 32;
const PER_CELL: usize = 3;
const CUT: u8 = 2;
const WORKERS: usize = 2;
/// Ops per cycle; the last op of each cycle is a heal op.
const CYCLE: usize = 8;
/// Field readings per seed; query ops cycle through them.
const FIELDS: usize = 192;
/// Distinct churn sets per seed; heal ops alternately kill and wake them.
const CHURN_SETS: usize = 4;
/// Cells a churn set touches.
const CHURN_CELLS: usize = 96;
/// The query ops among the first `SIM_OPS` ops are the fixed,
/// seed-determined set behind `sim_latency_ticks` and
/// `sim_energy_units`. One query's latency swings by about ±30% with its
/// field, so the set spans many readings.
const SIM_OPS: usize = FIELDS;
/// The post-run replay re-executes the first `REPLAY_OPS` ops.
const REPLAY_OPS: usize = 2 * CYCLE;

/// Seed of the one reference deployment every run uses, whatever its
/// workload seed: with a seeded deployment the simulated latency's
/// spread across seeds was 0.04–0.09, with this one 0.03. Deployments
/// vary on `mission_s64`.
const DEPLOY_SEED: u64 = 0xDE9;

struct Inputs {
    fields: Vec<(Field, Answer)>,
    /// Node sets; each leaves at least one live node in every cell.
    churn: Vec<Vec<usize>>,
}

fn inputs(seed: u64) -> Inputs {
    let fields = (0..FIELDS as u64)
        .map(|k| {
            let f = wsn_bench::blob_field(SIDE, mix(seed, 0xF1E1D + k));
            let o = oracle(&f);
            (f, o)
        })
        .collect();
    let cells = (SIDE * SIDE) as u64;
    let churn = (0..CHURN_SETS as u64)
        .map(|s| {
            let mut set = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            let mut j = 0u64;
            while seen.len() < CHURN_CELLS {
                let cell = mix(seed, (s << 32) + j) % cells;
                j += 1;
                if seen.insert(cell) {
                    // Per-cell deployment puts nodes of cell c at
                    // indices c*PER_CELL..; kill 1 or 2 of the 3.
                    let base = cell as usize * PER_CELL;
                    let n = 1 + (mix(seed, cell) % 2) as usize;
                    set.extend((0..n).map(|x| base + (x + s as usize) % PER_CELL));
                }
            }
            set.sort_unstable();
            set
        })
        .collect();
    Inputs { fields, churn }
}

/// The warm network plus the shared reading the node programs sense.
struct World {
    rt: PhysicalRuntime<DandcMsg>,
    reading: Rc<RefCell<Field>>,
    cfg: ParallelConfig,
}

fn bring_up(spans: &mut Spans, inp: &Inputs) -> Result<World, String> {
    let deployment = spans.time("net.deploy", || {
        DeploymentSpec::per_cell(SIDE, PER_CELL).generate(DEPLOY_SEED)
    });
    for set in &inp.churn {
        let mut killed = std::collections::BTreeMap::new();
        for &n in set {
            *killed.entry(deployment.cell_of_node(n)).or_insert(0) += 1;
        }
        if let Some((cell, _)) = killed
            .iter()
            .find(|(c, k)| **k >= deployment.nodes_in_cell(**c).len())
        {
            return Err(format!("a churn set would empty cell {cell:?}"));
        }
    }
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    let reading = Rc::new(RefCell::new(inp.fields[0].0.clone()));
    let sensed = reading.clone();
    let mut rt = spans.time("runtime.build", || {
        PhysicalRuntime::<DandcMsg>::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            DEPLOY_SEED,
            move |c| sensed.borrow().value(c),
        )
    });
    let topo = spans.time("runtime.topo", || rt.run_topology_emulation());
    let e_topo = rt.events_total();
    let bind = spans.time("runtime.bind", || rt.run_binding());
    record_topo(spans, &topo, e_topo);
    record_bind(spans, rt.stats(), rt.events_total() - e_topo);
    if !topo.complete || !bind.unique || !bind.tree_complete {
        return Err("bring-up did not converge".into());
    }
    let cfg = ParallelConfig {
        cut_level: u32::from(CUT),
        workers: WORKERS,
    };
    rt.parallel_preconditions(&cfg)?;
    Ok(World { rt, reading, cfg })
}

/// What a query or heal op produced.
struct Query {
    ms: f64,
    answer: Result<Answer, String>,
    protocol: Result<(), String>,
    latency_ticks: f64,
    energy: f64,
    digest: Digest,
}

/// One op: an optional churn step (`churn = Some((set, kill))`) with
/// refresh, then the query over `field`.
fn query_op(
    spans: &mut Spans,
    w: &mut World,
    field: &Field,
    churn: Option<(&[usize], bool)>,
) -> Query {
    *w.reading.borrow_mut() = field.clone();
    let energy0 = w.rt.medium().borrow().ledger().total();
    let net0 = NetCounters::read(w.rt.stats());
    let mut digest = Digest::default();
    let mut protocol = Ok(());

    let t0 = Instant::now();
    let root = spans.open(OP_SPAN);
    if let Some((set, kill)) = churn {
        spans.time("net.churn", || {
            let now = w.rt.now();
            let mut medium = w.rt.medium().borrow_mut();
            for &n in set {
                if kill {
                    medium.kill(n, now);
                } else {
                    medium.wake(n);
                }
            }
        });
        let e0 = w.rt.events_total();
        let (topo, bind) = spans.time("runtime.refresh", || w.rt.refresh_after_churn());
        spans.count("runtime.refresh_events", (w.rt.events_total() - e0) as f64);
        if !topo.complete || !bind.unique || !bind.tree_complete {
            protocol = Err(format!(
                "refresh did not converge after churn (kill={kill})"
            ));
        }
        digest = digest
            .word(topo.elapsed_ticks)
            .word(topo.broadcasts)
            .word(topo.suppressed)
            .word(bind.elapsed_ticks)
            .word(bind.delta_broadcasts)
            .word(bind.leaders.len() as u64);
    }
    spans.time("runtime.install", || {
        w.rt.install_programs(move |_| Box::new(DandcProgram::new(SIDE, THRESHOLD)))
    });
    let e0 = w.rt.events_total();
    let cfg = w.cfg;
    let app = spans.time("runtime.app", || w.rt.run_application_parallel(&cfg));
    let events = w.rt.events_total() - e0;
    let exfil = spans.time("runtime.maintain", || {
        let exfil = w.rt.take_exfiltrated();
        w.rt.prune_dedup_state();
        exfil
    });
    spans.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    let energy = w.rt.medium().borrow().ledger().total() - energy0;
    record_app(spans, &app, events);
    let (tx, tx_units) = NetCounters::read(w.rt.stats()).record_since(net0, spans);
    let answer = answer_of(&exfil);
    if let Ok(a) = &answer {
        spans.count("topoquery.regions", a.regions as f64);
    }
    let latency_ticks = app.last_exfil_ticks.unwrap_or(0) as f64;
    let digest = digest
        .word(events)
        .word(app.elapsed_ticks)
        .word(latency_ticks as u64)
        .word(app.messages)
        .word(app.physical_hops)
        .word(tx)
        .word(tx_units)
        .f64(energy);
    Query {
        ms,
        answer,
        protocol,
        latency_ticks,
        energy,
        digest,
    }
}

fn check(q: &Query, want: &Answer) -> Result<(), String> {
    q.protocol.clone()?;
    check_answer(q.answer.as_ref()?, want)
}

/// Op `i`'s field index and churn step: every `CYCLE`-th op is a heal
/// op; heal ops alternately kill a churn set and wake it again.
fn plan(i: usize) -> (usize, Option<(usize, bool)>) {
    let field = i % FIELDS;
    if i % CYCLE != CYCLE - 1 {
        return (field, None);
    }
    let heal = i / CYCLE;
    (
        field,
        Some(((heal / 2) % CHURN_SETS, heal.is_multiple_of(2))),
    )
}

fn run_op(spans: &mut Spans, w: &mut World, inp: &Inputs, i: usize) -> (Query, bool) {
    let (f, churn) = plan(i);
    let churn = churn.map(|(s, kill)| (inp.churn[s].as_slice(), kill));
    (query_op(spans, w, &inp.fields[f].0, churn), churn.is_some())
}

/// The engine licence: `certified_engine(32, 2, 2)` must select the
/// sharded engine at cut 2 with 2 lanes.
fn certify_engine(spans: &mut Spans) -> Result<(), String> {
    let (engine, diags) = spans.time("analyze.engine_check", || {
        wsn_bench::lint::certified_engine(SIDE, CUT, WORKERS, false)
    });
    match engine {
        RunEngine::Sharded { cut_level, workers }
            if cut_level == u32::from(CUT) && workers == WORKERS =>
        {
            Ok(())
        }
        other => Err(format!(
            "certified_engine({SIDE}, {CUT}, {WORKERS}) selected {other}, not the sharded engine:\n{}",
            diags.render_text()
        )),
    }
}

pub fn run(ctx: &mut Ctx, process_start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut start = process_start;
    let mut setup = None;
    for r in 0..SETUP_REPEATS {
        ctx.spans.set_enabled(ctx.trace);
        ctx.spans.set_op(SETUP_BASE + r);
        certify_engine(&mut ctx.spans)?;
        let inp = inputs(ctx.seed);
        let mut w = bring_up(&mut ctx.spans, &inp)?;
        // Warm-up: one untimed query on a reading outside the op cycle's
        // order (the last field), so op 0 starts from a warm network.
        let warm_field = &inp.fields[FIELDS - 1];
        let q = query_op(&mut ctx.spans, &mut w, &warm_field.0, None);
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.checked("warm-up", check(&q, &warm_field.1));
        setup = Some((inp, w));
        start = Instant::now();
    }
    let (inp, mut w) = setup.expect("at least one set-up");

    let mut digests: Vec<Digest> = Vec::new();
    let mut sim: Vec<(f64, f64)> = Vec::new();
    let mut probe = Probe::new(Kernel::Mixed);
    let loop_start = Instant::now();
    let mut i = 0usize;
    while keep_going(loop_start, ctx.seconds, i, SIM_OPS.max(REPLAY_OPS)) {
        let traced = ctx.cycle_traced(i / CYCLE);
        ctx.spans.set_enabled(traced);
        ctx.spans.set_op(i as u64);
        let (q, heal) = run_op(&mut ctx.spans, &mut w, &inp, i);
        ctx.spans.set_enabled(false);
        let factor = probe.factor();
        let c0 = Instant::now();
        out.checked(&format!("op {i}"), check(&q, &inp.fields[plan(i).0].1));
        if i < REPLAY_OPS {
            digests.push(q.digest);
        }
        if i < SIM_OPS && !heal {
            sim.push((q.latency_ticks, q.energy));
        }
        out.ops.push(Op {
            id: i as u64,
            ms: q.ms,
            traced,
            primary: !heal,
            heal_ms: heal.then_some(q.ms),
            check_ms: c0.elapsed().as_secs_f64() * 1e3,
            factor,
        });
        i += 1;
    }
    out.sim_latency_ticks = sim.iter().map(|s| s.0).sum::<f64>() / sim.len() as f64;
    out.sim_energy_units = sim.iter().map(|s| s.1).sum::<f64>() / sim.len() as f64;

    // Replay the first ops on a fresh network with every cycle's tracing
    // mode flipped: the digests must repeat exactly, which checks both
    // determinism per seed and that tracing changes no count.
    let mut fresh = bring_up(&mut ctx.spans, &inp)?;
    let warm_field = &inp.fields[FIELDS - 1];
    query_op(&mut ctx.spans, &mut fresh, &warm_field.0, None);
    for (j, want) in digests.iter().enumerate() {
        ctx.spans.set_enabled(!ctx.cycle_traced(j / CYCLE));
        ctx.spans.set_op(REPLAY_BASE + j as u64);
        let (q, _) = run_op(&mut ctx.spans, &mut fresh, &inp, j);
        ctx.spans.set_enabled(false);
        out.checked(&format!("replay {j}"), check(&q, &inp.fields[plan(j).0].1));
        out.run_check(
            "replayed digest equals the run's (same seed, other tracing mode)",
            ensure(q.digest == *want, || {
                format!("op {j} digest changed on replay")
            }),
        );
    }
    drop(fresh);

    if ctx.trace {
        shard_replay(&mut w, &inp, &mut out);
    }
    let digests: Vec<String> = digests
        .iter()
        .map(|d| format!("{:016x}", d.value()))
        .collect();
    println!(
        "digest query_stream_s32 seed={} {}",
        ctx.seed,
        digests.join(",")
    );
    Ok(out)
}

/// Sharded-kernel counters and the sharded ÷ sequential cost per event,
/// replayed on the warm network after the timed ops.
fn shard_replay(w: &mut World, inp: &Inputs, out: &mut Outcome) {
    let mut ratios = Vec::new();
    for k in 0..3 {
        let (field, want) = &inp.fields[k];
        *w.reading.borrow_mut() = field.clone();
        let mut ns_per_event = [0.0; 2];
        for (slot, engine) in [
            RunEngine::Sequential,
            RunEngine::Sharded {
                cut_level: w.cfg.cut_level,
                workers: w.cfg.workers,
            },
        ]
        .into_iter()
        .enumerate()
        {
            w.rt.install_programs(move |_| Box::new(DandcProgram::new(SIDE, THRESHOLD)));
            let e0 = w.rt.events_total();
            let t = Instant::now();
            engine.run_application(&mut w.rt);
            let ns = t.elapsed().as_nanos() as f64;
            ns_per_event[slot] = ns / (w.rt.events_total() - e0) as f64;
            let exfil = w.rt.take_exfiltrated();
            w.rt.prune_dedup_state();
            out.checked(
                &format!("shard replay {k} on {engine}"),
                answer_of(&exfil).and_then(|a| check_answer(&a, want)),
            );
        }
        ratios.push(ns_per_event[1] / ns_per_event[0]);
    }
    // One more sharded query with telemetry on publishes the per-shard
    // window accounting (telemetry stays off for every timed op).
    w.rt.enable_telemetry(false);
    w.rt.install_programs(move |_| Box::new(DandcProgram::new(SIDE, THRESHOLD)));
    let cfg = w.cfg;
    w.rt.run_application_parallel(&cfg);
    let exfil = w.rt.take_exfiltrated();
    w.rt.prune_dedup_state();
    out.checked(
        "shard telemetry replay",
        answer_of(&exfil).and_then(|a| check_answer(&a, &inp.fields[2].1)),
    );
    let t = w.rt.shard_telemetry();
    let sum_labeled = |prefix: &str| -> f64 {
        t.counters()
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let windows = t.counter("shard.windows") as f64;
    out.extra.push(("sim.shard_windows", windows));
    out.extra.push((
        "sim.shard_events_per_window",
        t.counter("shard.events.total") as f64 / windows.max(1.0),
    ));
    out.extra
        .push(("sim.shard_cross_staged", sum_labeled("shard.cross.staged|")));
    out.extra.push((
        "sim.shard_barrier_stall",
        sum_labeled("shard.barrier.stall|"),
    ));
    out.extra
        .push(("sim.shard_overhead_x", median(&ratios).unwrap_or(0.0)));
}
