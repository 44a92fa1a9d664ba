//! `design_d4`: design-time synthesis and static analysis at hierarchy
//! depth 4 (side 16).
//!
//! One op synthesizes the Figure-4 task graph, mapping and program, then
//! runs analysis passes 1–7: the body of `analyze_deployment` (passes
//! 1–5, called pass by pass so each is its own span), `analyze_shards`
//! (6) and `analyze_frames` (7). Inputs cycle through {clean,
//! leak-mutated} × cut {1, 2} in a seeded order. No simulation runs.

use crate::calib::{Kernel, Probe};
use crate::check::{check_verdict, Variant, Verdict};
use crate::metrics::OP_SPAN;
use crate::spans::{Spans, REPLAY_BASE, SETUP_BASE};
use crate::util::{mix, Digest};
use crate::{ensure, keep_going, Ctx, Op, Outcome, SETUP_REPEATS};
use std::time::Instant;
use wsn_analyze::{
    analyze_deployment, analyze_frames, analyze_program, analyze_shards, certify, check_deadlock,
    check_graph, check_mapping, explore, role_footprints, CertConfig, Diagnostics, ReachConfig,
};
use wsn_core::ShardPlan;
use wsn_synth::{quadtree_task_graph, synthesize_quadtree_program, Mapper, QuadrantMapper};

const DEPTH: u8 = 4;
const SIDE: u32 = 16;

#[derive(Debug, Clone, Copy)]
struct Input {
    variant: Variant,
    cut: u8,
}

/// The four inputs in a seed-determined order.
fn inputs(seed: u64) -> Vec<Input> {
    let mut v = vec![
        Input {
            variant: Variant::Clean,
            cut: 1,
        },
        Input {
            variant: Variant::Leak,
            cut: 1,
        },
        Input {
            variant: Variant::Clean,
            cut: 2,
        },
        Input {
            variant: Variant::Leak,
            cut: 2,
        },
    ];
    for i in (1..v.len()).rev() {
        let j = (mix(seed, 0xD351 + i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

fn program(variant: Variant) -> wsn_synth::GuardedProgram {
    match variant {
        Variant::Clean => synthesize_quadtree_program(DEPTH),
        Variant::Leak => wsn_bench::lint::leak_mutated_figure4(DEPTH),
    }
}

/// What one design op produced, beyond its wall time.
struct Checked {
    verdict: Verdict,
    deployment: Diagnostics,
    digest: Digest,
    /// Certified application latency (ticks) and transmit energy.
    latency_hi: f64,
    energy_hi: f64,
}

/// One design op: synthesis, then passes 1–7.
fn design_op(spans: &mut Spans, input: Input) -> Checked {
    let qt = spans.time("synth.taskgraph", || {
        quadtree_task_graph(SIDE, &|l| u64::from(l) + 1, &|l| u64::from(l))
    });
    let mapping = spans.time("synth.mapping", || QuadrantMapper.map(&qt));
    let program = spans.time("synth.program", || program(input.variant));
    // Passes 1–5 exactly as `analyze_deployment` composes them.
    let mut deployment = spans.time("analyze.program", || analyze_program(&program));
    spans.time("analyze.graph", || {
        deployment.extend(check_graph(&qt.graph));
        deployment.extend(check_mapping(&qt, &mapping));
    });
    spans.time("analyze.deadlock", || {
        deployment.extend(check_deadlock(&qt, &mapping, &program))
    });
    let (cert, cert_diags) = spans.time("analyze.certify", || {
        certify(&program, &CertConfig::paper(SIDE))
    });
    deployment.extend(cert_diags);
    deployment.sort();
    let plan = ShardPlan::new(SIDE, input.cut);
    let (shard, shard_diags) = spans.time("analyze.shards", || {
        analyze_shards(&program, &plan, ReachConfig::default())
    });
    let (frame, frame_diags) = spans.time("analyze.frames", || {
        analyze_frames(&program, SIDE, ReachConfig::default())
    });

    let verdict = Verdict::from_passes(
        shard.is_some(),
        frame.is_some(),
        &[&deployment, &shard_diags, &frame_diags],
    );
    let latency_hi = cert.bound("application").map_or(0.0, |b| b.interval.hi);
    let energy_hi: f64 = cert
        .bounds
        .iter()
        .filter(|b| b.quantity.starts_with("phase.app.tx_energy.class"))
        .map(|b| b.interval.hi)
        .sum();
    let mut digest = Digest::default();
    for d in [&deployment, &shard_diags, &frame_diags] {
        digest = digest.bytes(d.render_text().as_bytes());
    }
    for b in &cert.bounds {
        digest = digest.f64(b.interval.lo).f64(b.interval.hi);
    }
    if let Some(s) = &shard {
        digest = digest
            .word(s.total_messages)
            .word(s.cross_shard_messages)
            .word(s.boundary_edges.len() as u64);
    }
    if let Some(f) = &frame {
        digest = digest.word(f.max_payload_bytes).word(f.total_data_units);
    }
    Checked {
        verdict,
        deployment,
        digest,
        latency_hi,
        energy_hi,
    }
}

pub fn run(ctx: &mut Ctx, process_start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut inputs_v = Vec::new();
    // The warm-up always checks the clean cut-1 input: the leak-mutated
    // program at cut 1 costs ~30% less than the other inputs, so warming
    // up on the seed's first input would make `setup_s` seed-dependent.
    let warm_input = Input {
        variant: Variant::Clean,
        cut: 1,
    };
    let mut start = process_start;
    for r in 0..SETUP_REPEATS {
        ctx.spans.set_enabled(ctx.trace);
        ctx.spans.set_op(SETUP_BASE + r);
        inputs_v = inputs(ctx.seed);
        let warm = design_op(&mut ctx.spans, warm_input);
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.checked("warm-up", check_verdict(warm_input.variant, &warm.verdict));
        start = Instant::now();
    }

    let mut digests: Vec<Option<Digest>> = vec![None; inputs_v.len()];
    let mut bounds = vec![None; inputs_v.len()];
    let mut ok = 0usize;
    let mut probe = Probe::new(Kernel::StateSet);
    let loop_start = Instant::now();
    let mut i = 0usize;
    while keep_going(loop_start, ctx.seconds, i, 2 * inputs_v.len()) {
        let k = i % inputs_v.len();
        let input = inputs_v[k];
        let traced = ctx.cycle_traced(i / inputs_v.len());
        ctx.spans.set_enabled(traced);
        ctx.spans.set_op(i as u64);
        let t0 = Instant::now();
        let root = ctx.spans.open(OP_SPAN);
        let got = design_op(&mut ctx.spans, input);
        ctx.spans.close(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let factor = probe.factor();

        let c0 = Instant::now();
        let verdict = check_verdict(input.variant, &got.verdict);
        ok += usize::from(verdict.is_ok());
        out.checked(&format!("op {i} ({input:?})"), verdict);
        match digests[k] {
            None => digests[k] = Some(got.digest),
            Some(d) => out.run_check(
                "digest repeats for the same input (traced or not)",
                ensure(d == got.digest, || {
                    format!("op {i} ({input:?}) digest changed")
                }),
            ),
        }
        bounds[k] = Some((got.latency_hi, got.energy_hi));
        out.ops.push(Op {
            id: i as u64,
            ms,
            traced,
            primary: true,
            // A clean op re-certifies a repaired design.
            heal_ms: (input.variant == Variant::Clean).then_some(ms),
            check_ms: c0.elapsed().as_secs_f64() * 1e3,
            factor,
        });
        i += 1;
    }
    ctx.spans.set_enabled(false);

    // The per-pass composition above must be exactly `analyze_deployment`.
    // Passes 1–5 do not depend on the cut, so one input per variant.
    for variant in [Variant::Clean, Variant::Leak] {
        let input = *inputs_v
            .iter()
            .find(|i| i.variant == variant)
            .expect("both variants are inputs");
        let (qt, mapping, _) = wsn_bench::lint::paper_deployment(DEPTH);
        let reference = analyze_deployment(&qt, &mapping, &program(variant));
        let mine = design_op(&mut ctx.spans, input);
        out.run_check(
            "pass-by-pass composition equals analyze_deployment",
            ensure(reference == mine.deployment, || {
                format!("{input:?} diverges")
            }),
        );
    }

    // Certified (analytic) application latency and transmit energy, the
    // §4 price of the clean design, averaged over the clean inputs.
    let clean: Vec<(f64, f64)> = inputs_v
        .iter()
        .zip(&bounds)
        .filter(|(input, _)| input.variant == Variant::Clean)
        .filter_map(|(_, b)| *b)
        .collect();
    out.sim_latency_ticks = clean.iter().map(|b| b.0).sum::<f64>() / clean.len() as f64;
    out.sim_energy_units = clean.iter().map(|b| b.1).sum::<f64>() / clean.len() as f64;
    out.extra.push((
        "analyze.verdicts_ok_ratio",
        ok as f64 / out.ops.len() as f64,
    ));

    if ctx.trace {
        // Footprints and the raw exploration, outside the op spans.
        let mut truncated = false;
        for (k, variant) in [Variant::Clean, Variant::Leak].into_iter().enumerate() {
            let p = program(variant);
            ctx.spans.set_enabled(true);
            ctx.spans.set_op(REPLAY_BASE + k as u64);
            let fps = ctx.spans.time("analyze.footprint", || {
                role_footprints(&p, SIDE, ReachConfig::default())
            });
            ctx.spans.set_enabled(false);
            out.run_check(
                "footprints cover every role",
                ensure(fps.len() == usize::from(DEPTH) + 1, || {
                    format!("{} roles", fps.len())
                }),
            );
            let reach = explore(&p, ReachConfig::default());
            truncated |= reach.truncated;
            if variant == Variant::Clean {
                out.extra
                    .push(("analyze.reach_states", reach.states as f64));
            }
        }
        out.extra
            .push(("analyze.reach_truncated", f64::from(u8::from(truncated))));
    }
    let first: Vec<String> = digests
        .iter()
        .map(|d| format!("{:016x}", d.map_or(0, Digest::value)))
        .collect();
    println!("digest design_d4 seed={} {}", ctx.seed, first.join(","));
    Ok(out)
}
