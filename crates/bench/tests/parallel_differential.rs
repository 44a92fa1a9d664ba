//! Differential determinism suite: the sharded parallel kernel is
//! certified against the sequential reference by byte-comparison, not by
//! statistics. For every (side, cut level, seed) cell of the matrix the
//! sharded run's JSONL trace — events, causal log, counters, gauges,
//! per-node energy — and its metric bundle must be **byte-identical** to
//! the sequential run's. One chaos mission (fault injection + crash +
//! self-healing) rides in the matrix so the epoch-sliced driver is
//! differenced too, not just the plain application run.
//!
//! The suite proves it has teeth itself: with
//! [`ShardSabotage::MisorderedMerge`] planted, the sharded kernel merges
//! boundary traffic in a deliberately wrong order, and the same byte
//! comparison must then report divergent cells.

use wsn_bench::experiments::{record_end_to_end_trace_with, RunEngine};
use wsn_core::{GridCoord, NodeApi, NodeProgram};
use wsn_net::{ChaosPlan, DeliveryChaos, DeploymentSpec, LinkModel, RadioModel};
use wsn_runtime::{ParallelConfig, PhysicalRuntime, SelfHealConfig, ShardSabotage};
use wsn_sim::SimTime;

const SEEDS: [u64; 5] = [3, 5, 11, 21, 42];

struct Gather {
    expected: usize,
    seen: usize,
    sum: f64,
}

impl NodeProgram<f64> for Gather {
    fn on_init(&mut self, api: &mut dyn NodeApi<f64>) {
        let v = api.read_sensor();
        api.compute(1);
        if api.coord() != GridCoord::new(0, 0) {
            api.send(GridCoord::new(0, 0), 1, v);
        } else {
            self.sum += v;
            self.seen += 1;
        }
    }

    fn on_receive(&mut self, api: &mut dyn NodeApi<f64>, _from: GridCoord, payload: f64) {
        self.sum += payload;
        self.seen += 1;
        if self.seen == self.expected {
            api.exfiltrate(self.sum);
        }
    }
}

/// Sequential reference vs sharded run (with `sabotage` planted) at
/// every seed and cut level of one side; returns the matrix cells whose
/// trace or metrics diverged.
fn divergent_cells(side: u32, sabotage: ShardSabotage) -> Vec<String> {
    let mut diverged = Vec::new();
    for seed in SEEDS {
        let (seq_doc, seq_metrics) = record_end_to_end_trace_with(
            side,
            3,
            seed,
            true,
            RunEngine::Sequential,
            ShardSabotage::None,
        );
        let seq_jsonl = seq_doc.to_jsonl();
        let seq_metrics = format!("{seq_metrics:?}");
        for cut_level in [1u32, 2] {
            let engine = RunEngine::Sharded {
                cut_level,
                workers: 4,
            };
            let (doc, metrics) =
                record_end_to_end_trace_with(side, 3, seed, true, engine, sabotage);
            if doc.to_jsonl() != seq_jsonl {
                diverged.push(format!("seed {seed} cut {cut_level}: trace"));
            }
            if format!("{metrics:?}") != seq_metrics {
                diverged.push(format!("seed {seed} cut {cut_level}: metrics"));
            }
        }
    }
    diverged
}

/// The clean matrix of one side: every cell byte-identical.
fn differential_matrix(side: u32) {
    let diverged = divergent_cells(side, ShardSabotage::None);
    assert!(
        diverged.is_empty(),
        "side {side}: sharded runs diverged from the sequential reference: {diverged:?}"
    );
}

#[test]
fn side_4_sharded_traces_are_byte_identical() {
    differential_matrix(4);
}

#[test]
fn planted_misorder_makes_the_byte_comparison_diverge() {
    let diverged = divergent_cells(4, ShardSabotage::MisorderedMerge);
    assert!(
        diverged.iter().any(|cell| cell.ends_with("trace")),
        "a misordered boundary merge went unnoticed by the side-4 byte comparison"
    );
}

#[test]
fn side_8_sharded_traces_are_byte_identical() {
    differential_matrix(8);
}

#[test]
fn side_16_sharded_traces_are_byte_identical() {
    differential_matrix(16);
}

/// The chaos cell of the matrix: duplicated + reordered deliveries, a
/// mid-mission crash, and the self-healing epoch driver — replayed on
/// the sharded kernel and compared on the mission report, final clock,
/// and canonical causal log.
#[test]
fn chaos_mission_is_byte_identical_across_engines() {
    let run = |parallel: Option<ParallelConfig>| {
        let spec = DeploymentSpec::per_cell(4, 3);
        let deployment = spec.generate(33);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let mut rt: PhysicalRuntime<f64> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            33,
            |c| f64::from(c.col + c.row),
        );
        rt.enable_causal_tracing();
        assert!(rt.run_topology_emulation().complete);
        assert!(rt.run_binding().unique);
        rt.install_programs(|_| {
            Box::new(Gather {
                expected: 16,
                seen: 0,
                sum: 0.0,
            })
        });
        rt.install_chaos(
            ChaosPlan::none()
                .delivery_at(
                    SimTime::from_ticks(10),
                    DeliveryChaos {
                        dup_prob: 0.2,
                        reorder_prob: 0.2,
                        reorder_max_extra_ticks: 3,
                    },
                )
                .crash_at(SimTime::from_ticks(60), 0),
        )
        .unwrap();
        let report = match &parallel {
            None => rt.run_chaos_mission(SelfHealConfig::default(), 1),
            Some(cfg) => rt.run_chaos_mission_parallel(SelfHealConfig::default(), 1, cfg),
        };
        let causal = rt.causal_log().unwrap().borrow().canonical_events();
        (report, rt.now(), format!("{causal:?}"))
    };
    let sequential = run(None);
    for cut_level in [1u32, 2] {
        let cfg = ParallelConfig {
            cut_level,
            workers: 3,
        };
        assert_eq!(
            run(Some(cfg)),
            sequential,
            "chaos mission at {cfg:?} diverged from sequential"
        );
    }
}
