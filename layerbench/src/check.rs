//! Correctness oracles the benchmark checks every op against.
//!
//! * Query answers: the distributed D&C result must equal the
//!   centralized [`label_regions`] labeling of the thresholded field, in
//!   region count and in the sorted list of region areas.
//! * Design verdicts: a clean Figure-4 deployment earns both the shard
//!   and the frame certificate with no errors anywhere; the leak-mutated
//!   program is refused a shard certificate with `SI002`/`SI003`.

use wsn_analyze::{Code, Diagnostics, Severity};
use wsn_core::Exfiltrated;
use wsn_topoquery::{label_regions, DandcMsg, Field, RegionSummary};

/// Feature threshold of every query.
pub const THRESHOLD: f64 = 5.0;

/// A region-labeling answer: region count and areas, largest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub regions: usize,
    pub areas: Vec<u64>,
}

/// The centralized ground truth for `field`.
pub fn oracle(field: &Field) -> Answer {
    let labels = label_regions(&field.threshold(THRESHOLD));
    Answer {
        regions: labels.region_count(),
        areas: labels
            .areas_sorted_desc()
            .into_iter()
            .map(u64::from)
            .collect(),
    }
}

/// The answer carried by one query's exfiltrations: exactly one complete
/// root summary.
pub fn answer_of(exfil: &[Exfiltrated<DandcMsg>]) -> Result<Answer, String> {
    let [one] = exfil else {
        return Err(format!("expected 1 exfiltration, got {}", exfil.len()));
    };
    let RegionSummary::Complete(root) = &one.payload.data else {
        return Err("exfiltrated a partial summary".into());
    };
    let mut areas: Vec<u64> = root
        .open_areas()
        .iter()
        .chain(root.closed_areas())
        .copied()
        .collect();
    areas.sort_unstable_by(|a, b| b.cmp(a));
    Ok(Answer {
        regions: root.region_count(),
        areas,
    })
}

pub fn check_answer(got: &Answer, want: &Answer) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "answer {} regions {:?} != oracle {} regions {:?}",
            got.regions, got.areas, want.regions, want.areas
        ))
    }
}

/// Which Figure-4 program a design op analyzes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Clean,
    Leak,
}

/// What a design op concluded.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub shard_cert: bool,
    pub frame_cert: bool,
    /// Error codes from every pass, sorted and deduplicated.
    pub errors: Vec<Code>,
}

impl Verdict {
    pub fn from_passes(shard_cert: bool, frame_cert: bool, diags: &[&Diagnostics]) -> Self {
        let mut errors: Vec<Code> = diags
            .iter()
            .flat_map(|d| d.items())
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.code)
            .collect();
        errors.sort();
        errors.dedup();
        Verdict {
            shard_cert,
            frame_cert,
            errors,
        }
    }
}

/// The known answer for `variant`.
pub fn check_verdict(variant: Variant, v: &Verdict) -> Result<(), String> {
    let ok = match variant {
        Variant::Clean => v.shard_cert && v.frame_cert && v.errors.is_empty(),
        Variant::Leak => {
            !v.shard_cert && (v.errors.contains(&Code::SI002) || v.errors.contains(&Code::SI003))
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{variant:?} input got verdict {v:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_analyze::{analyze_frames, analyze_shards, ReachConfig};
    use wsn_core::{GridCoord, ShardPlan};
    use wsn_net::{DeploymentSpec, LinkModel, RadioModel};
    use wsn_runtime::PhysicalRuntime;
    use wsn_sim::SimTime;
    use wsn_topoquery::{BoundarySummary, DandcProgram, FieldSpec};

    fn small_query(side: u32, seed: u64) -> (Field, Vec<Exfiltrated<DandcMsg>>) {
        let field = wsn_bench::blob_field(side, seed);
        let deployment = DeploymentSpec::per_cell(side, 2).generate(seed);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let f2 = field.clone();
        let mut rt: PhysicalRuntime<DandcMsg> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            seed,
            move |c| f2.value(c),
        );
        assert!(rt.run_topology_emulation().complete);
        assert!(rt.run_binding().unique);
        rt.install_programs(move |_| Box::new(DandcProgram::new(side, THRESHOLD)));
        rt.run_application();
        (field, rt.take_exfiltrated())
    }

    #[test]
    fn real_answer_passes_and_planted_wrong_answers_fail() {
        let (field, exfil) = small_query(8, 3);
        let want = oracle(&field);
        assert!(want.regions > 0, "blob field must have regions");
        let got = answer_of(&exfil).expect("one complete answer");
        check_answer(&got, &want).expect("distributed answer matches the oracle");

        let mut wrong_count = got.clone();
        wrong_count.regions += 1;
        assert!(check_answer(&wrong_count, &want).is_err());
        let mut wrong_area = got.clone();
        wrong_area.areas[0] += 1;
        assert!(check_answer(&wrong_area, &want).is_err());
        // A different field's oracle is a planted wrong ground truth.
        let other = oracle(&Field::generate(FieldSpec::Uniform(10.0), 8, 1));
        assert!(check_answer(&got, &other).is_err());
    }

    #[test]
    fn malformed_exfiltrations_are_refused() {
        let (_, exfil) = small_query(4, 1);
        assert!(answer_of(&[]).is_err());
        let twice: Vec<_> = exfil.iter().chain(exfil.iter()).cloned().collect();
        assert!(answer_of(&twice).is_err());
        let partial = Exfiltrated {
            from: GridCoord::new(0, 0),
            at: SimTime::ZERO,
            payload: DandcMsg {
                sender: GridCoord::new(0, 0),
                level: 1,
                data: RegionSummary::Partial(vec![BoundarySummary::leaf(
                    GridCoord::new(0, 0),
                    true,
                )]),
            },
        };
        assert!(answer_of(&[partial]).is_err());
    }

    fn verdict(variant: Variant, depth: u8, cut: u8) -> Verdict {
        let side = 2u32.pow(u32::from(depth));
        let (qt, mapping, clean) = wsn_bench::lint::paper_deployment(depth);
        let program = match variant {
            Variant::Clean => clean,
            Variant::Leak => wsn_bench::lint::leak_mutated_figure4(depth),
        };
        let deploy = wsn_analyze::analyze_deployment(&qt, &mapping, &program);
        let plan = ShardPlan::new(side, cut);
        let (shard, sd) = analyze_shards(&program, &plan, ReachConfig::default());
        let (frame, fd) = analyze_frames(&program, side, ReachConfig::default());
        Verdict::from_passes(shard.is_some(), frame.is_some(), &[&deploy, &sd, &fd])
    }

    #[test]
    fn real_verdicts_pass_and_planted_wrong_verdicts_fail() {
        let clean = verdict(Variant::Clean, 2, 1);
        let leak = verdict(Variant::Leak, 2, 1);
        check_verdict(Variant::Clean, &clean).expect("clean program certifies");
        check_verdict(Variant::Leak, &leak).expect("leak is refused");
        // Swapped labels are planted wrong verdicts.
        assert!(check_verdict(Variant::Clean, &leak).is_err());
        assert!(check_verdict(Variant::Leak, &clean).is_err());
        // A clean verdict that lost a certificate or gained an error.
        let mut no_frame = clean.clone();
        no_frame.frame_cert = false;
        assert!(check_verdict(Variant::Clean, &no_frame).is_err());
        let mut with_error = clean.clone();
        with_error.errors.push(Code::DL001);
        assert!(check_verdict(Variant::Clean, &with_error).is_err());
        // A leak that slipped through with a certificate.
        let mut leak_certified = leak.clone();
        leak_certified.shard_cert = true;
        assert!(check_verdict(Variant::Leak, &leak_certified).is_err());
    }
}
