//! Differential property tests for the greedy `OPT_∞` reference: its
//! busy-period feasibility probes must accept exactly the jobs that full EDF
//! feasibility runs accept, so the returned schedule and miss list equal
//! those of the straightforward greedy below — on tie-heavy, zero-laxity,
//! sparse and overloaded instances, and with a dirty workspace.

use pobp_core::{Job, JobId, JobSet};
use pobp_instances::RandomWorkload;
use pobp_sched::{edf_schedule, greedy_unbounded, greedy_unbounded_ws, EdfOutcome, SolveWorkspace};
use proptest::prelude::*;

/// The oracle: accept in descending density order (ties by id) iff a full
/// EDF run over the accepted set stays feasible, then schedule the set.
fn greedy_oracle(jobs: &JobSet, ids: &[JobId]) -> EdfOutcome {
    let mut order = ids.to_vec();
    order.sort_by(|&a, &b| {
        jobs.job(b)
            .density()
            .partial_cmp(&jobs.job(a).density())
            .expect("finite densities")
            .then(a.cmp(&b))
    });
    let mut accepted: Vec<JobId> = Vec::new();
    for j in order {
        accepted.push(j);
        if !edf_schedule(jobs, &accepted, None).is_feasible() {
            accepted.pop();
        }
    }
    accepted.sort_unstable();
    edf_schedule(jobs, &accepted, None)
}

/// Instance regimes, picked by the first tuple field.
const TIES: u8 = 0;
const ZERO_LAXITY: u8 = 1;
const SPARSE: u8 = 2;
const OVERLOADED: u8 = 3;

/// A job set in one of the four regimes, plus the ids to schedule (all of
/// them, in reverse order on odd draws: the input order must not matter).
fn arb_case() -> impl Strategy<Value = (JobSet, Vec<JobId>)> {
    (
        0u8..4,
        0u8..2,
        proptest::collection::vec((0i64..1000, 1i64..9, 0i64..12, 1u32..10), 1..=24),
    )
        .prop_map(|(regime, reverse, specs)| {
            let jobs: JobSet = specs
                .into_iter()
                .map(|(r, p, slack, v)| match regime {
                    // Three release times, lengths 1–3, densities 1 or 2:
                    // equal releases and equal densities fall to the id order.
                    TIES => {
                        let (r, p) = ((r % 3) * 4, 1 + p % 3);
                        Job::new(r, r + p + slack % 6, p, (p * (1 + v as i64 % 2)) as f64)
                    }
                    // Two jobs in three must run exactly at their release.
                    ZERO_LAXITY => {
                        let (r, slack) = (r % 40, if v % 3 == 0 { slack } else { 0 });
                        Job::new(r, r + p + slack, p, v as f64)
                    }
                    // Releases spread over 1000 ticks: many busy periods.
                    SPARSE => Job::new(r, r + p + slack, p, v as f64),
                    // Everything released within 10 ticks: one busy period,
                    // far more work than fits.
                    OVERLOADED => {
                        let r = r % 10;
                        Job::new(r, r + p + slack, p, v as f64)
                    }
                    _ => unreachable!("regimes are 0..4"),
                })
                .collect();
            let mut ids: Vec<JobId> = jobs.ids().collect();
            if reverse == 1 {
                ids.reverse();
            }
            (jobs, ids)
        })
}

fn assert_same(got: &EdfOutcome, want: &EdfOutcome) {
    let g: Vec<_> = got.schedule.iter().collect();
    let w: Vec<_> = want.schedule.iter().collect();
    assert_eq!(g, w, "schedules differ");
    assert_eq!(got.missed, want.missed, "miss lists differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn greedy_matches_the_full_edf_oracle((jobs, ids) in arb_case()) {
        assert_same(&greedy_unbounded(&jobs, &ids), &greedy_oracle(&jobs, &ids));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn dirty_workspace_matches_the_oracle((a, a_ids) in arb_case(), (b, b_ids) in arb_case()) {
        let mut ws = SolveWorkspace::new();
        assert_same(&greedy_unbounded_ws(&a, &a_ids, &mut ws), &greedy_oracle(&a, &a_ids));
        assert_same(&greedy_unbounded_ws(&b, &b_ids, &mut ws), &greedy_oracle(&b, &b_ids));
    }
}

/// The engine's reference workload, at a size where busy periods chain.
#[test]
fn greedy_matches_the_oracle_on_the_standard_workload() {
    let mut ws = SolveWorkspace::new();
    for seed in 1..=3 {
        let jobs = RandomWorkload::standard(250).generate(seed);
        let ids: Vec<JobId> = jobs.ids().collect();
        assert_same(&greedy_unbounded_ws(&jobs, &ids, &mut ws), &greedy_oracle(&jobs, &ids));
    }
}

#[test]
#[should_panic(expected = "duplicate job ids")]
fn duplicate_ids_panic() {
    let jobs: JobSet = vec![Job::new(0, 10, 2, 1.0), Job::new(0, 10, 2, 5.0)].into_iter().collect();
    greedy_unbounded(&jobs, &[JobId(1), JobId(0), JobId(1)]);
}
