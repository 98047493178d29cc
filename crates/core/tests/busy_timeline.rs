//! Differential test of the busy timeline: `Schedule::busy` and the
//! busy-derived fields of `schedule_stats` against the straightforward
//! definition — a fold of `SegmentSet::union` over every job on the
//! machine — inlined here as the oracle. Schedules need not be feasible:
//! segments of different jobs may touch or overlap, machines may be
//! skipped (jobs on machines 0 and 3 only), and the schedule may be empty.

use pobp_core::{
    schedule_stats, Interval, Job, JobId, JobSet, MachineId, Schedule, SegmentSet, Time,
};
use proptest::prelude::*;

/// Machines jobs are drawn onto: unused machines sit between and below them.
const MACHINES: [MachineId; 4] = [0, 3, 3, 7];
/// Every machine the checks probe, used or not.
const PROBE: std::ops::RangeInclusive<MachineId> = 0..=8;

/// One job's draw: machine slot, then `(start, len)` pieces.
type JobDraw = (usize, Vec<(Time, Time)>);

fn arb_jobs() -> impl Strategy<Value = (bool, Vec<JobDraw>)> {
    let piece = (0i64..60, 1i64..8);
    let job = (0usize..MACHINES.len(), proptest::collection::vec(piece, 1..5));
    (AnyBool, proptest::collection::vec(job, 0..14))
}

/// Builds the job set (wide windows; only ids and values matter here) and
/// the schedule. With `single`, each job keeps only its first piece.
fn build(single: bool, draws: &[JobDraw]) -> (JobSet, Schedule) {
    let mut jobs = JobSet::new();
    let mut schedule = Schedule::new();
    for (i, (slot, pieces)) in draws.iter().enumerate() {
        let take = if single { 1 } else { pieces.len() };
        let segs = SegmentSet::from_intervals(
            pieces[..take].iter().map(|&(s, len)| Interval::with_len(s, len)),
        );
        jobs.push(Job::new(0, 100, segs.total_len().max(1), (i + 1) as f64));
        // Every third job stays rejected, so unscheduled ids are mixed in.
        if i % 3 != 2 {
            schedule.assign(JobId(i), MACHINES[*slot], segs);
        }
    }
    (jobs, schedule)
}

/// The oracle: union of every job's segments on `machine`, one at a time.
fn oracle_busy(schedule: &Schedule, machine: MachineId) -> SegmentSet {
    let mut acc = SegmentSet::new();
    for (_, a) in schedule.iter() {
        if a.machine == machine {
            acc = acc.union(&a.segs);
        }
    }
    acc
}

/// The oracle's `(machine_busy, utilization, total_preemptions,
/// preemption_histogram)`, computed machine by machine and id by id.
fn oracle_stats(schedule: &Schedule) -> (Vec<(MachineId, Time)>, f64, usize, Vec<usize>) {
    let mut histogram = vec![0usize; schedule.max_preemptions() + 1];
    let mut total = 0usize;
    for id in schedule.scheduled_ids() {
        let p = schedule.preemptions(id);
        histogram[p] += 1;
        total += p;
    }
    if schedule.is_empty() {
        histogram.clear();
    }
    let machines = schedule.machines();
    let mut machine_busy = Vec::new();
    let mut util_sum = 0.0;
    for &m in &machines {
        let busy = oracle_busy(schedule, m);
        let len = busy.total_len();
        if let Some(span) = busy.span() {
            util_sum += len as f64 / span.len() as f64;
        }
        machine_busy.push((m, len));
    }
    let utilization = if machines.is_empty() { 0.0 } else { util_sum / machines.len() as f64 };
    (machine_busy, utilization, total, histogram)
}

fn check(jobs: &JobSet, schedule: &Schedule) -> Result<(), TestCaseError> {
    for m in PROBE {
        prop_assert_eq!(schedule.busy(m), oracle_busy(schedule, m), "machine {}", m);
    }
    let st = schedule_stats(jobs, schedule);
    let (machine_busy, utilization, total, histogram) = oracle_stats(schedule);
    prop_assert_eq!(st.machine_busy, machine_busy);
    prop_assert_eq!(st.utilization.to_bits(), utilization.to_bits(), "utilization");
    prop_assert_eq!(st.total_preemptions, total);
    prop_assert_eq!(st.preemption_histogram, histogram);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn busy_and_stats_match_the_fold_of_unions((single, draws) in arb_jobs()) {
        let (jobs, schedule) = build(single, &draws);
        check(&jobs, &schedule)?;
    }
}

#[test]
fn empty_schedule_matches_the_oracle() {
    let (jobs, schedule) = build(false, &[(0, vec![(0, 4)]), (1, vec![(2, 3)])]);
    let empty = Schedule::new();
    check(&jobs, &empty).unwrap();
    assert!(empty.busy(0).is_empty());
    assert!(schedule_stats(&jobs, &empty).preemption_histogram.is_empty());
    check(&jobs, &schedule).unwrap();
}

#[test]
fn touching_and_overlapping_jobs_coalesce_per_machine() {
    // Machine 0: [0,4) and [4,6) touch, [5,9) overlaps them; machine 3
    // holds [2,3) and [10,12) with machines 1 and 2 unused in between.
    // Job 2 is rejected, so its [20,21) is not busy time.
    let draws = vec![
        (0, vec![(0, 4)]),
        (0, vec![(4, 2)]),
        (0, vec![(20, 1)]),
        (0, vec![(5, 4)]),
        (1, vec![(2, 1), (10, 2)]),
    ];
    let (jobs, schedule) = build(false, &draws);
    assert_eq!(schedule.busy(0), SegmentSet::singleton(Interval::new(0, 9)));
    let m3 = SegmentSet::from_intervals([Interval::new(2, 3), Interval::new(10, 12)]);
    assert_eq!(schedule.busy(3), m3);
    assert!(schedule.busy(1).is_empty());
    check(&jobs, &schedule).unwrap();
}
