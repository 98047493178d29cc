//! Non-paper baselines used by the benches and as `OPT_∞` surrogates on
//! instances too large for the exact branch-and-bound.

use crate::edf::{edf_core, edf_schedule, EdfOutcome};
use crate::workspace::{GreedyScratch, SolveWorkspace};
use pobp_core::{obs_count, JobId, JobSet, Schedule, Time};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;

/// Greedy `∞`-preemptive acceptance: consider jobs in descending density
/// order, accept a job iff the accepted set stays EDF-feasible. Returns the
/// accepted set's EDF schedule.
///
/// Not an approximation with a proven factor (that would be Lawler's DP);
/// on the structured instances of this repository it is exact whenever the
/// full set is feasible, which is what the large-scale experiments use.
///
/// # Panics
/// Panics on duplicate or out-of-range ids.
pub fn greedy_unbounded(jobs: &JobSet, ids: &[JobId]) -> EdfOutcome {
    greedy_unbounded_ws(jobs, ids, &mut SolveWorkspace::new())
}

/// [`greedy_unbounded`] with caller-provided scratch memory.
///
/// Each acceptance test is an exact feasibility probe that simulates only
/// the busy period the candidate lands in and emits no segments (see
/// `docs/algorithms.md`, property 1); the schedule is built once, by a
/// single EDF run over the accepted set. Probes cost about 20 heap pushes
/// per job on the random workloads, so the reference is near-linear where
/// `n` full EDF probes were quadratic.
pub fn greedy_unbounded_ws(jobs: &JobSet, ids: &[JobId], ws: &mut SolveWorkspace) -> EdfOutcome {
    let gs = &mut ws.greedy;
    gs.begin(jobs.len());
    gs.order.extend_from_slice(ids);
    gs.order.sort_by(|&a, &b| {
        jobs.job(b)
            .density()
            .partial_cmp(&jobs.job(a).density())
            .expect("finite densities")
            .then(a.cmp(&b))
    });
    // Equal ids sort next to each other.
    assert!(gs.order.windows(2).all(|w| w[0] != w[1]), "duplicate job ids in greedy subset");
    for i in 0..gs.order.len() {
        let x = gs.order[i];
        let r = jobs.job(x).release;
        // `x`'s slot in release order, and the release `s` opening the busy
        // period that contains (or last precedes) `r`; nothing is pending
        // at `s`, with or without `x`.
        let slot = gs.accepted.partition_point(|&e| e < (r, x));
        let s = match slot {
            0 => r,
            _ => gs.period_start[gs.accepted[slot - 1].1 .0],
        };
        let from = gs.accepted.partition_point(|&(rel, _)| rel < s);
        if probe(jobs, gs, x, s, from) {
            gs.accepted.insert(slot, (r, x));
            update_periods(jobs, gs, s, from, slot);
        }
    }
    gs.order.clear();
    gs.order.extend(gs.accepted.iter().map(|&(_, j)| j));
    gs.order.sort_unstable();
    edf_core(jobs, &gs.order, None, &mut ws.edf)
}

/// Whether the accepted set plus `x` is feasible, given that nothing is
/// pending at `s ≤ r_x` and `accepted[from..]` are the accepted jobs
/// released at or after `s`. Simulates EDF from `s` until the first instant
/// after `r_x` with nothing pending: a deadline miss before then is an
/// exact certificate of infeasibility, and from then on the schedule
/// coincides with the (feasible) accepted set's own.
fn probe(jobs: &JobSet, gs: &mut GreedyScratch, x: JobId, s: Time, from: usize) -> bool {
    obs_count!("sched.greedy.probes");
    let GreedyScratch { accepted, heap, .. } = gs;
    heap.clear();
    let xj = jobs.job(x);
    let mut x_pending = true;
    let mut next = from;
    let mut t = s;
    loop {
        while next < accepted.len() && accepted[next].0 <= t {
            let j = jobs.job(accepted[next].1);
            obs_count!("sched.greedy.probe_pushes");
            heap.push(Reverse((j.deadline, j.length)));
            next += 1;
        }
        if x_pending && xj.release <= t {
            obs_count!("sched.greedy.probe_pushes");
            heap.push(Reverse((xj.deadline, xj.length)));
            x_pending = false;
        }
        let mut next_release = accepted.get(next).map_or(Time::MAX, |&(rel, _)| rel);
        if x_pending {
            next_release = next_release.min(xj.release);
        }
        let Some(mut top) = heap.peek_mut() else {
            if !x_pending {
                return true;
            }
            t = next_release;
            continue;
        };
        let Reverse((deadline, rem)) = *top;
        if t + rem > deadline {
            return false;
        }
        let run_until = (t + rem).min(next_release);
        top.0 .1 = rem - (run_until - t);
        t = run_until;
        if top.0 .1 == 0 {
            PeekMut::pop(top);
        }
    }
}

/// Recomputes busy-period starts after `accepted[slot]` was inserted, from
/// `accepted[from]` (released at `s`, with nothing pending at `s`). Stops at
/// the first job after the insert that still opens a period: adding work
/// only merges periods, so every later start is unchanged.
fn update_periods(jobs: &JobSet, gs: &mut GreedyScratch, s: Time, from: usize, slot: usize) {
    let GreedyScratch { accepted, period_start, .. } = gs;
    let (mut start, mut end) = (s, s);
    for (i, &(rel, j)) in accepted.iter().enumerate().skip(from) {
        if rel >= end {
            if i > slot {
                break;
            }
            start = rel;
            end = rel;
        }
        end += jobs.job(j).length;
        period_start[j.0] = start;
    }
}

/// Baseline: run unbounded EDF, then simply *drop* every job that ended up
/// with more than `k + 1` segments. Feasible (removing jobs preserves
/// feasibility) but can lose almost everything — the benches show the
/// reduction of §4.2 beating it on nested workloads.
pub fn edf_truncate(jobs: &JobSet, ids: &[JobId], k: u32) -> Schedule {
    let out = edf_schedule(jobs, ids, None);
    let keep: Vec<JobId> = out
        .schedule
        .scheduled_ids()
        .filter(|&j| out.schedule.preemptions(j) <= k as usize)
        .collect();
    out.schedule.restricted_to(&keep)
}

/// Baseline: greedy non-preemptive by *value* (not density) without length
/// classes — the strawman that Algorithm 2's density order and
/// classify-and-select improve upon (ablation E10).
pub fn greedy_nonpreemptive_by_value(jobs: &JobSet, ids: &[JobId]) -> Schedule {
    let mut order = ids.to_vec();
    order.sort_by(|&a, &b| {
        jobs.job(b)
            .value
            .partial_cmp(&jobs.job(a).value)
            .expect("finite values")
            .then(a.cmp(&b))
    });
    let mut timeline = pobp_core::Timeline::new();
    let mut schedule = Schedule::new();
    for j in order {
        let job = jobs.job(j);
        let idle = timeline.idle_within(&job.window());
        if let Some(slot) = idle.leftmost_fit(job.length, job.release) {
            timeline.allocate_one(slot).expect("idle slot was busy");
            schedule.assign_single(j, pobp_core::SegmentSet::singleton(slot));
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_core::Job;

    fn ids_of(n: usize) -> Vec<JobId> {
        (0..n).map(JobId).collect()
    }

    #[test]
    fn greedy_unbounded_accepts_feasible_set() {
        let jobs: JobSet = vec![
            Job::new(0, 10, 3, 1.0),
            Job::new(0, 10, 3, 2.0),
            Job::new(0, 10, 3, 3.0),
        ]
        .into_iter()
        .collect();
        let out = greedy_unbounded(&jobs, &ids_of(3));
        assert!(out.is_feasible());
        assert_eq!(out.schedule.len(), 3);
    }

    #[test]
    fn greedy_unbounded_rejects_overload_by_density() {
        let jobs: JobSet = vec![
            Job::new(0, 4, 4, 8.0), // density 2
            Job::new(0, 4, 4, 4.0), // density 1 — rejected
        ]
        .into_iter()
        .collect();
        let out = greedy_unbounded(&jobs, &ids_of(2));
        assert_eq!(out.schedule.len(), 1);
        assert!(out.schedule.segments(JobId(0)).is_some());
    }

    #[test]
    fn edf_truncate_enforces_bound() {
        // Deeply nested preemptions: the outer job accumulates segments.
        let jobs: JobSet = vec![
            Job::new(0, 30, 10, 1.0),
            Job::new(2, 8, 2, 1.0),
            Job::new(10, 16, 2, 1.0),
            Job::new(18, 24, 2, 1.0),
        ]
        .into_iter()
        .collect();
        let s = edf_truncate(&jobs, &ids_of(4), 3);
        s.verify(&jobs, Some(3)).unwrap();
        assert_eq!(s.len(), 4); // 3 preemptions allowed → outer job survives
        let s1 = edf_truncate(&jobs, &ids_of(4), 1);
        s1.verify(&jobs, Some(1)).unwrap();
        assert_eq!(s1.len(), 3); // outer job dropped
    }

    #[test]
    fn greedy_by_value_is_en_bloc() {
        let jobs: JobSet = vec![Job::new(0, 10, 4, 1.0), Job::new(0, 10, 4, 5.0)]
            .into_iter()
            .collect();
        let s = greedy_nonpreemptive_by_value(&jobs, &ids_of(2));
        s.verify(&jobs, Some(0)).unwrap();
        assert_eq!(s.len(), 2);
        // The valuable job got the leftmost slot.
        assert_eq!(
            s.segments(JobId(1)).unwrap().segments(),
            &[pobp_core::Interval::new(0, 4)]
        );
    }
}
