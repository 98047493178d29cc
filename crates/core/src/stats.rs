//! Schedule statistics: preemption histograms, utilization, per-machine
//! load. Used by the experiment harness and the examples to report the
//! quantities the paper's motivation cares about (context-switch counts).

use crate::job::{JobSet, Value};
use crate::schedule::{MachineId, Schedule};
use crate::time::{Interval, Time};

/// Aggregate statistics of a schedule against its job set.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleStats {
    /// Number of scheduled jobs.
    pub scheduled: usize,
    /// Number of rejected jobs (in the job set but not the schedule).
    pub rejected: usize,
    /// Total value of the scheduled jobs.
    pub value: Value,
    /// Fraction of the job set's total value retained (1.0 when all of it).
    pub value_fraction: f64,
    /// Total preemptions across jobs (`Σ (segments − 1)`), i.e. the number
    /// of extra context switches the schedule pays vs running each job
    /// en bloc.
    pub total_preemptions: usize,
    /// `histogram[p]` = number of scheduled jobs preempted exactly `p`
    /// times.
    pub preemption_histogram: Vec<usize>,
    /// Per-machine busy time.
    pub machine_busy: Vec<(MachineId, Time)>,
    /// Machine utilization within the schedule's own span (busy / span),
    /// averaged over used machines. 0 for an empty schedule.
    pub utilization: f64,
}

/// Computes [`ScheduleStats`].
pub fn schedule_stats(jobs: &JobSet, schedule: &Schedule) -> ScheduleStats {
    let scheduled = schedule.len();
    let rejected = jobs.len().saturating_sub(scheduled);
    let value = schedule.value(jobs);
    let total_value = jobs.total_value();
    let value_fraction = if total_value > 0.0 { value / total_value } else { 0.0 };

    let mut histogram: Vec<usize> = Vec::new();
    let mut total_preemptions = 0usize;
    for (_, a) in schedule.iter() {
        let p = a.segs.count().saturating_sub(1);
        if histogram.len() <= p {
            histogram.resize(p + 1, 0);
        }
        histogram[p] += 1;
        total_preemptions += p;
    }

    let mut machine_busy = Vec::new();
    let mut util_sum = 0.0;
    let machines = schedule.machines();
    for &m in &machines {
        let busy = schedule.busy(m);
        let len = busy.total_len();
        if let Some(span) = busy.span() {
            util_sum += len as f64 / span.len() as f64;
        }
        machine_busy.push((m, len));
    }
    let utilization = if machines.is_empty() { 0.0 } else { util_sum / machines.len() as f64 };

    ScheduleStats {
        scheduled,
        rejected,
        value,
        value_fraction,
        total_preemptions,
        preemption_histogram: histogram,
        machine_busy,
        utilization,
    }
}

/// The busy fraction of `window` on `machine` — the `b0`-load of
/// Lemma 4.12, measurable for experiment assertions.
pub fn window_load(schedule: &Schedule, machine: MachineId, window: &Interval) -> f64 {
    if window.is_empty() {
        return 0.0;
    }
    let busy = schedule.busy(machine).clip(window).total_len();
    busy as f64 / window.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobId};
    use crate::segs::SegmentSet;

    fn setup() -> (JobSet, Schedule) {
        let jobs: JobSet = vec![
            Job::new(0, 10, 4, 4.0),
            Job::new(2, 8, 3, 3.0),
            Job::new(0, 50, 5, 3.0), // rejected
        ]
        .into_iter()
        .collect();
        let mut s = Schedule::new();
        s.assign_single(
            JobId(0),
            SegmentSet::from_intervals([Interval::new(0, 2), Interval::new(5, 7)]),
        );
        s.assign_single(JobId(1), SegmentSet::from_intervals([Interval::new(2, 5)]));
        (jobs, s)
    }

    #[test]
    fn counts_and_values() {
        let (jobs, s) = setup();
        let st = schedule_stats(&jobs, &s);
        assert_eq!(st.scheduled, 2);
        assert_eq!(st.rejected, 1);
        assert_eq!(st.value, 7.0);
        assert!((st.value_fraction - 0.7).abs() < 1e-12);
        assert_eq!(st.total_preemptions, 1);
        assert_eq!(st.preemption_histogram, vec![1, 1]); // one 0-preempt, one 1-preempt
    }

    #[test]
    fn machine_busy_and_utilization() {
        let (jobs, s) = setup();
        let st = schedule_stats(&jobs, &s);
        assert_eq!(st.machine_busy, vec![(0, 7)]);
        assert_eq!(st.utilization, 1.0); // busy [0,7) is contiguous
    }

    #[test]
    fn empty_schedule() {
        let (jobs, _) = setup();
        let st = schedule_stats(&jobs, &Schedule::new());
        assert_eq!(st.scheduled, 0);
        assert_eq!(st.rejected, 3);
        assert_eq!(st.value, 0.0);
        assert_eq!(st.utilization, 0.0);
        assert!(st.preemption_histogram.is_empty());
    }

    #[test]
    fn multi_machine_busy() {
        let jobs: JobSet = vec![Job::new(0, 10, 4, 1.0), Job::new(0, 10, 2, 1.0)]
            .into_iter()
            .collect();
        let mut s = Schedule::new();
        s.assign(JobId(0), 0, SegmentSet::singleton(Interval::new(0, 4)));
        s.assign(JobId(1), 2, SegmentSet::singleton(Interval::new(4, 6)));
        let st = schedule_stats(&jobs, &s);
        assert_eq!(st.machine_busy, vec![(0, 4), (2, 2)]);
        assert_eq!(st.value_fraction, 1.0);
    }

    #[test]
    fn window_load_matches_lemma_4_12_quantity() {
        let (_, s) = setup();
        assert_eq!(window_load(&s, 0, &Interval::new(0, 7)), 1.0);
        assert_eq!(window_load(&s, 0, &Interval::new(0, 14)), 0.5);
        assert_eq!(window_load(&s, 0, &Interval::new(7, 14)), 0.0);
        assert_eq!(window_load(&s, 0, &Interval::new(3, 3)), 0.0);
        assert_eq!(window_load(&s, 1, &Interval::new(0, 7)), 0.0);
    }
}
