//! Replays one solve through the public stage functions, one span per
//! stage, in the order the engine runs them: the unbounded reference, the
//! bounded stage (laminarize → schedule forest → TM k-BAS → reconstruct for
//! `reduction`, `LSA_CS` for `lsa`), then the checks `engine::cert` makes
//! (`Schedule::verify_on`, `Schedule::verify`, `schedule_stats`). The
//! engine's own stage code is crate-private, so the benchmark calls the
//! same public functions itself and compares the values it gets with the
//! values the system under test returned.

use std::collections::HashMap;
use std::time::Instant;

use pobp_core::{schedule_stats, JobId, JobSet, Schedule};
use pobp_engine::Algo;
use pobp_forest::tm_ws;
use pobp_sched::{
    greedy_unbounded_ws, laminarize_ws, lsa_cs, reconstruct_ws, schedule_forest_ws, SolveWorkspace,
};

use crate::trace::Tracer;

/// The values a replayed solve produced and what its stages cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Replayed {
    /// Value of the bounded schedule.
    pub alg_value: f64,
    /// Value of the unbounded reference.
    pub ref_value: f64,
    /// Wall time of the whole replay (reference included when computed).
    pub stage_ns: u64,
    /// Wall time of the reference, when this replay computed it.
    pub ref_ns: Option<u64>,
}

/// Replays solves on one [`SolveWorkspace`], keeping the references it
/// computed by the caller's instance key — the replay's analogue of the
/// engine's reference cache.
#[derive(Default)]
pub struct Replayer {
    refs: HashMap<u64, (Schedule, f64)>,
    ws: SolveWorkspace,
}

impl Replayer {
    /// Forgets every stored reference (a new engine, a new cache).
    pub fn clear_refs(&mut self) {
        self.refs.clear();
    }

    /// Replays `algo` at budget `k` on `jobs` under request id `req`. A
    /// reference stored under `inst` is reused, as the engine's cache
    /// would; otherwise it is computed and stored.
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        jobs: &JobSet,
        inst: u64,
        algo: Algo,
        k: u32,
    ) -> Result<Replayed, String> {
        let started = Instant::now();
        let ids: Vec<JobId> = jobs.ids().collect();
        let mut ref_ns = None;
        if !self.refs.contains_key(&inst) {
            let t = Instant::now();
            let reference = tr.span("sched.reference", req, |_| {
                greedy_unbounded_ws(jobs, &ids, &mut self.ws)
            });
            ref_ns = Some(t.elapsed().as_nanos() as u64);
            let value = reference.schedule.value(jobs);
            self.refs.insert(inst, (reference.schedule, value));
        }
        let (reference, ref_value) = &self.refs[&inst];
        let schedule = match algo {
            Algo::Reduction => {
                let laminar = tr
                    .span("sched.laminarize", req, |_| {
                        laminarize_ws(jobs, reference, &mut self.ws)
                    })
                    .map_err(|e| format!("laminarize: the reference is infeasible: {e}"))?;
                let forest = tr.span("sched.forest", req, |_| {
                    schedule_forest_ws(jobs, &laminar, &mut self.ws)
                });
                let kbas = tr.span("forest.tm", req, |_| {
                    tm_ws(&forest.forest, k, &mut self.ws.forest)
                });
                tr.span("sched.reconstruct", req, |_| {
                    reconstruct_ws(jobs, &laminar, &forest, &kbas.keep, &mut self.ws)
                })
            }
            Algo::LsaCs => tr.span("sched.lsa_cs", req, |_| lsa_cs(jobs, &ids, k).schedule),
            other => {
                return Err(format!(
                    "the benchmark replays reduction and lsa, not {}",
                    other.name()
                ))
            }
        };
        let alg_value = tr.span("core.verify", req, |_| {
            schedule
                .verify_on(jobs, Some(k), 1)
                .map_err(|e| format!("bounded schedule: {e}"))?;
            reference
                .verify(jobs, None)
                .map_err(|e| format!("reference schedule: {e}"))?;
            Ok::<f64, String>(schedule_stats(jobs, &schedule).value)
        })?;
        Ok(Replayed {
            alg_value,
            ref_value: *ref_value,
            stage_ns: started.elapsed().as_nanos() as u64,
            ref_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_engine::{run_batch, EngineConfig, SolveTask, TaskResult};
    use pobp_instances::RandomWorkload;

    #[test]
    fn replay_matches_the_engine_and_reuses_references() {
        let jobs = RandomWorkload::standard(40).generate(5);
        let mut tr = Tracer::new(Instant::now(), true);
        let mut replayer = Replayer::default();
        for (algo, k) in [(Algo::Reduction, 1), (Algo::Reduction, 2), (Algo::LsaCs, 2)] {
            let got = replayer.replay(&mut tr, 1, &jobs, 9, algo, k).unwrap();
            let batch = run_batch(
                &[SolveTask::new(jobs.clone(), k, algo)],
                EngineConfig::default(),
            );
            let TaskResult::Done(out) = &batch.reports[0].result else {
                panic!("engine failed")
            };
            assert_eq!(
                (got.alg_value, got.ref_value),
                (out.alg_value, out.ref_value)
            );
        }
        assert_eq!(
            tr.busy()["sched.reference"].calls,
            1,
            "one reference per instance"
        );
        assert_eq!(tr.busy()["forest.tm"].calls, 2);
        assert_eq!(tr.busy()["sched.lsa_cs"].calls, 1);
    }
}
