//! Content-addressed in-memory result caching.
//!
//! Grid sweeps revisit the same instance many times — every `k` of a
//! `(n, seed) × k` grid shares the instance, and the expensive side of most
//! tasks is the unbounded reference (`OPT_∞` exact branch-and-bound, or the
//! greedy EDF baseline), which does not depend on `k` at all. The cache
//! therefore has two layers, both keyed by a content hash of the instance
//! (not by task identity):
//!
//! * the **reference layer** maps `(instance_hash, exact_ref)` to the
//!   shared unbounded reference solution, so a sweep over `k ∈ {1, 2, 4, 8}`
//!   pays for `OPT_∞` once;
//! * the **result layer** maps the full task key
//!   `(instance_hash, k, machines, algo, exact_ref)` to the finished
//!   [`CachedResult`] — the [`SolveOutput`] *plus* the schedule it was
//!   derived from and the effective `k`, so a cache hit can be re-certified
//!   at the engine's trust boundary ([`crate::cert`]) instead of trusted.
//!
//! Caching never changes *what* a task returns — solvers are pure, so a
//! cached output is identical to a recomputed one — only what it costs.
//! Cache-hit accounting is reported in
//! [`EngineStats`](crate::pool::EngineStats) and the `engine.cache.*`
//! counters, never in per-task output (see the determinism contract in
//! `docs/engine.md`).
//!
//! The reference layer is **single-flight**: each `(instance, exact_ref)`
//! key owns one [`OnceLock`] cell, and [`ResultCache::reference`] computes
//! under it. The first asker computes; a concurrent asker blocks until that
//! computation lands and then shares it, so a batch computes each distinct
//! reference exactly once at any thread count. A computation that panics
//! leaves its cell empty, and the next asker (the retry) computes it.
//!
//! With the `chaos` feature an armed [`FaultPlan`](crate::chaos::FaultPlan)
//! can corrupt entries **at store time**, decided by the entry key: the
//! reference layer corrupts inside the cell's initialiser, so every
//! consumer of a poisoned entry (including the worker that computed it)
//! observes the same corrupt bytes, keeping chaos runs deterministic.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use pobp_core::{trace_event, JobSet, Schedule};

use crate::task::{Algo, SolveOutput, SolveTask};

/// FNV-1a content hash of a job set: every job's release, deadline, length,
/// and value bits, in id order. Two `JobSet`s hash equal iff they contain
/// the same jobs in the same order.
pub fn instance_hash(jobs: &JobSet) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(jobs.len() as u64);
    for (_, j) in jobs.iter() {
        mix(j.release as u64);
        mix(j.deadline as u64);
        mix(j.length as u64);
        mix(j.value.to_bits());
    }
    h
}

/// [`instance_hash`] of every task's instance, in task order. A task whose
/// instance is bitwise equal to the previous task's reuses its hash, so a
/// grid that lays each instance's `k` row out adjacently (as
/// [`GridSpec`](crate::GridSpec) and the sweep planner do) hashes every
/// instance once.
pub fn instance_hashes(tasks: &[SolveTask]) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(tasks.len());
    for (i, t) in tasks.iter().enumerate() {
        let h = match i.checked_sub(1) {
            Some(p) if same_bits(&tasks[p].instance, &t.instance) => out[p],
            _ => instance_hash(&t.instance),
        };
        out.push(h);
    }
    out
}

/// Whether two job sets hold the same bits in every field that
/// [`instance_hash`] reads, so that they hash equal.
fn same_bits(a: &JobSet, b: &JobSet) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((_, x), (_, y))| {
            (x.release, x.deadline, x.length, x.value.to_bits())
                == (y.release, y.deadline, y.length, y.value.to_bits())
        })
}

/// `splitmix64` finalizer — the standard 64-bit avalanche mix. Shared by
/// the chaos layer's injection decisions and the sweep planner's chunk
/// keys, so both derive from one pinned bit stream.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The per-task content key: the instance content hash mixed with the
/// task's solving parameters. Content-addressed like the cache, so
/// duplicate tasks draw identical keys (chaos needs that for report
/// determinism) while distinct grid cells draw independently. The sweep
/// planner folds these keys into its chunk digests, which is what makes a
/// `--resume` able to detect a changed grid spec.
pub fn task_key(task: &SolveTask) -> u64 {
    task_key_with_hash(instance_hash(&task.instance), task)
}

/// [`task_key`] for a task whose [`instance_hash`] is already known
/// (`inst`), so a batch hashes each instance once instead of once per task.
pub fn task_key_with_hash(inst: u64, task: &SolveTask) -> u64 {
    let mut h = inst;
    h ^= splitmix64(task.k as u64);
    h = h.rotate_left(17) ^ splitmix64(task.machines as u64);
    h = h.rotate_left(17) ^ splitmix64(task.algo.name().len() as u64 ^ (task.algo as u64) << 8);
    h.rotate_left(17) ^ splitmix64(task.exact_ref as u64)
}

/// The shared unbounded reference of one instance: the `∞`-preemptive
/// schedule (exact or greedy) and its value.
#[derive(Clone, Debug)]
pub struct RefSolution {
    /// The reference schedule.
    pub schedule: Schedule,
    /// Its value. For the exact branch this is `OPT_∞`; for the greedy
    /// branch it is the baseline's value (a lower bound on `OPT_∞`).
    pub value: f64,
}

/// A result-layer entry: the output plus the evidence needed to re-certify
/// it on every hit — the schedule it was derived from and the effective
/// preemption budget it was verified against.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// The finished output.
    pub output: SolveOutput,
    /// The schedule behind `output` (shared, the schedule can be large).
    pub schedule: Arc<Schedule>,
    /// The `k` the schedule is held to (`0` for `Algo::K0`, else the task's).
    pub eff_k: u32,
}

/// Full task key for the result layer.
type ResultKey = (u64, u32, usize, Algo, bool);

/// One reference-layer cell: empty until its first asker's computation
/// lands. Shared by `Arc` so askers wait on it outside the map's lock.
type RefSlot = Arc<OnceLock<Arc<RefSolution>>>;

/// The two-layer cache. Cheap to share: clone the [`Arc`] handle.
#[derive(Debug, Default)]
pub struct ResultCache {
    refs: Mutex<HashMap<(u64, bool), RefSlot>>,
    results: Mutex<HashMap<ResultKey, CachedResult>>,
    #[cfg(feature = "chaos")]
    chaos: Mutex<Option<Arc<crate::chaos::FaultPlan>>>,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Arms (or disarms) the fault plan consulted by the corrupt-at-put
    /// sites. Set by [`Engine::with_chaos`](crate::pool::Engine::with_chaos).
    #[cfg(feature = "chaos")]
    pub fn set_chaos(&self, plan: Option<Arc<crate::chaos::FaultPlan>>) {
        *self.chaos.lock().unwrap() = plan;
    }

    /// The reference of instance `inst` (exact or greedy per `exact`),
    /// computed by `compute` unless the layer already holds it. Returns the
    /// shared solution and whether it was a hit: `false` only for the asker
    /// whose `compute` ran. An asker that arrives while another computes
    /// the same key blocks until that computation lands, and counts as a
    /// hit. If `compute` panics the cell stays empty and the next asker
    /// computes.
    pub fn reference(
        &self,
        inst: u64,
        exact: bool,
        compute: impl FnOnce() -> RefSolution,
    ) -> (Arc<RefSolution>, bool) {
        let cell = self.refs.lock().unwrap().entry((inst, exact)).or_default().clone();
        let mut computed = false;
        let sol = cell.get_or_init(|| {
            computed = true;
            #[allow(unused_mut)] // only the chaos build corrupts it
            let mut sol = compute();
            #[cfg(feature = "chaos")]
            if let Some(plan) = self.chaos.lock().unwrap().as_ref() {
                plan.corrupt_ref(inst ^ exact as u64, &mut sol);
            }
            // Timing-class: which task of an instance stores its reference
            // depends on scheduling order.
            trace_event!(timing "cache.ref_store");
            Arc::new(sol)
        });
        (sol.clone(), !computed)
    }

    /// Looks up the result layer by the full task key.
    pub fn get_result(
        &self,
        inst: u64,
        k: u32,
        machines: usize,
        algo: Algo,
        exact: bool,
    ) -> Option<CachedResult> {
        self.results.lock().unwrap().get(&(inst, k, machines, algo, exact)).cloned()
    }

    /// Stores into the result layer. The entry carries its schedule so
    /// every later hit is re-certified, not trusted (see [`crate::cert`]).
    pub fn put_result(
        &self,
        inst: u64,
        k: u32,
        machines: usize,
        algo: Algo,
        exact: bool,
        entry: CachedResult,
    ) {
        #[cfg(feature = "chaos")]
        let entry = {
            let mut entry = entry;
            if let Some(plan) = self.chaos.lock().unwrap().as_ref() {
                plan.corrupt_result(inst ^ splitmix_key(k, machines, algo, exact), &mut entry.output);
            }
            entry
        };
        trace_event!(timing "cache.result_store");
        self.results.lock().unwrap().insert((inst, k, machines, algo, exact), entry);
    }

    /// Number of entries across both layers (for reporting). A reference
    /// cell whose computation has not landed is not an entry.
    pub fn len(&self) -> usize {
        let refs = self.refs.lock().unwrap().values().filter(|c| c.get().is_some()).count();
        refs + self.results.lock().unwrap().len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Mixes the non-instance parts of a result key into the chaos decision
/// key, so distinct `(k, machines, algo, exact)` cells of one instance draw
/// corruption independently.
#[cfg(feature = "chaos")]
fn splitmix_key(k: u32, machines: usize, algo: Algo, exact: bool) -> u64 {
    let packed = (k as u64) ^ ((machines as u64) << 20) ^ ((algo as u64) << 50) ^ ((exact as u64) << 60);
    packed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pobp_core::Job;

    fn inst(v: f64) -> JobSet {
        vec![Job::new(0, 10, 3, v), Job::new(1, 8, 2, 1.0)].into_iter().collect()
    }

    #[test]
    fn hash_is_content_addressed() {
        assert_eq!(instance_hash(&inst(2.0)), instance_hash(&inst(2.0)));
        assert_ne!(instance_hash(&inst(2.0)), instance_hash(&inst(3.0)));
        // Order matters: the hash addresses the JobSet, not the multiset.
        let a: JobSet = vec![Job::new(0, 10, 3, 2.0), Job::new(1, 8, 2, 1.0)]
            .into_iter()
            .collect();
        let b: JobSet = vec![Job::new(1, 8, 2, 1.0), Job::new(0, 10, 3, 2.0)]
            .into_iter()
            .collect();
        assert_ne!(instance_hash(&a), instance_hash(&b));
    }

    #[test]
    fn batch_hashes_reuse_equal_neighbours_and_match_per_task_hashes() {
        let task = |v: f64| SolveTask::new(inst(v), 1, Algo::Reduction);
        // Equal neighbours, a change, and a repeat after a gap.
        let tasks = [task(2.0), task(2.0), task(3.0), task(2.0), task(2.0)];
        let want: Vec<u64> = tasks.iter().map(|t| instance_hash(&t.instance)).collect();
        assert_eq!(instance_hashes(&tasks), want);
        assert_ne!(want[1], want[2]);
        assert!(instance_hashes(&[]).is_empty());
    }

    fn sol(value: f64) -> RefSolution {
        RefSolution { schedule: Schedule::new(), value }
    }

    #[test]
    fn ref_layer_computes_once_across_concurrent_askers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        const ASKERS: usize = 8;
        let c = ResultCache::new();
        let runs = AtomicUsize::new(0);
        let start = Barrier::new(ASKERS);
        let got: Vec<(Arc<RefSolution>, bool)> = std::thread::scope(|s| {
            let askers: Vec<_> = (0..ASKERS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        c.reference(7, true, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Long enough that the other askers arrive
                            // while it runs.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            sol(1.0)
                        })
                    })
                })
                .collect();
            askers.into_iter().map(|a| a.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the closure ran once");
        assert_eq!(got.iter().filter(|(_, hit)| !hit).count(), 1, "one asker computed");
        assert!(got.iter().all(|(r, _)| Arc::ptr_eq(r, &got[0].0)), "one shared Arc");
        assert_eq!(got[0].0.value, 1.0);
        // The other layer key is its own cell.
        let (other, hit) = c.reference(7, false, || sol(2.0));
        assert_eq!((other.value, hit), (2.0, false));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn a_panicking_computation_leaves_the_cell_for_the_next_asker() {
        let c = ResultCache::new();
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.reference(9, false, || panic!("reference failed"))
        }));
        assert!(boom.is_err());
        assert!(c.is_empty(), "a failed computation stores nothing");
        let (retry, hit) = c.reference(9, false, || sol(3.0));
        assert_eq!((retry.value, hit), (3.0, false), "the retry computes");
        let (again, hit) = c.reference(9, false, || unreachable!("already stored"));
        assert!(hit && Arc::ptr_eq(&retry, &again));
    }
}
