//! Manifest chunk keys are a compatibility surface: `--resume` compares the
//! key recorded in a checkpoint against the key the planner computes now.
//! `ChunkPlan::key_of` hashes each cell's instance once for its whole `k`
//! row; these tests pin that it still equals the per-task `task_key` fold
//! and the key values checkpoints already on disk carry.

use proptest::prelude::*;

use pobp_engine::{splitmix64, task_key, Algo};
use pobp_sweep::{ChunkPlan, SweepSpec};

/// The chunk key as a fold of every task's own [`task_key`].
fn folded_key(chunk: &ChunkPlan) -> u64 {
    let mut h = splitmix64(chunk.index as u64 ^ 0x6368_756e_6b30_3031);
    for t in &chunk.tasks() {
        h = splitmix64(h ^ task_key(t));
    }
    h
}

const ALGOS: [Algo; 4] = [Algo::Reduction, Algo::Combined, Algo::LsaCs, Algo::K0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn key_of_equals_the_per_task_fold(
        ns in proptest::collection::vec(1usize..24, 1..4),
        ks in proptest::collection::vec(0u32..6, 1..5),
        seeds in proptest::collection::vec(0u64..1000, 1..4),
        algo in 0usize..ALGOS.len(),
        machines in 1usize..3,
        exact_ref in AnyBool,
        chunk_cells in 1usize..5,
    ) {
        let spec = SweepSpec { ns, ks, seeds, algo: ALGOS[algo], machines, exact_ref, chunk_cells };
        for chunk in spec.chunks() {
            prop_assert_eq!(chunk.key_of(&chunk.tasks()), folded_key(&chunk));
            prop_assert_eq!(chunk.key(), folded_key(&chunk));
        }
    }
}

/// Keys an earlier planner wrote into manifests; a resume of one of those
/// checkpoints must compute the same values.
#[test]
fn chunk_keys_match_the_recorded_values() {
    let cases = [
        (
            SweepSpec {
                ns: vec![6, 8],
                ks: vec![0, 1, 2],
                seeds: vec![0, 1, 2],
                algo: Algo::Reduction,
                machines: 1,
                exact_ref: false,
                chunk_cells: 4,
            },
            vec![0x99c9_9cc8_ddba_a14b, 0xf248_b9b6_c7f5_851c],
        ),
        (
            SweepSpec {
                ns: vec![250, 40],
                ks: vec![1, 2, 4],
                seeds: vec![5, 9],
                algo: Algo::LsaCs,
                machines: 2,
                exact_ref: false,
                chunk_cells: 8,
            },
            vec![0x02e5_f169_e234_28e8],
        ),
        (
            SweepSpec {
                ns: vec![10],
                ks: vec![3],
                seeds: vec![1, 2, 3],
                algo: Algo::Combined,
                machines: 1,
                exact_ref: true,
                chunk_cells: 1,
            },
            vec![0x5f28_a6fe_561b_747f, 0xe187_3b87_2c90_71cd, 0x1c40_f15c_25dd_b9fa],
        ),
    ];
    for (spec, want) in cases {
        let got: Vec<u64> = spec.chunks().iter().map(ChunkPlan::key).collect();
        assert_eq!(got, want, "{}", spec.spec_string());
    }
}
