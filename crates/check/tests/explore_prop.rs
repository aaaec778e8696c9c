//! Property bridge: randomized shapes and seeds through the explorer.
//!
//! Debug-build budgets are deliberately small; the deep sweep (1000+
//! distinct schedules per variant, exhaustive cubes) runs in release via
//! `cargo run --release -p fcc-bench --bin check`.

use std::sync::Arc;

use fcc_check::{
    check_trace, explore, Budget, FusedCase, GenericCase, MoeCase, ProtocolCase, ZeroCopyCase,
};
use fcc_shmem::SeededOrder;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seed names a schedule; none of them may break the fused
    /// operator or its trace invariants.
    #[test]
    fn fused_is_clean_under_random_seeded_schedules(
        seed in 0u64..1_000_000,
        n_pes in 2usize..5,
        slice_embeddings in 1usize..4,
    ) {
        let case = FusedCase {
            n_pes,
            batch: 2 * n_pes,
            tables_per_pe: 2,
            slice_embeddings,
        };
        let run = case.run(Arc::new(SeededOrder::new(seed)));
        prop_assert!(run.mismatch.is_none(), "{:?}", run.mismatch);
        let violations = check_trace(&run.trace, &case.check_config());
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// The zero-copy configuration (the fused operator on one P2P group)
    /// has no deferrable puts; seeds perturb the `WG_Done` / `sliceRdy`
    /// RMW interleaving instead.
    #[test]
    fn zerocopy_is_clean_under_random_rmw_perturbation(
        seed in 0u64..1_000_000,
        n_pes in 2usize..5,
    ) {
        let case = ZeroCopyCase { n_pes, batch: 2 * n_pes, tables_per_pe: 2 };
        let run = case.run(Arc::new(SeededOrder::new(seed)));
        prop_assert!(run.mismatch.is_none(), "{:?}", run.mismatch);
        prop_assert!(run.put_keys.is_empty(), "zero-copy issued network puts");
        let violations = check_trace(&run.trace, &case.check_config());
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// Random producer shapes through the generic operator.
    #[test]
    fn generic_exchange_is_clean_under_random_seeded_schedules(
        seed in 0u64..1_000_000,
        n_pes in 2usize..5,
        per_peer in 1usize..4,
        items_per_slice in 1usize..4,
    ) {
        let case = GenericCase { n_pes, per_peer, items_per_slice };
        let run = case.run(Arc::new(SeededOrder::new(seed)));
        prop_assert!(run.mismatch.is_none(), "{:?}", run.mismatch);
        let violations = check_trace(&run.trace, &case.check_config());
        prop_assert!(violations.is_empty(), "{violations:?}");
    }

    /// A shallow explore (probe + partial cube + seeded top-up) over the
    /// MoE case at random shapes: clean on every explored schedule.
    #[test]
    fn moe_explore_smoke_is_clean(
        n_pes in 2usize..4,
        tokens_per_pair in 1usize..4,
    ) {
        let case = MoeCase { n_pes, tokens_per_pair, dim: 3 };
        let report = explore(&case, &Budget::smoke());
        prop_assert!(report.clean(), "{report:?}");
        prop_assert!(report.runs >= 2);
    }
}
