//! Property tests for the set-aligned shard plan (`kpm::shard_plan`), the
//! partition both distributed dispatchers (shard coordinator and fleet
//! scheduler) cut every job into.

use kpm::moments::MIN_SHARD_COLS;
use kpm::shard_plan;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// For any set width, realization count and cap: the ranges tile
    /// `0..total` in order; each is a run of whole sets or a piece of one
    /// set at least `MIN_SHARD_COLS` wide; there are at most `max_shards`
    /// of them; and the same inputs always give the same plan.
    #[test]
    fn shard_plan_is_a_set_aligned_capped_partition(
        r_per_set in 1usize..80,
        sets in 1usize..40,
        short_tail in 0usize..80,
        max_shards in 1usize..24,
    ) {
        // Whole sets, optionally with a short last set.
        let total = sets * r_per_set - short_tail % r_per_set;
        let plan = shard_plan(r_per_set, total, max_shards);

        prop_assert!(!plan.is_empty());
        prop_assert!(plan.len() <= max_shards, "{} shards > cap {max_shards}", plan.len());
        prop_assert_eq!(plan[0].start, 0);
        prop_assert_eq!(plan.last().unwrap().end, total);
        for w in plan.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start, "ranges must be contiguous and ordered");
        }
        let on_set_boundary = |i: usize| i.is_multiple_of(r_per_set) || i == total;
        for r in &plan {
            prop_assert!(!r.is_empty());
            let whole_sets = on_set_boundary(r.start) && on_set_boundary(r.end);
            let piece_of_one_set = r.start / r_per_set == (r.end - 1) / r_per_set
                && r.len() >= MIN_SHARD_COLS;
            prop_assert!(
                whole_sets || piece_of_one_set,
                "{r:?} is neither whole sets nor a wide piece of one (R = {r_per_set})"
            );
        }
        prop_assert_eq!(shard_plan(r_per_set, total, max_shards), plan);
    }
}
