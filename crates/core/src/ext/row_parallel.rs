//! Row-parallel embedding with a fused partial-sum reduction.
//!
//! Table-wise parallelism (the main operators here) places whole tables on
//! PEs; the paper's DLRM substrate (\[43\], Neo) also shards *individual
//! huge tables by row*. Pooling then becomes a two-step operator: every PE
//! pools the subset of a bag's rows it owns (a partial sum), and the
//! partials reduce at the sample's owner. That reduction is another
//! dependent collective, and it fuses exactly like the All-to-All: each
//! PE PUTs a sample's partial the moment it is pooled and flags it (a
//! one-item slice on the slice engine), and the owner reduces the
//! partials once they have all arrived.

use fcc_dlrm::{BatchGenerator, EmbeddingTable, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, SymSlice};

use crate::op::generic::{FusedGeometry, GenericFusedPlan};

/// The partial exchange as slice-engine items: PE `me`'s item `s` is its
/// partial sum for sample `s`, bound for the sample's owner's
/// `(local sample, source)` slot.
#[derive(Debug)]
struct Partials {
    n_pes: usize,
    global_batch: usize,
    dim: usize,
}

impl FusedGeometry for Partials {
    fn dim(&self) -> usize {
        self.dim
    }

    fn num_items(&self, _me: usize) -> usize {
        self.global_batch
    }

    fn output_len(&self) -> usize {
        self.global_batch * self.dim
    }

    fn destination(&self, me: usize, sample: usize) -> (usize, usize) {
        let local = self.global_batch / self.n_pes;
        let slot = (sample % local) * self.n_pes + me;
        (sample / local, slot * self.dim)
    }
}

/// Plan for one row-sharded table over `n_pes` PEs.
///
/// Rows are sharded cyclically (`row % n_pes`), the layout that balances
/// power-law access skew; samples are sharded by batch position.
#[derive(Debug)]
pub struct RowParallelPlan {
    /// Phase 1: partial sums land at each sample owner in the engine's
    /// output, `{local_batch × n_pes × dim}` — one slot per (sample,
    /// source), each its own flagged slice.
    engine: GenericFusedPlan,
    partials: Partials,
    /// Final pooled output at each owner: `{local_batch × dim}`.
    pub output: SymSlice<f32>,
}

impl RowParallelPlan {
    /// Allocates buffers in `layout`.
    ///
    /// # Panics
    /// Panics unless the batch divides among PEs.
    pub fn plan(
        layout: &mut HeapLayout,
        n_pes: usize,
        global_batch: usize,
        dim: usize,
    ) -> RowParallelPlan {
        assert_eq!(global_batch % n_pes, 0, "batch must divide among PEs");
        let partials = Partials {
            n_pes,
            global_batch,
            dim,
        };
        RowParallelPlan {
            engine: GenericFusedPlan::plan(layout, n_pes, &partials, 1),
            output: layout.alloc::<f32>(global_batch / n_pes * dim),
            partials,
        }
    }

    /// Rows of the full table owned by `pe` under cyclic sharding.
    pub fn owns_row(&self, pe: usize, row: u32) -> bool {
        row as usize % self.partials.n_pes == pe
    }

    /// Executes the fused row-parallel pooling on the calling PE.
    ///
    /// `shard` must hold the full table's weights for the rows this PE
    /// owns, at their *original global indices* (rows this PE does not own
    /// are never read). `exec` is 1-based and monotonic.
    pub fn execute(
        &self,
        ctx: &PeCtx<'_>,
        shard: &EmbeddingTable,
        gen: &BatchGenerator,
        table: usize,
        exec: u64,
    ) {
        let Partials { n_pes, dim, .. } = self.partials;
        assert_eq!(shard.dim(), dim, "shard width");
        let me = ctx.me();

        // Phase 1: partial pooling + fused partial PUTs, remote samples
        // first (communication-aware), then the wait for every source's
        // partials of my samples.
        let pool = |sample: usize, out: &mut [f32]| {
            let bag = gen.bag(table, sample);
            let mine: Vec<u32> = bag
                .iter()
                .copied()
                .filter(|&r| self.owns_row(me, r))
                .collect();
            // Partial SUM of owned rows (mean is applied by the owner,
            // which knows the full bag length).
            shard.pool_into(&mine, PoolingMode::Sum, out);
        };
        self.engine.execute_with(ctx, &self.partials, pool, exec);

        // Phase 2: reduce the arrived partials of each of my samples, in
        // source order.
        let mut acc = vec![0.0f32; dim];
        let mut incoming = vec![0.0f32; dim];
        for ls in 0..self.partials.global_batch / n_pes {
            acc.fill(0.0);
            for src in 0..n_pes {
                ctx.get(
                    &mut incoming,
                    self.engine.output,
                    (ls * n_pes + src) * dim,
                    me,
                );
                for (a, v) in acc.iter_mut().zip(&incoming) {
                    *a += v;
                }
            }
            ctx.put(self.output, ls * dim, &acc, me);
        }
    }
}

/// Oracle: pool the full bag against the full table.
pub fn reference_row_parallel(
    full_table: &EmbeddingTable,
    gen: &BatchGenerator,
    table: usize,
    global_batch: usize,
    n_pes: usize,
) -> Vec<Vec<f32>> {
    let local = global_batch / n_pes;
    (0..n_pes)
        .map(|owner| {
            let mut out = Vec::new();
            for ls in 0..local {
                let sample = owner * local + ls;
                out.extend(full_table.pool(&gen.bag(table, sample), PoolingMode::Sum));
            }
            out
        })
        .collect()
}

#[cfg(test)]
// Indexing parallel collections by PE reads clearer than iterator
// adaptors in these cross-checks.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use fcc_shmem::ShmemWorld;

    fn check(n_pes: usize, batch: usize, rows: usize, dim: usize, pooling: usize) {
        let full = EmbeddingTable::new_random(rows, dim, 99);
        let gen = BatchGenerator::new(5, rows, pooling);
        let mut layout = HeapLayout::new();
        let plan = RowParallelPlan::plan(&mut layout, n_pes, batch, dim);
        let mut world = ShmemWorld::new(n_pes, layout);
        // Every PE holds the full weights but only reads its own rows —
        // the shard-at-global-indices contract without building a sparse
        // container for the test.
        world.run(|ctx| plan.execute(ctx, &full, &gen, 0, 1));
        let expect = reference_row_parallel(&full, &gen, 0, batch, n_pes);
        for owner in 0..n_pes {
            let got = world.read(owner, plan.output);
            for (a, b) in got.iter().zip(&expect[owner]) {
                assert!((a - b).abs() < 1e-4, "owner {owner}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn row_parallel_matches_full_table_pooling() {
        check(4, 8, 64, 16, 10);
    }

    #[test]
    fn two_pes_small() {
        check(2, 4, 16, 8, 5);
    }

    #[test]
    fn single_pe_degenerates() {
        check(1, 4, 32, 8, 6);
    }

    #[test]
    fn skewed_ownership_still_exact() {
        // A tiny 4-row table under 2-way cyclic sharding: bags routinely
        // concentrate on one parity, so one PE's partial is often zero —
        // the sum must stay exact regardless.
        let dim = 4;
        let full = EmbeddingTable::from_weights(4, dim, (0..16).map(|i| i as f32).collect());
        let gen = BatchGenerator::new(1, 4, 6);
        let mut layout = HeapLayout::new();
        let plan = RowParallelPlan::plan(&mut layout, 2, 2, dim);
        let mut world = ShmemWorld::new(2, layout);
        world.run(|ctx| plan.execute(ctx, &full, &gen, 3, 1));
        let expect = reference_row_parallel(&full, &gen, 3, 2, 2);
        for owner in 0..2 {
            let got = world.read(owner, plan.output);
            for (a, b) in got.iter().zip(&expect[owner]) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn row_ownership_is_cyclic() {
        let mut layout = HeapLayout::new();
        let plan = RowParallelPlan::plan(&mut layout, 3, 3, 4);
        assert!(plan.owns_row(0, 0));
        assert!(plan.owns_row(1, 4));
        assert!(plan.owns_row(2, 5));
        assert!(!plan.owns_row(0, 5));
    }

    #[test]
    #[should_panic(expected = "divide among PEs")]
    fn batch_divisibility_checked() {
        let mut layout = HeapLayout::new();
        RowParallelPlan::plan(&mut layout, 3, 4, 8);
    }
}
