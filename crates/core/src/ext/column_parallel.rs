//! Column-parallel embedding with a fused gather.
//!
//! The last of Neo's (\[43\]) embedding parallelism dimensions: a table too
//! *wide* to place whole is split by columns — PE `p` holds columns
//! `p·(dim/n) .. (p+1)·(dim/n)` of **every** row. Pooling is then fully
//! local per column shard (each PE pools its columns for all samples), and
//! the output vector reassembles at the sample's owner with a gather of
//! column chunks. Like the row-parallel reduction, that gather is a
//! dependent collective and fuses the same way: each PE PUTs a sample's
//! column chunk as soon as it is pooled and flags it; owners assemble
//! chunks as they arrive.

use fcc_dlrm::{BatchGenerator, EmbeddingTable, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, SymSlice};

use crate::op::generic::{FusedGeometry, GenericFusedPlan};

/// The gather as slice-engine items: PE `me`'s item `s` is its
/// `dim / n_pes`-wide column chunk of sample `s`, bound for the sample's
/// owner at column offset `me × dim / n_pes`.
#[derive(Debug)]
struct ColumnChunks {
    n_pes: usize,
    global_batch: usize,
    /// Full vector width.
    dim: usize,
}

impl FusedGeometry for ColumnChunks {
    fn dim(&self) -> usize {
        self.dim / self.n_pes
    }

    fn num_items(&self, _me: usize) -> usize {
        self.global_batch
    }

    fn output_len(&self) -> usize {
        self.global_batch / self.n_pes * self.dim
    }

    fn destination(&self, me: usize, sample: usize) -> (usize, usize) {
        let local = self.global_batch / self.n_pes;
        (
            sample / local,
            (sample % local) * self.dim + me * self.dim(),
        )
    }
}

/// Plan for one column-sharded table over `n_pes` PEs.
#[derive(Debug)]
pub struct ColumnParallelPlan {
    /// Assembled output at each sample owner: `{local_batch × dim}`, with
    /// column chunk `p` at offset `p × (dim / n_pes)` of each vector.
    pub output: SymSlice<f32>,
    /// One single-chunk slice per (source, sample), each flagged on its
    /// own.
    engine: GenericFusedPlan,
    chunks: ColumnChunks,
}

impl ColumnParallelPlan {
    /// Columns each PE owns.
    pub fn cols_per_pe(&self) -> usize {
        self.chunks.dim()
    }

    /// Allocates buffers in `layout`.
    ///
    /// # Panics
    /// Panics unless the batch and the dimension divide among PEs.
    pub fn plan(
        layout: &mut HeapLayout,
        n_pes: usize,
        global_batch: usize,
        dim: usize,
    ) -> ColumnParallelPlan {
        assert_eq!(global_batch % n_pes, 0, "batch must divide among PEs");
        assert_eq!(dim % n_pes, 0, "dim must divide among PEs");
        let chunks = ColumnChunks {
            n_pes,
            global_batch,
            dim,
        };
        let engine = GenericFusedPlan::plan(layout, n_pes, &chunks, 1);
        ColumnParallelPlan {
            output: engine.output,
            engine,
            chunks,
        }
    }

    /// Executes the fused column-parallel pooling on the calling PE: my
    /// columns of every sample — remote owners' samples first
    /// (communication-aware), then my own — each chunk shipped into its
    /// assembled position, then the wait for every source's chunks of my
    /// samples.
    ///
    /// `column_shard` is this PE's `rows × (dim/n_pes)` slice of the
    /// table (column-major ownership, rows complete). `exec` is 1-based
    /// and monotonic.
    pub fn execute(
        &self,
        ctx: &PeCtx<'_>,
        column_shard: &EmbeddingTable,
        gen: &BatchGenerator,
        table: usize,
        mode: PoolingMode,
        exec: u64,
    ) {
        assert_eq!(column_shard.dim(), self.cols_per_pe(), "column shard width");
        let pool = |sample: usize, out: &mut [f32]| {
            column_shard.pool_into(&gen.bag(table, sample), mode, out);
        };
        self.engine.execute_with(ctx, &self.chunks, pool, exec);
    }

    /// Splits a full table into this plan's column shards.
    pub fn shard_table(full: &EmbeddingTable, n_pes: usize) -> Vec<EmbeddingTable> {
        assert_eq!(full.dim() % n_pes, 0, "dim must divide among PEs");
        let cols = full.dim() / n_pes;
        (0..n_pes)
            .map(|pe| {
                let mut weights = Vec::with_capacity(full.rows() * cols);
                for r in 0..full.rows() {
                    let row = full.row(r as u32);
                    weights.extend_from_slice(&row[pe * cols..(pe + 1) * cols]);
                }
                EmbeddingTable::from_weights(full.rows(), cols, weights)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_shmem::ShmemWorld;

    fn check(n_pes: usize, batch: usize, rows: usize, dim: usize, mode: PoolingMode) {
        let full = EmbeddingTable::new_random(rows, dim, 31);
        let shards = ColumnParallelPlan::shard_table(&full, n_pes);
        let gen = BatchGenerator::new(7, rows, 6);
        let mut layout = HeapLayout::new();
        let plan = ColumnParallelPlan::plan(&mut layout, n_pes, batch, dim);
        let mut world = ShmemWorld::new(n_pes, layout);
        world.run(|ctx| plan.execute(ctx, &shards[ctx.me()], &gen, 0, mode, 1));

        let local = batch / n_pes;
        for owner in 0..n_pes {
            let got = world.read(owner, plan.output);
            for ls in 0..local {
                let sample = owner * local + ls;
                let want = full.pool(&gen.bag(0, sample), mode);
                for (a, b) in got[ls * dim..(ls + 1) * dim].iter().zip(&want) {
                    assert!((a - b).abs() < 1e-5, "owner {owner} sample {sample}");
                }
            }
        }
    }

    #[test]
    fn column_parallel_matches_full_pooling_sum() {
        check(4, 8, 64, 16, PoolingMode::Sum);
    }

    #[test]
    fn column_parallel_matches_full_pooling_mean() {
        check(2, 4, 32, 8, PoolingMode::Mean);
    }

    #[test]
    fn single_pe_degenerates() {
        check(1, 4, 16, 8, PoolingMode::Sum);
    }

    #[test]
    fn shard_table_splits_columns() {
        let full = EmbeddingTable::from_weights(2, 4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let shards = ColumnParallelPlan::shard_table(&full, 2);
        assert_eq!(shards[0].row(0), &[1.0, 2.0]);
        assert_eq!(shards[1].row(0), &[3.0, 4.0]);
        assert_eq!(shards[0].row(1), &[5.0, 6.0]);
        assert_eq!(shards[1].row(1), &[7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "dim must divide")]
    fn dim_divisibility_checked() {
        let mut layout = HeapLayout::new();
        ColumnParallelPlan::plan(&mut layout, 3, 3, 8);
    }
}
