//! The slice engine: the fused computation-collective protocol, once, for
//! any producer.
//!
//! The fusion recipe (§3.2–3.4) only needs three things from a workload:
//! *what* each logical workgroup computes, *where* its vector goes, and
//! *how wide* vectors are. [`FusedGeometry`] is the plan-time half of that
//! contract (width, item count, destination); [`FusedProducer`] adds the
//! execute-time half (compute one item). [`GenericFusedPlan`] runs the
//! whole protocol for any of them — slice grouping, a caller-ordered
//! work-stealing task loop, `WG_Done` last-finisher election, staging +
//! PUT + fence + `sliceRdy` for network peers, direct stores for P2P
//! peers, and the drain.
//!
//! It is the only copy of that protocol in the crate. The embedding
//! operator [`FusedPlan`](super::FusedPlan) plans it from its
//! [`SliceMap`](crate::SliceMap) and supplies its own priority order;
//! [`ResilientFusedPlan`](super::ResilientFusedPlan) swaps in a network
//! ship hook with retry and checksums; the column- and row-parallel
//! embedding operators ([`crate::ext`]) are plain producers. A downstream
//! user fuses a GEMM, a graph gather, or anything else with its dependent
//! exchange the same way (§3.5's generality, as an API).

use std::time::{Duration, Instant};

use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, ShmemError, SymFlags, SymSlice};

use crate::schedule::steal::{execute_stealing, StealArena, StealPolicy};
use crate::scratch::ScratchPool;

/// The plan-time shape of a fused workload.
///
/// Items are the logical workgroups: PE `me` computes items
/// `0..num_items(me)`, each one `dim()`-wide vector whose destination
/// (PE, element offset) is a pure function of `(me, item)`. Distinct items
/// on the same source must map to disjoint destination ranges.
pub trait FusedGeometry: Sync {
    /// Output vector width (elements).
    fn dim(&self) -> usize;
    /// Logical work items computed by source PE `me`.
    fn num_items(&self, me: usize) -> usize;
    /// Per-PE output buffer length (elements).
    fn output_len(&self) -> usize;
    /// Where item `(me, item)`'s vector lands: `(dst_pe, element offset)`.
    fn destination(&self, me: usize, item: usize) -> (usize, usize);
}

/// A workload that can be fused with its output exchange: its geometry
/// plus the computation of one item.
pub trait FusedProducer: FusedGeometry {
    /// Computes item `(me, item)` into `out` (`dim()` elements).
    fn produce(&self, me: usize, item: usize, out: &mut [f32]);
}

/// One slice of a PE's item range: consecutive items sharing a
/// destination.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GenericSlice {
    pub(crate) first_item: usize,
    pub(crate) len: usize,
    pub(crate) dst: usize,
}

/// A network slice the moment its last WG finished: rows staged, nothing
/// shipped yet. A ship hook moves the rows and publishes `sliceRdy`.
pub(crate) struct Outgoing<'a> {
    plan: &'a GenericFusedPlan,
    geometry: &'a dyn FusedGeometry,
    pub(crate) me: usize,
    /// The slice's index in the source PE's slice table.
    pub(crate) si: usize,
    pub(crate) slice: GenericSlice,
    pub(crate) exec: u64,
    /// The staged payload, row `j` being item `slice.first_item + j`.
    pub(crate) rows: &'a [f32],
}

impl Outgoing<'_> {
    /// Destination element offset of row `j`.
    pub(crate) fn row_offset(&self, j: usize) -> usize {
        self.geometry
            .destination(self.me, self.slice.first_item + j)
            .1
    }

    /// One PUT per row, each at its own destination offset.
    pub(crate) fn put_rows(&self, ctx: &PeCtx<'_>) {
        for (j, row) in self.rows.chunks_exact(self.plan.dim).enumerate() {
            ctx.put(self.plan.output, self.row_offset(j), row, self.slice.dst);
        }
    }

    /// The slice's `sliceRdy` index at its destination.
    pub(crate) fn rdy_index(&self) -> usize {
        self.plan.rdy_index(self.me, self.si)
    }

    /// Stores `sliceRdy` at the destination (the caller fences first).
    pub(crate) fn publish(&self, ctx: &PeCtx<'_>) {
        ctx.flag_store(
            self.plan.slice_rdy,
            self.rdy_index(),
            self.exec,
            self.slice.dst,
        );
    }
}

/// The default network ship hook: rows, fence, `sliceRdy`.
pub(crate) fn ship_rows(ctx: &PeCtx<'_>, out: &Outgoing<'_>) {
    out.put_rows(ctx);
    // Payload before flag: the fence orders the PUTs.
    ctx.fence();
    out.publish(ctx);
}

/// A slice some source publishes to the draining PE.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Incoming {
    pub(crate) src: usize,
    pub(crate) slice: GenericSlice,
    /// Its `sliceRdy` index.
    pub(crate) idx: usize,
}

/// The generic fused plan for one world size.
#[derive(Debug)]
pub struct GenericFusedPlan {
    /// Per-PE output buffer.
    pub output: SymSlice<f32>,
    staging: SymSlice<f32>,
    wg_done: SymFlags,
    slice_rdy: SymFlags,
    /// Per source PE: its slice table (destinations may differ per PE).
    slices: Vec<Vec<GenericSlice>>,
    max_slices: usize,
    n_pes: usize,
    dim: usize,
    /// `dim`-wide produce workspaces, reused across executions.
    scratch: ScratchPool,
    /// Slice-wide payload workspaces for elected last finishers.
    payload_scratch: ScratchPool,
    /// How item-level tasks map onto persistent WGs at runtime.
    steal: StealPolicy,
    /// Pooled per-execution deque sets (allocation-free steady state).
    steal_arena: StealArena,
}

impl GenericFusedPlan {
    /// Builds the slice tables from the geometry's destination function
    /// and allocates buffers in `layout`.
    ///
    /// `items_per_slice` bounds slice width; slices also break wherever
    /// the destination changes, so every slice is single-destination.
    pub fn plan(
        layout: &mut HeapLayout,
        n_pes: usize,
        geometry: &impl FusedGeometry,
        items_per_slice: usize,
    ) -> GenericFusedPlan {
        assert!(items_per_slice >= 1);
        let slices = (0..n_pes)
            .map(|me| {
                let mut pe_slices: Vec<GenericSlice> = Vec::new();
                for item in 0..geometry.num_items(me) {
                    let (dst, _) = geometry.destination(me, item);
                    assert!(dst < n_pes, "destination PE out of range");
                    match pe_slices.last_mut() {
                        Some(s) if s.dst == dst && s.len < items_per_slice => s.len += 1,
                        _ => pe_slices.push(GenericSlice {
                            first_item: item,
                            len: 1,
                            dst,
                        }),
                    }
                }
                pe_slices
            })
            .collect();
        Self::from_slices(layout, n_pes, geometry.dim(), geometry.output_len(), slices)
    }

    /// Allocates a plan over explicit per-PE slice tables (each one a
    /// partition of that PE's items into contiguous runs).
    pub(crate) fn from_slices(
        layout: &mut HeapLayout,
        n_pes: usize,
        dim: usize,
        output_len: usize,
        slices: Vec<Vec<GenericSlice>>,
    ) -> GenericFusedPlan {
        let max_items = slices
            .iter()
            .filter_map(|pe| pe.last())
            .map(|s| s.first_item + s.len)
            .max()
            .unwrap_or(0);
        let max_slices = slices.iter().map(Vec::len).max().unwrap_or(0);
        GenericFusedPlan {
            output: layout.alloc::<f32>(output_len),
            staging: layout.alloc::<f32>(max_items * dim),
            wg_done: layout.alloc_flags(max_slices.max(1)),
            slice_rdy: layout.alloc_flags(n_pes * max_slices.max(1)),
            slices,
            max_slices,
            n_pes,
            dim,
            scratch: ScratchPool::new(),
            payload_scratch: ScratchPool::new(),
            steal: StealPolicy::default(),
            steal_arena: StealArena::new(),
        }
    }

    /// Replaces the work-stealing policy (builder form).
    pub fn with_steal(mut self, steal: StealPolicy) -> GenericFusedPlan {
        self.steal = steal;
        self
    }

    /// Replaces the work-stealing policy in place (call before running).
    pub fn set_steal(&mut self, steal: StealPolicy) {
        self.steal = steal;
    }

    /// The active work-stealing policy.
    pub fn steal_policy(&self) -> StealPolicy {
        self.steal
    }

    /// Slices PE `me` will communicate (diagnostics).
    pub fn num_slices(&self, me: usize) -> usize {
        self.slices[me].len()
    }

    /// Scratch-buffer allocations that missed the pools — zero growth
    /// across executions means the steady state is allocation-free.
    pub fn scratch_misses(&self) -> u64 {
        self.scratch.misses() + self.payload_scratch.misses()
    }

    /// Deque sets built because the arena had no pooled fit; flat across
    /// executions means stealing's steady state is allocation-free.
    pub fn steal_misses(&self) -> u64 {
        self.steal_arena.misses()
    }

    /// Pre-sizes the scratch pools for `concurrency` simultaneous workers
    /// (across every PE sharing this plan) and pools one deque set per PE
    /// thread, so even the first execution's hot path never allocates and
    /// both miss counters stay exactly zero.
    pub fn prewarm(&self, concurrency: usize) {
        let max_len = self.slices.iter().flatten().map(|s| s.len).max();
        self.scratch.reserve(concurrency, self.dim);
        self.payload_scratch
            .reserve(concurrency, max_len.unwrap_or(0) * self.dim);
        // PEs with the same worker count share a deque shape; the largest
        // capacity among them fits all.
        let mut shapes: Vec<(usize, usize, usize)> = Vec::new();
        for pe in &self.slices {
            let tasks: usize = pe.iter().map(|s| s.len).sum();
            let workers = self.steal.effective_workers(tasks);
            let cap = tasks / workers + 1;
            match shapes.iter_mut().find(|s| s.0 == workers) {
                Some(s) => (s.1, s.2) = (s.1.max(cap), s.2 + 1),
                None => shapes.push((workers, cap, 1)),
            }
        }
        for (workers, cap, holders) in shapes {
            self.steal_arena.prewarm(workers, cap, holders);
        }
    }

    /// Executes the fused operator on the calling PE: every item in
    /// remote-first slice order, then the drain. `exec` is 1-based and
    /// monotonic across plan reuses.
    pub fn execute(&self, ctx: &PeCtx<'_>, producer: &impl FusedProducer, exec: u64) {
        let me = ctx.me();
        self.execute_with(
            ctx,
            producer,
            |item, out| producer.produce(me, item, out),
            exec,
        );
    }

    /// [`execute`](Self::execute) with the producer split into a geometry
    /// and a per-call compute function `produce(item, out)` — how an
    /// operator whose inputs arrive per call builds its producer.
    pub(crate) fn execute_with(
        &self,
        ctx: &PeCtx<'_>,
        geometry: &impl FusedGeometry,
        produce: impl Fn(usize, &mut [f32]) + Sync,
        exec: u64,
    ) {
        let _ctx_guard = fcc_shmem::scoped_ctx(crate::op::ctx_root(exec));
        let order = self.remote_first(ctx.me());
        self.publish(ctx, geometry, produce, exec, order, ship_rows);
        self.drain(ctx, exec, None)
            .expect("an unbounded drain cannot time out");
    }

    /// PE `me`'s `(slice, item)` pairs, slices bound for other PEs first
    /// (communication-aware), items in order within a slice.
    fn remote_first(&self, me: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mine = &self.slices[me];
        let mut order: Vec<usize> = (0..mine.len()).collect();
        order.sort_by_key(|&si| mine[si].dst == me);
        order
            .into_iter()
            .flat_map(move |si| (0..mine[si].len).map(move |k| (si, mine[si].first_item + k)))
    }

    /// `sliceRdy` index of source `src`'s slice `si` — also the slice
    /// qualifier of its causal context, unique across the world.
    pub(crate) fn rdy_index(&self, src: usize, si: usize) -> usize {
        src * self.max_slices + si
    }

    /// The compute + publish phase on the calling PE.
    ///
    /// `order` lists this PE's `(slice, item)` pairs in priority order;
    /// it seeds the work-stealing deques, so the order survives dynamic
    /// scheduling. Each item's vector goes straight to its destination
    /// when that is this PE or a P2P peer, else into staging. The slice's
    /// unique last finisher (elected through `WG_Done`) publishes it:
    /// fence + `sliceRdy` for direct slices, `ship` for network slices.
    /// The caller installs the execution's causal root.
    pub(crate) fn publish<G: FusedGeometry>(
        &self,
        ctx: &PeCtx<'_>,
        geometry: &G,
        produce: impl Fn(usize, &mut [f32]) + Sync,
        exec: u64,
        order: impl IntoIterator<Item = (usize, usize)>,
        ship: impl Fn(&PeCtx<'_>, &Outgoing<'_>) + Sync,
    ) {
        assert!(exec >= 1, "executions are 1-based");
        assert_eq!(ctx.n_pes(), self.n_pes, "plan/world size mismatch");
        let me = ctx.me();
        let dim = self.dim;
        let root = crate::op::ctx_root(exec);
        let tasks: Vec<u64> = order
            .into_iter()
            .map(|(si, item)| ((si as u64) << 32) | item as u64)
            .collect();

        execute_stealing(&self.steal_arena, &tasks, self.steal, |_worker, task| {
            let (si, item) = ((task >> 32) as usize, (task & 0xffff_ffff) as usize);
            let slice = self.slices[me][si];
            let idx = self.rdy_index(me, si);
            // Workers are not the PE thread: re-seed the causal context,
            // qualified with this slice's publication.
            let _ctx_guard = fcc_shmem::scoped_ctx(root.with_slice(idx as u64));
            let direct = slice.dst == me || ctx.is_p2p(slice.dst);
            let mut vec = self.scratch.take(dim);
            produce(item, &mut vec);
            if direct {
                // Zero-copy: store straight into the destination buffer
                // (own buffer, or a peer's over xGMI).
                let (dst, off) = geometry.destination(me, item);
                debug_assert_eq!(dst, slice.dst);
                ctx.put(self.output, off, &vec, dst);
            } else {
                ctx.put(self.staging, item * dim, &vec, me);
            }

            // WG_Done: count completions (AcqRel, so every WG's stores are
            // visible to the elected last finisher). The counter is
            // monotonic across executions, hence the `exec ×` target.
            let done = ctx.flag_fetch_add(self.wg_done, si, 1, me) + 1;
            if done != exec * slice.len as u64 {
                return;
            }
            if direct {
                ctx.fence();
                ctx.flag_store(self.slice_rdy, idx, exec, slice.dst);
            } else {
                let mut rows = self.payload_scratch.take(slice.len * dim);
                ctx.get(&mut rows, self.staging, slice.first_item * dim, me);
                let out = Outgoing {
                    plan: self,
                    geometry,
                    me,
                    si,
                    slice,
                    exec,
                    rows: &rows,
                };
                ship(ctx, &out);
            }
        });
    }

    /// Every slice destined to `me`, in `(source, slice)` order.
    pub(crate) fn incoming(&self, me: usize) -> impl Iterator<Item = Incoming> + '_ {
        (0..self.n_pes).flat_map(move |src| {
            self.slices[src]
                .iter()
                .enumerate()
                .filter(move |(_, s)| s.dst == me)
                .map(move |(si, &slice)| Incoming {
                    src,
                    slice,
                    idx: self.rdy_index(src, si),
                })
        })
    }

    /// Waits for every slice destined to the calling PE.
    ///
    /// With a `(start, budget)` deadline each wait gets whatever budget is
    /// left. After the first miss the drain finishes with unbounded waits
    /// — the writers are still live, so correctness is never at stake,
    /// only the latency report — and returns the miss.
    pub(crate) fn drain(
        &self,
        ctx: &PeCtx<'_>,
        exec: u64,
        deadline: Option<(Instant, Duration)>,
    ) -> Result<(), ShmemError> {
        let mut missed = None;
        for inc in self.incoming(ctx.me()) {
            if let (None, Some((start, budget))) = (&missed, deadline) {
                let remaining = budget.saturating_sub(start.elapsed());
                missed = ctx
                    .wait_until_timeout(self.slice_rdy, inc.idx, remaining, |v| v >= exec)
                    .err();
            }
            if deadline.is_none() || missed.is_some() {
                ctx.wait_until(self.slice_rdy, inc.idx, |v| v >= exec);
            }
        }
        missed.map_or(Ok(()), Err)
    }

    /// The `sliceRdy` flags (for drains with their own wait policy).
    pub(crate) fn slice_rdy(&self) -> SymFlags {
        self.slice_rdy
    }

    /// The slice-payload pool, shared with ship hooks and drains.
    pub(crate) fn payload_scratch(&self) -> &ScratchPool {
        &self.payload_scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_shmem::ShmemWorld;

    /// Producer 1: an all-to-all — item `i` of PE `me` is a constant
    /// vector destined to PE `i / items_per_dst`, landing in a block
    /// indexed by source at a permuted slot, so a multi-item slice's rows
    /// are neither contiguous nor evenly strided at the destination.
    struct ExchangeProducer {
        n_pes: usize,
        items_per_dst: usize,
        dim: usize,
    }

    impl FusedGeometry for ExchangeProducer {
        fn dim(&self) -> usize {
            self.dim
        }
        fn num_items(&self, _me: usize) -> usize {
            self.n_pes * self.items_per_dst
        }
        fn output_len(&self) -> usize {
            self.n_pes * self.items_per_dst * self.dim
        }
        fn destination(&self, me: usize, item: usize) -> (usize, usize) {
            let (dst, slot) = (item / self.items_per_dst, item % self.items_per_dst);
            // 7 is coprime to every run length used here: a permutation.
            let slot = (slot * 7 + 3) % self.items_per_dst;
            (dst, (me * self.items_per_dst + slot) * self.dim)
        }
    }

    impl FusedProducer for ExchangeProducer {
        fn produce(&self, me: usize, item: usize, out: &mut [f32]) {
            for (k, o) in out.iter_mut().enumerate() {
                *o = (me * 10_000 + item * 100 + k) as f32;
            }
        }
    }

    /// Producer 2: a row-sharded GEMM — PE `me` owns a row block of `W`
    /// and computes `y = W·x` rows destined to the PE that owns that
    /// output shard (round-robin).
    struct GemmProducer {
        n_pes: usize,
        rows_per_pe: usize,
        in_dim: usize,
    }

    impl GemmProducer {
        fn weight(&self, me: usize, row: usize, col: usize) -> f32 {
            ((me * 31 + row * 7 + col * 3) % 13) as f32 * 0.25 - 1.0
        }
        fn x(&self, col: usize) -> f32 {
            ((col * 5) % 11) as f32 * 0.5 - 1.0
        }
    }

    impl FusedGeometry for GemmProducer {
        fn dim(&self) -> usize {
            1 // each item is one output scalar-row (dim 1 keeps the oracle tiny)
        }
        fn num_items(&self, _me: usize) -> usize {
            self.rows_per_pe
        }
        fn output_len(&self) -> usize {
            self.n_pes * self.rows_per_pe
        }
        fn destination(&self, me: usize, item: usize) -> (usize, usize) {
            // Row (me, item) goes to PE item % n, at offset by source/row.
            (item % self.n_pes, me * self.rows_per_pe + item)
        }
    }

    impl FusedProducer for GemmProducer {
        fn produce(&self, me: usize, item: usize, out: &mut [f32]) {
            out[0] = (0..self.in_dim)
                .map(|c| self.weight(me, item, c) * self.x(c))
                .sum();
        }
    }

    /// Bit-compares every destination against direct production.
    fn assert_exact(
        world: &mut ShmemWorld,
        plan: &GenericFusedPlan,
        producer: &impl FusedProducer,
    ) {
        let n = world.n_pes();
        for src in 0..n {
            for item in 0..producer.num_items(src) {
                let (dst, off) = producer.destination(src, item);
                let mut want = vec![0.0f32; producer.dim()];
                producer.produce(src, item, &mut want);
                let got = world.read(dst, plan.output);
                assert_eq!(
                    &got[off..off + want.len()],
                    want.as_slice(),
                    "src {src} item {item}"
                );
            }
        }
    }

    #[test]
    fn exchange_producer_matches_direct_computation() {
        let n = 4;
        let producer = ExchangeProducer {
            n_pes: n,
            items_per_dst: 3,
            dim: 5,
        };
        let mut layout = HeapLayout::new();
        let plan = GenericFusedPlan::plan(&mut layout, n, &producer, 2);
        let mut world = ShmemWorld::new(n, layout).with_p2p_groups((0..n as u32).collect());
        world.run(|ctx| plan.execute(ctx, &producer, 1));
        assert_exact(&mut world, &plan, &producer);
    }

    #[test]
    fn gemm_producer_matches_oracle() {
        let n = 3;
        let producer = GemmProducer {
            n_pes: n,
            rows_per_pe: 6,
            in_dim: 8,
        };
        let mut layout = HeapLayout::new();
        let plan = GenericFusedPlan::plan(&mut layout, n, &producer, 4);
        let mut world = ShmemWorld::new(n, layout).with_p2p_groups((0..n as u32).collect());
        world.run(|ctx| plan.execute(ctx, &producer, 1));
        assert_exact(&mut world, &plan, &producer);
    }

    #[test]
    fn multi_row_network_slices_land_at_non_affine_offsets() {
        let n = 3;
        let producer = ExchangeProducer {
            n_pes: n,
            items_per_dst: 6,
            dim: 3,
        };
        let mut layout = HeapLayout::new();
        // Four-item slices over six-item destination runs: 4 + 2 rows.
        let plan = GenericFusedPlan::plan(&mut layout, n, &producer, 4);
        assert_eq!(plan.num_slices(0), 2 * n);
        let mut world = ShmemWorld::new(n, layout).with_p2p_groups((0..n as u32).collect());
        for exec in 1..=2 {
            world.run(|ctx| plan.execute(ctx, &producer, exec));
            assert_exact(&mut world, &plan, &producer);
        }
    }

    #[test]
    fn works_on_all_p2p_worlds_too() {
        let n = 2;
        let producer = ExchangeProducer {
            n_pes: n,
            items_per_dst: 4,
            dim: 3,
        };
        let mut layout = HeapLayout::new();
        let plan = GenericFusedPlan::plan(&mut layout, n, &producer, 4);
        let mut world = ShmemWorld::new(n, layout); // all P2P: zero-copy path
        world.run(|ctx| plan.execute(ctx, &producer, 1));
        assert_exact(&mut world, &plan, &producer);
    }

    #[test]
    fn slices_break_at_destination_changes() {
        let producer = ExchangeProducer {
            n_pes: 2,
            items_per_dst: 5,
            dim: 1,
        };
        let mut layout = HeapLayout::new();
        // items_per_slice 3 over 5-item destination runs: 3+2 per dst.
        let plan = GenericFusedPlan::plan(&mut layout, 2, &producer, 3);
        assert_eq!(plan.num_slices(0), 4);
    }

    #[test]
    fn prewarmed_plan_never_misses_its_pools() {
        let n = 2;
        let producer = ExchangeProducer {
            n_pes: n,
            items_per_dst: 6,
            dim: 3,
        };
        let mut layout = HeapLayout::new();
        let plan = GenericFusedPlan::plan(&mut layout, n, &producer, 4);
        plan.prewarm(n * 8);
        let world = ShmemWorld::new(n, layout).with_p2p_groups((0..n as u32).collect());
        for exec in 1..=4 {
            world.run(|ctx| plan.execute(ctx, &producer, exec));
        }
        assert_eq!(plan.scratch_misses(), 0, "prewarmed scratch pools missed");
        assert_eq!(plan.steal_misses(), 0, "prewarmed steal arena missed");
    }
}
