//! The fused `embedding + All-to-All` operator — functional execution.
//!
//! One "persistent kernel" per PE (here: one work-stealing task set per PE
//! thread) pools embedding bags and communicates each *slice* of output the
//! moment its last workgroup finishes:
//!
//! * every logical WG pools one output vector;
//! * WGs contributing to a **P2P-reachable** destination store their vector
//!   straight into the destination buffer (the zero-copy path of §3.3) —
//!   no staging, no copy kernel. On an all-P2P node (Fig. 14's 4 GPUs on
//!   xGMI) every vector goes this way;
//! * WGs contributing to a **network** destination write into a local
//!   staging buffer; the slice's last finisher (elected through an atomic
//!   `WG_Done` update, no inter-WG barrier) PUTs the whole slice, fences,
//!   and PUTs the destination's `sliceRdy` flag;
//! * after its task loop drains, each PE waits on the `sliceRdy` flags of
//!   exactly the slices destined to it.
//!
//! That protocol is the slice engine's ([`GenericFusedPlan`]); this module
//! supplies the embedding geometry (the [`SliceMap`]), the pooling
//! producer built per call from the PE's tables and batch, and the
//! comm-aware priority order ([`schedule::order`]).
//!
//! Data placement follows the paper's `{local batch, tables × dim}` output
//! layout — point-to-point slice writes land pre-shuffled.

use std::time::{Duration, Instant};

use fcc_dlrm::{BatchGenerator, DlrmConfig, EmbeddingTable, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{PeCtx, ShmemError, SymSlice};

use crate::op::generic::{ship_rows, FusedGeometry, GenericFusedPlan, GenericSlice, Outgoing};
use crate::schedule::steal::StealPolicy;
use crate::schedule::{self, ScheduleKind};
use crate::slice::SliceMap;

/// Symmetric-heap plan for the fused operator: the slice engine planned
/// from the [`SliceMap`], whose items are logical WGs
/// (`table × global_batch + sample`) and whose slices are the map's.
#[derive(Debug)]
pub struct FusedPlan {
    /// Output buffer: `{local_batch, total_tables × dim}` per PE.
    pub output: SymSlice<f32>,
    engine: GenericFusedPlan,
    map: SliceMap,
    cfg: DlrmConfig,
}

impl FusedGeometry for FusedPlan {
    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn num_items(&self, _me: usize) -> usize {
        self.map.num_wgs() as usize
    }

    fn output_len(&self) -> usize {
        self.cfg.local_batch() * self.cfg.n_pes * self.cfg.tables_per_pe * self.cfg.dim
    }

    /// WG `(table, sample)` of PE `me` lands in the paper's
    /// `{local batch, tables × dim}` layout at the sample's owner.
    fn destination(&self, me: usize, wg: usize) -> (usize, usize) {
        let (table, sample) = self.map.decode_wg(wg as u32);
        let (dst, off) = self.map.dst_offset(me as u32, table, sample, self.cfg.dim);
        (dst as usize, off)
    }
}

impl FusedPlan {
    /// Allocates all buffers in `layout` for `cfg` with the given slice
    /// width.
    pub fn plan(layout: &mut HeapLayout, cfg: &DlrmConfig, slice_embeddings: usize) -> FusedPlan {
        let map = SliceMap::new(
            cfg.n_pes,
            cfg.tables_per_pe,
            cfg.global_batch,
            slice_embeddings,
        );
        // Every source PE has the map's slices: contiguous WG runs of one
        // table bound for one destination, in slice-id order.
        let slices: Vec<GenericSlice> = map
            .slices()
            .iter()
            .map(|s| GenericSlice {
                first_item: map.encode_wg(s.table, s.sample_start) as usize,
                len: s.len as usize,
                dst: s.dst_pe as usize,
            })
            .collect();
        let output_len = cfg.local_batch() * cfg.n_pes * cfg.tables_per_pe * cfg.dim;
        let engine = GenericFusedPlan::from_slices(
            layout,
            cfg.n_pes,
            cfg.dim,
            output_len,
            vec![slices; cfg.n_pes],
        );
        FusedPlan {
            output: engine.output,
            engine,
            map,
            cfg: cfg.clone(),
        }
    }

    /// Replaces the work-stealing policy (builder form).
    pub fn with_steal(mut self, steal: StealPolicy) -> FusedPlan {
        self.engine.set_steal(steal);
        self
    }

    /// Replaces the work-stealing policy in place (call before running).
    pub fn set_steal(&mut self, steal: StealPolicy) {
        self.engine.set_steal(steal);
    }

    /// The active work-stealing policy.
    pub fn steal_policy(&self) -> StealPolicy {
        self.engine.steal_policy()
    }

    /// Deque sets built because the arena had no pooled fit; flat across
    /// executions means stealing's steady state is allocation-free.
    pub fn steal_misses(&self) -> u64 {
        self.engine.steal_misses()
    }

    /// The slice partition in use.
    pub fn map(&self) -> &SliceMap {
        &self.map
    }

    /// Scratch-buffer allocations that missed the pools — zero growth
    /// across executions means the steady state is allocation-free.
    pub fn scratch_misses(&self) -> u64 {
        self.engine.scratch_misses()
    }

    /// Pre-sizes the scratch pools for `concurrency` simultaneous workers
    /// (across every PE sharing this plan) and pools a deque set per PE,
    /// so even the first execution's hot path never allocates; see
    /// [`GenericFusedPlan::prewarm`].
    pub fn prewarm(&self, concurrency: usize) {
        self.engine.prewarm(concurrency);
    }

    /// Executes the fused operator on the calling PE.
    ///
    /// `local_tables` are the `tables_per_pe` tables this PE owns (global
    /// indices `me×tpp ..`). `exec` is 1-based and must increase across
    /// reuses of the plan; reuses within one `run` need an interposed
    /// `ctx.barrier_all()`.
    pub fn execute(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &[EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        kind: ScheduleKind,
        exec: u64,
    ) {
        self.run(ctx, local_tables, gen, mode, kind, exec, None)
            .expect("an unbounded drain cannot time out");
    }

    /// Deadline-aware [`execute`](Self::execute) — the serving-path hook.
    ///
    /// The compute + PUT phase runs exactly as in `execute`; the drain
    /// phase polls each `sliceRdy` flag through
    /// [`PeCtx::wait_until_timeout`] against the *remaining* budget of
    /// `deadline` (measured from entry). A drain wait that outlives the
    /// budget does not abandon the protocol — the remaining slices are
    /// still collected with unbounded waits, so the plan stays reusable
    /// and the output is complete — but the call reports the miss as
    /// [`ShmemError::WaitTimeout`] so a serving layer can count the batch
    /// against its SLO instead of silently absorbing the overrun.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_deadline(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &[EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        kind: ScheduleKind,
        exec: u64,
        deadline: Duration,
    ) -> Result<(), ShmemError> {
        let budget = Some((Instant::now(), deadline));
        self.run(ctx, local_tables, gen, mode, kind, exec, budget)
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &[EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        kind: ScheduleKind,
        exec: u64,
        deadline: Option<(Instant, Duration)>,
    ) -> Result<(), ShmemError> {
        let _ctx_guard = fcc_shmem::scoped_ctx(crate::op::ctx_root(exec));
        self.publish(ctx, local_tables, gen, mode, kind, exec, ship_rows);
        self.engine.drain(ctx, exec, deadline)
    }

    /// The compute + slice-publication phase: pools every owned bag in
    /// `kind`'s logical-WG order, with `ship` moving network slices. The
    /// caller installs the execution's causal root.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn publish(
        &self,
        ctx: &PeCtx<'_>,
        local_tables: &[EmbeddingTable],
        gen: &BatchGenerator,
        mode: PoolingMode,
        kind: ScheduleKind,
        exec: u64,
        ship: impl Fn(&PeCtx<'_>, &Outgoing<'_>) + Sync,
    ) {
        assert_eq!(
            local_tables.len(),
            self.cfg.tables_per_pe,
            "PE must hold its table shard"
        );
        let me = ctx.me();
        let first_table = me * self.cfg.tables_per_pe;
        let order = schedule::order(&self.map, me as u32, kind)
            .into_iter()
            .map(|wg| (self.map.slice_of_wg(wg).id as usize, wg as usize));
        let pool = |wg: usize, out: &mut [f32]| {
            let (lt, sample) = self.map.decode_wg(wg as u32);
            let bag = gen.bag(first_table + lt as usize, sample as usize);
            local_tables[lt as usize].pool_into(&bag, mode, out);
        };
        self.engine.publish(ctx, self, pool, exec, order, ship);
    }

    /// The slice engine this plan runs on.
    pub(crate) fn engine(&self) -> &GenericFusedPlan {
        &self.engine
    }

    /// The configuration the plan was built for.
    pub(crate) fn config(&self) -> &DlrmConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::reference;
    use fcc_shmem::ShmemWorld;

    fn tiny_cfg(n_pes: usize, batch: usize, tables_per_pe: usize) -> DlrmConfig {
        let mut cfg = DlrmConfig::hw_eval(n_pes, batch, tables_per_pe);
        cfg.table_rows = 64;
        cfg.dim = 16;
        cfg.pooling = 5;
        cfg
    }

    /// A plan on its world, with the reference tables and batch.
    struct Fixture {
        cfg: DlrmConfig,
        plan: FusedPlan,
        world: ShmemWorld,
        tables: Vec<EmbeddingTable>,
        gen: BatchGenerator,
    }

    impl Fixture {
        /// `groups` places the PEs in P2P groups; none is one fully
        /// connected node, where every vector is a direct store.
        fn new(cfg: DlrmConfig, slice_embeddings: usize, groups: &[u32]) -> Fixture {
            let mut layout = HeapLayout::new();
            let plan = FusedPlan::plan(&mut layout, &cfg, slice_embeddings);
            let mut world = ShmemWorld::new(cfg.n_pes, layout);
            if !groups.is_empty() {
                world = world.with_p2p_groups(groups.to_vec());
            }
            let (tables, gen) = (
                reference::build_tables(&cfg),
                reference::build_generator(&cfg),
            );
            Fixture {
                cfg,
                plan,
                world,
                tables,
                gen,
            }
        }

        /// Runs `f(plan, ctx, local tables, batch)` on every PE.
        fn run(
            &self,
            f: impl Fn(&FusedPlan, &PeCtx<'_>, &[EmbeddingTable], &BatchGenerator) + Sync,
        ) {
            let tpp = self.cfg.tables_per_pe;
            self.world.run(|ctx| {
                f(
                    &self.plan,
                    ctx,
                    &self.tables[ctx.me() * tpp..][..tpp],
                    &self.gen,
                )
            });
        }

        /// Bit-compares every destination with the unfused reference.
        fn assert_reference(&mut self, mode: PoolingMode, what: &str) {
            for dst in 0..self.cfg.n_pes {
                let got = self.world.read(dst, self.plan.output);
                let want =
                    reference::expected_output(&self.cfg, &self.tables, &self.gen, mode, dst);
                assert_eq!(got, want, "{what}, dst {dst} mismatch");
            }
        }
    }

    #[test]
    fn fused_matches_reference_on_every_topology() {
        use PoolingMode::{Mean, Sum};
        use ScheduleKind::{CommAware, Oblivious};
        // (what, (PEs, batch, tables/PE), slice width, pooling, order, P2P
        // groups). Distinct groups force the staging + PUT + sliceRdy
        // path; no groups is one fully connected node, where every vector
        // is a direct store (the zero-copy path).
        type Case = (
            &'static str,
            (usize, usize, usize),
            usize,
            PoolingMode,
            ScheduleKind,
            &'static [u32],
        );
        let cases: [Case; 11] = [
            ("network", (2, 8, 2), 2, Sum, CommAware, &[0, 1]),
            ("2 nodes x 2", (4, 16, 1), 2, Sum, CommAware, &[0, 0, 1, 1]),
            ("mean", (2, 8, 2), 4, Mean, CommAware, &[0, 1]),
            ("oblivious", (2, 8, 2), 2, Sum, Oblivious, &[0, 1]),
            ("wide slice", (2, 8, 1), 64, Sum, CommAware, &[0, 1]),
            ("slice of 1", (2, 4, 2), 1, Sum, CommAware, &[0, 1]),
            ("single PE", (1, 4, 3), 2, Sum, CommAware, &[]),
            ("one node", (2, 8, 2), 2, Sum, CommAware, &[]),
            ("one node x 4", (4, 8, 2), 2, Sum, CommAware, &[]),
            ("one node x 4, mean", (4, 8, 2), 2, Mean, CommAware, &[]),
            ("one node, 2x3", (2, 6, 3), 2, Sum, CommAware, &[]),
        ];
        for (what, (n, batch, tpp), slice, mode, kind, groups) in cases {
            let mut fx = Fixture::new(tiny_cfg(n, batch, tpp), slice, groups);
            // Two executions: the second proves the plan reusable.
            for exec in 1..=2 {
                fx.run(|plan, ctx, local, gen| plan.execute(ctx, local, gen, mode, kind, exec));
                fx.assert_reference(mode, &format!("{what}, exec {exec}"));
            }
        }
    }

    #[test]
    fn deadline_generous_budget_completes_ok() {
        let mut fx = Fixture::new(tiny_cfg(2, 8, 2), 2, &[0, 1]);
        fx.run(|plan, ctx, local, gen| {
            let budget = Duration::from_secs(30);
            plan.execute_deadline(
                ctx,
                local,
                gen,
                PoolingMode::Sum,
                ScheduleKind::CommAware,
                1,
                budget,
            )
            .expect("generous deadline must not be missed");
        });
        fx.assert_reference(PoolingMode::Sum, "generous deadline");
    }

    #[test]
    fn deadline_miss_still_completes_and_stays_reusable() {
        // A zero budget may or may not be missed depending on who drains
        // first — the contract under test is that *either way* the output
        // is complete and the plan remains reusable for the next exec.
        let mut fx = Fixture::new(tiny_cfg(2, 8, 1), 2, &[0, 1]);
        for exec in 1..=2u64 {
            fx.run(|plan, ctx, local, gen| {
                let (sum, aware) = (PoolingMode::Sum, ScheduleKind::CommAware);
                let res = plan.execute_deadline(ctx, local, gen, sum, aware, exec, Duration::ZERO);
                if let Err(e) = res {
                    assert!(
                        matches!(e, ShmemError::WaitTimeout { .. }),
                        "unexpected error: {e}"
                    );
                }
            });
            fx.assert_reference(PoolingMode::Sum, &format!("exec {exec}"));
        }
    }

    #[test]
    fn fused_sequential_steal_schedules_match_reference() {
        // The deterministic steal interleaving perturbs execution order
        // only — every seed must still produce the reference output.
        for seed in 0..4u64 {
            let mut fx = Fixture::new(tiny_cfg(2, 8, 2), 2, &[0, 1]);
            fx.plan.set_steal(StealPolicy::sequential(seed));
            let (sum, aware) = (PoolingMode::Sum, ScheduleKind::CommAware);
            fx.run(|plan, ctx, local, gen| plan.execute(ctx, local, gen, sum, aware, 1));
            fx.assert_reference(sum, &format!("seed {seed}"));
        }
    }

    #[test]
    fn fused_steal_arena_steady_state_hits_the_pool() {
        let fx = Fixture::new(tiny_cfg(2, 8, 1), 2, &[0, 1]);
        fx.plan.prewarm(16);
        let (sum, aware) = (PoolingMode::Sum, ScheduleKind::CommAware);
        for exec in 1..=4u64 {
            fx.run(|plan, ctx, local, gen| plan.execute(ctx, local, gen, sum, aware, exec));
        }
        let plan = &fx.plan;
        assert_eq!(
            plan.steal_misses(),
            0,
            "prewarmed arena must absorb every execution"
        );
        assert_eq!(plan.scratch_misses(), 0, "prewarmed scratch pools missed");
    }
}
