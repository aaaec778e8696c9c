//! The data-plane workloads: the fused embedding + All-to-All operator
//! against the unfused pool + `AllToAllPlan` composition on real PE
//! threads, plus replays of the inner layers one execution calls.

use std::hint::black_box;
use std::time::Instant;

use fcc_collectives::functional::AllToAllPlan;
use fcc_core::op::reference;
use fcc_core::schedule::{self, steal::execute_stealing};
use fcc_core::{FusedPlan, ScheduleKind, StealArena};
use fcc_dlrm::{BatchGenerator, DlrmConfig, EmbeddingTable, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{RingStats, ShmemWorld, SymFlags, SymSlice};

use crate::stats::Samples;
use crate::trace::Tracer;

const PES: usize = 2;
const MODE: PoolingMode = PoolingMode::Sum;
/// Independently allocated plans and worlds the executions rotate over.
/// One plan's fused p50 depends on where its buffers landed: on a 2-core
/// host, four plans of one process held p50s of 1.37 and 1.70 ms (4x the
/// `a2a-comm` batch) for a whole run, alternating by allocation order. A
/// run of one plan drew one of those states; an even number of lanes
/// holds both in every run.
pub const LANES: usize = 8;

/// SplitMix64 finalizer: derives independent seeds from `(seed, key)`.
pub fn mix(seed: u64, key: u64) -> u64 {
    let mut z = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An operator shape: the DLRM configuration and the slice width.
#[derive(Debug, Clone)]
pub struct Shape {
    pub cfg: DlrmConfig,
    pub slice: usize,
}

impl Shape {
    /// The throughput harness's point: 64-row tables of dim 16, bags of 2,
    /// slices of 4 rows. Pooling is nearly free; row PUTs dominate.
    pub fn comm(seed: u64) -> Shape {
        let mut cfg = DlrmConfig::hw_eval(PES, 32 * PES, 4);
        cfg.table_rows = 64;
        cfg.dim = 16;
        cfg.pooling = 2;
        cfg.seed = mix(seed, 1);
        Shape { cfg, slice: 4 }
    }

    /// Dim-128 tables of 32k rows (64 MiB in total), bags of 32, slices of
    /// 16 rows: the pooling gather dominates and each execution makes a
    /// few large strided PUTs.
    pub fn compute(seed: u64) -> Shape {
        let mut cfg = DlrmConfig::hw_eval(PES, 32 * PES, 2);
        cfg.table_rows = 32 * 1024;
        cfg.dim = 128;
        cfg.pooling = 32;
        cfg.seed = mix(seed, 2);
        Shape { cfg, slice: 16 }
    }
}

/// Verified outputs against attempted ones.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Set-up costs of one [`DataPlane::new`].
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub tables_s: f64,
    pub plan_ms: f64,
}

/// Buffers for replaying PUTs and flag round trips outside the operator.
struct Replay {
    world: ShmemWorld,
    out: SymSlice<f32>,
    ping: SymFlags,
    pong: SymFlags,
    rounds: u64,
    arena: StealArena,
    memcpy_src: Vec<f32>,
    memcpy_dst: Vec<f32>,
}

/// One fused plan and one unfused plan, each with its own world.
struct Lane {
    plan: FusedPlan,
    world: ShmemWorld,
    a2a: AllToAllPlan<f32>,
    uworld: ShmemWorld,
    /// Executions of `plan`; the plan needs them numbered 1, 2, 3, ...
    execs: u64,
    rounds: u64,
}

impl Lane {
    /// A lane, and the milliseconds `FusedPlan::plan` + `prewarm` took.
    fn new(cfg: &DlrmConfig, slice: usize) -> (Lane, f64) {
        let t = Instant::now();
        let mut layout = HeapLayout::new();
        let plan = FusedPlan::plan(&mut layout, cfg, slice);
        let workers = plan
            .steal_policy()
            .effective_workers(plan.map().num_wgs() as usize);
        plan.prewarm(PES * workers);
        let plan_ms = t.elapsed().as_secs_f64() * 1e3;
        let world = network_world(layout);

        let mut ulayout = HeapLayout::new();
        let per_pair = cfg.tables_per_pe * cfg.local_batch() * cfg.dim;
        let a2a = AllToAllPlan::<f32>::plan(&mut ulayout, PES, per_pair);
        let uworld = network_world(ulayout);
        let lane = Lane {
            plan,
            world,
            a2a,
            uworld,
            execs: 0,
            rounds: 0,
        };
        (lane, plan_ms)
    }
}

pub struct DataPlane {
    pub cfg: DlrmConfig,
    slice: usize,
    seed: u64,
    tables: Vec<EmbeddingTable>,
    lanes: Vec<Lane>,
    /// Inputs drawn so far.
    inputs: u64,
    replay: Replay,
    pub checks: Checks,
}

/// A world whose PEs sit in separate P2P groups, so PUTs take the network
/// path.
fn network_world(layout: HeapLayout) -> ShmemWorld {
    ShmemWorld::new(PES, layout).with_p2p_groups((0..PES as u32).collect())
}

impl DataPlane {
    /// Builds the tables and [`LANES`] lanes of plans and worlds, then runs
    /// and verifies one warm-up execution of each path on every lane.
    pub fn new(shape: Shape, seed: u64) -> (DataPlane, SetupTimes) {
        let cfg = shape.cfg;
        let t0 = Instant::now();
        let tables = reference::build_tables(&cfg);
        let tables_s = t0.elapsed().as_secs_f64();

        let (lanes, plan_ms): (Vec<Lane>, Vec<f64>) =
            (0..LANES).map(|_| Lane::new(&cfg, shape.slice)).unzip();

        let mut rlayout = HeapLayout::new();
        let out = rlayout.alloc::<f32>(cfg.local_batch() * PES * cfg.tables_per_pe * cfg.dim);
        let ping = rlayout.alloc_flags(1);
        let pong = rlayout.alloc_flags(1);
        let gathered = cfg.tables_per_pe * cfg.global_batch * (cfg.pooling + 1) * cfg.dim;
        let replay = Replay {
            world: network_world(rlayout),
            out,
            ping,
            pong,
            rounds: 0,
            arena: StealArena::new(),
            memcpy_src: (0..gathered).map(|i| i as f32).collect(),
            memcpy_dst: vec![0.0; gathered],
        };

        let mut dp = DataPlane {
            cfg,
            slice: shape.slice,
            seed,
            tables,
            lanes,
            inputs: 0,
            replay,
            checks: Checks::default(),
        };
        let off = Tracer::new(false);
        for lane in 0..LANES {
            let (exec, gen) = dp.next_input();
            dp.run_fused(lane, exec, &gen, &off);
            dp.run_unfused(lane, exec, &gen, &off);
            let expected = dp.expected(&gen);
            let ok = dp.fused_matches(lane, &expected);
            dp.checks.record(ok);
            let ok = dp.unfused_matches(lane, &expected);
            dp.checks.record(ok);
        }
        let plan_ms = plan_ms.iter().sum::<f64>() / LANES as f64;
        (dp, SetupTimes { tables_s, plan_ms })
    }

    /// Every lane's fused plan is the same plan.
    fn plan(&self) -> &FusedPlan {
        &self.lanes[0].plan
    }

    /// Steal workers each PE runs per execution.
    pub fn steal_workers(&self) -> usize {
        let plan = self.plan();
        plan.steal_policy()
            .effective_workers(plan.map().num_wgs() as usize)
    }

    pub fn slice(&self) -> usize {
        self.slice
    }

    /// The next input index and a fresh input generator drawn from
    /// `(seed, input index)`.
    pub fn next_input(&mut self) -> (u64, BatchGenerator) {
        self.inputs += 1;
        let gen = BatchGenerator::new(
            mix(self.seed, self.inputs),
            self.cfg.table_rows,
            self.cfg.pooling,
        );
        (self.inputs, gen)
    }

    /// One fused execution (`ShmemWorld::run` call) on `lane`, wall
    /// microseconds. `input` labels the spans.
    pub fn run_fused(
        &mut self,
        lane: usize,
        input: u64,
        gen: &BatchGenerator,
        tracer: &Tracer,
    ) -> f64 {
        let l = &mut self.lanes[lane];
        l.execs += 1;
        let (cfg, tables, plan, exec) = (&self.cfg, &self.tables, &l.plan, l.execs);
        let root = tracer.id();
        let start_ns = tracer.now_ns();
        let t0 = Instant::now();
        l.world.run(|ctx| {
            let me = ctx.me();
            let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
            tracer.span("core.execute", Some(root), input, |_| {
                plan.execute(ctx, local, gen, MODE, ScheduleKind::CommAware, exec)
            });
        });
        let us = t0.elapsed().as_secs_f64() * 1e6;
        tracer.record(root, None, "fused.run", input, start_ns);
        us
    }

    /// One unfused execution on `lane`: every PE pools its whole output
    /// into the send buffer, then a bulk `AllToAllPlan` round. Wall
    /// microseconds.
    pub fn run_unfused(
        &mut self,
        lane: usize,
        exec: u64,
        gen: &BatchGenerator,
        tracer: &Tracer,
    ) -> f64 {
        let l = &mut self.lanes[lane];
        l.rounds += 1;
        let (cfg, tables, a2a, round) = (&self.cfg, &self.tables, &l.a2a, l.rounds);
        let root = tracer.id();
        let start_ns = tracer.now_ns();
        let t0 = Instant::now();
        l.uworld.run(|ctx| {
            let me = ctx.me();
            let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
            let (lb, dim, per_pair) = (cfg.local_batch(), cfg.dim, a2a.per_pair());
            tracer.span("dlrm.pool_pass", Some(root), exec, |_| {
                let mut chunk = vec![0.0f32; per_pair];
                for dst in 0..PES {
                    for (lt, table) in local.iter().enumerate() {
                        for ls in 0..lb {
                            let bag = gen.bag(me * cfg.tables_per_pe + lt, dst * lb + ls);
                            let off = (lt * lb + ls) * dim;
                            table.pool_into(&bag, MODE, &mut chunk[off..off + dim]);
                        }
                    }
                    ctx.put(a2a.src, dst * per_pair, &chunk, me);
                }
            });
            tracer.span("coll.a2a", Some(root), exec, |_| a2a.execute(ctx, round));
        });
        let us = t0.elapsed().as_secs_f64() * 1e6;
        tracer.record(root, None, "unfused.run", exec, start_ns);
        us
    }

    /// The sequential oracle's output for every destination PE.
    pub fn expected(&self, gen: &BatchGenerator) -> Vec<Vec<f32>> {
        (0..PES)
            .map(|dst| reference::expected_output(&self.cfg, &self.tables, gen, MODE, dst))
            .collect()
    }

    /// Whether `lane`'s fused output equals `expected` bit for bit.
    pub fn fused_matches(&mut self, lane: usize, expected: &[Vec<f32>]) -> bool {
        let l = &mut self.lanes[lane];
        (0..PES).all(|dst| bits_equal(&l.world.read(dst, l.plan.output), &expected[dst]))
    }

    /// Whether `lane`'s unfused output, re-laid out from `{source, table,
    /// sample}` chunks into the fused `{sample, table}` layout, equals
    /// `expected` bit for bit.
    pub fn unfused_matches(&mut self, lane: usize, expected: &[Vec<f32>]) -> bool {
        let (tpp, lb, dim) = (self.cfg.tables_per_pe, self.cfg.local_batch(), self.cfg.dim);
        let total_tables = PES * tpp;
        let l = &mut self.lanes[lane];
        let per_pair = l.a2a.per_pair();
        (0..PES).all(|dst| {
            let got = l.uworld.read(dst, l.a2a.dst);
            let mut laid_out = vec![0.0f32; expected[dst].len()];
            for src in 0..PES {
                for lt in 0..tpp {
                    for ls in 0..lb {
                        let from = src * per_pair + (lt * lb + ls) * dim;
                        let to = ls * total_tables * dim + (src * tpp + lt) * dim;
                        laid_out[to..to + dim].copy_from_slice(&got[from..from + dim]);
                    }
                }
            }
            bits_equal(&laid_out, &expected[dst])
        })
    }

    /// Overwrites one element of PE 0's fused output on `lane` with a
    /// wrong value — the benchmark's own test uses it to prove mismatches
    /// are counted.
    pub fn corrupt_fused_output(&mut self, lane: usize, expected: &[Vec<f32>]) {
        let wrong = f32::from_bits(expected[0][0].to_bits() ^ 1);
        let l = &mut self.lanes[lane];
        l.world.write(0, l.plan.output, 0, &[wrong]);
    }

    /// Ring counters summed over the lanes' fused worlds.
    pub fn ring_stats(&self) -> RingStats {
        let mut sum = RingStats::default();
        for l in &self.lanes {
            let r = l.world.ring_stats();
            sum.ring_puts += r.ring_puts;
            sum.full_spins += r.full_spins;
            sum.bypasses += r.bypasses;
        }
        sum
    }

    pub fn scratch_misses(&self) -> u64 {
        self.lanes.iter().map(|l| l.plan.scratch_misses()).sum()
    }

    pub fn steal_misses(&self) -> u64 {
        self.lanes.iter().map(|l| l.plan.steal_misses()).sum()
    }

    /// Replays, on PE 0's share of execution `gen`, the inner layers the
    /// operator calls but the benchmark cannot wrap in place: bag
    /// generation, pooling (beside a memcpy of the same bytes), the steal
    /// scheduler, row and strided PUTs, and the fence + flag round trip.
    pub fn replay_inner_layers(&mut self, gen: &BatchGenerator, samples: &mut Samples) {
        let cfg = &self.cfg;
        let plan = &self.lanes[0].plan;
        let map = plan.map();
        let wgs: Vec<(usize, usize)> = (0..map.num_wgs())
            .map(|wg| {
                let (lt, sample) = map.decode_wg(wg);
                (lt as usize, sample as usize)
            })
            .collect();

        let t = Instant::now();
        let bags: Vec<Vec<u32>> = wgs.iter().map(|&(lt, s)| gen.bag(lt, s)).collect();
        samples.push("dlrm.bag_ns", ns(t) / bags.len() as f64);
        black_box(&bags);

        let mut out = vec![0.0f32; cfg.dim];
        let t = Instant::now();
        for (&(lt, _), bag) in wgs.iter().zip(&bags) {
            self.tables[lt].pool_into(bag, MODE, &mut out);
            black_box(&mut out);
        }
        let pool_ns = ns(t);
        let bytes = (bags.len() * (cfg.pooling + 1) * cfg.dim * 4) as f64;
        samples.push("dlrm.pool_ns", pool_ns / bags.len() as f64);
        samples.push("dlrm.pool_gbps", bytes / pool_ns);

        let r = &mut self.replay;
        let t = Instant::now();
        r.memcpy_dst.copy_from_slice(black_box(&r.memcpy_src));
        samples.push("host.memcpy_gbps", bytes / ns(t));
        black_box(&r.memcpy_dst);

        let tasks: Vec<u64> = schedule::order(map, 0, ScheduleKind::CommAware)
            .into_iter()
            .map(u64::from)
            .collect();
        let policy = plan.steal_policy();
        let t = Instant::now();
        let stats = execute_stealing(&r.arena, &tasks, policy, |_, task| {
            black_box(task);
        });
        samples.push("core.steal_sched_us", ns(t) / 1e3);
        samples.push("core.steals", stats.stolen as f64);
        samples.push("core.workers", policy.effective_workers(tasks.len()) as f64);

        // PE 0's network slices: rows put one by one, then the same slice
        // as one strided PUT, each followed by the fence the operator
        // issues before its flag.
        let remote: Vec<_> = map
            .slices()
            .iter()
            .filter(|s| s.dst_pe != 0)
            .copied()
            .collect();
        let stride = PES * cfg.tables_per_pe * cfg.dim;
        let dim = cfg.dim;
        let base = r.rounds;
        r.rounds += remote.len() as u64;
        let (out_buf, ping, pong) = (r.out, r.ping, r.pong);
        let per_pe = r.world.run_collect(|ctx| {
            let mut row_ns = Vec::new();
            let mut strided_us = Vec::new();
            let mut rtt_us = Vec::new();
            if ctx.me() == 0 {
                for info in &remote {
                    let payload = vec![1.0f32; info.len as usize * dim];
                    let (dst, off) = map.dst_offset(0, info.table, info.sample_start, dim);
                    let t = Instant::now();
                    for (i, row) in payload.chunks_exact(dim).enumerate() {
                        ctx.put(out_buf, off + i * stride, row, dst as usize);
                    }
                    row_ns.push(ns(t) / info.len as f64);
                    ctx.fence();
                    let t = Instant::now();
                    ctx.put_strided(out_buf, off, stride, &payload, dim, dst as usize);
                    strided_us.push(ns(t) / 1e3);
                    ctx.fence();
                }
                for i in 1..=remote.len() as u64 {
                    let t = Instant::now();
                    ctx.fence();
                    ctx.flag_store(ping, 0, base + i, 1);
                    ctx.wait_until(pong, 0, |v| v >= base + i);
                    rtt_us.push(ns(t) / 1e3);
                }
            } else {
                for i in 1..=remote.len() as u64 {
                    ctx.wait_until(ping, 0, |v| v >= base + i);
                    ctx.flag_store(pong, 0, base + i, 0);
                }
            }
            (row_ns, strided_us, rtt_us)
        });
        let (row_ns, strided_us, rtt_us) = per_pe.into_iter().next().expect("PE 0 reports");
        samples.extend("shmem.put_row_ns", row_ns);
        samples.extend("shmem.put_strided_us", strided_us);
        samples.extend("shmem.flag_rtt_us", rtt_us);
    }
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
