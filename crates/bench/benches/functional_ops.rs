//! Wall-clock benchmarks of the *functional* operators on real threads.
//!
//! This is the CPU-scale analogue of the paper's headline comparison: the
//! fused operator (compute + communicate per slice, one pass) against the
//! unfused composition (full embedding pass, then a bulk All-to-All), and
//! the zero-copy variant against both. Absolute times are CPU times, but
//! the structural costs — extra staging copies, extra synchronization
//! phases — are real.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fcc_collectives::functional::AllToAllPlan;
use fcc_core::op::reference::{build_generator, build_tables};
use fcc_core::op::FusedPlan;
use fcc_core::ScheduleKind;
use fcc_dlrm::{DlrmConfig, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::ShmemWorld;

fn bench_cfg(n_pes: usize) -> DlrmConfig {
    let mut cfg = DlrmConfig::hw_eval(n_pes, 64, 8);
    cfg.table_rows = 512;
    cfg.dim = 64;
    cfg.pooling = 8;
    cfg
}

fn fused_vs_unfused(c: &mut Criterion) {
    let mut group = c.benchmark_group("embedding_alltoall");
    group.sample_size(10);

    for &n_pes in &[2usize, 4] {
        let cfg = bench_cfg(n_pes);
        let tables = build_tables(&cfg);
        let gen = build_generator(&cfg);

        // Fused: one plan, slice PUTs (forced network path via distinct
        // P2P groups).
        group.bench_with_input(BenchmarkId::new("fused", n_pes), &n_pes, |b, _| {
            let mut layout = HeapLayout::new();
            let plan = FusedPlan::plan(&mut layout, &cfg, 4);
            let world = ShmemWorld::new(n_pes, layout).with_p2p_groups((0..n_pes as u32).collect());
            let mut exec = 0u64;
            b.iter(|| {
                exec += 1;
                world.run(|ctx| {
                    let me = ctx.me();
                    let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
                    plan.execute(
                        ctx,
                        local,
                        &gen,
                        PoolingMode::Sum,
                        ScheduleKind::CommAware,
                        exec,
                    );
                });
            });
        });

        // Zero-copy: the same operator on one P2P group, where every
        // vector is a direct store (one slice per destination shard).
        group.bench_with_input(BenchmarkId::new("zero_copy", n_pes), &n_pes, |b, _| {
            let mut layout = HeapLayout::new();
            let plan = FusedPlan::plan(&mut layout, &cfg, cfg.local_batch());
            let world = ShmemWorld::new(n_pes, layout);
            let mut exec = 0u64;
            b.iter(|| {
                exec += 1;
                world.run(|ctx| {
                    let me = ctx.me();
                    let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
                    plan.execute(
                        ctx,
                        local,
                        &gen,
                        PoolingMode::Sum,
                        ScheduleKind::CommAware,
                        exec,
                    );
                });
            });
        });

        // Unfused: pool everything into the send buffer, then bulk
        // All-to-All.
        group.bench_with_input(BenchmarkId::new("unfused", n_pes), &n_pes, |b, _| {
            let mut layout = HeapLayout::new();
            let per_pair = cfg.tables_per_pe * cfg.local_batch() * cfg.dim;
            let a2a = AllToAllPlan::<f32>::plan(&mut layout, n_pes, per_pair);
            let world = ShmemWorld::new(n_pes, layout);
            let mut exec = 0u64;
            b.iter(|| {
                exec += 1;
                world.run(|ctx| {
                    let me = ctx.me();
                    let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
                    // Phase 1: full embedding pass into the send buffer.
                    let mut chunk = vec![0.0f32; cfg.tables_per_pe * cfg.local_batch() * cfg.dim];
                    for dst in 0..n_pes {
                        for (lt, table) in local.iter().enumerate() {
                            for ls in 0..cfg.local_batch() {
                                let sample = dst * cfg.local_batch() + ls;
                                let gt = me * cfg.tables_per_pe + lt;
                                let bag = gen.bag(gt, sample);
                                let off = (lt * cfg.local_batch() + ls) * cfg.dim;
                                table.pool_into(
                                    &bag,
                                    PoolingMode::Sum,
                                    &mut chunk[off..off + cfg.dim],
                                );
                            }
                        }
                        ctx.put(a2a.src, dst * per_pair, &chunk, me);
                    }
                    // Phase 2: bulk collective at the "kernel boundary".
                    a2a.execute(ctx, exec);
                });
            });
        });
    }
    group.finish();
}

/// §3.4 design choice: the fused kernel elects a last finisher with an
/// atomic `WG_Done` update instead of an inter-WG barrier, so WGs "make
/// forward progress after setting their flag instead of waiting". This
/// microbenchmark prices both designs: W workers complete a slice, one
/// must trigger communication.
fn election_vs_barrier(c: &mut Criterion) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    let mut group = c.benchmark_group("last_finisher");
    group.sample_size(20);
    for &workers in &[16usize, 64] {
        group.bench_with_input(
            BenchmarkId::new("atomic_election", workers),
            &workers,
            |b, &w| {
                b.iter(|| {
                    let counter = AtomicU64::new(0);
                    let fired = AtomicU64::new(0);
                    rayon::scope(|s| {
                        for _ in 0..w {
                            s.spawn(|_| {
                                // Non-last workers continue immediately.
                                if counter.fetch_add(1, Ordering::AcqRel) + 1 == w as u64 {
                                    fired.fetch_add(1, Ordering::Relaxed);
                                }
                            });
                        }
                    });
                    assert_eq!(fired.load(Ordering::Relaxed), 1);
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("barrier", workers), &workers, |b, &w| {
            b.iter(|| {
                let barrier = Barrier::new(w);
                let fired = AtomicU64::new(0);
                // Dedicated threads: a barrier inside a rayon scope can
                // deadlock on a small pool, which is itself part of why
                // kernels avoid inter-WG barriers.
                std::thread::scope(|s| {
                    for _ in 0..w {
                        s.spawn(|| {
                            if barrier.wait().is_leader() {
                                fired.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    }
                });
                assert_eq!(fired.load(Ordering::Relaxed), 1);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, fused_vs_unfused, election_vs_barrier);
criterion_main!(benches);
