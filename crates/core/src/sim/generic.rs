//! Timed simulation for [`crate::op::generic::FusedProducer`] workloads.
//!
//! Level-2 users of the library (see `docs/TUTORIAL.md`) implement
//! `FusedProducer` once and get the functional operator for free; this
//! module gives them the *pricing* side with its geometry half
//! ([`FusedGeometry`]) plus one extra method — how many bytes each item moves through memory — so a
//! design can be tuned on the simulator before it is built.

use fcc_gpu::config::GpuConfig;
use fcc_gpu::exec::{PersistentExec, TaskUnit, WgPlan};
use fcc_gpu::kernel::KernelResources;
use fcc_gpu::occupancy::occupancy;
use fcc_net::Topology;
use fcc_shmem::timed::TimedEndpoint;
use fcc_sim::SimTime;

use crate::op::generic::FusedGeometry;
use crate::sim::FusedTuning;

/// Cost annotations for a producer: how much work each item is.
pub trait ProducerCost: FusedGeometry {
    /// HBM bytes item `(me, item)` moves (reads + writes) — the
    /// processor-sharing work unit.
    fn work_bytes(&self, me: usize, item: usize) -> f64;

    /// Kernel resource footprint (defaults to the fused embedding
    /// kernel's: 256 threads, SHMEM-context register pressure).
    fn resources(&self) -> KernelResources {
        KernelResources::embedding_fused()
    }
}

/// Outcome of pricing a producer on a system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenericTiming {
    /// Fused: persistent kernel with slice-granular PUTs.
    pub fused: SimTime,
    /// Unfused: full computation, then every slice shipped bulk.
    pub unfused: SimTime,
}

/// Prices a producer's fused vs unfused execution for source PE `me`
/// (symmetric workloads need only one PE's number).
///
/// Slices follow the same consecutive-same-destination grouping as the
/// functional [`crate::op::generic::GenericFusedPlan`], capped at
/// `items_per_slice`.
pub fn price_producer(
    producer: &(impl ProducerCost + ?Sized),
    me: usize,
    _n_pes: usize,
    gpu: &GpuConfig,
    topo: &Topology,
    items_per_slice: usize,
    tuning: &FusedTuning,
) -> GenericTiming {
    assert!(items_per_slice >= 1);
    let n_items = producer.num_items(me);
    let dim_bytes = (producer.dim() * 4) as u64;

    // Build slices: consecutive items sharing a destination.
    let mut slices: Vec<(usize, usize, usize)> = Vec::new(); // (first, len, dst)
    for item in 0..n_items {
        let (dst, _) = producer.destination(me, item);
        match slices.last_mut() {
            Some((_, len, d)) if *d == dst && *len < items_per_slice => *len += 1,
            _ => slices.push((item, 1, dst)),
        }
    }

    // Persistent-kernel compute: remote-first item order, strided deal.
    let occ = occupancy(gpu, &producer.resources());
    let n_persistent = (occ.wgs_per_device as usize).min(n_items.max(1));
    let mut order: Vec<usize> = (0..slices.len()).collect();
    order.sort_by_key(|&s| slices[s].2 == me);
    let items_in_order: Vec<usize> = order
        .iter()
        .flat_map(|&s| slices[s].0..slices[s].0 + slices[s].1)
        .collect();
    let mut plans = vec![WgPlan::default(); n_persistent];
    for (i, &item) in items_in_order.iter().enumerate() {
        plans[i % n_persistent].tasks.push(TaskUnit {
            id: item as u64,
            work: producer.work_bytes(me, item),
        });
    }

    // Map each item to its slice for last-finisher accounting.
    let mut slice_of_item = vec![0usize; n_items];
    for (si, &(first, len, _)) in slices.iter().enumerate() {
        slice_of_item[first..first + len].fill(si);
    }
    let mut remaining: Vec<usize> = slices.iter().map(|&(_, len, _)| len).collect();

    let hbm = gpu.hbm.clone();
    let tuning_copy = *tuning;
    let mut puts: Vec<(SimTime, usize)> = Vec::new();
    let exec = PersistentExec::new(move |n| hbm.aggregate(n), plans);
    let result = exec.run(|c| {
        let si = slice_of_item[c.id as usize];
        remaining[si] -= 1;
        let last = remaining[si] == 0;
        let remote = slices[si].2 != me;
        if last && remote {
            puts.push((
                c.end + tuning_copy.bookkeeping + tuning_copy.api_latency,
                si,
            ));
            tuning_copy.bookkeeping + tuning_copy.api_latency
        } else {
            tuning_copy.bookkeeping
        }
    });

    // Fused: overlap the PUTs with compute through the NIC.
    let mut ep = TimedEndpoint::new(me as u32, *topo.link());
    let mut last_arrival = SimTime::ZERO;
    for &(issue, si) in &puts {
        let bytes = slices[si].1 as u64 * dim_bytes;
        ep.put_nbi(issue, slices[si].2 as u32, bytes, si as u64);
        let flag = ep.flag_put(issue, slices[si].2 as u32, si as u64);
        last_arrival = last_arrival.max(flag.arrival);
    }
    let fused = gpu.kernel_launch_overhead + result.makespan.max(last_arrival) + tuning.drain_poll;

    // Unfused: same compute (no per-slice overheads), then bulk shipping.
    let hbm2 = gpu.hbm.clone();
    let mut plans2 = vec![WgPlan::default(); n_persistent];
    for (i, item) in (0..n_items).enumerate() {
        plans2[i % n_persistent].tasks.push(TaskUnit {
            id: item as u64,
            work: producer.work_bytes(me, item),
        });
    }
    let compute_only = PersistentExec::new(move |n| hbm2.aggregate(n), plans2)
        .run(|_| SimTime::ZERO)
        .makespan;
    let mut ep2 = TimedEndpoint::new(me as u32, *topo.link());
    let mut bulk_done = compute_only;
    for (si, &(_, len, dst)) in slices.iter().enumerate() {
        if dst != me {
            let d = ep2.put_nbi(compute_only, dst as u32, len as u64 * dim_bytes, si as u64);
            bulk_done = bulk_done.max(d.arrival);
        }
    }
    let unfused = gpu.kernel_launch_overhead
        + bulk_done
        + gpu.stream_sync_overhead
        + gpu.stream_sync_overhead;

    GenericTiming { fused, unfused }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_net::presets;

    /// A uniform exchange producer with tunable compute weight.
    struct Uniform {
        n_pes: usize,
        items_per_dst: usize,
        dim: usize,
        bytes_per_item: f64,
    }

    impl FusedGeometry for Uniform {
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
            (
                item / self.items_per_dst,
                (me * self.items_per_dst + item % self.items_per_dst) * self.dim,
            )
        }
    }

    impl ProducerCost for Uniform {
        fn work_bytes(&self, _me: usize, _item: usize) -> f64 {
            self.bytes_per_item
        }
    }

    fn producer(balanced: bool) -> Uniform {
        Uniform {
            n_pes: 2,
            items_per_dst: 4096,
            dim: 256,
            // Balanced: compute ≈ wire. Tiny: compute ≪ wire.
            bytes_per_item: if balanced { 45_056.0 } else { 64.0 },
        }
    }

    #[test]
    fn fused_wins_when_compute_can_hide_wire() {
        let p = producer(true);
        let t = price_producer(
            &p,
            0,
            2,
            &GpuConfig::mi210(),
            &presets::dual_node_ib(),
            32,
            &FusedTuning::default(),
        );
        assert!(
            t.fused < t.unfused,
            "fused {} !< unfused {}",
            t.fused,
            t.unfused
        );
    }

    #[test]
    fn no_compute_means_no_hiding() {
        // With negligible compute there is nothing to overlap: fused can
        // not beat unfused by more than the (tiny) compute, and per-slice
        // overheads may even make it slower.
        let p = producer(false);
        let t = price_producer(
            &p,
            0,
            2,
            &GpuConfig::mi210(),
            &presets::dual_node_ib(),
            32,
            &FusedTuning::default(),
        );
        let gain = t.unfused.as_nanos_f64() - t.fused.as_nanos_f64();
        assert!(
            gain < 0.15 * t.unfused.as_nanos_f64(),
            "implausible gain with no compute to hide"
        );
    }

    #[test]
    fn slice_width_sweeps_match_fig12_shape() {
        let p = producer(true);
        let at = |slice| {
            price_producer(
                &p,
                0,
                2,
                &GpuConfig::mi210(),
                &presets::dual_node_ib(),
                slice,
                &FusedTuning::default(),
            )
            .fused
        };
        let tiny = at(1);
        let wide = at(64);
        assert!(tiny >= wide, "tiny slices cannot be faster");
    }

    #[test]
    fn pricing_is_deterministic() {
        let p = producer(true);
        let run = || {
            price_producer(
                &p,
                0,
                2,
                &GpuConfig::mi210(),
                &presets::dual_node_ib(),
                16,
                &FusedTuning::default(),
            )
        };
        assert_eq!(run(), run());
    }
}
