//! Functional (real-data) executions of the fused operators.

use fcc_shmem::TraceCtx;

pub mod elastic;
pub mod fused;
pub mod generic;
pub mod recovery;
pub mod reference;
pub mod resilient;

/// The causal root an operator execution runs under: the ambient context
/// when a boundary (serving loop, trainer) already minted one, otherwise
/// a freshly minted per-execution step context — so direct harness calls
/// still produce fully attributed traces. The slice qualifier is cleared
/// either way; slices re-qualify per publication.
pub(crate) fn ctx_root(exec: u64) -> TraceCtx {
    let cur = fcc_shmem::current_ctx();
    if cur.is_none() {
        TraceCtx::step(exec)
    } else {
        cur.root()
    }
}

pub use elastic::{ElasticFusedPlan, SliceJob};
pub use fused::FusedPlan;
pub use generic::{FusedGeometry, FusedProducer, GenericFusedPlan};
pub use recovery::{ElasticTrainer, PeOutcome, TrainerConfig, TrainerReport};
pub use resilient::ResilientFusedPlan;
