//! Bipartite factor-graph topology and ADMM variable storage.
//!
//! The paper ("Testing fine-grained parallelism for the ADMM on a
//! factor-graph", arXiv:1603.02526) represents an objective
//! `f(w) = Σ_a f_a(w_∂a)` as a bipartite graph `G = (F, V, E)`: function
//! nodes `F`, variable nodes `V`, and an edge `(a,b)` whenever `f_a` depends
//! on component `w_b`. Each edge carries four ADMM auxiliary vectors
//! (`x, m, u, n`), each variable node carries one (`z`), and each edge also
//! carries two positive scalars (`ρ`, `α`).
//!
//! This crate owns:
//! * [`FactorGraph`] — immutable CSR topology in both directions
//!   (factor→edges and variable→edges),
//! * [`GraphBuilder`] — the `addNode`-style construction API,
//! * [`VarStore`] — flat structure-of-arrays storage for `x/m/u/n/z`,
//!   laid out exactly as the paper lays out GPU global memory: edge vectors
//!   in edge-creation order, `z` in variable-creation order,
//! * [`EdgeParams`] — per-edge `ρ` and `α`,
//! * [`BatchStore`] / [`BatchLayout`] — N independent instances packed
//!   into one block-diagonal fused store (offset-translated id maps,
//!   zero-cut shard partition) for batched multi-instance serving,
//! * [`GraphStats`] — degree statistics (the paper's conclusion discusses
//!   how degree imbalance throttles the z-update).
//!
//! Proximal operators are *not* stored here: topology is plain data, and the
//! engine crate (`paradmm-core`) pairs a `FactorGraph` with one prox per
//! factor.

mod aligned;
mod batch;
mod builder;
pub(crate) mod byteio;
mod graph;
mod ids;
pub mod io;
mod params;
mod partition;
mod reorder;
mod shard;
mod stats;
mod store;
mod stream;

pub use aligned::AlignedVec;
pub use batch::{BatchInstance, BatchLayout, BatchStore};
pub use builder::GraphBuilder;
pub use graph::FactorGraph;
pub use ids::{EdgeId, FactorId, VarId};
pub use params::EdgeParams;
pub use partition::Partition;
pub use reorder::Reordering;
pub use shard::{HaloExchangePlan, HaloReduceTask, HaloVarPlan, Shard, ShardedStore};
pub use stats::{GraphStats, PartitionStats};
pub use store::VarStore;
pub use stream::EdgeStream;
