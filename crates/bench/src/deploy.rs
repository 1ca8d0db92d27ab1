//! Shared deployment policy for the experiment harness: route the
//! large-N sweeps — lossless *and* lossy — through the columnar flat
//! substrate.
//!
//! PR 6 made the flat struct-of-arrays runner with nested shard plans
//! bit-identical to the boxed event-driven runner, and ISSUE-7's
//! per-edge fate streams extended that bit-identity to lossy links
//! under ARQ (answers, ledgers, caches, per-node bit statistics,
//! retransmission bills — see `tests/sharded_equality.rs`'s boxed
//! oracle × flat plan × reliability matrix), so the only question per
//! experiment is wall-clock. [`builder_for`] applies one policy
//! everywhere: deployments big enough to amortize the per-wave thread
//! fan-out run on flat columns across all of the machine's cores — the
//! nested `ShardPlan` re-cuts oversized subtrees, so no root-partition
//! balance limit caps the worker count; small sweeps stay on the boxed
//! single-threaded runner.
//! Lossy deployments configure loss + `Reliability::Ack` on the
//! returned builder and ride the same routing (E18's loss sweep runs
//! at N = 10⁵ this way). The `experiments_smoke` suite asserts the
//! harness path reports the same bits either way and that a lossy
//! n ≥ 1024 deployment really lands on the flat runner.

use saq_core::simnet::SimNetworkBuilder;

/// Below this node count the per-wave thread fan-out costs more than
/// it buys; quick-scale CI sweeps stay below it by design.
pub const SHARD_THRESHOLD_NODES: usize = 1024;

/// Workers the harness uses for a deployment of `n` nodes:
/// `1` for small sweeps, else all of the machine's parallelism — the
/// flat runner's nested shard plan keeps per-worker blocks balanced
/// regardless of the root's subtree shapes (E16's scaling curve).
pub fn harness_shards(n: usize) -> usize {
    if n < SHARD_THRESHOLD_NODES {
        return 1;
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The harness's standard builder for an `n`-node deployment:
/// [`SimNetworkBuilder::new`] with the flat/worker policy applied.
/// Configure everything else (degree bounds, sketch seeds, caches,
/// link loss + ARQ reliability) on the result as usual — lossy
/// deployments route exactly like lossless ones.
pub fn builder_for(n: usize) -> SimNetworkBuilder {
    SimNetworkBuilder::new()
        .flat(n >= SHARD_THRESHOLD_NODES)
        .shards(harness_shards(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweeps_stay_single_threaded() {
        assert_eq!(harness_shards(0), 1);
        assert_eq!(harness_shards(SHARD_THRESHOLD_NODES - 1), 1);
    }

    #[test]
    fn large_sweeps_use_all_available_cores() {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(harness_shards(SHARD_THRESHOLD_NODES), cores);
    }
}
