//! # saq-protocols — distributed protocol runtime over `saq-netsim`
//!
//! The paper assumes only that *"the root can initiate some protocols and
//! get back the results"* (§2.1); concretely its Fact 2.1 relies on
//! broadcast–convergecast over a bounded-degree spanning tree \[9, 13\].
//! This crate provides that substrate as real distributed state machines
//! executing inside the discrete-event simulator:
//!
//! * [`tree`] — spanning-tree construction: centralized BFS, a
//!   **bounded-degree** BFS variant (the paper remarks bounded degree is
//!   required for low *individual* communication), and a fully
//!   distributed flooding construction whose cost is itself measured;
//! * [`wave`] — the generic broadcast–convergecast engine: a
//!   [`wave::WaveProtocol`] describes one aggregate (request encoding,
//!   per-node contribution, in-place merge, partial encoding), a
//!   [`wave::WaveSubstrate`] is the contract for executing its waves, and
//!   [`wave::WaveRunner`] executes root-initiated waves event by event,
//!   optionally with per-hop ARQ under lossy links — the timing-faithful
//!   oracle (virtual time, jitter, lossy links without ARQ);
//! * [`mux`] — [`mux::Envelope`], the slot, cache and billing hooks a
//!   tree runner drives, and [`mux::MultiplexWave`], which batches an
//!   inner protocol's sub-requests into one wave, billing each slot;
//! * [`rings`] — the multipath "synopsis diffusion" overlay of Considine
//!   et al. / Nath et al.: duplicate-prone by design, safe only for ODI
//!   synopses;
//! * [`gossip`] — Kempe–Dobra–Gehrke push-sum, the substrate for the
//!   gossip baseline;
//! * [`cache`] — subtree partial caching for the wave runner: interior
//!   nodes store their merged subtree partials keyed by the encoded
//!   sub-request and answer repeats without re-contributing leaf items;
//! * [`row`] — fixed-width slots (counts, sums, min/max with runner-up)
//!   as rows of words: the word kernels the flat runner folds, merges
//!   and bills them with;
//! * [`flat`] — the columnar flat-tree runner: per-node state in
//!   contiguous position-indexed columns over `saq_netsim::flat`, waves
//!   as two array sweeps, and **nested** static sharding that re-cuts
//!   oversized subtrees at their own roots, worker groups re-joined at a
//!   deterministic barrier — the parallel, million-node substrate,
//!   bit-identical to the boxed [`wave::WaveRunner`].
//!
//! Aggregate *semantics* (what COUNT, MEDIAN, etc. mean) live in
//! `saq-core` and `saq-baselines`; this crate only moves bits.

pub mod cache;
pub mod error;
pub mod flat;
pub mod gossip;
pub mod mux;
pub mod obs;
pub mod rings;
pub mod row;
#[cfg(test)]
pub(crate) mod test_protocols;
pub mod tree;
pub mod wave;

pub use cache::{CacheKey, CacheStats, PartialCache};
pub use error::ProtocolError;
pub use flat::FlatWaveRunner;
pub use mux::{Envelope, MultiplexWave, MuxEntry, MuxLedger, MuxSlotBits, MUX_MAX_SLOTS};
pub use obs::{FateReplay, Hop, NodeTraceEntry, ReplayEvent};
pub use row::{RowKernel, RowSource};
pub use tree::SpanningTree;
pub use wave::{TransportFootprint, WaveProtocol, WaveRunner, WaveSubstrate};
