//! # saq-netsim — discrete-event sensor-network simulator
//!
//! This crate is the bottom substrate of the `saq` workspace: a
//! deterministic discrete-event simulator for multi-hop radio networks with
//! **bit-exact communication accounting**.
//!
//! The paper reproduced by this workspace (Patt-Shamir, *A note on efficient
//! aggregate queries in sensor networks*, PODC 2004) measures protocols by
//! their *individual communication complexity*: the maximum, over all nodes,
//! of the number of bits transmitted **and** received by that node. This
//! simulator exists to measure exactly that quantity, so everything a
//! protocol sends is a real bit string produced by [`wire::BitWriter`] and
//! every delivery is charged to both endpoints in [`stats::NetStats`].
//!
//! ## Layers
//!
//! * [`time`] — virtual clock ([`time::SimTime`], [`time::SimDuration`]).
//! * [`rng`] — deterministic, splittable random streams (SplitMix64 +
//!   xoshiro256\*\*) so simulations are reproducible bit-for-bit.
//! * [`wire`] — bit-level message codec (fixed width, unary, Elias gamma /
//!   delta) used for honest message sizing.
//! * [`topology`] — static network graphs and generators (line, ring, grid,
//!   star, complete, balanced trees, random geometric).
//! * [`link`] — link behaviour: latency, Bernoulli loss, duplication.
//! * [`energy`] — per-bit radio energy model and per-node ledger.
//! * [`stats`] — per-node transmit/receive counters and summaries.
//! * [`sim`] — the event loop: [`sim::Simulator`], the [`sim::NodeRuntime`]
//!   state-machine trait, packets and timers.
//! * [`flat`] — the columnar tree substrate: [`flat::FlatTree`] (node
//!   state in position-indexed columns) and the nested
//!   [`flat::ShardPlan`] the parallel flat runner executes.
//!
//! ## Quick example
//!
//! ```
//! use saq_netsim::topology::Topology;
//! use saq_netsim::sim::{IdleNode, Simulator, SimConfig};
//!
//! # fn main() -> Result<(), saq_netsim::NetsimError> {
//! let topo = Topology::grid(4, 4)?;
//! let sim: Simulator<IdleNode> = Simulator::new(topo, SimConfig::default());
//! assert_eq!(sim.len(), 16);
//! # Ok(())
//! # }
//! ```
//!
//! Protocol logic lives in the `saq-protocols` crate; this crate knows
//! nothing about spanning trees or aggregation.

pub mod energy;
pub mod error;
pub mod event;
pub mod flat;
pub mod link;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;
pub mod wire;

pub use error::NetsimError;
pub use sim::{NodeId, Simulator};
pub use time::{SimDuration, SimTime};
pub use topology::Topology;
