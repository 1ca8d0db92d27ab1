//! # saq-core — efficient aggregate queries in sensor networks
//!
//! The primary contribution of the reproduced paper (Patt-Shamir,
//! PODC 2004 / TCS 2007): distributed protocols that compute the median
//! and order statistics of sensor data with **sublinear** per-node
//! communication, plus the distinct-counting dichotomy.
//!
//! | Algorithm | Paper anchor | Per-node bits | Guarantee |
//! |-----------|--------------|---------------|-----------|
//! | [`median::Median`] | Fig. 1, Thm 3.2 | `O((log N)^2)` | exact |
//! | [`apx_median::ApxMedian`] | Fig. 2, Thm 4.5/4.6 | `O((log X̄)^2 C_A/ε)` | `(3σ, 1/X̄)` w.p. `1−ε` |
//! | [`apx_median2::ApxMedian2`] | Fig. 4, Thm 4.7, Cor 4.8 | `O((log log N)^3)` | `(O(σ log 1/β), β)` w.p. `1−ε` |
//! | [`count_distinct::CountDistinct::exact`] | §5 | `Θ(distinct · log X̄)` | exact (`Ω(n)` is optimal: Thm 5.1) |
//! | [`count_distinct::CountDistinct::approximate`] | §2.2/§5 | `O(m log log N)` | `σ ≈ 1.3/√(m·reps)` |
//!
//! The algorithms are generic over [`net::AggregationNetwork`] — the
//! paper's abstract "root can initiate protocols" interface — with two
//! implementations: the in-memory [`local::LocalNetwork`] and the
//! discrete-event [`simnet::SimNetwork`] with bit-exact accounting.
//!
//! ## Quickstart
//!
//! ```
//! use saq_core::local::LocalNetwork;
//! use saq_core::median::Median;
//! use saq_core::apx_median::ApxMedian;
//!
//! # fn main() -> Result<(), saq_core::QueryError> {
//! let items: Vec<u64> = (0..101).map(|i| i * 2).collect();
//! let mut net = LocalNetwork::new(items, 200)?;
//! assert_eq!(Median::new().run(&mut net)?.value, 100);
//! let apx = ApxMedian::new(0.25)?.run(&mut net)?;
//! assert!(apx.value <= 200);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod apx_median;
pub mod apx_median2;
pub mod count_distinct;
pub mod counting;
pub mod engine;
pub mod error;
pub mod local;
pub mod median;
pub mod model;
pub mod net;
pub mod plan;
pub mod predicate;
pub mod service;
pub mod simnet;
pub mod streaming;
pub mod wave_proto;

pub use aggregate::{
    BottomKAgg, DeltaSupport, ItemRef, MinMaxPartial, PartialAggregate, QuantileAgg, RunnerUp,
};
pub use apx_median::{ApxMedian, ApxMedianOutcome};
pub use apx_median2::{ApxMedian2, ApxMedian2Outcome};
pub use count_distinct::CountDistinct;
pub use counting::ApxCountConfig;
pub use engine::{BatchPolicy, QueryEngine, QueryOutcome, QueryReport, QuerySpec};
pub use error::QueryError;
pub use local::LocalNetwork;
pub use median::{Median, MedianOutcome};
pub use model::Value;
pub use net::AggregationNetwork;
pub use plan::{PlanOp, QuantileOutcome, QuantilePlan, QueryPlan};
pub use predicate::{Domain, Predicate};
pub use service::{
    FleetRefresh, FleetRound, FleetService, FleetSlotId, FleetStats, RefreshStagger, SubscriberId,
};
pub use simnet::{BatchOutcome, SimNetwork, SimNetworkBuilder};
pub use streaming::{AdmissionPolicy, ServiceStats, StreamingEngine, StreamingReport};
