//! The core [`WaveProtocol`]: every primitive of §2.2/§3.1 as one
//! broadcast–convergecast wave.
//!
//! All aggregate semantics live in the two-step [`crate::aggregate`]
//! layer; this module only *dispatches*, through one table:
//! [`CoreWave::agg`] maps a [`CoreRequest`] to the configured
//! [`PartialAggregate`] that answers it ([`CoreAgg`]), and each
//! per-request operation — fold, merge, codecs, widths, absorb, delta
//! maintenance, finalize — matches that aggregate against its
//! [`CorePartial`]. Adding an aggregate is one table row and one partial
//! variant. Partial encodings carry **no type tag** — both endpoints of
//! a hop know the wave's request, so the request is the schema (and the
//! bits saved pay for the multiplex envelope of
//! [`saq_protocols::MultiplexWave`]).
//!
//! Request and partial sizes realize the costs the paper charges:
//!
//! * MIN/MAX/COUNT/SUM — `Θ(log X̄)`-bit requests and results (Fact 2.1;
//!   counts are Elias-gamma coded so a result costs `Θ(log count)` bits);
//! * `APX_COUNT` — `r` LogLog sketches of `Θ(m log log N)` bits each
//!   (Fact 2.2), merged register-wise (ODI);
//! * log-domain predicates and zoom broadcasts — `Θ(log log X̄)` bits, the
//!   ingredient that makes `APX_MEDIAN2` polyloglog;
//! * COLLECT / DISTINCT-EXACT — linearly growing partials, deliberately:
//!   they are the baselines whose cost the paper's algorithms beat.

use crate::aggregate::{
    BottomKAgg, CollectAgg, CountSumAgg, CountSumOp, DistinctSetAgg, ItemRef, MinMaxAgg, MinMaxOp,
    MinMaxPartial, PartialAggregate, QuantileAgg, RunnerUp, SketchAgg, SketchKey,
};
use crate::counting::ApxCountConfig;
use crate::model::{floor_log2, Value};
use crate::plan::{PlanInput, PlanOp};
use crate::predicate::{Domain, Predicate};
use saq_netsim::sim::NodeId;
use saq_netsim::wire::{width_for_max, BitReader, BitWriter};
use saq_netsim::NetsimError;
use saq_protocols::row::{ROW_ABSENT, ROW_NONE, ROW_UNKNOWN, ROW_VALUE_LIMIT};
use saq_protocols::{RowKernel, RowSource, WaveProtocol};
use saq_sketches::{BottomK, DistinctSketch, LogLog, QuantileSummary};

/// One item held by a simulated node (or by the in-memory network): its
/// original value plus the current (possibly rescaled) value;
/// `cur == None` means the item is passive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimItem {
    /// The value as originally deployed.
    pub orig: Value,
    /// The current value after zoom rescaling, or `None` when passive.
    pub cur: Option<Value>,
}

impl SimItem {
    /// A fresh, active item.
    pub fn new(v: Value) -> Self {
        SimItem {
            orig: v,
            cur: Some(v),
        }
    }
}

/// One node's item replacement as [`CoreWave`]'s cached partials see
/// it: the active values that left and entered the node's multiset,
/// slot by slot, each keyed by its stable `(node, slot)` identity (a
/// slot whose current value is unchanged, or passive on both sides,
/// appears in neither list). Derived once per update and folded into
/// every cached entry on the root path; the substrate reuses one value,
/// so its buffers stop allocating after the first update.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ItemDiff {
    /// Items that left, in slot order.
    pub removed: Vec<ItemRef>,
    /// Items that entered, in slot order.
    pub added: Vec<ItemRef>,
}

/// The request vocabulary of the core primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreRequest {
    /// MIN over active items in a domain.
    Min(Domain),
    /// MAX over active items in a domain.
    Max(Domain),
    /// Exact predicate count (§3.1).
    Count(Predicate),
    /// Exact predicate sum.
    Sum(Predicate),
    /// `REP_COUNTP`: `reps` independent LogLog instances seeded from
    /// `nonce`.
    ApxCount {
        /// The counted predicate.
        pred: Predicate,
        /// Number of independent instances.
        reps: u32,
        /// Per-invocation seed discriminator.
        nonce: u32,
    },
    /// Fig. 4 zoom: deactivate items outside octave `mu_hat`, rescale the
    /// rest onto `[1, X̄]`.
    Zoom {
        /// The selected octave `µ̂`.
        mu_hat: u32,
    },
    /// Collect every active value at the root (linear baseline).
    Collect,
    /// Exact distinct count via set-union convergecast (§5).
    DistinctExact,
    /// Approximate distinct count via value-hashed sketches.
    DistinctApx {
        /// Number of independent instances.
        reps: u32,
        /// Per-invocation seed discriminator.
        nonce: u32,
    },
    /// Mergeable ε-approximate quantile summary (GK-style): one
    /// convergecast answering every quantile within a certified rank
    /// error.
    Quantile {
        /// Prune budget: partials carry at most `budget + 1` entries.
        budget: u32,
    },
    /// Bottom-k (KMV) uniform value sample keyed by item identity.
    BottomK {
        /// Sample capacity.
        k: u32,
        /// Hash-seed discriminator. Equal `(k, nonce)` requests
        /// reproduce the identical sample, which is what makes the
        /// aggregate cacheable.
        nonce: u32,
    },
}

impl CoreRequest {
    /// The wire request of a plan op. `nonce` is called once, and only
    /// for the ops that draw fresh sketch randomness (`ApxCount`,
    /// `DistinctApx`); bottom-k keeps the deterministic nonce 0 (the ODI
    /// sampling convention), so equal requests reproduce the identical
    /// sample and can be served from subtree partial caches.
    pub fn from_op(op: &PlanOp, nonce: impl FnOnce() -> u32) -> CoreRequest {
        match *op {
            PlanOp::Count(p) => CoreRequest::Count(p),
            PlanOp::Sum(p) => CoreRequest::Sum(p),
            PlanOp::Min(d) => CoreRequest::Min(d),
            PlanOp::Max(d) => CoreRequest::Max(d),
            PlanOp::ApxCount { pred, reps } => CoreRequest::ApxCount {
                pred,
                reps,
                nonce: nonce(),
            },
            PlanOp::DistinctExact => CoreRequest::DistinctExact,
            PlanOp::DistinctApx { reps } => CoreRequest::DistinctApx {
                reps,
                nonce: nonce(),
            },
            PlanOp::Collect => CoreRequest::Collect,
            PlanOp::QuantileSummary { budget } => CoreRequest::Quantile { budget },
            PlanOp::BottomK { k } => CoreRequest::BottomK { k, nonce: 0 },
            PlanOp::Zoom { mu_hat } => CoreRequest::Zoom { mu_hat },
        }
    }

    /// The bounds that make a request legal, stated once for every
    /// caller: [`PlanOp::validate`], [`CoreWave`]'s `validate_request`
    /// (both runners, release builds too) and `decode_request`. Sketch
    /// `reps` lie in `1..=u16::MAX` — the clamp
    /// [`ApxCountConfig::reps_for`] applies, since 65535 instances per
    /// request are already far past any useful accuracy — and quantile
    /// budgets and bottom-k capacities are positive.
    ///
    /// # Errors
    ///
    /// The violated bound.
    pub fn check_bounds(&self) -> Result<(), &'static str> {
        match *self {
            CoreRequest::ApxCount { reps: 0, .. } | CoreRequest::DistinctApx { reps: 0, .. } => {
                Err("reps must be positive")
            }
            CoreRequest::ApxCount { reps, .. } | CoreRequest::DistinctApx { reps, .. }
                if reps > u16::MAX as u32 =>
            {
                Err("reps must not exceed 65535, the accuracy ceiling of ApxCountConfig::reps_for")
            }
            CoreRequest::Quantile { budget: 0 } => Err("quantile prune budget must be positive"),
            CoreRequest::BottomK { k: 0, .. } => Err("bottom-k sample capacity must be positive"),
            _ => Ok(()),
        }
    }
}

/// Partial aggregates flowing up the tree — each variant is the partial
/// state of one [`crate::aggregate`] implementation.
#[derive(Debug, Clone, PartialEq)]
pub enum CorePartial {
    /// Min/max accumulator.
    OptVal(MinMaxPartial),
    /// Exact count or sum.
    Num(u64),
    /// `reps` LogLog sketches, merged register-wise.
    Sketches(Vec<LogLog>),
    /// No data (zoom acknowledgement).
    Unit,
    /// Concatenated active values (collect).
    Values(Vec<Value>),
    /// Sorted distinct active values (exact distinct count).
    Set(Vec<Value>),
    /// Pruned mergeable quantile summary.
    Quantile(QuantileSummary),
    /// Bottom-k sample of `(identity hash, value)` pairs.
    Sample(BottomK),
}

/// The configured aggregate that answers a [`CoreRequest`], one variant
/// per [`crate::aggregate`] family — a row of [`CoreWave::agg`]'s table.
/// Each variant's partial is the [`CorePartial`] variant of the same
/// family. `Copy` (no drop glue) and a plain tag (no niche in a
/// payload) are what let each operation's match on an inlined
/// [`CoreWave::agg`] fold into a single dispatch on the request, as
/// lean as matching the request directly.
#[derive(Debug, Clone, Copy)]
#[repr(u8)]
pub enum CoreAgg {
    /// `Min`/`Max`; partial [`CorePartial::OptVal`].
    MinMax(MinMaxAgg),
    /// `Count`/`Sum`; partial [`CorePartial::Num`].
    CountSum(CountSumAgg),
    /// `ApxCount` (keyed by item) and `DistinctApx` (keyed by value);
    /// partial [`CorePartial::Sketches`].
    Sketch(SketchAgg),
    /// `Collect`; partial [`CorePartial::Values`].
    Collect(CollectAgg),
    /// `DistinctExact`; partial [`CorePartial::Set`].
    Distinct(DistinctSetAgg),
    /// `Quantile`; partial [`CorePartial::Quantile`].
    Quantile(QuantileAgg),
    /// `BottomK`; partial [`CorePartial::Sample`].
    BottomK(BottomKAgg),
    /// `Zoom` carries no data; partial [`CorePartial::Unit`].
    Zoom,
}

/// The core wave protocol configuration, shared by every node.
#[derive(Debug, Clone)]
pub struct CoreWave {
    /// Declared maximum item value `X̄`.
    pub xbar: Value,
    /// Approximate-counting parameters.
    pub apx: ApxCountConfig,
}

impl CoreWave {
    fn mu_width(&self) -> u32 {
        width_for_max(floor_log2(self.xbar) as u64)
    }

    /// The one table from request to aggregate: which
    /// [`PartialAggregate`] answers `req`, configured by this protocol's
    /// `X̄` and sketch parameters. Every per-request operation reads its
    /// aggregate here.
    #[inline]
    pub fn agg(&self, req: &CoreRequest) -> CoreAgg {
        let xbar = self.xbar;
        let minmax = |op, domain| CoreAgg::MinMax(MinMaxAgg { op, domain, xbar });
        let countsum = |op, pred| CoreAgg::CountSum(self.countsum_agg(op, pred));
        let sketch = |pred, key, reps, nonce: u32| {
            CoreAgg::Sketch(SketchAgg::new(pred, key, self.apx, reps, nonce as u64))
        };
        match *req {
            CoreRequest::Min(domain) => minmax(MinMaxOp::Min, domain),
            CoreRequest::Max(domain) => minmax(MinMaxOp::Max, domain),
            CoreRequest::Count(pred) => countsum(CountSumOp::Count, pred),
            CoreRequest::Sum(pred) => countsum(CountSumOp::Sum, pred),
            CoreRequest::ApxCount { pred, reps, nonce } => {
                sketch(pred, SketchKey::ByItem, reps, nonce)
            }
            CoreRequest::DistinctApx { reps, nonce } => {
                sketch(Predicate::TRUE, SketchKey::ByValue, reps, nonce)
            }
            CoreRequest::Collect => CoreAgg::Collect(CollectAgg { xbar }),
            CoreRequest::DistinctExact => CoreAgg::Distinct(DistinctSetAgg { xbar }),
            CoreRequest::Quantile { budget } => CoreAgg::Quantile(self.quantile_agg(budget)),
            CoreRequest::BottomK { k, nonce } => CoreAgg::BottomK(self.bottomk_agg(k, nonce)),
            CoreRequest::Zoom { .. } => CoreAgg::Zoom,
        }
    }

    /// The COUNT/SUM aggregate a request dispatches to.
    pub fn countsum_agg(&self, op: CountSumOp, pred: Predicate) -> CountSumAgg {
        CountSumAgg { op, pred }
    }

    /// The quantile-summary aggregate of a `Quantile` request.
    pub fn quantile_agg(&self, budget: u32) -> QuantileAgg {
        QuantileAgg {
            budget,
            xbar: self.xbar,
        }
    }

    /// The bottom-k sampling aggregate of a `BottomK` request.
    pub fn bottomk_agg(&self, k: u32, nonce: u32) -> BottomKAgg {
        BottomKAgg::new(k.max(1), self.xbar, self.apx.seed, nonce as u64)
    }

    /// Folds `items` into the partial of the aggregate `req` names — the
    /// dispatch every node runs on its own items ([`WaveProtocol::local`])
    /// and the in-memory network runs on all of them. A `Zoom` carries no
    /// data: its partial is [`CorePartial::Unit`] (the rescaling is
    /// [`CoreWave::zoom`]).
    pub fn partial_over(
        &self,
        req: &CoreRequest,
        items: impl Iterator<Item = ItemRef>,
    ) -> CorePartial {
        match self.agg(req) {
            CoreAgg::MinMax(a) => CorePartial::OptVal(a.partial_over(items)),
            CoreAgg::CountSum(a) => CorePartial::Num(a.partial_over(items)),
            CoreAgg::Sketch(a) => CorePartial::Sketches(a.partial_over(items)),
            CoreAgg::Collect(a) => CorePartial::Values(a.partial_over(items)),
            CoreAgg::Distinct(a) => CorePartial::Set(a.partial_over(items)),
            CoreAgg::Quantile(a) => CorePartial::Quantile(a.partial_over(items)),
            CoreAgg::BottomK(a) => CorePartial::Sample(a.partial_over(items)),
            CoreAgg::Zoom => CorePartial::Unit,
        }
    }

    /// Fig. 4 line 3.2 on a multiset: items in octave `mu_hat` are
    /// rescaled onto `[1, X̄]`, every other active item turns passive.
    pub fn zoom(&self, mu_hat: u32, items: &mut [SimItem]) {
        for it in items {
            if let Some(cur) = it.cur {
                it.cur = crate::local::rescale_into_octave(cur, mu_hat, self.xbar);
            }
        }
    }

    /// Finalizes the root's merged partial into the [`PlanInput`] the
    /// issuing plan consumes — the accessor step of the two-step
    /// aggregation model.
    pub fn finalize(&self, req: &CoreRequest, partial: CorePartial) -> PlanInput {
        match (self.agg(req), partial) {
            (CoreAgg::MinMax(a), CorePartial::OptVal(v)) => PlanInput::OptVal(a.finalize(&v)),
            (CoreAgg::CountSum(a), CorePartial::Num(v)) => PlanInput::Num(a.finalize(&v)),
            (CoreAgg::Sketch(a), CorePartial::Sketches(sks)) => PlanInput::Est(a.finalize(&sks)),
            (CoreAgg::Collect(_), CorePartial::Values(vs)) => PlanInput::Values(vs),
            (CoreAgg::Distinct(a), CorePartial::Set(vs)) => PlanInput::Num(a.finalize(&vs)),
            (CoreAgg::Quantile(a), CorePartial::Quantile(s)) => PlanInput::Quantile(a.finalize(&s)),
            (CoreAgg::BottomK(a), CorePartial::Sample(s)) => PlanInput::Values(a.finalize(&s)),
            (CoreAgg::Zoom, CorePartial::Unit) => PlanInput::Unit,
            (_, partial) => unreachable!("partial {partial:?} does not answer {req:?}"),
        }
    }
}

const OP_MIN: u64 = 0;
const OP_MAX: u64 = 1;
const OP_COUNT: u64 = 2;
const OP_SUM: u64 = 3;
const OP_APX: u64 = 4;
const OP_ZOOM: u64 = 5;
const OP_COLLECT: u64 = 6;
const OP_DISTINCT: u64 = 7;
const OP_DISTINCT_APX: u64 = 8;
const OP_QUANTILE: u64 = 9;
const OP_BOTTOMK: u64 = 10;

fn encode_domain(d: Domain, w: &mut BitWriter) {
    w.write_bits(matches!(d, Domain::Log) as u64, 1);
}

fn decode_domain(r: &mut BitReader<'_>) -> Result<Domain, NetsimError> {
    Ok(if r.read_bits(1)? == 1 {
        Domain::Log
    } else {
        Domain::Raw
    })
}

/// A decoded request parameter as `u32`; [`CoreRequest::check_bounds`]
/// then applies the parameter's own bound.
fn param(v: u64) -> Result<u32, NetsimError> {
    u32::try_from(v).map_err(|_| NetsimError::WireDecode("request parameter out of range"))
}

/// A min/max partial as its two row words, `[best, runner-up]`, exactly:
/// every [`MinMaxPartial`] converts to words and back unchanged
/// ([`RowKernel`]'s sentinels sit above every value, which
/// [`crate::model::XBAR_MAX`] keeps below them).
pub fn minmax_words(p: &MinMaxPartial) -> [u64; 2] {
    let value = |v: Value| {
        debug_assert!(v < ROW_VALUE_LIMIT, "a row value collides with a sentinel");
        v
    };
    [
        p.best.map_or(ROW_NONE, value),
        match p.second {
            RunnerUp::Unknown => ROW_UNKNOWN,
            RunnerUp::Absent => ROW_ABSENT,
            RunnerUp::Exactly(v) => value(v),
        },
    ]
}

/// The min/max partial of two row words ([`minmax_words`]' inverse).
pub fn minmax_of_words(words: &[u64]) -> MinMaxPartial {
    MinMaxPartial {
        best: (words[0] != ROW_NONE).then_some(words[0]),
        second: match words[1] {
            ROW_UNKNOWN => RunnerUp::Unknown,
            ROW_ABSENT => RunnerUp::Absent,
            v => RunnerUp::Exactly(v),
        },
    }
}

/// Items of a node as [`ItemRef`]s with `(node, slot)` identity, skipping
/// passive items.
fn active_refs(node: NodeId, items: &[SimItem]) -> impl Iterator<Item = ItemRef> + '_ {
    items.iter().enumerate().filter_map(move |(slot, it)| {
        it.cur.map(|value| ItemRef {
            node: node as u64,
            slot: slot as u64,
            value,
        })
    })
}

impl WaveProtocol for CoreWave {
    type Request = CoreRequest;
    type Partial = CorePartial;
    type Item = SimItem;
    type ItemDelta = ItemDiff;
    type DeltaKey = CoreRequest;

    fn encode_request(&self, req: &CoreRequest, w: &mut BitWriter) {
        match req {
            CoreRequest::Min(d) => {
                w.write_bits(OP_MIN, 4);
                encode_domain(*d, w);
            }
            CoreRequest::Max(d) => {
                w.write_bits(OP_MAX, 4);
                encode_domain(*d, w);
            }
            CoreRequest::Count(p) => {
                w.write_bits(OP_COUNT, 4);
                p.encode(self.xbar, w);
            }
            CoreRequest::Sum(p) => {
                w.write_bits(OP_SUM, 4);
                p.encode(self.xbar, w);
            }
            CoreRequest::ApxCount { pred, reps, nonce } => {
                w.write_bits(OP_APX, 4);
                pred.encode(self.xbar, w);
                w.write_varint(*reps as u64);
                w.write_bits(*nonce as u64, 32);
            }
            CoreRequest::Zoom { mu_hat } => {
                w.write_bits(OP_ZOOM, 4);
                w.write_bits(*mu_hat as u64, self.mu_width());
            }
            CoreRequest::Collect => w.write_bits(OP_COLLECT, 4),
            CoreRequest::DistinctExact => w.write_bits(OP_DISTINCT, 4),
            CoreRequest::DistinctApx { reps, nonce } => {
                w.write_bits(OP_DISTINCT_APX, 4);
                w.write_varint(*reps as u64);
                w.write_bits(*nonce as u64, 32);
            }
            CoreRequest::Quantile { budget } => {
                w.write_bits(OP_QUANTILE, 4);
                w.write_gamma(*budget as u64 + 1);
            }
            CoreRequest::BottomK { k, nonce } => {
                w.write_bits(OP_BOTTOMK, 4);
                w.write_gamma(*k as u64 + 1);
                w.write_bits(*nonce as u64, 32);
            }
        }
    }

    fn decode_request(&self, r: &mut BitReader<'_>) -> Result<CoreRequest, NetsimError> {
        let req = match r.read_bits(4)? {
            OP_MIN => CoreRequest::Min(decode_domain(r)?),
            OP_MAX => CoreRequest::Max(decode_domain(r)?),
            OP_COUNT => CoreRequest::Count(Predicate::decode(self.xbar, r)?),
            OP_SUM => CoreRequest::Sum(Predicate::decode(self.xbar, r)?),
            OP_APX => CoreRequest::ApxCount {
                pred: Predicate::decode(self.xbar, r)?,
                reps: param(r.read_varint()?)?,
                nonce: r.read_bits(32)? as u32,
            },
            OP_ZOOM => CoreRequest::Zoom {
                mu_hat: r.read_bits(self.mu_width())? as u32,
            },
            OP_COLLECT => CoreRequest::Collect,
            OP_DISTINCT => CoreRequest::DistinctExact,
            OP_DISTINCT_APX => CoreRequest::DistinctApx {
                reps: param(r.read_varint()?)?,
                nonce: r.read_bits(32)? as u32,
            },
            OP_QUANTILE => CoreRequest::Quantile {
                budget: param(r.read_gamma()? - 1)?,
            },
            OP_BOTTOMK => CoreRequest::BottomK {
                k: param(r.read_gamma()? - 1)?,
                nonce: r.read_bits(32)? as u32,
            },
            _ => return Err(NetsimError::WireDecode("unknown core opcode")),
        };
        req.check_bounds().map_err(NetsimError::WireDecode)?;
        Ok(req)
    }

    /// Rejects a request outside [`CoreRequest::check_bounds`] before
    /// the root injects it, so both runners refuse it at `run_wave`.
    fn validate_request(&self, req: &CoreRequest) -> Result<(), NetsimError> {
        req.check_bounds().map_err(NetsimError::WireEncode)
    }

    fn encode_partial(&self, req: &CoreRequest, p: &CorePartial, w: &mut BitWriter) {
        match (self.agg(req), p) {
            (CoreAgg::MinMax(a), CorePartial::OptVal(v)) => a.encode(v, w),
            (CoreAgg::CountSum(a), CorePartial::Num(v)) => a.encode(v, w),
            (CoreAgg::Sketch(a), CorePartial::Sketches(sks)) => a.encode(sks, w),
            (CoreAgg::Collect(a), CorePartial::Values(vals)) => a.encode(vals, w),
            (CoreAgg::Distinct(a), CorePartial::Set(vals)) => a.encode(vals, w),
            (CoreAgg::Quantile(a), CorePartial::Quantile(s)) => a.encode(s, w),
            (CoreAgg::BottomK(a), CorePartial::Sample(s)) => a.encode(s, w),
            (CoreAgg::Zoom, CorePartial::Unit) => {}
            _ => debug_assert!(false, "partial variant does not answer request"),
        }
    }

    /// The aggregate's [`PartialAggregate::encoded_bits`]: the codec's
    /// size rules in closed form, nothing written.
    fn partial_width(&self, req: &CoreRequest, p: &CorePartial) -> u64 {
        match (self.agg(req), p) {
            (CoreAgg::MinMax(a), CorePartial::OptVal(v)) => a.encoded_bits(v),
            (CoreAgg::CountSum(a), CorePartial::Num(v)) => a.encoded_bits(v),
            (CoreAgg::Sketch(a), CorePartial::Sketches(sks)) => a.encoded_bits(sks),
            (CoreAgg::Collect(a), CorePartial::Values(vals)) => a.encoded_bits(vals),
            (CoreAgg::Distinct(a), CorePartial::Set(vals)) => a.encoded_bits(vals),
            (CoreAgg::Quantile(a), CorePartial::Quantile(s)) => a.encoded_bits(s),
            (CoreAgg::BottomK(a), CorePartial::Sample(s)) => a.encoded_bits(s),
            (CoreAgg::Zoom, CorePartial::Unit) => 0,
            _ => {
                debug_assert!(false, "partial variant does not answer request");
                0
            }
        }
    }

    fn decode_partial(
        &self,
        req: &CoreRequest,
        r: &mut BitReader<'_>,
    ) -> Result<CorePartial, NetsimError> {
        Ok(match self.agg(req) {
            CoreAgg::MinMax(a) => CorePartial::OptVal(a.decode(r)?),
            CoreAgg::CountSum(a) => CorePartial::Num(a.decode(r)?),
            CoreAgg::Sketch(a) => CorePartial::Sketches(a.decode(r)?),
            CoreAgg::Collect(a) => CorePartial::Values(a.decode(r)?),
            CoreAgg::Distinct(a) => CorePartial::Set(a.decode(r)?),
            CoreAgg::Quantile(a) => CorePartial::Quantile(a.decode(r)?),
            CoreAgg::BottomK(a) => CorePartial::Sample(a.decode(r)?),
            CoreAgg::Zoom => CorePartial::Unit,
        })
    }

    fn local(&self, node: NodeId, items: &mut [SimItem], req: &CoreRequest) -> CorePartial {
        if let CoreRequest::Zoom { mu_hat } = *req {
            self.zoom(mu_hat, items);
        }
        self.partial_over(req, active_refs(node, items))
    }

    /// `Count` and `Sum` ride in one word (`Add`), `Min` and `Max` in
    /// two (best and runner-up) — the fixed-width partials of Fact 2.1;
    /// every other request keeps its [`CorePartial`].
    fn row_kernel(&self, req: &CoreRequest, _i: usize) -> Option<RowKernel> {
        match self.agg(req) {
            CoreAgg::CountSum(_) => Some(RowKernel::Add),
            CoreAgg::MinMax(a) => {
                let value_width = a.value_width();
                Some(match a.op {
                    MinMaxOp::Min => RowKernel::Min { value_width },
                    MinMaxOp::Max => RowKernel::Max { value_width },
                })
            }
            _ => None,
        }
    }

    /// A row request folds the node's items straight into its words —
    /// the same fold as [`WaveProtocol::local`], runner-up included —
    /// and converts its partial exactly; any other request contributes
    /// its partial to the accumulator, as [`WaveProtocol::local`].
    /// Inlined into the multiplexer's per-slot loop: this is the one
    /// per-node, per-slot step a row slot still dispatches on its
    /// request.
    #[inline(always)]
    fn fill_row(
        &self,
        req: &CoreRequest,
        src: RowSource<'_, Self>,
        row: &mut [u64],
    ) -> Result<(), NetsimError> {
        use CoreRequest as R;
        match src {
            RowSource::Local { node, items, rest } => match *req {
                R::Count(pred) => {
                    let count = self.countsum_agg(CountSumOp::Count, pred);
                    row[0] = count.partial_over(active_refs(node, items));
                }
                R::Sum(pred) => {
                    let sum = self.countsum_agg(CountSumOp::Sum, pred);
                    row[0] = sum.partial_over(active_refs(node, items));
                }
                _ => match self.agg(req) {
                    CoreAgg::MinMax(a) => {
                        let p = a.partial_over(active_refs(node, items));
                        row.copy_from_slice(&minmax_words(&p));
                    }
                    _ => *rest = Some(self.local(node, items, req)),
                },
            },
            RowSource::Slot { partial, .. } => match (req, partial) {
                (R::Count(_) | R::Sum(_), CorePartial::Num(n)) => row[0] = *n,
                (R::Min(_) | R::Max(_), CorePartial::OptVal(v)) => {
                    row.copy_from_slice(&minmax_words(v));
                }
                _ => {
                    return Err(NetsimError::WireDecode(
                        "partial does not answer its request",
                    ))
                }
            },
        }
        Ok(())
    }

    /// A row request's [`RowKernel::width`]: its codec's width, in
    /// closed form.
    fn row_width(&self, req: &CoreRequest, row: &[u64]) -> u64 {
        self.row_kernel(req, 0).map_or(0, |k| k.width(row))
    }

    /// A row request's words as its [`CorePartial`], exactly.
    fn row_partial(
        &self,
        req: &CoreRequest,
        rest: &mut Option<CorePartial>,
        row: &[u64],
    ) -> CorePartial {
        match self.agg(req) {
            CoreAgg::CountSum(_) => CorePartial::Num(row[0]),
            CoreAgg::MinMax(_) => CorePartial::OptVal(minmax_of_words(row)),
            _ => rest
                .take()
                .expect("a request outside the row keeps its partial"),
        }
    }

    /// Merges the child's wire-normal form by reference, moving no
    /// partial: `Num` adds; `OptVal` folds in the child's extremum alone
    /// ([`MinMaxPartial::of`] — the runner-up never travels, so the
    /// accumulator's is kept exactly as [`MinMaxAgg`]'s merge of a
    /// decoded child keeps it); `Quantile` merges into the accumulator's
    /// storage, sized once for all `first_of` children
    /// (`QuantileAgg::reserve_children`); `BottomK` and `Sketches` merge
    /// pair- and register-wise in place; `Values` and `Set` merge a copy.
    /// Equal, field for field, to decoding the child and merging it with
    /// the [`PartialAggregate::merge`] of [`CoreWave::agg`], for every
    /// request (`tests/absorb_partial.rs`); an accumulator or child of
    /// another shape (kind, sample capacity, sketch count or size) is an
    /// error.
    fn absorb_partial(
        &self,
        req: &CoreRequest,
        acc: &mut CorePartial,
        child: &CorePartial,
        first_of: Option<usize>,
    ) -> Result<(), NetsimError> {
        use CorePartial as P;
        match (self.agg(req), acc, child) {
            (CoreAgg::CountSum(_), P::Num(x), P::Num(y)) => *x += y,
            (CoreAgg::MinMax(a), P::OptVal(x), P::OptVal(y)) => {
                *x = a.merge(*x, MinMaxPartial::of(y.best));
            }
            (CoreAgg::Quantile(a), P::Quantile(s), P::Quantile(c)) => {
                if let Some(children) = first_of {
                    a.reserve_children(s, children, c.len());
                }
                a.merge_into(s, c);
            }
            (CoreAgg::BottomK(_), P::Sample(s), P::Sample(c))
                if (s.k(), s.value_width()) == (c.k(), c.value_width()) =>
            {
                s.merge_from(c);
            }
            (CoreAgg::Sketch(_), P::Sketches(xs), P::Sketches(ys))
                if xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.b() == y.b()) =>
            {
                for (x, y) in xs.iter_mut().zip(ys) {
                    x.merge_from(y);
                }
            }
            (CoreAgg::Collect(a), P::Values(xs), P::Values(ys)) => {
                *xs = a.merge(std::mem::take(xs), ys.clone());
            }
            (CoreAgg::Distinct(a), P::Set(xs), P::Set(ys)) => {
                *xs = a.merge(std::mem::take(xs), ys.clone());
            }
            (CoreAgg::Zoom, P::Unit, P::Unit) => {}
            _ => {
                return Err(NetsimError::WireDecode(
                    "partial does not answer its request",
                ))
            }
        }
        Ok(())
    }

    /// Deterministic requests are cached under their exact encoding —
    /// the wire bits are the collision-free identity of "every node
    /// would execute this identically". Every request is cacheable
    /// except:
    ///
    /// * [`CoreRequest::Zoom`] mutates items (it also invalidates);
    /// * `ApxCount`/`DistinctApx` draw a **fresh** nonce per invocation
    ///   by design (fresh randomness is the point of `REP_COUNTP`), so
    ///   their keys would never repeat — caching them would only evict
    ///   reusable entries from the bounded per-node caches.
    ///
    /// `BottomK` stays cacheable: its nonce is deterministic (the ODI
    /// sampling convention), so equal requests do repeat.
    fn cacheable(&self, req: &CoreRequest) -> bool {
        !matches!(
            req,
            CoreRequest::Zoom { .. }
                | CoreRequest::ApxCount { .. }
                | CoreRequest::DistinctApx { .. }
        )
    }

    /// Containers merged in place (GK summaries, bottom-k samples, value
    /// lists and sets) give back their spare capacity.
    fn shrink_partial(&self, p: &mut CorePartial) {
        match p {
            CorePartial::Quantile(s) => s.shrink_to_fit(),
            CorePartial::Sample(s) => s.shrink_to_fit(),
            CorePartial::Values(v) | CorePartial::Set(v) => v.shrink_to_fit(),
            CorePartial::Sketches(v) => v.shrink_to_fit(),
            CorePartial::OptVal(_) | CorePartial::Num(_) | CorePartial::Unit => {}
        }
    }

    /// Zoom rescales and deactivates items (Fig. 4 line 3.2): every
    /// cached subtree partial at the executing node is stale afterwards.
    fn invalidates_cache(&self, req: &CoreRequest) -> bool {
        matches!(req, CoreRequest::Zoom { .. })
    }

    /// The slot-wise diff of the origin's active values (see
    /// [`ItemDiff`]), rebuilt in `delta`'s buffers.
    fn item_delta(
        &self,
        origin: NodeId,
        old_items: &[SimItem],
        new_items: &[SimItem],
        delta: &mut ItemDiff,
    ) {
        delta.removed.clear();
        delta.added.clear();
        for slot in 0..old_items.len().max(new_items.len()) {
            let old = old_items.get(slot).and_then(|it| it.cur);
            let new = new_items.get(slot).and_then(|it| it.cur);
            if old == new {
                continue; // unchanged (or passive on both sides)
            }
            let item = |value| ItemRef {
                node: origin as u64,
                slot: slot as u64,
                value,
            };
            delta.removed.extend(old.map(item));
            delta.added.extend(new.map(item));
        }
    }

    /// The request itself: it names the aggregate the cached subtree
    /// partial belongs to.
    fn delta_key(&self, req: &CoreRequest) -> Option<CoreRequest> {
        Some(req.clone())
    }

    /// Routes an item update into the two-step layer's
    /// [`PartialAggregate::apply_delta`]: the parsed key names the
    /// aggregate, and the [`ItemDiff`] supplies the removed/added item
    /// sets. Exact for COUNT/SUM/MIN/MAX and bottom-k, certified
    /// re-contribute-and-prune for quantile summaries on pure
    /// insertions; everything else reports failure and is invalidated by
    /// the caller.
    fn apply_item_delta(
        &self,
        req: &CoreRequest,
        partial: &mut CorePartial,
        delta: &ItemDiff,
    ) -> bool {
        let (removed, added) = (delta.removed.as_slice(), delta.added.as_slice());
        if removed.is_empty() && added.is_empty() {
            return true; // only passive/unchanged slots: partial already right
        }
        use crate::aggregate::DeltaSupport;
        let support = match (self.agg(req), partial) {
            (CoreAgg::MinMax(a), CorePartial::OptVal(v)) => a.apply_delta(v, removed, added),
            (CoreAgg::CountSum(a), CorePartial::Num(n)) => a.apply_delta(n, removed, added),
            (CoreAgg::Quantile(a), CorePartial::Quantile(s)) => a.apply_delta(s, removed, added),
            (CoreAgg::BottomK(a), CorePartial::Sample(s)) => a.apply_delta(s, removed, added),
            // Collect, DistinctExact and the sketch requests decline:
            // multiset deletion from their partials is unsound (or the
            // entries are never cached to begin with).
            _ => DeltaSupport::Unsupported,
        };
        !matches!(support, DeltaSupport::Unsupported)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_netsim::wire::BitWriter;
    use saq_protocols::cache::CacheKey;
    use saq_protocols::mux::{Envelope, MultiplexWave, MuxEntry};
    use saq_sketches::DistinctSketch;

    /// The single-slot defaults over `CoreWave`'s codec and cache hooks,
    /// as a tree runner running it bare would see them.
    impl Envelope for CoreWave {}

    fn proto() -> CoreWave {
        CoreWave {
            xbar: 1000,
            apx: ApxCountConfig::default(),
        }
    }

    fn roundtrip_req(p: &CoreWave, req: CoreRequest) {
        let mut w = BitWriter::new();
        p.encode_request(&req, &mut w);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(p.decode_request(&mut r).unwrap(), req);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn request_roundtrips() {
        let p = proto();
        for req in [
            CoreRequest::Min(Domain::Raw),
            CoreRequest::Min(Domain::Log),
            CoreRequest::Max(Domain::Raw),
            CoreRequest::Count(Predicate::less_than(500)),
            CoreRequest::Sum(Predicate::TRUE),
            CoreRequest::ApxCount {
                pred: Predicate::log_less_than2(9),
                reps: 17,
                nonce: 3,
            },
            CoreRequest::Zoom { mu_hat: 7 },
            CoreRequest::Collect,
            CoreRequest::DistinctExact,
            CoreRequest::DistinctApx { reps: 5, nonce: 9 },
            CoreRequest::Quantile { budget: 12 },
            CoreRequest::BottomK { k: 32, nonce: 77 },
        ] {
            roundtrip_req(&p, req);
        }
    }

    #[test]
    fn decoders_reject_requests_out_of_bounds() {
        // Hand-written frames no validated request encodes to: each
        // decodes to an error, never to a request a node would run.
        let p = proto();
        let frames = [
            encoded(|w| {
                w.write_bits(OP_DISTINCT_APX, 4);
                w.write_varint(u32::MAX as u64);
                w.write_bits(7, 32);
            }),
            encoded(|w| {
                w.write_bits(OP_APX, 4);
                Predicate::TRUE.encode(p.xbar, w);
                w.write_varint(0);
                w.write_bits(7, 32);
            }),
            encoded(|w| {
                w.write_bits(OP_QUANTILE, 4);
                w.write_gamma(1);
            }),
            encoded(|w| {
                w.write_bits(OP_BOTTOMK, 4);
                w.write_gamma(1);
                w.write_bits(7, 32);
            }),
        ];
        for frame in frames {
            let got = p.decode_request(&mut BitReader::new(&frame));
            assert!(matches!(got, Err(NetsimError::WireDecode(_))), "{got:?}");
        }
    }

    #[test]
    fn cache_keys_cover_repeatable_requests_only() {
        let p = proto();
        // Mutating and fresh-nonce requests must not be cached: a Zoom
        // hit would replay stale items, and ApxCount/DistinctApx keys
        // never repeat (fresh nonce per invocation), so storing them
        // would only pollute the bounded caches.
        assert!(!p.cacheable(&CoreRequest::Zoom { mu_hat: 3 }));
        assert!(p.invalidates_cache(&CoreRequest::Zoom { mu_hat: 3 }));
        assert!(!p.cacheable(&CoreRequest::ApxCount {
            pred: Predicate::TRUE,
            reps: 2,
            nonce: 5,
        }));
        assert!(!p.cacheable(&CoreRequest::DistinctApx { reps: 2, nonce: 5 }));
        for req in [
            CoreRequest::Count(Predicate::TRUE),
            CoreRequest::Sum(Predicate::less_than(7)),
            CoreRequest::Min(Domain::Raw),
            CoreRequest::Collect,
            CoreRequest::DistinctExact,
            CoreRequest::Quantile { budget: 8 },
            CoreRequest::BottomK { k: 4, nonce: 1 },
        ] {
            assert!(p.cacheable(&req), "{req:?} should be cacheable");
            assert!(!p.invalidates_cache(&req));
            // Delta maintenance keeps the request itself.
            assert_eq!(p.delta_key(&req), Some(req));
        }
        // The key IS the encoding: distinct nonces are distinct keys.
        let key = |nonce| slot_keys(&p, &CoreRequest::BottomK { k: 4, nonce })[0].clone();
        let (a, b) = (key(1).unwrap().0, key(2).unwrap().0);
        assert_ne!(a, b);
    }

    #[test]
    fn partial_roundtrips_in_request_context() {
        let p = proto();
        let mut sk = LogLog::new(p.apx.b);
        sk.insert_hash(0xDEAD_BEEF_1234_5678);
        let quantile = {
            let agg = p.quantile_agg(4);
            agg.partial_over((0..20u64).map(|v| crate::aggregate::ItemRef {
                node: v,
                slot: 0,
                value: v * 7 % 1000,
            }))
        };
        let sample = {
            let agg = p.bottomk_agg(4, 9);
            agg.partial_over((0..20u64).map(|v| crate::aggregate::ItemRef {
                node: v,
                slot: 0,
                value: v,
            }))
        };
        for (req, partial) in [
            (
                CoreRequest::Min(Domain::Raw),
                CorePartial::OptVal(MinMaxPartial::of(Some(999))),
            ),
            (
                CoreRequest::Quantile { budget: 4 },
                CorePartial::Quantile(quantile),
            ),
            (
                CoreRequest::BottomK { k: 4, nonce: 9 },
                CorePartial::Sample(sample),
            ),
            (
                CoreRequest::Min(Domain::Raw),
                CorePartial::OptVal(MinMaxPartial::of(None)),
            ),
            (
                CoreRequest::Max(Domain::Log),
                CorePartial::OptVal(MinMaxPartial::of(Some(9))),
            ),
            (CoreRequest::Count(Predicate::TRUE), CorePartial::Num(0)),
            (CoreRequest::Sum(Predicate::TRUE), CorePartial::Num(123_456)),
            (
                CoreRequest::ApxCount {
                    pred: Predicate::TRUE,
                    reps: 2,
                    nonce: 1,
                },
                CorePartial::Sketches(vec![sk.clone(), LogLog::new(p.apx.b)]),
            ),
            (CoreRequest::Zoom { mu_hat: 3 }, CorePartial::Unit),
            (
                CoreRequest::Collect,
                CorePartial::Values(vec![1, 2, 3, 999]),
            ),
            (
                CoreRequest::DistinctExact,
                CorePartial::Set(vec![5, 10, 20]),
            ),
        ] {
            let mut w = BitWriter::new();
            p.encode_partial(&req, &partial, &mut w);
            let s = w.finish();
            let mut r = BitReader::new(&s);
            assert_eq!(p.decode_partial(&req, &mut r).unwrap(), partial);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn request_sizes_reflect_domains() {
        let p = CoreWave {
            xbar: 1 << 40,
            apx: ApxCountConfig::default(),
        };
        let raw = {
            let mut w = BitWriter::new();
            p.encode_request(&CoreRequest::Count(Predicate::less_than(12345)), &mut w);
            w.finish().len_bits()
        };
        let log = {
            let mut w = BitWriter::new();
            p.encode_request(&CoreRequest::Count(Predicate::log_less_than2(15)), &mut w);
            w.finish().len_bits()
        };
        assert!(raw > 40, "raw count request {raw} bits");
        assert!(log < 16, "log count request {log} bits");
        // Zoom broadcasts cost O(log log X̄).
        let zoom = {
            let mut w = BitWriter::new();
            p.encode_request(&CoreRequest::Zoom { mu_hat: 30 }, &mut w);
            w.finish().len_bits()
        };
        assert!(zoom <= 4 + 6, "zoom request {zoom} bits");
    }

    #[test]
    fn num_partial_is_gamma_sized() {
        let p = proto();
        let req = CoreRequest::Count(Predicate::TRUE);
        let small = {
            let mut w = BitWriter::new();
            p.encode_partial(&req, &CorePartial::Num(1), &mut w);
            w.finish().len_bits()
        };
        let large = {
            let mut w = BitWriter::new();
            p.encode_partial(&req, &CorePartial::Num(1 << 20), &mut w);
            w.finish().len_bits()
        };
        assert!(small <= 6);
        assert!((40..=50).contains(&large), "20-bit count gamma {large}");
    }

    #[test]
    fn zoom_partial_is_free() {
        let p = proto();
        let mut w = BitWriter::new();
        p.encode_partial(&CoreRequest::Zoom { mu_hat: 2 }, &CorePartial::Unit, &mut w);
        assert_eq!(w.finish().len_bits(), 0, "request-typed codecs need no tag");
    }

    /// `b` absorbed into `a` under `req`.
    fn absorbed(req: &CoreRequest, mut a: CorePartial, b: CorePartial) -> CorePartial {
        proto().absorb_partial(req, &mut a, &b, None).unwrap();
        a
    }

    #[test]
    fn set_merge_unions() {
        let a = CorePartial::Set(vec![1, 3, 5]);
        let b = CorePartial::Set(vec![2, 3, 6]);
        let m = absorbed(&CoreRequest::DistinctExact, a, b);
        assert_eq!(m, CorePartial::Set(vec![1, 2, 3, 5, 6]));
    }

    #[test]
    fn optval_merge_respects_op() {
        let a = CorePartial::OptVal(MinMaxPartial::of(Some(3)));
        let b = CorePartial::OptVal(MinMaxPartial::of(Some(9)));
        assert_eq!(
            absorbed(&CoreRequest::Min(Domain::Raw), a.clone(), b.clone()),
            CorePartial::OptVal(MinMaxPartial::of(Some(3)))
        );
        assert_eq!(
            absorbed(&CoreRequest::Max(Domain::Raw), a, b),
            CorePartial::OptVal(MinMaxPartial::of(Some(9)))
        );
        let none = CorePartial::OptVal(MinMaxPartial::of(None));
        assert_eq!(
            absorbed(
                &CoreRequest::Min(Domain::Raw),
                none,
                CorePartial::OptVal(MinMaxPartial::of(Some(5)))
            ),
            CorePartial::OptVal(MinMaxPartial::of(Some(5)))
        );
    }

    #[test]
    fn local_zoom_mutates_items() {
        let p = proto();
        let mut items = vec![SimItem::new(2), SimItem::new(3), SimItem::new(100)];
        let out = p.local(0, &mut items, &CoreRequest::Zoom { mu_hat: 1 });
        assert_eq!(out, CorePartial::Unit);
        assert!(items[0].cur.is_some());
        assert!(items[1].cur.is_some());
        assert_eq!(items[2].cur, None);
        assert_eq!(items[2].orig, 100, "original value preserved");
    }

    #[test]
    fn item_delta_diffs_active_values_slot_by_slot() {
        let p = proto();
        let passive = SimItem { orig: 9, cur: None };
        let old = [SimItem::new(5), passive, SimItem::new(7), SimItem::new(8)];
        let new = [SimItem::new(5), passive, SimItem::new(70)];
        let mut delta = ItemDiff::default();
        p.item_delta(4, &old, &new, &mut delta);
        let item = |slot, value| ItemRef {
            node: 4,
            slot,
            value,
        };
        // Unchanged and passive slots appear in neither list; a value
        // change is a removal plus an addition at the same identity; a
        // vanished slot is a removal only.
        assert_eq!(delta.removed, vec![item(2, 7), item(3, 8)]);
        assert_eq!(delta.added, vec![item(2, 70)]);
        // The next update overwrites this one in the same buffers.
        let capacity = delta.removed.capacity();
        p.item_delta(4, &new, &new, &mut delta);
        assert_eq!(delta, ItemDiff::default());
        assert_eq!(delta.removed.capacity(), capacity);
        // An empty diff leaves every cached partial as it is.
        let mut partial = CorePartial::Num(3);
        assert!(p.apply_item_delta(&CoreRequest::Count(Predicate::TRUE), &mut partial, &delta));
        assert_eq!(partial, CorePartial::Num(3));
    }

    #[test]
    fn local_matches_aggregate_layer() {
        // The wave dispatch and a direct two-step fold are the same
        // computation.
        let p = proto();
        let mut items = vec![SimItem::new(5), SimItem::new(800), SimItem::new(12)];
        let wave = p.local(
            3,
            &mut items,
            &CoreRequest::Count(Predicate::less_than(100)),
        );
        let agg = p.countsum_agg(CountSumOp::Count, Predicate::less_than(100));
        let direct = agg.partial_over(active_refs(3, &items));
        assert_eq!(wave, CorePartial::Num(direct));
    }

    /// Every [`MinMaxPartial`] state over `values`: best `None` or each
    /// value, runner-up `Unknown`, `Absent` or each value.
    fn minmax_states(values: &[Value]) -> Vec<MinMaxPartial> {
        let bests = std::iter::once(None).chain(values.iter().map(|&v| Some(v)));
        bests
            .flat_map(|best| {
                [RunnerUp::Unknown, RunnerUp::Absent]
                    .into_iter()
                    .chain(values.iter().map(|&v| RunnerUp::Exactly(v)))
                    .map(move |second| MinMaxPartial { best, second })
            })
            .collect()
    }

    /// The row requests, read back through the protocol's own kernel.
    fn row_requests() -> [CoreRequest; 6] {
        [
            CoreRequest::Count(Predicate::less_than(300)),
            CoreRequest::Sum(Predicate::TRUE),
            CoreRequest::Min(Domain::Raw),
            CoreRequest::Min(Domain::Log),
            CoreRequest::Max(Domain::Raw),
            CoreRequest::Max(Domain::Log),
        ]
    }

    /// A row request's partial as its words, through the protocol.
    fn words_of(p: &CoreWave, req: &CoreRequest, part: &CorePartial) -> Vec<u64> {
        let k = p.row_kernel(req, 0).expect("a row request");
        let mut words = vec![0; k.words()];
        let slot = RowSource::Slot {
            i: 0,
            partial: part,
            j: 0,
        };
        p.fill_row(req, slot, &mut words).expect("a row partial");
        words
    }

    #[test]
    fn every_minmax_state_roundtrips_through_its_words() {
        let p = CoreWave {
            xbar: crate::model::XBAR_MAX,
            apx: ApxCountConfig::default(),
        };
        let states = minmax_states(&[0, 1, 7, crate::model::XBAR_MAX]);
        assert_eq!(states.len(), 5 * 6);
        for state in states {
            let words = minmax_words(&state);
            let back = minmax_of_words(&words);
            // `MinMaxPartial`'s `==` compares `best` alone.
            assert_eq!((back.best, back.second), (state.best, state.second));
            for req in [CoreRequest::Min(Domain::Raw), CoreRequest::Max(Domain::Log)] {
                let part = CorePartial::OptVal(state);
                let words = words_of(&p, &req, &part);
                let back = p.row_partial(&req, &mut None, &words);
                assert_eq!(format!("{back:?}"), format!("{part:?}"));
            }
        }
        for n in [0, 1, u64::MAX / 4] {
            let req = CoreRequest::Sum(Predicate::TRUE);
            let words = words_of(&p, &req, &CorePartial::Num(n));
            assert_eq!(words, [n]);
            assert_eq!(p.row_partial(&req, &mut None, &words), CorePartial::Num(n));
        }
        // Only the fixed-width requests have a row.
        assert!(p
            .row_kernel(&CoreRequest::Quantile { budget: 4 }, 0)
            .is_none());
        assert!(p.row_kernel(&CoreRequest::Collect, 0).is_none());
    }

    /// A cached or joined partial that does not answer its row slot, or
    /// a slot out of range, is a typed error — as `absorb_slot` refuses
    /// it — never a merge of unset words.
    #[test]
    fn a_mismatched_row_slot_is_an_error() {
        let p = CoreWave {
            xbar: 1000,
            apx: ApxCountConfig::default(),
        };
        let minmax = CorePartial::OptVal(MinMaxPartial::of(Some(4)));
        for (req, part) in [
            (CoreRequest::Min(Domain::Raw), CorePartial::Num(4)),
            (CoreRequest::Max(Domain::Log), CorePartial::Values(vec![4])),
            (CoreRequest::Count(Predicate::TRUE), minmax.clone()),
            (CoreRequest::Sum(Predicate::TRUE), CorePartial::Unit),
        ] {
            let mut words = [0; 2];
            let words = &mut words[..p.row_kernel(&req, 0).unwrap().words()];
            let slot = RowSource::Slot {
                i: 0,
                partial: &part,
                j: 0,
            };
            let out = p.fill_row(&req, slot, words);
            assert!(
                matches!(out, Err(NetsimError::WireDecode(_))),
                "{req:?}: {out:?}"
            );
        }

        let mux = MultiplexWave::new(p.clone());
        let env = MultiplexWave::envelope(
            &p,
            vec![
                CoreRequest::Count(Predicate::TRUE),
                CoreRequest::Min(Domain::Raw),
            ],
        );
        let full = vec![CorePartial::Num(3), minmax];
        for (i, part, j) in [
            (1, &full, 0), // a count where the min lies
            (0, &full, 1), // a min where the count lies
            (2, &full, 0), // no such slot
            (0, &full, 2), // no such element
            (1, &vec![CorePartial::Values(vec![])], 0),
        ] {
            let mut words = [0; 2];
            let slot = RowSource::Slot {
                i,
                partial: part,
                j,
            };
            let out = mux.fill_row(&env, slot, &mut words[..1 + (i % 2)]);
            assert!(
                matches!(out, Err(NetsimError::WireDecode(_))),
                "{i}, {j}: {out:?}"
            );
        }
        let mut words = [0; 2];
        let slot = RowSource::Slot {
            i: 1,
            partial: &full,
            j: 1,
        };
        mux.fill_row(&env, slot, &mut words).unwrap();
        assert_eq!(words, [4, ROW_UNKNOWN]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        // A row slot's kernel merges a child's words exactly as the
        // protocol absorbs the child's partial (runner-ups included),
        // and measures exactly the width of its partial's encoding.
        #[test]
        fn prop_words_absorb_and_measure_as_the_partials_do(
            kind in 0usize..6,
            state in 0usize..30,
            child_state in 0usize..30,
            values in proptest::collection::vec(0u64..1001, 3..4),
            n in 0u64..1 << 40,
            m in 0u64..1 << 40,
        ) {
            let p = proto();
            let req = &row_requests()[kind];
            let log = matches!(req, CoreRequest::Min(Domain::Log) | CoreRequest::Max(Domain::Log));
            // Values the request's domain can hold, so the codec is exact.
            let values: Vec<Value> = values
                .iter()
                .map(|&v| if log { floor_log2(v.max(1)) as u64 } else { v })
                .collect();
            let states = minmax_states(&values);
            let (acc, child) = match req {
                CoreRequest::Count(_) | CoreRequest::Sum(_) => {
                    (CorePartial::Num(n), CorePartial::Num(m))
                }
                _ => (
                    CorePartial::OptVal(states[state % states.len()]),
                    CorePartial::OptVal(states[child_state % states.len()]),
                ),
            };
            let k = p.row_kernel(req, 0).unwrap();
            let mut words = words_of(&p, req, &acc);
            k.absorb(&mut words, &words_of(&p, req, &child));
            let mut merged = acc.clone();
            p.absorb_partial(req, &mut merged, &child, None).unwrap();
            let by_words = p.row_partial(req, &mut None, &words);
            proptest::prop_assert_eq!(format!("{by_words:?}"), format!("{merged:?}"));
            for part in [&acc, &child, &merged] {
                let words = words_of(&p, req, part);
                let width = encoded(|w| p.encode_partial(req, part, w)).len_bits();
                proptest::prop_assert_eq!(k.width(&words), width);
                proptest::prop_assert_eq!(p.row_width(req, &words), width);
            }
        }
    }

    /// Every [`CoreRequest`] kind, `kind` taken modulo the kind count.
    fn any_request(kind: u32, x: u64) -> CoreRequest {
        let domain = if x.is_multiple_of(2) {
            Domain::Raw
        } else {
            Domain::Log
        };
        let pred = Predicate::less_than2(x % 2000);
        let (reps, nonce) = (1 + (x % 3) as u32, (x >> 8) as u32);
        match kind % 11 {
            0 => CoreRequest::Min(domain),
            1 => CoreRequest::Max(domain),
            2 => CoreRequest::Count(pred),
            3 => CoreRequest::Sum(pred),
            4 => CoreRequest::ApxCount { pred, reps, nonce },
            5 => CoreRequest::Zoom {
                mu_hat: (x % 10) as u32,
            },
            6 => CoreRequest::Collect,
            7 => CoreRequest::DistinctExact,
            8 => CoreRequest::DistinctApx { reps, nonce },
            9 => CoreRequest::Quantile {
                budget: 1 + (x % 15) as u32,
            },
            _ => CoreRequest::BottomK {
                k: 1 + (x % 11) as u32,
                nonce,
            },
        }
    }

    /// Every slot key [`Envelope::for_each_slot_key`] lends, each with
    /// the delta key it derives.
    fn slot_keys<P: Envelope>(
        p: &P,
        req: &P::Request,
    ) -> Vec<Option<(CacheKey, Option<P::DeltaKey>)>> {
        let mut keys = Vec::new();
        p.for_each_slot_key(req, &mut |i, slot| {
            assert_eq!(i, keys.len(), "slots are visited in order");
            keys.push(slot.map(|(key, delta_key)| (key.clone(), delta_key())));
        });
        keys
    }

    /// What a slot holding `req` must lend: when `req` is cacheable, its
    /// exact encoding and the request itself as its delta key, and
    /// otherwise nothing.
    fn lent_key(p: &CoreWave, req: &CoreRequest) -> Option<(CacheKey, Option<CoreRequest>)> {
        p.cacheable(req)
            .then(|| (encoded(|w| p.encode_request(req, w)), Some(req.clone())))
    }

    fn encoded(f: impl FnOnce(&mut BitWriter)) -> saq_netsim::wire::BitString {
        let mut w = BitWriter::new();
        f(&mut w);
        w.finish()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        // A reply measured slot by slot from cached single-slot partials
        // is as wide — and billed bill for bill — as the encoding of
        // their join; a cacheable slot lends its sub-request's encoding
        // as its key and the sub-request as its delta key, and any other
        // slot lends nothing, in the single-slot default and the mux
        // alike; and an envelope read off the wire equals the one
        // encoded (the request law), captured bits included.
        #[test]
        fn prop_slot_widths_match_the_encoded_join(
            kinds in proptest::collection::vec(0u32..11, 1..7),
            values in proptest::collection::vec(0u64..1001, 0..8),
            x in 0u64..1 << 40,
        ) {
            let inner = proto();
            let mut items: Vec<SimItem> = values.iter().map(|&v| SimItem::new(v)).collect();
            let reqs: Vec<CoreRequest> = kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| any_request(kind, x.rotate_left(7 * i as u32)))
                .collect();
            for req in &reqs {
                let part = inner.local(3, &mut items.clone(), req);
                let width = encoded(|w| inner.encode_partial(req, &part, w)).len_bits();
                proptest::prop_assert_eq!(inner.slot_width(req, 0, &part), width);
                proptest::prop_assert_eq!(slot_keys(&inner, req), vec![lent_key(&inner, req)]);
            }

            // Sparse slot tags, as a subset envelope carries them.
            let mux = MultiplexWave::new(inner.clone());
            let dense = MultiplexWave::envelope(&inner, reqs.clone());
            let env: Vec<MuxEntry<CoreRequest>> = reqs
                .into_iter()
                .enumerate()
                .map(|(i, req)| MuxEntry::new(&inner, 3 * i as u32 + 1, req))
                .collect();
            let mut slots = Vec::new();
            // A local step refilling an accumulator spent on a different,
            // wider envelope, its row slots folded into a row, joins to
            // what `local` returns — runner-ups included, hence `Debug` —
            // and rescales the items alike.
            let mut refilled = items.clone();
            let wider: Vec<MuxEntry<CoreRequest>> = env.iter().chain(&env).cloned().collect();
            let mut acc = Some(mux.local(5, &mut items.clone(), &wider));
            let mut row = vec![0; 2 * env.len()];
            let local = RowSource::Local {
                node: 3,
                items: &mut refilled,
                rest: &mut acc,
            };
            mux.fill_row(&env, local, &mut row).unwrap();
            let joined = mux.row_partial(&env, &mut acc, &row);
            let part = mux.local(3, &mut items, &env);
            proptest::prop_assert_eq!(format!("{joined:?}"), format!("{part:?}"));
            proptest::prop_assert_eq!(&refilled, &items);
            mux.split_slots(part, &mut |_, p| slots.push(p));
            mux.ledger_mut().reset(0);
            let by_slot: u64 = slots
                .iter()
                .enumerate()
                .map(|(i, part)| mux.slot_width(&env, i, part))
                .sum();
            let slot_bills = mux.ledger_mut().clone();
            mux.ledger_mut().reset(0);
            let join = mux.join_slots(&env, slots.clone());
            let joined = mux.partial_width(&env, &join);
            let join_bills = mux.ledger_mut().clone();
            proptest::prop_assert_eq!(by_slot, joined);
            proptest::prop_assert_eq!(joined, encoded(|w| mux.encode_partial(&env, &join, w)).len_bits());
            proptest::prop_assert_eq!(slot_bills.slots(), join_bills.slots());
            proptest::prop_assert_eq!(slot_bills.envelope_bits(), join_bills.envelope_bits());

            // The root-issued envelope and the same envelope off the
            // wire: equal, and keyed alike.
            let frame = encoded(|w| mux.encode_request(&env, w));
            let decoded = mux.decode_request(&mut BitReader::new(&frame)).unwrap();
            proptest::prop_assert_eq!(&decoded, &env);
            let frame = encoded(|w| mux.encode_request(&dense, w));
            proptest::prop_assert_eq!(&mux.decode_request(&mut BitReader::new(&frame)).unwrap(), &dense);
            let expected: Vec<_> = env.iter().map(|e| lent_key(&inner, &e.req)).collect();
            proptest::prop_assert_eq!(slot_keys(&mux, &env), expected.clone());
            proptest::prop_assert_eq!(slot_keys(&mux, &decoded), expected);
        }
    }
}
