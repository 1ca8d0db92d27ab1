//! The two-step partial-aggregation layer.
//!
//! Every aggregate in this workspace follows the *two-step* convention
//! (partial state + final accessor) that makes aggregation composable:
//!
//! 1. a **partial state** built per node by [`PartialAggregate::identity`]
//!    plus [`PartialAggregate::contribute`], combined up the tree by the
//!    associative, commutative [`PartialAggregate::merge`], and shipped
//!    bit-exactly via [`PartialAggregate::encode`] /
//!    [`PartialAggregate::decode`] (over [`saq_netsim::wire`]);
//! 2. a separate **accessor** [`PartialAggregate::finalize`] that turns
//!    the merged partial into the user-facing answer at the root.
//!
//! Keeping the two steps apart is what lets independent queries share
//! waves (the [`crate::streaming::StreamingEngine`] multiplexes many
//! partials into one envelope), lets partials be cached and re-finalized, and
//! makes adding an aggregate a single-trait exercise. It mirrors the
//! mergeable-summary structure of q-digest-style sensor aggregation
//! (Shrivastava et al., *Medians and Beyond*) and the partial/accessor
//! split popularized by TimescaleDB's two-step aggregates.
//!
//! The concrete aggregates here are exactly the paper's primitives
//! (§2.2/§3.1/§5): [`MinMaxAgg`], [`CountSumAgg`], [`SketchAgg`]
//! (APX_COUNT and approximate COUNT_DISTINCT), [`DistinctSetAgg`] and
//! [`CollectAgg`]. `saq_core::wave_proto` dispatches every simulated wave
//! onto them, and `saq_core::local::LocalNetwork` folds them in memory —
//! one implementation, two execution substrates.

use crate::counting::ApxCountConfig;
use crate::model::{floor_log2, Value};
use crate::predicate::{Domain, Predicate};
use saq_netsim::rng::derive_seed;
use saq_netsim::wire::{
    gamma_len, sorted_run_len, varint_len, width_for_max, BitReader, BitWriter,
};
use saq_netsim::NetsimError;
use saq_sketches::{BottomK, DistinctSketch, HashFamily, LogLog, QuantileSummary};
use std::fmt::Debug;

/// One item presented to [`PartialAggregate::contribute`]: its current
/// value plus a network-unique, stable identity `(node, slot)` — the
/// per-item keying the sketch aggregates hash (§2.2: *"using the hash
/// value of an item as the source of random bits"* needs stable keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemRef {
    /// Hosting node id (item index itself in the local model).
    pub node: u64,
    /// Slot index within the node's multiset.
    pub slot: u64,
    /// The item's current (possibly rescaled) value.
    pub value: Value,
}

/// Outcome of [`PartialAggregate::apply_delta`]: whether (and how
/// faithfully) an item update was folded into an existing partial
/// without re-aggregating the underlying multiset.
///
/// The standing-query machinery (`saq_core::service::FleetService`,
/// `saq_protocols::wave::WaveSubstrate::set_items`) uses this to keep
/// cached subtree partials *valid across item updates*: `Exact` and
/// `Certified` entries stay resident — a standing query's refresh then
/// reads them for zero payload bits — while `Unsupported` entries are
/// invalidated (loudly, per entry) and repaired by the next refresh's
/// dirty-path convergecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaSupport {
    /// The delta was applied **exactly**: the updated partial is equal to
    /// what a fresh re-aggregation over the updated multiset would
    /// produce (bit-identical on the wire).
    Exact,
    /// The delta was applied within the aggregate's declared equivalence
    /// but not necessarily bit-identically — a GK summary re-contributed
    /// and pruned still carries a *valid* certified rank-error bound
    /// ([`saq_sketches::QuantileSummary::max_rank_error`]), but its
    /// entries may differ from a bottom-up rebuild's.
    Certified,
    /// The update cannot be folded in: the caller must invalidate the
    /// cached partial and recompute it from the subtree.
    Unsupported,
}

/// A two-step aggregate: mergeable partial state plus a final accessor.
///
/// Laws (checked by the `tests/partial_aggregation.rs` integration
/// tests):
///
/// * `merge` is **associative** and **commutative** — up to the
///   aggregate's declared equivalence — with `identity()` neutral, so
///   tree shape and child order cannot change the root's answer. Every
///   aggregate here is commutative under `PartialEq` except
///   [`QuantileAgg`], whose pruned summaries are equivalent only up to
///   their certified rank-error bound;
/// * `decode(encode(p)) == p` **bit-exactly**, consuming exactly the bits
///   written — so partials can be packed back-to-back in one envelope;
/// * `encoded_bits(p) == encode(p).len_bits()` for every partial — the
///   **width law**: a partial's cost on the wire is known without
///   writing it, which is how the flat runner bills a partial that
///   crosses its edge as a width rather than a frame.
///
/// The merge laws are what make subtree partials cacheable and
/// re-mergeable in any order:
///
/// ```
/// use saq_core::aggregate::{CountSumAgg, CountSumOp, ItemRef, PartialAggregate};
/// use saq_core::predicate::Predicate;
///
/// let agg = CountSumAgg { op: CountSumOp::Count, pred: Predicate::less_than(10) };
/// let item = |v| ItemRef { node: v, slot: 0, value: v };
/// let (a, b, c) = (
///     agg.partial_over([item(1), item(20)]),
///     agg.partial_over([item(3)]),
///     agg.partial_over([item(7), item(9)]),
/// );
///
/// // Identity is neutral…
/// assert_eq!(agg.merge(a, agg.identity()), a);
/// // …merge is commutative…
/// assert_eq!(agg.merge(a, b), agg.merge(b, a));
/// // …and associative: tree shape cannot change the root's answer.
/// assert_eq!(
///     agg.merge(agg.merge(a, b), c),
///     agg.merge(a, agg.merge(b, c)),
/// );
/// assert_eq!(agg.finalize(&agg.merge(agg.merge(a, b), c)), 4);
/// ```
pub trait PartialAggregate {
    /// The mergeable partial state.
    type Partial: Clone + Debug + PartialEq;
    /// The user-facing answer produced by [`PartialAggregate::finalize`].
    type Output;

    /// The neutral partial (an empty node's contribution).
    fn identity(&self) -> Self::Partial;

    /// Folds one item into a partial.
    fn contribute(&self, p: &mut Self::Partial, item: ItemRef);

    /// Combines two partials (associative, commutative).
    fn merge(&self, a: Self::Partial, b: Self::Partial) -> Self::Partial;

    /// Serializes a partial.
    fn encode(&self, p: &Self::Partial, w: &mut BitWriter);

    /// Exactly how many bits [`encode`] writes for `p`, in closed form
    /// from the codec's own size rules (gamma and varint lengths, the
    /// sorted-run pricing of [`saq_netsim::wire::sorted_run_len`]),
    /// without writing a bit.
    ///
    /// [`encode`]: PartialAggregate::encode
    fn encoded_bits(&self, p: &Self::Partial) -> u64;

    /// Deserializes a partial, consuming exactly what [`encode`] wrote.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on malformed input.
    ///
    /// [`encode`]: PartialAggregate::encode
    fn decode(&self, r: &mut BitReader<'_>) -> Result<Self::Partial, NetsimError>;

    /// The final accessor: partial state to answer. Separate from the
    /// wave so partials can be cached, re-used and re-finalized.
    fn finalize(&self, p: &Self::Partial) -> Self::Output;

    /// Builds this aggregate's partial over a node's items in one go.
    fn partial_over<I: IntoIterator<Item = ItemRef>>(&self, items: I) -> Self::Partial {
        let mut p = self.identity();
        for item in items {
            self.contribute(&mut p, item);
        }
        p
    }

    /// Folds an item update — `removed` items leaving the summarized
    /// multiset, `added` items entering it — into an existing partial
    /// **in place**, without access to the rest of the multiset.
    ///
    /// Contract: when this returns [`DeltaSupport::Exact`], `p` must
    /// equal `partial_over(multiset ∖ removed ∪ added)` for every
    /// multiset consistent with the pre-call `p`; when it returns
    /// [`DeltaSupport::Certified`], `p` must stay within the aggregate's
    /// declared equivalence (e.g. a still-valid rank-error certificate).
    /// When the update cannot be folded in soundly — including any
    /// *suspicion* of unsoundness, such as removing a value that ties a
    /// min/max partial's extremum — the implementation MUST leave `p`
    /// unchanged-or-garbage and return [`DeltaSupport::Unsupported`] so
    /// the caller invalidates; guessing is never allowed.
    ///
    /// The default declines every delta, which preserves the historical
    /// invalidate-on-mutation behavior for aggregates that do not opt in.
    fn apply_delta(
        &self,
        _p: &mut Self::Partial,
        _removed: &[ItemRef],
        _added: &[ItemRef],
    ) -> DeltaSupport {
        DeltaSupport::Unsupported
    }
}

/// Whether a [`MinMaxAgg`] keeps the smallest or largest value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinMaxOp {
    /// Keep the minimum.
    Min,
    /// Keep the maximum.
    Max,
}

/// What a [`MinMaxPartial`] knows about the runner-up (second-smallest
/// for MIN, second-largest for MAX) mapped value of its multiset.
///
/// `Exactly(s)` and `Absent` are exact claims — in particular
/// `Exactly(s)` with `s == best` means the extremum is attained at
/// least twice. `Unknown` is the safe bottom: wire-decoded partials
/// always arrive `Unknown`, and every operation keeps claims sound
/// rather than complete.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RunnerUp {
    /// No claim (a decoded partial, or knowledge lost to a removal).
    Unknown,
    /// Known: the multiset has fewer than two elements.
    #[default]
    Absent,
    /// Known: the runner-up mapped value is exactly this.
    Exactly(Value),
}

/// Min/max partial: the extremum plus — when derivable — the runner-up.
///
/// Only `best` is the answer and only `best` travels on the wire
/// ([`MinMaxAgg`]'s `encode` is unchanged); `second` is free local
/// bookkeeping that lets `apply_delta` *repair* an extremum removal
/// instead of declining it. Partials folded up locally from
/// [`PartialAggregate::identity`] track the runner-up exactly, so leaf
/// caches repair nearly every removal; merged interior partials keep it
/// exactly when children tie (always, in coarse domains like
/// [`Domain::Log`]). Equality compares `best` alone, so bit-identity
/// and cache-equality checks are oblivious to how much runner-up
/// knowledge a particular execution path happened to retain.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinMaxPartial {
    /// The extremum over the summarized multiset (`None` = empty).
    pub best: Option<Value>,
    /// Runner-up knowledge; never on the wire.
    pub second: RunnerUp,
}

impl MinMaxPartial {
    /// A partial that knows only its extremum (the wire-decoded shape):
    /// an empty multiset provably has no runner-up, a non-empty one's is
    /// unknown.
    pub fn of(best: Option<Value>) -> Self {
        MinMaxPartial {
            best,
            second: match best {
                None => RunnerUp::Absent,
                Some(_) => RunnerUp::Unknown,
            },
        }
    }
}

impl PartialEq for MinMaxPartial {
    fn eq(&self, other: &Self) -> bool {
        self.best == other.best
    }
}

/// MIN/MAX over active items in a [`Domain`] (Fact 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinMaxAgg {
    /// Min or max.
    pub op: MinMaxOp,
    /// Evaluation domain (`Log` compares `⌊log₂ ·⌋` values).
    pub domain: Domain,
    /// Declared maximum item value (fixes the wire width).
    pub xbar: Value,
}

impl MinMaxAgg {
    fn map(&self, v: Value) -> Value {
        match self.domain {
            Domain::Raw => v,
            Domain::Log => floor_log2(v) as u64,
        }
    }

    /// Bits of an encoded value: `⌈log₂(X̄ + 1)⌉` raw, fewer in the log
    /// domain.
    pub fn value_width(&self) -> u32 {
        match self.domain {
            Domain::Raw => width_for_max(self.xbar),
            Domain::Log => width_for_max(floor_log2(self.xbar) as u64),
        }
    }

    /// Strict "closer to the extremum" order: `<` for MIN, `>` for MAX.
    fn better(&self, a: Value, b: Value) -> bool {
        match self.op {
            MinMaxOp::Min => a < b,
            MinMaxOp::Max => a > b,
        }
    }
}

impl PartialAggregate for MinMaxAgg {
    type Partial = MinMaxPartial;
    type Output = Option<Value>;

    fn identity(&self) -> MinMaxPartial {
        MinMaxPartial::default()
    }

    fn contribute(&self, p: &mut MinMaxPartial, item: ItemRef) {
        let v = self.map(item.value);
        match p.best {
            // First element: an empty partial's runner-up claim
            // (`Absent`) stays exactly right for a singleton.
            None => p.best = Some(v),
            // A new extremum: the old one is exactly the runner-up.
            Some(b) if self.better(v, b) => {
                p.best = Some(v);
                p.second = RunnerUp::Exactly(b);
            }
            // A tie: the extremum is attained twice, so the runner-up
            // equals it exactly, whatever was known before.
            Some(b) if v == b => p.second = RunnerUp::Exactly(b),
            // Strictly worse than the extremum: v fills an absent
            // runner-up or displaces a known one, but cannot create
            // knowledge out of `Unknown`.
            Some(_) => match p.second {
                RunnerUp::Absent => p.second = RunnerUp::Exactly(v),
                RunnerUp::Exactly(s) if self.better(v, s) => p.second = RunnerUp::Exactly(v),
                RunnerUp::Exactly(_) | RunnerUp::Unknown => {}
            },
        }
    }

    fn merge(&self, a: MinMaxPartial, b: MinMaxPartial) -> MinMaxPartial {
        match (a.best, b.best) {
            // An empty side contributes nothing (and, being empty, its
            // `Absent` claim is vacuous).
            (None, _) => b,
            (_, None) => a,
            // Tied extremums across the two multisets: the union attains
            // it at least twice, so the runner-up is exact.
            (Some(x), Some(y)) if x == y => MinMaxPartial {
                best: Some(x),
                second: RunnerUp::Exactly(x),
            },
            (Some(x), Some(y)) => {
                let (win, lose) = if self.better(x, y) { (a, y) } else { (b, x) };
                // The union's runner-up is the better of the winner's
                // runner-up and the loser's extremum — exact whenever
                // the winner's own runner-up claim is exact.
                MinMaxPartial {
                    best: win.best,
                    second: match win.second {
                        RunnerUp::Absent => RunnerUp::Exactly(lose),
                        RunnerUp::Exactly(s) if self.better(s, lose) => RunnerUp::Exactly(s),
                        RunnerUp::Exactly(_) => RunnerUp::Exactly(lose),
                        RunnerUp::Unknown => RunnerUp::Unknown,
                    },
                }
            }
        }
    }

    fn encode(&self, p: &MinMaxPartial, w: &mut BitWriter) {
        // No domain discriminator: the request is the schema, and the
        // domain fixes the width — `Θ(log X̄)` raw values vs
        // `Θ(log log X̄)` log values, the split the polyloglog algorithm
        // relies on. The runner-up is deliberately NOT serialized: it is
        // repair metadata, and shipping it would change every message
        // size the paper's accounting depends on.
        match p.best {
            None => w.write_bits(0, 1),
            Some(v) => {
                w.write_bits(1, 1);
                w.write_bits(v, self.value_width());
            }
        }
    }

    fn encoded_bits(&self, p: &MinMaxPartial) -> u64 {
        1 + p.best.map_or(0, |_| self.value_width() as u64)
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<MinMaxPartial, NetsimError> {
        Ok(MinMaxPartial::of(if r.read_bits(1)? == 1 {
            Some(r.read_bits(self.value_width())?)
        } else {
            None
        }))
    }

    fn finalize(&self, p: &MinMaxPartial) -> Option<Value> {
        p.best
    }

    /// Additions always merge in exactly. A removal of a value strictly
    /// inside the partial (above the minimum / below the maximum) leaves
    /// the extremum standing. Removing the extremum itself is *repaired*
    /// when the runner-up is known — the runner-up is the new extremum
    /// (or the surviving tie copy) — and declined otherwise: another
    /// item elsewhere in the summarized multiset may or may not attain
    /// it, and the partial cannot tell.
    fn apply_delta(
        &self,
        p: &mut MinMaxPartial,
        removed: &[ItemRef],
        added: &[ItemRef],
    ) -> DeltaSupport {
        for item in removed {
            let v = self.map(item.value);
            let Some(b) = p.best else {
                // Removing from an empty partial is inconsistent input.
                return DeltaSupport::Unsupported;
            };
            if self.better(v, b) {
                // Outside the summarized range: inconsistent input.
                return DeltaSupport::Unsupported;
            }
            if v == b {
                match p.second {
                    // Tie repair: the runner-up becomes the extremum
                    // (s == b is a surviving tie copy). Whatever ranked
                    // third is unknown.
                    RunnerUp::Exactly(s) => {
                        p.best = Some(s);
                        p.second = RunnerUp::Unknown;
                    }
                    // A singleton being emptied: exactly empty.
                    RunnerUp::Absent => *p = MinMaxPartial::of(None),
                    RunnerUp::Unknown => return DeltaSupport::Unsupported,
                }
            } else {
                match p.second {
                    // The removed copy may have been the one defining
                    // the runner-up; a further copy is unknowable.
                    RunnerUp::Exactly(s) if v == s => p.second = RunnerUp::Unknown,
                    // A removed value strictly between the extremum and
                    // an exact runner-up claim contradicts the claim —
                    // as does any non-extremal removal from a claimed
                    // singleton.
                    RunnerUp::Exactly(s) if self.better(v, s) => return DeltaSupport::Unsupported,
                    RunnerUp::Absent => return DeltaSupport::Unsupported,
                    RunnerUp::Exactly(_) | RunnerUp::Unknown => {}
                }
            }
        }
        for item in added {
            self.contribute(p, *item);
        }
        DeltaSupport::Exact
    }
}

/// Whether a [`CountSumAgg`] counts or sums matching items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountSumOp {
    /// `COUNTP(X, P)` (§3.1).
    Count,
    /// `SUM` over matching items (Fact 2.1).
    Sum,
}

/// Exact predicate count/sum, gamma-coded so a result costs
/// `Θ(log result)` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountSumAgg {
    /// Count or sum.
    pub op: CountSumOp,
    /// The filtering predicate.
    pub pred: Predicate,
}

impl PartialAggregate for CountSumAgg {
    type Partial = u64;
    type Output = u64;

    fn identity(&self) -> u64 {
        0
    }

    fn contribute(&self, p: &mut u64, item: ItemRef) {
        if self.pred.eval(item.value) {
            *p += match self.op {
                CountSumOp::Count => 1,
                CountSumOp::Sum => item.value,
            };
        }
    }

    fn merge(&self, a: u64, b: u64) -> u64 {
        a + b
    }

    fn encode(&self, p: &u64, w: &mut BitWriter) {
        w.write_gamma(p + 1);
    }

    fn encoded_bits(&self, p: &u64) -> u64 {
        gamma_len(p + 1)
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
        Ok(r.read_gamma()? - 1)
    }

    fn finalize(&self, p: &u64) -> u64 {
        *p
    }

    /// Counts and sums form a group: the delta is the signed difference
    /// of the removed and added contributions — always exact. Underflow
    /// (removing more than the partial holds) means the caller's delta is
    /// inconsistent with this partial, so it is declined rather than
    /// clamped.
    fn apply_delta(&self, p: &mut u64, removed: &[ItemRef], added: &[ItemRef]) -> DeltaSupport {
        let weigh = |items: &[ItemRef]| -> u64 {
            items
                .iter()
                .filter(|it| self.pred.eval(it.value))
                .map(|it| match self.op {
                    CountSumOp::Count => 1,
                    CountSumOp::Sum => it.value,
                })
                .sum()
        };
        match p.checked_sub(weigh(removed)) {
            Some(rest) => {
                *p = rest + weigh(added);
                DeltaSupport::Exact
            }
            None => DeltaSupport::Unsupported,
        }
    }
}

/// How a [`SketchAgg`] keys items into its hash functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchKey {
    /// By stable item identity `(node, slot)`: population counting
    /// (`APX_COUNT`, Fact 2.2).
    ByItem,
    /// By item value: duplicate-insensitive distinct counting (§2.2/§5).
    ByValue,
}

/// `reps` independent LogLog instances merged register-wise (ODI), the
/// paper's α-counting protocol instantiation.
///
/// Instance `i` hashes with a function derived from `(cfg.seed, nonce,
/// i)`, and only once an item is contributed: merge/encode/decode never
/// hash, and the wave dispatch rebuilds this plain `Copy` value per hop,
/// so eager derivation would be pure waste on the codec paths.
#[derive(Debug, Clone, Copy)]
pub struct SketchAgg {
    /// The filtering predicate.
    pub pred: Predicate,
    /// Keying discipline.
    pub key: SketchKey,
    /// Sketch parameters (register count, base seed).
    pub cfg: ApxCountConfig,
    reps: u32,
    nonce: u64,
}

impl SketchAgg {
    /// Builds the aggregate for one invocation: `reps` instances whose
    /// hash functions derive from `nonce`.
    pub fn new(
        pred: Predicate,
        key: SketchKey,
        cfg: ApxCountConfig,
        reps: u32,
        nonce: u64,
    ) -> Self {
        SketchAgg {
            pred,
            key,
            cfg,
            reps,
            nonce,
        }
    }

    /// Number of independent instances.
    pub fn reps(&self) -> u32 {
        self.reps
    }

    /// Inserts `item`, when the predicate keeps it, into every instance,
    /// deriving the hash functions into `hashers` on first use.
    fn insert(&self, p: &mut [LogLog], hashers: &mut Option<Vec<HashFamily>>, item: ItemRef) {
        if !self.pred.eval(item.value) {
            return;
        }
        let hashers = hashers.get_or_insert_with(|| {
            (0..self.reps)
                .map(|inst| HashFamily::new(derive_seed(self.cfg.seed, self.nonce, inst as u64)))
                .collect()
        });
        for (sk, h) in p.iter_mut().zip(hashers.iter()) {
            let key = match self.key {
                SketchKey::ByItem => h.hash_pair(item.node, item.slot),
                SketchKey::ByValue => h.hash(item.value),
            };
            sk.insert_hash(key);
        }
    }

    fn reg_width(&self) -> u32 {
        // Register values are bounded by the hash window + 1.
        width_for_max((64 - self.cfg.b + 1) as u64)
    }
}

impl PartialAggregate for SketchAgg {
    type Partial = Vec<LogLog>;
    type Output = f64;

    fn identity(&self) -> Vec<LogLog> {
        (0..self.reps).map(|_| LogLog::new(self.cfg.b)).collect()
    }

    fn contribute(&self, p: &mut Vec<LogLog>, item: ItemRef) {
        self.insert(p, &mut None, item);
    }

    /// The provided fold, deriving the hash functions once for all items.
    fn partial_over<I: IntoIterator<Item = ItemRef>>(&self, items: I) -> Vec<LogLog> {
        let (mut p, mut hashers) = (self.identity(), None);
        for item in items {
            self.insert(&mut p, &mut hashers, item);
        }
        p
    }

    fn merge(&self, mut a: Vec<LogLog>, b: Vec<LogLog>) -> Vec<LogLog> {
        debug_assert_eq!(a.len(), b.len(), "sketch vectors must align");
        for (x, y) in a.iter_mut().zip(b.iter()) {
            x.merge_from(y);
        }
        a
    }

    fn encode(&self, p: &Vec<LogLog>, w: &mut BitWriter) {
        w.write_varint(p.len() as u64);
        let rw = self.reg_width();
        for sk in p {
            for &r in sk.registers() {
                w.write_bits(r as u64, rw);
            }
        }
    }

    fn encoded_bits(&self, p: &Vec<LogLog>) -> u64 {
        let registers: u64 = p.iter().map(|sk| sk.registers().len() as u64).sum();
        varint_len(p.len() as u64) + registers * self.reg_width() as u64
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<Vec<LogLog>, NetsimError> {
        let n = r.read_varint()? as usize;
        if n != self.reps() as usize {
            return Err(NetsimError::WireDecode("sketch instance count mismatch"));
        }
        let rw = self.reg_width();
        let m = 1usize << self.cfg.b;
        let mut sks = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let mut regs = Vec::with_capacity(m);
            for _ in 0..m {
                regs.push(r.read_bits(rw)? as u8);
            }
            sks.push(
                LogLog::from_registers(self.cfg.b, regs)
                    .map_err(|_| NetsimError::WireDecode("sketch register out of range"))?,
            );
        }
        Ok(sks)
    }

    /// The accessor: mean of the instance estimates (`REP_COUNTP`'s
    /// average, Fig. 2 line 2).
    fn finalize(&self, p: &Vec<LogLog>) -> f64 {
        let total: f64 = p.iter().map(|s| s.estimate()).sum();
        total / p.len().max(1) as f64
    }
}

/// Exact distinct values as a sorted set union (§5) — the deliberately
/// linear-cost aggregate Theorem 5.1 proves unavoidable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistinctSetAgg {
    /// Declared maximum item value (fixes the wire width).
    pub xbar: Value,
}

impl PartialAggregate for DistinctSetAgg {
    type Partial = Vec<Value>;
    type Output = u64;

    fn identity(&self) -> Vec<Value> {
        Vec::new()
    }

    fn contribute(&self, p: &mut Vec<Value>, item: ItemRef) {
        if let Err(pos) = p.binary_search(&item.value) {
            p.insert(pos, item.value);
        }
    }

    /// Bulk fold: collect then sort+dedup once — `O(m log m)` for a
    /// node's whole multiset where per-item sorted inserts would be
    /// `O(m²)`.
    fn partial_over<I: IntoIterator<Item = ItemRef>>(&self, items: I) -> Vec<Value> {
        let mut vals: Vec<Value> = items.into_iter().map(|it| it.value).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    fn merge(&self, a: Vec<Value>, b: Vec<Value>) -> Vec<Value> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            if out.last() != Some(&next) {
                out.push(next);
            }
        }
        out
    }

    fn encode(&self, p: &Vec<Value>, w: &mut BitWriter) {
        // The partial is sorted by invariant, so it travels as a
        // delta-packed run: gamma-coded gaps for clustered value sets,
        // the fixed-width fallback arm otherwise.
        w.write_sorted_deltas(p);
    }

    fn encoded_bits(&self, p: &Vec<Value>) -> u64 {
        sorted_run_len(p.iter().copied())
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<Vec<Value>, NetsimError> {
        let vals = r.read_sorted_deltas(1 << 24)?;
        // The sorted-dedup invariant is what the linear merge relies on;
        // the packed run only guarantees non-decreasing, so a frame with
        // duplicates is malformed, not merely unsorted data.
        if !vals.windows(2).all(|w| w[0] < w[1]) {
            return Err(NetsimError::WireDecode("distinct set not strictly sorted"));
        }
        Ok(vals)
    }

    fn finalize(&self, p: &Vec<Value>) -> u64 {
        p.len() as u64
    }
}

/// Every active value shipped to the root — the naive linear baseline
/// (TAG's "holistic" class). The partial is kept as a **sorted**
/// multiset: the answer is order-insensitive anyway (consumers such as
/// `reference_median` sort), and the canonical order both makes `merge`
/// genuinely commutative and lets the codec delta-pack the value run
/// instead of spending a fixed width per value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectAgg {
    /// Declared maximum item value (fixes the wire width).
    pub xbar: Value,
}

impl PartialAggregate for CollectAgg {
    type Partial = Vec<Value>;
    type Output = Vec<Value>;

    fn identity(&self) -> Vec<Value> {
        Vec::new()
    }

    fn contribute(&self, p: &mut Vec<Value>, item: ItemRef) {
        let pos = p.partition_point(|&v| v <= item.value);
        p.insert(pos, item.value);
    }

    /// Bulk fold: collect then sort once — `O(m log m)` for a node's
    /// whole multiset where per-item sorted inserts would be `O(m²)`.
    fn partial_over<I: IntoIterator<Item = ItemRef>>(&self, items: I) -> Vec<Value> {
        let mut vals: Vec<Value> = items.into_iter().map(|it| it.value).collect();
        vals.sort_unstable();
        vals
    }

    fn merge(&self, a: Vec<Value>, b: Vec<Value>) -> Vec<Value> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x <= y => {
                    out.push(x);
                    i += 1;
                }
                (Some(_), Some(&y)) => {
                    out.push(y);
                    j += 1;
                }
                (Some(&x), None) => {
                    out.push(x);
                    i += 1;
                }
                (None, Some(&y)) => {
                    out.push(y);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        out
    }

    fn encode(&self, p: &Vec<Value>, w: &mut BitWriter) {
        w.write_sorted_deltas(p);
    }

    fn encoded_bits(&self, p: &Vec<Value>) -> u64 {
        sorted_run_len(p.iter().copied())
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<Vec<Value>, NetsimError> {
        r.read_sorted_deltas(1 << 24)
    }

    fn finalize(&self, p: &Vec<Value>) -> Vec<Value> {
        p.clone()
    }
}

/// ε-approximate quantile summary over active items — the
/// Greenwald–Khanna-style mergeable summary of `saq_sketches::quantile`
/// expressed as a two-step aggregate, so the engine can batch "give me
/// any quantile" queries alongside the paper's primitives (the GK
/// comparison the paper cites as concurrent work: *"any approximate
/// order statistic after one pass"*).
///
/// Each merge prunes the combined summary back to `budget + 1` entries,
/// adding at most `⌈count/(2·budget)⌉` rank error per tree level; the
/// root summary answers **every** quantile within its certified
/// [`saq_sketches::QuantileSummary::max_rank_error`]. `merge` is
/// commutative and associative only up to that certificate (pruning is
/// order-sensitive), which is the declared equivalence for this
/// aggregate.
///
/// The codec is request-contextual: values travel in `⌈log₂(X̄+1)⌉` bits
/// and rank bounds in `⌈log₂(count+1)⌉` bits, so a partial costs
/// `Θ(budget · log X̄)` bits — deliberately more than the paper's binary
/// search, in exchange for answering all quantiles in one convergecast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantileAgg {
    /// Prune budget: partials carry at most `budget + 1` entries.
    pub budget: u32,
    /// Declared maximum item value (fixes the wire width).
    pub xbar: Value,
}

impl QuantileAgg {
    fn prune(&self, s: &mut QuantileSummary) {
        s.prune(self.budget.max(1) as usize);
    }

    /// [`PartialAggregate::decode`] into an existing summary, reusing
    /// its storage: what a parent does with each child's report.
    ///
    /// # Errors
    ///
    /// As [`PartialAggregate::decode`]; `p` is left empty.
    pub(crate) fn decode_into(
        &self,
        p: &mut QuantileSummary,
        r: &mut BitReader<'_>,
    ) -> Result<(), NetsimError> {
        let count = r.read_gamma()? - 1;
        p.read_columns(r, count, count.min(1 << 20))
    }

    /// Sizes `acc` once for merging `children` reports, the first of
    /// which has `first_len` entries: room for every report at that
    /// length, but never more than a pruned summary plus one report
    /// (`budget + 1 + first_len`), the most a merge below the prune
    /// ever holds. Without it the accumulator grows to exactly each
    /// merged length, reallocating once per child; doubling instead
    /// would leave up to twice the merged length allocated.
    pub(crate) fn reserve_children(
        &self,
        acc: &mut QuantileSummary,
        children: usize,
        first_len: usize,
    ) {
        let pruned = self.budget.max(1) as usize + 1;
        let want = acc
            .len()
            .saturating_add(children.saturating_mul(first_len))
            .min(pruned.max(acc.len()) + first_len);
        acc.reserve_exact(want - acc.len());
    }

    /// [`PartialAggregate::merge`] of `acc` and `child`, in `acc`'s
    /// storage (see [`QuantileSummary::merge_from`]).
    pub(crate) fn merge_into(&self, acc: &mut QuantileSummary, child: &QuantileSummary) {
        acc.merge_from(child);
        self.prune(acc);
    }
}

impl PartialAggregate for QuantileAgg {
    type Partial = QuantileSummary;
    type Output = QuantileSummary;

    fn identity(&self) -> QuantileSummary {
        QuantileSummary::new()
    }

    fn contribute(&self, p: &mut QuantileSummary, item: ItemRef) {
        *p = QuantileSummary::merged(p, &QuantileSummary::from_single(item.value));
        self.prune(p);
    }

    /// Bulk fold: sort once and build an exact summary, then prune —
    /// `O(m log m)` where per-item merges would be `O(m · budget)`. Zero
    /// or one item needs no sort buffer.
    fn partial_over<I: IntoIterator<Item = ItemRef>>(&self, items: I) -> QuantileSummary {
        let mut items = items.into_iter().map(|it| it.value);
        let Some(first) = items.next() else {
            return QuantileSummary::new();
        };
        let Some(second) = items.next() else {
            return QuantileSummary::from_single(first);
        };
        let mut vals: Vec<Value> = [first, second].into_iter().chain(items).collect();
        vals.sort_unstable();
        let mut s = QuantileSummary::from_sorted(&vals);
        self.prune(&mut s);
        s
    }

    fn merge(&self, a: QuantileSummary, b: QuantileSummary) -> QuantileSummary {
        let mut m = QuantileSummary::merged(&a, &b);
        self.prune(&mut m);
        m
    }

    fn encode(&self, p: &QuantileSummary, w: &mut BitWriter) {
        // Gamma-coded item count, then the summary's three delta-packed
        // columns (values, rmins, rmaxs).
        w.write_gamma(p.count() + 1);
        p.write_columns(w);
    }

    fn encoded_bits(&self, p: &QuantileSummary) -> u64 {
        gamma_len(p.count() + 1) + p.columns_len()
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<QuantileSummary, NetsimError> {
        let mut p = QuantileSummary::new();
        self.decode_into(&mut p, r)?;
        Ok(p)
    }

    /// The accessor is the summary itself: the root queries it for any
    /// rank or φ-quantile (`query_rank`, `query_quantile`) with the
    /// certified error bound.
    fn finalize(&self, p: &QuantileSummary) -> QuantileSummary {
        p.clone()
    }

    /// Re-contribute-and-prune: newly **added** items merge into the
    /// cached summary as one exact sub-summary
    /// ([`QuantileSummary::absorb_sorted`]). Merging an *exact* summary
    /// adds **zero** rank-interval width, so the certificate
    /// ([`QuantileSummary::max_rank_error`]) stays valid and — crucially
    /// — the summary's conformance to its provisioned `ε·N` bound can
    /// never drift, no matter how many insertion deltas accumulate
    /// (pruning here instead would add `count/(2·budget)` error per
    /// delta, unbounded over a standing query's lifetime). The pruning
    /// half of the discipline is *deferred* to the wave layer: when the
    /// grown entry is next merged upward, [`QuantileAgg::merge`] prunes
    /// it under the budget that was provisioned for exactly those
    /// merges. To bound memory and wire growth the entry may grow only
    /// to twice its pruned size; a larger insertion burst declines, and
    /// the dirty-path refresh rebuilds the entry under the standard
    /// per-merge prune discipline. The result is
    /// [`DeltaSupport::Certified`], not exact: a bottom-up rebuild would
    /// prune at different intermediate shapes. Removals are declined —
    /// values cannot be deleted from a pruned summary — so value
    /// *changes* (a removal plus an addition) fall back to invalidation
    /// and a dirty-path rebuild.
    fn apply_delta(
        &self,
        p: &mut QuantileSummary,
        removed: &[ItemRef],
        added: &[ItemRef],
    ) -> DeltaSupport {
        if !removed.is_empty() {
            return DeltaSupport::Unsupported;
        }
        if added.is_empty() {
            return DeltaSupport::Exact;
        }
        let slack = 2 * (self.budget.max(1) as usize + 1);
        if p.len() + added.len() > slack {
            return DeltaSupport::Unsupported;
        }
        let mut vals: Vec<Value> = added.iter().map(|it| it.value).collect();
        vals.sort_unstable();
        p.absorb_sorted(&vals);
        DeltaSupport::Certified
    }
}

/// Bottom-k (KMV) uniform value sample over active items — the ODI
/// sampling synopsis of `saq_sketches::sampling` as a two-step
/// aggregate.
///
/// Items are keyed by a hash of their stable `(node, slot)` identity, so
/// "the k smallest keys of the union" is a uniform sample of the item
/// population determined by the union alone: order- and
/// duplicate-insensitive, hence safely re-mergeable from cached subtree
/// partials. The hash seed derives from `(cfg seed, nonce)` carried in
/// the request encoding, so equal requests reproduce the identical
/// sample — which is what makes the aggregate *cacheable* (a repeat hit
/// is bit-exact, not a fresh random draw).
///
/// A partial costs `Θ(k · (64 + log X̄))` bits (full hash keys are kept
/// on the wire so `decode(encode(p)) == p` holds bit-exactly), the
/// `Ω(log N)`-per-node shape the paper contrasts with its polyloglog
/// algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BottomKAgg {
    /// Sample capacity `k`.
    pub k: u32,
    /// Declared maximum item value (fixes the value wire width).
    pub xbar: Value,
    hash: HashFamily,
}

impl BottomKAgg {
    /// Builds the aggregate for one invocation, hashing item identities
    /// with a function derived from `(seed, nonce)`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (callers validate via [`crate::plan::PlanOp::validate`]).
    pub fn new(k: u32, xbar: Value, seed: u64, nonce: u64) -> Self {
        assert!(k > 0, "bottom-k sample capacity must be positive");
        BottomKAgg {
            k,
            xbar,
            hash: HashFamily::new(derive_seed(seed, nonce, 0xB077)),
        }
    }

    fn value_width(&self) -> u32 {
        width_for_max(self.xbar).max(1)
    }

    /// [`PartialAggregate::decode`] into an existing sample, reusing
    /// its storage when it already has this aggregate's shape (`k` and
    /// value width). Repeated keys collapse, first value kept.
    ///
    /// # Errors
    ///
    /// As [`PartialAggregate::decode`]; `p` is left empty.
    pub(crate) fn decode_into(
        &self,
        p: &mut BottomK,
        r: &mut BitReader<'_>,
    ) -> Result<(), NetsimError> {
        if p.k() != self.k as usize || p.value_width() != self.value_width() {
            *p = self.identity();
        }
        p.read_pairs(r).map(drop)
    }
}

impl PartialAggregate for BottomKAgg {
    type Partial = BottomK;
    type Output = Vec<Value>;

    fn identity(&self) -> BottomK {
        BottomK::new(self.k as usize, self.value_width())
    }

    fn contribute(&self, p: &mut BottomK, item: ItemRef) {
        p.insert(self.hash.hash_pair(item.node, item.slot), item.value);
    }

    fn merge(&self, mut a: BottomK, b: BottomK) -> BottomK {
        a.merge_from(&b);
        a
    }

    fn encode(&self, p: &BottomK, w: &mut BitWriter) {
        // k and the value width are request context known to both
        // endpoints; only the retained pairs travel: the key column as
        // one delta-packed sorted run (its own length header included),
        // then the values in key order. Uniform hash keys are
        // incompressible, so the key run usually takes its fixed-width
        // fallback arm — the win here is the shrunken headers.
        p.write_pairs(w);
    }

    fn encoded_bits(&self, p: &BottomK) -> u64 {
        p.pairs_len()
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Result<BottomK, NetsimError> {
        let mut p = self.identity();
        self.decode_into(&mut p, r)?;
        Ok(p)
    }

    /// The accessor: the sampled values, ordered by hash key (i.e.
    /// uniformly shuffled) — the root can take quantiles, means, or any
    /// other statistic of the uniform sample.
    fn finalize(&self, p: &BottomK) -> Vec<Value> {
        p.sample()
    }

    /// Exact, because the sample is keyed by stable item *identity*: a
    /// value change of a retained identity updates the stored pair in
    /// place; one whose key lies above the retained range (a full sample
    /// never held it and never will — later insertions only shrink the
    /// k-th key) is a no-op; insertions are the ordinary ODI insert.
    /// Removing a *retained* identity is declined — the evicted
    /// (k+1)-smallest key is unknowable from the partial alone.
    ///
    /// An identity appears at most once in `removed` and at most once in
    /// `added` (an item leaves or enters a multiset once per update), so
    /// pairing needs no bookkeeping and the delta allocates nothing.
    fn apply_delta(&self, p: &mut BottomK, removed: &[ItemRef], added: &[ItemRef]) -> DeltaSupport {
        let same = |a: &ItemRef, b: &ItemRef| a.node == b.node && a.slot == b.slot;
        // A removal paired with an addition of the same identity is an
        // in-place value update of one (node, slot).
        for r in removed {
            let key = self.hash.hash_pair(r.node, r.slot);
            if let Some(a) = added.iter().find(|a| same(a, r)) {
                if p.set_value(key, a.value) {
                    continue; // retained identity: exact in-place update
                }
            } else if p.contains_key(key) {
                // True removal of a retained identity: unknowable backfill.
                return DeltaSupport::Unsupported;
            }
            // Key not retained: sound as a no-op only when the sample is
            // full (the key provably sits above the k-th smallest);
            // a non-full sample retains every key it ever saw, so a miss
            // means the delta is inconsistent with this partial.
            if p.len() < p.k() {
                return DeltaSupport::Unsupported;
            }
        }
        for a in added {
            if !removed.iter().any(|r| same(a, r)) {
                p.insert(self.hash.hash_pair(a.node, a.slot), a.value);
            }
        }
        DeltaSupport::Exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(v: Value) -> ItemRef {
        ItemRef {
            node: v,
            slot: 0,
            value: v,
        }
    }

    fn roundtrip<A: PartialAggregate>(agg: &A, p: &A::Partial) {
        let mut w = BitWriter::new();
        agg.encode(p, &mut w);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(&agg.decode(&mut r).unwrap(), p);
        assert_eq!(r.remaining(), 0, "decode must consume exactly encode");
        assert_eq!(agg.encoded_bits(p), s.len_bits(), "the width law");
    }

    #[test]
    fn minmax_two_step() {
        let agg = MinMaxAgg {
            op: MinMaxOp::Min,
            domain: Domain::Raw,
            xbar: 100,
        };
        let p = agg.partial_over([item(9), item(3), item(40)]);
        assert_eq!(agg.finalize(&p), Some(3));
        assert_eq!(agg.merge(p, agg.identity()), MinMaxPartial::of(Some(3)));
        roundtrip(&agg, &MinMaxPartial::of(Some(3)));
        roundtrip(&agg, &MinMaxPartial::of(None));
        // The runner-up is bookkeeping, not identity: equality (and the
        // wire) see only the extremum.
        assert_eq!(
            MinMaxPartial {
                best: Some(3),
                second: RunnerUp::Exactly(9)
            },
            MinMaxPartial::of(Some(3))
        );
        let mut w = BitWriter::new();
        agg.encode(
            &MinMaxPartial {
                best: Some(3),
                second: RunnerUp::Exactly(9),
            },
            &mut w,
        );
        let with_second = w.finish();
        let mut w = BitWriter::new();
        agg.encode(&MinMaxPartial::of(Some(3)), &mut w);
        assert_eq!(with_second, w.finish(), "runner-up never hits the wire");
    }

    #[test]
    fn minmax_log_domain_width() {
        let agg = MinMaxAgg {
            op: MinMaxOp::Max,
            domain: Domain::Log,
            xbar: 1 << 40,
        };
        let p = agg.partial_over([item(1 << 30)]);
        assert_eq!(agg.finalize(&p), Some(30));
        let mut w = BitWriter::new();
        agg.encode(&p, &mut w);
        assert!(w.finish().len_bits() <= 1 + 6, "log-domain value is tiny");
    }

    #[test]
    fn countsum_two_step() {
        let count = CountSumAgg {
            op: CountSumOp::Count,
            pred: Predicate::less_than(10),
        };
        let p = count.partial_over([item(1), item(5), item(20)]);
        assert_eq!(count.finalize(&p), 2);
        let sum = CountSumAgg {
            op: CountSumOp::Sum,
            pred: Predicate::TRUE,
        };
        let p = sum.partial_over([item(1), item(5), item(20)]);
        assert_eq!(sum.finalize(&p), 26);
        roundtrip(&sum, &26);
        roundtrip(&sum, &0);
    }

    #[test]
    fn sketch_item_vs_value_keying() {
        let cfg = ApxCountConfig::default();
        let by_item = SketchAgg::new(Predicate::TRUE, SketchKey::ByItem, cfg, 8, 1);
        let by_value = SketchAgg::new(Predicate::TRUE, SketchKey::ByValue, cfg, 8, 1);
        // 600 copies of one value: population ~600, distinct ~1.
        let items: Vec<ItemRef> = (0..600)
            .map(|i| ItemRef {
                node: i,
                slot: 0,
                value: 42,
            })
            .collect();
        let pop = by_item.finalize(&by_item.partial_over(items.iter().copied()));
        let distinct = by_value.finalize(&by_value.partial_over(items.iter().copied()));
        assert!(pop > 200.0, "population estimate {pop}");
        assert!(distinct < 10.0, "distinct estimate {distinct}");
    }

    #[test]
    fn sketch_merge_matches_union() {
        let cfg = ApxCountConfig::default();
        let agg = SketchAgg::new(Predicate::TRUE, SketchKey::ByItem, cfg, 4, 7);
        let left = agg.partial_over((0..300).map(|i| ItemRef {
            node: i,
            slot: 0,
            value: 1,
        }));
        let right = agg.partial_over((300..500).map(|i| ItemRef {
            node: i,
            slot: 0,
            value: 1,
        }));
        let all = agg.partial_over((0..500).map(|i| ItemRef {
            node: i,
            slot: 0,
            value: 1,
        }));
        assert_eq!(agg.merge(left, right), all);
        roundtrip(&agg, &all);
    }

    #[test]
    fn distinct_set_union() {
        let agg = DistinctSetAgg { xbar: 100 };
        let a = agg.partial_over([item(5), item(1), item(5)]);
        assert_eq!(a, vec![1, 5]);
        let b = agg.partial_over([item(3), item(5)]);
        let m = agg.merge(a, b);
        assert_eq!(m, vec![1, 3, 5]);
        assert_eq!(agg.finalize(&m), 3);
        roundtrip(&agg, &m);
    }

    #[test]
    fn quantile_two_step() {
        let agg = QuantileAgg {
            budget: 8,
            xbar: 1000,
        };
        let left = agg.partial_over((0..500).map(item));
        let right = agg.partial_over((500..1000).map(item));
        assert!(left.len() <= 9, "partial pruned to budget+1");
        let m = agg.merge(left, right);
        let s = agg.finalize(&m);
        assert_eq!(s.count(), 1000);
        let med = s.query_rank(500).unwrap();
        let err = s.max_rank_error();
        // True rank of value v is v+1; certified bound must hold.
        assert!(
            (med + 1).abs_diff(500) <= err,
            "median {med} rank error {err}"
        );
        roundtrip(&agg, &m);
        roundtrip(&agg, &QuantileSummary::new());
    }

    #[test]
    fn quantile_identity_neutral() {
        let agg = QuantileAgg {
            budget: 4,
            xbar: 100,
        };
        let p = agg.partial_over([item(3), item(9), item(27)]);
        assert_eq!(agg.merge(p.clone(), agg.identity()), p);
        assert_eq!(agg.merge(agg.identity(), p.clone()), p);
    }

    #[test]
    fn quantile_decode_rejects_inconsistent_summary() {
        let agg = QuantileAgg {
            budget: 4,
            xbar: 100,
        };
        // len > count is impossible for a real summary.
        let mut w = BitWriter::new();
        w.write_gamma(2); // count = 1
        w.write_gamma(3); // len = 2
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert!(agg.decode(&mut r).is_err());
    }

    #[test]
    fn bottom_k_two_step_is_odi() {
        let agg = BottomKAgg::new(16, 1000, 7, 42);
        let whole = agg.partial_over((0..200).map(item));
        let left = agg.partial_over((0..120).map(item));
        let right = agg.partial_over((120..200).map(item));
        // Any partition merges to the union's bottom-k (ODI).
        assert_eq!(agg.merge(left.clone(), right.clone()), whole);
        assert_eq!(agg.merge(right, left), whole);
        let sample = agg.finalize(&whole);
        assert_eq!(sample.len(), 16);
        roundtrip(&agg, &whole);
        roundtrip(&agg, &agg.identity());
    }

    #[test]
    fn bottom_k_same_nonce_reproduces_sample() {
        let a = BottomKAgg::new(8, 100, 5, 1);
        let b = BottomKAgg::new(8, 100, 5, 1);
        let c = BottomKAgg::new(8, 100, 5, 2);
        let items: Vec<ItemRef> = (0..50).map(item).collect();
        assert_eq!(
            a.partial_over(items.iter().copied()),
            b.partial_over(items.iter().copied()),
            "equal (seed, nonce) must be bit-identical (cacheability)"
        );
        assert_ne!(
            a.finalize(&a.partial_over(items.iter().copied())),
            c.finalize(&c.partial_over(items.iter().copied())),
            "different nonces draw different samples"
        );
    }

    #[test]
    fn bottom_k_decode_rejects_oversized_sample() {
        let agg = BottomKAgg::new(2, 100, 5, 1);
        let mut w = BitWriter::new();
        w.write_gamma(4); // len = 3 > k = 2
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert!(agg.decode(&mut r).is_err());
    }

    #[test]
    fn countsum_delta_is_exact_and_rejects_underflow() {
        let sum = CountSumAgg {
            op: CountSumOp::Sum,
            pred: Predicate::less_than(100),
        };
        let base = [item(5), item(20), item(7)];
        let mut p = sum.partial_over(base);
        // Replace 20 (filtered out? no: < 100) with 150 (filtered out).
        assert_eq!(
            sum.apply_delta(&mut p, &[item(20)], &[item(150)]),
            DeltaSupport::Exact
        );
        assert_eq!(p, sum.partial_over([item(5), item(7), item(150)]));
        // Removing more than the partial holds is inconsistent input.
        let mut small = sum.partial_over([item(3)]);
        assert_eq!(
            sum.apply_delta(&mut small, &[item(50)], &[]),
            DeltaSupport::Unsupported
        );
    }

    #[test]
    fn minmax_delta_repairs_extremum_removal() {
        let min = MinMaxAgg {
            op: MinMaxOp::Min,
            domain: Domain::Raw,
            xbar: 100,
        };
        let mut p = min.partial_over([item(9), item(3), item(40)]);
        // Removing a non-extremal value and adding a new minimum: exact.
        assert_eq!(
            min.apply_delta(&mut p, &[item(40)], &[item(2)]),
            DeltaSupport::Exact
        );
        assert_eq!(p, MinMaxPartial::of(Some(2)));
        // Removing the extremum with a known runner-up: repaired — the
        // runner-up (the displaced old minimum, 3) takes over.
        assert_eq!(
            min.apply_delta(&mut p, &[item(2)], &[item(50)]),
            DeltaSupport::Exact
        );
        assert_eq!(min.finalize(&p), Some(3));
        // A wire-decoded partial knows no runner-up: the same removal is
        // unknowable and must decline.
        let mut cold = MinMaxPartial::of(Some(3));
        assert_eq!(
            min.apply_delta(&mut cold, &[item(3)], &[]),
            DeltaSupport::Unsupported
        );
        // Tie repair: two copies of the minimum, remove one — the other
        // survives as both extremum and (now unknown) runner-up anchor.
        let mut tied = min.partial_over([item(5), item(5), item(80)]);
        assert_eq!(
            min.apply_delta(&mut tied, &[item(5)], &[]),
            DeltaSupport::Exact
        );
        assert_eq!(min.finalize(&tied), Some(5));
        assert_eq!(
            min.apply_delta(&mut tied, &[item(5)], &[]),
            DeltaSupport::Unsupported,
            "second copy removed: a third is unknowable"
        );
        // A removal strictly between the extremum and an exact
        // runner-up claim contradicts the claim: decline.
        let mut q = min.partial_over([item(10), item(20)]);
        assert_eq!(q.second, RunnerUp::Exactly(20));
        assert_eq!(
            min.apply_delta(&mut q, &[item(15)], &[]),
            DeltaSupport::Unsupported
        );
        // Emptying a known singleton is exact; emptying further is not.
        let mut solo = min.partial_over([item(42)]);
        assert_eq!(
            min.apply_delta(&mut solo, &[item(42)], &[]),
            DeltaSupport::Exact
        );
        assert_eq!(min.finalize(&solo), None);
        assert_eq!(
            min.apply_delta(&mut solo, &[item(42)], &[]),
            DeltaSupport::Unsupported
        );
        let max = MinMaxAgg {
            op: MinMaxOp::Max,
            domain: Domain::Log,
            xbar: 1 << 20,
        };
        // Log domain: 1<<10 and (1<<10)+5 share an octave, so removing
        // the latter while the recorded maximum is that octave is an
        // extremum removal — repaired by the locally tracked runner-up
        // (the octave of 4).
        let mut lone = max.partial_over([item(1 << 10), item(4)]);
        assert_eq!(
            max.apply_delta(&mut lone, &[item((1 << 10) + 5)], &[]),
            DeltaSupport::Exact
        );
        assert_eq!(max.finalize(&lone), Some(2));
        // Octave ties keep the runner-up exact through merges too: two
        // subtrees topping out in the same octave repair after one side
        // loses its top item.
        let left = max.partial_over([item(1 << 10)]);
        let right = max.partial_over([item((1 << 10) + 5)]);
        let mut merged = max.merge(left, right);
        assert_eq!(merged.second, RunnerUp::Exactly(10));
        assert_eq!(
            max.apply_delta(&mut merged, &[item(1 << 10)], &[]),
            DeltaSupport::Exact
        );
        assert_eq!(max.finalize(&merged), Some(10));
    }

    #[test]
    fn bottom_k_delta_matches_fresh_sample() {
        let agg = BottomKAgg::new(8, 1000, 7, 42);
        let base: Vec<ItemRef> = (0..50).map(item).collect();
        let mut p = agg.partial_over(base.iter().copied());
        // Value update of every identity (the sensor-refresh case):
        // pair each removal with an addition at the same (node, slot).
        let removed: Vec<ItemRef> = base.clone();
        let added: Vec<ItemRef> = base
            .iter()
            .map(|it| ItemRef {
                node: it.node,
                slot: it.slot,
                value: (it.value * 13) % 1000,
            })
            .collect();
        assert_eq!(
            agg.apply_delta(&mut p, &removed, &added),
            DeltaSupport::Exact
        );
        assert_eq!(p, agg.partial_over(added.iter().copied()), "bit-exact");
        // Pure insertion of a new identity: exact too.
        let newcomer = ItemRef {
            node: 999,
            slot: 0,
            value: 77,
        };
        let mut q = agg.partial_over(added.iter().copied());
        assert_eq!(
            agg.apply_delta(&mut q, &[], &[newcomer]),
            DeltaSupport::Exact
        );
        let mut all = added.clone();
        all.push(newcomer);
        assert_eq!(q, agg.partial_over(all.iter().copied()));
        // Removing a retained identity cannot be backfilled.
        let sampled_identity = {
            let sample_keys: Vec<u64> = q.entries().iter().map(|e| e.0).collect();
            *all.iter()
                .find(|it| {
                    sample_keys.contains(
                        &BottomKAgg::new(8, 1000, 7, 42)
                            .hash
                            .hash_pair(it.node, it.slot),
                    )
                })
                .expect("some item is sampled")
        };
        assert_eq!(
            agg.apply_delta(&mut q, &[sampled_identity], &[]),
            DeltaSupport::Unsupported
        );
    }

    #[test]
    fn quantile_delta_recontributes_with_valid_certificate() {
        let agg = QuantileAgg {
            budget: 8,
            xbar: 2000,
        };
        let base: Vec<ItemRef> = (0..500).map(item).collect();
        let mut p = agg.partial_over(base.iter().copied());
        let pre_err = p.max_rank_error();
        // A small addition absorbs exactly (no prune, no added error):
        // the certificate stays valid and conformance cannot drift.
        let added: Vec<ItemRef> = (500..506).map(item).collect();
        assert_eq!(
            agg.apply_delta(&mut p, &[], &added),
            DeltaSupport::Certified
        );
        assert_eq!(p.count(), 506);
        assert!(p.len() <= 2 * 9, "growth bounded by the 2x slack");
        assert!(
            p.max_rank_error() <= pre_err,
            "absorbing an exact sub-summary must not add rank error"
        );
        let med = p.query_rank(253).unwrap();
        let err = p.max_rank_error();
        assert!(
            (med + 1).abs_diff(253) <= err,
            "median {med} outside certified ±{err}"
        );
        // Error stays non-accumulating across a LONG insertion stream:
        // each delta either absorbs exactly or declines — it never
        // prunes — so a standing quantile cannot drift past its
        // provisioned ε·N (the review-found accumulation bug).
        let mut q = agg.partial_over(base.iter().copied());
        let baseline = q.max_rank_error();
        let mut declined = 0;
        for round in 0..50u64 {
            let one = [item(700 + round)];
            match agg.apply_delta(&mut q, &[], &one) {
                DeltaSupport::Certified => {
                    assert!(q.max_rank_error() <= baseline, "error accumulated");
                }
                DeltaSupport::Unsupported => declined += 1,
                DeltaSupport::Exact => unreachable!("insertions are certified"),
            }
        }
        assert!(declined > 0, "the slack bound must eventually decline");
        assert!(q.len() <= 2 * 9);
        // An oversized burst declines up front (entry unchanged)…
        let burst: Vec<ItemRef> = (800..1000).map(item).collect();
        let before = q.clone();
        assert_eq!(
            agg.apply_delta(&mut q, &[], &burst),
            DeltaSupport::Unsupported
        );
        assert_eq!(q, before, "declined delta must not touch the partial");
        // …and removals (value changes) are declined too.
        assert_eq!(
            agg.apply_delta(&mut q, &[item(3)], &[item(9)]),
            DeltaSupport::Unsupported
        );
    }

    #[test]
    fn unsupported_aggregates_decline_deltas() {
        let collect = CollectAgg { xbar: 100 };
        let mut p = collect.partial_over([item(1), item(2)]);
        assert_eq!(
            collect.apply_delta(&mut p, &[item(1)], &[item(3)]),
            DeltaSupport::Unsupported
        );
        let distinct = DistinctSetAgg { xbar: 100 };
        let mut s = distinct.partial_over([item(1), item(2)]);
        assert_eq!(
            distinct.apply_delta(&mut s, &[item(1)], &[item(3)]),
            DeltaSupport::Unsupported
        );
    }

    #[test]
    fn collect_merges_sorted_multisets() {
        let agg = CollectAgg { xbar: 100 };
        let a = agg.partial_over([item(9), item(2)]);
        let b = agg.partial_over([item(7), item(9)]);
        let m = agg.merge(a.clone(), b.clone());
        assert_eq!(agg.finalize(&m), vec![2, 7, 9, 9]);
        assert_eq!(agg.merge(b, a), m, "canonical order is merge-order-free");
        roundtrip(&agg, &m);
    }
}
