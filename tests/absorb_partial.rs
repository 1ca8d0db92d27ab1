//! By-reference merge and width property suite: for **every**
//! [`CoreRequest`] kind, for 1–6-slot multiplexed envelopes of them and
//! for the mixed `Count/Min/Max/Sum/Quantile/BottomK` envelope, a child
//! partial crossing a flat edge as a width must be indistinguishable
//! from the frame the boxed oracle sends and decodes:
//!
//! 1. **the width law** — `partial_width(req, p) ==
//!    encode_partial(req, p).len_bits()`, empty partials, saturated GK
//!    summaries and full bottom-k samples included (and, for envelopes,
//!    the slot widths of the split partial add up to it);
//! 2. [`WaveProtocol::absorb_partial`] (told at a first child how many
//!    children there are, so it may also size the accumulator for the
//!    children to come) leaves `acc` equal to the suite's [`Reference`]
//!    merge — the child decoded off its frame, then merged slot by slot
//!    with the [`PartialAggregate::merge`] of [`CoreWave::agg`] — under
//!    the partial type's own equality *and* field for field (`Debug`),
//!    so state equality ignores, such as a min/max runner-up, must match
//!    too: the child is merged in its wire-normal form. Absorbing an
//!    envelope slot by slot ([`Envelope::absorb_slot`], how a parent
//!    merges a child's cached and computed slots), from its split
//!    single-slot form or from the whole child, gives the same;
//! 3. a mis-shaped accumulator or child is an `Err`, not a panic or a
//!    partial merge, and a frame one bit short is an `Err` from
//!    `decode_partial` (the boxed oracle's path), not a panic.
//!
//! `CoreWave` merges `Count`/`Sum`, `Min`/`Max`, `Quantile`, `BottomK`
//! and sketches in place and copies only value lists and sets;
//! `MultiplexWave` merges slot by slot in place. Every runner merges
//! through `absorb_partial` — the flat runner, the boxed oracle and
//! rings alike — so the flat-vs-boxed suites no longer cross-check the
//! merge: this suite is that cross-check.

use proptest::prelude::*;
use saq::core::aggregate::{PartialAggregate, RunnerUp};
use saq::core::counting::ApxCountConfig;
use saq::core::predicate::{Domain, Predicate};
use saq::core::wave_proto::{CoreAgg, CorePartial, CoreRequest, CoreWave, SimItem};
use saq::netsim::wire::{BitReader, BitWriter};
use saq::netsim::NetsimError;
use saq::protocols::mux::{Envelope, MultiplexWave, MuxEntry};
use saq::protocols::wave::WaveProtocol;

const XBAR: u64 = 1000;
/// `CoreRequest` has this many kinds; `request` maps `0..KINDS` onto them.
const KINDS: u32 = 11;
/// How a child report is absorbed: plain, or as the first of this many.
const FIRST_OF: [Option<usize>; 4] = [None, Some(1), Some(3), Some(64)];

fn request(kind: u32, x: u64) -> CoreRequest {
    let domain = if x.is_multiple_of(2) {
        Domain::Raw
    } else {
        Domain::Log
    };
    let pred = Predicate::less_than2(x % (2 * XBAR));
    let (reps, nonce) = (1 + (x % 3) as u32, (x >> 8) as u32);
    match kind {
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

/// The mixed envelope: one slot of each kind a flat wave merges in
/// place or through scratch.
fn mixed_envelope(x: u64) -> Vec<MuxEntry<CoreRequest>> {
    MultiplexWave::envelope(
        &core_wave(),
        [2, 0, 1, 3, 9, 10]
            .into_iter()
            .enumerate()
            .map(|(i, kind)| request(kind, x.rotate_left(i as u32)))
            .collect(),
    )
}

fn items(values: &[u64]) -> Vec<SimItem> {
    values.iter().map(|&v| SimItem::new(v)).collect()
}

/// The merge `absorb_partial` is checked against: `acc` and a child
/// decoded off its frame, merged by value with the aggregate's own
/// [`PartialAggregate::merge`].
trait Reference: WaveProtocol {
    fn reference_merge(
        &self,
        req: &Self::Request,
        a: Self::Partial,
        b: Self::Partial,
    ) -> Self::Partial;
}

impl Reference for CoreWave {
    fn reference_merge(&self, req: &CoreRequest, a: CorePartial, b: CorePartial) -> CorePartial {
        use CorePartial as P;
        match (self.agg(req), a, b) {
            (CoreAgg::MinMax(g), P::OptVal(x), P::OptVal(y)) => P::OptVal(g.merge(x, y)),
            (CoreAgg::CountSum(g), P::Num(x), P::Num(y)) => P::Num(g.merge(x, y)),
            (CoreAgg::Sketch(g), P::Sketches(xs), P::Sketches(ys)) => P::Sketches(g.merge(xs, ys)),
            (CoreAgg::Collect(g), P::Values(xs), P::Values(ys)) => P::Values(g.merge(xs, ys)),
            (CoreAgg::Distinct(g), P::Set(xs), P::Set(ys)) => P::Set(g.merge(xs, ys)),
            (CoreAgg::Quantile(g), P::Quantile(xs), P::Quantile(ys)) => {
                P::Quantile(g.merge(xs, ys))
            }
            (CoreAgg::BottomK(g), P::Sample(xs), P::Sample(ys)) => P::Sample(g.merge(xs, ys)),
            (CoreAgg::Zoom, P::Unit, P::Unit) => P::Unit,
            (_, a, b) => panic!("{a:?} and {b:?} do not answer {req:?}"),
        }
    }
}

/// Slot by slot, zipped with the envelope.
impl Reference for MultiplexWave<CoreWave> {
    fn reference_merge(
        &self,
        req: &Vec<MuxEntry<CoreRequest>>,
        a: Vec<CorePartial>,
        b: Vec<CorePartial>,
    ) -> Vec<CorePartial> {
        assert_eq!((a.len(), b.len()), (req.len(), req.len()), "aligned");
        req.iter()
            .zip(a.into_iter().zip(b))
            .map(|(entry, (x, y))| self.inner().reference_merge(&entry.req, x, y))
            .collect()
    }
}

/// Checks the width law for `p`, and returns the frame's decoding.
fn through_the_wire<P: WaveProtocol>(proto: &P, req: &P::Request, p: &P::Partial) -> P::Partial {
    let mut w = BitWriter::new();
    proto.encode_partial(req, p, &mut w);
    let frame = w.finish();
    assert_eq!(
        proto.partial_width(req, p),
        frame.len_bits(),
        "the width law"
    );
    let mut r = BitReader::new(&frame);
    let decoded = proto
        .decode_partial(req, &mut r)
        .expect("well-formed frame must decode");
    assert_eq!(r.remaining(), 0, "the frame is exactly one partial");
    if !frame.is_empty() {
        // A frame one bit short is an `Err`, not a panic: the boxed
        // oracle must not turn a malformed child report into an answer.
        let short = BitReader::new(&frame)
            .read_bitstring(frame.len_bits() - 1)
            .expect("a prefix of the frame");
        assert!(
            proto
                .decode_partial(req, &mut BitReader::new(&short))
                .is_err(),
            "a frame one bit short decoded"
        );
    }
    decoded
}

/// Checks the laws for one protocol, one request, an accumulator and
/// one child partial.
fn check_partials<P>(proto: &P, req: &P::Request, acc: &P::Partial, child: &P::Partial)
where
    P: Reference,
    P::Partial: PartialEq,
{
    through_the_wire(proto, req, acc);
    let merged = proto.reference_merge(req, acc.clone(), through_the_wire(proto, req, child));
    for first_of in FIRST_OF {
        let mut absorbed = acc.clone();
        proto
            .absorb_partial(req, &mut absorbed, child, first_of)
            .expect("an aligned child must absorb");
        assert_eq!(absorbed, merged);
        assert_eq!(format!("{absorbed:?}"), format!("{merged:?}"));
    }
}

/// The laws for the partials of two nodes holding `a` and `b`.
fn check<P>(proto: &P, req: &P::Request, a: &[u64], b: &[u64])
where
    P: Reference<Item = SimItem>,
    P::Partial: PartialEq,
{
    let acc = proto.local(3, &mut items(a), req);
    let child = proto.local(9, &mut items(b), req);
    check_partials(proto, req, &acc, &child);
}

/// The envelope laws, plus the slot path: the child split into its
/// cached single-slot form is billed slot by slot to the same total and
/// the same ledger, and absorbing it slot by slot equals absorbing it
/// whole.
fn check_envelope(env: &[MuxEntry<CoreRequest>], a: &[u64], b: &[u64]) {
    let proto = MultiplexWave::new(core_wave());
    let env = env.to_vec();
    check(&proto, &env, a, b);
    let acc = proto.local(3, &mut items(a), &env);
    let child = proto.local(9, &mut items(b), &env);
    proto.ledger_mut().reset(0);
    let whole = proto.partial_width(&env, &child);
    let whole_bills = proto.ledger_mut().clone();
    proto.ledger_mut().reset(0);
    let mut slots = Vec::new();
    proto.split_slots(child.clone(), &mut |_, part| slots.push(part));
    let by_slot: u64 = slots
        .iter()
        .enumerate()
        .map(|(i, part)| proto.slot_width(&env, i, part))
        .sum();
    assert_eq!(by_slot, whole);
    assert_eq!(proto.ledger_mut().slots(), whole_bills.slots());
    let mut absorbed = acc.clone();
    proto
        .absorb_partial(&env, &mut absorbed, &child, None)
        .unwrap();
    let (mut from_cache, mut from_reply) = (acc.clone(), acc);
    for (i, part) in slots.iter().enumerate() {
        proto
            .absorb_slot(&env, &mut from_cache, i, part, 0, None)
            .unwrap();
        proto
            .absorb_slot(&env, &mut from_reply, i, &child, i, None)
            .unwrap();
    }
    assert_eq!(format!("{from_cache:?}"), format!("{absorbed:?}"));
    assert_eq!(format!("{from_reply:?}"), format!("{absorbed:?}"));
}

fn core_wave() -> CoreWave {
    CoreWave {
        xbar: XBAR,
        apx: ApxCountConfig::default(),
    }
}

/// A min/max accumulator that knows its runner-up exactly — which the
/// wire never carries, and `MinMaxPartial`'s equality ignores — ends
/// with the runner-up the [`Reference`] merge of a decoded child gives
/// it, against children below, between, tied with and above its two
/// values.
#[test]
fn an_exact_min_max_runner_up_survives_the_in_place_merge() {
    let proto = core_wave();
    for req in [
        CoreRequest::Min(Domain::Raw),
        CoreRequest::Max(Domain::Raw),
        CoreRequest::Min(Domain::Log),
        CoreRequest::Max(Domain::Log),
    ] {
        for mine in [[300, 700], [500, 500]] {
            let acc = proto.local(3, &mut items(&mine), &req);
            let CorePartial::OptVal(p) = &acc else {
                panic!("a min/max request has a min/max partial");
            };
            assert!(matches!(p.second, RunnerUp::Exactly(_)), "{acc:?}");
            for theirs in [&[][..], &[1], &[300], &[500], &[600], &[700], &[999, 2]] {
                let child = proto.local(9, &mut items(theirs), &req);
                check_partials(&proto, &req, &acc, &child);
            }
        }
    }
}

/// An accumulator or child with fewer or more slots than its request,
/// a slot out of range, or a core partial of another kind than its
/// request's is a typed error: never an out-of-bounds
/// panic, never a partial merge.
#[test]
fn a_misaligned_mux_accumulator_is_an_error() {
    let proto = MultiplexWave::new(core_wave());
    let env = mixed_envelope(41);
    let acc = proto.local(3, &mut items(&[4, 40, 400]), &env);
    let child = proto.local(9, &mut items(&[5, 50]), &env);

    let mut shorter = acc.clone();
    shorter.pop();
    let mut longer = acc.clone();
    longer.push(CorePartial::Num(0));
    for misaligned in [shorter, longer] {
        for first_of in FIRST_OF {
            for (mut acc, child) in [
                (misaligned.clone(), child.clone()),
                (acc.clone(), misaligned.clone()),
            ] {
                let out = proto.absorb_partial(&env, &mut acc, &child, first_of);
                assert!(
                    matches!(out, Err(NetsimError::WireDecode(_))),
                    "{} slots against {}: {out:?}",
                    misaligned.len(),
                    env.len()
                );
            }
            let out = proto.absorb_slot(&env, &mut misaligned.clone(), 0, &child, 0, first_of);
            assert!(matches!(out, Err(NetsimError::WireDecode(_))), "{out:?}");
        }
    }
    for (i, j) in [(0, env.len()), (env.len(), 0)] {
        let out = proto.absorb_slot(&env, &mut acc.clone(), i, &child, j, None);
        assert!(matches!(out, Err(NetsimError::WireDecode(_))), "{out:?}");
    }

    // Core partials of another kind, or of another shape than the
    // request's (a bottom-k sample of another capacity, another number
    // of sketches), as either the accumulator or the child.
    let core = core_wave();
    let vals = [1, 2, 3, 4, 5];
    for (req, other) in [
        (request(2, 7), request(0, 7)),
        (request(10, 4), request(10, 5)),
        (request(4, 0), request(4, 1)),
    ] {
        let mine = core.local(3, &mut items(&vals), &req);
        let theirs = core.local(9, &mut items(&vals), &other);
        assert_ne!(format!("{mine:?}"), format!("{theirs:?}"));
        for (mut acc, child) in [(mine.clone(), theirs.clone()), (theirs, mine)] {
            let out = core.absorb_partial(&req, &mut acc, &child, None);
            assert!(
                matches!(out, Err(NetsimError::WireDecode(_))),
                "{req:?}: {out:?}"
            );
        }
    }
}

/// The partials the width law is hardest on: empty ones, a GK summary
/// pruned to its budget over many items, a bottom-k sample at capacity.
#[test]
fn the_width_law_holds_at_the_extremes() {
    let proto = core_wave();
    let many: Vec<u64> = (0..400).map(|i| i * 7919 % (XBAR + 1)).collect();
    for kind in 0..KINDS {
        for x in [0, 1, 2, 3, 1 << 33] {
            let req = request(kind, x);
            for values in [&[][..], &[XBAR][..], &many[..]] {
                let p = proto.local(3, &mut items(values), &req);
                through_the_wire(&proto, &req, &p);
            }
        }
    }
    let full = proto.local(
        3,
        &mut items(&many),
        &CoreRequest::BottomK { k: 11, nonce: 5 },
    );
    let CorePartial::Sample(sample) = &full else {
        panic!("a bottom-k request has a sample partial");
    };
    assert_eq!(sample.len(), sample.k(), "the sample is full");
    let summary = proto.local(3, &mut items(&many), &CoreRequest::Quantile { budget: 3 });
    let CorePartial::Quantile(summary) = &summary else {
        panic!("a quantile request has a summary partial");
    };
    assert_eq!(summary.count(), many.len() as u64);
    assert!(summary.len() <= 4, "the summary is pruned to its budget");
}

/// The width law for every kind, over node multisets up to a few
/// hundred items (so GK summaries prune and bottom-k samples fill).
fn width_law(kind: u32, values: &[u64], x: u64) {
    let proto = core_wave();
    let req = request(kind, x);
    through_the_wire(&proto, &req, &proto.local(3, &mut items(values), &req));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_core_request_kind(a in proptest::collection::vec(0u64..XBAR + 1, 0..6),
                               b in proptest::collection::vec(0u64..XBAR + 1, 0..6),
                               x in 0u64..1 << 40) {
        for kind in 0..KINDS {
            check(&core_wave(), &request(kind, x), &a, &b);
        }
    }

    #[test]
    fn mux_envelopes_of_one_to_six_slots(kinds in proptest::collection::vec(0u32..KINDS, 1..7),
                                         a in proptest::collection::vec(0u64..XBAR + 1, 0..6),
                                         b in proptest::collection::vec(0u64..XBAR + 1, 0..6),
                                         x in 0u64..1 << 40) {
        let reqs = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| request(kind, x.rotate_left(i as u32)))
            .collect();
        check_envelope(&MultiplexWave::envelope(&core_wave(), reqs), &a, &b);
    }

    #[test]
    fn the_mixed_envelope(a in proptest::collection::vec(0u64..XBAR + 1, 0..40),
                          b in proptest::collection::vec(0u64..XBAR + 1, 0..40),
                          x in 0u64..1 << 40) {
        check_envelope(&mixed_envelope(x), &a, &b);
    }

    #[test]
    fn the_width_law_holds_for_every_kind(kind in 0u32..KINDS,
                                          values in proptest::collection::vec(0u64..XBAR + 1, 0..300),
                                          x in 0u64..1 << 40) {
        width_law(kind, &values, x);
    }
}

// The width law at 16 384 cases, run in release by CI's release-test
// job (`cargo test --release --test absorb_partial -- --ignored`).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16_384))]

    #[test]
    #[ignore = "16 384 cases: run in release with --ignored"]
    fn the_width_law_holds_for_every_kind_16k(kind in 0u32..KINDS,
                                              values in proptest::collection::vec(0u64..XBAR + 1, 0..300),
                                              x in 0u64..1 << 40) {
        width_law(kind, &values, x);
    }
}
