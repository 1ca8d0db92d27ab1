//! Merge-in-place property suite: for **every** [`CoreRequest`] kind,
//! for 1–6-slot multiplexed envelopes of them and for the mixed
//! `Count/Min/Max/Sum/Quantile/BottomK` envelope,
//! [`WaveProtocol::absorb_child`] (told at a first child how many
//! children there are, so it may also size the accumulator for the
//! children to come) must be indistinguishable from the two calls it replaces on the flat runner's
//! up-sweep:
//!
//! 1. `absorb_child(req, &mut acc, encode(p))` leaves `acc` equal to
//!    `merge(req, acc, decode(encode(p)))` — under the partial type's
//!    own equality *and* field for field (`Debug`), so state equality
//!    ignores, such as a min/max runner-up, must match too;
//! 2. both consume exactly the same bits of the frame;
//! 3. a frame one bit short is an `Err` from both, not a panic — merging
//!    off the wire must not turn a malformed child report into an answer.
//!
//! `CoreWave` merges `Count`/`Sum` and `Min`/`Max` in place, decodes
//! `Quantile` and `BottomK` children into per-thread scratch and merges
//! them into the accumulator's storage, and decodes then merges every
//! other kind; `MultiplexWave` merges slot by slot in place, which is the
//! path every flat wave takes, and rejects an accumulator whose slot
//! count differs from the request's.

use proptest::prelude::*;
use saq::core::aggregate::RunnerUp;
use saq::core::counting::ApxCountConfig;
use saq::core::predicate::{Domain, Predicate};
use saq::core::wave_proto::{CorePartial, CoreRequest, CoreWave, SimItem};
use saq::netsim::wire::{BitReader, BitString, BitWriter};
use saq::netsim::NetsimError;
use saq::protocols::wave::{MultiplexWave, MuxEntry, WaveProtocol};

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

fn absorb<P: WaveProtocol>(
    proto: &P,
    req: &P::Request,
    acc: &mut P::Partial,
    frame: &BitString,
    first_of: Option<usize>,
) -> (Result<(), NetsimError>, u64) {
    let mut r = BitReader::new(frame);
    let out = proto.absorb_child(req, acc, &mut r, first_of);
    (out, r.remaining())
}

/// Checks the three laws for one protocol, one request, an accumulator
/// and one child partial.
fn check_partials<P>(proto: &P, req: &P::Request, acc: &P::Partial, child: &P::Partial)
where
    P: WaveProtocol,
    P::Partial: PartialEq,
{
    let mut w = BitWriter::new();
    proto.encode_partial(req, child, &mut w);
    let frame = w.finish();

    let mut reference = BitReader::new(&frame);
    let decoded = proto
        .decode_partial(req, &mut reference)
        .expect("well-formed frame must decode");
    let merged = proto.merge(req, acc.clone(), decoded);
    assert_eq!(reference.remaining(), 0, "the frame is exactly one partial");
    for first_of in FIRST_OF {
        let mut absorbed = acc.clone();
        let (out, remaining) = absorb(proto, req, &mut absorbed, &frame, first_of);
        out.expect("well-formed frame must absorb");
        assert_eq!(absorbed, merged);
        assert_eq!(format!("{absorbed:?}"), format!("{merged:?}"));
        assert_eq!(remaining, reference.remaining());
    }

    if frame.is_empty() {
        return; // a zoom acknowledgement carries no bits to lose
    }
    let short = BitReader::new(&frame)
        .read_bitstring(frame.len_bits() - 1)
        .expect("a prefix of the frame");
    for first_of in FIRST_OF {
        let (out, _) = absorb(proto, req, &mut acc.clone(), &short, first_of);
        assert!(out.is_err(), "a short frame absorbed ({first_of:?})");
    }
    assert!(proto
        .decode_partial(req, &mut BitReader::new(&short))
        .is_err());
}

/// The laws for the partials of two nodes holding `a` and `b`.
fn check<P>(proto: &P, req: &P::Request, a: &[u64], b: &[u64])
where
    P: WaveProtocol<Item = SimItem>,
    P::Partial: PartialEq,
{
    let acc = proto.local(3, &mut items(a), req);
    let child = proto.local(9, &mut items(b), req);
    check_partials(proto, req, &acc, &child);
}

fn core_wave() -> CoreWave {
    CoreWave {
        xbar: XBAR,
        apx: ApxCountConfig::default(),
    }
}

/// A min/max accumulator that knows its runner-up exactly — which the
/// wire never carries, and `MinMaxPartial`'s equality ignores — ends
/// with the runner-up `decode_partial` + `merge` gives it, against
/// children below, between, tied with and above its two values.
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

/// An accumulator with fewer or more slots than its request is a typed
/// error: never an out-of-bounds panic, never a partial merge.
#[test]
fn a_misaligned_mux_accumulator_is_an_error() {
    let proto = MultiplexWave::new(core_wave());
    let env = mixed_envelope(41);
    let acc = proto.local(3, &mut items(&[4, 40, 400]), &env);
    let child = proto.local(9, &mut items(&[5, 50]), &env);
    let mut w = BitWriter::new();
    proto.encode_partial(&env, &child, &mut w);
    let frame = w.finish();

    let mut shorter = acc.clone();
    shorter.pop();
    let mut longer = acc.clone();
    longer.push(CorePartial::Num(0));
    for misaligned in [shorter, longer] {
        for first_of in FIRST_OF {
            let (out, _) = absorb(&proto, &env, &mut misaligned.clone(), &frame, first_of);
            assert!(
                matches!(out, Err(NetsimError::WireDecode(_))),
                "{} slots against {}: {out:?}",
                misaligned.len(),
                env.len()
            );
        }
    }
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
        let proto = MultiplexWave::new(core_wave());
        check(&proto, &MultiplexWave::envelope(proto.inner(), reqs), &a, &b);
    }

    #[test]
    fn the_mixed_envelope(a in proptest::collection::vec(0u64..XBAR + 1, 0..40),
                          b in proptest::collection::vec(0u64..XBAR + 1, 0..40),
                          x in 0u64..1 << 40) {
        check(&MultiplexWave::new(core_wave()), &mixed_envelope(x), &a, &b);
    }
}
