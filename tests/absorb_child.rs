//! Merge-from-the-wire property suite: for **every** [`CoreRequest`]
//! kind, and for 1–6-slot multiplexed envelopes of them,
//! [`WaveProtocol::absorb_child`] must be indistinguishable from the
//! two calls it replaces on the flat runner's up-sweep:
//!
//! 1. `absorb_child(req, acc, encode(p))` ≡
//!    `merge(req, acc, decode(encode(p)))`, under the partial type's own
//!    equality;
//! 2. both consume exactly the same bits of the frame;
//! 3. a truncated frame is an `Err` from both — merging off the wire
//!    must not turn a malformed child report into an answer.
//!
//! `CoreWave` overrides it for `Quantile` and `BottomK`, which decode
//! each child into per-thread scratch and merge into the accumulator in
//! place, and keeps the trait's default for every other kind (so 1–2 pin
//! both the override and the default); `MultiplexWave` overrides it to
//! merge slot by slot in place, which is the path every flat wave takes.

use proptest::prelude::*;
use saq::core::counting::ApxCountConfig;
use saq::core::predicate::{Domain, Predicate};
use saq::core::wave_proto::{CoreRequest, CoreWave, SimItem};
use saq::netsim::rng::Xoshiro256StarStar;
use saq::netsim::wire::{BitReader, BitWriter};
use saq::protocols::wave::{MultiplexWave, WaveProtocol};

const XBAR: u64 = 1000;
/// `CoreRequest` has this many kinds; `request` maps `0..KINDS` onto them.
const KINDS: u32 = 11;

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

fn items(values: &[u64]) -> Vec<SimItem> {
    values.iter().map(|&v| SimItem::new(v)).collect()
}

/// Checks the three laws for one protocol, one request and the partials
/// of two nodes holding `a` and `b`.
fn check<P>(proto: &P, req: &P::Request, a: &[u64], b: &[u64])
where
    P: WaveProtocol<Item = SimItem>,
    P::Partial: PartialEq,
{
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let acc = proto.local(3, &mut items(a), req, &mut rng);
    let child = proto.local(9, &mut items(b), req, &mut rng);
    let mut w = BitWriter::new();
    proto.encode_partial(req, &child, &mut w);
    let frame = w.finish();

    let mut wire = BitReader::new(&frame);
    let absorbed = proto
        .absorb_child(req, acc.clone(), &mut wire)
        .expect("well-formed frame must absorb");
    let mut reference = BitReader::new(&frame);
    let decoded = proto
        .decode_partial(req, &mut reference)
        .expect("well-formed frame must decode");
    assert_eq!(absorbed, proto.merge(req, acc.clone(), decoded));
    assert_eq!(wire.remaining(), reference.remaining());
    assert_eq!(wire.remaining(), 0, "the frame is exactly one partial");

    if frame.is_empty() {
        return; // a zoom acknowledgement carries no bits to lose
    }
    let short = BitReader::new(&frame)
        .read_bitstring(frame.len_bits() - 1)
        .expect("a prefix of the frame");
    assert!(proto
        .absorb_child(req, acc.clone(), &mut BitReader::new(&short))
        .is_err());
    assert!(proto
        .decode_partial(req, &mut BitReader::new(&short))
        .is_err());
}

fn core_wave() -> CoreWave {
    CoreWave {
        xbar: XBAR,
        apx: ApxCountConfig::default(),
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
        check(&proto, &MultiplexWave::<CoreWave>::envelope(reqs), &a, &b);
    }
}
