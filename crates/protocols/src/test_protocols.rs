//! Test protocols shared by this crate's unit tests: [`SumBelow`], the
//! plain single-slot protocol the runner tests wrap, and [`FailsAt`],
//! whose merge fails at one node for one request.

use crate::mux::Envelope;
use crate::wave::WaveProtocol;
use saq_netsim::sim::NodeId;
use saq_netsim::wire::{BitReader, BitWriter};
use saq_netsim::NetsimError;

/// SUM of `u64` items below a threshold, in 32 bits. Deterministic, so
/// every request is cacheable.
#[derive(Debug, Clone)]
pub(crate) struct SumBelow {
    pub(crate) value_width: u32,
}

impl WaveProtocol for SumBelow {
    type Request = u64; // threshold
    type Partial = u64; // sum
    type Item = u64;
    type ItemDelta = ();
    type DeltaKey = ();

    fn encode_request(&self, req: &u64, w: &mut BitWriter) {
        w.write_bits(*req, self.value_width);
    }
    fn decode_request(&self, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
        r.read_bits(self.value_width)
    }
    fn encode_partial(&self, _req: &u64, p: &u64, w: &mut BitWriter) {
        w.write_bits(*p, 32);
    }
    fn partial_width(&self, _req: &u64, _p: &u64) -> u64 {
        32
    }
    fn decode_partial(&self, _req: &u64, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
        r.read_bits(32)
    }
    fn local(&self, _node: NodeId, items: &mut [u64], req: &u64) -> u64 {
        items.iter().filter(|&&x| x < *req).sum()
    }
    fn absorb_partial(
        &self,
        _req: &u64,
        acc: &mut u64,
        child: &u64,
        _first_of: Option<usize>,
    ) -> Result<(), NetsimError> {
        *acc += child;
        Ok(())
    }
    fn cacheable(&self, _req: &u64) -> bool {
        true
    }
}

impl Envelope for SumBelow {}

/// [`SumBelow`] whose merge fails at `node` for request `trigger`: that
/// node's local step marks its accumulator, and absorbing any child into
/// a marked accumulator is an error. `node` must have children (a marked
/// partial does not fit its 32-bit frame).
#[derive(Debug, Clone)]
pub(crate) struct FailsAt {
    pub(crate) inner: SumBelow,
    pub(crate) node: NodeId,
    pub(crate) trigger: u64,
}

impl FailsAt {
    /// The marked accumulator: above any 32-bit sum.
    const MARK: u64 = u64::MAX;
}

impl WaveProtocol for FailsAt {
    type Request = u64;
    type Partial = u64;
    type Item = u64;
    type ItemDelta = ();
    type DeltaKey = ();

    fn encode_request(&self, req: &u64, w: &mut BitWriter) {
        self.inner.encode_request(req, w);
    }
    fn decode_request(&self, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
        self.inner.decode_request(r)
    }
    fn encode_partial(&self, req: &u64, p: &u64, w: &mut BitWriter) {
        self.inner.encode_partial(req, p, w);
    }
    fn partial_width(&self, req: &u64, p: &u64) -> u64 {
        self.inner.partial_width(req, p)
    }
    fn decode_partial(&self, req: &u64, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
        self.inner.decode_partial(req, r)
    }
    fn local(&self, node: NodeId, items: &mut [u64], req: &u64) -> u64 {
        if (node, *req) == (self.node, self.trigger) {
            return Self::MARK;
        }
        self.inner.local(node, items, req)
    }
    fn absorb_partial(
        &self,
        req: &u64,
        acc: &mut u64,
        child: &u64,
        first_of: Option<usize>,
    ) -> Result<(), NetsimError> {
        if *acc == Self::MARK {
            return Err(NetsimError::WireDecode("injected merge failure"));
        }
        self.inner.absorb_partial(req, acc, child, first_of)
    }
}

impl Envelope for FailsAt {}

/// A merge that fails has a typed outcome on every runner: the boxed
/// oracle's failing node sends no reply (`NoResult`), the flat runner
/// returns the merge's `WireDecode` error, and a rings root that fails
/// drops its synopsis (`NoResult`). None panics, and the next wave on
/// the same runner answers exactly.
#[test]
fn a_failed_merge_is_a_typed_outcome_on_every_runner() {
    use crate::error::ProtocolError;
    use crate::flat::FlatWaveRunner;
    use crate::rings::RingsRunner;
    use crate::tree::SpanningTree;
    use crate::wave::{Reliability, WaveRunner, WaveSubstrate};
    use saq_netsim::flat::NestDepth;
    use saq_netsim::sim::SimConfig;
    use saq_netsim::topology::Topology;
    use saq_netsim::wire::width_for_max;

    let n = 40;
    let topo = Topology::balanced_tree(n, 3).unwrap();
    let tree = SpanningTree::bfs(&topo, 0).unwrap();
    let items: Vec<Vec<u64>> = (0..n as u64).map(|i| vec![i]).collect();
    let sum = (0..n as u64).sum::<u64>();
    let fails_at = |node| FailsAt {
        inner: SumBelow {
            value_width: width_for_max(1000),
        },
        node,
        trigger: 666,
    };
    let cfg = SimConfig::default();
    // The root and an interior node.
    for node in [0, 1] {
        let mut boxed = WaveRunner::new(
            &topo,
            cfg.clone(),
            &tree,
            fails_at(node),
            items.clone(),
            Reliability::None,
        )
        .unwrap();
        let out = boxed.run_wave(666);
        assert!(matches!(out, Err(ProtocolError::NoResult)), "{out:?}");
        assert_eq!(boxed.run_wave(1000).unwrap(), sum);

        for workers in [1, 2] {
            let mut flat = FlatWaveRunner::new(
                &topo,
                cfg.clone(),
                &tree,
                fails_at(node),
                items.clone(),
                Reliability::None,
                workers,
                NestDepth::Auto,
            )
            .unwrap();
            let out = flat.run_wave(666);
            assert!(
                matches!(out, Err(ProtocolError::Netsim(NetsimError::WireDecode(_)))),
                "{out:?}"
            );
            assert_eq!(flat.run_wave(1000).unwrap(), sum);
        }
    }
    let mut rings = RingsRunner::new(&topo, cfg, 0, fails_at(0), items, 64).unwrap();
    let out = rings.run_epoch(666);
    assert!(matches!(out, Err(ProtocolError::NoResult)), "{out:?}");
    assert_eq!(rings.run_epoch(1000).unwrap(), sum);
}
