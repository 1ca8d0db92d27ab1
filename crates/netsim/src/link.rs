//! Link behaviour: latency, loss, corruption and duplication — with
//! **per-edge fate streams** so the fate of the n-th transmission over an
//! edge is a pure function of `(seed, edge, frame class, n)`.
//!
//! The paper abstracts the communication subsystem entirely, but two of the
//! works it builds on motivate non-ideal links:
//!
//! * Considine et al. \[2\] relax the spanning-tree assumption to "allow for
//!   arbitrary duplication by the communication subsystem" — modelled here
//!   by [`LinkConfig::duplication`];
//! * lossy radios motivate the retransmission machinery in
//!   `saq-protocols` — modelled by [`LinkConfig::loss`] and
//!   [`LinkConfig::corruption`].
//!
//! The default link is ideal (reliable, no duplication), which is the
//! setting of the paper's main theorems.
//!
//! ## Fate replay
//!
//! Early versions drew every fate from one simulator-wide stream, which made
//! the loss schedule a function of *global transmission order* — impossible
//! to reproduce on the columnar flat runner's worker threads. A
//! [`FateStream`] instead labels each `(src, dst, frame class)` triple with
//! its own derived seed and keys each draw by the **transmission index** on
//! that directed edge, so any executor that can count an edge's
//! transmissions replays the exact same fates, in any order, on any thread.

use crate::rng::{derive_seed, Xoshiro256StarStar};
use crate::time::SimDuration;

/// Domain-separation label for fate-stream seeds (node streams use `1`,
/// the retired simulator-wide link stream used `2`).
pub const FATE_PURPOSE: u64 = 3;

/// The class of a frame for fate-stream purposes.
///
/// Data frames and their acknowledgements traverse the same physical edge
/// but interleave in timing-dependent order; giving each class its own
/// stream makes the interleaving unobservable to the fate schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum FrameClass {
    /// Protocol payload (requests, partials, anything non-ACK).
    Data = 0,
    /// Acknowledgement frames of the ARQ layer.
    Ack = 1,
}

/// A scripted (deterministically forced) drop: the `index`-th transmission
/// of class `class` over the directed edge `src → dst` is lost, regardless
/// of the random stream. Used by fault-injection tests to craft adversarial
/// loss schedules that every runner must replay identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptedDrop {
    /// Global label of the transmitting node.
    pub src: u64,
    /// Global label of the receiving node.
    pub dst: u64,
    /// Which frame class is targeted.
    pub class: FrameClass,
    /// Zero-based transmission index on that `(edge, class)` stream.
    pub index: u64,
}

/// Per-link behaviour parameters shared by every link in a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Fixed per-hop propagation plus processing delay.
    pub base_latency: SimDuration,
    /// Additional latency per transmitted bit (serialization delay).
    /// Stored in nanoseconds-per-bit to keep integer arithmetic.
    pub nanos_per_bit: u64,
    /// Independent probability that a transmission is lost.
    pub loss: f64,
    /// Independent probability that a delivered transmission arrives
    /// corrupted: the receiver spends radio energy on it but the frame
    /// fails its checksum and is discarded without reaching the protocol.
    pub corruption: f64,
    /// Independent probability that a delivered transmission is delivered
    /// a second time (modelling multipath/retransmit duplication at the
    /// communication subsystem, as in Considine et al.).
    pub duplication: f64,
    /// Random jitter added to each delivery, uniform in
    /// `[0, jitter]`. Breaks event ties so protocol correctness cannot
    /// silently rely on synchronized delivery.
    pub jitter: SimDuration,
    /// Deterministically forced drops layered over the random streams
    /// (checked before any random draw, so they do not shift the stream).
    pub scripted_drops: Vec<ScriptedDrop>,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            base_latency: SimDuration::from_micros(500),
            // 250 kbit/s radio (802.15.4-class): 4 us per bit.
            nanos_per_bit: 4_000,
            loss: 0.0,
            corruption: 0.0,
            duplication: 0.0,
            jitter: SimDuration::from_micros(100),
            scripted_drops: Vec::new(),
        }
    }
}

impl LinkConfig {
    /// An ideal, instantaneous link — useful in unit tests where timing is
    /// irrelevant and determinism of event order is convenient.
    pub fn ideal() -> Self {
        LinkConfig {
            base_latency: SimDuration::from_micros(1),
            nanos_per_bit: 0,
            loss: 0.0,
            corruption: 0.0,
            duplication: 0.0,
            jitter: SimDuration::ZERO,
            scripted_drops: Vec::new(),
        }
    }

    /// Returns a copy with the given loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with the given corruption probability.
    pub fn with_corruption(mut self, corruption: f64) -> Self {
        self.corruption = corruption.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with the given duplication probability.
    pub fn with_duplication(mut self, duplication: f64) -> Self {
        self.duplication = duplication.clamp(0.0, 1.0);
        self
    }

    /// Returns a copy with the given scripted drop appended.
    pub fn with_scripted_drop(mut self, drop: ScriptedDrop) -> Self {
        self.scripted_drops.push(drop);
        self
    }

    /// Whether any fate other than a clean single delivery is possible.
    pub fn is_lossless(&self) -> bool {
        self.loss <= 0.0
            && self.corruption <= 0.0
            && self.duplication <= 0.0
            && self.scripted_drops.is_empty()
    }

    /// Transmission delay for a message of `bits` bits, excluding jitter.
    pub fn delay_for(&self, bits: u64) -> SimDuration {
        let ser_nanos = self.nanos_per_bit.saturating_mul(bits);
        self.base_latency + SimDuration::from_micros(ser_nanos / 1_000)
    }

    /// Draws the fate of one transmission from `rng`.
    ///
    /// Draw order is fixed — loss, corruption, jitter, duplication,
    /// second jitter — and a zero-probability Bernoulli consumes no
    /// randomness, so configurations that never corrupt draw exactly the
    /// stream they drew before corruption existed.
    pub fn draw_fate(&self, rng: &mut Xoshiro256StarStar) -> LinkFate {
        if self.loss > 0.0 && rng.bernoulli(self.loss) {
            return LinkFate::Lost;
        }
        let corrupt = self.corruption > 0.0 && rng.bernoulli(self.corruption);
        let jitter1 = self.draw_jitter(rng);
        if corrupt {
            // A corrupted frame arrives as a single mangled copy; the
            // duplication draw is skipped.
            return LinkFate::Corrupted(jitter1);
        }
        if self.duplication > 0.0 && rng.bernoulli(self.duplication) {
            let jitter2 = self.draw_jitter(rng);
            LinkFate::DeliveredTwice(jitter1, jitter2)
        } else {
            LinkFate::Delivered(jitter1)
        }
    }

    fn draw_jitter(&self, rng: &mut Xoshiro256StarStar) -> SimDuration {
        let j = self.jitter.as_micros();
        if j == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_micros(rng.next_below(j + 1))
        }
    }
}

/// Outcome of a single link transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// The packet was dropped.
    Lost,
    /// One copy arrives, after the given extra jitter.
    Delivered(SimDuration),
    /// One copy arrives but fails its checksum: the receiver is charged
    /// for the reception, then discards the frame.
    Corrupted(SimDuration),
    /// Two copies arrive (duplication), each with its own jitter.
    DeliveredTwice(SimDuration, SimDuration),
}

impl LinkFate {
    /// Whether at least one intact copy reaches the protocol layer.
    pub fn delivers_intact(&self) -> bool {
        matches!(
            self,
            LinkFate::Delivered(_) | LinkFate::DeliveredTwice(_, _)
        )
    }
}

/// Seed of the fate stream owned by `(master seed, src, dst, class)`.
///
/// `src`/`dst` are **global** node ids, so a flat executor that knows an
/// edge's global endpoints derives the identical stream the event-driven
/// simulator uses.
pub fn fate_stream_seed(master: u64, src: u64, dst: u64, class: FrameClass) -> u64 {
    derive_seed(derive_seed(master, src, dst), FATE_PURPOSE, class as u64)
}

/// The per-edge, per-class fate stream: draw `index` is a pure function of
/// `(master seed, src, dst, class, index)`, independent of every other
/// edge, thread, and execution order.
///
/// [`FateStream::next_fate`] keeps a local transmission counter for
/// sequential use; [`FateStream::fate_at`] is the stateless form used by
/// executors that track counts themselves (the flat runner's per-position
/// columns).
#[derive(Debug, Clone, PartialEq)]
pub struct FateStream {
    src: u64,
    dst: u64,
    class: FrameClass,
    base: u64,
    next: u64,
}

impl FateStream {
    /// Stream for the directed edge `src → dst` (global labels), starting
    /// at transmission index 0.
    pub fn new(master: u64, src: u64, dst: u64, class: FrameClass) -> Self {
        FateStream {
            src,
            dst,
            class,
            base: fate_stream_seed(master, src, dst, class),
            next: 0,
        }
    }

    /// Stream resumed at transmission index `index` — an executor picking
    /// up an edge mid-run replays exactly the remaining fates.
    pub fn resume(master: u64, src: u64, dst: u64, class: FrameClass, index: u64) -> Self {
        let mut s = Self::new(master, src, dst, class);
        s.next = index;
        s
    }

    /// The index the next [`FateStream::next_fate`] call will draw.
    pub fn index(&self) -> u64 {
        self.next
    }

    /// Fate of transmission `index` on this stream — stateless, so fates
    /// may be computed in any order and recomputed at will.
    pub fn fate_at(&self, cfg: &LinkConfig, index: u64) -> LinkFate {
        for d in &cfg.scripted_drops {
            if d.src == self.src && d.dst == self.dst && d.class == self.class && d.index == index {
                return LinkFate::Lost;
            }
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(derive_seed(self.base, index, 0));
        cfg.draw_fate(&mut rng)
    }

    /// Fate of the next transmission, advancing the local counter.
    pub fn next_fate(&mut self, cfg: &LinkConfig) -> LinkFate {
        let fate = self.fate_at(cfg, self.next);
        self.next += 1;
        fate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_reliable() {
        let cfg = LinkConfig::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(!matches!(cfg.draw_fate(&mut rng), LinkFate::Lost));
        }
    }

    #[test]
    fn delay_grows_with_bits() {
        let cfg = LinkConfig::default();
        assert!(cfg.delay_for(10_000) > cfg.delay_for(10));
        // 250 kbit/s: 1000 bits should take 4 ms of serialization.
        let d = cfg.delay_for(1000);
        assert_eq!(d.as_micros(), cfg.base_latency.as_micros() + 4_000);
    }

    #[test]
    fn ideal_link_zero_serialization() {
        let cfg = LinkConfig::ideal();
        assert_eq!(cfg.delay_for(0), cfg.delay_for(1 << 20));
    }

    #[test]
    fn loss_rate_is_respected() {
        let cfg = LinkConfig::default().with_loss(0.3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let trials = 50_000;
        let lost = (0..trials)
            .filter(|_| matches!(cfg.draw_fate(&mut rng), LinkFate::Lost))
            .count();
        let rate = lost as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "measured loss {rate}");
    }

    #[test]
    fn duplication_rate_is_respected() {
        let cfg = LinkConfig::default().with_duplication(0.25);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let trials = 50_000;
        let dup = (0..trials)
            .filter(|_| matches!(cfg.draw_fate(&mut rng), LinkFate::DeliveredTwice(_, _)))
            .count();
        let rate = dup as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "measured duplication {rate}");
    }

    #[test]
    fn corruption_rate_is_respected() {
        let cfg = LinkConfig::default().with_corruption(0.2);
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let trials = 50_000;
        let corrupt = (0..trials)
            .filter(|_| matches!(cfg.draw_fate(&mut rng), LinkFate::Corrupted(_)))
            .count();
        let rate = corrupt as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.02, "measured corruption {rate}");
    }

    #[test]
    fn probabilities_are_clamped() {
        let cfg = LinkConfig::default()
            .with_loss(7.0)
            .with_duplication(-3.0)
            .with_corruption(2.0);
        assert_eq!(cfg.loss, 1.0);
        assert_eq!(cfg.duplication, 0.0);
        assert_eq!(cfg.corruption, 1.0);
    }

    #[test]
    fn fate_stream_is_order_independent() {
        // Drawing indices forwards, backwards, or twice gives identical
        // fates: the stream is a pure function of the index.
        let cfg = LinkConfig::default().with_loss(0.4).with_duplication(0.3);
        let s = FateStream::new(0xC0FF_EE00, 3, 7, FrameClass::Data);
        let forward: Vec<LinkFate> = (0..64).map(|i| s.fate_at(&cfg, i)).collect();
        let backward: Vec<LinkFate> = (0..64).rev().map(|i| s.fate_at(&cfg, i)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        let mut seq = FateStream::new(0xC0FF_EE00, 3, 7, FrameClass::Data);
        let sequential: Vec<LinkFate> = (0..64).map(|_| seq.next_fate(&cfg)).collect();
        assert_eq!(forward, sequential);
    }

    #[test]
    fn fate_streams_are_distinct_per_edge_direction_and_class() {
        let cfg = LinkConfig::default().with_loss(0.5);
        let draws = |src, dst, class| {
            let mut s = FateStream::new(9, src, dst, class);
            (0..128)
                .map(|_| matches!(s.next_fate(&cfg), LinkFate::Lost))
                .collect::<Vec<_>>()
        };
        let ab = draws(1, 2, FrameClass::Data);
        assert_ne!(ab, draws(2, 1, FrameClass::Data), "direction matters");
        assert_ne!(ab, draws(1, 3, FrameClass::Data), "endpoint matters");
        assert_ne!(ab, draws(1, 2, FrameClass::Ack), "class matters");
    }

    #[test]
    fn resume_replays_the_tail() {
        let cfg = LinkConfig::default().with_loss(0.4);
        let mut full = FateStream::new(5, 0, 1, FrameClass::Data);
        let all: Vec<LinkFate> = (0..32).map(|_| full.next_fate(&cfg)).collect();
        let mut tail = FateStream::resume(5, 0, 1, FrameClass::Data, 16);
        let resumed: Vec<LinkFate> = (0..16).map(|_| tail.next_fate(&cfg)).collect();
        assert_eq!(&all[16..], &resumed[..]);
    }

    #[test]
    fn scripted_drop_forces_loss_without_shifting_the_stream() {
        let base = LinkConfig::default().with_loss(0.1);
        let scripted = base.clone().with_scripted_drop(ScriptedDrop {
            src: 4,
            dst: 5,
            class: FrameClass::Data,
            index: 3,
        });
        let s = FateStream::new(11, 4, 5, FrameClass::Data);
        assert_eq!(s.fate_at(&scripted, 3), LinkFate::Lost);
        for i in (0..16).filter(|&i| i != 3) {
            assert_eq!(s.fate_at(&scripted, i), s.fate_at(&base, i));
        }
        // Other edges and the other class are untouched.
        let other = FateStream::new(11, 5, 4, FrameClass::Data);
        assert_eq!(other.fate_at(&scripted, 3), other.fate_at(&base, 3));
        let acks = FateStream::new(11, 4, 5, FrameClass::Ack);
        assert_eq!(acks.fate_at(&scripted, 3), acks.fate_at(&base, 3));
    }

    #[test]
    fn corruption_zero_draws_the_legacy_stream() {
        // bernoulli(0) consumes no randomness, so a config that never
        // corrupts draws the identical jitter/duplication sequence it
        // drew before the corruption field existed.
        let cfg = LinkConfig::default().with_loss(0.3).with_duplication(0.2);
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        for _ in 0..256 {
            let fate = cfg.draw_fate(&mut a);
            // Re-derive by hand without any corruption branch.
            let expect = {
                let rng = &mut b;
                if cfg.loss > 0.0 && rng.bernoulli(cfg.loss) {
                    LinkFate::Lost
                } else {
                    let j1 = SimDuration::from_micros(rng.next_below(cfg.jitter.as_micros() + 1));
                    if cfg.duplication > 0.0 && rng.bernoulli(cfg.duplication) {
                        let j2 =
                            SimDuration::from_micros(rng.next_below(cfg.jitter.as_micros() + 1));
                        LinkFate::DeliveredTwice(j1, j2)
                    } else {
                        LinkFate::Delivered(j1)
                    }
                }
            };
            assert_eq!(fate, expect);
        }
    }
}
