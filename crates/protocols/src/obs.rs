//! Protocol-side telemetry primitives: the peer-free per-node trace
//! entry the runners buffer during a wave, and the fate-stream replay
//! that expands logical frames into attempt-level ARQ detail.
//!
//! The flat runner stores node state by tree *position*, not node id,
//! so trace entries deliberately carry no peer ids: the driver (which
//! owns the global spanning tree) resolves parentage when it drains the
//! buffers in ascending global node id order. That drain order — not
//! emission order — is what makes the merged stream bit-identical
//! across the boxed and flat runners (ARCHITECTURE §15).

use saq_netsim::link::{FateStream, FrameClass, LinkConfig, LinkFate};
use std::collections::HashMap;

/// One canonically-ordered telemetry entry buffered at a node during a
/// wave. Entries are peer-free; the driver attributes edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeTraceEntry {
    /// A request frame arrived and was admitted (post-dedup);
    /// `bits` is the full received frame size.
    RequestRecv {
        /// Full frame bits as received off the wire.
        bits: u64,
    },
    /// The subtree cache answered envelope slot `slot` locally.
    CacheHit {
        /// Envelope slot index within the wave.
        slot: u32,
    },
    /// Envelope slot `slot` was cacheable but missed (and was stored).
    CacheMiss {
        /// Envelope slot index within the wave.
        slot: u32,
    },
    /// The merged partial was sent to the parent; `bits` is the full
    /// frame size put on the wire.
    PartialSent {
        /// Full frame bits as put on the wire.
        bits: u64,
    },
}

/// An attempt-level event reconstructed by [`FateReplay`] for one
/// logical frame exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEvent {
    /// Data attempt `attempt` (1-based) reached the receiver intact.
    DataDelivered {
        /// 1-based attempt ordinal.
        attempt: u64,
        /// Intact copies delivered (2 on duplication).
        copies: u64,
    },
    /// Data attempt `attempt` failed: lost outright, or delivered as
    /// garbage (`corrupt`).
    DataLost {
        /// 1-based attempt ordinal.
        attempt: u64,
        /// Whether a corrupted copy was delivered (receiver billed).
        corrupt: bool,
    },
    /// The receiver acknowledged an intact copy and the ack arrived.
    AckDelivered {
        /// Data attempt the ack answers.
        attempt: u64,
    },
    /// An ack was sent but lost or corrupted in flight.
    AckLost {
        /// Data attempt the ack answers.
        attempt: u64,
        /// Whether a corrupted ack reached the sender.
        corrupt: bool,
    },
}

/// Replays per-edge fate streams to expand a logical ARQ exchange into
/// its attempt-level history — **without consuming the simulator's own
/// streams**. [`FateStream`]s are pure functions of
/// `(master_seed, src, dst, class, index)`, so a replica constructed
/// from the same master seed observes exactly the fates the runner's
/// transport drew, in the same order; the replay loop mirrors the
/// closed-form `arq_exchange` every runner is equivalent to.
///
/// Streams persist across waves (each edge's data/ack streams advance
/// monotonically), so one `FateReplay` must observe every wave of a
/// run, in order — exactly how `SimNetwork` drives it.
#[derive(Debug)]
pub struct FateReplay {
    master: u64,
    link: LinkConfig,
    streams: HashMap<(u64, u64, FrameClass), FateStream>,
}

impl FateReplay {
    /// A replay over the fate universe of `master` seed and `link`.
    pub fn new(master: u64, link: LinkConfig) -> Self {
        FateReplay {
            master,
            link,
            streams: HashMap::new(),
        }
    }

    fn next_fate(&mut self, src: u64, dst: u64, class: FrameClass) -> LinkFate {
        let master = self.master;
        let stream = self
            .streams
            .entry((src, dst, class))
            .or_insert_with(|| FateStream::new(master, src, dst, class));
        stream.next_fate(&self.link)
    }

    /// Replays one reliable exchange of a `bits`-sized data frame from
    /// `src` to `dst` (acks `ack_bits` the other way), emitting the
    /// attempt-level events in order. Returns the number of data
    /// attempts. `attempt_budget` bounds the loop exactly as the
    /// runners' ARQ budget does.
    pub fn replay_exchange(
        &mut self,
        src: u64,
        dst: u64,
        attempt_budget: u64,
        mut emit: impl FnMut(ReplayEvent),
    ) -> u64 {
        let mut attempt = 0u64;
        let mut acked = false;
        while !acked && attempt < attempt_budget {
            attempt += 1;
            let (copies, intact) = match self.next_fate(src, dst, FrameClass::Data) {
                LinkFate::Lost => (0u64, 0u64),
                LinkFate::Corrupted(_) => (1, 0),
                LinkFate::Delivered(_) => (1, 1),
                LinkFate::DeliveredTwice(_, _) => (2, 2),
            };
            if intact == 0 {
                emit(ReplayEvent::DataLost {
                    attempt,
                    corrupt: copies > 0,
                });
                continue;
            }
            emit(ReplayEvent::DataDelivered { attempt, copies });
            for _ in 0..intact {
                match self.next_fate(dst, src, FrameClass::Ack) {
                    LinkFate::Lost => emit(ReplayEvent::AckLost {
                        attempt,
                        corrupt: false,
                    }),
                    LinkFate::Corrupted(_) => emit(ReplayEvent::AckLost {
                        attempt,
                        corrupt: true,
                    }),
                    LinkFate::Delivered(_) | LinkFate::DeliveredTwice(_, _) => {
                        emit(ReplayEvent::AckDelivered { attempt });
                        acked = true;
                    }
                }
            }
        }
        attempt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_replay_is_one_attempt_one_ack() {
        let mut replay = FateReplay::new(0xABCD, LinkConfig::default());
        let mut events = Vec::new();
        let attempts = replay.replay_exchange(3, 5, 64, |e| events.push(e));
        assert_eq!(attempts, 1);
        assert_eq!(
            events,
            vec![
                ReplayEvent::DataDelivered {
                    attempt: 1,
                    copies: 1
                },
                ReplayEvent::AckDelivered { attempt: 1 },
            ]
        );
    }

    #[test]
    fn replay_matches_a_fresh_stream_fate_for_fate() {
        let link = LinkConfig::default().with_loss(0.4);
        let master = 0x5EED;
        let mut replay = FateReplay::new(master, link.clone());
        // Drive two exchanges on the same edge; the data-stream fates
        // consumed must be exactly the independent stream's prefix.
        let mut consumed = 0u64;
        for _ in 0..2 {
            let attempts = replay.replay_exchange(2, 7, 64, |_| {});
            assert!(attempts >= 1);
            consumed += attempts;
        }
        let mut fresh = FateStream::new(master, 2, 7, FrameClass::Data);
        let mut independent = Vec::new();
        for _ in 0..consumed {
            independent.push(fresh.next_fate(&link));
        }
        let mut replay2 = FateReplay::new(master, link.clone());
        let mut seen = 0;
        for _ in 0..2 {
            replay2.replay_exchange(2, 7, 64, |e| {
                if matches!(
                    e,
                    ReplayEvent::DataDelivered { .. } | ReplayEvent::DataLost { .. }
                ) {
                    seen += 1;
                }
            });
        }
        assert_eq!(seen as u64, consumed);
        assert_eq!(independent.len() as u64, consumed);
    }

    #[test]
    fn attempt_budget_bounds_the_loop() {
        let link = LinkConfig::default().with_loss(1.0);
        let mut replay = FateReplay::new(1, link);
        let mut events = Vec::new();
        let attempts = replay.replay_exchange(0, 1, 5, |e| events.push(e));
        assert_eq!(attempts, 5);
        assert!(events
            .iter()
            .all(|e| matches!(e, ReplayEvent::DataLost { .. })));
    }
}
