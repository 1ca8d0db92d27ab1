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

/// Which way a data frame crosses its tree edge; its ACKs travel the
/// other way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hop {
    /// Parent → child: a request frame.
    Down,
    /// Child → parent: a partial frame.
    Up,
}

/// Replays per-edge fate streams to expand a logical ARQ exchange into
/// its attempt-level history — **without consuming the simulator's own
/// streams**. [`FateStream`]s are pure functions of
/// `(master_seed, src, dst, class, index)`, so a replica constructed
/// from the same master seed observes exactly the fates the runner's
/// transport drew, in the same order; the replay loop mirrors the
/// closed-form `arq_exchange` every runner is equivalent to.
///
/// Every frame crosses a tree edge and every tree edge belongs to its
/// child node, so the replay position of an edge's four streams (data
/// and ACKs, each direction — the flat runner's `EdgeStreams` layout)
/// is one dense row at the child's global id: an exchange indexes its
/// row instead of hashing `(src, dst, class)`.
///
/// Streams persist across waves (each edge's data/ack streams advance
/// monotonically), so a `FateReplay` must observe every wave of a run,
/// in order, from the stream positions it was last
/// [seeked](FateReplay::seek) to — `SimNetwork` re-seeks it from the
/// runner whenever it attaches a recorder and after a failed wave.
#[derive(Debug)]
pub struct FateReplay {
    master: u64,
    link: LinkConfig,
    attempt_budget: u64,
    /// Next transmission index of each stream of the tree edge above
    /// node `v`, at `v`: `[down data, up ack, up data, down ack]`.
    cursors: Vec<[u64; 4]>,
}

impl FateReplay {
    /// A replay over the fate universe of `master` seed and `link` for a
    /// tree of `nodes` nodes, bounding each exchange at `attempt_budget`
    /// attempts exactly as the runners' ARQ budget does.
    pub fn new(master: u64, link: LinkConfig, attempt_budget: u64, nodes: usize) -> Self {
        FateReplay {
            master,
            link,
            attempt_budget,
            cursors: vec![[0; 4]; nodes],
        }
    }

    /// Resumes the streams of the tree edge above `child` (global id) at
    /// `positions`, in row order `[down data, up ack, up data, down
    /// ack]` — a transport's [`crate::WaveSubstrate::edge_fate_positions`]
    /// — so the replay picks up waves it did not observe.
    ///
    /// # Panics
    ///
    /// Panics if `child` is not below the node count given to
    /// [`FateReplay::new`].
    pub fn seek(&mut self, child: usize, positions: [u64; 4]) {
        self.cursors[child] = positions;
    }

    /// Replays one reliable exchange of a data frame over the tree edge
    /// between `child` and its `parent` (global ids) in direction `hop`,
    /// emitting the attempt-level events in order. Returns the number
    /// of data attempts.
    ///
    /// # Panics
    ///
    /// Panics if `child` is not below the node count given to
    /// [`FateReplay::new`].
    pub fn replay_exchange(
        &mut self,
        child: u64,
        parent: u64,
        hop: Hop,
        mut emit: impl FnMut(ReplayEvent),
    ) -> u64 {
        let (src, dst, data_at, ack_at) = match hop {
            Hop::Down => (parent, child, 0, 1),
            Hop::Up => (child, parent, 2, 3),
        };
        let data = FateStream::new(self.master, src, dst, FrameClass::Data);
        let ack = FateStream::new(self.master, dst, src, FrameClass::Ack);
        let (link, cursor) = (&self.link, &mut self.cursors[child as usize]);
        let mut next = |stream: &FateStream, at: usize| {
            let fate = stream.fate_at(link, cursor[at]);
            cursor[at] += 1;
            fate
        };
        let mut attempt = 0u64;
        let mut acked = false;
        while !acked && attempt < self.attempt_budget {
            attempt += 1;
            let (copies, intact) = match next(&data, data_at) {
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
                match next(&ack, ack_at) {
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
    use saq_netsim::rng::Xoshiro256StarStar;
    use std::collections::HashMap;

    #[test]
    fn lossless_replay_is_one_attempt_one_ack() {
        let mut replay = FateReplay::new(0xABCD, LinkConfig::default(), 64, 6);
        let mut events = Vec::new();
        let attempts = replay.replay_exchange(5, 3, Hop::Up, |e| events.push(e));
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

    /// The dense cursors against the contract they implement: every
    /// exchange consumes the next fates of its own edge's streams — one
    /// independent stream per `(src, dst, class)` — whatever other edges
    /// and directions replayed in between.
    #[test]
    fn replay_matches_a_fresh_stream_fate_for_fate() {
        let link = LinkConfig::default()
            .with_loss(0.3)
            .with_corruption(0.1)
            .with_duplication(0.1);
        let master = 0x5EED;
        // parents[v] is the parent of node v ≥ 1.
        let parents = [0u64, 0, 0, 1, 1, 2, 2, 5];
        let mut replay = FateReplay::new(master, link.clone(), 64, parents.len());
        let mut streams: HashMap<(u64, u64, FrameClass), FateStream> = HashMap::new();
        let mut next = |src: u64, dst: u64, class| {
            streams
                .entry((src, dst, class))
                .or_insert_with(|| FateStream::new(master, src, dst, class))
                .next_fate(&link)
        };
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut attempts = 0;
        for _ in 0..300 {
            let child = 1 + rng.next_below(parents.len() as u64 - 1);
            let parent = parents[child as usize];
            let (hop, src, dst) = if rng.bernoulli(0.5) {
                (Hop::Down, parent, child)
            } else {
                (Hop::Up, child, parent)
            };
            let mut events = Vec::new();
            attempts += replay.replay_exchange(child, parent, hop, |e| events.push(e));
            for e in events {
                let consistent = match e {
                    ReplayEvent::DataDelivered { copies, .. } => matches!(
                        (copies, next(src, dst, FrameClass::Data)),
                        (1, LinkFate::Delivered(_)) | (2, LinkFate::DeliveredTwice(_, _))
                    ),
                    ReplayEvent::DataLost { corrupt, .. } => matches!(
                        (corrupt, next(src, dst, FrameClass::Data)),
                        (false, LinkFate::Lost) | (true, LinkFate::Corrupted(_))
                    ),
                    ReplayEvent::AckDelivered { .. } => matches!(
                        next(dst, src, FrameClass::Ack),
                        LinkFate::Delivered(_) | LinkFate::DeliveredTwice(_, _)
                    ),
                    ReplayEvent::AckLost { corrupt, .. } => matches!(
                        (corrupt, next(dst, src, FrameClass::Ack)),
                        (false, LinkFate::Lost) | (true, LinkFate::Corrupted(_))
                    ),
                };
                assert!(
                    consistent,
                    "{e:?} on {src} -> {dst} disagrees with its stream"
                );
            }
        }
        assert!(attempts > 300, "loss 0.3 never forced a retransmission");
    }

    #[test]
    fn attempt_budget_bounds_the_loop() {
        let link = LinkConfig::default().with_loss(1.0);
        let mut replay = FateReplay::new(1, link, 5, 2);
        let mut events = Vec::new();
        let attempts = replay.replay_exchange(1, 0, Hop::Up, |e| events.push(e));
        assert_eq!(attempts, 5);
        assert!(events
            .iter()
            .all(|e| matches!(e, ReplayEvent::DataLost { .. })));
    }
}
