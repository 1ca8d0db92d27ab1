//! The structured event vocabulary and its canonical JSONL codec.
//!
//! Events are plain data with a **fixed serialization**: key order is
//! the declaration order below, every number is a decimal integer, and
//! one event is one JSON object on one line. Byte-equality of two
//! serialized streams is therefore exactly equality of the event
//! sequences — the form the cross-runner identity suite compares.

use std::fmt;

/// What a transmitted frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// A downward (parent → child) request frame of a wave broadcast.
    Request,
    /// An upward (child → parent) partial frame of a convergecast.
    Partial,
    /// A per-hop ARQ acknowledgement.
    Ack,
}

impl FrameKind {
    /// Canonical short tag used on the wire ("req" / "part" / "ack").
    pub fn tag(&self) -> &'static str {
        match self {
            FrameKind::Request => "req",
            FrameKind::Partial => "part",
            FrameKind::Ack => "ack",
        }
    }

    fn from_tag(tag: &str) -> Option<FrameKind> {
        match tag {
            "req" => Some(FrameKind::Request),
            "part" => Some(FrameKind::Partial),
            "ack" => Some(FrameKind::Ack),
            _ => None,
        }
    }
}

/// One structured telemetry event.
///
/// Everything here is **deterministic**: node ids are global tree
/// labels, bit counts are exact wire widths, and ordering within a
/// wave is the canonical drain order (ascending global node id), so
/// the stream is identical across the boxed and flat runners.
/// Wall-clock measurements are deliberately *not* events — they live
/// in the [`crate::MetricsRegistry`]'s separate lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A multiplexed wave is about to run (`wave` is the 1-based wave
    /// ordinal of this deployment, `slots` the envelope's slot count).
    WaveStarted {
        /// 1-based wave ordinal.
        wave: u64,
        /// Sub-requests multiplexed into the wave's envelope.
        slots: u64,
    },
    /// A wave finished, with its exact bit accounting (the same fields
    /// the engine bills from, proven identical across runners).
    WaveCompleted {
        /// 1-based wave ordinal.
        wave: u64,
        /// Messages actually transmitted (logical frames, not ARQ
        /// attempts).
        messages: u64,
        /// Per-message envelope header bits × messages.
        header_bits: u64,
        /// Unattributable envelope framing bits.
        envelope_bits: u64,
        /// Sum of per-slot request payload bits.
        request_bits: u64,
        /// Sum of per-slot partial payload bits.
        partial_bits: u64,
    },
    /// A query occupied slot `slot` of the next wave's envelope.
    SlotAdmitted {
        /// The query's engine id (standing refreshes use the standing
        /// id range).
        query: u64,
        /// Envelope slot index the query's sub-request rides in.
        slot: u64,
    },
    /// A query retired with its final cumulative bit bill.
    SlotRetired {
        /// The query's engine id.
        query: u64,
        /// Total bits billed to the query over its lifetime.
        bits: u64,
    },
    /// A node answered envelope slot `slot` from its subtree partial
    /// cache.
    CacheHit {
        /// Global node id.
        node: u64,
        /// Envelope slot index.
        slot: u64,
    },
    /// A node missed its cache for envelope slot `slot` (a cacheable
    /// sub-request that must travel below the node).
    CacheMiss {
        /// Global node id.
        node: u64,
        /// Envelope slot index.
        slot: u64,
    },
    /// A sensor update was absorbed in place by cached partials along
    /// the node's root path (`count` entries delta-maintained).
    DeltaApplied {
        /// Global node id of the updated sensor.
        node: u64,
        /// Cache entries that absorbed the update.
        count: u64,
    },
    /// A sensor update invalidated cached partials (`count` entries
    /// dropped, to be repaired by the next dirty-path wave).
    DeltaInvalidated {
        /// Global node id of the updated sensor.
        node: u64,
        /// Cache entries invalidated.
        count: u64,
    },
    /// A frame was transmitted (first attempt; ARQ re-sends are
    /// [`Event::Retransmit`]). Under fire-and-forget reliability this
    /// is the logical frame itself.
    FrameSent {
        /// Transmitting global node id.
        from: u64,
        /// Receiving global node id.
        to: u64,
        /// Exact frame width in bits (header + payload).
        bits: u64,
        /// What the frame carries.
        kind: FrameKind,
    },
    /// An ARQ retransmission of a data frame (`attempt` ≥ 2).
    Retransmit {
        /// Transmitting global node id.
        from: u64,
        /// Receiving global node id.
        to: u64,
        /// Exact frame width in bits.
        bits: u64,
        /// What the frame carries.
        kind: FrameKind,
        /// 1-based attempt ordinal (2 = first retransmission).
        attempt: u64,
    },
    /// A transmitted frame failed to arrive intact: lost outright
    /// (`corrupt = false`, nothing delivered) or delivered corrupted
    /// (`corrupt = true`, the receiver was charged for garbage).
    FrameDropped {
        /// Transmitting global node id.
        from: u64,
        /// Receiving global node id.
        to: u64,
        /// Exact frame width in bits.
        bits: u64,
        /// What the frame carried.
        kind: FrameKind,
        /// Delivered-but-corrupted rather than lost.
        corrupt: bool,
    },
    /// A standing-query refresh slot was spawned for this round.
    RefreshScheduled {
        /// Standing query id.
        standing: u64,
        /// Refresh ordinal (0 = registration-round refresh).
        seq: u64,
        /// Service round the refresh rides.
        round: u64,
    },
    /// A completed shared-slot refresh fanned out at the service edge.
    RefreshFanout {
        /// Fleet slot id.
        slot: u64,
        /// Subscribers the refresh was copied to.
        subscribers: u64,
        /// Service round the refresh completed.
        round: u64,
    },
}

impl Event {
    /// The event's type tag (the JSON `"type"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::WaveStarted { .. } => "WaveStarted",
            Event::WaveCompleted { .. } => "WaveCompleted",
            Event::SlotAdmitted { .. } => "SlotAdmitted",
            Event::SlotRetired { .. } => "SlotRetired",
            Event::CacheHit { .. } => "CacheHit",
            Event::CacheMiss { .. } => "CacheMiss",
            Event::DeltaApplied { .. } => "DeltaApplied",
            Event::DeltaInvalidated { .. } => "DeltaInvalidated",
            Event::FrameSent { .. } => "FrameSent",
            Event::Retransmit { .. } => "Retransmit",
            Event::FrameDropped { .. } => "FrameDropped",
            Event::RefreshScheduled { .. } => "RefreshScheduled",
            Event::RefreshFanout { .. } => "RefreshFanout",
        }
    }

    /// Appends the canonical one-line JSON form (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        use fmt::Write;
        let _ = write!(out, "{{\"type\":\"{}\"", self.kind());
        let num = |out: &mut String, key: &str, v: u64| {
            let _ = write!(out, ",\"{key}\":{v}");
        };
        match *self {
            Event::WaveStarted { wave, slots } => {
                num(out, "wave", wave);
                num(out, "slots", slots);
            }
            Event::WaveCompleted {
                wave,
                messages,
                header_bits,
                envelope_bits,
                request_bits,
                partial_bits,
            } => {
                num(out, "wave", wave);
                num(out, "messages", messages);
                num(out, "header_bits", header_bits);
                num(out, "envelope_bits", envelope_bits);
                num(out, "request_bits", request_bits);
                num(out, "partial_bits", partial_bits);
            }
            Event::SlotAdmitted { query, slot } => {
                num(out, "query", query);
                num(out, "slot", slot);
            }
            Event::SlotRetired { query, bits } => {
                num(out, "query", query);
                num(out, "bits", bits);
            }
            Event::CacheHit { node, slot } => {
                num(out, "node", node);
                num(out, "slot", slot);
            }
            Event::CacheMiss { node, slot } => {
                num(out, "node", node);
                num(out, "slot", slot);
            }
            Event::DeltaApplied { node, count } => {
                num(out, "node", node);
                num(out, "count", count);
            }
            Event::DeltaInvalidated { node, count } => {
                num(out, "node", node);
                num(out, "count", count);
            }
            Event::FrameSent {
                from,
                to,
                bits,
                kind,
            } => {
                num(out, "from", from);
                num(out, "to", to);
                num(out, "bits", bits);
                let _ = write!(out, ",\"kind\":\"{}\"", kind.tag());
            }
            Event::Retransmit {
                from,
                to,
                bits,
                kind,
                attempt,
            } => {
                num(out, "from", from);
                num(out, "to", to);
                num(out, "bits", bits);
                let _ = write!(out, ",\"kind\":\"{}\"", kind.tag());
                num(out, "attempt", attempt);
            }
            Event::FrameDropped {
                from,
                to,
                bits,
                kind,
                corrupt,
            } => {
                num(out, "from", from);
                num(out, "to", to);
                num(out, "bits", bits);
                let _ = write!(out, ",\"kind\":\"{}\",\"corrupt\":{corrupt}", kind.tag());
            }
            Event::RefreshScheduled {
                standing,
                seq,
                round,
            } => {
                num(out, "standing", standing);
                num(out, "seq", seq);
                num(out, "round", round);
            }
            Event::RefreshFanout {
                slot,
                subscribers,
                round,
            } => {
                num(out, "slot", slot);
                num(out, "subscribers", subscribers);
                num(out, "round", round);
            }
        }
        out.push('}');
    }

    /// The canonical one-line JSON form.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        self.write_json(&mut s);
        s
    }

    /// Parses one canonical JSON line back into an event. Accepts only
    /// the codec [`Event::to_json`] emits (this is a trace format, not
    /// a general JSON reader). Returns `None` on malformed input or an
    /// unknown event type.
    pub fn from_json(line: &str) -> Option<Event> {
        let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut ty: Option<&str> = None;
        let mut kind: Option<FrameKind> = None;
        let mut corrupt = false;
        let mut nums: Vec<(&str, u64)> = Vec::with_capacity(6);
        for field in body.split(',') {
            let (key, value) = field.split_once(':')?;
            let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
            let value = value.trim();
            if let Some(s) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
                match key {
                    "type" => ty = Some(s),
                    "kind" => kind = Some(FrameKind::from_tag(s)?),
                    _ => return None,
                }
            } else if value == "true" || value == "false" {
                if key != "corrupt" {
                    return None;
                }
                corrupt = value == "true";
            } else {
                nums.push((key, value.parse().ok()?));
            }
        }
        let get = |key: &str| nums.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
        Some(match ty? {
            "WaveStarted" => Event::WaveStarted {
                wave: get("wave")?,
                slots: get("slots")?,
            },
            "WaveCompleted" => Event::WaveCompleted {
                wave: get("wave")?,
                messages: get("messages")?,
                header_bits: get("header_bits")?,
                envelope_bits: get("envelope_bits")?,
                request_bits: get("request_bits")?,
                partial_bits: get("partial_bits")?,
            },
            "SlotAdmitted" => Event::SlotAdmitted {
                query: get("query")?,
                slot: get("slot")?,
            },
            "SlotRetired" => Event::SlotRetired {
                query: get("query")?,
                bits: get("bits")?,
            },
            "CacheHit" => Event::CacheHit {
                node: get("node")?,
                slot: get("slot")?,
            },
            "CacheMiss" => Event::CacheMiss {
                node: get("node")?,
                slot: get("slot")?,
            },
            "DeltaApplied" => Event::DeltaApplied {
                node: get("node")?,
                count: get("count")?,
            },
            "DeltaInvalidated" => Event::DeltaInvalidated {
                node: get("node")?,
                count: get("count")?,
            },
            "FrameSent" => Event::FrameSent {
                from: get("from")?,
                to: get("to")?,
                bits: get("bits")?,
                kind: kind?,
            },
            "Retransmit" => Event::Retransmit {
                from: get("from")?,
                to: get("to")?,
                bits: get("bits")?,
                kind: kind?,
                attempt: get("attempt")?,
            },
            "FrameDropped" => Event::FrameDropped {
                from: get("from")?,
                to: get("to")?,
                bits: get("bits")?,
                kind: kind?,
                corrupt,
            },
            "RefreshScheduled" => Event::RefreshScheduled {
                standing: get("standing")?,
                seq: get("seq")?,
                round: get("round")?,
            },
            "RefreshFanout" => Event::RefreshFanout {
                slot: get("slot")?,
                subscribers: get("subscribers")?,
                round: get("round")?,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::WaveStarted { wave: 1, slots: 3 },
            Event::WaveCompleted {
                wave: 1,
                messages: 78,
                header_bits: 390,
                envelope_bits: 12,
                request_bits: 200,
                partial_bits: 411,
            },
            Event::SlotAdmitted { query: 0, slot: 0 },
            Event::SlotRetired {
                query: 0,
                bits: 512,
            },
            Event::CacheHit { node: 4, slot: 1 },
            Event::CacheMiss { node: 4, slot: 2 },
            Event::DeltaApplied { node: 9, count: 2 },
            Event::DeltaInvalidated { node: 9, count: 1 },
            Event::FrameSent {
                from: 0,
                to: 1,
                bits: 52,
                kind: FrameKind::Request,
            },
            Event::Retransmit {
                from: 1,
                to: 0,
                bits: 61,
                kind: FrameKind::Partial,
                attempt: 2,
            },
            Event::FrameDropped {
                from: 1,
                to: 0,
                bits: 61,
                kind: FrameKind::Partial,
                corrupt: true,
            },
            Event::FrameDropped {
                from: 0,
                to: 1,
                bits: 34,
                kind: FrameKind::Ack,
                corrupt: false,
            },
            Event::RefreshScheduled {
                standing: 2,
                seq: 5,
                round: 10,
            },
            Event::RefreshFanout {
                slot: 1,
                subscribers: 40,
                round: 10,
            },
        ]
    }

    #[test]
    fn json_roundtrips_every_variant() {
        for e in samples() {
            let line = e.to_json();
            assert_eq!(Event::from_json(&line), Some(e.clone()), "{line}");
        }
    }

    #[test]
    fn json_is_canonical_and_stable() {
        assert_eq!(
            Event::WaveStarted { wave: 7, slots: 2 }.to_json(),
            "{\"type\":\"WaveStarted\",\"wave\":7,\"slots\":2}"
        );
        assert_eq!(
            Event::FrameSent {
                from: 3,
                to: 5,
                bits: 99,
                kind: FrameKind::Ack
            }
            .to_json(),
            "{\"type\":\"FrameSent\",\"from\":3,\"to\":5,\"bits\":99,\"kind\":\"ack\"}"
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"type\":\"NoSuchEvent\",\"x\":1}",
            "{\"type\":\"WaveStarted\",\"wave\":1}",
            "{\"type\":\"FrameSent\",\"from\":0,\"to\":1,\"bits\":9,\"kind\":\"zap\"}",
            "not json at all",
        ] {
            assert_eq!(Event::from_json(bad), None, "{bad:?}");
        }
    }
}
