//! The metric catalogue: every name the benchmark may print, with its
//! unit, and — for end-to-end metrics — its direction, its kind and
//! its regression bound. `BENCHMARK.json` at the repository root
//! declares the same names; the package tests hold the two together.

/// Whether a figure is paid by the host running the simulator (noisy
/// on a shared box) or by the modelled network (repeats exactly for a
/// seed; a simulator-only speed-up must leave it identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Sim,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub kind: Kind,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported per workload by the untraced pass.
///
/// `failed_share` of the issue is not a row here: the contract wants
/// metrics that are never 0 and carries failures in the result line's
/// own `attempted`/`failed` fields, which is where it is reported.
/// Simulated metrics repeat exactly for a seed; their bounds only
/// have to absorb the difference between seeds. Host-time bounds are
/// the contract's maximum: on the shared reference box the quartile
/// spread of ten runs of identical code is ~6 % in its quiet phases
/// and 15–25 % in its noisy ones, whatever is done inside a run.
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "rounds_per_s",
        kind: Kind::Host,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "round_ms_p50",
        kind: Kind::Host,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        kind: Kind::Host,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        kind: Kind::Host,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "bits_per_query",
        kind: Kind::Sim,
        unit: "bits",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "max_node_bits_per_round",
        kind: Kind::Sim,
        unit: "bits",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "tx_bits_per_round",
        kind: Kind::Sim,
        unit: "bits",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "messages_per_round",
        kind: Kind::Sim,
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "latency_rounds_p50",
        kind: Kind::Sim,
        unit: "rounds",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "latency_rounds_p95",
        kind: Kind::Sim,
        unit: "rounds",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "queries_answered",
        kind: Kind::Sim,
        unit: "count",
        better: Better::Higher,
        bound: 0.05,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics, reported per workload by the traced pass. A
/// layer a workload does not exercise reports 0 (see the README for
/// which workload each one is live on).
pub const PER_LAYER: [PerLayer; 75] = [
    // Whole-run diagnostics: tails are reported, not gated, because
    // they do not repeat within a tenth on a shared box.
    layer("stack.round_ms_p95", "ms", Lower),
    layer("stack.round_ms_p99", "ms", Lower),
    layer("stack.round_ms_drift", "ratio", Lower),
    layer("stack.allocs_per_round", "count", Lower),
    layer("stack.trace_overhead_ratio", "ratio", Lower),
    layer("stack.harness_overhead_share", "ratio", Lower),
    layer("stack.calib_ns", "ns", Lower),
    layer("core.service.step_ns_per_round", "ns", Lower),
    layer("core.service.self_ns_per_round", "ns", Lower),
    layer("core.service.register_ns_per_op", "ns", Lower),
    layer("core.service.deregister_ns_per_op", "ns", Lower),
    layer("core.service.fanout_per_refresh", "count", Higher),
    layer("core.service.slot_refreshes_per_round", "count", Lower),
    layer("core.service.coalesced_share", "ratio", Higher),
    layer("core.service.orphan_refreshes", "count", Lower),
    layer("core.continuous.update_ns_per_item", "ns", Lower),
    layer("core.continuous.refresh_bits_per_refresh", "bits", Lower),
    layer("core.continuous.zero_bit_refresh_share", "ratio", Higher),
    layer("core.streaming.step_ns_per_round", "ns", Lower),
    layer("core.streaming.self_ns_per_round", "ns", Lower),
    layer("core.streaming.submit_ns_per_op", "ns", Lower),
    layer("core.streaming.waves_per_round", "count", Lower),
    layer("core.streaming.slots_per_wave", "count", Higher),
    layer("core.streaming.envelope_bits_per_round", "bits", Lower),
    layer("core.streaming.queue_rounds_p50", "rounds", Lower),
    layer("core.simnet.wave_ns_per_wave", "ns", Lower),
    layer("core.simnet.wave_share", "ratio", Lower),
    layer("core.simnet.messages_per_wave", "count", Lower),
    layer("core.simnet.header_bits_per_wave", "bits", Lower),
    layer("core.simnet.build_ns_per_node", "ns", Lower),
    layer("protocols.flat.wave_ns_per_node_w1", "ns", Lower),
    layer("protocols.flat.wave_ns_per_node_wN", "ns", Lower),
    layer("protocols.flat.parallel_speedup", "ratio", Higher),
    layer("protocols.flat.fanout_floor_ns", "ns", Lower),
    layer("protocols.flat.allocs_per_wave", "count", Lower),
    layer("protocols.cache.hit_share", "ratio", Higher),
    layer("protocols.cache.delta_applied_per_round", "count", Higher),
    layer(
        "protocols.cache.delta_invalidated_per_round",
        "count",
        Lower,
    ),
    layer("protocols.cache.resident_entries", "count", Lower),
    layer("protocols.cache.get_ns_per_op", "ns", Lower),
    layer("protocols.cache.insert_ns_per_op", "ns", Lower),
    layer("protocols.wave.envelope_bits_share", "ratio", Lower),
    layer("protocols.wave.retx_frames_share", "ratio", Lower),
    layer("protocols.wave.dedup_entries_peak", "count", Lower),
    layer("netsim.wire.bits_write_ns_per_op", "ns", Lower),
    layer("netsim.wire.bits_read_ns_per_op", "ns", Lower),
    layer("netsim.wire.varint_write_ns_per_op", "ns", Lower),
    layer("netsim.wire.varint_read_ns_per_op", "ns", Lower),
    layer("netsim.wire.gamma_write_ns_per_op", "ns", Lower),
    layer("netsim.wire.gamma_read_ns_per_op", "ns", Lower),
    layer("netsim.wire.sorted_deltas_write_ns_per_value", "ns", Lower),
    layer("netsim.wire.sorted_deltas_read_ns_per_value", "ns", Lower),
    layer("netsim.wire.frame_bits_per_message", "bits", Lower),
    layer("netsim.flat.tree_build_ns_per_node", "ns", Lower),
    layer("netsim.flat.plan_build_ns_per_node", "ns", Lower),
    layer("netsim.flat.block_imbalance", "ratio", Lower),
    layer("netsim.topology.build_ns_per_node", "ns", Lower),
    layer("netsim.link.retx_bits_share", "ratio", Lower),
    layer("netsim.link.ack_bits_share", "ratio", Lower),
    layer("core.aggregate.merge_ns_per_op.count", "ns", Lower),
    layer("core.aggregate.encode_ns_per_op.count", "ns", Lower),
    layer("core.aggregate.decode_ns_per_op.count", "ns", Lower),
    layer("core.aggregate.merge_ns_per_op.quantile", "ns", Lower),
    layer("core.aggregate.encode_ns_per_op.quantile", "ns", Lower),
    layer("core.aggregate.decode_ns_per_op.quantile", "ns", Lower),
    layer("core.aggregate.merge_ns_per_op.bottomk", "ns", Lower),
    layer("core.aggregate.encode_ns_per_op.bottomk", "ns", Lower),
    layer("core.aggregate.decode_ns_per_op.bottomk", "ns", Lower),
    layer("sketches.quantile.merge_prune_ns_per_op", "ns", Lower),
    layer("obs.drain_ns_per_wave", "ns", Lower),
    layer("obs.drain_share", "ratio", Lower),
    layer("obs.events_per_wave", "count", Lower),
    layer("obs.ring_dropped_share", "ratio", Lower),
    layer("obs.emit_ns_per_event", "ns", Lower),
    layer("obs.recorder_overhead_ratio", "ratio", Lower),
];

/// The declared unit of a metric of either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[i + 1..].contains(name), "{name} declared twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
