//! Sharded parallel execution of independent simulators.
//!
//! A [`ShardedSim`] owns `k` independent [`Simulator`]s over disjoint
//! pieces of one global network and runs them to quiescence **in
//! parallel** on [`std::thread::scope`]. It is the engine-room half of
//! the sharded convergecast driver in `saq-protocols`: the protocol
//! layer decides *what* goes into each shard (the subtrees hanging off
//! the root, whose aggregation is associative and commutative, so they
//! never exchange messages); this module supplies the generic
//! machinery — shard construction, deterministic per-shard random
//! streams, the scoped parallel run, and the merged global view of
//! [`NetStats`].
//!
//! ## Determinism
//!
//! Each shard node is labeled with its **global** node id, so via
//! [`Simulator::with_nodes_labeled`] it draws from exactly the per-node
//! random stream it would own in an unsharded run — node randomness is
//! independent of the partition. Link randomness (loss fates, jitter)
//! comes from per-edge fate streams keyed by the global labels of an
//! edge's endpoints plus the edge's own transmission count
//! ([`crate::link::FateStream`]), so a shard simulating an edge replays
//! exactly the fates an unsharded run would draw for it — the loss
//! schedule is independent of the partition *and* of how the OS
//! schedules the shard threads. Results are collected and merged in
//! **fixed shard order** at the barrier, never in thread-completion
//! order.

use crate::energy::EnergyModel;
use crate::error::NetsimError;
use crate::sim::{NodeRuntime, SimConfig, Simulator};
use crate::stats::NetStats;
use crate::time::SimTime;
use crate::topology::Topology;

/// Blueprint of one shard: which global nodes it contains and how they
/// are wired, both in shard-local indices.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// `nodes[local]` is the global id of shard-local node `local`
    /// (also its random-stream label).
    pub nodes: Vec<usize>,
    /// Shard-local edge list.
    pub edges: Vec<(usize, usize)>,
}

/// `k` disjoint simulators runnable in parallel, with a merged global
/// statistics view.
#[derive(Debug)]
pub struct ShardedSim<P> {
    shards: Vec<Simulator<P>>,
    /// Per shard: local id → global id.
    maps: Vec<Vec<usize>>,
    n_global: usize,
    energy: EnergyModel,
}

impl<P: NodeRuntime> ShardedSim<P> {
    /// Builds one simulator per `(spec, node states)` pair. All shards
    /// share `cfg` (seed, links, energy, event budget — the budget
    /// applies per shard); every node draws from its global-id stream
    /// and every edge from the fate stream its global endpoint labels
    /// own.
    ///
    /// # Errors
    ///
    /// Propagates topology construction failures (a shard must be a
    /// connected graph over its local nodes).
    ///
    /// # Panics
    ///
    /// Panics if a spec's node and state counts differ (via
    /// [`Simulator::with_nodes_labeled`]).
    pub fn new(
        cfg: &SimConfig,
        n_global: usize,
        parts: Vec<(ShardSpec, Vec<P>)>,
    ) -> Result<Self, NetsimError> {
        let mut shards = Vec::with_capacity(parts.len());
        let mut maps = Vec::with_capacity(parts.len());
        for (spec, nodes) in parts {
            let topo = Topology::from_edges(spec.nodes.len(), spec.edges.iter().copied())?;
            let labels: Vec<u64> = spec.nodes.iter().map(|&g| g as u64).collect();
            shards.push(Simulator::with_nodes_labeled(
                topo,
                cfg.clone(),
                nodes,
                &labels,
            ));
            maps.push(spec.nodes);
        }
        Ok(ShardedSim {
            shards,
            maps,
            n_global,
            energy: cfg.energy,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of nodes in the global network this partition covers.
    pub fn global_len(&self) -> usize {
        self.n_global
    }

    /// Shard `i`'s simulator.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard(&self, i: usize) -> &Simulator<P> {
        &self.shards[i]
    }

    /// Mutable access to shard `i`'s simulator (staging waves, loading
    /// items between runs).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_mut(&mut self, i: usize) -> &mut Simulator<P> {
        &mut self.shards[i]
    }

    /// Shard `i`'s local → global node map.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn map(&self, i: usize) -> &[usize] {
        &self.maps[i]
    }

    /// The global id of shard `i`'s local node `local`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn to_global(&self, i: usize, local: usize) -> usize {
        self.maps[i][local]
    }

    /// Latest virtual time over all shards.
    pub fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(Simulator::now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Total events processed over all shards since construction.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(Simulator::events_processed).sum()
    }

    /// Total physical transmissions over all shards since construction.
    pub fn frames_transmitted(&self) -> u64 {
        self.shards.iter().map(Simulator::frames_transmitted).sum()
    }

    /// Resets every shard's statistics.
    pub fn reset_stats(&mut self) {
        for s in &mut self.shards {
            s.reset_stats();
        }
    }

    /// The global statistics view: per-shard counters summed under each
    /// shard's local → global node map.
    pub fn merged_stats(&self) -> NetStats {
        let mut out = NetStats::new(self.n_global, self.energy);
        for (sim, map) in self.shards.iter().zip(&self.maps) {
            out.absorb_mapped(sim.stats(), map);
        }
        out
    }
}

impl<P: NodeRuntime + Send> ShardedSim<P> {
    /// Runs every shard to quiescence, one OS thread per shard, and
    /// returns the total number of events processed by this call.
    ///
    /// The call is a **barrier**: it returns only after every shard
    /// thread joined. Errors are reported deterministically — the
    /// lowest-indexed failing shard wins, independent of thread timing.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run_until_quiescent`], per shard.
    ///
    /// # Panics
    ///
    /// Propagates panics from shard node state machines.
    pub fn run_all(&mut self) -> Result<u64, NetsimError> {
        let results: Vec<Result<u64, NetsimError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .map(|shard| scope.spawn(move || shard.run_until_quiescent()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });
        let mut total = 0u64;
        for r in results {
            total += r?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Context;
    use crate::wire::{BitString, BitWriter};

    /// On kick, sends one 8-bit byte to every neighbour; counts
    /// receptions.
    #[derive(Debug, Default)]
    struct Ping {
        heard: u32,
    }

    impl NodeRuntime for Ping {
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            let neighbors: Vec<usize> = ctx.neighbors().to_vec();
            for n in neighbors {
                let mut w = BitWriter::new();
                w.write_bits(0xA5, 8);
                ctx.send(n, w.finish());
            }
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _from: usize, _payload: &BitString) {
            self.heard += 1;
        }
    }

    fn two_line_shards() -> ShardedSim<Ping> {
        // Global network of 5 nodes: shard 0 holds {1, 2}, shard 1 holds
        // {3, 4}; global node 0 is not simulated by either shard.
        let parts = vec![
            (
                ShardSpec {
                    nodes: vec![1, 2],
                    edges: vec![(0, 1)],
                },
                vec![Ping::default(), Ping::default()],
            ),
            (
                ShardSpec {
                    nodes: vec![3, 4],
                    edges: vec![(0, 1)],
                },
                vec![Ping::default(), Ping::default()],
            ),
        ];
        ShardedSim::new(&SimConfig::default(), 5, parts).unwrap()
    }

    #[test]
    fn parallel_run_merges_stats_under_the_map() {
        let mut sharded = two_line_shards();
        sharded.shard_mut(0).kick(0, 0); // global node 1
        sharded.shard_mut(1).kick(1, 0); // global node 4
        let events = sharded.run_all().unwrap();
        assert!(events > 0);
        let stats = sharded.merged_stats();
        assert_eq!(stats.len(), 5);
        // Global 1 and 4 each transmitted 8 bits + their echo-less peers
        // received them.
        assert_eq!(stats.node(1).tx_bits, 8);
        assert_eq!(stats.node(4).tx_bits, 8);
        assert_eq!(stats.node(2).rx_bits, 8);
        assert_eq!(stats.node(3).rx_bits, 8);
        assert_eq!(stats.node(0).total_bits(), 0);
        // Link charges are remapped to global ids too.
        assert_eq!(stats.link_bits(1, 2), 8);
        assert_eq!(stats.link_bits(3, 4), 8);
    }

    #[test]
    fn node_streams_follow_global_labels() {
        // A shard node labeled with global id g must draw from exactly
        // the rng stream node g owns in an unsharded simulator — probe
        // the streams through the simulators themselves.
        #[derive(Debug, Default)]
        struct RngProbe {
            draw: Option<u64>,
        }
        impl NodeRuntime for RngProbe {
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                self.draw = Some(ctx.rng().next_u64());
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: usize, _: &BitString) {}
        }
        let cfg = SimConfig::default().with_seed(99);
        let mut global: Simulator<RngProbe> = Simulator::with_nodes(
            Topology::line(5).unwrap(),
            cfg.clone(),
            (0..5).map(|_| RngProbe::default()).collect(),
        );
        for v in 0..5 {
            global.kick(v, 0);
        }
        global.run_until_quiescent().unwrap();

        let mut sharded = ShardedSim::new(
            &cfg,
            5,
            vec![
                (
                    ShardSpec {
                        nodes: vec![1, 2],
                        edges: vec![(0, 1)],
                    },
                    vec![RngProbe::default(), RngProbe::default()],
                ),
                (
                    ShardSpec {
                        nodes: vec![3, 4],
                        edges: vec![(0, 1)],
                    },
                    vec![RngProbe::default(), RngProbe::default()],
                ),
            ],
        )
        .unwrap();
        for s in 0..2 {
            for l in 0..2 {
                sharded.shard_mut(s).kick(l, 0);
            }
        }
        sharded.run_all().unwrap();
        for s in 0..2 {
            for l in 0..2 {
                let g = sharded.to_global(s, l);
                assert_eq!(
                    sharded.shard(s).node(l).draw,
                    global.node(g).draw,
                    "shard {s} local {l} does not own global node {g}'s stream"
                );
            }
        }
        // And the labeled streams are genuinely distinct from the
        // local-index streams a naive construction would use.
        assert_ne!(sharded.shard(1).node(0).draw, global.node(0).draw);
    }

    #[test]
    fn deterministic_error_priority() {
        // A shard that exhausts its event budget reports the error from
        // the lowest shard index regardless of scheduling.
        #[derive(Debug, Default)]
        struct Ticker;
        impl NodeRuntime for Ticker {
            fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
                ctx.set_timer(crate::time::SimDuration::from_micros(1), tag);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: usize, _: &BitString) {}
        }
        let cfg = SimConfig {
            max_events: 100,
            ..SimConfig::default()
        };
        let parts = vec![
            (
                ShardSpec {
                    nodes: vec![0],
                    edges: vec![],
                },
                vec![Ticker],
            ),
            (
                ShardSpec {
                    nodes: vec![1],
                    edges: vec![],
                },
                vec![Ticker],
            ),
        ];
        let mut sharded = ShardedSim::new(&cfg, 2, parts).unwrap();
        sharded.shard_mut(0).kick(0, 0);
        sharded.shard_mut(1).kick(0, 0);
        let err = sharded.run_all().unwrap_err();
        assert!(matches!(err, NetsimError::EventBudgetExhausted { .. }));
    }
}
