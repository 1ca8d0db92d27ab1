//! Fixed-width slots as words: the flat runner's row representation.
//!
//! A slot whose partial is a fixed number of machine words — a count or
//! sum, a min or max with its runner-up — needs no container. On a flat
//! wave the [`MultiplexWave`](crate::mux::MultiplexWave) lays every such
//! slot of a request out back to back, in slot order, as a node's
//! **row** of `u64` words, and the flat runner folds, merges and bills
//! the row word by word ([`RowKernel`]). Every other slot keeps riding
//! in the protocol's [`WaveProtocol::Partial`]. A row slot becomes a
//! partial again only where it enters or leaves a subtree cache entry,
//! and at the root ([`WaveProtocol::row_partial`]).
//!
//! The protocol decides which slots are row slots
//! ([`WaveProtocol::row_kernel`]) and converts between its partials and
//! words ([`WaveProtocol::fill_row`], [`WaveProtocol::row_partial`]);
//! this module owns only the word arithmetic, which must equal the
//! protocol's own merge of a decoded child and its codec's widths.

use crate::wave::WaveProtocol;
use saq_netsim::sim::NodeId;
use saq_netsim::wire::gamma_len;

/// The `best` word of an empty min/max slot (`None`).
pub const ROW_NONE: u64 = u64::MAX;
/// The runner-up word of a min/max slot whose multiset provably has no
/// runner-up (fewer than two elements).
pub const ROW_ABSENT: u64 = u64::MAX - 1;
/// The runner-up word of a min/max slot that knows nothing about its
/// runner-up (a merged child's, or one lost to a removal).
pub const ROW_UNKNOWN: u64 = u64::MAX - 2;
/// Every value a min/max row word holds lies below this bound, so the
/// three sentinels above never collide with a value.
pub const ROW_VALUE_LIMIT: u64 = ROW_UNKNOWN;

/// How a fixed-width slot's words merge and how wide its encoding is.
///
/// * `Add` — one word, a count or sum: a child's word is added; the
///   encoding is the Elias-gamma code of `word + 1`.
/// * `Min`/`Max` — two words, `[best, runner-up]`: `best` is a value or
///   [`ROW_NONE`], the runner-up a value, [`ROW_ABSENT`] or
///   [`ROW_UNKNOWN`]. A child contributes its `best` alone — its
///   runner-up never crosses an edge, exactly as its codec carries none —
///   and the encoding is a presence bit plus `value_width` bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKernel {
    /// Count or sum: one word, added.
    Add,
    /// Minimum with runner-up: two words.
    Min {
        /// Bits of an encoded value.
        value_width: u32,
    },
    /// Maximum with runner-up: two words.
    Max {
        /// Bits of an encoded value.
        value_width: u32,
    },
}

impl RowKernel {
    /// Words the slot occupies in a row.
    #[inline]
    pub fn words(self) -> usize {
        match self {
            RowKernel::Add => 1,
            RowKernel::Min { .. } | RowKernel::Max { .. } => 2,
        }
    }

    /// Strictly closer to the extremum: `<` for `Min`, `>` for `Max`.
    #[inline]
    fn better(self, a: u64, b: u64) -> bool {
        match self {
            RowKernel::Max { .. } => a > b,
            _ => a < b,
        }
    }

    /// Merges a child's words into `acc` in place: the sum, or the
    /// min/max merge of `acc` with a partial that knows only the child's
    /// extremum (its runner-up is never read).
    #[inline]
    pub fn absorb(self, acc: &mut [u64], child: &[u64]) {
        if let RowKernel::Add = self {
            acc[0] += child[0];
            return;
        }
        let (c, x) = (child[0], acc[0]);
        acc[1] = if x == ROW_NONE {
            // An empty accumulator takes the child as decoded: its
            // runner-up is unknown, or provably absent if it is empty.
            acc[0] = c;
            if c == ROW_NONE {
                ROW_ABSENT
            } else {
                ROW_UNKNOWN
            }
        } else if c == ROW_NONE {
            return; // an empty child contributes nothing
        } else if x == c {
            // Tied extremums: attained twice, so the runner-up is exact.
            x
        } else if self.better(x, c) {
            // The accumulator wins: the runner-up is the better of its
            // own and the child's extremum, unless its own is unknown.
            match acc[1] {
                ROW_ABSENT => c,
                ROW_UNKNOWN => ROW_UNKNOWN,
                s if self.better(s, c) => s,
                _ => c,
            }
        } else {
            // The child wins, and its runner-up is unknown.
            acc[0] = c;
            ROW_UNKNOWN
        };
    }

    /// Bits the slot's encoding takes: `gamma_len(word + 1)`, or one
    /// presence bit plus `value_width` when a min/max is non-empty.
    #[inline]
    pub fn width(self, words: &[u64]) -> u64 {
        match self {
            RowKernel::Add => gamma_len(words[0] + 1),
            RowKernel::Min { value_width } | RowKernel::Max { value_width } => {
                1 + if words[0] == ROW_NONE {
                    0
                } else {
                    value_width as u64
                }
            }
        }
    }
}

/// Where [`WaveProtocol::fill_row`] takes a row's words from.
pub enum RowSource<'a, P: WaveProtocol> {
    /// A node's local step: every row slot of the request folds the
    /// node's items into its words, and every other slot's contribution
    /// goes to `rest` — a spent accumulator to refill, or `None` to be
    /// made — in slot order. A request with no slot outside its row
    /// makes no accumulator. The row is aligned with the request.
    Local {
        /// The node.
        node: NodeId,
        /// Its items (a rest slot may rescale them, as in `local`).
        items: &'a mut [P::Item],
        /// The accumulator of the slots outside the row.
        rest: &'a mut Option<P::Partial>,
    },
    /// Slot `i` of the request, held as element `j` of `partial` (a
    /// cache entry is a single-slot partial, `j = 0`; a reply joined in
    /// full is aligned with its request): its words, exactly — a
    /// min/max runner-up included. The row is the slot's words alone.
    Slot {
        /// The slot in the request.
        i: usize,
        /// The partial holding it.
        partial: &'a P::Partial,
        /// Its element in `partial`.
        j: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sums_and_measures_the_gamma_code() {
        let mut acc = [3];
        RowKernel::Add.absorb(&mut acc, &[4]);
        assert_eq!(acc, [7]);
        assert_eq!(RowKernel::Add.width(&[0]), 1);
        assert_eq!(RowKernel::Add.width(&acc), gamma_len(8));
    }

    #[test]
    fn min_keeps_the_runner_up_a_decoded_child_leaves() {
        let k = RowKernel::Min { value_width: 10 };
        // Empty accumulator: the child as decoded.
        let mut acc = [ROW_NONE, ROW_ABSENT];
        k.absorb(&mut acc, &[5, 1]);
        assert_eq!(acc, [5, ROW_UNKNOWN]);
        // An empty child changes nothing.
        k.absorb(&mut acc, &[ROW_NONE, ROW_ABSENT]);
        assert_eq!(acc, [5, ROW_UNKNOWN]);
        // A tie makes the runner-up exact.
        k.absorb(&mut acc, &[5, 9]);
        assert_eq!(acc, [5, 5]);
        // A worse child displaces a worse runner-up only.
        let mut acc = [2, 8];
        k.absorb(&mut acc, &[6, 0]);
        assert_eq!(acc, [2, 6]);
        k.absorb(&mut acc, &[7, 0]);
        assert_eq!(acc, [2, 6]);
        // A better child wins with an unknown runner-up.
        k.absorb(&mut acc, &[1, 0]);
        assert_eq!(acc, [1, ROW_UNKNOWN]);
        assert_eq!(k.width(&acc), 11);
        assert_eq!(k.width(&[ROW_NONE, ROW_ABSENT]), 1);
    }

    #[test]
    fn max_mirrors_min() {
        let k = RowKernel::Max { value_width: 6 };
        let mut acc = [4, ROW_ABSENT];
        k.absorb(&mut acc, &[2, 0]);
        assert_eq!(acc, [4, 2]);
        k.absorb(&mut acc, &[9, 0]);
        assert_eq!(acc, [9, ROW_UNKNOWN]);
        assert_eq!(k.words(), 2);
    }
}
