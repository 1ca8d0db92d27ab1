//! Bit-level wire codec.
//!
//! Every protocol message in the workspace is serialized to an actual bit
//! string before being "transmitted", so the per-node communication
//! statistics reflect genuine encodings rather than struct sizes. This
//! matters for the paper's claims: an `O(log log N)`-bit register must
//! really cost `Θ(log log N)` bits on the wire.
//!
//! Codecs provided:
//!
//! * fixed-width unsigned integers (`write_bits` / `read_bits`);
//! * unary codes (used by the Elias codes);
//! * **Elias gamma**: `2⌊log₂ v⌋ + 1` bits for `v ≥ 1` — the natural code
//!   for values of unknown magnitude such as sketch registers;
//! * **Elias delta**: `⌊log₂ v⌋ + O(log log v)` bits, asymptotically
//!   shorter for large values;
//! * **LEB-style varints** (`write_varint` / `read_varint`): 8 bits per
//!   7-bit group, the byte-aligned workhorse for length headers that used
//!   to be fixed 16/24-bit fields;
//! * **delta-packed sorted runs** (`write_sorted_deltas` /
//!   `read_sorted_deltas`): a non-decreasing `u64` slice stored as coded
//!   gaps, with a fixed-width fallback arm for incompressible data.
//!
//! All encoders write most-significant-bit first within each value, and
//! the stream is packed most-significant-bit first into 64-bit words:
//! stream bit `i` is bit `63 - i % 64` of word `i / 64`. A
//! [`BitString`] holds exactly `len_bits.div_ceil(64)` words and every
//! bit past `len_bits` is zero, so equal bit sequences are equal (and
//! hash equal) however they were built.
//!
//! Both ends work a word at a time. [`BitWriter`] shifts each value into
//! a 64-bit accumulator and pushes it as is once full; [`BitReader`]
//! reads any field with at most two aligned word loads and a shift,
//! counts unary zeros with `leading_zeros` and reads a gamma code that
//! fits one 64-bit window in one step. The test-only bit-at-a-time
//! reference in this module pins the layout.

use crate::error::NetsimError;

/// Returns the number of bits needed to represent `v` (at least 1, so a
/// zero value still occupies one bit).
#[inline]
pub fn bit_width(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

/// Returns the number of bits required to encode any value in `[0, max]`
/// with a fixed-width code.
#[inline]
pub fn width_for_max(max: u64) -> u32 {
    bit_width(max)
}

/// Length in bits of the Elias gamma code of `v` (requires `v ≥ 1`).
#[inline]
pub fn gamma_len(v: u64) -> u64 {
    debug_assert!(v >= 1);
    2 * (bit_width(v) as u64 - 1) + 1
}

/// Length in bits of the Elias delta code of `v` (requires `v ≥ 1`).
#[inline]
pub fn delta_len(v: u64) -> u64 {
    debug_assert!(v >= 1);
    let n = bit_width(v) as u64; // v uses n bits
    gamma_len(n) + (n - 1)
}

/// Length in bits of the LEB-style varint code of `v`: 8 bits per 7-bit
/// group, at least one group (so zero costs 8 bits).
pub fn varint_len(v: u64) -> u64 {
    bit_width(v).div_ceil(7) as u64 * 8
}

/// What one pass over a non-empty run finds, see [`scan_sorted`].
struct RunScan {
    /// Whether the run is non-decreasing.
    sorted: bool,
    /// The arm [`BitWriter::write_sorted_deltas`] selects (0 = gamma
    /// gaps, 1 = delta gaps, 2 = fixed-width).
    arm: u64,
    /// That arm's payload cost in bits, excluding the length header and
    /// the 2-bit arm selector.
    cost: u64,
    /// The last value (the fixed-width arm's width comes from it).
    last: u64,
}

/// Checks and prices a non-empty run in one pass. A gap arm is
/// unavailable when some `term + 1` would overflow `u64` (possible when
/// the run contains `u64::MAX`); the fixed-width fallback always is.
/// Ties prefer the lower-numbered arm.
fn scan_sorted(vals: impl Iterator<Item = u64>) -> RunScan {
    let (mut gamma, mut delta, mut len) = (0u64, 0u64, 0u64);
    let (mut sorted, mut gaps_fit) = (true, true);
    let mut prev = 0u64;
    for v in vals {
        // The first term is the value itself, later ones the gaps.
        let term = v.wrapping_sub(prev);
        sorted &= len == 0 || v >= prev;
        match term.checked_add(1) {
            Some(t) => {
                gamma += gamma_len(t);
                delta += delta_len(t);
            }
            None => gaps_fit = false,
        }
        prev = v;
        len += 1;
    }
    debug_assert!(len > 0, "non-empty run");
    let fixed = 6 + len * width_for_max(prev) as u64;
    let mut best = (2u64, fixed);
    if gaps_fit {
        if delta < best.1 {
            best = (1, delta);
        }
        if gamma <= best.1 {
            best = (0, gamma);
        }
    }
    RunScan {
        sorted,
        arm: best.0,
        cost: best.1,
        last: prev,
    }
}

/// Exact length in bits of [`BitWriter::write_sorted_run`] for `vals`
/// (which must be non-decreasing): the length header, the arm selector
/// and the cheapest arm's payload, priced by the same pass that picks
/// the arm when writing. A sorted column of a larger record is measured
/// straight from the records, as it is written.
pub fn sorted_run_len<I>(vals: I) -> u64
where
    I: IntoIterator<Item = u64>,
    I::IntoIter: ExactSizeIterator,
{
    let vals = vals.into_iter();
    let header = gamma_len(vals.len() as u64 + 1);
    if vals.len() == 0 {
        return header;
    }
    let scan = scan_sorted(vals);
    debug_assert!(scan.sorted, "sorted-delta input must be non-decreasing");
    header + 2 + scan.cost
}

/// The header of a delta-packed sorted run, read by
/// [`BitReader::read_sorted_header`]: how many values follow and how
/// they are coded. [`BitReader::read_sorted_values`] decodes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortedRun {
    len: u64,
    /// 0 = gamma gaps, 1 = delta gaps, 2 = fixed width (`width` bits).
    arm: u8,
    width: u32,
}

impl SortedRun {
    /// Number of values in the run.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the run holds no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// An append-only bit sink.
///
/// # Examples
///
/// ```
/// use saq_netsim::wire::{BitWriter, BitReader};
///
/// # fn main() -> Result<(), saq_netsim::NetsimError> {
/// let mut w = BitWriter::new();
/// w.write_bits(13, 4);
/// w.write_gamma(100);
/// let r = w.finish();
/// let mut rd = BitReader::new(&r);
/// assert_eq!(rd.read_bits(4)?, 13);
/// assert_eq!(rd.read_gamma()?, 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    /// The stream's completed 64-bit words, first stream bit most
    /// significant.
    words: Vec<u64>,
    /// The bits after `words`, first stream bit most significant.
    acc: u64,
    /// How many bits `acc` holds (`0..64`).
    acc_len: u32,
}

/// A finished bit string, cheap to clone and inspect. Hashable, so an
/// encoded request can key caches (e.g. the wave runner's subtree
/// partial cache) by its exact wire representation.
///
/// Layout: `len_bits.div_ceil(64)` words, most significant bit first,
/// every bit past `len_bits` zero. Equality and `Hash` compare the
/// words, so every constructor keeps that layout.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    words: Vec<u64>,
    len_bits: u64,
}

impl BitString {
    /// Number of bits in the string. This is the quantity charged to the
    /// communication accounting when the string is transmitted.
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Whether the string contains no bits.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// The packed backing words, most significant bit first; the last
    /// word is zero past `len_bits`.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Consumes the string, recovering its backing allocation for reuse
    /// (e.g. through [`ScratchPool::recycle`]).
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }
}

/// A pool of recycled encode buffers for hot frame-encoding paths.
///
/// The event-driven wave engine encodes one frame per tree edge per
/// wave; allocating a fresh `Vec<u64>` for every frame dominates
/// allocator traffic at large N. A driver that both encodes and
/// consumes its buffers (the simulator's per-receiver delivery copies,
/// the flat runner's request-width measurements in `saq-protocols`)
/// can instead draw writers from a pool and recycle each allocation
/// once it is read, reducing steady-state allocations to the pool's
/// high-water mark. The `reused`/`fresh` counters make the saving
/// observable; `tests/wave_allocs.rs` bounds what a whole wave
/// allocates on either runner.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Vec<Vec<u64>>,
    reused: u64,
    fresh: u64,
}

impl ScratchPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer, backed by a recycled allocation when one is
    /// available.
    pub fn writer(&mut self) -> BitWriter {
        match self.free.pop() {
            Some(buf) => {
                self.reused += 1;
                BitWriter::with_scratch(buf)
            }
            None => {
                self.fresh += 1;
                BitWriter::new()
            }
        }
    }

    /// A copy of `s` backed by a recycled allocation when one is
    /// available — what the event simulator uses for per-receiver
    /// delivery copies, so steady-state waves clone frames without
    /// touching the allocator.
    pub fn duplicate(&mut self, s: &BitString) -> BitString {
        match self.free.pop() {
            Some(mut buf) => {
                self.reused += 1;
                buf.clear();
                buf.extend_from_slice(&s.words);
                BitString {
                    words: buf,
                    len_bits: s.len_bits,
                }
            }
            None => {
                self.fresh += 1;
                s.clone()
            }
        }
    }

    /// Returns a consumed frame's allocation to the pool.
    pub fn recycle(&mut self, s: BitString) {
        let words = s.into_words();
        if words.capacity() > 0 {
            self.free.push(words);
        }
    }

    /// Writers served from a recycled allocation.
    pub fn reused(&self) -> u64 {
        self.reused
    }

    /// Writers that had to allocate fresh.
    pub fn fresh(&self) -> u64 {
        self.fresh
    }
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer backed by `scratch`'s allocation (the
    /// contents are cleared, the capacity is kept). Together with
    /// [`BitString::into_words`] this lets hot encode paths recycle
    /// frame buffers instead of allocating one `Vec<u64>` per message —
    /// see [`ScratchPool`].
    pub fn with_scratch(mut scratch: Vec<u64>) -> Self {
        scratch.clear();
        BitWriter {
            words: scratch,
            acc: 0,
            acc_len: 0,
        }
    }

    /// Number of bits written so far.
    #[inline]
    pub fn len_bits(&self) -> u64 {
        self.words.len() as u64 * 64 + self.acc_len as u64
    }

    /// Appends the low `width` bits of `v`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `v` does not fit in `width` bits.
    #[inline]
    pub fn write_bits(&mut self, v: u64, width: u32) {
        assert!(width <= 64, "width {width} exceeds 64");
        assert!(
            width == 64 || v < (1u64 << width),
            "value {v} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        let free = 64 - self.acc_len;
        if width < free {
            self.acc = (self.acc << width) | v;
            self.acc_len += width;
            return;
        }
        // The word fills: complete it with v's high bits, store it, and
        // keep the `spill` low bits that did not fit.
        let spill = width - free;
        let word = if free == 64 {
            v
        } else {
            (self.acc << free) | (v >> spill)
        };
        self.words.push(word);
        self.acc = v & !(u64::MAX << spill);
        self.acc_len = spill;
    }

    /// Appends `n` zero bits.
    fn push_zeros(&mut self, mut n: u64) {
        while n > 0 {
            let take = n.min(64) as u32;
            self.write_bits(0, take);
            n -= take as u64;
        }
    }

    /// Appends `n` in unary: `n` zeros followed by a one.
    pub fn write_unary(&mut self, n: u32) {
        // n zeros then a one is the value 1 in n + 1 bits.
        let n = n as u64;
        let zeros = n.saturating_sub(63);
        self.push_zeros(zeros);
        self.write_bits(1, (n - zeros) as u32 + 1);
    }

    /// Appends the Elias gamma code of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v == 0` (gamma codes positive integers only; shift by one
    /// at the call site to encode zero).
    #[inline]
    pub fn write_gamma(&mut self, v: u64) {
        assert!(v >= 1, "gamma code requires v >= 1");
        // v is in [2^n, 2^{n+1}): n zeros, then v's n + 1 bits from its
        // leading one, is v itself in 2n + 1 bits.
        let n = bit_width(v) - 1;
        if n < 32 {
            self.write_bits(v, 2 * n + 1);
        } else {
            self.push_zeros(n as u64);
            self.write_bits(v, n + 1);
        }
    }

    /// Appends the Elias delta code of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v == 0`.
    #[inline]
    pub fn write_delta(&mut self, v: u64) {
        assert!(v >= 1, "delta code requires v >= 1");
        let n = bit_width(v); // number of bits of v
        let rest = v ^ (1u64 << (n - 1)); // the n - 1 bits below the leading one
        let glen = gamma_len(n as u64) as u32;
        if glen + n - 1 <= 64 {
            // gamma(n) followed by the rest is one fixed-width value.
            self.write_bits(((n as u64) << (n - 1)) | rest, glen + n - 1);
        } else {
            self.write_gamma(n as u64);
            self.write_bits(rest, n - 1);
        }
    }

    /// Appends the LEB-style varint code of `v`: little-endian 7-bit
    /// groups, each preceded on the stream by one more-groups-follow
    /// flag bit. Always a whole number of 8-bit groups, so it costs
    /// [`varint_len`] bits exactly.
    pub fn write_varint(&mut self, mut v: u64) {
        loop {
            let group = v & 0x7F;
            v >>= 7;
            let cont = (v != 0) as u64;
            self.write_bits((cont << 7) | group, 8);
            if cont == 0 {
                return;
            }
        }
    }

    /// Appends a non-decreasing run of values as a delta-packed block:
    /// a gamma-coded length, then a 2-bit arm selector choosing the
    /// cheapest of gamma-coded gaps, delta-coded gaps, or fixed-width
    /// absolute values (the fallback that keeps incompressible data —
    /// e.g. uniform 64-bit hash keys — no worse than the old
    /// fixed-width arrays, give or take the 8-bit header).
    ///
    /// # Panics
    ///
    /// Panics if `vals` is not non-decreasing.
    pub fn write_sorted_deltas(&mut self, vals: &[u64]) {
        self.write_sorted_run(vals.iter().copied());
    }

    /// [`BitWriter::write_sorted_deltas`] over an iterator, so a column
    /// of a larger record (say, every entry's rank bound) is written
    /// straight from the records. The iterator is walked twice: once to
    /// check the order and price the arms, once to write.
    ///
    /// # Panics
    ///
    /// Panics if the values are not non-decreasing.
    pub fn write_sorted_run<I>(&mut self, vals: I)
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let vals = vals.into_iter();
        let len = vals.len() as u64;
        if len == 0 {
            self.write_gamma(1);
            return;
        }
        let scan = scan_sorted(vals.clone());
        assert!(scan.sorted, "sorted-delta input must be non-decreasing");
        self.write_gamma(len + 1);
        self.write_bits(scan.arm, 2);
        match scan.arm {
            0 | 1 => {
                let mut prev = 0u64;
                for v in vals {
                    let term = v - prev;
                    if scan.arm == 0 {
                        self.write_gamma(term + 1);
                    } else {
                        self.write_delta(term + 1);
                    }
                    prev = v;
                }
            }
            _ => {
                let width = width_for_max(scan.last);
                self.write_bits(width as u64 - 1, 6);
                for v in vals {
                    self.write_bits(v, width);
                }
            }
        }
    }

    /// Appends another bit string verbatim, a word at a time, copying
    /// the whole words as they are when the writer is word-aligned (this
    /// is the zero-copy forwarding path: pass-through slots are moved as
    /// raw bit ranges, never decoded).
    pub fn write_bitstring(&mut self, s: &BitString) {
        let full = (s.len_bits / 64) as usize;
        if self.acc_len == 0 {
            self.words.extend_from_slice(&s.words[..full]);
        } else {
            for &word in &s.words[..full] {
                self.write_bits(word, 64);
            }
        }
        let rest = (s.len_bits % 64) as u32;
        if rest > 0 {
            self.write_bits(s.words[full] >> (64 - rest), rest);
        }
    }

    /// Finalizes the stream: the pending bits, left-aligned, take the
    /// one word they need, so a buffer sized for the output never
    /// reallocates.
    pub fn finish(mut self) -> BitString {
        let len_bits = self.len_bits();
        if self.acc_len > 0 {
            self.words.push(self.acc << (64 - self.acc_len));
        }
        BitString {
            words: self.words,
            len_bits,
        }
    }
}

/// A cursor over a [`BitString`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    src: &'a BitString,
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit.
    pub fn new(src: &'a BitString) -> Self {
        BitReader { src, pos: 0 }
    }

    /// Number of bits not yet consumed.
    #[inline]
    pub fn remaining(&self) -> u64 {
        self.src.len_bits - self.pos
    }

    /// Moves the cursor back `n` bits (O(1)). Together with
    /// [`BitReader::read_bitstring`] this lets a decoder re-capture the
    /// exact bit range it just parsed — the capture half of the
    /// zero-copy forwarding path.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] if fewer than `n` bits have
    /// been consumed.
    pub fn rewind(&mut self, n: u64) -> Result<(), NetsimError> {
        if n > self.pos {
            return Err(NetsimError::WireDecode("rewind past start of bit stream"));
        }
        self.pos -= n;
        Ok(())
    }

    /// The next `width` (1..=64) stream bits, left-aligned: the bit at
    /// `pos` is the most significant. One aligned word load, plus the
    /// next word's when the bits straddle it. The bits below `width`
    /// are junk, except that those past the end of the string are zero.
    /// The caller checks that `width` bits remain.
    #[inline]
    fn peek(&self, width: u32) -> u64 {
        debug_assert!((1..=64).contains(&width) && width as u64 <= self.remaining());
        let words = &self.src.words;
        let i = (self.pos / 64) as usize;
        let off = (self.pos % 64) as u32;
        let window = words[i] << off;
        if off + width > 64 {
            // In range: the bits end inside word i + 1.
            window | (words[i + 1] >> (64 - off))
        } else {
            window
        }
    }

    /// Reads a fixed-width big-endian value.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] if fewer than `width` bits remain.
    #[inline]
    pub fn read_bits(&mut self, width: u32) -> Result<u64, NetsimError> {
        assert!(width <= 64, "width {width} exceeds 64");
        if width == 0 {
            return Ok(0);
        }
        if width as u64 > self.remaining() {
            return Err(NetsimError::WireDecode("read past end of bit stream"));
        }
        let window = self.peek(width);
        self.pos += width as u64;
        Ok(window >> (64 - width))
    }

    /// The next 64 stream bits, left-aligned (fewer at the end of the
    /// string, zero below them), and how many they are.
    #[inline]
    fn peek_window(&self) -> (u64, u32) {
        let avail = self.remaining().min(64) as u32;
        if avail == 0 {
            return (0, 0);
        }
        (self.peek(avail), avail)
    }

    /// Like [`BitReader::peek_window`], plus how many zeros lead the
    /// window (all of it when it is all zero).
    #[inline]
    fn peek_zeros(&self) -> (u64, u32, u32) {
        let (window, avail) = self.peek_window();
        (window, avail, window.leading_zeros().min(avail))
    }

    /// Reads a unary code.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] if the stream ends before the
    /// terminating one-bit, or after more than `64 · 1024` zeros.
    pub fn read_unary(&mut self) -> Result<u32, NetsimError> {
        const MAX_RUN: u64 = 64 * 1024;
        let mut n = 0u64;
        loop {
            let (_, avail, zeros) = self.peek_zeros();
            if avail == 0 {
                return Err(NetsimError::WireDecode("read past end of bit stream"));
            }
            n += zeros as u64;
            if n > MAX_RUN {
                return Err(NetsimError::WireDecode("unary run too long"));
            }
            if zeros < avail {
                self.pos += zeros as u64 + 1;
                return Ok(n as u32);
            }
            self.pos += avail as u64;
        }
    }

    /// Reads an Elias gamma code.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on a truncated stream.
    #[inline]
    pub fn read_gamma(&mut self) -> Result<u64, NetsimError> {
        // Fast path: the whole code — n zeros and the n + 1 bits of the
        // value — lies in one window, and is the value itself.
        let (window, avail, n) = self.peek_zeros();
        if 2 * n < avail {
            let width = 2 * n + 1;
            self.pos += width as u64;
            return Ok(window >> (64 - width));
        }
        let n = self.read_unary()?;
        if n >= 64 {
            return Err(NetsimError::WireDecode("gamma prefix too long"));
        }
        let rest = if n > 0 { self.read_bits(n)? } else { 0 };
        Ok((1u64 << n) | rest)
    }

    /// Reads a LEB-style varint written by [`BitWriter::write_varint`].
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on a truncated stream or a
    /// group sequence that overflows `u64`.
    pub fn read_varint(&mut self) -> Result<u64, NetsimError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            // Every whole 8-bit group in the next window comes from one
            // peek, taken from its top; fewer than 8 bits left is a
            // truncated group.
            let (window, avail) = self.peek_window();
            if avail < 8 {
                return Err(NetsimError::WireDecode("read past end of bit stream"));
            }
            for k in 0..avail / 8 {
                let byte = (window << (8 * k)) >> 56;
                self.pos += 8;
                let group = byte & 0x7F;
                if shift >= 64 || (shift == 63 && group > 1) {
                    return Err(NetsimError::WireDecode("varint overflows u64"));
                }
                v |= group << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
            }
        }
    }

    /// Reads a delta-packed sorted run written by
    /// [`BitWriter::write_sorted_deltas`]. `max_len` bounds the decoded
    /// length so a malformed header cannot drive a huge allocation;
    /// callers pass their domain's cap (`k` for a bottom-k sample, the
    /// item population for an exact distinct set, ...).
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on truncation, a length
    /// above `max_len`, a fixed-width run that is not non-decreasing,
    /// or gap accumulation overflowing `u64`.
    pub fn read_sorted_deltas(&mut self, max_len: u64) -> Result<Vec<u64>, NetsimError> {
        let run = self.read_sorted_header(max_len)?;
        let mut vals = Vec::with_capacity(run.len() as usize);
        self.read_sorted_values(run, |v| vals.push(v))?;
        Ok(vals)
    }

    /// Reads the header of a sorted run — its length, checked against
    /// `max_len`, and its arm — so the caller can size storage before
    /// [`BitReader::read_sorted_values`] hands it the values.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on truncation, a length
    /// above `max_len` or an invalid arm.
    pub fn read_sorted_header(&mut self, max_len: u64) -> Result<SortedRun, NetsimError> {
        let len = self.read_gamma()? - 1;
        if len > max_len {
            return Err(NetsimError::WireDecode("sorted run length out of range"));
        }
        if len == 0 {
            return Ok(SortedRun {
                len,
                arm: 0,
                width: 0,
            });
        }
        let (arm, width) = match self.read_bits(2)? {
            0 => (0, 0),
            1 => (1, 0),
            2 => (2, self.read_bits(6)? as u32 + 1),
            _ => return Err(NetsimError::WireDecode("sorted run arm invalid")),
        };
        // Every value takes at least one bit, so a longer run is
        // truncated; rejecting it here keeps callers' `reserve(len)`
        // bounded by the frame.
        if len > self.remaining() {
            return Err(NetsimError::WireDecode("read past end of bit stream"));
        }
        Ok(SortedRun { len, arm, width })
    }

    /// Decodes the values of the run whose header was just read,
    /// handing each to `sink` in order.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on truncation, a fixed-width
    /// run that is not non-decreasing, or gap accumulation overflowing
    /// `u64`. `sink` may have received some values by then.
    pub fn read_sorted_values(
        &mut self,
        run: SortedRun,
        mut sink: impl FnMut(u64),
    ) -> Result<(), NetsimError> {
        // Gaps accumulate from 0, so the first term is the first value.
        let overflow = || NetsimError::WireDecode("sorted run overflows u64");
        let mut prev = 0u64;
        match run.arm {
            0 => {
                for _ in 0..run.len {
                    prev = prev
                        .checked_add(self.read_gamma()? - 1)
                        .ok_or_else(overflow)?;
                    sink(prev);
                }
            }
            1 => {
                for _ in 0..run.len {
                    prev = prev
                        .checked_add(self.read_delta()? - 1)
                        .ok_or_else(overflow)?;
                    sink(prev);
                }
            }
            _ => {
                for _ in 0..run.len {
                    let v = self.read_bits(run.width)?;
                    if v < prev {
                        return Err(NetsimError::WireDecode("sorted run not non-decreasing"));
                    }
                    sink(v);
                    prev = v;
                }
            }
        }
        Ok(())
    }

    /// Reads the next `len` bits as an owned [`BitString`] — the read
    /// half of the zero-copy forwarding path (the returned string can
    /// be re-emitted verbatim with [`BitWriter::write_bitstring`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] if fewer than `len` bits
    /// remain.
    pub fn read_bitstring(&mut self, len: u64) -> Result<BitString, NetsimError> {
        if len > self.remaining() {
            return Err(NetsimError::WireDecode("read past end of bit stream"));
        }
        // Exactly the words the string needs, so `finish` never
        // reallocates.
        let mut w = BitWriter::with_scratch(Vec::with_capacity(len.div_ceil(64) as usize));
        let mut left = len;
        while left > 0 {
            let take = left.min(64) as u32;
            let chunk = self.read_bits(take)?;
            w.write_bits(chunk, take);
            left -= take as u64;
        }
        Ok(w.finish())
    }

    /// Reads an Elias delta code.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on a truncated stream.
    #[inline]
    pub fn read_delta(&mut self) -> Result<u64, NetsimError> {
        let n = self.read_gamma()?;
        if n == 0 || n > 64 {
            return Err(NetsimError::WireDecode("delta length out of range"));
        }
        let n = n as u32;
        let rest = if n > 1 { self.read_bits(n - 1)? } else { 0 };
        Ok(if n == 64 {
            (1u64 << 63) | rest
        } else {
            (1u64 << (n - 1)) | rest
        })
    }
}

/// Types that can serialize themselves onto a bit stream.
///
/// Implementations must guarantee `decode(encode(x)) == x` and that
/// [`WireEncode::encoded_bits`] equals the number of bits actually written;
/// the property tests in this crate and in `saq-protocols` enforce both.
pub trait WireEncode: Sized {
    /// Appends `self` to the writer.
    fn encode(&self, w: &mut BitWriter);

    /// Decodes a value from the reader.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] if the stream is truncated or
    /// malformed.
    fn decode(r: &mut BitReader<'_>) -> Result<Self, NetsimError>;

    /// Exact encoded size in bits.
    fn encoded_bits(&self) -> u64 {
        let mut w = BitWriter::new();
        self.encode(&mut w);
        w.len_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bit_width_edges() {
        assert_eq!(bit_width(0), 1);
        assert_eq!(bit_width(1), 1);
        assert_eq!(bit_width(2), 2);
        assert_eq!(bit_width(255), 8);
        assert_eq!(bit_width(256), 9);
        assert_eq!(bit_width(u64::MAX), 64);
    }

    #[test]
    fn gamma_lengths_match_formula() {
        assert_eq!(gamma_len(1), 1);
        assert_eq!(gamma_len(2), 3);
        assert_eq!(gamma_len(3), 3);
        assert_eq!(gamma_len(4), 5);
        assert_eq!(gamma_len(100), 13);
    }

    #[test]
    fn fixed_roundtrip_various_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0, 1);
        w.write_bits(1, 1);
        w.write_bits(0b1010, 4);
        w.write_bits(u64::MAX, 64);
        w.write_bits(12345, 17);
        let s = w.finish();
        assert_eq!(s.len_bits(), 1 + 1 + 4 + 64 + 17);
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        assert_eq!(r.read_bits(4).unwrap(), 0b1010);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(17).unwrap(), 12345);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_read_errors() {
        let mut w = BitWriter::new();
        w.write_bits(3, 2);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert!(r.read_bits(3).is_err());
    }

    #[test]
    fn unary_roundtrip() {
        let mut w = BitWriter::new();
        for n in [0u32, 1, 2, 7, 31] {
            w.write_unary(n);
        }
        let s = w.finish();
        let mut r = BitReader::new(&s);
        for n in [0u32, 1, 2, 7, 31] {
            assert_eq!(r.read_unary().unwrap(), n);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn write_bits_overflow_panics() {
        let mut w = BitWriter::new();
        w.write_bits(4, 2);
    }

    #[test]
    #[should_panic(expected = "requires v >= 1")]
    fn gamma_zero_panics() {
        let mut w = BitWriter::new();
        w.write_gamma(0);
    }

    #[test]
    fn scratch_pool_recycles_allocations() {
        let mut pool = ScratchPool::new();
        let mut w = pool.writer();
        w.write_bits(0xABCD, 16);
        let s = w.finish();
        assert_eq!(pool.fresh(), 1);
        assert_eq!(pool.reused(), 0);
        pool.recycle(s);
        // The next writer reuses the allocation and starts empty.
        let mut w = pool.writer();
        assert_eq!(pool.reused(), 1);
        assert_eq!(w.len_bits(), 0);
        w.write_gamma(9);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_gamma().unwrap(), 9);
        assert_eq!(r.remaining(), 0);
        // Zero-capacity strings are not worth pooling.
        pool.recycle(BitString::default());
        let _ = pool.writer();
        assert_eq!(pool.fresh(), 2);
    }

    #[test]
    fn scratch_pool_duplicates_from_recycled_buffers() {
        let mut pool = ScratchPool::new();
        let mut w = pool.writer();
        w.write_bits(0x1234, 16);
        let original = w.finish();
        // No free buffer yet: duplicate falls back to a fresh clone.
        let copy = pool.duplicate(&original);
        assert_eq!(copy, original);
        assert_eq!(pool.fresh(), 2);
        pool.recycle(copy);
        // Now the copy's allocation backs the next duplicate.
        let copy2 = pool.duplicate(&original);
        assert_eq!(copy2, original);
        assert_eq!(pool.reused(), 1);
    }

    #[test]
    fn varint_lengths_match_formula() {
        assert_eq!(varint_len(0), 8);
        assert_eq!(varint_len(127), 8);
        assert_eq!(varint_len(128), 16);
        assert_eq!(varint_len(16383), 16);
        assert_eq!(varint_len(16384), 24);
        assert_eq!(varint_len(u64::MAX), 80);
    }

    #[test]
    fn varint_roundtrip_edges() {
        let vals = [0u64, 1, 127, 128, 300, 16384, u64::MAX - 1, u64::MAX];
        let mut w = BitWriter::new();
        for &v in &vals {
            w.write_varint(v);
        }
        let s = w.finish();
        assert_eq!(
            s.len_bits(),
            vals.iter().map(|&v| varint_len(v)).sum::<u64>()
        );
        let mut r = BitReader::new(&s);
        for &v in &vals {
            assert_eq!(r.read_varint().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_rejects_overlong_sequences() {
        // Eleven continuation groups can never describe a u64.
        let mut w = BitWriter::new();
        for _ in 0..10 {
            w.write_bits(0xFF, 8);
        }
        w.write_bits(0x01, 8);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert!(r.read_varint().is_err());
    }

    #[test]
    fn sorted_deltas_prefer_gap_arm_for_clustered_runs() {
        let vals: Vec<u64> = (0..64).map(|i| 1000 + 3 * i).collect();
        let mut w = BitWriter::new();
        w.write_sorted_deltas(&vals);
        let s = w.finish();
        assert_eq!(s.len_bits(), sorted_run_len(vals.iter().copied()));
        // Small gaps gamma-code far below the 11-bit fixed width.
        assert!(s.len_bits() < 6 + vals.len() as u64 * 11);
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_sorted_deltas(1 << 20).unwrap(), vals);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sorted_deltas_fixed_arm_handles_u64_max() {
        // A run containing u64::MAX disqualifies both gap arms (term+1
        // overflows); the fixed arm must carry it exactly.
        let vals = vec![5u64, u64::MAX - 1, u64::MAX];
        let mut w = BitWriter::new();
        w.write_sorted_deltas(&vals);
        let s = w.finish();
        assert_eq!(s.len_bits(), sorted_run_len(vals.iter().copied()));
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_sorted_deltas(8).unwrap(), vals);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sorted_deltas_empty_run() {
        let mut w = BitWriter::new();
        w.write_sorted_deltas(&[]);
        let s = w.finish();
        assert_eq!(s.len_bits(), sorted_run_len([0u64; 0]));
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_sorted_deltas(0).unwrap(), Vec::<u64>::new());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sorted_deltas_rejects_oversized_length() {
        let mut w = BitWriter::new();
        w.write_sorted_deltas(&[1, 2, 3]);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert!(r.read_sorted_deltas(2).is_err());
    }

    #[test]
    fn sorted_deltas_rejects_unsorted_fixed_run() {
        // Hand-build a fixed-arm run whose values decrease.
        let mut w = BitWriter::new();
        w.write_gamma(3); // len 2
        w.write_bits(2, 2); // fixed arm
        w.write_bits(7, 6); // width 8
        w.write_bits(9, 8);
        w.write_bits(4, 8);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert!(r.read_sorted_deltas(16).is_err());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn sorted_deltas_unsorted_input_panics() {
        let mut w = BitWriter::new();
        w.write_sorted_deltas(&[3, 1]);
    }

    #[test]
    fn read_bitstring_extracts_exact_range() {
        let mut w = BitWriter::new();
        w.write_bits(0b110, 3);
        w.write_bits(0xDEADBEEFCAFE, 48);
        w.write_gamma(77);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(3).unwrap(), 0b110);
        let mid = r.read_bitstring(48).unwrap();
        assert_eq!(mid.len_bits(), 48);
        assert_eq!(r.read_gamma().unwrap(), 77);
        assert_eq!(r.remaining(), 0);
        // The extracted range re-emits verbatim.
        let mut w2 = BitWriter::new();
        w2.write_bitstring(&mid);
        let s2 = w2.finish();
        let mut r2 = BitReader::new(&s2);
        assert_eq!(r2.read_bits(48).unwrap(), 0xDEADBEEFCAFE);
        // Asking for more bits than remain fails.
        let mut r3 = BitReader::new(&s);
        assert!(r3.read_bitstring(s.len_bits() + 1).is_err());
    }

    #[test]
    fn rewind_recaptures_parsed_range() {
        let mut w = BitWriter::new();
        w.write_bits(0b01, 2);
        w.write_gamma(300);
        w.write_bits(0b111, 3);
        let s = w.finish();
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(2).unwrap(), 0b01);
        let before = r.remaining();
        assert_eq!(r.read_gamma().unwrap(), 300);
        let consumed = before - r.remaining();
        r.rewind(consumed).unwrap();
        let raw = r.read_bitstring(consumed).unwrap();
        assert_eq!(raw.len_bits(), gamma_len(300));
        let mut rr = BitReader::new(&raw);
        assert_eq!(rr.read_gamma().unwrap(), 300);
        assert_eq!(r.read_bits(3).unwrap(), 0b111);
        assert_eq!(r.remaining(), 0);
        // Rewinding past the start fails and leaves the cursor alone.
        let mut r2 = BitReader::new(&s);
        r2.read_bits(4).unwrap();
        assert!(r2.rewind(5).is_err());
        assert_eq!(r2.remaining(), s.len_bits() - 4);
    }

    #[test]
    fn write_bitstring_concatenates() {
        let mut inner = BitWriter::new();
        inner.write_bits(0b101, 3);
        let inner = inner.finish();
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        w.write_bitstring(&inner);
        let s = w.finish();
        assert_eq!(s.len_bits(), 5);
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
    }

    proptest! {
        #[test]
        fn prop_fixed_roundtrip(v: u64, width in 1u32..=64) {
            let v = if width == 64 { v } else { v & ((1u64 << width) - 1) };
            let mut w = BitWriter::new();
            w.write_bits(v, width);
            let s = w.finish();
            prop_assert_eq!(s.len_bits(), width as u64);
            let mut r = BitReader::new(&s);
            prop_assert_eq!(r.read_bits(width).unwrap(), v);
        }

        #[test]
        fn prop_gamma_roundtrip(v in 1u64..=u64::MAX / 2) {
            let mut w = BitWriter::new();
            w.write_gamma(v);
            let s = w.finish();
            prop_assert_eq!(s.len_bits(), gamma_len(v));
            let mut r = BitReader::new(&s);
            prop_assert_eq!(r.read_gamma().unwrap(), v);
        }

        #[test]
        fn prop_delta_roundtrip(v in 1u64..u64::MAX) {
            let mut w = BitWriter::new();
            w.write_delta(v);
            let s = w.finish();
            prop_assert_eq!(s.len_bits(), delta_len(v));
            let mut r = BitReader::new(&s);
            prop_assert_eq!(r.read_delta().unwrap(), v);
        }

        #[test]
        fn prop_mixed_sequence_roundtrip(vals in proptest::collection::vec((1u64..1_000_000, 0u8..3), 0..40)) {
            let mut w = BitWriter::new();
            for (v, kind) in &vals {
                match kind {
                    0 => w.write_bits(*v, 20),
                    1 => w.write_gamma(*v),
                    _ => w.write_delta(*v),
                }
            }
            let s = w.finish();
            let mut r = BitReader::new(&s);
            for (v, kind) in &vals {
                let got = match kind {
                    0 => r.read_bits(20).unwrap(),
                    1 => r.read_gamma().unwrap(),
                    _ => r.read_delta().unwrap(),
                };
                prop_assert_eq!(got, *v);
            }
            prop_assert_eq!(r.remaining(), 0);
        }

        #[test]
        fn prop_delta_shorter_than_gamma_for_large(v in 1u64 << 32..u64::MAX) {
            prop_assert!(delta_len(v) < gamma_len(v));
        }

        #[test]
        fn prop_varint_roundtrip(v: u64) {
            let mut w = BitWriter::new();
            w.write_varint(v);
            let s = w.finish();
            prop_assert_eq!(s.len_bits(), varint_len(v));
            let mut r = BitReader::new(&s);
            prop_assert_eq!(r.read_varint().unwrap(), v);
            prop_assert_eq!(r.remaining(), 0);
        }

        #[test]
        fn prop_sorted_deltas_roundtrip(mut vals in proptest::collection::vec(any::<u64>(), 0..60)) {
            vals.sort_unstable();
            let mut w = BitWriter::new();
            w.write_sorted_deltas(&vals);
            let s = w.finish();
            prop_assert_eq!(s.len_bits(), sorted_run_len(vals.iter().copied()));
            let mut r = BitReader::new(&s);
            prop_assert_eq!(r.read_sorted_deltas(vals.len() as u64).unwrap(), vals);
            prop_assert_eq!(r.remaining(), 0);
        }

        #[test]
        fn prop_sorted_deltas_never_beaten_badly_by_fixed(mut vals in proptest::collection::vec(any::<u64>(), 1..60)) {
            vals.sort_unstable();
            // The selector can never pay more than the fixed arm.
            let width = width_for_max(*vals.last().unwrap()) as u64;
            let fixed_payload = 6 + vals.len() as u64 * width;
            let header = gamma_len(vals.len() as u64 + 1);
            prop_assert!(sorted_run_len(vals.iter().copied()) <= header + 2 + fixed_payload);
        }

        #[test]
        fn prop_read_bitstring_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..200), split in 0usize..200) {
            let mut w = BitWriter::new();
            for &b in &bits {
                w.write_bits(b as u64, 1);
            }
            let s = w.finish();
            let split = (split as u64).min(s.len_bits());
            let mut r = BitReader::new(&s);
            let head = r.read_bitstring(split).unwrap();
            let tail = r.read_bitstring(s.len_bits() - split).unwrap();
            let mut w2 = BitWriter::new();
            w2.write_bitstring(&head);
            w2.write_bitstring(&tail);
            prop_assert_eq!(w2.finish(), s);
        }
    }

    /// The bit-at-a-time codec the word-level one replaced, kept as the
    /// oracle it must match bit for bit: every code is spelled out one
    /// bit per step, so its layout is right by inspection.
    mod reference {
        use super::*;

        #[derive(Default)]
        pub struct Writer {
            words: Vec<u64>,
            len: u64,
        }

        /// Stream bit `i` of `s`: bit `63 - i % 64` of word `i / 64`.
        pub fn bit_at(s: &BitString, i: u64) -> bool {
            (s.words[(i / 64) as usize] >> (63 - i % 64)) & 1 == 1
        }

        impl Writer {
            fn bit(&mut self, b: bool) {
                if self.len.is_multiple_of(64) {
                    self.words.push(0);
                }
                if b {
                    *self.words.last_mut().unwrap() |= 1 << (63 - self.len % 64);
                }
                self.len += 1;
            }

            pub fn bits(&mut self, v: u64, width: u32) {
                for k in (0..width).rev() {
                    self.bit((v >> k) & 1 == 1);
                }
            }

            pub fn unary(&mut self, n: u32) {
                for _ in 0..n {
                    self.bit(false);
                }
                self.bit(true);
            }

            pub fn gamma(&mut self, v: u64) {
                let n = bit_width(v) - 1;
                self.unary(n);
                self.bits(v, n); // the n bits below the leading one
            }

            pub fn delta(&mut self, v: u64) {
                let n = bit_width(v);
                self.gamma(n as u64);
                self.bits(v, n - 1);
            }

            pub fn varint(&mut self, mut v: u64) {
                loop {
                    let group = v & 0x7F;
                    v >>= 7;
                    self.bits(((v != 0) as u64) << 7 | group, 8);
                    if v == 0 {
                        return;
                    }
                }
            }

            pub fn sorted(&mut self, vals: &[u64]) {
                self.gamma(vals.len() as u64 + 1);
                if vals.is_empty() {
                    return;
                }
                // Per-arm costs, each gap arm void when a term + 1
                // overflows.
                let terms: Vec<u64> = (0..vals.len())
                    .map(|i| {
                        if i == 0 {
                            vals[0]
                        } else {
                            vals[i] - vals[i - 1]
                        }
                    })
                    .collect();
                let gap = |len: fn(u64) -> u64| -> Option<u64> {
                    terms.iter().map(|t| t.checked_add(1).map(len)).sum()
                };
                let width = bit_width(*vals.last().unwrap());
                let mut arm = (2u64, 6 + vals.len() as u64 * width as u64);
                if let Some(d) = gap(delta_len) {
                    if d < arm.1 {
                        arm = (1, d);
                    }
                }
                if let Some(g) = gap(gamma_len) {
                    if g <= arm.1 {
                        arm = (0, g);
                    }
                }
                self.bits(arm.0, 2);
                match arm.0 {
                    0 => terms.iter().for_each(|t| self.gamma(t + 1)),
                    1 => terms.iter().for_each(|t| self.delta(t + 1)),
                    _ => {
                        self.bits(width as u64 - 1, 6);
                        vals.iter().for_each(|&v| self.bits(v, width));
                    }
                }
            }

            pub fn bitstring(&mut self, s: &BitString) {
                for i in 0..s.len_bits {
                    self.bit(bit_at(s, i));
                }
            }

            pub fn finish(self) -> BitString {
                BitString {
                    words: self.words,
                    len_bits: self.len,
                }
            }
        }

        pub struct Reader<'a> {
            src: &'a BitString,
            pub pos: u64,
        }

        type Res<T> = Result<T, NetsimError>;
        const END: NetsimError = NetsimError::WireDecode("end");
        const BAD: NetsimError = NetsimError::WireDecode("malformed");

        impl<'a> Reader<'a> {
            pub fn new(src: &'a BitString) -> Self {
                Reader { src, pos: 0 }
            }

            fn bit(&mut self) -> Res<bool> {
                if self.pos >= self.src.len_bits {
                    return Err(END);
                }
                let b = bit_at(self.src, self.pos);
                self.pos += 1;
                Ok(b)
            }

            pub fn bits(&mut self, width: u32) -> Res<u64> {
                if self.pos + width as u64 > self.src.len_bits {
                    return Err(END);
                }
                let mut v = 0u64;
                for _ in 0..width {
                    v = (v << 1) | self.bit()? as u64;
                }
                Ok(v)
            }

            pub fn unary(&mut self) -> Res<u32> {
                let mut n = 0u32;
                while !self.bit()? {
                    n += 1;
                    if n > 64 * 1024 {
                        return Err(BAD);
                    }
                }
                Ok(n)
            }

            pub fn gamma(&mut self) -> Res<u64> {
                let n = self.unary()?;
                if n >= 64 {
                    return Err(BAD);
                }
                Ok((1u64 << n) | self.bits(n)?)
            }

            pub fn delta(&mut self) -> Res<u64> {
                let n = self.gamma()?;
                if n > 64 {
                    return Err(BAD);
                }
                Ok((1u64 << (n - 1)) | self.bits(n as u32 - 1)?)
            }

            pub fn varint(&mut self) -> Res<u64> {
                let (mut v, mut shift) = (0u64, 0u32);
                loop {
                    let byte = self.bits(8)?;
                    let group = byte & 0x7F;
                    if shift >= 64 || (shift == 63 && group > 1) {
                        return Err(BAD);
                    }
                    v |= group << shift;
                    if byte & 0x80 == 0 {
                        return Ok(v);
                    }
                    shift += 7;
                }
            }

            pub fn sorted(&mut self, max_len: u64) -> Res<Vec<u64>> {
                let len = self.gamma()? - 1;
                if len > max_len {
                    return Err(BAD);
                }
                if len == 0 {
                    return Ok(Vec::new());
                }
                let arm = self.bits(2)?;
                let width = match arm {
                    0 | 1 => 0,
                    2 => self.bits(6)? as u32 + 1,
                    _ => return Err(BAD),
                };
                let mut vals: Vec<u64> = Vec::new();
                for _ in 0..len {
                    let v = match arm {
                        0 | 1 => {
                            let t = if arm == 0 {
                                self.gamma()?
                            } else {
                                self.delta()?
                            } - 1;
                            match vals.last() {
                                None => t,
                                Some(p) => p.checked_add(t).ok_or(BAD)?,
                            }
                        }
                        _ => {
                            let v = self.bits(width)?;
                            if vals.last().is_some_and(|&p| v < p) {
                                return Err(BAD);
                            }
                            v
                        }
                    };
                    vals.push(v);
                }
                Ok(vals)
            }

            pub fn bitstring(&mut self, len: u64) -> Res<BitString> {
                if self.pos + len > self.src.len_bits {
                    return Err(END);
                }
                let mut w = Writer::default();
                for _ in 0..len {
                    let b = self.bit()?;
                    w.bit(b);
                }
                Ok(w.finish())
            }
        }
    }

    /// One codec operation of the oracle suite.
    #[derive(Debug, Clone)]
    enum Op {
        Bits(u64, u32),
        Unary(u32),
        Gamma(u64),
        Delta(u64),
        Varint(u64),
        Sorted(Vec<u64>),
        Str(BitString),
    }

    /// A value of unknown magnitude: small, arbitrary, or near `u64::MAX`
    /// (where gamma needs more than 64 bits).
    fn magnitude(sel: u64, a: u64) -> u64 {
        match sel % 3 {
            0 => a % 1000 + 1,
            1 => a.max(1),
            _ => u64::MAX - a % 16,
        }
    }

    /// A non-decreasing run shaped for one arm: small gaps (gamma), a
    /// large base with mid-size gaps (delta), or arbitrary values ending
    /// in `u64::MAX` (fixed width, both gap arms void).
    fn sorted_run(shape: u64, base: u64, raw: &[u64]) -> Vec<u64> {
        let mut acc = match shape % 3 {
            0 => base % 100,
            1 => (1 << 60) | (base % (1 << 59)),
            _ => {
                let mut vals = raw.to_vec();
                vals.push(u64::MAX);
                vals.sort_unstable();
                return vals;
            }
        };
        raw.iter()
            .map(|&x| {
                acc += if shape.is_multiple_of(3) {
                    x % 4
                } else {
                    x % (1 << 24)
                };
                acc
            })
            .collect()
    }

    fn bit_string(len: u64, words: &[u64]) -> BitString {
        let mut w = reference::Writer::default();
        for i in 0..len {
            let word = words.get((i / 64) as usize).copied().unwrap_or(0x5A5A);
            w.bits((word >> (i % 64)) & 1, 1);
        }
        w.finish()
    }

    fn op(kind: u8, a: u64, b: u64, c: &[u64]) -> Op {
        match kind % 7 {
            0 => {
                let width = (b % 65) as u32;
                let v = if width == 64 {
                    a
                } else {
                    a & ((1u64 << width) - 1)
                };
                Op::Bits(v, width)
            }
            1 => Op::Unary((a % 200) as u32),
            2 => Op::Gamma(magnitude(b, a)),
            3 => Op::Delta(magnitude(b, a)),
            4 => Op::Varint(a >> (b % 64)),
            5 => Op::Sorted(sorted_run(b, a, c)),
            _ => Op::Str(bit_string(b % 140, c)),
        }
    }

    fn write_both(ops: &[Op]) -> (BitString, BitString) {
        let (mut w, mut o) = (BitWriter::new(), reference::Writer::default());
        for op in ops {
            match op {
                Op::Bits(v, width) => {
                    w.write_bits(*v, *width);
                    o.bits(*v, *width);
                }
                Op::Unary(n) => {
                    w.write_unary(*n);
                    o.unary(*n);
                }
                Op::Gamma(v) => {
                    w.write_gamma(*v);
                    o.gamma(*v);
                }
                Op::Delta(v) => {
                    w.write_delta(*v);
                    o.delta(*v);
                }
                Op::Varint(v) => {
                    w.write_varint(*v);
                    o.varint(*v);
                }
                Op::Sorted(vals) => {
                    w.write_sorted_deltas(vals);
                    o.sorted(vals);
                }
                Op::Str(s) => {
                    w.write_bitstring(s);
                    o.bitstring(s);
                }
            }
        }
        (w.finish(), o.finish())
    }

    /// Reads `ops` back from `s` with both readers, in step: equal
    /// values and cursors while both succeed, and the first `Err` at the
    /// same operation.
    fn read_both(ops: &[Op], s: &BitString) {
        let (mut r, mut o) = (BitReader::new(s), reference::Reader::new(s));
        for op in ops {
            let (got, want) = match op {
                Op::Bits(_, width) => (
                    r.read_bits(*width).map(|v| vec![v]),
                    o.bits(*width).map(|v| vec![v]),
                ),
                Op::Unary(_) => (
                    r.read_unary().map(|v| vec![v as u64]),
                    o.unary().map(|v| vec![v as u64]),
                ),
                Op::Gamma(_) => (r.read_gamma().map(|v| vec![v]), o.gamma().map(|v| vec![v])),
                Op::Delta(_) => (r.read_delta().map(|v| vec![v]), o.delta().map(|v| vec![v])),
                Op::Varint(_) => (
                    r.read_varint().map(|v| vec![v]),
                    o.varint().map(|v| vec![v]),
                ),
                Op::Sorted(vals) => {
                    let max = vals.len() as u64;
                    (r.read_sorted_deltas(max), o.sorted(max))
                }
                Op::Str(t) => {
                    // The length, then every word.
                    let as_words =
                        |b: BitString| std::iter::once(b.len_bits).chain(b.words).collect();
                    (
                        r.read_bitstring(t.len_bits).map(as_words),
                        o.bitstring(t.len_bits).map(as_words),
                    )
                }
            };
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(g, w, "{op:?}");
                    assert_eq!(s.len_bits - r.remaining(), o.pos, "cursor after {op:?}");
                }
                (Err(_), Err(_)) => return,
                (g, w) => panic!(
                    "{op:?} on {} bits: word-level {g:?}, reference {w:?}",
                    s.len_bits
                ),
            }
        }
    }

    fn prefix(s: &BitString, len: u64) -> BitString {
        reference::Reader::new(s).bitstring(len).unwrap()
    }

    #[test]
    fn sorted_run_shapes_cover_every_arm() {
        let raw: Vec<u64> = (0..12u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for shape in 0..3u64 {
            let run = sorted_run(shape, 12_345, &raw);
            assert_eq!(scan_sorted(run.iter().copied()).arm, shape, "shape {shape}");
        }
    }

    #[test]
    fn write_bitstring_matches_reference_at_every_offset() {
        let payload = bit_string(131, &[0xDEAD_BEEF_0123_4567, 0x89AB_CDEF_FEDC_BA98, 0x7]);
        for offset in 0..16u32 {
            let ops = [
                Op::Bits(0b1011 & ((1 << offset.min(4)) - 1), offset.min(4)),
                Op::Bits(0, offset - offset.min(4)),
                Op::Str(payload.clone()),
            ];
            let (got, want) = write_both(&ops);
            assert_eq!(got, want, "offset {offset}");
            for len in 0..=got.len_bits() {
                read_both(&ops, &prefix(&got, len));
            }
        }
    }

    #[test]
    fn unary_limit_matches_reference() {
        for zeros in [64 * 1024 - 1, 64 * 1024, 64 * 1024 + 1, 64 * 1024 + 70] {
            let mut w = BitWriter::new();
            for _ in 0..zeros / 64 {
                w.write_bits(0, 64);
            }
            w.write_bits(1, zeros % 64 + 1);
            let s = w.finish();
            for len in [s.len_bits(), s.len_bits() - 1] {
                let t = prefix(&s, len);
                let got = BitReader::new(&t).read_unary();
                let want = reference::Reader::new(&t).unary();
                assert_eq!(got.ok(), want.ok(), "{zeros} zeros, {len} bits");
            }
            let (got, want) = write_both(&[Op::Unary(zeros)]);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn long_gamma_and_delta_prefixes_match_reference() {
        // A gamma prefix of 64 or more zeros is no u64, and a delta
        // length above 64 none either; both must fail where the
        // reference fails, with the payload present or cut short.
        for zeros in [31u32, 32, 62, 63, 64, 65, 200] {
            let mut w = reference::Writer::default();
            w.unary(zeros);
            w.bits(u64::MAX, 64);
            w.bits(u64::MAX, 64);
            w.bits(0x5, 3);
            let s = w.finish();
            for len in 0..=s.len_bits() {
                let t = prefix(&s, len);
                read_both(&[Op::Gamma(1)], &t);
                read_both(&[Op::Delta(1)], &t);
            }
        }
    }

    #[test]
    fn unsorted_fixed_run_is_an_error_in_both() {
        let mut w = reference::Writer::default();
        w.gamma(4); // len 3
        w.bits(2, 2); // fixed arm
        w.bits(7, 6); // width 8
        for v in [3, 9, 4] {
            w.bits(v, 8);
        }
        let s = w.finish();
        assert!(BitReader::new(&s).read_sorted_deltas(8).is_err());
        assert!(reference::Reader::new(&s).sorted(8).is_err());
        read_both(&[Op::Sorted(vec![0, 0, 0])], &s);
    }

    /// The 3-word source of the word-boundary tests. [`bit_string`]
    /// takes each word's bits from the least significant up, so the
    /// stream's first bit of word 1 is 1 and of word 2 is 0: a read
    /// that ends just past either boundary sees both values there.
    const THREE_WORDS: [u64; 3] = [
        0xDEAD_BEEF_0123_4567,
        0x89AB_CDEF_FEDC_BA99,
        0x0F1E_2D3C_4B5A_6978,
    ];

    /// Every width at every start bit of a 3-word string, each read
    /// with the field ending exactly at the end of the string, one bit
    /// short of it, and inside the whole string: the one-word and
    /// two-word loads, the zero tail and the end-of-string error.
    #[test]
    fn fixed_width_reads_match_reference_across_word_boundaries() {
        let full = bit_string(192, &THREE_WORDS);
        for start in 0..=130u64 {
            for width in 1..=64u32 {
                let end = start + width as u64;
                for len in [end - 1, end, 192] {
                    let s = prefix(&full, len.min(192));
                    let mut r = BitReader {
                        src: &s,
                        pos: start,
                    };
                    let mut o = reference::Reader::new(&s);
                    o.pos = start;
                    let (got, want) = (r.read_bits(width), o.bits(width));
                    assert_eq!(
                        got.is_ok(),
                        want.is_ok(),
                        "{width} bits at {start} of {len}"
                    );
                    if let (Ok(g), Ok(w)) = (got, want) {
                        assert_eq!(g, w, "{width} bits at {start} of {len}");
                        assert_eq!(r.pos, o.pos, "cursor after {width} bits at {start}");
                    }
                }
            }
        }
    }

    /// Unary, gamma, delta and varint codes starting at bits 56..=72,
    /// so each straddles the first word boundary somewhere, read back
    /// from every truncation of the stream.
    #[test]
    fn variable_codes_match_reference_across_word_boundaries() {
        let mut codes: Vec<Op> = [0u32, 1, 7, 8, 9, 63, 64, 65, 130]
            .into_iter()
            .map(Op::Unary)
            .collect();
        for v in [
            1u64,
            2,
            3,
            255,
            256,
            1 << 31,
            (1 << 32) + 5,
            u64::MAX / 2,
            u64::MAX,
        ] {
            codes.push(Op::Gamma(v));
            codes.push(Op::Delta(v));
        }
        for v in [0u64, 127, 128, 16_384, 1 << 56, u64::MAX] {
            codes.push(Op::Varint(v));
        }
        // The top `width` bits of `pattern`, as a filler field.
        let filler = |pattern: u64, width: u32| {
            Op::Bits(pattern.checked_shr(64 - width).unwrap_or(0), width)
        };
        for start in 56..=72u32 {
            for code in &codes {
                let ops = [
                    filler(0x5A5A_5A5A_5A5A_5A5A, start.min(64)),
                    filler(0xB4B4_B4B4_B4B4_B4B4, start.saturating_sub(64)),
                    code.clone(),
                    Op::Bits(0b101, 3),
                ];
                let (got, want) = write_both(&ops);
                assert_eq!(got, want, "{code:?} at {start}");
                for len in start as u64..=got.len_bits() {
                    read_both(&ops, &prefix(&got, len));
                }
            }
        }
    }

    /// `words.len() == len_bits.div_ceil(64)` and every bit past
    /// `len_bits` zero — what `==`, `Hash` and the partial cache's key
    /// lookup rely on.
    fn assert_layout(s: &BitString) {
        assert_eq!(s.words.len() as u64, s.len_bits.div_ceil(64), "{s:?}");
        let rest = s.len_bits % 64;
        if rest > 0 {
            assert_eq!(s.words.last().unwrap() << rest, 0, "tail bits set: {s:?}");
        }
    }

    fn hash_of(s: &BitString) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::hash::DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    /// `a` and `b` hold the same bits: both laid out, equal and hashing
    /// equal.
    fn assert_same(a: &BitString, b: &BitString) {
        assert_layout(a);
        assert_layout(b);
        assert_eq!(a, b);
        assert_eq!(hash_of(a), hash_of(b));
    }

    #[test]
    fn every_path_to_a_string_keeps_the_layout() {
        let ones = bit_string(192, &[u64::MAX; 3]);
        let src = bit_string(192, &THREE_WORDS);
        let mut pool = ScratchPool::new();
        for off in 0..=192u64 {
            for len in 0..=192 - off {
                let mut o = reference::Reader::new(&src);
                o.pos = off;
                let want = o.bitstring(len).unwrap();
                // `read_bitstring` at every offset and length.
                let got = BitReader {
                    src: &src,
                    pos: off,
                }
                .read_bitstring(len)
                .unwrap();
                assert_same(&got, &want);
                if off > 0 {
                    continue;
                }
                // `finish`, and a pooled writer and `duplicate` whose
                // recycled buffers last held a longer, all-ones frame.
                let mut fresh = BitWriter::new();
                fresh.write_bitstring(&want);
                assert_same(&fresh.finish(), &want);
                pool.recycle(ones.clone());
                let mut pooled = pool.writer();
                pooled.write_bitstring(&want);
                assert_same(&pooled.finish(), &want);
                pool.recycle(ones.clone());
                assert_same(&pool.duplicate(&want), &want);
            }
        }
        assert_eq!(pool.fresh(), 0, "every pooled path reused a longer buffer");
    }

    fn codec_matches_reference(ops: &[(u8, u64, u64, Vec<u64>)]) {
        let ops: Vec<Op> = ops.iter().map(|(k, a, b, c)| op(*k, *a, *b, c)).collect();
        let (got, want) = write_both(&ops);
        assert_eq!(got, want);
        for len in 0..=got.len_bits() {
            read_both(&ops, &prefix(&got, len));
        }
    }

    fn garbage_decodes_like_reference(words: &[u64], len: u64, kinds: &[u8]) {
        // Sparse words give long zero runs (unary, gamma prefixes).
        let words: Vec<u64> = words
            .iter()
            .map(|w| w & w.rotate_left(17) & w.rotate_left(31))
            .collect();
        let s = bit_string(len, &words);
        let ops: Vec<Op> = kinds.iter().map(|&k| op(k, 5, 77, &[1, 2, 3])).collect();
        read_both(&ops, &s);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_codec_matches_bit_at_a_time_reference(
            ops in proptest::collection::vec(
                (any::<u8>(), any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u64>(), 0..9)),
                0..8,
            ),
        ) {
            codec_matches_reference(&ops);
        }

        #[test]
        fn prop_garbage_decodes_like_reference(
            words in proptest::collection::vec(any::<u64>(), 0..6),
            len in 0u64..384,
            kinds in proptest::collection::vec(any::<u8>(), 1..6),
        ) {
            garbage_decodes_like_reference(&words, len, &kinds);
        }
    }

    // The same two properties at 16 384 cases each, for a release run
    // (`cargo test --release -p saq-netsim -- --ignored`).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16_384))]

        #[test]
        #[ignore = "16 384 cases: run in release with --ignored"]
        fn prop_codec_matches_bit_at_a_time_reference_16k(
            ops in proptest::collection::vec(
                (any::<u8>(), any::<u64>(), any::<u64>(), proptest::collection::vec(any::<u64>(), 0..9)),
                0..8,
            ),
        ) {
            codec_matches_reference(&ops);
        }

        #[test]
        #[ignore = "16 384 cases: run in release with --ignored"]
        fn prop_garbage_decodes_like_reference_16k(
            words in proptest::collection::vec(any::<u64>(), 0..6),
            len in 0u64..384,
            kinds in proptest::collection::vec(any::<u8>(), 1..6),
        ) {
            garbage_decodes_like_reference(&words, len, &kinds);
        }
    }
}
