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
//! All encoders write most-significant-bit first within each value; the
//! stream is packed LSB-first into bytes, which is an internal detail that
//! round-trips through [`BitReader`].

use crate::error::NetsimError;

/// Returns the number of bits needed to represent `v` (at least 1, so a
/// zero value still occupies one bit).
pub fn bit_width(v: u64) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

/// Returns the number of bits required to encode any value in `[0, max]`
/// with a fixed-width code.
pub fn width_for_max(max: u64) -> u32 {
    bit_width(max)
}

/// Length in bits of the Elias gamma code of `v` (requires `v ≥ 1`).
pub fn gamma_len(v: u64) -> u64 {
    debug_assert!(v >= 1);
    2 * (bit_width(v) as u64 - 1) + 1
}

/// Length in bits of the Elias delta code of `v` (requires `v ≥ 1`).
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

/// Per-arm payload costs for a delta-packed sorted run (excluding the
/// length header and the 2-bit arm selector): gamma-coded gaps,
/// delta-coded gaps, and the always-valid fixed-width fallback. A gap
/// arm is `None` when some `term + 1` would overflow `u64` (possible
/// when the run contains `u64::MAX`).
fn sorted_arm_costs(vals: &[u64]) -> (Option<u64>, Option<u64>, u64) {
    let mut gamma = Some(0u64);
    let mut delta = Some(0u64);
    let mut prev = 0u64;
    for (i, &v) in vals.iter().enumerate() {
        let term = if i == 0 { v } else { v - prev };
        match term.checked_add(1) {
            Some(t) => {
                gamma = gamma.map(|acc| acc + gamma_len(t));
                delta = delta.map(|acc| acc + delta_len(t));
            }
            None => {
                gamma = None;
                delta = None;
            }
        }
        prev = v;
    }
    let width = width_for_max(*vals.last().expect("non-empty run")) as u64;
    (gamma, delta, 6 + vals.len() as u64 * width)
}

/// The arm [`BitWriter::write_sorted_deltas`] selects for `vals`
/// (0 = gamma gaps, 1 = delta gaps, 2 = fixed-width) and its payload
/// cost in bits. Ties prefer the lower-numbered arm.
fn sorted_arm(vals: &[u64]) -> (u64, u64) {
    let (gamma, delta, fixed) = sorted_arm_costs(vals);
    let mut best = (2u64, fixed);
    if let Some(d) = delta {
        if d < best.1 {
            best = (1, d);
        }
    }
    if let Some(g) = gamma {
        if g <= best.1 {
            best = (0, g);
        }
    }
    best
}

/// Exact length in bits of [`BitWriter::write_sorted_deltas`] for `vals`
/// (which must be non-decreasing).
pub fn sorted_deltas_len(vals: &[u64]) -> u64 {
    let header = gamma_len(vals.len() as u64 + 1);
    if vals.is_empty() {
        return header;
    }
    header + 2 + sorted_arm(vals).1
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
    bytes: Vec<u8>,
    /// Total number of valid bits in the stream.
    len_bits: u64,
}

/// A finished bit string, cheap to clone and inspect. Hashable, so an
/// encoded request can key caches (e.g. the wave runner's subtree
/// partial cache) by its exact wire representation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    bytes: Vec<u8>,
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

    /// The packed backing bytes (last byte possibly partial).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the string, recovering its backing allocation for reuse
    /// (e.g. through [`ScratchPool::recycle`]).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// A pool of recycled encode buffers for hot frame-encoding paths.
///
/// The wave engines encode one frame per tree edge per wave; allocating
/// a fresh `Vec<u8>` for every frame dominates allocator traffic at
/// large N. A driver that both encodes and consumes its frames (the
/// flat convergecast runner in `saq-protocols`) can instead draw
/// writers from a pool and recycle each frame's allocation once it has
/// been decoded, reducing steady-state frame allocations to the pool's
/// high-water mark. The `reused`/`fresh` counters make the saving
/// observable; `tests/wave_allocs.rs` bounds what a whole wave
/// allocates on either runner.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Vec<Vec<u8>>,
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
                buf.extend_from_slice(&s.bytes);
                BitString {
                    bytes: buf,
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
        let bytes = s.into_bytes();
        if bytes.capacity() > 0 {
            self.free.push(bytes);
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
    /// [`BitString::into_bytes`] this lets hot encode paths recycle
    /// frame buffers instead of allocating one `Vec<u8>` per message —
    /// see [`ScratchPool`].
    pub fn with_scratch(mut scratch: Vec<u8>) -> Self {
        scratch.clear();
        BitWriter {
            bytes: scratch,
            len_bits: 0,
        }
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        let byte_idx = (self.len_bits / 8) as usize;
        let bit_idx = (self.len_bits % 8) as u32;
        if byte_idx == self.bytes.len() {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte_idx] |= 1 << bit_idx;
        }
        self.len_bits += 1;
    }

    /// Appends the low `width` bits of `v`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `v` does not fit in `width` bits.
    pub fn write_bits(&mut self, v: u64, width: u32) {
        assert!(width <= 64, "width {width} exceeds 64");
        assert!(
            width == 64 || v < (1u64 << width),
            "value {v} does not fit in {width} bits"
        );
        if width == 0 {
            return;
        }
        // Word-level fast path: sketch-vector messages are hundreds of
        // kilobits, so per-bit loops would dominate simulation time.
        // Stream layout is LSB-first within bytes while values are
        // MSB-first, so reverse the value's bits: bit (width-1-k) of `v`
        // lands at stream offset len+k.
        let r = v.reverse_bits() >> (64 - width);
        let byte_idx = (self.len_bits / 8) as usize;
        let off = (self.len_bits % 8) as u32;
        let needed = ((off + width) as usize).div_ceil(8);
        if self.bytes.len() < byte_idx + needed {
            self.bytes.resize(byte_idx + needed, 0);
        }
        let chunk = (r as u128) << off;
        for (i, slot) in self.bytes[byte_idx..byte_idx + needed]
            .iter_mut()
            .enumerate()
        {
            *slot |= (chunk >> (8 * i)) as u8;
        }
        self.len_bits += width as u64;
    }

    /// Appends `n` in unary: `n` zeros followed by a one.
    pub fn write_unary(&mut self, n: u32) {
        for _ in 0..n {
            self.write_bit(false);
        }
        self.write_bit(true);
    }

    /// Appends the Elias gamma code of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v == 0` (gamma codes positive integers only; shift by one
    /// at the call site to encode zero).
    pub fn write_gamma(&mut self, v: u64) {
        assert!(v >= 1, "gamma code requires v >= 1");
        let n = bit_width(v) - 1; // v in [2^n, 2^{n+1})
        self.write_unary(n);
        if n > 0 {
            // The remaining n bits below the leading one.
            self.write_bits(v & ((1u64 << n) - 1), n);
        }
    }

    /// Appends the Elias delta code of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v == 0`.
    pub fn write_delta(&mut self, v: u64) {
        assert!(v >= 1, "delta code requires v >= 1");
        let n = bit_width(v); // number of bits of v
        self.write_gamma(n as u64);
        if n > 1 {
            self.write_bits(v & ((1u64 << (n - 1)) - 1), n - 1);
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
        assert!(
            vals.windows(2).all(|w| w[0] <= w[1]),
            "sorted-delta input must be non-decreasing"
        );
        self.write_gamma(vals.len() as u64 + 1);
        if vals.is_empty() {
            return;
        }
        let (arm, _) = sorted_arm(vals);
        self.write_bits(arm, 2);
        match arm {
            0 | 1 => {
                let mut prev = 0u64;
                for (i, &v) in vals.iter().enumerate() {
                    let term = if i == 0 { v } else { v - prev };
                    if arm == 0 {
                        self.write_gamma(term + 1);
                    } else {
                        self.write_delta(term + 1);
                    }
                    prev = v;
                }
            }
            _ => {
                let width = width_for_max(*vals.last().expect("non-empty run"));
                self.write_bits(width as u64 - 1, 6);
                for &v in vals {
                    self.write_bits(v, width);
                }
            }
        }
    }

    /// Appends another bit string verbatim, one word-sized chunk at a
    /// time (this is the zero-copy forwarding path: pass-through slots
    /// are moved as raw bit ranges, never decoded).
    pub fn write_bitstring(&mut self, s: &BitString) {
        let mut r = BitReader::new(s);
        let mut left = s.len_bits();
        while left > 0 {
            let take = left.min(64) as u32;
            // Reading within len_bits cannot fail.
            let chunk = r.read_bits(take).expect("in-bounds chunk read");
            self.write_bits(chunk, take);
            left -= take as u64;
        }
    }

    /// Finalizes the stream.
    pub fn finish(self) -> BitString {
        BitString {
            bytes: self.bytes,
            len_bits: self.len_bits,
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

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] at end of stream.
    pub fn read_bit(&mut self) -> Result<bool, NetsimError> {
        if self.pos >= self.src.len_bits {
            return Err(NetsimError::WireDecode("read past end of bit stream"));
        }
        let byte_idx = (self.pos / 8) as usize;
        let bit_idx = (self.pos % 8) as u32;
        self.pos += 1;
        Ok((self.src.bytes[byte_idx] >> bit_idx) & 1 == 1)
    }

    /// Reads a fixed-width big-endian value.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] if fewer than `width` bits remain.
    pub fn read_bits(&mut self, width: u32) -> Result<u64, NetsimError> {
        assert!(width <= 64, "width {width} exceeds 64");
        if width == 0 {
            return Ok(0);
        }
        if self.pos + width as u64 > self.src.len_bits {
            return Err(NetsimError::WireDecode("read past end of bit stream"));
        }
        // Word-level inverse of `write_bits`: gather the covering bytes,
        // shift off the intra-byte offset, mask, and un-reverse.
        let byte_idx = (self.pos / 8) as usize;
        let off = (self.pos % 8) as u32;
        let needed = ((off + width) as usize).div_ceil(8);
        let mut chunk = 0u128;
        for (i, &b) in self.src.bytes[byte_idx..byte_idx + needed]
            .iter()
            .enumerate()
        {
            chunk |= (b as u128) << (8 * i);
        }
        chunk >>= off;
        let mask = if width == 64 {
            u64::MAX as u128
        } else {
            (1u128 << width) - 1
        };
        let r = (chunk & mask) as u64;
        self.pos += width as u64;
        Ok(r.reverse_bits() >> (64 - width))
    }

    /// Reads a unary code.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] if the stream ends before the
    /// terminating one-bit.
    pub fn read_unary(&mut self) -> Result<u32, NetsimError> {
        let mut n = 0u32;
        while !self.read_bit()? {
            n += 1;
            if n > 64 * 1024 {
                return Err(NetsimError::WireDecode("unary run too long"));
            }
        }
        Ok(n)
    }

    /// Reads an Elias gamma code.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on a truncated stream.
    pub fn read_gamma(&mut self) -> Result<u64, NetsimError> {
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
            let byte = self.read_bits(8)?;
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
        let len = self.read_gamma()? - 1;
        if len > max_len {
            return Err(NetsimError::WireDecode("sorted run length out of range"));
        }
        if len == 0 {
            return Ok(Vec::new());
        }
        let arm = self.read_bits(2)?;
        let mut vals = Vec::with_capacity(len as usize);
        match arm {
            0 | 1 => {
                let mut prev = 0u64;
                for i in 0..len {
                    let term = if arm == 0 {
                        self.read_gamma()?
                    } else {
                        self.read_delta()?
                    } - 1;
                    let v = if i == 0 {
                        term
                    } else {
                        prev.checked_add(term)
                            .ok_or(NetsimError::WireDecode("sorted run overflows u64"))?
                    };
                    vals.push(v);
                    prev = v;
                }
            }
            2 => {
                let width = self.read_bits(6)? as u32 + 1;
                let mut prev = 0u64;
                for i in 0..len {
                    let v = self.read_bits(width)?;
                    if i > 0 && v < prev {
                        return Err(NetsimError::WireDecode("sorted run not non-decreasing"));
                    }
                    vals.push(v);
                    prev = v;
                }
            }
            _ => return Err(NetsimError::WireDecode("sorted run arm invalid")),
        }
        Ok(vals)
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
        let mut w = BitWriter {
            bytes: Vec::with_capacity(len.div_ceil(8) as usize),
            len_bits: 0,
        };
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
        assert_eq!(s.len_bits(), sorted_deltas_len(&vals));
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
        assert_eq!(s.len_bits(), sorted_deltas_len(&vals));
        let mut r = BitReader::new(&s);
        assert_eq!(r.read_sorted_deltas(8).unwrap(), vals);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sorted_deltas_empty_run() {
        let mut w = BitWriter::new();
        w.write_sorted_deltas(&[]);
        let s = w.finish();
        assert_eq!(s.len_bits(), sorted_deltas_len(&[]));
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
            prop_assert_eq!(s.len_bits(), sorted_deltas_len(&vals));
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
            prop_assert!(sorted_deltas_len(&vals) <= header + 2 + fixed_payload);
        }

        #[test]
        fn prop_read_bitstring_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..200), split in 0usize..200) {
            let mut w = BitWriter::new();
            for &b in &bits {
                w.write_bit(b);
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
}
