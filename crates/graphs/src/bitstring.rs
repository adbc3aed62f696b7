use std::cmp::Ordering;
use std::fmt;

use crate::GraphError;

/// A finite bit string over `{0,1}`, the alphabet used for node labels,
/// identifiers, and certificates throughout the paper.
///
/// `BitString` implements the paper's *identifier order* as its [`Ord`]
/// instance: `s < t` if either `s` is a proper prefix of `t`, or
/// `s(i) < t(i)` at the first position `i` where the two strings differ.
///
/// # Example
///
/// ```
/// use lph_graphs::BitString;
///
/// let a = BitString::from_bits01("01");
/// let b = BitString::from_bits01("010");
/// let c = BitString::from_bits01("1");
/// assert!(a < b); // proper prefix
/// assert!(b < c); // first differing bit
/// assert_eq!(a.to_string(), "01");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    bits: Vec<bool>,
}

impl BitString {
    /// Creates an empty bit string (`len() == 0`).
    pub fn new() -> Self {
        BitString { bits: Vec::new() }
    }

    /// Creates a bit string from a slice of booleans (`true` = 1).
    pub fn from_bools(bits: &[bool]) -> Self {
        BitString {
            bits: bits.to_vec(),
        }
    }

    /// Creates a bit string from a `str` of `'0'`/`'1'` characters.
    ///
    /// # Panics
    ///
    /// Panics if the string contains any other character. Use
    /// [`BitString::try_from_bits01`] for a fallible version.
    pub fn from_bits01(s: &str) -> Self {
        Self::try_from_bits01(s).expect("string must contain only '0' and '1'")
    }

    /// Fallible version of [`BitString::from_bits01`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSymbol`] if the string contains a
    /// character other than `'0'` or `'1'`.
    pub fn try_from_bits01(s: &str) -> Result<Self, GraphError> {
        let mut bits = Vec::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '0' => bits.push(false),
                '1' => bits.push(true),
                other => return Err(GraphError::InvalidSymbol { found: other }),
            }
        }
        Ok(BitString { bits })
    }

    /// Encodes a nonnegative integer in binary, most significant bit first,
    /// using exactly `width` bits.
    ///
    /// This is the encoding used for the *small* identifier assignments of
    /// Remark 1 and for the cyclic identifiers in Proposition 23.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit in `width` bits.
    pub fn from_usize(n: usize, width: usize) -> Self {
        assert!(
            width >= usize::BITS as usize - n.leading_zeros() as usize,
            "{n} does not fit in {width} bits"
        );
        let bits = (0..width).rev().map(|i| (n >> i) & 1 == 1).collect();
        BitString { bits }
    }

    /// Encodes arbitrary bytes as bits (8 bits per byte, MSB first).
    ///
    /// Used to stuff structured payloads (e.g. encoded Boolean formulas in
    /// `SAT-GRAPH` labels) into the paper's bit-string labels.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut bits = Vec::with_capacity(bytes.len() * 8);
        for &b in bytes {
            for i in (0..8).rev() {
                bits.push((b >> i) & 1 == 1);
            }
        }
        BitString { bits }
    }

    /// Decodes a bit string produced by [`BitString::from_bytes`] back into
    /// bytes. Returns `None` if the length is not a multiple of 8.
    pub fn to_bytes(&self) -> Option<Vec<u8>> {
        if !self.bits.len().is_multiple_of(8) {
            return None;
        }
        let mut out = Vec::with_capacity(self.bits.len() / 8);
        for chunk in self.bits.chunks(8) {
            let mut b = 0u8;
            for &bit in chunk {
                b = (b << 1) | u8::from(bit);
            }
            out.push(b);
        }
        Some(out)
    }

    /// The number of bits, written `len(s)` in the paper.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the string is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The `i`-th bit, **1-indexed** as in the paper (`s(i)`).
    ///
    /// Returns `None` if `i` is 0 or beyond the string length.
    pub fn bit(&self, i: usize) -> Option<bool> {
        if i == 0 {
            return None;
        }
        self.bits.get(i - 1).copied()
    }

    /// Iterates over the bits from the first position.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter().copied()
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Concatenates two bit strings.
    pub fn concat(&self, other: &BitString) -> BitString {
        let mut bits = self.bits.clone();
        bits.extend_from_slice(&other.bits);
        BitString { bits }
    }

    /// Interprets the bits as a binary number (MSB first). Saturates at
    /// `usize::MAX` for very long strings.
    pub fn to_usize(&self) -> usize {
        let mut n: usize = 0;
        for &b in &self.bits {
            n = n.saturating_mul(2).saturating_add(usize::from(b));
        }
        n
    }

    /// Whether `self` is a proper prefix of `other`.
    pub fn is_proper_prefix_of(&self, other: &BitString) -> bool {
        self.bits.len() < other.bits.len() && other.bits[..self.bits.len()] == self.bits[..]
    }
}

impl PartialOrd for BitString {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitString {
    /// The paper's identifier order: proper prefixes come first; otherwise
    /// the first differing bit decides. (This coincides with lexicographic
    /// order on bit sequences.)
    fn cmp(&self, other: &Self) -> Ordering {
        self.bits.cmp(&other.bits)
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits.is_empty() {
            return write!(f, "ε");
        }
        for &b in &self.bits {
            write!(f, "{}", u8::from(b))?;
        }
        Ok(())
    }
}

impl From<&str> for BitString {
    fn from(s: &str) -> Self {
        BitString::from_bits01(s)
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitString {
            bits: iter.into_iter().collect(),
        }
    }
}

impl Extend<bool> for BitString {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        self.bits.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifier_order_prefix_rule() {
        let a = BitString::from_bits01("01");
        let b = BitString::from_bits01("011");
        assert!(a < b);
        assert!(a.is_proper_prefix_of(&b));
        assert!(!b.is_proper_prefix_of(&a));
        assert!(!a.is_proper_prefix_of(&a));
    }

    #[test]
    fn identifier_order_first_difference_rule() {
        let a = BitString::from_bits01("0101");
        let b = BitString::from_bits01("011");
        // First difference at position 3: 0 < 1, so a < b despite a being longer.
        assert!(a < b);
    }

    #[test]
    fn empty_string_is_minimum() {
        let e = BitString::new();
        assert!(e < BitString::from_bits01("0"));
        assert!(e < BitString::from_bits01("1"));
        assert_eq!(e.to_string(), "ε");
    }

    #[test]
    fn one_indexed_bit_access_matches_paper() {
        let s = BitString::from_bits01("010011");
        assert_eq!(s.bit(1), Some(false));
        assert_eq!(s.bit(2), Some(true));
        assert_eq!(s.bit(6), Some(true));
        assert_eq!(s.bit(0), None);
        assert_eq!(s.bit(7), None);
    }

    #[test]
    fn from_usize_round_trips() {
        for n in 0..64 {
            let s = BitString::from_usize(n, 6);
            assert_eq!(s.len(), 6);
            assert_eq!(s.to_usize(), n);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_usize_rejects_overflow() {
        let _ = BitString::from_usize(8, 3);
    }

    #[test]
    fn byte_round_trip() {
        let payload = b"3sat(p1|~p2)";
        let s = BitString::from_bytes(payload);
        assert_eq!(s.len(), payload.len() * 8);
        assert_eq!(s.to_bytes().unwrap(), payload);
    }

    #[test]
    fn to_bytes_rejects_ragged_length() {
        let s = BitString::from_bits01("0101010");
        assert_eq!(s.to_bytes(), None);
    }

    #[test]
    fn try_from_rejects_bad_symbol() {
        let err = BitString::try_from_bits01("01a").unwrap_err();
        assert_eq!(err, GraphError::InvalidSymbol { found: 'a' });
    }

    #[test]
    fn concat_and_push() {
        let mut s = BitString::from_bits01("01");
        s.push(true);
        assert_eq!(s, BitString::from_bits01("011"));
        let t = s.concat(&BitString::from_bits01("00"));
        assert_eq!(t, BitString::from_bits01("01100"));
    }

    #[test]
    fn ordering_is_total_on_samples() {
        let mut v: Vec<BitString> = ["", "0", "1", "00", "01", "10", "11", "010"]
            .iter()
            .map(|s| BitString::from_bits01(s))
            .collect();
        v.sort();
        let shown: Vec<String> = v.iter().map(std::string::ToString::to_string).collect();
        assert_eq!(shown, vec!["ε", "0", "00", "01", "010", "1", "10", "11"]);
    }
}
