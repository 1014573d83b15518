//! The bitmap filter: a 64-bit signature per record that bounds the overlap
//! of two records from their lengths alone, in a few instructions.
//!
//! Every token sets one of 64 bits. A token the two records share sets the
//! same bit in both, so a bit that differs between the two bitmaps was set
//! by at least one token of the symmetric difference `x Δ y`. Hence
//! `popcount(bx ⊕ by) ≤ |x Δ y| = |x| + |y| − 2·|x ∩ y|`, which gives the
//! exact upper bound [`overlap_bound`]. This is the bitmap filter of Sandes,
//! Teodoro & Melo (Information Systems, 2020); [`crate::PpjoinIndex`] runs
//! it when a probe first touches a stored record.
//!
//! Tokens colliding on a bit only loosen the bound, never break it. Sets of
//! more than ~64 tokens saturate the bitmap and the bound fades to the
//! length filter; there the suffix filter ([`crate::suffix`]) still prunes.

/// The bit a token of rank `rank` sets: the top six bits of a Fibonacci
/// hash. Not `rank % 64`: the ranks one reduce group sees can share their
/// low bits (`rank % groups` routes them), which would crowd a group's
/// tokens onto a few bits.
#[inline]
fn token_bit(rank: u32) -> u64 {
    1 << (u64::from(rank).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// The bitmap of a token set.
#[inline]
pub fn bitmap(tokens: &[u32]) -> u64 {
    tokens.iter().fold(0, |bits, &rank| bits | token_bit(rank))
}

/// Upper bound on `|x ∩ y|` for sets of `lx` and `ly` tokens with bitmaps
/// `bx` and `by`: `(lx + ly − popcount(bx ⊕ by)) / 2`. A pair needing an
/// overlap of α cannot join when this is below α.
#[inline]
pub fn overlap_bound(lx: usize, ly: usize, bx: u64, by: u64) -> usize {
    (lx + ly - (bx ^ by).count_ones() as usize) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intersection_size;

    #[test]
    fn identical_sets_are_bounded_by_their_size() {
        let x: Vec<u32> = (0..40).collect();
        assert_eq!(overlap_bound(x.len(), x.len(), bitmap(&x), bitmap(&x)), 40);
    }

    #[test]
    fn disjoint_sets_on_distinct_bits_have_bound_zero() {
        let (x, y) = ([1u32, 2, 3], [4u32, 5, 6]);
        let bits: Vec<u64> = x.iter().chain(&y).map(|&t| token_bit(t)).collect();
        assert_eq!(bits.iter().fold(0, |a, b| a | b).count_ones(), 6);
        assert_eq!(intersection_size(&x, &y), 0);
        assert_eq!(overlap_bound(3, 3, bitmap(&x), bitmap(&y)), 0);
    }

    #[test]
    fn ranks_sharing_their_low_bits_spread_over_the_bitmap() {
        // The ranks one of 64 routing groups receives.
        let ranks: Vec<u32> = (0..64).map(|i| i * 64 + 5).collect();
        assert!(bitmap(&ranks).count_ones() >= 32);
    }
}
