//! IEEE 754 binary16 ("half precision") codec.
//!
//! The paper stores PubMedBERT chunk embeddings as FP16 in FAISS (747 MB for
//! 173,318 chunks). Our vector store offers the same compressed layout; this
//! module provides the conversion, implemented from scratch (no `half`
//! dependency) with round-to-nearest-even semantics and full subnormal /
//! infinity / NaN handling.

use serde::{Deserialize, Serialize};

/// A half-precision float stored as its raw bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(transparent)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7c00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xfc00);
    /// A canonical quiet NaN.
    pub const NAN: F16 = F16(0x7e00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7bff);
    /// Smallest positive normal value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);

    /// Encode an `f32` with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let mantissa = bits & 0x007f_ffff;

        if exp == 0xff {
            // Inf or NaN. Preserve NaN-ness (set a mantissa bit).
            let m = if mantissa != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7c00 | m);
        }

        // Unbiased exponent.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow to infinity.
            return F16(sign | 0x7c00);
        }
        if unbiased >= -14 {
            // Normal range: 10-bit mantissa, round to nearest even.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let shifted = mantissa >> 13;
            let round_bits = mantissa & 0x1fff;
            let mut h = sign | half_exp | shifted as u16;
            // round up if above halfway, or exactly halfway and odd
            if round_bits > 0x1000 || (round_bits == 0x1000 && (shifted & 1) == 1) {
                h = h.wrapping_add(1); // may carry into exponent: correct behaviour
            }
            return F16(h);
        }
        if unbiased >= -25 {
            // Subnormal half: implicit leading 1 becomes explicit.
            let full = mantissa | 0x0080_0000;
            let shift = (-14 - unbiased + 13) as u32;
            let shifted = full >> shift;
            let rem = full & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut h = sign | shifted as u16;
            if rem > halfway || (rem == halfway && (shifted & 1) == 1) {
                h = h.wrapping_add(1);
            }
            return F16(h);
        }
        // Underflow to signed zero.
        F16(sign)
    }

    /// Decode to `f32` (exact: every binary16 value is representable).
    ///
    /// Branch-free, so a decode loop over a panel vectorises: the 15
    /// exponent + mantissa bits are shifted into `f32` position, where they
    /// read as the same value scaled by 2⁻¹¹² (the two formats' exponent
    /// biases differ by 127 − 15), and one multiply by 2¹¹² undoes the
    /// scale. The multiply is exact for every finite half — a subnormal
    /// half lands on a subnormal `f32` and the product normalises it — and
    /// only the all-ones exponent (±∞, NaN and its payload) needs its own
    /// arm, taken by a select rather than a branch.
    #[inline]
    pub fn to_f32(self) -> f32 {
        let bits = self.0 as u32;
        let sign = (bits & 0x8000) << 16;
        let magnitude = (bits & 0x7fff) << 13;
        let finite = f32::from_bits(magnitude) * f32::from_bits((127 + 112) << 23);
        let is_inf_or_nan = bits & 0x7c00 == 0x7c00;
        let magnitude = if is_inf_or_nan { magnitude | 0x7f80_0000 } else { finite.to_bits() };
        f32::from_bits(sign | magnitude)
    }

    /// True when the value encodes NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7c00) == 0x7c00 && (self.0 & 0x03ff) != 0
    }

    /// True for ±∞.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7fff) == 0x7c00
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

/// Encode a slice of `f32` into raw little-endian half-precision bytes.
pub fn encode_f16_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for &v in values {
        out.extend_from_slice(&F16::from_f32(v).0.to_le_bytes());
    }
    out
}

/// Decode raw little-endian half-precision bytes into `out`, one `f32`
/// per byte pair. This is **the** bulk F16 decode: the byte codec below
/// and every `EmbeddingMatrix` row, panel and whole-matrix read bottom out
/// here. Panics unless `bytes.len() == 2 * out.len()`.
pub fn decode_f16_into(bytes: &[u8], out: &mut [f32]) {
    let (pairs, odd) = bytes.as_chunks::<2>();
    assert!(odd.is_empty() && pairs.len() == out.len(), "one byte pair per decoded f32");
    for (dst, &pair) in out.iter_mut().zip(pairs) {
        *dst = F16(u16::from_le_bytes(pair)).to_f32();
    }
}

/// Decode raw little-endian half-precision bytes into `f32`s.
///
/// Returns `None` when the byte length is odd.
pub fn decode_f16_bytes(bytes: &[u8]) -> Option<Vec<f32>> {
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    let mut out = vec![0.0; bytes.len() / 2];
    decode_f16_into(bytes, &mut out);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        assert_eq!(F16::from_f32(0.0).0, 0x0000);
        assert_eq!(F16::from_f32(-0.0).0, 0x8000);
        assert_eq!(F16::from_f32(1.0).0, 0x3c00);
        assert_eq!(F16::from_f32(-2.0).0, 0xc000);
        assert_eq!(F16::from_f32(65504.0).0, 0x7bff);
        assert_eq!(F16::from_f32(0.5).0, 0x3800);
        assert_eq!(F16::from_f32(0.099975586).0, 0x2e66); // ~0.1
    }

    #[test]
    fn decode_known_values() {
        assert_eq!(F16(0x3c00).to_f32(), 1.0);
        assert_eq!(F16(0xc000).to_f32(), -2.0);
        assert_eq!(F16(0x7bff).to_f32(), 65504.0);
        assert_eq!(F16(0x0001).to_f32(), 5.9604645e-8); // smallest subnormal
        assert_eq!(F16(0x0400).to_f32(), 6.103_515_6e-5); // smallest normal
    }

    /// The decode `to_f32` replaced: one arm per class of half. Kept as
    /// the oracle the branch-free form is held to on every bit pattern.
    fn branchy_to_f32(h: F16) -> f32 {
        let sign = ((h.0 & 0x8000) as u32) << 16;
        let exp = ((h.0 >> 10) & 0x1f) as u32;
        let mantissa = (h.0 & 0x03ff) as u32;
        let bits = match (exp, mantissa) {
            (0, 0) => sign, // signed zero
            (0, m) => {
                // Subnormal: value = m * 2^-24. Normalise so bit 10 is the
                // implicit leading one, giving value = 1.f * 2^(-14 - shift).
                let shift = m.leading_zeros() - 21;
                let m2 = (m << shift) & 0x03ff;
                let exp_field = 113 - shift; // (-14 - shift) + 127
                sign | (exp_field << 23) | (m2 << 13)
            }
            (0x1f, 0) => sign | 0x7f80_0000,             // infinity
            (0x1f, m) => sign | 0x7f80_0000 | (m << 13), // NaN
            (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
        };
        f32::from_bits(bits)
    }

    #[test]
    fn branch_free_decode_matches_the_branchy_one_on_every_half() {
        // All 65 536 patterns, compared as bits: subnormals, ±0, ±∞ and
        // every NaN payload included. The bulk decode sees the same bytes.
        let bytes: Vec<u8> = (0..=0xffffu16).flat_map(u16::to_le_bytes).collect();
        let mut bulk = vec![0.0f32; 1 << 16];
        decode_f16_into(&bytes, &mut bulk);
        for bits in 0..=0xffffu16 {
            let expect = branchy_to_f32(F16(bits)).to_bits();
            assert_eq!(F16(bits).to_f32().to_bits(), expect, "bits {bits:#06x}");
            assert_eq!(bulk[bits as usize].to_bits(), expect, "bulk, bits {bits:#06x}");
        }
    }

    #[test]
    #[should_panic(expected = "one byte pair per decoded f32")]
    fn bulk_decode_refuses_mismatched_lengths() {
        decode_f16_into(&[0, 0, 0], &mut [0.0; 2]);
    }

    #[test]
    fn specials_roundtrip() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::INFINITY).is_infinite());
        assert_eq!(F16::from_f32(f32::INFINITY).0, 0x7c00);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY).0, 0xfc00);
        assert!(F16::NAN.to_f32().is_nan());
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(1.0e6).is_infinite());
        assert!(F16::from_f32(-1.0e6).is_infinite());
        assert_eq!(F16::from_f32(65520.0).0, 0x7c00); // rounds up past MAX
    }

    #[test]
    fn underflow_flushes_to_zero_with_sign() {
        assert_eq!(F16::from_f32(1.0e-10).0, 0x0000);
        assert_eq!(F16::from_f32(-1.0e-10).0, 0x8000);
    }

    #[test]
    fn roundtrip_exact_for_all_finite_halves() {
        // Every finite f16 → f32 → f16 must be the identity.
        for bits in 0..=0xffffu16 {
            let h = F16(bits);
            if h.is_nan() {
                continue;
            }
            let rt = F16::from_f32(h.to_f32());
            assert_eq!(rt.0, bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between two halves; ties-to-even
        // keeps the even mantissa (1.0).
        let halfway = 1.0f32 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).0, 0x3c00);
        // Slightly above halfway rounds up.
        let above = 1.0f32 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).0, 0x3c01);
    }

    #[test]
    fn relative_error_bound_in_normal_range() {
        // |x - roundtrip(x)| / |x| <= 2^-11 for normal-range values.
        let mut x = 6.2e-5f32;
        while x < 6.0e4 {
            let rt = F16::from_f32(x).to_f32();
            let rel = ((x - rt) / x).abs();
            assert!(rel <= 4.9e-4, "x={x} rt={rt} rel={rel}");
            x *= 1.37;
        }
    }

    #[test]
    fn byte_codec_roundtrip() {
        let vals = vec![0.0f32, 1.5, -3.25, 0.1, 100.0, -0.0078125];
        let bytes = encode_f16_bytes(&vals);
        assert_eq!(bytes.len(), vals.len() * 2);
        let back = decode_f16_bytes(&bytes).unwrap();
        for (a, b) in vals.iter().zip(back.iter()) {
            assert!((a - b).abs() <= a.abs() * 5e-4 + 1e-6, "{a} vs {b}");
        }
        assert!(decode_f16_bytes(&bytes[..3]).is_none(), "odd length rejected");
    }
}
