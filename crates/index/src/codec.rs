//! Byte-cursor helpers shared by the store serialisation formats.
//!
//! The generic primitives (bounds-checked [`Reader`], varint/zigzag,
//! little-endian put helpers) live in [`mcqa_util::codec`] so the lexical
//! index can share them; this module re-exports them and adds the
//! metric byte codec, which only the vector stores need.

pub(crate) use mcqa_util::codec::{
    put_f32s, put_u32, put_u64, put_varint, unzigzag, zigzag, Reader,
};

use crate::metric::Metric;

pub(crate) fn encode_metric(m: Metric) -> u8 {
    match m {
        Metric::Cosine => 0,
        Metric::Dot => 1,
        Metric::L2 => 2,
    }
}

pub(crate) fn decode_metric(b: u8) -> Option<Metric> {
    match b {
        0 => Some(Metric::Cosine),
        1 => Some(Metric::Dot),
        2 => Some(Metric::L2),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_codes_roundtrip() {
        for m in [Metric::Cosine, Metric::Dot, Metric::L2] {
            assert_eq!(decode_metric(encode_metric(m)), Some(m));
        }
        assert_eq!(decode_metric(9), None);
    }
}
