//! Binary serialization for everything that crosses the shuffle.
//!
//! Hadoop serializes every intermediate `(key, value)` pair through
//! `Writable`; sorting, spilling and the shuffle all operate on those bytes.
//! This module is the equivalent boundary for the in-process engine: every
//! map-output pair is encoded with [`Codec`] into spill runs, so the byte
//! counts reported by [`crate::JobMetrics`] measure what a real cluster would
//! push through its network, and the reduce side pays a genuine decode cost.
//!
//! The format is a compact LEB128-style varint encoding with zigzag for
//! signed integers — no self-description, no framing beyond what each type
//! writes, exactly like a Hadoop `SequenceFile` payload.

use crate::error::{MrError, Result};

/// A cursor over an encoded byte slice.
///
/// Decoding is sequential: each [`Codec::decode`] call consumes bytes from
/// the front. The reader tracks its position so callers can interleave
/// decodes of different types (as the shuffle does for keys and values).
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a byte slice for sequential decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset from the start of the underlying slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(MrError::Codec(format!(
                "unexpected end of input: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume a single byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        let b = self.take(1)?;
        Ok(b[0])
    }
}

/// Write an unsigned 64-bit integer as a LEB128 varint.
pub fn write_varint(mut v: u64, buf: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 varint written by [`write_varint`].
///
/// Rejects non-canonical encodings that would overflow 64 bits: a varint
/// may span at most 10 bytes, and the 10th byte carries only the single
/// remaining high bit — anything else would silently truncate on the
/// shift, turning corrupt input into a plausible-looking value.
pub fn read_varint(r: &mut ByteReader<'_>) -> Result<u64> {
    let mut shift = 0u32;
    let mut out = 0u64;
    loop {
        let byte = r.take_u8()?;
        if shift >= 64 {
            return Err(MrError::Codec("varint too long".into()));
        }
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            return Err(MrError::Codec("varint overflows u64".into()));
        }
        out |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

/// Zigzag-encode a signed integer so small magnitudes stay small.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Invert [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Types that can cross the shuffle boundary.
///
/// Every map-output key and value implements this; so do the payloads of
/// simulated-DFS sequence files.
pub trait Codec: Sized {
    /// Append the encoded representation to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode one value from the front of `r`.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self>;

    /// Encoded size in bytes. The default encodes into a scratch buffer;
    /// hot types should override with a direct computation.
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Convenience: encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Convenience: decode a value that occupies the whole slice.
    fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(buf);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(MrError::Codec(format!(
                "{} trailing bytes after decode",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

macro_rules! impl_codec_uint {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                write_varint(*self as u64, buf);
            }
            #[inline]
            fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
                let v = read_varint(r)?;
                <$t>::try_from(v).map_err(|_| {
                    MrError::Codec(format!("varint {v} out of range for {}", stringify!($t)))
                })
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                varint_len(*self as u64)
            }
        }
    )*};
}

impl_codec_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_codec_sint {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                write_varint(zigzag(i64::from(*self)), buf);
            }
            #[inline]
            fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
                let v = unzigzag(read_varint(r)?);
                <$t>::try_from(v).map_err(|_| {
                    MrError::Codec(format!("value {v} out of range for {}", stringify!($t)))
                })
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                varint_len(zigzag(i64::from(*self)))
            }
        }
    )*};
}

impl_codec_sint!(i8, i16, i32, i64);

impl Codec for bool {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(MrError::Codec(format!("invalid bool byte {b}"))),
        }
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Codec for f64 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let b = r.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Codec for f32 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let b = r.take(4)?;
        Ok(f32::from_le_bytes(b.try_into().expect("4 bytes")))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Codec for () {
    #[inline]
    fn encode(&self, _buf: &mut Vec<u8>) {}
    #[inline]
    fn decode(_r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(())
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        0
    }
}

/// Validate a decoded length prefix against what the input can actually
/// hold. A truncated or bit-flipped frame can declare any length at all;
/// callers must never size buffers (or loop bounds) from it before this
/// check, so a corrupt prefix fails with a clean decode error instead of a
/// multi-GB allocation.
fn checked_len(r: &ByteReader<'_>, declared: u64, what: &str) -> Result<usize> {
    let len = usize::try_from(declared)
        .map_err(|_| MrError::Codec(format!("{what} length {declared} exceeds address space")))?;
    if len > r.remaining() {
        return Err(MrError::Codec(format!(
            "{what} length {len} exceeds remaining input ({})",
            r.remaining()
        )));
    }
    Ok(len)
}

impl Codec for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(self.len() as u64, buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let declared = read_varint(r)?;
        let len = checked_len(r, declared, "string")?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| MrError::Codec(format!("invalid utf-8 string: {e}")))
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(self.len() as u64, buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        // A corrupt element count cannot exceed the remaining bytes (every
        // element besides `()`-like zero-size payloads occupies at least one
        // byte), so reject inflated prefixes before any allocation.
        let declared = read_varint(r)?;
        let len = checked_len(r, declared, "vec")?;
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Codec::encoded_len).sum::<usize>()
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(MrError::Codec(format!("invalid Option tag {b}"))),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Codec::encoded_len)
    }
}

macro_rules! impl_codec_tuple {
    ($(($($name:ident : $idx:tt),+)),+ $(,)?) => {$(
        impl<$($name: Codec),+> Codec for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$idx.encode(buf);)+
            }
            fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
                Ok(($($name::decode(r)?,)+))
            }
            fn encoded_len(&self) -> usize {
                0 $(+ self.$idx.encoded_len())+
            }
        }
    )+};
}

impl_codec_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4)
);

/// Implement [`Codec`] for a struct (optionally generic over one `Codec`
/// parameter) by encoding the listed fields in order — how the engine's
/// own task-result and wire types cross the process backend's pipes, and
/// how a [`JobSpec`](crate::JobSpec) reaches a worker process. A trailing
/// `..base` leaves the unlisted fields off the wire: the decoded value
/// takes them from `base`.
#[macro_export]
macro_rules! codec_struct {
    ($t:ident $(<$p:ident>)? { $($f:ident),+ $(,)? } $(..$base:expr)?) => {
        impl$(<$p: $crate::codec::Codec>)? $crate::codec::Codec for $t$(<$p>)? {
            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::codec::Codec::encode(&self.$f, buf);)+
            }
            fn decode(r: &mut $crate::codec::ByteReader<'_>) -> $crate::error::Result<Self> {
                Ok($t { $($f: $crate::codec::Codec::decode(r)?,)+ $(..$base)? })
            }
        }
    };
}

/// Implement [`Codec`] for an enum as a tag byte and then the variant's
/// fields in order, each variant written once as `tag => Variant(a, ..)` or
/// `tag => Variant { a, .. }`; an unknown tag decodes to a
/// [`MrError::Codec`] naming `what`. The engine's wire types use it, and so
/// do the enums a [`JobSpec`](crate::JobSpec) carries.
#[macro_export]
macro_rules! codec_enum {
    ($t:ident ($what:literal) {
        $($tag:literal => $v:ident $(($($tf:ident),+))? $({ $($sf:ident),+ })?),+ $(,)?
    }) => {
        impl $crate::codec::Codec for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $($t::$v $(($($tf),+))? $({ $($sf),+ })? => {
                        buf.push($tag);
                        $($($crate::codec::Codec::encode($tf, buf);)+)?
                        $($($crate::codec::Codec::encode($sf, buf);)+)?
                    })+
                }
            }
            fn decode(r: &mut $crate::codec::ByteReader<'_>) -> $crate::error::Result<Self> {
                Ok(match r.take_u8()? {
                    $($tag => $t::$v
                        $(($({
                            let $tf = $crate::codec::Codec::decode(r)?;
                            $tf
                        }),+))?
                        $({ $($sf: $crate::codec::Codec::decode(r)?),+ })?,)+
                    t => return Err($crate::error::MrError::Codec(format!("invalid {} tag {t}", $what))),
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len for {v:?}");
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn varint_roundtrips_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let mut r = ByteReader::new(&buf);
            assert_eq!(read_varint(&mut r).unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 1 << 14, 1 << 21, 1 << 35, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert_eq!(buf.len(), varint_len(v), "v={v}");
        }
    }

    #[test]
    fn zigzag_is_involutive() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-1i32);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.25f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(1.5f32);
        roundtrip(());
    }

    #[test]
    fn compound_roundtrips() {
        roundtrip(String::from("hello κόσμε"));
        roundtrip(String::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip((1u32, String::from("x")));
        roundtrip((1u32, 2u64, String::from("y"), vec![9u8]));
        roundtrip(((1u32, 2u32), vec![(3u64, String::from("z"))]));
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = String::from("hello").to_bytes();
        assert!(String::from_bytes(&bytes[..3]).is_err());
        assert!(u64::from_bytes(&[0x80]).is_err());
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_invalid_tags() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(Option::<u8>::from_bytes(&[7]).is_err());
        // Non-UTF8 string payload.
        let mut buf = Vec::new();
        write_varint(2, &mut buf);
        buf.extend_from_slice(&[0xff, 0xff]);
        assert!(String::from_bytes(&buf).is_err());
    }

    #[test]
    fn u8_range_is_checked() {
        // 300 encoded as varint does not fit u8.
        let mut buf = Vec::new();
        write_varint(300, &mut buf);
        assert!(u8::from_bytes(&buf).is_err());
    }

    #[test]
    fn varint_rejects_overlong_and_overflowing_encodings() {
        // 11 continuation bytes: more than any u64 needs.
        let overlong = [0x80u8; 10]
            .iter()
            .copied()
            .chain(std::iter::once(1u8))
            .collect::<Vec<_>>();
        assert!(u64::from_bytes(&overlong).is_err());
        // Exactly 10 bytes but the 10th carries more than the one
        // remaining bit: the value would silently truncate.
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x02);
        assert!(u64::from_bytes(&overflow).is_err());
        // u64::MAX itself (10th byte = 0x01) still decodes.
        let mut max = Vec::new();
        write_varint(u64::MAX, &mut max);
        assert_eq!(max.len(), 10);
        assert_eq!(u64::from_bytes(&max).unwrap(), u64::MAX);
        // Truncated mid-continuation.
        assert!(u64::from_bytes(&max[..5]).is_err());
    }

    #[test]
    fn inflated_length_prefixes_fail_without_allocating() {
        // A string frame claiming u64::MAX bytes with a 3-byte payload:
        // must error cleanly, not attempt the allocation.
        let mut buf = Vec::new();
        write_varint(u64::MAX - 1, &mut buf);
        buf.extend_from_slice(b"abc");
        assert!(String::from_bytes(&buf).is_err());
        // Same for vectors of multi-byte elements.
        let mut buf = Vec::new();
        write_varint(1 << 40, &mut buf);
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(Vec::<u64>::from_bytes(&buf).is_err());
        assert!(Vec::<String>::from_bytes(&buf).is_err());
        // A modestly inflated count over truncated input also fails.
        let mut buf = Vec::new();
        write_varint(100, &mut buf);
        buf.push(7);
        assert!(Vec::<u32>::from_bytes(&buf).is_err());
    }

    /// Deterministic fuzz: encode valid values, then truncate at every
    /// boundary and flip every bit; decodes must return `Err` or a value,
    /// never panic. (Bit flips can legitimately decode — e.g. a flipped
    /// payload byte inside a string — so only the no-panic and
    /// no-overallocation properties are asserted.)
    #[test]
    fn mutated_frames_never_panic() {
        fn assault<T: Codec + std::fmt::Debug>(bytes: &[u8]) {
            for cut in 0..bytes.len() {
                let _ = T::from_bytes(&bytes[..cut]);
            }
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut mutated = bytes.to_vec();
                    mutated[i] ^= 1 << bit;
                    let _ = T::from_bytes(&mutated);
                }
            }
        }
        assault::<u64>(&u64::MAX.to_bytes());
        assault::<i64>(&i64::MIN.to_bytes());
        assault::<bool>(&true.to_bytes());
        assault::<f64>(&3.25f64.to_bytes());
        assault::<f32>(&1.5f32.to_bytes());
        assault::<String>(&String::from("hello κόσμε").to_bytes());
        assault::<Vec<u32>>(&vec![1u32, 200, 70000].to_bytes());
        assault::<Vec<String>>(&vec!["a".to_string(), "bb".to_string()].to_bytes());
        assault::<Option<u64>>(&Some(99u64).to_bytes());
        assault::<(u32, String)>(&(7u32, "xy".to_string()).to_bytes());
        assault::<(u64, u64, Vec<u8>)>(&(1u64, 2u64, vec![3u8, 4]).to_bytes());
    }
}
