//! LEB128 variable-length integers, the shared substrate of the
//! delta-based codecs. A `u32` takes 1–5 bytes, a `u64` 1–10; local
//! vertex-id deltas are usually 1–2 bytes, which is where the compression
//! comes from.

use crate::DecodeError;

/// Appends `v` as LEB128.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` as LEB128 (u32 convenience).
#[inline]
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    write_u64(out, v as u64);
}

/// Reads one LEB128 `u64` from `bytes` at `*pos`, advancing `*pos`.
#[inline]
pub fn read_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = bytes.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(DecodeError::MalformedVarint);
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads one LEB128 value that must fit a `u32`.
#[inline]
pub fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    let v = read_u64(bytes, pos)?;
    u32::try_from(v).map_err(|_| DecodeError::MalformedVarint)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_edges() {
        // Seven payload bits per byte, at least one byte.
        let len_u64 = |v: u64| (64 - v.leading_zeros()).div_ceil(7).max(1) as usize;
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            buf.clear();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), len_u64(v), "len_u64 mismatch for {v}");
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_is_detected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 300);
        let mut pos = 0;
        assert_eq!(read_u64(&buf[..1], &mut pos), Err(DecodeError::Truncated));
    }

    #[test]
    fn overlong_is_rejected() {
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), Err(DecodeError::MalformedVarint));
        let mut buf2 = Vec::new();
        write_u64(&mut buf2, u64::MAX);
        let mut pos = 0;
        assert!(read_u32(&buf2, &mut pos).is_err(), "u64::MAX does not fit u32");
    }
}
