//! Little-endian primitive readers/writers for the wire protocol.
//!
//! `paradmm-graph`'s own byte helpers are `pub(crate)`, and the serve
//! protocol additionally needs bounds-checked reads over untrusted
//! input, so the codec keeps its own minimal pair: an appending writer
//! over `Vec<u8>` and a consuming [`Reader`] that fails with
//! [`WireError::Truncated`] instead of panicking when the buffer runs
//! short.

use crate::protocol::WireError;

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Length-prefixed byte blob (`u32` count + bytes).
pub(crate) fn put_blob(out: &mut Vec<u8>, blob: &[u8]) {
    assert!(blob.len() <= u32::MAX as usize, "blob exceeds u32 length");
    put_u32(out, blob.len() as u32);
    out.extend_from_slice(blob);
}

/// Length-prefixed `f64` vector (`u32` count + values).
pub(crate) fn put_vec_f64(out: &mut Vec<u8>, v: &[f64]) {
    assert!(v.len() <= u32::MAX as usize, "vector exceeds u32 length");
    put_u32(out, v.len() as u32);
    for &x in v {
        put_f64(out, x);
    }
}

/// Bounds-checked cursor over an untrusted byte buffer.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Length-prefixed byte blob; the claimed length is validated
    /// against the remaining buffer before any slicing.
    pub(crate) fn blob(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Length-prefixed `f64` vector; the claimed count is validated
    /// against the remaining buffer before allocating.
    pub(crate) fn vec_f64(&mut self) -> Result<Vec<f64>, WireError> {
        let count = self.u32()? as usize;
        if self.remaining() < count.checked_mul(8).ok_or(WireError::Truncated)? {
            return Err(WireError::Truncated);
        }
        let mut v = Vec::with_capacity(count);
        for _ in 0..count {
            v.push(self.f64()?);
        }
        Ok(v)
    }
}
