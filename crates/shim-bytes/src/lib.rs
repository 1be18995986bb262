//! In-tree shim for the `bytes` crate (offline build environment).
//!
//! Implements exactly the subset dbvirt uses: an immutable, cheaply
//! clonable byte buffer ([`Bytes`]), a growable builder ([`BytesMut`]),
//! and the [`Buf`]/[`BufMut`] cursor traits with big-endian integer
//! accessors, matching the semantics of the real crate for this subset.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes {
            data: Arc::from(&[][..]),
        }
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes {
            data: Arc::from(data),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes {
            data: Arc::from(v.into_boxed_slice()),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty builder.
    pub fn new() -> BytesMut {
        BytesMut { data: Vec::new() }
    }

    /// An empty builder with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts the accumulated bytes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Read cursor over a byte source. Integer accessors are big-endian,
/// like the real `bytes` crate.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }
    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take_array())
    }
    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take_array())
    }
    /// Reads a big-endian `i32`.
    fn get_i32(&mut self) -> i32 {
        i32::from_be_bytes(self.take_array())
    }
    /// Reads a big-endian `i64`.
    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.take_array())
    }
    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take_array())
    }
    /// Reads a big-endian `f64`.
    fn get_f64(&mut self) -> f64 {
        f64::from_be_bytes(self.take_array())
    }

    /// Reads `N` bytes into an array (helper for the accessors above).
    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        out.copy_from_slice(&self.chunk()[..N]);
        self.advance(N);
        out
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Write cursor appending to a byte sink. Integer writers are big-endian.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian `i32`.
    fn put_i32(&mut self, v: i32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian `i64`.
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Appends a big-endian `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut b = BytesMut::with_capacity(64);
        b.put_u8(7);
        b.put_u16(0xBEEF);
        b.put_u32(0xDEAD_BEEF);
        b.put_i32(-5);
        b.put_i64(-1_000_000_007);
        b.put_f64(3.5);
        b.put_slice(b"xyz");
        let frozen = b.freeze();
        let mut r: &[u8] = &frozen;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 0xBEEF);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_i32(), -5);
        assert_eq!(r.get_i64(), -1_000_000_007);
        assert_eq!(r.get_f64(), 3.5);
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.chunk(), b"xyz");
        r.advance(3);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn bytes_hash_and_eq_work_as_map_keys() {
        use std::collections::HashMap;
        let mut m: HashMap<Bytes, i32> = HashMap::new();
        m.insert(Bytes::copy_from_slice(b"k1"), 1);
        let again = Bytes::from(b"k1".to_vec());
        assert_eq!(m.get(&again), Some(&1));
    }
}
