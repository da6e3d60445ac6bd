//! Cache-line-aligned `f64` storage for the hot sweep arrays.
//!
//! `Vec<f64>` only guarantees 8-byte alignment, so a flat state array can
//! start mid-cache-line and every SIMD load in the sweep kernels has to be
//! unaligned. [`AlignedVec`] is a minimal fixed-length buffer whose
//! first element is aligned to [`CACHE_LINE`] (64 bytes — one x86-64 cache
//! line, and wide enough for any AVX-512 vector). It dereferences to
//! `[f64]`, so all existing slice-based code (kernels, accessors,
//! serialization, chunked parallel writes) keeps working unchanged; only
//! construction sites change.
//!
//! Memory is committed only where it is written:
//!
//! * [`AlignedVec::zeros`] asks for zeroed memory at the allocator's
//!   natural 16-byte alignment plus one spare cache line, and aligns the
//!   start to 64 bytes by hand. That is the `calloc` path: a large buffer
//!   is fresh `mmap` pages that cost address space, not resident memory,
//!   until they are written. A 64-byte-aligned zeroed request would go
//!   through `posix_memalign` plus a full memset instead.
//! * [`AlignedVec::from_slice`], [`AlignedVec::splat`] and `clone` write
//!   every element exactly once into a 64-byte-aligned allocation, with
//!   no zero fill first. They keep `posix_memalign`: moving them onto the
//!   calloc layout makes glibc hand set-up arrays back to the kernel and
//!   fault them in again on the next set-up.
//!
//! The buffer is deliberately *not* growable: sweep state is sized once
//! from the graph and never reallocated mid-solve. Each buffer remembers
//! the base pointer and layout it was allocated with, and `Drop` frees
//! exactly that. [`AlignedVec::truncate`] exists for shape-corruption
//! tests and keeps the original allocation.

// Owns a raw 64-byte-aligned allocation behind a safe slice API.
#![allow(unsafe_code)]

use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment (bytes) of the first element of every [`AlignedVec`].
pub(crate) const CACHE_LINE: usize = 64;

/// Alignment of the zeroed allocations: the allocator's own minimum on
/// 64-bit targets, so the request takes the lazy `calloc` path.
const ZEROED_ALIGN: usize = 16;

/// A fixed-length, 64-byte-aligned `f64` buffer that derefs to `[f64]`.
pub struct AlignedVec {
    /// First element, 64-byte aligned (dangling when nothing is allocated).
    ptr: NonNull<f64>,
    /// Visible length (differs from the allocated one only after
    /// [`AlignedVec::truncate`]).
    len: usize,
    /// Start and layout of the allocation, for `Drop`; `None` when empty.
    alloc: Option<(NonNull<u8>, Layout)>,
}

// SAFETY: `ptr` and `alloc` point into one allocation that this buffer
// alone owns and frees, holding plain `f64`s; shared access only reads
// through `&self`, and writes need `&mut self`.
unsafe impl Send for AlignedVec {}
// SAFETY: as for `Send`.
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// Layout of `len` doubles plus `spare` bytes at `align`.
    ///
    /// # Panics
    /// If the byte size overflows `usize` or exceeds what a `Layout` may
    /// describe.
    fn layout(len: usize, spare: usize, align: usize) -> Layout {
        let bytes = len
            .checked_mul(std::mem::size_of::<f64>())
            .and_then(|b| b.checked_add(spare))
            .expect("AlignedVec allocation size overflows usize");
        Layout::from_size_align(bytes, align).expect("AlignedVec allocation size overflow")
    }

    fn empty() -> Self {
        /// Zero-sized, cache-line aligned: its dangling pointer is 64-byte
        /// aligned too.
        #[repr(align(64))]
        struct Line;
        AlignedVec {
            ptr: NonNull::<Line>::dangling().cast(),
            len: 0,
            alloc: None,
        }
    }

    /// A zero-initialized buffer of `len` doubles. Pages of a large buffer
    /// are not resident until first written (see the module docs).
    pub fn zeros(len: usize) -> Self {
        if len == 0 {
            return Self::empty();
        }
        let layout = Self::layout(len, CACHE_LINE, ZEROED_ALIGN);
        // SAFETY: layout has non-zero size (len > 0).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(base) = NonNull::new(raw) else {
            handle_alloc_error(layout)
        };
        let offset = (CACHE_LINE - base.as_ptr() as usize % CACHE_LINE) % CACHE_LINE;
        // SAFETY: `offset < CACHE_LINE`, the spare bytes of the layout, so
        // `len` doubles from `base + offset` lie inside the allocation, and
        // all of it is zeroed, which is `+0.0` for every double.
        let ptr = unsafe { base.add(offset) }.cast::<f64>();
        AlignedVec {
            ptr,
            len,
            alloc: Some((base, layout)),
        }
    }

    /// A 64-byte-aligned buffer of `len` doubles, filled by `init`.
    ///
    /// # Safety
    /// `init` must write every slot it is given: the buffer is handed out
    /// as `len` initialized doubles.
    unsafe fn with_init(len: usize, init: impl FnOnce(&mut [MaybeUninit<f64>])) -> Self {
        if len == 0 {
            return Self::empty();
        }
        let layout = Self::layout(len, 0, CACHE_LINE);
        // SAFETY: layout has non-zero size (len > 0).
        let raw = unsafe { alloc(layout) };
        let Some(base) = NonNull::new(raw) else {
            handle_alloc_error(layout)
        };
        let ptr = base.cast::<f64>();
        // SAFETY: the allocation holds `len` doubles at `ptr`, and
        // `MaybeUninit` slots may be uninitialized.
        let slots = unsafe { std::slice::from_raw_parts_mut(ptr.as_ptr().cast(), len) };
        init(slots);
        AlignedVec {
            ptr,
            len,
            alloc: Some((base, layout)),
        }
    }

    /// A buffer of `len` copies of `value`.
    pub(crate) fn splat(value: f64, len: usize) -> Self {
        // SAFETY: `fill` writes every slot.
        unsafe { Self::with_init(len, |slots| slots.fill(MaybeUninit::new(value))) }
    }

    /// An aligned copy of `values`.
    pub(crate) fn from_slice(values: &[f64]) -> Self {
        // SAFETY: there are as many slots as values, and the zip writes
        // one value into each.
        unsafe {
            Self::with_init(values.len(), |slots| {
                for (slot, &v) in slots.iter_mut().zip(values) {
                    slot.write(v);
                }
            })
        }
    }

    /// Shortens the visible length to `len` (no-op if already shorter).
    /// The allocation is retained, so this is O(1) and exact-inverse-free —
    /// it exists for tests that corrupt shapes on purpose.
    #[cfg(test)]
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
        }
    }

    /// The contents as a plain slice (also available via deref).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self
    }

    /// The contents as a plain mutable slice (also available via deref).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self
    }
}

impl Deref for AlignedVec {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        // SAFETY: `ptr` is valid for `len` initialized doubles (or dangling
        // with len 0, which `from_raw_parts` permits for empty slices).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: as above, plus `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if let Some((base, layout)) = self.alloc {
            // SAFETY: `base` was returned by the global allocator for
            // exactly this layout and is freed only here.
            unsafe { dealloc(base.as_ptr(), layout) }
        }
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl Default for AlignedVec {
    fn default() -> Self {
        Self::empty()
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl From<Vec<f64>> for AlignedVec {
    fn from(values: Vec<f64>) -> Self {
        Self::from_slice(&values)
    }
}

impl From<&[f64]> for AlignedVec {
    fn from(values: &[f64]) -> Self {
        Self::from_slice(values)
    }
}

impl FromIterator<f64> for AlignedVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let staged: Vec<f64> = iter.into_iter().collect();
        Self::from_slice(&staged)
    }
}

impl<'a> IntoIterator for &'a AlignedVec {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut AlignedVec {
    type Item = &'a mut f64;
    type IntoIter = std::slice::IterMut<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[f64]> for AlignedVec {
    fn eq(&self, other: &[f64]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[f64]> for AlignedVec {
    fn eq(&self, other: &&[f64]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<f64>> for AlignedVec {
    fn eq(&self, other: &Vec<f64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<AlignedVec> for Vec<f64> {
    fn eq(&self, other: &AlignedVec) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[f64; N]> for AlignedVec {
    fn eq(&self, other: &[f64; N]) -> bool {
        self.as_slice() == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_cache_line_aligned() {
        for len in [1usize, 3, 7, 64, 1000, 4097] {
            let v = AlignedVec::zeros(len);
            assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0, "len {len}");
            assert_eq!(v.len(), len);
            assert!(v.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn empty_buffer_is_valid() {
        let v = AlignedVec::zeros(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f64]);
        let w = v.clone();
        assert_eq!(v, w);
    }

    #[test]
    fn slice_semantics_via_deref() {
        let mut v = AlignedVec::zeros(8);
        v[3] = 2.5;
        v[4..6].copy_from_slice(&[1.0, -1.0]);
        assert_eq!(v[3], 2.5);
        assert_eq!(&v[4..6], &[1.0, -1.0]);
        assert_eq!(v.iter().sum::<f64>(), 2.5);
    }

    #[test]
    fn conversions_and_equality() {
        let v: AlignedVec = vec![1.0, 2.0, 3.0].into();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
        assert_eq!(v, [1.0, 2.0, 3.0]);
        let w: AlignedVec = [1.0, 2.0, 3.0].iter().copied().collect();
        assert_eq!(v, w);
        assert_eq!(AlignedVec::splat(7.0, 4), vec![7.0; 4]);
        assert_eq!(AlignedVec::from_slice(&[5.0]).clone(), vec![5.0]);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let mut v = AlignedVec::from_slice(&[1.0, 2.0, 3.0]);
        v.truncate(2);
        assert_eq!(v, vec![1.0, 2.0]);
        v.truncate(5); // no-op
        assert_eq!(v.len(), 2);
    }

    /// Lengths the constructor tests cover: empty, sub-line, one page
    /// plus one double, and two sizes past glibc's `mmap` threshold.
    const LENGTHS: [usize; 6] = [0, 1, 7, 4097, 1 << 17, 1 << 22];

    /// Doubles whose bit patterns differ element to element, NaN
    /// payloads and `-0.0` included, so a copy that normalises or skips
    /// elements shows.
    fn patterned(len: usize) -> Vec<f64> {
        (0..len as u64)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => f64::from_bits(0x7ff8_0000_0000_0000 | i),
                _ => f64::from_bits(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            })
            .collect()
    }

    fn assert_aligned(v: &AlignedVec, len: usize, what: &str) {
        assert_eq!(v.len(), len, "{what} len {len}");
        assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0, "{what} len {len}");
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn zeros_is_aligned_positive_zero_at_every_length() {
        for len in LENGTHS {
            let mut v = AlignedVec::zeros(len);
            assert_aligned(&v, len, "zeros");
            assert!(v.iter().all(|x| x.to_bits() == 0), "zeros len {len}");
            // Every element is writable, the last included.
            v.fill(1.5);
            assert!(v.iter().all(|&x| x == 1.5));
            drop(v);
        }
    }

    #[test]
    fn copies_are_aligned_and_bit_equal_at_every_length() {
        for len in LENGTHS {
            let src = patterned(len);
            let copy = AlignedVec::from_slice(&src);
            assert_aligned(&copy, len, "from_slice");
            assert!(same_bits(&copy, &src), "from_slice len {len}");
            let twin = copy.clone();
            assert_aligned(&twin, len, "clone");
            assert!(same_bits(&twin, &src), "clone len {len}");
            drop(copy);
            drop(twin);
            for value in [-0.0, f64::NAN, 3.25] {
                let v = AlignedVec::splat(value, len);
                assert_aligned(&v, len, "splat");
                assert!(
                    v.iter().all(|x| x.to_bits() == value.to_bits()),
                    "splat len {len}"
                );
                drop(v);
            }
        }
    }

    #[test]
    fn clone_of_truncated_buffer_copies_the_visible_prefix() {
        for make in [AlignedVec::zeros, |n| AlignedVec::from_slice(&patterned(n))] {
            let mut v = make(4097);
            v.truncate(7);
            let w = v.clone();
            assert_aligned(&w, 7, "clone of truncated");
            assert!(same_bits(&w, &v[..7]));
            // Both free the layout they were allocated with.
            drop(v);
            drop(w);
        }
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn absurd_length_panics_before_allocating() {
        let _ = AlignedVec::zeros(usize::MAX / 8);
    }

    #[test]
    fn debug_prints_like_a_slice() {
        let v = AlignedVec::from_slice(&[1.5]);
        assert_eq!(format!("{v:?}"), "[1.5]");
    }
}
