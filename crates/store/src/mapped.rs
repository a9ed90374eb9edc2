//! The crate's entire `unsafe` surface: a read-only file mapping and the
//! validated byte-to-typed-slice views handed to `archrel-markov` as
//! [`SliceBacking`] implementations.
//!
//! Soundness rests on three invariants, each established here:
//!
//! 1. **Stability** — a [`Mapping`]'s bytes never move or change for its
//!    lifetime. `mmap` is `MAP_PRIVATE`/`PROT_READ`, and writers publish
//!    archives by atomic rename, never by mutating a published file in
//!    place, so the mapped inode's contents are frozen.
//! 2. **Bounds** — a [`MappedSection`] checks `byte_off + len * size_of::<T>()`
//!    against the backing length at construction.
//! 3. **Alignment** — the actual base pointer plus offset is checked against
//!    `align_of::<T>()` at construction (mmap bases are page-aligned, but
//!    the check also keeps the non-unix buffer fallback honest).
//!
//! `T` is restricted to [`Pod`] types (`u32`, `u64`) for which every bit
//! pattern is a valid value, so a hostile byte stream can at worst decode
//! to wrong *numbers* — which the plan-level validation then rejects — never
//! to undefined behavior.

use std::fs::File;
use std::marker::PhantomData;
use std::sync::Arc;

use archrel_markov::SliceBacking;

use crate::error::StoreError;

/// Marker for types where every bit pattern is a valid value.
///
/// # Safety
///
/// Implementors must be `Copy`, have no padding, no invalid bit patterns,
/// and no pointers.
pub(crate) unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: plain scalars — every bit pattern is valid, no padding.
unsafe impl Pod for u32 {}
// SAFETY: as above.
unsafe impl Pod for u64 {}

/// Byte storage an archive was opened from: a file mapping on unix, an
/// 8-byte-aligned heap buffer elsewhere (and for crafted in-memory tests).
pub(crate) type Backing = Arc<dyn AsRef<[u8]> + Send + Sync>;

/// A validated, typed window into a [`Backing`].
pub(crate) struct MappedSection<T> {
    backing: Backing,
    byte_off: usize,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Pod> MappedSection<T> {
    /// Validates bounds and alignment, returning a zero-copy view.
    pub(crate) fn new(
        backing: Backing,
        byte_off: usize,
        len: usize,
        section: usize,
    ) -> Result<MappedSection<T>, StoreError> {
        let bytes: &[u8] = (*backing).as_ref();
        let byte_len = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or(StoreError::BadSection {
                section,
                reason: "length overflows",
            })?;
        let end = byte_off
            .checked_add(byte_len)
            .ok_or(StoreError::BadSection {
                section,
                reason: "offset overflows",
            })?;
        if end > bytes.len() {
            return Err(StoreError::BadSection {
                section,
                reason: "payload out of bounds",
            });
        }
        if !(bytes.as_ptr() as usize + byte_off).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(StoreError::BadSection {
                section,
                reason: "payload misaligned",
            });
        }
        Ok(MappedSection {
            backing,
            byte_off,
            len,
            _marker: PhantomData,
        })
    }
}

impl<T: Pod> SliceBacking<T> for MappedSection<T> {
    fn as_slice(&self) -> &[T] {
        let bytes: &[u8] = (*self.backing).as_ref();
        // SAFETY: bounds and alignment were validated at construction
        // against this same backing, whose bytes are stable for its
        // lifetime (module invariant 1); T is Pod, so any bit pattern in
        // the window is a valid value.
        unsafe {
            std::slice::from_raw_parts(bytes.as_ptr().add(self.byte_off) as *const T, self.len)
        }
    }
}

/// An 8-byte-aligned owned byte buffer — the read fallback when mapping is
/// unavailable, and the carrier for crafted archives in tests.
pub struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    /// Copies `bytes` into fresh 8-aligned storage.
    pub fn copy_from(bytes: &[u8]) -> AlignedBytes {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: u64 -> u8 reinterpretation of an owned, live buffer;
        // every byte is initialized (zeroed above, then overwritten).
        let dst = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8)
        };
        dst[..bytes.len()].copy_from_slice(bytes);
        AlignedBytes {
            words,
            len: bytes.len(),
        }
    }
}

impl AsRef<[u8]> for AlignedBytes {
    fn as_ref(&self) -> &[u8] {
        // SAFETY: u64 -> u8 reinterpretation of owned storage; `len` never
        // exceeds `words.len() * 8` by construction.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }
}

/// A read-only, privately mapped view of an entire file.
#[cfg(unix)]
pub struct Mapping {
    ptr: *const u8,
    len: usize,
}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    // Bind the already-linked C library's mapping entry points directly:
    // the workspace builds offline with no external crates, so the usual
    // `libc` shim is hand-rolled here for exactly the two symbols needed.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    /// Linux `MAP_POPULATE`: prefault the whole mapping in the `mmap`
    /// call itself. The checksum pass reads every page immediately
    /// anyway, and one syscall-time populate is far cheaper than a minor
    /// fault per 4 KiB page — cold-start load time is the store's
    /// product. Other unixes take the fault path (flag 0 is a no-op).
    #[cfg(target_os = "linux")]
    pub const MAP_POPULATE: i32 = 0x8000;
    #[cfg(not(target_os = "linux"))]
    pub const MAP_POPULATE: i32 = 0;
}

#[cfg(unix)]
impl Mapping {
    /// Maps `len` bytes of `file` read-only.
    pub fn map(file: &File, len: usize) -> std::io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "cannot map an empty file",
            ));
        }
        // SAFETY: a fresh private read-only mapping of a file descriptor we
        // own; the kernel picks the address. Failure is reported as
        // MAP_FAILED (-1), checked below.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE | sys::MAP_POPULATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mapping {
            ptr: ptr as *const u8,
            len,
        })
    }
}

// SAFETY: the mapping is read-only and its address range is owned by this
// value until Drop; concurrent reads from multiple threads are safe.
#[cfg(unix)]
unsafe impl Send for Mapping {}
// SAFETY: as above.
#[cfg(unix)]
unsafe impl Sync for Mapping {}

#[cfg(unix)]
impl AsRef<[u8]> for Mapping {
    fn as_ref(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping held until Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact range returned by mmap in `map`.
        unsafe {
            sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
        }
    }
}

/// Opens `file` as stable bytes: an mmap on unix, an aligned read
/// elsewhere.
pub(crate) fn map_file(file: &File, len: usize) -> std::io::Result<Backing> {
    #[cfg(unix)]
    {
        Ok(Arc::new(Mapping::map(file, len)?))
    }
    #[cfg(not(unix))]
    {
        use std::io::Read;
        let mut bytes = Vec::with_capacity(len);
        let mut f = file;
        f.read_to_end(&mut bytes)?;
        Ok(Arc::new(AlignedBytes::copy_from(&bytes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_bytes_round_trip_and_alignment() {
        let data: Vec<u8> = (0..37).collect();
        let a = AlignedBytes::copy_from(&data);
        assert_eq!(a.as_ref(), &data[..]);
        assert_eq!(a.as_ref().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn mapped_section_validates_bounds_and_alignment() {
        let backing: Backing = Arc::new(AlignedBytes::copy_from(&[0u8; 32]));
        assert!(MappedSection::<u64>::new(Arc::clone(&backing), 0, 4, 0).is_ok());
        assert!(matches!(
            MappedSection::<u64>::new(Arc::clone(&backing), 0, 5, 0),
            Err(StoreError::BadSection { .. })
        ));
        assert!(matches!(
            MappedSection::<u64>::new(Arc::clone(&backing), 4, 1, 0),
            Err(StoreError::BadSection { .. })
        ));
        assert!(matches!(
            MappedSection::<u32>::new(Arc::clone(&backing), usize::MAX - 2, 1, 0),
            Err(StoreError::BadSection { .. })
        ));
    }

    #[cfg(unix)]
    #[test]
    fn mapping_reads_file_contents() {
        let path = std::env::temp_dir().join(format!("archrel-map-test-{}", std::process::id()));
        std::fs::write(&path, b"hello mapping").unwrap();
        let file = File::open(&path).unwrap();
        let map = Mapping::map(&file, 13).unwrap();
        assert_eq!(map.as_ref(), b"hello mapping");
        drop(map);
        std::fs::remove_file(&path).unwrap();
    }
}
