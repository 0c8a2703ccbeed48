//! The shared segment: creation, mapping handles (heap-backed or OS-shared),
//! and raw access.

use nosv_sync::hint::{AtomicU64, Ordering};
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::collections::HashMap;
use std::ptr::NonNull;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::layout::{SegmentGeometry, CHUNK_SIZE, HEADER_BYTES};
use crate::offset::Shoff;
use crate::os::{probe_os_backend, MapError, OsMapping};

const MAGIC: u64 = 0x6e4f_5356_5348_4d31; // "nOSVSHM1"

/// On-disk/in-memory format version stamped into the header at creation
/// and checked on [`ShmSegment::attach_named`]: a process built against a
/// different layout must not touch the segment. Bump it whenever a
/// segment-resident structure a guest reads changes shape.
pub const SEGMENT_VERSION: u64 = 2;

/// Capability bit: the owning runtime accepts foreign-process joins
/// (handshake records in the registry, guest submission rings).
pub const CAP_GUEST_JOIN: u64 = 1;

/// Configuration for creating a segment.
#[derive(Debug, Clone, Copy)]
pub struct SegmentConfig {
    /// Total size of the segment in bytes. Defaults to 64 MiB.
    pub size: usize,
    /// Number of CPUs the per-CPU structures are sized for. Defaults to 64.
    pub max_cpus: usize,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            size: 64 * 1024 * 1024,
            max_cpus: 64,
        }
    }
}

/// Fixed-layout header at offset 0 of every segment.
///
/// Everything an attaching process needs to rederive the geometry, plus the
/// `user_root` anchor through which the runtime built on top (nOS-V) finds
/// its own state. `repr(C)` and zero-validity mirror a freshly truncated
/// POSIX segment.
#[repr(C)]
pub(crate) struct Header {
    magic: AtomicU64,
    total_size: u64,
    max_cpus: u64,
    /// Offset of the runtime's root object; 0 until published.
    user_root: AtomicU64,
    /// Monotonic source of logical process ids.
    next_pid: AtomicU64,
    /// Format version ([`SEGMENT_VERSION`]); checked on attach.
    version: u64,
    /// Capability bits advertised by the creator (e.g. [`CAP_GUEST_JOIN`]).
    capabilities: u64,
}

const _: () = assert!(std::mem::size_of::<Header>() <= HEADER_BYTES);

/// What actually holds the segment's bytes.
///
/// `Heap` is the in-process backing (tests, simulator, single-process
/// runtimes): one chunk-aligned `alloc_zeroed` region, freed when the last
/// handle drops. `Os` is a real OS-shared mapping (memfd or `/dev/shm`)
/// that foreign processes can attach to by name — see [`crate::os`].
enum SegmentBacking {
    Heap { layout: Layout },
    Os(OsMapping),
}

struct SegmentInner {
    base: NonNull<u8>,
    backing: SegmentBacking,
    geometry: SegmentGeometry,
}

// SAFETY: the raw region is shared intentionally; all concurrent access to
// initialized metadata goes through atomics and in-segment locks, and the
// allocator hands out disjoint object ranges.
unsafe impl Send for SegmentInner {}
unsafe impl Sync for SegmentInner {}

impl Drop for SegmentInner {
    fn drop(&mut self) {
        match &self.backing {
            SegmentBacking::Heap { layout } => {
                // SAFETY: `base` was allocated with exactly this layout in
                // `create`.
                unsafe { dealloc(self.base.as_ptr(), *layout) };
            }
            // The OsMapping's own Drop unmaps, closes and unpublishes.
            SegmentBacking::Os(_) => {}
        }
    }
}

/// A handle to a shared segment — the in-process equivalent of one
/// process's `mmap` of the POSIX segment.
///
/// Cloning a `ShmSegment` models another process mapping the same segment:
/// all clones see the same memory, and the backing region is released when
/// the last handle drops (the paper's "last process to unregister deletes
/// the segment", §3.3). Named lookup via [`ShmSegment::open_or_create`]
/// mirrors the `shm_open` check-then-initialize startup protocol.
#[derive(Clone)]
pub struct ShmSegment {
    inner: Arc<SegmentInner>,
}

fn named_registry() -> &'static Mutex<HashMap<String, Weak<SegmentInner>>> {
    static NAMED: OnceLock<Mutex<HashMap<String, Weak<SegmentInner>>>> = OnceLock::new();
    NAMED.get_or_init(|| Mutex::new(HashMap::new()))
}

impl ShmSegment {
    /// Creates a new anonymous segment.
    ///
    /// # Panics
    ///
    /// Panics if the configuration cannot hold the metadata plus one chunk
    /// (see [`SegmentGeometry::compute`]).
    pub fn create(config: SegmentConfig) -> ShmSegment {
        let geometry = SegmentGeometry::compute(config.size, config.max_cpus)
            .expect("segment too small for its metadata");
        // Align the whole segment to CHUNK_SIZE so objects inside chunks are
        // naturally aligned to their (power-of-two) size class.
        let layout = Layout::from_size_align(config.size, CHUNK_SIZE).expect("bad layout");
        // SAFETY: layout has nonzero size (geometry computation succeeded).
        let raw = unsafe { alloc_zeroed(layout) };
        let base = NonNull::new(raw).expect("segment allocation failed");
        let seg = ShmSegment {
            inner: Arc::new(SegmentInner {
                base,
                backing: SegmentBacking::Heap { layout },
                geometry,
            }),
        };
        seg.init_fresh(config);
        seg
    }

    /// Creates an OS-shared segment and publishes it under `name` so that
    /// foreign processes can [`ShmSegment::attach_named`] it.
    ///
    /// The backing is `memfd_create` when available, `shm_open` otherwise
    /// (probed once per process); [`MapError::Unsupported`] when neither
    /// works — callers gate on [`crate::os_backing_available`] and fall
    /// back to [`ShmSegment::create`]. The name must satisfy
    /// `[A-Za-z0-9._-]+` (≤ 128 bytes) and not collide with a live
    /// published segment.
    ///
    /// The segment is fully initialized (header stamped with
    /// [`SEGMENT_VERSION`] and `capabilities`, SLAB carved) *before* the
    /// name is published, so an attacher can never observe a half-built
    /// segment.
    pub fn create_named(
        name: &str,
        config: SegmentConfig,
        capabilities: u64,
    ) -> Result<ShmSegment, MapError> {
        if !crate::os::valid_name(name) {
            return Err(MapError::BadName);
        }
        let backend = probe_os_backend().ok_or(MapError::Unsupported)?;
        let geometry = SegmentGeometry::compute(config.size, config.max_cpus).ok_or(
            MapError::InvalidSegment("segment too small for its metadata"),
        )?;
        let mapping = OsMapping::create(name, config.size, backend)?;
        let base = NonNull::new(mapping.base()).ok_or(MapError::InvalidSegment("null mapping"))?;
        let seg = ShmSegment {
            inner: Arc::new(SegmentInner {
                base,
                backing: SegmentBacking::Os(mapping),
                geometry,
            }),
        };
        seg.init_fresh_with(config, capabilities);
        // Publish only now: the link file's appearance is the cross-process
        // signal that the header and SLAB are ready.
        match &seg.inner.backing {
            SegmentBacking::Os(m) => m.publish()?,
            SegmentBacking::Heap { .. } => unreachable!(),
        }
        Ok(seg)
    }

    /// Attaches to the OS-shared segment published under `name` — the
    /// foreign-process counterpart of [`ShmSegment::create_named`].
    ///
    /// Validates magic, size and [`SEGMENT_VERSION`] against the mapped
    /// header and rederives the geometry from it (deterministic given
    /// `total_size` and `max_cpus`), exactly as the paper's startup
    /// protocol rederives everything from the mapped POSIX segment.
    pub fn attach_named(name: &str) -> Result<ShmSegment, MapError> {
        if !crate::os::valid_name(name) {
            return Err(MapError::BadName);
        }
        let mapping = OsMapping::attach(name)?;
        // SAFETY: the mapping is at least a page; the header is repr(C)
        // atomics/words at offset 0 and every bit pattern is a valid value.
        let h = unsafe { &*(mapping.base() as *const Header) };
        if h.magic.load(Ordering::Acquire) != MAGIC {
            return Err(MapError::InvalidSegment("bad magic"));
        }
        if h.version != SEGMENT_VERSION {
            return Err(MapError::InvalidSegment("incompatible segment version"));
        }
        if h.total_size != mapping.len() as u64 {
            return Err(MapError::InvalidSegment(
                "header size disagrees with mapping",
            ));
        }
        let geometry = SegmentGeometry::compute(h.total_size as usize, h.max_cpus as usize)
            .ok_or(MapError::InvalidSegment("geometry does not compute"))?;
        let base = NonNull::new(mapping.base()).ok_or(MapError::InvalidSegment("null mapping"))?;
        Ok(ShmSegment {
            inner: Arc::new(SegmentInner {
                base,
                backing: SegmentBacking::Os(mapping),
                geometry,
            }),
        })
    }

    /// Header + SLAB initialization of a freshly zeroed region.
    fn init_fresh(&self, config: SegmentConfig) {
        self.init_fresh_with(config, 0);
    }

    fn init_fresh_with(&self, config: SegmentConfig, capabilities: u64) {
        {
            let h = self.header();
            let hp = h as *const Header as *mut Header;
            // SAFETY: we are the only owner during creation (nothing is
            // published yet); the region is zeroed.
            unsafe {
                (*hp).total_size = config.size as u64;
                (*hp).max_cpus = config.max_cpus as u64;
                (*hp).version = SEGMENT_VERSION;
                (*hp).capabilities = capabilities;
            }
            h.next_pid.store(1, Ordering::Relaxed);
            // The magic is stored last, with Release: an attacher's Acquire
            // load of it orders all the plain header words above.
            h.magic.store(MAGIC, Ordering::Release);
        }
        crate::slab::init_slab(self);
    }

    /// Opens the segment registered under `name`, creating and registering
    /// it if absent — the paper's startup protocol (§3.3): "the library
    /// checks during startup for the existence of a specific POSIX shared
    /// memory segment and initializes the segment if it does not exist".
    ///
    /// Returns the handle and whether this call created the segment.
    pub fn open_or_create(name: &str, config: SegmentConfig) -> (ShmSegment, bool) {
        let mut reg = named_registry().lock().expect("named registry poisoned");
        if let Some(weak) = reg.get(name) {
            if let Some(inner) = weak.upgrade() {
                return (ShmSegment { inner }, false);
            }
        }
        let seg = ShmSegment::create(config);
        reg.insert(name.to_string(), Arc::downgrade(&seg.inner));
        (seg, true)
    }

    /// The segment's geometry (region offsets, chunk count).
    #[inline]
    pub fn geometry(&self) -> &SegmentGeometry {
        &self.inner.geometry
    }

    /// Total size in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.inner.geometry.total_size
    }

    /// Number of "mappings" (handles) currently alive, this one included.
    ///
    /// Counts only this process's handles: with an OS-shared backing,
    /// foreign processes' mappings are invisible here (track them through
    /// the registry instead).
    pub fn mapping_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Whether this segment is a real OS-shared mapping (created by
    /// [`ShmSegment::create_named`] or [`ShmSegment::attach_named`]) as
    /// opposed to the in-process heap backing.
    pub fn is_os_shared(&self) -> bool {
        matches!(self.inner.backing, SegmentBacking::Os(_))
    }

    /// Which OS backend holds the bytes, when [`ShmSegment::is_os_shared`].
    pub fn os_backend(&self) -> Option<crate::os::OsBackend> {
        match &self.inner.backing {
            SegmentBacking::Os(m) => Some(m.backend()),
            SegmentBacking::Heap { .. } => None,
        }
    }

    /// Capability bits stamped into the header at creation (e.g.
    /// [`CAP_GUEST_JOIN`]).
    pub fn capabilities(&self) -> u64 {
        self.header().capabilities
    }

    /// Resolves a typed offset to a raw pointer into this mapping.
    ///
    /// The returned pointer is only meaningful while the segment is alive;
    /// callers must uphold aliasing rules for the pointee (the allocator
    /// guarantees distinct allocations never overlap).
    #[inline]
    pub fn resolve<T>(&self, off: Shoff<T>) -> *mut T {
        debug_assert!(!off.is_null(), "resolving null Shoff");
        debug_assert!(
            off.raw() as usize + std::mem::size_of::<T>() <= self.size(),
            "Shoff {:#x} + {} escapes segment of {} bytes",
            off.raw(),
            std::mem::size_of::<T>(),
            self.size()
        );
        // SAFETY: bounds checked above (in debug); offset arithmetic stays
        // within the allocation.
        unsafe { self.inner.base.as_ptr().add(off.raw() as usize).cast::<T>() }
    }

    /// Resolves an offset to a shared reference.
    ///
    /// # Safety
    ///
    /// The offset must point to an initialized `T` and no `&mut T` to the
    /// same location may exist for the reference's lifetime.
    #[inline]
    pub unsafe fn sref<T>(&self, off: Shoff<T>) -> &T {
        &*self.resolve(off)
    }

    /// Computes the offset of a pointer previously obtained from
    /// [`ShmSegment::resolve`].
    ///
    /// # Panics
    ///
    /// Panics if `ptr` does not point inside this segment.
    pub fn offset_of<T>(&self, ptr: *const T) -> Shoff<T> {
        let base = self.inner.base.as_ptr() as usize;
        let p = ptr as usize;
        assert!(
            p >= base && p < base + self.size(),
            "pointer is not inside the segment"
        );
        Shoff::from_raw((p - base) as u64)
    }

    pub(crate) fn header(&self) -> &Header {
        // SAFETY: the header is written at creation and lives at offset 0.
        unsafe { &*(self.inner.base.as_ptr() as *const Header) }
    }

    /// Verifies the segment magic (sanity check after "mapping").
    pub fn validate(&self) -> bool {
        let h = self.header();
        h.magic.load(Ordering::Relaxed) == MAGIC
            && h.total_size == self.size() as u64
            && (HEADER_BYTES as u64) < h.total_size
    }

    /// Reads the user root anchor (offset of the runtime's root object).
    pub fn user_root<T>(&self) -> Shoff<T> {
        Shoff::from_raw(self.header().user_root.load(Ordering::Acquire))
    }

    /// Publishes the user root if it is still unset; returns the winner.
    ///
    /// The first attaching process initializes the runtime state and
    /// publishes it here; latecomers adopt the published root. The CAS makes
    /// the check-then-initialize race safe.
    pub fn init_user_root_once<T>(&self, f: impl FnOnce() -> Shoff<T>) -> Shoff<T> {
        let h = self.header();
        if h.user_root.load(Ordering::Acquire) == 0 {
            let candidate = f();
            assert!(!candidate.is_null(), "user root must not be null");
            match h.user_root.compare_exchange(
                0,
                candidate.raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return candidate,
                Err(existing) => return Shoff::from_raw(existing),
            }
        }
        Shoff::from_raw(h.user_root.load(Ordering::Acquire))
    }

    /// Allocates a fresh logical process id (unique per segment lifetime).
    pub(crate) fn next_pid(&self) -> u64 {
        self.header().next_pid.fetch_add(1, Ordering::Relaxed)
    }
}

impl std::fmt::Debug for ShmSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmSegment")
            .field("size", &self.size())
            .field("chunks", &self.geometry().n_chunks)
            .field("mappings", &self.mapping_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SegmentConfig {
        SegmentConfig {
            size: 4 * 1024 * 1024,
            max_cpus: 4,
        }
    }

    #[test]
    fn create_and_validate() {
        let seg = ShmSegment::create(small());
        assert!(seg.validate());
        assert_eq!(seg.size(), 4 * 1024 * 1024);
        assert!(seg.geometry().n_chunks > 0);
    }

    #[test]
    fn clone_models_second_mapping() {
        let seg = ShmSegment::create(small());
        assert_eq!(seg.mapping_count(), 1);
        let seg2 = seg.clone();
        assert_eq!(seg.mapping_count(), 2);
        // Both handles see the same memory.
        let off = Shoff::<u64>::from_raw(seg.geometry().data_off as u64);
        // SAFETY: data_off is in-bounds and chunk-aligned; both handles map
        // the same live segment.
        unsafe { seg.resolve(off).write(0xdead_beef) };
        // SAFETY: reads the word just written, through the second handle.
        assert_eq!(unsafe { *seg2.resolve(off) }, 0xdead_beef);
        drop(seg2);
        assert_eq!(seg.mapping_count(), 1);
    }

    #[test]
    fn open_or_create_returns_same_segment() {
        let (a, created_a) = ShmSegment::open_or_create("test-seg-A", small());
        let (b, created_b) = ShmSegment::open_or_create("test-seg-A", small());
        assert!(created_a);
        assert!(!created_b);
        assert_eq!(a.mapping_count(), 2);
        drop(a);
        drop(b);
        // After all handles drop, reopening creates a fresh segment.
        let (_c, created_c) = ShmSegment::open_or_create("test-seg-A", small());
        assert!(created_c);
    }

    #[test]
    fn offset_of_roundtrip() {
        let seg = ShmSegment::create(small());
        let off = Shoff::<u32>::from_raw(seg.geometry().data_off as u64 + 128);
        let ptr = seg.resolve(off);
        assert_eq!(seg.offset_of(ptr), off);
    }

    #[test]
    #[should_panic(expected = "not inside")]
    fn offset_of_foreign_pointer_panics() {
        let seg = ShmSegment::create(small());
        let x = 5u32;
        let _ = seg.offset_of(&x as *const u32);
    }

    #[test]
    fn user_root_single_initialization() {
        let seg = ShmSegment::create(small());
        assert!(seg.user_root::<u8>().is_null());
        let first = seg.init_user_root_once(|| Shoff::<u8>::from_raw(4096));
        let second = seg.init_user_root_once(|| Shoff::<u8>::from_raw(8192));
        assert_eq!(first.raw(), 4096);
        assert_eq!(second.raw(), 4096, "second initializer must be ignored");
        assert_eq!(seg.user_root::<u8>().raw(), 4096);
    }

    #[test]
    fn pids_are_unique() {
        let seg = ShmSegment::create(small());
        let a = seg.next_pid();
        let b = seg.next_pid();
        assert_ne!(a, b);
    }

    #[test]
    fn heap_backing_reports_not_os_shared() {
        let seg = ShmSegment::create(small());
        assert!(!seg.is_os_shared());
        assert_eq!(seg.os_backend(), None);
        assert_eq!(seg.capabilities(), 0);
    }

    #[test]
    fn named_segment_cross_mapping_roundtrip() {
        if !crate::os_backing_available() {
            eprintln!("skipping: no OS backing available");
            return;
        }
        let name = format!("seg-test-{}", std::process::id());
        let seg = ShmSegment::create_named(&name, small(), CAP_GUEST_JOIN).unwrap();
        assert!(seg.is_os_shared());
        assert!(seg.validate());
        assert_eq!(seg.capabilities(), CAP_GUEST_JOIN);
        // A named attach is a *separate mapping* (usually at a different
        // address), which is what exercises position independence.
        let other = ShmSegment::attach_named(&name).unwrap();
        assert!(other.is_os_shared());
        assert!(other.validate());
        assert_eq!(other.size(), seg.size());
        assert_eq!(other.geometry().n_chunks, seg.geometry().n_chunks);
        assert_eq!(other.capabilities(), CAP_GUEST_JOIN);
        // Objects allocated through one mapping are visible through — and
        // freeable from — the other (§3.5's cross-process free).
        let off = seg.alloc_zeroed(128, 0).unwrap();
        // SAFETY: `off` was just allocated, so it is in-bounds and unshared.
        unsafe { seg.resolve(off).write(0x42u8) };
        // SAFETY: reads the byte just written, through the other mapping.
        assert_eq!(unsafe { *other.resolve(off) }, 0x42);
        other.free(off, 1);
        let stats = seg.alloc_stats();
        assert_eq!(stats.total_allocs, stats.total_frees);
        drop(other);
        drop(seg);
        // Owner gone: the name is unpublished.
        assert!(ShmSegment::attach_named(&name).is_err());
    }

    #[test]
    fn attach_rejects_an_incompatible_version() {
        if !crate::os_backing_available() {
            eprintln!("skipping: no OS backing available");
            return;
        }
        let name = format!("seg-version-{}", std::process::id());
        let seg = ShmSegment::create_named(&name, small(), CAP_GUEST_JOIN).unwrap();
        let hp = seg.inner.base.as_ptr() as *mut Header;
        // SAFETY: no other handle maps the segment yet, so nothing reads
        // the plain header word while it is rewritten.
        unsafe { (*hp).version = SEGMENT_VERSION - 1 };
        assert_eq!(
            ShmSegment::attach_named(&name).unwrap_err(),
            MapError::InvalidSegment("incompatible segment version")
        );
    }

    #[test]
    fn attach_unpublished_name_fails() {
        assert!(ShmSegment::attach_named("never-published-name-xyz").is_err());
    }

    #[test]
    fn create_named_rejects_bad_names() {
        assert_eq!(
            ShmSegment::create_named("bad name!", small(), 0).unwrap_err(),
            MapError::BadName
        );
    }
}
