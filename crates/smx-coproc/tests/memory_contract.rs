//! Memory contract of the SMX-2D functional model: the traceback border
//! store holds each tile's input borders as two EW-packed words plus an
//! `i32` anchor — exactly the bytes the timing model charges — and the
//! tile sweep and the traceback allocate nothing per tile. A counting
//! global allocator measures both, so a per-tile `Vec` that comes back
//! fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use smx_align_core::AlignmentConfig;
use smx_coproc::block::compute_block;
use smx_coproc::traceback::traceback_block;
use smx_coproc::{BlockMode, SmxEngine};

/// Forwards to the system allocator and tracks live bytes, peak live
/// bytes and the number of allocations. `alloc_zeroed` and `realloc`
/// keep their default implementations, which route through `alloc` /
/// `dealloc` and so are counted too.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System::alloc`, to which it forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
            let live = LIVE.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            PEAK.fetch_max(live, Ordering::SeqCst);
        }
        p
    }

    // SAFETY: same contract as `System::dealloc`, to which it forwards.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `f` left allocated, its peak live heap and its allocation count,
/// all relative to when it started. The result is returned, still alive.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let out = f();
    let retained = LIVE.load(Ordering::SeqCst) - base;
    let peak = PEAK.load(Ordering::SeqCst) - base;
    (out, retained, peak, ALLOCS.load(Ordering::SeqCst) - allocs)
}

/// A `len` bp query and a reference with seeded substitutions and
/// single-base indels, of equal length.
fn pair(len: usize) -> (Vec<u8>, Vec<u8>) {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let q: Vec<u8> = (0..len).map(|_| (next() % 4) as u8).collect();
    let mut r = q.clone();
    for i in (0..len).step_by(37) {
        r[i] = (r[i] + 1) % 4;
    }
    for i in (20..len).step_by(150) {
        r.remove(i);
        r.insert(i + 5, 2);
    }
    (q, r)
}

/// Allocations of one `compute_block` + `traceback` over a `len` bp pair,
/// with the block's tile count.
fn allocations(engine: &SmxEngine, len: usize) -> (usize, u64) {
    let (q, r) = pair(len);
    let ((out, cigar), _, _, allocs) = measure(|| {
        let out = compute_block(engine, &q, &r, None, BlockMode::Traceback).unwrap();
        let (cigar, _) = traceback_block(engine, &q, &r, out.borders.as_ref().unwrap()).unwrap();
        (out, cigar)
    });
    assert!(cigar.runs().len() > 1, "the pair must exercise a non-trivial path");
    (allocs, out.stats.tiles)
}

/// One test function only: the counters are process-wide, and the test
/// harness would otherwise run measurements concurrently.
#[test]
fn border_store_is_packed_and_the_sweep_allocates_nothing_per_tile() {
    let cfg = AlignmentConfig::DnaGap;
    let engine = SmxEngine::new(cfg.element_width(), &cfg.scoring()).unwrap();

    // 1500 x 1500 traceback block: 94 x 94 tiles at VL = 16.
    let (q, r) = pair(1500);
    let (m, n) = (q.len(), r.len());
    let (out, retained, peak, _) =
        measure(|| compute_block(&engine, &q, &r, None, BlockMode::Traceback).unwrap());
    let tiles = out.stats.tiles as usize;
    assert_eq!(tiles, 94 * 94);
    // 16 B of packed borders per tile: 2 x 16 lanes x 4 bits.
    assert_eq!(out.stats.border_bytes_stored, 16 * tiles as u64);
    // Retained: the two output border vectors plus the store.
    let store_bytes = retained - (m + n);
    assert_eq!(
        store_bytes as u64,
        out.stats.border_bytes_stored + 4 * tiles as u64,
        "store heap = packed borders + one i32 anchor per tile"
    );
    assert_eq!(peak, retained, "the sweep must hold no transient heap");

    // Allocation count does not grow with tile count: ~25x the tiles,
    // the same allocations up to the CIGAR's run vector doubling.
    let (small, small_tiles) = allocations(&engine, 300);
    let (big, big_tiles) = allocations(&engine, 1500);
    assert!(big_tiles > 20 * small_tiles);
    assert!(small <= 16, "300 bp block + traceback made {small} allocations");
    assert!(
        big <= small + 4,
        "allocations grew with tiles: {small} at {small_tiles} tiles, {big} at {big_tiles}"
    );
}
