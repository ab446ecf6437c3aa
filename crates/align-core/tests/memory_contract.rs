//! Memory contract of the golden aligner: `dp::align_codes` keeps 2-bit
//! traceback moves and two rolling score rows, never the dense `i32`
//! matrix. A counting global allocator measures the peak live heap of one
//! alignment, so a change that brings the dense matrix back fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use smx_align_core::{dp, ScoringScheme};

/// Forwards to the system allocator and tracks live and peak bytes.
/// `alloc_zeroed` and `realloc` keep their default implementations,
/// which route through `alloc` / `dealloc` and so are counted too.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System::alloc`, to which it forwards.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
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

/// Peak live heap bytes allocated while `f` runs, above what was live
/// when it started.
fn peak_bytes_during<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    drop(f());
    PEAK.load(Ordering::SeqCst) - base
}

/// One test function only: the counters are process-wide, and the test
/// harness would otherwise run measurements concurrently.
#[test]
fn align_codes_at_2000x2000_stays_under_1_5_mb_peak() {
    let q: Vec<u8> = (0..2000u32).map(|i| (i * 7 % 4 + i / 31) as u8 % 4).collect();
    let r: Vec<u8> = (0..2000u32).map(|i| (i * 5 % 4 + i / 17) as u8 % 4).collect();
    let scheme = ScoringScheme::linear(2, -4, -4).unwrap();

    // The counter sees large allocations: the dense oracle needs
    // 4 · 2001² bytes (~16 MB).
    let dense = peak_bytes_during(|| dp::full_matrix(&q, &r, &scheme));
    assert!(dense >= 4 * 2001 * 2001, "dense oracle peak {dense} B");

    // 2001 rows of ⌈2001/4⌉ = 501 move bytes (~1.0 MB) + two score rows.
    let golden = peak_bytes_during(|| dp::align_codes(&q, &r, &scheme));
    assert!(golden <= 1_500_000, "align_codes peak {golden} B exceeds 1.5 MB");
}
