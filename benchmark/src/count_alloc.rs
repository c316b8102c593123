//! A counting global allocator (after `crates/bench/src/count_alloc.rs`):
//! wraps the system allocator and, while switched on, keeps relaxed
//! atomic tallies of allocated and freed heap bytes. Off — one relaxed
//! load per call — in every pass that reports an end-to-end metric.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

pub struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// SAFETY: defers every allocation to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if COUNTING.load(Ordering::Relaxed) {
            FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
            FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }
}

/// Switch counting on or off. The harness switches it on around one rep,
/// which frees nothing that was allocated before it.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Bytes allocated minus bytes freed while counting was on.
pub fn net_bytes() -> i64 {
    ALLOCATED.load(Ordering::Relaxed) as i64 - FREED.load(Ordering::Relaxed) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_switched_on() {
        // Other tests allocate concurrently, so only lower bounds hold.
        set_counting(true);
        let before = net_bytes();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        assert!(net_bytes() >= before + (1 << 20) - (1 << 16));
        drop(v);
        set_counting(false);
    }
}
