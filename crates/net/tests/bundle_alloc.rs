//! Heap blocks per decoded message: decoding an echo or vote bundle takes
//! a number of blocks that does not depend on the number of instances k.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gradecast::BundleGradecast;
use net::WireCodec;
use real_aa::{BundledAaMsg, R64};
use sim_net::PartyId;

/// Counts the blocks each thread asks the allocator for, so the test can
/// count what one decoder call allocates while the harness runs beside
/// it.
struct CountingAlloc;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it neither
// allocates nor can run during thread teardown. `alloc_zeroed` and
// `realloc` keep their defaults, which allocate through `alloc`, so a
// zeroed block or a growth counts as one block too.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Blocks this thread allocated while `f` ran.
fn blocks<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (out, BLOCKS.with(Cell::get) - before)
}

#[test]
fn decoding_a_bundle_takes_the_same_blocks_at_any_k() {
    let (n, t) = (4, 1);
    let mut decoded = Vec::new();
    for k in [1, 10, 1000] {
        let active = vec![true; k];
        let mut gc = BundleGradecast::<R64>::new(PartyId(0), n, t, k).unwrap();
        let lead = gc.lead_msg((0..k).map(|j| Some(R64::new(j as f64))).collect());
        let leads = vec![lead; n];
        let echoes = gc.on_leads((0..n).map(PartyId).zip(&leads), &active);
        let votes = gc.on_echoes((0..n).map(|p| (PartyId(p), &echoes)), &active);
        let mut per_phase = Vec::new();
        for body in [echoes, votes] {
            let msg = BundledAaMsg { iter: 0, body };
            let bytes = msg.to_bytes();
            let (back, count) = blocks(|| BundledAaMsg::from_bytes(&bytes));
            assert_eq!(back.as_ref(), Ok(&msg), "k = {k}");
            per_phase.push(count);
        }
        decoded.push((k, per_phase));
    }
    assert!(
        decoded.windows(2).all(|w| w[0].1 == w[1].1),
        "blocks per (k, [echo, vote]): {decoded:?}"
    );
}
