//! Heap blocks per message: a lead over k instances is one block, and an
//! echo or vote bundle is built from a number of blocks that does not
//! depend on k.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gradecast::{BundleGradecast, GcBundleMsg};
use sim_net::PartyId;

/// Counts the blocks each thread asks the allocator for, so the test can
/// count what one call allocates while the harness runs beside it.
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
fn a_lead_is_one_block_and_a_bundle_takes_the_same_blocks_at_any_k() {
    let (n, t) = (4, 1);
    let mut built = Vec::new();
    for k in [1, 10, 1000] {
        let active = vec![true; k];
        let mut gc = BundleGradecast::<u64>::new(PartyId(0), n, t, k).unwrap();
        let (lead, lead_blocks) = blocks(|| gc.lead_msg((0..k).map(|j| Some(j as u64)).collect()));
        assert_eq!(lead_blocks, 1, "k = {k}: a lead");
        let leads = vec![lead; n];
        let (echoes, echo_blocks) =
            blocks(|| gc.on_leads((0..n).map(PartyId).zip(&leads), &active));
        let (votes, vote_blocks) =
            blocks(|| gc.on_echoes((0..n).map(|p| (PartyId(p), &echoes)), &active));
        let GcBundleMsg::Votes(votes) = votes else {
            panic!("phase 3 votes")
        };
        assert!(
            votes
                .instances()
                .all(|i| i.is_some_and(|(p, _)| !p.contains(&false))),
            "k = {k}: an all-honest round votes for every leader"
        );
        built.push((k, echo_blocks, vote_blocks));
    }
    assert!(
        built
            .windows(2)
            .all(|w| (w[0].1, w[0].2) == (w[1].1, w[1].2)),
        "blocks per (k, echo, vote): {built:?}"
    );
}
