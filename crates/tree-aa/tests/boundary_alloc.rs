//! The phase boundary's allocation does not grow with the tree: once the
//! tree's memos are warm, the round in which a `TreeAaParty` turns its
//! phase-1 index into a root path `P(root, x)` and starts phase 2
//! allocates the same bytes on a 1023-vertex and on a 65535-vertex
//! caterpillar, and with x at the root or at the far end of the spine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use sim_net::{step_standalone, Inbox, PartyId, Received};
use tree_aa::{EngineKind, TreeAaConfig, TreeAaParty, TreeMsg};
use tree_model::generate;

/// Counts the bytes each thread asks the allocator for, so the test can
/// count what one step allocates while the harness runs beside it.
struct CountingAlloc;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it neither
// allocates nor can run during thread teardown. `alloc_zeroed` and
// `realloc` keep their defaults, which allocate through `alloc`, so a
// zeroed block or a growth counts its full size too.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|b| b.set(b.get() + layout.size()));
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

/// Bytes party 0 allocates in its boundary round on caterpillar(`spine`,
/// 2), all `n` parties honest and holding the deepest vertex (at depth
/// `spine`) or the root, which is then the found root path's endpoint x.
fn boundary_bytes(engine: EngineKind, spine: usize, deep: bool) -> usize {
    let (n, t) = (4, 1);
    let tree = Arc::new(generate::caterpillar(spine, 2));
    let at = if deep {
        let deepest = tree.vertices().max_by_key(|&v| tree.depth(v));
        deepest.expect("non-empty tree")
    } else {
        tree.root()
    };
    let cfg = TreeAaConfig::new(n, t, engine, &tree).expect("n > 3t");
    let mut parties: Vec<TreeAaParty> = (0..n)
        .map(|i| TreeAaParty::new(PartyId(i), cfg.clone(), Arc::clone(&tree), at))
        .collect();
    // `TreeAaParty::new` warmed the Euler list; warm the LCA table too.
    tree.lca_table();
    let boundary = cfg.phase1_rounds() + 1;
    let mut inboxes: Vec<Inbox<TreeMsg>> = vec![Inbox::empty(); n];
    for r in 1..boundary {
        let mut next: Vec<Vec<Received<TreeMsg>>> = vec![Vec::new(); n];
        for (i, p) in parties.iter_mut().enumerate() {
            let out = step_standalone(p, PartyId(i), n, r, &inboxes[i]);
            for env in out.envelopes() {
                next[env.to.index()].push(Received {
                    from: env.from,
                    payload: env.payload,
                });
            }
        }
        inboxes = next.into_iter().map(Inbox::from_messages).collect();
    }
    let before = BYTES.with(Cell::get);
    step_standalone(&mut parties[0], PartyId(0), n, boundary, &inboxes[0]);
    let bytes = BYTES.with(Cell::get) - before;
    let path = parties[0].found_path().expect("the boundary sets the path");
    assert_eq!(
        path.endpoints(),
        (tree.root(), at),
        "identical inputs: x = the input"
    );
    bytes
}

#[test]
fn the_boundary_round_allocates_the_same_bytes_whatever_the_tree_size_and_depth() {
    // Across sizes: the halving engine counts its iterations, so any
    // difference between a 1023- and a 65535-vertex tree (x 341 and 21845
    // deep) would be the boundary's own.
    assert_eq!(
        boundary_bytes(EngineKind::Halving, 341, true),
        boundary_bytes(EngineKind::Halving, 21_845, true),
        "halving engine, 341- vs 21845-vertex spine"
    );
    // The gradecast engine that ships logs one value per iteration in a
    // doubling `Vec`, so whether its last phase-1 push reallocates depends
    // on the iteration count (8 and 10 on these two trees). On one tree,
    // the boundary's bytes must not depend on how deep x lies.
    assert_eq!(
        boundary_bytes(EngineKind::Gradecast, 21_845, false),
        boundary_bytes(EngineKind::Gradecast, 21_845, true),
        "gradecast engine, x at the root vs 21845 deep"
    );
}
