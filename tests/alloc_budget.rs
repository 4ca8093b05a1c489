//! Heap allocations of the page path, pinned as exact counts.
//!
//! The per-page fixed costs were paid down to: nothing for a program or
//! an erase once a block's buffers exist (nothing at all for a program
//! handed owned buffers), the two buffers a bare device read hands to its
//! caller, and the parity plus the read's payload per write-and-read pair
//! through the whole engine on the benchmark's `fresh_mixed` shape (the
//! controller senses the spare into a buffer it keeps), with nothing
//! else but the batch's two vectors (`core.engine.allocs_per_cmd` there,
//! 1.01 with its shuffled merge);
//! and at end of life, on the `t` = 65 and `t` = 14 codes, nothing for a
//! clean decode, five for a dirty one and four where the locator has its
//! roots in closed form. Counts are exact for a given command sequence,
//! so a change here is a deliberate edit, not noise. Building an engine
//! is held by its bytes instead: under 64 KiB, with no field table among
//! them.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! on another thread would count into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use mlcx::gf2::GfField;
use mlcx::{BchCode, Command, DecodeOutcome, EngineBuilder, NandDevice, Objective};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters, allocations and their bytes.
/// `realloc` and `alloc_zeroed` are the trait's defaults, which go
/// through `alloc`: each counts once.
struct Counting;

// SAFETY: a counting `#[global_allocator]` has no safe form (the trait
// is unsafe). Both methods forward their arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counter
// touches no allocator state and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`.
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes (its result is dropped after the count).
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    let after = ALLOCS.load(Relaxed);
    drop(out);
    after - before
}

/// Bytes `f` allocates (its result is dropped after the count).
fn bytes<T>(f: impl FnOnce() -> T) -> u64 {
    let before = BYTES.load(Relaxed);
    let out = f();
    let after = BYTES.load(Relaxed);
    drop(out);
    after - before
}

#[test]
fn the_page_path_stays_inside_its_allocation_budget() {
    // --- the bare device, from a block's second fill on ---
    let mut dev = NandDevice::date2012(1);
    let pages = dev.geometry().pages_per_block;
    let data = vec![0xC3u8; dev.geometry().page_bytes];
    let parity = vec![0x0Fu8; 130];
    let fill = |dev: &mut NandDevice| {
        allocations(|| {
            for page in 0..pages {
                dev.program_page(0, page, &data, &parity).unwrap();
            }
        })
    };
    dev.erase_block(0).unwrap();
    fill(&mut dev); // the first fill allocates the block's buffers
    assert_eq!(allocations(|| dev.erase_block(0).unwrap()), 0, "erase");
    assert_eq!(fill(&mut dev), 0, "second fill");
    // Owned buffers become the stored pages: nothing to allocate, even
    // on a block's first fill.
    let owned: Vec<_> = (0..pages).map(|_| (data.clone(), parity.clone())).collect();
    dev.erase_block(1).unwrap();
    let owned_fill = allocations(|| {
        for (page, (data, parity)) in owned.into_iter().enumerate() {
            dev.program_page(1, page, data, parity).unwrap();
        }
    });
    assert_eq!(owned_fill, 0, "owned first fill");
    for page in 0..pages {
        assert_eq!(
            allocations(|| dev.read_page(0, page).unwrap()),
            2,
            "a read allocates the payload and the spare it returns"
        );
    }

    // --- building the engine: the field's tables are static and the 65
    // generators are built from their coset leaders: 53 626 bytes,
    // where the tables took 131 072 + 262 140 bytes and the generators'
    // cosets another 65 535 (a `seen` flag per exponent) ---
    let built = bytes(|| EngineBuilder::date2012().build().unwrap());
    assert!(
        built < 64 << 10,
        "building an engine allocates {built} bytes"
    );

    // --- through the engine: erase + 128 writes + 128 reads, the
    // benchmark's `fresh_mixed` segment ---
    let mut engine = EngineBuilder::date2012().seed(7).build().unwrap();
    let svc = engine
        .register_service("mixed", Objective::Baseline, 0..64)
        .unwrap();
    let prefill: Vec<Command> = (0..pages)
        .map(|page| Command::write(svc, 32, page, data.clone()))
        .collect();
    engine.sq().submit_owned(prefill).unwrap();
    assert!(engine.cq().drain().iter().all(|c| c.result.is_ok()));
    let segment = |engine: &mut mlcx::StorageEngine| {
        // Commands and payloads exist before the count starts, as in the
        // benchmark; completions are dropped after it stops.
        let mut cmds = vec![Command::erase(svc, 0)];
        for page in 0..pages {
            cmds.push(Command::write(svc, 0, page, data.clone()));
            cmds.push(Command::read(svc, 32, (page * 37) % pages));
        }
        let commands = cmds.len() as u64;
        let allocs = allocations(|| {
            engine.sq().submit_owned(cmds).unwrap();
            let done = engine.cq().drain();
            assert!(done.iter().all(|c| c.result.is_ok()));
            done
        });
        (allocs, commands)
    };
    segment(&mut engine); // warm-up: block 0's buffers, queue capacities
    let (allocs, commands) = segment(&mut engine);
    assert_eq!(commands, 257);
    // One parity per write (it becomes the stored spare, as the write's
    // payload becomes the stored page) and one payload per read (its spare
    // is sensed into the controller's buffer), plus the two vectors the
    // batch hands back: its ids and its completions. The event heap, the
    // completion slab and the flow samples keep their capacity from the
    // warm-up.
    let per_command = 2 * pages as u64;
    assert_eq!(
        allocs,
        per_command + 2,
        "{allocs} allocations for {commands} commands; {per_command} belong to the pages"
    );

    // --- end of life: the 17-word register of the t = 65 code, which
    // folds on the stack whatever multiply the CPU has ---
    let field = std::sync::Arc::new(GfField::new(16).unwrap());
    let code = BchCode::new(field, data.len() * 8, 65).unwrap();
    let mut page = data.clone();
    let mut parity = code.encode(&page).unwrap();
    let clean = allocations(|| code.decode(&mut page, &mut parity).unwrap());
    assert_eq!(clean, 0, "a clean page decodes in place");
    for bit in (0..40).map(|i| 811 * i + 3) {
        page[bit / 8] ^= 1 << (bit % 8);
    }
    let mut outcome = None;
    let dirty = allocations(|| outcome = Some(code.decode(&mut page, &mut parity).unwrap()));
    assert!(matches!(
        outcome,
        Some(DecodeOutcome::Corrected { bit_errors: 40, .. })
    ));
    // The syndromes (divided straight from the pass's register, no byte
    // image of it), Berlekamp-Massey's scratch and the locator it
    // returns, the root search's arena and the positions it returns.
    assert_eq!(dirty, 5, "a dirty page");

    // --- the 4-word register of the t = 14 code ---
    let field = std::sync::Arc::new(GfField::new(16).unwrap());
    let code = BchCode::new(field, data.len() * 8, 14).unwrap();
    let mut page = data.clone();
    let mut parity = code.encode(&page).unwrap();
    let clean = allocations(|| code.decode(&mut page, &mut parity).unwrap());
    assert_eq!(clean, 0, "a clean page decodes in place");
    // Locators of degree 3 and 4 have their roots in closed form: the
    // buffers above but the arena.
    for errors in [3, 4] {
        for bit in (0..errors).map(|i| 9_973 * i + 5) {
            page[bit / 8] ^= 1 << (bit % 8);
        }
        let mut outcome = None;
        let dirty = allocations(|| outcome = Some(code.decode(&mut page, &mut parity).unwrap()));
        assert!(matches!(
            outcome,
            Some(DecodeOutcome::Corrected { bit_errors, .. }) if bit_errors == errors
        ));
        assert_eq!(dirty, 4, "{errors} errors");
    }
}
