//! A minimal flash translation layer (FTL) for the memory controller.
//!
//! NAND forbids in-place update: rewriting a logical page means writing a
//! new physical page and invalidating the old one, with garbage
//! collection reclaiming blocks full of stale pages. The paper's
//! controller sits *below* this layer; providing a small, correct FTL
//! here lets whole-workload studies (and the differentiated-services
//! layer) run realistic overwrite traffic on top of the cross-layer
//! machinery.
//!
//! [`LogicalMap`] is the pure mapping/allocation/garbage-collection
//! state machine. It owns **no controller**: a logical write is *planned*
//! into an ordered sequence of physical operations ([`FtlOp`]) that the
//! caller executes however it likes. The workload simulator
//! (`mlcx_core::sim`) drives it, compiling plans into batched
//! `StorageEngine` commands so every relocation write goes through the
//! service's cross-layer operating point.
//!
//! Design points (kept deliberately simple and fully tested):
//!
//! * logical space = all blocks minus one spare (GC headroom);
//! * allocation is wear-aware: the next open block is the erased block
//!   with the fewest P/E cycles — a greedy wear-leveler;
//! * garbage collection is greedy-victim: the block with the most stale
//!   pages is reclaimed, live pages relocated;
//! * cleaning runs *early*: whenever the writable-slot reserve falls to
//!   one block's worth, GC runs before the next host write. This keeps
//!   the invariant `free slots >= live(victim)` so a relocation can
//!   never strand (the seed implementation could report a spurious
//!   `OutOfSpace` when every block held a mix of live and stale pages
//!   and no fully-erased block was left to relocate into).

use std::ops::Range;

/// Errors raised by the FTL layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FtlError {
    /// Logical page number beyond the exported capacity.
    LpnOutOfRange {
        /// The offending logical page number.
        lpn: usize,
        /// Exported logical pages.
        capacity: usize,
    },
    /// No space left even after garbage collection (over-committed).
    OutOfSpace,
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::LpnOutOfRange { lpn, capacity } => {
                write!(f, "logical page {lpn} out of range ({capacity} exported)")
            }
            FtlError::OutOfSpace => write!(f, "no reclaimable space left"),
        }
    }
}

impl std::error::Error for FtlError {}

/// FTL traffic and maintenance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host page writes accepted.
    pub host_writes: u64,
    /// Physical page writes issued (host + GC and scrub relocation, so
    /// write amplification stays honest about maintenance traffic).
    pub physical_writes: u64,
    /// Garbage-collection passes run.
    pub gc_runs: u64,
    /// Live pages relocated by GC.
    pub relocated_pages: u64,
    /// Scrub reclaims whose victim qualified on program-interference
    /// RBER (neighbor coupling, die program disturb, or a partially
    /// programmed page) — a subset of the reclaimed blocks, attributing
    /// maintenance traffic to program-side corruption. The reclaims
    /// themselves are the [`FtlOp::Erase`]s of the plans
    /// `LogicalMap::plan_reclaim` returns.
    pub interference_reclaims: u64,
}

impl FtlStats {
    /// Write amplification: physical / host writes.
    ///
    /// An empty history has amplified nothing, so this reports the
    /// neutral 1.0 instead of dividing by zero (the seed returned 0.0,
    /// which read as "better than ideal" in dashboards).
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            self.physical_writes as f64 / self.host_writes as f64
        }
    }

    /// Counter-wise difference `self - earlier` (for per-phase deltas).
    ///
    /// Saturates at zero, so a stale snapshot can never produce
    /// underflowed counters.
    pub fn delta_since(&self, earlier: &FtlStats) -> FtlStats {
        FtlStats {
            host_writes: self.host_writes.saturating_sub(earlier.host_writes),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
            gc_runs: self.gc_runs.saturating_sub(earlier.gc_runs),
            relocated_pages: self.relocated_pages.saturating_sub(earlier.relocated_pages),
            interference_reclaims: self
                .interference_reclaims
                .saturating_sub(earlier.interference_reclaims),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    Erased,
    Live(usize), // lpn
    Stale,
}

/// One physical operation of a logical-write plan, in execution order.
///
/// Produced by [`LogicalMap::plan_write`]; the caller must execute the
/// operations in sequence (a [`FtlOp::Relocate`] reads its `from` page
/// before the plan's later [`FtlOp::Erase`] destroys it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlOp {
    /// Erase a reclaimed block (all its live pages have been relocated
    /// by preceding [`FtlOp::Relocate`] operations).
    Erase {
        /// The block to erase.
        block: usize,
    },
    /// Copy a live page out of a garbage-collection victim.
    Relocate {
        /// The logical page being moved.
        lpn: usize,
        /// Source `(block, page)`.
        from: (usize, usize),
        /// Destination `(block, page)`.
        to: (usize, usize),
    },
    /// Write the host's payload for `lpn` to the allocated destination.
    Write {
        /// The logical page being written.
        lpn: usize,
        /// Destination `(block, page)`.
        to: (usize, usize),
    },
}

/// The controller-free FTL core: logical-to-physical mapping, wear-aware
/// allocation and garbage-collection *planning* over a block range.
///
/// The map assumes every block in its range starts erased (callers
/// format the range first) and that the planned [`FtlOp`]s are executed
/// in order; its internal state advances at planning time.
///
/// # Example
///
/// ```
/// use mlcx_controller::{FtlOp, LogicalMap};
///
/// let mut map = LogicalMap::new(0..4, 8);
/// assert_eq!(map.capacity_pages(), 3 * 8);
/// let plan = map.plan_write(0, &mut |_block| 0)?;
/// // A fresh map: one plain write, no GC.
/// assert!(matches!(plan[..], [FtlOp::Write { lpn: 0, .. }]));
/// assert_eq!(map.translate(0), Some((0, 0)));
/// # Ok::<(), mlcx_controller::FtlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LogicalMap {
    blocks: Range<usize>,
    pages_per_block: usize,
    /// Blocks per die of the underlying topology (`usize::MAX` when the
    /// map ignores dies — the historical single-die behaviour).
    blocks_per_die: usize,
    /// lpn -> (block, page), absolute block ids; lpns are dense in
    /// `0..capacity_pages`.
    map: Vec<Option<(usize, usize)>>,
    /// Physical page states, `[block - blocks.start][page]`.
    states: Vec<Vec<PageState>>,
    /// Currently open block and its next free page, if any.
    open: Option<(usize, usize)>,
    /// Pages in the `Erased` state (writable slots).
    free_slots: usize,
    capacity_pages: usize,
    /// Allocation stamp per die the range touches (`die - first die`):
    /// the striping allocator round-robins away from recently-opened
    /// dies so consecutive writes land behind different channels.
    die_stamp: Vec<u64>,
    alloc_counter: u64,
    stats: FtlStats,
}

impl LogicalMap {
    /// A map over `blocks`, all of which must be erased. Allocation is
    /// wear-aware but die-blind (the single-die behaviour); use
    /// [`LogicalMap::striped`] on multi-die topologies.
    ///
    /// # Panics
    ///
    /// Panics when the range holds fewer than two blocks or
    /// `pages_per_block` is zero (no room for the GC spare).
    pub fn new(blocks: Range<usize>, pages_per_block: usize) -> Self {
        Self::striped(blocks, pages_per_block, usize::MAX)
    }

    /// A map over `blocks` striping allocation across the dies of a
    /// `blocks_per_die`-partitioned topology (see
    /// [`mlcx_nand::DeviceGeometry::blocks_per_die`]): among equally
    /// eligible erased blocks, the allocator opens a block on the die
    /// opened least recently, so sequential traffic interleaves across
    /// channels instead of filling one die end to end. With a single
    /// die (or `usize::MAX`) this is exactly [`LogicalMap::new`].
    ///
    /// # Panics
    ///
    /// Panics when the range holds fewer than two blocks,
    /// `pages_per_block` is zero, or `blocks_per_die` is zero.
    pub fn striped(blocks: Range<usize>, pages_per_block: usize, blocks_per_die: usize) -> Self {
        let count = blocks.len();
        assert!(
            count >= 2 && pages_per_block > 0,
            "LogicalMap needs at least two blocks (one is GC headroom)"
        );
        assert!(blocks_per_die > 0, "blocks_per_die must be positive");
        let first_die = blocks.start / blocks_per_die;
        let last_die = (blocks.end - 1) / blocks_per_die;
        let capacity_pages = (count - 1) * pages_per_block;
        LogicalMap {
            states: vec![vec![PageState::Erased; pages_per_block]; count],
            free_slots: count * pages_per_block,
            capacity_pages,
            blocks,
            pages_per_block,
            blocks_per_die,
            map: vec![None; capacity_pages],
            open: None,
            die_stamp: vec![0; last_die - first_die + 1],
            alloc_counter: 0,
            stats: FtlStats::default(),
        }
    }

    /// The die-stamp slot of an absolute block id.
    fn die_slot(&self, block: usize) -> usize {
        block / self.blocks_per_die - self.blocks.start / self.blocks_per_die
    }

    /// Exported logical capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// The block range the map allocates from.
    pub fn blocks(&self) -> Range<usize> {
        self.blocks.clone()
    }

    /// Traffic counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Attributes the most recent scrub reclaim to program-interference
    /// pressure (bumps [`FtlStats::interference_reclaims`]). The
    /// scrubber calls this when the victim block qualified on the
    /// interference-RBER threshold; the map itself cannot see why a
    /// reclaim was planned.
    pub(crate) fn note_interference_reclaim(&mut self) {
        self.stats.interference_reclaims += 1;
    }

    /// The physical location of a logical page, if it was ever written.
    pub fn translate(&self, lpn: usize) -> Option<(usize, usize)> {
        self.map.get(lpn).copied().flatten()
    }

    /// Every mapped logical page, sorted (deterministic iteration for
    /// verification sweeps).
    pub fn mapped_lpns(&self) -> Vec<usize> {
        (0..self.map.len())
            .filter(|&lpn| self.map[lpn].is_some())
            .collect()
    }

    fn rel(&self, block: usize) -> usize {
        debug_assert!(self.blocks.contains(&block));
        block - self.blocks.start
    }

    fn claim(&mut self, block: usize, page: usize, lpn: usize) {
        let rel = self.rel(block);
        debug_assert_eq!(self.states[rel][page], PageState::Erased);
        self.states[rel][page] = PageState::Live(lpn);
        self.free_slots -= 1;
    }

    fn retire(&mut self, block: usize, page: usize) {
        let rel = self.rel(block);
        debug_assert!(matches!(self.states[rel][page], PageState::Live(_)));
        self.states[rel][page] = PageState::Stale;
    }

    /// Plans one logical page write: an ordered [`FtlOp`] sequence ending
    /// in the host [`FtlOp::Write`], preceded by any garbage collection
    /// (relocations + erases) the allocation required. The map's state
    /// advances as if the plan were already executed, so consecutive
    /// plans compose.
    ///
    /// `wear` reports the P/E cycle count of an (absolute) block id; the
    /// allocator opens the least-worn erased block first.
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] for addresses beyond the capacity;
    /// [`FtlError::OutOfSpace`] when nothing reclaimable is left.
    pub fn plan_write(
        &mut self,
        lpn: usize,
        wear: &mut dyn FnMut(usize) -> u64,
    ) -> Result<Vec<FtlOp>, FtlError> {
        if lpn >= self.capacity_pages {
            return Err(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.capacity_pages,
            });
        }
        let mut ops = Vec::new();
        // Clean early: keep one block's worth of writable slots in
        // reserve so relocations always have somewhere to land.
        while self.free_slots <= self.pages_per_block {
            if !self.plan_gc(&mut ops, wear)? {
                break; // nothing stale anywhere: the reserve is real free space
            }
        }
        let to = self.take_slot(wear).ok_or(FtlError::OutOfSpace)?;
        self.claim(to.0, to.1, lpn);
        if let Some((ob, op)) = self.map[lpn].replace(to) {
            self.retire(ob, op);
        }
        self.stats.host_writes += 1;
        self.stats.physical_writes += 1;
        ops.push(FtlOp::Write { lpn, to });
        Ok(ops)
    }

    /// Takes the next writable slot: the open block's next page, else
    /// opens the least-worn fully-erased block (preferring the die
    /// opened least recently when striping is enabled).
    fn take_slot(&mut self, wear: &mut dyn FnMut(usize) -> u64) -> Option<(usize, usize)> {
        loop {
            if let Some((block, page)) = self.open {
                if page < self.pages_per_block {
                    self.open = Some((block, page + 1));
                    return Some((block, page));
                }
                self.open = None;
            }
            let block = self.pick_erased(wear)?;
            self.alloc_counter += 1;
            let slot = self.die_slot(block);
            self.die_stamp[slot] = self.alloc_counter;
            self.open = Some((block, 0));
        }
    }

    /// The next block to open, excluding the open block: least-recently
    /// opened die first (the channel stripe), then fewest P/E cycles,
    /// then lowest block id. With one die the stamp is constant and
    /// this degenerates to the historical wear-then-id order.
    fn pick_erased(&self, wear: &mut dyn FnMut(usize) -> u64) -> Option<usize> {
        let open_block = self.open.map(|(b, _)| b);
        let mut best: Option<((u64, u64, usize), usize)> = None;
        for (rel, pages) in self.states.iter().enumerate() {
            let block = self.blocks.start + rel;
            if Some(block) == open_block {
                continue;
            }
            if pages.iter().all(|s| *s == PageState::Erased) {
                let key = (self.die_stamp[self.die_slot(block)], wear(block), block);
                if best.is_none_or(|(k, _)| key < k) {
                    best = Some((key, block));
                }
            }
        }
        best.map(|(_, b)| b)
    }

    /// One garbage-collection round: relocate the live pages of the
    /// stalest block, then erase it. Returns `Ok(false)` when no block
    /// has a stale page to reclaim.
    fn plan_gc(
        &mut self,
        ops: &mut Vec<FtlOp>,
        wear: &mut dyn FnMut(usize) -> u64,
    ) -> Result<bool, FtlError> {
        let open_block = self.open.map(|(b, _)| b);
        let stale_count = |pages: &[PageState]| {
            pages
                .iter()
                .filter(|s| matches!(s, PageState::Stale))
                .count()
        };
        let victim = self
            .states
            .iter()
            .enumerate()
            .filter(|(rel, _)| Some(self.blocks.start + rel) != open_block)
            .max_by_key(|(_, pages)| stale_count(pages))
            .map(|(rel, _)| self.blocks.start + rel)
            .ok_or(FtlError::OutOfSpace)?;
        if stale_count(&self.states[self.rel(victim)]) == 0 {
            return Ok(false);
        }

        // The early-cleaning invariant guarantees every slot exists (the
        // reserve block is never handed to host writes while a
        // reclaimable block remains).
        self.stats.relocated_pages += self.evacuate(victim, ops, wear)? as u64;
        self.stats.gc_runs += 1;
        Ok(true)
    }

    /// The body of both reclaim plans: relocates every live page of
    /// `victim` out (in page order), marks the block erased and plans
    /// its erase, returning the pages moved. `Err` is an allocation that
    /// failed part-way — the map is half-mutated then, and the caller
    /// decides what that means.
    fn evacuate(
        &mut self,
        victim: usize,
        ops: &mut Vec<FtlOp>,
        wear: &mut dyn FnMut(usize) -> u64,
    ) -> Result<usize, FtlError> {
        let rel = self.rel(victim);
        let live: Vec<(usize, usize)> = self.states[rel]
            .iter()
            .enumerate()
            .filter_map(|(p, s)| match s {
                PageState::Live(lpn) => Some((p, *lpn)),
                _ => None,
            })
            .collect();
        let moved = live.len();
        for (page, lpn) in live {
            let to = self.take_slot(wear).ok_or(FtlError::OutOfSpace)?;
            self.claim(to.0, to.1, lpn);
            self.map[lpn] = Some(to);
            ops.push(FtlOp::Relocate {
                lpn,
                from: (victim, page),
                to,
            });
            self.stats.physical_writes += 1;
        }
        for s in &mut self.states[rel] {
            if *s != PageState::Erased {
                self.free_slots += 1;
            }
            *s = PageState::Erased;
        }
        ops.push(FtlOp::Erase { block: victim });
        Ok(moved)
    }

    /// Plans the read-reclaim of one *caller-chosen* block: every live
    /// page is relocated out (in page order), then the block is erased —
    /// resetting the device's read-disturb accumulator and, because the
    /// relocated pages are rewritten at the current device time, their
    /// retention age. Unlike garbage collection the victim need not hold
    /// a single stale page; this is the plan a scrub pass
    /// ([`crate::scrub::ScrubPolicy::plan_pass`]) emits for blocks whose
    /// disturb state crossed its thresholds.
    ///
    /// A fully erased block yields an empty plan (erasing it would only
    /// burn a P/E cycle). If the victim is the currently open block it
    /// is closed first, so none of its erased pages can serve as a
    /// relocation destination.
    ///
    /// # Panics
    ///
    /// Panics when `block` is outside the map's range (the scrubber
    /// iterates [`LogicalMap::blocks`], so a foreign block is caller
    /// misuse, not a runtime condition).
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] when the live pages cannot all be
    /// relocated with the slots currently writable *outside* the victim;
    /// the map is left untouched — the check is atomic and up-front, so
    /// the caller can safely retry after host traffic has triggered
    /// garbage collection. (Under the planner's early-cleaning reserve
    /// invariant this cannot happen between host writes; it is
    /// reachable only on a map driven by raw reclaims.)
    pub(crate) fn plan_reclaim(
        &mut self,
        block: usize,
        wear: &mut dyn FnMut(usize) -> u64,
    ) -> Result<Vec<FtlOp>, FtlError> {
        assert!(
            self.blocks.contains(&block),
            "reclaim target {block} outside the map's range {:?}",
            self.blocks
        );
        let rel = self.rel(block);
        if self.states[rel].iter().all(|s| *s == PageState::Erased) {
            return Ok(Vec::new());
        }
        let (mut erased_in_victim, mut live) = (0, 0);
        for s in &self.states[rel] {
            match s {
                PageState::Erased => erased_in_victim += 1,
                PageState::Live(_) => live += 1,
                PageState::Stale => {}
            }
        }
        // The victim's own erased pages are counted in free_slots but
        // can never be allocated (the block is not fully erased, and is
        // closed below if open): check against the usable remainder
        // before mutating anything.
        if live > self.free_slots - erased_in_victim {
            return Err(FtlError::OutOfSpace);
        }
        if self.open.map(|(b, _)| b) == Some(block) {
            self.open = None;
        }
        let mut ops = Vec::with_capacity(live + 1);
        // The up-front capacity check guarantees every allocation:
        // every erased page outside the (now closed) victim is
        // reachable by take_slot, so evacuation cannot fail part-way.
        self.evacuate(block, &mut ops, wear)?;
        Ok(ops)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::*;

    /// What a device remembers, without the device: the tag (standing in
    /// for a payload) each programmed physical page holds, and how often
    /// each block was erased. Plans execute in order, as every
    /// [`LogicalMap`] caller must, and programming a page that is not
    /// erased is a test failure.
    struct Media {
        map: LogicalMap,
        pages: BTreeMap<(usize, usize), u8>,
        erases: BTreeMap<usize, u64>,
    }

    impl Media {
        /// 6 blocks x 8 pages: small enough that GC runs early and often.
        fn small() -> Self {
            Media {
                map: LogicalMap::new(0..6, 8),
                pages: BTreeMap::new(),
                erases: BTreeMap::new(),
            }
        }

        fn program(&mut self, to: (usize, usize), tag: u8) {
            assert!(
                self.pages.insert(to, tag).is_none(),
                "programmed {to:?} without an erase"
            );
        }

        fn write(&mut self, lpn: usize, tag: u8) -> Result<(), FtlError> {
            let erases = &self.erases;
            let plan = self
                .map
                .plan_write(lpn, &mut |b| erases.get(&b).copied().unwrap_or(0))?;
            for op in plan {
                match op {
                    FtlOp::Relocate { from, to, .. } => {
                        let moved = self.pages[&from];
                        self.program(to, moved);
                    }
                    FtlOp::Erase { block } => {
                        self.pages.retain(|&(b, _), _| b != block);
                        *self.erases.entry(block).or_default() += 1;
                    }
                    FtlOp::Write { to, .. } => self.program(to, tag),
                }
            }
            Ok(())
        }

        fn read(&self, lpn: usize) -> Option<u8> {
            self.map.translate(lpn).map(|at| self.pages[&at])
        }

        /// Spread between the most- and least-erased block.
        fn wear_spread(&self) -> u64 {
            let cycles = |b| self.erases.get(&b).copied().unwrap_or(0);
            let blocks = self.map.blocks();
            let hi = blocks.clone().map(cycles).max().unwrap_or(0);
            hi - blocks.map(cycles).min().unwrap_or(0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The dense map against the ordered one it replaced, kept beside
        /// it from the plans alone: after every `plan_write` (some past
        /// the capacity) and `plan_reclaim`, the lpn -> slot map,
        /// `translate` and `mapped_lpns` agree, no physical page is
        /// mapped by two lpns, and each block's valid (live) page count
        /// is the number of lpns mapped into it.
        #[test]
        fn the_dense_map_agrees_with_an_ordered_reference(
            steps in proptest::collection::vec((0u32..8, 0usize..48), 1..300),
            wear in proptest::collection::vec(0u64..4, 6),
        ) {
            let mut map = LogicalMap::new(0..6, 8);
            let capacity = map.capacity_pages();
            let mut reference = BTreeMap::new();
            for (kind, x) in steps {
                let wear = &mut |b: usize| wear[b];
                // One reclaim in eight, the rest host writes.
                let plan = if kind == 0 {
                    map.plan_reclaim(x % 6, wear)
                } else {
                    map.plan_write(x, wear)
                };
                for op in plan.unwrap_or_default() {
                    if let FtlOp::Write { lpn, to } | FtlOp::Relocate { lpn, to, .. } = op {
                        reference.insert(lpn, to);
                    }
                }
                let dense: BTreeMap<usize, (usize, usize)> = (0..capacity)
                    .filter_map(|lpn| Some((lpn, map.map[lpn]?)))
                    .collect();
                prop_assert_eq!(&dense, &reference);
                for lpn in 0..capacity + 8 {
                    prop_assert_eq!(map.translate(lpn), reference.get(&lpn).copied());
                }
                prop_assert_eq!(map.mapped_lpns(), reference.keys().copied().collect::<Vec<_>>());
                let slots: BTreeSet<(usize, usize)> = dense.values().copied().collect();
                prop_assert_eq!(slots.len(), dense.len());
                for block in map.blocks() {
                    let states = &map.states[block - map.blocks.start];
                    let valid = states.iter().filter(|s| matches!(s, PageState::Live(_))).count();
                    let mapped = slots.iter().filter(|(b, _)| *b == block).count();
                    prop_assert_eq!(valid, mapped);
                }
            }
        }
    }

    #[test]
    fn write_read_round_trip() {
        let mut media = Media::small();
        for lpn in 0..10 {
            media.write(lpn, lpn as u8 + 1).unwrap();
        }
        for lpn in 0..10 {
            assert_eq!(media.read(lpn), Some(lpn as u8 + 1), "lpn {lpn}");
        }
    }

    #[test]
    fn overwrite_returns_latest_version() {
        let mut media = Media::small();
        media.write(3, 1).unwrap();
        media.write(3, 2).unwrap();
        media.write(3, 3).unwrap();
        assert_eq!(media.read(3), Some(3));
        assert_eq!(media.map.stats().host_writes, 3);
    }

    #[test]
    fn unwritten_and_out_of_range_rejected() {
        let mut media = Media::small();
        assert!(media.map.translate(0).is_none());
        let cap = media.map.capacity_pages();
        assert!(matches!(
            media.write(cap, 1),
            Err(FtlError::LpnOutOfRange { .. })
        ));
    }

    #[test]
    fn garbage_collection_reclaims_stale_space() {
        let mut media = Media::small();
        // Hammer a small working set far beyond raw capacity: GC must
        // reclaim stale versions indefinitely.
        for round in 0..30u32 {
            for lpn in 0..4 {
                media
                    .write(lpn, (round % 7 + lpn as u32 + 1) as u8)
                    .unwrap();
            }
        }
        for lpn in 0..4 {
            assert_eq!(media.read(lpn), Some((29 % 7 + lpn as u32 + 1) as u8));
        }
        let stats = media.map.stats();
        assert!(stats.gc_runs > 0, "GC must have run");
        assert_eq!(stats.host_writes, 120);
        assert!(stats.write_amplification() >= 1.0);
    }

    #[test]
    fn wear_stays_leveled_under_hot_traffic() {
        let mut media = Media::small();
        for round in 0..60u32 {
            media.write(0, (round % 251) as u8).unwrap();
            media.write(1, (round % 13) as u8).unwrap();
        }
        // The greedy wear-aware allocator must keep the spread tight
        // relative to the total erase work.
        let spread = media.wear_spread();
        assert!(spread <= 6, "wear spread = {spread}");
        assert!(media.map.stats().gc_runs > 0);
    }

    #[test]
    fn full_logical_capacity_is_usable() {
        let mut media = Media::small();
        let cap = media.map.capacity_pages();
        for lpn in 0..cap {
            media.write(lpn, (lpn % 200) as u8 + 1).unwrap();
        }
        // Every page readable; then overwrite a few to force GC at full
        // utilization (the spare block provides the headroom).
        for lpn in (0..cap).step_by(7) {
            media.write(lpn, 9).unwrap();
        }
        assert_eq!(media.read(0), Some(9));
        assert_eq!(media.read(1), Some(2));
    }

    #[test]
    fn mixed_live_stale_blocks_never_strand() {
        // Regression for the seed's GC deadlock: spread live and stale
        // pages over *every* block so no victim is ever fully stale,
        // then keep overwriting at full utilization. The reserve
        // invariant must keep relocations serviceable throughout.
        let mut media = Media::small();
        let cap = media.map.capacity_pages();
        for lpn in 0..cap {
            media.write(lpn, (lpn % 199) as u8 + 1).unwrap();
        }
        // Overwrite lpns striding across all blocks, many rounds.
        for round in 0..8u32 {
            for lpn in (0..cap).step_by(3) {
                media.write(lpn, (round + 1) as u8).unwrap();
            }
        }
        for lpn in (0..cap).step_by(3) {
            assert_eq!(media.read(lpn), Some(8));
        }
        // Untouched lpns survived every relocation.
        assert_eq!(media.read(1), Some(2));
        assert!(
            media.map.stats().relocated_pages > 0,
            "GC must have relocated"
        );
    }

    #[test]
    fn write_amplification_neutral_on_empty_history() {
        let stats = FtlStats::default();
        assert_eq!(stats.write_amplification(), 1.0);
        let later = FtlStats {
            host_writes: 10,
            physical_writes: 15,
            gc_runs: 1,
            relocated_pages: 5,
            ..FtlStats::default()
        };
        let delta = later.delta_since(&stats);
        assert_eq!(delta.host_writes, 10);
        assert!((delta.write_amplification() - 1.5).abs() < 1e-12);
        // Saturating: a swapped delta cannot underflow.
        assert_eq!(stats.delta_since(&later).host_writes, 0);
    }

    #[test]
    fn logical_map_plans_compose_without_a_controller() {
        let mut map = LogicalMap::new(2..6, 4);
        assert_eq!(map.capacity_pages(), 12);
        assert_eq!(map.free_slots, 16);
        let mut wear = |_b: usize| 0u64;

        let plan = map.plan_write(7, &mut wear).unwrap();
        assert_eq!(plan, vec![FtlOp::Write { lpn: 7, to: (2, 0) }]);
        assert_eq!(map.translate(7), Some((2, 0)));

        // Overwrite: the old slot goes stale, a new one is claimed.
        let plan = map.plan_write(7, &mut wear).unwrap();
        assert_eq!(plan, vec![FtlOp::Write { lpn: 7, to: (2, 1) }]);
        assert_eq!(map.mapped_lpns(), vec![7]);
        assert_eq!(map.stats().host_writes, 2);
    }

    #[test]
    fn logical_map_gc_plan_orders_relocations_before_erase() {
        let mut map = LogicalMap::new(0..3, 4);
        let mut wear = |_b: usize| 0u64;
        // Fill the exported capacity (8 lpns over 3 blocks x 4 pages),
        // overwriting lpn 0 repeatedly to build stale pages.
        for lpn in 0..map.capacity_pages() {
            map.plan_write(lpn, &mut wear).unwrap();
        }
        let mut saw_gc = false;
        for _ in 0..10 {
            let plan = map.plan_write(0, &mut wear).unwrap();
            if plan.len() > 1 {
                saw_gc = true;
                // Every relocation must precede the erase of its source.
                let erase_at: Vec<usize> = plan
                    .iter()
                    .enumerate()
                    .filter_map(|(i, op)| match op {
                        FtlOp::Erase { .. } => Some(i),
                        _ => None,
                    })
                    .collect();
                assert!(!erase_at.is_empty());
                for (i, op) in plan.iter().enumerate() {
                    if let FtlOp::Relocate { from, .. } = op {
                        let erase_idx = plan
                            .iter()
                            .position(|o| matches!(o, FtlOp::Erase { block } if *block == from.0))
                            .expect("relocation source must be erased later in the plan");
                        assert!(i < erase_idx, "relocate must precede its erase");
                    }
                }
                assert!(matches!(plan.last(), Some(FtlOp::Write { lpn: 0, .. })));
            }
        }
        assert!(saw_gc, "overwrites at capacity must trigger GC");
        assert!(map.stats().gc_runs > 0);
    }

    #[test]
    fn striped_map_round_robins_across_dies() {
        // 8 blocks over 4 dies (2 blocks/die), equal wear: the stripe
        // must rotate dies 0 -> 1 -> 2 -> 3 before reusing die 0.
        let mut map = LogicalMap::striped(0..8, 2, 2);
        let mut wear = |_b: usize| 0u64;
        let mut dies_opened = Vec::new();
        for lpn in 0..8 {
            let plan = map.plan_write(lpn, &mut wear).unwrap();
            let [FtlOp::Write { to, .. }] = plan[..] else {
                panic!("fresh map must plan plain writes");
            };
            let die = to.0 / 2;
            if dies_opened.last() != Some(&die) {
                dies_opened.push(die);
            }
        }
        assert_eq!(
            dies_opened,
            vec![0, 1, 2, 3],
            "allocation must stripe across all four dies"
        );

        // Die-blind map with the same shape fills dies in block order.
        let mut blind = LogicalMap::new(0..8, 2);
        let mut first_blocks = Vec::new();
        for lpn in 0..8 {
            let plan = blind.plan_write(lpn, &mut wear).unwrap();
            let [FtlOp::Write { to, .. }] = plan[..] else {
                panic!();
            };
            first_blocks.push(to.0);
        }
        assert_eq!(first_blocks, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn striping_still_respects_wear() {
        // Two dies; die 0's erased blocks are heavily worn. After the
        // stripe rotates, the allocator must still prefer fresher
        // blocks within a die.
        let mut map = LogicalMap::striped(0..4, 2, 2);
        let mut wear = |b: usize| if b == 1 { 1000u64 } else { 0 };
        let mut opened = Vec::new();
        for lpn in 0..6 {
            let plan = map.plan_write(lpn, &mut wear).unwrap();
            let [FtlOp::Write { to, .. }] = plan[..] else {
                panic!();
            };
            if opened.last() != Some(&to.0) {
                opened.push(to.0);
            }
        }
        // Stripe: die 0 (block 0, the fresher of 0/1), die 1 (block 2),
        // then back to die 0 — block 1 is all that's left there.
        assert_eq!(opened, vec![0, 2, 1]);
    }

    #[test]
    fn plan_reclaim_relocates_live_pages_then_erases() {
        let mut map = LogicalMap::new(0..4, 4);
        let mut wear = |_b: usize| 0u64;
        for lpn in 0..6 {
            map.plan_write(lpn, &mut wear).unwrap();
        }
        // Block 0 holds lpns 0..4 live; reclaim it.
        let plan = map.plan_reclaim(0, &mut wear).unwrap();
        assert_eq!(plan.len(), 5, "4 relocations + 1 erase: {plan:?}");
        assert!(matches!(plan[4], FtlOp::Erase { block: 0 }));
        for (i, op) in plan[..4].iter().enumerate() {
            let FtlOp::Relocate { lpn, from, to } = *op else {
                panic!("expected relocation, got {op:?}");
            };
            assert_eq!(from, (0, i));
            assert_eq!(lpn, i);
            assert_ne!(to.0, 0, "destination must leave the victim");
            assert_eq!(map.translate(lpn), Some(to));
        }
        let stats = map.stats();
        assert_eq!(stats.relocated_pages, 0, "scrub moves are not GC's");
        assert_eq!(stats.gc_runs, 0);
        assert_eq!(stats.physical_writes, 6 + 4);
        assert!(stats.write_amplification() > 1.0);
        // The reclaimed block is writable again and the map still
        // composes: keep writing well past raw capacity.
        for round in 0..10 {
            for lpn in 0..6 {
                map.plan_write(lpn, &mut wear).unwrap();
            }
            let _ = round;
        }
        assert_eq!(map.mapped_lpns(), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn plan_reclaim_of_the_open_block_closes_it_first() {
        let mut map = LogicalMap::new(0..3, 4);
        let mut wear = |_b: usize| 0u64;
        // Two writes open block 0 and leave it half full.
        map.plan_write(0, &mut wear).unwrap();
        map.plan_write(1, &mut wear).unwrap();
        let plan = map.plan_reclaim(0, &mut wear).unwrap();
        // Both live pages must land outside block 0 even though its
        // open-block remainder had erased pages.
        for op in &plan {
            if let FtlOp::Relocate { to, .. } = op {
                assert_ne!(to.0, 0, "open-block remainder must not be reused");
            }
        }
        assert!(matches!(plan.last(), Some(FtlOp::Erase { block: 0 })));
    }

    #[test]
    fn plan_reclaim_degenerate_victims() {
        let mut map = LogicalMap::new(0..3, 2);
        let mut wear = |_b: usize| 0u64;
        // Fully erased block: nothing to do, no cycle burned.
        assert!(map.plan_reclaim(2, &mut wear).unwrap().is_empty());
        // All-stale block: a bare erase (overwrites staled block 0).
        map.plan_write(0, &mut wear).unwrap();
        map.plan_write(1, &mut wear).unwrap();
        map.plan_write(0, &mut wear).unwrap();
        map.plan_write(1, &mut wear).unwrap();
        let plan = map.plan_reclaim(0, &mut wear).unwrap();
        assert_eq!(plan, vec![FtlOp::Erase { block: 0 }]);
    }

    #[test]
    fn plan_reclaim_interleaves_with_overwrite_traffic() {
        // Overwrite traffic at full utilization with a reclaim per
        // round: a reclaim either produces a well-formed plan or is
        // refused with OutOfSpace (the scrubber's skip-and-retry path —
        // at 100 % utilization the writable reserve can be exactly
        // consumed), and the map stays consistent throughout.
        let mut map = LogicalMap::new(0..5, 4);
        let mut wear = |_b: usize| 0u64;
        for lpn in 0..map.capacity_pages() {
            map.plan_write(lpn, &mut wear).unwrap();
        }
        let mut reclaimed = 0;
        let mut refused = 0;
        for round in 0..10usize {
            for lpn in (0..map.capacity_pages()).step_by(2) {
                map.plan_write(lpn, &mut wear).unwrap();
            }
            match map.plan_reclaim(round % 5, &mut wear) {
                Ok(plan) => {
                    if !plan.is_empty() {
                        reclaimed += 1;
                        assert!(matches!(plan.last(), Some(FtlOp::Erase { .. })));
                    }
                }
                Err(FtlError::OutOfSpace) => refused += 1,
                Err(e) => panic!("unexpected reclaim error: {e}"),
            }
        }
        assert!(reclaimed > 0, "some reclaims must fit ({refused} refused)");
        let mut lpns = map.mapped_lpns();
        lpns.sort_unstable();
        assert_eq!(lpns, (0..map.capacity_pages()).collect::<Vec<_>>());
    }

    #[test]
    fn logical_map_rejects_degenerate_ranges() {
        let result = std::panic::catch_unwind(|| LogicalMap::new(0..1, 4));
        assert!(result.is_err(), "single-block map must be rejected");
    }
}
