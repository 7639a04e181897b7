//! The page-table walker pool, pending translation scoreboard (PTS) and
//! pending request merging buffers (PRMB).
//!
//! The pool tracks every in-flight page-table walk with its completion time,
//! the virtual page it is translating and how many requests have been merged
//! into it. The PTS is modelled functionally as a lookup from virtual page
//! number to the in-flight walk (the hardware structure is a fully-associative
//! CAM with one entry per walker, Section IV-A / Figure 9); the PRMB is the
//! per-walker budget of mergeable slots.
//!
//! Walkers are assigned to new walks in FIFO (round-robin) order, which is
//! what distributes consecutive walks across walkers and gives the per-walker
//! TPreg its characteristic L4/L3 ≫ L2 hit-rate profile (Figure 13).
//!
//! An in-flight entry is a *run* of one or more walks of one page whose
//! completions are one cycle apart: a merge-less engine replaying a
//! same-page burst admits the burst's redundant walks as one run
//! ([`WalkerPool::admit_walk_window`]) instead of one entry per walk, with
//! the same walker assignment and retirement order.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::tpreg::{PathMatch, TranslationPathRegister};
use neummu_vmem::{Asid, PathTag};

/// A two-multiply mixing hasher for the PTS map.
///
/// The PTS is probed on every TLB miss and updated on every walk start and
/// retirement — the hottest map in the whole engine. Its keys are
/// `(Asid, page number)` pairs drawn from the simulated address stream, not
/// from an adversary, so SipHash's collision-attack resistance buys nothing
/// here while costing a large fraction of each probe. The map is never
/// iterated, so hash order cannot reach any observable result (statistics,
/// artifacts, retirement order all flow through the completion heap).
#[derive(Debug, Clone, Copy, Default)]
struct PtsHasher(u64);

/// `floor(2^64 / phi)`, the multiplicative-mixing constant of Fibonacci
/// hashing: consecutive page numbers spread across the whole hash space.
const PTS_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for PtsHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One final avalanche so high state bits reach the table index.
        let mixed = (self.0 ^ (self.0 >> 32)).wrapping_mul(PTS_MIX);
        mixed ^ (mixed >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(PTS_MIX);
        }
    }

    #[inline]
    fn write_u16(&mut self, value: u16) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(PTS_MIX);
    }
}

type PtsMap = HashMap<(Asid, u64), u32, BuildHasherDefault<PtsHasher>>;

/// The result of asking the pool to start a walk. (Joining an in-flight
/// walk is a separate PTS probe: [`WalkerPool::try_merge_tagged`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalkAdmission {
    /// A new walk was started on the given walker.
    Started {
        /// Walker that accepted the walk.
        walker: usize,
        /// Completion cycle of the new walk.
        completes_at: u64,
        /// How much of the upper path the walker's TPreg matched.
        path_match: PathMatch,
        /// Page-table levels actually read from memory by this walk.
        levels_read: u32,
    },
    /// Every walker is busy and no mergeable slot is available; the requester
    /// must retry at or after the given cycle.
    Rejected {
        /// Earliest cycle at which capacity may become available.
        retry_at: u64,
    },
}

/// Consecutive walks of one in-flight run that retired back to back, with
/// no other walk retiring between them: `walks` walks of one
/// `(asid, page)`, the first completing at `completed_at` and each later one
/// a cycle after the previous. The caller fills the TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetiredWalks {
    /// Context the walks belong to.
    pub asid: Asid,
    /// Page number (at the engine's page size) that was translated.
    pub page_number: u64,
    /// Cycle at which the first of the walks finished.
    pub completed_at: u64,
    /// Number of walks retired (at least 1).
    pub walks: u64,
    /// Number of requests that were merged into the walks. Only a run of
    /// one walk accepts merges, so this is nonzero only when `walks == 1`.
    pub merged_requests: u32,
    /// Whether the walked page was actually mapped.
    pub mapped: bool,
}

/// The result of [`WalkerPool::admit_walk_window`]: `admitted` walks
/// accepted one per cycle from the window's first cycle, and the walks of
/// the head run that retired inside the window, interleaved with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkWindow {
    /// Walks admitted (0 when the window's first cycle is not arithmetic).
    pub admitted: u64,
    /// The head run's walks that retired inside the window: walk `j` of
    /// them retired at the start of cycle `completed_at + j`, before that
    /// cycle's admission.
    pub retired: Option<RetiredWalks>,
}

/// An in-flight run of `walks ≥ 1` walks of one `(asid, page)`, completing
/// one cycle apart. A single walk is a run of one. The run's walkers form a
/// chain through [`WalkerPool::next_walker`] from `head` (the next walk to
/// retire) to `tail` (the last admitted).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct InFlightRun {
    asid: Asid,
    page_number: u64,
    head: usize,
    tail: usize,
    /// Walks still in flight; 0 once the run has fully retired.
    walks: u64,
    /// Completion cycle of the head walk.
    completes_at: u64,
    merged_requests: u32,
    mapped: bool,
    /// Set by [`WalkerPool::flush_asid`]: the run's context was torn down
    /// while it was in flight. Its PTS entry is already gone (a fresh
    /// same-key walk may own that key now), and every walk it has left
    /// retires discarded.
    flushed: bool,
    /// When nonzero, the serving walker hard-failed during this walk and is
    /// parked (not returned to the free list) at retirement until this
    /// cycle. Set only by [`WalkerPool::start_walk_perturbed`], whose runs
    /// hold one walk.
    quarantine_until: u64,
}

/// One heap entry per in-flight run, keyed by its head walk: the
/// retirement order — completion cycle, ties broken by walk slot — packed
/// into one integer, so the heap compares without branching. The slot is
/// also where the run is stored in [`WalkerPool::runs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct HeapEntry {
    key: u128,
}

impl HeapEntry {
    #[inline]
    fn new(completes_at: u64, slot: u32) -> Self {
        HeapEntry {
            key: (u128::from(completes_at) << 32) | u128::from(slot),
        }
    }

    #[inline]
    fn completes_at(&self) -> u64 {
        (self.key >> 32) as u64
    }

    #[inline]
    fn slot(&self) -> u32 {
        self.key as u32
    }
}

/// Min-heap ordering: the earliest key is the greatest.
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The pool of hardware page-table walkers.
///
/// In-flight walks are held as runs (see [`WalkerPool::admit_walk_window`]).
/// Retirement order is the order of a pool that held every walk on its own:
/// by completion cycle, ties broken by the *walk slot* such a pool would
/// have stored the walk in, lowest first (freed slots are reused
/// last-freed-first; a fresh one is the next unused number). Runs keep that
/// numbering per walk — `walk_slots`, `free_slots` and `slots_issued` replay
/// it exactly — so batching walks never reorders tied retirements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WalkerPool {
    num_walkers: usize,
    prmb_slots: usize,
    walk_latency_per_level: u64,
    tpreg_enabled: bool,
    tpregs: Vec<TranslationPathRegister>,
    /// FIFO of idle walker indices (round-robin assignment).
    free_walkers: VecDeque<usize>,
    /// Per walker: the walker of the next walk of the same run.
    next_walker: Vec<usize>,
    /// Per walker: the walk slot of the walk it is serving, for walks a
    /// window admitted (a head walk's slot is its run's heap-entry slot).
    walk_slots: Vec<u32>,
    /// Freed walk slots, reused last-freed-first.
    free_slots: Vec<u32>,
    /// Walk slots handed out so far (the next fresh slot number).
    slots_issued: u32,
    /// In-flight runs, each stored in the slot of its head walk. Slots are
    /// unique among in-flight walks, so no two runs share one; a run moves
    /// to its new head's slot when it retires walks and keeps some.
    runs: Vec<InFlightRun>,
    /// The slot of the most recently admitted run: a walk window may
    /// extend it.
    last_run: Option<u32>,
    /// PTS: (context, page number) -> in-flight run. Tagging the key
    /// with the ASID keeps one tenant's requests from merging into another
    /// tenant's in-flight walk of the same virtual page. Only maintained
    /// when merging is enabled, where every run holds one walk.
    pts: PtsMap,
    /// Completion order: one entry per run.
    heap: BinaryHeap<HeapEntry>,
    /// Hard-failed walkers parked until their cool-down expires, as
    /// `(walker, readmit_at)`. Empty unless fault injection quarantined a
    /// walker; healthy runs never touch it.
    quarantined: Vec<(usize, u64)>,
}

impl WalkerPool {
    /// Creates a pool of `num_walkers` walkers, each with `prmb_slots`
    /// mergeable PRMB slots (0 disables merging) and a per-level walk latency.
    ///
    /// # Panics
    ///
    /// Panics if `num_walkers` is zero.
    #[must_use]
    pub fn new(
        num_walkers: usize,
        prmb_slots: usize,
        walk_latency_per_level: u64,
        tpreg_enabled: bool,
    ) -> Self {
        assert!(num_walkers > 0, "the walker pool needs at least one walker");
        WalkerPool {
            num_walkers,
            prmb_slots,
            walk_latency_per_level,
            tpreg_enabled,
            tpregs: vec![TranslationPathRegister::new(); num_walkers],
            free_walkers: (0..num_walkers).collect(),
            next_walker: vec![0; num_walkers],
            walk_slots: vec![0; num_walkers],
            free_slots: Vec::with_capacity(num_walkers),
            slots_issued: 0,
            // At most one slot per walker is ever in use, so a fresh slot is
            // always below `num_walkers`.
            runs: vec![
                InFlightRun {
                    asid: Asid::GLOBAL,
                    page_number: 0,
                    head: 0,
                    tail: 0,
                    walks: 0,
                    completes_at: 0,
                    merged_requests: 0,
                    mapped: false,
                    flushed: false,
                    quarantine_until: 0,
                };
                num_walkers
            ],
            last_run: None,
            pts: PtsMap::default(),
            heap: BinaryHeap::with_capacity(num_walkers),
            quarantined: Vec::new(),
        }
    }

    /// Number of walkers in the pool.
    #[must_use]
    pub fn num_walkers(&self) -> usize {
        self.num_walkers
    }

    /// Number of walks currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.num_walkers - self.free_walkers.len()
    }

    /// True if a new walk could start right now (a walker is idle).
    #[must_use]
    pub fn has_free_walker(&self) -> bool {
        !self.free_walkers.is_empty()
    }

    /// Retires every walk that has completed by `cycle`, in completion
    /// order, without allocating, invoking `retire` once per maximal group
    /// of consecutive walks of one run (see [`RetiredWalks`]). The caller is
    /// responsible for filling the TLB. Returns the number of walks retired.
    ///
    /// This runs once per translate attempt, and on the overwhelming majority
    /// of calls nothing has completed: that case costs a single heap peek and
    /// returns 0 (the engine tallies these fast exits in its hot-path
    /// telemetry).
    pub fn drain_completed(&mut self, cycle: u64, mut retire: impl FnMut(RetiredWalks)) -> usize {
        let mut retired = 0usize;
        while let Some(top) = self.heap.peek() {
            if top.completes_at() > cycle {
                break;
            }
            let walks = self.retire_head(cycle);
            retired += walks.walks as usize;
            retire(walks);
        }
        retired
    }

    /// Retires the head run's walks that complete by `cycle` and precede
    /// every other run's head walk: the longest stretch of the retirement
    /// order that belongs to one run.
    #[inline]
    fn retire_head(&mut self, cycle: u64) -> RetiredWalks {
        let top = self.heap.pop().expect("retire_head on an idle pool");
        let run = self.runs[top.slot() as usize];
        self.free_slots.push(top.slot());
        if run.quarantine_until > 0 {
            // The walker hard-failed during this walk: park it instead of
            // returning it to the free list. The pool shrinks until the
            // cool-down expires and readmit_quarantined runs.
            self.quarantined.push((run.head, run.quarantine_until));
        } else {
            self.free_walkers.push_back(run.head);
        }
        let mut walks = 1;
        if run.walks == 1 {
            self.finish_run(top.slot(), &run);
        } else {
            // The run's later walks (never quarantined) follow while they
            // complete by `cycle` and precede the runner-up, now on top.
            let next = self.heap.peek().copied();
            let mut head = self.next_walker[run.head];
            let mut completes_at = run.completes_at + 1;
            while walks < run.walks && completes_at <= cycle {
                let slot = self.walk_slots[head];
                if next.is_some_and(|n| n.key < HeapEntry::new(completes_at, slot).key) {
                    break;
                }
                self.free_slots.push(slot);
                self.free_walkers.push_back(head);
                head = self.next_walker[head];
                completes_at += 1;
                walks += 1;
            }
            self.requeue_run(top.slot(), run, walks, head, completes_at);
        }
        RetiredWalks {
            asid: run.asid,
            page_number: run.page_number,
            completed_at: run.completes_at,
            walks,
            merged_requests: run.merged_requests,
            mapped: run.mapped,
        }
    }

    /// Drops a run, stored at `slot` and already off the heap, whose last
    /// walk retired.
    #[inline]
    fn finish_run(&mut self, slot: u32, run: &InFlightRun) {
        self.runs[slot as usize].walks = 0;
        if !run.flushed && self.prmb_slots > 0 {
            self.pts.remove(&(run.asid, run.page_number));
        }
    }

    /// Books the retirement of the first `retired` walks of `run`, stored at
    /// `slot` and already off the heap: it is dropped when none is left,
    /// otherwise it moves to the slot of `head` (completing at
    /// `completes_at`), its new head walk, and re-enters the heap.
    fn requeue_run(
        &mut self,
        slot: u32,
        mut run: InFlightRun,
        retired: u64,
        head: usize,
        completes_at: u64,
    ) {
        run.walks -= retired;
        if run.walks == 0 {
            self.finish_run(slot, &run);
            return;
        }
        let new_slot = self.walk_slots[head];
        run.head = head;
        run.completes_at = completes_at;
        self.runs[new_slot as usize] = run;
        if self.last_run == Some(slot) {
            self.last_run = Some(new_slot);
        }
        self.heap.push(HeapEntry::new(completes_at, new_slot));
    }

    /// Number of in-flight runs (completion-heap entries).
    #[cfg(test)]
    pub(crate) fn runs_in_flight(&self) -> usize {
        self.heap.len()
    }

    /// Earliest cycle at which any in-flight walk completes (`None` if idle).
    #[must_use]
    pub fn next_completion(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.completes_at())
    }

    /// Number of walkers currently parked in quarantine.
    #[must_use]
    pub fn quarantined_walkers(&self) -> usize {
        self.quarantined.len()
    }

    /// Earliest cycle at which a quarantined walker becomes eligible for
    /// re-admission (`None` if the quarantine is empty).
    #[must_use]
    pub fn earliest_readmit(&self) -> Option<u64> {
        self.quarantined.iter().map(|&(_, at)| at).min()
    }

    /// Returns every quarantined walker whose cool-down expired by `cycle`
    /// to the free list. Allocation-free; a no-op (one emptiness check) when
    /// nothing is quarantined, which is every cycle of a fault-free run.
    pub fn readmit_quarantined(&mut self, cycle: u64) {
        let mut i = 0;
        while i < self.quarantined.len() {
            if self.quarantined[i].1 <= cycle {
                let (walker, _) = self.quarantined.swap_remove(i);
                self.free_walkers.push_back(walker);
            } else {
                i += 1;
            }
        }
    }

    /// Probes the PTS for an in-flight walk of `(asid, page_number)` and, if
    /// present and a PRMB slot is free, merges the request into it. A
    /// request only merges into a walk of its own context.
    ///
    /// Returns the walker and completion cycle of the walk the request was
    /// merged into, or `None` if no merge was possible (no in-flight walk,
    /// merging disabled, or the walker's PRMB is full).
    pub fn try_merge_tagged(&mut self, asid: Asid, page_number: u64) -> Option<(usize, u64)> {
        if self.prmb_slots == 0 {
            return None;
        }
        let slot = *self.pts.get(&(asid, page_number))?;
        let run = &mut self.runs[slot as usize];
        if run.merged_requests as usize >= self.prmb_slots {
            return None;
        }
        run.merged_requests += 1;
        Some((run.head, run.completes_at))
    }

    /// Merges up to `requests` same-context requests into the in-flight walk
    /// of `page_number` in one step — the run-coalesced bulk form of
    /// [`WalkerPool::try_merge_tagged`]. Returns how many requests were
    /// actually merged: the PRMB budget caps the count exactly as the same
    /// number of individual `try_merge_tagged` calls would (0 when there is
    /// no in-flight walk, merging is disabled, or the PRMB is already full).
    pub fn merge_run_tagged(&mut self, asid: Asid, page_number: u64, requests: u64) -> u64 {
        if self.prmb_slots == 0 || requests == 0 {
            return 0;
        }
        let Some(&slot) = self.pts.get(&(asid, page_number)) else {
            return 0;
        };
        let run = &mut self.runs[slot as usize];
        let free = (self.prmb_slots as u64).saturating_sub(u64::from(run.merged_requests));
        let merged = requests.min(free);
        run.merged_requests += u32::try_from(merged).expect("PRMB slots fit in u32");
        merged
    }

    /// Starts a new walk at `cycle` for `page_number` in context `asid`,
    /// whose full walk would read `full_levels` page-table entries and whose
    /// upper-path tag is `tag`. `mapped` records whether the page table
    /// actually holds a translation (an unmapped page still costs a partial
    /// walk). The walk's PTS entry is keyed by `(asid, page_number)` so only
    /// same-context requests can merge into it.
    ///
    /// Returns [`WalkAdmission::Rejected`] when every walker is busy.
    pub fn start_walk_tagged(
        &mut self,
        asid: Asid,
        cycle: u64,
        page_number: u64,
        tag: PathTag,
        full_levels: u32,
        mapped: bool,
    ) -> WalkAdmission {
        let Some(walker) = self.free_walkers.pop_front() else {
            return WalkAdmission::Rejected {
                retry_at: self.rejected_retry_at(),
            };
        };

        let path_match = if self.tpreg_enabled {
            self.tpregs[walker].probe(tag)
        } else {
            PathMatch::miss()
        };
        // The TPreg can only skip levels that the walk would otherwise read:
        // for a 4 KB page all of L4/L3/L2, for a 2 MB page only L4/L3 (its L2
        // entry is the leaf and must be read to obtain the translation).
        let skippable_by_size = full_levels.saturating_sub(1);
        let skipped = path_match.skippable_levels().min(skippable_by_size);
        let levels_read = (full_levels - skipped).max(1);
        let completes_at = cycle + u64::from(levels_read) * self.walk_latency_per_level;

        if self.tpreg_enabled {
            self.tpregs[walker].fill(tag);
        }

        self.start_walk(asid, page_number, walker, completes_at, mapped, 0);
        WalkAdmission::Started {
            walker,
            completes_at,
            path_match,
            levels_read,
        }
    }

    /// Starts a walk whose latency was overridden by an injected device
    /// fault. The perturbed walk bypasses the TPreg entirely (a faulty walk
    /// reads the full path and must not pollute the path registers), costs
    /// exactly `total_latency` cycles, and — when `quarantine_until` is
    /// nonzero — parks its walker at retirement until that cycle. Everything
    /// else (PTS entry, PRMB merging, completion ordering) behaves exactly
    /// like [`WalkerPool::start_walk_tagged`], which is what makes request
    /// conservation hold under faults: a fault only ever changes a walk's
    /// latency and mapped-ness, never its riders.
    #[allow(clippy::too_many_arguments)]
    pub fn start_walk_perturbed(
        &mut self,
        asid: Asid,
        cycle: u64,
        page_number: u64,
        full_levels: u32,
        total_latency: u64,
        mapped: bool,
        quarantine_until: u64,
    ) -> WalkAdmission {
        let Some(walker) = self.free_walkers.pop_front() else {
            return WalkAdmission::Rejected {
                retry_at: self.rejected_retry_at(),
            };
        };
        let completes_at = cycle + total_latency;
        self.start_walk(
            asid,
            page_number,
            walker,
            completes_at,
            mapped,
            quarantine_until,
        );
        WalkAdmission::Started {
            walker,
            completes_at,
            path_match: PathMatch::miss(),
            levels_read: full_levels,
        }
    }

    /// Admits a closed-form window of walks of `(asid, page_number)` on a
    /// merge-less, TPreg-less pool: up to `max_walks` walks, one per cycle
    /// from `first_cycle`, each reading `levels` levels — the requests of a
    /// same-page burst that each spend their own walk (the baseline IOMMU's
    /// redundant walks, Figure 8). The walks join the most recently
    /// admitted run when they continue it (same page, completions
    /// contiguous), and form a new run otherwise.
    ///
    /// The result equals admitting the walks one at a time, each after
    /// retiring what completed by its cycle, as
    /// [`WalkerPool::start_walk_tagged`] calls would: same walkers in the
    /// same FIFO order, same walk slots, same completions. The window is
    /// cut where that stops being arithmetic — before the first cycle at
    /// which
    /// - a run other than the head run retires a walk,
    /// - the head run retires a walk that would land this page (or park its
    ///   walker in quarantine),
    /// - no walker is free (the head run's retirements inside the window
    ///   free theirs first), or
    /// - a walk admitted by this window completes.
    ///
    /// The head run's walks that retire inside the window are retired here
    /// and reported in [`WalkWindow::retired`]; the caller applies their TLB
    /// fills interleaved with its own missing lookups. Every walk that
    /// completed before `first_cycle` must already be retired.
    pub fn admit_walk_window(
        &mut self,
        asid: Asid,
        page_number: u64,
        first_cycle: u64,
        levels: u32,
        max_walks: u64,
    ) -> WalkWindow {
        debug_assert!(
            self.prmb_slots == 0 && !self.tpreg_enabled,
            "walk windows need a merge-less, TPreg-less pool"
        );
        let latency = u64::from(levels) * self.walk_latency_per_level;
        let free = self.free_walkers.len() as u64;
        let mut admitted = max_walks.min(latency);
        // The head run's retirements that may fall inside the window, and
        // the window offset of its first one.
        let mut absorbable = 0;
        let mut head_offset = 0;
        // The head run leaves the heap for the window; the runner-up is
        // then on top. (The head re-enters below, unless it fully retires.)
        let top = self.heap.pop();
        if let Some(top) = top {
            debug_assert!(top.completes_at() >= first_cycle, "undrained completion");
            head_offset = top.completes_at() - first_cycle;
            let other = self
                .heap
                .peek()
                .map_or(u64::MAX, |next| next.completes_at() - first_cycle);
            admitted = admitted.min(other);
            let run = &self.runs[top.slot() as usize];
            let lands_page = run.mapped && run.asid == asid && run.page_number == page_number;
            if lands_page || run.quarantine_until > 0 {
                admitted = admitted.min(head_offset);
            } else {
                absorbable = run.walks.min(other - head_offset);
            }
        }
        // Each cycle takes one walker from the FIFO; a retirement in the
        // same cycle returns one first. Offsets before the head run retires
        // drain the free walkers; while it retires one per cycle their
        // number holds; after it, the freed walkers drain too.
        admitted = admitted.min(if absorbable > 0 && head_offset <= free {
            free + absorbable
        } else {
            free
        });
        if admitted == 0 {
            if let Some(top) = top {
                self.heap.push(top);
            }
            return WalkWindow {
                admitted: 0,
                retired: None,
            };
        }
        let retiring = admitted.saturating_sub(head_offset).min(absorbable);

        let completes_at = first_cycle + latency;
        let extended = self.last_run.filter(|&slot| {
            let run = &self.runs[slot as usize];
            run.walks > 0
                && run.asid == asid
                && run.page_number == page_number
                && run.mapped
                && !run.flushed
                && run.merged_requests == 0
                && run.quarantine_until == 0
                && run.completes_at + run.walks == completes_at
        });
        let mut tail = extended.map(|slot| self.runs[slot as usize].tail);
        let mut head = None;
        let (mut retiring_walker, mut retiring_slot) = top.map_or((0, 0), |top| {
            (self.runs[top.slot() as usize].head, top.slot())
        });
        for offset in 0..admitted {
            let slot = if offset >= head_offset && offset - head_offset < retiring {
                // The head run's walk retires first: its walker rejoins the
                // FIFO and its slot is the one the new walk takes.
                let (walker, slot) = (retiring_walker, retiring_slot);
                retiring_walker = self.next_walker[walker];
                retiring_slot = self.walk_slots[retiring_walker];
                self.free_walkers.push_back(walker);
                slot
            } else {
                self.take_slot()
            };
            let walker = self
                .free_walkers
                .pop_front()
                .expect("a walk window never outruns the free walkers");
            self.walk_slots[walker] = slot;
            match tail {
                Some(previous) => self.next_walker[previous] = walker,
                None => head = Some(walker),
            }
            tail = Some(walker);
        }
        let tail = tail.expect("at least one walk was admitted");

        let mut retired = None;
        match top {
            Some(top) if retiring > 0 => {
                let run = self.runs[top.slot() as usize];
                let completes_at = top.completes_at() + retiring;
                self.requeue_run(top.slot(), run, retiring, retiring_walker, completes_at);
                retired = Some(RetiredWalks {
                    asid: run.asid,
                    page_number: run.page_number,
                    completed_at: top.completes_at(),
                    walks: retiring,
                    merged_requests: run.merged_requests,
                    mapped: run.mapped,
                });
            }
            Some(top) => self.heap.push(top),
            None => {}
        }

        match extended {
            Some(slot) => {
                let run = &mut self.runs[slot as usize];
                run.tail = tail;
                run.walks += admitted;
            }
            None => {
                let head = head.expect("a new run has a head walk");
                let slot = self.walk_slots[head];
                let run = InFlightRun {
                    asid,
                    page_number,
                    head,
                    tail,
                    walks: admitted,
                    completes_at,
                    merged_requests: 0,
                    mapped: true,
                    flushed: false,
                    quarantine_until: 0,
                };
                self.enqueue_run(slot, run);
            }
        }
        WalkWindow { admitted, retired }
    }

    /// Retry cycle for a rejected admission: the earliest event that frees a
    /// walker — a walk completion or a quarantine re-admission.
    fn rejected_retry_at(&self) -> u64 {
        match (self.next_completion(), self.earliest_readmit()) {
            (Some(completion), Some(readmit)) => completion.min(readmit),
            (Some(completion), None) => completion,
            (None, Some(readmit)) => readmit,
            (None, None) => {
                unreachable!("no free walkers implies an in-flight or quarantined walker")
            }
        }
    }

    /// The next walk slot: the last one freed, or a fresh one.
    #[inline]
    fn take_slot(&mut self) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                self.slots_issued += 1;
                self.slots_issued - 1
            }
        }
    }

    /// Starts a run of one walk on `walker`.
    fn start_walk(
        &mut self,
        asid: Asid,
        page_number: u64,
        walker: usize,
        completes_at: u64,
        mapped: bool,
        quarantine_until: u64,
    ) {
        let slot = self.take_slot();
        self.enqueue_run(
            slot,
            InFlightRun {
                asid,
                page_number,
                head: walker,
                tail: walker,
                walks: 1,
                completes_at,
                merged_requests: 0,
                mapped,
                flushed: false,
                quarantine_until,
            },
        );
    }

    /// Stores a new run in `slot`, its head walk's slot, and enters it
    /// into the PTS and the completion heap.
    fn enqueue_run(&mut self, slot: u32, run: InFlightRun) {
        self.runs[slot as usize] = run;
        if self.prmb_slots > 0 {
            self.pts.insert((run.asid, run.page_number), slot);
        }
        self.heap.push(HeapEntry::new(run.completes_at, slot));
        self.last_run = Some(slot);
    }

    /// Invalidates every walker's TPreg (page-table update).
    pub fn invalidate_tpregs(&mut self) {
        for reg in &mut self.tpregs {
            reg.invalidate();
        }
    }

    /// Discards every in-flight walk of one context (context teardown /
    /// page-table switch). The walks keep occupying their walkers until
    /// their completion time — hardware cannot recall a walk in flight —
    /// but their PTS entries vanish immediately, so no later request can
    /// merge into them, and they retire as unmapped, so their (stale)
    /// translations never fill the TLB. A partly retired run discards every
    /// walk it has left. Returns the number of walks discarded.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let WalkerPool {
            runs, pts, heap, ..
        } = self;
        let mut discarded = 0;
        for entry in heap.iter() {
            let run = &mut runs[entry.slot() as usize];
            if run.asid == asid && !run.flushed {
                pts.remove(&(run.asid, run.page_number));
                run.mapped = false;
                run.flushed = true;
                discarded += run.walks as usize;
            }
        }
        discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neummu_vmem::VirtAddr;

    fn tag_of_page(page: u64) -> PathTag {
        PathTag::of(VirtAddr::new(page << 12))
    }

    /// Starts a mapped four-level [`Asid::GLOBAL`] walk of `page`.
    fn start(pool: &mut WalkerPool, cycle: u64, page: u64) -> WalkAdmission {
        start_walk(pool, cycle, page, tag_of_page(page), 4, true)
    }

    fn start_walk(
        pool: &mut WalkerPool,
        cycle: u64,
        page: u64,
        tag: PathTag,
        full_levels: u32,
        mapped: bool,
    ) -> WalkAdmission {
        pool.start_walk_tagged(Asid::GLOBAL, cycle, page, tag, full_levels, mapped)
    }

    fn try_merge(pool: &mut WalkerPool, page: u64) -> Option<(usize, u64)> {
        pool.try_merge_tagged(Asid::GLOBAL, page)
    }

    /// Retires every walk completed by `cycle`, collected in completion order.
    fn retire_completed(pool: &mut WalkerPool, cycle: u64) -> Vec<RetiredWalks> {
        let mut retired = Vec::new();
        pool.drain_completed(cycle, |walk| retired.push(walk));
        retired
    }

    #[test]
    fn walks_complete_after_per_level_latency() {
        let mut pool = WalkerPool::new(2, 0, 100, false);
        match start(&mut pool, 0, 7) {
            WalkAdmission::Started {
                completes_at,
                levels_read,
                ..
            } => {
                assert_eq!(levels_read, 4);
                assert_eq!(completes_at, 400);
            }
            other => panic!("expected Started, got {other:?}"),
        }
        assert_eq!(pool.in_flight(), 1);
        assert!(retire_completed(&mut pool, 399).is_empty());
        let retired = retire_completed(&mut pool, 400);
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].page_number, 7);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn pool_rejects_when_all_walkers_busy() {
        let mut pool = WalkerPool::new(2, 0, 100, false);
        start(&mut pool, 0, 1);
        start(&mut pool, 0, 2);
        match start(&mut pool, 0, 3) {
            WalkAdmission::Rejected { retry_at } => assert_eq!(retry_at, 400),
            other => panic!("expected Rejected, got {other:?}"),
        }
        // After retiring, capacity is available again.
        retire_completed(&mut pool, 400);
        assert!(matches!(
            start(&mut pool, 400, 3),
            WalkAdmission::Started { .. }
        ));
    }

    #[test]
    fn merging_requires_prmb_slots() {
        let mut no_merge = WalkerPool::new(4, 0, 100, false);
        start(&mut no_merge, 0, 9);
        assert!(try_merge(&mut no_merge, 9).is_none());

        let mut pool = WalkerPool::new(4, 2, 100, false);
        start(&mut pool, 0, 9);
        assert!(try_merge(&mut pool, 9).is_some());
        assert!(try_merge(&mut pool, 9).is_some());
        // PRMB full after two merges.
        assert!(try_merge(&mut pool, 9).is_none());
        // A different page has no in-flight walk to merge into.
        assert!(try_merge(&mut pool, 10).is_none());
        let retired = retire_completed(&mut pool, 1_000);
        assert_eq!(retired[0].merged_requests, 2);
    }

    #[test]
    fn bulk_merges_respect_the_prmb_budget_like_individual_merges() {
        let mut pool = WalkerPool::new(4, 8, 100, false);
        start(&mut pool, 0, 9);
        // Two individual merges, then a bulk request for ten more: only the
        // six remaining slots are granted.
        assert!(try_merge(&mut pool, 9).is_some());
        assert!(try_merge(&mut pool, 9).is_some());
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 9, 10), 6);
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 9, 1), 0);
        assert!(try_merge(&mut pool, 9).is_none());
        // No in-flight walk, zero requests, disabled merging: all zero.
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 10, 4), 0);
        assert_eq!(pool.merge_run_tagged(Asid::GLOBAL, 9, 0), 0);
        let mut no_merge = WalkerPool::new(4, 0, 100, false);
        start(&mut no_merge, 0, 9);
        assert_eq!(no_merge.merge_run_tagged(Asid::GLOBAL, 9, 4), 0);
        // The retired walk carries the bulk-merged count.
        let retired = retire_completed(&mut pool, u64::MAX);
        assert_eq!(retired[0].merged_requests, 8);
    }

    #[test]
    fn merged_requests_complete_with_their_walk() {
        let mut pool = WalkerPool::new(1, 8, 50, false);
        let completes = match start(&mut pool, 10, 5) {
            WalkAdmission::Started { completes_at, .. } => completes_at,
            other => panic!("unexpected {other:?}"),
        };
        let (_, merged_completes) = try_merge(&mut pool, 5).unwrap();
        assert_eq!(merged_completes, completes);
    }

    #[test]
    fn tpreg_skips_levels_for_same_region_walks() {
        let mut pool = WalkerPool::new(1, 0, 100, true);
        // First walk of a region reads all four levels.
        match start_walk(&mut pool, 0, 0x1000, tag_of_page(0x1000), 4, true) {
            WalkAdmission::Started { levels_read, .. } => assert_eq!(levels_read, 4),
            other => panic!("unexpected {other:?}"),
        }
        retire_completed(&mut pool, u64::MAX);
        // The next page in the same 2 MB region only reads the leaf level.
        match start_walk(&mut pool, 500, 0x1001, tag_of_page(0x1001), 4, true) {
            WalkAdmission::Started {
                levels_read,
                path_match,
                completes_at,
                ..
            } => {
                assert_eq!(levels_read, 1);
                assert!(path_match.l2);
                assert_eq!(completes_at, 600);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tpreg_cannot_skip_the_leaf_of_a_2mb_walk() {
        let mut pool = WalkerPool::new(1, 0, 100, true);
        // 2 MB pages walk three levels; even a full TPreg match must still
        // read the leaf (L2) entry.
        start_walk(&mut pool, 0, 0, tag_of_page(0), 3, true);
        retire_completed(&mut pool, u64::MAX);
        match start_walk(&mut pool, 0, 1, tag_of_page(0), 3, true) {
            WalkAdmission::Started { levels_read, .. } => assert_eq!(levels_read, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn round_robin_assignment_spreads_walks_across_walkers() {
        let mut pool = WalkerPool::new(4, 0, 100, false);
        let mut walkers = Vec::new();
        for page in 0..4 {
            if let WalkAdmission::Started { walker, .. } = start(&mut pool, 0, page) {
                walkers.push(walker);
            }
        }
        walkers.sort_unstable();
        assert_eq!(walkers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn retire_order_is_completion_order() {
        let mut pool = WalkerPool::new(4, 0, 100, true);
        // Page 1 misses the TPreg (4 levels); page 2 walk on a different
        // walker also misses. Start them at different cycles.
        start(&mut pool, 100, 1);
        start(&mut pool, 0, 2);
        let retired = retire_completed(&mut pool, u64::MAX);
        assert_eq!(retired.len(), 2);
        assert!(retired[0].completed_at <= retired[1].completed_at);
        assert_eq!(retired[0].page_number, 2);
    }

    #[test]
    fn drain_completed_matches_retire_completed() {
        let build = || {
            let mut pool = WalkerPool::new(4, 2, 100, true);
            start(&mut pool, 100, 1);
            start(&mut pool, 0, 2);
            start(&mut pool, 50, 3);
            try_merge(&mut pool, 2);
            pool
        };
        let mut drained = Vec::new();
        let mut a = build();
        let count = a.drain_completed(500, |walk| drained.push(walk));
        let retired = retire_completed(&mut build(), 500);
        assert_eq!(count, drained.len());
        assert_eq!(drained, retired);
        assert_eq!(drained.len(), 3);
        assert!(drained
            .windows(2)
            .all(|w| w[0].completed_at <= w[1].completed_at));
        // Nothing left: the fast path reports zero without invoking the sink.
        assert_eq!(a.drain_completed(u64::MAX, |_| panic!("empty pool")), 0);
    }

    #[test]
    fn pts_keys_are_asid_tagged() {
        let mut pool = WalkerPool::new(4, 8, 100, false);
        let (a, b) = (Asid::new(1), Asid::new(2));
        // Tenant A walks page 9; tenant B's request to the *same* page number
        // must not merge into it (different page tables!) and starts its own
        // walk instead.
        assert!(matches!(
            pool.start_walk_tagged(a, 0, 9, tag_of_page(9), 4, true),
            WalkAdmission::Started { .. }
        ));
        assert!(pool.try_merge_tagged(b, 9).is_none());
        assert!(pool.try_merge_tagged(a, 9).is_some());
        assert!(matches!(
            pool.start_walk_tagged(b, 0, 9, tag_of_page(9), 4, true),
            WalkAdmission::Started { .. }
        ));
        // Both walks retire carrying their own ASID.
        let retired = retire_completed(&mut pool, u64::MAX);
        assert_eq!(retired.len(), 2);
        let mut asids: Vec<u16> = retired.iter().map(|w| w.asid.raw()).collect();
        asids.sort_unstable();
        assert_eq!(asids, vec![1, 2]);
        // GLOBAL is an ordinary context: its walks merge only GLOBAL requests.
        start_walk(&mut pool, 0, 5, tag_of_page(5), 4, true);
        assert!(pool.try_merge_tagged(a, 5).is_none());
        assert!(pool.try_merge_tagged(Asid::GLOBAL, 5).is_some());
    }

    #[test]
    fn unmapped_pages_still_consume_a_walk() {
        let mut pool = WalkerPool::new(1, 4, 100, false);
        start_walk(&mut pool, 0, 77, tag_of_page(77), 1, false);
        let retired = retire_completed(&mut pool, u64::MAX);
        assert!(!retired[0].mapped);
    }

    #[test]
    fn perturbed_walk_costs_exactly_its_total_latency() {
        let mut pool = WalkerPool::new(2, 4, 100, true);
        let WalkAdmission::Started {
            completes_at,
            path_match,
            levels_read,
            ..
        } = pool.start_walk_perturbed(Asid::GLOBAL, 10, 42, 4, 1_234, true, 0)
        else {
            panic!("perturbed walk must start");
        };
        assert_eq!(completes_at, 10 + 1_234);
        assert_eq!(levels_read, 4);
        assert_eq!(
            path_match.skippable_levels(),
            0,
            "perturbed walks bypass the TPreg"
        );
        assert!(retire_completed(&mut pool, 10 + 1_233).is_empty());
        let retired = retire_completed(&mut pool, 10 + 1_234);
        assert_eq!(retired.len(), 1);
        assert!(retired[0].mapped);
    }

    #[test]
    fn perturbed_walk_accepts_prmb_merges() {
        let mut pool = WalkerPool::new(2, 4, 100, false);
        pool.start_walk_perturbed(Asid::GLOBAL, 0, 42, 4, 5_000, true, 0);
        assert_eq!(try_merge(&mut pool, 42), Some((0, 5_000)));
        let retired = retire_completed(&mut pool, 5_000);
        assert_eq!(retired[0].merged_requests, 1);
    }

    #[test]
    fn quarantined_walker_is_parked_until_cooldown() {
        let mut pool = WalkerPool::new(1, 0, 100, false);
        pool.start_walk_perturbed(Asid::GLOBAL, 0, 42, 4, 400, true, 1_000);
        assert_eq!(retire_completed(&mut pool, 400).len(), 1);
        // The only walker is now quarantined: the pool has shrunk to zero.
        assert!(!pool.has_free_walker());
        assert_eq!(pool.quarantined_walkers(), 1);
        assert_eq!(pool.earliest_readmit(), Some(1_000));
        // A new walk is rejected with the readmission cycle, not a panic
        // (the heap is empty — there is no in-flight completion to wait on).
        let admission = start_walk(&mut pool, 500, 43, tag_of_page(43), 4, true);
        assert_eq!(admission, WalkAdmission::Rejected { retry_at: 1_000 });
        // Before the cool-down expires readmission is a no-op.
        pool.readmit_quarantined(999);
        assert!(!pool.has_free_walker());
        // At the cool-down boundary the walker rejoins the free list.
        pool.readmit_quarantined(1_000);
        assert!(pool.has_free_walker());
        assert_eq!(pool.quarantined_walkers(), 0);
        assert!(matches!(
            start_walk(&mut pool, 1_000, 43, tag_of_page(43), 4, true),
            WalkAdmission::Started { .. }
        ));
    }

    /// A merge-less, TPreg-less pool, the only kind that admits windows.
    fn window_pool(walkers: usize) -> WalkerPool {
        WalkerPool::new(walkers, 0, 100, false)
    }

    /// Every retired walk, one `(asid, page, completed_at, mapped)` per walk.
    fn per_walk(retired: &[RetiredWalks]) -> Vec<(u16, u64, u64, bool)> {
        retired
            .iter()
            .flat_map(|w| {
                (0..w.walks)
                    .map(move |j| (w.asid.raw(), w.page_number, w.completed_at + j, w.mapped))
            })
            .collect()
    }

    /// Admits `walks` walks of `page` at cycles `first..` one at a time, each
    /// after retiring what completed by its cycle — the per-walk reference
    /// of a window — and returns the walkers handed out.
    fn admit_singly(
        pool: &mut WalkerPool,
        retired: &mut Vec<RetiredWalks>,
        page: u64,
        first: u64,
        walks: u64,
    ) -> Vec<usize> {
        (first..first + walks)
            .map(|cycle| {
                pool.drain_completed(cycle, |w| retired.push(w));
                match start(pool, cycle, page) {
                    WalkAdmission::Started { walker, .. } => walker,
                    other => panic!("expected Started, got {other:?}"),
                }
            })
            .collect()
    }

    /// Hands out `count` walks of fresh pages after retiring everything,
    /// returning their walkers (the FIFO order the pool ended with).
    fn fifo_order(pool: &mut WalkerPool, count: usize) -> Vec<usize> {
        pool.drain_completed(u64::MAX, |_| {});
        (0..count as u64)
            .map(|i| match start(pool, 1_000_000, 1_000 + i) {
                WalkAdmission::Started { walker, .. } => walker,
                other => panic!("expected Started, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn a_run_retires_one_walk_per_cycle_in_order() {
        let mut pool = window_pool(8);
        start(&mut pool, 10, 5);
        let window = pool.admit_walk_window(Asid::GLOBAL, 5, 11, 4, 5);
        assert_eq!(window.admitted, 5);
        assert_eq!(window.retired, None);
        assert_eq!(pool.in_flight(), 6);
        assert_eq!(pool.next_completion(), Some(410));
        // The window joined the first walk's run: one entry, six walks.
        assert_eq!(pool.heap.len(), 1);
        let mut all_at_once = pool.clone();
        for j in 0..6 {
            assert!(retire_completed(&mut pool, 409 + j).is_empty());
            let retired = retire_completed(&mut pool, 410 + j);
            assert_eq!(per_walk(&retired), vec![(0, 5, 410 + j, true)]);
            assert_eq!(pool.in_flight(), 5 - j as usize);
        }
        // Drained at once, the run retires as one group of six walks.
        let retired = retire_completed(&mut all_at_once, u64::MAX);
        assert_eq!(retired.len(), 1);
        assert_eq!((retired[0].completed_at, retired[0].walks), (410, 6));
    }

    #[test]
    fn a_window_hands_out_the_walkers_of_single_starts() {
        // Four walkers: a run of page 1 occupies all of them and retires
        // 400..=403; page 2's burst starts at 400, so the rest of page 1's
        // run retires inside page 2's window and frees its walkers to it.
        let build = || {
            let mut pool = window_pool(4);
            start(&mut pool, 0, 1);
            assert_eq!(pool.admit_walk_window(Asid::GLOBAL, 1, 1, 4, 3).admitted, 3);
            pool.drain_completed(400, |_| {});
            start(&mut pool, 400, 2);
            pool
        };
        let mut batched = build();
        let window = batched.admit_walk_window(Asid::GLOBAL, 2, 401, 4, 7);
        // Stopped by walker exhaustion once page 1's run is gone.
        assert_eq!(window.admitted, 3);
        let retired = window.retired.expect("page 1 retires inside the window");
        assert_eq!(
            (retired.page_number, retired.completed_at, retired.walks),
            (1, 401, 3)
        );

        let mut single = build();
        let mut reference = Vec::new();
        let walkers = admit_singly(&mut single, &mut reference, 2, 401, 3);
        assert_eq!(walkers, vec![1, 2, 3]);
        assert_eq!(per_walk(&reference), per_walk(&[retired]));
        assert!(!single.has_free_walker() && !batched.has_free_walker());

        let mut batched_retired = Vec::new();
        let mut single_retired = Vec::new();
        batched.drain_completed(u64::MAX, |w| batched_retired.push(w));
        single.drain_completed(u64::MAX, |w| single_retired.push(w));
        assert_eq!(per_walk(&batched_retired), per_walk(&single_retired));
        assert_eq!(fifo_order(&mut batched, 4), fifo_order(&mut single, 4));
    }

    #[test]
    fn completion_ties_retire_in_per_walk_slot_order() {
        // Walk 0 (1 level) frees slot 0 early; page A's run takes slots 1..4
        // and completes 401..=404; an unmapped 2-level walk of page B takes
        // the recycled slot 0 and ties with A's walk at 402. Per walk, the
        // lower slot — B — retires first, splitting A's run around it.
        let build = |batch: bool| {
            let mut pool = window_pool(8);
            let mut retired = Vec::new();
            start_walk(&mut pool, 0, 9, tag_of_page(9), 1, true);
            start(&mut pool, 1, 0xA);
            if batch {
                assert_eq!(
                    pool.admit_walk_window(Asid::GLOBAL, 0xA, 2, 4, 3).admitted,
                    3
                );
            } else {
                admit_singly(&mut pool, &mut retired, 0xA, 2, 3);
            }
            pool.drain_completed(202, |w| retired.push(w));
            start_walk(&mut pool, 202, 0xB, tag_of_page(0xB), 2, false);
            pool.drain_completed(u64::MAX, |w| retired.push(w));
            (pool, retired)
        };
        let (mut batched, batched_retired) = build(true);
        let (mut single, single_retired) = build(false);
        let expected = vec![
            (0, 9, 100, true),
            (0, 0xA, 401, true),
            (0, 0xB, 402, false),
            (0, 0xA, 402, true),
            (0, 0xA, 403, true),
            (0, 0xA, 404, true),
        ];
        assert_eq!(per_walk(&single_retired), expected);
        assert_eq!(per_walk(&batched_retired), expected);
        assert_eq!(fifo_order(&mut batched, 8), fifo_order(&mut single, 8));
    }

    #[test]
    fn window_walks_take_the_slots_of_walks_retiring_inside_it() {
        // Page 0xA0's run (slots 0..=2) retires 400..=402. Page 0xB0's
        // burst starts at 400: its window at 401 absorbs 0xA0's retirement
        // there and takes its slot (1). 0xA0's last walk then retires on its
        // own and frees slot 2, which an unmapped 2-level walk of page 0xC0
        // takes at 601; it ties with 0xB0's second walk at 801. Per walk,
        // 0xB0's slot 1 precedes 0xC0's slot 2.
        let build = |batch: bool| {
            let mut pool = window_pool(8);
            let mut retired = Vec::new();
            start(&mut pool, 0, 0xA0);
            assert_eq!(
                pool.admit_walk_window(Asid::GLOBAL, 0xA0, 1, 4, 2).admitted,
                2
            );
            pool.drain_completed(400, |w| retired.push(w));
            start(&mut pool, 400, 0xB0);
            if batch {
                let window = pool.admit_walk_window(Asid::GLOBAL, 0xB0, 401, 4, 1);
                assert_eq!(window.admitted, 1);
                retired.extend(window.retired);
            } else {
                admit_singly(&mut pool, &mut retired, 0xB0, 401, 1);
            }
            pool.drain_completed(601, |w| retired.push(w));
            start_walk(&mut pool, 601, 0xC0, tag_of_page(0xC0), 2, false);
            pool.drain_completed(u64::MAX, |w| retired.push(w));
            (pool, retired)
        };
        let (mut batched, batched_retired) = build(true);
        let (mut single, single_retired) = build(false);
        let tie: Vec<_> = per_walk(&single_retired)
            .into_iter()
            .filter(|walk| walk.2 == 801)
            .collect();
        assert_eq!(tie, vec![(0, 0xB0, 801, true), (0, 0xC0, 801, false)]);
        assert_eq!(per_walk(&batched_retired), per_walk(&single_retired));
        assert_eq!(fifo_order(&mut batched, 8), fifo_order(&mut single, 8));
    }

    #[test]
    fn a_run_that_moved_slots_is_still_extended() {
        // Four-cycle walks: page 5's run completes 4..=7. Its first walk
        // retires at 4, moving the run to its next walk's slot; a window at
        // 4 then continues the run (completion 8) rather than a stale copy.
        let mut pool = WalkerPool::new(8, 0, 1, false);
        start(&mut pool, 0, 5);
        assert_eq!(pool.admit_walk_window(Asid::GLOBAL, 5, 1, 4, 3).admitted, 3);
        let mut retired = retire_completed(&mut pool, 4);
        let window = pool.admit_walk_window(Asid::GLOBAL, 5, 4, 4, 3);
        assert_eq!(
            window.admitted, 1,
            "the run's next walk lands the page at 5"
        );
        assert_eq!(pool.heap.len(), 1, "the window joined the moved run");
        retired.extend(retire_completed(&mut pool, u64::MAX));
        let completions: Vec<u64> = per_walk(&retired).iter().map(|w| w.2).collect();
        assert_eq!(completions, vec![4, 5, 6, 7, 8]);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn flush_asid_discards_the_rest_of_a_half_retired_run() {
        let tenant = Asid::new(3);
        let mut pool = window_pool(8);
        pool.start_walk_tagged(tenant, 0, 7, tag_of_page(7), 4, true);
        assert_eq!(pool.admit_walk_window(tenant, 7, 1, 4, 5).admitted, 5);
        let retired = retire_completed(&mut pool, 402);
        assert_eq!(per_walk(&retired).len(), 3);
        assert!(retired.iter().all(|w| w.mapped));
        // The other half is discarded as a whole: three walks, none mapped.
        assert_eq!(pool.flush_asid(tenant), 3);
        assert_eq!(pool.flush_asid(tenant), 0);
        let rest = retire_completed(&mut pool, u64::MAX);
        assert_eq!(
            per_walk(&rest),
            vec![(3, 7, 403, false), (3, 7, 404, false), (3, 7, 405, false)]
        );
        // A flushed run takes no more walks: a new window starts a new run.
        pool.start_walk_tagged(tenant, 500, 7, tag_of_page(7), 4, true);
        pool.flush_asid(tenant);
        assert_eq!(pool.admit_walk_window(tenant, 7, 501, 4, 2).admitted, 2);
        assert_eq!(pool.heap.len(), 2);
    }

    #[test]
    fn rejected_retry_at_is_min_of_completion_and_readmit() {
        let mut pool = WalkerPool::new(2, 0, 100, false);
        // Walker 0 quarantines until cycle 5_000; walker 1 walks until 700.
        pool.start_walk_perturbed(Asid::GLOBAL, 0, 1, 4, 300, true, 5_000);
        assert_eq!(retire_completed(&mut pool, 300).len(), 1);
        start_walk(&mut pool, 300, 2, tag_of_page(2), 4, true);
        let admission = start_walk(&mut pool, 350, 3, tag_of_page(3), 4, true);
        assert_eq!(admission, WalkAdmission::Rejected { retry_at: 700 });
    }
}
