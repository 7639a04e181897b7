//! Property-based tests for the MMU structures and the translation engine.

use proptest::prelude::*;

use neummu_mmu::prelude::*;
use neummu_mmu::{DeviceFaultConfig, ResilienceConfig};
use neummu_vmem::{Asid, MemNode, PageSize, PageTable, PhysFrameNum, VirtAddr};

const G: Asid = Asid::GLOBAL;

/// One request through the single translate entry point: a run of count 1.
fn translate_one(
    translator: &mut impl AddressTranslator,
    page_table: &PageTable,
    va: VirtAddr,
    cycle: u64,
) -> TranslationOutcome {
    translator.translate_run(page_table, va, 1, cycle).first
}

/// Builds a page table with the given 4 KB virtual pages mapped.
fn table_with_pages(pages: &[u64]) -> PageTable {
    let mut pt = PageTable::new();
    for (i, &vpn) in pages.iter().enumerate() {
        pt.map(
            VirtAddr::new(vpn << 12),
            PageSize::Size4K,
            PhysFrameNum::new(0x100_0000 + i as u64),
            MemNode::Npu(0),
        )
        .expect("test pages are distinct");
    }
    pt
}

/// Strategy: a monotonically increasing stream of (page, offset) accesses over
/// a small page range, mimicking a DMA sweep.
fn access_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..64, 0u64..4096), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The TLB never reports more hits than lookups and its occupancy never
    /// exceeds its capacity, for any interleaving of lookups and fills.
    #[test]
    fn tlb_invariants(ops in prop::collection::vec((0u64..512, any::<bool>()), 1..500),
                      entries in 1usize..512, ways in 1usize..16) {
        let mut tlb = Tlb::new(entries, ways);
        for (page, is_fill) in ops {
            if is_fill {
                tlb.insert_tagged(G, page);
            } else {
                let hit = tlb.lookup_tagged(G, page);
                if hit {
                    prop_assert!(tlb.contains_tagged(G, page));
                }
            }
            prop_assert!(tlb.occupancy() <= tlb.capacity());
            prop_assert!(tlb.hits() <= tlb.lookups());
        }
    }

    /// A lookup immediately after an insert always hits, regardless of prior
    /// history (the inserted entry is the most recently used in its set).
    #[test]
    fn tlb_insert_then_lookup_hits(history in prop::collection::vec(0u64..4096, 0..300), probe in 0u64..4096) {
        let mut tlb = Tlb::new(128, 4);
        for page in history {
            tlb.insert_tagged(G, page);
        }
        tlb.insert_tagged(G, probe);
        prop_assert!(tlb.lookup_tagged(G, probe));
    }

    /// Engine timing sanity: outcomes are accepted no earlier than issued,
    /// complete no earlier than accepted, and every request is accounted for
    /// as exactly one of {TLB hit, merged, walk}.
    #[test]
    fn engine_accounting_is_exact(stream in access_stream(), neummu in any::<bool>()) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let config = if neummu { MmuConfig::neummu() } else { MmuConfig::baseline_iommu() };
        let mut engine = TranslationEngine::new(config);
        let mut cycle = 0u64;
        for (page, offset) in &stream {
            let va = VirtAddr::new((page << 12) | offset);
            let outcome = translate_one(&mut engine, &pt, va, cycle);
            prop_assert!(outcome.accept_cycle >= cycle);
            prop_assert!(outcome.complete_cycle >= outcome.accept_cycle);
            prop_assert!(!outcome.fault);
            cycle = outcome.accept_cycle + 1;
        }
        let stats = engine.stats();
        prop_assert_eq!(stats.requests, stream.len() as u64);
        prop_assert_eq!(stats.requests, stats.tlb_hits + stats.merged + stats.walks);
        prop_assert!(stats.walk_memory_accesses >= stats.walks);
        prop_assert!(stats.walk_memory_accesses <= stats.walks * 4);
    }

    /// The oracle is a lower bound: for any request stream, its last
    /// completion time never exceeds that of a real engine driven with the
    /// same stream.
    #[test]
    fn oracle_is_a_lower_bound(stream in access_stream()) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let mut oracle = OracleTranslator::default();
        let mut engine = TranslationEngine::new(MmuConfig::baseline_iommu());
        let mut oracle_cycle = 0u64;
        let mut engine_cycle = 0u64;
        let mut oracle_last = 0u64;
        let mut engine_last = 0u64;
        for (page, offset) in &stream {
            let va = VirtAddr::new((page << 12) | offset);
            let o = translate_one(&mut oracle, &pt, va, oracle_cycle);
            oracle_cycle = o.accept_cycle + 1;
            oracle_last = oracle_last.max(o.complete_cycle);
            let e = translate_one(&mut engine, &pt, va, engine_cycle);
            engine_cycle = e.accept_cycle + 1;
            engine_last = engine_last.max(e.complete_cycle);
        }
        prop_assert!(oracle_last <= engine_last);
    }

    /// Merging never changes *what* is translated, only how much walk work is
    /// spent: with merging enabled the engine performs at most as many walks
    /// and walk memory accesses as without it.
    #[test]
    fn prmb_never_increases_walk_work(stream in access_stream()) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let run = |prmb_slots: usize| {
            let mut engine = TranslationEngine::new(
                MmuConfig::baseline_iommu().with_ptws(16).with_prmb_slots(prmb_slots),
            );
            let mut cycle = 0u64;
            for (page, offset) in &stream {
                let va = VirtAddr::new((page << 12) | offset);
                let outcome = translate_one(&mut engine, &pt, va, cycle);
                cycle = outcome.accept_cycle + 1;
            }
            (engine.stats().walks, engine.stats().walk_memory_accesses)
        };
        let (walks_without, accesses_without) = run(0);
        let (walks_with, accesses_with) = run(32);
        prop_assert!(walks_with <= walks_without);
        prop_assert!(accesses_with <= accesses_without);
    }

    /// The TPreg only removes upper-level reads: per walk, between 1 and 4
    /// levels are read, and enabling it never increases total accesses.
    #[test]
    fn tpreg_never_increases_walk_accesses(page_order in prop::collection::vec(0u64..256, 1..150)) {
        let pages: Vec<u64> = (0..256).collect();
        let pt = table_with_pages(&pages);
        let run = |tpreg: bool| {
            let mut engine = TranslationEngine::new(
                MmuConfig::neummu().with_tlb_entries(16).with_tpreg(tpreg),
            );
            let mut cycle = 0u64;
            for page in &page_order {
                let outcome = translate_one(&mut engine, &pt, VirtAddr::new(page << 12), cycle);
                cycle = outcome.complete_cycle + 1;
            }
            engine.stats().walk_memory_accesses
        };
        let with_tpreg = run(true);
        let without_tpreg = run(false);
        prop_assert!(with_tpreg <= without_tpreg);
    }

    /// Engine timing invariant: driven in program order (each request issued
    /// at the previous accept + 1), accept cycles are strictly increasing,
    /// never earlier than the issue cycle, and every completion is at or
    /// after its accept.
    #[test]
    fn accept_cycles_are_monotone_and_completions_follow(stream in access_stream(),
                                                        neummu in any::<bool>()) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let config = if neummu { MmuConfig::neummu() } else { MmuConfig::baseline_iommu() };
        let mut engine = TranslationEngine::new(config);
        let mut cycle = 0u64;
        let mut last_accept: Option<u64> = None;
        for (page, offset) in &stream {
            let outcome = translate_one(&mut engine, &pt, VirtAddr::new((page << 12) | offset), cycle);
            prop_assert!(outcome.accept_cycle >= cycle);
            if let Some(prev) = last_accept {
                prop_assert!(outcome.accept_cycle > prev,
                             "accept {} did not advance past {}", outcome.accept_cycle, prev);
            }
            prop_assert!(outcome.complete_cycle >= outcome.accept_cycle);
            last_accept = Some(outcome.accept_cycle);
            cycle = outcome.accept_cycle + 1;
        }
    }

    /// PRMB capacity invariant: a walk can absorb at most `prmb_slots` merged
    /// requests, so the engine's total merge count never exceeds
    /// `walks * prmb_slots` for any stream and any slot count (including 0,
    /// where merging must never happen).
    #[test]
    fn merges_never_exceed_prmb_capacity(stream in access_stream(),
                                         slots in 0usize..8, ptws in 1usize..16) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let mut engine = TranslationEngine::new(
            MmuConfig::baseline_iommu().with_ptws(ptws).with_prmb_slots(slots),
        );
        let mut cycle = 0u64;
        for (page, offset) in &stream {
            let outcome = translate_one(&mut engine, &pt, VirtAddr::new((page << 12) | offset), cycle);
            cycle = outcome.accept_cycle + 1;
        }
        let stats = engine.stats();
        prop_assert!(stats.merged <= stats.walks * slots as u64,
                     "{} merges exceed {} walks x {} slots", stats.merged, stats.walks, slots);
        if slots == 0 {
            prop_assert_eq!(stats.merged, 0);
        }
    }

    /// `reset()` returns the engine to a state that replays identically: the
    /// same stream driven after a reset produces exactly the same outcome
    /// sequence and statistics as the first run.
    #[test]
    fn reset_replays_identically(stream in access_stream(), neummu in any::<bool>()) {
        let pages: Vec<u64> = (0..64).collect();
        let pt = table_with_pages(&pages);
        let config = if neummu { MmuConfig::neummu() } else { MmuConfig::baseline_iommu() };
        let mut engine = TranslationEngine::new(config);
        let drive = |engine: &mut TranslationEngine| {
            let mut cycle = 0u64;
            let mut outcomes = Vec::with_capacity(stream.len());
            for (page, offset) in &stream {
                let outcome = translate_one(engine, &pt, VirtAddr::new((page << 12) | offset), cycle);
                cycle = outcome.accept_cycle + 1;
                outcomes.push(outcome);
            }
            outcomes
        };
        let first = drive(&mut engine);
        let stats_first = *engine.stats();
        engine.reset();
        prop_assert_eq!(engine.stats().requests, 0);
        let second = drive(&mut engine);
        prop_assert_eq!(first, second);
        prop_assert_eq!(stats_first, *engine.stats());
    }

    /// A path tag always matches itself and the TPC/UPTC never skip the leaf
    /// level of a walk.
    #[test]
    fn walk_caches_never_skip_the_leaf(pages_accessed in prop::collection::vec(0u64..1024, 1..100)) {
        let pages: Vec<u64> = (0..1024).collect();
        let pt = table_with_pages(&pages);
        let mut tpc = TranslationPathCache::new(4);
        let mut uptc = UnifiedPageTableCache::new(16);
        for page in pages_accessed {
            let walk = pt.walk(VirtAddr::new(page << 12));
            let total = walk.memory_accesses();
            for outcome in [tpc.access(&walk), uptc.access(&walk)] {
                prop_assert!(outcome.levels_read >= 1);
                prop_assert_eq!(outcome.levels_read + outcome.skipped_levels, total);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Differential check of run replay against count-1 runs
// ---------------------------------------------------------------------------

/// Transactions per 4 KB page in the differential scenarios.
const TXNS_PER_PAGE: u64 = 16;
/// Bytes per transaction (a page holds exactly `TXNS_PER_PAGE` of them).
const TXN_BYTES: u64 = 4096 / TXNS_PER_PAGE;
/// Virtual pages each tenant's address range spans.
const DIFF_PAGES: u64 = 24;
/// Base virtual address of every tenant's range (identical VAs across
/// tenants, so only the ASID tag keeps them apart).
const DIFF_BASE: u64 = 0x4000_0000;

/// One step of a differential scenario: a tagged run, or a mutation of the
/// page tables or translator state between runs.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `count` same-page requests of `tenant`, starting at transaction
    /// `first` of `page`, issued `gap` cycles after the previous run's last
    /// accept (a gap lets in-flight walks retire before the run).
    Run {
        tenant: usize,
        page: u64,
        first: u64,
        count: u64,
        gap: u64,
    },
    /// Broadcast shootdown of one page in every context.
    InvalidatePage { page: u64 },
    /// Teardown of one tenant's cached translations and in-flight walks.
    FlushAsid { tenant: usize },
    /// Migration of one mapped page to a new frame.
    Remap { tenant: usize, page: u64 },
    /// Unmaps a mapped page or maps an unmapped one.
    Toggle { tenant: usize, page: u64 },
}

/// Raw draw of one step: `(kind, tenant, page, first, count, gap)`.
type RawStep = (u8, usize, u64, u64, u64, u64);

/// Decodes a raw draw; runs are the common case, mutations one in four.
fn decode_step((kind, tenant, page, first, count, gap): RawStep, tenants: usize) -> Step {
    let tenant = tenant % tenants;
    match kind {
        0..=11 => Step::Run {
            tenant,
            page,
            first,
            count: count.min(TXNS_PER_PAGE - first),
            // A third of the runs issue back to back; the rest wait up to
            // 600 cycles, so earlier walks retire before or inside the run.
            gap: gap.saturating_sub(300),
        },
        12 => Step::InvalidatePage { page },
        13 => Step::FlushAsid { tenant },
        14 => Step::Remap { tenant, page },
        _ => Step::Toggle { tenant, page },
    }
}

fn raw_steps() -> impl Strategy<Value = Vec<RawStep>> {
    prop::collection::vec(
        (
            0u8..16,
            0usize..3,
            0u64..DIFF_PAGES,
            0u64..TXNS_PER_PAGE,
            1u64..=TXNS_PER_PAGE,
            0u64..900,
        ),
        1..80,
    )
}

/// The engine designs the differential check sweeps: every replay regime
/// (hit, merge, walk), PRMB exhaustion, a thrashing TLB, a single walker,
/// walks short enough to retire (and evict, in a direct-mapped TLB) inside
/// a run, and an armed fault plan on merging and merge-less engines.
fn differential_engine(design: usize) -> TranslationEngine {
    let short_walks = |config: MmuConfig| MmuConfig {
        walk_latency_per_level: 2,
        tlb_ways: 1,
        ..config.with_tlb_entries(4)
    };
    let configs = [
        MmuConfig::neummu(),
        MmuConfig::neummu()
            .with_tlb_entries(8)
            .with_ptws(2)
            .with_prmb_slots(1),
        MmuConfig::neummu().with_tpreg(false).with_ptws(1),
        MmuConfig::baseline_iommu(),
        MmuConfig::baseline_iommu().with_ptws(2).with_tlb_entries(8),
        short_walks(MmuConfig::neummu().with_prmb_slots(4)),
        short_walks(MmuConfig::baseline_iommu().with_ptws(4)),
    ];
    match design {
        0..=6 => TranslationEngine::new(configs[design]),
        7 => TranslationEngine::with_faults(
            MmuConfig::neummu().with_ptws(4),
            DeviceFaultConfig::uniform(0xD1FF, 0.05),
            ResilienceConfig::all_on(),
        )
        .expect("valid fault config"),
        8 => TranslationEngine::with_faults(
            MmuConfig::baseline_iommu().with_ptws(4),
            DeviceFaultConfig::uniform(0xD1FF, 0.05),
            ResilienceConfig::all_on(),
        )
        .expect("valid fault config"),
        _ => TranslationEngine::new(MmuConfig::baseline_iommu().with_ptws(1024)),
    }
}

/// A tenant page table with roughly three quarters of the range mapped.
fn differential_table(tenant: usize) -> PageTable {
    let mut pt = PageTable::new();
    for page in 0..DIFF_PAGES {
        if (page + tenant as u64) % 4 != 3 {
            pt.map(
                VirtAddr::new(DIFF_BASE + page * 4096),
                PageSize::Size4K,
                PhysFrameNum::new(0x10_0000 + 0x1000 * tenant as u64 + page),
                MemNode::Npu(0),
            )
            .expect("distinct pages");
        }
    }
    pt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Run replay is invisible: interleaving random-length tagged runs of
    /// two or three tenants, with shootdowns, ASID flushes, migrations and
    /// map/unmap toggles between runs, every per-request outcome and every
    /// statistic equals what a reference engine fed the same requests as
    /// runs of count 1 reports.
    #[test]
    fn run_replay_matches_count_one_runs_under_mutation(
        raw in raw_steps(),
        design in 0usize..10,
        tenants in 2usize..4,
    ) {
        let mut tables: Vec<PageTable> = (0..tenants).map(differential_table).collect();
        let asids: Vec<Asid> = (0..tenants).map(|t| Asid::new(t as u16 + 1)).collect();
        let mut coalesced = differential_engine(design);
        let mut reference = differential_engine(design);
        let mut cycle = 0u64;
        let mut next_frame = 0x80_0000u64;
        for (index, step) in raw.into_iter().map(|r| decode_step(r, tenants)).enumerate() {
            match step {
                Step::Run { tenant, page, first, count, gap } => {
                    let (pt, asid) = (&tables[tenant], asids[tenant]);
                    let va = |i: u64| VirtAddr::new(DIFF_BASE + page * 4096 + (first + i) * TXN_BYTES);
                    let issue = cycle + gap;
                    let mut expected = Vec::new();
                    let mut ref_cycle = issue;
                    for i in 0..count {
                        let one = reference.translate_run_tagged(pt, asid, va(i), 1, ref_cycle);
                        prop_assert_eq!(one.consumed, 1);
                        ref_cycle = one.first.accept_cycle + 1;
                        expected.push(one.first);
                    }
                    let mut produced = Vec::new();
                    let mut run_cycle = issue;
                    while (produced.len() as u64) < count {
                        let done = produced.len() as u64;
                        let out = coalesced.translate_run_tagged(pt, asid, va(done), count - done, run_cycle);
                        prop_assert!(out.consumed >= 1 && out.consumed <= count - done);
                        for j in 0..out.consumed {
                            produced.push(out.outcome(j));
                        }
                        run_cycle = out.last_accept() + 1;
                    }
                    prop_assert_eq!(&produced, &expected, "step {}: {:?}", index, step);
                    prop_assert_eq!(run_cycle, ref_cycle);
                    cycle = run_cycle;
                }
                Step::InvalidatePage { page } => {
                    let va = VirtAddr::new(DIFF_BASE + page * 4096);
                    coalesced.invalidate_page(va);
                    reference.invalidate_page(va);
                }
                Step::FlushAsid { tenant } => {
                    coalesced.flush_asid(asids[tenant]);
                    reference.flush_asid(asids[tenant]);
                }
                Step::Remap { tenant, page } => {
                    let va = VirtAddr::new(DIFF_BASE + page * 4096);
                    if tables[tenant].remap(va, PhysFrameNum::new(next_frame), MemNode::Host).is_ok() {
                        next_frame += 1;
                    }
                }
                Step::Toggle { tenant, page } => {
                    let va = VirtAddr::new(DIFF_BASE + page * 4096);
                    if tables[tenant].unmap(va).is_err() {
                        tables[tenant]
                            .map(va, PageSize::Size4K, PhysFrameNum::new(next_frame), MemNode::Npu(0))
                            .expect("an unmapped page maps");
                        next_frame += 1;
                    }
                }
            }
            prop_assert_eq!(coalesced.stats(), reference.stats(), "step {}: {:?}", index, step);
        }
        prop_assert_eq!(coalesced.tlb().lookups(), reference.tlb().lookups());
        prop_assert_eq!(coalesced.tlb().hits(), reference.tlb().hits());
        prop_assert_eq!(coalesced.tlb().fills(), reference.tlb().fills());
        prop_assert_eq!(coalesced.fault_counters(), reference.fault_counters());
        prop_assert_eq!(format!("{:?}", coalesced.tlb()), format!("{:?}", reference.tlb()));
    }
}
