//! Property tests of the run-coalesced burst translation path (PR 5).
//!
//! The tentpole guarantee is bit-exactness: driving a DMA transaction stream
//! through `translate_run` + `DramModel::schedule_run` must reproduce the
//! per-transaction sequence (runs of count 1 + `schedule_transfer`) exactly — same
//! per-request outcomes, same cycle schedules, same engine statistics, same
//! TLB counters — for *any* tile shape, transaction grain, page-size mix,
//! TLB geometry and walker/PRMB budget. These tests throw randomized
//! configurations at both paths and require equality, and separately check
//! that [`neummu_npu::DmaEngine::page_runs`] is an exact partition of
//! [`neummu_npu::DmaEngine::transaction_iter`].

use proptest::collection;
use proptest::prelude::*;

use neummu_mem::dram::{DramConfig, DramModel};
use neummu_mmu::{
    AddressTranslator, MmuConfig, TranslationEngine, TranslationOutcome, TranslationSource,
};
use neummu_npu::{DmaConfig, DmaEngine, TensorKind, TileFetch};
use neummu_vmem::{MemNode, PageSize, PageTable, PhysFrameNum, VirtAddr};

/// Outcome of one memory phase: everything a simulator observes.
#[derive(Debug, PartialEq)]
struct PhaseResult {
    outcomes: Vec<TranslationOutcome>,
    data_ready: Vec<u64>,
    final_issue_cycle: u64,
    stats: neummu_mmu::TranslationStats,
    tlb_lookups: u64,
    tlb_hits: u64,
    tlb_fills: u64,
    tlb_occupancy: usize,
    /// The TLB's full replacement state (entries, sets, recency stamps).
    tlb_state: String,
    dram_busy_until: u64,
    dram_total_bytes: u64,
}

/// Maps every page a fetch list touches, starting from `base`.
fn mapped_table(base: u64, fetches: &[TileFetch], page_size: PageSize) -> PageTable {
    let mut pt = PageTable::new();
    let page_bytes = page_size.bytes();
    let end = fetches.iter().map(TileFetch::end).max().unwrap_or(0);
    let pages = end.div_ceil(page_bytes) + 1;
    for i in 0..pages {
        pt.map(
            VirtAddr::new(base + i * page_bytes),
            page_size,
            PhysFrameNum::new(0x10_0000 + i * (page_bytes / 4096)),
            MemNode::Npu(0),
        )
        .unwrap();
    }
    pt
}

/// The dense simulator's historical per-transaction memory phase.
fn per_transaction_phase(
    mmu: MmuConfig,
    pt: &PageTable,
    base: u64,
    dma: &DmaEngine,
    fetches: &[TileFetch],
    passes: u32,
) -> PhaseResult {
    let mut engine = TranslationEngine::new(mmu);
    let mut dram = DramModel::new(DramConfig::table1());
    let mut outcomes = Vec::new();
    let mut data_ready = Vec::new();
    let mut issue_cycle = 0u64;
    for _ in 0..passes {
        for fetch in fetches {
            for txn in dma.transaction_iter(fetch) {
                let out = engine
                    .translate_run(pt, VirtAddr::new(base + txn.offset), 1, issue_cycle)
                    .first;
                issue_cycle = out.accept_cycle + 1;
                data_ready.push(dram.schedule_transfer(out.complete_cycle, txn.bytes));
                outcomes.push(out);
            }
        }
    }
    PhaseResult {
        outcomes,
        data_ready,
        final_issue_cycle: issue_cycle,
        stats: *engine.stats(),
        tlb_lookups: engine.tlb().lookups(),
        tlb_hits: engine.tlb().hits(),
        tlb_fills: engine.tlb().fills(),
        tlb_occupancy: engine.tlb().occupancy(),
        tlb_state: format!("{:?}", engine.tlb()),
        dram_busy_until: dram.busy_until(),
        dram_total_bytes: dram.total_bytes(),
    }
}

/// The run-coalesced memory phase, reconstructing per-transaction results
/// from the compact `RunOutcome`s.
fn run_coalesced_phase(
    mmu: MmuConfig,
    pt: &PageTable,
    base: u64,
    dma: &DmaEngine,
    fetches: &[TileFetch],
    passes: u32,
) -> PhaseResult {
    let mut engine = TranslationEngine::new(mmu);
    let mut dram = DramModel::new(DramConfig::table1());
    let mut outcomes = Vec::new();
    let mut data_ready = Vec::new();
    let mut issue_cycle = 0u64;
    let page_bytes = mmu.page_size.bytes();
    for _ in 0..passes {
        for fetch in fetches {
            for full_run in dma.page_runs(fetch, base, page_bytes) {
                let mut run = full_run;
                loop {
                    let va = VirtAddr::new(base + run.first.offset);
                    let out = engine.translate_run(pt, va, run.txn_count, issue_cycle);
                    issue_cycle = out.last_accept() + 1;
                    for j in 0..out.consumed {
                        outcomes.push(out.outcome(j));
                    }
                    let scheduled = run.prefix(out.consumed);
                    let last_ready = dram.schedule_run(
                        out.first.complete_cycle,
                        out.complete_stride,
                        scheduled.txn_count,
                        scheduled.first.bytes,
                        scheduled.interior_txn_bytes(),
                        scheduled.txn_len(scheduled.txn_count - 1),
                    );
                    // `schedule_run` returns the run's last arrival; all
                    // arrivals a simulator folds into a max are bounded by
                    // it, so recording it per consumed chunk reproduces the
                    // observable schedule.
                    data_ready.push(last_ready);
                    if out.consumed == run.txn_count {
                        break;
                    }
                    run = run.suffix(out.consumed);
                }
            }
        }
    }
    PhaseResult {
        outcomes,
        data_ready,
        final_issue_cycle: issue_cycle,
        stats: *engine.stats(),
        tlb_lookups: engine.tlb().lookups(),
        tlb_hits: engine.tlb().hits(),
        tlb_fills: engine.tlb().fills(),
        tlb_occupancy: engine.tlb().occupancy(),
        tlb_state: format!("{:?}", engine.tlb()),
        dram_busy_until: dram.busy_until(),
        dram_total_bytes: dram.total_bytes(),
    }
}

/// A same-page burst: `count` requests to `page`, the first issued `gap`
/// cycles after the previous burst's last accept.
struct Burst {
    page: u64,
    count: u64,
    gap: u64,
}

/// Drives `bursts` (512-byte requests from `base`) through a run-coalescing
/// engine and through a per-request reference engine, requires identical
/// outcomes, statistics and TLB state, and returns every outcome together
/// with how many requests each run call consumed.
fn assert_bursts_match(
    mmu: MmuConfig,
    pt: &PageTable,
    base: u64,
    bursts: &[Burst],
) -> (Vec<TranslationOutcome>, Vec<u64>) {
    let va = |page: u64, i: u64| VirtAddr::new(base + page * 4096 + i * 512);
    let mut reference = TranslationEngine::new(mmu);
    let mut expected = Vec::new();
    let mut cycle = 0u64;
    for burst in bursts {
        cycle += burst.gap;
        for i in 0..burst.count {
            let out = reference
                .translate_run(pt, va(burst.page, i), 1, cycle)
                .first;
            cycle = out.accept_cycle + 1;
            expected.push(out);
        }
    }
    let mut coalesced = TranslationEngine::new(mmu);
    let mut produced = Vec::new();
    let mut consumed = Vec::new();
    let mut cycle = 0u64;
    for burst in bursts {
        cycle += burst.gap;
        let mut done = 0;
        while done < burst.count {
            let out = coalesced.translate_run(pt, va(burst.page, done), burst.count - done, cycle);
            produced.extend((0..out.consumed).map(|j| out.outcome(j)));
            consumed.push(out.consumed);
            done += out.consumed;
            cycle = out.last_accept() + 1;
        }
    }
    assert_eq!(produced, expected);
    assert_eq!(coalesced.stats(), reference.stats());
    assert_eq!(
        format!("{:?}", coalesced.tlb()),
        format!("{:?}", reference.tlb())
    );
    (produced, consumed)
}

/// Maps `pages` 4 KB pages from `base`.
fn mapped_pages(base: u64, pages: u64) -> PageTable {
    let mut pt = PageTable::new();
    for i in 0..pages {
        pt.map(
            VirtAddr::new(base + i * 4096),
            PageSize::Size4K,
            PhysFrameNum::new(0x10_0000 + i),
            MemNode::Npu(0),
        )
        .unwrap();
    }
    pt
}

/// On a 1024-walker baseline IOMMU, a 400-cycle walk and one idle cycle
/// between 8-request bursts put page `k`'s duplicate walks inside page
/// `k + 44`'s replay window, retiring from its fourth cycle on. On a 4-entry
/// direct-mapped TLB the first of those retirements fills and evicts; the
/// rest re-insert the resident entry, interleaved with the window's misses.
#[test]
fn duplicate_run_retiring_inside_a_window_fills_and_evicts() {
    let mut mmu = MmuConfig::baseline_iommu()
        .with_ptws(1024)
        .with_tlb_entries(4);
    mmu.tlb_ways = 1;
    let base = 0x10_0000_0000u64;
    let pt = mapped_pages(base, 128);
    let bursts: Vec<Burst> = (0..128)
        .map(|page| Burst {
            page,
            count: 8,
            gap: 1,
        })
        .collect();
    let (outcomes, consumed) = assert_bursts_match(mmu, &pt, base, &bursts);
    // Every burst replays whole: no stall, no hit, one call per burst.
    assert!(consumed.iter().all(|&c| c == 8));
    // Page 0's walks complete at 401..=408; page 44's burst accepts
    // 397..=404.
    assert_eq!(outcomes[0].complete_cycle, 401);
    assert_eq!(outcomes[44 * 8].accept_cycle, 397);
    assert!(outcomes
        .iter()
        .all(|o| matches!(o.source, TranslationSource::PageWalk { levels_read: 4 })));
}

/// An unmapped page in an unmapped 2 MB region walks three levels (300
/// cycles), so it completes in the same cycle as a full walk issued 100
/// cycles before it — inside a later burst's replay window.
#[test]
fn same_cycle_completion_tie_inside_a_window_matches() {
    let mmu = MmuConfig::baseline_iommu().with_ptws(1024);
    let base = 0x10_0000_0000u64;
    let pt = mapped_pages(base, 64);
    let unmapped_page = (4 << 20) / 4096;
    let mut bursts: Vec<Burst> = (0..64)
        .map(|page| Burst {
            page,
            count: 8,
            gap: 0,
        })
        .collect();
    bursts.insert(
        21,
        Burst {
            page: unmapped_page,
            count: 1,
            gap: 0,
        },
    );
    let (outcomes, _) = assert_bursts_match(mmu, &pt, base, &bursts);
    let fault = outcomes[21 * 8];
    assert!(fault.fault);
    assert_eq!(fault.source, TranslationSource::PageWalk { levels_read: 3 });
    let tied = outcomes
        .iter()
        .filter(|o| !o.fault && o.complete_cycle == fault.complete_cycle)
        .count();
    assert_eq!(tied, 1, "the partial walk ties with one full walk");
    // A burst is accepting requests in the cycle of the tie.
    assert!(outcomes
        .iter()
        .any(|o| o.accept_cycle == fault.complete_cycle));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: for random tile shapes, transaction grains
    /// (including page-straddling ones), page-size mixes and TLB/walker/PRMB
    /// geometries, the run-coalesced path agrees with the per-transaction
    /// path on every outcome, every cycle, every statistic.
    #[test]
    fn run_path_agrees_with_per_transaction_path(
        shapes in collection::vec((0u64..16384, 1u64..200_000), 1..4),
        txn_choice in 0usize..4,
        large_pages in any::<bool>(),
        tlb_choice in 0usize..3,
        ways_choice in 0usize..3,
        ptw_choice in 0usize..5,
        prmb_choice in 0usize..3,
        tpreg in any::<bool>(),
        passes in 1u32..3,
    ) {
        let txn_bytes = [64u64, 512, 777, 4096][txn_choice];
        let page_size = if large_pages { PageSize::Size2M } else { PageSize::Size4K };
        let mut mmu = MmuConfig::baseline_iommu()
            .with_tlb_entries([4usize, 64, 2048][tlb_choice])
            .with_ptws([1usize, 2, 8, 128, 1024][ptw_choice])
            .with_prmb_slots([0usize, 1, 32][prmb_choice])
            .with_tpreg(tpreg)
            .with_page_size(page_size);
        mmu.tlb_ways = [1usize, 2, 8][ways_choice];
        let fetches: Vec<TileFetch> = shapes
            .iter()
            .map(|&(offset, bytes)| TileFetch { kind: TensorKind::Weight, offset, bytes })
            .collect();
        let base = 0x10_0000_0000u64;
        let pt = mapped_table(base, &fetches, page_size);
        let dma = DmaEngine::new(DmaConfig { max_transaction_bytes: txn_bytes, translations_per_cycle: 1 });
        let reference = per_transaction_phase(mmu, &pt, base, &dma, &fetches, passes);
        let coalesced = run_coalesced_phase(mmu, &pt, base, &dma, &fetches, passes);
        prop_assert_eq!(&reference.outcomes, &coalesced.outcomes);
        prop_assert_eq!(reference.final_issue_cycle, coalesced.final_issue_cycle);
        prop_assert_eq!(&reference.stats, &coalesced.stats);
        prop_assert_eq!(reference.tlb_lookups, coalesced.tlb_lookups);
        prop_assert_eq!(reference.tlb_hits, coalesced.tlb_hits);
        prop_assert_eq!(reference.tlb_fills, coalesced.tlb_fills);
        prop_assert_eq!(reference.tlb_occupancy, coalesced.tlb_occupancy);
        prop_assert_eq!(&reference.tlb_state, &coalesced.tlb_state);
        prop_assert_eq!(reference.dram_busy_until, coalesced.dram_busy_until);
        prop_assert_eq!(reference.dram_total_bytes, coalesced.dram_total_bytes);
        // Per-chunk last-arrivals are a subsequence of the per-transaction
        // arrivals, and both schedules end at the same final arrival.
        prop_assert_eq!(reference.data_ready.last(), coalesced.data_ready.last());
        let mut remaining = reference.data_ready.iter();
        for arrival in &coalesced.data_ready {
            prop_assert!(
                remaining.any(|r| r == arrival),
                "chunk arrival {} missing from the per-transaction schedule",
                arrival
            );
        }
    }

    /// `page_runs` is an exact partition of `transaction_iter`: rebuilding
    /// every transaction of every run reproduces the stream, runs are
    /// maximal (consecutive runs never share a page), and every transaction
    /// of a run starts on the run's page.
    #[test]
    fn page_runs_exactly_partition_the_transaction_stream(
        shapes in collection::vec((0u64..16384, 1u64..200_000), 1..4),
        txn_choice in 0usize..4,
        large_pages in any::<bool>(),
        base_choice in 0usize..3,
    ) {
        let txn_bytes = [64u64, 512, 777, 4096][txn_choice];
        let page_bytes = if large_pages { 2u64 << 20 } else { 4096 };
        let base = [0u64, 0x10_0000_0000, 0x7fff_f000][base_choice];
        let dma = DmaEngine::new(DmaConfig { max_transaction_bytes: txn_bytes, translations_per_cycle: 1 });
        for &(offset, bytes) in &shapes {
            let fetch = TileFetch { kind: TensorKind::InputActivation, offset, bytes };
            let reference: Vec<_> = dma.transaction_iter(&fetch).collect();
            let mut rebuilt = Vec::new();
            let mut previous_page = None;
            for run in dma.page_runs(&fetch, base, page_bytes) {
                prop_assert!(run.txn_count >= 1);
                prop_assert_ne!(previous_page, Some(run.page), "runs must be maximal");
                prop_assert_eq!(run.bytes, (0..run.txn_count).map(|i| run.txn_len(i)).sum::<u64>());
                for i in 0..run.txn_count {
                    let txn = run.txn(i);
                    prop_assert_eq!((base + txn.offset) / page_bytes, run.page);
                    rebuilt.push(txn);
                }
                previous_page = Some(run.page);
            }
            prop_assert_eq!(&rebuilt, &reference);
        }
    }
}
