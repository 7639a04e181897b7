//! Cross-crate integration tests: the substrates, the MMU and the simulators
//! working together through the public facade crate.

use neummu::mmu::{AddressTranslator, MmuConfig, TranslationEngine, TranslationSource};
use neummu::npu::{Layer, NpuConfig, TilingPlan};
use neummu::sim::dense::{DenseSimConfig, DenseSimulator, WorkloadResult};
use neummu::vmem::prelude::*;

/// A small but non-trivial layer used throughout these tests: large enough to
/// need several tiles and thousands of translations, small enough to simulate
/// quickly in debug builds.
fn probe_layer() -> Layer {
    Layer::lstm_cell("probe_lstm", 1, 768, 768, 2)
}

fn simulate(layer: &Layer, mmu: MmuConfig) -> WorkloadResult {
    DenseSimulator::new(DenseSimConfig::with_mmu(mmu))
        .simulate_layer(layer)
        .unwrap()
}

#[test]
fn facade_reexports_are_usable_together() {
    // Build a page table through `vmem`, translate through `mmu`, and check
    // the layer plumbing from `npu` — all via the facade crate paths.
    let mut memory = PhysicalMemory::with_npus(1, 1 << 30);
    let mut space = AddressSpace::new("integration");
    let seg = space
        .alloc_segment(
            "data",
            64 * 4096,
            SegmentOptions::new(MemNode::Npu(0), PageSize::Size4K),
            &mut memory,
        )
        .unwrap();
    let mut mmu = TranslationEngine::new(MmuConfig::neummu());
    // A DMA burst of eight 512-byte transactions to the segment's first page:
    // one walk, the other seven replayed as merges into it.
    let run = mmu.translate_run_tagged(space.page_table(), Asid::GLOBAL, seg.start(), 8, 0);
    assert!(matches!(
        run.first.source,
        TranslationSource::PageWalk { .. }
    ));
    assert_eq!(run.consumed, 8);
    assert_eq!(run.replay_source, TranslationSource::Merged);

    let plan = TilingPlan::for_layer(&probe_layer(), &NpuConfig::tpu_like()).unwrap();
    assert!(plan.tile_count() >= 1);
}

#[test]
fn mmu_ordering_holds_end_to_end() {
    let layer = probe_layer();
    let oracle = simulate(&layer, MmuConfig::oracle());
    let neummu = simulate(&layer, MmuConfig::neummu());
    let iommu = simulate(&layer, MmuConfig::baseline_iommu());

    assert!(oracle.total_cycles <= neummu.total_cycles);
    assert!(neummu.total_cycles <= iommu.total_cycles);

    // NeuMMU stays close to the oracle; the baseline IOMMU does not.
    assert!(neummu.normalized_to(&oracle) > 0.9);
    assert!(iommu.normalized_to(&oracle) < 0.6);
}

#[test]
fn translation_work_is_conserved_across_designs() {
    // Every design point sees exactly the same request stream; they only
    // differ in how the requests are satisfied.
    let layer = probe_layer();
    let oracle = simulate(&layer, MmuConfig::oracle());
    let neummu = simulate(&layer, MmuConfig::neummu());
    let iommu = simulate(&layer, MmuConfig::baseline_iommu());
    assert_eq!(oracle.translation.requests, neummu.translation.requests);
    assert_eq!(oracle.translation.requests, iommu.translation.requests);
    // Merging plus TLB hits plus walks accounts for every request.
    for result in [&neummu, &iommu] {
        assert_eq!(
            result.translation.requests,
            result.translation.tlb_hits + result.translation.merged + result.translation.walks
        );
    }
    // The PRMB prevents redundant walks: NeuMMU walks at most one per page
    // touched, while the baseline walks once per transaction.
    assert!(neummu.translation.walks < iommu.translation.walks / 2);
}

#[test]
fn dense_and_spatial_npus_both_benefit_from_neummu() {
    let layer = Layer::conv2d("conv", 1, 64, 28, 28, 128, 3, 3, 1, 1);
    for npu in [NpuConfig::tpu_like(), NpuConfig::spatial_array()] {
        let mut base_cfg = DenseSimConfig::with_mmu(MmuConfig::oracle());
        base_cfg.npu = npu;
        let oracle = DenseSimulator::new(base_cfg)
            .simulate_layer(&layer)
            .unwrap();

        let mut iommu_cfg = DenseSimConfig::with_mmu(MmuConfig::baseline_iommu());
        iommu_cfg.npu = npu;
        let iommu = DenseSimulator::new(iommu_cfg)
            .simulate_layer(&layer)
            .unwrap();

        let mut neummu_cfg = DenseSimConfig::with_mmu(MmuConfig::neummu());
        neummu_cfg.npu = npu;
        let neummu = DenseSimulator::new(neummu_cfg)
            .simulate_layer(&layer)
            .unwrap();

        assert!(neummu.normalized_to(&oracle) > iommu.normalized_to(&oracle));
    }
}

#[test]
fn page_migration_is_visible_to_the_translation_engine() {
    let mut memory = PhysicalMemory::with_npus(2, 1 << 30);
    let mut space = AddressSpace::new("migration");
    let seg = space
        .alloc_segment(
            "emb",
            32 * 4096,
            SegmentOptions::new(MemNode::Npu(1), PageSize::Size4K),
            &mut memory,
        )
        .unwrap();
    let va = seg.addr_at(3 * 4096);
    let mut mmu = TranslationEngine::new(MmuConfig::neummu());

    // Warm the TLB with the remote mapping.
    let tenant = Asid::GLOBAL;
    let first = mmu
        .translate_run_tagged(space.page_table(), tenant, va, 1, 0)
        .first;
    let warm = mmu
        .translate_run_tagged(space.page_table(), tenant, va, 1, first.complete_cycle + 1)
        .first;
    assert_eq!(warm.source, TranslationSource::TlbHit);
    assert_eq!(space.translate(va).unwrap().node, MemNode::Npu(1));

    // Migrate and invalidate; the next translation must walk again and see
    // the new node.
    space
        .migrate_page(va, MemNode::Npu(0), &mut memory)
        .unwrap();
    mmu.invalidate_page(va);
    let after = mmu
        .translate_run_tagged(space.page_table(), tenant, va, 1, warm.complete_cycle + 1)
        .first;
    assert!(matches!(after.source, TranslationSource::PageWalk { .. }));
    assert_eq!(space.translate(va).unwrap().node, MemNode::Npu(0));
}

#[test]
fn larger_batches_increase_work_monotonically() {
    let sim = DenseSimulator::new(DenseSimConfig::with_mmu(MmuConfig::oracle()));
    let mut previous = 0u64;
    for batch in [1u64, 4, 8] {
        let layer = Layer::conv2d("conv", batch, 64, 56, 56, 64, 3, 3, 1, 1);
        let result = sim.simulate_layer(&layer).unwrap();
        assert!(
            result.total_cycles > previous,
            "batch {batch} should take longer"
        );
        previous = result.total_cycles;
    }
}
