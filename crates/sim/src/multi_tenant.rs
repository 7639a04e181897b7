//! Multi-tenant NPU sharing: one translation front end, many tenants.
//!
//! The paper models a single address space per NPU, but the serving scenario
//! it motivates — a TPU-style accelerator behind heavy inference traffic —
//! time-shares one NPU between many models and users. This module supplies
//! the timing model for that scenario:
//!
//! * every tenant is a dense workload with a **private page table** (its own
//!   [`neummu_vmem::AddressSpace`], registered under an [`Asid`] in an
//!   [`neummu_vmem::AddressSpaceRegistry`]),
//! * a [`TenantScheduler`] multiplexes the tenants' DMA translation streams
//!   onto **one shared cycle-accounted translation engine and one shared
//!   HBM** with policy-picked, burst-interleaved scheduling (the DMA front
//!   end accepts at most one translation request per cycle, so tenants
//!   contend for IOTLB capacity, PTS/PRMB slots, walker bandwidth and DRAM
//!   bandwidth). It is the closed-loop entry point of the one multi-tenant
//!   driver that also runs the open-loop [`crate::serving::ServingSimulator`]:
//!   every tenant has one request, arriving at cycle 0, that lasts until its
//!   finite stream runs dry,
//! * per-tenant [`TenantStats`] event counters (in the spirit of
//!   CounterPoint's cheap measured counters) expose exactly where the
//!   cross-tenant interference lands: TLB hit-rate collapse, lost merges,
//!   extra walker occupancy, stall cycles.
//!
//! The model follows the dense simulator's accounting of the *memory phase*:
//! each tenant's stream is the exact per-transaction DMA decomposition of its
//! layers' tile fetches (one translation request per transaction, data
//! scheduled on the DRAM bandwidth server once the translation completes),
//! and a tenant is finished when its last byte has arrived. Compute phases
//! are not modelled here — translation throughput under contention is the
//! quantity of interest, and it is unaffected by the overlap structure.
//!
//! The contention-free baseline that defines per-tenant slowdown is the
//! tenant's solo run: the same scheduler with nobody to contend with
//! ([`crate::ExperimentRunner::isolated_tenant_point`] memoizes it). A
//! proptest in `crates/sim/tests/multi_tenant.rs` checks that a contended run
//! issues exactly each tenant's solo-run request stream.

use serde::{Deserialize, Serialize};

use neummu_mem::dram::{DramConfig, DramModel};
use neummu_mmu::{AddressTranslator, MmuConfig, TranslationEngine, TranslationSource};
use neummu_npu::{DmaEngine, NpuConfig, PageRun, PageRunIter, TileFetch, TilingPlan};
use neummu_vmem::{Asid, MemNode, NodeSpec, PageTable, PhysicalMemory, SegmentOptions, VirtAddr};
use neummu_workloads::{DenseWorkload, WorkloadId};

use crate::error::SimError;
use crate::serving::{DriverTenant, ServingConfig, ServingPolicy, ServingSimulator};

/// One tenant time-sharing the NPU: a dense workload at a batch size.
///
/// # Example
///
/// ```
/// use neummu_sim::multi_tenant::TenantSpec;
/// use neummu_workloads::WorkloadId;
///
/// let tenant = TenantSpec::new(WorkloadId::Cnn1, 1);
/// assert_eq!(tenant.label(), "CNN-1/b01");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// The tenant's workload.
    pub workload: WorkloadId,
    /// The tenant's batch size.
    pub batch: u64,
}

impl TenantSpec {
    /// Creates a tenant spec.
    #[must_use]
    pub fn new(workload: WorkloadId, batch: u64) -> Self {
        TenantSpec { workload, batch }
    }

    /// Human-readable `workload/batch` label (figure notation).
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/b{:02}", self.workload.label(), self.batch)
    }
}

/// Configuration of a multi-tenant scheduler run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiTenantConfig {
    /// MMU design point of the shared translation engine. Must be
    /// cycle-accounted ([`neummu_mmu::MmuKind::Oracle`] is rejected: an
    /// oracle translates for free, so there is nothing to contend for).
    pub mmu: MmuConfig,
    /// NPU architecture parameters (tiling, DMA transaction size).
    pub npu: NpuConfig,
    /// Local memory system parameters.
    pub dram: DramConfig,
    /// Memory node the tenants' operands live on.
    pub node: MemNode,
    /// Backing capacity allocated to each tenant's operands.
    pub memory_capacity_bytes: u64,
    /// Scheduling quantum: how many DMA transactions a tenant issues before
    /// the front end switches to the next tenant (burst interleaving; `1` is
    /// fine-grained round-robin).
    pub burst_transactions: u64,
}

impl MultiTenantConfig {
    /// The paper's default setup (TPU-like NPU, Table I memory system) with
    /// the given MMU design point and a 64-transaction scheduling burst.
    #[must_use]
    pub fn with_mmu(mmu: MmuConfig) -> Self {
        MultiTenantConfig {
            mmu,
            npu: NpuConfig::tpu_like(),
            dram: DramConfig::table1(),
            node: MemNode::Npu(0),
            memory_capacity_bytes: 64 << 30,
            burst_transactions: 64,
        }
    }

    /// Overrides the scheduling burst (transactions per tenant turn).
    #[must_use]
    pub fn with_burst(mut self, burst_transactions: u64) -> Self {
        self.burst_transactions = burst_transactions;
        self
    }
}

/// Per-tenant event counters and timing of one scheduler run.
///
/// The counters are the multi-tenant extension of the repo's telemetry
/// philosophy: cheap measured event counts that validate (or refute) the
/// microarchitectural story — here, how much of a tenant's slowdown is TLB
/// contention vs walker occupancy vs front-end stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantStats {
    /// The tenant's context tag.
    pub asid: Asid,
    /// Translation requests issued (one per DMA transaction).
    pub requests: u64,
    /// Requests that hit the (shared) IOTLB.
    pub tlb_hits: u64,
    /// Requests merged into an in-flight same-context walk by the PTS/PRMB.
    pub merged: u64,
    /// Page-table walks spent on this tenant.
    pub walks: u64,
    /// Page-table levels read by this tenant's walks (its walker-occupancy
    /// and walk-energy footprint).
    pub walk_levels_read: u64,
    /// Translation faults (always zero for eagerly mapped dense operands).
    pub faults: u64,
    /// Cycles this tenant's requests spent stalled for translation bandwidth
    /// (accept cycle minus issue cycle, summed).
    pub stall_cycles: u64,
    /// Cycle at which the tenant's last byte of data arrived.
    pub completion_cycle: u64,
    /// IOTLB entries the tenant held when it finished (capacity share).
    pub final_tlb_occupancy: u64,
}

impl TenantStats {
    pub(crate) fn new(asid: Asid) -> Self {
        TenantStats {
            asid,
            requests: 0,
            tlb_hits: 0,
            merged: 0,
            walks: 0,
            walk_levels_read: 0,
            faults: 0,
            stall_cycles: 0,
            completion_cycle: 0,
            final_tlb_occupancy: 0,
        }
    }

    /// IOTLB hit rate of the tenant's own request stream.
    #[must_use]
    pub fn tlb_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.tlb_hits as f64 / self.requests as f64
        }
    }
}

/// The outcome of one multi-tenant scheduler run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTenantResult {
    /// Tenant mix the run executed, in ASID order.
    pub tenants: Vec<TenantSpec>,
    /// Per-tenant counters and timing, in ASID order.
    pub stats: Vec<TenantStats>,
    /// Cycle at which the last tenant finished.
    pub makespan_cycles: u64,
}

/// What one service quantum of a tenant's stream did on the translation front
/// end (see [`TenantStream::serve_quantum`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Served {
    /// Transactions translated and scheduled: the quota, unless a finite
    /// stream ran dry first.
    pub(crate) consumed: u64,
    /// Issue cycle of the tenant's next request (last accept + 1).
    pub(crate) clock: u64,
    /// Latest data-ready cycle of the quantum's transactions (0 if none).
    pub(crate) ready_max: u64,
    /// Translation-stall cycles (accept minus issue) the quantum spent.
    pub(crate) stall: u64,
}

/// One tenant's DMA translation stream: the page-run decomposition of its
/// layers' tile fetches, yielded lazily in program order.
///
/// The stream hands out [`PageRun`]s clipped to the scheduler's remaining
/// burst quota, so a run never spans a tenant switch; a run the shared
/// engine could not fully replay is pushed back and resumes from its suffix.
/// The transaction sequence this produces is exactly the per-transaction
/// decomposition the scheduler used to iterate.
///
/// A *cyclic* stream (the open-loop serving simulator's mode) restarts from
/// the first fetch when the last one is exhausted — each inference request
/// re-fetches the model's operands at the same virtual addresses — and
/// therefore never runs dry.
pub(crate) struct TenantStream {
    dma: DmaEngine,
    /// `(segment base, fetch)` for every IA/W fetch of every tile of every
    /// layer, in issue order.
    fetches: Vec<(u64, TileFetch)>,
    next_fetch: usize,
    current: Option<(u64, PageRunIter)>,
    /// Remainder of a clipped or partially consumed run (with its base VA).
    pending: Option<(u64, PageRun)>,
    /// Wrap around at the end of the fetch list instead of ending.
    cyclic: bool,
}

impl TenantStream {
    /// Creates a stream over the given fetch list.
    pub(crate) fn new(dma: DmaEngine, fetches: Vec<(u64, TileFetch)>, cyclic: bool) -> Self {
        TenantStream {
            dma,
            fetches,
            next_fetch: 0,
            current: None,
            pending: None,
            cyclic,
        }
    }

    /// Fetches not yet started (a backlog proxy for depth-aware policies; the
    /// in-progress fetch is not counted).
    pub(crate) fn fetches_remaining(&self) -> u64 {
        (self.fetches.len() - self.next_fetch) as u64
    }

    /// The next same-page run of at most `max_txns` transactions, with the
    /// segment base VA its offsets are relative to.
    pub(crate) fn next_run(&mut self, max_txns: u64, page_bytes: u64) -> Option<(u64, PageRun)> {
        let (base, run) = match self.pending.take() {
            Some(pending) => pending,
            None => loop {
                if let Some((base, iter)) = self.current.as_mut() {
                    if let Some(run) = iter.next() {
                        break (*base, run);
                    }
                    self.current = None;
                }
                if self.next_fetch == self.fetches.len() && self.cyclic {
                    self.next_fetch = 0;
                }
                let &(base, fetch) = self.fetches.get(self.next_fetch)?;
                self.next_fetch += 1;
                self.current = Some((base, self.dma.page_runs(&fetch, base, page_bytes)));
            },
        };
        if run.txn_count > max_txns {
            self.pending = Some((base, run.suffix(max_txns)));
            Some((base, run.prefix(max_txns)))
        } else {
            Some((base, run))
        }
    }

    /// Serves up to `quota` transactions of the stream on `engine`, the first
    /// issued at `clock` and each later one a cycle after the previous
    /// accept. Every same-page run goes through the engine's run-coalesced
    /// path, is tallied into `stats` by translation source, and has its data
    /// scheduled on `dram`; the unreplayed remainder of a run returns to the
    /// front of the stream. Returns fewer than `quota` transactions only when
    /// a finite stream runs dry. Called once per turn by the multi-tenant
    /// driver behind both [`TenantScheduler`] and
    /// [`crate::serving::ServingSimulator`].
    pub(crate) fn serve_quantum(
        &mut self,
        engine: &mut TranslationEngine,
        dram: &mut DramModel,
        page_table: &PageTable,
        stats: &mut TenantStats,
        quota: u64,
        clock: u64,
    ) -> Served {
        let page_bytes = engine.config().page_size.bytes();
        let mut served = Served {
            consumed: 0,
            clock,
            ready_max: 0,
            stall: 0,
        };
        while served.consumed < quota {
            let Some((base, run)) = self.next_run(quota - served.consumed, page_bytes) else {
                break;
            };
            let issue = served.clock;
            let va = VirtAddr::new(base + run.first.offset);
            let out = engine.translate_run_tagged(page_table, stats.asid, va, run.txn_count, issue);
            let stall = out.first.accept_cycle - issue;
            stats.requests += out.consumed;
            stats.stall_cycles += stall;
            for (source, requests) in [(out.first.source, 1), (out.replay_source, out.replayed())] {
                if requests == 0 {
                    continue;
                }
                match source {
                    TranslationSource::TlbHit => stats.tlb_hits += requests,
                    TranslationSource::Merged => stats.merged += requests,
                    TranslationSource::PageWalk { levels_read } => {
                        stats.walks += requests;
                        stats.walk_levels_read += requests * u64::from(levels_read);
                    }
                    TranslationSource::Oracle => unreachable!("oracle configs are rejected"),
                }
            }
            if out.first.fault {
                stats.faults += 1;
            }
            if out.replay_fault {
                stats.faults += out.replayed();
            }
            let scheduled = run.prefix(out.consumed);
            let data_ready = dram.schedule_run(
                out.first.complete_cycle,
                out.complete_stride,
                scheduled.txn_count,
                scheduled.first.bytes,
                scheduled.interior_txn_bytes(),
                scheduled.txn_len(scheduled.txn_count - 1),
            );
            stats.completion_cycle = stats.completion_cycle.max(data_ready);
            served.consumed += out.consumed;
            served.clock = out.last_accept() + 1;
            served.ready_max = served.ready_max.max(data_ready);
            served.stall += stall;
            if out.consumed < run.txn_count {
                self.push_back(base, run.suffix(out.consumed));
            }
        }
        served
    }

    /// Returns the unconsumed tail of a run to the front of the stream.
    ///
    /// When the run being returned was itself the clipped prefix of a longer
    /// run, the clip remainder is still pending; the two are contiguous
    /// pieces of the same original run, so they are rejoined rather than one
    /// overwriting the other.
    pub(crate) fn push_back(&mut self, base: u64, run: PageRun) {
        self.pending = Some(match self.pending.take() {
            Some((pending_base, clip_remainder)) => {
                debug_assert_eq!(base, pending_base, "pieces of one run share a base");
                (base, run.join(&clip_remainder))
            }
            None => (base, run),
        });
    }
}

/// Maps one tenant's dense operands (per-layer IA and weight segments) into
/// its private address space and returns the `(segment base, fetch)` pairs of
/// its tile fetch stream, in issue order.
pub(crate) fn map_tenant_fetches(
    space: &mut neummu_vmem::AddressSpace,
    workload: WorkloadId,
    batch: u64,
    npu: &NpuConfig,
    node: MemNode,
    memory_capacity_bytes: u64,
    page_size: neummu_vmem::PageSize,
) -> Result<Vec<(u64, TileFetch)>, SimError> {
    // Every tenant draws frames from its own backing pool: physical frame
    // identity never affects timing, and a private pool keeps a tenant's
    // layout independent of who else is scheduled.
    let mut memory = PhysicalMemory::new(&[NodeSpec::new(node, memory_capacity_bytes)]);
    let layers = DenseWorkload::new(workload).layers(batch);
    let seg_opts = SegmentOptions::new(node, page_size);
    let mut fetches = Vec::new();
    for (layer_index, layer) in layers.iter().enumerate() {
        let plan = TilingPlan::for_layer(layer, npu)?;
        let ia_seg = space.alloc_segment(
            format!("l{layer_index}_{}_ia", layer.name()),
            plan.ia_segment_bytes().max(1),
            seg_opts,
            &mut memory,
        )?;
        let w_seg = space.alloc_segment(
            format!("l{layer_index}_{}_w", layer.name()),
            plan.w_segment_bytes().max(1),
            seg_opts,
            &mut memory,
        )?;
        for tile in plan.tiles() {
            if let Some(fetch) = tile.ia_fetch {
                fetches.push((ia_seg.start().raw(), fetch));
            }
            if let Some(fetch) = tile.w_fetch {
                fetches.push((w_seg.start().raw(), fetch));
            }
        }
    }
    Ok(fetches)
}

/// Burst-interleaving scheduler that multiplexes N tenants' translation
/// streams onto one NPU's translation front end under a pluggable
/// [`ServingPolicy`] (round-robin by default): the closed-loop entry point of
/// the multi-tenant driver the open-loop serving simulator also runs on.
#[derive(Debug, Clone)]
pub struct TenantScheduler {
    config: MultiTenantConfig,
    policy: ServingPolicy,
    /// Per-tenant WFQ weights (tenant-indexed; missing entries default to 1).
    weights: Vec<u64>,
}

impl TenantScheduler {
    /// Creates a round-robin scheduler with the given configuration.
    #[must_use]
    pub fn new(config: MultiTenantConfig) -> Self {
        TenantScheduler {
            config,
            policy: ServingPolicy::RoundRobin,
            weights: Vec::new(),
        }
    }

    /// Overrides the scheduling policy (round-robin if never called).
    #[must_use]
    pub fn with_policy(mut self, policy: ServingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets per-tenant weighted-fair weights (tenant-indexed; missing entries
    /// default to 1; only read by [`ServingPolicy::WeightedFair`]).
    #[must_use]
    pub fn with_weights(mut self, weights: Vec<u64>) -> Self {
        self.weights = weights;
        self
    }

    /// Runs the tenant mix to completion and returns per-tenant counters.
    ///
    /// Tenants are registered in order (tenant `i` gets ASID `i`), their
    /// streams are interleaved in bursts of
    /// [`MultiTenantConfig::burst_transactions`] transactions, and the run
    /// ends when every stream is exhausted and its data has arrived.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidConfig`] for an empty tenant list, a zero burst,
    ///   or an oracular MMU (nothing to contend for).
    /// * Propagates tiling and mapping errors.
    pub fn run(&self, tenants: &[TenantSpec]) -> Result<MultiTenantResult, SimError> {
        let config = &self.config;
        // Closed loop on the shared driver: each tenant's one request arrives
        // at cycle 0 and lasts until its finite stream runs dry.
        let driver_config = ServingConfig {
            npu: config.npu,
            dram: config.dram,
            node: config.node,
            memory_capacity_bytes: config.memory_capacity_bytes,
            burst_transactions: config.burst_transactions,
            txns_per_request: u64::MAX,
            queue_depth: 1,
            policy: self.policy,
            ..ServingConfig::with_mmu(config.mmu)
        };
        let lanes = tenants
            .iter()
            .enumerate()
            .map(|(tenant, &spec)| DriverTenant {
                spec,
                weight: self.weights.get(tenant).copied().unwrap_or(1),
                arrivals: vec![0],
            })
            .collect();
        let result = ServingSimulator::new(driver_config).drive(lanes, false, "tenant/turn")?;
        Ok(MultiTenantResult {
            tenants: tenants.to_vec(),
            stats: result.stats.into_iter().map(|s| s.translation).collect(),
            makespan_cycles: result.makespan_cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_tenants(n: usize) -> Vec<TenantSpec> {
        let mix = [WorkloadId::Cnn1, WorkloadId::Rnn2];
        (0..n).map(|i| TenantSpec::new(mix[i % 2], 1)).collect()
    }

    #[test]
    fn empty_zero_burst_and_oracle_configs_are_rejected() {
        let scheduler = TenantScheduler::new(MultiTenantConfig::with_mmu(MmuConfig::neummu()));
        assert!(matches!(
            scheduler.run(&[]),
            Err(SimError::InvalidConfig { .. })
        ));
        let zero_burst =
            TenantScheduler::new(MultiTenantConfig::with_mmu(MmuConfig::neummu()).with_burst(0));
        assert!(matches!(
            zero_burst.run(&smoke_tenants(1)),
            Err(SimError::InvalidConfig { .. })
        ));
        let oracle = TenantScheduler::new(MultiTenantConfig::with_mmu(MmuConfig::oracle()));
        assert!(matches!(
            oracle.run(&smoke_tenants(1)),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn contention_slows_tenants_down() {
        let config = MultiTenantConfig::with_mmu(MmuConfig::neummu());
        let tenants = smoke_tenants(2);
        let shared = TenantScheduler::new(config).run(&tenants).unwrap();
        let solo: Vec<TenantStats> = tenants
            .iter()
            .map(|spec| TenantScheduler::new(config).run(&[*spec]).unwrap().stats[0])
            .collect();
        for (s, i) in shared.stats.iter().zip(&solo) {
            assert_eq!(s.requests, i.requests, "same stream either way");
            assert!(
                s.completion_cycle >= i.completion_cycle,
                "sharing cannot speed a tenant up: {} vs {}",
                s.completion_cycle,
                i.completion_cycle
            );
        }
        assert!(
            shared.makespan_cycles > solo.iter().map(|s| s.completion_cycle).max().unwrap() / 2,
            "two interleaved tenants cannot be faster than half a solo tenant"
        );
    }

    #[test]
    fn partially_replayed_clipped_runs_lose_no_transactions() {
        // Regression: a run clipped by the burst quantum whose prefix the
        // engine then only partially replays (here a 1-slot PRMB exhausts
        // after the first merge) must resume from the rejoined remainder —
        // not overwrite it. Per-tenant request totals are invariant under
        // the burst quantum: burst 1 clips every run to a single
        // transaction, so it can never hit the partial-replay path and
        // serves as the reference stream length.
        let tenants = smoke_tenants(2);
        let mmu = MmuConfig::neummu().with_ptws(2).with_prmb_slots(1);
        let reference = TenantScheduler::new(MultiTenantConfig::with_mmu(mmu).with_burst(1))
            .run(&tenants)
            .unwrap();
        for burst in [3u64, 5, 64] {
            let clipped = TenantScheduler::new(MultiTenantConfig::with_mmu(mmu).with_burst(burst))
                .run(&tenants)
                .unwrap();
            for (tenant, (c, r)) in clipped.stats.iter().zip(&reference.stats).enumerate() {
                assert_eq!(
                    c.requests, r.requests,
                    "tenant {tenant} lost transactions at burst {burst}"
                );
                assert_eq!(c.tlb_hits + c.merged + c.walks, c.requests);
            }
        }
    }
}
