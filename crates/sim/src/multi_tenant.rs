//! Multi-tenant NPU sharing: one translation front end, many tenants.
//!
//! The paper models a single address space per NPU, but the serving scenario
//! it motivates — a TPU-style accelerator behind heavy inference traffic —
//! time-shares one NPU between many models and users. This module supplies
//! the timing model for that scenario:
//!
//! * every tenant is a dense workload with a **private page table** (its own
//!   [`neummu_vmem::AddressSpace`], registered under an [`Asid`] in an
//!   [`AddressSpaceRegistry`]),
//! * a [`TenantScheduler`] multiplexes the tenants' DMA translation streams
//!   onto **one shared cycle-accounted translation engine and one shared
//!   HBM** with round-robin, burst-interleaved scheduling (the DMA front end
//!   accepts at most one translation request per cycle, so tenants contend
//!   for IOTLB capacity, PTS/PRMB slots, walker bandwidth and DRAM
//!   bandwidth),
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
//! [`ResourceMode::Isolated`] runs the same interleaved schedule with
//! per-tenant private engines, DRAM servers and clocks — contention
//! disabled. A tenant's stats in that mode are *identical* to a run of that
//! tenant alone, which is both the baseline that defines per-tenant slowdown
//! and a sharp correctness check on the scheduler's bookkeeping (locked in by
//! a proptest in `crates/sim/tests/multi_tenant.rs`).

use serde::{Deserialize, Serialize};

use neummu_mem::dram::{DramConfig, DramModel};
use neummu_mmu::{AddressTranslator, MmuConfig, MmuKind, TranslationEngine, TranslationSource};
use neummu_npu::{DmaEngine, NpuConfig, PageRun, PageRunIter, TileFetch, TilingPlan};
use neummu_vmem::{
    AddressSpaceRegistry, Asid, MemNode, NodeSpec, PageTable, PhysicalMemory, SegmentOptions,
    VirtAddr,
};
use neummu_workloads::{DenseWorkload, WorkloadId};

use crate::error::SimError;
use crate::serving::{PolicyState, ServingPolicy};

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

/// Whether tenants contend for the translation and memory hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceMode {
    /// One IOTLB, one walker pool, one DRAM shared by every tenant — the
    /// contended serving scenario.
    Shared,
    /// Contention disabled: every tenant gets private resources and a
    /// private clock. Per-tenant results are identical to running each
    /// tenant alone (the slowdown baseline).
    Isolated,
}

/// Configuration of a multi-tenant scheduler run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiTenantConfig {
    /// MMU design point of the (shared or per-tenant) translation engine.
    /// Must be cycle-accounted ([`MmuKind::Oracle`] is rejected: an oracle
    /// translates for free, so there is nothing to contend for).
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
    /// Shared (contended) or isolated (contention-free baseline) resources.
    pub mode: ResourceMode,
}

impl MultiTenantConfig {
    /// The paper's default setup (TPU-like NPU, Table I memory system) with
    /// the given MMU design point, shared resources and a 64-transaction
    /// scheduling burst.
    #[must_use]
    pub fn with_mmu(mmu: MmuConfig) -> Self {
        MultiTenantConfig {
            mmu,
            npu: NpuConfig::tpu_like(),
            dram: DramConfig::table1(),
            node: MemNode::Npu(0),
            memory_capacity_bytes: 64 << 30,
            burst_transactions: 64,
            mode: ResourceMode::Shared,
        }
    }

    /// Disables contention: per-tenant private engines, DRAM and clocks.
    #[must_use]
    pub fn isolated(mut self) -> Self {
        self.mode = ResourceMode::Isolated;
        self
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

    /// Cycles of walker busy time attributable to the tenant, given the
    /// engine's per-level walk latency.
    #[must_use]
    pub fn walker_busy_cycles(&self, walk_latency_per_level: u64) -> u64 {
        self.walk_levels_read * walk_latency_per_level
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

impl MultiTenantResult {
    /// The stats of the tenant registered under `asid`.
    #[must_use]
    pub fn tenant(&self, asid: Asid) -> Option<&TenantStats> {
        self.stats.get(asid.index())
    }

    /// Each tenant's share of the total walker busy cycles (the
    /// walker-occupancy breakdown; empty if no tenant walked).
    #[must_use]
    pub fn walker_occupancy_shares(&self) -> Vec<f64> {
        let total: u64 = self.stats.iter().map(|s| s.walk_levels_read).sum();
        if total == 0 {
            return vec![0.0; self.stats.len()];
        }
        self.stats
            .iter()
            .map(|s| s.walk_levels_read as f64 / total as f64)
            .collect()
    }
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
    /// front of the stream. The one run-serving loop of both tenant drivers:
    /// the closed-loop [`TenantScheduler`] and the open-loop
    /// [`crate::serving::ServingSimulator`] each keep only their own tenant
    /// picking, clocking, completion and trace-label code.
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
/// its tile fetch stream, in issue order. Shared between the closed-loop
/// scheduler and the open-loop serving simulator so both drive the engine
/// with identical per-tenant streams.
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

/// Per-tenant or shared simulation resources, depending on the mode.
struct Resources {
    engines: Vec<TranslationEngine>,
    drams: Vec<DramModel>,
    clocks: Vec<u64>,
}

impl Resources {
    fn index_for(&self, tenant: usize) -> usize {
        if self.engines.len() == 1 {
            0
        } else {
            tenant
        }
    }
}

/// Burst-interleaving scheduler that multiplexes N tenants' translation
/// streams onto one NPU's translation front end under a pluggable
/// [`ServingPolicy`] (round-robin by default — the historical behaviour,
/// bit-identical to the original rotation).
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

    /// The scheduler's configuration.
    #[must_use]
    pub fn config(&self) -> &MultiTenantConfig {
        &self.config
    }

    /// The scheduler's policy.
    #[must_use]
    pub fn policy(&self) -> ServingPolicy {
        self.policy
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
        if tenants.is_empty() {
            return Err(SimError::InvalidConfig {
                reason: "multi-tenant run needs at least one tenant".to_string(),
            });
        }
        if config.burst_transactions == 0 {
            return Err(SimError::InvalidConfig {
                reason: "scheduling burst must be at least one transaction".to_string(),
            });
        }
        if config.mmu.kind == MmuKind::Oracle {
            return Err(SimError::InvalidConfig {
                reason: "the multi-tenant scheduler models contention on a cycle-accounted \
                         engine; the oracular MMU has nothing to contend for"
                    .to_string(),
            });
        }
        config.npu.validate()?;

        // Per-tenant address spaces (private page tables) and streams.
        let mut registry = AddressSpaceRegistry::new();
        let mut streams = Vec::with_capacity(tenants.len());
        let mut stats: Vec<TenantStats> = Vec::with_capacity(tenants.len());
        for spec in tenants {
            let asid = registry.create(format!("tenant-{}", spec.label()));
            let space = registry.get_mut(asid).expect("just created");
            let fetches = map_tenant_fetches(
                space,
                spec.workload,
                spec.batch,
                &config.npu,
                config.node,
                config.memory_capacity_bytes,
                config.mmu.page_size,
            )?;
            streams.push(TenantStream::new(
                DmaEngine::new(config.npu.dma),
                fetches,
                false,
            ));
            stats.push(TenantStats::new(asid));
        }

        // Shared mode: one engine/DRAM/clock. Isolated mode: one per tenant.
        let replicas = match config.mode {
            ResourceMode::Shared => 1,
            ResourceMode::Isolated => tenants.len(),
        };
        let mut resources = Resources {
            engines: (0..replicas)
                .map(|_| TranslationEngine::new(config.mmu))
                .collect(),
            drams: (0..replicas).map(|_| DramModel::new(config.dram)).collect(),
            clocks: vec![0u64; replicas],
        };

        // Policy-picked turns over live tenants, `burst_transactions` per
        // turn. Each turn consumes its quantum as same-page runs through the
        // run-coalesced engine path: runs are clipped to the remaining quota
        // (a run never spans a tenant switch), and a partially replayed run
        // resumes from its suffix — so the request sequence the shared
        // engine observes is exactly the old per-transaction interleaving.
        // Under the default round-robin policy the cyclic cursor visits live
        // tenants in exactly the order the original `VecDeque` rotation did
        // (pop front, serve, push back), so default runs are bit-identical to
        // the pre-policy scheduler.
        // One `tenant/turn` trace span per scheduler turn: the tenant's slice
        // of the shared front end, in simulated cycles, with the number of
        // transactions it got through as the payload.
        let turn_trace = neummu_trace::global().map(|sink| (sink, sink.kind("tenant/turn")));
        let mut policy_state = PolicyState::new(self.policy, tenants.len(), &self.weights);
        let mut live = vec![true; tenants.len()];
        let mut live_count = tenants.len();
        let mut depths = vec![0u64; tenants.len()];
        let mut occupancies = vec![0u64; tenants.len()];
        while live_count > 0 {
            if self.policy.needs_depths() {
                for (tenant, depth) in depths.iter_mut().enumerate() {
                    *depth = if live[tenant] {
                        streams[tenant].fetches_remaining()
                    } else {
                        0
                    };
                }
            }
            if self.policy.needs_occupancy() {
                for (tenant, occupancy) in occupancies.iter_mut().enumerate() {
                    *occupancy = resources.engines[resources.index_for(tenant)]
                        .tlb()
                        .occupancy_of(stats[tenant].asid) as u64;
                }
            }
            let tlb_capacity = resources.engines[0].tlb().capacity() as u64;
            let tenant = policy_state
                .pick(&live, &depths, &occupancies, tlb_capacity)
                .expect("at least one tenant is live");
            let slot = resources.index_for(tenant);
            let asid = stats[tenant].asid;
            let turn_start = resources.clocks[slot];
            let space = registry.get(asid).expect("registered above");
            let served = streams[tenant].serve_quantum(
                &mut resources.engines[slot],
                &mut resources.drams[slot],
                space.page_table(),
                &mut stats[tenant],
                config.burst_transactions,
                turn_start,
            );
            resources.clocks[slot] = served.clock;
            let consumed = served.consumed;
            let exhausted = consumed < config.burst_transactions;
            if let Some((sink, kind)) = turn_trace {
                if consumed > 0 {
                    sink.emit(neummu_trace::Event {
                        kind,
                        asid: asid.raw(),
                        start: turn_start,
                        end: resources.clocks[slot],
                        payload: consumed,
                    });
                }
            }
            policy_state.charge(tenant, consumed);
            if exhausted {
                stats[tenant].final_tlb_occupancy = resources.engines[resources.index_for(tenant)]
                    .tlb()
                    .occupancy_of(asid) as u64;
                live[tenant] = false;
                live_count -= 1;
            }
        }

        let makespan_cycles = stats.iter().map(|s| s.completion_cycle).max().unwrap_or(0);
        Ok(MultiTenantResult {
            tenants: tenants.to_vec(),
            stats,
            makespan_cycles,
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
    fn single_tenant_shared_equals_isolated() {
        // With one tenant there is nobody to contend with: shared and
        // isolated modes must agree bit for bit.
        let tenants = smoke_tenants(1);
        let shared = TenantScheduler::new(MultiTenantConfig::with_mmu(MmuConfig::neummu()))
            .run(&tenants)
            .unwrap();
        let isolated =
            TenantScheduler::new(MultiTenantConfig::with_mmu(MmuConfig::neummu()).isolated())
                .run(&tenants)
                .unwrap();
        assert_eq!(shared, isolated);
        assert!(shared.stats[0].requests > 0);
        assert_eq!(shared.makespan_cycles, shared.stats[0].completion_cycle);
    }

    #[test]
    fn contention_slows_tenants_down() {
        let tenants = smoke_tenants(2);
        let shared = TenantScheduler::new(MultiTenantConfig::with_mmu(MmuConfig::neummu()))
            .run(&tenants)
            .unwrap();
        let isolated =
            TenantScheduler::new(MultiTenantConfig::with_mmu(MmuConfig::neummu()).isolated())
                .run(&tenants)
                .unwrap();
        for (s, i) in shared.stats.iter().zip(&isolated.stats) {
            assert_eq!(s.requests, i.requests, "same stream either way");
            assert!(
                s.completion_cycle >= i.completion_cycle,
                "sharing cannot speed a tenant up: {} vs {}",
                s.completion_cycle,
                i.completion_cycle
            );
        }
        assert!(
            shared.makespan_cycles
                > isolated
                    .stats
                    .iter()
                    .map(|s| s.completion_cycle)
                    .max()
                    .unwrap()
                    / 2,
            "two interleaved tenants cannot be faster than half an isolated tenant"
        );
    }

    #[test]
    fn isolated_interleaved_matches_solo_runs() {
        // The contention-disabled interleaved run must reproduce each
        // tenant's solo run exactly (modulo the ASID tag).
        let tenants = smoke_tenants(2);
        let config = MultiTenantConfig::with_mmu(MmuConfig::neummu()).isolated();
        let interleaved = TenantScheduler::new(config).run(&tenants).unwrap();
        for (index, spec) in tenants.iter().enumerate() {
            let solo = TenantScheduler::new(config).run(&[*spec]).unwrap();
            let mut expected = solo.stats[0];
            expected.asid = Asid::new(index as u16);
            assert_eq!(interleaved.stats[index], expected, "{}", spec.label());
        }
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

    #[test]
    fn walker_occupancy_shares_sum_to_one() {
        let result = TenantScheduler::new(MultiTenantConfig::with_mmu(MmuConfig::neummu()))
            .run(&smoke_tenants(2))
            .unwrap();
        let shares = result.walker_occupancy_shares();
        assert_eq!(shares.len(), 2);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12, "shares sum to {sum}");
        assert!(result.tenant(Asid::new(0)).is_some());
        assert!(result.tenant(Asid::new(7)).is_none());
    }
}
