//! Per-layer unit costs, measured on each workload's own inputs.
//!
//! For a design point, a *mirror* re-runs the simulator's memory phase through
//! the public layer entry points (`DmaEngine::page_runs`, the engine's
//! run-translate entry, `DramModel::schedule_run`) and captures every call's
//! arguments. The dense mirror is the dense simulator's loop verbatim, so its
//! translation statistics and cycle count must equal the simulated point's;
//! [`DenseMirror::check`] enforces that. The serving mirror interleaves the
//! tenants' fetch streams round-robin in service quanta, issuing exactly as
//! many requests per tenant as the simulated point did; its inputs are the
//! point's own address spaces and run shapes, not its exact interleaving.
//!
//! Each layer is then timed by replaying its captured calls back to back
//! (one clock read per batch, so clock overhead does not pollute ns/op):
//! page walks' probes through `PageTable::probe`, fetches through
//! `page_runs`, runs through a fresh translator, transfers through a fresh
//! DRAM model.

use std::hint::black_box;
use std::time::Instant;

use neummu_mem::dram::DramModel;
use neummu_mmu::{AddressTranslator, TranslationEngine, TranslationSource, TranslationStats};
use neummu_npu::{DmaEngine, Layer, PageRun, PageRunIter, TileFetch, TilingPlan};
use neummu_sim::{DenseSimConfig, ServingConfig, ServingTenantSpec, TenantStats};
use neummu_vmem::{
    AddressSpace, AddressSpaceRegistry, Asid, MemNode, NodeSpec, PageTable, PhysicalMemory,
    SegmentOptions, VirtAddr,
};

/// Captured calls of one mirrored point.
#[derive(Debug, Default)]
struct Capture {
    /// `(fetch, segment base)` per `page_runs` call.
    fetches: Vec<(TileFetch, u64)>,
    /// `(tenant, va, count, cycle)` per run-translate call.
    runs: Vec<(usize, u64, u64, u64)>,
    /// Arguments of every `schedule_run` call.
    transfers: Vec<[u64; 6]>,
    /// `(tenant, va)` of every run whose first request walked.
    walks: Vec<(usize, u64)>,
}

/// Operation count and measured time of one layer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Operations replayed.
    pub ops: u64,
    /// Host nanoseconds the replay took.
    pub ns: u64,
}

impl Cost {
    /// Nanoseconds per operation (0 when nothing was replayed).
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }

    fn add(&mut self, other: Cost) {
        self.ops += other.ops;
        self.ns += other.ns;
    }
}

/// Replayed costs of every layer, accumulated over mirrored points.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerCosts {
    /// `PageTable::probe`, per probe.
    pub probe: Cost,
    /// `DmaEngine::page_runs`, per fetch (iterator drained).
    pub page_runs: Cost,
    /// Engine run-translate entry, per translation request.
    pub engine: Cost,
    /// Run-translate calls replayed (the engine's op count per call).
    pub engine_calls: u64,
    /// `DramModel::schedule_run`, per call.
    pub schedule_run: Cost,
    /// `AddressSpace::alloc_segment` (eager mapping of an operand), per
    /// segment; timed call by call during the mirror run.
    pub map: Cost,
}

impl LayerCosts {
    /// Adds another point's costs.
    pub fn add(&mut self, other: &LayerCosts) {
        self.probe.add(other.probe);
        self.page_runs.add(other.page_runs);
        self.engine.add(other.engine);
        self.engine_calls += other.engine_calls;
        self.schedule_run.add(other.schedule_run);
        self.map.add(other.map);
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_nanos() as u64)
}

/// Times every layer on `capture`. `tables[t]` and `asids[t]` are tenant
/// `t`'s page table and context; `translator` and `dram` must be fresh.
fn replay(
    capture: &Capture,
    tables: &[&PageTable],
    asids: &[Asid],
    dma: DmaEngine,
    page_bytes: u64,
    mut translator: Box<dyn AddressTranslator>,
    mut dram: DramModel,
) -> (LayerCosts, TranslationStats) {
    let mut costs = LayerCosts::default();

    let (_, ns) = timed(|| {
        let mut acc = 0u64;
        for &(tenant, va) in &capture.walks {
            acc ^= black_box(tables[tenant].probe(VirtAddr::new(va))).memory_accesses() as u64;
        }
        acc
    });
    costs.probe = Cost {
        ops: capture.walks.len() as u64,
        ns,
    };

    let (_, ns) = timed(|| {
        let mut acc = 0u64;
        for (fetch, base) in &capture.fetches {
            for run in dma.page_runs(fetch, *base, page_bytes) {
                acc = acc.wrapping_add(run.txn_count ^ run.page);
            }
        }
        acc
    });
    costs.page_runs = Cost {
        ops: capture.fetches.len() as u64,
        ns,
    };

    let (requests, ns) = timed(|| {
        let mut requests = 0u64;
        for &(tenant, va, count, cycle) in &capture.runs {
            let out = translator.translate_run_tagged(
                tables[tenant],
                asids[tenant],
                VirtAddr::new(va),
                count,
                cycle,
            );
            requests += out.consumed;
        }
        requests
    });
    costs.engine = Cost { ops: requests, ns };
    costs.engine_calls = capture.runs.len() as u64;

    let (_, ns) = timed(|| {
        let mut acc = 0u64;
        for a in &capture.transfers {
            acc ^= dram.schedule_run(a[0], a[1], a[2], a[3], a[4], a[5]);
        }
        acc
    });
    costs.schedule_run = Cost {
        ops: capture.transfers.len() as u64,
        ns,
    };
    (costs, *translator.stats())
}

/// The dense simulator's memory/compute pipeline, re-run through public
/// layer calls with every call captured.
pub struct DenseMirror {
    /// Translation statistics of the mirror run.
    pub stats: TranslationStats,
    /// Total simulated cycles of the mirror run.
    pub total_cycles: u64,
    /// Measured layer costs.
    pub costs: LayerCosts,
    /// Whether the replayed translator reproduced the mirror's statistics.
    pub replay_matches: bool,
}

impl DenseMirror {
    /// Mirrors one dense point (`layers` are the point's layer list).
    ///
    /// # Errors
    ///
    /// Reports a tiling or mapping failure.
    pub fn run(config: DenseSimConfig, layers: &[Layer]) -> Result<DenseMirror, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let mut memory =
            PhysicalMemory::new(&[NodeSpec::new(config.node, config.memory_capacity_bytes)]);
        let mut space = AddressSpace::new("dense-npu");
        let mut translator = config.mmu.translator();
        let mut dram = DramModel::new(config.dram);
        let dma = DmaEngine::new(config.npu.dma);
        let page_bytes = config.mmu.page_size.bytes();
        let mut cap = Capture::default();
        let mut map = Cost::default();
        let mut now = 0u64;

        for (layer_index, layer) in layers.iter().enumerate() {
            let plan = TilingPlan::for_layer(layer, &config.npu).map_err(|e| err(&e))?;
            let seg_opts = SegmentOptions::new(config.node, config.mmu.page_size);
            let map_started = Instant::now();
            let ia_seg = space
                .alloc_segment(
                    format!("l{layer_index}_{}_ia", layer.name()),
                    plan.ia_segment_bytes().max(1),
                    seg_opts,
                    &mut memory,
                )
                .map_err(|e| err(&e))?;
            let w_seg = space
                .alloc_segment(
                    format!("l{layer_index}_{}_w", layer.name()),
                    plan.w_segment_bytes().max(1),
                    seg_opts,
                    &mut memory,
                )
                .map_err(|e| err(&e))?;
            map.ns += map_started.elapsed().as_nanos() as u64;
            map.ops += 2;

            let layer_start = now;
            let mut prev_mem_end = layer_start;
            let mut compute_end_prev = layer_start;
            let mut compute_end_prev2 = layer_start;
            for tile in plan.tiles() {
                let mem_start = prev_mem_end.max(compute_end_prev2);
                let mut issue_cycle = mem_start;
                let mut mem_end = mem_start;
                let fetches = [
                    tile.ia_fetch.as_ref().map(|f| (f, ia_seg.start())),
                    tile.w_fetch.as_ref().map(|f| (f, w_seg.start())),
                ];
                for (fetch, seg_base) in fetches.into_iter().flatten() {
                    cap.fetches.push((*fetch, seg_base.raw()));
                    for full_run in dma.page_runs(fetch, seg_base.raw(), page_bytes) {
                        let mut run = full_run;
                        loop {
                            let va = seg_base.add(run.first.offset);
                            cap.runs.push((0, va.raw(), run.txn_count, issue_cycle));
                            let out = translator.translate_run(
                                space.page_table(),
                                va,
                                run.txn_count,
                                issue_cycle,
                            );
                            if matches!(out.first.source, TranslationSource::PageWalk { .. }) {
                                cap.walks.push((0, va.raw()));
                            }
                            issue_cycle = out.last_accept() + 1;
                            let scheduled = run.prefix(out.consumed);
                            let args = [
                                out.first.complete_cycle,
                                out.complete_stride,
                                scheduled.txn_count,
                                scheduled.first.bytes,
                                scheduled.interior_txn_bytes(),
                                scheduled.txn_len(scheduled.txn_count - 1),
                            ];
                            cap.transfers.push(args);
                            let data_ready = dram
                                .schedule_run(args[0], args[1], args[2], args[3], args[4], args[5]);
                            mem_end = mem_end.max(data_ready);
                            if out.consumed == run.txn_count {
                                break;
                            }
                            run = run.suffix(out.consumed);
                        }
                    }
                }
                mem_end = mem_end.max(issue_cycle);
                let compute_cycles = config.npu.compute.tile_compute_cycles(
                    tile.compute.m,
                    tile.compute.k,
                    tile.compute.n,
                );
                let compute_end = mem_end.max(compute_end_prev) + compute_cycles;
                prev_mem_end = mem_end;
                compute_end_prev2 = compute_end_prev;
                compute_end_prev = compute_end;
            }
            let step_cycles = compute_end_prev.saturating_sub(layer_start).max(1);
            now = layer_start + step_cycles * plan.repeats();
        }

        let stats = *translator.stats();
        let (mut costs, replayed) = replay(
            &cap,
            &[space.page_table()],
            &[Asid::GLOBAL],
            dma,
            page_bytes,
            config.mmu.translator(),
            DramModel::new(config.dram),
        );
        costs.map = map;
        Ok(DenseMirror {
            stats,
            total_cycles: now,
            costs,
            replay_matches: replayed == stats,
        })
    }

    /// Checks the mirror against the simulated point.
    pub fn check(&self, stats: &TranslationStats, total_cycles: u64) -> Result<(), String> {
        if &self.stats != stats || self.total_cycles != total_cycles {
            return Err(format!(
                "dense mirror diverged: {} vs {} cycles",
                self.total_cycles, total_cycles
            ));
        }
        if !self.replay_matches {
            return Err("engine replay diverged from the mirror".to_string());
        }
        Ok(())
    }
}

/// One tenant's cyclic fetch stream, cut into same-page runs of at most a
/// service quantum.
struct Stream {
    fetches: Vec<(TileFetch, u64)>,
    next_fetch: usize,
    current: Option<(u64, PageRunIter)>,
    pending: Option<(u64, PageRun)>,
}

impl Stream {
    fn next_run(
        &mut self,
        dma: &DmaEngine,
        page_bytes: u64,
        max_txns: u64,
        cap: &mut Capture,
    ) -> (u64, PageRun) {
        let (base, run) = match self.pending.take() {
            Some(pending) => pending,
            None => loop {
                if let Some((base, iter)) = self.current.as_mut() {
                    if let Some(run) = iter.next() {
                        break (*base, run);
                    }
                    self.current = None;
                }
                let (fetch, base) = self.fetches[self.next_fetch % self.fetches.len()];
                self.next_fetch += 1;
                cap.fetches.push((fetch, base));
                self.current = Some((base, dma.page_runs(&fetch, base, page_bytes)));
            },
        };
        if run.txn_count > max_txns {
            self.pending = Some((base, run.suffix(max_txns)));
            (base, run.prefix(max_txns))
        } else {
            (base, run)
        }
    }
}

/// Maps a tenant's operands and lists its `(fetch, segment base)` stream.
fn map_tenant(
    space: &mut AddressSpace,
    spec: &ServingTenantSpec,
    config: &ServingConfig,
) -> Result<Vec<(TileFetch, u64)>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let node: MemNode = config.node;
    let mut memory = PhysicalMemory::new(&[NodeSpec::new(node, config.memory_capacity_bytes)]);
    let seg_opts = SegmentOptions::new(node, config.mmu.page_size);
    let layers = neummu_workloads::DenseWorkload::new(spec.workload).layers(spec.batch);
    let mut fetches = Vec::new();
    for (layer_index, layer) in layers.iter().enumerate() {
        let plan = TilingPlan::for_layer(layer, &config.npu).map_err(|e| err(&e))?;
        let ia = space
            .alloc_segment(
                format!("l{layer_index}_{}_ia", layer.name()),
                plan.ia_segment_bytes().max(1),
                seg_opts,
                &mut memory,
            )
            .map_err(|e| err(&e))?;
        let w = space
            .alloc_segment(
                format!("l{layer_index}_{}_w", layer.name()),
                plan.w_segment_bytes().max(1),
                seg_opts,
                &mut memory,
            )
            .map_err(|e| err(&e))?;
        for tile in plan.tiles() {
            if let Some(f) = tile.ia_fetch {
                fetches.push((f, ia.start().raw()));
            }
            if let Some(f) = tile.w_fetch {
                fetches.push((f, w.start().raw()));
            }
        }
    }
    Ok(fetches)
}

/// Mirrors one fault-free open-loop serving point: round-robin quanta over
/// the tenants' streams until each tenant has issued as many requests as
/// `served[t].requests`. Returns the measured layer costs.
///
/// # Errors
///
/// Reports a tiling or mapping failure.
pub fn serving_mirror(
    config: &ServingConfig,
    tenants: &[ServingTenantSpec],
    served: &[TenantStats],
) -> Result<LayerCosts, String> {
    let page_bytes = config.mmu.page_size.bytes();
    let dma = DmaEngine::new(config.npu.dma);
    let mut registry = AddressSpaceRegistry::new();
    let mut asids = Vec::new();
    let mut streams = Vec::new();
    let mut map = Cost::default();
    for spec in tenants {
        let asid = registry.create(format!("serving-{}", spec.label()));
        let space = registry.get_mut(asid).expect("just created");
        let map_started = Instant::now();
        let fetches = map_tenant(space, spec, config)?;
        map.ns += map_started.elapsed().as_nanos() as u64;
        map.ops += space.segments().count() as u64;
        streams.push(Stream {
            fetches,
            next_fetch: 0,
            current: None,
            pending: None,
        });
        asids.push(asid);
    }
    let tables: Vec<&PageTable> = asids
        .iter()
        .map(|&a| registry.get(a).expect("registered").page_table())
        .collect();
    let mut engine = TranslationEngine::new(config.mmu);
    let mut dram = DramModel::new(config.dram);
    let mut left: Vec<u64> = served.iter().map(|s| s.requests).collect();
    let mut cap = Capture::default();
    let mut now = 0u64;
    while left.iter().any(|&l| l > 0) {
        for tenant in 0..tenants.len() {
            let mut quota = config.burst_transactions.min(left[tenant]);
            while quota > 0 {
                let (base, run) = streams[tenant].next_run(&dma, page_bytes, quota, &mut cap);
                let va = VirtAddr::new(base + run.first.offset);
                cap.runs.push((tenant, va.raw(), run.txn_count, now));
                let out = engine.translate_run_tagged(
                    tables[tenant],
                    asids[tenant],
                    va,
                    run.txn_count,
                    now,
                );
                if matches!(out.first.source, TranslationSource::PageWalk { .. }) {
                    cap.walks.push((tenant, va.raw()));
                }
                if out.consumed < run.txn_count {
                    let rest = run.suffix(out.consumed);
                    streams[tenant].pending = Some(match streams[tenant].pending.take() {
                        Some((_, clip)) => (base, rest.join(&clip)),
                        None => (base, rest),
                    });
                }
                let scheduled = run.prefix(out.consumed);
                let args = [
                    out.first.complete_cycle,
                    out.complete_stride,
                    scheduled.txn_count,
                    scheduled.first.bytes,
                    scheduled.interior_txn_bytes(),
                    scheduled.txn_len(scheduled.txn_count - 1),
                ];
                cap.transfers.push(args);
                dram.schedule_run(args[0], args[1], args[2], args[3], args[4], args[5]);
                now = out.last_accept() + 1;
                quota -= out.consumed;
                left[tenant] -= out.consumed;
            }
        }
    }
    let (mut costs, _) = replay(
        &cap,
        &tables,
        &asids,
        dma,
        page_bytes,
        Box::new(TranslationEngine::new(config.mmu)),
        DramModel::new(config.dram),
    );
    costs.map = map;
    Ok(costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neummu_mmu::MmuConfig;
    use neummu_sim::ExperimentRunner;
    use neummu_workloads::{DenseWorkload, WorkloadId};

    #[test]
    fn dense_mirror_reproduces_the_simulator() {
        let npu = neummu_npu::NpuConfig::tpu_like();
        for mmu in [
            MmuConfig::neummu(),
            MmuConfig::baseline_iommu().with_ptws(16),
        ] {
            let simulated = ExperimentRunner::serial()
                .dense_point(WorkloadId::Rnn1, 1, mmu, npu)
                .unwrap();
            let layers = DenseWorkload::new(WorkloadId::Rnn1).layers(1);
            let mirror = DenseMirror::run(DenseSimConfig::with_mmu(mmu), &layers).unwrap();
            assert_eq!(
                mirror.check(&simulated.translation, simulated.total_cycles),
                Ok(())
            );
            assert_eq!(mirror.costs.engine.ops, simulated.translation.requests);
            assert_eq!(mirror.costs.engine_calls, mirror.costs.schedule_run.ops);
            assert!(mirror.costs.probe.ops > 0 && mirror.costs.page_runs.ops > 0);
        }
    }
}
