//! Output checks: per-point digests of every simulated statistic, the
//! digests stored for the default seed, and the model's conservation laws
//! (checked on every seed).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use neummu_mmu::TranslationStats;
use neummu_sim::{LatencyHistogram, MultiTenantResult, ServingResult, TenantStats, WorkloadResult};

use crate::json::Json;

/// 64-bit FNV-1a over a stream of integers.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one integer (little-endian bytes) into the digest.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    /// Folds a float by its exact bit pattern.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Folds a string (length-prefixed).
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.u64(value.len() as u64);
        for byte in value.bytes() {
            self.u64(u64::from(byte));
        }
        self
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn translation_stats(d: &mut Digest, s: &TranslationStats) {
    for v in [
        s.requests,
        s.tlb_hits,
        s.tlb_misses,
        s.merged,
        s.walks,
        s.walk_memory_accesses,
        s.tpreg_skipped_levels,
        s.tpreg_l4_hits,
        s.tpreg_l3_hits,
        s.tpreg_l2_hits,
        s.tpreg_lookups,
        s.structural_stalls,
        s.stall_cycles,
        s.faults,
        s.last_completion_cycle,
    ] {
        d.u64(v);
    }
}

fn tenant_stats(d: &mut Digest, s: &TenantStats) {
    d.str(&format!("{:?}", s.asid));
    for v in [
        s.requests,
        s.tlb_hits,
        s.merged,
        s.walks,
        s.walk_levels_read,
        s.faults,
        s.stall_cycles,
        s.completion_cycle,
        s.final_tlb_occupancy,
    ] {
        d.u64(v);
    }
}

fn histogram(d: &mut Digest, h: &LatencyHistogram) {
    d.u64(h.total());
    for (latency, count) in h.iter() {
        d.u64(latency).u64(count);
    }
}

/// Digest of a dense point: every field of the result and of its layers.
pub fn dense_digest(r: &WorkloadResult) -> u64 {
    let mut d = Digest::default();
    d.u64(r.total_cycles);
    for l in &r.layers {
        d.str(&l.layer_name);
        for v in [
            l.step_cycles,
            l.repeats,
            l.total_cycles,
            l.compute_cycles,
            l.memory_cycles,
            l.tile_count,
            l.translation_requests,
            l.max_pages_per_tile,
        ] {
            d.u64(v);
        }
        d.f64(l.avg_pages_per_tile);
    }
    translation_stats(&mut d, &r.translation);
    d.f64(r.translation_energy_nj);
    d.u64(r.walk_memory_accesses);
    d.u64(u64::from(r.trace.is_some()));
    d.finish()
}

/// Digest of an open-loop serving point: per-tenant counters, queue
/// accounting, both histograms and the completion order, the queue-depth
/// timeline, the makespan and the fault accounting.
pub fn serving_digest(r: &ServingResult) -> u64 {
    let mut d = Digest::default();
    for s in &r.stats {
        tenant_stats(&mut d, &s.translation);
        let q = &s.queue;
        for v in [
            q.offered,
            q.admitted,
            q.dropped,
            q.deferred,
            q.completed,
            q.peak_depth,
        ] {
            d.u64(v);
        }
        histogram(&mut d, &s.sojourn);
        histogram(&mut d, &s.stall);
        d.u64(s.completion_order.len() as u64);
        for &seq in &s.completion_order {
            d.u64(seq);
        }
        d.u64(s.shed).u64(s.breaker_trips);
    }
    for sample in &r.timeline {
        d.u64(sample.cycle)
            .u64(sample.waiting_total)
            .u64(sample.waiting_max);
    }
    d.u64(r.makespan_cycles);
    if let Some(f) = &r.fault_counters {
        for lane in [&f.injected, &f.detected, &f.recovered, &f.hung] {
            for &v in lane {
                d.u64(v);
            }
        }
        for (&latency, &count) in &f.recovery_latency {
            d.u64(latency).u64(count);
        }
    }
    d.finish()
}

/// Digest of a closed-loop batch.
pub fn closed_loop_digest(r: &MultiTenantResult) -> u64 {
    let mut d = Digest::default();
    for s in &r.stats {
        tenant_stats(&mut d, s);
    }
    d.u64(r.makespan_cycles);
    d.finish()
}

/// Conservation laws of a dense result against its oracle baseline.
pub fn dense_invariants(r: &WorkloadResult, oracle: &WorkloadResult) -> Result<(), String> {
    let t = &r.translation;
    let layer_requests: u64 = r.layers.iter().map(|l| l.translation_requests).sum();
    if layer_requests != t.requests {
        return Err(format!("layer requests {layer_requests} != {}", t.requests));
    }
    if t.requests != t.tlb_hits + t.tlb_misses {
        return Err(format!("requests {} != hits + misses", t.requests));
    }
    if t.tlb_misses != t.merged + t.walks {
        return Err(format!("misses {} != merged + walks", t.tlb_misses));
    }
    if r.total_cycles < oracle.total_cycles {
        return Err("faster than the oracle MMU".to_string());
    }
    Ok(())
}

/// Request conservation of a serving result. `generated[i]` is the length
/// of tenant `i`'s arrival stream.
pub fn serving_invariants(r: &ServingResult, generated: &[u64]) -> Result<(), String> {
    for (i, (s, &gen)) in r.stats.iter().zip(generated).enumerate() {
        let q = &s.queue;
        if gen != q.offered + s.shed {
            return Err(format!("tenant {i}: generated {gen} != offered + shed"));
        }
        if q.offered != q.completed + q.dropped {
            return Err(format!("tenant {i}: offered != completed + dropped"));
        }
        if s.sojourn.total() != q.completed {
            return Err(format!("tenant {i}: sojourn samples != completed"));
        }
    }
    if let Some(f) = &r.fault_counters {
        if f.total_injected() != f.total_detected() + f.total_hung() {
            return Err("faults: injected != detected + hung".to_string());
        }
    }
    Ok(())
}

/// Request conservation of a closed-loop batch.
pub fn closed_loop_invariants(r: &MultiTenantResult) -> Result<(), String> {
    for s in &r.stats {
        if s.requests != s.tlb_hits + s.merged + s.walks {
            return Err(format!("{:?}: requests != hits + merged + walks", s.asid));
        }
    }
    Ok(())
}

/// Where the stored digests of `workload` live, relative to the checkout.
pub fn digest_path(workload: &str) -> PathBuf {
    Path::new("perfbench")
        .join("digests")
        .join(format!("{workload}.txt"))
}

/// Reads stored digests: one `<index> <hex digest>` line per point.
pub fn load_digests(path: &Path) -> Result<BTreeMap<usize, u64>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_digests(&text)
}

/// Parses the stored-digest format (`#` comments allowed).
pub fn parse_digests(text: &str) -> Result<BTreeMap<usize, u64>, String> {
    let mut map = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let mut fields = line.split_whitespace();
        let (Some(index), Some(hex)) = (fields.next(), fields.next()) else {
            return Err(format!("malformed digest line {line:?}"));
        };
        let index = index
            .parse()
            .map_err(|_| format!("bad index in {line:?}"))?;
        let digest = u64::from_str_radix(hex, 16).map_err(|_| format!("bad digest in {line:?}"))?;
        map.insert(index, digest);
    }
    Ok(map)
}

/// Renders digests in the stored format.
pub fn render_digests(workload: &str, seed: u64, digests: &[u64]) -> String {
    let mut out = format!("# {workload}, seed {seed}: point index, FNV-1a digest\n");
    for (index, digest) in digests.iter().enumerate() {
        out.push_str(&format!("{index} {digest:016x}\n"));
    }
    out
}

/// The `(name, unit)` pairs a `BENCHMARK.json` section (`end_to_end` or
/// `per_layer`) declares.
pub fn declared_metrics(json: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let doc = Json::parse(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = doc
        .get(section)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} array"))?;
    entries
        .iter()
        .map(|entry| {
            let field = |name: &str| {
                entry
                    .get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{section} entry without a {name} string"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Checks that `emitted` names exactly the metrics `BENCHMARK.json`
/// declares for the section, with the same units, in any order.
pub fn check_declared(
    json: &str,
    section: &str,
    emitted: &[(&str, f64, &str)],
) -> Result<(), String> {
    let mut declared = declared_metrics(json, section)?;
    let mut actual: Vec<(String, String)> = emitted
        .iter()
        .map(|(name, _, unit)| ((*name).to_string(), (*unit).to_string()))
        .collect();
    declared.sort();
    actual.sort();
    if declared != actual {
        return Err(format!(
            "emitted {section} metrics differ from BENCHMARK.json: {actual:?} vs {declared:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use neummu_mmu::MmuConfig;
    use neummu_sim::ExperimentRunner;
    use neummu_workloads::WorkloadId;

    #[test]
    fn a_perturbed_result_trips_the_digest() {
        let runner = ExperimentRunner::serial();
        let npu = neummu_npu::NpuConfig::tpu_like();
        let result = runner
            .dense_point(WorkloadId::Rnn1, 1, MmuConfig::neummu(), npu)
            .unwrap();
        let reference = dense_digest(&result);
        assert_eq!(dense_digest(&result.clone()), reference);

        let mut perturbed = result.clone();
        perturbed.translation.walks += 1;
        assert_ne!(dense_digest(&perturbed), reference);
        let mut perturbed = result.clone();
        perturbed.layers[0].avg_pages_per_tile += 1e-9;
        assert_ne!(dense_digest(&perturbed), reference);

        // The stored-digest round trip notices the change too.
        let stored = parse_digests(&render_digests("t", 1, &[reference])).unwrap();
        assert_eq!(stored[&0], reference);
        assert_ne!(stored[&0], dense_digest(&perturbed));
    }

    #[test]
    fn declared_metrics_are_read_from_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = fs::read_to_string(path).unwrap();
        let e2e = declared_metrics(&json, "end_to_end").unwrap();
        assert!(e2e.contains(&("setup_s".to_string(), "s".to_string())));
        let per_layer = declared_metrics(&json, "per_layer").unwrap();
        assert!(per_layer.iter().any(|(n, _)| n == "ledger.explained_frac"));
        let emitted: Vec<(&str, f64, &str)> = e2e
            .iter()
            .map(|(n, u)| (n.as_str(), 1.0, u.as_str()))
            .collect();
        assert_eq!(check_declared(&json, "end_to_end", &emitted), Ok(()));
        assert!(check_declared(&json, "end_to_end", &emitted[1..]).is_err());
    }

    #[test]
    fn invariants_reject_a_broken_result() {
        let runner = ExperimentRunner::serial();
        let npu = neummu_npu::NpuConfig::tpu_like();
        let oracle = runner
            .oracle_point(WorkloadId::Rnn1, 1, MmuConfig::oracle().page_size, npu)
            .unwrap();
        let result = runner
            .dense_point(WorkloadId::Rnn1, 1, MmuConfig::baseline_iommu(), npu)
            .unwrap();
        assert_eq!(dense_invariants(&result, &oracle), Ok(()));
        let mut broken = result.clone();
        broken.translation.merged += 1;
        assert!(dense_invariants(&broken, &oracle).is_err());
    }
}
