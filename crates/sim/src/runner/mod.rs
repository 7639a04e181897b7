//! The parallel experiment runner.
//!
//! The paper's evaluation is a grid of `(workload, batch, MMU design point)`
//! simulation cells, every cell independent of every other. This module turns
//! that grid into a job list executed on a hand-rolled scoped thread pool
//! ([`pool`]), with two cross-cutting services:
//!
//! * an **oracle-memoization cache** ([`oracle_cache`]) so that each oracle
//!   baseline — which depends only on `(workload, batch, page size, NPU)`,
//!   never on the candidate MMU — is simulated exactly once per runner
//!   lifetime instead of once per swept configuration, and
//! * a **self-profile** ([`profile`]) recording per-job wall-clock time under
//!   a phase label, so `neummu-experiments` can report where simulation time
//!   goes.
//!
//! # Determinism
//!
//! Parallel and serial schedules produce bit-identical results: each job is a
//! pure function of its index, results are collected in index order, and all
//! floating-point aggregation happens after collection, in that order. The
//! memoized oracle result is produced by exactly the simulation the serial
//! path would run, so sharing it cannot perturb a single bit. This is locked
//! in by the `determinism` integration test and by the CI step that diffs a
//! `--threads 4` artifact tree against a serial one.

pub mod oracle_cache;
pub mod pool;
pub mod profile;

pub use oracle_cache::{OracleCache, OracleKey};
pub use profile::{PhaseStats, SelfProfile};

use std::sync::Arc;
use std::time::Instant;

use neummu_mmu::MmuConfig;
use neummu_npu::NpuConfig;
use neummu_vmem::PageSize;
use neummu_workloads::{DenseWorkload, WorkloadId};

use crate::dense::{DenseSimConfig, DenseSimulator, WorkloadResult};
use crate::error::SimError;

/// Executes experiment job graphs on a thread pool with shared oracle
/// memoization and self-profiling.
///
/// One runner is meant to live for a whole experiments run (the
/// `neummu-experiments` binary builds exactly one), so oracle baselines are
/// shared across experiment families: Figure 8 and the Section IV-D summary,
/// for example, normalize against the very same memoized baselines.
#[derive(Debug)]
pub struct ExperimentRunner {
    threads: usize,
    oracle_cache: OracleCache,
    profile: SelfProfile,
}

impl Default for ExperimentRunner {
    /// Equivalent to `ExperimentRunner::new(0)`: available parallelism.
    fn default() -> Self {
        Self::new(0)
    }
}

impl ExperimentRunner {
    /// Creates a runner with the given worker-thread count; `0` selects the
    /// machine's available parallelism and `1` is the serial reference path.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        ExperimentRunner {
            threads,
            oracle_cache: OracleCache::new(),
            profile: SelfProfile::new(),
        }
    }

    /// A single-threaded runner (today's serial execution order).
    #[must_use]
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Attaches a persistent slot store (see
    /// [`OracleCache::attach_store`]): memoized baselines are restored from
    /// and committed to it, so interrupted sweeps resume instead of
    /// recomputing. Builder-style, called before the runner is shared.
    #[must_use]
    pub fn with_store(mut self, store: Arc<neummu_store::Store>) -> Self {
        self.oracle_cache.attach_store(store);
        self
    }

    /// Number of worker threads jobs run on.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared oracle-baseline cache.
    #[must_use]
    pub fn oracle_cache(&self) -> &OracleCache {
        &self.oracle_cache
    }

    /// The wall-clock self-profile accumulated so far.
    #[must_use]
    pub fn profile(&self) -> &SelfProfile {
        &self.profile
    }

    /// Runs `job(0..count)` on the pool and returns the results in job-index
    /// order, recording each job's wall-clock time under `phase`.
    ///
    /// # Errors
    ///
    /// If any job fails, returns the error of the lowest-indexed failing job
    /// (independent of scheduling, so error reporting is deterministic too).
    pub fn run_jobs<T, F>(&self, phase: &str, count: usize, job: F) -> Result<Vec<T>, SimError>
    where
        T: Send,
        F: Fn(usize) -> Result<T, SimError> + Sync,
    {
        pool::run_indexed(self.threads, count, |index| {
            let started = Instant::now();
            let result = job(index);
            self.profile.record(phase, started.elapsed());
            result
        })
        .into_iter()
        .collect()
    }

    /// Simulates one dense-suite point under the given MMU and NPU (the
    /// uncached candidate leg of a normalized measurement).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn dense_point(
        &self,
        workload: WorkloadId,
        batch: u64,
        mmu: MmuConfig,
        npu: NpuConfig,
    ) -> Result<WorkloadResult, SimError> {
        let mut config = DenseSimConfig::with_mmu(mmu);
        config.npu = npu;
        let layers = DenseWorkload::new(workload).layers(batch);
        DenseSimulator::new(config).simulate_workload(&layers)
    }

    /// The memoized oracle baseline for a dense-suite point. A baseline that
    /// actually simulates here is profiled under the dedicated
    /// `oracle/baseline` phase rather than the phase of whichever experiment
    /// job happened to request its key first. (Phase timings are inclusive
    /// wall-clock per job, so a job blocked on another thread's in-flight
    /// baseline still counts that wait in its own phase.)
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn oracle_point(
        &self,
        workload: WorkloadId,
        batch: u64,
        page_size: PageSize,
        npu: NpuConfig,
    ) -> Result<Arc<WorkloadResult>, SimError> {
        self.oracle_cache
            .oracle_result_with(workload, batch, page_size, npu, |elapsed| {
                self.profile.record("oracle/baseline", elapsed);
            })
    }

    /// The memoized contention-free baseline of one tenant: its solo run
    /// through the multi-tenant scheduler, where it has the shared engine
    /// and DRAM to itself. This is the denominator of every per-tenant
    /// slowdown, keyed by the tenant point *plus* the scenario fingerprint
    /// (MMU design point and scheduling burst), so a tenant-count sweep
    /// simulates each distinct baseline exactly once per runner lifetime.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn isolated_tenant_point(
        &self,
        spec: crate::multi_tenant::TenantSpec,
        config: crate::multi_tenant::MultiTenantConfig,
    ) -> Result<Arc<crate::multi_tenant::TenantStats>, SimError> {
        // The whole config is the scenario: every field (MMU design point,
        // DRAM parameters, node, capacity, burst) can shift the baseline's
        // completion cycles, so all of it goes into the fingerprint.
        let key = oracle_cache::OracleKey::for_scenario(
            spec.workload,
            spec.batch,
            config.mmu.page_size,
            &config.npu,
            format!("mt-isolated/{config:?}"),
        );
        self.oracle_cache.tenant_baseline_with(
            key,
            || {
                crate::multi_tenant::TenantScheduler::new(config)
                    .run(std::slice::from_ref(&spec))
                    .map(|result| result.stats[0])
            },
            |elapsed| {
                self.profile
                    .record("multi_tenant/isolated-baseline", elapsed)
            },
        )
    }

    /// Performance of `mmu` on a point, normalized to the memoized oracle
    /// baseline at the same page size.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn normalized_point(
        &self,
        workload: WorkloadId,
        batch: u64,
        mmu: MmuConfig,
        npu: NpuConfig,
    ) -> Result<f64, SimError> {
        let oracle = self.oracle_point(workload, batch, mmu.page_size, npu)?;
        let candidate = self.dense_point(workload, batch, mmu, npu)?;
        Ok(candidate.normalized_to(&oracle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let runner = ExperimentRunner::new(0);
        assert!(runner.threads() >= 1);
        assert_eq!(ExperimentRunner::serial().threads(), 1);
        assert_eq!(ExperimentRunner::new(4).threads(), 4);
    }

    #[test]
    fn run_jobs_preserves_index_order_and_profiles() {
        let runner = ExperimentRunner::new(4);
        let results = runner
            .run_jobs("square", 32, |i| Ok(i * i))
            .expect("jobs are infallible");
        assert_eq!(results[31], 31 * 31);
        let phases = runner.profile().phases();
        assert_eq!(phases["square"].jobs, 32);
    }

    #[test]
    fn run_jobs_reports_the_lowest_indexed_error() {
        let runner = ExperimentRunner::new(4);
        let result: Result<Vec<usize>, SimError> = runner.run_jobs("failing", 16, |i| {
            if i % 2 == 1 {
                Err(SimError::InvalidConfig {
                    reason: format!("job {i}"),
                })
            } else {
                Ok(i)
            }
        });
        match result {
            Err(SimError::InvalidConfig { reason }) => assert_eq!(reason, "job 1"),
            other => panic!("expected the job-1 error, got {other:?}"),
        }
    }

    #[test]
    fn normalized_point_uses_the_cache() {
        let runner = ExperimentRunner::serial();
        let npu = NpuConfig::tpu_like();
        let a = runner
            .normalized_point(WorkloadId::Cnn1, 1, MmuConfig::baseline_iommu(), npu)
            .unwrap();
        let b = runner
            .normalized_point(WorkloadId::Cnn1, 1, MmuConfig::neummu(), npu)
            .unwrap();
        assert!(a > 0.0 && b > 0.0);
        assert_eq!(runner.oracle_cache().simulations(), 1);
        assert_eq!(runner.oracle_cache().hits(), 1);
    }
}
