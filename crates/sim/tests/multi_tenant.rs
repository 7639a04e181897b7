//! Integration tests of the multi-tenant subsystem: tagged-translation
//! semantics end to end, the solo-run baseline, closed-loop policy pins, and
//! byte-level determinism of the experiment family.

use proptest::prelude::*;

use neummu_mmu::MmuConfig;
use neummu_sim::experiments::{multi_tenant as mt_experiment, ExperimentScale};
use neummu_sim::multi_tenant::{MultiTenantConfig, TenantScheduler, TenantSpec};
use neummu_sim::ExperimentRunner;
use neummu_sim::ServingPolicy;
use neummu_workloads::WorkloadId;

const SMOKE: ExperimentScale = ExperimentScale::Smoke;

/// Serializes exactly like `ExperimentArtifacts::json` writes artifacts.
fn artifact_bytes<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("artifact serialization is infallible")
}

#[test]
fn two_identical_tenants_make_identical_progress_under_fair_sharing() {
    // Two tenants running the *same* workload issue the same VAs under
    // different ASIDs. With fair round-robin their streams are symmetric, so
    // their per-tenant counters must agree — any asymmetry would mean one
    // tenant's translations leaked into (or aliased with) the other's.
    let tenants = [
        TenantSpec::new(WorkloadId::Cnn1, 1),
        TenantSpec::new(WorkloadId::Cnn1, 1),
    ];
    let result = TenantScheduler::new(MultiTenantConfig::with_mmu(MmuConfig::neummu()))
        .run(&tenants)
        .unwrap();
    let (a, b) = (&result.stats[0], &result.stats[1]);
    assert_eq!(a.requests, b.requests);
    // Every request is accounted to exactly one source.
    for s in [a, b] {
        assert_eq!(s.tlb_hits + s.merged + s.walks, s.requests);
    }
    // Identical VAs in different ASIDs never alias. If tenant B could hit on
    // tenant A's freshly filled entries (or merge into A's in-flight walks of
    // the same page number), B would stop walking almost entirely — its walk
    // count would collapse and its hit count would explode relative to A's.
    // The streams are only phase-shifted by one scheduling burst, so genuine
    // counters differ by at most a sliver; allow 1% for that phase noise.
    let tolerance = (a.requests / 100).max(64);
    assert!(
        a.tlb_hits.abs_diff(b.tlb_hits) <= tolerance,
        "cross-ASID TLB aliasing: {} vs {}",
        a.tlb_hits,
        b.tlb_hits
    );
    assert!(
        a.walks.abs_diff(b.walks) <= tolerance,
        "asymmetric walks: {} vs {}",
        a.walks,
        b.walks
    );
    assert!(
        a.merged.abs_diff(b.merged) <= tolerance,
        "cross-ASID PRMB merging: {} vs {}",
        a.merged,
        b.merged
    );
    // The second-scheduled twin finishes within one burst's worth of issue
    // slots of the first — fair sharing, no starvation.
    assert!(a.completion_cycle.abs_diff(b.completion_cycle) < result.makespan_cycles / 2);
}

#[test]
fn sweep_artifacts_are_byte_identical_across_thread_counts() {
    let serial = mt_experiment::tenant_sweep_on(&ExperimentRunner::new(1), SMOKE).unwrap();
    let parallel = mt_experiment::tenant_sweep_on(&ExperimentRunner::new(4), SMOKE).unwrap();
    assert_eq!(
        artifact_bytes(&serial),
        artifact_bytes(&parallel),
        "multitenant_sweep.json must not depend on the thread count"
    );
    assert_eq!(serial.to_table().to_csv(), parallel.to_table().to_csv());
    assert_eq!(
        serial.counters_table().to_markdown(),
        parallel.counters_table().to_markdown()
    );
}

#[test]
fn repeated_shared_runs_are_bit_identical() {
    let config = MultiTenantConfig::with_mmu(MmuConfig::neummu());
    let tenants = mt_experiment::tenant_mix(SMOKE, 2);
    let a = TenantScheduler::new(config).run(&tenants).unwrap();
    let b = TenantScheduler::new(config).run(&tenants).unwrap();
    assert_eq!(artifact_bytes(&a), artifact_bytes(&b));
}

/// The closed-loop policy pins: a 3-tenant smoke mix at burst 16 with WFQ
/// weights `[1, 3, 2]`, under every scheduling policy, with the golden file
/// each serialized `MultiTenantResult` must match byte for byte.
fn policy_pins() -> [(ServingPolicy, &'static str, &'static str); 4] {
    [
        (
            ServingPolicy::RoundRobin,
            "closed_loop_rr.json",
            include_str!("golden/closed_loop_rr.json"),
        ),
        (
            ServingPolicy::WeightedFair,
            "closed_loop_wfq.json",
            include_str!("golden/closed_loop_wfq.json"),
        ),
        (
            ServingPolicy::BurstQuantum,
            "closed_loop_bq.json",
            include_str!("golden/closed_loop_bq.json"),
        ),
        (
            ServingPolicy::TlbAware {
                occupancy_cap_pct: 34,
            },
            "closed_loop_tlb.json",
            include_str!("golden/closed_loop_tlb.json"),
        ),
    ]
}

fn policy_pin_bytes(policy: ServingPolicy) -> String {
    let config = MultiTenantConfig::with_mmu(MmuConfig::neummu()).with_burst(16);
    let result = TenantScheduler::new(config)
        .with_policy(policy)
        .with_weights(vec![1, 3, 2])
        .run(&mt_experiment::tenant_mix(SMOKE, 3))
        .unwrap();
    artifact_bytes(&result)
}

#[test]
fn closed_loop_runs_match_their_policy_pins() {
    for (policy, name, golden) in policy_pins() {
        assert!(
            golden == policy_pin_bytes(policy),
            "closed-loop {} run diverged from tests/golden/{name}; after an \
             intentional model change regenerate with `cargo test -p neummu_sim \
             --test multi_tenant -- --ignored regenerate_policy_pins`",
            policy.name()
        );
    }
}

/// Rewrites the policy-pin goldens from the current build (run explicitly,
/// see [`closed_loop_runs_match_their_policy_pins`]).
#[test]
#[ignore = "rewrites the checked-in goldens"]
fn regenerate_policy_pins() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    for (policy, name, _) in policy_pins() {
        std::fs::write(dir.join(name), policy_pin_bytes(policy)).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The solo-run baseline, against the contended run: for any scheduling
    /// burst, policy and 2-tenant mix, each tenant issues exactly its solo
    /// run's requests, every request has exactly one translation source, and
    /// the runner's memoized baseline is that solo run.
    #[test]
    fn two_tenant_runs_keep_each_solo_runs_stream(
        burst_choice in 0usize..5,
        policy_choice in 0usize..4,
        first in 0usize..2,
        second in 0usize..2,
    ) {
        let burst = [1u64, 2, 7, 64, 257][burst_choice];
        let policy = [
            ServingPolicy::RoundRobin,
            ServingPolicy::WeightedFair,
            ServingPolicy::BurstQuantum,
            ServingPolicy::TlbAware { occupancy_cap_pct: 34 },
        ][policy_choice];
        let pool = [WorkloadId::Cnn1, WorkloadId::Rnn2];
        let tenants = [
            TenantSpec::new(pool[first], 1),
            TenantSpec::new(pool[second], 1),
        ];
        let config = MultiTenantConfig::with_mmu(MmuConfig::neummu()).with_burst(burst);
        let shared = TenantScheduler::new(config)
            .with_policy(policy)
            .with_weights(vec![1, 3])
            .run(&tenants)
            .unwrap();
        let runner = ExperimentRunner::serial();
        for (slot, spec) in tenants.iter().enumerate() {
            let solo = TenantScheduler::new(config).run(&[*spec]).unwrap().stats[0];
            let stats = &shared.stats[slot];
            prop_assert_eq!(stats.requests, solo.requests, "tenant {} (burst {})", spec.label(), burst);
            prop_assert_eq!(stats.tlb_hits + stats.merged + stats.walks, stats.requests);
            prop_assert_eq!(
                *runner.isolated_tenant_point(*spec, config).unwrap(),
                solo
            );
        }
    }
}
