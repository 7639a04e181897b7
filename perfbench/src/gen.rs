//! Seeded input generation: the design points of each workload.
//!
//! Everything the simulator receives is produced here from the workload
//! seed, so the same seed always yields the same points in the same order
//! ([`generate`] is a pure function of its arguments). The sample is
//! stratified: every pass covers every dense cell (6 DNNs × batch 1/4/8) or
//! every serving stratum (policy × load factor, fault rate) exactly once,
//! and the seed draws the parameters inside each stratum. That keeps the
//! amount of work per pass nearly independent of the seed, which is what
//! lets host-time metrics from different seeds be compared.

use neummu_mmu::MmuConfig;
use neummu_sim::experiments::{resilience, serving, ExperimentScale};
use neummu_sim::{
    ArrivalConfig, ArrivalShape, MultiTenantConfig, ServingConfig, ServingPolicy,
    ServingTenantSpec, TenantSpec,
};
use neummu_workloads::{WorkloadId, DENSE_BATCH_SIZES};

/// The seed whose per-point digests are stored under `perfbench/digests/`.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking that conclusions carry over.
pub const HELD_OUT_SEED: u64 = 7;

/// The six DNNs of the dense suite.
pub const DNNS: [WorkloadId; 6] = [
    WorkloadId::Cnn1,
    WorkloadId::Cnn2,
    WorkloadId::Cnn3,
    WorkloadId::Rnn1,
    WorkloadId::Rnn2,
    WorkloadId::Rnn3,
];

/// The named workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Dense sweep under merging-on (PTS/PRMB) MMU configurations.
    DenseNeummu,
    /// Dense sweep under merging-off MMU configurations.
    DenseWalk,
    /// Open-loop serving, fault-injected serving and closed-loop batches.
    ServingMt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DenseNeummu,
        Workload::DenseWalk,
        Workload::ServingMt,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseNeummu => "dense_neummu",
            Workload::DenseWalk => "dense_walk",
            Workload::ServingMt => "serving_mt",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload sweeps dense-suite points.
    pub fn is_dense(self) -> bool {
        !matches!(self, Workload::ServingMt)
    }
}

/// SplitMix64: a tiny, well-mixed generator whose whole state is the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform `f64` in `[lo, hi)`, rounded to 1/1000 so labels stay short.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + unit * (hi - lo)) * 1000.0).round() / 1000.0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One dense-suite design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DensePoint {
    /// The DNN.
    pub workload: WorkloadId,
    /// Batch size.
    pub batch: u64,
    /// The candidate MMU.
    pub mmu: MmuConfig,
}

/// One open-loop serving point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPoint {
    /// Serving configuration (policy, queues, faults, breaker).
    pub config: ServingConfig,
    /// The tenants, in ASID order.
    pub tenants: Vec<ServingTenantSpec>,
    /// Offered-load factor (for labels only).
    pub load: f64,
}

/// One closed-loop multi-tenant batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopPoint {
    /// Shared-resource configuration.
    pub config: MultiTenantConfig,
    /// Scheduling policy.
    pub policy: ServingPolicy,
    /// WFQ weights, tenant-indexed.
    pub weights: Vec<u64>,
    /// The tenants, in ASID order.
    pub tenants: Vec<TenantSpec>,
}

/// One design point of a workload pass.
#[derive(Debug, Clone, PartialEq)]
pub enum Point {
    /// `ExperimentRunner::dense_point` (normalized to `oracle_point`).
    Dense(DensePoint),
    /// `ServingSimulator::run`.
    Serving(ServingPoint),
    /// `TenantScheduler::run` (normalized to `isolated_tenant_point`).
    ClosedLoop(ClosedLoopPoint),
}

impl Point {
    /// A short human-readable label.
    pub fn label(&self) -> String {
        match self {
            Point::Dense(p) => format!(
                "dense/{}/b{}/{:?}/ptw{}/prmb{}/tlb{}/tpreg{}",
                p.workload.label(),
                p.batch,
                p.mmu.kind,
                p.mmu.num_ptws,
                p.mmu.prmb_slots_per_ptw,
                p.mmu.tlb_entries,
                u8::from(p.mmu.tpreg_enabled)
            ),
            Point::Serving(p) => format!(
                "serving/{:?}/t{}/load{}/faults{}",
                p.config.policy,
                p.tenants.len(),
                p.load,
                u8::from(p.config.faults.is_some())
            ),
            Point::ClosedLoop(p) => format!("closed/{:?}/t{}", p.policy, p.tenants.len()),
        }
    }
}

/// The design points of one pass of `workload` under `seed`.
pub fn generate(workload: Workload, seed: u64) -> Vec<Point> {
    let mut rng = Rng::new(seed, workload as u64);
    let mut points = match workload {
        Workload::DenseNeummu => dense_points(&mut rng, &NEUMMU_KINDS),
        Workload::DenseWalk => dense_points(&mut rng, &WALK_KINDS),
        Workload::ServingMt => serving_points(&mut rng),
    };
    rng.shuffle(&mut points);
    points
}

/// A family of MMU configurations: the seed assigns one parameter value
/// to each cell.
type Kind = (fn(usize) -> MmuConfig, &'static [usize]);

/// Merging-on variants: NeuMMU itself, then PRMB-slot, PTW-count, TLB-size
/// and TPreg-off variants of it. Values within a family cost about the same
/// host time per point (PRMB slots below 8 cost about twice as much and are
/// left out), so the seed changes the design points, not the pass's work.
const NEUMMU_KINDS: [Kind; 5] = [
    (|_| MmuConfig::neummu(), &[0]),
    (|s| MmuConfig::neummu().with_prmb_slots(s), &[8, 16, 64]),
    (|n| MmuConfig::neummu().with_ptws(n), &[32, 64, 256, 512]),
    (|e| MmuConfig::neummu().with_tlb_entries(e), &[256, 512]),
    (
        |n| MmuConfig::neummu().with_tpreg(false).with_ptws(n),
        &[64, 128, 256],
    ),
];

/// Merging-off variants: the baseline IOMMU (8 walkers), then few, middling
/// and many walkers without PRMB.
const WALK_KINDS: [Kind; 4] = [
    (|_| MmuConfig::baseline_iommu(), &[0]),
    (|n| MmuConfig::baseline_iommu().with_ptws(n), &[16, 32]),
    (
        |n| MmuConfig::baseline_iommu().with_ptws(n),
        &[64, 128, 256],
    ),
    (|n| MmuConfig::baseline_iommu().with_ptws(n), &[512, 1024]),
];

/// Every cell once per kind. Within a kind the values are dealt out evenly
/// over the 18 cells in a seeded order.
fn dense_points(rng: &mut Rng, kinds: &[Kind]) -> Vec<Point> {
    let cells: Vec<(WorkloadId, u64)> = DNNS
        .iter()
        .flat_map(|&w| DENSE_BATCH_SIZES.iter().map(move |&b| (w, b)))
        .collect();
    let mut points = Vec::new();
    for (make, values) in kinds {
        let mut dealt: Vec<usize> = (0..cells.len()).map(|i| values[i % values.len()]).collect();
        rng.shuffle(&mut dealt);
        for (&(workload, batch), value) in cells.iter().zip(dealt) {
            points.push(Point::Dense(DensePoint {
                workload,
                batch,
                mmu: make(value),
            }));
        }
    }
    points
}

/// The four scheduling policies, with the TLB-aware cap at about twice a
/// fair share of the IOTLB.
fn policies(tenants: usize) -> [ServingPolicy; 4] {
    [
        ServingPolicy::RoundRobin,
        ServingPolicy::WeightedFair,
        ServingPolicy::BurstQuantum,
        ServingPolicy::TlbAware {
            occupancy_cap_pct: (200 / tenants).clamp(8, 100) as u8,
        },
    ]
}

const TENANT_COUNTS: [usize; 4] = [8, 16, 24, 32];

/// A balanced tenant population at batch 1 (one inference per request):
/// DNNs, arrival shapes and weights each cycle through their values in a
/// seeded order, so every point carries the same mix; the seed draws the
/// orders and the arrival seeds.
fn serving_tenants(rng: &mut Rng, count: usize, load: f64, horizon: u64) -> Vec<ServingTenantSpec> {
    let txns_per_request = ServingConfig::with_mmu(MmuConfig::neummu()).txns_per_request;
    let rate_per_mcycle = load * 1e6 / (count as f64 * txns_per_request as f64);
    let mut dnns = DNNS;
    rng.shuffle(&mut dnns);
    let mut shapes = [
        ArrivalShape::Poisson,
        ArrivalShape::Bursty {
            mean_burst_arrivals: 8.0,
            duty_fraction: 0.25,
        },
        ArrivalShape::Diurnal {
            period_cycles: horizon / 4,
            trough_fraction: 0.3,
        },
    ];
    rng.shuffle(&mut shapes);
    let offset = rng.below(4) as u64;
    (0..count)
        .map(|index| ServingTenantSpec {
            workload: dnns[index % dnns.len()],
            batch: 1,
            weight: 1 + (index as u64 + offset) % 4,
            arrivals: ArrivalConfig {
                shape: shapes[index % shapes.len()],
                rate_per_mcycle,
                horizon_cycles: horizon,
                seed: rng.next_u64(),
            },
        })
        .collect()
}

/// `nominal` jittered by up to ±10%.
fn jittered(rng: &mut Rng, nominal: f64) -> f64 {
    nominal * rng.range(0.9, 1.1)
}

/// Serving traffic follows the repository's full-scale experiment families:
/// the open-loop points take the serving family's horizon and load factors
/// (2 Mcycles; 0.5×, 1.0× and 2.0× capacity), the fault-injected points the
/// resilience family's (1 Mcycle, 8 tenants, 1.2× capacity).
fn serving_points(rng: &mut Rng) -> Vec<Point> {
    let full = ExperimentScale::Full;
    let mut points = Vec::new();
    // Open loop: policy × load factor, with the tenant counts in a Latin
    // square: each load factor meets every count once, each policy three
    // counts. Tail sojourn under overload depends on policy × tenant count
    // by more than 10×, so the grid is fixed and the seed varies the load
    // (jitter), the tenant mix and the arrivals; that keeps the simulated
    // metrics comparable across seeds.
    let horizon = serving::horizon_cycles(full);
    for (load_index, nominal) in serving::load_factors(full).into_iter().enumerate() {
        for policy_index in 0..4 {
            let count = TENANT_COUNTS[(policy_index + load_index) % TENANT_COUNTS.len()];
            let load = jittered(rng, nominal);
            let policy = policies(count)[policy_index];
            points.push(Point::Serving(ServingPoint {
                config: ServingConfig::with_mmu(MmuConfig::neummu()).with_policy(policy),
                tenants: serving_tenants(rng, count, load, horizon),
                load,
            }));
        }
    }
    // Fault-injected serving: the resilience family's full recovery stack
    // (every mechanism plus the circuit breaker) at its two non-zero fault
    // rates, twice each.
    let rates = resilience::fault_rates(full);
    for &rate in rates.iter().filter(|&&r| r > 0.0).cycle().take(4) {
        let load = jittered(rng, resilience::load_factor(full));
        let faults = resilience::device_faults(rng.next_u64(), jittered(rng, rate));
        points.push(Point::Serving(ServingPoint {
            config: resilience::point_config(full, resilience::Mechanism::AllOn, faults),
            tenants: serving_tenants(
                rng,
                resilience::tenant_count(full),
                load,
                resilience::horizon_cycles(full),
            ),
            load,
        }));
    }
    // Closed loop: two batches per policy, all six DNNs at batch 1 in a
    // seeded ASID order.
    for policy in policies(DNNS.len()).into_iter().chain(policies(DNNS.len())) {
        let mut dnns = DNNS;
        rng.shuffle(&mut dnns);
        let tenants: Vec<TenantSpec> = dnns.iter().map(|&w| TenantSpec::new(w, 1)).collect();
        points.push(Point::ClosedLoop(ClosedLoopPoint {
            config: MultiTenantConfig::with_mmu(MmuConfig::neummu()),
            policy,
            weights: (0..tenants.len())
                .map(|_| 1 + rng.below(4) as u64)
                .collect(),
            tenants,
        }));
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for workload in Workload::ALL {
            let a = generate(workload, DEFAULT_SEED);
            let b = generate(workload, DEFAULT_SEED);
            assert_eq!(a, b, "{}", workload.name());
            let other = generate(workload, HELD_OUT_SEED);
            assert_ne!(a, other, "{}: the seed must matter", workload.name());
            assert_eq!(a.len(), other.len(), "passes are stratified");
        }
    }

    #[test]
    fn dense_passes_cover_every_cell_once_per_kind() {
        let points = generate(Workload::DenseWalk, 3);
        assert_eq!(points.len(), 18 * WALK_KINDS.len());
        for workload in DNNS {
            for batch in DENSE_BATCH_SIZES {
                let n = points
                    .iter()
                    .filter(|p| matches!(p, Point::Dense(d) if d.workload == workload && d.batch == batch))
                    .count();
                assert_eq!(n, WALK_KINDS.len());
            }
        }
        assert!(points
            .iter()
            .all(|p| matches!(p, Point::Dense(d) if !d.mmu.merging_enabled())));
        assert!(generate(Workload::DenseNeummu, 3)
            .iter()
            .all(|p| matches!(p, Point::Dense(d) if d.mmu.merging_enabled())));
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }
}
