//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <dense_neummu|dense_walk|serving_mt> --seed <n>
//!           --seconds <s> --trace <0|1> [--write-digests]
//! ```
//!
//! One process runs one workload as a closed loop with one client: the
//! seeded design points of a pass are issued back to back on a serial
//! `ExperimentRunner`, and passes repeat until `--seconds` is used up.
//! Every point's simulated output is checked (digests stored for the
//! default seed, determinism across passes, conservation laws on every
//! seed). The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! With `--trace 1` the run is split in a plain half and a traced half (an
//! in-memory `neummu_trace` sink installed), so the trace overhead comes from
//! one paired process; between them the ledger replays the workload's own
//! captured layer inputs to measure unit costs. Spans of every layer call
//! are written to `perfbench/out/`.

mod check;
mod gen;
mod json;
mod ledger;
mod reference;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use neummu_mmu::counters::{self, HotPathCounters};
use neummu_npu::{Layer, NpuConfig};
use neummu_sim::{
    DenseSimConfig, ExperimentRunner, LatencyHistogram, ServingSimulator, TenantScheduler,
    TenantStats, WorkloadResult,
};
use neummu_workloads::{DenseWorkload, WorkloadId};

use gen::{Point, Workload};
use ledger::LayerCosts;
use reference::Reference;
use spans::Recorder;

/// Set-up time spent before each pass, as a share of the previous pass's
/// time (at least one set-up): enough samples for `setup_s` whether one
/// set-up is long or short next to a pass.
const SETUP_SHARE: f64 = 0.1;
/// Passes per measured half, at least (the cross-pass determinism check
/// needs two).
const MIN_PASSES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = gen::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut write_digests = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--write-digests" => write_digests = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        write_digests,
    })
}

/// Everything set-up produces: the points, their generated inputs, and a
/// runner whose memo already holds every baseline the points need.
struct Setup {
    points: Vec<Point>,
    /// Layer list per dense cell (the ledger mirror's input).
    layers: BTreeMap<(WorkloadId, u64), Vec<Layer>>,
    /// Arrival-stream length per serving tenant, by point index.
    generated: BTreeMap<usize, Vec<u64>>,
    runner: ExperimentRunner,
    gen_s: f64,
    baseline_s: f64,
}

fn setup(workload: Workload, seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    let points = gen::generate(workload, seed);
    let mut layers = BTreeMap::new();
    let mut generated = BTreeMap::new();
    for (index, point) in points.iter().enumerate() {
        match point {
            Point::Dense(p) => {
                layers
                    .entry((p.workload, p.batch))
                    .or_insert_with(|| DenseWorkload::new(p.workload).layers(p.batch));
            }
            Point::Serving(p) => {
                let counts = p
                    .tenants
                    .iter()
                    .map(|t| t.arrivals.generate().map(|a| a.len() as u64))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                generated.insert(index, counts);
            }
            Point::ClosedLoop(_) => {}
        }
    }
    let gen_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let runner = ExperimentRunner::serial();
    let npu = NpuConfig::tpu_like();
    for point in &points {
        match point {
            Point::Dense(p) => {
                runner
                    .oracle_point(p.workload, p.batch, p.mmu.page_size, npu)
                    .map_err(|e| e.to_string())?;
            }
            Point::ClosedLoop(p) => {
                for spec in &p.tenants {
                    runner
                        .isolated_tenant_point(*spec, p.config)
                        .map_err(|e| e.to_string())?;
                }
            }
            Point::Serving(_) => {}
        }
    }
    Ok(Setup {
        points,
        layers,
        generated,
        runner,
        gen_s,
        baseline_s: started.elapsed().as_secs_f64(),
    })
}

/// Simulated outcome of one point, as far as the metrics need it.
#[derive(Default, Clone)]
struct Outcome {
    digest: u64,
    /// Dense: the result (for the ledger mirror check).
    dense: Option<Arc<WorkloadResult>>,
    /// Dense: slowdown vs the oracle MMU; closed loop: mean tenant slowdown
    /// vs the isolated run (both in percent).
    overhead_pct: Vec<f64>,
    /// Dense: simulated cycles of the point.
    cycles: Option<u64>,
    /// Serving: goodput per Mcycle, and the per-request histograms.
    goodput: Option<f64>,
    sojourn: Option<LatencyHistogram>,
    stall: Option<LatencyHistogram>,
    offered: u64,
    dropped: u64,
    completed: u64,
    /// Serving (fault-free): the tenants' translation stats (ledger input).
    tenant_stats: Vec<TenantStats>,
    faults: Option<(u64, u64, u64)>,
    core: Core,
}

/// Translation-path counters of a point (`TranslationStats` for dense
/// points, summed `TenantStats` for multi-tenant ones).
#[derive(Default, Clone, Copy)]
struct Core {
    requests: u64,
    tlb_hits: u64,
    tlb_misses: u64,
    merged: u64,
    walks: u64,
    tpreg_skipped_levels: u64,
    structural_stalls: u64,
    stall_cycles: u64,
}

impl Core {
    fn add(&mut self, o: &Core) {
        self.requests += o.requests;
        self.tlb_hits += o.tlb_hits;
        self.tlb_misses += o.tlb_misses;
        self.merged += o.merged;
        self.walks += o.walks;
        self.tpreg_skipped_levels += o.tpreg_skipped_levels;
        self.structural_stalls += o.structural_stalls;
        self.stall_cycles += o.stall_cycles;
    }

    fn tenant(s: &TenantStats) -> Core {
        Core {
            requests: s.requests,
            tlb_hits: s.tlb_hits,
            tlb_misses: s.requests - s.tlb_hits,
            merged: s.merged,
            walks: s.walks,
            stall_cycles: s.stall_cycles,
            ..Core::default()
        }
    }
}

fn merge_histogram(into: &mut LatencyHistogram, from: &LatencyHistogram) {
    for (latency, count) in from.iter() {
        into.record_n(latency, count);
    }
}

/// Runs one point inside a `point` span.
fn run_point(s: &Setup, index: usize, rec: &mut Recorder) -> Result<Outcome, String> {
    let npu = NpuConfig::tpu_like();
    let mut out = Outcome::default();
    match &s.points[index] {
        Point::Dense(p) => {
            let oracle = rec
                .span("sim.oracle_point", || {
                    s.runner
                        .oracle_point(p.workload, p.batch, p.mmu.page_size, npu)
                })
                .map_err(|e| e.to_string())?;
            let result = rec
                .span("sim.dense_point", || {
                    s.runner.dense_point(p.workload, p.batch, p.mmu, npu)
                })
                .map_err(|e| e.to_string())?;
            check::dense_invariants(&result, &oracle)?;
            out.digest = check::dense_digest(&result);
            let t = &result.translation;
            out.core = Core {
                requests: t.requests,
                tlb_hits: t.tlb_hits,
                tlb_misses: t.tlb_misses,
                merged: t.merged,
                walks: t.walks,
                tpreg_skipped_levels: t.tpreg_skipped_levels,
                structural_stalls: t.structural_stalls,
                stall_cycles: t.stall_cycles,
            };
            out.overhead_pct =
                vec![(result.total_cycles as f64 / oracle.total_cycles as f64 - 1.0) * 100.0];
            out.cycles = Some(result.total_cycles);
            out.dense = Some(Arc::new(result));
        }
        Point::Serving(p) => {
            let result = rec
                .span("sim.serving_run", || {
                    ServingSimulator::new(p.config.clone()).run(&p.tenants)
                })
                .map_err(|e| e.to_string())?;
            check::serving_invariants(&result, &s.generated[&index])?;
            out.digest = check::serving_digest(&result);
            let mut sojourn = LatencyHistogram::new();
            let mut stall = LatencyHistogram::new();
            for t in &result.stats {
                merge_histogram(&mut sojourn, &t.sojourn);
                merge_histogram(&mut stall, &t.stall);
                out.core.add(&Core::tenant(&t.translation));
                out.offered += t.queue.offered;
                out.dropped += t.queue.dropped;
                out.completed += t.queue.completed;
            }
            out.goodput = Some(result.goodput_per_mcycle());
            out.sojourn = Some(sojourn);
            out.stall = Some(stall);
            match &result.fault_counters {
                Some(f) => {
                    out.faults = Some((f.total_injected(), f.total_recovered(), f.total_hung()));
                }
                None => out.tenant_stats = result.stats.iter().map(|t| t.translation).collect(),
            }
        }
        Point::ClosedLoop(p) => {
            let result = rec
                .span("sim.tenant_run", || {
                    TenantScheduler::new(p.config)
                        .with_policy(p.policy)
                        .with_weights(p.weights.clone())
                        .run(&p.tenants)
                })
                .map_err(|e| e.to_string())?;
            check::closed_loop_invariants(&result)?;
            out.digest = check::closed_loop_digest(&result);
            for (spec, stats) in p.tenants.iter().zip(&result.stats) {
                let isolated = rec
                    .span("sim.isolated_tenant_point", || {
                        s.runner.isolated_tenant_point(*spec, p.config)
                    })
                    .map_err(|e| e.to_string())?;
                out.overhead_pct.push(
                    (stats.completion_cycle as f64 / isolated.completion_cycle as f64 - 1.0)
                        * 100.0,
                );
                out.core.add(&Core::tenant(stats));
            }
        }
    }
    Ok(out)
}

/// Results of a measured half (plain or traced).
#[derive(Default)]
struct Half {
    /// Host time of every pass (sum of its point latencies).
    pass_s: Vec<f64>,
    /// Input-generation and baseline-fill times of the set-ups timed
    /// before each pass (plain half only).
    setups: Vec<(f64, f64)>,
    /// Self time per span name, per pass.
    self_s: Vec<BTreeMap<&'static str, f64>>,
    /// Point latencies (ns) of every pass, by point index.
    latencies: Vec<Vec<u64>>,
    /// Hot-path counter deltas of every pass.
    hot: Vec<HotPathCounters>,
    /// The clock reference, sampled before every pass.
    reference: Reference,
}

struct Runner<'a> {
    setup: &'a Setup,
    workload: Workload,
    seed: u64,
    rec: Recorder,
    stored: Option<BTreeMap<usize, u64>>,
    /// First-pass outcomes, by point index.
    first: Vec<Outcome>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Runner<'_> {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(message);
        }
    }

    fn pass(&mut self, half: &mut Half) {
        let from = self.rec.len();
        let before = counters::snapshot();
        let mut latencies = Vec::with_capacity(self.setup.points.len());
        for index in 0..self.setup.points.len() {
            self.rec.set_point(self.attempted);
            self.attempted += 1;
            let t0 = Instant::now();
            self.rec.enter("point");
            let result = run_point(self.setup, index, &mut self.rec);
            self.rec.exit();
            let latency_ns = t0.elapsed().as_nanos() as u64;
            latencies.push(latency_ns);
            let setup = self.setup;
            let label = || setup.points[index].label();
            match result {
                Err(e) => self.fail(format!("point {index} {}: {e}", label())),
                Ok(out) => {
                    let expected = match self.first.get(index) {
                        Some(first) => Some(first.digest),
                        None => self
                            .stored
                            .as_ref()
                            .map(|s| s.get(&index).copied().unwrap_or(0)),
                    };
                    if expected.is_some_and(|d| d != out.digest) {
                        self.fail(format!("point {index} {}: digest mismatch", label()));
                    }
                    if self.first.len() == index {
                        self.first.push(out);
                    }
                }
            }
            if self.first.len() <= index {
                // Keep indices aligned when a first-pass point failed.
                self.first.push(Outcome::default());
            }
        }
        half.pass_s
            .push(latencies.iter().sum::<u64>() as f64 * 1e-9);
        half.hot.push(counters::snapshot().since(&before));
        half.latencies.push(latencies);
        half.self_s.push(
            spans::self_time_ns(self.rec.spans(), from)
                .into_iter()
                .map(|(k, v)| (k, v as f64 * 1e-9))
                .collect(),
        );
    }

    /// Runs passes until `budget` is used (at least [`MIN_PASSES`]). With
    /// `time_setups`, set-ups (generation plus memo fill on a fresh runner,
    /// then dropped) are timed before each pass, so the set-up samples are
    /// spread over the run like the passes are. The clock reference takes
    /// one sample before every pass.
    fn measure(&mut self, budget: Duration, time_setups: bool) -> Result<Half, String> {
        let mut half = Half::default();
        let started = Instant::now();
        loop {
            let pass_started = Instant::now();
            if time_setups {
                let target_s = half.pass_s.last().map_or(0.0, |s| s * SETUP_SHARE);
                let mut spent_s = 0.0;
                while spent_s <= target_s {
                    let s = setup(self.workload, self.seed)?;
                    spent_s += s.gen_s + s.baseline_s;
                    half.setups.push((s.gen_s, s.baseline_s));
                }
            }
            half.reference.sample();
            self.pass(&mut half);
            let last = pass_started.elapsed();
            if half.pass_s.len() >= MIN_PASSES && started.elapsed() + last > budget {
                return Ok(half);
            }
        }
    }
}

impl Half {
    /// Each point's fastest host time over the half's passes (ns), by
    /// point index. Every pass repeats the same work, and contention from
    /// other tenants of a shared host only ever adds time, so the fastest
    /// repetition is the least disturbed one.
    fn fastest_ns(&self) -> Vec<u64> {
        let points = self.latencies.first().map_or(0, Vec::len);
        (0..points)
            .map(|i| self.latencies.iter().map(|pass| pass[i]).min().unwrap_or(0))
            .collect()
    }

    /// One pass at every point's fastest host time, in s.
    fn fastest_pass_s(&self) -> f64 {
        self.fastest_ns().iter().sum::<u64>() as f64 * 1e-9
    }

    /// [`Half::fastest_pass_s`] at the reference clock.
    fn scaled_pass_s(&self) -> f64 {
        self.fastest_pass_s() * self.reference.scale()
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted values.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process image, in MiB: `VmHWM` from
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would not do: it keeps
/// the high-water mark of the pre-`exec` image, i.e. of `cargo run`.)
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The simulated metrics, identical on every pass for a fixed seed.
struct SimMetrics {
    overhead_pct: f64,
    p99_kcycles: f64,
    goodput_per_mcycle: f64,
}

fn sim_metrics(workload: Workload, first: &[Outcome]) -> SimMetrics {
    let overheads: Vec<f64> = first
        .iter()
        .flat_map(|o| o.overhead_pct.iter().copied())
        .collect();
    if workload.is_dense() {
        let cycles: Vec<f64> = first
            .iter()
            .filter_map(|o| o.cycles)
            .map(|c| c as f64)
            .collect();
        SimMetrics {
            overhead_pct: mean(&overheads),
            p99_kcycles: percentile(&cycles, 99.0) / 1e3,
            goodput_per_mcycle: cycles.len() as f64 * 1e6 / cycles.iter().sum::<f64>().max(1.0),
        }
    } else {
        let p99s: Vec<f64> = first
            .iter()
            .filter_map(|o| o.sojourn.as_ref()?.p99())
            .map(|p| p as f64)
            .collect();
        let goodputs: Vec<f64> = first.iter().filter_map(|o| o.goodput).collect();
        SimMetrics {
            overhead_pct: mean(&overheads),
            // The median point, not the mean: one overloaded point's p99
            // is ten times the typical one and would set the mean.
            p99_kcycles: median(&p99s) / 1e3,
            goodput_per_mcycle: mean(&goodputs),
        }
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Host times are given at the reference clock (see [`reference`]).
fn end_to_end(workload: Workload, r: &Runner<'_>, half: &Half) -> Result<Metrics, String> {
    let scale = half.reference.scale();
    let requests_per_pass: u64 = r.first.iter().map(|o| o.core.requests).sum();
    let wall_s = half.scaled_pass_s();
    let latencies_ms: Vec<f64> = half
        .fastest_ns()
        .into_iter()
        .map(|ns| ns as f64 * 1e-6 * scale)
        .collect();
    let setup_s = half
        .setups
        .iter()
        .map(|(gen_s, baseline_s)| gen_s + baseline_s)
        .fold(f64::INFINITY, f64::min)
        * scale;
    let sim = sim_metrics(workload, &r.first);
    Ok(vec![
        ("wall_s", wall_s, "s"),
        (
            "translations_per_s",
            requests_per_pass as f64 / wall_s,
            "1/s",
        ),
        ("point_p50_ms", percentile(&latencies_ms, 50.0), "ms"),
        ("point_p90_ms", percentile(&latencies_ms, 90.0), "ms"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ("sim_overhead_pct", sim.overhead_pct, "%"),
        ("sim_p99_kcycles", sim.p99_kcycles, "kcycles"),
        ("sim_goodput_per_mcycle", sim.goodput_per_mcycle, "1/Mcycle"),
    ])
}

/// Ledger inputs gathered between the plain and the traced half.
struct Ledger {
    costs: LayerCosts,
    /// Median host time of the mirrored points (s per pass).
    mirrored_wall_s: f64,
}

fn run_ledger(r: &mut Runner<'_>, plain: &Half) -> Ledger {
    let mut costs = LayerCosts::default();
    let mut mirrored_wall_s = 0.0;
    for (index, point) in r.setup.points.iter().enumerate() {
        let first = &r.first[index];
        let mirrored = match point {
            Point::Dense(p) => {
                let Some(result) = first.dense.clone() else {
                    continue;
                };
                let layers = &r.setup.layers[&(p.workload, p.batch)];
                let mirror = r.rec.span("ledger.dense_mirror", || {
                    ledger::DenseMirror::run(DenseSimConfig::with_mmu(p.mmu), layers)
                });
                mirror.and_then(|m| {
                    m.check(&result.translation, result.total_cycles)?;
                    Ok(m.costs)
                })
            }
            Point::Serving(p) if p.config.faults.is_none() && !first.tenant_stats.is_empty() => {
                let stats = first.tenant_stats.clone();
                r.rec.span("ledger.serving_mirror", || {
                    ledger::serving_mirror(&p.config, &p.tenants, &stats)
                })
            }
            _ => continue,
        };
        match mirrored {
            Ok(c) => {
                costs.add(&c);
                let lat: Vec<f64> = plain
                    .latencies
                    .iter()
                    .map(|pass| pass[index] as f64 * 1e-9)
                    .collect();
                mirrored_wall_s += median(&lat);
            }
            Err(e) => r.fail(format!("ledger point {index}: {e}")),
        }
    }
    Ledger {
        costs,
        mirrored_wall_s,
    }
}

fn per_layer(
    workload: Workload,
    r: &Runner<'_>,
    plain: &Half,
    traced: &Half,
    ledger: &Ledger,
    trace: (&[(String, neummu_trace::KindAggregate)], u64),
) -> Metrics {
    let busy = |name: &str| {
        median(
            &plain
                .self_s
                .iter()
                .map(|m| m.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let first = &r.first;
    let hot = &plain.hot[0];
    let mut core = Core::default();
    for o in first {
        core.add(&o.core);
    }
    let dense_points = first.iter().filter(|o| o.dense.is_some()).count();
    let (mut offered, mut dropped, mut completed) = (0, 0, 0);
    let mut stall = LatencyHistogram::new();
    let (mut injected, mut recovered, mut hung) = (0, 0, 0);
    for o in first {
        offered += o.offered;
        dropped += o.dropped;
        completed += o.completed;
        if let Some(h) = &o.stall {
            merge_histogram(&mut stall, h);
        }
        if let Some((i, rec, h)) = o.faults {
            injected += i;
            recovered += rec;
            hung += h;
        }
    }
    let cache = r.setup.runner.oracle_cache();
    let (aggregates, traced_passes) = trace;
    let passes = traced_passes.max(1) as f64;
    let cycles = |label: &str| {
        aggregates
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0.0, |(_, a)| a.span_total as f64 / passes)
    };
    let events: u64 = aggregates.iter().map(|(_, a)| a.events).sum();
    let c = &ledger.costs;
    let explained_s = (c.engine.ns + c.page_runs.ns + c.schedule_run.ns + c.map.ns) as f64 * 1e-9;
    let fetches = if workload.is_dense() {
        hot.dma_fetches_streamed
    } else {
        c.page_runs.ops
    };
    let serving_busy = busy("sim.serving_run");
    vec![
        ("sim.dense_point.busy_s", busy("sim.dense_point"), "s"),
        ("sim.dense.points", dense_points as f64, "count"),
        (
            "sim.oracle_point.busy_s",
            median(&plain.setups.iter().map(|s| s.1).collect::<Vec<_>>()),
            "s",
        ),
        (
            "sim.oracle.simulations",
            cache.simulations() as f64,
            "count",
        ),
        (
            "sim.oracle.reuse_ratio",
            ratio(cache.hits(), cache.hits() + cache.simulations()),
            "ratio",
        ),
        ("sim.serving_run.busy_s", serving_busy, "s"),
        ("sim.tenant_run.busy_s", busy("sim.tenant_run"), "s"),
        (
            "sim.serving.host_us_per_request",
            if completed == 0 {
                0.0
            } else {
                serving_busy * 1e6 / completed as f64
            },
            "us",
        ),
        (
            "sim.serving.stall_p99_kcycles",
            stall.p99().unwrap_or(0) as f64 / 1e3,
            "kcycles",
        ),
        ("sim.serving.drop_ratio", ratio(dropped, offered), "ratio"),
        ("core.requests", core.requests as f64, "count"),
        (
            "core.tlb.hit_ratio",
            ratio(core.tlb_hits, core.requests),
            "ratio",
        ),
        (
            "core.prmb.merge_ratio",
            ratio(core.merged, core.tlb_misses),
            "ratio",
        ),
        ("core.walks", core.walks as f64, "count"),
        (
            "core.tpreg.skipped_levels",
            core.tpreg_skipped_levels as f64,
            "count",
        ),
        (
            "core.structural_stalls",
            core.structural_stalls as f64,
            "count",
        ),
        ("core.stall_cycles", core.stall_cycles as f64, "cycles"),
        ("core.runs_coalesced", hot.runs_coalesced as f64, "count"),
        ("core.replayed_hits", hot.replayed_hits as f64, "count"),
        ("core.replayed_merges", hot.replayed_merges as f64, "count"),
        ("core.replayed_walks", hot.replayed_walks as f64, "count"),
        (
            "core.retry_reprobes_saved",
            hot.retry_reprobes_saved as f64,
            "count",
        ),
        ("core.engine.ns_per_request", c.engine.ns_per_op(), "ns"),
        ("vmem.probes", hot.page_table_probes as f64, "count"),
        ("vmem.probe_ns", c.probe.ns_per_op(), "ns"),
        ("npu.dma.fetches", fetches as f64, "count"),
        ("npu.dma.page_runs_ns", c.page_runs.ns_per_op(), "ns"),
        ("mem.schedule_run.calls", c.schedule_run.ops as f64, "count"),
        ("mem.schedule_run_ns", c.schedule_run.ns_per_op(), "ns"),
        ("vmem.segments_mapped", c.map.ops as f64, "count"),
        ("vmem.map_us", c.map.ns_per_op() * 1e-3, "us"),
        (
            "workloads.gen_s",
            median(&plain.setups.iter().map(|s| s.0).collect::<Vec<_>>()),
            "s",
        ),
        ("faults.injected", injected as f64, "count"),
        (
            "faults.recovered_ratio",
            ratio(recovered, injected),
            "ratio",
        ),
        ("faults.hung", hung as f64, "count"),
        ("trace.events", events as f64 / passes, "count"),
        (
            "trace.overhead_pct",
            (traced.scaled_pass_s() / plain.scaled_pass_s() - 1.0) * 100.0,
            "%",
        ),
        (
            "trace.cycles.engine_page_walk",
            cycles("engine/page_walk"),
            "cycles",
        ),
        (
            "trace.cycles.engine_prmb_merge",
            cycles("engine/prmb_merge"),
            "cycles",
        ),
        (
            "trace.cycles.engine_tlb_hit",
            cycles("engine/tlb_hit"),
            "cycles",
        ),
        (
            "trace.cycles.engine_replay_hits",
            cycles("engine/replay/hits"),
            "cycles",
        ),
        (
            "trace.cycles.engine_replay_merges",
            cycles("engine/replay/merges"),
            "cycles",
        ),
        (
            "trace.cycles.engine_replay_walks",
            cycles("engine/replay/walks"),
            "cycles",
        ),
        (
            "trace.cycles.serving_turn",
            cycles("serving/turn"),
            "cycles",
        ),
        ("trace.cycles.tenant_turn", cycles("tenant/turn"), "cycles"),
        (
            "ledger.explained_frac",
            if ledger.mirrored_wall_s > 0.0 {
                explained_s / ledger.mirrored_wall_s
            } else {
                0.0
            },
            "ratio",
        ),
        ("bench.point_self_s", busy("point"), "s"),
        ("bench.raw_wall_s", plain.fastest_pass_s(), "s"),
        (
            "bench.reference_ns",
            plain.reference.fastest_ns() as f64,
            "ns",
        ),
    ]
}

/// The per-layer reconciliation table: op count × unit cost per layer,
/// against the mirrored points' host time.
fn ledger_table(ledger: &Ledger) -> String {
    let c = &ledger.costs;
    let wall = ledger.mirrored_wall_s.max(1e-12);
    let mut out = String::from("layer                      ops/pass     ns/op    ms/pass  share\n");
    for (name, cost, nested) in [
        ("core engine (run entry)", c.engine, false),
        ("  vmem probe (in engine)", c.probe, true),
        ("npu page_runs (per fetch)", c.page_runs, false),
        ("mem schedule_run", c.schedule_run, false),
        ("vmem alloc_segment", c.map, false),
    ] {
        let _ = writeln!(
            out,
            "{name:<26} {:>9} {:>9.1} {:>10.2} {:>5.1}%{}",
            cost.ops,
            cost.ns_per_op(),
            cost.ns as f64 * 1e-6,
            cost.ns as f64 * 1e-9 / wall * 100.0,
            if nested { " (not added)" } else { "" }
        );
    }
    let _ = writeln!(
        out,
        "mirrored points' wall: {:.3} s/pass",
        ledger.mirrored_wall_s
    );
    out
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<(), String> {
    let workload = args.workload;
    let setup = &setup(workload, args.seed)?;
    let stored = if args.seed == gen::DEFAULT_SEED && !args.write_digests {
        let stored = check::load_digests(&check::digest_path(workload.name()))?;
        if stored.len() != setup.points.len() {
            return Err(format!(
                "{} stored digests for {} points",
                stored.len(),
                setup.points.len()
            ));
        }
        Some(stored)
    } else {
        None
    };
    let mut r = Runner {
        setup,
        workload,
        seed: args.seed,
        rec: Recorder::default(),
        stored,
        first: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };

    let seconds = Duration::from_secs(args.seconds.max(1));
    let metrics = if args.trace {
        let plain = r.measure(seconds / 2, true)?;
        let ledger = run_ledger(&mut r, &plain);
        println!("{}", ledger_table(&ledger));

        let sink = neummu_trace::install(neummu_trace::TraceSink::in_memory())
            .ok_or("a trace sink was already installed")?;
        let traced = r.measure(seconds / 2, false)?;
        let aggregates = sink.aggregates();
        let traced_passes = traced.pass_s.len() as u64;

        let dir = std::path::Path::new("perfbench").join("out");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("spans-{}-seed{}.tsv", workload.name(), args.seed));
        std::fs::write(&path, r.rec.to_tsv()).map_err(|e| e.to_string())?;
        println!("spans: {} written to {}", r.rec.len(), path.display());
        per_layer(
            workload,
            &r,
            &plain,
            &traced,
            &ledger,
            (&aggregates, traced_passes),
        )
    } else {
        let plain = r.measure(seconds, true)?;
        println!("pass times (s): {:.3?}", plain.pass_s);
        println!("set-up times (s): {:.3?}", plain.setups);
        println!(
            "raw fastest pass {:.4} s; clock reference fastest {} ns, scale {:.4}",
            plain.fastest_pass_s(),
            plain.reference.fastest_ns(),
            plain.reference.scale()
        );
        end_to_end(workload, &r, &plain)?
    };

    let declared = std::fs::read_to_string("BENCHMARK.json").map_err(|e| e.to_string())?;
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    check::check_declared(&declared, section, &metrics)?;

    if args.write_digests {
        let digests: Vec<u64> = r.first.iter().map(|o| o.digest).collect();
        let path = check::digest_path(workload.name());
        std::fs::write(
            &path,
            check::render_digests(workload.name(), args.seed, &digests),
        )
        .map_err(|e| e.to_string())?;
        println!("wrote {} digests to {}", digests.len(), path.display());
    }

    println!(
        "{} seed {} (default {}, held out {}): {} points/pass, {} attempted, {} failed",
        workload.name(),
        args.seed,
        gen::DEFAULT_SEED,
        gen::HELD_OUT_SEED,
        setup.points.len(),
        r.attempted,
        r.failed
    );
    for e in &r.errors {
        println!("  error: {e}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    println!("{}", json(r.failed == 0, r.attempted, r.failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
