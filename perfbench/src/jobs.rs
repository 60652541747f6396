//! The job workloads: the paper's applications run repeatedly by the
//! framework's master on two workers, each job checked against the
//! application's sequential baseline.
//!
//! * `prefetch_remote`: PageRank, 25 strips of 20 rows over 500 pages, 15
//!   power iterations per job; one round per iteration. Remote workers.
//! * `raytrace_remote`: the 600×600 scene in 24 strips. Remote workers.

use std::time::{Duration, Instant};

use adaptive_spaces::apps::prefetch::{generate_cluster, pagerank_sequential, LinkGraph, PrefetchApp, StochasticMatrix};
use adaptive_spaces::apps::pricing::PricingApp;
use adaptive_spaces::apps::raytrace::{benchmark_scene, render_sequential, RayTraceApp, Scene, Vec3};
use adaptive_spaces::apps::SplitMix64;
use adaptive_spaces::cluster::NodeSpec;
use adaptive_spaces::framework::{AdaptiveCluster, Application, ClusterBuilder, FrameworkConfig, RunReport, WorkerState};
use adaptive_spaces::telemetry::profile::BoundVerdict;

use crate::probes::{self, Counters};
use crate::stats::{median, percentile, tail, windowed_tail};
use crate::trace::{child_coverage_ns, Tracer};
use crate::{Args, Outcome};

/// PageRank power iterations per job.
const ROUNDS: usize = 15;
/// Workers per cluster.
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Jobs measured at least, so a job p90 always has ten samples beyond it.
const MIN_JOBS: usize = 100;
/// Jobs of each kind (untraced, traced) a traced run makes at least.
const TRACE_MIN_JOBS: usize = 10;
/// Consecutive jobs per throughput window; `throughput_per_s` is the
/// median window, so a spell of host noise shorter than half the run
/// does not move it.
const RATE_WINDOW: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Prefetch,
    RayTrace,
}

/// A workload's generated inputs and the sequential results every job
/// must reproduce exactly.
enum Inputs {
    Prefetch { matrix: StochasticMatrix, ranks: Vec<f64> },
    RayTrace { scene: Scene, pixels: Vec<u8> },
}

/// One job's application state.
enum App {
    Prefetch(PrefetchApp),
    RayTrace(RayTraceApp),
}

impl App {
    fn as_app(&self) -> &dyn Application {
        match self {
            App::Prefetch(a) => a,
            App::RayTrace(a) => a,
        }
    }
}

fn pagerank_app(matrix: &StochasticMatrix, rounds: usize) -> PrefetchApp {
    let mut app = PrefetchApp::new(matrix.clone(), 20);
    app.solver.max_iterations = rounds;
    app.solver.tolerance = 0.0;
    app
}

/// The PageRank matrix of a seeded 500-page cluster.
pub fn pagerank_matrix(seed: u64) -> StochasticMatrix {
    let pages = generate_cluster("acme", 500, seed);
    StochasticMatrix::from_graph(&LinkGraph::from_pages(&pages))
}

/// The benchmark scene seen from a camera shifted by a seeded sub-pixel
/// offset: a different image per seed at the same cost.
pub fn seeded_scene(seed: u64) -> Scene {
    let mut rng = SplitMix64::new(seed ^ 0x7261_7974_7261_6365);
    let mut scene = benchmark_scene();
    let jitter = |r: &mut SplitMix64| (r.next_f64() - 0.5) * 1e-3;
    scene.camera.position = scene.camera.position + Vec3::new(jitter(&mut rng), jitter(&mut rng), 0.0);
    scene
}

/// The paper's pricing configuration with a seeded base seed.
pub fn seeded_pricing(seed: u64) -> PricingApp {
    let mut app = PricingApp::paper_configuration();
    app.base_seed = SplitMix64::new(seed ^ 0x7072_6963_696e_6721).next_u64() >> 16;
    app
}

impl Inputs {
    fn new(kind: Kind, seed: u64) -> Inputs {
        match kind {
            Kind::Prefetch => {
                let matrix = pagerank_matrix(seed);
                let app = pagerank_app(&matrix, ROUNDS);
                let (ranks, _) = pagerank_sequential(&matrix, &app.solver);
                Inputs::Prefetch { matrix, ranks }
            }
            Kind::RayTrace => {
                let scene = seeded_scene(seed);
                let pixels = render_sequential(&scene, 600, 600).pixels;
                Inputs::RayTrace { scene, pixels }
            }
        }
    }

    fn fresh_app(&self) -> App {
        match self {
            Inputs::Prefetch { matrix, .. } => App::Prefetch(pagerank_app(matrix, ROUNDS)),
            Inputs::RayTrace { scene, .. } => App::RayTrace(RayTraceApp::new(scene.clone(), 600, 600, 25)),
        }
    }
}

/// Per-job layer figures folded from run reports and job profiles.
#[derive(Default)]
pub struct JobStats {
    runs: usize,
    tasks: f64,
    dispatch_us: Vec<f64>,
    aggregation_us: Vec<f64>,
    max_overhead_ms: Vec<f64>,
    phase_us: [f64; 4],
    util: Vec<f64>,
    verdicts: [usize; 4],
    coverage: Vec<f64>,
}

impl JobStats {
    fn absorb(&mut self, cluster: &AdaptiveCluster, job: &str, report: &RunReport) {
        self.runs += 1;
        let t = &report.times;
        self.max_overhead_ms.push(t.max_master_overhead_ms);
        let Some(p) = cluster.job_profiler().profile(job, &[]) else { return };
        // Share of the workers' time spent computing. `per_worker_ms` spans
        // from a worker's first access of the job name, which a repeated
        // job keeps, so it cannot give a per-run share.
        if t.parallel_ms > 0.0 {
            self.util.push(p.phases.compute_us as f64 / (WORKERS as f64 * t.parallel_ms * 1e3));
        }
        self.tasks += p.tasks as f64;
        self.dispatch_us.push(p.phases.dispatch_us as f64);
        self.aggregation_us.push(p.phases.aggregation_us as f64);
        let ph = &p.phases;
        for (acc, v) in self.phase_us.iter_mut().zip([ph.wait_us, ph.xfer_us, ph.compute_us, ph.write_us]) {
            *acc += v as f64;
        }
        let slot = match p.verdict {
            BoundVerdict::SpaceBound => 0,
            BoundVerdict::ComputeBound => 1,
            BoundVerdict::DispatchBound => 2,
            BoundVerdict::StragglerBound => 3,
        };
        self.verdicts[slot] += 1;
    }

    fn report(&self, out: &mut Outcome) {
        out.set("master.dispatch_us", median(&self.dispatch_us));
        out.set("master.aggregation_us", median(&self.aggregation_us));
        out.set("master.max_overhead_ms", median(&self.max_overhead_ms));
        let per_task = |v: f64| v / self.tasks.max(1.0);
        out.set("worker.wait_us", per_task(self.phase_us[0]));
        out.set("worker.xfer_us", per_task(self.phase_us[1]));
        out.set("worker.compute_us", per_task(self.phase_us[2]));
        out.set("worker.write_us", per_task(self.phase_us[3]));
        out.set("worker.util", median(&self.util));
        let share = |i: usize| self.verdicts[i] as f64 / self.runs.max(1) as f64;
        out.set("job.verdict.space_share", share(0));
        out.set("job.verdict.compute_share", share(1));
        out.set("job.verdict.dispatch_share", share(2));
        out.set("job.verdict.straggler_share", share(3));
        if !self.coverage.is_empty() {
            let lo = self.coverage.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = self.coverage.iter().copied().fold(0.0, f64::max);
            out.set("trace.job_coverage_min", lo);
            out.set("trace.job_coverage_max", hi);
        }
    }
}

/// Set-up timings of one cluster.
struct SetupTimes {
    total_s: f64,
    build_ms: f64,
    workers_ms: Vec<f64>,
    seed_ms: f64,
}

fn wait_running(cluster: &AdaptiveCluster, index: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if cluster.workers()[index].state() == WorkerState::Running {
            return true;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    false
}

/// A cluster with the app installed and two remote workers Running.
fn set_up(inputs: &Inputs) -> Result<(AdaptiveCluster, SetupTimes), String> {
    let start = Instant::now();
    let mut cluster = ClusterBuilder::new(FrameworkConfig::default()).build();
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    let seed_start = Instant::now();
    cluster.install(inputs.fresh_app().as_app());
    let seed_ms = seed_start.elapsed().as_secs_f64() * 1e3;
    let mut workers_ms = Vec::new();
    for i in 0..WORKERS {
        let t = Instant::now();
        let spec = NodeSpec::new(format!("worker-{i}"), 800, 256);
        let started = cluster.add_remote_worker(spec).map_err(|e| format!("remote worker: {e}"));
        let running = started.and_then(|_| {
            wait_running(&cluster, i).then_some(()).ok_or(format!("worker {i} never reached Running"))
        });
        if let Err(e) = running {
            cluster.shutdown();
            return Err(e);
        }
        workers_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let times = SetupTimes {
        total_s: start.elapsed().as_secs_f64(),
        build_ms,
        workers_ms,
        seed_ms,
    };
    Ok((cluster, times))
}

/// What one job measured.
struct JobRun {
    wall_s: f64,
    rounds_ms: Vec<f64>,
    tasks: usize,
    /// When the job and its output check were done.
    done: Instant,
}

/// Runs one job on `cluster` and checks its output. `stats` collects layer
/// figures (traced runs only). The profile bookkeeping that feeds `stats`
/// runs inside the job's trace but outside its timing: its time is taken
/// off the job's wall time and its spans off the job's coverage, so a
/// traced job is timed on the same work as an untraced one.
fn run_job(
    cluster: &mut AdaptiveCluster,
    inputs: &Inputs,
    tracer: &mut Tracer,
    mut stats: Option<&mut JobStats>,
    out: &mut Outcome,
) -> JobRun {
    let mut app = inputs.fresh_app();
    let job = app.as_app().job_name();
    let rounds = if let App::Prefetch(_) = app { ROUNDS } else { 1 };
    let mut rounds_ms = Vec::with_capacity(rounds);
    let mut tasks = 0;
    let mut bookkeeping = Duration::ZERO;
    tracer.new_trace();
    let job_span = tracer.enter("job");
    let start = Instant::now();
    for _ in 0..rounds {
        let t = Instant::now();
        let report = match &mut app {
            App::Prefetch(a) => tracer.span("cluster.run", || cluster.run(a)),
            App::RayTrace(a) => tracer.span("cluster.run", || cluster.run(a)),
        };
        rounds_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tasks += report.results_collected;
        out.check(report.complete && report.failures.is_empty(), || {
            format!("{job}: incomplete run, {}/{} results, {} failures", report.results_collected, report.times.tasks, report.failures.len())
        });
        if let Some(s) = stats.as_deref_mut() {
            let t = Instant::now();
            tracer.span("bench.profile", || s.absorb(cluster, &job, &report));
            bookkeeping += t.elapsed();
        }
        if let App::Prefetch(a) = &mut app {
            tracer.span("app.finish_iteration", || a.finish_iteration());
        }
    }
    let wall_s = (start.elapsed() - bookkeeping).as_secs_f64();
    tracer.exit(job_span);
    if let (Some(s), Some(id)) = (stats, job_span) {
        let spans = tracer.spans();
        let profile_ns: u64 = spans[id + 1..]
            .iter()
            .filter(|sp| sp.parent == Some(id) && sp.name == "bench.profile")
            .map(|sp| sp.duration_ns())
            .sum();
        let covered = child_coverage_ns(spans)[id].saturating_sub(profile_ns) as f64;
        s.coverage.push(covered / (wall_s * 1e9));
    }
    let ok = match (&app, inputs) {
        (App::Prefetch(a), Inputs::Prefetch { ranks, .. }) => a.ranks() == &ranks[..],
        (App::RayTrace(a), Inputs::RayTrace { pixels, .. }) => a.image().is_some_and(|img| &img.pixels == pixels),
        _ => false,
    };
    out.check(ok, || format!("{job}: result differs from the sequential baseline"));
    JobRun {
        wall_s,
        rounds_ms,
        tasks,
        done: Instant::now(),
    }
}

/// Untraced jobs for `seconds`, at least [`MIN_JOBS`].
fn run_jobs(cluster: &mut AdaptiveCluster, inputs: &Inputs, seconds: f64, out: &mut Outcome) -> Vec<JobRun> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut quiet = Tracer::new(false);
    let mut runs = Vec::new();
    while runs.len() < MIN_JOBS || Instant::now() < deadline {
        runs.push(run_job(cluster, inputs, &mut quiet, None, out));
    }
    runs
}

/// Tasks per second over consecutive windows of [`RATE_WINDOW`] jobs run
/// back to back from `start` (a short last window is dropped): the median
/// window.
fn windowed_rate(start: Instant, runs: &[JobRun]) -> f64 {
    let mut from = start;
    let rates: Vec<f64> = runs
        .chunks_exact(RATE_WINDOW)
        .map(|w| {
            let to = w[w.len() - 1].done;
            let tasks: usize = w.iter().map(|r| r.tasks).sum();
            let rate = tasks as f64 / (to - from).as_secs_f64();
            from = to;
            rate
        })
        .collect();
    median(&rates)
}

/// The latency samples `p50_ms`/`tail_ms` are taken over: rounds for
/// PageRank, whole jobs otherwise.
fn unit_samples_ms(kind: Kind, runs: &[JobRun]) -> Vec<f64> {
    match kind {
        Kind::Prefetch => runs.iter().flat_map(|r| r.rounds_ms.iter().copied()).collect(),
        Kind::RayTrace => runs.iter().map(|r| r.wall_s * 1e3).collect(),
    }
}

pub fn run(args: &Args, kind: Kind, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inputs = Inputs::new(kind, args.seed);
    let mut setups = Vec::new();
    let mut cluster = None;
    for _ in 0..SETUP_REPS {
        if let Some(c) = cluster.take() {
            AdaptiveCluster::shutdown(c);
        }
        match set_up(&inputs) {
            Ok((c, times)) => {
                setups.push(times);
                cluster = Some(c);
            }
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                return out;
            }
        }
    }
    let mut cluster = cluster.expect("at least one set-up");
    let mut quiet = Tracer::new(false);
    // Warm-up job: first-touch costs are not part of the measurement.
    run_job(&mut cluster, &inputs, &mut quiet, None, &mut out);
    out.set("setup_s", median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()));
    let unit = if kind == Kind::Prefetch { "round" } else { "job" };
    out.note("unit", unit);

    if !args.trace {
        let start = Instant::now();
        let runs = run_jobs(&mut cluster, &inputs, args.seconds, &mut out);
        let samples = unit_samples_ms(kind, &runs);
        let (tail_ms, tail_p) = windowed_tail(&samples).unwrap_or((f64::NAN, f64::NAN));
        let tasks_per_s = windowed_rate(start, &runs);
        out.set("p50_ms", median(&samples));
        out.set("tail_ms", tail_ms);
        out.set("throughput_per_s", tasks_per_s);
        out.note("samples", samples.len());
        out.note("tail_percentile", tail_p);
        let jobs_s: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        out.note("jobs", jobs_s.len());
        out.note("job_p50_s", median(&jobs_s));
        if let Some((v, p)) = tail(&jobs_s) {
            out.note("job_tail_s", v);
            out.note("job_tail_percentile", p);
        }
        out.note("tasks_per_s", tasks_per_s);
        if kind == Kind::Prefetch {
            out.note("round_p50_ms", median(&samples));
            out.note("round_p99_ms", percentile(&samples, 99.0));
        }
    } else {
        // Untraced and traced jobs alternate, so both see the same host
        // conditions.
        let counters = Counters::now();
        let start = Instant::now();
        let mut stats = JobStats::default();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while plain.len() < TRACE_MIN_JOBS || start.elapsed().as_secs_f64() < args.seconds {
            plain.push(run_job(&mut cluster, &inputs, &mut quiet, None, &mut out));
            traced.push(run_job(&mut cluster, &inputs, tracer, Some(&mut stats), &mut out));
        }
        let polls_s = start.elapsed().as_secs_f64();
        let (p, t) = (median(&unit_samples_ms(kind, &plain)), median(&unit_samples_ms(kind, &traced)));
        out.set("telemetry.overhead_pct", (t - p) / p * 100.0);
        stats.report(&mut out);
        let coverage_ok = stats.coverage.iter().all(|c| (0.9..=1.0 + 1e-9).contains(c));
        out.check(coverage_ok, || "job spans cover less than 90% of a job's wall time".into());
        let delta = counters.since();
        out.set("monitor.polls_per_s", delta.get("monitor.samples") / polls_s);
        probes::remote_counters(&delta, &mut out);
        out.set("gen.late_p99_us", 0.0);
        let n = setups.len() as f64;
        out.set("setup.cluster_build_ms", setups.iter().map(|s| s.build_ms).sum::<f64>() / n);
        let workers: Vec<f64> = setups.iter().flat_map(|s| s.workers_ms.iter().copied()).collect();
        out.set("setup.worker_start_ms", median(&workers));
        out.set("setup.seed_ms", setups.iter().map(|s| s.seed_ms).sum::<f64>() / n);
        probes::layers(args, &mut out);
    }
    cluster.shutdown();
    out
}

/// Core-layer figures for a workload without jobs of its own: PageRank
/// jobs for a quarter of a second, traced, on a fresh cluster with two
/// remote workers.
pub fn probe_core(args: &Args, out: &mut Outcome) {
    let inputs = Inputs::new(Kind::Prefetch, args.seed);
    let (mut cluster, times) = match set_up(&inputs) {
        Ok(r) => r,
        Err(e) => return out.check(false, || format!("core probe set-up failed: {e}")),
    };
    out.set("setup.cluster_build_ms", times.build_ms);
    out.set("setup.worker_start_ms", median(&times.workers_ms));
    let counters = Counters::now();
    let start = Instant::now();
    let mut stats = JobStats::default();
    let mut tracer = Tracer::new(true);
    while start.elapsed() < Duration::from_millis(250) {
        run_job(&mut cluster, &inputs, &mut tracer, Some(&mut stats), out);
    }
    let polls = counters.since().get("monitor.samples");
    out.set("monitor.polls_per_s", polls / start.elapsed().as_secs_f64());
    stats.report(out);
    cluster.shutdown();
}

/// Times each app's executor on its own planned tasks, outside any
/// cluster: ms per ray-traced strip, µs per PageRank strip and per
/// pricing task.
pub fn probe_apps(seed: u64, out: &mut Outcome) {
    use adaptive_spaces::framework::TaskEntry;
    fn time_tasks(app: &mut dyn Application, limit: usize) -> f64 {
        let exec = app.executor();
        let job = app.job_name();
        let tasks: Vec<TaskEntry> = app
            .plan()
            .into_iter()
            .take(limit)
            .map(|s| TaskEntry::new(job.as_str(), s.task_id, s.payload))
            .collect();
        let samples: Vec<f64> = tasks
            .iter()
            .map(|t| {
                let start = Instant::now();
                let r = exec.execute(t);
                let s = start.elapsed().as_secs_f64();
                assert!(r.is_ok(), "executor failed on its own planned task");
                s
            })
            .collect();
        median(&samples)
    }
    let mut ray = RayTraceApp::new(seeded_scene(seed), 600, 600, 25);
    out.set("apps.raytrace.strip_ms", time_tasks(&mut ray, 24) * 1e3);
    let mut rank = pagerank_app(&pagerank_matrix(seed), ROUNDS);
    out.set("apps.pagerank.strip_us", time_tasks(&mut rank, 25) * 1e6);
    let mut price = seeded_pricing(seed);
    out.set("apps.pricing.task_us", time_tasks(&mut price, 20) * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_the_median_window_of_ten_jobs() {
        // Three windows of ten 2-task jobs: 1 s, a 10 s stall, 1 s; then
        // a short window that is dropped.
        let start = Instant::now();
        let mut done = start;
        let mut runs = Vec::new();
        for window_s in [1.0, 10.0, 1.0, 0.001] {
            for _ in 0..RATE_WINDOW - usize::from(window_s < 0.01) {
                done += Duration::from_secs_f64(window_s / RATE_WINDOW as f64);
                runs.push(JobRun { wall_s: 0.0, rounds_ms: Vec::new(), tasks: 2, done });
            }
        }
        let rate = windowed_rate(start, &runs);
        assert!((rate - 20.0).abs() < 1e-6, "{rate}");
    }
}
