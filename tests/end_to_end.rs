//! End-to-end integration: all three paper applications run on the real
//! (thread-based) adaptive cluster and produce outputs identical to their
//! sequential baselines.

use std::time::Duration;

use adaptive_spaces::apps::prefetch::{pagerank_sequential, run_pagerank_parallel, PrefetchApp};
use adaptive_spaces::apps::pricing::{price_sequential, OptionSpec, PricingApp};
use adaptive_spaces::apps::raytrace::{benchmark_scene, render_sequential, RayTraceApp};
use adaptive_spaces::cluster::NodeSpec;
use adaptive_spaces::framework::{
    AdaptiveCluster, ClusterBuilder, FrameworkConfig, Master, WorkerState,
};

fn fast_config() -> FrameworkConfig {
    FrameworkConfig {
        poll_interval: Duration::from_millis(10),
        class_load_base: Duration::from_millis(2),
        class_load_per_kb: Duration::ZERO,
        task_poll_timeout: Duration::from_millis(10),
        ..FrameworkConfig::default()
    }
}

fn cluster_with_workers(
    app: &dyn adaptive_spaces::framework::Application,
    n: usize,
) -> AdaptiveCluster {
    let mut cluster = ClusterBuilder::new(fast_config()).build();
    cluster.install(app);
    for i in 0..n {
        cluster.add_worker(NodeSpec::new(format!("w{i:02}"), 800, 256));
    }
    cluster
}

#[test]
fn option_pricing_parallel_equals_sequential() {
    let mut app = PricingApp::new(OptionSpec::paper_default(), 10, 20);
    let mut cluster = cluster_with_workers(&app, 3);
    let report = cluster.run(&mut app);
    assert!(report.complete, "failures: {:?}", report.failures);
    let parallel = app.result();
    let sequential = price_sequential(&PricingApp::new(OptionSpec::paper_default(), 10, 20));
    assert_eq!(parallel, sequential, "bit-identical pricing");
    assert!(parallel.high >= parallel.low);
    cluster.shutdown();
}

#[test]
fn ray_tracing_parallel_equals_sequential() {
    let mut app = RayTraceApp::new(benchmark_scene(), 64, 64, 8);
    let mut cluster = cluster_with_workers(&app, 3);
    let report = cluster.run(&mut app);
    assert!(report.complete);
    let image = app.image().expect("all strips");
    let reference = render_sequential(&benchmark_scene(), 64, 64);
    assert_eq!(image.pixels, reference.pixels, "byte-identical render");
    cluster.shutdown();
}

#[test]
fn prefetch_pagerank_parallel_equals_sequential() {
    let pages = adaptive_spaces::apps::prefetch::generate_cluster("it", 80, 5);
    let graph = adaptive_spaces::apps::prefetch::LinkGraph::from_pages(&pages);
    let matrix = adaptive_spaces::apps::prefetch::StochasticMatrix::from_graph(&graph);
    let mut app = PrefetchApp::new(matrix.clone(), 16);
    let mut cluster = ClusterBuilder::new(fast_config()).build();
    cluster.install(&app);
    for i in 0..3 {
        cluster.add_worker(NodeSpec::new(format!("w{i:02}"), 800, 256));
    }
    let master = Master::new(cluster.find_space().unwrap());
    let reports = run_pagerank_parallel(&master, &mut app).expect("iterations complete");
    assert!(!reports.is_empty());
    let (expected, expected_iters) = pagerank_sequential(&matrix, &app.solver);
    assert_eq!(app.iterations(), expected_iters);
    assert_eq!(app.ranks(), &expected[..], "bit-identical PageRank");
    cluster.shutdown();
}

#[test]
fn pagerank_rounds_keep_both_remote_workers_running() {
    // Microsecond PageRank strips, where one preemption can put a task
    // 100x over its worker's median: the straggler detector must not
    // read that as a slow worker and stop it, or one worker ends up
    // running every round alone.
    let pages = adaptive_spaces::apps::prefetch::generate_cluster("acme", 500, 11);
    let graph = adaptive_spaces::apps::prefetch::LinkGraph::from_pages(&pages);
    let matrix = adaptive_spaces::apps::prefetch::StochasticMatrix::from_graph(&graph);
    let fresh_app = || {
        let mut app = PrefetchApp::new(matrix.clone(), 20);
        app.solver.max_iterations = 15;
        app.solver.tolerance = 0.0;
        app
    };
    let mut cluster = ClusterBuilder::new(fast_config()).build();
    cluster.install(&fresh_app());
    for i in 0..2 {
        cluster
            .add_remote_worker(NodeSpec::new(format!("remote-{i}"), 800, 256))
            .unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while cluster
        .workers()
        .iter()
        .any(|w| w.state() != WorkerState::Running)
    {
        assert!(
            std::time::Instant::now() < deadline,
            "workers never started"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Four 15-round jobs: 60 rounds of 25 strips.
    for _ in 0..4 {
        let mut app = fresh_app();
        for round in 0..15 {
            let report = cluster.run(&mut app);
            assert!(report.complete, "round {round}: {:?}", report.failures);
            app.finish_iteration();
        }
    }
    for worker in cluster.workers() {
        assert_eq!(worker.state(), WorkerState::Running, "{}", worker.name());
        assert!(worker.tasks_done() > 0, "{} did no work", worker.name());
    }
    let flagged: Vec<_> = cluster
        .monitor()
        .decisions()
        .into_iter()
        .filter(|d| d.straggler)
        .collect();
    assert!(flagged.is_empty(), "straggler decisions: {flagged:?}");
    cluster.shutdown();
}

#[test]
fn two_jobs_back_to_back_on_one_cluster() {
    // The cluster can be re-bound to a second application after the first
    // completes (workers added per binding).
    let mut pricing = PricingApp::new(OptionSpec::paper_default(), 4, 5);
    let mut cluster = cluster_with_workers(&pricing, 2);
    let first = cluster.run(&mut pricing);
    assert!(first.complete);

    let mut render = RayTraceApp::new(benchmark_scene(), 32, 32, 8);
    cluster.install(&render);
    cluster.add_worker(NodeSpec::new("late-worker", 800, 256));
    let second = cluster.run(&mut render);
    assert!(second.complete);
    assert!(render.image().is_some());
    cluster.shutdown();
}

#[test]
fn remote_workers_over_tcp_space() {
    // The deployment shape: the master hosts the space; worker machines
    // reach it through the TCP proxy. Results must still be bit-identical.
    let mut app = PricingApp::new(OptionSpec::paper_default(), 8, 10);
    let mut cluster = ClusterBuilder::new(fast_config()).build();
    cluster.install(&app);
    cluster
        .add_remote_worker(NodeSpec::new("remote-1", 800, 256))
        .unwrap();
    cluster
        .add_remote_worker(NodeSpec::new("remote-2", 800, 256))
        .unwrap();
    let report = cluster.run(&mut app);
    assert!(report.complete, "failures: {:?}", report.failures);
    let sequential = price_sequential(&PricingApp::new(OptionSpec::paper_default(), 8, 10));
    assert_eq!(app.result(), sequential);
    // Both remote workers participated (tasks are plentiful enough that
    // at least one did real work; assert none were lost either way).
    // Workers bump their counters after the result-write round trip, so
    // the master can observe the final result a beat before the counter
    // moves — give the tallies a moment to settle.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let tally = || -> u64 { cluster.workers().iter().map(|w| w.tasks_done()).sum() };
    while tally() < 16 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(tally(), 16);
    cluster.shutdown();
}

#[test]
fn mixed_local_and_remote_workers() {
    let mut app = RayTraceApp::new(benchmark_scene(), 40, 40, 8);
    let mut cluster = ClusterBuilder::new(fast_config()).build();
    cluster.install(&app);
    cluster.add_worker(NodeSpec::new("local-1", 800, 256));
    cluster
        .add_remote_worker(NodeSpec::new("remote-1", 800, 256))
        .unwrap();
    let report = cluster.run(&mut app);
    assert!(report.complete);
    let image = app.image().unwrap();
    assert_eq!(
        image.pixels,
        render_sequential(&benchmark_scene(), 40, 40).pixels
    );
    cluster.shutdown();
}

#[test]
fn report_metrics_are_consistent() {
    let mut app = PricingApp::new(OptionSpec::paper_default(), 6, 10);
    let mut cluster = cluster_with_workers(&app, 2);
    let report = cluster.run(&mut app);
    assert!(report.complete);
    let t = &report.times;
    assert_eq!(t.tasks, 12);
    assert!(t.parallel_ms >= t.task_planning_ms);
    assert!(t.parallel_ms >= t.task_aggregation_ms);
    assert!(t.max_worker_ms >= 0.0);
    assert!(t.workers_used() >= 1 && t.workers_used() <= 2);
    cluster.shutdown();
}
