//! The worker module (paper §4.1–4.4).
//!
//! A worker is a thin, application-agnostic process. Its behaviour:
//!
//! * it registers with the network management module over the rule-base
//!   protocol and then obeys Start / Stop / Pause / Resume signals;
//! * on Start it performs remote node configuration — fetches the
//!   application's code bundle from the master's bundle server (paying the
//!   modeled class-loading cost) and links the executor;
//! * while Running it takes task entries from the space by value-based
//!   lookup (up to `task_prefetch` per round trip), computes them, and
//!   writes their result entries back: as each task ends when it computed
//!   for longer than a write round trip, otherwise in one batched write per
//!   taken batch, made just before the next take;
//! * signals only take effect *between* tasks: the currently executing task
//!   always completes, and every finished task's result is written into the
//!   space before the signal is acted on, so no work is ever lost;
//! * on Pause the executor stays linked (Resume skips class loading); on
//!   Stop it is dropped (the next Start reloads).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_cluster::LoadMix;
use acc_telemetry::{event, span};
use acc_tuplespace::{SpaceError, StoreHandle, Template, Tuple};
use parking_lot::Mutex;

use crate::config::FrameworkConfig;
use crate::loader::{BundleServer, ExecutorRegistry};
use crate::policy::execute_policed;
use crate::rulebase::{client_register, Duplex, RuleMessage, WorkerId};
use crate::series::series;
use crate::signal::{Signal, SignalLogEntry, WorkerState};
use crate::task::{task_template, ResultEntry, TaskEntry, TaskExecutor};

/// Everything a worker runtime needs to operate.
pub struct WorkerConfig {
    /// The worker's host name (reported in result entries).
    pub name: String,
    /// The shared space (local handle or remote proxy).
    pub space: StoreHandle,
    /// Where to fetch code bundles from.
    pub bundle_server: Arc<BundleServer>,
    /// The local link table.
    pub registry: Arc<ExecutorRegistry>,
    /// Client side of the rule-base protocol link.
    pub duplex: Duplex,
    /// The code bundle this worker loads on Start.
    pub bundle_name: String,
    /// The job whose tasks this worker takes.
    pub job: String,
    /// The node's load meter, so the framework's own CPU use is visible to
    /// monitoring (`None` for tests without a node model).
    pub node_load: Option<Arc<LoadMix>>,
    /// Experiment epoch for millisecond timestamps.
    pub epoch: Instant,
    /// Framework tunables (task poll timeout, etc.).
    pub framework: FrameworkConfig,
    /// Whether this worker publishes heartbeat/metric tuples into the
    /// space for the master-side `ClusterObserver` (the federation
    /// plane). Off by default so bare rigs don't seed the space with
    /// extra tuples; the framework turns it on for managed workers.
    pub publish_metrics: bool,
}

/// CPU percent the worker's process shows while computing a task.
const COMPUTE_LOAD: u64 = 98;
/// CPU percent during remote class loading (the paper's Start-time peak).
const CLASS_LOAD_LOAD: u64 = 80;
/// CPU percent while running but waiting for a task.
const IDLE_RUNNING_LOAD: u64 = 2;

/// Handle to a spawned worker runtime.
pub struct WorkerRuntime {
    name: String,
    id: WorkerId,
    shutdown: Arc<AtomicBool>,
    state: Arc<Mutex<WorkerState>>,
    log: Arc<Mutex<Vec<SignalLogEntry>>>,
    tasks_done: Arc<Mutex<u64>>,
    thread: Option<std::thread::JoinHandle<()>>,
    publisher: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerRuntime")
            .field("name", &self.name)
            .field("id", &self.id)
            .finish()
    }
}

impl WorkerRuntime {
    /// Registers over the rule-base link and spawns the worker loop.
    /// Returns `None` if registration fails (management module gone).
    pub fn spawn(config: WorkerConfig) -> Option<WorkerRuntime> {
        let id = client_register(&config.duplex, &config.name, Duration::from_secs(5))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let state = Arc::new(Mutex::new(WorkerState::Stopped));
        let log = Arc::new(Mutex::new(Vec::new()));
        let tasks_done = Arc::new(Mutex::new(0u64));
        let name = config.name.clone();
        let publisher = (config.publish_metrics && !config.framework.metrics_interval.is_zero())
            .then(|| {
                let hb = HeartbeatState {
                    worker: config.name.clone(),
                    space: config.space.clone(),
                    node_load: config.node_load.clone(),
                    tasks_done: tasks_done.clone(),
                    shutdown: shutdown.clone(),
                    interval: config.framework.metrics_interval,
                };
                std::thread::Builder::new()
                    .name(format!("acc-heartbeat-{name}"))
                    .spawn(move || heartbeat_loop(hb))
                    .expect("spawn heartbeat thread")
            });
        let loop_state = LoopState {
            config,
            shutdown: shutdown.clone(),
            state: state.clone(),
            log: log.clone(),
            tasks_done: tasks_done.clone(),
        };
        // Worker threads are named after the worker so cost attribution,
        // flight dumps, and tests can tell them apart.
        let thread = std::thread::Builder::new()
            .name(format!("acc-worker-{name}"))
            .spawn(move || worker_loop(loop_state))
            .expect("spawn worker thread");
        Some(WorkerRuntime {
            name,
            id,
            shutdown,
            state,
            log,
            tasks_done,
            thread: Some(thread),
            publisher,
        })
    }

    /// The management-assigned worker id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// The worker's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The worker's current state.
    pub fn state(&self) -> WorkerState {
        *self.state.lock()
    }

    /// Signals handled so far (reaction-time log, Figs. 9b–11b).
    pub fn signal_log(&self) -> Vec<SignalLogEntry> {
        self.log.lock().clone()
    }

    /// Tasks completed so far.
    pub fn tasks_done(&self) -> u64 {
        *self.tasks_done.lock()
    }

    /// A cheap probe suitable for exporting over SNMP
    /// (`acc_worker_threads`): 1 while the worker participates in the
    /// computation (Running or Paused), 0 once Stopped.
    pub fn participation_gauge(&self) -> impl Fn() -> u64 + Send + Sync + 'static {
        let state = self.state.clone();
        move || match *state.lock() {
            WorkerState::Stopped => 0,
            WorkerState::Running | WorkerState::Paused => 1,
        }
    }

    /// Stops the loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_join();
    }

    fn stop_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.publisher.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WorkerRuntime {
    fn drop(&mut self) {
        self.stop_join();
    }
}

struct LoopState {
    config: WorkerConfig,
    shutdown: Arc<AtomicBool>,
    state: Arc<Mutex<WorkerState>>,
    log: Arc<Mutex<Vec<SignalLogEntry>>>,
    tasks_done: Arc<Mutex<u64>>,
}

/// How many *consecutive* transport-level take failures a worker rides out
/// before concluding the space is gone for good. `RemoteSpace` already
/// absorbs a single dropped connection internally; this guards the window
/// where the server is briefly unreachable across calls.
const MAX_TRANSPORT_STRIKES: u32 = 3;

fn worker_loop(ls: LoopState) {
    let template: Template = task_template(&ls.config.job);
    let mut executor: Option<Arc<dyn TaskExecutor>> = None;
    let mut first_access: Option<Instant> = None;
    // Tasks fetched ahead of execution (one batched round trip for up to
    // `task_prefetch` tasks). Only the executing task is committed to this
    // worker: on Pause/Stop/shutdown the buffer is written back to the
    // space so other workers can claim it.
    let prefetch = ls.config.framework.task_prefetch.max(1);
    let mut prefetched: VecDeque<Tuple> = VecDeque::new();
    // Cost attribution riding each result tuple, aligned with
    // `prefetched`: the delivering take's round trip is charged as
    // `wait_us` to the first task of the batch and amortised into
    // `xfer_us` across all of them.
    let mut pending_timing: VecDeque<acc_cluster::TaskTiming> = VecDeque::new();
    // Per-job compute history for tail-based trace retention: the
    // decision whether a finished task was "slow" is made here, where
    // the task's spans live (flight rings are per-process).
    let mut retention_history: std::collections::BTreeMap<String, acc_telemetry::HistoryRing> =
        std::collections::BTreeMap::new();
    // Result, retry and poison tuples of finished tasks, written to the
    // space in one batch (see `flush_outbox`) — or one at a time, when
    // tasks are compute-bound. Never holds more than one taken batch, so
    // at most `task_prefetch` tuples.
    let mut outbox: Vec<(Tuple, Outgoing)> = Vec::with_capacity(prefetch);
    // The last outbox write's round trip (µs) and how many tuples shared
    // it; `None` before the first write. A worker can't know its own
    // result-write cost before writing: each result carries its share of
    // the *previous* write.
    let mut last_write: Option<(u64, u64)> = None;
    let mut transport_strikes = 0u32;
    let set_load = |pct: u64| {
        if let Some(load) = &ls.config.node_load {
            load.set_framework(pct);
        }
    };

    loop {
        if ls.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let state = *ls.state.lock();
        match state {
            WorkerState::Stopped | WorkerState::Paused => {
                // Unstarted prefetched tasks must not sit out the back-off
                // invisible to the rest of the cluster (paper §4.3: only
                // the currently executing task completes).
                return_prefetched(&ls, &mut prefetched, &mut pending_timing);
                set_load(0);
                // Blocked on the signal channel; nothing else to do.
                if let Some(msg) = ls.config.duplex.recv_timeout(Duration::from_millis(25)) {
                    handle_message(&ls, msg, &mut executor, &set_load);
                }
            }
            WorkerState::Running => {
                // Signals are drained between tasks (paper §4.3: the node
                // configuration engine forwards the signal before the
                // worker fetches the next task).
                if let Some(msg) = ls.config.duplex.try_recv() {
                    // Finished tasks' results reach the space before the
                    // worker pauses or stops.
                    if !flush_outbox(&ls, &mut outbox, &mut last_write) {
                        break;
                    }
                    handle_message(&ls, msg, &mut executor, &set_load);
                    continue;
                }
                let Some(exec) = executor.clone() else {
                    // Running without linked code should not happen; recover
                    // by stopping.
                    *ls.state.lock() = WorkerState::Stopped;
                    continue;
                };
                if prefetched.is_empty() {
                    set_load(IDLE_RUNNING_LOAD);
                    if !flush_outbox(&ls, &mut outbox, &mut last_write) {
                        break;
                    }
                    let take_start = Instant::now();
                    let taken = ls.config.space.take_up_to(
                        &template,
                        prefetch,
                        Some(ls.config.framework.task_poll_timeout),
                    );
                    match taken {
                        Err(SpaceError::Transport(_))
                            if transport_strikes + 1 < MAX_TRANSPORT_STRIKES =>
                        {
                            // Transient: the server may be restarting.
                            transport_strikes += 1;
                            series().transport_strikes.inc();
                            continue;
                        }
                        Err(_) => break, // space closed: cluster shutting down
                        Ok(batch) => {
                            transport_strikes = 0;
                            if batch.len() > 1 {
                                event!("worker.prefetch", count = batch.len() as u64);
                            }
                            if !batch.is_empty() {
                                let rtt_us = take_start.elapsed().as_micros() as u64;
                                let xfer_us = rtt_us / batch.len() as u64;
                                for i in 0..batch.len() {
                                    pending_timing.push_back(acc_cluster::TaskTiming {
                                        wait_us: if i == 0 { rtt_us } else { 0 },
                                        xfer_us,
                                        compute_us: 0,
                                        write_us: 0,
                                    });
                                }
                            }
                            prefetched.extend(batch);
                        }
                    }
                    // Re-check signals before starting on the batch.
                    continue;
                }
                {
                    let tuple = prefetched.pop_front().expect("non-empty buffer");
                    let mut timing = pending_timing.pop_front().unwrap_or_default();
                    {
                        let Some(task) = TaskEntry::from_tuple(&tuple) else {
                            continue;
                        };
                        if first_access.is_none() {
                            first_access = Some(Instant::now());
                        }
                        // Adopt the master's trace context from the task
                        // tuple (if present) before opening any spans, so
                        // worker.task/worker.compute — and the result tuple
                        // written below — join the master's trace.
                        let _trace_ctx = crate::task::tuple_trace_context(&tuple)
                            .map(acc_telemetry::TraceContext::attach);
                        let _task_span = span!(
                            "worker.task",
                            worker = ls.config.name.as_str(),
                            task_id = task.task_id,
                        );
                        event!("worker.task.take", task_id = task.task_id);
                        set_load(COMPUTE_LOAD);
                        let compute_start = Instant::now();
                        let outcome = {
                            let _compute = span!("worker.compute", task_id = task.task_id);
                            execute_policed(&exec, &task, &ls.config.framework.policy)
                        };
                        let compute_ms = compute_start.elapsed().as_secs_f64() * 1e3;
                        series().compute_us.observe((compute_ms * 1e3) as u64);
                        timing.compute_us = (compute_ms * 1e3) as u64;
                        timing.write_us = last_write.map_or(0, |(rtt_us, n)| rtt_us / n);
                        maybe_retain_trace(
                            &mut retention_history,
                            &task.job,
                            &timing,
                            outcome.is_err(),
                            &ls.config.framework,
                        );
                        set_load(IDLE_RUNNING_LOAD);
                        let span_ms = first_access
                            .map(|f| f.elapsed().as_secs_f64() * 1e3)
                            .unwrap_or(compute_ms);
                        let (tuple, kind) = match outcome {
                            Ok(payload) => {
                                let result = ResultEntry {
                                    job: task.job.clone(),
                                    task_id: task.task_id,
                                    worker: ls.config.name.clone(),
                                    payload,
                                    compute_ms,
                                    span_ms,
                                    error: None,
                                    timing,
                                };
                                (result.to_tuple(), Outgoing::Result(task.task_id))
                            }
                            Err(_) if task.retries < ls.config.framework.max_task_retries => {
                                // Return the task to the space (with its
                                // retry count bumped) so another attempt —
                                // possibly on another worker — can succeed.
                                let mut retry = task.clone();
                                retry.retries += 1;
                                (retry.to_tuple(), Outgoing::Retry)
                            }
                            Err(e) => {
                                // Poison task: write a terminal error result
                                // so the master can account for it.
                                let result = ResultEntry {
                                    job: task.job.clone(),
                                    task_id: task.task_id,
                                    worker: ls.config.name.clone(),
                                    payload: Vec::new(),
                                    compute_ms,
                                    span_ms,
                                    error: Some(e.to_string()),
                                    timing,
                                };
                                (result.to_tuple(), Outgoing::Poison(task.task_id))
                            }
                        };
                        outbox.push((tuple, kind));
                        // Results wait for the batch only while tasks are
                        // dispatch-bound. A task that computed for longer
                        // than a write round trip would have its result
                        // delayed by more than the round trip batching
                        // saves (and held in memory meanwhile), so it goes
                        // out now; so does the first result, which times
                        // the first write.
                        let write_now =
                            last_write.is_none_or(|(rtt_us, _)| timing.compute_us > rtt_us);
                        if write_now && !flush_outbox(&ls, &mut outbox, &mut last_write) {
                            break;
                        }
                    }
                }
            }
        }
    }
    // Whatever ended the loop (shutdown, space closed, failed write):
    // write finished tasks' results and give unstarted prefetched tasks
    // back if the space will still have them, so neither is lost with
    // this worker.
    flush_outbox(&ls, &mut outbox, &mut last_write);
    return_prefetched(&ls, &mut prefetched, &mut pending_timing);
    set_load(0);
    ls.config.duplex.send(RuleMessage::Bye);
}

/// Tail-based trace retention (decided worker-side, after the task ends,
/// where the task's flight records live): pin the current trace when the
/// task errored/retried, or when it is [`in_tail`] of this worker's
/// per-job compute history.
fn maybe_retain_trace(
    history: &mut std::collections::BTreeMap<String, acc_telemetry::HistoryRing>,
    job: &str,
    timing: &acc_cluster::TaskTiming,
    errored: bool,
    framework: &FrameworkConfig,
) {
    if !acc_telemetry::flight::installed() {
        return;
    }
    let Some(ctx) = acc_telemetry::TraceContext::current() else {
        return; // untraced task: nothing to pin
    };
    let ring = history
        .entry(job.to_owned())
        .or_insert_with(|| acc_telemetry::HistoryRing::new(framework.history_depth));
    if in_tail(ring, timing, framework) || errored {
        acc_telemetry::flight::retain_trace(ctx.trace_id);
        event!(
            "worker.trace.retained",
            job = job,
            compute_us = timing.compute_us,
            errored = errored
        );
    }
}

/// Records the task's compute time in `history` and says whether it lies
/// strictly beyond the configured percentile of the samples before it (a
/// task is judged against its predecessors), once there are enough.
///
/// A *flat* history has no tail: one whose median task computes for no
/// longer than this task's share of the space round trips that moved it
/// (`xfer_us` of the take plus `write_us` of the result write). Such
/// tasks are dispatch-bound; their compute times differ by timer ticks
/// and preemptions, not by work, and a run of them — all sharing the
/// master's trace — would otherwise pin the whole run on its first
/// hiccup and crowd genuinely slow traces out of the kept buffers.
fn in_tail(
    history: &acc_telemetry::HistoryRing,
    timing: &acc_cluster::TaskTiming,
    framework: &FrameworkConfig,
) -> bool {
    let bounds = (history.len() >= framework.trace_retention_min_samples.max(1))
        .then(|| history.percentiles([0.5, framework.trace_retention_percentile]))
        .flatten();
    let compute_us = timing.compute_us as i64;
    let space_us = (timing.xfer_us + timing.write_us) as i64;
    history.record(0, compute_us);
    bounds.is_some_and(|[median, threshold]| median > space_us && compute_us > threshold)
}

/// What a tuple in the worker's outbox is, for the accounting done once it
/// is in the space.
enum Outgoing {
    /// A successful task's result.
    Result(u64),
    /// A failed task going back to the space for another attempt.
    Retry,
    /// A terminal error result for a task out of retries.
    Poison(u64),
}

/// Writes the outbox — the finished tasks' result, retry and poison tuples
/// — to the space in one batched write (one round trip on a remote space),
/// then counts each tuple as written, and records the write's round trip
/// and tuple count in `last_write`. Returns `false` when the write failed:
/// the space is gone, and the worker must stop rather than keep taking
/// tasks whose results it cannot deliver.
fn flush_outbox(
    ls: &LoopState,
    outbox: &mut Vec<(Tuple, Outgoing)>,
    last_write: &mut Option<(u64, u64)>,
) -> bool {
    if outbox.is_empty() {
        return true;
    }
    let (tuples, kinds): (Vec<Tuple>, Vec<Outgoing>) = outbox.drain(..).unzip();
    // Each tuple carries its task's trace context: the write joins the
    // first one's trace, and each tuple's event joins its own.
    let traces: Vec<_> = tuples
        .iter()
        .map(crate::task::tuple_trace_context)
        .collect();
    let write_start = Instant::now();
    let written = {
        let _trace_ctx = traces[0].map(acc_telemetry::TraceContext::attach);
        ls.config.space.write_all(tuples)
    };
    if written.is_err() {
        return false;
    }
    *last_write = Some((write_start.elapsed().as_micros() as u64, kinds.len() as u64));
    let mut results = 0;
    for (kind, trace) in kinds.into_iter().zip(traces) {
        let _trace_ctx = trace.map(acc_telemetry::TraceContext::attach);
        match kind {
            Outgoing::Result(task_id) => {
                event!("worker.result.write", task_id = task_id);
                series().tasks_completed.inc();
                results += 1;
            }
            Outgoing::Retry => series().tasks_retried.inc(),
            Outgoing::Poison(task_id) => {
                event!("worker.result.write", task_id = task_id, poisoned = true);
                series().tasks_poisoned.inc();
            }
        }
    }
    // One update per batch, so `tasks_done` never shows half a batch.
    *ls.tasks_done.lock() += results;
    true
}

/// Writes the worker's unstarted prefetched tasks back to the space in one
/// batch. Failure is tolerated: if the space is closed the cluster is shutting
/// down and the tasks are moot; if it is unreachable the master's result
/// timeout re-issues them. Attribution pending for those tasks is dropped
/// with them — whoever re-takes them measures its own costs.
fn return_prefetched(
    ls: &LoopState,
    prefetched: &mut VecDeque<Tuple>,
    pending_timing: &mut VecDeque<acc_cluster::TaskTiming>,
) {
    pending_timing.clear();
    if prefetched.is_empty() {
        return;
    }
    let tuples: Vec<Tuple> = prefetched.drain(..).collect();
    let count = tuples.len() as u64;
    if ls.config.space.write_all(tuples).is_ok() {
        event!("worker.prefetch.return", count = count);
    }
}

/// State the heartbeat publisher thread owns.
struct HeartbeatState {
    worker: String,
    space: StoreHandle,
    node_load: Option<Arc<LoadMix>>,
    tasks_done: Arc<Mutex<u64>>,
    shutdown: Arc<AtomicBool>,
    interval: Duration,
}

/// Publishes one [`acc_cluster::MetricsReport`] tuple per interval until
/// shutdown or the space goes away. Intervals are jittered ±25%
/// deterministically per `(worker, seq)` so a fleet of workers never
/// heartbeats in phase; sleeps run in short slices so shutdown stays
/// prompt even at second-scale intervals.
fn heartbeat_loop(hb: HeartbeatState) {
    let mut seq: u64 = 0;
    loop {
        let wait = acc_cluster::jittered_interval(hb.interval, &hb.worker, seq);
        let deadline = Instant::now() + wait;
        while Instant::now() < deadline {
            if hb.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10).min(wait));
        }
        if hb.shutdown.load(Ordering::SeqCst) {
            return;
        }
        seq += 1;
        let (total, framework) = hb
            .node_load
            .as_ref()
            .map(|l| (l.total(), l.framework_effective()))
            .unwrap_or((0, 0));
        let report = acc_cluster::MetricsReport {
            worker: hb.worker.clone(),
            seq,
            at_ms: acc_cluster::observer::now_ms(),
            total_load: total,
            framework_load: framework,
            tasks_done: *hb.tasks_done.lock(),
        };
        if hb.space.write(report.to_tuple()).is_err() {
            return; // space closed or unreachable: stop reporting
        }
        series().heartbeats_published.inc();
    }
}

fn handle_message(
    ls: &LoopState,
    msg: RuleMessage,
    executor: &mut Option<Arc<dyn TaskExecutor>>,
    set_load: &impl Fn(u64),
) {
    let RuleMessage::Signal { signal } = msg else {
        return;
    };
    let client_signal_ms = ls.config.epoch.elapsed().as_millis() as u64;
    let current = *ls.state.lock();
    let Some(next) = current.apply(signal) else {
        // Invalid in this state: re-ack with the current state so the
        // inference engine can resynchronise.
        ls.config.duplex.send(RuleMessage::Ack {
            signal,
            new_state: current,
        });
        return;
    };
    // Act on the signal.
    match signal {
        Signal::Start => {
            // Remote node configuration: fetch + verify + link, paying the
            // modeled class-loading cost. This is the overhead Resume
            // avoids.
            set_load(CLASS_LOAD_LOAD);
            match ls.config.bundle_server.fetch(&ls.config.bundle_name) {
                Ok((bundle, cost)) => {
                    std::thread::sleep(cost);
                    match ls.config.registry.link(&bundle) {
                        Ok(exec) => *executor = Some(exec),
                        Err(_) => {
                            set_load(0);
                            ls.config.duplex.send(RuleMessage::Ack {
                                signal,
                                new_state: current,
                            });
                            return;
                        }
                    }
                }
                Err(_) => {
                    set_load(0);
                    ls.config.duplex.send(RuleMessage::Ack {
                        signal,
                        new_state: current,
                    });
                    return;
                }
            }
            set_load(IDLE_RUNNING_LOAD);
        }
        Signal::Stop => {
            // Shutdown/cleanup: drop the linked classes; the next Start
            // must reload them.
            *executor = None;
            set_load(0);
        }
        Signal::Pause => {
            // Temporary back-off: classes stay in memory.
            set_load(0);
        }
        Signal::Resume => {
            // No class loading: remove the lock on the interrupted thread.
            if executor.is_none() {
                // Lost our classes somehow; treat as a failed resume.
                ls.config.duplex.send(RuleMessage::Ack {
                    signal,
                    new_state: current,
                });
                return;
            }
            set_load(IDLE_RUNNING_LOAD);
        }
    }
    *ls.state.lock() = next;
    let worker_signal_ms = ls.config.epoch.elapsed().as_millis() as u64;
    series().transitions.inc();
    series()
        .reaction_us
        .observe(worker_signal_ms.saturating_sub(client_signal_ms) * 1_000);
    event!(
        "worker.transition",
        worker = ls.config.name.as_str(),
        signal = format!("{signal:?}"),
        from = format!("{current:?}"),
        to = format!("{next:?}"),
    );
    ls.log.lock().push(SignalLogEntry {
        signal,
        client_signal_ms,
        worker_signal_ms,
        new_state: next,
    });
    ls.config.duplex.send(RuleMessage::Ack {
        signal,
        new_state: next,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::CodeBundle;
    use crate::rulebase::{duplex_pair, RuleBaseServer};
    use crate::task::{ExecError, TaskSpec};
    use acc_tuplespace::{EntryId, Lease, Payload, Space, SpaceHandle, SpaceResult, TupleStore};

    struct SquareExec;
    impl TaskExecutor for SquareExec {
        fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
            let x: u64 = task.input()?;
            Ok((x * x).to_bytes())
        }
    }

    struct Rig {
        space: SpaceHandle,
        server: Arc<RuleBaseServer>,
        worker: WorkerRuntime,
    }

    fn rig() -> Rig {
        let space = Space::new("rig");
        let store: StoreHandle = space.clone();
        rig_with(
            space,
            store,
            Arc::new(SquareExec),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                ..FrameworkConfig::default()
            },
            false,
        )
    }

    /// Like [`rig`] but with the worker reaching the space through an
    /// arbitrary store (for failure injection), a custom executor, and
    /// explicit tunables. `space` is the underlying space tests seed and
    /// inspect directly.
    fn rig_with(
        space: SpaceHandle,
        store: StoreHandle,
        exec: Arc<dyn TaskExecutor>,
        framework: FrameworkConfig,
        publish_metrics: bool,
    ) -> Rig {
        let server = RuleBaseServer::new(Arc::new(|_, _| {}));
        let bundle_server = BundleServer::new(Duration::from_millis(5), Duration::ZERO);
        bundle_server.publish(CodeBundle::synthetic("sq", 1, 1));
        let registry = ExecutorRegistry::new();
        registry.register("sq", exec);
        let (client, server_side) = duplex_pair();
        let server2 = server.clone();
        let accept = std::thread::spawn(move || {
            server2.accept(server_side, Duration::from_secs(5)).unwrap()
        });
        let worker = WorkerRuntime::spawn(WorkerConfig {
            name: "w01".into(),
            space: store,
            bundle_server,
            registry,
            duplex: client,
            bundle_name: "sq".into(),
            job: "squares".into(),
            node_load: None,
            epoch: Instant::now(),
            framework,
            publish_metrics,
        })
        .unwrap();
        let id = accept.join().unwrap();
        assert_eq!(id, worker.id());
        Rig {
            space,
            server,
            worker,
        }
    }

    fn wait_for(pred: impl Fn() -> bool, what: &str) {
        let begun = Instant::now();
        while !pred() {
            assert!(
                begun.elapsed() < Duration::from_secs(5),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn put_task(space: &SpaceHandle, id: u64, x: u64) {
        let spec = TaskSpec::new(id, &x);
        let entry = TaskEntry::new("squares", spec.task_id, spec.payload);
        space.write(entry.to_tuple()).unwrap();
    }

    #[test]
    fn worker_idles_until_started() {
        let r = rig();
        put_task(&r.space, 0, 4);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(r.worker.state(), WorkerState::Stopped);
        assert_eq!(r.worker.tasks_done(), 0);
        assert_eq!(r.space.len(), 1, "task untouched while stopped");
    }

    #[test]
    fn start_compute_result_flow() {
        let r = rig();
        put_task(&r.space, 0, 6);
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.tasks_done() == 1, "task completion");
        let result = r
            .space
            .take(
                &crate::task::result_template("squares"),
                Some(Duration::from_secs(2)),
            )
            .unwrap()
            .unwrap();
        let entry = ResultEntry::from_tuple(&result).unwrap();
        assert_eq!(u64::from_bytes(&entry.payload).unwrap(), 36);
        assert_eq!(entry.worker, "w01");
        assert!(entry.span_ms >= 0.0);
        // The Start transition is in the signal log with a class-load cost.
        let log = r.worker.signal_log();
        assert_eq!(log[0].signal, Signal::Start);
        assert!(log[0].reaction_ms() >= 5, "class loading cost paid");
        r.worker.shutdown();
    }

    #[test]
    fn pause_stops_consumption_resume_restarts() {
        let r = rig();
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.state() == WorkerState::Running, "start");
        r.server.send_signal(r.worker.id(), Signal::Pause);
        wait_for(|| r.worker.state() == WorkerState::Paused, "pause");
        put_task(&r.space, 1, 3);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(r.worker.tasks_done(), 0, "paused: no consumption");
        r.server.send_signal(r.worker.id(), Signal::Resume);
        wait_for(|| r.worker.tasks_done() == 1, "resume computes");
        // Resume must be much cheaper than Start (no class loading).
        let log = r.worker.signal_log();
        let start = log.iter().find(|e| e.signal == Signal::Start).unwrap();
        let resume = log.iter().find(|e| e.signal == Signal::Resume).unwrap();
        assert!(resume.reaction_ms() <= start.reaction_ms());
        r.worker.shutdown();
    }

    #[test]
    fn stop_then_start_reloads_classes() {
        let r = rig();
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.state() == WorkerState::Running, "start");
        r.server.send_signal(r.worker.id(), Signal::Stop);
        wait_for(|| r.worker.state() == WorkerState::Stopped, "stop");
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.state() == WorkerState::Running, "restart");
        let log = r.worker.signal_log();
        let starts: Vec<_> = log.iter().filter(|e| e.signal == Signal::Start).collect();
        assert_eq!(starts.len(), 2);
        assert!(
            starts[1].reaction_ms() >= 5,
            "restart pays class load again"
        );
        r.worker.shutdown();
    }

    #[test]
    fn invalid_signal_is_ignored() {
        let r = rig();
        r.server.send_signal(r.worker.id(), Signal::Resume);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(r.worker.state(), WorkerState::Stopped);
        assert!(r.worker.signal_log().is_empty());
        r.worker.shutdown();
    }

    #[test]
    fn space_close_terminates_worker() {
        let r = rig();
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.state() == WorkerState::Running, "start");
        r.space.close();
        // The loop exits; shutdown() joins promptly.
        r.worker.shutdown();
    }

    /// Delegates everything to an inner space, but fails writes once
    /// armed — the shape of a master whose space became unreachable for
    /// writes while takes still drain a local queue.
    struct FailingWriteStore {
        inner: SpaceHandle,
        arm: AtomicBool,
    }

    impl TupleStore for FailingWriteStore {
        fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
            if self.arm.load(Ordering::SeqCst) {
                return Err(SpaceError::Storage("injected write failure".into()));
            }
            self.inner.write_leased(tuple, lease)
        }
        fn read(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
            self.inner.read(t, timeout)
        }
        fn take(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
            self.inner.take(t, timeout)
        }
        fn count(&self, t: &Template) -> SpaceResult<usize> {
            Ok(Space::count(&self.inner, t))
        }
        fn close(&self) {
            self.inner.close()
        }
        fn is_closed(&self) -> bool {
            self.inner.is_closed()
        }
    }

    #[test]
    fn retry_write_failure_stops_worker_without_losing_queued_tasks() {
        struct AlwaysFails;
        impl TaskExecutor for AlwaysFails {
            fn execute(&self, _: &TaskEntry) -> Result<Vec<u8>, ExecError> {
                Err(ExecError::App("always fails".into()))
            }
        }
        let space = Space::new("failing-writes");
        let store = Arc::new(FailingWriteStore {
            inner: space.clone(),
            arm: AtomicBool::new(false),
        });
        let r = rig_with(
            space.clone(),
            store.clone(),
            Arc::new(AlwaysFails),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                task_prefetch: 1,
                max_task_retries: 10,
                ..FrameworkConfig::default()
            },
            false,
        );
        put_task(&r.space, 0, 1);
        put_task(&r.space, 1, 2);
        store.arm.store(true, Ordering::SeqCst);
        r.server.send_signal(r.worker.id(), Signal::Start);
        // The worker takes task 0, fails it, and cannot write the retry
        // back: it must stop there — not swallow the error and keep
        // consuming (and losing) the rest of the queue.
        wait_for(|| space.len() == 1, "first task taken");
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            space.len(),
            1,
            "worker kept consuming tasks after a failed retry write"
        );
        assert_eq!(r.worker.tasks_done(), 0);
        r.worker.shutdown();
    }

    #[test]
    fn publishing_worker_heartbeats_into_the_space() {
        let space = Space::new("heartbeats");
        let store: StoreHandle = space.clone();
        let r = rig_with(
            space,
            store,
            Arc::new(SquareExec),
            FrameworkConfig {
                task_poll_timeout: Duration::from_millis(10),
                metrics_interval: Duration::from_millis(20),
                ..FrameworkConfig::default()
            },
            true,
        );
        // Heartbeats flow even while the worker is Stopped — the
        // publisher thread is independent of the task loop.
        wait_for(
            || r.space.count(&acc_cluster::metrics_template()) >= 2,
            "two heartbeats",
        );
        let tuple = r
            .space
            .take(
                &acc_cluster::metrics_template(),
                Some(Duration::from_secs(1)),
            )
            .unwrap()
            .unwrap();
        let report = acc_cluster::MetricsReport::from_tuple(&tuple).unwrap();
        assert_eq!(report.worker, "w01");
        assert!(report.seq >= 1);
        r.worker.shutdown();
    }

    /// Squares its input after sleeping, counting the tasks it has begun.
    struct Sleepy {
        nap: Duration,
        started: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl TaskExecutor for Sleepy {
        fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
            self.started.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(self.nap);
            let x: u64 = task.input()?;
            Ok((x * x).to_bytes())
        }
    }

    fn sleepy(ms: u64) -> (Arc<Sleepy>, Arc<std::sync::atomic::AtomicUsize>) {
        let started = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let exec = Sleepy {
            nap: Duration::from_millis(ms),
            started: started.clone(),
        };
        (Arc::new(exec), started)
    }

    /// A space whose batch writes take `write_delay` (a slow link), and
    /// which counts them.
    struct SlowWriteStore {
        inner: SpaceHandle,
        write_delay: Duration,
        batches: std::sync::atomic::AtomicUsize,
    }

    impl SlowWriteStore {
        fn new(inner: &SpaceHandle, write_delay: Duration) -> Arc<SlowWriteStore> {
            Arc::new(SlowWriteStore {
                inner: inner.clone(),
                write_delay,
                batches: Default::default(),
            })
        }
    }

    impl TupleStore for SlowWriteStore {
        fn write_leased(&self, tuple: Tuple, lease: Lease) -> SpaceResult<EntryId> {
            self.inner.write_leased(tuple, lease)
        }
        fn write_all_leased(&self, tuples: Vec<Tuple>, lease: Lease) -> SpaceResult<Vec<EntryId>> {
            std::thread::sleep(self.write_delay);
            self.batches.fetch_add(1, Ordering::SeqCst);
            self.inner.write_all_leased(tuples, lease)
        }
        fn read(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
            self.inner.read(t, timeout)
        }
        fn take(&self, t: &Template, timeout: Option<Duration>) -> SpaceResult<Option<Tuple>> {
            self.inner.take(t, timeout)
        }
        fn count(&self, t: &Template) -> SpaceResult<usize> {
            Ok(Space::count(&self.inner, t))
        }
        fn close(&self) {
            self.inner.close()
        }
        fn is_closed(&self) -> bool {
            self.inner.is_closed()
        }
    }

    fn prefetching(task_prefetch: usize) -> FrameworkConfig {
        FrameworkConfig {
            task_poll_timeout: Duration::from_millis(10),
            task_prefetch,
            ..FrameworkConfig::default()
        }
    }

    #[test]
    fn pause_returns_unstarted_prefetched_tasks_to_the_space() {
        // Writes (40 ms) cost more than tasks (25 ms), so results wait
        // for their batch.
        let space = Space::new("prefetching");
        let store = SlowWriteStore::new(&space, Duration::from_millis(40));
        let (exec, started) = sleepy(25);
        let r = rig_with(space.clone(), store, exec, prefetching(4), false);
        let total = 10u64;
        for i in 0..total {
            put_task(&r.space, i, i);
        }
        r.server.send_signal(r.worker.id(), Signal::Start);
        // Pause while the first task of the second batch of four runs.
        wait_for(|| started.load(Ordering::SeqCst) == 5, "fifth task begun");
        assert_eq!(
            r.worker.tasks_done(),
            4,
            "the first batch's results land together"
        );
        r.server.send_signal(r.worker.id(), Signal::Pause);
        wait_for(|| r.worker.state() == WorkerState::Paused, "pause");
        // Let the loop reach its Paused arm, which returns the buffer.
        std::thread::sleep(Duration::from_millis(60));
        let done = r.worker.tasks_done();
        let queued = space.count(&task_template("squares")) as u64;
        assert_eq!(done, 5, "the task running when the pause came completes");
        assert_eq!(
            space.count(&crate::task::result_template("squares")) as u64,
            done,
            "the results of the batch's finished tasks must be in the space \
             before the worker pauses"
        );
        assert_eq!(
            queued + done,
            total,
            "unstarted prefetched tasks must be back in the space, \
             visible to other workers, while this one is paused"
        );
        // Resume: the worker re-fetches what it gave back and finishes.
        r.server.send_signal(r.worker.id(), Signal::Resume);
        wait_for(|| r.worker.tasks_done() == total, "job completes");
        assert_eq!(space.count(&task_template("squares")), 0);
        r.worker.shutdown();
    }

    /// Runs `tasks` tasks through a worker prefetching 4 at a time and
    /// returns how many batch writes its results took.
    fn result_writes(exec: Arc<dyn TaskExecutor>, write_delay: Duration, tasks: u64) -> usize {
        let space = Space::new("outbox");
        let store = SlowWriteStore::new(&space, write_delay);
        let r = rig_with(space.clone(), store.clone(), exec, prefetching(4), false);
        let tuples: Vec<Tuple> = (0..tasks)
            .map(|i| TaskEntry::new("squares", i, i.to_bytes()).to_tuple())
            .collect();
        space.write_all(tuples).unwrap();
        r.server.send_signal(r.worker.id(), Signal::Start);
        wait_for(|| r.worker.tasks_done() == tasks, "all tasks done");
        let results = space.count(&crate::task::result_template("squares"));
        assert_eq!(results as u64, tasks, "every result is in the space");
        r.worker.shutdown();
        store.batches.load(Ordering::SeqCst)
    }

    #[test]
    fn results_are_batched_only_while_tasks_are_dispatch_bound() {
        // Microsecond tasks behind a 2 ms write: after the first result,
        // which times the write, one write per batch of 4.
        let writes = result_writes(Arc::new(SquareExec), Duration::from_millis(2), 12);
        assert_eq!(writes, 1 + 3);
        // 20 ms tasks behind a microsecond write: each result goes out as
        // soon as its task ends.
        let writes = result_writes(sleepy(20).0, Duration::ZERO, 8);
        assert_eq!(writes, 8);
    }

    fn history(samples: impl IntoIterator<Item = u64>) -> acc_telemetry::HistoryRing {
        let ring = acc_telemetry::HistoryRing::new(256);
        for us in samples {
            ring.record(0, us as i64);
        }
        ring
    }

    fn took(compute_us: u64, xfer_us: u64) -> acc_cluster::TaskTiming {
        acc_cluster::TaskTiming {
            compute_us,
            xfer_us,
            ..Default::default()
        }
    }

    #[test]
    fn flat_compute_history_retains_nothing() {
        let cfg = FrameworkConfig::default();
        // Microsecond tasks fetched over a ~40 µs round trip: samples
        // truncate to a few timer ticks, with the odd preemption.
        let ring = history((0..200).map(|i| if i % 50 == 0 { 900 } else { i % 5 }));
        for us in [0, 4, 5, 40, 1_100] {
            assert!(!in_tail(&ring, &took(us, 40), &cfg), "{us} µs retained");
        }
        // Ties: a history of identical samples has no tail either.
        let ties = history([0; 100]);
        assert!(!in_tail(&ties, &took(1, 0), &cfg));
    }

    #[test]
    fn tail_is_strictly_beyond_the_percentile() {
        let cfg = FrameworkConfig::default();
        // Six-millisecond tasks with scheduling jitter.
        let ring = history((0..100).map(|i| 6_000 + (i % 20) * 10));
        assert!(
            !in_tail(&ring, &took(6_050, 40), &cfg),
            "the body is not the tail"
        );
        let p95 = ring.percentile(cfg.trace_retention_percentile).unwrap() as u64;
        assert!(
            !in_tail(&ring, &took(p95, 40), &cfg),
            "a tie is not the tail"
        );
        assert!(
            in_tail(&ring, &took(80_000, 40), &cfg),
            "a straggler task is"
        );
        // Too little history to judge.
        assert!(!in_tail(&history([1_000; 3]), &took(80_000, 40), &cfg));
    }
}
