//! The master module (paper §4.1–4.2).
//!
//! The master defines the problem domain: it decomposes the application
//! into independent tasks during the *task-planning* phase, writes them
//! into the space, and during the *result-aggregation* phase removes result
//! entries and assimilates them into the final solution. All of the paper's
//! master-side metrics (task planning time, task aggregation time, max
//! worker time, parallel time, max master overhead) are measured here.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_cluster::{ClusterObserver, JobProfiler, JobRecorder};
use acc_telemetry::span;
use acc_tuplespace::{SpaceError, StoreHandle, Template, Tuple};

use crate::checkpoint::CheckpointState;
use crate::metrics::PhaseTimes;
use crate::series::series;
use crate::task::{result_template, Application, ExecError, ResultEntry, TaskEntry, TASK_TYPE};

/// Outcome of one application run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Phase timings (the paper's figures plot these).
    pub times: PhaseTimes,
    /// Results successfully collected and absorbed.
    pub results_collected: usize,
    /// Per-task aggregation failures (decode errors etc.).
    pub failures: Vec<(u64, ExecError)>,
    /// True when every planned task's result arrived before the deadline.
    pub complete: bool,
}

/// The master process: task planning and result aggregation over a space.
#[derive(Clone)]
pub struct Master {
    space: StoreHandle,
    /// How long to wait for each outstanding result before giving up.
    pub result_timeout: Duration,
    /// How many planned tasks go into one batched space write. Over a
    /// remote space each chunk is a single pipelined round trip instead of
    /// one per task; see [`crate::FrameworkConfig::dispatch_chunk`].
    pub dispatch_chunk: usize,
    /// Federation sink for the task-level timing attribution riding each
    /// result entry. `None` (the default) drops the attribution.
    pub observer: Option<Arc<ClusterObserver>>,
    /// Per-job waterfall sink: every result's timing plus the master's
    /// phase scalars fold into a [`JobProfiler`] build, queryable live
    /// via `/profile`. `None` (the default) skips profiling.
    pub profiler: Option<Arc<JobProfiler>>,
}

impl Master {
    /// Creates a master over a space (local or remote).
    pub fn new(space: StoreHandle) -> Master {
        Master {
            space,
            result_timeout: Duration::from_secs(60),
            dispatch_chunk: 256,
            observer: None,
            profiler: None,
        }
    }

    /// Runs an application end-to-end: plan → (workers compute) → aggregate.
    ///
    /// Returns a [`RunReport`] with the paper's phase timings. If a result
    /// does not arrive within `result_timeout`, aggregation stops and the
    /// report is marked incomplete (`complete == false`).
    ///
    /// Task and result entries are matched by job name only, so a run
    /// assumes a space with no leftover entries for this job. Re-running a
    /// job after an incomplete run on the *same* space would mix the old
    /// run's stragglers into the new aggregation — use a fresh space (as
    /// [`crate::AdaptiveCluster`] does) or drain the job's entries first.
    pub fn run(&self, app: &mut dyn Application) -> Result<RunReport, SpaceError> {
        let job = app.job_name();
        // The run's root span: every task tuple written during planning
        // carries this trace context, so worker spans — possibly in other
        // processes — assemble under it.
        let _dispatch = span!("master.dispatch", job = job.as_str());
        let run_start = Instant::now();
        let mut times = PhaseTimes::default();
        if let Some(profiler) = &self.profiler {
            profiler.job_started(&job);
        }

        // ------------------------------------------------------------
        // Task-planning phase.
        // ------------------------------------------------------------
        let planning_start = Instant::now();
        let mut max_overhead = 0.0f64;
        let specs = {
            let _span = span!("master.planning", job = job.as_str());
            let specs = app.plan();
            times.tasks = specs.len();
            for batch in specs.chunks(self.dispatch_chunk.max(1)) {
                let mut tuples: Vec<Tuple> = batch
                    .iter()
                    .map(|spec| {
                        TaskEntry::new(job.clone(), spec.task_id, spec.payload.clone()).to_tuple()
                    })
                    .collect();
                dispatch_batch(&self.space, &mut tuples, &mut max_overhead)?;
            }
            specs
        };
        times.task_planning_ms = ms_since(planning_start);
        series().tasks_planned.add(specs.len() as u64);

        // ------------------------------------------------------------
        // Result-aggregation phase. The master blocks on the space until
        // each outstanding result arrives; workers run concurrently.
        // ------------------------------------------------------------
        let template = result_template(&job);
        let mut report = RunReport::default();
        let aggregation_start = Instant::now();
        let mut aggregation_busy = 0.0f64;
        let mut recorder = self.profiler.as_ref().map(|p| p.recorder(&job));
        let aggregation_span = span!(
            "master.aggregation",
            job = job.as_str(),
            tasks = specs.len()
        );
        // Results are absorbed once per task id: a resent batch write can
        // deliver a result twice, and a duplicate must neither count twice
        // nor stand in for another task's result.
        let mut completed: BTreeSet<u64> = BTreeSet::new();
        while completed.len() < specs.len() {
            let Some(tuple) = self.space.take(&template, Some(self.result_timeout))? else {
                break; // deadline: a worker died or was stopped for good
            };
            let per_task = Instant::now();
            absorb_result(
                app,
                &tuple,
                &mut completed,
                &mut report,
                &mut times,
                self.observer.as_deref(),
                recorder.as_mut(),
            );
            let elapsed = ms_since(per_task);
            aggregation_busy += elapsed;
            max_overhead = max_overhead.max(elapsed);
        }
        drop(aggregation_span);
        // Task aggregation time is the wall time of the aggregation phase:
        // it tracks max worker time, since the master waits for the last
        // task to complete (paper §5.2.1).
        times.task_aggregation_ms = ms_since(aggregation_start);
        times.max_master_overhead_ms = max_overhead;
        times.parallel_ms = ms_since(run_start);
        report.complete = report.results_collected == specs.len();
        drop(recorder); // flushes any buffered results into the build
        if let Some(profiler) = &self.profiler {
            // Aggregation phase cost is the master's *busy* time, not the
            // phase's wall (which mostly overlaps worker compute).
            profiler.job_finished(
                &job,
                (times.task_planning_ms * 1e3) as u64,
                (aggregation_busy * 1e3) as u64,
                times.parallel_ms as u64,
            );
        }
        times.publish();
        series().master_runs.inc();
        series()
            .results_collected
            .add(report.results_collected as u64);
        report.times = times;
        Ok(report)
    }

    /// Like [`run`](Master::run), but persisting aggregation progress to a
    /// checkpoint file every `every` absorbed results, and resuming from
    /// that file when it already exists.
    ///
    /// On resume the application's partial aggregate is restored via
    /// [`Application::restore_partials`], result entries that reached the
    /// (typically durable, recovered) space before the previous master died
    /// are drained first, and only tasks that are neither completed nor
    /// still queued in the space are re-written. Results are deduplicated
    /// by task id, so a task that was re-issued and computed twice is
    /// absorbed exactly once. The checkpoint file is removed when the run
    /// completes, and rewritten one final time when it does not (timeout).
    ///
    /// `plan` must be deterministic: a restarted master re-plans the job
    /// and relies on task ids matching the interrupted run's.
    pub fn run_with_checkpoint(
        &self,
        app: &mut dyn Application,
        checkpoint: &Path,
        every: usize,
    ) -> Result<RunReport, SpaceError> {
        let job = app.job_name();
        let _dispatch = span!("master.dispatch", job = job.as_str());
        let run_start = Instant::now();
        let mut times = PhaseTimes::default();
        let every = every.max(1);
        if let Some(profiler) = &self.profiler {
            profiler.job_started(&job);
        }

        let mut completed: BTreeSet<u64> = BTreeSet::new();
        let mut resumed = false;
        match CheckpointState::load(checkpoint) {
            Ok(Some(state)) if state.job == job => {
                app.restore_partials(&state.app_state)
                    .map_err(|e| SpaceError::Storage(format!("restore partials: {e}")))?;
                completed = state.completed;
                resumed = true;
            }
            Ok(_) => {}
            Err(e) => return Err(SpaceError::Storage(format!("load checkpoint: {e}"))),
        }

        // ------------------------------------------------------------
        // Task-planning phase.
        // ------------------------------------------------------------
        let planning_start = Instant::now();
        let mut max_overhead = 0.0f64;
        let specs = {
            let _span = span!("master.planning", job = job.as_str());
            app.plan()
        };
        times.tasks = specs.len();
        let total = specs.len() as u64;
        let template = result_template(&job);
        let mut report = RunReport::default();

        // Drain results that reached the space before the previous master
        // died, so their tasks are not re-issued below.
        let mut aggregation_busy = 0.0f64;
        let mut recorder = self.profiler.as_ref().map(|p| p.recorder(&job));
        if resumed {
            while let Some(tuple) = self.space.take_if_exists(&template)? {
                let per_task = Instant::now();
                absorb_result(
                    app,
                    &tuple,
                    &mut completed,
                    &mut report,
                    &mut times,
                    self.observer.as_deref(),
                    recorder.as_mut(),
                );
                let elapsed = ms_since(per_task);
                aggregation_busy += elapsed;
                max_overhead = max_overhead.max(elapsed);
            }
        }

        let mut written = 0usize;
        let chunk = self.dispatch_chunk.max(1);
        let mut pending: Vec<Tuple> = Vec::new();
        for spec in &specs {
            if completed.contains(&spec.task_id) {
                continue;
            }
            if resumed {
                // A recovered durable space may still hold this entry.
                let this_task = Template::build(TASK_TYPE)
                    .eq("job", job.as_str())
                    .eq("task_id", spec.task_id as i64)
                    .done();
                if self.space.read_if_exists(&this_task)?.is_some() {
                    continue;
                }
            }
            let entry = TaskEntry::new(job.clone(), spec.task_id, spec.payload.clone());
            pending.push(entry.to_tuple());
            written += 1;
            if pending.len() >= chunk {
                dispatch_batch(&self.space, &mut pending, &mut max_overhead)?;
            }
        }
        dispatch_batch(&self.space, &mut pending, &mut max_overhead)?;
        times.task_planning_ms = ms_since(planning_start);
        series().tasks_planned.add(written as u64);

        // Persist progress-so-far (including drained leftovers) before
        // blocking on new results: a crash from here on resumes cleanly.
        save_checkpoint(checkpoint, &job, total, &completed, &*app)?;

        // ------------------------------------------------------------
        // Result-aggregation phase.
        // ------------------------------------------------------------
        let aggregation_start = Instant::now();
        let aggregation_span = span!(
            "master.aggregation",
            job = job.as_str(),
            tasks = specs.len()
        );
        let mut since_save = 0usize;
        while (completed.len() as u64) < total {
            let Some(tuple) = self.space.take(&template, Some(self.result_timeout))? else {
                break; // deadline: a worker died or was stopped for good
            };
            let per_task = Instant::now();
            let before = completed.len();
            absorb_result(
                app,
                &tuple,
                &mut completed,
                &mut report,
                &mut times,
                self.observer.as_deref(),
                recorder.as_mut(),
            );
            let elapsed = ms_since(per_task);
            aggregation_busy += elapsed;
            max_overhead = max_overhead.max(elapsed);
            if completed.len() > before {
                since_save += 1;
                if since_save >= every {
                    save_checkpoint(checkpoint, &job, total, &completed, &*app)?;
                    since_save = 0;
                }
            }
        }
        drop(aggregation_span);
        times.task_aggregation_ms = ms_since(aggregation_start);
        times.max_master_overhead_ms = max_overhead;
        times.parallel_ms = ms_since(run_start);
        report.complete = completed.len() as u64 == total;
        drop(recorder); // flushes any buffered results into the build
        if let Some(profiler) = &self.profiler {
            profiler.job_finished(
                &job,
                (times.task_planning_ms * 1e3) as u64,
                (aggregation_busy * 1e3) as u64,
                times.parallel_ms as u64,
            );
        }
        if report.complete {
            let _ = std::fs::remove_file(checkpoint);
        } else {
            save_checkpoint(checkpoint, &job, total, &completed, &*app)?;
        }
        times.publish();
        series().master_runs.inc();
        series()
            .results_collected
            .add(report.results_collected as u64);
        report.times = times;
        Ok(report)
    }
}

/// Writes one planning chunk with a single batched space operation (one
/// pipelined round trip on a remote space) and folds the amortised
/// per-task cost into the master-overhead metric.
fn dispatch_batch(
    space: &StoreHandle,
    pending: &mut Vec<Tuple>,
    max_overhead: &mut f64,
) -> Result<(), SpaceError> {
    if pending.is_empty() {
        return Ok(());
    }
    let n = pending.len();
    let t0 = Instant::now();
    space.write_all(std::mem::take(pending))?;
    *max_overhead = max_overhead.max(ms_since(t0) / n as f64);
    Ok(())
}

/// Absorbs one result tuple into the application, marking its task
/// completed. Duplicates (a re-issued task computed twice) are dropped; a
/// terminal worker error still completes the task so the run terminates.
fn absorb_result(
    app: &mut dyn Application,
    tuple: &acc_tuplespace::Tuple,
    completed: &mut BTreeSet<u64>,
    report: &mut RunReport,
    times: &mut PhaseTimes,
    observer: Option<&ClusterObserver>,
    recorder: Option<&mut JobRecorder>,
) {
    let Some(result) = ResultEntry::from_tuple(tuple) else {
        report
            .failures
            .push((u64::MAX, ExecError::App("malformed result entry".into())));
        return;
    };
    if completed.contains(&result.task_id) {
        return;
    }
    times.max_worker_ms = times.max_worker_ms.max(result.span_ms);
    let slot = times
        .per_worker_ms
        .entry(result.worker.clone())
        .or_insert(0.0);
    *slot = slot.max(result.span_ms);
    if let Some(observer) = observer {
        observer.record_attribution(&result.job, &result.worker, &result.timing);
    }
    if let Some(recorder) = recorder {
        recorder.record_task(
            result.task_id,
            &result.worker,
            &result.timing,
            result.error.is_some(),
        );
    }
    match result.error {
        Some(error) => {
            report
                .failures
                .push((result.task_id, ExecError::App(error)));
        }
        None => match app.absorb(result.task_id, &result.payload) {
            Ok(()) => report.results_collected += 1,
            Err(e) => report.failures.push((result.task_id, e)),
        },
    }
    completed.insert(result.task_id);
}

/// Writes the current progress atomically to the checkpoint file.
fn save_checkpoint(
    path: &Path,
    job: &str,
    total: u64,
    completed: &BTreeSet<u64>,
    app: &dyn Application,
) -> Result<(), SpaceError> {
    let state = CheckpointState {
        job: job.to_owned(),
        total,
        completed: completed.clone(),
        app_state: app.snapshot_partials().unwrap_or_default(),
    };
    state
        .save(path)
        .map_err(|e| SpaceError::Storage(format!("save checkpoint {}: {e}", path.display())))
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{task_template, TaskExecutor, TaskSpec};
    use acc_tuplespace::{Payload, Space, SpaceHandle};
    use std::sync::Arc;

    /// Doubles each input; trivially correct so aggregation is checkable.
    struct Doubler {
        n: u64,
        outputs: Vec<u64>,
    }

    impl Application for Doubler {
        fn job_name(&self) -> String {
            "double".into()
        }
        fn bundle_name(&self) -> String {
            "double-bundle".into()
        }
        fn plan(&mut self) -> Vec<TaskSpec> {
            (0..self.n).map(|i| TaskSpec::new(i, &(i * 10))).collect()
        }
        fn executor(&self) -> Arc<dyn TaskExecutor> {
            struct Exec;
            impl TaskExecutor for Exec {
                fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
                    let x: u64 = task.input()?;
                    Ok((x * 2).to_bytes())
                }
            }
            Arc::new(Exec)
        }
        fn absorb(&mut self, _task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
            self.outputs
                .push(u64::from_bytes(payload).map_err(ExecError::Decode)?);
            Ok(())
        }
    }

    /// A bare-bones inline worker: takes tasks, executes, writes results.
    fn spawn_inline_worker(
        space: SpaceHandle,
        job: &str,
        exec: Arc<dyn TaskExecutor>,
        name: &str,
    ) -> std::thread::JoinHandle<()> {
        let template = task_template(job);
        let job = job.to_owned();
        let name = name.to_owned();
        std::thread::spawn(move || {
            let first = Instant::now();
            while let Ok(Some(tuple)) = space.take(&template, Some(Duration::from_millis(200))) {
                let task = TaskEntry::from_tuple(&tuple).unwrap();
                let t0 = Instant::now();
                let payload = exec.execute(&task).unwrap();
                let result = ResultEntry {
                    job: job.clone(),
                    task_id: task.task_id,
                    worker: name.clone(),
                    payload,
                    compute_ms: ms_since(t0),
                    span_ms: ms_since(first),
                    timing: Default::default(),
                    error: None,
                };
                space.write(result.to_tuple()).unwrap();
            }
        })
    }

    #[test]
    fn plan_compute_aggregate_roundtrip() {
        let space = Space::new("test");
        let mut app = Doubler {
            n: 20,
            outputs: vec![],
        };
        let exec = app.executor();
        let w1 = spawn_inline_worker(space.clone(), "double", exec.clone(), "w1");
        let w2 = spawn_inline_worker(space.clone(), "double", exec, "w2");
        let master = Master::new(space.clone());
        let report = master.run(&mut app).unwrap();
        w1.join().unwrap();
        w2.join().unwrap();

        assert!(report.complete);
        assert_eq!(report.results_collected, 20);
        assert!(report.failures.is_empty());
        let mut outputs = app.outputs.clone();
        outputs.sort_unstable();
        assert_eq!(outputs, (0..20).map(|i| i * 20).collect::<Vec<_>>());
        assert_eq!(report.times.tasks, 20);
        assert!(report.times.parallel_ms > 0.0);
        assert!(report.times.task_planning_ms >= 0.0);
        assert!(report.times.workers_used() >= 1);
        // The space is drained: no leftover tasks or results.
        assert_eq!(space.len(), 0);
    }

    #[test]
    fn a_duplicated_result_is_absorbed_once() {
        // A resent batch write can leave a result in the space twice. The
        // copy must not count twice, nor stand in for task 2's result.
        let space = Space::new("test");
        let result = |task_id: u64| {
            ResultEntry {
                job: "double".into(),
                task_id,
                worker: "w".into(),
                payload: (task_id * 20).to_bytes(),
                compute_ms: 0.0,
                span_ms: 0.0,
                timing: Default::default(),
                error: None,
            }
            .to_tuple()
        };
        space
            .write_all(vec![result(0), result(0), result(1), result(2)])
            .unwrap();
        let mut app = Doubler {
            n: 3,
            outputs: vec![],
        };
        let mut master = Master::new(space.clone());
        master.result_timeout = Duration::from_secs(5);
        let report = master.run(&mut app).unwrap();
        assert!(report.complete);
        assert_eq!(report.results_collected, 3);
        let mut outputs = app.outputs.clone();
        outputs.sort_unstable();
        assert_eq!(outputs, vec![0, 20, 40]);
        assert_eq!(space.count(&result_template("double")), 0);
    }

    #[test]
    fn missing_worker_times_out_incomplete() {
        let space = Space::new("test");
        let mut app = Doubler {
            n: 3,
            outputs: vec![],
        };
        let mut master = Master::new(space.clone());
        master.result_timeout = Duration::from_millis(50);
        let report = master.run(&mut app).unwrap();
        assert!(!report.complete);
        assert_eq!(report.results_collected, 0);
        // Tasks remain in the space for a future worker.
        assert_eq!(space.count(&task_template("double")), 3);
    }

    impl Doubler {
        fn encode_outputs(&self) -> Vec<u8> {
            self.outputs.iter().flat_map(|v| v.to_le_bytes()).collect()
        }

        fn decode_outputs(bytes: &[u8]) -> Result<Vec<u64>, ExecError> {
            if bytes.len() % 8 != 0 {
                return Err(ExecError::App("bad partials length".into()));
            }
            Ok(bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect())
        }
    }

    /// Like [`spawn_inline_worker`] but stops on the first space error, so
    /// a mid-run close (simulated master crash) doesn't panic the thread.
    fn spawn_tolerant_worker(
        space: SpaceHandle,
        job: &str,
        exec: Arc<dyn TaskExecutor>,
        name: &str,
    ) -> std::thread::JoinHandle<()> {
        let template = task_template(job);
        let job = job.to_owned();
        let name = name.to_owned();
        std::thread::spawn(move || {
            let first = Instant::now();
            while let Ok(Some(tuple)) = space.take(&template, Some(Duration::from_millis(200))) {
                let task = TaskEntry::from_tuple(&tuple).unwrap();
                let t0 = Instant::now();
                let payload = exec.execute(&task).unwrap();
                let result = ResultEntry {
                    job: job.clone(),
                    task_id: task.task_id,
                    worker: name.clone(),
                    payload,
                    compute_ms: ms_since(t0),
                    span_ms: ms_since(first),
                    timing: Default::default(),
                    error: None,
                };
                if space.write(result.to_tuple()).is_err() {
                    break;
                }
            }
        })
    }

    /// Delegates to an inner partials-capable app but closes the space
    /// after `crash_after` absorbed results, simulating the master process
    /// dying mid-aggregation.
    struct CrashAfter {
        inner: DoublerWithPartials,
        crash_after: usize,
        absorbed: usize,
        space: StoreHandle,
    }

    impl Application for CrashAfter {
        fn job_name(&self) -> String {
            self.inner.job_name()
        }
        fn bundle_name(&self) -> String {
            self.inner.bundle_name()
        }
        fn plan(&mut self) -> Vec<TaskSpec> {
            self.inner.plan()
        }
        fn executor(&self) -> Arc<dyn TaskExecutor> {
            self.inner.executor()
        }
        fn absorb(&mut self, task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
            self.inner.absorb(task_id, payload)?;
            self.absorbed += 1;
            if self.absorbed == self.crash_after {
                self.space.close();
            }
            Ok(())
        }
        fn snapshot_partials(&self) -> Option<Vec<u8>> {
            self.inner.snapshot_partials()
        }
        fn restore_partials(&mut self, bytes: &[u8]) -> Result<(), ExecError> {
            self.inner.restore_partials(bytes)
        }
    }

    impl Doubler {
        fn with_partials(n: u64) -> DoublerWithPartials {
            DoublerWithPartials(Doubler { n, outputs: vec![] })
        }
    }

    /// [`Doubler`] plus checkpointable partials (the base test app leaves
    /// the default no-op hooks in place on purpose, to cover that path).
    struct DoublerWithPartials(Doubler);

    impl Application for DoublerWithPartials {
        fn job_name(&self) -> String {
            self.0.job_name()
        }
        fn bundle_name(&self) -> String {
            self.0.bundle_name()
        }
        fn plan(&mut self) -> Vec<TaskSpec> {
            self.0.plan()
        }
        fn executor(&self) -> Arc<dyn TaskExecutor> {
            self.0.executor()
        }
        fn absorb(&mut self, task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
            self.0.absorb(task_id, payload)
        }
        fn snapshot_partials(&self) -> Option<Vec<u8>> {
            Some(self.0.encode_outputs())
        }
        fn restore_partials(&mut self, bytes: &[u8]) -> Result<(), ExecError> {
            self.0.outputs = Doubler::decode_outputs(bytes)?;
            Ok(())
        }
    }

    #[test]
    fn checkpointed_run_completes_and_removes_file() {
        let space = Space::new("test");
        let mut app = Doubler {
            n: 10,
            outputs: vec![],
        };
        let exec = app.executor();
        let w = spawn_inline_worker(space.clone(), "double", exec, "w1");
        let master = Master::new(space.clone());
        let ckpt =
            std::env::temp_dir().join(format!("acc-master-ckpt-done-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&ckpt);
        let report = master.run_with_checkpoint(&mut app, &ckpt, 3).unwrap();
        w.join().unwrap();
        assert!(report.complete);
        assert_eq!(report.results_collected, 10);
        assert!(!ckpt.exists(), "completed run removes its checkpoint");
        let mut outputs = app.outputs.clone();
        outputs.sort_unstable();
        assert_eq!(outputs, (0..10).map(|i| i * 20).collect::<Vec<_>>());
    }

    #[test]
    fn master_resumes_from_checkpoint_after_crash() {
        let dir = std::env::temp_dir().join(format!("acc-master-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = dir.join("master.ckpt");
        let space_dir = dir.join("space");

        // ---- Phase 1: the master "crashes" (space closes) mid-run. ----
        {
            let space =
                Space::durable("m", &space_dir, acc_tuplespace::WalOptions::default()).unwrap();
            let mut app = CrashAfter {
                inner: Doubler::with_partials(20),
                crash_after: 7,
                absorbed: 0,
                space: space.clone(),
            };
            let exec = app.executor();
            let workers: Vec<_> = (0..2)
                .map(|i| {
                    spawn_tolerant_worker(space.clone(), "double", exec.clone(), &format!("w{i}"))
                })
                .collect();
            let master = Master::new(space.clone());
            let err = master.run_with_checkpoint(&mut app, &ckpt, 1).unwrap_err();
            assert_eq!(err, SpaceError::Closed);
            for w in workers {
                w.join().unwrap();
            }
            let state = crate::checkpoint::CheckpointState::load(&ckpt)
                .unwrap()
                .expect("crash leaves a checkpoint behind");
            assert_eq!(state.total, 20);
            assert!(state.completed.len() >= 7, "every=1 persists each result");
            assert!(
                !state.app_state.is_empty(),
                "the checkpoint carries the absorbed partial outputs"
            );
        }

        // ---- Phase 2: a fresh master resumes from the checkpoint. ----
        let space = Space::recover(&space_dir).unwrap();
        let mut app = Doubler::with_partials(20);
        let exec = app.executor();
        let workers: Vec<_> = (0..2)
            .map(|i| spawn_tolerant_worker(space.clone(), "double", exec.clone(), &format!("w{i}")))
            .collect();
        let master = Master::new(space.clone());
        let report = master.run_with_checkpoint(&mut app, &ckpt, 1).unwrap();
        for w in workers {
            w.join().unwrap();
        }
        assert!(report.complete, "resumed run must finish the job");
        let mut outputs = app.0.outputs.clone();
        outputs.sort_unstable();
        assert_eq!(
            outputs,
            (0..20).map(|i| i * 20).collect::<Vec<_>>(),
            "combined result must equal an uninterrupted run — no missing, \
             no double-absorbed tasks"
        );
        assert!(!ckpt.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aggregation_tracks_worker_spans() {
        let space = Space::new("test");
        // Hand-write two results with known spans before running aggregation.
        let mut app = Doubler {
            n: 2,
            outputs: vec![],
        };
        let master = Master::new(space.clone());
        // Pre-seed results; plan() writes tasks but the workers "already ran".
        for (id, span) in [(0u64, 120.0f64), (1, 80.0)] {
            let r = ResultEntry {
                job: "double".into(),
                task_id: id,
                worker: format!("w{id}"),
                payload: (id * 7).to_bytes(),
                compute_ms: span / 2.0,
                span_ms: span,
                timing: Default::default(),
                error: None,
            };
            space.write(r.to_tuple()).unwrap();
        }
        let report = master.run(&mut app).unwrap();
        assert!(report.complete);
        assert_eq!(report.times.max_worker_ms, 120.0);
        assert_eq!(report.times.per_worker_ms["w0"], 120.0);
        assert_eq!(report.times.per_worker_ms["w1"], 80.0);
    }
}
