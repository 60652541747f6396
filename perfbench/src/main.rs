//! The repository benchmark: one workload per run, generated from a seed,
//! checked, and reported as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ops_remote --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run and writes its
//! spans under `.perfbench/`. Every run also prints a ledger record (seed,
//! revision, host) and appends it to `.perfbench/ledger.jsonl`. The last
//! line of standard output is always the result object; the exit code is
//! non-zero when any output check failed. See `perfbench/README.md` for
//! the workloads and the layer-to-metric map.

mod host;
mod jobs;
mod openloop;
mod ops;
mod probes;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("space.write_ns", "ns"),
    ("space.take_ns", "ns"),
    ("space.read_ns", "ns"),
    ("space.index_hit_ratio", "ratio"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.frame_bytes", "bytes"),
    ("remote.write_us", "us"),
    ("remote.take_us", "us"),
    ("remote.read_us", "us"),
    ("remote.take_up_to_us", "us"),
    ("remote.unattributed_us", "us"),
    ("remote.buffer_reuse_ratio", "ratio"),
    ("server.pipeline_saturated", "count"),
    ("gen.late_p99_us", "us"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("wal.syncs_per_op", "ratio"),
    ("durable.write_us", "us"),
    ("grid.write_us", "us"),
    ("grid.take_us", "us"),
    ("grid.shard_ops_per_take", "ratio"),
    ("grid.take_useful_ratio", "ratio"),
    ("grid.lost_tuples", "count"),
    ("master.dispatch_us", "us"),
    ("master.aggregation_us", "us"),
    ("master.max_overhead_ms", "ms"),
    ("worker.wait_us", "us"),
    ("worker.xfer_us", "us"),
    ("worker.compute_us", "us"),
    ("worker.write_us", "us"),
    ("worker.util", "ratio"),
    ("job.verdict.space_share", "ratio"),
    ("job.verdict.compute_share", "ratio"),
    ("job.verdict.dispatch_share", "ratio"),
    ("job.verdict.straggler_share", "ratio"),
    ("federation.lookup_us", "us"),
    ("snmp.poll_us", "us"),
    ("monitor.polls_per_s", "1/s"),
    ("apps.raytrace.strip_ms", "ms"),
    ("apps.pagerank.strip_us", "us"),
    ("apps.pricing.task_us", "us"),
    ("setup.cluster_build_ms", "ms"),
    ("setup.worker_start_ms", "ms"),
    ("setup.seed_ms", "ms"),
    ("telemetry.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.job_coverage_min", "ratio"),
    ("trace.job_coverage_max", "ratio"),
];

/// The workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["ops_remote", "prefetch_remote", "raytrace_remote"];

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout (WAL probes, spans, ledger).
    pub work: PathBuf,
}

/// Everything a workload reports back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations or jobs attempted, plus output checks made.
    pub attempted: u64,
    /// Failed operations, incomplete jobs and failed checks.
    pub failed: u64,
    /// One line per failure, for the log.
    pub violations: Vec<String>,
    /// Metric name to value (end-to-end or per-layer, by run mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific figures for the ledger record (design-level names
    /// such as `op_p99_us`, the tail percentile, the WAL policy).
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    /// Records one check; a false `ok` counts as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure of something already counted as attempted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_string(), value.to_string());
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
        work: PathBuf::from(".perfbench"),
    }
}

/// JSON number: finite values with every digit, anything else as null.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(outcome.metrics[name]),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn ledger_record(
    args: &Args,
    (nproc, cpu, kernel): &(usize, String, String),
    outcome: &Outcome,
    names: &[(&str, &str)],
    correct: bool,
) -> String {
    let root = Path::new(".");
    let rev = host::git_revision(root).unwrap_or_else(|| "unknown".into());
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let violations: Vec<String> = outcome.violations.iter().map(|v| json_str(v)).collect();
    format!(
        "{{\"record\": \"perfbench\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": {}, \"source_digest\": {}, \"host\": {{\"nproc\": {}, \"cpu\": {}, \"kernel\": {}}}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failed_frac\": {}, \"violations\": [{}], \
         \"notes\": {{{}}}, \"metrics\": {}}}",
        json_str(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace,
        json_str(&rev),
        json_str(&host::source_digest(root)),
        nproc,
        json_str(cpu),
        json_str(kernel),
        correct,
        outcome.attempted,
        outcome.failed,
        num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        violations.join(", "),
        notes.join(", "),
        metrics_json(outcome, names),
    )
}

fn main() {
    let args = parse_args();
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("cannot create {}: {e}", args.work.display());
        std::process::exit(1);
    }
    // A panicking cluster thread dumps its flight recorder here, inside
    // the checkout.
    adaptive_spaces::telemetry::flight::set_dump_dir(&args.work);
    // Before any workload narrows this thread's CPU set.
    let fingerprint = host::fingerprint();
    let (steal_before, started) = (host::steal_s(), std::time::Instant::now());
    let mut tracer = trace::Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "ops_remote" => ops::run(&args, &mut tracer),
        "prefetch_remote" => jobs::run(&args, jobs::Kind::Prefetch, &mut tracer),
        "raytrace_remote" => jobs::run(&args, jobs::Kind::RayTrace, &mut tracer),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    // Time stolen by other guests, as a share of this run's CPU capacity:
    // a noisy-neighbour figure for reading the run's numbers.
    let capacity_s = started.elapsed().as_secs_f64() * fingerprint.0 as f64;
    outcome.note("host_steal_pct", (host::steal_s() - steal_before) / capacity_s * 100.0);
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        outcome.set("trace.spans", tracer.spans().len() as f64);
        let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
        for (span, ns) in tracer.spans().iter().zip(trace::self_times_ns(tracer.spans())) {
            *self_ms.entry(span.name).or_default() += ns as f64 / 1e6;
        }
        for (name, ms) in self_ms {
            outcome.note(&format!("self_ms.{name}"), ms);
        }
        let path = args.work.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::File::create(&path).and_then(|mut f| tracer.write_jsonl(&mut f)) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    } else {
        outcome.set("peak_rss_mb", host::peak_rss_mb());
    }
    for (name, _) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            outcome.attempted += 1;
            outcome.fail(format!("metric {name} was not measured"));
            outcome.set(name, f64::NAN);
        }
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    for v in &outcome.violations {
        eprintln!("check failed: {v}");
    }
    let record = ledger_record(&args, &fingerprint, &outcome, names, correct);
    if let Ok(mut ledger) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.work.join("ledger.jsonl"))
    {
        let _ = writeln!(ledger, "{record}");
    }
    for (name, unit) in names {
        println!("{name:<28} {:>14} {unit}", num(outcome.metrics[name]));
    }
    println!("{record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome, names)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
