//! Per-layer measurements for the traced run.
//!
//! A workload sets the layer metrics it exercises itself; [`layers`] then
//! fills in every other one with a probe of that layer on inputs generated
//! from the same seed, so each traced run reports the full per-layer set.
//! Every probe calls the layer's public API from outside.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_spaces::durability::Wal;
use adaptive_spaces::federation::{Attributes, DiscoveryBus, LookupService, Registrar, ServiceItem};
use adaptive_spaces::framework::task_template;
use adaptive_spaces::snmp::{host_resources_mib, oids, transport::InProcTransport, Agent, Manager};
use adaptive_spaces::space::{Payload, RemoteSpace, Space, SpaceServer, Template, Tuple, TupleStore, WalOptions};
use adaptive_spaces::spacegrid::PartitionedSpace;
use adaptive_spaces::telemetry::registry;

use crate::ops::{self, Checker, Class, Gen};
use crate::stats::median;
use crate::trace::{durations_ns, Tracer};
use crate::{jobs, Args, Outcome};

/// Registry counters the layer ratios are computed from.
const COUNTERS: [&str; 9] = [
    "remote.buffer_reuse_hits",
    "remote.buffer_reuse_misses",
    "server.pipeline_saturated",
    "grid.restored_tuples",
    "grid.lost_tuples",
    "space.take.count",
    "monitor.samples",
    "wal.append.count",
    "wal.fsync.count",
];

/// Current value of a process-wide counter.
pub fn counter(name: &'static str) -> f64 {
    registry().counter(name).get() as f64
}

/// A snapshot of [`COUNTERS`], for deltas over a phase.
pub struct Counters(Vec<f64>);

impl Counters {
    pub fn now() -> Counters {
        Counters(COUNTERS.iter().map(|n| counter(n)).collect())
    }

    pub fn since(&self) -> Counters {
        Counters(COUNTERS.iter().zip(&self.0).map(|(n, before)| counter(n) - before).collect())
    }

    pub fn get(&self, name: &str) -> f64 {
        let i = COUNTERS.iter().position(|n| *n == name).expect("a tracked counter");
        self.0[i]
    }
}

pub fn remote_counters(delta: &Counters, out: &mut Outcome) {
    let hits = delta.get("remote.buffer_reuse_hits");
    let total = hits + delta.get("remote.buffer_reuse_misses");
    out.set("remote.buffer_reuse_ratio", hits / total.max(1.0));
    out.set("server.pipeline_saturated", delta.get("server.pipeline_saturated"));
}

fn grid_counters(delta: &Counters, out: &mut Outcome) {
    let taken = delta.get("space.take.count").max(1.0);
    out.set("grid.take_useful_ratio", 1.0 - delta.get("grid.restored_tuples") / taken);
    out.set("grid.lost_tuples", delta.get("grid.lost_tuples"));
}

/// Median seconds per call of `f` over `reps` timed batches of `batch`.
fn per_call(reps: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for i in 0..batch {
                f(i);
            }
            start.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&samples)
}

/// Encode/decode cost of the workload's task tuples; returns the ns to
/// encode and decode one of its templates.
fn codec(gen_tuples: &[Tuple], gen: &Gen, out: &mut Outcome) -> f64 {
    let tuples = &gen_tuples[..2_000];
    let frames: Vec<Vec<u8>> = tuples.iter().map(Payload::to_bytes).collect();
    let encode = per_call(7, tuples.len(), |i| drop(black_box(tuples[i].to_bytes())));
    let decode = per_call(7, frames.len(), |i| drop(black_box(Tuple::from_bytes(&frames[i]))));
    out.set("codec.encode_ns", encode * 1e9);
    out.set("codec.decode_ns", decode * 1e9);
    let bytes: usize = frames.iter().map(Vec::len).sum();
    out.set("codec.frame_bytes", bytes as f64 / frames.len() as f64);
    let templates: Vec<Vec<u8>> = gen.templates.iter().map(Payload::to_bytes).collect();
    let t_enc = per_call(7, 5_000, |i| drop(black_box(gen.templates[i % ops::KEYS].to_bytes())));
    let t_dec = per_call(7, 5_000, |i| {
        drop(black_box(Template::from_bytes(&templates[i % ops::KEYS])))
    });
    (t_enc + t_dec) * 1e9
}

/// Client-observed round trips of the op mix, closed loop, on a fresh
/// server: for workloads whose own traffic is not single ops.
fn remote_mix(seed: u64, out: &mut Outcome) {
    let space = Space::new("perfbench-probe");
    let Ok(server) = SpaceServer::spawn(space, "127.0.0.1:0") else {
        return out.check(false, || "remote probe: bind failed".into());
    };
    let Ok(remote) = RemoteSpace::connect(server.addr()) else {
        return out.check(false, || "remote probe: connect failed".into());
    };
    let mut gen = Gen::new(seed);
    let _ = remote.write_all(gen.resident());
    let mut chk = Checker::new(&gen, ops::RESIDENT);
    let mut quiet = Tracer::new(false);
    for op in gen.plan(2_000) {
        chk.apply(&remote, op, &mut quiet, out);
    }
    let mut tracer = Tracer::new(true);
    for op in gen.plan(20_000) {
        chk.apply(&remote, op, &mut tracer, out);
    }
    chk.check_count(&remote, out);
    let class_us = |c: Class| median(&durations_ns(tracer.spans(), c.span_name())) / 1e3;
    out.set("remote.write_us", class_us(Class::Write));
    out.set("remote.take_us", class_us(Class::Take));
    out.set("remote.read_us", class_us(Class::Read));
    out.set("remote.take_up_to_us", class_us(Class::TakeUpTo));
}

/// Appends journal-sized records to a `Wal` under the default policy.
fn wal(args: &Args, record: &[u8], out: &mut Outcome) {
    let dir = args.work.join(format!("wal-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = match Wal::open(&dir, WalOptions::default()) {
        Ok(w) => w,
        Err(e) => return out.check(false, || format!("wal probe: {e}")),
    };
    let before = Counters::now();
    let appends: Vec<f64> = (0..2_048)
        .map(|_| {
            let start = Instant::now();
            let _ = wal.append(record);
            start.elapsed().as_secs_f64()
        })
        .collect();
    let delta = before.since();
    let syncs: Vec<f64> = (0..32)
        .map(|_| {
            let _ = wal.append(record);
            let start = Instant::now();
            let _ = wal.sync();
            start.elapsed().as_secs_f64()
        })
        .collect();
    out.set("wal.append_us", median(&appends) * 1e6);
    out.set("wal.sync_us", median(&syncs) * 1e6);
    out.set("wal.syncs_per_op", delta.get("wal.fsync.count") / delta.get("wal.append.count").max(1.0));
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes to a durable space, for comparison with `space.write_ns`.
fn durable(args: &Args, tuples: &[Tuple], out: &mut Outcome) {
    let dir = args.work.join(format!("durable-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let space = match Space::durable("perfbench-durable", &dir, WalOptions::default()) {
        Ok(s) => s,
        Err(e) => return out.check(false, || format!("durable probe: {e}")),
    };
    let samples: Vec<f64> = tuples[..2_048]
        .iter()
        .map(|t| {
            let start = Instant::now();
            let _ = space.write(t.clone());
            start.elapsed().as_secs_f64()
        })
        .collect();
    out.set("durable.write_us", median(&samples) * 1e6);
    space.close();
    drop(space);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes task tuples through a grid and takes each back by its job key,
/// as the framework does: per-op latency and shard ops per take.
fn grid_ops(grid: &PartitionedSpace, seed: u64, out: &mut Outcome) {
    let mut gen = Gen::new(seed ^ 0x6772_6964);
    let tuples: Vec<Tuple> = gen.resident().into_iter().take(500).collect();
    let mut writes = Vec::new();
    for t in &tuples {
        let start = Instant::now();
        let ok = grid.write(t.clone()).is_ok();
        writes.push(start.elapsed().as_secs_f64());
        out.check(ok, || "grid write failed".into());
    }
    let before = grid.fanout_profile();
    let mut takes = Vec::new();
    for t in &tuples {
        let template = task_template(t.get_str("job").unwrap_or_default());
        let start = Instant::now();
        let got = grid.take(&template, Some(Duration::from_secs(5)));
        takes.push(start.elapsed().as_secs_f64());
        out.check(matches!(got, Ok(Some(_))), || "grid take missed a written tuple".into());
    }
    let shard_ops: u64 = grid.fanout_since(&before).iter().map(|s| s.ops).sum();
    out.set("grid.write_us", median(&writes) * 1e6);
    out.set("grid.take_us", median(&takes) * 1e6);
    out.set("grid.shard_ops_per_take", shard_ops as f64 / tuples.len() as f64);
}

/// A two-shard in-memory grid; the grid's lost-tuple counter must not rise.
fn grid_probe(seed: u64, out: &mut Outcome) {
    let servers: Vec<SpaceServer> = (0..2)
        .filter_map(|i| SpaceServer::spawn(Space::new(format!("probe-shard-{i}")), "127.0.0.1:0").ok())
        .collect();
    let addrs: Vec<_> = servers.iter().map(SpaceServer::addr).collect();
    let grid = match PartitionedSpace::connect(&addrs) {
        Ok(g) if servers.len() == 2 => g,
        _ => return out.check(false, || "grid probe: shards unreachable".into()),
    };
    let before = Counters::now();
    grid_ops(&grid, seed, out);
    grid_counters(&before.since(), out);
    let lost = out.metrics["grid.lost_tuples"];
    out.check(lost == 0.0, || format!("grid.lost_tuples rose by {lost}"));
    grid.close();
}

/// One lookup of the space service by name and attributes, as
/// `AdaptiveCluster::find_space` makes it.
fn federation(out: &mut Outcome) {
    let bus = DiscoveryBus::new();
    let lookup = LookupService::new("lus-0");
    bus.announce(lookup.clone());
    let attrs = Attributes::build().set("kind", "tuple-space").done();
    let space = Space::new("JavaSpaces");
    let _registrar = Registrar::join(&bus, ServiceItem::new("JavaSpaces", attrs.clone(), space), None);
    let found = per_call(7, 2_000, |_| {
        let item = lookup.lookup_named("JavaSpaces", &attrs);
        drop(black_box(item.first().and_then(|i| i.proxy::<Space>())));
    });
    out.check(!lookup.lookup_named("JavaSpaces", &attrs).is_empty(), || "federation lookup found nothing".into());
    out.set("federation.lookup_us", found * 1e6);
}

/// One monitor poll: the two gauges the monitoring agent reads per worker.
fn snmp(out: &mut Outcome) {
    let mut mib = host_resources_mib("probe".into(), 256 * 1024, || 12, || 100_000, || 42);
    mib.register_gauge(oids::acc_framework_load(), || 3);
    let agent = Arc::new(Agent::new("public", mib));
    let session = Manager::new("public").session(Box::new(InProcTransport::new(agent)));
    let wanted = [oids::hr_processor_load_1(), oids::acc_framework_load()];
    out.check(session.get_many(&wanted).is_ok(), || "snmp poll failed".into());
    let poll = per_call(7, 2_000, |_| drop(black_box(session.get_many(&wanted))));
    out.set("snmp.poll_us", poll * 1e6);
}

/// Fills every per-layer metric the workload did not measure itself.
pub fn layers(args: &Args, out: &mut Outcome) {
    let (w, t, r, hit) = ops::replay_local(args.seed, 30_000);
    out.set("space.write_ns", w);
    out.set("space.take_ns", t);
    out.set("space.read_ns", r);
    out.set("space.index_hit_ratio", hit);

    let mut gen = Gen::new(args.seed);
    let tuples = gen.resident();
    let template_ns = codec(&tuples, &gen, out);
    out.note("codec.template_ns", template_ns);

    if !out.metrics.contains_key("remote.take_us") {
        let before = Counters::now();
        remote_mix(args.seed, out);
        if !out.metrics.contains_key("remote.buffer_reuse_ratio") {
            remote_counters(&before.since(), out);
        }
    }
    // Round trip minus codec (request and reply) minus the space op.
    let m = &out.metrics;
    let tuple_codec_us = (m["codec.encode_ns"] + m["codec.decode_ns"]) / 1e3;
    let template_codec_us = template_ns / 1e3;
    let unattributed = [
        m["remote.write_us"] - tuple_codec_us - m["space.write_ns"] / 1e3,
        m["remote.take_us"] - tuple_codec_us - template_codec_us - m["space.take_ns"] / 1e3,
        m["remote.read_us"] - tuple_codec_us - template_codec_us - m["space.read_ns"] / 1e3,
    ];
    // Weighted by the mix: 35% write, 35% take, 20% read.
    let weighted = (0.35 * unattributed[0] + 0.35 * unattributed[1] + 0.20 * unattributed[2]) / 0.9;
    out.set("remote.unattributed_us", weighted);

    let record = tuples[0].to_bytes();
    wal(args, &record, out);
    durable(args, &tuples, out);
    grid_probe(args.seed, out);
    if !out.metrics.contains_key("master.dispatch_us") {
        jobs::probe_core(args, out);
    }
    federation(out);
    snmp(out);
    jobs::probe_apps(args.seed, out);
}
