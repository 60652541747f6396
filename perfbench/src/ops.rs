//! `ops_remote`: an open-loop mix of single tuple ops over one connection
//! to an in-memory `SpaceServer` holding a resident set of task tuples.
//!
//! The op sequence comes from [`Gen`], which keeps an exact model of how
//! many tuples each job key holds. Because one connection applies the ops
//! in order, the model predicts every outcome: takes and reads always
//! target a non-empty key, `take_up_to` returns exactly `min(4, held)`,
//! and whenever takes have drained the resident set by a refill batch the
//! generator schedules a `write_all` of one, as a master would.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adaptive_spaces::apps::SplitMix64;
use adaptive_spaces::framework::{task_template, TaskEntry};
use adaptive_spaces::space::{RemoteSpace, Space, SpaceServer, Template, Tuple, TupleStore};

use crate::openloop::{self, WallClock};
use crate::stats::{median, percentile, windowed_tail, TAIL_WINDOW};
use crate::trace::{durations_ns, Tracer};
use crate::host::CpuSet;
use crate::{probes, Args, Outcome};

/// Task tuples the server holds when measurement starts.
pub const RESIDENT: usize = 10_000;
/// Distinct job keys.
pub const KEYS: usize = 64;
/// Batch size of `take_up_to` (the worker prefetch size).
pub const PREFETCH: usize = 4;
/// Tuples per refill batch: small, so a refill delays the ops queued
/// behind it by about one op.
const BATCH: usize = 8;
/// Tuples per seeding `write_all` (the master's dispatch chunk).
const SEED_CHUNK: usize = 256;
/// Offered rate of the latency phase, ops/s: under half of what the rate
/// ladder sustains on a quiet 2-core host (about 25k ops/s), leaving room
/// for CPU time stolen by neighbours on a shared host before a backlog
/// builds.
pub const NOMINAL_RATE: f64 = 10_000.0;
/// Rate ladder for `max_rate`: rungs rise by 10% from 8k ops/s.
const LADDER_START: f64 = 8_000.0;
const LADDER_FACTOR: f64 = 1.1;
const LADDER_RUNGS: i32 = 22;
/// Seconds of run per pass up the ladder (at least three passes);
/// `max_rate` is the median pass.
const SECONDS_PER_PASS: f64 = 4.0;
/// Ops offered per ladder rung (ten tail windows).
const STEP_OPS: f64 = 1_000.0;
/// Latency limit of the ladder, applied to each step's tail (the median
/// p90 of its 100-op windows). Quiet, the tail is about 50 µs up to
/// saturation and milliseconds beyond it; under a few percent of stolen
/// CPU it reaches a few hundred µs at any rate. 1 ms lets the ladder find
/// saturation rather than the neighbours.
pub const LIMIT_US: f64 = 1_000.0;
/// Share of the run given to the latency phase.
const NOMINAL_SHARE: f64 = 0.5;
/// Share of the run given to the closed-loop phase; the ladder gets the
/// rest.
const CLOSED_SHARE: f64 = 0.25;
/// Ops per timed closed-loop chunk: short enough (a few ms) that the
/// median chunk misses a stall that a whole chunk's mean would carry.
const CHUNK_OPS: usize = 100;
/// Set-ups per run; `setup_s` is their median. The first ones run before
/// measuring (the last of them is measured), the other
/// [`SETUP_REPS_AFTER`] after it, so one burst of host noise cannot move
/// them all.
const SETUP_REPS: usize = 9;
const SETUP_REPS_AFTER: usize = 4;
/// Ops per block of a traced run; blocks alternate traced and untraced.
const TRACE_BLOCK: f64 = 1_000.0;
/// Untimed ops before measuring.
const WARMUP_OPS: usize = 3_000;

/// Op classes of the mix, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Write,
    Take,
    Read,
    TakeUpTo,
    Refill,
}

impl Class {
    pub fn span_name(self) -> &'static str {
        match self {
            Class::Write => "remote.write",
            Class::Take => "remote.take",
            Class::Read => "remote.read",
            Class::TakeUpTo => "remote.take_up_to",
            Class::Refill => "remote.write_all",
        }
    }
}

/// One generated op. Key indices point into [`Gen::keys`].
#[derive(Debug, Clone)]
pub enum Op {
    Write(Tuple),
    Take(usize),
    Read(usize),
    /// Key and the number of tuples the model expects back.
    TakeUpTo(usize, usize),
    Refill(Vec<Tuple>),
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Write(_) => Class::Write,
            Op::Take(_) => Class::Take,
            Op::Read(_) => Class::Read,
            Op::TakeUpTo(..) => Class::TakeUpTo,
            Op::Refill(_) => Class::Refill,
        }
    }
}

/// Seeded generator of task tuples and of the op sequence.
pub struct Gen {
    rng: SplitMix64,
    pub keys: Vec<String>,
    pub templates: Vec<Template>,
    counts: Vec<usize>,
    total: usize,
    next_id: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Gen {
        let mut rng = SplitMix64::new(seed ^ 0x6f70_735f_7265_6d6f);
        let keys: Vec<String> = (0..KEYS).map(|_| format!("job-{:016x}", rng.next_u64())).collect();
        let templates = keys.iter().map(|k| task_template(k)).collect();
        Gen {
            rng,
            keys,
            templates,
            counts: vec![0; KEYS],
            total: 0,
            next_id: 0,
        }
    }

    /// Tuples the model currently places in the space.
    #[cfg(test)]
    pub fn total(&self) -> usize {
        self.total
    }

    /// A fresh task tuple under `key`, with a 64–192 byte seeded payload.
    fn task(&mut self, key: usize) -> Tuple {
        let len = 64 + self.rng.next_below(129) as usize;
        let mut payload = Vec::with_capacity(len + 8);
        while payload.len() < len {
            payload.extend_from_slice(&self.rng.next_u64().to_le_bytes());
        }
        payload.truncate(len);
        self.next_id += 1;
        self.counts[key] += 1;
        self.total += 1;
        TaskEntry::new(self.keys[key].as_str(), self.next_id, payload).to_tuple()
    }

    fn random_key(&mut self) -> usize {
        self.rng.next_below(KEYS as u64) as usize
    }

    fn nonempty_key(&mut self) -> usize {
        loop {
            let k = self.random_key();
            if self.counts[k] > 0 {
                return k;
            }
        }
    }

    fn tasks(&mut self, n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|_| {
                let k = self.random_key();
                self.task(k)
            })
            .collect()
    }

    /// The resident set, spread uniformly at random over the keys.
    pub fn resident(&mut self) -> Vec<Tuple> {
        self.tasks(RESIDENT)
    }

    /// The next op: 35% write, 35% take, 20% read, 10% `take_up_to(4)`,
    /// or a refill batch when the resident set has run a batch short.
    pub fn next_op(&mut self) -> Op {
        if self.total + BATCH <= RESIDENT {
            return Op::Refill(self.tasks(BATCH));
        }
        let roll = self.rng.next_below(100);
        if roll < 35 {
            let k = self.random_key();
            return Op::Write(self.task(k));
        }
        let k = self.nonempty_key();
        if roll < 55 {
            return Op::Read(k);
        }
        if roll < 90 {
            self.counts[k] -= 1;
            self.total -= 1;
            return Op::Take(k);
        }
        let n = self.counts[k].min(PREFETCH);
        self.counts[k] -= n;
        self.total -= n;
        Op::TakeUpTo(k, n)
    }

    pub fn plan(&mut self, n: usize) -> Vec<Op> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

/// Checks every result against the generator's model.
pub struct Checker {
    keys: Vec<String>,
    templates: Vec<Template>,
    /// One bit per task id, set when the id is taken. The generator hands
    /// out ids in sequence from 1, so this costs a bit per op rather than
    /// a set entry per take, and the run's peak RSS stays the server's.
    taken_ids: Vec<u64>,
    pub seeded: usize,
    pub written: usize,
    pub taken: usize,
}

impl Checker {
    pub fn new(gen: &Gen, seeded: usize) -> Checker {
        Checker {
            keys: gen.keys.clone(),
            templates: gen.templates.clone(),
            taken_ids: Vec::new(),
            seeded,
            written: 0,
            taken: 0,
        }
    }

    fn tuple_ok(&self, t: &Tuple, key: usize) -> bool {
        t.get_str("job") == Some(self.keys[key].as_str()) && t.get_int("task_id").is_some()
    }

    /// Marks `id` taken; false when it was taken before or is no id
    /// written so far (ids run from 1 to seeded + written).
    fn mark_taken(&mut self, id: i64) -> bool {
        if id < 1 || id as usize > self.seeded + self.written {
            return false;
        }
        let (word, bit) = (id as usize / 64, 1u64 << (id % 64));
        if word >= self.taken_ids.len() {
            self.taken_ids.resize(word + 1, 0);
        }
        let fresh = self.taken_ids[word] & bit == 0;
        self.taken_ids[word] |= bit;
        fresh
    }

    fn took(&mut self, t: &Tuple, key: usize, out: &mut Outcome) {
        self.taken += 1;
        let id = t.get_int("task_id").unwrap_or(-1);
        if !self.tuple_ok(t, key) {
            out.fail(format!("take on key {key} returned a foreign tuple"));
        } else if !self.mark_taken(id) {
            out.fail(format!("task id {id} taken twice or never written"));
        }
    }

    /// Applies one op to `store`, timing it in a span, and checks it.
    pub fn apply(&mut self, store: &dyn TupleStore, op: Op, tracer: &mut Tracer, out: &mut Outcome) {
        out.attempted += 1;
        let class = op.class();
        if tracer.enabled() {
            tracer.new_trace();
        }
        match op {
            Op::Write(t) => match tracer.span(class.span_name(), || store.write(t)) {
                Ok(_) => self.written += 1,
                Err(e) => out.fail(format!("write failed: {e}")),
            },
            Op::Refill(batch) => {
                let n = batch.len();
                match tracer.span(class.span_name(), || store.write_all(batch)) {
                    Ok(_) => self.written += n,
                    Err(e) => out.fail(format!("write_all failed: {e}")),
                }
            }
            Op::Take(k) => {
                match tracer.span(class.span_name(), || store.take_if_exists(&self.templates[k])) {
                    Ok(Some(t)) => self.took(&t, k, out),
                    Ok(None) => out.fail(format!("take on non-empty key {k} missed")),
                    Err(e) => out.fail(format!("take failed: {e}")),
                }
            }
            Op::Read(k) => {
                match tracer.span(class.span_name(), || store.read_if_exists(&self.templates[k])) {
                    Ok(Some(t)) if self.tuple_ok(&t, k) => {}
                    Ok(Some(_)) => out.fail(format!("read on key {k} returned a foreign tuple")),
                    Ok(None) => out.fail(format!("read on non-empty key {k} missed")),
                    Err(e) => out.fail(format!("read failed: {e}")),
                }
            }
            Op::TakeUpTo(k, expect) => {
                let got = tracer.span(class.span_name(), || {
                    store.take_up_to(&self.templates[k], PREFETCH, Some(Duration::ZERO))
                });
                match got {
                    Ok(ts) => {
                        if ts.len() != expect {
                            out.fail(format!("take_up_to on key {k}: {} tuples, model says {expect}", ts.len()));
                        }
                        for t in &ts {
                            self.took(t, k, out);
                        }
                    }
                    Err(e) => out.fail(format!("take_up_to failed: {e}")),
                }
            }
        }
    }

    /// Final conservation check: the space holds seeded + written − taken.
    pub fn check_count(&self, store: &dyn TupleStore, out: &mut Outcome) {
        let expect = self.seeded + self.written - self.taken;
        match store.count(&Template::of_type("acc.task")) {
            Ok(n) => out.check(n == expect, || format!("final count {n}, expected {expect}")),
            Err(e) => out.check(false, || format!("final count failed: {e}")),
        }
    }
}

struct Rig {
    _server: SpaceServer,
    remote: RemoteSpace,
    gen: Gen,
    pinned: bool,
}

/// Starts a server, connects, and loads the resident set. Returns the rig
/// and the seeding time in seconds.
fn set_up(seed: u64) -> std::io::Result<(Rig, f64, f64)> {
    let mut gen = Gen::new(seed);
    let resident = gen.resident();
    let start = Instant::now();
    // Fixed placement, the same on every run: the server's threads (spawned
    // from here, or from its accept thread) on CPU 1, the generator on CPU 0.
    let pinned = CpuSet::one(1).apply();
    let space: Arc<Space> = Space::new("perfbench");
    let server = SpaceServer::spawn(space, "127.0.0.1:0")?;
    let remote = RemoteSpace::connect(server.addr())?;
    let pinned = pinned && CpuSet::one(0).apply();
    let seed_start = Instant::now();
    for chunk in resident.chunks(SEED_CHUNK) {
        remote
            .write_all(chunk.to_vec())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
    }
    let seed_s = seed_start.elapsed().as_secs_f64();
    let rig = Rig {
        _server: server,
        remote,
        gen,
        pinned,
    };
    Ok((rig, start.elapsed().as_secs_f64(), seed_s))
}

fn open_loop(
    rig: &mut Rig,
    chk: &mut Checker,
    rate: f64,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> openloop::Phase {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut classes = Vec::with_capacity(n);
    let (gen, remote) = (&mut rig.gen, &rig.remote);
    let prepare = |_| {
        let op = gen.next_op();
        classes.push(op.class());
        op
    };
    let mut phase = openloop::run(&mut WallClock::new(), rate, n, prepare, |op| {
        chk.apply(remote, op, tracer, out)
    });
    // Refill batches hold their slot in the schedule but are not part of
    // the measured single-op mix.
    let keep: Vec<bool> = classes.iter().map(|c| *c != Class::Refill).collect();
    let mut k = keep.iter();
    phase.latency_ns.retain(|_| *k.next().unwrap());
    phase
}

/// One pass up the rate ladder, stopping at the first failing step.
/// Returns the achieved rate of the highest passing step (0 when none
/// passed) and the steps offered.
fn ladder_pass(rig: &mut Rig, chk: &mut Checker, out: &mut Outcome) -> (f64, Vec<openloop::Step>) {
    let mut quiet = Tracer::new(false);
    let mut steps = Vec::new();
    let mut achieved = Vec::new();
    for rung in 0..LADDER_RUNGS {
        let rate = (LADDER_START * LADDER_FACTOR.powi(rung)).round();
        let phase = open_loop(rig, chk, rate, STEP_OPS / rate, &mut quiet, out);
        let step = openloop::Step {
            rate,
            tail_ns: windowed_tail(&phase.latency_ns).map_or(f64::INFINITY, |(t, _)| t),
            late_ns: median(&phase.late_ns),
        };
        steps.push(step);
        achieved.push(phase.achieved_rate());
        if !openloop::step_passes(&step, LIMIT_US * 1e3) {
            break;
        }
    }
    let top = openloop::ladder_top(&steps, LIMIT_US * 1e3).map_or(0.0, |i| achieved[i]);
    (top, steps)
}

/// `n` set-ups, one after another, each timed into `setups` (total) and
/// `seeds` (loading the resident set). Returns the last rig.
fn set_up_reps(seed: u64, n: usize, setups: &mut Vec<f64>, seeds: &mut Vec<f64>) -> std::io::Result<Rig> {
    let mut rig = None;
    for _ in 0..n {
        drop(rig.take());
        let (r, setup_s, seed_s) = set_up(seed)?;
        setups.push(setup_s);
        seeds.push(seed_s);
        rig = Some(r);
    }
    Ok(rig.expect("at least one set-up"))
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let all_cpus = CpuSet::current();
    let mut out = Outcome::default();
    let (mut setups, mut seeds) = (Vec::new(), Vec::new());
    let mut rig = match set_up_reps(args.seed, SETUP_REPS - SETUP_REPS_AFTER, &mut setups, &mut seeds) {
        Ok(rig) => rig,
        Err(e) => {
            out.check(false, || format!("set-up failed: {e}"));
            return out;
        }
    };
    let mut chk = Checker::new(&rig.gen, RESIDENT);
    let mut quiet = Tracer::new(false);
    for op in rig.gen.plan(WARMUP_OPS) {
        chk.apply(&rig.remote, op, &mut quiet, &mut out);
    }
    out.note("nominal_rate_ops_s", NOMINAL_RATE);
    out.note("pinned_generator_cpu0_server_cpu1", rig.pinned);
    out.note("latency_limit_us", LIMIT_US);

    if !args.trace {
        // Latency: one continuous phase at the nominal rate.
        let nominal = open_loop(&mut rig, &mut chk, NOMINAL_RATE, args.seconds * NOMINAL_SHARE, &mut quiet, &mut out);
        let p50_ns = median(&nominal.latency_ns);
        let (tail_ns, tail_p) = windowed_tail(&nominal.latency_ns).unwrap_or((f64::NAN, f64::NAN));
        // Throughput: ops issued back to back, timed per chunk of
        // CHUNK_OPS generated ahead; the median chunk.
        let closed_end = Instant::now() + Duration::from_secs_f64(args.seconds * CLOSED_SHARE);
        let mut chunk_rates = Vec::new();
        while chunk_rates.is_empty() || Instant::now() < closed_end {
            let ops = rig.gen.plan(CHUNK_OPS);
            let start = Instant::now();
            for op in ops {
                chk.apply(&rig.remote, op, &mut quiet, &mut out);
            }
            chunk_rates.push(CHUNK_OPS as f64 / start.elapsed().as_secs_f64());
        }
        let closed_rate = median(&chunk_rates);
        // Capacity under the latency limit: passes up the rate ladder; the
        // median pass. Recorded, not an end-to-end metric: a noisy
        // neighbour stops a pass at any rung, which spread it 8k-24k ops/s
        // across runs on a shared host.
        let mut tops = Vec::new();
        let mut ladders = Vec::new();
        let passes = ((args.seconds / SECONDS_PER_PASS).round() as usize).max(3);
        for _ in 0..passes {
            let (top, steps) = ladder_pass(&mut rig, &mut chk, &mut out);
            tops.push(top);
            let rungs: Vec<String> = steps.iter().map(|s| format!("{}:{:.0}", s.rate, s.tail_ns / 1e3)).collect();
            ladders.push(rungs.join(" "));
        }
        let max_rate = median(&tops);
        out.set("p50_ms", p50_ns / 1e6);
        out.set("tail_ms", tail_ns / 1e6);
        out.set("throughput_per_s", closed_rate);
        out.note("unit", "op");
        out.note("tail_window", TAIL_WINDOW);
        out.note("tail_percentile", tail_p);
        out.note("op_p50_us", p50_ns / 1e3);
        out.note("op_tail_us", tail_ns / 1e3);
        out.note("op_p99_us", percentile(&nominal.latency_ns, 99.0) / 1e3);
        out.note("max_rate_ops_s", max_rate);
        out.note("closed_loop_ops_s", closed_rate);
        out.note("gen.late_p99_us", percentile(&nominal.late_ns, 99.0) / 1e3);
        out.note("ladder_passes_rate_tail_us", ladders.join(" | "));
    } else {
        // Blocks of TRACE_BLOCK ops alternate untraced and traced, so both
        // halves see the same host conditions.
        let block_s = TRACE_BLOCK / NOMINAL_RATE;
        let blocks = ((args.seconds / block_s) as usize).max(2);
        let counters = probes::Counters::now();
        let (mut plain, mut traced, mut late) = (Vec::new(), Vec::new(), Vec::new());
        for b in 0..blocks {
            if b % 2 == 0 {
                plain.extend(open_loop(&mut rig, &mut chk, NOMINAL_RATE, block_s, &mut quiet, &mut out).latency_ns);
            } else {
                let phase = open_loop(&mut rig, &mut chk, NOMINAL_RATE, block_s, tracer, &mut out);
                traced.extend(phase.latency_ns);
                late.extend(phase.late_ns);
            }
        }
        probes::remote_counters(&counters.since(), &mut out);
        let spans = tracer.spans();
        let class_us = |c: Class| median(&durations_ns(spans, c.span_name())) / 1e3;
        out.set("remote.write_us", class_us(Class::Write));
        out.set("remote.take_us", class_us(Class::Take));
        out.set("remote.read_us", class_us(Class::Read));
        out.set("remote.take_up_to_us", class_us(Class::TakeUpTo));
        out.set("gen.late_p99_us", percentile(&late, 99.0) / 1e3);
        let (p, t) = (median(&plain), median(&traced));
        out.set("telemetry.overhead_pct", (t - p) / p * 100.0);
        // The layer probes run their own threads on every CPU.
        if let Some(cpus) = all_cpus {
            cpus.apply();
        }
        probes::layers(args, &mut out);
    }
    chk.check_count(&rig.remote, &mut out);
    drop(rig);
    if let Err(e) = set_up_reps(args.seed, SETUP_REPS_AFTER, &mut setups, &mut seeds) {
        out.check(false, || format!("set-up failed: {e}"));
    }
    out.set("setup_s", median(&setups));
    if args.trace {
        out.set("setup.seed_ms", median(&seeds) * 1e3);
    }
    out
}

/// Replays `n` ops of the seed's sequence against a local `Space` and
/// reports the median ns per write/take/read and the index hit ratio.
pub fn replay_local(seed: u64, n: usize) -> (f64, f64, f64, f64) {
    let mut gen = Gen::new(seed);
    let space = Space::new("perfbench-local");
    space.write_all(gen.resident()).expect("local space accepts writes");
    let ops = gen.plan(n);
    let templates = gen.templates.clone();
    let before = space.stats();
    let (mut w, mut t, mut r) = (Vec::new(), Vec::new(), Vec::new());
    for op in ops {
        let start = Instant::now();
        let class = op.class();
        match op {
            Op::Write(tuple) => drop(space.write(tuple)),
            Op::Refill(batch) => drop(space.write_all(batch)),
            Op::Take(k) => drop(space.take_if_exists(&templates[k])),
            Op::Read(k) => drop(space.read_if_exists(&templates[k])),
            Op::TakeUpTo(k, _) => drop(space.take_up_to(&templates[k], PREFETCH, Some(Duration::ZERO))),
        }
        let ns = start.elapsed().as_nanos() as f64;
        match class {
            Class::Write => w.push(ns),
            Class::Take => t.push(ns),
            Class::Read => r.push(ns),
            _ => {}
        }
    }
    let after = space.stats();
    let hits = (after.index_hits - before.index_hits) as f64;
    let misses = (after.index_misses - before.index_misses) as f64;
    (median(&w), median(&t), median(&r), hits / (hits + misses).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_model_predicts_every_outcome_on_a_local_space() {
        let mut gen = Gen::new(7);
        let space = Space::new("t");
        space.write_all(gen.resident()).unwrap();
        let mut chk = Checker::new(&gen, RESIDENT);
        let mut out = Outcome::default();
        let mut tracer = Tracer::new(false);
        for op in gen.plan(20_000) {
            chk.apply(&*space, op, &mut tracer, &mut out);
        }
        chk.check_count(&*space, &mut out);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.failed, 0);
        assert_eq!(space.len(), gen.total());
        assert!(gen.total() + BATCH > RESIDENT && gen.total() < RESIDENT + 20_000);
    }

    #[test]
    fn an_id_taken_twice_or_never_written_fails() {
        let gen = Gen::new(1);
        let mut chk = Checker::new(&gen, 100);
        assert!(chk.mark_taken(1) && chk.mark_taken(64) && chk.mark_taken(100));
        assert!(!chk.mark_taken(64), "second take of the same id");
        assert!(!chk.mark_taken(0) && !chk.mark_taken(101) && !chk.mark_taken(-1));
        chk.written = 1;
        assert!(chk.mark_taken(101));
    }

    #[test]
    fn the_same_seed_gives_the_same_sequence() {
        let fingerprint = |seed| {
            let mut g = Gen::new(seed);
            let mut v: Vec<String> = g.resident().iter().take(3).map(|t| format!("{t:?}")).collect();
            v.extend(g.plan(500).iter().map(|op| format!("{op:?}")));
            v
        };
        assert_eq!(fingerprint(3), fingerprint(3));
        assert_ne!(fingerprint(3), fingerprint(4));
    }
}
