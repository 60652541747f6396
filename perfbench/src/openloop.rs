//! Open-loop load: requests are due on a fixed schedule, whether or not
//! the previous one has finished.
//!
//! Each request is timed from its due time, not from when it was actually
//! sent, so a stall also counts against every request queued behind it.
//! How late the generator sent each request is recorded separately. The
//! rate ladder offers a fixed sequence of rising rates and keeps the
//! highest step that met the latency limit without a growing backlog.

use std::time::{Duration, Instant};

/// Time source for the generator; tests substitute a simulated one.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&mut self) -> u64;
    /// Returns once `now_ns() >= t`.
    fn wait_until(&mut self, t: u64);
}

/// The wall clock. Waits sleep until close to the due time, then spin:
/// a sleeping or yielding generator wakes up to a scheduler tick late,
/// which would show as lateness of its own.
pub struct WallClock(Instant);

impl WallClock {
    pub fn new() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, t: u64) {
        loop {
            let now = self.now_ns();
            if now >= t {
                return;
            }
            let left = t - now;
            if left > 2_000_000 {
                std::thread::sleep(Duration::from_nanos(left - 1_000_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// What one open-loop phase measured.
#[derive(Debug)]
pub struct Phase {
    /// Per request: completion time minus due time, ns.
    pub latency_ns: Vec<f64>,
    /// Per request: send time minus due time, ns.
    pub late_ns: Vec<f64>,
    /// From the first due time to the last completion, ns.
    pub span_ns: u64,
}

impl Phase {
    /// Requests completed per second of the phase.
    pub fn achieved_rate(&self) -> f64 {
        self.latency_ns.len() as f64 / (self.span_ns.max(1) as f64 / 1e9)
    }
}

/// Issues `n` requests at `rate` per second. `prepare(i)` builds request
/// `i` before its due time (off the clock unless the generator is behind);
/// `op` performs it.
pub fn run<T>(
    clock: &mut impl Clock,
    rate: f64,
    n: usize,
    mut prepare: impl FnMut(usize) -> T,
    mut op: impl FnMut(T),
) -> Phase {
    let interval = 1e9 / rate;
    let start = clock.now_ns();
    let mut phase = Phase {
        latency_ns: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        span_ns: 0,
    };
    let mut done = start;
    for i in 0..n {
        let due = start + (i as f64 * interval) as u64;
        let request = prepare(i);
        clock.wait_until(due);
        let sent = clock.now_ns();
        op(request);
        done = clock.now_ns();
        phase.late_ns.push((sent - due) as f64);
        phase.latency_ns.push((done - due) as f64);
    }
    phase.span_ns = done - start;
    phase
}

/// One rung of the rate ladder, reduced to what the stopping rule reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub rate: f64,
    pub tail_ns: f64,
    /// Median lateness of the step's requests, ns.
    pub late_ns: f64,
}

/// A step passes when its tail latency is within the limit and the
/// generator is not falling behind. A backlog that grows through the step
/// makes most requests late, so the median lateness exceeds the limit; a
/// single stall delays only the requests queued behind it.
pub fn step_passes(step: &Step, limit_ns: f64) -> bool {
    step.tail_ns <= limit_ns && step.late_ns <= limit_ns
}

/// Index of the highest step before the first failing one, if any passed.
/// The ladder stops at the first failure: later steps are not offered.
pub fn ladder_top(steps: &[Step], limit_ns: f64) -> Option<usize> {
    steps
        .iter()
        .take_while(|s| step_passes(s, limit_ns))
        .count()
        .checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::cell::Cell;
    use std::rc::Rc;

    /// Simulated time: waiting jumps forward; ops advance the shared cell
    /// by their scripted cost.
    struct SimClock(Rc<Cell<u64>>);

    impl Clock for SimClock {
        fn now_ns(&mut self) -> u64 {
            self.0.get()
        }
        fn wait_until(&mut self, t: u64) {
            self.0.set(self.0.get().max(t));
        }
    }

    fn sim(start: u64) -> (SimClock, Rc<Cell<u64>>) {
        let now = Rc::new(Cell::new(start));
        (SimClock(now.clone()), now)
    }

    #[test]
    fn requests_are_timed_from_their_due_time() {
        // 1000 req/s: due at 0, 1 ms, 2 ms, 3 ms. The second request
        // stalls for 2.5 ms, so the third is sent 1.5 ms late and its
        // latency includes that wait.
        let cost = [100_000u64, 2_500_000, 100_000, 100_000];
        let (mut clock, now) = sim(0);
        let phase = run(&mut clock, 1000.0, 4, |i| i, |i| now.set(now.get() + cost[i]));
        assert_eq!(phase.late_ns, vec![0.0, 0.0, 1_500_000.0, 600_000.0]);
        assert_eq!(
            phase.latency_ns,
            vec![100_000.0, 2_500_000.0, 1_600_000.0, 700_000.0]
        );
        assert_eq!(phase.span_ns, 3_700_000);
        assert!((phase.achieved_rate() - 4.0 / 3.7e-3).abs() < 1e-6);
    }

    #[test]
    fn an_idle_generator_is_never_late() {
        let (mut clock, now) = sim(5);
        let phase = run(&mut clock, 100.0, 3, |_| (), |()| now.set(now.get() + 10));
        assert!(phase.late_ns.iter().all(|&l| l == 0.0));
        assert!(phase.latency_ns.iter().all(|&l| l == 10.0));
    }

    fn step(rate: f64, tail_us: f64, late_us: f64) -> Step {
        Step {
            rate,
            tail_ns: tail_us * 1e3,
            late_ns: late_us * 1e3,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_failing_step() {
        let limit = 250_000.0;
        let steps = [
            step(1e3, 50.0, 0.0),
            step(2e3, 90.0, 3.0),
            step(4e3, 400.0, 10.0), // tail over the limit
            step(8e3, 60.0, 0.0),   // a lucky later step does not count
        ];
        assert_eq!(ladder_top(&steps, limit), Some(1));
        // A growing backlog fails a step even with a good tail.
        let backlog = [step(1e3, 50.0, 0.0), step(2e3, 90.0, 900.0)];
        assert_eq!(ladder_top(&backlog, limit), Some(0));
        assert_eq!(ladder_top(&[step(1e3, 300.0, 0.0)], limit), None);
        assert_eq!(ladder_top(&[], limit), None);
        // The limit itself passes.
        assert!(step_passes(&step(1e3, 250.0, 250.0), limit));
    }
}
