//! The deterministic kernel every advisor tier shares: one worker pool,
//! one fingerprint hash, one seeded stream.
//!
//! Calibration sweeps, fleet pre-warm and fleet simulation all fan
//! independent tasks out to threads and must return the same bits — and
//! the same error — at any worker count.
//! [`claim_and_reduce`] is that fan-out, written once:
//!
//! * workers claim ascending task indices off one atomic counter, each
//!   with its own `init()` state;
//! * results come back in task order, whatever thread produced them;
//! * the error surfaced is the one of the **lowest-indexed failing task**.
//!   A failing worker records its index in a shared watermark and stops;
//!   no task above the watermark is started, while every task below it —
//!   claimed earlier, by construction — runs to completion, so the lowest
//!   failure is always found;
//! * one worker runs inline on the caller's thread through the same loop
//!   as the spawned ones, so one worker and sixty-four differ only in who
//!   claims what. Every worker opens `worker_span` under the caller's
//!   innermost span: a trace has one shape at every worker count;
//! * a panicking worker is joined and handed back as
//!   [`PoolError::Panicked`], never re-raised by the scope.
//!
//! [`Fnv1a`] and [`SplitMix64`] are the decision fingerprint and the seeded
//! stream the same tiers use; their constants live here and nowhere else.

use dbvirt_telemetry as telemetry;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a `parallelism` knob against a task count: `0` means one
/// worker per available core, `n` means `n`; never more workers than
/// tasks, never fewer than one.
pub fn workers_for(parallelism: usize, tasks: usize) -> usize {
    let wanted = match parallelism {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        p => p,
    };
    wanted.min(tasks).max(1)
}

/// Why [`claim_and_reduce`] produced no result vector.
#[derive(Debug)]
pub enum PoolError<E> {
    /// The error of the lowest-indexed failing task.
    Task(E),
    /// A worker panicked; this is its payload.
    Panicked(Box<dyn Any + Send + 'static>),
}

impl<E> PoolError<E> {
    /// The task error; a worker's panic continues on the caller's thread.
    pub fn into_task(self) -> E {
        match self {
            PoolError::Task(e) => e,
            PoolError::Panicked(payload) => resume_unwind(payload),
        }
    }
}

/// Runs `task(state, i)` for every `i < n_tasks` on `workers` threads (the
/// caller's included) and returns the results in task order — see the
/// module docs for the determinism contract.
pub fn claim_and_reduce<S, T: Send, E: Send>(
    n_tasks: usize,
    workers: usize,
    worker_span: &'static str,
    init: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, PoolError<E>> {
    let parent = telemetry::current_span_id();
    let next = AtomicUsize::new(0);
    let failed_at = AtomicUsize::new(usize::MAX);
    let worker = || {
        let mut span = telemetry::span_with_parent(worker_span, parent);
        let mut state = init();
        let (mut done, mut failed) = (Vec::with_capacity(n_tasks / workers.max(1)), None);
        loop {
            let at = next.fetch_add(1, Ordering::Relaxed);
            if at >= n_tasks || at > failed_at.load(Ordering::SeqCst) {
                break;
            }
            match task(&mut state, at) {
                Ok(value) => done.push((at, value)),
                Err(e) => {
                    // Claims ascend, so everything below `at` is already
                    // in flight and anything this worker could claim next
                    // lies above it.
                    failed_at.fetch_min(at, Ordering::SeqCst);
                    failed = Some((at, e));
                    break;
                }
            }
        }
        span.set_attr("tasks", done.len());
        (done, failed)
    };
    let joined = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers.min(n_tasks))
            .map(|_| scope.spawn(worker))
            .collect();
        let inline = catch_unwind(AssertUnwindSafe(worker));
        let mut joined = vec![inline];
        joined.extend(spawned.into_iter().map(|handle| handle.join()));
        joined
    });

    // Ascending reduce. Every task below the lowest failure ran, so with
    // no failure `done` holds all of `0..n_tasks`.
    let mut done = Vec::with_capacity(n_tasks);
    let mut failures = Vec::new();
    for worker in joined {
        let (values, failed) = worker.map_err(PoolError::Panicked)?;
        done.extend(values);
        failures.extend(failed);
    }
    if let Some((_, e)) = failures.into_iter().min_by_key(|&(at, _)| at) {
        return Err(PoolError::Task(e));
    }
    done.sort_unstable_by_key(|&(at, _)| at);
    Ok(done.into_iter().map(|(_, value)| value).collect())
}

/// FNV-1a over bytes: the hash behind every `*_FINGERPRINT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The empty hash (the FNV offset basis).
    pub fn new() -> Fnv1a {
        Fnv1a::default()
    }

    /// Folds `bytes` in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` in, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.eat(&v.to_le_bytes());
    }

    /// Folds an `f64`'s bit pattern in, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash of everything eaten so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// splitmix64: a seeded stream whose `n`-th output depends only on the
/// seed and `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next output of the stream.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One step as a stateless finaliser: spreads a structured integer key
    /// over `u64` space (the first output of the stream seeded with `key`).
    pub fn mix(key: u64) -> u64 {
        SplitMix64(key).next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;

    /// `Ok(i * 3)` unless `i` is marked failing, then `Err(i)`.
    fn run(n: usize, failing: &[bool], workers: usize) -> Result<Vec<usize>, usize> {
        claim_and_reduce(
            n,
            workers_for(workers, n),
            "test.worker",
            || (),
            |_, i| if failing[i] { Err(i) } else { Ok(i * 3) },
        )
        .map_err(PoolError::into_task)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Results, the surfaced error and the watermark at every worker
        /// count match the one-worker inline run.
        #[test]
        fn prop_any_worker_count_answers_like_one(
            n in 0usize..200,
            failing_seeds in prop::collection::vec(0usize..200, 0..4),
        ) {
            let mut failing = vec![false; n];
            for &f in failing_seeds.iter().filter(|_| n > 0) {
                failing[f % n] = true;
            }
            let lowest = failing.iter().position(|&f| f);
            let inline = run(n, &failing, 1);
            match lowest {
                Some(l) => prop_assert_eq!(inline.clone(), Err(l)),
                None => prop_assert_eq!(inline.clone(), Ok((0..n).map(|i| i * 3).collect::<Vec<_>>())),
            }
            for workers in [2, 5, 64, 0] {
                prop_assert_eq!(run(n, &failing, workers), inline.clone(), "workers={}", workers);
            }

            // A task that sees `recorded` set was entered after the
            // watermark moved. A worker that passed its watermark check
            // just before may still be on its way into one such task; any
            // later claim of its is refused — so fewer than `workers` of
            // them, however many tasks remain.
            for workers in [1usize, 2, 5, 64] {
                let recorded = AtomicBool::new(false);
                let late_starts = AtomicUsize::new(0);
                let started = Mutex::new(Vec::new());
                let workers = workers_for(workers, n);
                let got = claim_and_reduce(
                    n,
                    workers,
                    "test.worker",
                    || FlagOnDrop(&recorded, false),
                    |state, i| {
                        started.lock().unwrap().push(i);
                        if lowest.is_some_and(|l| i > l) && recorded.load(Ordering::SeqCst) {
                            late_starts.fetch_add(1, Ordering::SeqCst);
                        }
                        state.1 |= Some(i) == lowest;
                        if failing[i] { Err(i) } else { Ok(i * 3) }
                    },
                );
                prop_assert_eq!(got.map_err(PoolError::into_task), inline.clone());
                prop_assert!(late_starts.load(Ordering::SeqCst) < workers, "workers={}", workers);
                if workers == 1 {
                    // Inline, the watermark is exact: nothing past it runs.
                    let expect: Vec<usize> = (0..lowest.map_or(n, |l| l + 1)).collect();
                    prop_assert_eq!(started.into_inner().unwrap(), expect);
                }
            }
        }
    }

    /// Per-worker state that raises the flag when its worker exits, if the
    /// worker armed it. A failing worker records the watermark before it
    /// exits, so the flag is only ever seen after the record.
    struct FlagOnDrop<'a>(&'a AtomicBool, bool);

    impl Drop for FlagOnDrop<'_> {
        fn drop(&mut self) {
            self.0.fetch_or(self.1, Ordering::SeqCst);
        }
    }

    #[test]
    fn nothing_starts_once_a_lower_failure_is_recorded() {
        // Forced interleaving on two workers: task 0 cannot finish until
        // the worker that failed task 1 has recorded it and exited. The
        // worker finishing task 0 then claims 2 and must be refused; with
        // no watermark it would run all of 2..50 after the flag.
        let failer_gone = AtomicBool::new(false);
        let started_above = AtomicUsize::new(0);
        let got = claim_and_reduce(
            50,
            2,
            "test.worker",
            || FlagOnDrop(&failer_gone, false),
            |state, i| match i {
                0 => {
                    while !failer_gone.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    Ok(())
                }
                1 => {
                    state.1 = true;
                    Err("task 1")
                }
                _ => {
                    started_above.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                }
            },
        );
        assert_eq!(got.map_err(PoolError::into_task), Err("task 1"));
        assert_eq!(started_above.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_panicking_task_comes_back_as_its_payload() {
        for workers in [1, 2, 5] {
            let finished = AtomicUsize::new(0);
            let got: Result<Vec<String>, PoolError<()>> = claim_and_reduce(
                40,
                workers,
                "test.worker",
                || (),
                |_, i| {
                    if i == 7 {
                        panic!("task seven exploded");
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    Ok(format!("result {i}"))
                },
            );
            match got {
                Err(PoolError::Panicked(payload)) => {
                    assert_eq!(payload.downcast_ref::<&str>(), Some(&"task seven exploded"));
                }
                other => panic!("workers={workers}: expected the payload, got {other:?}"),
            }
            // The panicking worker is gone; with company, the rest of the
            // tasks still ran and their results were dropped with the pool.
            if workers > 1 {
                assert_eq!(finished.load(Ordering::SeqCst), 39);
            }
        }
    }

    #[test]
    fn init_runs_once_per_worker_inside_its_span() {
        // The only test in this crate that turns the global registry on.
        telemetry::enable();
        let inits = AtomicUsize::new(0);
        {
            let _caller = telemetry::span("test.caller");
            claim_and_reduce(
                12,
                3,
                "test.init_worker",
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    telemetry::current_span_id()
                },
                |span_at_init, _| {
                    // The worker span is still the innermost one.
                    assert_eq!(*span_at_init, telemetry::current_span_id());
                    Ok::<(), ()>(())
                },
            )
            .unwrap();
        }
        telemetry::disable();
        let snap = telemetry::snapshot();
        assert_eq!(inits.load(Ordering::SeqCst), 3);
        let caller = snap.last_span("test.caller").unwrap().id;
        let workers: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "test.init_worker")
            .collect();
        assert_eq!(workers.len(), 3);
        assert!(workers.iter().all(|w| w.parent == Some(caller)));
    }

    #[test]
    fn empty_and_oversubscribed_pools() {
        let none: Vec<usize> = run(0, &[], 8).unwrap();
        assert!(none.is_empty());
        // More workers than tasks: asked for directly, not through
        // `workers_for`, the surplus is simply not spawned.
        let inits = AtomicUsize::new(0);
        let got = claim_and_reduce(
            3,
            64,
            "test.worker",
            || inits.fetch_add(1, Ordering::SeqCst),
            |_, i| Ok::<_, ()>(i),
        );
        assert_eq!(got.unwrap(), vec![0, 1, 2]);
        assert_eq!(inits.load(Ordering::SeqCst), 3);
        assert_eq!(workers_for(64, 3), 3);
        assert_eq!(workers_for(5, 0), 1);
        assert_eq!(workers_for(1, 100), 1);
        assert!(workers_for(0, 100) >= 1);
    }

    #[test]
    fn fnv1a_known_answers() {
        let of = |s: &str| {
            let mut h = Fnv1a::new();
            h.eat(s.as_bytes());
            h.finish()
        };
        assert_eq!(of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(of("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of("foobar"), 0x8594_4171_f739_67e8);
        let (mut a, mut b) = (Fnv1a::new(), Fnv1a::new());
        a.f64(1.5);
        b.eat(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(a, b);
    }

    #[test]
    fn splitmix64_known_answers() {
        let mut s = SplitMix64(0);
        assert_eq!(s.next(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(s.next(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(s.next(), 0x06c4_5d18_8009_454f);
        assert_eq!(SplitMix64::mix(0), 0xe220_a839_7b1d_cdaf);
    }
}
