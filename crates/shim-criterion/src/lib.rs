//! In-tree shim for the `criterion` crate (offline build environment).
//!
//! A minimal wall-clock benchmark harness with criterion's API shape:
//! warm up, run timed batches until a time budget is spent, report the
//! median per-iteration time. No statistics machinery, plots, or saved
//! baselines — just honest numbers on stdout.

use std::time::{Duration, Instant};

/// Prevents the optimizer from discarding a value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// The benchmark driver.
pub struct Criterion {
    measure_for: Duration,
    warmup_for: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            measure_for: Duration::from_millis(600),
            warmup_for: Duration::from_millis(150),
        }
    }
}

impl Criterion {
    /// Runs one benchmark and prints its timing.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            measure_for: self.measure_for,
            warmup_for: self.warmup_for,
            samples: Vec::new(),
        };
        f(&mut b);
        b.report(name);
        self
    }

    /// Starts a named group (the shim flattens groups into prefixed names).
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            prefix: name.to_string(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    prefix: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim's time budget already
    /// bounds the number of samples.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let full = format!("{}/{name}", self.prefix);
        self.criterion.bench_function(&full, f);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Runs and times the measured closure.
pub struct Bencher {
    measure_for: Duration,
    warmup_for: Duration,
    samples: Vec<f64>,
}

impl Bencher {
    /// Times `f`, collecting per-iteration samples until the time budget
    /// is exhausted.
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        // Warm-up: also estimates the per-iteration cost so batches can
        // amortize clock overhead for fast closures.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup_for {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let batch = ((0.01 / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        let start = Instant::now();
        while start.elapsed() < self.measure_for {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            self.samples.push(t0.elapsed().as_secs_f64() / batch as f64);
        }
    }

    fn report(&mut self, name: &str) {
        if self.samples.is_empty() {
            println!("{name:<44} (no samples)");
            return;
        }
        self.samples.sort_by(f64::total_cmp);
        let median = self.samples[self.samples.len() / 2];
        let lo = self.samples[0];
        let hi = self.samples[self.samples.len() - 1];
        println!(
            "{name:<44} time: [{} {} {}]",
            format_time(lo),
            format_time(median),
            format_time(hi)
        );
    }
}

fn format_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// Bundles benchmark functions into a callable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion {
            measure_for: Duration::from_millis(20),
            warmup_for: Duration::from_millis(5),
        };
        let mut ran = 0u64;
        c.bench_function("shim/self_test", |b| {
            b.iter(|| {
                ran += 1;
                black_box(ran)
            })
        });
        assert!(ran > 0);
    }

    #[test]
    fn groups_prefix_names() {
        let mut c = Criterion {
            measure_for: Duration::from_millis(10),
            warmup_for: Duration::from_millis(2),
        };
        let mut group = c.benchmark_group("g");
        group.sample_size(10);
        group.bench_function("inner", |b| b.iter(|| black_box(1)));
        group.finish();
    }
}
