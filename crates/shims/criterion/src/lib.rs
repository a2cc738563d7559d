//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API surface this workspace's benches use — `Criterion`,
//! `benchmark_group` with `sample_size` / `measurement_time`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, the
//! `criterion_group!` / `criterion_main!` macros, `Bencher::iter` and
//! `Bencher::iter_batched` —
//! with a plain wall-clock measurement loop instead of criterion's
//! statistical machinery. Reports mean/min per benchmark to stdout.
//! Passing `--test` (as `cargo test --benches` does) runs each benchmark
//! body exactly once as a smoke test.

use std::time::{Duration, Instant};

/// Top-level harness handle.
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let test_mode = args.iter().any(|a| a == "--test");
        // First free arg that isn't a flag is a substring filter, mirroring
        // `cargo bench -- <filter>`.
        let filter = args
            .iter()
            .skip(1)
            .find(|a| !a.starts_with('-') && !a.is_empty())
            .cloned();
        Self { test_mode, filter }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
        }
    }
}

/// Identifier for a parameterized benchmark (`BenchmarkId::new("f", n)`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Function name plus parameter value.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self { id: s }
    }
}

/// A group of benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Number of samples per benchmark (each sample is ≥ 1 iteration).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Wall-clock budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run(&id.id, |b| f(b));
        self
    }

    /// Run one benchmark with an explicit input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        self.run(&id.id, |b| f(b, input));
        self
    }

    fn run(&mut self, id: &str, mut body: impl FnMut(&mut Bencher)) {
        let full = format!("{}/{}", self.name, id);
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            test_mode: self.criterion.test_mode,
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            samples: Vec::new(),
        };
        body(&mut bencher);
        if bencher.test_mode {
            println!("test-mode {full}: ok");
        } else if let Some(stats) = bencher.stats() {
            println!(
                "bench {full:<55} mean {:>12}  min {:>12}  ({} samples)",
                format_duration(stats.mean),
                format_duration(stats.min),
                stats.samples
            );
        }
    }

    /// End the group (accepted for API compatibility).
    pub fn finish(self) {}
}

struct Stats {
    mean: Duration,
    min: Duration,
    samples: usize,
}

/// Inputs [`Bencher::iter_batched`] prepares per batch (accepted for API
/// compatibility: the shim prepares one input per timed call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs, many per batch in criterion.
    SmallInput,
    /// Large inputs, fewer per batch in criterion.
    LargeInput,
    /// One input per timed call.
    PerIteration,
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    measurement_time: Duration,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Measure `f`, recording per-iteration wall time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            std::hint::black_box(f());
            return;
        }
        // Warm-up + calibration: time one run to size the sample loop.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(20));
        let budget = self.measurement_time;
        let per_sample = (budget.as_nanos() / self.sample_size.max(1) as u128).max(1);
        let iters_per_sample = (per_sample / once.as_nanos().max(1)).clamp(1, 1_000_000) as u32;
        let deadline = Instant::now() + budget;
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(f());
            }
            self.samples.push(start.elapsed() / iters_per_sample);
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    /// Measure `routine` on inputs made by `setup`, timing the routine
    /// only. The shim always runs one setup per timed call (criterion's
    /// `BatchSize::PerIteration`), one call per sample, so a routine that
    /// consumes or grows its input sees a fresh one every time.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        if self.test_mode {
            std::hint::black_box(routine(setup()));
            return;
        }
        let deadline = Instant::now() + self.measurement_time;
        self.samples.clear();
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            let output = std::hint::black_box(routine(input));
            self.samples.push(start.elapsed());
            drop(output);
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    fn stats(&self) -> Option<Stats> {
        if self.samples.is_empty() {
            return None;
        }
        let total: Duration = self.samples.iter().sum();
        Some(Stats {
            mean: total / self.samples.len() as u32,
            min: *self.samples.iter().min().unwrap(),
            samples: self.samples.len(),
        })
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Re-export for benches that use `criterion::black_box`.
pub use std::hint::black_box;

/// Define a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` from group-runner functions.
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
    fn bench_loop_records_samples() {
        let mut c = Criterion {
            test_mode: false,
            filter: None,
        };
        let mut g = c.benchmark_group("shim");
        g.sample_size(5).measurement_time(Duration::from_millis(50));
        let mut ran = 0u64;
        g.bench_function("spin", |b| {
            b.iter(|| {
                ran += 1;
                std::hint::black_box(ran)
            })
        });
        g.finish();
        assert!(ran > 0);
    }

    #[test]
    fn benchmark_id_formats() {
        let id = BenchmarkId::new("ingest", 100_000);
        assert_eq!(id.id, "ingest/100000");
    }
}
