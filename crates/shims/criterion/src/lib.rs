//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this vendors the
//! subset of the criterion API the workspace's benches use:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`] /
//! [`BenchmarkGroup::bench_with_input`] / `sample_size`, [`Bencher::iter`]
//! / [`Bencher::iter_with_setup`], [`BenchmarkId`], [`Throughput`] with
//! [`BenchmarkGroup::throughput`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! There is no statistics engine: each routine runs `sample_size`
//! iterations (default 10) and the mean wall-clock time is printed. That
//! is enough for the paper-figure drivers, which only need relative
//! ordering, and it keeps `cargo bench` runnable offline.

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer identity, re-exported from `std::hint`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Label for one benchmark within a group: `function_id/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_id/parameter`.
    pub fn new(function_id: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_id.into(), parameter),
        }
    }

    /// Just a parameter, no function id.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        BenchmarkId { label }
    }
}

/// How much one iteration processes, so a group can report a rate next to
/// the time per iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes per iteration; reported as MB/s (10^6 bytes).
    Bytes(u64),
    /// Items per iteration; reported as thousands per second.
    Elements(u64),
}

/// Runs the measured closure and accumulates elapsed time.
pub struct Bencher {
    iterations: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `routine` over the configured number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iterations {
            std_black_box(routine());
        }
        self.elapsed += start.elapsed();
    }

    /// Time `routine` on fresh `setup()` output each iteration; setup time
    /// is excluded from the measurement.
    pub fn iter_with_setup<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.iterations {
            let input = setup();
            let start = Instant::now();
            std_black_box(routine(input));
            self.elapsed += start.elapsed();
        }
    }
}

/// A named set of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set how many iterations each routine runs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Declare what one iteration of the following benchmarks processes.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, label: &str, mut f: F) {
        if let Some(filter) = &self._criterion.filter {
            if !format!("{}/{label}", self.name).contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            iterations: self.sample_size as u64,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let per_iter = if b.iterations > 0 {
            b.elapsed / b.iterations as u32
        } else {
            Duration::ZERO
        };
        let secs = per_iter.as_secs_f64();
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) if secs > 0.0 => {
                format!(", {:.0} MB/s", n as f64 / 1e6 / secs)
            }
            Some(Throughput::Elements(n)) if secs > 0.0 => {
                format!(", {:.0} K elem/s", n as f64 / 1e3 / secs)
            }
            _ => String::new(),
        };
        println!(
            "{}/{}: {:.3?}/iter over {} iters{rate}",
            self.name, label, per_iter, b.iterations
        );
    }

    /// Benchmark a closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run(&id.label, f);
        self
    }

    /// Benchmark a closure receiving a borrowed input.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        self.run(&id.label, |b| f(b, input));
        self
    }

    /// End the group (no-op; exists for API compatibility).
    pub fn finish(&mut self) {}
}

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    default_sample_size: usize,
    /// Run only the benchmarks whose `group/label` contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 10,
            filter: None,
        }
    }
}

impl Criterion {
    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.default_sample_size;
        BenchmarkGroup {
            name: name.into(),
            sample_size,
            throughput: None,
            _criterion: self,
        }
    }

    /// Benchmark a single closure outside any group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group(name.to_string())
            .bench_function("bench", f);
        self
    }

    /// Parse command-line configuration: the first argument that is not a
    /// flag is a filter, as in criterion — only benchmarks whose
    /// `group/label` contains it run (a group's own setup code still
    /// does). Flags, such as the `--bench` cargo passes, are ignored.
    pub fn configure_from_args(mut self) -> Self {
        self.filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        self
    }
}

/// Collect benchmark functions under a group name.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the named groups.
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
    fn group_runs_routines_and_counts_iterations() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(3);
        let mut calls = 0u64;
        g.bench_function("f", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 3);
        let mut setups = 0u64;
        g.bench_with_input(BenchmarkId::new("g", 7), &5u32, |b, x| {
            b.iter_with_setup(
                || {
                    setups += 1;
                    *x
                },
                |v| v * 2,
            )
        });
        assert_eq!(setups, 3);
        g.finish();
    }

    #[test]
    fn a_filter_skips_the_benchmarks_it_does_not_match() {
        let mut c = Criterion {
            filter: Some("path/tok".to_string()),
            ..Criterion::default()
        };
        let mut ran = Vec::new();
        for (group, label) in [
            ("record_path", "tokenize"),
            ("record_path", "project"),
            ("verify", "tok"),
        ] {
            c.benchmark_group(group)
                .sample_size(1)
                .bench_function(label, |b| b.iter(|| ran.push((group, label))));
        }
        assert_eq!(ran, [("record_path", "tokenize")]);
    }
}
