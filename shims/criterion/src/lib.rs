//! Offline stand-in for the `criterion` crate.
//!
//! The build container has no registry access, so the workspace wires this
//! local shim in via a path dependency (see the root `Cargo.toml`). It
//! keeps the bench files compiling and producing useful numbers: the same
//! `Criterion`/`benchmark_group`/`bench_function`/`iter` call shapes, but
//! measurement is a simple warm-up pass followed by timed samples with a
//! mean-per-iteration report (optionally with element throughput) printed
//! to stdout. No statistics, no HTML reports, no baselines.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level benchmark driver; mirrors the builder methods the workspace
/// benches call.
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 10,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_millis(900),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Untimed warm-up budget before sampling.
    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t;
        self
    }

    /// Total timed budget across samples.
    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        run_bench(self, None, &id.0, None, f);
        self
    }

    /// Runs any benchmarks whose name matches CLI filters (no-op shim:
    /// all benchmarks always run at registration time).
    pub fn final_summary(&self) {}
}

/// Throughput annotation used to report per-element rates.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier (`"name"` or `BenchmarkId::from_parameter(..)`).
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id from a function name and parameter.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        Self(format!("{name}/{param}"))
    }

    /// An id rendering just the parameter (used inside groups).
    pub fn from_parameter(param: impl Display) -> Self {
        Self(param.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self(s)
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput used in reports.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        run_bench(self.criterion, Some(&self.name), &id.0, self.throughput, f);
        self
    }

    /// Ends the group (report already printed per bench).
    pub fn finish(self) {}
}

/// Passed to the closure of `bench_function`; `iter` times the routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine` for the sample's iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Times `routine` on a fresh input from `setup` per iteration; making
    /// the input and dropping the output are not timed.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        self.elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = std::hint::black_box(routine(input));
            self.elapsed += start.elapsed();
            drop(output);
        }
    }
}

/// How many inputs real criterion prepares ahead of a timed batch; here
/// every iteration gets its own, whichever is asked for.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs small enough to hold many of.
    SmallInput,
    /// Inputs of which only a few fit in memory.
    LargeInput,
    /// One input per timed call.
    PerIteration,
}

fn run_bench<F: FnMut(&mut Bencher)>(
    c: &Criterion,
    group: Option<&str>,
    id: &str,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let label = match group {
        Some(g) => format!("{g}/{id}"),
        None => id.to_string(),
    };

    // Warm-up: single iterations until the warm-up budget is spent; also
    // yields a per-iteration estimate to size measurement samples.
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    while warm_start.elapsed() < c.warm_up_time || warm_iters == 0 {
        f(&mut b);
        warm_iters += 1;
        if warm_iters >= 1000 {
            break;
        }
    }
    let per_iter = warm_start.elapsed() / warm_iters.max(1) as u32;

    // Size each sample so all samples fit the measurement budget.
    let per_sample = c.measurement_time / c.sample_size as u32;
    let iters_per_sample = if per_iter.is_zero() {
        1000
    } else {
        (per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
    };

    let mut total = Duration::ZERO;
    let mut total_iters = 0u64;
    for _ in 0..c.sample_size {
        let mut b = Bencher {
            iters: iters_per_sample,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        total += b.elapsed;
        total_iters += b.iters;
    }

    let mean = if total_iters == 0 {
        Duration::ZERO
    } else {
        total / total_iters as u32
    };
    let rate = match throughput {
        Some(Throughput::Elements(n)) if !mean.is_zero() => {
            format!("  {:.2} Melem/s", n as f64 / mean.as_secs_f64() / 1e6)
        }
        Some(Throughput::Bytes(n)) if !mean.is_zero() => {
            format!(
                "  {:.2} MiB/s",
                n as f64 / mean.as_secs_f64() / (1 << 20) as f64
            )
        }
        _ => String::new(),
    };
    println!("bench: {label:<56} {mean:>12.2?}/iter{rate}");
}

/// Declares the benchmark entry list; both the `name/config/targets` block
/// form and the positional form are accepted.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $config;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares `main()` running one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

/// Re-export matching `criterion::black_box` (older call sites).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        let mut group = c.benchmark_group("shim_smoke");
        group.throughput(Throughput::Elements(1));
        let mut count = 0u64;
        group.bench_function("noop", |b| {
            b.iter(|| {
                count += 1;
                count
            })
        });
        group.finish();
        assert!(count > 0);
        c.bench_function(BenchmarkId::from_parameter("p=1"), |b| b.iter(|| 42));
    }
}
