//! A minimal std-only wall-clock timing harness (no external benchmark
//! crates; the workspace builds with no registry access).
//!
//! This is deliberately simpler than a statistical benchmark framework:
//! warm up once, run a fixed number of iterations, report mean and min.
//! The *min* is the headline number — it is the least noisy estimator of
//! the cost of the work itself on a busy machine.

use std::hint::black_box;
use std::time::Instant;

/// One measured operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Operation name, e.g. `"build/ak_k2"`.
    pub name: String,
    /// Measured iterations (excluding the warm-up run).
    pub iters: usize,
    /// Mean wall time per iteration, milliseconds.
    pub mean_ms: f64,
    /// Minimum wall time over the iterations, milliseconds.
    pub min_ms: f64,
}

impl Timing {
    /// Renders as one aligned report line.
    pub fn render(&self) -> String {
        format!(
            "{:<40} {:>10.3} ms min  {:>10.3} ms mean  ({} iters)",
            self.name, self.min_ms, self.mean_ms, self.iters
        )
    }
}

/// Times `f` over `iters` iterations after one warm-up call. The result of
/// every call is passed through [`black_box`] so the work is not optimized
/// away.
pub fn time<T>(name: &str, iters: usize, mut f: impl FnMut() -> T) -> Timing {
    assert!(iters > 0, "need at least one iteration");
    black_box(f());
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        total += ms;
        min = min.min(ms);
    }
    Timing {
        name: name.to_string(),
        iters,
        mean_ms: total / iters as f64,
        min_ms: min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_positive_and_min_bounds_mean() {
        let t = time("spin", 5, || (0..1000u64).sum::<u64>());
        assert_eq!(t.iters, 5);
        assert!(t.min_ms >= 0.0);
        assert!(t.min_ms <= t.mean_ms);
        assert!(t.render().contains("spin"));
    }
}
