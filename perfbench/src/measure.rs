//! Host-side measurement helpers: order statistics over call timings,
//! the process's peak resident set, and repeated set-up timing.

use std::time::Instant;

/// The percentiles a tail is chosen from, lowest first.
const TAIL_LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Samples that must lie beyond a percentile for it to count as a tail.
const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile together with the sample it was read from.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile, as a fraction (0.9 = p90).
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Sample size.
    pub n: usize,
}

/// Nearest-rank percentile of an ascending sample (the serving
/// report's definition, so host and simulated tails agree).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    pim_sim::percentile(sorted, q)
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// strictly beyond its rank; the median when the sample is too small
/// for any of them.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let q = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&q| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
            n.saturating_sub(rank) >= TAIL_MIN_BEYOND
        })
        .unwrap_or(0.5);
    Tail { q, value: percentile(sorted, q), n }
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The process's peak resident set (`VmHWM`) in KiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `f` once and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// How many set-ups an untraced run times; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 101;

/// The set-up timings of one run. The workload's inputs are built once
/// before the timed loop and rebuilt, and dropped, at even intervals
/// while it runs, so `setup_s` samples the host across the whole run as
/// the call metrics do. Set-ups taken back to back all land in the
/// same fraction of a second, and so in whatever slow or quick spell
/// the shared host is in at that moment.
pub struct Setups {
    times: Vec<f64>,
    start: Instant,
    seconds: f64,
}

impl Setups {
    /// Builds the inputs once, timed, and starts the run's clock.
    pub fn first<T>(
        seconds: f64,
        build: impl FnOnce() -> Result<T, String>,
    ) -> Result<(T, Setups), String> {
        let (built, secs) = timed(build);
        Ok((built?, Setups { times: vec![secs], start: Instant::now(), seconds }))
    }

    /// Takes the set-ups due by now: [`SETUP_REPEATS`] spread evenly
    /// over the run's `seconds`.
    pub fn catch_up<T>(&mut self, build: impl FnMut() -> Result<T, String>) -> Result<(), String> {
        let share = (self.start.elapsed().as_secs_f64() / self.seconds).min(1.0);
        self.take_until(1 + (share * (SETUP_REPEATS - 1) as f64) as usize, build)
    }

    /// Takes the set-ups still due and returns the median set-up time in
    /// seconds.
    pub fn finish<T>(mut self, build: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
        self.take_until(SETUP_REPEATS, build)?;
        Ok(median(&self.times))
    }

    fn take_until<T>(
        &mut self,
        n: usize,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        while self.times.len() < n {
            let (built, secs) = timed(&mut build);
            built?;
            self.times.push(secs);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_climbs_the_ladder_with_the_sample_size() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // Nine samples leave fewer than ten beyond any rank.
        assert_eq!(tail(&sample(9)).q, 0.5);
        // 100 samples: ten lie beyond p90's rank 90.
        let t = tail(&sample(100));
        assert_eq!((t.q, t.value, t.n), (0.9, 90.0, 100));
        assert_eq!(tail(&sample(1000)).q, 0.99);
        assert_eq!(tail(&sample(999)).q, 0.9);
        assert_eq!(tail(&sample(10_000)).q, 0.999);
    }

    #[test]
    fn geomean_and_median() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(geomean(&[]), 0.0);
    }
}
