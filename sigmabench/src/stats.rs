//! Order statistics and the metric list a run prints.

/// Nearest-rank percentile of `values` (`p` in `[0, 1]`); 0 for an
/// empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// How many samples lie strictly beyond the nearest-rank `p` quantile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Medians of five consecutive slices of `values`, to show drift
/// within a run.
pub fn by_fifth(values: &[f64]) -> String {
    let n = values.len().max(1);
    (0..5)
        .map(|k| {
            format!(
                "{:.3}",
                median(&values[k * n / 5..((k + 1) * n / 5).min(values.len())])
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Note a latency sample's size and drift in the run record, and flag
/// the run when its p99 has fewer than ten samples beyond it.
pub fn note_tail_support(result: &mut RunResult, label: &str, values: &[f64]) {
    result.note(&format!("{label}_samples"), values.len());
    result.note(&format!("{label}_p50_by_fifth"), by_fifth(values));
    let beyond = beyond(values.len(), 0.99);
    if beyond < 10 {
        result.problem(format!(
            "{label}: p99 of {} samples has only {beyond} beyond it",
            values.len()
        ));
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Metrics of one run, in the order they were added.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The outcome of one workload run, before it is printed.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run's outputs or measurements cannot be trusted.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Free-form facts for the run record (sample counts, phases).
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_owned(), value.to_string()));
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }
}

/// SplitMix64: a tiny seeded generator for the benchmark's own draws
/// (corpus seeds, feedback columns), independent of the program's RNG.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(900, 0.99), 9);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
