//! Order statistics and the deterministic input generator.

/// Nearest-rank percentile (`q` in 0..=1) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The interpolated median of whole-number samples (such as the
/// daemon's `wall_us`): the median's unit interval, split by where the
/// middle rank falls among the samples that share its value. A plain
/// median of such data moves only in whole steps.
pub fn interpolated_median(values: &[f64]) -> f64 {
    let m = median(values);
    let below = values.iter().filter(|&&v| v < m).count() as f64;
    let at = values.iter().filter(|&&v| v == m).count() as f64;
    if at == 0.0 {
        return m;
    }
    m - 0.5 + (values.len() as f64 / 2.0 - below) / at
}

/// SplitMix64: every input the benchmark generates derives from the
/// workload seed through this.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(
            interpolated_median(&[4.0, 4.0, 4.0, 5.0]),
            4.0 - 0.5 + 2.0 / 3.0
        );
        assert_eq!(interpolated_median(&[1.0, 2.0, 3.0]), 2.0);
    }
}
