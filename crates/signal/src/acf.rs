//! Autocorrelation via the Wiener–Khinchin theorem.

use crate::kernel::Kernel;

/// The (linear, biased) autocorrelation of a real signal, normalized so
/// `acf[0] = 1`.
///
/// Computed through the frequency domain: zero-pad the mean-removed signal
/// to at least `2n` (to avoid circular wrap-around), FFT, take `|X|²`,
/// inverse FFT — both transforms packed as half-length complex ones (see
/// the crate's `kernel` module). O(n log n) instead of the naive O(n²),
/// which matters when thousands of client-object flows each run 100
/// permutations.
#[derive(Clone, Debug)]
pub struct Autocorrelation {
    /// `acf[lag]` for `lag = 0 .. n`, with `acf[0] = 1` (or all zeros for a
    /// constant signal).
    pub values: Vec<f64>,
}

impl Autocorrelation {
    /// Computes the autocorrelation of `signal`.
    pub fn compute(signal: &[f64]) -> Autocorrelation {
        if signal.is_empty() {
            return Autocorrelation { values: Vec::new() };
        }
        let kernel = Kernel::new(signal.len());
        let mut scratch = kernel.scratch();
        kernel.spectrum(signal, &mut scratch);
        kernel.autocovariance(&mut scratch);
        kernel.autocorrelation(&scratch)
    }

    /// Number of lags (equal to the signal length).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for an empty signal.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Local maxima in `lag = 2 .. len/2`, returned as `(lag, value)` in
    /// decreasing value order. Lags 0 and 1 are excluded — lag 0 is the
    /// trivial peak and lag 1 is dominated by short-range smoothness.
    pub fn peaks(&self) -> Vec<(usize, f64)> {
        let mut peaks: Vec<(usize, f64)> =
            local_peaks(self.values.len(), |lag| self.values[lag]).collect();
        peaks.sort_by(|a, b| b.1.total_cmp(&a.1));
        peaks
    }

    /// The highest peak (per [`peaks`][Self::peaks]), if any.
    pub fn max_peak(&self) -> Option<(usize, f64)> {
        max_local_peak(self.values.len(), |lag| self.values[lag])
    }

    /// The strongest local maximum within `±tolerance` lags of `lag`,
    /// searching the raw values (not just strict peaks at the exact spot).
    pub fn peak_near(&self, lag: usize, tolerance: usize) -> Option<(usize, f64)> {
        let half = self.values.len() / 2;
        let lo = lag.saturating_sub(tolerance).max(2);
        let hi = (lag + tolerance).min(half.saturating_sub(1));
        if lo > hi {
            return None;
        }
        (lo..=hi)
            .map(|l| (l, self.values[l]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// The local maxima of `len` lags read through `value`, in lag order:
/// lags `2 .. len/2` strictly above the previous lag and at least the next
/// (which, below `len/2`, always exists).
fn local_peaks(len: usize, value: impl Fn(usize) -> f64) -> impl Iterator<Item = (usize, f64)> {
    (2..len / 2).filter_map(move |lag| {
        let v = value(lag);
        (v > value(lag - 1) && v >= value(lag + 1)).then_some((lag, v))
    })
}

/// The highest of [`local_peaks`], in one scan that allocates nothing; a
/// tie keeps the shorter lag, as [`Autocorrelation::peaks`]' stable sort
/// does.
pub(crate) fn max_local_peak(len: usize, value: impl Fn(usize) -> f64) -> Option<(usize, f64)> {
    local_peaks(len, value).fold(None, |best, (lag, v)| match best {
        Some((_, b)) if v.total_cmp(&b).is_le() => best,
        _ => Some((lag, v)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n²) reference implementation.
    fn naive_acf(signal: &[f64]) -> Vec<f64> {
        let n = signal.len();
        let mean = signal.iter().sum::<f64>() / n as f64;
        let x: Vec<f64> = signal.iter().map(|&v| v - mean).collect();
        let r0: f64 = x.iter().map(|v| v * v).sum();
        (0..n)
            .map(|lag| {
                let r: f64 = (0..n - lag).map(|i| x[i] * x[i + lag]).sum();
                if r0 > 0.0 {
                    r / r0
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn matches_naive_reference() {
        let signal: Vec<f64> = (0..50)
            .map(|i| ((i * 7 % 13) as f64) + (i as f64 * 0.1))
            .collect();
        let fast = Autocorrelation::compute(&signal);
        let slow = naive_acf(&signal);
        for (lag, (a, b)) in fast.values.iter().zip(slow.iter()).enumerate() {
            assert!((a - b).abs() < 1e-9, "lag {lag}: {a} vs {b}");
        }
    }

    #[test]
    fn lag_zero_is_one() {
        let signal: Vec<f64> = (0..32).map(|i| (i as f64 * 0.9).sin()).collect();
        let acf = Autocorrelation::compute(&signal);
        assert!((acf.values[0] - 1.0).abs() < 1e-12);
        assert!(acf.values.iter().all(|&v| v <= 1.0 + 1e-12));
    }

    #[test]
    fn periodic_signal_peaks_at_its_period() {
        let signal: Vec<f64> = (0..240)
            .map(|t| if t % 12 == 0 { 1.0 } else { 0.0 })
            .collect();
        let acf = Autocorrelation::compute(&signal);
        let (lag, value) = acf.max_peak().unwrap();
        assert_eq!(lag, 12);
        assert!(value > 0.8);
    }

    #[test]
    fn constant_signal_has_zero_acf() {
        let acf = Autocorrelation::compute(&[4.0; 20]);
        assert!(acf.values.iter().all(|&v| v == 0.0));
        assert!(acf.max_peak().is_none() || acf.max_peak().unwrap().1 == 0.0);
    }

    #[test]
    fn empty_signal() {
        let acf = Autocorrelation::compute(&[]);
        assert!(acf.is_empty());
        assert!(acf.max_peak().is_none());
    }

    #[test]
    fn peak_near_finds_offset_peaks() {
        let signal: Vec<f64> = (0..300)
            .map(|t| if t % 30 == 0 { 1.0 } else { 0.0 })
            .collect();
        let acf = Autocorrelation::compute(&signal);
        // Search around lag 28 with tolerance 3 → should find 30.
        let (lag, _) = acf.peak_near(28, 3).unwrap();
        assert_eq!(lag, 30);
        // Tolerance too small → misses (but returns the best in range).
        let (lag, v) = acf.peak_near(20, 2).unwrap();
        assert!((18..=22).contains(&lag));
        assert!(v < 0.5);
    }

    #[test]
    fn peak_near_edge_cases() {
        let acf = Autocorrelation::compute(&[1.0, 0.0, 1.0, 0.0]);
        // Window collapses below the valid range.
        assert!(acf.peak_near(0, 0).is_none() || acf.peak_near(0, 0).is_some());
        let short = Autocorrelation::compute(&[1.0]);
        assert!(short.peak_near(5, 2).is_none());
    }
}
