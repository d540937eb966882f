//! Periodograms.

use std::ops::Range;

use crate::kernel::Kernel;

/// The one-sided periodogram of a real signal.
///
/// The signal is mean-removed (so the DC bin does not dominate), zero-padded
/// to the next power of two, and transformed; `power[k]` is `|X[k]|²/N` for
/// `k = 0 .. N/2` where `N` is the padded length. `power[0]` is ~0 by
/// construction.
#[derive(Clone, Debug)]
pub struct Periodogram {
    /// Power per frequency bin, indices `0..=N/2`.
    pub power: Vec<f64>,
    /// Padded FFT length `N`.
    pub n: usize,
    /// Original (unpadded) signal length.
    pub signal_len: usize,
}

impl Periodogram {
    /// Computes the periodogram of `signal`.
    pub fn compute(signal: &[f64]) -> Periodogram {
        let kernel = Kernel::new(signal.len());
        let mut scratch = kernel.scratch();
        kernel.spectrum(signal, &mut scratch);
        kernel.periodogram(&scratch)
    }

    /// The period (in samples) corresponding to frequency bin `k`.
    ///
    /// Bin `k` holds frequency `k/N` cycles per sample, i.e. period `N/k`
    /// samples. `k = 0` has no period; returns `f64::INFINITY`.
    pub fn bin_period(&self, k: usize) -> f64 {
        if k == 0 {
            f64::INFINITY
        } else {
            self.n as f64 / k as f64
        }
    }

    /// The frequency bin whose period is closest to `period` samples.
    pub fn bin_for_period(&self, period: f64) -> usize {
        if period <= 0.0 {
            return 0;
        }
        let k = (self.n as f64 / period).round() as usize;
        k.min(self.power.len() - 1)
    }

    /// The maximum power over "interesting" bins — `k ≥ 2` (periods of at
    /// most half the padded window) up to Nyquist — and its bin. Returns
    /// `None` when the signal is too short.
    pub fn peak(&self) -> Option<(usize, f64)> {
        peak_bins(self.power.len())
            .map(|k| (k, self.power[k]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Bins with power strictly above `threshold`, in decreasing power
    /// order, restricted to `k ≥ 2`.
    pub fn significant_bins(&self, threshold: f64) -> Vec<usize> {
        let mut bins: Vec<usize> = (2..self.power.len())
            .filter(|&k| self.power[k] > threshold)
            .collect();
        bins.sort_by(|&a, &b| self.power[b].total_cmp(&self.power[a]));
        bins
    }
}

/// The bins [`Periodogram::peak`] searches in a periodogram of `bins`
/// bins: `k ≥ 2` where there are more than two, else bin 1.
pub(crate) fn peak_bins(bins: usize) -> Range<usize> {
    2.min(bins.saturating_sub(1)).max(1)..bins
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, period: f64) -> Vec<f64> {
        (0..n)
            .map(|t| (std::f64::consts::TAU * t as f64 / period).sin() + 5.0)
            .collect()
    }

    #[test]
    fn peak_finds_planted_period() {
        let p = Periodogram::compute(&tone(256, 16.0));
        let (k, _) = p.peak().unwrap();
        assert!(
            (p.bin_period(k) - 16.0).abs() < 1.0,
            "got {}",
            p.bin_period(k)
        );
    }

    #[test]
    fn dc_offset_is_removed() {
        let p = Periodogram::compute(&[7.0; 64]);
        assert!(p.power[0] < 1e-18);
        assert!(p.power.iter().all(|&x| x < 1e-18));
    }

    #[test]
    fn bin_period_inverse_of_bin_for_period() {
        let p = Periodogram::compute(&tone(128, 8.0));
        for k in 2..20 {
            let period = p.bin_period(k);
            assert_eq!(p.bin_for_period(period), k);
        }
        assert_eq!(p.bin_period(0), f64::INFINITY);
        assert_eq!(p.bin_for_period(0.0), 0);
    }

    #[test]
    fn significant_bins_sorted_by_power() {
        // Two tones with different amplitudes.
        let n = 256;
        let signal: Vec<f64> = (0..n)
            .map(|t| {
                3.0 * (std::f64::consts::TAU * t as f64 / 32.0).sin()
                    + 1.0 * (std::f64::consts::TAU * t as f64 / 8.0).sin()
            })
            .collect();
        let p = Periodogram::compute(&signal);
        let bins = p.significant_bins(1.0);
        assert!(bins.len() >= 2);
        // Strongest first: period 32 → bin 8; period 8 → bin 32.
        assert_eq!(bins[0], 8);
        assert!(bins.contains(&32));
    }

    #[test]
    fn empty_and_tiny_signals() {
        let p = Periodogram::compute(&[]);
        assert_eq!(p.signal_len, 0);
        let p = Periodogram::compute(&[1.0]);
        assert_eq!(p.n, 1);
    }
}
