//! One real-input spectrum per series: the periodogram and the linear
//! autocorrelation from a single packed FFT.
//!
//! For a series of `n` samples let `N = next_pow2(n)` and `M = 2N`. The
//! mean-removed series, zero-padded to `M`, is packed as the `N`-point
//! complex sequence `z[j] = x[2j] + i·x[2j+1]` and transformed once; the
//! even/odd split turns `Z` into the half-spectrum `X[0..=N]` of the
//! `M`-point real transform. Both analyses read that one spectrum:
//!
//! * **Periodogram.** Padding to `N` or to `M` leaves the same signal, so
//!   the `N`-point transform is the even bins of `X`: `power[k] =
//!   |X[2k]|²/N` for `k = 0 ..= N/2`.
//! * **Autocorrelation.** `|X|²` is the spectrum of the autocovariance
//!   (Wiener–Khinchin); padding to `M ≥ 2n` keeps it linear, free of
//!   circular wrap-around. Its inverse is real, so it is taken the same
//!   packed way: one `N`-point inverse FFT yields `r[2j]` and `r[2j+1]` as
//!   the real and imaginary parts of slot `j`. The `1/M` normalization is
//!   folded into the packing, so `r[0] = Σ x²`.
//!
//! A [`Kernel`] is built once per series length and holds the shared
//! twiddle table for `M`; a [`Scratch`] holds one caller's buffers, so a
//! permutation loop allocates once per worker, not once per permutation.

use crate::acf::{max_local_peak, Autocorrelation};
use crate::fft::{next_pow2, transform, Complex, Twiddles};
use crate::spectrum::{peak_bins, Periodogram};

/// Below this autocovariance at lag 0 the series counts as constant and
/// its autocorrelation as identically zero.
const CONSTANT_R0: f64 = 1e-12;

/// The per-length plan: sizes plus the twiddle table for `M = 2N`.
#[derive(Clone, Debug)]
pub(crate) struct Kernel {
    /// Series length `n`.
    len: usize,
    /// `N = next_pow2(n)`: the periodogram length and the packed FFT size.
    half: usize,
    /// `e^{-2πik/M}` for `k < N`: the split factors, and (read at stride)
    /// the `N`-point transform's own twiddles.
    twiddles: Twiddles,
}

/// One caller's working buffers for a [`Kernel`].
pub(crate) struct Scratch {
    /// The packed `N`-point sequence: the series on the way in, the
    /// autocovariance after [`Kernel::autocovariance`].
    packed: Vec<Complex>,
    /// `|X[k]|²` for `k = 0 ..= N`.
    energy: Vec<f64>,
}

impl Kernel {
    /// The plan for series of `len` samples.
    pub(crate) fn new(len: usize) -> Kernel {
        let half = next_pow2(len);
        Kernel {
            len,
            half,
            twiddles: Twiddles::new(2 * half),
        }
    }

    /// Fresh buffers for this plan.
    pub(crate) fn scratch(&self) -> Scratch {
        Scratch {
            packed: vec![Complex::ZERO; self.half],
            energy: vec![0.0; self.half + 1],
        }
    }

    /// Centres `signal` (of the plan's length), transforms it, and leaves
    /// its energy spectrum `|X[k]|²`, `k = 0 ..= N`, in `s`.
    pub(crate) fn spectrum(&self, signal: &[f64], s: &mut Scratch) {
        assert_eq!(
            signal.len(),
            self.len,
            "series length differs from the plan"
        );
        let mean = if self.len > 0 {
            signal.iter().sum::<f64>() / self.len as f64
        } else {
            0.0
        };
        let mut values = signal.iter().map(|&x| x - mean);
        for slot in s.packed.iter_mut() {
            let re = values.next().unwrap_or(0.0);
            let im = values.next().unwrap_or(0.0);
            *slot = Complex::new(re, im);
        }
        transform(&mut s.packed, &self.twiddles, false);

        // Split: with Z[N] = Z[0], the even-sample spectrum is
        // E[k] = (Z[k] + conj Z[N−k])/2, the odd-sample one is
        // O[k] = (Z[k] − conj Z[N−k])/2i, and X[k] = E[k] + e^{-2πik/M}·O[k].
        let n = self.half;
        let z = &s.packed;
        for k in 0..n {
            let a = z[k];
            let b = z[(n - k) % n].conj();
            let even = (a + b).scale(0.5);
            let d = (a - b).scale(0.5);
            let odd = Complex::new(d.im, -d.re);
            s.energy[k] = (even + self.twiddles.get(k) * odd).norm_sq();
        }
        // X[N] = E[0] − O[0].
        s.energy[n] = (z[0].re - z[0].im).powi(2);
    }

    /// Number of periodogram bins, `N/2 + 1`.
    fn bins(&self) -> usize {
        self.half / 2 + 1
    }

    /// Periodogram power at bin `k` after [`spectrum`][Self::spectrum].
    fn power(&self, s: &Scratch, k: usize) -> f64 {
        s.energy[2 * k] / self.half as f64
    }

    /// The periodogram after [`spectrum`][Self::spectrum].
    pub(crate) fn periodogram(&self, s: &Scratch) -> Periodogram {
        Periodogram {
            power: (0..self.bins()).map(|k| self.power(s, k)).collect(),
            n: self.half,
            signal_len: self.len,
        }
    }

    /// The maximum periodogram power over [`Periodogram::peak`]'s bins, or
    /// 0 when there are none.
    pub(crate) fn power_peak(&self, s: &Scratch) -> f64 {
        peak_bins(self.bins())
            .map(|k| self.power(s, k))
            .max_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// Replaces the packed buffer with the autocovariance `r[t]`,
    /// `t < M`, the inverse transform of the energy spectrum.
    ///
    /// The inverse of a real, even spectrum `P` is packed like the forward
    /// one: slot `k` gets `A[k] + i·B[k]` with `A[k] = (P[k] + P[N−k])/2`
    /// (the even-sample spectrum) and `B[k] = (P[k] − P[N−k])·e^{+2πik/M}/2`
    /// (the odd-sample one).
    pub(crate) fn autocovariance(&self, s: &mut Scratch) {
        let n = self.half;
        // 1/2 for the split times 1/N for the inverse transform.
        let norm = 0.5 / n as f64;
        for k in 0..n {
            let p = s.energy[k];
            let q = s.energy[n - k];
            let a = (p + q) * norm;
            let b = self.twiddles.get(k).conj().scale((p - q) * norm);
            s.packed[k] = Complex::new(a - b.im, b.re);
        }
        transform(&mut s.packed, &self.twiddles, true);
    }

    /// Autocovariance at `lag` after [`autocovariance`][Self::autocovariance].
    fn covariance(s: &Scratch, lag: usize) -> f64 {
        let slot = s.packed[lag / 2];
        if lag.is_multiple_of(2) {
            slot.re
        } else {
            slot.im
        }
    }

    /// The autocorrelation after [`autocovariance`][Self::autocovariance]:
    /// lags `0..n`, normalized so lag 0 is 1, or all zeros for a constant
    /// series.
    pub(crate) fn autocorrelation(&self, s: &Scratch) -> Autocorrelation {
        let r0 = Self::covariance(s, 0);
        let values = if r0 <= CONSTANT_R0 {
            vec![0.0; self.len]
        } else {
            (0..self.len)
                .map(|lag| Self::covariance(s, lag) / r0)
                .collect()
        };
        Autocorrelation { values }
    }

    /// The highest autocorrelation peak ([`Autocorrelation::max_peak`]'s
    /// value) after [`autocovariance`][Self::autocovariance], or 0 when
    /// there is none. One scan; allocates nothing.
    pub(crate) fn acf_peak(&self, s: &Scratch) -> f64 {
        let r0 = Self::covariance(s, 0);
        if r0 <= CONSTANT_R0 {
            return 0.0;
        }
        max_local_peak(self.len, |lag| Self::covariance(s, lag) / r0).map_or(0.0, |(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft_in_place;

    /// Naive O(n²) periodogram of the mean-removed series at `N = next_pow2(n)`.
    fn naive_power(signal: &[f64]) -> Vec<f64> {
        let n = signal.len();
        let big_n = next_pow2(n);
        let mean = signal.iter().sum::<f64>() / n as f64;
        (0..=big_n / 2)
            .map(|k| {
                let (mut re, mut im) = (0.0, 0.0);
                for (t, &x) in signal.iter().enumerate() {
                    // Reduce the phase exactly before scaling to radians.
                    let theta = -std::f64::consts::TAU * ((k * t) % big_n) as f64 / big_n as f64;
                    re += (x - mean) * theta.cos();
                    im += (x - mean) * theta.sin();
                }
                (re * re + im * im) / big_n as f64
            })
            .collect()
    }

    /// Naive O(n²) linear autocorrelation, lag 0 normalized to 1.
    fn naive_acf(signal: &[f64]) -> Vec<f64> {
        let n = signal.len();
        let mean = signal.iter().sum::<f64>() / n as f64;
        let x: Vec<f64> = signal.iter().map(|&v| v - mean).collect();
        let r0: f64 = x.iter().map(|v| v * v).sum();
        (0..n)
            .map(|lag| (0..n - lag).map(|i| x[i] * x[i + lag]).sum::<f64>() / r0)
            .collect()
    }

    /// A deterministic, irregular test series: counts in 0..=3 with a
    /// weak 7-sample rhythm.
    fn series(n: usize) -> Vec<f64> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ n as u64;
        (0..n)
            .map(|t| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 62) + u64::from(t % 7 == 0)) as f64
            })
            .collect()
    }

    fn both(signal: &[f64]) -> (Periodogram, Autocorrelation) {
        let kernel = Kernel::new(signal.len());
        let mut s = kernel.scratch();
        kernel.spectrum(signal, &mut s);
        let periodogram = kernel.periodogram(&s);
        kernel.autocovariance(&mut s);
        (periodogram, kernel.autocorrelation(&s))
    }

    #[test]
    fn matches_naive_dft_and_acf_at_every_length() {
        let lengths = (8..=300).chain([511, 512, 513, 600, 1024]);
        for n in lengths {
            let signal = series(n);
            let (periodogram, acf) = both(&signal);
            let power = naive_power(&signal);
            assert_eq!(periodogram.power.len(), power.len(), "n = {n}");
            for (k, (a, b)) in periodogram.power.iter().zip(&power).enumerate() {
                assert!((a - b).abs() <= 1e-9, "n = {n}, bin {k}: {a} vs {b}");
            }
            let reference = naive_acf(&signal);
            assert_eq!(acf.values.len(), n);
            for (lag, (a, b)) in acf.values.iter().zip(&reference).enumerate() {
                assert!((a - b).abs() <= 1e-9, "n = {n}, lag {lag}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn matches_direct_transforms_at_two_to_the_fifteen_bins() {
        // The study's bin cap: one sample per second over 2^15 seconds.
        let n = 1 << 15;
        let signal = series(n);
        let (periodogram, acf) = both(&signal);

        let mean = signal.iter().sum::<f64>() / n as f64;
        let centred = |len: usize| -> Vec<Complex> {
            let mut data = vec![Complex::ZERO; len];
            for (slot, &x) in data.iter_mut().zip(&signal) {
                *slot = Complex::real(x - mean);
            }
            data
        };
        let mut direct = centred(n);
        fft_in_place(&mut direct);
        let scale = direct.iter().map(|c| c.norm_sq()).fold(0.0, f64::max) / n as f64;
        for (k, (a, c)) in periodogram.power.iter().zip(&direct).enumerate() {
            let b = c.norm_sq() / n as f64;
            assert!((a - b).abs() <= 1e-12 * scale, "bin {k}: {a} vs {b}");
        }

        // Linear autocovariance through a full 2n-point transform: the
        // energy spectrum is real and even, so a second forward transform
        // inverts it up to the factor 2n that the lag-0 division cancels.
        let mut padded = centred(2 * n);
        fft_in_place(&mut padded);
        for c in padded.iter_mut() {
            *c = Complex::real(c.norm_sq());
        }
        fft_in_place(&mut padded);
        let r0 = padded[0].re;
        for (lag, a) in acf.values.iter().enumerate() {
            let b = padded[lag].re / r0;
            assert!((a - b).abs() <= 1e-12, "lag {lag}: {a} vs {b}");
        }
    }

    #[test]
    fn peak_scans_agree_with_the_materialized_analyses() {
        for n in [8, 9, 31, 64, 100, 257] {
            let signal = series(n);
            let kernel = Kernel::new(n);
            let mut s = kernel.scratch();
            kernel.spectrum(&signal, &mut s);
            let power_peak = kernel.power_peak(&s);
            let periodogram = kernel.periodogram(&s);
            kernel.autocovariance(&mut s);
            let acf = kernel.autocorrelation(&s);
            assert_eq!(power_peak, periodogram.peak().map_or(0.0, |(_, p)| p));
            assert_eq!(
                kernel.acf_peak(&s),
                acf.peaks().first().map_or(0.0, |&(_, v)| v)
            );
        }
    }

    #[test]
    fn constant_series_has_no_acf_peak() {
        let kernel = Kernel::new(40);
        let mut s = kernel.scratch();
        kernel.spectrum(&[3.0; 40], &mut s);
        kernel.autocovariance(&mut s);
        assert_eq!(kernel.acf_peak(&s), 0.0);
        assert!(kernel.autocorrelation(&s).values.iter().all(|&v| v == 0.0));
    }
}
