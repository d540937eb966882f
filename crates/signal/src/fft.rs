//! Iterative radix-2 Cooley–Tukey FFT.
//!
//! Self-contained (the workspace carries no numeric dependencies): a minimal
//! complex type and an in-place, power-of-two FFT with the conventional
//! unnormalized forward transform and `1/N`-normalized inverse.

use std::ops::{Add, Mul, Sub};

/// A complex number, `re + i·im`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// Constructs from parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// A real number.
    pub const fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Scales by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex {
            re: self.re * k,
            im: self.im * k,
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

/// Smallest power of two ≥ `n` (and ≥ 1).
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// Twiddle factors for power-of-two transforms of length up to `n`:
/// `w[k] = e^{-2πik/n}` for `k in 0..n/2`, each taken from `cos`/`sin`
/// directly (no rounding accumulates along a recurrence). A transform of
/// length `len` dividing `n` reads every `n/len`-th entry, so one table
/// serves every stage of a transform and every shorter transform.
#[derive(Clone, Debug)]
pub(crate) struct Twiddles {
    n: usize,
    w: Vec<Complex>,
}

impl Twiddles {
    /// The table for transforms of length up to `n`.
    ///
    /// # Panics
    /// Panics when `n` is not a power of two.
    pub(crate) fn new(n: usize) -> Twiddles {
        assert!(n.is_power_of_two(), "FFT length must be a power of two");
        let w = (0..n / 2)
            .map(|k| Complex::cis(-std::f64::consts::TAU * k as f64 / n as f64))
            .collect();
        Twiddles { n, w }
    }

    /// `e^{-2πik/n}` for `k < n/2`.
    pub(crate) fn get(&self, k: usize) -> Complex {
        self.w[k]
    }
}

/// In-place forward FFT.
///
/// # Panics
/// Panics when `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex]) {
    transform(data, &Twiddles::new(data.len()), false);
}

/// In-place inverse FFT (normalized by `1/N`).
///
/// # Panics
/// Panics when `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex]) {
    transform(data, &Twiddles::new(data.len()), true);
    let scale = 1.0 / data.len() as f64;
    for x in data.iter_mut() {
        *x = x.scale(scale);
    }
}

/// The crate's one FFT: in place, unnormalized, forward (`e^{-iθ}`) or
/// inverse (`e^{+iθ}`), with twiddles read from `twiddles`.
///
/// # Panics
/// Panics when `data.len()` is not a power of two or exceeds the table.
pub(crate) fn transform(data: &mut [Complex], twiddles: &Twiddles, inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    assert!(n <= twiddles.n, "FFT length exceeds its twiddle table");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    // Butterflies.
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let stride = twiddles.n / len;
        for block in data.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            let factors = twiddles.w.iter().step_by(stride);
            for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(factors) {
                let w = if inverse { w.conj() } else { w };
                let even = *a;
                let odd = *b * w;
                *a = even + odd;
                *b = even - odd;
            }
        }
        len <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(n²) DFT for cross-checking.
    fn dft(signal: &[Complex]) -> Vec<Complex> {
        let n = signal.len();
        (0..n)
            .map(|k| {
                let mut sum = Complex::ZERO;
                for (t, &x) in signal.iter().enumerate() {
                    sum = sum
                        + x * Complex::cis(-std::f64::consts::TAU * k as f64 * t as f64 / n as f64);
                }
                sum
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "index {i}: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn matches_naive_dft() {
        let signal: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut fast = signal.clone();
        fft_in_place(&mut fast);
        let slow = dft(&signal);
        assert_close(&fast, &slow, 1e-9);
    }

    #[test]
    fn round_trip_identity() {
        let signal: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64).sqrt(), -(i as f64) * 0.1))
            .collect();
        let mut data = signal.clone();
        fft_in_place(&mut data);
        ifft_in_place(&mut data);
        assert_close(&data, &signal, 1e-10);
    }

    /// A deterministic unit-scale complex test signal of length `n`.
    fn test_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                Complex::new((t * 0.7).sin() + (t * 0.013).cos(), (t * 0.31).cos())
            })
            .collect()
    }

    // Tabulated twiddles keep both errors near the naive sum's own
    // rounding: a `w *= wlen` recurrence drifts to ~4e-12 on the round
    // trip and ~3e-11 against the naive DFT at this length, failing both
    // bounds.
    #[test]
    fn large_round_trip_stays_near_machine_precision() {
        let signal = test_signal(1 << 16);
        let mut data = signal.clone();
        fft_in_place(&mut data);
        ifft_in_place(&mut data);
        let worst = data
            .iter()
            .zip(&signal)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(worst < 1e-14, "round-trip error {worst:e}");
    }

    #[test]
    fn large_transform_matches_naive_dft_on_sampled_bins() {
        let n = 1 << 16;
        let signal = test_signal(n);
        let mut fast = signal.clone();
        fft_in_place(&mut fast);
        let mut worst = 0.0f64;
        let bins = [
            0,
            1,
            2,
            3,
            7,
            100,
            4095,
            12_345,
            n / 4,
            n / 2 - 1,
            n / 2,
            n - 1,
        ];
        for k in bins {
            let mut sum = Complex::ZERO;
            for (t, &x) in signal.iter().enumerate() {
                // Reduce the phase exactly before scaling to radians.
                let phase = ((k * t) % n) as f64 / n as f64;
                sum = sum + x * Complex::cis(-std::f64::consts::TAU * phase);
            }
            worst = worst.max((fast[k] - sum).abs());
        }
        assert!(worst < 1e-11, "worst bin error {worst:e}");
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut data = vec![Complex::ZERO; 16];
        data[0] = Complex::real(1.0);
        fft_in_place(&mut data);
        for x in &data {
            assert!((x.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pure_tone_concentrates_at_its_bin() {
        let n = 64;
        let k0 = 5;
        let mut spectrum: Vec<Complex> = (0..n)
            .map(|t| Complex::real((std::f64::consts::TAU * k0 as f64 * t as f64 / n as f64).cos()))
            .collect();
        fft_in_place(&mut spectrum);
        let powers: Vec<f64> = spectrum.iter().map(|c| c.norm_sq()).collect();
        let max_bin = (1..n / 2)
            .max_by(|&a, &b| powers[a].partial_cmp(&powers[b]).unwrap())
            .unwrap();
        assert_eq!(max_bin, k0);
    }

    #[test]
    fn parseval_identity() {
        let signal: Vec<f64> = (0..128).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let mut spectrum: Vec<Complex> = signal.iter().map(|&x| Complex::real(x)).collect();
        fft_in_place(&mut spectrum);
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 =
            spectrum.iter().map(|c| c.norm_sq()).sum::<f64>() / spectrum.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8);
    }

    #[test]
    fn trivial_sizes() {
        let mut one = vec![Complex::real(3.0)];
        fft_in_place(&mut one);
        assert_eq!(one[0], Complex::real(3.0));

        let mut two = vec![Complex::real(1.0), Complex::real(2.0)];
        fft_in_place(&mut two);
        assert!((two[0].re - 3.0).abs() < 1e-12);
        assert!((two[1].re + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_panics() {
        let mut data = vec![Complex::ZERO; 12];
        fft_in_place(&mut data);
    }

    #[test]
    fn next_pow2_rounds_up() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(17), 32);
    }
}
