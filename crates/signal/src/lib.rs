//! # jcdn-signal — FFT, autocorrelation, and periodicity detection
//!
//! §5.1 of the paper detects periodic request flows by "a combination of
//! autocorrelation (on the time domain) and fourier transform (on the
//! frequency domain) to extract key periods and randomness to filter noisy
//! periods", extending Vlachos et al. (SDM '05). This crate implements the
//! whole stack from scratch:
//!
//! * [`fft`] — an iterative radix-2 Cooley–Tukey FFT over [`fft::Complex`]
//!   (no external numeric dependency),
//! * [`spectrum`] — periodograms and frequency/period conversion,
//! * [`acf`] — linear autocorrelation via the Wiener–Khinchin theorem (the
//!   series is zero-padded to 2n, so no lag wraps around),
//! * [`periodicity`] — the paper's four-step detection algorithm with
//!   permutation-derived significance thresholds (x = 100 by default) and a
//!   1-second sampling grid, parallelized across permutations on the
//!   `jcdn-exec` scatter–gather pool.
//!
//! Periodograms and autocorrelations share one kernel: each series (and
//! each permutation of it) is transformed once, as a half-length complex
//! FFT of the packed real samples, and both analyses read that spectrum.
//!
//! ## Example: recover a planted 30-second period
//!
//! ```
//! use jcdn_signal::periodicity::{detect_period, PeriodicityConfig};
//!
//! // A client polling every 30s for an hour, with ±1s of jitter baked in
//! // by rounding to the sampling grid.
//! let times: Vec<f64> = (0..120).map(|i| i as f64 * 30.0).collect();
//! let cfg = PeriodicityConfig::default();
//! let hit = detect_period(&times, &cfg).expect("planted period must be found");
//! assert!((hit.period_seconds - 30.0).abs() <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acf;
pub mod fft;
mod kernel;
pub mod periodicity;
pub mod spectrum;
