//! A quality reference computed apart from the program: per-qubit
//! nearest-centroid classification of boxcar-integrated demodulated IQ.
//!
//! Each qubit's tone is demodulated straight from the chip description
//! (`if_freq_mhz`, `sample_rate_mhz`) and integrated over the whole
//! window into one IQ point; the decision is the nearest per-level mean
//! of the training shots. Nothing here calls the program's DSP, filters
//! or networks, so its fidelity is an outside yardstick for the
//! program's own number, printed beside it and never gated on.

use mlr_sim::{ChipConfig, TraceDataset};

/// Fitted per-qubit level centroids.
pub struct NearestCentroid {
    /// `phasors[q][n]` = `(cos θ, sin θ)` of qubit `q`'s tone at sample `n`.
    phasors: Vec<Vec<(f64, f64)>>,
    /// `centroids[q][level]`, `None` for a level absent from training.
    centroids: Vec<Vec<Option<(f64, f64)>>>,
}

impl NearestCentroid {
    /// Fits centroids on the `train` shots of `dataset`.
    pub fn fit(dataset: &TraceDataset, train: &[usize]) -> Self {
        let chip: &ChipConfig = dataset.config();
        let dt_us = 1.0 / chip.sample_rate_mhz;
        let phasors: Vec<Vec<(f64, f64)>> = chip
            .qubits
            .iter()
            .map(|q| {
                (0..dataset.n_samples())
                    .map(|n| {
                        let theta = std::f64::consts::TAU * q.if_freq_mhz * n as f64 * dt_us;
                        (theta.cos(), theta.sin())
                    })
                    .collect()
            })
            .collect();
        let levels = dataset.levels();
        let mut sums = vec![vec![(0.0, 0.0, 0usize); levels]; phasors.len()];
        for &i in train {
            for (q, point) in integrate(&phasors, dataset, i).into_iter().enumerate() {
                let cell = &mut sums[q][dataset.label(i, q)];
                cell.0 += point.0;
                cell.1 += point.1;
                cell.2 += 1;
            }
        }
        let centroids = sums
            .into_iter()
            .map(|per_level| {
                per_level
                    .into_iter()
                    .map(|(i, q, n)| (n > 0).then(|| (i / n as f64, q / n as f64)))
                    .collect()
            })
            .collect();
        Self { phasors, centroids }
    }

    /// Per-qubit balanced fidelity (mean recall over the levels present)
    /// on the `test` shots of `dataset`.
    pub fn balanced_fidelity(&self, dataset: &TraceDataset, test: &[usize]) -> Vec<f64> {
        let levels = dataset.levels();
        let n_qubits = self.centroids.len();
        let mut hits = vec![vec![0usize; levels]; n_qubits];
        let mut counts = vec![vec![0usize; levels]; n_qubits];
        for &i in test {
            for (q, point) in integrate(&self.phasors, dataset, i).into_iter().enumerate() {
                let truth = dataset.label(i, q);
                counts[q][truth] += 1;
                if self.nearest(q, point) == truth {
                    hits[q][truth] += 1;
                }
            }
        }
        (0..n_qubits)
            .map(|q| {
                let present: Vec<f64> = (0..levels)
                    .filter(|&l| counts[q][l] > 0)
                    .map(|l| hits[q][l] as f64 / counts[q][l] as f64)
                    .collect();
                present.iter().sum::<f64>() / present.len().max(1) as f64
            })
            .collect()
    }

    fn nearest(&self, q: usize, (i, iq): (f64, f64)) -> usize {
        let mut best = (f64::INFINITY, 0);
        for (level, centroid) in self.centroids[q].iter().enumerate() {
            if let Some((ci, cq)) = centroid {
                let d = (i - ci).powi(2) + (iq - cq).powi(2);
                if d < best.0 {
                    best = (d, level);
                }
            }
        }
        best.1
    }
}

/// Boxcar-integrated baseband IQ of every qubit for shot `i`: the mean of
/// `raw[n] · e^{-iθ_q(n)}` over the window.
fn integrate(phasors: &[Vec<(f64, f64)>], dataset: &TraceDataset, i: usize) -> Vec<(f64, f64)> {
    let raw = dataset.raw(i);
    phasors
        .iter()
        .map(|tone| {
            let (mut re, mut im) = (0.0, 0.0);
            for (z, &(c, s)) in raw.iter().zip(tone) {
                re += z.re * c + z.im * s;
                im += z.im * c - z.re * s;
            }
            (re / raw.len() as f64, im / raw.len() as f64)
        })
        .collect()
}
