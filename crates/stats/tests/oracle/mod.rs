//! Reference implementations of the two significance kernels.
//!
//! These are the straightforward forms the production kernels in
//! `nck_stats::exact` and `nck_stats::monte_carlo` were derived from:
//!
//! - [`exact_significance`] recurses through *every* category, assigning
//!   trailing zeros explicitly, so each leaf costs O(support);
//! - [`monte_carlo_significance`] materialises each sample as a dense
//!   length-k outcome vector and scores it with `Multinomial::ln_pmf`.
//!
//! They exist only as test oracles: the production kernels must agree with
//! them bit for bit (`f64::to_bits`). The module is shared by the parity
//! tests and by the `multinomial` bench, which checks parity before it
//! times anything.

use nck_stats::multinomial::Multinomial;
use nck_stats::special::ln_factorial;
use nck_stats::StatsError;
use rand::Rng;

/// Relative log-space tie tolerance; the same constant both kernels use.
const LN_TIE_TOLERANCE: f64 = 1e-9;

/// Exact significance probability by full-depth enumeration.
pub fn exact_significance(dist: &Multinomial, x: &[u64]) -> Result<f64, StatsError> {
    let ln_px = dist.ln_pmf(x)?;
    let n: u64 = x.iter().sum();
    if n == 0 {
        return Err(StatsError::EmptyObservation);
    }
    if ln_px == f64::NEG_INFINITY {
        return Ok(0.0);
    }
    let support: Vec<usize> = (0..dist.num_categories())
        .filter(|&i| dist.probs()[i] > 0.0)
        .collect();
    let ln_probs: Vec<f64> = support.iter().map(|&i| dist.probs()[i].ln()).collect();
    let threshold = ln_px + LN_TIE_TOLERANCE.max(ln_px.abs() * LN_TIE_TOLERANCE);
    let mut total = 0.0f64;
    enumerate(&ln_probs, 0, n, ln_factorial(n), threshold, &mut total);
    Ok(total.min(1.0))
}

fn enumerate(
    ln_probs: &[f64],
    idx: usize,
    remaining: u64,
    partial: f64,
    threshold: f64,
    total: &mut f64,
) {
    if idx + 1 == ln_probs.len() {
        let y = remaining;
        let ln_p = partial + y as f64 * ln_probs[idx] - ln_factorial(y);
        if ln_p <= threshold {
            *total += ln_p.exp();
        }
        return;
    }
    for y in 0..=remaining {
        let contrib = y as f64 * ln_probs[idx] - ln_factorial(y);
        enumerate(
            ln_probs,
            idx + 1,
            remaining - y,
            partial + contrib,
            threshold,
            total,
        );
    }
}

/// Monte-Carlo significance estimate scoring dense outcome vectors.
pub fn monte_carlo_significance<R: Rng + ?Sized>(
    dist: &Multinomial,
    x: &[u64],
    samples: u32,
    rng: &mut R,
) -> Result<f64, StatsError> {
    if samples == 0 {
        return Err(StatsError::InvalidParameter {
            name: "samples",
            message: "must be positive".into(),
        });
    }
    let ln_px = dist.ln_pmf(x)?;
    let n: u64 = x.iter().sum();
    if n == 0 {
        return Err(StatsError::EmptyObservation);
    }
    if ln_px == f64::NEG_INFINITY {
        return Ok(0.0);
    }
    let threshold = ln_px + LN_TIE_TOLERANCE.max(ln_px.abs() * LN_TIE_TOLERANCE);
    let mut hits: u64 = 0;
    let mut buf = vec![0u64; dist.num_categories()];
    for _ in 0..samples {
        dist.sample_into(n, rng, &mut buf);
        let ln_py = dist
            .ln_pmf(&buf)
            .expect("sampled outcome has matching length");
        if ln_py <= threshold {
            hits += 1;
        }
    }
    Ok((1.0 + hits as f64) / (1.0 + f64::from(samples)))
}
