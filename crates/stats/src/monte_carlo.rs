//! Monte-Carlo approximation of the multinomial significance probability.
//!
//! Footnote 1 of the paper: *"In case of large N, the exact test is
//! impractical, a Monte-Carlo sampling to approximate the final result is
//! performed."* In this pipeline `N` itself stays small (≤ |Q|), but the
//! number of categories `k` — distinct instance values seen across query
//! and context — routinely reaches hundreds, making the composition space
//! `C(N+k−1, k−1)` astronomically large. The estimator below samples
//! outcomes `y ~ Mult(N, π)` and counts how often `Pr(y) ≤ Pr(x)`.
//!
//! The estimator uses the (add-one) upward-biased form
//! `(1 + #{ln Pr(y) ≤ ln Pr(x)}) / (1 + S)` recommended for Monte-Carlo
//! p-values: it never reports an exact zero from sampling alone, keeping
//! the false-positive rate of the downstream 0.05 cut-off honest.
//!
//! A sample touches at most `N` of the `k` categories, so it is scored
//! sparsely: `ln πᵢ` is taken once per test, the `N` drawn category
//! indices are sorted, and `ln N! + Σ (yᵢ ln πᵢ − ln yᵢ!)` is summed over
//! the touched categories in ascending index order. That is the same
//! sequence of floating-point operations [`Multinomial::ln_pmf`] performs
//! on the dense outcome vector (it skips every `yᵢ = 0`), and the draws
//! come from the same [`Multinomial::sample_category`] calls, so each
//! sample costs O(N log N) instead of O(k) with a bit-identical result.

use crate::error::StatsError;
use crate::multinomial::Multinomial;
use crate::special::ln_factorial;
use rand::Rng;

/// Log-space tolerance for counting ties, mirroring the exact test.
const LN_TIE_TOLERANCE: f64 = 1e-9;

/// Default number of Monte-Carlo samples.
///
/// 100k samples bound the standard error of a p-value near 0.05 by
/// `sqrt(0.05 · 0.95 / 1e5) ≈ 0.0007`, comfortably below the resolution the
/// 0.05 decision threshold needs.
pub const DEFAULT_SAMPLES: u32 = 100_000;

/// Estimates `Prs(X = x)` by sampling.
///
/// # Errors
///
/// Same input validation as [`crate::exact::exact_significance`]; also
/// rejects `samples == 0`.
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
    // Impossible observation: exact answer is 0 regardless of sampling.
    if ln_px == f64::NEG_INFINITY {
        return Ok(0.0);
    }
    let threshold = ln_px + LN_TIE_TOLERANCE.max(ln_px.abs() * LN_TIE_TOLERANCE);

    let ln_probs: Vec<f64> = dist.probs().iter().map(|&p| p.ln()).collect();
    let ln_n_fact = ln_factorial(n);

    let mut hits: u64 = 0;
    let mut draws: Vec<usize> = Vec::new();
    for _ in 0..samples {
        draws.clear();
        draws.extend((0..n).map(|_| dist.sample_category(rng)));
        draws.sort_unstable();
        if ln_pmf_of_draws(&ln_probs, ln_n_fact, &draws) <= threshold {
            hits += 1;
        }
    }
    Ok((1.0 + hits as f64) / (1.0 + f64::from(samples)))
}

/// `ln Pr(Y = y)` for the outcome `y` whose trials fell on the sorted
/// category indices `draws`, given `ln πᵢ` and `ln N!`.
///
/// Runs of equal indices are the non-zero `yᵢ`, visited in ascending index
/// order, so the sum matches [`Multinomial::ln_pmf`] on the dense `y` bit
/// for bit, including its early `−∞` for a category with `πᵢ = 0` (which
/// the inverse-CDF sampler can still return at the edges: a draw of
/// exactly 0 when `π₀ = 0`, or the tail guard that pins the last CDF
/// entry to 1).
fn ln_pmf_of_draws(ln_probs: &[f64], ln_n_fact: f64, draws: &[usize]) -> f64 {
    let mut ln_p = ln_n_fact;
    for run in draws.chunk_by(|a, b| a == b) {
        let ln_pi = ln_probs[run[0]];
        if ln_pi == f64::NEG_INFINITY {
            return f64::NEG_INFINITY;
        }
        let yi = run.len() as u64;
        ln_p += yi as f64 * ln_pi - ln_factorial(yi);
    }
    ln_p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mult(weights: &[f64]) -> Multinomial {
        Multinomial::from_weights(weights).unwrap()
    }

    #[test]
    fn agrees_with_exact_on_binomial() {
        let d = mult(&[0.9, 0.1]);
        let mut rng = StdRng::seed_from_u64(11);
        // Exact Prs for x = (1, 2) is 0.028 (see exact.rs tests).
        let est = monte_carlo_significance(&d, &[1, 2], 200_000, &mut rng).unwrap();
        assert!((est - 0.028).abs() < 0.003, "est = {est}");
    }

    #[test]
    fn agrees_with_exact_on_trinomial() {
        let d = mult(&[1.0, 1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(5);
        // Exact Prs for x = (3,0,0) is 1/9 ≈ 0.1111.
        let est = monte_carlo_significance(&d, &[3, 0, 0], 200_000, &mut rng).unwrap();
        assert!((est - 1.0 / 9.0).abs() < 0.005, "est = {est}");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let d = mult(&[0.4, 0.6]);
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        let a = monte_carlo_significance(&d, &[3, 0], 10_000, &mut r1).unwrap();
        let b = monte_carlo_significance(&d, &[3, 0], 10_000, &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn impossible_observation_short_circuits() {
        let d = mult(&[1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let est = monte_carlo_significance(&d, &[0, 1], 10, &mut rng).unwrap();
        assert_eq!(est, 0.0);
    }

    #[test]
    fn never_returns_zero_from_sampling() {
        // Extremely unlikely (but possible) observation: estimator floor is
        // 1/(S+1), not 0.
        let d = mult(&[0.999, 0.001]);
        let mut rng = StdRng::seed_from_u64(2);
        let est = monte_carlo_significance(&d, &[0, 5], 1_000, &mut rng).unwrap();
        assert!(est > 0.0);
        assert!(est < 0.05);
    }

    #[test]
    fn sparse_score_matches_dense_ln_pmf_bitwise() {
        // Includes a zero-probability category, which the sampler reaches
        // only at the edges of the inverse CDF but the scorer must still
        // rank as impossible, like `ln_pmf`.
        let d = mult(&[0.2, 0.0, 0.5, 0.3]);
        let ln_probs: Vec<f64> = d.probs().iter().map(|&p| p.ln()).collect();
        for draws in [
            vec![0usize],
            vec![0, 0, 2],
            vec![0, 2, 2, 3, 3, 3],
            vec![1],
            vec![0, 1, 1, 3],
        ] {
            let mut dense = vec![0u64; 4];
            for &i in &draws {
                dense[i] += 1;
            }
            let n = draws.len() as u64;
            let sparse = ln_pmf_of_draws(&ln_probs, ln_factorial(n), &draws);
            assert_eq!(
                sparse.to_bits(),
                d.ln_pmf(&dense).unwrap().to_bits(),
                "draws = {draws:?}"
            );
        }
    }

    #[test]
    fn zero_samples_rejected() {
        let d = mult(&[0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            monte_carlo_significance(&d, &[1, 0], 0, &mut rng),
            Err(StatsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn empty_observation_rejected() {
        let d = mult(&[0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            monte_carlo_significance(&d, &[0, 0], 10, &mut rng),
            Err(StatsError::EmptyObservation)
        ));
    }

    #[test]
    fn typical_observation_close_to_one() {
        let d = mult(&[0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(17);
        let est = monte_carlo_significance(&d, &[1, 1], 50_000, &mut rng).unwrap();
        assert!(est > 0.95, "est = {est}");
    }

    #[test]
    fn estimate_within_unit_interval() {
        let d = mult(&[0.3, 0.3, 0.4]);
        let mut rng = StdRng::seed_from_u64(23);
        for x in [[6, 0, 0], [2, 2, 2], [0, 0, 6]] {
            let est = monte_carlo_significance(&d, &x, 5_000, &mut rng).unwrap();
            assert!((0.0..=1.0).contains(&est), "x={x:?} est={est}");
        }
    }
}
