//! Exact multinomial test by full enumeration of the outcome space.
//!
//! The significance probability of an observation `x` under `Mult(N, π)` is
//!
//! ```text
//! Prs(X = x) = Σ_{y : Pr(X = y) ≤ Pr(X = x)} Pr(X = y)
//! ```
//!
//! (§3.2). The outcome space of a multinomial with `N` trials over the `s`
//! categories of positive probability has `C(N + s − 1, N)` points; the
//! enumeration below walks it depth-first, carrying the partial
//! log-probability of the prefix. A branch ends as soon as its trials are
//! spent: the categories it skips would each add `0 · ln πᵢ − ln 0! = ±0`,
//! so the leaf value is the partial sum as it stands. The walk therefore
//! takes one step per leaf (one `exp`, one add), `C(N + s − 1, N)` steps
//! in all, and [`DEFAULT_MAX_OUTCOMES`] bounds the work. The driver in
//! [`crate::test`] only dispatches here when the space is small enough
//! (queries hold ≤ 10 nodes, so `N` is tiny; `s` is what blows up),
//! otherwise it falls back to [`crate::monte_carlo`].

use crate::error::StatsError;
use crate::multinomial::Multinomial;
use crate::special::ln_factorial;

/// Relative log-space tolerance when comparing outcome probabilities.
///
/// Enumerated outcomes whose probability is *equal* to the observation's
/// must be included in the significance sum; floating-point noise in the
/// log-space accumulation would otherwise make tie inclusion arbitrary.
const LN_TIE_TOLERANCE: f64 = 1e-9;

/// Computes the exact significance probability `Prs(X = x)`.
///
/// `dist` is the context distribution `π`; `x` the query observation. The
/// number of trials is `N = Σ xᵢ`.
///
/// # Errors
///
/// - [`StatsError::LengthMismatch`] if `x` and `π` differ in length;
/// - [`StatsError::EmptyObservation`] if `N = 0` (no query node exhibits
///   the characteristic and no `None` bucket was provided upstream).
pub fn exact_significance(dist: &Multinomial, x: &[u64]) -> Result<f64, StatsError> {
    let ln_px = dist.ln_pmf(x)?; // validates length
    let n: u64 = x.iter().sum();
    if n == 0 {
        return Err(StatsError::EmptyObservation);
    }
    // If the observation is impossible under π, every outcome counted by
    // the sum also has probability ≤ 0, and all of those carry zero mass:
    // Prs = 0, i.e. maximal significance.
    if ln_px == f64::NEG_INFINITY {
        return Ok(0.0);
    }

    // Enumerate only over the support of π: categories with πᵢ = 0 can
    // never receive trials in an outcome with positive probability.
    let support: Vec<usize> = (0..dist.num_categories())
        .filter(|&i| dist.probs()[i] > 0.0)
        .collect();
    let ln_probs: Vec<f64> = support.iter().map(|&i| dist.probs()[i].ln()).collect();

    let threshold = ln_px + LN_TIE_TOLERANCE.max(ln_px.abs() * LN_TIE_TOLERANCE);
    let ln_n_fact = ln_factorial(n);

    // Depth-first walk over compositions of n into |support| parts.
    // `partial` carries Σ (yᵢ ln πᵢ − ln yᵢ!) for the prefix.
    let mut total = 0.0f64;
    enumerate(&ln_probs, 0, n, ln_n_fact, threshold, &mut total);
    Ok(total.min(1.0))
}

/// Recursive composition enumeration.
///
/// `remaining` trials are distributed over `ln_probs[idx..]`; `partial` is
/// the log-probability accumulated for categories before `idx` (including
/// the `ln N!` term). Leaves are visited in ascending lexicographic order
/// of the outcome vector.
fn enumerate(
    ln_probs: &[f64],
    idx: usize,
    remaining: u64,
    partial: f64,
    threshold: f64,
    total: &mut f64,
) {
    if remaining == 0 {
        // Every category from `idx` on receives zero trials; each would add
        // `0 · ln πᵢ − ln 0! = ±0`, which leaves `partial` unchanged.
        if partial <= threshold {
            *total += partial.exp();
        }
        return;
    }
    if idx + 1 == ln_probs.len() {
        // Last category takes everything that remains.
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

/// Upper bound on outcome-space size for which the exact test is practical.
///
/// The walk costs one step per leaf, so this caps the work of one exact
/// test at one million leaves (a few milliseconds); `N ≤ 10` over small
/// supports enumerates in microseconds.
pub const DEFAULT_MAX_OUTCOMES: u64 = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    fn mult(weights: &[f64]) -> Multinomial {
        Multinomial::from_weights(weights).unwrap()
    }

    #[test]
    fn binomial_two_sided_matches_hand_computation() {
        // Mult(2, [0.5, 0.5]): outcomes (2,0),(1,1),(0,2) with probs
        // 1/4, 1/2, 1/4. For x=(2,0): Prs = P{y : P(y) ≤ 1/4} = 1/4+1/4 = 1/2.
        let d = mult(&[0.5, 0.5]);
        let prs = exact_significance(&d, &[2, 0]).unwrap();
        assert!((prs - 0.5).abs() < 1e-12, "prs = {prs}");
        // For x=(1,1): every outcome has prob ≤ 1/2 ⇒ Prs = 1.
        let prs = exact_significance(&d, &[1, 1]).unwrap();
        assert!((prs - 1.0).abs() < 1e-12, "prs = {prs}");
    }

    #[test]
    fn skewed_binomial() {
        // Mult(3, [0.9, 0.1]), x = (0, 3): P(x) = 0.001.
        // Outcomes: (3,0)=0.729, (2,1)=0.243, (1,2)=0.027, (0,3)=0.001.
        // Prs = 0.001.
        let d = mult(&[0.9, 0.1]);
        let prs = exact_significance(&d, &[0, 3]).unwrap();
        assert!((prs - 0.001).abs() < 1e-12, "prs = {prs}");
        // x = (1, 2): Prs = 0.027 + 0.001 = 0.028.
        let prs = exact_significance(&d, &[1, 2]).unwrap();
        assert!((prs - 0.028).abs() < 1e-12, "prs = {prs}");
    }

    #[test]
    fn uniform_trinomial_includes_ties() {
        // Mult(3, uniform over 3 categories). Outcome probabilities:
        // permutations of (3,0,0): 1/27 each (3 outcomes);
        // permutations of (2,1,0): 6/27 each — wait, 3!/2! = 3 ⇒ 3 * (1/27) = 1/9...
        // P(2,1,0) = 3!/(2!1!0!) (1/3)^3 = 3/27; six such outcomes;
        // P(1,1,1) = 6/27.
        // For x = (3,0,0): Prs = 3 * 1/27 = 1/9 (ties across permutations).
        let d = mult(&[1.0, 1.0, 1.0]);
        let prs = exact_significance(&d, &[3, 0, 0]).unwrap();
        assert!((prs - 3.0 / 27.0).abs() < 1e-9, "prs = {prs}");
        // For x = (2,1,0): Prs = 6 * 3/27 + 3 * 1/27 = 21/27.
        let prs = exact_significance(&d, &[2, 1, 0]).unwrap();
        assert!((prs - 21.0 / 27.0).abs() < 1e-9, "prs = {prs}");
        // For x = (1,1,1): Prs = 1.
        let prs = exact_significance(&d, &[1, 1, 1]).unwrap();
        assert!((prs - 1.0).abs() < 1e-9, "prs = {prs}");
    }

    #[test]
    fn impossible_observation_is_maximally_significant() {
        let d = mult(&[1.0, 0.0]);
        let prs = exact_significance(&d, &[0, 2]).unwrap();
        assert_eq!(prs, 0.0);
    }

    #[test]
    fn zero_probability_categories_are_skipped_not_broken() {
        // π = (0.5, 0, 0.5); x puts mass only on the support.
        let d = mult(&[0.5, 0.0, 0.5]);
        let prs = exact_significance(&d, &[2, 0, 0]).unwrap();
        // Equivalent to binomial case above.
        assert!((prs - 0.5).abs() < 1e-12, "prs = {prs}");
    }

    #[test]
    fn empty_observation_rejected() {
        let d = mult(&[0.5, 0.5]);
        assert!(matches!(
            exact_significance(&d, &[0, 0]),
            Err(StatsError::EmptyObservation)
        ));
    }

    #[test]
    fn single_category_always_prs_one() {
        let d = mult(&[1.0]);
        let prs = exact_significance(&d, &[5]).unwrap();
        assert!((prs - 1.0).abs() < 1e-12);
    }

    #[test]
    fn significance_sums_to_at_most_one() {
        let d = mult(&[0.2, 0.3, 0.5]);
        for x in [[4, 0, 0], [0, 4, 0], [0, 0, 4], [2, 1, 1], [1, 2, 1]] {
            let prs = exact_significance(&d, &x).unwrap();
            assert!((0.0..=1.0).contains(&prs), "x={x:?} prs={prs}");
        }
    }

    #[test]
    fn likely_observation_not_significant() {
        // Observation proportional to π should have high Prs.
        let d = mult(&[0.5, 0.3, 0.2]);
        let prs = exact_significance(&d, &[5, 3, 2]).unwrap();
        assert!(prs > 0.5, "prs = {prs}");
    }
}
