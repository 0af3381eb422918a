//! Bit-parity of the significance kernels against their reference forms.
//!
//! The exact kernel ends each branch of its enumeration once the trials
//! are spent, and the Monte-Carlo kernel scores each sample sparsely over
//! its sorted draws. Both are performance rewrites, never answer changes:
//! every case here compares `f64::to_bits` with the oracles in
//! `oracle/mod.rs`, which walk every category and score dense outcome
//! vectors.

#![forbid(unsafe_code)]

mod oracle;

use nck_stats::exact::exact_significance;
use nck_stats::monte_carlo::monte_carlo_significance;
use nck_stats::multinomial::Multinomial;
use nck_stats::StatsError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest category count drawn for an exact case with `n` trials: keeps
/// the outcome space (≤ C(n + k − 1, n) ≈ 20k leaves) small enough for the
/// O(support)-per-leaf oracle in an unoptimised build.
fn exact_max_k(n: u64) -> usize {
    match n {
        1 | 2 => 80,
        3 => 40,
        4 => 24,
        _ => 16,
    }
}

/// One category weight: zero, a small integer count (equal probabilities
/// across categories make outcomes tie exactly at the threshold), or an
/// arbitrary positive float.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), (1u64..=4).prop_map(|c| c as f64), 0.01f64..10.0,]
}

/// A test case: context weights with positive mass and an observation of
/// `n ∈ 1..=max_n` trials over `k ∈ 1..=max_k(n)` categories. About one
/// case in five may place trials on zero-probability categories (an
/// impossible observation, `Prs = 0`); the rest stay on the support.
fn case(max_n: u64, max_k: fn(u64) -> usize) -> impl Strategy<Value = (Vec<f64>, Vec<u64>)> {
    (1u64..=max_n)
        .prop_flat_map(move |n| {
            (1usize..=max_k(n)).prop_flat_map(move |k| {
                (
                    prop::collection::vec(weight(), k),
                    prop::collection::vec(0usize..k, n as usize),
                    0u8..5,
                )
            })
        })
        .prop_filter("positive mass", |(w, _, _)| w.iter().any(|&v| v > 0.0))
        .prop_map(|(w, picks, mode)| {
            let support: Vec<usize> = (0..w.len()).filter(|&i| w[i] > 0.0).collect();
            let mut x = vec![0u64; w.len()];
            for p in picks {
                let i = if mode == 0 {
                    p
                } else {
                    support[p % support.len()]
                };
                x[i] += 1;
            }
            (w, x)
        })
}

fn assert_exact_parity(dist: &Multinomial, x: &[u64]) -> f64 {
    let got = exact_significance(dist, x);
    let want = oracle::exact_significance(dist, x);
    assert_eq!(
        got.clone().map(f64::to_bits),
        want.clone().map(f64::to_bits),
        "exact kernel {got:?} != oracle {want:?} for x = {x:?}, π = {:?}",
        dist.probs()
    );
    got.unwrap_or(f64::NAN)
}

fn assert_mc_parity(dist: &Multinomial, x: &[u64], samples: u32, seed: u64) -> f64 {
    let got = monte_carlo_significance(dist, x, samples, &mut StdRng::seed_from_u64(seed));
    let want = oracle::monte_carlo_significance(dist, x, samples, &mut StdRng::seed_from_u64(seed));
    assert_eq!(
        got.clone().map(f64::to_bits),
        want.clone().map(f64::to_bits),
        "MC kernel {got:?} != oracle {want:?} for x = {x:?}, samples = {samples}, seed = {seed}"
    );
    got.unwrap_or(f64::NAN)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn exact_kernel_matches_oracle_bitwise((w, x) in case(5, exact_max_k)) {
        let dist = Multinomial::from_weights(&w).unwrap();
        assert_exact_parity(&dist, &x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn monte_carlo_kernel_matches_oracle_bitwise(
        (w, x) in case(8, |_| 120),
        samples in 1u32..=400,
        seed in 0u64..u64::MAX,
    ) {
        let dist = Multinomial::from_weights(&w).unwrap();
        assert_mc_parity(&dist, &x, samples, seed);
    }
}

#[test]
fn exact_ties_at_the_threshold_match() {
    // Uniform π: every permutation of an outcome ties with it exactly, so
    // the tie tolerance decides a large share of the sum.
    let dist = Multinomial::from_weights(&[1.0; 6]).unwrap();
    for x in [
        [2, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0],
        [0, 3, 0, 0, 1, 0],
        [1, 1, 1, 1, 1, 0],
        [0, 0, 0, 0, 0, 5],
    ] {
        let prs = assert_exact_parity(&dist, &x);
        assert!((0.0..=1.0).contains(&prs), "x = {x:?} prs = {prs}");
        assert_mc_parity(&dist, &x, 2_000, 3);
    }
    // Two tied blocks of equal weight around a zero category.
    let dist = Multinomial::from_counts(&[2, 2, 0, 1, 1, 2]).unwrap();
    for x in [[1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0], [0, 2, 0, 0, 0, 1]] {
        assert_exact_parity(&dist, &x);
        assert_mc_parity(&dist, &x, 2_000, 4);
    }
}

#[test]
fn impossible_observations_match() {
    let dist = Multinomial::from_counts(&[5, 0, 3, 0]).unwrap();
    for x in [[0, 1, 0, 0], [1, 0, 0, 2], [2, 1, 1, 1]] {
        assert_eq!(assert_exact_parity(&dist, &x), 0.0);
        assert_eq!(assert_mc_parity(&dist, &x, 100, 9), 0.0);
    }
}

#[test]
fn invalid_inputs_fail_alike() {
    let dist = Multinomial::from_counts(&[1, 2, 3]).unwrap();
    assert_eq!(
        exact_significance(&dist, &[0, 0, 0]),
        Err(StatsError::EmptyObservation)
    );
    assert_exact_parity(&dist, &[0, 0, 0]);
    assert_exact_parity(&dist, &[1, 1]);
    assert_mc_parity(&dist, &[0, 0, 0], 10, 1);
    assert_mc_parity(&dist, &[1, 1], 10, 1);
    assert_mc_parity(&dist, &[1, 0, 0], 0, 1);
}

/// The context histogram shape of a heavy ContextRW query: hundreds of
/// distinct values with skewed counts, a few never seen in the context.
fn wide_histogram(k: usize) -> Vec<u64> {
    (0..k)
        .map(|i| {
            if i % 97 == 13 {
                0
            } else {
                (i % 13 + 1) as u64 * (1 + (i % 5 == 0) as u64 * 20)
            }
        })
        .collect()
}

#[test]
fn exact_worst_shape_two_trials_over_six_hundred_categories() {
    let context = wide_histogram(600);
    let dist = Multinomial::from_counts(&context).unwrap();
    // Two query nodes on two rare, distinct values: a notable observation.
    let mut x = vec![0u64; 600];
    x[1] = 1;
    x[598] = 1;
    let prs = assert_exact_parity(&dist, &x);
    assert!(prs > 0.0 && prs < 1.0, "prs = {prs}");
}

#[test]
fn monte_carlo_worst_shape_eight_trials_over_four_hundred_categories() {
    let context = wide_histogram(400);
    let dist = Multinomial::from_counts(&context).unwrap();
    let mut x = vec![0u64; 400];
    for i in [1, 2, 2, 40, 41, 150, 300, 399] {
        x[i] += 1;
    }
    let prs = assert_mc_parity(&dist, &x, 20_000, 0x005E_ED0F_0001);
    assert!(prs > 0.0 && prs <= 1.0, "prs = {prs}");
}
