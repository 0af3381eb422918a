//! Multinomial-test micro-benches: exact enumeration vs Monte-Carlo, and
//! where the crossover sits.
//!
//! Besides the small-support sweeps, the `workload_*` rows time the shapes
//! cold ContextRW queries actually produce: exact tests with N = 2 over a
//! hundred to several hundred categories, N = 4 over 40, and Monte-Carlo
//! tests with N = 8 over 400 categories at 20,000 samples. Each workload
//! shape also has an `oracle` row timing the reference kernel of
//! `crates/stats/tests/oracle` (full-depth enumeration; dense per-sample
//! scoring), so the rows show what the production kernels save. Before
//! anything is timed, every shape asserts that the production kernel and
//! the oracle agree bit for bit.

#![forbid(unsafe_code)]

#[path = "../../stats/tests/oracle/mod.rs"]
mod oracle;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nck_stats::exact::exact_significance;
use nck_stats::monte_carlo::monte_carlo_significance;
use nck_stats::multinomial::Multinomial;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monte-Carlo seed of the workload rows (the `MultinomialTest` default).
const MC_SEED: u64 = 0x005E_ED0F_0001;

/// A ContextRW-like context histogram over `k` values: skewed counts with
/// a few heavy values and a few values the context never exhibits.
fn wide_counts(k: usize) -> Vec<u64> {
    (0..k)
        .map(|i| {
            if i % 97 == 13 {
                0
            } else {
                (i % 13 + 1) as u64 * if i % 5 == 0 { 21 } else { 1 }
            }
        })
        .collect()
}

/// `n` query trials over `k` values, spread over the rarest (count-1)
/// values of [`wide_counts`] — a notable-looking observation.
fn rare_observation(k: usize, n: u64) -> Vec<u64> {
    let counts = wide_counts(k);
    let rare: Vec<usize> = (0..k).filter(|&i| counts[i] == 1).collect();
    let mut x = vec![0u64; k];
    for t in 0..n as usize {
        x[rare[(7 * t) % rare.len()]] += 1;
    }
    x
}

struct ExactShape {
    name: String,
    dist: Multinomial,
    x: Vec<u64>,
}

struct McShape {
    name: String,
    dist: Multinomial,
    x: Vec<u64>,
    samples: u32,
}

fn workload_shapes() -> (Vec<ExactShape>, Vec<McShape>) {
    let exact = [(2u64, 100usize), (2, 600), (4, 40)]
        .into_iter()
        .map(|(n, k)| ExactShape {
            name: format!("workload_exact_n{n}_k{k}"),
            dist: Multinomial::from_counts(&wide_counts(k)).unwrap(),
            x: rare_observation(k, n),
        })
        .collect();
    let mc = vec![McShape {
        name: "workload_mc_n8_k400".to_owned(),
        dist: Multinomial::from_counts(&wide_counts(400)).unwrap(),
        x: rare_observation(400, 8),
        samples: 20_000,
    }];
    (exact, mc)
}

/// Parity before timing: the kernels are performance rewrites of the
/// oracles, never answer changes.
fn assert_parity(exact: &[ExactShape], mc: &[McShape]) {
    for s in exact {
        let got = exact_significance(&s.dist, &s.x).unwrap();
        let want = oracle::exact_significance(&s.dist, &s.x).unwrap();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: exact kernel {got} != oracle {want}",
            s.name
        );
    }
    for s in mc {
        let got = monte_carlo_significance(
            &s.dist,
            &s.x,
            s.samples,
            &mut StdRng::seed_from_u64(MC_SEED),
        )
        .unwrap();
        let want = oracle::monte_carlo_significance(
            &s.dist,
            &s.x,
            s.samples,
            &mut StdRng::seed_from_u64(MC_SEED),
        )
        .unwrap();
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: MC kernel {got} != oracle {want}",
            s.name
        );
    }
}

fn bench_exact_vs_mc(c: &mut Criterion) {
    let (exact_shapes, mc_shapes) = workload_shapes();
    assert_parity(&exact_shapes, &mc_shapes);

    let mut group = c.benchmark_group("multinomial_test");
    // Exact: N = 5 observations over k categories.
    for k in [3usize, 6, 9, 12] {
        let weights: Vec<f64> = (1..=k).map(|i| i as f64).collect();
        let dist = Multinomial::from_weights(&weights).unwrap();
        let mut x = vec![0u64; k];
        x[0] = 3;
        x[k - 1] = 2;
        group.bench_with_input(BenchmarkId::new("exact_k", k), &k, |b, _| {
            b.iter(|| exact_significance(&dist, &x).unwrap())
        });
    }
    // Monte-Carlo: fixed samples, growing support.
    for k in [50usize, 200, 800] {
        let weights: Vec<f64> = (1..=k).map(|i| (i % 7 + 1) as f64).collect();
        let dist = Multinomial::from_weights(&weights).unwrap();
        let mut x = vec![0u64; k];
        x[0] = 5;
        group.bench_with_input(BenchmarkId::new("monte_carlo_k", k), &k, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(7);
                monte_carlo_significance(&dist, &x, 10_000, &mut rng).unwrap()
            })
        });
    }
    // The workload's shapes, kernel and oracle side by side.
    for s in &exact_shapes {
        group.bench_function(format!("{}/kernel", s.name), |b| {
            b.iter(|| exact_significance(&s.dist, &s.x).unwrap())
        });
        group.bench_function(format!("{}/oracle", s.name), |b| {
            b.iter(|| oracle::exact_significance(&s.dist, &s.x).unwrap())
        });
    }
    for s in &mc_shapes {
        group.bench_function(format!("{}/kernel", s.name), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(MC_SEED);
                monte_carlo_significance(&s.dist, &s.x, s.samples, &mut rng).unwrap()
            })
        });
        group.bench_function(format!("{}/oracle", s.name), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(MC_SEED);
                oracle::monte_carlo_significance(&s.dist, &s.x, s.samples, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_exact_vs_mc);
criterion_main!(benches);
