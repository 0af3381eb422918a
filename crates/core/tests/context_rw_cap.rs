//! ContextRW's selectivity guard counts the eligible candidates only when
//! a metapath has more eligible endpoints than the guard's floor. These
//! tests pin the selected contexts and the mined metapath sets of the
//! planted queries to fingerprints recorded while the count was still
//! taken eagerly for every query, so deferring it changes no answer.

#![forbid(unsafe_code)]

use nck_core::config::{ContextRwConfig, PathMiningConfig};
use nck_core::context::TypeFilter;
use nck_core::context_rw::ContextRw;
use nck_core::query::Query;
use nck_datagen::{generate, planted, queries, Dataset, GeneratorConfig};

fn dataset() -> Dataset {
    generate(&GeneratorConfig::yago_like(42).scaled(0.25))
}

fn selector(max_endpoint_fraction: f64) -> ContextRw {
    ContextRw::new(ContextRwConfig {
        mining: PathMiningConfig {
            walks: 4_000,
            max_length: 5,
            seed: 7,
            parallel: false,
        },
        num_metapaths: 5,
        type_filter: TypeFilter::CommonAncestor,
        max_endpoint_fraction,
    })
}

/// The planted actors and authors cases plus the Table-1 query sets (the
/// first of which is the planted leaders pair).
fn planted_queries() -> Vec<(String, queries::QuerySpec, usize)> {
    let mut out: Vec<(String, queries::QuerySpec, usize)> =
        [planted::actors_case(), planted::authors_case()]
            .into_iter()
            .map(|c| (c.name.to_owned(), c.query, c.context_size))
            .collect();
    out.extend(
        queries::table1_queries()
            .into_iter()
            .map(|q| (q.label(), q, 50)),
    );
    out
}

/// FNV-1a over the context (ids and score bits, in rank order) and the
/// mined metapaths (labels and counts, in rank order).
fn fingerprint(d: &Dataset, spec: &queries::QuerySpec, k: usize, fraction: f64) -> u64 {
    let graph = &d.graph;
    let query = Query::new(graph, d.query_nodes(spec)).expect("planted query resolves");
    let (ctx, mined) = selector(fraction)
        .select_with_metapaths(graph, &query, k)
        .expect("context selection succeeds");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    feed(ctx.len() as u64);
    for &(n, score) in ctx.ranked() {
        feed(u64::from(n.raw()));
        feed(score.to_bits());
    }
    feed(mined.len() as u64);
    for (metapath, count) in mined.ranked() {
        feed(metapath.len() as u64);
        for l in metapath.labels() {
            feed(u64::from(l.raw()));
        }
        feed(*count);
    }
    h
}

/// Recorded with the eager candidate count, at the default guard (0.25)
/// and with the guard at its floor (fraction 0: cap = 50 endpoints).
const EXPECTED: &[(&str, u64, u64)] = &[
    ("actors", 0x2ec13c43c849c487, 0x9b21b959910c6e6d),
    ("authors", 0xe1ad7d531c6b18f8, 0x74936f0f1b924d2b),
    ("politicians|Q|=2", 0x5d6c786c5bc2daf7, 0x5e807ce1c6fdc680),
    ("politicians|Q|=3", 0x8f34d15c9873d9b5, 0x499c4c48ed71d099),
    ("politicians|Q|=4", 0x7c7c660e61934562, 0x4a197d629edd88e6),
    ("politicians|Q|=5", 0xb859e2015d5d2ea7, 0x5982d636e96effc1),
    ("politicians|Q|=6", 0xfb74a23a0d51ea5c, 0xbb4733fed4181688),
    ("actors|Q|=2", 0x5730f353128e33e8, 0x23783177cba36128),
    ("actors|Q|=3", 0xa3b92d6eccfb590e, 0x97fcd219377d0fe9),
    ("actors|Q|=4", 0x01517d1c15c4d12f, 0x69d6a5cb2fbef57c),
    ("actors|Q|=5", 0xb4f16d0d5f61cc04, 0x9b21b959910c6e6d),
    ("actors|Q|=6", 0x4150691947439683, 0xfa9bad2160a3b6f6),
    (
        "movie contributors|Q|=2",
        0x383e8876541e3709,
        0x0a94f33cfc6f36db,
    ),
    (
        "movie contributors|Q|=3",
        0xe8c175343e77628d,
        0x5f3fbf2d5c07019e,
    ),
    (
        "movie contributors|Q|=4",
        0x951996327cf4d9a6,
        0x7336194a00776e2f,
    ),
    (
        "movie contributors|Q|=5",
        0x6796658f3ad35011,
        0x635525432f60b802,
    ),
    (
        "movie contributors|Q|=6",
        0x2408d356e22e33a6,
        0xfda993e60585541a,
    ),
];

#[test]
fn contexts_and_metapaths_match_the_eager_guard() {
    let d = dataset();
    let mut got = Vec::new();
    for (name, spec, k) in planted_queries() {
        got.push((
            name,
            fingerprint(&d, &spec, k, 0.25),
            fingerprint(&d, &spec, k, 0.0),
        ));
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(n, a, b)| format!("(\"{n}\", {a:#018x}, {b:#018x}),"))
        .collect();
    let expected: Vec<(String, u64, u64)> = EXPECTED
        .iter()
        .map(|&(n, a, b)| (n.to_owned(), a, b))
        .collect();
    assert_eq!(got, expected, "fingerprints:\n{}", rendered.join("\n"));
}
