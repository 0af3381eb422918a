//! Inputs, configurations, set-up and measurement helpers shared by the
//! workloads and the traced run.

use nck_api::{Characteristic, NckService, QueryRequest, QueryResponse};
use nck_core::config::{ContextRwConfig, FindNcConfig, PathMiningConfig};
use nck_core::context::TypeFilter;
use nck_core::findnc::SearchResult;
use nck_datagen::{generate, DomainId, GeneratorConfig};
use nck_engine::{EngineConfig, SelectorMode};
use nck_graph::{ErasedGraph, GraphAccess};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The dataset every workload runs on.
pub const DATASET_ID: &str = "yago_like(42)";
/// ContextRW mining walks. Pinned here, not borrowed from another bench,
/// so the benchmark's work stays fixed across changes elsewhere.
pub const CONTEXTRW_WALKS: usize = 30_000;
/// Queries per `NckService::batch` call in `randomwalk_batch_cold`.
pub const BATCH: usize = 32;
/// Entries of the engine's result cache (fewer than the 1,720 person
/// seeds, so `serve_zipf` evicts).
pub const RESULT_CACHE_ENTRIES: usize = 512;
/// Service builds at each end of a run; `setup_s` is the median of all
/// of them.
pub const SETUP_REPS: usize = 5;

/// Hardware threads; every workload sizes its engine and server from it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The ContextRW configuration of `contextrw_cold`: the engine bench's
/// ContextRW set-up (|M| = 5, |C| = 50, 20,000 MC samples) with a
/// 30,000-walk mining budget.
pub fn contextrw_config(threads: usize) -> EngineConfig {
    EngineConfig {
        findnc: FindNcConfig {
            context: ContextRwConfig {
                mining: PathMiningConfig {
                    walks: CONTEXTRW_WALKS,
                    max_length: 5,
                    seed: 2,
                    parallel: true,
                },
                num_metapaths: 5,
                type_filter: TypeFilter::CommonAncestor,
                max_endpoint_fraction: 0.25,
            },
            context_size: 50,
            mc_samples: 20_000,
            ..FindNcConfig::default()
        },
        selector: SelectorMode::ContextRw,
        result_cache_entries: RESULT_CACHE_ENTRIES,
        threads: Some(threads),
        ..EngineConfig::default()
    }
}

/// The RandomWalk configuration of `randomwalk_batch_cold` and
/// `serve_zipf`: |C| = 10, no type filter, 8-lane PPR blocks.
pub fn randomwalk_config(threads: usize) -> EngineConfig {
    let mut config = EngineConfig {
        selector: SelectorMode::RandomWalk,
        ppr_block_width: 8,
        result_cache_entries: RESULT_CACHE_ENTRIES,
        threads: Some(threads),
        ..EngineConfig::default()
    };
    config.findnc.context_size = 10;
    config.findnc.mc_samples = 20_000;
    config.randomwalk.type_filter = TypeFilter::None;
    config
}

/// A short digest of the configuration, printed with every row.
pub fn config_id(config: &EngineConfig) -> String {
    let text = format!(
        "{:?}|{:?}|{:?}|{}|{}",
        config.selector,
        config.findnc,
        config.randomwalk,
        config.ppr_block_width,
        config.result_cache_entries
    );
    format!("{:016x}", fnv1a(0xcbf2_9ce4_8422_2325, text.as_bytes()))
}

pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// SplitMix64: the workload's request sequences come from it, seeded by
/// `--seed`, so the same seed gives the same requests.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct indices of `0..n`, in draw order (partial Fisher–Yates).
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        let k = k.min(n);
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The benchmark's input: the dataset written once as N-Triples, plus the
/// seed entities the workloads draw requests from.
pub struct Input {
    pub nt_path: PathBuf,
    /// Actor names (the `contextrw_cold` pair population).
    pub actors: Vec<String>,
    /// Every person seed of the four domains.
    pub persons: Vec<String>,
}

impl Input {
    pub fn generate(dir: &Path) -> std::io::Result<Input> {
        let dataset = generate(&GeneratorConfig::yago_like(42));
        let names = |id: DomainId| -> Vec<String> {
            dataset
                .domain(id)
                .map(|d| {
                    d.members
                        .iter()
                        .map(|&n| dataset.graph.node_name(n).to_owned())
                        .collect()
                })
                .unwrap_or_default()
        };
        let actors = names(DomainId::Actors);
        // A person can belong to two domains; each counts once.
        let mut seen = std::collections::HashSet::new();
        let persons: Vec<String> = DomainId::ALL
            .iter()
            .flat_map(|&d| names(d))
            .filter(|name| seen.insert(name.clone()))
            .collect();
        std::fs::create_dir_all(dir)?;
        let nt_path = dir.join(format!("yago_like_42.{}.nt", std::process::id()));
        let store = nck_store::graph_view::to_triple_store(&dataset.graph);
        let mut file = std::io::BufWriter::new(std::fs::File::create(&nt_path)?);
        nck_store::ntriples::write_ntriples(&store, &mut file)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        std::io::Write::flush(&mut file)?;
        Ok(Input {
            nt_path,
            actors,
            persons,
        })
    }
}

impl Drop for Input {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.nt_path);
    }
}

/// `f` over `items` on `nproc` scoped threads (the oracles run outside
/// the timed region on every core). Output order follows `items`.
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = nproc();
    let f = &f;
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    (w..items.len())
                        .step_by(workers)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut out: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    out.sort_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Ingests the N-Triples file through the service builder.
pub fn build_service(input: &Input, config: &EngineConfig) -> Result<NckService, String> {
    NckService::builder()
        .ntriples(&input.nt_path)
        .engine(config.clone())
        .build()
        .map_err(|e| format!("service build failed: {e}"))
}

/// Builds the service [`SETUP_REPS`] times and keeps the last; returns it
/// with every build's seconds.
pub fn timed_setup(input: &Input, config: &EngineConfig) -> Result<(NckService, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(2 * SETUP_REPS);
    let mut service = None;
    for _ in 0..SETUP_REPS {
        drop(service.take());
        let started = Instant::now();
        service = Some(build_service(input, config)?);
        secs.push(started.elapsed().as_secs_f64());
    }
    let service = service.ok_or("no set-up repetition ran")?;
    Ok((service, secs))
}

/// The second half of `setup_s`: [`SETUP_REPS`] more builds at the end of
/// the run, once its own service is dropped, so the builds see the same
/// allocator state as the first half. Returns the median of both halves.
///
/// The host's speed drifts over tens of seconds. Builds taken only at the
/// start of a run sample one moment of it; with half of them at the end,
/// the median spans the run as the other metrics do.
pub fn setup_median(
    input: &Input,
    config: &EngineConfig,
    mut secs: Vec<f64>,
) -> Result<f64, String> {
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let service = build_service(input, config)?;
        secs.push(started.elapsed().as_secs_f64());
        drop(service);
    }
    Ok(median(&mut secs))
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of ascending `sorted` (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The response the service must give for `request` when the pipeline
/// answers `result` (the oracle side of every output check).
pub fn expected_response(
    graph: &ErasedGraph,
    request: &QueryRequest,
    result: &SearchResult,
) -> QueryResponse {
    QueryResponse {
        query: request.display(),
        context_size: result.context.len(),
        context: result
            .context
            .nodes()
            .map(|n| graph.node_name(n).to_owned())
            .collect(),
        characteristics: result
            .characteristics
            .iter()
            .map(|c| Characteristic {
                label: graph.label_name(c.label).to_owned(),
                score: c.score,
                notable: c.notable(),
                inst_p: c.inst_significance,
                card_p: c.card_significance,
            })
            .collect(),
        secs: None,
    }
}

/// Response equality with the wall-clock field cleared.
pub fn same_answer(got: &QueryResponse, want: &QueryResponse) -> bool {
    let mut got = got.clone();
    let mut want = want.clone();
    got.secs = None;
    want.secs = None;
    got == want
}
