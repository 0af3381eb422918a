//! The three timed workloads. Each builds its service, warms up, answers a
//! fixed seeded request set while timing every request, and then checks
//! every answer against an oracle computed in the same process outside
//! the timed region.
//!
//! The host is shared: back-to-back runs of identical work vary by a tenth
//! in wall time, in bursts of a few seconds. So each run measures its work
//! in parts: the cold workloads replay one request set in [`ROUNDS`]
//! rounds (throughput is the median round's; the latency percentiles are
//! taken over every timed request of every round), and `serve_zipf` splits
//! its stream into [`SLICES`] consecutive slices and reports medians over
//! them.

use crate::common::{
    contextrw_config, expected_response, median, parallel_map, peak_rss_mb, percentile,
    randomwalk_config, same_answer, setup_median, timed_setup, Input, Rng, Zipf, BATCH,
};
use nck_api::{NckService, QueryRequest, QueryResponse};
use nck_core::findnc::FindNc;
use nck_core::ppr::RandomWalkSelector;
use nck_core::query::Query;
use nck_engine::EngineConfig;
use nck_serve::{serve, ClientError, ServeClient, ServeConfig, ServeMetrics, ServerHandle};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds per run of the cold workloads.
pub const ROUNDS: usize = 4;
/// Slices per run of `serve_zipf`. Its tail is the median over slices of
/// each slice's eleventh-largest latency (the 98th percentile at 469
/// requests, 16 seconds). Over a whole run's requests the eleventh-largest
/// falls among the host's scheduling stalls: at 7,920 requests on a 2-core
/// VM it spread 0.18 (IQR/median) across ten seeds, against 0.05 for the
/// median of 5 slices and 0.03 for the median of 15.
pub const SLICES: usize = 15;

/// Latency percentiles over one set of samples.
#[derive(Clone, Copy)]
pub struct Latency {
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// The tail's percentile: the highest with ten samples beyond it.
    pub tail_percentile: f64,
    pub samples: usize,
}

impl Latency {
    pub fn of(samples: &[f64]) -> Latency {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_percentile = if n > 20 {
            100.0 * (n - 10) as f64 / n as f64
        } else {
            50.0
        };
        Latency {
            p50_ms: percentile(&sorted, 50.0),
            tail_ms: percentile(&sorted, tail_percentile),
            tail_percentile,
            samples: n,
        }
    }

    /// Field-wise median over slices.
    fn median_of(slices: &[Latency]) -> Latency {
        let field = |f: fn(&Latency) -> f64| median(&mut slices.iter().map(f).collect::<Vec<_>>());
        Latency {
            p50_ms: field(|l| l.p50_ms),
            tail_ms: field(|l| l.tail_ms),
            tail_percentile: field(|l| l.tail_percentile),
            samples: slices.iter().map(|l| l.samples).min().unwrap_or(0),
        }
    }
}

/// What one timed run measured.
pub struct Run {
    /// Queries attempted and answered (a batch request counts its queries).
    pub attempted: u64,
    pub answered: u64,
    /// Median over rounds of answered queries per second of wall time.
    pub throughput_qps: f64,
    pub latency: Latency,
    /// Median build seconds, plus the server bind for `serve_zipf`.
    pub setup_s: f64,
    /// Peak resident set at the end of the timed requests, before the
    /// output check (whose oracle threads would add to it).
    pub peak_rss_mb: f64,
    /// Output-check failures; any one fails the run.
    pub mismatches: Vec<String>,
    pub nodes: usize,
    pub edges: usize,
    pub config: EngineConfig,
}

impl Run {
    fn new(service: &NckService, config: EngineConfig) -> Run {
        Run {
            attempted: 0,
            answered: 0,
            throughput_qps: f64::NAN,
            latency: Latency::of(&[]),
            setup_s: f64::NAN,
            peak_rss_mb: f64::NAN,
            mismatches: Vec::new(),
            nodes: service.num_nodes(),
            edges: service.num_stored_edges(),
            config,
        }
    }

    fn mismatch(&mut self, what: String) {
        // The first few are enough to diagnose; the count is what fails.
        if self.mismatches.len() < 8 {
            eprintln!("output check: {what}");
        }
        self.mismatches.push(what);
    }
}

fn request(names: &[&str]) -> QueryRequest {
    QueryRequest::entities(names.iter().copied())
}

/// Items per run: `seconds` times a nominal rate of the workload on a
/// 2-core host, so the request set is fixed for a given `--seconds`.
pub fn request_count(seconds: u64, per_second: f64, floor: usize) -> usize {
    ((seconds as f64 * per_second).round() as usize).max(floor)
}

/// The `contextrw_cold` pair set: the first `n` of one fixed sequence of
/// distinct unordered actor pairs, and `warmup` further pairs of it.
///
/// The set is fixed, not drawn per seed (the seed orders the rounds): the
/// cost of a ContextRW query varies tenfold from pair to pair, so a
/// per-seed sample of ~100 pairs moved throughput and tail by a fifth
/// between seeds.
pub fn actor_pairs(
    input: &Input,
    n: usize,
    warmup: usize,
) -> (Vec<QueryRequest>, Vec<QueryRequest>) {
    let actors = &input.actors;
    let mut rng = Rng::new(0x00C0_FFEE, 1);
    let mut seen = std::collections::HashSet::new();
    let mut pairs = Vec::with_capacity(n + warmup);
    while pairs.len() < n + warmup {
        let a = rng.below(actors.len());
        let b = rng.below(actors.len());
        if a != b && seen.insert((a.min(b), a.max(b))) {
            pairs.push(request(&[&actors[a], &actors[b]]));
        }
    }
    let warm = pairs.split_off(n);
    (pairs, warm)
}

/// `n` batches of [`BATCH`] distinct person seeds.
pub fn person_batches(input: &Input, rng: &mut Rng, n: usize) -> Vec<Vec<QueryRequest>> {
    (0..n)
        .map(|_| {
            rng.distinct(input.persons.len(), BATCH)
                .into_iter()
                .map(|i| request(&[&input.persons[i]]))
                .collect()
        })
        .collect()
}

/// Zipf(1.0) key sequences over the person seeds: the rank order is a
/// seeded permutation, so each seed has its own hot keys.
pub struct ZipfKeys {
    requests: Vec<QueryRequest>,
    zipf: Zipf,
    rng: Rng,
}

impl ZipfKeys {
    pub fn new(input: &Input, seed: u64) -> ZipfKeys {
        let mut rng = Rng::new(seed, 3);
        let requests = rng
            .distinct(input.persons.len(), input.persons.len())
            .into_iter()
            .map(|i| request(&[&input.persons[i]]))
            .collect();
        ZipfKeys {
            requests,
            zipf: Zipf::new(input.persons.len(), 1.0),
            rng,
        }
    }

    /// The next `n` keys, as indices into [`Self::request`].
    pub fn draw(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.zipf.sample(&mut self.rng)).collect()
    }

    pub fn request(&self, key: usize) -> &QueryRequest {
        &self.requests[key]
    }
}

/// Replays `items` cold, caches cleared before each, in [`ROUNDS`]
/// seed-shuffled rounds through `answer`, which returns the answer and
/// the number of queries it carries. Returns every round's answers
/// (indexed like `items`), the latency of every answered request of every
/// round, and the median round throughput.
///
/// The latencies are pooled, not reduced to one median per item first.
/// With 2 engine threads on a 2-core VM one ContextRW pair's latency
/// varies by up to half between rounds, and the tail's few heaviest pairs
/// then decided it alone: the eleventh-largest per-pair median spread 0.11
/// (sd/median) over resampled rounds of one run, against 0.03 for the
/// eleventh-largest of the pooled requests.
fn rounds<T, A>(
    run: &mut Run,
    service: &NckService,
    seed: u64,
    items: &[T],
    answer: impl Fn(&T) -> (Option<A>, u64),
) -> (Vec<Vec<Option<A>>>, Vec<f64>, f64) {
    let mut answers: Vec<Vec<Option<A>>> = (0..items.len()).map(|_| Vec::new()).collect();
    let mut latencies = Vec::with_capacity(ROUNDS * items.len());
    let mut throughput = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut answered = 0;
        let mut wall_s = 0.0;
        for i in Rng::new(seed, 10 + round as u64).distinct(items.len(), items.len()) {
            service.engine().clear_caches();
            let started = Instant::now();
            let (got, queries) = answer(&items[i]);
            let secs = started.elapsed().as_secs_f64();
            wall_s += secs;
            run.attempted += queries;
            if got.is_some() {
                run.answered += queries;
                answered += queries;
                latencies.push(secs * 1e3);
            }
            answers[i].push(got);
        }
        throughput.push(answered as f64 / wall_s.max(1e-12));
    }
    (answers, latencies, median(&mut throughput))
}

pub fn contextrw_cold(input: &Input, seed: u64, seconds: u64) -> Result<Run, String> {
    let config = contextrw_config(crate::common::nproc());
    let (service, setup) = timed_setup(input, &config)?;
    let mut run = Run::new(&service, config.clone());
    let (pairs, warm) = actor_pairs(input, request_count(seconds, 13.0 / ROUNDS as f64, 25), 3);
    for request in &warm {
        let _ = service.query(request);
    }
    let (answers, latencies, throughput) = rounds(&mut run, &service, seed, &pairs, |r| {
        (service.query(r).ok(), 1)
    });
    run.latency = Latency::of(&latencies);
    run.throughput_qps = throughput;
    run.peak_rss_mb = peak_rss_mb();

    let findnc = FindNc::new(config.findnc.clone());
    let graph = service.graph();
    let oracle = parallel_map(&pairs, |request| {
        Query::by_names(graph, request.entities.iter().map(String::as_str))
            .ok()
            .and_then(|query| findnc.discover(graph, &query).ok())
            .map(|r| expected_response(graph, request, &r))
    });
    for ((request, got), want) in pairs.iter().zip(&answers).zip(&oracle) {
        for got in got {
            check(&mut run, request, got.as_ref(), want.as_ref());
        }
    }
    drop(service);
    run.setup_s = setup_median(input, &config, setup)?;
    Ok(run)
}

pub fn randomwalk_batch_cold(input: &Input, seed: u64, seconds: u64) -> Result<Run, String> {
    let config = randomwalk_config(crate::common::nproc());
    let (service, setup) = timed_setup(input, &config)?;
    let mut run = Run::new(&service, config.clone());
    let n = request_count(seconds, 6.5 / ROUNDS as f64, 25);
    const WARMUP: usize = 2;
    let mut warm = person_batches(input, &mut Rng::new(seed, 2), WARMUP + n);
    let batches = warm.split_off(WARMUP);
    for batch in &warm {
        service.engine().clear_caches();
        let _ = service.batch(batch);
    }
    let (answers, latencies, throughput) = rounds(&mut run, &service, seed, &batches, |b| {
        (service.batch(b).ok(), b.len() as u64)
    });
    run.latency = Latency::of(&latencies);
    run.throughput_qps = throughput;
    run.peak_rss_mb = peak_rss_mb();

    // Oracle: the unblocked selector with sequential summation plus the
    // plain FindNC scoring path, once per distinct seed.
    let graph = service.graph();
    let findnc = FindNc::new(config.findnc.clone());
    let mut rw = config.randomwalk.clone();
    rw.ppr.parallel = false;
    let weights = service
        .engine()
        .edge_weights()
        .ok_or("RandomWalk engine without a weight table")?;
    let selector = RandomWalkSelector::with_weights(rw, weights);
    let mut distinct: Vec<&QueryRequest> = batches.iter().flatten().collect();
    distinct.sort_by_key(|r| r.display());
    distinct.dedup_by_key(|r| r.display());
    let answers_of = parallel_map(&distinct, |request| {
        Query::by_names(graph, request.entities.iter().map(String::as_str))
            .ok()
            .and_then(|q| findnc.discover_with_selector(graph, &q, &selector).ok())
            .map(|r| expected_response(graph, request, &r))
    });
    let oracle: HashMap<String, Option<QueryResponse>> = distinct
        .iter()
        .map(|r| r.display())
        .zip(answers_of)
        .collect();
    for (batch, got) in batches.iter().zip(&answers) {
        for got in got {
            match got {
                Some(responses) if responses.len() != batch.len() => run.mismatch(format!(
                    "{} answers to a batch of {}",
                    responses.len(),
                    batch.len()
                )),
                Some(responses) => {
                    for (request, got) in batch.iter().zip(responses) {
                        check(
                            &mut run,
                            request,
                            Some(got),
                            oracle[&request.display()].as_ref(),
                        );
                    }
                }
                // `NckService::batch` fails as a whole when one of its
                // queries fails, so at least one oracle query must fail
                // too. The batch's queries are unanswered, not wrong.
                None if batch.iter().any(|r| oracle[&r.display()].is_none()) => {}
                None => run.mismatch(format!(
                    "a batch of {} failed, but the oracle answers all of them",
                    batch.len()
                )),
            }
        }
    }
    drop(service);
    run.setup_s = setup_median(input, &config, setup)?;
    Ok(run)
}

/// Per-connection tallies of a closed-loop client.
#[derive(Default)]
pub struct ClientTally {
    pub sent: u64,
    pub ok: u64,
    /// `(key, latency ms, answer or error code)` per request, in send
    /// order.
    pub samples: Vec<(usize, f64, Result<QueryResponse, String>)>,
}

/// Sends `keys` over `conns` closed-loop connections (connection `c`
/// takes every `conns`-th key) and returns the tallies and wall seconds.
pub fn closed_loop(
    addr: std::net::SocketAddr,
    keys: &ZipfKeys,
    order: &[usize],
    conns: usize,
) -> Result<(Vec<ClientTally>, f64), String> {
    let started = Instant::now();
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || -> Result<ClientTally, String> {
                    let mut client =
                        ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut tally = ClientTally::default();
                    for &key in order.iter().skip(c).step_by(conns) {
                        let t = Instant::now();
                        let answer = client.call(keys.request(key));
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        tally.sent += 1;
                        if answer.is_ok() {
                            tally.ok += 1;
                        }
                        let answer = answer.map_err(|e| match e {
                            ClientError::Api(body) => body.error,
                            ClientError::Io(_) => "connection".to_string(),
                            ClientError::Protocol(_) => "protocol".to_string(),
                        });
                        tally.samples.push((key, ms, answer));
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((tallies, started.elapsed().as_secs_f64()))
}

/// Responses the clients read (answers and typed errors alike); a
/// transport failure may have lost its response.
pub fn received(tallies: &[ClientTally]) -> u64 {
    tallies
        .iter()
        .flat_map(|t| &t.samples)
        .filter(|s| !matches!(&s.2, Err(code) if code == "connection"))
        .count() as u64
}

/// The server's counters once they account for the `received` responses
/// read since it started. A worker counts a response after writing it,
/// and a request as admitted after queueing it, so a snapshot taken as
/// soon as the clients have read their last responses can miss a few.
pub fn settled_metrics(server: &ServerHandle, received: u64) -> Result<ServeMetrics, String> {
    let started = Instant::now();
    loop {
        let m = server.metrics();
        let responses = m.responses_ok + m.responses_err;
        if responses >= received && m.requests_admitted + m.requests_shed >= received {
            return Ok(m);
        }
        if started.elapsed() > Duration::from_secs(10) {
            return Err(format!(
                "server counted {responses} responses to {received} the clients read"
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Result-cache hit rate over a window, from two engine snapshots.
pub fn hit_rate(before: &nck_engine::EngineStats, after: &nck_engine::EngineStats) -> f64 {
    let hits = after.result.hits - before.result.hits;
    let misses = after.result.misses - before.result.misses;
    hits as f64 / (hits + misses).max(1) as f64
}

/// Warm-up: windows of Zipf traffic until the result-cache hit rate
/// moves by less than two points between windows. Returns the responses
/// the clients read.
pub fn warm_up(
    service: &NckService,
    addr: std::net::SocketAddr,
    keys: &mut ZipfKeys,
    conns: usize,
) -> Result<u64, String> {
    const WINDOW: usize = 512;
    const MAX_WINDOWS: usize = 8;
    let mut last = f64::NAN;
    let mut read = 0;
    for _ in 0..MAX_WINDOWS {
        let order = keys.draw(WINDOW);
        let before = service.raw_stats();
        let (tallies, _) = closed_loop(addr, keys, &order, conns)?;
        read += received(&tallies);
        let rate = hit_rate(&before, &service.raw_stats());
        if (rate - last).abs() < 0.02 {
            break;
        }
        last = rate;
    }
    Ok(read)
}

pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: crate::common::nproc(),
        ..ServeConfig::default()
    }
}

/// Clients of `serve_zipf`.
pub const CONNECTIONS: usize = 2;

pub fn serve_zipf(input: &Input, seed: u64, seconds: u64) -> Result<Run, String> {
    // The server's `nproc` workers already fill the cores, so each query
    // gets `nproc / workers` engine threads. At `nproc` threads per query
    // two concurrent misses ran four compute threads on two cores: in six
    // interleaved pairs of runs on a 2-core VM that gave 11% lower
    // throughput (median 408 against 458 per second) and a tail that
    // spread 0.18 (IQR/median) against 0.12.
    let threads = (crate::common::nproc() / serve_config().workers).max(1);
    let config = randomwalk_config(threads);
    // Set-up is the ingestion plus the server bind.
    let (service, setup) = timed_setup(input, &config)?;
    let service = Arc::new(service);
    let started = Instant::now();
    let server = serve(Arc::clone(&service), "127.0.0.1:0", serve_config())
        .map_err(|e| format!("bind: {e}"))?;
    let bind_s = started.elapsed().as_secs_f64();
    let mut run = Run::new(&service, config.clone());
    let addr = server.addr();
    let mut keys = ZipfKeys::new(input, seed);
    let warm_read = warm_up(&service, addr, &mut keys, CONNECTIONS)?;

    let per_slice = request_count(seconds, 440.0 / SLICES as f64, 200);
    let m0 = settled_metrics(&server, warm_read)?;
    let mut tallies = Vec::new();
    let mut throughput = Vec::with_capacity(SLICES);
    let mut latency = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        let order = keys.draw(per_slice);
        let (slice, wall_s) = closed_loop(addr, &keys, &order, CONNECTIONS)?;
        let ok: u64 = slice.iter().map(|t| t.ok).sum();
        throughput.push(ok as f64 / wall_s.max(1e-12));
        let answered: Vec<f64> = slice
            .iter()
            .flat_map(|t| &t.samples)
            .filter(|s| s.2.is_ok())
            .map(|s| s.1)
            .collect();
        latency.push(Latency::of(&answered));
        tallies.extend(slice);
    }
    let m1 = server.shutdown();
    run.peak_rss_mb = peak_rss_mb();
    run.throughput_qps = median(&mut throughput);
    run.latency = Latency::median_of(&latency);
    cross_check(&mut run, &tallies, &m0, &m1);

    let mut distinct: Vec<usize> = tallies
        .iter()
        .flat_map(|t| t.samples.iter().map(|&(key, _, _)| key))
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    let answers_of = parallel_map(&distinct, |&key| service.query(keys.request(key)).ok());
    let oracle: HashMap<usize, Option<QueryResponse>> =
        distinct.into_iter().zip(answers_of).collect();
    for tally in &tallies {
        run.attempted += tally.sent;
        run.answered += tally.ok;
        for (key, _, got) in &tally.samples {
            let got = match got {
                Ok(response) => Some(response),
                // A pipeline failure must be the in-process answer too.
                Err(code) if code == "pipeline" => None,
                // Sheds, deadline misses and transport failures are
                // unanswered requests, not wrong answers.
                Err(_) => continue,
            };
            check(&mut run, keys.request(*key), got, oracle[key].as_ref());
        }
    }
    drop(service);
    run.setup_s = setup_median(input, &config, setup)? + bind_s;
    Ok(run)
}

/// The server's counters must account for every request the clients
/// sent: admitted + shed = sent, and `responses_ok` = client successes.
fn cross_check(run: &mut Run, tallies: &[ClientTally], m0: &ServeMetrics, m1: &ServeMetrics) {
    let sent: u64 = tallies.iter().map(|t| t.sent).sum();
    let ok: u64 = tallies.iter().map(|t| t.ok).sum();
    let admitted = m1.requests_admitted - m0.requests_admitted;
    let shed = m1.requests_shed - m0.requests_shed;
    if admitted + shed != sent {
        run.mismatch(format!(
            "server admitted {admitted} + shed {shed} != {sent} sent"
        ));
    }
    let responses_ok = m1.responses_ok - m0.responses_ok;
    if responses_ok != ok {
        run.mismatch(format!(
            "server responses_ok {responses_ok} != {ok} client successes"
        ));
    }
}

/// One output check: both sides answered identically, or both failed.
fn check(
    run: &mut Run,
    request: &QueryRequest,
    got: Option<&QueryResponse>,
    want: Option<&QueryResponse>,
) {
    let agree = match (got, want) {
        (Some(got), Some(want)) => same_answer(got, want),
        (None, None) => true,
        _ => false,
    };
    if !agree {
        run.mismatch(format!(
            "{}: answer differs from the oracle (answered: {}, oracle answered: {})",
            request.display(),
            got.is_some(),
            want.is_some()
        ));
    }
}
