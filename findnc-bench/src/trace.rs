//! The traced run: replays a workload's requests stage by stage through
//! the layers' public functions, recording a span around every call, and
//! derives the per-layer metrics from the spans.
//!
//! The replay runs with the engine's thread cap at 1, so spans of one
//! request nest on one timeline and a layer's time is its
//! single-thread (sequential-equivalent) cost. Each computed request is
//! answered twice from the same cache state, untraced (through the engine,
//! or through the server for `serve_zipf`) and traced stage by stage; the
//! traced answers must be `rankings_equal` to the untraced ones.

use crate::common::{
    build_service, contextrw_config, nproc, randomwalk_config, Input, Rng, SETUP_REPS,
};
use crate::workloads::{
    actor_pairs, closed_loop, person_batches, received, request_count, serve_config,
    settled_metrics, warm_up, ZipfKeys, CONNECTIONS,
};
use crate::{Metric, Report};
use nck_api::{rankings_equal, NckService, QueryRequest};
use nck_core::config::FindNcConfig;
use nck_core::context::{top_k_context, CandidateFilter, Context};
use nck_core::context_rw::ContextRw;
use nck_core::discrimination::{DiscriminationScore, Trigger};
use nck_core::findnc::{NotableCharacteristic, SearchResult};
use nck_core::metapath::PathMiner;
use nck_core::ppr::{PersonalizedPageRank, PprWorkspace};
use nck_core::query::Query;
use nck_core::score::ScoreVec;
use nck_core::sweep::{self, ScoringWorkspace};
use nck_engine::{EngineConfig, EngineStats, QueryEngine};
use nck_graph::{ErasedGraph, GraphAccess, NodeId};
use nck_serve::{serve, ServeClient, ServeMetrics, WireResponse};
use nck_stats::{MultinomialTest, TestMethod, TestOutcome};
use std::collections::{BTreeSet, HashMap};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span: a call into a layer.
struct Span {
    name: &'static str,
    request: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder, written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, request: usize, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            request,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    fn ms(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start).as_secs_f64() * 1e3
    }

    /// Total self time (duration minus direct children) per span name.
    fn self_ms(&self) -> HashMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                child_ms[parent] += self.ms(id);
            }
        }
        let mut out = HashMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            *out.entry(span.name).or_insert(0.0) += self.ms(id) - child_ms[id];
        }
        out
    }

    /// Total duration of the spans named `name`.
    fn total_ms(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.ms(id))
            .sum()
    }

    /// Writes the spans as JSON lines.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {}, \
                 \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                s.request,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// Work counted at the layer boundaries.
#[derive(Default)]
struct Counts {
    labels: u64,
    exact_tests: u64,
    mc_tests: u64,
    mc_samples: u64,
    ppr_lanes: u64,
}

/// FindNC's scoring half (sweep, tests, ranking), replayed call by call
/// exactly as `FindNc::discover_with_context_ws` composes it.
struct Scorer {
    config: FindNcConfig,
    test: MultinomialTest,
    ws: ScoringWorkspace,
}

impl Scorer {
    fn new(config: &FindNcConfig) -> Result<Scorer, String> {
        if !config.score_sweep {
            return Err("the traced replay follows the scoring-sweep path".into());
        }
        let test = MultinomialTest::new()
            .with_alpha(config.alpha)
            .map_err(|e| e.to_string())?
            .with_samples(config.mc_samples)
            .with_seed(config.mc_seed);
        Ok(Scorer {
            config: config.clone(),
            test,
            ws: ScoringWorkspace::new(),
        })
    }

    fn test(
        &self,
        tr: &mut Tracer,
        counts: &mut Counts,
        (request, parent): (usize, usize),
        context: &[u64],
        observed: &[u64],
    ) -> Result<TestOutcome, String> {
        let id = tr.open("stats.exact", request, Some(parent));
        let outcome = self.test.test_counts(context, observed);
        tr.close(id);
        let outcome = outcome.map_err(|e| e.to_string())?;
        if outcome.method == TestMethod::MonteCarlo {
            tr.spans[id].name = "stats.mc";
            counts.mc_tests += 1;
            counts.mc_samples += u64::from(self.config.mc_samples);
        } else {
            counts.exact_tests += 1;
        }
        Ok(outcome)
    }

    fn score(
        &mut self,
        tr: &mut Tracer,
        counts: &mut Counts,
        (request, parent): (usize, usize),
        graph: &ErasedGraph,
        query: &Query,
        context: &Context,
    ) -> Result<SearchResult, String> {
        if context.is_empty() {
            return Err("empty context".into());
        }
        let at = Some(parent);
        let dists = tr.time("core.sweep", request, at, || {
            sweep::build_all(
                graph,
                query,
                context,
                self.config.instance_support,
                self.config.card_binning,
                self.config.include_inverse_labels,
                &mut self.ws,
            )
        });
        counts.labels += dists.len() as u64;
        let mut scored = Vec::with_capacity(dists.len());
        for d in &dists {
            let inst = if d.inst_q_total() == 0 || d.inst_c_total() == 0 {
                None
            } else {
                Some(self.test(tr, counts, (request, parent), &d.inst_c, &d.inst_q)?)
            };
            let card = self.test(tr, counts, (request, parent), &d.card_c, &d.card_q)?;
            let inst_score = inst.map_or(0.0, |t| t.score);
            scored.push(DiscriminationScore {
                score: inst_score.max(card.score),
                inst_score,
                card_score: card.score,
                trigger: if inst_score >= card.score {
                    Trigger::Instance
                } else {
                    Trigger::Cardinality
                },
                inst_significance: inst.map(|t| t.significance),
                card_significance: Some(card.significance),
            });
        }
        Ok(tr.time("core.rank", request, at, || {
            let mut characteristics: Vec<NotableCharacteristic> = dists
                .into_iter()
                .zip(scored)
                .map(|(d, s)| NotableCharacteristic {
                    label: d.label,
                    score: s.score,
                    significance: s.significance(),
                    trigger: s.trigger,
                    inst_significance: s.inst_significance,
                    card_significance: s.card_significance,
                    distributions: d,
                })
                .collect();
            characteristics.sort_by(|a, b| {
                a.score
                    .is_nan()
                    .cmp(&b.score.is_nan())
                    .then(b.score.total_cmp(&a.score))
                    .then(
                        a.significance
                            .unwrap_or(1.0)
                            .total_cmp(&b.significance.unwrap_or(1.0)),
                    )
                    .then(a.label.cmp(&b.label))
            });
            SearchResult {
                characteristics,
                context: context.clone(),
            }
        }))
    }
}

/// The RandomWalk context of one query from precomputed per-seed
/// vectors, summed in seed order as the engine does.
fn randomwalk_context(
    graph: &ErasedGraph,
    query: &Query,
    vectors: &HashMap<NodeId, ScoreVec>,
    config: &EngineConfig,
) -> Result<Context, String> {
    let mut acc = ScoreVec::zeros(graph.num_nodes());
    for seed in query.nodes() {
        acc.add_assign(&vectors[seed]);
    }
    let filter = CandidateFilter::new(graph, query, config.randomwalk.type_filter);
    top_k_context(
        graph,
        query,
        acc.iter(),
        &filter,
        config.findnc.context_size,
    )
    .map_err(|e| e.to_string())
}

/// Engine counters accumulated over the untraced requests.
#[derive(Default)]
struct EngineCounts {
    hits: u64,
    misses: u64,
    evictions: u64,
    coalesced: u64,
    block_runs: u64,
    label_sweeps: u64,
}

impl EngineCounts {
    fn add(&mut self, before: &EngineStats, after: &EngineStats) {
        let coalesced =
            |s: &EngineStats| s.result_coalesced + s.context_coalesced + s.ppr_coalesced;
        self.hits += after.result.hits - before.result.hits;
        self.misses += after.result.misses - before.result.misses;
        self.evictions += after.result.evictions - before.result.evictions;
        self.coalesced += coalesced(after) - coalesced(before);
        self.block_runs += after.ppr_block_runs - before.ppr_block_runs;
        self.label_sweeps += after.label_sweeps - before.label_sweeps;
    }
}

/// Everything a traced run accumulates besides the spans.
#[derive(Default)]
struct Tally {
    requests: usize,
    failed: u64,
    mismatches: u64,
    counts: Counts,
    engine: EngineCounts,
    serve: ServeMetrics,
    /// Untraced end-to-end time of the traced requests, summed.
    untraced_ms: f64,
    /// Engine time minus core-stage time, summed over requests.
    engine_overhead_ms: f64,
    /// Span time attributed to a layer, summed over traced requests.
    attributed_ms: f64,
    api_ms: Vec<f64>,
    api_bytes: Vec<f64>,
    hop_ms: Vec<f64>,
}

impl Tally {
    fn check(&mut self, equal: bool, what: &str) {
        if !equal {
            if self.mismatches < 8 {
                eprintln!("traced answer differs from the untraced one: {what}");
            }
            self.mismatches += 1;
        }
    }

    /// Times `NckService::query` against `QueryEngine::run` on a key the
    /// engine has cached: the difference is the API layer's encoding.
    /// Returns both times in ms.
    fn api_probe(
        &mut self,
        service: &NckService,
        request: &QueryRequest,
        query: &Query,
    ) -> Option<(f64, f64)> {
        let started = Instant::now();
        let response = service.query(request).ok()?;
        let query_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let _ = service.engine().run(query);
        let run_ms = started.elapsed().as_secs_f64() * 1e3;
        self.api_ms.push(query_ms - run_ms);
        self.api_bytes
            .push(WireResponse::ok(0, response).to_payload().len() as f64);
        Some((query_ms, run_ms))
    }
}

fn resolve(graph: &ErasedGraph, request: &QueryRequest) -> Result<Query, String> {
    Query::by_names(graph, request.entities.iter().map(String::as_str)).map_err(|e| e.to_string())
}

/// Median seconds of the three set-up layers behind
/// `NckService::builder().ntriples(..).build()`.
fn setup_layers(input: &Input, config: &EngineConfig) -> Result<[f64; 3], String> {
    let mut times: [Vec<f64>; 3] = Default::default();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let file = std::fs::File::open(&input.nt_path).map_err(|e| e.to_string())?;
        let store = nck_store::ntriples::read_ntriples(std::io::BufReader::new(file))
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let graph = nck_store::graph_view::to_knowledge_graph(&store);
        let t2 = Instant::now();
        let engine =
            QueryEngine::new(ErasedGraph::new(graph), config.clone()).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        drop(engine);
        times[0].push((t1 - t0).as_secs_f64());
        times[1].push((t2 - t1).as_secs_f64());
        times[2].push((t3 - t2).as_secs_f64());
    }
    Ok(times.map(|mut t| crate::common::median(&mut t)))
}

fn contextrw(
    input: &Input,
    seed: u64,
    seconds: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(NckService, EngineConfig), String> {
    let config = contextrw_config(1);
    let service = build_service(input, &config)?;
    let graph = service.graph().clone();
    let engine = service.engine();
    let (pool, _) = actor_pairs(input, request_count(seconds, 4.0, 8), 0);
    let pairs: Vec<QueryRequest> = Rng::new(seed, 10)
        .distinct(pool.len(), pool.len())
        .into_iter()
        .map(|i| pool[i].clone())
        .collect();
    let miner = PathMiner::new(config.findnc.context.mining.clone());
    let selector = ContextRw::new(config.findnc.context.clone());
    let mut scorer = Scorer::new(&config.findnc)?;
    for (i, request) in pairs.iter().enumerate() {
        let query = resolve(&graph, request)?;
        let ((untraced, untraced_ms), (traced, root)) = in_turn(
            i,
            || cold(engine, &mut tally.engine, || engine.run(&query)),
            || {
                // Mining alone, outside the request: ContextRW's selection
                // mines internally, so its own share is the selection minus
                // this.
                tr.time("core.mine", i, None, || miner.mine(&graph, &query));
                let root = tr.open("request", i, None);
                let traced = tr
                    .time("core.context", i, Some(root), || {
                        selector.select_with_metapaths(&graph, &query, config.findnc.context_size)
                    })
                    .map_err(|e| e.to_string())
                    .and_then(|(context, _)| {
                        scorer.score(tr, &mut tally.counts, (i, root), &graph, &query, &context)
                    });
                tr.close(root);
                (traced, root)
            },
        );
        tally.untraced_ms += untraced_ms;
        if untraced.is_ok() {
            let _ = tally.api_probe(&service, request, &query);
        }
        finish_request(tr, tally, root, untraced_ms);
        tally.check(
            match (&untraced, &traced) {
                (Ok(a), Ok(b)) => rankings_equal(a, b),
                (Err(_), Err(_)) => true,
                _ => false,
            },
            &request.display(),
        );
        if untraced.is_err() {
            tally.failed += 1;
        }
    }
    tally.requests = pairs.len();
    Ok((service, config))
}

/// Runs `f` on cleared engine caches; returns its result and wall ms, and
/// books the engine counters it moved.
fn cold<R>(
    engine: &QueryEngine<ErasedGraph>,
    counts: &mut EngineCounts,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    engine.clear_caches();
    let before = engine.stats();
    let started = Instant::now();
    let out = f();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    counts.add(&before, &engine.stats());
    (out, ms)
}

/// Runs `a` and `b` for request `i`, alternating which goes first so
/// that neither the untraced nor the traced answer systematically runs on
/// processor caches the other one warmed.
fn in_turn<A, B>(i: usize, a: impl FnOnce() -> A, b: impl FnOnce() -> B) -> (A, B) {
    if i.is_multiple_of(2) {
        let a = a();
        (a, b())
    } else {
        let b = b();
        (a(), b)
    }
}

/// Books a computed request: its span time attributed to layers, and the
/// engine overhead (the engine's time for it minus the core stages).
fn finish_request(tr: &Tracer, tally: &mut Tally, root: usize, untraced_ms: f64) {
    let children: f64 = (root + 1..tr.spans.len())
        .filter(|&id| tr.spans[id].parent == Some(root))
        .map(|id| tr.ms(id))
        .sum();
    tally.attributed_ms += children;
    tally.engine_overhead_ms += untraced_ms - children;
}

fn randomwalk_batch(
    input: &Input,
    seed: u64,
    seconds: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(NckService, EngineConfig), String> {
    let config = randomwalk_config(1);
    let service = build_service(input, &config)?;
    let graph = service.graph().clone();
    let engine = service.engine();
    let weights = engine.edge_weights().ok_or("no weight table")?;
    let ppr =
        PersonalizedPageRank::with_weights(graph.clone(), config.randomwalk.ppr.clone(), weights)
            .map_err(|e| e.to_string())?;
    let batches = person_batches(
        input,
        &mut Rng::new(seed, 2),
        request_count(seconds, 2.0, 6),
    );
    let mut scorer = Scorer::new(&config.findnc)?;
    for (i, batch) in batches.iter().enumerate() {
        let queries = batch
            .iter()
            .map(|r| resolve(&graph, r))
            .collect::<Result<Vec<_>, _>>()?;
        let ((untraced, untraced_ms), (traced, root)) = in_turn(
            i,
            || cold(engine, &mut tally.engine, || engine.run_batch(&queries)),
            || {
                let root = tr.open("request", i, None);
                let seeds: Vec<NodeId> = queries
                    .iter()
                    .flat_map(|q| q.nodes().iter().copied())
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let lanes = tr.time("core.ppr", i, Some(root), || {
                    ppr.run_blocks(&seeds, config.ppr_block_width, true)
                });
                tally.counts.ppr_lanes += seeds.len() as u64;
                let vectors: HashMap<NodeId, ScoreVec> = seeds
                    .iter()
                    .copied()
                    .zip(lanes.into_iter().map(|o| o.scores))
                    .collect();
                let traced: Vec<Result<SearchResult, String>> = queries
                    .iter()
                    .map(|query| {
                        tr.time("core.topk", i, Some(root), || {
                            randomwalk_context(&graph, query, &vectors, &config)
                        })
                        .and_then(|context| {
                            scorer.score(tr, &mut tally.counts, (i, root), &graph, query, &context)
                        })
                    })
                    .collect();
                tr.close(root);
                (traced, root)
            },
        );
        tally.untraced_ms += untraced_ms;
        if untraced.is_ok() {
            let _ = tally.api_probe(&service, &batch[0], &queries[0]);
        }
        finish_request(tr, tally, root, untraced_ms);
        let equal = match &untraced {
            Ok(results) => traced
                .iter()
                .zip(results)
                .all(|(t, u)| t.as_ref().is_ok_and(|t| rankings_equal(t, u))),
            Err(_) => traced.iter().any(Result::is_err),
        };
        tally.check(equal, &format!("batch {i}"));
        if untraced.is_err() {
            tally.failed += batch.len() as u64;
        }
    }
    tally.requests = batches.len();
    Ok((service, config))
}

fn serve_zipf(
    input: &Input,
    seed: u64,
    seconds: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(NckService, EngineConfig), String> {
    let config = randomwalk_config(1);
    let service = Arc::new(build_service(input, &config)?);
    let graph = service.graph().clone();
    let server =
        serve(Arc::clone(&service), "127.0.0.1:0", serve_config()).map_err(|e| e.to_string())?;
    let addr = server.addr();
    let mut keys = ZipfKeys::new(input, seed);

    // Counters under the timed run's traffic shape.
    let warm_read = warm_up(&service, addr, &mut keys, CONNECTIONS)?;
    let order = keys.draw(request_count(seconds, 60.0, 300));
    let (s0, m0) = (service.raw_stats(), settled_metrics(&server, warm_read)?);
    let (timed, _) = closed_loop(addr, &keys, &order, CONNECTIONS)?;
    tally.engine.add(&s0, &service.raw_stats());
    let m1 = settled_metrics(&server, warm_read + received(&timed))?;
    tally.serve = ServeMetrics {
        requests_admitted: m1.requests_admitted - m0.requests_admitted,
        requests_shed: m1.requests_shed - m0.requests_shed,
        deadline_misses: m1.deadline_misses - m0.deadline_misses,
        responses_err: m1.responses_err - m0.responses_err,
        ..ServeMetrics::default()
    };

    // One connection then sends a key list on caches cleared and refilled
    // by a warm-up list. A hit is split into the engine lookup, the API
    // encoding and the socket hop. A miss is replayed in process, stage by
    // stage, under a root span of its own; its untraced counterpart is the
    // server's time for the same request (`QueryResponse::secs`). So the
    // trace.* metrics of this workload cover the misses only.
    let warm = keys.draw(768);
    let list = keys.draw(request_count(seconds, 50.0, 200));
    let mut client = ServeClient::connect(addr).map_err(|e| e.to_string())?;
    let engine = service.engine();
    engine.clear_caches();
    for &key in &warm {
        let _ = client.call(keys.request(key));
    }
    let ppr = PersonalizedPageRank::with_weights(
        graph.clone(),
        config.randomwalk.ppr.clone(),
        engine.edge_weights().ok_or("no weight table")?,
    )
    .map_err(|e| e.to_string())?;
    let mut scorer = Scorer::new(&config.findnc)?;
    let mut ws = PprWorkspace::new();
    for (i, &key) in list.iter().enumerate() {
        let request = keys.request(key);
        let hits = engine.stats().result.hits;
        let started = Instant::now();
        let served = client.call(request);
        let rtt_ms = started.elapsed().as_secs_f64() * 1e3;
        let hit = engine.stats().result.hits > hits;
        let query = resolve(&graph, request)?;
        let Ok(response) = served else {
            tally.failed += 1;
            continue;
        };
        let cached = engine.run(&query).map_err(|e| e.to_string())?;
        tally.check(
            crate::common::same_answer(
                &response,
                &crate::common::expected_response(&graph, request, &cached),
            ),
            &request.display(),
        );
        if hit {
            // The hop is the round trip minus the in-process call, which
            // splits into the engine lookup and the API encoding.
            if let Some((query_ms, run_ms)) = tally.api_probe(&service, request, &query) {
                tally.hop_ms.push(rtt_ms - query_ms);
                tally.engine_overhead_ms += run_ms;
            }
            continue;
        }
        let server_ms = response.secs.unwrap_or(0.0) * 1e3;
        tally.untraced_ms += server_ms;
        let root = tr.open("request", i, None);
        let seed = query.nodes()[0];
        let vector = tr.time("core.ppr", i, Some(root), || ppr.run_with(&[seed], &mut ws));
        tally.counts.ppr_lanes += 1;
        let vectors = HashMap::from([(seed, vector)]);
        let traced = tr
            .time("core.topk", i, Some(root), || {
                randomwalk_context(&graph, &query, &vectors, &config)
            })
            .and_then(|context| {
                scorer.score(tr, &mut tally.counts, (i, root), &graph, &query, &context)
            });
        tr.close(root);
        finish_request(tr, tally, root, server_ms);
        tally.check(
            traced.is_ok_and(|t| rankings_equal(&t, &cached)),
            &request.display(),
        );
    }
    drop(client);
    server.shutdown();
    tally.requests = list.len();
    let service = Arc::try_unwrap(service).map_err(|_| "service still shared after shutdown")?;
    Ok((service, config))
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn run(workload: &str, input: &Input, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let (service, config) = match workload {
        "contextrw_cold" => contextrw(input, seed, seconds, &mut tr, &mut tally)?,
        "randomwalk_batch_cold" => randomwalk_batch(input, seed, seconds, &mut tr, &mut tally)?,
        _ => serve_zipf(input, seed, seconds, &mut tr, &mut tally)?,
    };
    let setup = setup_layers(input, &config)?;
    tr.write(
        &std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}-{seed}.jsonl")),
    )
    .map_err(|e| format!("writing spans: {e}"))?;

    let n = tally.requests.max(1) as f64;
    let self_ms = tr.self_ms();
    let per_request = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / n;
    let e2e_ms = tr.total_ms("request");
    // Requests traced end to end: every request, or the misses of
    // `serve_zipf`.
    let roots = tr
        .spans
        .iter()
        .filter(|s| s.name == "request")
        .count()
        .max(1) as f64;
    let c = &tally.counts;
    let e = &tally.engine;
    let s = &tally.serve;
    let mine_ms = tr.total_ms("core.mine") / n;
    let metrics = vec![
        Metric::new("store.ntriples_parse_s", setup[0], "s"),
        Metric::new("graph.build_s", setup[1], "s"),
        Metric::new("engine.new_s", setup[2], "s"),
        Metric::new("core.mine_ms", mine_ms, "ms"),
        Metric::new(
            "core.context_rw_ms",
            (tr.total_ms("core.context") / n - mine_ms).max(0.0),
            "ms",
        ),
        Metric::new("core.ppr_ms", per_request("core.ppr"), "ms"),
        Metric::new("core.ppr_lanes", c.ppr_lanes as f64 / n, "count"),
        Metric::new("core.topk_ms", per_request("core.topk"), "ms"),
        Metric::new("core.sweep_ms", per_request("core.sweep"), "ms"),
        Metric::new("core.labels", c.labels as f64 / n, "count"),
        Metric::new("stats.exact_ms", per_request("stats.exact"), "ms"),
        Metric::new("stats.exact_tests", c.exact_tests as f64 / n, "count"),
        Metric::new("stats.mc_ms", per_request("stats.mc"), "ms"),
        Metric::new("stats.mc_tests", c.mc_tests as f64 / n, "count"),
        Metric::new("stats.mc_samples", c.mc_samples as f64 / n, "count"),
        Metric::new("core.rank_ms", per_request("core.rank"), "ms"),
        Metric::new("engine.overhead_ms", tally.engine_overhead_ms / n, "ms"),
        Metric::new(
            "engine.result_hit_rate",
            e.hits as f64 / (e.hits + e.misses).max(1) as f64,
            "ratio",
        ),
        Metric::new("engine.result_evictions", e.evictions as f64, "count"),
        Metric::new("engine.coalesced", e.coalesced as f64, "count"),
        Metric::new("engine.ppr_block_runs", e.block_runs as f64, "count"),
        Metric::new("engine.label_sweeps", e.label_sweeps as f64, "count"),
        Metric::new("api.response_ms", mean(&tally.api_ms), "ms"),
        Metric::new("api.response_bytes", mean(&tally.api_bytes), "bytes"),
        Metric::new("serve.hop_ms", mean(&tally.hop_ms), "ms"),
        Metric::new("serve.admitted", s.requests_admitted as f64, "count"),
        Metric::new("serve.shed", s.requests_shed as f64, "count"),
        Metric::new("serve.deadline_misses", s.deadline_misses as f64, "count"),
        Metric::new("serve.responses_err", s.responses_err as f64, "count"),
        Metric::new("trace.e2e_ms", e2e_ms / roots, "ms"),
        Metric::new(
            "trace.unattributed_share",
            1.0 - tally.attributed_ms / e2e_ms.max(1e-12),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_ms",
            (e2e_ms - tally.untraced_ms) / roots,
            "ms",
        ),
    ];
    let attempted = match workload {
        "randomwalk_batch_cold" => (tally.requests * crate::common::BATCH) as u64,
        _ => tally.requests as u64,
    };
    Ok(Report {
        attempted,
        failed: tally.failed,
        correct: tally.mismatches == 0,
        metrics,
        nodes: service.num_nodes(),
        edges: service.num_stored_edges(),
        config: format!(
            "{}+threads1+nproc{}",
            crate::common::config_id(&config),
            nproc()
        ),
    })
}
