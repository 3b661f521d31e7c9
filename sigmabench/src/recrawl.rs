//! The `recrawl` workload: the library API with no wire. Rounds of
//! `AnnotationService::annotate_batch_request_with_bases` over a fixed
//! pool of database-like tables, on a tiered step cache and a durable
//! epoch file in a scratch directory.
//!
//! Rounds come in segments of [`SEGMENT`], each over one pool of
//! [`POOL`] tables; the segments cycle through [`POOLS`] pools so that a
//! run averages over many tables. A segment starts with a plain crawl of
//! its pool's original tables (cold on the first visit, just after a
//! feedback on later ones), then alternating exact recrawls of the version crawled
//! last and appended-row delta recrawls (with the previous crawl as
//! base, at the default `delta_sensitivity`). Between segments a user
//! corrects one column through `SigmaTyper::feedback`, which bumps the
//! epoch.
//!
//! Checks: plain and exact rounds must be bit-identical to a
//! `bypass_cache` annotate on the same typer; delta rounds must agree
//! with it on ≥0.85 of each pool's columns and ≥0.9 over all pools
//! (the incremental-recrawl golden suite holds each corpus to 0.85 and
//! the pooled total to 0.9).

use crate::check;
use crate::inputs::{self, WireTable};
use crate::serving::{replay_passes, report_layers, RunLayers};
use crate::stats::{median, percentile, ratio, RunResult, SplitMix};
use crate::trace::{self, ReplayOp, TableTrace};
use crate::Ctx;
use sigmatyper::service::TrafficLane;
use sigmatyper::{AnnotationOutcome, AnnotationService, RequestOptions};
use std::io;
use std::time::Instant;
use tu_table::Table;

/// Rounds per segment: one plain crawl, then exact/delta pairs.
const SEGMENT: usize = 8;
/// Tables in one recrawled pool (one batch).
const POOL: usize = 4;
/// Pools the segments cycle through.
const POOLS: usize = 64;
/// Rounds per second of `--seconds`: the round count is fixed by the
/// arguments, so the local training set and the cache grow the same
/// in every run.
const ROUNDS_PER_S: f64 = 60.0;
/// Model-plus-cache opens per run; `setup_s` is their median.
const SETUP_STARTS: usize = 5;
/// Segments replayed in process in a traced run.
const REPLAY_SEGMENTS: usize = 2;
/// Delta-round agreement floors (the incremental-recrawl golden
/// suite's tolerance), per pool and over all pools.
const POOL_AGREEMENT: f64 = 0.85;
const POOLED_AGREEMENT: f64 = 0.9;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Plain,
    Delta,
    Exact,
}

fn kind_of(round: usize) -> Kind {
    match round % SEGMENT {
        0 => Kind::Plain,
        r if r % 2 == 1 => Kind::Exact,
        _ => Kind::Delta,
    }
}

/// The pool as crawled in round `r`, given the previous round's.
fn version(r: usize, pools: &[Vec<WireTable>], previous: &[WireTable]) -> Vec<WireTable> {
    match kind_of(r) {
        Kind::Plain => pools[(r / SEGMENT) % pools.len()].clone(),
        Kind::Delta => previous.iter().map(WireTable::appended).collect(),
        Kind::Exact => previous.to_vec(),
    }
}

fn decode_all(tables: &[WireTable]) -> Vec<Table> {
    tables.iter().map(WireTable::decoded).collect()
}

pub fn recrawl(ctx: &Ctx) -> io::Result<RunResult> {
    let rounds = (ROUNDS_PER_S * ctx.seconds).round().max(1.0) as usize;
    let pool_at = inputs::recrawl_pool(ctx.seed, POOL * POOLS);
    let pools: Vec<Vec<WireTable>> = pool_at
        .chunks(POOL)
        .map(|chunk| chunk.iter().map(|at| WireTable::of(&at.table)).collect())
        .collect();
    let mut rng = SplitMix::new(ctx.seed ^ 0x3f);
    // The feedback after segment `k` corrects a column of the pool that
    // segment just crawled.
    let firsts: Vec<_> = pool_at.iter().step_by(POOL).cloned().collect();
    let corrections = inputs::corrections(&firsts, rounds / SEGMENT + 1, &mut rng);

    // Set-up as a deployment pays it: train the model, open the cache
    // tier and the epoch file. The last instance serves.
    let mut setups = Vec::new();
    let mut serving = None;
    for k in 0..SETUP_STARTS {
        let started = Instant::now();
        let global = inputs::binary_global();
        let typer = inputs::cached_typer(&global, &ctx.work.join(format!("setup-{k}")))?;
        setups.push(started.elapsed().as_secs_f64());
        serving = Some((global, typer));
    }
    let (global, typer) = serving.expect("at least one set-up");
    let mut service = AnnotationService::for_customer(typer).with_threads(ctx.conns);
    let options = RequestOptions::default();
    let bypass = RequestOptions::default().with_cache_bypassed();

    let mut result = RunResult::default();
    let mut round_ms = Vec::with_capacity(rounds);
    let mut prep_ms = Vec::with_capacity(rounds);
    let mut feedback_ms = Vec::new();
    let mut traces: Vec<TableTrace> = Vec::new();
    let mut after_feedback: Vec<TableTrace> = Vec::new();
    let mut parallel_ns = 0u128;
    let (mut cols, mut failed) = (0usize, 0u64);
    // Delta-round agreement with the full recomputation, per pool:
    // (columns agreeing, columns compared).
    let mut agreement_by_pool = vec![(0usize, 0usize); POOLS];
    let mut reference: Vec<AnnotationOutcome> = Vec::new();
    let mut current: Vec<Table> = Vec::new();
    let mut previous: Vec<WireTable> = Vec::new();
    let mut feedbacks = 0;

    for r in 0..rounds {
        if r > 0 && kind_of(r) == Kind::Plain {
            let c = &corrections[feedbacks];
            feedbacks += 1;
            let table = c.table.decoded();
            let ty = service
                .typer()
                .ontology()
                .lookup_exact(&c.type_name)
                .expect("corrections carry ontology type names");
            let started = Instant::now();
            service.typer_mut().feedback(&table, c.col_idx, ty, None);
            feedback_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        // Inputs of the round: decode the version this round crawls.
        let prep = Instant::now();
        let crawled = version(r, &pools, &previous);
        let tables = if kind_of(r) == Kind::Exact {
            current.clone()
        } else {
            decode_all(&crawled)
        };
        let bases: Vec<Option<&Table>> = if kind_of(r) == Kind::Delta {
            current.iter().map(Some).collect()
        } else {
            vec![None; tables.len()]
        };
        prep_ms.push(prep.elapsed().as_secs_f64() * 1e3);

        let started = Instant::now();
        let outcomes = service.annotate_batch_request_with_bases(&tables, &bases, &options);
        round_ms.push(started.elapsed().as_secs_f64() * 1e3);

        for (o, t) in outcomes.iter().zip(&tables) {
            cols += t.n_cols();
            parallel_ns += o
                .annotation
                .timings
                .iter()
                .map(|s| s.parallel_nanos)
                .sum::<u128>();
            let trace = TableTrace::of(o, kind_of(r) == Kind::Delta);
            if r > 0 && kind_of(r) == Kind::Plain {
                after_feedback.push(TableTrace::of(o, false));
            }
            traces.push(trace);
        }
        drop(bases);

        // Checks, off the clock.
        match kind_of(r) {
            Kind::Plain | Kind::Delta => {
                reference = service.annotate_batch_request(&tables, &bypass);
            }
            Kind::Exact => {}
        }
        match kind_of(r) {
            Kind::Plain | Kind::Exact => {
                let ontology = service.typer().ontology();
                let same = outcomes.iter().zip(&reference).all(|(a, b)| {
                    check::outcome_digest(a, ontology) == check::outcome_digest(b, ontology)
                });
                if !same {
                    failed += 1;
                    if failed <= 3 {
                        result.problem(format!("round {r}: differs from a bypass_cache annotate"));
                    }
                }
            }
            Kind::Delta => {
                let (a, n) = agreement(&outcomes, &reference);
                let pool = &mut agreement_by_pool[(r / SEGMENT) % POOLS];
                pool.0 += a;
                pool.1 += n;
            }
        }
        current = tables;
        previous = crawled;
    }
    for (p, &(a, n)) in agreement_by_pool.iter().enumerate() {
        if (a as f64) < POOL_AGREEMENT * n as f64 {
            failed += 1;
            result.problem(format!(
                "pool {p}: delta recrawls agree on only {a}/{n} columns"
            ));
        }
    }
    let (agree, compared) = agreement_by_pool
        .iter()
        .fold((0, 0), |(a, n), &(pa, pn)| (a + pa, n + pn));
    if (agree as f64) < POOLED_AGREEMENT * compared as f64 {
        failed += 1;
        result.problem(format!(
            "delta recrawls agree on only {agree}/{compared} columns pooled"
        ));
    }
    result.note("rounds", rounds);
    result.note("pool", POOL);
    result.note("pools", POOLS);
    result.note("feedbacks", feedbacks);
    result.note("delta_agreement", format!("{agree}/{compared}"));
    let worst = agreement_by_pool
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|&(a, n)| a as f64 / n as f64)
        .fold(1.0, f64::min);
    result.note("delta_agreement_worst_pool", format!("{worst:.3}"));

    let m = &mut result.metrics;
    m.put("setup_s", median(&setups), "s");
    m.put("rss_peak_mb", own_rss_peak_mb()?, "MB");
    m.put("p50_ms", median(&round_ms), "ms");
    m.put("p99_ms", percentile(&round_ms, 0.99), "ms");
    let busy_s = round_ms.iter().sum::<f64>() / 1e3;
    m.put("cols_per_s", ratio(cols as f64, busy_s), "1/s");
    // Noted, not bounded: it follows the shared disk's `fsync`.
    result.note("feedback_p50_ms", format!("{:.3}", median(&feedback_ms)));
    result.attempted = (rounds + feedbacks) as u64;
    result.failed = failed;
    let ok = 1.0 - ratio(failed as f64, result.attempted as f64);
    result.metrics.put("ok_frac", ok, "frac");
    crate::stats::note_tail_support(&mut result, "rounds", &round_ms);

    if ctx.trace {
        let cache_inserts = service.cache_stats().map_or(0, |s| s.inserts);
        service.flush()?;
        drop(service);
        let serve_dir = ctx.work.join(format!("setup-{}", SETUP_STARTS - 1));
        let ops = replay_ops(&pools, &corrections, rounds.min(REPLAY_SEGMENTS * SEGMENT));
        let passes = replay_passes(ctx, &global, &ops)?;
        let layers = RunLayers {
            transport_ms: 0.0,
            queue_depth_max: 0.0,
            worker_busy_frac: 0.0,
            steps: trace::step_metrics(&traces),
            next_round_miss_frac: trace::step_metrics(&after_feedback).cache_miss_frac,
            cache_dir: serve_dir,
            cache_inserts,
            batch_ms: median(&round_ms),
            parallel_frac: ratio(
                parallel_ns as f64 / 1e6,
                round_ms.iter().sum::<f64>() * ctx.conns as f64,
            ),
            feedback_ms: crate::stats::mean(&feedback_ms),
            lag_p99_ms: percentile(&prep_ms, 0.99),
        };
        report_layers(ctx, &mut result, &passes, &layers)?;
    }
    Ok(result)
}

/// Top-1 agreement of a delta round with the full recomputation.
fn agreement(outcomes: &[AnnotationOutcome], reference: &[AnnotationOutcome]) -> (usize, usize) {
    let mut same = 0;
    let mut total = 0;
    for (a, b) in outcomes.iter().zip(reference) {
        for (ca, cb) in a.annotation.columns.iter().zip(&b.annotation.columns) {
            total += 1;
            same += usize::from(ca.predicted == cb.predicted);
        }
    }
    (same, total)
}

/// The first `rounds` rounds as server-path requests, table by table,
/// with the feedback between segments.
fn replay_ops(
    pools: &[Vec<WireTable>],
    corrections: &[inputs::Correction],
    rounds: usize,
) -> Vec<ReplayOp> {
    let mut ops = Vec::new();
    let mut feedbacks = 0;
    let mut previous: Vec<WireTable> = Vec::new();
    for r in 0..rounds {
        if r > 0 && kind_of(r) == Kind::Plain {
            let c = &corrections[feedbacks];
            feedbacks += 1;
            ops.push(ReplayOp::Feedback(c.clone()));
        }
        let crawled = version(r, pools, &previous);
        for (i, t) in crawled.iter().enumerate() {
            let base = (kind_of(r) == Kind::Delta).then(|| &previous[i]);
            ops.push(ReplayOp::Annotate {
                body: trace::body_of(t, base),
                lane: TrafficLane::Crawl,
                tenant: inputs::TENANT,
            });
        }
        previous = crawled;
    }
    ops
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn own_rss_peak_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}
