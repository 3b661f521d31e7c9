//! The `crawl` workload, against the `annotation-server` binary as
//! deployed (`--workers 2 --cache-dir DIR`): a closed loop on the crawl
//! lane, one distinct tall database-like table with opaque headers per
//! request.
//!
//! After the load, [`FEEDBACKS`] `POST /feedback` corrections time the
//! write path. Every 200 is then checked against the in-process outcome of
//! the same table on a model built the binary's way.

use crate::check::{self, Digest};
use crate::inputs::{self, Correction, WireTable};
use crate::load::{self, LoadRun};
use crate::server::{self, ServerProcess};
use crate::stats::{median, percentile, ratio, RunResult, SplitMix};
use crate::trace::{self, Recorder, ReplayOp};
use crate::Ctx;
use sigmatyper::service::TrafficLane;
use sigmatyper::{GlobalModel, SigmaTyper, TieredStepCache};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of the served binary (its deployed setting).
const WORKERS: usize = 2;
/// Server start-ups per run; `setup_s` is their median.
const SETUP_STARTS: usize = 5;
/// `POST /feedback` corrections after the load.
const FEEDBACKS: usize = 101;
/// Closed-loop crawl requests per second of `--seconds`: the request
/// count is fixed by the arguments, not by how fast the server is. At
/// the run length in `BENCHMARK.json` this gives ≥1,000 samples, enough
/// for a p99 with ten samples beyond it.
const CRAWL_REQUESTS_PER_S: f64 = 100.0;
/// Distinct base tables the crawl requests are built from.
const CRAWL_BASES: usize = 512;
/// Requests replayed in process in a traced run.
const REPLAY_CRAWL: usize = 30;
/// Tables re-annotated after a replayed feedback (for the miss share).
const REPLAY_AFTER_FEEDBACK: usize = 6;
/// Untimed requests sent first, so the measured load starts on a warm
/// server (allocator, page cache, lazily built state).
const WARMUP: usize = 20;

struct Served {
    setups: Vec<f64>,
    load: LoadRun,
    feedback_ms: Vec<f64>,
    feedback_failed: u64,
    warmup_failed: u64,
    rss_peak_mb: f64,
    /// `/metrics` spent nanos over the load, across lanes.
    spent_nanos: u64,
    cache_inserts: u64,
    queue_depth_max: u64,
}

/// Start the server, warm it up with requests `n..n + WARMUP`, drive
/// the load over requests `0..n`, send the corrections, drain.
fn serve(
    ctx: &Ctx,
    n: usize,
    make_body: &(dyn Fn(usize) -> String + Sync),
    corrections: &[Correction],
) -> io::Result<Served> {
    let (setups, server) =
        server::start_repeatedly(&ctx.server_bin, &ctx.work, WORKERS, SETUP_STARTS)?;
    // The crawler's headers: crawl lane, one billing tenant.
    let headers = [
        ("x-sigma-lane", "crawl"),
        ("x-sigma-tenant", inputs::TENANT),
    ];
    let warm = load::run(server.addr, WARMUP, ctx.conns, &headers, &|i| {
        make_body(n + i)
    });
    let warmup_failed = warm.samples.iter().filter(|s| s.status != 200).count() as u64;
    let before = server.metrics()?;
    let stop = AtomicBool::new(false);
    let (load, queue_depth_max) = std::thread::scope(|scope| {
        let watcher = ctx
            .trace
            .then(|| scope.spawn(|| load::watch_queue_depth(server.addr, &stop)));
        let load = load::run(server.addr, n, ctx.conns, &headers, make_body);
        stop.store(true, Ordering::SeqCst);
        let deepest = watcher.map_or(0, |w| w.join().expect("watcher does not panic"));
        (load, deepest)
    });
    let after = server.metrics()?;
    let (feedback_ms, feedback_failed) = send_feedback(&server, corrections);
    let rss_peak_mb = server.rss_peak_mb()?;
    server.shutdown()?;
    Ok(Served {
        setups,
        load,
        feedback_ms,
        feedback_failed,
        warmup_failed,
        rss_peak_mb,
        spent_nanos: server::lanes_total(&after, "spent_nanos")
            - server::lanes_total(&before, "spent_nanos"),
        cache_inserts: after
            .get("cache")
            .and_then(|c| c.get("inserts"))
            .and_then(jsonshim::Json::as_u64)
            .unwrap_or(0),
        queue_depth_max,
    })
}

fn send_feedback(server: &ServerProcess, corrections: &[Correction]) -> (Vec<f64>, u64) {
    let mut times = Vec::new();
    let mut failed = 0;
    let Ok(mut client) = httpshim::HttpClient::connect(server.addr) else {
        return (times, corrections.len() as u64);
    };
    for c in corrections {
        let body = inputs::feedback_body(&c.table.json(), c.col_idx, &c.type_name);
        let started = Instant::now();
        let resp = client.post_json("/feedback", &body, &[]);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let ok = resp.is_ok_and(|r| {
            r.status == 200
                && jsonshim::Json::parse(&r.body_str())
                    .is_ok_and(|j| j.get("ok").and_then(jsonshim::Json::as_bool) == Some(true))
        });
        if ok {
            times.push(ms);
        } else {
            failed += 1;
        }
    }
    (times, failed)
}

/// Count non-200s, transport errors and wrong outputs.
fn check_samples(load: &LoadRun, expected: &[Digest]) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut first = Vec::new();
    for s in &load.samples {
        let why = match s.status {
            0 => Some("transport error".to_owned()),
            200 => match check::body_digest(&s.body) {
                Some(d) if d == expected[s.idx] => None,
                Some(_) => Some("outcome differs from the in-process outcome".to_owned()),
                None => Some("response is not JSON".to_owned()),
            },
            status => Some(format!("status {status}")),
        };
        if let Some(why) = why {
            failed += 1;
            if first.len() < 3 {
                first.push(format!("request {}: {why}", s.idx));
            }
        }
    }
    (failed, first)
}

fn lags_ms(load: &LoadRun) -> Vec<f64> {
    load.samples.iter().map(|s| s.lag_ns as f64 / 1e6).collect()
}

fn latencies_ms(load: &LoadRun, range: std::ops::Range<usize>) -> Vec<f64> {
    load.samples[range]
        .iter()
        .map(|s| s.latency_ns as f64 / 1e6)
        .collect()
}

/// End-to-end metrics of the served run.
fn end_to_end(result: &mut RunResult, served: &Served, latencies: &[f64], cols_ok: usize) {
    let attempted = WARMUP
        + served.load.samples.len()
        + served.feedback_ms.len()
        + served.feedback_failed as usize;
    let m = &mut result.metrics;
    m.put("setup_s", median(&served.setups), "s");
    m.put("rss_peak_mb", served.rss_peak_mb, "MB");
    m.put("p50_ms", median(latencies), "ms");
    m.put("p99_ms", percentile(latencies, 0.99), "ms");
    m.put(
        "cols_per_s",
        ratio(cols_ok as f64, served.load.wall_s),
        "1/s",
    );
    // Noted, not bounded: it follows the shared disk's `fsync`.
    result.note(
        "feedback_p50_ms",
        format!("{:.3}", median(&served.feedback_ms)),
    );
    result.attempted = attempted as u64;
    result.failed += served.feedback_failed + served.warmup_failed;
    let ok = 1.0 - ratio(result.failed as f64, attempted as f64);
    result.metrics.put("ok_frac", ok, "frac");
    crate::stats::note_tail_support(result, "requests", latencies);
}

/// Per-layer metrics of the HTTP workload: the served run's counters
/// plus a traced in-process replay whose first `main_requests` ops are
/// the run's first requests.
fn per_layer(
    ctx: &Ctx,
    result: &mut RunResult,
    served: &Served,
    global: &Arc<GlobalModel>,
    replay_ops: &[ReplayOp],
    main_requests: usize,
) -> io::Result<()> {
    let passes = replay_passes(ctx, global, replay_ops)?;
    let tables = &passes.traced.tables;
    let main = main_requests.min(tables.len());
    let replay_ms: Vec<f64> = passes.untraced_request_ns
        [..main.min(passes.untraced_request_ns.len())]
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let feedback_ms: Vec<f64> = passes
        .traced
        .feedback_ns
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect();
    let layers = RunLayers {
        transport_ms: median(&latencies_ms(&served.load, 0..main)) - median(&replay_ms),
        queue_depth_max: served.queue_depth_max as f64,
        worker_busy_frac: ratio(
            served.spent_nanos as f64 / 1e9,
            served.load.wall_s * WORKERS as f64,
        ),
        steps: trace::step_metrics(&tables[..main]),
        next_round_miss_frac: trace::step_metrics(&tables[main..]).cache_miss_frac,
        cache_dir: ctx.work.join("serve"),
        cache_inserts: served.cache_inserts,
        batch_ms: 0.0,
        parallel_frac: 0.0,
        feedback_ms: crate::stats::mean(&feedback_ms),
        lag_p99_ms: percentile(&lags_ms(&served.load), 0.99),
    };
    report_layers(ctx, result, &passes, &layers)
}

/// What a workload's own run measured for the per-layer report. A
/// layer a workload does not exercise reads 0 (no server on `recrawl`,
/// no batches on `crawl`).
pub struct RunLayers {
    pub transport_ms: f64,
    pub queue_depth_max: f64,
    pub worker_busy_frac: f64,
    pub steps: trace::StepMetrics,
    /// Cache misses over probes in the round after a feedback.
    pub next_round_miss_frac: f64,
    /// The run's closed cache directory, re-opened to time the open.
    pub cache_dir: PathBuf,
    pub cache_inserts: u64,
    pub batch_ms: f64,
    pub parallel_frac: f64,
    pub feedback_ms: f64,
    pub lag_p99_ms: f64,
}

/// Put every per-layer metric, run the reconciliation check and write
/// the spans out.
pub fn report_layers(
    ctx: &Ctx,
    result: &mut RunResult,
    passes: &ReplayPasses,
    run: &RunLayers,
) -> io::Result<()> {
    let spans = trace::span_metrics(&passes.recorder.spans, &passes.traced);
    result
        .problems
        .extend(passes.traced.problems.iter().cloned());
    let (open_ms, bytes) = reopen_cache(&run.cache_dir)?;
    let steps = &run.steps;
    let m = &mut result.metrics;
    m.put("server.transport_ms", run.transport_ms, "ms");
    m.put("jsonshim.parse_us_per_kb", spans.parse_us_per_kb, "us/KB");
    m.put("wire.decode_us_per_col", spans.decode_us_per_col, "us/col");
    m.put("wire.encode_us_per_col", spans.encode_us_per_col, "us/col");
    m.put("tenant.admit_ns", spans.admit_ns, "ns");
    m.put("tenant.grant_settle_ns", spans.grant_settle_ns, "ns");
    m.put("service.queue_depth_max", run.queue_depth_max, "count");
    m.put("server.worker_busy_frac", run.worker_busy_frac, "frac");
    m.put("system.annotate_ms", spans.annotate_ms, "ms");
    m.put(
        "executor.self_us_per_table",
        spans.executor_self_us_per_table,
        "us/table",
    );
    m.put("executor.chunks_per_step", steps.chunks_per_step, "count");
    m.put("header.us_per_col", steps.header_us_per_col, "us/col");
    m.put("lookup.us_per_col", steps.lookup_us_per_col, "us/col");
    m.put("embedding.us_per_col", steps.embedding_us_per_col, "us/col");
    m.put("header.match_us", spans.header_match_us, "us");
    m.put("header.exit_frac", steps.header_exit_frac, "frac");
    m.put("lookup.cols_frac", steps.lookup_cols_frac, "frac");
    m.put("embedding.cols_frac", steps.embedding_cols_frac, "frac");
    m.put("aggregate.us_per_col", spans.aggregate_us_per_col, "us/col");
    m.put(
        "cache.fingerprint_us_per_table",
        spans.fingerprint_us_per_table,
        "us/table",
    );
    m.put("cache.hit_frac", steps.cache_hit_frac, "frac");
    m.put(
        "cache.inserts_per_col",
        steps.cache_inserts_per_col,
        "count",
    );
    m.put(
        "delta.diff_us_per_table",
        spans.diff_us_per_table,
        "us/table",
    );
    m.put("delta.reused_frac", steps.delta_reused_frac, "frac");
    m.put("diskcache.open_ms", open_ms, "ms");
    m.put(
        "diskcache.bytes_per_insert",
        ratio(bytes as f64, run.cache_inserts as f64),
        "B",
    );
    m.put("service.batch_ms", run.batch_ms, "ms");
    m.put("service.parallel_frac", run.parallel_frac, "frac");
    m.put("feedback.ms", run.feedback_ms, "ms");
    m.put(
        "feedback.next_round_miss_frac",
        run.next_round_miss_frac,
        "frac",
    );
    m.put("loadgen.lag_p99_ms", run.lag_p99_ms, "ms");
    m.put("trace.overhead_frac", passes.overhead_frac, "frac");
    m.put("trace.reconciled_frac", spans.reconciled_frac, "frac");
    reconcile(result, &spans);
    let name = format!("spans-{}-seed{}.jsonl", ctx.workload, ctx.seed);
    passes.recorder.write_jsonl(&ctx.out.join(name))
}

/// The reconciliation check: layer spans must cover the replay's
/// request time within [`trace::RECONCILE_BOUND`], and no request's
/// Σ `StepTiming.nanos` may exceed its annotate span.
fn reconcile(result: &mut RunResult, s: &trace::SpanMetrics) {
    if s.reconciled_frac < 1.0 - trace::RECONCILE_BOUND || s.reconciled_frac > 1.0 {
        result.problem(format!(
            "layer spans cover {:.4} of the replayed request time (bound {})",
            s.reconciled_frac,
            trace::RECONCILE_BOUND
        ));
    }
    if s.steps_over_annotate > 0 {
        result.problem(format!(
            "{} replayed requests report more step time than their annotate span",
            s.steps_over_annotate
        ));
    }
}

pub struct ReplayPasses {
    pub traced: trace::Replay,
    pub recorder: Recorder,
    pub untraced_request_ns: Vec<u64>,
    /// (traced − untraced) ÷ untraced replay time, medians of two
    /// alternating passes each.
    pub overhead_frac: f64,
}

/// Replay `ops` four times, alternating untraced and traced, each on a
/// fresh cache directory.
pub fn replay_passes(
    ctx: &Ctx,
    global: &Arc<GlobalModel>,
    ops: &[ReplayOp],
) -> io::Result<ReplayPasses> {
    let mut untraced_totals = Vec::new();
    let mut traced_totals = Vec::new();
    let mut last_untraced = Vec::new();
    let mut last_traced = None;
    for pass in 0..4 {
        let traced = pass % 2 == 1;
        let mut rec = Recorder::new(traced);
        let out = trace::replay(
            global,
            &ctx.work.join(format!("replay-{pass}")),
            ops,
            &mut rec,
        )?;
        if traced {
            traced_totals.push(out.total_ns() as f64);
            last_traced = Some((out, rec));
        } else {
            untraced_totals.push(out.total_ns() as f64);
            last_untraced = out.request_ns;
        }
    }
    let (traced, recorder) = last_traced.expect("two traced passes ran");
    let base = median(&untraced_totals);
    Ok(ReplayPasses {
        traced,
        recorder,
        untraced_request_ns: last_untraced,
        overhead_frac: ratio(median(&traced_totals) - base, base),
    })
}

/// Re-open a closed tiered cache three times; the median open time in
/// ms and the bytes on disk.
pub fn reopen_cache(dir: &Path) -> io::Result<(f64, u64)> {
    let mut times = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let tier = TieredStepCache::open(dir.join("cache"), 1 << 16)?;
        times.push(started.elapsed().as_secs_f64() * 1e3);
        drop(tier);
    }
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir.join("cache"))? {
        bytes += entry?.metadata()?.len();
    }
    Ok((median(&times), bytes))
}

/// Append one correction and then a re-annotation of the first few
/// replayed tables: the round right after a feedback.
fn push_feedback_round(ops: &mut Vec<ReplayOp>, correction: &Correction, tables: &[WireTable]) {
    ops.push(ReplayOp::Feedback(correction.clone()));
    for t in tables.iter().take(REPLAY_AFTER_FEEDBACK) {
        ops.push(ReplayOp::Annotate {
            body: trace::body_of(t, None),
            lane: TrafficLane::Crawl,
            tenant: inputs::TENANT,
        });
    }
}

pub fn crawl(ctx: &Ctx) -> io::Result<RunResult> {
    let n = (CRAWL_REQUESTS_PER_S * ctx.seconds).round() as usize;
    let bases_at = inputs::crawl_bases(ctx.seed, CRAWL_BASES);
    let bases: Vec<WireTable> = bases_at.iter().map(|at| WireTable::of(&at.table)).collect();
    let global = inputs::binary_global();
    let mut rng = SplitMix::new(ctx.seed ^ 0x2f);
    let corrections = inputs::corrections(&bases_at, FEEDBACKS, &mut rng);
    let served = serve(
        ctx,
        n,
        &|i| inputs::annotate_body(&inputs::crawl_table(&bases, i).json(), None),
        &corrections,
    )?;
    let reference = SigmaTyper::builder(Arc::clone(&global)).build();
    let expected = check::expected_digests(&reference, n, ctx.conns, &|i| {
        inputs::crawl_table(&bases, i).decoded()
    });

    let mut result = RunResult::default();
    result.note("requests", n);
    result.note("connections", ctx.conns);
    let sample: Vec<WireTable> = (0..bases.len())
        .map(|i| inputs::crawl_table(&bases, i))
        .collect();
    let mean = |f: &dyn Fn(&WireTable) -> usize| {
        sample.iter().map(f).sum::<usize>() as f64 / sample.len() as f64
    };
    result.note("mean_rows", format!("{:.0}", mean(&|t| t.cells[0].len())));
    result.note("mean_cols", format!("{:.2}", mean(&|t| t.n_cols())));
    result.note(
        "mean_body_kb",
        format!("{:.1}", mean(&|t| t.json().len()) / 1e3),
    );
    let (failed, first) = check_samples(&served.load, &expected);
    result.failed = failed;
    result.problems.extend(first);
    let cols_ok = served
        .load
        .samples
        .iter()
        .filter(|s| s.status == 200)
        .map(|s| bases[s.idx % bases.len()].n_cols())
        .sum();
    end_to_end(
        &mut result,
        &served,
        &latencies_ms(&served.load, 0..n),
        cols_ok,
    );

    if ctx.trace {
        let k = REPLAY_CRAWL.min(n);
        let tables: Vec<WireTable> = (0..k).map(|i| inputs::crawl_table(&bases, i)).collect();
        let mut ops: Vec<ReplayOp> = tables
            .iter()
            .map(|t| ReplayOp::Annotate {
                body: trace::body_of(t, None),
                lane: TrafficLane::Crawl,
                tenant: inputs::TENANT,
            })
            .collect();
        push_feedback_round(&mut ops, &corrections[0], &tables);
        per_layer(ctx, &mut result, &served, &global, &ops, k)?;
    }
    Ok(result)
}
