//! The traced replay: a workload's requests driven in process along the
//! server's path — parse, decode, admit, grant, annotate, aggregate,
//! encode, settle — with one span around each call into a layer's
//! public function. Spans are timed from outside the program; the step
//! spans under `system.annotate` come from the `StepTiming` records
//! each outcome already carries.
//!
//! Spans stay in memory and are written out when the run ends. The
//! replay runs with the recorder off as well, so the difference in
//! end-to-end replay time is the tracing overhead.

use crate::inputs::{cached_typer, Correction, WireTable};
use crate::stats::{median, ratio};
use jsonshim::Json;
use sigmatyper::aggregate::{apply_tau, soft_majority_vote_with};
use sigmatyper::request::BudgetLedger;
use sigmatyper::service::{BoundedQueue, TrafficLane};
use sigmatyper::tenant::{ShapedBudget, TenantRegistry, TrafficShaper};
use sigmatyper::{
    column_fingerprints, AnnotationOutcome, CascadeExecutor, GlobalModel, SigmaTyper, StepId,
    StepScores, StepTiming,
};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tu_table::TableDelta;

/// Σ child spans of a request must cover at least this share of the
/// request span (the rest is the recorder's own bookkeeping between
/// calls).
pub const RECONCILE_BOUND: f64 = 0.05;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: usize,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        crate::load::nanos(self.origin.elapsed())
    }

    /// Run `f` inside a span (a plain call when the recorder is off).
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let start_ns = self.now();
        let value = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        (value, Some(self.spans.len() - 1))
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or(Json::Null, Json::from);
            let line = Json::object(vec![
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                ("parent", parent),
                ("req", Json::from(s.req)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// One replayed operation.
pub enum ReplayOp {
    /// A `POST /annotate` body, with the lane and tenant headers.
    Annotate {
        body: String,
        lane: TrafficLane,
        tenant: &'static str,
    },
    /// A user's correction (`SigmaTyper::feedback`).
    Feedback(Correction),
}

/// Per-table facts the layer metrics are computed from.
pub struct TableTrace {
    pub timings: Vec<StepTiming>,
    pub cols: usize,
    /// Columns whose cascade stopped after the header step.
    pub header_exits: usize,
    pub has_base: bool,
}

impl TableTrace {
    pub fn of(outcome: &AnnotationOutcome, has_base: bool) -> Self {
        let columns = &outcome.annotation.columns;
        TableTrace {
            timings: outcome.annotation.timings.clone(),
            cols: columns.len(),
            header_exits: columns
                .iter()
                .filter(|c| c.steps_run.len() == 1 && c.steps_run[0] == StepId::HEADER)
                .count(),
            has_base,
        }
    }
}

/// What one replay pass yields.
pub struct Replay {
    /// End-to-end time of each annotate request, in ns.
    pub request_ns: Vec<u64>,
    /// End-to-end time of each feedback call, in ns.
    pub feedback_ns: Vec<u64>,
    pub tables: Vec<TableTrace>,
    pub body_bytes: Vec<usize>,
    pub problems: Vec<String>,
}

impl Replay {
    /// Σ request and feedback time: the replay's end-to-end time.
    pub fn total_ns(&self) -> u64 {
        self.request_ns.iter().chain(&self.feedback_ns).sum()
    }
}

/// Replay `ops` on a fresh customer over `global` whose cache lives in
/// `dir`, through a shaper and admission queue built as the server
/// builds them (unbudgeted lanes, capacity 64).
pub fn replay(
    global: &Arc<GlobalModel>,
    dir: &Path,
    ops: &[ReplayOp],
    rec: &mut Recorder,
) -> io::Result<Replay> {
    let mut typer = cached_typer(global, dir)?;
    let admission = Admission {
        shaper: TrafficShaper::new(
            Arc::new(TenantRegistry::new()),
            None,
            None,
            Duration::from_secs(1),
        ),
        queue: BoundedQueue::new(64),
    };
    let mut out = Replay {
        request_ns: Vec::new(),
        feedback_ns: Vec::new(),
        tables: Vec::new(),
        body_bytes: Vec::new(),
        problems: Vec::new(),
    };
    for (req, op) in ops.iter().enumerate() {
        match op {
            ReplayOp::Feedback(c) => {
                let table = c.table.decoded();
                let ty = typer
                    .ontology()
                    .lookup_exact(&c.type_name)
                    .expect("corrections carry ontology type names");
                let started = Instant::now();
                rec.time("feedback", None, req, || {
                    typer.feedback(&table, c.col_idx, ty, None);
                });
                out.feedback_ns.push(crate::load::nanos(started.elapsed()));
            }
            ReplayOp::Annotate { body, lane, tenant } => {
                match serve_one(&typer, &admission, (body, *lane, tenant), req, rec) {
                    Ok((ns, trace)) => {
                        out.request_ns.push(ns);
                        out.body_bytes.push(body.len());
                        out.tables.push(trace);
                    }
                    Err(e) => out.problems.push(format!("replay request {req}: {e}")),
                }
            }
        }
    }
    Ok(out)
}

/// The server's admission state: shaper (unbudgeted lanes) and queue.
struct Admission {
    shaper: TrafficShaper,
    queue: BoundedQueue<usize>,
}

/// One request (body, lane, tenant) along the server's path. Returns
/// its end-to-end time.
fn serve_one(
    typer: &SigmaTyper,
    admission: &Admission,
    (body, lane, tenant_name): (&str, TrafficLane, &str),
    req: usize,
    rec: &mut Recorder,
) -> Result<(u64, TableTrace), String> {
    let Admission { shaper, queue } = admission;
    let started = Instant::now();
    let root_start = rec.now();
    // The root is pushed first so children can name it; its end is
    // filled in below.
    let root = rec.enabled.then(|| {
        rec.spans.push(Span {
            name: "request",
            start_ns: root_start,
            end_ns: root_start,
            parent: None,
            req,
        });
        rec.spans.len() - 1
    });
    let (parsed, _) = rec.time("jsonshim.parse", root, req, || Json::parse(body));
    let parsed = parsed.map_err(|e| format!("JSON: {e}"))?;
    let (decoded, _) = rec.time("wire.decode", root, req, || {
        let table = tu_server::wire::table_from_json(parsed.get("table").unwrap_or(&parsed))?;
        let base = match parsed.get("base") {
            Some(b) if !b.is_null() => Some(tu_server::wire::table_from_json(b)?),
            _ => None,
        };
        let options = tu_server::wire::options_from_json(parsed.get("options"))?;
        Ok::<_, String>((table, base, options))
    });
    let (table, base, mut options) = decoded?;
    let (tenant, _) = rec.time("tenant.admit", root, req, || {
        let tenant = shaper.registry().intern(tenant_name);
        let admitted = shaper.admit(queue, lane, tenant, req).is_ok() && queue.pop() == Some(req);
        admitted.then_some(tenant)
    });
    let tenant = tenant.ok_or("admission refused")?;
    options.tenant = Some(tenant);
    let (grant, _) = rec.time("tenant.grant", root, req, || {
        shaper.request_budget(lane, tenant, options.resolved().0)
    });
    let annotate_start = rec.now();
    let (outcome, annotate) = rec.time("system.annotate", root, req, || {
        let executor = CascadeExecutor::from_config(typer.config());
        match &grant {
            ShapedBudget::Shared(ledger) => typer.annotate_request_shared_with_base(
                &table,
                base.as_ref(),
                &executor,
                &options,
                ledger,
            ),
            ShapedBudget::Local { cap_nanos, .. } => typer.annotate_request_shared_with_base(
                &table,
                base.as_ref(),
                &executor,
                &options,
                &BudgetLedger::bounded(*cap_nanos),
            ),
        }
    });
    // Step spans: laid end to end from the annotate start, each as
    // long as its StepTiming says.
    if let Some(parent) = annotate {
        let mut at = annotate_start;
        for t in &outcome.annotation.timings {
            let end = at + u64::try_from(t.nanos).unwrap_or(u64::MAX);
            rec.spans.push(Span {
                name: step_span_name(t.step),
                start_ns: at,
                end_ns: end,
                parent: Some(parent),
                req,
            });
            at = end;
        }
    }
    rec.time("aggregate", root, req, || {
        let config = typer.config();
        let weight_of = |id: StepId| typer.cascade().weight(id, config);
        for col in &outcome.annotation.columns {
            let executed: Vec<(StepId, &StepScores)> = col
                .steps_run
                .iter()
                .copied()
                .zip(&col.step_scores)
                .collect();
            let top = soft_majority_vote_with(&executed, config, &weight_of);
            std::hint::black_box(apply_tau(&top, config.tau));
        }
    });
    let (encoded, _) = rec.time("wire.encode", root, req, || {
        tu_server::wire::outcome_to_json(&outcome, typer.ontology()).to_string()
    });
    std::hint::black_box(encoded);
    rec.time("tenant.settle", root, req, || {
        shaper.settle(
            lane,
            tenant,
            &grant,
            outcome.degradation.spent_nanos,
            u64::from(outcome.degraded()),
            outcome.degradation.delta_reused as u64,
        );
    });
    let elapsed = crate::load::nanos(started.elapsed());
    if let Some(root) = root {
        rec.spans[root].end_ns = rec.now();
        // Direct probes of single layer functions, outside the request.
        let config = typer.config();
        for header in table.headers() {
            rec.time("header.match", None, req, || {
                std::hint::black_box(typer.global().header.match_header(
                    header,
                    &typer.global().embedder,
                    config,
                ));
            });
        }
        let steps = typer.cascade().step_ids();
        rec.time("cache.fingerprint", None, req, || {
            column_fingerprints(&table, &steps, config, typer.cache_epoch())
        });
        if let Some(base) = &base {
            rec.time("delta.diff", None, req, || {
                TableDelta::between(base, &table)
            });
        }
    }
    Ok((elapsed, TableTrace::of(&outcome, base.is_some())))
}

fn step_span_name(step: StepId) -> &'static str {
    match step {
        StepId::HEADER => "step.header",
        StepId::LOOKUP => "step.lookup",
        StepId::EMBEDDING => "step.embedding",
        _ => "step.other",
    }
}

/// Sum of the durations of spans named `name`, and their count.
fn sum_named(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(sum, n), s| {
            (sum + (s.end_ns - s.start_ns) as f64, n + 1)
        })
}

fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

/// Layer metrics computed from a traced replay's spans.
pub struct SpanMetrics {
    pub parse_us_per_kb: f64,
    pub decode_us_per_col: f64,
    pub encode_us_per_col: f64,
    pub admit_ns: f64,
    pub grant_settle_ns: f64,
    pub annotate_ms: f64,
    pub executor_self_us_per_table: f64,
    pub aggregate_us_per_col: f64,
    pub header_match_us: f64,
    pub fingerprint_us_per_table: f64,
    pub diff_us_per_table: f64,
    /// Σ child spans ÷ Σ request spans.
    pub reconciled_frac: f64,
    /// Requests whose Σ StepTiming exceeds their annotate span.
    pub steps_over_annotate: usize,
}

pub fn span_metrics(spans: &[Span], replay: &Replay) -> SpanMetrics {
    let cols: usize = replay.tables.iter().map(|t| t.cols).sum();
    let kb = replay.body_bytes.iter().sum::<usize>() as f64 / 1000.0;
    let per_col = |name: &str| ratio(sum_named(spans, name).0 / 1e3, cols as f64);
    let mean_of = |name: &str| {
        let (sum, n) = sum_named(spans, name);
        ratio(sum, n as f64)
    };
    // Reconciliation: direct children of each request root against
    // the root itself.
    let mut child_sum = vec![0u64; spans.len()];
    let mut step_sum = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if s.name.starts_with("step.") {
                step_sum[p] += s.end_ns - s.start_ns;
            } else {
                child_sum[p] += s.end_ns - s.start_ns;
            }
        }
    }
    let (mut roots, mut covered) = (0u64, 0u64);
    let mut self_us = Vec::new();
    let mut steps_over_annotate = 0;
    for (i, s) in spans.iter().enumerate() {
        if s.name == "request" {
            roots += s.end_ns - s.start_ns;
            covered += child_sum[i];
        }
        if s.name == "system.annotate" {
            let span = s.end_ns - s.start_ns;
            if step_sum[i] > span {
                steps_over_annotate += 1;
            }
            self_us.push(span.saturating_sub(step_sum[i]) as f64 / 1e3);
        }
    }
    let diffs = durations(spans, "delta.diff");
    SpanMetrics {
        parse_us_per_kb: ratio(sum_named(spans, "jsonshim.parse").0 / 1e3, kb),
        decode_us_per_col: per_col("wire.decode"),
        encode_us_per_col: per_col("wire.encode"),
        admit_ns: median(&durations(spans, "tenant.admit")),
        grant_settle_ns: median(&durations(spans, "tenant.grant"))
            + median(&durations(spans, "tenant.settle")),
        annotate_ms: median(&durations(spans, "system.annotate")) / 1e6,
        executor_self_us_per_table: crate::stats::mean(&self_us),
        aggregate_us_per_col: per_col("aggregate"),
        header_match_us: mean_of("header.match") / 1e3,
        fingerprint_us_per_table: mean_of("cache.fingerprint") / 1e3,
        diff_us_per_table: crate::stats::mean(&diffs) / 1e3,
        reconciled_frac: ratio(covered as f64, roots as f64),
        steps_over_annotate,
    }
}

/// Layer metrics computed from step telemetry: per-column step cost,
/// how far columns travel down the cascade, and cache traffic.
pub struct StepMetrics {
    pub header_us_per_col: f64,
    pub lookup_us_per_col: f64,
    pub embedding_us_per_col: f64,
    pub header_exit_frac: f64,
    pub lookup_cols_frac: f64,
    pub embedding_cols_frac: f64,
    pub chunks_per_step: f64,
    pub cache_hit_frac: f64,
    pub cache_miss_frac: f64,
    pub cache_inserts_per_col: f64,
    pub delta_reused_frac: f64,
}

pub fn step_metrics(tables: &[TableTrace]) -> StepMetrics {
    let mut nanos = [0f64; 3];
    let mut ran = [0f64; 3];
    let (mut chunks, mut active) = (0f64, 0f64);
    let (mut hits, mut misses, mut inserts) = (0f64, 0f64, 0f64);
    let (mut reused, mut reuse_candidates) = (0f64, 0f64);
    let (mut cols, mut exits) = (0f64, 0f64);
    for t in tables {
        cols += t.cols as f64;
        exits += t.header_exits as f64;
        for s in &t.timings {
            let slot = [StepId::HEADER, StepId::LOOKUP, StepId::EMBEDDING]
                .iter()
                .position(|id| *id == s.step);
            if let Some(k) = slot {
                nanos[k] += s.nanos as f64;
                ran[k] += s.columns as f64;
            }
            if s.chunks > 0 {
                chunks += s.chunks as f64;
                active += 1.0;
            }
            hits += s.cache_hits as f64;
            misses += s.cache_misses as f64;
            inserts += s.cache_inserts as f64;
            if t.has_base {
                reused += s.delta_reused as f64;
                reuse_candidates += (s.delta_reused + s.cache_hits + s.cache_misses) as f64;
            }
        }
    }
    StepMetrics {
        header_us_per_col: ratio(nanos[0] / 1e3, ran[0]),
        lookup_us_per_col: ratio(nanos[1] / 1e3, ran[1]),
        embedding_us_per_col: ratio(nanos[2] / 1e3, ran[2]),
        header_exit_frac: ratio(exits, ran[0]),
        lookup_cols_frac: ratio(ran[1], cols),
        embedding_cols_frac: ratio(ran[2], cols),
        chunks_per_step: ratio(chunks, active),
        cache_hit_frac: ratio(hits, hits + misses),
        cache_miss_frac: ratio(misses, hits + misses),
        cache_inserts_per_col: ratio(inserts, cols),
        delta_reused_frac: ratio(reused, reuse_candidates),
    }
}

/// Body of an annotate request for `table` with an optional base.
pub fn body_of(table: &WireTable, base: Option<&WireTable>) -> String {
    crate::inputs::annotate_body(&table.json(), base.map(WireTable::json).as_deref())
}
