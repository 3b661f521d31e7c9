//! `sigmabench` — the SigmaTyper serving benchmark.
//!
//! ```text
//! sigmabench --workload crawl|recrawl --seed N --seconds S --trace 0|1
//!            --server-bin PATH
//! ```
//!
//! Prints one JSON object as its last line of standard output:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, from a traced in-process replay of the same inputs.
//! A record of the run (seed, machine, toolchain, commit, why the
//! workload exists, sample counts, problems) goes to standard error and
//! to `.bench_work/out/`. See `README.md` beside this crate.

mod check;
mod inputs;
mod load;
mod recrawl;
mod server;
mod serving;
mod stats;
mod trace;

use jsonshim::Json;
use stats::RunResult;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Why each workload exists (also in `BENCHMARK.json`).
const WORKLOADS: [(&str, &str); 2] = [
    (
        "crawl",
        "closed loop over HTTP to the shipped binary, 2 connections, tall opaque-header tables: transport, JSON decode, admission, lookup and embedding dominate",
    ),
    (
        "recrawl",
        "AnnotationService batches over a tiered cache with no wire: fingerprints, cache probes and inserts, delta chains, batch scheduling and feedback",
    ),
];

/// The end-to-end metrics every untraced run prints.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "rss_peak_mb",
    "p50_ms",
    "p99_ms",
    "cols_per_s",
    "ok_frac",
];

pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    /// Client connections (HTTP) or service threads (recrawl).
    pub conns: usize,
    /// Scratch directory of this run, removed at exit.
    pub work: PathBuf,
    /// Where run records and span dumps are kept.
    pub out: PathBuf,
}

fn usage(why: &str) -> ExitCode {
    eprintln!(
        "error: {why}\nusage: sigmabench --workload crawl|recrawl --seed N --seconds S \
         --trace 0|1 --server-bin PATH"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let mut map = std::collections::HashMap::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let take = |flag: &str| map.get(flag).cloned();
    let workload = take("--workload").ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed: u64 = take("--seed")
        .ok_or("--seed is required")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer")?;
    let seconds: f64 = take("--seconds")
        .ok_or("--seconds is required")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    let trace = match take("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace got {other:?}, expected 0 or 1")),
    };
    let server_bin = PathBuf::from(take("--server-bin").ok_or("--server-bin is required")?);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = root
        .join(".bench_work")
        .join(format!("run-{workload}-{seed}-{}", std::process::id()));
    Ok(Ctx {
        out: root.join(".bench_work").join("out"),
        workload,
        seed,
        seconds,
        trace,
        server_bin,
        conns: nproc.min(2),
        work,
    })
}

fn run(ctx: &Ctx) -> std::io::Result<RunResult> {
    std::fs::create_dir_all(&ctx.work)?;
    std::fs::create_dir_all(&ctx.out)?;
    match ctx.workload.as_str() {
        "crawl" => serving::crawl(ctx),
        _ => recrawl::recrawl(ctx),
    }
}

/// (all, steal) CPU time so far from `/proc/stat`, in clock ticks.
fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

fn record(ctx: &Ctx, result: &RunResult) -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == ctx.workload)
        .map_or("", |(_, why)| why);
    Json::object(vec![
        ("workload", Json::from(ctx.workload.as_str())),
        ("why", Json::from(why)),
        ("seed", Json::from(ctx.seed)),
        ("seconds", Json::from(ctx.seconds)),
        ("trace", Json::from(ctx.trace)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, std::num::NonZero::get)),
        ),
        ("connections", Json::from(ctx.conns)),
        ("rustc", Json::from(env("SIGMABENCH_RUSTC").as_str())),
        ("commit", Json::from(env("SIGMABENCH_COMMIT").as_str())),
        ("valid", Json::from(result.problems.is_empty())),
        (
            "problems",
            Json::Arr(
                result
                    .problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Obj(
                result
                    .notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                    .collect(),
            ),
        ),
    ])
}

/// A run still going after this long is stopped and fails, so a hung
/// program cannot hang the benchmark (runs take well under a minute).
const DEADLINE: Duration = Duration::from_secs(170);

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(why) => return usage(&why),
    };
    // Detached on purpose: it either finds the run finished (the
    // process has exited) or ends the process itself.
    let work = ctx.work.clone();
    std::thread::spawn(move || {
        std::thread::sleep(DEADLINE);
        eprintln!("error: the run did not finish within {DEADLINE:?}; stopping it");
        server::kill_live();
        let _ = std::fs::remove_dir_all(&work);
        std::process::exit(1);
    });
    let cpu_before = cpu_times();
    let mut outcome = run(&ctx);
    if let (Ok(result), Some(before), Some(after)) = (&mut outcome, cpu_before, cpu_times()) {
        // Time the hypervisor gave this machine's CPUs to someone else
        // during the run: a high share explains a slow run.
        let total = after.0.saturating_sub(before.0);
        let stolen = after.1.saturating_sub(before.1);
        result.note(
            "cpu_steal_frac",
            format!("{:.4}", stats::ratio(stolen as f64, total as f64)),
        );
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    let result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} run failed: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    // `--trace 0` prints the end-to-end metrics, `--trace 1` the
    // per-layer ones; the record keeps all of them.
    let metric_json = |keep: &dyn Fn(&str) -> bool| {
        Json::Obj(
            result
                .metrics
                .0
                .iter()
                .filter(|(name, _, _)| keep(name))
                .map(|(name, value, unit)| {
                    (
                        (*name).to_owned(),
                        Json::object(vec![
                            ("value", Json::from(*value)),
                            ("unit", Json::from(*unit)),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let mut rec = record(&ctx, &result);
    if let Json::Obj(fields) = &mut rec {
        fields.push(("metrics".to_owned(), metric_json(&|_| true)));
    }
    let metrics = metric_json(&|name| END_TO_END.contains(&name) != ctx.trace);
    eprintln!("record: {rec}");
    for p in &result.problems {
        eprintln!("problem: {p}");
    }
    let name = format!(
        "record-{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    if let Err(e) = std::fs::write(ctx.out.join(name), format!("{rec}\n")) {
        eprintln!("warning: could not keep the run record: {e}");
    }
    let line = Json::object(vec![
        (
            "correct",
            Json::from(result.problems.is_empty() && result.failed == 0),
        ),
        ("attempted", Json::from(result.attempted)),
        ("failed", Json::from(result.failed)),
        ("metrics", metrics),
    ]);
    println!("{line}");
    ExitCode::SUCCESS
}
