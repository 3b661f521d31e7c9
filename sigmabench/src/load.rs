//! The HTTP load generator: a closed loop whose clients each send
//! their next request as soon as their reply is in, as crawlers do.
//!
//! It uses one process and at most `conns` keep-alive connections, one
//! thread each. Response bodies are kept for checking after the
//! load ends, so the generator does no parsing while it measures.

use httpshim::HttpClient;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as the generator saw it.
pub struct Sample {
    pub idx: usize,
    /// HTTP status, or 0 for a transport error.
    pub status: u16,
    /// Reply time minus send time.
    pub latency_ns: u64,
    /// The generator's own time between the previous reply on this
    /// connection and this send (building the body).
    pub lag_ns: u64,
    pub body: Vec<u8>,
}

/// What a load run returns: samples in request order plus the wall
/// time from the start to the last reply.
pub struct LoadRun {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

/// Lead time between spawning the clients and the start, so thread
/// start-up is not counted.
const LEAD: Duration = Duration::from_millis(20);

/// `POST /annotate` the bodies `make_body(0..n)` over `conns`
/// connections, each request carrying `headers`.
pub fn run(
    addr: SocketAddr,
    n: usize,
    conns: usize,
    headers: &[(&str, &str)],
    make_body: &(dyn Fn(usize) -> String + Sync),
) -> LoadRun {
    let cursor = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(n));
    let start = Instant::now() + LEAD;
    let last_reply = Mutex::new(start);
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| {
                let mut client = HttpClient::connect(addr).expect("loopback address resolves");
                // Open the keep-alive connection before the clock starts.
                let _ = client.get("/healthz");
                if let Some(wait) = start.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let mut free_at = start;
                let mut mine = Vec::new();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::SeqCst);
                    if idx >= n {
                        break;
                    }
                    let request = make_body(idx);
                    let sent = Instant::now();
                    let resp = client.post_json("/annotate", &request, headers);
                    let done = Instant::now();
                    let (status, body) = match resp {
                        Ok(r) => (r.status, r.body),
                        Err(_) => (0, Vec::new()),
                    };
                    mine.push(Sample {
                        idx,
                        status,
                        latency_ns: nanos(done.duration_since(sent)),
                        lag_ns: nanos(sent.saturating_duration_since(free_at)),
                        body,
                    });
                    free_at = done;
                }
                let mut last = last_reply.lock().expect("no client panics holding it");
                *last = (*last).max(free_at);
                drop(last);
                samples
                    .lock()
                    .expect("no client panics holding it")
                    .extend(mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("clients joined");
    samples.sort_by_key(|s| s.idx);
    let wall = last_reply
        .into_inner()
        .expect("clients joined")
        .duration_since(start);
    LoadRun {
        samples,
        wall_s: wall.as_secs_f64(),
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Poll `/metrics` every 10 ms until `stop`, keeping the deepest
/// admission queue seen. Used in traced runs only.
pub fn watch_queue_depth(addr: SocketAddr, stop: &AtomicBool) -> u64 {
    let mut client = HttpClient::connect(addr).expect("loopback address resolves");
    let mut deepest = 0;
    while !stop.load(Ordering::SeqCst) {
        if let Ok(resp) = client.get("/metrics") {
            let depth = jsonshim::Json::parse(&resp.body_str())
                .ok()
                .and_then(|m| m.get("queue_depth").and_then(jsonshim::Json::as_u64));
            deepest = deepest.max(depth.unwrap_or(0));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    deepest
}
