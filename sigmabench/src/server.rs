//! The `annotation-server` binary as deployed: started as a child
//! process, timed from spawn to its first `/healthz` 200, scraped over
//! `/metrics`, and drained with `POST /shutdown`.

use httpshim::HttpClient;
use jsonshim::Json;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long start-up and drain may take before the run gives up.
const PATIENCE: Duration = Duration::from_secs(60);

/// Servers started and not yet reaped, so a run past its deadline can
/// stop them (see [`kill_live`]).
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    LIVE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Kill every server still running; used when a run hangs.
pub fn kill_live() {
    for pid in live().drain(..) {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
}

pub struct ServerProcess {
    child: Child,
    stdout_reader: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Spawn to first `/healthz` 200, in seconds.
    pub setup_s: f64,
}

fn error(what: String) -> io::Error {
    io::Error::other(what)
}

impl ServerProcess {
    /// Start `bin --addr 127.0.0.1:0 --workers N --cache-dir DIR`.
    pub fn start(bin: &Path, cache_dir: &Path, workers: usize) -> io::Result<ServerProcess> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .arg("--cache-dir")
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| error(format!("cannot start {}: {e}", bin.display())))?;
        live().push(child.id());
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Drain stdout until the server exits, so it never blocks on a
        // full pipe; the first line carries the bound address.
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut server = ServerProcess {
            child,
            stdout_reader: Some(stdout_reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup_s: 0.0,
        };
        let line = rx
            .recv_timeout(PATIENCE)
            .map_err(|_| error("server printed no address".into()))?;
        server.addr = line
            .strip_prefix("listening on ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| error(format!("unexpected first line {line:?}")))?;
        loop {
            let healthy = HttpClient::connect(server.addr)
                .and_then(|mut c| c.get("/healthz"))
                .is_ok_and(|r| r.status == 200);
            if healthy {
                break;
            }
            if started.elapsed() > PATIENCE {
                return Err(error("server never became healthy".into()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        server.setup_s = started.elapsed().as_secs_f64();
        Ok(server)
    }

    pub fn metrics(&self) -> io::Result<Json> {
        let resp = HttpClient::connect(self.addr)?.get("/metrics")?;
        if resp.status != 200 {
            return Err(error(format!("/metrics answered {}", resp.status)));
        }
        Json::parse(&resp.body_str()).map_err(|e| error(format!("/metrics JSON: {e}")))
    }

    /// Peak resident set of the server process (`VmHWM`), in MB.
    pub fn rss_peak_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| error("no VmHWM in /proc status".into()))
    }

    /// Ask for a graceful drain and wait for a clean exit (the drop
    /// that follows reaps the process and joins its reader).
    pub fn shutdown(mut self) -> io::Result<()> {
        let resp = HttpClient::connect(self.addr)?.request("POST", "/shutdown", &[], b"")?;
        if resp.status != 200 {
            return Err(error(format!("/shutdown answered {}", resp.status)));
        }
        let deadline = Instant::now() + PATIENCE;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(error(format!("server exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                return Err(error("server did not drain in time".into()));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let pid = self.child.id();
        live().retain(|&p| p != pid);
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
    }
}

/// Start and drain the server `n` times on fresh cache directories and
/// return each start-up time; the last server is left running.
pub fn start_repeatedly(
    bin: &Path,
    work: &Path,
    workers: usize,
    n: usize,
) -> io::Result<(Vec<f64>, ServerProcess)> {
    let mut setups = Vec::with_capacity(n);
    for k in 1..n {
        let server = ServerProcess::start(bin, &work.join(format!("setup-{k}")), workers)?;
        setups.push(server.setup_s);
        server.shutdown()?;
    }
    let server = ServerProcess::start(bin, &work.join("serve"), workers)?;
    setups.push(server.setup_s);
    Ok((setups, server))
}

/// Sum of a per-lane counter across `/metrics` lanes.
pub fn lanes_total(metrics: &Json, field: &str) -> u64 {
    ["interactive", "crawl"]
        .iter()
        .filter_map(|lane| metrics.get("lanes")?.get(lane)?.get(field)?.as_u64())
        .sum()
}
