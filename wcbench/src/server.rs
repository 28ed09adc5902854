//! The `wcbk serve` child process: spawn, readiness, `/metrics` scrapes,
//! peak memory, and shutdown.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::Conn;

/// Worker threads the server runs with: the reference box has 2 cores, and
/// no workload opens more than 2 connections.
pub const WORKERS: usize = 2;

/// A running server.
pub struct Server {
    child: Child,
    pub addr: String,
    pub flags: Vec<String>,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin serve` on a kernel-chosen port with a durable catalog in
    /// `data_dir` (emptied first), and waits for its listening banner.
    pub fn spawn(bin: &Path, data_dir: &Path) -> Result<Server, String> {
        if data_dir.exists() {
            std::fs::remove_dir_all(data_dir)
                .map_err(|e| format!("clearing {}: {e}", data_dir.display()))?;
        }
        let flags: Vec<String> = vec![
            "serve".into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            WORKERS.to_string(),
            "--data-dir".into(),
            data_dir.display().to_string(),
        ];
        let mut child = Command::new(bin)
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let mut addr = None;
        for line in lines.by_ref() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.split("listening on http://").nth(1) {
                addr = rest.split_whitespace().next().map(str::to_owned);
                break;
            }
        }
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server exited before announcing its address".into());
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
        Ok(Server {
            child,
            addr,
            flags,
            drain: Some(drain),
        })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr).map_err(|e| format!("connecting to {}: {e}", self.addr))
    }

    /// Scrapes `/metrics` into `series → value` (labels kept in the key).
    pub fn metrics(&self) -> Result<HashMap<String, f64>, String> {
        let mut conn = self.connect()?;
        let resp = conn
            .request("GET", "/metrics", "text/plain", b"")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /metrics answered {}", resp.status));
        }
        let text = String::from_utf8_lossy(&resp.body);
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_owned(), value.parse().ok()?))
            })
            .collect())
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".into())
    }

    /// CPU seconds the server has used so far, all threads, user and system
    /// (`/proc/<pid>/stat` fields 14 and 15, in the fixed 100 Hz user tick).
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("reading server stat: {e}"))?;
        // Fields after the parenthesized command name, which may hold spaces.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(user), Some(system)) => Ok((user + system) / 100.0),
            _ => Err("malformed server stat".into()),
        }
    }

    /// Graceful shutdown, then waits for the process (killing it if it
    /// does not exit in time).
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| {
                c.request("POST", "/shutdown", "application/json", b"{}")
                    .map_err(|e| e.to_string())
            })
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(20);
        while asked && Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.reap();
        if asked {
            Ok(())
        } else {
            Err("server refused /shutdown".into())
        }
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Sum of a `/metrics` family over all label sets (`name` or `name{…}`).
pub fn family(m: &HashMap<String, f64>, name: &str) -> f64 {
    m.iter()
        .filter(|(k, _)| *k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
        .map(|(_, v)| v)
        .sum()
}

/// Host CPU ticks `(steal, total)` so far, from `/proc/stat`: on a virtual
/// machine, steal is time the guest was runnable but the host ran
/// something else — the usual reason a whole run reads slow.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The filesystem type holding `path`, from the longest matching mount.
pub fn filesystem(path: &Path) -> String {
    let path: PathBuf = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}
