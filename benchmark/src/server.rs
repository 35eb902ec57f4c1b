//! The `evirel-serve` child process: start it, find its port, read
//! its peak memory, kill it. This file and `wire.rs` are everything
//! the end-to-end binary knows about the program under test.
//!
//! Pinned command line: `--workers N --addr HOST:0 --seed-workload N
//! --data-dir DIR`; the line `evirel-serve listening on <addr>` on
//! stdout; the environment variables below.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Sessions the server runs at once, and connections the generator
/// opens: one per vCPU of the box the benchmark was sized on.
pub const WORKERS: usize = 2;
/// `EVIREL_THREADS`: one execution thread per query, so a query's
/// time does not depend on what the other connection is doing.
pub const THREADS: &str = "1";
/// `EVIREL_SLOW_QUERY_MS`: ten minutes, so the slow-query log never
/// writes to stderr inside a measured window.
pub const SLOW_QUERY_MS: &str = "600000";

/// How to start the server for one workload.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The release `evirel-serve` binary.
    pub bin: PathBuf,
    /// `--seed-workload`.
    pub seed_tuples: u32,
    /// `EVIREL_BUFFER_BYTES`, if not the default.
    pub buffer_bytes: Option<u64>,
    /// `--data-dir`: on the real filesystem, under `benchmark/out/`.
    pub data_dir: PathBuf,
    /// Where the server's stderr goes (appended across restarts).
    pub stderr: PathBuf,
}

impl Launch {
    /// The `EVIREL_*` variables the server is started with — recorded
    /// in every result file. All others are removed from its
    /// environment.
    pub fn env(&self) -> Vec<(&'static str, String)> {
        let mut env = vec![
            ("EVIREL_THREADS", THREADS.to_owned()),
            ("EVIREL_SLOW_QUERY_MS", SLOW_QUERY_MS.to_owned()),
        ];
        if let Some(bytes) = self.buffer_bytes {
            env.push(("EVIREL_BUFFER_BYTES", bytes.to_string()));
        }
        env
    }
}

/// A running server. Dropping it kills the process and waits for it,
/// on every exit path.
#[derive(Debug)]
pub struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Start the server and wait for its `listening on` line.
    ///
    /// # Errors
    /// Spawn failures, or the server exiting before it listens (its
    /// stderr file says why).
    pub fn start(launch: &Launch) -> Result<Server, String> {
        let stderr = File::options()
            .create(true)
            .append(true)
            .open(&launch.stderr)
            .map_err(|e| format!("cannot open {}: {e}", launch.stderr.display()))?;
        let mut cmd = Command::new(&launch.bin);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("EVIREL_") {
                cmd.env_remove(key);
            }
        }
        cmd.envs(launch.env())
            .args(["--workers", &WORKERS.to_string(), "--addr", "127.0.0.1:0"])
            .args(["--seed-workload", &launch.seed_tuples.to_string()])
            .arg("--data-dir")
            .arg(&launch.data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", launch.bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("evirel-serve listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        // From here on the guard owns the child, so an early return
        // cannot leak it.
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => {
                server.kill();
                Err(format!(
                    "evirel-serve did not report a listening address (got {line:?}); see {}",
                    launch.stderr.display()
                ))
            }
        }
    }

    /// Where the server listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (`VmHWM`) so far, MiB.
    ///
    /// # Errors
    /// When `/proc/<pid>/status` cannot be read or has no `VmHWM`.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// `kill -9` and reap: no clean-shutdown checkpoint runs.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Total length of the regular files directly in `dir`.
///
/// # Errors
/// I/O errors.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut total = 0;
    for entry in entries {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
