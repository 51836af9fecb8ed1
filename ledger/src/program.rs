//! Driving the `reproduce` binary as a user would: a scratch directory
//! per run, one-shot commands timed with their peak resident memory, and
//! a long-running server that is always stopped and reaped.

use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// A fresh scratch directory under `.ledger/` in the working directory,
/// removed with everything in it when dropped.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn new(workload: &str) -> Result<RunDir, String> {
        let path = PathBuf::from(".ledger").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where a traced run writes its Chrome trace (kept after the run).
pub fn trace_path(workload: &str, seed: u64) -> Result<PathBuf, String> {
    std::fs::create_dir_all(".ledger").map_err(|e| format!("create .ledger: {e}"))?;
    Ok(PathBuf::from(".ledger").join(format!("trace-{workload}-seed{seed}.json")))
}

/// A finished one-shot command.
pub struct Finished {
    pub status: ExitStatus,
    /// Seconds from spawn until the exit was observed.
    pub wall: f64,
    /// Peak resident set (`VmHWM`), KiB, as last sampled before exit.
    pub peak_rss_kib: Option<u64>,
    pub stdout: String,
    pub stderr: String,
}

/// The `VmHWM` line of `/proc/<pid>/status`, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `cmd` to completion, sampling its peak resident memory every
/// 5 ms (`VmHWM` only grows, so the last sample before exit is the
/// peak). The process is killed once `timeout` seconds have passed.
pub fn run_sampled(cmd: &mut Command, timeout: f64) -> Result<Finished, String> {
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let pid = child.id();
    let mut out_pipe = child.stdout.take().expect("stdout is piped");
    let mut err_pipe = child.stderr.take().expect("stderr is piped");
    std::thread::scope(|s| {
        let out = s.spawn(move || {
            let mut text = String::new();
            let _ = out_pipe.read_to_string(&mut text);
            text
        });
        let err = s.spawn(move || {
            let mut text = String::new();
            let _ = err_pipe.read_to_string(&mut text);
            text
        });
        let mut peak: Option<u64> = None;
        let waited = loop {
            if let Some(hwm) = vm_hwm_kib(pid) {
                peak = Some(peak.map_or(hwm, |p| p.max(hwm)));
            }
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) => {}
                Err(e) => break Err(format!("wait {cmd:?}: {e}")),
            }
            if t0.elapsed().as_secs_f64() > timeout {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("{cmd:?} did not finish within {timeout} s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let wall = t0.elapsed().as_secs_f64();
        let stdout = out.join().expect("stdout reader panicked");
        let stderr = err.join().expect("stderr reader panicked");
        waited.map(|status| Finished {
            status,
            wall,
            peak_rss_kib: peak,
            stdout,
            stderr,
        })
    })
}

/// A `reproduce serve --http` process; killed and reaped on drop unless
/// it was shut down cleanly first.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `reproduce serve --http 127.0.0.1:0 --store <store>` and
    /// waits until it reports the address it listens on.
    pub fn start(reproduce: &Path, store: &Path, log: &Path) -> Result<Server, String> {
        let log_file =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let child = Command::new(reproduce)
            .args(["serve", "--http", "127.0.0.1:0", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", reproduce.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let t0 = Instant::now();
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find_map(|l| l.strip_prefix("serving http on "))
                .and_then(|a| a.trim().parse().ok())
            {
                server.addr = addr;
                return Ok(server);
            }
            let child = server.child.as_mut().expect("running");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("server exited early ({status}): {text}"));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("server did not report its address within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The server's peak resident memory so far (`VmHWM`), MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        Some(vm_hwm_kib(pid)? as f64 / 1024.0)
    }

    /// Asks the server to stop (`POST /shutdown`) and waits for a clean
    /// exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        crate::http::post_shutdown(self.addr)?;
        let mut child = self.child.take().expect("running");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if t0.elapsed() > Duration::from_secs(30) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not stop within 30 s of POST /shutdown".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("wait for server: {e}"));
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
