//! The `mrx serve` child process: start, connect, stop.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mrx_serve::Client;

/// A running `mrx serve` child. Dropping it kills the child and waits.
pub struct Daemon {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    pub addr: String,
    pub pid: u32,
}

/// Daemon settings this benchmark varies.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    pub workers: usize,
    /// Per-worker page-cache budget for paged snapshots.
    pub cache_bytes: Option<u64>,
}

impl Daemon {
    /// Starts `mrx serve` on `snapshot` on a free loopback port and waits
    /// until it answers a ping.
    pub fn start(mrx: &Path, snapshot: &Path, cfg: DaemonConfig) -> Result<Daemon, String> {
        let mut cmd = Command::new(mrx);
        cmd.arg("serve")
            .arg(snapshot)
            .args(["--addr", "127.0.0.1:0", "--strict"])
            .args(["--workers", &cfg.workers.to_string()]);
        if let Some(b) = cfg.cache_bytes {
            cmd.args(["--cache-bytes", &b.to_string()]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", mrx.display()))?;
        let pid = child.id();
        let mut stdout = match child.stdout.take() {
            Some(s) => BufReader::new(s),
            None => return Err("daemon stdout not captured".into()),
        };
        let mut daemon = Daemon {
            child: Some(child),
            stdout: None,
            addr: String::new(),
            pid,
        };
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading daemon banner: {e}"))?;
        // "serving <file> on <addr>"
        daemon.addr = line
            .trim_end()
            .rsplit(" on ")
            .next()
            .filter(|_| line.starts_with("serving "))
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        daemon.stdout = Some(stdout);
        daemon
            .client()?
            .ping()
            .map_err(|e| format!("daemon ping: {e}"))?;
        Ok(daemon)
    }

    /// A fresh connection.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect_with(&self.addr, Duration::from_secs(60))
            .map_err(|e| format!("connecting to {}: {e}", self.addr))
    }

    /// Asks the daemon to drain and stop and waits for it to exit. A
    /// stopped daemon stays stopped.
    pub fn stop(&mut self) -> Result<(), String> {
        let asked = self.client().and_then(|mut c| {
            c.shutdown_server()
                .map_err(|e| format!("shutdown request: {e}"))
        });
        if let (Err(e), Some(child)) = (&asked, self.child.as_mut()) {
            // Never block on the pipe of a daemon that did not hear us.
            let _ = child.kill();
            let _ = child.wait();
            return Err(e.clone());
        }
        // Drain the daemon's farewell stats line until it closes stdout.
        if let Some(mut out) = self.stdout.take() {
            let _ = out.read_to_string(&mut String::new());
        }
        let Some(mut child) = self.child.take() else {
            return Err("daemon already stopped".into());
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not stop in time".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
