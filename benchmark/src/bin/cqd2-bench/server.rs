//! The system under test: the unmodified `cqd2-serve` binary as a child
//! process. A server that does not come up, hangs at shutdown, exits
//! non-zero or omits its `shutdown complete` line is a failed run, not
//! a missing sample.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const START_DEADLINE: Duration = Duration::from_secs(10);
const STOP_DEADLINE: Duration = Duration::from_secs(10);
const SIGTERM: i32 = 15;
/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, which Linux
/// fixes at 100 for every architecture it exposes `/proc` on.
const TICKS_PER_SECOND: f64 = 100.0;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Process-level readings taken from `/proc/<pid>` while the server is
/// still alive.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    /// utime + stime of the whole process (all threads, exited ones
    /// included), in milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set (`VmHWM`), in MiB.
    pub rss_peak_mib: f64,
}

pub struct Server {
    child: Child,
    lines: Receiver<String>,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
    stopped: bool,
}

impl Server {
    /// Spawn `binary` with `flags`, listening on an OS-chosen loopback
    /// port, and wait for its `listening on` line.
    pub fn start(binary: &Path, flags: &[String], stderr_log: &Path) -> Result<Server, String> {
        let log = std::fs::File::create(stderr_log)
            .map_err(|e| format!("creating {}: {e}", stderr_log.display()))?;
        let mut child = Command::new(binary)
            // The stdin pipe is never written; it closes when this
            // process ends, however it ends, and the server then shuts
            // itself down instead of being orphaned.
            .args(["--listen", "127.0.0.1:0", "--shutdown-on-stdin-close"])
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        // cqd2-lint: allow(unscoped-spawn, reason = "blocks reading the child's stdout until the child closes it; joined in stop() and in Drop, after the child has exited")
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = Server {
            child,
            lines,
            drain: Some(drain),
            addr: String::new(),
            stopped: false,
        };
        let line = server.wait_for_line("listening on ", START_DEADLINE)?;
        server.addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("no address in `{line}`"))?
            .to_string();
        Ok(server)
    }

    fn wait_for_line(&mut self, needle: &str, deadline: Duration) -> Result<String, String> {
        let until = Instant::now() + deadline;
        loop {
            let left = until.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) if line.contains(needle) => return Ok(line),
                Ok(_) => {}
                Err(_) => {
                    return Err(format!(
                        "cqd2-serve printed no `{}` line within {deadline:?} (see its stderr log)",
                        needle.trim()
                    ))
                }
            }
        }
    }

    pub fn sample(&self) -> Result<ProcSample, String> {
        let pid = self.child.id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the line, 12 and 13 after the `)`.
        let after = stat.rsplit(')').next().unwrap_or("");
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("/proc/{pid}/stat: field {i} missing"))
        };
        let cpu_ms = (ticks(11)? + ticks(12)?) * 1000.0 / TICKS_PER_SECOND;
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
        let hwm_kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kib| kib.parse::<f64>().ok())
            .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))?;
        Ok(ProcSample {
            cpu_ms,
            rss_peak_mib: hwm_kib / 1024.0,
        })
    }

    /// SIGTERM, then require the `shutdown complete` line and exit 0.
    pub fn stop(mut self) -> Result<(), String> {
        let pid = i32::try_from(self.child.id()).map_err(|_| "pid out of range".to_string())?;
        // SAFETY: `kill(2)` takes two integers and touches no memory of
        // this process; `pid` is our own un-reaped child, so the id
        // cannot have been reused.
        if unsafe { kill(pid, SIGTERM) } != 0 {
            return Err(format!("kill({pid}, SIGTERM) failed"));
        }
        let line = self.wait_for_line("shutdown complete", STOP_DEADLINE);
        let until = Instant::now() + STOP_DEADLINE;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < until => std::thread::sleep(Duration::from_millis(2)),
                Ok(None) => return Err("cqd2-serve did not exit after SIGTERM".to_string()),
                Err(e) => return Err(format!("waiting for cqd2-serve: {e}")),
            }
        };
        self.stopped = true;
        line?;
        if !status.success() {
            return Err(format!("cqd2-serve exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    /// Covers every early return and a generator panic: the child never
    /// outlives the benchmark.
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}
