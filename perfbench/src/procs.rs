//! Child processes of the program under test: servers that are waited
//! on until they print `listening on`, and one-shot CLI invocations
//! timed from spawn to exit.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `skyup serve` / `skyup coordinate` process.
pub struct Server {
    child: Child,
    pub addr: String,
    /// From spawn until the `listening on` line was read.
    pub ready_s: f64,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns `skyup <args>` and waits for its `listening on` line.
    pub fn start(skyup: &Path, args: &[String]) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut child = Command::new(skyup)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", skyup.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("skyup {} exited before listening", args.join(" ")));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                return Ok(Server {
                    addr: addr.to_string(),
                    ready_s: t0.elapsed().as_secs_f64(),
                    child,
                    _stdout: stdout,
                });
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Asks the server to stop, then waits for it to exit (killing it
    /// after `grace`).
    pub fn shutdown(mut self, grace: Duration) -> bool {
        let asked = crate::client::Conn::connect(&self.addr)
            .and_then(|mut c| c.request("{\"op\":\"shutdown\"}"))
            .is_ok();
        let deadline = Instant::now() + grace;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return asked && status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return false,
            }
        }
    }
}

/// Dropping a server kills it and waits for it, so no error path (or
/// panic) leaves a process behind.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One finished CLI invocation.
pub struct Invocation {
    pub wall_s: f64,
    pub success: bool,
    pub stdout: String,
    /// Peak resident set of the process, in MiB.
    pub max_rss_mb: f64,
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Runs `program args`, timing from spawn to exit and reading the
/// child's peak RSS from `wait4`.
pub fn invoke(program: &Path, args: &[String]) -> Result<Invocation, String> {
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child (std never waits on it:
    // `child` is dropped below without `wait`), and both out-pointers
    // refer to live, properly sized locals for the duration of the call.
    // `RUsage` matches `struct rusage` on 64-bit Linux: two `timeval`s
    // followed by fourteen `long`s, `ru_maxrss` first.
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = t0.elapsed().as_secs_f64();
    drop(child);
    if rc != pid {
        return Err(format!("wait4({pid}) failed"));
    }
    read.map_err(|e| format!("read child stdout: {e}"))?;
    // Exited normally (low 7 bits zero) with status 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Invocation {
        wall_s,
        success,
        stdout,
        max_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
