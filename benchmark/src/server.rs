//! The `cots-serve` child process: spawn, wait for `listening on`, read
//! its `/proc` accounting, kill, reap and clean up on every exit path.
//!
//! The server binds port 0 and the driver reads the address back from
//! the `listening on` line, so no port is ever guessed. Every server has
//! a pid file next to its data directory; `run.sh` kills whatever the
//! pid files name when the driver itself dies (Ctrl-C, SIGTERM), and
//! [`refuse_if_running`] stops a new run while an old server is alive.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::spec;

/// Result alias: the driver reports failures as plain messages.
pub type Result<T> = std::result::Result<T, String>;

/// Turn any displayable error into the driver's message type.
pub fn msg<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Where a run keeps its files and which server binary it drives.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `cots-serve` binary built from this checkout.
    pub server_bin: PathBuf,
    /// `benchmark/out` (or `COTS_BENCH_DIR`): results, span files.
    pub out_dir: PathBuf,
    /// This run's scratch directory under `out_dir`: pid files, data
    /// directories, server logs. Removed when the run ends.
    pub run_dir: PathBuf,
    /// Kernel clock ticks per second (`getconf CLK_TCK`).
    pub clk_tck: f64,
}

/// A running server. Dropping it kills and reaps the process and removes
/// its data directory and pid file.
pub struct Server {
    child: Child,
    /// Held open so the server never sees a closed stdout.
    _stdout: BufReader<ChildStdout>,
    /// `host:port` the server reported.
    pub addr: String,
    /// Seconds from spawn to the `listening on` line.
    pub boot_secs: f64,
    pid_file: PathBuf,
    /// Data directory to remove on drop (`None`: volatile, or the
    /// directory outlives this process on purpose).
    owned_dir: Option<PathBuf>,
    clk_tck: f64,
}

/// How the restart workload's data directory is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataDir<'a> {
    /// No `--data-dir`.
    None,
    /// A fresh directory this server owns and removes.
    Fresh,
    /// An existing directory that must survive this server.
    Keep(&'a Path),
}

/// CPU and scheduling counters of the server process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User CPU seconds.
    pub user_secs: f64,
    /// System CPU seconds.
    pub sys_secs: f64,
    /// Voluntary plus involuntary context switches, all threads.
    pub ctx_switches: u64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
}

impl ProcSample {
    /// User plus system CPU seconds.
    pub fn cpu_secs(&self) -> f64 {
        self.user_secs + self.sys_secs
    }
}

impl Server {
    /// Spawn `cots-serve` in the shape every workload shares and wait
    /// until it listens. `checkpoint_ms` only matters with a data
    /// directory (0 turns the background checkpointer off).
    pub fn spawn(env: &Env, data: DataDir<'_>, checkpoint_ms: u64) -> Result<Self> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        fs::create_dir_all(&env.run_dir).map_err(msg("create run dir"))?;
        let mut cmd = Command::new(&env.server_bin);
        cmd.args(["--addr", "127.0.0.1:0", "--io-model", "reactor"])
            .args(["--reactor-threads", "1"])
            .args(["--shards", &spec::SHARDS.to_string()])
            .args(["--capacity", &spec::CAPACITY.to_string()])
            .args(["--refresh-ms", &spec::REFRESH_MS.to_string()])
            .args(["--queue-batches", &spec::QUEUE_BATCHES.to_string()]);
        let (dir, owned_dir) = match data {
            DataDir::None => (None, None),
            DataDir::Fresh => {
                let d = env.run_dir.join(format!("data-{n}"));
                (Some(d.clone()), Some(d))
            }
            DataDir::Keep(d) => (Some(d.to_path_buf()), None),
        };
        if let Some(d) = &dir {
            cmd.arg("--data-dir")
                .arg(d)
                .args(["--fsync", "always", "--wal-records", "run"])
                .args(["--checkpoint-ms", &checkpoint_ms.to_string()]);
        }
        let log = fs::File::create(env.run_dir.join(format!("server-{n}.log")))
            .map_err(msg("create server log"))?;
        let started = std::time::Instant::now();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", env.server_bin.display()))?;
        let pid_file = env.run_dir.join(format!("server-{n}.pid"));
        // From here on the child is owned by a `Server`, so every early
        // return below kills and reaps it.
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut server = Self {
            child,
            _stdout: stdout,
            addr: String::new(),
            boot_secs: 0.0,
            pid_file,
            owned_dir,
            clk_tck: env.clk_tck,
        };
        fs::write(&server.pid_file, server.pid().to_string()).map_err(msg("write pid file"))?;
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                ._stdout
                .read_line(&mut line)
                .map_err(msg("read server stdout"))?;
            if n == 0 {
                return Err(format!(
                    "cots-serve exited before listening (see {})",
                    env.run_dir.display()
                ));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr.to_string();
                server.boot_secs = started.elapsed().as_secs_f64();
                return Ok(server);
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL the server and reap it. Idempotent.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Read the process's CPU time, context switches and peak RSS.
    pub fn sample(&self) -> io::Result<ProcSample> {
        let pid = self.pid();
        let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let field = |i: usize| -> f64 {
            rest.split_whitespace()
                .nth(i)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        };
        let mut sample = ProcSample {
            user_secs: field(11) / self.clk_tck,
            sys_secs: field(12) / self.clk_tck,
            ..ProcSample::default()
        };
        let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
        sample.peak_rss_mb = status_value(&status, "VmHWM:") as f64 / 1024.0;
        for task in fs::read_dir(format!("/proc/{pid}/task"))? {
            let status = fs::read_to_string(task?.path().join("status")).unwrap_or_default();
            sample.ctx_switches += status_value(&status, "voluntary_ctxt_switches:")
                + status_value(&status, "nonvoluntary_ctxt_switches:");
        }
        Ok(sample)
    }
}

/// The number following `key` in a `/proc/<pid>/status` text.
fn status_value(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
        let _ = fs::remove_file(&self.pid_file);
        if let Some(d) = &self.owned_dir {
            let _ = fs::remove_dir_all(d);
        }
    }
}

/// Refuse to start while a server from an earlier run is still alive:
/// two servers on two cores would measure the scheduler. Pid files whose
/// process is gone are stale and their run directory is removed.
pub fn refuse_if_running(out_dir: &Path) -> Result<()> {
    let Ok(runs) = fs::read_dir(out_dir) else {
        return Ok(());
    };
    for run in runs.flatten() {
        let path = run.path();
        let is_run_dir = run.file_name().to_string_lossy().starts_with("run-");
        if !is_run_dir || !path.is_dir() {
            continue;
        }
        for f in fs::read_dir(&path).map_err(msg("read run dir"))?.flatten() {
            if f.path().extension().is_some_and(|e| e == "pid") {
                let pid = fs::read_to_string(f.path()).unwrap_or_default();
                let cmdline =
                    fs::read_to_string(format!("/proc/{}/cmdline", pid.trim())).unwrap_or_default();
                if cmdline.contains("cots-serve") {
                    return Err(format!(
                        "a previous cots-serve (pid {}) from {} is still running; \
                         kill it before starting another run",
                        pid.trim(),
                        path.display()
                    ));
                }
            }
        }
        let _ = fs::remove_dir_all(&path);
    }
    Ok(())
}
