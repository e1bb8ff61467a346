//! The server under test: the `ontodq-server` binary as the workspace ships
//! it, built in release mode and spawned per workload on a free loopback
//! port.

use crate::wire::Conn;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads every workload runs the server with.
pub const WORKERS: usize = 2;

/// Where cargo puts build output, relative to the checkout root the
/// benchmark is run from.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Build the shipped server in release mode and return the binary's path.
///
/// The path always ends in `release/ontodq-server`, so a debug build can
/// never be measured by accident.
pub fn build_server() -> Result<PathBuf, String> {
    if !Path::new("crates/server/Cargo.toml").exists() {
        return Err("run from the repository root (crates/server not found)".to_string());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "ontodq-server", "--bin", "ontodq-server"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ontodq-server failed: {status}"));
    }
    let binary = target_dir().join("release").join("ontodq-server");
    if !binary.exists() {
        return Err(format!("{} missing after the build", binary.display()));
    }
    Ok(binary)
}

/// A scratch directory inside the checkout's build output, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> io::Result<ScratchDir> {
        let path = target_dir()
            .join("ontodq-e2e-tmp")
            .join(format!("{}-{label}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// How one server process is started.
#[derive(Debug, Clone)]
pub struct Launch {
    pub binary: PathBuf,
    pub scale: usize,
    pub data_dir: Option<PathBuf>,
}

impl Launch {
    /// The flags after `--listen ADDR`, as recorded in the environment stamp.
    pub fn flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--workers".to_string(),
            WORKERS.to_string(),
            "--scale".to_string(),
            self.scale.to_string(),
        ];
        if let Some(dir) = &self.data_dir {
            flags.push("--data-dir".to_string());
            flags.push(dir.display().to_string());
        }
        flags
    }
}

/// A running server.  Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    pub port: u16,
}

impl Server {
    /// Spawn, wait for the greeting and switch to the `scaled` context.
    /// Returns the first session and the spawn → `!use scaled` ok time.
    pub fn start(launch: &Launch) -> io::Result<(Server, Conn, Duration)> {
        // The server does not print its bound port: pick a free one here,
        // release it, and hand it over.
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let started = Instant::now();
        let child = Command::new(&launch.binary)
            .args(["--listen", &format!("127.0.0.1:{port}")])
            .args(launch.flags())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut server = Server { child, port };
        let mut conn = loop {
            match Conn::connect(port) {
                Ok(conn) => break conn,
                Err(e) => {
                    if let Some(status) = server.child.try_wait()? {
                        return Err(io::Error::other(format!(
                            "server exited during start-up: {status}"
                        )));
                    }
                    if started.elapsed() > Duration::from_secs(60) {
                        return Err(io::Error::other(format!("server never came up: {e}")));
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        };
        conn.expect_ok("!use scaled")?;
        Ok((server, conn, started.elapsed()))
    }

    /// A further session on the `scaled` context.
    pub fn connect(&self) -> io::Result<Conn> {
        let mut conn = Conn::connect(self.port)?;
        conn.expect_ok("!use scaled")?;
        Ok(conn)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_ascii_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// SIGKILL: no session teardown, no final WAL sync.  The OS page cache
    /// survives, so this tests recovery from an abrupt stop, not torn writes.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
