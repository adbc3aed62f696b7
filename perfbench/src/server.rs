//! Starting, timing, and stopping the `lph-serve` process.

use std::fs;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Instant;

use crate::gen::{Expect, Req};
use crate::load;

/// Start attempts before giving up: a port found free can be taken by the
/// time the server binds it.
const START_ATTEMPTS: usize = 5;

/// A running `lph-serve --listen`, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Kept open so that the server never writes into a closed pipe.
    stderr: BufReader<ChildStderr>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts a server with the default configuration on a free loopback
    /// port. Returns it with the seconds from spawning it until its first
    /// `list` response arrived.
    pub fn start(bin: &str) -> Result<(Server, f64), String> {
        let mut error = String::new();
        for _ in 0..START_ATTEMPTS {
            match Server::try_start(bin) {
                Ok(started) => return Ok(started),
                Err(e) => error = e,
            }
        }
        Err(error)
    }

    fn try_start(bin: &str) -> Result<(Server, f64), String> {
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?;
        let spawned = Instant::now();
        let mut child = Command::new(bin)
            .arg("--listen")
            .arg(addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run {bin}: {e}"))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut server = Server {
            child,
            stderr,
            addr,
        };
        let mut banner = String::new();
        server
            .stderr
            .read_line(&mut banner)
            .map_err(|e| format!("reading lph-serve's banner: {e}"))?;
        if !banner.contains("listening on") {
            return Err(format!("lph-serve did not start: {}", banner.trim()));
        }
        let list = Req {
            line: r#"{"id":"setup","kind":"list"}"#.to_owned(),
            id: Some("setup".to_owned()),
            expect: Expect::List,
        };
        let response = load::flight(addr, std::slice::from_ref(&list))?;
        let setup = spawned.elapsed().as_secs_f64();
        list.check(&response[0])?;
        Ok((server, setup))
    }

    /// The server's peak resident set size (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
