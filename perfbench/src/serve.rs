//! The server under test, in a process of its own.
//!
//! The benchmark binary re-executes itself as `perfbench serve <workload>`:
//! the child starts `anonet_service::Server` with the workload's
//! configuration on an ephemeral loopback port, prints `READY <addr>`, and
//! serves until its stdin closes. Running the server apart from the client
//! keeps its CPU time, peak RSS and context switches its own.

use crate::workload::Workload;
use anonet_service::Server;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Entry point of the `serve` child.
pub fn child_main(workload: &str, nproc: usize) -> ExitCode {
    let Some(w) = Workload::by_name(workload, nproc) else {
        eprintln!("serve: unknown workload {workload}");
        return ExitCode::from(2);
    };
    let server = match Server::start("127.0.0.1:0", w.server_config()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot start the server: {e}");
            return ExitCode::from(1);
        }
    };
    let mut out = io::stdout();
    if writeln!(out, "READY {}", server.local_addr()).and_then(|()| out.flush()).is_err() {
        return ExitCode::from(1);
    }
    // Serve until the parent closes our stdin (or dies).
    let _ = io::stdin().read_to_end(&mut Vec::new());
    server.shutdown();
    ExitCode::SUCCESS
}

/// A running server child. Dropping it kills and reaps the process.
pub struct ServerProc {
    child: Option<Child>,
    /// The server's listening address.
    pub addr: SocketAddr,
    /// The server's process id.
    pub pid: u32,
}

impl ServerProc {
    /// Spawns `perfbench serve <workload>` and waits for its `READY` line.
    pub fn spawn(workload: &str) -> io::Result<ServerProc> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("serve")
            .arg(workload)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id();
        let mut line = String::new();
        let read = match child.stdout.take() {
            Some(out) => BufReader::new(out).read_line(&mut line),
            None => Ok(0),
        };
        match read.ok().and_then(|_| line.trim().strip_prefix("READY ")?.parse().ok()) {
            Some(addr) => Ok(ServerProc { child: Some(child), addr, pid }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!("server child did not report READY: {line:?}")))
            }
        }
    }

    /// Asks the child to shut down (closes its stdin) and reaps it, killing
    /// it if it has not exited within ten seconds.
    pub fn stop(mut self) -> io::Result<()> {
        let Some(mut child) = self.child.take() else { return Ok(()) };
        drop(child.stdin.take());
        let start = Instant::now();
        loop {
            if child.try_wait()?.is_some() {
                return Ok(());
            }
            if start.elapsed() > Duration::from_secs(10) {
                child.kill()?;
                child.wait()?;
                return Err(io::Error::other("server child ignored shutdown; killed"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
