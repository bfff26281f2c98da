//! What the cluster e2e suites share: spawning the real binaries and
//! polling `CLUSTER_STATS`.

// Each suite is its own crate and uses its own subset of this module.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cots_core::report::ClusterReport;
use cots_serve::{Client, Request, Response};

/// A spawned server process that has printed its `listening on` line.
pub struct Proc {
    pub child: Child,
    pub addr: String,
    /// The `recovered …` line, when the process started on a data
    /// directory.
    pub recovery_line: Option<String>,
}

pub fn spawn(bin: &str, args: &[String]) -> Proc {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut recovery_line = None;
    let mut addr = None;
    for _ in 0..16 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let line = line.trim().to_string();
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = Some(rest.to_string());
            break;
        }
        if line.starts_with("recovered ") {
            recovery_line = Some(line);
        }
    }
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            if reader.read_line(&mut sink).unwrap_or(0) == 0 {
                break;
            }
        }
    });
    Proc {
        child,
        addr: addr.expect("process never printed its listening line"),
        recovery_line,
    }
}

/// Reserve a loopback port, so a process can be (re)started on an
/// address its peers already know.
pub fn reserve_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().port()
}

pub fn cluster_report(client: &mut Client) -> ClusterReport {
    match client.call(&Request::ClusterStats).unwrap() {
        Response::ClusterStats(report) => report,
        other => panic!("unexpected CLUSTER_STATS response: {other:?}"),
    }
}

/// Poll `CLUSTER_STATS` until `pred` holds, panicking after `timeout`.
pub fn await_cluster<F>(client: &mut Client, timeout: Duration, what: &str, mut pred: F)
where
    F: FnMut(&ClusterReport) -> bool,
{
    let deadline = Instant::now() + timeout;
    loop {
        let report = cluster_report(client);
        if pred(&report) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}: {report:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
