//! The service path: an in-process `swifi_server` on a loopback port,
//! one connection, one sharded submission, timed from outside by the
//! arrival of its events.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

use swifi_campaign::shard::merged_path;
use swifi_server::{client, serve, CampaignRequest, Driver, Event, JobConfig, Request, WorkerMode};

use crate::records::{read_checkpoint, FaultRecord};

/// A running in-process server (shard passes run one after another in
/// the server process).
pub struct Server {
    addr: String,
    handle: JoinHandle<Result<(), String>>,
}

impl Server {
    /// Bind a loopback port, start serving on a thread, and wait for the
    /// first `pong`.
    pub fn start(workdir: &Path) -> Result<Server, String> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("no local address: {e}"))?
            .to_string();
        let cfg = JobConfig {
            workdir: workdir.to_path_buf(),
            mode: WorkerMode::InProcess,
        };
        let handle = std::thread::spawn(move || serve(listener, cfg));
        client::request(&addr, &Request::Ping, |_| {})?;
        Ok(Server { addr, handle })
    }

    /// Ask the server to stop and wait for its thread to end.
    pub fn shutdown(self) -> Result<(), String> {
        client::request(&self.addr, &Request::Shutdown, |_| {})?;
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

/// One submission, as seen from the client side of the connection.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// Seconds from sending the submission to the `report` event.
    pub wall_s: f64,
    /// Summed `shard_start`→`shard_done` seconds.
    pub shard_s: f64,
    /// Last `shard_done`→`merged` seconds.
    pub merge_s: f64,
    /// `merged`→`report` seconds: the final resume pass replaying the
    /// merged checkpoint.
    pub replay_s: f64,
    /// Bytes of shard and merged checkpoints the submission left behind.
    pub checkpoint_bytes: u64,
    /// The streamed report text.
    pub report: String,
    /// Per-fault records of the merged checkpoint.
    pub records: Vec<FaultRecord>,
}

/// Submit `program`'s class campaign to the server and time it.
pub fn submit(
    server: &Server,
    workdir: &Path,
    program: &str,
    inputs: usize,
    seed: u64,
    shards: u64,
) -> Result<ServiceRun, String> {
    let req = CampaignRequest {
        driver: Driver::Class,
        target: program.to_string(),
        seed,
        inputs,
        mutants: 0,
        shards,
        pool: 1,
        want_trace: false,
        want_metrics: false,
    };
    let tag = req.tag();
    let mut shard_start: Option<Instant> = None;
    let mut shard_s = 0.0;
    let mut last_done: Option<Instant> = None;
    let mut merged: Option<Instant> = None;
    let mut reported: Option<Instant> = None;
    let mut report = String::new();
    let mut failures = Vec::new();
    let t0 = Instant::now();
    client::request(&server.addr, &Request::Submit(req), |event| {
        let now = Instant::now();
        match event {
            Event::ShardStart { .. } => shard_start = Some(now),
            Event::ShardDone { shard, ok, detail } => {
                if let Some(start) = shard_start.take() {
                    shard_s += (now - start).as_secs_f64();
                }
                last_done = Some(now);
                if !ok {
                    failures.push(format!("shard {shard} failed: {detail}"));
                }
            }
            Event::Merged { .. } => merged = Some(now),
            Event::Report { text } => {
                reported = Some(now);
                report = text.clone();
            }
            _ => {}
        }
    })?;
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let (Some(last_done), Some(merged), Some(reported)) = (last_done, merged, reported) else {
        return Err("event stream ended without shard, merge and report events".to_string());
    };
    let records = read_checkpoint(&merged_path(workdir, &tag))?;
    let checkpoint_bytes = checkpoint_files(workdir)?
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    for p in checkpoint_files(workdir)? {
        std::fs::remove_file(p).ok();
    }
    Ok(ServiceRun {
        wall_s: (reported - t0).as_secs_f64(),
        shard_s,
        merge_s: (merged - last_done).as_secs_f64(),
        replay_s: (reported - merged).as_secs_f64(),
        checkpoint_bytes,
        report,
        records,
    })
}

fn checkpoint_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list `{}`: {e}", dir.display()))?;
    Ok(entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect())
}
