//! End-to-end service tests over real TCP on a loopback port.
//!
//! The server runs with [`WorkerMode::InProcess`] so the tests exercise
//! the whole protocol — accept loop, event stream, shard orchestration,
//! checkpoint merge, report rendering — without depending on a built
//! `swifi` binary (process-mode fan-out is covered by
//! `scripts/server_smoke.sh`, which drives the real executable).

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use swifi_campaign::report::{class_campaign_report, source_campaign_report};
use swifi_campaign::section6::{class_campaign_with, CampaignScale};
use swifi_campaign::source::{source_campaign_with, SourceScale};
use swifi_campaign::CampaignOptions;
use swifi_server::protocol::{CampaignRequest, Driver, Event, Request};
use swifi_server::{request, serve, JobConfig, WorkerMode};

/// Drop the wall-clock lines (throughput, cache effectiveness, phase
/// timing) that legitimately differ between a replaying merge pass and
/// a fresh run — the same exclusion `resume_smoke.sh` and
/// `server_smoke.sh` apply. Everything else must match byte for byte.
fn stable_lines(report: &str) -> String {
    report
        .lines()
        .filter(|l| {
            ![
                "throughput:",
                "icache:",
                "blocks:",
                "prefix-fork:",
                "phases:",
            ]
            .iter()
            .any(|p| l.starts_with(p))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("swifi-server-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Start an in-process-mode server on a fresh loopback port; returns
/// the address and the join handle (joined via a `shutdown` request).
fn start_server(tag: &str) -> (String, std::thread::JoinHandle<()>, PathBuf) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let workdir = temp_dir(tag);
    let cfg = JobConfig {
        workdir: workdir.clone(),
        mode: WorkerMode::InProcess,
    };
    let handle = std::thread::spawn(move || serve(listener, cfg).unwrap());
    (addr, handle, workdir)
}

fn stop_server(addr: &str, handle: std::thread::JoinHandle<()>, workdir: &PathBuf) {
    request(addr, &Request::Shutdown, |_| {}).unwrap();
    handle.join().unwrap();
    std::fs::remove_dir_all(workdir).ok();
}

fn submit(addr: &str, req: CampaignRequest) -> Result<Vec<Event>, String> {
    let mut events = Vec::new();
    request(addr, &Request::Submit(req), |e| events.push(e.clone()))?;
    Ok(events)
}

fn class_request(shards: u64) -> CampaignRequest {
    CampaignRequest {
        driver: Driver::Class,
        target: "SOR".to_string(),
        seed: 77,
        inputs: 2,
        mutants: 1,
        shards,
        pool: 2,
        want_trace: false,
        want_metrics: false,
    }
}

#[test]
fn ping_pong() {
    let (addr, handle, workdir) = start_server("ping");
    let mut events = Vec::new();
    request(&addr, &Request::Ping, |e| events.push(e.clone())).unwrap();
    assert_eq!(events, vec![Event::Pong]);
    stop_server(&addr, handle, &workdir);
}

#[test]
fn unknown_target_is_a_streamed_error() {
    let (addr, handle, workdir) = start_server("badtarget");
    let mut req = class_request(2);
    req.target = "nope".to_string();
    let err = submit(&addr, req).unwrap_err();
    assert!(err.contains("unknown program `nope`"), "{err}");
    stop_server(&addr, handle, &workdir);
}

#[test]
fn malformed_request_lines_get_a_diagnosis() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle, workdir) = start_server("garbage");
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"not json at all\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    match Event::parse(&line).unwrap() {
        Event::Error { message } => assert!(message.contains("bad request line"), "{message}"),
        other => panic!("expected error event, got {other:?}"),
    }
    stop_server(&addr, handle, &workdir);
}

/// Send `bytes` on a fresh connection, close the sending half, and
/// return the one event line the server answers with. The bytes go out
/// on their own thread: the server stops reading at its line cap, so a
/// long write may block or fail once it has answered.
fn raw_exchange(addr: &str, bytes: Vec<u8>) -> Event {
    use std::io::{BufRead, BufReader, Write};
    let stream = TcpStream::connect(addr).unwrap();
    let mut tx = stream.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        let _ = tx.write_all(&bytes);
        let _ = tx.shutdown(std::net::Shutdown::Write);
    });
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    writer.join().unwrap();
    Event::parse(&line).unwrap()
}

#[test]
fn oversized_request_line_is_refused_with_an_error() {
    use swifi_server::server::MAX_REQUEST_LINE;
    let (addr, handle, workdir) = start_server("oversized");
    // Four times the cap, no newline anywhere: the server must answer
    // after reading at most the cap instead of buffering the whole line.
    let event = raw_exchange(&addr, vec![b'x'; 4 * MAX_REQUEST_LINE as usize]);
    match event {
        Event::Error { message } => assert!(message.contains("longer than"), "{message}"),
        other => panic!("expected error event, got {other:?}"),
    }
    // A line of exactly the cap, newline included, is still read whole.
    let ping = b"{\"type\":\"ping\"}";
    let mut padded = vec![b' '; MAX_REQUEST_LINE as usize - ping.len() - 1];
    padded.extend_from_slice(ping);
    padded.push(b'\n');
    assert_eq!(raw_exchange(&addr, padded), Event::Pong);
    // The server keeps serving after refusing a line.
    let mut events = Vec::new();
    request(&addr, &Request::Ping, |e| events.push(e.clone())).unwrap();
    assert_eq!(events, vec![Event::Pong]);
    stop_server(&addr, handle, &workdir);
}

#[test]
fn silent_and_trickling_clients_do_not_stall_the_server() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};
    use swifi_server::server::REQUEST_TIMEOUT;
    let (addr, handle, workdir) = start_server("slowloris");
    let start = Instant::now();
    // One client never sends a byte; the next sends one byte every
    // 200 ms and never a newline. The accept loop reads them in turn.
    let silent = TcpStream::connect(&addr).unwrap();
    let mut trickle = TcpStream::connect(&addr).unwrap();
    let trickler = std::thread::spawn(move || {
        while start.elapsed() < 4 * REQUEST_TIMEOUT && trickle.write_all(b" ").is_ok() {
            std::thread::sleep(Duration::from_millis(200));
        }
    });
    let mut events = Vec::new();
    request(&addr, &Request::Ping, |e| events.push(e.clone())).unwrap();
    assert_eq!(events, vec![Event::Pong]);
    let waited = start.elapsed();
    assert!(
        waited < 2 * REQUEST_TIMEOUT + Duration::from_secs(3),
        "ping answered only after {waited:?}"
    );
    // The silent client was told why it was dropped.
    let mut line = String::new();
    BufReader::new(silent).read_line(&mut line).unwrap();
    match Event::parse(&line).unwrap() {
        Event::Error { message } => assert!(message.contains("no request line"), "{message}"),
        other => panic!("expected error event, got {other:?}"),
    }
    trickler.join().unwrap();
    stop_server(&addr, handle, &workdir);
}

#[test]
fn request_closed_without_a_newline_is_parsed_as_sent() {
    let (addr, handle, workdir) = start_server("nonewline");
    // A complete request cut off by the peer closing still counts.
    assert_eq!(
        raw_exchange(&addr, b"{\"type\":\"ping\"}".to_vec()),
        Event::Pong
    );
    // A truncated one gets a diagnosis, not a hang.
    match raw_exchange(&addr, b"{\"type\":\"sub".to_vec()) {
        Event::Error { message } => assert!(message.contains("bad request line"), "{message}"),
        other => panic!("expected error event, got {other:?}"),
    }
    match raw_exchange(&addr, Vec::new()) {
        Event::Error { message } => assert!(message.contains("empty request"), "{message}"),
        other => panic!("expected error event, got {other:?}"),
    }
    stop_server(&addr, handle, &workdir);
}

#[test]
fn sharded_class_campaign_reports_byte_identically() {
    let direct = class_campaign_with(
        &swifi_programs::program("SOR").unwrap(),
        CampaignScale {
            inputs_per_fault: 2,
        },
        77,
        &CampaignOptions::default(),
    )
    .unwrap();
    let expected = class_campaign_report(&direct);

    let (addr, handle, workdir) = start_server("classeq");
    let events = submit(&addr, class_request(3)).unwrap();
    stop_server(&addr, handle, &workdir);

    // The stream tells the whole story, in order.
    assert!(matches!(events[0], Event::Accepted { shards: 3, .. }));
    let starts = events
        .iter()
        .filter(|e| matches!(e, Event::ShardStart { .. }))
        .count();
    let clean = events
        .iter()
        .filter(|e| matches!(e, Event::ShardDone { ok: true, .. }))
        .count();
    assert_eq!((starts, clean), (3, 3));
    let merged = events
        .iter()
        .find_map(|e| match e {
            Event::Merged {
                records,
                shards_missing,
                duplicates,
                ..
            } => Some((*records, *shards_missing, *duplicates)),
            _ => None,
        })
        .expect("merged event");
    assert_eq!(merged.1, 0, "no shard went missing");
    assert_eq!(merged.2, 0, "shard ranges are disjoint");
    let phase_runs: u64 = events
        .iter()
        .filter_map(|e| match e {
            Event::Phase { runs, .. } => Some(*runs),
            _ => None,
        })
        .sum();
    assert_eq!(phase_runs, merged.0, "phase counts tile the records");
    assert_eq!(events.last(), Some(&Event::Done));

    // The oracle: the streamed report is byte-identical to the
    // single-process run.
    let report = events
        .iter()
        .find_map(|e| match e {
            Event::Report { text } => Some(text.clone()),
            _ => None,
        })
        .expect("report event");
    assert_eq!(stable_lines(&report), stable_lines(&expected));
}

#[test]
fn sharded_source_campaign_reports_byte_identically() {
    let direct = source_campaign_with(
        &swifi_programs::program("SOR").unwrap(),
        SourceScale {
            mutant_budget: 4,
            inputs_per_mutant: 2,
        },
        9,
        &CampaignOptions::default(),
    )
    .unwrap();
    let expected = source_campaign_report(&direct);

    let (addr, handle, workdir) = start_server("sourceeq");
    let events = submit(
        &addr,
        CampaignRequest {
            driver: Driver::Source,
            target: "SOR".to_string(),
            seed: 9,
            inputs: 2,
            mutants: 4,
            shards: 2,
            pool: 1,
            want_trace: false,
            want_metrics: false,
        },
    )
    .unwrap();
    stop_server(&addr, handle, &workdir);

    let report = events
        .iter()
        .find_map(|e| match e {
            Event::Report { text } => Some(text.clone()),
            _ => None,
        })
        .expect("report event");
    assert_eq!(stable_lines(&report), stable_lines(&expected));
}

#[test]
fn requested_telemetry_streams_back_merged_and_valid() {
    let (addr, handle, workdir) = start_server("telemetry");
    let mut req = class_request(2);
    req.want_trace = true;
    req.want_metrics = true;
    let events = submit(&addr, req).unwrap();
    stop_server(&addr, handle, &workdir);

    let metrics = events
        .iter()
        .find_map(|e| match e {
            Event::Metrics { text } => Some(text.clone()),
            _ => None,
        })
        .expect("metrics event");
    // The merged registry parses back and saw runs from both shards —
    // merging it exercises the histogram bucket-union path end to end.
    let registry = swifi_trace::metrics::MetricsRegistry::from_json(&metrics).unwrap();
    let snapshot = registry.to_json();
    assert!(snapshot.contains("run_latency_us"), "{snapshot}");
    assert!(snapshot.contains("\"runs\""), "{snapshot}");

    let trace = events
        .iter()
        .find_map(|e| match e {
            Event::Trace { text } => Some(text.clone()),
            _ => None,
        })
        .expect("trace event");
    // The merged trace is schema-valid and timestamp-ordered.
    swifi_trace::validate_chrome_trace(&trace).unwrap();
}

/// A shard-worker executable that waits until `gate` exists and then
/// fails, so the final pass runs the campaign in process. A campaign
/// using it stays in flight for exactly as long as a test holds the gate.
#[cfg(unix)]
fn gated_worker(dir: &std::path::Path) -> (PathBuf, PathBuf) {
    use std::os::unix::fs::PermissionsExt;
    let gate = dir.join("gate");
    let exe = dir.join("gated-worker.sh");
    let script = format!(
        "#!/bin/sh\nwhile [ ! -e '{}' ]; do sleep 0.02; done\nexit 1\n",
        gate.display()
    );
    std::fs::write(&exe, script).unwrap();
    std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();
    (exe, gate)
}

#[cfg(unix)]
#[test]
fn submits_beyond_the_campaign_cap_are_refused_until_one_finishes() {
    use std::io::{BufRead, BufReader, Write};
    use swifi_server::protocol::render_request;
    use swifi_server::server::MAX_CONCURRENT_CAMPAIGNS;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let workdir = temp_dir("cap");
    let (exe, gate) = gated_worker(&workdir);
    let cfg = JobConfig {
        workdir: workdir.clone(),
        mode: WorkerMode::Process { exe },
    };
    let handle = std::thread::spawn(move || serve(listener, cfg).unwrap());
    let jb = |seed: u64| CampaignRequest {
        driver: Driver::Class,
        target: "JB.team11".to_string(),
        seed,
        inputs: 1,
        mutants: 1,
        shards: 1,
        pool: 1,
        want_trace: false,
        want_metrics: false,
    };

    // Fill every slot: each campaign is accepted, then waits on its worker.
    let held: Vec<BufReader<TcpStream>> = (0..MAX_CONCURRENT_CAMPAIGNS as u64)
        .map(|seed| {
            let mut stream = TcpStream::connect(&addr).unwrap();
            writeln!(stream, "{}", render_request(&Request::Submit(jb(seed)))).unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(
                matches!(Event::parse(&line).unwrap(), Event::Accepted { .. }),
                "{line}"
            );
            reader
        })
        .collect();
    let err = submit(&addr, jb(99)).unwrap_err();
    assert!(err.contains("server busy"), "{err}");
    let mut events = Vec::new();
    request(&addr, &Request::Ping, |e| events.push(e.clone())).unwrap();
    assert_eq!(events, vec![Event::Pong], "the cap holds only submits back");

    // Release the workers. Their shards fail, so each held campaign
    // ends on the merge's `error` line: a terminal event all the same.
    std::fs::write(&gate, b"").unwrap();
    for mut reader in held {
        let (mut line, mut last) = (String::new(), String::new());
        while reader.read_line(&mut line).unwrap() > 0 {
            last = std::mem::take(&mut line);
        }
        assert!(
            matches!(Event::parse(&last).unwrap(), Event::Error { .. }),
            "{last}"
        );
    }
    // The finished campaigns are reaped, so a new submit is admitted. A
    // handler thread exits just after closing its connection, hence the
    // short retry.
    let admitted = (0..200).any(|_| {
        let mut accepted = false;
        let outcome = request(&addr, &Request::Submit(jb(99)), |e| {
            accepted |= matches!(e, Event::Accepted { .. });
        });
        if !accepted {
            assert!(outcome.unwrap_err().contains("server busy"));
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        accepted
    });
    assert!(admitted, "finished campaigns free their slots");
    stop_server(&addr, handle, &workdir);
}
