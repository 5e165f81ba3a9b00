//! The `swifi serve` accept loop.
//!
//! One connection carries one request. `ping` and `shutdown` are
//! answered inline; a `submit` spawns a handler thread so a long
//! campaign does not block further submissions (or the shutdown probe
//! a supervisor sends to tear the daemon down). At most
//! [`MAX_CONCURRENT_CAMPAIGNS`] run at once; finished ones are reaped on
//! every accept and a submit beyond the cap is refused. Shutdown is graceful:
//! the loop stops accepting and joins every in-flight campaign before
//! returning. The request line itself is read on the accept loop, within
//! [`REQUEST_TIMEOUT`], so a client that never finishes its line delays
//! the others by at most that long.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::job::{run_campaign, JobConfig};
use crate::protocol::{parse_request, Event, Request};

/// Serve requests on `listener` until a `shutdown` request arrives.
///
/// # Errors
///
/// Returns accept-loop I/O failures; per-connection failures are
/// answered on that connection and do not stop the server.
pub fn serve(listener: TcpListener, cfg: JobConfig) -> Result<(), String> {
    let cfg = Arc::new(cfg);
    let mut campaigns: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| format!("accept failed: {e}"))?;
        // Join the campaigns that have finished (never blocks), so the
        // list holds only the ones still running.
        let (finished, running): (Vec<_>, Vec<_>) =
            campaigns.into_iter().partition(|h| h.is_finished());
        campaigns = running;
        for handle in finished {
            let _ = handle.join();
        }
        match read_request(&stream) {
            Err(e) => {
                // A malformed line still gets a diagnosis before the
                // connection closes (best effort: the peer may be gone).
                let _ = send(&stream, &Event::Error { message: e });
            }
            Ok(Request::Ping) => {
                let _ = send(&stream, &Event::Pong);
            }
            Ok(Request::Shutdown) => {
                let _ = send(&stream, &Event::Done);
                break;
            }
            Ok(Request::Submit(_)) if campaigns.len() >= MAX_CONCURRENT_CAMPAIGNS => {
                let message = format!(
                    "server busy: {MAX_CONCURRENT_CAMPAIGNS} campaigns already running, retry later"
                );
                let _ = send(&stream, &Event::Error { message });
            }
            Ok(Request::Submit(req)) => {
                let cfg = Arc::clone(&cfg);
                campaigns.push(std::thread::spawn(move || {
                    let mut dead = false;
                    let mut emit = |e: Event| {
                        // A vanished client stops the stream but never
                        // the campaign: the checkpoints on disk stay
                        // resumable either way.
                        if !dead && send(&stream, &e).is_err() {
                            dead = true;
                        }
                    };
                    match run_campaign(&req, &cfg, &mut emit) {
                        Ok(()) => emit(Event::Done),
                        Err(message) => emit(Event::Error { message }),
                    }
                }));
            }
        }
    }
    for handle in campaigns {
        let _ = handle.join();
    }
    Ok(())
}

/// Most campaigns the server runs at once. Each runs its final merge
/// pass on a server thread and may fan out `pool` worker processes, so
/// unbounded submits would exhaust the host.
pub const MAX_CONCURRENT_CAMPAIGNS: usize = 4;

/// Longest request line the server reads, newline included. A request
/// is one small JSON object (a few hundred bytes); the cap bounds what a
/// single client can make the server buffer. A longer line is answered
/// with an `error` event and the connection is closed.
pub const MAX_REQUEST_LINE: u64 = 64 * 1024;

/// How long the accept loop waits for a whole request line. A silent
/// or trickling client is answered with an `error` event once it
/// expires, and the loop goes on accepting.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(3);

/// Reads a connection against one deadline: each read waits at most for
/// the time left, so trickled bytes cannot stretch the wait either.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

fn read_request(stream: &TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(DeadlineReader {
        stream,
        deadline: Instant::now() + REQUEST_TIMEOUT,
    })
    .take(MAX_REQUEST_LINE);
    let mut line = Vec::new();
    reader
        .read_until(b'\n', &mut line)
        .map_err(|e| match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                format!("no request line within {}s", REQUEST_TIMEOUT.as_secs())
            }
            _ => format!("cannot read request: {e}"),
        })?;
    if !line.ends_with(b"\n") && line.len() as u64 == MAX_REQUEST_LINE {
        return Err(format!("request line longer than {MAX_REQUEST_LINE} bytes"));
    }
    // A line cut short by the peer closing is parsed as it stands.
    let line = String::from_utf8(line).map_err(|_| "request line is not UTF-8".to_string())?;
    if line.trim().is_empty() {
        return Err("empty request".to_string());
    }
    parse_request(&line)
}

fn send(mut stream: &TcpStream, event: &Event) -> std::io::Result<()> {
    // One write per line keeps events unfragmented enough for a
    // line-buffered reader; flush so progress streams in real time.
    stream.write_all(event.render().as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}
