//! The `swifi serve` accept loop.
//!
//! One connection carries one request. `ping` and `shutdown` are
//! answered inline; a `submit` spawns a handler thread so a long
//! campaign does not block further submissions (or the shutdown probe
//! a supervisor sends to tear the daemon down). Shutdown is graceful:
//! the loop stops accepting and joins every in-flight campaign before
//! returning.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

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
    let mut campaigns = Vec::new();
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| format!("accept failed: {e}"))?;
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

/// Longest request line the server reads, newline included. A request
/// is one small JSON object (a few hundred bytes); the cap bounds what a
/// single client can make the server buffer. A longer line is answered
/// with an `error` event and the connection is closed.
pub const MAX_REQUEST_LINE: u64 = 64 * 1024;

fn read_request(stream: &TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cannot clone connection: {e}"))?,
    )
    .take(MAX_REQUEST_LINE);
    let mut line = Vec::new();
    reader
        .read_until(b'\n', &mut line)
        .map_err(|e| format!("cannot read request: {e}"))?;
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
