//! A minimal HTTP/1.1 + SSE front end over the fleet service.
//!
//! Hand-rolled over `std::net::TcpListener` (the repo takes no external
//! dependencies): one thread per connection, `Connection: close`
//! semantics, JSON bodies everywhere, and a `text/event-stream`
//! endpoint fed by the service's [`EventHub`](super::service::EventHub).
//!
//! # Endpoints
//!
//! | Method | Path               | Body / response                           |
//! |--------|--------------------|-------------------------------------------|
//! | GET    | `/healthz`         | `{"ok":true}`                             |
//! | GET    | `/fleet`           | fleet summary + module names              |
//! | POST   | `/jobs`            | `JobSpec` JSON in, `{"job":"job-00000"}`  |
//! | GET    | `/jobs`            | all job records                           |
//! | GET    | `/jobs/{id}`       | one job record                            |
//! | POST   | `/jobs/{id}/cancel`| `{"ok":true}`                             |
//! | GET    | `/metrics`         | the `fleet_metrics.json` dashboard        |
//! | GET    | `/events`          | SSE: every obs event as a `data:` line    |
//! | GET    | `/events.jsonl`    | snapshot of the multiplexed event log     |
//! | POST   | `/shutdown`        | graceful drain: running jobs finish       |

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use crate::serve::job::JobSpec;
use crate::serve::service::Service;

/// Binds `addr`, records the bound endpoint in
/// `<state-dir>/endpoint.txt` (ephemeral ports are the test-suite
/// norm), and spawns the accept loop. Returns the bound address.
///
/// # Errors
///
/// Returns a message when the bind fails.
pub fn serve(service: Arc<Service>, addr: &str) -> Result<SocketAddr, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let endpoint = std::path::PathBuf::from(&service.config().state_dir).join("endpoint.txt");
    std::fs::write(&endpoint, format!("{bound}\n")).map_err(|e| e.to_string())?;
    std::thread::spawn(move || accept_loop(&listener, &service));
    Ok(bound)
}

/// Polls for connections, handing each to its own thread; exits when
/// the service shuts down.
fn accept_loop(listener: &TcpListener, service: &Arc<Service>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(service);
                std::thread::spawn(move || handle(stream, &service));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if service.is_shutdown() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => break,
        }
    }
}

/// Largest request body accepted, in bytes. The largest legitimate
/// body, a `JobSpec`, is well under 1 KiB; a larger declared
/// `Content-Length` is refused with 413 before anything is allocated.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest request line or header line accepted, in bytes, line ending
/// included. A longer line is refused with 431 after at most this many
/// bytes are buffered, so a client that streams bytes without a newline
/// cannot grow a line without bound (the read timeout applies per read,
/// not per request).
const MAX_LINE_BYTES: usize = 8 << 10;

/// Most bytes drained from a refused request before its connection
/// closes (see [`refuse_long_line`]).
const MAX_DRAIN_BYTES: u64 = 64 << 10;

/// Reads one line of at most [`MAX_LINE_BYTES`] bytes, line ending
/// included. Returns `Ok(None)` when the line is longer, and an empty
/// string at end of stream.
fn read_line_capped(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut line = Vec::new();
    let n = reader.take(MAX_LINE_BYTES as u64).read_until(b'\n', &mut line)?;
    if n == MAX_LINE_BYTES && line.last() != Some(&b'\n') {
        return Ok(None);
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Answers 431 to a request with an over-long line, then closes
/// gracefully: the write side shuts first and what the client already
/// sent is drained (at most [`MAX_DRAIN_BYTES`]), so the close does not
/// reset the connection before the client has read the answer.
fn refuse_long_line(mut stream: TcpStream, reader: &mut impl Read) {
    let error = format!("request or header line longer than {MAX_LINE_BYTES} bytes");
    json(&mut stream, 431, &format!("{{\"error\":{}}}", quote(&error)));
    let _ = stream.shutdown(Shutdown::Write);
    let _ = std::io::copy(&mut reader.take(MAX_DRAIN_BYTES), &mut std::io::sink());
}

/// Parses one request and routes it.
fn handle(mut stream: TcpStream, service: &Service) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let request_line = match read_line_capped(&mut reader) {
        Ok(Some(line)) => line,
        Ok(None) => return refuse_long_line(stream, &mut reader),
        Err(_) => return,
    };
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_owned(), t.to_owned()),
        _ => return,
    };
    let mut content_length = 0usize;
    loop {
        match read_line_capped(&mut reader) {
            Ok(None) => return refuse_long_line(stream, &mut reader),
            Ok(Some(line)) if line.is_empty() => return,
            Ok(Some(line)) if line.trim().is_empty() => break,
            Ok(Some(line)) => {
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    let Ok(n) = v.trim().parse() else {
                        return json(&mut stream, 400, "{\"error\":\"bad Content-Length\"}");
                    };
                    content_length = n;
                }
            }
            Err(_) => return,
        }
    }
    if content_length > MAX_BODY_BYTES {
        let error = format!("body larger than {MAX_BODY_BYTES} bytes");
        return json(&mut stream, 413, &format!("{{\"error\":{}}}", quote(&error)));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return;
    }
    let body = String::from_utf8_lossy(&body).into_owned();
    route(stream, service, &method, &target, &body);
}

fn route(mut stream: TcpStream, service: &Service, method: &str, target: &str, body: &str) {
    let path = target.split('?').next().unwrap_or(target);
    match (method, path) {
        ("GET", "/healthz") => json(&mut stream, 200, "{\"ok\":true}"),
        ("GET", "/fleet") => {
            let names: Vec<String> = service.fleet().iter().map(|s| s.name.clone()).collect();
            let cfg = service.config();
            let payload = serde_json::to_string(&FleetInfo {
                fleet_size: cfg.fleet_size as u64,
                fleet_seed: cfg.fleet_seed,
                service_seed: cfg.service_seed,
                modules: names,
            })
            .expect("fleet info serializes");
            json(&mut stream, 200, &payload);
        }
        ("POST", "/jobs") => match serde_json::from_str::<JobSpec>(body) {
            Ok(spec) => match service.submit(spec) {
                Ok(id) => json(&mut stream, 200, &format!("{{\"job\":{}}}", quote(&id))),
                Err(e) => json(&mut stream, 400, &format!("{{\"error\":{}}}", quote(&e))),
            },
            Err(e) => {
                json(&mut stream, 400, &format!("{{\"error\":{}}}", quote(&e.to_string())));
            }
        },
        ("GET", "/jobs") => {
            let records = service.records();
            let payload = serde_json::to_string(&records).expect("records serialize");
            json(&mut stream, 200, &payload);
        }
        ("GET", "/metrics") => {
            let payload =
                serde_json::to_string_pretty(&service.fleet_metrics()).expect("serializes");
            json(&mut stream, 200, &payload);
        }
        ("GET", "/events.jsonl") => {
            let log = std::path::PathBuf::from(&service.config().state_dir).join("events.jsonl");
            let text = std::fs::read_to_string(log).unwrap_or_default();
            respond(&mut stream, 200, "application/jsonl", text.as_bytes());
        }
        ("GET", "/events") => stream_events(stream, service),
        ("POST", "/shutdown") => {
            service.request_shutdown();
            json(&mut stream, 200, "{\"ok\":true}");
        }
        ("GET", p) if p.starts_with("/jobs/") => {
            let id = &p["/jobs/".len()..];
            match service.record(id) {
                Some(record) => {
                    let payload = serde_json::to_string(&record).expect("record serializes");
                    json(&mut stream, 200, &payload);
                }
                None => json(&mut stream, 404, "{\"error\":\"unknown job\"}"),
            }
        }
        ("POST", p) if p.starts_with("/jobs/") && p.ends_with("/cancel") => {
            let id = &p["/jobs/".len()..p.len() - "/cancel".len()];
            match service.cancel(id) {
                Ok(()) => json(&mut stream, 200, "{\"ok\":true}"),
                Err(e) => json(&mut stream, 400, &format!("{{\"error\":{}}}", quote(&e))),
            }
        }
        _ => json(&mut stream, 404, "{\"error\":\"no such endpoint\"}"),
    }
}

#[derive(serde::Serialize)]
struct FleetInfo {
    fleet_size: u64,
    fleet_seed: u64,
    service_seed: u64,
    modules: Vec<String>,
}

/// Streams the live event feed as server-sent events until the client
/// hangs up or the service shuts down. History is not replayed —
/// `/events.jsonl` serves that.
fn stream_events(mut stream: TcpStream, service: &Service) {
    let header = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
                  Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
    if stream.write_all(header.as_bytes()).is_err() {
        return;
    }
    let _ = stream.flush();
    let (tx, rx) = mpsc::channel::<String>();
    service.events().subscribe(tx);
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => {
                if stream.write_all(format!("data: {line}\n\n").as_bytes()).is_err() {
                    return;
                }
                let _ = stream.flush();
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if service.is_shutdown() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn json(stream: &mut TcpStream, status: u16, body: &str) {
    respond(stream, status, "application/json", body.as_bytes());
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &[u8]) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

/// JSON string quoting (the shim has no standalone string escaper).
fn quote(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).expect("string serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_read_up_to_the_cap_and_refused_past_it() {
        let read = |bytes: Vec<u8>| read_line_capped(&mut std::io::Cursor::new(bytes)).unwrap();
        let mut at_cap = vec![b'a'; MAX_LINE_BYTES - 1];
        at_cap.push(b'\n');
        assert_eq!(read(at_cap).map(|l| l.len()), Some(MAX_LINE_BYTES));
        let mut past_cap = vec![b'a'; MAX_LINE_BYTES];
        past_cap.push(b'\n');
        assert_eq!(read(past_cap), None);
        assert_eq!(read(vec![b'a'; 3 * MAX_LINE_BYTES]), None, "no newline at all");
        assert_eq!(read(b"GET / HTTP/1.1\r\nHost: x\r\n".to_vec()).unwrap(), "GET / HTTP/1.1\r\n");
        assert_eq!(read(Vec::new()).unwrap(), "", "end of stream");
    }
}
