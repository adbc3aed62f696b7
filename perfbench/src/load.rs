//! The TCP load generator. It writes request lines and stamps when their
//! responses arrive; checking the responses against the oracle happens
//! after the timed window, so it never competes with the server for CPU
//! inside it.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use crate::gen::Req;

/// Longest wait for one response before the connection counts as broken.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One answered request.
pub struct Answer {
    /// Position of the request in its connection's stream; a wrapping
    /// stream keeps counting past its end.
    pub index: usize,
    pub latency_ms: f64,
    pub line: String,
}

/// What one connection saw.
#[derive(Default)]
pub struct ConnLog {
    /// Requests written.
    pub sent: usize,
    pub answers: Vec<Answer>,
    /// Why the connection stopped early, if it did.
    pub error: Option<String>,
}

/// What a timed phase saw.
pub struct LoadLog {
    pub conns: Vec<ConnLog>,
    /// From the start of the phase to its last response.
    pub window_s: f64,
    /// Open loop only: how late the generator wrote each request.
    pub lateness_ms: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_nodelay(true)
            .and_then(|()| writer.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("socket: {e}"))?);
        Ok(Conn { writer, reader })
    }

    fn send(&mut self, block: &str) -> Result<(), String> {
        self.writer
            .write_all(block.as_bytes())
            .map_err(|e| format!("write failed: {e}"))
    }

    fn receive(&mut self) -> Result<String, String> {
        read_response(&mut self.reader)?
            .ok_or_else(|| "the server closed the connection".to_owned())
    }
}

/// Reads one response line without its newline; `None` at end of stream.
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Option<String>, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Ok(None),
        Ok(_) => {
            if line.ends_with('\n') {
                line.pop();
            }
            Ok(Some(line))
        }
        Err(e) => Err(format!("read failed: {e}")),
    }
}

/// Writes `reqs` as one pipelined flight on a fresh connection and
/// returns their responses in order.
pub fn flight(addr: SocketAddr, reqs: &[Req]) -> Result<Vec<String>, String> {
    let mut conn = Conn::open(addr)?;
    let block: String = reqs.iter().map(|q| format!("{}\n", q.line)).collect();
    conn.send(&block)?;
    reqs.iter().map(|_| conn.receive()).collect()
}

/// Closed loop: one client per stream, each writing a flight of `depth`
/// requests and waiting for all of their responses, until `window` has
/// passed. Latency runs from the write of the flight.
pub fn closed(
    addr: SocketAddr,
    streams: &[Vec<Req>],
    depth: usize,
    wrap: bool,
    window: Duration,
) -> Result<LoadLog, String> {
    let conns = streams
        .iter()
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = start + window;
    let logs: Vec<(ConnLog, Instant)> = thread::scope(|s| {
        let clients: Vec<_> = conns
            .into_iter()
            .zip(streams)
            .map(|(conn, stream)| {
                s.spawn(move || closed_client(conn, stream, depth, wrap, deadline))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let end = logs.iter().map(|&(_, last)| last).max().unwrap_or(start);
    Ok(LoadLog {
        window_s: (end - start).as_secs_f64(),
        conns: logs.into_iter().map(|(log, _)| log).collect(),
        lateness_ms: Vec::new(),
    })
}

fn closed_client(
    mut conn: Conn,
    stream: &[Req],
    depth: usize,
    wrap: bool,
    deadline: Instant,
) -> (ConnLog, Instant) {
    let mut log = ConnLog::default();
    let mut last = Instant::now();
    let mut block = String::new();
    let mut next = 0;
    while Instant::now() < deadline && (wrap || next < stream.len()) {
        let end = if wrap {
            next + depth
        } else {
            stream.len().min(next + depth)
        };
        block.clear();
        for i in next..end {
            block.push_str(&stream[i % stream.len()].line);
            block.push('\n');
        }
        let written = Instant::now();
        if let Err(e) = conn.send(&block) {
            log.error = Some(e);
            break;
        }
        log.sent += end - next;
        for index in next..end {
            match conn.receive() {
                Ok(line) => {
                    last = Instant::now();
                    log.answers.push(Answer {
                        index,
                        latency_ms: ms(last - written),
                        line,
                    });
                }
                Err(e) => {
                    log.error = Some(e);
                    return (log, last);
                }
            }
        }
        next = end;
    }
    (log, last)
}

/// Open loop: a writer sends request `i` at `due[i]` seconds after the
/// start, whatever has been answered, until `window` has passed, then
/// closes its half of the connection; a reader takes the responses as
/// they come until the server closes its half. Latency runs from the due
/// time, so a stall also charges the requests queued behind it.
pub fn open(
    addr: SocketAddr,
    stream: &[Req],
    due: &[f64],
    window: Duration,
) -> Result<LoadLog, String> {
    let Conn {
        mut writer,
        mut reader,
    } = Conn::open(addr)?;
    let horizon = window.as_secs_f64();
    let start = Instant::now();
    let due_at = |i: usize| start + Duration::from_secs_f64(due[i]);
    let ((lateness_ms, write_error), (answers, last, read_error)) = thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut lateness = Vec::new();
            let mut error = None;
            for (i, req) in stream.iter().enumerate() {
                if due[i] > horizon {
                    break;
                }
                let at = due_at(i);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                let late = ms(Instant::now().saturating_duration_since(at));
                if let Err(e) = writer.write_all(format!("{}\n", req.line).as_bytes()) {
                    error = Some(format!("write failed: {e}"));
                    break;
                }
                lateness.push(late);
            }
            // The server answers what it has and then closes, which ends
            // the reader.
            let _ = writer.shutdown(Shutdown::Write);
            (lateness, error)
        });
        let receiver = s.spawn(move || {
            let mut answers = Vec::new();
            let mut last = start;
            let error = loop {
                match read_response(&mut reader) {
                    Ok(Some(line)) => {
                        last = Instant::now();
                        let index = answers.len();
                        if index >= due.len() {
                            break Some("more responses than requests".to_owned());
                        }
                        let latency_ms = ms(last.saturating_duration_since(due_at(index)));
                        answers.push(Answer {
                            index,
                            latency_ms,
                            line,
                        });
                    }
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };
            (answers, last, error)
        });
        (
            sender.join().expect("writer thread panicked"),
            receiver.join().expect("reader thread panicked"),
        )
    });
    let conn = ConnLog {
        sent: lateness_ms.len(),
        answers,
        error: write_error.or(read_error),
    };
    Ok(LoadLog {
        conns: vec![conn],
        window_s: (last - start).as_secs_f64(),
        lateness_ms,
    })
}
