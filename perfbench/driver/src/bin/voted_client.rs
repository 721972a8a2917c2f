//! Load generator for the voted workloads: one thread, one `ppoll` loop.
//!
//! ```text
//! voted_client short --port P --seed N --millis MS --rate R --max-bytes B
//! voted_client bulk  --port P --seed N --millis MS --min-bytes B --max-bytes B
//! ```
//!
//! `short` is an open loop: connection `k` is due at `k / R` seconds and is
//! opened when due whether or not earlier ones finished, carrying a seeded
//! request of 1..=B bytes. `bulk` is a closed loop: one connection at a
//! time, each a seeded request of B..=B bytes streamed while the echo is
//! read back. Every connection sends its request, half-closes, and reads
//! the voted response to EOF; the echo must equal the request byte for
//! byte.
//!
//! Prints one JSON line per connection, times in nanoseconds since the
//! loop started: `id`, `due`, `start` (connect called), `connected`,
//! `first` (first response byte), `end` (EOF or error), `bytes`, `ok`,
//! `err`.
//!
//! Reference lines (`"ref":true`) time the same request echoed by one
//! `cat` run directly, without the proxy or `libdiehard.so`: the cost of
//! the work without DieHard, measured next to it. `pair` names the
//! connection. `bulk` runs the reference right after each connection;
//! `short` runs it in the next idle gap of the open loop (no connection
//! in flight, the next one due in more than 5 ms), so it never overlaps a
//! connection, and skips it when no such gap comes before the next
//! connection retires.

use perfbench_driver::{ns_since, payload, JsonObj};
use std::ffi::{c_int, c_short, c_void};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, tmo: *const Timespec, sigmask: *const c_void) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const O_NONBLOCK: c_int = 0o4000;
/// The idle gap `short` needs before it fits in a reference echo (about
/// 1 ms, several under host contention) without delaying the next
/// connection.
const REF_GAP_NS: u64 = 5_000_000;

fn set_nonblocking(fd: RawFd) {
    // SAFETY: `fd` is an open descriptor owned by the caller; F_GETFL and
    // F_SETFL take and return plain integers.
    let ok = unsafe {
        let flags = fcntl(fd, F_GETFL);
        flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0
    };
    assert!(ok, "fcntl: {}", std::io::Error::last_os_error());
}

/// Waits until one of `fds` is ready or `timeout_ns` (None = forever)
/// passes; `EINTR` counts as a wake-up.
fn wait(fds: &mut [PollFd], timeout_ns: Option<u64>) {
    let tmo = timeout_ns.map(|ns| Timespec {
        tv_sec: (ns / 1_000_000_000) as i64,
        tv_nsec: (ns % 1_000_000_000) as i64,
    });
    let tmo_ptr = tmo
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a live array of `fds.len()` pollfd records and
    // `tmo_ptr` is null or points at a valid timespec; no signal mask.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as u64,
            tmo_ptr,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        assert_eq!(e.kind(), ErrorKind::Interrupted, "ppoll: {e}");
    }
}

/// Echoes `request` through one `cat` run directly on the system
/// allocator and prints a reference line for connection `pair`.
fn reference(request: &[u8], t0: Instant, pair: u64) {
    let start = ns_since(t0);
    let mut child = Command::new("cat")
        .env_remove("LD_PRELOAD")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn the reference cat");
    let mut stdin = child.stdin.take();
    let mut stdout = child.stdout.take().expect("piped stdout");
    set_nonblocking(stdout.as_raw_fd());
    if let Some(s) = &stdin {
        set_nonblocking(s.as_raw_fd());
    }
    let (mut sent, mut echo, mut buf) = (0, Vec::with_capacity(request.len()), [0u8; 65_536]);
    if request.is_empty() {
        stdin = None;
    }
    'io: loop {
        let mut fds = vec![PollFd {
            fd: stdout.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        }];
        if let Some(s) = &stdin {
            fds.push(PollFd {
                fd: s.as_raw_fd(),
                events: POLLOUT,
                revents: 0,
            });
        }
        wait(&mut fds, None);
        while let Some(s) = stdin.as_mut() {
            match s.write(&request[sent..(sent + 65_536).min(request.len())]) {
                Ok(n) => {
                    sent += n;
                    if sent == request.len() {
                        stdin = None;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("reference cat stdin: {e}"),
            }
        }
        loop {
            match stdout.read(&mut buf) {
                Ok(0) => break 'io,
                Ok(n) => echo.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("reference cat stdout: {e}"),
            }
        }
    }
    let status = child.wait().expect("wait for the reference cat");
    let ok = status.success() && echo == request;
    let obj = JsonObj::default()
        .raw("ref", "true")
        .num("pair", pair as f64)
        .num("start", start as f64)
        .num("end", ns_since(t0) as f64)
        .num("bytes", request.len() as f64)
        .raw("ok", if ok { "true" } else { "false" });
    println!("{}", obj.finish());
}

struct Conn {
    id: u64,
    stream: TcpStream,
    request: Vec<u8>,
    sent: usize,
    echo: Vec<u8>,
    due: u64,
    start: u64,
    connected: u64,
    first: Option<u64>,
}

enum Mode {
    /// Open loop: connections due every `interval_ns`, requests 1..=max.
    Short { interval_ns: u64, max: usize },
    /// Closed loop: one connection at a time, requests min..=max.
    Bulk { min: usize, max: usize },
}

fn report(c: &Conn, end: u64, err: Option<String>) {
    let ok = err.is_none() && c.echo == c.request;
    let err = err.unwrap_or_else(|| {
        if ok {
            String::new()
        } else {
            "echo differs".into()
        }
    });
    println!(
        "{}",
        JsonObj::default()
            .num("id", c.id as f64)
            .num("due", c.due as f64)
            .num("start", c.start as f64)
            .num("connected", c.connected as f64)
            .num("first", c.first.map_or(f64::NAN, |f| f as f64))
            .num("end", end as f64)
            .num("bytes", c.request.len() as f64)
            .raw("ok", if ok { "true" } else { "false" })
            .str("err", &err)
            .finish()
    );
}

/// Reports a finished connection. Bulk mode echoes the same request
/// through the reference right away; short mode hands it back, to be
/// echoed in the next idle gap.
fn retire(
    c: Conn,
    end: u64,
    err: Option<String>,
    mode: &Mode,
    t0: Instant,
) -> Option<(u64, Vec<u8>)> {
    report(&c, end, err);
    match mode {
        Mode::Bulk { .. } => {
            reference(&c.request, t0, c.id);
            None
        }
        Mode::Short { .. } => Some((c.id, c.request)),
    }
}

/// A connection the proxy refused or reset before it was established.
fn report_refused(id: u64, due: u64, start: u64, len: usize, end: u64, e: &std::io::Error) {
    println!(
        "{}",
        JsonObj::default()
            .num("id", id as f64)
            .num("due", due as f64)
            .num("start", start as f64)
            .num("end", end as f64)
            .num("bytes", len as f64)
            .raw("ok", "false")
            .str("err", &format!("connect: {e}"))
            .finish()
    );
}

/// Advances one connection; `Some(result)` once it is finished.
fn service(c: &mut Conn, t0: Instant) -> Option<Result<(), String>> {
    while c.sent < c.request.len() {
        let end = (c.sent + 65_536).min(c.request.len());
        match c.stream.write(&c.request[c.sent..end]) {
            Ok(n) => {
                c.sent += n;
                if c.sent == c.request.len() {
                    if let Err(e) = c.stream.shutdown(Shutdown::Write) {
                        return Some(Err(format!("shutdown: {e}")));
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Some(Err(format!("write: {e}"))),
        }
    }
    let mut buf = [0u8; 65_536];
    loop {
        match c.stream.read(&mut buf) {
            Ok(0) => return Some(Ok(())),
            Ok(n) => {
                c.first.get_or_insert_with(|| ns_since(t0));
                c.echo.extend_from_slice(&buf[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Some(Err(format!("read: {e}"))),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> u64 {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("voted_client: missing or bad {flag}");
                std::process::exit(2)
            })
    };
    let port = u16::try_from(value("--port")).expect("--port fits in u16");
    let seed = value("--seed");
    let millis = value("--millis");
    let mode = match args.first().map(String::as_str) {
        Some("short") => Mode::Short {
            interval_ns: 1_000_000_000 / value("--rate").max(1),
            max: value("--max-bytes") as usize,
        },
        Some("bulk") => Mode::Bulk {
            min: value("--min-bytes") as usize,
            max: value("--max-bytes") as usize,
        },
        _ => {
            eprintln!("voted_client: first argument is short or bulk");
            std::process::exit(2)
        }
    };

    let mut rng = seed;
    let mut draw = |lo: usize, hi: usize| {
        rng = diehard_core::rng::splitmix(rng);
        lo + (rng % (hi - lo + 1) as u64) as usize
    };
    let t0 = Instant::now();
    let deadline = millis * 1_000_000;
    let mut conns: Vec<Conn> = Vec::new();
    let mut k = 0u64;
    // The last retired short-mode connection still waiting for its
    // reference echo: `(id, request)`.
    let mut pending: Option<(u64, Vec<u8>)> = None;
    loop {
        let now = ns_since(t0);
        let next_due = match mode {
            Mode::Short { interval_ns, .. } => Some(k * interval_ns).filter(|&d| d < deadline),
            Mode::Bulk { .. } => Some(now).filter(|&n| n < deadline && conns.is_empty()),
        };
        if let Some(due) = next_due.filter(|&d| d <= now) {
            let len = match mode {
                Mode::Short { max, .. } => draw(1, max),
                Mode::Bulk { min, max } => draw(min, max),
            };
            let request = payload(diehard_core::rng::splitmix(seed ^ k), len);
            let start = ns_since(t0);
            match TcpStream::connect(("127.0.0.1", port)) {
                Ok(stream) => {
                    stream.set_nonblocking(true).expect("set_nonblocking");
                    let mut c = Conn {
                        id: k,
                        stream,
                        request,
                        sent: 0,
                        echo: Vec::new(),
                        due,
                        start,
                        connected: ns_since(t0),
                        first: None,
                    };
                    match service(&mut c, t0) {
                        None => conns.push(c),
                        Some(r) => pending = retire(c, ns_since(t0), r.err(), &mode, t0),
                    }
                }
                Err(e) => report_refused(k, due, start, len, ns_since(t0), &e),
            }
            k += 1;
            continue;
        }
        if conns.is_empty() && next_due.is_none() {
            break;
        }
        let gap = next_due.map_or(0, |d| d.saturating_sub(ns_since(t0)));
        if conns.is_empty() && gap > REF_GAP_NS {
            if let Some((id, request)) = pending.take() {
                reference(&request, t0, id);
                continue;
            }
        }

        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: if c.sent < c.request.len() {
                    POLLIN | POLLOUT
                } else {
                    POLLIN
                },
                revents: 0,
            })
            .collect();
        wait(&mut fds, next_due.map(|d| d.saturating_sub(ns_since(t0))));
        let ready: Vec<usize> = (0..conns.len()).filter(|&i| fds[i].revents != 0).collect();
        for i in ready.into_iter().rev() {
            if let Some(r) = service(&mut conns[i], t0) {
                let c = conns.swap_remove(i);
                pending = retire(c, ns_since(t0), r.err(), &mode, t0).or(pending);
            }
        }
    }
}
