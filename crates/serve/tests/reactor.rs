//! Reactor-specific end-to-end tests: the behaviors the evented redesign
//! bought that a thread-per-connection server cannot show — stalled
//! clients reaped without pinning a worker, idle keep-alive reaping,
//! wire-streamed chunked uploads, partial-write continuation, and
//! connection-cap admission.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wcbk_serve::http::client::Client;
use wcbk_serve::json::Json;
use wcbk_serve::service::AuditService;
use wcbk_serve::{Server, ServerConfig};

type ServerThread = std::thread::JoinHandle<std::io::Result<()>>;

fn start(
    config: ServerConfig,
) -> (
    SocketAddr,
    wcbk_serve::ServerHandle,
    Arc<AuditService>,
    ServerThread,
) {
    let server = Server::bind(&config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let handle = server.handle();
    let service = server.service();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, service, join)
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, Some(Duration::from_secs(30))).expect("connect")
}

fn workload_csv(i: usize) -> String {
    let base = 20 + (i % 7) as u32;
    let mut csv = String::from("Age,Sex,Disease\n");
    for (j, (sex, disease)) in [
        ("M", "Flu"),
        ("F", "Flu"),
        ("M", "Cold"),
        ("F", "Cold"),
        ("M", "Flu"),
        ("F", "Cold"),
    ]
    .iter()
    .enumerate()
    {
        csv.push_str(&format!("{},{sex},{disease}\n", base + 2 * j as u32));
    }
    csv
}

fn audit_body(i: usize) -> String {
    Json::object(vec![
        ("csv", workload_csv(i).into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
        ("k", 1u64.into()),
        ("c", 0.9.into()),
    ])
    .to_string()
}

fn server_stat(client: &mut Client, key: &str) -> u64 {
    let stats = client.get("/stats").unwrap().json().unwrap();
    stats
        .get("server")
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("server stat {key:?} missing"))
}

/// The slowloris acceptance pin: with **one** worker and eight clients
/// trickling partial request headers, real requests still complete
/// promptly — stalled sockets live in the reactor, not on a worker — and
/// the reactor reaps every trickler at the `read_timeout` anchored to its
/// first byte. A thread-per-connection server with `workers: 1` would
/// serve nothing until the tricklers time out one by one.
#[test]
fn a_stalled_client_no_longer_pins_a_worker() {
    let (addr, handle, _service, join) = start(ServerConfig {
        workers: 1,
        max_connections: 64,
        read_timeout: Some(Duration::from_millis(800)),
        ..ServerConfig::default()
    });

    // Eight slowloris connections: a partial request line, then silence.
    let tricklers: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /audit HT").unwrap();
            s
        })
        .collect();

    // Real work completes promptly on the single worker.
    let mut client = connect(addr);
    let started = Instant::now();
    for i in 0..4 {
        let r = client.post("/audit", &audit_body(i)).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "audits stalled behind slowloris connections: {:?}",
        started.elapsed()
    );

    // Past the read deadline the tricklers are reaped — silently closed
    // and counted — without a worker ever seeing them.
    std::thread::sleep(Duration::from_millis(1200));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if server_stat(&mut client, "reaped_slow") >= 8 {
            break;
        }
        assert!(Instant::now() < deadline, "tricklers were not reaped");
        std::thread::sleep(Duration::from_millis(100));
    }
    for mut s in tricklers {
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 64];
        assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "reap closes silently");
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The reactor reaps idle keep-alive connections at `idle_timeout`, and
/// `/stats` counts them.
#[test]
fn idle_keep_alive_connections_are_reaped() {
    let (addr, handle, _service, join) = start(ServerConfig {
        workers: 2,
        max_connections: 16,
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });

    let mut idler = connect(addr);
    assert_eq!(idler.get("/healthz").unwrap().status, 200);
    std::thread::sleep(Duration::from_millis(900));

    let mut client = connect(addr);
    assert!(server_stat(&mut client, "reaped_idle") >= 1);
    // The idler's connection is gone: the next request cannot round-trip.
    assert!(idler.get("/healthz").is_err());

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Sends a `Transfer-Encoding: chunked` CSV upload, split into `n` wire
/// chunks, and returns the response.
fn chunked_upload(addr: SocketAddr, target: &str, csv: &str, n: usize) -> (u16, Json) {
    let mut client = connect(addr);
    let head = format!(
        "POST {target} HTTP/1.1\r\nHost: wcbk\r\nContent-Type: text/csv\r\nTransfer-Encoding: chunked\r\n\r\n"
    );
    client.send_raw(head.as_bytes()).unwrap();
    let bytes = csv.as_bytes();
    let step = bytes.len().div_ceil(n).max(1);
    for piece in bytes.chunks(step) {
        let mut frame = format!("{:x}\r\n", piece.len()).into_bytes();
        frame.extend_from_slice(piece);
        frame.extend_from_slice(b"\r\n");
        if client.send_raw(&frame).is_err() {
            // The server already rejected mid-stream (413) and closed its
            // read half; the response is waiting for us below.
            break;
        }
        // A flush per chunk so the server sees genuinely incremental
        // arrivals, not one coalesced buffer.
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = client.send_raw(b"0\r\n\r\n");
    let response = client.read_response().unwrap();
    let json = response.json().unwrap();
    (response.status, json)
}

/// The wire-chunked acceptance pin: a chunked `text/csv` upload (params in
/// the query string) registers the **same content-fingerprint handle** as
/// the buffered JSON-body registration of the same data — the streamed
/// decode is bit-identical — and the handle serves audits.
#[test]
fn chunked_upload_matches_buffered_registration() {
    let (addr, handle, _service, join) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    let mut client = connect(addr);
    let body = Json::object(vec![
        ("csv", workload_csv(3).into()),
        ("sensitive", "Disease".into()),
        ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
    ])
    .to_string();
    let buffered = client.post("/tables", &body).unwrap();
    assert_eq!(buffered.status, 200, "{}", buffered.body);
    let buffered = buffered.json().unwrap();
    let id = buffered
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    assert_eq!(buffered.get("created").and_then(Json::as_bool), Some(true));

    // The same data as a chunked wire upload, split into 13 tiny chunks:
    // same fingerprint, so the existing handle is returned un-rebuilt.
    let (status, registered) = chunked_upload(
        addr,
        "/tables?sensitive=Disease&qi=Age,Sex",
        &workload_csv(3),
        13,
    );
    assert_eq!(status, 200, "{registered}");
    assert_eq!(
        registered.get("id").and_then(Json::as_str),
        Some(id.as_str())
    );
    assert_eq!(
        registered.get("created").and_then(Json::as_bool),
        Some(false)
    );

    // And a fresh table registered *only* via the wire path works end to
    // end: the handle answers audits.
    let (status, fresh) = chunked_upload(
        addr,
        "/tables?sensitive=Disease&qi=Age,Sex",
        &workload_csv(4),
        7,
    );
    assert_eq!(status, 200, "{fresh}");
    let fresh_id = fresh.get("id").and_then(Json::as_str).unwrap().to_owned();
    let audit = client
        .post(
            &format!("/tables/{fresh_id}/audit"),
            &Json::object(vec![("k", 1u64.into()), ("c", 0.9.into())]).to_string(),
        )
        .unwrap();
    assert_eq!(audit.status, 200, "{}", audit.body);

    // Unknown query parameters are a clean 400, not a mis-registration.
    let (status, err) = chunked_upload(addr, "/tables?sensitve=Disease", "A,B\n1,2\n", 1);
    assert_eq!(status, 400);
    assert!(err
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("sensitve"));

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A chunked upload whose cumulative decoded size exceeds `max_body` is
/// rejected 413 mid-stream — the declared-length check cannot see chunked
/// bodies, so the parser enforces the cap as bytes decode.
#[test]
fn oversized_chunked_upload_is_rejected() {
    let (addr, handle, _service, join) = start(ServerConfig {
        workers: 1,
        max_body: 4096,
        ..ServerConfig::default()
    });

    let mut csv = String::from("Age,Sex,Disease\n");
    while csv.len() <= 16 * 1024 {
        csv.push_str("21,M,Flu\n");
    }
    let (status, err) = chunked_upload(addr, "/tables?sensitive=Disease", &csv, 9);
    assert_eq!(status, 413, "{err}");
    assert!(err
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("exceeds"));

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Shrinks a socket's kernel receive buffer so the server hits
/// `WouldBlock` mid-response (Linux-only knob; the test is gated to match).
#[cfg(target_os = "linux")]
fn shrink_rcvbuf(stream: &TcpStream) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let size: i32 = 1024;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            std::ptr::addr_of!(size).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

/// Partial-write continuation: a client with a tiny receive buffer that
/// reads slowly forces the server's socket writes to return `WouldBlock`
/// repeatedly; the reactor must resume on write-readiness until the whole
/// streamed NDJSON response — every line plus the summary — arrives intact.
#[cfg(target_os = "linux")]
#[test]
fn partial_writes_resume_until_the_response_completes() {
    let (addr, handle, _service, join) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });

    let stream = TcpStream::connect(addr).unwrap();
    shrink_rcvbuf(&stream);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut stream = stream;

    const TABLES: usize = 24;
    let jobs: Vec<Json> = (0..TABLES)
        .map(|i| {
            Json::object(vec![
                ("op", "audit".into()),
                ("csv", workload_csv(i).into()),
                ("sensitive", "Disease".into()),
                ("qi", Json::Array(vec!["Age".into(), "Sex".into()])),
                ("k", 1u64.into()),
                ("c", 0.9.into()),
            ])
        })
        .collect();
    let body = Json::object(vec![("tables", Json::Array(jobs))]).to_string();
    let request = format!(
        "POST /batch HTTP/1.1\r\nHost: wcbk\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).unwrap();

    // Read a trickle at a time so the kernel window stays mostly full and
    // the server keeps getting partial writes.
    let mut raw = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("read: {e}"),
        }
    }
    let text = String::from_utf8(raw).unwrap();
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    // De-chunk crudely: NDJSON lines are exactly the lines starting '{'.
    let lines: Vec<Json> = text
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).unwrap())
        .collect();
    assert_eq!(lines.len(), TABLES + 1, "{text}");
    let summary = lines.last().unwrap();
    assert_eq!(summary.get("done").and_then(Json::as_bool), Some(true));
    assert_eq!(
        summary.get("tables").and_then(Json::as_u64),
        Some(TABLES as u64)
    );

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// Admission with one worker and two connection slots: a keep-alive
/// connection holding a slot does not hold the worker, so a second client
/// is served while it stays open; past `max_connections` open sockets a new
/// connection gets the immediate 503 (counted in `/stats`) without touching
/// a worker, and once the holder closes, a new connection is served.
#[test]
fn connections_past_the_cap_are_rejected_at_accept() {
    let (addr, handle, _service, join) = start(ServerConfig {
        workers: 1,
        max_connections: 2,
        read_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    });

    // A completes one request and keeps its connection open.
    let mut a = connect(addr);
    assert_eq!(a.get("/healthz").unwrap().status, 200);

    // B is answered while A is still open — well inside `read_timeout`,
    // which a connection parked behind A's idle keep-alive would wait out.
    let mut b = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
    assert_eq!(b.get("/healthz").unwrap().status, 200);

    // Both slots held open by keep-alive: the third connection is rejected
    // at accept with an error body.
    let mut c = connect(addr);
    let r = c.read_response().unwrap();
    assert_eq!(r.status, 503);
    assert_eq!(
        r.json().unwrap().get("error").and_then(Json::as_str),
        Some("server is at capacity")
    );

    // A closes; its slot frees and a new connection is served.
    a.send_raw(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    assert_eq!(a.read_response().unwrap().status, 200);
    drop(a);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut d = connect(addr);
        match d.get("/healthz") {
            Ok(r) if r.status == 200 => break,
            _ => assert!(Instant::now() < deadline, "slot never freed"),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(server_stat(&mut b, "rejected_503") >= 1);
    assert_eq!(server_stat(&mut b, "max_connections"), 2);
    assert!(server_stat(&mut b, "peak_connections") >= 2);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// The default admission is the connection cap, not one worker per
/// connection: with a single worker, a keep-alive client that stays open
/// does not make the next client wait, and a zero cap is refused at bind.
#[test]
fn default_admission_serves_more_keep_alive_clients_than_workers() {
    let (addr, handle, _service, join) = start(ServerConfig {
        workers: 1,
        read_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    });
    let mut holder = connect(addr);
    assert_eq!(holder.get("/healthz").unwrap().status, 200);

    // Served while the holder stays open, far inside `read_timeout`.
    let mut next = Client::connect(addr, Some(Duration::from_secs(5))).expect("connect");
    assert_eq!(next.get("/healthz").unwrap().status, 200);
    assert_eq!(server_stat(&mut next, "max_connections"), 512);
    assert_eq!(server_stat(&mut holder, "open_connections"), 2);

    handle.shutdown();
    join.join().unwrap().unwrap();

    let zero_cap = Server::bind(&ServerConfig {
        max_connections: 0,
        ..ServerConfig::default()
    });
    assert_eq!(
        zero_cap.err().map(|e| e.kind()),
        Some(std::io::ErrorKind::InvalidInput)
    );
}

/// Graceful shutdown closes idle keep-alive connections immediately — the
/// old implementation had no way to interrupt a worker parked in a
/// blocking read, so it swept read-halves; the reactor just stops polling
/// them.
#[test]
fn shutdown_closes_idle_connections_promptly() {
    let (addr, handle, _service, join) = start(ServerConfig {
        workers: 2,
        max_connections: 8,
        ..ServerConfig::default()
    });

    let mut idler = connect(addr);
    assert_eq!(idler.get("/healthz").unwrap().status, 200);

    let started = Instant::now();
    handle.shutdown();
    join.join().unwrap().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown waited on an idle connection: {:?}",
        started.elapsed()
    );
    assert!(idler.get("/healthz").is_err(), "idler should be closed");
}
