//! Torture tests for the epoll event loop: frame reassembly across
//! arbitrarily split reads, bounded-queue load shedding, slow-reader
//! write backpressure (engine work must stop for a peer that stops
//! reading), abrupt-disconnect teardown, shutdown under load, and the
//! stats/health endpoint.

mod common;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use common::{offline, start_test_server, test_row};
use poetbin_bits::BitVec;
use poetbin_serve::protocol::{
    self, BAD_FRAME_ID, STATUS_BAD_REQUEST, STATUS_OK, STATUS_OVERLOADED, STATUS_UNKNOWN_MODEL,
};
use poetbin_serve::{Client, Response, RetryPolicy, ServeConfig};

/// Reads one response frame off a raw stream.
fn recv_response(stream: &mut impl Read) -> (u64, u8, u16) {
    let payload = protocol::read_frame(stream, protocol::RESPONSE_LEN)
        .expect("read response")
        .expect("a response, not a hangup");
    protocol::decode_response(&payload).expect("well-formed response")
}

/// A request frame (already split across the 4-byte length prefix and the
/// payload) as raw wire bytes.
fn raw_frame(model_id: u16, id: u64, row: &BitVec) -> Vec<u8> {
    let mut wire = Vec::new();
    protocol::write_frame(&mut wire, &protocol::encode_request(model_id, id, row))
        .expect("writing to a Vec cannot fail");
    wire
}

/// The server must reassemble frames no matter how the bytes are split
/// across reads: drip-fed a byte or three at a time, cut mid-length-
/// prefix, cut mid-payload, or several frames coalesced into one write.
#[test]
fn partial_and_coalesced_frames_reassemble_correctly() {
    let f = 24;
    let (server, engine) = start_test_server(71, f, ServeConfig::default());
    let rows: Vec<BitVec> = (0..8).map(|i| test_row(f, 4, i)).collect();
    let expected = offline(&engine, &rows);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    protocol::read_hello(&mut stream).expect("hello");

    // First three requests drip-fed in tiny uneven chunks, each write its
    // own TCP segment (nodelay), pauses in between so the poller really
    // observes partial frames — including a cut inside the length prefix.
    let mut wire = Vec::new();
    for (i, row) in rows.iter().take(3).enumerate() {
        wire.extend_from_slice(&raw_frame(0, i as u64, row));
    }
    let mut sizes = [1usize, 2, 3, 1, 5, 7, 2].iter().cycle();
    let mut off = 0;
    while off < wire.len() {
        let n = (*sizes.next().unwrap()).min(wire.len() - off);
        stream.write_all(&wire[off..off + n]).expect("drip write");
        off += n;
        std::thread::sleep(Duration::from_millis(1));
    }
    // Remaining five requests coalesced into a single write.
    let mut coalesced = Vec::new();
    for (i, row) in rows.iter().enumerate().skip(3) {
        coalesced.extend_from_slice(&raw_frame(0, i as u64, row));
    }
    stream.write_all(&coalesced).expect("coalesced write");

    let mut got: HashMap<u64, u16> = HashMap::new();
    for _ in 0..rows.len() {
        let (id, status, class) = recv_response(&mut stream);
        assert_eq!(status, STATUS_OK);
        assert!(got.insert(id, class).is_none(), "duplicate response {id}");
    }
    for (i, &want) in expected.iter().enumerate() {
        assert_eq!(
            got.get(&(i as u64)).copied(),
            Some(want as u16),
            "row {i} disagrees with the offline batch path"
        );
    }
    assert_eq!(server.stats().protocol_errors(), 0);
    server.shutdown();
}

/// Open-loop overload: with one worker, a tiny bounded queue, and a long
/// linger holding batches back, a burst far past capacity must be shed
/// with typed `STATUS_OVERLOADED` responses — queue depth stays bounded,
/// nothing is silently dropped, and the counters reconcile exactly
/// (`received == served + overloaded`; every wire frame lands in exactly
/// one outcome counter).
#[test]
fn overload_sheds_typed_responses_and_queue_depth_stays_bounded() {
    let f = 16;
    let queue_cap = 8;
    let config = ServeConfig {
        workers: 1,
        linger: Duration::from_millis(50),
        queue_cap,
        ..ServeConfig::default()
    };
    let (server, engine) = start_test_server(72, f, config);
    let client = Client::connect(server.local_addr()).expect("connect");
    let (mut tx, mut rx) = client.into_split();

    let total = 200;
    let rows: Vec<BitVec> = (0..total).map(|i| test_row(f, 9, i)).collect();
    let expected = offline(&engine, &rows);
    let mut want: HashMap<u64, usize> = HashMap::new();
    for (i, row) in rows.iter().enumerate() {
        let id = tx.send(row).expect("send");
        want.insert(id, expected[i]);
    }

    let mut classes = 0u64;
    let mut overloaded = 0u64;
    for _ in 0..total {
        let depth = server.queue_depth();
        assert!(
            depth <= queue_cap,
            "queue depth {depth} exceeds the {queue_cap} bound"
        );
        let (id, response) = rx.recv().expect("recv");
        let expect = want.remove(&id).expect("unknown or duplicate response id");
        match response {
            Response::Class(c) => {
                classes += 1;
                assert_eq!(c, expect, "request {id} wrong class");
            }
            Response::Overloaded => overloaded += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(want.is_empty(), "{} responses dropped", want.len());
    assert!(
        overloaded > 0,
        "a {total}-request burst into a {queue_cap}-slot queue must shed"
    );
    assert_eq!(classes + overloaded, total as u64);

    let stats = server.stats();
    assert_eq!(stats.served(), classes);
    assert_eq!(stats.overloaded(), overloaded);
    assert_eq!(
        stats.received(),
        stats.served() + stats.overloaded(),
        "every wire frame must land in exactly one outcome counter"
    );
    assert_eq!(stats.rejected(), 0);
    server.shutdown();
}

/// The overload probe: one worker, a 16-slot queue and a 2 ms linger hold
/// the server far below a 2 000-request pipelined burst, so the bounded
/// queue must shed — and a client that retries its sheds with jittered
/// backoff still gets every row settled exactly once, while accepted
/// requests keep a bounded send→response tail. A sender thread sends the
/// burst and then each resend after its backoff; a receiver thread
/// settles responses. Sleeping the backoff in the receive loop instead
/// would stall the drain and inflate the tail by two orders of magnitude.
#[test]
fn overload_probe_sheds_retries_and_keeps_the_accepted_tail_bounded() {
    let f = 16;
    let queue_cap = 16;
    let config = ServeConfig {
        workers: 1,
        linger: Duration::from_millis(2),
        queue_cap,
        ..ServeConfig::default()
    };
    let (server, engine) = start_test_server(73, f, config);
    let (mut tx, mut rx) = Client::connect(server.local_addr())
        .expect("connect")
        .into_split();

    let total = 2_000;
    let rows: Vec<BitVec> = (0..total).map(|i| test_row(f, 11, i)).collect();
    let expected = offline(&engine, &rows);
    let policy = RetryPolicy::default();
    // id → (row, attempt, sent_at). The lock is held across each send, so
    // a response cannot outrun its entry: the receiver takes the same
    // lock to resolve it.
    let in_flight: Mutex<HashMap<u64, (usize, u32, Instant)>> = Mutex::new(HashMap::new());
    let (retry_tx, retry_rx) = mpsc::channel::<(usize, u32)>();

    let (retries, mut accepted_ns, max_depth) = std::thread::scope(|scope| {
        let (server, rows, in_flight, policy) = (&server, &rows, &in_flight, &policy);
        let sender = scope.spawn(move || {
            let mut send = |idx: usize, attempt: u32| {
                let mut map = in_flight.lock().expect("in-flight lock");
                let sent_at = Instant::now();
                let id = tx.send(&rows[idx]).expect("send");
                map.insert(id, (idx, attempt, sent_at));
            };
            for idx in 0..total {
                send(idx, 0);
            }
            // Resend each shed until the receiver has settled every row
            // and dropped its end of the channel.
            let mut retries = 0u64;
            while let Ok((idx, attempt)) = retry_rx.recv() {
                std::thread::sleep(policy.backoff(attempt - 1, idx as u64));
                send(idx, attempt);
                retries += 1;
            }
            retries
        });
        let receiver = scope.spawn(move || {
            // `total` distinct rows settled, none twice: every row settles
            // exactly once, predicted or shed after every retry.
            let mut settled = vec![false; total];
            let mut accepted_ns = Vec::new();
            let mut max_depth = 0;
            let mut open = total;
            while open > 0 {
                max_depth = max_depth.max(server.queue_depth());
                let (id, response) = rx.recv().expect("recv");
                let (idx, attempt, sent_at) = in_flight
                    .lock()
                    .expect("in-flight lock")
                    .remove(&id)
                    .expect("unknown or duplicate response id");
                match response {
                    Response::Class(c) => {
                        accepted_ns.push(sent_at.elapsed().as_nanos() as u64);
                        assert_eq!(c, expected[idx], "row {idx} wrong class");
                    }
                    Response::Overloaded if attempt < policy.max_retries => {
                        retry_tx.send((idx, attempt + 1)).expect("sender alive");
                        continue;
                    }
                    Response::Overloaded => {}
                    other => panic!("unexpected response {other:?}"),
                }
                assert!(!settled[idx], "row {idx} settled twice");
                settled[idx] = true;
                open -= 1;
            }
            max_depth = max_depth.max(server.queue_depth());
            (accepted_ns, max_depth)
        });
        let (accepted_ns, max_depth) = receiver.join().expect("receiver thread");
        let retries = sender.join().expect("sender thread");
        (retries, accepted_ns, max_depth)
    });

    assert!(
        max_depth <= queue_cap,
        "queue depth {max_depth} exceeds the {queue_cap} bound"
    );
    assert!(retries > 0, "sheds were never retried");

    accepted_ns.sort_unstable();
    let p99 = Duration::from_nanos(accepted_ns[(accepted_ns.len() - 1) * 99 / 100]);
    assert!(
        p99 <= Duration::from_millis(100),
        "accepted send→response p99 {p99:?} is unbounded"
    );

    let stats = server.stats();
    assert!(
        stats.overloaded() > 0,
        "a {total}-request burst into a {queue_cap}-slot queue must shed"
    );
    assert_eq!(stats.served(), accepted_ns.len() as u64);
    assert_eq!(
        stats.received(),
        stats.served() + stats.overloaded(),
        "every wire frame must land in exactly one outcome counter"
    );
    server.shutdown();
}

/// The write-backpressure half of connection flow control: a client that
/// pipelines thousands of requests but never reads its responses must
/// stall the *server's reads* of that connection (bounded write buffer →
/// reads pause), so engine work for the unreachable peer stops instead
/// of burning tape passes into an ever-growing buffer. Once the client
/// starts reading again, everything completes exactly once.
#[test]
fn slow_reader_pauses_reads_and_stops_engine_work() {
    let f = 32;
    let total = 60_000usize;
    // Kernel socket buffers are clamped to bound how many 15-byte
    // responses the two TCP stacks can absorb: with ~128KiB effective
    // per buffer (the kernel doubles the setsockopt value) the pipeline
    // wedges after at most ~20k responses, far short of `total`. Do NOT
    // clamp below the loopback MSS (32KiB): a segment that cannot fit
    // the receive buffer is dropped and retried with exponential
    // backoff, and the connection crawls at ~0.5KiB per rto instead of
    // stalling cleanly.
    let sock_buf = 64 * 1024;
    let config = ServeConfig {
        workers: 1,
        linger: Duration::ZERO,
        queue_cap: 1024,
        write_buf_cap: 4096,
        sock_buf: Some(sock_buf),
        ..ServeConfig::default()
    };
    let (server, engine) = start_test_server(73, f, config);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Clamp the client's kernel buffers too — otherwise its receive
    // window absorbs tens of thousands of 15-byte responses.
    epoll::set_socket_buffers(stream.as_raw_fd(), Some(sock_buf), Some(sock_buf)).expect("sockopt");
    protocol::read_hello(&mut stream).expect("hello");

    let rows: Vec<BitVec> = (0..total).map(|i| test_row(f, 5, i)).collect();
    let expected = offline(&engine, &rows);

    let mut write_half = stream.try_clone().expect("clone");
    let frames: Vec<Vec<u8>> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| raw_frame(0, i as u64, row))
        .collect();
    let sender = std::thread::spawn(move || {
        // Blocks mid-way once every buffer between the two ends is full;
        // finishes only when the main thread starts reading responses.
        for frame in &frames {
            write_half.write_all(frame).expect("send");
        }
    });

    // Wait for the pipeline to wedge: the counters freeze while we are
    // not reading. Keep sampling until two consecutive 200ms windows see
    // no movement.
    let deadline = Instant::now() + Duration::from_secs(20);
    let sample = || {
        let s = server.stats();
        (s.received(), s.served(), s.overloaded())
    };
    let mut last = sample();
    let mut quiet = 0;
    while quiet < 2 {
        assert!(Instant::now() < deadline, "pipeline never stalled");
        std::thread::sleep(Duration::from_millis(200));
        let now = sample();
        quiet = if now == last { quiet + 1 } else { 0 };
        last = now;
    }
    let (stalled_received, stalled_served, stalled_overloaded) = last;
    assert!(
        (stalled_received as usize) < total,
        "server processed all {total} requests while the client read nothing — \
         write backpressure never paused its reads"
    );
    assert_eq!(
        stalled_served + stalled_overloaded,
        stalled_received,
        "engine must have drained the queue and gone idle"
    );
    assert_eq!(server.queue_depth(), 0, "queue must be drained at a stall");

    // Start reading: the pause lifts, the sender unblocks, everything
    // arrives exactly once and matches the offline path.
    let mut classes = 0u64;
    let mut overloaded = 0u64;
    let mut seen: HashMap<u64, ()> = HashMap::new();
    for _ in 0..total {
        let (id, status, class) = recv_response(&mut stream);
        assert!(seen.insert(id, ()).is_none(), "duplicate response {id}");
        match status {
            STATUS_OK => {
                classes += 1;
                assert_eq!(
                    class, expected[id as usize] as u16,
                    "request {id} disagrees with the offline batch path"
                );
            }
            STATUS_OVERLOADED => overloaded += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    sender.join().expect("sender thread");
    assert_eq!(classes + overloaded, total as u64);
    let stats = server.stats();
    assert_eq!(stats.served(), classes);
    assert_eq!(stats.received(), stats.served() + stats.overloaded());
    assert_eq!(stats.overloaded(), overloaded);
    server.shutdown();
}

/// A peer that vanishes mid-flight (requests queued, nothing read, socket
/// dropped) must be torn down completely — read half included — with its
/// queued work finished and discarded, counters reconciled, and the
/// server healthy for the next client.
#[test]
fn abrupt_disconnect_mid_flight_tears_down_and_reconciles() {
    let f = 24;
    let (server, engine) = start_test_server(74, f, ServeConfig::default());
    {
        let client = Client::connect(server.local_addr()).expect("connect");
        let (mut tx, _rx) = client.into_split();
        for i in 0..500 {
            // The server may tear the connection down while we are still
            // writing (it answers what it already read to a peer that is
            // gone, hits the write error, and drops the read half too) —
            // a mid-stream send error is the expected outcome here.
            if tx.send(&test_row(f, 6, i)).is_err() {
                break;
            }
        }
        // Both halves drop here: the peer vanishes without reading.
    }

    // Every request that entered a queue must still be evaluated; its
    // completion is discarded at routing. Wait for quiescence.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        if stats.received() == stats.served() + stats.overloaded() && server.queue_depth() == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "counters never reconciled: received {} served {} overloaded {}",
            stats.received(),
            stats.served(),
            stats.overloaded()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The dead connection must actually be gone (not wedged half-open):
    // the stats endpoint reports live data connections.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let report = fetch_stats(&server);
        if report.get("connections_live").map(String::as_str) == Some("0") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "dead connection still tracked: {report:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // And the server still serves.
    let row = test_row(f, 8, 0);
    let want = offline(&engine, std::slice::from_ref(&row))[0];
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.predict(&row).expect("predict"), want);
    server.shutdown();
}

/// Shutdown with clients mid-burst must join promptly (watchdogged) and
/// leave the counters reconciled: every request that entered a queue is
/// served, everything else was shed or rejected — nothing vanishes.
/// (This is the regression guard for the old design's wedge, where a
/// connection the acceptor failed to track kept a reader thread alive
/// past `shutdown`.)
#[test]
fn shutdown_under_load_joins_promptly_and_counters_reconcile() {
    let f = 20;
    let config = ServeConfig {
        workers: 2,
        queue_cap: 64,
        ..ServeConfig::default()
    };
    let (server, _engine) = start_test_server(75, f, config);
    let addr = server.local_addr();

    let mut clients = Vec::new();
    for t in 0..4 {
        clients.push(std::thread::spawn(move || {
            let Ok(mut client) = Client::connect(addr) else {
                return;
            };
            for i in 0.. {
                // Any error (shed under shutdown, connection closed) ends
                // this client; correctness of the classes is covered
                // elsewhere — this test is about liveness.
                if client.predict(&test_row(f, t, i)).is_err() {
                    break;
                }
            }
        }));
    }
    std::thread::sleep(Duration::from_millis(50));

    // Watchdog: shutdown runs on a helper thread so a wedge (the old
    // design's failure mode — an untracked connection keeping a thread
    // alive) trips the 30-second timeout instead of hanging the suite.
    let stats = server.stats_handle();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        done_tx.send(()).expect("report shutdown done");
    });
    done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("shutdown wedged under load");
    assert_eq!(
        stats.received(),
        stats.served() + stats.overloaded() + stats.rejected(),
        "requests vanished across shutdown: received {} served {} (shed {}, rejected {})",
        stats.received(),
        stats.served(),
        stats.overloaded(),
        stats.rejected()
    );
    for c in clients {
        c.join().expect("client thread panicked");
    }
}

/// Interleaved valid, unknown-model, and unparseable-header frames on one
/// pipelined connection: every frame gets exactly one typed answer, valid
/// predictions match the offline path, and the connection survives all of
/// it.
#[test]
fn interleaved_good_and_bad_frames_each_get_one_typed_answer() {
    let f = 24;
    let (server, engine) = start_test_server(76, f, ServeConfig::default());
    let rounds = 60u64;
    let rows: Vec<BitVec> = (0..rounds as usize).map(|i| test_row(f, 2, i)).collect();
    let expected = offline(&engine, &rows);

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    protocol::read_hello(&mut stream).expect("hello");

    let mut wire = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let i = i as u64;
        // Valid request for model 0.
        wire.extend_from_slice(&raw_frame(0, i, row));
        // Unknown model id, real request id.
        wire.extend_from_slice(&raw_frame(999, 1000 + i, row));
        // Too short to carry a request header: answered with the
        // sentinel id.
        let short = protocol::encode_request(0, i, row);
        let mut frame = Vec::new();
        protocol::write_frame(&mut frame, &short[..5]).expect("vec write");
        wire.extend_from_slice(&frame);
    }
    stream.write_all(&wire).expect("pipelined write");

    let (mut ok, mut unknown, mut bad) = (0u64, 0u64, 0u64);
    for _ in 0..3 * rounds {
        let (id, status, class) = recv_response(&mut stream);
        match status {
            STATUS_OK => {
                assert!(id < rounds, "prediction for an id never sent");
                assert_eq!(class, expected[id as usize] as u16, "request {id}");
                ok += 1;
            }
            STATUS_UNKNOWN_MODEL => {
                assert!((1000..1000 + rounds).contains(&id));
                unknown += 1;
            }
            STATUS_BAD_REQUEST => {
                assert_eq!(id, BAD_FRAME_ID);
                bad += 1;
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert_eq!((ok, unknown, bad), (rounds, rounds, rounds));
    let stats = server.stats();
    assert_eq!(stats.rejected(), 2 * rounds);
    assert_eq!(stats.protocol_errors(), 0);
    assert_eq!(stats.received(), stats.served() + stats.rejected());
    server.shutdown();
}

/// Fetches and parses the plain-text stats report into a key → value map
/// (model lines keyed by their first token).
fn fetch_stats(server: &poetbin_serve::Server) -> HashMap<String, String> {
    let mut stream = TcpStream::connect(server.stats_addr()).expect("connect stats");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read stats");
    let (header, body) = text
        .split_once("\r\n\r\n")
        .expect("an HTTP header before the report");
    assert!(
        header.starts_with("HTTP/1.0 200 OK"),
        "unexpected status line: {header:?}"
    );
    body.lines()
        .filter_map(|line| {
            let (k, v) = line.split_once(' ')?;
            Some((k.to_string(), v.to_string()))
        })
        .collect()
}

/// The stats endpoint answers every fresh connection with a parseable
/// snapshot of the counters, queue depths, and per-model lines.
#[test]
fn stats_endpoint_reports_counters_queue_depths_and_models() {
    let f = 16;
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let (server, _engine) = start_test_server(77, f, config);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for i in 0..5 {
        client.predict(&test_row(f, 1, i)).expect("predict");
    }

    let report = fetch_stats(&server);
    assert_eq!(report.get("status").map(String::as_str), Some("ok"));
    assert_eq!(report.get("received").map(String::as_str), Some("5"));
    assert_eq!(report.get("served").map(String::as_str), Some("5"));
    assert_eq!(report.get("overloaded").map(String::as_str), Some("0"));
    assert_eq!(
        report.get("connections_live").map(String::as_str),
        Some("1")
    );
    assert_eq!(
        report.get("queue_depth_total").map(String::as_str),
        Some("0")
    );
    assert!(report.contains_key("queue_depth_0"));
    assert!(report.contains_key("queue_depth_1"));
    assert!(report.contains_key("uptime_us"));
    assert!(
        report.get("model_0").is_some_and(|v| v.contains("name=m0")
            && v.contains("received=5")
            && v.contains("served=5")),
        "model line missing or wrong: {:?}",
        report.get("model_0")
    );

    // A second snapshot is independently served (one connection each).
    let again = fetch_stats(&server);
    assert_eq!(again.get("received").map(String::as_str), Some("5"));
    server.shutdown();
}
