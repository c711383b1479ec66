//! The serve workloads: an in-process `poetbin-serve` driven over one
//! pipelined loopback connection by at most two generator threads.
//!
//! A run sets the server up several times (load and compile every model,
//! start the server, wait for the first good answer per model) and keeps
//! the last one. It then runs four phases on the same connection:
//!
//! * `warmup` — open loop at the low rate, not reported;
//! * `low` and `high` — open loop at a fixed arrival rate. A sender thread
//!   writes every request that is due in one `write` and sleeps until the
//!   next is due; the receiver (this thread) times each response from when
//!   its request was *due*, so a stall also delays the requests queued
//!   behind it;
//! * `sat` — a closed window of requests in flight, for capacity.
//!
//! Every response is checked against the scalar `PoetBinClassifier`
//! oracle, never against the engine under test.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use poetbin_bits::BitVec;
use poetbin_engine::Backend;
use poetbin_serve::protocol::{
    self, RESPONSE_LEN, STATUS_DEADLINE_EXCEEDED, STATUS_OK, STATUS_OVERLOADED,
};
use poetbin_serve::{load_engine_with, ModelRegistry, ServeConfig, Server};

use crate::model::{model_layers, seeded_rows, Model};
use crate::stats::{median, percentile, sorted, windowed};
use crate::trace::{Span, Tracer};
use crate::{Ctx, Outcome};

/// Every 16th request gets a send and a response span.
const SAMPLE_EVERY: u64 = 16;
/// The receiver samples the server's queue depth every 64 responses.
const DEPTH_EVERY: u64 = 64;
/// Most request frames one `write` carries when the sender runs behind.
const MAX_FRAMES_PER_WRITE: u64 = 256;
/// A latency window's p99 counts only with 100 samples beyond it.
const MIN_P99_SAMPLES: usize = 10_000;
/// A latency window's p50 counts with at least this many samples.
const MIN_P50_SAMPLES: usize = 1_000;
/// Target length of a measurement window.
const WINDOW: Duration = Duration::from_millis(500);
/// No response for this long fails the run.
const STALL: Duration = Duration::from_secs(5);

pub struct ServeSpec {
    /// The served models and the files the server loads them from.
    pub models: Vec<(Model, PathBuf)>,
    /// Open-loop arrival rates of the `low` and `high` phases, req/s.
    pub low_rps: f64,
    pub high_rps: f64,
    /// Requests in flight during `sat`.
    pub in_flight: usize,
    /// Seeded rows per model; request `i` targets model `i mod M`.
    pub pool: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// The request stream: which model and row each request id carries, and
/// the oracle's answer for it.
struct Plan {
    wire_ids: Vec<u16>,
    rows: Vec<Vec<BitVec>>,
    expected: Vec<Vec<usize>>,
}

impl Plan {
    fn new(spec: &ServeSpec, seed: u64) -> Plan {
        let rows: Vec<Vec<BitVec>> = spec
            .models
            .iter()
            .enumerate()
            .map(|(k, (m, _))| seeded_rows(seed, 1 + k as u64, spec.pool, m.width))
            .collect();
        let expected = spec
            .models
            .iter()
            .zip(&rows)
            .map(|((m, _), r)| m.oracle(r))
            .collect();
        Plan {
            wire_ids: Vec::new(),
            rows,
            expected,
        }
    }

    fn slot(&self, id: u64) -> (usize, usize) {
        let m = self.rows.len() as u64;
        let k = (id % m) as usize;
        (k, ((id / m) % self.rows[k].len() as u64) as usize)
    }

    /// Appends request `id` as one length-prefixed frame.
    fn push(&self, buf: &mut Vec<u8>, id: u64) {
        let (k, r) = self.slot(id);
        let payload = protocol::encode_request(self.wire_ids[k], id, &self.rows[k][r]);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
    }

    fn expected(&self, id: u64) -> usize {
        let (k, r) = self.slot(id);
        self.expected[k][r]
    }
}

/// Request outcomes of one phase.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    sent: u64,
    ok: u64,
    mismatches: u64,
    shed: u64,
    rejected: u64,
    lost: u64,
}

impl Tally {
    /// Files one response; `true` when it is a correct prediction.
    fn check(&mut self, plan: &Plan, id: u64, status: u8, class: u16) -> bool {
        match status {
            STATUS_OK if usize::from(class) == plan.expected(id) => {
                self.ok += 1;
                true
            }
            STATUS_OK => {
                self.mismatches += 1;
                false
            }
            STATUS_OVERLOADED | STATUS_DEADLINE_EXCEEDED => {
                self.shed += 1;
                false
            }
            _ => {
                self.rejected += 1;
                false
            }
        }
    }

    fn failed(&self) -> u64 {
        self.mismatches + self.shed + self.rejected + self.lost
    }

    fn add(&mut self, o: &Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.mismatches += o.mismatches;
        self.shed += o.shed;
        self.rejected += o.rejected;
        self.lost += o.lost;
    }
}

/// Response frames reassembled from a socket read with a timeout, so a
/// read that times out never loses a partial frame.
struct Inbox {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            buf: vec![0; 1 << 16],
            head: 0,
            tail: 0,
        }
    }

    /// Reads what the socket has; `Ok(false)` when the read timed out.
    fn fill(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        match stream.read(&mut self.buf[self.tail..]) {
            Ok(0) => Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.tail += n;
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// The next complete response `(id, status, class)`, if any.
    fn next(&mut self) -> io::Result<Option<(u64, u8, u16)>> {
        let avail = &self.buf[self.head..self.tail];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed response frame");
        if len != RESPONSE_LEN {
            return Err(bad());
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame = protocol::decode_response(&avail[4..4 + len]).ok_or_else(bad)?;
        self.head += 4 + len;
        Ok(Some(frame))
    }
}

/// The generator's one connection.
struct Conn {
    stream: TcpStream,
    inbox: Inbox,
    next_id: u64,
}

impl Conn {
    fn connect(addr: SocketAddr, plan: &Plan, spec: &ServeSpec) -> io::Result<Conn> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let hello = protocol::read_hello(&mut stream)?;
        for ((m, _), &id) in spec.models.iter().zip(&plan.wire_ids) {
            let advertised = hello.iter().find(|h| h.id == id);
            if advertised.is_none_or(|h| h.name != m.name || h.num_features != m.width) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("hello does not advertise model {} as registered", m.name),
                ));
            }
        }
        stream.set_read_timeout(Some(Duration::from_millis(10)))?;
        Ok(Conn {
            stream,
            inbox: Inbox::new(),
            next_id: 0,
        })
    }
}

/// What one phase measured.
struct Phase {
    tally: Tally,
    /// `(window, latency µs)` of every correct response (of every
    /// sampled one in `sat`).
    lat_us: Vec<(u32, f32)>,
    /// How late the sender was at each write, µs.
    late_us: Vec<f64>,
    depth_max: usize,
    served: u64,
    batches: u64,
    secs: f64,
    /// Responses received in each window of the phase (closed loop).
    completed: Vec<u64>,
    error: Option<String>,
}

impl Phase {
    fn new(secs: f64) -> Phase {
        Phase {
            tally: Tally::default(),
            lat_us: Vec::new(),
            late_us: Vec::new(),
            depth_max: 0,
            served: 0,
            batches: 0,
            secs,
            completed: Vec::new(),
            error: None,
        }
    }

    fn p(&self, q: f64) -> Option<f64> {
        let v: Vec<f64> = self.lat_us.iter().map(|s| f64::from(s.1)).collect();
        (!v.is_empty()).then(|| percentile(&sorted(&v), q))
    }

    /// The median over the phase's windows of each window's `q` quantile
    /// (see [`windowed`]); the plain quantile when no window holds
    /// `min_per_window` samples, as in a very short run.
    fn windowed(&self, q: f64, min_per_window: usize) -> Option<f64> {
        windowed(&self.lat_us, q, min_per_window).or_else(|| self.p(q))
    }

    /// How late the sender ran at p99, µs.
    fn late_p99(&self) -> Option<f64> {
        (!self.late_us.is_empty()).then(|| percentile(&sorted(&self.late_us), 0.99))
    }

    fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served as f64 / self.batches as f64
        }
    }
}

/// Converts `(start, end, id)` offsets from `t0` into request spans.
fn request_spans(
    tr: &mut Tracer,
    name: &'static str,
    t0: Instant,
    parent: Option<usize>,
    raw: &[(u64, u64, u64)],
) {
    let base = tr.ns(t0);
    for &(start, end, id) in raw {
        tr.push(Span {
            name,
            start_ns: base + start,
            end_ns: base + end,
            parent,
            id: Some(id),
        });
    }
}

/// Open loop at `rate` req/s for `dur`.
fn open_phase(
    conn: &mut Conn,
    plan: &Plan,
    server: &Server,
    tr: &mut Tracer,
    name: &'static str,
    rate: f64,
    dur: Duration,
) -> Phase {
    let span = tr.start(name, None);
    let parent = span.id();
    let tracing = tr.on();
    let mut phase = Phase::new(dur.as_secs_f64());
    let (served0, batches0) = (server.stats().served(), server.stats().batches());
    let gap_ns = 1e9 / rate;
    let total = (dur.as_nanos() as f64 / gap_ns).ceil() as u64;
    let due = |i: u64| (i as f64 * gap_ns) as u64;
    // Windows long enough to hold 20 000 requests, and at least 0.5 s.
    let window_ns = (20_000.0 * gap_ns).max(WINDOW.as_nanos() as f64);
    let id0 = conn.next_id;
    let mut writer = match conn.stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            phase.error = Some(format!("cloning the connection: {e}"));
            tr.end(span);
            return phase;
        }
    };
    let sent = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let mut received = 0u64;
    let mut resp_spans = Vec::new();
    phase.lat_us.reserve_exact(total as usize);
    let t0 = Instant::now();
    let (late_us, send_spans) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late_us = Vec::new();
            let mut spans = Vec::new();
            let mut buf = Vec::new();
            let mut i = 0u64;
            while i < total && !abort.load(Ordering::Relaxed) {
                let now = t0.elapsed().as_nanos() as u64;
                if due(i) > now {
                    std::thread::sleep(Duration::from_nanos(due(i) - now));
                    continue;
                }
                let first = i;
                buf.clear();
                while i < total && i - first < MAX_FRAMES_PER_WRITE && due(i) <= now {
                    plan.push(&mut buf, id0 + i);
                    i += 1;
                }
                if writer.write_all(&buf).is_err() {
                    break;
                }
                sent.store(i, Ordering::Release);
                late_us.push((now - due(first)) as f64 / 1e3);
                if tracing {
                    if let Some(j) = (id0 + first..id0 + i).find(|j| j % SAMPLE_EVERY == 0) {
                        spans.push((now, t0.elapsed().as_nanos() as u64, j));
                    }
                }
            }
            done.store(true, Ordering::Release);
            (late_us, spans)
        });

        let mut last = Instant::now();
        'recv: loop {
            if done.load(Ordering::Acquire) && received >= sent.load(Ordering::Acquire) {
                break;
            }
            if last.elapsed() > STALL {
                phase.error = Some(format!("{name}: no response for {STALL:?}"));
                break;
            }
            match conn.inbox.fill(&mut conn.stream) {
                Ok(true) => last = Instant::now(),
                Ok(false) => continue,
                Err(e) => {
                    phase.error = Some(format!("{name}: {e}"));
                    break;
                }
            }
            let now = t0.elapsed().as_nanos() as u64;
            loop {
                let (id, status, class) = match conn.inbox.next() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(e) => {
                        phase.error = Some(format!("{name}: {e}"));
                        break 'recv;
                    }
                };
                let i = id.wrapping_sub(id0);
                if i >= total {
                    phase.tally.rejected += 1;
                    continue;
                }
                received += 1;
                if phase.tally.check(plan, id, status, class) {
                    let window = (due(i) as f64 / window_ns) as u32;
                    phase
                        .lat_us
                        .push((window, now.saturating_sub(due(i)) as f32 / 1e3));
                }
                if received.is_multiple_of(DEPTH_EVERY) {
                    phase.depth_max = phase.depth_max.max(server.queue_depth());
                }
                if tracing && id % SAMPLE_EVERY == 0 {
                    resp_spans.push((due(i), now, id));
                }
            }
        }
        if phase.error.is_some() {
            abort.store(true, Ordering::Relaxed);
            // Unblocks a sender stuck in `write` on a wedged connection.
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        sender.join().expect("sender thread")
    });
    phase.tally.sent = sent.load(Ordering::Acquire);
    phase.tally.lost = phase.tally.sent.saturating_sub(received);
    conn.next_id = id0 + phase.tally.sent;
    phase.late_us = late_us;
    phase.served = server.stats().served() - served0;
    phase.batches = server.stats().batches() - batches0;
    request_spans(tr, "client.send", t0, parent, &send_spans);
    request_spans(tr, "client.response", t0, parent, &resp_spans);
    tr.end(span);
    phase
}

/// Closed loop: `in_flight` requests outstanding for `dur`, each answer
/// releasing the next request.
fn sat_phase(
    conn: &mut Conn,
    plan: &Plan,
    server: &Server,
    tr: &mut Tracer,
    in_flight: usize,
    dur: Duration,
) -> Phase {
    let span = tr.start("sat", None);
    let parent = span.id();
    let tracing = tr.on();
    let mut phase = Phase::new(dur.as_secs_f64());
    let (served0, batches0) = (server.stats().served(), server.stats().batches());
    let id0 = conn.next_id;
    let end_ns = dur.as_nanos() as u64;
    // Whole windows of about `WINDOW` tiling the phase.
    let windows = ((dur.as_secs_f64() / WINDOW.as_secs_f64()) as usize).max(1);
    let window_ns = end_ns / windows as u64;
    phase.completed = vec![0; windows];
    // Send times of the sampled requests only, so memory does not grow
    // with throughput.
    let mut sampled: HashMap<u64, u64> = HashMap::new();
    let mut sent = 0u64;
    let mut outstanding = 0usize;
    let mut to_send = in_flight;
    let mut buf = Vec::new();
    let (mut send_spans, mut resp_spans) = (Vec::new(), Vec::new());
    let mut received = 0u64;
    let mut last = Instant::now();
    let t0 = Instant::now();
    'run: loop {
        let now = t0.elapsed().as_nanos() as u64;
        let open = now < end_ns;
        if to_send > 0 && open {
            buf.clear();
            let first = id0 + sent;
            for id in first..first + to_send as u64 {
                plan.push(&mut buf, id);
                if id % SAMPLE_EVERY == 0 {
                    sampled.insert(id, now);
                }
            }
            if let Err(e) = conn.stream.write_all(&buf) {
                phase.error = Some(format!("sat: {e}"));
                break;
            }
            sent += to_send as u64;
            outstanding += to_send;
            to_send = 0;
            if tracing {
                if let Some(j) = (first..id0 + sent).find(|j| j % SAMPLE_EVERY == 0) {
                    send_spans.push((now, t0.elapsed().as_nanos() as u64, j));
                }
            }
        }
        if !open && outstanding == 0 {
            break;
        }
        if last.elapsed() > STALL {
            phase.error = Some(format!("sat: no response for {STALL:?}"));
            break;
        }
        match conn.inbox.fill(&mut conn.stream) {
            Ok(true) => last = Instant::now(),
            Ok(false) => continue,
            Err(e) => {
                phase.error = Some(format!("sat: {e}"));
                break;
            }
        }
        let now = t0.elapsed().as_nanos() as u64;
        loop {
            let (id, status, class) = match conn.inbox.next() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    phase.error = Some(format!("sat: {e}"));
                    break 'run;
                }
            };
            if id.wrapping_sub(id0) >= sent {
                phase.tally.rejected += 1;
                continue;
            }
            received += 1;
            outstanding -= 1;
            let ok = phase.tally.check(plan, id, status, class);
            if let Some(at) = sampled.remove(&id) {
                if ok {
                    phase.lat_us.push((0, now.saturating_sub(at) as f32 / 1e3));
                }
                if tracing {
                    resp_spans.push((at, now, id));
                }
            }
            if now < end_ns {
                phase.completed[(now / window_ns) as usize] += 1;
                to_send += 1;
            }
            if received.is_multiple_of(DEPTH_EVERY) {
                phase.depth_max = phase.depth_max.max(server.queue_depth());
            }
        }
    }
    phase.tally.sent = sent;
    phase.tally.lost = phase.tally.sent.saturating_sub(received);
    conn.next_id = id0 + phase.tally.sent;
    phase.served = server.stats().served() - served0;
    phase.batches = server.stats().batches() - batches0;
    request_spans(tr, "client.send", t0, parent, &send_spans);
    request_spans(tr, "client.response", t0, parent, &resp_spans);
    tr.end(span);
    phase
}

/// One set-up: load and compile every model, start the server, and wait
/// for one correct answer per model.
fn start(
    spec: &ServeSpec,
    plan: &mut Plan,
    tr: &mut Tracer,
) -> Result<(Server, Conn, f64, String), String> {
    let t = Instant::now();
    let setup = tr.start("setup", None);
    let p = setup.id();
    let s = tr.start("serve.load_engine", p);
    let engines = spec
        .models
        .iter()
        .map(|(m, path)| {
            load_engine_with(path, Some(m.width), Backend::default())
                .map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    tr.end(s);
    let backend = engines[0].backend_name().to_string();
    let s = tr.start("serve.register", p);
    let mut registry = ModelRegistry::new();
    plan.wire_ids = spec
        .models
        .iter()
        .zip(engines)
        .map(|((m, _), e)| registry.register(m.name.clone(), Arc::new(e)))
        .collect();
    tr.end(s);
    let s = tr.start("serve.start", p);
    let server = Server::start(Arc::new(registry), "127.0.0.1:0", ServeConfig::default())
        .map_err(|e| format!("starting the server: {e}"))?;
    tr.end(s);
    let s = tr.start("serve.first_response", p);
    let mut conn = Conn::connect(server.local_addr(), plan, spec).map_err(|e| e.to_string())?;
    let models = spec.models.len() as u64;
    let mut buf = Vec::new();
    for id in 0..models {
        plan.push(&mut buf, id);
    }
    conn.stream.write_all(&buf).map_err(|e| e.to_string())?;
    let mut tally = Tally::default();
    let waited = Instant::now();
    while tally.ok + tally.failed() < models {
        if waited.elapsed() > STALL {
            return Err("no first response".into());
        }
        conn.inbox
            .fill(&mut conn.stream)
            .map_err(|e| e.to_string())?;
        while let Some((id, status, class)) = conn.inbox.next().map_err(|e| e.to_string())? {
            tally.check(plan, id, status, class);
        }
    }
    if tally.failed() > 0 {
        return Err(format!("first responses were wrong: {tally:?}"));
    }
    conn.next_id = models;
    tr.end(s);
    tr.end(setup);
    Ok((server, conn, t.elapsed().as_secs_f64(), backend))
}

pub fn run(spec: &ServeSpec, ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome {
        models: spec.models.iter().map(|(m, _)| m.digest()).collect(),
        ..Outcome::default()
    };
    let mut plan = Plan::new(spec, ctx.seed);

    let mut setups = Vec::new();
    let mut kept = None;
    for k in 0..spec.setups {
        let (server, conn, secs, backend) = start(spec, &mut plan, &mut ctx.tr)?;
        setups.push(secs);
        out.backend = backend;
        out.attempted += spec.models.len() as u64;
        if k + 1 == spec.setups {
            kept = Some((server, conn));
        } else {
            drop(conn);
            server.shutdown();
        }
    }
    let (server, mut conn) = kept.ok_or("no set-ups configured")?;

    let warm = Duration::from_secs_f64((ctx.seconds / 15.0).max(0.2));
    let each = Duration::from_secs_f64(((ctx.seconds - warm.as_secs_f64()) / 3.0).max(0.1));
    let tr = &mut ctx.tr;
    let mut phases = Vec::new();
    for (name, rate) in [
        ("warmup", spec.low_rps),
        ("low", spec.low_rps),
        ("high", spec.high_rps),
    ] {
        let dur = if name == "warmup" { warm } else { each };
        phases.push(open_phase(&mut conn, &plan, &server, tr, name, rate, dur));
        if phases.last().is_some_and(|p| p.error.is_some()) {
            break;
        }
    }
    if phases.len() == 3 && phases[2].error.is_none() {
        phases.push(sat_phase(
            &mut conn,
            &plan,
            &server,
            tr,
            spec.in_flight,
            each,
        ));
    }
    drop(conn);
    let stats = server.stats_handle();
    server.shutdown();

    let mut tally = Tally::default();
    for p in &phases {
        tally.add(&p.tally);
        if let Some(e) = &p.error {
            out.flags.push(e.clone());
        }
    }
    out.attempted += tally.sent;
    out.failed += tally.failed();
    let reconciled = stats.received()
        == stats.served()
            + stats.overloaded()
            + stats.deadline_expired()
            + stats.rejected()
            + stats.protocol_errors();
    if !reconciled {
        out.failed += 1;
        out.flags.push("server counters do not reconcile".into());
    }
    if phases.len() < 4 {
        return Err(format!("serve run aborted: {}", out.flags.join("; ")));
    }
    let (low, high, sat) = (&phases[1], &phases[2], &phases[3]);

    let op_p50 = low
        .windowed(0.5, MIN_P50_SAMPLES)
        .ok_or("no correct response in the low phase")?;
    let tail = high
        .windowed(0.99, MIN_P99_SAMPLES)
        .ok_or("no correct response in the high phase")?;
    let per_window: Vec<f64> = sat.completed.iter().map(|&c| c as f64).collect();
    out.e2e = vec![
        ("setup_s", median(&setups)),
        ("op_p50_ms", op_p50 / 1e3),
        ("op_tail_ms", tail / 1e3),
        (
            "throughput",
            median(&per_window) * per_window.len() as f64 / sat.secs,
        ),
    ];
    for (name, p) in [("low", low), ("high", high), ("sat", sat)] {
        out.info(
            format!("{name}.achieved_rps"),
            p.tally.ok as f64 / p.secs,
            "1/s",
        );
        if let Some(v) = p.windowed(0.5, MIN_P50_SAMPLES) {
            out.info(format!("{name}.p50_ms"), v / 1e3, "ms");
        }
        if let Some(v) = p.windowed(0.99, MIN_P99_SAMPLES) {
            out.info(format!("{name}.p99_ms"), v / 1e3, "ms");
        }
        out.info(format!("{name}.mean_batch"), p.mean_batch(), "req");
        out.info(format!("{name}.queue_depth_max"), p.depth_max as f64, "req");
    }
    for (name, p) in [("low", low), ("high", high)] {
        if let Some(late) = p.late_p99().filter(|&l| l > 1000.0) {
            out.flags.push(format!(
                "{name}: the generator ran {late:.0} us late at p99"
            ));
        }
    }

    if tr.on() {
        // The engine work of one server batch at the high phase's mean
        // batch size, split evenly over the models the batch groups by.
        let models: Vec<&Model> = spec.models.iter().map(|(m, _)| m).collect();
        let per_model = (high.mean_batch() / models.len() as f64).round() as usize;
        model_layers(
            tr,
            &mut out,
            &models,
            &vec![per_model; models.len()],
            ctx.seed,
        );
        let (enc, dec) = protocol_ns(&plan);
        out.layer(
            "serve.start_ms",
            tr.median_secs("serve.start").map(|s| s * 1e3),
        );
        for (name, p) in [("low", low), ("high", high), ("sat", sat)] {
            out.layer(format!("serve.mean_batch.{name}"), Some(p.mean_batch()));
            out.layer(
                format!("serve.batches_per_s.{name}"),
                Some(p.batches as f64 / p.secs),
            );
            out.layer(
                format!("serve.queue_depth_max.{name}"),
                Some(p.depth_max as f64),
            );
        }
        let shed = stats.overloaded() + stats.deadline_expired();
        out.layer("serve.shed", Some(shed as f64));
        out.layer("serve.rejected", Some(stats.rejected() as f64));
        out.layer(
            "serve.protocol_errors",
            Some(stats.protocol_errors() as f64),
        );
        out.layer("gen.mismatches", Some(tally.mismatches as f64));
        let send = tr.pooled_median_secs("client.send");
        out.layer("client.send_us.p50", send.map(|s| s * 1e6));
        out.layer("protocol.encode_ns", Some(enc));
        out.layer("protocol.decode_ns", Some(dec));
        for (name, p) in [("low", low), ("high", high)] {
            out.layer(format!("gen.late_us.p99.{name}"), p.late_p99());
        }
    }
    Ok(out)
}

/// Replays the protocol's request encoder and decoder on the plan's rows:
/// median ns per call over 5 batches of 2 000 calls.
fn protocol_ns(plan: &Plan) -> (f64, f64) {
    let ids: Vec<u64> = (0..2_000).collect();
    let frames: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| {
            let (k, r) = plan.slot(id);
            protocol::encode_request(plan.wire_ids[k], id, &plan.rows[k][r])
        })
        .collect();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for &id in &ids {
            let (k, r) = plan.slot(id);
            std::hint::black_box(protocol::encode_request(
                plan.wire_ids[k],
                id,
                &plan.rows[k][r],
            ));
        }
        enc.push(t.elapsed().as_nanos() as f64 / ids.len() as f64);
        let t = Instant::now();
        for (&id, frame) in ids.iter().zip(&frames) {
            let (k, r) = plan.slot(id);
            let (_, _, bits) = protocol::decode_request(frame).expect("well-formed request");
            std::hint::black_box(protocol::decode_row(bits, plan.rows[k][r].len()));
        }
        dec.push(t.elapsed().as_nanos() as f64 / ids.len() as f64);
    }
    (median(&enc), median(&dec))
}
