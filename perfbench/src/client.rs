//! The client side of a run: one generator thread drives every connection.
//!
//! * Open loop: each request has a scheduled send time; the generator sends
//!   on schedule whatever the server does, pipelining on non-blocking
//!   sockets, and reads replies as they arrive. Latency is timed from the
//!   *scheduled* send time, so a stall also counts against every request
//!   queued behind it. `lag` records how late the generator itself issued.
//! * Closed loop: one `PredictBatch` in flight; the next is due the moment
//!   the previous reply is decoded, and latency is timed from then.

use crate::trace::Answer;
use crate::workload::Event;
use stage_core::PredictionSource;
use stage_metrics::error::q_error;
use stage_serve::evloop::{PollFd, POLLIN, POLLOUT};
use stage_serve::wire::{self, Unframed};
use stage_serve::{Request, Response};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Predict latency limit behind `predict_slo_miss_frac`: above the miss
/// path, below any retrain.
pub const SLO_LIMIT_NS: u64 = 1_000_000;

#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub shard: u32,
    pub observe: bool,
    /// Index into the shard's window events.
    pub event: u32,
    /// Scheduled send time, ns after the window opens.
    pub at_ns: u64,
    /// The execution time the pair's Observe reports (and its Predict is
    /// scored against).
    pub secs: f64,
}

/// splitmix64: the benchmark's own seeded stream.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The open-loop schedule: per shard, Predict+Observe pairs at a fixed
/// rate, the observe half a period after its predict, shards offset so
/// their sends interleave. `cycle` replays the shard's events in a seeded
/// shuffled order (repeat-hot); otherwise they go in log order once.
/// `secs(shard, event)` gives each pair's execution time.
pub fn schedule(
    window: &[Vec<Event>],
    pairs_per_shard_s: f64,
    seconds: f64,
    cycle: bool,
    seed: u64,
    mut secs: impl FnMut(usize, u32) -> f64,
) -> io::Result<Vec<Op>> {
    let pairs = (pairs_per_shard_s * seconds).round() as usize;
    let period_ns = 1e9 / pairs_per_shard_s;
    let shards = window.len();
    let mut ops = Vec::with_capacity(2 * pairs * shards);
    let mut rng = seed ^ 0x5EED_0F0B_E7C4_A11E;
    for (s, events) in window.iter().enumerate() {
        if events.is_empty() || (!cycle && events.len() < pairs) {
            return Err(io::Error::other(format!(
                "shard {s}: {} window events, the schedule needs {pairs}",
                events.len()
            )));
        }
        let mut order: Vec<u32> = (0..events.len() as u32).collect();
        if cycle {
            for i in (1..order.len()).rev() {
                let j = (splitmix(&mut rng) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
        }
        let offset = s as f64 / shards as f64;
        for k in 0..pairs {
            let event = order[k % order.len()];
            let t = (k as f64 + offset) * period_ns;
            let secs = secs(s, event);
            for (observe, at) in [(false, t), (true, t + period_ns / 2.0)] {
                ops.push(Op {
                    shard: s as u32,
                    observe,
                    event,
                    at_ns: at as u64,
                    secs,
                });
            }
        }
    }
    ops.sort_by_key(|o| o.at_ns);
    Ok(ops)
}

/// Per-shard client tallies, reconciled against the server's `Stats`.
#[derive(Debug, Clone, Default)]
pub struct ShardTally {
    pub predictions: u64,
    pub observes: u64,
    pub batches: u64,
    /// Answers by source: cache, local, global, default.
    pub sources: [u64; 4],
}

impl ShardTally {
    pub fn count(&mut self, source: PredictionSource) {
        self.predictions += 1;
        self.sources[source_index(source)] += 1;
    }
}

pub fn source_index(source: PredictionSource) -> usize {
    match source {
        PredictionSource::Cache => 0,
        PredictionSource::Local => 1,
        PredictionSource::Global => 2,
        PredictionSource::Default => 3,
    }
}

/// The client ledger of one window.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Open loop: the answer to each predict op (by op index).
    pub answers: Vec<Option<Answer>>,
    /// Closed loop: the first answer to each distinct batch.
    pub batch_answers: Vec<Option<Vec<Answer>>>,
    /// Closed loop: the distinct batch each request carried, in order.
    pub batch_order: Vec<u32>,
    pub predict_ns: Vec<u64>,
    pub observe_ns: Vec<u64>,
    pub lag_ns: Vec<u64>,
    pub q_errors: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Predict or PredictBatch requests sent.
    pub predict_requests: u64,
    pub slo_misses: u64,
    pub shards: Vec<ShardTally>,
    pub window_s: f64,
}

impl Ledger {
    fn new(shards: usize) -> Self {
        Self {
            shards: vec![ShardTally::default(); shards],
            ..Self::default()
        }
    }
}

/// A non-blocking connection: outgoing bytes not yet written, incoming
/// bytes not yet parsed, and the ops awaiting replies in send order.
struct Conn<'a> {
    stream: &'a mut TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    pending: VecDeque<usize>,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: core::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const core::ffi::c_void,
    ) -> core::ffi::c_int;
    fn prctl(option: core::ffi::c_int, ...) -> core::ffi::c_int;
}

/// `poll(2)` with a nanosecond timeout, so the generator wakes for its
/// next scheduled send instead of rounding to milliseconds.
fn poll_ns(fds: &mut [PollFd], timeout: Duration) -> io::Result<()> {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // pollfd-layout structs and `ts` a live timespec; both outlive the
    // call, and a null signal mask leaves the mask unchanged.
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as core::ffi::c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// Sets this thread's timer slack to 1 µs (the default 50 µs would make
/// every scheduled wake-up up to 50 µs late).
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: core::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only changes
    // the calling thread's timer slack; failure is harmless.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000 as core::ffi::c_ulong);
    }
}

fn frame_request(request: &Request, enc: &mut Vec<u8>, out: &mut Vec<u8>) -> io::Result<()> {
    enc.clear();
    wire::encode_request(request, enc);
    wire::frame_into(out, enc)
}

/// Runs the open-loop window over `ops`.
pub fn open_loop(
    streams: &mut [TcpStream],
    window: &[Vec<Event>],
    ops: &[Op],
) -> io::Result<Ledger> {
    tighten_timer_slack();
    let mut ledger = Ledger::new(streams.len());
    ledger.answers = vec![None; ops.len()];
    let mut conns: Vec<Conn> = streams
        .iter_mut()
        .map(|stream| Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            pending: VecDeque::new(),
        })
        .collect();
    for c in &conns {
        c.stream.set_nonblocking(true)?;
    }
    let mut enc = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let mut last_reply = Instant::now();
    let start = Instant::now();
    let at = |op: &Op| start + Duration::from_nanos(op.at_ns);
    loop {
        // Issue everything due.
        let now = Instant::now();
        while let Some(op) = ops.get(next) {
            if at(op) > now {
                break;
            }
            let e = &window[op.shard as usize][op.event as usize];
            let request = if op.observe {
                Request::Observe {
                    instance: op.shard,
                    plan: e.plan.clone(),
                    sys: e.sys.clone(),
                    actual_secs: op.secs,
                }
            } else {
                Request::Predict {
                    instance: op.shard,
                    plan: e.plan.clone(),
                    sys: e.sys.clone(),
                }
            };
            let conn = &mut conns[op.shard as usize];
            frame_request(&request, &mut enc, &mut conn.out)?;
            conn.pending.push_back(next);
            ledger.attempted += 1;
            ledger.predict_requests += u64::from(!op.observe);
            ledger
                .lag_ns
                .push(Instant::now().duration_since(at(op)).as_nanos() as u64);
            next += 1;
        }
        // Write what the sockets take, read what has arrived.
        for conn in &mut conns {
            if !conn.out.is_empty() {
                match conn.stream.write(&conn.out) {
                    Ok(n) => {
                        conn.out.drain(..n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => return Err(io::Error::other("server closed a connection")),
                    Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            let recv = Instant::now();
            let mut used = 0;
            while let Unframed::Frame { consumed, payload } =
                wire::try_unframe(&conn.inbuf[used..])?
            {
                used += consumed;
                let response = wire::decode_response(payload)?;
                let Some(i) = conn.pending.pop_front() else {
                    return Err(io::Error::other("reply without a request"));
                };
                last_reply = recv;
                record(&mut ledger, ops, i, at(&ops[i]), recv, response);
            }
            conn.inbuf.drain(..used);
        }
        if next == ops.len() && conns.iter().all(|c| c.pending.is_empty()) {
            break;
        }
        // Sleep until the next send is due or a socket is ready.
        let timeout = match ops.get(next) {
            Some(op) => at(op).saturating_duration_since(Instant::now()),
            None => Duration::from_millis(100),
        };
        if timeout.is_zero() {
            continue;
        }
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| {
                let events = if c.out.is_empty() {
                    POLLIN
                } else {
                    POLLIN | POLLOUT
                };
                PollFd::new(c.stream.as_raw_fd(), events)
            })
            .collect();
        poll_ns(&mut fds, timeout)?;
        if start.elapsed() > Duration::from_secs(150) {
            return Err(io::Error::other("window did not drain within 150 s"));
        }
    }
    for c in &conns {
        c.stream.set_nonblocking(false)?;
    }
    ledger.window_s = last_reply.duration_since(start).as_secs_f64();
    Ok(ledger)
}

/// Books one reply against its op.
fn record(
    ledger: &mut Ledger,
    ops: &[Op],
    i: usize,
    due: Instant,
    recv: Instant,
    response: Response,
) {
    let op = ops[i];
    let latency = recv.saturating_duration_since(due).as_nanos() as u64;
    let tally = &mut ledger.shards[op.shard as usize];
    match (op.observe, response) {
        (true, Response::Observed { .. }) => {
            tally.observes += 1;
            ledger.observe_ns.push(latency);
        }
        (
            false,
            Response::Predicted {
                exec_secs,
                interval_lo,
                interval_hi,
                source,
                ..
            },
        ) => {
            tally.count(source);
            ledger.predict_ns.push(latency);
            ledger.slo_misses += u64::from(latency > SLO_LIMIT_NS);
            ledger.q_errors.push(q_error(op.secs, exec_secs));
            ledger.answers[i] = Some(Answer::new(exec_secs, interval_lo, interval_hi, source));
        }
        (observe, other) => {
            eprintln!(
                "perfbench: shard {} {} failed: {other:?}",
                op.shard,
                if observe { "observe" } else { "predict" }
            );
            ledger.failed += 1;
            ledger.slo_misses += u64::from(!observe);
        }
    }
}

/// One blocking request/reply on a binary-codec connection.
pub fn call(stream: &mut TcpStream, request: &Request) -> io::Result<Response> {
    let mut enc = Vec::new();
    let mut out = Vec::new();
    frame_request(request, &mut enc, &mut out)?;
    stream.write_all(&out)?;
    let mut payload = Vec::new();
    if !wire::read_frame(stream, &mut payload)? {
        return Err(io::Error::other("server closed the connection"));
    }
    wire::decode_response(&payload)
}

/// The `batch-price` window: closed loop over `width`-plan batches of the
/// shard's unseen plans, cycled, for `seconds`.
pub fn closed_loop_batches(
    stream: &mut TcpStream,
    events: &[Event],
    width: usize,
    seconds: f64,
) -> io::Result<Ledger> {
    let mut ledger = Ledger::new(1);
    let batches: Vec<&[Event]> = events.chunks_exact(width).collect();
    if batches.is_empty() {
        return Err(io::Error::other("not enough unseen plans for one batch"));
    }
    ledger.batch_answers = vec![None; batches.len()];
    let requests: Vec<Request> = batches
        .iter()
        .map(|b| Request::PredictBatch {
            instance: 0,
            plans: b.iter().map(|e| e.plan.clone()).collect(),
            sys: b[0].sys.clone(),
        })
        .collect();
    let mut enc = Vec::new();
    let mut out = Vec::new();
    let mut payload = Vec::new();
    let start = Instant::now();
    let mut due = start;
    let mut k = 0usize;
    while due.duration_since(start).as_secs_f64() < seconds {
        let b = k % batches.len();
        out.clear();
        frame_request(&requests[b], &mut enc, &mut out)?;
        stream.write_all(&out)?;
        ledger
            .lag_ns
            .push(Instant::now().duration_since(due).as_nanos() as u64);
        ledger.attempted += 1;
        ledger.predict_requests += 1;
        let ok = wire::read_frame(stream, &mut payload)?;
        let recv = Instant::now();
        let latency = recv.duration_since(due).as_nanos() as u64;
        let response = if ok {
            Some(wire::decode_response(&payload)?)
        } else {
            None
        };
        ledger.batch_order.push(b as u32);
        match response {
            Some(Response::PredictionsBatch { predictions, .. }) if predictions.len() == width => {
                let tally = &mut ledger.shards[0];
                tally.batches += 1;
                let answers: Vec<Answer> = predictions
                    .iter()
                    .map(|p| Answer::new(p.exec_secs, p.interval_lo, p.interval_hi, p.source))
                    .collect();
                for (p, e) in predictions.iter().zip(batches[b]) {
                    tally.count(p.source);
                    ledger.q_errors.push(q_error(e.true_secs, p.exec_secs));
                }
                ledger.predict_ns.push(latency);
                ledger.slo_misses += u64::from(latency > SLO_LIMIT_NS);
                // Nothing is observed, so a batch must answer the same
                // bits every time it is priced.
                match &ledger.batch_answers[b] {
                    Some(first) if *first != answers => {
                        eprintln!("perfbench: batch {b} answered differently on a repeat");
                        ledger.failed += 1;
                    }
                    Some(_) => {}
                    None => ledger.batch_answers[b] = Some(answers),
                }
            }
            other => {
                eprintln!("perfbench: batch {b} failed: {other:?}");
                ledger.failed += 1;
                ledger.slo_misses += 1;
            }
        }
        if !ok {
            return Err(io::Error::other("server closed the connection"));
        }
        due = Instant::now();
        k += 1;
    }
    ledger.window_s = due.duration_since(start).as_secs_f64();
    Ok(ledger)
}
