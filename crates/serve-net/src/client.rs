//! The client side of the wire protocol: a blocking request/response
//! [`NetClient`] with capped-exponential-backoff reconnects, plus a
//! pipelined driver ([`NetClient::run_pipelined`]) for load generation.
//!
//! ## Retry discipline
//!
//! Retries exist for *connection* failures (refused connect, mid-stream
//! disconnect), never for typed rejections — a `Reject` frame is the
//! server's answer, and [`query`](NetClient::query) returns it as
//! [`NetClientError::Rejected`] for the caller to decide about. After a
//! disconnect, a query is resubmitted on the fresh connection **only if the
//! caller marked it idempotent**: a non-idempotent query that died
//! mid-flight may or may not have executed, and silently resubmitting it
//! would double-apply — the client surfaces
//! [`NetClientError::Disconnected`] instead and lets the caller own that
//! choice. (Top-K reads are idempotent; the flag exists so the rule travels
//! with the query rather than being assumed.)
//!
//! Backoff between attempts is capped exponential —
//! `min(base · 2^attempt, max)` — with deterministic ±50% jitter drawn from
//! a splitmix64 stream seeded by [`RetryPolicy::seed`], so retry-storm
//! tests replay bit-identically.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use msopds_serve::ScoredItem;
use msopds_telemetry::Histogram;

use crate::frame::{Frame, FrameDecoder, FrameError, RejectReason};
use crate::poll::{events, poll_fds, PollFd};

/// Reconnect/backoff knobs; defaults suit a loopback test rig.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Max reconnect attempts per query before giving up.
    pub max_retries: u32,
    /// First backoff step.
    pub base_backoff_ms: u64,
    /// Backoff ceiling.
    pub max_backoff_ms: u64,
    /// Seed of the jitter stream (deterministic across runs).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 5, base_backoff_ms: 2, max_backoff_ms: 200, seed: 0x5EED }
    }
}

/// Typed client-side failures.
#[derive(Debug)]
pub enum NetClientError {
    /// Socket-level failure after exhausting retries.
    Io(io::Error),
    /// The server's byte stream is malformed (version skew, corruption).
    Frame(FrameError),
    /// The server answered with a typed rejection.
    Rejected {
        /// Why the server refused.
        reason: RejectReason,
        /// Reason-specific detail (queue cap, n_users, elapsed µs).
        detail: u64,
    },
    /// The connection died while a **non-idempotent** query was in flight;
    /// the query may or may not have executed and was not resubmitted.
    Disconnected,
    /// Reconnect attempts exhausted without completing the query.
    RetriesExhausted {
        /// Attempts made (initial + retries).
        attempts: u32,
    },
}

impl std::fmt::Display for NetClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetClientError::Io(e) => write!(f, "socket error: {e}"),
            NetClientError::Frame(e) => write!(f, "malformed server stream: {e}"),
            NetClientError::Rejected { reason, detail } => {
                write!(f, "rejected: {reason} (detail {detail})")
            }
            NetClientError::Disconnected => {
                write!(f, "disconnected mid-flight; non-idempotent query not resubmitted")
            }
            NetClientError::RetriesExhausted { attempts } => {
                write!(f, "gave up after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for NetClientError {}

impl From<FrameError> for NetClientError {
    fn from(e: FrameError) -> Self {
        NetClientError::Frame(e)
    }
}

/// Aggregate outcome of one [`NetClient::run_pipelined`] drive.
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// Queries written to the socket.
    pub offered: u64,
    /// `TopK` responses received.
    pub completed: u64,
    /// `Reject` responses received, by coarse bucket.
    pub rejected: u64,
    /// Of `rejected`: admission sheds (`ResourceExhausted`).
    pub rejected_overload: u64,
    /// Of `rejected`: drain refusals.
    pub drained: u64,
    /// Of `rejected`: server-side deadline misses.
    pub rejected_deadline: u64,
    /// Send→response latency of completed queries, µs, in arrival order.
    /// Kept beside [`Self::latency`] because the repository benchmark
    /// (`perfbench`) pools the raw samples of many drives; it grows by 8
    /// bytes per completion, so size drives accordingly.
    pub latencies_us: Vec<u64>,
    /// The same latencies in a fixed-size histogram, which
    /// [`Self::latency_pct_us`] reads.
    pub latency: Histogram,
    /// Wall-clock of the whole drive.
    pub elapsed: Duration,
}

impl PipelineReport {
    /// Nearest-rank percentile of the completed-query latencies, within the
    /// [`Histogram`] error bound (1/64 of the value; exact below 64 µs).
    /// `p` is a fraction (0.0–1.0) and is clamped into that range.
    pub fn latency_pct_us(&self, p: f64) -> u64 {
        self.latency.snapshot().quantile(p)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A wire-protocol client over one TCP connection. Not thread-safe — one
/// client per thread/process, which is how the multi-process bench drives
/// it.
pub struct NetClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    decoder: FrameDecoder,
    next_request_id: u64,
    policy: RetryPolicy,
    jitter_state: u64,
}

impl NetClient {
    /// Connects to `addr` (retrying per `policy` if the listener is not up
    /// yet — covers the race of a client process starting before the
    /// server's bind lands).
    pub fn connect(addr: SocketAddr, policy: RetryPolicy) -> Result<Self, NetClientError> {
        let mut client = NetClient {
            addr,
            stream: None,
            decoder: FrameDecoder::new(),
            next_request_id: 1,
            policy,
            jitter_state: policy.seed,
        };
        client.reconnect(0)?;
        Ok(client)
    }

    /// The jittered capped-exponential backoff for retry `attempt` (0-based).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self
            .policy
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.policy.max_backoff_ms);
        // ±50% deterministic jitter: backoff/2 + uniform[0, backoff).
        let jitter = if exp == 0 { 0 } else { splitmix64(&mut self.jitter_state) % exp };
        Duration::from_millis(exp / 2 + jitter)
    }

    fn reconnect(&mut self, mut attempt: u32) -> Result<(), NetClientError> {
        loop {
            match TcpStream::connect(self.addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    self.stream = Some(stream);
                    self.decoder = FrameDecoder::new(); // stale bytes die with the old conn
                    return Ok(());
                }
                Err(e) => {
                    if attempt >= self.policy.max_retries {
                        return Err(NetClientError::Io(e));
                    }
                    let pause = self.backoff(attempt);
                    std::thread::sleep(pause);
                    attempt += 1;
                }
            }
        }
    }

    fn stream(&mut self) -> &mut TcpStream {
        self.stream.as_mut().expect("connected")
    }

    /// Blocking-reads until one complete frame arrives.
    fn read_frame(&mut self) -> Result<Frame, io::Error> {
        loop {
            match self.decoder.next() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            let mut buf = [0u8; 16 * 1024];
            match self.stream().read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.decoder.extend(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one query and blocks for its response. Reconnects and — for
    /// idempotent queries only — resubmits on connection failure, per the
    /// module-level retry discipline.
    pub fn query(
        &mut self,
        user: u64,
        deadline_us: u32,
        idempotent: bool,
    ) -> Result<Vec<ScoredItem>, NetClientError> {
        let request_id = self.next_request_id;
        self.next_request_id += 1;
        let frame = Frame::Query { request_id, user, deadline_us, idempotent }.to_bytes();
        let mut attempt = 0u32;
        loop {
            let io_result = self.stream().write_all(&frame).and_then(|()| loop {
                let f = self.read_frame()?;
                // A response for an older request (e.g. one whose error
                // we already reported) is skipped, not an error.
                if f.request_id() == request_id {
                    return Ok(f);
                }
            });
            match io_result {
                Ok(Frame::TopK { items, .. }) => return Ok(items),
                Ok(Frame::Reject { reason, detail, .. }) => {
                    return Err(NetClientError::Rejected { reason, detail })
                }
                Ok(Frame::Query { .. }) => {
                    return Err(NetClientError::Frame(FrameError::BadKind { got: 1 }))
                }
                Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                    // Codec error: the stream is unrecoverable and the query
                    // outcome unknowable — same rule as a disconnect.
                    if !idempotent {
                        return Err(NetClientError::Disconnected);
                    }
                    if attempt >= self.policy.max_retries {
                        return Err(NetClientError::RetriesExhausted { attempts: attempt + 1 });
                    }
                    let pause = self.backoff(attempt);
                    std::thread::sleep(pause);
                    attempt += 1;
                    self.reconnect(attempt)?;
                }
                Err(_disconnect) => {
                    if !idempotent {
                        // The write may have landed; resubmitting could
                        // double-apply. Surface the ambiguity.
                        return Err(NetClientError::Disconnected);
                    }
                    if attempt >= self.policy.max_retries {
                        return Err(NetClientError::RetriesExhausted { attempts: attempt + 1 });
                    }
                    let pause = self.backoff(attempt);
                    std::thread::sleep(pause);
                    attempt += 1;
                    self.reconnect(attempt)?;
                }
            }
        }
    }

    /// Drives `n_requests` queries through the connection keeping up to
    /// `window` in flight, batching sends so the syscall cost amortizes —
    /// the client half of the transport's throughput story. `user_of` maps
    /// the request index to a user id. Returns per-bucket counts and
    /// send→response latencies; any disconnect mid-drive is an error (load
    /// runs do not retry — a dead server must fail the bench loudly).
    pub fn run_pipelined(
        &mut self,
        n_requests: u64,
        window: usize,
        deadline_us: u32,
        user_of: impl Fn(u64) -> u64,
    ) -> Result<PipelineReport, NetClientError> {
        let start = Instant::now();
        let mut report = PipelineReport::default();
        report.latencies_us.reserve(n_requests.min(1 << 22) as usize);
        let mut sent_at: HashMapLite = HashMapLite::with_capacity(window * 2);
        let mut out = Vec::with_capacity(64 * 1024);
        let mut sent = 0u64;
        let mut resolved = 0u64;
        self.stream().set_nonblocking(true).map_err(NetClientError::Io)?;
        let result = (|| -> Result<(), NetClientError> {
            while resolved < n_requests {
                // Fill the window: encode every query that fits into one
                // buffer, then push it with as few writes as the kernel
                // allows.
                while sent < n_requests && (sent - resolved) < window as u64 && out.len() < 1 << 20
                {
                    let request_id = self.next_request_id;
                    self.next_request_id += 1;
                    Frame::Query { request_id, user: user_of(sent), deadline_us, idempotent: true }
                        .encode(&mut out);
                    sent_at.insert(request_id, start.elapsed().as_micros() as u64);
                    sent += 1;
                    report.offered += 1;
                }
                let mut wrote = 0usize;
                while wrote < out.len() {
                    match self.stream().write(&out[wrote..]) {
                        Ok(0) => return Err(NetClientError::Io(io::ErrorKind::WriteZero.into())),
                        Ok(n) => wrote += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(NetClientError::Io(e)),
                    }
                }
                out.drain(..wrote);

                // Read whatever responses are ready; block in poll unless
                // there is still encode work to do right now (window open,
                // send buffer empty, queries left) — never busy-spin on a
                // blocked socket.
                let must_wait =
                    !out.is_empty() || sent == n_requests || (sent - resolved) >= window as u64;
                let mut buf = [0u8; 64 * 1024];
                loop {
                    match self.stream().read(&mut buf) {
                        Ok(0) => {
                            return Err(NetClientError::Io(io::ErrorKind::UnexpectedEof.into()))
                        }
                        Ok(n) => {
                            self.decoder.extend(&buf[..n]);
                            if n < buf.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            if must_wait {
                                let interest = if out.is_empty() {
                                    events::POLLIN
                                } else {
                                    events::POLLIN | events::POLLOUT
                                };
                                let mut fds = [PollFd::new(self.stream().as_raw_fd(), interest)];
                                poll_fds(&mut fds, 1000).map_err(NetClientError::Io)?;
                            }
                            break;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(NetClientError::Io(e)),
                    }
                }
                while let Some(frame) = self.decoder.next()? {
                    let now_us = start.elapsed().as_micros() as u64;
                    match frame {
                        Frame::TopK { request_id, .. } => {
                            resolved += 1;
                            report.completed += 1;
                            if let Some(t0) = sent_at.remove(request_id) {
                                report.latencies_us.push(now_us - t0);
                                report.latency.record(now_us - t0);
                            }
                        }
                        Frame::Reject { request_id, reason, .. } => {
                            resolved += 1;
                            report.rejected += 1;
                            match reason {
                                RejectReason::ResourceExhausted => report.rejected_overload += 1,
                                RejectReason::Draining => report.drained += 1,
                                RejectReason::DeadlineExceeded => report.rejected_deadline += 1,
                                RejectReason::UnknownUser => {}
                            }
                            sent_at.remove(request_id);
                        }
                        Frame::Query { .. } => {
                            return Err(NetClientError::Frame(FrameError::BadKind { got: 1 }))
                        }
                    }
                }
            }
            Ok(())
        })();
        let _ = self.stream().set_nonblocking(false);
        result?;
        report.elapsed = start.elapsed();
        Ok(report)
    }
}

/// A tiny open-addressing u64→u64 map for the pipelined driver's send
/// timestamps — avoids `std::collections::HashMap`'s SipHash on the per-query
/// hot path (request ids are already well-distributed once mixed).
struct HashMapLite {
    slots: Vec<(u64, u64)>, // (request_id + 1, value); 0 = empty
    mask: usize,
    len: usize,
}

impl HashMapLite {
    fn with_capacity(cap: usize) -> Self {
        let n = (cap * 2).next_power_of_two().max(16);
        Self { slots: vec![(0, 0); n], mask: n - 1, len: 0 }
    }

    fn idx(&self, key: u64) -> usize {
        // Fibonacci mix; probe linearly from there.
        (key.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize & self.mask
    }

    fn insert(&mut self, key: u64, value: u64) {
        if (self.len + 1) * 2 > self.slots.len() {
            let mut bigger = HashMapLite::with_capacity(self.slots.len());
            for &(k, v) in &self.slots {
                if k != 0 {
                    bigger.insert(k - 1, v);
                }
            }
            *self = bigger;
        }
        let mut i = self.idx(key);
        loop {
            if self.slots[i].0 == 0 || self.slots[i].0 == key + 1 {
                if self.slots[i].0 == 0 {
                    self.len += 1;
                }
                self.slots[i] = (key + 1, value);
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn remove(&mut self, key: u64) -> Option<u64> {
        let mut i = self.idx(key);
        loop {
            match self.slots[i].0 {
                0 => return None,
                k if k == key + 1 => {
                    let value = self.slots[i].1;
                    // Backward-shift deletion keeps probe chains intact
                    // without tombstones.
                    self.slots[i].0 = 0;
                    self.len -= 1;
                    let mut j = (i + 1) & self.mask;
                    while self.slots[j].0 != 0 {
                        // Move an entry back into the gap iff the gap lies
                        // cyclically between its home slot and its current
                        // position — the standard Robin-Hood shift.
                        let home = self.idx(self.slots[j].0 - 1);
                        let dist_gap = i.wrapping_sub(home) & self.mask;
                        let dist_cur = j.wrapping_sub(home) & self.mask;
                        if dist_gap < dist_cur {
                            self.slots[i] = self.slots[j];
                            self.slots[j].0 = 0;
                            i = j;
                        }
                        j = (j + 1) & self.mask;
                    }
                    return Some(value);
                }
                _ => i = (i + 1) & self.mask,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        let policy =
            RetryPolicy { max_retries: 8, base_backoff_ms: 4, max_backoff_ms: 64, seed: 42 };
        let seq = |seed: u64| -> Vec<u64> {
            let mut c = NetClient {
                addr: "127.0.0.1:1".parse().unwrap(),
                stream: None,
                decoder: FrameDecoder::new(),
                next_request_id: 1,
                policy: RetryPolicy { seed, ..policy },
                jitter_state: seed,
            };
            (0..8).map(|a| c.backoff(a).as_millis() as u64).collect()
        };
        let a = seq(42);
        let b = seq(42);
        assert_eq!(a, b, "same seed, same jitter");
        for (attempt, &ms) in a.iter().enumerate() {
            let exp = (4u64 << attempt).min(64);
            assert!(ms >= exp / 2 && ms < exp / 2 + exp, "attempt {attempt}: {ms}ms");
        }
        let c = seq(43);
        assert_ne!(a, c, "different seed, different jitter");
    }

    #[test]
    fn hashmap_lite_insert_remove_roundtrip() {
        let mut m = HashMapLite::with_capacity(4);
        for k in 0..1000u64 {
            m.insert(k * 7, k);
        }
        // Interleave removals with further inserts to stress the
        // backward-shift deletion.
        for k in 0..500u64 {
            assert_eq!(m.remove(k * 7), Some(k), "key {k}");
        }
        for k in 1000..1500u64 {
            m.insert(k * 7, k);
        }
        for k in 500..1500u64 {
            assert_eq!(m.remove(k * 7), Some(k), "key {k}");
        }
        assert_eq!(m.remove(3), None);
        assert_eq!(m.len, 0);
    }
}
