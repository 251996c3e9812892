//! Open-loop load generator over one loopback connection, speaking
//! `tabbin_serve::wire` frames directly.
//!
//! Requests are due at a fixed offered rate whether or not earlier ones
//! have been answered (independent users). Each request is timed from when
//! it was due, so a stall also charges the wait it imposes on the requests
//! behind it, and the generator reports how late it sent. One thread sends,
//! one receives.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tabbin_index::Hit;
use tabbin_serve::wire::{encode_request, read_frame, write_frame, Request, Response};
use tabbin_serve::ReplyDemux;

/// Lead time between scheduling a phase and its first request.
const LEAD: Duration = Duration::from_millis(2);
/// A reply later than this ends the phase; the rest count as errored.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// One loopback connection reused across phases.
pub struct Conn {
    stream: TcpStream,
    next_tag: u64,
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct PhaseOut {
    pub rate: f64,
    pub sent: u64,
    pub succeeded: u64,
    pub shed: u64,
    pub errored: u64,
    /// Per request (send order): latency from due time to the last hits
    /// chunk, ms; `None` unless it succeeded.
    pub latency_ms: Vec<Option<f64>>,
    /// Per request: how late it was sent, ms.
    pub lag_ms: Vec<f64>,
    /// Requests outstanding right after the last send.
    pub backlog_end: u64,
    /// First due time to last reply, s.
    pub wall_s: f64,
    /// Hits of the requests whose index is a multiple of the sample stride.
    pub sampled: Vec<(usize, Vec<Hit>)>,
}

impl PhaseOut {
    pub fn failed(&self) -> u64 {
        self.shed + self.errored
    }

    /// Latencies of the succeeded requests, ms.
    pub fn ok_latencies(&self) -> Vec<f64> {
        self.latency_ms.iter().flatten().copied().collect()
    }

    /// Replies per second over the phase.
    pub fn achieved(&self) -> f64 {
        self.succeeded as f64 / self.wall_s.max(1e-9)
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn { stream, next_tag: 1 })
    }

    /// Sends `order.len()` requests at `rate` per second — request `i`
    /// asks for the top-`k` of `queries[order[i]]` — and waits for every
    /// reply. Hits are kept for every `sample_every`-th request.
    pub fn phase(
        &mut self,
        queries: &[Vec<f32>],
        order: &[usize],
        rate: f64,
        k: usize,
        sample_every: usize,
    ) -> io::Result<PhaseOut> {
        let n = order.len();
        let tag0 = self.next_tag;
        self.next_tag += n as u64;
        let interval = 1.0 / rate;
        let t0 = Instant::now() + LEAD;
        let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 * interval);
        let completed = AtomicU64::new(0);
        let reader_stream = self.stream.try_clone()?;
        let mut writer = &self.stream;

        std::thread::scope(|scope| {
            let receiver =
                scope.spawn(|| receive(reader_stream, tag0, n, sample_every, &due, &completed));

            let mut lag_ms = Vec::with_capacity(n);
            let mut buf = Vec::new();
            let mut send_err = None;
            let mut i = 0;
            while i < n {
                let now = Instant::now();
                let next = due(i);
                if next > now {
                    std::thread::sleep(next - now);
                    continue;
                }
                // Everything already due goes out in one write.
                buf.clear();
                while i < n && due(i) <= now {
                    let req = Request::Query { k: k as u32, vector: queries[order[i]].clone() };
                    write_frame(&mut buf, &encode_request(tag0 + i as u64, &req))?;
                    lag_ms.push((now - due(i)).as_secs_f64() * 1e3);
                    i += 1;
                }
                if let Err(e) = writer.write_all(&buf) {
                    send_err = Some(e);
                    break;
                }
            }
            let backlog_end =
                (lag_ms.len() as u64).saturating_sub(completed.load(Ordering::SeqCst));
            if send_err.is_some() {
                // Unblock the receiver; the unsent requests count as errored.
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
            }
            let mut out = receiver.join().expect("receiver thread panicked")?;
            out.rate = rate;
            out.sent = lag_ms.len() as u64;
            out.lag_ms = lag_ms;
            out.backlog_end = backlog_end;
            out.wall_s = out.wall_s.max(1e-9);
            match send_err {
                Some(e) => Err(e),
                None => Ok(out),
            }
        })
    }
}

/// Reads replies until all `n` requests of the phase are answered.
fn receive(
    stream: TcpStream,
    tag0: u64,
    n: usize,
    sample_every: usize,
    due: &(dyn Fn(usize) -> Instant + Sync),
    completed: &AtomicU64,
) -> io::Result<PhaseOut> {
    let mut reader = BufReader::new(stream);
    let mut demux = ReplyDemux::new();
    let mut out = PhaseOut { latency_ms: vec![None; n], ..Default::default() };
    let mut answered = 0;
    let mut last = due(0);
    while answered < n {
        let payload = match read_frame(&mut reader) {
            Ok(p) => p,
            // A dead or silent connection ends the phase; the unanswered
            // requests count as errored.
            Err(_) => break,
        };
        let Some((tag, resp)) = demux.push(&payload)? else { continue };
        let now = Instant::now();
        let i = tag.checked_sub(tag0).map(|d| d as usize).filter(|&i| i < n).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("reply for unknown tag {tag}"))
        })?;
        match resp {
            Response::Hits { hits, .. } => {
                out.succeeded += 1;
                out.latency_ms[i] = Some(now.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
                if i % sample_every == 0 {
                    out.sampled.push((i, hits));
                }
            }
            Response::Overloaded { .. } => out.shed += 1,
            _ => out.errored += 1,
        }
        answered += 1;
        last = now;
        completed.fetch_add(1, Ordering::SeqCst);
    }
    // Unanswered requests, sent or not, count as errored.
    out.errored += (n - answered) as u64;
    out.wall_s = last.saturating_duration_since(due(0)).as_secs_f64();
    Ok(out)
}
