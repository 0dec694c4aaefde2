//! The open-loop wire generator: one thread, several connections, every
//! request sent when it is due whether or not earlier ones have been
//! answered.
//!
//! Latency runs from the *scheduled* send to the last byte of the
//! response, so a server stall also counts against every request that
//! was due behind it. Responses are matched to requests in FIFO order
//! per connection. Each connection owns the keys it writes, so every
//! `get` has exactly one right answer: the last value this connection
//! sent for the key (every value also carries its key).

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use bench::hist::Histogram;
use server::sys::{self, Epoll, EpollEvent};

use crate::common::Windowed;
use crate::ladder::Op;
use crate::pace::{self, Timer, SPIN};
use crate::report::Tally;
use crate::trace::Tracer;

/// Every value written carries its key in the high half.
pub fn value_of(key: u64, version: u64) -> u64 {
    (key << 32) | (version & 0xffff_ffff)
}

pub fn key_of_value(value: u64) -> u64 {
    value >> 32
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due: Duration,
    pub conn: usize,
    pub req: Op,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    due_ns: u64,
    req: Op,
    /// For a `get`: the value the connection last sent for the key.
    expect: Option<u64>,
    id: u64,
}

/// A parsed response to the request at the head of a connection.
#[derive(Debug, PartialEq, Eq)]
enum Answer {
    Stored,
    Hit(u64, u64),
    Miss,
    /// A complete line that is not a valid answer to the request.
    Bad,
}

fn line_end(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// Parses one response from the front of `buf`: `None` when more bytes
/// are needed, else the answer and the bytes it used.
fn parse_answer(buf: &[u8], req: Op) -> Option<(Answer, usize)> {
    let eol = line_end(buf)?;
    let line = &buf[..eol];
    match req {
        Op::Set(..) => {
            Some((if line == b"STORED" { Answer::Stored } else { Answer::Bad }, eol + 2))
        }
        Op::Delete(_) => unreachable!("the wire mix sends no deletes"),
        Op::Get(_) => {
            if line == b"END" {
                return Some((Answer::Miss, eol + 2));
            }
            let Some(rest) = line.strip_prefix(b"VALUE ") else {
                return Some((Answer::Bad, eol + 2));
            };
            let fields: Vec<&[u8]> = rest.split(|&b| b == b' ').collect();
            let num = |f: &[u8]| std::str::from_utf8(f).ok()?.parse::<u64>().ok();
            let (Some(key), Some(len)) =
                (fields.first().and_then(|f| num(f)), fields.get(2).and_then(|f| num(f)))
            else {
                return Some((Answer::Bad, eol + 2));
            };
            let len = len as usize;
            let data_end = eol + 2 + len;
            // Data, its CRLF, then "END\r\n".
            if buf.len() < data_end + 7 {
                return None;
            }
            let tail_ok = &buf[data_end..data_end + 7] == b"\r\nEND\r\n";
            match (num(&buf[eol + 2..data_end]), tail_ok) {
                (Some(v), true) => Some((Answer::Hit(key, v), data_end + 7)),
                _ => Some((Answer::Bad, data_end + 7)),
            }
        }
    }
}

struct Conn {
    stream: Option<TcpStream>,
    out: Vec<u8>,
    out_pos: usize,
    rbuf: Vec<u8>,
    pending: VecDeque<Pending>,
    want_out: bool,
}

/// Results of one scheduled phase.
#[derive(Debug)]
pub struct PhaseResult {
    pub get: Histogram,
    /// Get latencies by window of scheduled send time.
    pub get_win: Windowed,
    pub set: Histogram,
    pub set_win: Windowed,
    /// Actual minus scheduled send time, ns.
    pub late: Histogram,
    pub backlog_max: u64,
    /// Unanswered requests when the last one was sent.
    pub backlog_at_end: u64,
    pub tally: Tally,
    pub gets: u64,
    pub hits: u64,
    pub completed: u64,
    pub span: Duration,
}

impl PhaseResult {
    /// Adds `part` to the phase gathered so far in `acc`.
    pub fn absorb(acc: &mut Option<PhaseResult>, part: PhaseResult) {
        let Some(a) = acc else {
            *acc = Some(part);
            return;
        };
        a.get.merge(&part.get);
        a.get_win.hists.extend(part.get_win.hists);
        a.set.merge(&part.set);
        a.set_win.hists.extend(part.set_win.hists);
        a.late.merge(&part.late);
        a.backlog_max = a.backlog_max.max(part.backlog_max);
        a.backlog_at_end = a.backlog_at_end.max(part.backlog_at_end);
        a.tally.merge(&part.tally);
        a.gets += part.gets;
        a.hits += part.hits;
        a.completed += part.completed;
        a.span += part.span;
    }

    pub fn achieved_rps(&self) -> f64 {
        self.completed as f64 / self.span.as_secs_f64()
    }

    /// Whether the phase met the latency limit `slo` at rate `rps`:
    /// get p90 within it, nothing failed, and the unanswered backlog at
    /// the last send no larger than the limit allows at this rate.
    pub fn meets(&self, rps: f64, slo: Duration) -> bool {
        let allowed = (rps * slo.as_secs_f64()) as u64 + 8;
        self.tally.failed == 0
            && self.get.count() > 0
            && self.get.percentile_interp(SLO_PERCENTILE) <= slo.as_nanos() as f64
            && self.backlog_at_end <= allowed
    }
}

const TOKEN_TIMER: u64 = u64::MAX;

/// The percentile the latency limit applies to. A guest that loses its
/// vCPU to the host for ~1–2 % of the time in 4 ms slices has p99 at the
/// slice length whatever the server does; p90 stays the server's.
pub const SLO_PERCENTILE: f64 = 90.0;

/// The generator: its connections, its epoll set and its timer.
pub struct Gen {
    ep: Epoll,
    timer: Timer,
    conns: Vec<Conn>,
    /// The last value sent per key (index = key).
    pub expect: Vec<u64>,
    next_id: u64,
}

impl Gen {
    /// Opens `n` connections to `addr`. `expect` holds the value each key
    /// was filled with.
    pub fn connect(addr: SocketAddr, n: usize, expect: Vec<u64>) -> io::Result<Gen> {
        let ep = Epoll::create()?;
        let timer = Timer::new()?;
        ep.add(timer.as_raw_fd(), sys::EPOLLIN, TOKEN_TIMER)?;
        let mut conns = Vec::with_capacity(n);
        for i in 0..n {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            ep.add(s.as_raw_fd(), sys::EPOLLIN | sys::EPOLLRDHUP, i as u64)?;
            conns.push(Conn {
                stream: Some(s),
                out: Vec::with_capacity(64 << 10),
                out_pos: 0,
                rbuf: Vec::with_capacity(64 << 10),
                pending: VecDeque::new(),
                want_out: false,
            });
        }
        Ok(Gen { ep, timer, conns, expect, next_id: 0 })
    }

    /// Runs `plan` (sorted by due time) and waits up to `drain` past the
    /// last due time for answers; whatever is still unanswered then
    /// counts as failed.
    pub fn run(
        &mut self,
        plan: &[Planned],
        drain: Duration,
        window: Duration,
        tr: &mut Tracer,
    ) -> PhaseResult {
        pace::tighten_timer_slack();
        let _awake = pace::IdlePoll::start();
        let mut res = PhaseResult {
            get: Histogram::new(),
            get_win: Windowed::new(window),
            set: Histogram::new(),
            set_win: Windowed::new(window),
            late: Histogram::new(),
            backlog_max: 0,
            backlog_at_end: 0,
            tally: Tally::default(),
            gets: 0,
            hits: 0,
            completed: 0,
            span: Duration::ZERO,
        };
        let span = plan.last().map_or(Duration::ZERO, |p| p.due);
        res.span = span.max(Duration::from_millis(1));
        let mut evs = [EpollEvent::default(); 16];
        let t0 = Instant::now();
        let mut next = 0;
        let mut last_send_seen = false;
        loop {
            let now = t0.elapsed();
            while next < plan.len() && plan[next].due <= now {
                let p = plan[next];
                res.late.record((now - p.due).as_nanos() as u64);
                self.enqueue(p, &mut res);
                next += 1;
            }
            for i in 0..self.conns.len() {
                self.flush(i, &mut res);
            }
            let inflight: u64 = self.conns.iter().map(|c| c.pending.len() as u64).sum();
            res.backlog_max = res.backlog_max.max(inflight);
            if next == plan.len() {
                if !last_send_seen {
                    last_send_seen = true;
                    res.backlog_at_end = inflight;
                }
                if inflight == 0 {
                    break;
                }
                if now > span + drain {
                    for c in &mut self.conns {
                        for _ in c.pending.drain(..) {
                            res.tally.fail("unanswered");
                        }
                    }
                    break;
                }
            }
            let timeout = if next < plan.len() {
                let gap = plan[next].due.saturating_sub(t0.elapsed());
                if gap > SPIN {
                    self.timer.arm(gap - SPIN);
                    -1
                } else {
                    0
                }
            } else {
                1
            };
            let n = self.ep.wait(&mut evs, timeout).unwrap_or_default();
            for ev in &evs[..n] {
                if ev.token() == TOKEN_TIMER {
                    self.timer.clear();
                    continue;
                }
                let i = ev.token() as usize;
                if ev.events() & sys::EPOLLOUT != 0 {
                    self.flush(i, &mut res);
                }
                if ev.events() & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR)
                    != 0
                {
                    self.read_ready(i, t0, &mut res, tr);
                }
            }
        }
        res
    }

    fn enqueue(&mut self, p: Planned, res: &mut PhaseResult) {
        let c = &mut self.conns[p.conn];
        if c.stream.is_none() {
            res.tally.fail("transport");
            return;
        }
        let expect = match p.req {
            Op::Get(k) => Some(self.expect[k as usize]),
            Op::Set(k, v) => {
                self.expect[k as usize] = v;
                None
            }
            Op::Delete(_) => unreachable!("the wire mix sends no deletes"),
        };
        p.req.encode(&mut c.out);
        c.pending.push_back(Pending {
            due_ns: p.due.as_nanos() as u64,
            req: p.req,
            expect,
            id: self.next_id,
        });
        self.next_id += 1;
    }

    /// Writes as much pending output as the socket takes.
    fn flush(&mut self, i: usize, res: &mut PhaseResult) {
        let c = &mut self.conns[i];
        let Some(s) = c.stream.as_mut() else { return };
        while c.out_pos < c.out.len() {
            match s.write(&c.out[c.out_pos..]) {
                Ok(0) => return self.kill(i, res),
                Ok(n) => c.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.kill(i, res),
            }
        }
        if c.out_pos == c.out.len() {
            c.out.clear();
            c.out_pos = 0;
        }
        let want = c.out_pos < c.out.len();
        if want != c.want_out {
            c.want_out = want;
            let ev = sys::EPOLLIN | sys::EPOLLRDHUP | if want { sys::EPOLLOUT } else { 0 };
            if let Some(s) = &c.stream {
                let _ = self.ep.modify(s.as_raw_fd(), ev, i as u64);
            }
        }
    }

    /// Drops a broken connection: everything it owes fails.
    fn kill(&mut self, i: usize, res: &mut PhaseResult) {
        let c = &mut self.conns[i];
        if let Some(s) = c.stream.take() {
            let _ = self.ep.del(s.as_raw_fd());
        }
        for _ in c.pending.drain(..) {
            res.tally.fail("transport");
        }
        c.out.clear();
        c.out_pos = 0;
    }

    fn read_ready(&mut self, i: usize, t0: Instant, res: &mut PhaseResult, tr: &mut Tracer) {
        let mut buf = [0u8; 32 << 10];
        loop {
            let c = &mut self.conns[i];
            let Some(s) = c.stream.as_mut() else { return };
            match s.read(&mut buf) {
                Ok(0) => return self.kill(i, res),
                Ok(n) => {
                    let done_ns = t0.elapsed().as_nanos() as u64;
                    c.rbuf.extend_from_slice(&buf[..n]);
                    Self::match_answers(c, done_ns, res, tr);
                    if c.pending.is_empty() && !c.rbuf.is_empty() {
                        // Bytes nobody asked for: the stream is out of step.
                        c.rbuf.clear();
                        res.tally.fail("malformed");
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.kill(i, res),
            }
        }
    }

    fn match_answers(c: &mut Conn, done_ns: u64, res: &mut PhaseResult, tr: &mut Tracer) {
        let mut pos = 0;
        while let Some(head) = c.pending.front().copied() {
            let Some((answer, used)) = parse_answer(&c.rbuf[pos..], head.req) else { break };
            pos += used;
            c.pending.pop_front();
            res.completed += 1;
            let lat = done_ns.saturating_sub(head.due_ns);
            match (head.req, answer) {
                (Op::Set(..), Answer::Stored) => {
                    res.set.record(lat);
                    res.set_win.record(head.due_ns, lat);
                    res.tally.ok();
                    tr.record("wire.set", head.due_ns, done_ns, 0, head.id);
                }
                (Op::Get(k), Answer::Hit(rk, v)) => {
                    res.gets += 1;
                    res.hits += 1;
                    res.get.record(lat);
                    res.get_win.record(head.due_ns, lat);
                    tr.record("wire.get", head.due_ns, done_ns, 0, head.id);
                    if rk != k || key_of_value(v) != k {
                        res.tally.fail("wrong_key");
                    } else if head.expect != Some(v) {
                        res.tally.fail("stale_value");
                    } else {
                        res.tally.ok();
                    }
                }
                (Op::Get(_), Answer::Miss) => {
                    res.gets += 1;
                    res.get.record(lat);
                    res.get_win.record(head.due_ns, lat);
                    res.tally.fail("missing_key");
                }
                _ => res.tally.fail("malformed"),
            }
        }
        c.rbuf.drain(..pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_split_and_whole_answers() {
        let hit = b"VALUE 7 0 3\r\n123\r\nEND\r\n";
        for cut in 0..hit.len() {
            assert_eq!(parse_answer(&hit[..cut], Op::Get(7)), None, "cut at {cut}");
        }
        assert_eq!(parse_answer(hit, Op::Get(7)), Some((Answer::Hit(7, 123), hit.len())));
        assert_eq!(parse_answer(b"END\r\n", Op::Get(7)), Some((Answer::Miss, 5)));
        assert_eq!(parse_answer(b"STORED\r\n", Op::Set(7, 1)), Some((Answer::Stored, 8)));
        assert_eq!(parse_answer(b"SERVER_ERROR x\r\n", Op::Set(7, 1)), Some((Answer::Bad, 16)));
        assert_eq!(parse_answer(b"ERROR\r\n", Op::Get(7)), Some((Answer::Bad, 7)));
    }
}
