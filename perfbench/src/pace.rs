//! Pacing for open-loop schedules: Poisson arrival times, a timer to
//! sleep through most of a gap, and idle-poll spinners.
//!
//! The default timer slack (50 µs) is longer than a light-load request,
//! so the pacing thread lowers its own slack and sleeps on a `timerfd`
//! armed a little before the due time. A `timerfd` is also a file
//! descriptor, so the wire generator can wait on it and on its sockets
//! in one `epoll_wait`.
//!
//! On a virtual machine an idle vCPU halts, and waking it costs the host
//! a reschedule: on a 2-vCPU Firecracker guest a 500 µs `timerfd` sleep
//! overshot by 27 µs at p50 and 4.8 ms at p99. [`IdlePoll`] keeps every
//! vCPU out of halt with one lowest-priority (`SCHED_IDLE`) spinner per
//! CPU, the software form of `idle=poll`: any runnable thread preempts
//! it at once, so it takes no CPU from the generator or the server, and
//! a wake-up is a reschedule inside the guest (9 µs p50, 14–19 µs p90
//! on the same guest).

use std::fs::File;
use std::io::{self, Read};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use workload::Xorshift;

/// The part of a gap spun instead of slept. At the light rate (mean gap
/// 500 µs) the generator sleeps most of each gap; from the busy rate
/// (50 µs) up it spins, since a sleep there would end late too often.
pub const SPIN: Duration = Duration::from_micros(100);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const Itimerspec, old: *mut Itimerspec) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

const SCHED_IDLE: i32 = 5;
const CLOCK_MONOTONIC: i32 = 1;
const TFD_NONBLOCK: i32 = 0o4000;
const TFD_CLOEXEC: i32 = 0o2000000;
const PR_SET_TIMERSLACK: i32 = 29;

/// Lowers the calling thread's timer slack to 1 ns.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only
    // changes the calling thread's slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
}

/// One `SCHED_IDLE` spinner per CPU for as long as it lives. Only a
/// paced schedule needs it: with spinners up, a newly spawned thread
/// (as in a parallel recovery) waited about 3 ms for a CPU half the time.
pub struct IdlePoll {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdlePoll {
    pub fn start() -> IdlePoll {
        let stop = Arc::new(AtomicBool::new(false));
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..n)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` is a valid sched_param; pid 0 is
                    // the calling thread. Failure leaves it at normal
                    // priority, so it would compete: then do not spin.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        IdlePoll { stop, threads }
    }
}

impl Drop for IdlePoll {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A one-shot relative `timerfd`.
pub struct Timer {
    fd: File,
}

impl Timer {
    pub fn new() -> io::Result<Timer> {
        // SAFETY: plain syscall wrapper; the result is checked below.
        let fd = unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `fd` is a fresh descriptor owned by nobody else.
        Ok(Timer { fd: unsafe { File::from_raw_fd(fd) } })
    }

    /// Arms the timer to fire once after `after` (at least 1 ns).
    pub fn arm(&self, after: Duration) {
        let after = after.max(Duration::from_nanos(1));
        let spec = Itimerspec {
            it_interval: Timespec { tv_sec: 0, tv_nsec: 0 },
            it_value: Timespec {
                tv_sec: after.as_secs() as i64,
                tv_nsec: after.subsec_nanos() as i64,
            },
        };
        // SAFETY: `spec` is a valid itimerspec; the old value is not
        // requested.
        let rc = unsafe { timerfd_settime(self.fd.as_raw_fd(), 0, &spec, std::ptr::null_mut()) };
        debug_assert_eq!(rc, 0, "timerfd_settime failed");
    }

    /// Clears a fired expiry so the descriptor stops being readable.
    pub fn clear(&self) {
        let mut buf = [0u8; 8];
        // A would-block read just means it had not fired.
        let _ = (&self.fd).read(&mut buf);
    }
}

impl AsRawFd for Timer {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

/// Poisson arrival offsets at `rate` per second over `span`.
pub fn poisson(rng: &mut Xorshift, rate: f64, span: Duration) -> Vec<Duration> {
    let end = span.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        // 1 - U lies in (0, 1], so the log is finite.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}
